//! # softsim-iss — cycle-accurate instruction-set simulator for MB32
//!
//! The software-execution-platform component of the paper's co-simulation
//! environment: a cycle-accurate simulator for programs running on the
//! MB32 (MicroBlaze-style) soft processor. The debugger interface
//! mirroring the `mb-gdb` pipe of Fig. 2 drives the whole co-simulation
//! and lives in `softsim-cosim`.
//!
//! The simulator advances in single clock cycles ([`Cpu::tick`]) so the
//! co-simulation engine can interleave it exactly with the hardware-block
//! and bus models. Blocking FSL accesses stall the processor precisely as
//! §III-B describes.

#![warn(missing_docs)]

mod cpu;
mod exec;
mod fault;
mod stats;
mod translate;

pub use cpu::{
    classify, Cpu, CpuSnapshot, Event, FslBlock, InFlight, NotFslStalled, PipeSnapshot, StopReason,
    DEFAULT_MEM_BYTES, OPB_BASE,
};
pub use fault::Fault;
pub use softsim_isa::CpuConfig;
pub use stats::CpuStats;
pub use translate::{TranslatedRun, TranslationStats};

#[cfg(test)]
mod tests {
    use super::*;
    use softsim_bus::{FslBank, FslWord};
    use softsim_isa::asm::assemble;
    use softsim_isa::reg::r;
    use softsim_isa::Image;

    fn run_program(src: &str) -> (Cpu, FslBank) {
        let img = assemble(src).expect("program must assemble");
        let mut cpu = Cpu::with_default_memory(&img);
        let mut fsl = FslBank::default();
        let stop = cpu.run(&mut fsl, 1_000_000);
        assert_eq!(stop, StopReason::Halted, "program must halt: {src}");
        (cpu, fsl)
    }

    fn image(src: &str) -> Image {
        assemble(src).expect("program must assemble")
    }

    #[test]
    fn arithmetic_and_carry_chain() {
        let (cpu, _) = run_program(
            "li r3, 0xFFFFFFFF\n\
             addik r4, r0, 1\n\
             add r5, r3, r4      # 0xFFFFFFFF + 1 = 0, carry out\n\
             addc r6, r0, r0     # r6 = carry = 1\n\
             halt\n",
        );
        assert_eq!(cpu.reg(r(5)), 0);
        assert_eq!(cpu.reg(r(6)), 1);
    }

    #[test]
    fn addk_preserves_carry() {
        let (cpu, _) = run_program(
            "li r3, 0xFFFFFFFF\n\
             add r4, r3, r3      # sets carry\n\
             addk r5, r0, r0     # keep: carry still set\n\
             addc r6, r0, r0     # r6 = 1\n\
             halt\n",
        );
        assert_eq!(cpu.reg(r(6)), 1);
    }

    #[test]
    fn rsub_is_reverse_subtract() {
        let (cpu, _) = run_program(
            "addik r3, r0, 7\n\
             addik r4, r0, 10\n\
             rsub r5, r3, r4     # r5 = r4 - r3 = 3\n\
             rsubi r6, r3, 5     # r6 = 5 - r3 = -2\n\
             halt\n",
        );
        assert_eq!(cpu.reg(r(5)), 3);
        assert_eq!(cpu.reg(r(6)) as i32, -2);
    }

    #[test]
    fn cmp_sets_sign_bit_for_signed_and_unsigned() {
        let (cpu, _) = run_program(
            "addik r3, r0, -1    # 0xFFFFFFFF\n\
             addik r4, r0, 1\n\
             cmp  r5, r3, r4     # signed: -1 > 1 false -> bit31 clear\n\
             cmpu r6, r3, r4     # unsigned: 0xFFFFFFFF > 1 -> bit31 set\n\
             cmp  r7, r4, r3     # signed: 1 > -1 -> bit31 set\n\
             halt\n",
        );
        assert_eq!(cpu.reg(r(5)) >> 31, 0);
        assert_eq!(cpu.reg(r(6)) >> 31, 1);
        assert_eq!(cpu.reg(r(7)) >> 31, 1);
    }

    #[test]
    fn multiply_matches_wrapping_semantics() {
        let (cpu, _) = run_program(
            "li r3, 123456\n\
             li r4, 789\n\
             mul r5, r3, r4\n\
             muli r6, r3, -2\n\
             halt\n",
        );
        assert_eq!(cpu.reg(r(5)), 123456u32.wrapping_mul(789));
        assert_eq!(cpu.reg(r(6)), 123456u32.wrapping_mul(-2i32 as u32));
    }

    #[test]
    fn one_bit_shifts_and_carry() {
        let (cpu, _) = run_program(
            "addik r3, r0, 5     # 0b101\n\
             srl r4, r3          # r4 = 2, carry = 1\n\
             src r5, r3          # r5 = (carry<<31) | 2\n\
             addik r6, r0, -8\n\
             sra r7, r6          # arithmetic: -4\n\
             halt\n",
        );
        assert_eq!(cpu.reg(r(4)), 2);
        assert_eq!(cpu.reg(r(5)), 0x8000_0002);
        assert_eq!(cpu.reg(r(7)) as i32, -4);
    }

    #[test]
    fn barrel_shifts() {
        let (cpu, _) = run_program(
            "li r3, 0x80000000\n\
             addik r4, r0, 4\n\
             bsrl r5, r3, r4     # logical right 4\n\
             bsra r6, r3, r4     # arithmetic right 4\n\
             bslli r7, r4, 8     # 4 << 8\n\
             halt\n",
        );
        assert_eq!(cpu.reg(r(5)), 0x0800_0000);
        assert_eq!(cpu.reg(r(6)), 0xF800_0000);
        assert_eq!(cpu.reg(r(7)), 4 << 8);
    }

    #[test]
    fn sign_extension() {
        let (cpu, _) = run_program(
            "addik r3, r0, 0x80\n\
             sext8 r4, r3\n\
             li r5, 0x8000\n\
             sext16 r6, r5\n\
             halt\n",
        );
        assert_eq!(cpu.reg(r(4)) as i32, -128);
        assert_eq!(cpu.reg(r(6)) as i32, -32768);
    }

    #[test]
    fn loads_and_stores_big_endian() {
        let (cpu, _) = run_program(
            "li r3, 0x11223344\n\
             swi r3, r0, 0x100\n\
             lbui r4, r0, 0x100   # MSB first\n\
             lhui r5, r0, 0x102\n\
             lwi r6, r0, 0x100\n\
             addik r7, r0, 0x100\n\
             addik r8, r0, 2\n\
             lhu r9, r7, r8\n\
             halt\n",
        );
        assert_eq!(cpu.reg(r(4)), 0x11);
        assert_eq!(cpu.reg(r(5)), 0x3344);
        assert_eq!(cpu.reg(r(6)), 0x11223344);
        assert_eq!(cpu.reg(r(9)), 0x3344);
    }

    #[test]
    fn loop_with_delay_slot_executes_slot_instruction() {
        let (cpu, _) = run_program(
            "      addik r3, r0, 5\n\
                   addk r4, r0, r0\n\
             loop: addik r3, r3, -1\n\
                   bneid r3, loop\n\
                   addik r4, r4, 1   # delay slot: executes every iteration\n\
                   halt\n",
        );
        assert_eq!(cpu.reg(r(3)), 0);
        assert_eq!(cpu.reg(r(4)), 5, "delay slot runs once per loop trip");
    }

    #[test]
    fn branch_not_taken_falls_through() {
        let (cpu, _) = run_program(
            "addik r3, r0, 0\n\
             bnei r3, skip\n\
             addik r4, r0, 1\n\
             skip: halt\n",
        );
        assert_eq!(cpu.reg(r(4)), 1);
    }

    #[test]
    fn call_return_with_link_register() {
        let (cpu, _) = run_program(
            "      addik r5, r0, 1\n\
                   brlid r15, double\n\
                   nop\n\
                   addik r6, r5, 0\n\
                   halt\n\
             double: addk r5, r5, r5\n\
                   rtsd r15, 8\n\
                   nop\n",
        );
        assert_eq!(cpu.reg(r(6)), 2, "function doubled r5 and returned");
    }

    #[test]
    fn nested_calls_via_different_link_registers() {
        let (cpu, _) = run_program(
            "      brlid r15, outer\n\
                   nop\n\
                   halt\n\
             outer: addik r3, r3, 1\n\
                   brlid r14, inner\n\
                   nop\n\
                   rtsd r15, 8\n\
                   nop\n\
             inner: addik r3, r3, 10\n\
                   rtsd r14, 8\n\
                   nop\n",
        );
        assert_eq!(cpu.reg(r(3)), 11);
    }

    #[test]
    fn imm_prefix_builds_32_bit_immediates() {
        let (cpu, _) = run_program(
            "imm 0x1234\n\
             addik r3, r0, 0x5678\n\
             addik r4, r0, 0x5678   # no prefix: sign-extended only\n\
             halt\n",
        );
        assert_eq!(cpu.reg(r(3)), 0x1234_5678);
        assert_eq!(cpu.reg(r(4)), 0x5678);
    }

    #[test]
    fn fsl_nonblocking_sets_carry_on_miss() {
        let (cpu, _) = run_program(
            "nget r3, rfsl0      # empty: carry = 1\n\
             addc r4, r0, r0     # r4 = 1\n\
             halt\n",
        );
        assert_eq!(cpu.reg(r(4)), 1);
        assert_eq!(cpu.stats().fsl_nonblocking_misses, 1);
    }

    #[test]
    fn fsl_blocking_get_stalls_until_data() {
        let img = image(
            "get r3, rfsl0\n\
             halt\n",
        );
        let mut cpu = Cpu::with_default_memory(&img);
        let mut fsl = FslBank::default();
        // Stall for a while.
        for _ in 0..10 {
            let ev = cpu.tick(&mut fsl);
            assert_eq!(ev, Event::Busy);
        }
        assert!(cpu.stats().fsl_read_stalls >= 9);
        // Provide the word; the get completes two cycles later.
        fsl.from_hw(0).try_push(FslWord::data(0x42));
        let stop = cpu.run(&mut fsl, 100);
        assert_eq!(stop, StopReason::Halted);
        assert_eq!(cpu.reg(r(3)), 0x42);
        assert_eq!(cpu.stats().fsl_words_received, 1);
    }

    #[test]
    fn fsl_blocking_put_stalls_when_full() {
        let img = image(
            "addik r3, r0, 7\n\
             put r3, rfsl0\n\
             halt\n",
        );
        let mut cpu = Cpu::with_default_memory(&img);
        let mut fsl = FslBank::new(1);
        fsl.to_hw(0).try_push(FslWord::data(0)); // pre-fill: channel full
        for _ in 0..8 {
            cpu.tick(&mut fsl);
        }
        assert!(!cpu.halted(), "put must stall while the FIFO is full");
        assert!(cpu.stats().fsl_write_stalls > 0);
        fsl.to_hw(0).try_pop();
        let stop = cpu.run(&mut fsl, 100);
        assert_eq!(stop, StopReason::Halted);
        assert_eq!(fsl.to_hw(0).try_pop(), Some(FslWord::data(7)));
    }

    #[test]
    fn fsl_control_words_carry_the_control_bit() {
        let (_, mut fsl) = run_program(
            "addik r3, r0, 0xC0\n\
             cput r3, rfsl2\n\
             addik r4, r0, 0xD0\n\
             put r4, rfsl2\n\
             halt\n",
        );
        assert_eq!(fsl.to_hw(2).try_pop(), Some(FslWord::control(0xC0)));
        assert_eq!(fsl.to_hw(2).try_pop(), Some(FslWord::data(0xD0)));
    }

    #[test]
    fn cycle_accounting_matches_timing_model() {
        // addik(1) + mul(3) + lwi(2) + swi(2) + halt(1) = 9 cycles.
        let (cpu, _) = run_program(
            "addik r3, r0, 3\n\
             mul r4, r3, r3\n\
             lwi r5, r0, 0x40\n\
             swi r4, r0, 0x40\n\
             halt\n",
        );
        assert_eq!(cpu.stats().cycles, 9);
        assert_eq!(cpu.stats().instructions, 5);
        assert_eq!(cpu.stats().multiplies, 1);
    }

    #[test]
    fn taken_branch_penalty() {
        // bri taken without delay slot: 1 + 2 flush = 3 cycles, plus halt 1.
        let (cpu, _) = run_program("bri t\nnop\nt: halt\n");
        assert_eq!(cpu.stats().cycles, 4);
        // With delay slot: brid(1+1) + slot nop(1) + halt(1) = 4.
        let (cpu, _) = run_program("brid t\nnop\nt: halt\n");
        assert_eq!(cpu.stats().cycles, 4);
        // Not-taken conditional: 1 cycle only.
        let (cpu, _) = run_program("bnei r0, t\nt: halt\n");
        assert_eq!(cpu.stats().cycles, 2);
    }

    #[test]
    fn fault_on_illegal_delay_slot() {
        let img = image("brid t\nbri t\nt: halt\n");
        let mut cpu = Cpu::with_default_memory(&img);
        let mut fsl = FslBank::default();
        let stop = cpu.run(&mut fsl, 100);
        assert!(matches!(stop, StopReason::Fault(Fault::IllegalDelaySlot { pc: 4 })));
        assert!(cpu.halted());
    }

    #[test]
    fn fault_on_bad_memory_access() {
        let img = image("li r3, 0x7FFFFFF0\nlwi r4, r3, 0\nhalt\n");
        let mut cpu = Cpu::with_default_memory(&img);
        let mut fsl = FslBank::default();
        let stop = cpu.run(&mut fsl, 100);
        assert!(matches!(stop, StopReason::Fault(Fault::Memory { .. })));
    }

    #[test]
    fn fault_on_undecodable_instruction() {
        let img = image(".word 0xFFFFFFFF\n");
        let mut cpu = Cpu::with_default_memory(&img);
        let mut fsl = FslBank::default();
        let stop = cpu.run(&mut fsl, 100);
        assert!(matches!(stop, StopReason::Fault(Fault::Decode { pc: 0, .. })));
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let (cpu, _) = run_program(
            "addik r0, r0, 42\n\
             addk r3, r0, r0\n\
             halt\n",
        );
        assert_eq!(cpu.reg(r(0)), 0);
        assert_eq!(cpu.reg(r(3)), 0);
    }

    #[test]
    fn trace_records_retired_instructions_in_order() {
        use softsim_trace::{shared, Recorder, TraceEvent};
        let img = image("addik r3, r0, 1\naddik r3, r3, 1\nhalt\n");
        let mut cpu = Cpu::with_default_memory(&img);
        let recorder = std::rc::Rc::new(std::cell::RefCell::new(Recorder::new(64)));
        cpu.attach_trace(shared(recorder.clone()));
        let mut fsl = FslBank::default();
        cpu.run(&mut fsl, 100);
        let trace: Vec<(u64, u32)> = (recorder.borrow().events().into_iter())
            .filter_map(|e| match e {
                TraceEvent::Retire { cycle, pc, .. } => Some((cycle, pc)),
                _ => None,
            })
            .collect();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].1, 0);
        assert_eq!(trace[1].1, 4);
        assert_eq!(trace[2].1, 8);
        assert!(trace.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn cycle_limit_stops_infinite_loop() {
        let img = image("loop: bri loop\n");
        let mut cpu = Cpu::with_default_memory(&img);
        let mut fsl = FslBank::default();
        let stop = cpu.run(&mut fsl, 1000);
        assert_eq!(stop, StopReason::CycleLimit);
        assert!(cpu.stats().cycles >= 1000);
    }

    #[test]
    fn idiv_semantics_and_timing() {
        use softsim_isa::CpuConfig;
        let img = image(
            "li r3, 100\n\
             addik r4, r0, 7\n\
             idiv r5, r4, r3     # r5 = r3 / r4 = 14 (reverse operands)\n\
             addik r6, r0, -100\n\
             idiv r7, r4, r6     # signed: -14\n\
             idivu r8, r4, r6    # unsigned: huge\n\
             idiv r9, r0, r3     # divide by zero -> 0\n\
             halt\n",
        );
        let mut cpu = Cpu::with_config(&img, CpuConfig::full());
        let mut fsl = FslBank::default();
        assert_eq!(cpu.run(&mut fsl, 10_000), StopReason::Halted);
        assert_eq!(cpu.reg(r(5)), 14);
        assert_eq!(cpu.reg(r(7)) as i32, -14);
        assert_eq!(cpu.reg(r(8)), (-100i32 as u32) / 7);
        assert_eq!(cpu.reg(r(9)), 0, "divide by zero yields zero");
        // Each idiv costs 32 cycles: 4 of them dominate the cycle count.
        assert!(cpu.stats().cycles >= 4 * 32);
    }

    #[test]
    fn idiv_int_min_by_minus_one_wraps() {
        use softsim_isa::CpuConfig;
        let img = image(
            "li r3, 0x80000000\n\
             addik r4, r0, -1\n\
             idiv r5, r4, r3\n\
             halt\n",
        );
        let mut cpu = Cpu::with_config(&img, CpuConfig::full());
        let mut fsl = FslBank::default();
        assert_eq!(cpu.run(&mut fsl, 10_000), StopReason::Halted);
        assert_eq!(cpu.reg(r(5)), 0x8000_0000, "INT_MIN / -1 wraps");
    }

    #[test]
    fn optional_units_fault_when_absent() {
        use softsim_isa::CpuConfig;
        let cases = [
            ("mul r3, r4, r5\nhalt\n", "multiplier"),
            ("idiv r3, r4, r5\nhalt\n", "divider"),
            ("bslli r3, r4, 2\nhalt\n", "barrel shifter"),
        ];
        for (src, unit) in cases {
            let img = image(src);
            let mut cpu = Cpu::with_config(&img, CpuConfig::minimal());
            let mut fsl = FslBank::default();
            match cpu.run(&mut fsl, 1000) {
                StopReason::Fault(Fault::DisabledInstruction { unit: u, .. }) => {
                    assert_eq!(u, unit);
                }
                other => panic!("{unit}: expected DisabledInstruction, got {other:?}"),
            }
        }
        // The default configuration has the divider off.
        let img = image("idiv r3, r4, r5\nhalt\n");
        let mut cpu = Cpu::with_default_memory(&img);
        let mut fsl = FslBank::default();
        assert!(matches!(
            cpu.run(&mut fsl, 1000),
            StopReason::Fault(Fault::DisabledInstruction { .. })
        ));
    }

    #[test]
    fn opb_mapped_registers_read_write() {
        use softsim_bus::{OpbBus, RegisterFile};
        let img = image(
            "li r3, 0x80000000\n\
             li r4, 0x1234\n\
             swi r4, r3, 8\n\
             lwi r5, r3, 8\n\
             halt\n",
        );
        let mut cpu = Cpu::with_default_memory(&img);
        let mut bus = OpbBus::new();
        bus.map(0x8000_0000, 0x100, Box::new(RegisterFile::new(8)));
        cpu.attach_opb(bus);
        let mut fsl = FslBank::default();
        assert_eq!(cpu.run(&mut fsl, 1000), StopReason::Halted);
        assert_eq!(cpu.reg(r(5)), 0x1234);
    }

    #[test]
    fn opb_transfers_pay_bus_latency() {
        use softsim_bus::{OpbBus, RegisterFile, OPB_READ_LATENCY, OPB_WRITE_LATENCY};
        // Same program against LMB vs OPB addresses; the OPB run must be
        // slower by exactly the write+read bus latency.
        let lmb = image("li r3, 0x100\nswi r0, r3, 0\nlwi r5, r3, 0\nhalt\n");
        let opb = image("li r3, 0x80000000\nswi r0, r3, 0\nlwi r5, r3, 0\nhalt\n");
        let cycles = |img: &softsim_isa::Image, with_opb: bool| {
            let mut cpu = Cpu::with_default_memory(img);
            if with_opb {
                let mut bus = OpbBus::new();
                bus.map(0x8000_0000, 0x100, Box::new(RegisterFile::new(4)));
                cpu.attach_opb(bus);
            }
            let mut fsl = FslBank::default();
            assert_eq!(cpu.run(&mut fsl, 1000), StopReason::Halted);
            cpu.stats().cycles
        };
        let lmb_cycles = cycles(&lmb, false);
        let opb_cycles = cycles(&opb, true);
        assert_eq!(
            opb_cycles,
            lmb_cycles + (OPB_READ_LATENCY + OPB_WRITE_LATENCY) as u64,
            "OPB pays the documented per-transfer latency"
        );
    }

    #[test]
    fn opb_access_without_bus_faults() {
        let img = image("li r3, 0x80000000\nlwi r5, r3, 0\nhalt\n");
        let mut cpu = Cpu::with_default_memory(&img);
        let mut fsl = FslBank::default();
        assert!(matches!(cpu.run(&mut fsl, 1000), StopReason::Fault(Fault::Memory { .. })));
    }

    #[test]
    fn opb_rejects_subword_access() {
        use softsim_bus::{OpbBus, RegisterFile};
        let img = image("li r3, 0x80000000\nlbui r5, r3, 0\nhalt\n");
        let mut cpu = Cpu::with_default_memory(&img);
        let mut bus = OpbBus::new();
        bus.map(0x8000_0000, 0x100, Box::new(RegisterFile::new(4)));
        cpu.attach_opb(bus);
        let mut fsl = FslBank::default();
        assert!(matches!(cpu.run(&mut fsl, 1000), StopReason::Fault(Fault::Memory { .. })));
    }

    /// Runs `src` through the interpreter and the translated fast path
    /// and asserts every architectural observable agrees — the shared
    /// oracle for the directed carry tests below.
    fn run_both_paths(src: &str) -> Cpu {
        let img = image(src);
        let mut interp = Cpu::with_default_memory(&img);
        let mut fsl = FslBank::default();
        assert_eq!(interp.run(&mut fsl, 1_000_000), StopReason::Halted, "program must halt");
        let mut xlated = Cpu::with_default_memory(&img);
        xlated.set_translation(true);
        let mut fsl = FslBank::default();
        assert_eq!(xlated.run(&mut fsl, 1_000_000), StopReason::Halted);
        assert_eq!(interp.stats(), xlated.stats(), "stats diverged: {src}");
        assert_eq!(interp.carry(), xlated.carry(), "carry diverged: {src}");
        for i in 0..32u8 {
            assert_eq!(interp.reg(r(i)), xlated.reg(r(i)), "r{i} diverged: {src}");
        }
        xlated
    }

    #[test]
    fn carry_out_of_add_matches_microblaze() {
        // MicroBlaze: C = adder carry-out of a + b (+ cin).
        let cpu = run_both_paths(
            "li r3, 0xFFFFFFFF\n\
             addik r4, r0, 1\n\
             add r5, r3, r4      # 0xFFFFFFFF + 1 -> 0, C = 1\n\
             addc r6, r0, r0     # consume C: r6 = 1, C = 0\n\
             addc r7, r3, r0     # 0xFFFFFFFF + 0 + 0, no overflow: C = 0\n\
             addc r8, r0, r0     # r8 = 0\n\
             halt\n",
        );
        assert_eq!(cpu.reg(r(5)), 0);
        assert_eq!(cpu.reg(r(6)), 1);
        assert_eq!(cpu.reg(r(7)), 0xFFFF_FFFF);
        assert_eq!(cpu.reg(r(8)), 0);
    }

    #[test]
    fn carry_chain_performs_64_bit_addition() {
        // 0x00000001_FFFFFFFF + 0x00000002_00000001 via add / addc.
        let cpu = run_both_paths(
            "li r3, 0xFFFFFFFF\n\
             addik r4, r0, 1\n\
             add r5, r3, r4      # low word: 0, C = 1\n\
             addik r6, r0, 1\n\
             addik r7, r0, 2\n\
             addc r8, r6, r7     # high word: 1 + 2 + C = 4\n\
             halt\n",
        );
        assert_eq!(cpu.reg(r(5)), 0);
        assert_eq!(cpu.reg(r(8)), 4);
    }

    #[test]
    fn carry_out_of_rsub_is_not_borrow() {
        // MicroBlaze rsub: rd = rb + ~ra + 1; C is the adder carry-out,
        // i.e. C = 1 exactly when rb >= ra (no borrow).
        let cpu = run_both_paths(
            "addik r3, r0, 5\n\
             addik r4, r0, 3\n\
             rsub r5, r3, r4     # 3 - 5 = -2, borrow: C = 0\n\
             addc r6, r0, r0     # r6 = 0\n\
             rsub r7, r4, r3     # 5 - 3 = 2, no borrow: C = 1\n\
             addc r8, r0, r0     # r8 = 1\n\
             rsub r9, r4, r4     # 3 - 3 = 0, no borrow: C = 1\n\
             addc r10, r0, r0    # r10 = 1\n\
             halt\n",
        );
        assert_eq!(cpu.reg(r(5)) as i32, -2);
        assert_eq!(cpu.reg(r(6)), 0);
        assert_eq!(cpu.reg(r(7)), 2);
        assert_eq!(cpu.reg(r(8)), 1);
        assert_eq!(cpu.reg(r(9)), 0);
        assert_eq!(cpu.reg(r(10)), 1);
    }

    #[test]
    fn rsubc_chains_borrow_through_carry() {
        // rsubc: rd = rb + ~ra + C — the multi-word subtract primitive.
        // With C = 1 (no pending borrow) it is exact subtraction; with
        // C = 0 it subtracts one more.
        let cpu = run_both_paths(
            "addik r3, r0, 3\n\
             addik r4, r0, 10\n\
             li r9, 0xFFFFFFFF\n\
             add r10, r9, r9     # force C = 1\n\
             rsubc r5, r3, r4    # C = 1: exact 10 - 3 = 7, carry-out C = 1\n\
             addc r6, r0, r0     # r6 = 1, C = 0\n\
             rsubc r7, r3, r4    # C = 0: 10 + ~3 + 0 = 6 (one extra borrowed)\n\
             halt\n",
        );
        assert_eq!(cpu.reg(r(5)), 7);
        assert_eq!(cpu.reg(r(6)), 1);
        assert_eq!(cpu.reg(r(7)), 6);
    }

    #[test]
    fn carry_out_of_srl_src_sra_is_shifted_out_bit() {
        let cpu = run_both_paths(
            "addik r3, r0, 5\n\
             srl r4, r3          # 0b101 >> 1 = 2, C = old bit0 = 1\n\
             addc r5, r0, r0     # r5 = 1\n\
             addik r6, r0, 4\n\
             srl r7, r6          # 0b100 >> 1 = 2, C = 0\n\
             addc r8, r0, r0     # r8 = 0\n\
             halt\n",
        );
        assert_eq!(cpu.reg(r(4)), 2);
        assert_eq!(cpu.reg(r(5)), 1);
        assert_eq!(cpu.reg(r(7)), 2);
        assert_eq!(cpu.reg(r(8)), 0);

        // src inserts the OLD carry into bit 31 while capturing bit 0 —
        // the order the MicroBlaze reference specifies.
        let cpu = run_both_paths(
            "addik r3, r0, 5\n\
             srl r4, r3          # C = 1\n\
             addik r5, r0, 4\n\
             src r6, r5          # (4 >> 1) | (1 << 31), new C = 4 & 1 = 0\n\
             addik r7, r0, 3\n\
             src r8, r7          # C = 0 now: 3 >> 1 = 1, new C = 1\n\
             addc r9, r0, r0     # r9 = 1\n\
             halt\n",
        );
        assert_eq!(cpu.reg(r(6)), 0x8000_0002);
        assert_eq!(cpu.reg(r(8)), 1);
        assert_eq!(cpu.reg(r(9)), 1);

        let cpu = run_both_paths(
            "addik r3, r0, -7\n\
             sra r4, r3          # 0xFFFFFFF9 >> 1 arith = -4, C = 1\n\
             addc r5, r0, r0     # r5 = 1\n\
             addik r6, r0, -8\n\
             sra r7, r6          # -8 >> 1 = -4, C = 0\n\
             addc r8, r0, r0     # r8 = 0\n\
             halt\n",
        );
        assert_eq!(cpu.reg(r(4)) as i32, -4);
        assert_eq!(cpu.reg(r(5)), 1);
        assert_eq!(cpu.reg(r(7)) as i32, -4);
        assert_eq!(cpu.reg(r(8)), 0);
    }

    #[test]
    fn in_flight_cycle_attribution_saturates_past_u32() {
        // A >4-billion-cycle stall (reachable via fast-forward jumps)
        // must clamp the per-instruction attribution, not truncate it.
        let img = image("get r3, rfsl0\nhalt\n");
        let mut cpu = Cpu::with_default_memory(&img);
        let mut fsl = FslBank::default();
        assert_eq!(cpu.tick(&mut fsl), Event::Busy); // issues, blocks
        cpu.fast_forward_stall(u32::MAX as u64 + 10).expect("pipeline is FSL-stalled");
        let f = cpu.in_flight().expect("get is in flight");
        assert_eq!(f.cycles, u32::MAX, "attribution saturates instead of wrapping");
        assert_eq!(f.read_stalls, u32::MAX);
        assert_eq!(cpu.stats().cycles, 1 + u32::MAX as u64 + 10, "cycle counter stays exact");
    }

    #[test]
    fn fast_forward_stall_rejects_non_stalled_pipeline() {
        // Meaningful in release builds too: a typed error, not a
        // debug-only assert, and no counter is touched.
        let img = image("addik r3, r0, 1\nhalt\n");
        let mut cpu = Cpu::with_default_memory(&img);
        let before = cpu.stats();
        assert_eq!(cpu.fast_forward_stall(100), Err(NotFslStalled));
        assert_eq!(cpu.stats(), before, "rejected call must not corrupt accounting");
        let mut fsl = FslBank::default();
        assert_eq!(cpu.run(&mut fsl, 100), StopReason::Halted);
        let before = cpu.stats();
        assert_eq!(cpu.fast_forward_stall(7), Err(NotFslStalled), "halted CPU is not stalled");
        assert_eq!(cpu.stats(), before);
    }

    #[test]
    fn software_multiply_by_shifts_matches_mul() {
        // Cross-check: compute 0xABCD * 77 with shift-add in software.
        let (cpu, _) = run_program(
            "li r3, 0xABCD\n\
             addik r4, r0, 77\n\
             addk r5, r0, r0      # acc\n\
             loop: andi r6, r4, 1\n\
             beqi r6, skip\n\
             addk r5, r5, r3\n\
             skip: addk r3, r3, r3\n\
             srl r4, r4\n\
             bnei r4, loop\n\
             mul r7, r0, r0       # placeholder\n\
             li r8, 0xABCD\n\
             muli r7, r8, 77\n\
             halt\n",
        );
        assert_eq!(cpu.reg(r(5)), cpu.reg(r(7)));
        assert_eq!(cpu.reg(r(5)), 0xABCD * 77);
    }
}

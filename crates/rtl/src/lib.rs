//! # softsim-rtl — event-driven behavioral RTL simulation (the baseline)
//!
//! The low-level simulation substrate the paper compares against: an HDL
//! simulator in the ModelSim mold, with signals, sensitivity-listed
//! processes, delta cycles and an event wheel ([`kernel`]); a word-level
//! component library at behavioral-VHDL granularity ([`comp`]); VCD
//! waveform output ([`vcd`]); and the full-SoC model of the MB32 soft
//! processor with its LMB memory and FSL channels ([`soc`]).
//!
//! Simulating a design here produces exactly the same architectural
//! behavior and cycle counts as the high-level co-simulator (validated by
//! cross-simulator trace-equivalence tests) while paying the per-event,
//! per-delta-cycle costs of low-level simulation — reproducing the
//! performance gap reported in the paper's Tables I and II.

#![warn(missing_docs)]

pub mod comp;
pub mod kernel;
pub mod soc;
pub mod vcd;

pub use comp::{clock, Clock, FifoPorts, SharedFifo};
pub use kernel::{Kernel, KernelStats, Primitives, ProcCtx, ProcId, SignalId, Time};
pub use soc::{FslHwIn, FslHwOut, FslItem, RtlStop, SharedFsl, SocRtl, FSL_DEPTH};
pub use vcd::VcdWriter;

#[cfg(test)]
mod tests {
    use super::*;
    use softsim_isa::asm::assemble;
    use softsim_isa::reg::r;

    #[test]
    fn soc_runs_simple_program() {
        let img = assemble(
            "addik r3, r0, 6\n\
             muli r4, r3, 7\n\
             swi r4, r0, 0x100\n\
             halt\n",
        )
        .unwrap();
        let mut soc = SocRtl::new(&img);
        let stop = soc.run(1000);
        assert_eq!(stop, RtlStop::Halted);
        assert_eq!(soc.reg(r(4)), 42);
        assert_eq!(soc.mem_word(0x100), 42);
        // addik(1) + muli(3) + swi(2) + halt(1) = 7 cycles.
        assert_eq!(soc.cpu_cycles(), 7);
        assert_eq!(soc.instructions(), 4);
    }

    #[test]
    fn soc_loop_with_delay_slots() {
        let img = assemble(
            "      addik r3, r0, 5\n\
                   addk r4, r0, r0\n\
             loop: addik r3, r3, -1\n\
                   bneid r3, loop\n\
                   addik r4, r4, 1\n\
                   halt\n",
        )
        .unwrap();
        let mut soc = SocRtl::new(&img);
        assert_eq!(soc.run(1000), RtlStop::Halted);
        assert_eq!(soc.reg(r(4)), 5);
    }

    #[test]
    fn soc_faults_match_iss_classes() {
        let img = assemble(".word 0xFFFFFFFF\n").unwrap();
        let mut soc = SocRtl::new(&img);
        match soc.run(100) {
            RtlStop::Fault(msg) => assert!(msg.contains("decode"), "{msg}"),
            other => panic!("expected fault, got {other:?}"),
        }
    }

    #[test]
    fn fsl_round_trip_through_shared_fifos() {
        // No peripheral: the testbench plays the hardware role.
        let img = assemble(
            "addik r3, r0, 55\n\
             put r3, rfsl0\n\
             get r4, rfsl0\n\
             halt\n",
        )
        .unwrap();
        let mut soc = SocRtl::new(&img);
        // Run until the put lands, then loop the word back.
        soc.run(16);
        let word = soc.to_hw_fifo(0).borrow_mut().pop_front();
        assert_eq!(word, Some((55, false)));
        soc.from_hw_fifo(0).borrow_mut().push_back((56, false));
        assert_eq!(soc.run(1000), RtlStop::Halted);
        assert_eq!(soc.reg(r(4)), 56);
    }

    #[test]
    fn hw_stages_deliver_and_collect_words() {
        let img = assemble(
            "addik r3, r0, 9\n\
             put r3, rfsl0\n\
             get r4, rfsl0\n\
             halt\n",
        )
        .unwrap();
        let mut soc = SocRtl::new(&img);
        let hw_in = soc.hw_in(0);
        let hw_out = soc.hw_out(0);
        // A combinational echo peripheral: out = in + 1, valid follows.
        let one = soc.kernel.signal_init("one", 32, 1);
        let sum = soc.kernel.signal("echo_sum", 32);
        crate::comp::addsub(&mut soc.kernel, hw_in.data, one, None, sum, 32);
        // Wire the echo into the output stage.
        {
            let k = &mut soc.kernel;
            k.process(&[sum, hw_in.valid, hw_in.ctrl], move |ctx| {
                let v = ctx.get(sum);
                let val = ctx.get(hw_in.valid);
                let c = ctx.get(hw_in.ctrl);
                ctx.set(hw_out.data, v);
                ctx.set(hw_out.valid, val);
                ctx.set(hw_out.ctrl, c);
            });
        }
        assert_eq!(soc.run(1000), RtlStop::Halted);
        assert_eq!(soc.reg(r(4)), 10, "echo peripheral added one");
    }

    #[test]
    fn kernel_activity_is_substantial_per_cycle() {
        // The cost-structure claim: the RTL SoC generates many events and
        // delta cycles per simulated clock — that is why low-level
        // simulation is slow.
        let img = assemble(
            "addik r3, r0, 100\n\
             loop: addik r3, r3, -1\n\
             bnei r3, loop\n\
             halt\n",
        )
        .unwrap();
        let mut soc = SocRtl::new(&img);
        assert_eq!(soc.run(100_000), RtlStop::Halted);
        let cycles = soc.cpu_cycles();
        let stats = soc.kernel.stats();
        assert!(stats.process_runs > 4 * cycles, "several process runs per cycle");
        assert!(stats.delta_cycles > 2 * cycles, "several deltas per cycle");
    }

    #[test]
    fn primitives_elaborate_to_plausible_cpu_size() {
        let img = assemble("halt\n").unwrap();
        let soc = SocRtl::new(&img);
        let p = soc.kernel.primitives();
        let slices = p.slices();
        assert!(
            (400..700).contains(&slices),
            "MB32 core should elaborate near the MicroBlaze footprint, got {slices}"
        );
        assert_eq!(p.brams, 1, "one BRAM holds this tiny program");
        assert_eq!(p.mult18s, 3, "MicroBlaze uses three MULT18X18s");
    }
}

//! Cross-simulator validation: the high-level co-simulation environment
//! and the low-level RTL baseline must agree *exactly* — same
//! architectural results, same cycle counts — which is precisely the
//! paper's premise ("the functional behavior of the system predicted by
//! the high-level cycle-accurate simulation environment should match the
//! functional behavior of the corresponding low-level implementations").

mod common;

use common::random_program;
use softsim::bus::FslBank;
use softsim::isa::CpuConfig;
use softsim::isa::{Image, Reg};
use softsim::iss::{Cpu, StopReason};
use softsim::rtl::{RtlStop, SocRtl};
use softsim::trace::{shared, Recorder, TraceEvent};
use softsim_testkit::Rng;
use std::cell::RefCell;
use std::rc::Rc;

/// Architectural fingerprint after a run: registers, carry, cycle count
/// and a checksum of the touched memory window.
fn iss_fingerprint(image: &Image) -> (Vec<u32>, u64, u64) {
    let mut cpu = Cpu::with_config(image, CpuConfig::full());
    let mut fsl = FslBank::default();
    let stop = cpu.run(&mut fsl, 10_000_000);
    assert_eq!(stop, StopReason::Halted);
    let regs: Vec<u32> = (0..32).map(|i| cpu.reg(Reg::new(i))).collect();
    let mut checksum = 0u64;
    for a in (0x7F00u32..0x8100).step_by(4) {
        checksum = checksum.wrapping_mul(31).wrapping_add(cpu.mem().read_u32(a).unwrap() as u64);
    }
    (regs, checksum, cpu.stats().cycles)
}

fn rtl_fingerprint(image: &Image) -> (Vec<u32>, u64, u64) {
    let mut soc = SocRtl::with_config(image, CpuConfig::full());
    let stop = soc.run(10_000_000);
    assert_eq!(stop, RtlStop::Halted);
    let regs: Vec<u32> = (0..32).map(|i| soc.reg(Reg::new(i))).collect();
    let mut checksum = 0u64;
    for a in (0x7F00u32..0x8100).step_by(4) {
        checksum = checksum.wrapping_mul(31).wrapping_add(soc.mem_word(a) as u64);
    }
    (regs, checksum, soc.cpu_cycles())
}

#[test]
fn iss_and_rtl_agree_on_random_programs() {
    for seed in 0..30u64 {
        let mut rng = Rng::new(seed);
        let image = random_program(&mut rng, 120);
        let (iss_regs, iss_mem, iss_cycles) = iss_fingerprint(&image);
        let (rtl_regs, rtl_mem, rtl_cycles) = rtl_fingerprint(&image);
        assert_eq!(iss_regs, rtl_regs, "registers diverged (seed {seed})");
        assert_eq!(iss_mem, rtl_mem, "memory diverged (seed {seed})");
        assert_eq!(iss_cycles, rtl_cycles, "cycle counts diverged (seed {seed})");
    }
}

#[test]
fn traces_match_instruction_for_instruction() {
    let mut rng = Rng::new(99);
    let image = random_program(&mut rng, 60);
    let mut cpu = Cpu::with_config(&image, CpuConfig::full());
    let recorder = Rc::new(RefCell::new(Recorder::new(1 << 20)));
    cpu.attach_trace(shared(recorder.clone()));
    let mut fsl = FslBank::default();
    assert_eq!(cpu.run(&mut fsl, 1_000_000), StopReason::Halted);
    let mut soc = SocRtl::with_config(&image, CpuConfig::full());
    soc.enable_trace();
    assert_eq!(soc.run(1_000_000), RtlStop::Halted);
    assert_eq!(recorder.borrow().dropped(), 0, "the recorder must hold the whole run");
    let iss_trace: Vec<(u32, u32)> = (recorder.borrow().events().into_iter())
        .filter_map(|e| match e {
            TraceEvent::Retire { pc, word, .. } => Some((pc, word)),
            _ => None,
        })
        .collect();
    assert_eq!(iss_trace, soc.trace(), "retirement streams must be identical");
}

#[test]
fn cosim_and_rtl_agree_on_both_applications() {
    use softsim::apps::cordic;
    use softsim::apps::matmul;
    use softsim::cosim::{CoSim, CoSimStop};
    use softsim::isa::asm::assemble;

    // CORDIC, P = 4.
    let batch = cordic::software::CordicBatch::new(&[
        (cordic::reference::to_fix(1.5), cordic::reference::to_fix(0.7)),
        (cordic::reference::to_fix(2.0), cordic::reference::to_fix(1.5)),
    ]);
    let img = assemble(&cordic::software::hw_program(&batch, 24, 4)).unwrap();
    let mut hi = CoSim::with_peripheral(&img, cordic::hardware::cordic_peripheral(4));
    assert_eq!(hi.run(1_000_000), CoSimStop::Halted);
    let (mut lo, stop) = {
        let mut soc = cordic::rtl::build_cordic_rtl(&img, 4);
        let stop = soc.run(1_000_000);
        (soc, stop)
    };
    assert_eq!(stop, RtlStop::Halted);
    assert_eq!(hi.cpu_stats().cycles, lo.cpu_cycles(), "CORDIC cycle counts");
    let base = img.symbol(cordic::software::RESULT_LABEL).unwrap();
    for i in 0..2 {
        assert_eq!(
            hi.cpu().mem().read_u32(base + 4 * i).unwrap(),
            lo.mem_word(base + 4 * i),
            "CORDIC result {i}"
        );
    }
    let _ = &mut lo;

    // Matmul, 4×4 blocks on an 8×8 product.
    let a = matmul::reference::Matrix::test_pattern(8, 21);
    let b = matmul::reference::Matrix::test_pattern(8, 22);
    let img = assemble(&matmul::software::hw_program(&a, &b, 4)).unwrap();
    let mut hi = CoSim::with_peripheral(&img, matmul::hardware::matmul_peripheral(4));
    assert_eq!(hi.run(10_000_000), CoSimStop::Halted);
    let mut soc = matmul::rtl::build_matmul_rtl(&img, 4);
    assert_eq!(soc.run(10_000_000), RtlStop::Halted);
    assert_eq!(hi.cpu_stats().cycles, soc.cpu_cycles(), "matmul cycle counts");
}

#[test]
fn lpc_over_fsl_matches_rtl() {
    // The Levinson-Durbin program drives the same CORDIC pipeline; the
    // high-level and low-level simulations must agree cycle-exactly here
    // too (serial, latency-sensitive traffic is the hardest case).
    use softsim::apps::cordic::rtl::build_cordic_rtl;
    use softsim::apps::lpc::reference::test_autocorrelation;
    use softsim::apps::lpc::software::{lpc_cosim, LpcDivision};

    let r = test_autocorrelation(5);
    let (mut hi, img) = lpc_cosim(&r, LpcDivision::CordicFsl(4));
    assert_eq!(hi.run(1_000_000), softsim::cosim::CoSimStop::Halted);
    let mut lo = build_cordic_rtl(&img, 4);
    assert_eq!(lo.run(1_000_000), RtlStop::Halted);
    assert_eq!(hi.cpu_stats().cycles, lo.cpu_cycles(), "cycle counts");
    let base = img.symbol("a_data").unwrap();
    for i in 0..=5u32 {
        assert_eq!(
            hi.cpu().mem().read_u32(base + 4 * i).unwrap(),
            lo.mem_word(base + 4 * i),
            "coefficient {i}"
        );
    }
}

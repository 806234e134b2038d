//! Execution-mode oracle. A co-simulator as built runs translated
//! blocks, jumps each peripheral once it goes idle after a block, and
//! jumps stalled stretches; the stepped reference (translation and
//! fast-forward both off) advances every component one cycle at a time.
//! On every application peripheral and on random FSL programs, the two
//! must leave the identical whole-system snapshot (`save_state`: CPU,
//! every FIFO with its statistics, every graph) and the identical
//! hardware counters — at halt, after chunked `run(k)` calls, at a
//! watchdog's deadlock stop, and after a mid-run save/load.

mod common;

use common::random_program;
use softsim::apps::beamformer::beamformer_cosim;
use softsim::apps::cordic::hardware::{
    cordic_peripheral, cordic_peripheral_dual, cordic_peripheral_tmr, CordicPe, Deserializer,
    Serializer,
};
use softsim::apps::cordic::reference::to_fix;
use softsim::apps::cordic::software::{hw_program, hw_program_dual, CordicBatch};
use softsim::apps::fir::reference::test_signal;
use softsim::apps::fir::software::fir_cosim;
use softsim::apps::lpc::reference::test_autocorrelation;
use softsim::apps::lpc::software::{lpc_cosim, LpcDivision};
use softsim::apps::matmul::hardware::{
    matmul_peripheral, matmul_peripheral_chan, matmul_peripheral_tmr,
};
use softsim::apps::matmul::reference::Matrix;
use softsim::apps::matmul::software as mm_sw;
use softsim::blocks::{FixFmt, Graph};
use softsim::cosim::{CoSim, CoSimState, CoSimStop, FslFromHw, FslToHw, HwStats, Peripheral};
use softsim::isa::asm::assemble;
use softsim::isa::{CpuConfig, Image};
use softsim::resilience::{FaultKind, Injector};
use softsim_testkit::Rng;

/// Cycle budget no case comes near.
const BUDGET: u64 = 5_000_000;

/// Everything the oracle compares after a run.
type Observed = (CoSimStop, CoSimState, HwStats);

fn observe(sim: &CoSim, stop: CoSimStop) -> Observed {
    (stop, sim.save_state(), sim.hw_stats())
}

/// `sim` as the stepped reference.
fn stepped(mut sim: CoSim) -> CoSim {
    sim.set_translation(false);
    sim.set_fast_forward(false);
    sim
}

fn cordic_batch() -> CordicBatch {
    CordicBatch::new(&[
        (to_fix(1.0), to_fix(0.5)),
        (to_fix(1.5), to_fix(1.2)),
        (to_fix(2.0), to_fix(-1.0)),
        (to_fix(1.25), to_fix(0.8)),
    ])
}

fn cordic_image(p: usize) -> Image {
    assemble(&hw_program(&cordic_batch(), 8, p)).expect("cordic assembles")
}

fn matmul_image() -> Image {
    let (a, b) = (Matrix::test_pattern(4, 7), Matrix::test_pattern(4, 8));
    assemble(&mm_sw::hw_program(&a, &b, 2)).expect("matmul assembles")
}

/// One case: a name and how to build a fresh co-simulator as built.
type Case = (String, Box<dyn Fn() -> CoSim>);

/// Every application peripheral, each on its driver program.
fn app_cases() -> Vec<Case> {
    let mut cases: Vec<Case> = Vec::new();
    for p in 1..=4 {
        cases.push((
            format!("cordic p={p}"),
            Box::new(move || CoSim::with_peripheral(&cordic_image(p), cordic_peripheral(p))),
        ));
    }
    cases.push((
        "cordic dual".into(),
        Box::new(|| {
            let img = assemble(&hw_program_dual(&cordic_batch(), 8, 2)).expect("assembles");
            CoSim::with_peripheral(&img, cordic_peripheral_dual(2))
        }),
    ));
    cases.push((
        "cordic tmr".into(),
        Box::new(|| CoSim::with_peripheral(&cordic_image(2), cordic_peripheral_tmr(2))),
    ));
    cases.push((
        "matmul".into(),
        Box::new(|| CoSim::with_peripheral(&matmul_image(), matmul_peripheral(2))),
    ));
    cases.push((
        "matmul tmr".into(),
        Box::new(|| CoSim::with_peripheral(&matmul_image(), matmul_peripheral_tmr(2))),
    ));
    cases.push((
        "fir".into(),
        Box::new(|| fir_cosim(&[3, -1, 4, 1, -5], &test_signal(24, 9), true).0),
    ));
    cases.push((
        "beamformer".into(),
        Box::new(|| beamformer_cosim(&test_autocorrelation(4), 2, &test_signal(24, 11)).0),
    ));
    cases.push((
        "lpc".into(),
        Box::new(|| lpc_cosim(&test_autocorrelation(6), LpcDivision::CordicFsl(2)).0),
    ));
    cases
}

/// Random straight-line programs of non-blocking FSL traffic and ALU
/// and memory work, against a CORDIC pipeline on channel 0 and a
/// matmul array on channel 1 that digest whatever words arrive.
fn random_cases(n: u64) -> Vec<Case> {
    (0..n)
        .map(|seed| {
            let image = random_program(&mut Rng::new(seed), 120);
            let build = move || {
                let mut sim =
                    CoSim::with_config(&image, CpuConfig::full(), Some(cordic_peripheral(2)));
                sim.add_peripheral(matmul_peripheral_chan(2, 1));
                sim
            };
            (format!("random seed={seed}"), Box::new(build) as Box<dyn Fn() -> CoSim>)
        })
        .collect()
}

/// Runs `sim` to a stop within [`BUDGET`].
fn finish(mut sim: CoSim) -> Observed {
    let stop = sim.run(BUDGET);
    observe(&sim, stop)
}

/// `run(k)` calls until a stop other than the cycle limit, on the
/// default build and the stepped reference side by side: equal stops
/// after every call, equal snapshots after call 1, 2, 4, 8, … and at
/// the end.
fn check_chunks(name: &str, build: &dyn Fn() -> CoSim, k: u64) {
    let (mut fast, mut slow) = (build(), stepped(build()));
    for call in 1u64.. {
        let (a, b) = (fast.run(k), slow.run(k));
        assert_eq!(a, b, "{name} k={k}: stop of call {call}");
        let last = !matches!(a, CoSimStop::CycleLimit { .. }) || call * k >= BUDGET;
        if last || call.is_power_of_two() {
            assert_eq!(observe(&fast, a), observe(&slow, b), "{name} k={k}: after call {call}");
        }
        if last {
            return;
        }
    }
}

/// The whole oracle on one case.
fn check(name: &str, build: &dyn Fn() -> CoSim) {
    let reference = finish(stepped(build()));
    assert_eq!(reference.0, CoSimStop::Halted, "{name} must halt");
    assert_eq!(finish(build()), reference, "{name}: at halt");
    for k in [1, 7, 64, 1000] {
        check_chunks(name, build, k);
    }

    // Mid-run save/load: into a fresh simulator, and back into the one
    // that took the checkpoint after it ran on (its translated blocks
    // survive the restore).
    let end = reference.1.cpu.stats.cycles;
    for pause in [end / 3, 2 * end / 3] {
        let mut sim = build();
        sim.run(pause);
        let checkpoint = sim.save_state();
        let mut fresh = build();
        fresh.load_state(&checkpoint);
        assert_eq!(finish(fresh), reference, "{name}: restored at {pause} into a fresh sim");
        let stop = sim.run(BUDGET);
        assert_eq!(observe(&sim, stop), reference, "{name}: past the checkpoint at {pause}");
        sim.load_state(&checkpoint);
        assert_eq!(finish(sim), reference, "{name}: restored at {pause} into itself");
    }
}

/// A stuck `exists` flag on the hardware → processor FIFO 0 with a
/// watchdog armed: the same stop (a deadlock for every application, whose
/// drivers block on that FIFO) at the same cycle, with the same state.
fn deadlock(build: &dyn Fn() -> CoSim, inject_at: u64, threshold: u64) -> Observed {
    let mut sim = build();
    let stop = sim.run(inject_at);
    if !matches!(stop, CoSimStop::CycleLimit { .. }) {
        return observe(&sim, stop);
    }
    Injector::apply(&mut sim, FaultKind::StuckEmpty { channel: 0 });
    sim.set_watchdog(threshold);
    let stop = sim.run(BUDGET);
    observe(&sim, stop)
}

#[test]
fn every_constructor_turns_both_fast_paths_on() {
    let img = cordic_image(2);
    for sim in [
        CoSim::software_only(&img),
        CoSim::with_peripheral(&img, cordic_peripheral(2)),
        CoSim::with_config(&img, CpuConfig::full(), None),
        CoSim::with_config(&img, CpuConfig::full(), Some(cordic_peripheral(2))),
    ] {
        assert!(sim.translation(), "translation on as built");
        assert!(sim.fast_forward(), "stall fast-forward on as built");
    }
}

#[test]
fn every_application_matches_the_stepped_reference() {
    for (name, build) in app_cases() {
        check(&name, &*build);
        let end = finish(stepped(build())).1.cpu.stats.cycles;
        for (inject_at, threshold) in [(end / 4, 700), (end / 2, 3_000)] {
            let want = deadlock(&|| stepped(build()), inject_at, threshold);
            assert!(matches!(want.0, CoSimStop::Deadlock { .. }), "{name}: {}", want.0);
            assert_eq!(deadlock(&*build, inject_at, threshold), want, "{name}: deadlock");
        }
    }
}

#[test]
fn random_fsl_programs_match_the_stepped_reference() {
    for (name, build) in random_cases(24) {
        check(&name, &*build);
        let want = deadlock(&|| stepped(build()), 50, 40);
        assert_eq!(deadlock(&*build, 50, 40), want, "{name}: stuck flag");
    }
}

/// The default build must not leave the stepped path for nothing: on
/// CORDIC most cycles run in translated blocks.
#[test]
fn the_default_build_runs_translated_blocks() {
    let mut sim = CoSim::with_peripheral(&cordic_image(4), cordic_peripheral(4));
    assert_eq!(sim.run(BUDGET), CoSimStop::Halted);
    let xlated = sim.cpu().translation_stats().translated_instructions;
    let retired = sim.cpu_stats().instructions;
    assert!(xlated * 2 > retired, "translated {xlated} of {retired} instructions");
}

/// A CORDIC pipeline (P = 2) built with a scope probe on each PE's Y
/// output: a probed graph must be stepped every cycle, so its samples
/// cannot differ between the modes.
fn probed_cordic() -> Peripheral {
    let mut g = Graph::new();
    let data = g.gateway_in("fsl0_data", FixFmt::INT32);
    let valid = g.gateway_in("fsl0_valid", FixFmt::BOOL);
    let ctrl = g.gateway_in("fsl0_ctrl", FixFmt::BOOL);
    let deser = g.add("deser", Deserializer::new());
    g.wire(data, deser, 0).unwrap();
    g.wire(valid, deser, 1).unwrap();
    g.wire(ctrl, deser, 2).unwrap();
    let mut prev = deser;
    for i in 0..2 {
        let pe = g.add(format!("pe{i}"), CordicPe::new());
        for port in 0..6 {
            g.connect(prev, port, pe, port).unwrap();
        }
        g.add_probe(format!("pe{i}_y"), pe, 1);
        prev = pe;
    }
    let ser = g.add("ser", Serializer::new());
    g.connect(prev, 1, ser, 0).unwrap();
    g.connect(prev, 2, ser, 1).unwrap();
    g.connect(prev, 3, ser, 2).unwrap();
    g.gateway_out("fsl0_out_data", ser, 0);
    g.gateway_out("fsl0_out_valid", ser, 1);
    g.compile().unwrap();
    Peripheral::new(g, vec![FslToHw::standard(0)], vec![FslFromHw::standard(0)])
}

#[test]
fn probed_peripherals_keep_every_sample() {
    let build = || CoSim::with_peripheral(&cordic_image(2), probed_cordic());
    let run = |mut sim: CoSim| {
        let stop = sim.run(BUDGET);
        let graph = sim.peripherals()[0].graph();
        let samples: Vec<Vec<u64>> = ["pe0_y", "pe1_y"]
            .map(|p| graph.probe_samples(p).unwrap().iter().map(|v| v.to_bits()).collect())
            .into();
        (observe(&sim, stop), samples)
    };
    let (fast, slow) = (run(build()), run(stepped(build())));
    assert_eq!(slow.0 .0, CoSimStop::Halted);
    assert_eq!(slow.1[0].len() as u64, slow.0 .1.cpu.stats.cycles, "one sample per cycle");
    assert_eq!(fast, slow);
}

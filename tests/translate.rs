//! Translated-execution equivalence: a co-simulation run with the
//! basic-block fast path enabled must be indistinguishable — halt
//! cycle, processor statistics, hardware statistics, full simulation
//! state, trace timeline — from the same run interpreted cycle by
//! cycle. Translation only batches instructions whose effects the
//! interpreter would produce identically, so every observable total has
//! to land on exactly the same value, across all four evaluation
//! workloads and through mid-run checkpoint round-trips.

use softsim::apps::beamformer::beamformer_cosim;
use softsim::apps::cordic::hardware::cordic_peripheral;
use softsim::apps::cordic::reference::to_fix;
use softsim::apps::cordic::software::{hw_program, CordicBatch};
use softsim::apps::fir::reference::test_signal;
use softsim::apps::fir::software::fir_cosim;
use softsim::apps::lpc::reference::test_autocorrelation;
use softsim::apps::matmul::hardware::matmul_peripheral;
use softsim::apps::matmul::reference::Matrix;
use softsim::apps::matmul::software as mm_sw;
use softsim::cosim::{CoSim, CoSimStop};
use softsim::isa::asm::assemble;
use softsim::metrics::MetricsCollector;
use softsim::resilience::{FaultKind, Injector};
use softsim::trace::{shared, Fanout, Recorder, TraceEvent};
use softsim_testkit::cases;
use std::cell::RefCell;
use std::rc::Rc;

/// A CORDIC co-simulator: four divisions, `iters` iterations, `p` PEs.
fn cordic_sim(iters: u32, p: usize) -> CoSim {
    let batch = CordicBatch::new(&[
        (to_fix(1.0), to_fix(0.5)),
        (to_fix(1.5), to_fix(1.2)),
        (to_fix(2.0), to_fix(-1.0)),
        (to_fix(1.25), to_fix(0.8)),
    ]);
    let img = assemble(&hw_program(&batch, iters, p)).expect("cordic assembles");
    CoSim::with_peripheral(&img, cordic_peripheral(p))
}

/// A block-matmul co-simulator, N = `n`, NB = `nb`.
fn matmul_sim(n: usize, nb: usize) -> CoSim {
    let (a, b) = (Matrix::test_pattern(n, 7), Matrix::test_pattern(n, 8));
    let img = assemble(&mm_sw::hw_program(&a, &b, nb)).expect("matmul assembles");
    CoSim::with_peripheral(&img, matmul_peripheral(nb))
}

/// The four evaluation workloads, by name.
fn workload(name: &str) -> CoSim {
    match name {
        "cordic" => cordic_sim(8, 2),
        "matmul" => matmul_sim(4, 2),
        "fir" => fir_cosim(&[3, -1, 4, 1, -5], &test_signal(24, 9), true).0,
        "beamformer" => beamformer_cosim(&test_autocorrelation(4), 2, &test_signal(24, 11)).0,
        other => panic!("unknown workload {other}"),
    }
}

/// Runs one simulator to the budget and returns everything equivalence
/// requires: the stop and the complete final state (the
/// [`softsim::cosim::CoSimState`] covers registers, memory, the FSL
/// fabric, and every peripheral).
fn drive(
    mut sim: CoSim,
    translate: bool,
    budget: u64,
) -> (CoSimStop, u64, softsim::iss::CpuStats, softsim::cosim::HwStats, softsim::cosim::CoSimState) {
    // The reference steps every cycle: stall fast-forwarding, on by
    // default, goes off with translation.
    sim.set_translation(translate);
    sim.set_fast_forward(translate);
    let stop = sim.run(budget);
    if translate {
        let stats = sim.cpu().translation_stats();
        assert!(stats.block_dispatches > 0, "fast path never engaged: {stats:?}");
    }
    let state = sim.save_state();
    (stop, sim.cpu().stats().cycles, sim.cpu().stats(), sim.hw_stats(), state)
}

/// Fault-free runs: translation on vs off reaches the identical halt,
/// cycle for cycle and counter for counter, on every workload. The
/// engagement tripwire inside `drive` keeps the comparison non-vacuous.
#[test]
fn fault_free_runs_are_identical_on_all_workloads() {
    for name in ["cordic", "matmul", "fir", "beamformer"] {
        let interp = drive(workload(name), false, 5_000_000);
        let xlate = drive(workload(name), true, 5_000_000);
        assert_eq!(interp.0, CoSimStop::Halted, "{name} must halt");
        assert_eq!(interp, xlate, "{name}: translation changed the run");
    }
}

/// Randomized budgets: stopping mid-run at an arbitrary cycle count
/// must land on the identical machine state whether the cycles were
/// interpreted or dispatched in translated blocks (the dispatcher
/// refuses blocks that would overshoot, so partial budgets are exact).
#[test]
fn randomized_budget_cutoffs_are_identical() {
    cases(40, |seed, rng| {
        let name = *rng.pick(&["cordic", "matmul", "fir", "beamformer"]);
        let budget = rng.below(80_000) + 200;
        let interp = drive(workload(name), false, budget);
        let xlate = drive(workload(name), true, budget);
        assert_eq!(interp, xlate, "seed {seed}: {name} budget={budget}");
    });
}

/// Mid-run checkpoint round-trips: pause a translated run at a random
/// cycle, `save_state`, restore into a fresh simulator, and finish —
/// with translation on either, both, or neither side of the
/// checkpoint. Every combination must match the uninterrupted
/// interpreted run bit for bit.
#[test]
fn mid_run_checkpoint_round_trips_are_identical() {
    cases(24, |seed, rng| {
        let name = *rng.pick(&["cordic", "matmul", "fir", "beamformer"]);
        let pause = rng.below(30_000) + 100;
        let budget = 5_000_000u64;
        // Pause, checkpoint, restore into a fresh simulator, finish —
        // with translation flipped independently on each side of the
        // checkpoint. Every combination must match the all-interpreted
        // round-trip bit for bit.
        let round_trip = |before: bool, after: bool| {
            let mut sim = workload(name);
            sim.set_translation(before);
            sim.set_fast_forward(before);
            sim.run(pause);
            let checkpoint = sim.save_state();
            let mut resumed = workload(name);
            resumed.set_translation(after);
            resumed.set_fast_forward(after);
            resumed.load_state(&checkpoint);
            let stop = resumed.run(budget - pause);
            let state = resumed.save_state();
            (stop, resumed.cpu().stats().cycles, resumed.cpu().stats(), resumed.hw_stats(), state)
        };
        let reference = round_trip(false, false);
        for (before, after) in [(true, true), (true, false), (false, true)] {
            assert_eq!(
                round_trip(before, after),
                reference,
                "seed {seed}: {name} pause={pause} translate(before={before}, after={after})"
            );
        }
    });
}

/// With observability attached (metrics windows + raw event timeline)
/// translated dispatch silently disengages, so the per-cycle event
/// streams and the windowed series stay bit-identical whatever the
/// flag says.
#[test]
fn traced_runs_are_identical_with_translation_enabled() {
    let run = |translate: bool| {
        let mut sim = workload("cordic");
        sim.set_translation(translate);
        sim.set_fast_forward(translate);
        let collector = Rc::new(RefCell::new(MetricsCollector::new(256)));
        let recorder = Rc::new(RefCell::new(Recorder::new(1 << 16)));
        let fanout = Fanout::new().with(shared(collector.clone())).with(shared(recorder.clone()));
        sim.attach_trace(shared(Rc::new(RefCell::new(fanout))));
        let stop = sim.run(5_000_000);
        assert_eq!(sim.cpu().translation_stats().block_dispatches, 0, "must disengage under trace");
        let events: Vec<TraceEvent> = recorder.borrow().events();
        let mut collector = collector.borrow_mut();
        collector.finish(sim.cpu().stats().cycles);
        (stop, sim.cpu().stats(), events, collector.series())
    };
    let slow = run(false);
    let fast = run(true);
    assert_eq!(slow.0, CoSimStop::Halted);
    assert_eq!(slow, fast);
}

/// Composition with the liveness supervisor: a stuck-flag deadlock is
/// diagnosed at the identical cycle with the identical cause whether
/// the live stretch before it was interpreted, translated,
/// fast-forwarded, or both.
#[test]
fn watchdog_and_fast_forward_compose_with_translation() {
    cases(16, |seed, rng| {
        let kind = if rng.flip() {
            FaultKind::StuckEmpty { channel: 0 }
        } else {
            FaultKind::StuckFull { channel: 0 }
        };
        let inject_at = rng.below(1_500);
        let threshold = rng.below(8_000) + 1;
        let budget = rng.below(60_000) + 5_000;
        let run = |translate: bool, fast_forward: bool| {
            let mut sim = cordic_sim(8, 2);
            sim.set_translation(translate);
            sim.set_fast_forward(fast_forward);
            let stop = sim.run(inject_at);
            if !matches!(stop, CoSimStop::CycleLimit { .. }) {
                let state = sim.save_state();
                return (stop, sim.cpu().stats(), sim.hw_stats(), state);
            }
            Injector::apply(&mut sim, kind);
            sim.set_watchdog(threshold);
            let stop = sim.run(budget);
            let state = sim.save_state();
            (stop, sim.cpu().stats(), sim.hw_stats(), state)
        };
        let reference = run(false, false);
        for (translate, fast_forward) in [(true, false), (true, true), (false, true)] {
            let got = run(translate, fast_forward);
            assert_eq!(
                got, reference,
                "seed {seed}: {kind:?} @{inject_at} wd={threshold} \
                 translate={translate} ff={fast_forward}"
            );
        }
    });
}

/// An armed run horizon pins translated runs to the horizon cycle
/// exactly: the dispatcher never runs a block whose worst case would
/// overshoot, falling back to single-stepping for the remainder.
#[test]
fn run_horizon_clamps_translated_runs() {
    let mut sim = workload("matmul");
    sim.set_translation(true);
    sim.set_run_horizon(Some(700));
    let stop = sim.run(5_000_000);
    assert_eq!(stop, CoSimStop::CycleLimit { blocked: sim.cpu().fsl_block() });
    assert_eq!(sim.cpu().stats().cycles, 700, "run must land exactly on the horizon");
    // Releasing the horizon resumes bit-exactly: the finished run
    // matches an uninterrupted interpreted run.
    sim.set_run_horizon(None);
    let stop = sim.run(5_000_000);
    let got = (stop, sim.cpu().stats(), sim.hw_stats(), sim.save_state());
    let reference = drive(workload("matmul"), false, 5_000_000);
    assert_eq!(got, (reference.0, reference.2, reference.3, reference.4));
}

/// Workload-level self-modifying-code property: a program that patches
/// its own loop body mid-run — at a random iteration, with a random
/// replacement instruction — re-translates and stays bit-exact, and
/// the store provably invalidated cached code.
#[test]
fn self_modifying_programs_stay_bit_exact() {
    use softsim::isa::{encode, ArithFlags, Inst, Reg};
    cases(24, |seed, rng| {
        let total = rng.below(40) + 10;
        // `r3` counts down from `total`; the store fires on the
        // iteration where `r3 == rem`, i.e. after `total - rem` body
        // executions, and the loop keeps running on the patched body.
        let rem = rng.below(total - 1) + 1;
        let imm = (rng.below(500) + 1) as i16;
        // The replacement for `body: addik r5, r5, 1`.
        let patch =
            encode(&Inst::AddI { rd: Reg::new(5), ra: Reg::new(5), imm, flags: ArithFlags::KEEP });
        let src = format!(
            "start:
                addik r3, r0, {total}
                li    r7, {patch:#010x}
                li    r8, body
            loop:
            body:
                addik r5, r5, 1
                addik r6, r6, 1
                xori  r4, r3, {rem}
                bneid r4, skip
                addik r9, r9, 1
                sw    r7, r8, r0
            skip:
                addik r3, r3, -1
                bneid r3, loop
                addik r10, r10, 1
                halt
            "
        );
        let run = |translate: bool| {
            let img = assemble(&src).expect("assembles");
            let mut sim = CoSim::software_only(&img);
            sim.set_translation(translate);
            sim.set_fast_forward(translate);
            let stop = sim.run(1_000_000);
            (stop, sim.cpu().stats(), sim.save_state(), sim.cpu().translation_stats())
        };
        let interp = run(false);
        let xlate = run(true);
        assert_eq!(interp.0, CoSimStop::Halted, "seed {seed}: must halt");
        assert_eq!(
            (&interp.0, &interp.1, &interp.2),
            (&xlate.0, &xlate.1, &xlate.2),
            "seed {seed}: total={total} rem={rem} imm={imm}"
        );
        assert!(xlate.3.block_dispatches > 0, "seed {seed}: fast path never engaged");
        assert!(xlate.3.invalidations > 0, "seed {seed}: store into code must invalidate");
    });
}

/// The fast path must actually engage on real workloads and translate
/// the bulk of the retired instruction stream, not just a token block.
#[test]
fn translation_covers_the_bulk_of_compute() {
    // Software-only FIR: pure compute loops, no FSL boundaries — the
    // workload the fast path exists for.
    let mut sim = fir_cosim(&[3, -1, 4, 1, -5], &test_signal(48, 9), false).0;
    sim.set_translation(true);
    assert_eq!(sim.run(50_000_000), CoSimStop::Halted);
    let stats = sim.cpu().translation_stats();
    let retired = sim.cpu().stats().instructions;
    assert!(
        stats.translated_instructions * 2 > retired,
        "translated {}/{retired} instructions — fast path barely engaging: {stats:?}",
        stats.translated_instructions
    );
}

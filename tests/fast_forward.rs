//! Stall fast-forwarding equivalence: a co-simulation run with
//! fast-forwarding enabled must be indistinguishable — halt cycle,
//! processor statistics, hardware statistics, full simulation state,
//! deadlock diagnosis, windowed metrics, trace timeline — from the same
//! run stepped cycle by cycle. The fast path only coalesces cycles in
//! which nothing can change, so every observable total has to land on
//! exactly the same value.

use softsim::apps::cordic::hardware::cordic_peripheral;
use softsim::apps::cordic::reference::to_fix;
use softsim::apps::cordic::software::{hw_program, CordicBatch};
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

/// Drives one simulator through the scenario and returns everything
/// equivalence requires: the stop, and the complete final state.
fn drive(
    mut sim: CoSim,
    fast_forward: bool,
    fault: Option<(u64, FaultKind)>,
    watchdog: Option<u64>,
    budget: u64,
) -> (CoSimStop, u64, softsim::iss::CpuStats, softsim::cosim::HwStats, softsim::cosim::CoSimState) {
    // The reference steps every cycle: translation, on by default, goes
    // off with fast-forwarding.
    sim.set_translation(fast_forward);
    sim.set_fast_forward(fast_forward);
    let mut remaining = budget;
    if let Some((cycle, kind)) = fault {
        let pre = cycle.min(budget);
        let stop = sim.run(pre);
        remaining = budget - pre;
        if !matches!(stop, CoSimStop::CycleLimit { .. }) {
            // Halted or faulted before the injection point — still a
            // valid equivalence scenario, just without the fault.
            let state = sim.save_state();
            return (stop, sim.cpu().stats().cycles, sim.cpu().stats(), sim.hw_stats(), state);
        }
        Injector::apply(&mut sim, kind);
    }
    if let Some(threshold) = watchdog {
        sim.set_watchdog(threshold);
    }
    let stop = sim.run(remaining);
    let state = sim.save_state();
    (stop, sim.cpu().stats().cycles, sim.cpu().stats(), sim.hw_stats(), state)
}

/// Fault-free runs: fast-forwarding on vs off reach the identical halt,
/// cycle for cycle and counter for counter, on CORDIC and matmul.
#[test]
fn fault_free_runs_are_identical() {
    for (name, a, b) in [
        ("cordic", drive(cordic_sim(8, 2), false, None, None, 500_000), {
            drive(cordic_sim(8, 2), true, None, None, 500_000)
        }),
        ("matmul", drive(matmul_sim(4, 2), false, None, None, 500_000), {
            drive(matmul_sim(4, 2), true, None, None, 500_000)
        }),
    ] {
        assert_eq!(a.0, CoSimStop::Halted, "{name} must halt");
        assert_eq!(a, b, "{name}: fast-forward changed a fault-free run");
    }
}

/// Randomized stuck-flag scenarios: the watchdog-diagnosed deadlock
/// (the case fast-forwarding exists for) fires at the identical cycle
/// with the identical cause, and every statistic and state word
/// matches, across random configurations, injection points, thresholds
/// and budgets.
#[test]
fn stuck_fault_runs_are_identical() {
    cases(40, |seed, rng| {
        let p = *rng.pick(&[1usize, 2, 4]);
        let iters = *rng.pick(&[4u32, 8]);
        let kind = if rng.flip() {
            FaultKind::StuckEmpty { channel: 0 }
        } else {
            FaultKind::StuckFull { channel: 0 }
        };
        // The fault-free runs halt within ~1.1k–4k cycles depending on
        // the configuration; keep most injection points inside the live
        // window (later ones degenerate to fault-free equivalence).
        let inject_at = rng.below(1_500);
        let watchdog = if rng.flip() { Some(rng.below(8_000) + 1) } else { None };
        let budget = rng.below(60_000) + 5_000;
        let scenario = Some((inject_at, kind));
        let slow = drive(cordic_sim(iters, p), false, scenario, watchdog, budget);
        let fast = drive(cordic_sim(iters, p), true, scenario, watchdog, budget);
        assert_eq!(slow, fast, "seed {seed}: p={p} iters={iters} {kind:?} @{inject_at}");
    });
}

/// With observability attached (metrics windows + raw event timeline)
/// the fast path silently disengages, so the per-cycle event streams
/// and the windowed series stay bit-identical whatever the flag says.
#[test]
fn traced_runs_are_identical_with_fast_forward_enabled() {
    let run = |fast_forward: bool| {
        let mut sim = cordic_sim(8, 2);
        sim.set_translation(fast_forward);
        sim.set_fast_forward(fast_forward);
        let collector = Rc::new(RefCell::new(MetricsCollector::new(256)));
        let recorder = Rc::new(RefCell::new(Recorder::new(1 << 16)));
        let fanout = Fanout::new().with(shared(collector.clone())).with(shared(recorder.clone()));
        sim.attach_trace(shared(Rc::new(RefCell::new(fanout))));
        Injector::apply(&mut sim, FaultKind::StuckEmpty { channel: 0 });
        sim.set_watchdog(3_000);
        let stop = sim.run(100_000);
        let events: Vec<TraceEvent> = recorder.borrow().events();
        let mut collector = collector.borrow_mut();
        collector.finish(sim.cpu().stats().cycles);
        (stop, sim.cpu().stats(), events, collector.series())
    };
    let slow = run(false);
    let fast = run(true);
    assert!(matches!(slow.0, CoSimStop::Deadlock { .. }), "stuck flag must deadlock");
    assert_eq!(slow, fast);
}

/// The fast path must actually engage: a fully stuck system under a
/// 200-million-cycle budget is only affordable if the stalled stretch
/// is jumped, not stepped (stepping it takes minutes; the jump is
/// microseconds). The generous wall-clock bound makes this a
/// regression tripwire, not a tight benchmark.
#[test]
fn fast_forward_engages_on_stuck_systems() {
    let mut sim = cordic_sim(8, 2);
    sim.set_fast_forward(true);
    Injector::apply(&mut sim, FaultKind::StuckEmpty { channel: 0 });
    let start = std::time::Instant::now();
    let stop = sim.run(200_000_000);
    assert_eq!(stop, CoSimStop::CycleLimit { blocked: sim.cpu().fsl_block() });
    assert!(sim.cpu().fsl_block().is_some(), "system must be stuck on the FSL");
    assert_eq!(sim.cpu().stats().cycles, 200_000_000, "the whole budget must elapse");
    assert!(
        start.elapsed() < std::time::Duration::from_secs(5),
        "200M stalled cycles took {:?} — fast-forwarding is not engaging",
        start.elapsed()
    );
}

/// Regression (restore bug): restoring a checkpoint used to silently
/// disarm an armed liveness watchdog, so every post-restore hang burned
/// its whole cycle budget. The watchdog must survive a restore and
/// still diagnose the deadlock.
#[test]
fn watchdog_survives_checkpoint_restore() {
    let mut sim = cordic_sim(8, 2);
    let checkpoint = sim.save_state();
    sim.set_watchdog(2_000);
    sim.load_state(&checkpoint);
    Injector::apply(&mut sim, FaultKind::StuckEmpty { channel: 0 });
    match sim.run(1_000_000) {
        CoSimStop::Deadlock { .. } => {}
        stop => panic!("restored watchdog must still fire, got: {stop}"),
    }
}

/// Regression (injection hazard): an armed run horizon must pin every
/// `run` — stepped or fast-forwarded — to the horizon cycle exactly.
/// Before the clamp existed, a fast-forward jump over a stalled stretch
/// could sail past a scheduled injection cycle, silently shifting the
/// fault to a different machine state.
#[test]
fn run_horizon_clamps_stepped_and_fast_forwarded_runs() {
    // Fast-forwarded: a fully stuck system coalesces millions of stall
    // cycles per jump, the exact situation that used to overshoot.
    let mut sim = cordic_sim(8, 2);
    sim.set_fast_forward(true);
    Injector::apply(&mut sim, FaultKind::StuckEmpty { channel: 0 });
    sim.set_run_horizon(Some(700_000));
    let stop = sim.run(200_000_000);
    assert_eq!(stop, CoSimStop::CycleLimit { blocked: sim.cpu().fsl_block() });
    assert_eq!(sim.cpu().stats().cycles, 700_000, "jump must land exactly on the horizon");
    // Re-running with the same horizon is a no-op, not an overshoot.
    sim.run(200_000_000);
    assert_eq!(sim.cpu().stats().cycles, 700_000);
    // Clearing the horizon releases the run again.
    sim.set_run_horizon(None);
    sim.run(1_000);
    assert_eq!(sim.cpu().stats().cycles, 701_000);

    // Stepped: same contract without fast-forwarding.
    let mut sim = cordic_sim(8, 2);
    sim.set_translation(false);
    sim.set_fast_forward(false);
    sim.set_run_horizon(Some(300));
    assert_eq!(sim.run(1_000_000), CoSimStop::CycleLimit { blocked: None });
    assert_eq!(sim.cpu().stats().cycles, 300);

    // A horizon already behind the clock runs nothing.
    sim.set_run_horizon(Some(100));
    sim.run(1_000_000);
    assert_eq!(sim.cpu().stats().cycles, 300);
}

/// Composition: watchdog + checkpoint restore + fast-forwarding + run
/// horizon all interact on the same run without disturbing each other —
/// the horizon pauses the run mid-stall, the resumed run reaches the
/// identical deadlock diagnosis, and the whole supervised sequence is
/// bit-identical to an unsupervised stepped run.
#[test]
fn watchdog_restore_horizon_and_fast_forward_compose() {
    let reference = {
        let mut sim = cordic_sim(8, 2);
        sim.set_translation(false);
        sim.set_fast_forward(false);
        sim.run(400);
        Injector::apply(&mut sim, FaultKind::StuckEmpty { channel: 0 });
        sim.set_watchdog(5_000);
        let stop = sim.run(10_000_000);
        (stop, sim.cpu().stats(), sim.save_state())
    };
    assert!(matches!(reference.0, CoSimStop::Deadlock { .. }), "stuck flag must deadlock");

    // Same scenario, but restored from a checkpoint, fast-forwarded,
    // and interrupted twice by run horizons mid-stall.
    let mut sim = cordic_sim(8, 2);
    sim.set_fast_forward(true);
    sim.run(400);
    let checkpoint = sim.save_state();
    let mut sim2 = cordic_sim(8, 2);
    sim2.set_fast_forward(true);
    sim2.load_state(&checkpoint);
    Injector::apply(&mut sim2, FaultKind::StuckEmpty { channel: 0 });
    sim2.set_watchdog(5_000);
    sim2.set_run_horizon(Some(1_000));
    assert_eq!(sim2.run(10_000_000), CoSimStop::CycleLimit { blocked: sim2.cpu().fsl_block() });
    assert_eq!(sim2.cpu().stats().cycles, 1_000, "first pause lands on the horizon");
    sim2.set_run_horizon(Some(3_000));
    sim2.run(10_000_000);
    assert_eq!(sim2.cpu().stats().cycles, 3_000, "second pause lands on the horizon");
    sim2.set_run_horizon(None);
    let stop = sim2.run(10_000_000);
    assert_eq!(
        (stop, sim2.cpu().stats(), sim2.save_state()),
        reference,
        "supervised run must reach the identical deadlock and state"
    );
}

/// Regression (stale stall context): a zero-cycle run executes nothing,
/// so it must not report the processor blocked on a transfer it never
/// attempted in that run.
#[test]
fn zero_cycle_run_reports_no_blockage() {
    let img = assemble("get r3, rfsl4\nhalt\n").expect("assembles");
    let mut sim = CoSim::software_only(&img);
    // Block the processor for real first: the stall context is live...
    assert_eq!(sim.run(100), CoSimStop::CycleLimit { blocked: sim.cpu().fsl_block() });
    assert!(sim.cpu().fsl_block().is_some(), "get from an empty FSL must stall");
    // ...but a zero-cycle run stalled on nothing.
    assert_eq!(sim.run(0), CoSimStop::CycleLimit { blocked: None });
}

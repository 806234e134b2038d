//! Integration tests for the rollback-recovery supervisor: detection by
//! watchdog / ECC / TMR / signature, automatic rollback to a clean
//! checkpoint, bit-exact recovered outputs, and byte-identical
//! serial-vs-parallel campaign reports.

use softsim::apps::cordic::hardware::{cordic_peripheral, cordic_peripheral_tmr};
use softsim::apps::cordic::reference::to_fix;
use softsim::apps::cordic::software::{hw_program, CordicBatch};
use softsim::cosim::{CoSim, CoSimStop};
use softsim::isa::asm::assemble;
use softsim::isa::Image;
use softsim::resilience::{
    random_plan_hardware, run, run_campaign, CampaignConfig, Exec, FaultKind, Injection, Outcome,
    RecoveryOutcome, RecoveryPolicy, RecoveryReport, Sims, Supervisor,
};
use softsim::trace::{shared, DetectorKind, FifoDir, Recorder, TraceEvent};
use std::cell::RefCell;
use std::rc::Rc;

/// The CORDIC workload: four divisions, eight iterations, two PEs.
fn cordic_image() -> Image {
    let batch = CordicBatch::new(&[
        (to_fix(1.0), to_fix(0.5)),
        (to_fix(1.5), to_fix(1.2)),
        (to_fix(2.0), to_fix(-1.0)),
        (to_fix(1.25), to_fix(0.8)),
    ]);
    assemble(&hw_program(&batch, 8, 2)).expect("cordic assembles")
}

fn cordic_sim(img: &Image) -> CoSim {
    CoSim::with_peripheral(img, cordic_peripheral(2))
}

/// Hardened variant: SEC-DED on the FSLs, TMR around the pipeline.
fn hardened_sim(img: &Image) -> CoSim {
    let mut sim = CoSim::with_peripheral(img, cordic_peripheral_tmr(2));
    sim.set_fsl_ecc(true);
    sim
}

fn observe(sim: &CoSim, img: &Image) -> Vec<u32> {
    let base = img.symbol("z_data").expect("result label");
    (0..4).map(|i| sim.cpu().mem().read_u32(base + 4 * i).unwrap()).collect()
}

/// A small, fast policy: 512-cycle checkpoints, a tight watchdog.
fn test_policy() -> RecoveryPolicy {
    RecoveryPolicy { checkpoint_every: 256, watchdog_threshold: 2_000, ..Default::default() }
}

/// A vacuous fault (r0 is hardwired zero) leaves the trial clean: no
/// detector fires, no rollback happens, the outputs are golden.
#[test]
fn vacuous_fault_is_clean() {
    let img = cordic_image();
    let mut sim = cordic_sim(&img);
    let sup = Supervisor::new(test_policy());
    let golden = sup.capture_golden(&mut sim, |s| observe(s, &img));
    assert!(golden.cycles > 0);
    let inj = Injection { cycle: 300, kind: FaultKind::RegBitFlip { reg: 0, bit: 5 } };
    let t = sup.run_trial(&mut sim, &golden, inj, |s| observe(s, &img));
    assert_eq!(t.outcome, RecoveryOutcome::Clean);
    assert!(!t.applied, "r0 flips never change state");
    assert_eq!(t.detector, None);
    assert_eq!(observe(&sim, &img), golden.observed);
}

/// A stuck-empty FSL hangs the processor; the watchdog diagnoses the
/// hang, the supervisor rolls back past the (transient) stuck flag, and
/// the replay completes with bit-exact outputs.
#[test]
fn stuck_flag_hang_recovers_via_watchdog() {
    let img = cordic_image();
    let mut sim = cordic_sim(&img);
    // Signature windows off: otherwise the SDC detector catches the
    // hang's traffic divergence at the next boundary, before the
    // watchdog threshold elapses.
    let sup = Supervisor::new(RecoveryPolicy { signature_windows: false, ..test_policy() });
    let golden = sup.capture_golden(&mut sim, |s| observe(s, &img));
    let inj = Injection { cycle: 300, kind: FaultKind::StuckEmpty { channel: 0 } };
    let t = sup.run_trial(&mut sim, &golden, inj, |s| observe(s, &img));
    assert!(t.applied);
    assert_eq!(t.detector, Some(DetectorKind::Watchdog), "hang must be watchdog-diagnosed");
    match t.outcome {
        RecoveryOutcome::Recovered { retries, detection_latency, .. } => {
            assert!(retries >= 1);
            assert!(detection_latency >= 2_000, "latency includes the stalled stretch");
        }
        other => panic!("expected recovery, got {other:?} (stop {:?})", t.stop),
    }
    assert_eq!(t.stop, CoSimStop::Halted);
    assert_eq!(observe(&sim, &img), golden.observed, "recovered outputs must be golden");
}

/// With SEC-DED enabled, a single-bit upset of an in-flight FSL word is
/// corrected in place: no rollback, clean outcome, corrected counter up.
#[test]
fn ecc_corrects_single_bit_upsets_in_place() {
    let img = cordic_image();
    let mut sim = cordic_sim(&img);
    sim.set_fsl_ecc(true);
    let sup = Supervisor::new(test_policy());
    let golden = sup.capture_golden(&mut sim, |s| observe(s, &img));
    let mut corrected_somewhere = false;
    for cycle in (50..550).step_by(50) {
        let kind = FaultKind::FifoBitFlip { dir: FifoDir::FromHw, channel: 0, index: 0, bit: 7 };
        let t = sup.run_trial(&mut sim, &golden, Injection { cycle, kind }, |s| observe(s, &img));
        assert_eq!(
            t.outcome,
            RecoveryOutcome::Clean,
            "corrected upset needs no rollback (cycle {cycle}, stop {:?})",
            t.stop
        );
        assert_eq!(observe(&sim, &img), golden.observed);
        if t.applied && sim.fsl().ecc_corrected_total() > 0 {
            corrected_somewhere = true;
        }
    }
    assert!(corrected_somewhere, "at least one flip must land on a buffered word");
}

/// A double-bit upset of the same word defeats correction but not
/// detection: the decoder flags it, the supervisor rolls back, and the
/// replay is clean.
#[test]
fn double_bit_upset_recovers_via_ecc_detection() {
    let img = cordic_image();
    let mut sim = cordic_sim(&img);
    sim.set_fsl_ecc(true);
    let sup = Supervisor::new(test_policy());
    let golden = sup.capture_golden(&mut sim, |s| observe(s, &img));
    let mut recovered_somewhere = false;
    for cycle in (50..550).step_by(50) {
        let flip = |bit| FaultKind::FifoBitFlip { dir: FifoDir::FromHw, channel: 0, index: 0, bit };
        let plan = vec![Injection { cycle, kind: flip(5) }, Injection { cycle, kind: flip(19) }];
        let t = sup.run_trial_plan(&mut sim, &golden, plan, |s| observe(s, &img));
        assert!(
            matches!(t.outcome, RecoveryOutcome::Clean | RecoveryOutcome::Recovered { .. }),
            "cycle {cycle}: {:?}",
            t.outcome
        );
        assert_eq!(observe(&sim, &img), golden.observed);
        if let RecoveryOutcome::Recovered { .. } = t.outcome {
            assert_eq!(t.detector, Some(DetectorKind::Ecc), "cycle {cycle}");
            recovered_somewhere = true;
        }
    }
    assert!(recovered_somewhere, "at least one double flip must hit a buffered word");
}

/// An SEU in the configured hardware's sequential state makes the TMR
/// replicas disagree; the voter masks the value, the miscompare counter
/// trips the detector, and the rollback scrubs the upset replica.
#[test]
fn tmr_detects_block_state_upsets_and_rollback_scrubs_them() {
    let img = cordic_image();
    let mut sim = hardened_sim(&img);
    let sup = Supervisor::new(test_policy());
    let golden = sup.capture_golden(&mut sim, |s| observe(s, &img));
    let mut tmr_detected = false;
    for (word, cycle) in [(3u32, 150u64), (9, 250), (17, 350), (24, 450)] {
        let kind = FaultKind::BlockStateFlip { peripheral: 0, word, bit: 4 };
        let t = sup.run_trial(&mut sim, &golden, Injection { cycle, kind }, |s| observe(s, &img));
        assert!(
            matches!(t.outcome, RecoveryOutcome::Clean | RecoveryOutcome::Recovered { .. }),
            "word {word} cycle {cycle}: {:?} (stop {:?})",
            t.outcome,
            t.stop
        );
        assert_eq!(observe(&sim, &img), golden.observed, "word {word} cycle {cycle}");
        if t.detector == Some(DetectorKind::Tmr) {
            tmr_detected = true;
        }
    }
    assert!(tmr_detected, "at least one state flip must trip the voter");
}

/// On the unhardened system a register upset surfaces as silent data
/// corruption; the windowed signature (or the observable backstop)
/// catches it and the rollback undoes it.
#[test]
fn silent_corruption_recovers_via_signature_or_observable() {
    let img = cordic_image();
    let mut sim = cordic_sim(&img);
    let sup = Supervisor::new(test_policy());
    let golden = sup.capture_golden(&mut sim, |s| observe(s, &img));
    let mut recovered = 0;
    for (reg, cycle) in [(3u8, 120u64), (4, 220), (5, 320), (6, 420), (7, 520)] {
        let kind = FaultKind::RegBitFlip { reg, bit: 12 };
        let t = sup.run_trial(&mut sim, &golden, Injection { cycle, kind }, |s| observe(s, &img));
        assert_ne!(t.outcome, RecoveryOutcome::Unrecoverable, "r{reg} @{cycle}");
        assert_eq!(observe(&sim, &img), golden.observed, "r{reg} @{cycle}");
        if let RecoveryOutcome::Recovered { .. } = t.outcome {
            assert!(
                matches!(
                    t.detector,
                    Some(
                        DetectorKind::Signature
                            | DetectorKind::Observable
                            | DetectorKind::Watchdog
                            | DetectorKind::Fault
                    )
                ),
                "r{reg} @{cycle}: {:?}",
                t.detector
            );
            recovered += 1;
        }
    }
    assert!(recovered >= 1, "some register upset must corrupt and recover");
}

/// The supervisor narrates its work: detection and recovery events land
/// on the attached sink.
#[test]
fn supervisor_emits_detection_and_recovery_events() {
    let img = cordic_image();
    let mut sim = cordic_sim(&img);
    let recorder = Rc::new(RefCell::new(Recorder::new(1 << 12)));
    let mut sup = Supervisor::new(RecoveryPolicy { signature_windows: false, ..test_policy() });
    sup.attach_trace(shared(recorder.clone()));
    let golden = sup.capture_golden(&mut sim, |s| observe(s, &img));
    let inj = Injection { cycle: 300, kind: FaultKind::StuckEmpty { channel: 0 } };
    let t = sup.run_trial(&mut sim, &golden, inj, |s| observe(s, &img));
    assert!(matches!(t.outcome, RecoveryOutcome::Recovered { .. }));
    let events = recorder.borrow().events();
    let detections = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::FaultDetected { detector: DetectorKind::Watchdog, .. }))
        .count();
    let recoveries = events.iter().filter(|e| matches!(e, TraceEvent::Recovered { .. })).count();
    assert!(detections >= 1, "watchdog detection must be traced");
    assert!(recoveries >= 1, "rollback must be traced");
}

/// A serial recovery campaign on a borrowed simulator.
fn recovery_campaign(
    sim: &mut CoSim,
    plan: &[Injection],
    img: &Image,
    policy: RecoveryPolicy,
) -> RecoveryReport {
    let observe = |s: &CoSim| observe(s, img);
    run(Sims::Borrowed(sim), plan, &observe, &policy, Exec::default()).expect("no journal").0
}

/// Same seed, same plan: the serial report and the parallel report are
/// identical — at any worker count.
#[test]
fn recovery_campaign_serial_equals_parallel() {
    let img = cordic_image();
    let plan = random_plan_hardware(0x5EED_0005, 18, (50, 550), img.bytes().len() as u32, &[0]);
    let policy = test_policy();
    let mut sim = cordic_sim(&img);
    let serial = recovery_campaign(&mut sim, &plan, &img, policy);
    for workers in [1usize, 3, 8] {
        let (parallel, _) = run(
            Sims::Build(&|| cordic_sim(&img)),
            &plan,
            &|s| observe(s, &img),
            &policy,
            Exec { workers, ..Exec::default() },
        )
        .expect("no journal");
        assert_eq!(serial, parallel, "parallel report diverged at {workers} workers");
    }
    let (clean, recovered, unrecoverable) = serial.counts();
    assert_eq!(clean + recovered + unrecoverable, plan.len());
}

/// The headline robustness claim, in miniature: faults the plain
/// campaign classifies as SDC or hang on the hardened system are
/// overwhelmingly converted to `Recovered` by the supervisor — with
/// bit-exact outputs.
#[test]
fn hardened_supervisor_converts_sdc_and_hangs_to_recovered() {
    let img = cordic_image();
    let plan = random_plan_hardware(0xFA17_2005, 60, (50, 550), img.bytes().len() as u32, &[0]);

    // Baseline: classify the same plan, unsupervised, on the same
    // hardened system.
    let mut sim = hardened_sim(&img);
    let baseline = run_campaign(&mut sim, &plan, |s| observe(s, &img), CampaignConfig::default());

    let mut sim = hardened_sim(&img);
    let report = recovery_campaign(&mut sim, &plan, &img, test_policy());
    assert_eq!(report.trials.len(), baseline.trials.len());

    let mut bad = 0usize;
    let mut converted = 0usize;
    for (b, r) in baseline.trials.iter().zip(&report.trials) {
        if matches!(b.outcome, Outcome::Sdc | Outcome::Deadlock | Outcome::Fault) {
            bad += 1;
            if matches!(r.outcome, RecoveryOutcome::Recovered { .. } | RecoveryOutcome::Clean) {
                converted += 1;
            }
        }
    }
    assert!(bad >= 3, "the seed must produce some damaging faults, got {bad}");
    assert!(
        converted * 10 >= bad * 7,
        "supervisor must convert >= 70% of damaging faults, got {converted}/{bad}"
    );
}

//! Integration tests for the resilience layer: deadlock detection on
//! mis-sized FIFOs, the checkpoint byte format, stuck-flag protocol
//! faults, and a full seeded CORDIC fault campaign. Restored runs are
//! checked against uninterrupted ones in every execution mode by
//! `tests/horizon.rs`.

use softsim::apps::cordic::hardware::cordic_peripheral;
use softsim::apps::cordic::reference::to_fix;
use softsim::apps::cordic::software::{hw_program, CordicBatch};
use softsim::bus::FslBank;
use softsim::cosim::{CoSim, CoSimStop, DeadlockCause};
use softsim::isa::asm::assemble;
use softsim::isa::Image;
use softsim::resilience::{
    from_bytes, random_plan, run_campaign, snapshot, CampaignConfig, FaultKind, Injection,
    Injector, Outcome, SnapshotError,
};
use softsim::trace::FifoDir;

/// The CORDIC workload every test here drives: four divisions, eight
/// iterations, two PEs.
fn cordic_image() -> Image {
    let batch = CordicBatch::new(&[
        (to_fix(1.0), to_fix(0.5)),
        (to_fix(1.5), to_fix(1.2)),
        (to_fix(2.0), to_fix(-1.0)),
        (to_fix(1.25), to_fix(0.8)),
    ]);
    assemble(&hw_program(&batch, 8, 2)).expect("cordic assembles")
}

fn cordic_sim() -> CoSim {
    CoSim::with_peripheral(&cordic_image(), cordic_peripheral(2))
}

/// Reads the four CORDIC quotients from local memory.
fn observe(sim: &CoSim, img: &Image) -> Vec<u32> {
    let base = img.symbol("z_data").expect("result label");
    (0..4).map(|i| sim.cpu().mem().read_u32(base + 4 * i).unwrap()).collect()
}

#[test]
fn snapshot_bytes_round_trip_and_reject_garbage() {
    let mut sim = cordic_sim();
    for _ in 0..150 {
        sim.step();
    }
    let state = sim.save_state();
    let bytes = snapshot::to_bytes(&state);
    assert_eq!(from_bytes(&bytes).expect("round-trips"), state);

    // Chopping the trailer leaves payload bytes where the CRC should be.
    assert_eq!(from_bytes(&bytes[..bytes.len() - 3]), Err(SnapshotError::ChecksumMismatch));
    assert_eq!(from_bytes(&bytes[..10]), Err(SnapshotError::Truncated));
    let mut padded = bytes.clone();
    padded.push(0);
    assert_eq!(from_bytes(&padded), Err(SnapshotError::ChecksumMismatch));
    assert_eq!(from_bytes(b"NOPE"), Err(SnapshotError::BadMagic));
    let mut wrong_version = bytes.clone();
    wrong_version[4] = 0xFF;
    assert_eq!(from_bytes(&wrong_version), Err(SnapshotError::VersionUnsupported(0xFF)));
    assert_eq!(from_bytes(&bytes[..3]), Err(SnapshotError::Truncated));
}

/// Every rejection path of the hardened checkpoint decoder, including
/// the two the CRC alone cannot express: a corrupted payload with a
/// *recomputed* (valid) trailer must still be rejected structurally,
/// and a bit flip anywhere under the trailer must be caught by it.
#[test]
fn snapshot_crc_catches_corruption_and_structure_checks_back_it_up() {
    let mut sim = cordic_sim();
    for _ in 0..150 {
        sim.step();
    }
    let bytes = snapshot::to_bytes(&sim.save_state());

    // Known-answer check for the public CRC so external tooling can
    // interoperate ("123456789" is the standard IEEE test vector).
    assert_eq!(snapshot::crc32(b"123456789"), 0xCBF4_3926);

    // A single flipped payload bit anywhere is a checksum mismatch.
    for pos in [8usize, 200, bytes.len() / 2, bytes.len() - 5] {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x10;
        assert_eq!(
            from_bytes(&corrupt),
            Err(SnapshotError::ChecksumMismatch),
            "flip at byte {pos} must be caught"
        );
    }

    // An attacker-style edit that *recomputes* the trailer gets past the
    // CRC but must still fail the structural checks: declare one more
    // trailing byte than exists.
    let mut resealed = bytes.clone();
    let body_end = resealed.len() - 4;
    resealed.insert(body_end, 0);
    let crc = snapshot::crc32(&resealed[..resealed.len() - 4]);
    let at = resealed.len() - 4;
    resealed[at..].copy_from_slice(&crc.to_le_bytes());
    assert_eq!(from_bytes(&resealed), Err(SnapshotError::Corrupt("trailing bytes")));

    // The empty and sub-header streams truncate, never panic.
    assert_eq!(from_bytes(&[]), Err(SnapshotError::Truncated));
    assert_eq!(from_bytes(&bytes[..7]), Err(SnapshotError::Truncated));
}

/// The satellite regression: a burst writer against a mis-sized
/// (depth-1) FIFO with nobody draining it deadlocks, the watchdog names
/// the blocked channel, and two runs agree on the exact cycle.
#[test]
fn depth_one_fifo_burst_writer_deadlocks_deterministically() {
    let run_once = || {
        let img = assemble(
            "\taddik r3, r0, 7\n\
             \tput r3, rfsl0\n\
             \tput r3, rfsl0\n\
             \thalt\n",
        )
        .unwrap();
        let mut sim = CoSim::software_only(&img);
        *sim.fsl_mut() = FslBank::new(1);
        sim.set_watchdog(100);
        sim.run(1_000_000)
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b, "deadlock must be reported on the same cycle across runs");
    match a {
        CoSimStop::Deadlock { cycle, cause: DeadlockCause::FslDeadlock { block } } => {
            assert!(cycle > 0);
            assert_eq!(block.channel, 0);
            assert_eq!(block.dir, FifoDir::ToHw);
        }
        other => panic!("expected an FSL deadlock, got: {other}"),
    }
}

#[test]
fn stuck_empty_flag_starves_reader_into_deadlock() {
    let img = cordic_image();
    let mut sim = CoSim::with_peripheral(&img, cordic_peripheral(2));
    // Stick the result channel's exists flag low before anything runs:
    // the software's first blocking `get` can never complete.
    assert!(Injector::apply(&mut sim, FaultKind::StuckEmpty { channel: 0 }));
    sim.set_watchdog(2_000);
    match sim.run(1_000_000) {
        CoSimStop::Deadlock { cause: DeadlockCause::FslDeadlock { block }, .. } => {
            assert_eq!(block.dir, FifoDir::FromHw);
        }
        other => panic!("expected deadlock from stuck exists flag, got: {other}"),
    }
}

#[test]
fn cycle_limit_reports_blocked_channel() {
    // A blocking get on a channel nothing feeds, no watchdog: the budget
    // expires and the stop must say where the processor was stuck.
    let img = assemble("\tget r3, rfsl4\n\thalt\n").unwrap();
    let mut sim = CoSim::software_only(&img);
    match sim.run(500) {
        CoSimStop::CycleLimit { blocked: Some(block) } => {
            assert_eq!(block.channel, 4);
            assert_eq!(block.dir, FifoDir::FromHw);
        }
        other => panic!("expected a blocked cycle-limit stop, got: {other}"),
    }
}

#[test]
fn stop_and_cause_display_are_prose() {
    let halted = format!("{}", CoSimStop::Halted);
    assert_eq!(halted, "halted");
    let img = assemble("\tget r3, rfsl2\n\thalt\n").unwrap();
    let mut sim = CoSim::software_only(&img);
    sim.set_watchdog(50);
    let stop = sim.run(10_000);
    let text = format!("{stop}");
    assert!(text.contains("deadlock detected at cycle"), "got: {text}");
    assert!(text.contains("blocking get on FSL channel 2"), "got: {text}");
    assert!(
        format!("{}", DeadlockCause::Livelock).contains("no instruction retired"),
        "livelock prose"
    );
    let kind = FaultKind::FifoDrop { dir: FifoDir::ToHw, channel: 3 };
    assert_eq!(format!("{kind}"), "drop the head word of to_hw FSL 3");
    assert_eq!(format!("{}", Outcome::Sdc), "sdc");
    assert_eq!(
        format!("{}", Injection { cycle: 40, kind: FaultKind::RegBitFlip { reg: 5, bit: 1 } }),
        "at cycle 40: flip bit 1 of r5"
    );
}

/// The acceptance-criteria campaign: ≥ 100 injections over the CORDIC
/// co-simulation, every trial classified, no ambiguity about why a run
/// ended, and the whole report reproducible from the seed.
#[test]
fn hundred_injection_cordic_campaign_is_classified_and_deterministic() {
    let img = cordic_image();
    let run = || {
        let mut sim = CoSim::with_peripheral(&img, cordic_peripheral(2));
        let plan = random_plan(0xC0FFEE, 100, (50, 900), img.bytes().len() as u32, &[0, 1]);
        assert_eq!(plan.len(), 100);
        run_campaign(&mut sim, &plan, |s| observe(s, &img), CampaignConfig::default())
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "campaign must replay identically from the same seed");
    assert_eq!(a.trials.len(), 100);
    let (m, s, d, f) = a.counts();
    assert_eq!(m + s + d + f, 100, "every trial must land in exactly one class");
    // Any trial that hit the cycle budget must still carry its stall
    // context — no bare, uninformative CycleLimit.
    for t in &a.trials {
        if let CoSimStop::CycleLimit { blocked } = &t.stop {
            assert!(blocked.is_some(), "cycle-limit stop without stall context: {:?}", t.injection);
        }
    }
}

#[test]
fn vacuous_faults_are_counted_but_harmless() {
    let img = cordic_image();
    let mut sim = CoSim::with_peripheral(&img, cordic_peripheral(2));
    // r0 is hardwired to zero: flipping its bits can never change state.
    let mut inj =
        Injector::new(vec![Injection { cycle: 0, kind: FaultKind::RegBitFlip { reg: 0, bit: 9 } }]);
    inj.poll(&mut sim);
    assert!(inj.done());
    assert_eq!(inj.applied(), 0);
    assert_eq!(inj.vacuous(), 1);
    assert_eq!(sim.run(100_000), CoSimStop::Halted);
}

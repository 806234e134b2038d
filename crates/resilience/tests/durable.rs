//! Integration tests for the durable (fault-tolerant) execution layer:
//! trial isolation, per-trial budgets, crash-resumable journals, and
//! the never-panic contract of both byte readers (`snapshot::from_bytes`
//! and the `SSJL` journal scan) under truncation, bit flips, and
//! arbitrary bytes.

use softsim_blocks::library::{AddSub, AddSubOp, Constant, Delay, Register};
use softsim_blocks::{FixFmt, Graph};
use softsim_cosim::{CoSim, CoSimStop, FslFromHw, FslToHw, Peripheral};
use softsim_isa::asm::assemble;
use softsim_isa::reg::r;
use softsim_resilience::{
    from_bytes, run, run_campaign, run_campaign_durable, to_bytes, AppendFault, AppendFaultPlan,
    CampaignConfig, CampaignReport, DurabilityStatus, Exec, FaultKind, Injection, JournalError,
    JournalScan, JournalSpec, Outcome, Sims, Trial,
};
use softsim_testkit::Rng;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A peripheral that adds 100 to every word on FSL0, one cycle later.
fn adder_peripheral() -> Peripheral {
    let mut g = Graph::new();
    let data = g.gateway_in("fsl0_data", FixFmt::INT32);
    let valid = g.gateway_in("fsl0_valid", FixFmt::BOOL);
    let hundred = g.add("hundred", Constant::int(100, FixFmt::INT32));
    let add = g.add("add", AddSub::new(AddSubOp::Add, FixFmt::INT32));
    let rdata = g.add("rdata", Register::zeroed(FixFmt::INT32));
    let rvalid = g.add("rvalid", Delay::new(FixFmt::BOOL, 1));
    g.connect(data, 0, add, 0).unwrap();
    g.connect(hundred, 0, add, 1).unwrap();
    g.connect(add, 0, rdata, 0).unwrap();
    g.connect(valid, 0, rdata, 1).unwrap();
    g.connect(valid, 0, rvalid, 0).unwrap();
    g.gateway_out("fsl0_out_data", rdata, 0);
    g.gateway_out("fsl0_out_valid", rvalid, 0);
    g.compile().unwrap();
    Peripheral::new(g, vec![FslToHw::standard(0).without_control()], vec![FslFromHw::standard(0)])
}

/// An FSL round-trip workload: send 4 words, read 4 results, sum them
/// into `r6`. Blocks on `get`, so stuck-flag faults deadlock it and
/// stall fast-forwarding has something to skip.
fn fsl_sim() -> CoSim {
    let image = assemble(
        "addik r3, r0, 0\n\
         addik r5, r0, 4\n\
         send: put r3, rfsl0\n\
         addik r3, r3, 1\n\
         addik r5, r5, -1\n\
         bnei r5, send\n\
         addik r5, r0, 4\n\
         addik r6, r0, 0\n\
         recv: get r4, rfsl0\n\
         addk r6, r6, r4\n\
         addik r5, r5, -1\n\
         bnei r5, recv\n\
         halt\n",
    )
    .unwrap();
    CoSim::with_peripheral(&image, adder_peripheral())
}

fn observe(sim: &CoSim) -> Vec<u32> {
    vec![sim.cpu().reg(r(6))]
}

/// A short watchdog so deadlocked trials diagnose quickly.
fn quick_config() -> CampaignConfig {
    CampaignConfig { watchdog_threshold: 2_000, ..CampaignConfig::default() }
}

/// A small deterministic plan mixing benign flips with one guaranteed
/// deadlock (stuck `exists` flag under a blocking `get` loop).
fn mixed_plan() -> Vec<Injection> {
    vec![
        Injection { cycle: 3, kind: FaultKind::RegBitFlip { reg: 3, bit: 0 } },
        Injection { cycle: 5, kind: FaultKind::MemBitFlip { addr: 0x40, bit: 7 } },
        Injection { cycle: 8, kind: FaultKind::StuckEmpty { channel: 0 } },
        Injection { cycle: 10, kind: FaultKind::RegBitFlip { reg: 6, bit: 2 } },
        Injection {
            cycle: 12,
            kind: FaultKind::FifoDrop { dir: softsim_trace::FifoDir::ToHw, channel: 0 },
        },
        Injection { cycle: 14, kind: FaultKind::RegBitFlip { reg: 5, bit: 0 } },
        Injection { cycle: 16, kind: FaultKind::MemBitFlip { addr: 0x80, bit: 0 } },
        Injection { cycle: 18, kind: FaultKind::RegBitFlip { reg: 4, bit: 4 } },
    ]
}

/// The FSL workload's campaign on `workers` workers, journaled to
/// `journal` (optionally with an injected append fault).
fn run_durable(
    plan: &[Injection],
    journal: &Path,
    resume: bool,
    workers: usize,
    fault: Option<AppendFaultPlan>,
) -> Result<(CampaignReport, DurabilityStatus), JournalError> {
    let journal = JournalSpec { path: journal, resume, fault };
    let exec = Exec { workers, telemetry: None, journal: Some(journal) };
    run(Sims::Build(&fsl_sim), plan, &observe, &quick_config(), exec)
}

/// Reads a fault-campaign journal.
fn resume_from_journal(journal: &Path) -> Result<JournalScan<Trial>, JournalError> {
    softsim_resilience::resume_from_journal::<CampaignConfig>(journal)
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("softsim_it_{}_{}.ssjl", tag, std::process::id()))
}

#[test]
fn harness_panic_is_isolated_and_siblings_complete() {
    let mut plan = mixed_plan();
    plan.insert(2, Injection { cycle: 6, kind: FaultKind::HarnessPanic });
    for workers in [1, 3] {
        let journal = scratch(&format!("isolation_{workers}"));
        let _ = std::fs::remove_file(&journal);
        let (report, _) = run_durable(&plan, &journal, false, workers, None).expect("journal I/O");
        assert_eq!(report.trials.len(), plan.len(), "no trial dropped, workers={workers}");
        let cov = report.coverage();
        assert_eq!(cov.abandoned, 1, "exactly the deliberate panic is abandoned");
        assert_eq!(cov.completed + cov.budget + cov.abandoned, plan.len());
        let panicked = &report.trials[2];
        match &panicked.outcome {
            Outcome::HarnessError { panic_msg } => {
                assert!(panic_msg.contains("deliberate harness panic"), "{panic_msg}");
            }
            other => panic!("expected HarnessError, got {other:?}"),
        }
        assert!(panicked.retries >= 1, "a panicking trial is retried before abandonment");
        for (i, t) in report.trials.iter().enumerate() {
            if i != 2 {
                assert!(
                    !matches!(t.outcome, Outcome::HarnessError { .. }),
                    "sibling {i} classified normally"
                );
            }
        }
        let _ = std::fs::remove_file(&journal);
    }
}

#[test]
fn cycle_budget_cancels_runaway_trials() {
    let plan = mixed_plan();
    let config = CampaignConfig { trial_cycle_budget: Some(8), ..quick_config() };
    let mut sim = fsl_sim();
    let report = run_campaign(&mut sim, &plan, observe, config);
    // The stuck-flag trial would burn the whole watchdog threshold; the
    // 8-cycle budget cancels it (and every other trial, none of which
    // can halt within 8 post-injection cycles) as Budget, not Deadlock.
    let cov = report.coverage();
    assert_eq!(cov.budget, plan.len(), "every trial hit the 8-cycle budget");
    for t in &report.trials {
        assert_eq!(t.outcome, Outcome::Budget, "{:?}", t.injection);
    }
}

#[test]
fn wall_budget_hit_while_fast_forwarding_classifies_budget_not_deadlock() {
    let stuck = vec![Injection { cycle: 8, kind: FaultKind::StuckEmpty { channel: 0 } }];
    // Reference: with no wall budget the stuck trial is a diagnosed
    // deadlock (the watchdog fires while fast-forwarding the stall).
    let mut sim = fsl_sim();
    let reference = run_campaign(&mut sim, &stuck, observe, quick_config());
    assert_eq!(reference.trials[0].outcome, Outcome::Deadlock, "{:?}", reference.trials[0].stop);

    // With an already-expired wall budget the same trial is cancelled
    // mid-fast-forward and must classify Budget, not Deadlock.
    let config = CampaignConfig {
        trial_wall_budget: Some(Duration::ZERO),
        fast_forward: true,
        ..quick_config()
    };
    let mut sim = fsl_sim();
    let capped = run_campaign(&mut sim, &stuck, observe, config);
    assert_eq!(capped.trials[0].outcome, Outcome::Budget, "{:?}", capped.trials[0].stop);

    // The cancelled-while-fast-forwarding trial must leave the co-sim
    // consistent: the same instance immediately runs another campaign
    // and agrees bit for bit with a fresh simulator's.
    let benign = vec![Injection { cycle: 3, kind: FaultKind::RegBitFlip { reg: 3, bit: 0 } }];
    let after = run_campaign(&mut sim, &benign, observe, quick_config());
    let mut fresh = fsl_sim();
    let expected = run_campaign(&mut fresh, &benign, observe, quick_config());
    assert_eq!(after, expected, "co-sim state survives a mid-fast-forward cancellation");
}

#[test]
fn interrupt_and_resume_is_byte_identical_at_any_worker_count() {
    let plan = mixed_plan();
    let journal = scratch("resume");
    let _ = std::fs::remove_file(&journal);
    let (reference, _) = run_durable(&plan, &journal, false, 2, None).expect("journal I/O");
    let full = std::fs::read(&journal).expect("journal readable");

    // Every interesting interruption point: header only (crash before
    // the first record), a few complete records, and a torn tail.
    const HEADER_LEN: usize = 25;
    let torn_cut = {
        // Walk the frames to find the start of the 4th record, then keep
        // 3 extra bytes of it as the torn tail.
        let mut pos = HEADER_LEN;
        for _ in 0..3 {
            let len = u32::from_le_bytes([full[pos], full[pos + 1], full[pos + 2], full[pos + 3]])
                as usize;
            pos += 8 + len;
        }
        pos + 3
    };
    for cut in [HEADER_LEN, torn_cut, full.len()] {
        for workers in [1, 2, 5] {
            std::fs::write(&journal, &full[..cut]).expect("journal writable");
            let (resumed, _) =
                run_durable(&plan, &journal, true, workers, None).expect("journal I/O");
            assert_eq!(
                resumed, reference,
                "resume from {cut} bytes at {workers} workers reproduces the report"
            );
        }
    }

    // Resuming a complete journal re-runs nothing and leaves it alone.
    std::fs::write(&journal, &full).expect("journal writable");
    let resumed = run_campaign_durable(fsl_sim, &plan, observe, quick_config(), &journal, true)
        .expect("journal I/O");
    assert_eq!(resumed, reference);
    assert_eq!(std::fs::read(&journal).expect("journal readable"), full, "journal untouched");
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn append_fault_degrades_to_non_durable_with_a_clean_tail() {
    let plan = mixed_plan();
    let mut sim = fsl_sim();
    let reference = run_campaign(&mut sim, &plan, observe, quick_config());
    for fault in [AppendFault::ShortWrite, AppendFault::DiskFull, AppendFault::FlushError] {
        let journal = scratch(&format!("fault_{fault:?}"));
        let _ = std::fs::remove_file(&journal);
        // The 4th append fails: the run must finish with the same
        // report, flagged non-durable with a warning — never a panic.
        let injected = Some(AppendFaultPlan { kind: fault, after_appends: 3 });
        let (report, status) = run_durable(&plan, &journal, false, 1, injected)
            .expect("an append failure must not fail the campaign");
        assert_eq!(report, reference, "report unaffected by {fault}");
        assert!(!status.durable, "{fault} must degrade the run");
        assert_eq!(status.appended, 3, "{fault}");
        let warning = status.warning.expect("degraded run carries a warning");
        assert!(warning.contains("non-durable"), "{warning}");

        // The journal tail is clean: exactly the three good records,
        // nothing torn (the partial frame of a short write is dropped).
        let scan = resume_from_journal(&journal).expect("degraded journal still scans");
        assert_eq!(scan.records, 3, "{fault}");
        assert_eq!(scan.torn_bytes, 0, "no torn tail left behind by {fault}");
        assert_eq!(std::fs::metadata(&journal).expect("journal stat").len(), scan.good_bytes);

        // And it resumes: only the five missing trials re-run, to the
        // byte-identical report.
        let (resumed, status) = run_durable(&plan, &journal, true, 2, None).expect("journal I/O");
        assert_eq!(resumed, reference, "resume after {fault} degrade");
        assert!(status.durable);
        assert_eq!(status.appended as usize, plan.len() - 3);
        let _ = std::fs::remove_file(&journal);
    }
}

#[test]
fn resume_with_a_different_plan_is_a_typed_error() {
    let journal = scratch("mismatch");
    let _ = std::fs::remove_file(&journal);
    let plan = mixed_plan();
    run_campaign_durable(fsl_sim, &plan, observe, quick_config(), &journal, false)
        .expect("journal I/O");
    let mut other = plan.clone();
    other.push(Injection { cycle: 20, kind: FaultKind::RegBitFlip { reg: 7, bit: 1 } });
    let err = run_campaign_durable(fsl_sim, &other, observe, quick_config(), &journal, true)
        .expect_err("a different plan must be rejected");
    assert!(
        matches!(err, JournalError::PlanMismatch { .. } | JournalError::TrialCountMismatch { .. }),
        "typed mismatch, got {err}"
    );
    let _ = std::fs::remove_file(&journal);
}

/// Builds a valid completed journal once, for the fuzz tests below.
fn valid_journal_bytes() -> Vec<u8> {
    let journal = scratch("fuzz_seed");
    let _ = std::fs::remove_file(&journal);
    run_campaign_durable(fsl_sim, &mixed_plan(), observe, quick_config(), &journal, false)
        .expect("journal I/O");
    let bytes = std::fs::read(&journal).expect("journal readable");
    let _ = std::fs::remove_file(&journal);
    bytes
}

#[test]
fn journal_scan_never_panics_and_clamps_under_any_damage() {
    let full = valid_journal_bytes();
    let journal = scratch("fuzz");
    let header_trials = mixed_plan().len();

    // Every truncation length: the scan returns a typed error or a
    // valid prefix — never panics, never reads past the buffer.
    for cut in 0..=full.len() {
        std::fs::write(&journal, &full[..cut]).expect("journal writable");
        // A typed error is fine (pre-header truncations); an Ok scan
        // must stay within bounds.
        if let Ok(scan) = resume_from_journal(&journal) {
            assert_eq!(scan.completed.len(), header_trials);
            assert!(scan.good_bytes as usize <= cut);
            assert!(scan.done() <= header_trials);
        }
    }

    // Seeded bit flips anywhere in the journal.
    let mut rng = Rng::new(0xD1CE_F00D);
    for _ in 0..250 {
        let mut bytes = full.clone();
        for _ in 0..rng.range_usize(1, 8) {
            let i = rng.range_usize(0, bytes.len() - 1);
            bytes[i] ^= 1 << rng.range_usize(0, 7);
        }
        std::fs::write(&journal, &bytes).expect("journal writable");
        if let Ok(scan) = resume_from_journal(&journal) {
            assert!(scan.good_bytes as usize <= bytes.len());
        }
    }

    // Arbitrary byte soup, half of it wearing a valid magic + version.
    for case in 0..250 {
        let n = rng.range_usize(0, 600);
        let mut bytes: Vec<u8> = (0..n).map(|_| rng.next_u32() as u8).collect();
        if case % 2 == 0 && bytes.len() >= 8 {
            bytes[..4].copy_from_slice(b"SSJL");
            bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        }
        std::fs::write(&journal, &bytes).expect("journal writable");
        let _ = resume_from_journal(&journal);
    }

    // Clamping guarantee: a CRC-valid header declaring an implausible
    // trial count must fail typed instead of allocating gigabytes of
    // slot table.
    let mut hostile = Vec::new();
    hostile.extend_from_slice(b"SSJL");
    hostile.extend_from_slice(&1u32.to_le_bytes());
    hostile.push(0); // campaign kind
    hostile.extend_from_slice(&0u64.to_le_bytes()); // plan hash
    hostile.extend_from_slice(&u32::MAX.to_le_bytes()); // 4G trials
    let crc = softsim_resilience::crc32(&hostile);
    hostile.extend_from_slice(&crc.to_le_bytes());
    std::fs::write(&journal, &hostile).expect("journal writable");
    match resume_from_journal(&journal) {
        Err(JournalError::Corrupt(_)) => {}
        other => panic!("implausible trial count must be Corrupt, got {other:?}"),
    }
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn snapshot_from_bytes_never_panics_under_any_damage() {
    let mut sim = fsl_sim();
    assert_eq!(sim.run(20), CoSimStop::CycleLimit { blocked: None });
    let full = to_bytes(&sim.save_state());

    // Every truncation length fails typed (a shorter buffer can never
    // checksum-match the trailer).
    for cut in 0..full.len() {
        assert!(from_bytes(&full[..cut]).is_err(), "truncation at {cut} must fail");
    }

    // Seeded bit flips: decode returns Ok only for flips the checksum
    // cannot see (there are none — CRC32 detects all 1-8 bit burbles in
    // these sizes), so every case must fail typed; none may panic.
    let mut rng = Rng::new(0x5EED_5AFE);
    for _ in 0..300 {
        let mut bytes = full.clone();
        for _ in 0..rng.range_usize(1, 8) {
            let i = rng.range_usize(0, bytes.len() - 1);
            bytes[i] ^= 1 << rng.range_usize(0, 7);
        }
        let _ = from_bytes(&bytes);
    }

    // Arbitrary byte soup, half of it wearing the snapshot magic.
    for case in 0..300 {
        let n = rng.range_usize(0, 400);
        let mut bytes: Vec<u8> = (0..n).map(|_| rng.next_u32() as u8).collect();
        if case % 2 == 0 && bytes.len() >= 4 {
            bytes[..4].copy_from_slice(b"SSCK");
        }
        let _ = from_bytes(&bytes);
    }

    // The undamaged bytes still round-trip.
    let state = from_bytes(&full).expect("valid snapshot decodes");
    assert_eq!(to_bytes(&state), full);
}

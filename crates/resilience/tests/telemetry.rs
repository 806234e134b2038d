//! Integration tests for harness telemetry: instrumented runs must
//! leave every deterministic artifact — campaign reports, recovery
//! reports, durable reports, and journal bytes — byte-identical to the
//! uninstrumented ones at any worker count, while the span rollups
//! reconcile exactly with what the reports say happened.

use softsim_blocks::library::{AddSub, AddSubOp, Constant, Delay, Register};
use softsim_blocks::{FixFmt, Graph};
use softsim_cosim::{CoSim, FslFromHw, FslToHw, Peripheral};
use softsim_isa::asm::assemble;
use softsim_isa::reg::r;
use softsim_metrics::telemetry::{SpanKind, Telemetry, TelemetryConfig};
use softsim_resilience::{
    run, run_campaign, CampaignConfig, Exec, FaultKind, Injection, JournalSpec, RecoveryPolicy,
    Sims, TrialKind,
};
use std::path::{Path, PathBuf};

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

/// A small deterministic plan mixing benign flips, one guaranteed
/// deadlock, and one deliberate harness panic (so the retry and
/// abandoned counters have something to count).
fn mixed_plan() -> Vec<Injection> {
    vec![
        Injection { cycle: 3, kind: FaultKind::RegBitFlip { reg: 3, bit: 0 } },
        Injection { cycle: 5, kind: FaultKind::MemBitFlip { addr: 0x40, bit: 7 } },
        Injection { cycle: 6, kind: FaultKind::HarnessPanic },
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

/// `workers` workers, `telemetry`, and a `(path, resume)` journal.
fn exec<'a>(
    workers: usize,
    telemetry: Option<&'a Telemetry>,
    journal: Option<(&'a Path, bool)>,
) -> Exec<'a> {
    let journal = journal.map(|(path, resume)| JournalSpec { path, resume, fault: None });
    Exec { workers, telemetry, journal }
}

/// A serial run of `kind` on one borrowed FSL simulator.
fn serial<K: TrialKind>(plan: &[Injection], kind: &K, telemetry: Option<&Telemetry>) -> K::Report {
    let mut sim = fsl_sim();
    let exec = exec(1, telemetry, None);
    run(Sims::Borrowed(&mut sim), plan, &observe, kind, exec).expect("journal I/O").0
}

/// A run of `kind` on fresh FSL simulators under `exec`.
fn built<K: TrialKind>(plan: &[Injection], kind: &K, exec: Exec<'_>) -> K::Report {
    run(Sims::Build(&fsl_sim), plan, &observe, kind, exec).expect("journal I/O").0
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("softsim_tel_{}_{}.ssjl", tag, std::process::id()))
}

#[test]
fn campaign_report_is_byte_identical_with_telemetry_at_any_worker_count() {
    let plan = mixed_plan();
    let mut sim = fsl_sim();
    let reference = run_campaign(&mut sim, &plan, observe, quick_config());

    // Serial instrumented run.
    let t = Telemetry::new(TelemetryConfig::default());
    let serial = serial(&plan, &quick_config(), Some(&t));
    assert_eq!(serial, reference, "serial telemetry run must not perturb the report");

    // Parallel instrumented runs at several worker counts.
    for workers in [1, 2, 5] {
        let t = Telemetry::new(TelemetryConfig::default());
        let parallel = built(&plan, &quick_config(), exec(workers, Some(&t), None));
        assert_eq!(parallel, reference, "workers={workers}");
        assert_eq!(t.trial_count(), plan.len() as u64, "one trial span per injection");
    }
}

#[test]
fn campaign_span_rollups_reconcile_with_the_report() {
    let plan = mixed_plan();
    let t = Telemetry::new(TelemetryConfig::default());
    let report = serial(&plan, &quick_config(), Some(&t));

    // Exactly one trial span per injection; sim-cycle rollup equals the
    // report's per-trial cycle sum, and the golden span carries the
    // golden run's cycles.
    assert_eq!(t.trial_count(), report.trials.len() as u64);
    let report_cycles: u64 = report.trials.iter().map(|tr| tr.cpu_stats.cycles).sum();
    assert_eq!(t.trial_cycles(), report_cycles, "trial sim-cycles reconcile exactly");
    assert_eq!(t.golden_cycles(), report.golden_cycles, "golden sim-cycles reconcile exactly");

    // Retry attempts roll up from the same per-trial counter the
    // deterministic coverage line prints.
    let report_retries: u64 = report.trials.iter().map(|tr| tr.retries as u64).sum();
    assert_eq!(t.retries(), report_retries);
    assert_eq!(report.coverage().retry_attempts, report_retries as usize);
    assert!(t.retries() >= 1, "the deliberate panic forces at least one retry");
    assert!(t.retry_wall() > std::time::Duration::ZERO, "retries cost measurable wall time");

    // Worker rollups cover every recorded sim-cycle.
    let worker_cycles: u64 = t.worker_stats().iter().map(|w| w.cycles).sum();
    assert_eq!(worker_cycles, t.trial_cycles() + t.golden_cycles());
}

#[test]
fn parallel_worker_rollups_cover_all_trials() {
    let plan = mixed_plan();
    let t = Telemetry::new(TelemetryConfig::default());
    let report = built(&plan, &quick_config(), exec(3, Some(&t), None));
    let workers = t.worker_stats();
    assert!(workers.len() >= 2, "three chunks spread over at least two worker slots");
    let span_total: u64 = workers.iter().map(|w| w.spans).sum();
    // Golden + one span per trial (abandoned ones included); the
    // campaign span is an aggregate, not worker occupancy.
    assert_eq!(span_total, 1 + plan.len() as u64);
    let worker_cycles: u64 = workers.iter().map(|w| w.cycles).sum();
    let report_cycles: u64 = report.trials.iter().map(|tr| tr.cpu_stats.cycles).sum();
    assert_eq!(worker_cycles, report_cycles + report.golden_cycles);
}

#[test]
fn recovery_report_is_byte_identical_with_telemetry_and_rollups_reconcile() {
    let plan = mixed_plan();
    let policy = RecoveryPolicy::default();
    let reference = serial(&plan, &policy, None);

    for workers in [1, 2, 5] {
        let t = Telemetry::new(TelemetryConfig::default());
        let report = built(&plan, &policy, exec(workers, Some(&t), None));
        assert_eq!(report, reference, "workers={workers}");
        assert_eq!(t.trial_count(), plan.len() as u64);
        // Recovery trial spans carry work_cycles (rollback replays
        // included), the honest measure of simulation effort.
        let work: u64 = report.trials.iter().map(|tr| tr.work_cycles).sum();
        assert_eq!(t.trial_cycles(), work, "workers={workers}");
        assert_eq!(t.golden_cycles(), report.golden_cycles, "workers={workers}");
    }
}

#[test]
fn durable_report_and_journal_bytes_are_byte_identical_with_telemetry() {
    let plan = mixed_plan();
    let reference_journal = scratch("ref");
    let _ = std::fs::remove_file(&reference_journal);
    let reference = built(&plan, &quick_config(), exec(1, None, Some((&reference_journal, false))));
    let reference_bytes = std::fs::read(&reference_journal).expect("journal readable");
    let _ = std::fs::remove_file(&reference_journal);

    const HEADER_LEN: u64 = 25;
    for workers in [1, 2, 5] {
        let journal = scratch(&format!("tel_{workers}"));
        let _ = std::fs::remove_file(&journal);
        let t = Telemetry::new(TelemetryConfig::default());
        let report =
            built(&plan, &quick_config(), exec(workers, Some(&t), Some((&journal, false))));
        assert_eq!(report, reference, "workers={workers}");
        let bytes = std::fs::read(&journal).expect("journal readable");
        if workers == 1 {
            // With one worker append order is plan order, so the whole
            // journal is byte-identical to the uninstrumented run's.
            assert_eq!(bytes, reference_bytes, "journal bytes identical at one worker");
        } else {
            // Parallel workers append records in completion order (that
            // is the durability design — resume keys on trial indices),
            // so only the byte *count* is order-independent.
            assert_eq!(
                bytes.len(),
                reference_bytes.len(),
                "same records, same total bytes, workers={workers}"
            );
        }
        // The journal-append spans account for every byte after the
        // header: frame bytes are the whole file minus the 25-byte
        // plan-hash header written at creation.
        assert_eq!(
            t.journal_bytes(),
            bytes.len() as u64 - HEADER_LEN,
            "journal-append spans account for every frame byte, workers={workers}"
        );
        let _ = std::fs::remove_file(&journal);
    }
}

#[test]
fn resume_announces_only_the_missing_trials() {
    let plan = mixed_plan();
    let journal = scratch("resume");
    let _ = std::fs::remove_file(&journal);
    let reference = built(&plan, &quick_config(), exec(1, None, Some((&journal, false))));
    let full = std::fs::read(&journal).expect("journal readable");

    // Truncate to the header plus the first three complete records.
    const HEADER_LEN: usize = 25;
    let mut pos = HEADER_LEN;
    for _ in 0..3 {
        let len =
            u32::from_le_bytes([full[pos], full[pos + 1], full[pos + 2], full[pos + 3]]) as usize;
        pos += 8 + len;
    }
    std::fs::write(&journal, &full[..pos]).expect("journal writable");

    let t = Telemetry::new(TelemetryConfig::default());
    let resumed = built(&plan, &quick_config(), exec(2, Some(&t), Some((&journal, true))));
    assert_eq!(resumed, reference, "resume reproduces the full report");
    // Only the re-run trials show up as spans and expected work.
    assert_eq!(t.trial_count(), (plan.len() - 3) as u64);
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn exposition_reflects_the_run_and_escapes_correctly() {
    let plan = mixed_plan();
    let t = Telemetry::new(TelemetryConfig::default());
    let _ = serial(&plan, &quick_config(), Some(&t));

    let prom = t.to_prometheus();
    assert!(prom.contains(&format!(
        "softsim_harness_spans_total{{kind=\"{}\"}} {}",
        SpanKind::Trial.label(),
        plan.len()
    )));
    assert!(prom.contains("softsim_harness_trial_wall_seconds_bucket"));
    assert!(prom.contains("le=\"+Inf\""));
    assert!(prom.contains(&format!("softsim_harness_trials_expected {}", plan.len())));

    let json = t.to_json();
    let v = softsim_trace::json::parse(&json).expect("telemetry JSON parses");
    assert_eq!(v.get("trials").and_then(|c| c.as_f64()), Some(plan.len() as f64));
    assert_eq!(v.get("retries").and_then(|c| c.as_f64()), Some(t.retries() as f64));
}

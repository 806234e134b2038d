//! Durable-campaign benchmarks: the `BENCH_0007` record and the
//! `--journal` / `--resume` report plumbing.
//!
//! Exercises the crash-resumable execution layer end to end on the
//! CORDIC workload: run a journaled campaign, "interrupt" it by tearing
//! the journal at a record boundary (plus a few torn-tail bytes, the
//! shape a real crash leaves), resume, and assert the merged report is
//! byte-identical to the uninterrupted run — then prove the same
//! independence of the worker count. Everything reported here is
//! cycle-exact and machine-independent (counts, journal record sizes,
//! the plan hash), so the record is byte-reproducible and CI can `cmp`
//! it across `SOFTSIM_SWEEP_WORKERS` values.

use crate::faults::{
    cordic_campaign, cordic_sim, default_workers, run_design, CORDIC, CORDIC_ITERS, CORDIC_P,
    REPORT_SEED,
};
use crate::recover::cordic_recovery;
use softsim_resilience::{
    resume_from_journal, CampaignConfig, CampaignReport, Exec, FaultKind, Injection, JournalSpec,
    RecoveryPolicy, RecoveryReport, TrialKind,
};
use softsim_serve::catalog;
use std::path::{Path, PathBuf};

/// Trials in the durable fault campaign (smaller than the `--faults`
/// report's 120: the campaign runs three times — uninterrupted,
/// interrupted + resumed, and once more for worker invariance).
pub const DURABLE_TRIALS: usize = 96;
/// Trials in the durable recovery campaign (supervised trials cost a
/// golden capture's worth of work each; a smaller plan keeps the
/// record quick while still crossing every outcome class).
pub const DURABLE_RECOVERY_TRIALS: usize = 40;
/// Record index at which the interrupt simulation tears the journal.
const INTERRUPT_AT: usize = DURABLE_TRIALS / 3;

/// Journal header length of the `SSJL` format (magic + version + kind
/// + plan hash + trial count + CRC), used to walk record frames.
const HEADER_LEN: usize = 25;

/// A run on `workers` workers, journaled to `journal`; with `resume`,
/// trials already in the journal are loaded instead of re-run.
pub fn journaled(journal: &Path, resume: bool, workers: usize) -> Exec<'_> {
    let journal = JournalSpec { path: journal, resume, fault: None };
    Exec { workers, telemetry: None, journal: Some(journal) }
}

/// The seeded CORDIC fault campaign of this record.
fn durable_campaign(exec: Exec<'_>) -> CampaignReport {
    cordic_campaign(REPORT_SEED, DURABLE_TRIALS, CampaignConfig::default(), exec)
}

/// The seeded fully-hardened (ecc+tmr) CORDIC recovery campaign of this
/// record.
fn durable_recovery(exec: Exec<'_>) -> RecoveryReport {
    cordic_recovery(REPORT_SEED, DURABLE_RECOVERY_TRIALS, exec)
}

/// Byte offsets of every record frame in a journal (walking the
/// documented `len | payload | crc` framing from outside the
/// resilience crate — the format is a public contract).
fn frame_offsets(bytes: &[u8]) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut pos = HEADER_LEN;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        if pos + 8 + len > bytes.len() {
            break;
        }
        offsets.push(pos);
        pos += 8 + len;
    }
    offsets
}

/// Tears `journal` the way a crash would: keep the first `records`
/// frames, then a few bytes of the next frame as a torn tail.
fn interrupt_journal(journal: &Path, records: usize) -> (usize, u64) {
    let bytes = std::fs::read(journal).expect("journal readable");
    let offsets = frame_offsets(&bytes);
    assert!(records < offsets.len(), "interrupt point must be mid-campaign");
    let cut = offsets[records] + 5; // 5 bytes into the torn frame
    std::fs::write(journal, &bytes[..cut]).expect("journal writable");
    (records, (cut - offsets[records]) as u64)
}

/// A scratch journal path unique to this process and `tag`.
fn scratch_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("softsim_{}_{}.ssjl", tag, std::process::id()))
}

/// Everything the `--durable` record section and `BENCH_0007` report:
/// the uninterrupted campaign, the interrupt-and-resume equivalence,
/// worker invariance, the trial-isolation demo, and the recovery-side
/// resume — all computed once.
struct DurableRun {
    report: CampaignReport,
    records: usize,
    journal_bytes: u64,
    plan_hash: u64,
    resumed_records: usize,
    torn_bytes: u64,
    resumed_identical: bool,
    workers_invariant: bool,
    demo: CampaignReport,
    recovery: RecoveryReport,
    recovery_records: usize,
    recovery_resumed_identical: bool,
}

fn run_durable() -> DurableRun {
    let workers = default_workers();

    // Uninterrupted durable run.
    let journal = scratch_journal("durable_faults");
    let report = durable_campaign(journaled(&journal, false, workers));
    let scan = resume_from_journal::<CampaignConfig>(&journal).expect("journal scans");
    assert_eq!(scan.done(), DURABLE_TRIALS, "every trial journaled");
    let journal_bytes = std::fs::metadata(&journal).expect("journal exists").len();
    let (records, plan_hash) = (scan.records, scan.plan_hash);

    // Interrupt at a record boundary + torn tail, then resume.
    let (resumed_records, torn_bytes) = interrupt_journal(&journal, INTERRUPT_AT);
    let resumed = durable_campaign(journaled(&journal, true, workers));
    let resumed_identical = resumed == report;
    assert!(resumed_identical, "resumed report must be byte-identical to the uninterrupted run");

    // Worker invariance: a fresh serial run agrees with the pool run.
    let serial_journal = scratch_journal("durable_faults_serial");
    let serial = durable_campaign(journaled(&serial_journal, false, 1));
    let workers_invariant = serial == report;
    assert!(workers_invariant, "durable report must not depend on the worker count");

    // Trial isolation demo: the seeded plan plus one deliberate
    // harness panic and a tight per-trial cycle budget — the panic is
    // caught ([`HarnessError`]), runaway trials are cancelled
    // ([`Budget`]), and every sibling still classifies.
    let mut plan = catalog::campaign_plan(CORDIC, REPORT_SEED, 23);
    plan.push(Injection { cycle: plan[0].cycle, kind: FaultKind::HarnessPanic });
    let demo_journal = scratch_journal("durable_demo");
    let demo = run_design(
        cordic_sim,
        CORDIC,
        &plan,
        &CampaignConfig { trial_cycle_budget: Some(64), ..CampaignConfig::default() },
        journaled(&demo_journal, false, workers),
    );
    assert_eq!(demo.trials.len(), 24, "sibling trials all completed");

    // Recovery-side resume over the supervised campaign.
    let rec_journal = scratch_journal("durable_recovery");
    let recovery = durable_recovery(journaled(&rec_journal, false, workers));
    let rec_scan =
        resume_from_journal::<RecoveryPolicy>(&rec_journal).expect("recovery journal scans");
    let recovery_records = rec_scan.records;
    interrupt_journal(&rec_journal, DURABLE_RECOVERY_TRIALS / 2);
    let rec_resumed = durable_recovery(journaled(&rec_journal, true, workers));
    let recovery_resumed_identical = rec_resumed == recovery;
    assert!(recovery_resumed_identical, "resumed recovery report must be byte-identical");

    for p in [journal, serial_journal, demo_journal, rec_journal] {
        let _ = std::fs::remove_file(p);
    }
    DurableRun {
        report,
        records,
        journal_bytes,
        plan_hash,
        resumed_records,
        torn_bytes,
        resumed_identical,
        workers_invariant,
        demo,
        recovery,
        recovery_records,
        recovery_resumed_identical,
    }
}

/// The `--durable` report: journaled execution, interrupt-and-resume
/// equivalence, worker invariance, and trial isolation, as one
/// deterministic text section.
///
/// # Panics
/// Panics if any resumed or re-run report differs from the reference —
/// the determinism regressions CI gates on.
pub fn durable_text() -> String {
    use std::fmt::Write;
    let run = run_durable();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "durable campaigns: journaled CORDIC sweep \
         (seed {REPORT_SEED:#x}, {DURABLE_TRIALS} trials)"
    );
    s.push_str(
        &run.report
            .text(&format!("cordic divider, P={CORDIC_P}, {CORDIC_ITERS} iterations (journaled)")),
    );
    let _ = writeln!(
        s,
        "  journal: {} records, {} bytes, plan hash {:#018x}",
        run.records, run.journal_bytes, run.plan_hash
    );
    let _ = writeln!(
        s,
        "  interrupt-and-resume: torn after {} records (+{} torn bytes) \
         -> resumed report byte-identical: {}",
        run.resumed_records, run.torn_bytes, run.resumed_identical
    );
    let _ =
        writeln!(s, "  worker invariance: serial rerun byte-identical: {}", run.workers_invariant);
    let demo_cov = run.demo.coverage();
    let _ = writeln!(
        s,
        "  isolation demo ({} trials, 1 deliberate panic, 64-cycle trial budget): \
         {} budget-cancelled, {} harness-abandoned, {} completed",
        run.demo.trials.len(),
        demo_cov.budget,
        demo_cov.abandoned,
        demo_cov.completed
    );
    let (clean, rec, unrec) = run.recovery.counts();
    let _ = writeln!(
        s,
        "  recovery resume ({DURABLE_RECOVERY_TRIALS} supervised trials, ecc+tmr): \
         {clean}c/{rec}r/{unrec}u, {} records, resumed byte-identical: {}",
        run.recovery_records, run.recovery_resumed_identical
    );
    s
}

/// The machine-readable `BENCH_0007` record as a JSON string. Every
/// number is cycle-exact and machine-independent — the record is
/// byte-reproducible at any worker count.
///
/// # Panics
/// Panics if any resumed or re-run report differs from the reference.
pub fn durable_json() -> String {
    let run = run_durable();
    let (m, sdc, d, f) = run.report.counts();
    let cov = run.report.coverage();
    let demo_cov = run.demo.coverage();
    let (clean, rec, unrec) = run.recovery.counts();
    format!(
        "{{\"schema\":\"softsim-bench/1\",\"bench_id\":\"BENCH_0007\",\
         \"description\":\"durable journaled campaign execution: interrupt-and-resume determinism\",\
         \"seed\":{REPORT_SEED},\"trials\":{DURABLE_TRIALS},\
         \"campaign\":{{\"masked\":{m},\"sdc\":{sdc},\"deadlock\":{d},\"fault\":{f},\
         \"coverage\":{{\"completed\":{},\"budget\":{},\"abandoned\":{},\"retried\":{}}},\
         \"journal_records\":{},\"journal_bytes\":{},\"plan_hash\":\"{:#018x}\"}},\
         \"resume\":{{\"interrupted_at_records\":{},\"torn_bytes\":{},\
         \"report_identical\":{}}},\
         \"workers_invariant\":{},\
         \"isolation\":{{\"trials\":{},\"budget_cancelled\":{},\"harness_abandoned\":{},\
         \"completed\":{}}},\
         \"recovery\":{{\"trials\":{DURABLE_RECOVERY_TRIALS},\"clean\":{clean},\
         \"recovered\":{rec},\"unrecoverable\":{unrec},\"journal_records\":{},\
         \"resumed_identical\":{}}}}}\n",
        cov.completed,
        cov.budget,
        cov.abandoned,
        cov.retried,
        run.records,
        run.journal_bytes,
        run.plan_hash,
        run.resumed_records,
        run.torn_bytes,
        run.resumed_identical,
        run.workers_invariant,
        run.demo.trials.len(),
        demo_cov.budget,
        demo_cov.abandoned,
        demo_cov.completed,
        run.recovery_records,
        run.recovery_resumed_identical,
    )
}

/// Writes [`durable_json`] to `path`.
pub fn write_durable_json(path: &Path) -> std::io::Result<()> {
    std::fs::write(path, durable_json())
}

/// The `--faults --journal PATH` report: the seeded CORDIC campaign
/// run durably against a user-supplied journal. With `resume`, trials
/// already journaled are loaded; the trailing lines account for what
/// the journal contributed.
pub fn durable_faults_text(journal: &Path, resume: bool) -> String {
    journaled_text::<CampaignConfig>(journal, resume, DURABLE_TRIALS, |exec| {
        durable_campaign(exec).text(&format!(
            "cordic divider, P={CORDIC_P}, {CORDIC_ITERS} iterations \
             (seed {REPORT_SEED:#x}, journaled)"
        ))
    })
}

/// The `--recovery --journal PATH` report: the fully-hardened CORDIC
/// recovery campaign run durably against a user-supplied journal.
pub fn durable_recovery_text(journal: &Path, resume: bool) -> String {
    journaled_text::<RecoveryPolicy>(journal, resume, DURABLE_RECOVERY_TRIALS, |exec| {
        durable_recovery(exec).text(&format!(
            "cordic divider, ecc+tmr, P={CORDIC_P}, {CORDIC_ITERS} iterations \
             (seed {REPORT_SEED:#x}, journaled)"
        ))
    })
}

/// The text of a `K` campaign of `trials` that `campaign` runs journaled
/// to `journal`, plus lines accounting for what the journal contributed.
fn journaled_text<K: TrialKind>(
    journal: &Path,
    resume: bool,
    trials: usize,
    campaign: impl FnOnce(Exec<'_>) -> String,
) -> String {
    use std::fmt::Write;
    let prior = resume
        .then(|| resume_from_journal::<K>(journal).ok().map(|scan| (scan.done(), scan.torn_bytes)))
        .flatten();
    let mut s = campaign(journaled(journal, resume, default_workers()));
    match prior {
        Some((done, torn)) => {
            let _ = writeln!(
                s,
                "  journal: resumed with {done} of {trials} trials on file \
                 ({torn} torn bytes dropped), {} re-run",
                trials - done
            );
        }
        None => {
            let _ = writeln!(s, "  journal: fresh run, {trials} trials appended");
        }
    }
    let _ = writeln!(s, "  journal file: {}", journal.display());
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_journal(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("softsim_test_{}_{}.ssjl", tag, std::process::id()))
    }

    #[test]
    fn durable_json_is_well_formed_and_identical_flags_hold() {
        use softsim_trace::json::Value;
        let doc = softsim_trace::json::parse(&durable_json()).expect("valid json");
        assert_eq!(doc.get("bench_id").unwrap().as_str().unwrap(), "BENCH_0007");
        let resume = doc.get("resume").unwrap();
        assert_eq!(resume.get("report_identical").unwrap(), &Value::Bool(true));
        assert_eq!(doc.get("workers_invariant").unwrap(), &Value::Bool(true));
        let isolation = doc.get("isolation").unwrap();
        assert_eq!(isolation.get("harness_abandoned").unwrap().as_f64().unwrap() as u64, 1);
        let recovery = doc.get("recovery").unwrap();
        assert_eq!(recovery.get("resumed_identical").unwrap(), &Value::Bool(true));
    }

    #[test]
    fn faults_journal_text_reports_resume_accounting() {
        let journal = test_journal("faults_text");
        let fresh = durable_faults_text(&journal, false);
        assert!(fresh.contains("fresh run"), "{fresh}");
        // Tear the journal and resume through the text path.
        interrupt_journal(&journal, 10);
        let resumed = durable_faults_text(&journal, true);
        assert!(resumed.contains("resumed with 10 of"), "{resumed}");
        let _ = std::fs::remove_file(journal);
    }
}

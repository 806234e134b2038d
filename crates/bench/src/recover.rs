//! Recovery-campaign benchmarks: the `BENCH_0005` record and the
//! `--recovery` report section.
//!
//! Sweeps the same seeded SEU/protocol fault plan over a hardening
//! matrix — unhardened, FSL SEC-DED ECC, TMR peripheral, and both —
//! for the CORDIC divider and the block matmul. Each workload ×
//! hardening pair is run twice over the identical plan:
//!
//! 1. **unsupervised** ([`CampaignConfig`]): classifies what every fault
//!    *does* — masked, silent data corruption, deadlock, or an
//!    architectural fault;
//! 2. **supervised** (the catalog's
//!    [`recovery_policy`](catalog::recovery_policy)): measures what the
//!    rollback supervisor *undoes* — clean, recovered (with detection
//!    latency and replayed work), or unrecoverable.
//!
//! The headline number is the conversion rate: of the trials that
//! damage the unsupervised run (everything but masked), what fraction
//! does the supervisor land at a bit-exact halt? The campaigns are
//! fully deterministic; `tables --recovery` runs the hardened CORDIC
//! sweep both serially and on the parallel runner and asserts the two
//! reports agree bit for bit — the same check CI gates on.

use crate::faults::{
    default_workers, run_design, CORDIC, CORDIC_ITERS, CORDIC_P, MATMUL, MATMUL_N, MATMUL_NB,
    REPORT_SEED,
};
use crate::tables::json_f64;
use softsim_cosim::CoSim;
use softsim_resilience::{
    CampaignConfig, CampaignReport, Exec, Injection, Outcome, RecoveryOutcome, RecoveryReport,
};
use softsim_serve::catalog::{self, Workload};

/// One hardening configuration of the recovery matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hardening {
    /// Display name for reports.
    pub name: &'static str,
    /// SEC-DED (39,33) codec on every FSL channel.
    pub ecc: bool,
    /// Triple-modular-redundant hardware peripheral.
    pub tmr: bool,
}

/// The hardening matrix swept by the `--recovery` report.
pub const HARDENINGS: [Hardening; 4] = [
    Hardening { name: "unhardened", ecc: false, tmr: false },
    Hardening { name: "ecc", ecc: true, tmr: false },
    Hardening { name: "tmr", ecc: false, tmr: true },
    Hardening { name: "ecc+tmr", ecc: true, tmr: true },
];

/// Trials per workload × hardening row in the committed report — the
/// acceptance campaign size.
pub const RECOVERY_TRIALS: usize = 200;

/// One row of the recovery matrix: a workload × hardening pair with the
/// unsupervised classification and the supervised recovery report of
/// the *same* injection plan, trial for trial.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryRow {
    /// Workload label (`"cordic"` / `"matmul"`).
    pub workload: &'static str,
    /// The hardening configuration of this row.
    pub hardening: Hardening,
    /// What the faults do without the supervisor.
    pub baseline: CampaignReport,
    /// What the supervisor turns them into.
    pub supervised: RecoveryReport,
}

impl RecoveryRow {
    /// Trials whose unsupervised outcome damages the run: SDC, deadlock
    /// or architectural fault — everything except masked.
    pub fn damaging(&self) -> usize {
        self.baseline.trials.iter().filter(|t| t.outcome != Outcome::Masked).count()
    }

    /// Damaging trials the supervisor converted to a bit-exact halt
    /// (supervised outcome `Clean` or `Recovered`).
    pub fn converted(&self) -> usize {
        self.baseline
            .trials
            .iter()
            .zip(&self.supervised.trials)
            .filter(|(b, s)| {
                b.outcome != Outcome::Masked && s.outcome != RecoveryOutcome::Unrecoverable
            })
            .count()
    }

    /// `converted / damaging`; `1.0` when no trial was damaging.
    pub fn recovery_rate(&self) -> f64 {
        let damaging = self.damaging();
        if damaging == 0 {
            return 1.0;
        }
        self.converted() as f64 / damaging as f64
    }

    /// Mean supervised work per trial relative to the golden run — the
    /// cost of checkpointing plus rollback replays, as a ratio (1.0 =
    /// no overhead).
    pub fn work_overhead(&self) -> f64 {
        let golden = self.supervised.golden_cycles.max(1) as f64;
        let n = self.supervised.trials.len().max(1) as f64;
        let work: u64 = self.supervised.trials.iter().map(|t| t.work_cycles).sum();
        work as f64 / (golden * n)
    }
}

/// The hardened CORDIC co-simulator of one matrix row.
fn cordic_sim(h: Hardening) -> CoSim {
    crate::workloads::cordic_cosim_hardened(CORDIC_ITERS, CORDIC_P, h.ecc, h.tmr)
}

/// The hardened matmul co-simulator of one matrix row.
fn matmul_sim(h: Hardening) -> CoSim {
    crate::workloads::matmul_cosim_hardened(MATMUL_N, MATMUL_NB, h.ecc, h.tmr)
}

/// Runs one matrix row: baseline classification then supervised
/// recovery, each on a fresh co-simulator over the same plan. Every
/// row of a workload sweeps the catalog's recovery plan, whose window
/// comes from the *unhardened* golden run, so all four hardenings see
/// the identical fault schedule and the conversion rates compare like
/// for like.
fn run_row(
    label: &'static str,
    workload: Workload,
    h: Hardening,
    make_sim: impl Fn() -> CoSim + Sync,
    plan: &[Injection],
) -> RecoveryRow {
    let serial = Exec::default();
    let baseline = run_design(&make_sim, workload, plan, &CampaignConfig::default(), serial);
    let supervised = run_design(&make_sim, workload, plan, &catalog::recovery_policy(), serial);
    RecoveryRow { workload: label, hardening: h, baseline, supervised }
}

/// All four hardenings of the CORDIC workload over one seeded plan.
pub fn cordic_recovery_rows(seed: u64, trials: usize) -> Vec<RecoveryRow> {
    let plan = catalog::recovery_plan(CORDIC, seed, trials as u32);
    HARDENINGS.iter().map(|&h| run_row("cordic", CORDIC, h, || cordic_sim(h), &plan)).collect()
}

/// All four hardenings of the matmul workload over one seeded plan.
pub fn matmul_recovery_rows(seed: u64, trials: usize) -> Vec<RecoveryRow> {
    let plan = catalog::recovery_plan(MATMUL, seed, trials as u32);
    HARDENINGS.iter().map(|&h| run_row("matmul", MATMUL, h, || matmul_sim(h), &plan)).collect()
}

/// The supervised fully-hardened (ecc+tmr) CORDIC campaign under
/// `exec`. Byte-identical to the corresponding serial row with the same
/// seed and trial count, at any worker count and with or without a
/// journal — the determinism check the report and CI gate on.
pub fn cordic_recovery(seed: u64, trials: usize, exec: Exec<'_>) -> RecoveryReport {
    let plan = catalog::recovery_plan(CORDIC, seed, trials as u32);
    let h = HARDENINGS[3];
    run_design(|| cordic_sim(h), CORDIC, &plan, &catalog::recovery_policy(), exec)
}

/// The full matrix of both workloads, `(cordic, matmul)`, with the
/// fully-hardened CORDIC row re-run on the default worker count.
///
/// # Panics
/// Panics if the serial and parallel supervised runs disagree anywhere.
fn checked_matrix() -> (Vec<RecoveryRow>, Vec<RecoveryRow>) {
    let cordic = cordic_recovery_rows(REPORT_SEED, RECOVERY_TRIALS);
    let matmul = matmul_recovery_rows(REPORT_SEED, RECOVERY_TRIALS);
    let exec = Exec { workers: default_workers(), ..Exec::default() };
    let par = cordic_recovery(REPORT_SEED, RECOVERY_TRIALS, exec);
    assert_eq!(
        cordic[3].supervised, par,
        "serial and parallel recovery campaigns must agree bit for bit"
    );
    (cordic, matmul)
}

/// Formats the matrix rows of one workload as an aligned table body.
fn rows_text(rows: &[RecoveryRow]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    for row in rows {
        let (m, sdc, d, f) = row.baseline.counts();
        let (clean, rec, unrec) = row.supervised.counts();
        let (lat, rep) = row.supervised.recovery_means();
        let _ = writeln!(
            s,
            "  {:<7} {:<11} {:>4}m/{:<3}s/{:<3}d/{:<3}f  {:>5}c/{:<4}r/{:<3}u  \
             {:>4}/{:<4} = {:>5.1}%  {:>7.1}  {:>8.1}  {:>5.2}x",
            row.workload,
            row.hardening.name,
            m,
            sdc,
            d,
            f,
            clean,
            rec,
            unrec,
            row.converted(),
            row.damaging(),
            100.0 * row.recovery_rate(),
            lat,
            rep,
            row.work_overhead(),
        );
    }
    s
}

/// The `--recovery` report: the full hardening matrix for both
/// workloads, with the fully-hardened CORDIC row re-run on the parallel
/// engine to prove the supervised campaign is schedule-independent.
///
/// # Panics
/// Panics if the serial and parallel supervised runs disagree anywhere.
pub fn recovery_text() -> String {
    use std::fmt::Write;
    let (cordic, matmul) = checked_matrix();

    let mut s = String::new();
    let _ = writeln!(
        s,
        "recovery benches: rollback supervisor x hardening matrix \
         (seed {REPORT_SEED:#x}, {RECOVERY_TRIALS} trials/row)"
    );
    let _ = writeln!(
        s,
        "  cordic: P={CORDIC_P}, {CORDIC_ITERS} iterations; \
         matmul: N={MATMUL_N}, NB={MATMUL_NB}; identical plan across hardenings"
    );
    let _ = writeln!(
        s,
        "  columns: unsupervised masked/sdc/deadlock/fault | supervised \
         clean/recovered/unrecoverable |"
    );
    let _ = writeln!(
        s,
        "           converted/damaging = rate | mean detection latency | \
         mean replayed cycles | work overhead"
    );
    s.push_str(&rows_text(&cordic));
    s.push_str(&rows_text(&matmul));
    s.push_str("  determinism: serial and parallel supervised sweeps agreed on every trial\n");
    s
}

/// One matrix row as a `BENCH_0005` JSON object.
fn row_json(row: &RecoveryRow) -> String {
    let (m, sdc, d, f) = row.baseline.counts();
    let (clean, rec, unrec) = row.supervised.counts();
    let (lat, rep) = row.supervised.recovery_means();
    format!(
        "{{\"workload\":\"{}\",\"hardening\":\"{}\",\"ecc\":{},\"tmr\":{},\
         \"trials\":{},\"golden_cycles\":{},\
         \"baseline\":{{\"masked\":{m},\"sdc\":{sdc},\"deadlock\":{d},\"fault\":{f}}},\
         \"supervised\":{{\"clean\":{clean},\"recovered\":{rec},\"unrecoverable\":{unrec}}},\
         \"damaging\":{},\"converted\":{},\"recovery_rate\":{},\
         \"mean_detection_latency\":{},\"mean_replayed_cycles\":{},\"work_overhead\":{}}}",
        row.workload,
        row.hardening.name,
        row.hardening.ecc,
        row.hardening.tmr,
        row.supervised.trials.len(),
        row.supervised.golden_cycles,
        row.damaging(),
        row.converted(),
        json_f64(row.recovery_rate()),
        json_f64(lat),
        json_f64(rep),
        json_f64(row.work_overhead()),
    )
}

/// The machine-readable `BENCH_0005` record as a JSON string: the full
/// hardening matrix, with the serial-vs-parallel equivalence asserted
/// before anything is emitted. Every number here is cycle-exact and
/// machine-independent — the record is byte-reproducible.
///
/// # Panics
/// Panics if the serial and parallel supervised CORDIC runs disagree.
pub fn recovery_json() -> String {
    let (cordic, matmul) = checked_matrix();
    let rows: Vec<String> = cordic.iter().chain(&matmul).map(row_json).collect();
    // No worker count in the record: the report is independent of the
    // thread pool, and CI proves it by byte-diffing this file across
    // SOFTSIM_SWEEP_WORKERS values.
    format!(
        "{{\"schema\":\"softsim-bench/1\",\"bench_id\":\"BENCH_0005\",\
         \"description\":\"rollback-recovery supervisor across FSL-ECC/TMR hardening variants\",\
         \"seed\":{REPORT_SEED},\"trials_per_row\":{RECOVERY_TRIALS},\
         \"reports_identical\":true,\
         \"rows\":[{}]}}\n",
        rows.join(","),
    )
}

/// Writes [`recovery_json`] to `path`.
pub fn write_recovery_json(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, recovery_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_the_matrix_and_classify_every_trial() {
        let rows = cordic_recovery_rows(21, 10);
        assert_eq!(rows.len(), HARDENINGS.len());
        for row in &rows {
            assert_eq!(row.baseline.trials.len(), 10);
            assert_eq!(row.supervised.trials.len(), 10);
            let (m, s, d, f) = row.baseline.counts();
            assert_eq!(m + s + d + f, 10);
            let (c, r, u) = row.supervised.counts();
            assert_eq!(c + r + u, 10);
            assert!(row.converted() <= row.damaging());
            assert!((0.0..=1.0).contains(&row.recovery_rate()));
        }
    }

    #[test]
    fn hardening_never_lowers_the_conversion_rate_floor() {
        // The fully-hardened row must convert at least as many damaging
        // trials as it leaves unrecoverable — the small-sample shadow
        // of the >= 70% acceptance gate CI applies to the full record.
        let rows = cordic_recovery_rows(REPORT_SEED, 24);
        let full = &rows[3];
        assert_eq!(full.hardening.name, "ecc+tmr");
        let (_, _, unrec) = full.supervised.counts();
        assert!(
            full.converted() >= unrec,
            "converted {} vs unrecoverable {unrec}",
            full.converted()
        );
    }

    #[test]
    fn parallel_supervised_campaign_matches_serial() {
        let rows = cordic_recovery_rows(13, 9);
        for workers in [1, 3, 8] {
            let par = cordic_recovery(13, 9, Exec { workers, ..Exec::default() });
            assert_eq!(rows[3].supervised, par, "workers={workers}");
        }
    }

    #[test]
    fn matmul_rows_run_and_are_deterministic() {
        let a = matmul_recovery_rows(17, 6);
        let b = matmul_recovery_rows(17, 6);
        assert_eq!(a, b);
        assert_eq!(a.len(), HARDENINGS.len());
    }

    #[test]
    fn row_json_is_well_formed() {
        let rows = cordic_recovery_rows(29, 4);
        let doc = softsim_trace::json::parse(&row_json(&rows[0])).expect("valid json");
        assert_eq!(doc.get("workload").unwrap().as_str().unwrap(), "cordic");
        assert_eq!(doc.get("hardening").unwrap().as_str().unwrap(), "unhardened");
        let rate = doc.get("recovery_rate").unwrap().as_f64().unwrap();
        assert!((0.0..=1.0).contains(&rate));
        for key in ["baseline", "supervised"] {
            assert!(doc.get(key).is_some(), "{key} section present");
        }
    }
}

//! Fault-injection campaigns over the paper's workloads.
//!
//! Sweeps seeded SEU and protocol faults across the CORDIC divider and
//! block-matmul co-simulations and classifies every trial (masked /
//! SDC / deadlock / fault). The campaigns are fully deterministic —
//! `tables --faults` runs the CORDIC sweep twice and asserts the two
//! reports agree bit for bit, the same check CI gates on.

use crate::workloads::{cordic_cosim, matmul_cosim};
use softsim_cosim::CoSim;
use softsim_metrics::telemetry::Telemetry;
use softsim_resilience::{run, CampaignConfig, CampaignReport, Exec, Injection, Sims, TrialKind};
use softsim_serve::catalog::{self, Workload};

/// CORDIC iterations used by the fault campaigns (Figure 5's short
/// configuration — enough cycles for a meaningful injection window).
pub const CORDIC_ITERS: u32 = 8;
/// CORDIC PE count used by the fault campaigns.
pub const CORDIC_P: usize = 2;
/// Matmul size used by the fault campaigns.
pub const MATMUL_N: usize = 4;
/// Matmul block size used by the fault campaigns.
pub const MATMUL_NB: usize = 2;

/// The catalog workload of the CORDIC campaigns.
pub(crate) const CORDIC: Workload = Workload::Cordic { iterations: CORDIC_ITERS, p: CORDIC_P };
/// The catalog workload of the matmul campaigns.
pub(crate) const MATMUL: Workload = Workload::Matmul { n: MATMUL_N, nb: MATMUL_NB };

/// Runs `kind` over `plan` under `exec`, on simulators from `make_sim`,
/// observing `workload`'s catalog window. A degraded journal's warning
/// goes to stderr; the report is the same either way.
///
/// # Panics
/// Panics on a journal error (the benches own their journal files).
pub(crate) fn run_design<K: TrialKind>(
    make_sim: impl Fn() -> CoSim + Sync,
    workload: Workload,
    plan: &[Injection],
    kind: &K,
    exec: Exec<'_>,
) -> K::Report {
    let (base, n) = catalog::observe_window(workload);
    let observe = move |s: &CoSim| catalog::observe_words(s, base, n);
    let (report, status) =
        run(Sims::Build(&make_sim), plan, &observe, kind, exec).expect("campaign journal I/O");
    if let Some(w) = &status.warning {
        eprintln!("warning: {w}");
    }
    report
}

/// Runs a seeded fault campaign over the CORDIC divider (P =
/// [`CORDIC_P`], hardware-accelerated) with `trials` injections, under
/// `config` and `exec`. The report does not depend on `exec`.
pub fn cordic_campaign(
    seed: u64,
    trials: usize,
    config: CampaignConfig,
    exec: Exec<'_>,
) -> CampaignReport {
    let plan = catalog::campaign_plan(CORDIC, seed, trials as u32);
    run_design(cordic_sim, CORDIC, &plan, &config, exec)
}

/// A fresh simulator of the CORDIC campaign design.
pub(crate) fn cordic_sim() -> CoSim {
    cordic_cosim(CORDIC_ITERS, Some(CORDIC_P))
}

pub use crate::sweep::default_workers;

/// Runs the catalog's FSL-stall-heavy CORDIC campaign
/// ([`catalog::stuck_plan`]) under `config` and `exec`.
pub fn cordic_stuck_campaign(
    trials: usize,
    config: CampaignConfig,
    exec: Exec<'_>,
) -> CampaignReport {
    run_design(cordic_sim, CORDIC, &catalog::stuck_plan(CORDIC, trials as u32), &config, exec)
}

/// Runs a seeded fault campaign over the block matmul (N =
/// [`MATMUL_N`], NB = [`MATMUL_NB`]) with `trials` injections.
pub fn matmul_campaign(seed: u64, trials: usize) -> CampaignReport {
    let plan = catalog::campaign_plan(MATMUL, seed, trials as u32);
    let make_sim = || matmul_cosim(MATMUL_N, Some(MATMUL_NB));
    run_design(make_sim, MATMUL, &plan, &CampaignConfig::default(), Exec::default())
}

/// Seed used by the `--faults` report and the CI smoke job.
pub const REPORT_SEED: u64 = 0x5EED_FA17;
/// Trials per workload in the `--faults` report.
pub const REPORT_TRIALS: usize = 120;

/// The `--faults` report: both campaigns, with the CORDIC sweep run
/// twice — once serial, once on the parallel runner — to prove both
/// injector determinism (identical seed and schedule ⇒ identical
/// classification of every trial) and that the parallel engine merges
/// to a byte-identical report.
///
/// `telemetry` instruments the parallel CORDIC sweep. The returned text
/// — and the assertion that serial and parallel reports agree bit for
/// bit — is the live proof that telemetry never touches the
/// deterministic record.
///
/// # Panics
/// Panics if the serial and parallel CORDIC runs disagree anywhere —
/// the determinism regression CI gates on.
pub fn faults_text(telemetry: Option<&Telemetry>) -> String {
    let config = CampaignConfig::default();
    let cordic_a = cordic_campaign(REPORT_SEED, REPORT_TRIALS, config, Exec::default());
    let parallel = Exec { workers: default_workers(), telemetry, journal: None };
    let cordic_b = cordic_campaign(REPORT_SEED, REPORT_TRIALS, config, parallel);
    assert_eq!(cordic_a, cordic_b, "serial and parallel campaigns must agree bit for bit");
    let matmul = matmul_campaign(REPORT_SEED, REPORT_TRIALS);
    let mut s = String::new();
    s.push_str(&cordic_a.text(&format!(
        "cordic divider, P={CORDIC_P}, {CORDIC_ITERS} iterations (seed {REPORT_SEED:#x})"
    )));
    s.push_str("  determinism: two identically-seeded sweeps agreed on every trial\n");
    s.push('\n');
    s.push_str(
        &matmul
            .text(&format!("block matmul, N={MATMUL_N}, NB={MATMUL_NB} (seed {REPORT_SEED:#x})")),
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsim_resilience::Outcome;

    /// The CORDIC campaign under the default configuration, serial.
    fn serial(seed: u64, trials: usize) -> CampaignReport {
        cordic_campaign(seed, trials, CampaignConfig::default(), Exec::default())
    }

    #[test]
    fn cordic_campaign_classifies_every_trial() {
        let report = serial(7, 24);
        assert_eq!(report.trials.len(), 24);
        for t in &report.trials {
            // Every stop maps to exactly one class; a bare CycleLimit
            // folds into Deadlock and keeps the stall context.
            let _ = t.outcome;
        }
        let (m, s, d, f) = report.counts();
        assert_eq!(m + s + d + f, 24);
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = serial(3, 12);
        let b = serial(3, 12);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_campaign_matches_serial() {
        let reference = serial(5, 16);
        for workers in [1, 3, 8] {
            let exec = Exec { workers, ..Exec::default() };
            let parallel = cordic_campaign(5, 16, CampaignConfig::default(), exec);
            assert_eq!(reference, parallel, "workers={workers}");
        }
    }

    /// The stepped reference: the campaign design with translation off,
    /// which turns the stall jump off too.
    fn stepped(plan: &[Injection]) -> CampaignReport {
        let interpreted = || {
            let mut sim = cordic_sim();
            sim.set_translation(false);
            sim
        };
        run_design(interpreted, CORDIC, plan, &CampaignConfig::default(), Exec::default())
    }

    #[test]
    fn fast_forward_off_matches_on() {
        assert_eq!(serial(9, 12), stepped(&catalog::campaign_plan(CORDIC, 9, 12)));
    }

    /// Every stuck-flag trial stalls for good, so the default build must
    /// cover each one with a single stall jump — and still report
    /// exactly what the stepped reference reports.
    #[test]
    fn stuck_campaign_jumps_every_stall_exactly() {
        let trials = REPORT_TRIALS;
        let telemetry = Telemetry::default();
        let exec = Exec { telemetry: Some(&telemetry), ..Exec::default() };
        let fast = cordic_stuck_campaign(trials, CampaignConfig::default(), exec);
        assert_eq!(stepped(&catalog::stuck_plan(CORDIC, trials as u32)), fast);
        assert_eq!(telemetry.trial_count(), trials as u64);
        assert_eq!(telemetry.ff_engagements(), trials as u64, "one jump per trial");
        let (skipped, cycles) = (telemetry.ff_skipped_cycles(), telemetry.trial_cycles());
        assert!(
            skipped * 100 >= cycles * 95,
            "jumps covered {skipped} of {cycles} trial cycles, under 95%"
        );
    }

    #[test]
    fn matmul_campaign_runs() {
        let report = matmul_campaign(11, 12);
        assert_eq!(report.trials.len(), 12);
        // The golden run must be reproduced by at least one masked or
        // classified trial set summing to the total.
        let (m, s, d, f) = report.counts();
        assert_eq!(m + s + d + f, 12);
        let _ = Outcome::Masked;
    }
}

//! Fault-injection campaigns over the paper's workloads.
//!
//! Sweeps seeded SEU and protocol faults across the CORDIC divider and
//! block-matmul co-simulations and classifies every trial (masked /
//! SDC / deadlock / fault). The campaigns are fully deterministic —
//! `tables --faults` runs the CORDIC sweep twice and asserts the two
//! reports agree bit for bit, the same check CI gates on.

use crate::workloads::{cordic_cosim, cordic_hw_image, matmul_cosim, matmul_image};
use softsim_cosim::CoSim;
use softsim_metrics::telemetry::Telemetry;
use softsim_resilience::{
    random_plan, run, CampaignConfig, CampaignReport, Exec, FaultKind, Injection, Sims, TrialKind,
};

/// CORDIC iterations used by the fault campaigns (Figure 5's short
/// configuration — enough cycles for a meaningful injection window).
pub const CORDIC_ITERS: u32 = 8;
/// CORDIC PE count used by the fault campaigns.
pub const CORDIC_P: usize = 2;
/// Matmul size used by the fault campaigns.
pub const MATMUL_N: usize = 4;
/// Matmul block size used by the fault campaigns.
pub const MATMUL_NB: usize = 2;

/// Reads `n` observable result words starting at `label` in `sim`'s
/// local memory.
pub(crate) fn observe_words(sim: &CoSim, base: u32, n: usize) -> Vec<u32> {
    (0..n).map(|i| sim.cpu().mem().read_u32(base + 4 * i as u32).unwrap()).collect()
}

/// Cycles the fault-free workload takes to halt (used to place the
/// injection window inside the live part of the run).
pub(crate) fn golden_cycles(mut sim: CoSim) -> u64 {
    let stop = sim.run(10_000_000);
    assert_eq!(stop, softsim_cosim::CoSimStop::Halted, "workload must halt: {stop}");
    sim.cpu().stats().cycles
}

/// The observable window of the CORDIC campaign image `img`: result
/// base address and word count.
fn cordic_window(img: &softsim_isa::Image) -> (u32, usize) {
    (img.symbol("z_data").expect("cordic result label"), crate::workloads::cordic_batch().len())
}

/// The CORDIC campaign's injection plan plus the observable window
/// (result base address, word count) — shared by every execution shape
/// so all sweep the identical schedule.
pub(crate) fn cordic_plan(seed: u64, trials: usize) -> (Vec<Injection>, u32, usize) {
    let img = cordic_hw_image(CORDIC_ITERS, CORDIC_P);
    let (base, n) = cordic_window(&img);
    let golden = golden_cycles(cordic_cosim(CORDIC_ITERS, Some(CORDIC_P)));
    let plan = random_plan(seed, trials, (golden / 10, golden), img.bytes().len() as u32, &[0, 1]);
    (plan, base, n)
}

/// Runs `kind` over `plan` under `exec`, on simulators from `make_sim`,
/// observing the `n` result words at `base`. A degraded journal's
/// warning goes to stderr; the report is the same either way.
///
/// # Panics
/// Panics on a journal error (the benches own their journal files).
pub(crate) fn run_design<K: TrialKind>(
    make_sim: impl Fn() -> CoSim + Sync,
    plan: &[Injection],
    (base, n): (u32, usize),
    kind: &K,
    exec: Exec<'_>,
) -> K::Report {
    let observe = move |s: &CoSim| observe_words(s, base, n);
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
    let (plan, base, n) = cordic_plan(seed, trials);
    run_design(cordic_sim, &plan, (base, n), &config, exec)
}

/// A fresh simulator of the CORDIC campaign design.
fn cordic_sim() -> CoSim {
    cordic_cosim(CORDIC_ITERS, Some(CORDIC_P))
}

pub use crate::sweep::default_workers;

/// An FSL-stall-heavy CORDIC campaign: every injection sticks a channel
/// 0 handshake flag early in the run, so (almost) every trial ends
/// blocked on an FSL transfer and burns the full watchdog threshold
/// before it is declared dead. This is the workload stall
/// fast-forwarding targets — nearly all of the serial runner's
/// wall-clock goes into stepping stalled cycles in which nothing can
/// change. The plan is a fixed deterministic stride, no RNG needed.
pub fn cordic_stuck_plan(trials: usize) -> Vec<Injection> {
    let golden = golden_cycles(cordic_cosim(CORDIC_ITERS, Some(CORDIC_P)));
    let lo = golden / 10;
    let span = (golden / 2).saturating_sub(lo).max(1);
    (0..trials)
        .map(|i| {
            let cycle = lo + (i as u64 * 7919) % span;
            let kind = if i % 2 == 0 {
                FaultKind::StuckEmpty { channel: 0 }
            } else {
                FaultKind::StuckFull { channel: 0 }
            };
            Injection { cycle, kind }
        })
        .collect()
}

/// Runs [`cordic_stuck_plan`] under `config` and `exec`.
pub fn cordic_stuck_campaign(
    trials: usize,
    config: CampaignConfig,
    exec: Exec<'_>,
) -> CampaignReport {
    let plan = cordic_stuck_plan(trials);
    let window = cordic_window(&cordic_hw_image(CORDIC_ITERS, CORDIC_P));
    run_design(cordic_sim, &plan, window, &config, exec)
}

/// Runs a seeded fault campaign over the block matmul (N =
/// [`MATMUL_N`], NB = [`MATMUL_NB`]) with `trials` injections.
pub fn matmul_campaign(seed: u64, trials: usize) -> CampaignReport {
    let img = matmul_image(MATMUL_N, Some(MATMUL_NB));
    let base = img.symbol("c_data").expect("matmul result label");
    let golden = golden_cycles(matmul_cosim(MATMUL_N, Some(MATMUL_NB)));
    let plan = random_plan(seed, trials, (golden / 10, golden), img.bytes().len() as u32, &[0, 1]);
    let window = (base, MATMUL_N * MATMUL_N);
    let make_sim = || matmul_cosim(MATMUL_N, Some(MATMUL_NB));
    run_design(make_sim, &plan, window, &CampaignConfig::default(), Exec::default())
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

    /// The stepped reference: the campaign design on the interpreted
    /// ISS, with stall fast-forwarding off.
    fn stepped(plan: &[Injection], window: (u32, usize)) -> CampaignReport {
        let interpreted = || {
            let mut sim = cordic_sim();
            sim.set_translation(false);
            sim
        };
        let config = CampaignConfig { fast_forward: false, ..CampaignConfig::default() };
        run_design(interpreted, plan, window, &config, Exec::default())
    }

    #[test]
    fn fast_forward_off_matches_on() {
        let (plan, base, n) = cordic_plan(9, 12);
        assert_eq!(serial(9, 12), stepped(&plan, (base, n)));
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
        let window = cordic_window(&cordic_hw_image(CORDIC_ITERS, CORDIC_P));
        assert_eq!(stepped(&cordic_stuck_plan(trials), window), fast);
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

//! Vacuous fault trials — an injection `Injector::apply` reports changed
//! nothing — are answered from the golden record instead of
//! re-simulated. This suite computes every trial the long way by hand,
//! from the public API only, and requires the driver's records to equal
//! them: restore the initial state, run to the injection cycle, apply,
//! arm the watchdog, run to the trial's cycle cap, classify. There is no
//! switch that turns the shortcut off; the long way lives here.
//!
//! The plans are the catalog's served campaigns (CORDIC 8 iterations,
//! P = 2, and matmul N = 4, block 2) and its stuck-flag plan. The guard
//! tests move the two limits that must keep a vacuous trial out of the
//! shortcut — a per-trial cycle budget that ends before the golden
//! halt, and a watchdog threshold that a quiet stretch of the golden run
//! reaches — and check that such trials still classify the long way.

use softsim_cosim::{CoSim, CoSimStop};
use softsim_resilience::{run, CampaignConfig, Exec, Injection, Injector, Outcome, Sims, Trial};
use softsim_serve::catalog::{self, Workload};
use std::collections::BTreeSet;

const CORDIC: Workload = Workload::Cordic { iterations: 8, p: 2 };
const MATMUL: Workload = Workload::Matmul { n: 4, nb: 2 };
const SEED: u64 = 0x5EED_FA17;
const TRIALS: u32 = 48;

/// The catalog's observables of `workload`.
fn observer(workload: Workload) -> impl Fn(&CoSim) -> Vec<u32> + Sync {
    let (base, n) = catalog::observe_window(workload);
    move |sim: &CoSim| catalog::observe_words(sim, base, n)
}

/// The golden halt cycle and observables of `workload`.
fn golden(workload: Workload) -> (u64, Vec<u32>) {
    let mut sim = catalog::build_sim(workload, false);
    assert_eq!(sim.run(10_000_000), CoSimStop::Halted);
    (sim.cpu().stats().cycles, observer(workload)(&sim))
}

/// The campaign report's trials of `plan` at `workers` workers.
fn driven(
    workload: Workload,
    plan: &[Injection],
    config: CampaignConfig,
    workers: usize,
) -> Vec<Trial> {
    let make = || catalog::build_sim(workload, false);
    let exec = Exec { workers, ..Exec::default() };
    let (report, _) = run(Sims::Build(&make), plan, &observer(workload), &config, exec).unwrap();
    report.trials
}

/// One trial the long way, on a fresh simulator, against the golden
/// halt cycle and observables `golden`.
fn long_way(
    workload: Workload,
    golden: &(u64, Vec<u32>),
    injection: Injection,
    config: CampaignConfig,
) -> Trial {
    let (golden_cycles, golden_observed) = golden;
    let mut sim = catalog::build_sim(workload, false);
    let (applied, stop, budget_cancelled) = match sim.run(injection.cycle) {
        CoSimStop::CycleLimit { .. } => {
            let applied = Injector::apply(&mut sim, injection.kind);
            sim.set_watchdog(config.watchdog_threshold);
            let now = sim.cpu().stats().cycles;
            let budget = golden_cycles * config.budget_factor + config.budget_floor;
            let cap = config.trial_cycle_budget.map_or(budget, |b| budget.min(now + b));
            let stop = sim.run(cap - now);
            (applied, stop, cap < budget)
        }
        stop => (false, stop, false),
    };
    let outcome = match &stop {
        CoSimStop::Halted if observer(workload)(&sim) == *golden_observed => Outcome::Masked,
        CoSimStop::Halted => Outcome::Sdc,
        CoSimStop::CycleLimit { .. } if budget_cancelled => Outcome::Budget,
        CoSimStop::Deadlock { .. } | CoSimStop::CycleLimit { .. } => Outcome::Deadlock,
        CoSimStop::Fault(_) => Outcome::Fault,
        CoSimStop::Breakpoint { .. } => unreachable!("no breakpoint is armed"),
    };
    Trial {
        injection,
        applied,
        stop,
        outcome,
        retries: 0,
        cpu_stats: sim.cpu().stats(),
        hw_stats: sim.hw_stats(),
    }
}

/// Checks every trial of `plan` under `config`, at 1 and 3 workers,
/// against the long way. Returns the long-way records of the vacuous
/// trials whose fault was due before the golden halt: the ones the
/// shortcut may answer.
fn check_trials(
    name: &str,
    workload: Workload,
    plan: &[Injection],
    config: CampaignConfig,
) -> Vec<Trial> {
    let golden = golden(workload);
    let want: Vec<Trial> = plan.iter().map(|&i| long_way(workload, &golden, i, config)).collect();
    for workers in [1, 3] {
        let trials = driven(workload, plan, config, workers);
        assert_eq!(trials.len(), want.len(), "{name} x{workers}");
        for (got, want) in trials.iter().zip(&want) {
            assert_eq!(got, want, "{name} x{workers}: {}", want.injection);
        }
    }
    want.into_iter().filter(|t| !t.applied && t.injection.cycle < golden.0).collect()
}

#[test]
fn vacuous_trials_equal_the_long_way() {
    let config = CampaignConfig::default();
    let cases = [
        ("cordic", CORDIC, catalog::campaign_plan(CORDIC, SEED, TRIALS)),
        ("matmul", MATMUL, catalog::campaign_plan(MATMUL, SEED, TRIALS)),
        ("cordic stuck", CORDIC, catalog::stuck_plan(CORDIC, TRIALS)),
    ];
    for (name, workload, plan) in cases {
        let due = check_trials(name, workload, &plan, config);
        if name == "cordic stuck" {
            // A stuck flag always applies: no trial of this plan may come
            // from the golden record.
            assert!(due.is_empty(), "{name}: {} vacuous trials", due.len());
            continue;
        }
        // The default threshold and budget leave every vacuous trial to
        // the shortcut, whose record is the golden run's.
        assert!(!due.is_empty(), "{name}: the plan reaches no vacuous trial");
        assert!(due.iter().all(|t| t.outcome == Outcome::Masked), "{name}");
    }
}

#[test]
fn a_cycle_budget_before_the_golden_halt_keeps_the_shortcut_out() {
    let plan = catalog::campaign_plan(CORDIC, SEED, TRIALS);
    let golden = golden(CORDIC);
    let golden_cycles = golden.0;
    let last = plan
        .iter()
        .filter(|i| i.cycle < golden_cycles)
        .rfind(|i| !long_way(CORDIC, &golden, **i, CampaignConfig::default()).applied)
        .expect("a vacuous trial")
        .cycle;
    // A budget that ends most trials before the golden halt, one that
    // ends the last vacuous trial exactly on it, and one just past it.
    let edge = golden_cycles - last;
    for budget in [golden_cycles / 20, edge, edge + 1] {
        let config = CampaignConfig { trial_cycle_budget: Some(budget), ..Default::default() };
        let due = check_trials("cordic", CORDIC, &plan, config);
        for t in &due {
            let cut = t.injection.cycle + budget < golden_cycles;
            let want = if cut { Outcome::Budget } else { Outcome::Masked };
            assert_eq!(t.outcome, want, "budget {budget}: {}", t.injection);
        }
        let cut = due.iter().filter(|t| t.outcome == Outcome::Budget).count();
        match budget {
            b if b < edge => assert!(cut > 0, "budget {b} cuts no vacuous trial"),
            b => assert!(cut < due.len(), "budget {b} lets no vacuous trial halt"),
        }
    }
}

/// The smallest watchdog threshold at which the golden run of
/// `workload` halts: one more than its longest stretch without a
/// retired instruction or a FIFO transfer.
fn quiet_threshold(workload: Workload) -> u64 {
    (1..)
        .find(|&threshold| {
            let mut sim = catalog::build_sim(workload, false);
            sim.set_watchdog(threshold);
            sim.run(10_000_000) == CoSimStop::Halted
        })
        .unwrap()
}

#[test]
fn a_watchdog_shorter_than_a_quiet_stretch_keeps_the_shortcut_out() {
    for (name, workload) in [("cordic", CORDIC), ("matmul", MATMUL)] {
        let plan = catalog::campaign_plan(workload, SEED, TRIALS);
        // Multi-cycle instructions retire nothing for a few cycles.
        let quiet = quiet_threshold(workload);
        assert!(quiet > 2, "{name}: no quiet stretch to test against");
        let thresholds: BTreeSet<u64> = [2, quiet - 1, quiet, quiet + 1].into();
        for threshold in thresholds {
            let config = CampaignConfig { watchdog_threshold: threshold, ..Default::default() };
            let due = check_trials(name, workload, &plan, config);
            assert!(!due.is_empty(), "{name}");
            let deadlocked = due.iter().filter(|t| t.outcome == Outcome::Deadlock).count();
            if threshold < quiet {
                assert!(deadlocked > 0, "{name}: threshold {threshold} deadlocks no vacuous trial");
            } else {
                assert_eq!(deadlocked, 0, "{name}: threshold {threshold}");
            }
        }
    }
}

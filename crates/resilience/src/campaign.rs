//! The fault-campaign runner.
//!
//! A campaign replays a co-simulation once fault-free (the *golden* run)
//! and then once per scheduled injection. The golden run keeps a small
//! ladder of checkpoints at quantiles of the plan's injection cycles (rung
//! 0 is the initial state); each trial restores the last rung at or before
//! its injection cycle and runs only the rest of the fault-free prefix.
//! `run(a)` then `run(b)` leaves the state `run(a + b)` does, so a trial
//! started from a rung is byte-identical to one restored from the initial
//! state and re-simulated from there. Rungs store only the memory chunks
//! that differ from rung 0 (see [`softsim_cosim::StateDelta`]).
//!
//! A *vacuous* injection — one [`Injector::apply`] reports changed
//! nothing, such as a bit flip aimed at an empty FIFO — leaves the golden
//! state at its injection cycle, so its continuation is the golden run.
//! Such a trial is answered from the golden record (halted, masked, the
//! golden final statistics) instead of re-simulated, whenever nothing in
//! the trial could stop that continuation first: the golden halt comes
//! before the trial's cycle cap, the watchdog never fired in the golden
//! run, and no wall-clock budget is armed. Outcomes
//! follow the standard SEU classification: *masked* (program halts with the
//! golden observables), *SDC* (silent data corruption — halts with
//! different observables), *deadlock* (the liveness watchdog fired, or the
//! padded cycle budget expired), and *fault* (the processor trapped).
//!
//! Two further outcomes make long campaigns robust rather than brittle:
//! *budget* (an explicit per-trial cycle or wall-clock budget cancelled
//! a runaway trial — graceful degradation instead of an unbounded run)
//! and *harness-error* (the harness itself panicked inside the trial;
//! the panic is caught, retried once, and recorded — one bad trial can
//! no longer poison a campaign or tear down a worker thread).
//!
//! [`CampaignConfig`] is the fault-classification [`crate::TrialKind`]:
//! [`crate::run`] drives it at any worker count, with telemetry and an
//! optional journal; [`run_campaign`] is the serial shorthand.

use crate::codec::{put_bool, put_u64, put_u8};
use crate::driver::{drive, Exec, Kind};
use crate::durable::{decode_all, get_trial, put_trial, JournalError, KIND_CAMPAIGN};
use crate::inject::{Injection, Injector};
use softsim_cosim::{CoSim, CoSimState, CoSimStop, HwStats, StateDelta};
use softsim_iss::CpuStats;
use softsim_metrics::telemetry::SpanRecord;
use std::time::{Duration, Instant};

/// SEU outcome classification of one fault-injection trial.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Outcome {
    /// The program halted and the observed results match the golden run.
    Masked,
    /// Silent data corruption: halted, but the observables differ.
    Sdc,
    /// The watchdog detected a deadlock or livelock, or the padded cycle
    /// budget expired (classified together — the stored stop keeps the
    /// precise cause, including which FSL the processor was stuck on).
    Deadlock,
    /// The processor raised an architectural fault.
    Fault,
    /// An explicit per-trial budget — [`CampaignConfig::trial_cycle_budget`]
    /// or [`CampaignConfig::trial_wall_budget`] — cancelled the trial
    /// before the padded campaign budget would have. The design was
    /// still running; the harness chose to stop it.
    Budget,
    /// The harness itself panicked while running the trial (not the
    /// design under test — the simulated program trapping is
    /// [`Outcome::Fault`]). The panic was caught, the harness retry
    /// panicked too, and the trial was abandoned; sibling trials are
    /// unaffected.
    HarnessError {
        /// The panic payload, when it was a string (the common case).
        panic_msg: String,
    },
}

impl Outcome {
    /// Short lower-case label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Masked => "masked",
            Outcome::Sdc => "sdc",
            Outcome::Deadlock => "deadlock",
            Outcome::Fault => "fault",
            Outcome::Budget => "budget",
            Outcome::HarnessError { .. } => "harness-error",
        }
    }
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The record of one injection trial.
#[derive(Debug, Clone, PartialEq)]
pub struct Trial {
    /// The scheduled fault.
    pub injection: Injection,
    /// Whether the fault actually changed state. A vacuous hit (r0, an
    /// empty FIFO slot, an address past memory) leaves the golden state,
    /// so the trial is the golden run: it is answered from the golden
    /// record as masked, with the golden final statistics, unless its
    /// cycle cap, the watchdog or a wall-clock budget could end it first,
    /// in which case it runs and classifies like any other trial.
    pub applied: bool,
    /// How the run ended.
    pub stop: CoSimStop,
    /// Outcome classification.
    pub outcome: Outcome,
    /// Harness retries this trial consumed (0 for the normal
    /// first-attempt success; panicking trials count every retry
    /// whether or not one eventually succeeded).
    pub retries: u32,
    /// Processor statistics at the end of the trial.
    pub cpu_stats: CpuStats,
    /// Hardware statistics at the end of the trial.
    pub hw_stats: HwStats,
}

/// Campaign tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Liveness-watchdog threshold armed for every trial (cycles with no
    /// retired instruction and no FIFO traffic).
    pub watchdog_threshold: u64,
    /// Trial cycle budget = `golden_cycles * budget_factor +
    /// budget_floor`. The padding guarantees a fault can only exceed the
    /// budget by stopping progress, which the watchdog reports first —
    /// so trials never end in an ambiguous bare `CycleLimit`.
    pub budget_factor: u64,
    /// Additive part of the trial cycle budget.
    pub budget_floor: u64,
    /// Ignored. A campaign runs its golden pass and trials on whatever
    /// path its simulators were built with (see
    /// [`CoSim::set_translation`], which governs the stall jump with the
    /// other fast paths). The field remains only because the benchmark
    /// package (`cosimbench`) still sets it, and goes when that package
    /// moves off it (ROADMAP item 1). The plan hash records a constant in
    /// its place, so hashes and journals do not depend on it.
    pub fast_forward: bool,
    /// Explicit per-trial cycle budget, counted from the injection
    /// point. A trial still running this many cycles after its fault
    /// was applied is cancelled and classified [`Outcome::Budget`]
    /// (deterministically — the cap composes with the watchdog and the
    /// padded budget, whichever fires first wins). `None` (the default)
    /// keeps the legacy behavior: only the padded budget bounds a
    /// trial, and its expiry still classifies as [`Outcome::Deadlock`].
    pub trial_cycle_budget: Option<u64>,
    /// Wall-clock budget per trial, measured from the injection point.
    /// Runaway trials are cancelled into [`Outcome::Budget`] at the
    /// next execution-slice boundary. Inherently machine-dependent —
    /// leave `None` (the default) for byte-reproducible reports; the
    /// deterministic alternative is [`CampaignConfig::trial_cycle_budget`].
    pub trial_wall_budget: Option<Duration>,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            watchdog_threshold: 10_000,
            budget_factor: 4,
            budget_floor: 50_000,
            fast_forward: true,
            trial_cycle_budget: None,
            trial_wall_budget: None,
        }
    }
}

/// Coverage accounting of a campaign — the honest-partial-results view
/// a durable (resumable) run reports. Derived entirely from the trial
/// records, so a resumed report and an uninterrupted one always agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Coverage {
    /// Trials with a design classification (masked / SDC / deadlock /
    /// fault).
    pub completed: usize,
    /// Trials an explicit cycle or wall-clock budget cancelled.
    pub budget: usize,
    /// Trials abandoned after harness panics exhausted their retries.
    pub abandoned: usize,
    /// Trials that consumed at least one harness retry (whatever their
    /// final outcome).
    pub retried: usize,
    /// Total harness retry attempts consumed across all trials (a
    /// trial retried twice contributes 2 here but 1 to `retried`).
    /// Deterministic — the wall-clock cost of those retries is
    /// telemetry, not report data (see `softsim_metrics::telemetry`).
    pub retry_attempts: usize,
}

/// The result of a whole campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Cycles the golden (fault-free) run took to halt.
    pub golden_cycles: u64,
    /// Observables of the golden run.
    pub golden_observed: Vec<u32>,
    /// One record per scheduled injection, schedule order.
    pub trials: Vec<Trial>,
}

impl CampaignReport {
    /// Trial counts as `(masked, sdc, deadlock, fault)` — the four SEU
    /// design classes. Harness-side outcomes ([`Outcome::Budget`],
    /// [`Outcome::HarnessError`]) are not design classes and are
    /// reported by [`CampaignReport::coverage`] instead.
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for t in &self.trials {
            match t.outcome {
                Outcome::Masked => c.0 += 1,
                Outcome::Sdc => c.1 += 1,
                Outcome::Deadlock => c.2 += 1,
                Outcome::Fault => c.3 += 1,
                Outcome::Budget | Outcome::HarnessError { .. } => {}
            }
        }
        c
    }

    /// Completed / budget-cancelled / abandoned / retried accounting.
    pub fn coverage(&self) -> Coverage {
        let mut c = Coverage::default();
        for t in &self.trials {
            match t.outcome {
                Outcome::Budget => c.budget += 1,
                Outcome::HarnessError { .. } => c.abandoned += 1,
                _ => c.completed += 1,
            }
            if t.retries > 0 {
                c.retried += 1;
            }
            c.retry_attempts += t.retries as usize;
        }
        c
    }

    /// Plain-text summary table of the campaign.
    pub fn text(&self, title: &str) -> String {
        use std::fmt::Write;
        let (masked, sdc, deadlock, fault) = self.counts();
        let cov = self.coverage();
        let total = self.trials.len().max(1);
        let pct = |n: usize| 100.0 * n as f64 / total as f64;
        let mut s = String::new();
        let _ = writeln!(s, "fault campaign: {title}");
        let _ = writeln!(
            s,
            "  golden run: {} cycles, {} result words",
            self.golden_cycles,
            self.golden_observed.len()
        );
        let _ = writeln!(s, "  trials: {}", self.trials.len());
        let _ = writeln!(s, "    masked:   {masked:5}  ({:5.1}%)", pct(masked));
        let _ = writeln!(s, "    sdc:      {sdc:5}  ({:5.1}%)", pct(sdc));
        let _ = writeln!(s, "    deadlock: {deadlock:5}  ({:5.1}%)", pct(deadlock));
        let _ = writeln!(s, "    fault:    {fault:5}  ({:5.1}%)", pct(fault));
        if cov.budget > 0 {
            let _ = writeln!(s, "    budget:   {:5}  ({:5.1}%)", cov.budget, pct(cov.budget));
        }
        if cov.abandoned > 0 {
            let _ = writeln!(s, "    harness:  {:5}  ({:5.1}%)", cov.abandoned, pct(cov.abandoned));
        }
        let _ = writeln!(
            s,
            "  coverage: {} completed, {} budget-cancelled, {} abandoned, {} retried ({} retry attempts)",
            cov.completed, cov.budget, cov.abandoned, cov.retried, cov.retry_attempts
        );
        s
    }
}

/// Runs a fault-injection campaign serially on `sim`: [`crate::run`]
/// with [`crate::Sims::Borrowed`] and no telemetry or journal.
///
/// `sim` is the system under test, positioned at its initial state (it
/// is checkpointed immediately, and left in that state on return).
/// `observe` extracts the workload's observable result words from a
/// finished run — typically the output buffer in local memory. Each
/// trial restores the last golden checkpoint at or before its injection
/// cycle, steps to that cycle, applies the fault, arms the watchdog and
/// runs under the padded budget; the report is byte-identical to any
/// other execution shape's.
///
/// # Panics
/// Panics if the golden run does not halt within the configured budget
/// floor times the factor (the workload must terminate fault-free).
pub fn run_campaign(
    sim: &mut CoSim,
    plan: &[Injection],
    observe: impl Fn(&CoSim) -> Vec<u32>,
    config: CampaignConfig,
) -> CampaignReport {
    let (report, _) = drive(sim, None, plan, &observe, &config, Exec::default())
        .expect("a run without a journal has no journal to fail");
    report
}

/// Most golden checkpoints a campaign keeps besides the initial state.
/// A constant, not a knob: the ladder costs at most this many
/// non-memory snapshots plus their memory patches, whatever the plan.
const LADDER_RUNGS: usize = 8;

/// Up to [`LADDER_RUNGS`] rung cycles for `plan`: quantiles of its
/// sorted, distinct injection cycles strictly between `start` (rung 0)
/// and `end` (where the golden budget runs out). The smallest
/// injection cycle is always a rung, so no trial re-runs the prefix
/// that every trial shares.
fn rung_cycles(plan: &[Injection], start: u64, end: u64) -> Vec<u64> {
    let mut cycles: Vec<u64> =
        plan.iter().map(|i| i.cycle).filter(|&c| c > start && c < end).collect();
    cycles.sort_unstable();
    cycles.dedup();
    let n = cycles.len();
    if n <= LADDER_RUNGS {
        return cycles;
    }
    (0..LADDER_RUNGS).map(|j| cycles[j * n / LADDER_RUNGS]).collect()
}

/// Everything trials share: the golden run's cycle count, observables
/// and final statistics, the padded per-trial budget derived from them,
/// and the checkpoint ladder trials start from. Rung 0 of the ladder is the
/// initial state; the others are golden states at up to eight of the
/// plan's injection cycles. Every rung is a
/// [`StateDelta`] against the initial state, so the ladder holds one
/// full memory image however many rungs it has. This is the golden
/// reference of the [`CampaignConfig`] trial kind.
pub struct Golden {
    /// Cycle counter at which the golden run halted.
    pub cycles: u64,
    /// Observables of the golden run.
    pub observed: Vec<u32>,
    /// Padded absolute-cycle budget of every trial.
    pub budget: u64,
    /// The campaign's initial state (rung 0, in full).
    pub initial: CoSimState,
    /// `(cycle counter, state)` per rung, ascending; `rungs[0]` is the
    /// initial state with an empty patch.
    rungs: Vec<(u64, StateDelta)>,
    /// Processor statistics at the golden halt.
    cpu_stats: CpuStats,
    /// Hardware statistics at the golden halt.
    hw_stats: HwStats,
    /// The golden run reached its halt without the watchdog, armed at
    /// the campaign's threshold, firing: no stretch of it goes that long
    /// without progress.
    quiet: bool,
}

impl Golden {
    /// Cycle counter of the initial state.
    pub fn initial_cycles(&self) -> u64 {
        self.rungs[0].0
    }

    /// Restores the last rung at or before `cycle` — rung 0 for a cycle
    /// at or before the initial state's.
    fn restore(&self, sim: &mut CoSim, cycle: u64) {
        let k = self.rungs.partition_point(|(c, _)| *c <= cycle).saturating_sub(1);
        sim.load_state_delta(&self.initial, &self.rungs[k].1);
    }
}

/// The golden (fault-free) reference run from `sim`'s current state.
/// The run is split into segments ending at [`rung_cycles`] of `plan`,
/// keeping a ladder rung after each; `run(a)` followed by `run(b)` leaves the state
/// `run(a + b)` does, so segmenting changes nothing the run computes.
/// The watchdog runs along at the campaign's threshold only to learn
/// whether the run is quiet (see [`Golden`]): if it fires, the run
/// clears it and carries on with the same segment. Leaves `sim` halted
/// at the end of the golden run, with no watchdog armed.
///
/// # Panics
/// Panics if the run does not halt within the budget floor times the
/// factor.
fn golden_run(
    sim: &mut CoSim,
    plan: &[Injection],
    observe: &dyn Fn(&CoSim) -> Vec<u32>,
    config: CampaignConfig,
) -> Golden {
    let initial = sim.save_state();
    let start = initial.cpu.stats.cycles;
    let end = start.saturating_add(config.budget_floor * config.budget_factor.max(1));
    let mut rungs = vec![(start, sim.save_state_delta(&initial))];
    sim.set_watchdog(config.watchdog_threshold);
    let mut quiet = true;
    // Runs to the absolute cycle `to`, taking a watchdog stop as the
    // end of quietness rather than of the segment.
    let mut run_to = |sim: &mut CoSim, to: u64| loop {
        match sim.run(to - sim.cpu().stats().cycles) {
            CoSimStop::Deadlock { .. } if quiet => {
                quiet = false;
                sim.clear_watchdog();
            }
            stop => return stop,
        }
    };
    let mut early_stop = None;
    for c in rung_cycles(plan, start, end) {
        let stop = run_to(sim, c);
        if !matches!(stop, CoSimStop::CycleLimit { .. }) || sim.cpu().stats().cycles != c {
            early_stop = Some(stop);
            break;
        }
        rungs.push((c, sim.save_state_delta(&initial)));
    }
    let stop = early_stop.unwrap_or_else(|| run_to(sim, end));
    sim.clear_watchdog();
    assert_eq!(stop, CoSimStop::Halted, "golden run must halt, got: {stop}");
    let cycles = sim.cpu().stats().cycles;
    Golden {
        cycles,
        observed: observe(sim),
        budget: cycles * config.budget_factor + config.budget_floor,
        initial,
        rungs,
        cpu_stats: sim.cpu().stats(),
        hw_stats: sim.hw_stats(),
        quiet,
    }
}

/// Execution-slice width (cycles) used when a wall-clock deadline is
/// armed: the deadline is checked between slices, so a runaway trial is
/// cancelled within one slice of the deadline. Slicing is invisible to
/// the simulation (`run(a)` then `run(b)` is bit-identical to
/// `run(a + b)`), so arming a wall budget never changes what a trial
/// that finishes in time computes.
const WALL_SLICE: u64 = 16_384;

/// One injection trial, the procedure every run shares: restore the
/// last golden rung at or before the injection cycle, run the rest of
/// the fault-free prefix (at most one rung gap; a fault before the
/// initial cycle gets none), apply the fault, arm the watchdog, run
/// under the padded budget — tightened by the explicit per-trial
/// budgets when configured — and classify.
///
/// A fault that did not apply leaves the golden state, so the rest of
/// the trial would re-run the golden continuation. When nothing can cut
/// that continuation short — the golden halt is strictly before the
/// cycle cap, the golden run is quiet, and there is no wall budget —
/// the golden record answers the trial instead (see the module docs).
fn run_trial(
    sim: &mut CoSim,
    golden: &Golden,
    injection: Injection,
    observe: &dyn Fn(&CoSim) -> Vec<u32>,
    config: CampaignConfig,
) -> Trial {
    golden.restore(sim, injection.cycle);
    // The pre-injection prefix must replay the golden prefix exactly, so
    // no watchdog (the previous trial's stays armed across restore) and
    // a budget that stops precisely at the injection cycle.
    sim.clear_watchdog();
    let pre_budget = injection.cycle.saturating_sub(sim.cpu().stats().cycles);
    let early_stop = match sim.run(pre_budget) {
        CoSimStop::CycleLimit { .. } => None,
        stop => Some(stop),
    };
    let (applied, stop, budget_cancelled) = match early_stop {
        Some(stop) => (false, stop, false),
        None => {
            let applied = Injector::apply(sim, injection.kind);
            // Absolute-cycle cap: the padded campaign budget, tightened
            // by the explicit per-trial budget counted from injection.
            let budget = golden.budget;
            let cap = match config.trial_cycle_budget {
                Some(tcb) => budget.min(sim.cpu().stats().cycles.saturating_add(tcb)),
                None => budget,
            };
            if !applied && golden.cycles < cap && golden.quiet && config.trial_wall_budget.is_none()
            {
                return Trial {
                    injection,
                    applied,
                    stop: CoSimStop::Halted,
                    outcome: Outcome::Masked,
                    retries: 0,
                    cpu_stats: golden.cpu_stats,
                    hw_stats: golden.hw_stats,
                };
            }
            sim.set_watchdog(config.watchdog_threshold);
            let deadline = config.trial_wall_budget.map(|d| Instant::now() + d);
            let (stop, cancelled) = run_capped(sim, cap, cap < budget, deadline);
            (applied, stop, cancelled)
        }
    };
    let outcome = classify(sim, &stop, observe, &golden.observed, budget_cancelled);
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

/// Classifies a trial that stopped with `stop`: a halt is masked or
/// silent corruption by the observables, a budget cancellation is a
/// budget hit, and every other stop that is not a fault — a diagnosed
/// deadlock, the padded budget, or a breakpoint (trials arm none) — did
/// not finish.
pub(crate) fn classify(
    sim: &CoSim,
    stop: &CoSimStop,
    observe: &dyn Fn(&CoSim) -> Vec<u32>,
    golden_observed: &[u32],
    budget_cancelled: bool,
) -> Outcome {
    match stop {
        CoSimStop::Halted if observe(sim) == golden_observed => Outcome::Masked,
        CoSimStop::Halted => Outcome::Sdc,
        CoSimStop::CycleLimit { .. } if budget_cancelled => Outcome::Budget,
        CoSimStop::Deadlock { .. }
        | CoSimStop::CycleLimit { .. }
        | CoSimStop::Breakpoint { .. } => Outcome::Deadlock,
        CoSimStop::Fault(_) => Outcome::Fault,
    }
}

/// Runs `sim` to the absolute cycle `cap`, checking an optional
/// wall-clock `deadline` between [`WALL_SLICE`]-cycle slices. Returns
/// the stop plus whether an explicit budget (cycle cap tighter than the
/// padded campaign budget, flagged by `cap_is_trial_budget`, or the
/// wall deadline) cancelled the run.
fn run_capped(
    sim: &mut CoSim,
    cap: u64,
    cap_is_trial_budget: bool,
    deadline: Option<Instant>,
) -> (CoSimStop, bool) {
    loop {
        // The deadline is checked before each slice as well as after it,
        // so a trial whose wall budget has already expired — including
        // one about to fast-forward a stall the watchdog would later
        // diagnose — is cancelled as a budget hit at the slice boundary.
        // A stop the simulator reaches *inside* a slice (halt, diagnosed
        // deadlock, fault) still wins over a deadline that expires
        // during that same slice.
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return (CoSimStop::CycleLimit { blocked: None }, true);
        }
        let now = sim.cpu().stats().cycles;
        if now >= cap {
            return (CoSimStop::CycleLimit { blocked: None }, cap_is_trial_budget);
        }
        let slice = match deadline {
            Some(_) => (cap - now).min(WALL_SLICE),
            None => cap - now,
        };
        match sim.run(slice) {
            CoSimStop::CycleLimit { blocked } => {
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    return (CoSimStop::CycleLimit { blocked }, true);
                }
                if sim.cpu().stats().cycles >= cap {
                    return (CoSimStop::CycleLimit { blocked }, cap_is_trial_budget);
                }
            }
            stop => return (stop, false),
        }
    }
}

impl Kind for CampaignConfig {
    type Golden = Golden;
    type Trial = Trial;
    type Report = CampaignReport;
    const JOURNAL_KIND: u8 = KIND_CAMPAIGN;

    fn golden(
        &self,
        sim: &mut CoSim,
        plan: &[Injection],
        observe: &dyn Fn(&CoSim) -> Vec<u32>,
    ) -> Golden {
        golden_run(sim, plan, observe, *self)
    }

    fn initial(golden: &Golden) -> &CoSimState {
        &golden.initial
    }

    fn golden_span_cycles(golden: &Golden) -> u64 {
        golden.cycles.saturating_sub(golden.initial_cycles())
    }

    fn golden_result(golden: &Golden) -> (u64, &[u32]) {
        (golden.cycles, &golden.observed)
    }

    fn trial(
        &self,
        sim: &mut CoSim,
        golden: &Golden,
        injection: Injection,
        observe: &dyn Fn(&CoSim) -> Vec<u32>,
        attempt: u32,
    ) -> Trial {
        Trial { retries: attempt, ..run_trial(sim, golden, injection, observe, *self) }
    }

    fn abandoned(injection: Injection, panic_msg: String, retries: u32) -> Trial {
        Trial {
            injection,
            applied: false,
            stop: CoSimStop::CycleLimit { blocked: None },
            outcome: Outcome::HarnessError { panic_msg },
            retries,
            cpu_stats: CpuStats::default(),
            hw_stats: HwStats::default(),
        }
    }

    /// A trial span's `sim_cycles` is "end counter − initial counter":
    /// the cycles the trial *covers* from the initial state, matching the
    /// report, not the cycles it executed after starting from a later
    /// golden checkpoint.
    fn trial_span(golden: &Golden, trial: &Trial, retry_wall: Duration, rec: &mut SpanRecord) {
        rec.sim_cycles = trial.cpu_stats.cycles.saturating_sub(golden.initial_cycles());
        rec.retries = trial.retries as u64;
        rec.retry_wall = if trial.retries > 0 { retry_wall } else { Duration::ZERO };
        rec.budget_cancelled = matches!(trial.outcome, Outcome::Budget) as u64;
        rec.abandoned = matches!(trial.outcome, Outcome::HarnessError { .. }) as u64;
    }

    /// The wall-clock budget is machine-local tuning, not part of what
    /// the campaign computes, so it stays out of the hash.
    fn hash_config(&self, out: &mut Vec<u8>) {
        put_u64(out, self.watchdog_threshold);
        put_u64(out, self.budget_factor);
        put_u64(out, self.budget_floor);
        // Where the ignored fast-forward flag went: its default, so
        // plan hashes and journals of default campaigns stay valid.
        put_bool(out, true);
        match self.trial_cycle_budget {
            None => put_u8(out, 0),
            Some(v) => {
                put_u8(out, 1);
                put_u64(out, v);
            }
        }
    }

    fn encode(trial: &Trial, out: &mut Vec<u8>) {
        put_trial(out, trial);
    }

    fn decode(body: &[u8]) -> Result<Trial, JournalError> {
        decode_all(body, get_trial)
    }

    fn report(golden: Golden, trials: Vec<Trial>) -> CampaignReport {
        CampaignReport { golden_cycles: golden.cycles, golden_observed: golden.observed, trials }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::random_plan_hardware;
    use softsim_apps::cordic::reference::to_fix;
    use softsim_apps::cordic::software::{hw_program, CordicBatch};
    use softsim_apps::matmul::reference::Matrix;
    use softsim_isa::asm::assemble;

    /// The catalog's CORDIC (8 iterations, P = 2) and matmul (N = 4,
    /// block 2) designs.
    fn designs() -> Vec<CoSim> {
        let batch = CordicBatch::new(&[(to_fix(1.5), to_fix(1.2)), (to_fix(2.0), to_fix(-1.0))]);
        let cordic = assemble(&hw_program(&batch, 8, 2)).unwrap();
        let (a, b) = (Matrix::test_pattern(4, 7), Matrix::test_pattern(4, 8));
        let matmul = assemble(&softsim_apps::matmul::software::hw_program(&a, &b, 2)).unwrap();
        vec![
            CoSim::with_peripheral(&cordic, softsim_apps::cordic::hardware::cordic_peripheral(2)),
            CoSim::with_peripheral(&matmul, softsim_apps::matmul::hardware::matmul_peripheral(2)),
        ]
    }

    /// A 10,000-trial plan over `sim`'s golden run.
    fn hostile_plan(sim: &mut CoSim) -> Vec<Injection> {
        let initial = sim.save_state();
        assert_eq!(sim.run(1_000_000), CoSimStop::Halted);
        let end = sim.cpu().stats().cycles;
        sim.load_state(&initial);
        random_plan_hardware(11, 10_000, (0, end), 4096, &[0, 1])
    }

    #[test]
    fn a_hostile_plan_cannot_grow_the_ladder() {
        for mut sim in designs() {
            let plan = hostile_plan(&mut sim);
            let config = CampaignConfig::default();
            let golden = golden_run(&mut sim, &plan, &|_| Vec::new(), config);
            let rungs = &golden.rungs;
            assert_eq!(rungs.len(), LADDER_RUNGS + 1);
            let patch_bytes: usize = rungs.iter().map(|(_, r)| r.patch_bytes()).sum();
            assert!(patch_bytes <= 4096, "{patch_bytes} patch bytes");
        }
    }

    #[test]
    fn every_rung_restores_the_golden_state_at_its_cycle() {
        for mut sim in designs() {
            let plan = hostile_plan(&mut sim);
            let config = CampaignConfig::default();
            let golden = golden_run(&mut sim, &plan, &|_| Vec::new(), config);
            for (cycle, _) in &golden.rungs {
                sim.load_state(&golden.initial);
                sim.run(cycle - golden.initial_cycles());
                let want = sim.save_state();
                golden.restore(&mut sim, *cycle);
                assert_eq!(sim.save_state(), want, "rung at {cycle}");
            }
        }
    }
}

//! Divergence localization for fault-campaign trials.
//!
//! The campaign runner says *that* a trial silently corrupted its
//! output; this module says *where*: it re-runs the golden reference
//! and the trial fully instrumented (a [`MetricsCollector`] for the
//! cycle-windowed series, a [`Recorder`] for the raw timeline) and
//! hands both to [`MetricsDiff`], which reports the first cycle window
//! and the first architectural event — register writeback, FIFO word,
//! gateway word, block output — at which the trial departs from the
//! golden run. For a register-file upset the first diverging event *is*
//! the corrupted writeback the injector performed, so the report pins
//! the fault to its injection cycle.

use crate::campaign::{classify, CampaignConfig, Outcome};
use crate::inject::{Injection, Injector};
use softsim_cosim::{CoSim, CoSimState, CoSimStop};
use softsim_metrics::{Divergence, MetricsCollector, MetricsDiff, RunRecord};
use softsim_trace::{shared, Fanout, Recorder};
use std::cell::RefCell;
use std::rc::Rc;

/// Instrumentation knobs for divergence localization.
#[derive(Debug, Clone, Copy)]
pub struct LocalizeConfig {
    /// Metrics window width in cycles.
    pub window_cycles: u64,
    /// Bounded recorder capacity per run. Runs that overflow it still
    /// localize, but the report is flagged lossy (see
    /// [`Divergence::lossy`]).
    pub recorder_capacity: usize,
    /// Watchdog / cycle-budget settings, shared with the campaign.
    pub campaign: CampaignConfig,
}

impl Default for LocalizeConfig {
    fn default() -> LocalizeConfig {
        LocalizeConfig {
            window_cycles: 256,
            recorder_capacity: 1 << 16,
            campaign: CampaignConfig::default(),
        }
    }
}

/// The instrumented golden reference a set of trials diffs against.
pub struct GoldenRun {
    /// Checkpoint of the initial state every run restores from.
    pub initial: CoSimState,
    /// Windowed series, event timeline and drop count of the golden run.
    pub record: RunRecord,
    /// Observable result words of the golden run.
    pub observed: Vec<u32>,
    /// Cycles the golden run took to halt.
    pub cycles: u64,
}

/// One localized trial: the campaign's classification plus where and
/// what first diverged.
#[derive(Debug, Clone)]
pub struct DivergenceReport {
    /// The fault this trial applied.
    pub injection: Injection,
    /// Whether the fault actually changed state.
    pub applied: bool,
    /// How the trial ended.
    pub stop: CoSimStop,
    /// The campaign outcome classification.
    pub outcome: Outcome,
    /// Where the trial departed from the golden run.
    pub divergence: Divergence,
}

impl DivergenceReport {
    /// Multi-line report text.
    pub fn text(&self) -> String {
        format!(
            "trial: {} @ cycle {} → {}\n{}",
            self.injection.kind,
            self.injection.cycle,
            self.outcome,
            self.divergence.text()
        )
    }
}

/// Runs `sim` (instrumented) from its current state to completion and
/// captures the golden reference. The initial state is checkpointed
/// first, and restored again afterwards, so trials can follow.
///
/// # Panics
/// Panics if the golden run does not halt within the configured budget
/// (the workload must terminate fault-free).
pub fn capture_golden(
    sim: &mut CoSim,
    observe: impl Fn(&CoSim) -> Vec<u32>,
    config: &LocalizeConfig,
) -> GoldenRun {
    let initial = sim.save_state();
    let budget = config.campaign.budget_floor * config.campaign.budget_factor.max(1);
    let (record, stop) = instrumented_run(sim, config, |sim| sim.run(budget));
    assert_eq!(stop, CoSimStop::Halted, "golden run must halt, got: {stop}");
    let cycles = sim.cpu().stats().cycles;
    let observed = observe(sim);
    let golden = GoldenRun { initial, record, observed, cycles };
    sim.load_state(&golden.initial);
    golden
}

/// Restores `sim` to the golden initial state, runs to the injection
/// cycle, applies the fault, runs the trial instrumented and localizes
/// its divergence against the golden record.
pub fn localize_trial(
    sim: &mut CoSim,
    golden: &GoldenRun,
    injection: Injection,
    observe: impl Fn(&CoSim) -> Vec<u32>,
    config: &LocalizeConfig,
) -> DivergenceReport {
    sim.load_state(&golden.initial);
    let budget = golden.cycles * config.campaign.budget_factor + config.campaign.budget_floor;
    let watchdog = config.campaign.watchdog_threshold;
    let mut applied = false;
    let (record, stop) = instrumented_run(sim, config, |sim| {
        // The pre-injection prefix runs instrumented too: both streams
        // must cover the whole run for the diff to align from cycle 0.
        // As in a campaign trial, an earlier trial's watchdog must not
        // fire in it.
        sim.clear_watchdog();
        match sim.run(injection.cycle.saturating_sub(sim.cpu().stats().cycles)) {
            CoSimStop::CycleLimit { .. } => {}
            stop => return stop,
        }
        applied = Injector::apply(sim, injection.kind);
        sim.set_watchdog(watchdog);
        sim.run(budget - sim.cpu().stats().cycles.min(budget))
    });
    let outcome = classify(sim, &stop, &observe, &golden.observed, false);
    let divergence = MetricsDiff::diff(&golden.record, &record);
    DivergenceReport { injection, applied, stop, outcome, divergence }
}

/// Attaches a fresh collector + recorder pair to `sim`, runs `body`,
/// and packages the instrumentation into a [`RunRecord`].
fn instrumented_run(
    sim: &mut CoSim,
    config: &LocalizeConfig,
    body: impl FnOnce(&mut CoSim) -> CoSimStop,
) -> (RunRecord, CoSimStop) {
    let collector = Rc::new(RefCell::new(MetricsCollector::new(config.window_cycles)));
    let recorder = Rc::new(RefCell::new(Recorder::new(config.recorder_capacity)));
    let fanout = Fanout::new().with(shared(collector.clone())).with(shared(recorder.clone()));
    sim.attach_trace(shared(Rc::new(RefCell::new(fanout))));
    let stop = body(sim);
    let dropped = recorder.borrow().dropped();
    let events = recorder.borrow().events();
    let mut collector = collector.borrow_mut();
    collector.finish(sim.cpu().stats().cycles);
    collector.set_dropped_events(dropped);
    let record = RunRecord { series: collector.series(), events, dropped_events: dropped };
    (record, stop)
}

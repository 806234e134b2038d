//! The rollback-recovery supervisor — closing the fault loop.
//!
//! The campaign runner ([`crate::campaign`]) *classifies* what a fault
//! did; this module *undoes* it. A [`Supervisor`] drives a
//! [`CoSim`] in checkpoint-aligned segments and watches four detectors:
//!
//! * the **liveness watchdog** (hangs → [`CoSimStop::Deadlock`]),
//! * the FSL **SEC-DED codec** (uncorrectable double-bit upsets, see
//!   `softsim-bus`),
//! * **TMR voters** in the peripheral graphs (replica miscompares, see
//!   `softsim-blocks`), and
//! * a **windowed signature diff** against a golden reference (silent
//!   data corruption surfacing as divergent architectural traffic),
//!
//! with a final observable comparison at halt as the backstop. On
//! detection the supervisor rolls the whole system back to a clean
//! checkpoint and replays. Faults are transient (single-event upsets):
//! a replay from a pre-fault checkpoint is clean, so recovery converges
//! — and because every step is deterministic, the same seed produces
//! the same [`RecoveryReport`], byte for byte, serial or parallel.
//!
//! Repeated detections without forward progress double the rollback
//! depth (1, 2, 4, … checkpoints), so a corrupted-but-undetected
//! checkpoint cannot trap the supervisor in a rollback livelock: the
//! backoff walks past it to older state, ultimately the initial
//! checkpoint. A bounded retry budget converts pathological cases into
//! a graceful [`RecoveryOutcome::Unrecoverable`] instead of an endless
//! loop.
//!
//! [`RecoveryPolicy`] is the rollback-recovery [`crate::TrialKind`]:
//! [`crate::run`] drives a whole recovery campaign — one golden capture,
//! then one supervised trial per injection — at any worker count.

use crate::codec::{put_bool, put_u32, put_u64};
use crate::driver::Kind;
use crate::durable::{
    decode_all, get_recovery_trial, put_recovery_trial, JournalError, KIND_RECOVERY,
};
use crate::inject::{Injection, Injector};
use softsim_cosim::{CoSim, CoSimState, CoSimStop};
use softsim_metrics::telemetry::SpanRecord;
use softsim_metrics::MetricsCollector;
use softsim_trace::{shared, DetectorKind, SharedSink, TraceEvent};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// Tuning knobs of the rollback-recovery supervisor.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryPolicy {
    /// Checkpoint cadence in cycles; also the signature window width.
    /// Checkpoints land on absolute-cycle multiples of this value.
    pub checkpoint_every: u64,
    /// Rollbacks allowed before giving up with
    /// [`RecoveryOutcome::Unrecoverable`].
    pub max_retries: u32,
    /// Liveness-watchdog threshold armed for the whole supervised run.
    pub watchdog_threshold: u64,
    /// Work budget = `golden_cycles * budget_factor + budget_floor`,
    /// counted over *executed* cycles including rollback replays (the
    /// cycle counter itself moves backwards on rollback).
    pub budget_factor: u64,
    /// Additive part of the work budget.
    pub budget_floor: u64,
    /// Collect windowed signatures and diff them against the golden
    /// series (the SDC detector). Costs a trace sink per segment; with
    /// it off only watchdog / ECC / TMR / observable detection remain.
    pub signature_windows: bool,
}

/// Checkpoints a supervised trial keeps in memory beyond the initial
/// one; older intermediate checkpoints are dropped first. The initial
/// checkpoint is always retained as the rollback of last resort. A
/// constant, not a knob, as the campaign ladder's rung count is.
const MAX_KEPT_CHECKPOINTS: usize = 16;

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy {
            checkpoint_every: 1024,
            max_retries: 8,
            watchdog_threshold: 10_000,
            budget_factor: 4,
            budget_floor: 50_000,
            signature_windows: true,
        }
    }
}

/// How a supervised trial ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// Halted with golden observables and no rollback was needed (the
    /// fault was vacuous, masked, or corrected in place by ECC).
    Clean,
    /// At least one rollback, then a halt with observables bit-exact
    /// against the golden run.
    Recovered {
        /// Cycles from fault application to first detection.
        detection_latency: u64,
        /// Cycles of re-executed work the rollbacks cost.
        recovery_cycles: u64,
        /// Rollbacks taken.
        retries: u32,
    },
    /// The retry or work budget ran out without a clean halt.
    Unrecoverable,
    /// The harness itself panicked inside the supervised trial (not the
    /// design — a design fault is a detection, handled by rollback).
    /// The panic was caught and the trial abandoned; sibling trials are
    /// unaffected.
    HarnessError {
        /// The panic payload, when it was a string (the common case).
        panic_msg: String,
    },
}

impl RecoveryOutcome {
    /// Short lower-case label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryOutcome::Clean => "clean",
            RecoveryOutcome::Recovered { .. } => "recovered",
            RecoveryOutcome::Unrecoverable => "unrecoverable",
            RecoveryOutcome::HarnessError { .. } => "harness-error",
        }
    }
}

impl std::fmt::Display for RecoveryOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryOutcome::Recovered { detection_latency, recovery_cycles, retries } => write!(
                f,
                "recovered (detected after {detection_latency} cycles, \
                 {recovery_cycles} cycles replayed, {retries} rollbacks)"
            ),
            other => f.write_str(other.label()),
        }
    }
}

/// The golden reference a supervised trial recovers toward: the initial
/// checkpoint, the halt cycle, the observable result words, and one
/// traffic signature per *full* checkpoint segment (partial final
/// segments are never compared).
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryGolden {
    /// Checkpoint of the initial state every trial restores from.
    pub initial: CoSimState,
    /// Cycles the fault-free run took to halt.
    pub cycles: u64,
    /// Observable result words of the fault-free run.
    pub observed: Vec<u32>,
    /// Per-segment data signatures, indexed by segment (window) number;
    /// `None` for segments the golden run did not fully cover.
    pub seg_sigs: Vec<Option<u32>>,
}

/// The record of one supervised fault trial.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryTrial {
    /// The scheduled fault.
    pub injection: Injection,
    /// Whether the fault actually changed state when applied.
    pub applied: bool,
    /// How the trial ended.
    pub outcome: RecoveryOutcome,
    /// The final stop of the supervised run.
    pub stop: CoSimStop,
    /// The first detector that fired, if any.
    pub detector: Option<DetectorKind>,
    /// Total executed cycles, rollback replays included.
    pub work_cycles: u64,
}

/// The result of a whole recovery campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Cycles the golden (fault-free) run took to halt.
    pub golden_cycles: u64,
    /// Observables of the golden run.
    pub golden_observed: Vec<u32>,
    /// One record per scheduled injection, schedule order.
    pub trials: Vec<RecoveryTrial>,
}

impl RecoveryReport {
    /// Trial counts as `(clean, recovered, unrecoverable)`. A trial the
    /// harness abandoned ([`RecoveryOutcome::HarnessError`]) certainly
    /// did not recover, so it is folded into the unrecoverable column
    /// here; [`RecoveryReport::abandoned`] counts it separately.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for t in &self.trials {
            match t.outcome {
                RecoveryOutcome::Clean => c.0 += 1,
                RecoveryOutcome::Recovered { .. } => c.1 += 1,
                RecoveryOutcome::Unrecoverable | RecoveryOutcome::HarnessError { .. } => c.2 += 1,
            }
        }
        c
    }

    /// Trials abandoned because the harness panicked (a subset of the
    /// unrecoverable column of [`RecoveryReport::counts`]).
    pub fn abandoned(&self) -> usize {
        self.trials
            .iter()
            .filter(|t| matches!(t.outcome, RecoveryOutcome::HarnessError { .. }))
            .count()
    }

    /// Mean detection latency and mean replayed cycles over the
    /// recovered trials, `(0.0, 0.0)` when none recovered.
    pub fn recovery_means(&self) -> (f64, f64) {
        let mut n = 0u64;
        let (mut lat, mut rep) = (0u64, 0u64);
        for t in &self.trials {
            if let RecoveryOutcome::Recovered { detection_latency, recovery_cycles, .. } = t.outcome
            {
                n += 1;
                lat += detection_latency;
                rep += recovery_cycles;
            }
        }
        if n == 0 {
            return (0.0, 0.0);
        }
        (lat as f64 / n as f64, rep as f64 / n as f64)
    }

    /// Plain-text summary table of the campaign.
    pub fn text(&self, title: &str) -> String {
        use std::fmt::Write;
        let (clean, recovered, unrecoverable) = self.counts();
        let total = self.trials.len().max(1);
        let pct = |n: usize| 100.0 * n as f64 / total as f64;
        let (lat, rep) = self.recovery_means();
        let mut s = String::new();
        let _ = writeln!(s, "recovery campaign: {title}");
        let _ = writeln!(s, "  golden run: {} cycles", self.golden_cycles);
        let _ = writeln!(s, "  trials: {}", self.trials.len());
        let _ = writeln!(s, "    clean:         {clean:5}  ({:5.1}%)", pct(clean));
        let _ = writeln!(s, "    recovered:     {recovered:5}  ({:5.1}%)", pct(recovered));
        let _ = writeln!(s, "    unrecoverable: {unrecoverable:5}  ({:5.1}%)", pct(unrecoverable));
        let abandoned = self.abandoned();
        if abandoned > 0 {
            let _ = writeln!(s, "    (harness-abandoned: {abandoned} of the unrecoverable)");
        }
        if recovered > 0 {
            let _ = writeln!(s, "  mean detection latency: {lat:.1} cycles");
            let _ = writeln!(s, "  mean replayed work:     {rep:.1} cycles");
        }
        s
    }
}

/// Which detector fired at a segment boundary, with a detail word for
/// the trace event.
struct Detection {
    detector: DetectorKind,
    detail: u32,
}

/// The rollback-recovery supervisor: a [`RecoveryPolicy`] plus an
/// optional trace sink for [`TraceEvent::FaultDetected`] /
/// [`TraceEvent::Recovered`] events.
#[derive(Default)]
pub struct Supervisor {
    policy: RecoveryPolicy,
    sink: Option<SharedSink>,
}

impl Supervisor {
    /// A supervisor with the given policy.
    pub fn new(policy: RecoveryPolicy) -> Supervisor {
        Supervisor { policy, sink: None }
    }

    /// The supervisor's policy.
    pub fn policy(&self) -> &RecoveryPolicy {
        &self.policy
    }

    /// Attaches a trace sink for detection and recovery events. The
    /// supervisor stamps them in the simulator's cycle domain, so they
    /// interleave correctly with profile and Chrome-trace exports.
    pub fn attach_trace(&mut self, sink: SharedSink) {
        self.sink = Some(sink);
    }

    fn emit(&self, e: TraceEvent) {
        if let Some(s) = &self.sink {
            s.borrow_mut().event(&e);
        }
    }

    /// Captures the golden reference: runs `sim` fault-free through the
    /// same segmented machinery every trial uses (so the per-segment
    /// signatures compare apples to apples), then restores the initial
    /// state.
    ///
    /// # Panics
    /// Panics if the fault-free run does not halt within the policy's
    /// `budget_floor * budget_factor` cycles.
    pub fn capture_golden(
        &self,
        sim: &mut CoSim,
        observe: impl Fn(&CoSim) -> Vec<u32>,
    ) -> RecoveryGolden {
        let initial = sim.save_state();
        let w = self.policy.checkpoint_every;
        let budget = self.policy.budget_floor * self.policy.budget_factor.max(1);
        let mut seg_sigs: Vec<Option<u32>> = Vec::new();
        let mut work = 0u64;
        let stop = loop {
            let now = sim.cpu().stats().cycles;
            let boundary = (now / w + 1) * w;
            let (stop, sig) = self.run_segment(sim, boundary, budget - work.min(budget), None);
            work += sim.cpu().stats().cycles - now;
            let seg = boundary / w - 1;
            if sim.cpu().stats().cycles == boundary {
                let seg = seg as usize;
                if seg_sigs.len() <= seg {
                    seg_sigs.resize(seg + 1, None);
                }
                seg_sigs[seg] = sig;
            }
            match stop {
                CoSimStop::CycleLimit { .. } if work < budget => continue,
                stop => break stop,
            }
        };
        assert_eq!(stop, CoSimStop::Halted, "golden run must halt, got: {stop}");
        let cycles = sim.cpu().stats().cycles;
        let observed = observe(sim);
        sim.load_state(&initial);
        RecoveryGolden { initial, cycles, observed, seg_sigs }
    }

    /// Runs one supervised fault trial: restore the golden initial
    /// state, arm the watchdog, and execute checkpoint-aligned segments
    /// — injecting the fault at its cycle, checking every detector at
    /// each boundary, rolling back and replaying on detection — until a
    /// clean halt, retry exhaustion, or work-budget exhaustion.
    pub fn run_trial(
        &self,
        sim: &mut CoSim,
        golden: &RecoveryGolden,
        injection: Injection,
        observe: impl Fn(&CoSim) -> Vec<u32>,
    ) -> RecoveryTrial {
        self.run_trial_plan(sim, golden, vec![injection], observe)
    }

    /// [`Supervisor::run_trial`] with a multi-fault schedule (e.g. a
    /// double-bit upset as two coincident flips of the same FIFO word).
    /// The returned trial records the schedule's first injection.
    ///
    /// # Panics
    /// Panics if `injections` is empty.
    pub fn run_trial_plan(
        &self,
        sim: &mut CoSim,
        golden: &RecoveryGolden,
        injections: Vec<Injection>,
        observe: impl Fn(&CoSim) -> Vec<u32>,
    ) -> RecoveryTrial {
        assert!(!injections.is_empty(), "a trial needs at least one scheduled fault");
        let injection = injections[0];
        let earliest = injections.iter().map(|i| i.cycle).min().unwrap();
        let w = self.policy.checkpoint_every;
        sim.load_state(&golden.initial);
        sim.set_watchdog(self.policy.watchdog_threshold);
        let start_cycle = sim.cpu().stats().cycles;
        let budget = golden.cycles * self.policy.budget_factor + self.policy.budget_floor;

        let mut injector = Injector::new(injections);
        let mut checkpoints: Vec<(u64, CoSimState)> = vec![(start_cycle, golden.initial.clone())];
        let mut work = 0u64;
        let mut retries = 0u32;
        let mut depth = 1usize;
        let mut applied = false;
        let mut fault_cycle: Option<u64> = None;
        let mut first_detection: Option<(u64, DetectorKind)> = None;
        // Progress is measured in retired instructions, not cycles: a
        // hung replay burns cycles without doing work, and the backoff
        // must see through that to walk past poisoned checkpoints.
        let mut last_detection_insns: Option<u64> = None;
        let mut ckpt_insns = sim.cpu().stats().instructions;
        // Self-check counter baselines, re-read after every rollback.
        let mut ecc_base = sim.fsl().ecc_uncorrectable_total();
        let mut tmr_base = sim.detected_faults();

        let (outcome, stop) = loop {
            let now = sim.cpu().stats().cycles;
            let boundary = (now / w + 1) * w;
            let applied_before = injector.applied();
            let (stop, sig) =
                self.run_segment(sim, boundary, budget - work.min(budget), Some(&mut injector));
            let now2 = sim.cpu().stats().cycles;
            work += now2 - now;
            if injector.applied() > applied_before {
                applied = true;
                fault_cycle.get_or_insert(earliest);
            }

            // Detectors, most specific first. The segment signature is
            // only compared when both this trial and the golden run
            // covered the segment in full.
            let seg = (boundary / w - 1) as usize;
            let detection = match &stop {
                CoSimStop::Fault(_) => Some(Detection { detector: DetectorKind::Fault, detail: 0 }),
                CoSimStop::Deadlock { .. } => {
                    Some(Detection { detector: DetectorKind::Watchdog, detail: 0 })
                }
                _ => {
                    let ecc = sim.fsl().ecc_uncorrectable_total();
                    let tmr = sim.detected_faults();
                    if ecc > ecc_base {
                        Some(Detection {
                            detector: DetectorKind::Ecc,
                            detail: (ecc - ecc_base) as u32,
                        })
                    } else if tmr > tmr_base {
                        Some(Detection {
                            detector: DetectorKind::Tmr,
                            detail: (tmr - tmr_base) as u32,
                        })
                    } else if now2 == boundary
                        && matches!((sig, golden.seg_sigs.get(seg)), (Some(s), Some(Some(g))) if s != *g)
                    {
                        Some(Detection { detector: DetectorKind::Signature, detail: seg as u32 })
                    } else if stop == CoSimStop::Halted && observe(sim) != golden.observed {
                        Some(Detection { detector: DetectorKind::Observable, detail: 0 })
                    } else {
                        None
                    }
                }
            };

            let detection = match detection {
                None => {
                    if stop == CoSimStop::Halted {
                        let outcome = match (retries, first_detection) {
                            (0, _) => RecoveryOutcome::Clean,
                            (retries, first) => RecoveryOutcome::Recovered {
                                detection_latency: first
                                    .map(|(c, _)| c.saturating_sub(fault_cycle.unwrap_or(c)))
                                    .unwrap_or(0),
                                recovery_cycles: work
                                    .saturating_sub(now2.saturating_sub(start_cycle)),
                                retries,
                            },
                        };
                        break (outcome, stop);
                    }
                    if work >= budget {
                        break (RecoveryOutcome::Unrecoverable, stop);
                    }
                    // Clean boundary: checkpoint and keep going — but
                    // only if the processor retired something since the
                    // last checkpoint. A zero-progress segment (a stall
                    // the watchdog has not yet diagnosed) would pin a
                    // possibly-poisoned state without adding anything a
                    // rollback could use. The initial checkpoint is
                    // pinned; intermediates beyond the keep limit age
                    // out oldest-first.
                    let insns = sim.cpu().stats().instructions;
                    if insns > ckpt_insns {
                        ckpt_insns = insns;
                        checkpoints.push((now2, sim.save_state()));
                        if checkpoints.len() > MAX_KEPT_CHECKPOINTS + 1 {
                            checkpoints.remove(1);
                        }
                    }
                    continue;
                }
                Some(d) => d,
            };

            self.emit(TraceEvent::FaultDetected {
                cycle: now2,
                detector: detection.detector,
                detail: detection.detail,
            });
            first_detection.get_or_insert((now2, detection.detector));
            retries += 1;
            if retries > self.policy.max_retries || work >= budget {
                break (RecoveryOutcome::Unrecoverable, stop);
            }
            // No forward progress (in retired instructions) since the
            // last detection: the replay tripped without doing new
            // work, so the restored checkpoint itself is suspect —
            // double the rollback depth. Progress resets it.
            let insns = sim.cpu().stats().instructions;
            depth = match last_detection_insns {
                Some(prev) if insns <= prev => (depth * 2).min(checkpoints.len()),
                _ => 1,
            };
            last_detection_insns = Some(insns);
            let idx = checkpoints.len() - depth.min(checkpoints.len());
            let (ckpt_cycle, ckpt) = &checkpoints[idx];
            let ckpt_cycle = *ckpt_cycle;
            sim.load_state(ckpt);
            checkpoints.truncate(idx + 1);
            ckpt_insns = sim.cpu().stats().instructions;
            ecc_base = sim.fsl().ecc_uncorrectable_total();
            tmr_base = sim.detected_faults();
            self.emit(TraceEvent::Recovered { cycle: now2, checkpoint_cycle: ckpt_cycle, retries });
        };

        RecoveryTrial {
            injection,
            applied,
            outcome,
            stop,
            detector: first_detection.map(|(_, d)| d),
            work_cycles: work,
        }
    }

    /// Runs `sim` from its current cycle to `boundary` (an absolute
    /// cycle, normally the next checkpoint multiple), bounded by
    /// `work_budget` executed cycles, pausing at scheduled injection
    /// cycles to apply faults. Returns the stop and — when signature
    /// windows are enabled — the wrapping sum of the data signatures
    /// the segment's collector observed.
    fn run_segment(
        &self,
        sim: &mut CoSim,
        boundary: u64,
        work_budget: u64,
        mut injector: Option<&mut Injector>,
    ) -> (CoSimStop, Option<u32>) {
        let collector = if self.policy.signature_windows {
            let c = Rc::new(RefCell::new(MetricsCollector::new(self.policy.checkpoint_every)));
            sim.attach_trace(shared(c.clone()));
            Some(c)
        } else {
            None
        };
        let mut budget = work_budget;
        let stop = loop {
            if let Some(inj) = injector.as_deref_mut() {
                inj.poll(sim);
            }
            let now = sim.cpu().stats().cycles;
            if now >= boundary {
                break CoSimStop::CycleLimit { blocked: None };
            }
            let mut horizon = boundary;
            if let Some(c) = injector.as_deref().and_then(|i| i.next_cycle()) {
                // `poll` above applied everything due, so `c > now`.
                horizon = horizon.min(c);
            }
            let stop = sim.run(budget.min(horizon - now));
            let ran = sim.cpu().stats().cycles - now;
            budget = budget.saturating_sub(ran);
            match stop {
                CoSimStop::CycleLimit { .. } if sim.cpu().stats().cycles >= horizon => continue,
                stop => break stop,
            }
        };
        let sig = collector.map(|c| {
            sim.detach_trace();
            let mut c = c.borrow_mut();
            c.finish(sim.cpu().stats().cycles);
            let series = c.series();
            let mut sig = 0u32;
            for row in &series.rows {
                sig = sig.wrapping_add(series.value(row, "data_signature").unwrap_or(0.0) as u32);
            }
            sig
        });
        (stop, sig)
    }
}

impl Kind for RecoveryPolicy {
    type Golden = RecoveryGolden;
    type Trial = RecoveryTrial;
    type Report = RecoveryReport;
    const JOURNAL_KIND: u8 = KIND_RECOVERY;

    fn golden(
        &self,
        sim: &mut CoSim,
        _plan: &[Injection],
        observe: &dyn Fn(&CoSim) -> Vec<u32>,
    ) -> RecoveryGolden {
        Supervisor::new(*self).capture_golden(sim, observe)
    }

    fn initial(golden: &RecoveryGolden) -> &CoSimState {
        &golden.initial
    }

    fn golden_span_cycles(golden: &RecoveryGolden) -> u64 {
        golden.cycles
    }

    fn golden_result(golden: &RecoveryGolden) -> (u64, &[u32]) {
        (golden.cycles, &golden.observed)
    }

    fn trial(
        &self,
        sim: &mut CoSim,
        golden: &RecoveryGolden,
        injection: Injection,
        observe: &dyn Fn(&CoSim) -> Vec<u32>,
        _attempt: u32,
    ) -> RecoveryTrial {
        Supervisor::new(*self).run_trial(sim, golden, injection, observe)
    }

    fn abandoned(injection: Injection, panic_msg: String, _retries: u32) -> RecoveryTrial {
        RecoveryTrial {
            injection,
            applied: false,
            outcome: RecoveryOutcome::HarnessError { panic_msg },
            stop: CoSimStop::CycleLimit { blocked: None },
            detector: None,
            work_cycles: 0,
        }
    }

    /// `work_cycles` already counts every executed cycle including
    /// rollback replays, so it is the span's sim-cycle cost exactly; the
    /// span's retries are rollbacks, not harness retries.
    fn trial_span(
        _golden: &RecoveryGolden,
        trial: &RecoveryTrial,
        _retry_wall: Duration,
        rec: &mut SpanRecord,
    ) {
        rec.sim_cycles = trial.work_cycles;
        rec.retries = match trial.outcome {
            RecoveryOutcome::Recovered { retries, .. } => retries as u64,
            _ => 0,
        };
        rec.abandoned = matches!(trial.outcome, RecoveryOutcome::HarnessError { .. }) as u64;
    }

    fn hash_config(&self, out: &mut Vec<u8>) {
        put_u64(out, self.checkpoint_every);
        put_u32(out, self.max_retries);
        put_u64(out, self.watchdog_threshold);
        put_u64(out, self.budget_factor);
        put_u64(out, self.budget_floor);
        put_bool(out, self.signature_windows);
        // Hashed where the policy once carried it as a field, so recovery
        // plan hashes and existing journals still match.
        put_u64(out, MAX_KEPT_CHECKPOINTS as u64);
    }

    fn encode(trial: &RecoveryTrial, out: &mut Vec<u8>) {
        put_recovery_trial(out, trial);
    }

    fn decode(body: &[u8]) -> Result<RecoveryTrial, JournalError> {
        decode_all(body, get_recovery_trial)
    }

    fn report(golden: RecoveryGolden, trials: Vec<RecoveryTrial>) -> RecoveryReport {
        RecoveryReport { golden_cycles: golden.cycles, golden_observed: golden.observed, trials }
    }
}

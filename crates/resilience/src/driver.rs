//! The campaign driver: one golden pass, then one guarded trial per
//! scheduled injection, for every kind of trial.
//!
//! A [`TrialKind`] says what a trial *is* — [`CampaignConfig`] classifies
//! what a fault does, [`RecoveryPolicy`] supervises rollback recovery
//! from it. [`run`] does everything else the same way for both: the
//! golden pass, a worker loop that writes results into plan-order slots,
//! a `catch_unwind` retry loop around every trial, harness telemetry, and
//! an optional `SSJL` journal (see [`crate::durable`]) that makes the run
//! resumable. An [`Exec`] value picks the execution shape; the report
//! never depends on it.
//!
//! [`CampaignConfig`]: crate::CampaignConfig
//! [`RecoveryPolicy`]: crate::RecoveryPolicy

use crate::durable::{plan_hash, AppendFaultPlan, DurabilityStatus, Journal, JournalError};
use crate::inject::Injection;
use softsim_cosim::{CoSim, CoSimState};
use softsim_metrics::telemetry::{SpanKind, SpanRecord, Telemetry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

/// How a campaign executes. The report is byte-identical for every
/// choice: trials are independent given the golden reference, and
/// results merge in plan order.
#[derive(Clone, Copy, Default)]
pub struct Exec<'a> {
    /// Worker threads (0 and 1 both mean one). The first worker runs on
    /// the calling thread, the others on scoped threads, each on its own
    /// share of the plan (contiguous chunks, in worker order). Ignored
    /// with [`Sims::Borrowed`], which runs every trial on the calling
    /// thread.
    pub workers: usize,
    /// Harness telemetry: a golden span, one trial span per executed
    /// trial, one journal-append span per record and one campaign span.
    /// Spans carry wall-clock data out of band, never into the report.
    pub telemetry: Option<&'a Telemetry>,
    /// Journal every completed trial, making the run resumable.
    pub journal: Option<JournalSpec<'a>>,
}

/// Where and how a run journals its trials.
#[derive(Clone, Copy, Debug)]
pub struct JournalSpec<'a> {
    /// The `SSJL` journal file.
    pub path: &'a Path,
    /// Load the trials a previous run journaled instead of re-running
    /// them (after checking the plan hash; the torn tail of an
    /// interrupted run is dropped and re-run). `false` always starts
    /// fresh, truncating any existing file; `true` with no journal on
    /// disk is also a fresh start.
    pub resume: bool,
    /// Injected append failure, for tests of the degradation path
    /// (`None` in production).
    pub fault: Option<AppendFaultPlan>,
}

/// Where a run's simulators come from.
pub enum Sims<'a> {
    /// One simulator at its initial state. The golden pass and every
    /// trial run on it, serially on the calling thread, and it is left in
    /// its initial state.
    Borrowed(&'a mut CoSim),
    /// A factory of identical simulators (same image, same peripheral
    /// shape): one for the golden pass and the first worker, one per
    /// further worker, and a fresh one after any trial that panics the
    /// harness. A [`CoSim`] holds non-`Send` observers, so simulators
    /// cannot migrate across threads; each worker builds its own.
    Build(&'a (dyn Fn() -> CoSim + Sync)),
}

/// A kind of fault trial [`run`] can drive: [`crate::CampaignConfig`]
/// (SEU classification against a golden checkpoint ladder) or
/// [`crate::RecoveryPolicy`] (rollback-recovery supervision).
pub trait TrialKind: Kind {}

impl<K: Kind> TrialKind for K {}

/// The parts of a trial kind that differ between kinds. Unnameable
/// outside the crate, which seals [`TrialKind`].
pub trait Kind: Sync {
    /// What every trial shares, captured once by the golden pass.
    type Golden: Sync;
    /// The record of one trial.
    type Trial: Clone + Send;
    /// The report of a whole run.
    type Report;
    /// The journal header's kind byte.
    const JOURNAL_KIND: u8;

    /// The golden pass from `sim`'s current (initial) state.
    fn golden(
        &self,
        sim: &mut CoSim,
        plan: &[Injection],
        observe: &dyn Fn(&CoSim) -> Vec<u32>,
    ) -> Self::Golden;
    /// The state a borrowed simulator is left in.
    fn initial(golden: &Self::Golden) -> &CoSimState;
    /// The golden span's `sim_cycles`.
    fn golden_span_cycles(golden: &Self::Golden) -> u64;
    /// The golden run's halt cycle and observables, for the plan hash.
    fn golden_result(golden: &Self::Golden) -> (u64, &[u32]);
    /// One trial; `attempt` counts the harness retries before it.
    fn trial(
        &self,
        sim: &mut CoSim,
        golden: &Self::Golden,
        injection: Injection,
        observe: &dyn Fn(&CoSim) -> Vec<u32>,
        attempt: u32,
    ) -> Self::Trial;
    /// The record of a trial abandoned after `retries` harness retries.
    fn abandoned(injection: Injection, panic_msg: String, retries: u32) -> Self::Trial;
    /// Fills the kind's fields of a trial span; `retry_wall` is the wall
    /// time since the end of the first attempt.
    fn trial_span(
        golden: &Self::Golden,
        trial: &Self::Trial,
        retry_wall: Duration,
        rec: &mut SpanRecord,
    );
    /// Appends the plan-hash bytes of the kind's configuration.
    fn hash_config(&self, out: &mut Vec<u8>);
    /// Appends a trial's journal record body.
    fn encode(trial: &Self::Trial, out: &mut Vec<u8>);
    /// Decodes a whole journal record body.
    fn decode(body: &[u8]) -> Result<Self::Trial, JournalError>;
    /// The report over every trial, in plan order.
    fn report(golden: Self::Golden, trials: Vec<Self::Trial>) -> Self::Report;
}

/// Harness retries after a panicking trial before it is abandoned. A
/// constant, not a knob: retries target transient harness failures, and
/// a deterministic panic fails every attempt anyway.
const HARNESS_RETRIES: u32 = 1;

/// Runs one campaign of `kind` over `plan`: the golden pass, then one
/// trial per injection, each classified by comparing `observe` of the
/// finished trial with the golden run's.
///
/// A trial that panics the harness is caught, retried once on a fresh
/// simulator (the same one, for [`Sims::Borrowed`]: the next attempt
/// restores a checkpoint first), then abandoned as the kind's
/// harness-error outcome; sibling trials still run. The whole procedure
/// is deterministic (wall-clock budgets aside): the same simulators,
/// plan, `observe` and `kind` produce a byte-identical report, whatever
/// the [`Exec`].
///
/// With a journal, every completed trial is appended to it as soon as
/// it finishes (workers append in completion order; resume keys on the
/// trial index). A failed append never fails the run: the journal is
/// cut back to its last good record and the run finishes in memory,
/// reported by the returned [`DurabilityStatus`]. Without a journal the
/// status says `durable: false` and nothing was appended.
///
/// # Errors
/// A [`JournalError`] when the journal cannot be created, or a resumed
/// one was written for a different plan, configuration or golden run.
///
/// # Panics
/// Panics if the golden run does not halt within the kind's budget, or
/// if a built simulator's shape does not match the golden checkpoint.
pub fn run<K: TrialKind>(
    sims: Sims<'_>,
    plan: &[Injection],
    observe: &(dyn Fn(&CoSim) -> Vec<u32> + Sync),
    kind: &K,
    exec: Exec<'_>,
) -> Result<(K::Report, DurabilityStatus), JournalError> {
    match sims {
        Sims::Borrowed(sim) => drive(sim, None, plan, observe, kind, exec),
        Sims::Build(make) => drive(&mut make(), Some((make, observe)), plan, observe, kind, exec),
    }
}

/// A simulator factory plus an observer that worker threads can share.
type Pool<'a> = (&'a (dyn Fn() -> CoSim + Sync), &'a (dyn Fn(&CoSim) -> Vec<u32> + Sync));

/// The body of [`run`]. `sim` runs the golden pass and the first
/// worker's trials on the calling thread. With a `pool`, further workers
/// run on scoped threads and panicked simulators are rebuilt; without
/// one, `sim` is borrowed, runs every trial, and is left in its initial
/// state — `observe` then never crosses a thread.
pub(crate) fn drive<K: Kind>(
    sim: &mut CoSim,
    pool: Option<Pool<'_>>,
    plan: &[Injection],
    observe: &dyn Fn(&CoSim) -> Vec<u32>,
    kind: &K,
    exec: Exec<'_>,
) -> Result<(K::Report, DurabilityStatus), JournalError> {
    let telemetry = exec.telemetry;
    let start = telemetry.map(|_| Instant::now());
    let golden = kind.golden(sim, plan, observe);
    if let Some((t, start)) = telemetry.zip(start) {
        let mut rec = SpanRecord::new(SpanKind::Golden, 0, start.elapsed());
        rec.sim_cycles = K::golden_span_cycles(&golden);
        t.record(rec);
    }

    let (journal, mut slots) = match exec.journal {
        None => (None, vec![None; plan.len()]),
        Some(spec) => {
            let (cycles, observed) = K::golden_result(&golden);
            let hash = plan_hash(plan, cycles, observed, |out| kind.hash_config(out));
            let (journal, slots) =
                Journal::open(spec, K::JOURNAL_KIND, hash, plan.len(), K::decode)?;
            (Some(journal), slots)
        }
    };
    let pending: Vec<u32> =
        (0..plan.len() as u32).filter(|&i| slots[i as usize].is_none()).collect();
    if let Some(t) = telemetry {
        t.expect_trials(pending.len() as u64);
    }

    let workers = if pool.is_some() { exec.workers.clamp(1, pending.len().max(1)) } else { 1 };
    let chunk = pending.len().div_ceil(workers).max(1);
    let mut fresh: Vec<Option<K::Trial>> = vec![None; pending.len()];
    std::thread::scope(|scope| {
        // Contiguous chunks: worker w gets pending[w*chunk ..] and
        // writes into the matching slots, so the merge below is a plain
        // scatter in plan order.
        let mut chunks = pending.chunks(chunk).zip(fresh.chunks_mut(chunk));
        let first = chunks.next();
        let (golden, journal) = (&golden, journal.as_ref());
        if let Some((make, observe)) = pool {
            for (worker, (indices, slots)) in (1..).zip(chunks) {
                scope.spawn(move || {
                    let mut sim = make();
                    let work = Work { kind, golden, plan, observe, telemetry, journal };
                    work.drain(&mut sim, Some(make), indices, slots, worker);
                });
            }
        }
        if let Some((indices, slots)) = first {
            let work = Work { kind, golden, plan, observe, telemetry, journal };
            work.drain(sim, pool.map(|(make, _)| make as &dyn Fn() -> CoSim), indices, slots, 0);
        }
    });
    if pool.is_none() {
        sim.load_state(K::initial(&golden));
        sim.clear_watchdog();
    }

    let status = match &journal {
        Some(journal) => journal.status(),
        None => DurabilityStatus { durable: false, appended: 0, warning: None },
    };
    for (&index, trial) in pending.iter().zip(fresh) {
        slots[index as usize] = trial;
    }
    let trials = slots.into_iter().map(|t| t.expect("worker filled every slot")).collect();
    if let Some((t, start)) = telemetry.zip(start) {
        t.record(SpanRecord::new(SpanKind::Campaign, 0, start.elapsed()));
    }
    Ok((K::report(golden, trials), status))
}

/// What every worker of one run shares.
struct Work<'a, K: Kind> {
    kind: &'a K,
    golden: &'a K::Golden,
    plan: &'a [Injection],
    observe: &'a dyn Fn(&CoSim) -> Vec<u32>,
    telemetry: Option<&'a Telemetry>,
    journal: Option<&'a Journal>,
}

impl<K: Kind> Work<'_, K> {
    /// The worker loop: runs the trials of `plan[indices]` on `sim` into
    /// `slots`, journaling each as it completes.
    fn drain(
        &self,
        sim: &mut CoSim,
        rebuild: Option<&dyn Fn() -> CoSim>,
        indices: &[u32],
        slots: &mut [Option<K::Trial>],
        worker: u32,
    ) {
        for (slot, &index) in slots.iter_mut().zip(indices) {
            let trial = self.guarded(sim, rebuild, self.plan[index as usize], worker);
            if let Some(journal) = self.journal {
                journal.append(index, |out| K::encode(&trial, out), worker, self.telemetry);
            }
            *slot = Some(trial);
        }
    }

    /// One trial under [`catch_unwind`]: a panicking trial is retried
    /// [`HARNESS_RETRIES`] times, then abandoned. `rebuild` replaces a
    /// simulator the panic may have left mid-step; without it the next
    /// attempt's checkpoint restore cleans up.
    fn guarded(
        &self,
        sim: &mut CoSim,
        rebuild: Option<&dyn Fn() -> CoSim>,
        injection: Injection,
        worker: u32,
    ) -> K::Trial {
        let start = self.telemetry.map(|_| Instant::now());
        let (ff0, ffc0) = (sim.ff_engagements(), sim.ff_skipped_cycles());
        let mut first_attempt_end = None;
        let mut attempt = 0;
        let trial = loop {
            let result = catch_unwind(AssertUnwindSafe(|| {
                self.kind.trial(sim, self.golden, injection, self.observe, attempt)
            }));
            if start.is_some() {
                first_attempt_end.get_or_insert_with(Instant::now);
            }
            match result {
                Ok(trial) => break trial,
                Err(payload) => {
                    let panic_msg = panic_message(payload);
                    if let Some(make) = rebuild {
                        *sim = make();
                    }
                    if attempt >= HARNESS_RETRIES {
                        break K::abandoned(injection, panic_msg, attempt);
                    }
                    attempt += 1;
                }
            }
        };
        if let (Some(t), Some(start), Some(end)) = (self.telemetry, start, first_attempt_end) {
            let mut rec = SpanRecord::new(SpanKind::Trial, worker, start.elapsed());
            // Deltas against the worker's simulator, saturating: a
            // rebuild after a panic resets the counters.
            rec.ff_engagements = sim.ff_engagements().saturating_sub(ff0);
            rec.ff_skipped_cycles = sim.ff_skipped_cycles().saturating_sub(ffc0);
            K::trial_span(self.golden, &trial, end.elapsed(), &mut rec);
            t.record(rec);
        }
        trial
    }
}

/// Best-effort string rendering of a caught panic payload: the message
/// of a `panic!` with a `&str` or `String` payload, or
/// `"non-string panic payload"`.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

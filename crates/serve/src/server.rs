//! The in-process server: a supervised worker pool behind the bounded
//! admission queue, with deadlines, retry/backoff, quarantine,
//! crash-resumable durable campaigns and the memoization cache.
//!
//! Job lifecycle (the robustness state machine of DESIGN.md §16):
//!
//! ```text
//! submitted ─▸ admitted ─▸ running ─▸ done
//!      │                      ├────▸ retried ─▸ (running again)
//!      │                      └────▸ quarantined
//!      └────────────▸ shed (queue full / evicted / deadline / shutdown)
//! ```
//!
//! A job runs on its workload's [`catalog::Design`], built once per
//! process: a `Simulate` job is answered from its golden record, a
//! `Sweep` from each point's golden cycles, and campaign and recovery
//! trials start from its image and observe its window.
//!
//! Every terminal state is a typed value — overload and crashes never
//! surface as panics or unbounded queues. A finished job stays in the
//! server's table only until [`Server::wait`] (or [`Server::run`])
//! hands its result over, so served requests do not accumulate. A job
//! submitted by `run` belongs to that call alone: other callers' `wait`
//! and `status` treat its id as unknown, so nobody can take its result
//! first.

use crate::cache::{CacheLookup, MemoCache};
use crate::catalog::{self, JobKind, JobSpec, Workload};
use crate::queue::{Admission, BoundedQueue, QueueConfig};
use softsim_metrics::telemetry::{ServeEvent, SpanKind, SpanRecord, Telemetry};
use softsim_resilience::{
    panic_message, resume_from_journal, run, CampaignConfig, CampaignReport, Exec, Injection,
    JournalError, JournalSpec, RecoveryReport, Sims, TrialKind,
};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Most pool workers a server runs, and most worker threads one
/// campaign/recovery job may use: the bound the TCP front-end puts on
/// its connection threads ([`crate::net::MAX_CONNECTIONS`]).
pub const MAX_WORKERS: usize = 64;

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Pool worker threads (each runs one job at a time), at most
    /// [`MAX_WORKERS`].
    pub workers: usize,
    /// Worker threads *inside* one campaign/recovery job, at most
    /// [`MAX_WORKERS`].
    pub campaign_workers: usize,
    /// Admission queue sizing.
    pub queue: QueueConfig,
    /// Directory for per-job durable journals.
    pub spool: PathBuf,
    /// Attempts after the first before a job is quarantined.
    pub max_job_retries: u32,
    /// Base backoff between attempts (doubles each retry).
    pub retry_backoff: Duration,
    /// Memoization cache capacity in entries (0 disables).
    pub cache_entries: usize,
    /// Start with the pool paused: jobs queue but do not run until
    /// [`Server::release`]. Lets tests and benches build a
    /// deterministic backlog.
    pub hold: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            campaign_workers: 1,
            queue: QueueConfig::default(),
            spool: std::env::temp_dir().join("softsim-serve-spool"),
            max_job_retries: 2,
            retry_backoff: Duration::from_millis(10),
            cache_entries: 256,
            hold: false,
        }
    }
}

/// Why a job was shed instead of run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The queue was full of equal-or-higher-priority work.
    QueueFull {
        /// Queue population at rejection.
        depth: usize,
        /// Configured capacity.
        capacity: usize,
    },
    /// A higher-priority arrival evicted this queued job.
    Evicted {
        /// Id of the evicting job.
        by: u64,
    },
    /// The job's deadline expired while it was still queued.
    DeadlineExpired {
        /// How long it had waited, in milliseconds.
        waited_ms: u64,
    },
    /// The server was shutting down.
    ShuttingDown,
    /// A connection arrived while the TCP front-end already served its
    /// limit of `net::MAX_CONNECTIONS`; it is answered with this reason
    /// and closed, no request read.
    ConnectionLimit,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::QueueFull { depth, capacity } => {
                write!(f, "queue full ({depth}/{capacity})")
            }
            ShedReason::Evicted { by } => write!(f, "evicted by higher-priority job {by}"),
            ShedReason::DeadlineExpired { waited_ms } => {
                write!(f, "deadline expired after {waited_ms}ms queued")
            }
            ShedReason::ShuttingDown => write!(f, "server shutting down"),
            ShedReason::ConnectionLimit => {
                write!(f, "connection limit reached ({} open)", crate::net::MAX_CONNECTIONS)
            }
        }
    }
}

/// Typed overload rejection returned by [`Server::submit`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Shed {
    /// Why admission failed.
    pub reason: ShedReason,
}

impl std::fmt::Display for Shed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job shed: {}", self.reason)
    }
}

impl std::error::Error for Shed {}

/// Terminal classification of a finished job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Ran to completion (possibly after retries).
    Done,
    /// Never ran; the reason is in the `shed` field of [`JobResult`].
    Shed,
    /// Exhausted its retries (or failed validation); see
    /// [`JobResult::error`].
    Quarantined,
}

impl JobState {
    /// Wire name of this state.
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Done => "done",
            JobState::Shed => "shed",
            JobState::Quarantined => "quarantined",
        }
    }
}

/// How the memoization cache participated in a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheStatus {
    /// Served from the cache; nothing was simulated.
    Hit,
    /// Ran and populated the cache.
    Miss,
    /// The spec opted out of caching.
    Bypass,
}

impl CacheStatus {
    /// Wire name of this status.
    pub fn label(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Bypass => "bypass",
        }
    }
}

/// The terminal record of a job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobResult {
    /// Job id assigned at submission.
    pub id: u64,
    /// Terminal state.
    pub state: JobState,
    /// Shed detail when `state == Shed`.
    pub shed: Option<ShedReason>,
    /// Cache participation.
    pub cache: CacheStatus,
    /// Every completed trial reached the journal (durable jobs only;
    /// `false` after a write-side degrade or for non-durable jobs).
    pub durable: bool,
    /// Attempts consumed after the first.
    pub retries: u32,
    /// Trials actually simulated by this job (0 on a cache hit; on a
    /// crash-resume, only the missing remainder).
    pub executed_trials: u32,
    /// Trials recovered from the spool journal instead of re-run.
    pub resumed_trials: u32,
    /// Non-fatal warning (e.g. journal write degraded mid-run).
    pub warning: Option<String>,
    /// Failure detail when `state == Quarantined`.
    pub error: Option<String>,
    /// Deterministic report text (empty unless `Done`).
    pub report: String,
}

impl JobResult {
    /// A result in `state` that reports nothing else.
    fn new(id: u64, state: JobState, cache: CacheStatus) -> JobResult {
        JobResult {
            id,
            state,
            shed: None,
            cache,
            durable: false,
            retries: 0,
            executed_trials: 0,
            resumed_trials: 0,
            warning: None,
            error: None,
            report: String::new(),
        }
    }

    fn shed(id: u64, reason: ShedReason) -> JobResult {
        JobResult { shed: Some(reason), ..JobResult::new(id, JobState::Shed, CacheStatus::Bypass) }
    }
}

/// Where a submitted job currently is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the admission queue.
    Queued,
    /// Executing on a pool worker.
    Running,
    /// Terminal; the result is final.
    Finished(JobResult),
}

/// Point-in-time health/readiness snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Health {
    /// Accepting submissions.
    pub ready: bool,
    /// Jobs waiting in the queue.
    pub queue_depth: usize,
    /// Queue capacity.
    pub queue_capacity: usize,
    /// Jobs currently executing.
    pub running: usize,
    /// Pool worker threads.
    pub workers: usize,
}

struct QueuedJob {
    id: u64,
    spec: JobSpec,
    submitted: Instant,
}

struct State {
    queue: BoundedQueue<QueuedJob>,
    jobs: HashMap<u64, JobStatus>,
    /// Ids submitted by [`Server::run`]: only that call takes their
    /// result, and to every other caller they are unknown.
    runs: HashSet<u64>,
    running: usize,
    next_id: u64,
    cache: MemoCache,
    hold: bool,
}

struct Inner {
    config: ServeConfig,
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
    telemetry: Arc<Telemetry>,
    shutdown: AtomicBool,
}

/// The in-process simulation server. See the module docs for the
/// lifecycle; [`crate::net`] exposes the same API over TCP.
pub struct Server {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Server {
    /// Starts the pool and returns the running server.
    ///
    /// # Errors
    /// [`std::io::ErrorKind::InvalidInput`] when `workers` or
    /// `campaign_workers` is above [`MAX_WORKERS`], before anything is
    /// created or spawned; otherwise the error of creating the spool or
    /// of spawning a pool thread (the threads already spawned are shut
    /// down and joined).
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        for (name, count) in
            [("workers", config.workers), ("campaign_workers", config.campaign_workers)]
        {
            if count > MAX_WORKERS {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("{name} {count} above {MAX_WORKERS}"),
                ));
            }
        }
        std::fs::create_dir_all(&config.spool)?;
        let state = State {
            queue: BoundedQueue::new(config.queue.capacity),
            jobs: HashMap::new(),
            runs: HashSet::new(),
            running: 0,
            next_id: 1,
            cache: MemoCache::new(config.cache_entries),
            hold: config.hold,
        };
        let inner = Arc::new(Inner {
            config,
            state: Mutex::new(state),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            telemetry: Arc::new(Telemetry::default()),
            shutdown: AtomicBool::new(false),
        });
        inner.publish_gauges();
        // Dropping the server on a spawn error joins what was spawned.
        let server = Server { inner, workers: Mutex::new(Vec::new()) };
        for w in 0..server.inner.config.workers.max(1) {
            let inner = Arc::clone(&server.inner);
            let handle = std::thread::Builder::new()
                .name(format!("serve-worker-{w}"))
                .spawn(move || worker_loop(&inner, w as u32))?;
            lock(&server.workers).push(handle);
        }
        Ok(server)
    }

    /// The telemetry hub (Prometheus exposition via
    /// [`Telemetry::to_prometheus`]).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.inner.telemetry
    }

    /// Submits a job, returning its id or a typed [`Shed`] rejection.
    /// An invalid spec ([`JobSpec::validate`]) is admitted and
    /// immediately quarantined so the caller gets a structured result
    /// rather than an admission error.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, Shed> {
        self.admit(spec, false)
    }

    /// [`Server::submit`]; `for_run` reserves the job's result for the
    /// [`Server::run`] that submits it.
    fn admit(&self, spec: JobSpec, for_run: bool) -> Result<u64, Shed> {
        let inner = &self.inner;
        if inner.shutdown.load(Ordering::SeqCst) {
            inner.telemetry.serve_event(ServeEvent::Shed);
            return Err(Shed { reason: ShedReason::ShuttingDown });
        }
        let mut state = lock(&inner.state);
        let id = state.next_id;
        state.next_id += 1;
        if for_run {
            state.runs.insert(id);
        }
        if let Err(msg) = spec.validate() {
            let result = JobResult {
                error: Some(msg),
                ..JobResult::new(id, JobState::Quarantined, CacheStatus::Bypass)
            };
            state.jobs.insert(id, JobStatus::Finished(result));
            inner.telemetry.serve_event(ServeEvent::Quarantined);
            drop(state);
            inner.done_cv.notify_all();
            return Ok(id);
        }
        let job = QueuedJob { id, spec, submitted: Instant::now() };
        match state.queue.push(job, spec.priority) {
            Admission::Admitted => {}
            Admission::AdmittedEvicting(victim) => {
                let result = JobResult::shed(victim.id, ShedReason::Evicted { by: id });
                state.jobs.insert(victim.id, JobStatus::Finished(result));
                inner.telemetry.serve_event(ServeEvent::Shed);
            }
            Admission::Rejected { depth, capacity } => {
                state.runs.remove(&id);
                inner.telemetry.serve_event(ServeEvent::Shed);
                inner.publish_gauges_locked(&state);
                return Err(Shed { reason: ShedReason::QueueFull { depth, capacity } });
            }
        }
        state.jobs.insert(id, JobStatus::Queued);
        inner.telemetry.serve_event(ServeEvent::Admitted);
        inner.publish_gauges_locked(&state);
        drop(state);
        self.inner.work_cv.notify_all();
        self.inner.done_cv.notify_all();
        Ok(id)
    }

    /// Releases a pool started with [`ServeConfig::hold`]; no-op
    /// otherwise.
    pub fn release(&self) {
        lock(&self.inner.state).hold = false;
        self.inner.work_cv.notify_all();
    }

    /// Current status of `id`: queued, running, or finished until its
    /// result has been handed over by [`Server::wait`]. `None` for an
    /// unknown id, for one whose result was already delivered, and for
    /// a job submitted by [`Server::run`].
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        let state = lock(&self.inner.state);
        if state.runs.contains(&id) {
            return None;
        }
        state.jobs.get(&id).cloned()
    }

    /// Blocks until `id` finishes, up to `timeout`, and hands its result
    /// over: the job leaves the server's table, so a later `wait` or
    /// [`Server::status`] of `id` returns `None`, as for an unknown id.
    /// Returns `None` on timeout (the job stays in the table), for an
    /// unknown id, and at once for a job submitted by [`Server::run`],
    /// whose result only that `run` may take.
    pub fn wait(&self, id: u64, timeout: Duration) -> Option<JobResult> {
        let deadline = Instant::now() + timeout;
        let mut state = lock(&self.inner.state);
        if state.runs.contains(&id) {
            return None;
        }
        loop {
            if let Some(result) = take_finished(&mut state, id) {
                return Some(result);
            }
            if !state.jobs.contains_key(&id) {
                return None;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let (s, _) = self
                .inner
                .done_cv
                .wait_timeout(state, left.min(Duration::from_millis(100)))
                .unwrap_or_else(|e| e.into_inner());
            state = s;
        }
    }

    /// Submit + wait: the one-call blocking API. Blocks until the job
    /// finishes, which every admitted job does (a shutdown sheds what is
    /// still queued), and hands the result over as [`Server::wait`]
    /// does, so a `run` leaves nothing in the server's job table. Until
    /// then the job is this call's alone: other callers' `wait` and
    /// `status` of its id answer as for an unknown id.
    pub fn run(&self, spec: JobSpec) -> Result<JobResult, Shed> {
        let id = self.admit(spec, true)?;
        let mut state = lock(&self.inner.state);
        loop {
            if let Some(result) = take_finished(&mut state, id) {
                return Ok(result);
            }
            let (s, _) = self
                .inner
                .done_cv
                .wait_timeout(state, Duration::from_millis(100))
                .unwrap_or_else(|e| e.into_inner());
            state = s;
        }
    }

    /// Health/readiness snapshot.
    pub fn health(&self) -> Health {
        let state = lock(&self.inner.state);
        Health {
            ready: !self.inner.shutdown.load(Ordering::SeqCst),
            queue_depth: state.queue.len(),
            queue_capacity: state.queue.capacity(),
            running: state.running,
            workers: self.inner.config.workers.max(1),
        }
    }

    /// Prometheus text exposition of the hub (harness + serve families).
    pub fn metrics(&self) -> String {
        self.inner.telemetry.to_prometheus()
    }

    /// The spool journal a durable job of `spec` writes.
    pub fn journal_path(&self, spec: &JobSpec) -> PathBuf {
        journal_path(&self.inner.config.spool, spec)
    }

    /// Test hook: corrupts the cached payload of `spec`'s entry (CRC
    /// left stale), so the next identical request must detect it, evict
    /// and re-run.
    #[doc(hidden)]
    pub fn corrupt_cache_entry(&self, spec: &JobSpec) -> bool {
        lock(&self.inner.state).cache.corrupt(spec.content_hash())
    }

    /// Stops accepting work, sheds everything still queued, and joins
    /// the pool. Idempotent; also called on drop.
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        {
            let mut state = lock(&self.inner.state);
            state.hold = false;
            for job in state.queue.drain() {
                let result = JobResult::shed(job.id, ShedReason::ShuttingDown);
                state.jobs.insert(job.id, JobStatus::Finished(result));
                self.inner.telemetry.serve_event(ServeEvent::Shed);
            }
            self.inner.publish_gauges_locked(&state);
        }
        self.inner.work_cv.notify_all();
        self.inner.done_cv.notify_all();
        for handle in lock(&self.workers).drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Inner {
    fn publish_gauges(&self) {
        let state = lock(&self.state);
        self.publish_gauges_locked(&state);
    }

    fn publish_gauges_locked(&self, state: &State) {
        self.telemetry.set_serve_queue(
            state.queue.len() as u64,
            state.queue.capacity() as u64,
            state.running as u64,
            !self.shutdown.load(Ordering::SeqCst),
        );
    }
}

/// Removes `id` from the job table and returns its result if it has
/// finished; a queued or running job stays where it is.
fn take_finished(state: &mut State, id: u64) -> Option<JobResult> {
    match state.jobs.remove(&id)? {
        JobStatus::Finished(result) => {
            state.runs.remove(&id);
            Some(result)
        }
        pending => {
            state.jobs.insert(id, pending);
            None
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The spool journal for `spec` (content-addressed; recovery jobs get
/// their own suffix so a campaign and a recovery of the same seed never
/// collide).
pub fn journal_path(spool: &std::path::Path, spec: &JobSpec) -> PathBuf {
    let suffix = match spec.kind {
        JobKind::Recovery => "recovery.ssjl",
        _ => "ssjl",
    };
    spool.join(format!("{:016x}.{suffix}", spec.content_hash()))
}

fn worker_loop(inner: &Inner, worker: u32) {
    loop {
        let job = {
            let mut state = lock(&inner.state);
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if !state.hold {
                    if let Some(job) = state.queue.pop() {
                        break job;
                    }
                }
                let (s, _) = inner
                    .work_cv
                    .wait_timeout(state, Duration::from_millis(100))
                    .unwrap_or_else(|e| e.into_inner());
                state = s;
            }
        };
        let id = job.id;
        {
            let mut state = lock(&inner.state);
            state.jobs.insert(id, JobStatus::Running);
            state.running += 1;
            inner.publish_gauges_locked(&state);
        }
        let job_start = Instant::now();
        let result = run_entry(inner, job, worker);
        inner.telemetry.record(SpanRecord::new(SpanKind::Job, worker, job_start.elapsed()));
        let mut state = lock(&inner.state);
        state.running -= 1;
        state.jobs.insert(id, JobStatus::Finished(result));
        inner.publish_gauges_locked(&state);
        drop(state);
        inner.done_cv.notify_all();
    }
}

/// One admitted job, end to end: deadline check, cache probe, guarded
/// execution with retry/backoff, quarantine, cache fill.
fn run_entry(inner: &Inner, job: QueuedJob, _worker: u32) -> JobResult {
    let QueuedJob { id, spec, submitted } = job;
    if let Some(deadline_ms) = spec.deadline_ms {
        let waited = submitted.elapsed();
        if waited > Duration::from_millis(deadline_ms) {
            inner.telemetry.serve_event(ServeEvent::Shed);
            return JobResult::shed(
                id,
                ShedReason::DeadlineExpired { waited_ms: waited.as_millis() as u64 },
            );
        }
    }

    let key = spec.content_hash();
    let mut cache = CacheStatus::Bypass;
    if spec.use_cache {
        match lock(&inner.state).cache.get(key) {
            CacheLookup::Hit(payload) => {
                inner.telemetry.serve_event(ServeEvent::CacheHit);
                inner.telemetry.serve_event(ServeEvent::Completed);
                let durable = payload.first() == Some(&1);
                let report = String::from_utf8_lossy(&payload[1..]).into_owned();
                return JobResult {
                    durable,
                    report,
                    ..JobResult::new(id, JobState::Done, CacheStatus::Hit)
                };
            }
            CacheLookup::Corrupt => {
                inner.telemetry.serve_event(ServeEvent::CacheEvict);
                inner.telemetry.serve_event(ServeEvent::CacheMiss);
                cache = CacheStatus::Miss;
            }
            CacheLookup::Miss => {
                inner.telemetry.serve_event(ServeEvent::CacheMiss);
                cache = CacheStatus::Miss;
            }
        }
    }

    let mut retries = 0;
    let mut last_panic = String::new();
    while retries <= inner.config.max_job_retries {
        let attempt = catch_unwind(AssertUnwindSafe(|| execute(inner, &spec)));
        match attempt {
            Ok(exec) => {
                inner.telemetry.serve_event(ServeEvent::Completed);
                if spec.use_cache {
                    let mut payload = Vec::with_capacity(1 + exec.report.len());
                    payload.push(exec.durable as u8);
                    payload.extend_from_slice(exec.report.as_bytes());
                    lock(&inner.state).cache.insert(key, payload);
                }
                return JobResult {
                    durable: exec.durable,
                    retries,
                    executed_trials: exec.executed_trials,
                    resumed_trials: exec.resumed_trials,
                    warning: exec.warning,
                    report: exec.report,
                    ..JobResult::new(id, JobState::Done, cache)
                };
            }
            Err(panic) => {
                last_panic = panic_message(panic);
                retries += 1;
                if retries <= inner.config.max_job_retries {
                    inner.telemetry.serve_event(ServeEvent::Retried);
                    let backoff =
                        inner.config.retry_backoff.saturating_mul(1u32 << (retries - 1).min(16));
                    std::thread::sleep(backoff);
                }
            }
        }
    }
    inner.telemetry.serve_event(ServeEvent::Quarantined);
    JobResult {
        retries: retries - 1,
        error: Some(format!("quarantined after {} attempts: {last_panic}", retries)),
        ..JobResult::new(id, JobState::Quarantined, cache)
    }
}

struct ExecOutput {
    report: String,
    durable: bool,
    executed_trials: u32,
    resumed_trials: u32,
    warning: Option<String>,
}

/// Runs the spec's work. Panics (including deliberate crash-test
/// builds and journal errors) unwind to the retry loop above.
fn execute(inner: &Inner, spec: &JobSpec) -> ExecOutput {
    let workload = spec.workload;
    let (report, executed_trials) = match spec.kind {
        JobKind::Simulate => {
            let design = catalog::design(workload);
            (render_simulate(workload, design.golden_cycles, &design.golden_observed), 1)
        }
        JobKind::Sweep => {
            let mut out = format!("sweep {}\n", workload.label());
            let points = spec.trials.max(1);
            for i in 0..points {
                let point = match workload {
                    Workload::Cordic { iterations, .. } => {
                        Workload::Cordic { iterations, p: [2, 4, 6, 8][i as usize % 4] }
                    }
                    other => other,
                };
                let cycles = catalog::golden_cycles(point);
                out.push_str(&format!("  point {i}: {} cycles={cycles}\n", render_workload(point)));
            }
            (out, points)
        }
        JobKind::Campaign => {
            let plan = catalog::campaign_plan(workload, spec.seed, spec.trials);
            let config = CampaignConfig {
                trial_cycle_budget: spec.trial_cycle_budget,
                trial_wall_budget: spec.trial_wall_budget_ms.map(Duration::from_millis),
                ..CampaignConfig::default()
            };
            return execute_trials(inner, spec, &plan, &config, render_campaign);
        }
        JobKind::Recovery => {
            let plan = catalog::recovery_plan(workload, spec.seed, spec.trials);
            let policy = catalog::recovery_policy();
            return execute_trials(inner, spec, &plan, &policy, render_recovery);
        }
    };
    ExecOutput { report, durable: false, executed_trials, resumed_trials: 0, warning: None }
}

/// Runs a campaign or recovery job's trials, journaled when the spec is
/// durable. A journal already in the spool resumes; one that does not
/// scan, or was written for a different plan (e.g. a hash collision in
/// the spool), is discarded and the job runs fresh rather than being
/// quarantined.
fn execute_trials<K: TrialKind>(
    inner: &Inner,
    spec: &JobSpec,
    plan: &[Injection],
    kind: &K,
    render: fn(&JobSpec, &K::Report) -> String,
) -> ExecOutput {
    let design = catalog::design(spec.workload);
    let (base, n) = design.observe;
    let observe = move |s: &softsim_cosim::CoSim| catalog::observe_words(s, base, n);
    let make_sim = || design.sim();
    let journal = spec.durable.then(|| journal_path(&inner.config.spool, spec));
    let mut resumed = match &journal {
        None => 0,
        Some(path) => resume_from_journal::<K>(path).map_or_else(
            |_| {
                // Missing file is a fresh start; an unreadable journal
                // is discarded the same way.
                let _ = std::fs::remove_file(path);
                0
            },
            |scan| scan.done() as u32,
        ),
    };
    let exec = |resume| Exec {
        workers: inner.config.campaign_workers.max(1),
        telemetry: Some(&*inner.telemetry),
        journal: journal.as_deref().map(|path| JournalSpec { path, resume, fault: None }),
    };
    let mut outcome = run(Sims::Build(&make_sim), plan, &observe, kind, exec(resumed > 0));
    if let (
        Some(path),
        Err(JournalError::PlanMismatch { .. } | JournalError::TrialCountMismatch { .. }),
    ) = (&journal, &outcome)
    {
        let _ = std::fs::remove_file(path);
        resumed = 0;
        outcome = run(Sims::Build(&make_sim), plan, &observe, kind, exec(false));
    }
    let (report, status) =
        outcome.unwrap_or_else(|e| panic!("durable {} failed: {e}", spec.kind.label()));
    ExecOutput {
        report: render(spec, &report),
        durable: status.durable,
        executed_trials: spec.trials.saturating_sub(resumed),
        resumed_trials: resumed,
        warning: status.warning,
    }
}

fn render_workload(w: Workload) -> String {
    match w {
        Workload::Cordic { iterations, p } => format!("cordic iters={iterations} p={p}"),
        Workload::Matmul { n, nb } => format!("matmul n={n} nb={nb}"),
        Workload::CrashTest => "crash_test".to_string(),
    }
}

fn render_simulate(w: Workload, cycles: u64, observed: &[u32]) -> String {
    let words: Vec<String> = observed.iter().map(|w| format!("{w:08x}")).collect();
    format!("simulate {} cycles={cycles} observed=[{}]\n", render_workload(w), words.join(" "))
}

/// Deterministic campaign report text: everything here derives from the
/// byte-reproducible `CampaignReport`, so two runs of the same spec
/// byte-diff clean — the property the cache, the resume check and CI
/// all key on.
fn render_campaign(spec: &JobSpec, report: &CampaignReport) -> String {
    let mut out = format!(
        "campaign {} seed={:#x} trials={} golden_cycles={}\n",
        render_workload(spec.workload),
        spec.seed,
        spec.trials,
        report.golden_cycles
    );
    let cov = report.coverage();
    out.push_str(&format!(
        "coverage completed={} budget={} abandoned={} retried={}\n",
        cov.completed, cov.budget, cov.abandoned, cov.retried
    ));
    for (i, t) in report.trials.iter().enumerate() {
        out.push_str(&format!(
            "trial {i}: cycle={} outcome={}\n",
            t.injection.cycle,
            t.outcome.label()
        ));
    }
    out
}

fn render_recovery(spec: &JobSpec, report: &RecoveryReport) -> String {
    let mut out = format!(
        "recovery {} seed={:#x} trials={} golden_cycles={}\n",
        render_workload(spec.workload),
        spec.seed,
        spec.trials,
        report.golden_cycles
    );
    let (clean, recovered, unrecoverable) = report.counts();
    out.push_str(&format!(
        "counts clean={clean} recovered={recovered} unrecoverable={unrecoverable}\n"
    ));
    for (i, t) in report.trials.iter().enumerate() {
        out.push_str(&format!(
            "trial {i}: cycle={} outcome={}\n",
            t.injection.cycle,
            t.outcome.label()
        ));
    }
    out
}

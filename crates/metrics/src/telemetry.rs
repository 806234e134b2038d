//! Harness telemetry: span-structured wall-clock instrumentation for
//! the execution harness (campaigns, durable runs, served jobs).
//!
//! Where the rest of this crate observes the *guest* (cycle-domain
//! metrics folded from the trace stream), this module observes the
//! *harness*: how long each campaign trial took, which worker ran it,
//! how many sim-cycles it executed, how often fast-forwarding engaged,
//! how many bytes the durable journal wrote. Spans are recorded as
//! closed intervals ([`SpanRecord`]) into a [`Telemetry`] hub that is
//! `Sync` (one mutex-guarded aggregation; workers time locally and pay
//! a single lock per span) and keeps every rollup in one [`Registry`],
//! updated in place:
//!
//! * per-kind span counts and wall time, per-worker busy time, span
//!   counts, sim-cycles and utilization, and a per-trial wall-time
//!   histogram;
//! * whole-run totals (sim-cycles, retries, retry wall-time, budget
//!   cancellations, abandons, fast-forward engagements, journal bytes)
//!   and, once a server reports to it, the serve lifecycle counters.
//!
//! Two outputs read that one store: Prometheus text exposition
//! ([`Telemetry::to_prometheus`], also an optional periodic snapshot
//! file written atomically via rename), and the human-readable
//! [`Telemetry::summary`] with an optional stderr progress/ETA heartbeat
//! for long campaigns. The typed accessors read it too.
//!
//! **Determinism boundary.** Everything in this module carries
//! wall-clock data and therefore must never leak into the byte-diffed
//! deterministic artifacts (campaign reports, records, journals).
//! Telemetry is strictly an observer: the harness passes
//! `Option<&Telemetry>` and produces byte-identical outputs whether it
//! is `None`, or `Some` at any worker count — asserted by tests and CI.

use crate::registry::{CounterId, GaugeId, HistogramId, Registry};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The kind of harness span a [`SpanRecord`] closes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanKind {
    /// A whole fault/recovery campaign (golden run + all trials).
    Campaign,
    /// The golden (fault-free) reference run of a campaign.
    Golden,
    /// One campaign trial (all retry attempts of one injection).
    Trial,
    /// One durable-journal record append (frame build + write).
    JournalAppend,
    /// One `softsim-serve` job, end to end (queue wait excluded; covers
    /// all retry attempts). Like a campaign it nests leaf
    /// spans, so it is excluded from worker occupancy.
    Job,
}

impl SpanKind {
    /// The Prometheus label value for this kind.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Campaign => "campaign",
            SpanKind::Golden => "golden",
            SpanKind::Trial => "trial",
            SpanKind::JournalAppend => "journal_append",
            SpanKind::Job => "job",
        }
    }
}

/// All span kinds, in declaration order.
pub const SPAN_KINDS: [SpanKind; 5] =
    [SpanKind::Campaign, SpanKind::Golden, SpanKind::Trial, SpanKind::JournalAppend, SpanKind::Job];

/// A `softsim-serve` lifecycle event, counted by the hub and exposed as
/// the `softsim_serve_*` Prometheus families once any is recorded.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServeEvent {
    /// A job passed admission control into the queue.
    Admitted,
    /// A job was rejected or evicted by admission control / load-shedding.
    Shed,
    /// A job attempt failed and was retried.
    Retried,
    /// A job exhausted its retries and was quarantined.
    Quarantined,
    /// A job finished successfully.
    Completed,
    /// A job was served from the memoization cache.
    CacheHit,
    /// A cacheable job missed the memoization cache.
    CacheMiss,
    /// A cache entry was evicted (capacity or CRC corruption).
    CacheEvict,
}

/// A metric family's name and help text.
type Family = (&'static str, &'static str);

const JOBS: Family = ("softsim_serve_jobs_total", "Serve jobs by lifecycle state.");
const CACHE: Family = ("softsim_serve_cache_total", "Memoization cache events.");

/// The family and label that count each [`ServeEvent`], in declaration
/// order.
const SERVE_EVENTS: [(Family, (&str, &str)); 8] = [
    (JOBS, ("state", "admitted")),
    (JOBS, ("state", "shed")),
    (JOBS, ("state", "retried")),
    (JOBS, ("state", "quarantined")),
    (JOBS, ("state", "completed")),
    (CACHE, ("event", "hit")),
    (CACHE, ("event", "miss")),
    (CACHE, ("event", "evict")),
];

/// The serve gauges, in [`Telemetry::set_serve_queue`]'s argument order.
const SERVE_QUEUE: [Family; 4] = [
    ("softsim_serve_queue_depth", "Jobs waiting in the queue."),
    ("softsim_serve_queue_capacity", "Admission-control queue capacity."),
    ("softsim_serve_jobs_running", "Jobs currently executing."),
    ("softsim_serve_ready", "1 while the server accepts work, 0 once shutdown begins."),
];

/// Rollup of [`ServeEvent`] counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Jobs admitted.
    pub admitted: u64,
    /// Jobs shed (rejected or evicted).
    pub shed: u64,
    /// Retry attempts.
    pub retried: u64,
    /// Jobs quarantined.
    pub quarantined: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Cache evictions.
    pub cache_evictions: u64,
}

/// One closed harness span. Workers fill one of these locally (no lock
/// held while the span runs) and hand it to [`Telemetry::record`].
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    /// What kind of work this span covers.
    pub kind: SpanKind,
    /// The worker that ran it (0 for serial runs).
    pub worker: u32,
    /// Wall-clock duration of the span.
    pub wall: Duration,
    /// Sim-cycles executed inside the span (0 where not applicable).
    pub sim_cycles: u64,
    /// Retry attempts consumed inside the span.
    pub retries: u64,
    /// Wall-clock time spent on retry attempts (after the first).
    pub retry_wall: Duration,
    /// 1 if the span's trial was budget-cancelled.
    pub budget_cancelled: u64,
    /// 1 if the span's trial was abandoned (harness error).
    pub abandoned: u64,
    /// Fast-forward jumps taken inside the span.
    pub ff_engagements: u64,
    /// Cycles covered by fast-forward jumps inside the span.
    pub ff_skipped_cycles: u64,
    /// Journal bytes written inside the span.
    pub journal_bytes: u64,
}

impl SpanRecord {
    /// A span with every counter zeroed — callers set what applies.
    pub fn new(kind: SpanKind, worker: u32, wall: Duration) -> SpanRecord {
        SpanRecord {
            kind,
            worker,
            wall,
            sim_cycles: 0,
            retries: 0,
            retry_wall: Duration::ZERO,
            budget_cancelled: 0,
            abandoned: 0,
            ff_engagements: 0,
            ff_skipped_cycles: 0,
            journal_bytes: 0,
        }
    }
}

/// Output configuration for a [`Telemetry`] hub. The default is fully
/// in-memory: no heartbeat, no snapshot file.
#[derive(Clone, Debug, Default)]
pub struct TelemetryConfig {
    /// Print a progress/ETA line to stderr at most this often.
    pub heartbeat: Option<Duration>,
    /// Write a Prometheus-text snapshot to this path at most this often
    /// (atomic: written to `<path>.tmp` then renamed).
    pub snapshot: Option<(PathBuf, Duration)>,
}

/// Rollup for one worker id, as [`Telemetry::worker_stats`] reads it
/// back from the registry.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorkerStats {
    /// Spans recorded by this worker.
    pub spans: u64,
    /// Total wall-clock time this worker spent inside spans.
    pub busy: Duration,
    /// Sim-cycles this worker executed (trial + golden spans).
    pub cycles: u64,
}

/// Histogram bucket bounds for per-trial wall time, in seconds.
pub const TRIAL_WALL_BOUNDS: [f64; 6] = [0.0001, 0.001, 0.01, 0.1, 1.0, 10.0];

/// Registry ids of the run-wide families, registered by
/// [`Telemetry::new`].
#[derive(Debug)]
struct RunIds {
    /// Span counts and wall time, indexed like [`SPAN_KINDS`].
    spans: [CounterId; SPAN_KINDS.len()],
    span_wall: [GaugeId; SPAN_KINDS.len()],
    trial_cycles: CounterId,
    golden_cycles: CounterId,
    retries: CounterId,
    retry_wall: GaugeId,
    budget_cancelled: CounterId,
    abandoned: CounterId,
    ff_engagements: CounterId,
    ff_skipped_cycles: CounterId,
    journal_bytes: CounterId,
    trial_wall: HistogramId,
    run_wall: GaugeId,
    throughput: GaugeId,
    trials_expected: GaugeId,
}

impl RunIds {
    fn register(reg: &mut Registry) -> RunIds {
        let kind = |k: SpanKind| vec![("kind", k.label().to_string())];
        let cycles = |reg: &mut Registry, k: SpanKind| {
            reg.counter(
                "softsim_harness_sim_cycles_total",
                "Sim-cycles executed inside harness spans.",
                kind(k),
            )
        };
        RunIds {
            spans: SPAN_KINDS.map(|k| {
                reg.counter("softsim_harness_spans_total", "Closed harness spans by kind.", kind(k))
            }),
            span_wall: SPAN_KINDS.map(|k| {
                reg.gauge(
                    "softsim_harness_span_wall_seconds_total",
                    "Wall-clock seconds inside harness spans by kind.",
                    kind(k),
                )
            }),
            trial_cycles: cycles(reg, SpanKind::Trial),
            golden_cycles: cycles(reg, SpanKind::Golden),
            retries: reg.counter(
                "softsim_harness_retries_total",
                "Trial retry attempts consumed.",
                Vec::new(),
            ),
            retry_wall: reg.gauge(
                "softsim_harness_retry_wall_seconds",
                "Wall-clock seconds spent on retry attempts.",
                Vec::new(),
            ),
            budget_cancelled: reg.counter(
                "softsim_harness_budget_cancelled_total",
                "Trials cancelled by cycle/wall budgets.",
                Vec::new(),
            ),
            abandoned: reg.counter(
                "softsim_harness_abandoned_total",
                "Trials abandoned after repeated harness errors.",
                Vec::new(),
            ),
            ff_engagements: reg.counter(
                "softsim_harness_ff_engagements_total",
                "Fast-forward jumps taken inside spans.",
                Vec::new(),
            ),
            ff_skipped_cycles: reg.counter(
                "softsim_harness_ff_skipped_cycles_total",
                "Cycles covered by fast-forward jumps inside spans.",
                Vec::new(),
            ),
            journal_bytes: reg.counter(
                "softsim_harness_journal_bytes_total",
                "Durable-journal bytes written inside spans.",
                Vec::new(),
            ),
            trial_wall: reg.histogram(
                "softsim_harness_trial_wall_seconds",
                "Per-trial wall-clock duration.",
                Vec::new(),
                &TRIAL_WALL_BOUNDS,
            ),
            run_wall: reg.gauge(
                "softsim_harness_run_wall_seconds",
                "Wall-clock seconds since the telemetry hub was created.",
                Vec::new(),
            ),
            throughput: reg.gauge(
                "softsim_harness_throughput_cycles_per_sec",
                "Whole-run sim-cycles per wall-clock second.",
                Vec::new(),
            ),
            trials_expected: reg.gauge(
                "softsim_harness_trials_expected",
                "Trials announced via expect_trials.",
                Vec::new(),
            ),
        }
    }
}

/// Registry ids of one worker's families.
#[derive(Clone, Copy, Debug)]
struct WorkerIds {
    spans: CounterId,
    busy: GaugeId,
    cycles: CounterId,
    utilization: GaugeId,
}

/// Registry ids of the `softsim_serve_*` families.
#[derive(Debug)]
struct ServeIds {
    /// Indexed like [`SERVE_EVENTS`].
    events: [CounterId; SERVE_EVENTS.len()],
    /// Indexed like [`SERVE_QUEUE`].
    queue: [GaugeId; SERVE_QUEUE.len()],
}

impl ServeIds {
    fn register(reg: &mut Registry) -> ServeIds {
        ServeIds {
            events: SERVE_EVENTS.map(|((name, help), (key, value))| {
                reg.counter(name, help, vec![(key, value.to_string())])
            }),
            queue: SERVE_QUEUE.map(|(name, help)| reg.gauge(name, help, Vec::new())),
        }
    }
}

/// The hub's state: the registry, the ids of its families and the
/// clocks. Every rollup lives in `reg` and nowhere else.
#[derive(Debug)]
struct Inner {
    reg: Registry,
    run: RunIds,
    /// Indexed by worker id; an id registers every lower id with it.
    workers: Vec<WorkerIds>,
    /// Registered by the first serve call, so a campaign-only hub
    /// exposes no `softsim_serve_*` family.
    serve: Option<ServeIds>,
    started: Instant,
    last_heartbeat: Instant,
    last_snapshot: Instant,
}

impl Inner {
    fn new() -> Inner {
        let mut reg = Registry::new();
        let run = RunIds::register(&mut reg);
        let now = Instant::now();
        Inner {
            reg,
            run,
            workers: Vec::new(),
            serve: None,
            started: now,
            last_heartbeat: now,
            last_snapshot: now,
        }
    }

    /// The ids of worker `w`'s families, registering them (and those of
    /// every lower id not seen yet) on first sight.
    fn worker(&mut self, w: u32) -> WorkerIds {
        while self.workers.len() <= w as usize {
            let label = vec![("worker", self.workers.len().to_string())];
            let reg = &mut self.reg;
            self.workers.push(WorkerIds {
                spans: reg.counter(
                    "softsim_harness_worker_spans_total",
                    "Closed spans per worker.",
                    label.clone(),
                ),
                busy: reg.gauge(
                    "softsim_harness_worker_busy_seconds",
                    "Wall-clock seconds each worker spent inside spans.",
                    label.clone(),
                ),
                cycles: reg.counter(
                    "softsim_harness_worker_sim_cycles_total",
                    "Sim-cycles executed per worker.",
                    label.clone(),
                ),
                utilization: reg.gauge(
                    "softsim_harness_worker_utilization",
                    "Fraction of run wall time each worker spent busy.",
                    label,
                ),
            });
        }
        self.workers[w as usize]
    }

    /// The serve families' ids, registering them on the first call.
    fn serve(&mut self) -> &ServeIds {
        let reg = &mut self.reg;
        self.serve.get_or_insert_with(|| ServeIds::register(reg))
    }

    fn trials(&self) -> u64 {
        self.reg.counter_value(self.run.spans[SpanKind::Trial as usize])
    }

    fn total_cycles(&self) -> u64 {
        self.reg.counter_value(self.run.trial_cycles)
            + self.reg.counter_value(self.run.golden_cycles)
    }

    /// Refreshes the gauges derived from elapsed time (run wall,
    /// throughput, per-worker utilization) and renders the registry.
    fn render(&mut self) -> String {
        let elapsed = self.started.elapsed().as_secs_f64();
        self.reg.set(self.run.run_wall, elapsed);
        self.reg.set(self.run.throughput, per_sec(self.total_cycles() as f64, elapsed));
        for w in &self.workers {
            self.reg.set(w.utilization, per_sec(self.reg.gauge_value(w.busy), elapsed));
        }
        self.reg.to_prometheus()
    }
}

/// Adds `v` to the gauge `id`.
fn add(reg: &mut Registry, id: GaugeId, v: f64) {
    reg.set(id, reg.gauge_value(id) + v);
}

/// `x / elapsed`, or 0 before any time has passed.
fn per_sec(x: f64, elapsed: f64) -> f64 {
    if elapsed > 0.0 {
        x / elapsed
    } else {
        0.0
    }
}

/// A wall-clock sum read back from its seconds gauge. Rounding to the
/// nanosecond undoes the float summation error, so a sum of
/// whole-nanosecond spans reads back exactly.
fn duration(secs: f64) -> Duration {
    Duration::from_nanos((secs * 1e9).round() as u64)
}

/// The harness-telemetry hub: `Sync`, shared by reference across the
/// worker threads of a campaign or service. See the module docs for the
/// span model and the determinism boundary.
#[derive(Debug)]
pub struct Telemetry {
    config: TelemetryConfig,
    inner: Mutex<Inner>,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new(TelemetryConfig::default())
    }
}

impl Telemetry {
    /// A hub with the given output configuration.
    pub fn new(config: TelemetryConfig) -> Telemetry {
        Telemetry { config, inner: Mutex::new(Inner::new()) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Reads the run-wide counter `pick` selects.
    fn counter(&self, pick: impl FnOnce(&RunIds) -> CounterId) -> u64 {
        let inner = self.lock();
        inner.reg.counter_value(pick(&inner.run))
    }

    /// Announces `n` upcoming trials (additive — durable resumes
    /// announce only the missing remainder). Drives the heartbeat's
    /// progress percentage and ETA.
    pub fn expect_trials(&self, n: u64) {
        let inner = &mut *self.lock();
        add(&mut inner.reg, inner.run.trials_expected, n as f64);
    }

    /// Records one closed span: one lock, update the registry in place,
    /// and — when due — a heartbeat line and/or a snapshot file.
    pub fn record(&self, rec: SpanRecord) {
        let mut guard = self.lock();
        let inner = &mut *guard;
        let w = inner.worker(rec.worker);
        let (reg, run) = (&mut inner.reg, &inner.run);
        let k = rec.kind as usize;
        reg.inc(run.spans[k], 1);
        add(reg, run.span_wall[k], rec.wall.as_secs_f64());
        // Aggregate spans (campaign, serve job) cover the whole
        // run and would double-count the leaf spans nested inside them;
        // only leaf spans are worker occupancy.
        if !matches!(rec.kind, SpanKind::Campaign | SpanKind::Job) {
            reg.inc(w.spans, 1);
            add(reg, w.busy, rec.wall.as_secs_f64());
        }
        add(reg, run.retry_wall, rec.retry_wall.as_secs_f64());
        reg.inc(run.retries, rec.retries);
        reg.inc(run.budget_cancelled, rec.budget_cancelled);
        reg.inc(run.abandoned, rec.abandoned);
        reg.inc(run.ff_engagements, rec.ff_engagements);
        reg.inc(run.ff_skipped_cycles, rec.ff_skipped_cycles);
        reg.inc(run.journal_bytes, rec.journal_bytes);
        let cycles = match rec.kind {
            SpanKind::Trial => {
                reg.observe(run.trial_wall, rec.wall.as_secs_f64());
                Some(run.trial_cycles)
            }
            SpanKind::Golden => Some(run.golden_cycles),
            _ => None,
        };
        if let Some(id) = cycles {
            reg.inc(id, rec.sim_cycles);
            reg.inc(w.cycles, rec.sim_cycles);
        }
        if let Some(period) = self.config.heartbeat {
            if inner.last_heartbeat.elapsed() >= period {
                inner.last_heartbeat = Instant::now();
                eprintln!("{}", heartbeat_line(inner));
            }
        }
        if let Some((path, period)) = &self.config.snapshot {
            if inner.last_snapshot.elapsed() >= *period {
                inner.last_snapshot = Instant::now();
                let text = inner.render();
                drop(guard);
                let _ = write_atomic(path, &text);
            }
        }
    }

    /// Flushes the final snapshot (when configured). Call once after
    /// the instrumented run completes so the snapshot file reflects the
    /// finished state, not the last periodic tick.
    pub fn finish(&self) {
        if let Some((path, _)) = &self.config.snapshot {
            let text = self.to_prometheus();
            let _ = write_atomic(path, &text);
        }
    }

    /// Trial spans recorded so far.
    pub fn trial_count(&self) -> u64 {
        self.lock().trials()
    }

    /// Sim-cycles recorded by trial spans.
    pub fn trial_cycles(&self) -> u64 {
        self.counter(|run| run.trial_cycles)
    }

    /// Sim-cycles recorded by golden spans.
    pub fn golden_cycles(&self) -> u64 {
        self.counter(|run| run.golden_cycles)
    }

    /// Journal bytes recorded by journal-append spans.
    pub fn journal_bytes(&self) -> u64 {
        self.counter(|run| run.journal_bytes)
    }

    /// Retry attempts recorded so far.
    pub fn retries(&self) -> u64 {
        self.counter(|run| run.retries)
    }

    /// Wall-clock time recorded as spent on retry attempts.
    pub fn retry_wall(&self) -> Duration {
        let inner = self.lock();
        duration(inner.reg.gauge_value(inner.run.retry_wall))
    }

    /// Fast-forward engagements recorded so far.
    pub fn ff_engagements(&self) -> u64 {
        self.counter(|run| run.ff_engagements)
    }

    /// Sim-cycles covered by fast-forward jumps so far.
    pub fn ff_skipped_cycles(&self) -> u64 {
        self.counter(|run| run.ff_skipped_cycles)
    }

    /// Per-worker rollups, indexed by worker id.
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        let inner = self.lock();
        let reg = &inner.reg;
        inner
            .workers
            .iter()
            .map(|w| WorkerStats {
                spans: reg.counter_value(w.spans),
                busy: duration(reg.gauge_value(w.busy)),
                cycles: reg.counter_value(w.cycles),
            })
            .collect()
    }

    /// Counts one `softsim-serve` lifecycle event. The first call (or
    /// the first [`Telemetry::set_serve_queue`]) registers the
    /// `softsim_serve_*` families — campaign-only users keep the exact
    /// exposition they had before serve existed.
    pub fn serve_event(&self, event: ServeEvent) {
        let mut inner = self.lock();
        let id = inner.serve().events[event as usize];
        inner.reg.inc(id, 1);
    }

    /// Sets the serve queue/readiness gauges (call on every admission,
    /// pop and completion).
    pub fn set_serve_queue(&self, depth: u64, capacity: u64, running: u64, ready: bool) {
        let mut inner = self.lock();
        let ids = inner.serve().queue;
        let values = [depth as f64, capacity as f64, running as f64, if ready { 1.0 } else { 0.0 }];
        for (id, v) in ids.into_iter().zip(values) {
            inner.reg.set(id, v);
        }
    }

    /// The serve lifecycle counters recorded so far.
    pub fn serve_counters(&self) -> ServeCounters {
        let inner = self.lock();
        let Some(s) = &inner.serve else { return ServeCounters::default() };
        let n = |e: ServeEvent| inner.reg.counter_value(s.events[e as usize]);
        ServeCounters {
            admitted: n(ServeEvent::Admitted),
            shed: n(ServeEvent::Shed),
            retried: n(ServeEvent::Retried),
            quarantined: n(ServeEvent::Quarantined),
            completed: n(ServeEvent::Completed),
            cache_hits: n(ServeEvent::CacheHit),
            cache_misses: n(ServeEvent::CacheMiss),
            cache_evictions: n(ServeEvent::CacheEvict),
        }
    }

    /// Prometheus text exposition of the hub's registry (same escaping,
    /// bucket and ordering rules as the guest metrics), with the gauges
    /// derived from elapsed time brought up to date first.
    pub fn to_prometheus(&self) -> String {
        self.lock().render()
    }

    /// Human-readable end-of-run summary: run wall time, throughput,
    /// worker count and per-worker utilization, retry wall-time,
    /// fast-forward engagement and journal accounting. This is the
    /// self-describing wall-clock counterpart of the deterministic
    /// `CampaignReport` — it goes to stderr or logs, never into
    /// byte-diffed artifacts.
    pub fn summary(&self) -> String {
        let inner = self.lock();
        let (reg, run) = (&inner.reg, &inner.run);
        let elapsed = inner.started.elapsed().as_secs_f64();
        let cycles = inner.total_cycles();
        let mut out = String::new();
        out.push_str("harness telemetry summary\n");
        out.push_str(&format!(
            "  run: {:.3}s wall, {} sim-cycles, {:.3e} cycles/sec\n",
            elapsed,
            cycles,
            per_sec(cycles as f64, elapsed),
        ));
        out.push_str(&format!(
            "  trials: {} completed, {} retry attempts ({:.3}s retry wall), {} budget-cancelled, {} abandoned\n",
            inner.trials(),
            reg.counter_value(run.retries),
            reg.gauge_value(run.retry_wall),
            reg.counter_value(run.budget_cancelled),
            reg.counter_value(run.abandoned),
        ));
        out.push_str(&format!(
            "  fast-forward: {} engagements, {} cycles skipped\n",
            reg.counter_value(run.ff_engagements),
            reg.counter_value(run.ff_skipped_cycles),
        ));
        let journal_bytes = reg.counter_value(run.journal_bytes);
        if journal_bytes > 0 {
            out.push_str(&format!(
                "  journal: {} appends, {} bytes\n",
                reg.counter_value(run.spans[SpanKind::JournalAppend as usize]),
                journal_bytes,
            ));
        }
        out.push_str(&format!("  workers: {}\n", inner.workers.len()));
        for (i, w) in inner.workers.iter().enumerate() {
            let busy = reg.gauge_value(w.busy);
            let util = per_sec(busy, elapsed) * 100.0;
            out.push_str(&format!(
                "    worker {i}: {} spans, {:.3}s busy ({util:.1}% utilization), {} sim-cycles\n",
                reg.counter_value(w.spans),
                busy,
                reg.counter_value(w.cycles),
            ));
        }
        out
    }
}

/// One stderr progress/ETA heartbeat line.
fn heartbeat_line(inner: &Inner) -> String {
    let done = inner.trials();
    let expected = inner.reg.gauge_value(inner.run.trials_expected) as u64;
    let elapsed = inner.started.elapsed().as_secs_f64();
    let cycles = inner.total_cycles();
    let rate = per_sec(cycles as f64, elapsed);
    let progress = if expected > 0 {
        let pct = done as f64 / expected as f64 * 100.0;
        let eta = if done > 0 {
            elapsed / done as f64 * expected.saturating_sub(done) as f64
        } else {
            f64::NAN
        };
        format!("{done}/{expected} trials ({pct:.1}%) · ETA {eta:.1}s")
    } else {
        format!("{done} trials")
    };
    format!("[telemetry] {progress} · {cycles} sim-cycles · {rate:.3e} cycles/sec · {elapsed:.1}s elapsed")
}

/// Writes `text` to `<path>.tmp` then renames it over `path`, so a
/// reader never observes a half-written snapshot.
fn write_atomic(path: &std::path::Path, text: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trial(worker: u32, ms: u64, cycles: u64) -> SpanRecord {
        let mut r = SpanRecord::new(SpanKind::Trial, worker, Duration::from_millis(ms));
        r.sim_cycles = cycles;
        r
    }

    #[test]
    fn rollups_reconcile() {
        let t = Telemetry::default();
        t.expect_trials(3);
        let mut g = SpanRecord::new(SpanKind::Golden, 0, Duration::from_millis(2));
        g.sim_cycles = 100;
        t.record(g);
        t.record(trial(0, 5, 1_000));
        t.record(trial(1, 7, 2_000));
        let mut r = trial(0, 11, 4_000);
        r.retries = 2;
        r.retry_wall = Duration::from_millis(6);
        t.record(r);
        assert_eq!(t.trial_count(), 3);
        assert_eq!(t.trial_cycles(), 7_000);
        assert_eq!(t.golden_cycles(), 100);
        assert_eq!(t.retries(), 2);
        assert_eq!(t.retry_wall(), Duration::from_millis(6));
        let workers = t.worker_stats();
        assert_eq!(workers.len(), 2);
        assert_eq!(workers[0].cycles, 5_100);
        assert_eq!(workers[1].cycles, 2_000);
        assert_eq!(workers.iter().map(|w| w.cycles).sum::<u64>(), 7_100);
        assert_eq!(workers[0].spans, 3);
        assert_eq!(workers[0].busy, Duration::from_millis(18));
    }

    #[test]
    fn journal_spans_accumulate_bytes() {
        let t = Telemetry::default();
        let mut r = SpanRecord::new(SpanKind::JournalAppend, 2, Duration::from_micros(30));
        r.journal_bytes = 170;
        t.record(r);
        r.journal_bytes = 30;
        t.record(r);
        assert_eq!(t.journal_bytes(), 200);
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let t = Telemetry::default();
        t.record(trial(0, 5, 1_000));
        let text = t.to_prometheus();
        assert!(text.contains("softsim_harness_spans_total{kind=\"trial\"} 1"));
        assert!(text.contains("softsim_harness_sim_cycles_total{kind=\"trial\"} 1000"));
        assert!(text.contains("softsim_harness_worker_sim_cycles_total{worker=\"0\"} 1000"));
        assert!(text.contains("softsim_harness_trial_wall_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("softsim_harness_trial_wall_seconds_count 1"));
        // Buckets are cumulative and ordered: the 0.01 bucket already
        // holds the 5ms trial.
        let b1 = text.find("le=\"0.001\"").unwrap();
        let b2 = text.find("le=\"0.01\"").unwrap();
        assert!(b1 < b2);
        assert!(text.contains("softsim_harness_trial_wall_seconds_bucket{le=\"0.01\"} 1"));
    }

    /// The value of the sample `key` (`name{labels}`) in `text`.
    fn sample(text: &str, key: &str) -> f64 {
        text.lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no sample {key} in:\n{text}"))
            .parse()
            .unwrap()
    }

    #[test]
    fn trial_wall_sum_is_the_sum_of_the_observed_trials() {
        let t = Telemetry::default();
        t.record(trial(0, 5, 1_000));
        t.record(trial(1, 20_000, 1_000));
        let text = t.to_prometheus();
        let sum = sample(&text, "softsim_harness_trial_wall_seconds_sum");
        assert!((sum - 20.005).abs() < 1e-9, "{text}");
        assert_eq!(sample(&text, "softsim_harness_trial_wall_seconds_bucket{le=\"0.01\"}"), 1.0);
        assert_eq!(sample(&text, "softsim_harness_trial_wall_seconds_bucket{le=\"10\"}"), 1.0);
        assert_eq!(sample(&text, "softsim_harness_trial_wall_seconds_bucket{le=\"+Inf\"}"), 2.0);
        assert_eq!(sample(&text, "softsim_harness_trial_wall_seconds_count"), 2.0);
    }

    /// Every sample key of the exposition after spans from workers 0
    /// and 2, in exposition order; the serve families follow once a
    /// serve call arrives.
    const HARNESS_KEYS: [&str; 43] = [
        "softsim_harness_abandoned_total",
        "softsim_harness_budget_cancelled_total",
        "softsim_harness_ff_engagements_total",
        "softsim_harness_ff_skipped_cycles_total",
        "softsim_harness_journal_bytes_total",
        "softsim_harness_retries_total",
        "softsim_harness_retry_wall_seconds",
        "softsim_harness_run_wall_seconds",
        "softsim_harness_sim_cycles_total{kind=\"golden\"}",
        "softsim_harness_sim_cycles_total{kind=\"trial\"}",
        "softsim_harness_span_wall_seconds_total{kind=\"campaign\"}",
        "softsim_harness_span_wall_seconds_total{kind=\"golden\"}",
        "softsim_harness_span_wall_seconds_total{kind=\"job\"}",
        "softsim_harness_span_wall_seconds_total{kind=\"journal_append\"}",
        "softsim_harness_span_wall_seconds_total{kind=\"trial\"}",
        "softsim_harness_spans_total{kind=\"campaign\"}",
        "softsim_harness_spans_total{kind=\"golden\"}",
        "softsim_harness_spans_total{kind=\"job\"}",
        "softsim_harness_spans_total{kind=\"journal_append\"}",
        "softsim_harness_spans_total{kind=\"trial\"}",
        "softsim_harness_throughput_cycles_per_sec",
        "softsim_harness_trial_wall_seconds_bucket{le=\"0.0001\"}",
        "softsim_harness_trial_wall_seconds_bucket{le=\"0.001\"}",
        "softsim_harness_trial_wall_seconds_bucket{le=\"0.01\"}",
        "softsim_harness_trial_wall_seconds_bucket{le=\"0.1\"}",
        "softsim_harness_trial_wall_seconds_bucket{le=\"1\"}",
        "softsim_harness_trial_wall_seconds_bucket{le=\"10\"}",
        "softsim_harness_trial_wall_seconds_bucket{le=\"+Inf\"}",
        "softsim_harness_trial_wall_seconds_sum",
        "softsim_harness_trial_wall_seconds_count",
        "softsim_harness_trials_expected",
        "softsim_harness_worker_busy_seconds{worker=\"0\"}",
        "softsim_harness_worker_busy_seconds{worker=\"1\"}",
        "softsim_harness_worker_busy_seconds{worker=\"2\"}",
        "softsim_harness_worker_sim_cycles_total{worker=\"0\"}",
        "softsim_harness_worker_sim_cycles_total{worker=\"1\"}",
        "softsim_harness_worker_sim_cycles_total{worker=\"2\"}",
        "softsim_harness_worker_spans_total{worker=\"0\"}",
        "softsim_harness_worker_spans_total{worker=\"1\"}",
        "softsim_harness_worker_spans_total{worker=\"2\"}",
        "softsim_harness_worker_utilization{worker=\"0\"}",
        "softsim_harness_worker_utilization{worker=\"1\"}",
        "softsim_harness_worker_utilization{worker=\"2\"}",
    ];

    const SERVE_KEYS: [&str; 12] = [
        "softsim_serve_cache_total{event=\"evict\"}",
        "softsim_serve_cache_total{event=\"hit\"}",
        "softsim_serve_cache_total{event=\"miss\"}",
        "softsim_serve_jobs_running",
        "softsim_serve_jobs_total{state=\"admitted\"}",
        "softsim_serve_jobs_total{state=\"completed\"}",
        "softsim_serve_jobs_total{state=\"quarantined\"}",
        "softsim_serve_jobs_total{state=\"retried\"}",
        "softsim_serve_jobs_total{state=\"shed\"}",
        "softsim_serve_queue_capacity",
        "softsim_serve_queue_depth",
        "softsim_serve_ready",
    ];

    /// The `name{labels}` key of every sample line, in order.
    fn sample_keys(text: &str) -> Vec<&str> {
        text.lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| l.rsplit_once(' ').expect("sample line has a value").0)
            .collect()
    }

    #[test]
    fn exposition_families_are_pinned() {
        let t = Telemetry::default();
        t.expect_trials(2);
        let mut g = SpanRecord::new(SpanKind::Golden, 0, Duration::from_millis(2));
        g.sim_cycles = 100;
        t.record(g);
        t.record(trial(2, 5, 1_000));
        let mut j = SpanRecord::new(SpanKind::JournalAppend, 2, Duration::from_micros(30));
        j.journal_bytes = 64;
        t.record(j);
        t.record(trial(0, 7, 2_000));
        t.record(SpanRecord::new(SpanKind::Campaign, 0, Duration::from_millis(20)));
        assert_eq!(sample_keys(&t.to_prometheus()), HARNESS_KEYS);

        t.serve_event(ServeEvent::Admitted);
        t.serve_event(ServeEvent::CacheMiss);
        t.serve_event(ServeEvent::Completed);
        t.set_serve_queue(1, 4, 1, true);
        let text = t.to_prometheus();
        let serve_at = HARNESS_KEYS.len();
        assert_eq!(sample_keys(&text)[..serve_at], HARNESS_KEYS);
        assert_eq!(sample_keys(&text)[serve_at..], SERVE_KEYS);
        assert_eq!(text.matches("# TYPE ").count(), 24, "{text}");
    }

    #[test]
    fn snapshot_written_atomically_on_finish() {
        let path = std::env::temp_dir()
            .join(format!("softsim_telemetry_snap_{}.prom", std::process::id()));
        let t = Telemetry::new(TelemetryConfig {
            heartbeat: None,
            snapshot: Some((path.clone(), Duration::from_secs(3600))),
        });
        t.record(trial(0, 1, 500));
        t.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("softsim_harness_spans_total{kind=\"trial\"} 1"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn serve_families_appear_only_once_serve_is_active() {
        let t = Telemetry::default();
        t.record(trial(0, 5, 1_000));
        // A campaign-only hub exposes no serve families at all.
        assert!(!t.to_prometheus().contains("softsim_serve_"));

        t.serve_event(ServeEvent::Admitted);
        t.serve_event(ServeEvent::Admitted);
        t.serve_event(ServeEvent::Shed);
        t.serve_event(ServeEvent::CacheHit);
        t.serve_event(ServeEvent::Completed);
        t.set_serve_queue(3, 8, 2, true);
        let counters = t.serve_counters();
        assert_eq!(counters.admitted, 2);
        assert_eq!(counters.shed, 1);
        assert_eq!(counters.cache_hits, 1);
        let text = t.to_prometheus();
        assert!(text.contains("softsim_serve_jobs_total{state=\"admitted\"} 2"), "{text}");
        assert!(text.contains("softsim_serve_jobs_total{state=\"shed\"} 1"));
        assert!(text.contains("softsim_serve_cache_total{event=\"hit\"} 1"));
        assert!(text.contains("softsim_serve_queue_depth 3"));
        assert!(text.contains("softsim_serve_queue_capacity 8"));
        assert!(text.contains("softsim_serve_jobs_running 2"));
        assert!(text.contains("softsim_serve_ready 1"));
    }

    #[test]
    fn job_spans_do_not_count_as_worker_occupancy() {
        let t = Telemetry::default();
        t.record(SpanRecord::new(SpanKind::Job, 0, Duration::from_millis(50)));
        t.record(trial(0, 5, 1_000));
        let workers = t.worker_stats();
        assert_eq!(workers[0].spans, 1, "the job wrapper is not a leaf span");
        assert_eq!(workers[0].busy, Duration::from_millis(5));
        assert!(t.to_prometheus().contains("softsim_harness_spans_total{kind=\"job\"} 1"));
    }

    #[test]
    fn summary_names_workers_and_retry_wall() {
        let t = Telemetry::default();
        let mut r = trial(1, 5, 1_000);
        r.retries = 1;
        r.retry_wall = Duration::from_millis(2);
        t.record(r);
        let s = t.summary();
        assert!(s.contains("workers: 2"));
        assert!(s.contains("retry wall"));
        assert!(s.contains("worker 1:"));
    }
}

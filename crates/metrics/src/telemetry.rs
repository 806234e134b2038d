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
//! a single lock per span) and rolls them up into:
//!
//! * per-worker busy time, span counts, sim-cycles and utilization;
//! * whole-run totals (trials, retries, retry wall-time, budget
//!   cancellations, abandons, fast-forward engagements, journal bytes);
//! * a sampled whole-run throughput series (sim-cycles/sec over time);
//! * Prometheus text exposition ([`Telemetry::to_prometheus`]) and a
//!   compact JSON summary ([`Telemetry::to_json`]);
//! * an optional periodic snapshot file (Prometheus text, written
//!   atomically via rename) and an optional stderr progress/ETA
//!   heartbeat for long campaigns.
//!
//! **Determinism boundary.** Everything in this module carries
//! wall-clock data and therefore must never leak into the byte-diffed
//! deterministic artifacts (campaign reports, records, journals).
//! Telemetry is strictly an observer: the harness passes
//! `Option<&Telemetry>` and produces byte-identical outputs whether it
//! is `None`, or `Some` at any worker count — asserted by tests and CI.

use crate::registry::{Label, Registry};
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

/// All span kinds, in exposition order.
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
    /// A job was admitted in reduced-fidelity (degraded) mode.
    Degraded,
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

/// Rollup of [`ServeEvent`] counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Jobs admitted.
    pub admitted: u64,
    /// Jobs shed (rejected or evicted).
    pub shed: u64,
    /// Jobs admitted degraded.
    pub degraded: u64,
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

/// Point-in-time service gauges, set by the server on every queue
/// transition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct ServeGauges {
    queue_depth: u64,
    queue_capacity: u64,
    jobs_running: u64,
    ready: bool,
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

/// Rollup for one worker id.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorkerStats {
    /// Spans recorded by this worker.
    pub spans: u64,
    /// Total wall-clock time this worker spent inside spans.
    pub busy: Duration,
    /// Sim-cycles this worker executed (trial + golden spans).
    pub cycles: u64,
}

/// One point of the whole-run throughput series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ThroughputSample {
    /// Seconds since the hub was created.
    pub at_secs: f64,
    /// Cumulative sim-cycles recorded by then (trial + golden spans).
    pub cycles: u64,
}

/// How often the throughput series samples, independent of the
/// heartbeat (which is display-only).
const SAMPLE_PERIOD: Duration = Duration::from_millis(250);

#[derive(Debug)]
struct Inner {
    started: Instant,
    expected_trials: u64,
    kind_count: [u64; SPAN_KINDS.len()],
    kind_wall: [Duration; SPAN_KINDS.len()],
    workers: Vec<WorkerStats>,
    trial_cycles: u64,
    golden_cycles: u64,
    retries: u64,
    retry_wall: Duration,
    budget_cancelled: u64,
    abandoned: u64,
    ff_engagements: u64,
    ff_skipped_cycles: u64,
    journal_bytes: u64,
    trial_wall_hist: Vec<u64>,
    trial_wall_sum: f64,
    serve: ServeCounters,
    serve_gauges: ServeGauges,
    serve_active: bool,
    series: Vec<ThroughputSample>,
    last_sample: Instant,
    last_heartbeat: Instant,
    last_snapshot: Instant,
}

/// Histogram bucket bounds for per-trial wall time, in seconds.
pub const TRIAL_WALL_BOUNDS: [f64; 6] = [0.0001, 0.001, 0.01, 0.1, 1.0, 10.0];

impl Inner {
    fn new() -> Inner {
        let now = Instant::now();
        Inner {
            started: now,
            expected_trials: 0,
            kind_count: [0; SPAN_KINDS.len()],
            kind_wall: [Duration::ZERO; SPAN_KINDS.len()],
            workers: Vec::new(),
            trial_cycles: 0,
            golden_cycles: 0,
            retries: 0,
            retry_wall: Duration::ZERO,
            budget_cancelled: 0,
            abandoned: 0,
            ff_engagements: 0,
            ff_skipped_cycles: 0,
            journal_bytes: 0,
            trial_wall_hist: vec![0; TRIAL_WALL_BOUNDS.len()],
            trial_wall_sum: 0.0,
            serve: ServeCounters::default(),
            serve_gauges: ServeGauges::default(),
            serve_active: false,
            series: Vec::new(),
            last_sample: now,
            last_heartbeat: now,
            last_snapshot: now,
        }
    }

    fn total_cycles(&self) -> u64 {
        self.trial_cycles + self.golden_cycles
    }
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

    /// Announces `n` upcoming trials (additive — durable resumes
    /// announce only the missing remainder). Drives the heartbeat's
    /// progress percentage and ETA.
    pub fn expect_trials(&self, n: u64) {
        self.lock().expected_trials += n;
    }

    /// Records one closed span: one lock, aggregate, and — when due —
    /// a throughput sample, a heartbeat line and/or a snapshot file.
    pub fn record(&self, rec: SpanRecord) {
        let mut inner = self.lock();
        let k = SPAN_KINDS.iter().position(|&s| s == rec.kind).unwrap();
        inner.kind_count[k] += 1;
        inner.kind_wall[k] += rec.wall;
        let w = rec.worker as usize;
        if inner.workers.len() <= w {
            inner.workers.resize(w + 1, WorkerStats::default());
        }
        // Aggregate spans (campaign, serve job) cover the whole
        // run and would double-count the leaf spans nested inside them;
        // only leaf spans are worker occupancy.
        if !matches!(rec.kind, SpanKind::Campaign | SpanKind::Job) {
            inner.workers[w].spans += 1;
            inner.workers[w].busy += rec.wall;
        }
        inner.retries += rec.retries;
        inner.retry_wall += rec.retry_wall;
        inner.budget_cancelled += rec.budget_cancelled;
        inner.abandoned += rec.abandoned;
        inner.ff_engagements += rec.ff_engagements;
        inner.ff_skipped_cycles += rec.ff_skipped_cycles;
        inner.journal_bytes += rec.journal_bytes;
        match rec.kind {
            SpanKind::Trial => {
                inner.trial_cycles += rec.sim_cycles;
                inner.workers[w].cycles += rec.sim_cycles;
                let secs = rec.wall.as_secs_f64();
                inner.trial_wall_sum += secs;
                for (i, b) in TRIAL_WALL_BOUNDS.iter().enumerate() {
                    if secs <= *b {
                        inner.trial_wall_hist[i] += 1;
                        break;
                    }
                }
            }
            SpanKind::Golden => {
                inner.golden_cycles += rec.sim_cycles;
                inner.workers[w].cycles += rec.sim_cycles;
            }
            _ => {}
        }
        if inner.last_sample.elapsed() >= SAMPLE_PERIOD {
            inner.last_sample = Instant::now();
            let sample = ThroughputSample {
                at_secs: inner.started.elapsed().as_secs_f64(),
                cycles: inner.total_cycles(),
            };
            inner.series.push(sample);
        }
        if let Some(period) = self.config.heartbeat {
            if inner.last_heartbeat.elapsed() >= period {
                inner.last_heartbeat = Instant::now();
                eprintln!("{}", heartbeat_line(&inner));
            }
        }
        if let Some((path, period)) = &self.config.snapshot {
            if inner.last_snapshot.elapsed() >= *period {
                inner.last_snapshot = Instant::now();
                let text = build_prometheus(&inner);
                drop(inner);
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
        let inner = self.lock();
        inner.kind_count[SPAN_KINDS.iter().position(|&s| s == SpanKind::Trial).unwrap()]
    }

    /// Sim-cycles recorded by trial spans.
    pub fn trial_cycles(&self) -> u64 {
        self.lock().trial_cycles
    }

    /// Sim-cycles recorded by golden spans.
    pub fn golden_cycles(&self) -> u64 {
        self.lock().golden_cycles
    }

    /// Journal bytes recorded by journal-append spans.
    pub fn journal_bytes(&self) -> u64 {
        self.lock().journal_bytes
    }

    /// Retry attempts recorded so far.
    pub fn retries(&self) -> u64 {
        self.lock().retries
    }

    /// Wall-clock time recorded as spent on retry attempts.
    pub fn retry_wall(&self) -> Duration {
        self.lock().retry_wall
    }

    /// Fast-forward engagements recorded so far.
    pub fn ff_engagements(&self) -> u64 {
        self.lock().ff_engagements
    }

    /// Per-worker rollups, indexed by worker id.
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.lock().workers.clone()
    }

    /// Counts one `softsim-serve` lifecycle event. The first call (or
    /// the first [`Telemetry::set_serve_queue`]) switches the
    /// `softsim_serve_*` families into the exposition — campaign-only
    /// users keep the exact exposition they had before serve existed.
    pub fn serve_event(&self, event: ServeEvent) {
        let mut inner = self.lock();
        inner.serve_active = true;
        let s = &mut inner.serve;
        match event {
            ServeEvent::Admitted => s.admitted += 1,
            ServeEvent::Shed => s.shed += 1,
            ServeEvent::Degraded => s.degraded += 1,
            ServeEvent::Retried => s.retried += 1,
            ServeEvent::Quarantined => s.quarantined += 1,
            ServeEvent::Completed => s.completed += 1,
            ServeEvent::CacheHit => s.cache_hits += 1,
            ServeEvent::CacheMiss => s.cache_misses += 1,
            ServeEvent::CacheEvict => s.cache_evictions += 1,
        }
    }

    /// Sets the serve queue/readiness gauges (call on every admission,
    /// pop and completion).
    pub fn set_serve_queue(&self, depth: u64, capacity: u64, running: u64, ready: bool) {
        let mut inner = self.lock();
        inner.serve_active = true;
        inner.serve_gauges = ServeGauges {
            queue_depth: depth,
            queue_capacity: capacity,
            jobs_running: running,
            ready,
        };
    }

    /// The serve lifecycle counters recorded so far.
    pub fn serve_counters(&self) -> ServeCounters {
        self.lock().serve
    }

    /// The sampled whole-run throughput series.
    pub fn throughput_series(&self) -> Vec<ThroughputSample> {
        self.lock().series.clone()
    }

    /// Prometheus text exposition of the current rollups, rendered
    /// through the crate's [`Registry`] (same escaping, bucket and
    /// ordering rules as the guest metrics).
    pub fn to_prometheus(&self) -> String {
        build_prometheus(&self.lock())
    }

    /// Compact JSON summary of the current rollups (aggregates,
    /// per-worker stats and the throughput series).
    pub fn to_json(&self) -> String {
        build_json(&self.lock())
    }

    /// Human-readable end-of-run summary: run wall time, throughput,
    /// worker count and per-worker utilization, retry wall-time,
    /// fast-forward engagement and journal accounting. This is the
    /// self-describing wall-clock counterpart of the deterministic
    /// `CampaignReport` — it goes to stderr or logs, never into
    /// byte-diffed artifacts.
    pub fn summary(&self) -> String {
        let inner = self.lock();
        let elapsed = inner.started.elapsed().as_secs_f64();
        let cycles = inner.total_cycles();
        let mut out = String::new();
        out.push_str("harness telemetry summary\n");
        out.push_str(&format!(
            "  run: {:.3}s wall, {} sim-cycles, {:.3e} cycles/sec\n",
            elapsed,
            cycles,
            if elapsed > 0.0 { cycles as f64 / elapsed } else { 0.0 },
        ));
        let trial_idx = SPAN_KINDS.iter().position(|&s| s == SpanKind::Trial).unwrap();
        out.push_str(&format!(
            "  trials: {} completed, {} retry attempts ({:.3}s retry wall), {} budget-cancelled, {} abandoned\n",
            inner.kind_count[trial_idx],
            inner.retries,
            inner.retry_wall.as_secs_f64(),
            inner.budget_cancelled,
            inner.abandoned,
        ));
        out.push_str(&format!(
            "  fast-forward: {} engagements, {} cycles skipped\n",
            inner.ff_engagements, inner.ff_skipped_cycles,
        ));
        if inner.journal_bytes > 0 {
            let idx = SPAN_KINDS.iter().position(|&s| s == SpanKind::JournalAppend).unwrap();
            out.push_str(&format!(
                "  journal: {} appends, {} bytes\n",
                inner.kind_count[idx], inner.journal_bytes,
            ));
        }
        out.push_str(&format!("  workers: {}\n", inner.workers.len()));
        for (i, w) in inner.workers.iter().enumerate() {
            let util = if elapsed > 0.0 { w.busy.as_secs_f64() / elapsed * 100.0 } else { 0.0 };
            out.push_str(&format!(
                "    worker {i}: {} spans, {:.3}s busy ({util:.1}% utilization), {} sim-cycles\n",
                w.spans,
                w.busy.as_secs_f64(),
                w.cycles,
            ));
        }
        out
    }
}

/// One stderr progress/ETA heartbeat line.
fn heartbeat_line(inner: &Inner) -> String {
    let trial_idx = SPAN_KINDS.iter().position(|&s| s == SpanKind::Trial).unwrap();
    let done = inner.kind_count[trial_idx];
    let elapsed = inner.started.elapsed().as_secs_f64();
    let cycles = inner.total_cycles();
    let rate = if elapsed > 0.0 { cycles as f64 / elapsed } else { 0.0 };
    let progress = if inner.expected_trials > 0 {
        let pct = done as f64 / inner.expected_trials as f64 * 100.0;
        let eta = if done > 0 {
            elapsed / done as f64 * inner.expected_trials.saturating_sub(done) as f64
        } else {
            f64::NAN
        };
        format!("{done}/{} trials ({pct:.1}%) · ETA {eta:.1}s", inner.expected_trials)
    } else {
        format!("{done} trials")
    };
    format!("[telemetry] {progress} · {cycles} sim-cycles · {rate:.3e} cycles/sec · {elapsed:.1}s elapsed")
}

fn build_prometheus(inner: &Inner) -> String {
    let mut reg = Registry::new();
    let elapsed = inner.started.elapsed().as_secs_f64();
    for (k, kind) in SPAN_KINDS.iter().enumerate() {
        let labels: Vec<Label> = vec![("kind", kind.label().to_string())];
        let c = reg.counter(
            "softsim_harness_spans_total",
            "Closed harness spans by kind.",
            labels.clone(),
        );
        reg.inc(c, inner.kind_count[k]);
        let g = reg.gauge(
            "softsim_harness_span_wall_seconds_total",
            "Wall-clock seconds inside harness spans by kind.",
            labels,
        );
        reg.set(g, inner.kind_wall[k].as_secs_f64());
    }
    let c = reg.counter(
        "softsim_harness_sim_cycles_total",
        "Sim-cycles executed inside harness spans.",
        vec![("kind", "trial".to_string())],
    );
    reg.inc(c, inner.trial_cycles);
    let c = reg.counter(
        "softsim_harness_sim_cycles_total",
        "Sim-cycles executed inside harness spans.",
        vec![("kind", "golden".to_string())],
    );
    reg.inc(c, inner.golden_cycles);
    for (i, w) in inner.workers.iter().enumerate() {
        let labels: Vec<Label> = vec![("worker", i.to_string())];
        let c = reg.counter(
            "softsim_harness_worker_spans_total",
            "Closed spans per worker.",
            labels.clone(),
        );
        reg.inc(c, w.spans);
        let g = reg.gauge(
            "softsim_harness_worker_busy_seconds",
            "Wall-clock seconds each worker spent inside spans.",
            labels.clone(),
        );
        reg.set(g, w.busy.as_secs_f64());
        let c = reg.counter(
            "softsim_harness_worker_sim_cycles_total",
            "Sim-cycles executed per worker.",
            labels.clone(),
        );
        reg.inc(c, w.cycles);
        let g = reg.gauge(
            "softsim_harness_worker_utilization",
            "Fraction of run wall time each worker spent busy.",
            labels,
        );
        reg.set(g, if elapsed > 0.0 { w.busy.as_secs_f64() / elapsed } else { 0.0 });
    }
    let c =
        reg.counter("softsim_harness_retries_total", "Trial retry attempts consumed.", Vec::new());
    reg.inc(c, inner.retries);
    let g = reg.gauge(
        "softsim_harness_retry_wall_seconds",
        "Wall-clock seconds spent on retry attempts.",
        Vec::new(),
    );
    reg.set(g, inner.retry_wall.as_secs_f64());
    let c = reg.counter(
        "softsim_harness_budget_cancelled_total",
        "Trials cancelled by cycle/wall budgets.",
        Vec::new(),
    );
    reg.inc(c, inner.budget_cancelled);
    let c = reg.counter(
        "softsim_harness_abandoned_total",
        "Trials abandoned after repeated harness errors.",
        Vec::new(),
    );
    reg.inc(c, inner.abandoned);
    let c = reg.counter(
        "softsim_harness_ff_engagements_total",
        "Fast-forward jumps taken inside spans.",
        Vec::new(),
    );
    reg.inc(c, inner.ff_engagements);
    let c = reg.counter(
        "softsim_harness_ff_skipped_cycles_total",
        "Cycles covered by fast-forward jumps inside spans.",
        Vec::new(),
    );
    reg.inc(c, inner.ff_skipped_cycles);
    let c = reg.counter(
        "softsim_harness_journal_bytes_total",
        "Durable-journal bytes written inside spans.",
        Vec::new(),
    );
    reg.inc(c, inner.journal_bytes);
    let h = reg.histogram(
        "softsim_harness_trial_wall_seconds",
        "Per-trial wall-clock duration.",
        Vec::new(),
        &TRIAL_WALL_BOUNDS,
    );
    // Replay the pre-bucketed counts through the registry histogram so
    // the exposition (cumulative buckets, +Inf, sum/count) is rendered
    // by the one shared implementation.
    for (i, n) in inner.trial_wall_hist.iter().enumerate() {
        for _ in 0..*n {
            reg.observe(h, TRIAL_WALL_BOUNDS[i]);
        }
    }
    let trial_idx = SPAN_KINDS.iter().position(|&s| s == SpanKind::Trial).unwrap();
    let bucketed: u64 = inner.trial_wall_hist.iter().sum();
    for _ in bucketed..inner.kind_count[trial_idx] {
        reg.observe(h, TRIAL_WALL_BOUNDS[TRIAL_WALL_BOUNDS.len() - 1] + 1.0);
    }
    let g = reg.gauge(
        "softsim_harness_run_wall_seconds",
        "Wall-clock seconds since the telemetry hub was created.",
        Vec::new(),
    );
    reg.set(g, elapsed);
    let g = reg.gauge(
        "softsim_harness_throughput_cycles_per_sec",
        "Whole-run sim-cycles per wall-clock second.",
        Vec::new(),
    );
    reg.set(g, if elapsed > 0.0 { inner.total_cycles() as f64 / elapsed } else { 0.0 });
    let g = reg.gauge(
        "softsim_harness_trials_expected",
        "Trials announced via expect_trials.",
        Vec::new(),
    );
    reg.set(g, inner.expected_trials as f64);
    if inner.serve_active {
        let s = &inner.serve;
        for (state, n) in [
            ("admitted", s.admitted),
            ("shed", s.shed),
            ("degraded", s.degraded),
            ("retried", s.retried),
            ("quarantined", s.quarantined),
            ("completed", s.completed),
        ] {
            let c = reg.counter(
                "softsim_serve_jobs_total",
                "Serve jobs by lifecycle state.",
                vec![("state", state.to_string())],
            );
            reg.inc(c, n);
        }
        for (event, n) in
            [("hit", s.cache_hits), ("miss", s.cache_misses), ("evict", s.cache_evictions)]
        {
            let c = reg.counter(
                "softsim_serve_cache_total",
                "Memoization cache events.",
                vec![("event", event.to_string())],
            );
            reg.inc(c, n);
        }
        let q = inner.serve_gauges;
        let g = reg.gauge("softsim_serve_queue_depth", "Jobs waiting in the queue.", Vec::new());
        reg.set(g, q.queue_depth as f64);
        let g = reg.gauge(
            "softsim_serve_queue_capacity",
            "Admission-control queue capacity.",
            Vec::new(),
        );
        reg.set(g, q.queue_capacity as f64);
        let g = reg.gauge("softsim_serve_jobs_running", "Jobs currently executing.", Vec::new());
        reg.set(g, q.jobs_running as f64);
        let g = reg.gauge(
            "softsim_serve_ready",
            "1 while the server accepts work, 0 once shutdown begins.",
            Vec::new(),
        );
        reg.set(g, if q.ready { 1.0 } else { 0.0 });
    }
    reg.to_prometheus()
}

fn build_json(inner: &Inner) -> String {
    let elapsed = inner.started.elapsed().as_secs_f64();
    let trial_idx = SPAN_KINDS.iter().position(|&s| s == SpanKind::Trial).unwrap();
    let append_idx = SPAN_KINDS.iter().position(|&s| s == SpanKind::JournalAppend).unwrap();
    let mut workers = String::new();
    for (i, w) in inner.workers.iter().enumerate() {
        if i > 0 {
            workers.push(',');
        }
        workers.push_str(&format!(
            "{{\"worker\":{i},\"spans\":{},\"busy_seconds\":{},\"sim_cycles\":{},\"utilization\":{}}}",
            w.spans,
            w.busy.as_secs_f64(),
            w.cycles,
            if elapsed > 0.0 { w.busy.as_secs_f64() / elapsed } else { 0.0 },
        ));
    }
    let mut series = String::new();
    for (i, s) in inner.series.iter().enumerate() {
        if i > 0 {
            series.push(',');
        }
        series.push_str(&format!("{{\"at_secs\":{},\"sim_cycles\":{}}}", s.at_secs, s.cycles));
    }
    format!(
        "{{\"run_wall_seconds\":{},\"trials\":{},\"expected_trials\":{},\"sim_cycles\":{},\
         \"cycles_per_sec\":{},\"retries\":{},\"retry_wall_seconds\":{},\
         \"budget_cancelled\":{},\"abandoned\":{},\"ff_engagements\":{},\
         \"ff_skipped_cycles\":{},\"journal_appends\":{},\"journal_bytes\":{},\
         \"workers\":[{}],\"throughput_series\":[{}]}}",
        elapsed,
        inner.kind_count[trial_idx],
        inner.expected_trials,
        inner.total_cycles(),
        if elapsed > 0.0 { inner.total_cycles() as f64 / elapsed } else { 0.0 },
        inner.retries,
        inner.retry_wall.as_secs_f64(),
        inner.budget_cancelled,
        inner.abandoned,
        inner.ff_engagements,
        inner.ff_skipped_cycles,
        inner.kind_count[append_idx],
        inner.journal_bytes,
        workers,
        series,
    )
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

    #[test]
    fn json_summary_is_parseable() {
        let t = Telemetry::default();
        t.expect_trials(2);
        t.record(trial(0, 5, 1_000));
        t.record(trial(1, 5, 2_000));
        let v = softsim_trace::json::parse(&t.to_json()).expect("valid JSON");
        assert_eq!(v.get("trials").and_then(|x| x.as_f64()), Some(2.0));
        assert_eq!(v.get("sim_cycles").and_then(|x| x.as_f64()), Some(3_000.0));
        assert_eq!(v.get("workers").and_then(|x| x.as_array()).map(|a| a.len()), Some(2));
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

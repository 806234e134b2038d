//! Tracing-overhead guard: the observability layer must be free when it
//! is off. The untraced configuration (no sink attached — the default
//! for every workload in the repo) runs the Table II ISS workload
//! against the instrumented-but-null configuration (a `NullSink`
//! attached, every event constructed and dispatched) and asserts the
//! untraced path is not measurably slower — within 2% of the null-sink
//! path even though it does strictly less work.
//!
//! The metrics layer rides the same plumbing, so the guard extends to
//! it: a configuration with a `MetricsCollector` instantiated but *not*
//! attached (metrics off — the default) must also stay within 2% of the
//! null-sink path. The new metric-feeding events (register writebacks,
//! bus transfers, block activity) sit behind the same single tracing
//! guard, so metrics-off costs nothing the guard would catch.
//!
//! The FSL hardening layer gets the same treatment: with the SEC-DED
//! codec disabled (the default), every push/pop pays one predictable
//! branch on the codec flag and nothing else, so a full ECC-off
//! co-simulation does strictly less work than the identical ECC-on run
//! and must not be measurably slower than it — hardening you did not
//! ask for is free.
//!
//! The guest profiler follows the same contract: it is an ordinary
//! trace sink (a `GuestProfile` passed to `CoSim::attach_trace`), so
//! with none attached (the default) no sink is wired and the fast paths
//! stay engaged. A profiler-off co-simulation does strictly less work
//! than the identical run with a profile attached and must stay within
//! 2% of it.
//!
//! Harness telemetry gets the same contract: a plain campaign
//! (telemetry off — every `Option<&Telemetry>` is `None`, one
//! predictable branch per trial) sweeps the same seeded plan as an
//! instrumented run that additionally records a span per trial into an
//! in-memory telemetry aggregator. The off run does strictly less work
//! and must stay within 2% of the on run, and the two reports are
//! asserted byte-identical first.
//!
//! Campaign journaling gets the same guard: a plain in-memory campaign
//! (journaling off — an `Exec` without a journal) sweeps the same
//! seeded plan as the durable journaled runner, which additionally
//! encodes and appends every trial to an `SSJL` journal. The plain run
//! does strictly less work and must stay within 2% of the journaled
//! one — durability costs nothing when you do not ask for it — and the
//! two reports are asserted byte-identical first.
//!
//! The simulation service is the last guard: running a campaign
//! directly (serve off — the default for everything else in the repo)
//! must stay within 2% of submitting the identical campaign through an
//! in-process `softsim_serve::Server` (cache bypassed, non-durable),
//! whose admission queue and result plumbing wrap the same simulation.
//! The served report is asserted equal to the direct run's first, line
//! for line. The server runs a job on its worker thread, so the direct
//! campaign runs on a worker thread of its own too, handed each job and
//! handing back each report through channels: both sides pay a thread
//! hand-off, and the ratio measures the service's own work.
//!
//! Every guard is one `(name, repeats, off, on)` row of a table. The
//! report equality pre-checks run first; then all rows are sampled in
//! one interleaved loop (off, on, off, on, ... across every row) so
//! frequency scaling and cache warm-up hit both configurations equally,
//! and the minima of each row are asserted within the same 2% bound in
//! one loop (minimum wall time is the standard low-noise estimator for
//! same-machine A/B timing). One sample of a row is the summed wall
//! time of `repeats` runs of each side, the same count on both sides and
//! the runs alternating off, on, off, on, chosen so that a sample lasts
//! at least about 50 ms on the off side: a single campaign run takes
//! about 2 ms, short enough for one scheduler hiccup on a loaded
//! machine to exceed the 2% bound by itself. The rows whose two sides
//! do almost the same work (hardening, telemetry, journaling, serve)
//! sample at least 100 ms per side, because there the machine's
//! run-to-run swing is closest to the difference the guard looks for.

use softsim_bus::FslBank;
use softsim_cosim::CoSimStop;
use softsim_iss::{Cpu, StopReason};
use softsim_metrics::telemetry::{Telemetry, TelemetryConfig};
use softsim_metrics::MetricsCollector;
use softsim_resilience::{CampaignConfig, Exec};
use softsim_trace::{shared, GuestProfile, NullSink};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SAMPLES: usize = 15;

fn run_untraced(img: &softsim_isa::Image) -> Duration {
    let mut cpu = Cpu::with_default_memory(img);
    let mut fsl = FslBank::default();
    let start = Instant::now();
    assert_eq!(cpu.run(&mut fsl, u64::MAX / 2), StopReason::Halted);
    let wall = start.elapsed();
    black_box(cpu.stats().cycles);
    wall
}

fn run_null_traced(img: &softsim_isa::Image) -> Duration {
    let mut cpu = Cpu::with_default_memory(img);
    let mut fsl = FslBank::default();
    let sink = shared(Rc::new(RefCell::new(NullSink)));
    cpu.attach_trace(sink.clone());
    fsl.attach_trace(sink);
    let start = Instant::now();
    assert_eq!(cpu.run(&mut fsl, u64::MAX / 2), StopReason::Halted);
    let wall = start.elapsed();
    black_box(cpu.stats().cycles);
    wall
}

fn run_metrics_off(img: &softsim_isa::Image) -> Duration {
    // Metrics off: the collector exists (registry built, windows ready)
    // but no sink is attached, so the hot path is identical to the
    // untraced configuration — one predictable branch per emit site.
    let collector = MetricsCollector::new(256);
    let mut cpu = Cpu::with_default_memory(img);
    let mut fsl = FslBank::default();
    let start = Instant::now();
    assert_eq!(cpu.run(&mut fsl, u64::MAX / 2), StopReason::Halted);
    let wall = start.elapsed();
    black_box(cpu.stats().cycles);
    black_box(collector.to_prometheus().len());
    wall
}

fn run_cosim_ecc(ecc: bool) -> Duration {
    // The FSL-heavy hardware-accelerated workload: every batch word
    // crosses the codec-guarded push/pop paths in both directions.
    let mut sim = softsim_bench::workloads::cordic_cosim_long(24, Some(4));
    sim.set_fsl_ecc(ecc);
    let start = Instant::now();
    assert_eq!(sim.run(u64::MAX / 2), CoSimStop::Halted);
    let wall = start.elapsed();
    black_box(sim.cpu_stats().cycles);
    wall
}

fn run_cosim_profiling(on: bool) -> Duration {
    // Profiler off is the default; on attaches a per-PC collector as the
    // trace sink, which (like any sink) disengages the fast paths, so the
    // off configuration does strictly less work than the on one.
    let mut sim = softsim_bench::workloads::cordic_cosim_long(24, Some(4));
    let profile = Rc::new(RefCell::new(GuestProfile::new()));
    if on {
        sim.attach_trace(shared(profile.clone()));
    }
    let start = Instant::now();
    assert_eq!(sim.run(u64::MAX / 2), CoSimStop::Halted);
    let wall = start.elapsed();
    black_box(sim.cpu_stats().cycles);
    black_box(profile.borrow().total_cycles());
    wall
}

/// The durable bench's seeded CORDIC campaign under `exec`.
fn campaign(exec: Exec<'_>) -> softsim_resilience::CampaignReport {
    use softsim_bench::faults::{cordic_campaign, REPORT_SEED};
    let trials = softsim_bench::durable::DURABLE_TRIALS;
    cordic_campaign(REPORT_SEED, trials, CampaignConfig::default(), exec)
}

/// Wall time of one campaign under `exec`. Plan construction is included
/// on both sides of every campaign row, so the ratio isolates the
/// feature's delta.
fn time_campaign(exec: Exec<'_>) -> Duration {
    let start = Instant::now();
    let report = campaign(exec);
    let wall = start.elapsed();
    black_box(report.trials.len());
    wall
}

fn run_campaign_telemetry() -> Duration {
    // Telemetry on, in-memory only: spans aggregate under a mutex, no
    // heartbeat or snapshot I/O. The report must equal the plain run's.
    let t = Telemetry::new(TelemetryConfig::default());
    let wall = time_campaign(Exec { telemetry: Some(&t), ..Exec::default() });
    black_box(t.trial_cycles());
    wall
}

const SERVE_SEED: u64 = 0x00FF_10AD;
const SERVE_TRIALS: u32 = 12;

fn serve_spec() -> softsim_serve::JobSpec {
    softsim_serve::JobSpec {
        kind: softsim_serve::JobKind::Campaign,
        workload: softsim_serve::Workload::Cordic { iterations: 8, p: 2 },
        seed: SERVE_SEED,
        trials: SERVE_TRIALS,
        durable: false,
        use_cache: false,
        ..softsim_serve::JobSpec::default()
    }
}

fn serve_off_campaign() -> softsim_resilience::CampaignReport {
    // Serve off: the same plan, simulator and runner the service's
    // catalog wires up, invoked directly with no queue, no worker
    // hand-off and no result plumbing.
    use softsim_serve::catalog;
    let spec = serve_spec();
    let plan = catalog::campaign_plan(spec.workload, spec.seed, spec.trials);
    let (base, n) = catalog::observe_window(spec.workload);
    let make_sim = || catalog::build_sim(spec.workload, false);
    let observe = move |s: &softsim_cosim::CoSim| catalog::observe_words(s, base, n);
    let (report, _) = softsim_resilience::run(
        softsim_resilience::Sims::Build(&make_sim),
        &plan,
        &observe,
        &CampaignConfig::default(),
        Exec::default(),
    )
    .expect("no journal");
    report
}

/// A thread that runs [`serve_off_campaign`] once per job it is handed
/// and sends the report back: the direct side's counterpart of the
/// server's worker thread.
struct DirectWorker {
    jobs: Option<Sender<()>>,
    reports: Receiver<softsim_resilience::CampaignReport>,
    thread: Option<JoinHandle<()>>,
}

impl DirectWorker {
    fn start() -> DirectWorker {
        let (jobs, job_rx) = channel::<()>();
        let (report_tx, reports) = channel();
        let thread = std::thread::spawn(move || {
            while job_rx.recv().is_ok() {
                if report_tx.send(serve_off_campaign()).is_err() {
                    break;
                }
            }
        });
        DirectWorker { jobs: Some(jobs), reports, thread: Some(thread) }
    }

    /// Hands the worker one campaign and waits for its report.
    fn run(&self) -> softsim_resilience::CampaignReport {
        self.jobs.as_ref().expect("worker running").send(()).expect("worker alive");
        self.reports.recv().expect("worker answers")
    }
}

impl Drop for DirectWorker {
    fn drop(&mut self) {
        // Closing the job channel ends the worker's loop.
        self.jobs = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn run_serve_off(worker: &DirectWorker) -> Duration {
    let start = Instant::now();
    let report = worker.run();
    let wall = start.elapsed();
    black_box(report.trials.len());
    wall
}

fn run_serve_on(server: &softsim_serve::Server) -> Duration {
    let start = Instant::now();
    let result = server.run(serve_spec()).expect("campaign admitted");
    let wall = start.elapsed();
    assert_eq!(result.state, softsim_serve::JobState::Done);
    black_box(result.report.len());
    wall
}

/// One overhead guard: the feature off must stay within 2% of it on,
/// each side sampled as the sum of `repeats` runs.
type Guard<'a> =
    (&'static str, u32, Box<dyn Fn() -> Duration + 'a>, Box<dyn Fn() -> Duration + 'a>);

fn main() {
    let img = softsim_bench::workloads::cordic_sw_image(24);
    let journal =
        std::env::temp_dir().join(format!("softsim_overhead_{}.ssjl", std::process::id()));
    let journaled = || softsim_bench::durable::journaled(&journal, false, 1);
    // The journaled report must be the plain report, byte for byte —
    // the overhead comparison is only meaningful between equal runs.
    assert_eq!(
        campaign(Exec::default()),
        campaign(journaled()),
        "plain and journaled campaigns must agree bit for bit"
    );
    // The served campaign must be the direct campaign, line for line —
    // the service wraps the simulation, it must never change it.
    let serve_server = softsim_serve::Server::start(softsim_serve::ServeConfig {
        workers: 1,
        spool: std::env::temp_dir().join(format!("softsim_overhead_serve_{}", std::process::id())),
        ..softsim_serve::ServeConfig::default()
    })
    .expect("serve starts");
    let direct_worker = DirectWorker::start();
    {
        let served = serve_server.run(serve_spec()).expect("served campaign");
        let direct = direct_worker.run();
        let mut expected = format!(
            "campaign cordic iters=8 p=2 seed={SERVE_SEED:#x} trials={SERVE_TRIALS} \
             golden_cycles={}\n",
            direct.golden_cycles
        );
        let cov = direct.coverage();
        expected.push_str(&format!(
            "coverage completed={} budget={} abandoned={} retried={}\n",
            cov.completed, cov.budget, cov.abandoned, cov.retried
        ));
        for (i, t) in direct.trials.iter().enumerate() {
            expected.push_str(&format!(
                "trial {i}: cycle={} outcome={}\n",
                t.injection.cycle,
                t.outcome.label()
            ));
        }
        assert_eq!(
            served.report, expected,
            "served campaign must match the direct run line for line"
        );
    }
    // Same for the instrumented run — telemetry must never leak into
    // the deterministic report.
    {
        let t = Telemetry::new(TelemetryConfig::default());
        assert_eq!(
            campaign(Exec::default()),
            campaign(Exec { telemetry: Some(&t), ..Exec::default() }),
            "plain and instrumented campaigns must agree bit for bit"
        );
    }

    let guards: Vec<Guard> = vec![
        ("tracing", 512, Box::new(|| run_untraced(&img)), Box::new(|| run_null_traced(&img))),
        ("metrics", 512, Box::new(|| run_metrics_off(&img)), Box::new(|| run_null_traced(&img))),
        ("hardening", 62, Box::new(|| run_cosim_ecc(false)), Box::new(|| run_cosim_ecc(true))),
        (
            "profiler",
            32,
            Box::new(|| run_cosim_profiling(false)),
            Box::new(|| run_cosim_profiling(true)),
        ),
        (
            "telemetry",
            86,
            Box::new(|| time_campaign(Exec::default())),
            Box::new(run_campaign_telemetry),
        ),
        (
            "journaling",
            84,
            Box::new(|| time_campaign(Exec::default())),
            Box::new(|| time_campaign(journaled())),
        ),
        (
            "serve",
            64,
            Box::new(|| run_serve_off(&direct_worker)),
            Box::new(|| run_serve_on(&serve_server)),
        ),
    ];
    // Warm-up all paths.
    for (_, _, off, on) in &guards {
        off();
        on();
    }
    let mut samples = vec![(Duration::MAX, Duration::MAX); guards.len()];
    for _ in 0..SAMPLES {
        for ((_, repeats, off, on), (best_off, best_on)) in guards.iter().zip(&mut samples) {
            // An untimed pair first: the previous row ran other code,
            // and a cold first run would land on the off side alone.
            off();
            on();
            let (mut sample_off, mut sample_on) = (Duration::ZERO, Duration::ZERO);
            for _ in 0..*repeats {
                sample_off += off();
                sample_on += on();
            }
            *best_off = (*best_off).min(sample_off);
            *best_on = (*best_on).min(sample_on);
        }
    }
    let _ = std::fs::remove_file(&journal);
    for ((name, _, _, _), (off, on)) in guards.iter().zip(samples) {
        let ratio = off.as_secs_f64() / on.as_secs_f64();
        println!(
            "{name} overhead guard: {name}-off {off:?}, {name}-on {on:?}, off/on ratio {ratio:.4}"
        );
        assert!(
            ratio <= 1.02,
            "{name}-off path must stay within 2% of the {name}-on path \
             (off {off:?} vs on {on:?}, ratio {ratio:.4})"
        );
        println!("ok: {name}-off overhead within 2%");
    }
}

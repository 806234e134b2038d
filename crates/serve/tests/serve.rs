//! End-to-end robustness tests for the simulation service: overload
//! shedding, watermark degradation, quarantine after retries, memo
//! cache hits and corrupt-entry eviction, and crash-resume
//! byte-identity across worker counts.

use softsim_serve::catalog::MAX_TRIALS;
use softsim_serve::protocol::handle_line;
use softsim_serve::{
    CacheStatus, JobKind, JobSpec, JobState, JobStatus, Priority, QueueConfig, ServeConfig, Server,
    ShedReason, Workload, MAX_WORKERS,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(300);

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("softsim-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quick_server(tag: &str, config: ServeConfig) -> Server {
    Server::start(ServeConfig { spool: scratch(tag), ..config }).expect("server starts")
}

fn simulate_spec(seed: u64) -> JobSpec {
    JobSpec {
        kind: JobKind::Simulate,
        workload: Workload::Cordic { iterations: 8, p: 2 },
        seed,
        use_cache: false,
        durable: false,
        ..JobSpec::default()
    }
}

fn campaign_spec(seed: u64, trials: u32) -> JobSpec {
    JobSpec {
        kind: JobKind::Campaign,
        workload: Workload::Cordic { iterations: 8, p: 2 },
        seed,
        trials,
        ..JobSpec::default()
    }
}

#[test]
fn oversized_worker_counts_are_rejected_before_anything_starts() {
    let spool = scratch("oversized");
    for config in [
        ServeConfig { workers: MAX_WORKERS + 1, ..ServeConfig::default() },
        ServeConfig { campaign_workers: usize::MAX, ..ServeConfig::default() },
    ] {
        let started = Server::start(ServeConfig { spool: spool.clone(), ..config });
        let err = started.err().expect("an oversized count is rejected");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        assert!(!spool.exists(), "rejected before the spool is created");
    }
}

#[test]
fn overload_floods_shed_typed_and_high_priority_evicts() {
    let server = quick_server(
        "overload",
        ServeConfig {
            workers: 1,
            hold: true,
            queue: QueueConfig { capacity: 4, degrade_watermark: 3 },
            ..ServeConfig::default()
        },
    );
    // Fill the queue while the pool is held.
    let ids: Vec<u64> =
        (0..4).map(|i| server.submit(simulate_spec(100 + i)).expect("admitted")).collect();
    // Fifth same-priority job: typed rejection, queue stays bounded.
    let shed = server.submit(simulate_spec(200)).expect_err("queue full");
    assert_eq!(shed.reason, ShedReason::QueueFull { depth: 4, capacity: 4 });
    assert_eq!(server.health().queue_depth, 4);
    // A high-priority arrival evicts the newest normal job instead.
    let vip = server
        .submit(JobSpec { priority: Priority::High, ..simulate_spec(300) })
        .expect("high priority admitted");
    let victim = server.wait(ids[3], WAIT).expect("victim result");
    assert_eq!(victim.state, JobState::Shed);
    assert_eq!(victim.shed, Some(ShedReason::Evicted { by: vip }));
    assert_eq!(server.health().queue_depth, 4, "eviction keeps the bound");

    server.release();
    for &id in &ids[..3] {
        let r = server.wait(id, WAIT).expect("job finishes");
        assert_eq!(r.state, JobState::Done, "{r:?}");
    }
    // The VIP was admitted at depth 4 >= watermark 3: it runs in
    // reduced-fidelity mode, bit-exact but flagged.
    let r = server.wait(vip, WAIT).expect("vip finishes");
    assert_eq!(r.state, JobState::Done);
    assert!(r.degraded, "watermark admission must flag degradation: {r:?}");

    let counters = server.telemetry().serve_counters();
    assert_eq!(counters.shed, 2, "one rejection + one eviction");
    // Both the fourth fill job (admitted at depth 3) and the VIP
    // (admitted at depth 4) crossed the watermark.
    assert_eq!(counters.degraded, 2);
    let prom = server.metrics();
    for needle in [
        "softsim_serve_jobs_total{state=\"shed\"} 2",
        "softsim_serve_jobs_total{state=\"degraded\"} 2",
        "softsim_serve_ready 1",
    ] {
        assert!(prom.contains(needle), "missing {needle:?} in:\n{prom}");
    }
}

#[test]
fn deadline_expires_while_queued() {
    let server =
        quick_server("deadline", ServeConfig { workers: 1, hold: true, ..ServeConfig::default() });
    let id = server.submit(JobSpec { deadline_ms: Some(1), ..simulate_spec(7) }).expect("admitted");
    std::thread::sleep(Duration::from_millis(25));
    server.release();
    let r = server.wait(id, WAIT).expect("result");
    assert_eq!(r.state, JobState::Shed);
    match r.shed {
        Some(ShedReason::DeadlineExpired { waited_ms }) => assert!(waited_ms >= 1, "{waited_ms}"),
        other => panic!("expected a deadline shed, got {other:?}"),
    }
}

#[test]
fn crash_test_workload_is_quarantined_after_retries() {
    let server = quick_server(
        "quarantine",
        ServeConfig {
            workers: 1,
            retry_backoff: Duration::from_millis(1),
            ..ServeConfig::default()
        },
    );
    let spec = JobSpec {
        kind: JobKind::Simulate,
        workload: Workload::CrashTest,
        use_cache: false,
        ..JobSpec::default()
    };
    let r = server.run(spec).expect("admitted");
    assert_eq!(r.state, JobState::Quarantined);
    assert_eq!(r.retries, 2, "default max_job_retries consumed: {r:?}");
    let err = r.error.expect("quarantine reason");
    assert!(err.contains("crash-test workload build"), "{err}");
    let counters = server.telemetry().serve_counters();
    assert_eq!(counters.retried, 2);
    assert_eq!(counters.quarantined, 1);
    // The worker survived the panics: the pool still serves jobs.
    let ok = server.run(simulate_spec(1)).expect("pool alive");
    assert_eq!(ok.state, JobState::Done);
}

#[test]
fn invalid_specs_quarantine_with_a_structured_result() {
    let server = quick_server("invalid", ServeConfig { workers: 1, ..ServeConfig::default() });
    let bad_workload = Workload::Cordic { iterations: 0, p: 2 };
    for (spec, why) in [
        (JobSpec { workload: bad_workload, ..JobSpec::default() }, "invalid workload"),
        (JobSpec { trials: MAX_TRIALS + 1, ..JobSpec::default() }, "trials 100001 above"),
    ] {
        let r = server.run(spec).expect("admission still succeeds");
        assert_eq!(r.state, JobState::Quarantined);
        assert!(r.error.as_deref().unwrap_or("").contains(why), "{r:?}");
    }
}

#[test]
fn run_leaves_nothing_in_the_job_table() {
    let server = quick_server("run-handover", ServeConfig { workers: 1, ..ServeConfig::default() });
    let r = server.run(simulate_spec(11)).expect("admitted");
    assert_eq!(r.state, JobState::Done);
    assert_eq!(server.status(r.id), None, "run hands its result over");
}

#[test]
fn wait_hands_a_result_over_once() {
    let server = quick_server(
        "wait-handover",
        ServeConfig { workers: 1, hold: true, ..ServeConfig::default() },
    );
    let id = server.submit(simulate_spec(12)).expect("admitted");
    assert_eq!(server.status(id), Some(JobStatus::Queued));
    server.release();
    let deadline = Instant::now() + WAIT;
    let finished = loop {
        match server.status(id) {
            Some(JobStatus::Finished(r)) => break r,
            Some(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
            other => panic!("job {id} did not finish before its wait: {other:?}"),
        }
    };
    assert_eq!(finished.state, JobState::Done);
    assert_eq!(server.status(id), Some(JobStatus::Finished(finished.clone())), "status keeps it");

    let r = server.wait(id, WAIT).expect("result");
    assert_eq!(r, finished);
    assert_eq!(server.status(id), None, "delivered results leave the table");
    assert_eq!(server.wait(id, Duration::from_millis(10)), None, "a second wait gets nothing");
    for op in ["status", "wait"] {
        let (line, _) = handle_line(&server, &format!("{{\"op\":\"{op}\",\"id\":{id}}}"));
        assert_eq!(line, format!("{{\"error\":\"unknown job {id}\"}}"), "{op}");
    }
}

#[test]
fn a_run_keeps_its_result_from_other_waiters() {
    let server =
        quick_server("run-owned", ServeConfig { workers: 1, hold: true, ..ServeConfig::default() });
    let wait_line = "{\"op\":\"wait\",\"id\":1}";
    let (status, status_line, waits, run) = std::thread::scope(|scope| {
        let run = scope.spawn(|| server.run(simulate_spec(13)));
        // Ids are issued from 1, so the held run's job is job 1.
        while server.health().queue_depth == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let status = server.status(1);
        let (status_line, _) = handle_line(&server, "{\"op\":\"status\",\"id\":1}");
        // Two waiters race the run for job 1 while it is still queued.
        let waits = (
            scope.spawn(|| server.wait(1, WAIT)),
            scope.spawn(|| handle_line(&server, wait_line).0),
        );
        std::thread::sleep(Duration::from_millis(20));
        server.release();
        let waits = (waits.0.join().expect("waiter"), waits.1.join().expect("waiter"));
        (status, status_line, waits, run.join())
    });
    assert_eq!(status, None, "a run's job is hidden from status");
    assert_eq!(status_line, "{\"error\":\"unknown job 1\"}");
    assert_eq!(waits.0, None, "a run's job is not anyone else's to wait for");
    assert_eq!(waits.1, "{\"error\":\"unknown job 1\"}");
    let r = run.expect("run thread").expect("admitted");
    assert_eq!((r.id, r.state), (1, JobState::Done));
    assert_eq!(server.status(1), None, "run hands its result over");
}

#[test]
fn concurrent_waits_cannot_take_a_runs_result() {
    const RUNS: u64 = 6;
    let server = quick_server("run-race", ServeConfig { workers: 2, ..ServeConfig::default() });
    let server = &server;
    let done = std::sync::atomic::AtomicBool::new(false);
    let done = &done;
    std::thread::scope(|scope| {
        // Thieves poll every id the runs will get, waiting on each.
        let thieves: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(move || {
                    let mut taken = Vec::new();
                    while !done.load(std::sync::atomic::Ordering::SeqCst) {
                        for id in 1..=RUNS {
                            taken.extend(server.status(id).map(|s| format!("status {id}: {s:?}")));
                            taken.extend(
                                server.wait(id, Duration::from_millis(1)).map(|r| format!("{r:?}")),
                            );
                        }
                    }
                    taken
                })
            })
            .collect();
        let runs: Vec<_> =
            (0..RUNS).map(|k| scope.spawn(move || server.run(simulate_spec(20 + k)))).collect();
        let runs: Vec<_> = runs.into_iter().map(|run| run.join()).collect();
        done.store(true, std::sync::atomic::Ordering::SeqCst);
        for thief in thieves {
            assert_eq!(thief.join().expect("thief thread"), Vec::<String>::new());
        }
        let mut ids: Vec<u64> = runs
            .into_iter()
            .map(|run| {
                let r = run.expect("run thread").expect("admitted");
                assert_eq!(r.state, JobState::Done, "{r:?}");
                r.id
            })
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (1..=RUNS).collect::<Vec<_>>(), "each run got its own job's result");
    });
}

#[test]
fn repeated_request_is_served_from_cache_and_corruption_evicts() {
    let server = quick_server("cache", ServeConfig { workers: 1, ..ServeConfig::default() });
    let spec = JobSpec { durable: false, ..campaign_spec(0xCAC4E, 6) };

    let first = server.run(spec).expect("first run");
    assert_eq!(first.state, JobState::Done);
    assert_eq!(first.cache, CacheStatus::Miss);
    assert_eq!(first.executed_trials, 6);
    assert!(!first.report.is_empty());

    let second = server.run(spec).expect("second run");
    assert_eq!(second.cache, CacheStatus::Hit);
    assert_eq!(second.executed_trials, 0, "cache hit must not re-simulate");
    assert_eq!(second.report, first.report, "cached report is byte-identical");

    // Flip a payload byte under the CRC: the next identical request
    // must detect the corruption, evict, and re-run.
    assert!(server.corrupt_cache_entry(&spec), "entry exists to corrupt");
    let third = server.run(spec).expect("third run");
    assert_eq!(third.cache, CacheStatus::Miss, "corrupt entry evicted, job re-ran");
    assert_eq!(third.report, first.report);
    let counters = server.telemetry().serve_counters();
    assert_eq!(counters.cache_evictions, 1);
    assert_eq!(counters.cache_hits, 1);

    let fourth = server.run(spec).expect("fourth run");
    assert_eq!(fourth.cache, CacheStatus::Hit, "re-ran result repopulated the cache");
}

/// Walks the SSJL framing (25-byte header, then `len u32 | payload |
/// crc32` frames) and truncates `path` to its first `keep` records —
/// the on-disk state a kill -9 after `keep` completed trials leaves.
fn truncate_journal(path: &Path, keep: usize) {
    let bytes = std::fs::read(path).expect("journal readable");
    let mut pos = 25usize;
    for _ in 0..keep {
        let len =
            u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("frame length")) as usize;
        pos += 8 + len;
    }
    assert!(pos < bytes.len(), "truncation must drop at least one frame");
    let file = std::fs::OpenOptions::new().write(true).open(path).expect("open journal");
    file.set_len(pos as u64).expect("truncate journal");
}

#[test]
fn crash_resume_reports_are_byte_identical_across_worker_counts() {
    let spec = JobSpec { use_cache: false, ..campaign_spec(0xD00D, 8) };

    // Reference: a clean full run, leaving a complete journal behind.
    let reference_server =
        quick_server("resume-ref", ServeConfig { workers: 1, ..ServeConfig::default() });
    let reference = reference_server.run(spec).expect("reference run");
    assert_eq!(reference.state, JobState::Done);
    assert!(reference.durable);
    assert_eq!(reference.executed_trials, 8);
    assert_eq!(reference.resumed_trials, 0);
    let full_journal = reference_server.journal_path(&spec);
    assert!(full_journal.exists());

    for campaign_workers in [1usize, 2, 5] {
        let spool = scratch(&format!("resume-w{campaign_workers}"));
        std::fs::create_dir_all(&spool).expect("spool dir");
        let partial = softsim_serve::server::journal_path(&spool, &spec);
        std::fs::copy(&full_journal, &partial).expect("seed partial journal");
        truncate_journal(&partial, 3);

        let server = Server::start(ServeConfig {
            workers: 1,
            campaign_workers,
            spool,
            ..ServeConfig::default()
        })
        .expect("server starts");
        let resumed = server.run(spec).expect("resumed run");
        assert_eq!(resumed.state, JobState::Done, "workers={campaign_workers}");
        assert!(resumed.durable, "workers={campaign_workers}");
        assert_eq!(resumed.resumed_trials, 3, "workers={campaign_workers}");
        assert_eq!(resumed.executed_trials, 5, "workers={campaign_workers}");
        assert_eq!(
            resumed.report, reference.report,
            "resume must be byte-identical at workers={campaign_workers}"
        );
    }
}

#[test]
fn recovery_jobs_resume_from_their_own_journal() {
    let spec = JobSpec {
        kind: JobKind::Recovery,
        workload: Workload::Cordic { iterations: 8, p: 2 },
        seed: 0xFA17,
        trials: 6,
        use_cache: false,
        ..JobSpec::default()
    };
    let reference_server =
        quick_server("recovery-ref", ServeConfig { workers: 1, ..ServeConfig::default() });
    let reference = reference_server.run(spec).expect("reference run");
    assert_eq!(reference.state, JobState::Done);
    assert!(reference.durable);
    let full_journal = reference_server.journal_path(&spec);
    assert!(full_journal.to_string_lossy().ends_with(".recovery.ssjl"));

    let spool = scratch("recovery-resume");
    std::fs::create_dir_all(&spool).expect("spool dir");
    let partial = softsim_serve::server::journal_path(&spool, &spec);
    std::fs::copy(&full_journal, &partial).expect("seed partial journal");
    truncate_journal(&partial, 2);

    let server = Server::start(ServeConfig {
        workers: 1,
        campaign_workers: 2,
        spool,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let resumed = server.run(spec).expect("resumed run");
    assert_eq!(resumed.resumed_trials, 2);
    assert_eq!(resumed.executed_trials, 4);
    assert_eq!(resumed.report, reference.report, "recovery resume is byte-identical");
}

#[test]
fn stale_journal_for_a_different_plan_self_heals() {
    // Same spool, two specs forced onto the same journal path by
    // copying: the durable runner sees a plan-hash mismatch and must
    // discard + re-run fresh instead of quarantining.
    let server_a = quick_server("stale-a", ServeConfig { workers: 1, ..ServeConfig::default() });
    let spec_a = JobSpec { use_cache: false, ..campaign_spec(0xAAAA, 6) };
    let a = server_a.run(spec_a).expect("first campaign");
    assert_eq!(a.state, JobState::Done);

    let spec_b = JobSpec { use_cache: false, ..campaign_spec(0xBBBB, 6) };
    let spool = scratch("stale-b");
    std::fs::create_dir_all(&spool).expect("spool dir");
    // Plant spec_a's journal where spec_b's belongs.
    std::fs::copy(
        server_a.journal_path(&spec_a),
        softsim_serve::server::journal_path(&spool, &spec_b),
    )
    .expect("plant stale journal");
    let server_b =
        Server::start(ServeConfig { workers: 1, spool, ..ServeConfig::default() }).expect("start");
    let b = server_b.run(spec_b).expect("self-healed run");
    assert_eq!(b.state, JobState::Done, "{b:?}");
    assert!(b.durable);
    assert_eq!(b.resumed_trials, 0, "stale journal discarded, fresh run");
    assert_ne!(b.report, a.report, "different seed, different campaign");
}

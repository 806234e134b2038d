//! Harness telemetry live: a seeded CORDIC fault campaign on worker
//! threads with the span instrumentation turned on — a stderr
//! progress/ETA heartbeat while it runs, a periodically refreshed
//! Prometheus snapshot you can point a scraper (or `watch cat`) at, and
//! a final per-worker utilization summary. The campaign report itself
//! is byte-identical to an uninstrumented run — telemetry carries
//! wall-clock data out-of-band, never into the deterministic record.
//!
//! Run with: `cargo run --release --example campaign_live`

use softsim::apps::cordic::hardware::cordic_peripheral;
use softsim::apps::cordic::reference::to_fix;
use softsim::apps::cordic::software::{hw_program, CordicBatch};
use softsim::cosim::{CoSim, CoSimStop};
use softsim::isa::asm::assemble;
use softsim::metrics::telemetry::{Telemetry, TelemetryConfig};
use softsim::resilience::{random_plan, run, CampaignConfig, Exec, Sims};
use std::time::Duration;

fn main() {
    let iterations = 8;
    let p = 2;
    let trials = 400;
    let seed = 0x5EED_FA17;
    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8);

    let pairs: Vec<(i32, i32)> = [(1.0, 0.5), (1.5, 1.2), (2.0, -1.0), (1.25, 0.8)]
        .iter()
        .map(|&(a, b)| (to_fix(a), to_fix(b)))
        .collect();
    let batch = CordicBatch::new(&pairs);
    let image = assemble(&hw_program(&batch, iterations, p)).expect("assembles");
    let base = image.symbol("z_data").expect("cordic result label");
    let n = pairs.len();
    let make_sim = || CoSim::with_peripheral(&image, cordic_peripheral(p));
    let observe = move |s: &CoSim| -> Vec<u32> {
        (0..n).map(|i| s.cpu().mem().read_u32(base + 4 * i as u32).unwrap()).collect()
    };

    // Golden run: how long the fault-free workload takes, which places
    // the injection window inside the live part of the run.
    let golden = {
        let mut sim = make_sim();
        assert_eq!(sim.run(10_000_000), CoSimStop::Halted);
        sim.cpu().stats().cycles
    };
    let plan =
        random_plan(seed, trials, (golden / 10, golden), image.bytes().len() as u32, &[0, 1]);

    // Telemetry with everything on: a 250 ms heartbeat on stderr and a
    // snapshot file a Prometheus scraper (or `watch cat`) can read while
    // the campaign runs. The snapshot is written atomically (tmp +
    // rename), so a reader never sees a torn file.
    std::fs::create_dir_all("target").expect("mkdir");
    let snapshot = std::path::PathBuf::from("target/telemetry_live.prom");
    let telemetry = Telemetry::new(TelemetryConfig {
        heartbeat: Some(Duration::from_millis(250)),
        snapshot: Some((snapshot.clone(), Duration::from_millis(250))),
    });

    println!(
        "CORDIC fault campaign: {trials} trials, {workers} workers, seed {seed:#x} \
         (golden run {golden} cycles)\n"
    );
    let config = CampaignConfig::default();
    let live = Exec { workers, telemetry: Some(&telemetry), journal: None };
    let (report, _) =
        run(Sims::Build(&make_sim), &plan, &observe, &config, live).expect("no journal to fail");
    telemetry.finish();

    let (masked, sdc, deadlock, fault) = report.counts();
    println!("\nmasked {masked}, sdc {sdc}, deadlock {deadlock}, fault {fault}");
    println!("\n{}", telemetry.summary());

    // A few lines of the exposition the snapshot file carries.
    let prom = telemetry.to_prometheus();
    println!("snapshot at {} ({} bytes); a sample:", snapshot.display(), prom.len());
    for line in prom
        .lines()
        .filter(|l| {
            l.starts_with("softsim_harness_spans_total")
                || l.starts_with("softsim_harness_worker_utilization")
                || l.starts_with("softsim_harness_throughput_cycles_per_sec")
        })
        .take(12)
    {
        println!("  {line}");
    }

    // The proof the instrumentation is inert: the identical campaign
    // without telemetry produces the identical report, byte for byte.
    let plain_exec = Exec { workers, ..Exec::default() };
    let (plain, _) = run(Sims::Build(&make_sim), &plan, &observe, &config, plain_exec)
        .expect("no journal to fail");
    assert_eq!(report, plain, "telemetry must not perturb the report");
    println!("\nverified: report is byte-identical to an uninstrumented run");
}

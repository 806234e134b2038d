//! Observability end to end: the CORDIC `P = 4` co-simulation traced
//! with `softsim-trace` — stall attribution, hot PCs, instruction mix,
//! FIFO occupancy timelines and a Chrome trace-event export you can load
//! into Perfetto (`ui.perfetto.dev`) or `chrome://tracing` — followed by
//! the guest-program profiler: basic-block hotspots, collapsed-stack
//! flamegraphs (load into `speedscope.app` or `flamegraph.pl`) and the
//! HW/SW partition advisor's offload ranking.
//!
//! Run with: `cargo run --release --example profiling`

use softsim::apps::cordic::hardware::cordic_peripheral;
use softsim::apps::cordic::reference::to_fix;
use softsim::apps::cordic::software::{hw_program, sw_program, CordicBatch, SwStyle};
use softsim::apps::matmul::reference::Matrix;
use softsim::apps::matmul::software as mm_sw;
use softsim::cosim::{CoSim, CoSimStop};
use softsim::isa::asm::assemble;
use softsim::isa::Image;
use softsim::profile::{advise, advise_text, GuestReport};
use softsim::trace::{chrome, shared, Fanout, FifoDir, GuestProfile, Recorder, Timeline};
use std::cell::RefCell;
use std::rc::Rc;

/// Runs `image` under the guest profiler and prints the hotspot report:
/// top-10 hot blocks, the flamegraph path and the advisor's ranking.
fn profile_guest(title: &str, slug: &str, image: &Image) {
    let mut sim = CoSim::software_only(image);
    let guest = Rc::new(RefCell::new(GuestProfile::new()));
    sim.attach_trace(shared(guest.clone()));
    assert_eq!(sim.run(u64::MAX / 2), CoSimStop::Halted);
    let guest = guest.borrow();
    let stats = sim.cpu_stats();
    assert_eq!(guest.total_cycles(), stats.cycles, "profile must reconcile");
    let report = GuestReport::build(image, &guest);

    println!("\n=== {title}: {} cycles, {} instructions ===", stats.cycles, stats.instructions);
    println!("top 10 hot blocks:");
    for b in report.hot_blocks(10) {
        println!(
            "  {:<16} {:>6x}..{:<6x} {:>8} cycles {:>6} visits  {:>5.1}%",
            b.name,
            b.block.start,
            b.block.end,
            b.cycles,
            b.visits,
            b.cycles as f64 / stats.cycles.max(1) as f64 * 100.0
        );
    }

    // Collapsed-stack flamegraph: one `region;block cycles` line per
    // block — feed straight into speedscope or flamegraph.pl.
    std::fs::create_dir_all("target/trace").expect("mkdir");
    let path = format!("target/trace/{slug}.collapsed");
    std::fs::write(&path, report.to_collapsed()).expect("write flamegraph");
    println!("wrote {path} (collapsed stacks; load into speedscope.app)");

    println!("partition advisor (score = cycles - estimated FSL cost):");
    print!("{}", advise_text(&advise(&report)));
}

fn main() {
    let p = 4;
    let iterations = 24;
    let pairs: Vec<(i32, i32)> = [(1.0, 0.5), (1.5, 1.2), (2.0, -1.0), (1.25, 0.8)]
        .iter()
        .map(|&(a, b)| (to_fix(a), to_fix(b)))
        .collect();
    let batch = CordicBatch::new(&pairs);
    let image = assemble(&hw_program(&batch, iterations, p)).expect("assembles");

    // Attach the full observability stack as one fanout: the profiler
    // (aggregates), a timeline (FIFO occupancy series) and a recorder
    // (raw events for the Chrome export).
    let profile = Rc::new(RefCell::new(GuestProfile::new()));
    let timeline = Rc::new(RefCell::new(Timeline::new()));
    let recorder = Rc::new(RefCell::new(Recorder::new(1 << 16)));
    let fanout = Fanout::new()
        .with(shared(profile.clone()))
        .with(shared(timeline.clone()))
        .with(shared(recorder.clone()));

    let mut sim = CoSim::with_peripheral(&image, cordic_peripheral(p));
    sim.attach_trace(shared(Rc::new(RefCell::new(fanout))));
    assert_eq!(sim.run(u64::MAX / 2), CoSimStop::Halted);

    let stats = sim.cpu_stats();
    let profile = profile.borrow();
    let timeline = timeline.borrow();

    println!("CORDIC division, {iterations} iterations, P = {p} pipeline\n");
    println!("{}", profile.report(8));

    // The stall-attribution table: every simulated cycle accounted for,
    // exactly — the trace reconciles with the ISS's own counters.
    let b = profile.breakdown();
    assert_eq!(b.total, stats.cycles, "trace/ISS cycle mismatch");
    println!("stall attribution ({} cycles):", b.total);
    let pct = |c: u64| c as f64 / b.total.max(1) as f64 * 100.0;
    println!("  compute          {:>8}  {:>5.1}%", b.compute, pct(b.compute));
    println!("  fsl read stall   {:>8}  {:>5.1}%", b.fsl_read_stall, pct(b.fsl_read_stall));
    println!("  fsl write stall  {:>8}  {:>5.1}%", b.fsl_write_stall, pct(b.fsl_write_stall));
    println!(
        "  FIFO high-water: to-hw {}, from-hw {} (depth 16)",
        timeline.high_water(FifoDir::ToHw),
        timeline.high_water(FifoDir::FromHw)
    );

    // Export: Chrome trace-event JSON + occupancy CSV.
    std::fs::create_dir_all("target/trace").expect("mkdir");
    let events = recorder.borrow().events();
    std::fs::write("target/trace/cordic_p4.json", chrome::to_json(&events)).expect("write json");
    std::fs::write("target/trace/cordic_p4_fifo.csv", timeline.to_csv()).expect("write csv");
    println!(
        "\nwrote target/trace/cordic_p4.json ({} events; load into ui.perfetto.dev)\n\
         wrote target/trace/cordic_p4_fifo.csv (FIFO occupancy timeline)",
        events.len()
    );

    // Part two: the guest-program profiler on the two paper workloads —
    // where do the cycles go *inside* the software, and what does the
    // advisor say about moving it into hardware?
    let cordic_sw =
        assemble(&sw_program(&batch, iterations, SwStyle::Compiled)).expect("assembles");
    profile_guest("CORDIC division, pure software", "cordic_sw", &cordic_sw);

    let (a, b) = (Matrix::test_pattern(8, 7), Matrix::test_pattern(8, 8));
    let matmul = assemble(&mm_sw::sw_program(&a, &b)).expect("assembles");
    profile_guest("matmul 8x8, pure software", "matmul_sw", &matmul);
}

//! Regeneration of every table and figure in the paper's evaluation.
//!
//! Each function returns structured rows plus a formatted text block; the
//! `tables` binary prints them and `EXPERIMENTS.md` records paper-vs-
//! measured values.

use crate::measure::{self, SimTiming};
use crate::sweep::{default_workers, parallel_map};
use crate::workloads::{self, CORDIC_ITERS, CORDIC_PS, MATMUL_NS, MATMUL_TABLE_N};
use softsim_apps::cordic::hardware::pipeline_resources;
use softsim_apps::matmul::hardware::unit_resources;
use softsim_blocks::Resources;
use softsim_cosim::{CoSimStop, PAPER_CLOCK_HZ};
use softsim_resource::{actual_from_primitives, estimate_system, DataSheet, SystemConfig};
use std::fmt::Write as _;

/// One point of Figure 5: CORDIC execution time vs P.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Point {
    /// Requested iteration count (8 or 24).
    pub iterations: u32,
    /// PEs in the pipeline (0 = pure software).
    pub p: usize,
    /// Application cycles at 50 MHz.
    pub cycles: u64,
    /// Execution time in µs.
    pub time_us: f64,
}

/// Regenerates Figure 5: time performance of the CORDIC divider. The
/// grid points are independent co-simulations, swept on worker threads
/// (see [`crate::sweep::parallel_map`]); the result order — and hence
/// the rendered text — matches the serial sweep exactly.
pub fn figure5() -> Vec<Fig5Point> {
    let mut grid = Vec::new();
    for &iters in &CORDIC_ITERS {
        for p in std::iter::once(0).chain(CORDIC_PS) {
            grid.push((iters, p));
        }
    }
    parallel_map(grid, default_workers(), |(iters, p)| {
        let mut sim = workloads::cordic_cosim(iters, (p > 0).then_some(p));
        assert_eq!(sim.run(u64::MAX / 2), CoSimStop::Halted);
        let cycles = sim.cpu_stats().cycles;
        Fig5Point { iterations: iters, p, cycles, time_us: cycles as f64 / PAPER_CLOCK_HZ * 1e6 }
    })
}

/// Formats Figure 5 as text.
pub fn figure5_text() -> String {
    let pts = figure5();
    let mut out = String::from(
        "Figure 5: CORDIC division time vs P (P = 0 is pure software), 50 MHz\n\
         iters  P   cycles     time(us)   speedup-vs-SW\n",
    );
    for &iters in &CORDIC_ITERS {
        let sw = pts.iter().find(|q| q.iterations == iters && q.p == 0).unwrap().cycles;
        for q in pts.iter().filter(|q| q.iterations == iters) {
            let _ = writeln!(
                out,
                "{:>5} {:>2}  {:>8}   {:>8.2}   {:>6.2}x",
                q.iterations,
                q.p,
                q.cycles,
                q.time_us,
                sw as f64 / q.cycles as f64
            );
        }
    }
    out
}

/// One point of Figure 7: matmul execution time vs matrix size.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Point {
    /// Matrix dimension N.
    pub n: usize,
    /// Block size (0 = pure software).
    pub nb: usize,
    /// Application cycles.
    pub cycles: u64,
    /// Execution time in µs.
    pub time_us: f64,
}

/// Regenerates Figure 7: block matmul time vs N for pure SW / 2×2 /
/// 4×4, swept on worker threads in input order like [`figure5`].
pub fn figure7() -> Vec<Fig7Point> {
    let mut grid = Vec::new();
    for &n in &MATMUL_NS {
        for nb in [0usize, 2, 4] {
            if nb != 0 && n % nb != 0 {
                continue;
            }
            grid.push((n, nb));
        }
    }
    parallel_map(grid, default_workers(), |(n, nb)| {
        let mut sim = workloads::matmul_cosim(n, (nb > 0).then_some(nb));
        assert_eq!(sim.run(u64::MAX / 2), CoSimStop::Halted);
        let cycles = sim.cpu_stats().cycles;
        Fig7Point { n, nb, cycles, time_us: cycles as f64 / PAPER_CLOCK_HZ * 1e6 }
    })
}

/// Formats Figure 7 as text.
pub fn figure7_text() -> String {
    let pts = figure7();
    let mut out = String::from(
        "Figure 7: block matrix multiplication time vs N, 50 MHz\n\
         N    variant   cycles      time(us)    vs-SW\n",
    );
    for q in &pts {
        let sw = pts.iter().find(|r| r.n == q.n && r.nb == 0).unwrap().cycles;
        let variant = match q.nb {
            0 => "pure SW".to_string(),
            nb => format!("{nb}x{nb} blk"),
        };
        let _ = writeln!(
            out,
            "{:>3}  {:<8}  {:>9}   {:>9.2}   {:>5.2}x",
            q.n,
            variant,
            q.cycles,
            q.time_us,
            sw as f64 / q.cycles as f64
        );
    }
    out
}

/// One row of Table I.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Design description (matches the paper's rows).
    pub design: String,
    /// Estimated resources (§III-C estimator).
    pub estimated: Resources,
    /// Actual resources (RTL elaboration).
    pub actual: Resources,
    /// Co-simulation wall time.
    pub cosim: SimTiming,
    /// Low-level (RTL) wall time for the same workload.
    pub rtl: SimTiming,
}

impl Table1Row {
    /// Simulation-time speedup of the co-simulator over the RTL baseline.
    pub fn sim_speedup(&self) -> f64 {
        self.rtl.seconds() / self.cosim.seconds().max(1e-12)
    }
}

/// Regenerates Table I: resources and simulation times for the four
/// CORDIC configurations and the two matmul configurations.
///
/// `repeats` scales the simulated workload so wall times are measurable.
pub fn table1(repeats: u32) -> Vec<Table1Row> {
    let sheet = DataSheet::default();
    let mut rows = Vec::new();
    for &p in &CORDIC_PS {
        let image = workloads::cordic_hw_image(24, p);
        let estimated = estimate_system(
            &SystemConfig { program: &image, peripheral: pipeline_resources(p), fsl_channels: 1 },
            &sheet,
        );
        let actual = actual_from_primitives(workloads::cordic_rtl(24, Some(p)).kernel.primitives());
        let cosim = measure::time_cosim(|| workloads::cordic_cosim_long(24, Some(p)), repeats);
        let rtl = measure::time_rtl(|| workloads::cordic_rtl_long(24, Some(p)), repeats);
        rows.push(Table1Row {
            design: format!("24-iter CORDIC division, P = {p}"),
            estimated,
            actual,
            cosim,
            rtl,
        });
    }
    for nb in [2usize, 4] {
        let n = MATMUL_TABLE_N;
        let image = workloads::matmul_image(n, Some(nb));
        let estimated = estimate_system(
            &SystemConfig { program: &image, peripheral: unit_resources(nb), fsl_channels: 1 },
            &sheet,
        );
        let actual =
            actual_from_primitives(workloads::matmul_rtl_sys(n, Some(nb)).kernel.primitives());
        let cosim = measure::time_cosim(|| workloads::matmul_cosim(n, Some(nb)), repeats);
        let rtl = measure::time_rtl(|| workloads::matmul_rtl_sys(n, Some(nb)), repeats);
        rows.push(Table1Row {
            design: format!("{n}x{n} matmul, {nb}x{nb} blocks"),
            estimated,
            actual,
            cosim,
            rtl,
        });
    }
    rows
}

/// Formats Table I as text.
pub fn table1_text(repeats: u32) -> String {
    let rows = table1(repeats);
    let mut out = String::from(
        "Table I: resources (estimated/actual) and cycle-accurate simulation time\n\
         design                              slices      BRAM  mult  cosim(s)  rtl(s)  speedup\n",
    );
    let mut speedups = Vec::new();
    for r in &rows {
        speedups.push(r.sim_speedup());
        let _ = writeln!(
            out,
            "{:<34} {:>5}/{:<5}  {:>2}/{:<2}  {:>2}/{:<2}  {:>7.3}  {:>7.3}  {:>5.1}x",
            r.design,
            r.estimated.slices,
            r.actual.slices,
            r.estimated.brams,
            r.actual.brams,
            r.estimated.mult18s,
            r.actual.mult18s,
            r.cosim.seconds(),
            r.rtl.seconds(),
            r.sim_speedup()
        );
    }
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    let (min, max) =
        speedups.iter().fold((f64::MAX, 0.0f64), |(lo, hi), &s| (lo.min(s), hi.max(s)));
    let _ = writeln!(
        out,
        "simulation speedups: {min:.1}x .. {max:.1}x, average {avg:.1}x \
         (paper: 5.6x .. 19.4x, averages 12.8x / 13x / 15.1x)"
    );
    out
}

/// One row of Table II.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Simulator name.
    pub simulator: &'static str,
    /// Simulated clock cycles per wall second.
    pub cycles_per_sec: f64,
}

/// Regenerates Table II: raw simulation speeds of the component
/// simulators on the CORDIC division workload.
pub fn table2() -> Vec<Table2Row> {
    let img = workloads::cordic_sw_image(24);
    let iss = measure::time_iss_alone(&img, 100);
    let blocks =
        measure::time_blocks_alone(softsim_apps::cordic::hardware::cordic_graph(4), 500_000);
    let rtl = measure::time_rtl(|| workloads::cordic_rtl_long(24, Some(4)), 2);
    let cosim = measure::time_cosim(|| workloads::cordic_cosim_long(24, Some(4)), 5);
    vec![
        Table2Row {
            simulator: "instruction simulator (ISS alone)",
            cycles_per_sec: iss.cycles_per_sec(),
        },
        Table2Row {
            simulator: "block simulator (HW peripheral only)",
            cycles_per_sec: blocks.cycles_per_sec(),
        },
        Table2Row {
            simulator: "co-simulation (ISS + blocks + FSL)",
            cycles_per_sec: cosim.cycles_per_sec(),
        },
        Table2Row {
            simulator: "low-level behavioral RTL (baseline)",
            cycles_per_sec: rtl.cycles_per_sec(),
        },
    ]
}

/// Formats Table II as text.
pub fn table2_text() -> String {
    let rows = table2();
    let rtl = rows.last().unwrap().cycles_per_sec;
    let mut out = String::from(
        "Table II: simulation speeds on the CORDIC division application\n\
         simulator                              cycles/sec     vs RTL\n",
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<38} {:>11.0}   {:>7.1}x",
            r.simulator,
            r.cycles_per_sec,
            r.cycles_per_sec / rtl
        );
    }
    out.push_str("(paper: instr. simulator 1.9e5, Simulink 1.4e4, ModelSim 2.3e3 cycles/sec)\n");
    out
}

/// Ablation: the same CORDIC pipeline attached over a dedicated FSL vs
/// the shared, polled OPB (the two bus protocols of §III-A).
pub fn ablation_fsl_vs_opb_text() -> String {
    use softsim_apps::cordic::opb::opb_cosim;
    let batch = workloads::cordic_batch();
    let mut out = String::from(
        "Ablation: FSL vs OPB attachment of the CORDIC pipeline (24 iterations)\n\
         P   FSL cycles   OPB cycles   OPB/FSL\n",
    );
    for &p in &CORDIC_PS {
        let mut fsl = workloads::cordic_cosim(24, Some(p));
        assert_eq!(fsl.run(u64::MAX / 2), CoSimStop::Halted);
        let (mut opb, _) = opb_cosim(&batch, 24, p);
        assert_eq!(opb.run(u64::MAX / 2), CoSimStop::Halted);
        let (f, o) = (fsl.cpu_stats().cycles, opb.cpu_stats().cycles);
        let _ = writeln!(out, "{p}   {f:>10}   {o:>10}   {:>6.2}x", o as f64 / f as f64);
    }
    out.push_str("(dedicated point-to-point FIFOs beat the shared polled bus at every P)\n");
    out
}

/// Ablation: the soft-processor configuration dimension — pure-software
/// CORDIC vs the FSL pipeline vs a divider-equipped processor, each with
/// its resource bill.
pub fn ablation_configurations_text() -> String {
    use softsim_apps::cordic::divider::idiv_program;
    use softsim_apps::cordic::software::{sw_program, SwStyle};
    use softsim_cosim::CoSim;
    use softsim_isa::asm::assemble;
    use softsim_isa::CpuConfig;

    let batch = workloads::cordic_batch();
    let mut out = String::from(
        "Ablation: processor configurations for Q8.24 division (batch of 8)\n\
         design                        cycles   time(us)   slices  mult18\n",
    );
    let mut row = |name: &str, cycles: u64, res: Resources| {
        let _ = writeln!(
            out,
            "{name:<28} {cycles:>8} {:>9.2} {:>8} {:>7}",
            cycles as f64 / PAPER_CLOCK_HZ * 1e6,
            res.slices,
            res.mult18s
        );
    };
    // Pure software CORDIC, default configuration.
    {
        let img = assemble(&sw_program(&batch, 24, SwStyle::Compiled)).unwrap();
        let mut sim = CoSim::software_only(&img);
        assert_eq!(sim.run(u64::MAX / 2), CoSimStop::Halted);
        let res = estimate_system(
            &SystemConfig { program: &img, peripheral: Resources::ZERO, fsl_channels: 0 },
            &DataSheet::default(),
        );
        row("SW CORDIC (default CPU)", sim.cpu_stats().cycles, res);
    }
    // FSL CORDIC pipeline, P = 4.
    {
        let img = workloads::cordic_hw_image(24, 4);
        let mut sim = workloads::cordic_cosim(24, Some(4));
        assert_eq!(sim.run(u64::MAX / 2), CoSimStop::Halted);
        let res = estimate_system(
            &SystemConfig { program: &img, peripheral: pipeline_resources(4), fsl_channels: 1 },
            &DataSheet::default(),
        );
        row("CORDIC pipeline, P=4", sim.cpu_stats().cycles, res);
    }
    // Divider-equipped processor, no peripheral.
    {
        let img = assemble(&idiv_program(&batch)).unwrap();
        let mut sim = CoSim::with_config(&img, CpuConfig::full(), None);
        assert_eq!(sim.run(u64::MAX / 2), CoSimStop::Halted);
        let res = estimate_system(
            &SystemConfig { program: &img, peripheral: Resources::ZERO, fsl_channels: 0 },
            &DataSheet::for_config(&CpuConfig::full()),
        );
        row("divider option (idiv)", sim.cpu_stats().cycles, res);
    }
    out.push_str(
        "(the co-simulation environment exposes all three corners of the\n configuration space in seconds — the paper's design-exploration pitch)\n",
    );
    out
}

/// The serial-recursion study: the Levinson-Durbin weight update with
/// each division strategy (the paper's §I argument, quantified).
pub fn lpc_text() -> String {
    use softsim_apps::lpc::reference::test_autocorrelation;
    use softsim_apps::lpc::software::{lpc_cosim, LpcDivision};
    let r = test_autocorrelation(6);
    let mut out = String::from(
        "Levinson-Durbin weight update (order 6): division-strategy cycles\n\
         strategy               cycles   time(us)\n",
    );
    for div in [
        LpcDivision::CordicSw,
        LpcDivision::CordicFsl(4),
        LpcDivision::CordicFsl(8),
        LpcDivision::Idiv,
    ] {
        let (mut sim, _) = lpc_cosim(&r, div);
        assert_eq!(sim.run(u64::MAX / 2), CoSimStop::Halted);
        let c = sim.cpu_stats().cycles;
        let _ = writeln!(
            out,
            "{:<22} {:>7} {:>9.2}",
            format!("{div:?}"),
            c,
            c as f64 / PAPER_CLOCK_HZ * 1e6
        );
    }
    out.push_str(
        "(serial data dependence caps the FSL pipeline's gain at ~1.6x vs the\n batched 3.7x of Figure 5 — the paper's §I claim, quantified)\n",
    );
    // The §I counterpart: the data-parallel FIR filter, where offload
    // shines and grows with tap count.
    out.push_str("\nFIR filtering (40 samples): the data-parallel counterpart\n");
    out.push_str("taps   SW cycles   HW cycles   speedup\n");
    {
        use softsim_apps::fir::reference::test_signal;
        use softsim_apps::fir::software::fir_cosim;
        let input = test_signal(40, 3);
        for t in [4usize, 8, 16] {
            let taps: Vec<i32> = (1..=t as i32).collect();
            let mut cycles = [0u64; 2];
            for (slot, hw) in [(0, false), (1, true)] {
                let (mut sim, _) = fir_cosim(&taps, &input, hw);
                assert_eq!(sim.run(u64::MAX / 2), CoSimStop::Halted);
                cycles[slot] = sim.cpu_stats().cycles;
            }
            let _ = writeln!(
                out,
                "{t:>4} {:>11} {:>11} {:>8.2}x",
                cycles[0],
                cycles[1],
                cycles[0] as f64 / cycles[1] as f64
            );
        }
    }
    out.push_str("(every tap multiplies in parallel: gains grow with tap count)\n");
    out
}

/// Writes Figure 5 and Figure 7 as CSV files into `dir`, for external
/// plotting.
pub fn write_csvs(dir: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut fig5 = String::from("iterations,p,cycles,time_us\n");
    for q in figure5() {
        let _ = writeln!(fig5, "{},{},{},{}", q.iterations, q.p, q.cycles, q.time_us);
    }
    std::fs::write(dir.join("fig5_cordic.csv"), fig5)?;
    let mut fig7 = String::from("n,block,cycles,time_us\n");
    for q in figure7() {
        let _ = writeln!(fig7, "{},{},{},{}", q.n, q.nb, q.cycles, q.time_us);
    }
    std::fs::write(dir.join("fig7_matmul.csv"), fig7)?;
    Ok(())
}

/// The quantitative claims of §IV, recomputed.
pub fn claims_text() -> String {
    let mut out = String::from("Section IV claims, recomputed:\n");
    // CORDIC: P=4, 24 iterations vs pure software.
    let pts = figure5();
    let sw = pts.iter().find(|q| q.iterations == 24 && q.p == 0).unwrap();
    let p4 = pts.iter().find(|q| q.iterations == 24 && q.p == 4).unwrap();
    let sheet = DataSheet::default();
    let sw_img = workloads::cordic_sw_image(24);
    let sw_res = estimate_system(
        &SystemConfig { program: &sw_img, peripheral: Resources::ZERO, fsl_channels: 0 },
        &sheet,
    );
    let hw_img = workloads::cordic_hw_image(24, 4);
    let hw_res = estimate_system(
        &SystemConfig { program: &hw_img, peripheral: pipeline_resources(4), fsl_channels: 1 },
        &sheet,
    );
    let _ = writeln!(
        out,
        "  CORDIC 24-iter, P=4: {:.2}x speedup at +{} slices (+{:.0}%)  [paper: 5.6x, +280 (+30%)]",
        sw.cycles as f64 / p4.cycles as f64,
        hw_res.slices - sw_res.slices,
        (hw_res.slices - sw_res.slices) as f64 / sw_res.slices as f64 * 100.0
    );
    // Matmul: 16×16, 4×4 and 2×2 blocks vs pure software.
    let pts = figure7();
    let n = MATMUL_TABLE_N;
    let sw = pts.iter().find(|q| q.n == n && q.nb == 0).unwrap();
    let b4 = pts.iter().find(|q| q.n == n && q.nb == 4).unwrap();
    let b2 = pts.iter().find(|q| q.n == n && q.nb == 2).unwrap();
    let _ = writeln!(
        out,
        "  matmul {n}x{n}, 4x4 blocks: {:.2}x speedup   [paper: 2.2x]",
        sw.cycles as f64 / b4.cycles as f64
    );
    let _ = writeln!(
        out,
        "  matmul {n}x{n}, 2x2 blocks: {:+.1}% execution time [paper: +8.8%]",
        (b2.cycles as f64 / sw.cycles as f64 - 1.0) * 100.0
    );
    out
}

/// Runs the CORDIC `P = 4`, 24-iteration co-simulation with the full
/// observability stack attached and renders the profile: hot PCs,
/// instruction mix, the stall-attribution cycle breakdown, FIFO
/// high-water marks and the gateway traffic — everything `softsim-trace`
/// collects, reconciled against the ISS's own counters.
pub fn profile_text() -> String {
    use softsim_trace::{shared, Fanout, FifoDir, Profile, Timeline};
    use std::cell::RefCell;
    use std::rc::Rc;

    let profile = Rc::new(RefCell::new(Profile::new()));
    let timeline = Rc::new(RefCell::new(Timeline::new()));
    let fanout = Fanout::new().with(shared(profile.clone())).with(shared(timeline.clone()));

    let mut sim = workloads::cordic_cosim(24, Some(4));
    sim.attach_trace(shared(Rc::new(RefCell::new(fanout))));
    assert_eq!(sim.run(u64::MAX / 2), CoSimStop::Halted);

    let stats = sim.cpu_stats();
    let profile = profile.borrow();
    let timeline = timeline.borrow();
    let breakdown = profile.breakdown();
    assert_eq!(
        breakdown.total, stats.cycles,
        "trace must reconcile exactly with the ISS cycle counter"
    );

    let mut out = String::from("Profile: CORDIC division, 24 iterations, P = 4 pipeline\n\n");
    out.push_str(&profile.report(10));
    let _ = writeln!(
        out,
        "\nFIFO high-water (depth 16): to-hw {} words, from-hw {} words",
        timeline.high_water(FifoDir::ToHw),
        timeline.high_water(FifoDir::FromHw),
    );
    let _ = writeln!(
        out,
        "reconciliation: {} compute + {} FSL-read-stall + {} FSL-write-stall = {} cycles (ISS: {})",
        breakdown.compute,
        breakdown.fsl_read_stall,
        breakdown.fsl_write_stall,
        breakdown.compute + breakdown.fsl_read_stall + breakdown.fsl_write_stall,
        stats.cycles,
    );
    out
}

/// Window width (cycles) of the `--metrics` report.
pub const METRICS_WINDOW: u64 = 256;

/// Runs the CORDIC `P = 4`, 24-iteration co-simulation with a
/// [`softsim_metrics::MetricsCollector`] (paired with a bounded
/// recorder, so drop accounting is exercised too) and renders both
/// export formats: the cycle-windowed series as a table and the
/// cumulative registry as Prometheus text exposition. Fully
/// deterministic — the run is cycle-exact and the exposition is sorted.
pub fn metrics_text() -> String {
    use softsim_metrics::MetricsCollector;
    use softsim_trace::{shared, Fanout, Recorder};
    use std::cell::RefCell;
    use std::rc::Rc;

    let collector = Rc::new(RefCell::new(MetricsCollector::new(METRICS_WINDOW)));
    let recorder = Rc::new(RefCell::new(Recorder::new(1 << 16)));
    let fanout = Fanout::new().with(shared(collector.clone())).with(shared(recorder.clone()));
    let mut sim = workloads::cordic_cosim(24, Some(4));
    sim.attach_trace(shared(Rc::new(RefCell::new(fanout))));
    assert_eq!(sim.run(u64::MAX / 2), CoSimStop::Halted);

    let mut collector = collector.borrow_mut();
    collector.finish(sim.cpu_stats().cycles);
    collector.set_dropped_events(recorder.borrow().dropped());

    let series = collector.series();
    let mut out = format!(
        "Metrics: CORDIC division, 24 iterations, P = 4 pipeline \
         (window = {METRICS_WINDOW} cycles)\n\n\
         windowed series (selected columns):\n\
         win      cycles  instr    ipc  pushes  pops  gw_to  gw_from  reg_w  signature\n"
    );
    for row in &series.rows {
        let v = |name| series.value(row, name).unwrap_or(0.0);
        let _ = writeln!(
            out,
            "{:>3} {:>5}..{:<5} {:>5} {:>6.2}  {:>6} {:>5}  {:>5}  {:>7}  {:>5}   {:>8.0}",
            row.index,
            row.start,
            row.end,
            v("instructions"),
            v("ipc"),
            v("fifo_pushes"),
            v("fifo_pops"),
            v("gateway_to_hw"),
            v("gateway_from_hw"),
            v("reg_writes"),
            v("data_signature"),
        );
    }
    let _ = writeln!(
        out,
        "(full series: {} windows x {} columns, JSON export via `WindowSeries::to_json`)",
        series.rows.len(),
        series.columns.len()
    );
    out.push_str("\nPrometheus exposition:\n");
    out.push_str(&collector.to_prometheus());
    out
}

/// A JSON number: finite `f64`s render via `Display` (shortest
/// round-trip, never exponent notation); non-finite values are clamped
/// to `0` so the output stays RFC 8259 valid.
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The deterministic record committed as `tables_output.txt`: every
/// cycle-exact section of the evaluation, and nothing wall-clock.
/// Table I's simulation times and Table II's simulator speeds are
/// machine-dependent, so they are deliberately excluded here (`tables
/// --table1 --table2` prints them, and the `cosimbench` benchmark is
/// the timed record); a CI test asserts the committed file matches this
/// function's output byte for byte.
pub fn record_text() -> String {
    let mut out = String::from(
        "softsim deterministic record — regenerate with\n\
         `cargo run --release -p softsim-bench --bin tables -- --record`\n\
         Cycle-exact sections only: the wall-clock tables (Table I\n\
         simulation times, Table II simulator speeds) are machine-dependent\n\
         and are printed by `tables --table1 --table2`; see cosimbench/.\n\n",
    );
    for section in [
        figure5_text(),
        figure7_text(),
        claims_text(),
        profile_text(),
        crate::hotspots::hotspots_text(),
        crate::faults::faults_text(None),
        crate::recover::recovery_text(),
        crate::durable::durable_text(),
        ablation_fsl_vs_opb_text(),
        ablation_configurations_text(),
        lpc_text(),
        metrics_text(),
    ] {
        out.push_str(&section);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_shape() {
        let pts = figure5();
        // 2 iteration counts × 5 P values.
        assert_eq!(pts.len(), 10);
        for &iters in &CORDIC_ITERS {
            let series: Vec<_> = pts.iter().filter(|q| q.iterations == iters).collect();
            // Hardware monotonically improves with more PEs (allowing the
            // staircase plateau where pass counts coincide).
            for w in series.windows(2) {
                assert!(
                    w[1].cycles <= w[0].cycles,
                    "{iters} iters: P={} ({}) should not be slower than P={} ({})",
                    w[1].p,
                    w[1].cycles,
                    w[0].p,
                    w[0].cycles
                );
            }
        }
        // 24 iterations always cost more than 8 at the same P.
        for p in std::iter::once(0).chain(CORDIC_PS) {
            let c8 = pts.iter().find(|q| q.iterations == 8 && q.p == p).unwrap().cycles;
            let c24 = pts.iter().find(|q| q.iterations == 24 && q.p == p).unwrap().cycles;
            assert!(c24 > c8, "P={p}");
        }
    }

    #[test]
    fn figure7_shape() {
        let pts = figure7();
        for &n in &MATMUL_NS {
            let sw = pts.iter().find(|q| q.n == n && q.nb == 0).unwrap().cycles;
            let b2 = pts.iter().find(|q| q.n == n && q.nb == 2).unwrap().cycles;
            assert!(b2 > sw, "2x2 blocks lose at N={n}");
            if n % 4 == 0 {
                let b4 = pts.iter().find(|q| q.n == n && q.nb == 4).unwrap().cycles;
                assert!(b4 < sw, "4x4 blocks win at N={n}");
            }
        }
    }

    #[test]
    fn table1_estimates_track_actuals() {
        for row in table1(1) {
            let err = softsim_resource::slice_error(row.estimated, row.actual);
            assert!(
                err.abs() < 0.10,
                "{}: estimated {} vs actual {}",
                row.design,
                row.estimated.slices,
                row.actual.slices
            );
            assert!(row.sim_speedup() > 1.0, "{}: co-sim must beat RTL", row.design);
        }
    }

    #[test]
    fn claims_render() {
        let text = claims_text();
        assert!(text.contains("CORDIC 24-iter"));
        assert!(text.contains("4x4 blocks"));
    }

    #[test]
    fn metrics_report_is_deterministic() {
        let a = metrics_text();
        assert_eq!(a, metrics_text(), "metrics report must be cycle-exact");
        assert!(a.contains("softsim_iss_instructions_total"));
        assert!(a.contains("softsim_fsl_occupancy_bucket{le=\"+Inf\"}"));
        assert!(a.contains("softsim_trace_dropped_events 0"));
    }
}

//! The guest-program hotspot record (`BENCH_0006`).
//!
//! Profiles the canonical workloads through the `softsim-profile`
//! pipeline — per-PC attribution, basic-block rollup, partition advice —
//! and renders both the deterministic text section of
//! `tables_output.txt` and the machine-readable `BENCH_0006.json`.
//! Every number is cycle-exact: profiles reconcile against the ISS's
//! own counters before anything is emitted, and the record is
//! byte-reproducible on any machine and any worker count (the runs are
//! swept with [`crate::sweep::parallel_map`], which merges in input
//! order).

use crate::sweep::{default_workers, parallel_map};
use crate::tables::json_f64;
use crate::workloads;
use softsim_cosim::{CoSim, CoSimStop, PAPER_CLOCK_HZ};
use softsim_profile::{advise, GuestReport, OffloadCandidate};
use softsim_trace::{shared, GuestProfile};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

/// Hot blocks reported per workload.
pub const HOT_BLOCKS_PER_WORKLOAD: usize = 5;

/// Offload candidates reported per workload.
pub const ADVICE_PER_WORKLOAD: usize = 3;

/// One hot basic block of a profiled workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotBlock {
    /// Deterministic block name (`region` or `region+0xOFF`).
    pub name: String,
    /// Enclosing label region.
    pub region: String,
    /// First instruction address.
    pub start: u32,
    /// One past the last instruction address.
    pub end: u32,
    /// Cycles spent in the block (stalls included).
    pub cycles: u64,
    /// Times the block was entered.
    pub visits: u64,
    /// FSL read + write stall cycles inside the block.
    pub fsl_stalls: u64,
}

/// The profile of one canonical workload.
#[derive(Debug, Clone, PartialEq)]
pub struct HotspotRow {
    /// Workload name (stable record key).
    pub name: &'static str,
    /// Total application cycles (reconciled against [`CoSim`]'s CPU
    /// counters).
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Discovered basic blocks in the image.
    pub blocks: usize,
    /// The hottest blocks, most cycles first.
    pub hot: Vec<HotBlock>,
    /// The partition advisor's top candidates, best score first.
    pub advice: Vec<OffloadCandidate>,
}

/// The profiled workload grid: the paper's two applications, each in
/// its pure-software and FSL-accelerated form.
#[derive(Debug, Clone, Copy)]
enum Spec {
    CordicSw(u32),
    CordicHw(u32, usize),
    MatmulSw(usize),
    MatmulHw(usize, usize),
}

fn spec_grid() -> Vec<Spec> {
    vec![Spec::CordicSw(24), Spec::CordicHw(24, 4), Spec::MatmulSw(16), Spec::MatmulHw(16, 4)]
}

fn run_spec(spec: Spec) -> HotspotRow {
    let (name, image, mut sim) = match spec {
        Spec::CordicSw(iters) => {
            let image = workloads::cordic_sw_image(iters);
            let sim = CoSim::software_only(&image);
            ("cordic_24iter_sw", image, sim)
        }
        Spec::CordicHw(iters, p) => {
            let image = workloads::cordic_hw_image(iters, p);
            let sim = CoSim::with_peripheral(&image, workloads::cordic_peripheral(p));
            ("cordic_24iter_p4", image, sim)
        }
        Spec::MatmulSw(n) => {
            let image = workloads::matmul_image(n, None);
            let sim = CoSim::software_only(&image);
            ("matmul_16x16_sw", image, sim)
        }
        Spec::MatmulHw(n, nb) => {
            let image = workloads::matmul_image(n, Some(nb));
            let sim = CoSim::with_peripheral(
                &image,
                softsim_apps::matmul::hardware::matmul_peripheral(nb),
            );
            ("matmul_16x16_nb4", image, sim)
        }
    };
    let profile = Rc::new(RefCell::new(GuestProfile::new()));
    sim.attach_trace(shared(profile.clone()));
    assert_eq!(sim.run(u64::MAX / 2), CoSimStop::Halted, "{name} must halt");
    let profile = profile.borrow();
    let stats = sim.cpu_stats();
    assert_eq!(profile.total_cycles(), stats.cycles, "{name}: profile must reconcile");
    assert_eq!(profile.total_retires(), stats.instructions);
    let report = GuestReport::build(&image, &profile);
    assert_eq!(report.unmapped_cycles(), 0, "{name}: every cycle maps to a block");
    let hot = report
        .hot_blocks(HOT_BLOCKS_PER_WORKLOAD)
        .into_iter()
        .map(|b| HotBlock {
            name: b.name.clone(),
            region: b.block.region.clone(),
            start: b.block.start,
            end: b.block.end,
            cycles: b.cycles,
            visits: b.visits,
            fsl_stalls: b.read_stalls + b.write_stalls,
        })
        .collect();
    let mut advice = advise(&report);
    advice.truncate(ADVICE_PER_WORKLOAD);
    HotspotRow {
        name,
        cycles: stats.cycles,
        instructions: stats.instructions,
        blocks: report.blocks().len(),
        hot,
        advice,
    }
}

/// Profiles every canonical workload, swept on the default worker pool.
pub fn hotspot_rows() -> Vec<HotspotRow> {
    hotspot_rows_with(default_workers())
}

/// [`hotspot_rows`] with an explicit worker count; results are
/// identical for every count (CI byte-diffs the record to prove it).
pub fn hotspot_rows_with(workers: usize) -> Vec<HotspotRow> {
    parallel_map(spec_grid(), workers, run_spec)
}

/// Formats the hotspot profiles as deterministic text (the
/// `tables_output.txt` section).
pub fn hotspots_text() -> String {
    let mut out = String::from(
        "Hotspots: guest-program profiles (per-PC attribution rolled up\n\
         onto basic blocks; partition advisor score = cycles - 2*comm_words)\n",
    );
    for row in hotspot_rows() {
        let _ = writeln!(
            out,
            "\n{}: {} cycles ({:.2} us), {} instructions, {} blocks",
            row.name,
            row.cycles,
            row.cycles as f64 / PAPER_CLOCK_HZ * 1e6,
            row.instructions,
            row.blocks
        );
        let _ = writeln!(
            out,
            "  {:<16} {:>8}..{:<8} {:>9} {:>7} {:>10}",
            "hot block", "start", "end", "cycles", "visits", "fsl_stalls"
        );
        for b in &row.hot {
            let _ = writeln!(
                out,
                "  {:<16} {:>8x}..{:<8x} {:>9} {:>7} {:>10}",
                b.name, b.start, b.end, b.cycles, b.visits, b.fsl_stalls
            );
        }
        let _ = writeln!(out, "  offload advice (top {}):", row.advice.len());
        for c in &row.advice {
            let _ = writeln!(
                out,
                "    {:<12} score {:>8}  ({} cycles, {} comm words, {:.1} nJ)",
                c.region, c.score, c.cycles, c.comm_words, c.software_nj
            );
        }
    }
    out
}

fn block_json(b: &HotBlock) -> String {
    format!(
        "{{\"name\":\"{}\",\"region\":\"{}\",\"start\":{},\"end\":{},\
         \"cycles\":{},\"visits\":{},\"fsl_stalls\":{}}}",
        b.name, b.region, b.start, b.end, b.cycles, b.visits, b.fsl_stalls
    )
}

fn advice_json(c: &OffloadCandidate) -> String {
    format!(
        "{{\"region\":\"{}\",\"start\":{},\"cycles\":{},\"visits\":{},\
         \"comm_words\":{},\"est_comm_cycles\":{},\"score\":{},\
         \"software_nj\":{},\"est_extra_slices\":{}}}",
        c.region,
        c.start,
        c.cycles,
        c.visits,
        c.comm_words,
        c.est_comm_cycles,
        c.score,
        json_f64(c.software_nj),
        c.est_extra_slices
    )
}

fn row_json(row: &HotspotRow) -> String {
    format!(
        "{{\"name\":\"{}\",\"cycles\":{},\"instructions\":{},\"blocks\":{},\
         \"hot_blocks\":[{}],\"advice\":[{}]}}",
        row.name,
        row.cycles,
        row.instructions,
        row.blocks,
        row.hot.iter().map(block_json).collect::<Vec<_>>().join(","),
        row.advice.iter().map(advice_json).collect::<Vec<_>>().join(","),
    )
}

/// The machine-readable `BENCH_0006` record as a JSON string. Every
/// number is cycle-exact and machine-independent, so — like
/// `BENCH_0005` — the committed file is byte-reproducible; CI re-derives
/// it across `SOFTSIM_SWEEP_WORKERS` values and byte-diffs.
pub fn hotspots_json() -> String {
    let rows: Vec<String> = hotspot_rows().iter().map(row_json).collect();
    format!(
        "{{\"schema\":\"softsim-bench/1\",\"bench_id\":\"BENCH_0006\",\
         \"description\":\"guest-program hotspot profiles and partition advice\",\
         \"clock_hz\":{},\"hot_blocks_per_workload\":{HOT_BLOCKS_PER_WORKLOAD},\
         \"workloads\":[{}]}}\n",
        json_f64(PAPER_CLOCK_HZ),
        rows.join(","),
    )
}

/// Writes [`hotspots_json`] to `path`.
pub fn write_hotspots_json(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, hotspots_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cordic_sw_hot_block_is_the_inner_loop() {
        let rows = hotspot_rows_with(1);
        let sw = rows.iter().find(|r| r.name == "cordic_24iter_sw").unwrap();
        assert_eq!(
            sw.hot[0].region, "join",
            "the compiled CORDIC kernel's hottest block is the inner-loop tail"
        );
        assert!(
            ["iter", "ypos", "join"].contains(&sw.advice[0].region.as_str()),
            "advisor must point at the inner loop, got {}",
            sw.advice[0].region
        );
        // The pure-software matmul burns everything in the k-loop; the
        // accelerated build's residue is the FSL marshalling itself.
        let mm_sw = rows.iter().find(|r| r.name == "matmul_16x16_sw").unwrap();
        assert_eq!(mm_sw.hot[0].region, "kloop");
        let mm_hw = rows.iter().find(|r| r.name == "matmul_16x16_nb4").unwrap();
        assert!(
            mm_hw.hot[0].region.starts_with("fsl_"),
            "after offload the hot path is communication, got {}",
            mm_hw.hot[0].region
        );
    }

    #[test]
    fn record_is_identical_across_worker_counts() {
        let serial = hotspot_rows_with(1);
        for workers in [2, 3, 8] {
            assert_eq!(serial, hotspot_rows_with(workers), "workers={workers}");
        }
    }

    #[test]
    fn hotspots_json_is_well_formed_with_required_keys() {
        let text = hotspots_json();
        let doc = softsim_trace::json::parse(&text).expect("BENCH_0006 must be valid JSON");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("softsim-bench/1"));
        assert_eq!(doc.get("bench_id").unwrap().as_str(), Some("BENCH_0006"));
        let workloads = doc.get("workloads").unwrap().as_array().unwrap();
        assert_eq!(workloads.len(), 4, "two CORDIC + two matmul configurations");
        for w in workloads {
            assert!(w.get("name").unwrap().as_str().is_some());
            assert!(w.get("cycles").unwrap().as_f64().unwrap() > 0.0);
            let hot = w.get("hot_blocks").unwrap().as_array().unwrap();
            assert!(!hot.is_empty() && hot.len() <= HOT_BLOCKS_PER_WORKLOAD);
            for b in hot {
                assert!(b.get("region").unwrap().as_str().is_some());
                assert!(b.get("cycles").unwrap().as_f64().unwrap() > 0.0);
            }
            for c in w.get("advice").unwrap().as_array().unwrap() {
                assert!(c.get("score").unwrap().as_f64().is_some());
                assert!(c.get("software_nj").unwrap().as_f64().unwrap() >= 0.0);
            }
        }
    }
}

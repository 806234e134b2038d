//! The `BENCH_0009` translated-execution record: the basic-block ISS
//! fast path against the stepped interpreter.
//!
//! Two compute-heavy software workloads — the pure-software block
//! matmul image on the bare ISS, and the repeated-batch software CORDIC
//! program under the co-simulation engine — are each run to completion
//! with translation off and with translation on, timed wall-clock.
//! Before any number is recorded, one run of each variant is compared
//! on every architectural observable (statistics, registers, full
//! simulation state), so every speedup in the JSON is backed by an
//! equivalence check, not just a stopwatch. The throughputs are
//! machine-dependent (like `BENCH_0003.json`); the result equality and
//! the CI floor (translated ≥ 2x interpreted on these workloads) are
//! not.

use crate::measure::{time_cosim, time_iss_alone, SimTiming};
use crate::tables::json_f64;
use crate::workloads;
use softsim_bus::FslBank;
use softsim_cosim::{CoSim, CoSimStop};
use softsim_isa::Image;
use softsim_iss::{Cpu, StopReason};
use std::time::Instant;

/// Completion runs per timed ISS measurement.
const ISS_REPEATS: u32 = 20;

/// Completion runs per timed co-simulation measurement.
const COSIM_REPEATS: u32 = 8;

/// Times the ISS with translated basic-block execution enabled —
/// [`time_iss_alone`] with the fast path on.
pub fn time_iss_translated(image: &Image, repeats: u32) -> SimTiming {
    let mut cycles = 0;
    let start = Instant::now();
    for _ in 0..repeats {
        let mut cpu = Cpu::with_default_memory(image);
        cpu.set_translation(true);
        let mut fsl = FslBank::default();
        let stop = cpu.run(&mut fsl, u64::MAX / 2);
        assert_eq!(stop, StopReason::Halted);
        cycles += cpu.stats().cycles;
    }
    SimTiming { wall: start.elapsed(), sim_cycles: cycles }
}

/// Runs `image` on the bare ISS interpreted and translated, asserting
/// bit-identical results, and returns the shared cycle count.
fn assert_iss_equivalent(image: &Image) -> u64 {
    let run = |translate: bool| {
        let mut cpu = Cpu::with_default_memory(image);
        cpu.set_translation(translate);
        let mut fsl = FslBank::default();
        assert_eq!(cpu.run(&mut fsl, u64::MAX / 2), StopReason::Halted);
        let regs: Vec<u32> = (0..32).map(|r| cpu.reg(softsim_isa::Reg::new(r))).collect();
        (cpu.stats(), cpu.pc(), cpu.carry(), regs, cpu.translation_stats().block_dispatches)
    };
    let interp = run(false);
    let xlate = run(true);
    assert_eq!(
        (&interp.0, interp.1, interp.2, &interp.3),
        (&xlate.0, xlate.1, xlate.2, &xlate.3),
        "translation must not change the ISS run"
    );
    assert!(xlate.4 > 0, "the fast path never engaged on the ISS workload");
    interp.0.cycles
}

/// Runs the co-simulation workload interpreted and translated,
/// asserting bit-identical results, and returns the shared cycle count.
fn assert_cosim_equivalent(make: impl Fn() -> CoSim) -> u64 {
    let run = |translate: bool| {
        let mut sim = make();
        sim.set_translation(translate);
        sim.set_fast_forward(false);
        assert_eq!(sim.run(u64::MAX / 2), CoSimStop::Halted);
        let dispatches = sim.cpu().translation_stats().block_dispatches;
        (sim.cpu_stats(), sim.hw_stats(), sim.save_state(), dispatches)
    };
    let interp = run(false);
    let xlate = run(true);
    assert_eq!(
        (&interp.0, &interp.1, &interp.2),
        (&xlate.0, &xlate.1, &xlate.2),
        "translation must not change the co-simulation run"
    );
    assert!(xlate.3 > 0, "the fast path never engaged on the co-sim workload");
    interp.0.cycles
}

/// The machine-readable `BENCH_0009` record as a JSON string.
///
/// # Panics
/// Panics if any translated run differs from its interpreted twin on
/// any observable — wall-clock without equivalence is meaningless here.
pub fn translate_json() -> String {
    // ISS alone: the paper's Table II row 1 workload family, software
    // block matmul at the headline size.
    let iss_image = workloads::matmul_image(workloads::MATMUL_TABLE_N, None);
    let iss_cycles = assert_iss_equivalent(&iss_image);
    let iss_interp = time_iss_alone(&iss_image, ISS_REPEATS);
    let iss_xlate = time_iss_translated(&iss_image, ISS_REPEATS);

    // Co-simulation: the long software CORDIC batch (no peripheral —
    // the CPU is the bottleneck, which is what translation targets),
    // with stall fast-forwarding off on both sides so the record times
    // translation alone.
    let make = || workloads::cordic_cosim_long(24, None);
    let cosim_cycles = assert_cosim_equivalent(make);
    let with_translation = |translate: bool| {
        move || {
            let mut sim = make();
            sim.set_translation(translate);
            sim.set_fast_forward(false);
            sim
        }
    };
    let cosim_interp = time_cosim(with_translation(false), COSIM_REPEATS);
    let cosim_xlate = time_cosim(with_translation(true), COSIM_REPEATS);

    let iss_speedup = iss_xlate.cycles_per_sec() / iss_interp.cycles_per_sec().max(1e-12);
    let cosim_speedup = cosim_xlate.cycles_per_sec() / cosim_interp.cycles_per_sec().max(1e-12);
    format!(
        "{{\"schema\":\"softsim-bench/1\",\"bench_id\":\"BENCH_0009\",\
         \"description\":\"translated basic-block execution vs the stepped interpreter, equivalence-checked\",\
         \"iss\":{{\"workload\":\"matmul N={} software image, ISS alone\",\"cycles_per_run\":{iss_cycles},\"repeats\":{ISS_REPEATS},\
         \"interpreter\":{{\"wall_seconds\":{},\"cycles_per_sec\":{}}},\
         \"translated\":{{\"wall_seconds\":{},\"cycles_per_sec\":{}}},\
         \"speedup\":{},\"results_identical\":true}},\
         \"cosim\":{{\"workload\":\"cordic 24-iteration software batch x{}, co-simulation\",\"cycles_per_run\":{cosim_cycles},\"repeats\":{COSIM_REPEATS},\
         \"interpreter\":{{\"wall_seconds\":{},\"cycles_per_sec\":{}}},\
         \"translated\":{{\"wall_seconds\":{},\"cycles_per_sec\":{}}},\
         \"speedup\":{},\"results_identical\":true}},\
         \"best_speedup\":{}}}\n",
        workloads::MATMUL_TABLE_N,
        json_f64(iss_interp.seconds()),
        json_f64(iss_interp.cycles_per_sec()),
        json_f64(iss_xlate.seconds()),
        json_f64(iss_xlate.cycles_per_sec()),
        json_f64(iss_speedup),
        workloads::TIMING_REPS,
        json_f64(cosim_interp.seconds()),
        json_f64(cosim_interp.cycles_per_sec()),
        json_f64(cosim_xlate.seconds()),
        json_f64(cosim_xlate.cycles_per_sec()),
        json_f64(cosim_speedup),
        json_f64(iss_speedup.max(cosim_speedup)),
    )
}

/// Writes [`translate_json`] to `path`.
pub fn write_translate_json(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, translate_json())
}

#[cfg(test)]
mod tests {
    use softsim_trace::json::parse;

    #[test]
    fn translate_json_is_well_formed_with_required_keys() {
        let doc = parse(&super::translate_json()).expect("valid json");
        assert_eq!(doc.get("schema").unwrap().as_str().unwrap(), "softsim-bench/1");
        assert_eq!(doc.get("bench_id").unwrap().as_str().unwrap(), "BENCH_0009");
        for section in ["iss", "cosim"] {
            let s = doc.get(section).unwrap();
            for key in ["interpreter", "translated"] {
                let side = s.get(key).unwrap();
                assert!(side.get("wall_seconds").unwrap().as_f64().unwrap() >= 0.0);
                assert!(side.get("cycles_per_sec").unwrap().as_f64().unwrap() > 0.0);
            }
            assert!(s.get("speedup").unwrap().as_f64().unwrap() > 0.0);
            assert!(s.get("cycles_per_run").unwrap().as_f64().unwrap() > 0.0);
        }
        assert!(doc.get("best_speedup").unwrap().as_f64().unwrap() > 0.0);
    }
}

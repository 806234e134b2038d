//! Structural RTL netlist of the CORDIC pipeline — what System Generator
//! would emit for the Fig. 4 design, simulated in the event-driven
//! low-level baseline.
//!
//! Cycle semantics match the block-level peripheral exactly (validated by
//! the cross-simulator tests): deserializer, PEs and serializer latch on
//! rising clock edges; the FSL interface stages run on falling edges.
//! Each PE additionally instantiates combinational add/sub observers so
//! the event kernel sees the same per-cycle datapath traffic the real
//! netlist would generate.

use crate::cordic::reference;
use softsim_isa::Image;
use softsim_rtl::kernel::Primitives;
use softsim_rtl::{comp, RtlStop, SocRtl};
use std::collections::VecDeque;

/// Primitive bill of one PE's registers (the add/sub LUTs are counted by
/// the combinational observer components themselves): stage registers
/// pack into the adder slices, leaving the XS/C registers.
const PE_PRIMITIVES: Primitives = Primitives { ff_bits: 62, lut_bits: 0, mult18s: 0, brams: 0 };
/// Deserializer: three 32-bit holding registers plus phase control.
const DESER_PRIMITIVES: Primitives =
    Primitives { ff_bits: 100, lut_bits: 24, mult18s: 0, brams: 0 };
/// Serializer: SRL16 buffering plus output register and control.
const SER_PRIMITIVES: Primitives = Primitives { ff_bits: 40, lut_bits: 40, mult18s: 0, brams: 0 };

/// Builds the full low-level system: MB32 SoC plus the `p`-PE CORDIC
/// pipeline on FSL channel 0, running `image`.
pub fn build_cordic_rtl(image: &Image, p: usize) -> SocRtl {
    let mut soc = SocRtl::new(image);
    attach_cordic_rtl(&mut soc, p);
    soc
}

/// Attaches the pipeline to an existing SoC.
pub fn attach_cordic_rtl(soc: &mut SocRtl, p: usize) {
    assert!(p >= 1);
    let hin = soc.hw_in(0);
    let hout = soc.hw_out(0);
    let clk = soc.clock.clk;
    let k = &mut soc.kernel;

    // Stage-boundary signals: index 0 is the deserializer output.
    let mut xs = Vec::new();
    let mut y = Vec::new();
    let mut z = Vec::new();
    let mut tv = Vec::new();
    let mut c = Vec::new();
    let mut cl = Vec::new();
    for i in 0..=p {
        xs.push(k.signal(format!("st{i}_xs"), 32));
        y.push(k.signal(format!("st{i}_y"), 32));
        z.push(k.signal(format!("st{i}_z"), 32));
        tv.push(k.signal(format!("st{i}_tv"), 1));
        c.push(k.signal(format!("st{i}_c"), 32));
        cl.push(k.signal(format!("st{i}_cl"), 1));
    }

    // Deserializer FSM (rising edge).
    {
        k.add_primitives(DESER_PRIMITIVES);
        let (o_xs, o_y, o_z, o_tv, o_c, o_cl) = (xs[0], y[0], z[0], tv[0], c[0], cl[0]);
        let mut phase = 0u8;
        let (mut rxs, mut ry) = (0u32, 0u32);
        k.process(&[clk], move |ctx| {
            if !ctx.rising(clk) {
                return;
            }
            ctx.set(o_tv, 0);
            ctx.set(o_cl, 0);
            if ctx.get(hin.valid) == 0 {
                return;
            }
            let data = ctx.get(hin.data) as u32;
            if ctx.get(hin.ctrl) != 0 {
                ctx.set(o_c, data as u64);
                ctx.set(o_cl, 1);
                return;
            }
            match phase {
                0 => rxs = data,
                1 => ry = data,
                _ => {
                    ctx.set(o_xs, rxs as u64);
                    ctx.set(o_y, ry as u64);
                    ctx.set(o_z, data as u64);
                    ctx.set(o_tv, 1);
                }
            }
            phase = (phase + 1) % 3;
        });
    }

    // PE chain (rising edge) with combinational observers.
    for i in 0..p {
        k.add_primitives(PE_PRIMITIVES);
        let (i_xs, i_y, i_z, i_tv, i_c, i_cl) = (xs[i], y[i], z[i], tv[i], c[i], cl[i]);
        let (o_xs, o_y, o_z, o_tv, o_c, o_cl) =
            (xs[i + 1], y[i + 1], z[i + 1], tv[i + 1], c[i + 1], cl[i + 1]);
        let mut c_reg: i32 = 0;
        k.process(&[clk], move |ctx| {
            if !ctx.rising(clk) {
                return;
            }
            if ctx.get(i_cl) != 0 {
                c_reg = ctx.get(i_c) as u32 as i32;
                ctx.set(o_c, ((c_reg >> 1) as u32) as u64);
                ctx.set(o_cl, 1);
            } else {
                ctx.set(o_cl, 0);
            }
            let t = ctx.get(i_tv) != 0;
            ctx.set(o_tv, t as u64);
            if t {
                let (nxs, ny, nz) = reference::iterate(
                    ctx.get(i_xs) as u32 as i32,
                    ctx.get(i_y) as u32 as i32,
                    ctx.get(i_z) as u32 as i32,
                    c_reg,
                );
                ctx.set(o_xs, (nxs as u32) as u64);
                ctx.set(o_y, (ny as u32) as u64);
                ctx.set(o_z, (nz as u32) as u64);
            }
        });
        // Combinational Y/Z add-sub observers: the structural datapath
        // the clocked stage registers would capture.
        let y_sum = k.signal(format!("pe{i}_y_addsub"), 32);
        let z_sum = k.signal(format!("pe{i}_z_addsub"), 32);
        let d = k.signal(format!("pe{i}_d"), 1);
        comp::sign_bit(k, i_y, d, 32);
        comp::addsub(k, i_y, i_xs, Some(d), y_sum, 32);
        comp::addsub(k, i_z, i_c, Some(d), z_sum, 32);
    }

    // Serializer FSM (rising edge): queue (Y, Z) pairs, one word/cycle.
    {
        k.add_primitives(SER_PRIMITIVES);
        let (i_y, i_z, i_tv) = (y[p], z[p], tv[p]);
        let mut queue: VecDeque<u64> = VecDeque::new();
        k.process(&[clk], move |ctx| {
            if !ctx.rising(clk) {
                return;
            }
            if ctx.get(i_tv) != 0 {
                queue.push_back(ctx.get(i_y));
                queue.push_back(ctx.get(i_z));
            }
            match queue.pop_front() {
                Some(w) => {
                    ctx.set(hout.data, w);
                    ctx.set(hout.valid, 1);
                }
                None => ctx.set(hout.valid, 0),
            }
        });
    }
}

/// Convenience: run a CORDIC image against the RTL system.
pub fn run_cordic_rtl(image: &Image, p: usize, max_cycles: u64) -> (SocRtl, RtlStop) {
    let mut soc = build_cordic_rtl(image, p);
    let stop = soc.run(max_cycles);
    (soc, stop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cordic::reference;
    use crate::cordic::software::{hw_program, CordicBatch, RESULT_LABEL};
    use softsim_isa::asm::assemble;

    fn batch() -> CordicBatch {
        CordicBatch::new(&[
            (reference::to_fix(1.0), reference::to_fix(0.5)),
            (reference::to_fix(1.5), reference::to_fix(1.2)),
            (reference::to_fix(2.0), reference::to_fix(-1.0)),
        ])
    }

    #[test]
    fn rtl_pipeline_matches_reference() {
        let b = batch();
        for p in [2usize, 4] {
            let img = assemble(&hw_program(&b, 24, p)).unwrap();
            let (soc, stop) = run_cordic_rtl(&img, p, 1_000_000);
            assert_eq!(stop, RtlStop::Halted, "P={p}");
            let base = img.symbol(RESULT_LABEL).unwrap();
            for i in 0..b.len() {
                let got = soc.mem_word(base + 4 * i as u32) as i32;
                let expect = reference::divide_fix(b.a[i], b.b[i], 24);
                assert_eq!(got, expect, "P={p} sample {i}");
            }
        }
    }

    #[test]
    fn rtl_cycle_count_matches_cosim() {
        // The paper's premise: the high-level co-simulation is
        // cycle-accurate with respect to the low-level implementation.
        let b = batch();
        for p in [2usize, 4, 8] {
            let img = assemble(&hw_program(&b, 24, p)).unwrap();
            let mut cosim = softsim_cosim::CoSim::with_peripheral(
                &img,
                crate::cordic::hardware::cordic_peripheral(p),
            );
            assert_eq!(cosim.run(1_000_000), softsim_cosim::CoSimStop::Halted);
            let (soc, stop) = run_cordic_rtl(&img, p, 1_000_000);
            assert_eq!(stop, RtlStop::Halted);
            assert_eq!(
                soc.cpu_cycles(),
                cosim.cpu_stats().cycles,
                "P={p}: RTL and co-sim must agree cycle-exactly"
            );
        }
    }

    #[test]
    fn rtl_actual_resources_near_estimate() {
        // Table I: estimated (System Generator) vs actual (place & route)
        // track each other within a few percent.
        for p in [2usize, 4, 6, 8] {
            let b = batch();
            let img = assemble(&hw_program(&b, 24, p)).unwrap();
            let soc = build_cordic_rtl(&img, p);
            let actual = softsim_resource::actual_from_primitives(soc.kernel.primitives());
            let cfg = softsim_resource::SystemConfig {
                program: &img,
                peripheral: crate::cordic::hardware::pipeline_resources(p),
                fsl_channels: 1,
            };
            let est = softsim_resource::estimate_system(&cfg, &Default::default());
            let err = softsim_resource::slice_error(est, actual);
            assert!(
                err.abs() < 0.08,
                "P={p}: estimated {} vs actual {} ({:+.1}%)",
                est.slices,
                actual.slices,
                err * 100.0
            );
            assert_eq!(est.mult18s, actual.mult18s, "PEs use no multipliers");
        }
    }
}

//! Structural RTL netlist of the block-product unit (Fig. 6) for the
//! low-level simulation baseline. Cycle semantics match the block-level
//! peripheral exactly; `nb` multiplier components and the B-register /
//! accumulator banks generate the per-cycle event traffic of the real
//! netlist.

use softsim_isa::Image;
use softsim_rtl::kernel::Primitives;
use softsim_rtl::{comp, RtlStop, SocRtl};
use std::collections::VecDeque;

/// Builds the full low-level system: MB32 SoC plus the `nb × nb`
/// block-product unit on FSL channel 0.
pub fn build_matmul_rtl(image: &Image, nb: usize) -> SocRtl {
    let mut soc = SocRtl::new(image);
    attach_matmul_rtl(&mut soc, nb);
    soc
}

/// Attaches the unit to an existing SoC.
pub fn attach_matmul_rtl(soc: &mut SocRtl, nb: usize) {
    assert!(nb >= 1);
    let hin = soc.hw_in(0);
    let hout = soc.hw_out(0);
    let clk = soc.clock.clk;
    let k = &mut soc.kernel;

    // Register banks (B block + accumulators, the accumulator registers
    // packing into their adder slices) plus stream control; the
    // multipliers and accumulator adders instantiated below count their
    // own primitives.
    k.add_primitives(Primitives {
        ff_bits: (nb * nb * 32 + 8) as u64,
        lut_bits: (nb * nb * 16 + 50) as u64,
        mult18s: 0,
        brams: 0,
    });

    // Observation signals for the nb-wide MAC datapath.
    let a_bcast = k.signal("mm_a_bcast", 32);
    let mut b_row = Vec::new();
    let mut prod = Vec::new();
    let mut acc_sig = Vec::new();
    for j in 0..nb {
        b_row.push(k.signal(format!("mm_b_row{j}"), 32));
        prod.push(k.signal(format!("mm_prod{j}"), 32));
        acc_sig.push(k.signal(format!("mm_acc{j}"), 32));
    }
    for j in 0..nb {
        // One embedded 18×18 multiplier per column (matrix elements are
        // 16-bit values, as in the paper) and one accumulator adder.
        comp::multiplier(k, clk, a_bcast, b_row[j], prod[j], 18, 1);
        let acc_in = acc_sig[j];
        let sum = k.signal(format!("mm_sum{j}"), 32);
        comp::addsub(k, acc_in, prod[j], None, sum, 32);
    }

    // The control FSM, cycle-exact with the block-level `MatmulUnit`.
    let mut b: Vec<i32> = vec![0; nb * nb];
    let mut b_idx = 0usize;
    let mut acc: Vec<i32> = vec![0; nb * nb];
    let mut a_idx = 0usize;
    let mut out: VecDeque<i32> = VecDeque::new();
    k.process(&[clk], move |ctx| {
        if !ctx.rising(clk) {
            return;
        }
        if ctx.get(hin.valid) != 0 {
            let data = ctx.get(hin.data) as u32 as i32;
            if ctx.get(hin.ctrl) != 0 {
                b[b_idx] = data;
                b_idx = (b_idx + 1) % (nb * nb);
                a_idx = 0;
                acc.iter_mut().for_each(|a| *a = 0);
            } else {
                let kk = a_idx / nb;
                let i = a_idx % nb;
                ctx.set(a_bcast, (data as u32) as u64);
                for j in 0..nb {
                    ctx.set(b_row[j], (b[kk * nb + j] as u32) as u64);
                    acc[i * nb + j] =
                        acc[i * nb + j].wrapping_add(data.wrapping_mul(b[kk * nb + j]));
                    ctx.set(acc_sig[j], (acc[i * nb + j] as u32) as u64);
                }
                a_idx += 1;
                if a_idx == nb * nb {
                    out.extend(acc.iter().copied());
                    acc.iter_mut().for_each(|a| *a = 0);
                    a_idx = 0;
                }
            }
        }
        match out.pop_front() {
            Some(w) => {
                ctx.set(hout.data, (w as u32) as u64);
                ctx.set(hout.valid, 1);
            }
            None => ctx.set(hout.valid, 0),
        }
    });
}

/// Convenience: run a matmul image against the RTL system.
pub fn run_matmul_rtl(image: &Image, nb: usize, max_cycles: u64) -> (SocRtl, RtlStop) {
    let mut soc = build_matmul_rtl(image, nb);
    let stop = soc.run(max_cycles);
    (soc, stop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::reference::{self, Matrix};
    use crate::matmul::software::{hw_program, RESULT_LABEL};
    use softsim_isa::asm::assemble;

    #[test]
    fn rtl_matmul_matches_reference() {
        for (n, nb) in [(4usize, 2usize), (8, 4)] {
            let a = Matrix::test_pattern(n, 11);
            let b = Matrix::test_pattern(n, 12);
            let img = assemble(&hw_program(&a, &b, nb)).unwrap();
            let (soc, stop) = run_matmul_rtl(&img, nb, 10_000_000);
            assert_eq!(stop, RtlStop::Halted, "n={n} nb={nb}");
            let base = img.symbol(RESULT_LABEL).unwrap();
            let expect = reference::multiply(&a, &b);
            for i in 0..n * n {
                assert_eq!(
                    soc.mem_word(base + 4 * i as u32) as i32,
                    expect.data[i],
                    "n={n} nb={nb} element {i}"
                );
            }
        }
    }

    #[test]
    fn rtl_cycle_count_matches_cosim() {
        let (n, nb) = (4usize, 2usize);
        let a = Matrix::test_pattern(n, 13);
        let b = Matrix::test_pattern(n, 14);
        let img = assemble(&hw_program(&a, &b, nb)).unwrap();
        let mut cosim = softsim_cosim::CoSim::with_peripheral(
            &img,
            crate::matmul::hardware::matmul_peripheral(nb),
        );
        assert_eq!(cosim.run(10_000_000), softsim_cosim::CoSimStop::Halted);
        let (soc, stop) = run_matmul_rtl(&img, nb, 10_000_000);
        assert_eq!(stop, RtlStop::Halted);
        assert_eq!(soc.cpu_cycles(), cosim.cpu_stats().cycles);
    }

    #[test]
    fn rtl_multiplier_count_matches_table_one() {
        let a = Matrix::test_pattern(4, 1);
        let b = Matrix::test_pattern(4, 2);
        for nb in [2usize, 4] {
            let img = assemble(&hw_program(&a, &b, nb)).unwrap();
            let soc = build_matmul_rtl(&img, nb);
            // 3 CPU multipliers + nb for the unit: Table I's 5 and 7.
            assert_eq!(soc.kernel.primitives().mult18s as usize, 3 + nb);
        }
    }
}

//! Canonical workloads for the paper's experiments — the exact
//! configurations behind Figure 5, Figure 7, Table I and Table II.

use softsim_apps::cordic::software::{sw_program, SwStyle};
use softsim_apps::matmul::reference::Matrix;
use softsim_apps::matmul::software as mm_sw;
use softsim_cosim::{CoSim, Peripheral};
use softsim_isa::asm::assemble;
use softsim_isa::Image;
use softsim_rtl::SocRtl;
use softsim_serve::catalog::{self, cordic_batch, Workload};

/// The P values of Figure 5 / Table I.
pub const CORDIC_PS: [usize; 4] = [2, 4, 6, 8];

/// The iteration counts of Figure 5.
pub const CORDIC_ITERS: [u32; 2] = [8, 24];

/// Assembled pure-software CORDIC image (`P = 0`).
pub fn cordic_sw_image(iterations: u32) -> Image {
    assemble(&sw_program(&cordic_batch(), iterations, SwStyle::Compiled))
        .expect("cordic sw assembles")
}

/// Assembled HW-accelerated CORDIC image for `p` PEs (the catalog's).
pub fn cordic_hw_image(iterations: u32, p: usize) -> Image {
    catalog::image(Workload::Cordic { iterations, p })
}

/// Batch repetitions used by the timing rows so each run simulates tens
/// of thousands of cycles (the paper times ~1.5 ms ≈ 75k cycles at
/// 50 MHz).
pub const TIMING_REPS: u32 = 40;

/// Long-running co-simulator for the timing comparisons: the batch is
/// processed [`TIMING_REPS`] times within one program.
pub fn cordic_cosim_long(iterations: u32, p: Option<usize>) -> CoSim {
    use softsim_apps::cordic::software::{hw_program_repeated, sw_program_repeated};
    match p {
        None => CoSim::software_only(
            &assemble(&sw_program_repeated(
                &cordic_batch(),
                iterations,
                SwStyle::Compiled,
                TIMING_REPS,
            ))
            .expect("assembles"),
        ),
        Some(p) => CoSim::with_peripheral(
            &assemble(&hw_program_repeated(&cordic_batch(), iterations, p, TIMING_REPS))
                .expect("assembles"),
            softsim_apps::cordic::hardware::cordic_peripheral(p),
        ),
    }
}

/// Long-running RTL system matching [`cordic_cosim_long`].
pub fn cordic_rtl_long(iterations: u32, p: Option<usize>) -> SocRtl {
    use softsim_apps::cordic::software::{hw_program_repeated, sw_program_repeated};
    match p {
        None => SocRtl::new(
            &assemble(&sw_program_repeated(
                &cordic_batch(),
                iterations,
                SwStyle::Compiled,
                TIMING_REPS,
            ))
            .expect("assembles"),
        ),
        Some(p) => softsim_apps::cordic::rtl::build_cordic_rtl(
            &assemble(&hw_program_repeated(&cordic_batch(), iterations, p, TIMING_REPS))
                .expect("assembles"),
            p,
        ),
    }
}

/// Co-simulator for a CORDIC configuration (`p = None` → pure software).
pub fn cordic_cosim(iterations: u32, p: Option<usize>) -> CoSim {
    match p {
        None => CoSim::software_only(&cordic_sw_image(iterations)),
        Some(p) => CoSim::with_peripheral(
            &cordic_hw_image(iterations, p),
            softsim_apps::cordic::hardware::cordic_peripheral(p),
        ),
    }
}

/// Low-level (RTL) system for a CORDIC configuration.
pub fn cordic_rtl(iterations: u32, p: Option<usize>) -> SocRtl {
    match p {
        None => SocRtl::new(&cordic_sw_image(iterations)),
        Some(p) => softsim_apps::cordic::rtl::build_cordic_rtl(&cordic_hw_image(iterations, p), p),
    }
}

/// Matrix sizes swept in Figure 7.
pub const MATMUL_NS: [usize; 4] = [4, 8, 16, 32];

/// The paper's headline matrix size ("multiplication of two matrices"
/// with 2×2 / 4×4 blocks, Table I).
pub const MATMUL_TABLE_N: usize = 16;

/// Assembled matmul image (`nb = None` → pure software over the
/// catalog's matrices).
pub fn matmul_image(n: usize, nb: Option<usize>) -> Image {
    let Some(nb) = nb else {
        let (a, b) = (Matrix::test_pattern(n, 7), Matrix::test_pattern(n, 8));
        return assemble(&mm_sw::sw_program(&a, &b)).expect("matmul assembles");
    };
    catalog::image(Workload::Matmul { n, nb })
}

/// Co-simulator for a matmul configuration.
pub fn matmul_cosim(n: usize, nb: Option<usize>) -> CoSim {
    match nb {
        None => CoSim::software_only(&matmul_image(n, None)),
        Some(nb) => CoSim::with_peripheral(
            &matmul_image(n, Some(nb)),
            softsim_apps::matmul::hardware::matmul_peripheral(nb),
        ),
    }
}

/// Co-simulator for a hardened CORDIC configuration: `ecc` turns on the
/// SEC-DED codec on every FSL channel, `tmr` swaps the peripheral for
/// the triple-modular-redundant build. Both off reproduces
/// [`cordic_cosim`] with `Some(p)` exactly — the hardening knobs never
/// change the catalog's program image or the data path.
pub fn cordic_cosim_hardened(iterations: u32, p: usize, ecc: bool, tmr: bool) -> CoSim {
    let peripheral = if tmr {
        softsim_apps::cordic::hardware::cordic_peripheral_tmr(p)
    } else {
        softsim_apps::cordic::hardware::cordic_peripheral(p)
    };
    let mut sim = CoSim::with_peripheral(&cordic_hw_image(iterations, p), peripheral);
    sim.set_fsl_ecc(ecc);
    sim
}

/// Hardened block-matmul co-simulator, mirroring
/// [`cordic_cosim_hardened`].
pub fn matmul_cosim_hardened(n: usize, nb: usize, ecc: bool, tmr: bool) -> CoSim {
    let peripheral = if tmr {
        softsim_apps::matmul::hardware::matmul_peripheral_tmr(nb)
    } else {
        softsim_apps::matmul::hardware::matmul_peripheral(nb)
    };
    let mut sim = CoSim::with_peripheral(&matmul_image(n, Some(nb)), peripheral);
    sim.set_fsl_ecc(ecc);
    sim
}

/// Low-level (RTL) system for a matmul configuration.
pub fn matmul_rtl_sys(n: usize, nb: Option<usize>) -> SocRtl {
    match nb {
        None => SocRtl::new(&matmul_image(n, None)),
        Some(nb) => softsim_apps::matmul::rtl::build_matmul_rtl(&matmul_image(n, Some(nb)), nb),
    }
}

/// The peripheral attached in a CORDIC co-simulation (needed for resource
/// accounting alongside [`cordic_cosim`]).
pub fn cordic_peripheral(p: usize) -> Peripheral {
    softsim_apps::cordic::hardware::cordic_peripheral(p)
}

//! The debug session drives the whole co-simulation: a CORDIC `P = 4`
//! hardware program, whose every result crosses the FSL channels,
//! reaches `halt` through the textual protocol with the same processor
//! and hardware statistics as a plain [`CoSim::run`] — straight through
//! and when stopped at a breakpoint inside its receive loop.

use softsim_apps::cordic::hardware::cordic_peripheral;
use softsim_apps::cordic::reference::to_fix;
use softsim_apps::cordic::software::{hw_program, CordicBatch};
use softsim_cosim::debug::DebugSession;
use softsim_cosim::{CoSim, CoSimStop};
use softsim_isa::asm::assemble;
use softsim_isa::Image;

const P: usize = 4;
const PAIRS: [(f64, f64); 4] = [(1.0, 0.5), (1.5, 1.2), (2.0, -1.0), (1.25, 0.8)];

fn image() -> Image {
    let pairs: Vec<(i32, i32)> = PAIRS.iter().map(|&(a, b)| (to_fix(a), to_fix(b))).collect();
    assemble(&hw_program(&CordicBatch::new(&pairs), 24, P)).expect("assembles")
}

fn sim(image: &Image) -> CoSim {
    CoSim::with_peripheral(image, cordic_peripheral(P))
}

/// The plain run every session must match.
fn reference(image: &Image) -> CoSim {
    let mut sim = sim(image);
    assert_eq!(sim.run(u64::MAX / 2), CoSimStop::Halted);
    sim
}

#[test]
fn cont_runs_a_hardware_program_to_halt() {
    let image = image();
    let want = reference(&image);
    let mut sim = sim(&image);
    let mut dbg = DebugSession::new(&mut sim);
    assert_eq!(dbg.handle_line("cont"), "stopped halted");
    let stats = want.cpu_stats();
    assert_eq!(
        dbg.handle_line("stats"),
        format!(
            "stats cycles={} instructions={} fsl-stalls={}",
            stats.cycles,
            stats.instructions,
            stats.fsl_stalls()
        )
    );
    assert_eq!(sim.cpu_stats(), want.cpu_stats());
    assert_eq!(sim.hw_stats(), want.hw_stats());
    assert!(sim.hw_stats().words_from_hw > 0, "results came back over FSL");
}

#[test]
fn a_breakpoint_in_the_receive_loop_resumes_to_the_same_halt() {
    let image = image();
    let want = reference(&image);
    let recv = image.symbol("recv0").expect("receive loop label");
    let mut sim = sim(&image);
    let mut dbg = DebugSession::new(&mut sim);
    assert_eq!(dbg.handle_line(&format!("break {recv:#x}")), "ok");
    // One stop per sample of the first pass's receive loop, then halt.
    let mut hits = 0;
    loop {
        match dbg.handle_line("cont").as_str() {
            "stopped halted" => break,
            line => assert_eq!(line, format!("stopped breakpoint {recv:#010x}")),
        }
        hits += 1;
        // Stepping from the breakpoint runs its blocking `get`, the
        // hardware side ticking along until the result arrives.
        assert_eq!(dbg.handle_line("step"), "stopped cycle-limit");
        assert_ne!(dbg.handle_line("rpc"), format!("value {recv:#010x}"));
    }
    assert_eq!(hits, PAIRS.len());
    assert_eq!(sim.cpu_stats(), want.cpu_stats());
    assert_eq!(sim.hw_stats(), want.hw_stats());
    assert_eq!(sim.cpu().mem().bytes(), want.cpu().mem().bytes());
    assert_eq!(sim.peripherals()[0].graph().cycles(), want.peripherals()[0].graph().cycles());
}

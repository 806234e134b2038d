//! The profiler's accounting discipline, end to end through `CoSim` with
//! a `GuestProfile` attached as its trace sink: per-PC attribution must
//! sum *exactly* to the processor's own cycle
//! counter (the same reconciliation discipline the stall-attribution
//! trace established), profiles must be byte-identical across runs, and
//! the CORDIC hot block must be the known inner loop.

use softsim_apps::cordic::hardware::cordic_peripheral;
use softsim_apps::cordic::reference::to_fix;
use softsim_apps::cordic::software::{hw_program, sw_program, CordicBatch, SwStyle};
use softsim_bus::CHANNELS;
use softsim_cosim::{CoSim, CoSimStop};
use softsim_isa::asm::assemble;
use softsim_isa::Image;
use softsim_profile::{advise, advise_text, GuestReport};
use softsim_trace::{shared, Fanout, GuestProfile};
use std::cell::RefCell;
use std::rc::Rc;

fn cordic_batch() -> CordicBatch {
    let pairs: Vec<(i32, i32)> = [(1.0, 0.5), (1.5, 1.2), (2.0, -1.0), (1.25, 0.8)]
        .iter()
        .map(|&(a, b)| (to_fix(a), to_fix(b)))
        .collect();
    CordicBatch::new(&pairs)
}

fn cordic_sw_image() -> Image {
    assemble(&sw_program(&cordic_batch(), 24, SwStyle::Compiled)).expect("assembles")
}

fn cordic_hw_image(p: usize) -> Image {
    assemble(&hw_program(&cordic_batch(), 24, p)).expect("assembles")
}

/// Attaches a fresh guest profile to `sim` as its trace sink and returns
/// a handle to read it back.
fn attach_profile(sim: &mut CoSim) -> Rc<RefCell<GuestProfile>> {
    let profile = Rc::new(RefCell::new(GuestProfile::new()));
    sim.attach_trace(shared(profile.clone()));
    profile
}

#[test]
fn software_profile_reconciles_and_finds_the_inner_loop() {
    let image = cordic_sw_image();
    let mut sim = CoSim::software_only(&image);
    let profile = attach_profile(&mut sim);
    assert_eq!(sim.run(u64::MAX / 2), CoSimStop::Halted);
    assert!(sim.cpu().in_flight().is_none(), "a halted run leaves nothing in flight");

    let profile = profile.borrow();
    let stats = sim.cpu_stats();
    assert_eq!(profile.total_cycles(), stats.cycles, "per-PC cycles must sum to CpuStats");
    assert_eq!(profile.total_retires(), stats.instructions);

    let report = GuestReport::build(&image, &profile);
    assert_eq!(report.total_cycles(), stats.cycles);
    assert_eq!(report.unmapped_cycles(), 0);
    // The compiled CORDIC kernel's inner loop is iter → (ypos) → join →
    // iter; its tail block `join` (spill/reload memory ops + back
    // branch, executed every iteration) dominates, with `iter` next.
    let hot = report.hot_blocks(3);
    assert_eq!(hot[0].block.region, "join", "CORDIC's hot block is the known inner loop");
    const INNER_LOOP: [&str; 3] = ["iter", "ypos", "join"];
    for b in &hot {
        assert!(
            INNER_LOOP.contains(&b.block.region.as_str()),
            "top blocks all sit in the inner loop, got {}",
            b.block.region
        );
    }

    // The inner loop also tops the partition-advisor ranking.
    let ranked = advise(&report);
    assert!(INNER_LOOP.contains(&ranked[0].region.as_str()));
    assert!(ranked[0].score > 0);
}

#[test]
fn hardware_profile_reconciles_with_fsl_stalls() {
    let image = cordic_hw_image(4);
    let mut sim = CoSim::with_peripheral(&image, cordic_peripheral(4));
    let profile = attach_profile(&mut sim);
    assert_eq!(sim.run(u64::MAX / 2), CoSimStop::Halted);

    let profile = profile.borrow();
    let stats = sim.cpu_stats();
    assert_eq!(profile.total_cycles(), stats.cycles);
    let (reads, writes) =
        profile.pc_stats().fold((0, 0), |(r, w), (_, s)| (r + s.read_stalls, w + s.write_stalls));
    assert_eq!(reads, stats.fsl_read_stalls, "stall attribution splits exactly");
    assert_eq!(writes, stats.fsl_write_stalls);
    let fsl = sim.fsl();
    let bank_pushes: u64 = (0..CHANNELS)
        .map(|ch| fsl.to_hw_ref(ch).stats().pushes + fsl.from_hw_ref(ch).stats().pushes)
        .sum();
    assert!(bank_pushes > 0, "the run moved FSL words");
    assert_eq!(profile.fsl_pushes(), bank_pushes, "every push reached the profile");
}

#[test]
fn cycle_limited_run_still_reconciles_via_in_flight_attribution() {
    // Deliberately cut the run inside an FSL stall: this program blocks
    // on `get` with no peripheral attached.
    let image = cordic_hw_image(4);
    let mut sim = CoSim::software_only(&image);
    let profile = attach_profile(&mut sim);
    let stop = sim.run(500);
    assert!(matches!(stop, CoSimStop::CycleLimit { .. }));
    let f = sim.cpu().in_flight().expect("the run stops mid-instruction");
    assert!(f.read_stalls > 0, "the run stops mid-stall");
    let mut profile = profile.borrow().clone();
    assert!(profile.total_cycles() < sim.cpu_stats().cycles, "the stall is not yet charged");
    profile.add_in_flight(f.pc, f.cycles, f.read_stalls, f.write_stalls);
    let stats = sim.cpu_stats();
    assert_eq!(
        profile.total_cycles(),
        stats.cycles,
        "in-flight attribution closes the books on cycle-limited runs"
    );
    // The breakdown counts the in-flight instruction's stall cycles too.
    let b = profile.breakdown();
    assert_eq!(b.total, stats.cycles);
    assert_eq!(b.fsl_read_stall, stats.fsl_read_stalls);
    assert_eq!(b.fsl_write_stall, stats.fsl_write_stalls);
}

#[test]
fn two_profiles_in_a_fanout_both_reconcile() {
    let image = cordic_sw_image();
    let mut sim = CoSim::software_only(&image);
    let a = Rc::new(RefCell::new(GuestProfile::new()));
    let b = Rc::new(RefCell::new(GuestProfile::new()));
    let fanout = Fanout::new().with(shared(a.clone())).with(shared(b.clone()));
    sim.attach_trace(shared(Rc::new(RefCell::new(fanout))));
    let start = sim.save_state();
    assert_eq!(sim.run(u64::MAX / 2), CoSimStop::Halted);
    let stats = sim.cpu_stats();
    for p in [&a, &b] {
        assert_eq!(p.borrow().breakdown().total, stats.cycles, "each sink saw every event");
        assert_eq!(p.borrow().total_cycles(), stats.cycles);
    }
    assert_eq!(a.borrow().report(10), b.borrow().report(10));

    // Detached, a second run from the start reaches no sink.
    sim.detach_trace();
    sim.load_state(&start);
    assert_eq!(sim.run(u64::MAX / 2), CoSimStop::Halted);
    assert_eq!(sim.cpu_stats(), stats);
    assert_eq!(a.borrow().total_cycles(), stats.cycles);
}

#[test]
fn profiles_are_byte_identical_across_runs() {
    let render = |p: usize| {
        let image = cordic_hw_image(p);
        let mut sim = CoSim::with_peripheral(&image, cordic_peripheral(p));
        let profile = attach_profile(&mut sim);
        assert_eq!(sim.run(u64::MAX / 2), CoSimStop::Halted);
        let profile = profile.borrow();
        let report = GuestReport::build(&image, &profile);
        format!(
            "{}\n{}\n{}\n{}",
            report.to_collapsed(),
            advise_text(&advise(&report)),
            report.annotated_disassembly(&image, &profile),
            profile.report(10)
        )
    };
    assert_eq!(render(4), render(4), "identical runs render identical profiles");
}

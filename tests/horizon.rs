//! Execution-mode oracle. A co-simulator runs in one of two modes, set
//! by its one fast-path switch, `set_translation`. The stepped
//! reference advances every component one cycle at a time and must take
//! no fast path. The fast mode (the build default) runs translated
//! blocks, jumps idle peripherals after a block and jumps stalled
//! stretches; it must leave the identical stops, whole-system snapshots
//! (`save_state`: CPU, every FIFO with its statistics, every graph) and
//! hardware counters. Each case — every application peripheral,
//! software-only programs (one of them self-modifying) and random FSL
//! programs — runs every row of the matrix in both modes: to halt, in
//! chunked `run(k)` calls, paused at given cycles by `run`'s budget,
//! stopped at breakpoints and resumed, across a checkpoint carried
//! through the `SSCK` bytes with the mode switched on the way, and into
//! watchdog deadlocks from stuck FIFO flags. `run`'s budget is its only
//! bound: a pause at an absolute cycle is `run(cycle - now)`.

mod common;

use common::random_program;
use softsim::apps::beamformer::beamformer_cosim;
use softsim::apps::cordic::hardware::{
    cordic_peripheral, cordic_peripheral_dual, cordic_peripheral_tmr, CordicPe, Deserializer,
    Serializer,
};
use softsim::apps::cordic::reference::to_fix;
use softsim::apps::cordic::software::{
    hw_program, hw_program_dual, hw_program_repeated, sw_program_repeated, CordicBatch, SwStyle,
};
use softsim::apps::fir::reference::test_signal;
use softsim::apps::fir::software::fir_cosim;
use softsim::apps::lpc::reference::test_autocorrelation;
use softsim::apps::lpc::software::{lpc_cosim, LpcDivision};
use softsim::apps::matmul::hardware::{
    matmul_peripheral, matmul_peripheral_chan, matmul_peripheral_tmr,
};
use softsim::apps::matmul::reference::Matrix;
use softsim::apps::matmul::software as mm_sw;
use softsim::blocks::library::Delay;
use softsim::blocks::{FixFmt, Graph};
use softsim::cosim::debug::{Command, DebugSession, Reply};
use softsim::cosim::{CoSim, CoSimState, CoSimStop, FslFromHw, FslToHw, HwStats, Peripheral};
use softsim::isa::asm::assemble;
use softsim::isa::{encode, ArithFlags, CpuConfig, Image, Inst, Reg};
use softsim::metrics::MetricsCollector;
use softsim::resilience::{snapshot, FaultKind, Injector};
use softsim::trace::{shared, Fanout, FifoDir, Recorder};
use softsim_testkit::Rng;
use std::cell::RefCell;
use std::rc::Rc;

/// Cycle budget no case comes near.
const BUDGET: u64 = 5_000_000;

/// An execution mode.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    /// The stepped reference: every fast path off.
    Stepped,
    /// Every fast path on, as built.
    Fast,
}

/// Both modes, the stepped reference first.
const MODES: [Mode; 2] = [Mode::Stepped, Mode::Fast];

impl Mode {
    /// Puts `sim` in this mode: the one place the oracle sets the switch.
    fn apply(self, sim: &mut CoSim) {
        sim.set_translation(self == Mode::Fast);
    }

    /// `sim`, put in this mode.
    fn on(self, mut sim: CoSim) -> CoSim {
        self.apply(&mut sim);
        sim
    }
}

/// One case: a name and how to build a fresh co-simulator.
struct Case {
    name: String,
    build: Box<dyn Fn() -> CoSim>,
}

impl Case {
    fn new(name: impl Into<String>, build: impl Fn() -> CoSim + 'static) -> Case {
        Case { name: name.into(), build: Box::new(build) }
    }

    /// A fresh co-simulator in `mode`.
    fn sim(&self, mode: Mode) -> CoSim {
        mode.on((self.build)())
    }
}

/// What a row saw, in order.
#[derive(Debug, PartialEq)]
enum Seen {
    Stop(CoSimStop),
    State(Box<CoSimState>, HwStats),
}

type Log = Vec<Seen>;

fn state(sim: &CoSim) -> Seen {
    Seen::State(Box::new(sim.save_state()), sim.hw_stats())
}

/// `state` through the `SSCK` bytes, as a checkpoint file carries it.
fn ssck(state: &CoSimState) -> CoSimState {
    snapshot::from_bytes(&snapshot::to_bytes(state)).expect("SSCK round trip")
}

/// Runs `row` in both modes and checks the fast mode's result against
/// the stepped reference's, which it returns.
fn every_mode<T: PartialEq>(what: &str, row: impl Fn(Mode) -> T) -> T {
    let want = row(Mode::Stepped);
    assert!(row(Mode::Fast) == want, "{what}: the fast mode differs from the stepped reference");
    want
}

/// Block dispatches and stall jumps `sim` has taken since it was built.
fn fast_work(sim: &CoSim) -> (u64, u64) {
    (sim.cpu().translation_stats().block_dispatches, sim.ff_engagements())
}

/// In the stepped mode, `sim` took no fast path since `fast_work` read
/// `since` (`(0, 0)`: since it was built).
fn assert_stepped(mode: Mode, sim: &CoSim, since: (u64, u64), what: &str) {
    if mode == Mode::Stepped {
        assert_eq!(fast_work(sim), since, "{what}: the stepped mode took a fast path");
    }
}

/// Row: one `run` to halt. The fast mode must have run blocks.
fn halt(case: &Case, mode: Mode) -> Log {
    let mut sim = case.sim(mode);
    let stop = sim.run(BUDGET);
    let stats = sim.cpu().translation_stats();
    assert!(mode == Mode::Stepped || stats.block_dispatches > 0, "{}: no block ran", case.name);
    assert_stepped(mode, &sim, (0, 0), &case.name);
    vec![Seen::Stop(stop), state(&sim)]
}

/// Row: `run(k)` calls until a stop other than the cycle limit; every
/// stop, and the state after call 1, 2, 4, 8, … and at the end.
fn chunks(case: &Case, mode: Mode, k: u64) -> Log {
    let mut sim = case.sim(mode);
    let mut log = Vec::new();
    for call in 1u64.. {
        let stop = sim.run(k);
        let last = !matches!(stop, CoSimStop::CycleLimit { .. }) || call * k >= BUDGET;
        log.push(Seen::Stop(stop));
        if last || call.is_power_of_two() {
            log.push(state(&sim));
        }
        if last {
            break;
        }
    }
    assert_stepped(mode, &sim, (0, 0), &format!("{}: run({k}) chunks", case.name));
    log
}

/// Row: pauses at a third and two thirds of the run, each a `run` whose
/// budget ends exactly there (`run(pause - now)`, as a supervisor stops
/// at a checkpoint boundary), then the run to the stop.
fn pauses(case: &Case, mode: Mode, end: u64) -> Log {
    let mut sim = case.sim(mode);
    let mut log = Vec::new();
    for pause in [end / 3, 2 * end / 3] {
        let now = sim.cpu().stats().cycles;
        log.push(Seen::Stop(sim.run(pause - now)));
        assert_eq!(sim.cpu().stats().cycles, pause, "{}: paused off the target", case.name);
        log.push(state(&sim));
    }
    log.push(Seen::Stop(sim.run(BUDGET)));
    log.push(state(&sim));
    assert_stepped(mode, &sim, (0, 0), &format!("{}: pauses", case.name));
    log
}

/// Row: a checkpoint taken at `pause` in mode `a`, carried through the
/// `SSCK` bytes and finished in every mode `b`, restored into a fresh
/// simulator and back into the one that took it after that one ran on
/// uninterrupted to its stop. Every finish must equal the uninterrupted
/// run, and a stepped finish must take no fast path. The `b`s run the
/// build default first, so a fast `a` hands its block cache straight to
/// a fast `b` (a restore whose code bytes differ must flush it).
fn checkpoint(case: &Case, a: Mode, pause: u64) -> Log {
    let mut sim = case.sim(a);
    let paused = Seen::Stop(sim.run(pause));
    let saved = ssck(&sim.save_state());
    let uninterrupted = [Seen::Stop(sim.run(BUDGET)), state(&sim)];
    assert_stepped(a, &sim, (0, 0), &format!("{}: checkpoint at {pause}", case.name));
    for b in MODES.into_iter().rev() {
        let mut fresh = case.sim(b);
        fresh.load_state(&saved);
        b.apply(&mut sim);
        sim.load_state(&saved);
        for (into, sim) in [("a fresh simulator", &mut fresh), ("itself", &mut sim)] {
            let what = format!("{}: checkpoint in {a:?} restored into {into}", case.name);
            let before = fast_work(sim);
            let finish = [Seen::Stop(sim.run(BUDGET)), state(sim)];
            assert!(finish == uninterrupted, "{what}: {b:?} differs from the uninterrupted run");
            assert_stepped(b, sim, before, &what);
        }
    }
    [paused].into_iter().chain(uninterrupted).collect()
}

/// Every graph's clock.
fn graph_cycles(sim: &CoSim) -> Vec<u64> {
    sim.peripherals().iter().map(|p| p.graph().cycles()).collect()
}

/// Row: breakpoints on the first 16 code words; each `run` stops at the
/// next one reached, and the last resumes to halt. The end must equal
/// the plain run's, the graphs' clocks included: a breakpoint report
/// spends no cycle on either side. Breakpoints keep blocks out, so this
/// row asks the fast mode for no block dispatch.
fn breakpoints(case: &Case, mode: Mode) -> Log {
    let mut plain = case.sim(mode);
    let want = (Seen::Stop(plain.run(BUDGET)), state(&plain), graph_cycles(&plain));
    let mut sim = case.sim(mode);
    let entry = sim.cpu().pc();
    for word in 0..16 {
        sim.cpu_mut().add_breakpoint(entry + 4 * word);
    }
    let mut log = Vec::new();
    let stop = loop {
        match sim.run(BUDGET) {
            CoSimStop::Breakpoint { pc } => log.push(Seen::Stop(CoSimStop::Breakpoint { pc })),
            stop => break stop,
        }
    };
    assert!(!log.is_empty(), "{}: no breakpoint was reached", case.name);
    let got = (Seen::Stop(stop), state(&sim), graph_cycles(&sim));
    assert!(got == want, "{}: breakpoints in {mode:?} differ from the plain run", case.name);
    assert_stepped(mode, &sim, (0, 0), &format!("{}: breakpoints", case.name));
    log.extend([got.0, got.1]);
    log
}

/// One deadlock row: a stuck flag on channel 0, the injection cycle,
/// the watchdog threshold, and whether the watchdog is armed before the
/// checkpoint or after it.
struct Stuck {
    kind: FaultKind,
    at: u64,
    threshold: u64,
    armed_before: bool,
}

/// The four deadlock rows of a run that ends at `end`: both stuck
/// flags, each with the watchdog armed before and after the checkpoint.
fn stuck_rows(end: u64) -> [Stuck; 4] {
    let (empty, full) = (FaultKind::StuckEmpty { channel: 0 }, FaultKind::StuckFull { channel: 0 });
    let row = |kind, at, threshold, armed_before| Stuck { kind, at, threshold, armed_before };
    [
        row(empty, end / 4, 700, true),
        row(empty, end / 2, 3_000, false),
        row(full, end / 4, 700, false),
        row(full, end / 2, 3_000, true),
    ]
}

/// Row: `s.kind` injected at `s.at`; a stalled stretch; a checkpoint,
/// restored into the same simulator (its watchdog, armed before, stays
/// armed) or into a fresh one (armed after); a run whose budget pauses
/// the stall; then the run to its stop. Where the driver blocks on channel
/// 0 (`blocks`: every application), that stop is a deadlock, and the
/// fast mode reaches it with at least one jump.
fn deadlock(case: &Case, mode: Mode, s: &Stuck, blocks: bool) -> Log {
    let what = format!("{}: {:?} at {} in {mode:?}", case.name, s.kind, s.at);
    let mut sim = case.sim(mode);
    let mut log = vec![Seen::Stop(sim.run(s.at))];
    if !matches!(log[0], Seen::Stop(CoSimStop::CycleLimit { .. })) {
        return log;
    }
    Injector::apply(&mut sim, s.kind);
    if s.armed_before {
        sim.set_watchdog(s.threshold);
    }
    log.push(Seen::Stop(sim.run(s.threshold / 2)));
    let saved = sim.save_state();
    if s.armed_before {
        log.push(Seen::Stop(sim.run(s.threshold / 4)));
        sim.load_state(&saved);
    } else {
        assert_stepped(mode, &sim, (0, 0), &what);
        sim = case.sim(mode);
        sim.load_state(&saved);
        sim.set_watchdog(s.threshold);
    }
    log.push(Seen::Stop(sim.run(s.threshold / 3)));
    let stop = sim.run(BUDGET);
    assert!(!blocks || matches!(stop, CoSimStop::Deadlock { .. }), "{what}: {stop}");
    assert!(!blocks || mode == Mode::Stepped || sim.ff_engagements() > 0, "{what}: no jump");
    assert_stepped(mode, &sim, (0, 0), &what);
    log.extend([Seen::Stop(stop), state(&sim)]);
    log
}

/// Every row but the deadlocks on `case`; returns its halt cycle.
fn check(case: &Case) -> u64 {
    let name = &case.name;
    let want = every_mode(&format!("{name}: at halt"), |m| halt(case, m));
    let Seen::State(end, _) = &want[1] else { unreachable!() };
    let end = end.cpu.stats.cycles;
    assert_eq!(want[0], Seen::Stop(CoSimStop::Halted), "{name} must halt");
    for k in [1, 7, 64, 1000] {
        every_mode(&format!("{name}: run({k}) chunks"), |m| chunks(case, m, k));
    }
    every_mode(&format!("{name}: pauses"), |m| pauses(case, m, end));
    every_mode(&format!("{name}: breakpoints"), |m| breakpoints(case, m));
    for pause in [end / 3, 2 * end / 3] {
        every_mode(&format!("{name}: checkpoint at {pause}"), |a| checkpoint(case, a, pause));
    }
    end
}

/// Every deadlock row on `case`, whose fault-free run ends at `end`.
fn check_deadlocks(case: &Case, end: u64, blocks: bool) {
    for s in stuck_rows(end) {
        let what = format!("{}: {:?} at {}", case.name, s.kind, s.at);
        every_mode(&what, |m| deadlock(case, m, &s, blocks));
    }
}

fn cordic_batch() -> CordicBatch {
    CordicBatch::new(&[
        (to_fix(1.0), to_fix(0.5)),
        (to_fix(1.5), to_fix(1.2)),
        (to_fix(2.0), to_fix(-1.0)),
        (to_fix(1.25), to_fix(0.8)),
    ])
}

fn cordic_image(p: usize) -> Image {
    assemble(&hw_program(&cordic_batch(), 8, p)).expect("cordic assembles")
}

fn cordic(p: usize) -> CoSim {
    CoSim::with_peripheral(&cordic_image(p), cordic_peripheral(p))
}

fn matmul_image() -> Image {
    let (a, b) = (Matrix::test_pattern(4, 7), Matrix::test_pattern(4, 8));
    assemble(&mm_sw::hw_program(&a, &b, 2)).expect("matmul assembles")
}

/// Every application peripheral, each on its driver program.
fn app_cases() -> Vec<Case> {
    let mut cases: Vec<Case> =
        (1..=4).map(|p| Case::new(format!("cordic p={p}"), move || cordic(p))).collect();
    type Build = fn() -> CoSim;
    let apps: [(&str, Build); 7] = [
        ("cordic dual", || {
            let img = assemble(&hw_program_dual(&cordic_batch(), 8, 2)).expect("assembles");
            CoSim::with_peripheral(&img, cordic_peripheral_dual(2))
        }),
        ("cordic tmr", || CoSim::with_peripheral(&cordic_image(2), cordic_peripheral_tmr(2))),
        ("matmul", || CoSim::with_peripheral(&matmul_image(), matmul_peripheral(2))),
        ("matmul tmr", || CoSim::with_peripheral(&matmul_image(), matmul_peripheral_tmr(2))),
        ("fir", || fir_cosim(&[3, -1, 4, 1, -5], &test_signal(24, 9), true).0),
        ("beamformer", || beamformer_cosim(&test_autocorrelation(4), 2, &test_signal(24, 11)).0),
        ("lpc", || lpc_cosim(&test_autocorrelation(6), LpcDivision::CordicFsl(2)).0),
    ];
    cases.extend(apps.map(|(name, build)| Case::new(name, build)));
    cases
}

/// Random straight-line programs of non-blocking FSL traffic and ALU
/// and memory work, against a CORDIC pipeline on channel 0 and a
/// matmul array on channel 1 that digest whatever words arrive.
fn random_cases(n: u64) -> Vec<Case> {
    (0..n)
        .map(|seed| {
            let image = random_program(&mut Rng::new(seed), 120);
            Case::new(format!("random seed={seed}"), move || {
                let mut sim =
                    CoSim::with_config(&image, CpuConfig::full(), Some(cordic_peripheral(2)));
                sim.add_peripheral(matmul_peripheral_chan(2, 1));
                sim
            })
        })
        .collect()
}

/// A loop that patches its own body at a seeded iteration with a
/// seeded instruction, and keeps running on the patched body.
fn self_modifying(seed: u64) -> Case {
    let mut rng = Rng::new(seed);
    let total = rng.below(40) + 10;
    // `r3` counts down from `total`; the store fires on the iteration
    // where `r3 == rem`, after `total - rem` body executions.
    let rem = rng.below(total - 1) + 1;
    let imm = (rng.below(500) + 1) as i16;
    // The replacement for `body: addik r5, r5, 1`.
    let patch =
        encode(&Inst::AddI { rd: Reg::new(5), ra: Reg::new(5), imm, flags: ArithFlags::KEEP });
    let img = assemble(&format!(
        "start:
            addik r3, r0, {total}
            li    r7, {patch:#010x}
            li    r8, body
        loop:
        body:
            addik r5, r5, 1
            addik r6, r6, 1
            xori  r4, r3, {rem}
            bneid r4, skip
            addik r9, r9, 1
            sw    r7, r8, r0
        skip:
            addik r3, r3, -1
            bneid r3, loop
            addik r10, r10, 1
            halt
        "
    ))
    .expect("assembles");
    Case::new(format!("self-modifying seed={seed} total={total} rem={rem}"), move || {
        CoSim::software_only(&img)
    })
}

#[test]
fn every_constructor_turns_both_fast_paths_on() {
    let img = cordic_image(2);
    for sim in [
        CoSim::software_only(&img),
        CoSim::with_peripheral(&img, cordic_peripheral(2)),
        CoSim::with_config(&img, CpuConfig::full(), None),
        CoSim::with_config(&img, CpuConfig::full(), Some(cordic_peripheral(2))),
    ] {
        assert!(sim.translation(), "the fast paths are on as built");
    }
}

#[test]
fn every_application_matches_the_stepped_reference() {
    for case in app_cases() {
        check(&case);
    }
}

#[test]
fn every_application_deadlocks_like_the_stepped_reference() {
    for case in app_cases() {
        let mut sim = case.sim(Mode::Fast);
        sim.run(BUDGET);
        check_deadlocks(&case, sim.cpu().stats().cycles, true);
    }
}

#[test]
fn random_fsl_programs_match_the_stepped_reference() {
    for case in random_cases(24) {
        let end = check(&case);
        check_deadlocks(&case, end, false);
    }
}

#[test]
fn software_only_programs_match_the_stepped_reference() {
    check(&Case::new("fir software", || {
        fir_cosim(&[3, -1, 4, 1, -5], &test_signal(24, 9), false).0
    }));
    for seed in 0..8 {
        let case = self_modifying(seed);
        check(&case);
        let mut sim = case.sim(Mode::Fast);
        sim.run(BUDGET);
        let stats = sim.cpu().translation_stats();
        assert!(stats.invalidations > 0, "{}: the store into code must invalidate", case.name);
    }
}

/// A loopback on channel 0: every word comes back after
/// [`LOOPBACK_CYCLES`], its control bit with it.
fn loopback() -> Peripheral {
    let mut g = Graph::new();
    for (wire, fmt) in [("data", FixFmt::INT32), ("valid", FixFmt::BOOL), ("ctrl", FixFmt::BOOL)] {
        let input = g.gateway_in(format!("fsl0_{wire}"), fmt);
        let line = g.add(format!("{wire}_line"), Delay::new(fmt, LOOPBACK_CYCLES));
        g.wire(input, line, 0).unwrap();
        g.gateway_out(format!("fsl0_out_{wire}"), line, 0);
    }
    g.compile().unwrap();
    let out = FslFromHw { control: Some("fsl0_out_ctrl".into()), ..FslFromHw::standard(0) };
    Peripheral::new(g, vec![FslToHw::standard(0)], vec![out])
}

/// The loopback's latency: longer than the driver's first burst of
/// puts, so the first `get` after it stalls.
const LOOPBACK_CYCLES: usize = 24;

/// A driver of every FSL variant against [`loopback`], with the
/// transfers in the middle of blocks and at their start. Blocking `get`s
/// stall (the first of each burst: in mid-block, which ends the block,
/// and then as the first step of the next one) and complete, in mid-block
/// and as a block's first step; `put`/`cput` complete (a blocking put into a FIFO that
/// the peripheral drains only stalls on the stuck `full` flag of the
/// deadlock rows); `nput` misses on channel 5, which nothing drains and
/// the prologue fills; `nget` misses on channel 3, which nothing fills,
/// and on the drained channel 0; `get` reads a control word and `cget` a
/// data word (control-bit mismatches both ways), besides the matching
/// reads.
const FSL_DRIVER: &str = "
        addik r21, r0, 16
    fill:
        put   r21, rfsl5
        addik r21, r21, -1
        bnei  r21, fill
        addik r20, r0, 6
    loop:
        addik r3, r20, 100
        put   r3, rfsl0
        cput  r20, rfsl0
        addik r4, r3, 7
        xori  r5, r4, 3
        addik r5, r5, 1
        put   r4, rfsl0
        addik r6, r5, 2
        xor   r6, r6, r3
        cput  r4, rfsl0
        nput  r3, rfsl5
        addc  r10, r10, r0
        nget  r5, rfsl3
        addc  r11, r11, r0
        get   r6, rfsl0
        get   r7, rfsl0
        add   r12, r12, r6
        cget  r8, rfsl0
        add   r12, r12, r7
        cget  r9, rfsl0
        add   r12, r12, r8
        add   r12, r12, r9
        put   r12, rfsl0
        cput  r3, rfsl0
        addik r13, r0, 8
    wait:
        addik r13, r13, -1
        bnei  r13, wait
        get   r14, rfsl0
        cget  r15, rfsl0
        nget  r16, rfsl0
        addc  r17, r17, r0
        ncget r18, rfsl0
        addc  r17, r17, r0
        swi   r14, r0, results
        swi   r15, r0, results + 4
        addik r20, r20, -1
        bnei  r20, loop
        halt
        .align 4
    results:
        .word 0, 0
    ";

/// Every FSL variant inside translated blocks, with FSL ECC off and on,
/// matches the stepped reference in every row, deadlocks included. The
/// fast mode must run transfers inside blocks: every retired FSL
/// instruction moved a word or missed, so translated instructions
/// beyond the retired non-FSL ones were transfers.
#[test]
fn fsl_transfers_inside_blocks_match_the_stepped_reference() {
    let image = assemble(FSL_DRIVER).expect("assembles");
    for ecc in [false, true] {
        let image = image.clone();
        let case = Case::new(format!("fsl driver, ecc {ecc}"), move || {
            let mut sim = CoSim::with_peripheral(&image, loopback());
            sim.set_fsl_ecc(ecc);
            sim
        });
        let end = check(&case);
        check_deadlocks(&case, end, true);
        let name = &case.name;
        let mut sim = case.sim(Mode::Fast);
        assert_eq!(sim.run(BUDGET), CoSimStop::Halted);
        let stats = sim.cpu_stats();
        assert!(stats.fsl_read_stalls >= 6 * 6, "{name}: {stats:?}");
        assert!(stats.fsl_control_mismatches >= 12, "{name}: {stats:?}");
        assert!(stats.fsl_nonblocking_misses >= 18, "{name}: {stats:?}");
        let transfers =
            stats.fsl_words_sent + stats.fsl_words_received + stats.fsl_nonblocking_misses;
        let xlated = sim.cpu().translation_stats().translated_instructions;
        let xlated_transfers = (xlated + transfers).saturating_sub(stats.instructions);
        assert!(
            xlated_transfers * 2 > transfers,
            "{name}: {xlated_transfers} of {transfers} translated"
        );
    }
}

/// With a metrics collector and an event recorder attached, both modes
/// step (no fast path may run under observation), so a faulted CORDIC
/// run records the same events and windowed series in both.
#[test]
fn a_traced_run_records_the_same_in_every_mode() {
    every_mode("traced cordic p=2", |mode| {
        let mut sim = mode.on(cordic(2));
        let collector = Rc::new(RefCell::new(MetricsCollector::new(256)));
        let recorder = Rc::new(RefCell::new(Recorder::new(1 << 16)));
        let fanout = Fanout::new().with(shared(collector.clone())).with(shared(recorder.clone()));
        sim.attach_trace(shared(Rc::new(RefCell::new(fanout))));
        sim.run(400);
        Injector::apply(&mut sim, FaultKind::StuckEmpty { channel: 0 });
        sim.set_watchdog(3_000);
        let stop = sim.run(BUDGET);
        assert!(matches!(stop, CoSimStop::Deadlock { .. }), "stuck flag must deadlock: {stop}");
        assert_eq!(sim.cpu().translation_stats().block_dispatches, 0, "{mode:?} ran a block");
        assert_eq!(sim.ff_engagements(), 0, "{mode:?} jumped");
        let mut collector = collector.borrow_mut();
        collector.finish(sim.cpu().stats().cycles);
        let events = recorder.borrow().events();
        (stop, sim.cpu_stats(), events, collector.series())
    });
}

/// The default build must not leave the stepped path for nothing: on
/// CORDIC and on software-only FIR most instructions run translated.
#[test]
fn the_default_build_runs_translated_blocks() {
    let fir = fir_cosim(&[3, -1, 4, 1, -5], &test_signal(48, 9), false).0;
    for (name, mut sim) in [("cordic p=4", cordic(4)), ("fir software", fir)] {
        assert_eq!(sim.run(BUDGET), CoSimStop::Halted);
        let xlated = sim.cpu().translation_stats().translated_instructions;
        let retired = sim.cpu_stats().instructions;
        assert!(xlated * 2 > retired, "{name}: translated {xlated} of {retired} instructions");
    }
}

/// Asserts that everything `sim` retired on its run to halt ran
/// translated except the `halt` itself (which no block holds), at 4 or
/// more instructions per block dispatch.
fn assert_only_halt_interpreted(name: &str, mut sim: CoSim) {
    assert_eq!(sim.run(BUDGET), CoSimStop::Halted);
    let stats = sim.cpu().translation_stats();
    let (xlated, retired) = (stats.translated_instructions, sim.cpu_stats().instructions);
    assert_eq!(xlated + 1, retired, "{name}: translated {xlated} of {retired} instructions");
    let dispatches = stats.block_dispatches;
    assert!(xlated >= 4 * dispatches, "{name}: {xlated} instructions in {dispatches} dispatches");
}

/// The CORDIC programs of the `cordic_hw` benchmark's shape (P = 4,
/// eight samples, 24 iterations, two repetitions) and of the
/// `cordic_sw` one (the compiled-style software divider) run wholly
/// translated: the driver's transfers run inside blocks, its `li` pairs
/// are fused into them, and blocks chain across branches, so only the
/// final `halt` runs interpreted.
#[test]
fn cordic_transfers_run_inside_translated_blocks() {
    let pairs: Vec<(i32, i32)> =
        (0..8).map(|i| (to_fix(1.0 + 0.25 * i as f64), to_fix(0.6 - 0.15 * i as f64))).collect();
    let batch = CordicBatch::new(&pairs);
    let hw = hw_program_repeated(&batch, 24, 4, 2);
    let sim = CoSim::with_peripheral(&assemble(&hw).expect("assembles"), cordic_peripheral(4));
    assert_only_halt_interpreted("cordic_hw", sim);
    let sw = sw_program_repeated(&batch, 24, SwStyle::Compiled, 2);
    let sim = CoSim::software_only(&assemble(&sw).expect("assembles"));
    assert_only_halt_interpreted("cordic_sw", sim);
}

/// A CORDIC pipeline (P = 2) built with a scope probe on each PE's Y
/// output: a probed graph must be stepped every cycle, so its samples
/// cannot differ between the modes.
fn probed_cordic() -> Peripheral {
    let mut g = Graph::new();
    let data = g.gateway_in("fsl0_data", FixFmt::INT32);
    let valid = g.gateway_in("fsl0_valid", FixFmt::BOOL);
    let ctrl = g.gateway_in("fsl0_ctrl", FixFmt::BOOL);
    let deser = g.add("deser", Deserializer::new());
    g.wire(data, deser, 0).unwrap();
    g.wire(valid, deser, 1).unwrap();
    g.wire(ctrl, deser, 2).unwrap();
    let mut prev = deser;
    for i in 0..2 {
        let pe = g.add(format!("pe{i}"), CordicPe::new());
        for port in 0..6 {
            g.connect(prev, port, pe, port).unwrap();
        }
        g.add_probe(format!("pe{i}_y"), pe, 1);
        prev = pe;
    }
    let ser = g.add("ser", Serializer::new());
    g.connect(prev, 1, ser, 0).unwrap();
    g.connect(prev, 2, ser, 1).unwrap();
    g.connect(prev, 3, ser, 2).unwrap();
    g.gateway_out("fsl0_out_data", ser, 0);
    g.gateway_out("fsl0_out_valid", ser, 1);
    g.compile().unwrap();
    Peripheral::new(g, vec![FslToHw::standard(0)], vec![FslFromHw::standard(0)])
}

#[test]
fn probed_peripherals_keep_every_sample() {
    let (log, samples) = every_mode("probed cordic", |mode| {
        let mut sim = mode.on(CoSim::with_peripheral(&cordic_image(2), probed_cordic()));
        let log = vec![Seen::Stop(sim.run(BUDGET)), state(&sim)];
        assert_stepped(mode, &sim, (0, 0), "probed cordic");
        let graph = sim.peripherals()[0].graph();
        let samples: Vec<Vec<u64>> = ["pe0_y", "pe1_y"]
            .map(|p| graph.probe_samples(p).unwrap().iter().map(|v| v.to_bits()).collect())
            .into();
        (log, samples)
    });
    let Seen::State(end, _) = &log[1] else { unreachable!() };
    assert_eq!(log[0], Seen::Stop(CoSimStop::Halted));
    assert_eq!(samples[0].len() as u64, end.cpu.stats.cycles, "one sample per cycle");
}

/// A debugger `step` into a `get` that nothing completes stops on the
/// frozen stall with a probed peripheral attached too: probes keep the
/// stall jump away, not the stop, and sample every cycle stepped on the
/// way.
#[test]
fn a_probed_peripheral_does_not_keep_step_from_a_frozen_stall() {
    let img = assemble("get r3, rfsl1\nhalt\n").expect("assembles");
    let mut sim = CoSim::with_peripheral(&img, probed_cordic());
    let reply = DebugSession::new(&mut sim).handle(Command::Step);
    let Reply::Stopped(CoSimStop::CycleLimit { blocked: Some(block) }) = reply else {
        panic!("a step into a frozen stall must stop blocked, got {reply:?}");
    };
    assert_eq!((block.pc, block.channel, block.dir), (0, 1, FifoDir::FromHw));
    let samples = sim.peripherals()[0].graph().probe_samples("pe0_y").unwrap().len() as u64;
    assert_eq!(samples, sim.cpu_stats().cycles, "one sample per stepped cycle");
}

/// Regression (stale stall context): a zero-cycle run executes nothing,
/// so it must not report the processor blocked on a transfer it never
/// attempted in that run.
#[test]
fn zero_cycle_run_reports_no_blockage() {
    let img = assemble("get r3, rfsl4\nhalt\n").expect("assembles");
    let mut sim = CoSim::software_only(&img);
    // Block the processor for real first: the stall context is live...
    assert_eq!(sim.run(100), CoSimStop::CycleLimit { blocked: sim.cpu().fsl_block() });
    assert!(sim.cpu().fsl_block().is_some(), "get from an empty FSL must stall");
    // ...but a zero-cycle run stalled on nothing.
    assert_eq!(sim.run(0), CoSimStop::CycleLimit { blocked: None });
}

/// A fully stuck system under a 200-million-cycle budget is only
/// affordable if the stalled stretch is jumped, not stepped (stepping
/// it takes minutes; the jump is microseconds). The generous wall-clock
/// bound makes this a regression tripwire, not a benchmark. Two inputs:
/// CORDIC with channel 0's empty flag stuck, and the software-only `get`
/// of `zero_cycle_run_reports_no_blockage`, whose stall nothing can
/// clear. With no peripheral to wait for, the latter is jumped straight
/// after its first stalled cycle, so its one jump covers the budget
/// minus the stepped cycles up to and including that one. Under a
/// budget stepping can afford, both end in the stepped reference's
/// state.
#[test]
fn fast_forward_engages_on_stuck_systems() {
    let software = assemble("get r3, rfsl4\nhalt\n").expect("assembles");
    let stuck_cordic = || {
        let mut sim = cordic(2);
        Injector::apply(&mut sim, FaultKind::StuckEmpty { channel: 0 });
        sim
    };
    let inputs = [
        Case::new("stuck cordic p=2", stuck_cordic),
        Case::new("software-only get", move || CoSim::software_only(&software)),
    ];
    for case in &inputs {
        let name = &case.name;
        // The stepped reference, one cycle at a time up to its first
        // stalled cycle, then to a budget stepping can afford.
        let mut stepped = case.sim(Mode::Stepped);
        while stepped.cpu().fsl_block().is_none() {
            stepped.run(1);
        }
        let first_stall = stepped.cpu().stats().cycles;
        let affordable = 100_000;
        let want = [Seen::Stop(stepped.run(affordable - first_stall)), state(&stepped)];
        assert_stepped(Mode::Stepped, &stepped, (0, 0), name);
        let software_only = stepped.peripherals().is_empty();
        for budget in [affordable, 200_000_000] {
            let mut sim = case.sim(Mode::Fast);
            let start = std::time::Instant::now();
            let stop = sim.run(budget);
            let elapsed = start.elapsed();
            assert_eq!(stop, CoSimStop::CycleLimit { blocked: sim.cpu().fsl_block() }, "{name}");
            assert!(sim.cpu().fsl_block().is_some(), "{name}: system must be stuck on the FSL");
            assert_eq!(sim.cpu().stats().cycles, budget, "{name}: the whole budget must elapse");
            assert_eq!(sim.ff_engagements(), 1, "{name}: one stall, one jump");
            let skipped = sim.ff_skipped_cycles();
            assert!(skipped >= budget - 1_000, "{name}: jumped {skipped} cycles");
            if software_only {
                assert_eq!(skipped, budget - first_stall, "{name}: jumped late");
            }
            if budget == affordable {
                let got = [Seen::Stop(stop), state(&sim)];
                assert!(got == want, "{name}: differs from the stepped reference");
            }
            assert!(elapsed.as_secs() < 5, "{name}: {budget} stalled cycles took {elapsed:?}");
        }
    }
}

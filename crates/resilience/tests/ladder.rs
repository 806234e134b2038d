//! The oracle of the campaign driver. Campaign trials start from the
//! last golden checkpoint at or before their injection cycle; this suite
//! checks every execution shape of the driver against a reference trial
//! loop, written here from the public API only, that restores the
//! *initial* state and re-simulates the whole fault-free prefix for
//! every trial. Recovery trials are checked the same way against a plain
//! loop of `Supervisor::capture_golden` plus one `Supervisor::run_trial`
//! per injection. The shapes are a borrowed simulator, 1 and 3 workers,
//! a journal at 2 workers, and a resume from a journal cut mid-record,
//! each with telemetry off and on. The reports must be equal trial for
//! trial.

use softsim_apps::cordic::hardware::cordic_peripheral;
use softsim_apps::cordic::reference::to_fix;
use softsim_apps::cordic::software::{hw_program, CordicBatch};
use softsim_apps::matmul::hardware::matmul_peripheral;
use softsim_apps::matmul::reference::Matrix;
use softsim_apps::matmul::software as mm_sw;
use softsim_blocks::library::{AddSub, AddSubOp, Constant, Delay, Register};
use softsim_blocks::{FixFmt, Graph};
use softsim_cosim::{CoSim, CoSimStop, FslFromHw, FslToHw, Peripheral};
use softsim_isa::asm::assemble;
use softsim_isa::Image;
use softsim_iss::CpuStats;
use softsim_metrics::telemetry::{Telemetry, TelemetryConfig};
use softsim_resilience::{
    resume_from_journal, run, run_campaign, CampaignConfig, CampaignReport, Exec, FaultKind,
    Injection, Injector, JournalSpec, Outcome, RecoveryOutcome, RecoveryPolicy, RecoveryReport,
    RecoveryTrial, Sims, Supervisor, Trial, TrialKind,
};
use softsim_testkit::Rng;
use softsim_trace::FifoDir;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// The panic message of [`FaultKind::HarnessPanic`].
const HARNESS_PANIC: &str = "deliberate harness panic (FaultKind::HarnessPanic)";

/// A design under test: how to build a fresh simulator and what to
/// observe once it halts.
struct Design {
    name: &'static str,
    image: Image,
    build: fn(&Image) -> CoSim,
    /// Cycles every fresh simulator runs before the campaign starts, so
    /// the initial state is not at cycle 0.
    warmup: u64,
    /// `(base address, words)` of the observable result window.
    window: (u32, usize),
}

impl Design {
    fn sim(&self, translation: bool) -> CoSim {
        let mut sim = (self.build)(&self.image);
        sim.set_translation(translation);
        if self.warmup > 0 {
            let stop = sim.run(self.warmup);
            assert!(matches!(stop, CoSimStop::CycleLimit { .. }), "{}: {stop}", self.name);
        }
        sim
    }

    fn observe(&self, sim: &CoSim) -> Vec<u32> {
        let (base, n) = self.window;
        (0..n).map(|i| sim.cpu().mem().read_u32(base + 4 * i as u32).unwrap()).collect()
    }
}

/// The CORDIC divider the campaign service serves (8 iterations, P = 2).
fn cordic() -> Design {
    let pairs: Vec<(i32, i32)> = [(1.0, 0.5), (1.5, 1.2), (2.0, -1.0), (3.0, 2.5)]
        .map(|(a, b)| (to_fix(a), to_fix(b)))
        .into();
    let batch = CordicBatch::new(&pairs);
    let image = assemble(&hw_program(&batch, 8, 2)).unwrap();
    let window = (image.symbol("z_data").unwrap(), pairs.len());
    Design {
        name: "cordic",
        image,
        build: |img| CoSim::with_peripheral(img, cordic_peripheral(2)),
        warmup: 0,
        window,
    }
}

/// The blocked matrix multiply (N = 4, block 2), started mid-run.
fn matmul() -> Design {
    let (a, b) = (Matrix::test_pattern(4, 7), Matrix::test_pattern(4, 8));
    let image = assemble(&mm_sw::hw_program(&a, &b, 2)).unwrap();
    let window = (image.symbol("c_data").unwrap(), 16);
    Design {
        name: "matmul",
        image,
        build: |img| CoSim::with_peripheral(img, matmul_peripheral(2)),
        warmup: 37,
        window,
    }
}

/// A peripheral that adds 100 to every word on FSL0, one cycle later.
fn adder_peripheral() -> Peripheral {
    let mut g = Graph::new();
    let data = g.gateway_in("fsl0_data", FixFmt::INT32);
    let valid = g.gateway_in("fsl0_valid", FixFmt::BOOL);
    let hundred = g.add("hundred", Constant::int(100, FixFmt::INT32));
    let add = g.add("add", AddSub::new(AddSubOp::Add, FixFmt::INT32));
    let rdata = g.add("rdata", Register::zeroed(FixFmt::INT32));
    let rvalid = g.add("rvalid", Delay::new(FixFmt::BOOL, 1));
    g.connect(data, 0, add, 0).unwrap();
    g.connect(hundred, 0, add, 1).unwrap();
    g.connect(add, 0, rdata, 0).unwrap();
    g.connect(valid, 0, rdata, 1).unwrap();
    g.connect(valid, 0, rvalid, 0).unwrap();
    g.gateway_out("fsl0_out_data", rdata, 0);
    g.gateway_out("fsl0_out_valid", rvalid, 0);
    g.compile().unwrap();
    Peripheral::new(g, vec![FslToHw::standard(0).without_control()], vec![FslFromHw::standard(0)])
}

/// Blocking FSL round trips: stuck flags and lost words deadlock it,
/// so the watchdog and stall fast-forwarding both have work.
fn fsl_deadlock() -> Design {
    let image = assemble(
        "addik r3, r0, 0\n\
         addik r5, r0, 6\n\
         send: put r3, rfsl0\n\
         addik r3, r3, 1\n\
         addik r5, r5, -1\n\
         bnei r5, send\n\
         addik r5, r0, 6\n\
         addik r6, r0, 0\n\
         recv: get r4, rfsl0\n\
         addk r6, r6, r4\n\
         addik r5, r5, -1\n\
         bnei r5, recv\n\
         swi r6, r0, 0x800\n\
         halt\n",
    )
    .unwrap();
    Design {
        name: "fsl-deadlock",
        image,
        build: |img| CoSim::with_peripheral(img, adder_peripheral()),
        warmup: 0,
        window: (0x800, 1),
    }
}

/// Short watchdog and padded budget, so hung trials end quickly.
fn config(fast_forward: bool) -> CampaignConfig {
    CampaignConfig {
        watchdog_threshold: 1_500,
        budget_floor: 4_000,
        fast_forward,
        ..CampaignConfig::default()
    }
}

/// Cycles `design` runs from its initial state to halt.
fn golden_end(design: &Design) -> u64 {
    let mut sim = design.sim(false);
    assert_eq!(sim.run(1_000_000), CoSimStop::Halted, "{} must halt", design.name);
    sim.cpu().stats().cycles
}

/// One fault of every kind in turn, with random sites and random cycles
/// over `[0, end + end / 4)`, plus the edge cases: cycle 0, the golden
/// halt, past it, duplicate cycles, and one harness panic.
fn hostile_plan(seed: u64, n: usize, end: u64) -> Vec<Injection> {
    let mut rng = Rng::new(seed);
    let mut plan = Vec::new();
    for i in 0..n {
        let dir = if rng.flip() { FifoDir::ToHw } else { FifoDir::FromHw };
        let channel = rng.below(2) as u8;
        let kind = match i % 8 {
            0 => {
                FaultKind::RegBitFlip { reg: rng.range_u32(1, 32) as u8, bit: rng.below(32) as u8 }
            }
            1 => {
                FaultKind::MemBitFlip { addr: rng.below(1024) as u32 * 4, bit: rng.below(32) as u8 }
            }
            2 => FaultKind::FifoBitFlip {
                dir,
                channel,
                index: rng.below(4) as u8,
                bit: rng.below(33) as u8,
            },
            3 => FaultKind::FifoDrop { dir, channel },
            4 => FaultKind::FifoDuplicate { dir, channel },
            5 => FaultKind::StuckFull { channel },
            6 => FaultKind::StuckEmpty { channel },
            _ => FaultKind::BlockStateFlip {
                peripheral: 0,
                word: rng.below(256) as u32,
                bit: rng.below(64) as u8,
            },
        };
        plan.push(Injection { cycle: rng.below(end + end / 4), kind });
    }
    let reg = FaultKind::RegBitFlip { reg: 3, bit: 1 };
    plan.push(Injection { cycle: 0, kind: reg });
    plan.push(Injection { cycle: end, kind: reg });
    plan.push(Injection { cycle: end + 1_000, kind: FaultKind::StuckEmpty { channel: 0 } });
    for k in 0..3 {
        let dup = plan[k * 2];
        plan.push(Injection { cycle: dup.cycle, kind: FaultKind::MemBitFlip { addr: 0, bit: 3 } });
    }
    plan.insert(n / 2, Injection { cycle: end / 2, kind: FaultKind::HarnessPanic });
    plan
}

/// A plan of few distinct cycles, each hit several times: every cycle
/// is a ladder rung, so every trial starts exactly on one.
fn rung_plan(seed: u64, end: u64) -> Vec<Injection> {
    let mut rng = Rng::new(seed);
    let cycles: Vec<u64> = (0..5).map(|_| 1 + rng.below(end)).collect();
    let mut plan = Vec::new();
    for &cycle in &cycles {
        plan.push(Injection { cycle, kind: FaultKind::RegBitFlip { reg: 5, bit: 0 } });
        plan.push(Injection { cycle, kind: FaultKind::StuckEmpty { channel: 0 } });
        plan.push(Injection { cycle, kind: FaultKind::MemBitFlip { addr: 0x800, bit: 2 } });
    }
    plan
}

/// The reference campaign: restore the initial state before every
/// trial, run the prefix, apply, arm the watchdog, run to the padded
/// budget, classify.
fn reference(
    design: &Design,
    translation: bool,
    plan: &[Injection],
    config: CampaignConfig,
) -> CampaignReport {
    let mut sim = design.sim(translation);
    sim.set_fast_forward(config.fast_forward);
    let initial = sim.save_state();
    let stop = sim.run(config.budget_floor * config.budget_factor);
    assert_eq!(stop, CoSimStop::Halted);
    let golden_cycles = sim.cpu().stats().cycles;
    let golden_observed = design.observe(&sim);
    let budget = golden_cycles * config.budget_factor + config.budget_floor;
    let mut trials = Vec::new();
    for &injection in plan {
        sim.load_state(&initial);
        sim.clear_watchdog();
        let pre = injection.cycle.saturating_sub(sim.cpu().stats().cycles);
        let (applied, stop) = match sim.run(pre) {
            CoSimStop::CycleLimit { .. } => {
                let applied =
                    catch_unwind(AssertUnwindSafe(|| Injector::apply(&mut sim, injection.kind)));
                let Ok(applied) = applied else {
                    // The driver retries a panicking trial once.
                    let retries = 1;
                    trials.push(Trial {
                        injection,
                        applied: false,
                        stop: CoSimStop::CycleLimit { blocked: None },
                        outcome: Outcome::HarnessError { panic_msg: HARNESS_PANIC.into() },
                        retries,
                        cpu_stats: CpuStats::default(),
                        hw_stats: Default::default(),
                    });
                    continue;
                };
                sim.set_watchdog(config.watchdog_threshold);
                (applied, sim.run(budget.saturating_sub(sim.cpu().stats().cycles)))
            }
            stop => (false, stop),
        };
        let outcome = match &stop {
            CoSimStop::Halted if design.observe(&sim) == golden_observed => Outcome::Masked,
            CoSimStop::Halted => Outcome::Sdc,
            CoSimStop::Deadlock { .. } | CoSimStop::CycleLimit { .. } => Outcome::Deadlock,
            CoSimStop::Fault(_) => Outcome::Fault,
        };
        trials.push(Trial {
            injection,
            applied,
            stop,
            outcome,
            retries: 0,
            cpu_stats: sim.cpu().stats(),
            hw_stats: sim.hw_stats(),
        });
    }
    CampaignReport { golden_cycles, golden_observed, trials }
}

/// Short checkpoint cadence, watchdog and padded budget for the small
/// designs here, so recovery trials roll back and hung ones end quickly.
fn policy() -> RecoveryPolicy {
    RecoveryPolicy {
        checkpoint_every: 256,
        watchdog_threshold: 1_500,
        budget_floor: 4_000,
        ..RecoveryPolicy::default()
    }
}

/// The reference recovery campaign: one golden capture, then one
/// supervised trial per injection, each restoring the initial state.
fn recovery_reference(
    design: &Design,
    translation: bool,
    plan: &[Injection],
    policy: RecoveryPolicy,
) -> RecoveryReport {
    let supervisor = Supervisor::new(policy);
    let mut sim = design.sim(translation);
    let golden = supervisor.capture_golden(&mut sim, |s| design.observe(s));
    let mut trials = Vec::new();
    for &injection in plan {
        let trial = catch_unwind(AssertUnwindSafe(|| {
            supervisor.run_trial(&mut sim, &golden, injection, |s| design.observe(s))
        }));
        trials.push(trial.unwrap_or_else(|_| RecoveryTrial {
            injection,
            applied: false,
            outcome: RecoveryOutcome::HarnessError { panic_msg: HARNESS_PANIC.into() },
            stop: CoSimStop::CycleLimit { blocked: None },
            detector: None,
            work_cycles: 0,
        }));
    }
    RecoveryReport { golden_cycles: golden.cycles, golden_observed: golden.observed, trials }
}

fn journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("softsim_ladder_{tag}_{}.ssjl", std::process::id()))
}

/// `workers` workers, journaled to `path` when given.
fn exec(workers: usize, path: Option<&Path>, resume: bool) -> Exec<'_> {
    let journal = path.map(|path| JournalSpec { path, resume, fault: None });
    Exec { workers, telemetry: None, journal }
}

/// One run of `kind` under `exec`, with a fresh telemetry hub when
/// `telemetry` is set. The hub must then count one trial span per trial
/// the run executed, `executed` of them.
fn run_shape<K: TrialKind>(
    sims: Sims<'_>,
    plan: &[Injection],
    observe: &(dyn Fn(&CoSim) -> Vec<u32> + Sync),
    kind: &K,
    exec: Exec<'_>,
    telemetry: bool,
    executed: usize,
) -> K::Report {
    let t = Telemetry::new(TelemetryConfig::default());
    let exec = Exec { telemetry: telemetry.then_some(&t), ..exec };
    let (report, status) = run(sims, plan, observe, kind, exec).expect("journal I/O");
    assert_eq!(status.durable, exec.journal.is_some(), "journal kept");
    if telemetry {
        assert_eq!(t.trial_count(), executed as u64, "one trial span per executed trial");
    }
    report
}

/// Every execution shape's report of `kind` equals `want`. `tag` keeps
/// the journal files of concurrent checks apart.
fn check_shapes<K: TrialKind>(
    design: &Design,
    translation: bool,
    plan: &[Injection],
    kind: &K,
    want: &K::Report,
    tag: &str,
) where
    K::Report: PartialEq + Debug,
{
    let observe = |sim: &CoSim| design.observe(sim);
    let make_sim = || design.sim(translation);
    let n = plan.len();
    for telemetry in [false, true] {
        let ctx = format!("{} {tag} translation={translation} telemetry={telemetry}", design.name);
        let mut sim = make_sim();
        let before = sim.save_state();
        let borrowed = Sims::Borrowed(&mut sim);
        let got = run_shape(borrowed, plan, &observe, kind, exec(1, None, false), telemetry, n);
        assert_eq!(&got, want, "serial, {ctx}");
        assert_eq!(sim.save_state(), before, "serial run leaves the initial state, {ctx}");
        for workers in [1, 3] {
            let built = Sims::Build(&make_sim);
            let got =
                run_shape(built, plan, &observe, kind, exec(workers, None, false), telemetry, n);
            assert_eq!(&got, want, "parallel x{workers}, {ctx}");
        }

        let path = journal(&format!("{}_{tag}_{translation}_{telemetry}", design.name));
        let _ = std::fs::remove_file(&path);
        let durable = exec(2, Some(&path), false);
        let got = run_shape(Sims::Build(&make_sim), plan, &observe, kind, durable, telemetry, n);
        assert_eq!(&got, want, "durable x2, {ctx}");
        // Cut the journal mid-record and resume: the torn tail re-runs.
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(len / 2 + 3).unwrap();
        let done = resume_from_journal::<K>(&path).expect("a cut journal scans").done();
        let resumed = exec(2, Some(&path), true);
        let got =
            run_shape(Sims::Build(&make_sim), plan, &observe, kind, resumed, telemetry, n - done);
        assert_eq!(&got, want, "durable resumed from a truncated journal, {ctx}");
        let _ = std::fs::remove_file(&path);
    }
}

/// Every shape of the campaign driver equals the reference on `plan`.
fn check_runners(design: &Design, translation: bool, plan: &[Injection], config: CampaignConfig) {
    let want = reference(design, translation, plan, config);
    let ctx = format!("{} translation={translation} ff={}", design.name, config.fast_forward);
    let observe = |sim: &CoSim| design.observe(sim);
    let mut sim = design.sim(translation);
    let before = sim.save_state();
    assert_eq!(run_campaign(&mut sim, plan, observe, config), want, "run_campaign, {ctx}");
    assert_eq!(sim.save_state(), before, "run_campaign leaves the initial state, {ctx}");
    check_shapes(design, translation, plan, &config, &want, &format!("ff={}", config.fast_forward));
}

#[test]
fn every_runner_matches_restore_from_initial() {
    for (d, design) in [cordic(), matmul(), fsl_deadlock()].iter().enumerate() {
        let end = golden_end(design);
        let seed = d as u64 * 31;
        let plans = [hostile_plan(seed + 1, 48, end), hostile_plan(seed + 2, 48, end)];
        for plan in plans.iter().chain([&rung_plan(seed + 3, end)]) {
            for (translation, ff) in [(false, true), (false, false), (true, true)] {
                check_runners(design, translation, plan, config(ff));
            }
            // The plans reach past plain masked trials.
            let report = reference(design, false, plan, config(true));
            assert!(
                report.trials.iter().any(|t| t.outcome == Outcome::Deadlock),
                "{}",
                design.name
            );
        }
        let report = reference(design, false, &plans[0], config(true));
        assert_eq!(report.coverage().abandoned, 1, "{}", design.name);
    }
}

#[test]
fn every_recovery_shape_matches_capture_then_run_trial() {
    for (d, design) in [cordic(), matmul(), fsl_deadlock()].iter().enumerate() {
        let end = golden_end(design);
        let seed = d as u64 * 37;
        let plans = [hostile_plan(seed + 1, 48, end), hostile_plan(seed + 2, 48, end)];
        for plan in plans.iter().chain([&rung_plan(seed + 3, end)]) {
            for translation in [false, true] {
                let want = recovery_reference(design, translation, plan, policy());
                check_shapes(design, translation, plan, &policy(), &want, "recovery");
            }
        }
        // The plans reach past clean trials, and the panic is abandoned.
        let report = recovery_reference(design, false, &plans[0], policy());
        assert!(
            report.trials.iter().any(|t| t.outcome != RecoveryOutcome::Clean),
            "{}",
            design.name
        );
        assert_eq!(report.abandoned(), 1, "{}", design.name);
    }
}

#[test]
fn a_restored_rung_equals_a_fresh_run_stopped_at_its_cycle() {
    for design in [cordic(), matmul(), fsl_deadlock()] {
        let end = golden_end(&design);
        let mut golden = design.sim(false);
        let initial = golden.save_state();
        let start = golden.cpu().stats().cycles;
        let mut rung_cycles: Vec<u64> = (1..=8).map(|k| start + k * (end - start) / 9).collect();
        rung_cycles.dedup();
        let mut rungs = Vec::new();
        for &c in &rung_cycles {
            golden.run(c - golden.cpu().stats().cycles);
            let delta = golden.save_state_delta(&initial);
            assert!(
                delta.patch_bytes() <= 4 * 256,
                "{}: {} patch bytes",
                design.name,
                delta.patch_bytes()
            );
            rungs.push(delta);
        }
        let mut restored = design.sim(false);
        for (&c, delta) in rung_cycles.iter().zip(&rungs).rev() {
            restored.load_state_delta(&initial, delta);
            let mut fresh = design.sim(false);
            fresh.run(c - start);
            assert_eq!(restored.save_state(), fresh.save_state(), "{} rung at {c}", design.name);
        }
        // Rung 0 restores the initial state itself.
        restored.load_state_delta(&initial, &design.sim(false).save_state_delta(&initial));
        assert_eq!(restored.save_state(), initial, "{}", design.name);
    }
}

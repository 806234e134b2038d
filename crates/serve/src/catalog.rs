//! The job catalog: which workloads the service can run, how a job is
//! specified, and the deterministic recipes (simulator, observables,
//! injection plans, recovery policy) behind each workload.
//!
//! This is the only home of the campaign recipes. `softsim-bench`
//! builds every campaign of `tables` (and of its `trace_overhead`
//! guard) from them, and `cosimbench`'s `serve_campaign` workload does
//! too, so a campaign served here is the same campaign `tables` runs.
//! Every recipe reads its workload's [`Design`], which [`design`]
//! assembles and runs to halt once per process.

use softsim_apps::cordic::reference as cordic_ref;
use softsim_apps::cordic::software::{hw_program, CordicBatch};
use softsim_apps::matmul::reference::Matrix;
use softsim_apps::matmul::software as mm_sw;
use softsim_cosim::{CoSim, CoSimStop, Peripheral, FSL_DEPTH};
use softsim_isa::asm::assemble;
use softsim_isa::Image;
use softsim_resilience::{
    fnv1a64, random_plan, random_plan_hardware, FaultKind, Injection, RecoveryPolicy,
};
use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex, PoisonError};

/// What a job asks the service to do with its workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// One fault-free run to halt; returns cycles and observables.
    Simulate,
    /// A seeded fault-injection campaign (durable when requested).
    Campaign,
    /// A seeded rollback-recovery campaign.
    Recovery,
    /// A small deterministic parameter sweep of fault-free runs.
    Sweep,
}

impl JobKind {
    /// Wire name of this kind.
    pub fn label(self) -> &'static str {
        match self {
            JobKind::Simulate => "simulate",
            JobKind::Campaign => "campaign",
            JobKind::Recovery => "recovery",
            JobKind::Sweep => "sweep",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<JobKind> {
        Some(match s {
            "simulate" => JobKind::Simulate,
            "campaign" => JobKind::Campaign,
            "recovery" => JobKind::Recovery,
            "sweep" => JobKind::Sweep,
            _ => return None,
        })
    }
}

/// Scheduling class of a job. Under overload, lower classes are shed
/// first; within a class the queue is FIFO.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Shed first.
    Low,
    /// The default class.
    Normal,
    /// Evicts queued lower-class jobs when the queue is full.
    High,
}

impl Priority {
    /// Queue class index (0 = Low).
    pub fn rank(self) -> usize {
        match self {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::High => 2,
        }
    }

    /// Wire name of this priority.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<Priority> {
        Some(match s {
            "low" => Priority::Low,
            "normal" => Priority::Normal,
            "high" => Priority::High,
            _ => return None,
        })
    }
}

/// A workload the catalog can build.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Workload {
    /// The hardware-accelerated CORDIC divider over the canonical
    /// 8-pair batch.
    Cordic {
        /// CORDIC iterations per result.
        iterations: u32,
        /// Processing elements in the peripheral.
        p: usize,
    },
    /// The hardware block matmul over the deterministic test matrices.
    Matmul {
        /// Matrix dimension.
        n: usize,
        /// Block size.
        nb: usize,
    },
    /// A workload whose simulator constructor panics — exercises the
    /// retry/quarantine path deterministically (the service analog of
    /// `FaultKind::HarnessPanic`).
    CrashTest,
}

impl Workload {
    /// Wire name of this workload.
    pub fn label(self) -> &'static str {
        match self {
            Workload::Cordic { .. } => "cordic",
            Workload::Matmul { .. } => "matmul",
            Workload::CrashTest => "crash_test",
        }
    }

    /// Rejects parameter combinations the apps cannot build, with a
    /// message suitable for a typed job rejection. Validation happens
    /// at admission so a bad request never reaches a worker.
    pub fn validate(self) -> Result<(), String> {
        match self {
            Workload::Cordic { iterations, p } => {
                if iterations == 0 || iterations > 64 {
                    return Err(format!("cordic iterations {iterations} outside 1..=64"));
                }
                if p == 0 || p > 8 {
                    return Err(format!("cordic p {p} outside 1..=8"));
                }
                Ok(())
            }
            Workload::Matmul { n, nb } => {
                if n == 0 || n > 32 {
                    return Err(format!("matmul n {n} outside 1..=32"));
                }
                if nb == 0 || nb > n || n % nb != 0 {
                    return Err(format!("matmul nb {nb} must divide n {n}"));
                }
                // A block's results must fit the return FIFO, or it deadlocks.
                let (words, depth) = (nb * nb, FSL_DEPTH);
                if words > depth {
                    return Err(format!(
                        "matmul nb {nb}: {words} result words exceed the {depth}-deep return FIFO"
                    ));
                }
                Ok(())
            }
            Workload::CrashTest => Ok(()),
        }
    }
}

/// Most trials one campaign, recovery or sweep job may ask for.
pub const MAX_TRIALS: u32 = 100_000;

/// A fully-specified job: what to run and under which robustness knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// What to do.
    pub kind: JobKind,
    /// What to run it on.
    pub workload: Workload,
    /// Campaign/recovery plan seed.
    pub seed: u64,
    /// Campaign/recovery trial count (sweep point count for sweeps).
    pub trials: u32,
    /// Scheduling class.
    pub priority: Priority,
    /// Per-trial cycle budget forwarded to the campaign layer.
    pub trial_cycle_budget: Option<u64>,
    /// Per-trial wall budget (milliseconds) forwarded to the campaign
    /// layer. Wall budgets make reports machine-dependent; leave unset
    /// for byte-reproducible output.
    pub trial_wall_budget_ms: Option<u64>,
    /// Whole-job deadline (milliseconds, measured from submission). A
    /// job still queued past its deadline is shed, never started.
    pub deadline_ms: Option<u64>,
    /// Journal campaign trials to the spool for crash-resume.
    pub durable: bool,
    /// Consult and fill the memoization cache.
    pub use_cache: bool,
}

impl Default for JobSpec {
    fn default() -> JobSpec {
        JobSpec {
            kind: JobKind::Campaign,
            workload: Workload::Cordic { iterations: 8, p: 2 },
            seed: 0x5EED_FA17,
            trials: 24,
            priority: Priority::Normal,
            trial_cycle_budget: None,
            trial_wall_budget_ms: None,
            deadline_ms: None,
            durable: true,
            use_cache: true,
        }
    }
}

impl JobSpec {
    /// Rejects a spec the service will not run: an invalid workload (see
    /// [`Workload::validate`]) or more than [`MAX_TRIALS`] trials.
    pub fn validate(&self) -> Result<(), String> {
        self.workload.validate().map_err(|msg| format!("invalid workload: {msg}"))?;
        if self.trials > MAX_TRIALS {
            return Err(format!("trials {} above {MAX_TRIALS}", self.trials));
        }
        Ok(())
    }

    /// Content address of this job's *result*: an FNV-1a hash over
    /// every field that affects the output bytes (kind, workload,
    /// seed, trials, budgets) and none that don't (priority, deadline,
    /// durability, cache policy). Two specs with equal hashes produce
    /// byte-identical reports, which is what makes the memoization
    /// cache and the spool's journal naming sound.
    pub fn content_hash(&self) -> u64 {
        let (tag, dims) = match self.workload {
            Workload::Cordic { iterations, p } => (1, Some([iterations as u64, p as u64])),
            Workload::Matmul { n, nb } => (2, Some([n as u64, nb as u64])),
            Workload::CrashTest => (3, None),
        };
        let budgets =
            [self.trial_cycle_budget, self.trial_wall_budget_ms].map(|b| b.unwrap_or(u64::MAX));
        let words =
            dims.into_iter().flatten().chain([self.seed, self.trials as u64]).chain(budgets);
        let mut bytes = vec![self.kind.label().as_bytes()[0], tag];
        bytes.extend(words.flat_map(u64::to_le_bytes));
        fnv1a64(&bytes)
    }
}

/// The canonical CORDIC batch: eight `(a, b)` pairs spanning the
/// convergence domain, used by every CORDIC job and paper row (2·8 = 16
/// result words exactly fill the output FSL FIFO — the paper's "size of
/// each set of data is selected carefully").
pub fn cordic_batch() -> CordicBatch {
    let pairs: Vec<(i32, i32)> = [
        (1.0, 0.5),
        (1.5, 1.2),
        (2.0, -1.0),
        (1.25, 0.8),
        (3.0, 2.5),
        (1.1, -0.3),
        (2.75, 1.9),
        (1.9, 0.05),
    ]
    .iter()
    .map(|&(a, b)| (cordic_ref::to_fix(a), cordic_ref::to_fix(b)))
    .collect();
    CordicBatch::new(&pairs)
}

/// The assembled image behind `workload`: the catalog's one assembly
/// (the paper's figure workloads call it directly; they need no design).
pub fn image(workload: Workload) -> Image {
    match workload {
        Workload::Cordic { iterations, p } => {
            assemble(&hw_program(&cordic_batch(), iterations, p)).expect("cordic hw assembles")
        }
        Workload::Matmul { n, nb } => {
            let (a, b) = (Matrix::test_pattern(n, 7), Matrix::test_pattern(n, 8));
            assemble(&mm_sw::hw_program(&a, &b, nb)).expect("matmul assembles")
        }
        Workload::CrashTest => panic!("crash-test workload build (deliberate)"),
    }
}

/// A catalog workload built once: its image, its observable window and
/// its fault-free (golden) run. None of it depends on a job's seed.
pub struct Design {
    workload: Workload,
    /// The assembled program.
    image: Image,
    /// Result base address and word count, read back after every run.
    pub(crate) observe: (u32, usize),
    /// Cycles the fault-free run takes to halt.
    pub(crate) golden_cycles: u64,
    /// The observable window of the fault-free run at halt.
    pub(crate) golden_observed: Vec<u32>,
}

impl Design {
    /// Assembles `workload` and runs it to halt: the catalog's one
    /// golden run. Panics for a run that does not halt in 10M cycles.
    fn build(workload: Workload) -> Design {
        let image = image(workload);
        let (label, n) = match workload {
            Workload::Cordic { .. } => ("z_data", cordic_batch().len()),
            Workload::Matmul { n, .. } => ("c_data", n * n),
            Workload::CrashTest => unreachable!("image() panicked first"),
        };
        let observe = (image.symbol(label).expect("catalog programs label their results"), n);
        let mut sim = CoSim::with_peripheral(&image, peripheral(workload));
        let stop = sim.run(10_000_000);
        assert_eq!(stop, CoSimStop::Halted, "workload must halt: {stop}");
        let golden_observed = observe_words(&sim, observe.0, n);
        Design {
            workload,
            image,
            observe,
            golden_cycles: sim.cpu().stats().cycles,
            golden_observed,
        }
    }

    /// A fresh co-simulator of this design, with the co-simulator's
    /// exact fast paths (translated blocks, stall fast-forward) on.
    pub fn sim(&self) -> CoSim {
        CoSim::with_peripheral(&self.image, peripheral(self.workload))
    }

    /// What every seeded plan draws from: the live part of the golden
    /// run, `[golden / 10, golden)`, and the image's byte count.
    fn injection_space(&self) -> ((u64, u64), u32) {
        ((self.golden_cycles / 10, self.golden_cycles), self.image.bytes().len() as u32)
    }
}

/// The peripheral `workload`'s program drives over FSL.
fn peripheral(workload: Workload) -> Peripheral {
    match workload {
        Workload::Cordic { p, .. } => softsim_apps::cordic::hardware::cordic_peripheral(p),
        Workload::Matmul { nb, .. } => softsim_apps::matmul::hardware::matmul_peripheral(nb),
        Workload::CrashTest => unreachable!("a crash-test design is never built"),
    }
}

/// The design of `workload`, built on its first request and shared by
/// every later one in the process. It is built outside the memo's lock:
/// a build that panics (the crash-test workload's, every time) leaves
/// the memo as it was, and threads racing on a new workload all get the
/// design stored first. Only valid workloads are built (panics
/// otherwise), so the memo holds at most 578 designs.
pub fn design(workload: Workload) -> Arc<Design> {
    static DESIGNS: LazyLock<Mutex<HashMap<Workload, Arc<Design>>>> =
        LazyLock::new(Default::default);
    let memo = || DESIGNS.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(design) = memo().get(&workload) {
        return Arc::clone(design);
    }
    if let Err(msg) = workload.validate() {
        panic!("catalog designs are built for valid workloads only: {msg}");
    }
    let built = Arc::new(Design::build(workload));
    Arc::clone(memo().entry(workload).or_insert(built))
}

/// A fresh co-simulator for `workload` ([`Design::sim`]). The second
/// argument is ignored: every job runs both fast paths.
pub fn build_sim(workload: Workload, _degraded: bool) -> CoSim {
    design(workload).sim()
}

/// The observable window of `workload`: result base address and count.
pub fn observe_window(workload: Workload) -> (u32, usize) {
    design(workload).observe
}

/// Reads the observable window out of a halted simulator.
pub fn observe_words(sim: &CoSim, base: u32, n: usize) -> Vec<u32> {
    (0..n).map(|i| sim.cpu().mem().read_u32(base + 4 * i as u32).unwrap()).collect()
}

/// Cycles the fault-free workload takes to halt.
pub fn golden_cycles(workload: Workload) -> u64 {
    design(workload).golden_cycles
}

/// The seeded injection plan of a campaign job: injection cycles in the
/// live part of the golden run, SEU + protocol faults on channels 0
/// and 1.
pub fn campaign_plan(workload: Workload, seed: u64, trials: u32) -> Vec<Injection> {
    let (window, bytes) = design(workload).injection_space();
    random_plan(seed, trials as usize, window, bytes, &[0, 1])
}

/// The seeded plan of a recovery job: [`campaign_plan`]'s window, but
/// hardware-survivable faults only, on channel 0.
pub fn recovery_plan(workload: Workload, seed: u64, trials: u32) -> Vec<Injection> {
    let (window, bytes) = design(workload).injection_space();
    random_plan_hardware(seed, trials as usize, window, bytes, &[0])
}

/// An FSL-stall-heavy plan: every injection sticks a channel 0
/// handshake flag in the first half of the golden run, so (almost)
/// every trial ends blocked on an FSL transfer and burns the full
/// watchdog threshold before it is declared dead — the workload the
/// stall jump targets. A fixed deterministic stride, no RNG.
pub fn stuck_plan(workload: Workload, trials: u32) -> Vec<Injection> {
    let ((lo, golden), _) = design(workload).injection_space();
    let span = (golden / 2).saturating_sub(lo).max(1);
    (0..trials)
        .map(|i| {
            let cycle = lo + (i as u64 * 7919) % span;
            let kind = if i % 2 == 0 {
                FaultKind::StuckEmpty { channel: 0 }
            } else {
                FaultKind::StuckFull { channel: 0 }
            };
            Injection { cycle, kind }
        })
        .collect()
}

/// The recovery policy of every recovery campaign. The catalog
/// workloads halt within a few thousand cycles, so the default
/// 1024-cycle checkpoint cadence would give them only a couple of
/// signature windows and the default 10k-cycle watchdog would dominate
/// every hang's wall-clock; both are tightened to the workload scale.
pub fn recovery_policy() -> RecoveryPolicy {
    RecoveryPolicy { checkpoint_every: 256, watchdog_threshold: 2_000, ..RecoveryPolicy::default() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hash_covers_results_not_policy() {
        let a = JobSpec::default();
        let mut b = a;
        b.priority = Priority::High;
        b.deadline_ms = Some(5);
        b.durable = false;
        b.use_cache = false;
        assert_eq!(a.content_hash(), b.content_hash(), "policy knobs don't change results");
        let mut c = a;
        c.seed ^= 1;
        assert_ne!(a.content_hash(), c.content_hash());
        let mut d = a;
        d.trials += 1;
        assert_ne!(a.content_hash(), d.content_hash());
        let mut e = a;
        e.workload = Workload::Matmul { n: 4, nb: 2 };
        assert_ne!(a.content_hash(), e.content_hash());
    }

    #[test]
    fn validation_rejects_unbuildable_workloads() {
        assert!(Workload::Cordic { iterations: 8, p: 2 }.validate().is_ok());
        assert!(Workload::Cordic { iterations: 0, p: 2 }.validate().is_err());
        assert!(Workload::Cordic { iterations: 8, p: 9 }.validate().is_err());
        assert!(Workload::Matmul { n: 4, nb: 2 }.validate().is_ok());
        assert!(Workload::Matmul { n: 4, nb: 3 }.validate().is_err());
        assert!(Workload::Matmul { n: 0, nb: 1 }.validate().is_err());
    }

    #[test]
    fn every_valid_workload_halts_and_large_matmul_blocks_are_rejected() {
        let cordic = (1..=64)
            .flat_map(|iterations| (1..=8).map(move |p| Workload::Cordic { iterations, p }));
        let matmul = (1..=32).flat_map(|n| {
            (1..=n).filter(move |nb| n % nb == 0).map(move |nb| Workload::Matmul { n, nb })
        });
        let (mut built, mut rejected) = (0, 0);
        for w in cordic.chain(matmul) {
            match w.validate() {
                // The build panics unless the golden run halts.
                Ok(()) => built += usize::from(design(w).golden_cycles > 0),
                Err(msg) => {
                    assert!(matches!(w, Workload::Matmul { nb: 5.., .. }), "{w:?}: {msg}");
                    rejected += 1;
                }
            }
        }
        assert_eq!((built, rejected), (512 + 66, 53));
    }

    #[test]
    fn catalog_sims_match_the_stepped_reference() {
        for w in [Workload::Cordic { iterations: 8, p: 2 }, Workload::Matmul { n: 4, nb: 2 }] {
            let (base, n) = observe_window(w);
            let built = build_sim(w, false);
            let mut stepped = build_sim(w, false);
            stepped.set_translation(false);
            let ran = [built, stepped].map(|mut sim| {
                assert_eq!(sim.run(10_000_000), softsim_cosim::CoSimStop::Halted, "{w:?}");
                (observe_words(&sim, base, n), sim.save_state(), sim.hw_stats())
            });
            assert!(ran[0] == ran[1], "{w:?}: as built differs from the stepped reference");
        }
    }
}

//! The job catalog: which workloads the service can run, how a job is
//! specified, and the deterministic recipes (simulator, observables,
//! injection plans) behind each workload.
//!
//! The recipes reproduce the canonical configurations of
//! `softsim-bench` (the dependency points the other way — bench's
//! `trace_overhead` guard and `cosimbench`'s `serve_campaign` workload
//! drive this crate), so a campaign served here is byte-identical to
//! the same campaign run by `tables`.

use softsim_apps::cordic::reference as cordic_ref;
use softsim_apps::cordic::software::{hw_program, CordicBatch};
use softsim_apps::matmul::reference::Matrix;
use softsim_apps::matmul::software as mm_sw;
use softsim_cosim::CoSim;
use softsim_isa::asm::assemble;
use softsim_isa::Image;
use softsim_resilience::{fnv1a64, random_plan, random_plan_hardware, Injection, RecoveryPolicy};

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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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

/// The canonical CORDIC batch (the 8 pairs every bench row uses).
fn cordic_batch() -> CordicBatch {
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

/// The assembled image behind `workload`.
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

/// A fresh co-simulator for `workload`, with the co-simulator's exact
/// fast paths (translated blocks, stall fast-forward) on as built.
/// The second argument is ignored: every job runs both fast paths, and
/// degraded admission is only a flag in the job's status. The service
/// passes `false`.
pub fn build_sim(workload: Workload, _degraded: bool) -> CoSim {
    let img = image(workload);
    match workload {
        Workload::Cordic { p, .. } => {
            CoSim::with_peripheral(&img, softsim_apps::cordic::hardware::cordic_peripheral(p))
        }
        Workload::Matmul { nb, .. } => {
            CoSim::with_peripheral(&img, softsim_apps::matmul::hardware::matmul_peripheral(nb))
        }
        Workload::CrashTest => unreachable!("image() panicked first"),
    }
}

/// The observable window of `workload`: result base address and word
/// count, read back after every run for classification.
pub fn observe_window(workload: Workload) -> (u32, usize) {
    let img = image(workload);
    match workload {
        Workload::Cordic { .. } => {
            (img.symbol("z_data").expect("cordic result label"), cordic_batch().len())
        }
        Workload::Matmul { n, .. } => (img.symbol("c_data").expect("matmul result label"), n * n),
        Workload::CrashTest => unreachable!("image() panicked first"),
    }
}

/// Reads the observable window out of a halted simulator.
pub fn observe_words(sim: &CoSim, base: u32, n: usize) -> Vec<u32> {
    (0..n).map(|i| sim.cpu().mem().read_u32(base + 4 * i as u32).unwrap()).collect()
}

/// Cycles the fault-free workload takes to halt.
pub fn golden_cycles(workload: Workload) -> u64 {
    let mut sim = build_sim(workload, false);
    let stop = sim.run(10_000_000);
    assert_eq!(stop, softsim_cosim::CoSimStop::Halted, "workload must halt: {stop}");
    sim.cpu().stats().cycles
}

/// The seeded injection plan of a campaign job (identical to the bench
/// harness's recipe: window in the live part of the golden run, SEU +
/// protocol faults on channels 0 and 1).
pub fn campaign_plan(workload: Workload, seed: u64, trials: u32) -> Vec<Injection> {
    let golden = golden_cycles(workload);
    let bytes = image(workload).bytes().len() as u32;
    random_plan(seed, trials as usize, (golden / 10, golden), bytes, &[0, 1])
}

/// The seeded plan of a recovery job (hardware-survivable faults only,
/// channel 0 — the recovery harness's recipe).
pub fn recovery_plan(workload: Workload, seed: u64, trials: u32) -> Vec<Injection> {
    let golden = golden_cycles(workload);
    let bytes = image(workload).bytes().len() as u32;
    random_plan_hardware(seed, trials as usize, (golden / 10, golden), bytes, &[0])
}

/// The recovery policy served jobs run under (the bench harness's
/// reporting policy: tight checkpoints, quick watchdog).
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
    fn catalog_sims_match_the_stepped_reference() {
        for w in [Workload::Cordic { iterations: 8, p: 2 }, Workload::Matmul { n: 4, nb: 2 }] {
            let (base, n) = observe_window(w);
            let built = build_sim(w, false);
            let mut stepped = build_sim(w, false);
            stepped.set_translation(false);
            stepped.set_fast_forward(false);
            let ran = [built, stepped].map(|mut sim| {
                assert_eq!(sim.run(10_000_000), softsim_cosim::CoSimStop::Halted, "{w:?}");
                (observe_words(&sim, base, n), sim.save_state(), sim.hw_stats())
            });
            assert!(ran[0] == ran[1], "{w:?}: as built differs from the stepped reference");
        }
    }
}

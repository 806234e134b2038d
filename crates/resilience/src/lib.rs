//! Fault injection, liveness watchdogs and checkpoint/restore for the
//! softsim co-simulation stack.
//!
//! The paper's co-simulation framework (Ou & Prasanna, IPDPS 2005)
//! validates *functional* designs; this crate adds the robustness story
//! around it. Three pieces compose:
//!
//! * **Injection** ([`inject`]) — a deterministic schedule of SEU-style
//!   faults (register/memory/FIFO bit flips) and protocol faults
//!   (dropped, duplicated words; stuck `full`/`exists` flags) applied to
//!   a running [`softsim_cosim::CoSim`] at exact cycles.
//! * **Checkpoints** ([`snapshot`]) — a stable byte encoding of
//!   [`softsim_cosim::CoSimState`], enabling run-to-checkpoint → inject
//!   → resume workflows and byte-level determinism checks.
//! * **Campaigns** ([`campaign`]) — golden run plus one restored trial
//!   per fault, each classified masked / SDC / deadlock / fault, with
//!   the co-simulator's liveness watchdog guaranteeing hung trials end
//!   in a diagnosed [`softsim_cosim::CoSimStop::Deadlock`] rather than a
//!   silent cycle-limit timeout.
//! * **Localization** ([`localize`]) — instrumented golden/trial
//!   re-runs diffed by `softsim-metrics`, upgrading an SDC verdict with
//!   the first cycle window and the first architectural event (register
//!   writeback, FIFO word, block output) where the trial diverged.
//! * **Recovery** ([`recover`]) — a rollback-recovery [`Supervisor`]
//!   that closes the loop: checkpoint-aligned supervised execution,
//!   fault *detection* (watchdog, FSL SEC-DED, TMR voters, windowed
//!   signature diff, observable backstop), and automatic rollback +
//!   replay with exponential backoff, classifying each trial clean /
//!   recovered / unrecoverable.
//! * **One driver** ([`run`]) — both kinds of trial ([`TrialKind`]:
//!   [`CampaignConfig`] and [`RecoveryPolicy`]) run through the same
//!   golden step, worker loop and `catch_unwind` retry loop. An [`Exec`]
//!   picks the worker count, harness telemetry and an optional journal;
//!   trials are independent and merge in plan order, so the report is
//!   byte-identical for every choice. [`run_campaign`] and
//!   [`run_campaign_durable`] are the two fault-campaign shorthands.
//! * **Durability** ([`durable`]) — crash-resumable campaign execution:
//!   every completed trial is appended to a CRC32-framed `SSJL` journal
//!   keyed by `(plan_hash, trial_index)`, so an interrupted campaign
//!   resumes where it died and the merged report is byte-identical to
//!   an uninterrupted run at any worker count. Together with trial
//!   isolation (`catch_unwind` per trial) and per-trial cycle /
//!   wall-clock budgets in [`campaign`], this is the fault-tolerant
//!   execution layer long campaigns run on. [`resume_from_journal`]
//!   inspects a journal of either kind.
//! * **One codec** — checkpoints, journals and hashes share a single
//!   private codec module: the little-endian writers and bounded reader,
//!   the `CpuStats`/`HwStats` encodings both formats embed, the
//!   magic/version and trailing-bytes checks, and the two digests,
//!   [`crc32`] and [`fnv1a64`] (the plan hash, and `softsim-serve`'s job
//!   content hash). A statistics field is encoded in one place, so the
//!   `SSCK` and `SSJL` formats cannot drift apart.
//!
//! Everything is seeded through [`softsim_testkit::Rng`]: the same seed
//! and schedule reproduce the same report, bit for bit — the property CI
//! gates on.

#![warn(missing_docs)]

pub mod campaign;
mod codec;
mod driver;
pub mod durable;
pub mod inject;
pub mod localize;
pub mod recover;
pub mod snapshot;

pub use campaign::{run_campaign, CampaignConfig, CampaignReport, Coverage, Outcome, Trial};
pub use codec::fnv1a64;
pub use driver::{panic_message, run, Exec, JournalSpec, Sims, TrialKind};
pub use durable::{
    abort_after_trials_from_env, positive_int_from_env, resume_from_journal, run_campaign_durable,
    AppendFault, AppendFaultPlan, DurabilityStatus, EnvConfigError, JournalError, JournalScan,
};
pub use inject::{random_plan, random_plan_hardware, FaultKind, Injection, Injector};
pub use localize::{capture_golden, localize_trial, DivergenceReport, GoldenRun, LocalizeConfig};
pub use recover::{
    RecoveryGolden, RecoveryOutcome, RecoveryPolicy, RecoveryReport, RecoveryTrial, Supervisor,
};
pub use snapshot::{crc32, from_bytes, to_bytes, SnapshotError};

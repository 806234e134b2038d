//! `softsim-serve`: a fault-tolerant batched simulation service.
//!
//! ROADMAP item 2's serving layer: simulation, fault-campaign,
//! recovery-campaign and sweep jobs submitted to a supervised worker
//! pool, over an in-process [`Server`] API or the line-oriented JSON
//! protocol of [`net`]. Robustness is the headline:
//!
//! * **Admission control** — a bounded three-class priority queue
//!   ([`queue::BoundedQueue`]); overload produces typed
//!   [`server::Shed`] rejections and priority-based eviction, never
//!   unbounded memory growth.
//! * **Deadlines, retry, quarantine** — per-job wall/cycle deadlines
//!   compose with the campaign layer's trial budgets; a job attempt
//!   that panics is caught (`catch_unwind`), retried with exponential
//!   backoff, and quarantined after the configured retries. Workers
//!   survive every panic.
//! * **Crash-resume** — durable campaign jobs journal every trial into
//!   a per-job `SSJL` spool file; a `kill -9` of the server followed by
//!   a restart re-runs only the missing trials, and the merged report
//!   is byte-identical to an uninterrupted run at any worker count.
//! * **Designs built once** — each workload is assembled and run to
//!   halt once per process ([`catalog::design`]); every job of it reads
//!   that image, observable window and golden record, and a shape that
//!   cannot halt is rejected at admission.
//! * **Memoization** — a content-addressed cache keyed by the FNV-1a
//!   hash of (program, config, seed), CRC-verified on every read with
//!   corrupt-entry eviction; a repeated identical request is a cache
//!   hit, not a re-simulation.
//! * **Observability** — health/readiness, queue depth and per-job
//!   lifecycle counters surfaced through the
//!   `softsim_metrics::telemetry` hub and its Prometheus exposition.

#![warn(missing_docs)]

pub mod cache;
pub mod catalog;
pub mod net;
pub mod protocol;
pub mod queue;
pub mod server;

pub use cache::{CacheLookup, MemoCache};
pub use catalog::{JobKind, JobSpec, Priority, Workload};
pub use queue::{Admission, BoundedQueue, QueueConfig};
pub use server::{
    CacheStatus, Health, JobResult, JobState, JobStatus, ServeConfig, Server, Shed, ShedReason,
    MAX_WORKERS,
};

//! # softsim-bench — the paper's tables and figures
//!
//! Regenerates **every table and figure** of the paper's evaluation
//! (§IV): Figure 5 (CORDIC time vs P), Figure 7 (matmul time vs N),
//! Table I (resources + simulation times) and Table II (raw simulator
//! speeds), plus the quantitative §IV claims and the fault, recovery,
//! hotspot and durable-campaign records.
//!
//! * `cargo run --release -p softsim-bench --bin tables -- --all`
//!   prints everything (see `EXPERIMENTS.md`); `--table1 --table2`
//!   time the simulators through [`measure`];
//! * every campaign is built from the recipes of
//!   `softsim_serve::catalog` (image, plan, observable window, recovery
//!   policy), so a campaign run here is the campaign the service runs;
//! * `cargo bench -p softsim-bench --bench trace_overhead` runs the
//!   observation-off overhead guards. The timed performance record is
//!   the separate `cosimbench` package.

#![warn(missing_docs)]

pub mod durable;
pub mod faults;
pub mod hotspots;
pub mod measure;
pub mod recover;
pub mod sweep;
pub mod tables;
pub mod workloads;

//! # softsim-bench — the benchmark harness
//!
//! Regenerates **every table and figure** of the paper's evaluation
//! (§IV): Figure 5 (CORDIC time vs P), Figure 7 (matmul time vs N),
//! Table I (resources + simulation times) and Table II (raw simulator
//! speeds), plus the quantitative §IV claims.
//!
//! * `cargo run --release -p softsim-bench --bin tables -- --all`
//!   prints everything (see `EXPERIMENTS.md`);
//! * `cargo bench` runs the wall-clock benchmarks (built on the
//!   dependency-free [`harness`]), one per table/figure, plus the
//!   tracing-overhead guard.

#![warn(missing_docs)]

pub mod durable;
pub mod faults;
pub mod harness;
pub mod hotspots;
pub mod measure;
pub mod recover;
pub mod sweep;
pub mod tables;
pub mod workloads;

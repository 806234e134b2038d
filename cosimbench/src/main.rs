//! The softsim benchmark: one process, one workload per invocation.
//!
//! ```text
//! cargo run --release --manifest-path cosimbench/Cargo.toml -- \
//!     --workload cordic_hw --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! the result object; earlier lines carry diagnostics. See README.md in
//! this directory for the workloads, the metrics and what each one
//! should move.

mod cordic;
mod counts;
mod layers;
mod serve;
mod spans;
mod stats;
mod sys;

use std::path::PathBuf;
use std::time::Instant;

/// A small deterministic generator for benchmark inputs.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One metric of the result line.
pub type Metric = (&'static str, f64, &'static str);

/// The outcome of one benchmark run.
pub struct Outcome {
    /// Operations attempted (every checked op counts).
    pub attempted: u64,
    /// Operations that failed their output check or were refused.
    pub failed: u64,
    /// The metrics to print.
    pub metrics: Vec<Metric>,
    /// Diagnostic fields printed on a line of their own.
    pub diagnostics: Vec<(String, String)>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The run's scratch directory under the working directory, created fresh.
fn out_dir(args: &Args) -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_out").join(format!(
        "{}-seed{}-trace{}-{}",
        args.workload,
        args.seed,
        args.trace as u8,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn run(args: &Args, dir: &std::path::Path) -> Result<Outcome, String> {
    let steal0 = sys::steal_ticks();
    let wall0 = Instant::now();
    let mut out = match (args.workload.as_str(), args.trace) {
        ("cordic_hw", false) => cordic::e2e(cordic::Kind::Hw, args.seed, args.seconds)?,
        ("cordic_sw", false) => cordic::e2e(cordic::Kind::Sw, args.seed, args.seconds)?,
        ("serve_campaign", false) => serve::e2e(args.seed, args.seconds, dir)?,
        (w @ ("cordic_hw" | "cordic_sw" | "serve_campaign"), true) => {
            layers::traced(w, args.seed, args.seconds, dir)?
        }
        (other, _) => return Err(format!("unknown workload {other:?}")),
    };
    let steal = sys::steal_ticks().saturating_sub(steal0);
    out.diagnostics.push(("steal_ticks".into(), steal.to_string()));
    out.diagnostics.push(("wall_s".into(), format!("{}", wall0.elapsed().as_secs_f64())));
    Ok(out)
}

/// Absolute host-speed figures as diagnostic fields. On a shared
/// machine they swing with the neighbours' load by more than any bound
/// a gate could use, so they are reported but not gated; the RTL ratio
/// is the gated speed metric.
pub fn host_diagnostics(host: &[Metric]) -> Vec<(String, String)> {
    host.iter().map(|(name, v, _)| (name.to_string(), json_number(*v))).collect()
}

/// The quartiles of `v` as a JSON array, for the diagnostics line.
pub fn quartiles_field(v: &[f64]) -> String {
    let [a, b, c] = stats::quartiles(v).map(json_number);
    format!("[{a},{b},{c}]")
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let dir = match out_dir(&args) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let result = run(&args, &dir);
    let _ = std::fs::remove_dir_all(dir.join("spool"));
    let _ = std::fs::remove_dir(&dir);
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let diag: Vec<String> = out.diagnostics.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    println!("{{\"diagnostics\":{{\"workload\":\"{}\",{}}}}}", args.workload, diag.join(","));
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", json_number(*v))
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
}

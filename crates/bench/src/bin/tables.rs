//! Prints the reproduced tables and figures of the paper.
//!
//! Usage: `tables [--fig5] [--fig7] [--table1] [--table2] [--claims]
//! [--ablation] [--profile] [--faults] [--metrics] [--all]
//! [--csv [DIR]] [--recovery [PATH]] [--hotspots [PATH]]
//! [--durable-json [PATH]] [--journal [PATH]] [--resume]
//! [--record [PATH]] [--telemetry [SNAPSHOT]]`
//!
//! Any other argument is a configuration error (exit 2), as is a
//! malformed `SOFTSIM_SWEEP_WORKERS` or `SOFTSIM_ABORT_AFTER_TRIALS`.
//!
//! Run in release mode — the Table I / Table II rows measure wall-clock
//! simulation speed. The repository's performance record is the
//! `cosimbench` benchmark (`cosimbench/README.md`), not this binary.
//!
//! * `--recovery` writes the rollback-recovery record
//!   (`BENCH_0005.json` by default) — the hardening matrix (unhardened
//!   / ECC / TMR / both) with per-row recovery rates, cycle-exact and
//!   byte-reproducible, serial-vs-parallel equality asserted first.
//! * `--hotspots` writes the guest-program hotspot record
//!   (`BENCH_0006.json` by default) — per-workload hot basic blocks and
//!   partition-advisor rankings, cycle-exact and byte-reproducible
//!   across machines and `SOFTSIM_SWEEP_WORKERS` values.
//! * `--durable-json` writes the durable-campaign record
//!   (`BENCH_0007.json` by default) — journaled execution with
//!   interrupt-and-resume byte-identity, worker invariance and the
//!   trial-isolation demo, cycle-exact and byte-reproducible.
//! * `--journal [PATH]` (default `target/campaign.ssjl`) switches
//!   `--faults` and `--recovery` to the crash-resumable journaled
//!   runners: every completed trial is appended to the `SSJL` journal
//!   at PATH (`PATH.recovery` for the recovery campaign). Kill the run
//!   at any point, then pass `--resume` to pick up where it died — the
//!   finished report is byte-identical to an uninterrupted run.
//! * `--record` writes the deterministic record (`tables_output.txt` by
//!   default) — every cycle-exact section, no wall-clock numbers — the
//!   file CI asserts is up to date. Set `SOFTSIM_SWEEP_WORKERS=1` to
//!   force the serial sweep path; CI diffs that against the default
//!   parallel one.
//! * `--telemetry [SNAPSHOT]` (default `target/telemetry.prom`) turns
//!   on harness telemetry for the `--faults` campaign: a stderr
//!   progress/ETA heartbeat, a periodically refreshed Prometheus
//!   snapshot file, and a final per-worker utilization summary on
//!   stderr. stdout is untouched — CI byte-diffs it against a
//!   telemetry-off run.

use softsim_bench::tables;
use softsim_metrics::telemetry::{Telemetry, TelemetryConfig};
use std::time::Duration;

/// The flags `tables` reads that take no operand.
const FLAGS: [&str; 11] = [
    "--fig5",
    "--fig7",
    "--table1",
    "--table2",
    "--claims",
    "--ablation",
    "--profile",
    "--faults",
    "--metrics",
    "--all",
    "--resume",
];

/// The flags that take an optional operand (`--flag [PATH]`).
const WITH_OPERAND: [&str; 7] =
    ["--csv", "--recovery", "--hotspots", "--durable-json", "--journal", "--record", "--telemetry"];

/// Rejects an unknown flag, and an operand that follows no flag taking
/// one, so a mistyped or retired flag fails instead of doing nothing.
fn check_args(args: &[String]) -> Result<(), String> {
    for (i, arg) in args.iter().enumerate() {
        if arg.starts_with("--") {
            if !FLAGS.contains(&arg.as_str()) && !WITH_OPERAND.contains(&arg.as_str()) {
                return Err(format!("unknown flag {arg}"));
            }
        } else if i == 0 || !WITH_OPERAND.contains(&args[i - 1].as_str()) {
            return Err(format!("unexpected argument {arg}"));
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Arguments and environment are validated eagerly: an unknown flag
    // or a malformed override is a configuration error (exit 2) before
    // any table is computed, not a silent fallback mid-run.
    let checks = [
        check_args(&args),
        softsim_bench::sweep::sweep_workers_from_env().map(drop).map_err(|e| e.to_string()),
        softsim_resilience::abort_after_trials_from_env().map(drop).map_err(|e| e.to_string()),
    ];
    if let Some(e) = checks.into_iter().find_map(Result::err) {
        eprintln!("configuration error: {e}");
        std::process::exit(2);
    }

    let all = args.is_empty() || args.iter().any(|a| a == "--all");
    let want = |flag: &str| all || args.iter().any(|a| a == flag);
    // `--flag [PATH]`: an optional operand that is not itself a flag.
    let operand = |flag: &str, default: &str| {
        args.iter().position(|a| a == flag).map(|pos| {
            args.get(pos + 1)
                .filter(|d| !d.starts_with("--"))
                .map(String::as_str)
                .unwrap_or(default)
                .to_string()
        })
    };

    if want("--fig5") {
        println!("{}", tables::figure5_text());
    }
    if want("--fig7") {
        println!("{}", tables::figure7_text());
    }
    if want("--table1") {
        // Repeat each workload so wall times are well above timer noise.
        println!("{}", tables::table1_text(5));
    }
    if want("--table2") {
        println!("{}", tables::table2_text());
    }
    if want("--claims") {
        println!("{}", tables::claims_text());
    }
    if want("--profile") {
        println!("{}", tables::profile_text());
    }
    let journal = operand("--journal", "target/campaign.ssjl");
    let resume = args.iter().any(|a| a == "--resume");
    // `--telemetry [SNAPSHOT]`: harness telemetry for the `--faults`
    // campaign. Everything it emits goes to stderr or the snapshot
    // file, never stdout — the deterministic sections stay byte-
    // identical with or without it.
    let telemetry = operand("--telemetry", "target/telemetry.prom").map(|snap| {
        let path = std::path::PathBuf::from(&snap);
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            let _ = std::fs::create_dir_all(dir);
        }
        Telemetry::new(TelemetryConfig {
            heartbeat: Some(Duration::from_millis(1_000)),
            snapshot: Some((path, Duration::from_millis(1_000))),
        })
    });

    if want("--faults") {
        match &journal {
            Some(path) => println!(
                "{}",
                softsim_bench::durable::durable_faults_text(std::path::Path::new(path), resume)
            ),
            None => println!("{}", softsim_bench::faults::faults_text(telemetry.as_ref())),
        }
    }
    if want("--metrics") {
        println!("{}", tables::metrics_text());
    }
    if want("--ablation") {
        println!("{}", tables::ablation_fsl_vs_opb_text());
        println!("{}", tables::ablation_configurations_text());
        println!("{}", tables::lpc_text());
    }
    // `--csv [DIR]`: also write the figure data for external plotting.
    if let Some(dir) = operand("--csv", "target/figures") {
        tables::write_csvs(std::path::Path::new(&dir)).expect("write CSVs");
        println!("wrote {dir}/fig5_cordic.csv and {dir}/fig7_matmul.csv");
    }
    if let Some(path) = operand("--recovery", "BENCH_0005.json") {
        match &journal {
            Some(j) => {
                let jpath = format!("{j}.recovery");
                println!(
                    "{}",
                    softsim_bench::durable::durable_recovery_text(
                        std::path::Path::new(&jpath),
                        resume,
                    )
                );
            }
            None => {
                softsim_bench::recover::write_recovery_json(std::path::Path::new(&path))
                    .expect("write recovery JSON");
                println!("wrote {path}");
            }
        }
    }
    if let Some(path) = operand("--hotspots", "BENCH_0006.json") {
        softsim_bench::hotspots::write_hotspots_json(std::path::Path::new(&path))
            .expect("write hotspots JSON");
        println!("wrote {path}");
    }
    if let Some(path) = operand("--durable-json", "BENCH_0007.json") {
        softsim_bench::durable::write_durable_json(std::path::Path::new(&path))
            .expect("write durable JSON");
        println!("wrote {path}");
    }
    if let Some(path) = operand("--record", "tables_output.txt") {
        std::fs::write(&path, tables::record_text()).expect("write record");
        println!("wrote {path}");
    }
    if let Some(t) = &telemetry {
        t.finish();
        eprintln!("{}", t.summary());
    }
}

#[cfg(test)]
mod tests {
    use super::check_args;

    fn check(args: &[&str]) -> Result<(), String> {
        check_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn unknown_flags_and_stray_operands_are_rejected() {
        assert_eq!(check(&["--bench-json"]), Err("unknown flag --bench-json".into()));
        assert_eq!(check(&["--fig5", "--trajectory"]), Err("unknown flag --trajectory".into()));
        assert_eq!(check(&["out.txt"]), Err("unexpected argument out.txt".into()));
        assert_eq!(check(&["--fig5", "out.txt"]), Err("unexpected argument out.txt".into()));
        assert_eq!(check(&["--record", "a", "b"]), Err("unexpected argument b".into()));
    }

    #[test]
    fn known_flags_and_their_operands_are_accepted() {
        assert_eq!(check(&[]), Ok(()));
        assert_eq!(check(&["--all", "--ablation"]), Ok(()));
        assert_eq!(check(&["--faults", "--journal", "j.ssjl", "--resume"]), Ok(()));
        assert_eq!(check(&["--record", "--csv", "figs", "--telemetry", "t.prom"]), Ok(()));
        for flag in super::WITH_OPERAND {
            assert_eq!(check(&[flag, "PATH"]), Ok(()), "{flag}");
        }
    }
}

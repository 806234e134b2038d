//! The committed deterministic record must match fresh output.
//!
//! `tables_output.txt` holds every cycle-exact section of the
//! evaluation (figures, claims, profile, fault campaigns, ablations,
//! metrics) and no wall-clock numbers, so it is reproducible on any
//! machine. This test regenerates it in-process and compares byte for
//! byte — the record can never silently go stale again.

#[test]
fn committed_record_matches_fresh_output() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tables_output.txt");
    let committed = std::fs::read_to_string(path).expect("tables_output.txt must be committed");
    let fresh = softsim_bench::tables::record_text();
    if committed != fresh {
        let mismatch = committed
            .lines()
            .zip(fresh.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("first diff at line {}: {a:?} vs fresh {b:?}", i + 1))
            .unwrap_or_else(|| {
                format!(
                    "line counts differ: committed {} vs fresh {}",
                    committed.lines().count(),
                    fresh.lines().count()
                )
            });
        panic!(
            "tables_output.txt is stale — regenerate with \
             `cargo run --release -p softsim-bench --bin tables -- --record`\n{mismatch}"
        );
    }
}

/// Every number in `BENCH_0006.json` is cycle-exact (no wall clock
/// anywhere), so it must match a fresh derivation byte for byte on any
/// machine.
#[test]
fn committed_hotspot_record_matches_fresh_output() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_0006.json");
    let committed = std::fs::read_to_string(path).expect("BENCH_0006.json must be committed");
    assert_eq!(
        committed,
        softsim_bench::hotspots::hotspots_json(),
        "BENCH_0006.json is stale — regenerate with \
         `cargo run --release -p softsim-bench --bin tables -- --hotspots`"
    );
}

/// `BENCH_0007.json` records the durable-campaign invariants
/// (interrupt-and-resume identity, worker invariance, trial isolation)
/// with cycle-exact numbers only, so it too must match a fresh
/// derivation byte for byte on any machine and at any
/// `SOFTSIM_SWEEP_WORKERS` value.
#[test]
fn committed_durable_record_matches_fresh_output() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_0007.json");
    let committed = std::fs::read_to_string(path).expect("BENCH_0007.json must be committed");
    assert_eq!(
        committed,
        softsim_bench::durable::durable_json(),
        "BENCH_0007.json is stale — regenerate with \
         `cargo run --release -p softsim-bench --bin tables -- --durable-json`"
    );
}

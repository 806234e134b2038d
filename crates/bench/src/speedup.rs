//! The `BENCH_0004` speedup record: stall fast-forwarding and the
//! parallel sweep engine against the plain serial baseline.
//!
//! Three runs of the same 120-trial CORDIC fault campaign — serial with
//! fast-forwarding off, serial with fast-forwarding on, and the
//! parallel runner (fast-forwarding on) — are timed wall-clock and
//! asserted to produce byte-identical reports, so every speedup in the
//! JSON is backed by an equivalence check, not just a stopwatch. The
//! same triple is timed on the FSL-stall-heavy stuck-flag campaign
//! (every trial deadlocks, the case fast-forwarding exists for), and a
//! final section times the Figure 5 DSE sweep serial vs parallel. The
//! numbers are machine-dependent (like `BENCH_0003.json`); the report
//! equality is not.

use crate::faults::{
    cordic_campaign, cordic_stuck_campaign, default_workers, REPORT_SEED, REPORT_TRIALS,
};
use crate::tables::{figure5_with, json_f64};
use softsim_resilience::{CampaignConfig, Exec};
use std::time::Instant;

/// Wall-clock seconds `f` takes, with its result.
fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let r = f();
    (start.elapsed().as_secs_f64(), r)
}

/// The machine-readable `BENCH_0004` record as a JSON string.
///
/// # Panics
/// Panics if the three campaign runs or the two sweep runs disagree on
/// any result — wall-clock without equivalence is meaningless here.
pub fn speedup_json() -> String {
    let workers = default_workers();
    let stepped = CampaignConfig { fast_forward: false, ..CampaignConfig::default() };
    let ff = CampaignConfig::default();
    let (serial, parallel) = (Exec::default(), Exec { workers, ..Exec::default() });
    let campaign = |config, exec| cordic_campaign(REPORT_SEED, REPORT_TRIALS, config, exec);
    let (serial_s, serial_report) = timed(|| campaign(stepped, serial));
    let (ff_s, ff_report) = timed(|| campaign(ff, serial));
    let (par_s, par_report) = timed(|| campaign(ff, parallel));
    assert_eq!(serial_report, ff_report, "fast-forwarding must not change the campaign report");
    assert_eq!(
        serial_report, par_report,
        "the parallel runner must not change the campaign report"
    );

    let (stuck_serial_s, stuck_serial) =
        timed(|| cordic_stuck_campaign(REPORT_TRIALS, stepped, serial));
    let (stuck_ff_s, stuck_ff) = timed(|| cordic_stuck_campaign(REPORT_TRIALS, ff, serial));
    let (stuck_par_s, stuck_par) = timed(|| cordic_stuck_campaign(REPORT_TRIALS, ff, parallel));
    assert_eq!(stuck_serial, stuck_ff, "fast-forwarding must not change the stuck-fault report");
    assert_eq!(
        stuck_serial, stuck_par,
        "the parallel runner must not change the stuck-fault report"
    );

    let (sweep_serial_s, sweep_serial) = timed(|| figure5_with(1));
    let (sweep_par_s, sweep_par) = timed(|| figure5_with(workers));
    let sweep_cycles: Vec<u64> = sweep_serial.iter().map(|q| q.cycles).collect();
    assert_eq!(
        sweep_cycles,
        sweep_par.iter().map(|q| q.cycles).collect::<Vec<u64>>(),
        "the parallel sweep must reproduce the serial cycle counts"
    );

    let ratio = |base: f64, opt: f64| json_f64(base / opt.max(1e-12));
    format!(
        "{{\"schema\":\"softsim-bench/1\",\"bench_id\":\"BENCH_0004\",\
         \"description\":\"stall fast-forwarding + parallel sweep engine wall-clock vs the serial stepped baseline\",\
         \"workers\":{workers},\
         \"campaign\":{{\"workload\":\"cordic fault campaign\",\"trials\":{REPORT_TRIALS},\
         \"serial\":{{\"wall_seconds\":{}}},\
         \"fast_forward\":{{\"wall_seconds\":{}}},\
         \"parallel\":{{\"wall_seconds\":{}}},\
         \"speedup_fast_forward\":{},\"speedup_parallel\":{},\
         \"reports_identical\":true}},\
         \"stall_campaign\":{{\"workload\":\"cordic stuck-flag campaign (every trial deadlocks)\",\"trials\":{REPORT_TRIALS},\
         \"serial\":{{\"wall_seconds\":{}}},\
         \"fast_forward\":{{\"wall_seconds\":{}}},\
         \"parallel\":{{\"wall_seconds\":{}}},\
         \"speedup_fast_forward\":{},\"speedup_parallel\":{},\
         \"reports_identical\":true}},\
         \"sweep\":{{\"workload\":\"figure5 cordic DSE grid\",\"points\":{},\
         \"serial\":{{\"wall_seconds\":{}}},\
         \"parallel\":{{\"wall_seconds\":{}}},\
         \"speedup\":{},\"points_identical\":true}}}}\n",
        json_f64(serial_s),
        json_f64(ff_s),
        json_f64(par_s),
        ratio(serial_s, ff_s),
        ratio(serial_s, par_s),
        json_f64(stuck_serial_s),
        json_f64(stuck_ff_s),
        json_f64(stuck_par_s),
        ratio(stuck_serial_s, stuck_ff_s),
        ratio(stuck_serial_s, stuck_par_s),
        sweep_cycles.len(),
        json_f64(sweep_serial_s),
        json_f64(sweep_par_s),
        ratio(sweep_serial_s, sweep_par_s),
    )
}

/// Writes [`speedup_json`] to `path`.
pub fn write_speedup_json(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, speedup_json())
}

#[cfg(test)]
mod tests {
    use softsim_trace::json::parse;

    #[test]
    fn speedup_json_is_well_formed_with_required_keys() {
        let doc = parse(&super::speedup_json()).expect("valid json");
        assert_eq!(doc.get("schema").unwrap().as_str().unwrap(), "softsim-bench/1");
        assert_eq!(doc.get("bench_id").unwrap().as_str().unwrap(), "BENCH_0004");
        for section in ["campaign", "stall_campaign"] {
            let campaign = doc.get(section).unwrap();
            for key in ["serial", "fast_forward", "parallel"] {
                let wall = campaign.get(key).unwrap().get("wall_seconds").unwrap();
                assert!(wall.as_f64().unwrap() >= 0.0);
            }
            assert!(campaign.get("speedup_fast_forward").unwrap().as_f64().unwrap() > 0.0);
            assert!(campaign.get("speedup_parallel").unwrap().as_f64().unwrap() > 0.0);
        }
        let sweep = doc.get("sweep").unwrap();
        assert!(sweep.get("points").unwrap().as_f64().unwrap() > 0.0);
        assert!(sweep.get("speedup").unwrap().as_f64().unwrap() > 0.0);
    }
}

//! The traced run: per-layer host time from spans around the calls
//! into each layer, component-alone replays, and the exact simulated
//! counts (on the diagnostics line; they are checks, not metrics).
//!
//! The workload's own ops run first, every other pair (or group of
//! four requests) traced, which gives the tracing overhead against the
//! untraced neighbours. Then a fixed layer suite times, on every
//! workload, the calls the per-layer table of README.md names.

use crate::cordic::{self, Design, Kind};
use crate::counts::{self, Count};
use crate::serve::{self, Client, Seeds, Service, JOB, PAIR_SEED, TRIALS};
use crate::spans::Tracer;
use crate::stats::{differential, median};
use crate::{Metric, Outcome};
use softsim_apps::cordic::hardware::cordic_graph;
use softsim_blocks::{Fix, FixFmt};
use softsim_bus::FslBank;
use softsim_cosim::CoSimStop;
use softsim_iss::{Cpu, StopReason};
use softsim_resilience::{from_bytes, run_campaign, run_campaign_durable, to_bytes};
use softsim_serve::catalog;
use softsim_serve::protocol::{handle_line, parse_spec};
use softsim_trace::json::parse;
use softsim_trace::{shared, FifoDir, TraceEvent, TraceSink};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// Samples per component measurement in the suite.
const SAMPLES: usize = 7;
/// Campaign pairs (plain, journaled) in the resilience probe.
const CAMPAIGN_PAIRS: usize = 3;
/// Snapshot round trips in the resilience probe.
const SNAPSHOTS: usize = 31;
/// Request-line parses in the serve probe.
const PARSES: usize = 201;
/// Request numbers the in-process and the TCP serve probes use: six
/// fresh seeds and two repeats each.
const HANDLE_REQUESTS: std::ops::Range<u64> = 0..8;
const NET_REQUESTS: std::ops::Range<u64> = 8..16;

struct Acc {
    metrics: Vec<Metric>,
    counts: Vec<Count>,
    attempted: u64,
    failed: u64,
}

impl Acc {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += !ok as u64;
    }

    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }
}

fn med(st: &BTreeMap<&'static str, Vec<f64>>, name: &str) -> f64 {
    st.get(name).map_or(f64::NAN, |v| median(v))
}

fn pct(traced: f64, untraced: f64) -> f64 {
    100.0 * (traced / untraced - 1.0)
}

/// `workload` with tracing on.
pub fn traced(workload: &str, seed: u64, seconds: f64, dir: &Path) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut own = Tracer::new(epoch);
    let hw = Design::new(Kind::Hw, seed)?;
    let sw = Design::new(Kind::Sw, seed)?;
    let seeds = Seeds::new(seed);
    let mut acc = Acc { metrics: Vec::new(), counts: Vec::new(), attempted: 0, failed: 0 };

    // The workload's own ops.
    let (design_counts, overhead, hit_ratio) = match workload {
        "cordic_hw" | "cordic_sw" => {
            let d = if workload == "cordic_hw" { &hw } else { &sw };
            let mut r = cordic::LoopResult::default();
            cordic::measure(d, seconds, &mut own, &mut r);
            acc.attempted += r.attempted;
            acc.failed += r.failed;
            let st = own.self_times();
            acc.push("core.build_us", med(&st, "core.build") / 1e3, "us");
            acc.push("core.run_ns_per_cycle", med(&st, "core.run") / d.cycles() as f64, "ns");
            acc.push("rtl.ns_per_cycle", med(&st, "rtl.run") / d.rtl_cycles() as f64, "ns");
            let overhead = pct(median(&r.traced_cosim_ns), median(&r.cosim_ns));
            (counts::design(workload, &d.reference.cpu, &d.reference.hw), overhead, None)
        }
        "serve_campaign" => {
            let mut svc = Service::start(&dir.join("spool").join("drive"))?;
            let (d, tracers) = serve::with_listener(&mut svc, |svc| {
                serve::drive(svc, &seeds, seconds, Some(epoch))
            })?;
            acc.failed += svc.verify_kept();
            for t in tracers {
                own.absorb(t);
            }
            acc.attempted += d.attempted;
            acc.failed += d.failed;
            // The calls into core and rtl a served job's golden run makes.
            let mut golden = catalog::build_sim(JOB, false);
            acc.check(golden.run(u64::MAX / 2) == CoSimStop::Halted);
            let (cpu, hw_stats) = (golden.cpu_stats(), golden.hw_stats());
            for op in 0..SAMPLES as u64 {
                own.begin("cosim.op", op);
                let mut sim = own.span("core.build", op, || catalog::build_sim(JOB, false));
                let stop = own.span("core.run", op, || sim.run(u64::MAX / 2));
                own.end();
                acc.check(
                    stop == CoSimStop::Halted
                        && sim.cpu_stats() == cpu
                        && sim.hw_stats() == hw_stats,
                );
                acc.check(svc.rtl.run(&mut own, op).1);
            }
            let st = own.self_times();
            acc.push("core.build_us", med(&st, "core.build") / 1e3, "us");
            acc.push("core.run_ns_per_cycle", med(&st, "core.run") / cpu.cycles as f64, "ns");
            acc.push("rtl.ns_per_cycle", med(&st, "rtl.run") / svc.rtl.cycles() as f64, "ns");
            let overhead = pct(median(&d.traced_miss_ms), median(&d.miss_ms));
            let design = counts::design("serve_job", &cpu, &hw_stats);
            (design, overhead, Some(d.hits as f64 / d.ok.max(1) as f64))
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    acc.push("trace.overhead_pct", overhead, "%");
    acc.counts.extend(design_counts);

    // The layer suite, on every workload.
    let mut suite = Tracer::new(epoch);
    blocks(&mut acc, &mut suite, &hw)?;
    iss(&mut acc, &mut suite, &sw);
    resilience(&mut acc, &mut suite, dir)?;
    let probe_hit_ratio = serve_probe(&mut acc, &mut suite, &seeds, dir)?;

    own.absorb(suite);
    own.write_jsonl(&dir.join("spans.jsonl")).map_err(|e| format!("write spans: {e}"))?;
    acc.metrics.sort_by_key(|m| m.0);
    Ok(Outcome {
        attempted: acc.attempted,
        failed: acc.failed,
        metrics: acc.metrics,
        diagnostics: vec![
            ("spans".into(), format!("\"{}\"", dir.join("spans.jsonl").display())),
            ("counts".into(), counts::json(&acc.counts)),
            ("serve.cache_hit_ratio".into(), format!("{}", hit_ratio.unwrap_or(probe_hit_ratio))),
        ],
    })
}

/// Gateway traffic of one co-simulation run: every word the peripheral
/// consumed (cycle, data, control) and every word it produced.
#[derive(Default)]
struct Stream {
    to_hw: Vec<(u64, u32, bool)>,
    from_hw: Vec<(u64, u32)>,
}

impl TraceSink for Stream {
    fn event(&mut self, e: &TraceEvent) {
        match *e {
            TraceEvent::FifoPop { cycle, dir: FifoDir::ToHw, data, control, .. } => {
                self.to_hw.push((cycle, data, control))
            }
            TraceEvent::GatewayWord { cycle, to_hw: false, data, .. } => {
                self.from_hw.push((cycle, data))
            }
            _ => {}
        }
    }
}

/// `blocks.step_ns_per_cycle`: the CORDIC P=4 graph alone, replaying
/// the recorded gateway stream of one `cordic_hw` run through handles
/// resolved once, and `blocks.share` / `core.gateway_iss_ns_per_cycle`
/// against `cordic_hw` co-simulation runs timed alongside.
fn blocks(acc: &mut Acc, t: &mut Tracer, hw: &Design) -> Result<(), String> {
    let stream = Rc::new(RefCell::new(Stream::default()));
    let mut sim = hw.build();
    sim.attach_trace(shared(stream.clone()));
    let stop = sim.run(u64::MAX / 2);
    acc.check(hw.check(&sim, stop));
    drop(sim);
    let stream = stream.take();
    let cycles = hw.cycles();
    for op in 0..SAMPLES as u64 {
        let mut g = cordic_graph(cordic::P);
        let handle = |name: &str| g.input_handle(name).map_err(|e| format!("{name}: {e:?}"));
        let (data, valid, ctrl) =
            (handle("fsl0_data")?, handle("fsl0_valid")?, handle("fsl0_ctrl")?);
        let out_data = g.output_handle("fsl0_out_data").map_err(|e| format!("{e:?}"))?;
        let out_valid = g.output_handle("fsl0_out_valid").map_err(|e| format!("{e:?}"))?;
        let mut produced = Vec::with_capacity(stream.from_hw.len());
        let mut next = stream.to_hw.iter().peekable();
        t.begin("blocks.replay", op);
        for cycle in 0..cycles {
            let (d, v, c) = match next.next_if(|w| w.0 == cycle) {
                Some(&(_, d, c)) => (d, true, c),
                None => (0, false, false),
            };
            g.set_input_fast(data, Fix::from_bits(d as u64, FixFmt::INT32));
            g.set_input_fast(valid, Fix::from_int(v as i64, FixFmt::BOOL));
            g.set_input_fast(ctrl, Fix::from_int(c as i64, FixFmt::BOOL));
            g.step();
            if !g.output_fast(out_valid).is_zero() {
                produced.push((cycle, g.output_fast(out_data).to_bits() as u32));
            }
        }
        t.end();
        acc.check(produced == stream.from_hw && next.next().is_none());
        acc.check(hw.cosim_op(t, op).ok);
    }
    let st = t.self_times();
    let blocks = med(&st, "blocks.replay") / cycles as f64;
    let composed = med(&st, "core.run") / cycles as f64;
    acc.push("blocks.step_ns_per_cycle", blocks, "ns");
    acc.push("blocks.share", blocks / composed, "ratio");
    acc.push("core.gateway_iss_ns_per_cycle", composed - blocks, "ns");
    Ok(())
}

/// `iss.interp_ns_per_cycle` / `iss.translated_ns_per_cycle`: the ISS
/// alone on the software image, alternating the two modes.
fn iss(acc: &mut Acc, t: &mut Tracer, sw: &Design) {
    let want = sw.reference.cpu;
    for op in 0..SAMPLES as u64 {
        for (name, translate) in [("iss.interp", false), ("iss.translated", true)] {
            let mut cpu = Cpu::with_default_memory(sw.image());
            cpu.set_translation(translate);
            let mut fsl = FslBank::default();
            let stop = t.span(name, op, || cpu.run(&mut fsl, u64::MAX / 2));
            acc.check(stop == StopReason::Halted && cpu.stats() == want);
        }
    }
    let st = t.self_times();
    acc.push("iss.interp_ns_per_cycle", med(&st, "iss.interp") / want.cycles as f64, "ns");
    acc.push("iss.translated_ns_per_cycle", med(&st, "iss.translated") / want.cycles as f64, "ns");
}

/// Campaign, journal and snapshot costs on the fixed plan of
/// `PAIR_SEED`, whose outcome counts and journal size are committed in
/// `expected_counts.txt`.
fn resilience(acc: &mut Acc, t: &mut Tracer, dir: &Path) -> Result<(), String> {
    let plan = serve::plan(PAIR_SEED);
    let (base, n) = catalog::observe_window(JOB);
    let observe = |s: &softsim_cosim::CoSim| catalog::observe_words(s, base, n);
    let journal = dir.join("spool").join("probe.ssjl");
    std::fs::create_dir_all(dir.join("spool")).map_err(|e| e.to_string())?;
    let (mut plain, mut durable) = (Vec::new(), Vec::new());
    let mut report = None;
    for op in 0..CAMPAIGN_PAIRS as u64 {
        let mut sim = catalog::build_sim(JOB, false);
        t.begin("resilience.campaign", op);
        let r = run_campaign(&mut sim, &plan, observe, serve::campaign_config());
        plain.push(t.end() as f64);
        t.begin("resilience.campaign_durable", op);
        let make = || catalog::build_sim(JOB, false);
        let rd =
            run_campaign_durable(make, &plan, observe, serve::campaign_config(), &journal, false);
        durable.push(t.end() as f64);
        acc.check(rd.as_ref().ok() == Some(&r) && report.as_ref().is_none_or(|p| *p == r));
        report = Some(r);
    }
    let report = report.expect("at least one campaign");
    let trials = TRIALS as f64;
    let journal_bytes = std::fs::metadata(&journal).map_err(|e| e.to_string())?.len();
    acc.push("resilience.trial_ms", median(&plain) / 1e6 / trials, "ms");
    acc.push(
        "resilience.journal_ms_per_trial",
        differential(&durable, &plain) / 1e6 / trials,
        "ms",
    );
    let mut fixed = counts::outcomes("pair_plan", &report);
    fixed.push(("pair_plan.resilience.journal_bytes".into(), journal_bytes));
    acc.check(counts::confirm(&fixed));
    acc.counts.extend(fixed);

    // Snapshot round trip of a mid-run co-simulator.
    let mut sim = catalog::build_sim(JOB, false);
    sim.run(report.golden_cycles / 2);
    let mut snap = Vec::with_capacity(SNAPSHOTS);
    for op in 0..SNAPSHOTS as u64 {
        t.begin("resilience.snapshot", op);
        let state = sim.save_state();
        let back = from_bytes(&to_bytes(&state));
        if let Ok(s) = &back {
            sim.load_state(s);
        }
        snap.push(t.end() as f64);
        acc.check(back.as_ref() == Ok(&state));
    }
    acc.push("resilience.snapshot_us", median(&snap) / 1e3, "us");
    Ok(())
}

/// Request parsing, in-process handling and the TCP round trip, on a
/// server of its own. Returns the probe's cache-hit ratio.
fn serve_probe(acc: &mut Acc, t: &mut Tracer, seeds: &Seeds, dir: &Path) -> Result<f64, String> {
    let mut svc = Service::start(&dir.join("spool").join("probe"))?;
    let line = serve::request_line(seeds.fresh(0));
    for op in 0..PARSES as u64 {
        let spec = t.span("serve.parse", op, || parse(line.trim()).map(|v| parse_spec(&v)));
        acc.check(matches!(spec, Ok(Ok(s)) if s.seed == seeds.fresh(0)));
    }
    let mut handle = Vec::new();
    for k in HANDLE_REQUESTS {
        t.begin("serve.handle", k);
        let (response, _) =
            handle_line(&svc.server, serve::request_line(seeds.of_request(k)).trim());
        let ns = t.end() as f64;
        let hit = svc.check(seeds, k, &response);
        if hit == Some(false) {
            handle.push(ns);
        }
        acc.check(hit.is_some());
    }
    let (fresh, repeat, hits) = serve::with_listener(&mut svc, |svc| {
        let (mut fresh, mut repeat, mut hits) = (Vec::new(), Vec::new(), 0u32);
        let mut client = Client::connect(svc.addr()).ok();
        for k in NET_REQUESTS {
            let Some(c) = client.as_mut() else {
                acc.check(false);
                continue;
            };
            t.begin("serve.round_trip", k);
            let response = c.round_trip(&serve::request_line(seeds.of_request(k)));
            let ns = t.end() as f64;
            let hit = response.ok().and_then(|(r, _)| svc.check(seeds, k, &r));
            acc.check(hit.is_some());
            match hit {
                Some(true) => {
                    hits += 1;
                    repeat.push(ns);
                }
                Some(false) => fresh.push(ns),
                None => {}
            }
        }
        (fresh, repeat, hits)
    })?;
    acc.failed += svc.verify_kept();
    let handle_ms = median(&handle) / 1e6;
    let st = t.self_times();
    acc.push("serve.parse_us", med(&st, "serve.parse") / 1e3, "us");
    acc.push("serve.handle_ms", handle_ms, "ms");
    acc.push("serve.net_ms", median(&fresh) / 1e6 - handle_ms, "ms");
    acc.push("serve.cache_hit_ms", median(&repeat) / 1e6, "ms");
    Ok(hits as f64 / NET_REQUESTS.count() as f64)
}

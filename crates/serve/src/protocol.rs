//! The line-oriented JSON wire protocol.
//!
//! One request per line, one JSON response per line. A request line
//! may be at most [`crate::net::MAX_LINE`] bytes, its `\n` included: a
//! longer one is answered `request too large` and its connection
//! closed. Arrays and objects may nest at most
//! [`softsim_trace::json::MAX_DEPTH`] deep: a deeper request is a
//! `bad request`. Ops:
//!
//! * `{"op":"run", ...spec}` — submit and block for the result.
//! * `{"op":"submit", ...spec}` — submit, return `{"id":N}`.
//! * `{"op":"wait","id":N}` — block for job `N`'s result and hand it
//!   over: the server forgets the job once it answers.
//! * `{"op":"status","id":N}` — non-blocking job status.
//! * `{"op":"health"}` — readiness + queue gauges.
//! * `{"op":"metrics"}` — Prometheus exposition (JSON-escaped).
//! * `{"op":"shutdown"}` — drain, shed, stop.
//!
//! `status` and `wait` of a job whose result was already delivered —
//! by a `wait`, or by the `run` that submitted it — answer
//! `unknown job N`, as for an id never issued. So do `status` and
//! `wait` of a job a `run` is still blocked on: its result is that
//! `run`'s alone.
//!
//! Spec fields (all optional, with [`crate::JobSpec::default`]'s
//! values): `kind`, `workload`, `iterations`, `p`, `n`, `nb`, `seed`,
//! `trials`, `priority`, `cycle_budget`, `wall_budget_ms`,
//! `deadline_ms`, `durable`, `cache` (`"use"` or `"bypass"`).
//!
//! Responses are deterministic functions of deterministic state: a
//! `run` response for a given spec byte-diffs clean across runs,
//! restarts and worker counts — CI's resume check relies on it.

use crate::catalog::{JobKind, JobSpec, Priority, Workload};
use crate::server::{Health, JobResult, JobStatus, Server};
use softsim_trace::json::{parse, Value};
use std::time::Duration;

/// Escapes `s` for inclusion in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn field_u64(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(|x| x.as_f64()).map(|f| f as u64)
}

fn field_bool(v: &Value, key: &str) -> Option<bool> {
    match v.get(key) {
        Some(Value::Bool(b)) => Some(*b),
        _ => None,
    }
}

/// Parses a job spec out of a request object, starting from defaults.
pub fn parse_spec(v: &Value) -> Result<JobSpec, String> {
    let mut spec = JobSpec::default();
    if let Some(kind) = v.get("kind").and_then(|x| x.as_str()) {
        spec.kind = JobKind::parse(kind).ok_or_else(|| format!("unknown kind {kind:?}"))?;
    }
    let workload = v.get("workload").and_then(|x| x.as_str()).unwrap_or("cordic");
    spec.workload = match workload {
        "cordic" => Workload::Cordic {
            iterations: field_u64(v, "iterations").unwrap_or(8) as u32,
            p: field_u64(v, "p").unwrap_or(2) as usize,
        },
        "matmul" => Workload::Matmul {
            n: field_u64(v, "n").unwrap_or(4) as usize,
            nb: field_u64(v, "nb").unwrap_or(2) as usize,
        },
        "crash_test" => Workload::CrashTest,
        other => return Err(format!("unknown workload {other:?}")),
    };
    if let Some(seed) = field_u64(v, "seed") {
        spec.seed = seed;
    }
    if let Some(trials) = field_u64(v, "trials") {
        spec.trials = trials as u32;
    }
    if let Some(p) = v.get("priority").and_then(|x| x.as_str()) {
        spec.priority = Priority::parse(p).ok_or_else(|| format!("unknown priority {p:?}"))?;
    }
    spec.trial_cycle_budget = field_u64(v, "cycle_budget");
    spec.trial_wall_budget_ms = field_u64(v, "wall_budget_ms");
    spec.deadline_ms = field_u64(v, "deadline_ms");
    if let Some(durable) = field_bool(v, "durable") {
        spec.durable = durable;
    }
    if let Some(cache) = v.get("cache").and_then(|x| x.as_str()) {
        spec.use_cache = match cache {
            "use" => true,
            "bypass" => false,
            other => return Err(format!("cache must be \"use\" or \"bypass\", got {other:?}")),
        };
    }
    Ok(spec)
}

/// Renders a terminal job result.
pub fn render_result(r: &JobResult) -> String {
    let mut out = format!(
        "{{\"id\":{},\"state\":\"{}\",\"cache\":\"{}\",\"degraded\":{},\"durable\":{},\
         \"retries\":{},\"executed_trials\":{},\"resumed_trials\":{}",
        r.id,
        r.state.label(),
        r.cache.label(),
        r.degraded,
        r.durable,
        r.retries,
        r.executed_trials,
        r.resumed_trials,
    );
    if let Some(shed) = &r.shed {
        out.push_str(&format!(",\"shed\":\"{}\"", escape_json(&shed.to_string())));
    }
    if let Some(w) = &r.warning {
        out.push_str(&format!(",\"warning\":\"{}\"", escape_json(w)));
    }
    if let Some(e) = &r.error {
        out.push_str(&format!(",\"error\":\"{}\"", escape_json(e)));
    }
    out.push_str(&format!(",\"report\":\"{}\"}}", escape_json(&r.report)));
    out
}

fn render_health(h: &Health) -> String {
    format!(
        "{{\"ready\":{},\"queue_depth\":{},\"queue_capacity\":{},\"running\":{},\"workers\":{}}}",
        h.ready, h.queue_depth, h.queue_capacity, h.running, h.workers,
    )
}

/// A `{"error":…}` response line.
pub(crate) fn error_line(msg: &str) -> String {
    format!("{{\"error\":\"{}\"}}", escape_json(msg))
}

/// Whether [`handle_line`]'s response means the connection (and for
/// `shutdown`, the server) should close.
pub enum Disposition {
    /// Keep serving this connection.
    Continue,
    /// The client asked the server to shut down.
    Shutdown,
}

/// Handles one request line against `server`, returning the response
/// line (no trailing newline) and what to do next.
pub fn handle_line(server: &Server, line: &str) -> (String, Disposition) {
    let v = match parse(line) {
        Ok(v) => v,
        Err(e) => return (error_line(&format!("bad request: {e}")), Disposition::Continue),
    };
    let op = v.get("op").and_then(|x| x.as_str()).unwrap_or("run");
    match op {
        "run" => match parse_spec(&v) {
            Err(e) => (error_line(&e), Disposition::Continue),
            Ok(spec) => match server.run(spec) {
                Ok(result) => (render_result(&result), Disposition::Continue),
                Err(shed) => (
                    format!("{{\"shed\":\"{}\"}}", escape_json(&shed.reason.to_string())),
                    Disposition::Continue,
                ),
            },
        },
        "submit" => match parse_spec(&v) {
            Err(e) => (error_line(&e), Disposition::Continue),
            Ok(spec) => match server.submit(spec) {
                Ok(id) => (format!("{{\"id\":{id}}}"), Disposition::Continue),
                Err(shed) => (
                    format!("{{\"shed\":\"{}\"}}", escape_json(&shed.reason.to_string())),
                    Disposition::Continue,
                ),
            },
        },
        "wait" => match field_u64(&v, "id") {
            None => (error_line("wait needs an id"), Disposition::Continue),
            Some(id) => match server.wait(id, Duration::from_secs(600)) {
                Some(result) => (render_result(&result), Disposition::Continue),
                None => (error_line(&format!("unknown job {id}")), Disposition::Continue),
            },
        },
        "status" => match field_u64(&v, "id") {
            None => (error_line("status needs an id"), Disposition::Continue),
            Some(id) => {
                let line = match server.status(id) {
                    None => error_line(&format!("unknown job {id}")),
                    Some(JobStatus::Queued) => format!("{{\"id\":{id},\"status\":\"queued\"}}"),
                    Some(JobStatus::Running) => format!("{{\"id\":{id},\"status\":\"running\"}}"),
                    Some(JobStatus::Finished(r)) => render_result(&r),
                };
                (line, Disposition::Continue)
            }
        },
        "health" => (render_health(&server.health()), Disposition::Continue),
        "metrics" => (
            format!("{{\"metrics\":\"{}\"}}", escape_json(&server.metrics())),
            Disposition::Continue,
        ),
        "shutdown" => {
            server.shutdown();
            ("{\"ok\":\"shutting down\"}".to_string(), Disposition::Shutdown)
        }
        other => (error_line(&format!("unknown op {other:?}")), Disposition::Continue),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing_applies_defaults_and_overrides() {
        let v = parse("{\"op\":\"run\"}").unwrap();
        let spec = parse_spec(&v).unwrap();
        assert_eq!(spec, JobSpec::default());

        let v = parse(
            "{\"op\":\"run\",\"kind\":\"recovery\",\"workload\":\"matmul\",\"n\":8,\"nb\":4,\
             \"seed\":7,\"trials\":5,\"priority\":\"high\",\"durable\":false,\
             \"cache\":\"bypass\",\"deadline_ms\":250}",
        )
        .unwrap();
        let spec = parse_spec(&v).unwrap();
        assert_eq!(spec.kind, JobKind::Recovery);
        assert_eq!(spec.workload, Workload::Matmul { n: 8, nb: 4 });
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.trials, 5);
        assert_eq!(spec.priority, Priority::High);
        assert!(!spec.durable);
        assert!(!spec.use_cache);
        assert_eq!(spec.deadline_ms, Some(250));
    }

    #[test]
    fn spec_parsing_rejects_unknowns_with_messages() {
        for (req, needle) in [
            ("{\"kind\":\"frobnicate\"}", "unknown kind"),
            ("{\"workload\":\"quux\"}", "unknown workload"),
            ("{\"priority\":\"urgent\"}", "unknown priority"),
            ("{\"cache\":\"maybe\"}", "cache must be"),
        ] {
            let v = parse(req).unwrap();
            let err = parse_spec(&v).expect_err(req);
            assert!(err.contains(needle), "{req} -> {err}");
        }
    }

    #[test]
    fn escaping_round_trips_through_the_house_parser() {
        let nasty = "line\nbreak \"quote\" back\\slash\ttab";
        let line = format!("{{\"s\":\"{}\"}}", escape_json(nasty));
        let v = parse(&line).expect("escaped string parses");
        assert_eq!(v.get("s").and_then(|x| x.as_str()), Some(nasty));
    }
}

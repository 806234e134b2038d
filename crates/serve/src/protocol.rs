//! The line-oriented JSON wire protocol.
//!
//! One request per line, one JSON response per line. A request line
//! may be at most [`crate::net::MAX_LINE`] bytes, its `\n` included: a
//! longer one is answered `request too large` and its connection
//! closed. Arrays and objects may nest at most
//! [`softsim_trace::json::MAX_DEPTH`] deep: a deeper request is a
//! `bad request`, and so is one that is not a JSON object. Ops:
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
//! Each is typed: a number field must hold a whole number in range, a
//! name field a string, `durable` a boolean. A field present with
//! anything else is an error, never its default. A spec that parses but
//! that the service will not run ([`crate::JobSpec::validate`]: an
//! invalid workload, more than [`crate::catalog::MAX_TRIALS`] trials)
//! comes back as a quarantined job.
//!
//! Responses are deterministic functions of deterministic state: a
//! `run` response for a given spec byte-diffs clean across runs,
//! restarts and worker counts — CI's resume check relies on it.

use crate::catalog::{JobKind, JobSpec, Priority, Workload};
use crate::server::{Health, JobResult, JobStatus, Server, ShedReason};
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

/// 2^64, the first whole number a `u64` cannot hold.
const TWO_TO_64: f64 = 18_446_744_073_709_551_616.0;

/// A whole-number field of at most `max`: `None` when absent, an error
/// when present as anything else (another JSON type, a fraction, a
/// negative or larger number).
fn field_u64(v: &Value, key: &str, max: u64) -> Result<Option<u64>, String> {
    let Some(x) = v.get(key) else { return Ok(None) };
    match x.as_f64() {
        // `max as f64` can round up (`u64::MAX` to 2^64), so the range
        // is checked on the integer, once `f` is known to fit one.
        Some(f) if f >= 0.0 && f.fract() == 0.0 && f < TWO_TO_64 && f as u64 <= max => {
            Ok(Some(f as u64))
        }
        _ => Err(format!("{key} must be a whole number in 0..={max}")),
    }
}

fn field_bool(v: &Value, key: &str) -> Result<Option<bool>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(Value::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(format!("{key} must be true or false")),
    }
}

fn field_str<'a>(v: &'a Value, key: &str) -> Result<Option<&'a str>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => x.as_str().map(Some).ok_or_else(|| format!("{key} must be a string")),
    }
}

/// Parses a job spec out of a request object, starting from defaults.
/// A spec field of the wrong type or out of range is an error, never a
/// default; other fields are ignored.
pub fn parse_spec(v: &Value) -> Result<JobSpec, String> {
    const U32: u64 = u32::MAX as u64;
    let mut spec = JobSpec::default();
    if let Some(kind) = field_str(v, "kind")? {
        spec.kind = JobKind::parse(kind).ok_or_else(|| format!("unknown kind {kind:?}"))?;
    }
    // Every dimension is checked, also those the workload ignores.
    let dim = |key, default| Ok::<_, String>(field_u64(v, key, U32)?.unwrap_or(default));
    let (iterations, p, n, nb) = (dim("iterations", 8)?, dim("p", 2)?, dim("n", 4)?, dim("nb", 2)?);
    spec.workload = match field_str(v, "workload")?.unwrap_or("cordic") {
        "cordic" => Workload::Cordic { iterations: iterations as u32, p: p as usize },
        "matmul" => Workload::Matmul { n: n as usize, nb: nb as usize },
        "crash_test" => Workload::CrashTest,
        other => return Err(format!("unknown workload {other:?}")),
    };
    if let Some(seed) = field_u64(v, "seed", u64::MAX)? {
        spec.seed = seed;
    }
    if let Some(trials) = field_u64(v, "trials", U32)? {
        spec.trials = trials as u32;
    }
    if let Some(p) = field_str(v, "priority")? {
        spec.priority = Priority::parse(p).ok_or_else(|| format!("unknown priority {p:?}"))?;
    }
    spec.trial_cycle_budget = field_u64(v, "cycle_budget", u64::MAX)?;
    spec.trial_wall_budget_ms = field_u64(v, "wall_budget_ms", u64::MAX)?;
    spec.deadline_ms = field_u64(v, "deadline_ms", u64::MAX)?;
    if let Some(durable) = field_bool(v, "durable")? {
        spec.durable = durable;
    }
    if let Some(cache) = field_str(v, "cache")? {
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

/// A `{"shed":…}` response line.
pub(crate) fn shed_line(reason: &ShedReason) -> String {
    format!("{{\"shed\":\"{}\"}}", escape_json(&reason.to_string()))
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
        Ok(v @ Value::Object(_)) => v,
        Ok(_) => return (error_line("bad request: not a JSON object"), Disposition::Continue),
        Err(e) => return (error_line(&format!("bad request: {e}")), Disposition::Continue),
    };
    let response = match field_str(&v, "op") {
        Err(e) => error_line(&e),
        Ok(op) => match op.unwrap_or("run") {
            "shutdown" => {
                server.shutdown();
                return ("{\"ok\":\"shutting down\"}".to_string(), Disposition::Shutdown);
            }
            op => handle_op(server, op, &v).unwrap_or_else(|e| error_line(&e)),
        },
    };
    (response, Disposition::Continue)
}

/// The response to every op but `shutdown`, or the error message of a
/// malformed request.
fn handle_op(server: &Server, op: &str, v: &Value) -> Result<String, String> {
    let id = || field_u64(v, "id", u64::MAX)?.ok_or_else(|| format!("{op} needs an id"));
    Ok(match op {
        "run" => match server.run(parse_spec(v)?) {
            Ok(result) => render_result(&result),
            Err(shed) => shed_line(&shed.reason),
        },
        "submit" => match server.submit(parse_spec(v)?) {
            Ok(id) => format!("{{\"id\":{id}}}"),
            Err(shed) => shed_line(&shed.reason),
        },
        "wait" => {
            let id = id()?;
            match server.wait(id, Duration::from_secs(600)) {
                Some(result) => render_result(&result),
                None => error_line(&format!("unknown job {id}")),
            }
        }
        "status" => {
            let id = id()?;
            match server.status(id) {
                None => error_line(&format!("unknown job {id}")),
                Some(JobStatus::Queued) => format!("{{\"id\":{id},\"status\":\"queued\"}}"),
                Some(JobStatus::Running) => format!("{{\"id\":{id},\"status\":\"running\"}}"),
                Some(JobStatus::Finished(r)) => render_result(&r),
            }
        }
        "health" => render_health(&server.health()),
        "metrics" => format!("{{\"metrics\":\"{}\"}}", escape_json(&server.metrics())),
        other => return Err(format!("unknown op {other:?}")),
    })
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
            ("{\"kind\":7}", "kind must be a string"),
            ("{\"trials\":\"5\"}", "trials must be a whole number"),
            ("{\"trials\":4294967296}", "trials must be a whole number"),
            ("{\"seed\":-1}", "seed must be a whole number"),
            ("{\"seed\":18446744073709551616}", "seed must be a whole number"),
            ("{\"workload\":\"cordic\",\"n\":0.5}", "n must be a whole number"),
            ("{\"durable\":1}", "durable must be true or false"),
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

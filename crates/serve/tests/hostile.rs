//! Hostile request lines against a live server: a seeded soup of random
//! bytes, invalid UTF-8, truncated and deeply nested JSON, numbers out
//! of range, unknown ops and wrong field types, sent over one kept-alive
//! connection. Every line gets exactly one response line, a typed
//! error; no connection thread panics (a panic fails `net::serve` when
//! it joins its threads); and `health` still answers ready afterwards.

use softsim_serve::net::{request, serve};
use softsim_serve::{ServeConfig, Server};
use softsim_testkit::Rng;
use softsim_trace::json::{parse, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

const HEALTH: &str = "{\"op\":\"health\"}";

/// Requests the service would answer normally.
const VALID: [&str; 4] = [
    HEALTH,
    "{\"op\":\"status\",\"id\":3}",
    "{\"op\":\"run\",\"kind\":\"simulate\",\"workload\":\"matmul\",\"n\":4,\"nb\":2}",
    "{\"op\":\"submit\",\"trials\":5,\"seed\":7,\"durable\":false}",
];

/// Every whole-number field, `id` last.
const NUMBER_FIELDS: [&str; 10] = [
    "iterations",
    "p",
    "n",
    "nb",
    "seed",
    "trials",
    "cycle_budget",
    "wall_budget_ms",
    "deadline_ms",
    "id",
];

/// Values no whole-number field accepts.
const BAD_NUMBERS: [&str; 6] = ["1e400", "-1", "0.5", "1e20", "-1e300", "18446744073709551616000"];

/// Values of the wrong type for a whole-number field.
const NOT_NUMBERS: [&str; 5] = ["\"7\"", "true", "null", "[1]", "{}"];

/// Values of the wrong type (or unknown names) for a string field.
const NOT_NAMES: [&str; 6] = ["7", "false", "null", "[\"run\"]", "{}", "\"nonsense\""];

/// One hostile request line, without its `\n`: never blank, and never a
/// request the service would run.
fn soup_line(rng: &mut Rng) -> Vec<u8> {
    let op = *rng.pick(&["run", "submit", "status", "wait"]);
    // `run` and `submit` ignore `id`: they get spec fields only.
    let fields = if matches!(op, "run" | "submit") { &NUMBER_FIELDS[..9] } else { &NUMBER_FIELDS };
    let text = match rng.below(7) {
        // Random bytes.
        0 => {
            let n = rng.range_usize(0, 300);
            let mut bytes = vec![b'#'];
            bytes.extend((0..n).map(|_| rng.next_u32() as u8).filter(|&b| b != b'\n'));
            return bytes;
        }
        // Invalid UTF-8 inside a string.
        1 => {
            let invalid: &[u8] =
                rng.pick::<&[u8]>(&[&[0xFF], &[0xC3, 0x28], &[0xE2, 0x82], &[0xF0, 0x28]]);
            let mut bytes = b"{\"op\":\"health\",\"x\":\"".to_vec();
            bytes.extend(invalid);
            bytes.extend(b"\"}");
            return bytes;
        }
        // A valid request cut short.
        2 => {
            let valid = rng.pick(&VALID);
            valid[..rng.range_usize(1, valid.len())].to_string()
        }
        // Nesting past the parser's depth cap, closed or not.
        3 => {
            let depth = rng.range_usize(129, 50_000);
            let (open, close) = *rng.pick(&[("[", "]"), ("{\"a\":", "}")]);
            let tail = if rng.flip() { close.repeat(depth) } else { String::new() };
            format!("{}1{tail}", open.repeat(depth))
        }
        // A number out of its field's range.
        4 => {
            let field = rng.pick(fields);
            format!("{{\"op\":\"{op}\",\"{field}\":{}}}", rng.pick(&BAD_NUMBERS))
        }
        // An unknown op.
        5 => {
            let name: String =
                (0..rng.range_usize(1, 12)).map(|_| rng.range_u32(97, 123) as u8 as char).collect();
            format!("{{\"op\":\"x-{name}\"}}")
        }
        // A field of the wrong type, or no JSON object at all.
        _ => match rng.below(4) {
            0 => format!("{{\"op\":\"{op}\",\"{}\":{}}}", rng.pick(fields), rng.pick(&NOT_NUMBERS)),
            1 => {
                let field = rng.pick(&["op", "kind", "workload", "priority", "cache"]);
                format!("{{\"op\":\"{op}\",\"{field}\":{}}}", rng.pick(&NOT_NAMES))
            }
            2 => format!("{{\"op\":\"{op}\",\"durable\":{}}}", rng.pick(&["\"yes\"", "1", "null"])),
            _ => rng.pick(&["[1,2]", "42", "\"health\"", "null", "true"]).to_string(),
        },
    };
    text.into_bytes()
}

#[test]
fn hostile_request_lines_each_get_one_typed_error() {
    let spool = std::env::temp_dir().join(format!("softsim-serve-hostile-{}", std::process::id()));
    let server = Server::start(ServeConfig { workers: 1, spool, ..ServeConfig::default() })
        .expect("server starts");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    std::thread::scope(|scope| {
        let accept = scope.spawn(|| serve(&server, listener));
        let outcome = std::panic::catch_unwind(|| soup(&addr));
        server.shutdown();
        accept.join().expect("accept loop").expect("no connection thread panicked");
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
    });
}

/// Sends the soup to the server at `addr` over one connection, then
/// checks `health` on it and on a new one.
fn soup(addr: &str) {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut exchange = |line: &[u8]| {
        writer.write_all(&[line, b"\n"].concat()).expect("write");
        let mut response = String::new();
        reader.read_line(&mut response).expect("one response line");
        response
    };
    let mut rng = Rng::new(0x50FA_BAD5);
    for i in 0..400 {
        let line = soup_line(&mut rng);
        let response = exchange(&line);
        let shown = String::from_utf8_lossy(&line[..line.len().min(80)]).into_owned();
        let error = match parse(response.trim_end()) {
            Ok(Value::Object(fields)) if fields.len() == 1 => fields.get("error").cloned(),
            _ => None,
        };
        assert!(matches!(error, Some(Value::String(_))), "line {i} {shown:?}: {response}");
    }
    // The next response answers the next request: no line got two.
    assert!(exchange(HEALTH.as_bytes()).contains("\"ready\":true"));
    let health = request(addr, HEALTH).expect("health on a new connection");
    assert!(health.contains("\"ready\":true"), "{health}");
}

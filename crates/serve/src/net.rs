//! TCP front-end: line-oriented JSON over a plain socket.
//!
//! [`serve`] runs an accept loop against an already-bound listener and
//! handles each connection on its own scoped thread, so a stalled
//! client never blocks admission for the others. The loop blocks in
//! `accept` and exits once the server stops being ready — either a
//! local [`crate::Server::shutdown`] or a remote `{"op":"shutdown"}`.
//! A scoped watcher thread checks readiness every ~25 ms; when it
//! drops, the watcher makes one connection to the listener's own
//! address (loopback if the listener is bound to an unspecified one),
//! which wakes `accept`, and the loop re-checks readiness after every
//! accept. Connection threads notice the same flag through their read
//! timeout, so shutdown converges without killing in-flight responses.
//!
//! Every message goes out in one write, the line together with its
//! `\n`, and both ends set `TCP_NODELAY`: a response never waits for
//! the peer's delayed ACK under Nagle's algorithm, which would add
//! ~40 ms to each request on a kept-alive connection.
//!
//! A request line is read through a cap of [`MAX_LINE`] bytes. A longer
//! one is answered with `{"error":"request too large: …"}` and its
//! connection is closed; other connections are unaffected. So is a
//! connection that leaves a request line incomplete for
//! [`LINE_DEADLINE`], counted from when the server starts waiting for
//! it: `{"error":"request timed out: …"}`. A kept-alive connection that
//! sends no byte of a next request within that deadline is closed
//! without an answer. At most [`MAX_CONNECTIONS`]
//! connections are served at once; one more is answered with one
//! `{"shed":"connection limit reached (…)"}` line
//! ([`ShedReason::ConnectionLimit`]) and closed unread.
//!
//! [`request`] is the matching one-shot client used by the CLI's
//! `--request` mode and by CI smoke checks.

use crate::protocol::{error_line, handle_line, shed_line, Disposition};
use crate::server::{Server, ShedReason};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How often the shutdown watcher and idle connections re-check
/// readiness (connections every 20 ticks, through their read timeout).
const POLL: Duration = Duration::from_millis(25);

/// Longest request line a connection accepts, in bytes, its `\n`
/// included.
pub const MAX_LINE: usize = 1 << 20;

/// Longest a connection may take to complete a request line, counted
/// from when it opened or from its previous response (a blank line
/// does not count as a request). A connection idle that long is closed.
pub const LINE_DEADLINE: Duration = Duration::from_secs(3);

/// Most connections served at once.
pub const MAX_CONNECTIONS: usize = 64;

/// Serves `server` on `listener` until shutdown. Blocks the caller;
/// returns once the accept loop has exited and every connection thread
/// has joined.
pub fn serve(server: &Server, listener: TcpListener) -> std::io::Result<()> {
    listener.set_nonblocking(false)?;
    let wake = loopback_if_unspecified(listener.local_addr()?);
    let accepting = AtomicBool::new(true);
    let open = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while accepting.load(Ordering::SeqCst) && server.health().ready {
                std::thread::sleep(POLL);
            }
            if accepting.load(Ordering::SeqCst) {
                if let Err(e) = TcpStream::connect(wake) {
                    eprintln!("warning: cannot wake the accept loop: {e}");
                }
            }
        });
        let result = loop {
            if !server.health().ready {
                break Ok(());
            }
            match listener.accept() {
                // Readiness is re-checked first: this may be the
                // watcher's wake-up connection.
                Ok((stream, _peer)) if server.health().ready => {
                    // Only this loop adds connections, so the count
                    // cannot rise between the check and the add.
                    if open.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
                        refuse(stream, &ShedReason::ConnectionLimit);
                        continue;
                    }
                    open.fetch_add(1, Ordering::SeqCst);
                    let open = &open;
                    scope.spawn(move || {
                        let _slot = Slot(open);
                        if let Err(e) = handle_connection(server, stream) {
                            eprintln!("warning: connection error: {e}");
                        }
                    });
                }
                Ok(_) => {}
                Err(e) => break Err(e),
            }
        };
        accepting.store(false, Ordering::SeqCst);
        result
    })
}

/// A connection's place in the open count, given back when the
/// connection thread ends, also by unwinding.
struct Slot<'a>(&'a AtomicUsize);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Answers a connection the accept loop will not serve with `reason`
/// and closes it. Runs on the accept loop, so nothing here may wait: the
/// write goes into an empty socket buffer, and only input that has
/// already arrived is drained (closing a socket with unread input resets
/// the connection, which can destroy the answer).
fn refuse(mut stream: TcpStream, reason: &ShedReason) {
    let _ = stream.set_nodelay(true);
    let _ = send_line(&mut stream, shed_line(reason));
    let _ = stream.shutdown(Shutdown::Write);
    if stream.set_nonblocking(true).is_ok() {
        let _ = std::io::copy(&mut stream.take(MAX_LINE as u64), &mut std::io::sink());
    }
}

/// `addr`, with an unspecified IP (`0.0.0.0`, `::`) replaced by the
/// loopback address of the same family.
fn loopback_if_unspecified(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// The reading half of a connection. Its reads fail with `TimedOut`
/// from `deadline` on, however the bytes before it arrived, so a client
/// that trickles bytes cannot outlast a deadline either.
struct LineReader {
    stream: TcpStream,
    deadline: Instant,
}

impl Read for LineReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if Instant::now() >= self.deadline {
            return Err(ErrorKind::TimedOut.into());
        }
        self.stream.read(buf)
    }
}

fn handle_connection(server: &Server, stream: TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(POLL * 20))?;
    let mut writer = stream.try_clone()?;
    let deadline = Instant::now() + LINE_DEADLINE;
    let mut reader = BufReader::new(LineReader { stream, deadline });
    let mut line = Vec::new();
    loop {
        // After a read timeout `line` may hold a partial request; read
        // no further than what is left of the cap.
        let room = (MAX_LINE - line.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', &mut line) {
            Ok(0) => return Ok(()),
            Ok(_) if line.len() == MAX_LINE && !line.ends_with(b"\n") => {
                let msg = format!("request too large: line exceeds {MAX_LINE} bytes");
                send_line(&mut writer, error_line(&msg))?;
                return close_unread(&writer, reader);
            }
            Ok(_) => {
                let request = std::mem::take(&mut line);
                let (response, disposition) = match std::str::from_utf8(&request) {
                    Ok(text) if text.trim().is_empty() => continue,
                    Ok(text) => handle_line(server, text.trim()),
                    Err(_) => (error_line("bad request: not UTF-8"), Disposition::Continue),
                };
                send_line(&mut writer, response)?;
                if let Disposition::Shutdown = disposition {
                    return Ok(());
                }
                reader.get_mut().deadline = Instant::now() + LINE_DEADLINE;
            }
            // Read timeout: keep the partial request and keep waiting
            // while the server is up and the line is within its
            // deadline; bail out once the server is draining.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if !server.health().ready {
                    return Ok(());
                }
                if Instant::now() >= reader.get_ref().deadline {
                    // An idle connection, with no byte of a request
                    // sent, is closed silently: an answer here would be
                    // read as the answer to the client's next request.
                    if line.is_empty() {
                        return Ok(());
                    }
                    let secs = LINE_DEADLINE.as_secs();
                    let msg = format!("request timed out: no complete line within {secs} s");
                    send_line(&mut writer, error_line(&msg))?;
                    return close_unread(&writer, reader);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Sends `line` and its `\n` in one write.
fn send_line(stream: &mut TcpStream, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    stream.write_all(line.as_bytes())
}

/// Ends a connection whose input is refused: stops sending, then reads
/// and discards up to another [`MAX_LINE`] bytes, for at most one read
/// timeout (until end of input, a quiet read timeout, or that deadline).
/// Closing a socket with unread input resets the connection, which can
/// destroy the answer before the client reads it.
fn close_unread(writer: &TcpStream, reader: BufReader<LineReader>) -> std::io::Result<()> {
    writer.shutdown(Shutdown::Write)?;
    let mut rest = reader.into_inner();
    rest.deadline = Instant::now() + POLL * 20;
    let _ = std::io::copy(&mut rest.take(MAX_LINE as u64), &mut std::io::sink());
    Ok(())
}

/// One-shot client: sends `line` to `addr` and returns the single
/// response line (trailing newline stripped).
pub fn request(addr: &str, line: &str) -> std::io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    send_line(&mut writer, line.to_owned())?;
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader.read_line(&mut response)?;
    while response.ends_with('\n') || response.ends_with('\r') {
        response.pop();
    }
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServeConfig;
    use std::net::TcpListener;
    use std::time::Instant;

    const HEALTH: &str = "{\"op\":\"health\"}";

    fn start(tag: &str) -> Server {
        start_with(tag, ServeConfig::default())
    }

    /// A 1-worker server with its own spool, otherwise as `config`.
    fn start_with(tag: &str, config: ServeConfig) -> Server {
        Server::start(ServeConfig {
            workers: 1,
            spool: std::env::temp_dir()
                .join(format!("softsim-serve-net-{tag}-{}", std::process::id())),
            ..config
        })
        .expect("start")
    }

    /// Serves a fresh 1-worker server on a loopback port while `f` runs
    /// against its address, then shuts it down locally (also when `f`
    /// panics) and joins the accept loop, which must wake from its
    /// blocking `accept`.
    fn with_server(tag: &str, f: impl FnOnce(&str)) {
        serving(&start(tag), f);
    }

    /// [`with_server`] for a server the caller started.
    fn serving(server: &Server, f: impl FnOnce(&str)) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| serve(server, listener));
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&addr)));
            server.shutdown();
            handle.join().expect("accept loop").expect("serve");
            if let Err(panic) = outcome {
                std::panic::resume_unwind(panic);
            }
        });
    }

    #[test]
    fn tcp_round_trip_health_then_remote_shutdown() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = start("remote-shutdown");
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| serve(&server, listener));
            let health = request(&addr, HEALTH).expect("health");
            assert!(health.contains("\"ready\":true"), "{health}");
            let bad = request(&addr, "{\"op\":\"frobnicate\"}").expect("bad op");
            assert!(bad.contains("unknown op"), "{bad}");
            let bye = request(&addr, "{\"op\":\"shutdown\"}").expect("shutdown");
            assert!(bye.contains("shutting down"), "{bye}");
            handle.join().expect("accept loop").expect("serve");
        });
    }

    #[test]
    fn kept_alive_round_trips_do_not_wait_for_delayed_acks() {
        with_server("keepalive", |addr| {
            // The client writes each request in one write and leaves
            // Nagle on, as a plain client would: only the server's side
            // decides whether a response waits for an ACK.
            let stream = TcpStream::connect(addr).expect("connect");
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = BufReader::new(stream);
            let start = Instant::now();
            for i in 0..50 {
                writer.write_all(format!("{HEALTH}\n").as_bytes()).expect("write");
                let mut line = String::new();
                reader.read_line(&mut line).expect("read");
                assert!(line.contains("\"ready\":true"), "round trip {i}: {line}");
            }
            let elapsed = start.elapsed();
            assert!(elapsed < Duration::from_secs(1), "50 round trips took {elapsed:?}");
        });
    }

    #[test]
    fn one_shot_requests_are_accepted_without_a_poll_tick() {
        with_server("accept", |addr| {
            let start = Instant::now();
            for _ in 0..20 {
                let health = request(addr, HEALTH).expect("health");
                assert!(health.contains("\"ready\":true"), "{health}");
            }
            let elapsed = start.elapsed();
            assert!(elapsed < 20 * POLL / 2, "20 one-shot requests took {elapsed:?}");
        });
    }

    #[test]
    fn an_overlong_line_is_refused_and_other_clients_are_served() {
        with_server("overlong", |addr| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(&vec![b'x'; 2 * MAX_LINE]).expect("write 2 MiB");
            stream.shutdown(Shutdown::Write).expect("half-close");
            let mut answer = String::new();
            stream.read_to_string(&mut answer).expect("answer, then end of stream");
            assert_eq!(
                answer,
                format!("{{\"error\":\"request too large: line exceeds {MAX_LINE} bytes\"}}\n")
            );
            let health = request(addr, HEALTH).expect("health");
            assert!(health.contains("\"ready\":true"), "{health}");
        });
    }

    #[test]
    fn a_line_at_the_cap_is_read() {
        with_server("at-cap", |addr| {
            // `{"op":"health"}`, padded with spaces to exactly MAX_LINE
            // bytes with its newline.
            let line = HEALTH.to_string() + &" ".repeat(MAX_LINE - 1 - HEALTH.len());
            let health = request(addr, &line).expect("health");
            assert!(health.contains("\"ready\":true"), "{health}");
        });
    }

    #[test]
    fn a_line_trickled_past_its_deadline_is_cut() {
        with_server("deadline", |addr| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let mut writer = stream.try_clone().expect("clone");
            let start = Instant::now();
            // One byte of a request that never ends, every 100 ms: no
            // read ever waits long enough to time out.
            let trickle = std::thread::spawn(move || {
                while start.elapsed() < LINE_DEADLINE * 2 && writer.write_all(b" ").is_ok() {
                    std::thread::sleep(Duration::from_millis(100));
                }
            });
            let mut answer = String::new();
            stream.read_to_string(&mut answer).expect("answer, then end of stream");
            let elapsed = start.elapsed();
            let secs = LINE_DEADLINE.as_secs();
            let want = format!("request timed out: no complete line within {secs} s");
            assert_eq!(answer, format!("{}\n", error_line(&want)));
            assert!(elapsed >= LINE_DEADLINE, "cut after {elapsed:?}");
            assert!(elapsed < LINE_DEADLINE + Duration::from_secs(2), "cut after {elapsed:?}");
            drop(stream);
            trickle.join().expect("trickle");
            let health = request(addr, HEALTH).expect("health");
            assert!(health.contains("\"ready\":true"), "{health}");
        });
    }

    #[test]
    fn an_idle_connection_is_closed_without_an_answer() {
        with_server("idle", |addr| {
            let stream = TcpStream::connect(addr).expect("connect");
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = BufReader::new(stream);
            writer.write_all(format!("{HEALTH}\n").as_bytes()).expect("write");
            let mut health = String::new();
            reader.read_line(&mut health).expect("health");
            assert!(health.contains("\"ready\":true"), "{health}");
            let start = Instant::now();
            let mut rest = String::new();
            reader.read_to_string(&mut rest).expect("end of stream");
            let elapsed = start.elapsed();
            assert_eq!(rest, "", "an idle connection must get no unasked-for line");
            assert!(elapsed >= LINE_DEADLINE, "closed after {elapsed:?}");
            assert!(elapsed < LINE_DEADLINE + Duration::from_secs(2), "closed after {elapsed:?}");
        });
    }

    #[test]
    fn a_connection_past_the_cap_is_shed_typed() {
        with_server("cap", |addr| {
            // Every slot held by a served connection: each answers.
            let held: Vec<TcpStream> = (0..MAX_CONNECTIONS)
                .map(|_| {
                    let stream = TcpStream::connect(addr).expect("connect");
                    let mut writer = stream.try_clone().expect("clone");
                    writer.write_all(format!("{HEALTH}\n").as_bytes()).expect("write");
                    let mut health = String::new();
                    BufReader::new(&stream).read_line(&mut health).expect("health");
                    assert!(health.contains("\"ready\":true"), "{health}");
                    stream
                })
                .collect();
            let mut refused = TcpStream::connect(addr).expect("connect");
            let mut answer = String::new();
            refused.read_to_string(&mut answer).expect("answer, then end of stream");
            let reason = ShedReason::ConnectionLimit;
            assert_eq!(answer, format!("{}\n", shed_line(&reason)));
            // A slot comes free when its connection closes.
            drop(held);
            let start = Instant::now();
            let health = loop {
                match request(addr, HEALTH) {
                    Ok(h) if h.contains("\"ready\"") => break h,
                    _ if start.elapsed() < Duration::from_secs(2) => {
                        std::thread::sleep(Duration::from_millis(10))
                    }
                    other => panic!("no slot came free: {other:?}"),
                }
            };
            assert!(health.contains("\"ready\":true"), "{health}");
        });
    }

    #[test]
    fn deep_nesting_is_a_bad_request_not_a_crash() {
        with_server("deep", |addr| {
            let deep = request(addr, &"[".repeat(1_000_000)).expect("answer");
            assert!(deep.contains("bad request") && deep.contains("nesting"), "{deep}");
            let health = request(addr, HEALTH).expect("health");
            assert!(health.contains("\"ready\":true"), "{health}");
        });
    }

    #[test]
    fn another_client_cannot_take_a_runs_result() {
        let server = start_with("run-owned", ServeConfig { hold: true, ..ServeConfig::default() });
        serving(&server, |addr| {
            let ask = |op: &str| request(addr, &format!("{{\"op\":\"{op}\",\"id\":1}}"));
            let (status, wait, run) = std::thread::scope(|scope| {
                let run = scope.spawn(|| {
                    request(addr, "{\"op\":\"run\",\"kind\":\"simulate\",\"durable\":false}")
                });
                // The pool is held, so the run waits in the queue as
                // job 1 (ids are issued from 1).
                while !request(addr, HEALTH).expect("health").contains("\"queue_depth\":1") {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let status = ask("status");
                // A second client races the run for job 1's result.
                let wait = scope.spawn(|| ask("wait"));
                std::thread::sleep(Duration::from_millis(20));
                server.release();
                (status, wait.join().expect("wait client"), run.join().expect("run client"))
            });
            assert_eq!(status.expect("status answer"), "{\"error\":\"unknown job 1\"}");
            assert_eq!(wait.expect("wait answer"), "{\"error\":\"unknown job 1\"}");
            let result = run.expect("run answer");
            assert!(result.starts_with("{\"id\":1,\"state\":\"done\""), "{result}");
        });
    }
}

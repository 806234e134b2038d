//! `serve` — the softsim simulation service CLI.
//!
//! Server mode (default): bind a TCP listener and serve line-oriented
//! JSON jobs until `{"op":"shutdown"}` or process death. Client mode
//! (`--request`): send one request line to a running server, print the
//! response, exit.
//!
//! ```text
//! serve [--listen ADDR] [--workers N] [--campaign-workers N]
//!       [--queue N] [--spool DIR] [--hold]
//! serve --request ADDR JSON
//! ```
//!
//! Environment and arguments are validated eagerly: an invalid
//! `SOFTSIM_ABORT_AFTER_TRIALS`, or a `--workers`/`--campaign-workers`
//! count above `MAX_WORKERS` (64), is a configuration error (exit 2) at
//! startup, not a surprise mid-campaign.

use softsim_serve::{net, ServeConfig, Server, MAX_WORKERS};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;

enum Mode {
    Serve(String, ServeConfig),
    Request(String, String),
    Help,
}

fn operand(it: &mut std::slice::Iter<'_, String>, name: &str) -> Result<String, String> {
    it.next().cloned().ok_or_else(|| format!("{name} needs an operand"))
}

fn parse_count(value: &str, flag: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("invalid {flag}={value:?}: expected a positive integer")),
    }
}

fn parse_workers(value: &str, flag: &str) -> Result<usize, String> {
    match parse_count(value, flag)? {
        n if n > MAX_WORKERS => Err(format!("invalid {flag}={value:?}: at most {MAX_WORKERS}")),
        n => Ok(n),
    }
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut listen = String::from("127.0.0.1:7878");
    let mut config = ServeConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--listen" => listen = operand(&mut it, "--listen")?,
            "--workers" => {
                config.workers = parse_workers(&operand(&mut it, "--workers")?, "--workers")?;
            }
            "--campaign-workers" => {
                config.campaign_workers =
                    parse_workers(&operand(&mut it, "--campaign-workers")?, "--campaign-workers")?;
            }
            "--queue" => {
                config.queue.capacity = parse_count(&operand(&mut it, "--queue")?, "--queue")?;
            }
            "--spool" => config.spool = PathBuf::from(operand(&mut it, "--spool")?),
            "--hold" => config.hold = true,
            "--request" => {
                let addr = operand(&mut it, "--request")?;
                let line = operand(&mut it, "--request")?;
                return Ok(Mode::Request(addr, line));
            }
            "--help" | "-h" => return Ok(Mode::Help),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Mode::Serve(listen, config))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: serve [--listen ADDR] [--workers N] [--campaign-workers N] \
         [--queue N] [--spool DIR] [--hold]\n\
         \x20      serve --request ADDR JSON"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    // Fail fast on bad environment before any work is admitted.
    if let Err(e) = softsim_resilience::abort_after_trials_from_env() {
        eprintln!("configuration error: {e}");
        return ExitCode::from(2);
    }

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&args) {
        Ok(mode) => mode,
        Err(e) => {
            eprintln!("configuration error: {e}");
            return usage();
        }
    };
    let (listen, config) = match mode {
        Mode::Help => return usage(),
        Mode::Request(addr, line) => {
            return match net::request(&addr, &line) {
                Ok(response) => {
                    println!("{response}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: request to {addr} failed: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Mode::Serve(listen, config) => (listen, config),
    };

    let listener = match TcpListener::bind(&listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot bind {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bound = listener.local_addr().map(|a| a.to_string()).unwrap_or(listen);
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("serve: listening on {bound}");
    match net::serve(&server, listener) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: accept loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Mode, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn worker_counts_above_the_cap_are_configuration_errors() {
        for flag in ["--workers", "--campaign-workers"] {
            let Ok(Mode::Serve(_, config)) = parse(&[flag, "64"]) else {
                panic!("{flag} 64 must parse");
            };
            let set = if flag == "--workers" { config.workers } else { config.campaign_workers };
            assert_eq!(set, MAX_WORKERS, "{flag}");
            for value in ["65", "100000", "18446744073709551615"] {
                let err = parse(&[flag, value]).err().expect("rejected");
                assert!(err.contains("at most 64"), "{flag} {value}: {err}");
            }
            assert!(parse(&[flag, "0"]).is_err(), "{flag} 0");
        }
    }
}

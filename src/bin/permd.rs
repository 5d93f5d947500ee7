//! `permd` — the Perm query service daemon.
//!
//! Serves the full SQL-PLE pipeline (DDL, DML, `SELECT PROVENANCE ...`) to concurrent clients
//! over a TCP socket using the length-prefixed frames of [`perm_service::wire`]: text
//! requests, tagged binary responses. One thread per connection, each with its own session
//! (settings and prepared statements); all sessions share one engine: catalog, provenance
//! rewriter, optimizer and plan cache. Query results flow out of the engine as columnar chunks
//! and go onto the wire chunk by chunk in the [`perm_service::codec`] encoding.
//!
//! ```text
//! permd [--bind ADDR] [--port N] [--plan-cache-capacity N] [--workers N]
//!       [--mem-limit BYTES] [--session-mem-limit BYTES]
//!       [--metrics-addr ADDR:PORT] [--log-level LEVEL] [--slow-query-ms N]
//! ```
//!
//! `--bind` sets the listen address (default `127.0.0.1`); with `--port 0` (the default is
//! 7654) the OS assigns a free port. The bound address is printed as
//! `permd listening on ADDR:PORT` so scripts can parse it. `--plan-cache-capacity` sizes the
//! shared plan cache, which keeps a text's plan from its second planning and remembers that
//! many first-planned texts (0 disables caching).
//! `--workers` sizes the engine's shared worker pool for intra-query (morsel-driven) parallel
//! execution; the default is the number of logical CPUs, and `--workers 1` runs every query
//! single-threaded. `--mem-limit` caps the bytes all running queries may reserve engine-wide
//! and `--session-mem-limit` caps any single query (both accept `k`/`m`/`g` suffixes, e.g.
//! `--mem-limit 512m`); over-limit queries fail with a clean `resource exhausted` error while
//! the server keeps serving. Stop the server with the wire command `shutdown` (e.g.
//! `\shutdown` in `perm-shell`).
//!
//! Observability:
//!
//! * `--metrics-addr ADDR:PORT` serves the engine's metrics registry as Prometheus text
//!   exposition over plain HTTP (GET `/metrics`); the bound address is printed as
//!   `permd metrics on ADDR:PORT`. The same text is available in-band as the wire `metrics`
//!   command.
//! * `--log-level error|warn|info|debug|trace` sets the structured-log level (default `info`:
//!   connection open/close, query start/end with latency and outcome; `warn` adds only
//!   degraded events — shed queries, slow queries, failpoint trips).
//! * `--slow-query-ms N` logs a `slow_query` warning for every statement slower than `N`
//!   milliseconds (0, the default, disables the slow-query log).
//!
//! The `PERM_FAILPOINTS` environment variable arms the fault-injection harness (testing only;
//! see `perm_exec::faults`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Non-test code must surface failures as structured errors, never panic on a recoverable
// condition (tests are exempt via clippy.toml); `cargo xtask lint` checks this header.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use perm_core::ProvenanceRewriter;
use perm_exec::log_error;
use perm_service::metrics::render_prometheus;
use perm_service::{serve, Engine, GovernorLimits};

const DEFAULT_PORT: u16 = 7654;
const DEFAULT_BIND: &str = "127.0.0.1";

/// Parsed command-line configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Config {
    bind: String,
    port: u16,
    plan_cache_capacity: Option<usize>,
    workers: Option<usize>,
    mem_limit: Option<usize>,
    session_mem_limit: Option<usize>,
    metrics_addr: Option<String>,
    log_level: perm_exec::Level,
    slow_query_ms: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            bind: DEFAULT_BIND.to_string(),
            port: DEFAULT_PORT,
            plan_cache_capacity: None,
            workers: None,
            mem_limit: None,
            session_mem_limit: None,
            metrics_addr: None,
            log_level: perm_exec::Level::Info,
            slow_query_ms: 0,
        }
    }
}

/// Parse a byte count with an optional `k`/`m`/`g` suffix (case-insensitive, powers of 1024).
fn parse_bytes(text: &str) -> Option<usize> {
    let text = text.trim();
    let (digits, shift) = match text.char_indices().last()? {
        (i, 'k') | (i, 'K') => (&text[..i], 10),
        (i, 'm') | (i, 'M') => (&text[..i], 20),
        (i, 'g') | (i, 'G') => (&text[..i], 30),
        _ => (text, 0),
    };
    let n: usize = digits.trim().parse().ok()?;
    n.checked_shl(shift)
}

impl Config {
    /// Parse command-line arguments (without the program name). `Err` carries the usage error;
    /// an empty error text means `--help` was requested.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Config, String> {
        let mut config = Config::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--port" | "-p" => match args.next().and_then(|v| v.parse().ok()) {
                    Some(v) => config.port = v,
                    None => return Err("--port requires a number".into()),
                },
                "--bind" | "-b" => match args.next() {
                    Some(v) if !v.is_empty() => config.bind = v,
                    _ => return Err("--bind requires an address".into()),
                },
                "--plan-cache-capacity" => match args.next().and_then(|v| v.parse().ok()) {
                    Some(v) => config.plan_cache_capacity = Some(v),
                    None => return Err("--plan-cache-capacity requires a number".into()),
                },
                "--workers" | "-w" => match args.next().and_then(|v| v.parse().ok()) {
                    Some(v) if v >= 1 => config.workers = Some(v),
                    _ => return Err("--workers requires a number >= 1".into()),
                },
                "--mem-limit" => match args.next().and_then(|v| parse_bytes(&v)) {
                    Some(v) if v >= 1 => config.mem_limit = Some(v),
                    _ => return Err("--mem-limit requires a byte count (k/m/g suffixes ok)".into()),
                },
                "--session-mem-limit" => match args.next().and_then(|v| parse_bytes(&v)) {
                    Some(v) if v >= 1 => config.session_mem_limit = Some(v),
                    _ => {
                        return Err(
                            "--session-mem-limit requires a byte count (k/m/g suffixes ok)".into()
                        )
                    }
                },
                "--metrics-addr" => match args.next() {
                    Some(v) if !v.is_empty() => config.metrics_addr = Some(v),
                    _ => return Err("--metrics-addr requires an ADDR:PORT".into()),
                },
                "--log-level" => match args.next() {
                    Some(v) => config.log_level = perm_exec::Level::parse(&v)?,
                    None => return Err("--log-level requires error|warn|info|debug|trace".into()),
                },
                "--slow-query-ms" => match args.next().and_then(|v| v.parse().ok()) {
                    Some(v) => config.slow_query_ms = v,
                    None => return Err("--slow-query-ms requires a number".into()),
                },
                "--help" | "-h" => return Err(String::new()),
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(config)
    }

    /// Build the shared engine this configuration describes.
    fn engine(&self) -> Engine {
        let mut engine = Engine::new().with_rewriter(Arc::new(ProvenanceRewriter::new()));
        if let Some(capacity) = self.plan_cache_capacity {
            engine = engine.with_plan_cache_capacity(capacity);
        }
        if let Some(workers) = self.workers {
            engine = engine.with_workers(workers);
        }
        if self.mem_limit.is_some() || self.session_mem_limit.is_some() {
            engine = engine.with_memory_limits(GovernorLimits {
                engine_bytes: self.mem_limit,
                query_bytes: self.session_mem_limit,
            });
        }
        engine.metrics().set_slow_query_ms(self.slow_query_ms);
        engine
    }
}

/// Serve the Prometheus text exposition over plain HTTP/1.0 (one response per connection,
/// `Connection: close`) until `stop` is set. No HTTP library: the endpoint answers
/// `GET /metrics` (or `/`) and nothing else, which a hand-rolled request line parse covers.
fn serve_metrics(listener: TcpListener, engine: Arc<Engine>, stop: Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = answer_metrics_request(&mut stream, &engine);
    }
}

/// The most of a request head the metrics endpoint reads before it answers.
const MAX_REQUEST_BYTES: usize = 8 << 10;

fn answer_metrics_request(stream: &mut TcpStream, engine: &Engine) -> std::io::Result<()> {
    // Only the request line matters, but the head is read through its blank line: a client may
    // send it a line per write, and closing with request bytes unread resets the connection.
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < MAX_REQUEST_BYTES {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
    }
    let head = String::from_utf8_lossy(&head);
    let mut parts = head.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, body) = if !method.eq_ignore_ascii_case("GET") {
        ("405 Method Not Allowed", "method not allowed\n".to_string())
    } else if path == "/metrics" || path == "/" {
        ("200 OK", render_prometheus(&engine.stats_snapshot()))
    } else {
        ("404 Not Found", "not found; metrics are at /metrics\n".to_string())
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

/// A running metrics endpoint: its bound address, stop flag and serving thread.
struct MetricsEndpoint {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl MetricsEndpoint {
    fn spawn(addr: &str, engine: Arc<Engine>) -> std::io::Result<MetricsEndpoint> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = stop.clone();
            std::thread::Builder::new()
                .name("perm-metrics".into())
                .spawn(move || serve_metrics(listener, engine, stop))?
        };
        Ok(MetricsEndpoint { addr, stop, thread })
    }

    fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.thread.join();
    }
}

fn main() -> ExitCode {
    let config = match Config::parse(std::env::args().skip(1)) {
        Ok(config) => config,
        Err(error) => return usage(&error),
    };
    perm_exec::log::set_level(config.log_level);
    // Arm the fault-injection harness when PERM_FAILPOINTS is set (testing only; a no-op
    // otherwise).
    if let Err(e) = perm_exec::faults::init_from_env() {
        log_error!("startup_failed", reason = "invalid PERM_FAILPOINTS", error = e);
        return ExitCode::FAILURE;
    }

    let engine = Arc::new(config.engine());
    let metrics_endpoint = match &config.metrics_addr {
        Some(addr) => match MetricsEndpoint::spawn(addr, engine.clone()) {
            Ok(endpoint) => Some(endpoint),
            Err(e) => {
                let error = e.to_string();
                log_error!("startup_failed", reason = "metrics bind", addr = addr, error = error);
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let handle = match serve(engine, (config.bind.as_str(), config.port)) {
        Ok(handle) => handle,
        Err(e) => {
            let addr = format!("{}:{}", config.bind, config.port);
            let error = e.to_string();
            log_error!("startup_failed", reason = "bind", addr = addr, error = error);
            return ExitCode::FAILURE;
        }
    };
    println!("permd listening on {}", handle.addr());
    if let Some(endpoint) = &metrics_endpoint {
        println!("permd metrics on {}", endpoint.addr);
    }
    handle.wait();
    if let Some(endpoint) = metrics_endpoint {
        endpoint.shutdown();
    }
    println!("permd: shut down");
    ExitCode::SUCCESS
}

fn usage(error: &str) -> ExitCode {
    if !error.is_empty() {
        eprintln!("permd: {error}");
    }
    eprintln!(
        "usage: permd [--bind ADDR] [--port N] [--plan-cache-capacity N] [--workers N] \
         [--mem-limit BYTES] [--session-mem-limit BYTES] [--metrics-addr ADDR:PORT] \
         [--log-level error|warn|info|debug|trace] [--slow-query-ms N]"
    );
    if error.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Config, String> {
        Config::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_without_arguments() {
        let config = parse(&[]).unwrap();
        assert_eq!(config, Config::default());
        assert_eq!(config.bind, "127.0.0.1");
        assert_eq!(config.port, DEFAULT_PORT);
        assert_eq!(config.plan_cache_capacity, None);
    }

    #[test]
    fn bind_port_and_cache_capacity_flags() {
        let config =
            parse(&["--bind", "0.0.0.0", "--port", "9000", "--plan-cache-capacity", "7"]).unwrap();
        assert_eq!(config.bind, "0.0.0.0");
        assert_eq!(config.port, 9000);
        assert_eq!(config.plan_cache_capacity, Some(7));
    }

    #[test]
    fn invalid_arguments_are_rejected() {
        assert!(parse(&["--port"]).is_err());
        assert!(parse(&["--port", "abc"]).is_err());
        assert!(parse(&["--bind"]).is_err());
        assert!(parse(&["--plan-cache-capacity", "-1"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--cache-capacity", "3"]).is_err()); // the old alias is gone
        assert_eq!(parse(&["--help"]).unwrap_err(), "");
    }

    #[test]
    fn workers_flag_parses_and_sizes_the_pool() {
        let config = parse(&["--workers", "4"]).unwrap();
        assert_eq!(config.workers, Some(4));
        assert_eq!(config.engine().workers(), 4);
        let single = parse(&["-w", "1"]).unwrap();
        assert_eq!(single.engine().workers(), 1);
        // Without the flag the pool is sized by the machine.
        assert!(parse(&[]).unwrap().engine().workers() >= 1);
        assert!(parse(&["--workers"]).is_err());
        assert!(parse(&["--workers", "0"]).is_err());
        assert!(parse(&["--workers", "abc"]).is_err());
    }

    #[test]
    fn memory_limit_flags_parse_byte_suffixes() {
        assert_eq!(parse_bytes("1024"), Some(1024));
        assert_eq!(parse_bytes("4k"), Some(4096));
        assert_eq!(parse_bytes("2M"), Some(2 << 20));
        assert_eq!(parse_bytes("1g"), Some(1 << 30));
        assert_eq!(parse_bytes("abc"), None);
        assert_eq!(parse_bytes(""), None);
        let config = parse(&["--mem-limit", "64m", "--session-mem-limit", "16m"]).unwrap();
        assert_eq!(config.mem_limit, Some(64 << 20));
        assert_eq!(config.session_mem_limit, Some(16 << 20));
        let limits = config.engine().governor().limits();
        assert_eq!(limits.engine_bytes, Some(64 << 20));
        assert_eq!(limits.query_bytes, Some(16 << 20));
        // Without the flags the governor is unlimited.
        assert_eq!(parse(&[]).unwrap().engine().governor().limits().engine_bytes, None);
        assert!(parse(&["--mem-limit"]).is_err());
        assert!(parse(&["--mem-limit", "0"]).is_err());
        assert!(parse(&["--session-mem-limit", "x"]).is_err());
    }

    #[test]
    fn observability_flags_parse() {
        let config = parse(&[
            "--metrics-addr",
            "127.0.0.1:0",
            "--log-level",
            "debug",
            "--slow-query-ms",
            "250",
        ])
        .unwrap();
        assert_eq!(config.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(config.log_level, perm_exec::Level::Debug);
        assert_eq!(config.slow_query_ms, 250);
        assert_eq!(parse(&[]).unwrap().log_level, perm_exec::Level::Info);
        assert!(parse(&["--log-level", "loud"]).is_err());
        assert!(parse(&["--metrics-addr"]).is_err());
        assert!(parse(&["--slow-query-ms", "abc"]).is_err());
    }

    #[test]
    fn metrics_endpoint_answers_http_scrapes() {
        let engine = Arc::new(Config::default().engine());
        let endpoint = MetricsEndpoint::spawn("127.0.0.1:0", engine).unwrap();
        let mut conn = TcpStream::connect(endpoint.addr).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
        assert!(response.contains("text/plain; version=0.0.4"), "{response}");
        assert!(response.contains("perm_queries_active 0"), "{response}");
        // Unknown paths 404; the endpoint keeps serving connection after connection.
        let mut conn = TcpStream::connect(endpoint.addr).unwrap();
        conn.write_all(b"GET /nope HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 404"), "{response}");
        endpoint.shutdown();
    }

    #[test]
    fn metrics_endpoint_answers_once_the_request_head_ends() {
        // A client that writes the request line and the blank line apart (a shell's `printf`)
        // gets nothing before the blank line, then the whole response and a clean close.
        let engine = Arc::new(Config::default().engine());
        let endpoint = MetricsEndpoint::spawn("127.0.0.1:0", engine).unwrap();
        let mut conn = TcpStream::connect(endpoint.addr).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.0\r\n").unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(300))).unwrap();
        let early = conn.read(&mut [0u8; 1]);
        assert!(
            matches!(&early, Err(e) if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)),
            "answered before the blank line: {early:?}"
        );
        conn.write_all(b"\r\n").unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut response = Vec::new();
        conn.read_to_end(&mut response).unwrap();
        let response = String::from_utf8(response).unwrap();
        assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
        assert!(response.contains("perm_queries_active 0"), "{response}");
        endpoint.shutdown();
    }

    #[test]
    fn capacity_threads_through_engine_construction() {
        let config = parse(&["--plan-cache-capacity", "5"]).unwrap();
        assert_eq!(config.engine().plan_cache_capacity(), 5);
        // Without the flag the engine keeps its built-in default capacity.
        let default_capacity = parse(&[]).unwrap().engine().plan_cache_capacity();
        assert!(default_capacity > 0);
    }
}

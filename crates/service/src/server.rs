//! The `permd` TCP server: one thread per connection, each owning a [`Session`], with a
//! graceful shutdown path (the `shutdown` wire command or [`ServerHandle::shutdown`]).
//!
//! Connections speak protocol version [`PROTOCOL_VERSION`] (see [`crate::codec`] and
//! `docs/PROTOCOL.md`): the first request must be the `hello <version>` handshake, and query
//! results stream out as `S` / `R`* / `D` frames with nothing sent back but an optional
//! `cancel`. A query executes on its connection's thread: the first pull runs everything below
//! its plan's last pipeline breaker, and each later pull the next morsels of the region above it,
//! between frames. The server holds at most one pull's chunks and frees each once its frame is
//! written; TCP flow control paces a slow reader, and the execution behind it.

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use parking_lot::Mutex;
use perm_exec::{faults, ExecError};

use crate::codec::{self, tag, PROTOCOL_VERSION};
use crate::engine::Engine;
use crate::error::ServiceError;
use crate::metrics::{render_prometheus, render_stats_text, Metrics};
use crate::session::Session;
use crate::stream::QueryStream;
use crate::wire::{read_frame_rest, write_bytes_frame};

/// Server-wide connection id sequence (tags each connection's log lines as `conn=N`).
static NEXT_CONN_ID: AtomicU64 = AtomicU64::new(0);

/// How long a connection blocks waiting for the *start* of a frame before re-checking the
/// shutdown flag.
const READ_POLL_INTERVAL: Duration = Duration::from_millis(200);

/// How long a started frame may take to arrive completely, and how long a response write may
/// wait for a client that reads nothing; a stall this long is treated as a broken client and
/// drops the connection.
const FRAME_COMPLETION_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a graceful shutdown waits for in-flight statements to drain before cancelling
/// whatever is still running (the hard deadline of the drain phase).
pub const SHUTDOWN_DRAIN: Duration = Duration::from_secs(5);

/// A handle to a running server: its bound address and a way to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on (useful with port 0: the OS picks a free port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Has a shutdown been requested (by this handle or a client's `shutdown` command)?
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Request a graceful stop and wait for the accept loop and all connections to finish.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Block until the server stops on its own (e.g. via a client's `shutdown` command).
    pub fn wait(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:0"`) and serve `engine` until shutdown. Every accepted
/// connection gets its own thread and its own [`Session`]; DDL, DML and `SELECT PROVENANCE`
/// queries from all connections interleave safely over the shared catalog.
pub fn serve(engine: Arc<Engine>, addr: impl ToSocketAddrs) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));

    let accept_thread = {
        let shutdown = shutdown.clone();
        thread::spawn(move || {
            let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
            loop {
                let (stream, _) = match listener.accept() {
                    Ok(accepted) => accepted,
                    Err(_) if shutdown.load(Ordering::SeqCst) => break,
                    Err(_) => continue,
                };
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let engine = engine.clone();
                let shutdown = shutdown.clone();
                let conn_id = NEXT_CONN_ID.fetch_add(1, Ordering::Relaxed) + 1;
                let peer = stream
                    .peer_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| "unknown".to_string());
                let handle = thread::spawn(move || {
                    let metrics = engine.metrics().clone();
                    metrics.connections_opened.inc();
                    metrics.connections_active.inc();
                    perm_exec::log_info!("connection_open", conn = conn_id, peer = peer);
                    let result = handle_connection(stream, engine, shutdown);
                    metrics.connections_active.dec();
                    match result {
                        Ok(()) => {
                            perm_exec::log_info!("connection_close", conn = conn_id);
                        }
                        Err(e) => {
                            let error = e.to_string();
                            perm_exec::log_warn!("connection_close", conn = conn_id, error = error,);
                        }
                    }
                });
                let mut connections = connections.lock();
                connections.push(handle);
                // Opportunistically reap finished connection threads.
                connections.retain(|h| !h.is_finished());
            }
            // Graceful drain: give in-flight statements a bounded window to finish on their
            // own, then cancel the stragglers so every connection thread can be joined.
            if !engine.governor().wait_quiescent(SHUTDOWN_DRAIN) {
                engine.governor().cancel_all();
            }
            for handle in connections.lock().drain(..) {
                let _ = handle.join();
            }
        })
    };

    Ok(ServerHandle { addr, shutdown, accept_thread: Some(accept_thread) })
}

/// Read one complete request frame, polling for its first byte so the shutdown flag is honored
/// while the connection is idle. Returns `None` on clean EOF or shutdown.
fn read_request(reader: &mut TcpStream, shutdown: &AtomicBool) -> io::Result<Option<String>> {
    faults::fire_io("socket-read")?;
    loop {
        // Poll for the *first byte* of the next frame. The short timeout is only safe at a
        // frame boundary: a timed-out 1-byte read consumes nothing, whereas timing out inside
        // a `read_exact` would silently discard a partially received frame and desync the
        // protocol for a client that delivers a frame in pieces.
        let mut first = [0u8; 1];
        match reader.read(&mut first) {
            Ok(0) => return Ok(None), // client closed the connection
            Ok(_) => {}
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(None);
                }
                continue;
            }
            Err(e) => return Err(e),
        }
        // The frame has started: give the remainder a generous window, then restore polling.
        reader.set_read_timeout(Some(FRAME_COMPLETION_TIMEOUT))?;
        let request = read_frame_rest(reader, first[0])?;
        reader.set_read_timeout(Some(READ_POLL_INTERVAL))?;
        return Ok(Some(request));
    }
}

fn handle_connection(
    stream: TcpStream,
    engine: Arc<Engine>,
    shutdown: Arc<AtomicBool>,
) -> io::Result<()> {
    stream.set_read_timeout(Some(READ_POLL_INTERVAL))?;
    stream.set_write_timeout(Some(FRAME_COMPLETION_TIMEOUT))?;
    let mut reader = stream.try_clone()?;
    let mut writer = stream;
    let metrics = engine.metrics().clone();
    let mut session = Session::new(engine);
    let mut negotiated = false;
    loop {
        let Some(request) = read_request(&mut reader, &shutdown)? else {
            return Ok(());
        };
        // Version negotiation gates everything else: a legacy (pre-v2) client that opens with
        // `query ...` instead of `hello` gets a clean, versioned error it can render as text
        // (v1 responses were `-`-prefixed text too) instead of a hang or a binary surprise.
        if !negotiated {
            let (frame_tag, text) = match parse_hello(&request) {
                Some(v) if v == PROTOCOL_VERSION => {
                    negotiated = true;
                    (tag::TEXT, format!("hello {PROTOCOL_VERSION}"))
                }
                Some(v) => (
                    tag::ERROR,
                    format!(
                        "unsupported protocol version {v}; this server speaks version \
                         {PROTOCOL_VERSION}"
                    ),
                ),
                None => (
                    tag::ERROR,
                    format!(
                        "protocol error: expected 'hello <version>' handshake before '{}' (this \
                         server speaks protocol version {PROTOCOL_VERSION}; upgrade the client)",
                        request.split_whitespace().next().unwrap_or("")
                    ),
                ),
            };
            send_frame(&mut writer, &codec::encode_text(frame_tag, &text))?;
            continue;
        }
        // A `cancel` that finds no stream in progress arrived after its stream's trailer: it
        // has nothing left to stop, and an answer would be misread as the next response.
        if is_cancel(&request) {
            continue;
        }
        let stop = match dispatch_fenced(&mut session, &request, &shutdown) {
            Ok((Response::Text(text), stop)) => {
                send_frame(&mut writer, &codec::encode_text(tag::TEXT, &text))?;
                stop
            }
            Ok((Response::Stream(stream), stop)) => {
                stream_result(&mut reader, &mut writer, *stream, &metrics)?;
                stop
            }
            Err(e) => {
                send_frame(&mut writer, &codec::encode_text(tag::ERROR, &e.to_string()))?;
                false
            }
        };
        if stop {
            // Wake the accept loop so it notices the flag even with no further clients.
            if let Ok(addr) = writer.local_addr() {
                let _ = TcpStream::connect(addr);
            }
            return Ok(());
        }
    }
}

/// Parse a `hello <version>` handshake request; `None` if this is some other command.
fn parse_hello(request: &str) -> Option<u32> {
    let rest = request.trim().strip_prefix("hello")?;
    rest.trim().parse().ok()
}

/// Write one frame, with the `socket-write` failpoint in front (fault-injection tests use it
/// to simulate I/O failures mid-response).
fn send_frame(writer: &mut TcpStream, payload: &[u8]) -> io::Result<()> {
    faults::fire_io("socket-write")?;
    write_bytes_frame(writer, payload)
}

/// Is this request `cancel`, the one request valid during a result stream?
pub(crate) fn is_cancel(request: &str) -> bool {
    request.trim().eq_ignore_ascii_case("cancel")
}

/// Stream one query result: `S`, then the `R` frames, then `D` — or a `-` error frame, which
/// invalidates every `R` frame sent before it. One [`codec::ResultEncoder`] writes the `R`
/// frames, so each column's dictionary rows go out once per result.
///
/// The client sends nothing while the stream runs except, perhaps, `cancel`. Before each `R`
/// frame the server polls the socket without blocking; a `cancel` found there ends the stream
/// with a `-` frame carrying the `Cancelled` error instead of the rest of the result, and no
/// further morsel of the statement runs. Any execution error a later pull meets ends the stream
/// the same way, with its own message.
fn stream_result(
    reader: &mut TcpStream,
    writer: &mut TcpStream,
    mut stream: QueryStream,
    metrics: &Metrics,
) -> io::Result<()> {
    // Tag this thread's log lines (socket errors, cancellations) with the streaming query.
    let _qid_guard = perm_exec::QueryIdGuard::new(stream.query_id());
    send_frame(writer, &codec::encode_schema(stream.schema()))?;
    let mut encoder = codec::ResultEncoder::default();
    let trailer = loop {
        match stream.next_chunk() {
            Some(Ok(chunk)) => {
                if cancel_requested(reader)? {
                    let message = ServiceError::Exec(ExecError::Cancelled).to_string();
                    break codec::encode_text(tag::ERROR, &message);
                }
                let frame = encoder.encode_chunk(&chunk);
                send_frame(writer, &frame)?;
                metrics.rows_streamed.add(chunk.num_rows() as u64);
                metrics.bytes_streamed.add(frame.len() as u64);
            }
            Some(Err(e)) => break codec::encode_text(tag::ERROR, &e.to_string()),
            None => break codec::encode_done(stream.rows()),
        }
    };
    // Drop the stream before the trailer goes out: the chunks not sent (the engine-wide gauge
    // returns to zero), the sources the encoder remembers and the statement's memory grant are
    // released by the time the client reads it, and a stream dropped before its end settles its
    // query as cancelled.
    drop((stream, encoder));
    send_frame(writer, &trailer)
}

/// Non-blocking check for a `cancel` sent during a result stream: `Ok(false)` when the client
/// has sent nothing, without waiting. A started frame is read to completion under the usual
/// frame timeout; anything but `cancel` breaks the protocol and drops the connection.
fn cancel_requested(reader: &mut TcpStream) -> io::Result<bool> {
    reader.set_nonblocking(true)?;
    let mut first = [0u8; 1];
    let polled = reader.read(&mut first);
    reader.set_nonblocking(false)?;
    match polled {
        Ok(0) => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed during result stream",
        )),
        Ok(_) => {
            reader.set_read_timeout(Some(FRAME_COMPLETION_TIMEOUT))?;
            let request = read_frame_rest(reader, first[0])?;
            reader.set_read_timeout(Some(READ_POLL_INTERVAL))?;
            if is_cancel(&request) {
                Ok(true)
            } else {
                Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected 'cancel' during result stream, got '{}'", request.trim()),
                ))
            }
        }
        Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
            Ok(false)
        }
        Err(e) => Err(e),
    }
}

/// One dispatched response: either a simple text payload or a result stream. The stream is
/// boxed — `QueryStream` is a wide struct (prepared plan, stream state, metrics ticket) and
/// would otherwise dominate the enum's size.
enum Response {
    Text(String),
    Stream(Box<QueryStream>),
}

/// [`dispatch`] behind a panic fence: a panic anywhere in planning or eager execution (a bug,
/// an injected fault) fails the one request with [`ServiceError::Internal`] instead of
/// unwinding the connection thread — the session and the server keep serving.
fn dispatch_fenced(
    session: &mut Session,
    request: &str,
    shutdown: &AtomicBool,
) -> Result<(Response, bool), ServiceError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| dispatch(session, request, shutdown)))
        .unwrap_or_else(|payload| {
            let message = perm_exec::panic_message(payload.as_ref());
            perm_exec::log_error!("panic_recovered", site = "dispatch", error = message);
            Err(ServiceError::Internal(message))
        })
}

fn dispatch(
    session: &mut Session,
    request: &str,
    shutdown: &AtomicBool,
) -> Result<(Response, bool), ServiceError> {
    let request = request.trim();
    let (command, rest) = match request.split_once(char::is_whitespace) {
        Some((command, rest)) => (command, rest.trim()),
        None => (request, ""),
    };
    let text = |t: String| Response::Text(t);
    match command.to_ascii_lowercase().as_str() {
        "query" => {
            if rest.is_empty() {
                return Err(ServiceError::protocol("query requires SQL text"));
            }
            Ok((Response::Stream(Box::new(session.execute_streaming(rest)?)), false))
        }
        "prepare" => {
            let (name, sql) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| ServiceError::protocol("usage: prepare <name> <sql>"))?;
            let params = session.prepare(name, sql.trim())?;
            Ok((text(format!("prepared {name} ({params} parameter(s))")), false))
        }
        "exec" => {
            let (name, params_text) = match rest.split_once(char::is_whitespace) {
                Some((name, params_text)) => (name, params_text.trim()),
                None => (rest, ""),
            };
            if name.is_empty() {
                return Err(ServiceError::protocol("usage: exec <name> [(v1, v2, ...)]"));
            }
            let params = perm_sql::parse_constant_row(params_text)?;
            Ok((
                Response::Stream(Box::new(session.execute_prepared_streaming(name, params)?)),
                false,
            ))
        }
        "deallocate" => {
            if session.deallocate(rest) {
                Ok((text(format!("deallocated {rest}")), false))
            } else {
                Err(ServiceError::UnknownPrepared(rest.to_string()))
            }
        }
        "set" => {
            let (setting, value) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| ServiceError::protocol("usage: set <budget|timeout_ms> <n|none>"))?;
            let value = value.trim();
            let parsed: Option<u64> = if value.eq_ignore_ascii_case("none") {
                None
            } else {
                Some(value.parse().map_err(|_| {
                    ServiceError::protocol(format!("invalid setting value '{value}'"))
                })?)
            };
            match setting.to_ascii_lowercase().as_str() {
                "budget" => session.set_row_budget(parsed.map(|n| n as usize)),
                "timeout_ms" => session.set_timeout(parsed.map(Duration::from_millis)),
                other => return Err(ServiceError::protocol(format!("unknown setting '{other}'"))),
            }
            Ok((text(format!("set {setting}")), false))
        }
        "stats" => {
            // One consistent snapshot: every line below describes the same instant (three
            // separate lock acquisitions previously let the numbers drift mid-render).
            let snap = session.engine().stats_snapshot();
            Ok((text(render_stats_text(&snap)), false))
        }
        "metrics" => {
            let snap = session.engine().stats_snapshot();
            Ok((text(render_prometheus(&snap)), false))
        }
        "profile" => Ok((text(session.engine().metrics().render_profile()), false)),
        "hello" => {
            Err(ServiceError::protocol("hello is only valid as a connection's first request"))
        }
        "ping" => Ok((text("pong".to_string()), false)),
        "shutdown" => {
            shutdown.store(true, Ordering::SeqCst);
            Ok((text("bye".to_string()), true))
        }
        other => Err(ServiceError::protocol(format!("unknown command '{other}'"))),
    }
}

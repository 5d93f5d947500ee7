//! The `perm-shell` client: a tiny line-oriented REPL / script driver for `permd`.
//!
//! Every input line is one request. Lines starting with `\` are meta commands mapped onto wire
//! commands; anything else is sent as `query <line>`:
//!
//! * `\prepare <name> <sql>` — prepare a (possibly parameterized) query
//! * `\exec <name> (v1, ...)` — execute a prepared statement
//! * `\deallocate <name>` — drop a prepared statement
//! * `\set <budget|timeout_ms> <n|none>` — session settings
//! * `\stats` — one consistent snapshot of every engine counter (cache, governor, queries,
//!   latency, streams, connections)
//! * `\metrics` — the same snapshot as a Prometheus text exposition
//! * `\profile` — the recent-query ring: outcome, latency, rows and (for `EXPLAIN ANALYZE`
//!   runs) the annotated operator tree
//! * `\cancel` — sent, but the shell runs one request at a time, so no stream is in progress:
//!   it prints `(no result stream to cancel)` and waits for no response
//! * `\ping`, `\shutdown`, `\q`
//!
//! Empty lines and `--` comments are skipped.
//!
//! The client speaks wire protocol version [`PROTOCOL_VERSION`]: [`Client::connect`] performs
//! the `hello` handshake, and query results arrive as a schema frame plus a sequence of chunk
//! frames that [`run_shell`] prints *incrementally* — rows appear as chunks arrive, and the
//! client sends nothing back. A decoded chunk keeps the engine's shape: views that shared an
//! index buffer share one again, and every chunk of a result indexing a column's remembered
//! dictionary shares that one decoded dictionary. A mid-stream error frame invalidates
//! everything already printed for that statement; the shell says so explicitly (no silent
//! truncated tables), and the buffering [`Client::roundtrip`] discards the partial rows
//! entirely.

use std::io::{self, BufRead, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use perm_algebra::{DataChunk, Schema};

use crate::codec::{self, tag, ResultDecoder, PROTOCOL_VERSION};
use crate::server::is_cancel;
use crate::wire::{read_bytes_frame, write_frame};

/// One decoded response frame from the server.
#[derive(Debug)]
pub enum ResponseFrame {
    /// Simple success (`+`) with its text payload.
    Ok(String),
    /// Error (`-`); mid-stream this invalidates every chunk of the current result.
    Err(String),
    /// Result schema: a stream of chunk frames follows.
    Schema(Schema),
    /// One chunk of result rows.
    Chunk(DataChunk),
    /// End of a result stream with the server's total row count.
    Done {
        /// Total rows delivered by the stream.
        rows: u64,
    },
}

/// A connected wire-protocol client (protocol version [`PROTOCOL_VERSION`], handshake already
/// performed).
pub struct Client {
    reader: TcpStream,
    writer: TcpStream,
    /// The decoder of the result being read, from its `S` to its `D` or `-`; `None` between
    /// results, where an `R` or `D` is a protocol error.
    result: Option<ResultDecoder>,
}

/// First delay of [`Client::connect_with_retry`]'s backoff; doubles after every failed
/// attempt.
const RETRY_INITIAL_DELAY: Duration = Duration::from_millis(100);

impl Client {
    /// Connect to a running `permd` and negotiate the protocol version.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::handshake(TcpStream::connect(addr)?)
    }

    /// Connect with bounded exponential backoff: up to `attempts` tries, sleeping 100ms,
    /// 200ms, 400ms, ... between them. Only *connection* failures are retried — a server that
    /// accepts the socket but rejects the handshake fails immediately. Useful when the shell
    /// races a just-started `permd` (scripts, CI).
    pub fn connect_with_retry(addr: impl ToSocketAddrs, attempts: u32) -> io::Result<Client> {
        let mut delay = RETRY_INITIAL_DELAY;
        let mut last: Option<io::Error> = None;
        for attempt in 0..attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(delay);
                delay = delay.saturating_mul(2);
            }
            match TcpStream::connect(&addr) {
                Ok(stream) => return Client::handshake(stream),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::ConnectionRefused, "no connection attempts made")
        }))
    }

    /// Perform the protocol handshake over a freshly connected socket.
    fn handshake(writer: TcpStream) -> io::Result<Client> {
        let reader = writer.try_clone()?;
        let mut client = Client { reader, writer, result: None };
        client.send(&format!("hello {PROTOCOL_VERSION}"))?;
        match client.read_response()? {
            ResponseFrame::Ok(_) => Ok(client),
            ResponseFrame::Err(message) => {
                Err(io::Error::new(io::ErrorKind::ConnectionRefused, message))
            }
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected handshake response: {other:?}"),
            )),
        }
    }

    /// Send one request frame.
    pub fn send(&mut self, command: &str) -> io::Result<()> {
        write_frame(&mut self.writer, command)
    }

    /// Read and decode one response frame. An `R` or `D` frame outside a result (before its `S`,
    /// or after its `D` or `-`) is [`io::ErrorKind::InvalidData`].
    pub fn read_response(&mut self) -> io::Result<ResponseFrame> {
        // A clean EOF at a frame boundary is the server closing the connection; an EOF *inside*
        // a frame means it went away mid-response (crash, kill, network drop) — report that as
        // a clear message instead of the raw "failed to fill whole buffer" read error.
        let payload = read_bytes_frame(&mut self.reader)
            .map_err(|e| {
                if e.kind() == io::ErrorKind::UnexpectedEof {
                    io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection mid-frame (it may have crashed or been \
                         shut down while responding)",
                    )
                } else {
                    e
                }
            })?
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "server closed connection")
            })?;
        let (&tag_byte, body) = payload
            .split_first()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty response frame"))?;
        let invalid = |e: crate::error::ServiceError| {
            io::Error::new(io::ErrorKind::InvalidData, e.to_string())
        };
        let outside = |frame: char| {
            io::Error::new(io::ErrorKind::InvalidData, format!("'{frame}' frame outside a result"))
        };
        match tag_byte {
            tag::TEXT => Ok(ResponseFrame::Ok(decode_utf8(body)?)),
            tag::ERROR => {
                self.result = None;
                Ok(ResponseFrame::Err(decode_utf8(body)?))
            }
            tag::SCHEMA => {
                let schema = codec::decode_schema(body).map_err(invalid)?;
                self.result = Some(ResultDecoder::default());
                Ok(ResponseFrame::Schema(schema))
            }
            tag::RESULT => {
                let decoder = self.result.as_mut().ok_or_else(|| outside('R'))?;
                Ok(ResponseFrame::Chunk(decoder.decode_chunk(body).map_err(invalid)?))
            }
            tag::DONE => {
                self.result.take().ok_or_else(|| outside('D'))?;
                Ok(ResponseFrame::Done { rows: codec::decode_done(body).map_err(invalid)? })
            }
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown response frame tag {other}"),
            )),
        }
    }

    /// Send one request and collect the complete response: `Ok(body)` with streamed results
    /// rendered as tab-separated text (header line + one line per row, `ok` for statements
    /// without columns), or `Err(message)`. A mid-stream error discards the partial rows — the
    /// caller never sees a silently truncated table.
    ///
    /// `cancel` is refused with [`io::ErrorKind::InvalidInput`] and not sent: outside a result
    /// stream the server gives it no response, so there would be nothing to read.
    pub fn roundtrip(&mut self, command: &str) -> io::Result<Result<String, String>> {
        if is_cancel(command) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "'cancel' gets no response outside a result stream; send it with Client::send",
            ));
        }
        self.send(command)?;
        match self.read_response()? {
            ResponseFrame::Ok(body) => Ok(Ok(body)),
            ResponseFrame::Err(message) => Ok(Err(message)),
            ResponseFrame::Schema(schema) => {
                let mut body = render_header(&schema);
                loop {
                    match self.read_response()? {
                        ResponseFrame::Chunk(chunk) => render_rows(&chunk, &mut body),
                        ResponseFrame::Done { .. } => return Ok(Ok(body)),
                        ResponseFrame::Err(message) => return Ok(Err(message)),
                        other => {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("unexpected frame inside result stream: {other:?}"),
                            ))
                        }
                    }
                }
            }
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected response frame: {other:?}"),
            )),
        }
    }
}

/// The header line of a streamed result (`ok` for column-less statements, matching the
/// pre-streaming text rendering).
fn render_header(schema: &Schema) -> String {
    if schema.arity() == 0 {
        "ok".to_string()
    } else {
        schema.attribute_names().join("\t")
    }
}

/// Append one chunk's rows as tab-separated lines.
fn render_rows(chunk: &DataChunk, out: &mut String) {
    for row in 0..chunk.num_rows() {
        if chunk.num_columns() == 0 {
            continue;
        }
        out.push('\n');
        for col in 0..chunk.num_columns() {
            if col > 0 {
                out.push('\t');
            }
            chunk.column(col).format_into(row, out);
        }
    }
}

fn decode_utf8(bytes: &[u8]) -> io::Result<String> {
    String::from_utf8(bytes.to_vec())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response is not valid UTF-8"))
}

/// Translate one shell input line into a wire request; `None` means "skip" and `Some(None)`
/// inside the tuple marks `\q` (quit without talking to the server).
fn translate(line: &str) -> Option<Option<String>> {
    let line = line.trim();
    if line.is_empty() || line.starts_with("--") {
        return None;
    }
    if let Some(meta) = line.strip_prefix('\\') {
        let meta = meta.trim();
        if meta == "q" || meta == "quit" {
            return Some(None);
        }
        return Some(Some(meta.to_string()));
    }
    Some(Some(format!("query {line}")))
}

/// Drive a shell session: read lines from `input`, send them to the server, print responses to
/// `output`. Returns the number of server-reported errors (scripts use this as an exit code).
///
/// Streamed results print incrementally — each chunk's rows are written (and flushed) as the
/// chunk arrives. If an error frame arrives after rows were already printed, the shell prints
/// an explicit invalidation notice counting the rows to disregard, so a truncated table is
/// never mistaken for a complete result.
pub fn run_shell(
    client: &mut Client,
    input: impl BufRead,
    mut output: impl Write,
) -> io::Result<usize> {
    let mut errors = 0usize;
    for line in input.lines() {
        let line = line?;
        let request = match translate(&line) {
            None => continue,
            Some(None) => break,
            Some(Some(request)) => request,
        };
        client.send(&request)?;
        if is_cancel(&request) {
            // The shell runs one request at a time, so no stream is in progress: the server
            // ignores this `cancel` and sends nothing to read.
            writeln!(output, "(no result stream to cancel)")?;
            continue;
        }
        let mut streamed_rows: u64 = 0;
        let mut in_stream = false;
        loop {
            match client.read_response()? {
                ResponseFrame::Ok(body) => {
                    writeln!(output, "{body}")?;
                    break;
                }
                ResponseFrame::Err(message) => {
                    errors += 1;
                    if streamed_rows > 0 {
                        writeln!(
                            output,
                            "error: {message} (result invalid — disregard the {streamed_rows} \
                             row(s) above)"
                        )?;
                    } else {
                        writeln!(output, "error: {message}")?;
                    }
                    break;
                }
                ResponseFrame::Schema(schema) => {
                    in_stream = true;
                    writeln!(output, "{}", render_header(&schema))?;
                    output.flush()?;
                }
                ResponseFrame::Chunk(chunk) => {
                    let mut text = String::new();
                    render_rows(&chunk, &mut text);
                    if let Some(rows) = text.strip_prefix('\n') {
                        writeln!(output, "{rows}")?;
                        output.flush()?;
                    }
                    streamed_rows += chunk.num_rows() as u64;
                }
                ResponseFrame::Done { .. } => break,
            }
            if !in_stream {
                break;
            }
        }
        if request.trim().eq_ignore_ascii_case("shutdown") {
            break;
        }
    }
    Ok(errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_translation() {
        assert_eq!(translate(""), None);
        assert_eq!(translate("-- a comment"), None);
        assert_eq!(translate("\\q"), Some(None));
        assert_eq!(translate("\\stats"), Some(Some("stats".into())));
        assert_eq!(translate("\\exec q (1, 'x')"), Some(Some("exec q (1, 'x')".into())));
        assert_eq!(translate("SELECT 1"), Some(Some("query SELECT 1".into())));
    }
}

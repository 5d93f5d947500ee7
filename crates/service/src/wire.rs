//! The `permd` wire protocol (version [`crate::PROTOCOL_VERSION`]): length-prefixed frames over
//! TCP.
//!
//! Every message — request or response — is one frame: a 4-byte big-endian payload length
//! followed by that many payload bytes. Requests are single-line UTF-8 commands; a connection
//! must open with the `hello <version>` handshake before anything else:
//!
//! | request                          | effect                                                |
//! |----------------------------------|-------------------------------------------------------|
//! | `hello <version>`                | negotiate the protocol version (must be first)        |
//! | `query <sql>`                    | execute one statement (DDL, DML or query)             |
//! | `prepare <name> <sql>`           | plan a query once under `name`                        |
//! | `exec <name> (v1, v2, ...)`      | execute a prepared statement with literal bindings    |
//! | `deallocate <name>`              | drop a prepared statement                             |
//! | `set budget <n\|none>`           | session row budget                                    |
//! | `set timeout_ms <n\|none>`       | session wall-clock timeout                            |
//! | `stats`                          | plan-cache counters and stream memory gauge           |
//! | `metrics`                        | the same snapshot as a Prometheus text exposition     |
//! | `profile`                        | the ring of the most recent completed queries         |
//! | `cancel`                         | stop the result stream in progress (no response)      |
//! | `ping`                           | liveness check                                        |
//! | `shutdown`                       | stop the server gracefully                            |
//!
//! Responses are *tagged binary* payloads (see [`crate::codec`]): `+` text / `-` error for
//! simple commands, and for query results a streamed sequence `S` (schema), `R`* (chunks),
//! then `D` (done) or `-` (error — which **invalidates** every `R` frame before it). The client
//! sends nothing back while a result streams. This module is the framing only; `exec`
//! bindings are parsed by [`perm_sql::parse_constant_row`]. Full layout: `docs/PROTOCOL.md`.

use std::io::{self, Read, Write};

/// Upper bound on a single frame's payload (16 MiB): protects the server from bogus lengths.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Write one length-prefixed text frame.
pub fn write_frame(writer: &mut impl Write, payload: &str) -> io::Result<()> {
    write_bytes_frame(writer, payload.as_bytes())
}

/// Write one length-prefixed binary frame (tagged responses).
pub fn write_bytes_frame(writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame too large"));
    }
    writer.write_all(&(payload.len() as u32).to_be_bytes())?;
    writer.write_all(payload)?;
    writer.flush()
}

/// The payload behind a frame's 4-byte length prefix, which the caller has read.
fn read_payload(reader: &mut impl Read, len: [u8; 4]) -> io::Result<Vec<u8>> {
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame too large"));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    Ok(payload)
}

/// Read one length-prefixed binary frame. Returns `None` on a clean EOF at a frame boundary.
pub fn read_bytes_frame(reader: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match reader.read_exact(&mut len) {
        Ok(()) => read_payload(reader, len).map(Some),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(None),
        Err(e) => Err(e),
    }
}

/// Read the remainder of a text frame whose first length byte has already been consumed (used
/// by the server, which polls for the first byte with a short timeout and must then finish the
/// frame without treating a mid-frame stall as "no request").
pub fn read_frame_rest(reader: &mut impl Read, first_len_byte: u8) -> io::Result<String> {
    let mut len = [first_len_byte, 0, 0, 0];
    reader.read_exact(&mut len[1..])?;
    String::from_utf8(read_payload(reader, len)?)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not valid UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "query SELECT 1").unwrap();
        write_frame(&mut buf, "+ok").unwrap();
        let mut cursor = io::Cursor::new(buf);
        // The server's reader: the first length byte, then the rest of the frame.
        let mut first = [0u8; 1];
        cursor.read_exact(&mut first).unwrap();
        assert_eq!(read_frame_rest(&mut cursor, first[0]).unwrap(), "query SELECT 1");
        assert_eq!(read_bytes_frame(&mut cursor).unwrap().as_deref(), Some(&b"+ok"[..]));
        assert_eq!(read_bytes_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let len = u32::MAX.to_be_bytes();
        assert!(read_bytes_frame(&mut io::Cursor::new(len)).is_err());
        assert!(read_frame_rest(&mut io::Cursor::new(&len[1..]), len[0]).is_err());
    }
}

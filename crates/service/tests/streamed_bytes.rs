//! `perm_bytes_streamed_total` counts what went over the socket: read the `R` frames of a
//! provenance result off a raw connection and compare their payload lengths with the counter.
//! A provenance join's chunks are views over shared dictionaries, and what such a chunk keeps
//! alive in memory is not what its frame carries, so a counter fed by memory sizes fails here.
//! Nor is what one frame carries what it would carry alone: after the first frame of a result,
//! a frame indexes the dictionaries earlier frames sent instead of resending them.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use perm_core::ProvenanceRewriter;
use perm_service::codec::{decode_chunk, ResultDecoder};
use perm_service::{serve, Engine};

fn read_raw_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).unwrap();
    let mut body = vec![0u8; u32::from_be_bytes(len) as usize];
    stream.read_exact(&mut body).unwrap();
    body
}

fn write_raw_frame(stream: &mut TcpStream, payload: &[u8]) {
    stream.write_all(&(payload.len() as u32).to_be_bytes()).unwrap();
    stream.write_all(payload).unwrap();
    stream.flush().unwrap();
}

/// Send one statement and read its stream to the end; returns its `R` frames and the rows the
/// `D` trailer reports.
fn stream_statement(stream: &mut TcpStream, statement: &str) -> (Vec<Vec<u8>>, u64) {
    write_raw_frame(stream, statement.as_bytes());
    assert_eq!(read_raw_frame(stream)[0], b'S', "{statement}");
    let mut frames = Vec::new();
    loop {
        let frame = read_raw_frame(stream);
        match frame[0] {
            b'R' => frames.push(frame),
            b'D' => return (frames, u64::from_be_bytes(frame[1..9].try_into().unwrap())),
            other => panic!("unexpected frame {:?} in {statement}", char::from(other)),
        }
    }
}

#[test]
fn bytes_streamed_counts_the_result_frames_written() {
    let engine =
        Arc::new(Engine::new().with_rewriter(Arc::new(ProvenanceRewriter::new())).with_workers(1));
    let handle = serve(engine.clone(), "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    write_raw_frame(&mut stream, b"hello 6");
    assert_eq!(read_raw_frame(&mut stream), b"+hello 6");

    let values = |n: i64, f: fn(i64) -> String| (0..n).map(f).collect::<Vec<_>>().join(", ");
    for statement in [
        "query CREATE TABLE item (id INT, grp INT)".to_string(),
        "query CREATE TABLE grp (grp INT, label TEXT)".to_string(),
        format!("query INSERT INTO item VALUES {}", values(3000, |i| format!("({i}, {})", i % 4))),
        format!(
            "query INSERT INTO grp VALUES {}",
            values(4, |g| format!("({g}, 'a long group label repeated on every row {g}')"))
        ),
    ] {
        stream_statement(&mut stream, &statement);
    }

    let bytes_streamed = || engine.stats_snapshot().metrics.bytes_streamed;
    for statement in [
        "query SELECT PROVENANCE item.id, grp.label FROM item, grp WHERE item.grp = grp.grp",
        "query SELECT PROVENANCE grp.label, count(*) AS n FROM item, grp \
         WHERE item.grp = grp.grp GROUP BY grp.label",
    ] {
        let before = bytes_streamed();
        let (frames, rows) = stream_statement(&mut stream, statement);
        assert_eq!(rows, 3000, "{statement}");
        let payload_bytes: usize = frames.iter().map(Vec::len).sum();
        assert_eq!(bytes_streamed() - before, payload_bytes as u64, "{statement}");
        // The label column's four rows went out in the first frame; later frames refer back to
        // them, so they decode only as part of their result.
        let mut decoder = ResultDecoder::default();
        let decoded: usize =
            frames.iter().map(|frame| decoder.decode_chunk(&frame[1..]).unwrap().num_rows()).sum();
        assert_eq!(decoded, 3000, "{statement}");
        assert!(decode_chunk(&frames[0][1..]).is_ok(), "{statement}");
        assert!(
            frames[1..].iter().all(|frame| decode_chunk(&frame[1..]).is_err()),
            "{statement}: a later frame resent its dictionaries"
        );
    }

    write_raw_frame(&mut stream, b"shutdown");
    assert_eq!(read_raw_frame(&mut stream), b"+bye");
    handle.wait();
}

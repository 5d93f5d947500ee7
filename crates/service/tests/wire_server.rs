//! End-to-end wire-protocol tests: boot `permd`'s server on an OS-assigned port and drive it
//! with the client, including concurrent connections, slow clients and graceful shutdown.

use std::io::{Cursor, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use perm_core::ProvenanceRewriter;
use perm_service::shell::ResponseFrame;
use perm_service::{serve, Client, Engine};

fn provenance_engine() -> Arc<Engine> {
    Arc::new(Engine::new().with_rewriter(Arc::new(ProvenanceRewriter::new())))
}

#[test]
fn ddl_dml_and_provenance_over_the_wire() {
    let handle = serve(provenance_engine(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    assert_eq!(client.roundtrip("ping").unwrap().unwrap(), "pong");
    client.roundtrip("query CREATE TABLE items (id INT, price INT)").unwrap().unwrap();
    client.roundtrip("query INSERT INTO items VALUES (1, 100), (2, 10), (3, 25)").unwrap().unwrap();

    let body = client
        .roundtrip("query SELECT PROVENANCE sum(price) AS total FROM items")
        .unwrap()
        .unwrap();
    let mut lines = body.lines();
    assert_eq!(lines.next(), Some("total\tprov_items_id\tprov_items_price"));
    assert_eq!(lines.clone().count(), 3, "every item contributes to the sum");
    assert!(lines.all(|l| l.starts_with("135\t")));

    // Prepared statements with parameters over the wire.
    client
        .roundtrip("prepare pricey SELECT id FROM items WHERE price > $1 ORDER BY id")
        .unwrap()
        .unwrap();
    let body = client.roundtrip("exec pricey (20)").unwrap().unwrap();
    assert_eq!(body, "id\n1\n3");
    let err = client.roundtrip("exec pricey (1, 2)").unwrap().unwrap_err();
    assert!(err.contains("expects 1 parameter"));

    // Session settings over the wire.
    client.roundtrip("set budget 1").unwrap().unwrap();
    let err = client.roundtrip("query SELECT * FROM items").unwrap().unwrap_err();
    assert!(err.contains("row budget"));
    client.roundtrip("set budget none").unwrap().unwrap();
    client.roundtrip("query SELECT * FROM items").unwrap().unwrap();

    // Errors are reported uniformly with the layer's Display text.
    let err = client.roundtrip("query SELECT * FROM ghost").unwrap().unwrap_err();
    assert!(err.contains("does not exist"));
    let err = client.roundtrip("bogus command").unwrap().unwrap_err();
    assert!(err.contains("unknown command"));

    let stats = client.roundtrip("stats").unwrap().unwrap();
    assert!(stats.starts_with("plan_cache"));

    assert_eq!(client.roundtrip("shutdown").unwrap().unwrap(), "bye");
    handle.wait();
}

#[test]
fn concurrent_connections_share_the_catalog() {
    let handle = serve(provenance_engine(), "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    let mut setup = Client::connect(addr).unwrap();
    setup.roundtrip("query CREATE TABLE t (x INT)").unwrap().unwrap();

    let mut threads = Vec::new();
    for i in 0..8 {
        threads.push(thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            for j in 0..10 {
                client
                    .roundtrip(&format!("query INSERT INTO t VALUES ({})", i * 100 + j))
                    .unwrap()
                    .unwrap();
                client.roundtrip("query SELECT count(*) AS c FROM t").unwrap().unwrap();
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }

    let body = setup.roundtrip("query SELECT count(*) AS c FROM t").unwrap().unwrap();
    assert_eq!(body, "c\n80");
    handle.shutdown();
}

/// Read one raw length-prefixed response frame.
fn read_raw_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).unwrap();
    let mut body = vec![0u8; u32::from_be_bytes(len) as usize];
    stream.read_exact(&mut body).unwrap();
    body
}

/// Write one raw length-prefixed request frame.
fn write_raw_frame(stream: &mut TcpStream, payload: &[u8]) {
    stream.write_all(&(payload.len() as u32).to_be_bytes()).unwrap();
    stream.write_all(payload).unwrap();
    stream.flush().unwrap();
}

/// A client that delivers a frame in pieces — with stalls longer than the server's idle poll
/// interval both between the length prefix and the payload and inside the payload — must not
/// desync the protocol: the read timeout may only ever fire at a frame boundary.
#[test]
fn slow_clients_do_not_desync_the_protocol() {
    let handle = serve(provenance_engine(), "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    write_raw_frame(&mut stream, b"hello 6");
    assert_eq!(read_raw_frame(&mut stream), b"+hello 6");

    let payload = b"ping";
    stream.write_all(&(payload.len() as u32).to_be_bytes()).unwrap();
    stream.flush().unwrap();
    thread::sleep(Duration::from_millis(450)); // longer than the 200 ms poll interval
    stream.write_all(&payload[..2]).unwrap();
    stream.flush().unwrap();
    thread::sleep(Duration::from_millis(450));
    stream.write_all(&payload[2..]).unwrap();
    stream.flush().unwrap();

    assert_eq!(read_raw_frame(&mut stream), b"+pong");

    // The connection is still healthy for a normally-framed follow-up request.
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(client.roundtrip("ping").unwrap().unwrap(), "pong");
    handle.shutdown();
}

/// A legacy (pre-v2) client that skips the handshake and opens with a v1 command must get a
/// clean, versioned error it can render as text — not a hang and not a binary surprise.
#[test]
fn legacy_first_command_gets_a_versioned_error() {
    let handle = serve(provenance_engine(), "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();

    write_raw_frame(&mut stream, b"query SELECT 1");
    let body = String::from_utf8(read_raw_frame(&mut stream)).unwrap();
    assert!(body.starts_with('-'), "v1-compatible error prefix: {body}");
    assert!(body.contains("hello"), "tells the client how to handshake: {body}");
    assert!(body.contains("version 6"), "names the server's protocol version: {body}");

    // The connection survives and can still handshake afterwards.
    write_raw_frame(&mut stream, b"hello 6");
    assert_eq!(read_raw_frame(&mut stream), b"+hello 6");
    write_raw_frame(&mut stream, b"ping");
    assert_eq!(read_raw_frame(&mut stream), b"+pong");
    handle.shutdown();
}

/// A client asking for a version the server does not speak — a future one; version 5, whose
/// frames each carried their own dictionaries; version 4, which could ship a column of mixed
/// types; or version 3, which acknowledged every result frame — is
/// refused by name, and the refusal states the version the server does speak.
#[test]
fn unsupported_hello_version_is_refused_with_the_supported_version() {
    let handle = serve(provenance_engine(), "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();

    for version in ["99", "5", "4", "3"] {
        write_raw_frame(&mut stream, format!("hello {version}").as_bytes());
        let body = String::from_utf8(read_raw_frame(&mut stream)).unwrap();
        assert!(body.starts_with('-'));
        assert!(body.contains(&format!("version {version};")), "names the rejected one: {body}");
        assert!(body.contains("speaks version 6"), "names the supported version: {body}");
    }

    // Retrying with the right version on the same connection works.
    write_raw_frame(&mut stream, b"hello 6");
    assert_eq!(read_raw_frame(&mut stream), b"+hello 6");
    handle.shutdown();
}

/// An error frame after partial RESULT frames must invalidate the partial result: the
/// buffering client discards the rows, and the incremental shell prints an explicit
/// invalidation notice. The engine pulls a result's top region between frames, so an execution
/// error can land after the first frame: here a row budget below a join's output, which the
/// join crosses in its second batch.
#[test]
fn mid_stream_errors_invalidate_partial_results() {
    use perm_algebra::{DataType, Schema, Tuple, Value, DEFAULT_CHUNK_SIZE};
    use perm_storage::Relation;

    // 2 probe rows of one key against 1 500 build rows of it: 3 000 joined rows, one batch of
    // 1 024 inside a budget of 2 000 and the next one past it.
    let engine = provenance_engine();
    let schema = Schema::from_pairs(&[("k", DataType::Int)]);
    for (table, rows) in [("few", 2), ("many", 1500)] {
        let tuples = (0..rows).map(|_| Tuple::new(vec![Value::Int(7)])).collect();
        let relation = Relation::from_parts(schema.clone(), tuples);
        engine.catalog().create_table_with_data(table, relation).unwrap();
    }
    let handle = serve(engine, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(client.roundtrip("set budget 2000").unwrap().unwrap(), "set budget");
    let sql = "SELECT f.k FROM few f JOIN many m ON f.k = m.k";

    // The frames arrive before the error does.
    client.send(&format!("query {sql}")).unwrap();
    assert!(matches!(client.read_response().unwrap(), ResponseFrame::Schema(_)));
    match client.read_response().unwrap() {
        ResponseFrame::Chunk(chunk) => assert_eq!(chunk.num_rows(), DEFAULT_CHUNK_SIZE),
        other => panic!("expected a result frame before the error, got {other:?}"),
    }
    loop {
        match client.read_response().unwrap() {
            ResponseFrame::Chunk(_) => {}
            ResponseFrame::Err(message) => {
                assert!(message.contains("row budget of 2000"), "mid-stream error: {message}");
                break;
            }
            other => panic!("the stream must end in its error, got {other:?}"),
        }
    }

    let err = client.roundtrip(&format!("query {sql}")).unwrap().unwrap_err();
    assert!(err.contains("row budget"), "mid-stream error surfaces: {err}");

    // The same statement through the shell prints rows incrementally, then an explicit
    // invalidation notice (no silent truncated table).
    let script = format!("{sql}\n\\q\n");
    let mut output = Vec::new();
    let errors =
        perm_service::shell::run_shell(&mut client, Cursor::new(script), &mut output).unwrap();
    assert_eq!(errors, 1);
    let text = String::from_utf8(output).unwrap();
    assert!(text.contains("row budget"), "error message printed: {text}");
    assert!(
        text.contains("result invalid") && text.contains("disregard the 1024 row(s)"),
        "explicit invalidation notice: {text}"
    );

    // The connection stays usable after both shapes of failed stream.
    assert_eq!(client.roundtrip("ping").unwrap().unwrap(), "pong");
    drop(client);
    handle.shutdown();
}

/// A result's dictionary memory lives from its `S` to its `D` or `-`, and the client decodes no
/// result frame outside one: an `R` before any `S` and a `D` after its result's `D` are
/// `InvalidData`, and so is a frame indexing a
/// remembered dictionary (encoding 4) at the start of a second result, although the same frame
/// decodes as the second frame of the first. A scripted server stands in to send them.
#[test]
fn result_frames_decode_only_inside_their_result() {
    use perm_algebra::{Array, DataChunk, DataType, Schema, Value};
    use perm_service::codec;

    // Two rows indexing rows 1 and 0 of the column's remembered dictionary.
    let mut remembered = vec![b'R'];
    remembered.extend_from_slice(&2u32.to_be_bytes());
    remembered.extend_from_slice(&1u16.to_be_bytes());
    remembered.push(4);
    for u32 in [2u32, 1, 0] {
        remembered.extend_from_slice(&u32.to_be_bytes()); // count, then the indices
    }
    // A first frame that sends a two-row dictionary: "a" and "b", each used twice.
    let dict = Arc::new(Array::from_values([Value::text("a"), Value::text("b")]).unwrap());
    let first = codec::encode_chunk(&DataChunk::new(vec![Arc::new(Array::Dict {
        indices: vec![0, 1, 1, 0].into(),
        dict,
    })]));
    let schema = codec::encode_schema(&Schema::from_pairs(&[("x", DataType::Text)]));
    let done = codec::encode_done(6);

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = {
        let (first, remembered) = (first.clone(), remembered.clone());
        thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            loop {
                let mut len = [0u8; 4];
                if stream.read_exact(&mut len).is_err() {
                    return; // client hung up
                }
                let mut request = vec![0u8; u32::from_be_bytes(len) as usize];
                stream.read_exact(&mut request).unwrap();
                let frames: Vec<&[u8]> = match &request[..] {
                    b"hello 6" => vec![b"+hello 6"],
                    b"query stray" => vec![&first],
                    b"query first" => vec![&schema, &first, &remembered, &done],
                    b"query late" => vec![&done],
                    b"query second" => vec![&schema, &remembered],
                    _ => vec![b"+pong"],
                };
                for frame in frames {
                    write_raw_frame(&mut stream, frame);
                }
            }
        })
    };
    let mut client = Client::connect(addr).unwrap();

    client.send("query stray").unwrap();
    let stray = client.read_response().unwrap_err();
    assert_eq!(stray.kind(), std::io::ErrorKind::InvalidData, "{stray}");
    assert!(stray.to_string().contains("outside a result"), "{stray}");

    let body = client.roundtrip("query first").unwrap().unwrap();
    assert_eq!(body, "x\na\nb\nb\na\nb\na", "the second frame indexes the first's dictionary");
    client.send("query late").unwrap();
    let late = client.read_response().unwrap_err();
    assert_eq!(late.kind(), std::io::ErrorKind::InvalidData, "{late}");

    client.send("query second").unwrap();
    assert!(matches!(client.read_response().unwrap(), ResponseFrame::Schema(_)));
    let stale = client.read_response().unwrap_err();
    assert_eq!(stale.kind(), std::io::ErrorKind::InvalidData, "{stale}");
    assert!(stale.to_string().contains("remembers no dictionary"), "{stale}");

    assert_eq!(client.roundtrip("ping").unwrap().unwrap(), "pong");
    drop(client);
    server.join().unwrap();
}

/// Open a raw, negotiated connection.
fn raw_connection(handle: &perm_service::ServerHandle) -> TcpStream {
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    write_raw_frame(&mut stream, b"hello 6");
    assert_eq!(read_raw_frame(&mut stream), b"+hello 6");
    stream
}

/// Send one statement and return the tags of its response frames, through the trailer.
fn stream_tags(stream: &mut TcpStream, statement: &str) -> Vec<u8> {
    write_raw_frame(stream, statement.as_bytes());
    let mut tags = vec![read_raw_frame(stream)[0]];
    while matches!(tags.last(), Some(b'S' | b'R')) {
        tags.push(read_raw_frame(stream)[0]);
    }
    tags
}

/// A `cancel` that arrives after its stream has ended — here, one sent on seeing `S` from an
/// empty table, and one sent on seeing the last `R` frame of a result — finds nothing to stop
/// and gets no response, so the connection's next request reads its own answer.
#[test]
fn a_cancel_that_misses_its_stream_gets_no_response() {
    let handle = serve(provenance_engine(), "127.0.0.1:0").unwrap();
    let mut stream = raw_connection(&handle);
    assert_eq!(stream_tags(&mut stream, "query CREATE TABLE t (x INT)"), b"SD");

    write_raw_frame(&mut stream, b"query SELECT x FROM t");
    assert_eq!(read_raw_frame(&mut stream)[0], b'S');
    write_raw_frame(&mut stream, b"cancel");
    assert_eq!(read_raw_frame(&mut stream)[0], b'D', "an empty result has no frame to cut");
    write_raw_frame(&mut stream, b"ping");
    assert_eq!(read_raw_frame(&mut stream), b"+pong");

    assert_eq!(stream_tags(&mut stream, "query INSERT INTO t VALUES (1), (2), (3)"), b"SD");
    write_raw_frame(&mut stream, b"query SELECT x FROM t");
    assert_eq!(read_raw_frame(&mut stream)[0], b'S');
    assert_eq!(read_raw_frame(&mut stream)[0], b'R');
    // The server polls for `cancel` before an `R` frame, never between the last one and `D`.
    write_raw_frame(&mut stream, b"cancel");
    assert_eq!(read_raw_frame(&mut stream)[0], b'D');
    write_raw_frame(&mut stream, b"ping");
    assert_eq!(read_raw_frame(&mut stream), b"+pong");
    handle.shutdown();
}

/// `docs/PROTOCOL.md`'s request table is the server's command set: every command word it lists
/// is known to a live server, and `ack` — gone since version 4 — is not.
#[test]
fn protocol_doc_lists_the_commands_the_server_knows() {
    let doc = include_str!("../../../docs/PROTOCOL.md");
    let table = doc.split("## Requests").nth(1).unwrap().split("\n## ").next().unwrap();
    let mut words: Vec<&str> = table
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .map(|request| request.split([' ', '`']).next().unwrap())
        .collect();
    assert!(words.len() >= 12, "the request table lists every command: {words:?}");
    // `shutdown` stops the server, so it goes last.
    words.sort_by_key(|word| *word == "shutdown");
    assert_eq!(words.last(), Some(&"shutdown"));

    let handle = serve(provenance_engine(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let unknown =
        |answer: Result<String, String>| answer.unwrap_or_else(|e| e).contains("unknown command");
    assert!(unknown(client.roundtrip("ack").unwrap()), "'ack' is not a command since version 4");
    for word in words {
        if word == "cancel" {
            // Outside a stream `cancel` has no answer; the next request reads its own.
            client.send(word).unwrap();
            assert_eq!(client.roundtrip("ping").unwrap().unwrap(), "pong");
        } else {
            assert!(!unknown(client.roundtrip(word).unwrap()), "PROTOCOL.md lists '{word}'");
        }
    }
    handle.wait();
}

/// Between statements `\cancel` has no stream to stop and the server sends nothing back: the
/// shell says so and goes on to its next line, and `roundtrip` refuses to wait for an answer.
#[test]
fn cancel_outside_a_stream_does_not_hang_the_shell() {
    let handle = serve(provenance_engine(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let (done, finished) = std::sync::mpsc::channel();
    thread::spawn(move || {
        let mut output = Vec::new();
        let script = Cursor::new("\\cancel\nSELECT 1\n");
        let errors = perm_service::shell::run_shell(&mut client, script, &mut output);
        let _ = done.send(errors.map(|errors| (errors, String::from_utf8(output).unwrap())));
    });
    let (errors, text) = finished
        .recv_timeout(Duration::from_secs(10))
        .expect("the shell is still waiting for an answer to \\cancel")
        .unwrap();
    assert_eq!(errors, 0, "{text}");
    assert!(text.starts_with("(no result stream to cancel)\n"), "{text}");
    assert_eq!(text.lines().last(), Some("1"), "the statement after \\cancel ran: {text}");

    let mut client = Client::connect(handle.addr()).unwrap();
    let refused = client.roundtrip("cancel").unwrap_err();
    assert_eq!(refused.kind(), std::io::ErrorKind::InvalidInput);
    assert_eq!(client.roundtrip("ping").unwrap().unwrap(), "pong", "nothing was sent");
    handle.shutdown();
}

#[test]
fn shell_runs_scripts_and_counts_errors() {
    let handle = serve(provenance_engine(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let script = "\
-- comment lines and blanks are skipped

CREATE TABLE items (id INT, price INT)
INSERT INTO items VALUES (1, 100), (2, 10)
\\prepare pricey SELECT id FROM items WHERE price > $1
\\exec pricey (50)
SELECT oops FROM nowhere
\\stats
\\q
";
    let mut output = Vec::new();
    let errors =
        perm_service::shell::run_shell(&mut client, Cursor::new(script), &mut output).unwrap();
    assert_eq!(errors, 1, "exactly the bad SELECT fails");
    let text = String::from_utf8(output).unwrap();
    assert!(text.contains("id\n1"), "prepared execution output present: {text}");
    assert!(text.contains("error:"), "error line present: {text}");
    assert!(text.contains("plan_cache"), "stats line present: {text}");

    handle.shutdown();
}

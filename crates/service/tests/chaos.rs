//! Chaos harness: one long test that hammers a live server with the failure modes the
//! lifecycle governor exists to contain — slow-loris half-frames, mid-stream disconnects,
//! corrupt and oversized frames, injected worker panics and injected socket I/O errors —
//! while a background thread churns DDL on the same engine. After every iteration the server
//! must answer a fresh client; at the end every gauge must be back at zero and the catalog
//! must still accept and serve new tables.
//!
//! This is deliberately a **single `#[test]`**: failpoints (`perm_exec::faults`) are
//! process-global, so fault-arming scenarios must not run concurrently with each other or
//! with unrelated tests in the same binary.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use perm_algebra::{DataType, Schema, Tuple, Value, DEFAULT_CHUNK_SIZE};
use perm_exec::faults;
use perm_service::shell::ResponseFrame;
use perm_service::{serve, Client, Engine};
use perm_storage::{Catalog, Relation};

const ITERATIONS: usize = 50;
const BIG_ROWS: usize = 8 * DEFAULT_CHUNK_SIZE;

fn chaos_engine() -> Arc<Engine> {
    let catalog = Catalog::new();
    let schema = Schema::from_pairs(&[("id", DataType::Int), ("payload", DataType::Text)]);
    let rows = (0..BIG_ROWS as i64)
        .map(|i| Tuple::new(vec![Value::Int(i), Value::text(format!("payload-{:04}", i % 53))]))
        .collect::<Vec<_>>();
    catalog.create_table_with_data("big", Relation::from_parts(schema, rows)).unwrap();
    Arc::new(Engine::with_catalog(catalog).with_workers(2))
}

/// Open a connection and leave a half-written frame on it: a 4-byte length prefix promising
/// more bytes than are ever sent. The caller keeps the socket alive so the server-side
/// connection thread sits in its frame-completion read until the socket drops.
fn slow_loris(addr: std::net::SocketAddr) -> TcpStream {
    let mut socket = TcpStream::connect(addr).unwrap();
    socket.write_all(&64u32.to_be_bytes()).unwrap();
    socket.write_all(b"hel").unwrap();
    socket
}

/// Start a streaming query, take the schema and one chunk, then vanish without reading the
/// rest — the server's next write or read fails and it must tear the stream down cleanly.
fn mid_stream_disconnect(addr: std::net::SocketAddr) {
    let mut client = Client::connect(addr).unwrap();
    client.send("query SELECT * FROM big").unwrap();
    match client.read_response().unwrap() {
        ResponseFrame::Schema(_) => {}
        other => panic!("expected schema frame, got {other:?}"),
    }
    match client.read_response().unwrap() {
        ResponseFrame::Chunk(_) => {}
        other => panic!("expected a result chunk, got {other:?}"),
    }
    drop(client);
}

/// Throw corrupt bytes at the server: a garbage-filled frame where the handshake belongs,
/// then an absurd length prefix. Both connections are abandoned; the server must shrug.
fn corrupt_frames(addr: std::net::SocketAddr) {
    let mut socket = TcpStream::connect(addr).unwrap();
    let garbage = [0xBAu8; 32];
    socket.write_all(&(garbage.len() as u32).to_be_bytes()).unwrap();
    socket.write_all(&garbage).unwrap();
    drop(socket);

    let mut socket = TcpStream::connect(addr).unwrap();
    // Larger than any sane frame cap; the server must reject it without allocating it.
    socket.write_all(&u32::MAX.to_be_bytes()).unwrap();
    let _ = socket.write_all(b"x");
    drop(socket);
}

/// Arm a one-shot panic in the executor's sort and run an `ORDER BY` query: the panic fence
/// must convert it into a clean error frame on this connection only.
fn injected_panic(addr: std::net::SocketAddr) {
    faults::configure("sort=panic*1").unwrap();
    let mut client = Client::connect(addr).unwrap();
    let err = client.roundtrip("query SELECT * FROM big ORDER BY id DESC").unwrap().unwrap_err();
    assert!(err.contains("panicked"), "expected the fenced panic message, got: {err}");
    faults::clear();
    // The same session keeps working once the fault is spent.
    assert_eq!(client.roundtrip("ping").unwrap().unwrap(), "pong");
}

/// Arm a one-shot socket-write error. Whichever connection writes next (this probe or the
/// background DDL churn) loses its connection mid-response; the server itself must survive.
fn injected_io_error(addr: std::net::SocketAddr) {
    // Connect *before* arming, or the server's own handshake reply consumes the fault.
    let mut client = Client::connect(addr).unwrap();
    faults::configure("socket-write=error*1").unwrap();
    // Either this roundtrip absorbs the fault (I/O error / mid-frame close) or another
    // connection did — both are fine, the per-iteration probe below proves liveness.
    let _ = client.roundtrip("ping");
    faults::clear();
}

#[test]
fn server_survives_fifty_iterations_of_chaos() {
    let engine = chaos_engine();
    let handle = serve(engine.clone(), "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    // Background DDL churn on the shared catalog for the whole run; it reconnects whenever an
    // injected fault takes its connection down.
    let stop = Arc::new(AtomicBool::new(false));
    let ddl = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect_with_retry(addr, 5).unwrap();
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let name = format!("chaos_ddl_{}", i % 4);
                let churn = client
                    .roundtrip(&format!("query CREATE TABLE {name} (id INT)"))
                    .and_then(|_| client.roundtrip(&format!("query INSERT INTO {name} VALUES (1)")))
                    .and_then(|_| client.roundtrip(&format!("query DROP TABLE IF EXISTS {name}")));
                if churn.is_err() {
                    match Client::connect_with_retry(addr, 5) {
                        Ok(fresh) => client = fresh,
                        Err(_) => break,
                    }
                }
                i += 1;
            }
        })
    };

    let mut lorises: Vec<TcpStream> = Vec::new();
    for i in 0..ITERATIONS {
        match i % 5 {
            0 => lorises.push(slow_loris(addr)),
            1 => mid_stream_disconnect(addr),
            2 => corrupt_frames(addr),
            3 => injected_panic(addr),
            4 => injected_io_error(addr),
            _ => unreachable!(),
        }
        // Liveness probe: a fresh client must get a prompt answer after every round.
        let mut probe = Client::connect(addr).unwrap();
        assert_eq!(probe.roundtrip("ping").unwrap().unwrap(), "pong", "iteration {i}");
    }

    stop.store(true, Ordering::Relaxed);
    ddl.join().unwrap();
    faults::clear();
    drop(lorises);

    // Every per-query resource must drain back to zero once the dust settles.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = engine.governor().stats();
        if engine.stream_buffered_bytes() == 0
            && stats.active_queries == 0
            && stats.reserved_bytes == 0
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "gauges failed to return to zero: buffered={} stats={stats:?}",
            engine.stream_buffered_bytes()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Catalog consistency: the survivor still serves the original data and accepts new DDL.
    let mut client = Client::connect(addr).unwrap();
    let body = client.roundtrip("query SELECT * FROM big").unwrap().unwrap();
    assert_eq!(body.lines().count(), BIG_ROWS + 1, "big table intact (header + rows)");
    client.roundtrip("query CREATE TABLE chaos_final (id INT)").unwrap().unwrap();
    client.roundtrip("query INSERT INTO chaos_final VALUES (1), (2)").unwrap().unwrap();
    let body = client.roundtrip("query SELECT * FROM chaos_final ORDER BY id").unwrap().unwrap();
    assert_eq!(body, "id\n1\n2");
    drop(client);

    handle.shutdown();
}

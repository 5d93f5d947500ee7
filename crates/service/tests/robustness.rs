//! Lifecycle-governor robustness tests: the engine-wide buffered-bytes gauge and the
//! governor's reservation ledger must return to exactly zero however a query ends — drained,
//! dropped mid-iteration, cancelled in process, cancelled over the wire, or rejected by a
//! memory limit — and the session must stay usable afterwards.
//!
//! No test here arms failpoints (those are process-global and live in `chaos.rs`).

use std::sync::Arc;

use perm_algebra::{DataType, Schema, Tuple, Value, DEFAULT_CHUNK_SIZE};
use perm_service::shell::ResponseFrame;
use perm_service::{serve, Client, Engine, GovernorLimits};
use perm_storage::{Catalog, Relation};

/// Rows in the `big` table — enough for several dozen chunks, so every test has a genuine
/// mid-stream to interrupt.
const BIG_ROWS: usize = 64 * DEFAULT_CHUNK_SIZE;

/// An engine over a catalog with a 64-chunk `big` table and a 3-row `tiny` table.
fn big_engine() -> Arc<Engine> {
    let catalog = Catalog::new();
    let schema = Schema::from_pairs(&[("id", DataType::Int), ("payload", DataType::Text)]);
    let rows = (0..BIG_ROWS as i64)
        .map(|i| Tuple::new(vec![Value::Int(i), Value::text(format!("payload-{:06}", i % 97))]))
        .collect::<Vec<_>>();
    catalog.create_table_with_data("big", Relation::from_parts(schema, rows)).unwrap();

    let tiny_schema = Schema::from_pairs(&[("id", DataType::Int)]);
    let tiny = (0..3).map(|i| Tuple::new(vec![Value::Int(i)])).collect::<Vec<_>>();
    catalog.create_table_with_data("tiny", Relation::from_parts(tiny_schema, tiny)).unwrap();

    Arc::new(Engine::with_catalog(catalog).with_workers(2))
}

fn assert_quiescent(engine: &Engine) {
    // The stream gauge is exact: a stream takes each chunk off as it hands it out and the rest
    // when it ends, errs or is dropped, so zero is guaranteed the moment a stream ends.
    assert_eq!(engine.stream_buffered_bytes(), 0, "stream gauge must drain to zero");
    // Governor stats quiesce within an instant rather than atomically with the query's end:
    // helper jobs queued on the shared worker pool can hold a context clone (and with it the
    // query's grant) until a worker pops them and finds nothing left to claim.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let stats = engine.governor().stats();
        if stats.active_queries == 0 && stats.reserved_bytes == 0 {
            return;
        }
        if std::time::Instant::now() > deadline {
            panic!("governor did not quiesce: {stats:?}");
        }
        std::thread::yield_now();
    }
}

/// Regression for the gauge leak: dropping a stream after pulling only one chunk used to
/// strand the byte accounting of everything already materialized. `Drop` takes the chunks not
/// handed out off the gauge, so it is zero the instant `drop` returns — no retries, no sleeps.
#[test]
fn dropped_stream_mid_iteration_releases_gauge_and_reservations() {
    let engine = big_engine();
    let session = engine.session();

    let mut stream = session.execute_streaming("SELECT * FROM big").unwrap();
    let first = stream.next_chunk().unwrap().unwrap();
    assert!(first.num_rows() > 0);
    drop(stream);
    assert_quiescent(&engine);

    // The same holds when execution ends in an *error* (here: the row budget) rather than the
    // stream being abandoned.
    let mut session = engine.session();
    session.set_row_budget(Some(DEFAULT_CHUNK_SIZE * 2));
    let mut stream = session.execute_streaming("SELECT * FROM big").unwrap();
    let mut saw_error = false;
    while let Some(item) = stream.next_chunk() {
        if let Err(e) = item {
            assert!(e.to_string().contains("row budget"), "unexpected error: {e}");
            saw_error = true;
            break;
        }
    }
    assert!(saw_error, "the row budget must fail the stream");
    drop(stream);
    assert_quiescent(&engine);

    // And the session (engine) stays fully usable.
    let relation = engine.session().execute("SELECT * FROM tiny").unwrap();
    assert_eq!(relation.num_rows(), 3);
}

/// The stream gauge counts what a stream holds between pulls beside the catalog: the chunks of
/// its last pull not yet handed out. A scan's result is the stored chunks themselves and counts
/// nothing; a filter's result is one index buffer over each stored chunk, 4 B per kept row, not
/// the chunk it reads — and never more than one pull's `workers` morsels of it at once.
#[test]
fn the_stream_gauge_counts_what_a_result_holds_beside_the_stored_columns() {
    let engine = big_engine();
    let session = engine.session();
    let mut stream = session.execute_streaming("SELECT * FROM big").unwrap();
    stream.next_chunk().unwrap().unwrap();
    assert_eq!(engine.stream_buffered_bytes(), 0, "a scan's result is the catalog's chunks");
    drop(stream);

    // A pull runs `workers` morsels: the one chunk handed out leaves the others of its pull,
    // each ~11 kept rows of its 1024.
    let pull_bytes = engine.workers() * (DEFAULT_CHUNK_SIZE / 100 + 1) * 4;
    let mut stream = session.execute_streaming("SELECT * FROM big WHERE id % 100 = 0").unwrap();
    let mut delivered = 0;
    let mut held = Vec::new();
    while let Some(chunk) = stream.next_chunk() {
        delivered += chunk.unwrap().num_rows();
        held.push(engine.stream_buffered_bytes());
    }
    assert_eq!(delivered, BIG_ROWS.div_ceil(100));
    assert!(held[0] > 0, "the first pull's other morsels are held: {held:?}");
    assert!(
        held.iter().all(|&gauge| gauge < pull_bytes),
        "more than one pull's morsels held at once (cap {pull_bytes} B): {held:?}"
    );
    assert_quiescent(&engine);
}

/// In-process cancellation: `QueryStream::cancel` trips the executor token, the stream ends
/// early (never delivering the full result), and every gauge returns to zero.
#[test]
fn cancelled_stream_stops_early_and_frees_memory() {
    let engine = big_engine();
    let session = engine.session();

    let mut stream = session.execute_streaming("SELECT * FROM big").unwrap();
    let first = stream.next_chunk().unwrap().unwrap();
    let mut delivered = first.num_rows();
    stream.cancel();
    // Drain what is left; the stream must stop at a chunk boundary.
    for item in stream.by_ref() {
        match item {
            Ok(chunk) => delivered += chunk.num_rows(),
            Err(e) => {
                assert!(e.to_string().contains("cancelled"), "unexpected error: {e}");
                break;
            }
        }
    }
    assert!(delivered < BIG_ROWS, "cancel must cut the stream short, got all {delivered} rows");
    drop(stream);
    assert_quiescent(&engine);
}

/// Rows on each side of the `pairs` join: every row matches every row of the other side, so the
/// join's output — 1 000 000 rows from two tables of a few kilobytes — is a stream the server is
/// still producing when the client's `cancel` arrives.
const PAIR_ROWS: usize = 1000;

/// Wire-level mid-stream cancel: the client sends `cancel` after the first result frame and
/// reads on; the frames already written still arrive, then the server answers with a
/// terminal `cancelled` error — never `Done` — and serves the next request as if nothing
/// happened. The statement's top region is a join probe, pulled between frames, so the cancel
/// stops execution: a row budget one row short of the join's output never trips, because the
/// join stopped producing rows long before its end.
#[test]
fn wire_cancel_mid_stream_stops_promptly_and_session_survives() {
    let engine = big_engine();
    let schema = Schema::from_pairs(&[("k", DataType::Int)]);
    for table in ["pairs_left", "pairs_right"] {
        let rows = (0..PAIR_ROWS).map(|_| Tuple::new(vec![Value::Int(7)])).collect();
        let relation = Relation::from_parts(schema.clone(), rows);
        engine.catalog().create_table_with_data(table, relation).unwrap();
    }
    let handle = serve(engine.clone(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let full = PAIR_ROWS * PAIR_ROWS;
    assert_eq!(
        client.roundtrip(&format!("set budget {}", full - 1)).unwrap().unwrap(),
        "set budget"
    );

    client.send("query SELECT * FROM pairs_left l JOIN pairs_right r ON l.k = r.k").unwrap();
    match client.read_response().unwrap() {
        ResponseFrame::Schema(schema) => assert_eq!(schema.arity(), 2),
        other => panic!("expected schema frame, got {other:?}"),
    }
    let mut delivered = match client.read_response().unwrap() {
        ResponseFrame::Chunk(chunk) => chunk.num_rows(),
        other => panic!("expected a result chunk before the join's end, got {other:?}"),
    };

    client.send("cancel").unwrap();
    loop {
        match client.read_response().unwrap() {
            ResponseFrame::Chunk(chunk) => delivered += chunk.num_rows(),
            ResponseFrame::Err(message) => {
                assert!(message.contains("cancelled"), "unexpected terminal frame: {message}");
                break;
            }
            other => panic!("stream must end in a cancelled error, got {other:?}"),
        }
    }
    assert!(delivered < full, "cancel must cut the stream short, got all {delivered} rows");

    // The connection is back in request/response sync and the engine is clean.
    assert_eq!(client.roundtrip("ping").unwrap().unwrap(), "pong");
    assert_quiescent(&engine);
    assert_eq!(client.roundtrip("set budget none").unwrap().unwrap(), "set budget");
    let body = client.roundtrip("query SELECT * FROM tiny").unwrap().unwrap();
    assert_eq!(body.lines().count(), 4, "header plus three rows");

    // `cancel` outside a stream has nothing to stop and no answer, not a hang or an error
    // frame the next request would misread.
    client.send("cancel").unwrap();
    assert_eq!(client.roundtrip("ping").unwrap().unwrap(), "pong");

    drop(client);
    handle.shutdown();
}

/// Per-query memory limits reject oversized queries with a clean `resource exhausted` error
/// while the engine keeps serving everything that fits.
#[test]
fn per_query_memory_limit_rejects_cleanly() {
    let catalog = Catalog::new();
    let schema = Schema::from_pairs(&[("id", DataType::Int), ("payload", DataType::Text)]);
    let rows = (0..BIG_ROWS as i64)
        .map(|i| Tuple::new(vec![Value::Int(i), Value::text(format!("payload-{:06}", i % 97))]))
        .collect::<Vec<_>>();
    catalog.create_table_with_data("big", Relation::from_parts(schema, rows)).unwrap();
    let tiny_schema = Schema::from_pairs(&[("id", DataType::Int)]);
    let tiny = (0..3).map(|i| Tuple::new(vec![Value::Int(i)])).collect::<Vec<_>>();
    catalog.create_table_with_data("tiny", Relation::from_parts(tiny_schema, tiny)).unwrap();

    let engine =
        Arc::new(Engine::with_catalog(catalog).with_workers(2).with_memory_limits(
            GovernorLimits { engine_bytes: None, query_bytes: Some(64 * 1024) },
        ));
    let session = engine.session();

    // The sort, the aggregation and the set operation read the catalog's columns, and are
    // charged what they build over them: the sort's order, the hashes and groups, the row tables.
    for sql in [
        "SELECT * FROM big ORDER BY id DESC",
        "SELECT id, count(*) FROM big GROUP BY id",
        "SELECT id FROM big EXCEPT SELECT id FROM tiny",
    ] {
        let err = session.execute(sql).unwrap_err();
        assert!(err.to_string().contains("resource exhausted"), "{sql}: got {err}");
        assert_quiescent(&engine);
    }

    // Queries under the limit still run, on the same session.
    for sql in [
        "SELECT * FROM tiny ORDER BY id",
        "SELECT id, count(*) FROM tiny GROUP BY id",
        "SELECT id FROM tiny EXCEPT SELECT id FROM tiny WHERE id > 2",
    ] {
        assert_eq!(session.execute(sql).unwrap().num_rows(), 3, "{sql}");
        assert_quiescent(&engine);
    }

    // The failure is visible in the governor's shed counter via server stats.
    let handle = serve(engine.clone(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let stats = client.roundtrip("stats").unwrap().unwrap();
    assert!(stats.contains("governor active_queries=0"), "stats missing governor line: {stats}");
    drop(client);
    handle.shutdown();
}

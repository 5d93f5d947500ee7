//! Concurrency acceptance tests: many sessions interleaving DML and `SELECT PROVENANCE`
//! queries over one shared engine, with every result matching *some* committed snapshot.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use perm_core::ProvenanceRewriter;
use perm_service::Engine;

fn provenance_engine() -> Arc<Engine> {
    Arc::new(Engine::new().with_rewriter(Arc::new(ProvenanceRewriter::new())))
}

/// ≥ 8 concurrent sessions: 4 writers issue single-statement `INSERT` commits while 6 readers
/// run provenance-rewritten SPJ queries. Each reader query self-joins the table, so its result
/// cardinality is only a perfect square (and only consistent with the committed-row counter) if
/// the whole execution saw one atomic snapshot.
#[test]
fn interleaved_dml_and_provenance_queries_see_committed_snapshots() {
    let engine = provenance_engine();
    let setup = engine.session();
    setup.execute("CREATE TABLE events (id INT, payload INT)").unwrap();
    setup.execute("INSERT INTO events VALUES (-1, 0)").unwrap();

    // One committed row so far; every writer bumps this *after* its INSERT commits, so at any
    // instant `committed <= true rows <= committed + writers`.
    let committed = Arc::new(AtomicU64::new(1));
    let stop = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::new();

    const WRITERS: usize = 4;
    const READERS: usize = 6;

    // Each writer commits a bounded number of rows (keeping the readers' O(n²) consistency
    // probes cheap) but keeps going while readers run, which creates the race window.
    const ROWS_PER_WRITER: u64 = 100;
    for w in 0..WRITERS {
        let engine = engine.clone();
        let committed = committed.clone();
        let stop = stop.clone();
        threads.push(thread::spawn(move || {
            let session = engine.session();
            for i in 0..ROWS_PER_WRITER {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let id = (w as u64) * 1_000_000 + i;
                session.execute(&format!("INSERT INTO events VALUES ({id}, {i})")).unwrap();
                committed.fetch_add(1, Ordering::SeqCst);
                thread::yield_now();
            }
        }));
    }

    for r in 0..READERS {
        let engine = engine.clone();
        let committed = committed.clone();
        threads.push(thread::spawn(move || {
            let session = engine.session();
            for _ in 0..25 {
                let lo = committed.load(Ordering::SeqCst);
                // A provenance-rewritten SPJ query whose FROM clause scans `events` twice: the
                // equi-join on the unique id yields exactly one row per stored row, with the
                // provenance attributes of both references attached.
                let result = session
                    .execute(
                        "SELECT PROVENANCE a.id FROM events AS a, events AS b WHERE a.id = b.id",
                    )
                    .unwrap();
                let hi = committed.load(Ordering::SeqCst) + WRITERS as u64;
                let n = result.num_rows() as u64;
                assert!(
                    lo <= n && n <= hi,
                    "reader {r}: result of {n} rows matches no committed snapshot \
                     (expected between {lo} and {hi})"
                );
                // Both provenance attribute groups (a and b) are present: id, payload twice.
                assert_eq!(result.schema().arity(), 1 + 4, "original column + 2x2 prov attrs");
                // Cross-check with an unfiltered self cross product: a torn snapshot would make
                // the cardinality a non-square.
                let square =
                    session.execute("SELECT count(*) AS c FROM events AS a, events AS b").unwrap();
                let rows = match square.tuples()[0][0] {
                    perm_algebra::Value::Int(c) => c as u64,
                    ref other => panic!("unexpected count value {other:?}"),
                };
                let root = (rows as f64).sqrt().round() as u64;
                assert_eq!(root * root, rows, "reader {r}: torn snapshot in self cross product");
            }
        }));
    }

    // Readers run a fixed number of iterations; once they finish, stop the writers.
    let writers: Vec<_> = threads.drain(..WRITERS).collect();
    for reader in threads {
        reader.join().unwrap();
    }
    stop.store(true, Ordering::SeqCst);
    for writer in writers {
        writer.join().unwrap();
    }

    // Post-condition: the table really grew and everything still queries cleanly.
    let final_count = engine.session().execute("SELECT count(*) AS c FROM events").unwrap();
    assert_eq!(
        final_count.tuples()[0][0],
        perm_algebra::Value::Int(committed.load(Ordering::SeqCst) as i64)
    );
}

/// Writers committing to *two* tables atomically via SQL-visible sessions: readers joining both
/// tables must always see matching row counts.
#[test]
fn multi_table_commits_are_atomic_for_readers() {
    let engine = provenance_engine();
    let setup = engine.session();
    setup.execute("CREATE TABLE orders (id INT)").unwrap();
    setup.execute("CREATE TABLE lines (order_id INT)").unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let engine = engine.clone();
        let stop = stop.clone();
        thread::spawn(move || {
            for i in 0i64..3000 {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                // The storage-level atomic multi-table commit the service builds on.
                engine
                    .catalog()
                    .insert_many(vec![
                        ("orders", vec![perm_algebra::tuple![i]]),
                        ("lines", vec![perm_algebra::tuple![i]]),
                    ])
                    .unwrap();
                thread::yield_now();
            }
        })
    };

    let session = engine.session();
    for _ in 0..150 {
        let result = session
            .execute("SELECT count(*) AS c FROM orders UNION ALL SELECT count(*) AS c FROM lines")
            .unwrap();
        assert_eq!(
            result.tuples()[0],
            result.tuples()[1],
            "orders and lines must never diverge within one query"
        );
    }
    stop.store(true, Ordering::SeqCst);
    writer.join().unwrap();
}

/// `INSERT … SELECT` commits the result's chunks as chunks: the snapshot a reader holds is
/// untouched, the new version shares the full chunks already stored, and what lands in the
/// table is the query's result, row for row.
#[test]
fn insert_select_appends_the_result_chunks_under_a_reader() {
    use perm_algebra::{tuple, DEFAULT_CHUNK_SIZE};

    let engine = provenance_engine();
    let session = engine.session();
    session.execute("CREATE TABLE src (id INT, payload TEXT)").unwrap();
    session.execute("CREATE TABLE dst (id INT, payload TEXT)").unwrap();
    let source: Vec<_> = (0..3000i64).map(|i| tuple![i, format!("p{}", i % 13)]).collect();
    engine.catalog().insert("src", source.clone()).unwrap();
    session.execute("INSERT INTO dst VALUES (-1, 'seed')").unwrap();

    let reader = engine.catalog().table_arc("dst").unwrap();
    session.execute("INSERT INTO dst SELECT id, payload FROM src WHERE id >= 0").unwrap();
    assert_eq!(reader.tuples(), vec![tuple![-1, "seed"]], "the reader's snapshot is unchanged");

    let first = engine.catalog().table_arc("dst").unwrap();
    assert_eq!(first.num_rows(), 3001);
    let sizes: Vec<usize> = first.chunks().iter().map(|c| c.num_rows()).collect();
    assert_eq!(sizes, [DEFAULT_CHUNK_SIZE, DEFAULT_CHUNK_SIZE, 3001 - 2 * DEFAULT_CHUNK_SIZE]);
    let mut expected = vec![tuple![-1, "seed"]];
    expected.extend(source);
    assert_eq!(first.sorted().tuples(), expected);

    // A second commit under `first` tops up the tail and leaves the full chunks shared.
    session.execute("INSERT INTO dst SELECT id, payload FROM src WHERE id < 100").unwrap();
    let second = engine.catalog().table_arc("dst").unwrap();
    assert_eq!((first.num_rows(), second.num_rows()), (3001, 3101));
    for (old, new) in first.chunks().iter().zip(second.chunks().iter()).take(2) {
        assert!(Arc::ptr_eq(old.column(0), new.column(0)), "full chunks are shared, not copied");
    }
}

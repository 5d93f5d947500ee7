//! Observability acceptance tests: the metrics registry's gauges return to exactly zero after
//! every query outcome (ok / error / cancelled / shed), the latency histogram counts every
//! ticketed query, and `EXPLAIN ANALYZE` reports the same row counts the query actually
//! streams.

use std::sync::Arc;
use std::time::{Duration, Instant};

use perm_algebra::{DataType, Schema, Tuple, Value};
use perm_core::ProvenanceRewriter;
use perm_service::{Engine, GovernorLimits};
use perm_storage::{Catalog, Relation};

const BIG_ROWS: usize = 40_000;

/// Catalog with a `big` table (large enough to shed under a tiny per-query memory limit and to
/// stream over multiple chunks) and a `tiny` one.
fn catalog() -> Catalog {
    let catalog = Catalog::new();
    let schema = Schema::from_pairs(&[("id", DataType::Int), ("payload", DataType::Text)]);
    let rows = (0..BIG_ROWS as i64)
        .map(|i| Tuple::new(vec![Value::Int(i), Value::text(format!("payload-{:06}", i % 97))]))
        .collect::<Vec<_>>();
    catalog.create_table_with_data("big", Relation::from_parts(schema, rows)).unwrap();

    let tiny_schema = Schema::from_pairs(&[("id", DataType::Int)]);
    let tiny = (0..3).map(|i| Tuple::new(vec![Value::Int(i)])).collect::<Vec<_>>();
    catalog.create_table_with_data("tiny", Relation::from_parts(tiny_schema, tiny)).unwrap();
    catalog
}

/// Wait for the gauges that quiesce asynchronously (governor grants held by worker-pool jobs
/// until a worker pops them) to reach zero; the stream gauge is checked beside them.
fn wait_for_zero_gauges(engine: &Engine) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let snap = engine.stats_snapshot();
        if snap.governor.active_queries == 0
            && snap.governor.reserved_bytes == 0
            && snap.stream_buffered == 0
            && snap.metrics.queries_active == 0
        {
            return;
        }
        assert!(Instant::now() < deadline, "gauges failed to quiesce: {snap:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Every query outcome — ok, error, cancelled and shed — leaves all gauges at exactly zero,
/// bumps its own outcome counter, and is counted once in the latency histogram.
#[test]
fn gauges_return_to_zero_after_every_outcome() {
    let engine =
        Arc::new(Engine::with_catalog(catalog()).with_workers(2).with_memory_limits(
            GovernorLimits { engine_bytes: None, query_bytes: Some(64 * 1024) },
        ));
    let session = engine.session();

    // ok: streams to completion.
    let relation = session.execute("SELECT * FROM tiny").unwrap();
    assert_eq!(relation.num_rows(), 3);

    // ok: the query inside an `INSERT ... SELECT` is ticketed like any other (the DDL is not).
    session.execute("CREATE TABLE copy (id INT)").unwrap();
    session.execute("INSERT INTO copy SELECT id FROM tiny").unwrap();
    assert_eq!(session.execute("SELECT * FROM copy").unwrap().num_rows(), 3);

    // error: the row budget trips mid-execution (after the ticket is open).
    let mut limited = engine.session();
    limited.set_row_budget(Some(10));
    limited.execute("SELECT * FROM big").unwrap_err();

    // cancelled: drop the stream before draining it.
    let stream = session.execute_streaming("SELECT * FROM big").unwrap();
    drop(stream);

    // shed: the sort buffer blows the 64 KiB per-query memory limit.
    let err = session.execute("SELECT * FROM big ORDER BY id DESC").unwrap_err();
    assert!(err.to_string().contains("resource exhausted"), "got: {err}");

    wait_for_zero_gauges(&engine);
    let snap = engine.stats_snapshot();
    assert_eq!(snap.metrics.queries_ok, 3, "{snap:?}");
    assert_eq!(snap.metrics.queries_error, 1, "{snap:?}");
    assert_eq!(snap.metrics.queries_cancelled, 1, "{snap:?}");
    assert_eq!(snap.metrics.queries_shed, 1, "{snap:?}");
    // Six tickets were opened, so the latency histogram saw six observations.
    assert_eq!(snap.metrics.latency.count, 6);
    // All six queries passed admission; the per-query limit rejects during reservation, which
    // counts as a shed *outcome* but not as an engine-wide governor shed.
    assert_eq!(snap.governor.admitted, 6, "{snap:?}");
    assert_eq!(snap.governor.shed_queries, 0, "{snap:?}");
}

/// The histogram's total count tracks the number of queries issued, and concurrent traffic
/// still leaves every gauge at zero once it drains.
#[test]
fn histogram_counts_concurrent_queries_and_gauges_drain() {
    let engine = Arc::new(Engine::with_catalog(catalog()).with_workers(2));
    const THREADS: usize = 4;
    const PER_THREAD: usize = 8;
    let mut handles = Vec::new();
    for _ in 0..THREADS {
        let engine = engine.clone();
        handles.push(std::thread::spawn(move || {
            let session = engine.session();
            for _ in 0..PER_THREAD {
                let relation = session.execute("SELECT * FROM tiny").unwrap();
                assert_eq!(relation.num_rows(), 3);
            }
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }

    wait_for_zero_gauges(&engine);
    let snap = engine.stats_snapshot();
    let issued = (THREADS * PER_THREAD) as u64;
    assert_eq!(snap.metrics.queries_ok, issued);
    assert_eq!(snap.metrics.latency.count, issued);
    // The histogram's per-bucket counts are consistent with the total.
    let buckets: u64 = snap.metrics.latency.buckets.iter().sum();
    assert_eq!(buckets, issued);
}

/// `EXPLAIN ANALYZE` reports the row count the query actually produces — both on the root
/// operator line and in the trailing `Total rows:` line — for plain and provenance-rewritten
/// queries.
#[test]
fn explain_analyze_row_counts_match_direct_execution() {
    let engine = Arc::new(
        Engine::with_catalog(catalog())
            .with_workers(2)
            .with_rewriter(Arc::new(ProvenanceRewriter::new())),
    );
    let session = engine.session();

    for sql in [
        "SELECT * FROM tiny",
        "SELECT * FROM big WHERE id < 1500",
        "SELECT PROVENANCE * FROM tiny",
        "SELECT PROVENANCE t.id FROM tiny t, tiny u WHERE t.id = u.id",
    ] {
        let direct_rows = session.execute(sql).unwrap().num_rows();

        let profile = session.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        let lines: Vec<String> = profile
            .iter()
            .map(|t| match &t.values()[0] {
                Value::Text(s) => s.to_string(),
                other => panic!("profile column must be text, got {other:?}"),
            })
            .collect();
        let text = lines.join("\n");

        // The root operator's actuals carry the result cardinality...
        let root = lines.first().unwrap_or_else(|| panic!("empty profile for {sql}"));
        assert!(
            root.contains(&format!("rows={direct_rows} ")) || root.contains("(fused"),
            "root line should report rows={direct_rows} for {sql}:\n{text}"
        );
        // ...and the summary line matches the directly-executed result exactly.
        assert!(
            text.ends_with(&format!("Total rows: {direct_rows}")),
            "profile should end with 'Total rows: {direct_rows}' for {sql}:\n{text}"
        );
        // Provenance queries must show the *rewritten* plan — the one that ran carries the
        // rewrite's `prov_*` output attributes.
        if sql.contains("PROVENANCE") {
            assert!(
                text.contains("prov_"),
                "rewritten plan should project prov_* attributes:\n{text}"
            );
        }
    }
    wait_for_zero_gauges(&engine);
}

/// Plain `EXPLAIN` renders the optimized plan with per-operator row estimates and does *not*
/// execute the query; `EXPLAIN ANALYZE` carries the same estimates next to the actuals.
#[test]
fn explain_shows_estimated_rows_without_executing() {
    let engine = Arc::new(
        Engine::with_catalog(catalog())
            .with_workers(2)
            .with_rewriter(Arc::new(ProvenanceRewriter::new())),
    );
    let session = engine.session();

    let plan = session.execute("EXPLAIN SELECT * FROM big WHERE id < 1500").unwrap();
    assert_eq!(&*plan.schema().attributes()[0].name, "QUERY PLAN");
    let text = plan
        .iter()
        .map(|t| match &t.values()[0] {
            Value::Text(s) => s.to_string(),
            other => panic!("plan column must be text, got {other:?}"),
        })
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("est_rows="), "every operator line carries an estimate:\n{text}");
    // The scan estimate comes from real table statistics, not the no-stats default.
    assert!(
        text.contains(&format!("est_rows={BIG_ROWS}")),
        "base relation estimate should match the table row count:\n{text}"
    );
    // EXPLAIN only plans: nothing executed, so no query latency was recorded for it beyond
    // the EXPLAIN itself and the row counter never saw `big`'s 40k rows.
    let snap = engine.stats_snapshot();
    assert!(snap.metrics.rows_streamed < BIG_ROWS as u64, "EXPLAIN must not execute: {snap:?}");

    // EXPLAIN ANALYZE executes and shows estimate vs. actual side by side.
    let profile = session
        .execute("EXPLAIN ANALYZE SELECT PROVENANCE t.id FROM tiny t, tiny u WHERE t.id = u.id")
        .unwrap();
    let text = profile
        .iter()
        .map(|t| match &t.values()[0] {
            Value::Text(s) => s.to_string(),
            other => panic!("profile column must be text, got {other:?}"),
        })
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("est_rows="), "profile lines carry estimates:\n{text}");
    assert!(text.contains("(actual:"), "profile lines carry actuals:\n{text}");
    wait_for_zero_gauges(&engine);
}

/// The stats snapshot exposes per-table row counts with their freshness version, and planning
/// join queries drives the optimizer counters (estimator calls, build-side swaps, pushed
/// sorts).
#[test]
fn stats_snapshot_reports_tables_and_optimizer_counters() {
    let engine = Arc::new(Engine::with_catalog(catalog()).with_workers(2));
    let session = engine.session();

    let snap = engine.stats_snapshot();
    let big = snap.tables.iter().find(|t| t.name == "big").expect("big table listed");
    let tiny = snap.tables.iter().find(|t| t.name == "tiny").expect("tiny table listed");
    assert_eq!(big.rows, BIG_ROWS);
    assert_eq!(tiny.rows, 3);
    // Resident bytes are the stored chunks' own accounting: 8 per Int plus the text column.
    assert_eq!(big.bytes, engine.catalog().table_arc("big").unwrap().byte_size());
    assert!(big.bytes > BIG_ROWS * 8 && tiny.bytes >= 3 * 8, "{big:?} {tiny:?}");

    // A join whose build side (the right input) is the larger table: planning must consult
    // the estimator and swap the build side so `tiny` is built and `big` is probed.
    session.execute("SELECT t.id FROM tiny t, big b WHERE t.id = b.id").unwrap();
    let snap = engine.stats_snapshot();
    assert!(snap.metrics.estimator_invocations > 0, "estimator should run: {snap:?}");
    assert!(snap.metrics.build_sides_swapped > 0, "build side should swap: {snap:?}");
    assert_eq!(snap.metrics.sorts_pushed, 0, "no ORDER BY yet: {snap:?}");

    // An ORDER BY on the left side of a LEFT JOIN sorts `big` below the join.
    session
        .execute("SELECT b.id FROM big b LEFT JOIN tiny t ON b.id = t.id ORDER BY b.id")
        .unwrap();
    assert_eq!(engine.stats_snapshot().metrics.sorts_pushed, 1);

    // The per-table lines surface in the human-readable stats rendering too.
    let text = perm_service::render_stats_text(&snap);
    assert!(text.contains(&format!("table big rows=40000 bytes={} ", big.bytes)), "{text}");
    assert!(text.contains("table tiny rows=3 bytes="), "{text}");
    // ...and in the Prometheus exposition, next to the row and freshness families.
    let prom = perm_service::metrics::render_prometheus(&snap);
    for family in ["perm_table_rows", "perm_table_bytes", "perm_table_stats_version"] {
        assert!(prom.contains(&format!("# TYPE {family} gauge")), "{prom}");
        for table in ["big", "tiny"] {
            let sample = prom
                .lines()
                .find(|l| l.starts_with(&format!("{family}{{table=\"{table}\"}} ")))
                .unwrap_or_else(|| panic!("no {family} sample for {table}:\n{prom}"));
            let (_, value) = sample.rsplit_once(' ').unwrap();
            assert!(value.parse::<u64>().is_ok(), "{sample}");
        }
    }
    assert!(prom.contains(&format!("perm_table_bytes{{table=\"big\"}} {}", big.bytes)), "{prom}");
    wait_for_zero_gauges(&engine);
}

/// Table names that need escaping — a backslash, non-ASCII text, a newline — come out as one
/// well-formed sample each in Prometheus and one line each in `stats`.
#[test]
fn table_labels_are_escaped_in_both_renderings() {
    let engine = Arc::new(Engine::with_catalog(Catalog::new()));
    let session = engine.session();
    for name in ["we\\ird", "größe", "two\nlines"] {
        session.execute(&format!("CREATE TABLE \"{name}\" (a INT)")).unwrap();
    }
    let snap = engine.stats_snapshot();
    let prom = perm_service::metrics::render_prometheus(&snap);
    for label in [r"we\\ird", "größe", r"two\nlines"] {
        assert!(prom.contains(&format!("\nperm_table_rows{{table=\"{label}\"}} 0\n")), "{prom}");
    }
    assert!(prom.lines().all(|l| l.starts_with("# ") || l.starts_with("perm_")), "{prom}");
    let text = perm_service::render_stats_text(&snap);
    assert_eq!(text.lines().filter(|l| l.starts_with("table ")).count(), 3, "{text}");
    assert!(text.contains("\ntable two\\nlines rows=0 "), "{text}");
}

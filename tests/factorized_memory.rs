//! Heap high-water of a provenance result on its way through the engine.
//!
//! Perm's representation repeats every contributing base tuple inside the result row, so a
//! provenance result is mostly repetition: TPC-H Q11+ turns 156 rows into 24 960 × 34 columns,
//! Q15+ one row into 13 340 × 44. The engine carries that result as views — a join batch is one
//! index buffer per source buffer its sides carry, and the operators above keep views while the
//! dictionary is shared — a result whose top is a join is pulled from its probe a batch at a
//! time, and the stream lets go of every chunk it has handed out. Their
//! `ORDER BY`s order q's rows, not the expanded result: Q11+ sorts its 156 aggregate rows below
//! the join-back, and Q15+'s rows, tied on the sort key, pass its sort as they are. This test
//! drains both results, a stack of outer joins whose build side is such views, and the service
//! smoke's 1 000 000-row constant-key join in process
//! under a counting allocator and bounds what the engine held at once. Both results then go
//! through the wire codec's result encoder and decoder: each shared index buffer is written once
//! per frame and decodes shared, and each dictionary row once per result, which bounds the bytes
//! on the wire and what a client holds.
//!
//! One `#[test]` on purpose: the allocator counts the whole process, and cargo runs the tests of
//! one file on parallel threads.

use std::sync::Arc;

use perm::algebra::DataChunk;
use perm::prelude::*;
use perm::service::codec::{ResultDecoder, ResultEncoder};
use perm::tpch::queries::{add_provenance_keyword, tpch_query, variant_rng};

mod common;
use common::{high_water_over_base, CountingAllocator};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Pull every chunk of `sql` and drop it, the way the wire server does after writing a frame.
fn drain(session: &Session, sql: &str) -> usize {
    let mut stream = session.execute_streaming(sql).unwrap();
    let mut rows = 0;
    while let Some(chunk) = stream.next_chunk() {
        rows += chunk.unwrap().num_rows();
    }
    rows
}

/// The bytes of `sql`'s `R` frames, and what its decoded chunks hold together.
fn over_the_wire(session: &Session, sql: &str) -> (usize, usize) {
    let mut stream = session.execute_streaming(sql).unwrap();
    let (mut encoder, mut decoder) = (ResultEncoder::default(), ResultDecoder::default());
    let (mut wire_bytes, mut decoded) = (0, Vec::new());
    while let Some(chunk) = stream.next_chunk() {
        let frame = encoder.encode_chunk(&chunk.unwrap());
        wire_bytes += frame.len();
        decoded.push(decoder.decode_chunk(&frame[1..]).unwrap());
    }
    (wire_bytes, DataChunk::byte_size_of(&decoded))
}

/// The rows of `sql` in stream order, rendered.
fn rows_in_order(session: &Session, sql: &str) -> Vec<String> {
    let mut stream = session.execute_streaming(sql).unwrap();
    let mut rows = Vec::new();
    while let Some(chunk) = stream.next_chunk() {
        rows.extend(chunk.unwrap().iter_tuples().map(|t| t.to_string()));
    }
    rows
}

#[test]
fn provenance_results_drain_within_a_fraction_of_their_flat_size() {
    /// Heap high-water allowed over base while draining, per text. The flat results are 6.2 MB
    /// (Q11+) and 5.0 MB (Q15+); the engine that copied them held 17.3 MB and 13.5 MB, the one
    /// that sorted all of a result after its join-back 1.89 MB and 0.89 MB, and the one that
    /// held a result whole before handing it out 1.01 MB for Q11+. Measured: 0.07–0.26 MB (Q11+
    /// sorts its 156 aggregate rows below the join-back, and its join-back is pulled a batch at
    /// a time) and 0.04–0.65 MB (Q15+'s rows, all tied on the sort key, pass its sort as they
    /// are; the sort stays on top, so its result is still held whole).
    const CAPS: [(u32, usize, usize); 2] = [(11, 24_960, 310_000), (15, 13_340, 700_000)];
    /// Every line item beside the supplier, nation and region it came from: 5.2 MB flat. The
    /// outer join's build side is itself a stack of outer joins — views with pads in them, each
    /// supplier repeated eighty times — and has to stay views when the NULL slot goes behind it.
    const STACKED_LEFT_JOINS: &str = "SELECT * FROM lineitem LEFT JOIN (\
         SELECT ps_partkey, ps_suppkey, supplier.*, nation.*, region.* \
         FROM partsupp LEFT JOIN supplier ON ps_suppkey = s_suppkey \
              LEFT JOIN nation ON s_nationkey = n_nationkey \
              LEFT JOIN region ON n_regionkey = r_regionkey) AS source \
         ON l_partkey = ps_partkey AND l_suppkey = ps_suppkey";
    /// 0.53 MB measured; 0.70 MB when the build side is decoded to take the slot.
    const STACKED_CAP_BYTES: usize = 600 << 10;
    let catalog = generate_catalog(TpchScale::small(), 42);
    catalog.analyze();
    /// Caps on the encoded frames and on the decoded chunks a client holds, at 1 and 4 workers.
    /// Measured: 275 104 B on the wire and 278 954 B held (Q11+), 146 405 B and 171 563 B (Q15+).
    /// When every frame resent its dictionaries: 768 088 / 772 346 B and 227 567 / 252 509 B;
    /// when every view also wrote its own indices: 1.77 / 1.77 MB (Q11+) and 1.03 MB on the wire.
    const WIRE_CAPS: [(usize, usize); 2] = [(400_000, 400_000), (190_000, 200_000)];
    let mut texts: Vec<(String, usize, usize, String)> = CAPS
        .into_iter()
        .map(|(id, rows, cap)| {
            let normal = tpch_query(id).generate(&mut variant_rng(id, 0));
            (format!("Q{id}+"), rows, cap, add_provenance_keyword(&normal))
        })
        .collect();
    let line_items = catalog.table("lineitem").unwrap().num_rows();
    texts.push((
        "stacked LEFT JOINs".into(),
        line_items,
        STACKED_CAP_BYTES,
        STACKED_LEFT_JOINS.into(),
    ));
    let mut reference: Vec<Option<Vec<String>>> = vec![None; texts.len()];
    // Degrees 1, 2, 4 and 8, then the engine's own default (`PERM_WORKERS`, else one per CPU).
    for degree in [Some(1), Some(2), Some(4), Some(8), None] {
        let engine = Engine::with_catalog(catalog.clone())
            .with_rewriter(Arc::new(ProvenanceRewriter::new()));
        let engine = Arc::new(match degree {
            Some(workers) => engine.with_workers(workers),
            None => engine,
        });
        let workers = engine.workers();
        let session = engine.session();
        for (ordinal, ((text, expected_rows, cap, sql), reference)) in
            texts.iter().zip(&mut reference).enumerate()
        {
            // The first run compiles and caches the plan; the second is the measured one.
            assert_eq!(drain(&session, sql), *expected_rows, "{text} row count");
            let (rows, high_water) = high_water_over_base(|| drain(&session, sql));
            assert_eq!(rows, *expected_rows);
            println!("{text} workers={workers}: heap high-water over base {high_water} B");
            assert!(
                high_water <= *cap,
                "{text} at {workers} workers held {high_water} B over base (cap {cap} B): \
                 views are not surviving the join, the sort or the hand-off, or a sort orders \
                 the whole result"
            );
            if let (Some(&(wire_cap, held_cap)), Some(1 | 4)) = (WIRE_CAPS.get(ordinal), degree) {
                let (wire_bytes, held) = over_the_wire(&session, sql);
                println!("{text} workers={workers}: {wire_bytes} B on the wire, {held} B decoded");
                assert!(
                    wire_bytes <= wire_cap,
                    "{text} at {workers} workers: {wire_bytes} B on the wire (cap {wire_cap} B): \
                     a shared index buffer went out more than once per frame, or a dictionary \
                     row more than once per result"
                );
                assert!(
                    held <= held_cap,
                    "{text} at {workers} workers: the client holds {held} B (cap {held_cap} B): \
                     decoded views do not share their index buffers or remembered dictionaries"
                );
            }
            // Identical rows in identical order at every degree.
            let rows = rows_in_order(&session, sql);
            match reference {
                Some(expected) => assert!(rows == *expected, "{text} differs at {workers} workers"),
                None => *reference = Some(rows),
            }
        }
    }
    // The service smoke's stream: 1 000 probe rows against 1 000 build rows of one key, each
    // carrying a 64-byte payload — 1 000 000 provenance rows out of one probe morsel. The region
    // above the join is pulled one batch at a time, so what is held at once is the build side
    // and a pull's index buffers, not the 8 MB of index buffers the whole result is.
    const PAIRS: &str = "SELECT PROVENANCE b.payload FROM big_probe a, big_build b WHERE a.k = b.k";
    /// Measured: 36 389 B at every degree — the 1 000-row build side, its hash table and one
    /// batch's index buffers. The engine that held the whole result: ~8 MB.
    const PAIRS_CAP_BYTES: usize = 45_000;
    let pairs = Catalog::new();
    let repeated = |values: Vec<Value>| (0..1000).map(|_| Tuple::new(values.clone())).collect();
    let probe = Schema::from_pairs(&[("k", DataType::Int)]);
    let probe = Relation::from_parts(probe, repeated(vec![Value::Int(7)]));
    pairs.create_table_with_data("big_probe", probe).unwrap();
    let build = Schema::from_pairs(&[("k", DataType::Int), ("payload", DataType::Text)]);
    let build =
        Relation::from_parts(build, repeated(vec![Value::Int(7), Value::text("p".repeat(64))]));
    pairs.create_table_with_data("big_build", build).unwrap();
    // Degrees 1, 2 and 4, then the engine's own default (`PERM_WORKERS`, else one per CPU).
    for degree in [Some(1), Some(2), Some(4), None] {
        let engine =
            Engine::with_catalog(pairs.clone()).with_rewriter(Arc::new(ProvenanceRewriter::new()));
        let engine = Arc::new(match degree {
            Some(workers) => engine.with_workers(workers),
            None => engine,
        });
        let workers = engine.workers();
        let session = engine.session();
        assert_eq!(drain(&session, PAIRS), 1_000_000);
        let (rows, high_water) = high_water_over_base(|| drain(&session, PAIRS));
        assert_eq!(rows, 1_000_000);
        println!("1M-row join workers={workers}: heap high-water over base {high_water} B");
        assert!(
            high_water <= PAIRS_CAP_BYTES,
            "the 1M-row join at {workers} workers held {high_water} B over base (cap \
             {PAIRS_CAP_BYTES} B): its result is held whole, not pulled a batch at a time"
        );
    }
}

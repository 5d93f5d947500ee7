//! Heap high-water of provenance scans under a filter.
//!
//! R1 adds no node: a base relation's own columns are also its provenance attributes, so a
//! provenance scan under a filter reads every column of the relation. A filter batch is one
//! index buffer over its source: the kept rows leave the filter as views of the stored columns,
//! and nothing is copied until a kernel computes on a column or a join builds on it. TPC-H Q3+
//! filters 6 122 `lineitem` rows of 16 columns just before a join that keeps 45 of them; the
//! engine that copied the kept rows of every column held 1.31 MB while draining it, Q7+ 1.60 MB
//! and Q10+ 0.80 MB. Q7+'s rewritten joins are one region the reorderer orders, so it joins from
//! the 2-row nation pair as the plain query does; when R1 and R4 projected, each rewritten join
//! was a region of its own and 3 946 `lineitem` rows passed four joins in text order (0.80 MB).
//! This test drains the three in process under a counting allocator and bounds what the engine
//! held at once.
//!
//! One `#[test]` on purpose: the allocator counts the whole process, and cargo runs the tests of
//! one file on parallel threads.

use std::sync::Arc;

use perm::prelude::*;
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
fn filtered_provenance_scans_hold_index_buffers_not_copies() {
    /// Heap high-water allowed over base while draining, per TPC-H text (variant 0, with
    /// provenance).
    const CAPS: [(u32, usize); 3] = [(3, 400_000), (7, 400_000), (10, 400_000)];
    let catalog = generate_catalog(TpchScale::small(), 42);
    catalog.analyze();
    let texts: Vec<(String, usize, String)> = CAPS
        .into_iter()
        .map(|(id, cap)| {
            let normal = tpch_query(id).generate(&mut variant_rng(id, 0));
            (format!("Q{id}+"), cap, add_provenance_keyword(&normal))
        })
        .collect();
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
        for ((text, cap, sql), reference) in texts.iter().zip(&mut reference) {
            // The first run compiles and caches the plan; the best of the next three is the
            // measured one. At eight workers on two cores a worker that runs ahead now and then
            // holds one more batch at the peak; a filter that copies does so on every drain.
            let expected_rows = drain(&session, sql);
            assert!(expected_rows > 0, "{text} is not vacuous");
            let drains = (0..3).map(|_| high_water_over_base(|| drain(&session, sql)));
            let (rows, high_water) = drains.min_by_key(|(_, high_water)| *high_water).unwrap();
            assert_eq!(rows, expected_rows);
            println!("{text} workers={workers}: heap high-water over base {high_water} B");
            assert!(
                high_water <= *cap,
                "{text} at {workers} workers held {high_water} B over base (cap {cap} B): a \
                 filter copied the kept rows of the columns it passes on"
            );
            // Identical rows in identical order at every degree.
            let rows = rows_in_order(&session, sql);
            match reference {
                Some(expected) => assert!(rows == *expected, "{text} differs at {workers} workers"),
                None => *reference = Some(rows),
            }
        }
    }
}

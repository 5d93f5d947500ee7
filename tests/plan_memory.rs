//! What the plan cache holds, for texts planned once and for texts planned twice.
//!
//! Perm's rewrite names every provenance attribute `prov_<rel>[_k]_<attr>` and carries the whole
//! P-list up through each projection and join-back, so a rewritten plan repeats a few dozen
//! names at every operator. A name is allocated once — by the catalog, the analyzer or the
//! rewriter — and shared by every schema, expression and plan node that repeats it. This test
//! plans 128 never-repeated texts of the benchmark's `compile_cold` shapes (fig13 SPJ with 1–6
//! leaves, fig12 set operations with 1–4 operators, each plain and `PROVENANCE`) through the
//! engine's 128-entry plan cache, twice:
//!
//! * the first pass is each text's first planning, which the cache does not keep: it holds no
//!   plan, only the ring of remembered text hashes;
//! * the second pass fills the cache, and the bytes and allocations it then holds are bounded.
//!   A plan cached by it scans base relations under the catalog's own attribute names.
//!
//! One `#[test]` on purpose: the allocator counts the whole process, and cargo runs the tests of
//! one file on parallel threads.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use perm::prelude::*;
use perm::tpch::queries::add_provenance_keyword;

mod common;
use common::{CountingAllocator, LIVE, LIVE_ALLOCATIONS};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn live() -> (usize, usize) {
    (LIVE.load(Ordering::Relaxed), LIVE_ALLOCATIONS.load(Ordering::Relaxed))
}

/// Bytes and allocations that became live between two readings of [`live`].
fn grown(before: (usize, usize), after: (usize, usize)) -> (usize, usize) {
    (after.0.saturating_sub(before.0), after.1.saturating_sub(before.1))
}

/// One leaf of the artificial queries: a key-range selection on `part`.
fn leaf_sql(lo: usize, hi: usize) -> String {
    format!("SELECT p_partkey, p_size FROM part WHERE p_partkey BETWEEN {lo} AND {hi}")
}

/// A fig13 select-project-join query: `leaves` key-range subqueries equi-joined in a chain.
fn spj_sql(leaves: &[(usize, usize)], provenance: bool) -> String {
    let from: Vec<String> = leaves
        .iter()
        .enumerate()
        .map(|(i, &(lo, hi))| format!("({}) AS s{i}", leaf_sql(lo, hi)))
        .collect();
    let joins: Vec<String> =
        (1..leaves.len()).map(|i| format!("s{}.p_partkey = s{i}.p_partkey", i - 1)).collect();
    let mut sql = format!(
        "SELECT {}s0.p_partkey, s0.p_size FROM {}",
        if provenance { "PROVENANCE " } else { "" },
        from.join(", ")
    );
    if !joins.is_empty() {
        sql.push_str(&format!(" WHERE {}", joins.join(" AND ")));
    }
    sql
}

/// A fig12 set-operation query: the leaves combined by `UNION ALL` and `INTERSECT ALL` in turn.
fn setop_sql(leaves: &[(usize, usize)], provenance: bool) -> String {
    let mut sql = String::new();
    for (i, &(lo, hi)) in leaves.iter().enumerate() {
        if i > 0 {
            sql.push_str(if i % 2 == 1 { " UNION ALL " } else { " INTERSECT ALL " });
        }
        sql.push_str(&leaf_sql(lo, hi));
    }
    if provenance {
        sql = add_provenance_keyword(&sql);
    }
    sql
}

/// `count` distinct texts cycling through the 20 shapes; `draw` moves every key range.
fn cold_texts(count: usize) -> Vec<String> {
    let mut texts = Vec::with_capacity(count);
    for draw in 0.. {
        let leaves = |n: usize| -> Vec<(usize, usize)> {
            (0..n).map(|i| (1 + draw + i, 20 + draw + 3 * i)).collect()
        };
        for provenance in [false, true] {
            for n in 1..=6 {
                texts.push(spj_sql(&leaves(n), provenance));
            }
            for n in 1..=4 {
                texts.push(setop_sql(&leaves(n + 1), provenance));
            }
        }
        if texts.len() >= count {
            texts.truncate(count);
            return texts;
        }
    }
    unreachable!()
}

#[test]
fn a_full_plan_cache_holds_each_name_once() {
    /// The ring of 128 remembered hashes is one buffer of 1 KB.
    const RING_CAP_BYTES: usize = 16_384;
    const RING_CAP_ALLOCATIONS: usize = 8;
    /// 1.32 MB measured; 1.84 MB when every repeated name was a `String` of its own.
    const CACHE_CAP_BYTES: usize = 1_600_000;
    /// 11 356 measured; 38 520 when every repeated name was a `String` of its own.
    const CACHE_CAP_ALLOCATIONS: usize = 15_000;

    let catalog = generate_catalog(TpchScale::small(), 42);
    catalog.analyze();
    let engine =
        Engine::with_catalog(catalog.clone()).with_rewriter(Arc::new(ProvenanceRewriter::new()));
    let capacity = engine.plan_cache_capacity();
    assert_eq!(capacity, 128, "the engine's default cache capacity");
    let texts = cold_texts(capacity + 20);
    let distinct: std::collections::HashSet<&String> = texts.iter().collect();
    assert_eq!(distinct.len(), texts.len(), "every text is new to the cache");
    let (texts, warm_up) = texts.split_at(capacity);

    // Warm whatever is built once per engine with texts the passes do not plan.
    for text in warm_up {
        engine.plan_query(text, true).unwrap();
    }
    assert_eq!(engine.cache_stats().entries, 0);

    // First pass: every text is planned for the first time, so the cache keeps no plan.
    let before = live();
    for text in texts {
        engine.plan_query(text, true).unwrap();
    }
    let (ring_bytes, ring_allocations) = grown(before, live());
    println!(
        "after one-shot planning: {ring_bytes} B live in {ring_allocations} allocations for {} \
         texts",
        texts.len()
    );
    let stats = engine.cache_stats();
    assert_eq!(stats.entries, 0, "one-shot texts are not cached");
    assert_eq!(stats.deferred, (warm_up.len() + texts.len()) as u64);
    assert!(ring_bytes <= RING_CAP_BYTES, "{ring_bytes} B held, cap {RING_CAP_BYTES}");
    assert!(
        ring_allocations <= RING_CAP_ALLOCATIONS,
        "{ring_allocations} live allocations, cap {RING_CAP_ALLOCATIONS}"
    );

    // Second pass: every text comes back, and every plan is cached.
    let mut last = None;
    for text in texts {
        last = Some(engine.plan_query(text, true).unwrap());
    }
    assert_eq!(engine.cache_stats().entries, texts.len());
    let full = live();

    // A cached plan scans `part` under the catalog's own attribute names: the same allocation.
    {
        let cached = last.take().unwrap();
        let stored = catalog.table_schema("part").unwrap();
        let mut scans = 0;
        for scan in cached.plan.base_relations() {
            let LogicalPlan::BaseRelation { schema, .. } = scan else { unreachable!() };
            for attribute in schema.attributes() {
                let own = &stored.attributes()[stored.resolve(&attribute.name).unwrap()];
                assert!(
                    Arc::ptr_eq(&attribute.name, &own.name),
                    "{} is a copy of the catalog's name",
                    attribute.name
                );
            }
            scans += 1;
        }
        assert!(scans > 0, "the plan scans part");
    }

    engine.clear_plan_cache();
    let (bytes, allocations) = grown(live(), full);
    println!("plan cache: {bytes} B live in {allocations} allocations for {} plans", texts.len());
    assert!(bytes <= CACHE_CAP_BYTES, "{bytes} B held, cap {CACHE_CAP_BYTES}");
    assert!(
        allocations <= CACHE_CAP_ALLOCATIONS,
        "{allocations} live allocations, cap {CACHE_CAP_ALLOCATIONS}"
    );
}

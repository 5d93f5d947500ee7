//! What the governor charges a statement for: the bytes it holds, not the catalog's. A filter
//! batch is one index buffer over its source, so a filtered scan hands the operators above it
//! views of stored columns; a join that builds on them, a sort or an aggregation is charged each
//! such view's index buffer only, because the catalog owns the column it reads.

use std::sync::Arc;

use perm::prelude::*;
use perm::service::GovernorLimits;
use perm::tpch::queries::{add_provenance_keyword, tpch_query, variant_rng};

fn engine(catalog: &Catalog, workers: usize, query_bytes: Option<usize>) -> Arc<Engine> {
    let limits = GovernorLimits { engine_bytes: None, query_bytes };
    Arc::new(
        Engine::with_catalog(catalog.clone())
            .with_rewriter(Arc::new(ProvenanceRewriter::new()))
            .with_workers(workers)
            .with_memory_limits(limits),
    )
}

/// TPC-H Q3+, Q7+ and Q10+ still run under the per-query limit that was just enough when a
/// filter copied its kept rows: the least `query_bytes` each ran under then, found by
/// bisection, the same at 1, 2, 4 and 8 workers.
#[test]
fn provenance_queries_run_within_the_reservation_they_needed_before() {
    const PEAKS: [(u32, usize); 3] = [(3, 1_291_489), (7, 2_283_642), (10, 1_584_201)];
    let catalog = generate_catalog(TpchScale::small(), 42);
    catalog.analyze();
    for workers in [1, 4] {
        for (id, limit) in PEAKS {
            let sql = add_provenance_keyword(&tpch_query(id).generate(&mut variant_rng(id, 0)));
            let session = engine(&catalog, workers, Some(limit)).session();
            let result = session.execute(&sql).unwrap_or_else(|e| {
                panic!("Q{id}+ at {workers} workers under a {limit} B limit: {e}")
            });
            assert!(result.num_rows() > 0, "Q{id}+ is not vacuous");
        }
    }
}

/// A filter that keeps under 1 % of `lineitem`, below a join that builds on it: the join holds
/// the kept rows' index buffer and one copy of the rows it builds on, so `EXPLAIN ANALYZE`
/// reports a few kilobytes — not the stored chunks the views point into.
#[test]
fn a_selective_filter_below_a_join_is_charged_what_it_holds() {
    const FILTER: &str = "l_quantity = 1 AND l_linenumber = 1";
    let catalog = generate_catalog(TpchScale::small(), 42);
    catalog.analyze();
    for workers in [1, 4] {
        let session = engine(&catalog, workers, None).session();
        let count = |sql: &str| match session.execute(sql).unwrap().tuples()[0][0] {
            Value::Int(n) => n,
            ref other => panic!("count is {other:?}"),
        };
        let kept = count(&format!("SELECT count(*) FROM lineitem WHERE {FILTER}"));
        let all = count("SELECT count(*) FROM lineitem");
        assert!(kept > 0 && kept * 100 <= all, "{kept} of {all} rows is not ≤ 1 % selective");
        let sql = format!(
            "EXPLAIN ANALYZE SELECT * FROM orders JOIN lineitem ON o_orderkey = l_orderkey \
             WHERE {FILTER}"
        );
        let plan: Vec<String> =
            session.execute(&sql).unwrap().tuples().iter().map(|t| t[0].to_string()).collect();
        let peaks: Vec<usize> = plan
            .iter()
            .filter_map(|line| line.split("peak_mem=").nth(1))
            .map(|rest| rest.chars().take_while(char::is_ascii_digit).collect::<String>())
            .map(|digits| digits.parse().unwrap())
            .collect();
        assert!(!peaks.is_empty(), "no operator reports peak_mem:\n{}", plan.join("\n"));
        let peak = peaks.iter().max().copied().unwrap_or(0);
        assert!(
            peak <= 64 << 10,
            "at {workers} workers an operator holds {peak} B (cap 64 KB): the stored columns \
             a filtered view reads were charged to the statement\n{}",
            plan.join("\n")
        );
    }
}

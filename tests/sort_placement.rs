//! Where `ORDER BY` lands in the provenance plans of the benchmark's `tpch_prov_stream`
//! workload (TPC-H Q3/Q7/Q11/Q12/Q15, variant 0) and what that does to their rows.
//!
//! A provenance query orders by q's own attributes, which the join-back copies unchanged from
//! q's side, so the optimizer sorts q's rows below the join instead of the expanded result:
//! Q11+ sorts its 156 aggregate rows, not 24 960 × 34 columns. `EXPLAIN ANALYZE` reports the
//! rows each sort saw, at degrees 1, 2 and 8. A sort moved below a join that is not swapped
//! gives the rows the sort above the join gave, in the same order: the texts without their
//! `ORDER BY`, sorted stably here, are that plan's rows. And a plan optimized a second time,
//! under other statistics, keeps a moved sort on its join's probe side.

use std::sync::Arc;

use perm::prelude::*;
use perm::tpch::queries::{add_provenance_keyword, tpch_query, variant_rng};

/// The provenance text of TPC-H query `id`, variant 0.
fn provenance_text(id: u32) -> String {
    add_provenance_keyword(&tpch_query(id).generate(&mut variant_rng(id, 0)))
}

/// The rows each `Sort` of `sql`'s plan saw under `EXPLAIN ANALYZE`, top down.
fn sorted_rows(session: &Session, sql: &str) -> Vec<u64> {
    let profile = session.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    profile
        .iter()
        .filter_map(|t| match &t.values()[0] {
            Value::Text(line) if line.trim_start().starts_with("Sort [") => {
                let actual = &line[line.find("(actual:").expect("an executed sort")..];
                let rows = actual.split_whitespace().find_map(|w| w.strip_prefix("rows="));
                Some(rows.expect("a row count").parse().unwrap())
            }
            _ => None,
        })
        .collect()
}

fn engine(workers: usize) -> Arc<Engine> {
    static CATALOG: std::sync::OnceLock<Catalog> = std::sync::OnceLock::new();
    let catalog = CATALOG.get_or_init(|| {
        let catalog = generate_catalog(TpchScale::small(), 42);
        catalog.analyze();
        catalog
    });
    Arc::new(
        Engine::with_catalog(catalog.clone())
            .with_rewriter(Arc::new(ProvenanceRewriter::new()))
            .with_workers(workers),
    )
}

#[test]
fn provenance_sorts_order_q_rows_before_the_join_back_expands_them() {
    // (query, rows its sort sees, rows of the result).
    let expected = [
        // Stays above its join-back: the estimator puts the three-key join-back at 2 rows,
        // below the 649 it expects of q.
        (3, 45, 10),
        // Likewise (0 rows estimated for the join-back, 27 for q).
        (7, 8, 8),
        // Through the θ LEFT OUTER sublink join and the INNER join-back, onto the HAVING
        // selection: 156 rows instead of 24 960.
        (11, 156, 24_960),
        // Below the join-back onto q's 2 groups.
        (12, 2, 66),
        // The keys are on the right of a RIGHT OUTER join whose left side is the larger one:
        // swapping it would build the larger side and put its rows in every output chunk.
        (15, 13_340, 13_340),
    ];
    for workers in [1, 2, 8] {
        let session = engine(workers).session();
        for (id, sorted, rows) in expected {
            let sql = provenance_text(id);
            assert_eq!(sorted_rows(&session, &sql), vec![sorted], "Q{id}+ at {workers} workers");
            assert_eq!(session.execute(&sql).unwrap().num_rows(), rows, "Q{id}+");
        }
    }
}

#[test]
fn moved_sorts_keep_the_rows_and_order_of_a_sort_above_the_join() {
    // (query, sort key column of the result, descending).
    for (id, key, descending) in [(11, 1, true), (12, 0, false), (15, 0, false)] {
        let sql = provenance_text(id);
        let (unsorted, _) = sql.rsplit_once(" ORDER BY ").expect("an ORDER BY");
        for workers in [1, 2, 8] {
            let session = engine(workers).session();
            let mut expected = session.execute(unsorted).unwrap().tuples();
            // Stable, as the engine's sort is: equal keys keep the join's order.
            expected.sort_by(|a, b| {
                let order = a[key].cmp(&b[key]);
                if descending {
                    order.reverse()
                } else {
                    order
                }
            });
            let rows = session.execute(&sql).unwrap().tuples();
            assert!(rows == expected, "Q{id}+ at {workers} workers differs from the sort above");
        }
    }
}

/// `PermDb::execute_plan` optimizes the plan it is given again, under the statistics of the
/// moment: here `r` grows between planning and execution until the build-side swap would make
/// it the probe side. A join whose probe side is the moved sort keeps it there, so the rows
/// still come out in `ORDER BY` order.
#[test]
fn a_moved_sort_stays_the_probe_side_when_the_plan_is_optimized_again() {
    let db = PermDb::new();
    let values = |rows: std::ops::Range<i64>| {
        rows.map(|i| format!("({}, {i})", i % 10)).collect::<Vec<_>>().join(", ")
    };
    db.execute_script(&format!(
        "CREATE TABLE l (k INT, t INT); CREATE TABLE r (k INT, u INT); \
         INSERT INTO l VALUES {}; INSERT INTO r VALUES {};",
        values(0..1000),
        values(0..10)
    ))
    .unwrap();
    let sql = "SELECT l.t, r.u FROM l JOIN r ON l.k = r.k ORDER BY l.t DESC";
    let plan = db.plan_sql(sql).unwrap();
    assert!(!matches!(plan, LogicalPlan::Sort { .. }), "the sort moves onto `l`:\n{plan}");

    db.execute_sql(&format!("INSERT INTO r VALUES {}", values(10..2000))).unwrap();
    let rows = db.execute_plan(&plan).unwrap();
    assert_eq!(rows.num_rows(), 1000 * 200);
    let t: Vec<Value> = rows.iter().map(|row| row[0].clone()).collect();
    assert!(t.windows(2).all(|w| w[0] >= w[1]), "rows out of ORDER BY order");
}

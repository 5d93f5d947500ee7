//! Integration tests spanning the whole stack on a generated TPC-H database: every supported
//! benchmark query runs normally and with provenance, and the results have the structural
//! properties the paper's evaluation relies on.

use perm::prelude::*;
use perm::tpch::queries::{
    add_provenance_keyword, supported_query_ids, tpch_query, unsupported_query_ids, variant_rng,
};
use perm::tpch::workloads::{
    nested_aggregation_query, set_operation_query, spj_query, trio_selection_queries, workload_rng,
};

fn tpch_db() -> PermDb {
    let catalog = generate_catalog(TpchScale::new(0.0005), 2024);
    PermDb::with_catalog(catalog, SessionOptions::default().with_row_budget(2_000_000))
}

#[test]
fn all_supported_queries_and_their_provenance_variants_run() {
    let db = tpch_db();
    for id in supported_query_ids() {
        let sql = tpch_query(id).generate(&mut variant_rng(id, 0));
        let normal =
            db.execute_sql(&sql).unwrap_or_else(|e| panic!("query {id} failed: {e}\n{sql}"));
        let provenance = db
            .execute_sql(&add_provenance_keyword(&sql))
            .unwrap_or_else(|e| panic!("provenance of query {id} failed: {e}"));

        // The provenance result keeps the original columns in front and appends prov_* columns.
        assert!(provenance.schema().arity() > normal.schema().arity(), "query {id}");
        let normal_names = normal.schema().attribute_names();
        let prov_names = provenance.schema().attribute_names();
        assert_eq!(&prov_names[..normal_names.len()], normal_names.as_slice(), "query {id}");
        assert!(
            prov_names[normal_names.len()..].iter().all(|n| n.starts_with("prov_")),
            "query {id}"
        );

        // Every original result tuple appears among the provenance rows (projected), unless it
        // stems from an aggregation over an empty group-set (paper footnote 4). Queries with a
        // LIMIT (3 and 10) are excluded: as in the PostgreSQL-based prototype the limit applies
        // to the rewritten (duplicated) rows, so the cut-off falls differently.
        let has_limit = matches!(id, 3 | 10);
        let original_cols: Vec<usize> = (0..normal.arity()).collect();
        let projected = provenance.project(&original_cols).tuples();
        if normal.num_rows() > 0 && provenance.num_rows() > 0 && !has_limit {
            for t in normal.iter().take(20) {
                assert!(
                    projected.contains(&t),
                    "query {id}: original tuple {t} missing from provenance result"
                );
            }
        }
    }
}

/// The queries that lean on the lazily evaluated expression forms and on join residuals — Q8,
/// Q12 and Q14 (`CASE`), Q7 and Q19 (disjunctive join conditions), Q11 and Q15 (scalar
/// subqueries), Q16 (`NOT IN`) — return what the reference evaluator computes for the same
/// optimized plan, normally and with provenance. Each runs the first variant that selects
/// something at this scale; no variant of Q19 does, so its residual rejects every pair.
#[test]
fn expression_heavy_queries_match_the_reference_evaluator() {
    let db = tpch_db();
    for (id, variant) in [(7, 6), (8, 4), (11, 0), (12, 0), (14, 0), (15, 0), (16, 0), (19, 0)] {
        let normal = tpch_query(id).generate(&mut variant_rng(id, variant));
        for sql in [add_provenance_keyword(&normal), normal] {
            let plan = db.plan_sql(&sql).unwrap();
            let reference = perm::exec::execute_reference(db.catalog(), &plan).unwrap();
            let result = db.execute_sql(&sql).unwrap();
            assert!(result.num_rows() > 0 || id == 19, "query {id} is not vacuous:\n{sql}");
            assert!(result.bag_eq(&reference), "query {id} != reference:\n{sql}");
        }
    }
}

/// The generator still produces the database the checked-in execution baselines were measured
/// on: every `BENCH_tpch.json` record's result cardinality is reproduced at the small scale.
/// With statistics, so that the cost-based passes run, no optimized plan holds a projection
/// directly over a projection.
#[test]
fn small_scale_keeps_the_row_counts_of_the_checked_in_baseline() {
    /// Projections directly over a projection in `plan`, its sublinks' plans included.
    fn stacked_projections(plan: &LogicalPlan) -> usize {
        fn in_tree(plan: &LogicalPlan) -> usize {
            let own = match plan {
                LogicalPlan::Projection { input, .. } => {
                    usize::from(matches!(input.as_ref(), LogicalPlan::Projection { .. }))
                }
                _ => 0,
            };
            own + plan.children().iter().map(|c| in_tree(c)).sum::<usize>()
        }
        let mut stacked = in_tree(plan);
        plan.for_each_expr(&mut |e| {
            if let perm::algebra::ScalarExpr::Sublink { plan, .. } = e {
                stacked += in_tree(plan);
            }
        });
        stacked
    }
    let baseline = include_str!("../BENCH_tpch.json");
    let db = PermDb::with_catalog(generate_catalog(TpchScale::small(), 42), Default::default());
    db.catalog().analyze();
    let field = |record: &str, key: &str| -> String {
        let rest =
            &record[record.find(key).unwrap_or_else(|| panic!("{key} in {record}")) + key.len()..];
        rest.trim_start_matches('"').split(['"', ',', '}']).next().unwrap().to_string()
    };
    let mut checked = 0;
    for record in baseline.lines().filter(|l| !l.trim().is_empty()) {
        let name = field(record, "\"name\":");
        let rows: usize = field(record, "\"rows\":").parse().unwrap();
        let mut parts = name.split('/').skip(1);
        let (mode, id) = (parts.next().unwrap(), parts.next().unwrap().parse().unwrap());
        let mut sql = tpch_query(id).generate(&mut variant_rng(id, 0));
        if mode == "provenance" {
            sql = add_provenance_keyword(&sql);
        }
        assert_eq!(db.execute_sql(&sql).unwrap().num_rows(), rows, "{name}");
        let plan = db.plan_sql(&sql).unwrap();
        assert_eq!(stacked_projections(&plan), 0, "{name}: stacked projections in\n{plan}");
        checked += 1;
    }
    assert_eq!(checked, 22);
}

#[test]
fn unsupported_queries_are_the_papers_seven() {
    assert_eq!(unsupported_query_ids(), vec![2, 4, 17, 18, 20, 21, 22]);
}

#[test]
fn provenance_result_growth_matches_the_papers_observations() {
    // Figure 11's headline observation: aggregation queries over large inputs (query 1) blow up
    // the provenance result cardinality by orders of magnitude, because every aggregated tuple
    // is attached to its group's result row.
    let db = tpch_db();
    let q1 = tpch_query(1).generate(&mut variant_rng(1, 0));
    let normal = db.execute_sql(&q1).unwrap();
    let provenance = db.execute_sql(&add_provenance_keyword(&q1)).unwrap();
    assert!(normal.num_rows() <= 6, "Q1 groups by two flags");
    let lineitems = db.catalog().table_row_count("lineitem").unwrap();
    assert!(
        provenance.num_rows() > normal.num_rows() * 10,
        "Q1 provenance should explode (normal {}, provenance {})",
        normal.num_rows(),
        provenance.num_rows()
    );
    assert!(provenance.num_rows() <= lineitems, "each lineitem contributes to exactly one group");
}

#[test]
fn artificial_workloads_run_with_provenance() {
    let db = tpch_db();
    let parts = db.catalog().table_row_count("part").unwrap();

    let setop = set_operation_query(&mut workload_rng("setop", 1), 3, parts);
    assert!(db.execute_sql(&add_provenance_keyword(&setop)).is_ok());

    let spj = spj_query(&mut workload_rng("spj", 1), 4, parts);
    let spj_prov = db.execute_sql(&add_provenance_keyword(&spj)).unwrap();
    assert!(spj_prov.schema().provenance_indices().len() >= 8, "four part references");

    let aspj = nested_aggregation_query(3, parts);
    let aspj_prov = db.execute_sql(&add_provenance_keyword(&aspj)).unwrap();
    assert_eq!(aspj_prov.num_rows(), parts, "every part tuple contributes through the chain");
}

#[test]
fn trio_baseline_and_perm_agree_on_simple_selections() {
    let db = tpch_db();
    let suppliers = db.catalog().table_row_count("supplier").unwrap();
    let queries = trio_selection_queries(&mut workload_rng("trio", 9), 5, suppliers);

    let mut trio = TrioStyleDb::new(db.catalog().clone());
    for (i, sql) in queries.iter().enumerate() {
        let perm_result = db.provenance_of_query(sql).unwrap();
        let table = format!("itest_trio_{i}");
        trio.derive_table(&table, sql).unwrap();
        let traced = trio.trace_all(&table).unwrap();
        // For a simple selection, each result tuple has exactly one contributing supplier tuple,
        // and Perm produces exactly one provenance row per result tuple.
        assert_eq!(perm_result.num_rows(), traced.len());
        assert!(traced.iter().all(|contributors| contributors.len() == 1));
    }
}

#[test]
fn stored_tpch_provenance_supports_follow_up_queries() {
    let db = tpch_db();
    let q6 = tpch_query(6).generate(&mut variant_rng(6, 0));
    db.store_provenance("q6_prov", &q6).unwrap();
    // The stored provenance is ordinary data: aggregate over the contributing lineitems.
    let follow_up =
        db.execute_sql("SELECT count(*) AS contributing_lineitems FROM q6_prov").unwrap();
    assert_eq!(follow_up.num_rows(), 1);
}

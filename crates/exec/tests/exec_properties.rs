//! Property-based tests for the executor: algebraic laws that must hold for any data.
//!
//! These guard the substrate the provenance rewriter builds on — in particular the bag-semantics
//! laws of Figure 1 (multiplicities of set operations), the equivalence of hash joins and
//! nested-loop joins, and the optimizer's semantics preservation.

use proptest::prelude::*;

use perm_algebra::{
    AggregateExpr, AggregateFunction, JoinKind, PlanBuilder, ScalarExpr, Schema, SetOpKind,
    SetSemantics, Tuple, Value,
};
use perm_exec::{execute_plan, Optimizer};
use perm_storage::{Catalog, Relation};

fn int_relation_strategy(max_rows: usize) -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((0i64..5, 0i64..5), 0..max_rows)
}

fn catalog_with(tables: &[(&str, &[(i64, i64)])]) -> Catalog {
    let catalog = Catalog::new();
    let schema = Schema::from_pairs(&[
        ("k", perm_algebra::DataType::Int),
        ("v", perm_algebra::DataType::Int),
    ]);
    for (name, rows) in tables {
        let tuples =
            rows.iter().map(|(k, v)| Tuple::new(vec![Value::Int(*k), Value::Int(*v)])).collect();
        catalog.create_table_with_data(name, Relation::from_parts(schema.clone(), tuples)).unwrap();
    }
    catalog
}

fn scan(catalog: &Catalog, name: &str, ref_id: usize) -> PlanBuilder {
    PlanBuilder::scan(name, catalog.table_schema(name).unwrap(), ref_id)
}

/// Count the multiplicity of `needle` in `rows`.
fn multiplicity(rows: &[(i64, i64)], needle: (i64, i64)) -> usize {
    rows.iter().filter(|r| **r == needle).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bag union, intersection and difference follow the multiplicity laws of Figure 1:
    /// n+m, min(n,m) and n-m respectively.
    #[test]
    fn bag_set_operation_multiplicities(
        a in int_relation_strategy(12),
        b in int_relation_strategy(12),
    ) {
        let catalog = catalog_with(&[("a", &a), ("b", &b)]);
        let run = |kind| {
            let plan = scan(&catalog, "a", 0)
                .set_op(scan(&catalog, "b", 1), kind, SetSemantics::Bag)
                .build();
            execute_plan(&catalog, &plan).unwrap()
        };
        let union = run(SetOpKind::Union);
        let intersect = run(SetOpKind::Intersect);
        let difference = run(SetOpKind::Difference);

        // Check the laws for every distinct tuple occurring anywhere.
        let mut universe: Vec<(i64, i64)> = a.iter().chain(b.iter()).copied().collect();
        universe.sort_unstable();
        universe.dedup();
        for t in universe {
            let tuple = Tuple::new(vec![Value::Int(t.0), Value::Int(t.1)]);
            let n = multiplicity(&a, t);
            let m = multiplicity(&b, t);
            let count_in = |rel: &Relation| rel.iter().filter(|x| *x == tuple).count();
            prop_assert_eq!(count_in(&union), n + m, "union multiplicity for {:?}", t);
            prop_assert_eq!(count_in(&intersect), n.min(m), "intersect multiplicity for {:?}", t);
            prop_assert_eq!(count_in(&difference), n.saturating_sub(m), "difference multiplicity for {:?}", t);
        }
    }

    /// A hash join (equi-condition) must agree with the equivalent cross product + selection.
    #[test]
    fn hash_join_equals_filtered_cross_product(
        a in int_relation_strategy(10),
        b in int_relation_strategy(10),
    ) {
        let catalog = catalog_with(&[("a", &a), ("b", &b)]);
        let condition = ScalarExpr::column(0, "k").eq(ScalarExpr::column(2, "k"));
        let join = scan(&catalog, "a", 0)
            .join(scan(&catalog, "b", 1), JoinKind::Inner, Some(condition.clone()))
            .build();
        let cross = scan(&catalog, "a", 0)
            .cross_join(scan(&catalog, "b", 1))
            .filter(condition)
            .build();
        let joined = execute_plan(&catalog, &join).unwrap();
        let filtered = execute_plan(&catalog, &cross).unwrap();
        prop_assert!(joined.bag_eq(&filtered));
    }

    /// A left outer join contains the inner join plus exactly one NULL-padded row per
    /// unmatched left tuple.
    #[test]
    fn left_outer_join_row_count(
        a in int_relation_strategy(10),
        b in int_relation_strategy(10),
    ) {
        let catalog = catalog_with(&[("a", &a), ("b", &b)]);
        let condition = ScalarExpr::column(0, "k").eq(ScalarExpr::column(2, "k"));
        let inner = execute_plan(
            &catalog,
            &scan(&catalog, "a", 0).join(scan(&catalog, "b", 1), JoinKind::Inner, Some(condition.clone())).build(),
        )
        .unwrap();
        let left = execute_plan(
            &catalog,
            &scan(&catalog, "a", 0).join(scan(&catalog, "b", 1), JoinKind::LeftOuter, Some(condition)).build(),
        )
        .unwrap();
        let matched_left_keys: std::collections::HashSet<i64> =
            b.iter().map(|(k, _)| *k).collect();
        let unmatched = a.iter().filter(|(k, _)| !matched_left_keys.contains(k)).count();
        prop_assert_eq!(left.num_rows(), inner.num_rows() + unmatched);
        // All padded rows have NULLs on the right side.
        let padded = left.iter().filter(|t| t[2].is_null() && t[3].is_null()).count();
        prop_assert_eq!(padded, unmatched);
    }

    /// The optimizer must not change query results (selection pushdown, join conversion,
    /// constant folding are all semantics-preserving).
    #[test]
    fn optimizer_preserves_results(
        a in int_relation_strategy(10),
        b in int_relation_strategy(10),
        threshold in 0i64..5,
    ) {
        let catalog = catalog_with(&[("a", &a), ("b", &b)]);
        let predicate = ScalarExpr::column(0, "k")
            .eq(ScalarExpr::column(2, "k"))
            .and(ScalarExpr::binary(
                perm_algebra::BinaryOperator::Lt,
                ScalarExpr::column(1, "v"),
                ScalarExpr::literal(threshold),
            ))
            .and(ScalarExpr::literal(true));
        let plan = scan(&catalog, "a", 0)
            .cross_join(scan(&catalog, "b", 1))
            .filter(predicate)
            .build();
        let optimized = Optimizer::new().optimize(&plan).unwrap();
        let raw = execute_plan(&catalog, &plan).unwrap();
        let opt = execute_plan(&catalog, &optimized).unwrap();
        prop_assert!(raw.bag_eq(&opt), "optimizer changed the result");
    }

    /// Grouped sums partition the total sum: summing the per-group sums equals the global sum.
    #[test]
    fn aggregation_partitions_sums(a in int_relation_strategy(15)) {
        let catalog = catalog_with(&[("a", &a), ("b", &[])]);
        let base = scan(&catalog, "a", 0);
        let v = base.col("v").unwrap();
        let k = base.col("k").unwrap();
        let grouped = base.clone().aggregate(
            vec![(k, "k".into())],
            vec![(AggregateExpr::new(AggregateFunction::Sum, v.clone()), "s".into())],
        );
        let total = base.aggregate(
            vec![],
            vec![(AggregateExpr::new(AggregateFunction::Sum, v), "s".into())],
        );
        let grouped_result = execute_plan(&catalog, &grouped.build()).unwrap();
        let total_result = execute_plan(&catalog, &total.build()).unwrap();
        let group_sum: i64 = grouped_result
            .iter()
            .filter_map(|t| t[1].as_i64())
            .sum();
        let expected = total_result.tuples()[0][0].as_i64().unwrap_or(0);
        prop_assert_eq!(group_sum, expected);
        // Number of groups equals the number of distinct keys.
        let distinct_keys: std::collections::HashSet<i64> = a.iter().map(|(k, _)| *k).collect();
        prop_assert_eq!(grouped_result.num_rows(), distinct_keys.len());
    }

    /// DISTINCT projection returns each distinct tuple exactly once.
    #[test]
    fn distinct_projection_removes_duplicates(a in int_relation_strategy(20)) {
        let catalog = catalog_with(&[("a", &a), ("b", &[])]);
        let base = scan(&catalog, "a", 0);
        let k = base.col("k").unwrap();
        let plan = base.project_distinct(vec![(k, "k".into())]).build();
        let result = execute_plan(&catalog, &plan).unwrap();
        let distinct_keys: std::collections::HashSet<i64> = a.iter().map(|(k, _)| *k).collect();
        prop_assert_eq!(result.num_rows(), distinct_keys.len());
    }
}

//! Property-based correctness tests for the provenance rewriter.
//!
//! The paper's §III-E correctness argument has two parts, both checked here on randomly
//! generated databases and queries:
//!
//! 1. **Original result preservation**: `Π_T(q+) = Π_T(q)` modulo multiplicity — the rewritten
//!    query neither invents nor loses original result tuples.
//! 2. **Equivalence with Cui–Widom lineage**: the provenance attached to each original result
//!    tuple, projected per base relation, equals the lineage the inversion approach computes.

use proptest::prelude::*;

use perm::baselines::cui_widom::{perm_matches_oracle, CuiWidomTracer, ViewDefinition};
use perm::prelude::*;
use perm_algebra::{AggregateExpr, AggregateFunction, BinaryOperator, ScalarExpr, Schema};
use perm_exec::execute_plan;

/// A small random database with two base relations `r` (3 columns) and `s` (2 columns).
#[derive(Debug, Clone)]
struct RandomDatabase {
    r_rows: Vec<(i64, i64, i64)>,
    s_rows: Vec<(i64, i64)>,
}

fn database_strategy() -> impl Strategy<Value = RandomDatabase> {
    let r_row = (0i64..6, 0i64..4, 0i64..10);
    let s_row = (0i64..6, 0i64..5);
    (proptest::collection::vec(r_row, 1..12), proptest::collection::vec(s_row, 1..10))
        .prop_map(|(r_rows, s_rows)| RandomDatabase { r_rows, s_rows })
}

/// A random query over the two relations, expressed both as a Perm plan input and as a
/// Cui–Widom view definition.
#[derive(Debug, Clone)]
struct RandomQuery {
    /// Filter constant applied to r.a.
    filter_below: i64,
    /// Whether to join with s (on r.b = s.x) or query r alone.
    join_s: bool,
    /// Whether to aggregate (sum of r.c grouped by r.b) or project.
    aggregate: bool,
}

fn query_strategy() -> impl Strategy<Value = RandomQuery> {
    (0i64..7, any::<bool>(), any::<bool>()).prop_map(|(filter_below, join_s, aggregate)| {
        RandomQuery { filter_below, join_s, aggregate }
    })
}

fn build_catalog(db: &RandomDatabase) -> Catalog {
    let catalog = Catalog::new();
    let r_schema =
        Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int), ("c", DataType::Int)]);
    let r_rows = db
        .r_rows
        .iter()
        .map(|(a, b, c)| Tuple::new(vec![Value::Int(*a), Value::Int(*b), Value::Int(*c)]))
        .collect();
    catalog.create_table_with_data("r", Relation::from_parts(r_schema, r_rows)).unwrap();
    let s_schema = Schema::from_pairs(&[("x", DataType::Int), ("y", DataType::Int)]);
    let s_rows =
        db.s_rows.iter().map(|(x, y)| Tuple::new(vec![Value::Int(*x), Value::Int(*y)])).collect();
    catalog.create_table_with_data("s", Relation::from_parts(s_schema, s_rows)).unwrap();
    catalog
}

/// Build the query as a Cui–Widom [`ViewDefinition`]; the Perm input plan is derived from it so
/// that both systems answer exactly the same question.
fn build_view(query: &RandomQuery) -> ViewDefinition {
    // Combined schema when joining: r(a,b,c) ++ s(x,y); r alone otherwise.
    let a = ScalarExpr::column(0, "a");
    let b = ScalarExpr::column(1, "b");
    let c = ScalarExpr::column(2, "c");
    let relations: Vec<String> =
        if query.join_s { vec!["r".into(), "s".into()] } else { vec!["r".into()] };
    let mut condition =
        ScalarExpr::binary(BinaryOperator::Lt, a, ScalarExpr::literal(query.filter_below));
    if query.join_s {
        let x = ScalarExpr::column(3, "x");
        condition = condition.and(b.clone().eq(x));
    }
    if query.aggregate {
        ViewDefinition::aspj(
            relations,
            Some(condition),
            vec![(b, "b".into())],
            vec![(AggregateExpr::new(AggregateFunction::Sum, c), "sum_c".into())],
        )
    } else {
        let projection = if query.join_s {
            vec![(b, "b".into()), (c, "c".into()), (ScalarExpr::column(4, "y"), "y".into())]
        } else {
            vec![(b, "b".into()), (c, "c".into())]
        };
        ViewDefinition::spj(relations, Some(condition), projection)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Part 1 of the §III-E correctness lemma on random SPJ / ASPJ queries.
    #[test]
    fn rewritten_queries_preserve_the_original_result(
        db in database_strategy(),
        query in query_strategy(),
    ) {
        let catalog = build_catalog(&db);
        let tracer = CuiWidomTracer::new(catalog.clone());
        let view = build_view(&query);
        let plan = tracer.view_plan(&view).unwrap();

        let original = execute_plan(&catalog, &plan).unwrap();
        let rewritten = ProvenanceRewriter::new().rewrite(&plan).unwrap();
        rewritten.verify().unwrap();
        let provenance = execute_plan(&catalog, &rewritten).unwrap();

        let original_cols: Vec<usize> = (0..original.arity()).collect();
        let projected = provenance.project(&original_cols);
        prop_assert!(
            projected.set_eq(&original),
            "original tuples changed:\noriginal:\n{}\nprojected provenance:\n{}",
            original.sorted().to_table_string(),
            projected.sorted().to_table_string()
        );
    }

    /// Part 2: Perm's influence-contribution provenance equals Cui–Widom lineage.
    #[test]
    fn perm_provenance_equals_cui_widom_lineage(
        db in database_strategy(),
        query in query_strategy(),
    ) {
        let catalog = build_catalog(&db);
        let tracer = CuiWidomTracer::new(catalog.clone());
        let view = build_view(&query);
        let plan = tracer.view_plan(&view).unwrap();

        let original = execute_plan(&catalog, &plan).unwrap();
        let rewritten = ProvenanceRewriter::new().rewrite(&plan).unwrap();
        let provenance = execute_plan(&catalog, &rewritten).unwrap();

        // Compare per distinct original result tuple.
        let mut distinct: Vec<Tuple> = original.tuples().to_vec();
        distinct.sort();
        distinct.dedup();
        for tuple in distinct {
            let oracle = tracer.lineage(&view, &tuple).unwrap();
            prop_assert!(
                perm_matches_oracle(&provenance, original.arity(), &tuple, &oracle),
                "provenance mismatch for result tuple {tuple}\nperm result:\n{}",
                provenance.sorted().to_table_string()
            );
        }
    }

    /// The provenance schema always appends one attribute group per base relation reference and
    /// marks exactly those attributes as provenance.
    #[test]
    fn provenance_schema_shape(db in database_strategy(), query in query_strategy()) {
        let catalog = build_catalog(&db);
        let tracer = CuiWidomTracer::new(catalog.clone());
        let view = build_view(&query);
        let plan = tracer.view_plan(&view).unwrap();
        let rewritten = ProvenanceRewriter::new().rewrite(&plan).unwrap();

        let original_arity = plan.schema().arity();
        let expected_prov: usize = if query.join_s { 3 + 2 } else { 3 };
        let schema = rewritten.schema();
        prop_assert_eq!(schema.arity(), original_arity + expected_prov);
        prop_assert_eq!(schema.provenance_indices().len(), expected_prov);
        let names: Vec<String> = schema
            .provenance_indices()
            .into_iter()
            .map(|i| schema.attributes()[i].name.to_string())
            .collect();
        for name in &names {
            prop_assert!(name.starts_with("prov_"), "bad provenance attribute name {name}");
        }
        // Names are unique.
        let mut deduped = names.clone();
        deduped.sort();
        deduped.dedup();
        prop_assert_eq!(deduped.len(), names.len());
    }
}

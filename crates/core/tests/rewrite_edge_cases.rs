//! Edge-case integration tests for the provenance rewriter and the `PermDb` facade, beyond the
//! happy paths covered by the unit tests: naming under many repeated references, rewriting of
//! already-rewritten inputs, ORDER BY / LIMIT interaction, set-difference variants, DISTINCT
//! blocks, multiple sublinks in one predicate, and error reporting.

use perm_algebra::{Tuple, Value};
use perm_core::{PermDb, PermError, SessionOptions};

fn db() -> PermDb {
    let db = PermDb::new();
    db.execute_script(
        "CREATE TABLE shop  (name TEXT, numEmpl INT);
         CREATE TABLE sales (sName TEXT, itemId INT);
         CREATE TABLE items (id INT, price INT);
         INSERT INTO shop  VALUES ('Merdies', 3), ('Joba', 14);
         INSERT INTO sales VALUES ('Merdies', 1), ('Merdies', 2), ('Merdies', 2), ('Joba', 3), ('Joba', 3);
         INSERT INTO items VALUES (1, 100), (2, 10), (3, 25);",
    )
    .unwrap();
    db
}

#[test]
fn repeated_relation_references_get_numbered_provenance_prefixes() {
    let db = db();
    let result = db
        .execute_sql(
            "SELECT PROVENANCE a.id FROM items a, items b, items c WHERE a.id = b.id AND b.id = c.id",
        )
        .unwrap();
    let names = result.schema().attribute_names();
    assert!(names.contains(&"prov_items_id".to_string()));
    assert!(names.contains(&"prov_items_1_id".to_string()));
    assert!(names.contains(&"prov_items_2_id".to_string()));
    assert_eq!(result.schema().provenance_indices().len(), 6);
    assert_eq!(result.num_rows(), 3);
}

#[test]
fn provenance_of_distinct_projection_keeps_distinct_witnesses() {
    let db = db();
    let normal = db.execute_sql("SELECT DISTINCT sName FROM sales").unwrap();
    assert_eq!(normal.num_rows(), 2);
    let provenance = db.execute_sql("SELECT DISTINCT PROVENANCE sName FROM sales").unwrap();
    // Rule R2 keeps the set semantics of the projection but extends its attribute list, so each
    // result name is annotated with every *distinct* contributing sales tuple:
    // Merdies × {(Merdies,1), (Merdies,2)} and Joba × {(Joba,3)}.
    assert_eq!(provenance.num_rows(), 3);
    assert!(provenance.num_rows() >= normal.num_rows());
}

#[test]
fn provenance_with_order_by_and_limit_applies_after_rewriting() {
    let db = db();
    let result = db
        .execute_sql("SELECT PROVENANCE id, price FROM items ORDER BY price DESC LIMIT 2")
        .unwrap();
    assert_eq!(result.num_rows(), 2);
    // Ordered by price descending: the most expensive item first, annotated with itself.
    assert_eq!(result.tuples()[0].values()[1].as_i64(), Some(100));
    assert_eq!(result.tuples()[0].values()[3].as_i64(), Some(100));
}

#[test]
fn set_difference_set_and_bag_semantics() {
    let db = db();
    // Bag difference (EXCEPT ALL): the sales item ids {1,2,2,3,3} cancel every occurrence in
    // items. Per rule R9 the provenance schema still carries both sides: the left input's
    // attributes (items: id, price) plus the differing right-side tuples (sales: sName, itemId).
    let bag = db
        .execute_sql("SELECT PROVENANCE id FROM items EXCEPT ALL SELECT itemId FROM sales")
        .unwrap();
    assert_eq!(bag.schema().provenance_indices().len(), 4);
    // Set difference (EXCEPT): {1,2,3} \ {1,2,3} = ∅ — no rows, but the query still runs.
    let set =
        db.execute_sql("SELECT PROVENANCE id FROM items EXCEPT SELECT itemId FROM sales").unwrap();
    assert_eq!(set.num_rows(), 0);
}

#[test]
fn rewriting_twice_reuses_the_first_rewrite() {
    // Rewriting a plan that is already a provenance plan must not duplicate provenance columns:
    // the ProvenanceAnnotation produced by the first rewrite declares the P-list, which the
    // second rewrite picks up (this is what makes incremental provenance work).
    let db = db();
    let plan = db.analyze_sql_plan("SELECT id, price FROM items WHERE price > 20").unwrap();
    let once = db.rewrite_plan(&plan).unwrap();
    let twice = db.rewrite_plan(&once).unwrap();
    assert_eq!(once.schema().provenance_indices().len(), 2);
    assert_eq!(twice.schema().provenance_indices().len(), 2);
    let once_result = db.execute_plan(&once).unwrap();
    let twice_result = db.execute_plan(&twice).unwrap();
    assert!(once_result.bag_eq(&twice_result));
}

/// q⁺ holds the projections its rules need and no more: R1 is the relation itself and R4 the
/// bare join, so the SPJ query keeps only its own projection (R2), and the aggregation adds
/// only R5's Π_{G→Ĝ,P} — the paper's Figure 4 shape.
#[test]
fn rewritten_plans_project_only_where_a_rule_needs_it() {
    fn projections(plan: &perm_algebra::LogicalPlan) -> usize {
        let own = usize::from(matches!(plan, perm_algebra::LogicalPlan::Projection { .. }));
        own + plan.children().iter().map(|c| projections(c)).sum::<usize>()
    }
    let db = db();
    for (sql, expected) in [
        (
            "SELECT PROVENANCE name, price FROM shop, sales, items \
             WHERE name = sName AND itemId = id",
            1,
        ),
        (
            "SELECT PROVENANCE name, sum(price) FROM shop, sales, items \
             WHERE name = sName AND itemId = id GROUP BY name",
            2,
        ),
    ] {
        let plan = db.analyze_sql_plan(sql).unwrap();
        assert_eq!(projections(&plan), expected, "{sql}:\n{plan}");
        let unoptimized = PermDb::with_catalog(
            db.catalog().clone(),
            SessionOptions::default().without_optimizer(),
        );
        let rows = db.execute_sql(sql).unwrap();
        assert!(rows.bag_eq(&unoptimized.execute_sql(sql).unwrap()), "{sql}");
        assert_eq!(
            rows.schema().provenance_indices(),
            (rows.arity() - 6..rows.arity()).collect::<Vec<_>>()
        );
    }
}

#[test]
fn multiple_sublinks_in_one_predicate() {
    let db = db();
    let result = db
        .execute_sql(
            "SELECT PROVENANCE name FROM shop \
             WHERE name IN (SELECT sName FROM sales) \
               AND numEmpl < (SELECT max(itemId) + 20 FROM sales)",
        )
        .unwrap();
    // Both shops satisfy both conditions; provenance includes attributes from shop and from both
    // sublink relations (two references to sales).
    let names = result.schema().attribute_names();
    assert!(names.iter().any(|n| n.starts_with("prov_shop_")));
    assert!(names.iter().any(|n| n == "prov_sales_sname"));
    assert!(names.iter().any(|n| n == "prov_sales_1_sname"));
    let normal = db
        .execute_sql(
            "SELECT name FROM shop \
             WHERE name IN (SELECT sName FROM sales) \
               AND numEmpl < (SELECT max(itemId) + 20 FROM sales)",
        )
        .unwrap();
    assert_eq!(normal.num_rows(), 2);
    // Every original tuple is still present among the provenance rows.
    for t in normal.tuples() {
        assert!(result.iter().any(|p| p.get(0) == t.get(0)));
    }
}

#[test]
fn provenance_of_union_query_via_sql() {
    let db = db();
    let result = db
        .execute_sql("SELECT PROVENANCE name FROM shop UNION ALL SELECT sName FROM sales")
        .unwrap();
    // Schema: name + provenance of shop (2 attrs) + provenance of sales (2 attrs).
    assert_eq!(result.schema().arity(), 5);
    assert_eq!(result.schema().provenance_indices().len(), 4);
    // Rule R6 joins the union result back to both rewritten inputs, so every row has provenance
    // from at least one side — and a name occurring in *both* inputs (every shop name also
    // appears in sales.sName) is annotated with witnesses from both sides on the same row.
    for t in result.tuples() {
        let from_shop = !t[1].is_null();
        let from_sales = !t[3].is_null();
        assert!(from_shop || from_sales, "at least one side contributes per row: {t}");
    }
    assert!(
        result.iter().any(|t| !t[1].is_null() && !t[3].is_null()),
        "names present in both inputs carry witnesses from both sides"
    );
}

#[test]
fn error_paths_are_reported_cleanly() {
    let db = db();
    // Unknown provenance attribute in a PROVENANCE (attrs) annotation.
    let err =
        db.execute_sql("SELECT PROVENANCE id FROM items PROVENANCE (does_not_exist)").unwrap_err();
    assert!(err.to_string().contains("does_not_exist"), "{err}");
    // Correlated sublinks are rejected, as in the paper.
    let err = db
        .execute_sql("SELECT PROVENANCE name FROM shop WHERE EXISTS (SELECT 1 FROM sales WHERE sName = name)")
        .unwrap_err();
    assert!(matches!(err, PermError::Sql(_)), "{err}");
    assert!(err.to_string().to_lowercase().contains("correlated"), "{err}");
}

#[test]
fn row_budget_and_timeout_options_are_honoured_for_provenance_queries() {
    let mut db = db();
    db.set_options(SessionOptions::default().with_row_budget(2));
    let err = db.execute_sql("SELECT PROVENANCE sum(price) FROM items").unwrap_err();
    assert!(matches!(err, PermError::Exec(_)));
    // Restoring generous options makes the same query succeed again.
    db.set_options(SessionOptions::default());
    assert!(db.execute_sql("SELECT PROVENANCE sum(price) FROM items").is_ok());
}

#[test]
fn provenance_attributes_survive_view_unfolding() {
    let db = db();
    db.execute_sql(
        "CREATE VIEW shop_sales AS SELECT PROVENANCE name, itemId FROM shop, sales WHERE name = sName",
    )
    .unwrap();
    // Selecting from the view exposes the provenance attributes computed by the view body.
    let through_view = db.execute_sql("SELECT prov_sales_itemid, name FROM shop_sales").unwrap();
    assert_eq!(through_view.num_rows(), 5);
    // And the view composes with further provenance computation that treats it as a base
    // relation (scope-limited provenance).
    let limited =
        db.execute_sql("SELECT PROVENANCE name FROM shop_sales BASERELATION AS v").unwrap();
    assert!(limited.schema().attribute_names().iter().any(|n| n.starts_with("prov_v_")));
}

#[test]
fn column_pruning_narrows_r3_r4_rewritten_joins_without_changing_results() {
    // An R3 (selection) + R4 (join) rewrite: the provenance output needs every attribute of
    // `shop` and `sales`, but `items` only contributes its join key to the original result, so
    // after the PROVENANCE projection selects its columns, pruning must not widen anything and
    // optimized/unoptimized execution must agree bag-wise.
    let db = db();
    let sql = "SELECT PROVENANCE name FROM shop, sales WHERE name = sName AND numEmpl > 2";
    let optimized_result = db.execute_sql(sql).unwrap();
    let mut unopt =
        PermDb::with_catalog(db.catalog().clone(), SessionOptions::default().without_optimizer());
    unopt.set_options(SessionOptions::default().without_optimizer());
    let unoptimized_result = unopt.execute_sql(sql).unwrap();
    assert!(optimized_result.bag_eq(&unoptimized_result));
    assert_eq!(
        optimized_result.schema().attribute_names(),
        vec![
            "name",
            "prov_shop_name",
            "prov_shop_numempl",
            "prov_sales_sname",
            "prov_sales_itemid"
        ]
    );

    // The optimized plan's join must carry only the surviving attributes: R1 adds no copies,
    // so `shop`'s and `sales`' own columns are both the original and the provenance
    // attributes — 4 columns (name, numEmpl, sName, itemId), not the raw rewrite's 4 + 4.
    let plan = db.plan_sql(sql).unwrap();
    fn max_join_width(plan: &perm_algebra::LogicalPlan) -> usize {
        let own = match plan {
            perm_algebra::LogicalPlan::Join { .. } => plan.output_arity(),
            _ => 0,
        };
        plan.children().iter().map(|c| max_join_width(c)).max().unwrap_or(0).max(own)
    }
    assert_eq!(
        max_join_width(&plan),
        4,
        "pruned provenance join should carry exactly 4 columns:\n{plan}"
    );
}

/// Non-ASCII text typed in SQL equals the same text stored through the `Relation` API, under
/// `=` and `LIKE` alike.
#[test]
fn non_ascii_literals_match_text_stored_through_the_api() {
    let db = PermDb::new();
    db.execute_script("CREATE TABLE city (name TEXT); INSERT INTO city VALUES ('Zürich');")
        .unwrap();
    let mut city = db.catalog().table("city").unwrap();
    city.push(Tuple::new(vec![Value::text("Zürich")])).unwrap();
    db.catalog().overwrite("city", city).unwrap();
    for sql in [
        "SELECT name FROM city WHERE name = 'Zürich'",
        "SELECT name FROM city WHERE name LIKE 'Zür%'",
    ] {
        let rows = db.execute_sql(sql).unwrap().tuples();
        assert_eq!(rows, vec![Tuple::new(vec![Value::text("Zürich")]); 2], "{sql}");
    }
}

/// The attribute names of `result`'s schema, with a check that no two are alike.
fn unique_names(result: &perm_storage::Relation) -> Vec<String> {
    let names = result.schema().attribute_names();
    let distinct: std::collections::HashSet<&String> = names.iter().collect();
    assert_eq!(distinct.len(), names.len(), "duplicate attribute names: {names:?}");
    names
}

/// Π_T(q⁺) = q: the rewritten query's original columns hold exactly q's result.
fn assert_projects_to(db: &PermDb, provenance: &perm_storage::Relation, sql: &str) {
    let original = db.execute_sql(sql).unwrap();
    let columns: Vec<usize> = (0..original.arity()).collect();
    assert!(provenance.project(&columns).bag_eq(&original), "Π_T(q+) differs from q for {sql}");
}

/// The paper's scheme alone names the second reference to `t` and the first to `t_1` alike
/// (`prov_t_1_x`), and `t(a_b)` and `t_a(b)` alike (`prov_t_a_b`). A reference whose name is
/// taken moves on to its next number, so every provenance attribute stays addressable.
#[test]
fn colliding_provenance_attribute_names_are_renumbered() {
    let db = PermDb::new();
    db.execute_script(
        "CREATE TABLE t (x INT); CREATE TABLE t_1 (x INT);
         INSERT INTO t VALUES (1), (2); INSERT INTO t_1 VALUES (1), (3);",
    )
    .unwrap();
    let sql = "SELECT PROVENANCE a.x FROM t AS a, t AS b, t_1 AS c";
    let result = db.execute_sql(sql).unwrap();
    assert_eq!(unique_names(&result), ["x", "prov_t_x", "prov_t_1_x", "prov_t_1_1_x"]);
    assert_projects_to(&db, &result, &sql.replace("PROVENANCE ", ""));

    let db = PermDb::new();
    db.execute_script(
        "CREATE TABLE t (a_b INT); CREATE TABLE t_a (b INT);
         INSERT INTO t VALUES (1), (2); INSERT INTO t_a VALUES (5);",
    )
    .unwrap();
    let sql = "SELECT PROVENANCE a_b, b FROM t, t_a";
    let result = db.execute_sql(sql).unwrap();
    assert_eq!(unique_names(&result), ["a_b", "b", "prov_t_a_b", "prov_t_a_1_b"]);
    assert_projects_to(&db, &result, &sql.replace("PROVENANCE ", ""));

    // Stored provenance keeps its names, so a fresh reference to the same relation after it
    // takes the next number.
    let db = self::db();
    db.execute_sql("SELECT PROVENANCE sum(price) AS total INTO tip FROM items").unwrap();
    let sql = "SELECT PROVENANCE total, id FROM tip PROVENANCE (prov_items_id, prov_items_price), \
               items WHERE id = prov_items_id";
    let result = db.execute_sql(sql).unwrap();
    assert_eq!(
        unique_names(&result),
        [
            "total",
            "id",
            "prov_items_id",
            "prov_items_price",
            "prov_items_1_id",
            "prov_items_1_price"
        ]
    );
}

/// Stored with `INTO`, each renumbered provenance attribute is a column of its own that a later
/// query can name.
#[test]
fn renumbered_provenance_attributes_round_trip_through_into() {
    let db = PermDb::new();
    db.execute_script(
        "CREATE TABLE t (x INT); CREATE TABLE t_1 (x INT);
         INSERT INTO t VALUES (1), (2); INSERT INTO t_1 VALUES (7);",
    )
    .unwrap();
    let stored =
        db.execute_sql("SELECT PROVENANCE a.x INTO st FROM t AS a, t AS b, t_1 AS c").unwrap();
    assert_eq!(stored.num_rows(), 4);
    let read = db.execute_sql("SELECT prov_t_1_x, prov_t_1_1_x FROM st").unwrap();
    assert_eq!(read.num_rows(), 4);
    // `prov_t_1_x` is the second reference to `t`, `prov_t_1_1_x` the reference to `t_1`.
    assert!(read.iter().all(|row| row[1] == Value::Int(7) && row[0] != Value::Int(7)));
}

/// The R6 join-back conditions name every column by the joined schema's own attribute, so
/// `EXPLAIN` of a provenance `UNION ALL` reads as the columns it compares.
#[test]
fn explain_names_the_set_operation_join_back_columns() {
    let db = PermDb::new();
    db.execute_script(
        "CREATE TABLE part (p_partkey INT, p_size INT);
         INSERT INTO part VALUES (1, 10), (2, 20), (3, 30);",
    )
    .unwrap();
    let explain = db
        .execute_sql(
            "EXPLAIN SELECT PROVENANCE p_partkey, p_size FROM part WHERE p_partkey < 3 \
             UNION ALL SELECT p_partkey, p_size FROM part WHERE p_partkey > 1",
        )
        .unwrap();
    let text: Vec<String> = explain
        .iter()
        .map(|row| match &row[0] {
            Value::Text(line) => line.to_string(),
            other => panic!("EXPLAIN prints text, got {other:?}"),
        })
        .collect();
    let text = text.join("\n");
    for truthful in [
        "(p_partkey#0 IS NOT DISTINCT FROM lhat_0_p_partkey#2)",
        "(p_size#1 IS NOT DISTINCT FROM lhat_1_p_size#3)",
        "IS NOT DISTINCT FROM rhat_0_p_partkey#",
    ] {
        assert!(text.contains(truthful), "missing `{truthful}` in\n{text}");
    }
    for made_up in ["c0#", "lhat_0#", "rhat_0#"] {
        assert!(!text.contains(made_up), "made-up column name `{made_up}` in\n{text}");
    }
}

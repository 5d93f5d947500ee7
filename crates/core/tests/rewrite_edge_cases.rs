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

    // The optimized plan's join must carry only the surviving attributes: 1 original + 4
    // provenance + the right side's join key — 6 columns, not the raw rewrite's 8 (which
    // duplicates numEmpl and itemId once more through the R1 copies).
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
        6,
        "pruned provenance join should carry exactly 6 columns:\n{plan}"
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

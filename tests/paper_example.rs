//! End-to-end reproduction of the paper's running example (Figures 2 and 4) through the full
//! SQL pipeline, plus the SQL-PLE features demonstrated in §IV-A.

use perm::prelude::*;

fn example_db() -> PermDb {
    let db = PermDb::new();
    db.execute_script(
        "CREATE TABLE shop  (name TEXT, numEmpl INT);
         CREATE TABLE sales (sName TEXT, itemId INT);
         CREATE TABLE items (id INT, price INT);
         INSERT INTO shop  VALUES ('Merdies', 3), ('Joba', 14);
         INSERT INTO sales VALUES ('Merdies', 1), ('Merdies', 2), ('Merdies', 2), ('Joba', 3), ('Joba', 3);
         INSERT INTO items VALUES (1, 100), (2, 10), (3, 25);",
    )
    .expect("example database loads");
    db
}

fn tuple_of(values: Vec<Value>) -> Tuple {
    Tuple::new(values)
}

#[test]
fn figure_4_result_relation_is_reproduced_exactly() {
    let db = example_db();
    let result = db
        .execute_sql(
            "SELECT PROVENANCE name, sum(price) AS sum_price
             FROM shop, sales, items
             WHERE name = sName AND itemId = id
             GROUP BY name",
        )
        .unwrap();

    assert_eq!(
        result.schema().attribute_names(),
        vec![
            "name",
            "sum_price",
            "prov_shop_name",
            "prov_shop_numempl",
            "prov_sales_sname",
            "prov_sales_itemid",
            "prov_items_id",
            "prov_items_price"
        ]
    );

    let expected: Vec<Tuple> = vec![
        tuple_of(vec![
            Value::text("Joba"),
            Value::Int(50),
            Value::text("Joba"),
            Value::Int(14),
            Value::text("Joba"),
            Value::Int(3),
            Value::Int(3),
            Value::Int(25),
        ]),
        tuple_of(vec![
            Value::text("Joba"),
            Value::Int(50),
            Value::text("Joba"),
            Value::Int(14),
            Value::text("Joba"),
            Value::Int(3),
            Value::Int(3),
            Value::Int(25),
        ]),
        tuple_of(vec![
            Value::text("Merdies"),
            Value::Int(120),
            Value::text("Merdies"),
            Value::Int(3),
            Value::text("Merdies"),
            Value::Int(1),
            Value::Int(1),
            Value::Int(100),
        ]),
        tuple_of(vec![
            Value::text("Merdies"),
            Value::Int(120),
            Value::text("Merdies"),
            Value::Int(3),
            Value::text("Merdies"),
            Value::Int(2),
            Value::Int(2),
            Value::Int(10),
        ]),
        tuple_of(vec![
            Value::text("Merdies"),
            Value::Int(120),
            Value::text("Merdies"),
            Value::Int(3),
            Value::text("Merdies"),
            Value::Int(2),
            Value::Int(2),
            Value::Int(10),
        ]),
    ];
    assert_eq!(result.sorted().tuples(), expected.as_slice());
}

#[test]
fn provenance_keyword_does_not_change_the_original_columns() {
    let db = example_db();
    let normal = db
        .execute_sql("SELECT name, sum(price) AS total FROM shop, sales, items WHERE name = sName AND itemId = id GROUP BY name")
        .unwrap();
    let provenance = db
        .execute_sql("SELECT PROVENANCE name, sum(price) AS total FROM shop, sales, items WHERE name = sName AND itemId = id GROUP BY name")
        .unwrap();
    // §III-E: Π_T(q+) = Π_T(q) modulo multiplicity.
    let original_cols: Vec<usize> = (0..normal.arity()).collect();
    assert!(provenance.project(&original_cols).set_eq(&normal));
}

#[test]
fn sql_ple_examples_from_section_four() {
    let db = example_db();

    // §IV-A.2: provenance query used as a subquery (q1).
    let q1 = db
        .execute_sql(
            "SELECT prov_items_id
             FROM (SELECT PROVENANCE name, sum(price) AS sum FROM shop, sales, items
                   WHERE name = sName AND itemId = id GROUP BY name) AS prov
             WHERE sum > 100",
        )
        .unwrap();
    assert_eq!(
        q1.sorted().iter().map(|t| t[0].clone()).collect::<Vec<_>>(),
        vec![Value::Int(1), Value::Int(2), Value::Int(2)]
    );

    // §IV-A.3: incremental provenance from a provenance view.
    db.execute_sql(
        "CREATE VIEW totalItemPrice AS SELECT PROVENANCE sum(price) AS total FROM items",
    )
    .unwrap();
    let incremental = db
        .execute_sql(
            "SELECT PROVENANCE total * 10
             FROM totalItemPrice PROVENANCE (prov_items_id, prov_items_price)",
        )
        .unwrap();
    assert_eq!(incremental.num_rows(), 3);
    assert_eq!(incremental.schema().provenance_indices().len(), 2);

    // §IV-A.4: BASERELATION limits the provenance scope.
    let limited = db
        .execute_sql(
            "SELECT PROVENANCE total * 10
             FROM (SELECT sum(price) AS total FROM items) BASERELATION AS sub",
        )
        .unwrap();
    assert_eq!(limited.num_rows(), 1);
    assert_eq!(limited.schema().attribute_names()[1], "prov_sub_total");

    // §IV-E: the disjunctive sublink example.
    let sublink = db
        .execute_sql(
            "SELECT PROVENANCE name FROM shop
             WHERE numEmpl < 10 OR name IN (SELECT sName FROM sales)",
        )
        .unwrap();
    let merdies_rows = sublink.iter().filter(|t| t[0] == Value::text("Merdies")).count();
    assert_eq!(
        merdies_rows, 5,
        "all sales tuples contribute to Merdies (condition holds regardless of the sublink)"
    );
}

#[test]
fn eager_storage_and_reuse_round_trip() {
    let db = example_db();
    let rows = db
        .store_provenance("qex_prov", "SELECT name, sum(price) AS total FROM shop, sales, items WHERE name = sName AND itemId = id GROUP BY name")
        .unwrap();
    assert_eq!(rows, 5);
    // Stored provenance is an ordinary table: plain SQL applies.
    let heavy_items =
        db.execute_sql("SELECT DISTINCT prov_items_id FROM qex_prov WHERE total > 100").unwrap();
    assert_eq!(heavy_items.num_rows(), 2);
    // ... and it can seed incremental provenance computations.
    let reused = db
        .execute_sql(
            "SELECT PROVENANCE total FROM qex_prov PROVENANCE (prov_items_id, prov_items_price) WHERE total > 100",
        )
        .unwrap();
    assert_eq!(reused.schema().provenance_indices().len(), 2);
    assert_eq!(reused.num_rows(), 3);
}

//! `SELECT … INTO`, as in PostgreSQL: the first SELECT of a statement names the table its whole
//! result goes into, a set operation's included; an `INTO` anywhere else is an error naming
//! where it appears; and a column of no type is created TEXT.

use std::sync::Arc;

use perm_algebra::{DataType, Value};
use perm_service::Engine;

fn engine() -> Arc<Engine> {
    let engine = Arc::new(Engine::new());
    engine
        .session()
        .execute_script("CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (3)")
        .unwrap();
    engine
}

fn ints(engine: &Arc<Engine>, sql: &str) -> Vec<Value> {
    engine.session().execute(sql).unwrap().iter().map(|row| row[0].clone()).collect()
}

#[test]
fn into_on_the_first_select_of_a_set_operation_stores_the_whole_result() {
    let engine = engine();
    engine.session().execute("SELECT a INTO t5 FROM t UNION ALL SELECT 2 FROM t").unwrap();
    let stored = ints(&engine, "SELECT a FROM t5 ORDER BY a");
    assert_eq!(stored, [1, 2, 2, 3].map(Value::Int));
}

/// `sql` puts `INTO t6` in `place`: it is refused, and no table is created.
fn refused(sql: &str, place: &str) {
    let engine = engine();
    let err = engine.session().execute(sql).unwrap_err().to_string();
    assert!(err.contains("INTO t6") && err.contains(place), "{sql}: {err}");
    assert!(!engine.catalog().has_table("t6"), "{sql}");
}

#[test]
fn into_on_a_later_branch_of_a_set_operation_is_refused() {
    refused(
        "SELECT a FROM t UNION ALL SELECT a INTO t6 FROM t",
        "a later branch of a set operation",
    );
}

#[test]
fn into_in_a_derived_table_is_refused() {
    refused("SELECT a FROM (SELECT a INTO t6 FROM t) s", "a derived table");
}

#[test]
fn into_in_a_subquery_expression_is_refused() {
    refused("SELECT a FROM t WHERE a IN (SELECT a INTO t6 FROM t)", "a subquery expression");
}

/// A NULL column is created TEXT, so what is inserted later is stored as text.
#[test]
fn an_untyped_into_column_is_text() {
    let engine = engine();
    let session = engine.session();
    session.execute("SELECT NULL AS x INTO t3 FROM t").unwrap();
    let schema = engine.catalog().table_schema("t3").unwrap();
    assert_eq!(schema.attribute(0).unwrap().data_type, DataType::Text);
    session.execute_script("INSERT INTO t3 VALUES (5); INSERT INTO t3 VALUES ('a')").unwrap();
    let upper = ints(&engine, "SELECT UPPER(x) AS u FROM t3 WHERE x IS NOT NULL ORDER BY u");
    assert_eq!(upper, [Value::Text("5".into()), Value::Text("A".into())]);
}

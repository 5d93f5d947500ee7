//! PREPARE-time typed-plan verification: queries that parse and bind fine but are ill-typed
//! must be rejected when the plan is compiled — with a `type mismatch` error naming the
//! operator path — instead of failing (or silently misbehaving) at execution time, whether the
//! query is executed, prepared, run from a script or feeds `INSERT … SELECT`. Also checks that
//! EXPLAIN output carries the inferred per-operator types.

use std::sync::Arc;

use perm_algebra::{DataType, Value};
use perm_core::{PermDb, ProvenanceRewriter};
use perm_service::{Engine, SessionOptions};

fn shop_engine() -> Arc<Engine> {
    let engine = Arc::new(Engine::new().with_rewriter(Arc::new(ProvenanceRewriter::new())));
    let session = engine.session();
    session
        .execute_script(
            "CREATE TABLE shop (name TEXT, numEmpl INT);\n\
             INSERT INTO shop VALUES ('Merdies', 3), ('Joba', 14);",
        )
        .unwrap();
    engine
}

#[test]
fn prepare_rejects_text_int_comparison_with_operator_path() {
    let engine = shop_engine();
    let mut session = engine.session();
    let err = session.prepare("bad", "SELECT name FROM shop WHERE name > numEmpl").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("type mismatch"), "want a type mismatch, got: {msg}");
    assert!(msg.contains("TEXT") && msg.contains("INT"), "names both sides: {msg}");
    assert!(msg.contains("Selection"), "names the operator path: {msg}");
    // Rejected at PREPARE time: nothing was registered.
    assert!(session.prepared("bad").is_none());
}

#[test]
fn direct_query_rejects_text_arithmetic_before_execution() {
    let engine = shop_engine();
    let session = engine.session();
    let err = session.execute("SELECT name + numEmpl FROM shop").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("type mismatch"), "want a type mismatch, got: {msg}");
    assert!(msg.contains("Projection"), "names the operator path: {msg}");
}

#[test]
fn prepare_rejects_parameter_without_concrete_type() {
    let engine = shop_engine();
    let mut session = engine.session();
    // `$1` is never used in a context that fixes its type, so binding cannot choose one.
    let err = session.prepare("anyparam", "SELECT $1 FROM shop").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("parameter $1"), "names the parameter: {msg}");
    assert!(msg.contains("unresolved"), "explains what is missing: {msg}");
}

#[test]
fn prepare_rejects_a_parameter_whose_bound_type_a_function_does_not_take() {
    let engine = shop_engine();
    let mut session = engine.session();
    for sql in [
        "SELECT UPPER($1) FROM shop WHERE numEmpl = $1",
        // The use that binds `$1` is walked after the one that needs TEXT.
        "SELECT numEmpl = $1 FROM shop WHERE UPPER($1) = 'A'",
        "SELECT SUM($1) FROM shop WHERE name = $1",
        "SELECT name FROM shop WHERE NOT $1 AND numEmpl > $1",
        "SELECT EXTRACT(YEAR FROM $1) FROM shop WHERE numEmpl = $1",
    ] {
        let err = session.prepare("bad", sql).unwrap_err().to_string();
        assert!(err.contains("type mismatch in parameter $1"), "{sql}: {err}");
    }
    assert!(session.prepared("bad").is_none());
    // Such a rule checks a parameter's type but does not give it one.
    let err = session.prepare("bad", "SELECT UPPER($1) FROM shop").unwrap_err().to_string();
    assert!(err.contains("unresolved"), "{err}");
    session.prepare("ok", "SELECT UPPER($1) FROM shop WHERE name = $1").unwrap();
    let r = session.execute_prepared("ok", vec![Value::Text("Joba".into())]).unwrap();
    assert_eq!(
        r.iter().map(|row| row[0].clone()).collect::<Vec<_>>(),
        [Value::Text("JOBA".into())]
    );
}

#[test]
fn well_typed_provenance_query_still_prepares() {
    let engine = shop_engine();
    let mut session = engine.session();
    let params =
        session.prepare("ok", "SELECT PROVENANCE name FROM shop WHERE numEmpl > $1").unwrap();
    assert_eq!(params, 1);
    let r = session.execute_prepared("ok", vec![Value::Int(5)]).unwrap();
    assert_eq!(r.num_rows(), 1);
}

#[test]
fn explain_carries_inferred_types() {
    let engine = shop_engine();
    let session = engine.session();
    let plan = session.execute("EXPLAIN SELECT name FROM shop WHERE numEmpl > 5").unwrap();
    let text = plan
        .iter()
        .map(|t| match &t.values()[0] {
            Value::Text(s) => s.to_string(),
            other => panic!("plan column must be text, got {other:?}"),
        })
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("types="), "operator lines carry inferred types:\n{text}");
    // The scan exposes both columns; base-table columns are nullable (no NOT NULL metadata).
    assert!(text.contains("types=(TEXT?, INT?)"), "scan line types:\n{text}");
    // The root line's types are the plan's declared schema, with each column's nullability.
    let plan = &engine.plan_query("SELECT name FROM shop WHERE numEmpl > 5", true).unwrap().plan;
    assert_eq!(plan.schema().attribute(0).unwrap().data_type, DataType::Text);
    let root = text.lines().next().unwrap();
    assert!(root.ends_with(&format!("types={}", plan.verify().unwrap())), "{root}");
    assert!(root.ends_with("types=(TEXT?)"), "{root}");
}

#[test]
fn scripts_and_insert_select_reject_ill_typed_queries_as_execute_does() {
    // Over an empty table nothing ever evaluates `name + 1`, so only the verifier can catch it —
    // with the optimizer on or off, and whichever way the statement arrives.
    for optimize in [true, false] {
        let engine = shop_engine();
        let mut session = engine.session();
        session.set_options(SessionOptions { optimize, ..SessionOptions::default() });
        session.execute_script("CREATE TABLE e (name TEXT); CREATE TABLE t (x INT)").unwrap();
        let query = "SELECT name + 1 FROM e";
        let expected = session.execute(query).unwrap_err().to_string();
        assert!(expected.contains("type mismatch"), "want a type mismatch, got: {expected}");
        for statement in [query.to_string(), format!("INSERT INTO t {query}")] {
            let err = session.execute_script(&statement).unwrap_err().to_string();
            assert_eq!(err, expected, "{statement} (optimize={optimize})");
        }
        let err = session.execute(&format!("INSERT INTO t {query}")).unwrap_err().to_string();
        assert_eq!(err, expected, "INSERT ... SELECT through execute (optimize={optimize})");
    }
    // The embedded facade runs scripts the same way.
    let db = PermDb::new();
    db.execute_script("CREATE TABLE e (name TEXT)").unwrap();
    let expected = db.execute_sql("SELECT name + 1 FROM e").unwrap_err().to_string();
    let err = db.execute_script("SELECT name + 1 FROM e").unwrap_err().to_string();
    assert_eq!(err, expected);
}

#[test]
fn set_operations_of_other_widths_or_types_are_rejected_before_execution() {
    let engine = shop_engine();
    let session = engine.session();
    for (query, want) in [
        ("SELECT name, numEmpl FROM shop UNION SELECT name FROM shop", "not union compatible"),
        ("SELECT name FROM shop EXCEPT SELECT numEmpl FROM shop", "expected TEXT, got INT"),
        ("SELECT PROVENANCE numEmpl FROM shop UNION SELECT name FROM shop", "expected INT"),
    ] {
        let msg = session.execute(query).unwrap_err().to_string();
        assert!(msg.contains(want), "{query}: {msg}");
    }
    let widened = session.execute("SELECT numEmpl FROM shop UNION ALL SELECT 0.5 FROM shop");
    assert_eq!(widened.unwrap().num_rows(), 4);
}

//! Declared = inferred = delivered. For each query of the SQL corpus, each supported TPC-H
//! query (normal and `PROVENANCE`, at Small scale) and two set-operation probes, the schema the
//! plan declares (`LogicalPlan::schema`) is:
//!
//! * the schema `verify()` checks, before and after optimization, with the same types;
//! * the schema the result stream's `S` header carries (`QueryStream::schema`);
//! * the type of every column the engine delivers that is not all NULL.

#[path = "../crates/sql/tests/corpus/mod.rs"]
mod corpus;

use perm::prelude::*;
use perm::tpch::queries::{add_provenance_keyword, supported_query_ids, tpch_query, variant_rng};

/// A `SELECT NULL` branch over an INT one: the column is INT, whichever branch is first.
const PROBES: &[&str] = &[
    "SELECT NULL AS n FROM t UNION ALL SELECT a FROM t",
    "SELECT n FROM (SELECT NULL AS n UNION ALL SELECT a FROM t) s",
];

fn types(schema: &Schema) -> Vec<(DataType, bool)> {
    schema.attributes().iter().map(|a| (a.data_type, a.provenance)).collect()
}

fn check(db: &PermDb, sql: &str) {
    let engine = db.engine();
    let planned = |optimize| {
        let prepared = engine.plan_query(sql, optimize).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let declared = prepared.plan.schema();
        let verified = prepared.plan.verify().unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert_eq!(verified.schema, declared, "verify() checks the declared schema of {sql}");
        declared
    };
    let declared = planned(true);
    assert_eq!(types(&planned(false)), types(&declared), "optimizing {sql} keeps its types");

    let mut stream = engine.session().execute_streaming(sql).unwrap();
    assert_eq!(stream.schema(), &declared, "the S header of {sql}");
    while let Some(chunk) = stream.next_chunk() {
        let chunk = chunk.unwrap_or_else(|e| panic!("{sql}: {e}"));
        for (array, column) in chunk.columns().iter().zip(declared.attributes()) {
            if array.data_type() != DataType::Null {
                assert_eq!(array.data_type(), column.data_type, "{}: {sql}", column.name);
            }
        }
    }
}

#[test]
fn every_column_is_delivered_with_the_type_its_plan_declares() {
    let db = PermDb::with_catalog(generate_catalog(TpchScale::small(), 42), Default::default());
    db.execute_script("CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (NULL), (3)").unwrap();
    let corpus = corpus::ACCEPTED.iter().filter(|sql| sql.starts_with("SELECT"));
    for sql in corpus.chain(PROBES) {
        check(&db, sql);
    }
    for id in supported_query_ids() {
        let sql = tpch_query(id).generate(&mut variant_rng(id, 0));
        check(&db, &sql);
        check(&db, &add_provenance_keyword(&sql));
    }
    let probe = db.engine().plan_query(PROBES[0], true).unwrap();
    assert_eq!(probe.plan.schema().attribute(0).unwrap().data_type, DataType::Int);
}

/// The known limit of declared types: a `$n` is typed only when `exec` binds it. A bare `$1`
/// output column is declared NULL, and an expression over a `$n` is declared with the type its
/// typed operands give it: `$1 * 2` is INT here, from the INT literal. The bound value can
/// widen that type: `$1 = 1.5` delivers FLOAT.
#[test]
fn an_expression_over_a_parameter_is_declared_by_its_typed_operands() {
    let db = PermDb::new();
    db.execute_script("CREATE TABLE f (x FLOAT); INSERT INTO f VALUES (1.0)").unwrap();
    let sql = "SELECT $1 AS p, $1 * 2 AS y FROM f WHERE x > $1";
    let declared = db.engine().plan_query(sql, true).unwrap().plan.schema();
    let declared: Vec<DataType> = declared.attributes().iter().map(|a| a.data_type).collect();
    assert_eq!(declared, [DataType::Null, DataType::Int]);
    let mut session = db.engine().session();
    session.prepare("p", sql).unwrap();
    for (bound, delivered) in [
        (Value::Int(0), [Value::Int(0), Value::Int(0)]),
        (Value::Float(0.5), [Value::Float(0.5), Value::Float(1.0)]),
    ] {
        let stream = session.execute_prepared_streaming("p", vec![bound]).unwrap();
        assert_eq!(types(stream.schema()), [(DataType::Null, false), (DataType::Int, false)]);
        let rows = stream.collect_relation().unwrap();
        let rows: Vec<Vec<Value>> = rows.iter().map(|row| row.values().to_vec()).collect();
        assert_eq!(rows, [delivered.to_vec()]);
    }
}

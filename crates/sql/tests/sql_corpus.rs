//! A corpus of SQL statements that must parse and analyze (or fail with the right error class).
//!
//! This complements the unit tests in the parser/analyzer modules with broader coverage of the
//! SQL surface used by the TPC-H workload and the SQL-PLE extension.

mod corpus;

use corpus::ACCEPTED;
use perm_algebra::{DataType, Schema};
use perm_sql::{parse_statement, AnalyzedStatement, Analyzer, SqlError};
use perm_storage::Catalog;

fn tpch_like_catalog() -> Catalog {
    let catalog = Catalog::new();
    let tables: Vec<(&str, Vec<(&str, DataType)>)> = vec![
        (
            "orders",
            vec![
                ("o_orderkey", DataType::Int),
                ("o_custkey", DataType::Int),
                ("o_orderdate", DataType::Date),
                ("o_totalprice", DataType::Float),
                ("o_comment", DataType::Text),
            ],
        ),
        (
            "lineitem",
            vec![
                ("l_orderkey", DataType::Int),
                ("l_partkey", DataType::Int),
                ("l_quantity", DataType::Float),
                ("l_extendedprice", DataType::Float),
                ("l_discount", DataType::Float),
                ("l_shipdate", DataType::Date),
                ("l_shipmode", DataType::Text),
                ("l_returnflag", DataType::Text),
            ],
        ),
        (
            "customer",
            vec![
                ("c_custkey", DataType::Int),
                ("c_name", DataType::Text),
                ("c_nationkey", DataType::Int),
                ("c_acctbal", DataType::Float),
            ],
        ),
        ("nation", vec![("n_nationkey", DataType::Int), ("n_name", DataType::Text)]),
        (
            "part",
            vec![
                ("p_partkey", DataType::Int),
                ("p_type", DataType::Text),
                ("p_size", DataType::Int),
            ],
        ),
    ];
    for (name, cols) in tables {
        catalog.create_table(name, Schema::from_pairs(&cols)).unwrap();
    }
    catalog
}

/// Statements that must be rejected, with a coarse classification of the expected error.
const REJECTED: &[(&str, &str)] = &[
    // "SELECT FROM customer" parses FROM as a (doomed) column reference, like several lenient
    // SQL dialects, and is rejected during analysis.
    ("SELECT FROM customer", "analyze"),
    ("SELECT c_name FROM", "parse"),
    ("SELECT missing_column FROM customer", "analyze"),
    ("SELECT c_name FROM missing_table", "analyze"),
    ("SELECT c_name, count(*) FROM customer", "analyze"), // bare column next to aggregate
    ("SELECT sum(c_name, c_acctbal) FROM customer", "analyze"), // two aggregate arguments
    ("SELECT c_name FROM customer WHERE c_acctbal HAVING 1", "analyze"), // HAVING without GROUP BY
    ("SELECT c_name FROM customer WHERE EXISTS (SELECT 1 FROM orders WHERE o_custkey = c_custkey)", "unsupported"),
    ("SELECT unknown_function(c_name) FROM customer", "analyze"),
    ("CREATE TABLE t (a FANCYTYPE)", "parse"),
    ("SELECT c_name FROM customer ORDER BY 17", "analyze"),
    // SQL-PLE's order is SELECT DISTINCT PROVENANCE; the other order is not a column named
    // DISTINCT.
    ("SELECT PROVENANCE DISTINCT c_name FROM customer", "parse"),
];

#[test]
fn accepted_corpus_parses_and_analyzes() {
    let analyzer = Analyzer::new(tpch_like_catalog());
    for sql in ACCEPTED {
        let stmt = parse_statement(sql).unwrap_or_else(|e| panic!("parse failed for {sql}: {e}"));
        analyzer
            .analyze_statement(&stmt)
            .unwrap_or_else(|e| panic!("analysis failed for {sql}: {e}"));
    }
}

#[test]
fn rejected_corpus_fails_with_the_expected_error_class() {
    let analyzer = Analyzer::new(tpch_like_catalog());
    for (sql, expected_class) in REJECTED {
        let outcome =
            parse_statement(sql).and_then(|stmt| analyzer.analyze_statement(&stmt).map(|_| ()));
        let err = match outcome {
            Err(e) => e,
            Ok(()) => panic!("statement should have been rejected: {sql}"),
        };
        let class = match err {
            SqlError::Lex { .. } | SqlError::Parse { .. } => "parse",
            SqlError::Unsupported(_) => "unsupported",
            _ => "analyze",
        };
        assert_eq!(&class, expected_class, "wrong error class for {sql}: {err}");
    }
}

/// `SELECT PROVENANCE DISTINCT` is refused by the parser with the order it supports.
#[test]
fn provenance_before_distinct_names_the_supported_order() {
    let err = parse_statement("SELECT PROVENANCE DISTINCT c_name FROM customer").unwrap_err();
    assert!(
        matches!(&err, SqlError::Parse { message, .. } if message.contains("SELECT DISTINCT PROVENANCE")),
        "{err}"
    );
    parse_statement("SELECT DISTINCT PROVENANCE c_name FROM customer").unwrap();
}

/// Quoted non-ASCII text reaches the catalog lookup and the plan byte for byte.
#[test]
fn non_ascii_identifiers_and_literals_resolve() {
    let catalog = tpch_like_catalog();
    catalog.create_table("größe", Schema::from_pairs(&[("straße", DataType::Text)])).unwrap();
    let plan = Analyzer::new(catalog)
        .analyze_query_sql("SELECT \"straße\" FROM \"größe\" WHERE \"straße\" = 'Zürich'")
        .unwrap();
    assert!(plan.display_tree().contains("'Zürich'"), "{}", plan.display_tree());
}

#[test]
fn analysis_is_deterministic_across_clones() {
    let catalog = tpch_like_catalog();
    let a1 = Analyzer::new(catalog.clone());
    let a2 = Analyzer::new(catalog);
    for sql in ACCEPTED.iter().filter(|s| s.starts_with("SELECT")) {
        let p1 = a1.analyze_query_sql(sql);
        let p2 = a2.analyze_query_sql(sql);
        match (p1, p2) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.display_tree(), y.display_tree(), "plans differ for {sql}")
            }
            (Err(_), Err(_)) => {}
            other => panic!("divergent outcomes for {sql}: {other:?}"),
        }
    }
}

/// Minimized texts that once gave a FLOAT column INT values (an INT `CASE` arm, `$n` arm and
/// `COALESCE` argument, an INT set-operation branch, an INT `INSERT … SELECT` source): each now
/// analyzes to a plan that casts the INT input, verifies, and declares the column FLOAT.
#[test]
fn widening_inputs_are_cast_to_their_columns_common_type() {
    let catalog = Catalog::new();
    for (table, column, data_type) in
        [("f", "x", DataType::Float), ("i", "y", DataType::Int), ("g", "z", DataType::Float)]
    {
        catalog.create_table(table, Schema::from_pairs(&[(column, data_type)])).unwrap();
    }
    let analyzer = Analyzer::new(catalog);
    let insert = match analyzer.analyze_sql("INSERT INTO g SELECT y FROM i").unwrap() {
        AnalyzedStatement::InsertFromQuery { plan, .. } => plan,
        other => panic!("expected an INSERT ... SELECT, got {other:?}"),
    };
    let queries = [
        "SELECT CASE WHEN x > 2 THEN 7 ELSE 0.5 END / 2 FROM f",
        "SELECT CASE WHEN x > 2 THEN $1 ELSE 0.5 END / 2 FROM f",
        "SELECT coalesce(NULL, 7, 0.5) / 2 FROM f",
        "SELECT c / 2 FROM (SELECT y AS c FROM i UNION ALL SELECT x FROM f) s",
    ];
    let plans = queries.iter().map(|sql| (*sql, analyzer.analyze_query_sql(sql).unwrap()));
    for (sql, plan) in plans.chain([("INSERT INTO g SELECT y FROM i", insert)]) {
        assert_eq!(plan.schema().attribute(0).unwrap().data_type, DataType::Float, "{sql}");
        assert_eq!(plan.verify().unwrap().schema, plan.schema(), "{sql}");
    }
}

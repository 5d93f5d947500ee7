//! A corpus of SQL statements that must parse and analyze (or fail with the right error class).
//!
//! This complements the unit tests in the parser/analyzer modules with broader coverage of the
//! SQL surface used by the TPC-H workload and the SQL-PLE extension.

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

/// Statements that must parse and analyze successfully.
const ACCEPTED: &[&str] = &[
    // Projections, expressions, aliases.
    "SELECT c_name, c_acctbal * 2 AS doubled FROM customer",
    "SELECT DISTINCT c_nationkey FROM customer",
    "SELECT customer.c_name, n.n_name FROM customer, nation n WHERE customer.c_nationkey = n.n_nationkey",
    "SELECT * FROM customer",
    "SELECT customer.* FROM customer, nation",
    // Predicates.
    "SELECT c_name FROM customer WHERE c_acctbal BETWEEN 0 AND 1000 AND c_name LIKE 'Customer#%'",
    "SELECT c_name FROM customer WHERE c_nationkey IN (1, 2, 3) OR c_acctbal IS NULL",
    "SELECT c_name FROM customer WHERE NOT (c_acctbal < 0)",
    // Aggregation, HAVING, ORDER BY, LIMIT.
    "SELECT c_nationkey, count(*) AS cnt, sum(c_acctbal) FROM customer GROUP BY c_nationkey HAVING count(*) > 1 ORDER BY cnt DESC LIMIT 5",
    "SELECT count(DISTINCT c_nationkey) FROM customer",
    "SELECT avg(l_quantity), min(l_shipdate), max(l_shipdate) FROM lineitem",
    "SELECT l_returnflag, sum(CASE WHEN l_discount > 0.05 THEN l_extendedprice ELSE 0 END) FROM lineitem GROUP BY l_returnflag",
    // Joins.
    "SELECT c_name FROM customer JOIN nation ON c_nationkey = n_nationkey",
    "SELECT c_name FROM customer LEFT OUTER JOIN orders ON c_custkey = o_custkey AND o_totalprice > 100",
    "SELECT c_name FROM customer CROSS JOIN nation",
    // Derived tables and set operations.
    "SELECT big.c_name FROM (SELECT c_name, c_acctbal FROM customer WHERE c_acctbal > 0) AS big",
    "SELECT c_custkey FROM customer UNION ALL SELECT o_custkey FROM orders",
    "SELECT c_custkey FROM customer INTERSECT SELECT o_custkey FROM orders",
    "SELECT c_custkey FROM customer EXCEPT SELECT o_custkey FROM orders",
    // Date and interval arithmetic, EXTRACT, CAST.
    "SELECT o_orderkey FROM orders WHERE o_orderdate >= date '1995-01-01' AND o_orderdate < date '1995-01-01' + interval '1' year",
    "SELECT extract(year FROM o_orderdate), CAST(o_totalprice AS INT) FROM orders",
    "SELECT o_orderkey FROM orders WHERE o_orderdate <= date '1998-12-01' - interval '90' day",
    // Uncorrelated sublinks.
    "SELECT c_name FROM customer WHERE c_custkey IN (SELECT o_custkey FROM orders)",
    "SELECT c_name FROM customer WHERE c_custkey NOT IN (SELECT o_custkey FROM orders WHERE o_totalprice > 100)",
    "SELECT c_name FROM customer WHERE c_acctbal > (SELECT avg(c_acctbal) FROM customer)",
    "SELECT c_name FROM customer WHERE EXISTS (SELECT 1 FROM orders)",
    // DDL / DML.
    "CREATE TABLE scratch (a INT, b TEXT, c DATE, d DECIMAL(12,2))",
    "DROP TABLE IF EXISTS scratch",
    "INSERT INTO nation VALUES (99, 'ATLANTIS')",
    "INSERT INTO nation (n_nationkey) VALUES (100)",
    "INSERT INTO nation SELECT c_custkey, c_name FROM customer",
    "CREATE VIEW rich_customers AS SELECT c_name FROM customer WHERE c_acctbal > 1000",
    // SQL-PLE (without a rewriter these only parse; analysis of PROVENANCE needs perm-core and
    // is covered in the perm-core tests) — the from-item annotations analyze fine on their own.
    "SELECT * FROM customer PROVENANCE (c_custkey, c_name)",
    "SELECT * FROM (SELECT c_name FROM customer) BASERELATION AS c",
    "SELECT c_name INTO customer_copy FROM customer",
];

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
        assert_eq!(plan.verify().unwrap().columns()[0].data_type, DataType::Float, "{sql}");
    }
}

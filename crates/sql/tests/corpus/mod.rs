//! The statements of the SQL corpus that must parse and analyze, shared by `sql_corpus.rs` and
//! by the workspace's `declared_types.rs`, which also runs its queries on a TPC-H catalog: the
//! corpus names only TPC-H columns.

/// Statements that must parse and analyze successfully.
pub const ACCEPTED: &[&str] = &[
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

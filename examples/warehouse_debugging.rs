//! Data-warehouse debugging: trace a suspicious report value back to the source tuples that
//! produced it — the motivating scenario of the paper's introduction.
//!
//! The example loads a small TPC-H database, runs a revenue report per nation, picks one
//! reported value and uses three different mechanisms to explain it:
//!
//! 1. Perm's lazy provenance rewriting (a single `SELECT PROVENANCE` query),
//! 2. the Cui–Widom inversion approach (one inverse query per base relation), and
//! 3. the Trio-style eager lineage baseline (stored lineage relations, iterative tracing),
//!
//! illustrating the representational and operational differences discussed in §II/§III-B.
//!
//! Run with `cargo run --release --example warehouse_debugging`.

use perm::prelude::*;

fn main() -> Result<(), PermError> {
    // A small, deterministic TPC-H warehouse.
    let catalog = generate_catalog(TpchScale::new(0.001), 7);
    let db = PermDb::with_catalog(catalog.clone(), SessionOptions::default());
    println!(
        "warehouse loaded: {} tables, {} tuples total",
        db.catalog().table_names().len(),
        db.catalog().total_rows()
    );

    // The report: revenue per nation for a given year.
    let report_sql = "SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue
                      FROM lineitem, orders, customer, nation
                      WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey
                        AND c_nationkey = n_nationkey
                        AND o_orderdate >= date '1995-01-01' AND o_orderdate < date '1996-01-01'
                      GROUP BY n_name";
    let report = db.execute_sql(report_sql)?;
    println!("\n== Revenue report (per nation, 1995) ==\n{}", report.sorted());

    let Some(suspicious) = report.tuples().first().cloned() else {
        println!("report is empty at this scale; nothing to debug");
        return Ok(());
    };
    let nation = suspicious[0].to_string();
    println!("Analyst question: where does the figure for {nation} come from?\n");

    // --- 1. Perm: one rewritten query annotates every report row with its witnesses. ---------
    let provenance = db.provenance_of_query(report_sql)?;
    let witnesses: Vec<_> = provenance.iter().filter(|t| t[0] == suspicious[0]).collect();
    println!(
        "[Perm] {} witness rows; each carries the full contributing lineitem, orders, customer \
         and nation tuples ({} provenance attributes).",
        witnesses.len(),
        provenance.schema().provenance_indices().len()
    );
    if let Some(first) = witnesses.first() {
        let schema = provenance.schema();
        let order_key_pos = schema.resolve("prov_orders_o_orderkey").expect("provenance attribute");
        println!(
            "        e.g. the first witness stems from order {} (and can be joined/filtered like any other data).",
            first[order_key_pos]
        );
    }

    // --- 2. Cui–Widom inversion: a list of relations per result tuple. -----------------------
    let tracer = CuiWidomTracer::new(catalog.clone());
    let view = warehouse_view();
    let lineage =
        tracer.lineage(&view, &suspicious).map_err(|e| PermError::Other(e.to_string()))?;
    println!(
        "[Cui-Widom] lineage of the same row = a list of {} relations with {:?} tuples — not a \
         single relation, so it cannot be composed with further SQL.",
        lineage.len(),
        lineage.iter().map(Relation::num_rows).collect::<Vec<_>>()
    );

    // --- 3. Trio-style eager lineage: derive + store, then trace iteratively. ----------------
    let mut trio = TrioStyleDb::new(catalog);
    trio.derive_table("nation_revenue_1995", report_sql)?;
    let traced = trio.trace("nation_revenue_1995", 0)?;
    println!(
        "[Trio-style] stored lineage relation has {} facts; tracing row 0 touched {} base tuples \
         one at a time.",
        trio.lineage_of("nation_revenue_1995").map(|l| l.len()).unwrap_or(0),
        traced.len()
    );

    println!(
        "\nAll three agree on *which* source data mattered; only Perm keeps the answer in the \
              same data model as the report itself."
    );
    Ok(())
}

/// The report query in the decomposed form the Cui–Widom tracer operates on.
fn warehouse_view() -> perm::baselines::cui_widom::ViewDefinition {
    use perm::algebra::value::days_from_civil;
    use perm::algebra::{AggregateExpr, AggregateFunction, BinaryOperator, ScalarExpr};

    // Combined schema: lineitem(16) ++ orders(9) ++ customer(8) ++ nation(4).
    let l_orderkey = ScalarExpr::column(0, "l_orderkey");
    let l_extendedprice = ScalarExpr::column(5, "l_extendedprice");
    let l_discount = ScalarExpr::column(6, "l_discount");
    let o_orderkey = ScalarExpr::column(16, "o_orderkey");
    let o_custkey = ScalarExpr::column(17, "o_custkey");
    let o_orderdate = ScalarExpr::column(20, "o_orderdate");
    let c_custkey = ScalarExpr::column(25, "c_custkey");
    let c_nationkey = ScalarExpr::column(28, "c_nationkey");
    let n_nationkey = ScalarExpr::column(33, "n_nationkey");
    let n_name = ScalarExpr::column(34, "n_name");

    let revenue = ScalarExpr::binary(
        BinaryOperator::Mul,
        l_extendedprice,
        ScalarExpr::binary(BinaryOperator::Sub, ScalarExpr::literal(1i64), l_discount),
    );
    let condition = l_orderkey
        .eq(o_orderkey)
        .and(o_custkey.eq(c_custkey))
        .and(c_nationkey.eq(n_nationkey))
        .and(ScalarExpr::binary(
            BinaryOperator::GtEq,
            o_orderdate.clone(),
            ScalarExpr::Literal(Value::Date(days_from_civil(1995, 1, 1))),
        ))
        .and(ScalarExpr::binary(
            BinaryOperator::Lt,
            o_orderdate,
            ScalarExpr::Literal(Value::Date(days_from_civil(1996, 1, 1))),
        ));

    perm::baselines::cui_widom::ViewDefinition::aspj(
        vec!["lineitem".into(), "orders".into(), "customer".into(), "nation".into()],
        Some(condition),
        vec![(n_name, "n_name".into())],
        vec![(AggregateExpr::new(AggregateFunction::Sum, revenue), "revenue".into())],
    )
}

//! Provenance for a real analytical workload: run TPC-H queries and their `SELECT PROVENANCE`
//! variants on a generated database, reporting result sizes and runtimes — a miniature version
//! of the paper's Figure 10/11 experiment.
//!
//! Run with `cargo run --release --example tpch_provenance -- [query numbers]`
//! (defaults to queries 3, 5 and 6).

use std::time::Instant;

use perm::prelude::*;
use perm::tpch::queries::{add_provenance_keyword, supported_query_ids, tpch_query, variant_rng};

fn main() -> Result<(), PermError> {
    let requested: Vec<u32> = std::env::args().skip(1).filter_map(|a| a.parse().ok()).collect();
    let queries = if requested.is_empty() { vec![3, 5, 6] } else { requested };

    let catalog = generate_catalog(TpchScale::new(0.002), 42);
    let db = PermDb::with_catalog(catalog, SessionOptions::default().with_row_budget(2_000_000));
    println!("TPC-H database generated ({} tuples total)\n", db.catalog().total_rows());

    for id in queries {
        if !supported_query_ids().contains(&id) {
            println!(
                "query {id}: skipped (requires correlated sublinks, unsupported — as in the paper)"
            );
            continue;
        }
        let template = tpch_query(id);
        let sql = template.generate(&mut variant_rng(id, 0));

        let start = Instant::now();
        let normal = db.execute_sql(&sql)?;
        let normal_time = start.elapsed();

        let start = Instant::now();
        let provenance = db.execute_sql(&add_provenance_keyword(&sql))?;
        let provenance_time = start.elapsed();

        println!("== TPC-H query {id}: {} ==", template.description);
        println!("  normal     : {:>8} rows in {normal_time:?}", normal.num_rows());
        println!("  provenance : {:>8} rows in {provenance_time:?}", provenance.num_rows());
        println!(
            "  provenance attributes ({}): {:?}",
            provenance.schema().provenance_indices().len(),
            provenance
                .schema()
                .provenance_indices()
                .iter()
                .take(6)
                .map(|&i| provenance.schema().attributes()[i].name.clone())
                .collect::<Vec<_>>()
        );
        println!();
    }
    Ok(())
}

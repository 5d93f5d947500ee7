//! Figures 10/11 micro-benchmark: normal versus provenance execution of the supported TPC-H
//! queries at the small scale. Each entry's throughput is its result size, so the
//! `CRITERION_JSON` record (`BENCH_tpch.json`) carries Figure 11's cardinalities too.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use perm_bench::harness;
use perm_tpch::queries::{add_provenance_keyword, supported_query_ids, tpch_query, variant_rng};

/// Queries whose provenance results are large enough to dominate the benchmark wall-clock; they
/// are excluded from the Criterion loop to keep `cargo bench` tractable (they still run,
/// normally and with provenance, in `tests/tpch_integration.rs`).
const HEAVY: &[u32] = &[1, 9, 13, 16];

fn bench_tpch(c: &mut Criterion) {
    let db = harness::database();

    let mut group = c.benchmark_group("fig10_tpch_execution");
    group.sample_size(10);
    for id in supported_query_ids() {
        if HEAVY.contains(&id) {
            continue;
        }
        let sql = tpch_query(id).generate(&mut variant_rng(id, 0));
        let provenance_sql = add_provenance_keyword(&sql);
        // Result cardinality recorded as throughput so the JSON baseline carries row counts.
        let normal_rows = db.execute_sql(&sql).expect("query runs").num_rows() as u64;
        let provenance_rows =
            db.execute_sql(&provenance_sql).expect("provenance query runs").num_rows() as u64;
        group.throughput(Throughput::Elements(normal_rows));
        group.bench_with_input(BenchmarkId::new("normal", id), &sql, |b, sql| {
            b.iter(|| db.execute_sql(sql).expect("query runs"));
        });
        group.throughput(Throughput::Elements(provenance_rows));
        group.bench_with_input(BenchmarkId::new("provenance", id), &provenance_sql, |b, sql| {
            b.iter(|| db.execute_sql(sql).expect("provenance query runs"));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(900));
    targets = bench_tpch
}
criterion_main!(benches);

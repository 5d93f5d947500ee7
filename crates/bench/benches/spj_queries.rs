//! Figure 13 micro-benchmark: random select-project-join queries with a growing number of leaf
//! subqueries, normal versus provenance execution.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use perm_bench::harness;
use perm_tpch::queries::add_provenance_keyword;
use perm_tpch::workloads::{spj_query, workload_rng};

fn bench_spj(c: &mut Criterion) {
    let db = harness::database();
    let parts = db.catalog().table_row_count("part").unwrap();

    let mut group = c.benchmark_group("fig13_spj_queries");
    // Measurement settings are the harness constants so BENCH_NOTES trend rows stay
    // comparable across PRs.
    group.sample_size(harness::SAMPLES);
    group.warm_up_time(harness::WARM_UP);
    group.measurement_time(harness::MEASUREMENT);
    for num_sub in 1..=6usize {
        let sql = spj_query(&mut workload_rng("spj", num_sub as u64), num_sub, parts);
        let provenance_sql = add_provenance_keyword(&sql);
        // Result cardinality recorded as throughput so the JSON baseline carries row counts.
        let normal_rows = db.execute_sql(&sql).expect("query runs").num_rows() as u64;
        let provenance_rows =
            db.execute_sql(&provenance_sql).expect("provenance query runs").num_rows() as u64;
        group.throughput(Throughput::Elements(normal_rows));
        group.bench_with_input(BenchmarkId::new("normal", num_sub), &sql, |b, sql| {
            b.iter(|| db.execute_sql(sql).expect("query runs"));
        });
        group.throughput(Throughput::Elements(provenance_rows));
        group.bench_with_input(
            BenchmarkId::new("provenance", num_sub),
            &provenance_sql,
            |b, sql| {
                b.iter(|| db.execute_sql(sql).expect("provenance query runs"));
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_spj
}
criterion_main!(benches);

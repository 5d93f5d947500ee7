//! Figure 14 micro-benchmark: chains of nested aggregation operators, normal versus provenance
//! execution. Each provenance query adds one join per aggregation level (rewrite rule R5), so
//! execution time grows roughly linearly with the chain length.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use perm_bench::harness;
use perm_tpch::queries::add_provenance_keyword;
use perm_tpch::workloads::nested_aggregation_query;

fn bench_aspj(c: &mut Criterion) {
    let db = harness::database();
    let parts = db.catalog().table_row_count("part").unwrap();

    let mut group = c.benchmark_group("fig14_nested_aggregation");
    group.sample_size(10);
    for agg_levels in [1usize, 2, 4, 6, 8, 10] {
        let sql = nested_aggregation_query(agg_levels, parts);
        let provenance_sql = add_provenance_keyword(&sql);
        group.bench_with_input(BenchmarkId::new("normal", agg_levels), &sql, |b, sql| {
            b.iter(|| db.execute_sql(sql).expect("query runs"));
        });
        group.bench_with_input(
            BenchmarkId::new("provenance", agg_levels),
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
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(900));
    targets = bench_aspj
}
criterion_main!(benches);

//! Figure 12 micro-benchmark: random set-operation queries (union/intersection) with a growing
//! number of set operations, normal versus provenance execution.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use perm_bench::harness;
use perm_tpch::queries::add_provenance_keyword;
use perm_tpch::workloads::{set_operation_query, workload_rng};

fn bench_setops(c: &mut Criterion) {
    let db = harness::database();
    let parts = db.catalog().table_row_count("part").unwrap();

    let mut group = c.benchmark_group("fig12_set_operations");
    group.sample_size(10);
    for num_set_ops in 1..=5usize {
        let sql =
            set_operation_query(&mut workload_rng("setop", num_set_ops as u64), num_set_ops, parts);
        let provenance_sql = add_provenance_keyword(&sql);
        group.bench_with_input(BenchmarkId::new("normal", num_set_ops), &sql, |b, sql| {
            b.iter(|| db.execute_sql(sql).expect("query runs"));
        });
        group.bench_with_input(
            BenchmarkId::new("provenance", num_set_ops),
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
    targets = bench_setops
}
criterion_main!(benches);

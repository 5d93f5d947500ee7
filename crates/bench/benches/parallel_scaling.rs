//! Morsel-driven parallel scaling on fig13-style SPJ provenance queries.
//!
//! Every entry executes the *same* pre-planned (analyzed, provenance-rewritten, optimized)
//! plan through `Executor::execute_parallel` on worker pools of 1, 2, 4 and 8 workers, so the
//! measured difference is purely the parallelism degree: morsel scheduling, the partitioned
//! hash-join build/probe and partitioned aggregation. The 1-worker pool runs every morsel on
//! the calling thread — it is what `Executor::execute` does, and so the sequential baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use perm_bench::harness;
use perm_exec::{Executor, WorkerPool};
use perm_tpch::queries::add_provenance_keyword;
use perm_tpch::workloads::{spj_query, workload_rng};

fn bench_parallel_scaling(c: &mut Criterion) {
    let db = harness::database();
    let parts = db.catalog().table_row_count("part").unwrap();

    let mut group = c.benchmark_group("parallel_scaling");
    group.sample_size(harness::SAMPLES);
    group.warm_up_time(harness::WARM_UP);
    group.measurement_time(harness::MEASUREMENT);
    for num_sub in [1usize, 3, 6] {
        let sql = spj_query(&mut workload_rng("spj", num_sub as u64), num_sub, parts);
        let provenance_sql = add_provenance_keyword(&sql);
        let plan = db.plan_sql(&provenance_sql).expect("provenance query plans");
        let executor = Executor::new(db.catalog().clone());
        for workers in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(workers);
            group.bench_with_input(
                BenchmarkId::new(format!("workers{workers}"), num_sub),
                &plan,
                |b, plan| {
                    b.iter(|| executor.execute_parallel(plan, &pool).expect("parallel runs"));
                },
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_parallel_scaling
}
criterion_main!(benches);

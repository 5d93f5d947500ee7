//! Figure 9 micro-benchmark: query compilation (parse + analyze + optimize) with the provenance
//! rewriter module present versus a pipeline without it, for the supported TPC-H queries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use perm_bench::harness;
use perm_exec::Optimizer;
use perm_sql::Analyzer;
use perm_tpch::queries::{supported_query_ids, tpch_query, variant_rng};

fn bench_compile_overhead(c: &mut Criterion) {
    let db = harness::database();
    // The "plain PostgreSQL" pipeline: an analyzer without the provenance rewriter attached.
    let plain = Analyzer::new(db.catalog().clone());
    let optimizer = Optimizer::new();

    let mut group = c.benchmark_group("fig9_compile_overhead");
    group.sample_size(20);
    for id in supported_query_ids() {
        let sql = tpch_query(id).generate(&mut variant_rng(id, 0));
        group.bench_with_input(BenchmarkId::new("with_rewriter_module", id), &sql, |b, sql| {
            b.iter(|| db.plan_sql(sql).expect("compiles"));
        });
        group.bench_with_input(BenchmarkId::new("without_rewriter_module", id), &sql, |b, sql| {
            b.iter(|| {
                let plan = plain.analyze_query_sql(sql).expect("compiles");
                optimizer.optimize(&plan).expect("optimizes")
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(900));
    targets = bench_compile_overhead
}
criterion_main!(benches);

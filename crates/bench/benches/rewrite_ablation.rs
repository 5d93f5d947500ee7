//! Ablation benchmark for two design choices of the paper's architecture:
//!
//! * **Optimizer on/off for rewritten queries** — the paper's architecture (Figure 5) places the
//!   provenance rewriter *before* the planner precisely so rewritten queries benefit from normal
//!   query optimization. This ablation quantifies that benefit on our substrate.
//! * **Rewrite cost itself** — how long the pure algebraic rewrite (rules R1–R9) takes compared
//!   with parsing/analysis, isolating the price of the Perm module in the compile path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use perm_bench::harness;
use perm_core::{PermDb, ProvenanceRewriter, SessionOptions};
use perm_tpch::queries::{add_provenance_keyword, tpch_query, variant_rng};

/// A selection of queries covering SPJ (6), aggregation-heavy (3, 5) and derived-table (9)
/// shapes; the pathological sublink queries are excluded to keep the ablation quick.
const QUERIES: &[u32] = &[3, 5, 6, 9, 12];

fn bench_optimizer_ablation(c: &mut Criterion) {
    let optimized_db = harness::database();
    let unoptimized_db = PermDb::with_catalog(
        optimized_db.catalog().clone(),
        SessionOptions::default().with_row_budget(2_000_000).without_optimizer(),
    );

    let mut group = c.benchmark_group("ablation_optimizer_for_provenance_queries");
    group.sample_size(10);
    for &id in QUERIES {
        let sql = add_provenance_keyword(&tpch_query(id).generate(&mut variant_rng(id, 0)));
        group.bench_with_input(BenchmarkId::new("with_optimizer", id), &sql, |b, sql| {
            b.iter(|| optimized_db.execute_sql(sql).expect("provenance query runs"));
        });
        // Without the optimizer the FROM-list stays a chain of cross products; restrict to the
        // cheaper queries so the ablation remains tractable.
        if matches!(id, 6 | 12) {
            group.bench_with_input(BenchmarkId::new("without_optimizer", id), &sql, |b, sql| {
                b.iter(|| unoptimized_db.execute_sql(sql).expect("provenance query runs"));
            });
        }
    }
    group.finish();
}

fn bench_rewrite_cost(c: &mut Criterion) {
    let db = harness::database();
    let rewriter = ProvenanceRewriter::new();

    let mut group = c.benchmark_group("ablation_rewrite_cost");
    group.sample_size(20);
    for &id in QUERIES {
        let sql = tpch_query(id).generate(&mut variant_rng(id, 0));
        let plan = db.analyze_sql_plan(&sql).expect("analyzes");
        group.bench_with_input(BenchmarkId::new("analyze_only", id), &sql, |b, sql| {
            b.iter(|| db.analyze_sql_plan(sql).expect("analyzes"));
        });
        group.bench_with_input(BenchmarkId::new("rewrite_rules_r1_to_r9", id), &plan, |b, plan| {
            b.iter(|| rewriter.rewrite(plan).expect("rewrites"));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(900));
    targets = bench_optimizer_ablation, bench_rewrite_cost
}
criterion_main!(benches);

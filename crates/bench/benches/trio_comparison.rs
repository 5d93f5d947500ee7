//! Figure 15 micro-benchmark: Perm's lazy provenance computation versus the Trio-style eager
//! lineage baseline (store lineage at derivation time, trace iteratively at query time) on a
//! workload of simple key-range selections over `supplier`.

use criterion::{criterion_group, criterion_main, Criterion};
use perm_baselines::TrioStyleDb;
use perm_bench::harness;
use perm_tpch::workloads::{trio_selection_queries, workload_rng};

const QUERIES: usize = 20;

fn bench_trio(c: &mut Criterion) {
    let db = harness::database();
    let suppliers = db.catalog().table_row_count("supplier").unwrap();
    let queries = trio_selection_queries(&mut workload_rng("trio", 0), QUERIES, suppliers);

    let mut group = c.benchmark_group("fig15_trio_comparison");
    group.sample_size(10);

    group.bench_function("perm_lazy_provenance", |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|q| db.provenance_of_query(q).expect("provenance runs").num_rows())
                .sum::<usize>()
        })
    });

    // The eager derivation is performed once, outside the measured section, mirroring the paper
    // ("Trio does not support lazy provenance computation, so the provenance was computed
    // beforehand. The measured execution time includes only the time to query the stored
    // provenance.").
    let mut trio = TrioStyleDb::new(db.catalog().clone());
    for (i, q) in queries.iter().enumerate() {
        trio.derive_table(&format!("bench_trio_{i}"), q).expect("derivation succeeds");
    }
    group.bench_function("trio_style_query_stored_provenance", |b| {
        b.iter(|| {
            (0..queries.len())
                .map(|i| {
                    trio.trace_all(&format!("bench_trio_{i}")).expect("tracing succeeds").len()
                })
                .sum::<usize>()
        })
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(900));
    targets = bench_trio
}
criterion_main!(benches);

//! Instrumentation overhead guard: interleaved A/B of a provenance query executed plainly
//! (profiling off — the default) versus under `EXPLAIN ANALYZE` (per-operator profiling on).
//!
//! The observability PR's budget is that per-operator instrumentation must cost at most 2% of
//! query wall time (or 1 ms absolute on fast queries, whichever is larger) on the Figure 13
//! `provenance/3` workload. This binary measures both variants interleaved round-by-round so
//! machine drift hits both sides equally, compares medians, and **exits non-zero** when the
//! budget is blown — CI runs it as a hard gate.
//!
//! It is a plain `main` (`harness = false`) rather than a Criterion benchmark because it needs
//! an exit code, not a timing report.

use std::time::{Duration, Instant};

use perm_bench::harness;
use perm_tpch::queries::add_provenance_keyword;
use perm_tpch::workloads::{spj_query, workload_rng};

/// Interleaved measurement rounds; the median across rounds is compared.
const ROUNDS: usize = 40;
/// Warm-up executions per variant before measurement.
const WARMUP: usize = 5;
/// Relative overhead budget for the profiled variant.
const BUDGET_RELATIVE: f64 = 0.02;
/// Absolute slack: on queries this fast, fixed per-query costs (profile rendering, the result
/// row carrying the plan text) dwarf the per-chunk instrumentation the budget is about.
const BUDGET_ABSOLUTE: Duration = Duration::from_millis(1);

fn median(samples: &mut [Duration]) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

fn main() {
    let db = harness::database();
    let parts = db.catalog().table_row_count("part").expect("part table exists");
    let sql = add_provenance_keyword(&spj_query(&mut workload_rng("spj", 3), 3, parts));
    let analyze_sql = format!("EXPLAIN ANALYZE {sql}");

    for _ in 0..WARMUP {
        db.execute_sql(&sql).expect("provenance query runs");
        db.execute_sql(&analyze_sql).expect("EXPLAIN ANALYZE runs");
    }

    let mut plain = Vec::with_capacity(ROUNDS);
    let mut profiled = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        // Alternate which variant goes first so slow drift cancels instead of biasing one side.
        let order: [bool; 2] = if round % 2 == 0 { [false, true] } else { [true, false] };
        for profile in order {
            let start = Instant::now();
            if profile {
                db.execute_sql(&analyze_sql).expect("EXPLAIN ANALYZE runs");
            } else {
                db.execute_sql(&sql).expect("provenance query runs");
            }
            let elapsed = start.elapsed();
            if profile {
                profiled.push(elapsed);
            } else {
                plain.push(elapsed);
            }
        }
    }

    let plain_median = median(&mut plain);
    let profiled_median = median(&mut profiled);
    let delta = profiled_median.saturating_sub(plain_median);
    let relative = delta.as_secs_f64() / plain_median.as_secs_f64().max(1e-9);
    let budget = plain_median.mul_f64(BUDGET_RELATIVE).max(BUDGET_ABSOLUTE);

    println!(
        "observability_overhead fig13/provenance/3: plain={:.3}ms profiled={:.3}ms \
         delta={:.3}ms ({:+.2}%) budget={:.3}ms rounds={ROUNDS}",
        plain_median.as_secs_f64() * 1e3,
        profiled_median.as_secs_f64() * 1e3,
        delta.as_secs_f64() * 1e3,
        relative * 100.0,
        budget.as_secs_f64() * 1e3,
    );

    if delta > budget {
        eprintln!(
            "FAIL: EXPLAIN ANALYZE overhead {:.3}ms exceeds budget {:.3}ms \
             (max of {}% relative and {:.0}ms absolute)",
            delta.as_secs_f64() * 1e3,
            budget.as_secs_f64() * 1e3,
            BUDGET_RELATIVE * 100.0,
            BUDGET_ABSOLUTE.as_secs_f64() * 1e3,
        );
        std::process::exit(1);
    }
    println!("PASS: instrumentation overhead within budget");
}

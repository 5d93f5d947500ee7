//! # perm-bench
//!
//! The paper's evaluation (§V) as criterion benches, all on [`harness::database`]:
//!
//! | experiment | paper figure | bench |
//! |------------|--------------|-------|
//! | compilation-time overhead for normal queries | Fig. 9 | `compile_overhead` |
//! | TPC-H execution time and result sizes, normal vs. provenance | Fig. 10 / 11 | `tpch_exec` |
//! | set-operation queries | Fig. 12 | `setop_queries` |
//! | SPJ queries | Fig. 13 | `spj_queries` |
//! | nested aggregation queries | Fig. 14 | `aspj_queries` |
//! | comparison with the Trio-style baseline | Fig. 15 | `trio_comparison` |
//!
//! Plus `parallel_scaling` (worker counts), `rewrite_ablation` (optimizer on/off, rewrite cost)
//! and the `observability_overhead` gate. `CRITERION_JSON=<file>` records medians and result
//! sizes (`BENCH_fig13.json`, `BENCH_tpch.json`); wall-clock runs over the wire are
//! `perm_benchmark`'s. Absolute numbers differ from the paper (an in-memory Rust engine, not
//! PostgreSQL on 2008 hardware); BENCH_NOTES.md records them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Non-test code must surface failures as structured errors, never panic on a recoverable
// condition (tests are exempt via clippy.toml); `cargo xtask lint` checks this header.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod harness;

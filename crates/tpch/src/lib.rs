//! # perm-tpch
//!
//! The TPC-H substrate of the Perm evaluation (paper §V): a deterministic, scaled-down TPC-H
//! data generator, the fifteen benchmark queries the Perm prototype supports
//! (1, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19 — the remaining seven need correlated
//! sublinks), a seeded parameter generator standing in for `qgen`, and the artificial workload
//! generators used in §V-B (set-operation trees, random SPJ trees, nested aggregation chains)
//! and §V-C (the Trio comparison workload).
//!
//! The paper runs 10 MB / 100 MB / 1 GB databases on PostgreSQL; this reproduction runs an
//! in-memory engine, so [`TpchScale`] provides proportionally scaled-down factors. All findings
//! of the evaluation are about *relative* behaviour (provenance vs. normal execution, growth with
//! operator count and scale), which is preserved under uniform down-scaling; the `perm_bench`
//! criterion benches measure it at the small scale (ledger: BENCH_NOTES.md).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Non-test code must surface failures as structured errors, never panic on a recoverable
// condition (tests are exempt via clippy.toml); `cargo xtask lint` checks this header.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod dbgen;
pub mod queries;
pub mod schema;
pub mod workloads;

pub use dbgen::{generate_catalog, TpchScale};
pub use queries::{supported_query_ids, tpch_query, TpchQueryTemplate};
pub use schema::{table_names, table_schema};

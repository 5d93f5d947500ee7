//! # Perm — provenance and data on the same data model
//!
//! This is the top-level facade crate of the Perm reproduction (Glavic & Alonso, *Perm:
//! Processing Provenance and Data on the Same Data Model through Query Rewriting*, ICDE 2009).
//! It re-exports the public API of the workspace crates so that downstream users can depend on a
//! single crate:
//!
//! ```
//! use perm::prelude::*;
//!
//! let db = PermDb::new();
//! db.execute_script(
//!     "CREATE TABLE items (id INT, price INT);
//!      INSERT INTO items VALUES (1, 100), (2, 10), (3, 25);",
//! )
//! .unwrap();
//! let result = db
//!     .execute_sql("SELECT PROVENANCE sum(price) AS total FROM items")
//!     .unwrap();
//! assert_eq!(
//!     result.schema().attribute_names(),
//!     vec!["total", "prov_items_id", "prov_items_price"]
//! );
//! assert_eq!(result.num_rows(), 3);
//! ```
//!
//! The layering follows the paper's architecture (Figure 5):
//!
//! * [`service`] — the serving layer: thread-safe engine, concurrent sessions with prepared
//!   statements, a shared plan cache and the `permd`/`perm-shell` wire protocol,
//! * [`sql`] — parser and analyzer with the SQL-PLE provenance language extension,
//! * [`core`] — the provenance rewriter (rules R1–R9) and the [`prelude::PermDb`] facade,
//! * [`exec`] — optimizer and executor,
//! * [`storage`] — catalog and bag-semantic relations,
//! * [`algebra`] — the extended relational algebra of Figure 1,
//! * [`baselines`] — Trio-style eager lineage and Cui–Widom inversion, used in the evaluation,
//! * [`tpch`] — the TPC-H data generator, benchmark queries and artificial workloads.
//!
//! README.md describes the architecture. The paper's evaluation (§V, Figures 9–15) is measured
//! by the criterion benches of `crates/bench` (ledger: BENCH_NOTES.md).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Non-test code must surface failures as structured errors, never panic on a recoverable
// condition (tests are exempt via clippy.toml); `cargo xtask lint` checks this header.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub use perm_algebra as algebra;
pub use perm_baselines as baselines;
pub use perm_core as core;
pub use perm_exec as exec;
pub use perm_service as service;
pub use perm_sql as sql;
pub use perm_storage as storage;
pub use perm_tpch as tpch;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use perm_algebra::{DataType, LogicalPlan, Schema, Tuple, Value};
    pub use perm_baselines::{CuiWidomTracer, TrioStyleDb};
    pub use perm_core::{PermDb, PermError, ProvenanceRewriter};
    pub use perm_service::{Engine, ServiceError, Session, SessionOptions};
    pub use perm_storage::{Catalog, Relation};
    pub use perm_tpch::{generate_catalog, TpchScale};
}

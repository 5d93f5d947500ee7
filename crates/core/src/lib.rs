//! # perm-core
//!
//! The core of the Perm provenance management system (Glavic & Alonso, ICDE 2009): the
//! **provenance rewriter** implementing rewrite rules R1–R9 and the sublink / SQL-PLE handling
//! of §IV, plus [`PermDb`], the user-facing facade that wires the rewriter into the SQL front
//! end, optimizer and executor.
//!
//! ## Quick start
//!
//! ```
//! use perm_core::PermDb;
//!
//! let db = PermDb::new();
//! db.execute_script(
//!     "CREATE TABLE items (id INT, price INT);
//!      INSERT INTO items VALUES (1, 100), (2, 10), (3, 25);",
//! )
//! .unwrap();
//!
//! // Lazy provenance computation through the SQL-PLE PROVENANCE keyword.
//! let result = db
//!     .execute_sql("SELECT PROVENANCE sum(price) AS total FROM items")
//!     .unwrap();
//! assert_eq!(
//!     result.schema().attribute_names(),
//!     vec!["total", "prov_items_id", "prov_items_price"]
//! );
//! // Every item contributed to the sum, so the single original row is duplicated three times.
//! assert_eq!(result.num_rows(), 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Non-test code must surface failures as structured errors, never panic on a recoverable
// condition (tests are exempt via clippy.toml); `cargo xtask lint` checks this header.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod db;
pub mod error;
pub mod naming;
pub mod rewrite;

pub use db::PermDb;
pub use error::PermError;
pub use naming::ProvenanceNaming;
pub use perm_service::SessionOptions;
pub use rewrite::ProvenanceRewriter;

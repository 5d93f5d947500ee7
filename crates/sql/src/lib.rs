//! # perm-sql
//!
//! The SQL front end of the Perm reproduction: lexer, parser and analyzer (binder) for the
//! engine's SQL subset plus the **SQL-PLE** provenance language extension of the paper (§IV-A):
//!
//! * `SELECT PROVENANCE ...` — compute the influence-contribution provenance of the query block
//!   (the analyzer delegates the actual rewrite to a [`ProvenanceRewrite`] implementation,
//!   provided by `perm-core`).
//! * `FROM item PROVENANCE (attr, ...)` — declare that a from-item is already provenance-
//!   rewritten (external or stored provenance; enables incremental provenance computation).
//! * `FROM item BASERELATION` — limit the provenance scope: treat the item as a base relation.
//!
//! The analyzer also performs view unfolding (views are stored as SQL text in the catalog and
//! re-analyzed at reference time), mirroring the PostgreSQL rewriter stage of the paper's
//! architecture (Figure 5).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Non-test code must surface failures as structured errors, never panic on a recoverable
// condition (tests are exempt via clippy.toml); `cargo xtask lint` checks this header.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod analyzer;
pub mod ast;
pub mod error;
pub mod parser;
pub mod token;

pub use analyzer::{parse_constant_row, AnalyzedStatement, Analyzer, ProvenanceRewrite};
pub use error::SqlError;
pub use parser::{parse_query, parse_statement, parse_statements};

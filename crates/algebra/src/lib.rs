//! # perm-algebra
//!
//! The extended, bag-semantic relational algebra underlying the Perm provenance system
//! (Glavic & Alonso, ICDE 2009, Figure 1).
//!
//! This crate defines the *logical* layer shared by every other crate in the workspace:
//!
//! * [`Value`] / [`DataType`] — the scalar type system (SQL-style three-valued logic, dates,
//!   numeric types, text).
//! * [`Tuple`] — a row of values.
//! * [`chunk::Array`] / [`chunk::DataChunk`] — typed columnar vectors with validity bitmaps and
//!   the fixed-size row batches the vectorized executor moves between operators.
//! * [`keys::hash_rows`] / [`keys::rows_equal`] / [`keys::RowTable`] — join and group-by keys
//!   hashed and compared in their columns.
//! * [`Schema`] / [`Attribute`] — result descriptions with optional relation qualifiers and
//!   provenance markers.
//! * [`expr::ScalarExpr`] / [`expr::AggregateExpr`] — the expression language allowed in
//!   projections, selections, join conditions and aggregations.
//! * [`plan::LogicalPlan`] — the algebra operators of the paper's Figure 1: set/bag projection,
//!   selection, cross product, inner and outer joins, aggregation, and set/bag union,
//!   intersection and difference, plus the auxiliary operators needed for SQL (sort, limit,
//!   values, subquery alias).
//! * [`builder::PlanBuilder`] — an ergonomic way to assemble plans in tests, baselines and
//!   workload generators.
//! * [`LogicalPlan::schema`](plan::LogicalPlan::schema) — the one typing of a plan: each
//!   column's type and provenance flag, from [`ScalarExpr::type_with`](expr::ScalarExpr::type_with)
//!   per expression node. [`LogicalPlan::verify`](plan::LogicalPlan::verify) checks the strict
//!   operator typing rules over it (and derives nullability); every plan boundary (SQL binding,
//!   provenance rewrite, optimizer passes) verifies through it.
//!
//! The algebra is deliberately engine-agnostic: execution lives in `perm-exec`, storage in
//! `perm-storage`, SQL binding in `perm-sql`, and the provenance rewrite rules (the paper's
//! contribution) in `perm-core`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Non-test code must surface failures as structured errors, never panic on a recoverable
// condition (tests are exempt via clippy.toml); `cargo xtask lint` checks this header.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod builder;
pub mod chunk;
pub mod error;
pub mod expr;
pub mod keys;
pub mod plan;
pub mod schema;
pub mod tuple;
pub mod typed;
pub mod value;

pub use builder::PlanBuilder;
pub use chunk::{Array, ArrayBuilder, Bitmap, DataChunk, DEFAULT_CHUNK_SIZE};
pub use error::AlgebraError;
pub use expr::{
    AggregateExpr, AggregateFunction, BinaryOperator, ScalarExpr, ScalarFunction, SortKey,
    SortOrder, SublinkKind, UnaryOperator,
};
pub use keys::{hash_rows, rows_equal, RowTable};
pub use plan::{JoinKind, LogicalPlan, ProvenanceAnnotationKind, SetOpKind, SetSemantics};
pub use schema::{Attribute, Name, Schema};
pub use tuple::Tuple;
pub use typed::{TypeError, TypeErrorKind, Verified};
pub use value::{total_float_cmp, DataType, Value};

//! # perm-exec
//!
//! Query execution and optimization for the Perm provenance system — the "planner + executor"
//! substrate that the paper obtains from PostgreSQL. A provenance query `q⁺` is an ordinary
//! plan, so it runs through the same single engine as any other query.
//!
//! Exactly two things evaluate a plan:
//!
//! * the **engine** ([`parallel`], entered through [`Executor`]): morsel-driven execution over
//!   columnar [`perm_algebra::DataChunk`] lists, partitioned hash joins and aggregation, merge
//!   sort and resource limits (row budget, timeout, cancellation, memory accounting).
//!   `Executor::execute` is degree 1 of it — the same code on an inline pool — and
//!   `Executor::execute_parallel` runs it on a shared [`WorkerPool`]; results and errors are
//!   identical at every degree.
//! * the **oracle** ([`mod@reference`]): a naive, pulled evaluator kept as the executable
//!   specification — of operator semantics and of when a query fails — that differential
//!   tests compare the engine against.
//!
//! And exactly two things evaluate an expression: the engine's one compiled, columnar
//! evaluator (`compile.rs` + `vector.rs`: expressions and join conditions alike) and the
//! oracle's tree-walking interpreter in [`eval`], which also holds the per-value operator and
//! function semantics both share.
//!
//! Around them: [`optimizer`] (predicate pushdown, cross-product→join conversion, constant
//! folding, column pruning) with the statistics-driven join ordering and sort placement in
//! [`reorder`] and [`stats`], per-operator profiling for `EXPLAIN ANALYZE` in [`profile`],
//! fault injection in [`faults`] and structured logging in [`log`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Non-test code must surface failures as structured errors, never panic on a recoverable
// condition (tests are exempt via clippy.toml); `cargo xtask lint` checks this header.
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod compile;
pub mod error;
pub mod eval;
pub mod executor;
pub mod faults;
pub mod log;
pub mod optimizer;
pub mod parallel;
pub mod profile;
mod pull;
pub mod reference;
pub mod reorder;
pub mod stats;
mod vector;

pub use error::ExecError;
pub use eval::{evaluate, evaluate_predicate, like_match};
pub use executor::{
    execute_plan, execute_plan_with_options, CancelToken, ExecOptions, Executor, QueryMemory,
};
pub use log::{Level, QueryIdGuard};
pub use optimizer::{fold_expr, Optimizer, OptimizerReport};
pub use parallel::{panic_message, WorkerPool};
pub use profile::{ProfileSink, QueryProfile};
pub use pull::ResultCursor;
pub use reference::execute_reference;
pub use reorder::{ReorderPolicy, ReorderReport};
pub use stats::{ColumnEstimate, Estimator, PlanEstimate, TableStatsView};

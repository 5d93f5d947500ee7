//! # perm-service
//!
//! The serving layer of the Perm reproduction: the paper's system (conf_icde_GlavicA09) is a
//! *live DBMS module* answering SQL-PLE queries from real clients, not a one-shot library call.
//! This crate supplies the missing engine / session / server split:
//!
//! * [`Engine`] — the thread-safe shared core: one [`perm_storage::Catalog`] with atomic
//!   multi-table snapshots, the provenance-aware SQL pipeline (parse → analyze → rewrite →
//!   optimize → execute) and a shared LRU [`cache::PlanCache`] keyed by normalized SQL text and
//!   invalidated on DDL/DML commits.
//! * [`Session`] — per-connection state: row-budget / timeout settings and named **prepared
//!   statements** with `$1`-style parameters (plan once, bind + execute many).
//! * [`server`] / [`shell`] — a small length-prefixed protocol over TCP (text requests, binary
//!   chunk-wise results; `permd`, one thread per connection, graceful shutdown) and the
//!   matching `perm-shell` client.
//!
//! The engine is rewriter-agnostic: `perm-core` injects its provenance rewriter through the
//! [`perm_sql::ProvenanceRewrite`] trait, which keeps the dependency graph acyclic
//! (`perm-core`'s `PermDb` facade is itself a thin single-session wrapper over [`Engine`]).
//!
//! ```
//! use std::sync::Arc;
//! use perm_service::Engine;
//!
//! let engine = Arc::new(Engine::new());
//! let session = engine.session();
//! session.execute("CREATE TABLE items (id INT, price INT)").unwrap();
//! session.execute("INSERT INTO items VALUES (1, 100), (2, 10)").unwrap();
//! let mut session = session;
//! let params = session.prepare("pricey", "SELECT id FROM items WHERE price > $1").unwrap();
//! assert_eq!(params, 1);
//! let result = session
//!     .execute_prepared("pricey", vec![perm_algebra::Value::Int(50)])
//!     .unwrap();
//! assert_eq!(result.num_rows(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// The serving layer must never take the process down on a recoverable condition: every
// would-be `unwrap`/`expect` in non-test code has to surface as a `ServiceError` instead
// (tests are exempt via clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod cache;
pub mod codec;
pub mod engine;
pub mod error;
pub mod governor;
pub mod metrics;
pub mod server;
pub mod session;
pub mod shell;
pub mod stream;
pub mod wire;

pub use cache::{normalize_sql, CacheStats, PlanCache};
pub use codec::PROTOCOL_VERSION;
pub use engine::{Engine, PreparedPlan};
pub use error::ServiceError;
pub use governor::{Governor, GovernorLimits, GovernorStats, QueryGrant};
pub use metrics::{
    render_stats_text, Metrics, MetricsSnapshot, QueryOutcome, QueryTicket, StatsSnapshot,
};
pub use server::{serve, ServerHandle};
pub use session::{Session, SessionOptions};
pub use shell::Client;
pub use stream::QueryStream;

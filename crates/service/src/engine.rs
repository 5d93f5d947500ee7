//! The thread-safe engine: one shared catalog, a provenance-aware SQL pipeline and a shared
//! plan cache, serving any number of concurrent [`Session`]s.

use std::sync::Arc;

use perm_algebra::{LogicalPlan, Schema, Value};
use perm_exec::{CancelToken, ExecOptions, Executor, Optimizer, TableStatsView, WorkerPool};
use perm_sql::{AnalyzedStatement, Analyzer, ProvenanceRewrite};
use perm_storage::{Catalog, Relation};

use crate::cache::{normalize_sql, CacheStats, PlanCache};
use crate::error::ServiceError;
use crate::governor::{Governor, GovernorLimits};
use crate::metrics::{outcome_of, Metrics, StatsSnapshot};
use crate::session::Session;
use crate::stream::QueryStream;

/// A fully planned query: analyzed, provenance-rewritten and optimized exactly once, ready to
/// be executed any number of times (with fresh parameter bindings each time).
#[derive(Debug, Clone)]
pub struct PreparedPlan {
    /// The executable plan (may contain `$n` parameter slots).
    pub plan: LogicalPlan,
    /// Optional `SELECT ... INTO` target table.
    pub into: Option<String>,
    /// Number of parameter values an execution must bind (`$1..$param_count`).
    pub param_count: usize,
    /// The source SQL text (for query logging and the slow-query record; empty when the plan
    /// was built from an already-analyzed statement rather than SQL text).
    pub sql: String,
}

/// The shared, thread-safe query engine.
///
/// An `Engine` owns the pieces every connection shares — the [`Catalog`], the provenance
/// rewriter hook, the optimizer, the [`PlanCache`] and the [`WorkerPool`] that gives every
/// query intra-query (morsel-driven) parallelism — while per-connection state (settings,
/// prepared statements) lives in [`Session`]s. All methods take `&self`; the engine is meant to
/// be wrapped in an [`Arc`] and handed to one session per client connection.
pub struct Engine {
    catalog: Catalog,
    rewriter: Option<Arc<dyn ProvenanceRewrite>>,
    optimizer: Optimizer,
    cache: PlanCache,
    /// Parallelism degree of the worker pool (resolved at construction; see `with_workers`).
    workers: usize,
    /// The shared pool, spawned lazily on first use so builder-style reconfiguration
    /// (`Engine::new().with_workers(n)`) never spawns and immediately discards threads.
    pool: std::sync::OnceLock<Arc<WorkerPool>>,
    /// Bytes of pulled result chunks not yet handed to a consumer, across all sessions (a gauge:
    /// a stream adds each pull's chunks and takes each chunk off as it hands it out).
    stream_buffered: Arc<std::sync::atomic::AtomicUsize>,
    /// Memory governor: every statement is admitted here and charged for its
    /// materializations; see [`Governor`].
    governor: Arc<Governor>,
    /// The engine-wide metrics registry: query outcomes, latency, streamed volume, the recent
    /// query ring buffer; see [`crate::metrics`].
    metrics: Arc<Metrics>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("tables", &self.catalog.table_names())
            .field("has_rewriter", &self.rewriter.is_some())
            .field("cache", &self.cache)
            .field("workers", &self.workers)
            .finish()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

/// Default number of cached plans.
const DEFAULT_PLAN_CACHE_CAPACITY: usize = 128;

impl Engine {
    /// Create an engine over an empty catalog.
    pub fn new() -> Engine {
        Engine::with_catalog(Catalog::new())
    }

    /// Create an engine over an existing catalog (shares the underlying data).
    ///
    /// The worker pool defaults to one worker per logical CPU; the `PERM_WORKERS` environment
    /// variable overrides that default (used by CI to run the whole test suite single-threaded
    /// and at a fixed parallelism degree), and [`Engine::with_workers`] overrides both.
    pub fn with_catalog(catalog: Catalog) -> Engine {
        let workers = std::env::var("PERM_WORKERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(WorkerPool::default_workers);
        Engine {
            catalog,
            rewriter: None,
            optimizer: Optimizer::new(),
            cache: PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY),
            workers: workers.max(1),
            pool: std::sync::OnceLock::new(),
            stream_buffered: Arc::new(std::sync::atomic::AtomicUsize::new(0)),
            governor: Arc::new(Governor::new(GovernorLimits::default())),
            metrics: Arc::new(Metrics::new()),
        }
    }

    /// Attach a provenance rewriter (enables `SELECT PROVENANCE`; provided by `perm-core`).
    pub fn with_rewriter(mut self, rewriter: Arc<dyn ProvenanceRewrite>) -> Engine {
        self.rewriter = Some(rewriter);
        self
    }

    /// Replace the plan cache with one of the given capacity (0 disables caching).
    pub fn with_plan_cache_capacity(mut self, capacity: usize) -> Engine {
        self.cache = PlanCache::new(capacity);
        self
    }

    /// Size the worker pool for intra-query parallelism: every query splits its work into
    /// morsels executed by up to `workers` threads (clamped to at least 1, where execution is
    /// fully single-threaded). The default is the number of logical CPUs.
    pub fn with_workers(mut self, workers: usize) -> Engine {
        self.workers = workers.max(1);
        self.pool = std::sync::OnceLock::new();
        self
    }

    /// Enforce memory limits: every statement is admitted against the engine-wide cap and
    /// charged against the per-query cap (`permd --mem-limit` / `--session-mem-limit`).
    pub fn with_memory_limits(mut self, limits: GovernorLimits) -> Engine {
        self.governor = Arc::new(Governor::new(limits));
        self
    }

    /// The engine's memory governor (admission gauges, shutdown draining).
    pub fn governor(&self) -> &Arc<Governor> {
        &self.governor
    }

    /// The engine-wide metrics registry.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// One consistent snapshot of every stat the engine exposes: plan cache, governor, stream
    /// gauge and the metrics registry, collected in a single call so the wire `stats` text and
    /// the Prometheus exposition describe the same instant.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            cache: self.cache.stats(),
            governor: self.governor.stats(),
            stream_buffered: self.stream_buffered_bytes(),
            metrics: self.metrics.snapshot(),
            tables: self.catalog.table_infos(),
        }
    }

    /// The parallelism degree of the shared worker pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The shared worker pool queries execute on (spawned on first use).
    pub fn worker_pool(&self) -> &Arc<WorkerPool> {
        self.pool.get_or_init(|| Arc::new(WorkerPool::new(self.workers)))
    }

    /// The plan cache's capacity (number of plans it can hold).
    pub fn plan_cache_capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// The shared catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// An analyzer bound to this engine's catalog and provenance rewriter.
    pub fn analyzer(&self) -> Analyzer {
        let analyzer = Analyzer::new(self.catalog.clone());
        match &self.rewriter {
            Some(r) => analyzer.with_rewriter(r.clone()),
            None => analyzer,
        }
    }

    /// Plan-cache counters (hits / misses / invalidations / deferred / entries).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drop every cached plan (counters survive). The cache remembers each dropped text, so a
    /// text planned again after the clear is cached at once, as if it had been invalidated.
    pub fn clear_plan_cache(&self) {
        self.cache.clear();
    }

    /// Open a new session over this engine.
    pub fn session(self: &Arc<Self>) -> Session {
        Session::new(self.clone())
    }

    /// A statistics view over every stored table, consistent with the current catalog state
    /// (per-table stats are cached on the relations, so repeat calls are cheap Arc clones).
    pub fn table_stats_view(&self) -> TableStatsView {
        TableStatsView::from_snapshot(&self.catalog.snapshot())
    }

    /// Run a plan through the optimizer with current table statistics, folding the
    /// cost-based pass counters into the metrics registry.
    pub fn optimize_plan(&self, plan: &LogicalPlan) -> Result<LogicalPlan, ServiceError> {
        let stats = self.table_stats_view();
        let (optimized, report) = self.optimizer.optimize_with_stats(plan, &stats)?;
        self.metrics.record_optimizer(&report);
        Ok(optimized)
    }

    /// Plan a query: analyze (view unfolding + provenance rewriting) and optimize, consulting
    /// the shared plan cache first. `optimize = false` bypasses both the optimizer and the
    /// cache (the cache only ever stores optimized plans).
    ///
    /// Cache entries are keyed by [`normalize_sql`]d text and tagged with the catalog version
    /// observed at planning time; any DDL/DML commit bumps the version and invalidates them.
    /// The cache keeps a text's plan from its second planning on ([`PlanCache::insert`]).
    pub fn plan_query(&self, sql: &str, optimize: bool) -> Result<Arc<PreparedPlan>, ServiceError> {
        if !optimize {
            return Ok(Arc::new(self.plan_query_uncached(sql, false)?));
        }
        let key = normalize_sql(sql);
        // The version is read *before* planning: if a writer commits while we plan, the entry is
        // tagged with the older version and treated as stale on its next lookup — a wasted
        // cache slot, never a wrong answer.
        let version = self.catalog.version();
        if let Some(hit) = self.cache.get(&key, version) {
            return Ok(hit);
        }
        let planned = Arc::new(self.plan_query_uncached(sql, true)?);
        self.cache.insert(key, version, planned.clone());
        Ok(planned)
    }

    pub(crate) fn plan_query_uncached(
        &self,
        sql: &str,
        optimize: bool,
    ) -> Result<PreparedPlan, ServiceError> {
        match self.analyzer().analyze_sql(sql)? {
            AnalyzedStatement::Query { plan, into } => self.prepare_plan(plan, into, optimize, sql),
            _ => Err(ServiceError::unsupported(
                "only queries (SELECT ...) can be planned; execute DDL/DML statements directly",
            )),
        }
    }

    /// Turn a bound query plan into a [`PreparedPlan`] — the one way a query written in SQL
    /// reaches the executor, whether planned from text, run from a script or feeding
    /// `INSERT … SELECT`.
    ///
    /// Post-binding type verification runs first and unconditionally (not only in debug
    /// builds): it turns an ill-typed query into a clean error
    /// naming the operator path before the optimizer or the executor sees it, and it sits on
    /// the compile path only — cache hits and per-row execution never pay for it.
    fn prepare_plan(
        &self,
        plan: LogicalPlan,
        into: Option<String>,
        optimize: bool,
        sql: &str,
    ) -> Result<PreparedPlan, ServiceError> {
        if let Err(err) = plan.verify() {
            return Err(ServiceError::Sql(perm_sql::SqlError::Algebra(err.into())));
        }
        let plan = if optimize { self.optimize_plan(&plan)? } else { plan };
        let param_count = plan.max_parameter().map_or(0, |max| max + 1);
        Ok(PreparedPlan { plan, into, param_count, sql: sql.to_string() })
    }

    /// Bytes of result chunks that open streams hold between pulls, across all sessions: the
    /// chunks of each stream's last pull not yet handed out, beside the stored columns their
    /// scans read. A stream whose top region is pulled holds at most one pull's `workers`
    /// morsels, not its whole result.
    pub fn stream_buffered_bytes(&self) -> usize {
        self.stream_buffered.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Execute an already-planned query under `options`, binding `params` to its `$n` slots.
    ///
    /// The executor captures an atomic catalog snapshot, so the execution observes one
    /// consistent state of every table regardless of concurrent commits. A `SELECT ... INTO`
    /// target is written back to the shared catalog after execution.
    ///
    /// This is the materializing convenience wrapper over
    /// [`run_plan_streaming`](Engine::run_plan_streaming): it drains the stream's cursor, every
    /// morsel of the top region at once.
    pub fn execute_prepared_plan(
        &self,
        prepared: &PreparedPlan,
        options: ExecOptions,
        params: Vec<Value>,
    ) -> Result<Relation, ServiceError> {
        let stream = self.run_plan_streaming(Arc::new(prepared.clone()), options, params)?;
        let result = stream.collect_relation()?;
        if let Some(target) = &prepared.into {
            self.catalog.overwrite(target, result.clone())?;
        }
        Ok(result)
    }

    /// Execute an already-planned query as a [`QueryStream`] of result chunks.
    ///
    /// The stream is lazy: no execution work happens until the first chunk is pulled (or the
    /// stream is collected). The first pull runs everything below the plan's top region on the
    /// calling thread and the worker pool; every pull that finds no chunk waiting runs the next
    /// `workers` morsels of the region and hands their chunks out one by one.
    /// **`SELECT ... INTO` is not handled here** — callers that support it materialize first
    /// (see [`Session::execute_streaming`]).
    pub fn run_plan_streaming(
        &self,
        prepared: Arc<PreparedPlan>,
        mut options: ExecOptions,
        params: Vec<Value>,
    ) -> Result<QueryStream, ServiceError> {
        // The ticket opens *before* admission so a statement the governor rejects at the door
        // (admission timeout under the engine-wide limit) is still counted — as shed.
        let mut ticket = self.metrics.start_query(&prepared.sql, options.profile.clone());
        let token = match self.govern(&mut options) {
            Ok(token) => token,
            Err(e) => {
                ticket.finish(outcome_of(&e), 0);
                return Err(e);
            }
        };
        let executor = Executor::with_options(self.catalog.clone(), options).with_params(params);
        Ok(QueryStream::pending(
            executor,
            prepared,
            self.worker_pool().clone(),
            self.stream_buffered.clone(),
            token,
            ticket,
        ))
    }

    /// Register one statement with the governor: ensure `options` carries a cancellation
    /// token (creating one when the caller did not supply its own), admit the statement
    /// against the engine-wide memory limit and thread its [`crate::governor::QueryGrant`]
    /// into the executor as the memory-accounting hook. The grant rides inside the executor's
    /// options and is released when the executor is dropped (query finished or unwound).
    ///
    /// Returns the token so callers that stay in control of the statement (streaming results,
    /// the wire server) can cancel it mid-flight.
    fn govern(&self, options: &mut ExecOptions) -> Result<Arc<CancelToken>, ServiceError> {
        let token = match &options.cancel {
            Some(token) => token.clone(),
            None => {
                let token = Arc::new(CancelToken::new());
                options.cancel = Some(token.clone());
                token
            }
        };
        if options.memory.is_none() {
            let grant = self.governor.admit(token.clone())?;
            options.memory = Some(Arc::new(grant));
        }
        Ok(token)
    }

    /// Execute an analyzed statement (DDL, DML or query) under `options`.
    pub fn execute_statement(
        &self,
        statement: AnalyzedStatement,
        options: ExecOptions,
        optimize: bool,
    ) -> Result<Relation, ServiceError> {
        let empty = || Relation::empty(Schema::empty());
        match statement {
            AnalyzedStatement::CreateTable { name, schema } => {
                self.catalog.create_table(&name, schema)?;
                Ok(empty())
            }
            AnalyzedStatement::DropTable { name, if_exists } => {
                self.catalog.drop_table(&name, if_exists)?;
                Ok(empty())
            }
            AnalyzedStatement::DropView { name, if_exists } => {
                self.catalog.drop_view(&name, if_exists)?;
                Ok(empty())
            }
            AnalyzedStatement::CreateView { name, body_sql } => {
                self.catalog.create_view(&name, &body_sql)?;
                Ok(empty())
            }
            AnalyzedStatement::Insert { table, rows } => {
                self.catalog.insert(&table, rows)?;
                Ok(empty())
            }
            AnalyzedStatement::InsertFromQuery { table, plan } => {
                let prepared = self.prepare_plan(plan, None, optimize, "")?;
                let result = self.execute_prepared_plan(&prepared, options, Vec::new())?;
                self.catalog.insert_chunks(&table, &result.chunks())?;
                Ok(empty())
            }
            AnalyzedStatement::Query { plan, into } => {
                let prepared = self.prepare_plan(plan, into, optimize, "")?;
                self.execute_prepared_plan(&prepared, options, Vec::new())
            }
        }
    }
}

/// The kind of a statement text, as the session routes it.
#[derive(PartialEq)]
pub(crate) enum StatementKind<'a> {
    /// `SELECT ...` or a parenthesised query.
    Query,
    /// `EXPLAIN <inner>`.
    Explain(&'a str),
    /// `EXPLAIN ANALYZE <inner>`.
    ExplainAnalyze(&'a str),
    /// DDL, DML, or a text that fails to tokenize (the analyzer then reports the error itself).
    Other,
}

/// Classify a statement from its leading *tokens* — mirroring the parser's statement dispatch —
/// so whitespace and `--` comments before or between the leading keywords don't route a query
/// down the non-query path (which would bypass the plan cache and the parameter guard). An
/// `EXPLAIN` form's inner text starts at the token after its keywords.
pub(crate) fn classify(sql: &str) -> StatementKind<'_> {
    use perm_sql::token::{tokenize, TokenKind};
    let Ok(tokens) = tokenize(sql) else { return StatementKind::Other };
    let keyword = |i: usize, word: &str| {
        tokens.get(i).and_then(|t| t.kind.as_ident()).is_some_and(|w| w.eq_ignore_ascii_case(word))
    };
    let inner = |i: usize| tokens.get(i).map_or("", |t| &sql[t.start..]);
    if keyword(0, "EXPLAIN") {
        return if keyword(1, "ANALYZE") {
            StatementKind::ExplainAnalyze(inner(2))
        } else {
            StatementKind::Explain(inner(1))
        };
    }
    if keyword(0, "SELECT") || tokens.first().is_some_and(|t| t.kind == TokenKind::LeftParen) {
        StatementKind::Query
    } else {
        StatementKind::Other
    }
}

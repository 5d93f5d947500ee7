//! Per-connection sessions: settings, statement execution and prepared statements.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use perm_algebra::{Attribute, DataType, Schema, Tuple, Value};
use perm_exec::profile::ProfileSink;
use perm_exec::{Estimator, ExecOptions};
use perm_storage::Relation;

use crate::engine::{classify, Engine, PreparedPlan, StatementKind};
use crate::error::ServiceError;
use crate::stream::QueryStream;

/// Per-session settings, applied to every statement the session executes.
#[derive(Debug, Clone)]
pub struct SessionOptions {
    /// Maximum number of rows any single operator may produce (`None` = unlimited); reproduces
    /// the paper's behaviour of aborting runaway provenance queries.
    pub row_budget: Option<usize>,
    /// Wall-clock execution timeout (`None` = unlimited).
    pub timeout: Option<Duration>,
    /// Whether plans pass through the rule-based optimizer (and hence the plan cache).
    pub optimize: bool,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions { row_budget: None, timeout: None, optimize: true }
    }
}

impl SessionOptions {
    /// Limit the number of rows any single operator may produce.
    pub fn with_row_budget(mut self, budget: usize) -> Self {
        self.row_budget = Some(budget);
        self
    }

    /// Limit wall-clock execution time.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Disable the optimizer (used by benchmarks that measure raw rewrite output).
    pub fn without_optimizer(mut self) -> Self {
        self.optimize = false;
        self
    }

    /// The executor limits these settings impose on one statement.
    pub fn exec_options(&self) -> ExecOptions {
        let mut options = ExecOptions::default();
        if let Some(budget) = self.row_budget {
            options = options.with_row_budget(budget);
        }
        if let Some(timeout) = self.timeout {
            options = options.with_timeout(timeout);
        }
        options
    }
}

/// One client's connection state: settings and named prepared statements over a shared
/// [`Engine`]. Sessions are cheap to create (one `Arc` clone plus an empty map) and are *not*
/// shared between threads — each connection owns its own.
#[derive(Debug)]
pub struct Session {
    engine: Arc<Engine>,
    options: SessionOptions,
    prepared: HashMap<String, Arc<PreparedPlan>>,
}

impl Session {
    /// Open a session over `engine` with default settings.
    pub fn new(engine: Arc<Engine>) -> Session {
        Session { engine, options: SessionOptions::default(), prepared: HashMap::new() }
    }

    /// The engine this session runs against.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The current session settings.
    pub fn options(&self) -> &SessionOptions {
        &self.options
    }

    /// Replace the session settings.
    pub fn set_options(&mut self, options: SessionOptions) {
        self.options = options;
    }

    /// Limit the number of rows any single operator may produce (`None` = unlimited).
    pub fn set_row_budget(&mut self, budget: Option<usize>) {
        self.options.row_budget = budget;
    }

    /// Limit wall-clock execution time (`None` = unlimited).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) {
        self.options.timeout = timeout;
    }

    /// Execute a single SQL statement and stream the result: the output schema is available
    /// immediately, rows arrive as [`perm_algebra::DataChunk`]s on demand, and dropping the
    /// stream cancels the execution at its next chunk boundary.
    ///
    /// Queries go through the shared plan cache. Statements whose results are side effects
    /// rather than streams — DDL, DML and `SELECT ... INTO` (which must complete its catalog
    /// write atomically) — execute eagerly and come back as an already-materialized stream.
    pub fn execute_streaming(&self, sql: &str) -> Result<QueryStream, ServiceError> {
        match classify(sql) {
            StatementKind::ExplainAnalyze(inner) => return self.explain_analyze(inner),
            StatementKind::Explain(inner) => return self.explain(inner),
            StatementKind::Query => {}
            StatementKind::Other => {
                let statement = self.engine.analyzer().analyze_sql(sql)?;
                let result = self.engine.execute_statement(
                    statement,
                    self.options.exec_options(),
                    self.options.optimize,
                )?;
                return Ok(QueryStream::from_relation(result));
            }
        }
        let prepared = self.engine.plan_query(sql, self.options.optimize)?;
        if prepared.param_count > 0 {
            return Err(ServiceError::unsupported(
                "the query references $n parameters; use prepare/execute_prepared to bind values",
            ));
        }
        if prepared.into.is_some() {
            let result = self.engine.execute_prepared_plan(
                &prepared,
                self.options.exec_options(),
                Vec::new(),
            )?;
            return Ok(QueryStream::from_relation(result));
        }
        self.engine.run_plan_streaming(prepared, self.options.exec_options(), Vec::new())
    }

    /// Execute `EXPLAIN ANALYZE <query>`: run the (provenance-rewritten, optimized) plan to
    /// completion with per-operator instrumentation attached, then return the annotated plan
    /// tree — each operator with its actual wall time (inclusive of children), output rows,
    /// chunks and peak materialized bytes — as a one-column result.
    ///
    /// The plan shown is the plan that *ran*: for `SELECT PROVENANCE` queries that is the
    /// join stack the provenance rewrite produced, not the query the user typed. The query
    /// executes fully (it is counted in the metrics registry and the recent-query ring like
    /// any other statement); only its result rows are discarded in favor of the profile.
    fn explain_analyze(&self, sql: &str) -> Result<QueryStream, ServiceError> {
        if classify(sql) != StatementKind::Query {
            return Err(ServiceError::unsupported(
                "EXPLAIN ANALYZE supports queries (SELECT ...) only",
            ));
        }
        let prepared = self.engine.plan_query(sql, self.options.optimize)?;
        if prepared.param_count > 0 {
            return Err(ServiceError::unsupported(
                "EXPLAIN ANALYZE cannot bind $n parameters; run the query via \
                 prepare/execute_prepared instead",
            ));
        }
        if prepared.into.is_some() {
            return Err(ServiceError::unsupported(
                "EXPLAIN ANALYZE does not support SELECT ... INTO (it would write the target \
                 table)",
            ));
        }
        let mut sink = ProfileSink::new(&prepared.plan);
        sink.annotate_estimates(&prepared.plan, &self.engine.table_stats_view());
        let sink = Arc::new(sink);
        let options = self.options.exec_options().with_profile(sink.clone());
        let result =
            self.engine.run_plan_streaming(prepared, options, Vec::new())?.collect_relation()?;
        let profile = sink.snapshot().render();
        let total = format!("Total rows: {}", result.num_rows());
        query_plan_stream(profile.lines().chain([total.as_str()]))
    }

    /// Execute `EXPLAIN <query>`: plan the query (provenance rewrite + optimization, through
    /// the shared plan cache) **without running it**, and return the optimized plan tree with
    /// the cardinality estimator's predicted output rows per operator.
    fn explain(&self, sql: &str) -> Result<QueryStream, ServiceError> {
        if classify(sql) != StatementKind::Query {
            return Err(ServiceError::unsupported("EXPLAIN supports queries (SELECT ...) only"));
        }
        let prepared = self.engine.plan_query(sql, self.options.optimize)?;
        let stats = self.engine.table_stats_view();
        let estimator = Estimator::new(&stats);
        let text = prepared.plan.display_tree_with(&mut |node| {
            let rows = estimator.estimate(node).rows.round() as u64;
            // The node's declared types as the plan verifier checked them (`INT?` = nullable,
            // `*` = provenance column). A sub-plan can fail verification in isolation (e.g. a
            // parameter whose typing context sits above this node); the line then simply omits
            // its types.
            match node.verify() {
                Ok(typed) => format!("  (est_rows={rows})  types={typed}"),
                Err(_) => format!("  (est_rows={rows})"),
            }
        });
        query_plan_stream(text.lines())
    }

    /// Execute a single SQL statement (DDL, DML or query). Queries go through the shared plan
    /// cache; DDL statements return an empty relation.
    ///
    /// Query results come back as chunk-backed [`Relation`]s straight from the vectorized
    /// executor: rows stay columnar through the session and the wire renderer, and are only
    /// boxed into tuples if a caller asks for [`Relation::tuples`].
    #[doc = "Convenience wrapper that drains [`Session::execute_streaming`] into a \
             materialized `Relation`; prefer `execute_streaming` for large results."]
    pub fn execute(&self, sql: &str) -> Result<Relation, ServiceError> {
        self.execute_streaming(sql)?.collect_relation()
    }

    /// Execute a `;`-separated script, returning one result per statement.
    #[doc = "Convenience wrapper that materializes every statement's result; prefer \
             [`Session::execute_streaming`] per statement for large results."]
    pub fn execute_script(&self, sql: &str) -> Result<Vec<Relation>, ServiceError> {
        let statements = perm_sql::parse_statements(sql)?;
        let analyzer = self.engine.analyzer();
        let mut results = Vec::with_capacity(statements.len());
        for stmt in &statements {
            let analyzed = analyzer.analyze_statement(stmt)?;
            results.push(self.engine.execute_statement(
                analyzed,
                self.options.exec_options(),
                self.options.optimize,
            )?);
        }
        Ok(results)
    }

    /// Prepare a query under `name`: parse, analyze, provenance-rewrite and optimize **once**.
    /// Returns the number of `$n` parameter slots the statement expects. Re-preparing an
    /// existing name replaces it.
    pub fn prepare(&mut self, name: &str, sql: &str) -> Result<usize, ServiceError> {
        if classify(sql) != StatementKind::Query {
            return Err(ServiceError::unsupported("only queries (SELECT ...) can be prepared"));
        }
        // Prepared statements skip the shared cache: parameterized texts are rarely re-planned
        // verbatim by other sessions, and the session map already caches the plan.
        let prepared = Arc::new(self.engine.plan_query_uncached(sql, self.options.optimize)?);
        let param_count = prepared.param_count;
        self.prepared.insert(name.to_string(), prepared);
        Ok(param_count)
    }

    /// Execute a prepared statement with `params` bound to its `$1..$n` slots, streaming the
    /// result (see [`Session::execute_streaming`] for stream semantics).
    pub fn execute_prepared_streaming(
        &self,
        name: &str,
        params: Vec<Value>,
    ) -> Result<QueryStream, ServiceError> {
        let prepared = self
            .prepared
            .get(name)
            .ok_or_else(|| ServiceError::UnknownPrepared(name.to_string()))?;
        if params.len() != prepared.param_count {
            return Err(ServiceError::ParameterCount {
                name: name.to_string(),
                expected: prepared.param_count,
                got: params.len(),
            });
        }
        if prepared.into.is_some() {
            let result =
                self.engine.execute_prepared_plan(prepared, self.options.exec_options(), params)?;
            return Ok(QueryStream::from_relation(result));
        }
        self.engine.run_plan_streaming(prepared.clone(), self.options.exec_options(), params)
    }

    /// Execute a prepared statement with `params` bound to its `$1..$n` slots (exact arity
    /// required; pass `Value::Null` explicitly for SQL NULL).
    #[doc = "Convenience wrapper that drains [`Session::execute_prepared_streaming`] into a \
             materialized `Relation`; prefer the streaming variant for large results."]
    pub fn execute_prepared(
        &self,
        name: &str,
        params: Vec<Value>,
    ) -> Result<Relation, ServiceError> {
        self.execute_prepared_streaming(name, params)?.collect_relation()
    }

    /// Drop a prepared statement; returns whether it existed.
    pub fn deallocate(&mut self, name: &str) -> bool {
        self.prepared.remove(name).is_some()
    }

    /// The prepared statement registered under `name`, if any.
    pub fn prepared(&self, name: &str) -> Option<&Arc<PreparedPlan>> {
        self.prepared.get(name)
    }

    /// Names of all prepared statements, sorted.
    pub fn prepared_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.prepared.keys().cloned().collect();
        names.sort();
        names
    }
}

/// The one-column `QUERY PLAN` result of `EXPLAIN` and `EXPLAIN ANALYZE`: one row per line.
fn query_plan_stream<'a>(
    lines: impl Iterator<Item = &'a str>,
) -> Result<QueryStream, ServiceError> {
    let schema = Schema::new(vec![Attribute::new("QUERY PLAN", DataType::Text)]);
    let tuples = lines.map(|l| Tuple::new(vec![Value::Text(l.into())])).collect();
    let rendered = Relation::new(schema, tuples)
        .map_err(|e| ServiceError::Internal(format!("failed to render plan: {e}")))?;
    Ok(QueryStream::from_relation(rendered))
}

//! The engine-wide metrics registry: lock-light counters, gauges and fixed-bucket histograms,
//! plus the per-query ticket machinery that classifies every statement's outcome.
//!
//! Perm's value proposition (conf_icde_GlavicA09) is provenance computed *inside* the DBMS by
//! query rewrite; operating it as a live service therefore needs the same visibility a host
//! DBMS would provide — how many queries ran, how they ended (ok / error / cancelled / shed by
//! the governor), where the latency distribution sits, and how much memory the streaming layer
//! holds. This module absorbs the counters that previous PRs scattered across the plan cache,
//! the governor and the stream gauge into one registry with one consistent snapshot
//! ([`StatsSnapshot`]) rendered both as the wire `stats` text and as Prometheus exposition
//! (`metrics` request / `permd --metrics-addr`). Each metric family is declared once, in
//! `FAMILIES`; both renderings loop over that table and `docs/OBSERVABILITY.md` lists it.
//!
//! Everything on the hot path is a relaxed atomic: counters and gauges are single
//! `fetch_add`s, the latency histogram is one bucket increment per *query* (never per row or
//! chunk), and the only lock is around the bounded ring buffer of recent [`QueryRecord`]s,
//! taken once per query at completion.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use perm_exec::profile::ProfileSink;
use perm_exec::{log_info, log_warn, OptimizerReport};
use perm_storage::TableInfo;

use crate::cache::CacheStats;
use crate::error::ServiceError;
use crate::governor::GovernorStats;

/// A monotonically increasing counter (one relaxed `fetch_add` per bump).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A non-negative gauge. Decrements saturate at zero, so a bookkeeping bug can skew the gauge
/// but never wrap it to 2^64.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Increment by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrement by one (saturating at zero).
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(1)));
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Query-latency bucket upper bounds, in milliseconds. Spans sub-millisecond plan-cache hits
/// to the paper's multi-second provenance rewrites; everything above the last bound lands in
/// the implicit `+Inf` bucket.
pub const LATENCY_BUCKETS_MS: [f64; 15] = [
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
    10000.0,
];

/// A fixed-bucket histogram: one relaxed increment per observation, quantiles estimated from
/// bucket upper bounds (the standard Prometheus-style estimator, biased at most one bucket
/// width upward).
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [f64],
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observations in microseconds (integer so it can be a relaxed atomic).
    sum_micros: AtomicU64,
}

impl Histogram {
    /// A histogram over `bounds` (upper bucket bounds in milliseconds, ascending) plus an
    /// implicit `+Inf` bucket.
    pub fn new(bounds: &'static [f64]) -> Histogram {
        Histogram {
            bounds,
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }

    /// Record one observation of `ms` milliseconds.
    pub fn observe_ms(&self, ms: f64) {
        let idx = self.bounds.iter().position(|b| ms <= *b).unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add((ms * 1000.0).max(0.0) as u64, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Immutable copy of the bucket counts and totals.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds,
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_ms: self.sum_micros.load(Ordering::Relaxed) as f64 / 1000.0,
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds in milliseconds (the last bucket in `buckets` is `+Inf`).
    pub bounds: &'static [f64],
    /// Per-bucket observation counts (`bounds.len() + 1` entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations in milliseconds.
    pub sum_ms: f64,
}

impl HistogramSnapshot {
    /// Estimate the `q`-quantile (`0.0..=1.0`) in milliseconds: the upper bound of the bucket
    /// containing the `ceil(q * count)`-th observation. Returns 0 with no observations;
    /// observations beyond the last bound report that bound.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket;
            if cumulative >= rank {
                return self.bounds.get(i).copied().unwrap_or(*self.bounds.last().unwrap_or(&0.0));
            }
        }
        self.bounds.last().copied().unwrap_or(0.0)
    }
}

/// How a query ended; the `outcome` label of the completed-queries counter family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutcome {
    /// Completed and delivered its full result.
    Ok,
    /// Failed with an error (planning, execution, timeout, row budget).
    Error,
    /// Cancelled by the client (wire `cancel`, dropped stream, shutdown).
    Cancelled,
    /// Shed by the governor under memory pressure (or rejected at admission).
    Shed,
}

impl QueryOutcome {
    /// The Prometheus label / log value for this outcome.
    pub fn as_str(self) -> &'static str {
        match self {
            QueryOutcome::Ok => "ok",
            QueryOutcome::Error => "error",
            QueryOutcome::Cancelled => "cancelled",
            QueryOutcome::Shed => "shed",
        }
    }

    fn index(self) -> usize {
        match self {
            QueryOutcome::Ok => 0,
            QueryOutcome::Error => 1,
            QueryOutcome::Cancelled => 2,
            QueryOutcome::Shed => 3,
        }
    }
}

/// Classify a service error as a query outcome: executor cancellation maps to `cancelled`,
/// governor shedding / admission rejection to `shed`, everything else to `error`.
pub fn outcome_of(error: &ServiceError) -> QueryOutcome {
    match error {
        ServiceError::Exec(perm_exec::ExecError::Cancelled) => QueryOutcome::Cancelled,
        ServiceError::Exec(perm_exec::ExecError::ResourceExhausted(_)) => QueryOutcome::Shed,
        _ => QueryOutcome::Error,
    }
}

/// One completed query in the in-engine ring buffer (the `profile` wire command and the
/// slow-query log read from here).
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// Engine-wide query id (also the `qid` of the query's log lines).
    pub qid: u64,
    /// The (truncated) SQL text.
    pub sql: String,
    /// How the query ended.
    pub outcome: QueryOutcome,
    /// Wall-clock latency in milliseconds.
    pub latency_ms: f64,
    /// Rows the query delivered.
    pub rows: u64,
    /// Rendered operator profile, when the query ran under `EXPLAIN ANALYZE`.
    pub profile: Option<String>,
}

/// How many recent queries the ring buffer keeps.
pub const RECENT_QUERIES: usize = 64;

/// Longest SQL text stored in records and log lines.
const SQL_SNIPPET_LEN: usize = 200;

/// Truncate SQL for records and log lines (whole characters, with an ellipsis marker).
pub(crate) fn truncate_sql(sql: &str) -> String {
    let sql = sql.trim();
    if sql.len() <= SQL_SNIPPET_LEN {
        return sql.to_string();
    }
    let mut end = SQL_SNIPPET_LEN;
    while !sql.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}...", &sql[..end])
}

/// The engine-wide metrics registry; see the module docs.
#[derive(Debug)]
pub struct Metrics {
    /// Connections accepted since startup.
    pub connections_opened: Counter,
    /// Connections currently open.
    pub connections_active: Gauge,
    /// Queries currently executing (admitted tickets not yet finished).
    pub queries_active: Gauge,
    /// Completed queries by outcome (indexed by [`QueryOutcome::index`]).
    queries: [Counter; 4],
    /// Result rows sent to clients over the wire.
    pub rows_streamed: Counter,
    /// Result bytes (columnar chunk payload) sent to clients over the wire.
    pub bytes_streamed: Counter,
    /// Query wall-clock latency.
    pub query_latency: Histogram,
    /// Join regions reordered by the cost-based optimizer.
    pub plans_reordered: Counter,
    /// Hash-join build sides swapped to the estimated-smaller input.
    pub build_sides_swapped: Counter,
    /// Sorts moved below a join onto its probe side.
    pub sorts_pushed: Counter,
    /// Plan nodes the cardinality estimator was asked about.
    pub estimator_invocations: Counter,
    next_qid: AtomicU64,
    /// Slow-query threshold in milliseconds; 0 disables the slow-query log.
    slow_query_ms: AtomicU64,
    recent: Mutex<VecDeque<QueryRecord>>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics {
            connections_opened: Counter::default(),
            connections_active: Gauge::default(),
            queries_active: Gauge::default(),
            queries: Default::default(),
            rows_streamed: Counter::default(),
            bytes_streamed: Counter::default(),
            query_latency: Histogram::new(&LATENCY_BUCKETS_MS),
            plans_reordered: Counter::default(),
            build_sides_swapped: Counter::default(),
            sorts_pushed: Counter::default(),
            estimator_invocations: Counter::default(),
            next_qid: AtomicU64::new(0),
            slow_query_ms: AtomicU64::new(0),
            recent: Mutex::new(VecDeque::with_capacity(RECENT_QUERIES)),
        }
    }

    /// Set the slow-query threshold (`permd --slow-query-ms`); 0 disables the log.
    pub fn set_slow_query_ms(&self, ms: u64) {
        self.slow_query_ms.store(ms, Ordering::Relaxed);
    }

    /// Completed queries with the given outcome.
    pub fn queries_with_outcome(&self, outcome: QueryOutcome) -> u64 {
        self.queries[outcome.index()].get()
    }

    /// Fold one optimization run's cost-based counters into the registry.
    pub fn record_optimizer(&self, report: &OptimizerReport) {
        self.plans_reordered.add(report.joins_reordered);
        self.build_sides_swapped.add(report.build_sides_swapped);
        self.sorts_pushed.add(report.sorts_pushed);
        self.estimator_invocations.add(report.estimator_invocations);
    }

    /// Open a ticket for one query: assigns the engine-wide query id, bumps the active gauge
    /// and logs `query_start`. The ticket must be finished exactly once; dropping an
    /// unfinished ticket records the query as cancelled.
    pub fn start_query(self: &Arc<Self>, sql: &str, sink: Option<Arc<ProfileSink>>) -> QueryTicket {
        let qid = self.next_qid.fetch_add(1, Ordering::Relaxed) + 1;
        self.queries_active.inc();
        let sql = truncate_sql(sql);
        log_info!("query_start", qid = qid, sql = sql);
        QueryTicket {
            metrics: self.clone(),
            qid,
            sql,
            started: Instant::now(),
            sink,
            finished: false,
        }
    }

    /// The most recent completed queries, newest first.
    pub fn recent_queries(&self) -> Vec<QueryRecord> {
        self.recent.lock().iter().cloned().collect()
    }

    fn record(&self, record: QueryRecord) {
        let mut recent = self.recent.lock();
        if recent.len() == RECENT_QUERIES {
            recent.pop_back();
        }
        recent.push_front(record);
    }

    /// Point-in-time copy of every registry value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            connections_opened: self.connections_opened.get(),
            connections_active: self.connections_active.get(),
            queries_active: self.queries_active.get(),
            queries_ok: self.queries_with_outcome(QueryOutcome::Ok),
            queries_error: self.queries_with_outcome(QueryOutcome::Error),
            queries_cancelled: self.queries_with_outcome(QueryOutcome::Cancelled),
            queries_shed: self.queries_with_outcome(QueryOutcome::Shed),
            rows_streamed: self.rows_streamed.get(),
            bytes_streamed: self.bytes_streamed.get(),
            latency: self.query_latency.snapshot(),
            plans_reordered: self.plans_reordered.get(),
            build_sides_swapped: self.build_sides_swapped.get(),
            sorts_pushed: self.sorts_pushed.get(),
            estimator_invocations: self.estimator_invocations.get(),
        }
    }

    /// Render the recent-query ring (newest first) for the wire `profile` command: one header
    /// line per query, followed by its annotated operator tree when it ran under
    /// `EXPLAIN ANALYZE`.
    pub fn render_profile(&self) -> String {
        let recent = self.recent_queries();
        if recent.is_empty() {
            return "no completed queries".to_string();
        }
        let mut out = String::new();
        for record in &recent {
            let _ = writeln!(
                out,
                "qid={} outcome={} latency_ms={:.3} rows={} sql={}",
                record.qid,
                record.outcome.as_str(),
                record.latency_ms,
                record.rows,
                record.sql,
            );
            if let Some(profile) = &record.profile {
                for line in profile.lines() {
                    let _ = writeln!(out, "  {line}");
                }
            }
        }
        out.pop();
        out
    }
}

/// One admitted query's handle on the registry: finishing it (or dropping it) settles the
/// active gauge, the outcome counter, the latency histogram, the ring buffer and the
/// slow-query log in one place.
#[derive(Debug)]
pub struct QueryTicket {
    metrics: Arc<Metrics>,
    qid: u64,
    sql: String,
    started: Instant,
    sink: Option<Arc<ProfileSink>>,
    finished: bool,
}

impl QueryTicket {
    /// The engine-wide query id (tags this query's log lines as `qid=<id>`).
    pub fn query_id(&self) -> u64 {
        self.qid
    }

    /// Settle the ticket: gauge down, outcome counted, latency observed, `query_end` logged,
    /// record pushed to the ring buffer. Idempotent — only the first call counts.
    pub fn finish(&mut self, outcome: QueryOutcome, rows: u64) {
        if self.finished {
            return;
        }
        self.finished = true;
        let latency_ms = self.started.elapsed().as_secs_f64() * 1000.0;
        self.metrics.queries_active.dec();
        self.metrics.queries[outcome.index()].inc();
        self.metrics.query_latency.observe_ms(latency_ms);
        let latency = format!("{latency_ms:.3}");
        log_info!(
            "query_end",
            qid = self.qid,
            outcome = outcome.as_str(),
            latency_ms = latency,
            rows = rows,
        );
        let slow = self.metrics.slow_query_ms.load(Ordering::Relaxed);
        if slow > 0 && latency_ms >= slow as f64 {
            log_warn!(
                "slow_query",
                qid = self.qid,
                latency_ms = latency,
                threshold_ms = slow,
                rows = rows,
                sql = self.sql,
            );
        }
        let profile = self.sink.as_ref().map(|sink| sink.snapshot().render());
        self.metrics.record(QueryRecord {
            qid: self.qid,
            sql: std::mem::take(&mut self.sql),
            outcome,
            latency_ms,
            rows,
            profile,
        });
    }
}

impl Drop for QueryTicket {
    fn drop(&mut self) {
        // A ticket abandoned without an explicit outcome means the stream was dropped
        // mid-flight — classify as cancelled so the gauges still return to zero.
        self.finish(QueryOutcome::Cancelled, 0);
    }
}

/// A point-in-time copy of the registry's scalar values.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Connections accepted since startup.
    pub connections_opened: u64,
    /// Connections currently open.
    pub connections_active: u64,
    /// Queries currently executing.
    pub queries_active: u64,
    /// Completed queries that delivered their full result.
    pub queries_ok: u64,
    /// Completed queries that failed with an error.
    pub queries_error: u64,
    /// Completed queries cancelled by the client.
    pub queries_cancelled: u64,
    /// Completed queries shed by the governor.
    pub queries_shed: u64,
    /// Result rows streamed to clients.
    pub rows_streamed: u64,
    /// Result bytes streamed to clients.
    pub bytes_streamed: u64,
    /// Query latency distribution.
    pub latency: HistogramSnapshot,
    /// Join regions reordered by the cost-based optimizer.
    pub plans_reordered: u64,
    /// Hash-join build sides swapped to the estimated-smaller input.
    pub build_sides_swapped: u64,
    /// Sorts moved below a join onto its probe side.
    pub sorts_pushed: u64,
    /// Plan nodes the cardinality estimator was asked about.
    pub estimator_invocations: u64,
}

/// One consistent snapshot of every stat the engine exposes — the cache, governor, stream and
/// registry numbers are all collected by a single [`crate::Engine::stats_snapshot`] call, so
/// the wire `stats` text and the Prometheus exposition always describe the same instant
/// (previously `stats` interleaved three separate lock acquisitions).
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    /// Plan-cache counters.
    pub cache: CacheStats,
    /// Governor gauges and counters.
    pub governor: GovernorStats,
    /// Bytes of pulled result chunks a stream holds and has not handed to the consumer.
    pub stream_buffered: usize,
    /// The metrics registry.
    pub metrics: MetricsSnapshot,
    /// Per-table row counts and statistics freshness (catalog version of the last mutation,
    /// which is the version the table's statistics describe).
    pub tables: Vec<TableInfo>,
}

/// What one metric family reads from a [`StatsSnapshot`].
enum Reading<'a> {
    /// One unlabelled value.
    Scalar(u64),
    /// One value per `outcome` label; on the `stats` line each outcome is a key of its own.
    Outcomes(Vec<(&'a str, u64)>),
    /// One value per `table` label; `stats` gives each table a line of its own.
    Tables(Vec<(&'a str, u64)>),
    /// The query-latency histogram: buckets in seconds for Prometheus, quantiles in
    /// milliseconds for `stats`.
    Histogram(&'a HistogramSnapshot),
}

/// One metric family, declared once. [`render_stats_text`] and [`render_prometheus`] are loops
/// over [`FAMILIES`], and `docs/OBSERVABILITY.md` lists exactly these (a unit test checks it).
struct Family {
    /// Prometheus name.
    name: &'static str,
    /// Prometheus type: `counter`, `gauge` or `histogram`.
    kind: &'static str,
    /// Prometheus HELP text.
    help: &'static str,
    /// The `stats` line and key the family is shown under; the key is empty when the family's
    /// outcomes or quantiles name their own keys.
    stats: (&'static str, &'static str),
    /// Reads the family's value(s) from one snapshot.
    read: fn(&StatsSnapshot) -> Reading<'_>,
}

fn per_table(snap: &StatsSnapshot, value: fn(&TableInfo) -> u64) -> Reading<'_> {
    Reading::Tables(snap.tables.iter().map(|t| (t.name.as_str(), value(t))).collect())
}

/// Every family the engine reports, in `stats` line order (Prometheus follows the same order).
#[rustfmt::skip]
const FAMILIES: &[Family] = &[
    Family { name: "perm_plan_cache_hits_total", kind: "counter", stats: ("plan_cache", "hits"),
        help: "Plan-cache lookups that returned a cached plan.",
        read: |s| Reading::Scalar(s.cache.hits) },
    Family { name: "perm_plan_cache_misses_total", kind: "counter", stats: ("plan_cache", "misses"),
        help: "Plan-cache lookups that found nothing (or a stale entry).",
        read: |s| Reading::Scalar(s.cache.misses) },
    Family { name: "perm_plan_cache_invalidations_total", kind: "counter",
        stats: ("plan_cache", "invalidations"),
        help: "Cached plans dropped because the catalog version moved past them.",
        read: |s| Reading::Scalar(s.cache.invalidations) },
    Family { name: "perm_plan_cache_deferred_total", kind: "counter",
        stats: ("plan_cache", "deferred"),
        help: "Plan-cache misses whose plan was not kept because the text was new to the cache.",
        read: |s| Reading::Scalar(s.cache.deferred) },
    Family { name: "perm_plan_cache_entries", kind: "gauge", stats: ("plan_cache", "entries"),
        help: "Plans currently cached.",
        read: |s| Reading::Scalar(s.cache.entries as u64) },
    Family { name: "perm_stream_buffered_bytes", kind: "gauge",
        stats: ("streams", "buffered_bytes"),
        help: "Bytes of pulled result chunks a stream holds and has not handed to the consumer.",
        read: |s| Reading::Scalar(s.stream_buffered as u64) },
    Family { name: "perm_governor_active_queries", kind: "gauge",
        stats: ("governor", "active_queries"),
        help: "Statements registered with the governor.",
        read: |s| Reading::Scalar(s.governor.active_queries as u64) },
    Family { name: "perm_governor_reserved_bytes", kind: "gauge",
        stats: ("governor", "reserved_bytes"),
        help: "Bytes reserved across all registered statements.",
        read: |s| Reading::Scalar(s.governor.reserved_bytes as u64) },
    Family { name: "perm_governor_admitted_total", kind: "counter", stats: ("governor", "admitted"),
        help: "Statements admitted by the governor since startup.",
        read: |s| Reading::Scalar(s.governor.admitted) },
    Family { name: "perm_governor_shed_total", kind: "counter", stats: ("governor", "shed_queries"),
        help: "Statements shed under engine-wide memory pressure.",
        read: |s| Reading::Scalar(s.governor.shed_queries) },
    Family { name: "perm_queries_active", kind: "gauge", stats: ("queries", "active"),
        help: "Queries currently executing.",
        read: |s| Reading::Scalar(s.metrics.queries_active) },
    Family { name: "perm_queries_total", kind: "counter", stats: ("queries", ""),
        help: "Completed queries by outcome.",
        read: |s| Reading::Outcomes(vec![
            (QueryOutcome::Ok.as_str(), s.metrics.queries_ok),
            (QueryOutcome::Error.as_str(), s.metrics.queries_error),
            (QueryOutcome::Cancelled.as_str(), s.metrics.queries_cancelled),
            (QueryOutcome::Shed.as_str(), s.metrics.queries_shed),
        ]) },
    Family { name: "perm_query_latency_seconds", kind: "histogram", stats: ("latency_ms", ""),
        help: "Query wall-clock latency.",
        read: |s| Reading::Histogram(&s.metrics.latency) },
    Family { name: "perm_rows_streamed_total", kind: "counter", stats: ("streamed", "rows"),
        help: "Result rows streamed to clients.",
        read: |s| Reading::Scalar(s.metrics.rows_streamed) },
    Family { name: "perm_bytes_streamed_total", kind: "counter", stats: ("streamed", "bytes"),
        help: "Result bytes streamed to clients (encoded `R` frame payloads).",
        read: |s| Reading::Scalar(s.metrics.bytes_streamed) },
    Family { name: "perm_connections_active", kind: "gauge", stats: ("connections", "active"),
        help: "Connections currently open.",
        read: |s| Reading::Scalar(s.metrics.connections_active) },
    Family { name: "perm_connections_opened_total", kind: "counter",
        stats: ("connections", "opened"),
        help: "Connections accepted since startup.",
        read: |s| Reading::Scalar(s.metrics.connections_opened) },
    Family { name: "perm_optimizer_joins_reordered_total", kind: "counter",
        stats: ("optimizer", "reordered"),
        help: "Join regions reordered by the cost-based optimizer.",
        read: |s| Reading::Scalar(s.metrics.plans_reordered) },
    Family { name: "perm_optimizer_build_swaps_total", kind: "counter",
        stats: ("optimizer", "build_swaps"),
        help: "Hash-join build sides swapped to the estimated-smaller input.",
        read: |s| Reading::Scalar(s.metrics.build_sides_swapped) },
    Family { name: "perm_optimizer_sorts_pushed_total", kind: "counter",
        stats: ("optimizer", "sorts_pushed"),
        help: "Sorts moved below a join onto its probe side.",
        read: |s| Reading::Scalar(s.metrics.sorts_pushed) },
    Family { name: "perm_optimizer_estimator_calls_total", kind: "counter",
        stats: ("optimizer", "estimator_calls"),
        help: "Plan nodes the cardinality estimator was asked about.",
        read: |s| Reading::Scalar(s.metrics.estimator_invocations) },
    Family { name: "perm_table_rows", kind: "gauge", stats: ("table", "rows"),
        help: "Rows stored per base table.",
        read: |s| per_table(s, |t| t.rows as u64) },
    Family { name: "perm_table_bytes", kind: "gauge", stats: ("table", "bytes"),
        help: "Resident bytes of each table's chunks.",
        read: |s| per_table(s, |t| t.bytes as u64) },
    Family { name: "perm_table_stats_version", kind: "gauge", stats: ("table", "stats_version"),
        help: "Catalog version of each table's last mutation (the version its statistics \
               describe).",
        read: |s| per_table(s, |t| t.modified_version) },
];

/// Escape a label value as the text exposition format (0.0.4) requires. `stats` shows table
/// names the same way, so no name can split a line of either rendering.
fn escape_label(value: &str) -> String {
    value.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Render the wire `stats` text from one snapshot.
pub fn render_stats_text(snap: &StatsSnapshot) -> String {
    let mut lines: Vec<String> = Vec::new();
    // Families that share a `stats` line are adjacent in the table; `lines[first..]` is the
    // open line, or the open run of one line per table.
    let (mut open, mut first) = ("", 0);
    for family in FAMILIES {
        let (line, key) = family.stats;
        let reading = (family.read)(snap);
        if line != open {
            (open, first) = (line, lines.len());
            match &reading {
                Reading::Tables(rows) => lines.extend(
                    rows.iter().map(|(table, _)| format!("{line} {}", escape_label(table))),
                ),
                _ => lines.push(line.to_string()),
            }
        }
        for (row, text) in lines[first..].iter_mut().enumerate() {
            let _ = match &reading {
                Reading::Scalar(v) => write!(text, " {key}={v}"),
                Reading::Tables(rows) => write!(text, " {key}={}", rows[row].1),
                Reading::Outcomes(values) => {
                    values.iter().try_for_each(|(outcome, v)| write!(text, " {outcome}={v}"))
                }
                Reading::Histogram(h) => write!(
                    text,
                    " p50={:.3} p95={:.3} p99={:.3} count={}",
                    h.quantile_ms(0.50),
                    h.quantile_ms(0.95),
                    h.quantile_ms(0.99),
                    h.count,
                ),
            };
        }
    }
    lines.join("\n")
}

/// Render one snapshot in the Prometheus text exposition format (version 0.0.4). A per-table
/// family is left out while the catalog has no tables.
pub fn render_prometheus(snap: &StatsSnapshot) -> String {
    let mut out = String::with_capacity(2048);
    for family in FAMILIES {
        let name = family.name;
        let reading = (family.read)(snap);
        if matches!(&reading, Reading::Tables(rows) if rows.is_empty()) {
            continue;
        }
        let _ = writeln!(out, "# HELP {name} {}\n# TYPE {name} {}", family.help, family.kind);
        let (label, samples) = match reading {
            Reading::Scalar(v) => {
                let _ = writeln!(out, "{name} {v}");
                continue;
            }
            Reading::Histogram(h) => {
                let mut cumulative = 0;
                for (i, count) in h.buckets.iter().enumerate() {
                    cumulative += count;
                    let le =
                        h.bounds.get(i).map_or("+Inf".to_string(), |ms| (ms / 1000.0).to_string());
                    let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                }
                let _ = writeln!(out, "{name}_sum {}\n{name}_count {}", h.sum_ms / 1000.0, h.count);
                continue;
            }
            Reading::Outcomes(values) => ("outcome", values),
            Reading::Tables(values) => ("table", values),
        };
        for (value_label, v) in samples {
            let _ = writeln!(out, "{name}{{{label}=\"{}\"}} {v}", escape_label(value_label));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_saturates_at_zero() {
        let g = Gauge::default();
        g.inc();
        g.dec();
        g.dec();
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new(&LATENCY_BUCKETS_MS);
        for _ in 0..90 {
            h.observe_ms(0.8); // -> le=1.0 bucket
        }
        for _ in 0..10 {
            h.observe_ms(400.0); // -> le=500 bucket
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.quantile_ms(0.50), 1.0);
        assert_eq!(snap.quantile_ms(0.90), 1.0);
        assert_eq!(snap.quantile_ms(0.95), 500.0);
        assert_eq!(snap.quantile_ms(0.99), 500.0);
        // Beyond the last bound lands in +Inf but reports the last bound.
        h.observe_ms(60_000.0);
        assert_eq!(h.snapshot().quantile_ms(1.0), 10_000.0);
    }

    #[test]
    fn ticket_lifecycle_counts_outcomes_and_returns_gauges_to_zero() {
        let metrics = Arc::new(Metrics::new());
        let mut t1 = metrics.start_query("SELECT 1", None);
        assert_eq!(metrics.queries_active.get(), 1);
        assert!(t1.query_id() > 0);
        t1.finish(QueryOutcome::Ok, 7);
        t1.finish(QueryOutcome::Error, 9); // idempotent: only the first finish counts
        assert_eq!(metrics.queries_active.get(), 0);
        assert_eq!(metrics.queries_with_outcome(QueryOutcome::Ok), 1);
        assert_eq!(metrics.queries_with_outcome(QueryOutcome::Error), 0);
        assert_eq!(metrics.query_latency.count(), 1);
        // Dropping an unfinished ticket records a cancellation.
        let t2 = metrics.start_query("SELECT 2", None);
        drop(t2);
        assert_eq!(metrics.queries_active.get(), 0);
        assert_eq!(metrics.queries_with_outcome(QueryOutcome::Cancelled), 1);
        let recent = metrics.recent_queries();
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].sql, "SELECT 2"); // newest first
        assert_eq!(recent[1].rows, 7);
    }

    #[test]
    fn outcome_classification() {
        use perm_exec::ExecError;
        assert_eq!(outcome_of(&ServiceError::Exec(ExecError::Cancelled)), QueryOutcome::Cancelled);
        assert_eq!(
            outcome_of(&ServiceError::Exec(ExecError::ResourceExhausted("x".into()))),
            QueryOutcome::Shed
        );
        assert_eq!(
            outcome_of(&ServiceError::Exec(ExecError::Timeout { millis: 5 })),
            QueryOutcome::Error
        );
        assert_eq!(outcome_of(&ServiceError::protocol("x")), QueryOutcome::Error);
    }

    /// A snapshot with every family non-trivial; `tests/fixtures/{stats,prometheus}.txt` hold
    /// what the two hand-written renderers produced for it before the family table replaced them.
    fn fixture_snapshot() -> StatsSnapshot {
        StatsSnapshot {
            cache: CacheStats { hits: 12, misses: 3, invalidations: 2, deferred: 1, entries: 5 },
            governor: GovernorStats {
                active_queries: 1,
                reserved_bytes: 65_536,
                admitted: 17,
                shed_queries: 1,
            },
            stream_buffered: 2048,
            metrics: MetricsSnapshot {
                connections_opened: 4,
                connections_active: 2,
                queries_active: 1,
                queries_ok: 11,
                queries_error: 2,
                queries_cancelled: 1,
                queries_shed: 1,
                rows_streamed: 1_000_042,
                bytes_streamed: 8_388_608,
                latency: HistogramSnapshot {
                    bounds: &LATENCY_BUCKETS_MS,
                    buckets: vec![3, 2, 4, 1, 0, 2, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1],
                    count: 15,
                    sum_ms: 12_345.678,
                },
                plans_reordered: 3,
                build_sides_swapped: 2,
                sorts_pushed: 1,
                estimator_invocations: 57,
            },
            tables: vec![
                TableInfo {
                    name: "lineitem".to_string(),
                    rows: 6005,
                    bytes: 720_600,
                    modified_version: 9,
                },
                TableInfo { name: "r".to_string(), rows: 42, bytes: 336, modified_version: 3 },
            ],
        }
    }

    /// An exposition's families (its `# HELP` blocks), in a canonical order.
    fn families(exposition: &str) -> Vec<&str> {
        let mut blocks: Vec<&str> = exposition.split("# HELP ").skip(1).collect();
        blocks.sort_unstable();
        blocks
    }

    #[test]
    fn renderings_match_the_fixtures() {
        let snap = fixture_snapshot();
        assert_eq!(render_stats_text(&snap), include_str!("../tests/fixtures/stats.txt"));
        // Byte-identical families; only their order follows the table's `stats` order now.
        let prometheus = render_prometheus(&snap);
        assert_eq!(
            families(&prometheus),
            families(include_str!("../tests/fixtures/prometheus.txt"))
        );
        assert_eq!(families(&prometheus).len(), FAMILIES.len());
        // Every non-comment line is `name{labels} value` or `name value` with a numeric value.
        for line in prometheus.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("metric line has a value");
            assert!(value.parse::<f64>().is_ok(), "non-numeric value in line: {line}");
        }
    }

    #[test]
    fn per_table_families_are_left_out_without_tables() {
        let snap = StatsSnapshot { tables: Vec::new(), ..fixture_snapshot() };
        assert!(!render_prometheus(&snap).contains("perm_table_"));
        let stats = render_stats_text(&snap);
        assert!(
            stats
                .ends_with("optimizer reordered=3 build_swaps=2 sorts_pushed=1 estimator_calls=57"),
            "{stats}"
        );
    }

    #[test]
    fn label_values_are_escaped_in_both_renderings() {
        let table =
            |name: &str| TableInfo { name: name.into(), rows: 1, bytes: 8, modified_version: 1 };
        let snap = StatsSnapshot {
            tables: vec![table("we\\ird"), table("say \"hi\""), table("two\nlines")],
            ..fixture_snapshot()
        };
        let prometheus = render_prometheus(&snap);
        for escaped in [r#""we\\ird""#, r#""say \"hi\"""#, r#""two\nlines""#] {
            assert!(prometheus.contains(&format!("perm_table_rows{{table={escaped}}} 1\n")));
        }
        let stats = render_stats_text(&snap);
        assert!(stats.ends_with("\ntable two\\nlines rows=1 bytes=8 stats_version=1"), "{stats}");
        assert_eq!(stats.lines().count(), 8 + 3);
    }

    /// `docs/OBSERVABILITY.md` carries the family table rendered from [`FAMILIES`], row for row.
    #[test]
    fn observability_doc_lists_every_family() {
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        let rows: String = FAMILIES
            .iter()
            .map(|f| {
                let stats = format!("{} {}", f.stats.0, f.stats.1);
                format!("| `{}` | {} | `{}` | {} |\n", f.name, f.kind, stats.trim_end(), f.help)
            })
            .collect();
        assert!(doc.contains(&rows), "docs/OBSERVABILITY.md's family table must read:\n{rows}");
        assert_eq!(doc.matches("\n| `perm_").count(), FAMILIES.len(), "a family the table lacks");
    }

    #[test]
    fn sql_truncation() {
        assert_eq!(truncate_sql("  SELECT 1 "), "SELECT 1");
        let long = "SELECT ".to_string() + &"x,".repeat(200);
        let cut = truncate_sql(&long);
        assert!(cut.ends_with("..."));
        assert!(cut.len() <= 203);
    }
}

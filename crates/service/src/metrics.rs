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
//! (`metrics` request / `permd --metrics-addr`).
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

/// How a query ended; the label of the `perm_queries_total` counter family.
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
    /// Bytes buffered in streaming result channels.
    pub stream_buffered: usize,
    /// The metrics registry.
    pub metrics: MetricsSnapshot,
    /// Per-table row counts and statistics freshness (catalog version of the last mutation,
    /// which is the version the table's statistics describe).
    pub tables: Vec<TableInfo>,
}

/// Render the wire `stats` text from one snapshot (the `window` is the server's backpressure
/// window, reported alongside the stream gauge).
pub fn render_stats_text(snap: &StatsSnapshot, window: usize) -> String {
    let m = &snap.metrics;
    let mut text = format!(
        "plan_cache hits={} misses={} invalidations={} entries={}\nstreams buffered_bytes={} \
         window={}\ngovernor active_queries={} reserved_bytes={} admitted={} \
         shed_queries={}\nqueries active={} ok={} error={} cancelled={} shed={}\nlatency_ms \
         p50={:.3} p95={:.3} p99={:.3} count={}\nstreamed rows={} bytes={}\nconnections \
         active={} opened={}",
        snap.cache.hits,
        snap.cache.misses,
        snap.cache.invalidations,
        snap.cache.entries,
        snap.stream_buffered,
        window,
        snap.governor.active_queries,
        snap.governor.reserved_bytes,
        snap.governor.admitted,
        snap.governor.shed_queries,
        m.queries_active,
        m.queries_ok,
        m.queries_error,
        m.queries_cancelled,
        m.queries_shed,
        m.latency.quantile_ms(0.50),
        m.latency.quantile_ms(0.95),
        m.latency.quantile_ms(0.99),
        m.latency.count,
        m.rows_streamed,
        m.bytes_streamed,
        m.connections_active,
        m.connections_opened,
    );
    let _ = write!(
        text,
        "\noptimizer reordered={} build_swaps={} estimator_calls={}",
        m.plans_reordered, m.build_sides_swapped, m.estimator_invocations,
    );
    for table in &snap.tables {
        let _ = write!(
            text,
            "\ntable {} rows={} bytes={} stats_version={}",
            table.name, table.rows, table.bytes, table.modified_version,
        );
    }
    text
}

fn prom_metric(
    out: &mut String,
    name: &str,
    kind: &str,
    help: &str,
    value: impl std::fmt::Display,
) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    let _ = writeln!(out, "{name} {value}");
}

/// Render one snapshot in the Prometheus text exposition format (version 0.0.4).
pub fn render_prometheus(snap: &StatsSnapshot) -> String {
    let m = &snap.metrics;
    let mut out = String::with_capacity(2048);
    prom_metric(
        &mut out,
        "perm_connections_opened_total",
        "counter",
        "Connections accepted since startup.",
        m.connections_opened,
    );
    prom_metric(
        &mut out,
        "perm_connections_active",
        "gauge",
        "Connections currently open.",
        m.connections_active,
    );
    prom_metric(
        &mut out,
        "perm_queries_active",
        "gauge",
        "Queries currently executing.",
        m.queries_active,
    );
    let _ = writeln!(out, "# HELP perm_queries_total Completed queries by outcome.");
    let _ = writeln!(out, "# TYPE perm_queries_total counter");
    for (outcome, value) in [
        ("ok", m.queries_ok),
        ("error", m.queries_error),
        ("cancelled", m.queries_cancelled),
        ("shed", m.queries_shed),
    ] {
        let _ = writeln!(out, "perm_queries_total{{outcome=\"{outcome}\"}} {value}");
    }
    prom_metric(
        &mut out,
        "perm_rows_streamed_total",
        "counter",
        "Result rows streamed to clients.",
        m.rows_streamed,
    );
    prom_metric(
        &mut out,
        "perm_bytes_streamed_total",
        "counter",
        "Result bytes (chunk payload) streamed to clients.",
        m.bytes_streamed,
    );
    let _ = writeln!(out, "# HELP perm_query_latency_seconds Query wall-clock latency.");
    let _ = writeln!(out, "# TYPE perm_query_latency_seconds histogram");
    let mut cumulative = 0u64;
    for (i, count) in m.latency.buckets.iter().enumerate() {
        cumulative += count;
        match m.latency.bounds.get(i) {
            Some(bound) => {
                let _ = writeln!(
                    out,
                    "perm_query_latency_seconds_bucket{{le=\"{}\"}} {cumulative}",
                    bound / 1000.0
                );
            }
            None => {
                let _ =
                    writeln!(out, "perm_query_latency_seconds_bucket{{le=\"+Inf\"}} {cumulative}");
            }
        }
    }
    let _ = writeln!(out, "perm_query_latency_seconds_sum {}", m.latency.sum_ms / 1000.0);
    let _ = writeln!(out, "perm_query_latency_seconds_count {}", m.latency.count);
    prom_metric(
        &mut out,
        "perm_plan_cache_hits_total",
        "counter",
        "Plan-cache lookups that returned a cached plan.",
        snap.cache.hits,
    );
    prom_metric(
        &mut out,
        "perm_plan_cache_misses_total",
        "counter",
        "Plan-cache lookups that found nothing (or a stale entry).",
        snap.cache.misses,
    );
    prom_metric(
        &mut out,
        "perm_plan_cache_invalidations_total",
        "counter",
        "Cached plans dropped because the catalog version moved past them.",
        snap.cache.invalidations,
    );
    prom_metric(
        &mut out,
        "perm_plan_cache_entries",
        "gauge",
        "Plans currently cached.",
        snap.cache.entries,
    );
    prom_metric(
        &mut out,
        "perm_governor_active_queries",
        "gauge",
        "Statements registered with the governor.",
        snap.governor.active_queries,
    );
    prom_metric(
        &mut out,
        "perm_governor_reserved_bytes",
        "gauge",
        "Bytes reserved across all registered statements.",
        snap.governor.reserved_bytes,
    );
    prom_metric(
        &mut out,
        "perm_governor_admitted_total",
        "counter",
        "Statements admitted by the governor since startup.",
        snap.governor.admitted,
    );
    prom_metric(
        &mut out,
        "perm_governor_shed_total",
        "counter",
        "Statements shed under engine-wide memory pressure.",
        snap.governor.shed_queries,
    );
    prom_metric(
        &mut out,
        "perm_stream_buffered_bytes",
        "gauge",
        "Bytes buffered in streaming result channels.",
        snap.stream_buffered,
    );
    prom_metric(
        &mut out,
        "perm_optimizer_joins_reordered_total",
        "counter",
        "Join regions reordered by the cost-based optimizer.",
        m.plans_reordered,
    );
    prom_metric(
        &mut out,
        "perm_optimizer_build_swaps_total",
        "counter",
        "Hash-join build sides swapped to the estimated-smaller input.",
        m.build_sides_swapped,
    );
    prom_metric(
        &mut out,
        "perm_optimizer_estimator_calls_total",
        "counter",
        "Plan nodes the cardinality estimator was asked about.",
        m.estimator_invocations,
    );
    if !snap.tables.is_empty() {
        let _ = writeln!(out, "# HELP perm_table_rows Rows stored per base table.");
        let _ = writeln!(out, "# TYPE perm_table_rows gauge");
        for t in &snap.tables {
            let _ = writeln!(out, "perm_table_rows{{table=\"{}\"}} {}", t.name, t.rows);
        }
        let _ = writeln!(out, "# HELP perm_table_bytes Resident bytes of each table's chunks.");
        let _ = writeln!(out, "# TYPE perm_table_bytes gauge");
        for t in &snap.tables {
            let _ = writeln!(out, "perm_table_bytes{{table=\"{}\"}} {}", t.name, t.bytes);
        }
        let _ = writeln!(
            out,
            "# HELP perm_table_stats_version Catalog version of each table's last mutation \
             (the version its statistics describe)."
        );
        let _ = writeln!(out, "# TYPE perm_table_stats_version gauge");
        for t in &snap.tables {
            let _ = writeln!(
                out,
                "perm_table_stats_version{{table=\"{}\"}} {}",
                t.name, t.modified_version
            );
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

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let metrics = Arc::new(Metrics::new());
        let mut t = metrics.start_query("SELECT 1", None);
        t.finish(QueryOutcome::Ok, 3);
        let snap = StatsSnapshot {
            cache: CacheStats::default(),
            governor: GovernorStats {
                active_queries: 0,
                reserved_bytes: 0,
                admitted: 1,
                shed_queries: 0,
            },
            stream_buffered: 0,
            metrics: metrics.snapshot(),
            tables: vec![TableInfo {
                name: "r".to_string(),
                rows: 42,
                bytes: 336,
                modified_version: 3,
            }],
        };
        let text = render_prometheus(&snap);
        assert!(text.contains("# TYPE perm_queries_total counter"));
        assert!(text.contains("perm_queries_total{outcome=\"ok\"} 1"));
        assert!(text.contains("perm_query_latency_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("perm_query_latency_seconds_count 1"));
        assert!(text.contains("perm_governor_admitted_total 1"));
        // Every non-comment line is `name{labels} value` or `name value` with a numeric value.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("metric line has a value");
            assert!(value.parse::<f64>().is_ok(), "non-numeric value in line: {line}");
        }
        assert!(text.contains("perm_optimizer_joins_reordered_total 0"));
        assert!(text.contains("perm_table_rows{table=\"r\"} 42"));
        assert!(text.contains("perm_table_bytes{table=\"r\"} 336"));
        assert!(text.contains("perm_table_stats_version{table=\"r\"} 3"));
        let stats = render_stats_text(&snap, 8);
        assert!(stats.contains("plan_cache hits=0"));
        assert!(stats.contains("queries active=0 ok=1"));
        assert!(stats.contains("optimizer reordered=0 build_swaps=0 estimator_calls=0"));
        assert!(stats.contains("table r rows=42 bytes=336 stats_version=3"));
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

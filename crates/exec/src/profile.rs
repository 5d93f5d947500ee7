//! Per-query operator instrumentation: the machinery behind `EXPLAIN ANALYZE`.
//!
//! Perm computes provenance by *query rewrite* (paper rules R5–R9), so the only way to see
//! where a provenance query spends its time is to instrument the rewritten plan itself — the
//! join stack the rewrite produced, not the query the user typed. A [`ProfileSink`] is built
//! from the optimized [`LogicalPlan`] by a pre-order walk and attached to the executor through
//! `ExecOptions::with_profile`; the engine then records per-operator wall time, output rows,
//! chunks and peak buffered bytes into it.
//!
//! Attribution is by **node identity**: plan nodes live behind `Arc`s inside the prepared
//! plan, so their addresses are stable for the lifetime of a query, and the sink maps each
//! node's address to a slot. Operators the executor fuses away (a `Selection` absorbed into
//! the projection above it, for example) are never looked up and render as `(fused into parent)` — the
//! annotated tree is honest about what actually ran.
//!
//! Recording is deliberately off the per-row hot path: the engine bumps the atomics once per
//! operator, never per row, and a query that does not profile pays only one `Option` check
//! per operator.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use perm_algebra::LogicalPlan;

use crate::stats::{Estimator, TableStatsView};

/// Per-operator accumulators. All increments are relaxed: slots are only read after the query
/// finished (or for a monotone snapshot), never for synchronization.
#[derive(Debug, Default)]
struct NodeStats {
    /// Wall time spent in this operator, inclusive of its children (nanoseconds).
    nanos: AtomicU64,
    /// Rows this operator produced.
    rows_out: AtomicU64,
    /// Chunks this operator produced.
    chunks: AtomicU64,
    /// Peak bytes this operator held materialized (join build sides, sort buffers).
    buffered_bytes: AtomicU64,
    /// Whether the executor ever touched this slot (false = fused away or never reached).
    touched: AtomicBool,
}

#[derive(Debug)]
struct NodeSlot {
    label: String,
    depth: usize,
    /// The optimizer's estimated output rows for this operator, when statistics were
    /// available at planning time (rendered as `est_rows=` next to the actuals).
    est_rows: Option<u64>,
    stats: NodeStats,
}

/// The per-query collection point for operator actuals; see the module docs.
#[derive(Debug)]
pub struct ProfileSink {
    nodes: Vec<NodeSlot>,
    /// Plan-node address → slot index.
    index: HashMap<usize, usize>,
}

fn node_key(plan: &LogicalPlan) -> usize {
    std::ptr::from_ref(plan) as usize
}

impl ProfileSink {
    /// Build a sink for `plan` by a pre-order walk; one slot per operator, parents first.
    pub fn new(plan: &LogicalPlan) -> ProfileSink {
        let mut sink = ProfileSink { nodes: Vec::new(), index: HashMap::new() };
        sink.walk(plan, 0);
        sink
    }

    fn walk(&mut self, plan: &LogicalPlan, depth: usize) {
        let idx = self.nodes.len();
        self.nodes.push(NodeSlot {
            label: plan.describe(),
            depth,
            est_rows: None,
            stats: NodeStats::default(),
        });
        self.index.insert(node_key(plan), idx);
        for child in plan.children() {
            self.walk(child, depth + 1);
        }
    }

    /// Annotate every slot with the cardinality estimator's predicted output rows, so the
    /// rendered profile shows estimate vs. actual per operator (mis-estimation made visible).
    /// Must be called with the same plan the sink was built from, before execution starts.
    pub fn annotate_estimates(&mut self, plan: &LogicalPlan, stats: &TableStatsView) {
        let estimator = Estimator::new(stats);
        self.annotate_node(plan, &estimator);
    }

    fn annotate_node(&mut self, plan: &LogicalPlan, estimator: &Estimator<'_>) {
        if let Some(idx) = self.index.get(&node_key(plan)).copied() {
            let est = estimator.estimate(plan);
            if let Some(slot) = self.nodes.get_mut(idx) {
                slot.est_rows = Some(est.rows.round() as u64);
            }
        }
        for child in plan.children() {
            self.annotate_node(child, estimator);
        }
    }

    /// The slot for `plan`, or `None` for a node this sink was not built from (e.g. a rewritten
    /// sub-plan constructed after planning).
    pub fn op(&self, plan: &LogicalPlan) -> Option<usize> {
        self.index.get(&node_key(plan)).copied()
    }

    /// Add `nanos` of wall time to slot `idx` (inclusive of children).
    pub fn add_nanos(&self, idx: usize, nanos: u64) {
        if let Some(slot) = self.nodes.get(idx) {
            slot.stats.nanos.fetch_add(nanos, Ordering::Relaxed);
            slot.stats.touched.store(true, Ordering::Relaxed);
        }
    }

    /// Add `rows` produced across `chunks` output chunks to slot `idx`.
    pub fn add_output(&self, idx: usize, rows: u64, chunks: u64) {
        if let Some(slot) = self.nodes.get(idx) {
            slot.stats.rows_out.fetch_add(rows, Ordering::Relaxed);
            slot.stats.chunks.fetch_add(chunks, Ordering::Relaxed);
            slot.stats.touched.store(true, Ordering::Relaxed);
        }
    }

    /// Record that slot `idx` held `bytes` materialized; keeps the maximum observed.
    pub fn record_buffered(&self, idx: usize, bytes: u64) {
        if let Some(slot) = self.nodes.get(idx) {
            slot.stats.buffered_bytes.fetch_max(bytes, Ordering::Relaxed);
            slot.stats.touched.store(true, Ordering::Relaxed);
        }
    }

    /// Snapshot the accumulated actuals into an immutable [`QueryProfile`].
    pub fn snapshot(&self) -> QueryProfile {
        QueryProfile {
            ops: self
                .nodes
                .iter()
                .map(|slot| OpProfile {
                    label: slot.label.clone(),
                    depth: slot.depth,
                    est_rows: slot.est_rows,
                    nanos: slot.stats.nanos.load(Ordering::Relaxed),
                    rows_out: slot.stats.rows_out.load(Ordering::Relaxed),
                    chunks: slot.stats.chunks.load(Ordering::Relaxed),
                    buffered_bytes: slot.stats.buffered_bytes.load(Ordering::Relaxed),
                    touched: slot.stats.touched.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

/// One operator's recorded actuals inside a [`QueryProfile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpProfile {
    /// One-line operator description (from [`LogicalPlan::describe`]).
    pub label: String,
    /// Depth in the plan tree (root = 0); drives the indented rendering.
    pub depth: usize,
    /// The optimizer's estimated output rows (None when no statistics were available).
    pub est_rows: Option<u64>,
    /// Wall time in this operator, inclusive of its children (nanoseconds).
    pub nanos: u64,
    /// Rows the operator produced.
    pub rows_out: u64,
    /// Chunks the operator produced.
    pub chunks: u64,
    /// Peak bytes the operator held materialized (0 for streaming operators).
    pub buffered_bytes: u64,
    /// Whether the executor touched this operator (false = fused into its parent).
    pub touched: bool,
}

/// An immutable per-query profile: the plan tree annotated with execution actuals.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryProfile {
    /// Operators in pre-order (parents before children).
    pub ops: Vec<OpProfile>,
}

impl QueryProfile {
    /// Rows produced by the root operator — the query's result row count.
    pub fn root_rows(&self) -> u64 {
        self.ops.first().map(|op| op.rows_out).unwrap_or(0)
    }

    /// Render the annotated plan tree, one operator per line, 2-space indented per depth.
    ///
    /// Times are inclusive of children (an operator's time covers the sub-tree below it), so
    /// the root line accounts for the whole execution.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for op in &self.ops {
            for _ in 0..op.depth {
                out.push_str("  ");
            }
            out.push_str(&op.label);
            if let Some(est) = op.est_rows {
                let _ = write!(out, "  (est_rows={est})");
            }
            if op.touched {
                let _ = write!(
                    out,
                    "  (actual: time={} rows={} chunks={}",
                    format_nanos(op.nanos),
                    op.rows_out,
                    op.chunks
                );
                if op.buffered_bytes > 0 {
                    let _ = write!(out, " peak_mem={}B", op.buffered_bytes);
                }
                out.push(')');
            } else {
                out.push_str("  (fused into parent)");
            }
            out.push('\n');
        }
        out
    }
}

/// Format a nanosecond duration with a human unit (`421ns`, `1.234ms`, `2.500s`).
fn format_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.3}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.3}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.1}us", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_algebra::{LogicalPlan, Schema};
    use std::sync::Arc;

    fn base(name: &str) -> Arc<LogicalPlan> {
        Arc::new(LogicalPlan::BaseRelation {
            name: name.into(),
            alias: None,
            schema: Schema::empty(),
            ref_id: 0,
        })
    }

    #[test]
    fn walk_indexes_every_node_and_records() {
        let left = base("l");
        let right = base("r");
        let plan = LogicalPlan::SetOp {
            left: left.clone(),
            right: right.clone(),
            kind: perm_algebra::SetOpKind::Union,
            semantics: perm_algebra::SetSemantics::Bag,
        };
        let sink = ProfileSink::new(&plan);
        let root = sink.op(&plan).unwrap();
        let l = sink.op(&left).unwrap();
        let r = sink.op(&right).unwrap();
        assert_eq!(root, 0);
        assert_ne!(l, r);
        sink.add_output(root, 10, 2);
        sink.add_nanos(root, 1500);
        sink.record_buffered(l, 64);
        sink.record_buffered(l, 32); // max keeps 64
        let profile = sink.snapshot();
        assert_eq!(profile.root_rows(), 10);
        assert_eq!(profile.ops.len(), 3);
        assert_eq!(profile.ops[l].buffered_bytes, 64);
        assert!(!profile.ops[r].touched);
        let rendered = profile.render();
        assert!(rendered.contains("rows=10"), "{rendered}");
        assert!(rendered.contains("(fused into parent)"), "{rendered}");
        assert!(rendered.contains("peak_mem=64B"), "{rendered}");
    }

    #[test]
    fn nanos_formatting() {
        assert_eq!(format_nanos(421), "421ns");
        assert_eq!(format_nanos(1_500), "1.5us");
        assert_eq!(format_nanos(1_234_000), "1.234ms");
        assert_eq!(format_nanos(2_500_000_000), "2.500s");
    }
}

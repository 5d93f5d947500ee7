//! Cardinality estimation and the cost model behind join reordering.
//!
//! The estimator walks a [`LogicalPlan`] bottom-up and produces a [`PlanEstimate`] per node:
//! an expected row count plus per-output-column detail (distinct count, null fraction,
//! min/max bounds) derived from the base-table statistics collected in `perm-storage`
//! ([`perm_storage::TableStats`]). Selectivities follow the classical System-R recipe:
//! `1/ndv` for equality, linear interpolation against min/max for ranges, independence for
//! AND, inclusion–exclusion for OR. Join output size for an equi-join is
//! `|L|·|R| / max(ndv_L, ndv_R)` per key column.
//!
//! The cost model mirrors the physical reality of `vector.rs`: hash joins build a table on
//! the **right** input (insert + factorized gather state, the expensive side) and probe with
//! the left input chunk-at-a-time, so `cost = BUILD·|R| + PROBE·|L| + OUT·|out|`. These
//! constants only need to get the *ordering* of candidate plans right, not absolute times.
//!
//! Estimates never influence results, only plan shape — every reordered plan stays
//! bit-identical to the reference pipeline (enforced by the differential suite).

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

use perm_algebra::{
    BinaryOperator, JoinKind, LogicalPlan, ScalarExpr, SetOpKind, SetSemantics, UnaryOperator,
    Value,
};
use perm_storage::{CatalogSnapshot, TableStats};

/// Rows assumed for a base relation with no statistics (never-analyzed or detached plans).
pub const DEFAULT_TABLE_ROWS: f64 = 1000.0;
/// Fallback selectivity for predicates the estimator cannot decompose.
const DEFAULT_SELECTIVITY: f64 = 0.25;
/// Fallback selectivity for range comparisons without usable bounds (System R's 1/3).
const DEFAULT_RANGE_SELECTIVITY: f64 = 1.0 / 3.0;
/// Selectivity assumed for `LIKE` patterns.
const LIKE_SELECTIVITY: f64 = 0.1;

/// Per-row cost of building a hash table (insert + owned key + factorized gather state).
const BUILD_COST_PER_ROW: f64 = 2.0;
/// Per-row cost of probing (hash + chunk-local gather).
const PROBE_COST_PER_ROW: f64 = 1.0;
/// Per-row cost of materializing join output.
const OUTPUT_COST_PER_ROW: f64 = 0.3;

/// An immutable name → statistics map snapshot used for one optimization run.
///
/// Built from a [`CatalogSnapshot`] so the estimates are consistent with the relation
/// versions the plan will execute against (the plan cache keys on the same catalog version).
#[derive(Debug, Default, Clone)]
pub struct TableStatsView {
    tables: HashMap<String, Arc<TableStats>>,
}

impl TableStatsView {
    /// A view with no statistics: every base relation falls back to defaults, and the
    /// optimizer behaves exactly as it did before cost-based planning existed.
    pub fn empty() -> TableStatsView {
        TableStatsView::default()
    }

    /// Collect statistics for every table in a catalog snapshot.
    pub fn from_snapshot(snapshot: &CatalogSnapshot) -> TableStatsView {
        let mut tables = HashMap::new();
        for (name, relation) in snapshot.iter() {
            tables.insert(name.to_ascii_lowercase(), relation.stats());
        }
        TableStatsView { tables }
    }

    /// Register statistics for one table (tests and manual construction).
    pub fn insert(&mut self, name: impl Into<String>, stats: Arc<TableStats>) {
        self.tables.insert(name.into().to_ascii_lowercase(), stats);
    }

    /// Statistics for `name`, if collected.
    pub fn get(&self, name: &str) -> Option<&Arc<TableStats>> {
        self.tables.get(&name.to_ascii_lowercase())
    }

    /// Does this view hold no statistics at all?
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

/// Estimated properties of one output column of a plan node.
#[derive(Debug, Clone)]
pub struct ColumnEstimate {
    /// Estimated number of distinct non-NULL values.
    pub distinct: f64,
    /// Estimated fraction of rows that are NULL in this column.
    pub null_fraction: f64,
    /// Smallest value, when known from base-table stats and still meaningful.
    pub min: Option<Value>,
    /// Largest value, when known.
    pub max: Option<Value>,
}

impl ColumnEstimate {
    /// A column we know nothing about: every row distinct, no NULLs, no bounds.
    fn opaque(rows: f64) -> ColumnEstimate {
        ColumnEstimate { distinct: rows.max(1.0), null_fraction: 0.0, min: None, max: None }
    }

    /// Cap the distinct count at a new (smaller) row count.
    fn capped(&self, rows: f64) -> ColumnEstimate {
        ColumnEstimate { distinct: self.distinct.min(rows.max(1.0)), ..self.clone() }
    }
}

/// Estimated properties of a whole plan node: row count plus per-column detail.
#[derive(Debug, Clone)]
pub struct PlanEstimate {
    /// Expected number of output rows.
    pub rows: f64,
    /// Per-output-column estimates, in schema order.
    pub columns: Vec<ColumnEstimate>,
}

impl PlanEstimate {
    fn new(rows: f64, columns: Vec<ColumnEstimate>) -> PlanEstimate {
        PlanEstimate { rows: rows.max(0.0), columns }
    }

    /// Re-cap all column distinct counts after the row count shrank.
    fn with_rows(&self, rows: f64) -> PlanEstimate {
        let rows = rows.max(0.0);
        PlanEstimate { rows, columns: self.columns.iter().map(|c| c.capped(rows)).collect() }
    }
}

/// Cost of one hash join given input and output cardinalities.
///
/// `vector.rs` builds on the right input and probes with the left, so the right side carries
/// the heavier per-row constant; output materialization is cheap but not free (it is what
/// makes the DP prefer orders with small intermediate results).
pub fn join_cost(left_rows: f64, right_rows: f64, out_rows: f64) -> f64 {
    BUILD_COST_PER_ROW * right_rows
        + PROBE_COST_PER_ROW * left_rows
        + OUTPUT_COST_PER_ROW * out_rows
}

/// The cardinality estimator: stateless apart from an invocation counter surfaced in metrics.
pub struct Estimator<'a> {
    stats: &'a TableStatsView,
    invocations: Cell<u64>,
}

impl<'a> Estimator<'a> {
    /// Create an estimator over a statistics view.
    pub fn new(stats: &'a TableStatsView) -> Estimator<'a> {
        Estimator { stats, invocations: Cell::new(0) }
    }

    /// How many nodes were estimated through this estimator (metrics counter).
    pub fn invocations(&self) -> u64 {
        self.invocations.get()
    }

    /// Estimate the output of `plan` bottom-up.
    pub fn estimate(&self, plan: &LogicalPlan) -> PlanEstimate {
        self.invocations.set(self.invocations.get() + 1);
        match plan {
            LogicalPlan::BaseRelation { name, schema, .. } => match self.stats.get(name) {
                Some(stats) => {
                    let rows = stats.row_count as f64;
                    let columns = (0..schema.arity())
                        .map(|i| match stats.column(i) {
                            Some(c) => ColumnEstimate {
                                distinct: (c.distinct as f64).max(if rows > 0.0 {
                                    1.0
                                } else {
                                    0.0
                                }),
                                null_fraction: if rows > 0.0 {
                                    c.null_count as f64 / rows
                                } else {
                                    0.0
                                },
                                min: c.min.clone(),
                                max: c.max.clone(),
                            },
                            None => ColumnEstimate::opaque(rows),
                        })
                        .collect();
                    PlanEstimate::new(rows, columns)
                }
                None => PlanEstimate::new(
                    DEFAULT_TABLE_ROWS,
                    (0..schema.arity())
                        .map(|_| ColumnEstimate::opaque(DEFAULT_TABLE_ROWS))
                        .collect(),
                ),
            },
            LogicalPlan::Values { schema, rows } => {
                let n = rows.len() as f64;
                PlanEstimate::new(
                    n,
                    (0..schema.arity()).map(|_| ColumnEstimate::opaque(n)).collect(),
                )
            }
            LogicalPlan::Selection { input, predicate } => {
                let base = self.estimate(input);
                let sel = self.selectivity(predicate, &base);
                base.with_rows(base.rows * sel)
            }
            LogicalPlan::Projection { input, exprs, distinct } => {
                let base = self.estimate(input);
                let columns: Vec<ColumnEstimate> = exprs
                    .iter()
                    .map(|(e, _)| match e.as_column() {
                        Some(i) if i < base.columns.len() => base.columns[i].clone(),
                        _ => ColumnEstimate::opaque(base.rows),
                    })
                    .collect();
                let rows = if *distinct { group_count(&columns, base.rows) } else { base.rows };
                PlanEstimate::new(rows, columns).with_rows(rows)
            }
            LogicalPlan::Join { left, right, kind, condition } => {
                let l = self.estimate(left);
                let r = self.estimate(right);
                self.estimate_join(&l, &r, *kind, condition.as_ref())
            }
            LogicalPlan::Aggregation { input, group_by, aggregates } => {
                let base = self.estimate(input);
                let mut columns: Vec<ColumnEstimate> = group_by
                    .iter()
                    .map(|(e, _)| match e.as_column() {
                        Some(i) if i < base.columns.len() => base.columns[i].clone(),
                        _ => ColumnEstimate::opaque(base.rows),
                    })
                    .collect();
                let rows = if group_by.is_empty() { 1.0 } else { group_count(&columns, base.rows) };
                columns.extend((0..aggregates.len()).map(|_| ColumnEstimate::opaque(rows)));
                PlanEstimate::new(rows, columns).with_rows(rows)
            }
            LogicalPlan::SetOp { left, right, kind, semantics } => {
                let l = self.estimate(left);
                let r = self.estimate(right);
                let rows = match kind {
                    SetOpKind::Union => l.rows + r.rows,
                    SetOpKind::Intersect => l.rows.min(r.rows),
                    SetOpKind::Difference => l.rows,
                };
                let rows = match semantics {
                    // Set semantics can only shrink the bag-semantics answer further; halving
                    // is the traditional guess absent distinct-count info across both sides.
                    SetSemantics::Set => (rows / 2.0).max(1.0_f64.min(rows)),
                    SetSemantics::Bag => rows,
                };
                l.with_rows(rows)
            }
            LogicalPlan::Sort { input, .. } => self.estimate(input),
            LogicalPlan::Limit { input, limit, offset } => {
                let base = self.estimate(input);
                let available = (base.rows - *offset as f64).max(0.0);
                let rows = match limit {
                    Some(n) => available.min(*n as f64),
                    None => available,
                };
                base.with_rows(rows)
            }
            LogicalPlan::SubqueryAlias { input, .. }
            | LogicalPlan::ProvenanceAnnotation { input, .. } => self.estimate(input),
        }
    }

    /// Estimate a join given already-estimated inputs. Public so the reordering pass can
    /// cost candidate joins without materializing plan nodes.
    pub fn estimate_join(
        &self,
        left: &PlanEstimate,
        right: &PlanEstimate,
        kind: JoinKind,
        condition: Option<&ScalarExpr>,
    ) -> PlanEstimate {
        // The join condition sees the concatenated schema, so selectivity estimation over the
        // concatenated column estimates is exactly filter estimation on the cross product.
        let combined = PlanEstimate::new(
            left.rows * right.rows,
            left.columns.iter().chain(right.columns.iter()).cloned().collect(),
        );
        let matched = match condition {
            Some(c) => combined.rows * self.selectivity(c, &combined),
            None => combined.rows,
        };
        let rows = match kind {
            JoinKind::Inner | JoinKind::Cross => matched,
            // Outer joins preserve every row of the outer side(s) at minimum.
            JoinKind::LeftOuter => matched.max(left.rows),
            JoinKind::RightOuter => matched.max(right.rows),
            JoinKind::FullOuter => matched.max(left.rows).max(right.rows),
        };
        combined.with_rows(rows)
    }

    /// Fraction of `input` rows expected to satisfy `predicate`, clamped to `[0, 1]`.
    pub fn selectivity(&self, predicate: &ScalarExpr, input: &PlanEstimate) -> f64 {
        self.selectivity_inner(predicate, input).clamp(0.0, 1.0)
    }

    fn selectivity_inner(&self, predicate: &ScalarExpr, input: &PlanEstimate) -> f64 {
        match predicate {
            ScalarExpr::Literal(Value::Bool(true)) => 1.0,
            ScalarExpr::Literal(Value::Bool(false)) | ScalarExpr::Literal(Value::Null) => 0.0,
            ScalarExpr::BinaryOp { op: BinaryOperator::And, left, right } => {
                self.selectivity(left, input) * self.selectivity(right, input)
            }
            ScalarExpr::BinaryOp { op: BinaryOperator::Or, left, right } => {
                let a = self.selectivity(left, input);
                let b = self.selectivity(right, input);
                a + b - a * b
            }
            ScalarExpr::UnaryOp { op: UnaryOperator::Not, expr } => {
                1.0 - self.selectivity(expr, input)
            }
            ScalarExpr::UnaryOp { op: UnaryOperator::IsNull, expr } => match expr.as_column() {
                Some(i) => column(input, i).map_or(DEFAULT_SELECTIVITY, |c| c.null_fraction),
                None => DEFAULT_SELECTIVITY,
            },
            ScalarExpr::UnaryOp { op: UnaryOperator::IsNotNull, expr } => match expr.as_column() {
                Some(i) => column(input, i).map_or(DEFAULT_SELECTIVITY, |c| 1.0 - c.null_fraction),
                None => DEFAULT_SELECTIVITY,
            },
            ScalarExpr::BinaryOp { op, left, right } if op.is_comparison() => {
                self.comparison_selectivity(*op, left, right, input)
            }
            ScalarExpr::BinaryOp { op: BinaryOperator::Like, .. } => LIKE_SELECTIVITY,
            ScalarExpr::BinaryOp { op: BinaryOperator::NotLike, .. } => 1.0 - LIKE_SELECTIVITY,
            _ => DEFAULT_SELECTIVITY,
        }
    }

    fn comparison_selectivity(
        &self,
        op: BinaryOperator,
        left: &ScalarExpr,
        right: &ScalarExpr,
        input: &PlanEstimate,
    ) -> f64 {
        // Column vs column: equality through distinct counts, ranges get the flat default.
        if let (Some(a), Some(b)) = (left.as_column(), right.as_column()) {
            let (da, db) = match (column(input, a), column(input, b)) {
                (Some(ca), Some(cb)) => (ca.distinct.max(1.0), cb.distinct.max(1.0)),
                _ => return DEFAULT_SELECTIVITY,
            };
            return match op {
                BinaryOperator::Eq | BinaryOperator::IsNotDistinctFrom => 1.0 / da.max(db),
                BinaryOperator::NotEq | BinaryOperator::IsDistinctFrom => 1.0 - 1.0 / da.max(db),
                _ => DEFAULT_RANGE_SELECTIVITY,
            };
        }
        // Column vs literal (either order; flip the operator when the literal is on the left).
        let (col, lit, op) = match (left.as_column(), as_literal(right)) {
            (Some(c), Some(v)) => (c, v, op),
            _ => match (as_literal(left), right.as_column()) {
                (Some(v), Some(c)) => (c, v, flip(op)),
                _ => return default_for(op),
            },
        };
        let Some(stats) = column(input, col) else { return default_for(op) };
        let ndv = stats.distinct.max(1.0);
        match op {
            BinaryOperator::Eq | BinaryOperator::IsNotDistinctFrom => {
                if out_of_bounds(stats, lit) {
                    0.0
                } else {
                    1.0 / ndv
                }
            }
            BinaryOperator::NotEq | BinaryOperator::IsDistinctFrom => 1.0 - 1.0 / ndv,
            BinaryOperator::Lt
            | BinaryOperator::LtEq
            | BinaryOperator::Gt
            | BinaryOperator::GtEq => range_selectivity(stats, op, lit),
            _ => default_for(op),
        }
    }
}

/// The literal value of an expression, when it is a plain literal.
fn as_literal(expr: &ScalarExpr) -> Option<&Value> {
    match expr {
        ScalarExpr::Literal(v) if !v.is_null() => Some(v),
        _ => None,
    }
}

fn column(input: &PlanEstimate, index: usize) -> Option<&ColumnEstimate> {
    input.columns.get(index)
}

/// Mirror a comparison so the column ends up on the left (`5 < x` ⇒ `x > 5`).
fn flip(op: BinaryOperator) -> BinaryOperator {
    match op {
        BinaryOperator::Lt => BinaryOperator::Gt,
        BinaryOperator::LtEq => BinaryOperator::GtEq,
        BinaryOperator::Gt => BinaryOperator::Lt,
        BinaryOperator::GtEq => BinaryOperator::LtEq,
        other => other,
    }
}

fn default_for(op: BinaryOperator) -> f64 {
    match op {
        BinaryOperator::Eq | BinaryOperator::IsNotDistinctFrom => 0.05,
        BinaryOperator::NotEq | BinaryOperator::IsDistinctFrom => 0.95,
        BinaryOperator::Lt | BinaryOperator::LtEq | BinaryOperator::Gt | BinaryOperator::GtEq => {
            DEFAULT_RANGE_SELECTIVITY
        }
        _ => DEFAULT_SELECTIVITY,
    }
}

/// Is `lit` provably outside the column's `[min, max]`?
fn out_of_bounds(stats: &ColumnEstimate, lit: &Value) -> bool {
    use std::cmp::Ordering;
    if let Some(min) = &stats.min {
        if lit.sql_cmp(min) == Some(Ordering::Less) {
            return true;
        }
    }
    if let Some(max) = &stats.max {
        if lit.sql_cmp(max) == Some(Ordering::Greater) {
            return true;
        }
    }
    false
}

/// Selectivity of `col <op> lit` by linear interpolation between min and max.
fn range_selectivity(stats: &ColumnEstimate, op: BinaryOperator, lit: &Value) -> f64 {
    let (Some(min), Some(max), Some(v)) =
        (stats.min.as_ref().and_then(numeric), stats.max.as_ref().and_then(numeric), numeric(lit))
    else {
        return DEFAULT_RANGE_SELECTIVITY;
    };
    if max <= min {
        // Single-point column: the comparison either keeps everything or nothing.
        let keep = match op {
            BinaryOperator::Lt => min < v,
            BinaryOperator::LtEq => min <= v,
            BinaryOperator::Gt => min > v,
            BinaryOperator::GtEq => min >= v,
            _ => return DEFAULT_RANGE_SELECTIVITY,
        };
        return if keep { 1.0 } else { 0.0 };
    }
    let below = ((v - min) / (max - min)).clamp(0.0, 1.0);
    match op {
        BinaryOperator::Lt | BinaryOperator::LtEq => below,
        BinaryOperator::Gt | BinaryOperator::GtEq => 1.0 - below,
        _ => DEFAULT_RANGE_SELECTIVITY,
    }
}

/// A numeric projection of a value for interpolation (dates interpolate by day number).
fn numeric(v: &Value) -> Option<f64> {
    match v {
        Value::Date(d) => Some(*d as f64),
        other => other.as_f64(),
    }
}

/// Expected number of groups when grouping `rows` rows by columns with the given estimates:
/// product of per-key distinct counts, capped at the row count.
fn group_count(keys: &[ColumnEstimate], rows: f64) -> f64 {
    if rows <= 0.0 {
        return 0.0;
    }
    let mut groups = 1.0_f64;
    for key in keys {
        groups = (groups * key.distinct.max(1.0)).min(rows);
    }
    groups.min(rows).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_algebra::{DataType, Schema};
    use perm_storage::ColumnStats;

    fn table(rows: u64, cols: Vec<ColumnStats>) -> Arc<TableStats> {
        Arc::new(TableStats { row_count: rows, columns: cols })
    }

    fn col(distinct: u64, nulls: u64, min: i64, max: i64) -> ColumnStats {
        ColumnStats {
            distinct,
            null_count: nulls,
            min: Some(Value::Int(min)),
            max: Some(Value::Int(max)),
        }
    }

    fn base(name: &str, cols: &[&str]) -> LogicalPlan {
        let pairs: Vec<(&str, DataType)> = cols.iter().map(|c| (*c, DataType::Int)).collect();
        LogicalPlan::BaseRelation {
            name: name.into(),
            alias: None,
            schema: Schema::from_pairs(&pairs),
            ref_id: 0,
        }
    }

    fn view() -> TableStatsView {
        let mut v = TableStatsView::empty();
        // r: 1000 rows, k has 100 distinct values 0..99, v has 1000 distinct.
        v.insert("r", table(1000, vec![col(100, 0, 0, 99), col(1000, 0, 0, 999)]));
        // s: 100 rows, k has 100 distinct values 0..99.
        v.insert("s", table(100, vec![col(100, 0, 0, 99), col(10, 0, 0, 9)]));
        v
    }

    #[test]
    fn base_relation_uses_stats_row_count() {
        let v = view();
        let est = Estimator::new(&v).estimate(&base("r", &["k", "v"]));
        assert_eq!(est.rows, 1000.0);
        assert_eq!(est.columns[0].distinct, 100.0);
    }

    #[test]
    fn missing_table_falls_back_to_default() {
        let v = TableStatsView::empty();
        let est = Estimator::new(&v).estimate(&base("nowhere", &["x"]));
        assert_eq!(est.rows, DEFAULT_TABLE_ROWS);
    }

    #[test]
    fn equality_selectivity_is_one_over_ndv() {
        let v = view();
        let plan = LogicalPlan::Selection {
            input: Arc::new(base("r", &["k", "v"])),
            predicate: ScalarExpr::column(0, "k").eq(ScalarExpr::Literal(Value::Int(5))),
        };
        let est = Estimator::new(&v).estimate(&plan);
        // 1000 rows * 1/100 = 10.
        assert!((est.rows - 10.0).abs() < 1e-9, "rows = {}", est.rows);
    }

    #[test]
    fn out_of_range_equality_estimates_zero() {
        let v = view();
        let plan = LogicalPlan::Selection {
            input: Arc::new(base("r", &["k", "v"])),
            predicate: ScalarExpr::column(0, "k").eq(ScalarExpr::Literal(Value::Int(5000))),
        };
        let est = Estimator::new(&v).estimate(&plan);
        assert_eq!(est.rows, 0.0);
    }

    #[test]
    fn range_selectivity_interpolates() {
        let v = view();
        // k < 25 over uniform 0..99 ⇒ ~25% of 1000 rows.
        let plan = LogicalPlan::Selection {
            input: Arc::new(base("r", &["k", "v"])),
            predicate: ScalarExpr::BinaryOp {
                op: BinaryOperator::Lt,
                left: Box::new(ScalarExpr::column(0, "k")),
                right: Box::new(ScalarExpr::Literal(Value::Int(25))),
            },
        };
        let est = Estimator::new(&v).estimate(&plan);
        assert!((est.rows - 252.5).abs() < 1.0, "rows = {}", est.rows);
    }

    #[test]
    fn conjunction_multiplies_disjunction_includes_excludes() {
        let v = view();
        let eq = |idx: usize, name: &str, val: i64| {
            ScalarExpr::column(idx, name).eq(ScalarExpr::Literal(Value::Int(val)))
        };
        let and_plan = LogicalPlan::Selection {
            input: Arc::new(base("r", &["k", "v"])),
            predicate: eq(0, "k", 5).and(eq(1, "v", 7)),
        };
        let est = Estimator::new(&v).estimate(&and_plan);
        // 1000 * (1/100) * (1/1000) = 0.01
        assert!((est.rows - 0.01).abs() < 1e-9, "rows = {}", est.rows);
        let or_plan = LogicalPlan::Selection {
            input: Arc::new(base("r", &["k", "v"])),
            predicate: eq(0, "k", 5).or(eq(1, "v", 7)),
        };
        let est = Estimator::new(&v).estimate(&or_plan);
        // 1000 * (0.01 + 0.001 - 0.00001) = 10.99
        assert!((est.rows - 10.99).abs() < 1e-6, "rows = {}", est.rows);
    }

    #[test]
    fn equi_join_divides_by_max_ndv() {
        let v = view();
        let join = LogicalPlan::Join {
            left: Arc::new(base("r", &["k", "v"])),
            right: Arc::new(base("s", &["k", "w"])),
            kind: JoinKind::Inner,
            condition: Some(ScalarExpr::column(0, "k").eq(ScalarExpr::column(2, "k"))),
        };
        let est = Estimator::new(&v).estimate(&join);
        // 1000 * 100 / max(100, 100) = 1000.
        assert!((est.rows - 1000.0).abs() < 1e-6, "rows = {}", est.rows);
    }

    #[test]
    fn left_outer_join_preserves_left_rows() {
        let v = view();
        let join = LogicalPlan::Join {
            left: Arc::new(base("r", &["k", "v"])),
            right: Arc::new(base("s", &["k", "w"])),
            kind: JoinKind::LeftOuter,
            // Impossible condition: inner estimate 0, but left rows survive.
            condition: Some(ScalarExpr::column(1, "v").eq(ScalarExpr::Literal(Value::Int(-5)))),
        };
        let est = Estimator::new(&v).estimate(&join);
        assert!(est.rows >= 1000.0, "rows = {}", est.rows);
    }

    #[test]
    fn aggregation_rows_bounded_by_group_key_distincts() {
        let v = view();
        let agg = LogicalPlan::Aggregation {
            input: Arc::new(base("r", &["k", "v"])),
            group_by: vec![(ScalarExpr::column(0, "k"), "k".into())],
            aggregates: vec![],
        };
        let est = Estimator::new(&v).estimate(&agg);
        assert_eq!(est.rows, 100.0);
        let global = LogicalPlan::Aggregation {
            input: Arc::new(base("r", &["k", "v"])),
            group_by: vec![],
            aggregates: vec![],
        };
        assert_eq!(Estimator::new(&v).estimate(&global).rows, 1.0);
    }

    #[test]
    fn limit_caps_rows() {
        let v = view();
        let plan = LogicalPlan::Limit {
            input: Arc::new(base("r", &["k", "v"])),
            limit: Some(7),
            offset: 0,
        };
        assert_eq!(Estimator::new(&v).estimate(&plan).rows, 7.0);
    }

    #[test]
    fn join_cost_prefers_small_build_side() {
        // Building on the small side must be cheaper than building on the big side.
        assert!(join_cost(1000.0, 10.0, 500.0) < join_cost(10.0, 1000.0, 500.0));
    }
}

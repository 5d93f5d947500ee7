//! Cost-based join reordering, build-side selection and sort placement.
//!
//! Joins arrive in the order the query text lists them, and the provenance rewrite keeps that
//! order: R4 rewrites a join into the bare join of its rewritten inputs, so a rewritten join
//! stack is one region like the plain query's, while R5–R9 add join-backs of their own. Join
//! order and build/probe roles are therefore whatever the text happened to say. This module is
//! the cost-based repair step: it runs *after* the rule-based normalization fixpoint (selections
//! pushed down, cross products converted to inner joins) and *before* column pruning.
//!
//! Three passes, in this order:
//!
//! * [`reorder_joins`] — flattens every maximal region of inner/cross joins into a join graph
//!   (leaves + conjuncts over the concatenated column space), searches join orders with
//!   dynamic programming over subsets (≤ [`DP_LEAF_LIMIT`] leaves) or a greedy nearest-
//!   neighbour heuristic above, and rebuilds a left-deep tree wrapped in a column-permutation
//!   projection so the region's output is positionally identical to the original. Outer
//!   joins, aggregations and set operations are region *barriers*: they become leaves and
//!   their own inputs are reordered independently.
//! * [`swap_build_sides`] — the vectorized and parallel hash joins always build on the
//!   **right** input; this pass flips a join whose right side is estimated larger than its
//!   left (outer-join kinds flip too: `A LEFT JOIN B` becomes a projected `B RIGHT JOIN A`),
//!   so the hash table is always built on the estimated-smaller side even when full
//!   reordering is disabled.
//! * [`push_down_sorts`] — an `ORDER BY` over a provenance result orders by q's own
//!   attributes, which the R5/R6 join-back copies unchanged from q's side; this pass moves
//!   such a sort below the join onto the input that probes, so it sorts q's rows before the
//!   join expands them (TPC-H Q11+: 156 rows, not 24 960). It runs with or without
//!   statistics. A join whose probe side is in sorted order emits in that order, so the first
//!   two passes leave such a join's inputs where they are.
//!
//! The passes change plan *shape* only — never results. The differential suite (reference vs
//! the engine at degrees 1/2/8) runs the same reordered plan; randomized join-graph tests
//! enforce it, and the sorts moved below joins are checked against the order of a sort above.

use std::cell::Cell;
use std::sync::Arc;

use perm_algebra::{JoinKind, LogicalPlan, ScalarExpr, SortKey};

use crate::error::ExecError;
use crate::optimizer::{project_onto, rebuild_children};
use crate::stats::{join_cost, Estimator, PlanEstimate};

/// Maximum number of region leaves for exhaustive DP; larger regions use the greedy search.
pub const DP_LEAF_LIMIT: usize = 8;

/// Largest region the reorderer will touch at all (bitmask representation).
const REGION_LEAF_LIMIT: usize = 32;

/// Thresholds gating the cost-based rewrites. Both passes pay real runtime costs — a
/// column-permutation projection on every output chunk — so a rewrite must promise a
/// *material* estimated win before it is applied; micro-queries otherwise regress on pure
/// plan churn. [`ReorderPolicy::aggressive`] applies every estimated win, however small
/// (the differential tests use it to maximize plan-shape coverage).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReorderPolicy {
    /// A region is only rebuilt when the new order's estimated cost is below
    /// `original_cost * improvement_factor`. Estimates are fuzzy: provenance join stacks
    /// that genuinely need repair predict orders-of-magnitude wins, while near-equal leaf
    /// chains predict a few percent either way, so the default demands a 2x estimated win ...
    pub improvement_factor: f64,
    /// ... and the rebuild saves at least this many estimated row-operations, so the win
    /// clears the runtime cost of the inserted permutation projection.
    pub min_saved_rows: f64,
    /// A build side is only swapped when the right input is estimated at least this many
    /// times larger than the left ...
    pub swap_ratio: f64,
    /// ... and the avoided hash table is at least this many estimated rows.
    pub swap_min_build_rows: f64,
}

impl Default for ReorderPolicy {
    fn default() -> ReorderPolicy {
        ReorderPolicy {
            improvement_factor: 0.5,
            min_saved_rows: 4096.0,
            swap_ratio: 1.2,
            swap_min_build_rows: 512.0,
        }
    }
}

impl ReorderPolicy {
    /// Apply every estimated win, however small.
    pub fn aggressive() -> ReorderPolicy {
        ReorderPolicy {
            improvement_factor: 1.0,
            min_saved_rows: 0.0,
            swap_ratio: 1.0,
            swap_min_build_rows: 0.0,
        }
    }
}

/// Counters describing what the cost-based passes did; surfaced in the metrics registry.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReorderReport {
    /// Join regions whose order was changed.
    pub joins_reordered: u64,
    /// Joins whose build (right) side was swapped to the estimated-smaller input.
    pub build_sides_swapped: u64,
    /// Sorts moved below a join onto its probe side.
    pub sorts_pushed: u64,
}

/// Reorder every maximal inner/cross join region in `plan` by estimated cost.
/// Returns `None` when nothing changed (so callers can share the original `Arc`s).
pub fn reorder_joins(
    plan: &LogicalPlan,
    estimator: &Estimator<'_>,
    policy: &ReorderPolicy,
    report: &mut ReorderReport,
) -> Result<Option<LogicalPlan>, ExecError> {
    let counter = Cell::new(0u64);
    let result = reorder_inner(plan, estimator, policy, &counter)?;
    report.joins_reordered += counter.get();
    Ok(result)
}

/// Flip every hash join whose right (build) side is estimated larger than its left (probe)
/// side, wrapping the flipped join in a projection that restores the original column order.
pub fn swap_build_sides(
    plan: &LogicalPlan,
    estimator: &Estimator<'_>,
    policy: &ReorderPolicy,
    report: &mut ReorderReport,
) -> Result<Option<LogicalPlan>, ExecError> {
    let counter = Cell::new(0u64);
    let result = swap_inner(plan, estimator, policy, &counter)?;
    report.build_sides_swapped += counter.get();
    Ok(result)
}

/// Move every `ORDER BY` whose keys are columns of one join input below that join, onto that
/// input as the probe side, and on down while the rule holds (see [`sink_sort`]).
pub fn push_down_sorts(
    plan: &LogicalPlan,
    estimator: &Estimator<'_>,
    report: &mut ReorderReport,
) -> Result<Option<LogicalPlan>, ExecError> {
    let counter = Cell::new(0u64);
    let result = push_sorts_inner(plan, estimator, &counter)?;
    report.sorts_pushed += counter.get();
    Ok(result)
}

fn push_sorts_inner(
    plan: &LogicalPlan,
    estimator: &Estimator<'_>,
    pushed: &Cell<u64>,
) -> Result<Option<LogicalPlan>, ExecError> {
    let rebuilt = rebuild_children(plan, &|c| push_sorts_inner(c, estimator, pushed))?;
    let current = rebuilt.as_ref().unwrap_or(plan);
    if let LogicalPlan::Sort { input, keys } = current {
        if let Some(moved) = sink_sort(input, keys, estimator)? {
            pushed.set(pushed.get() + 1);
            return Ok(Some(moved));
        }
    }
    Ok(rebuilt)
}

/// `Sort[keys](input)` with the sort moved below the join `input` reaches through renames
/// (non-DISTINCT projections, aliases, provenance annotations), or `None` when it stays. Every
/// key must be a plain column that the renames carry unchanged to one side of the join:
///
/// * left side of an inner, cross or left outer join: the left input is sorted;
/// * right side of an inner or cross join, or of a right outer join: the inputs swap (a right
///   outer join becomes a left outer one), so the sorted side probes — but only when the
///   sorted side is estimated no smaller than the other one;
/// * an inner join moves it only when its sorted side is estimated no larger than its output;
/// * keys on both sides, expression keys and full outer joins stay where they are.
///
/// The engine's join emits in probe order, each probe row's matches in build-row order, and the
/// sort is stable: sorting the probe side gives the rows the sort above the join gave, in the
/// same order, ties included. A swapped join emits ties in the sorted side's order instead —
/// a different order of equal keys, still the `ORDER BY` asked for. It also repeats each
/// sorted row over its matches, so every output chunk carries the matching rows of the side
/// that is now built as a dictionary of its own: a swap that would build the larger side (and
/// send it once per chunk) is not made.
fn sink_sort(
    input: &Arc<LogicalPlan>,
    keys: &[SortKey],
    estimator: &Estimator<'_>,
) -> Result<Option<LogicalPlan>, ExecError> {
    let mut columns: Vec<ScalarExpr> = keys.iter().map(|k| k.expr.clone()).collect();
    let mut renames: Vec<&LogicalPlan> = Vec::new();
    let mut node = input;
    let (left, right, kind, condition) = loop {
        if columns.iter().any(|c| c.as_column().is_none()) {
            return Ok(None);
        }
        match node.as_ref() {
            LogicalPlan::Projection { input, exprs, distinct: false } => {
                for column in &mut columns {
                    if let Some(i) = column.as_column() {
                        *column = exprs[i].0.clone();
                    }
                }
                renames.push(node);
                node = input;
            }
            LogicalPlan::SubqueryAlias { input, .. }
            | LogicalPlan::ProvenanceAnnotation { input, .. } => {
                renames.push(node);
                node = input;
            }
            LogicalPlan::Join { left, right, kind, condition } => {
                break (left, right, *kind, condition.as_ref())
            }
            _ => return Ok(None),
        }
    };
    let left_arity = left.output_arity();
    let used: Vec<usize> = columns.iter().filter_map(ScalarExpr::as_column).collect();
    let on_left = used.iter().all(|&c| c < left_arity);
    let on_right = used.iter().all(|&c| c >= left_arity);
    let (side, shift) = match kind {
        JoinKind::Inner | JoinKind::Cross | JoinKind::LeftOuter if on_left => (left, 0),
        JoinKind::Inner | JoinKind::Cross | JoinKind::RightOuter if on_right => (right, left_arity),
        _ => return Ok(None),
    };
    let side_rows = || estimator.estimate(side).rows;
    if kind == JoinKind::Inner && side_rows() > estimator.estimate(node).rows {
        return Ok(None);
    }
    if shift > 0 && side_rows() < estimator.estimate(left).rows {
        return Ok(None);
    }
    let side_keys: Vec<SortKey> = keys
        .iter()
        .zip(&columns)
        .map(|(k, c)| SortKey { expr: c.map_columns(&mut |i| i - shift), order: k.order })
        .collect();
    let sorted = Arc::new(match sink_sort(side, &side_keys, estimator)? {
        Some(moved) => moved,
        None => LogicalPlan::Sort { input: Arc::clone(side), keys: side_keys },
    });
    let mut plan = if shift == 0 {
        LogicalPlan::Join {
            left: sorted,
            right: Arc::clone(right),
            kind,
            condition: condition.cloned(),
        }
    } else {
        flipped_join(left, &sorted, kind, condition)
    };
    for rename in renames.into_iter().rev() {
        plan = rename.with_new_children(vec![Arc::new(plan)])?;
    }
    Ok(Some(plan))
}

/// Does `plan` emit its rows in the order of a sort — the sort itself, or a rename or the probe
/// side of an order-keeping join above one? Such an input must stay where it is.
fn carries_order(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::Sort { .. } => true,
        LogicalPlan::Projection { input, distinct: false, .. }
        | LogicalPlan::SubqueryAlias { input, .. }
        | LogicalPlan::ProvenanceAnnotation { input, .. }
        | LogicalPlan::Join {
            left: input,
            kind: JoinKind::Inner | JoinKind::Cross | JoinKind::LeftOuter,
            ..
        } => carries_order(input),
        _ => false,
    }
}

/// One conjunct of a join region, expressed over the concatenated leaf column space.
struct RegionConjunct {
    expr: ScalarExpr,
    /// Bitmask of the leaves whose columns the conjunct references.
    leaf_mask: u32,
    /// Estimated selectivity against the region-wide column estimates.
    selectivity: f64,
}

/// A maximal inner/cross join region flattened into a join graph.
struct JoinRegion {
    /// The leaf sub-plans in original left-to-right order.
    leaves: Vec<Arc<LogicalPlan>>,
    /// Global column offset of each leaf in the concatenated output.
    offsets: Vec<usize>,
    /// All join conjuncts, in global column space.
    conjuncts: Vec<RegionConjunct>,
}

fn reorder_inner(
    plan: &LogicalPlan,
    estimator: &Estimator<'_>,
    policy: &ReorderPolicy,
    reordered: &Cell<u64>,
) -> Result<Option<LogicalPlan>, ExecError> {
    if !is_region_join(plan) {
        return rebuild_children(plan, &|c| reorder_inner(c, estimator, policy, reordered));
    }

    let mut original_leaves = Vec::new();
    let mut raw_conjuncts = Vec::new();
    flatten_region(plan, 0, &mut original_leaves, &mut raw_conjuncts);

    // Reorder inside each leaf first (outer-join inputs, subqueries, ...).
    let mut leaves_changed = false;
    let mut leaves: Vec<Arc<LogicalPlan>> = Vec::with_capacity(original_leaves.len());
    for leaf in original_leaves {
        match reorder_inner(&leaf, estimator, policy, reordered)? {
            Some(new_leaf) => {
                leaves_changed = true;
                leaves.push(Arc::new(new_leaf));
            }
            None => leaves.push(leaf),
        }
    }

    // Conjuncts with sublinks make selectivity and placement unsafe to reason about;
    // tiny regions have nothing to reorder (build-side choice is the swap pass's job).
    // A region whose first leaf is in sorted order emits in that order, and only while that
    // leaf stays first.
    let searchable = leaves.len() >= 3
        && leaves.len() <= REGION_LEAF_LIMIT
        && !raw_conjuncts.iter().any(|c| c.has_sublink())
        && !carries_order(&leaves[0]);
    if !searchable {
        return if leaves_changed {
            let mut iter = leaves.iter().cloned();
            Ok(Some(rebuild_region_shape(plan, &mut iter)?))
        } else {
            Ok(None)
        };
    }

    let mut offsets = Vec::with_capacity(leaves.len());
    let mut total_columns = 0;
    for leaf in &leaves {
        offsets.push(total_columns);
        total_columns += leaf.output_arity();
    }

    let leaf_estimates: Vec<PlanEstimate> = leaves.iter().map(|l| estimator.estimate(l)).collect();
    // Region-wide column estimates: concatenation of all leaves. Only the per-column
    // detail matters for conjunct selectivity; the row count is a placeholder.
    let global = PlanEstimate {
        rows: leaf_estimates.iter().map(|e| e.rows.max(1.0)).product(),
        columns: leaf_estimates.iter().flat_map(|e| e.columns.iter().cloned()).collect(),
    };

    let conjuncts: Vec<RegionConjunct> = raw_conjuncts
        .into_iter()
        .map(|expr| {
            let leaf_mask = leaf_mask_of(&expr, &offsets, total_columns);
            let selectivity = estimator.selectivity(&expr, &global);
            RegionConjunct { expr, leaf_mask, selectivity }
        })
        .collect();

    let region = JoinRegion { leaves, offsets, conjuncts };
    let rows: Vec<f64> = leaf_estimates.iter().map(|e| e.rows).collect();

    let order = if region.leaves.len() <= DP_LEAF_LIMIT {
        best_order_dp(&region, &rows)
    } else {
        best_order_greedy(&region, &rows)
    };

    let (original_cost, _) = region_cost(plan, estimator);
    let reordered_cost = order_cost(&region, &rows, &order);
    let identity = order.iter().copied().eq(0..region.leaves.len());
    if identity
        || reordered_cost >= original_cost * policy.improvement_factor
        || original_cost - reordered_cost < policy.min_saved_rows
    {
        return if leaves_changed {
            let mut iter = region.leaves.iter().cloned();
            Ok(Some(rebuild_region_shape(plan, &mut iter)?))
        } else {
            Ok(None)
        };
    }

    reordered.set(reordered.get() + 1);
    Ok(Some(build_region(&region, &order, total_columns)))
}

fn swap_inner(
    plan: &LogicalPlan,
    estimator: &Estimator<'_>,
    policy: &ReorderPolicy,
    swapped: &Cell<u64>,
) -> Result<Option<LogicalPlan>, ExecError> {
    let rebuilt = rebuild_children(plan, &|c| swap_inner(c, estimator, policy, swapped))?;
    let current = rebuilt.as_ref().unwrap_or(plan);
    if let LogicalPlan::Join { left, right, kind, condition } = current {
        let left_rows = estimator.estimate(left).rows;
        let right_rows = estimator.estimate(right).rows;
        // A probe side in sorted order stays the probe side: the join keeps that order.
        if right_rows > left_rows * policy.swap_ratio
            && right_rows >= policy.swap_min_build_rows
            && !carries_order(left)
        {
            swapped.set(swapped.get() + 1);
            return Ok(Some(flipped_join(left, right, *kind, condition.as_ref())));
        }
    }
    Ok(rebuilt)
}

/// `left ⋈ right` with the inputs swapped (`right` probes, `left` is built), under a projection
/// that restores the `left ++ right` column order the parent expects.
fn flipped_join(
    left: &Arc<LogicalPlan>,
    right: &Arc<LogicalPlan>,
    kind: JoinKind,
    condition: Option<&ScalarExpr>,
) -> LogicalPlan {
    let left_arity = left.output_arity();
    let right_arity = right.output_arity();
    let condition = condition.map(|c| {
        c.map_columns(&mut |i| if i < left_arity { i + right_arity } else { i - left_arity })
    });
    let flipped = LogicalPlan::Join {
        left: Arc::clone(right),
        right: Arc::clone(left),
        kind: flip_kind(kind),
        condition,
    };
    let positions: Vec<usize> =
        (right_arity..right_arity + left_arity).chain(0..right_arity).collect();
    project_onto(flipped, &positions)
}

/// Outer-join kind after swapping the inputs.
fn flip_kind(kind: JoinKind) -> JoinKind {
    match kind {
        JoinKind::LeftOuter => JoinKind::RightOuter,
        JoinKind::RightOuter => JoinKind::LeftOuter,
        other => other,
    }
}

/// Is this node part of a reorderable join region (inner or cross join)?
fn is_region_join(plan: &LogicalPlan) -> bool {
    matches!(
        plan,
        LogicalPlan::Join { kind: JoinKind::Inner, .. }
            | LogicalPlan::Join { kind: JoinKind::Cross, .. }
    )
}

/// Flatten a maximal inner/cross join tree: leaves in left-to-right order, every conjunct
/// shifted into the concatenated (global) column space.
fn flatten_region(
    plan: &LogicalPlan,
    base: usize,
    leaves: &mut Vec<Arc<LogicalPlan>>,
    conjuncts: &mut Vec<ScalarExpr>,
) {
    match plan {
        LogicalPlan::Join { left, right, kind: JoinKind::Inner | JoinKind::Cross, condition } => {
            flatten_region(left, base, leaves, conjuncts);
            let left_width = left.output_arity();
            flatten_region(right, base + left_width, leaves, conjuncts);
            if let Some(c) = condition {
                let shifted = c.map_columns(&mut |i| i + base);
                conjuncts.extend(shifted.split_conjunction().into_iter().cloned());
            }
        }
        // Leaf nodes carry Arc children of their own, so this clone is one node deep.
        other => leaves.push(Arc::new(other.clone())),
    }
}

/// Bitmask of leaves referenced by an expression in global column space.
fn leaf_mask_of(expr: &ScalarExpr, offsets: &[usize], total: usize) -> u32 {
    let mut mask = 0u32;
    for col in expr.columns_used() {
        if col >= total {
            continue;
        }
        let leaf = match offsets.binary_search(&col) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        mask |= 1 << leaf;
    }
    mask
}

/// Estimated output rows of joining exactly the leaves in `mask`: product of leaf rows times
/// the selectivity of every conjunct fully contained in the mask.
fn mask_rows(region: &JoinRegion, rows: &[f64], mask: u32) -> f64 {
    let mut out = 1.0;
    for (i, r) in rows.iter().enumerate() {
        if mask & (1 << i) != 0 {
            out *= r.max(1.0);
        }
    }
    for c in &region.conjuncts {
        if c.leaf_mask != 0 && c.leaf_mask & mask == c.leaf_mask {
            out *= c.selectivity;
        }
    }
    out
}

/// Cost of a specific left-deep order (same model the searches minimize).
fn order_cost(region: &JoinRegion, rows: &[f64], order: &[usize]) -> f64 {
    let mut mask = 1u32 << order[0];
    let mut acc_rows = mask_rows(region, rows, mask);
    let mut cost = 0.0;
    for &leaf in &order[1..] {
        let next_mask = mask | (1 << leaf);
        let out = mask_rows(region, rows, next_mask);
        cost += join_cost(acc_rows, rows[leaf], out);
        mask = next_mask;
        acc_rows = out;
    }
    cost
}

/// Exhaustive left-deep join order search: DP over leaf subsets.
fn best_order_dp(region: &JoinRegion, rows: &[f64]) -> Vec<usize> {
    let n = region.leaves.len();
    let full = (1u32 << n) - 1;
    // dp[mask] = (cost of the best left-deep join of `mask`, last leaf added).
    let mut dp: Vec<Option<(f64, usize)>> = vec![None; (full as usize) + 1];
    for leaf in 0..n {
        dp[1usize << leaf] = Some((0.0, leaf));
    }
    for mask in 1..=full {
        let Some((cost_so_far, _)) = dp[mask as usize] else { continue };
        let acc_rows = mask_rows(region, rows, mask);
        for leaf in 0..n {
            let bit = 1u32 << leaf;
            if mask & bit != 0 {
                continue;
            }
            let next = mask | bit;
            let out = mask_rows(region, rows, next);
            let cost = cost_so_far + join_cost(acc_rows, rows[leaf], out);
            if dp[next as usize].is_none_or(|(c, _)| cost < c) {
                dp[next as usize] = Some((cost, leaf));
            }
        }
    }
    // Reconstruct the order by peeling off the recorded last leaf.
    let mut order = Vec::with_capacity(n);
    let mut mask = full;
    while mask != 0 {
        let Some((_, leaf)) = dp[mask as usize] else {
            // The DP table covers every reachable mask; keep the input order rather than
            // panic if that invariant ever breaks.
            return (0..n).collect();
        };
        order.push(leaf);
        mask &= !(1u32 << leaf);
    }
    order.reverse();
    order
}

/// Greedy nearest-neighbour order for regions too large for subset DP: start from the
/// smallest leaf, repeatedly add the leaf with the cheapest next join.
fn best_order_greedy(region: &JoinRegion, rows: &[f64]) -> Vec<usize> {
    let n = region.leaves.len();
    let start = (0..n)
        .min_by(|&a, &b| rows[a].partial_cmp(&rows[b]).unwrap_or(std::cmp::Ordering::Equal))
        .unwrap_or(0);
    let mut order = vec![start];
    let mut mask = 1u32 << start;
    let mut acc_rows = mask_rows(region, rows, mask);
    while order.len() < n {
        let mut best: Option<(f64, usize, f64)> = None;
        for leaf in 0..n {
            let bit = 1u32 << leaf;
            if mask & bit != 0 {
                continue;
            }
            let out = mask_rows(region, rows, mask | bit);
            let cost = join_cost(acc_rows, rows[leaf], out);
            if best.is_none_or(|(c, _, _)| cost < c) {
                best = Some((cost, leaf, out));
            }
        }
        let Some((_, leaf, out)) = best else {
            // While `order` is short of `n`, some leaf is still outside `mask`; keep the
            // input order rather than panic if that invariant ever breaks.
            return (0..n).collect();
        };
        order.push(leaf);
        mask |= 1 << leaf;
        acc_rows = out;
    }
    order
}

/// Cost of the region as it currently stands (honest comparison baseline: the actual tree
/// shape, estimated with the same estimator the searches use).
fn region_cost(plan: &LogicalPlan, estimator: &Estimator<'_>) -> (f64, PlanEstimate) {
    match plan {
        LogicalPlan::Join {
            left,
            right,
            kind: kind @ (JoinKind::Inner | JoinKind::Cross),
            condition,
        } => {
            let (lc, le) = region_cost(left, estimator);
            let (rc, re) = region_cost(right, estimator);
            let est = estimator.estimate_join(&le, &re, *kind, condition.as_ref());
            (lc + rc + join_cost(le.rows, re.rows, est.rows), est)
        }
        leaf => (0.0, estimator.estimate(leaf)),
    }
}

/// Rebuild the original region tree shape with (possibly rewritten) leaves substituted
/// in order.
fn rebuild_region_shape(
    plan: &LogicalPlan,
    leaves: &mut impl Iterator<Item = Arc<LogicalPlan>>,
) -> Result<LogicalPlan, ExecError> {
    match plan {
        LogicalPlan::Join { left, right, kind: JoinKind::Inner | JoinKind::Cross, .. } => {
            let new_left = rebuild_region_shape(left, leaves)?;
            let new_right = rebuild_region_shape(right, leaves)?;
            Ok(plan.with_new_children(vec![Arc::new(new_left), Arc::new(new_right)])?)
        }
        _ => {
            let leaf = leaves.next().ok_or_else(|| {
                ExecError::Internal("join reorder produced fewer leaves than the region".into())
            })?;
            Ok(leaf.as_ref().clone())
        }
    }
}

/// Build the left-deep join tree for `order`, attaching every conjunct at the first join
/// where all its columns are available, then restore the original column order with a
/// permutation projection.
fn build_region(region: &JoinRegion, order: &[usize], total_columns: usize) -> LogicalPlan {
    let leaf_cols = |leaf: usize| -> Vec<usize> {
        let start = region.offsets[leaf];
        (start..start + region.leaves[leaf].output_arity()).collect()
    };

    let mut applied = vec![false; region.conjuncts.len()];
    let mut mask = 1u32 << order[0];
    let mut tree_cols = leaf_cols(order[0]);
    let mut current: LogicalPlan = region.leaves[order[0]].as_ref().clone();

    // Conjuncts local to the first leaf become a selection on top of it.
    if let Some(predicate) = take_applicable(region, &mut applied, mask, &tree_cols) {
        current = LogicalPlan::Selection { input: Arc::new(current), predicate };
    }

    for &leaf in &order[1..] {
        let mut new_cols = tree_cols.clone();
        new_cols.extend(leaf_cols(leaf));
        mask |= 1 << leaf;
        let condition = take_applicable(region, &mut applied, mask, &new_cols);
        let kind = if condition.is_some() { JoinKind::Inner } else { JoinKind::Cross };
        current = LogicalPlan::Join {
            left: Arc::new(current),
            right: Arc::new(region.leaves[leaf].as_ref().clone()),
            kind,
            condition,
        };
        tree_cols = new_cols;
    }

    // Restore the original concatenated column order for the parent operators.
    // `tree_cols` is a permutation of the region's global columns, so every position
    // resolves; 0 is deterministic filler for the unreachable miss.
    let positions: Vec<usize> =
        (0..total_columns).map(|g| tree_cols.iter().position(|&c| c == g).unwrap_or(0)).collect();
    project_onto(current, &positions)
}

/// Collect (and mark applied) every unapplied conjunct whose leaves are all in `mask`,
/// remapped from global columns to positions in `tree_cols`, ANDed together.
fn take_applicable(
    region: &JoinRegion,
    applied: &mut [bool],
    mask: u32,
    tree_cols: &[usize],
) -> Option<ScalarExpr> {
    let mut combined: Option<ScalarExpr> = None;
    for (i, c) in region.conjuncts.iter().enumerate() {
        if applied[i] || c.leaf_mask & mask != c.leaf_mask {
            continue;
        }
        applied[i] = true;
        let remapped = c.expr.map_columns(&mut |g| {
            // A conjunct only applies once all its leaves are in `mask`, so its columns are
            // all in `tree_cols`; 0 is deterministic filler for the unreachable miss.
            tree_cols.iter().position(|&col| col == g).unwrap_or(0)
        });
        combined = Some(match combined {
            Some(acc) => acc.and(remapped),
            None => remapped,
        });
    }
    combined
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TableStatsView;
    use perm_algebra::{BinaryOperator, DataType, Schema, Value};
    use perm_storage::{ColumnStats, TableStats};

    fn table(rows: u64, key_distinct: u64) -> Arc<TableStats> {
        Arc::new(TableStats {
            row_count: rows,
            columns: vec![ColumnStats {
                distinct: key_distinct,
                null_count: 0,
                min: Some(Value::Int(0)),
                max: Some(Value::Int(key_distinct.max(1) as i64 - 1)),
            }],
        })
    }

    fn scan(name: &str, ref_id: usize) -> Arc<LogicalPlan> {
        Arc::new(LogicalPlan::BaseRelation {
            name: name.into(),
            alias: None,
            schema: Schema::from_pairs(&[("k", DataType::Int)]),
            ref_id,
        })
    }

    fn eq(a: usize, b: usize) -> ScalarExpr {
        ScalarExpr::column(a, "k").eq(ScalarExpr::column(b, "k"))
    }

    #[test]
    fn reorder_moves_small_relations_first() {
        // big ⋈ mid ⋈ small chained on k; the DP should not keep the huge big⋈mid
        // intermediate when starting from small is cheaper.
        let mut view = TableStatsView::empty();
        view.insert("big", table(100_000, 100));
        view.insert("mid", table(10_000, 100));
        view.insert("small", table(10, 10));
        let plan = LogicalPlan::Join {
            left: Arc::new(LogicalPlan::Join {
                left: scan("big", 0),
                right: scan("mid", 1),
                kind: JoinKind::Inner,
                condition: Some(eq(0, 1)),
            }),
            right: scan("small", 2),
            kind: JoinKind::Inner,
            condition: Some(eq(1, 2)),
        };
        let estimator = Estimator::new(&view);
        let mut report = ReorderReport::default();
        let reordered = reorder_joins(&plan, &estimator, &ReorderPolicy::default(), &mut report)
            .unwrap()
            .expect("plan should change");
        assert_eq!(report.joins_reordered, 1);
        // Output columns must be positionally identical to the original.
        assert_eq!(reordered.output_arity(), 3);
        assert_eq!(reordered.schema(), plan.schema());
        // And the region cost must actually improve under the same model.
        let (orig_cost, _) = region_cost(&plan, &estimator);
        let inner = match &reordered {
            LogicalPlan::Projection { input, .. } => input.as_ref(),
            other => other,
        };
        let (new_cost, _) = region_cost(inner, &estimator);
        assert!(new_cost < orig_cost, "new {new_cost} vs orig {orig_cost}");
    }

    #[test]
    fn reorder_keeps_already_good_order() {
        let mut view = TableStatsView::empty();
        view.insert("small", table(10, 10));
        view.insert("mid", table(1000, 100));
        view.insert("big", table(100_000, 100));
        let plan = LogicalPlan::Join {
            left: Arc::new(LogicalPlan::Join {
                left: scan("small", 0),
                right: scan("mid", 1),
                kind: JoinKind::Inner,
                condition: Some(eq(0, 1)),
            }),
            right: scan("big", 2),
            kind: JoinKind::Inner,
            condition: Some(eq(1, 2)),
        };
        let estimator = Estimator::new(&view);
        let mut report = ReorderReport::default();
        let reordered =
            reorder_joins(&plan, &estimator, &ReorderPolicy::default(), &mut report).unwrap();
        assert!(reordered.is_none(), "well-ordered plan must be left alone");
        assert_eq!(report.joins_reordered, 0);
    }

    #[test]
    fn outer_join_is_a_reorder_barrier() {
        let mut view = TableStatsView::empty();
        view.insert("a", table(100_000, 100));
        view.insert("b", table(10, 10));
        let plan = LogicalPlan::Join {
            left: scan("a", 0),
            right: scan("b", 1),
            kind: JoinKind::FullOuter,
            condition: Some(eq(0, 1)),
        };
        let estimator = Estimator::new(&view);
        let mut report = ReorderReport::default();
        assert!(reorder_joins(&plan, &estimator, &ReorderPolicy::default(), &mut report)
            .unwrap()
            .is_none());
        assert_eq!(report.joins_reordered, 0);
    }

    #[test]
    fn swap_makes_smaller_side_the_build_side() {
        let mut view = TableStatsView::empty();
        view.insert("small", table(10, 10));
        view.insert("big", table(100_000, 100));
        // small ⋈ big: build side (right) is big — must swap.
        let plan = LogicalPlan::Join {
            left: scan("small", 0),
            right: scan("big", 1),
            kind: JoinKind::Inner,
            condition: Some(eq(0, 1)),
        };
        let estimator = Estimator::new(&view);
        let mut report = ReorderReport::default();
        let swapped = swap_build_sides(&plan, &estimator, &ReorderPolicy::default(), &mut report)
            .unwrap()
            .expect("must swap");
        assert_eq!(report.build_sides_swapped, 1);
        let LogicalPlan::Projection { input, .. } = &swapped else {
            panic!("swap must restore column order via projection: {swapped:?}");
        };
        let LogicalPlan::Join { left, right, kind, .. } = input.as_ref() else {
            panic!("projection input must be the flipped join");
        };
        assert_eq!(*kind, JoinKind::Inner);
        assert!(
            matches!(left.as_ref(), LogicalPlan::BaseRelation { name, .. } if &**name == "big")
        );
        assert!(
            matches!(right.as_ref(), LogicalPlan::BaseRelation { name, .. } if &**name == "small")
        );
        assert_eq!(swapped.schema(), plan.schema());
    }

    #[test]
    fn swap_flips_outer_join_kind() {
        let mut view = TableStatsView::empty();
        view.insert("small", table(10, 10));
        view.insert("big", table(100_000, 100));
        let plan = LogicalPlan::Join {
            left: scan("small", 0),
            right: scan("big", 1),
            kind: JoinKind::LeftOuter,
            condition: Some(eq(0, 1)),
        };
        let estimator = Estimator::new(&view);
        let mut report = ReorderReport::default();
        let swapped = swap_build_sides(&plan, &estimator, &ReorderPolicy::default(), &mut report)
            .unwrap()
            .expect("must swap");
        let LogicalPlan::Projection { input, .. } = &swapped else { panic!() };
        let LogicalPlan::Join { kind, .. } = input.as_ref() else { panic!() };
        assert_eq!(*kind, JoinKind::RightOuter, "LEFT JOIN must flip to RIGHT JOIN");
    }

    #[test]
    fn swap_leaves_good_build_side_alone() {
        let mut view = TableStatsView::empty();
        view.insert("small", table(10, 10));
        view.insert("big", table(100_000, 100));
        let plan = LogicalPlan::Join {
            left: scan("big", 0),
            right: scan("small", 1),
            kind: JoinKind::Inner,
            condition: Some(eq(0, 1)),
        };
        let estimator = Estimator::new(&view);
        let mut report = ReorderReport::default();
        assert!(swap_build_sides(&plan, &estimator, &ReorderPolicy::default(), &mut report)
            .unwrap()
            .is_none());
        assert_eq!(report.build_sides_swapped, 0);
    }

    #[test]
    fn default_policy_skips_marginal_swaps() {
        // The default policy must not pay a permutation projection for a marginal or tiny
        // win; the aggressive policy (used by differential tests) still takes both.
        let mut view = TableStatsView::empty();
        view.insert("tiny_l", table(100, 100));
        view.insert("tiny_r", table(110, 100)); // larger, but only 110 rows to build
        view.insert("near_l", table(10_000, 100));
        view.insert("near_r", table(11_000, 100)); // big build, but only 1.1x larger
        for (l, r) in [("tiny_l", "tiny_r"), ("near_l", "near_r")] {
            let plan = LogicalPlan::Join {
                left: scan(l, 0),
                right: scan(r, 1),
                kind: JoinKind::Inner,
                condition: Some(eq(0, 1)),
            };
            let estimator = Estimator::new(&view);
            let mut report = ReorderReport::default();
            let default_result =
                swap_build_sides(&plan, &estimator, &ReorderPolicy::default(), &mut report)
                    .unwrap();
            assert!(default_result.is_none(), "{l} ⋈ {r} must not swap under defaults");
            let aggressive =
                swap_build_sides(&plan, &estimator, &ReorderPolicy::aggressive(), &mut report)
                    .unwrap();
            assert!(aggressive.is_some(), "{l} ⋈ {r} must swap under the aggressive policy");
        }
    }

    #[test]
    fn default_policy_skips_micro_reorders() {
        // A three-way chain of toy tables has a better order, but the absolute saving is
        // far below `min_saved_rows`: defaults leave it alone, aggressive reorders it.
        let mut view = TableStatsView::empty();
        view.insert("big", table(40, 10));
        view.insert("mid", table(20, 10));
        view.insert("small", table(2, 2));
        let plan = LogicalPlan::Join {
            left: Arc::new(LogicalPlan::Join {
                left: scan("big", 0),
                right: scan("mid", 1),
                kind: JoinKind::Inner,
                condition: Some(eq(0, 1)),
            }),
            right: scan("small", 2),
            kind: JoinKind::Inner,
            condition: Some(eq(1, 2)),
        };
        let estimator = Estimator::new(&view);
        let mut report = ReorderReport::default();
        let default_result =
            reorder_joins(&plan, &estimator, &ReorderPolicy::default(), &mut report).unwrap();
        assert!(default_result.is_none(), "micro region must not be reordered under defaults");
        assert_eq!(report.joins_reordered, 0);
        let aggressive =
            reorder_joins(&plan, &estimator, &ReorderPolicy::aggressive(), &mut report).unwrap();
        assert!(aggressive.is_some(), "aggressive policy must still take the win");
        assert_eq!(report.joins_reordered, 1);
    }

    // --- sorts moved below joins ---

    /// Stats for `small` (10 rows), `mid` (100) and `big` (1000 rows), keys 10 / 100 / 100
    /// distinct, so `small ⋈ big` and `big ⋈ small` are estimated at 100 rows.
    fn sized_view() -> TableStatsView {
        let mut view = TableStatsView::empty();
        view.insert("small", table(10, 10));
        view.insert("mid", table(100, 100));
        view.insert("big", table(1000, 100));
        view
    }

    fn join(left: Arc<LogicalPlan>, right: Arc<LogicalPlan>, kind: JoinKind) -> Arc<LogicalPlan> {
        let left_arity = left.output_arity();
        Arc::new(LogicalPlan::Join { left, right, kind, condition: Some(eq(0, left_arity)) })
    }

    fn sorted(input: Arc<LogicalPlan>, key: ScalarExpr) -> LogicalPlan {
        LogicalPlan::Sort { input, keys: vec![SortKey::desc(key)] }
    }

    fn push(plan: &LogicalPlan) -> (Option<LogicalPlan>, u64) {
        let view = sized_view();
        let estimator = Estimator::new(&view);
        let mut report = ReorderReport::default();
        let pushed = push_down_sorts(plan, &estimator, &mut report).unwrap();
        if let Some(moved) = &pushed {
            assert_eq!(moved.schema(), plan.schema());
        }
        (pushed, report.sorts_pushed)
    }

    /// The name of the base relation a `Sort` directly sorts.
    fn sorted_table(plan: &LogicalPlan) -> Option<String> {
        match plan {
            LogicalPlan::Sort { input, .. } => match input.as_ref() {
                LogicalPlan::BaseRelation { name, .. } => Some(name.to_string()),
                _ => None,
            },
            _ => None,
        }
    }

    #[test]
    fn sorts_move_through_renames_onto_the_probe_side_of_each_join() {
        // Sort[k of small] over Π(alias(small ⟕ big) ⋈ mid): down through the renames, the
        // inner join (100 rows estimated ≥ 100) and the left outer join, onto `small`.
        let outer = join(scan("small", 0), scan("big", 1), JoinKind::LeftOuter);
        let aliased = Arc::new(LogicalPlan::SubqueryAlias { input: outer, alias: "o".into() });
        let inner = join(aliased, scan("mid", 2), JoinKind::Inner);
        let renamed = Arc::new(project_onto(inner.as_ref().clone(), &[2, 0, 1]));
        let plan = sorted(renamed, ScalarExpr::column(1, "k"));
        let (moved, pushed) = push(&plan);
        let moved = moved.expect("the sort moves");
        assert_eq!(pushed, 1);
        let LogicalPlan::Projection { input, .. } = &moved else { panic!("{moved:?}") };
        let LogicalPlan::Join { left, kind: JoinKind::Inner, .. } = input.as_ref() else {
            panic!("{input:?}")
        };
        let LogicalPlan::SubqueryAlias { input, .. } = left.as_ref() else { panic!("{left:?}") };
        let LogicalPlan::Join { left, kind: JoinKind::LeftOuter, .. } = input.as_ref() else {
            panic!("{input:?}")
        };
        assert_eq!(sorted_table(left).as_deref(), Some("small"), "{moved}");
    }

    #[test]
    fn right_side_keys_swap_the_join_so_the_sorted_side_probes() {
        // small ⟖ big ORDER BY big.k becomes big ⟕ small under a permutation; the same for an
        // inner join that keeps all of its larger side (mid ⋈ big: 1000 rows estimated).
        for (probe, kind, flipped) in [
            ("small", JoinKind::RightOuter, JoinKind::LeftOuter),
            ("mid", JoinKind::Inner, JoinKind::Inner),
        ] {
            let plan =
                sorted(join(scan(probe, 0), scan("big", 1), kind), ScalarExpr::column(1, "k"));
            let (moved, pushed) = push(&plan);
            let moved = moved.unwrap_or_else(|| panic!("{kind:?}: the sort moves"));
            assert_eq!(pushed, 1);
            let LogicalPlan::Projection { input, .. } = &moved else { panic!("{moved:?}") };
            let LogicalPlan::Join { left, kind: new_kind, .. } = input.as_ref() else {
                panic!("{input:?}")
            };
            assert_eq!(*new_kind, flipped);
            assert_eq!(sorted_table(left).as_deref(), Some("big"), "{moved}");
        }
    }

    #[test]
    fn sorts_that_cannot_move_stay_above_the_join() {
        let plus = |a, b| ScalarExpr::binary(BinaryOperator::Add, a, b);
        let both = plus(ScalarExpr::column(0, "k"), ScalarExpr::column(1, "k"));
        let stays = [
            // Full outer joins pad either side.
            (
                join(scan("small", 0), scan("big", 1), JoinKind::FullOuter),
                ScalarExpr::column(0, "k"),
            ),
            // The padded side of a left outer join.
            (
                join(scan("big", 0), scan("small", 1), JoinKind::LeftOuter),
                ScalarExpr::column(1, "k"),
            ),
            // An expression key, even of one side.
            (
                join(scan("small", 0), scan("big", 1), JoinKind::Inner),
                plus(ScalarExpr::column(0, "k"), ScalarExpr::literal(1i64)),
            ),
            // Keys from both sides.
            (join(scan("small", 0), scan("big", 1), JoinKind::Inner), both),
            // An inner join estimated to keep fewer rows (10) than its sorted side (`mid`).
            (join(scan("mid", 0), scan("small", 1), JoinKind::Inner), ScalarExpr::column(0, "k")),
            // A swap that would build the larger side: `small` probing `big`'s hash table.
            (join(scan("big", 0), scan("small", 1), JoinKind::Inner), ScalarExpr::column(1, "k")),
        ];
        for (input, key) in stays {
            let plan = sorted(input, key);
            assert_eq!(push(&plan), (None, 0), "{plan}");
        }
    }

    #[test]
    fn a_probe_side_in_sorted_order_keeps_its_place() {
        // Once a sort probes a join, neither the build-side swap nor the reorderer may move it
        // off the probe side: the join's output order is the sort's.
        let chain = join(
            join(scan("small", 0), scan("big", 1), JoinKind::Inner),
            scan("mid", 2),
            JoinKind::Inner,
        );
        let plan = sorted(chain, ScalarExpr::column(0, "k"));
        let (moved, _) = push(&plan);
        let moved = moved.expect("the sort moves onto `small`");
        let view = sized_view();
        let estimator = Estimator::new(&view);
        let policy = ReorderPolicy::aggressive();
        let mut report = ReorderReport::default();
        assert_eq!(reorder_joins(&moved, &estimator, &policy, &mut report).unwrap(), None);
        assert_eq!(swap_build_sides(&moved, &estimator, &policy, &mut report).unwrap(), None);
        // Without the sort both passes take the chain apart.
        let unsorted = join(
            join(scan("small", 0), scan("big", 1), JoinKind::Inner),
            scan("mid", 2),
            JoinKind::Inner,
        );
        assert!(reorder_joins(&unsorted, &estimator, &policy, &mut report).unwrap().is_some());
        assert!(swap_build_sides(&unsorted, &estimator, &policy, &mut report).unwrap().is_some());
    }
}

//! A rule-based logical optimizer.
//!
//! The Perm architecture (paper Figure 5) places the provenance rewriter *before* the planner so
//! that rewritten queries benefit from ordinary query optimization. This module is the planner
//! substrate of our reproduction. It is intentionally simple but covers the rules that matter for
//! the evaluation workloads:
//!
//! * **Selection merging** — adjacent selections are combined.
//! * **Predicate pushdown** — conjuncts of a selection are pushed below cross products / inner
//!   joins towards the relations they reference.
//! * **Cross-product to join conversion** — conjuncts that reference both sides of a cross
//!   product become the join condition of an inner join, which the executor runs as a hash join.
//!   TPC-H queries are written as `FROM a, b, c WHERE ...`, so without this rule every plan would
//!   degenerate to nested-loop cross products.
//! * **Constant folding** — constant sub-expressions are evaluated once; trivially-true
//!   selections are removed.
//! * **Projection merging** — adjacent projections collapse into one by substituting the inner
//!   expressions into the outer ones: a view's or subquery's projection under the query's own,
//!   and — in one more pass after column pruning — the permutation projections that join
//!   reordering and build-side selection insert over those that pruning leaves.
//! * **Projection pushdown (column pruning)** — operators carry only the attributes their
//!   ancestors actually consume. A provenance rewrite carries every base-relation attribute
//!   through the joins above it (and R5–R9 join the original result back to them), so without
//!   pruning every intermediate tuple of a rewritten query is as wide as the union of all
//!   referenced relations.
//!
//! Optimization itself sits on the compile path the paper measures in Figure 9, so the passes
//! are written to be cheap: they report changes as `Option` (sharing unchanged sub-plans via
//! `Arc` instead of rebuilding them) and the fixpoint loop stops on the first pass that changes
//! nothing, without any deep plan comparisons.

use std::sync::Arc;

use perm_algebra::{DataType, JoinKind, LogicalPlan, Name, ScalarExpr, Schema, Tuple, Value};

use crate::error::ExecError;
use crate::eval::evaluate;
use crate::reorder::{
    push_down_sorts, reorder_joins, swap_build_sides, ReorderPolicy, ReorderReport,
};
use crate::stats::{Estimator, TableStatsView};

/// What the cost-based passes did during one [`Optimizer::optimize_with_stats`] run;
/// the engine feeds these counters into the metrics registry.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OptimizerReport {
    /// Join regions whose order was changed by the cost-based search.
    pub joins_reordered: u64,
    /// Joins whose build (right) side was swapped to the estimated-smaller input.
    pub build_sides_swapped: u64,
    /// Sorts moved below a join onto its probe side: they order the join's input, not its
    /// output.
    pub sorts_pushed: u64,
    /// How many plan nodes the cardinality estimator was asked about.
    pub estimator_invocations: u64,
}

/// Maximum number of rule-based normalization passes.
const MAX_PASSES: usize = 5;

/// The rule-based optimizer, extended with statistics-driven join reordering.
#[derive(Debug, Clone)]
pub struct Optimizer {
    /// Thresholds the cost-based passes must clear before rewriting a plan.
    policy: ReorderPolicy,
}

impl Default for Optimizer {
    fn default() -> Optimizer {
        Optimizer::new()
    }
}

impl Optimizer {
    /// Create an optimizer with the default reordering thresholds.
    pub fn new() -> Optimizer {
        Optimizer { policy: ReorderPolicy::default() }
    }

    /// Override the thresholds the cost-based passes must clear before rewriting a plan
    /// (the differential tests use [`ReorderPolicy::aggressive`] to maximize plan churn).
    pub fn with_reorder_policy(mut self, policy: ReorderPolicy) -> Optimizer {
        self.policy = policy;
        self
    }

    /// Optimize a plan without table statistics (rule-based passes and sort pushdown; the
    /// join-order passes see no stats and leave join shapes untouched).
    pub fn optimize(&self, plan: &LogicalPlan) -> Result<LogicalPlan, ExecError> {
        Ok(self.optimize_with_stats(plan, &TableStatsView::empty())?.0)
    }

    /// Optimize a plan with table statistics: the rule-based normalization fixpoint, then
    /// cost-based join reordering and build-side selection, then sorts moved below joins, then
    /// column pruning and projection merging.
    pub fn optimize_with_stats(
        &self,
        plan: &LogicalPlan,
        stats: &TableStatsView,
    ) -> Result<(LogicalPlan, OptimizerReport), ExecError> {
        let mut current = plan.clone();
        for _ in 0..MAX_PASSES {
            let mut changed = false;
            if let Some(folded) = fold_plan_constants(&current)? {
                current = folded;
                changed = true;
                verify_after_pass("fold_plan_constants", &current)?;
            }
            if let Some(pushed) = push_down_selections(&current)? {
                current = pushed;
                changed = true;
                verify_after_pass("push_down_selections", &current)?;
            }
            if let Some(merged) = merge_projections(&current)? {
                current = merged;
                changed = true;
                verify_after_pass("merge_projections", &current)?;
            }
            if !changed {
                break;
            }
        }
        // Cost-based passes run downstream of normalization (joins exist, selections are
        // pushed) and upstream of pruning (which cleans up the permutation projections the
        // passes insert). Without statistics every estimate is the same default, so the
        // join-order passes could only churn; skip them. Sorts move below joins either way.
        let estimator = Estimator::new(stats);
        let mut counters = ReorderReport::default();
        if !stats.is_empty() {
            if let Some(reordered) =
                reorder_joins(&current, &estimator, &self.policy, &mut counters)?
            {
                current = reordered;
                verify_after_pass("reorder_joins", &current)?;
            }
            if let Some(swapped) =
                swap_build_sides(&current, &estimator, &self.policy, &mut counters)?
            {
                current = swapped;
                verify_after_pass("swap_build_sides", &current)?;
            }
        }
        if let Some(sorted) = push_down_sorts(&current, &estimator, &mut counters)? {
            current = sorted;
            verify_after_pass("push_down_sorts", &current)?;
        }
        let report = OptimizerReport {
            joins_reordered: counters.joins_reordered,
            build_sides_swapped: counters.build_sides_swapped,
            sorts_pushed: counters.sorts_pushed,
            estimator_invocations: estimator.invocations(),
        };
        let pruned = prune_columns(&current)?;
        verify_after_pass("prune_columns", &pruned)?;
        // The permutation projections of the cost-based passes, and pruning's own, stack on
        // projections the fixpoint already merged.
        let pruned = merge_projections(&pruned)?.unwrap_or(pruned);
        verify_after_pass("merge_projections", &pruned)?;
        // Sub-plans of uncorrelated sublinks run as independent queries; give each the full
        // treatment exactly once (the fixpoint loop above deliberately skips them so that it
        // does not re-optimize them every pass).
        match self.optimize_sublinks(&pruned)? {
            Some(with_sublinks) => {
                verify_after_pass("optimize_sublinks", &with_sublinks)?;
                Ok((with_sublinks, report))
            }
            None => Ok((pruned, report)),
        }
    }

    /// Recursively optimize the plans of uncorrelated sublinks embedded in expressions.
    fn optimize_sublinks(&self, plan: &LogicalPlan) -> Result<Option<LogicalPlan>, ExecError> {
        let rebuilt = rebuild_children(plan, &|c| self.optimize_sublinks(c))?;
        let current = rebuilt.as_ref().unwrap_or(plan);
        Ok(match current {
            LogicalPlan::Selection { input, predicate } if predicate.has_sublink() => {
                Some(LogicalPlan::Selection {
                    input: input.clone(),
                    predicate: self.optimize_sublink_plans(predicate)?,
                })
            }
            LogicalPlan::Projection { input, exprs, distinct }
                if exprs.iter().any(|(e, _)| e.has_sublink()) =>
            {
                Some(LogicalPlan::Projection {
                    input: input.clone(),
                    exprs: exprs
                        .iter()
                        .map(|(e, n)| Ok((self.optimize_sublink_plans(e)?, n.clone())))
                        .collect::<Result<Vec<_>, ExecError>>()?,
                    distinct: *distinct,
                })
            }
            LogicalPlan::Join { left, right, kind, condition: Some(c) } if c.has_sublink() => {
                Some(LogicalPlan::Join {
                    left: left.clone(),
                    right: right.clone(),
                    kind: *kind,
                    condition: Some(self.optimize_sublink_plans(c)?),
                })
            }
            _ => rebuilt,
        })
    }

    /// Rewrite every sublink in `expr` with a fully optimized sub-plan.
    fn optimize_sublink_plans(&self, expr: &ScalarExpr) -> Result<ScalarExpr, ExecError> {
        let mut error: Option<ExecError> = None;
        let rewritten = expr.transform(&mut |e| {
            if error.is_some() {
                return e;
            }
            if let ScalarExpr::Sublink { kind, operand, negated, plan } = &e {
                match self.optimize(plan) {
                    Ok(optimized) => ScalarExpr::Sublink {
                        kind: *kind,
                        operand: operand.clone(),
                        negated: *negated,
                        plan: Arc::new(optimized),
                    },
                    Err(err) => {
                        error = Some(err);
                        e
                    }
                }
            } else {
                e
            }
        });
        match error {
            Some(err) => Err(err),
            None => Ok(rewritten),
        }
    }
}

/// Re-verify typing after an optimizer pass changed the plan (debug builds only), naming the
/// pass in the error so a pass-ordering bug fails fast at its source instead of surfacing as
/// a runtime wire error mid-stream.
fn verify_after_pass(pass: &str, plan: &LogicalPlan) -> Result<(), ExecError> {
    if !cfg!(debug_assertions) {
        return Ok(());
    }
    match plan.verify() {
        Ok(_) => Ok(()),
        Err(mut err) => {
            err.context = format!("optimizer pass '{pass}': {}", err.context);
            Err(ExecError::Algebra(err.into()))
        }
    }
}

/// Push selection predicates towards the leaves and convert cross products into inner joins.
/// Returns `None` when the plan is already in normal form (unchanged sub-plans stay shared).
fn push_down_selections(plan: &LogicalPlan) -> Result<Option<LogicalPlan>, ExecError> {
    // Optimize children first so that pushdown sees already-simplified inputs.
    let rebuilt = rebuild_children(plan, &push_down_selections)?;
    let current = rebuilt.as_ref().unwrap_or(plan);

    let LogicalPlan::Selection { input, predicate } = current else {
        return Ok(rebuilt);
    };

    Ok(match input.as_ref() {
        // σ_p(σ_q(T)) = σ_{p ∧ q}(T)
        LogicalPlan::Selection { input: inner, predicate: inner_pred } => {
            let merged = LogicalPlan::Selection {
                input: inner.clone(),
                predicate: inner_pred.clone().and(predicate.clone()),
            };
            Some(push_down_owned(merged)?)
        }
        // Push conjuncts into / below cross products and inner joins.
        LogicalPlan::Join { left, right, kind, condition }
            if matches!(kind, JoinKind::Cross | JoinKind::Inner) =>
        {
            let left_arity = left.output_arity();
            let mut left_preds: Vec<ScalarExpr> = Vec::new();
            let mut right_preds: Vec<ScalarExpr> = Vec::new();
            let mut join_preds: Vec<ScalarExpr> = Vec::new();
            for conjunct in predicate.split_conjunction() {
                let cols = conjunct.columns_used();
                if cols.iter().all(|&c| c < left_arity) && !cols.is_empty() {
                    left_preds.push(conjunct.clone());
                } else if cols.iter().all(|&c| c >= left_arity) && !cols.is_empty() {
                    right_preds.push(conjunct.map_columns(&mut |c| c - left_arity));
                } else {
                    join_preds.push(conjunct.clone());
                }
            }

            let new_left: Arc<LogicalPlan> = if left_preds.is_empty() {
                left.clone()
            } else {
                Arc::new(push_down_owned(LogicalPlan::Selection {
                    input: left.clone(),
                    predicate: ScalarExpr::conjunction(left_preds),
                })?)
            };
            let new_right: Arc<LogicalPlan> = if right_preds.is_empty() {
                right.clone()
            } else {
                Arc::new(push_down_owned(LogicalPlan::Selection {
                    input: right.clone(),
                    predicate: ScalarExpr::conjunction(right_preds),
                })?)
            };

            let mut all_join_preds = Vec::new();
            if let Some(c) = condition {
                all_join_preds.push(c.clone());
            }
            all_join_preds.extend(join_preds);

            let (new_kind, new_condition) = if all_join_preds.is_empty() {
                (*kind, None)
            } else {
                (JoinKind::Inner, Some(ScalarExpr::conjunction(all_join_preds)))
            };

            Some(LogicalPlan::Join {
                left: new_left,
                right: new_right,
                kind: new_kind,
                condition: new_condition,
            })
        }
        // A selection above an outer join: conjuncts that reference only the *preserved* side
        // commute with the join and push into that input — for LEFT OUTER a left-only
        // conjunct filters the same left rows whether applied before or after the join (NULL
        // padding only affects right columns), and symmetrically for RIGHT OUTER. Conjuncts
        // touching the padded side (or referencing no columns) stay above the join. The
        // provenance rewriter's sublink rules emit exactly this shape: the original WHERE
        // clause ends up above the LEFT OUTER join it introduces.
        LogicalPlan::Join {
            left,
            right,
            kind: kind @ (JoinKind::LeftOuter | JoinKind::RightOuter),
            condition,
        } => {
            let left_arity = left.output_arity();
            let mut pushable: Vec<ScalarExpr> = Vec::new();
            let mut kept: Vec<ScalarExpr> = Vec::new();
            for conjunct in predicate.split_conjunction() {
                let cols = conjunct.columns_used();
                let fits = !cols.is_empty()
                    && match kind {
                        JoinKind::LeftOuter => cols.iter().all(|&c| c < left_arity),
                        _ => cols.iter().all(|&c| c >= left_arity),
                    };
                if fits {
                    pushable.push(conjunct.clone());
                } else {
                    kept.push(conjunct.clone());
                }
            }
            if pushable.is_empty() {
                rebuilt
            } else {
                let (new_left, new_right) = match kind {
                    JoinKind::LeftOuter => {
                        let filtered = push_down_owned(LogicalPlan::Selection {
                            input: left.clone(),
                            predicate: ScalarExpr::conjunction(pushable),
                        })?;
                        (Arc::new(filtered), right.clone())
                    }
                    _ => {
                        let remapped = pushable
                            .into_iter()
                            .map(|c| c.map_columns(&mut |i| i - left_arity))
                            .collect();
                        let filtered = push_down_owned(LogicalPlan::Selection {
                            input: right.clone(),
                            predicate: ScalarExpr::conjunction(remapped),
                        })?;
                        (left.clone(), Arc::new(filtered))
                    }
                };
                let joined = LogicalPlan::Join {
                    left: new_left,
                    right: new_right,
                    kind: *kind,
                    condition: condition.clone(),
                };
                if kept.is_empty() {
                    Some(joined)
                } else {
                    Some(LogicalPlan::Selection {
                        input: Arc::new(joined),
                        predicate: ScalarExpr::conjunction(kept),
                    })
                }
            }
        }
        // Push through operators that do not change column positions.
        LogicalPlan::SubqueryAlias { input: inner, alias } => {
            let pushed = push_down_owned(LogicalPlan::Selection {
                input: inner.clone(),
                predicate: predicate.clone(),
            })?;
            Some(LogicalPlan::SubqueryAlias { input: Arc::new(pushed), alias: alias.clone() })
        }
        LogicalPlan::Sort { input: inner, keys } => {
            let pushed = push_down_owned(LogicalPlan::Selection {
                input: inner.clone(),
                predicate: predicate.clone(),
            })?;
            Some(LogicalPlan::Sort { input: Arc::new(pushed), keys: keys.clone() })
        }
        // Push below a projection when every referenced output is a plain column.
        LogicalPlan::Projection { input: inner, exprs, distinct } => {
            let all_plain = predicate
                .columns_used()
                .iter()
                .all(|&c| exprs.get(c).map(|(e, _)| e.as_column().is_some()).unwrap_or(false));
            if all_plain {
                let remapped = predicate.map_columns(&mut |c| {
                    // `all_plain` guarantees a plain column; identity is unreachable filler.
                    exprs[c].0.as_column().unwrap_or(c)
                });
                let pushed = push_down_owned(LogicalPlan::Selection {
                    input: inner.clone(),
                    predicate: remapped,
                })?;
                Some(LogicalPlan::Projection {
                    input: Arc::new(pushed),
                    exprs: exprs.clone(),
                    distinct: *distinct,
                })
            } else {
                rebuilt
            }
        }
        _ => rebuilt,
    })
}

/// Apply [`push_down_selections`] to an owned plan, returning it unchanged when in normal form.
fn push_down_owned(plan: LogicalPlan) -> Result<LogicalPlan, ExecError> {
    Ok(push_down_selections(&plan)?.unwrap_or(plan))
}

/// Collapse `Π_outer(Π_inner(T))` into a single projection by substituting the inner
/// expressions into the outer ones. Returns `None` when nothing merged.
///
/// The merge is skipped when the inner projection is DISTINCT (it changes multiplicities) or
/// when a non-trivial inner expression would be duplicated (an outer expression references it
/// more than once) — substitution must never increase per-row evaluation work.
fn merge_projections(plan: &LogicalPlan) -> Result<Option<LogicalPlan>, ExecError> {
    let rebuilt = rebuild_children(plan, &merge_projections)?;
    let current = rebuilt.as_ref().unwrap_or(plan);
    let LogicalPlan::Projection { input, exprs, distinct } = current else {
        return Ok(rebuilt);
    };
    let LogicalPlan::Projection {
        input: inner_input,
        exprs: inner_exprs,
        distinct: inner_distinct,
    } = input.as_ref()
    else {
        return Ok(rebuilt);
    };
    if *inner_distinct {
        return Ok(rebuilt);
    }
    let mut ref_counts = vec![0usize; inner_exprs.len()];
    for (e, _) in exprs {
        e.visit(&mut |x| {
            if let ScalarExpr::Column { index, .. } = x {
                ref_counts[*index] += 1;
            }
        });
    }
    let trivial = |e: &ScalarExpr| matches!(e, ScalarExpr::Column { .. } | ScalarExpr::Literal(_));
    if ref_counts.iter().zip(inner_exprs).any(|(&n, (e, _))| n > 1 && !trivial(e)) {
        return Ok(rebuilt);
    }
    let merged = exprs
        .iter()
        .map(|(e, n)| {
            let substituted = e.transform(&mut |x| match x {
                ScalarExpr::Column { index, .. } => inner_exprs[index].0.clone(),
                other => other,
            });
            (substituted, n.clone())
        })
        .collect();
    Ok(Some(LogicalPlan::Projection {
        input: inner_input.clone(),
        exprs: merged,
        distinct: *distinct,
    }))
}

/// Fold constant expressions in every operator of the plan and drop trivially-true selections.
/// Returns `None` when nothing folded.
fn fold_plan_constants(plan: &LogicalPlan) -> Result<Option<LogicalPlan>, ExecError> {
    let rebuilt = rebuild_children(plan, &fold_plan_constants)?;
    let current = rebuilt.as_ref().unwrap_or(plan);
    Ok(match current {
        LogicalPlan::Selection { input, predicate } => {
            let folded = fold_filter_opt(predicate);
            let effective = folded.as_ref().unwrap_or(predicate);
            if *effective == ScalarExpr::Literal(Value::Bool(true)) {
                Some((**input).clone())
            } else {
                match folded {
                    Some(predicate) => {
                        Some(LogicalPlan::Selection { input: input.clone(), predicate })
                    }
                    None => rebuilt,
                }
            }
        }
        LogicalPlan::Projection { input, exprs, distinct } => {
            let folded: Vec<Option<ScalarExpr>> =
                exprs.iter().map(|(e, _)| fold_expr_opt(e)).collect();
            if folded.iter().all(Option::is_none) {
                rebuilt
            } else {
                Some(LogicalPlan::Projection {
                    input: input.clone(),
                    exprs: exprs
                        .iter()
                        .zip(folded)
                        .map(|((e, n), f)| (f.unwrap_or_else(|| e.clone()), n.clone()))
                        .collect(),
                    distinct: *distinct,
                })
            }
        }
        LogicalPlan::Join { left, right, kind, condition: Some(c) } => match fold_filter_opt(c) {
            Some(folded) => Some(LogicalPlan::Join {
                left: left.clone(),
                right: right.clone(),
                kind: *kind,
                condition: Some(folded),
            }),
            None => rebuilt,
        },
        _ => rebuilt,
    })
}

/// Fold constants, then normalize under *filter semantics* (a row passes only when the
/// expression is TRUE, so NULL and FALSE are interchangeable at the top level). Applied to
/// selection predicates and join conditions — the two places where expressions act as filters.
fn fold_filter_opt(expr: &ScalarExpr) -> Option<ScalarExpr> {
    let folded = fold_expr_opt(expr);
    let effective = folded.as_ref().unwrap_or(expr);
    match normalize_filter(effective) {
        Some(normalized) => Some(normalized),
        None => folded,
    }
}

/// Normalize a filter expression. Returns `None` when nothing changed.
///
/// The provenance rewriter's sublink rules (§IV-E) leave behind exactly the shapes this pass
/// targets: a scalar sublink inside an `OR` becomes `(p AND a = b) OR (p AND a = NULL)` on a
/// join, which as written defeats equi-key extraction and forces a nested-loop join. Under
/// filter semantics this pass (a) turns comparisons against a NULL literal into NULL, (b)
/// drops never-true disjuncts and collapses never-true conjuncts, and (c) factors conjuncts
/// common to every `OR` disjunct out of the disjunction — yielding `p AND a = b`, which the
/// executor runs as a hash join.
fn normalize_filter(expr: &ScalarExpr) -> Option<ScalarExpr> {
    let normalized = normalize_filter_expr(expr);
    if normalized == *expr {
        None
    } else {
        Some(normalized)
    }
}

/// Is this literal never TRUE (so a row can never pass a filter made of it)?
fn never_true(e: &ScalarExpr) -> bool {
    matches!(e, ScalarExpr::Literal(Value::Null) | ScalarExpr::Literal(Value::Bool(false)))
}

fn normalize_filter_expr(expr: &ScalarExpr) -> ScalarExpr {
    use perm_algebra::BinaryOperator::{And, Or};
    match expr {
        // Conjuncts and disjuncts of a filter are themselves filter contexts: `a AND b` is
        // TRUE iff both are TRUE, `a OR b` iff either is — so recursion is sound here (and
        // only here; inside NOT or general expressions NULL is not interchangeable with
        // FALSE).
        ScalarExpr::BinaryOp { op: And, left, right } => {
            let l = normalize_filter_expr(left);
            let r = normalize_filter_expr(right);
            if never_true(&l) || never_true(&r) {
                return ScalarExpr::Literal(Value::Bool(false));
            }
            l.and(r)
        }
        ScalarExpr::BinaryOp { op: Or, .. } => {
            let mut disjuncts = Vec::new();
            collect_disjuncts(expr, &mut disjuncts);
            let live: Vec<ScalarExpr> = disjuncts
                .into_iter()
                .map(normalize_filter_expr)
                .filter(|d| !never_true(d))
                .collect();
            match live.len() {
                0 => ScalarExpr::Literal(Value::Bool(false)),
                1 => live.into_iter().next().unwrap_or(ScalarExpr::Literal(Value::Bool(false))),
                _ => factor_common_conjuncts(live),
            }
        }
        // A null-propagating comparison against a NULL is NULL on every row.
        ScalarExpr::BinaryOp { op, left, right }
            if op.is_comparison()
                && !matches!(
                    op,
                    perm_algebra::BinaryOperator::IsDistinctFrom
                        | perm_algebra::BinaryOperator::IsNotDistinctFrom
                )
                && (is_null_constant(left) || is_null_constant(right)) =>
        {
            ScalarExpr::Literal(Value::Null)
        }
        other if is_null_constant(other) => ScalarExpr::Literal(Value::Null),
        other => other.clone(),
    }
}

/// Is `e` NULL on every row: a NULL literal, or a constant that evaluates to NULL? The folder
/// keeps a typed NULL as written (`CAST(NULL AS INT)`, `1 + NULL`; see [`fold_expr_opt`]); in a
/// filter its type does not matter.
fn is_null_constant(e: &ScalarExpr) -> bool {
    match e {
        ScalarExpr::Literal(v) => v.is_null(),
        _ => {
            is_column_and_sublink_free(e) && matches!(evaluate(e, &Tuple::empty()), Ok(Value::Null))
        }
    }
}

/// Flatten an `OR` tree into its disjuncts, in source order.
fn collect_disjuncts<'a>(expr: &'a ScalarExpr, out: &mut Vec<&'a ScalarExpr>) {
    if let ScalarExpr::BinaryOp { op: perm_algebra::BinaryOperator::Or, left, right } = expr {
        collect_disjuncts(left, out);
        collect_disjuncts(right, out);
    } else {
        out.push(expr);
    }
}

/// Factor conjuncts common to every disjunct out of a disjunction:
/// `(A AND B) OR (A AND C)` becomes `A AND (B OR C)`. If some disjunct consists entirely of
/// common conjuncts the residual disjunction is vacuously true and only the common part
/// remains.
fn factor_common_conjuncts(disjuncts: Vec<ScalarExpr>) -> ScalarExpr {
    let conjunct_lists: Vec<Vec<&ScalarExpr>> =
        disjuncts.iter().map(|d| d.split_conjunction()).collect();
    let mut common: Vec<ScalarExpr> = Vec::new();
    for candidate in &conjunct_lists[0] {
        if common.iter().any(|c| c == *candidate) {
            continue; // duplicate conjunct already factored
        }
        if conjunct_lists[1..].iter().all(|list| list.iter().any(|c| c == candidate)) {
            common.push((*candidate).clone());
        }
    }
    if common.is_empty() {
        return disjunction(disjuncts);
    }
    let mut residuals: Vec<ScalarExpr> = Vec::with_capacity(conjunct_lists.len());
    for list in &conjunct_lists {
        let rest: Vec<ScalarExpr> = list
            .iter()
            .filter(|c| !common.iter().any(|f| f == **c))
            .map(|c| (*c).clone())
            .collect();
        if rest.is_empty() {
            // This disjunct is exactly the common part: the residual disjunction is TRUE.
            return ScalarExpr::conjunction(common);
        }
        residuals.push(ScalarExpr::conjunction(rest));
    }
    ScalarExpr::conjunction(common).and(disjunction(residuals))
}

/// Left-fold a non-empty list into an `OR` chain (the shape [`collect_disjuncts`] re-flattens,
/// keeping [`normalize_filter`] idempotent).
fn disjunction(mut disjuncts: Vec<ScalarExpr>) -> ScalarExpr {
    let first = disjuncts.remove(0);
    disjuncts.into_iter().fold(first, |acc, d| acc.or(d))
}

/// Recursively fold constant sub-expressions and simplify boolean connectives with literal
/// TRUE/FALSE operands.
pub fn fold_expr(expr: &ScalarExpr) -> ScalarExpr {
    fold_expr_opt(expr).unwrap_or_else(|| expr.clone())
}

/// [`fold_expr`] that reports "unchanged" as `None` so callers can share the original.
fn fold_expr_opt(expr: &ScalarExpr) -> Option<ScalarExpr> {
    use perm_algebra::BinaryOperator::{And, Or};

    // Fold children first, rebuilding only when a child changed.
    let rebuilt: Option<ScalarExpr> = match expr {
        ScalarExpr::BinaryOp { op, left, right } => {
            match (fold_expr_opt(left), fold_expr_opt(right)) {
                (None, None) => None,
                (l, r) => Some(ScalarExpr::BinaryOp {
                    op: *op,
                    left: Box::new(l.unwrap_or_else(|| (**left).clone())),
                    right: Box::new(r.unwrap_or_else(|| (**right).clone())),
                }),
            }
        }
        ScalarExpr::UnaryOp { op, expr } => fold_expr_opt(expr)
            .map(|folded| ScalarExpr::UnaryOp { op: *op, expr: Box::new(folded) }),
        ScalarExpr::Function { func, args } => {
            let folded: Vec<Option<ScalarExpr>> = args.iter().map(fold_expr_opt).collect();
            if folded.iter().all(Option::is_none) {
                None
            } else {
                Some(ScalarExpr::Function {
                    func: *func,
                    args: args
                        .iter()
                        .zip(folded)
                        .map(|(a, f)| f.unwrap_or_else(|| a.clone()))
                        .collect(),
                })
            }
        }
        ScalarExpr::Cast { expr, data_type } => fold_expr_opt(expr)
            .map(|folded| ScalarExpr::Cast { expr: Box::new(folded), data_type: *data_type }),
        _ => None,
    };
    let current = rebuilt.as_ref().unwrap_or(expr);

    // Boolean simplification.
    if let ScalarExpr::BinaryOp { op, left, right } = current {
        let truth = |e: &ScalarExpr| match e {
            ScalarExpr::Literal(Value::Bool(b)) => Some(*b),
            _ => None,
        };
        match (op, truth(left), truth(right)) {
            (And, Some(true), _) => return Some((**right).clone()),
            (And, _, Some(true)) => return Some((**left).clone()),
            (And, Some(false), _) | (And, _, Some(false)) => {
                return Some(ScalarExpr::Literal(Value::Bool(false)))
            }
            (Or, Some(false), _) => return Some((**right).clone()),
            (Or, _, Some(false)) => return Some((**left).clone()),
            (Or, Some(true), _) | (Or, _, Some(true)) => {
                return Some(ScalarExpr::Literal(Value::Bool(true)))
            }
            _ => {}
        }
    }

    // Evaluate fully-constant expressions once (sublinks are not constants: their plans are
    // executed by the executor, not the folder). A typed NULL stays as written: an untyped NULL
    // literal in its place would change the type the plan declares for its column.
    if !matches!(current, ScalarExpr::Literal(_)) && is_column_and_sublink_free(current) {
        if let Ok(v) = evaluate(current, &Tuple::empty()) {
            if !v.is_null() || current.data_type(&Schema::empty()) == DataType::Null {
                return Some(ScalarExpr::Literal(v));
            }
        }
    }
    rebuilt
}

/// Does the expression reference no columns and contain no sublinks or parameter slots
/// (allocation-free version of [`ScalarExpr::is_constant`])? Parameters must survive to
/// execution time: their values are only known when a prepared statement is bound.
fn is_column_and_sublink_free(expr: &ScalarExpr) -> bool {
    let mut free = true;
    expr.visit(&mut |e| {
        if matches!(
            e,
            ScalarExpr::Column { .. } | ScalarExpr::Sublink { .. } | ScalarExpr::Parameter { .. }
        ) {
            free = false;
        }
    });
    free
}

/// Projection pushdown / column pruning: rebuild the plan so that every operator carries only
/// the attributes its ancestors consume.
///
/// The root keeps its full schema (names, order and types are unchanged). Interior nodes are
/// narrowed: join inputs drop attributes that neither the join condition nor the output needs,
/// and scans feeding wide provenance joins are wrapped in plain-column projections (which the
/// executor fuses back into the scan). Duplicate-sensitive operators are barriers: a DISTINCT
/// projection and both sides of a set operation keep all their columns, and an aggregation
/// always keeps all of its outputs; their *inputs* are still pruned.
pub fn prune_columns(plan: &LogicalPlan) -> Result<LogicalPlan, ExecError> {
    let arity = plan.output_arity();
    if arity == 0 {
        return Ok(plan.clone());
    }
    let all: Vec<usize> = (0..arity).collect();
    let (pruned, kept) = prune(plan, &all)?;
    debug_assert_eq!(kept, all, "the root of a pruned plan must keep its full schema");
    Ok(pruned)
}

/// Core of the pruning pass. `required` lists the output columns (original indices, ascending)
/// the parent needs. Returns the rebuilt plan together with `kept`: the original output columns
/// the new plan actually produces, in order — always a superset of `required` (barriers return
/// more).
fn prune(plan: &LogicalPlan, required: &[usize]) -> Result<(LogicalPlan, Vec<usize>), ExecError> {
    let arity = plan.output_arity();
    if arity == 0 {
        // A zero-width input (`SELECT 1` reads one empty row) has no column to keep or narrow.
        return Ok((plan.clone(), Vec::new()));
    }
    let all = || (0..arity).collect::<Vec<usize>>();
    Ok(match plan {
        LogicalPlan::BaseRelation { .. } => {
            if required.len() == arity {
                (plan.clone(), all())
            } else {
                // Narrow with a plain-column projection; the executor fuses it into the scan.
                (project_onto(plan.clone(), required), required.to_vec())
            }
        }
        LogicalPlan::Values { schema, rows } => {
            if required.len() == arity {
                (plan.clone(), all())
            } else {
                let schema = schema.project(required);
                let rows = rows.iter().map(|t| t.project(required)).collect();
                (LogicalPlan::Values { schema, rows }, required.to_vec())
            }
        }
        LogicalPlan::Projection { input, exprs, distinct } => {
            // DISTINCT compares whole output tuples: dropping a column changes multiplicities,
            // so a distinct projection keeps every output expression.
            let required_out: Vec<usize> =
                if *distinct { (0..exprs.len()).collect() } else { required.to_vec() };
            if fusible_leaf(input) {
                // Leave scan-shaped inputs untouched so the executor's scan fusion still sees
                // projection-over-[selection-over-]base-relation.
                if required_out.len() == exprs.len() {
                    return Ok((plan.clone(), required_out));
                }
                let exprs: Vec<(ScalarExpr, Name)> =
                    required_out.iter().map(|&i| exprs[i].clone()).collect();
                (
                    LogicalPlan::Projection { input: input.clone(), exprs, distinct: *distinct },
                    required_out,
                )
            } else {
                let kept_exprs: Vec<&(ScalarExpr, Name)> =
                    required_out.iter().map(|&i| &exprs[i]).collect();
                let needed = nonempty(columns_of(kept_exprs.iter().map(|(e, _)| e)));
                let (child, kept_child) = prune(input, &needed)?;
                let exprs = kept_exprs
                    .into_iter()
                    .map(|(e, n)| (remap_expr(e, &kept_child), n.clone()))
                    .collect();
                (
                    LogicalPlan::Projection { input: Arc::new(child), exprs, distinct: *distinct },
                    required_out,
                )
            }
        }
        LogicalPlan::Selection { input, predicate } => {
            if fusible_leaf(input) {
                if required.len() == arity {
                    (plan.clone(), all())
                } else {
                    // Narrow above the selection: the executor fuses
                    // projection-over-selection-over-scan into a single filtered scan.
                    (project_onto(plan.clone(), required), required.to_vec())
                }
            } else {
                let needed = nonempty(merge(required, &predicate.columns_used()));
                let (child, kept_child) = prune(input, &needed)?;
                let predicate = remap_expr(predicate, &kept_child);
                (LogicalPlan::Selection { input: Arc::new(child), predicate }, kept_child)
            }
        }
        LogicalPlan::Join { left, right, kind, condition } => {
            let left_arity = left.output_arity();
            let cond_cols = condition.as_ref().map(|c| c.columns_used()).unwrap_or_default();
            let needed = merge(required, &cond_cols);
            let left_needed: Vec<usize> =
                needed.iter().copied().filter(|&c| c < left_arity).collect();
            let right_needed: Vec<usize> = needed
                .iter()
                .copied()
                .filter(|&c| c >= left_arity)
                .map(|c| c - left_arity)
                .collect();
            let (new_left, kept_left) = prune(left, &nonempty(left_needed))?;
            let (new_right, kept_right) = prune(right, &nonempty(right_needed))?;
            let new_left_arity = kept_left.len();
            let condition = condition.as_ref().map(|c| {
                c.map_columns(&mut |i| {
                    if i < left_arity {
                        position_of(&kept_left, i)
                    } else {
                        new_left_arity + position_of(&kept_right, i - left_arity)
                    }
                })
            });
            let mut kept = kept_left;
            kept.extend(kept_right.into_iter().map(|c| c + left_arity));
            (
                LogicalPlan::Join {
                    left: Arc::new(new_left),
                    right: Arc::new(new_right),
                    kind: *kind,
                    condition,
                },
                kept,
            )
        }
        LogicalPlan::Aggregation { input, group_by, aggregates } => {
            // All grouping keys stay (they define the groups) and dropping an aggregate saves
            // nothing structural, so the aggregation keeps its full output; its input is pruned
            // to the columns the keys and aggregate arguments read.
            let mut needed = columns_of(group_by.iter().map(|(e, _)| e));
            for (a, _) in aggregates {
                if let Some(arg) = &a.arg {
                    needed = merge(&needed, &arg.columns_used());
                }
            }
            let (child, kept_child) = prune(input, &nonempty(needed))?;
            let group_by =
                group_by.iter().map(|(e, n)| (remap_expr(e, &kept_child), n.clone())).collect();
            let aggregates = aggregates
                .iter()
                .map(|(a, n)| {
                    let arg = a.arg.as_ref().map(|e| remap_expr(e, &kept_child));
                    (
                        perm_algebra::AggregateExpr { func: a.func, arg, distinct: a.distinct },
                        n.clone(),
                    )
                })
                .collect();
            (LogicalPlan::Aggregation { input: Arc::new(child), group_by, aggregates }, all())
        }
        LogicalPlan::SetOp { left, right, kind, semantics } => {
            // Set operations compare whole tuples: both sides must keep every column (their
            // sub-plans are still pruned internally against that full requirement).
            let left_all: Vec<usize> = (0..left.output_arity()).collect();
            let (new_left, _) = prune(left, &left_all)?;
            let (new_right, _) = prune(right, &left_all)?;
            (
                LogicalPlan::SetOp {
                    left: Arc::new(new_left),
                    right: Arc::new(new_right),
                    kind: *kind,
                    semantics: *semantics,
                },
                all(),
            )
        }
        LogicalPlan::Sort { input, keys } => {
            let mut needed = required.to_vec();
            for k in keys {
                needed = merge(&needed, &k.expr.columns_used());
            }
            let (child, kept_child) = prune(input, &nonempty(needed))?;
            let keys = keys
                .iter()
                .map(|k| perm_algebra::SortKey {
                    expr: remap_expr(&k.expr, &kept_child),
                    order: k.order,
                })
                .collect();
            (LogicalPlan::Sort { input: Arc::new(child), keys }, kept_child)
        }
        LogicalPlan::Limit { input, limit, offset } => {
            let (child, kept_child) = prune(input, required)?;
            (
                LogicalPlan::Limit { input: Arc::new(child), limit: *limit, offset: *offset },
                kept_child,
            )
        }
        LogicalPlan::SubqueryAlias { input, alias } => {
            let (child, kept_child) = prune(input, required)?;
            (
                LogicalPlan::SubqueryAlias { input: Arc::new(child), alias: alias.clone() },
                kept_child,
            )
        }
        LogicalPlan::ProvenanceAnnotation { input, kind } => {
            // The rewriter interprets this node's attribute lists against its input schema, so
            // the input must keep every column — but the sub-plan underneath still prunes its
            // own interior (the analyzer wraps every rewritten query in an annotation, so
            // without this recursion provenance queries would never be pruned at all).
            let input_all: Vec<usize> = (0..input.output_arity()).collect();
            let (child, _) = prune(input, &input_all)?;
            (
                LogicalPlan::ProvenanceAnnotation { input: Arc::new(child), kind: kind.clone() },
                all(),
            )
        }
    })
}

/// Is the plan a shape the executor fuses into a single scan iterator
/// (base relation, or selection directly over one, modulo aliases/annotations)? Uses the
/// executor's own transparency stripping so both sides agree on what "scan-shaped" means.
fn fusible_leaf(plan: &LogicalPlan) -> bool {
    use crate::executor::strip_transparent;
    match strip_transparent(plan) {
        LogicalPlan::BaseRelation { .. } => true,
        LogicalPlan::Selection { input, .. } => {
            matches!(strip_transparent(input), LogicalPlan::BaseRelation { .. })
        }
        _ => false,
    }
}

/// Wrap `plan` in a plain-column projection onto `positions` (preserving attribute names).
pub(crate) fn project_onto(plan: LogicalPlan, positions: &[usize]) -> LogicalPlan {
    let schema = plan.schema();
    let exprs = positions
        .iter()
        .map(|&i| {
            let name: Name =
                schema.attribute(i).map_or_else(|_| format!("c{i}").into(), |a| a.name.clone());
            (ScalarExpr::column(i, name.clone()), name)
        })
        .collect();
    LogicalPlan::Projection { input: Arc::new(plan), exprs, distinct: false }
}

/// Union of the column sets used by a list of expressions (sorted, deduplicated).
fn columns_of<'a>(exprs: impl Iterator<Item = &'a ScalarExpr>) -> Vec<usize> {
    let mut cols: Vec<usize> = exprs.flat_map(|e| e.columns_used()).collect();
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// Merge two sorted column lists (sorted, deduplicated).
fn merge(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out: Vec<usize> = a.iter().chain(b.iter()).copied().collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// A non-empty requirement set: an operator cannot produce zero-width tuples, so ask for the
/// first column when nothing is referenced (e.g. a pure cross-product side feeding `COUNT(*)`).
fn nonempty(cols: Vec<usize>) -> Vec<usize> {
    if cols.is_empty() {
        vec![0]
    } else {
        cols
    }
}

/// Position of original column `col` within the kept list (the new index after pruning).
fn position_of(kept: &[usize], col: usize) -> usize {
    // Pruning keeps every referenced column, so the search cannot miss; the insertion
    // slot is deterministic filler for the unreachable miss.
    kept.binary_search(&col).unwrap_or_else(|slot| slot)
}

/// Remap an expression's columns through the kept list. Sublink plans are untouched (they are
/// uncorrelated and optimized separately).
fn remap_expr(expr: &ScalarExpr, kept: &[usize]) -> ScalarExpr {
    expr.map_columns(&mut |i| position_of(kept, i))
}

/// Apply `f` to every child of `plan`; `None` when no child changed (so `plan` can be shared).
pub(crate) fn rebuild_children<F>(
    plan: &LogicalPlan,
    f: &F,
) -> Result<Option<LogicalPlan>, ExecError>
where
    F: Fn(&LogicalPlan) -> Result<Option<LogicalPlan>, ExecError>,
{
    let children = plan.children();
    if children.is_empty() {
        return Ok(None);
    }
    let mut new_children: Vec<Arc<LogicalPlan>> = Vec::with_capacity(children.len());
    let mut changed = false;
    for child in children {
        match f(child)? {
            Some(new_child) => {
                changed = true;
                new_children.push(Arc::new(new_child));
            }
            None => new_children.push(Arc::clone(child)),
        }
    }
    if !changed {
        return Ok(None);
    }
    Ok(Some(plan.with_new_children(new_children)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_algebra::{DataType, PlanBuilder, Schema};

    fn scans() -> (PlanBuilder, PlanBuilder) {
        let a = PlanBuilder::scan(
            "a",
            Schema::from_pairs(&[("x", DataType::Int), ("y", DataType::Int)]),
            0,
        );
        let b = PlanBuilder::scan("b", Schema::from_pairs(&[("z", DataType::Int)]), 1);
        (a, b)
    }

    #[test]
    fn cross_product_with_join_predicate_becomes_inner_join() {
        let (a, b) = scans();
        let plan = a
            .cross_join(b)
            .filter(
                ScalarExpr::column(0, "x")
                    .eq(ScalarExpr::column(2, "z"))
                    .and(ScalarExpr::column(1, "y").eq(ScalarExpr::literal(5i64))),
            )
            .build();
        let optimized = Optimizer::new().optimize(&plan).unwrap();
        // Top node must now be an inner join with a condition; the y=5 predicate must have moved
        // below the join onto relation a.
        match &optimized {
            LogicalPlan::Join { kind, condition, left, .. } => {
                assert_eq!(*kind, JoinKind::Inner);
                assert!(condition.is_some());
                match left.as_ref() {
                    LogicalPlan::Selection { predicate, .. } => {
                        assert_eq!(predicate.columns_used(), vec![1]);
                    }
                    other => panic!("expected pushed selection on the left input, got {other:?}"),
                }
            }
            other => panic!("expected a join at the top, got {other:?}"),
        }
    }

    #[test]
    fn adjacent_selections_are_merged() {
        let (a, _) = scans();
        let plan = a
            .filter(ScalarExpr::column(0, "x").eq(ScalarExpr::literal(1i64)))
            .filter(ScalarExpr::column(1, "y").eq(ScalarExpr::literal(2i64)))
            .build();
        let optimized = Optimizer::new().optimize(&plan).unwrap();
        match &optimized {
            LogicalPlan::Selection { predicate, input } => {
                assert_eq!(predicate.split_conjunction().len(), 2);
                assert!(matches!(input.as_ref(), LogicalPlan::BaseRelation { .. }));
            }
            other => panic!("expected a single merged selection, got {other:?}"),
        }
    }

    #[test]
    fn trivially_true_selection_is_removed() {
        let (a, _) = scans();
        let plan = a.filter(ScalarExpr::literal(true)).build();
        let optimized = Optimizer::new().optimize(&plan).unwrap();
        assert!(matches!(optimized, LogicalPlan::BaseRelation { .. }));
    }

    #[test]
    fn constant_expressions_are_folded() {
        let e = ScalarExpr::binary(
            perm_algebra::BinaryOperator::Add,
            ScalarExpr::literal(1i64),
            ScalarExpr::literal(2i64),
        );
        assert_eq!(fold_expr(&e), ScalarExpr::Literal(Value::Int(3)));
        let e =
            ScalarExpr::literal(true).and(ScalarExpr::column(0, "x").eq(ScalarExpr::literal(1i64)));
        assert_eq!(fold_expr(&e), ScalarExpr::column(0, "x").eq(ScalarExpr::literal(1i64)));
    }

    #[test]
    fn selection_pushes_through_plain_projection() {
        let (a, _) = scans();
        let x = a.col("x").unwrap();
        let plan = a
            .project(vec![(x, "x".into())])
            .filter(ScalarExpr::column(0, "x").eq(ScalarExpr::literal(3i64)))
            .build();
        let optimized = Optimizer::new().optimize(&plan).unwrap();
        match &optimized {
            LogicalPlan::Projection { input, .. } => {
                assert!(matches!(input.as_ref(), LogicalPlan::Selection { .. }));
            }
            other => panic!("expected projection on top after pushdown, got {other:?}"),
        }
    }

    #[test]
    fn optimizer_preserves_semantics_on_outer_joins() {
        // Selections above outer joins must not be pushed below them.
        let (a, b) = scans();
        let cond = ScalarExpr::column(0, "x").eq(ScalarExpr::column(2, "z"));
        let plan = a
            .join(b, JoinKind::LeftOuter, Some(cond))
            .filter(ScalarExpr::column(2, "z").eq(ScalarExpr::literal(1i64)))
            .build();
        let optimized = Optimizer::new().optimize(&plan).unwrap();
        assert!(matches!(optimized, LogicalPlan::Selection { .. }));
    }

    #[test]
    fn filter_normalization_simplifies_null_comparison_disjuncts() {
        // The provenance rewriter's scalar-sublink rule emits join conditions shaped like
        // `(A AND B) OR (A AND col = NULL)`. Under filter semantics `col = NULL` can never be
        // true, so the condition must normalize to `A AND B` — which then yields equi keys for a
        // hash join instead of a nested loop.
        let a = ScalarExpr::column(0, "x").eq(ScalarExpr::column(2, "z"));
        let b = ScalarExpr::column(1, "y").eq(ScalarExpr::column(2, "z"));
        let never = ScalarExpr::column(2, "z").eq(ScalarExpr::literal(Value::Null));
        let cond = a.clone().and(b.clone()).or(a.clone().and(never));
        assert_eq!(fold_filter_opt(&cond), Some(a.and(b)));
    }

    /// A typed constant NULL stays typed in an expression, but a filter treats it as NULL: the
    /// conjunction it is in never holds, and a selection of it sees no rows.
    #[test]
    fn filter_normalization_prunes_typed_null_constants() {
        let int_null = || ScalarExpr::Cast {
            expr: Box::new(ScalarExpr::literal(Value::Null)),
            data_type: DataType::Int,
        };
        let add = perm_algebra::BinaryOperator::Add;
        let gt = |l: ScalarExpr, r: i64| {
            ScalarExpr::binary(perm_algebra::BinaryOperator::Gt, l, ScalarExpr::literal(r))
        };
        assert_eq!(fold_expr(&int_null()), int_null(), "a typed NULL keeps its type");
        assert_eq!(fold_filter_opt(&gt(int_null(), 1)), Some(ScalarExpr::Literal(Value::Null)));
        let one_plus_null = ScalarExpr::binary(add, ScalarExpr::literal(1i64), int_null());
        let x = ScalarExpr::column(0, "x");
        let cond = gt(x.clone(), 1).and(gt(one_plus_null, 2));
        assert_eq!(fold_filter_opt(&cond), Some(ScalarExpr::Literal(Value::Bool(false))));
        let cond = gt(x.clone(), 1).or(x.clone().eq(int_null()));
        assert_eq!(fold_filter_opt(&cond), Some(gt(x, 1)));
        let (a, _) = scans();
        let plan = a.filter(gt(int_null(), 1)).build();
        let optimized = Optimizer::new().optimize(&plan).unwrap();
        let LogicalPlan::Selection { predicate, .. } = &optimized else {
            panic!("expected a selection, got {optimized:?}")
        };
        assert_eq!(*predicate, ScalarExpr::Literal(Value::Null));
    }

    #[test]
    fn filter_normalization_factors_common_conjuncts_out_of_or() {
        let a = ScalarExpr::column(0, "x").eq(ScalarExpr::column(2, "z"));
        let b = ScalarExpr::column(1, "y").eq(ScalarExpr::literal(1i64));
        let c = ScalarExpr::column(1, "y").eq(ScalarExpr::literal(2i64));
        let cond = a.clone().and(b.clone()).or(a.clone().and(c.clone()));
        assert_eq!(fold_filter_opt(&cond), Some(a.and(b.or(c))));
    }

    #[test]
    fn left_only_conjunct_pushes_through_left_outer_join() {
        // A conjunct that references only the preserved (left) side of a LEFT OUTER join filters
        // the same rows whether applied above or below the join, so it must be pushed down; the
        // right-side conjunct has to stay above the join.
        let (a, b) = scans();
        let cond = ScalarExpr::column(0, "x").eq(ScalarExpr::column(2, "z"));
        let plan = a
            .join(b, JoinKind::LeftOuter, Some(cond))
            .filter(
                ScalarExpr::column(1, "y")
                    .eq(ScalarExpr::literal(7i64))
                    .and(ScalarExpr::column(2, "z").eq(ScalarExpr::literal(1i64))),
            )
            .build();
        let optimized = Optimizer::new().optimize(&plan).unwrap();
        optimized.verify().unwrap();
        match &optimized {
            LogicalPlan::Selection { predicate, input } => {
                // Only the right-side conjunct remains above the join.
                assert_eq!(predicate.columns_used(), vec![2]);
                match input.as_ref() {
                    LogicalPlan::Join { kind: JoinKind::LeftOuter, left, .. } => {
                        match left.as_ref() {
                            LogicalPlan::Selection { predicate, .. } => {
                                assert_eq!(predicate.columns_used(), vec![1]);
                            }
                            other => {
                                panic!("expected pushed selection on left input, got {other:?}")
                            }
                        }
                    }
                    other => panic!("expected left outer join below selection, got {other:?}"),
                }
            }
            other => panic!("expected selection above the join, got {other:?}"),
        }
    }

    #[test]
    fn optimized_plans_validate() {
        let (a, b) = scans();
        let plan = a
            .cross_join(b)
            .filter(ScalarExpr::column(0, "x").eq(ScalarExpr::column(2, "z")))
            .build();
        let optimized = Optimizer::new().optimize(&plan).unwrap();
        optimized.verify().unwrap();
    }

    #[test]
    fn optimize_is_idempotent() {
        // A second optimize() run must not keep restructuring the plan (e.g. stacking pruning
        // projections); PermDb optimizes a plan again when executing one produced by plan_sql.
        let (a, b) = scans();
        let x = a.col("x").unwrap();
        let plan = a
            .cross_join(b)
            .filter(ScalarExpr::column(0, "x").eq(ScalarExpr::column(2, "z")))
            .project(vec![(x, "x".into())])
            .build();
        let once = Optimizer::new().optimize(&plan).unwrap();
        let twice = Optimizer::new().optimize(&once).unwrap();
        assert_eq!(once, twice);
    }

    // --- column pruning ---

    fn wide_scans() -> (PlanBuilder, PlanBuilder) {
        let a = PlanBuilder::scan(
            "wide_a",
            Schema::from_pairs(&[
                ("a0", DataType::Int),
                ("a1", DataType::Int),
                ("a2", DataType::Text),
                ("a3", DataType::Text),
            ]),
            0,
        );
        let b = PlanBuilder::scan(
            "wide_b",
            Schema::from_pairs(&[
                ("b0", DataType::Int),
                ("b1", DataType::Text),
                ("b2", DataType::Float),
            ]),
            1,
        );
        (a, b)
    }

    #[test]
    fn pruning_narrows_join_inputs() {
        // SELECT a1 FROM wide_a JOIN wide_b ON a0 = b0: the join needs only a0, a1, b0.
        let (a, b) = wide_scans();
        let cond = ScalarExpr::column(0, "a0").eq(ScalarExpr::column(4, "b0"));
        let joined = a.join(b, JoinKind::Inner, Some(cond));
        let a1 = joined.col("a1").unwrap();
        let plan = joined.project(vec![(a1, "a1".into())]).build();
        let optimized = Optimizer::new().optimize(&plan).unwrap();
        optimized.verify().unwrap();
        assert_eq!(optimized.schema().attribute_names(), vec!["a1"]);
        let LogicalPlan::Projection { input, .. } = &optimized else {
            panic!("expected projection on top, got {optimized:?}");
        };
        let LogicalPlan::Join { left, right, condition, .. } = input.as_ref() else {
            panic!("expected a join below, got {input:?}");
        };
        assert_eq!(left.output_arity(), 2, "left side keeps only a0, a1");
        assert_eq!(right.output_arity(), 1, "right side keeps only b0");
        // The remapped condition references the narrowed column space.
        assert_eq!(condition.as_ref().unwrap().columns_used(), vec![0, 2]);
    }

    #[test]
    fn pruning_leaves_a_zero_width_input_alone() {
        // SELECT 1: a projection over one row of no columns.
        let one_empty_row = LogicalPlan::Values {
            schema: Schema::empty(),
            rows: vec![perm_algebra::Tuple::new(vec![])],
        };
        let plan = PlanBuilder::from_plan(one_empty_row)
            .project(vec![(ScalarExpr::literal(1i64), "c".into())])
            .build();
        let optimized = Optimizer::new().optimize(&plan).unwrap();
        optimized.verify().unwrap();
        assert_eq!(optimized, plan);
    }

    #[test]
    fn pruning_respects_distinct_and_set_op_barriers() {
        let (a, _) = wide_scans();
        // DISTINCT over two columns, of which the parent only needs one: both must survive
        // (dropping a2 would change multiplicities — and here even the distinct row count).
        let a1 = a.col("a1").unwrap();
        let a2 = a.col("a2").unwrap();
        let plan = a
            .project_distinct(vec![(a1, "a1".into()), (a2, "a2".into())])
            .project(vec![(ScalarExpr::column(0, "a1"), "a1".into())])
            .build();
        let optimized = Optimizer::new().optimize(&plan).unwrap();
        optimized.verify().unwrap();
        let LogicalPlan::Projection { input, .. } = &optimized else {
            panic!("expected outer projection, got {optimized:?}");
        };
        assert_eq!(input.output_arity(), 2, "distinct projection keeps both columns");
    }

    #[test]
    fn pruning_keeps_aggregation_inputs_minimal() {
        let (a, _) = wide_scans();
        let a0 = a.col("a0").unwrap();
        let a1 = a.col("a1").unwrap();
        let plan = a
            .aggregate(
                vec![(a0, "a0".into())],
                vec![(
                    perm_algebra::AggregateExpr::new(perm_algebra::AggregateFunction::Sum, a1),
                    "s".into(),
                )],
            )
            .build();
        let optimized = Optimizer::new().optimize(&plan).unwrap();
        optimized.verify().unwrap();
        let LogicalPlan::Aggregation { input, .. } = &optimized else {
            panic!("expected aggregation at the top, got {optimized:?}");
        };
        assert_eq!(input.output_arity(), 2, "aggregation input keeps only a0 and a1");
    }

    #[test]
    fn pruning_emulates_r4_provenance_join_shape() {
        // The shape rules R1, R4 and R2 produce: the bare join of two scans (every base
        // attribute is also a provenance attribute), under a projection that keeps the original
        // output plus all prov_* attributes of one side only. The other side's payload columns
        // must be pruned out of the join.
        let (a, b) = wide_scans();
        let cond = ScalarExpr::column(0, "a0").eq(ScalarExpr::column(4, "b0"));
        let joined = a.join(b, JoinKind::Inner, Some(cond));
        // Keep a0 plus the full "provenance copy" of wide_a (columns 0..4), nothing of wide_b.
        let exprs = vec![
            (ScalarExpr::column(0, "a0"), "a0".into()),
            (ScalarExpr::column(0, "a0"), "prov_a_a0".into()),
            (ScalarExpr::column(1, "a1"), "prov_a_a1".into()),
            (ScalarExpr::column(2, "a2"), "prov_a_a2".into()),
            (ScalarExpr::column(3, "a3"), "prov_a_a3".into()),
        ];
        let plan = joined.project(exprs).build();
        let optimized = Optimizer::new().optimize(&plan).unwrap();
        optimized.verify().unwrap();
        let LogicalPlan::Projection { input, .. } = &optimized else {
            panic!("expected projection on top, got {optimized:?}");
        };
        let LogicalPlan::Join { left, right, .. } = input.as_ref() else {
            panic!("expected a join below, got {input:?}");
        };
        assert_eq!(left.output_arity(), 4, "all of wide_a is provenance output");
        assert_eq!(right.output_arity(), 1, "wide_b shrinks to its join key");
    }
}

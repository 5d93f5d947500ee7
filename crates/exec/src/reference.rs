//! A deliberately naive, fully materializing reference evaluator.
//!
//! This module is the *executable specification* of operator semantics — the oracle: every
//! operator materializes its complete input as rows before producing output, every join is a
//! nested loop, and expressions are evaluated by the tree-walking interpreter in
//! [`crate::eval`] — no hash tables, no compiled expressions, no chunks, no morsels, no fusion.
//! Property tests assert that the engine ([`crate::executor::Executor`], at every degree)
//! produces bag-identical relations on arbitrary plans, including provenance-rewritten ones.
//!
//! Resource limits are deliberately not enforced here, and a `LIMIT` never cuts evaluation
//! short (so a runtime error anywhere in the plan surfaces); the reference path exists for
//! correctness comparison, not production execution.

use perm_algebra::{
    JoinKind, LogicalPlan, ScalarExpr, SetOpKind, SetSemantics, SortOrder, SublinkKind, Tuple,
    Value,
};
use perm_storage::{Catalog, Relation};

use crate::error::ExecError;
use crate::eval::{evaluate, evaluate_predicate};
use crate::executor::Accumulator;

/// Execute `plan` with the reference semantics, returning the materialized result.
pub fn execute_reference(catalog: &Catalog, plan: &LogicalPlan) -> Result<Relation, ExecError> {
    Ok(Relation::from_parts(plan.schema(), run(catalog, plan)?))
}

fn run(catalog: &Catalog, plan: &LogicalPlan) -> Result<Vec<Tuple>, ExecError> {
    Ok(match plan {
        LogicalPlan::BaseRelation { name, schema, .. } => {
            let table = catalog.table(name)?;
            if table.schema().arity() != schema.arity() {
                return Err(ExecError::Internal(format!(
                    "stored table '{name}' has arity {} but the plan expects {}",
                    table.schema().arity(),
                    schema.arity()
                )));
            }
            table.into_tuples()
        }
        LogicalPlan::Values { rows, .. } => rows.clone(),
        LogicalPlan::Projection { input, exprs, distinct } => {
            let rows = run(catalog, input)?;
            let exprs: Vec<ScalarExpr> = exprs
                .iter()
                .map(|(e, _)| resolve_sublinks(catalog, e))
                .collect::<Result<_, _>>()?;
            let mut out = Vec::with_capacity(rows.len());
            for row in &rows {
                let values =
                    exprs.iter().map(|e| evaluate(e, row)).collect::<Result<Vec<_>, _>>()?;
                out.push(Tuple::new(values));
            }
            if *distinct {
                out = first_occurrences(out);
            }
            out
        }
        LogicalPlan::Selection { input, predicate } => {
            let rows = run(catalog, input)?;
            let predicate = resolve_sublinks(catalog, predicate)?;
            let mut out = Vec::new();
            for row in rows {
                if evaluate_predicate(&predicate, &row)? {
                    out.push(row);
                }
            }
            out
        }
        LogicalPlan::Join { left, right, kind, condition } => {
            let left_rows = run(catalog, left)?;
            let right_rows = run(catalog, right)?;
            let left_arity = left.schema().arity();
            let right_arity = right.schema().arity();
            let condition = condition.as_ref().map(|c| resolve_sublinks(catalog, c)).transpose()?;
            let mut out = Vec::new();
            let mut right_matched = vec![false; right_rows.len()];
            for left_row in &left_rows {
                let mut matched = false;
                for (ri, right_row) in right_rows.iter().enumerate() {
                    let combined = left_row.concat(right_row);
                    let keep = match &condition {
                        Some(c) => evaluate_predicate(c, &combined)?,
                        None => true,
                    };
                    if keep {
                        matched = true;
                        right_matched[ri] = true;
                        out.push(combined);
                    }
                }
                if !matched && matches!(kind, JoinKind::LeftOuter | JoinKind::FullOuter) {
                    out.push(left_row.concat(&Tuple::nulls(right_arity)));
                }
            }
            if matches!(kind, JoinKind::RightOuter | JoinKind::FullOuter) {
                for (ri, matched) in right_matched.iter().enumerate() {
                    if !matched {
                        out.push(Tuple::nulls(left_arity).concat(&right_rows[ri]));
                    }
                }
            }
            out
        }
        LogicalPlan::Aggregation { input, group_by, aggregates } => {
            let rows = run(catalog, input)?;
            let group_by: Vec<ScalarExpr> = group_by
                .iter()
                .map(|(e, _)| resolve_sublinks(catalog, e))
                .collect::<Result<_, _>>()?;
            let aggregates: Vec<perm_algebra::AggregateExpr> = aggregates
                .iter()
                .map(|(a, _)| {
                    let arg = a.arg.as_ref().map(|e| resolve_sublinks(catalog, e)).transpose()?;
                    Ok(perm_algebra::AggregateExpr { func: a.func, arg, distinct: a.distinct })
                })
                .collect::<Result<_, ExecError>>()?;
            // Groups in first-seen order, found by linear scan (quadratic but simple).
            let mut keys: Vec<Tuple> = Vec::new();
            let mut accs: Vec<Vec<Accumulator>> = Vec::new();
            for row in &rows {
                let key_values =
                    group_by.iter().map(|e| evaluate(e, row)).collect::<Result<Vec<_>, _>>()?;
                let key = Tuple::new(key_values);
                let slot = match keys.iter().position(|k| *k == key) {
                    Some(i) => i,
                    None => {
                        keys.push(key);
                        accs.push(aggregates.iter().map(Accumulator::new).collect());
                        keys.len() - 1
                    }
                };
                for (agg, acc) in aggregates.iter().zip(accs[slot].iter_mut()) {
                    let value = match &agg.arg {
                        Some(e) => Some(evaluate(e, row)?),
                        None => None,
                    };
                    acc.update(value)?;
                }
            }
            if group_by.is_empty() && rows.is_empty() {
                let values: Vec<Value> =
                    aggregates.iter().map(|a| Accumulator::new(a).finish()).collect();
                return Ok(vec![Tuple::new(values)]);
            }
            keys.into_iter()
                .zip(accs)
                .map(|(key, accs)| {
                    let mut values = key.into_values();
                    values.extend(accs.into_iter().map(Accumulator::finish));
                    Tuple::new(values)
                })
                .collect()
        }
        LogicalPlan::SetOp { left, right, kind, semantics } => {
            let left_rows = run(catalog, left)?;
            let right_rows = run(catalog, right)?;
            set_operation(left_rows, right_rows, *kind, *semantics)
        }
        LogicalPlan::Sort { input, keys } => {
            let rows = run(catalog, input)?;
            // Decorate–sort–undecorate with the interpreter.
            let mut decorated: Vec<(Vec<Value>, Tuple)> = rows
                .into_iter()
                .map(|row| {
                    let ks = keys
                        .iter()
                        .map(|k| evaluate(&k.expr, &row))
                        .collect::<Result<Vec<_>, _>>()?;
                    Ok((ks, row))
                })
                .collect::<Result<_, ExecError>>()?;
            decorated.sort_by(|(a, _), (b, _)| {
                for (idx, k) in keys.iter().enumerate() {
                    let ord = match k.order {
                        SortOrder::Ascending => a[idx].cmp(&b[idx]),
                        SortOrder::Descending => b[idx].cmp(&a[idx]),
                    };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            decorated.into_iter().map(|(_, row)| row).collect()
        }
        LogicalPlan::Limit { input, limit, offset } => {
            // The contrast to the engine: the limit never reaches into the input's evaluation.
            let rows = run(catalog, input)?;
            rows.into_iter().skip(*offset).take(limit.unwrap_or(usize::MAX)).collect()
        }
        LogicalPlan::SubqueryAlias { input, .. } => run(catalog, input)?,
        LogicalPlan::ProvenanceAnnotation { input, .. } => run(catalog, input)?,
    })
}

/// Keep the first occurrence of each distinct tuple (DISTINCT semantics), by linear scan.
fn first_occurrences(rows: Vec<Tuple>) -> Vec<Tuple> {
    let mut out: Vec<Tuple> = Vec::new();
    for row in rows {
        if !out.contains(&row) {
            out.push(row);
        }
    }
    out
}

/// Set operations by counting multiplicities with linear scans (Figure 1 laws: n+m, min(n,m),
/// n−m).
fn set_operation(
    left: Vec<Tuple>,
    right: Vec<Tuple>,
    kind: SetOpKind,
    semantics: SetSemantics,
) -> Vec<Tuple> {
    let multiplicity = |rows: &[Tuple], t: &Tuple| rows.iter().filter(|r| *r == t).count();
    match kind {
        SetOpKind::Union => {
            let mut out = left;
            out.extend(right);
            if semantics == SetSemantics::Set {
                out = first_occurrences(out);
            }
            out
        }
        SetOpKind::Intersect => {
            let universe = first_occurrences(left.clone());
            let mut out = Vec::new();
            for t in universe {
                let n = multiplicity(&left, &t);
                let m = multiplicity(&right, &t);
                let count = match semantics {
                    SetSemantics::Bag => n.min(m),
                    SetSemantics::Set => usize::from(n > 0 && m > 0),
                };
                for _ in 0..count {
                    out.push(t.clone());
                }
            }
            out
        }
        SetOpKind::Difference => {
            let universe = first_occurrences(left.clone());
            let mut out = Vec::new();
            for t in universe {
                let n = multiplicity(&left, &t);
                let m = multiplicity(&right, &t);
                let count = match semantics {
                    SetSemantics::Bag => n.saturating_sub(m),
                    SetSemantics::Set => usize::from(n > 0 && m == 0),
                };
                for _ in 0..count {
                    out.push(t.clone());
                }
            }
            out
        }
    }
}

/// Replace uncorrelated sublinks with their evaluated results: `EXISTS` becomes a boolean
/// literal, a scalar subquery becomes a value literal (raising
/// [`ExecError::ScalarSubqueryTooManyRows`] when it yields more than one row), and
/// `IN (SELECT ...)` becomes an `IN (value, ...)` list. Each subquery plan is executed exactly
/// once, with the reference semantics.
fn resolve_sublinks(catalog: &Catalog, expr: &ScalarExpr) -> Result<ScalarExpr, ExecError> {
    if !expr.has_sublink() {
        return Ok(expr.clone());
    }
    let mut error: Option<ExecError> = None;
    let resolved = expr.transform(&mut |e| {
        if error.is_some() {
            return e;
        }
        let ScalarExpr::Sublink { kind, operand, negated, plan } = &e else {
            return e;
        };
        match run(catalog, plan) {
            Ok(rows) => match kind {
                SublinkKind::Exists => {
                    ScalarExpr::Literal(Value::Bool(rows.is_empty() == *negated))
                }
                SublinkKind::Scalar => {
                    if rows.len() > 1 {
                        error = Some(ExecError::ScalarSubqueryTooManyRows);
                        return e;
                    }
                    let value = rows.first().and_then(|t| t.get(0)).cloned().unwrap_or(Value::Null);
                    ScalarExpr::Literal(value)
                }
                SublinkKind::InSubquery => {
                    let operand = match operand {
                        Some(op) => (**op).clone(),
                        None => {
                            error =
                                Some(ExecError::Internal("IN sublink without an operand".into()));
                            return e;
                        }
                    };
                    let list = rows
                        .iter()
                        .map(|t| ScalarExpr::Literal(t.get(0).cloned().unwrap_or(Value::Null)))
                        .collect();
                    ScalarExpr::InList { expr: Box::new(operand), list, negated: *negated }
                }
            },
            Err(err) => {
                error = Some(err);
                e
            }
        }
    });
    match error {
        Some(err) => Err(err),
        None => Ok(resolved),
    }
}

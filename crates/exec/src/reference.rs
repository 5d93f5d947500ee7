//! A deliberately naive, pulled reference evaluator: the oracle.
//!
//! This module is the *executable specification* of operator semantics and of when a query
//! fails. Every operator is an iterator over its input's tuples, as relop's operators wrap the
//! result set they pull. A selection, projection, alias or `LIMIT` pulls one row at a time. A
//! breaker — sort, aggregation, set operation, DISTINCT, and a join's two inputs — consumes its
//! whole input when it is opened. A join then yields left row by left row, each with its right
//! rows in order, and then the right rows a RIGHT or FULL join pads. Joins are nested loops and
//! expressions are evaluated by the tree-walking interpreter in [`crate::eval`]: no hash tables,
//! no compiled expressions, no chunks, no morsels.
//!
//! **When a query fails.** A query fails if and only if evaluating, in plan order, the rows its
//! output needs meets an error, and then it fails with the first such error. A `LIMIT` stops
//! pulling once it has its rows; an `EXISTS` pulls at most one row of its plan, a scalar sublink
//! two, and an `IN` all of them. Nothing behind the last row pulled is evaluated. Property tests
//! assert that the engine ([`crate::executor::Executor`], at every degree) has the same outcome
//! — the same bag of rows, or the same error — on arbitrary plans, provenance-rewritten ones
//! included. Resource limits are not enforced here.

use perm_algebra::{
    AggregateExpr, JoinKind, LogicalPlan, ScalarExpr, SetOpKind, SetSemantics, SortOrder,
    SublinkKind, Tuple, Value,
};
use perm_storage::{Catalog, Relation};

use crate::error::ExecError;
use crate::eval::{evaluate, evaluate_predicate};
use crate::executor::Accumulator;

/// An opened operator: its output rows, each evaluated as it is pulled.
type Rows<'a> = Box<dyn Iterator<Item = Result<Tuple, ExecError>> + 'a>;

/// Execute `plan` with the reference semantics, returning the materialized result.
pub fn execute_reference(catalog: &Catalog, plan: &LogicalPlan) -> Result<Relation, ExecError> {
    Ok(Relation::from_parts(plan.schema(), all(catalog, plan)?))
}

/// Every row of `plan`, pulled.
fn all(catalog: &Catalog, plan: &LogicalPlan) -> Result<Vec<Tuple>, ExecError> {
    open(catalog, plan)?.collect()
}

/// Open `plan`: its breakers run now, its streaming operators as their rows are pulled. An
/// operator resolves its own sublinks before it opens its input, and a join evaluates its right
/// input first, as the engine does.
fn open<'a>(catalog: &'a Catalog, plan: &'a LogicalPlan) -> Result<Rows<'a>, ExecError> {
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
            Box::new(table.into_tuples().into_iter().map(Ok))
        }
        LogicalPlan::Values { rows, .. } => Box::new(rows.iter().cloned().map(Ok)),
        LogicalPlan::Projection { input, exprs, distinct } => {
            let exprs = resolve_all(catalog, exprs)?;
            let rows = open(catalog, input)?.map(move |row| {
                let row = row?;
                Ok(Tuple::new(exprs.iter().map(|e| evaluate(e, &row)).collect::<Result<_, _>>()?))
            });
            match distinct {
                true => {
                    let distinct = first_occurrences(rows.collect::<Result<_, _>>()?);
                    Box::new(distinct.into_iter().map(Ok))
                }
                false => Box::new(rows),
            }
        }
        LogicalPlan::Selection { input, predicate } => {
            let predicate = resolve_sublinks(catalog, predicate)?;
            Box::new(open(catalog, input)?.filter_map(move |row| {
                match row.as_ref().map_or(Ok(true), |row| evaluate_predicate(&predicate, row)) {
                    Ok(true) => Some(row),
                    Ok(false) => None,
                    Err(error) => Some(Err(error)),
                }
            }))
        }
        LogicalPlan::Join { left, right, kind, condition } => {
            let right_rows = all(catalog, right)?;
            let condition = condition.as_ref().map(|c| resolve_sublinks(catalog, c)).transpose()?;
            let left_rows = all(catalog, left)?;
            let arities = (left.schema().arity(), right.schema().arity());
            join(left_rows, right_rows, arities, *kind, condition)
        }
        LogicalPlan::Aggregation { input, group_by, aggregates } => {
            let group_by = resolve_all(catalog, group_by)?;
            let aggregates: Vec<AggregateExpr> = aggregates
                .iter()
                .map(|(a, _)| {
                    let arg = a.arg.as_ref().map(|e| resolve_sublinks(catalog, e)).transpose()?;
                    Ok(AggregateExpr { func: a.func, arg, distinct: a.distinct })
                })
                .collect::<Result<_, ExecError>>()?;
            let rows = all(catalog, input)?;
            if group_by.is_empty() && rows.is_empty() {
                let values = aggregates.iter().map(|a| Accumulator::new(a).finish()).collect();
                return Ok(Box::new(std::iter::once(Ok(Tuple::new(values)))));
            }
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
                    acc.update(agg.arg.as_ref().map(|e| evaluate(e, row)).transpose()?)?;
                }
            }
            Box::new(keys.into_iter().zip(accs).map(|(key, accs)| {
                let mut values = key.into_values();
                values.extend(accs.into_iter().map(Accumulator::finish));
                Ok(Tuple::new(values))
            }))
        }
        LogicalPlan::SetOp { left, right, kind, semantics } => {
            let (left, right) = (all(catalog, left)?, all(catalog, right)?);
            Box::new(set_operation(left, right, *kind, *semantics).into_iter().map(Ok))
        }
        LogicalPlan::Sort { input, keys } => {
            // Decorate–sort–undecorate with the interpreter.
            let decorate = |row: Tuple| -> Result<(Vec<Value>, Tuple), ExecError> {
                Ok((keys.iter().map(|k| evaluate(&k.expr, &row)).collect::<Result<_, _>>()?, row))
            };
            let mut decorated: Vec<_> =
                all(catalog, input)?.into_iter().map(decorate).collect::<Result<_, _>>()?;
            decorated.sort_by(|(a, _), (b, _)| {
                let order = keys.iter().zip(a.iter().zip(b)).map(|(k, (a, b))| match k.order {
                    SortOrder::Ascending => a.cmp(b),
                    SortOrder::Descending => b.cmp(a),
                });
                order.fold(std::cmp::Ordering::Equal, std::cmp::Ordering::then)
            });
            Box::new(decorated.into_iter().map(|(_, row)| Ok(row)))
        }
        LogicalPlan::Limit { input, limit, offset } => {
            // Pull `offset + limit` rows, none under `LIMIT 0`; a skipped row is evaluated too.
            let wanted = |n: usize| if n == 0 { 0 } else { n.saturating_add(*offset) };
            let (offset, wanted) = (*offset, limit.map_or(usize::MAX, wanted));
            let rows = open(catalog, input)?.take(wanted).enumerate();
            Box::new(rows.filter(move |(i, row)| *i >= offset || row.is_err()).map(|(_, row)| row))
        }
        LogicalPlan::SubqueryAlias { input, .. }
        | LogicalPlan::ProvenanceAnnotation { input, .. } => open(catalog, input)?,
    })
}

/// A nested-loop join over its materialized inputs, pulled: each left row with its right rows
/// in order (the condition decided pair by pair as the pairs are pulled), then its pad, and
/// after the last left row the right rows no pair matched.
fn join<'a>(
    left: Vec<Tuple>,
    right: Vec<Tuple>,
    (left_arity, right_arity): (usize, usize),
    kind: JoinKind,
    condition: Option<ScalarExpr>,
) -> Rows<'a> {
    let pads_left = matches!(kind, JoinKind::LeftOuter | JoinKind::FullOuter);
    let pads_right = matches!(kind, JoinKind::RightOuter | JoinKind::FullOuter);
    let mut matched = vec![false; right.len()];
    let (mut i, mut j, mut found, mut padded) = (0, 0, false, 0);
    Box::new(std::iter::from_fn(move || {
        while i < left.len() {
            if j < right.len() {
                let combined = left[i].concat(&right[j]);
                j += 1;
                match condition.as_ref().map_or(Ok(true), |c| evaluate_predicate(c, &combined)) {
                    Ok(false) => continue,
                    Ok(true) => (found, matched[j - 1]) = (true, true),
                    Err(error) => return Some(Err(error)),
                }
                return Some(Ok(combined));
            }
            let pad = !found && pads_left;
            (i, j, found) = (i + 1, 0, false);
            if pad {
                return Some(Ok(left[i - 1].concat(&Tuple::nulls(right_arity))));
            }
        }
        while pads_right && padded < right.len() {
            padded += 1;
            if !matched[padded - 1] {
                return Some(Ok(Tuple::nulls(left_arity).concat(&right[padded - 1])));
            }
        }
        None
    }))
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
        SetOpKind::Intersect | SetOpKind::Difference => {
            let mut out = Vec::new();
            for t in first_occurrences(left.clone()) {
                let (n, m) = (multiplicity(&left, &t), multiplicity(&right, &t));
                let count = match (kind, semantics) {
                    (SetOpKind::Intersect, SetSemantics::Bag) => n.min(m),
                    (SetOpKind::Intersect, SetSemantics::Set) => usize::from(m > 0),
                    (_, SetSemantics::Bag) => n.saturating_sub(m),
                    (_, SetSemantics::Set) => usize::from(m == 0),
                };
                out.extend(std::iter::repeat_n(t, count));
            }
            out
        }
    }
}

/// Resolve the sublinks of a list of named expressions.
fn resolve_all<N>(
    catalog: &Catalog,
    exprs: &[(ScalarExpr, N)],
) -> Result<Vec<ScalarExpr>, ExecError> {
    exprs.iter().map(|(e, _)| resolve_sublinks(catalog, e)).collect()
}

/// Replace uncorrelated sublinks with their evaluated results: `EXISTS` becomes a boolean
/// literal, a scalar subquery becomes a value literal (raising
/// [`ExecError::ScalarSubqueryTooManyRows`] when it yields more than one row), and
/// `IN (SELECT ...)` becomes an `IN (value, ...)` list. Each subquery plan is opened once and
/// pulled as far as its kind needs, with the reference semantics.
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
        // A sublink pulls the rows that decide it: one for EXISTS, two for a scalar.
        let decisive = match kind {
            SublinkKind::Exists => 1,
            SublinkKind::Scalar => 2,
            SublinkKind::InSubquery => usize::MAX,
        };
        let rows =
            open(catalog, plan).and_then(|rows| rows.take(decisive).collect::<Result<Vec<_>, _>>());
        match rows {
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

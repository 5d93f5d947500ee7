//! Compiled scalar expressions: the executor's run-time expression representation.
//!
//! [`ScalarExpr`] is the *logical* expression language: column references carry display names,
//! sublinks carry whole sub-plans, and every evaluation walks the tree re-discovering the same
//! facts. Compilation happens once per operator when a plan starts executing and produces a
//! [`CompiledExpr`] in which
//!
//! * column references are bare indices,
//! * uncorrelated sublinks are **resolved**: `EXISTS` and scalar subqueries are executed once and
//!   become literals (a scalar subquery returning more than one row raises
//!   [`ExecError::ScalarSubqueryTooManyRows`]), and `IN (SELECT ...)` becomes a pre-built hash
//!   set probed in O(1) per row instead of a per-row scan of the result list,
//! * `IN` lists of constants become a hash set where the value types allow it.
//!
//! A compiled expression is evaluated one way: column-wise over a chunk, by the kernels in
//! `vector.rs` (`CompiledExpr::eval_array` / `eval_mask`).

use std::collections::HashSet;

use perm_algebra::{
    AggregateExpr, BinaryOperator, DataChunk, DataType, ScalarExpr, ScalarFunction, SublinkKind,
    UnaryOperator, Value,
};

use crate::error::ExecError;
use crate::executor::{ExecContext, Executor};
use crate::parallel::WorkerPool;

/// Which value types occur among an [`CompiledExpr::InSet`]'s candidates; used to reproduce the
/// three-valued `IN` semantics for needles that are incomparable with some candidate
/// (`sql_eq` returning `None` acts like a NULL candidate: a non-match becomes NULL).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct InSetTypes {
    ints: bool,
    floats: bool,
    dates: bool,
    texts: bool,
}

impl InSetTypes {
    /// Is any candidate incomparable with a (non-null) needle of this type under `sql_cmp`?
    /// Mirrors the `sql_cmp` table: the numeric types Int/Float/Date all pair with each other,
    /// Text pairs with Text; everything else (including a Bool needle) is unknown.
    fn any_incomparable_with(self, needle: &Value) -> bool {
        match needle {
            Value::Int(_) | Value::Float(_) | Value::Date(_) => self.texts,
            Value::Text(_) => self.ints || self.floats || self.dates,
            _ => self.ints || self.floats || self.dates || self.texts,
        }
    }
}

/// A scalar expression compiled for repeated evaluation against tuples of one fixed schema.
#[derive(Debug, Clone)]
pub(crate) enum CompiledExpr {
    /// Column reference by index.
    Column(usize),
    /// Pre-evaluated constant.
    Literal(Value),
    /// Binary operation (non-logical operators).
    Binary { op: BinaryOperator, left: Box<CompiledExpr>, right: Box<CompiledExpr> },
    /// AND/OR with short-circuit three-valued logic.
    Logical { op: BinaryOperator, left: Box<CompiledExpr>, right: Box<CompiledExpr> },
    /// Unary operation.
    Unary { op: UnaryOperator, expr: Box<CompiledExpr> },
    /// Scalar function call.
    Function { func: ScalarFunction, args: Vec<CompiledExpr> },
    /// CASE expression.
    Case {
        operand: Option<Box<CompiledExpr>>,
        branches: Vec<(CompiledExpr, CompiledExpr)>,
        else_expr: Option<Box<CompiledExpr>>,
    },
    /// Cast.
    Cast { expr: Box<CompiledExpr>, data_type: DataType },
    /// `IN` over a pre-built hash set of constants (constant lists and `IN (SELECT ...)`).
    /// `has_null` records whether any candidate was NULL (a non-match then yields NULL).
    InSet {
        expr: Box<CompiledExpr>,
        set: HashSet<Value>,
        types: InSetTypes,
        has_null: bool,
        negated: bool,
    },
    /// `IN` over candidate expressions compared one by one with `sql_eq`: non-constant lists,
    /// and constants whose types prevent hashing with exact SQL semantics (booleans, NaN).
    InList { expr: Box<CompiledExpr>, list: Vec<CompiledExpr>, negated: bool },
}

impl CompiledExpr {
    /// Compile `expr`, resolving any uncorrelated sublinks by running their plans once through
    /// the engine — same `executor`, `pool` and `ctx` (resource limits) as the enclosing query.
    pub(crate) fn compile(
        expr: &ScalarExpr,
        executor: &Executor,
        ctx: &ExecContext,
        pool: &WorkerPool,
    ) -> Result<CompiledExpr, ExecError> {
        Ok(match expr {
            ScalarExpr::Column { index, .. } => CompiledExpr::Column(*index),
            ScalarExpr::Literal(v) => CompiledExpr::Literal(v.clone()),
            // Parameter slots resolve against the executor's bound values exactly once per
            // execution, so a prepared plan re-executes with new bindings at literal speed.
            ScalarExpr::Parameter { index } => CompiledExpr::Literal(executor.param(*index)?),
            ScalarExpr::BinaryOp { op, left, right } => {
                let left = Box::new(CompiledExpr::compile(left, executor, ctx, pool)?);
                let right = Box::new(CompiledExpr::compile(right, executor, ctx, pool)?);
                if matches!(op, BinaryOperator::And | BinaryOperator::Or) {
                    CompiledExpr::Logical { op: *op, left, right }
                } else {
                    CompiledExpr::Binary { op: *op, left, right }
                }
            }
            ScalarExpr::UnaryOp { op, expr } => CompiledExpr::Unary {
                op: *op,
                expr: Box::new(CompiledExpr::compile(expr, executor, ctx, pool)?),
            },
            ScalarExpr::Function { func, args } => CompiledExpr::Function {
                func: *func,
                args: args
                    .iter()
                    .map(|a| CompiledExpr::compile(a, executor, ctx, pool))
                    .collect::<Result<_, _>>()?,
            },
            ScalarExpr::Case { operand, branches, else_expr } => CompiledExpr::Case {
                operand: operand
                    .as_ref()
                    .map(|o| CompiledExpr::compile(o, executor, ctx, pool).map(Box::new))
                    .transpose()?,
                branches: branches
                    .iter()
                    .map(|(w, t)| {
                        Ok((
                            CompiledExpr::compile(w, executor, ctx, pool)?,
                            CompiledExpr::compile(t, executor, ctx, pool)?,
                        ))
                    })
                    .collect::<Result<_, ExecError>>()?,
                else_expr: else_expr
                    .as_ref()
                    .map(|e| CompiledExpr::compile(e, executor, ctx, pool).map(Box::new))
                    .transpose()?,
            },
            ScalarExpr::Cast { expr, data_type } => CompiledExpr::Cast {
                expr: Box::new(CompiledExpr::compile(expr, executor, ctx, pool)?),
                data_type: *data_type,
            },
            ScalarExpr::InList { expr, list, negated } => {
                let expr = Box::new(CompiledExpr::compile(expr, executor, ctx, pool)?);
                if list.iter().all(|e| matches!(e, ScalarExpr::Literal(_))) {
                    let values: Vec<Value> = list
                        .iter()
                        .map(|e| match e {
                            ScalarExpr::Literal(v) => v.clone(),
                            _ => unreachable!("checked: all literals"),
                        })
                        .collect();
                    compile_in_constants(expr, values, *negated)
                } else {
                    CompiledExpr::InList {
                        expr,
                        list: list
                            .iter()
                            .map(|e| CompiledExpr::compile(e, executor, ctx, pool))
                            .collect::<Result<_, _>>()?,
                        negated: *negated,
                    }
                }
            }
            // The limit hint is how many rows decide the sublink; like a `LIMIT`, it lets the
            // sub-plan's top operator stop early.
            ScalarExpr::Sublink { kind, operand, negated, plan } => match kind {
                SublinkKind::Exists => {
                    let chunks = executor.par_chunks(plan, ctx, pool, Some(1))?;
                    let non_empty = chunks.iter().any(|c| !c.is_empty());
                    CompiledExpr::Literal(Value::Bool(non_empty != *negated))
                }
                SublinkKind::Scalar => {
                    let chunks = executor.par_chunks(plan, ctx, pool, Some(2))?;
                    let mut values = first_column(&chunks);
                    let value = values.next().unwrap_or(Value::Null);
                    if values.next().is_some() {
                        return Err(ExecError::ScalarSubqueryTooManyRows);
                    }
                    CompiledExpr::Literal(value)
                }
                SublinkKind::InSubquery => {
                    let operand = operand.as_ref().ok_or_else(|| {
                        ExecError::Internal("IN sublink without an operand".into())
                    })?;
                    let operand = Box::new(CompiledExpr::compile(operand, executor, ctx, pool)?);
                    let chunks = executor.par_chunks(plan, ctx, pool, None)?;
                    compile_in_constants(operand, first_column(&chunks).collect(), *negated)
                }
            },
        })
    }
}

/// The first-column values of a sublink result, row by row (NULL for a zero-width result).
fn first_column(chunks: &[DataChunk]) -> impl Iterator<Item = Value> + '_ {
    chunks.iter().flat_map(|chunk| {
        (0..chunk.num_rows()).map(move |row| {
            if chunk.num_columns() == 0 {
                Value::Null
            } else {
                chunk.column(0).value(row)
            }
        })
    })
}

/// Probe a pre-built `IN` hash set with full three-valued semantics.
pub(crate) fn in_set_lookup(
    needle: &Value,
    set: &HashSet<Value>,
    types: InSetTypes,
    has_null: bool,
    negated: bool,
) -> Value {
    if needle.is_null() {
        return Value::Null;
    }
    // A NaN needle compares unknown against *every* candidate under `sql_eq` (the set itself
    // never holds NaN — `compile_in_constants` falls back to the linear path for NaN
    // candidates), so with any candidate present the result is NULL, exactly like the
    // row-at-a-time evaluation; grouping equality in the hash set would wrongly match NaN.
    if matches!(needle, Value::Float(f) if f.is_nan()) {
        return if set.is_empty() && !has_null { Value::Bool(negated) } else { Value::Null };
    }
    // All numeric types (Int, Float, Date) share one grouping hash/equality key, consistent
    // with `sql_eq`, so a single probe covers every cross-type numeric match.
    let matched = set.contains(needle);
    if matched {
        Value::Bool(!negated)
    } else if has_null || types.any_incomparable_with(needle) {
        // An incomparable pair makes `sql_eq` unknown, exactly like a NULL candidate.
        Value::Null
    } else {
        Value::Bool(negated)
    }
}

/// Choose the best representation for an `IN` over constant candidate values: a hash set when
/// every candidate hashes consistently with `sql_eq` (Int/Float/Date/Text, no NaN, no booleans),
/// otherwise a list of literals compared linearly.
fn compile_in_constants(
    expr: Box<CompiledExpr>,
    values: Vec<Value>,
    negated: bool,
) -> CompiledExpr {
    let mut types = InSetTypes::default();
    let mut has_null = false;
    for v in &values {
        match v {
            Value::Null => has_null = true,
            Value::Int(_) => types.ints = true,
            Value::Date(_) => types.dates = true,
            Value::Float(f) if !f.is_nan() => types.floats = true,
            Value::Text(_) => types.texts = true,
            // Booleans and NaN do not hash consistently with `sql_eq`; fall back.
            _ => {
                let list = values.into_iter().map(CompiledExpr::Literal).collect();
                return CompiledExpr::InList { expr, list, negated };
            }
        }
    }
    let set: HashSet<Value> = values.into_iter().filter(|v| !v.is_null()).collect();
    CompiledExpr::InSet { expr, set, types, has_null, negated }
}

/// An aggregate expression with its argument compiled.
#[derive(Debug, Clone)]
pub(crate) struct CompiledAggregate {
    pub(crate) spec: AggregateExpr,
    pub(crate) arg: Option<CompiledExpr>,
}

impl CompiledAggregate {
    pub(crate) fn compile(
        agg: &AggregateExpr,
        executor: &Executor,
        ctx: &ExecContext,
        pool: &WorkerPool,
    ) -> Result<CompiledAggregate, ExecError> {
        let arg =
            agg.arg.as_ref().map(|e| CompiledExpr::compile(e, executor, ctx, pool)).transpose()?;
        Ok(CompiledAggregate { spec: agg.clone(), arg })
    }
}

//! The scalar and aggregate expression language.
//!
//! Expressions appear in projections, selection predicates, join conditions, grouping lists and
//! aggregation arguments. After SQL analysis, column references are *positional* (an index into
//! the input schema of the operator that owns the expression) plus a display name; this makes
//! the provenance rewrite rules of `perm-core` straightforward to express (they mostly reshuffle
//! column positions).

use std::fmt;
use std::sync::Arc;

use crate::plan::LogicalPlan;
use crate::schema::{Name, Schema};
use crate::value::{DataType, Value};

/// The kind of a subquery expression (a *sublink* in the paper's PostgreSQL-derived terminology,
/// §IV-E). Only uncorrelated sublinks are supported, matching the paper's prototype.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SublinkKind {
    /// `EXISTS (SELECT ...)`.
    Exists,
    /// `x IN (SELECT ...)`.
    InSubquery,
    /// A scalar subquery used as a value, e.g. `x > (SELECT avg(...) ...)`.
    Scalar,
}

/// Binary operators usable in expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOperator {
    /// Addition (`+`), also date + days and text concatenation.
    Add,
    /// Subtraction (`-`).
    Sub,
    /// Multiplication (`*`).
    Mul,
    /// Division (`/`).
    Div,
    /// Modulo (`%`).
    Mod,
    /// Equality (`=`), three-valued.
    Eq,
    /// Inequality (`<>`).
    NotEq,
    /// Less than (`<`).
    Lt,
    /// Less than or equal (`<=`).
    LtEq,
    /// Greater than (`>`).
    Gt,
    /// Greater than or equal (`>=`).
    GtEq,
    /// Logical conjunction.
    And,
    /// Logical disjunction.
    Or,
    /// SQL `LIKE` pattern match.
    Like,
    /// SQL `NOT LIKE` pattern match.
    NotLike,
    /// Null-safe equality (`IS NOT DISTINCT FROM`); used by rewrite rule R5 so that NULL group
    /// keys join with themselves.
    IsNotDistinctFrom,
    /// Null-safe inequality (`IS DISTINCT FROM`); used by rewrite rule R9.
    IsDistinctFrom,
}

impl BinaryOperator {
    /// Is this a comparison operator (result type BOOL)?
    pub fn is_comparison(self) -> bool {
        use BinaryOperator::*;
        matches!(
            self,
            Eq | NotEq
                | Lt
                | LtEq
                | Gt
                | GtEq
                | Like
                | NotLike
                | IsNotDistinctFrom
                | IsDistinctFrom
        )
    }

    /// Is this a boolean connective?
    pub fn is_logical(self) -> bool {
        matches!(self, BinaryOperator::And | BinaryOperator::Or)
    }
}

impl fmt::Display for BinaryOperator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOperator::Add => "+",
            BinaryOperator::Sub => "-",
            BinaryOperator::Mul => "*",
            BinaryOperator::Div => "/",
            BinaryOperator::Mod => "%",
            BinaryOperator::Eq => "=",
            BinaryOperator::NotEq => "<>",
            BinaryOperator::Lt => "<",
            BinaryOperator::LtEq => "<=",
            BinaryOperator::Gt => ">",
            BinaryOperator::GtEq => ">=",
            BinaryOperator::And => "AND",
            BinaryOperator::Or => "OR",
            BinaryOperator::Like => "LIKE",
            BinaryOperator::NotLike => "NOT LIKE",
            BinaryOperator::IsNotDistinctFrom => "IS NOT DISTINCT FROM",
            BinaryOperator::IsDistinctFrom => "IS DISTINCT FROM",
        };
        f.write_str(s)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOperator {
    /// Logical negation.
    Not,
    /// Arithmetic negation.
    Neg,
    /// `IS NULL`.
    IsNull,
    /// `IS NOT NULL`.
    IsNotNull,
}

impl fmt::Display for UnaryOperator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnaryOperator::Not => "NOT",
            UnaryOperator::Neg => "-",
            UnaryOperator::IsNull => "IS NULL",
            UnaryOperator::IsNotNull => "IS NOT NULL",
        };
        f.write_str(s)
    }
}

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarFunction {
    /// `substring(text, start, length)` (1-based start).
    Substring,
    /// `upper(text)`.
    Upper,
    /// `lower(text)`.
    Lower,
    /// `length(text)`.
    Length,
    /// `abs(x)`.
    Abs,
    /// `round(x)` / `round(x, digits)`.
    Round,
    /// `floor(x)`.
    Floor,
    /// `ceil(x)`.
    Ceil,
    /// `coalesce(a, b, ...)`.
    Coalesce,
    /// `concat(a, b, ...)` — string concatenation.
    Concat,
    /// `extract(year from d)`.
    ExtractYear,
    /// `extract(month from d)`.
    ExtractMonth,
    /// `extract(day from d)`.
    ExtractDay,
    /// `date_add_years(d, n)` — used to lower `d + interval 'n' year`.
    DateAddYears,
    /// `date_add_months(d, n)` — used to lower `d + interval 'n' month`.
    DateAddMonths,
    /// `date_add_days(d, n)` — used to lower `d + interval 'n' day`.
    DateAddDays,
}

impl ScalarFunction {
    /// Parse a function by its SQL name.
    pub fn from_name(name: &str) -> Option<ScalarFunction> {
        Some(match name.to_ascii_lowercase().as_str() {
            "substring" | "substr" => ScalarFunction::Substring,
            "upper" => ScalarFunction::Upper,
            "lower" => ScalarFunction::Lower,
            "length" | "char_length" => ScalarFunction::Length,
            "abs" => ScalarFunction::Abs,
            "round" => ScalarFunction::Round,
            "floor" => ScalarFunction::Floor,
            "ceil" | "ceiling" => ScalarFunction::Ceil,
            "coalesce" => ScalarFunction::Coalesce,
            "concat" => ScalarFunction::Concat,
            "extract_year" | "year" => ScalarFunction::ExtractYear,
            "extract_month" | "month" => ScalarFunction::ExtractMonth,
            "extract_day" | "day" => ScalarFunction::ExtractDay,
            "date_add_years" => ScalarFunction::DateAddYears,
            "date_add_months" => ScalarFunction::DateAddMonths,
            "date_add_days" => ScalarFunction::DateAddDays,
            _ => return None,
        })
    }

    /// SQL-ish display name.
    pub fn name(self) -> &'static str {
        match self {
            ScalarFunction::Substring => "substring",
            ScalarFunction::Upper => "upper",
            ScalarFunction::Lower => "lower",
            ScalarFunction::Length => "length",
            ScalarFunction::Abs => "abs",
            ScalarFunction::Round => "round",
            ScalarFunction::Floor => "floor",
            ScalarFunction::Ceil => "ceil",
            ScalarFunction::Coalesce => "coalesce",
            ScalarFunction::Concat => "concat",
            ScalarFunction::ExtractYear => "extract_year",
            ScalarFunction::ExtractMonth => "extract_month",
            ScalarFunction::ExtractDay => "extract_day",
            ScalarFunction::DateAddYears => "date_add_years",
            ScalarFunction::DateAddMonths => "date_add_months",
            ScalarFunction::DateAddDays => "date_add_days",
        }
    }

    /// Result type given the argument types; `None` for arguments that give it none.
    pub fn result_type(self, args: &[DataType]) -> Option<DataType> {
        match self {
            ScalarFunction::Substring
            | ScalarFunction::Upper
            | ScalarFunction::Lower
            | ScalarFunction::Concat => Some(DataType::Text),
            ScalarFunction::Length
            | ScalarFunction::ExtractYear
            | ScalarFunction::ExtractMonth
            | ScalarFunction::ExtractDay => Some(DataType::Int),
            ScalarFunction::Abs => args.first().copied(),
            ScalarFunction::Round | ScalarFunction::Floor | ScalarFunction::Ceil => {
                Some(DataType::Float)
            }
            // The arguments' one type (the analyzer casts each to their common type).
            ScalarFunction::Coalesce => {
                args.iter().try_fold(DataType::Null, |acc, &t| acc.one_type(t))
            }
            ScalarFunction::DateAddYears
            | ScalarFunction::DateAddMonths
            | ScalarFunction::DateAddDays => Some(DataType::Date),
        }
    }
}

/// The type declared for what does not type: operands of no common type, `CASE` arms or
/// set-operation branches of two types, a column index out of bounds, a scalar sublink without
/// a column. It is `Null`, the type of an untyped NULL. [`LogicalPlan::verify`] rejects every
/// plan that holds one, so a plan that verifies declares `Null` only for what is built from
/// nothing but NULL literals and `$n`s (see [`ScalarExpr::type_with`]).
pub(crate) fn or_untyped(data_type: Option<DataType>) -> DataType {
    data_type.unwrap_or(DataType::Null)
}

/// A scalar expression over the input schema of an operator.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// A positional column reference with a display name.
    Column {
        /// Index into the owning operator's input schema.
        index: usize,
        /// Display name, kept for plan printing and provenance attribute naming.
        name: Name,
    },
    /// A literal value.
    Literal(Value),
    /// A prepared-statement parameter slot (`$1`, `$2`, ... in SQL; `index` is zero-based).
    ///
    /// Parameters survive analysis, provenance rewriting and optimization unchanged; the
    /// executor resolves them against the bound parameter values when expressions are compiled,
    /// so one prepared plan can be executed many times with different bindings.
    Parameter {
        /// Zero-based parameter position (`$1` has index 0).
        index: usize,
    },
    /// Binary operation.
    BinaryOp {
        /// The operator.
        op: BinaryOperator,
        /// Left operand.
        left: Box<ScalarExpr>,
        /// Right operand.
        right: Box<ScalarExpr>,
    },
    /// Unary operation.
    UnaryOp {
        /// The operator.
        op: UnaryOperator,
        /// Operand.
        expr: Box<ScalarExpr>,
    },
    /// Scalar function call.
    Function {
        /// The function.
        func: ScalarFunction,
        /// Arguments.
        args: Vec<ScalarExpr>,
    },
    /// `CASE [operand] WHEN ... THEN ... [ELSE ...] END`.
    Case {
        /// Optional operand for the simple CASE form.
        operand: Option<Box<ScalarExpr>>,
        /// `(WHEN condition/value, THEN result)` pairs.
        branches: Vec<(ScalarExpr, ScalarExpr)>,
        /// Optional ELSE result.
        else_expr: Option<Box<ScalarExpr>>,
    },
    /// Explicit cast.
    Cast {
        /// Expression to cast.
        expr: Box<ScalarExpr>,
        /// Target type.
        data_type: DataType,
    },
    /// Test whether the operand equals any of the listed expressions (`x IN (1, 2, 3)`).
    InList {
        /// Operand.
        expr: Box<ScalarExpr>,
        /// List of candidate values.
        list: Vec<ScalarExpr>,
        /// Whether the test is negated (`NOT IN`).
        negated: bool,
    },
    /// An *uncorrelated* subquery expression (sublink, §IV-E of the paper).
    ///
    /// * `Exists` — boolean test that the subquery returns at least one row (`operand` is `None`).
    /// * `InSubquery` — membership of `operand` in the subquery's single output column.
    /// * `Scalar` — the subquery's single value is used directly (`operand` is `None`).
    ///
    /// The executor evaluates the subquery plan once (it is uncorrelated) and substitutes the
    /// result; the provenance rewriter of `perm-core` instead pulls the rewritten sublink into
    /// the range table as described in the paper.
    Sublink {
        /// What kind of sublink this is.
        kind: SublinkKind,
        /// The left operand for `InSubquery` sublinks.
        operand: Option<Box<ScalarExpr>>,
        /// Whether the test is negated (`NOT IN` / `NOT EXISTS`).
        negated: bool,
        /// The subquery plan.
        plan: Arc<LogicalPlan>,
    },
}

impl ScalarExpr {
    /// A column reference.
    pub fn column(index: usize, name: impl Into<Name>) -> ScalarExpr {
        ScalarExpr::Column { index, name: name.into() }
    }

    /// A literal.
    pub fn literal(value: impl Into<Value>) -> ScalarExpr {
        ScalarExpr::Literal(value.into())
    }

    /// A parameter slot (zero-based index; `$1` has index 0).
    pub fn parameter(index: usize) -> ScalarExpr {
        ScalarExpr::Parameter { index }
    }

    /// A binary operation.
    pub fn binary(op: BinaryOperator, left: ScalarExpr, right: ScalarExpr) -> ScalarExpr {
        ScalarExpr::BinaryOp { op, left: Box::new(left), right: Box::new(right) }
    }

    /// `self = other`.
    pub fn eq(self, other: ScalarExpr) -> ScalarExpr {
        ScalarExpr::binary(BinaryOperator::Eq, self, other)
    }

    /// `self <> other`.
    pub fn not_eq(self, other: ScalarExpr) -> ScalarExpr {
        ScalarExpr::binary(BinaryOperator::NotEq, self, other)
    }

    /// `self AND other`.
    pub fn and(self, other: ScalarExpr) -> ScalarExpr {
        ScalarExpr::binary(BinaryOperator::And, self, other)
    }

    /// `self OR other`.
    pub fn or(self, other: ScalarExpr) -> ScalarExpr {
        ScalarExpr::binary(BinaryOperator::Or, self, other)
    }

    /// `self IS NOT DISTINCT FROM other` (null-safe equality).
    pub fn null_safe_eq(self, other: ScalarExpr) -> ScalarExpr {
        ScalarExpr::binary(BinaryOperator::IsNotDistinctFrom, self, other)
    }

    /// Conjunction of a list of predicates (`TRUE` literal for an empty list).
    pub fn conjunction(exprs: Vec<ScalarExpr>) -> ScalarExpr {
        exprs
            .into_iter()
            .reduce(|acc, e| acc.and(e))
            .unwrap_or(ScalarExpr::Literal(Value::Bool(true)))
    }

    /// Split a predicate into its top-level conjuncts.
    pub fn split_conjunction(&self) -> Vec<&ScalarExpr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a ScalarExpr, out: &mut Vec<&'a ScalarExpr>) {
            match e {
                ScalarExpr::BinaryOp { op: BinaryOperator::And, left, right } => {
                    walk(left, out);
                    walk(right, out);
                }
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }

    /// The set of column indices this expression references.
    pub fn columns_used(&self) -> Vec<usize> {
        let mut cols = Vec::new();
        self.visit(&mut |e| {
            if let ScalarExpr::Column { index, .. } = e {
                cols.push(*index);
            }
        });
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// The direct operands of this expression, in a fixed order: a `CASE`'s operand, then each
    /// WHEN and its THEN, then its ELSE. A sublink's plan is not an operand: it is uncorrelated,
    /// so independent of the outer schema; only an `IN` sublink's left operand is.
    pub fn operands(&self) -> impl Iterator<Item = &ScalarExpr> {
        type Parts<'a> = (
            Option<&'a ScalarExpr>,
            &'a [ScalarExpr],
            &'a [(ScalarExpr, ScalarExpr)],
            Option<&'a ScalarExpr>,
        );
        let (first, list, pairs, last): Parts<'_> = match self {
            ScalarExpr::Column { .. } | ScalarExpr::Literal(_) | ScalarExpr::Parameter { .. } => {
                (None, &[], &[], None)
            }
            ScalarExpr::BinaryOp { left, right, .. } => (Some(&**left), &[], &[], Some(&**right)),
            ScalarExpr::UnaryOp { expr, .. } | ScalarExpr::Cast { expr, .. } => {
                (Some(&**expr), &[], &[], None)
            }
            ScalarExpr::Function { args, .. } => (None, args, &[], None),
            ScalarExpr::Case { operand, branches, else_expr } => {
                (operand.as_deref(), &[], branches, else_expr.as_deref())
            }
            ScalarExpr::InList { expr, list, .. } => (Some(&**expr), list, &[], None),
            ScalarExpr::Sublink { operand, .. } => (operand.as_deref(), &[], &[], None),
        };
        first.into_iter().chain(list).chain(pairs.iter().flat_map(|(w, t)| [w, t])).chain(last)
    }

    /// Visit every node of the expression tree, parents before their operands.
    pub fn visit<'a, F: FnMut(&'a ScalarExpr)>(&'a self, f: &mut F) {
        f(self);
        self.operands().for_each(|operand| operand.visit(f));
    }

    /// Rewrite every column reference through `f` (old index → new index).
    pub fn map_columns<F: FnMut(usize) -> usize>(&self, f: &mut F) -> ScalarExpr {
        match self {
            ScalarExpr::Column { index, name } => {
                ScalarExpr::Column { index: f(*index), name: name.clone() }
            }
            ScalarExpr::Literal(v) => ScalarExpr::Literal(v.clone()),
            ScalarExpr::Parameter { index } => ScalarExpr::Parameter { index: *index },
            ScalarExpr::BinaryOp { op, left, right } => ScalarExpr::BinaryOp {
                op: *op,
                left: Box::new(left.map_columns(f)),
                right: Box::new(right.map_columns(f)),
            },
            ScalarExpr::UnaryOp { op, expr } => {
                ScalarExpr::UnaryOp { op: *op, expr: Box::new(expr.map_columns(f)) }
            }
            ScalarExpr::Function { func, args } => ScalarExpr::Function {
                func: *func,
                args: args.iter().map(|a| a.map_columns(f)).collect(),
            },
            ScalarExpr::Case { operand, branches, else_expr } => ScalarExpr::Case {
                operand: operand.as_ref().map(|o| Box::new(o.map_columns(f))),
                branches: branches
                    .iter()
                    .map(|(w, t)| (w.map_columns(f), t.map_columns(f)))
                    .collect(),
                else_expr: else_expr.as_ref().map(|e| Box::new(e.map_columns(f))),
            },
            ScalarExpr::Cast { expr, data_type } => {
                ScalarExpr::Cast { expr: Box::new(expr.map_columns(f)), data_type: *data_type }
            }
            ScalarExpr::InList { expr, list, negated } => ScalarExpr::InList {
                expr: Box::new(expr.map_columns(f)),
                list: list.iter().map(|e| e.map_columns(f)).collect(),
                negated: *negated,
            },
            ScalarExpr::Sublink { kind, operand, negated, plan } => ScalarExpr::Sublink {
                kind: *kind,
                operand: operand.as_ref().map(|o| Box::new(o.map_columns(f))),
                negated: *negated,
                plan: plan.clone(),
            },
        }
    }

    /// Shift all column references by `offset` (used when an expression moves to the right side
    /// of a join's concatenated schema).
    pub fn shift_columns(&self, offset: usize) -> ScalarExpr {
        self.map_columns(&mut |i| i + offset)
    }

    /// Rebuild the expression bottom-up, applying `f` to every node after its children have been
    /// rebuilt. Used by the executor (sublink resolution) and the provenance rewriter.
    pub fn transform(&self, f: &mut impl FnMut(ScalarExpr) -> ScalarExpr) -> ScalarExpr {
        let rebuilt = match self {
            ScalarExpr::Column { .. } | ScalarExpr::Literal(_) | ScalarExpr::Parameter { .. } => {
                self.clone()
            }
            ScalarExpr::BinaryOp { op, left, right } => ScalarExpr::BinaryOp {
                op: *op,
                left: Box::new(left.transform(f)),
                right: Box::new(right.transform(f)),
            },
            ScalarExpr::UnaryOp { op, expr } => {
                ScalarExpr::UnaryOp { op: *op, expr: Box::new(expr.transform(f)) }
            }
            ScalarExpr::Function { func, args } => ScalarExpr::Function {
                func: *func,
                args: args.iter().map(|a| a.transform(f)).collect(),
            },
            ScalarExpr::Case { operand, branches, else_expr } => ScalarExpr::Case {
                operand: operand.as_ref().map(|o| Box::new(o.transform(f))),
                branches: branches.iter().map(|(w, t)| (w.transform(f), t.transform(f))).collect(),
                else_expr: else_expr.as_ref().map(|e| Box::new(e.transform(f))),
            },
            ScalarExpr::Cast { expr, data_type } => {
                ScalarExpr::Cast { expr: Box::new(expr.transform(f)), data_type: *data_type }
            }
            ScalarExpr::InList { expr, list, negated } => ScalarExpr::InList {
                expr: Box::new(expr.transform(f)),
                list: list.iter().map(|e| e.transform(f)).collect(),
                negated: *negated,
            },
            ScalarExpr::Sublink { kind, operand, negated, plan } => ScalarExpr::Sublink {
                kind: *kind,
                operand: operand.as_ref().map(|o| Box::new(o.transform(f))),
                negated: *negated,
                plan: plan.clone(),
            },
        };
        f(rebuilt)
    }

    /// Collect all sublink expressions contained in this expression (outermost first).
    pub fn sublinks(&self) -> Vec<&ScalarExpr> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if matches!(e, ScalarExpr::Sublink { .. }) {
                out.push(e);
            }
        });
        out
    }

    /// Does this expression contain any sublink?
    pub fn has_sublink(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if matches!(e, ScalarExpr::Sublink { .. }) {
                found = true;
            }
        });
        found
    }

    /// The type of this expression over `schema`, given the types of its
    /// [`operands`](ScalarExpr::operands) in their order: the one typing rule of each expression
    /// node. [`ScalarExpr::data_type`] types the operands as the rule asks for them;
    /// [`LogicalPlan::verify`] passes the types it has checked.
    ///
    /// A `$n` is typed only once it is bound at execution, so until then it is `Null`, like an
    /// untyped NULL: `SELECT $1 AS x FROM t WHERE a = $1` declares `x` NULL. An expression over
    /// a `$n` takes the type its typed operands give it, which the bound value can widen:
    /// `$1 * 2` is INT, and FLOAT for `$1 = 1.5`. What does not type is [`or_untyped`].
    pub fn type_with(
        &self,
        schema: &Schema,
        mut operands: impl Iterator<Item = DataType>,
    ) -> DataType {
        let one_type = |acc: Option<DataType>, t: Option<DataType>| acc?.one_type(t?);
        or_untyped(match self {
            ScalarExpr::Column { index, .. } => schema.attribute(*index).ok().map(|a| a.data_type),
            ScalarExpr::Literal(v) => Some(v.data_type()),
            ScalarExpr::Parameter { .. } => Some(DataType::Null),
            ScalarExpr::BinaryOp { op, .. } if op.is_comparison() || op.is_logical() => {
                Some(DataType::Bool)
            }
            ScalarExpr::BinaryOp { op, .. } => match (operands.next(), operands.next()) {
                // The days between two dates.
                (Some(DataType::Date), Some(DataType::Date)) if *op == BinaryOperator::Sub => {
                    Some(DataType::Int)
                }
                (Some(l), Some(r)) => l.common_type(r),
                _ => None,
            },
            ScalarExpr::UnaryOp { op: UnaryOperator::Neg, .. } => operands.next(),
            ScalarExpr::UnaryOp { .. } | ScalarExpr::InList { .. } => Some(DataType::Bool),
            ScalarExpr::Function { func, .. } => func.result_type(&operands.collect::<Vec<_>>()),
            // The one type of the THEN and ELSE arms.
            ScalarExpr::Case { operand, branches, else_expr } => {
                let mut types = operands.skip(usize::from(operand.is_some()));
                let mut t = Some(DataType::Null);
                for _ in branches {
                    t = one_type(t, types.nth(1));
                }
                match else_expr {
                    Some(_) => one_type(t, types.next()),
                    None => t,
                }
            }
            ScalarExpr::Cast { data_type, .. } => Some(*data_type),
            ScalarExpr::Sublink { kind: SublinkKind::Scalar, plan, .. } => {
                plan.schema().attributes().first().map(|a| a.data_type)
            }
            ScalarExpr::Sublink { .. } => Some(DataType::Bool),
        })
    }

    /// The type of the expression over an input schema ([`ScalarExpr::type_with`]).
    pub fn data_type(&self, schema: &Schema) -> DataType {
        self.type_with(schema, self.operands().map(|e| e.data_type(schema)))
    }

    /// A short display name used when no alias is given (mirrors PostgreSQL behaviour loosely).
    pub fn display_name(&self) -> String {
        match self {
            ScalarExpr::Column { name, .. } => name.to_string(),
            ScalarExpr::Literal(v) => v.to_string(),
            ScalarExpr::Function { func, .. } => func.name().to_string(),
            ScalarExpr::Case { .. } => "case".to_string(),
            ScalarExpr::Cast { expr, .. } => expr.display_name(),
            _ => "?column?".to_string(),
        }
    }

    /// Is this expression a plain column reference?
    pub fn as_column(&self) -> Option<usize> {
        match self {
            ScalarExpr::Column { index, .. } => Some(*index),
            _ => None,
        }
    }

    /// Does the expression contain no column references (i.e. is it constant)?
    ///
    /// Parameters are *not* constants: their value is only known once a prepared statement is
    /// executed, so they must never be folded at plan time.
    pub fn is_constant(&self) -> bool {
        self.columns_used().is_empty() && !self.has_parameter()
    }

    /// Does this expression contain a parameter slot (not counting sublink sub-plans)?
    pub fn has_parameter(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if matches!(e, ScalarExpr::Parameter { .. }) {
                found = true;
            }
        });
        found
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Column { index, name } => write!(f, "{name}#{index}"),
            ScalarExpr::Literal(v) => match v {
                Value::Text(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            ScalarExpr::Parameter { index } => write!(f, "${}", index + 1),
            ScalarExpr::BinaryOp { op, left, right } => write!(f, "({left} {op} {right})"),
            ScalarExpr::UnaryOp { op, expr } => match op {
                UnaryOperator::IsNull | UnaryOperator::IsNotNull => write!(f, "({expr} {op})"),
                _ => write!(f, "({op} {expr})"),
            },
            ScalarExpr::Function { func, args } => {
                write!(f, "{}(", func.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            ScalarExpr::Case { operand, branches, else_expr } => {
                write!(f, "CASE")?;
                if let Some(op) = operand {
                    write!(f, " {op}")?;
                }
                for (w, t) in branches {
                    write!(f, " WHEN {w} THEN {t}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
            ScalarExpr::Cast { expr, data_type } => write!(f, "CAST({expr} AS {data_type})"),
            ScalarExpr::InList { expr, list, negated } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "))")
            }
            ScalarExpr::Sublink { kind, operand, negated, .. } => {
                let not = if *negated { "NOT " } else { "" };
                match kind {
                    SublinkKind::Exists => write!(f, "({not}EXISTS <subquery>)"),
                    SublinkKind::InSubquery => {
                        let op = operand.as_deref().map(|o| o.to_string()).unwrap_or_default();
                        write!(f, "({op} {not}IN <subquery>)")
                    }
                    SublinkKind::Scalar => write!(f, "(<scalar subquery>)"),
                }
            }
        }
    }
}

/// Aggregate functions of the algebra's aggregation operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregateFunction {
    /// `COUNT(expr)` / `COUNT(*)` when the argument is `None`.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `AVG(expr)`.
    Avg,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
}

impl AggregateFunction {
    /// Parse an aggregate function name.
    pub fn from_name(name: &str) -> Option<AggregateFunction> {
        Some(match name.to_ascii_lowercase().as_str() {
            "count" => AggregateFunction::Count,
            "sum" => AggregateFunction::Sum,
            "avg" => AggregateFunction::Avg,
            "min" => AggregateFunction::Min,
            "max" => AggregateFunction::Max,
            _ => return None,
        })
    }

    /// SQL name.
    pub fn name(self) -> &'static str {
        match self {
            AggregateFunction::Count => "count",
            AggregateFunction::Sum => "sum",
            AggregateFunction::Avg => "avg",
            AggregateFunction::Min => "min",
            AggregateFunction::Max => "max",
        }
    }

    /// Result type given the argument type.
    pub fn result_type(self, arg: DataType) -> DataType {
        match self {
            AggregateFunction::Count => DataType::Int,
            AggregateFunction::Avg => DataType::Float,
            AggregateFunction::Sum => {
                if arg == DataType::Int {
                    DataType::Int
                } else {
                    DataType::Float
                }
            }
            AggregateFunction::Min | AggregateFunction::Max => arg,
        }
    }
}

/// An aggregate expression (`aggr` entries of the α operator in Figure 1).
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateExpr {
    /// The aggregate function.
    pub func: AggregateFunction,
    /// The argument; `None` means `COUNT(*)`.
    pub arg: Option<ScalarExpr>,
    /// Whether duplicates are eliminated before aggregation (`COUNT(DISTINCT x)`).
    pub distinct: bool,
}

impl AggregateExpr {
    /// Create an aggregate over an argument expression.
    pub fn new(func: AggregateFunction, arg: ScalarExpr) -> AggregateExpr {
        AggregateExpr { func, arg: Some(arg), distinct: false }
    }

    /// `COUNT(*)`.
    pub fn count_star() -> AggregateExpr {
        AggregateExpr { func: AggregateFunction::Count, arg: None, distinct: false }
    }

    /// Result type against an input schema.
    pub fn data_type(&self, schema: &Schema) -> DataType {
        self.func.result_type(self.arg.as_ref().map_or(DataType::Int, |e| e.data_type(schema)))
    }

    /// Display name when no alias is provided.
    pub fn display_name(&self) -> String {
        match &self.arg {
            Some(a) => format!("{}({})", self.func.name(), a.display_name()),
            None => format!("{}(*)", self.func.name()),
        }
    }

    /// Rewrite column references through `f`.
    pub fn map_columns<F: FnMut(usize) -> usize>(&self, f: &mut F) -> AggregateExpr {
        AggregateExpr {
            func: self.func,
            arg: self.arg.as_ref().map(|a| a.map_columns(f)),
            distinct: self.distinct,
        }
    }
}

impl fmt::Display for AggregateExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.arg {
            Some(a) => write!(
                f,
                "{}({}{})",
                self.func.name(),
                if self.distinct { "DISTINCT " } else { "" },
                a
            ),
            None => write!(f, "{}(*)", self.func.name()),
        }
    }
}

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    /// Ascending (NULLs first).
    Ascending,
    /// Descending (NULLs last).
    Descending,
}

/// A sort key: expression plus direction.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    /// The expression to sort by.
    pub expr: ScalarExpr,
    /// Sort direction.
    pub order: SortOrder,
}

impl SortKey {
    /// Ascending sort key.
    pub fn asc(expr: ScalarExpr) -> SortKey {
        SortKey { expr, order: SortOrder::Ascending }
    }

    /// Descending sort key.
    pub fn desc(expr: ScalarExpr) -> SortKey {
        SortKey { expr, order: SortOrder::Descending }
    }
}

impl fmt::Display for SortKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}",
            self.expr,
            match self.order {
                SortOrder::Ascending => "ASC",
                SortOrder::Descending => "DESC",
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::new("id", DataType::Int),
            Attribute::new("price", DataType::Float),
            Attribute::new("name", DataType::Text),
            Attribute::new("d", DataType::Date),
        ])
    }

    #[test]
    fn data_type_inference() {
        let s = schema();
        let e = ScalarExpr::column(0, "id").eq(ScalarExpr::literal(3i64));
        assert_eq!(e.data_type(&s), DataType::Bool);
        let sum = ScalarExpr::binary(
            BinaryOperator::Add,
            ScalarExpr::column(0, "id"),
            ScalarExpr::column(1, "price"),
        );
        assert_eq!(sum.data_type(&s), DataType::Float);
        let f = ScalarExpr::Function {
            func: ScalarFunction::ExtractYear,
            args: vec![ScalarExpr::column(3, "d")],
        };
        assert_eq!(f.data_type(&s), DataType::Int);
    }

    #[test]
    fn columns_used_dedups_and_sorts() {
        let e = ScalarExpr::column(2, "name")
            .eq(ScalarExpr::literal("x"))
            .and(ScalarExpr::column(0, "id").eq(ScalarExpr::column(2, "name")));
        assert_eq!(e.columns_used(), vec![0, 2]);
    }

    #[test]
    fn map_and_shift_columns() {
        let e = ScalarExpr::column(1, "price").eq(ScalarExpr::column(0, "id"));
        let shifted = e.shift_columns(5);
        assert_eq!(shifted.columns_used(), vec![5, 6]);
        let remapped = e.map_columns(&mut |i| if i == 0 { 9 } else { i });
        assert_eq!(remapped.columns_used(), vec![1, 9]);
    }

    #[test]
    fn conjunction_and_split_round_trip() {
        let parts = vec![
            ScalarExpr::column(0, "a").eq(ScalarExpr::literal(1i64)),
            ScalarExpr::column(1, "b").eq(ScalarExpr::literal(2i64)),
            ScalarExpr::column(2, "c").eq(ScalarExpr::literal(3i64)),
        ];
        let conj = ScalarExpr::conjunction(parts.clone());
        let split = conj.split_conjunction();
        assert_eq!(split.len(), 3);
        assert_eq!(*split[0], parts[0]);
        assert_eq!(*split[2], parts[2]);
        // Empty conjunction is TRUE.
        assert_eq!(ScalarExpr::conjunction(vec![]), ScalarExpr::Literal(Value::Bool(true)));
    }

    #[test]
    fn aggregate_types_and_names() {
        let s = schema();
        let sum = AggregateExpr::new(AggregateFunction::Sum, ScalarExpr::column(1, "price"));
        assert_eq!(sum.data_type(&s), DataType::Float);
        assert_eq!(sum.display_name(), "sum(price)");
        let cnt = AggregateExpr::count_star();
        assert_eq!(cnt.data_type(&s), DataType::Int);
        assert_eq!(cnt.display_name(), "count(*)");
        let sum_int = AggregateExpr::new(AggregateFunction::Sum, ScalarExpr::column(0, "id"));
        assert_eq!(sum_int.data_type(&s), DataType::Int);
    }

    #[test]
    fn display_of_expressions() {
        let e = ScalarExpr::column(0, "id").eq(ScalarExpr::literal("x"));
        assert_eq!(e.to_string(), "(id#0 = 'x')");
        let c = ScalarExpr::Case {
            operand: None,
            branches: vec![(
                ScalarExpr::column(0, "id").eq(ScalarExpr::literal(1i64)),
                ScalarExpr::literal(10i64),
            )],
            else_expr: Some(Box::new(ScalarExpr::literal(0i64))),
        };
        assert!(c.to_string().starts_with("CASE WHEN"));
    }

    #[test]
    fn constant_detection() {
        assert!(ScalarExpr::literal(1i64).is_constant());
        assert!(!ScalarExpr::column(0, "x").is_constant());
    }

    #[test]
    fn scalar_function_lookup() {
        assert_eq!(ScalarFunction::from_name("SUBSTRING"), Some(ScalarFunction::Substring));
        assert_eq!(ScalarFunction::from_name("no_such_fn"), None);
        assert_eq!(AggregateFunction::from_name("SUM"), Some(AggregateFunction::Sum));
        assert_eq!(AggregateFunction::from_name("median"), None);
    }
}

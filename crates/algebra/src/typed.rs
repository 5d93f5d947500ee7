//! Plan verification: [`LogicalPlan::verify`] checks a plan's typing rules.
//!
//! Types are decided once, outside this module: [`ScalarExpr::type_with`] types an expression
//! node and [`LogicalPlan::schema`] a plan node, each from its inputs' types. The verifier walks
//! the plan bottom-up once. Each node's schema comes from its inputs' through the per-node
//! function that `schema()` calls, and the verifier checks what those types must satisfy:
//!
//! * selection / join predicates and `CASE WHEN` conditions are boolean,
//! * comparison and arithmetic operands share a [`DataType::common_type`] of the operator's
//!   family (`LIKE` takes text, `*` numbers, `+` / `-` numbers or dates), and each function
//!   argument has the type its function takes,
//! * a column that takes one of several inputs — `CASE` arms, `COALESCE` arguments, the
//!   branches of a set operation — has one type ([`DataType::one_type`]), an untyped NULL
//!   aside: the analyzer casts each input to the inputs' common type,
//! * the inputs of a set operation have one width,
//! * `SUM` / `AVG` take numeric arguments,
//! * prepared-statement parameters resolve to a concrete type from at least one comparison /
//!   arithmetic context (`$1` used only as `$1 IS NULL` is rejected), and that type satisfies
//!   every rule a bare use of the parameter is under, whichever use the walk meets first
//!   (`UPPER($1) … WHERE numempl = $1` is rejected),
//! * `VALUES` rows match the declared schema in arity and type,
//! * column references are in bounds, and every node's schema has
//!   [`LogicalPlan::output_arity`] columns.
//!
//! It derives the one fact the schema does not carry: whether a column can hold NULL. Base
//! columns can (the catalog stores no NOT NULL constraints), and outer joins force their
//! null-supplying side; `EXPLAIN` prints it as `types=(TEXT?, INT?*)`.
//!
//! Errors come back as a structured [`TypeError`] carrying the *plan path* from the root to the
//! offending operator (e.g. `Projection > Join(left) > Selection`), so a pass-ordering bug in
//! the optimizer or a provenance-rewrite regression names the exact operator it broke.
//!
//! Verification runs at every plan boundary (after SQL binding, after the provenance rewrite,
//! after each optimizer pass) in debug builds; release builds only verify at PREPARE time.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::AlgebraError;
use crate::expr::{
    AggregateFunction, BinaryOperator, ScalarExpr, ScalarFunction, SublinkKind, UnaryOperator,
};
use crate::plan::{JoinKind, LogicalPlan};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::DataType;

/// A plan's declared schema as [`LogicalPlan::verify`] checked it, with whether each column can
/// hold NULL.
#[derive(Debug, Clone, PartialEq)]
pub struct Verified {
    /// The declared schema, [`LogicalPlan::schema`].
    pub schema: Schema,
    /// Whether each column can hold NULL.
    pub nullable: Vec<bool>,
}

impl fmt::Display for Verified {
    /// Renders as `(INT, TEXT?, INT?*)`: each column's type, then `?` when it can hold NULL and
    /// `*` when it is a provenance column.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, (a, &nullable)) in self.schema.attributes().iter().zip(&self.nullable).enumerate() {
            let separator = if i > 0 { ", " } else { "" };
            let (null, provenance) =
                (if nullable { "?" } else { "" }, if a.provenance { "*" } else { "" });
            write!(f, "{separator}{}{null}{provenance}", a.data_type)?;
        }
        f.write_str(")")
    }
}

/// What went wrong, inside a [`TypeError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeErrorKind {
    /// An expression or column did not have the type an operator required.
    Mismatch {
        /// The type (or type family) the operator required.
        expected: String,
        /// The type actually inferred.
        actual: String,
    },
    /// A prepared-statement parameter was never used in a context that fixes its type.
    UnresolvedParameter {
        /// Zero-based parameter index (`$1` has index 0).
        index: usize,
    },
    /// A structural invariant (column bounds, arity agreement) was violated. Boxed to keep
    /// `TypeError` small on the `Result` hot path (clippy: `result_large_err`).
    Structural(Box<AlgebraError>),
}

/// A typing error with the plan path from the root to the operator that raised it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeError {
    /// Human-readable description of the typing context ("selection predicate", ...).
    pub context: String,
    /// The specific failure.
    pub kind: TypeErrorKind,
    /// Operator path from the plan root to the offending operator, e.g.
    /// `["Projection", "Join(left)", "Selection"]`.
    pub path: Vec<String>,
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            TypeErrorKind::Mismatch { expected, actual } => {
                write!(f, "type mismatch in {}: expected {expected}, got {actual}", self.context)?
            }
            TypeErrorKind::UnresolvedParameter { index } => write!(
                f,
                "parameter ${} does not resolve to a concrete type (used only in untyped contexts)",
                index + 1
            )?,
            TypeErrorKind::Structural(e) => write!(f, "{e} (in {})", self.context)?,
        }
        if !self.path.is_empty() {
            write!(f, " (at {})", self.path.join(" > "))?;
        }
        Ok(())
    }
}

impl std::error::Error for TypeError {}

impl From<TypeError> for AlgebraError {
    fn from(e: TypeError) -> AlgebraError {
        match e.kind {
            TypeErrorKind::Mismatch { expected, actual } => {
                AlgebraError::TypeMismatch { context: e.context, expected, actual, path: e.path }
            }
            TypeErrorKind::UnresolvedParameter { index } => AlgebraError::TypeMismatch {
                context: format!("parameter ${}", index + 1),
                expected: "a concrete type from at least one comparison or arithmetic use".into(),
                actual: "unresolved".into(),
                path: e.path,
            },
            TypeErrorKind::Structural(inner) => match *inner {
                // Keep the context and operator path for invariant violations; other
                // structural errors already carry their own precise payload.
                AlgebraError::Internal(msg) => AlgebraError::Internal(format!(
                    "{msg} (in {}{})",
                    e.context,
                    if e.path.is_empty() {
                        String::new()
                    } else {
                        format!(", at {}", e.path.join(" > "))
                    }
                )),
                other => other,
            },
        }
    }
}

impl LogicalPlan {
    /// Check this plan's typing rules (see the [module documentation](self)).
    ///
    /// Returns the declared schema with each column's nullability on success and a
    /// [`TypeError`] naming the operator path on failure.
    pub fn verify(&self) -> Result<Verified, TypeError> {
        let mut v = Verifier::default();
        let verified = v.verify_plan(self)?;
        v.check_parameters()?;
        Ok(verified)
    }
}

/// A type and whether it can hold NULL: what the verifier knows of an expression.
type Checked = (DataType, bool);

/// What a rule that takes one family of types requires of a bare `$n` operand (`UPPER($1)`
/// takes TEXT). A parameter is untyped while the walk goes on, so the rule is checked once the
/// whole plan is walked, against the type the parameter resolved to: whichever use of the
/// parameter the walk meets first, a conflicting one is rejected.
struct ParameterRule {
    index: usize,
    ok: fn(DataType) -> bool,
    expected: &'static str,
    context: String,
    path: Vec<String>,
}

/// Bottom-up checking walker; tracks the operator path for error reporting and the types that
/// prepared-statement parameters unify with.
#[derive(Default)]
struct Verifier {
    path: Vec<String>,
    /// Concrete type each parameter has unified with so far (absent = still unknown).
    param_types: BTreeMap<usize, DataType>,
    /// Operator path of the first occurrence of each parameter (for error reporting).
    param_paths: BTreeMap<usize, Vec<String>>,
    /// The rules bare parameter operands must satisfy once their types are known.
    param_rules: Vec<ParameterRule>,
    /// The checked operands of the expressions being checked, innermost last: one stack for
    /// the walk rather than a vector per expression node, which made PREPARE's verify ~15 %
    /// slower on the benchmark's `compile_cold` texts.
    operands: Vec<Checked>,
}

impl Verifier {
    fn mismatch(
        &self,
        context: impl fmt::Display,
        expected: impl fmt::Display,
        actual: impl fmt::Display,
    ) -> TypeError {
        TypeError {
            context: context.to_string(),
            kind: TypeErrorKind::Mismatch {
                expected: expected.to_string(),
                actual: actual.to_string(),
            },
            path: self.path.clone(),
        }
    }

    fn structural(&self, context: impl fmt::Display, inner: AlgebraError) -> TypeError {
        TypeError {
            context: context.to_string(),
            kind: TypeErrorKind::Structural(Box::new(inner)),
            path: self.path.clone(),
        }
    }

    fn scoped<T>(
        &mut self,
        label: String,
        f: impl FnOnce(&mut Verifier) -> Result<T, TypeError>,
    ) -> Result<T, TypeError> {
        self.path.push(label);
        let out = f(self);
        self.path.pop();
        out
    }

    /// After the whole plan has been walked: every parameter must have unified with a concrete
    /// type somewhere, and that type must satisfy every rule a bare use of it is under.
    fn check_parameters(&self) -> Result<(), TypeError> {
        for (&index, first_path) in &self.param_paths {
            let resolved = self.param_types.get(&index).is_some_and(|t| *t != DataType::Null);
            if !resolved {
                return Err(TypeError {
                    context: format!("parameter ${}", index + 1),
                    kind: TypeErrorKind::UnresolvedParameter { index },
                    path: first_path.clone(),
                });
            }
        }
        for rule in &self.param_rules {
            let t = self.param_types.get(&rule.index).copied().unwrap_or(DataType::Null);
            if !(rule.ok)(t) {
                return Err(TypeError {
                    context: format!("parameter ${} in {}", rule.index + 1, rule.context),
                    kind: TypeErrorKind::Mismatch {
                        expected: rule.expected.to_string(),
                        actual: t.to_string(),
                    },
                    path: rule.path.clone(),
                });
            }
        }
        Ok(())
    }

    /// If `expr` is a bare parameter, unify it with the sibling type `t`.
    fn bind_parameter(
        &mut self,
        expr: &ScalarExpr,
        t: DataType,
        context: &dyn fmt::Display,
    ) -> Result<(), TypeError> {
        let ScalarExpr::Parameter { index } = expr else { return Ok(()) };
        if t == DataType::Null {
            return Ok(());
        }
        let merged = match self.param_types.get(index).copied() {
            None | Some(DataType::Null) => t,
            Some(prev) => prev.common_type(t).ok_or_else(|| {
                self.mismatch(format_args!("parameter ${} in {context}", index + 1), prev, t)
            })?,
        };
        self.param_types.insert(*index, merged);
        Ok(())
    }

    /// `operand`, of type `t`, is where a rule takes `expected` (the types `ok` accepts). A bare
    /// parameter is checked once the walk is done (see [`ParameterRule`]).
    fn require(
        &mut self,
        operand: &ScalarExpr,
        t: DataType,
        ok: fn(DataType) -> bool,
        expected: &'static str,
        context: impl fmt::Display,
    ) -> Result<(), TypeError> {
        if !ok(t) {
            return Err(self.mismatch(context, expected, t));
        }
        if let ScalarExpr::Parameter { index } = operand {
            let (context, path) = (context.to_string(), self.path.clone());
            self.param_rules.push(ParameterRule { index: *index, ok, expected, context, path });
        }
        Ok(())
    }

    /// Check `plan`'s inputs, then the node itself, under the node's label in the path.
    fn verify_plan(&mut self, plan: &LogicalPlan) -> Result<Verified, TypeError> {
        let label = match plan {
            LogicalPlan::BaseRelation { name, .. } => format!("BaseRelation({name})"),
            LogicalPlan::Values { .. } => "Values".into(),
            LogicalPlan::Projection { .. } => "Projection".into(),
            LogicalPlan::Selection { .. } => "Selection".into(),
            LogicalPlan::Join { .. } => "Join".into(),
            LogicalPlan::Aggregation { .. } => "Aggregation".into(),
            LogicalPlan::SetOp { kind, .. } => format!("SetOp[{kind}]"),
            LogicalPlan::Sort { .. } => "Sort".into(),
            LogicalPlan::Limit { .. } => "Limit".into(),
            LogicalPlan::SubqueryAlias { alias, .. } => format!("SubqueryAlias({alias})"),
            LogicalPlan::ProvenanceAnnotation { .. } => "ProvenanceAnnotation".into(),
        };
        let children = plan.children();
        if let [left, right] = children[..] {
            let left = self.scoped(format!("{label}(left)"), |v| v.verify_plan(left))?;
            let right = self.scoped(format!("{label}(right)"), |v| v.verify_plan(right))?;
            return self.scoped(label, |v| v.check_node(plan, Some(left), Some(right)));
        }
        self.scoped(label, |v| {
            let input = children.first().map(|child| v.verify_plan(child)).transpose()?;
            v.check_node(plan, input, None)
        })
    }

    /// Check one node over its checked inputs; its schema is the one `schema()` declares.
    fn check_node(
        &mut self,
        plan: &LogicalPlan,
        left: Option<Verified>,
        right: Option<Verified>,
    ) -> Result<Verified, TypeError> {
        let (left, left_null) = left.map(|v| (Some(v.schema), v.nullable)).unwrap_or_default();
        let (right, right_null) = right.map(|v| (Some(v.schema), v.nullable)).unwrap_or_default();
        let empty = Schema::empty();
        let input = left.as_ref().unwrap_or(&empty);
        let nullable = match plan {
            LogicalPlan::BaseRelation { schema, .. } => vec![true; schema.arity()],
            LogicalPlan::Values { schema, rows } => self.check_values(schema, rows)?,
            LogicalPlan::Projection { exprs, .. } => exprs
                .iter()
                .map(|(e, name)| {
                    let context = format_args!("projection expression '{name}'");
                    Ok(self.check_expr(e, input, &left_null, &context)?.1)
                })
                .collect::<Result<_, TypeError>>()?,
            LogicalPlan::Selection { predicate, .. } => {
                self.check_predicate(predicate, input, &left_null, &"selection predicate")?;
                left_null
            }
            LogicalPlan::Join { kind, condition, .. } => {
                // Outer joins force the null-supplying side(s) to nullable.
                let (null_left, null_right) = match kind {
                    JoinKind::Cross | JoinKind::Inner => (false, false),
                    JoinKind::LeftOuter => (false, true),
                    JoinKind::RightOuter => (true, false),
                    JoinKind::FullOuter => (true, true),
                };
                let nullable: Vec<bool> = (left_null.iter().map(|&n| n || null_left))
                    .chain(right_null.iter().map(|&n| n || null_right))
                    .collect();
                // The condition is over the joined schema, which is the node's own.
                let schema = plan.schema_from(left.into_iter().chain(right));
                if let Some(condition) = condition {
                    let context = format_args!("{kind} join condition");
                    self.check_predicate(condition, &schema, &nullable, &context)?;
                }
                return self.arity_checked(plan, schema, nullable);
            }
            LogicalPlan::Aggregation { group_by, aggregates, .. } => {
                let mut nullable = Vec::with_capacity(group_by.len() + aggregates.len());
                for (e, name) in group_by {
                    let context = format_args!("group-by expression '{name}'");
                    nullable.push(self.check_expr(e, input, &left_null, &context)?.1);
                }
                for (agg, name) in aggregates {
                    if let Some(arg) = &agg.arg {
                        let context = format_args!("aggregate '{name}' argument");
                        let (t, _) = self.check_expr(arg, input, &left_null, &context)?;
                        if matches!(agg.func, AggregateFunction::Sum | AggregateFunction::Avg) {
                            let context = format_args!("aggregate {}('{name}')", agg.func.name());
                            self.require(arg, t, numericish, "a numeric argument", context)?;
                        }
                    }
                    // COUNT over an empty group is 0, never NULL; every other aggregate returns
                    // NULL for an empty group.
                    nullable.push(agg.func != AggregateFunction::Count);
                }
                nullable
            }
            LogicalPlan::SetOp { kind, .. } => {
                let right_schema = right.as_ref().unwrap_or(&empty);
                let (left_width, right_width) = (input.arity(), right_schema.arity());
                if left_width != right_width {
                    return Err(self.structural(
                        format_args!("{kind} inputs"),
                        AlgebraError::NotUnionCompatible { left_width, right_width },
                    ));
                }
                let columns = input.attributes().iter().zip(right_schema.attributes());
                for (i, (l, r)) in columns.enumerate() {
                    if l.data_type.one_type(r.data_type).is_none() {
                        let context = format_args!("{kind} column {i}");
                        return Err(self.mismatch(context, l.data_type, r.data_type));
                    }
                }
                left_null.iter().zip(&right_null).map(|(&l, &r)| l || r).collect()
            }
            LogicalPlan::Sort { keys, .. } => {
                for key in keys {
                    self.check_expr(&key.expr, input, &left_null, &"sort key")?;
                }
                left_null
            }
            LogicalPlan::Limit { .. }
            | LogicalPlan::SubqueryAlias { .. }
            | LogicalPlan::ProvenanceAnnotation { .. } => left_null,
        };
        let schema = plan.schema_from(left.into_iter().chain(right));
        self.arity_checked(plan, schema, nullable)
    }

    /// The arity tripwire: the cheap `output_arity` and the schema agree on the column count.
    fn arity_checked(
        &self,
        plan: &LogicalPlan,
        schema: Schema,
        nullable: Vec<bool>,
    ) -> Result<Verified, TypeError> {
        if schema.arity() != plan.output_arity() || nullable.len() != schema.arity() {
            return Err(self.structural(
                "plan arity",
                AlgebraError::Internal(format!(
                    "the schema has {} columns but output_arity() reports {}",
                    schema.arity(),
                    plan.output_arity()
                )),
            ));
        }
        Ok(Verified { schema, nullable })
    }

    /// `VALUES` rows have the schema's width and types; a column can hold NULL iff a row does.
    fn check_values(&self, schema: &Schema, rows: &[Tuple]) -> Result<Vec<bool>, TypeError> {
        let mut nullable = vec![false; schema.arity()];
        for (i, row) in rows.iter().enumerate() {
            if row.arity() != schema.arity() {
                return Err(self.structural(
                    format_args!("VALUES row {i}"),
                    AlgebraError::Internal(format!(
                        "row has {} values for a schema of width {}",
                        row.arity(),
                        schema.arity()
                    )),
                ));
            }
            for ((j, value), column) in row.values().iter().enumerate().zip(schema.attributes()) {
                if value.is_null() {
                    nullable[j] = true;
                } else if !value.data_type().coercible_to(column.data_type) {
                    let context = format_args!("VALUES row {i}, column {j}");
                    return Err(self.mismatch(context, column.data_type, value.data_type()));
                }
            }
        }
        Ok(nullable)
    }

    fn check_predicate(
        &mut self,
        predicate: &ScalarExpr,
        schema: &Schema,
        nullable: &[bool],
        context: &dyn fmt::Display,
    ) -> Result<(), TypeError> {
        let (t, _) = self.check_expr(predicate, schema, nullable, context)?;
        self.require(predicate, t, booleanish, "BOOL", context)
    }

    /// Check `expr`'s operands, then `expr` itself, over an input of `schema` whose columns can
    /// hold NULL where `nullable` says. Its type is the one [`ScalarExpr::type_with`] gives it
    /// over the checked operand types. `context` names where `expr` is in an error message; it
    /// is formatted only when an error is raised (a string per checked expression made verify
    /// ~30 % slower on the TPC-H texts).
    fn check_expr(
        &mut self,
        expr: &ScalarExpr,
        schema: &Schema,
        nullable: &[bool],
        context: &dyn fmt::Display,
    ) -> Result<Checked, TypeError> {
        let base = self.operands.len();
        for operand in expr.operands() {
            let checked = self.check_expr(operand, schema, nullable, context)?;
            self.operands.push(checked);
        }
        // Taken while `expr`'s rule is checked; a sublink's plan starts a stack of its own.
        let mut operands = std::mem::take(&mut self.operands);
        let ops = &operands[base..];
        let can_be_null = self.check_rule(expr, ops, schema, nullable, context)?;
        let checked = (expr.type_with(schema, ops.iter().map(|&(t, _)| t)), can_be_null);
        operands.truncate(base);
        self.operands = operands;
        Ok(checked)
    }

    /// Check the rule of `expr` whose operands checked as `ops` (in
    /// [`ScalarExpr::operands`] order); returns whether `expr` can be NULL.
    fn check_rule(
        &mut self,
        expr: &ScalarExpr,
        ops: &[Checked],
        schema: &Schema,
        nullable: &[bool],
        context: &dyn fmt::Display,
    ) -> Result<bool, TypeError> {
        let any_null = ops.iter().any(|&(_, n)| n);
        match expr {
            ScalarExpr::Column { index, name } => nullable.get(*index).copied().ok_or_else(|| {
                self.structural(
                    format_args!("column '{name}' in {context}"),
                    AlgebraError::ColumnIndexOutOfBounds { index: *index, width: schema.arity() },
                )
            }),
            ScalarExpr::Literal(v) => Ok(v.is_null()),
            ScalarExpr::Parameter { index } => {
                self.param_paths.entry(*index).or_insert_with(|| self.path.clone());
                Ok(true)
            }
            ScalarExpr::BinaryOp { op, left, right } => {
                let (l, r) = (ops[0].0, ops[1].0);
                // A bare parameter takes its sibling's type (`price > $1` makes $1 an INT).
                self.bind_parameter(left, r, context)?;
                self.bind_parameter(right, l, context)?;
                self.check_binary(*op, l, r, context)?;
                // Null-safe comparisons never return NULL.
                let null_safe = matches!(
                    op,
                    BinaryOperator::IsNotDistinctFrom | BinaryOperator::IsDistinctFrom
                );
                Ok(any_null && !null_safe)
            }
            ScalarExpr::UnaryOp { op, expr: operand } => {
                let o = ops[0].0;
                match op {
                    UnaryOperator::Not => {
                        let context = format_args!("NOT operand in {context}");
                        self.require(operand, o, booleanish, "BOOL", context)?;
                    }
                    UnaryOperator::Neg => {
                        let context = format_args!("unary '-' operand in {context}");
                        self.require(operand, o, numericish, "a numeric operand", context)?;
                    }
                    UnaryOperator::IsNull | UnaryOperator::IsNotNull => return Ok(false),
                }
                Ok(any_null)
            }
            ScalarExpr::Function { func, args } => {
                let types: Vec<DataType> = ops.iter().map(|&(t, _)| t).collect();
                self.check_function(*func, args, &types, context)?;
                // COALESCE is only NULL when every argument is; every other function propagates
                // NULL from any argument.
                Ok(match func {
                    ScalarFunction::Coalesce => ops.iter().all(|&(_, n)| n),
                    _ => any_null,
                })
            }
            ScalarExpr::Case { operand, branches, else_expr } => {
                let offset = usize::from(operand.is_some());
                let (pairs, otherwise) = ops[offset..].split_at(2 * branches.len());
                for ((when, _), pair) in branches.iter().zip(pairs.chunks(2)) {
                    let w = pair[0].0;
                    match operand {
                        // Simple CASE: the operand is compared against each WHEN value.
                        Some(_) if ops[0].0.common_type(w).is_none() => {
                            let context = format_args!("CASE WHEN comparison in {context}");
                            return Err(self.mismatch(context, ops[0].0, w));
                        }
                        // Searched CASE: each WHEN is a condition.
                        None => {
                            let context = format_args!("CASE WHEN condition in {context}");
                            self.require(when, w, booleanish, "BOOL", context)?;
                        }
                        _ => {}
                    }
                }
                let mut one = DataType::Null;
                let mut nullable = else_expr.is_none();
                for &(t, n) in pairs.chunks(2).map(|pair| &pair[1]).chain(otherwise) {
                    one = one.one_type(t).ok_or_else(|| {
                        self.mismatch(format_args!("CASE result branches in {context}"), one, t)
                    })?;
                    nullable |= n;
                }
                Ok(nullable)
            }
            ScalarExpr::Cast { expr: inner, data_type } => {
                self.bind_parameter(inner, *data_type, context)?;
                Ok(ops[0].1)
            }
            ScalarExpr::InList { expr: operand, list, .. } => {
                let o = ops[0].0;
                for (item, &(t, _)) in list.iter().zip(&ops[1..]) {
                    self.bind_parameter(item, o, context)?;
                    self.bind_parameter(operand, t, context)?;
                    if o.common_type(t).is_none() {
                        return Err(self.mismatch(format_args!("IN list in {context}"), o, t));
                    }
                }
                Ok(any_null)
            }
            ScalarExpr::Sublink { kind, operand, plan, .. } => {
                let sub = self.scoped(format!("Sublink[{kind:?}]"), |v| v.verify_plan(plan))?;
                if *kind == SublinkKind::Exists {
                    return Ok(false);
                }
                let (column, column_nullable) = match sub.schema.attributes() {
                    [a] => (a.data_type, sub.nullable[0]),
                    columns => {
                        return Err(self.mismatch(
                            format_args!("{kind:?} sublink in {context}"),
                            "a subquery with exactly 1 output column",
                            format_args!("{} columns", columns.len()),
                        ))
                    }
                };
                match operand {
                    // An empty subquery result yields NULL.
                    _ if *kind == SublinkKind::Scalar => Ok(true),
                    None => Err(self.structural(
                        format_args!("IN sublink in {context}"),
                        AlgebraError::Internal("IN sublink is missing its left operand".into()),
                    )),
                    Some(operand) => {
                        let o = ops[0].0;
                        self.bind_parameter(operand, column, context)?;
                        if o.common_type(column).is_none() {
                            let context = format_args!("IN sublink in {context}");
                            return Err(self.mismatch(context, o, column));
                        }
                        Ok(ops[0].1 || column_nullable)
                    }
                }
            }
        }
    }

    fn check_binary(
        &self,
        op: BinaryOperator,
        l: DataType,
        r: DataType,
        context: &dyn fmt::Display,
    ) -> Result<(), TypeError> {
        use BinaryOperator::*;
        let sides = |ok: fn(DataType) -> bool, expected: DataType| match [l, r]
            .into_iter()
            .find(|&side| !ok(side))
        {
            Some(side) => {
                Err(self.mismatch(format_args!("operator {op} in {context}"), expected, side))
            }
            None => Ok(()),
        };
        match op {
            And | Or => sides(booleanish, DataType::Bool),
            Like | NotLike => sides(textish, DataType::Text),
            IsNotDistinctFrom | IsDistinctFrom | Eq | NotEq | Lt | LtEq | Gt | GtEq => {
                self.require_common(op, l, r, context).map(|_| ())
            }
            // `+` doubles as text concatenation (`Value::add`).
            Add if (l, r) == (DataType::Text, DataType::Text) => Ok(()),
            Add | Sub => {
                let common = self.require_common(op, l, r, context)?;
                self.require_family(op, common, true, context)
            }
            Mul | Div | Mod => {
                let common = self.require_common(op, l, r, context)?;
                self.require_family(op, common, false, context)
            }
        }
    }

    fn require_common(
        &self,
        op: BinaryOperator,
        l: DataType,
        r: DataType,
        context: &dyn fmt::Display,
    ) -> Result<DataType, TypeError> {
        l.common_type(r)
            .ok_or_else(|| self.mismatch(format_args!("operator {op} in {context}"), l, r))
    }

    /// Arithmetic operand family check: `+`/`-` also accept dates (date ± days), `*`/`/`/`%`
    /// are numeric-only, matching `Value`'s checked arithmetic.
    fn require_family(
        &self,
        op: BinaryOperator,
        common: DataType,
        dates_ok: bool,
        context: &dyn fmt::Display,
    ) -> Result<(), TypeError> {
        if numericish(common) || (dates_ok && common == DataType::Date) {
            return Ok(());
        }
        let expected = if dates_ok { "numeric or date operands" } else { "numeric operands" };
        Err(self.mismatch(format_args!("operator {op} in {context}"), expected, common))
    }

    /// A function's arity and argument types (`COALESCE`'s arguments have one type).
    fn check_function(
        &mut self,
        func: ScalarFunction,
        args: &[ScalarExpr],
        types: &[DataType],
        context: &dyn fmt::Display,
    ) -> Result<(), TypeError> {
        use ScalarFunction::*;
        let name = func.name();
        let arity_ok = match func {
            Substring => (2..=3).contains(&types.len()),
            Round => (1..=2).contains(&types.len()),
            Coalesce | Concat => !types.is_empty(),
            Upper | Lower | Length | Abs | Floor | Ceil | ExtractYear | ExtractMonth
            | ExtractDay => types.len() == 1,
            DateAddYears | DateAddMonths | DateAddDays => types.len() == 2,
        };
        if !arity_ok {
            return Err(self.structural(
                format_args!("function {name} in {context}"),
                AlgebraError::Internal(format!("{name} called with {} arguments", types.len())),
            ));
        }
        let argument = |i: usize| format!("function {name} argument {} in {context}", i + 1);
        let mut check = |i: usize, ok: fn(DataType) -> bool, expected: &'static str| {
            let context = format_args!("function {name} argument {} in {context}", i + 1);
            self.require(&args[i], types[i], ok, expected, context)
        };
        match func {
            Substring => {
                check(0, textish, "TEXT")?;
                for i in 1..types.len() {
                    check(i, intish, "INT")?;
                }
            }
            Upper | Lower | Length => check(0, textish, "TEXT")?,
            Abs | Floor | Ceil => check(0, numericish, "a numeric argument")?,
            Round => {
                check(0, numericish, "a numeric argument")?;
                if types.len() == 2 {
                    check(1, intish, "INT")?;
                }
            }
            Coalesce => {
                let mut one = DataType::Null;
                for (i, &t) in types.iter().enumerate() {
                    one = one.one_type(t).ok_or_else(|| self.mismatch(argument(i), one, t))?;
                }
            }
            Concat => {} // concat stringifies anything
            ExtractYear | ExtractMonth | ExtractDay => check(0, dateish, "DATE")?,
            DateAddYears | DateAddMonths | DateAddDays => {
                check(0, dateish, "DATE")?;
                check(1, intish, "INT")?;
            }
        }
        Ok(())
    }
}

/// Is the type usable where a boolean is required? (`Null` = untyped NULL / parameter.)
fn booleanish(t: DataType) -> bool {
    matches!(t, DataType::Bool | DataType::Null)
}

/// Is the type usable where text is required?
fn textish(t: DataType) -> bool {
    matches!(t, DataType::Text | DataType::Null)
}

/// Is the type usable where a number is required?
fn numericish(t: DataType) -> bool {
    matches!(t, DataType::Int | DataType::Float | DataType::Null)
}

/// Is the type usable where an integer is required?
fn intish(t: DataType) -> bool {
    matches!(t, DataType::Int | DataType::Null)
}

/// Is the type usable where a date is required?
fn dateish(t: DataType) -> bool {
    matches!(t, DataType::Date | DataType::Null)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PlanBuilder;
    use crate::expr::AggregateExpr;
    use crate::plan::ProvenanceAnnotationKind;
    use crate::schema::{Attribute, Schema};
    use crate::value::Value;

    fn shop_schema() -> Schema {
        Schema::new(vec![
            Attribute::new("name", DataType::Text),
            Attribute::new("numempl", DataType::Int),
        ])
    }

    fn scan() -> PlanBuilder {
        PlanBuilder::scan("shop", shop_schema(), 0)
    }

    #[test]
    fn infers_base_relation_types() {
        let plan = scan().build();
        let t = plan.verify().unwrap();
        assert_eq!(t.schema, plan.schema());
        assert_eq!(t.schema.attribute(0).unwrap().data_type, DataType::Text);
        assert_eq!(t.nullable, [true, true]);
        assert_eq!(t.to_string(), "(TEXT?, INT?)");
    }

    #[test]
    fn verify_matches_output_arity_for_composite_plans() {
        let plan = scan()
            .filter(ScalarExpr::binary(
                BinaryOperator::Gt,
                ScalarExpr::column(1, "numempl"),
                ScalarExpr::literal(3i64),
            ))
            .aggregate(
                vec![(ScalarExpr::column(0, "name"), "name".into())],
                vec![(AggregateExpr::count_star(), "cnt".into())],
            )
            .build();
        let t = plan.verify().unwrap();
        assert_eq!(t.schema.arity(), plan.output_arity());
        // COUNT(*) is INT and never NULL.
        assert_eq!(t.schema.attribute(1).unwrap().data_type, DataType::Int);
        assert!(!t.nullable[1]);
    }

    #[test]
    fn rejects_non_boolean_selection_predicate() {
        let plan = scan().filter(ScalarExpr::column(1, "numempl")).build();
        let err = plan.verify().unwrap_err();
        assert!(matches!(err.kind, TypeErrorKind::Mismatch { .. }));
        assert!(err.path.iter().any(|p| p == "Selection"), "path was {:?}", err.path);
        let msg = AlgebraError::from(err).to_string();
        assert!(msg.contains("Selection"), "message was {msg}");
    }

    #[test]
    fn rejects_text_arithmetic_with_operator_path() {
        // name * 2 deep inside a projection over a join.
        let bad = ScalarExpr::binary(
            BinaryOperator::Mul,
            ScalarExpr::column(0, "name"),
            ScalarExpr::literal(2i64),
        );
        let plan = scan()
            .join(scan_s(), JoinKind::Inner, Some(eq_cols()))
            .project(vec![(bad, "x".into())])
            .build();
        let err = plan.verify().unwrap_err();
        assert_eq!(err.path, vec!["Projection".to_string()]);
        assert!(err.to_string().contains("expected TEXT, got INT"), "{err}");
    }

    fn scan_s() -> PlanBuilder {
        PlanBuilder::scan(
            "sales",
            Schema::new(vec![
                Attribute::new("shop", DataType::Text),
                Attribute::new("qty", DataType::Int),
            ]),
            0,
        )
    }

    fn eq_cols() -> ScalarExpr {
        ScalarExpr::column(0, "name").eq(ScalarExpr::column(2, "shop"))
    }

    #[test]
    fn outer_join_forces_nullability() {
        let rows = vec![Tuple::new(vec![Value::Text("a".into()), Value::Int(1)])];
        let left = PlanBuilder::values(shop_schema(), rows.clone());
        let right = PlanBuilder::values(shop_schema(), rows);
        let plan = left
            .join(
                right,
                JoinKind::LeftOuter,
                Some(ScalarExpr::column(0, "name").eq(ScalarExpr::column(2, "name"))),
            )
            .build();
        let t = plan.verify().unwrap();
        // Values of literals are non-nullable; the left-outer join's right side becomes
        // nullable while the left side stays as inferred.
        assert!(!t.nullable[0]);
        assert!(t.nullable[2]);
    }

    #[test]
    fn rejects_set_op_type_conflict() {
        let ints = PlanBuilder::values(
            Schema::new(vec![Attribute::new("a", DataType::Int)]),
            vec![Tuple::new(vec![Value::Int(1)])],
        );
        let texts = PlanBuilder::values(
            Schema::new(vec![Attribute::new("a", DataType::Text)]),
            vec![Tuple::new(vec![Value::Text("x".into())])],
        );
        let plan = ints
            .set_op(texts, crate::plan::SetOpKind::Union, crate::plan::SetSemantics::Set)
            .build();
        let err = plan.verify().unwrap_err();
        assert!(err.to_string().contains("UNION column 0"), "{err}");
    }

    /// A column of several inputs holds one type: an INT input under a FLOAT column must carry
    /// its cast, and does once the plan is built through the constructors that add them.
    #[test]
    fn rejects_an_input_not_cast_to_its_columns_common_type() {
        let numempl = || ScalarExpr::column(1, "numempl");
        let big =
            ScalarExpr::binary(BinaryOperator::Gt, numempl(), ScalarExpr::Literal(Value::Int(2)));
        let case = |then: ScalarExpr| ScalarExpr::Case {
            operand: None,
            branches: vec![(big.clone(), then)],
            else_expr: Some(Box::new(ScalarExpr::Literal(Value::Float(0.5)))),
        };
        let cast = ScalarExpr::Cast { expr: Box::new(numempl()), data_type: DataType::Float };
        let coalesce = |first: ScalarExpr| ScalarExpr::Function {
            func: ScalarFunction::Coalesce,
            args: vec![
                ScalarExpr::Literal(Value::Null),
                first,
                ScalarExpr::Literal(Value::Float(0.5)),
            ],
        };
        for (expr, rejected) in [
            (case(numempl()), true),
            (case(cast.clone()), false),
            (case(ScalarExpr::Literal(Value::Null)), false),
            (coalesce(numempl()), true),
            (coalesce(cast), false),
        ] {
            let plan = scan().project(vec![(expr.clone(), "c".into())]).build();
            match plan.verify() {
                Ok(verified) => {
                    assert!(!rejected, "{expr:?} verified");
                    assert_eq!(verified.schema.attribute(0).unwrap().data_type, DataType::Float);
                }
                Err(err) => {
                    assert!(rejected, "{expr:?}: {err}");
                    assert!(err.to_string().contains("expected INT, got FLOAT"), "{err}");
                }
            }
        }
        let floats = || PlanBuilder::scan("f", Schema::from_pairs(&[("x", DataType::Float)]), 1);
        let ints = || scan().project(vec![(numempl(), "numempl".into())]);
        let (union, bag) = (crate::plan::SetOpKind::Union, crate::plan::SetSemantics::Bag);
        let uncast = LogicalPlan::SetOp {
            left: ints().build().into(),
            right: floats().build().into(),
            kind: union,
            semantics: bag,
        };
        let err = uncast.verify().unwrap_err();
        assert!(err.to_string().contains("UNION column 0: expected INT, got FLOAT"), "{err}");
        let cast = ints().set_op(floats(), union, bag).build();
        assert_eq!(cast.verify().unwrap().schema.attribute(0).unwrap().data_type, DataType::Float);
        assert_eq!(cast.schema().attribute(0).unwrap().data_type, DataType::Float);
    }

    #[test]
    fn rejects_sum_over_text() {
        let plan = scan()
            .aggregate(
                vec![],
                vec![(
                    AggregateExpr::new(AggregateFunction::Sum, ScalarExpr::column(0, "name")),
                    "s".into(),
                )],
            )
            .build();
        let err = plan.verify().unwrap_err();
        assert!(err.to_string().contains("sum"), "{err}");
        assert!(err.path.iter().any(|p| p == "Aggregation"));
    }

    #[test]
    fn parameter_resolves_through_comparison() {
        let plan = scan()
            .filter(ScalarExpr::binary(
                BinaryOperator::Gt,
                ScalarExpr::column(1, "numempl"),
                ScalarExpr::parameter(0),
            ))
            .build();
        plan.verify().unwrap();
    }

    #[test]
    fn rejects_parameter_without_concrete_type() {
        let pred = ScalarExpr::UnaryOp {
            op: UnaryOperator::IsNull,
            expr: Box::new(ScalarExpr::parameter(0)),
        };
        let plan = scan().filter(pred).build();
        let err = plan.verify().unwrap_err();
        assert!(matches!(err.kind, TypeErrorKind::UnresolvedParameter { index: 0 }));
    }

    /// A bare `$n` under a rule of one type family is checked against the type the parameter
    /// resolves to, whether the use that binds it is walked before or after.
    #[test]
    fn rejects_a_parameter_bound_to_another_type_than_its_rule_takes() {
        let p = || ScalarExpr::parameter(0);
        let bind_int =
            ScalarExpr::binary(BinaryOperator::Eq, ScalarExpr::column(1, "numempl"), p());
        let bind_text = ScalarExpr::column(0, "name").eq(p());
        let upper = ScalarExpr::Function { func: ScalarFunction::Upper, args: vec![p()] };
        let not = ScalarExpr::UnaryOp { op: UnaryOperator::Not, expr: Box::new(p()) };
        let neg = ScalarExpr::UnaryOp { op: UnaryOperator::Neg, expr: Box::new(p()) };
        for (rule, binding, rejected) in [
            (&upper, &bind_int, true),
            (&upper, &bind_text, false),
            (&not, &bind_int, true),
            (&neg, &bind_text, true),
            (&neg, &bind_int, false),
        ] {
            let projected = |e: &ScalarExpr| vec![(e.clone(), "x".into())];
            // The rule above the binding, then below it.
            let above = scan().filter(binding.clone()).project(projected(rule)).build();
            let below = scan().filter(rule.clone().eq(rule.clone())).project(projected(binding));
            for plan in [above, below.build()] {
                match plan.verify() {
                    Ok(_) => assert!(!rejected, "{plan}"),
                    Err(err) => {
                        assert!(rejected, "{plan}: {err}");
                        assert!(err.to_string().contains("parameter $1 in"), "{err}");
                    }
                }
            }
        }
        let sum = AggregateExpr::new(AggregateFunction::Sum, p());
        let plan = scan().filter(bind_text).aggregate(vec![], vec![(sum, "s".into())]).build();
        let err = plan.verify().unwrap_err();
        assert!(err.to_string().contains("expected a numeric argument, got TEXT"), "{err}");
    }

    #[test]
    fn rejects_values_row_type_mismatch() {
        let plan = PlanBuilder::values(
            Schema::new(vec![Attribute::new("a", DataType::Int)]),
            vec![Tuple::new(vec![Value::Text("oops".into())])],
        )
        .build();
        let err = plan.verify().unwrap_err();
        assert!(err.to_string().contains("VALUES row 0, column 0"), "{err}");
    }

    #[test]
    fn provenance_flags_survive_projection() {
        let plan = LogicalPlan::ProvenanceAnnotation {
            input: scan().build_arc(),
            kind: ProvenanceAnnotationKind::AlreadyRewritten(vec!["numempl".into()]),
        };
        let t = plan.verify().unwrap();
        assert!(!t.schema.attribute(0).unwrap().provenance);
        assert!(t.schema.attribute(1).unwrap().provenance);
        assert_eq!(t.to_string(), "(TEXT?, INT?*)");
    }
}

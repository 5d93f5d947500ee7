//! Typed plan inference and verification.
//!
//! [`LogicalPlan::verify`] infers a [`TypedSchema`] — per-column [`DataType`], nullability and
//! provenance flag — bottom-up over the plan and all its scalar expressions, checking arity and
//! column bounds as it goes and *strictly* checking the operator typing rules:
//!
//! * selection / join predicates and `CASE WHEN` conditions must be boolean-typed,
//! * comparison and arithmetic operands must share a [`DataType::common_type`],
//! * set-operation inputs must be pairwise type-compatible, not just arity-compatible,
//! * a column that takes one of several inputs — `CASE` arms, `COALESCE` arguments, the
//!   branches of a set operation — has one type, an untyped NULL aside: the analyzer casts
//!   each input to the inputs' common type,
//! * aggregate inputs must fit the aggregate (`SUM` / `AVG` need numeric arguments),
//! * outer joins force the null-supplying side's columns to nullable,
//! * prepared-statement parameters must resolve to a concrete type from at least one
//!   comparison / arithmetic context (`$1` used only as `$1 IS NULL` is rejected),
//! * `VALUES` rows must match the declared schema in arity and type.
//!
//! Errors come back as a structured [`TypeError`] carrying the *plan path* from the root to the
//! offending operator (e.g. `Projection > Join(left) > Selection`), so a pass-ordering bug in
//! the optimizer or a provenance-rewrite regression names the exact operator it broke.
//!
//! The same inference is the single source of truth for output arity: [`output_arity`] here is
//! what [`LogicalPlan::output_arity`] delegates to, and `verify()` cross-checks the inferred
//! column count against it at every node, so arity and typing can never drift apart.
//!
//! Verification runs at every plan boundary (after SQL binding, after the provenance rewrite,
//! after each optimizer pass) in debug builds; release builds only verify at PREPARE time.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::AlgebraError;
use crate::expr::{
    AggregateFunction, BinaryOperator, ScalarExpr, ScalarFunction, SublinkKind, UnaryOperator,
};
use crate::plan::{JoinKind, LogicalPlan, ProvenanceAnnotationKind};
use crate::value::{DataType, Value};

/// The inferred type of one output column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnType {
    /// The column's data type (`Null` = statically unknown, e.g. a bare NULL literal).
    pub data_type: DataType,
    /// Whether the column can contain NULL (base columns are assumed nullable — the catalog
    /// stores no NOT NULL constraints — and outer joins force their null-supplying side).
    pub nullable: bool,
    /// Whether the column is a provenance attribute (set by the provenance rewrite or a
    /// `PROVENANCE (...)` annotation and propagated through direct column references).
    pub provenance: bool,
}

impl ColumnType {
    /// A non-provenance, nullable column of the given type.
    pub fn nullable(data_type: DataType) -> ColumnType {
        ColumnType { data_type, nullable: true, provenance: false }
    }
}

impl fmt::Display for ColumnType {
    /// Renders as the type name plus `?` when nullable and `*` when a provenance column,
    /// e.g. `INT`, `TEXT?`, `INT?*`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.data_type)?;
        if self.nullable {
            f.write_str("?")?;
        }
        if self.provenance {
            f.write_str("*")?;
        }
        Ok(())
    }
}

/// The inferred output type of a plan node: one [`ColumnType`] per output column.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TypedSchema {
    columns: Vec<ColumnType>,
}

impl TypedSchema {
    /// Build from a column list.
    pub fn new(columns: Vec<ColumnType>) -> TypedSchema {
        TypedSchema { columns }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The column types.
    pub fn columns(&self) -> &[ColumnType] {
        &self.columns
    }

    /// The type of column `i`, if in bounds.
    pub fn column(&self, i: usize) -> Option<&ColumnType> {
        self.columns.get(i)
    }

    /// Concatenate with another schema (join output).
    fn concat(&self, other: &TypedSchema) -> TypedSchema {
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().copied());
        TypedSchema { columns }
    }
}

impl fmt::Display for TypedSchema {
    /// Renders as `(INT, TEXT?, INT?*)` — see [`ColumnType`]'s `Display` for the suffixes.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{c}")?;
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

/// The number of output columns of a plan node, computed without materialising the full
/// [`crate::Schema`] (which clones attribute names).
///
/// This is the *single* authoritative arity derivation: [`LogicalPlan::output_arity`]
/// delegates here, and [`LogicalPlan::verify`] cross-checks the length of the inferred
/// [`TypedSchema`] against it at every node, so the cheap arity and the full type inference
/// cannot silently drift apart.
pub fn output_arity(plan: &LogicalPlan) -> usize {
    match plan {
        LogicalPlan::BaseRelation { schema, .. } | LogicalPlan::Values { schema, .. } => {
            schema.arity()
        }
        LogicalPlan::Projection { exprs, .. } => exprs.len(),
        LogicalPlan::Aggregation { group_by, aggregates, .. } => group_by.len() + aggregates.len(),
        LogicalPlan::Join { left, right, .. } => output_arity(left) + output_arity(right),
        LogicalPlan::SetOp { left, .. } => output_arity(left),
        LogicalPlan::Selection { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. }
        | LogicalPlan::SubqueryAlias { input, .. }
        | LogicalPlan::ProvenanceAnnotation { input, .. } => output_arity(input),
    }
}

impl LogicalPlan {
    /// Infer this plan's [`TypedSchema`] while strictly checking operator typing rules.
    ///
    /// See the [module documentation](self) for the rule catalogue. Returns the root's typed
    /// schema on success and a [`TypeError`] naming the operator path on failure.
    pub fn verify(&self) -> Result<TypedSchema, TypeError> {
        let mut v = Verifier::default();
        let schema = v.verify_plan(self)?;
        v.check_parameters_resolved()?;
        Ok(schema)
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

/// Is the type usable where a date is required?
fn dateish(t: DataType) -> bool {
    matches!(t, DataType::Date | DataType::Null)
}

/// The one type of a column whose inputs have types `a` and `b`: theirs when they agree, the
/// other's when one is an untyped NULL. Inputs of two types need a cast to their common type.
fn one_type(a: DataType, b: DataType) -> Option<DataType> {
    match (a, b) {
        (DataType::Null, t) | (t, DataType::Null) => Some(t),
        (a, b) => (a == b).then_some(a),
    }
}

/// Bottom-up type inference walker; tracks the operator path for error reporting and the
/// types that prepared-statement parameters unify with.
#[derive(Default)]
struct Verifier {
    path: Vec<String>,
    /// Concrete type each parameter has unified with so far (absent = still unknown).
    param_types: BTreeMap<usize, DataType>,
    /// Operator path of the first occurrence of each parameter (for error reporting).
    param_paths: BTreeMap<usize, Vec<String>>,
}

impl Verifier {
    fn mismatch(
        &self,
        context: impl Into<String>,
        expected: impl Into<String>,
        actual: impl Into<String>,
    ) -> TypeError {
        TypeError {
            context: context.into(),
            kind: TypeErrorKind::Mismatch { expected: expected.into(), actual: actual.into() },
            path: self.path.clone(),
        }
    }

    fn structural(&self, context: impl Into<String>, inner: AlgebraError) -> TypeError {
        TypeError {
            context: context.into(),
            kind: TypeErrorKind::Structural(Box::new(inner)),
            path: self.path.clone(),
        }
    }

    fn scoped<T>(
        &mut self,
        label: impl Into<String>,
        f: impl FnOnce(&mut Verifier) -> Result<T, TypeError>,
    ) -> Result<T, TypeError> {
        self.path.push(label.into());
        let out = f(self);
        self.path.pop();
        out
    }

    /// After the whole plan has been walked: every parameter must have unified with a concrete
    /// type somewhere.
    fn check_parameters_resolved(&self) -> Result<(), TypeError> {
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
        Ok(())
    }

    /// If `expr` is a bare parameter, unify it with the sibling type `t`.
    fn bind_parameter(
        &mut self,
        expr: &ScalarExpr,
        t: DataType,
        context: &str,
    ) -> Result<(), TypeError> {
        let ScalarExpr::Parameter { index } = expr else { return Ok(()) };
        if t == DataType::Null {
            return Ok(());
        }
        match self.param_types.get(index).copied() {
            None | Some(DataType::Null) => {
                self.param_types.insert(*index, t);
                Ok(())
            }
            Some(prev) => match prev.common_type(t) {
                Some(merged) => {
                    self.param_types.insert(*index, merged);
                    Ok(())
                }
                None => Err(self.mismatch(
                    format!("parameter ${} in {context}", index + 1),
                    prev.to_string(),
                    t.to_string(),
                )),
            },
        }
    }

    fn verify_plan(&mut self, plan: &LogicalPlan) -> Result<TypedSchema, TypeError> {
        let out = match plan {
            LogicalPlan::BaseRelation { name, schema, .. } => {
                self.scoped(format!("BaseRelation({name})"), |_| {
                    // The catalog stores no NOT NULL constraints, so every base column is
                    // assumed nullable.
                    Ok(TypedSchema::new(
                        schema
                            .attributes()
                            .iter()
                            .map(|a| ColumnType {
                                data_type: a.data_type,
                                nullable: true,
                                provenance: a.provenance,
                            })
                            .collect(),
                    ))
                })?
            }
            LogicalPlan::Values { schema, rows } => self.scoped("Values", |v| {
                let mut columns: Vec<ColumnType> = schema
                    .attributes()
                    .iter()
                    .map(|a| ColumnType {
                        data_type: a.data_type,
                        nullable: false,
                        provenance: a.provenance,
                    })
                    .collect();
                for (i, row) in rows.iter().enumerate() {
                    if row.arity() != schema.arity() {
                        return Err(v.structural(
                            format!("VALUES row {i}"),
                            AlgebraError::Internal(format!(
                                "row has {} values for a schema of width {}",
                                row.arity(),
                                schema.arity()
                            )),
                        ));
                    }
                    for (j, value) in row.values().iter().enumerate() {
                        if matches!(value, Value::Null) {
                            columns[j].nullable = true;
                        } else if !value.data_type().coercible_to(columns[j].data_type) {
                            return Err(v.mismatch(
                                format!("VALUES row {i}, column {j}"),
                                columns[j].data_type.to_string(),
                                value.data_type().to_string(),
                            ));
                        }
                    }
                }
                Ok(TypedSchema::new(columns))
            })?,
            LogicalPlan::Projection { input, exprs, .. } => {
                self.scoped("Projection", |v| {
                    let in_schema = v.verify_plan(input)?;
                    let mut columns = Vec::with_capacity(exprs.len());
                    for (e, name) in exprs {
                        let mut c = v.verify_expr(
                            e,
                            &in_schema,
                            &format!("projection expression '{name}'"),
                        )?;
                        // The provenance flag only survives direct column references, matching
                        // `LogicalPlan::schema()`.
                        c.provenance = e
                            .as_column()
                            .and_then(|i| in_schema.column(i))
                            .is_some_and(|c| c.provenance);
                        columns.push(c);
                    }
                    Ok(TypedSchema::new(columns))
                })?
            }
            LogicalPlan::Selection { input, predicate } => self.scoped("Selection", |v| {
                let in_schema = v.verify_plan(input)?;
                let p = v.verify_expr(predicate, &in_schema, "selection predicate")?;
                if !booleanish(p.data_type) {
                    return Err(v.mismatch(
                        "selection predicate",
                        DataType::Bool.to_string(),
                        p.data_type.to_string(),
                    ));
                }
                Ok(in_schema)
            })?,
            LogicalPlan::Join { left, right, kind, condition } => {
                let lt = self.scoped("Join(left)", |v| v.verify_plan(left))?;
                let rt = self.scoped("Join(right)", |v| v.verify_plan(right))?;
                self.scoped("Join", |v| {
                    let mut out = lt.concat(&rt);
                    if let Some(cond) = condition {
                        let c = v.verify_expr(cond, &out, "join condition")?;
                        if !booleanish(c.data_type) {
                            return Err(v.mismatch(
                                format!("{kind} join condition"),
                                DataType::Bool.to_string(),
                                c.data_type.to_string(),
                            ));
                        }
                    }
                    // Outer joins force the null-supplying side(s) to nullable.
                    let (null_left, null_right) = match kind {
                        JoinKind::Cross | JoinKind::Inner => (false, false),
                        JoinKind::LeftOuter => (false, true),
                        JoinKind::RightOuter => (true, false),
                        JoinKind::FullOuter => (true, true),
                    };
                    let split = lt.arity();
                    for (i, c) in out.columns.iter_mut().enumerate() {
                        if (i < split && null_left) || (i >= split && null_right) {
                            c.nullable = true;
                        }
                    }
                    Ok(out)
                })?
            }
            LogicalPlan::Aggregation { input, group_by, aggregates } => {
                self.scoped("Aggregation", |v| {
                    let in_schema = v.verify_plan(input)?;
                    let mut columns = Vec::with_capacity(group_by.len() + aggregates.len());
                    for (e, name) in group_by {
                        let mut c =
                            v.verify_expr(e, &in_schema, &format!("group-by expression '{name}'"))?;
                        c.provenance = e
                            .as_column()
                            .and_then(|i| in_schema.column(i))
                            .is_some_and(|c| c.provenance);
                        columns.push(c);
                    }
                    for (agg, name) in aggregates {
                        let arg_type = match &agg.arg {
                            Some(arg) => {
                                let a = v.verify_expr(
                                    arg,
                                    &in_schema,
                                    &format!("aggregate '{name}' argument"),
                                )?;
                                if matches!(
                                    agg.func,
                                    AggregateFunction::Sum | AggregateFunction::Avg
                                ) && !numericish(a.data_type)
                                {
                                    return Err(v.mismatch(
                                        format!("aggregate {}('{name}')", agg.func.name()),
                                        "a numeric argument".to_string(),
                                        a.data_type.to_string(),
                                    ));
                                }
                                a.data_type
                            }
                            None => DataType::Int, // COUNT(*)
                        };
                        columns.push(ColumnType {
                            data_type: agg.func.result_type(arg_type),
                            // COUNT over an empty group is 0, never NULL; every other
                            // aggregate returns NULL for an empty group.
                            nullable: agg.func != AggregateFunction::Count,
                            provenance: false,
                        });
                    }
                    Ok(TypedSchema::new(columns))
                })?
            }
            LogicalPlan::SetOp { left, right, kind, .. } => {
                let lt = self.scoped(format!("SetOp[{kind}](left)"), |v| v.verify_plan(left))?;
                let rt = self.scoped(format!("SetOp[{kind}](right)"), |v| v.verify_plan(right))?;
                self.scoped(format!("SetOp[{kind}]"), |v| {
                    if lt.arity() != rt.arity() {
                        return Err(v.structural(
                            format!("{kind} inputs"),
                            AlgebraError::NotUnionCompatible {
                                left_width: lt.arity(),
                                right_width: rt.arity(),
                            },
                        ));
                    }
                    let mut columns = Vec::with_capacity(lt.arity());
                    for (i, (l, r)) in lt.columns.iter().zip(rt.columns.iter()).enumerate() {
                        let Some(common) = one_type(l.data_type, r.data_type) else {
                            return Err(v.mismatch(
                                format!("{kind} column {i}"),
                                l.data_type.to_string(),
                                r.data_type.to_string(),
                            ));
                        };
                        columns.push(ColumnType {
                            data_type: common,
                            nullable: l.nullable || r.nullable,
                            // The output schema takes names/flags from the left input,
                            // matching `LogicalPlan::schema()`.
                            provenance: l.provenance,
                        });
                    }
                    Ok(TypedSchema::new(columns))
                })?
            }
            LogicalPlan::Sort { input, keys } => self.scoped("Sort", |v| {
                let in_schema = v.verify_plan(input)?;
                for key in keys {
                    v.verify_expr(&key.expr, &in_schema, "sort key")?;
                }
                Ok(in_schema)
            })?,
            LogicalPlan::Limit { input, .. } => self.scoped("Limit", |v| v.verify_plan(input))?,
            LogicalPlan::SubqueryAlias { input, alias } => {
                self.scoped(format!("SubqueryAlias({alias})"), |v| v.verify_plan(input))?
            }
            LogicalPlan::ProvenanceAnnotation { input, kind } => {
                self.scoped("ProvenanceAnnotation", |v| {
                    let mut out = v.verify_plan(input)?;
                    if let ProvenanceAnnotationKind::AlreadyRewritten(attrs) = kind {
                        // Flag the listed attributes as provenance columns; name matching
                        // needs the named schema, mirroring `LogicalPlan::schema()`.
                        let named = input.schema();
                        for (i, a) in named.attributes().iter().enumerate() {
                            if attrs.iter().any(|p| a.matches(p)) {
                                if let Some(c) = out.columns.get_mut(i) {
                                    c.provenance = true;
                                }
                            }
                        }
                    }
                    Ok(out)
                })?
            }
        };
        // Arity/typing drift tripwire: the cheap `output_arity` and the full inference must
        // always agree on the column count.
        if out.arity() != output_arity(plan) {
            return Err(self.structural(
                "plan arity",
                AlgebraError::Internal(format!(
                    "inferred {} columns but output_arity() reports {}",
                    out.arity(),
                    output_arity(plan)
                )),
            ));
        }
        Ok(out)
    }

    fn verify_expr(
        &mut self,
        expr: &ScalarExpr,
        input: &TypedSchema,
        context: &str,
    ) -> Result<ColumnType, TypeError> {
        match expr {
            ScalarExpr::Column { index, name } => match input.column(*index) {
                Some(c) => Ok(*c),
                None => Err(self.structural(
                    format!("column '{name}' in {context}"),
                    AlgebraError::ColumnIndexOutOfBounds { index: *index, width: input.arity() },
                )),
            },
            ScalarExpr::Literal(v) => Ok(ColumnType {
                data_type: v.data_type(),
                nullable: matches!(v, Value::Null),
                provenance: false,
            }),
            ScalarExpr::Parameter { index } => {
                self.param_paths.entry(*index).or_insert_with(|| self.path.clone());
                let data_type = self.param_types.get(index).copied().unwrap_or(DataType::Null);
                Ok(ColumnType::nullable(data_type))
            }
            ScalarExpr::BinaryOp { op, left, right } => {
                let l = self.verify_expr(left, input, context)?;
                let r = self.verify_expr(right, input, context)?;
                // A bare parameter takes its sibling's type (`price > $1` makes $1 an INT).
                self.bind_parameter(left, r.data_type, context)?;
                self.bind_parameter(right, l.data_type, context)?;
                self.verify_binary(*op, l, r, context)
            }
            ScalarExpr::UnaryOp { op, expr: operand } => {
                let o = self.verify_expr(operand, input, context)?;
                match op {
                    UnaryOperator::Not => {
                        if !booleanish(o.data_type) {
                            return Err(self.mismatch(
                                format!("NOT operand in {context}"),
                                DataType::Bool.to_string(),
                                o.data_type.to_string(),
                            ));
                        }
                        Ok(ColumnType { data_type: DataType::Bool, ..o })
                    }
                    UnaryOperator::Neg => {
                        if !numericish(o.data_type) {
                            return Err(self.mismatch(
                                format!("unary '-' operand in {context}"),
                                "a numeric operand".to_string(),
                                o.data_type.to_string(),
                            ));
                        }
                        Ok(o)
                    }
                    UnaryOperator::IsNull | UnaryOperator::IsNotNull => Ok(ColumnType {
                        data_type: DataType::Bool,
                        nullable: false,
                        provenance: false,
                    }),
                }
            }
            ScalarExpr::Function { func, args } => {
                self.verify_function(*func, args, input, context)
            }
            ScalarExpr::Case { operand, branches, else_expr } => {
                let operand_type =
                    operand.as_deref().map(|o| self.verify_expr(o, input, context)).transpose()?;
                let mut result: Option<DataType> = None;
                let mut nullable = else_expr.is_none();
                for (when, then) in branches {
                    let w = self.verify_expr(when, input, context)?;
                    match operand_type {
                        // Simple CASE: the operand is compared against each WHEN value.
                        Some(o) => {
                            if o.data_type.common_type(w.data_type).is_none() {
                                return Err(self.mismatch(
                                    format!("CASE WHEN comparison in {context}"),
                                    o.data_type.to_string(),
                                    w.data_type.to_string(),
                                ));
                            }
                        }
                        // Searched CASE: each WHEN is a condition.
                        None => {
                            if !booleanish(w.data_type) {
                                return Err(self.mismatch(
                                    format!("CASE WHEN condition in {context}"),
                                    DataType::Bool.to_string(),
                                    w.data_type.to_string(),
                                ));
                            }
                        }
                    }
                    let t = self.verify_expr(then, input, context)?;
                    nullable |= t.nullable;
                    result = Some(self.merge_branch_type(result, t.data_type, context)?);
                }
                if let Some(e) = else_expr.as_deref() {
                    let t = self.verify_expr(e, input, context)?;
                    nullable |= t.nullable;
                    result = Some(self.merge_branch_type(result, t.data_type, context)?);
                }
                Ok(ColumnType {
                    data_type: result.unwrap_or(DataType::Null),
                    nullable,
                    provenance: false,
                })
            }
            ScalarExpr::Cast { expr: inner, data_type } => {
                let i = self.verify_expr(inner, input, context)?;
                self.bind_parameter(inner, *data_type, context)?;
                Ok(ColumnType { data_type: *data_type, nullable: i.nullable, provenance: false })
            }
            ScalarExpr::InList { expr: operand, list, .. } => {
                let o = self.verify_expr(operand, input, context)?;
                let mut nullable = o.nullable;
                for item in list {
                    let t = self.verify_expr(item, input, context)?;
                    self.bind_parameter(item, o.data_type, context)?;
                    self.bind_parameter(operand, t.data_type, context)?;
                    if o.data_type.common_type(t.data_type).is_none() {
                        return Err(self.mismatch(
                            format!("IN list in {context}"),
                            o.data_type.to_string(),
                            t.data_type.to_string(),
                        ));
                    }
                    nullable |= t.nullable;
                }
                Ok(ColumnType { data_type: DataType::Bool, nullable, provenance: false })
            }
            ScalarExpr::Sublink { kind, operand, plan, .. } => {
                let sub = self.scoped(format!("Sublink[{kind:?}]"), |v| v.verify_plan(plan))?;
                let single_column = |v: &Verifier| -> Result<ColumnType, TypeError> {
                    match sub.columns() {
                        [c] => Ok(*c),
                        cols => Err(v.mismatch(
                            format!("{kind:?} sublink in {context}"),
                            "a subquery with exactly 1 output column".to_string(),
                            format!("{} columns", cols.len()),
                        )),
                    }
                };
                match kind {
                    SublinkKind::Exists => Ok(ColumnType {
                        data_type: DataType::Bool,
                        nullable: false,
                        provenance: false,
                    }),
                    SublinkKind::Scalar => {
                        // An empty subquery result yields NULL.
                        Ok(ColumnType { nullable: true, ..single_column(self)? })
                    }
                    SublinkKind::InSubquery => {
                        let col = single_column(self)?;
                        let Some(op) = operand.as_deref() else {
                            return Err(self.structural(
                                format!("IN sublink in {context}"),
                                AlgebraError::Internal(
                                    "IN sublink is missing its left operand".into(),
                                ),
                            ));
                        };
                        let o = self.verify_expr(op, input, context)?;
                        self.bind_parameter(op, col.data_type, context)?;
                        if o.data_type.common_type(col.data_type).is_none() {
                            return Err(self.mismatch(
                                format!("IN sublink in {context}"),
                                o.data_type.to_string(),
                                col.data_type.to_string(),
                            ));
                        }
                        Ok(ColumnType {
                            data_type: DataType::Bool,
                            nullable: o.nullable || col.nullable,
                            provenance: false,
                        })
                    }
                }
            }
        }
    }

    fn merge_branch_type(
        &self,
        acc: Option<DataType>,
        next: DataType,
        context: &str,
    ) -> Result<DataType, TypeError> {
        match acc {
            None => Ok(next),
            Some(prev) => one_type(prev, next).ok_or_else(|| {
                self.mismatch(
                    format!("CASE result branches in {context}"),
                    prev.to_string(),
                    next.to_string(),
                )
            }),
        }
    }

    fn verify_binary(
        &self,
        op: BinaryOperator,
        l: ColumnType,
        r: ColumnType,
        context: &str,
    ) -> Result<ColumnType, TypeError> {
        use BinaryOperator::*;
        let nullable = l.nullable || r.nullable;
        let boolean =
            |nullable| ColumnType { data_type: DataType::Bool, nullable, provenance: false };
        match op {
            And | Or => {
                for side in [l, r] {
                    if !booleanish(side.data_type) {
                        return Err(self.mismatch(
                            format!("operator {op} in {context}"),
                            DataType::Bool.to_string(),
                            side.data_type.to_string(),
                        ));
                    }
                }
                Ok(boolean(nullable))
            }
            Like | NotLike => {
                for side in [l, r] {
                    if !textish(side.data_type) {
                        return Err(self.mismatch(
                            format!("operator {op} in {context}"),
                            DataType::Text.to_string(),
                            side.data_type.to_string(),
                        ));
                    }
                }
                Ok(boolean(nullable))
            }
            // Null-safe comparisons never return NULL.
            IsNotDistinctFrom | IsDistinctFrom => {
                self.require_common(op, l, r, context)?;
                Ok(boolean(false))
            }
            Eq | NotEq | Lt | LtEq | Gt | GtEq => {
                self.require_common(op, l, r, context)?;
                Ok(boolean(nullable))
            }
            Add => {
                // `+` doubles as text concatenation (`Value::add`).
                if l.data_type == DataType::Text && r.data_type == DataType::Text {
                    return Ok(ColumnType {
                        data_type: DataType::Text,
                        nullable,
                        provenance: false,
                    });
                }
                let common = self.require_common(op, l, r, context)?;
                self.require_family(op, common, true, context)?;
                Ok(ColumnType { data_type: common, nullable, provenance: false })
            }
            Sub => {
                let common = self.require_common(op, l, r, context)?;
                self.require_family(op, common, true, context)?;
                let days_between = (l.data_type, r.data_type) == (DataType::Date, DataType::Date);
                let data_type = if days_between { DataType::Int } else { common };
                Ok(ColumnType { data_type, nullable, provenance: false })
            }
            Mul | Div | Mod => {
                let common = self.require_common(op, l, r, context)?;
                self.require_family(op, common, false, context)?;
                Ok(ColumnType { data_type: common, nullable, provenance: false })
            }
        }
    }

    fn require_common(
        &self,
        op: BinaryOperator,
        l: ColumnType,
        r: ColumnType,
        context: &str,
    ) -> Result<DataType, TypeError> {
        l.data_type.common_type(r.data_type).ok_or_else(|| {
            self.mismatch(
                format!("operator {op} in {context}"),
                l.data_type.to_string(),
                r.data_type.to_string(),
            )
        })
    }

    /// Arithmetic operand family check: `+`/`-` also accept dates (date ± days), `*`/`/`/`%`
    /// are numeric-only, matching `Value`'s checked arithmetic.
    fn require_family(
        &self,
        op: BinaryOperator,
        common: DataType,
        dates_ok: bool,
        context: &str,
    ) -> Result<(), TypeError> {
        if numericish(common) || (dates_ok && common == DataType::Date) {
            return Ok(());
        }
        Err(self.mismatch(
            format!("operator {op} in {context}"),
            if dates_ok { "numeric or date operands" } else { "numeric operands" }.to_string(),
            common.to_string(),
        ))
    }

    fn verify_function(
        &mut self,
        func: ScalarFunction,
        args: &[ScalarExpr],
        input: &TypedSchema,
        context: &str,
    ) -> Result<ColumnType, TypeError> {
        use ScalarFunction::*;
        let name = func.name();
        let arity_ok = match func {
            Substring => (2..=3).contains(&args.len()),
            Round => (1..=2).contains(&args.len()),
            Coalesce | Concat => !args.is_empty(),
            Upper | Lower | Length | Abs | Floor | Ceil | ExtractYear | ExtractMonth
            | ExtractDay => args.len() == 1,
            DateAddYears | DateAddMonths | DateAddDays => args.len() == 2,
        };
        if !arity_ok {
            return Err(self.structural(
                format!("function {name} in {context}"),
                AlgebraError::Internal(format!("{name} called with {} arguments", args.len())),
            ));
        }
        let mut types = Vec::with_capacity(args.len());
        let mut nullables = Vec::with_capacity(args.len());
        for arg in args {
            let t = self.verify_expr(arg, input, context)?;
            nullables.push(t.nullable);
            types.push(t.data_type);
        }
        // COALESCE is only NULL when every argument is; every other function propagates NULL
        // from any argument.
        let nullable = if func == Coalesce {
            nullables.iter().all(|&n| n)
        } else {
            nullables.iter().any(|&n| n)
        };
        let fcx = |i: usize| format!("function {name} argument {} in {context}", i + 1);
        let check = |v: &Verifier, i: usize, ok: bool, expected: &str| -> Result<(), TypeError> {
            if ok {
                Ok(())
            } else {
                Err(v.mismatch(fcx(i), expected.to_string(), types[i].to_string()))
            }
        };
        match func {
            Substring => {
                check(self, 0, textish(types[0]), "TEXT")?;
                for (i, t) in types.iter().enumerate().skip(1) {
                    check(self, i, matches!(t, DataType::Int | DataType::Null), "INT")?;
                }
            }
            Upper | Lower | Length => check(self, 0, textish(types[0]), "TEXT")?,
            Abs | Floor | Ceil => check(self, 0, numericish(types[0]), "a numeric argument")?,
            Round => {
                check(self, 0, numericish(types[0]), "a numeric argument")?;
                if args.len() == 2 {
                    check(self, 1, matches!(types[1], DataType::Int | DataType::Null), "INT")?;
                }
            }
            Coalesce => {
                let mut acc = DataType::Null;
                for (i, t) in types.iter().enumerate() {
                    match one_type(acc, *t) {
                        Some(merged) => acc = merged,
                        None => return Err(self.mismatch(fcx(i), acc.to_string(), t.to_string())),
                    }
                }
            }
            Concat => {} // concat stringifies anything
            ExtractYear | ExtractMonth | ExtractDay => check(self, 0, dateish(types[0]), "DATE")?,
            DateAddYears | DateAddMonths | DateAddDays => {
                check(self, 0, dateish(types[0]), "DATE")?;
                check(self, 1, matches!(types[1], DataType::Int | DataType::Null), "INT")?;
            }
        }
        Ok(ColumnType { data_type: func.result_type(&types), nullable, provenance: false })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PlanBuilder;
    use crate::expr::AggregateExpr;
    use crate::schema::{Attribute, Schema};
    use crate::tuple::Tuple;

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
        assert_eq!(t.arity(), 2);
        assert_eq!(t.column(0).unwrap().data_type, DataType::Text);
        assert!(t.column(0).unwrap().nullable);
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
        assert_eq!(t.arity(), plan.output_arity());
        // COUNT(*) is INT and never NULL.
        assert_eq!(t.column(1).unwrap().data_type, DataType::Int);
        assert!(!t.column(1).unwrap().nullable);
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
        assert!(!t.column(0).unwrap().nullable);
        assert!(t.column(2).unwrap().nullable);
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
                Ok(schema) => {
                    assert!(!rejected, "{expr:?} verified");
                    assert_eq!(schema.columns()[0].data_type, DataType::Float);
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
        assert_eq!(cast.verify().unwrap().columns()[0].data_type, DataType::Float);
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
        assert!(!t.column(0).unwrap().provenance);
        assert!(t.column(1).unwrap().provenance);
        assert_eq!(t.column(1).unwrap().to_string(), "INT?*");
    }
}

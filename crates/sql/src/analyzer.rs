//! The analyzer (binder): turns parsed SQL into bound [`LogicalPlan`]s against a catalog.
//!
//! The analyzer mirrors the "Parser & Analyzer" and "Rewriter" (view unfolding) stages of the
//! paper's Figure 5 architecture. Provenance rewriting itself is *not* implemented here: when a
//! query block carries the SQL-PLE `PROVENANCE` keyword, the analyzer hands the bound plan of
//! that block to a pluggable [`ProvenanceRewrite`] implementation (provided by `perm-core`).
//! This keeps the SQL front end reusable and matches the paper's placement of the provenance
//! rewriter between the analyzer and the planner.

use std::sync::Arc;

use perm_algebra::{
    AggregateExpr, AggregateFunction, Attribute, BinaryOperator, DataType, JoinKind, LogicalPlan,
    Name, PlanBuilder, ProvenanceAnnotationKind, ScalarExpr, ScalarFunction, Schema, SetOpKind,
    SetSemantics, SortKey, SublinkKind, Tuple, UnaryOperator, Value,
};
use perm_storage::Catalog;

use crate::ast::{
    self, Expr, FromAnnotation, InsertSource, JoinOperator, Literal, OrderByItem, Query, Select,
    SelectItem, SetExpr, SetOperator, Statement, TableRef,
};
use crate::error::SqlError;
use crate::parser;

/// Hook invoked by the analyzer when a query block requests provenance (`SELECT PROVENANCE`).
///
/// Implemented by the provenance rewriter of `perm-core` (rewrite rules R1–R9). The returned
/// plan must preserve the original result columns and append the provenance attributes.
pub trait ProvenanceRewrite: Send + Sync {
    /// Rewrite `plan` into its provenance-computing form `plan+`.
    fn rewrite_provenance(&self, plan: &LogicalPlan) -> Result<LogicalPlan, SqlError>;
}

/// A fully analyzed statement, ready for execution by the engine facade.
#[derive(Debug, Clone)]
pub enum AnalyzedStatement {
    /// Create a base table.
    CreateTable {
        /// Table name (lower-cased).
        name: String,
        /// Table schema.
        schema: Schema,
    },
    /// Drop a base table.
    DropTable {
        /// Table name.
        name: String,
        /// Whether `IF EXISTS` was specified.
        if_exists: bool,
    },
    /// Insert literal rows into a table.
    Insert {
        /// Target table.
        table: String,
        /// Rows to insert, already coerced to the table schema.
        rows: Vec<Tuple>,
    },
    /// Insert the result of a query into a table.
    InsertFromQuery {
        /// Target table.
        table: String,
        /// The bound source plan.
        plan: LogicalPlan,
    },
    /// Register a view.
    CreateView {
        /// View name.
        name: String,
        /// The defining SQL text (unfolded on use).
        body_sql: String,
    },
    /// Drop a view.
    DropView {
        /// View name.
        name: String,
        /// Whether `IF EXISTS` was specified.
        if_exists: bool,
    },
    /// A query, possibly materialising its result into a table (`SELECT ... INTO t`).
    Query {
        /// The bound plan.
        plan: LogicalPlan,
        /// Optional `INTO` target table.
        into: Option<String>,
    },
}

/// The analyzer.
#[derive(Clone)]
pub struct Analyzer {
    catalog: Catalog,
    rewriter: Option<Arc<dyn ProvenanceRewrite>>,
}

impl std::fmt::Debug for Analyzer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Analyzer").field("has_rewriter", &self.rewriter.is_some()).finish()
    }
}

/// Per-analysis mutable state.
#[derive(Debug, Default)]
struct AnalyzeContext {
    /// Counter assigning unique reference ids to base relation references (used by the
    /// provenance attribute naming scheme for relations referenced more than once).
    ref_counter: usize,
    /// Stack of view names currently being unfolded, for cycle detection.
    view_stack: Vec<String>,
    /// Where the query block being analyzed sits, when an `INTO` there would not be the
    /// statement's: only the first SELECT of a statement names where its result goes.
    nested_in: Option<&'static str>,
}

impl AnalyzeContext {
    fn next_ref(&mut self) -> usize {
        let id = self.ref_counter;
        self.ref_counter += 1;
        id
    }

    /// Run `analyze` on a query block nested in `place`.
    fn nested<T>(&mut self, place: &'static str, analyze: impl FnOnce(&mut Self) -> T) -> T {
        let outer = self.nested_in.replace(place);
        let out = analyze(self);
        self.nested_in = outer;
        out
    }
}

/// Aggregation binding context used when binding SELECT / HAVING / ORDER BY expressions of an
/// aggregated query block.
struct AggContext<'a> {
    group_asts: &'a [Expr],
    agg_asts: &'a [Expr],
    /// Output schema of the aggregation node (groups first, then aggregates).
    schema: &'a Schema,
}

impl Analyzer {
    /// Create an analyzer without provenance support.
    pub fn new(catalog: Catalog) -> Analyzer {
        Analyzer { catalog, rewriter: None }
    }

    /// Attach a provenance rewriter (enables `SELECT PROVENANCE`).
    pub fn with_rewriter(mut self, rewriter: Arc<dyn ProvenanceRewrite>) -> Analyzer {
        self.rewriter = Some(rewriter);
        self
    }

    /// The catalog used for binding.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Parse and analyze a single statement.
    pub fn analyze_sql(&self, sql: &str) -> Result<AnalyzedStatement, SqlError> {
        let stmt = parser::parse_statement(sql)?;
        self.analyze_statement(&stmt)
    }

    /// Analyze a parsed statement.
    pub fn analyze_statement(&self, stmt: &Statement) -> Result<AnalyzedStatement, SqlError> {
        match stmt {
            Statement::CreateTable { name, columns } => {
                let attrs = columns
                    .iter()
                    .map(|c| Attribute::new(c.name.to_ascii_lowercase(), c.data_type))
                    .collect();
                Ok(AnalyzedStatement::CreateTable {
                    name: name.to_ascii_lowercase(),
                    schema: Schema::new(attrs),
                })
            }
            Statement::DropTable { name, if_exists } => Ok(AnalyzedStatement::DropTable {
                name: name.to_ascii_lowercase(),
                if_exists: *if_exists,
            }),
            Statement::DropView { name, if_exists } => Ok(AnalyzedStatement::DropView {
                name: name.to_ascii_lowercase(),
                if_exists: *if_exists,
            }),
            Statement::CreateView { name, query, body_sql } => {
                // Validate the view body now so that errors surface at creation time.
                let mut ctx = AnalyzeContext::default();
                ctx.nested("a view", |ctx| self.analyze_query(query, ctx))?;
                Ok(AnalyzedStatement::CreateView {
                    name: name.to_ascii_lowercase(),
                    body_sql: body_sql.clone(),
                })
            }
            Statement::Insert { table, columns, source } => {
                self.analyze_insert(table, columns.as_deref(), source)
            }
            Statement::Query(query) => {
                let mut plan = self.analyze_query(query, &mut AnalyzeContext::default())?;
                let into = first_select_into(&query.body);
                if into.is_some() {
                    // As in PostgreSQL, an untyped column of the table INTO creates is TEXT.
                    let types: Vec<DataType> = plan
                        .schema()
                        .attributes()
                        .iter()
                        .map(|a| match a.data_type {
                            DataType::Null => DataType::Text,
                            t => t,
                        })
                        .collect();
                    plan = Arc::unwrap_or_clone(Arc::new(plan).cast_columns(&types));
                }
                Ok(AnalyzedStatement::Query { plan, into })
            }
        }
    }

    /// Parse and analyze a query, returning the bound plan.
    pub fn analyze_query_sql(&self, sql: &str) -> Result<LogicalPlan, SqlError> {
        let query = parser::parse_query(sql)?;
        let mut ctx = AnalyzeContext::default();
        self.analyze_query(&query, &mut ctx)
    }

    fn analyze_insert(
        &self,
        table: &str,
        columns: Option<&[String]>,
        source: &InsertSource,
    ) -> Result<AnalyzedStatement, SqlError> {
        let table = table.to_ascii_lowercase();
        let schema = self.catalog.table_schema(&table)?;
        match source {
            InsertSource::Query(query) => {
                let mut ctx = AnalyzeContext::default();
                let plan = ctx.nested("INSERT ... SELECT", |ctx| self.analyze_query(query, ctx))?;
                if plan.schema().arity() != schema.arity() {
                    return Err(SqlError::analyze(format!(
                        "INSERT source has {} columns but table '{table}' has {}",
                        plan.schema().arity(),
                        schema.arity()
                    )));
                }
                let types: Vec<DataType> =
                    schema.attributes().iter().map(|a| a.data_type).collect();
                let plan = Arc::unwrap_or_clone(Arc::new(plan).cast_columns(&types));
                Ok(AnalyzedStatement::InsertFromQuery { table, plan })
            }
            InsertSource::Values(rows) => {
                // Map the (optional) explicit column list onto table positions.
                let positions: Vec<usize> = match columns {
                    Some(cols) => cols
                        .iter()
                        .map(|c| schema.resolve(c).map_err(SqlError::from))
                        .collect::<Result<_, _>>()?,
                    None => (0..schema.arity()).collect(),
                };
                let mut tuples = Vec::with_capacity(rows.len());
                for row in rows {
                    if row.len() != positions.len() {
                        return Err(SqlError::analyze(format!(
                            "INSERT row has {} values but {} columns were expected",
                            row.len(),
                            positions.len()
                        )));
                    }
                    let mut values = vec![Value::Null; schema.arity()];
                    // The table casts each value to its column's type.
                    for (expr, &pos) in row.iter().zip(&positions) {
                        values[pos] = constant_value(expr)?;
                    }
                    tuples.push(Tuple::new(values));
                }
                Ok(AnalyzedStatement::Insert { table, rows: tuples })
            }
        }
    }

    // ----- queries -------------------------------------------------------------------------

    fn analyze_query(
        &self,
        query: &Query,
        ctx: &mut AnalyzeContext,
    ) -> Result<LogicalPlan, SqlError> {
        let (mut plan, provenance) = self.analyze_set_expr(&query.body, ctx)?;

        if provenance {
            let rewriter = self.rewriter.as_ref().ok_or_else(|| {
                SqlError::unsupported(
                    "SELECT PROVENANCE requires a provenance rewriter (use PermDb from perm-core)",
                )
            })?;
            plan = rewriter.rewrite_provenance(&plan)?;
        }

        if !query.order_by.is_empty() {
            let schema = plan.schema();
            let keys = query
                .order_by
                .iter()
                .map(|item| self.bind_order_by(item, &schema, ctx))
                .collect::<Result<Vec<_>, _>>()?;
            plan = LogicalPlan::Sort { input: Arc::new(plan), keys };
        }

        if query.limit.is_some() || query.offset.is_some() {
            plan = LogicalPlan::Limit {
                input: Arc::new(plan),
                limit: query.limit.map(|n| n as usize),
                offset: query.offset.unwrap_or(0) as usize,
            };
        }

        Ok(plan)
    }

    fn bind_order_by(
        &self,
        item: &OrderByItem,
        schema: &Schema,
        ctx: &mut AnalyzeContext,
    ) -> Result<SortKey, SqlError> {
        let expr = match &item.expr {
            // Ordinal: ORDER BY 2
            Expr::Literal(Literal::Number(n)) if !n.contains('.') => {
                let idx: usize =
                    n.parse().map_err(|_| SqlError::analyze("invalid ORDER BY ordinal"))?;
                if idx == 0 || idx > schema.arity() {
                    return Err(SqlError::analyze(format!("ORDER BY ordinal {idx} out of range")));
                }
                ScalarExpr::column(idx - 1, schema.attribute(idx - 1)?.name.clone())
            }
            other => self.bind_expr(other, schema, ctx, None)?,
        };
        Ok(SortKey {
            expr,
            order: if item.asc {
                perm_algebra::SortOrder::Ascending
            } else {
                perm_algebra::SortOrder::Descending
            },
        })
    }

    fn analyze_set_expr(
        &self,
        set_expr: &SetExpr,
        ctx: &mut AnalyzeContext,
    ) -> Result<(LogicalPlan, bool), SqlError> {
        match set_expr {
            SetExpr::Select(select) => {
                let plan = self.analyze_select(select, ctx)?;
                Ok((plan, select.provenance))
            }
            SetExpr::Query(query) => Ok((self.analyze_query(query, ctx)?, false)),
            SetExpr::SetOperation { left, right, op, all } => {
                let (left_plan, left_prov) = self.analyze_set_expr(left, ctx)?;
                let (right_plan, right_prov) = ctx
                    .nested("a later branch of a set operation", |ctx| {
                        self.analyze_set_expr(right, ctx)
                    })?;
                let kind = match op {
                    SetOperator::Union => SetOpKind::Union,
                    SetOperator::Intersect => SetOpKind::Intersect,
                    SetOperator::Except => SetOpKind::Difference,
                };
                let semantics = if *all { SetSemantics::Bag } else { SetSemantics::Set };
                let right = PlanBuilder::from_plan(right_plan);
                let plan = PlanBuilder::from_plan(left_plan).set_op(right, kind, semantics).build();
                Ok((plan, left_prov || right_prov))
            }
        }
    }

    fn analyze_select(
        &self,
        select: &Select,
        ctx: &mut AnalyzeContext,
    ) -> Result<LogicalPlan, SqlError> {
        if let (Some(target), Some(place)) = (&select.into, ctx.nested_in) {
            return Err(SqlError::analyze(format!(
                "SELECT ... INTO {target} is not allowed in {place}: only the first SELECT of a \
                 statement can name the table its result goes into"
            )));
        }
        // 1. FROM clause.
        let mut plan: LogicalPlan = match select.from.split_first() {
            None => LogicalPlan::Values { schema: Schema::empty(), rows: vec![Tuple::empty()] },
            Some((first, rest)) => {
                let mut plan = self.analyze_table_ref(first, ctx)?;
                for item in rest {
                    let right = self.analyze_table_ref(item, ctx)?;
                    plan = LogicalPlan::Join {
                        left: Arc::new(plan),
                        right: Arc::new(right),
                        kind: JoinKind::Cross,
                        condition: None,
                    };
                }
                plan
            }
        };

        // 2. WHERE clause.
        if let Some(predicate) = &select.selection {
            let schema = plan.schema();
            let bound = self.bind_expr(predicate, &schema, ctx, None)?;
            plan = LogicalPlan::Selection { input: Arc::new(plan), predicate: bound };
        }

        // 3. Aggregation.
        let has_aggregates = !select.group_by.is_empty()
            || select.projection.iter().any(|item| match item {
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                _ => false,
            })
            || select.having.as_ref().map(Expr::contains_aggregate).unwrap_or(false);

        let input_schema = plan.schema();
        let mut agg_group_asts: Vec<Expr> = Vec::new();
        let mut agg_call_asts: Vec<Expr> = Vec::new();

        if has_aggregates {
            agg_group_asts = select.group_by.clone();

            // Collect aggregate calls from the projection and HAVING, first-come order.
            for item in &select.projection {
                if let SelectItem::Expr { expr, .. } = item {
                    collect_aggregates(expr, &mut agg_call_asts);
                }
            }
            if let Some(having) = &select.having {
                collect_aggregates(having, &mut agg_call_asts);
            }

            // Bind grouping expressions and aggregates against the pre-aggregation schema.
            let mut group_by = Vec::with_capacity(agg_group_asts.len());
            for (i, g) in agg_group_asts.iter().enumerate() {
                let bound = self.bind_expr(g, &input_schema, ctx, None)?;
                let name = match g {
                    Expr::Identifier(_) => g.suggested_name(),
                    _ => format!("group_{i}"),
                };
                let name = output_name(&bound, name);
                group_by.push((bound, name));
            }
            let mut aggregates = Vec::with_capacity(agg_call_asts.len());
            for (i, call) in agg_call_asts.iter().enumerate() {
                let agg = self.bind_aggregate_call(call, &input_schema, ctx)?;
                aggregates.push((agg, format!("agg_{i}").into()));
            }

            plan = LogicalPlan::Aggregation { input: Arc::new(plan), group_by, aggregates };
        }

        let post_agg_schema = plan.schema();
        let agg_ctx = if has_aggregates {
            Some(AggContext {
                group_asts: &agg_group_asts,
                agg_asts: &agg_call_asts,
                schema: &post_agg_schema,
            })
        } else {
            None
        };

        // 4. HAVING.
        if let Some(having) = &select.having {
            if !has_aggregates {
                return Err(SqlError::analyze("HAVING requires GROUP BY or aggregate functions"));
            }
            let bound = self.bind_expr(having, &post_agg_schema, ctx, agg_ctx.as_ref())?;
            plan = LogicalPlan::Selection { input: Arc::new(plan), predicate: bound };
        }

        // 5. Projection.
        let current_schema = plan.schema();
        let mut exprs: Vec<(ScalarExpr, Name)> = Vec::new();
        for item in &select.projection {
            match item {
                SelectItem::Wildcard => {
                    for (i, attr) in current_schema.iter() {
                        exprs.push((ScalarExpr::column(i, attr.name.clone()), attr.name.clone()));
                    }
                }
                SelectItem::QualifiedWildcard(qualifier) => {
                    let mut found = false;
                    for (i, attr) in current_schema.iter() {
                        if attr
                            .qualifier
                            .as_deref()
                            .is_some_and(|q| q.eq_ignore_ascii_case(qualifier))
                        {
                            exprs.push((
                                ScalarExpr::column(i, attr.name.clone()),
                                attr.name.clone(),
                            ));
                            found = true;
                        }
                    }
                    if !found {
                        return Err(SqlError::analyze(format!(
                            "unknown relation alias '{qualifier}' in wildcard"
                        )));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let bound = if has_aggregates {
                        self.bind_expr(expr, &post_agg_schema, ctx, agg_ctx.as_ref())?
                    } else {
                        self.bind_expr(expr, &current_schema, ctx, None)?
                    };
                    let name = alias
                        .as_ref()
                        .map(|a| a.to_ascii_lowercase())
                        .unwrap_or_else(|| expr.suggested_name());
                    let name = output_name(&bound, name);
                    exprs.push((bound, name));
                }
            }
        }
        plan = LogicalPlan::Projection { input: Arc::new(plan), exprs, distinct: select.distinct };

        Ok(plan)
    }

    fn analyze_table_ref(
        &self,
        table_ref: &TableRef,
        ctx: &mut AnalyzeContext,
    ) -> Result<LogicalPlan, SqlError> {
        match table_ref {
            TableRef::Table { name, alias, annotation } => {
                let lname = name.to_ascii_lowercase();
                let base = if self.catalog.has_table(&lname) {
                    // The schema's attribute names are the catalog's own; one qualifier is
                    // allocated for the reference and shared by every attribute (and by the
                    // relation's name or alias, whichever it is).
                    let schema = self.catalog.table_schema(&lname)?;
                    let name = Name::from(lname.as_str());
                    let alias = alias.as_ref().map(|a| Name::from(a.to_ascii_lowercase()));
                    let qualifier = alias.clone().unwrap_or_else(|| name.clone());
                    LogicalPlan::BaseRelation {
                        name,
                        alias,
                        schema: schema.with_qualifier(qualifier),
                        ref_id: ctx.next_ref(),
                    }
                } else if let Some(view) = self.catalog.view(&lname) {
                    if ctx.view_stack.iter().any(|v| v == &lname) {
                        return Err(SqlError::analyze(format!(
                            "recursive view reference '{lname}'"
                        )));
                    }
                    ctx.view_stack.push(lname.clone());
                    let query = parser::parse_query(&view.sql)?;
                    let plan = ctx.nested("a view", |ctx| self.analyze_query(&query, ctx))?;
                    ctx.view_stack.pop();
                    let qualifier = alias.as_deref().unwrap_or(&lname).to_ascii_lowercase();
                    LogicalPlan::SubqueryAlias { input: Arc::new(plan), alias: qualifier.into() }
                } else {
                    return Err(SqlError::analyze(format!("relation '{name}' does not exist")));
                };
                Ok(apply_annotation(base, annotation))
            }
            TableRef::Subquery { query, alias, annotation } => {
                let plan = ctx.nested("a derived table", |ctx| self.analyze_query(query, ctx))?;
                let aliased = LogicalPlan::SubqueryAlias {
                    input: Arc::new(plan),
                    alias: alias.to_ascii_lowercase().into(),
                };
                Ok(apply_annotation(aliased, annotation))
            }
            TableRef::Join { left, right, kind, condition } => {
                let left_plan = self.analyze_table_ref(left, ctx)?;
                let right_plan = self.analyze_table_ref(right, ctx)?;
                let combined_schema = left_plan.schema().concat(right_plan.schema());
                let join_kind = match kind {
                    JoinOperator::Inner => JoinKind::Inner,
                    JoinOperator::LeftOuter => JoinKind::LeftOuter,
                    JoinOperator::RightOuter => JoinKind::RightOuter,
                    JoinOperator::FullOuter => JoinKind::FullOuter,
                    JoinOperator::Cross => JoinKind::Cross,
                };
                let bound_condition = condition
                    .as_ref()
                    .map(|c| self.bind_expr(c, &combined_schema, ctx, None))
                    .transpose()?;
                Ok(LogicalPlan::Join {
                    left: Arc::new(left_plan),
                    right: Arc::new(right_plan),
                    kind: join_kind,
                    condition: bound_condition,
                })
            }
        }
    }

    // ----- expression binding --------------------------------------------------------------

    fn bind_aggregate_call(
        &self,
        call: &Expr,
        schema: &Schema,
        ctx: &mut AnalyzeContext,
    ) -> Result<AggregateExpr, SqlError> {
        let Expr::Function { name, args, distinct, star } = call else {
            return Err(SqlError::analyze("internal: expected an aggregate function call"));
        };
        let func = AggregateFunction::from_name(name)
            .ok_or_else(|| SqlError::analyze(format!("unknown aggregate function '{name}'")))?;
        if *star {
            return Ok(AggregateExpr { func, arg: None, distinct: *distinct });
        }
        if args.len() != 1 {
            return Err(SqlError::analyze(format!(
                "aggregate '{name}' takes exactly one argument"
            )));
        }
        let arg = self.bind_expr(&args[0], schema, ctx, None)?;
        Ok(AggregateExpr { func, arg: Some(arg), distinct: *distinct })
    }

    fn bind_expr(
        &self,
        expr: &Expr,
        schema: &Schema,
        ctx: &mut AnalyzeContext,
        agg: Option<&AggContext<'_>>,
    ) -> Result<ScalarExpr, SqlError> {
        // Inside an aggregated block, grouping expressions and aggregate calls bind to the
        // aggregation output.
        if let Some(agg_ctx) = agg {
            if let Some(pos) = agg_ctx.group_asts.iter().position(|g| ast_equal(g, expr)) {
                let attr = agg_ctx.schema.attribute(pos)?;
                return Ok(ScalarExpr::column(pos, attr.name.clone()));
            }
            if expr.contains_aggregate() {
                if let Expr::Function { name, .. } = expr {
                    if ast::is_aggregate_name(name) {
                        let pos =
                            agg_ctx.agg_asts.iter().position(|a| ast_equal(a, expr)).ok_or_else(
                                || SqlError::analyze("internal: aggregate call not collected"),
                            )?;
                        let idx = agg_ctx.group_asts.len() + pos;
                        let attr = agg_ctx.schema.attribute(idx)?;
                        return Ok(ScalarExpr::column(idx, attr.name.clone()));
                    }
                }
                // An expression *containing* aggregates: bind its pieces recursively below.
            } else if let Expr::Identifier(name) = expr {
                // A bare column that is not a grouping expression is invalid in SQL; however we
                // also accept it when it happens to resolve against the aggregation output (e.g.
                // provenance attributes of an already-rewritten input referenced in HAVING).
                if let Some(idx) = agg_ctx.schema.try_resolve(name)? {
                    let attr = agg_ctx.schema.attribute(idx)?;
                    return Ok(ScalarExpr::column(idx, attr.name.clone()));
                }
                return Err(SqlError::analyze(format!(
                    "column '{name}' must appear in the GROUP BY clause or be used in an aggregate function"
                )));
            }
        }

        Ok(match expr {
            Expr::Identifier(name) => {
                let idx = schema.resolve(name)?;
                ScalarExpr::column(idx, schema.attribute(idx)?.name.clone())
            }
            Expr::Literal(lit) => match lit {
                Literal::Interval { .. } => {
                    return Err(SqlError::analyze(
                        "INTERVAL literals are only supported in date + interval arithmetic",
                    ))
                }
                other => ScalarExpr::Literal(literal_value(other)?),
            },
            Expr::BinaryOp { left, op, right } => {
                self.bind_binary(left, *op, right, schema, ctx, agg)?
            }
            Expr::UnaryMinus(inner) => ScalarExpr::UnaryOp {
                op: UnaryOperator::Neg,
                expr: Box::new(self.bind_expr(inner, schema, ctx, agg)?),
            },
            Expr::Not(inner) => ScalarExpr::UnaryOp {
                op: UnaryOperator::Not,
                expr: Box::new(self.bind_expr(inner, schema, ctx, agg)?),
            },
            Expr::Function { name, args, star, .. } => {
                if ast::is_aggregate_name(name) {
                    return Err(SqlError::analyze(format!(
                        "aggregate function '{name}' is not allowed in this clause"
                    )));
                }
                if *star {
                    return Err(SqlError::analyze(format!(
                        "'*' argument is only valid in count(*), not {name}(*)"
                    )));
                }
                let func = ScalarFunction::from_name(name)
                    .ok_or_else(|| SqlError::analyze(format!("unknown function '{name}'")))?;
                let mut bound = args
                    .iter()
                    .map(|a| self.bind_expr(a, schema, ctx, agg))
                    .collect::<Result<Vec<_>, _>>()?;
                if func == ScalarFunction::Coalesce {
                    widen(bound.iter_mut(), schema);
                }
                ScalarExpr::Function { func, args: bound }
            }
            Expr::Case { operand, branches, else_expr } => {
                let bind = |e: &Expr, ctx: &mut AnalyzeContext| self.bind_expr(e, schema, ctx, agg);
                let operand = operand.as_ref().map(|o| bind(o, ctx).map(Box::new)).transpose()?;
                let mut branches = branches
                    .iter()
                    .map(|(w, t)| Ok((bind(w, ctx)?, bind(t, ctx)?)))
                    .collect::<Result<Vec<_>, SqlError>>()?;
                let mut else_expr =
                    else_expr.as_ref().map(|e| bind(e, ctx).map(Box::new)).transpose()?;
                widen(
                    branches.iter_mut().map(|(_, then)| then).chain(else_expr.as_deref_mut()),
                    schema,
                );
                ScalarExpr::Case { operand, branches, else_expr }
            }
            Expr::Cast { expr, data_type } => ScalarExpr::Cast {
                expr: Box::new(self.bind_expr(expr, schema, ctx, agg)?),
                data_type: *data_type,
            },
            Expr::Between { expr, low, high, negated } => {
                let e = self.bind_expr(expr, schema, ctx, agg)?;
                let lo = self.bind_expr(low, schema, ctx, agg)?;
                let hi = self.bind_expr(high, schema, ctx, agg)?;
                let range = ScalarExpr::binary(BinaryOperator::GtEq, e.clone(), lo)
                    .and(ScalarExpr::binary(BinaryOperator::LtEq, e, hi));
                if *negated {
                    ScalarExpr::UnaryOp { op: UnaryOperator::Not, expr: Box::new(range) }
                } else {
                    range
                }
            }
            Expr::InList { expr, list, negated } => ScalarExpr::InList {
                expr: Box::new(self.bind_expr(expr, schema, ctx, agg)?),
                list: list
                    .iter()
                    .map(|e| self.bind_expr(e, schema, ctx, agg))
                    .collect::<Result<Vec<_>, _>>()?,
                negated: *negated,
            },
            Expr::InSubquery { expr, query, negated } => ScalarExpr::Sublink {
                kind: SublinkKind::InSubquery,
                operand: Some(Box::new(self.bind_expr(expr, schema, ctx, agg)?)),
                negated: *negated,
                plan: Arc::new(self.analyze_sublink(query, ctx)?),
            },
            Expr::Exists { query, negated } => ScalarExpr::Sublink {
                kind: SublinkKind::Exists,
                operand: None,
                negated: *negated,
                plan: Arc::new(self.analyze_sublink(query, ctx)?),
            },
            Expr::ScalarSubquery(query) => ScalarExpr::Sublink {
                kind: SublinkKind::Scalar,
                operand: None,
                negated: false,
                plan: Arc::new(self.analyze_sublink(query, ctx)?),
            },
            Expr::IsNull { expr, negated } => ScalarExpr::UnaryOp {
                op: if *negated { UnaryOperator::IsNotNull } else { UnaryOperator::IsNull },
                expr: Box::new(self.bind_expr(expr, schema, ctx, agg)?),
            },
            Expr::Like { expr, pattern, negated } => ScalarExpr::binary(
                if *negated { BinaryOperator::NotLike } else { BinaryOperator::Like },
                self.bind_expr(expr, schema, ctx, agg)?,
                self.bind_expr(pattern, schema, ctx, agg)?,
            ),
            Expr::Extract { field, expr } => {
                let func = match field.as_str() {
                    "year" => ScalarFunction::ExtractYear,
                    "month" => ScalarFunction::ExtractMonth,
                    "day" => ScalarFunction::ExtractDay,
                    other => {
                        return Err(SqlError::analyze(format!(
                            "unsupported EXTRACT field '{other}'"
                        )))
                    }
                };
                ScalarExpr::Function { func, args: vec![self.bind_expr(expr, schema, ctx, agg)?] }
            }
            Expr::Nested(inner) => self.bind_expr(inner, schema, ctx, agg)?,
            // `$n` is 1-based in SQL; the algebra stores zero-based slot indices.
            Expr::Parameter(position) => ScalarExpr::Parameter { index: position - 1 },
        })
    }

    fn bind_binary(
        &self,
        left: &Expr,
        op: ast::BinaryOp,
        right: &Expr,
        schema: &Schema,
        ctx: &mut AnalyzeContext,
        agg: Option<&AggContext<'_>>,
    ) -> Result<ScalarExpr, SqlError> {
        use ast::BinaryOp as B;

        // Date ± INTERVAL arithmetic lowers to the date_add_* functions.
        if matches!(op, B::Plus | B::Minus) {
            if let Expr::Literal(Literal::Interval { value, unit }) = right {
                let base = self.bind_expr(left, schema, ctx, agg)?;
                return interval_function(base, value, unit, op == B::Minus);
            }
            if let Expr::Literal(Literal::Interval { value, unit }) = left {
                if op == B::Plus {
                    let base = self.bind_expr(right, schema, ctx, agg)?;
                    return interval_function(base, value, unit, false);
                }
            }
        }

        let l = self.bind_expr(left, schema, ctx, agg)?;
        let r = self.bind_expr(right, schema, ctx, agg)?;
        let operator = match op {
            B::Plus => BinaryOperator::Add,
            B::Minus => BinaryOperator::Sub,
            B::Multiply => BinaryOperator::Mul,
            B::Divide => BinaryOperator::Div,
            B::Modulo => BinaryOperator::Mod,
            B::Eq => BinaryOperator::Eq,
            B::NotEq => BinaryOperator::NotEq,
            B::Lt => BinaryOperator::Lt,
            B::LtEq => BinaryOperator::LtEq,
            B::Gt => BinaryOperator::Gt,
            B::GtEq => BinaryOperator::GtEq,
            B::And => BinaryOperator::And,
            B::Or => BinaryOperator::Or,
            B::Concat => {
                return Ok(ScalarExpr::Function { func: ScalarFunction::Concat, args: vec![l, r] })
            }
        };
        Ok(ScalarExpr::binary(operator, l, r))
    }

    /// Analyze a sublink query. Correlated sublinks (references to outer attributes) surface as
    /// unknown-attribute errors; report them as the unsupported feature they are.
    fn analyze_sublink(
        &self,
        query: &Query,
        ctx: &mut AnalyzeContext,
    ) -> Result<LogicalPlan, SqlError> {
        match ctx.nested("a subquery expression", |ctx| self.analyze_query(query, ctx)) {
            Ok(plan) => Ok(plan),
            Err(SqlError::Algebra(perm_algebra::AlgebraError::UnknownAttribute {
                name, ..
            })) => Err(SqlError::unsupported(format!(
                "correlated sublinks are not supported (unresolved outer reference '{name}')"
            ))),
            Err(other) => Err(other),
        }
    }
}

/// Cast each of `exprs` — the arms of a `CASE`, the arguments of `COALESCE` — whose type is not
/// their common type to it, so that the column they make holds one type (a literal is cast
/// here, once). A bare `NULL` stays as it is; arms of no common type stay too, for the typed
/// verifier to name.
fn widen<'a>(exprs: impl Iterator<Item = &'a mut ScalarExpr>, schema: &Schema) {
    let exprs: Vec<_> = exprs.filter(|e| !matches!(e, ScalarExpr::Literal(Value::Null))).collect();
    let types: Vec<_> = exprs.iter().map(|e| e.data_type(schema)).collect();
    let common = types.iter().try_fold(DataType::Null, |acc, &t| acc.common_type(t));
    for (expr, data_type) in exprs.into_iter().zip(types) {
        if let Some(common) = common.filter(|&c| c != data_type) {
            let inner = std::mem::replace(expr, ScalarExpr::Literal(Value::Null));
            let literal = match &inner {
                ScalarExpr::Literal(v) => v.cast(common).ok().map(ScalarExpr::Literal),
                _ => None,
            };
            *expr = literal
                .unwrap_or_else(|| ScalarExpr::Cast { expr: inner.into(), data_type: common });
        }
    }
}

/// The output name `name` of `bound`: a column reference that already carries this name lends
/// its shared copy, so `SELECT a` or `GROUP BY a` allocates no name of its own.
fn output_name(bound: &ScalarExpr, name: String) -> Name {
    match bound {
        ScalarExpr::Column { name: shared, .. } if **shared == *name => shared.clone(),
        _ => name.into(),
    }
}

fn apply_annotation(plan: LogicalPlan, annotation: &Option<FromAnnotation>) -> LogicalPlan {
    match annotation {
        None => plan,
        Some(FromAnnotation::BaseRelation) => LogicalPlan::ProvenanceAnnotation {
            input: Arc::new(plan),
            kind: ProvenanceAnnotationKind::BaseRelation,
        },
        Some(FromAnnotation::Provenance(attrs)) => LogicalPlan::ProvenanceAnnotation {
            input: Arc::new(plan),
            kind: ProvenanceAnnotationKind::AlreadyRewritten(
                attrs.iter().map(|a| Name::from(a.to_ascii_lowercase())).collect(),
            ),
        },
    }
}

/// The `INTO` target of a query's first SELECT: as in PostgreSQL, it names the table the whole
/// result goes into, a set operation's included.
fn first_select_into(body: &SetExpr) -> Option<String> {
    match body {
        SetExpr::Select(select) => select.into.as_ref().map(|s| s.to_ascii_lowercase()),
        SetExpr::SetOperation { left, .. } => first_select_into(left),
        SetExpr::Query(query) => first_select_into(&query.body),
    }
}

/// Parse a row of constants, `(v1, v2, ...)`, with the grammar of an `INSERT ... VALUES` row
/// and evaluate each item the way such a row's items are evaluated: the bindings of a prepared
/// statement's `exec`. Empty text and `()` are the empty row.
pub fn parse_constant_row(text: &str) -> Result<Vec<Value>, SqlError> {
    let text = text.trim();
    if text.is_empty() || text == "()" {
        return Ok(Vec::new());
    }
    parser::parse_row(text)?.iter().map(constant_value).collect()
}

/// Evaluate a constant expression (an `INSERT ... VALUES` item or an `exec` binding).
fn constant_value(expr: &Expr) -> Result<Value, SqlError> {
    match expr {
        Expr::Literal(lit) => literal_value(lit),
        Expr::UnaryMinus(inner) => constant_value(inner)?.neg().map_err(SqlError::from),
        Expr::Nested(inner) => constant_value(inner),
        Expr::Parameter(_) => Err(SqlError::unsupported(
            "parameters ($n) are not supported in a VALUES row; prepare a parameterized query \
             instead",
        )),
        Expr::Cast { expr, data_type } => {
            constant_value(expr)?.cast(*data_type).map_err(SqlError::from)
        }
        other => Err(SqlError::analyze(format!("expected a constant expression, found {other:?}"))),
    }
}

fn literal_value(lit: &Literal) -> Result<Value, SqlError> {
    Ok(match lit {
        Literal::Number(n) => {
            if n.contains('.') {
                Value::Float(
                    n.parse::<f64>()
                        .map_err(|_| SqlError::analyze(format!("invalid number '{n}'")))?,
                )
            } else {
                Value::Int(
                    n.parse::<i64>()
                        .map_err(|_| SqlError::analyze(format!("invalid number '{n}'")))?,
                )
            }
        }
        Literal::String(s) => Value::text(s.as_str()),
        Literal::Boolean(b) => Value::Bool(*b),
        Literal::Null => Value::Null,
        Literal::Date(s) => Value::date_from_str(s)?,
        Literal::Interval { .. } => {
            return Err(SqlError::analyze("INTERVAL literal used outside date arithmetic"))
        }
    })
}

fn interval_function(
    base: ScalarExpr,
    value: &str,
    unit: &str,
    negate: bool,
) -> Result<ScalarExpr, SqlError> {
    let n: i64 = value
        .trim()
        .parse()
        .map_err(|_| SqlError::analyze(format!("invalid interval magnitude '{value}'")))?;
    let n = if negate { -n } else { n };
    let func = match unit.trim_end_matches('s') {
        "year" => ScalarFunction::DateAddYears,
        "month" => ScalarFunction::DateAddMonths,
        "day" => ScalarFunction::DateAddDays,
        other => return Err(SqlError::analyze(format!("unsupported interval unit '{other}'"))),
    };
    Ok(ScalarExpr::Function { func, args: vec![base, ScalarExpr::literal(n)] })
}

/// Collect aggregate function calls in first-come order, without duplicates.
fn collect_aggregates(expr: &Expr, out: &mut Vec<Expr>) {
    match expr {
        // The dedup check must not move into the match guard: a failed guard would fall through
        // to the generic Function arm and wrongly recurse into an already-collected aggregate.
        #[allow(clippy::collapsible_match)]
        Expr::Function { name, .. } if ast::is_aggregate_name(name) => {
            if !out.iter().any(|e| ast_equal(e, expr)) {
                out.push(expr.clone());
            }
        }
        Expr::Function { args, .. } => args.iter().for_each(|a| collect_aggregates(a, out)),
        Expr::BinaryOp { left, right, .. } => {
            collect_aggregates(left, out);
            collect_aggregates(right, out);
        }
        Expr::UnaryMinus(e) | Expr::Not(e) | Expr::Nested(e) => collect_aggregates(e, out),
        Expr::Case { operand, branches, else_expr } => {
            if let Some(op) = operand {
                collect_aggregates(op, out);
            }
            for (w, t) in branches {
                collect_aggregates(w, out);
                collect_aggregates(t, out);
            }
            if let Some(e) = else_expr {
                collect_aggregates(e, out);
            }
        }
        Expr::Cast { expr, .. } | Expr::IsNull { expr, .. } | Expr::Extract { expr, .. } => {
            collect_aggregates(expr, out)
        }
        Expr::Between { expr, low, high, .. } => {
            collect_aggregates(expr, out);
            collect_aggregates(low, out);
            collect_aggregates(high, out);
        }
        Expr::InList { expr, list, .. } => {
            collect_aggregates(expr, out);
            list.iter().for_each(|e| collect_aggregates(e, out));
        }
        Expr::Like { expr, pattern, .. } => {
            collect_aggregates(expr, out);
            collect_aggregates(pattern, out);
        }
        Expr::InSubquery { expr, .. } => collect_aggregates(expr, out),
        _ => {}
    }
}

/// Structural AST equality with case-insensitive identifiers and function names. Used to match
/// SELECT / HAVING expressions against GROUP BY expressions and collected aggregate calls.
fn ast_equal(a: &Expr, b: &Expr) -> bool {
    match (a, b) {
        (Expr::Identifier(x), Expr::Identifier(y)) => {
            // Allow an unqualified reference to match its qualified form and vice versa.
            let xs = x.to_ascii_lowercase();
            let ys = y.to_ascii_lowercase();
            xs == ys
                || xs.rsplit('.').next() == Some(ys.as_str())
                || ys.rsplit('.').next() == Some(xs.as_str())
        }
        (Expr::Nested(x), y) => ast_equal(x, y),
        (x, Expr::Nested(y)) => ast_equal(x, y),
        (
            Expr::Function { name: n1, args: a1, distinct: d1, star: s1 },
            Expr::Function { name: n2, args: a2, distinct: d2, star: s2 },
        ) => {
            n1.eq_ignore_ascii_case(n2)
                && d1 == d2
                && s1 == s2
                && a1.len() == a2.len()
                && a1.iter().zip(a2).all(|(x, y)| ast_equal(x, y))
        }
        (
            Expr::BinaryOp { left: l1, op: o1, right: r1 },
            Expr::BinaryOp { left: l2, op: o2, right: r2 },
        ) => o1 == o2 && ast_equal(l1, l2) && ast_equal(r1, r2),
        (Expr::UnaryMinus(x), Expr::UnaryMinus(y)) | (Expr::Not(x), Expr::Not(y)) => {
            ast_equal(x, y)
        }
        (Expr::Extract { field: f1, expr: e1 }, Expr::Extract { field: f2, expr: e2 }) => {
            f1.eq_ignore_ascii_case(f2) && ast_equal(e1, e2)
        }
        (Expr::Cast { expr: e1, data_type: t1 }, Expr::Cast { expr: e2, data_type: t2 }) => {
            t1 == t2 && ast_equal(e1, e2)
        }
        (x, y) => x == y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_algebra::{tuple, DataType};
    use perm_storage::Relation;

    fn paper_catalog() -> Catalog {
        let catalog = Catalog::new();
        catalog
            .create_table_with_data(
                "shop",
                Relation::new(
                    Schema::from_pairs(&[("name", DataType::Text), ("numempl", DataType::Int)]),
                    vec![tuple!["Merdies", 3], tuple!["Joba", 14]],
                )
                .unwrap(),
            )
            .unwrap();
        catalog
            .create_table_with_data(
                "sales",
                Relation::new(
                    Schema::from_pairs(&[("sname", DataType::Text), ("itemid", DataType::Int)]),
                    vec![
                        tuple!["Merdies", 1],
                        tuple!["Merdies", 2],
                        tuple!["Merdies", 2],
                        tuple!["Joba", 3],
                        tuple!["Joba", 3],
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        catalog
            .create_table_with_data(
                "items",
                Relation::new(
                    Schema::from_pairs(&[("id", DataType::Int), ("price", DataType::Int)]),
                    vec![tuple![1, 100], tuple![2, 10], tuple![3, 25]],
                )
                .unwrap(),
            )
            .unwrap();
        catalog
    }

    fn analyze(sql: &str) -> LogicalPlan {
        Analyzer::new(paper_catalog()).analyze_query_sql(sql).unwrap()
    }

    #[test]
    fn constant_rows_parse_sql_literals() {
        let values =
            parse_constant_row("(1, -2.5, 'it''s', NULL, true, date '1995-01-01')").unwrap();
        assert_eq!(values[0], Value::Int(1));
        assert_eq!(values[1], Value::Float(-2.5));
        assert_eq!(values[2], Value::text("it's"));
        assert_eq!(values[3], Value::Null);
        assert_eq!(values[4], Value::Bool(true));
        assert!(matches!(values[5], Value::Date(_)));
        assert!(parse_constant_row("").unwrap().is_empty());
        assert!(parse_constant_row("()").unwrap().is_empty());
        assert!(parse_constant_row("(1").is_err());
        assert!(parse_constant_row("(foo)").is_err());
        assert!(parse_constant_row("(1) extra").is_err());
    }

    #[test]
    fn analyzes_simple_select() {
        let plan = analyze("SELECT name, numempl FROM shop WHERE numempl < 10");
        plan.verify().unwrap();
        assert_eq!(plan.schema().attribute_names(), vec!["name", "numempl"]);
        assert!(matches!(plan, LogicalPlan::Projection { .. }));
    }

    #[test]
    fn analyzes_qualified_references_and_aliases() {
        let plan = analyze("SELECT s.name FROM shop AS s, sales WHERE s.name = sales.sname");
        plan.verify().unwrap();
        assert_eq!(plan.schema().attribute_names(), vec!["name"]);
    }

    #[test]
    fn analyzes_aggregation_with_group_by_and_having() {
        let plan = analyze(
            "SELECT sname, count(*) AS cnt, sum(itemid) FROM sales GROUP BY sname HAVING count(*) > 1",
        );
        plan.verify().unwrap();
        assert_eq!(plan.schema().attribute_names(), vec!["sname", "cnt", "sum"]);
        // Expect Projection over Selection(having) over Aggregation.
        let LogicalPlan::Projection { input, .. } = &plan else { panic!("expected projection") };
        let LogicalPlan::Selection { input, .. } = input.as_ref() else {
            panic!("expected having selection")
        };
        assert!(matches!(input.as_ref(), LogicalPlan::Aggregation { .. }));
    }

    #[test]
    fn analyzes_group_by_expression_reuse() {
        let plan = analyze("SELECT numempl * 2, count(*) FROM shop GROUP BY numempl * 2");
        plan.verify().unwrap();
        assert_eq!(plan.schema().arity(), 2);
    }

    #[test]
    fn wildcard_expansion() {
        let plan = analyze("SELECT * FROM shop, items");
        assert_eq!(plan.schema().attribute_names(), vec!["name", "numempl", "id", "price"]);
        let plan = analyze("SELECT items.* FROM shop, items");
        assert_eq!(plan.schema().attribute_names(), vec!["id", "price"]);
    }

    #[test]
    fn analyzes_paper_example_provenance_error_without_rewriter() {
        let err = Analyzer::new(paper_catalog())
            .analyze_query_sql("SELECT PROVENANCE name FROM shop")
            .unwrap_err();
        assert!(matches!(err, SqlError::Unsupported(_)));
    }

    #[test]
    fn provenance_rewriter_hook_is_invoked() {
        struct MarkerRewriter;
        impl ProvenanceRewrite for MarkerRewriter {
            fn rewrite_provenance(&self, plan: &LogicalPlan) -> Result<LogicalPlan, SqlError> {
                // Wrap in a subquery alias as a visible marker.
                Ok(LogicalPlan::SubqueryAlias {
                    input: Arc::new(plan.clone()),
                    alias: "rewritten".into(),
                })
            }
        }
        let analyzer = Analyzer::new(paper_catalog()).with_rewriter(Arc::new(MarkerRewriter));
        let plan =
            analyzer.analyze_query_sql("SELECT PROVENANCE name FROM shop ORDER BY name").unwrap();
        // The marker must sit *below* the sort: rewrite happens before ORDER BY is applied.
        let LogicalPlan::Sort { input, .. } = &plan else { panic!("expected sort on top") };
        assert!(
            matches!(input.as_ref(), LogicalPlan::SubqueryAlias { alias, .. } if &**alias == "rewritten")
        );
    }

    #[test]
    fn analyzes_sublinks_and_rejects_correlation() {
        let plan = analyze(
            "SELECT name FROM shop WHERE numempl < 10 OR name IN (SELECT sname FROM sales)",
        );
        plan.verify().unwrap();
        let err = Analyzer::new(paper_catalog())
            .analyze_query_sql(
                "SELECT name FROM shop WHERE EXISTS (SELECT 1 FROM sales WHERE sname = name)",
            )
            .unwrap_err();
        assert!(
            matches!(err, SqlError::Unsupported(_)),
            "correlated sublink should be rejected: {err:?}"
        );
    }

    #[test]
    fn analyzes_from_annotations_into_plan_nodes() {
        let plan = analyze("SELECT * FROM sales PROVENANCE (itemid)");
        match &plan {
            LogicalPlan::Projection { input, .. } => match input.as_ref() {
                LogicalPlan::ProvenanceAnnotation { kind, .. } => {
                    assert_eq!(
                        kind,
                        &ProvenanceAnnotationKind::AlreadyRewritten(vec!["itemid".into()])
                    );
                }
                other => panic!("expected annotation node, got {other}"),
            },
            other => panic!("expected projection, got {other}"),
        }
        let plan = analyze("SELECT * FROM (SELECT id FROM items) BASERELATION AS sub");
        assert!(plan.display_tree().contains("BASERELATION"));
    }

    #[test]
    fn analyzes_views_by_unfolding() {
        let catalog = paper_catalog();
        catalog.create_view("cheap_items", "SELECT id, price FROM items WHERE price < 50").unwrap();
        let analyzer = Analyzer::new(catalog);
        let plan = analyzer.analyze_query_sql("SELECT id FROM cheap_items").unwrap();
        plan.verify().unwrap();
        assert_eq!(plan.schema().attribute_names(), vec!["id"]);
        assert_eq!(plan.base_relations().len(), 1);
    }

    #[test]
    fn recursive_views_are_rejected() {
        let catalog = paper_catalog();
        catalog.create_view("v1", "SELECT * FROM v1").unwrap();
        let err = Analyzer::new(catalog).analyze_query_sql("SELECT * FROM v1").unwrap_err();
        assert!(err.to_string().contains("recursive"));
    }

    #[test]
    fn analyzes_statements() {
        let analyzer = Analyzer::new(paper_catalog());
        let stmt = analyzer.analyze_sql("CREATE TABLE t (a INT, b TEXT, c DATE)").unwrap();
        match stmt {
            AnalyzedStatement::CreateTable { name, schema } => {
                assert_eq!(name, "t");
                assert_eq!(schema.arity(), 3);
                assert_eq!(schema.attribute(2).unwrap().data_type, DataType::Date);
            }
            other => panic!("unexpected {other:?}"),
        }
        let stmt = analyzer.analyze_sql("INSERT INTO items VALUES (4, 55), (5, -3)").unwrap();
        match stmt {
            AnalyzedStatement::Insert { rows, .. } => {
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[1], tuple![5, -3]);
            }
            other => panic!("unexpected {other:?}"),
        }
        let stmt = analyzer.analyze_sql("SELECT name INTO shops_copy FROM shop").unwrap();
        match stmt {
            AnalyzedStatement::Query { into, .. } => {
                assert_eq!(into.as_deref(), Some("shops_copy"))
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn insert_with_explicit_columns_fills_nulls() {
        let analyzer = Analyzer::new(paper_catalog());
        let stmt = analyzer.analyze_sql("INSERT INTO items (price) VALUES (42)").unwrap();
        match stmt {
            AnalyzedStatement::Insert { rows, .. } => {
                assert_eq!(rows[0], Tuple::new(vec![Value::Null, Value::Int(42)]));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn set_operations_and_order_by_ordinal() {
        let plan = analyze(
            "SELECT name FROM shop UNION ALL SELECT sname FROM sales ORDER BY 1 DESC LIMIT 3",
        );
        plan.verify().unwrap();
        let LogicalPlan::Limit { input, limit, .. } = &plan else { panic!("expected limit") };
        assert_eq!(*limit, Some(3));
        assert!(matches!(input.as_ref(), LogicalPlan::Sort { .. }));
    }

    #[test]
    fn rejects_unknown_relation_and_column() {
        let analyzer = Analyzer::new(paper_catalog());
        assert!(analyzer.analyze_query_sql("SELECT * FROM nope").is_err());
        assert!(analyzer.analyze_query_sql("SELECT ghost FROM shop").is_err());
        assert!(analyzer
            .analyze_query_sql("SELECT sum(price) FROM items GROUP BY id HAVING ghost > 1")
            .is_err());
    }

    #[test]
    fn date_interval_arithmetic_is_lowered() {
        let plan = analyze(
            "SELECT id FROM items WHERE date '1995-01-01' + interval '1' year > date '1995-06-01'",
        );
        plan.verify().unwrap();
    }
}

//! The logical algebra operators of the Perm paper (Figure 1), plus the auxiliary operators
//! needed to express SQL (sort, limit, literal values, subquery aliases).
//!
//! Plans are immutable trees with [`std::sync::Arc`] children so that the provenance rewriter can
//! duplicate sub-plans cheaply (rewrite rules R5–R9 and the ASPJ / set-operation query-tree
//! rewrites all reference the *original* sub-plan next to its rewritten copy).

use std::fmt;
use std::sync::Arc;

use crate::error::AlgebraError;
use crate::expr::{or_untyped, AggregateExpr, ScalarExpr, SortKey};
use crate::schema::{Attribute, Name, Schema};
use crate::tuple::Tuple;
use crate::value::DataType;

/// Set vs. bag semantics of an operator (the `S`/`B` superscripts of Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetSemantics {
    /// Duplicate-eliminating (set) semantics.
    Set,
    /// Duplicate-preserving (bag) semantics.
    Bag,
}

/// The kind of a set operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetOpKind {
    /// Union (`∪`).
    Union,
    /// Intersection (`∩`).
    Intersect,
    /// Difference (`−`).
    Difference,
}

impl fmt::Display for SetOpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SetOpKind::Union => "UNION",
            SetOpKind::Intersect => "INTERSECT",
            SetOpKind::Difference => "EXCEPT",
        };
        f.write_str(s)
    }
}

/// The kind of a join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    /// Cross product (`×`).
    Cross,
    /// Inner join (`⋈_C`).
    Inner,
    /// Left outer join.
    LeftOuter,
    /// Right outer join.
    RightOuter,
    /// Full outer join.
    FullOuter,
}

impl fmt::Display for JoinKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JoinKind::Cross => "CROSS",
            JoinKind::Inner => "INNER",
            JoinKind::LeftOuter => "LEFT OUTER",
            JoinKind::RightOuter => "RIGHT OUTER",
            JoinKind::FullOuter => "FULL OUTER",
        };
        f.write_str(s)
    }
}

/// A node of the logical plan tree.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// A reference to a stored base relation (or a view / subquery forced to act as one via the
    /// SQL-PLE `BASERELATION` keyword).
    BaseRelation {
        /// Catalog name of the relation.
        name: Name,
        /// Alias under which the relation is referenced, if any.
        alias: Option<Name>,
        /// The relation's schema (attribute qualifiers already set to the alias or name).
        schema: Schema,
        /// Reference counter distinguishing multiple references to the same relation within one
        /// query; used by the provenance attribute naming scheme (`prov_<rel>_<k>_<attr>`).
        ref_id: usize,
    },
    /// A literal relation (used by `INSERT ... VALUES` and tests).
    Values {
        /// Schema of the rows.
        schema: Schema,
        /// The rows.
        rows: Vec<Tuple>,
    },
    /// Projection `Π_A(T)`; `distinct = true` selects the set-semantics version.
    Projection {
        /// Input plan.
        input: Arc<LogicalPlan>,
        /// Projected expressions with output names.
        exprs: Vec<(ScalarExpr, Name)>,
        /// Whether duplicates are eliminated (set semantics).
        distinct: bool,
    },
    /// Selection `σ_C(T)`.
    Selection {
        /// Input plan.
        input: Arc<LogicalPlan>,
        /// The predicate.
        predicate: ScalarExpr,
    },
    /// Cross product / join family (`×`, `⋈_C`, outer joins). The join condition refers to the
    /// concatenated schema `left ++ right`.
    Join {
        /// Left input.
        left: Arc<LogicalPlan>,
        /// Right input.
        right: Arc<LogicalPlan>,
        /// Join kind.
        kind: JoinKind,
        /// Join condition; `None` only for cross products.
        condition: Option<ScalarExpr>,
    },
    /// Aggregation `α_{G, aggr}(T)`; output schema is the grouping expressions followed by the
    /// aggregate results.
    Aggregation {
        /// Input plan.
        input: Arc<LogicalPlan>,
        /// Grouping expressions with output names.
        group_by: Vec<(ScalarExpr, Name)>,
        /// Aggregate expressions with output names.
        aggregates: Vec<(AggregateExpr, Name)>,
    },
    /// Set operation (union / intersection / difference) with set or bag semantics.
    SetOp {
        /// Left input.
        left: Arc<LogicalPlan>,
        /// Right input.
        right: Arc<LogicalPlan>,
        /// Which set operation.
        kind: SetOpKind,
        /// Set or bag semantics (`UNION` vs `UNION ALL`).
        semantics: SetSemantics,
    },
    /// Sort (`ORDER BY`). Provenance rewriting passes through this operator untouched.
    Sort {
        /// Input plan.
        input: Arc<LogicalPlan>,
        /// Sort keys.
        keys: Vec<SortKey>,
    },
    /// Limit / offset.
    Limit {
        /// Input plan.
        input: Arc<LogicalPlan>,
        /// Maximum number of rows to return (`None` = unlimited).
        limit: Option<usize>,
        /// Number of rows to skip.
        offset: usize,
    },
    /// A named subquery (`FROM (...) AS alias`); only changes attribute qualifiers.
    SubqueryAlias {
        /// Input plan.
        input: Arc<LogicalPlan>,
        /// The alias.
        alias: Name,
    },
    /// An SQL-PLE provenance annotation attached to a from-clause item (§IV-A of the paper).
    ///
    /// Normal execution passes straight through this node; the provenance rewriter of
    /// `perm-core` interprets it.
    ProvenanceAnnotation {
        /// The annotated sub-plan.
        input: Arc<LogicalPlan>,
        /// Which annotation was given.
        kind: ProvenanceAnnotationKind,
    },
}

/// The kinds of SQL-PLE from-clause provenance annotations.
#[derive(Debug, Clone, PartialEq)]
pub enum ProvenanceAnnotationKind {
    /// `... BASERELATION` — treat the sub-plan as a base relation (rewrite rule R1 applies to it
    /// as a whole), limiting the provenance scope.
    BaseRelation,
    /// `... PROVENANCE (attr, ...)` — the sub-plan is already provenance-rewritten (external or
    /// stored provenance); the listed attributes form its P-list.
    AlreadyRewritten(Vec<Name>),
}

/// Pop the next child during [`LogicalPlan::with_new_children`]; the arity is pre-checked, so an
/// empty vector here is an internal invariant violation rather than a panic.
fn pop_child(children: &mut Vec<Arc<LogicalPlan>>) -> Result<Arc<LogicalPlan>, AlgebraError> {
    children.pop().ok_or_else(|| AlgebraError::Internal("with_new_children: missing child".into()))
}

/// The column `e AS name` makes over `input`: a column reference keeps its source's qualifier
/// and provenance flag.
fn output_column(input: &Schema, e: &ScalarExpr, name: &Name) -> Attribute {
    let source = e.as_column().and_then(|i| input.attribute(i).ok());
    Attribute {
        name: name.clone(),
        data_type: e.data_type(input),
        qualifier: source.and_then(|a| a.qualifier.clone()),
        provenance: source.is_some_and(|a| a.provenance),
    }
}

impl LogicalPlan {
    /// This plan with every column whose type is not `types[i]` cast to it: inside the plan's
    /// own expressions when it is a plain projection, else by one projection on top.
    pub fn cast_columns(self: Arc<LogicalPlan>, types: &[DataType]) -> Arc<LogicalPlan> {
        let schema = self.schema();
        let cast =
            |(i, a): (usize, &Attribute)| types.get(i).filter(|&&t| t != a.data_type).copied();
        if schema.iter().all(|column| cast(column).is_none()) {
            return self;
        }
        let (input, exprs) = match self.as_ref() {
            LogicalPlan::Projection { input, exprs, distinct: false } => {
                (input.clone(), exprs.clone())
            }
            _ => (
                self.clone(),
                schema
                    .iter()
                    .map(|(i, a)| (ScalarExpr::column(i, a.name.clone()), a.name.clone()))
                    .collect(),
            ),
        };
        let exprs =
            exprs.into_iter().zip(schema.iter()).map(|((expr, name), column)| match cast(column) {
                Some(data_type) => (ScalarExpr::Cast { expr: Box::new(expr), data_type }, name),
                None => (expr, name),
            });
        Arc::new(LogicalPlan::Projection { input, exprs: exprs.collect(), distinct: false })
    }

    /// The output schema of this plan node: [`LogicalPlan::schema_from`] over its children's.
    pub fn schema(&self) -> Schema {
        self.schema_from(self.children().into_iter().map(|input| input.schema()))
    }

    /// The output schema of this node given its inputs' output schemas, in
    /// [`LogicalPlan::children`] order: the one place a plan column's type and provenance flag
    /// are decided. [`LogicalPlan::schema`] feeds it its children's schemas,
    /// [`LogicalPlan::verify`] the schemas it has checked.
    pub(crate) fn schema_from(&self, inputs: impl IntoIterator<Item = Schema>) -> Schema {
        let mut inputs = inputs.into_iter();
        let mut input = || inputs.next().unwrap_or_default();
        match self {
            LogicalPlan::BaseRelation { schema, .. } | LogicalPlan::Values { schema, .. } => {
                schema.clone()
            }
            LogicalPlan::Projection { exprs, .. } => {
                let input = input();
                Schema::new(exprs.iter().map(|(e, name)| output_column(&input, e, name)).collect())
            }
            LogicalPlan::Selection { .. }
            | LogicalPlan::Sort { .. }
            | LogicalPlan::Limit { .. }
            | LogicalPlan::ProvenanceAnnotation {
                kind: ProvenanceAnnotationKind::BaseRelation,
                ..
            } => input(),
            LogicalPlan::Join { .. } => input().concat(input()),
            LogicalPlan::Aggregation { group_by, aggregates, .. } => {
                let input = input();
                let groups = group_by.iter().map(|(e, name)| output_column(&input, e, name));
                let aggregates = aggregates
                    .iter()
                    .map(|(a, name)| Attribute::new(name.clone(), a.data_type(&input)));
                Schema::new(groups.chain(aggregates).collect())
            }
            // A column's type is its branches' one type; its name and flags are the left's.
            LogicalPlan::SetOp { .. } => {
                let (left, right) = (input(), input());
                let column = |(i, a): (usize, &Attribute)| {
                    let right = right.attribute(i).ok().map(|b| b.data_type);
                    let data_type = or_untyped(right.and_then(|b| a.data_type.one_type(b)));
                    Attribute { data_type, ..a.clone() }
                };
                Schema::new(left.iter().map(column).collect())
            }
            LogicalPlan::SubqueryAlias { alias, .. } => input().with_qualifier(alias.clone()),
            LogicalPlan::ProvenanceAnnotation {
                kind: ProvenanceAnnotationKind::AlreadyRewritten(attrs),
                ..
            } => {
                let mut schema = input().attributes().to_vec();
                for a in &mut schema {
                    a.provenance |= attrs.iter().any(|p| a.matches(p));
                }
                Schema::new(schema)
            }
        }
    }

    /// The number of output columns, computed without materialising the full [`Schema`]
    /// (which clones attribute names). Hot paths — the executor and optimizer — only need
    /// arities to split join column spaces; [`LogicalPlan::verify`] checks at every node that
    /// the schema has this many columns.
    pub fn output_arity(&self) -> usize {
        match self {
            LogicalPlan::BaseRelation { schema, .. } | LogicalPlan::Values { schema, .. } => {
                schema.arity()
            }
            LogicalPlan::Projection { exprs, .. } => exprs.len(),
            LogicalPlan::Aggregation { group_by, aggregates, .. } => {
                group_by.len() + aggregates.len()
            }
            LogicalPlan::Join { left, right, .. } => left.output_arity() + right.output_arity(),
            LogicalPlan::SetOp { left, .. } => left.output_arity(),
            LogicalPlan::Selection { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::SubqueryAlias { input, .. }
            | LogicalPlan::ProvenanceAnnotation { input, .. } => input.output_arity(),
        }
    }

    /// The direct children of this node.
    pub fn children(&self) -> Vec<&Arc<LogicalPlan>> {
        match self {
            LogicalPlan::BaseRelation { .. } | LogicalPlan::Values { .. } => vec![],
            LogicalPlan::Projection { input, .. }
            | LogicalPlan::Selection { input, .. }
            | LogicalPlan::Aggregation { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::SubqueryAlias { input, .. }
            | LogicalPlan::ProvenanceAnnotation { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } | LogicalPlan::SetOp { left, right, .. } => {
                vec![left, right]
            }
        }
    }

    /// Rebuild this node with new children (same arity as [`LogicalPlan::children`]).
    pub fn with_new_children(
        &self,
        mut children: Vec<Arc<LogicalPlan>>,
    ) -> Result<LogicalPlan, AlgebraError> {
        let expected = self.children().len();
        if children.len() != expected {
            return Err(AlgebraError::Internal(format!(
                "with_new_children: expected {expected} children, got {}",
                children.len()
            )));
        }
        Ok(match self {
            LogicalPlan::BaseRelation { .. } | LogicalPlan::Values { .. } => self.clone(),
            LogicalPlan::Projection { exprs, distinct, .. } => LogicalPlan::Projection {
                input: pop_child(&mut children)?,
                exprs: exprs.clone(),
                distinct: *distinct,
            },
            LogicalPlan::Selection { predicate, .. } => LogicalPlan::Selection {
                input: pop_child(&mut children)?,
                predicate: predicate.clone(),
            },
            LogicalPlan::Join { kind, condition, .. } => {
                let right = pop_child(&mut children)?;
                let left = pop_child(&mut children)?;
                LogicalPlan::Join { left, right, kind: *kind, condition: condition.clone() }
            }
            LogicalPlan::Aggregation { group_by, aggregates, .. } => LogicalPlan::Aggregation {
                input: pop_child(&mut children)?,
                group_by: group_by.clone(),
                aggregates: aggregates.clone(),
            },
            LogicalPlan::SetOp { kind, semantics, .. } => {
                let right = pop_child(&mut children)?;
                let left = pop_child(&mut children)?;
                LogicalPlan::SetOp { left, right, kind: *kind, semantics: *semantics }
            }
            LogicalPlan::Sort { keys, .. } => {
                LogicalPlan::Sort { input: pop_child(&mut children)?, keys: keys.clone() }
            }
            LogicalPlan::Limit { limit, offset, .. } => LogicalPlan::Limit {
                input: pop_child(&mut children)?,
                limit: *limit,
                offset: *offset,
            },
            LogicalPlan::SubqueryAlias { alias, .. } => LogicalPlan::SubqueryAlias {
                input: pop_child(&mut children)?,
                alias: alias.clone(),
            },
            LogicalPlan::ProvenanceAnnotation { kind, .. } => LogicalPlan::ProvenanceAnnotation {
                input: pop_child(&mut children)?,
                kind: kind.clone(),
            },
        })
    }

    /// Collect every base-relation reference in the plan, left-to-right (pre-order).
    ///
    /// The order matches the order in which the provenance rewriter appends provenance attribute
    /// groups, and therefore the order of the `prov_*` columns in a rewritten query's result.
    pub fn base_relations(&self) -> Vec<&LogicalPlan> {
        let mut out = Vec::new();
        fn walk<'a>(plan: &'a LogicalPlan, out: &mut Vec<&'a LogicalPlan>) {
            if let LogicalPlan::BaseRelation { .. } = plan {
                out.push(plan);
            }
            for child in plan.children() {
                walk(child, out);
            }
        }
        walk(self, &mut out);
        out
    }

    /// Visit every scalar expression node appearing in the plan (projections, predicates, join
    /// conditions, grouping keys, aggregate arguments, sort keys), recursing into children and
    /// into the sub-plans of sublink expressions.
    pub fn for_each_expr(&self, f: &mut impl FnMut(&ScalarExpr)) {
        fn visit_expr(e: &ScalarExpr, f: &mut impl FnMut(&ScalarExpr)) {
            e.visit(f);
            for sublink in e.sublinks() {
                if let ScalarExpr::Sublink { plan, .. } = sublink {
                    plan.for_each_expr(f);
                }
            }
        }
        match self {
            LogicalPlan::Projection { exprs, .. } => {
                exprs.iter().for_each(|(e, _)| visit_expr(e, f))
            }
            LogicalPlan::Selection { predicate, .. } => visit_expr(predicate, f),
            LogicalPlan::Join { condition: Some(c), .. } => visit_expr(c, f),
            LogicalPlan::Aggregation { group_by, aggregates, .. } => {
                group_by.iter().for_each(|(e, _)| visit_expr(e, f));
                aggregates.iter().filter_map(|(a, _)| a.arg.as_ref()).for_each(|e| {
                    visit_expr(e, f);
                });
            }
            LogicalPlan::Sort { keys, .. } => keys.iter().for_each(|k| visit_expr(&k.expr, f)),
            _ => {}
        }
        for child in self.children() {
            child.for_each_expr(f);
        }
    }

    /// The highest zero-based parameter index (`$n` has index `n - 1`) referenced anywhere in
    /// the plan, or `None` when the plan is parameter-free. Used by prepared statements to
    /// derive the expected number of bound values.
    pub fn max_parameter(&self) -> Option<usize> {
        let mut max: Option<usize> = None;
        self.for_each_expr(&mut |e| {
            if let ScalarExpr::Parameter { index } = e {
                max = Some(max.map_or(*index, |m| m.max(*index)));
            }
        });
        max
    }

    /// Total number of operator nodes in the plan (used by the benchmark reports).
    pub fn node_count(&self) -> usize {
        1 + self.children().iter().map(|c| c.node_count()).sum::<usize>()
    }

    /// A one-line description of the operator (without its children).
    pub fn describe(&self) -> String {
        match self {
            LogicalPlan::BaseRelation { name, alias, ref_id, .. } => match alias {
                Some(a) if a != name => format!("BaseRelation {name} AS {a} (#{ref_id})"),
                _ => format!("BaseRelation {name} (#{ref_id})"),
            },
            LogicalPlan::Values { rows, .. } => format!("Values ({} rows)", rows.len()),
            LogicalPlan::Projection { exprs, distinct, .. } => {
                let cols: Vec<String> = exprs.iter().map(|(e, n)| format!("{e} AS {n}")).collect();
                format!(
                    "Projection{} [{}]",
                    if *distinct { " DISTINCT" } else { "" },
                    cols.join(", ")
                )
            }
            LogicalPlan::Selection { predicate, .. } => format!("Selection [{predicate}]"),
            LogicalPlan::Join { kind, condition, .. } => match condition {
                Some(c) => format!("Join {kind} ON {c}"),
                None => format!("Join {kind}"),
            },
            LogicalPlan::Aggregation { group_by, aggregates, .. } => {
                let groups: Vec<String> =
                    group_by.iter().map(|(e, n)| format!("{e} AS {n}")).collect();
                let aggs: Vec<String> =
                    aggregates.iter().map(|(a, n)| format!("{a} AS {n}")).collect();
                format!("Aggregation GROUP BY [{}] AGG [{}]", groups.join(", "), aggs.join(", "))
            }
            LogicalPlan::SetOp { kind, semantics, .. } => {
                format!("{kind}{}", if *semantics == SetSemantics::Bag { " ALL" } else { "" })
            }
            LogicalPlan::Sort { keys, .. } => {
                let ks: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
                format!("Sort [{}]", ks.join(", "))
            }
            LogicalPlan::Limit { limit, offset, .. } => format!("Limit {limit:?} OFFSET {offset}"),
            LogicalPlan::SubqueryAlias { alias, .. } => format!("SubqueryAlias {alias}"),
            LogicalPlan::ProvenanceAnnotation { kind, .. } => match kind {
                ProvenanceAnnotationKind::BaseRelation => {
                    "ProvenanceAnnotation BASERELATION".to_string()
                }
                ProvenanceAnnotationKind::AlreadyRewritten(attrs) => {
                    format!("ProvenanceAnnotation PROVENANCE ({})", attrs.join(", "))
                }
            },
        }
    }

    /// Pretty-print the plan as an indented tree.
    pub fn display_tree(&self) -> String {
        self.display_tree_with(&mut |_| String::new())
    }

    /// [`LogicalPlan::display_tree`] with `annotate(node)` appended to each node's line (the
    /// estimates and types of `EXPLAIN`).
    pub fn display_tree_with(&self, annotate: &mut dyn FnMut(&LogicalPlan) -> String) -> String {
        fn walk(
            plan: &LogicalPlan,
            depth: usize,
            annotate: &mut dyn FnMut(&LogicalPlan) -> String,
            out: &mut String,
        ) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&plan.describe());
            out.push_str(&annotate(plan));
            out.push('\n');
            for child in plan.children() {
                walk(child, depth + 1, annotate, out);
            }
        }
        let mut out = String::new();
        walk(self, 0, annotate, &mut out);
        out
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display_tree())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AggregateFunction, BinaryOperator};
    use crate::typed::TypeErrorKind;
    use crate::value::Value;

    fn shop() -> Arc<LogicalPlan> {
        Arc::new(LogicalPlan::BaseRelation {
            name: "shop".into(),
            alias: None,
            schema: Schema::new(vec![
                Attribute::qualified("shop", "name", DataType::Text),
                Attribute::qualified("shop", "numempl", DataType::Int),
            ]),
            ref_id: 0,
        })
    }

    fn sales() -> Arc<LogicalPlan> {
        Arc::new(LogicalPlan::BaseRelation {
            name: "sales".into(),
            alias: None,
            schema: Schema::new(vec![
                Attribute::qualified("sales", "sname", DataType::Text),
                Attribute::qualified("sales", "itemid", DataType::Int),
            ]),
            ref_id: 1,
        })
    }

    #[test]
    fn join_schema_is_concatenation() {
        let join = LogicalPlan::Join {
            left: shop(),
            right: sales(),
            kind: JoinKind::Inner,
            condition: Some(ScalarExpr::column(0, "name").eq(ScalarExpr::column(2, "sname"))),
        };
        assert_eq!(join.schema().attribute_names(), vec!["name", "numempl", "sname", "itemid"]);
        join.verify().unwrap();
    }

    #[test]
    fn projection_schema_types_and_names() {
        let proj = LogicalPlan::Projection {
            input: shop(),
            exprs: vec![
                (ScalarExpr::column(0, "name"), "shop_name".into()),
                (
                    ScalarExpr::binary(
                        BinaryOperator::Mul,
                        ScalarExpr::column(1, "numempl"),
                        ScalarExpr::literal(2i64),
                    ),
                    "double_empl".into(),
                ),
            ],
            distinct: false,
        };
        let schema = proj.schema();
        assert_eq!(schema.attribute_names(), vec!["shop_name", "double_empl"]);
        assert_eq!(schema.attribute(0).unwrap().data_type, DataType::Text);
        assert_eq!(schema.attribute(1).unwrap().data_type, DataType::Int);
    }

    #[test]
    fn aggregation_schema() {
        let agg = LogicalPlan::Aggregation {
            input: shop(),
            group_by: vec![(ScalarExpr::column(0, "name"), "name".into())],
            aggregates: vec![(
                AggregateExpr::new(AggregateFunction::Sum, ScalarExpr::column(1, "numempl")),
                "sum_empl".into(),
            )],
        };
        let schema = agg.schema();
        assert_eq!(schema.attribute_names(), vec!["name", "sum_empl"]);
        assert_eq!(schema.attribute(1).unwrap().data_type, DataType::Int);
    }

    #[test]
    fn verify_rejects_out_of_bounds_columns() {
        let bad = LogicalPlan::Selection {
            input: shop(),
            predicate: ScalarExpr::column(7, "ghost").eq(ScalarExpr::literal(1i64)),
        };
        let TypeErrorKind::Structural(error) = bad.verify().unwrap_err().kind else {
            panic!("a structural error");
        };
        assert!(matches!(*error, AlgebraError::ColumnIndexOutOfBounds { index: 7, width: 2 }));
    }

    #[test]
    fn verify_rejects_incompatible_set_op() {
        let one_col = Arc::new(LogicalPlan::Values {
            schema: Schema::from_pairs(&[("x", DataType::Int)]),
            rows: vec![Tuple::new(vec![Value::Int(1)])],
        });
        let setop = LogicalPlan::SetOp {
            left: shop(),
            right: one_col,
            kind: SetOpKind::Union,
            semantics: SetSemantics::Bag,
        };
        let TypeErrorKind::Structural(error) = setop.verify().unwrap_err().kind else {
            panic!("a structural error");
        };
        assert!(matches!(
            *error,
            AlgebraError::NotUnionCompatible { left_width: 2, right_width: 1 }
        ));
    }

    #[test]
    fn base_relations_are_collected_in_preorder() {
        let join = LogicalPlan::Join {
            left: shop(),
            right: Arc::new(LogicalPlan::Selection {
                input: sales(),
                predicate: ScalarExpr::column(1, "itemid").eq(ScalarExpr::literal(1i64)),
            }),
            kind: JoinKind::Cross,
            condition: None,
        };
        let rels: Vec<String> = join
            .base_relations()
            .iter()
            .map(|p| match p {
                LogicalPlan::BaseRelation { name, .. } => name.to_string(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(rels, vec!["shop", "sales"]);
    }

    #[test]
    fn with_new_children_swaps_inputs() {
        let sel = LogicalPlan::Selection {
            input: shop(),
            predicate: ScalarExpr::column(1, "numempl").eq(ScalarExpr::literal(3i64)),
        };
        let replaced = sel.with_new_children(vec![sales()]).unwrap();
        match &replaced {
            LogicalPlan::Selection { input, .. } => match input.as_ref() {
                LogicalPlan::BaseRelation { name, .. } => assert_eq!(&**name, "sales"),
                other => panic!("unexpected input {other:?}"),
            },
            other => panic!("unexpected plan {other:?}"),
        }
        assert!(sel.with_new_children(vec![]).is_err());
    }

    #[test]
    fn subquery_alias_requalifies_schema() {
        let aliased = LogicalPlan::SubqueryAlias { input: shop(), alias: "s".into() };
        assert_eq!(aliased.schema().resolve("s.name").unwrap(), 0);
    }

    #[test]
    fn display_tree_is_indented() {
        let plan = LogicalPlan::Selection {
            input: shop(),
            predicate: ScalarExpr::column(1, "numempl").eq(ScalarExpr::literal(3i64)),
        };
        let text = plan.display_tree();
        assert!(text.starts_with("Selection"));
        assert!(text.contains("\n  BaseRelation shop"));
    }

    #[test]
    fn node_count_counts_operators() {
        let plan = LogicalPlan::Selection { input: shop(), predicate: ScalarExpr::literal(true) };
        assert_eq!(plan.node_count(), 2);
    }
}

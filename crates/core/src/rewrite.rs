//! The Perm provenance rewriter: the paper's core contribution (§III-C, Figure 3; §IV).
//!
//! [`ProvenanceRewriter::rewrite`] transforms a logical plan `q` into `q+`, a plan over the same
//! algebra whose result is the original result extended with *provenance attributes*: for every
//! base relation accessed by `q`, the complete contributing tuples according to
//! influence-contribution (Why-) semantics. Original result tuples are duplicated once per
//! combination of contributing tuples, exactly as in the paper's representation (§III-B).
//!
//! The rewrite is implemented operator-by-operator following the rules of Figure 3:
//!
//! | rule | operator | strategy |
//! |------|----------|----------|
//! | R1 | base relation | the relation itself: each attribute is also a provenance attribute `prov_<rel>_<attr>` |
//! | R2 | projection | append the input's provenance attributes to the projection list |
//! | R3 | selection | apply the unmodified selection to the rewritten input |
//! | R4 | cross product / joins | join the rewritten inputs (`(T1 ⋈ T2)+ = T1+ ⋈ T2+`) |
//! | R5 | aggregation | join the original aggregation with the rewritten input on the grouping attributes |
//! | R6/R7 | union / intersection | join the original set operation with both rewritten inputs on the original attributes |
//! | R8/R9 | set difference | left input joined on equality; all (differing) right tuples attached |
//!
//! Each rule records where its node's original attributes and its provenance attributes (the
//! *P-list*) sit in the rewritten plan, and an enclosing rule reads its input's columns through
//! those positions. No rule projects only to put them in order, so a rewritten join stack is
//! one region of joins the optimizer's join reordering can order. [`ProvenanceRewriter::rewrite`]
//! projects once, at the top, onto the original attributes followed by the P-list.
//!
//! Uncorrelated sublinks in selection predicates are handled as described in §IV-E: the
//! rewritten sublink query is pulled into the range table via a join whose condition accepts a
//! sublink tuple if the surrounding predicate can be satisfied either through the sublink
//! comparison or independently of it (which reproduces the paper's provenance blow-up for
//! negated / disjunctive sublinks, e.g. TPC-H Q16).

use std::sync::Arc;

use perm_algebra::{
    BinaryOperator, JoinKind, LogicalPlan, Name, ProvenanceAnnotationKind, ScalarExpr, Schema,
    SetOpKind, SetSemantics, SortKey, SublinkKind, UnaryOperator, Value,
};

use crate::error::PermError;
use crate::naming::ProvenanceNaming;

/// The provenance rewriter.
#[derive(Debug, Clone, Default)]
pub struct ProvenanceRewriter;

/// The result of rewriting one plan node.
///
/// Names travel up with the rewrite, so a rule reads them here instead of deriving a schema,
/// which would walk the whole subtree below it.
#[derive(Debug, Clone)]
struct Rewritten {
    /// The rewritten plan.
    plan: Arc<LogicalPlan>,
    /// Position within `plan`'s output and name of each of the original node's attributes.
    orig: Vec<(usize, Name)>,
    /// The P-list: position within `plan`'s output and name of each provenance attribute.
    prov: Vec<(usize, Name)>,
}

impl Rewritten {
    fn arity(&self) -> usize {
        self.plan.output_arity()
    }

    /// `e`, an expression over the original node's columns, reading the same attributes of
    /// `plan`.
    fn remap(&self, e: &ScalarExpr) -> ScalarExpr {
        e.map_columns(&mut |i| self.orig[i].0)
    }

    /// `(expression, name)` pairs referencing this node's provenance attributes, for use in an
    /// enclosing projection.
    fn prov_exprs(&self) -> impl Iterator<Item = (ScalarExpr, Name)> + '_ {
        self.prov.iter().map(|(p, name)| passthrough(*p, name))
    }

    /// The P-list's names, in order.
    fn prov_names(&self) -> impl Iterator<Item = Name> + '_ {
        self.prov.iter().map(|(_, name)| name.clone())
    }
}

/// `(column i, name)`: an attribute carried through a projection under its own name.
fn passthrough(i: usize, name: &Name) -> (ScalarExpr, Name) {
    (ScalarExpr::column(i, name.clone()), name.clone())
}

/// `names` as columns that sit one after another from position `start`.
fn numbered(start: usize, names: impl IntoIterator<Item = Name>) -> Vec<(usize, Name)> {
    names.into_iter().enumerate().map(|(k, name)| (start + k, name)).collect()
}

/// `columns` moved right by `offset`: where they sit once `offset` columns are joined in front.
fn shifted(columns: Vec<(usize, Name)>, offset: usize) -> impl Iterator<Item = (usize, Name)> {
    columns.into_iter().map(move |(p, name)| (offset + p, name))
}

/// `Π_{T→T̂, P(T+)}(T+)` of the rule R6–R9 join-backs: `side`'s original attributes renamed
/// `<prefix>_<i>_<name>`, then its P-list. Returns the projection and the hatted names.
fn hatted(side: &Rewritten, prefix: &str) -> (LogicalPlan, Vec<Name>) {
    let hats: Vec<Name> = side
        .orig
        .iter()
        .enumerate()
        .map(|(i, (_, name))| format!("{prefix}_{i}_{name}").into())
        .collect();
    let mut exprs = Vec::with_capacity(hats.len() + side.prov.len());
    exprs.extend(
        side.orig
            .iter()
            .zip(&hats)
            .map(|((p, name), hat)| (ScalarExpr::column(*p, name.clone()), hat.clone())),
    );
    exprs.extend(side.prov_exprs());
    (LogicalPlan::Projection { input: side.plan.clone(), exprs, distinct: false }, hats)
}

/// `names[i] IS NOT DISTINCT FROM hats[i]` for every `i`, conjoined: the columns at `0..` against
/// the hatted columns at `offset..`, each named as the joined schema names it.
fn null_safe_equal(names: &[Name], offset: usize, hats: &[Name]) -> ScalarExpr {
    ScalarExpr::conjunction(
        names
            .iter()
            .zip(hats)
            .enumerate()
            .map(|(i, (name, hat))| {
                ScalarExpr::column(i, name.clone())
                    .null_safe_eq(ScalarExpr::column(offset + i, hat.clone()))
            })
            .collect(),
    )
}

/// The attribute names of `schema`, in order.
fn names_of(schema: &Schema) -> Vec<Name> {
    schema.attributes().iter().map(|a| a.name.clone()).collect()
}

impl ProvenanceRewriter {
    /// Create a rewriter.
    pub fn new() -> ProvenanceRewriter {
        ProvenanceRewriter
    }

    /// Rewrite `plan` into its provenance-computing form `plan+`.
    ///
    /// The returned plan's schema is the original schema followed by the provenance attributes;
    /// the provenance attributes are marked (`Attribute::provenance == true`) so that callers can
    /// partition the result via [`perm_algebra::Schema::provenance_indices`].
    pub fn rewrite(&self, plan: &LogicalPlan) -> Result<LogicalPlan, PermError> {
        let mut naming = ProvenanceNaming::new();
        let Rewritten { plan, orig, prov } =
            self.rewrite_node(&Arc::new(plan.clone()), &mut naming)?;
        // The original attributes, then the P-list; a provenance attribute that is also an
        // original one (a `PROVENANCE (attrs)` input's) is not repeated. One projection puts
        // them there unless the rules already left them in that order, under those names.
        let columns: Vec<&(usize, Name)> =
            orig.iter().chain(prov.iter().filter(|c| !orig.contains(c))).collect();
        let in_place = columns.len() == plan.output_arity()
            && columns.iter().enumerate().all(|(i, (p, _))| *p == i)
            && names_of(&plan.schema()).iter().zip(&columns).all(|(a, (_, name))| a == name);
        let input = if in_place {
            plan
        } else {
            let exprs = columns.iter().map(|(p, name)| passthrough(*p, name)).collect();
            Arc::new(LogicalPlan::Projection { input: plan, exprs, distinct: false })
        };
        let plan = LogicalPlan::ProvenanceAnnotation {
            input,
            kind: ProvenanceAnnotationKind::AlreadyRewritten(
                prov.into_iter().map(|(_, name)| name).collect(),
            ),
        };
        // Plan-boundary type verification (debug builds): a rewrite rule that mis-types a plan
        // must fail here, at its source, not as a runtime wire error.
        if cfg!(debug_assertions) {
            if let Err(mut err) = plan.verify() {
                err.context = format!("provenance rewrite: {}", err.context);
                return Err(PermError::Algebra(err.into()));
            }
        }
        Ok(plan)
    }

    fn rewrite_node(
        &self,
        plan: &Arc<LogicalPlan>,
        naming: &mut ProvenanceNaming,
    ) -> Result<Rewritten, PermError> {
        match plan.as_ref() {
            LogicalPlan::BaseRelation { name, .. } => {
                Ok(self.rewrite_as_base_relation(plan, name, naming))
            }
            LogicalPlan::Values { .. } => Ok(self.rewrite_as_base_relation(plan, "values", naming)),
            LogicalPlan::ProvenanceAnnotation { input, kind } => match kind {
                // SQL-PLE BASERELATION: limited provenance scope — rule R1 applied to the whole
                // annotated sub-plan (§IV-A.4).
                ProvenanceAnnotationKind::BaseRelation => {
                    Ok(self.rewrite_as_base_relation(input, relation_label(input), naming))
                }
                // SQL-PLE PROVENANCE (attrs): external / stored provenance — the sub-plan is
                // already rewritten and the listed attributes form its P-list (§IV-A.3).
                ProvenanceAnnotationKind::AlreadyRewritten(attrs) => {
                    let schema = input.schema();
                    let mut prov = Vec::with_capacity(attrs.len());
                    for attr in attrs {
                        let pos = schema.resolve(attr).map_err(|_| {
                            PermError::rewrite(format!(
                                "PROVENANCE clause names attribute '{attr}' which does not exist in the annotated from-item"
                            ))
                        })?;
                        prov.push((pos, schema.attributes()[pos].name.clone()));
                    }
                    naming.reserve(prov.iter().map(|(_, name)| name.clone()));
                    Ok(Rewritten {
                        plan: input.clone(),
                        orig: numbered(0, names_of(&schema)),
                        prov,
                    })
                }
            },
            LogicalPlan::Projection { input, exprs, distinct } => {
                // R2: append the input's provenance attributes to the projection list.
                let child = self.rewrite_node(input, naming)?;
                let mut new_exprs = Vec::with_capacity(exprs.len() + child.prov.len());
                new_exprs.extend(exprs.iter().map(|(e, name)| (child.remap(e), name.clone())));
                new_exprs.extend(child.prov_exprs());
                let plan = LogicalPlan::Projection {
                    input: child.plan.clone(),
                    exprs: new_exprs,
                    distinct: *distinct,
                };
                Ok(Rewritten {
                    plan: Arc::new(plan),
                    orig: numbered(0, exprs.iter().map(|(_, name)| name.clone())),
                    prov: numbered(exprs.len(), child.prov_names()),
                })
            }
            LogicalPlan::Selection { input, predicate } => {
                let child = self.rewrite_node(input, naming)?;
                if predicate.has_sublink() {
                    self.rewrite_selection_with_sublinks(child, predicate, naming)
                } else {
                    // R3: the unmodified selection applies to the rewritten input.
                    let predicate = child.remap(predicate);
                    let plan = LogicalPlan::Selection { input: child.plan, predicate };
                    Ok(Rewritten { plan: Arc::new(plan), ..child })
                }
            }
            LogicalPlan::Join { left, right, kind, condition } => {
                // R4 (and its join-type generalisations): (T1 ⋈ T2)+ = T1+ ⋈ T2+.
                let l = self.rewrite_node(left, naming)?;
                let r = self.rewrite_node(right, naming)?;
                let l_arity = l.arity();
                let orig: Vec<(usize, Name)> =
                    l.orig.into_iter().chain(shifted(r.orig, l_arity)).collect();
                let prov = l.prov.into_iter().chain(shifted(r.prov, l_arity)).collect();
                let condition = condition.as_ref().map(|c| c.map_columns(&mut |i| orig[i].0));
                let plan =
                    LogicalPlan::Join { left: l.plan, right: r.plan, kind: *kind, condition };
                Ok(Rewritten { plan: Arc::new(plan), orig, prov })
            }
            LogicalPlan::Aggregation { input, group_by, aggregates } => {
                // R5: join the original aggregation with the rewritten input on the grouping
                // attributes (null-safe, matching SQL GROUP BY null grouping).
                let child = self.rewrite_node(input, naming)?;
                let names: Vec<Name> = group_by
                    .iter()
                    .map(|(_, name)| name)
                    .chain(aggregates.iter().map(|(_, name)| name))
                    .cloned()
                    .collect();
                let agg_arity = names.len();

                // Right side: Π_{G→Ĝ, P(T+)}(T+).
                let hats: Vec<Name> = group_by
                    .iter()
                    .enumerate()
                    .map(|(i, (_, name))| format!("hat_{i}_{name}").into())
                    .collect();
                let mut right_exprs = Vec::with_capacity(group_by.len() + child.prov.len());
                right_exprs.extend(
                    group_by.iter().zip(&hats).map(|((g, _), hat)| (child.remap(g), hat.clone())),
                );
                right_exprs.extend(child.prov_exprs());
                let right = LogicalPlan::Projection {
                    input: child.plan.clone(),
                    exprs: right_exprs,
                    distinct: false,
                };

                // Join condition: G = Ĝ (null-safe equality). Empty G ⇒ cross product: every
                // input tuple contributed to the single global aggregate.
                let condition = if group_by.is_empty() {
                    None
                } else {
                    Some(null_safe_equal(&names[..group_by.len()], agg_arity, &hats))
                };
                let join_kind = if group_by.is_empty() { JoinKind::Cross } else { JoinKind::Inner };
                let join = LogicalPlan::Join {
                    left: plan.clone(),
                    right: Arc::new(right),
                    kind: join_kind,
                    condition,
                };
                // The aggregation's output, then Ĝ, then the P-list.
                Ok(Rewritten {
                    plan: Arc::new(join),
                    prov: numbered(agg_arity + group_by.len(), child.prov_names()),
                    orig: numbered(0, names),
                })
            }
            LogicalPlan::SetOp { left, right, kind, .. } => {
                self.rewrite_set_operation(plan, left, right, *kind, naming)
            }
            LogicalPlan::Sort { input, keys } => {
                let child = self.rewrite_node(input, naming)?;
                let keys = keys
                    .iter()
                    .map(|k| SortKey { expr: child.remap(&k.expr), order: k.order })
                    .collect();
                let plan = LogicalPlan::Sort { input: child.plan, keys };
                Ok(Rewritten { plan: Arc::new(plan), ..child })
            }
            LogicalPlan::Limit { input, limit, offset } => {
                // LIMIT is not part of the paper's algebra; we pass it through, which bounds the
                // number of provenance rows rather than the number of original rows. Queries that
                // need exact LIMIT semantics should place the LIMIT outside the PROVENANCE block.
                let child = self.rewrite_node(input, naming)?;
                let plan = LogicalPlan::Limit { input: child.plan, limit: *limit, offset: *offset };
                Ok(Rewritten { plan: Arc::new(plan), ..child })
            }
            LogicalPlan::SubqueryAlias { input, alias } => {
                let child = self.rewrite_node(input, naming)?;
                let plan = LogicalPlan::SubqueryAlias { input: child.plan, alias: alias.clone() };
                Ok(Rewritten { plan: Arc::new(plan), ..child })
            }
        }
    }

    /// Rule R1 (also used for the `BASERELATION` annotation and literal `VALUES` relations):
    /// `plan` itself, each of whose attributes is also a provenance attribute.
    fn rewrite_as_base_relation(
        &self,
        plan: &Arc<LogicalPlan>,
        relation_name: &str,
        naming: &mut ProvenanceNaming,
    ) -> Rewritten {
        let names = names_of(&plan.schema());
        let prov = numbered(0, naming.next_names(relation_name, &names));
        Rewritten { plan: plan.clone(), orig: numbered(0, names), prov }
    }

    /// Rules R6–R9: set operations.
    fn rewrite_set_operation(
        &self,
        original: &Arc<LogicalPlan>,
        left: &Arc<LogicalPlan>,
        right: &Arc<LogicalPlan>,
        kind: SetOpKind,
        naming: &mut ProvenanceNaming,
    ) -> Result<Rewritten, PermError> {
        let l = self.rewrite_node(left, naming)?;
        let r = self.rewrite_node(right, naming)?;
        // A set operation's attributes are its left input's; the right input names its own.
        let names: Vec<Name> = l.orig.iter().map(|(_, name)| name.clone()).collect();
        let n = names.len();

        // Left provenance side: Π_{T1→T̂1, P(T1+)}(T1+), joined on the original attributes.
        let (left_side, lhats) = hatted(&l, "lhat");

        // The join kind on the left side: union tuples may stem from only one input (left outer
        // join); intersection tuples exist in both (inner join); difference tuples always stem
        // from T1 (left outer join keeps them even if something unexpected fails to match).
        let left_join_kind = match kind {
            SetOpKind::Intersect => JoinKind::Inner,
            _ => JoinKind::LeftOuter,
        };
        let join1 = LogicalPlan::Join {
            left: original.clone(),
            right: Arc::new(left_side),
            kind: left_join_kind,
            condition: Some(null_safe_equal(&names, n, &lhats)),
        };
        let join1_arity = n + n + l.prov.len();

        // Right provenance side. Its P-list follows the n hatted columns (union, intersection)
        // or sits where T2+ put it (difference).
        let (right_side, right_condition, right_join_kind, right_prov) = match kind {
            SetOpKind::Union | SetOpKind::Intersect => {
                let (side, rhats) = hatted(&r, "rhat");
                let join_kind = if kind == SetOpKind::Intersect {
                    JoinKind::Inner
                } else {
                    JoinKind::LeftOuter
                };
                let prov = numbered(join1_arity + n, r.prov_names());
                (Arc::new(side), null_safe_equal(&names, join1_arity, &rhats), join_kind, prov)
            }
            SetOpKind::Difference => {
                // R8 (set semantics) / R9 (bag semantics): the provenance of a difference result
                // tuple includes all tuples of T2 that differ from it (R9) — for set semantics
                // the inequality can be dropped because equal tuples cannot appear in the result.
                let semantics = match original.as_ref() {
                    LogicalPlan::SetOp { semantics, .. } => *semantics,
                    _ => SetSemantics::Bag,
                };
                let condition = match semantics {
                    SetSemantics::Set => ScalarExpr::Literal(Value::Bool(true)),
                    SetSemantics::Bag => {
                        // "differs in at least one attribute"
                        names
                            .iter()
                            .zip(&r.orig)
                            .enumerate()
                            .map(|(i, (name, (p, right_name)))| {
                                ScalarExpr::binary(
                                    BinaryOperator::IsDistinctFrom,
                                    ScalarExpr::column(i, name.clone()),
                                    ScalarExpr::column(join1_arity + p, right_name.clone()),
                                )
                            })
                            .reduce(|a, b| a.or(b))
                            .unwrap_or(ScalarExpr::Literal(Value::Bool(true)))
                    }
                };
                let prov = shifted(r.prov, join1_arity).collect();
                (r.plan, condition, JoinKind::LeftOuter, prov)
            }
        };
        let join2 = LogicalPlan::Join {
            left: Arc::new(join1),
            right: right_side,
            kind: right_join_kind,
            condition: Some(right_condition),
        };
        // The original result attributes, then P(T1+) after the n hatted columns, then P(T2+).
        let mut prov = numbered(n + n, l.prov_names());
        prov.extend(right_prov);
        Ok(Rewritten { plan: Arc::new(join2), orig: numbered(0, names), prov })
    }

    /// §IV-E: rewrite a selection whose predicate contains uncorrelated sublinks.
    ///
    /// Each rewritten sublink query is joined into the range table. A sublink tuple contributes
    /// to an original result tuple if the surrounding condition `C` can be satisfied through the
    /// sublink comparison for that tuple (`C'`), or independently of the sublink's truth value
    /// (`C''`) — in which case *all* of the sublink's tuples contribute, reproducing the paper's
    /// behaviour for negated and disjunctive sublink conditions.
    fn rewrite_selection_with_sublinks(
        &self,
        child: Rewritten,
        predicate: &ScalarExpr,
        naming: &mut ProvenanceNaming,
    ) -> Result<Rewritten, PermError> {
        // The predicate over the rewritten input's columns (sublink plans are left as they are).
        let predicate = child.remap(predicate);
        let sublinks: Vec<ScalarExpr> = predicate.sublinks().into_iter().cloned().collect();

        let mut current: Arc<LogicalPlan> = child.plan.clone();
        let mut current_arity = child.arity();
        let mut prov = child.prov;

        for sublink in &sublinks {
            let ScalarExpr::Sublink { kind, operand, negated, plan: sub_plan } = sublink else {
                continue;
            };
            let sub = self.rewrite_node(sub_plan, naming)?;
            let offset = current_arity;
            let (first_col, first_col_name) =
                sub.orig.first().cloned().unwrap_or_else(|| (0, Name::from("sub")));
            let sub_first_col = ScalarExpr::column(offset + first_col, first_col_name);

            // The comparison that replaces the sublink when joined with one of its tuples.
            let cmp_join = match kind {
                SublinkKind::Scalar => sub_first_col.clone(),
                SublinkKind::InSubquery => {
                    let operand = operand
                        .as_deref()
                        .cloned()
                        .ok_or_else(|| PermError::rewrite("IN sublink without an operand"))?;
                    let eq = operand.eq(sub_first_col.clone());
                    if *negated {
                        ScalarExpr::UnaryOp { op: UnaryOperator::Not, expr: Box::new(eq) }
                    } else {
                        eq
                    }
                }
                SublinkKind::Exists => ScalarExpr::Literal(Value::Bool(!*negated)),
            };

            // C' — the predicate with this sublink replaced by the join comparison; C'' — the
            // predicate with this sublink assumed unsatisfied (if C holds regardless, *all* of
            // the sublink's tuples contribute). Other sublinks are left in place: they are
            // uncorrelated, so the executor resolves them to their actual values when it
            // evaluates the join condition.
            let c_prime = replace_sublink(&predicate, sublink, &cmp_join);
            let unsatisfied = match kind {
                SublinkKind::Scalar => ScalarExpr::Literal(Value::Null),
                _ => ScalarExpr::Literal(Value::Bool(false)),
            };
            let c_dprime = replace_sublink(&predicate, sublink, &unsatisfied);
            let join_condition = c_prime.or(c_dprime);

            current_arity += sub.arity();
            current = Arc::new(LogicalPlan::Join {
                left: current,
                right: sub.plan,
                kind: JoinKind::LeftOuter,
                condition: Some(join_condition),
            });
            prov.extend(shifted(sub.prov, offset));
        }

        // The final selection re-applies the *original* predicate (sublinks included — they are
        // uncorrelated and resolved once by the executor), so exactly the original result tuples
        // survive; the joins above only determine which provenance tuples are attached to them.
        // The input's P-list is followed by the provenance attributes the sublinks contribute.
        let plan = LogicalPlan::Selection { input: current, predicate };
        Ok(Rewritten { plan: Arc::new(plan), orig: child.orig, prov })
    }
}

/// A human-readable relation label for R1-style rewrites of non-relation sub-plans.
fn relation_label(plan: &LogicalPlan) -> &str {
    match plan {
        LogicalPlan::BaseRelation { name, .. } => name,
        LogicalPlan::SubqueryAlias { alias, .. } => alias,
        LogicalPlan::ProvenanceAnnotation { input, .. } => relation_label(input),
        _ => "subquery",
    }
}

/// Replace every occurrence of `target` (a sublink expression) in `expr` by `replacement`.
fn replace_sublink(expr: &ScalarExpr, target: &ScalarExpr, replacement: &ScalarExpr) -> ScalarExpr {
    expr.transform(&mut |e| if &e == target { replacement.clone() } else { e })
}

/// Adapter implementing the SQL analyzer's rewrite hook with the Perm rewriter, so that
/// `SELECT PROVENANCE` queries are rewritten during analysis (paper Figure 5: the provenance
/// rewriter sits between the analyzer/rewriter and the planner).
impl perm_sql::ProvenanceRewrite for ProvenanceRewriter {
    fn rewrite_provenance(&self, plan: &LogicalPlan) -> Result<LogicalPlan, perm_sql::SqlError> {
        self.rewrite(plan).map_err(|e| perm_sql::SqlError::Analyze(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_algebra::{
        tuple, AggregateExpr, AggregateFunction, Attribute, DataType, PlanBuilder, Schema,
    };
    use perm_exec::execute_plan;
    use perm_storage::{Catalog, Relation};

    /// The paper's Figure 2 example database.
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

    fn scan(catalog: &Catalog, table: &str, ref_id: usize) -> PlanBuilder {
        PlanBuilder::scan(table, catalog.table_schema(table).unwrap(), ref_id)
    }

    /// The paper's example query q_ex (§III-B).
    fn qex_plan(catalog: &Catalog) -> LogicalPlan {
        let prod = scan(catalog, "shop", 0)
            .cross_join(scan(catalog, "sales", 1))
            .cross_join(scan(catalog, "items", 2));
        let name = prod.col("shop.name").unwrap();
        let sname = prod.col("sales.sname").unwrap();
        let itemid = prod.col("sales.itemid").unwrap();
        let id = prod.col("items.id").unwrap();
        let price = prod.col("items.price").unwrap();
        prod.filter(name.clone().eq(sname).and(itemid.eq(id)))
            .aggregate(
                vec![(name, "name".into())],
                vec![(AggregateExpr::new(AggregateFunction::Sum, price), "sum_price".into())],
            )
            .build()
    }

    #[test]
    fn r1_base_relation_duplicates_attributes() {
        let catalog = paper_catalog();
        let plan = scan(&catalog, "items", 0).build();
        let rewritten = ProvenanceRewriter::new().rewrite(&plan).unwrap();
        let schema = rewritten.schema();
        assert_eq!(
            schema.attribute_names(),
            vec!["id", "price", "prov_items_id", "prov_items_price"]
        );
        assert_eq!(schema.provenance_indices(), vec![2, 3]);
        let result = execute_plan(&catalog, &rewritten).unwrap();
        assert_eq!(result.num_rows(), 3);
        assert_eq!(result.tuples()[0], tuple![1, 100, 1, 100]);
    }

    #[test]
    fn paper_example_qex_provenance_matches_figure_4() {
        let catalog = paper_catalog();
        let plan = qex_plan(&catalog);
        let rewritten = ProvenanceRewriter::new().rewrite(&plan).unwrap();
        let schema = rewritten.schema();
        assert_eq!(
            schema.attribute_names(),
            vec![
                "name",
                "sum_price",
                "prov_shop_name",
                "prov_shop_numempl",
                "prov_sales_sname",
                "prov_sales_itemid",
                "prov_items_id",
                "prov_items_price"
            ]
        );
        let result = execute_plan(&catalog, &rewritten).unwrap().sorted();
        // Figure 4's result relation (5 tuples).
        let expected = vec![
            tuple!["Joba", 50, "Joba", 14, "Joba", 3, 3, 25],
            tuple!["Joba", 50, "Joba", 14, "Joba", 3, 3, 25],
            tuple!["Merdies", 120, "Merdies", 3, "Merdies", 1, 1, 100],
            tuple!["Merdies", 120, "Merdies", 3, "Merdies", 2, 2, 10],
            tuple!["Merdies", 120, "Merdies", 3, "Merdies", 2, 2, 10],
        ];
        assert_eq!(result.tuples(), expected.as_slice());
    }

    #[test]
    fn rewritten_query_preserves_original_result() {
        // The correctness lemma of §III-E: Π_T(q+) = Π_T(q) modulo multiplicity.
        let catalog = paper_catalog();
        let plan = qex_plan(&catalog);
        let original = execute_plan(&catalog, &plan).unwrap();
        let rewritten = ProvenanceRewriter::new().rewrite(&plan).unwrap();
        let provenance = execute_plan(&catalog, &rewritten).unwrap();
        let original_cols: Vec<usize> = (0..original.arity()).collect();
        let projected = provenance.project(&original_cols);
        assert!(projected.set_eq(&original), "original tuples must be preserved");
    }

    #[test]
    fn r3_selection_applies_to_rewritten_input() {
        let catalog = paper_catalog();
        let items = scan(&catalog, "items", 0);
        let price = items.col("price").unwrap();
        let plan = items.filter(price.clone().eq(ScalarExpr::literal(10i64))).build();
        let rewritten = ProvenanceRewriter::new().rewrite(&plan).unwrap();
        let result = execute_plan(&catalog, &rewritten).unwrap();
        assert_eq!(result.num_rows(), 1);
        assert_eq!(result.tuples()[0], tuple![2, 10, 2, 10]);
    }

    #[test]
    fn r4_join_concatenates_provenance_lists() {
        let catalog = paper_catalog();
        let shop = scan(&catalog, "shop", 0);
        let sales = scan(&catalog, "sales", 1);
        let cond = ScalarExpr::column(0, "name").eq(ScalarExpr::column(2, "sname"));
        let plan = shop.join(sales, JoinKind::Inner, Some(cond)).build();
        let rewritten = ProvenanceRewriter::new().rewrite(&plan).unwrap();
        let schema = rewritten.schema();
        assert_eq!(
            schema.attribute_names(),
            vec![
                "name",
                "numempl",
                "sname",
                "itemid",
                "prov_shop_name",
                "prov_shop_numempl",
                "prov_sales_sname",
                "prov_sales_itemid"
            ]
        );
        let result = execute_plan(&catalog, &rewritten).unwrap();
        assert_eq!(result.num_rows(), 5);
        // Provenance columns mirror the original columns for an SPJ query over base relations.
        for t in result.tuples() {
            assert_eq!(t[0], t[4]);
            assert_eq!(t[2], t[6]);
        }
    }

    #[test]
    fn multiple_references_to_a_relation_get_distinct_prefixes() {
        let catalog = paper_catalog();
        let a = scan(&catalog, "items", 0);
        let b = scan(&catalog, "items", 1);
        let plan = a.cross_join(b).build();
        let rewritten = ProvenanceRewriter::new().rewrite(&plan).unwrap();
        let names = rewritten.schema().attribute_names();
        assert!(names.contains(&"prov_items_id".to_string()));
        assert!(names.contains(&"prov_items_1_id".to_string()));
    }

    #[test]
    fn r5_global_aggregation_attaches_every_input_tuple() {
        let catalog = paper_catalog();
        let items = scan(&catalog, "items", 0);
        let price = items.col("price").unwrap();
        let plan = items
            .aggregate(
                vec![],
                vec![(AggregateExpr::new(AggregateFunction::Sum, price), "total".into())],
            )
            .build();
        let rewritten = ProvenanceRewriter::new().rewrite(&plan).unwrap();
        let result = execute_plan(&catalog, &rewritten).unwrap();
        // One original row (total = 135) × three contributing item tuples.
        assert_eq!(result.num_rows(), 3);
        for t in result.tuples() {
            assert_eq!(t[0], perm_algebra::Value::Int(135));
        }
    }

    #[test]
    fn r5_aggregation_over_empty_relation_yields_empty_provenance() {
        // Matches the paper's footnote 4 to Figure 11: the normal query returns one NULL row,
        // the provenance query returns zero rows.
        let catalog = Catalog::new();
        catalog
            .create_table(
                "empty_items",
                Schema::from_pairs(&[("id", DataType::Int), ("price", DataType::Int)]),
            )
            .unwrap();
        let items = scan(&catalog, "empty_items", 0);
        let price = items.col("price").unwrap();
        let plan = items
            .aggregate(
                vec![],
                vec![(AggregateExpr::new(AggregateFunction::Sum, price), "total".into())],
            )
            .build();
        let original = execute_plan(&catalog, &plan).unwrap();
        assert_eq!(original.num_rows(), 1);
        let rewritten = ProvenanceRewriter::new().rewrite(&plan).unwrap();
        let provenance = execute_plan(&catalog, &rewritten).unwrap();
        assert_eq!(provenance.num_rows(), 0);
    }

    #[test]
    fn r6_union_provenance_comes_from_the_contributing_side() {
        let catalog = Catalog::new();
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        catalog
            .create_table_with_data(
                "a",
                Relation::new(schema.clone(), vec![tuple![1], tuple![2]]).unwrap(),
            )
            .unwrap();
        catalog
            .create_table_with_data("b", Relation::new(schema, vec![tuple![2], tuple![3]]).unwrap())
            .unwrap();
        let plan = scan(&catalog, "a", 0)
            .set_op(scan(&catalog, "b", 1), SetOpKind::Union, SetSemantics::Bag)
            .build();
        let rewritten = ProvenanceRewriter::new().rewrite(&plan).unwrap();
        let schema = rewritten.schema();
        assert_eq!(schema.attribute_names(), vec!["x", "prov_a_x", "prov_b_x"]);
        let result = execute_plan(&catalog, &rewritten).unwrap().sorted();
        // x=1 stems only from a, x=3 only from b, x=2 from both sides (one row per side and
        // original occurrence).
        let ones: Vec<_> = result.iter().filter(|t| t[0] == perm_algebra::Value::Int(1)).collect();
        assert_eq!(ones.len(), 1);
        assert_eq!(ones[0].values()[1], perm_algebra::Value::Int(1));
        assert!(ones[0].values()[2].is_null());
        let threes: Vec<_> =
            result.iter().filter(|t| t[0] == perm_algebra::Value::Int(3)).collect();
        assert_eq!(threes.len(), 1);
        assert!(threes[0].values()[1].is_null());
        assert_eq!(threes[0].values()[2], perm_algebra::Value::Int(3));
    }

    #[test]
    fn r7_intersection_provenance_has_both_sides() {
        let catalog = Catalog::new();
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        catalog
            .create_table_with_data(
                "a",
                Relation::new(schema.clone(), vec![tuple![1], tuple![2]]).unwrap(),
            )
            .unwrap();
        catalog
            .create_table_with_data("b", Relation::new(schema, vec![tuple![2], tuple![3]]).unwrap())
            .unwrap();
        let plan = scan(&catalog, "a", 0)
            .set_op(scan(&catalog, "b", 1), SetOpKind::Intersect, SetSemantics::Bag)
            .build();
        let rewritten = ProvenanceRewriter::new().rewrite(&plan).unwrap();
        let result = execute_plan(&catalog, &rewritten).unwrap();
        assert_eq!(result.num_rows(), 1);
        let t = &result.tuples()[0];
        assert_eq!(t[0], perm_algebra::Value::Int(2));
        assert_eq!(t[1], perm_algebra::Value::Int(2));
        assert_eq!(t[2], perm_algebra::Value::Int(2));
    }

    #[test]
    fn r9_bag_difference_attaches_all_differing_right_tuples() {
        let catalog = Catalog::new();
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        catalog
            .create_table_with_data(
                "a",
                Relation::new(schema.clone(), vec![tuple![1], tuple![2]]).unwrap(),
            )
            .unwrap();
        catalog
            .create_table_with_data(
                "b",
                Relation::new(schema, vec![tuple![2], tuple![3], tuple![4]]).unwrap(),
            )
            .unwrap();
        let plan = scan(&catalog, "a", 0)
            .set_op(scan(&catalog, "b", 1), SetOpKind::Difference, SetSemantics::Bag)
            .build();
        let rewritten = ProvenanceRewriter::new().rewrite(&plan).unwrap();
        let result = execute_plan(&catalog, &rewritten).unwrap();
        // Original result is {1}; its provenance from b is every tuple different from 1, i.e.
        // {2, 3, 4} — three provenance rows.
        assert_eq!(result.num_rows(), 3);
        for t in result.tuples() {
            assert_eq!(t[0], perm_algebra::Value::Int(1));
            assert_eq!(t[1], perm_algebra::Value::Int(1));
            assert!(t[2] != perm_algebra::Value::Int(1));
        }
    }

    #[test]
    fn sublink_in_disjunction_attaches_all_sublink_tuples() {
        // The paper's §IV-E example: WHERE numEmpl < 10 OR name IN (SELECT sName FROM sales).
        // For (Merdies, 3) the condition holds independently of the sublink, so all sales tuples
        // are part of the provenance.
        let catalog = paper_catalog();
        let shop = scan(&catalog, "shop", 0);
        let sales_sub = scan(&catalog, "sales", 1).project_columns(&["sname"]).unwrap();
        let name = shop.col("name").unwrap();
        let numempl = shop.col("numempl").unwrap();
        let sublink = ScalarExpr::Sublink {
            kind: SublinkKind::InSubquery,
            operand: Some(Box::new(name.clone())),
            negated: false,
            plan: sales_sub.build_arc(),
        };
        let predicate =
            ScalarExpr::binary(BinaryOperator::Lt, numempl, ScalarExpr::literal(10i64)).or(sublink);
        let plan = shop.filter(predicate).project_columns(&["name"]).unwrap().build();

        // Normal execution: both shops qualify (Merdies via numempl, Joba via the sublink).
        let original = execute_plan(&catalog, &plan).unwrap();
        assert_eq!(original.num_rows(), 2);

        let rewritten = ProvenanceRewriter::new().rewrite(&plan).unwrap();
        let schema = rewritten.schema();
        assert_eq!(
            schema.attribute_names(),
            vec![
                "name",
                "prov_shop_name",
                "prov_shop_numempl",
                "prov_sales_sname",
                "prov_sales_itemid"
            ]
        );
        let result = execute_plan(&catalog, &rewritten).unwrap();
        let merdies: Vec<_> =
            result.iter().filter(|t| t[0] == perm_algebra::Value::text("Merdies")).collect();
        // All five sales tuples contribute to Merdies because the condition is true regardless
        // of the sublink.
        assert_eq!(merdies.len(), 5);
        let joba: Vec<_> =
            result.iter().filter(|t| t[0] == perm_algebra::Value::text("Joba")).collect();
        // Joba only qualifies through the IN condition: its provenance are the matching tuples.
        assert_eq!(joba.len(), 2);
        assert!(joba.iter().all(|t| t[3] == perm_algebra::Value::text("Joba")));
    }

    #[test]
    fn provenance_attributes_of_a_bare_sublink_relation_are_named() {
        // σ_{EXISTS sales}(Π_name(shop)): the rules leave every column where q⁺ wants it, but
        // the sublink's provenance attributes under `sales`' own names, so the top projection
        // must still name them.
        let catalog = paper_catalog();
        let shop = scan(&catalog, "shop", 0).project_columns(&["name"]).unwrap();
        let exists = ScalarExpr::Sublink {
            kind: SublinkKind::Exists,
            operand: None,
            negated: false,
            plan: scan(&catalog, "sales", 1).build_arc(),
        };
        let plan = shop.filter(exists).build();
        let rewritten = ProvenanceRewriter::new().rewrite(&plan).unwrap();
        let schema = rewritten.schema();
        assert_eq!(
            schema.attribute_names(),
            vec![
                "name",
                "prov_shop_name",
                "prov_shop_numempl",
                "prov_sales_sname",
                "prov_sales_itemid"
            ]
        );
        assert_eq!(schema.provenance_indices(), vec![1, 2, 3, 4]);
        // Every sales tuple contributes to each shop.
        assert_eq!(execute_plan(&catalog, &rewritten).unwrap().num_rows(), 10);
    }

    #[test]
    fn negated_sublink_attaches_non_matching_tuples() {
        // NOT IN: the provenance of a result tuple includes every sublink tuple that does not
        // fulfil the sublink condition (the Q16 blow-up described in §V-A.2).
        let catalog = paper_catalog();
        let shop = scan(&catalog, "shop", 0);
        let sales_sub = scan(&catalog, "sales", 1).project_columns(&["sname"]).unwrap();
        let name = shop.col("name").unwrap();
        let sublink = ScalarExpr::Sublink {
            kind: SublinkKind::InSubquery,
            operand: Some(Box::new(name.clone())),
            negated: true,
            plan: sales_sub.build_arc(),
        };
        // WHERE name NOT IN (SELECT sname FROM sales WHERE sname = 'Joba')  — restricting the
        // sublink to Joba rows so Merdies qualifies.
        let catalog2 = catalog.clone();
        let joba_sales = scan(&catalog2, "sales", 2);
        let sname = joba_sales.col("sname").unwrap();
        let joba_sub = joba_sales
            .filter(sname.clone().eq(ScalarExpr::literal("Joba")))
            .project_columns(&["sname"])
            .unwrap();
        let sublink_joba = ScalarExpr::Sublink {
            kind: SublinkKind::InSubquery,
            operand: Some(Box::new(name.clone())),
            negated: true,
            plan: joba_sub.build_arc(),
        };
        let _ = sublink; // the unrestricted variant is covered implicitly by Q16-style tests

        let plan = shop.filter(sublink_joba).project_columns(&["name"]).unwrap().build();
        let original = execute_plan(&catalog, &plan).unwrap();
        assert_eq!(original.num_rows(), 1, "only Merdies is NOT IN the Joba sales");

        let rewritten = ProvenanceRewriter::new().rewrite(&plan).unwrap();
        let result = execute_plan(&catalog, &rewritten).unwrap();
        // Merdies' provenance includes both Joba sales tuples (they do not fulfil the condition).
        assert_eq!(result.num_rows(), 2);
        for t in result.tuples() {
            assert_eq!(t[0], perm_algebra::Value::text("Merdies"));
        }
    }

    #[test]
    fn baserelation_annotation_limits_provenance_scope() {
        let catalog = paper_catalog();
        let items = scan(&catalog, "items", 0);
        let price = items.col("price").unwrap();
        let agg = items
            .aggregate(
                vec![],
                vec![(AggregateExpr::new(AggregateFunction::Sum, price), "total".into())],
            )
            .alias("sub");
        let annotated = LogicalPlan::ProvenanceAnnotation {
            input: agg.build_arc(),
            kind: ProvenanceAnnotationKind::BaseRelation,
        };
        let plan = PlanBuilder::from_plan(annotated)
            .project(vec![(
                ScalarExpr::binary(
                    BinaryOperator::Mul,
                    ScalarExpr::column(0, "total"),
                    ScalarExpr::literal(10i64),
                ),
                "total10".into(),
            )])
            .build();
        let rewritten = ProvenanceRewriter::new().rewrite(&plan).unwrap();
        let schema = rewritten.schema();
        // Provenance is the subquery's own output, not the base relation items.
        assert_eq!(schema.attribute_names(), vec!["total10", "prov_sub_total"]);
        let result = execute_plan(&catalog, &rewritten).unwrap();
        assert_eq!(result.num_rows(), 1);
        assert_eq!(result.tuples()[0], tuple![1350, 135]);
    }

    #[test]
    fn already_rewritten_annotation_reuses_stored_provenance() {
        // Incremental provenance (§IV-A.3): a stored provenance result is declared via
        // PROVENANCE (attrs) and reused instead of being recomputed.
        let catalog = Catalog::new();
        let stored = Relation::new(
            Schema::new(vec![
                Attribute::new("total", DataType::Int),
                Attribute::new("prov_items_id", DataType::Int),
                Attribute::new("prov_items_price", DataType::Int),
            ]),
            vec![tuple![135, 1, 100], tuple![135, 2, 10], tuple![135, 3, 25]],
        )
        .unwrap();
        catalog.create_table_with_data("totalitemprice", stored).unwrap();
        let base = scan(&catalog, "totalitemprice", 0);
        let annotated = LogicalPlan::ProvenanceAnnotation {
            input: base.build_arc(),
            kind: ProvenanceAnnotationKind::AlreadyRewritten(vec![
                "prov_items_id".into(),
                "prov_items_price".into(),
            ]),
        };
        let plan = PlanBuilder::from_plan(annotated)
            .project(vec![(
                ScalarExpr::binary(
                    BinaryOperator::Mul,
                    ScalarExpr::column(0, "total"),
                    ScalarExpr::literal(10i64),
                ),
                "total10".into(),
            )])
            .build();
        let rewritten = ProvenanceRewriter::new().rewrite(&plan).unwrap();
        let schema = rewritten.schema();
        assert_eq!(schema.attribute_names(), vec!["total10", "prov_items_id", "prov_items_price"]);
        let result = execute_plan(&catalog, &rewritten).unwrap().sorted();
        assert_eq!(result.num_rows(), 3);
        assert_eq!(result.tuples()[0], tuple![1350, 1, 100]);
    }

    #[test]
    fn rewritten_plans_validate() {
        let catalog = paper_catalog();
        let plan = qex_plan(&catalog);
        let rewritten = ProvenanceRewriter::new().rewrite(&plan).unwrap();
        rewritten.verify().unwrap();
    }
}

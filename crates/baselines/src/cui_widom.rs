//! The Cui–Widom inversion approach ("Lineage tracing in a data warehousing system", ICDE 2000).
//!
//! Cui and Widom compute the lineage of a result tuple by running *inverse queries* against the
//! base relations: for an SPJ view `Π_A(σ_C(R1 × ... × Rn))` the lineage of a result tuple `t`
//! with respect to `Ri` is `Π_{Ri}(σ_{C ∧ A = t}(R1 × ... × Rn))`, and for an aggregation view
//! the selection on the projected attributes is replaced by a selection on the grouping
//! attributes. The result is a *list of relations* — one per base relation — which, as §III-B of
//! the Perm paper discusses, cannot be represented as a single relational query result.
//!
//! In this reproduction the tracer serves two purposes:
//!
//! 1. It is the second comparison point discussed in the paper's related-work section (lineage
//!    through query inversion, requiring one inverse query per base relation and result tuple).
//! 2. It is the **correctness oracle** for the Perm rewriter: §III-E proves Perm's
//!    influence-contribution semantics equivalent to Cui–Widom lineage, and our property tests
//!    check exactly that equivalence on randomly generated queries and data.

use std::sync::Arc;

use perm_algebra::{AggregateExpr, JoinKind, LogicalPlan, Name, ScalarExpr, Tuple};
use perm_exec::{ExecError, Executor, Optimizer};
use perm_storage::{Catalog, Relation};

/// A description of an SPJ or aggregation-SPJ view over base relations, in the decomposed form
/// Cui–Widom inversion operates on.
#[derive(Debug, Clone)]
pub struct ViewDefinition {
    /// The accessed base relations, in order.
    pub relations: Vec<String>,
    /// The selection condition over the concatenated schema of all base relations (`None` for a
    /// pure cross product).
    pub condition: Option<ScalarExpr>,
    /// The projected output expressions with names (ignored for aggregation views).
    pub projection: Vec<(ScalarExpr, Name)>,
    /// Grouping expressions (empty for plain SPJ views).
    pub group_by: Vec<(ScalarExpr, Name)>,
    /// Aggregate expressions (empty for plain SPJ views).
    pub aggregates: Vec<(AggregateExpr, Name)>,
}

impl ViewDefinition {
    /// A plain select-project-join view.
    pub fn spj(
        relations: Vec<String>,
        condition: Option<ScalarExpr>,
        projection: Vec<(ScalarExpr, Name)>,
    ) -> ViewDefinition {
        ViewDefinition {
            relations,
            condition,
            projection,
            group_by: Vec::new(),
            aggregates: Vec::new(),
        }
    }

    /// An aggregation-select-project-join view.
    pub fn aspj(
        relations: Vec<String>,
        condition: Option<ScalarExpr>,
        group_by: Vec<(ScalarExpr, Name)>,
        aggregates: Vec<(AggregateExpr, Name)>,
    ) -> ViewDefinition {
        ViewDefinition { relations, condition, projection: Vec::new(), group_by, aggregates }
    }

    /// Is this an aggregation view?
    pub fn is_aggregation(&self) -> bool {
        !self.aggregates.is_empty() || !self.group_by.is_empty()
    }
}

/// The Cui–Widom lineage tracer.
#[derive(Debug, Clone)]
pub struct CuiWidomTracer {
    catalog: Catalog,
}

impl CuiWidomTracer {
    /// Create a tracer over a catalog.
    pub fn new(catalog: Catalog) -> CuiWidomTracer {
        CuiWidomTracer { catalog }
    }

    /// Build the plan computing the view itself.
    pub fn view_plan(&self, view: &ViewDefinition) -> Result<LogicalPlan, ExecError> {
        let joined = self.joined_relations(view)?;
        let filtered = match &view.condition {
            Some(c) => LogicalPlan::Selection { input: Arc::new(joined), predicate: c.clone() },
            None => joined,
        };
        Ok(if view.is_aggregation() {
            LogicalPlan::Aggregation {
                input: Arc::new(filtered),
                group_by: view.group_by.clone(),
                aggregates: view.aggregates.clone(),
            }
        } else {
            LogicalPlan::Projection {
                input: Arc::new(filtered),
                exprs: view.projection.clone(),
                distinct: false,
            }
        })
    }

    /// Execute the view.
    ///
    /// The plans built here are selections over pure cross products (that is the shape the
    /// inversion operates on), so they are optimized before execution — join conversion turns
    /// them into hash joins instead of materialising the full cross product.
    pub fn evaluate_view(&self, view: &ViewDefinition) -> Result<Relation, ExecError> {
        let plan = Optimizer::new().optimize(&self.view_plan(view)?)?;
        Executor::new(self.catalog.clone()).execute(&plan)
    }

    /// Compute the lineage of `result_tuple` (a tuple of the view's result): one relation per
    /// accessed base relation, each containing the contributing tuples.
    ///
    /// This is the representation of the original approach — a *list* of relations, without any
    /// association to the original result tuple, which is exactly the drawback the Perm paper's
    /// §III-B motivates against.
    pub fn lineage(
        &self,
        view: &ViewDefinition,
        result_tuple: &Tuple,
    ) -> Result<Vec<Relation>, ExecError> {
        let mut out = Vec::with_capacity(view.relations.len());
        for target_index in 0..view.relations.len() {
            out.push(self.lineage_for_relation(view, result_tuple, target_index)?);
        }
        Ok(out)
    }

    /// The lineage of `result_tuple` with respect to the `target_index`-th base relation.
    pub fn lineage_for_relation(
        &self,
        view: &ViewDefinition,
        result_tuple: &Tuple,
        target_index: usize,
    ) -> Result<Relation, ExecError> {
        let joined = self.joined_relations(view)?;
        let mut predicates = Vec::new();
        if let Some(c) = &view.condition {
            predicates.push(c.clone());
        }

        // Equate the view's output (projection or grouping expressions) with the result tuple.
        let outputs: &[(ScalarExpr, Name)] =
            if view.is_aggregation() { &view.group_by } else { &view.projection };
        for (i, (expr, _)) in outputs.iter().enumerate() {
            let value = result_tuple.get(i).cloned().ok_or_else(|| {
                ExecError::Internal(format!(
                    "result tuple has arity {} but the view defines {} output columns",
                    result_tuple.arity(),
                    outputs.len()
                ))
            })?;
            predicates.push(expr.clone().null_safe_eq(ScalarExpr::Literal(value)));
        }

        let selected = LogicalPlan::Selection {
            input: Arc::new(joined),
            predicate: ScalarExpr::conjunction(predicates),
        };

        // Project onto the target relation's attributes.
        let offset: usize = view.relations[..target_index]
            .iter()
            .map(|r| self.catalog.table_schema(r).map(|s| s.arity()).unwrap_or(0))
            .sum();
        let target_schema = self.catalog.table_schema(&view.relations[target_index])?;
        let exprs: Vec<(ScalarExpr, Name)> = target_schema
            .attributes()
            .iter()
            .enumerate()
            .map(|(i, a)| (ScalarExpr::column(offset + i, a.name.clone()), a.name.clone()))
            .collect();
        // The distinct matching tuples (the inverse query proper). Optimized first: the raw
        // plan is a selection over a cross product of all accessed relations, which join
        // conversion reduces to hash joins.
        let plan = LogicalPlan::Projection { input: Arc::new(selected), exprs, distinct: true };
        let plan = Optimizer::new().optimize(&plan)?;
        let matches = Executor::new(self.catalog.clone()).execute(&plan)?;
        let match_set: std::collections::HashSet<Tuple> = matches.iter().collect();
        // ...materialised as the subset of the base relation (bag semantics: contributing tuples
        // keep their multiplicity in the base relation, cf. footnote 1 of the paper's §III-B).
        let base = self.catalog.table(&view.relations[target_index])?;
        let contributing: Vec<Tuple> = base.iter().filter(|t| match_set.contains(t)).collect();
        Ok(Relation::from_parts(base.schema().clone(), contributing))
    }

    /// The number of inverse queries needed to trace every tuple of the view result — the cost
    /// profile the related-work section contrasts with Perm's single rewritten query.
    pub fn inverse_query_count(&self, view: &ViewDefinition, result: &Relation) -> usize {
        result.num_rows() * view.relations.len()
    }

    fn joined_relations(&self, view: &ViewDefinition) -> Result<LogicalPlan, ExecError> {
        let mut plan: Option<LogicalPlan> = None;
        for (ref_id, name) in view.relations.iter().enumerate() {
            let schema = self.catalog.table_schema(name)?;
            let name = Name::from(name.as_str());
            let scan = LogicalPlan::BaseRelation {
                name: name.clone(),
                alias: None,
                schema: schema.with_qualifier(name),
                ref_id,
            };
            plan = Some(match plan {
                None => scan,
                Some(left) => LogicalPlan::Join {
                    left: Arc::new(left),
                    right: Arc::new(scan),
                    kind: JoinKind::Cross,
                    condition: None,
                },
            });
        }
        plan.ok_or_else(|| ExecError::Internal("a view must access at least one relation".into()))
    }
}

/// Compare a Perm provenance result against the Cui–Widom oracle for a single original result
/// tuple: project the Perm rows matching `original` onto each relation's provenance attribute
/// group and compare as sets against the oracle's relations.
pub fn perm_matches_oracle(
    perm_result: &Relation,
    original_arity: usize,
    original: &Tuple,
    oracle: &[Relation],
) -> bool {
    let schema = perm_result.schema();
    let prov_positions = schema.provenance_indices();
    // Group provenance positions into consecutive runs of equal arity matching the oracle
    // relations (the rewriter appends one group per base relation, in order).
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut cursor = 0;
    for rel in oracle {
        let arity = rel.schema().arity();
        if cursor + arity > prov_positions.len() {
            return false;
        }
        groups.push(prov_positions[cursor..cursor + arity].to_vec());
        cursor += arity;
    }
    if cursor != prov_positions.len() {
        return false;
    }

    let witnesses: Vec<Tuple> = perm_result
        .iter()
        .filter(|t| (0..original_arity).all(|i| t.get(i) == original.get(i)))
        .collect();
    for (group, expected) in groups.iter().zip(oracle) {
        let mut actual: Vec<Tuple> = witnesses
            .iter()
            .map(|t| t.project(group))
            .filter(|t| !t.values().iter().all(|v| v.is_null()))
            .collect();
        actual.sort();
        actual.dedup();
        let mut expected_tuples: Vec<Tuple> = expected.tuples();
        expected_tuples.sort();
        expected_tuples.dedup();
        if actual != expected_tuples {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_algebra::{tuple, AggregateFunction, DataType, Schema, Value};
    use perm_core::ProvenanceRewriter;
    use perm_exec::execute_plan;

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

    /// The paper's q_ex as a decomposed ASPJ view definition.
    fn qex_view() -> ViewDefinition {
        // Combined schema: shop(name, numempl) ++ sales(sname, itemid) ++ items(id, price).
        let name = ScalarExpr::column(0, "name");
        let sname = ScalarExpr::column(2, "sname");
        let itemid = ScalarExpr::column(3, "itemid");
        let id = ScalarExpr::column(4, "id");
        let price = ScalarExpr::column(5, "price");
        ViewDefinition::aspj(
            vec!["shop".into(), "sales".into(), "items".into()],
            Some(name.clone().eq(sname).and(itemid.eq(id))),
            vec![(name, "name".into())],
            vec![(AggregateExpr::new(AggregateFunction::Sum, price), "sum_price".into())],
        )
    }

    #[test]
    fn inversion_reproduces_the_papers_motivating_example() {
        // §III-B: the lineage of (Merdies, 120) is presented as a *list of relations*.
        let catalog = paper_catalog();
        let tracer = CuiWidomTracer::new(catalog);
        let view = qex_view();
        let result = tracer.evaluate_view(&view).unwrap();
        assert_eq!(result.num_rows(), 2);
        let merdies = tuple!["Merdies", 120];
        let lineage = tracer.lineage(&view, &merdies).unwrap();
        assert_eq!(lineage.len(), 3);
        assert_eq!(lineage[0].sorted().tuples(), &[tuple!["Merdies", 3]]);
        assert_eq!(
            lineage[1].sorted().tuples(),
            &[tuple!["Merdies", 1], tuple!["Merdies", 2], tuple!["Merdies", 2]]
        );
        assert_eq!(lineage[2].sorted().tuples(), &[tuple![1, 100], tuple![2, 10]]);
        assert_eq!(tracer.inverse_query_count(&view, &result), 6);
    }

    #[test]
    fn perm_rewrite_agrees_with_the_inversion_oracle_on_the_example() {
        // §III-E: Perm's influence-contribution semantics ≡ Cui–Widom lineage.
        let catalog = paper_catalog();
        let tracer = CuiWidomTracer::new(catalog.clone());
        let view = qex_view();
        let view_plan = tracer.view_plan(&view).unwrap();
        let rewritten = ProvenanceRewriter::new().rewrite(&view_plan).unwrap();
        let perm_result = execute_plan(&catalog, &rewritten).unwrap();
        let original = tracer.evaluate_view(&view).unwrap();
        for t in original.tuples() {
            let oracle = tracer.lineage(&view, &t).unwrap();
            assert!(
                perm_matches_oracle(&perm_result, original.arity(), &t, &oracle),
                "Perm provenance and Cui-Widom lineage disagree for {t}"
            );
        }
    }

    #[test]
    fn spj_lineage_for_a_selection() {
        let catalog = paper_catalog();
        let tracer = CuiWidomTracer::new(catalog);
        let view = ViewDefinition::spj(
            vec!["items".into()],
            Some(ScalarExpr::column(1, "price").eq(ScalarExpr::literal(10i64))),
            vec![(ScalarExpr::column(0, "id"), "id".into())],
        );
        let result = tracer.evaluate_view(&view).unwrap();
        assert_eq!(result.tuples(), &[tuple![2]]);
        let lineage = tracer.lineage(&view, &tuple![2]).unwrap();
        assert_eq!(lineage[0].tuples(), &[tuple![2, 10]]);
    }

    #[test]
    fn lineage_of_a_tuple_not_in_the_result_is_empty() {
        let catalog = paper_catalog();
        let tracer = CuiWidomTracer::new(catalog);
        let view = qex_view();
        let lineage = tracer.lineage(&view, &tuple!["Nowhere", 0]).unwrap();
        assert!(lineage.iter().all(|r| r.is_empty()));
    }

    #[test]
    fn oracle_mismatch_is_detected() {
        let catalog = paper_catalog();
        let tracer = CuiWidomTracer::new(catalog.clone());
        let view = qex_view();
        let view_plan = tracer.view_plan(&view).unwrap();
        let rewritten = ProvenanceRewriter::new().rewrite(&view_plan).unwrap();
        let perm_result = execute_plan(&catalog, &rewritten).unwrap();
        // Deliberately wrong oracle: swap the lineage of Merdies and Joba.
        let joba_lineage = tracer.lineage(&view, &tuple!["Joba", 50]).unwrap();
        assert!(!perm_matches_oracle(&perm_result, 2, &tuple!["Merdies", 120], &joba_lineage));
        let _ = Value::Null; // keep the Value import exercised on all platforms
    }
}

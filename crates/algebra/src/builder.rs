//! A fluent builder for logical plans.
//!
//! Used heavily by tests, the baselines and the artificial workload generators of `perm-tpch`.
//! Column references can be given by *name*; the builder resolves them against the current
//! schema, which keeps call sites readable.

use std::sync::Arc;

use crate::error::AlgebraError;
use crate::expr::{AggregateExpr, ScalarExpr, SortKey};
use crate::plan::{JoinKind, LogicalPlan, SetOpKind, SetSemantics};
use crate::schema::{Name, Schema};
use crate::tuple::Tuple;

/// Builds [`LogicalPlan`] trees incrementally.
#[derive(Debug, Clone)]
pub struct PlanBuilder {
    plan: Arc<LogicalPlan>,
}

impl PlanBuilder {
    /// Start from an existing plan.
    pub fn from_plan(plan: LogicalPlan) -> PlanBuilder {
        PlanBuilder { plan: Arc::new(plan) }
    }

    /// Start from a base relation with the given schema. Attribute qualifiers are set to the
    /// relation name so qualified references resolve.
    pub fn scan(name: impl Into<Name>, schema: Schema, ref_id: usize) -> PlanBuilder {
        let name = name.into();
        let schema = schema.with_qualifier(name.clone());
        PlanBuilder {
            plan: Arc::new(LogicalPlan::BaseRelation { name, alias: None, schema, ref_id }),
        }
    }

    /// Start from a literal set of rows.
    pub fn values(schema: Schema, rows: Vec<Tuple>) -> PlanBuilder {
        PlanBuilder { plan: Arc::new(LogicalPlan::Values { schema, rows }) }
    }

    /// The schema of the plan built so far.
    pub fn schema(&self) -> Schema {
        self.plan.schema()
    }

    /// Resolve an attribute name to a column expression against the current schema.
    pub fn col(&self, name: &str) -> Result<ScalarExpr, AlgebraError> {
        let schema = self.schema();
        let idx = schema.resolve(name)?;
        Ok(ScalarExpr::column(idx, schema.attribute(idx)?.name.clone()))
    }

    /// Add a selection with the given predicate.
    pub fn filter(self, predicate: ScalarExpr) -> PlanBuilder {
        PlanBuilder { plan: Arc::new(LogicalPlan::Selection { input: self.plan, predicate }) }
    }

    /// Add a bag-semantics projection. Each entry is `(expression, output name)`.
    pub fn project(self, exprs: Vec<(ScalarExpr, Name)>) -> PlanBuilder {
        PlanBuilder {
            plan: Arc::new(LogicalPlan::Projection { input: self.plan, exprs, distinct: false }),
        }
    }

    /// Add a set-semantics (DISTINCT) projection.
    pub fn project_distinct(self, exprs: Vec<(ScalarExpr, Name)>) -> PlanBuilder {
        PlanBuilder {
            plan: Arc::new(LogicalPlan::Projection { input: self.plan, exprs, distinct: true }),
        }
    }

    /// Project the named columns (no renaming, no computed expressions).
    pub fn project_columns(self, names: &[&str]) -> Result<PlanBuilder, AlgebraError> {
        let schema = self.schema();
        let mut exprs = Vec::with_capacity(names.len());
        for name in names {
            let idx = schema.resolve(name)?;
            let attr = schema.attribute(idx)?;
            exprs.push((ScalarExpr::column(idx, attr.name.clone()), attr.name.clone()));
        }
        Ok(self.project(exprs))
    }

    /// Join with another plan.
    pub fn join(
        self,
        right: PlanBuilder,
        kind: JoinKind,
        condition: Option<ScalarExpr>,
    ) -> PlanBuilder {
        PlanBuilder {
            plan: Arc::new(LogicalPlan::Join {
                left: self.plan,
                right: right.plan,
                kind,
                condition,
            }),
        }
    }

    /// Cross product with another plan.
    pub fn cross_join(self, right: PlanBuilder) -> PlanBuilder {
        self.join(right, JoinKind::Cross, None)
    }

    /// Add an aggregation.
    pub fn aggregate(
        self,
        group_by: Vec<(ScalarExpr, Name)>,
        aggregates: Vec<(AggregateExpr, Name)>,
    ) -> PlanBuilder {
        PlanBuilder {
            plan: Arc::new(LogicalPlan::Aggregation { input: self.plan, group_by, aggregates }),
        }
    }

    /// Combine with another plan through a set operation, each input cast to the columns'
    /// common types ([`crate::DataType::common_type`]) where its own differ, so that a column
    /// holds one type whichever input a row comes from. Inputs without common types stay as
    /// they are, for [`LogicalPlan::verify`] to reject.
    pub fn set_op(
        self,
        right: PlanBuilder,
        kind: SetOpKind,
        semantics: SetSemantics,
    ) -> PlanBuilder {
        let (l, r) = (self.schema(), right.schema());
        let types = l
            .attributes()
            .iter()
            .zip(r.attributes())
            .map(|(a, b)| a.data_type.common_type(b.data_type));
        let types = types.collect::<Option<Vec<_>>>().filter(|_| l.arity() == r.arity());
        let (left, right) = match types {
            Some(types) => (self.plan.cast_columns(&types), right.plan.cast_columns(&types)),
            None => (self.plan, right.plan),
        };
        PlanBuilder { plan: Arc::new(LogicalPlan::SetOp { left, right, kind, semantics }) }
    }

    /// Add a sort.
    pub fn sort(self, keys: Vec<SortKey>) -> PlanBuilder {
        PlanBuilder { plan: Arc::new(LogicalPlan::Sort { input: self.plan, keys }) }
    }

    /// Add a limit.
    pub fn limit(self, limit: Option<usize>, offset: usize) -> PlanBuilder {
        PlanBuilder { plan: Arc::new(LogicalPlan::Limit { input: self.plan, limit, offset }) }
    }

    /// Wrap in a subquery alias.
    pub fn alias(self, alias: impl Into<Name>) -> PlanBuilder {
        PlanBuilder {
            plan: Arc::new(LogicalPlan::SubqueryAlias { input: self.plan, alias: alias.into() }),
        }
    }

    /// Finish building, returning the plan.
    pub fn build(self) -> LogicalPlan {
        Arc::try_unwrap(self.plan).unwrap_or_else(|arc| (*arc).clone())
    }

    /// Finish building, returning the plan wrapped in an [`Arc`].
    pub fn build_arc(self) -> Arc<LogicalPlan> {
        self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::AggregateFunction;
    use crate::value::DataType;

    fn shop_schema() -> Schema {
        Schema::from_pairs(&[("name", DataType::Text), ("numempl", DataType::Int)])
    }

    fn sales_schema() -> Schema {
        Schema::from_pairs(&[("sname", DataType::Text), ("itemid", DataType::Int)])
    }

    #[test]
    fn build_the_paper_example_query_shape() {
        // q_ex = α_{name, sum(price)}(σ_{name=sname ∧ itemid=id}(shop × sales × items))
        let items_schema = Schema::from_pairs(&[("id", DataType::Int), ("price", DataType::Int)]);
        let shop = PlanBuilder::scan("shop", shop_schema(), 0);
        let sales = PlanBuilder::scan("sales", sales_schema(), 1);
        let items = PlanBuilder::scan("items", items_schema, 2);

        let prod = shop.cross_join(sales).cross_join(items);
        let name = prod.col("shop.name").unwrap();
        let sname = prod.col("sales.sname").unwrap();
        let itemid = prod.col("sales.itemid").unwrap();
        let id = prod.col("items.id").unwrap();
        let price = prod.col("items.price").unwrap();

        let filtered = prod.filter(name.clone().eq(sname).and(itemid.eq(id)));
        let agg = filtered.aggregate(
            vec![(name, "name".into())],
            vec![(AggregateExpr::new(AggregateFunction::Sum, price), "sum_price".into())],
        );
        let plan = agg.build();
        plan.verify().unwrap();
        assert_eq!(plan.schema().attribute_names(), vec!["name", "sum_price"]);
        assert_eq!(plan.base_relations().len(), 3);
    }

    #[test]
    fn col_resolves_qualified_names() {
        let b = PlanBuilder::scan("shop", shop_schema(), 0);
        assert!(b.col("shop.name").is_ok());
        assert!(b.col("name").is_ok());
        assert!(b.col("ghost").is_err());
    }

    #[test]
    fn project_columns_by_name() {
        let b = PlanBuilder::scan("shop", shop_schema(), 0).project_columns(&["numempl"]).unwrap();
        assert_eq!(b.schema().attribute_names(), vec!["numempl"]);
    }

    #[test]
    fn set_op_of_compatible_scans_validates() {
        let a = PlanBuilder::scan("shop", shop_schema(), 0);
        let b = PlanBuilder::scan("shop", shop_schema(), 1);
        let u = a.set_op(b, SetOpKind::Union, SetSemantics::Bag).build();
        u.verify().unwrap();
    }
}

//! `PermDb`: the provenance management system facade.
//!
//! `PermDb` is a thin single-session wrapper over the multi-session
//! [`perm_service::Engine`]: it injects this crate's provenance rewriter into the engine's
//! pipeline of the paper's Figure 5:
//!
//! ```text
//!   SQL ──▶ parser & analyzer ──▶ view unfolding ──▶ provenance rewriter ──▶ optimizer ──▶ executor
//! ```
//!
//! Queries executed through `PermDb` therefore share everything the service layer provides —
//! atomic catalog snapshots and the engine's plan cache — while keeping the simple embedded
//! API. For concurrent multi-session workloads (prepared statements, the `permd` wire server),
//! use [`PermDb::engine`] and open [`perm_service::Session`]s directly.
//!
//! It supports lazy provenance computation (`SELECT PROVENANCE ...`), eager storage of
//! provenance (`SELECT PROVENANCE ... INTO table` or [`PermDb::store_provenance`]), provenance
//! views, external provenance (`PROVENANCE (attrs)` from-clause annotations) and limited-scope
//! provenance (`BASERELATION`).

use std::sync::Arc;

use perm_algebra::LogicalPlan;
use perm_service::{Engine, PreparedPlan, Session, SessionOptions};
use perm_sql::Analyzer;
use perm_storage::{Catalog, Relation};

use crate::error::PermError;
use crate::rewrite::ProvenanceRewriter;

/// The Perm provenance management system.
#[derive(Debug, Clone)]
pub struct PermDb {
    engine: Arc<Engine>,
    options: SessionOptions,
    rewriter: Arc<ProvenanceRewriter>,
}

impl Default for PermDb {
    fn default() -> Self {
        PermDb::new()
    }
}

impl PermDb {
    /// Create an empty database.
    pub fn new() -> PermDb {
        PermDb::with_options(SessionOptions::default())
    }

    /// Create an empty database with custom options.
    pub fn with_options(options: SessionOptions) -> PermDb {
        PermDb::with_catalog(Catalog::new(), options)
    }

    /// Create a database over an existing catalog (shares the underlying data).
    pub fn with_catalog(catalog: Catalog, options: SessionOptions) -> PermDb {
        let rewriter = Arc::new(ProvenanceRewriter::new());
        let engine = Arc::new(Engine::with_catalog(catalog).with_rewriter(rewriter.clone()));
        PermDb { engine, options, rewriter }
    }

    /// The shared engine behind this facade. Use [`Engine::session`] to open additional
    /// concurrent sessions (prepared statements, per-connection settings) over the same data.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The catalog backing this database.
    pub fn catalog(&self) -> &Catalog {
        self.engine.catalog()
    }

    /// A single-use session carrying this database's options.
    fn session(&self) -> Session {
        let mut session = Session::new(self.engine.clone());
        session.set_options(self.options.clone());
        session
    }

    /// The current options.
    pub fn options(&self) -> &SessionOptions {
        &self.options
    }

    /// Replace the options (row budget, timeout, optimizer switch).
    pub fn set_options(&mut self, options: SessionOptions) {
        self.options = options;
    }

    /// Register a pre-built relation as a base table.
    pub fn register_table(&self, name: &str, relation: Relation) -> Result<(), PermError> {
        self.catalog().create_table_with_data(name, relation)?;
        Ok(())
    }

    /// The analyzer configured with this database's catalog and provenance rewriter.
    pub fn analyzer(&self) -> Analyzer {
        self.engine.analyzer()
    }

    /// Parse, analyze, optimize — but do not execute — a query. Returns the final plan exactly
    /// as it would be executed (after provenance rewriting and optimization). Used by the
    /// compilation-overhead experiment (paper Figure 9) and for plan inspection.
    pub fn plan_sql(&self, sql: &str) -> Result<LogicalPlan, PermError> {
        let plan = self.analyzer().analyze_query_sql(sql)?;
        self.maybe_optimize(plan)
    }

    /// Parse and analyze a query *without* optimization (the raw rewriter output).
    pub fn analyze_sql_plan(&self, sql: &str) -> Result<LogicalPlan, PermError> {
        Ok(self.analyzer().analyze_query_sql(sql)?)
    }

    /// Rewrite an already-bound plan into its provenance-computing form (programmatic
    /// equivalent of the `PROVENANCE` keyword).
    pub fn rewrite_plan(&self, plan: &LogicalPlan) -> Result<LogicalPlan, PermError> {
        self.rewriter.rewrite(plan)
    }

    /// Execute a bound plan.
    pub fn execute_plan(&self, plan: &LogicalPlan) -> Result<Relation, PermError> {
        let plan = self.maybe_optimize(plan.clone())?;
        let prepared = PreparedPlan { plan, into: None, param_count: 0, sql: String::new() };
        Ok(self.engine.execute_prepared_plan(&prepared, self.options.exec_options(), Vec::new())?)
    }

    /// Execute a single SQL statement (DDL, DML or query). DDL statements return an empty
    /// relation. Queries go through the engine's shared plan cache, so repeated statements are
    /// planned once.
    pub fn execute_sql(&self, sql: &str) -> Result<Relation, PermError> {
        Ok(self.session().execute(sql)?)
    }

    /// Execute a `;`-separated script, returning one result per statement.
    pub fn execute_script(&self, sql: &str) -> Result<Vec<Relation>, PermError> {
        Ok(self.session().execute_script(sql)?)
    }

    /// Compute the provenance of a (plain, non-PROVENANCE) SQL query programmatically.
    ///
    /// Equivalent to prefixing the query's select clause with the `PROVENANCE` keyword: the
    /// result contains the original columns followed by `prov_*` attributes.
    pub fn provenance_of_query(&self, sql: &str) -> Result<Relation, PermError> {
        let plan = self.analyzer().analyze_query_sql(sql)?;
        let rewritten = self.rewriter.rewrite(&plan)?;
        self.execute_plan(&rewritten)
    }

    /// Store the provenance of a query as a new base table (eager provenance computation, the
    /// paper's `SELECT PROVENANCE ... INTO table`).
    pub fn store_provenance(&self, table: &str, sql: &str) -> Result<usize, PermError> {
        let result = self.provenance_of_query(sql)?;
        let rows = result.num_rows();
        self.catalog().overwrite(table, result)?;
        Ok(rows)
    }

    /// Create a provenance view: a view whose body computes provenance lazily whenever the view
    /// is referenced.
    pub fn create_provenance_view(&self, name: &str, query_sql: &str) -> Result<(), PermError> {
        let body = format!("SELECT PROVENANCE * FROM ({query_sql}) AS {name}_body");
        // Validate eagerly so errors surface now.
        self.analyzer().analyze_query_sql(&body)?;
        self.catalog().create_view(name, &body)?;
        Ok(())
    }

    fn maybe_optimize(&self, plan: LogicalPlan) -> Result<LogicalPlan, PermError> {
        if self.options.optimize {
            Ok(self.engine.optimize_plan(&plan)?)
        } else {
            Ok(plan)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_algebra::{tuple, Value};

    fn shop_db() -> PermDb {
        let db = PermDb::new();
        db.execute_script(
            "CREATE TABLE shop (name TEXT, numEmpl INT);\n\
             CREATE TABLE sales (sName TEXT, itemId INT);\n\
             CREATE TABLE items (id INT, price INT);\n\
             INSERT INTO shop VALUES ('Merdies', 3), ('Joba', 14);\n\
             INSERT INTO sales VALUES ('Merdies', 1), ('Merdies', 2), ('Merdies', 2), ('Joba', 3), ('Joba', 3);\n\
             INSERT INTO items VALUES (1, 100), (2, 10), (3, 25);",
        )
        .unwrap();
        db
    }

    #[test]
    fn end_to_end_paper_example_via_sql_ple() {
        let db = shop_db();
        let result = db
            .execute_sql(
                "SELECT PROVENANCE name, sum(price) AS total FROM shop, sales, items \
                 WHERE name = sName AND itemId = id GROUP BY name",
            )
            .unwrap();
        assert_eq!(
            result.schema().attribute_names(),
            vec![
                "name",
                "total",
                "prov_shop_name",
                "prov_shop_numempl",
                "prov_sales_sname",
                "prov_sales_itemid",
                "prov_items_id",
                "prov_items_price"
            ]
        );
        assert_eq!(result.num_rows(), 5);
        let sorted = result.sorted();
        assert_eq!(sorted.tuples()[0], tuple!["Joba", 50, "Joba", 14, "Joba", 3, 3, 25]);
        assert_eq!(sorted.tuples()[2], tuple!["Merdies", 120, "Merdies", 3, "Merdies", 1, 1, 100]);
    }

    #[test]
    fn provenance_query_as_subquery_q1_from_the_paper() {
        // q1 = Π_pId(σ_sum(price)>100(qex+)): which items were sold by shops with total > 100.
        let db = shop_db();
        let result = db
            .execute_sql(
                "SELECT prov_items_id FROM \
                   (SELECT PROVENANCE name, sum(price) AS total FROM shop, sales, items \
                    WHERE name = sName AND itemId = id GROUP BY name) AS prov \
                 WHERE total > 100",
            )
            .unwrap();
        let sorted = result.sorted();
        assert_eq!(sorted.tuples(), &[tuple![1], tuple![2], tuple![2]]);
    }

    #[test]
    fn normal_queries_are_unaffected() {
        let db = shop_db();
        let result = db
            .execute_sql("SELECT name, sum(price) AS total FROM shop, sales, items WHERE name = sName AND itemId = id GROUP BY name ORDER BY total DESC")
            .unwrap();
        assert_eq!(result.num_rows(), 2);
        assert_eq!(result.tuples()[0], tuple!["Merdies", 120]);
        assert_eq!(result.schema().provenance_indices().len(), 0);
    }

    #[test]
    fn provenance_of_query_api_matches_sql_ple() {
        let db = shop_db();
        let via_api = db
            .provenance_of_query("SELECT name, sum(price) AS total FROM shop, sales, items WHERE name = sName AND itemId = id GROUP BY name")
            .unwrap();
        let via_sql = db
            .execute_sql("SELECT PROVENANCE name, sum(price) AS total FROM shop, sales, items WHERE name = sName AND itemId = id GROUP BY name")
            .unwrap();
        assert!(via_api.bag_eq(&via_sql));
    }

    #[test]
    fn select_into_stores_provenance_eagerly() {
        let db = shop_db();
        db.execute_sql("SELECT PROVENANCE id, price INTO item_prov FROM items WHERE price > 20")
            .unwrap();
        assert!(db.catalog().has_table("item_prov"));
        let stored = db.execute_sql("SELECT * FROM item_prov").unwrap();
        assert_eq!(stored.num_rows(), 2);
        assert_eq!(stored.schema().arity(), 4);
    }

    #[test]
    fn store_provenance_api() {
        let db = shop_db();
        let rows = db.store_provenance("stored", "SELECT sum(price) AS total FROM items").unwrap();
        assert_eq!(rows, 3);
        let stored = db.execute_sql("SELECT * FROM stored").unwrap();
        assert_eq!(
            stored.schema().attribute_names(),
            vec!["total", "prov_items_id", "prov_items_price"]
        );
    }

    #[test]
    fn incremental_provenance_from_stored_results() {
        // The paper's §IV-A.3 example: a view stores provenance; a later provenance query reuses
        // the stored provenance attributes instead of recomputing them.
        let db = shop_db();
        db.execute_sql(
            "CREATE VIEW totalItemPrice AS SELECT PROVENANCE sum(price) AS total FROM items",
        )
        .unwrap();
        let result = db
            .execute_sql(
                "SELECT PROVENANCE total * 10 AS total10 \
                 FROM totalItemPrice PROVENANCE (prov_items_id, prov_items_price)",
            )
            .unwrap();
        assert_eq!(
            result.schema().attribute_names(),
            vec!["total10", "prov_items_id", "prov_items_price"]
        );
        assert_eq!(result.num_rows(), 3);
        for t in result.tuples() {
            assert_eq!(t[0], Value::Int(1350));
        }
    }

    #[test]
    fn baserelation_annotation_via_sql() {
        let db = shop_db();
        let result = db
            .execute_sql(
                "SELECT PROVENANCE total * 10 AS total10 FROM \
                   (SELECT sum(price) AS total FROM items) BASERELATION AS sub",
            )
            .unwrap();
        assert_eq!(result.schema().attribute_names(), vec!["total10", "prov_sub_total"]);
        assert_eq!(result.num_rows(), 1);
        assert_eq!(result.tuples()[0], tuple![1350, 135]);
    }

    #[test]
    fn provenance_views_compute_lazily() {
        let db = shop_db();
        db.create_provenance_view("expensive_items_prov", "SELECT id FROM items WHERE price > 20")
            .unwrap();
        let result = db.execute_sql("SELECT * FROM expensive_items_prov").unwrap();
        assert_eq!(result.num_rows(), 2);
        assert_eq!(result.schema().arity(), 3, "id plus two provenance attributes");
        // New data is picked up because the view is unfolded lazily.
        db.execute_sql("INSERT INTO items VALUES (4, 500)").unwrap();
        let result = db.execute_sql("SELECT * FROM expensive_items_prov").unwrap();
        assert_eq!(result.num_rows(), 3);
    }

    #[test]
    fn row_budget_aborts_runaway_provenance_queries() {
        let mut db = shop_db();
        db.set_options(SessionOptions::default().with_row_budget(3));
        let err = db
            .execute_sql("SELECT PROVENANCE name, sum(price) AS total FROM shop, sales, items WHERE name = sName AND itemId = id GROUP BY name")
            .unwrap_err();
        assert!(matches!(err, PermError::Exec(perm_exec::ExecError::RowBudgetExceeded { .. })));
    }

    #[test]
    fn plan_sql_reports_rewritten_and_optimized_plan() {
        let db = shop_db();
        let plan = db.plan_sql("SELECT PROVENANCE name FROM shop WHERE numEmpl < 10").unwrap();
        assert!(plan.schema().attribute_names().contains(&"prov_shop_name".to_string()));
        let unoptimized =
            db.analyze_sql_plan("SELECT name FROM shop, sales WHERE name = sName").unwrap();
        let optimized = db.plan_sql("SELECT name FROM shop, sales WHERE name = sName").unwrap();
        // The cross product + selection must have become an inner join...
        fn find_join(plan: &LogicalPlan) -> Option<&LogicalPlan> {
            if let LogicalPlan::Join { .. } = plan {
                return Some(plan);
            }
            plan.children().iter().find_map(|c| find_join(c))
        }
        assert!(matches!(
            find_join(&unoptimized),
            Some(LogicalPlan::Join { kind: perm_algebra::JoinKind::Cross, .. })
        ));
        let joined = find_join(&optimized).expect("optimized plan keeps a join");
        assert!(matches!(
            joined,
            LogicalPlan::Join { kind: perm_algebra::JoinKind::Inner, condition: Some(_), .. }
        ));
        // ...and column pruning must have narrowed it: only `name` and `sName` survive below
        // the top projection (the unoptimized join carries all four attributes).
        assert_eq!(joined.schema().arity(), 2);
        assert_eq!(optimized.schema().attribute_names(), vec!["name"]);
    }

    #[test]
    fn ddl_and_errors() {
        let db = PermDb::new();
        db.execute_sql("CREATE TABLE t (a INT)").unwrap();
        assert!(db.execute_sql("CREATE TABLE t (a INT)").is_err());
        db.execute_sql("DROP TABLE t").unwrap();
        assert!(db.execute_sql("SELECT * FROM t").is_err());
        assert!(db.execute_sql("SELECT PROVENANCE x FROM missing").is_err());
    }
}

//! Prepared-statement edge cases (re-bind, wrong arity, NULL parameters) and plan-cache
//! behaviour (kept from a text's second planning, scan resistance, invalidation on DDL/DML
//! commits).

use std::sync::Arc;

use perm_algebra::Value;
use perm_core::ProvenanceRewriter;
use perm_service::{Engine, ServiceError};

fn shop_engine() -> Arc<Engine> {
    let engine = Arc::new(Engine::new().with_rewriter(Arc::new(ProvenanceRewriter::new())));
    let session = engine.session();
    session
        .execute_script(
            "CREATE TABLE shop (name TEXT, numEmpl INT);\n\
             CREATE TABLE sales (sName TEXT, itemId INT);\n\
             CREATE TABLE items (id INT, price INT);\n\
             INSERT INTO shop VALUES ('Merdies', 3), ('Joba', 14);\n\
             INSERT INTO sales VALUES ('Merdies', 1), ('Merdies', 2), ('Merdies', 2), ('Joba', 3), ('Joba', 3);\n\
             INSERT INTO items VALUES (1, 100), (2, 10), (3, 25);",
        )
        .unwrap();
    engine
}

#[test]
fn prepare_bind_execute_many() {
    let engine = shop_engine();
    let mut session = engine.session();
    let params =
        session.prepare("pricey", "SELECT id FROM items WHERE price > $1 ORDER BY id").unwrap();
    assert_eq!(params, 1);

    // Re-binding the same plan with different values.
    let r = session.execute_prepared("pricey", vec![Value::Int(20)]).unwrap();
    assert_eq!(r.num_rows(), 2);
    let r = session.execute_prepared("pricey", vec![Value::Int(99)]).unwrap();
    assert_eq!(r.num_rows(), 1);

    // NULL parameters follow SQL three-valued logic: the comparison is UNKNOWN everywhere.
    let r = session.execute_prepared("pricey", vec![Value::Null]).unwrap();
    assert_eq!(r.num_rows(), 0);

    // Wrong arity is a typed error, in both directions.
    let err = session.execute_prepared("pricey", vec![]).unwrap_err();
    assert!(matches!(err, ServiceError::ParameterCount { expected: 1, got: 0, .. }));
    let err = session.execute_prepared("pricey", vec![Value::Int(1), Value::Int(2)]).unwrap_err();
    assert!(matches!(err, ServiceError::ParameterCount { expected: 1, got: 2, .. }));

    // Unknown names and deallocation.
    assert!(matches!(
        session.execute_prepared("nope", vec![]).unwrap_err(),
        ServiceError::UnknownPrepared(_)
    ));
    assert!(session.deallocate("pricey"));
    assert!(!session.deallocate("pricey"));
    assert!(matches!(
        session.execute_prepared("pricey", vec![Value::Int(1)]).unwrap_err(),
        ServiceError::UnknownPrepared(_)
    ));
}

#[test]
fn prepared_provenance_query_with_parameters() {
    let engine = shop_engine();
    let mut session = engine.session();
    session
        .prepare(
            "prov",
            "SELECT PROVENANCE name FROM shop, sales WHERE name = sName AND itemId = $1",
        )
        .unwrap();
    // Item 2 was sold twice by Merdies.
    let r = session.execute_prepared("prov", vec![Value::Int(2)]).unwrap();
    assert_eq!(r.num_rows(), 2);
    assert!(r.schema().attribute_names().iter().any(|n| n.starts_with("prov_sales")));
    // Item 3 was sold twice by Joba; same plan, new binding.
    let r = session.execute_prepared("prov", vec![Value::Int(3)]).unwrap();
    assert_eq!(r.num_rows(), 2);
}

#[test]
fn preparing_non_queries_and_direct_parameterized_queries_are_rejected() {
    let engine = shop_engine();
    let mut session = engine.session();
    assert!(matches!(
        session.prepare("ddl", "DROP TABLE shop").unwrap_err(),
        ServiceError::Unsupported(_)
    ));
    assert!(matches!(
        session.execute("SELECT id FROM items WHERE price > $1").unwrap_err(),
        ServiceError::Unsupported(_)
    ));
    // Parameters never appear in INSERT ... VALUES.
    assert!(session.execute("INSERT INTO items VALUES ($1, 1)").is_err());
}

#[test]
fn plan_cache_hits_and_is_invalidated_by_commits() {
    let engine = shop_engine();
    let session = engine.session();
    let sql = "SELECT PROVENANCE name, sum(price) AS total FROM shop, sales, items \
               WHERE name = sName AND itemId = id GROUP BY name";

    let before = engine.cache_stats();
    session.execute(sql).unwrap();
    let after_cold = engine.cache_stats();
    assert_eq!(after_cold.misses, before.misses + 1, "cold run misses");
    assert_eq!(after_cold.deferred, before.deferred + 1, "a first planning is not kept");
    assert_eq!(after_cold.entries, before.entries);

    // The text's second planning is cached.
    session.execute(sql).unwrap();
    let after_first = engine.cache_stats();
    assert_eq!(after_first.misses, after_cold.misses + 1, "second run misses");
    assert_eq!(after_first.deferred, after_cold.deferred, "and is kept");
    assert_eq!(after_first.entries, after_cold.entries + 1);

    // Trivial reformatting still hits: keys are normalized.
    session
        .execute(
            "SELECT   PROVENANCE name,\n\tsum(price) AS total FROM shop, sales, items \
             WHERE name = sName AND itemId = id GROUP BY name;",
        )
        .unwrap();
    let after_second = engine.cache_stats();
    assert_eq!(after_second.hits, after_first.hits + 1, "warm run hits");

    // Another session shares the cache.
    engine.session().execute(sql).unwrap();
    assert_eq!(engine.cache_stats().hits, after_second.hits + 1);

    // A DML commit invalidates; the next run re-plans and caches again at once.
    session.execute("INSERT INTO items VALUES (4, 500)").unwrap();
    session.execute(sql).unwrap();
    let after_dml = engine.cache_stats();
    assert_eq!(after_dml.invalidations, after_second.invalidations + 1);
    assert_eq!(after_dml.deferred, after_second.deferred, "an invalidated text is remembered");
    session.execute(sql).unwrap();
    assert_eq!(engine.cache_stats().hits, after_dml.hits + 1, "cache warm again after re-plan");

    // A DDL commit invalidates too.
    session.execute("CREATE TABLE scratch (x INT)").unwrap();
    session.execute(sql).unwrap();
    assert!(engine.cache_stats().invalidations > after_dml.invalidations);

    // And the results are still correct after all of that (new item 4 never joins).
    let result = session.execute(sql).unwrap();
    assert_eq!(result.num_rows(), 5);
}

/// A scan of one-shot texts, many more than the cache holds, leaves the hot texts cached: a
/// text new to the cache is not kept, so nothing is evicted to make room for it.
#[test]
fn one_shot_texts_do_not_evict_hot_plans() {
    let engine = shop_engine();
    let session = engine.session();
    let hot: Vec<String> =
        (0..8).map(|i| format!("SELECT name FROM shop WHERE numEmpl > {i}")).collect();
    for _ in 0..3 {
        for sql in &hot {
            session.execute(sql).unwrap();
        }
    }
    for i in 0..300 {
        session.execute(&format!("SELECT id FROM items WHERE price > {i}")).unwrap();
    }
    let scanned = engine.cache_stats();

    for sql in &hot {
        session.execute(sql).unwrap();
    }
    let after = engine.cache_stats();
    assert_eq!(after.hits, scanned.hits + 8, "every hot text is still cached");
    assert_eq!(after.misses, scanned.misses);
    assert!(scanned.entries <= 9, "{} plans cached after the scan", scanned.entries);
    assert!(after.entries <= 9);
}

#[test]
fn leading_comments_still_route_queries_through_the_query_path() {
    let engine = shop_engine();
    let session = engine.session();
    // Query-shaped despite the leading comment: must hit the plan cache...
    let sql = "-- the paper's example\nSELECT id FROM items WHERE price > 20";
    assert_eq!(session.execute(sql).unwrap().num_rows(), 2);
    session.execute(sql).unwrap();
    let before = engine.cache_stats();
    session.execute(sql).unwrap();
    assert_eq!(engine.cache_stats().hits, before.hits + 1);
    // ...and a parameterized direct query must hit the prepare/execute guard, not a confusing
    // unbound-parameter execution error.
    let err =
        session.execute("-- needs a binding\nSELECT id FROM items WHERE price > $1").unwrap_err();
    assert!(matches!(err, ServiceError::Unsupported(_)), "got {err:?}");
}

/// `EXPLAIN` and `EXPLAIN ANALYZE` are recognised from tokens as well: a comment before
/// `EXPLAIN`, between `EXPLAIN` and `ANALYZE`, or before the explained query changes nothing.
#[test]
fn comments_around_explain_keywords_change_nothing() {
    let engine = shop_engine();
    let session = engine.session();
    let last_line = |sql: &str| {
        let plan = session.execute(sql).unwrap_or_else(|e| panic!("{sql:?}: {e}"));
        assert_eq!(&*plan.schema().attributes()[0].name, "QUERY PLAN", "{sql:?}");
        plan.iter().last().map(|t| t.values()[0].clone()).unwrap()
    };
    let query = "SELECT id FROM items WHERE price > 20";
    for sql in [
        format!("-- note\nEXPLAIN {query}"),
        format!("EXPLAIN -- note\n{query}"),
        format!("-- note\nEXPLAIN ANALYZE {query}"),
        format!("EXPLAIN -- note\nANALYZE {query}"),
        format!("EXPLAIN ANALYZE -- note\n{query}"),
    ] {
        let last = last_line(&sql);
        let analyzed = sql.contains("ANALYZE");
        assert_eq!(last == Value::text("Total rows: 2"), analyzed, "{sql:?} ends with {last:?}");
    }
}

#[test]
fn sessions_have_independent_settings() {
    let engine = shop_engine();
    let mut bounded = engine.session();
    bounded.set_row_budget(Some(3));
    let unbounded = engine.session();
    let sql = "SELECT PROVENANCE name, sum(price) AS total FROM shop, sales, items \
               WHERE name = sName AND itemId = id GROUP BY name";
    assert!(matches!(
        bounded.execute(sql).unwrap_err(),
        ServiceError::Exec(perm_exec::ExecError::RowBudgetExceeded { .. })
    ));
    assert_eq!(unbounded.execute(sql).unwrap().num_rows(), 5);
}

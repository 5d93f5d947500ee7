//! Engine differential over the shapes a filter takes, against the reference evaluator, at
//! degrees 1, 2 and 8. A filter batch is one index buffer over its source, so the operators
//! above a filter see views where they used to see copies: text and NULL-heavy columns,
//! DISTINCT, `INTERSECT ALL` / `EXCEPT ALL`, a `LIMIT`, a filter over a filter, a filter over
//! an outer join's pads, and the selective evaluation of `AND` / `OR` / `CASE` / `IN` over
//! filtered views. Every text runs as analyzed and as optimized, and must give one result at
//! every degree that equals the reference's as a bag. `SELECT … INTO` from a filter stores
//! plain columns, not views of its source.

use perm::prelude::*;
use perm_algebra::DEFAULT_CHUNK_SIZE;
use perm_exec::{execute_reference, Executor, WorkerPool};

/// `t` spans two full morsels and part of a third; `u` is smaller and overlaps `t` on `k`.
/// Text is multi-byte in places and NULL every third row of `t`; floats and dates are NULL on
/// other strides, so most rows hold a NULL somewhere.
fn database() -> PermDb {
    let db = PermDb::new();
    let texts = ["a", "ab", "żółw", "", "b", "🐢 tortoise"];
    let text = |i: usize| match i % 3 {
        0 => Value::Null,
        _ => Value::text(texts[i % texts.len()]),
    };
    let t_rows = (0..2 * DEFAULT_CHUNK_SIZE + 77)
        .map(|i| {
            let f = if i % 4 == 0 { Value::Null } else { Value::Float((i % 7) as f64 / 2.0) };
            let d = if i % 5 == 0 { Value::Null } else { Value::Date((i % 40) as i32 * 30) };
            let b = if i % 11 == 0 { Value::Null } else { Value::Bool(i.is_multiple_of(2)) };
            Tuple::new(vec![Value::Int((i % 500) as i64), text(i), f, d, b])
        })
        .collect();
    let t = Schema::from_pairs(&[
        ("k", DataType::Int),
        ("s", DataType::Text),
        ("f", DataType::Float),
        ("d", DataType::Date),
        ("b", DataType::Bool),
    ]);
    db.register_table("t", Relation::from_parts(t, t_rows)).unwrap();
    let u_rows = (0..300).map(|i| Tuple::new(vec![Value::Int(i * 3), text(i as usize + 1)]));
    let u = Schema::from_pairs(&[("k", DataType::Int), ("s", DataType::Text)]);
    db.register_table("u", Relation::from_parts(u, u_rows.collect())).unwrap();
    db
}

/// The filter shapes, one SQL text each.
const TEXTS: [&str; 14] = [
    // Text and NULL-heavy columns.
    "SELECT * FROM t WHERE s LIKE 'a%'",
    "SELECT k, s, d FROM t WHERE s IS NULL AND f IS NOT NULL",
    "SELECT s, f FROM t WHERE s <> '' AND d IS NULL",
    // Filter → DISTINCT, filter → INTERSECT ALL / EXCEPT ALL.
    "SELECT DISTINCT s, b FROM t WHERE k % 3 = 0",
    "SELECT s FROM t WHERE k < 200 INTERSECT ALL SELECT s FROM u WHERE k > 30",
    "SELECT k, s FROM t WHERE f > 1.0 EXCEPT ALL SELECT k, s FROM u WHERE s IS NOT NULL",
    // A LIMIT over a filter; a filter over a filter.
    "SELECT k, s FROM t WHERE k > 100 AND s IS NOT NULL LIMIT 7",
    "SELECT * FROM (SELECT * FROM t WHERE k > 100) AS x WHERE x.s IS NOT NULL AND x.b",
    "SELECT * FROM (SELECT k, s FROM t WHERE f IS NULL) AS x WHERE x.k % 3 = 1 LIMIT 40",
    // A filter over an outer join's pads.
    "SELECT t.k, t.s, u.s FROM t LEFT JOIN u ON t.k = u.k WHERE u.s IS NULL OR t.k % 5 = 0",
    "SELECT t.k, u.k, u.s FROM u RIGHT JOIN t ON u.k = t.k WHERE t.s IS NOT NULL AND u.k IS NULL",
    // AND / OR / CASE / IN evaluated selectively over filtered views; a shielded division.
    "SELECT k, CASE WHEN s IS NULL THEN 'none' WHEN s = 'a' THEN 'A' ELSE s END AS c, \
     CASE WHEN k = 0 THEN 0 ELSE 1000 / k END AS q \
     FROM t WHERE (f > 1.0 OR s IN ('a', 'żółw')) AND (d IS NULL OR k IN (1, 2, k + 0))",
    "SELECT k, CASE s WHEN 'ab' THEN f WHEN 'b' THEN f * 2 END AS g FROM t \
     WHERE b AND k IN (SELECT k FROM u WHERE s IS NOT NULL)",
    "SELECT k FROM t WHERE k <> 0 AND 1000 / k > 5 AND (s = 'b' OR 1000 / k < 100)",
];

#[test]
fn filters_agree_with_reference_at_every_degree() {
    let db = database();
    let pools = [1, 2, 8].map(WorkerPool::new);
    let executor = Executor::new(db.catalog().clone());
    let mut nonempty = 0;
    for sql in TEXTS {
        for (form, plan) in
            [("analyzed", db.analyze_sql_plan(sql)), ("optimized", db.plan_sql(sql))]
        {
            let plan = plan.unwrap_or_else(|e| panic!("{sql}: {e}"));
            let reference = execute_reference(db.catalog(), &plan).unwrap();
            let mut first: Option<Relation> = None;
            for pool in &pools {
                let result = executor.execute_parallel(&plan, pool).unwrap();
                let workers = pool.workers();
                assert!(
                    result.bag_eq(&reference),
                    "{form} plan at {workers} workers != reference: {sql}\n{plan}"
                );
                match &first {
                    Some(first) => assert_eq!(
                        first.tuples(),
                        result.tuples(),
                        "{form} plan differs at {workers} workers: {sql}"
                    ),
                    None => first = Some(result),
                }
            }
            nonempty += usize::from(reference.num_rows() > 0);
        }
    }
    assert_eq!(nonempty, 2 * TEXTS.len(), "every text selects something");
}

/// A table stored from a filter holds its own rows: plain columns, not views that would pin
/// the whole source column.
#[test]
fn select_into_from_a_filter_stores_plain_columns() {
    let db = database();
    let sql = "SELECT k, s, f INTO kept FROM t WHERE s IS NOT NULL AND k % 2 = 0";
    let result = db.execute_sql(sql).unwrap();
    assert!(result.num_rows() > 0);
    let stored = db.catalog().table("kept").unwrap();
    assert!(stored.bag_eq(&result));
    for chunk in stored.chunks().iter() {
        assert!(chunk.columns().iter().all(|c| !c.is_encoded()), "a stored column is a view");
    }
    let read_back = db.execute_sql("SELECT k, s, f FROM kept").unwrap();
    let plan = db.plan_sql("SELECT k, s, f FROM t WHERE s IS NOT NULL AND k % 2 = 0").unwrap();
    assert!(read_back.bag_eq(&execute_reference(db.catalog(), &plan).unwrap()));
}

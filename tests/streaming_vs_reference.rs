//! Differential property tests: the engine — `Executor::execute` (degree 1) and
//! `Executor::execute_parallel` on pools of 1, 2 and 8 workers — must return bit-identical
//! relations (and identical errors) at every degree, and agree as bags with the naive
//! pulled **reference** evaluator, on arbitrary plans: plain and provenance-rewritten,
//! optimized and unoptimized.
//!
//! Random plans cover the operator space the provenance rewriter emits: selections,
//! column-shuffling projections, DISTINCT, inner/outer/cross joins, bag/set set-operations and
//! grouped aggregation, nested to depth 3. Deterministic tests cover the chunk-boundary /
//! morsel-boundary edge cases (empty input, one row, exactly one full chunk, one row past a
//! chunk boundary), uncorrelated sublinks, row budgets at and around an operator's output,
//! integer-overflow error behaviour (including behind a `LIMIT`), NaN sort keys, cross-type
//! (Int/Date) hash-key consistency, keys hashed and compared in place (text, mixed numeric,
//! NULL-safe and multi-column join and group-by keys), set operations over the keys the random
//! plans never hold (text, NULL, NaN, Int against Float, a join's views), the lazily evaluated
//! expression forms (`CASE`, `IN` over a list), join conditions decided in batches of
//! candidate pairs, and `ORDER BY`s the optimizer moves below a join (in the order a sort
//! above the join gives). A random family puts one poisoned row under a `LIMIT`: a query
//! fails exactly when the oracle, pulling, meets it.

use proptest::prelude::*;

use perm::prelude::*;
use perm_algebra::{
    AggregateExpr, AggregateFunction, BinaryOperator, JoinKind, LogicalPlan, ScalarExpr, Schema,
    SetOpKind, SetSemantics,
};
use perm_exec::{execute_reference, ExecError, ExecOptions, Executor, Optimizer, WorkerPool};

/// One shared worker pool per tested degree.
fn pools() -> &'static [WorkerPool] {
    static POOLS: std::sync::OnceLock<Vec<WorkerPool>> = std::sync::OnceLock::new();
    POOLS.get_or_init(|| [1, 2, 8].map(WorkerPool::new).into())
}

/// Run `plan` at every degree and require one outcome: the same rows in the same order, or
/// the same error. Returns that outcome.
fn run_at_every_degree(
    catalog: &Catalog,
    plan: &LogicalPlan,
    options: ExecOptions,
) -> Result<Relation, ExecError> {
    run_executor_at_every_degree(&Executor::with_options(catalog.clone(), options), plan)
}

/// [`run_at_every_degree`] on a configured executor (options, bound parameters).
fn run_executor_at_every_degree(
    executor: &Executor,
    plan: &LogicalPlan,
) -> Result<Relation, ExecError> {
    let sequential = executor.execute(plan);
    for pool in pools() {
        let workers = pool.workers();
        match (&sequential, executor.execute_parallel(plan, pool)) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.tuples(), b.tuples(), "degree {workers} != degree 1 on\n{plan}")
            }
            (Err(a), Err(b)) => assert_eq!(a, &b, "error at degree {workers} on\n{plan}"),
            (a, b) => panic!("degree 1 gave {a:?}, degree {workers} gave {b:?} on\n{plan}"),
        }
    }
    sequential
}

/// The engine's one outcome for `plan` must be the oracle's, as a bag.
fn assert_matches_reference(catalog: &Catalog, plan: &LogicalPlan, context: &str) {
    let engine = run_at_every_degree(catalog, plan, ExecOptions::default()).unwrap();
    let reference = execute_reference(catalog, plan).unwrap();
    assert!(engine.bag_eq(&reference), "engine != reference on {context}\n{plan}");
}

/// A recipe for a random plan over two union-compatible tables `r` and `s` (both `(k, v)`
/// integer relations). Every node produces a two-column output so specs compose freely.
#[derive(Debug, Clone)]
enum Spec {
    Scan {
        use_s: bool,
    },
    Filter {
        input: Box<Spec>,
        below: i64,
    },
    /// Swap the two columns (checks column remapping through pruning).
    Swap {
        input: Box<Spec>,
    },
    Distinct {
        input: Box<Spec>,
    },
    /// Join on `left.k = right.k`, then project back to `(left.k, right.v)`.
    Join {
        left: Box<Spec>,
        right: Box<Spec>,
        kind: u8,
    },
    SetOp {
        left: Box<Spec>,
        right: Box<Spec>,
        kind: u8,
        bag: bool,
    },
    /// `SELECT k, sum(v) GROUP BY k`.
    Aggregate {
        input: Box<Spec>,
    },
}

/// Decode a bounded-depth spec from a random byte genome (the vendored proptest shim has no
/// `prop_recursive`; shrinking the genome shrinks the plan).
fn decode(genome: &mut std::slice::Iter<'_, u8>, depth: usize) -> Spec {
    let byte = |g: &mut std::slice::Iter<'_, u8>| g.next().copied().unwrap_or(0);
    let b = byte(genome);
    if depth == 0 {
        return Spec::Scan { use_s: b & 1 == 1 };
    }
    match b % 8 {
        0 | 1 => Spec::Scan { use_s: b & 16 == 16 },
        2 => Spec::Filter {
            input: Box::new(decode(genome, depth - 1)),
            below: i64::from(byte(genome) % 6),
        },
        3 => Spec::Swap { input: Box::new(decode(genome, depth - 1)) },
        4 => Spec::Distinct { input: Box::new(decode(genome, depth - 1)) },
        5 => Spec::Join {
            left: Box::new(decode(genome, depth - 1)),
            right: Box::new(decode(genome, depth - 1)),
            kind: byte(genome) % 5,
        },
        6 => Spec::SetOp {
            left: Box::new(decode(genome, depth - 1)),
            right: Box::new(decode(genome, depth - 1)),
            kind: byte(genome) % 3,
            bag: b & 16 == 16,
        },
        _ => Spec::Aggregate { input: Box::new(decode(genome, depth - 1)) },
    }
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    proptest::collection::vec(0u8..=255, 1..32).prop_map(|genome| decode(&mut genome.iter(), 3))
}

fn build(spec: &Spec, catalog: &Catalog, next_ref: &mut usize) -> perm_algebra::PlanBuilder {
    match spec {
        Spec::Scan { use_s } => {
            let name = if *use_s { "s" } else { "r" };
            let ref_id = *next_ref;
            *next_ref += 1;
            perm_algebra::PlanBuilder::scan(name, catalog.table_schema(name).unwrap(), ref_id)
        }
        Spec::Filter { input, below } => {
            let b = build(input, catalog, next_ref);
            b.filter(ScalarExpr::binary(
                BinaryOperator::Lt,
                ScalarExpr::column(0, "k"),
                ScalarExpr::literal(*below),
            ))
        }
        Spec::Swap { input } => {
            let b = build(input, catalog, next_ref);
            b.project(vec![
                (ScalarExpr::column(1, "v"), "k".into()),
                (ScalarExpr::column(0, "k"), "v".into()),
            ])
        }
        Spec::Distinct { input } => {
            let b = build(input, catalog, next_ref);
            b.project_distinct(vec![
                (ScalarExpr::column(0, "k"), "k".into()),
                (ScalarExpr::column(1, "v"), "v".into()),
            ])
        }
        Spec::Join { left, right, kind } => {
            let l = build(left, catalog, next_ref);
            let r = build(right, catalog, next_ref);
            let kind = match kind {
                0 => JoinKind::Inner,
                1 => JoinKind::LeftOuter,
                2 => JoinKind::RightOuter,
                3 => JoinKind::FullOuter,
                _ => JoinKind::Cross,
            };
            let condition = (kind != JoinKind::Cross)
                .then(|| ScalarExpr::column(0, "k").eq(ScalarExpr::column(2, "k")));
            l.join(r, kind, condition).project(vec![
                (ScalarExpr::column(0, "k"), "k".into()),
                (ScalarExpr::column(3, "v"), "v".into()),
            ])
        }
        Spec::SetOp { left, right, kind, bag } => {
            let l = build(left, catalog, next_ref);
            let r = build(right, catalog, next_ref);
            let kind = match kind {
                0 => SetOpKind::Union,
                1 => SetOpKind::Intersect,
                _ => SetOpKind::Difference,
            };
            let semantics = if *bag { SetSemantics::Bag } else { SetSemantics::Set };
            l.set_op(r, kind, semantics)
        }
        Spec::Aggregate { input } => {
            let b = build(input, catalog, next_ref);
            b.aggregate(
                vec![(ScalarExpr::column(0, "k"), "k".into())],
                vec![(
                    AggregateExpr::new(AggregateFunction::Sum, ScalarExpr::column(1, "v")),
                    "v".into(),
                )],
            )
        }
    }
}

fn catalog_with(r: &[(i64, i64)], s: &[(i64, i64)]) -> Catalog {
    let catalog = Catalog::new();
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
    for (name, rows) in [("r", r), ("s", s)] {
        let tuples =
            rows.iter().map(|(k, v)| Tuple::new(vec![Value::Int(*k), Value::Int(*v)])).collect();
        catalog.create_table_with_data(name, Relation::from_parts(schema.clone(), tuples)).unwrap();
    }
    catalog
}

fn rows_strategy() -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((0i64..5, 0i64..4), 0..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Engine and reference agree on arbitrary plans, with and without the optimizer
    /// (predicate pushdown, projection merging and column pruning included).
    #[test]
    fn engine_equals_reference(
        spec in spec_strategy(),
        r in rows_strategy(),
        s in rows_strategy(),
    ) {
        let catalog = catalog_with(&r, &s);
        let mut next_ref = 0;
        let plan = build(&spec, &catalog, &mut next_ref).build();
        plan.verify().unwrap();
        plan.verify().unwrap();
        assert_matches_reference(&catalog, &plan, "raw plan");

        let optimized = Optimizer::new().optimize(&plan).unwrap();
        optimized.verify().unwrap();
        optimized.verify().unwrap();
        let reference = execute_reference(&catalog, &plan).unwrap();
        let engine = run_at_every_degree(&catalog, &optimized, ExecOptions::default()).unwrap();
        prop_assert!(
            engine.bag_eq(&reference),
            "optimized engine != reference\nraw:\n{plan}\noptimized:\n{optimized}"
        );
    }

    /// The same differential check on *provenance-rewritten* plans: rules R1–R9 produce wide
    /// joins and duplicated sub-plans, exactly the shapes the join gathers and the
    /// column-pruning pass must not corrupt.
    #[test]
    fn engine_equals_reference_on_rewritten_plans(
        spec in spec_strategy(),
        r in rows_strategy(),
        s in rows_strategy(),
    ) {
        let catalog = catalog_with(&r, &s);
        let mut next_ref = 0;
        let plan = build(&spec, &catalog, &mut next_ref).build();
        let rewritten = ProvenanceRewriter::new().rewrite(&plan).unwrap();
        rewritten.verify().unwrap();
        rewritten.verify().unwrap();
        assert_matches_reference(&catalog, &rewritten, "rewritten plan");

        let optimized = Optimizer::new().optimize(&rewritten).unwrap();
        optimized.verify().unwrap();
        optimized.verify().unwrap();
        let reference = execute_reference(&catalog, &rewritten).unwrap();
        let engine = run_at_every_degree(&catalog, &optimized, ExecOptions::default()).unwrap();
        prop_assert!(
            engine.bag_eq(&reference),
            "optimized engine != reference on rewritten plan\n{rewritten}"
        );
    }

    /// A LIMIT must agree with the reference (whose sort materializes its input) on
    /// deterministically ordered inputs.
    #[test]
    fn limit_agrees_with_reference_after_sort(
        r in rows_strategy(),
        limit in 0usize..10,
        offset in 0usize..4,
    ) {
        let catalog = catalog_with(&r, &[]);
        let scan = perm_algebra::PlanBuilder::scan("r", catalog.table_schema("r").unwrap(), 0);
        let plan = scan
            .sort(vec![
                perm_algebra::SortKey::asc(ScalarExpr::column(0, "k")),
                perm_algebra::SortKey::asc(ScalarExpr::column(1, "v")),
            ])
            .limit(Some(limit), offset)
            .build();
        let reference = execute_reference(&catalog, &plan).unwrap();
        let engine = run_at_every_degree(&catalog, &plan, ExecOptions::default()).unwrap();
        prop_assert_eq!(engine.tuples(), reference.tuples());
    }
}

/// Chunk/morsel-boundary edge cases: relations of exactly 0, 1, `DEFAULT_CHUNK_SIZE - 1`,
/// `DEFAULT_CHUNK_SIZE` and `DEFAULT_CHUNK_SIZE + 1` rows flowing through scans, filters,
/// projections, joins, DISTINCT, aggregation and provenance rewriting. Every count is chosen
/// so correctness depends on the operators handling empty batches, single-row morsels and
/// batch-boundary splits exactly — at every degree (a 1-worker pool runs the morsel machinery
/// on the calling thread; 8 workers race morsel claims).
#[test]
fn chunk_boundary_row_counts_agree_at_every_degree() {
    use perm_algebra::{PlanBuilder, DEFAULT_CHUNK_SIZE};

    for rows in [0usize, 1, DEFAULT_CHUNK_SIZE - 1, DEFAULT_CHUNK_SIZE, DEFAULT_CHUNK_SIZE + 1] {
        let r: Vec<(i64, i64)> = (0..rows as i64).map(|i| (i % 7, i % 3)).collect();
        let s: Vec<(i64, i64)> = (0..(rows / 2) as i64).map(|i| (i % 7, i % 5)).collect();
        let catalog = catalog_with(&r, &s);
        let scan = |name: &str, ref_id: usize| {
            PlanBuilder::scan(name, catalog.table_schema(name).unwrap(), ref_id)
        };

        // Plain scan.
        let plan = scan("r", 0).build();
        assert_matches_reference(&catalog, &plan, &format!("scan of {rows} rows"));

        // Filter that keeps roughly 1/7 of the rows (and nothing of an empty relation).
        let filtered =
            scan("r", 0).filter(ScalarExpr::column(0, "k").eq(ScalarExpr::literal(1i64))).build();
        assert_matches_reference(&catalog, &filtered, &format!("filtered scan of {rows} rows"));

        // Computed projection with DISTINCT.
        let projected = scan("r", 0)
            .project_distinct(vec![(
                ScalarExpr::binary(
                    BinaryOperator::Add,
                    ScalarExpr::column(0, "k"),
                    ScalarExpr::column(1, "v"),
                ),
                "kv".into(),
            )])
            .build();
        assert_matches_reference(
            &catalog,
            &projected,
            &format!("distinct projection of {rows} rows"),
        );

        // Hash join whose probe side spans a chunk boundary.
        let joined = scan("r", 0)
            .join(
                scan("s", 1),
                JoinKind::Inner,
                Some(ScalarExpr::column(0, "k").eq(ScalarExpr::column(2, "k"))),
            )
            .build();
        assert_matches_reference(&catalog, &joined, &format!("hash join of {rows} rows"));

        // Left outer join: NULL padding interleaves with matches inside batches.
        let outer = scan("r", 0)
            .join(
                scan("s", 1),
                JoinKind::LeftOuter,
                Some(ScalarExpr::column(1, "v").eq(ScalarExpr::column(3, "v"))),
            )
            .build();
        assert_matches_reference(&catalog, &outer, &format!("left outer join of {rows} rows"));

        // Aggregation with group keys.
        let aggregated = scan("r", 0)
            .aggregate(
                vec![(ScalarExpr::column(0, "k"), "k".into())],
                vec![(
                    AggregateExpr::new(AggregateFunction::Sum, ScalarExpr::column(1, "v")),
                    "sum_v".into(),
                )],
            )
            .build();
        assert_matches_reference(&catalog, &aggregated, &format!("aggregation of {rows} rows"));

        // Bag difference (set-operation path).
        let diff =
            scan("r", 0).set_op(scan("s", 1), SetOpKind::Difference, SetSemantics::Bag).build();
        assert_matches_reference(&catalog, &diff, &format!("bag difference of {rows} rows"));

        // A provenance-rewritten join (the paper's wide self-join shapes) at the boundary.
        let rewritten = ProvenanceRewriter::new().rewrite(&joined).unwrap();
        assert_matches_reference(&catalog, &rewritten, &format!("rewritten join of {rows} rows"));

        // Limit slicing exactly at and one past the chunk boundary (a scan keeps stored
        // order, so the reference's rows are the expected sequence).
        for limit in [DEFAULT_CHUNK_SIZE, DEFAULT_CHUNK_SIZE + 1] {
            let limited = scan("r", 0).limit(Some(limit), 1).build();
            let engine = run_at_every_degree(&catalog, &limited, ExecOptions::default()).unwrap();
            let reference = execute_reference(&catalog, &limited).unwrap();
            assert_eq!(engine.tuples(), reference.tuples(), "limit {limit} over {rows} rows");
        }
    }
}

/// Join output is views — index buffers over the probe and build columns, one per source buffer
/// a side carries — and
/// everything above a join re-addresses those views instead of copying rows. The cases here are
/// the ones where that could go wrong: outer-join pads (which address a NULL slot behind the
/// build rows) in hash and nested-loop joins, alone and underneath a second outer join whose
/// inputs are already views; `ORDER BY` over batches whose dictionaries differ (one per probe
/// chunk) with heavily tied keys, which must stay in input order; and `LIMIT` slicing a view.
/// The engine must produce the reference's rows *in the reference's order* at every degree.
#[test]
fn views_survive_outer_joins_sorts_and_limits() {
    use perm_algebra::{PlanBuilder, SortKey};

    let catalog = Catalog::new();
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("t", DataType::Text)]);
    let table = |rows: i64, modulus: i64, shift: i64| -> Vec<Tuple> {
        (0..rows)
            .map(|i| {
                let k = if i % 97 == 0 { Value::Null } else { Value::Int(i % modulus + shift) };
                let t = if i % 11 == 0 { Value::Null } else { Value::text(format!("t{}", i % 13)) };
                Tuple::new(vec![k, t])
            })
            .collect()
    };
    // `a` spans two chunks; keys 0..15 of `a` and 70..75 of `b` find no partner.
    for (name, rows) in
        [("a", table(1300, 70, 0)), ("b", table(300, 60, 15)), ("c", table(40, 40, 0))]
    {
        catalog.create_table_with_data(name, Relation::from_parts(schema.clone(), rows)).unwrap();
    }
    let scan = |name: &str, ref_id: usize| {
        PlanBuilder::scan(name, catalog.table_schema(name).unwrap(), ref_id)
    };
    let col = |index: usize| ScalarExpr::column(index, "c");
    let assert_same_sequence = |plan: &LogicalPlan, context: &str| {
        let engine = run_at_every_degree(&catalog, plan, ExecOptions::default()).unwrap();
        let reference = execute_reference(&catalog, plan).unwrap();
        assert!(engine.num_rows() > perm_algebra::DEFAULT_CHUNK_SIZE, "{context} spans batches");
        assert!(engine.tuples() == reference.tuples(), "engine != reference on {context}\n{plan}");
    };

    for kind in [JoinKind::LeftOuter, JoinKind::RightOuter, JoinKind::FullOuter] {
        // Hash join, ~6 500 matches plus pads on whichever side the kind preserves.
        let hash = || scan("a", 0).join(scan("b", 1), kind, Some(col(0).eq(col(2))));
        // Nested loop with a filter: `a.k > c.k + 50` pads three `a` rows in four.
        let looped = || {
            let bound = ScalarExpr::binary(BinaryOperator::Add, col(2), ScalarExpr::literal(50i64));
            let condition = ScalarExpr::binary(BinaryOperator::Gt, col(0), bound);
            scan("a", 0).join(scan("c", 1), kind, Some(condition))
        };
        // A second outer join over the first: its probe side is views with pads in them.
        let stacked = || hash().join(scan("c", 2), kind, Some(col(2).eq(col(4))));
        // ... and one whose *build* side is the first: views, pads and the NULL slot together.
        let nested = || scan("c", 2).join(hash(), kind, Some(col(0).eq(col(2))));
        for (shape, join) in
            [("hash", hash()), ("loop", looped()), ("stacked", stacked()), ("nested", nested())]
        {
            assert_same_sequence(&join.build(), &format!("{kind:?} {shape} join"));
        }
        // Ties on (b.t, a.t): thirteen values and NULL over thousands of rows.
        let sorted = || stacked().sort(vec![SortKey::desc(col(3)), SortKey::asc(col(1))]);
        assert_same_sequence(&sorted().build(), &format!("sort over {kind:?} joins"));
        assert_same_sequence(
            &sorted().limit(Some(1500), 1000).build(),
            &format!("limit over sort over {kind:?} joins"),
        );
        assert_same_sequence(
            &hash().limit(Some(1100), 1030).build(),
            &format!("limit over a {kind:?} join"),
        );
    }
}

/// Integer overflow raises the identical `ExecError::ArithmeticOverflow` at every degree and
/// in the reference (never a silent wrap, never a degree-dependent value).
#[test]
fn overflow_error_identical_at_every_degree() {
    use perm_algebra::{BinaryOperator as Op, PlanBuilder};

    let catalog = Catalog::new();
    let schema = Schema::from_pairs(&[("x", DataType::Int)]);
    // The poisoned row sits past the first chunk boundary so the error has to surface from a
    // later morsel.
    let rows: Vec<Tuple> = (0..1500i64)
        .map(|i| Tuple::new(vec![Value::Int(if i == 1300 { i64::MAX } else { i })]))
        .collect();
    catalog.create_table_with_data("t", Relation::from_parts(schema, rows)).unwrap();

    for (op, operation) in
        [(Op::Add, "addition"), (Op::Sub, "subtraction"), (Op::Mul, "multiplication")]
    {
        let scan = PlanBuilder::scan("t", catalog.table_schema("t").unwrap(), 0);
        let expr = ScalarExpr::binary(
            op,
            ScalarExpr::column(0, "x"),
            ScalarExpr::literal(if op == Op::Sub { i64::MIN + 1 } else { 2i64 }),
        );
        let plan = scan.project(vec![(expr, "y".into())]).build();
        let expected = ExecError::ArithmeticOverflow { operation: operation.into() };
        let engine = run_at_every_degree(&catalog, &plan, ExecOptions::default());
        assert_eq!(engine.unwrap_err(), expected, "engine {operation}");
        assert_eq!(execute_reference(&catalog, &plan).unwrap_err(), expected, "{operation}");
    }
}

/// `LIMIT` semantics for runtime errors: everything below a materializing operator is
/// evaluated in full, so a row that overflows beneath a sort fails the query even though
/// `LIMIT 1` would have discarded it — at every degree, and in the reference.
#[test]
fn limit_does_not_hide_errors_below_a_sort() {
    use perm_algebra::{PlanBuilder, SortKey};

    let catalog = Catalog::new();
    let schema = Schema::from_pairs(&[("x", DataType::Int)]);
    let rows: Vec<Tuple> = (0..3000i64)
        .map(|i| Tuple::new(vec![Value::Int(if i == 2900 { i64::MAX } else { i })]))
        .collect();
    catalog.create_table_with_data("t", Relation::from_parts(schema, rows)).unwrap();
    let plan = PlanBuilder::scan("t", catalog.table_schema("t").unwrap(), 0)
        .project(vec![(
            ScalarExpr::binary(
                BinaryOperator::Add,
                ScalarExpr::column(0, "x"),
                ScalarExpr::literal(1i64),
            ),
            "y".into(),
        )])
        .sort(vec![SortKey::asc(ScalarExpr::column(0, "y"))])
        .limit(Some(1), 0)
        .build();
    let expected = ExecError::ArithmeticOverflow { operation: "addition".into() };
    let engine = run_at_every_degree(&catalog, &plan, ExecOptions::default());
    assert_eq!(engine.unwrap_err(), expected);
    assert_eq!(execute_reference(&catalog, &plan).unwrap_err(), expected);
}

/// NaN sort keys: ORDER BY places NaN last, deterministically, at every degree — while a
/// comparison *predicate* against NaN stays NULL-like false everywhere.
#[test]
fn nan_sort_keys_and_predicates_agree_at_every_degree() {
    use perm_algebra::{PlanBuilder, SortKey};

    let catalog = Catalog::new();
    let schema = Schema::from_pairs(&[("f", DataType::Float), ("tag", DataType::Int)]);
    let rows = vec![
        Tuple::new(vec![Value::Float(2.5), Value::Int(0)]),
        Tuple::new(vec![Value::Float(f64::NAN), Value::Int(1)]),
        Tuple::new(vec![Value::Float(-1.0), Value::Int(2)]),
        Tuple::new(vec![Value::Float(f64::NAN), Value::Int(3)]),
        Tuple::new(vec![Value::Null, Value::Int(4)]),
        Tuple::new(vec![Value::Float(0.0), Value::Int(5)]),
    ];
    catalog.create_table_with_data("t", Relation::from_parts(schema, rows)).unwrap();
    let scan = || PlanBuilder::scan("t", catalog.table_schema("t").unwrap(), 0);

    // Sort ascending by f, tie-broken by tag so the expected sequence is unique: NULL first,
    // then -1.0, 0.0, 2.5, then both NaNs (in tag order).
    let plan = scan()
        .sort(vec![
            SortKey::asc(ScalarExpr::column(0, "f")),
            SortKey::asc(ScalarExpr::column(1, "tag")),
        ])
        .project(vec![(ScalarExpr::column(1, "tag"), "tag".into())])
        .build();
    let expected: Vec<i64> = vec![4, 2, 5, 0, 1, 3];
    let result = run_at_every_degree(&catalog, &plan, ExecOptions::default()).unwrap();
    let tags: Vec<i64> = result
        .iter()
        .map(|t| match &t[0] {
            Value::Int(i) => *i,
            other => panic!("unexpected tag {other:?}"),
        })
        .collect();
    assert_eq!(tags, expected, "NaN sort order");

    // Predicates on NaN evaluate to NULL-like false: `f < NaN` and `f = NaN` keep no rows.
    for op in [perm_algebra::BinaryOperator::Lt, perm_algebra::BinaryOperator::Eq] {
        let plan = scan()
            .filter(ScalarExpr::binary(
                op,
                ScalarExpr::column(0, "f"),
                ScalarExpr::literal(f64::NAN),
            ))
            .build();
        assert_matches_reference(&catalog, &plan, "NaN comparison predicate");
        assert_eq!(
            Executor::new(catalog.clone()).execute(&plan).unwrap().num_rows(),
            0,
            "NaN predicates keep no rows"
        );
    }
}

/// Cross-type hash-key consistency: an Int column equi-joined against a Date column matches
/// numerically (a date is its day count, per `sql_cmp`), identically through the engine's hash
/// join and the nested-loop reference — and NaN float keys never match under plain `=`
/// but do match themselves under null-safe equality.
#[test]
fn cross_type_hash_keys_agree_with_nested_loop_semantics() {
    use perm_algebra::PlanBuilder;

    let catalog = Catalog::new();
    let ints = Schema::from_pairs(&[("i", DataType::Int)]);
    let dates = Schema::from_pairs(&[("d", DataType::Date)]);
    catalog
        .create_table_with_data(
            "ints",
            Relation::from_parts(
                ints,
                vec![
                    Tuple::new(vec![Value::Int(5)]),
                    Tuple::new(vec![Value::Int(9)]),
                    Tuple::new(vec![Value::Null]),
                ],
            ),
        )
        .unwrap();
    catalog
        .create_table_with_data(
            "dates",
            Relation::from_parts(
                dates,
                vec![
                    Tuple::new(vec![Value::Date(5)]),
                    Tuple::new(vec![Value::Date(7)]),
                    Tuple::new(vec![Value::Null]),
                ],
            ),
        )
        .unwrap();
    let cond = ScalarExpr::column(0, "i").eq(ScalarExpr::column(1, "d"));
    let plan = PlanBuilder::scan("ints", catalog.table_schema("ints").unwrap(), 0)
        .join(
            PlanBuilder::scan("dates", catalog.table_schema("dates").unwrap(), 1),
            JoinKind::Inner,
            Some(cond),
        )
        .build();
    assert_matches_reference(&catalog, &plan, "Int = Date equi-join");
    // The hash join must find exactly the numeric match (5 = day 5), like the nested loop.
    assert_eq!(Executor::new(catalog.clone()).execute(&plan).unwrap().num_rows(), 1);

    // NaN keys: no match under `=`, self-match under IS NOT DISTINCT FROM — in the engine as in
    // the reference (hash tables would otherwise match NaN to NaN via grouping equality).
    let floats = Schema::from_pairs(&[("f", DataType::Float)]);
    let rows = vec![Tuple::new(vec![Value::Float(f64::NAN)]), Tuple::new(vec![Value::Float(1.0)])];
    catalog
        .create_table_with_data("fa", Relation::from_parts(floats.clone(), rows.clone()))
        .unwrap();
    catalog.create_table_with_data("fb", Relation::from_parts(floats, rows)).unwrap();
    for (null_safe, expected_rows) in [(false, 1usize), (true, 2)] {
        let a = PlanBuilder::scan("fa", catalog.table_schema("fa").unwrap(), 0);
        let b = PlanBuilder::scan("fb", catalog.table_schema("fb").unwrap(), 1);
        let cond = if null_safe {
            ScalarExpr::column(0, "f").null_safe_eq(ScalarExpr::column(1, "f"))
        } else {
            ScalarExpr::column(0, "f").eq(ScalarExpr::column(1, "f"))
        };
        let plan = a.join(b, JoinKind::Inner, Some(cond)).build();
        assert_matches_reference(&catalog, &plan, "NaN equi-join key");
        assert_eq!(
            Executor::new(catalog.clone()).execute(&plan).unwrap().num_rows(),
            expected_rows,
            "null_safe={null_safe}"
        );
    }
}

/// Join and group-by keys are hashed and compared in their columns: text keys (empty strings,
/// multi-byte text, NULLs), mixed numeric keys (Int / Float / Date, NaN, both zeros), NULL-safe
/// keys — the R5 join-back's `IS NOT DISTINCT FROM` — and multi-column keys mixing the two,
/// over inputs and build sides that span morsels, over plain columns and over a join's views.
/// Every plan must give the same rows in the same order at degrees 1/2/8 and the reference's
/// bag; joins give the reference's exact (nested-loop) sequence and aggregations list their
/// groups in first-seen order.
#[test]
fn keys_hashed_in_place_agree_with_reference_at_every_degree() {
    use perm_algebra::PlanBuilder;

    const TEXTS: [&str; 7] = ["", "a", "ab", "é", "żółw", "🐢", "a longer key, well past a word"];
    let schema = Schema::from_pairs(&[
        ("t", DataType::Text),
        ("i", DataType::Int),
        ("f", DataType::Float),
        ("d", DataType::Date),
    ]);
    // Deterministic rows: ~50 distinct text keys, numerics that meet across types (5 = 5.0 =
    // day 5), NaN and both zeros among the floats, NULLs in every column.
    let table = |rows: u64, salt: u64| -> Vec<Tuple> {
        let mut state = salt;
        let mut draw = |modulus: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % modulus
        };
        (0..rows)
            .map(|_| {
                let t = match draw(12) {
                    0 => Value::Null,
                    _ => Value::text(format!("{}{}", TEXTS[draw(7) as usize], draw(7))),
                };
                let i = if draw(9) == 0 { Value::Null } else { Value::Int(draw(40) as i64) };
                let f = match draw(14) {
                    0 => Value::Null,
                    1 => Value::Float(f64::NAN),
                    2 => Value::Float(-0.0),
                    3 => Value::Float(draw(40) as f64 + 0.5),
                    _ => Value::Float(draw(40) as f64),
                };
                let d = if draw(10) == 0 { Value::Null } else { Value::Date(draw(40) as i32) };
                Tuple::new(vec![t, i, f, d])
            })
            .collect()
    };
    let catalog = Catalog::new();
    // `a` and `wide` span two morsels, `b` one (more build morsels than that would only make
    // the reference's nested loop slower: `wide` is the build side that is partitioned).
    for (name, rows) in [("a", table(1100, 1)), ("b", table(300, 2)), ("wide", table(1100, 3))] {
        catalog.create_table_with_data(name, Relation::from_parts(schema.clone(), rows)).unwrap();
    }
    let scan = |name: &str, ref_id: usize| {
        PlanBuilder::scan(name, catalog.table_schema(name).unwrap(), ref_id)
    };
    let col = |index: usize| ScalarExpr::column(index, "c");
    // One outcome at every degree, which as a bag is the reference's.
    let check = |plan: &LogicalPlan, context: &str| -> (Relation, Relation) {
        let engine = run_at_every_degree(&catalog, plan, ExecOptions::default()).unwrap();
        let reference = execute_reference(&catalog, plan).unwrap();
        assert!(engine.bag_eq(&reference), "engine != reference on {context}\n{plan}");
        (engine, reference)
    };

    // Joins: left columns 0..4, right columns 4..8.
    let (t, i, f, d) = (0, 1, 2, 3);
    let plain = |l: usize, r: usize| col(l).eq(col(4 + r));
    let safe = |l: usize, r: usize| col(l).null_safe_eq(col(4 + r));
    let conditions = [
        ("text", plain(t, t)),
        ("Int = Float", plain(i, f)),
        ("Int = Date", plain(i, d)),
        ("Float = Date", plain(f, d)),
        ("Float = Float", plain(f, f)),
        ("NULL-safe text", safe(t, t)),
        ("NULL-safe Float", safe(f, f)),
        ("NULL-safe (text, Int)", safe(t, t).and(safe(i, i))),
        ("text = and NULL-safe Int", plain(t, t).and(safe(i, i))),
        ("(Int, Float, text) all plain", plain(i, i).and(plain(f, f)).and(plain(t, t))),
    ];
    for (name, condition) in &conditions {
        for kind in [JoinKind::Inner, JoinKind::FullOuter] {
            let plan = scan("a", 0).join(scan("b", 1), kind, Some(condition.clone())).build();
            let (engine, reference) = check(&plan, &format!("{kind:?} join on {name}"));
            assert!(engine.tuples() == reference.tuples(), "{kind:?} join on {name}: sequence");
            assert!(engine.num_rows() > 0, "{kind:?} join on {name} matches something");
        }
    }
    // A partitioned build side (two morsels, so two partitions at degrees 2 and 8).
    for kind in [JoinKind::LeftOuter, JoinKind::RightOuter] {
        let plan = scan("b", 0).join(scan("wide", 1), kind, Some(safe(t, t).and(plain(d, d))));
        let (engine, reference) = check(&plan.build(), &format!("{kind:?} join, wide build side"));
        assert!(engine.tuples() == reference.tuples(), "{kind:?} join, wide build side");
    }

    // Aggregations, over a scan's plain columns and over a join's views (the probe side's key
    // and the build side's, both `Dict` columns by then).
    let joined = || scan("a", 0).join(scan("b", 1), JoinKind::LeftOuter, Some(plain(i, i)));
    let inputs = [("scan", scan("wide", 0)), ("join", joined())];
    let key_sets: [(&str, Vec<usize>); 6] = [
        ("text", vec![t]),
        ("Float", vec![f]),
        ("(text, Int)", vec![t, i]),
        ("(Date, Float, text)", vec![d, f, t]),
        ("build-side text", vec![4 + t]),
        ("(probe text, build Float)", vec![t, 4 + f]),
    ];
    for (input_name, input) in &inputs {
        for (name, keys) in &key_sets {
            if keys.iter().any(|&k| k >= input.schema().arity()) {
                continue;
            }
            let group_by = keys.iter().map(|&k| (col(k), format!("k{k}").into())).collect();
            let aggregates = vec![
                (AggregateExpr::count_star(), "n".into()),
                (AggregateExpr::new(AggregateFunction::Sum, col(i)), "s".into()),
                (AggregateExpr::new(AggregateFunction::Min, col(t)), "m".into()),
            ];
            let plan = input.clone().aggregate(group_by, aggregates).build();
            let context = format!("GROUP BY {name} over a {input_name}");
            let (engine, _) = check(&plan, &context);
            // Groups come out in the order their keys first appear in the input.
            let rows = execute_reference(&catalog, &input.clone().build()).unwrap();
            let mut seen = std::collections::HashSet::new();
            let first_seen: Vec<Tuple> = rows
                .iter()
                .map(|row| row.project(keys))
                .filter(|k| seen.insert(k.clone()))
                .collect();
            let positions: Vec<usize> = (0..keys.len()).collect();
            let groups: Vec<Tuple> = engine.iter().map(|row| row.project(&positions)).collect();
            assert!(groups == first_seen, "{context}: first-seen group order");
            assert!(groups.len() > 10, "{context} has groups");
        }
        // DISTINCT is a key of every column.
        let exprs = vec![(col(t), "t".into()), (col(f), "f".into())];
        let (distinct, _) = check(
            &input.clone().project_distinct(exprs).build(),
            &format!("DISTINCT (text, Float) over a {input_name}"),
        );
        assert!(distinct.num_rows() > 10 && distinct.num_rows() == distinct.num_distinct_rows());
    }

    // The R5 join-back itself: the rewritten aggregation joins its groups back to the
    // rewritten input on `IS NOT DISTINCT FROM`, here over text and Float keys with NULLs.
    for keys in [vec![t], vec![t, f]] {
        let group_by = keys.iter().map(|&k| (col(k), format!("k{k}").into())).collect();
        let aggregates = vec![(AggregateExpr::count_star(), "n".into())];
        let plan = scan("b", 0).aggregate(group_by, aggregates).build();
        let rewritten = ProvenanceRewriter::new().rewrite(&plan).unwrap();
        let (engine, _) = check(&rewritten, &format!("R5 join-back on columns {keys:?}"));
        assert_eq!(engine.num_rows(), 300, "every input row witnesses exactly one group");
        let optimized = Optimizer::new().optimize(&rewritten).unwrap();
        check(&optimized, &format!("optimized R5 join-back on columns {keys:?}"));
    }
}

/// Set operations compare whole rows in their columns, as DISTINCT does, and must count
/// multiplicities as the reference does: `UNION` / `INTERSECT` / `EXCEPT`, bag and set, over
/// inputs of 0, 1 and 1023–1025 rows whose duplicates lie in different morsels, over text keys
/// with NULLs, Float keys with NULLs and NaNs, an Int input against a Float one (`1 = 1.0`), and
/// a join's output — dictionary views — on either side. One outcome at every degree, which as a
/// bag is the reference's.
#[test]
fn set_operations_agree_with_reference_at_every_degree() {
    use perm_algebra::{PlanBuilder, DEFAULT_CHUNK_SIZE};

    let kinds = [SetOpKind::Union, SetOpKind::Intersect, SetOpKind::Difference];
    let semantics = [SetSemantics::Bag, SetSemantics::Set];
    // `(t, f)` repeats with period 37 in `t`, so an input past one chunk holds duplicates in
    // both morsels; NULL text every 11th row, NULL and NaN floats every 13th.
    let rows = |n: usize, shift: usize| -> Vec<Tuple> {
        (shift..n + shift)
            .map(|j| {
                let t = if j % 11 == 0 { Value::Null } else { Value::text(format!("k{}", j % 37)) };
                let f = match j % 13 {
                    0 => Value::Null,
                    1 => Value::Float(f64::NAN),
                    m => Value::Float((m % 5) as f64),
                };
                Tuple::new(vec![t, f])
            })
            .collect()
    };
    let catalog = Catalog::new();
    let schema = Schema::from_pairs(&[("t", DataType::Text), ("f", DataType::Float)]);
    let sizes = [0, 1, DEFAULT_CHUNK_SIZE - 1, DEFAULT_CHUNK_SIZE, DEFAULT_CHUNK_SIZE + 1];
    for n in sizes {
        for (side, shift) in [("a", 0), ("b", 7)] {
            let table = Relation::from_parts(schema.clone(), rows(n, shift));
            catalog.create_table_with_data(&format!("{side}{n}"), table).unwrap();
        }
    }
    let numbers = |name: &str, data_type: DataType, values: Vec<Value>| {
        let schema = Schema::from_pairs(&[("x", data_type)]);
        let rows = values.into_iter().map(|v| Tuple::new(vec![v])).collect();
        catalog.create_table_with_data(name, Relation::from_parts(schema, rows)).unwrap();
    };
    numbers(
        "ints",
        DataType::Int,
        [1, 2, 1, 4].map(Value::Int).into_iter().chain([Value::Null]).collect(),
    );
    numbers(
        "floats",
        DataType::Float,
        vec![Value::Float(1.0), Value::Float(f64::NAN), Value::Null, Value::Float(2.5)],
    );
    let scan = |name: &str, ref_id: usize| {
        PlanBuilder::scan(name, catalog.table_schema(name).unwrap(), ref_id)
    };
    // A join's output projected back to `(t, f)`: both columns are views over its sources.
    let joined = || {
        let on_t = ScalarExpr::column(0, "t").eq(ScalarExpr::column(2, "t"));
        let (t, f) = (ScalarExpr::column(0, "t"), ScalarExpr::column(3, "f"));
        let a = format!("a{}", DEFAULT_CHUNK_SIZE + 1);
        scan(&a, 10)
            .join(scan("b1", 11), JoinKind::Inner, Some(on_t))
            .project(vec![(t, "t".into()), (f, "f".into())])
    };
    let b = format!("b{DEFAULT_CHUNK_SIZE}");
    let mut pairs: Vec<(String, PlanBuilder, PlanBuilder)> = [
        (0, DEFAULT_CHUNK_SIZE + 1),
        (1, 1),
        (DEFAULT_CHUNK_SIZE - 1, DEFAULT_CHUNK_SIZE),
        (DEFAULT_CHUNK_SIZE, DEFAULT_CHUNK_SIZE - 1),
        (DEFAULT_CHUNK_SIZE + 1, DEFAULT_CHUNK_SIZE + 1),
        (DEFAULT_CHUNK_SIZE + 1, 0),
    ]
    .into_iter()
    .map(|(l, r)| {
        (format!("a{l} against b{r}"), scan(&format!("a{l}"), 0), scan(&format!("b{r}"), 1))
    })
    .collect();
    pairs.push(("Int against Float".into(), scan("ints", 0), scan("floats", 1)));
    pairs.push(("Float against Int".into(), scan("floats", 0), scan("ints", 1)));
    pairs.push(("a join against a scan".into(), joined(), scan(&b, 1)));
    pairs.push(("a scan against a join".into(), scan(&b, 1), joined()));
    let mut nonempty = 0;
    for (inputs, left, right) in &pairs {
        for kind in kinds {
            for semantics in semantics {
                let plan = left.clone().set_op(right.clone(), kind, semantics).build();
                let context = format!("{kind:?} {semantics:?}, {inputs}");
                let engine = run_at_every_degree(&catalog, &plan, ExecOptions::default()).unwrap();
                let reference = execute_reference(&catalog, &plan).unwrap();
                assert!(engine.bag_eq(&reference), "engine != reference on {context}\n{plan}");
                nonempty += usize::from(engine.num_rows() > 0);
            }
        }
    }
    assert!(nonempty > pairs.len() * 4, "most cases produce rows ({nonempty})");
    // `1 = 1.0`, NULL = NULL: two rows of `ints` meet `floats`, and EXCEPT ALL drops the
    // earlier of its two 1s.
    let only = |kind, semantics| {
        let plan = scan("ints", 0).set_op(scan("floats", 1), kind, semantics).build();
        let result = Executor::new(catalog.clone()).execute(&plan).unwrap();
        result.iter().map(|t| t[0].clone()).collect::<Vec<_>>()
    };
    assert_eq!(only(SetOpKind::Intersect, SetSemantics::Set), [Value::Int(1), Value::Null]);
    assert_eq!(
        only(SetOpKind::Difference, SetSemantics::Bag),
        [Value::Int(2), Value::Int(1), Value::Int(4)]
    );
}

/// A column that takes one of several inputs holds their common type: the analyzer casts an
/// INT `CASE` arm (a `$n` one included), `COALESCE` argument, set-operation branch or
/// `INSERT … SELECT` source to FLOAT where the column is FLOAT, so it divides as a float — at
/// every degree, and in the oracle, which runs the same casts.
#[test]
fn inputs_of_a_float_column_divide_as_floats_at_every_degree() {
    let db = PermDb::new();
    db.execute_script(
        "CREATE TABLE f (x FLOAT); INSERT INTO f VALUES (1.5), (3.0); \
         CREATE TABLE i (y INT); INSERT INTO i VALUES (3), (5); \
         CREATE TABLE g (z FLOAT); INSERT INTO g SELECT y FROM i",
    )
    .unwrap();
    let floats = |relation: &Relation| {
        let values = relation.iter().map(|t| match t[0] {
            Value::Float(f) => f,
            ref other => panic!("{other:?} in a FLOAT column"),
        });
        let mut values: Vec<f64> = values.collect();
        values.sort_by(f64::total_cmp);
        values
    };
    let catalog = db.catalog();
    for (sql, expected) in [
        ("SELECT CASE WHEN x > 2 THEN 7 ELSE 0.5 END / 2 FROM f", &[0.25, 3.5][..]),
        ("SELECT coalesce(NULL, 7, 0.5) / 2 FROM f", &[3.5, 3.5]),
        (
            "SELECT c / 2 FROM (SELECT y AS c FROM i UNION ALL SELECT x FROM f) s",
            &[0.75, 1.5, 1.5, 2.5],
        ),
        ("SELECT z / 2 FROM g", &[1.5, 2.5]),
    ] {
        let plan = db.analyze_sql_plan(sql).unwrap();
        assert_eq!(plan.schema().attribute(0).unwrap().data_type, DataType::Float, "{sql}");
        let engine = run_at_every_degree(catalog, &plan, ExecOptions::default()).unwrap();
        assert_eq!(floats(&engine), expected, "{sql}");
        assert_eq!(floats(&execute_reference(catalog, &plan).unwrap()), expected, "{sql}");
    }
    let mut session = Session::new(db.engine().clone());
    session.prepare("p", "SELECT CASE WHEN x > 2 THEN $1 ELSE 0.5 END / 2 FROM f").unwrap();
    let plan = &session.prepared("p").unwrap().plan;
    assert_eq!(plan.verify().unwrap().schema.attribute(0).unwrap().data_type, DataType::Float);
    let executor = Executor::new(catalog.clone()).with_params(vec![Value::Int(7)]);
    assert_eq!(floats(&run_executor_at_every_degree(&executor, plan).unwrap()), [0.25, 3.5]);
    let executed = session.execute_prepared("p", vec![Value::Int(7)]).unwrap();
    assert_eq!(floats(&executed), [0.25, 3.5]);
}

/// `CASE` and `IN` over a list evaluate an operand only on the rows whose result depends on it.
/// Every expression below shields an operand that overflows or divides by zero on exactly the
/// rows that must not evaluate it — a non-taken `THEN`, a later `WHEN`, an `ELSE` behind a taken
/// branch, an `IN` candidate behind an earlier match or a NULL needle — so evaluating it on
/// every row fails the query. Searched and simple `CASE`, with and without `ELSE`, `IN` /
/// `NOT IN` with NULL needles and NULL candidates, over a scan's plain columns and over a join's
/// views, as projection and as predicate: the reference's rows at every degree.
#[test]
fn lazy_expression_forms_evaluate_only_the_rows_that_depend_on_them() {
    use perm_algebra::{BinaryOperator as Op, PlanBuilder};

    let catalog = Catalog::new();
    let schema = Schema::from_pairs(&["k", "x", "d", "n", "a"].map(|name| (name, DataType::Int)));
    // x + 1 overflows where i % 7 == 0; k / d divides by zero where i % 5 == 0; the needle n is
    // NULL where i % 11 == 0 and equals the first candidate a wherever x + 1 would overflow.
    let rows: Vec<Tuple> = (0..2500i64)
        .map(|i| {
            let null_or = |v: i64| if i % 11 == 0 { Value::Null } else { Value::Int(v) };
            Tuple::new(vec![
                Value::Int(i),
                Value::Int(if i % 7 == 0 { i64::MAX } else { i }),
                if i % 13 == 0 {
                    Value::Null
                } else {
                    Value::Int(if i % 5 == 0 { 0 } else { 1 + i % 3 })
                },
                null_or(i % 10),
                Value::Int(if i % 7 == 0 { i % 10 } else { i % 3 }),
            ])
        })
        .collect();
    catalog.create_table_with_data("t", Relation::from_parts(schema, rows)).unwrap();
    let scan = |ref_id: usize| PlanBuilder::scan("t", catalog.table_schema("t").unwrap(), ref_id);
    let one = Schema::from_pairs(&[("one", DataType::Int)]);
    let [k, x, d, n, a] = [0, 1, 2, 3, 4].map(|c| move || ScalarExpr::column(c, "c"));
    let lit = |v: i64| ScalarExpr::literal(v);
    let op = ScalarExpr::binary;
    let case = |operand: Option<ScalarExpr>,
                branches: Vec<(ScalarExpr, ScalarExpr)>,
                else_expr: Option<ScalarExpr>| ScalarExpr::Case {
        operand: operand.map(Box::new),
        branches,
        else_expr: else_expr.map(Box::new),
    };
    let in_list = |list: Vec<ScalarExpr>, negated: bool| ScalarExpr::InList {
        expr: Box::new(n()),
        list,
        negated,
    };
    let overflows = || op(Op::Add, x(), lit(1));
    let divides = || op(Op::Div, k(), d());

    let expressions = vec![
        // ELSE behind a taken branch.
        case(None, vec![(op(Op::Gt, x(), lit(1 << 40)), lit(0))], Some(overflows())),
        // A non-taken THEN, without and with ELSE (a NULL d takes neither).
        case(None, vec![(op(Op::NotEq, d(), lit(0)), divides())], None),
        case(None, vec![(op(Op::NotEq, d(), lit(0)), divides())], Some(lit(-1))),
        // A later WHEN behind a taken branch.
        case(
            None,
            vec![(d().eq(lit(0)), lit(-1)), (op(Op::Gt, divides(), lit(100)), lit(1))],
            None,
        ),
        // Simple CASE: the later WHEN value and its THEN divide by the operand.
        case(
            Some(d()),
            vec![(lit(0), lit(-1)), (op(Op::Div, lit(4), d()), divides())],
            Some(lit(7)),
        ),
        case(Some(d()), vec![(lit(0), lit(-1)), (op(Op::Div, lit(4), d()), divides())], None),
        // IN: a NULL needle evaluates no candidate, a match none behind it.
        in_list(vec![a(), overflows(), ScalarExpr::literal(Value::Null)], false),
        in_list(vec![a(), overflows(), ScalarExpr::literal(Value::Null)], true),
        in_list(vec![a(), overflows()], false),
        in_list(vec![a(), overflows()], true),
    ];
    for (i, expr) in expressions.iter().enumerate() {
        // The same columns as a scan's plain arrays and as a join's views of them.
        let plain = || scan(0);
        let views = || {
            scan(0).join(
                PlanBuilder::values(one.clone(), vec![Tuple::new(vec![Value::Int(1)])]),
                JoinKind::Inner,
                None,
            )
        };
        for (shape, input) in [("plain", &plain as &dyn Fn() -> PlanBuilder), ("views", &views)] {
            let projected = input().project(vec![(k(), "k".into()), (expr.clone(), "e".into())]);
            assert_matches_reference(&catalog, &projected.build(), &format!("#{i} over {shape}"));
        }
        // The two-candidate `IN` / `NOT IN` (the last two) are TRUE on some rows, not on all.
        if i >= 8 {
            let filtered = plain().filter(expr.clone()).project(vec![(k(), "k".into())]).build();
            assert_matches_reference(&catalog, &filtered, &format!("#{i} as a predicate"));
            let kept = execute_reference(&catalog, &filtered).unwrap().num_rows();
            assert!(kept > 0 && kept < 2500, "#{i} keeps some rows and drops some ({kept})");
        }
    }
}

/// A join condition is decided on batches of candidate pairs. Equi-joins with a residual over
/// bucket chains of 1, 7, 8, 9 and 2 000 build rows (the longest spans two batches for one
/// probe row), and a nested loop under a condition, as inner / left / full outer joins whose
/// residual leaves some probe rows and some build rows without a partner: the reference's rows
/// in the reference's order at every degree.
#[test]
fn join_conditions_are_decided_in_pair_batches() {
    use perm_algebra::{BinaryOperator as Op, PlanBuilder};

    let catalog = Catalog::new();
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
    let int_rows = |rows: Vec<(Value, i64)>| -> Vec<Tuple> {
        rows.into_iter().map(|(k, v)| Tuple::new(vec![k, Value::Int(v)])).collect()
    };
    // Build side: key c occurs c times, v counting up within the key.
    let build = [1i64, 7, 8, 9, 2000]
        .iter()
        .flat_map(|&chain| (0..chain).map(move |v| (Value::Int(chain), v)))
        .collect();
    // Probe side: every key (one absent from the build side, one NULL) with w = 0, 1 and 5;
    // `b.v % 3 = a.w` then matches a third of a chain, or — for 5 — none of it.
    let probe = [Value::Int(1), Value::Int(7), Value::Int(8), Value::Int(9), Value::Int(2000)]
        .into_iter()
        .chain([Value::Int(5), Value::Null])
        .flat_map(|k| [0i64, 1, 5].map(|w| (k.clone(), w)))
        .collect();
    for (name, rows) in [("a", int_rows(probe)), ("b", int_rows(build))] {
        catalog.create_table_with_data(name, Relation::from_parts(schema.clone(), rows)).unwrap();
    }
    let scan = |name: &str, ref_id: usize| {
        PlanBuilder::scan(name, catalog.table_schema(name).unwrap(), ref_id)
    };
    let col = |index: usize| ScalarExpr::column(index, "c");
    let lit = |v: i64| ScalarExpr::literal(v);
    let residual = || ScalarExpr::binary(Op::Mod, col(3), lit(3)).eq(col(1));
    let same_sequence = |plan: &LogicalPlan, context: &str| -> usize {
        let engine = run_at_every_degree(&catalog, plan, ExecOptions::default()).unwrap();
        let reference = execute_reference(&catalog, plan).unwrap();
        assert!(engine.tuples() == reference.tuples(), "engine != reference on {context}\n{plan}");
        engine.num_rows()
    };
    for kind in [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::FullOuter] {
        let hash = scan("a", 0).join(scan("b", 1), kind, Some(col(0).eq(col(2)).and(residual())));
        let rows = same_sequence(&hash.build(), &format!("{kind:?} hash join with a residual"));
        // Chains 1/7/8/9/2000 hold 1+3+3+3+667 rows with v % 3 = 0 and 0+2+3+3+667 with 1.
        let matches = 677 + 675;
        let probe_pads = 7 + 4 + 1; // w = 5; the keys 5 and NULL with w = 0 and 1; (1, 1)
        let build_pads = 2025 - matches;
        let expected = match kind {
            JoinKind::Inner => matches,
            JoinKind::LeftOuter => matches + probe_pads,
            _ => matches + probe_pads + build_pads,
        };
        assert_eq!(rows, expected, "{kind:?} hash join with a residual");
        // No equi-key: every probe row meets all 2 025 build rows.
        let condition = ScalarExpr::binary(Op::Lt, col(3), col(1)).and(col(0).eq(lit(7)));
        let looped = scan("a", 0).join(scan("b", 1), kind, Some(condition));
        same_sequence(&looped.build(), &format!("{kind:?} nested loop under a condition"));
    }
}

/// A join condition that fails behind a `LIMIT`: one outcome at every degree, the reference's.
/// A nested loop decides the pairs in order and stops once the `LIMIT` has its rows, so a
/// failing pair fails the query only when the `LIMIT` still wants a row when that pair comes —
/// also when it sits in the same candidate batch as the last row wanted.
#[test]
fn a_failing_join_condition_behind_a_limit_has_one_outcome() {
    use perm_algebra::{BinaryOperator as Op, PlanBuilder};

    let catalog = Catalog::new();
    let schema = Schema::from_pairs(&[("v", DataType::Int)]);
    let table = |rows: std::ops::Range<i64>, zero_at: i64| -> Vec<Tuple> {
        rows.map(|i| Tuple::new(vec![Value::Int(if i == zero_at { 0 } else { i + 1 })])).collect()
    };
    catalog
        .create_table_with_data("a", Relation::from_parts(schema.clone(), table(0..3, -1)))
        .unwrap();
    catalog
        .create_table_with_data("near", Relation::from_parts(schema.clone(), table(0..3000, 5)))
        .unwrap();
    catalog
        .create_table_with_data("far", Relation::from_parts(schema, table(0..3000, 2000)))
        .unwrap();
    let scan = |name: &str, ref_id: usize| {
        PlanBuilder::scan(name, catalog.table_schema(name).unwrap(), ref_id)
    };
    // `a.v / b.v >= 0` holds for every pair but the one whose build row is 0, where it divides
    // by zero: the 6th pair with `near`, the 2 001st with `far`.
    let condition = || {
        let quotient =
            ScalarExpr::binary(Op::Div, ScalarExpr::column(0, "v"), ScalarExpr::column(1, "v"));
        ScalarExpr::binary(Op::GtEq, quotient, ScalarExpr::literal(0i64))
    };
    let limited = |build: &str, limit: usize| {
        let join = scan("a", 0).join(scan(build, 1), JoinKind::Inner, Some(condition()));
        join.limit(Some(limit), 0).build()
    };
    for (build, limit, fails) in [("near", 5, false), ("near", 6, true), ("far", 1, false)] {
        let plan = limited(build, limit);
        let engine = run_at_every_degree(&catalog, &plan, ExecOptions::default());
        let reference = execute_reference(&catalog, &plan);
        assert_eq!(engine.is_err(), fails, "{build} under LIMIT {limit}");
        match (engine, reference) {
            (Ok(engine), Ok(reference)) => {
                let pairs =
                    (1..=limit as i64).map(|v| Tuple::new(vec![Value::Int(1), Value::Int(v)]));
                assert_eq!(engine.tuples(), pairs.collect::<Vec<_>>(), "{build} {limit}");
                assert_eq!(engine.tuples(), reference.tuples(), "{build} {limit}");
            }
            (engine, reference) => assert_eq!(engine.unwrap_err(), reference.unwrap_err()),
        }
    }
}

/// Wrap a sub-plan as an uncorrelated sublink expression.
fn sublink(
    kind: perm_algebra::SublinkKind,
    operand: Option<ScalarExpr>,
    negated: bool,
    plan: LogicalPlan,
) -> ScalarExpr {
    ScalarExpr::Sublink {
        kind,
        operand: operand.map(Box::new),
        negated,
        plan: std::sync::Arc::new(plan),
    }
}

/// Uncorrelated sublinks — resolved by running the sub-plan through the same engine — agree
/// with the reference at every degree, raw and optimized: EXISTS / NOT EXISTS over empty and
/// non-empty sub-plans, scalar subqueries with one row, zero rows (NULL) and more than one row
/// (`ScalarSubqueryTooManyRows`), and `IN` / `NOT IN` whose operand and candidates contain
/// NULLs. Outer and inner tables span several morsels.
#[test]
fn sublinks_agree_with_reference_at_every_degree() {
    use perm_algebra::{PlanBuilder, SublinkKind};

    let catalog = Catalog::new();
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
    let nullable = |i: i64, modulus: i64| {
        if i % 11 == 0 {
            Value::Null
        } else {
            Value::Int(i % modulus)
        }
    };
    let r = (0..2500).map(|i| Tuple::new(vec![nullable(i, 9), Value::Int(i)])).collect();
    let s = (0..1500).map(|i| Tuple::new(vec![nullable(i, 5), Value::Int(i % 40)])).collect();
    catalog.create_table_with_data("r", Relation::from_parts(schema.clone(), r)).unwrap();
    catalog.create_table_with_data("s", Relation::from_parts(schema, s)).unwrap();
    let scan = |name: &str, ref_id: usize| {
        PlanBuilder::scan(name, catalog.table_schema(name).unwrap(), ref_id)
    };
    let k = || ScalarExpr::column(0, "k");
    let v = || ScalarExpr::column(1, "v");
    let s_where = |pred: ScalarExpr| scan("s", 1).filter(pred);
    let s_keys = |b: PlanBuilder| b.project(vec![(k(), "k".into())]).build();
    let nothing = || ScalarExpr::binary(BinaryOperator::Lt, v(), ScalarExpr::literal(0i64));
    let max_v = scan("s", 1)
        .aggregate(vec![], vec![(AggregateExpr::new(AggregateFunction::Max, v()), "m".into())])
        .build();

    let mut predicates: Vec<(String, ScalarExpr)> = Vec::new();
    for negated in [false, true] {
        let not = if negated { "NOT " } else { "" };
        predicates.push((
            format!("{not}EXISTS over rows"),
            sublink(SublinkKind::Exists, None, negated, scan("s", 1).build()),
        ));
        predicates.push((
            format!("{not}EXISTS over nothing"),
            sublink(SublinkKind::Exists, None, negated, s_where(nothing()).build()),
        ));
        // Candidates 0..4 and NULL: a non-matching needle yields NULL, not FALSE.
        predicates.push((
            format!("{not}IN with NULL candidates"),
            sublink(SublinkKind::InSubquery, Some(k()), negated, s_keys(scan("s", 1))),
        ));
        // No NULL candidate: NOT IN keeps definite non-matches (but never a NULL needle).
        predicates.push((
            format!("{not}IN without NULL candidates"),
            sublink(
                SublinkKind::InSubquery,
                Some(k()),
                negated,
                s_keys(s_where(ScalarExpr::binary(
                    BinaryOperator::Lt,
                    k(),
                    ScalarExpr::literal(3i64),
                ))),
            ),
        ));
        predicates.push((
            format!("{not}IN over nothing"),
            sublink(SublinkKind::InSubquery, Some(k()), negated, s_keys(s_where(nothing()))),
        ));
    }
    predicates.push((
        "scalar, one row".into(),
        ScalarExpr::binary(
            BinaryOperator::Lt,
            v(),
            sublink(SublinkKind::Scalar, None, false, max_v),
        ),
    ));
    predicates.push((
        "scalar, zero rows is NULL".into(),
        v().eq(sublink(SublinkKind::Scalar, None, false, s_keys(s_where(nothing())))),
    ));
    for (what, predicate) in &predicates {
        let plan = scan("r", 0).filter(predicate.clone()).build();
        plan.verify().unwrap();
        assert_matches_reference(&catalog, &plan, what);
        let optimized = Optimizer::new().optimize(&plan).unwrap();
        let reference = execute_reference(&catalog, &plan).unwrap();
        let engine = run_at_every_degree(&catalog, &optimized, ExecOptions::default()).unwrap();
        assert!(engine.bag_eq(&reference), "optimized engine != reference on {what}");
    }
    // The cases above must not all be vacuous.
    let kept = |what: &str| {
        let (_, predicate) = predicates.iter().find(|(name, _)| name == what).unwrap();
        let plan = scan("r", 0).filter(predicate.clone()).build();
        run_at_every_degree(&catalog, &plan, ExecOptions::default()).unwrap().num_rows()
    };
    assert_eq!(kept("EXISTS over rows"), 2500);
    assert_eq!(kept("EXISTS over nothing"), 0);
    assert_eq!(kept("NOT IN with NULL candidates"), 0, "a NULL candidate: never TRUE");
    assert!(kept("NOT IN without NULL candidates") > 0, "definite non-matches are kept");
    assert_eq!(kept("scalar, zero rows is NULL"), 0);

    // A sublink in a projection, evaluated once and broadcast.
    let projected = scan("r", 0)
        .project(vec![
            (k(), "k".into()),
            (sublink(SublinkKind::Exists, None, false, s_where(nothing()).build()), "any_s".into()),
        ])
        .build();
    assert_matches_reference(&catalog, &projected, "EXISTS in a projection");

    // More than one row in a scalar subquery is an error — the same one everywhere.
    let too_many = scan("r", 0)
        .filter(k().eq(sublink(SublinkKind::Scalar, None, false, s_keys(scan("s", 1)))))
        .build();
    let engine = run_at_every_degree(&catalog, &too_many, ExecOptions::default());
    assert_eq!(engine.unwrap_err(), ExecError::ScalarSubqueryTooManyRows);
    assert_eq!(
        execute_reference(&catalog, &too_many).unwrap_err(),
        ExecError::ScalarSubqueryTooManyRows
    );
}

/// Row budgets: "no operator may materialize more than N output rows" gives the same `Ok` or
/// `RowBudgetExceeded` at every degree, for budgets just below, at and above an operator's
/// output — for a scan, a set operation and a multi-morsel join, for a join under a `LIMIT`
/// (which stops it early) and for a join over a `LIMIT` (whose input is cut first).
#[test]
fn row_budget_outcome_is_identical_at_every_degree() {
    use perm_algebra::{PlanBuilder, SortKey};

    // 1500 probe rows in two morsels; every probe row matches 20 of the 60 build rows.
    let r: Vec<(i64, i64)> = (0..1500).map(|i| (i % 3, i)).collect();
    let s: Vec<(i64, i64)> = (0..60).map(|i| (i % 3, i)).collect();
    let catalog = catalog_with(&r, &s);
    let scan = |name: &str, ref_id: usize| {
        PlanBuilder::scan(name, catalog.table_schema(name).unwrap(), ref_id)
    };
    let on_k = || Some(ScalarExpr::column(0, "k").eq(ScalarExpr::column(2, "k")));
    let join = || scan("r", 0).join(scan("s", 1), JoinKind::Inner, on_k());
    let outcome = |plan: &LogicalPlan, budget: usize| {
        let options = ExecOptions::default().with_row_budget(budget);
        run_at_every_degree(&catalog, plan, options).map(|relation| relation.num_rows())
    };
    // `rows` is the output of the plan's largest operator: one row less of budget fails it.
    let check = |plan: &LogicalPlan, rows: usize, result_rows: usize, what: &str| {
        assert_eq!(
            outcome(plan, rows - 1),
            Err(ExecError::RowBudgetExceeded { budget: rows - 1 }),
            "{what}: budget below the output"
        );
        assert_eq!(outcome(plan, rows), Ok(result_rows), "{what}: budget at the output");
        assert_eq!(outcome(plan, rows + 1), Ok(result_rows), "{what}: budget above the output");
    };

    check(&scan("r", 0).build(), 1500, 1500, "scan");
    let union = scan("r", 0).set_op(scan("s", 1), SetOpKind::Union, SetSemantics::Bag).build();
    check(&union, 1560, 1560, "bag union");
    check(&join().build(), 30_000, 30_000, "join");

    // Under a LIMIT the first probe morsel alone covers: the join stops at 2000 rows, so that
    // is all it is charged for (its inputs, 1500 and 60 rows, fit as well).
    check(&join().limit(Some(2000), 0).build(), 2000, 2000, "join under LIMIT");
    // A LIMIT reached only in the second morsel: the join is charged for the rows the LIMIT
    // needs, whatever the degree.
    let spanning = join().limit(Some(25_000), 0).build();
    for budget in [24_999, 25_000, 29_999, 30_000] {
        let expected =
            if budget < 25_000 { Err(ExecError::RowBudgetExceeded { budget }) } else { Ok(25_000) };
        assert_eq!(outcome(&spanning, budget), expected, "join under a spanning LIMIT");
    }

    // Over a LIMIT: 100 sorted probe rows x 20 matches = 2000 join rows.
    let limited_probe = scan("r", 0).sort(vec![SortKey::asc(ScalarExpr::column(1, "v"))]);
    let over = limited_probe.limit(Some(100), 0).join(scan("s", 1), JoinKind::Inner, on_k());
    check(&over.build(), 2000, 2000, "join over LIMIT");
}

/// Catalog of `sizes.len()` join-graph tables `t0..tN` with deliberately different sizes, so
/// the cost-based reordering pass has real cardinality differences to exploit. Keys land in a
/// small shared domain (join results stay non-trivial), values are unique per table.
fn join_graph_catalog(sizes: &[usize]) -> Catalog {
    let catalog = Catalog::new();
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
    for (i, &size) in sizes.iter().enumerate() {
        let tuples = (0..size)
            .map(|j| Tuple::new(vec![Value::Int((j % 6) as i64), Value::Int((i * 100 + j) as i64)]))
            .collect();
        catalog
            .create_table_with_data(&format!("t{i}"), Relation::from_parts(schema.clone(), tuples))
            .unwrap();
    }
    catalog
}

/// Left-deep join chain over `t0..t{n-1}`: table `i` joins on `k` against the `k` column of a
/// genome-chosen *earlier* table (chains, stars and mixtures). At most two joins are outer —
/// enough to exercise the reorder barriers without the provenance rewrite's outer-join
/// expansion blowing up the plan.
fn join_graph_plan(
    catalog: &Catalog,
    n: usize,
    kinds: &[u8],
    anchors: &[u8],
) -> perm_algebra::LogicalPlan {
    let scan = |i: usize| {
        let name = format!("t{i}");
        perm_algebra::PlanBuilder::scan(name.as_str(), catalog.table_schema(&name).unwrap(), i)
    };
    let mut builder = scan(0);
    let mut arity = 2;
    let mut outer_budget = 2u8;
    for i in 1..n {
        let mut kind = match kinds[i - 1] % 8 {
            0..=4 => JoinKind::Inner,
            5 => JoinKind::LeftOuter,
            6 => JoinKind::RightOuter,
            _ => JoinKind::FullOuter,
        };
        if kind != JoinKind::Inner {
            if outer_budget == 0 {
                kind = JoinKind::Inner;
            } else {
                outer_budget -= 1;
            }
        }
        // Join the new table's key against the key of a random already-joined table.
        let anchor = (anchors[i - 1] as usize) % i;
        let condition = ScalarExpr::column(2 * anchor, "k").eq(ScalarExpr::column(arity, "k"));
        builder = builder.join(scan(i), kind, Some(condition));
        arity += 2;
    }
    builder.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized join graphs over 3–8 differently-sized relations: the statistics-driven
    /// join reordering and build-side swap must preserve bag semantics exactly — on the plain
    /// plan and on the provenance-rewritten one — in the engine at every degree.
    #[test]
    fn reordered_join_graphs_agree_at_every_degree(
        n in 3usize..9,
        sizes in proptest::collection::vec(0usize..13, 8..9),
        kinds in proptest::collection::vec(0u8..8, 7..8),
        anchors in proptest::collection::vec(0u8..8, 7..8),
    ) {
        let catalog = join_graph_catalog(&sizes[..n]);
        let plan = join_graph_plan(&catalog, n, &kinds, &anchors);
        plan.verify().unwrap();
        plan.verify().unwrap();
        let stats = perm_exec::TableStatsView::from_snapshot(&catalog.snapshot());
        // Aggressive thresholds: the generated tables hold 0–12 rows, far below the
        // engine-default policy's floors, and the point here is to maximize plan churn.
        let optimizer =
            Optimizer::new().with_reorder_policy(perm_exec::ReorderPolicy::aggressive());

        let (optimized, _report) = optimizer.optimize_with_stats(&plan, &stats).unwrap();
        optimized.verify().unwrap();
        optimized.verify().unwrap();
        assert_matches_reference(&catalog, &plan, "raw join graph");
        assert_matches_reference(&catalog, &optimized, "reordered join graph");
        let reference = execute_reference(&catalog, &plan).unwrap();
        let reordered = execute_reference(&catalog, &optimized).unwrap();
        prop_assert!(
            reordered.bag_eq(&reference),
            "reordering changed the result\nraw:\n{plan}\noptimized:\n{optimized}"
        );

        let rewritten = ProvenanceRewriter::new().rewrite(&plan).unwrap();
        rewritten.verify().unwrap();
        rewritten.verify().unwrap();
        let (rewritten_opt, _) = optimizer.optimize_with_stats(&rewritten, &stats).unwrap();
        rewritten_opt.verify().unwrap();
        rewritten_opt.verify().unwrap();
        assert_matches_reference(&catalog, &rewritten, "rewritten join graph");
        assert_matches_reference(&catalog, &rewritten_opt, "rewritten+reordered join graph");
        let prov_reference = execute_reference(&catalog, &rewritten).unwrap();
        let prov_reordered = execute_reference(&catalog, &rewritten_opt).unwrap();
        prop_assert!(
            prov_reordered.bag_eq(&prov_reference),
            "reordering changed provenance results\nraw:\n{rewritten}\noptimized:\n{rewritten_opt}"
        );
    }
}

/// Where the sort is in an optimized plan of the test below: still on top (under a `LIMIT`),
/// moved below a join onto `l`'s side, or onto `r`'s — the join's right input there, so the
/// join was swapped.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SortPlace {
    Stays,
    Moved,
    Swapped,
}

fn sort_place(plan: &LogicalPlan) -> SortPlace {
    fn find(plan: &LogicalPlan) -> Option<&LogicalPlan> {
        match plan {
            LogicalPlan::Sort { .. } => Some(plan),
            other => other.children().into_iter().find_map(|c| find(c)),
        }
    }
    fn scans_r(plan: &LogicalPlan) -> bool {
        matches!(plan, LogicalPlan::BaseRelation { name, .. } if &**name == "r")
            || plan.children().into_iter().any(|c| scans_r(c))
    }
    let top = match plan {
        LogicalPlan::Limit { input, .. } => input.as_ref(),
        other => other,
    };
    match find(top) {
        _ if matches!(top, LogicalPlan::Sort { .. }) => SortPlace::Stays,
        Some(sort) if scans_r(sort) => SortPlace::Swapped,
        Some(_) => SortPlace::Moved,
        None => panic!("no sort in\n{plan}"),
    }
}

/// `ORDER BY` over every join kind, a θ join and an R5 join-back, with keys on the left, on the
/// right, on both sides and in an expression — keys with ties, NULLs and NaN, over a probe side
/// of more than one morsel — bare and under `LIMIT` / `OFFSET`. Whether the optimizer moves the
/// sort below the join or leaves it on top, the engine returns the reference's rows for the
/// optimized plan in the reference's order at every degree, and the raw plan's rows in key
/// order. A sort moved below a join that keeps its inputs gives the very sequence the sort
/// above the join gave (ties included); a swapped join may order ties differently, so there
/// only the keys must match (and under a `LIMIT`, only the keys of the rows kept).
#[test]
fn sorts_moved_below_joins_keep_the_order_of_a_sort_above() {
    use perm_algebra::{PlanBuilder, SortKey};

    let catalog = Catalog::new();
    let schema = |k: &str, f: &str, t: &str| {
        Schema::from_pairs(&[(k, DataType::Int), (f, DataType::Float), (t, DataType::Int)])
    };
    let table = |rows: i64, modulus: i64| -> Vec<Tuple> {
        (0..rows)
            .map(|i| {
                let k = if i % 23 == 0 { Value::Null } else { Value::Int(i % modulus) };
                let f = match i % 17 {
                    0 => Value::Null,
                    5 => Value::Float(f64::NAN),
                    r => Value::Float((r % 6) as f64 * 0.5),
                };
                Tuple::new(vec![k, f, Value::Int(i)])
            })
            .collect()
    };
    catalog
        .create_table_with_data("l", Relation::from_parts(schema("k", "f", "tag"), table(1100, 7)))
        .unwrap();
    catalog
        .create_table_with_data("r", Relation::from_parts(schema("rk", "g", "rtag"), table(30, 9)))
        .unwrap();
    let scan = |name: &str, ref_id: usize| {
        PlanBuilder::scan(name, catalog.table_schema(name).unwrap(), ref_id)
    };
    let col = |index: usize| ScalarExpr::column(index, "c");
    // Join output `l.k l.f l.tag r.rk r.g r.rtag`, renamed as `tag f k g rk rtag` above.
    let renamed = [(2, "tag"), (1, "f"), (0, "k"), (4, "g"), (3, "rk"), (5, "rtag")];
    let keys_of = |set: &str| -> Vec<SortKey> {
        match set {
            "left" => vec![SortKey::asc(col(1))],
            "left2" => vec![SortKey::desc(col(2)), SortKey::asc(col(1))],
            "right" => vec![SortKey::asc(col(3))],
            "right2" => vec![SortKey::desc(col(4)), SortKey::asc(col(3))],
            "both" => vec![SortKey::asc(col(2)), SortKey::asc(col(4))],
            _ => vec![SortKey::asc(ScalarExpr::binary(
                BinaryOperator::Add,
                col(1),
                ScalarExpr::literal(1.0),
            ))],
        }
    };
    let equi = || Some(col(0).eq(col(3)));
    let theta = || Some(ScalarExpr::binary(BinaryOperator::Lt, col(1), col(4)));
    let joins: [(&str, JoinKind, Option<ScalarExpr>); 6] = [
        ("inner", JoinKind::Inner, equi()),
        ("cross", JoinKind::Cross, None),
        ("θ", JoinKind::Inner, theta()),
        ("left outer", JoinKind::LeftOuter, equi()),
        ("right outer", JoinKind::RightOuter, equi()),
        ("full outer", JoinKind::FullOuter, equi()),
    ];
    let stats = perm_exec::TableStatsView::from_snapshot(&catalog.snapshot());
    let keys_match = |a: &Relation, b: &Relation, keys: &[SortKey]| {
        let key_values = |rel: &Relation| -> Vec<Vec<Value>> {
            rel.iter()
                .map(|t| keys.iter().map(|k| perm_exec::evaluate(&k.expr, &t).unwrap()).collect())
                .collect()
        };
        key_values(a) == key_values(b)
    };
    let check = |raw: &LogicalPlan, keys: &[SortKey], expected: Option<SortPlace>, case: &str| {
        let reference = execute_reference(&catalog, raw).unwrap();
        let no_stats = Optimizer::new().optimize(raw).unwrap();
        let (with_stats, _) = Optimizer::new().optimize_with_stats(raw, &stats).unwrap();
        for (optimized, expected) in [(&no_stats, expected), (&with_stats, None)] {
            optimized.verify().unwrap();
            let place = sort_place(optimized);
            if let Some(expected) = expected {
                assert_eq!(place, expected, "{case}:\n{optimized}");
            }
            let engine = run_at_every_degree(&catalog, optimized, ExecOptions::default()).unwrap();
            let same_plan = execute_reference(&catalog, optimized).unwrap();
            assert!(
                engine.tuples() == same_plan.tuples(),
                "{case}: engine != reference\n{optimized}"
            );
            assert!(
                keys_match(&engine, &reference, keys),
                "{case}: keys out of order\n{optimized}"
            );
            if place == SortPlace::Swapped {
                assert!(
                    is_limited(raw) || engine.bag_eq(&reference),
                    "{case}: rows differ\n{optimized}"
                );
            } else {
                assert!(
                    engine.tuples() == reference.tuples(),
                    "{case}: order differs\n{optimized}"
                );
            }
        }
    };
    fn is_limited(plan: &LogicalPlan) -> bool {
        matches!(plan, LogicalPlan::Limit { .. })
    }

    for (name, kind, condition) in joins {
        for set in ["left", "left2", "right", "right2", "both", "expression"] {
            let expected = match (set, kind) {
                ("both" | "expression", _) | (_, JoinKind::FullOuter) => SortPlace::Stays,
                ("left" | "left2", JoinKind::RightOuter) => SortPlace::Stays,
                ("right" | "right2", JoinKind::LeftOuter) => SortPlace::Stays,
                ("right" | "right2", _) => SortPlace::Swapped,
                _ => SortPlace::Moved,
            };
            let exprs = renamed.iter().map(|&(i, n)| (col(i), n.into())).collect();
            let sorted = scan("l", 0)
                .join(scan("r", 1), kind, condition.clone())
                .project(exprs)
                .sort(keys_of(set));
            let keys = keys_of(set);
            let case = format!("{name} join, {set} keys");
            check(&sorted.clone().build(), &keys, Some(expected), &case);
            for (limit, offset) in [(7, 0), (40, 1090)] {
                let limited = sorted.clone().limit(Some(limit), offset).build();
                check(
                    &limited,
                    &keys,
                    Some(expected),
                    &format!("{case}, LIMIT {limit} OFFSET {offset}"),
                );
            }
        }
    }

    // R5: `SELECT PROVENANCE k, sum(f) FROM l GROUP BY k ORDER BY ...` — q's attributes reach
    // the join-back unchanged from the aggregation, which the sort moves onto.
    let grouped = || {
        scan("l", 0).aggregate(
            vec![(col(0), "k".into())],
            vec![(AggregateExpr::new(AggregateFunction::Sum, col(1)), "s".into())],
        )
    };
    for keys in [vec![SortKey::desc(col(0))], vec![SortKey::asc(col(1)), SortKey::asc(col(0))]] {
        for limit in [None, Some((5, 2))] {
            let mut query = grouped().sort(keys.clone());
            if let Some((n, offset)) = limit {
                query = query.limit(Some(n), offset);
            }
            let rewritten = ProvenanceRewriter::new().rewrite(&query.build()).unwrap();
            let case = format!("R5 join-back ordered by {keys:?}, limit {limit:?}");
            check(&rewritten, &keys, Some(SortPlace::Moved), &case);
        }
    }
}

/// A pulled region hands out its drained result batch by batch. One probe morsel that emits
/// nine batches comes out one batch per pull, rows and order as drained, at every degree; and a
/// `LIMIT` over a join ends the pulls once it is covered: the join's recorded output stops at
/// the limit, however many probe morsels are left.
#[test]
fn a_pulled_region_matches_its_drained_result() {
    use perm_algebra::{PlanBuilder, DEFAULT_CHUNK_SIZE};
    use perm_exec::ProfileSink;

    // 3 probe rows of one key against 3 000 build rows of it: 9 000 rows from one morsel.
    let r: Vec<(i64, i64)> = (0..3).map(|i| (1, i)).collect();
    let s: Vec<(i64, i64)> = (0..3000).map(|i| (1, i)).collect();
    let catalog = catalog_with(&r, &s);
    let scan = |name: &str, ref_id: usize| {
        PlanBuilder::scan(name, catalog.table_schema(name).unwrap(), ref_id)
    };
    let on_k = || Some(ScalarExpr::column(0, "k").eq(ScalarExpr::column(2, "k")));
    let join = || scan("r", 0).join(scan("s", 1), JoinKind::Inner, on_k());
    let plan = join().project(vec![(ScalarExpr::column(3, "v"), "v".into())]).build();
    let executor = Executor::new(catalog.clone());
    for pool in pools() {
        let drained = executor.execute_parallel(&plan, pool).unwrap().tuples();
        let mut cursor = executor.open(&plan, pool).unwrap();
        let mut pulled = Vec::new();
        while let Some(batch) = cursor.next_batch(pool).unwrap() {
            assert_eq!(batch.len(), 1, "one step of the one morsel per pull");
            pulled.extend(batch.iter().flat_map(|chunk| chunk.iter_tuples()));
        }
        assert_eq!(pulled.len(), 9000);
        assert_eq!(pulled, drained, "pulled != drained at degree {}", pool.workers());
    }

    // 4 096 probe rows in four morsels, each matching one build row; LIMIT 100.
    let r: Vec<(i64, i64)> = (0..4 * DEFAULT_CHUNK_SIZE as i64).map(|i| (1, i)).collect();
    let catalog = catalog_with(&r, &[(1, 0)]);
    let scan = |name: &str, ref_id: usize| {
        PlanBuilder::scan(name, catalog.table_schema(name).unwrap(), ref_id)
    };
    let limited =
        scan("r", 0).join(scan("s", 1), JoinKind::Inner, on_k()).limit(Some(100), 0).build();
    for pool in pools() {
        let sink = std::sync::Arc::new(ProfileSink::new(&limited));
        let options = ExecOptions::default().with_profile(sink.clone());
        let executor = Executor::with_options(catalog.clone(), options);
        let mut cursor = executor.open(&limited, pool).unwrap();
        let mut rows = 0;
        while let Some(batch) = cursor.next_batch(pool).unwrap() {
            rows += batch.iter().map(|chunk| chunk.num_rows()).sum::<usize>();
        }
        assert_eq!(rows, 100);
        let join_rows = sink.snapshot().ops[1].rows_out;
        assert_eq!(join_rows, 100, "the join ran past the LIMIT at degree {}", pool.workers());
    }
}

/// Where a poisoned value is evaluated under a `LIMIT k OFFSET m`.
#[derive(Debug, Clone)]
enum Poisoned {
    /// `SELECT k, poison(v) FROM p`, over a filter on `k` or not.
    Projection { filtered: bool },
    /// `SELECT * FROM p WHERE poison(v) > 1`.
    Filter,
    /// `p JOIN q ON p.k = q.k AND poison(p.v) > 0`, `p` probed or built.
    JoinCondition { kind: u8, p_probed: bool },
    /// `SELECT p.k, poison(p.v) FROM p JOIN q ON p.k = q.k`, `p` probed or built.
    JoinProjection { kind: u8, p_probed: bool },
    /// `SELECT * FROM q WHERE [NOT] EXISTS (SELECT * FROM p WHERE poison(v) > 1 AND k = key)`.
    Exists { negated: bool, key: i64 },
    /// `SELECT * FROM q WHERE v = (SELECT poison(v) FROM p WHERE k = q_key)`.
    Scalar { key: i64 },
    /// `SELECT * FROM q WHERE v IN (SELECT poison(v) FROM p)`.
    In,
}

fn poisoned_strategy() -> impl Strategy<Value = Poisoned> {
    (0u8..7, 0u8..5, any::<bool>(), 0i64..8).prop_map(|(shape, kind, flag, key)| match shape {
        0 => Poisoned::Projection { filtered: flag },
        1 => Poisoned::Filter,
        2 => Poisoned::JoinCondition { kind, p_probed: flag },
        3 => Poisoned::JoinProjection { kind, p_probed: flag },
        4 => Poisoned::Exists { negated: flag, key },
        5 => Poisoned::Scalar { key },
        _ => Poisoned::In,
    })
}

/// The plan of `shape` over `p` (`(k, v)`, one row poisoned) and `q` (`(k, v)`, clean), under
/// `LIMIT limit OFFSET offset`. `poison(v)` is `(v + 1) / v`: it overflows when `v` is
/// `i64::MAX` and divides by zero when `v` is 0, and is at least 1 on every clean row.
fn poisoned_plan(catalog: &Catalog, shape: &Poisoned, limit: usize, offset: usize) -> LogicalPlan {
    use perm_algebra::{BinaryOperator as Op, PlanBuilder, SublinkKind};

    let scan = |name: &str, ref_id: usize| {
        PlanBuilder::scan(name, catalog.table_schema(name).unwrap(), ref_id)
    };
    let col = |index: usize| ScalarExpr::column(index, "c");
    let lit = |value: i64| ScalarExpr::literal(value);
    let poison = |v: ScalarExpr| {
        ScalarExpr::binary(Op::Div, ScalarExpr::binary(Op::Add, v.clone(), lit(1)), v)
    };
    let kind_of = |kind: u8| match kind {
        0 => JoinKind::Inner,
        1 => JoinKind::LeftOuter,
        2 => JoinKind::RightOuter,
        3 => JoinKind::FullOuter,
        _ => JoinKind::Inner,
    };
    // `p` joined with `q` on `k`: the columns of `p` start at `p_at`.
    let join = |kind: u8, p_probed: bool, poisoned_condition: bool| {
        let (left, right, p_at) = match p_probed {
            true => (scan("p", 0), scan("q", 1), 0),
            false => (scan("q", 1), scan("p", 0), 2),
        };
        let mut condition = col(0).eq(col(2));
        if poisoned_condition {
            // After the equi-key: a hash join decides it on key-matching pairs only.
            condition = condition.and(ScalarExpr::binary(Op::Gt, poison(col(p_at + 1)), lit(0)));
        }
        (left.join(right, kind_of(kind), Some(condition)), p_at)
    };
    let where_q = |predicate: ScalarExpr| scan("q", 1).filter(predicate);
    let sublink = |kind: SublinkKind, operand: Option<ScalarExpr>, negated, plan: PlanBuilder| {
        ScalarExpr::Sublink {
            kind,
            operand: operand.map(Box::new),
            negated,
            plan: std::sync::Arc::new(plan.build()),
        }
    };
    let body = match shape {
        Poisoned::Projection { filtered } => {
            let p = scan("p", 0);
            let p = match filtered {
                true => p.filter(ScalarExpr::binary(Op::Mod, col(0), lit(3)).eq(lit(1))),
                false => p,
            };
            p.project(vec![(col(0), "k".into()), (poison(col(1)), "x".into())])
        }
        Poisoned::Filter => scan("p", 0).filter(ScalarExpr::binary(Op::Gt, poison(col(1)), lit(1))),
        Poisoned::JoinCondition { kind, p_probed } => join(*kind, *p_probed, true).0,
        Poisoned::JoinProjection { kind, p_probed } => {
            let (joined, p_at) = join(*kind, *p_probed, false);
            joined.project(vec![(col(p_at), "k".into()), (poison(col(p_at + 1)), "x".into())])
        }
        Poisoned::Exists { negated, key } => {
            // Pulled up to the first row with `v = 1` and `k = key` — none when `key` is 7.
            let passing =
                ScalarExpr::binary(Op::Gt, poison(col(1)), lit(1)).and(col(0).eq(lit(*key)));
            let plan = scan("p", 0).filter(passing);
            where_q(sublink(SublinkKind::Exists, None, *negated, plan))
        }
        Poisoned::Scalar { key } => {
            let values = scan("p", 0).filter(col(0).eq(lit(*key)));
            let values = values.project(vec![(poison(col(1)), "x".into())]);
            where_q(col(1).eq(sublink(SublinkKind::Scalar, None, false, values)))
        }
        Poisoned::In => {
            let values = scan("p", 0).project(vec![(poison(col(1)), "x".into())]);
            where_q(sublink(SublinkKind::InSubquery, Some(col(1)), false, values))
        }
    };
    body.limit(Some(limit), offset).build()
}

/// The engine's outcome for `plan` pulled one batch at a time, at every degree: the drained
/// outcome of [`run_at_every_degree`], rows in the same order or the same error.
fn pulled_matches_drained(catalog: &Catalog, plan: &LogicalPlan) -> Result<Vec<Tuple>, ExecError> {
    let drained = run_at_every_degree(catalog, plan, ExecOptions::default()).map(|r| r.tuples());
    let executor = Executor::new(catalog.clone());
    for pool in pools() {
        let pulled = executor.open(plan, pool).and_then(|mut cursor| {
            let mut rows = Vec::new();
            while let Some(batch) = cursor.next_batch(pool)? {
                rows.extend(batch.iter().flat_map(|chunk| chunk.iter_tuples()));
            }
            Ok(rows)
        });
        assert_eq!(pulled, drained, "pulled != drained at degree {}\n{plan}", pool.workers());
    }
    drained
}

/// The engine's outcome on the plan `plan_of` builds, with `p`'s row `at` poisoned, pulled and
/// drained at every degree; returns it beside the pulled oracle's.
#[allow(clippy::type_complexity)]
fn poisoned_outcomes(
    plan_of: impl Fn(&Catalog) -> LogicalPlan,
    (p_rows, at, overflow, q_rows): (usize, usize, bool, usize),
) -> (LogicalPlan, Result<Vec<Tuple>, ExecError>, Result<Vec<Tuple>, ExecError>) {
    let poisoned = if overflow { i64::MAX } else { 0 };
    let p: Vec<(i64, i64)> = (0..p_rows as i64)
        .map(|i| (i % 7, if i as usize == at { poisoned } else { 1 + i % 5 }))
        .collect();
    let q: Vec<(i64, i64)> = (0..q_rows as i64).map(|i| (i % 9, 1 + i % 3)).collect();
    let catalog = Catalog::new();
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
    for (name, rows) in [("p", &p), ("q", &q)] {
        let tuples =
            rows.iter().map(|(k, v)| Tuple::new(vec![Value::Int(*k), Value::Int(*v)])).collect();
        let relation = Relation::from_parts(schema.clone(), tuples);
        catalog.create_table_with_data(name, relation).unwrap();
    }
    let plan = plan_of(&catalog);
    plan.verify().unwrap();
    let engine = pulled_matches_drained(&catalog, &plan);
    let reference = execute_reference(&catalog, &plan).map(|r| r.tuples());
    (plan, engine, reference)
}

/// `LIMIT 0` needs no row, not even the ones its `OFFSET` skips: a poisoned row among those
/// fails no scan, filter or join, in the engine or the oracle, nor a `LIMIT` below it. (A
/// sublink is decided when its operator opens, so its poisoned row fails both.)
#[test]
fn a_poisoned_row_behind_limit_0_fails_nothing() {
    let tables = (20, 2, false, 12);
    let nested = |catalog: &Catalog| {
        let inner = poisoned_plan(catalog, &Poisoned::Projection { filtered: false }, 10, 0);
        perm_algebra::PlanBuilder::from_plan(inner).alias("s").limit(Some(0), 5).build()
    };
    let (plan, engine, reference) = poisoned_outcomes(nested, tables);
    assert_eq!((&engine, &reference), (&Ok(Vec::new()), &Ok(Vec::new())), "\n{plan}");
    let joins = (0..4).flat_map(|kind| {
        let p_probed = true;
        [Poisoned::JoinCondition { kind, p_probed }, Poisoned::JoinProjection { kind, p_probed }]
    });
    let shapes = [
        Poisoned::Projection { filtered: false },
        Poisoned::Projection { filtered: true },
        Poisoned::Filter,
        Poisoned::Exists { negated: false, key: 2 },
        Poisoned::Exists { negated: true, key: 2 },
        Poisoned::Scalar { key: 2 },
        Poisoned::In,
    ];
    for shape in shapes.into_iter().chain(joins) {
        let (plan, engine, reference) =
            poisoned_outcomes(|catalog| poisoned_plan(catalog, &shape, 0, 5), tables);
        assert_eq!(engine, reference, "{shape:?}\n{plan}");
        let sublink =
            matches!(shape, Poisoned::Exists { .. } | Poisoned::Scalar { .. } | Poisoned::In);
        assert!(sublink || engine == Ok(Vec::new()), "{shape:?}\n{plan}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One poisoned row — a division by zero or an overflow — at a random position, under a
    /// `LIMIT k OFFSET m`, in a scan's projection, a filter, a join condition or a projection
    /// over a join, or a sublink's plan: the engine's outcome is the pulled oracle's, the same
    /// rows in the same order or the same error, at degrees 1, 2 and 8, drained or pulled a
    /// batch at a time. A query fails exactly when a row its output needs meets the poison.
    #[test]
    fn a_poisoned_row_behind_a_limit_has_the_oracles_outcome(
        shape in poisoned_strategy(),
        p_rows in 0usize..2600,
        at in 0usize..2600,
        overflow in any::<bool>(),
        q_rows in 1usize..24,
        limit in 0usize..1500,
        offset in 0usize..40,
    ) {
        let tables = (p_rows, at, overflow, q_rows);
        let (plan, engine, reference) =
            poisoned_outcomes(|catalog| poisoned_plan(catalog, &shape, limit, offset), tables);
        prop_assert_eq!(engine, reference, "{:?} under LIMIT {} OFFSET {}\n{}", shape, limit, offset, plan);
    }
}

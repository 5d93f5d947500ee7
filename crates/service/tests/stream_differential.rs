//! Differential test for the streaming result path: the concatenation of the chunks a
//! `QueryStream` delivers — after a full round-trip through the wire codec's result encoder and
//! decoder (dict/RLE frames, later ones indexing dictionaries earlier ones sent) — must be
//! bit-identical to the materialized `Relation` the engine returns at degrees 1 and 4 and to the
//! reference evaluator, at result sizes straddling the chunk-size boundary (1, 1023, 1024, 1025
//! rows).

use perm_algebra::{
    BinaryOperator, DataType, JoinKind, PlanBuilder, ScalarExpr, Schema, Tuple, Value,
    DEFAULT_CHUNK_SIZE,
};
use std::sync::Arc;

use perm_exec::{ExecOptions, Executor, WorkerPool};
use perm_service::{codec, Engine, PreparedPlan};
use perm_storage::{Catalog, Relation};

/// probe(x, k) joined to build(k, payload, weight): every probe row matches exactly one build
/// row, so `x < n` sizes the result to exactly `n` rows; the build side's wide text payload
/// repeats heavily, which is what the factorized wire encoding exists for.
fn catalog() -> Catalog {
    let catalog = Catalog::new();
    let probe_schema = Schema::from_pairs(&[("x", DataType::Int), ("k", DataType::Int)]);
    let probe =
        (0..1025).map(|x| Tuple::new(vec![Value::Int(x), Value::Int(x % 3)])).collect::<Vec<_>>();
    catalog.create_table_with_data("probe", Relation::from_parts(probe_schema, probe)).unwrap();

    let build_schema = Schema::from_pairs(&[
        ("k", DataType::Int),
        ("payload", DataType::Text),
        ("weight", DataType::Float),
    ]);
    let build = (0..3)
        .map(|k| {
            let payload: String = std::iter::repeat_n(char::from(b'a' + k as u8), 64).collect();
            Tuple::new(vec![Value::Int(k), Value::text(payload), Value::Float(k as f64 + 0.5)])
        })
        .collect::<Vec<_>>();
    catalog.create_table_with_data("build", Relation::from_parts(build_schema, build)).unwrap();
    catalog
}

fn plan_with_result_size(catalog: &Catalog, n: i64) -> perm_algebra::LogicalPlan {
    let probe = PlanBuilder::scan("probe", catalog.table_schema("probe").unwrap(), 0).filter(
        ScalarExpr::binary(
            BinaryOperator::Lt,
            ScalarExpr::column(0, "x"),
            ScalarExpr::literal(Value::Int(n)),
        ),
    );
    let build = PlanBuilder::scan("build", catalog.table_schema("build").unwrap(), 1);
    probe
        .join(
            build,
            JoinKind::Inner,
            Some(ScalarExpr::column(1, "k").eq(ScalarExpr::column(2, "k"))),
        )
        .build()
}

/// Flatten a relation to plain row-major values — the common denominator the engine, the
/// oracle and the decoded wire chunks are compared through.
fn rows_of(relation: &Relation) -> Vec<Vec<Value>> {
    let mut rows = Vec::with_capacity(relation.num_rows());
    for chunk in relation.chunks().iter() {
        for row in 0..chunk.num_rows() {
            rows.push((0..chunk.num_columns()).map(|c| chunk.column(c).value(row)).collect());
        }
    }
    rows
}

#[test]
fn streamed_chunks_match_the_materialized_result_at_every_degree() {
    let catalog = catalog();
    let pool = WorkerPool::new(4);

    for n in [1i64, 1023, 1024, 1025] {
        let plan = plan_with_result_size(&catalog, n);
        let executor = Executor::new(catalog.clone());

        // The reference row-at-a-time interpreter is ground truth.
        let reference = executor.execute_reference(&plan).unwrap();
        assert_eq!(reference.num_rows() as i64, n, "join sizes the result to n rows");
        let expected = rows_of(&reference);

        // Materialized: the engine at degree 1 and on a 4-worker pool.
        let materialized = executor.execute(&plan).unwrap();
        assert_eq!(rows_of(&materialized), expected, "degree 1, n={n}");
        let parallel = executor.execute_parallel(&plan, &pool).unwrap();
        assert_eq!(rows_of(&parallel), expected, "degree 4, n={n}");

        // The streamed path, per degree: pull chunks from a `QueryStream`, push each through
        // the wire codec (encode → decode), and concatenate the decoded chunks back into a
        // relation.
        for workers in [1usize, 4] {
            let engine = Engine::with_catalog(catalog.clone()).with_workers(workers);
            let prepared = Arc::new(PreparedPlan {
                plan: plan.clone(),
                into: None,
                param_count: 0,
                sql: String::new(),
            });
            let stream =
                engine.run_plan_streaming(prepared, ExecOptions::default(), Vec::new()).unwrap();
            let schema_frame = codec::encode_schema(stream.schema());
            let schema = codec::decode_schema(&schema_frame[1..]).unwrap();
            // The wire schema carries names and types (qualifiers are a planner concern).
            assert_eq!(
                schema.attribute_names(),
                materialized.schema().attribute_names(),
                "schema frame round-trips names, n={n}"
            );
            assert_eq!(
                schema.attributes().iter().map(|a| a.data_type).collect::<Vec<_>>(),
                materialized.schema().attributes().iter().map(|a| a.data_type).collect::<Vec<_>>(),
                "schema frame round-trips types, n={n}"
            );

            let mut decoded_chunks = Vec::new();
            let mut streamed_rows = 0usize;
            let mut encoded_on_wire = false;
            let mut encoder = codec::ResultEncoder::default();
            let mut decoder = codec::ResultDecoder::default();
            for chunk in stream {
                let chunk = chunk.unwrap();
                assert!(chunk.num_rows() <= DEFAULT_CHUNK_SIZE, "chunks respect the chunk size");
                let frame = encoder.encode_chunk(&chunk);
                let decoded = decoder.decode_chunk(&frame[1..]).unwrap();
                streamed_rows += decoded.num_rows();
                encoded_on_wire |=
                    (0..decoded.num_columns()).any(|c| decoded.column(c).is_encoded());
                decoded_chunks.push(decoded);
            }
            assert_eq!(streamed_rows as i64, n, "stream delivers every row exactly once");
            let expected_chunks = (n as usize).div_ceil(DEFAULT_CHUNK_SIZE);
            assert_eq!(decoded_chunks.len(), expected_chunks, "boundary chunking at n={n}");
            if n > 1 {
                assert!(
                    encoded_on_wire,
                    "repeating join payloads ride the wire in factorized form, n={n}"
                );
            }

            let streamed = Relation::from_chunks(schema, decoded_chunks);
            assert_eq!(
                rows_of(&streamed),
                expected,
                "streamed wire round-trip at {workers} workers, n={n}"
            );
        }
    }
}

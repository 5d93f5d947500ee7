//! Boundary and equivalence tests for the single (chunk-list) representation of a
//! [`Relation`]: however rows arrive, the stored chunks are the ones a one-shot build stores.

use std::sync::Arc;

use perm_algebra::{tuple, AlgebraError, DataChunk, DataType, Schema, Tuple, DEFAULT_CHUNK_SIZE};
use perm_storage::Relation;

fn schema() -> Schema {
    Schema::from_pairs(&[("name", DataType::Text), ("n", DataType::Int)])
}

fn rows(range: std::ops::Range<usize>) -> Vec<Tuple> {
    range.map(|i| tuple![format!("r{i}"), i as i64]).collect()
}

/// `push`, `extend` and `append_chunks` across the 1023 / 1024 / 1025 boundary store the same
/// chunks, row for row, as a relation built in one go, and recollect the statistics.
#[test]
fn incremental_appends_match_a_one_shot_build_across_the_chunk_boundary() {
    let one_shot = |n: usize| Relation::new(schema(), rows(0..n)).unwrap();
    for total in [DEFAULT_CHUNK_SIZE - 1, DEFAULT_CHUNK_SIZE, DEFAULT_CHUNK_SIZE + 1] {
        let expected = one_shot(total);

        let mut pushed = one_shot(total - 3);
        let stale = pushed.stats();
        for row in rows(total - 3..total) {
            pushed.push(row).unwrap();
        }
        assert_eq!(stale.row_count, total as u64 - 3, "a mutation drops the statistics");

        let mut extended = one_shot(5);
        extended.extend(rows(5..total)).unwrap();

        let mut appended = one_shot(5);
        let source = expected.chunks();
        let mut rest = vec![source[0].slice(5, source[0].num_rows() - 5)];
        rest.extend_from_slice(&source[1..]);
        appended.append_chunks(&rest).unwrap();

        for built in [&pushed, &extended, &appended] {
            assert_eq!(built.num_rows(), total);
            assert_eq!(*built.chunks(), *expected.chunks(), "{total} rows");
            assert_eq!(built.stats().row_count, total as u64);
        }
    }
}

#[test]
fn append_chunks_checks_arity_and_stores_plain_columns() {
    let mut r = Relation::new(schema(), vec![tuple!["a", 1]]).unwrap();
    assert!(r.append_chunks(&[DataChunk::from_tuples(1, &[tuple![1]])]).is_err());
    assert_eq!(r.num_rows(), 1);
    let source = DataChunk::from_tuples(2, &[tuple!["b", 2], tuple!["c", 3]]);
    let view = source.take_dict(&Arc::from([1, 1, 0]));
    r.append_chunks(&[DataChunk::empty(2), view]).unwrap();
    assert_eq!(r.tuples(), vec![tuple!["a", 1], tuple!["c", 3], tuple!["c", 3], tuple!["b", 2]]);
    assert!(r.chunks().iter().all(|c| c.columns().iter().all(|a| !a.is_encoded())));
}

#[test]
fn appended_values_take_the_declared_column_types_or_are_refused() {
    // A row's value casts to its column's type; a chunk's column must have it. What does not
    // fit is refused whole, with an error naming the column.
    let mut r = Relation::new(schema(), vec![tuple!["a", 1]]).unwrap();
    r.extend(vec![tuple![2, "3"], Tuple::nulls(2)]).unwrap();
    r.append_chunks(&[DataChunk::from_tuples(2, &[tuple!["d", 4]])]).unwrap();
    let expected = vec![tuple!["a", 1], tuple!["2", 3], Tuple::nulls(2), tuple!["d", 4]];
    assert_eq!(r.tuples(), expected);
    let types = |c: &DataChunk| c.columns().iter().map(|a| a.data_type()).collect::<Vec<_>>();
    assert!(r.chunks().iter().all(|c| types(c) == [DataType::Text, DataType::Int]));
    let refused = |e: AlgebraError, want: &str| {
        matches!(e, AlgebraError::TypeMismatch { ref context, ref expected, ref actual, .. }
            if context == "column 'n'" && expected == "INT" && actual == want)
    };
    assert!(refused(r.extend(vec![tuple!["b", 6], tuple!["c", "seven"]]).unwrap_err(), "TEXT"));
    let floats = DataChunk::from_tuples(2, &[tuple!["e", 5.0]]);
    assert!(refused(r.append_chunks(&[DataChunk::empty(2), floats]).unwrap_err(), "FLOAT"));
    // A value past the first chunk's worth of rows that casts to nothing refuses them all.
    let mut many: Vec<Tuple> = (0..DEFAULT_CHUNK_SIZE as i64).map(|i| tuple!["m", i]).collect();
    many.push(tuple!["z", "last"]);
    assert!(refused(r.extend(many).unwrap_err(), "TEXT"));
    assert_eq!(r.tuples(), expected, "nothing of a refused append lands");
}

//! Model-based property test of `DataChunk::filter`: a filter batch is one index buffer over its
//! source. Chunks mix plain Int / Float / Date / Text / Bool columns, views that share one index
//! buffer and views with buffers of their own, run-length and all-NULL columns; the model is
//! the decoded rows. Filtering must keep the rows the model keeps, give every plain column one
//! shared buffer, compose a filter of a filter into one buffer, hash and compare rows as their
//! decoded form does, and concatenate over several dictionaries as the decoded chunks do.

use std::collections::hash_map::RandomState;
use std::sync::Arc;

use proptest::prelude::*;

use perm_algebra::{hash_rows, rows_equal, Array, DataChunk, Tuple, Value};

/// The texts a text column draws from: empty, ASCII, multi-byte.
const TEXTS: [&str; 5] = ["", "a", "żółw", "🐢", "a longer text value"];

/// A small deterministic generator: the test's randomness comes from proptest's seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self, below: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % below as u64) as usize
    }
}

/// One value of the type `kind` names (0 Int, 1 Float, 2 Date, 3 Text, 4 Bool), NULL one time in
/// four. Few distinct values, so rows repeat and hash alike.
fn value(kind: usize, rng: &mut Rng) -> Value {
    if rng.next(4) == 0 {
        return Value::Null;
    }
    let v = rng.next(TEXTS.len());
    match kind {
        0 => Value::Int(v as i64 - 2),
        1 => Value::Float(v as f64 / 2.0),
        2 => Value::Date(v as i32 * 31),
        3 => Value::text(TEXTS[v]),
        _ => Value::Bool(v.is_multiple_of(2)),
    }
}

fn plain(kind: usize, len: usize, rng: &mut Rng) -> Array {
    Array::from_values((0..len).map(|_| value(kind, rng))).unwrap()
}

/// The form a column of the chunk takes.
#[derive(Debug, Clone, Copy)]
enum Form {
    Plain(usize),
    /// A view through the chunk's one shared index buffer.
    SharedView(usize),
    /// A view through a buffer of its own.
    OwnView(usize),
    RunLength(usize),
    AllNull,
}

fn forms(codes: &[u8]) -> Vec<Form> {
    codes
        .iter()
        .map(|&code| {
            let kind = code as usize % 5;
            match code / 5 % 5 {
                0 | 1 => Form::Plain(kind),
                2 => Form::SharedView(kind),
                3 => Form::OwnView(kind),
                _ if code.is_multiple_of(2) => Form::RunLength(kind),
                _ => Form::AllNull,
            }
        })
        .collect()
}

/// A chunk of `rows` rows whose columns take `forms`, drawn from `rng`.
fn chunk(forms: &[Form], rows: usize, rng: &mut Rng) -> DataChunk {
    let dict_len = 6;
    let indices =
        |rng: &mut Rng| -> Arc<[u32]> { (0..rows).map(|_| rng.next(dict_len) as u32).collect() };
    let shared = indices(rng);
    let columns = forms
        .iter()
        .map(|form| {
            Arc::new(match *form {
                Form::Plain(kind) => plain(kind, rows, rng),
                Form::SharedView(kind) => Array::Dict {
                    indices: shared.clone(),
                    dict: Arc::new(plain(kind, dict_len, rng)),
                },
                Form::OwnView(kind) => Array::Dict {
                    indices: indices(rng),
                    dict: Arc::new(plain(kind, dict_len, rng)),
                },
                Form::RunLength(kind) => {
                    let mut run_ends: Vec<u32> = Vec::new();
                    while run_ends.last().map_or(0, |&end| end as usize) < rows {
                        let end = run_ends.last().map_or(0, |&end| end as usize) + 1 + rng.next(5);
                        run_ends.push(end.min(rows) as u32);
                    }
                    let values = Arc::new(plain(kind, run_ends.len(), rng));
                    Array::RunLength { values, run_ends }
                }
                Form::AllNull => Array::Null { len: rows },
            })
        })
        .collect();
    if forms.is_empty() {
        DataChunk::zero_width(rows)
    } else {
        DataChunk::new(columns)
    }
}

fn rows_of(chunk: &DataChunk) -> Vec<Tuple> {
    chunk.iter_tuples().collect()
}

fn kept<T: Clone>(rows: &[T], mask: &[bool]) -> Vec<T> {
    rows.iter().zip(mask).filter(|(_, keep)| **keep).map(|(row, _)| row.clone()).collect()
}

fn index_buffer(column: &Array) -> Option<&Arc<[u32]>> {
    match column {
        Array::Dict { indices, .. } => Some(indices),
        _ => None,
    }
}

/// Hashes and row equality of `chunk` agree with those of its decoded form, row for row and
/// across rows.
fn keys_agree(chunk: &DataChunk) -> Result<(), TestCaseError> {
    let decoded = chunk.to_plain();
    let state = RandomState::new();
    let (mut hashes, mut plain_hashes) = (Vec::new(), Vec::new());
    hash_rows(&state, chunk.columns(), &mut hashes);
    hash_rows(&state, decoded.columns(), &mut plain_hashes);
    prop_assert_eq!(&hashes, &plain_hashes);
    let null_safe = vec![true; chunk.num_columns()];
    for i in 0..chunk.num_rows() {
        prop_assert!(rows_equal(chunk.columns(), i, decoded.columns(), i, &null_safe));
        for j in 0..chunk.num_rows() {
            let by_view = rows_equal(chunk.columns(), i, chunk.columns(), j, &null_safe);
            let by_plain = rows_equal(decoded.columns(), i, decoded.columns(), j, &null_safe);
            prop_assert_eq!(by_view, by_plain);
            prop_assert_eq!(by_view, chunk.tuple_at(i) == chunk.tuple_at(j));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn filter_is_one_index_buffer_over_its_source(
        codes in proptest::collection::vec(any::<u8>(), 0..9),
        rows in 0usize..40,
        seed in any::<u64>(),
        bits in proptest::collection::vec(any::<bool>(), 80..81),
    ) {
        let mut rng = Rng(seed | 1);
        let forms = forms(&codes);
        let source = chunk(&forms, rows, &mut rng);
        let model = rows_of(&source);
        let (mask, again) = (&bits[..rows], &bits[40..]);

        let filtered = source.filter(mask);
        let expected = kept(&model, mask);
        prop_assert_eq!(filtered.num_rows(), expected.len());
        prop_assert_eq!(rows_of(&filtered), expected.clone());
        prop_assert_eq!(rows_of(&filtered.to_plain()), expected.clone());
        keys_agree(&filtered)?;

        // Every plain column is a view of its source column through one shared buffer, and
        // the views that shared a buffer share the derived one.
        let dropped = mask.contains(&false);
        let mut plain_buffer: Option<&Arc<[u32]>> = None;
        let mut shared_buffer: Option<&Arc<[u32]>> = None;
        for (c, form) in forms.iter().enumerate() {
            let column = filtered.column(c);
            let (slot, plain) = match form {
                Form::Plain(_) => (&mut plain_buffer, true),
                Form::SharedView(_) => (&mut shared_buffer, false),
                _ => continue,
            };
            if !dropped {
                let passed_on = Arc::ptr_eq(column, source.column(c));
                prop_assert!(passed_on, "a filter that keeps every row passes its columns on");
                continue;
            }
            if plain && matches!(source.column(c).as_ref(), Array::Null { .. }) {
                continue; // A plain column of NULLs stays one.
            }
            let buffer = index_buffer(column);
            prop_assert!(buffer.is_some(), "column {} of {:?} left as {:?}", c, form, column);
            let buffer = buffer.unwrap();
            match slot {
                Some(first) => {
                    prop_assert!(Arc::ptr_eq(first, buffer), "column {} has its own buffer", c)
                }
                None => *slot = Some(buffer),
            }
            if plain {
                let over_source = matches!(column.as_ref(),
                    Array::Dict { dict, .. } if Arc::ptr_eq(dict, source.column(c)));
                prop_assert!(over_source, "column {} is not a view of its source", c);
            }
        }

        // A filter of a filter composes: plain columns share one buffer over their source.
        let mask2 = &again[..filtered.num_rows()];
        let twice = filtered.filter(mask2);
        prop_assert_eq!(rows_of(&twice), kept(&expected, mask2));
        keys_agree(&twice)?;
        let mut composed: Option<&Arc<[u32]>> = None;
        for (c, form) in forms.iter().enumerate() {
            let column = twice.column(c);
            let Array::Dict { indices, dict } = column.as_ref() else { continue };
            if let Form::Plain(_) = form {
                let flat = Arc::ptr_eq(dict, source.column(c));
                prop_assert!(flat, "a filter of a filter nests views");
                match composed {
                    Some(first) => prop_assert!(Arc::ptr_eq(first, indices)),
                    None => composed = Some(indices),
                }
            }
        }

        // Filtered chunks over distinct dictionaries concatenate as their decoded rows do.
        let other = chunk(&forms, rows, &mut rng);
        let other_filtered = other.filter(&again[..rows]);
        let arity = forms.len();
        let parts = [filtered.clone(), other_filtered.clone(), filtered.clone()];
        let decoded: Vec<DataChunk> = parts.iter().map(DataChunk::to_plain).collect();
        let joined = DataChunk::concat(arity, &parts).unwrap();
        let joined_plain = DataChunk::concat(arity, &decoded).unwrap();
        let mut expected_rows = rows_of(&filtered);
        expected_rows.extend(rows_of(&other_filtered));
        expected_rows.extend(rows_of(&filtered));
        if arity > 0 {
            prop_assert_eq!(rows_of(&joined), expected_rows.clone());
            prop_assert_eq!(rows_of(&joined_plain), expected_rows);
            keys_agree(&joined)?;
        }
    }
}

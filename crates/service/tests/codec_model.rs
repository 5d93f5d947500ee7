//! Model-based property test of the `R` frame codec on chunks shaped like the engine's join
//! output: one to three index buffers, each shared by several `Dict` views over plain, text,
//! NULL-heavy and float dictionaries, beside run-length, all-NULL and plain columns. The model is the chunk's logical cells. Each case checks that
//!
//! * decoding the encoded frame gives back every cell (floats compared by their bits);
//! * views that shared an index buffer on the server share one again after decoding;
//! * the frame is never larger than the form that writes each view's indices out in full —
//!   the sum of the columns encoded one per frame, where nothing can be shared.

use std::sync::Arc;

use perm_algebra::{Array, DataChunk, Value};
use perm_service::codec::{decode_chunk, encode_chunk};
use proptest::prelude::*;

/// Bytes in front of the first column of an `R` frame: tag, row count, column count.
const FRAME_HEADER: usize = 1 + 4 + 2;

/// xorshift64: the cells of a case are a pure function of its seeds.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// An index buffer of `rows` indices over a source of `source_len` rows: long runs of one
/// index (the probe side of a duplicating join) or indices drawn at random (its build side).
fn index_buffer(rows: usize, source_len: u32, runs: bool, seed: u64) -> Arc<[u32]> {
    let mut rng = Rng::new(seed);
    let mut indices = Vec::with_capacity(rows);
    while indices.len() < rows {
        let index = rng.below(u64::from(source_len)) as u32;
        let repeat = if runs { 1 + rng.below(40) as usize } else { 1 };
        indices.extend(std::iter::repeat_n(index, repeat.min(rows - indices.len())));
    }
    indices.into()
}

/// A dictionary of `len` rows of one kind.
fn dictionary(kind: u8, len: usize, seed: u64) -> Array {
    let mut rng = Rng::new(seed);
    let value = |rng: &mut Rng| match kind {
        0 if rng.below(8) == 0 => Value::Null,
        0 => Value::Int(rng.below(1000) as i64 - 500),
        1 if rng.below(8) == 0 => Value::Null,
        1 => Value::text(format!("text-{}-é", rng.below(100)).as_str()),
        2 if rng.below(10) > 0 => Value::Null,
        2 => Value::Int(rng.below(10) as i64),
        _ => [Value::Null, Value::Float(f64::NAN), Value::Float(-0.0), Value::Float(2.5)]
            [rng.below(4) as usize]
            .clone(),
    };
    Array::from_values((0..len).map(|_| value(&mut rng))).unwrap()
}

/// A column that is no view: run-length, all-NULL or plain.
fn other_column(kind: u8, rows: usize, seed: u64) -> Array {
    let mut rng = Rng::new(seed);
    match kind {
        0 => {
            let mut run_ends = Vec::new();
            let mut end = 0;
            while end < rows {
                end = (end + 1 + rng.below(30) as usize).min(rows);
                run_ends.push(end as u32);
            }
            let values =
                Array::from_values((0..run_ends.len()).map(|i| Value::Int(i as i64 % 3))).unwrap();
            Array::RunLength { values: Arc::new(values), run_ends }
        }
        1 => Array::Null { len: rows },
        _ => Array::from_values((0..rows).map(|_| Value::Int(rng.below(5) as i64))).unwrap(),
    }
}

/// A chunk's cell with floats replaced by their bits, so NaN equals itself.
#[derive(Debug, PartialEq)]
enum Cell {
    Float(u64),
    Other(Value),
}

fn cells(chunk: &DataChunk) -> Vec<Vec<Cell>> {
    (0..chunk.num_columns())
        .map(|c| {
            (0..chunk.num_rows())
                .map(|row| match chunk.column(c).value(row) {
                    Value::Float(f) => Cell::Float(f.to_bits()),
                    other => Cell::Other(other),
                })
                .collect()
        })
        .collect()
}

/// How an array came off the wire.
fn wire_form(array: &Array) -> &'static str {
    match array {
        Array::Dict { .. } => "dict",
        Array::RunLength { .. } => "run-length",
        _ => "plain",
    }
}

fn index_buffer_of(array: &Array) -> Option<&Arc<[u32]>> {
    match array {
        Array::Dict { indices, .. } => Some(indices),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn shared_index_buffers_round_trip_once_and_shared(
        rows in 1usize..300,
        buffers in proptest::collection::vec((1u32..24, any::<bool>(), any::<u64>()), 1..4),
        columns in proptest::collection::vec((0u8..7, 0usize..3, any::<u64>()), 1..12),
    ) {
        let buffers: Vec<(Arc<[u32]>, u32)> = buffers
            .iter()
            .map(|&(source_len, runs, seed)| (index_buffer(rows, source_len, runs, seed), source_len))
            .collect();
        let columns: Vec<Arc<Array>> = columns
            .iter()
            .map(|&(kind, buffer, seed)| {
                Arc::new(match kind {
                    0..=3 => {
                        let (indices, source_len) = &buffers[buffer % buffers.len()];
                        let dict = dictionary(kind, *source_len as usize, seed);
                        Array::Dict { indices: indices.clone(), dict: Arc::new(dict) }
                    }
                    kind => other_column(kind - 4, rows, seed),
                })
            })
            .collect();
        let chunk = DataChunk::new(columns);

        let frame = encode_chunk(&chunk);
        let decoded = decode_chunk(&frame[1..]).unwrap();
        prop_assert_eq!(decoded.num_rows(), rows);
        prop_assert_eq!(cells(&decoded), cells(&chunk));

        for i in 0..chunk.num_columns() {
            for j in i + 1..chunk.num_columns() {
                let (Some(a), Some(b)) =
                    (index_buffer_of(chunk.column(i)), index_buffer_of(chunk.column(j)))
                else {
                    continue;
                };
                if !Arc::ptr_eq(a, b) {
                    continue;
                }
                // One buffer, one wire form: both views decode alike, and as views they share.
                let (da, db) = (decoded.column(i), decoded.column(j));
                prop_assert_eq!(wire_form(da), wire_form(db));
                if let (Some(da), Some(db)) = (index_buffer_of(da), index_buffer_of(db)) {
                    prop_assert!(Arc::ptr_eq(da, db), "columns {} and {} decode apart", i, j);
                }
            }
        }

        let unshared: usize = chunk
            .columns()
            .iter()
            .map(|column| encode_chunk(&DataChunk::new(vec![column.clone()])).len() - FRAME_HEADER)
            .sum();
        prop_assert!(
            frame.len() <= FRAME_HEADER + unshared,
            "{} B against {} B with every view's indices written out",
            frame.len(),
            FRAME_HEADER + unshared
        );
    }
}

//! Model-based property tests of the `R` frame codec on chunks shaped like the engine's join
//! output: one to three index buffers, each shared by several `Dict` views over plain, text,
//! NULL-heavy and float dictionaries, beside run-length, all-NULL and plain columns. The model
//! is the chunk's logical cells. For one frame, each case checks that
//!
//! * decoding the encoded frame gives back every cell (floats compared by their bits);
//! * views that shared an index buffer on the server share one again after decoding;
//! * the frame is never larger than the form that writes each view's indices out in full —
//!   the sum of the columns encoded one per frame, where nothing can be shared.
//!
//! For a result of several such chunks over a few shared sources, whose frames reference rows
//! earlier frames sent, some of them, or none, each case checks that
//!
//! * every chunk the result decoder gives back equals the chunk's stateless round trip;
//! * the result's frames are together no larger than the stateless frames;
//! * the first frame is the stateless frame, byte for byte.

use std::sync::Arc;

use perm_algebra::{Array, DataChunk, Value};
use perm_service::codec::{decode_chunk, encode_chunk, ResultDecoder, ResultEncoder};
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

/// The index buffer of one group of views in one frame of a result. The first frame draws from
/// the lower half of the source; later ones reuse rows the first frame used (covered), draw
/// from the whole source (partly covered), from the upper half (disjoint), or run.
fn result_buffer(
    frame: usize,
    first: &[u32],
    rows: usize,
    source_len: u32,
    seed: u64,
) -> Arc<[u32]> {
    let mut rng = Rng::new(seed);
    let half = source_len.div_ceil(2);
    let draw = |rng: &mut Rng, from: u32, to: u32| from + rng.below(u64::from(to - from)) as u32;
    let mode = if frame == 0 { 0 } else { 1 + rng.below(4) };
    if mode == 4 {
        return index_buffer(rows, source_len, true, seed);
    }
    (0..rows)
        .map(|_| match mode {
            0 => draw(&mut rng, 0, half),
            1 => first[rng.below(first.len() as u64) as usize],
            2 => draw(&mut rng, 0, source_len),
            _ => draw(&mut rng, half.min(source_len - 1), source_len),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]
    #[test]
    fn a_result_refers_back_to_what_it_sent_and_decodes_as_its_frames_alone(
        frames in proptest::collection::vec((1usize..200, any::<u64>()), 1..6),
        sources in proptest::collection::vec(1u32..40, 1..4),
        columns in proptest::collection::vec((0u8..7, 0usize..3, any::<u64>()), 1..10),
    ) {
        // Each dict column keeps its source across frames unless one in eight frames swaps it.
        let mut dicts: Vec<Arc<Array>> = columns
            .iter()
            .map(|&(kind, buffer, seed)| {
                let len = sources[buffer % sources.len()] as usize;
                Arc::new(dictionary(kind % 4, len, seed))
            })
            .collect();
        let mut first: Vec<Vec<u32>> = vec![Vec::new(); sources.len()];
        let (mut encoder, mut decoder) = (ResultEncoder::default(), ResultDecoder::default());
        let (mut result_bytes, mut stateless_bytes) = (0, 0);
        for (frame, &(rows, seed)) in frames.iter().enumerate() {
            let mut rng = Rng::new(seed);
            let buffers: Vec<Arc<[u32]>> = sources
                .iter()
                .enumerate()
                .map(|(b, &len)| result_buffer(frame, &first[b], rows, len, rng.below(u64::MAX)))
                .collect();
            if frame == 0 {
                first = buffers.iter().map(|buffer| buffer.to_vec()).collect();
            }
            let chunk = DataChunk::new(
                columns
                    .iter()
                    .zip(&mut dicts)
                    .map(|(&(kind, buffer, seed), dict)| {
                        Arc::new(match kind {
                            0..=3 => {
                                if frame > 0 && rng.below(8) == 0 {
                                    *dict = Arc::new(dictionary(kind, dict.len(), rng.below(99)));
                                }
                                let indices = buffers[buffer % buffers.len()].clone();
                                Array::Dict { indices, dict: dict.clone() }
                            }
                            kind => other_column(kind - 4, rows, seed ^ frame as u64),
                        })
                    })
                    .collect(),
            );

            let stateless = encode_chunk(&chunk);
            let bytes = encoder.encode_chunk(&chunk);
            if frame == 0 {
                prop_assert_eq!(&bytes, &stateless);
            }
            let decoded = decoder.decode_chunk(&bytes[1..]).unwrap();
            let alone = decode_chunk(&stateless[1..]).unwrap();
            prop_assert_eq!(cells(&decoded), cells(&alone));
            prop_assert_eq!(cells(&decoded), cells(&chunk));
            result_bytes += bytes.len();
            stateless_bytes += stateless.len();
        }
        prop_assert!(
            result_bytes <= stateless_bytes,
            "{} B as one result against {} B as frames alone",
            result_bytes,
            stateless_bytes
        );
    }
}

/// A text and an int column over one index buffer whose later frames reference only rows the
/// first sent: they go out as a `4` and a `5` with no dictionary rows, decode over the first
/// frame's dictionary, and cannot be decoded alone.
#[test]
fn covered_frames_send_indices_into_the_first_frames_dictionary() {
    let (texts, ints) = (Arc::new(dictionary(1, 30, 7)), Arc::new(dictionary(0, 30, 8)));
    let chunk = |indices: Vec<u32>| {
        let indices: Arc<[u32]> = indices.into();
        // Two views over one buffer: the second one refers back to the first one's indices.
        DataChunk::new(vec![
            Arc::new(Array::Dict { indices: indices.clone(), dict: texts.clone() }),
            Arc::new(Array::Dict { indices, dict: ints.clone() }),
        ])
    };
    let chunks = [
        chunk((0..100).map(|i| i % 20).collect()),
        chunk((0..100).map(|i| (i * 7) % 20).collect()),
        chunk((0..100).map(|i| 19 - i % 20).collect()),
    ];
    let mut encoder = ResultEncoder::default();
    let frames: Vec<Vec<u8>> = chunks.iter().map(|chunk| encoder.encode_chunk(chunk)).collect();
    assert_eq!(frames[0], encode_chunk(&chunks[0]));
    // Header, then a `4` of 100 indices and a `5` naming it.
    for frame in &frames[1..] {
        assert_eq!(frame.len(), FRAME_HEADER + (1 + 4 + 4 * 100) + (1 + 4));
    }
    let mut decoder = ResultDecoder::default();
    let mut dictionaries = Vec::new();
    for (frame, chunk) in frames.iter().zip(&chunks) {
        let decoded = decoder.decode_chunk(&frame[1..]).unwrap();
        assert_eq!(cells(&decoded), cells(chunk));
        match decoded.column(0).as_ref() {
            Array::Dict { dict, .. } => dictionaries.push(dict.clone()),
            other => panic!("expected a view, got {other:?}"),
        }
    }
    assert!(dictionaries.iter().all(|dict| Arc::ptr_eq(dict, &dictionaries[0])), "one dictionary");
    assert!(decode_chunk(&frames[1][1..]).is_err(), "a frame alone remembers nothing");
}

//! Property fuzz of the wire protocol's frame decoders: take valid encoded frames, flip random
//! bytes, and feed the result to every decoder. A mutation may happen to produce another
//! valid frame (fine) or a corrupt one (must return a clean `ServiceError`) — but decoding
//! must never panic, hang, or allocate beyond the frame's own size. The deterministic tests
//! at the bottom pin the no-over-allocation guarantee directly: frames *claiming* huge
//! element counts with tiny bodies must fail fast instead of pre-allocating gigabytes.

use std::sync::Arc;

use perm_algebra::{Array, DataChunk, DataType, Schema, Value};
use perm_service::codec::{
    decode_chunk, decode_done, decode_schema, encode_chunk, encode_done, encode_schema,
    ResultDecoder, ResultEncoder,
};
use proptest::prelude::*;

/// A spread of valid frames covering every frame kind, array type and array encoding.
fn sample_frames() -> Vec<Vec<u8>> {
    let schema = Schema::from_pairs(&[
        ("id", DataType::Int),
        ("name", DataType::Text),
        ("price", DataType::Float),
        ("since", DataType::Date),
        ("flag", DataType::Bool),
        ("nothing", DataType::Null),
    ]);
    let plain = DataChunk::new(vec![
        Arc::new(
            Array::from_values([Value::Int(1), Value::Null, Value::Int(-7)].into_iter()).unwrap(),
        ),
        Arc::new(
            Array::from_values([Value::text("a"), Value::text("bc"), Value::Null].into_iter())
                .unwrap(),
        ),
        Arc::new(
            Array::from_values([Value::Float(1.5), Value::Float(-0.25), Value::Null].into_iter())
                .unwrap(),
        ),
        Arc::new(
            Array::from_values([Value::Bool(true), Value::Null, Value::Bool(false)].into_iter())
                .unwrap(),
        ),
        Arc::new(
            Array::from_values([Value::Date(1), Value::Date(-400), Value::Null].into_iter())
                .unwrap(),
        ),
        Arc::new(Array::Null { len: 3 }),
    ]);
    let dict = Arc::new(
        Array::from_values((0..4).map(|i| Value::text(format!("v{i}").as_str()))).unwrap(),
    );
    let dict_chunk =
        DataChunk::new(vec![Arc::new(Array::Dict { indices: vec![1, 1, 3, 3, 1].into(), dict })]);
    let rle_chunk = DataChunk::new(vec![Arc::new(
        Array::from_values(std::iter::repeat_n(Value::Int(9), 300)).unwrap(),
    )]);
    vec![
        encode_schema(&schema),
        encode_chunk(&plain),
        encode_chunk(&dict_chunk),
        encode_chunk(&rle_chunk),
        encode_done(12345),
        encode_chunk(&join_batch(&[0, 2, 1, 2, 0, 1])),
        encode_chunk(&join_batch(&[2, 2, 2, 2, 0, 0, 0, 0, 0])),
    ]
}

/// A join batch as the engine emits it: every column a view of its source column, all of them
/// through the one index buffer `rows`.
fn join_batch(rows: &[u32]) -> DataChunk {
    join_source().take_dict(&Arc::from(rows))
}

/// The source of [`join_batch`]: three rows of an int, a text and an all-NULL column.
fn join_source() -> DataChunk {
    DataChunk::new(vec![
        Arc::new(Array::from_values((0..3).map(|i| Value::Int(i * 100))).unwrap()),
        Arc::new(
            Array::from_values([Value::text("x"), Value::Null, Value::text("z")].into_iter())
                .unwrap(),
        ),
        Arc::new(Array::Null { len: 3 }),
    ])
}

/// The first two frames of a result over one join source: the second references only rows the
/// first sent, so its two views go out as a `4` and a `5`.
fn result_frames() -> [Vec<u8>; 2] {
    let source = join_source();
    let mut encoder = ResultEncoder::default();
    let first = encoder.encode_chunk(&source.take_dict(&Arc::from(&[0u32, 2, 1, 2, 0, 1][..])));
    let second = encoder.encode_chunk(&source.take_dict(&Arc::from(&[1u32, 1, 0, 2][..])));
    assert!(decode_chunk(&second[1..]).is_err(), "the second frame refers back");
    [first, second]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn mutated_result_frames_decode_or_error_but_never_panic(
        mutations in proptest::collection::vec((0usize..4096, 0u16..256), 1..8),
        truncate in 0usize..4096,
    ) {
        let [first, mut bytes] = result_frames();
        for &(pos, val) in &mutations {
            let len = bytes.len();
            bytes[pos % len] = val as u8;
        }
        bytes.truncate(1 + truncate % bytes.len());
        let mut decoder = ResultDecoder::default();
        decoder.decode_chunk(&first[1..]).unwrap();
        let _ = decoder.decode_chunk(&bytes[1..]);
        let _ = decode_chunk(&bytes[1..]);
    }

    #[test]
    fn mutated_frames_decode_or_error_but_never_panic(
        which in 0usize..7,
        mutations in proptest::collection::vec((0usize..4096, 0u16..256), 1..8),
        truncate in 0usize..4096,
    ) {
        let frames = sample_frames();
        let mut bytes = frames[which].clone();
        for &(pos, val) in &mutations {
            let len = bytes.len();
            bytes[pos % len] = val as u8;
        }
        // Also exercise truncation, the most common real-world corruption.
        bytes.truncate(1 + truncate % bytes.len());
        // The server routes on the frame kind it *expects*, so a mutated body can reach any
        // decoder regardless of its (possibly mutated) tag byte — run all of them. The
        // property is the absence of panics and runaway allocations; Ok results are fine.
        let body = &bytes[1..];
        let _ = decode_schema(body);
        let _ = decode_chunk(body);
        let _ = decode_done(body);
    }
}

/// Columns sharing one index buffer round-trip to the same rows whichever wire form the buffer
/// gets: compacted dictionary indices when rows alternate, run-length when they repeat in
/// stretches (the probe side of a duplicating provenance join).
#[test]
fn views_sharing_an_index_buffer_round_trip() {
    for (rows, run_length) in
        [(&[0u32, 2, 1, 2, 0, 1][..], false), (&[2, 2, 2, 2, 0, 0, 0, 0, 0][..], true)]
    {
        let batch = join_batch(rows);
        let buffers: Vec<_> = batch
            .columns()
            .iter()
            .filter_map(|c| match c.as_ref() {
                Array::Dict { indices, .. } => Some(indices.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(buffers.len(), 2, "the all-NULL column needs no view");
        assert!(Arc::ptr_eq(&buffers[0], &buffers[1]));
        let decoded = decode_chunk(&encode_chunk(&batch)[1..]).unwrap();
        assert_eq!(decoded, batch);
        for c in 0..2 {
            let on_wire = decoded.column(c);
            assert_eq!(matches!(on_wire.as_ref(), Array::RunLength { .. }), run_length);
            assert_eq!(matches!(on_wire.as_ref(), Array::Dict { .. }), !run_length);
        }
    }
}

/// A frame claiming `u32::MAX` plain values with an empty body must fail fast. Before the
/// decoder capped preallocations by the bytes actually remaining, this aborted the process
/// trying to reserve 32 GiB.
#[test]
fn huge_claimed_plain_length_errors_without_allocating() {
    for type_tag in [1u8, 2, 3, 4] {
        let mut body = Vec::new();
        body.extend_from_slice(&3u32.to_be_bytes()); // rows
        body.extend_from_slice(&1u16.to_be_bytes()); // ncols
        body.push(0); // plain encoding
        body.push(type_tag);
        body.extend_from_slice(&u32::MAX.to_be_bytes()); // claimed len, no payload
        assert!(decode_chunk(&body).is_err(), "type tag {type_tag}");
    }
}

/// Type tag 6 carried a boxed mixed-type column up to protocol v4. Every column holds one type
/// now: the tag is unknown, and a frame carrying it is a protocol error, never a panic.
#[test]
fn the_retired_mixed_type_tag_is_a_protocol_error() {
    // Tag 6 as v4 framed it: three rows, one tagged value each (Int 1, Text "x", NULL).
    let mut array = vec![0, 6];
    array.extend_from_slice(&3u32.to_be_bytes());
    array.push(2);
    array.extend_from_slice(&1i64.to_be_bytes());
    array.extend_from_slice(&[4, 0, 0, 0, 1, b'x', 0]);
    let err = decode_chunk(&chunk_body(3, &[array])).unwrap_err();
    assert!(err.to_string().contains("unknown array type tag 6"), "{err}");
}

/// Same for the encoded forms: dictionary index counts and run counts are wire-controlled.
#[test]
fn huge_claimed_encoded_counts_error_without_allocating() {
    for enc_tag in [1u8, 2] {
        let mut body = Vec::new();
        body.extend_from_slice(&3u32.to_be_bytes()); // rows
        body.extend_from_slice(&1u16.to_be_bytes()); // ncols
        body.push(enc_tag);
        body.extend_from_slice(&u32::MAX.to_be_bytes()); // claimed count, no payload
        assert!(decode_chunk(&body).is_err(), "encoding tag {enc_tag}");
    }
}

/// And for the schema header's column count.
#[test]
fn huge_claimed_schema_arity_errors_without_allocating() {
    let body = u16::MAX.to_be_bytes().to_vec();
    assert!(decode_schema(&body).is_err());
}

/// An `R` frame body of `rows` rows whose columns are the given encoded arrays.
fn chunk_body(rows: u32, arrays: &[Vec<u8>]) -> Vec<u8> {
    let mut body = rows.to_be_bytes().to_vec();
    body.extend_from_slice(&(arrays.len() as u16).to_be_bytes());
    arrays.iter().for_each(|array| body.extend_from_slice(array));
    body
}

/// A plain Int array with no NULLs.
fn plain_ints(values: &[i64]) -> Vec<u8> {
    let mut array = vec![0, 1];
    array.extend_from_slice(&(values.len() as u32).to_be_bytes());
    array.extend(std::iter::repeat_n(0xff, values.len().div_ceil(8)));
    values.iter().for_each(|v| array.extend_from_slice(&v.to_be_bytes()));
    array
}

/// A dictionary array (encoding 1): `indices`, then `dict`.
fn dict(indices: &[u32], dict: &[i64]) -> Vec<u8> {
    let mut array = vec![1];
    array.extend_from_slice(&(indices.len() as u32).to_be_bytes());
    indices.iter().for_each(|i| array.extend_from_slice(&i.to_be_bytes()));
    array.extend(plain_ints(dict));
    array
}

/// A shared dictionary array (encoding 3) over the frame's `ordinal`-th dict or run-length.
fn shared(ordinal: u32, dict: &[i64]) -> Vec<u8> {
    let mut array = vec![3];
    array.extend_from_slice(&ordinal.to_be_bytes());
    array.extend(plain_ints(dict));
    array
}

/// The decoder does not recurse into an encoded array's inner array: it must be plain. A frame
/// nesting 50 000 dictionary tags used to overflow the decoding thread's stack and abort the
/// process; now the second tag is an error.
#[test]
fn nested_encodings_are_rejected_without_recursing() {
    let mut array = Vec::new();
    for _ in 0..50_000 {
        array.extend_from_slice(&[1, 0, 0, 0, 0]); // dict, no indices, then its dictionary
    }
    array.extend(plain_ints(&[]));
    let error = decode_chunk(&chunk_body(0, &[array])).unwrap_err().to_string();
    assert!(error.contains("must be plain"), "{error}");
    // One level is the protocol; tags 2 and 3 are held to it too.
    assert!(decode_chunk(&chunk_body(1, &[dict(&[0], &[5])])).is_ok());
    let nested_rle = [&[2, 0, 0, 0, 1, 0, 0, 0, 1][..], &dict(&[0], &[5])].concat();
    assert!(decode_chunk(&chunk_body(1, &[nested_rle])).is_err());
    let nested_shared = [&[3, 0, 0, 0, 0][..], &dict(&[0], &[5])].concat();
    assert!(decode_chunk(&chunk_body(1, &[dict(&[0], &[5]), nested_shared])).is_err());
}

/// An encoding-3 array can only share indices the frame has already written, and its own
/// dictionary must cover them; anything else is a clean error.
#[test]
fn shared_arrays_must_refer_back_to_indices_they_cover() {
    let indices = [0, 2, 2, 1];
    let valid = chunk_body(4, &[dict(&indices, &[10, 11, 12]), shared(0, &[20, 21, 22])]);
    let decoded = decode_chunk(&valid).unwrap();
    match (decoded.column(0).as_ref(), decoded.column(1).as_ref()) {
        (Array::Dict { indices: a, .. }, Array::Dict { indices: b, .. }) => {
            assert!(Arc::ptr_eq(a, b), "one index buffer for both columns");
        }
        other => panic!("expected two dict columns, got {other:?}"),
    }
    assert_eq!(decoded.column(1).value(1), Value::Int(22));

    for (case, body) in [
        ("nothing written yet", chunk_body(4, &[shared(0, &[20, 21, 22])])),
        (
            "forward ordinal",
            chunk_body(4, &[shared(1, &[20, 21, 22]), dict(&indices, &[10, 11, 12])]),
        ),
        ("unknown ordinal", chunk_body(4, &[dict(&indices, &[10, 11, 12]), shared(1, &[20])])),
        (
            "ordinal u32::MAX",
            chunk_body(4, &[dict(&indices, &[10, 11, 12]), shared(u32::MAX, &[20, 21, 22])]),
        ),
        (
            "index 2 beyond a 2-row dictionary",
            chunk_body(4, &[dict(&indices, &[10, 11, 12]), shared(0, &[20, 21])]),
        ),
        ("truncated ordinal", chunk_body(4, &[dict(&indices, &[10, 11, 12]), vec![3, 0, 0]])),
    ] {
        assert!(decode_chunk(&body).is_err(), "{case}");
    }
    // Over a run-length array the shared values must be exactly one per run.
    let rle = [&[2, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4][..], &plain_ints(&[1, 2])].concat();
    assert!(decode_chunk(&chunk_body(4, &[rle.clone(), shared(0, &[7, 8])])).is_ok());
    assert!(decode_chunk(&chunk_body(4, &[rle, shared(0, &[7, 8, 9])])).is_err());
}

/// A remembered dictionary array (encoding 4): indices into the column's remembered dictionary.
fn remembered(indices: &[u32]) -> Vec<u8> {
    let mut array = vec![4];
    array.extend_from_slice(&(indices.len() as u32).to_be_bytes());
    indices.iter().for_each(|i| array.extend_from_slice(&i.to_be_bytes()));
    array
}

/// A shared remembered array (encoding 5) over the frame's `ordinal`-th array.
fn shared_remembered(ordinal: u32) -> Vec<u8> {
    [&[5][..], &ordinal.to_be_bytes()].concat()
}

/// Encodings 4 and 5 index what their column remembers, and only a result decoder remembers: a
/// frame alone, a column that remembers nothing, an index past the remembered dictionary, a 5
/// naming anything but an earlier 4, a 3 naming a 4, and corrupt lengths are clean errors.
#[test]
fn remembered_arrays_must_index_what_their_column_remembers() {
    // A result decoder whose two columns remember three rows each.
    let primed = || {
        let mut decoder = ResultDecoder::default();
        let first = chunk_body(4, &[dict(&[0, 2, 2, 1], &[10, 11, 12]), shared(0, &[20, 21, 22])]);
        decoder.decode_chunk(&first).unwrap();
        decoder
    };
    let valid = chunk_body(3, &[remembered(&[2, 0, 2]), shared_remembered(0)]);
    let decoded = primed().decode_chunk(&valid).unwrap();
    assert_eq!(decoded.column(0).value(0), Value::Int(12));
    assert_eq!(decoded.column(1).value(1), Value::Int(20));
    match (decoded.column(0).as_ref(), decoded.column(1).as_ref()) {
        (Array::Dict { indices: a, .. }, Array::Dict { indices: b, .. }) => {
            assert!(Arc::ptr_eq(a, b), "one index buffer for both columns");
        }
        other => panic!("expected two dict columns, got {other:?}"),
    }
    assert!(decode_chunk(&valid).is_err(), "a frame alone remembers nothing");

    for (case, body) in [
        ("a third column remembers nothing", {
            chunk_body(3, &[remembered(&[2, 0, 2]), shared_remembered(0), remembered(&[0; 3])])
        }),
        ("index 3 past a 3-row dictionary", chunk_body(1, &[remembered(&[3])])),
        ("index u32::MAX", chunk_body(1, &[remembered(&[u32::MAX])])),
        ("a 5 naming no array", chunk_body(1, &[shared_remembered(0)])),
        ("a 5 naming a later 4", { chunk_body(1, &[shared_remembered(1), remembered(&[0])]) }),
        ("a 5 naming a 1", chunk_body(1, &[dict(&[0], &[5]), shared_remembered(0)])),
        ("a 3 naming a 4", chunk_body(1, &[remembered(&[0]), shared(0, &[5])])),
        ("a truncated ordinal", chunk_body(1, &[remembered(&[0]), vec![5, 0, 0]])),
        ("a count of u32::MAX with no indices", {
            chunk_body(1, &[[&[4][..], &u32::MAX.to_be_bytes()].concat()])
        }),
        ("a count past the row count", chunk_body(1, &[remembered(&[0, 1])])),
    ] {
        assert!(primed().decode_chunk(&body).is_err(), "{case}");
    }

    // A 5 over a 4 whose indices reach past the second column's shorter memory.
    let mut decoder = ResultDecoder::default();
    decoder
        .decode_chunk(&chunk_body(2, &[dict(&[2, 2], &[1, 2, 3]), dict(&[0, 0], &[4])]))
        .unwrap();
    let body = chunk_body(1, &[remembered(&[2]), shared_remembered(0)]);
    assert!(decoder.decode_chunk(&body).is_err(), "index 2 past the second column's one row");
}

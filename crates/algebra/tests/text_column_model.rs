//! Model-based property test of the unboxed text column: `Array::Text` is offsets over one byte
//! buffer, and every kernel that moves or compares text must agree with the obvious model — a
//! `Vec<Option<String>>` — row for row: empty strings, multi-byte UTF-8 and NULL runs included.

use std::sync::Arc;

use proptest::prelude::*;

use perm_algebra::{Array, DataChunk, Value};

/// The texts a column draws from: empty, ASCII, multi-byte, a shared prefix, a long one.
const TEXTS: [&str; 9] =
    ["", "a", "ab", "b", "é", "żółw", "🐢🐢", "ab\u{0301}", "a rather longer text value, by far"];

type Model = Vec<Option<String>>;

/// A column of up to 40 rows; codes 0–2 are NULL (so NULL runs are common), the rest texts.
fn model_strategy() -> impl Strategy<Value = Model> {
    proptest::collection::vec(0usize..TEXTS.len() + 3, 0..40).prop_map(|codes| {
        codes.into_iter().map(|code| code.checked_sub(3).map(|t| TEXTS[t].to_string())).collect()
    })
}

fn array_of(model: &Model) -> Array {
    Array::from_values(model.iter().map(|row| match row {
        Some(text) => Value::text(text.as_str()),
        None => Value::Null,
    }))
    .unwrap()
}

fn rows_of(array: &Array) -> Model {
    (0..array.len())
        .map(|i| match array.value(i) {
            Value::Null => None,
            Value::Text(text) => Some(text.to_string()),
            other => panic!("a text column holds {other:?}"),
        })
        .collect()
}

/// What `byte_size` must report for a text column of these rows: offsets, bytes, validity words.
fn exact_bytes(model: &Model) -> usize {
    let text: usize = model.iter().flatten().map(String::len).sum();
    4 * (model.len() + 1) + text + 8 * model.len().div_ceil(64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Building, reading back, measuring and formatting.
    #[test]
    fn build_value_byte_size_and_format(model in model_strategy()) {
        let array = array_of(&model);
        prop_assert_eq!(rows_of(&array), model.clone());
        if let Array::Text { offsets, bytes, .. } = &array {
            prop_assert_eq!(offsets.len(), model.len() + 1);
            prop_assert_eq!(bytes.len(), *offsets.last().unwrap() as usize);
            prop_assert_eq!(array.byte_size(), exact_bytes(&model));
        } else {
            // No text at all: the builder never typed the column.
            prop_assert!(model.iter().all(Option::is_none));
        }
        for (i, row) in model.iter().enumerate() {
            let mut shown = String::new();
            array.format_into(i, &mut shown);
            prop_assert_eq!(shown.as_str(), row.as_deref().unwrap_or("NULL"));
            prop_assert_eq!(array.is_null(i), row.is_none());
        }
    }

    /// `filter`, `slice`, `take` and `take_dict` against the model.
    #[test]
    fn filter_slice_and_gathers(
        model in model_strategy(),
        mask_bits in proptest::collection::vec(any::<bool>(), 40..41),
        picks in proptest::collection::vec(0usize..40, 0..60),
        cut in (0usize..40, 0usize..40),
    ) {
        let array = Arc::new(array_of(&model));
        let n = model.len();

        let mask = &mask_bits[..n];
        let kept: Model =
            model.iter().zip(mask).filter(|(_, keep)| **keep).map(|(r, _)| r.clone()).collect();
        // A filter is a view over the column; decoded, it is the kept rows' text end to end.
        let filtered = array.filter(mask);
        prop_assert_eq!(rows_of(&filtered), kept.clone());
        prop_assert_eq!(&filtered, &array_of(&kept));
        let decoded = filtered.to_plain();
        if matches!(decoded, Array::Text { .. }) {
            prop_assert_eq!(decoded.byte_size(), exact_bytes(&kept));
        }

        let (offset, len) = (cut.0.min(n), cut.1.min(n - cut.0.min(n)));
        let sliced = array.slice(offset, len);
        prop_assert_eq!(rows_of(&sliced), model[offset..offset + len].to_vec());
        if matches!(sliced, Array::Text { .. }) {
            prop_assert_eq!(sliced.byte_size(), exact_bytes(&model[offset..offset + len].to_vec()));
        }

        if n > 0 {
            let indices: Vec<u32> = picks.iter().map(|p| (p % n) as u32).collect();
            let gathered: Model = indices.iter().map(|&i| model[i as usize].clone()).collect();
            prop_assert_eq!(rows_of(&array.take(&indices)), gathered.clone());
            let view = array.take_dict(&Arc::from(indices.as_slice()));
            prop_assert_eq!(rows_of(&view), gathered.clone());
            prop_assert_eq!(rows_of(&view.to_plain()), gathered.clone());
            prop_assert_eq!(&view, &array.take(&indices));
            // A view filters and slices as its rows do.
            let view_mask: Vec<bool> = (0..indices.len()).map(|i| mask_bits[i % 40]).collect();
            let view_kept: Model = gathered
                .iter()
                .zip(&view_mask)
                .filter(|(_, keep)| **keep)
                .map(|(r, _)| r.clone())
                .collect();
            prop_assert_eq!(rows_of(&Arc::new(view).filter(&view_mask)), view_kept);
        }
    }

    /// `concat` over plain, all-NULL and view parts — by array and by chunk.
    #[test]
    fn concat_plain_null_and_dict_parts(
        first in model_strategy(),
        second in model_strategy(),
        nulls in 0usize..5,
        picks in proptest::collection::vec(0usize..40, 0..30),
    ) {
        let (a, b) = (Arc::new(array_of(&first)), Arc::new(array_of(&second)));
        let pad = Arc::new(Array::Null { len: nulls });
        let indices: Vec<u32> = match second.len() {
            0 => Vec::new(),
            n => picks.iter().map(|p| (p % n) as u32).collect(),
        };
        let view = Arc::new(b.take_dict(&Arc::from(indices.as_slice())));
        let mut model = first.clone();
        model.extend(std::iter::repeat_n(None, nulls));
        model.extend(indices.iter().map(|&i| second[i as usize].clone()));
        model.extend(second.iter().cloned());

        let joined = Array::concat(&[&a, &pad, &view, &b]).unwrap();
        prop_assert_eq!(rows_of(&joined), model.clone());
        prop_assert_eq!(&joined, &array_of(&model));
        if matches!(joined, Array::Text { .. }) {
            prop_assert_eq!(joined.byte_size(), exact_bytes(&model));
        }
        let chunks: Vec<DataChunk> =
            [a, pad, view, b].into_iter().map(|part| DataChunk::new(vec![part])).collect();
        let chunk = DataChunk::concat(1, &chunks).unwrap();
        prop_assert_eq!(rows_of(chunk.column(0)), model);
    }

    /// `compare` is the model's order (NULLs first, then text bytewise) and `==` its equality —
    /// whatever the invalid slots and whichever way the column was built.
    #[test]
    fn compare_and_eq(left in model_strategy(), right in model_strategy()) {
        let (a, b) = (array_of(&left), array_of(&right));
        for (i, x) in left.iter().enumerate() {
            for (j, y) in right.iter().enumerate() {
                prop_assert_eq!(a.compare(i, &b, j), x.cmp(y), "{:?} vs {:?}", x, y);
            }
        }
        prop_assert_eq!(a == b, left == right);
        // The same rows laid out by another route: two slices, concatenated.
        let half = left.len() / 2;
        let relaid =
            Array::concat(&[&a.slice(0, half), &a.slice(half, left.len() - half)]).unwrap();
        prop_assert_eq!(&relaid, &a);
        // One row changed is a different column.
        if let Some(row) = left.iter().position(Option::is_some) {
            let mut changed = left.clone();
            changed[row] = Some(format!("{}!", left[row].as_deref().unwrap()));
            prop_assert_ne!(&array_of(&changed), &a);
            changed[row] = None;
            prop_assert_ne!(&array_of(&changed), &a);
        }
    }
}

/// Text that 32-bit offsets cannot address is refused where it would be laid end to end — on
/// the lengths alone, before a byte is copied — and boxed where a gather would repeat it.
#[test]
fn more_text_than_offsets_address_is_refused_not_wrapped() {
    use perm_algebra::{AlgebraError, Bitmap};
    // Two columns that each claim 3 GiB of text (offsets only: nothing that large is allocated).
    let huge = || Array::Text {
        offsets: vec![0, 3 << 30],
        bytes: Vec::new(),
        validity: Bitmap::all_set(1),
    };
    let (a, b) = (huge(), huge());
    let refused = AlgebraError::ColumnTooLarge { bytes: 6 << 30 };
    assert_eq!(Array::concat(&[&a, &b]), Err(refused.clone()));
    let chunks = [DataChunk::new(vec![Arc::new(a)]), DataChunk::new(vec![Arc::new(b)])];
    assert_eq!(DataChunk::concat(1, &chunks), Err(refused));
}

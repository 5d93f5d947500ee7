//! Columnar vectors ([`Array`]) and fixed-size batches ([`DataChunk`]).
//!
//! The executor moves data between operators as chunks of up to [`DEFAULT_CHUNK_SIZE`] rows,
//! stored column-wise: one typed [`Array`] per attribute plus a validity bitmap marking NULLs.
//! Predicates then evaluate into a filter mask whose kept positions re-address every column
//! through one index buffer, projections gather columns instead of building per-row
//! `Vec<Value>`s, and joins probe on column slices — the per-row allocation and `clone()`
//! traffic of tuple-at-a-time execution disappears from the hot path.
//!
//! Tuples still exist at the edges (SQL literals, INSERT values, client-visible rows) and the
//! chunk layer converts losslessly in both directions: [`DataChunk::from_tuples`] /
//! [`DataChunk::tuple_at`]. Every column holds one scalar type: the plan casts whatever would
//! mix them (a `CASE` with INT and FLOAT arms, the branches of a set operation, an insert into
//! a wider column) before a value reaches a column, and [`ArrayBuilder`] refuses a value of
//! another type. There is no boxed fallback.
//!
//! Every native column is a few flat buffers, text included: [`Array::Text`] is offsets over
//! one byte buffer, so a column of any length costs three allocations and its rows move as a
//! view or in one copy. Reading a row as a [`Value`] ([`Array::value`]) boxes it — for text
//! that is an allocation — which is what the row edges do; column-wise code reads
//! [`text_row`], orders with [`Array::compare`] and keys with [`crate::keys`].

use std::borrow::Cow;
use std::sync::Arc;

use crate::error::AlgebraError;
use crate::tuple::Tuple;
use crate::value::{DataType, Value};

/// Number of rows per [`DataChunk`] in the executor pipeline.
pub const DEFAULT_CHUNK_SIZE: usize = 1024;

/// A validity bitmap: bit `i` is set iff row `i` holds a (non-NULL) value.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Bitmap {
        Bitmap::default()
    }

    /// A bitmap of `len` bits, all set (all rows valid).
    pub fn all_set(len: usize) -> Bitmap {
        let mut b = Bitmap { words: vec![u64::MAX; len.div_ceil(64)], len };
        b.clear_tail();
        b
    }

    /// A bitmap of `len` bits, none set (all rows NULL).
    pub fn all_unset(len: usize) -> Bitmap {
        Bitmap { words: vec![0; len.div_ceil(64)], len }
    }

    fn clear_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the bitmap empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Append all bits of `other`, a word at a time (the per-bit [`Bitmap::push`] loop is too
    /// slow for column concatenation).
    pub fn extend_from(&mut self, other: &Bitmap) {
        if other.len == 0 {
            return;
        }
        let offset = self.len % 64;
        if offset == 0 {
            self.words.extend_from_slice(&other.words);
        } else {
            let shift = 64 - offset;
            for &w in &other.words {
                if let Some(last) = self.words.last_mut() {
                    *last |= w << offset;
                }
                self.words.push(w >> shift);
            }
        }
        self.len += other.len;
        self.words.truncate(self.len.div_ceil(64));
        self.clear_tail();
    }

    /// Append a bit.
    #[inline]
    pub fn push(&mut self, set: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if set {
            self.words[self.len / 64] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// The bits of the rows at `indices`. A no-NULL column skips the per-row bookkeeping
    /// entirely — as does [`Bitmap::slice`].
    fn take(&self, indices: &[u32]) -> Bitmap {
        if self.all_set_bits() {
            return Bitmap::all_set(indices.len());
        }
        indices.iter().map(|&i| self.get(i as usize)).collect()
    }

    /// The bits of the rows `[offset, offset + len)`.
    fn slice(&self, offset: usize, len: usize) -> Bitmap {
        if self.all_set_bits() {
            return Bitmap::all_set(len);
        }
        (offset..offset + len).map(|i| self.get(i)).collect()
    }

    /// Number of set bits.
    pub fn count_set(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Are all bits set (no NULLs)?
    pub fn all_set_bits(&self) -> bool {
        self.count_set() == self.len
    }

    /// Iterate the bits in order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(|i| self.get(i))
    }
}

impl FromIterator<bool> for Bitmap {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Bitmap {
        let mut b = Bitmap::new();
        for bit in iter {
            b.push(bit);
        }
        b
    }
}

/// A typed columnar vector of scalar values with a validity bitmap.
///
/// The typed variants store unboxed native values of one type each; [`Array::Null`] is the
/// degenerate all-NULL column.
/// [`Array::Dict`] and [`Array::RunLength`] are *encoded* views over another array; equality
/// ([`PartialEq`]) is logical, so an encoded array equals its decoded form row for row.
#[derive(Debug, Clone)]
pub enum Array {
    /// Booleans.
    Bool {
        /// Native values (`false` at invalid slots).
        values: Vec<bool>,
        /// Validity bitmap.
        validity: Bitmap,
    },
    /// 64-bit integers.
    Int {
        /// Native values (`0` at invalid slots).
        values: Vec<i64>,
        /// Validity bitmap.
        validity: Bitmap,
    },
    /// 64-bit floats.
    Float {
        /// Native values (`0.0` at invalid slots).
        values: Vec<f64>,
        /// Validity bitmap.
        validity: Bitmap,
    },
    /// UTF-8 text, unboxed: row `i` is `bytes[offsets[i]..offsets[i + 1]]` (see [`text_row`]).
    /// A column is three buffers however many rows it has, so text moves as a view or as one
    /// `memcpy`, and keys are hashed and compared where they lie ([`crate::keys`]).
    Text {
        /// One more position than rows, ascending from 0 (an invalid slot is empty). 32 bits
        /// address 4 GiB of text per column; what would outgrow them is refused
        /// ([`AlgebraError::ColumnTooLarge`]) or, from a gather or a broadcast, kept as a view
        /// over its source ([`Array::Dict`], [`Array::RunLength`]), never wrapped.
        offsets: Vec<u32>,
        /// The rows' UTF-8 end to end; every row's slice is valid UTF-8 on its own.
        bytes: Vec<u8>,
        /// Validity bitmap.
        validity: Bitmap,
    },
    /// Dates as days since 1970-01-01.
    Date {
        /// Native values (`0` at invalid slots).
        values: Vec<i32>,
        /// Validity bitmap.
        validity: Bitmap,
    },
    /// A column of `len` NULLs.
    Null {
        /// Number of rows.
        len: usize,
    },
    /// Dictionary-encoded view: row `i` is row `indices[i]` of the shared `dict` array.
    ///
    /// Joins produce this instead of materializing the repeated source tuples: the dictionary
    /// is the (already materialized) source column shared by refcount, and the index buffer is
    /// shared too — the columns a join batch takes from one side through one source buffer
    /// point at one composed buffer, so a batch of any width costs one buffer of 4-byte indices
    /// per source buffer its sides carry (two over plain sides). NULLs live in the
    /// dictionary (`dict.is_null(indices[i])`), so there is no separate validity map.
    Dict {
        /// One dictionary row index per output row; columns gathered together share it.
        indices: Arc<[u32]>,
        /// The shared dictionary of distinct (or at least source) rows.
        dict: Arc<Array>,
    },
    /// Run-length-encoded column: run `k` covers rows `[run_ends[k-1], run_ends[k])` and holds
    /// row `k` of `values`. Produced by wire serialization for long constant stretches; the
    /// executor never creates it on the hot path.
    RunLength {
        /// One representative row per run.
        values: Arc<Array>,
        /// Cumulative exclusive end offsets, strictly increasing; the last equals the length.
        run_ends: Vec<u32>,
    },
}

/// The bytes of row `i` of a text column ([`Array::Text`]).
#[inline]
pub fn text_row<'a>(offsets: &[u32], bytes: &'a [u8], i: usize) -> &'a [u8] {
    &bytes[offsets[i] as usize..offsets[i + 1] as usize]
}

/// A text row as a `str`. Rows are valid UTF-8 by construction (the builder copies `str`s, the
/// codec validates every value); bytes that are not would read as U+FFFD, never panic.
#[inline]
pub fn text_str(row: &[u8]) -> Cow<'_, str> {
    String::from_utf8_lossy(row)
}

/// The offset behind `len` bytes of text, if 32 bits still address it.
fn text_end(len: usize) -> Option<u32> {
    u32::try_from(len).ok()
}

/// Append the rows `[from, to)` of a text column to another's offsets and bytes: one copy of
/// their bytes. The caller has checked that the result stays addressable.
fn extend_text(
    out_offsets: &mut Vec<u32>,
    out_bytes: &mut Vec<u8>,
    offsets: &[u32],
    bytes: &[u8],
    from: usize,
    to: usize,
) {
    if from == to {
        return;
    }
    let (base, shift) = (offsets[from], out_bytes.len() as u32);
    out_bytes.extend_from_slice(&bytes[base as usize..offsets[to] as usize]);
    out_offsets.extend(offsets[from + 1..=to].iter().map(|end| end - base + shift));
}

/// [`Array::concat`] of text and all-NULL parts: one copy of each part's bytes, refused when
/// the parts together hold more text than offsets address.
fn concat_text(arrays: &[&Array]) -> Result<Array, AlgebraError> {
    let text_len = |a: &Array| match a {
        Array::Text { offsets, .. } => offsets.last().map_or(0, |&end| u64::from(end)),
        _ => 0,
    };
    let total: u64 = arrays.iter().map(|a| text_len(a)).sum();
    if total > u64::from(u32::MAX) {
        return Err(AlgebraError::ColumnTooLarge { bytes: total });
    }
    let mut offsets = Vec::with_capacity(arrays.iter().map(|a| a.len()).sum::<usize>() + 1);
    offsets.push(0);
    let mut bytes = Vec::with_capacity(total as usize);
    let mut validity = Bitmap::new();
    for a in arrays {
        match a {
            Array::Text { offsets: o, bytes: b, validity: v } => {
                extend_text(&mut offsets, &mut bytes, o, b, 0, a.len());
                validity.extend_from(v);
            }
            other => {
                offsets.resize(offsets.len() + other.len(), bytes.len() as u32);
                validity.extend_from(&Bitmap::all_unset(other.len()));
            }
        }
    }
    Ok(Array::Text { offsets, bytes, validity })
}

/// The run index covering row `i` of a run-length array with the given cumulative ends.
#[inline]
fn rle_run_index(run_ends: &[u32], i: usize) -> usize {
    run_ends.partition_point(|&end| end as usize <= i)
}

/// The index buffer of a dict view, shared by the columns that were gathered together.
type IndexBuffer = Arc<[u32]>;

/// One byte-size walk over shared buffers (forwarded columns, dictionaries, index buffers), by
/// address: those it has charged so far, and the sorted addresses of those it leaves alone
/// ([`DataChunk::byte_size_beside`]).
struct Charged<'a> {
    seen: std::collections::HashSet<usize>,
    elsewhere: &'a [usize],
}

/// The identity of a shared buffer: its allocation's address.
fn address<T: ?Sized>(shared: &Arc<T>) -> usize {
    Arc::as_ptr(shared) as *const () as usize
}

/// Is this the walk's first sight of `shared`, and is it the walk's to charge?
fn first_charge<T: ?Sized>(shared: &Arc<T>, charged: &mut Charged) -> bool {
    let address = address(shared);
    charged.elsewhere.binary_search(&address).is_err() && charged.seen.insert(address)
}

/// The bytes of a shared array, or nothing when the walk has charged it already.
fn charge_shared(array: &Arc<Array>, charged: &mut Charged) -> usize {
    if first_charge(array, charged) {
        array.charge(charged)
    } else {
        0
    }
}

/// The positions of the rows whose mask bit is set: a filter's one index buffer.
fn kept_rows(mask: &[bool]) -> IndexBuffer {
    // Branch-free: each row is written, the cursor passes kept rows only; no mispredictions.
    let mut kept = vec![0; mask.len()];
    let mut len = 0;
    for (row, &keep) in mask.iter().enumerate() {
        kept[len] = row as u32;
        len += usize::from(keep);
    }
    kept.truncate(len);
    kept.into()
}

/// The index buffer of a dict view over `inner` after gathering its rows at `outer`.
fn compose_indices(inner: &[u32], outer: &[u32]) -> IndexBuffer {
    outer.iter().map(|&i| inner[i as usize]).collect()
}

/// The run index of each gathered row of a run-length array: a dict view over its run values.
fn run_indices(run_ends: &[u32], outer: &[u32]) -> IndexBuffer {
    outer.iter().map(|&i| rle_run_index(run_ends, i as usize) as u32).collect()
}

impl Array {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Array::Bool { values, .. } => values.len(),
            Array::Int { values, .. } => values.len(),
            Array::Float { values, .. } => values.len(),
            Array::Text { offsets, .. } => offsets.len().saturating_sub(1),
            Array::Date { values, .. } => values.len(),
            Array::Null { len } => *len,
            Array::Dict { indices, .. } => indices.len(),
            Array::RunLength { run_ends, .. } => run_ends.last().map_or(0, |&end| end as usize),
        }
    }

    /// Is the array empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Is this a [`Array::Dict`] or [`Array::RunLength`] view (as opposed to a plain array)?
    pub fn is_encoded(&self) -> bool {
        matches!(self, Array::Dict { .. } | Array::RunLength { .. })
    }

    /// Resolve logical row `i` to the plain array and physical row that actually hold it,
    /// following any chain of encoded views.
    #[inline]
    pub(crate) fn resolve_row(&self, i: usize) -> (&Array, usize) {
        let (mut array, mut idx) = (self, i);
        loop {
            match array {
                Array::Dict { indices, dict } => {
                    idx = indices[idx] as usize;
                    array = dict;
                }
                Array::RunLength { values, run_ends } => {
                    idx = rle_run_index(run_ends, idx);
                    array = values;
                }
                _ => return (array, idx),
            }
        }
    }

    /// Is row `i` NULL?
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            Array::Bool { validity, .. }
            | Array::Int { validity, .. }
            | Array::Float { validity, .. }
            | Array::Text { validity, .. }
            | Array::Date { validity, .. } => !validity.get(i),
            Array::Null { .. } => true,
            Array::Dict { .. } | Array::RunLength { .. } => {
                let (array, idx) = self.resolve_row(i);
                array.is_null(idx)
            }
        }
    }

    /// The value at row `i`, boxed for the row edge (text is copied out: column-wise code reads
    /// [`text_row`], compares with [`Array::compare`] and keys with [`crate::keys`] instead).
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        match self {
            Array::Bool { values, validity } => {
                if validity.get(i) {
                    Value::Bool(values[i])
                } else {
                    Value::Null
                }
            }
            Array::Int { values, validity } => {
                if validity.get(i) {
                    Value::Int(values[i])
                } else {
                    Value::Null
                }
            }
            Array::Float { values, validity } => {
                if validity.get(i) {
                    Value::Float(values[i])
                } else {
                    Value::Null
                }
            }
            Array::Text { offsets, bytes, validity } => {
                if validity.get(i) {
                    Value::Text(Arc::from(&*text_str(text_row(offsets, bytes, i))))
                } else {
                    Value::Null
                }
            }
            Array::Date { values, validity } => {
                if validity.get(i) {
                    Value::Date(values[i])
                } else {
                    Value::Null
                }
            }
            Array::Null { .. } => Value::Null,
            Array::Dict { .. } | Array::RunLength { .. } => {
                let (array, idx) = self.resolve_row(i);
                array.value(idx)
            }
        }
    }

    /// The scalar type of the column ([`DataType::Null`] for an all-NULL column).
    pub fn data_type(&self) -> DataType {
        match self {
            Array::Bool { .. } => DataType::Bool,
            Array::Int { .. } => DataType::Int,
            Array::Float { .. } => DataType::Float,
            Array::Text { .. } => DataType::Text,
            Array::Date { .. } => DataType::Date,
            Array::Null { .. } => DataType::Null,
            Array::Dict { dict, .. } => dict.data_type(),
            Array::RunLength { values, .. } => values.data_type(),
        }
    }

    /// Build an array from a sequence of values of one type (NULLs aside): see
    /// [`ArrayBuilder::push`] for the values it refuses.
    pub fn from_values(values: impl IntoIterator<Item = Value>) -> Result<Array, AlgebraError> {
        let mut builder = ArrayBuilder::new();
        for v in values {
            builder.push(v)?;
        }
        Ok(builder.finish())
    }

    /// An array repeating `value` `len` times (literal broadcast). Text longer, all told, than
    /// offsets address is one run of the value.
    pub fn repeat(value: &Value, len: usize) -> Array {
        match value {
            Value::Null => Array::Null { len },
            Value::Bool(b) => Array::Bool { values: vec![*b; len], validity: Bitmap::all_set(len) },
            Value::Int(i) => Array::Int { values: vec![*i; len], validity: Bitmap::all_set(len) },
            Value::Float(f) => {
                Array::Float { values: vec![*f; len], validity: Bitmap::all_set(len) }
            }
            Value::Text(s) => match text_end(s.len().saturating_mul(len)) {
                Some(_) => Array::Text {
                    offsets: (0..=len).map(|i| (i * s.len()) as u32).collect(),
                    bytes: s.as_bytes().repeat(len),
                    validity: Bitmap::all_set(len),
                },
                None => Array::RunLength {
                    values: Arc::new(Array::repeat(value, 1)),
                    run_ends: vec![len as u32],
                },
            },
            Value::Date(d) => Array::Date { values: vec![*d; len], validity: Bitmap::all_set(len) },
        }
    }

    /// Keep only the rows whose mask bit is `true`, as a view: the kept rows' positions are its
    /// index buffer ([`Array::take_dict`]). Nothing is copied.
    pub fn filter(self: &Arc<Array>, mask: &[bool]) -> Array {
        self.take_dict(&kept_rows(mask))
    }

    /// Gather the rows at `indices` (column gather; indices may repeat and reorder). Text that
    /// repeats beyond what offsets address stays a view over this column, which is not copied.
    pub fn take(self: &Arc<Array>, indices: &[u32]) -> Array {
        self.gather(indices)
            .unwrap_or_else(|| Array::Dict { indices: indices.into(), dict: self.clone() })
    }

    /// [`Array::take`], or `None` for text that would outgrow what offsets address.
    fn gather(&self, indices: &[u32]) -> Option<Array> {
        fn gather<T: Copy>(values: &[T], indices: &[u32]) -> Vec<T> {
            indices.iter().map(|&i| values[i as usize]).collect()
        }
        Some(match self {
            Array::Bool { values, validity } => {
                Array::Bool { values: gather(values, indices), validity: validity.take(indices) }
            }
            Array::Int { values, validity } => {
                Array::Int { values: gather(values, indices), validity: validity.take(indices) }
            }
            Array::Float { values, validity } => {
                Array::Float { values: gather(values, indices), validity: validity.take(indices) }
            }
            Array::Text { offsets, bytes, validity } => {
                let rows = || indices.iter().map(|&i| text_row(offsets, bytes, i as usize));
                let total = rows().map(<[u8]>::len).sum();
                text_end(total)?;
                let mut out_offsets = Vec::with_capacity(indices.len() + 1);
                let mut out_bytes = Vec::with_capacity(total);
                out_offsets.push(0);
                for row in rows() {
                    out_bytes.extend_from_slice(row);
                    out_offsets.push(out_bytes.len() as u32);
                }
                Array::Text {
                    offsets: out_offsets,
                    bytes: out_bytes,
                    validity: validity.take(indices),
                }
            }
            Array::Date { values, validity } => {
                Array::Date { values: gather(values, indices), validity: validity.take(indices) }
            }
            Array::Null { .. } => Array::Null { len: indices.len() },
            // A dict view gathers by gathering its indices; the dictionary is untouched.
            Array::Dict { indices: inner, dict } => {
                Array::Dict { indices: compose_indices(inner, indices), dict: dict.clone() }
            }
            Array::RunLength { values, run_ends } => {
                Array::Dict { indices: run_indices(run_ends, indices), dict: values.clone() }
            }
        })
    }

    /// A copy of the rows `[offset, offset + len)`.
    pub fn slice(&self, offset: usize, len: usize) -> Array {
        let end = offset + len;
        match self {
            Array::Bool { values, validity } => Array::Bool {
                values: values[offset..end].to_vec(),
                validity: validity.slice(offset, len),
            },
            Array::Int { values, validity } => Array::Int {
                values: values[offset..end].to_vec(),
                validity: validity.slice(offset, len),
            },
            Array::Float { values, validity } => Array::Float {
                values: values[offset..end].to_vec(),
                validity: validity.slice(offset, len),
            },
            Array::Text { offsets, bytes, validity } => {
                let (mut out_offsets, mut out_bytes) = (vec![0], Vec::new());
                extend_text(&mut out_offsets, &mut out_bytes, offsets, bytes, offset, end);
                Array::Text {
                    offsets: out_offsets,
                    bytes: out_bytes,
                    validity: validity.slice(offset, len),
                }
            }
            Array::Date { values, validity } => Array::Date {
                values: values[offset..end].to_vec(),
                validity: validity.slice(offset, len),
            },
            Array::Null { .. } => Array::Null { len },
            Array::Dict { indices, dict } => {
                Array::Dict { indices: Arc::from(&indices[offset..end]), dict: dict.clone() }
            }
            Array::RunLength { .. } => self.to_plain().slice(offset, len),
        }
    }

    /// Concatenate several arrays of one type (all-NULL parts fit any) into one, extending the
    /// native buffers; parts of two types are an [`AlgebraError::TypeMismatch`]. Text laid end
    /// to end must stay within what 32-bit offsets address: the summed length is checked
    /// first, and more is [`AlgebraError::ColumnTooLarge`].
    pub fn concat(arrays: &[&Array]) -> Result<Array, AlgebraError> {
        /// Native `extend_from_slice` per input, no value boxing. All-NULL parts (an outer
        /// join's padding batches, a join's NULL slot) extend the native buffer with invalid
        /// default slots.
        macro_rules! typed_concat {
            ($variant:ident, $fill:expr) => {{
                if arrays.iter().any(|a| matches!(a, Array::$variant { .. }))
                    && arrays
                        .iter()
                        .all(|a| matches!(a, Array::$variant { .. } | Array::Null { .. }))
                {
                    let mut values = Vec::new();
                    let mut validity = Bitmap::new();
                    for a in arrays {
                        match a {
                            Array::$variant { values: v, validity: b } => {
                                values.extend_from_slice(v);
                                validity.extend_from(b);
                            }
                            other => {
                                values.resize(values.len() + other.len(), $fill);
                                validity.extend_from(&Bitmap::all_unset(other.len()));
                            }
                        }
                    }
                    return Ok(Array::$variant { values, validity });
                }
            }};
        }
        match arrays {
            [] => Ok(Array::Null { len: 0 }),
            [only] => Ok((*only).clone()),
            _ => {
                // Encoded inputs are decoded once, then the plain typed fast paths below apply
                // (views over one dictionary stay views in [`DataChunk::concat`], which can
                // also keep their index buffers shared between columns).
                if arrays.iter().any(|a| a.is_encoded()) {
                    let decoded: Vec<Cow<'_, Array>> = arrays
                        .iter()
                        .map(|a| match a.is_encoded() {
                            true => Cow::Owned(a.to_plain()),
                            false => Cow::Borrowed(*a),
                        })
                        .collect();
                    // Only a view over more text than offsets address stays encoded.
                    if let Some(view) = decoded.iter().find(|a| a.is_encoded()) {
                        let bytes = |i| match view.resolve_row(i) {
                            (Array::Text { offsets, .. }, r) => offsets[r + 1] - offsets[r],
                            _ => 0,
                        };
                        let bytes = (0..view.len()).map(|i| u64::from(bytes(i))).sum();
                        return Err(AlgebraError::ColumnTooLarge { bytes });
                    }
                    let refs: Vec<&Array> = decoded.iter().map(Cow::as_ref).collect();
                    return Array::concat(&refs);
                }
                if arrays.iter().all(|a| matches!(a, Array::Null { .. })) {
                    return Ok(Array::Null { len: arrays.iter().map(|a| a.len()).sum() });
                }
                typed_concat!(Int, 0);
                if arrays.iter().all(|a| matches!(a, Array::Text { .. } | Array::Null { .. })) {
                    return concat_text(arrays);
                }
                typed_concat!(Float, 0.0);
                typed_concat!(Date, 0);
                typed_concat!(Bool, false);
                let mut types =
                    arrays.iter().map(|a| a.data_type()).filter(|&t| t != DataType::Null);
                let expected = types.next().unwrap_or(DataType::Null);
                let actual = types.find(|&t| t != expected).unwrap_or(expected);
                Err(AlgebraError::type_mismatch("a column of one type", expected, actual))
            }
        }
    }

    /// Compare rows `i` of `self` and `j` of `other` under the total value order used for
    /// sorting ([`Value::cmp`]: NULLs first, then type rank, then value).
    pub fn compare(&self, i: usize, other: &Array, j: usize) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        // Resolve encoded views first so the typed fast paths below apply to them too.
        let (this, i) = self.resolve_row(i);
        let (other, j) = other.resolve_row(j);
        // Typed fast path when both sides are the same native variant and non-null.
        match (this, other) {
            (Array::Int { values: a, validity: va }, Array::Int { values: b, validity: vb })
                if va.get(i) && vb.get(j) =>
            {
                return a[i].cmp(&b[j]);
            }
            (
                Array::Text { offsets: oa, bytes: a, validity: va },
                Array::Text { offsets: ob, bytes: b, validity: vb },
            ) if va.get(i) && vb.get(j) => {
                // UTF-8 orders bytewise as `str` does.
                return text_row(oa, a, i).cmp(text_row(ob, b, j));
            }
            (Array::Date { values: a, validity: va }, Array::Date { values: b, validity: vb })
                if va.get(i) && vb.get(j) =>
            {
                return a[i].cmp(&b[j]);
            }
            (
                Array::Float { values: a, validity: va },
                Array::Float { values: b, validity: vb },
            ) if va.get(i) && vb.get(j) => {
                // NaN-total ordering (NaN sorts last) so sort keys are deterministic; plain
                // `partial_cmp` would make ORDER BY nondeterministic in the presence of NaN.
                return crate::value::total_float_cmp(a[i], b[j]);
            }
            _ => {}
        }
        match (this.is_null(i), other.is_null(j)) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => this.value(i).cmp(&other.value(j)),
        }
    }

    /// Append the display form of row `i` to `out` (`NULL` for NULL), without boxing a
    /// [`Value`]. Used by the wire protocol's chunk-wise result rendering.
    pub fn format_into(&self, i: usize, out: &mut String) {
        use std::fmt::Write;
        if self.is_encoded() {
            let (array, idx) = self.resolve_row(i);
            return array.format_into(idx, out);
        }
        match self {
            Array::Bool { values, validity } if validity.get(i) => {
                out.push_str(if values[i] { "true" } else { "false" });
            }
            Array::Int { values, validity } if validity.get(i) => {
                let _ = write!(out, "{}", values[i]);
            }
            Array::Float { values, validity } if validity.get(i) => {
                out.push_str(&crate::value::format_float(values[i]));
            }
            Array::Text { offsets, bytes, validity } if validity.get(i) => {
                out.push_str(&text_str(text_row(offsets, bytes, i)));
            }
            Array::Date { values, validity } if validity.get(i) => {
                out.push_str(&crate::value::format_date(values[i]));
            }
            _ => out.push_str("NULL"),
        }
    }

    /// Decode an encoded view into a plain (unencoded) array; plain arrays are cloned as-is. A
    /// view over more text than offsets address stays a view (see [`Array::take`]).
    pub fn to_plain(&self) -> Array {
        match self {
            Array::Dict { indices, dict } => {
                if dict.is_encoded() {
                    Arc::new(dict.to_plain()).take(indices)
                } else {
                    dict.take(indices)
                }
            }
            Array::RunLength { values, run_ends } => {
                let mut indices = Vec::with_capacity(self.len());
                let mut start = 0u32;
                for (run, &end) in run_ends.iter().enumerate() {
                    indices.extend(std::iter::repeat_n(run as u32, (end - start) as usize));
                    start = end;
                }
                if values.is_encoded() {
                    Arc::new(values.to_plain()).take(&indices)
                } else {
                    values.take(&indices)
                }
            }
            other => other.clone(),
        }
    }

    /// Gather the rows at `indices` as a dictionary *view* of `self` instead of materializing
    /// copies — the one view gather: joins, `ORDER BY` and `LIMIT` all re-address rows through
    /// it. A plain array becomes the dictionary and `indices` itself the view's index buffer
    /// (so every column gathered with the same buffer shares it); an existing view composes by
    /// remapping through its indices (never nests); an all-NULL column stays one, where a view
    /// would save nothing. [`DataChunk::take_dict`] gathers a whole chunk and keeps composed
    /// buffers shared between the columns that shared one before.
    pub fn take_dict(self: &Arc<Array>, indices: &Arc<[u32]>) -> Array {
        match self.as_ref() {
            Array::Null { .. } => Array::Null { len: indices.len() },
            Array::Dict { indices: inner, dict } => {
                Array::Dict { indices: compose_indices(inner, indices), dict: dict.clone() }
            }
            Array::RunLength { values, run_ends } => {
                Array::Dict { indices: run_indices(run_ends, indices), dict: values.clone() }
            }
            _ => Array::Dict { indices: indices.clone(), dict: self.clone() },
        }
    }

    /// Heap footprint in bytes: the buffers' contents, exact for the native variants (text is
    /// offsets, bytes and validity — no per-value boxes). A view charges its index buffer and
    /// its dictionary; [`DataChunk::byte_size`] is the one to ask about several columns at
    /// once, because it charges a buffer that several of them share only once, and
    /// [`DataChunk::byte_size_beside`] leaves out the dictionaries someone else owns.
    pub fn byte_size(&self) -> usize {
        self.charge(&mut Charged { seen: Default::default(), elsewhere: &[] })
    }

    /// [`Array::byte_size`] under a running set of already-charged shared buffers.
    fn charge(&self, charged: &mut Charged) -> usize {
        fn bitmap_bytes(b: &Bitmap) -> usize {
            b.words.len() * 8
        }
        match self {
            Array::Bool { values, validity } => values.len() + bitmap_bytes(validity),
            Array::Int { values, validity } => values.len() * 8 + bitmap_bytes(validity),
            Array::Float { values, validity } => values.len() * 8 + bitmap_bytes(validity),
            Array::Text { offsets, bytes, validity } => {
                offsets.len() * 4 + bytes.len() + bitmap_bytes(validity)
            }
            Array::Date { values, validity } => values.len() * 4 + bitmap_bytes(validity),
            Array::Null { .. } => 0,
            Array::Dict { indices, dict } => {
                let index_bytes =
                    if first_charge(indices, charged) { indices.len() * 4 } else { 0 };
                index_bytes + charge_shared(dict, charged)
            }
            Array::RunLength { values, run_ends } => {
                run_ends.len() * 4 + charge_shared(values, charged)
            }
        }
    }

    /// Is a run-length form worth it for `rows` rows in `runs` runs? At most one run per three
    /// rows, and never for fewer than four rows.
    pub fn run_length_pays(runs: usize, rows: usize) -> bool {
        rows >= 4 && runs * 3 <= rows
    }

    /// Attempt run-length compression of a plain array. Returns `Some` only when the array
    /// compresses well (at most one run per three rows); encoded or short inputs return `None`.
    /// Used by wire serialization — the executor itself never produces run-length arrays.
    pub fn rle_compress(&self) -> Option<Array> {
        let len = self.len();
        if self.is_encoded() || matches!(self, Array::Null { .. }) {
            return None;
        }
        // One pass to find run boundaries (logical equality, NULL == NULL).
        fn runs_of(validity: &Bitmap, same: impl Fn(usize, usize) -> bool) -> Vec<u32> {
            let mut ends = Vec::new();
            for i in 1..validity.len() {
                let equal = match (validity.get(i - 1), validity.get(i)) {
                    (true, true) => same(i - 1, i),
                    (false, false) => true,
                    _ => false,
                };
                if !equal {
                    ends.push(i as u32);
                }
            }
            ends.push(validity.len() as u32);
            ends
        }
        let run_ends = match self {
            Array::Bool { values, validity } => runs_of(validity, |a, b| values[a] == values[b]),
            Array::Int { values, validity } => runs_of(validity, |a, b| values[a] == values[b]),
            Array::Date { values, validity } => runs_of(validity, |a, b| values[a] == values[b]),
            // Floats compare bitwise so NaN runs still compress deterministically.
            Array::Float { values, validity } => {
                runs_of(validity, |a, b| values[a].to_bits() == values[b].to_bits())
            }
            Array::Text { offsets, bytes, validity } => {
                runs_of(validity, |a, b| text_row(offsets, bytes, a) == text_row(offsets, bytes, b))
            }
            _ => return None,
        };
        if !Array::run_length_pays(run_ends.len(), len) {
            return None;
        }
        // Gather one representative row per run.
        let representatives: Vec<u32> =
            std::iter::once(0).chain(run_ends[..run_ends.len() - 1].iter().copied()).collect();
        Some(Array::RunLength { values: Arc::new(self.gather(&representatives)?), run_ends })
    }
}

/// Logical row-wise equality: an encoded array equals its decoded form. Plain same-variant
/// pairs compare their native buffers; everything else falls back to per-row values (invalid
/// slots compare as NULL regardless of the padding stored in the native buffer).
impl PartialEq for Array {
    fn eq(&self, other: &Array) -> bool {
        fn plain_pair_eq(a: &Array, b: &Array) -> Option<bool> {
            macro_rules! typed_eq {
                ($variant:ident) => {
                    if let (
                        Array::$variant { values: va, validity: ba },
                        Array::$variant { values: vb, validity: bb },
                    ) = (a, b)
                    {
                        return Some(
                            ba == bb
                                && va
                                    .iter()
                                    .zip(vb)
                                    .enumerate()
                                    .all(|(i, (x, y))| !ba.get(i) || x == y),
                        );
                    }
                };
            }
            typed_eq!(Bool);
            typed_eq!(Int);
            typed_eq!(Float);
            typed_eq!(Date);
            if let (
                Array::Text { offsets: oa, bytes: a, validity: va },
                Array::Text { offsets: ob, bytes: b, validity: vb },
            ) = (a, b)
            {
                return Some(
                    va == vb && {
                        let same = |i| text_row(oa, a, i) == text_row(ob, b, i);
                        (0..va.len()).all(|i| !va.get(i) || same(i))
                    },
                );
            }
            if let (Array::Null { len: a }, Array::Null { len: b }) = (a, b) {
                return Some(a == b);
            }
            None
        }
        if self.len() != other.len() {
            return false;
        }
        if let Some(eq) = plain_pair_eq(self, other) {
            return eq;
        }
        (0..self.len()).all(|i| {
            let (a, ai) = self.resolve_row(i);
            let (b, bi) = other.resolve_row(i);
            match (a.is_null(ai), b.is_null(bi)) {
                (true, true) => true,
                (false, false) => a.value(ai) == b.value(bi),
                _ => false,
            }
        })
    }
}

/// Incremental [`Array`] construction from dynamically typed [`Value`]s.
///
/// The builder counts NULLs until the first non-NULL value locks the column's type; from then
/// on it takes only values of that type (and NULLs).
#[derive(Debug, Default)]
pub struct ArrayBuilder {
    /// NULLs pushed before the type locked in.
    nulls: usize,
    /// The column, from the first non-NULL value on.
    array: Option<Array>,
    /// Expected number of values; pre-sizes the native vector when the type locks in.
    capacity: usize,
}

impl ArrayBuilder {
    /// An empty builder.
    pub fn new() -> ArrayBuilder {
        ArrayBuilder::default()
    }

    /// A builder expecting about `capacity` values (pre-sizes the native vector when the
    /// column type locks in).
    pub fn with_capacity(capacity: usize) -> ArrayBuilder {
        ArrayBuilder { capacity, ..ArrayBuilder::default() }
    }

    /// Append a value. A value of another type than the column's is an
    /// [`AlgebraError::TypeMismatch`] and text past what offsets address an
    /// [`AlgebraError::ColumnTooLarge`]; either leaves the builder as it was.
    pub fn push(&mut self, value: Value) -> Result<(), AlgebraError> {
        if self.array.is_none() && value.is_null() {
            self.nulls += 1;
            return Ok(());
        }
        let (nulls, capacity) = (self.nulls, self.capacity);
        push_typed(self.array.get_or_insert_with(|| null_slots(nulls, &value, capacity)), value)
    }

    /// Finish the array. Text gives back what its byte buffer grew beyond the rows: a finished
    /// column may be stored for good.
    pub fn finish(self) -> Array {
        match self.array {
            None => Array::Null { len: self.nulls },
            Some(Array::Text { offsets, mut bytes, validity }) => {
                bytes.shrink_to_fit();
                Array::Text { offsets, bytes, validity }
            }
            Some(a) => a,
        }
    }
}

/// Column `c` of `rows` (a missing value is NULL).
fn tuple_column(rows: &[Tuple], c: usize) -> impl Iterator<Item = Value> + '_ {
    rows.iter().map(move |t| t.get(c).cloned().unwrap_or(Value::Null))
}

/// A typed array of `nulls` NULL slots, of the variant that holds `like`, pre-sized for
/// `capacity` values.
fn null_slots(nulls: usize, like: &Value, capacity: usize) -> Array {
    fn slots<T: Clone>(fill: T, len: usize, capacity: usize) -> Vec<T> {
        let mut values = Vec::with_capacity(capacity.max(len));
        values.resize(len, fill);
        values
    }
    let validity = Bitmap::all_unset(nulls);
    match like {
        Value::Bool(_) => Array::Bool { values: slots(false, nulls, capacity), validity },
        Value::Int(_) => Array::Int { values: slots(0, nulls, capacity), validity },
        Value::Float(_) => Array::Float { values: slots(0.0, nulls, capacity), validity },
        Value::Text(_) => {
            Array::Text { offsets: slots(0, nulls + 1, capacity + 1), bytes: Vec::new(), validity }
        }
        Value::Date(_) => Array::Date { values: slots(0, nulls, capacity), validity },
        Value::Null => Array::Null { len: nulls },
    }
}

/// Append `value` to a typed array, unless it does not fit: another type, or text beyond what
/// the offsets address.
fn push_typed(array: &mut Array, value: Value) -> Result<(), AlgebraError> {
    match (array, value) {
        (Array::Bool { values, validity }, Value::Bool(b)) => {
            values.push(b);
            validity.push(true);
        }
        (Array::Int { values, validity }, Value::Int(i)) => {
            values.push(i);
            validity.push(true);
        }
        (Array::Float { values, validity }, Value::Float(f)) => {
            values.push(f);
            validity.push(true);
        }
        (Array::Text { offsets, bytes, validity }, Value::Text(s)) => {
            let Some(end) = text_end(bytes.len() + s.len()) else {
                return Err(AlgebraError::ColumnTooLarge { bytes: (bytes.len() + s.len()) as u64 });
            };
            bytes.extend_from_slice(s.as_bytes());
            offsets.push(end);
            validity.push(true);
        }
        (Array::Date { values, validity }, Value::Date(d)) => {
            values.push(d);
            validity.push(true);
        }
        (Array::Bool { values, validity }, Value::Null) => {
            values.push(false);
            validity.push(false);
        }
        (Array::Int { values, validity }, Value::Null) => {
            values.push(0);
            validity.push(false);
        }
        (Array::Float { values, validity }, Value::Null) => {
            values.push(0.0);
            validity.push(false);
        }
        (Array::Text { offsets, bytes, validity }, Value::Null) => {
            offsets.push(bytes.len() as u32);
            validity.push(false);
        }
        (Array::Date { values, validity }, Value::Null) => {
            values.push(0);
            validity.push(false);
        }
        (array, value) => {
            let (expected, actual) = (array.data_type(), value.data_type());
            return Err(AlgebraError::type_mismatch("a column of one type", expected, actual));
        }
    }
    Ok(())
}

/// A batch of rows stored column-wise: one [`Array`] per attribute.
///
/// Columns are held behind [`Arc`]s so that passing a column through a projection, or emitting
/// a cached storage chunk from a scan, is a refcount bump rather than a copy.
#[derive(Debug, Clone, PartialEq)]
pub struct DataChunk {
    columns: Vec<Arc<Array>>,
    rows: usize,
}

impl DataChunk {
    /// Build a chunk from columns (all columns must have the same length).
    pub fn new(columns: Vec<Arc<Array>>) -> DataChunk {
        let rows = columns.first().map_or(0, |c| c.len());
        debug_assert!(columns.iter().all(|c| c.len() == rows), "column lengths must agree");
        DataChunk { columns, rows }
    }

    /// An empty chunk of `arity` columns and zero rows.
    pub fn empty(arity: usize) -> DataChunk {
        DataChunk {
            columns: (0..arity).map(|_| Arc::new(Array::Null { len: 0 })).collect(),
            rows: 0,
        }
    }

    /// A chunk of `rows` rows and zero columns (the projection-free edge case, e.g.
    /// `SELECT count(*)` pipelines).
    pub fn zero_width(rows: usize) -> DataChunk {
        DataChunk { columns: Vec::new(), rows }
    }

    /// Convert a slice of tuples into one chunk of `arity` columns (a missing value is NULL). A
    /// column whose values do not share one type takes their common type (INT beside FLOAT is
    /// FLOAT), or TEXT where they have none. Panics only on more text than a column addresses.
    pub fn from_tuples(arity: usize, rows: &[Tuple]) -> DataChunk {
        let column = |c| tuple_column(rows, c);
        let typed = |c| {
            Array::from_values(column(c)).or_else(|_| {
                let common =
                    column(c).try_fold(DataType::Null, |t, v| t.common_type(v.data_type()));
                let cast = |v: Value| match common {
                    Some(t) => v.cast(t),
                    None if v.is_null() => Ok(v),
                    None => Ok(Value::Text(v.to_string().into())),
                };
                Array::from_values(column(c).map(cast).collect::<Result<Vec<_>, _>>()?)
            })
        };
        let columns = (0..arity).map(|c| typed(c).map(Arc::new)).collect::<Result<_, _>>();
        DataChunk { columns: columns.unwrap_or_else(|e| panic!("{e}")), rows: rows.len() }
    }

    /// [`DataChunk::from_tuples`], refusing a column whose values do not share one type
    /// ([`ArrayBuilder::push`]).
    pub fn try_from_tuples(arity: usize, rows: &[Tuple]) -> Result<DataChunk, AlgebraError> {
        let column = |c| Array::from_values(tuple_column(rows, c)).map(Arc::new);
        Ok(DataChunk {
            columns: (0..arity).map(column).collect::<Result<_, _>>()?,
            rows: rows.len(),
        })
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Is the chunk empty (no rows)?
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Column `c`.
    pub fn column(&self, c: usize) -> &Arc<Array> {
        &self.columns[c]
    }

    /// All columns.
    pub fn columns(&self) -> &[Arc<Array>] {
        &self.columns
    }

    /// The value at (`row`, `col`).
    pub fn value_at(&self, col: usize, row: usize) -> Value {
        self.columns[col].value(row)
    }

    /// Materialize row `i` as a tuple.
    pub fn tuple_at(&self, i: usize) -> Tuple {
        Tuple::new(self.columns.iter().map(|c| c.value(i)).collect())
    }

    /// Iterate the rows as tuples (the compatibility edge; hot paths stay columnar).
    pub fn iter_tuples(&self) -> impl Iterator<Item = Tuple> + '_ {
        (0..self.rows).map(|i| self.tuple_at(i))
    }

    /// The columns of `self` followed by those of `right`, which has as many rows.
    pub fn hstack(mut self, right: DataChunk) -> DataChunk {
        debug_assert_eq!(self.rows, right.rows);
        self.columns.extend(right.columns);
        self
    }

    /// Re-address every column: a dict view has `on_indices` applied to its index buffer, any
    /// other column goes through `on_array`. Views that shared an index buffer share the
    /// derived one — the rule that keeps a join batch at one buffer per source buffer however
    /// many filters, limits and joins sit above it.
    fn map_columns(
        &self,
        rows: usize,
        on_indices: impl Fn(&[u32]) -> IndexBuffer,
        on_array: impl Fn(&Arc<Array>) -> Array,
    ) -> DataChunk {
        let mut derived: Vec<(&IndexBuffer, IndexBuffer)> = Vec::new();
        let columns = self
            .columns
            .iter()
            .map(|column| match column.as_ref() {
                Array::Dict { indices, dict } => {
                    let indices = match derived.iter().find(|(from, _)| Arc::ptr_eq(from, indices))
                    {
                        Some((_, shared)) => shared.clone(),
                        None => {
                            let fresh = on_indices(indices);
                            derived.push((indices, fresh.clone()));
                            fresh
                        }
                    };
                    Arc::new(Array::Dict { indices, dict: dict.clone() })
                }
                _ => Arc::new(on_array(column)),
            })
            .collect();
        DataChunk { columns, rows }
    }

    /// Keep only the rows whose mask bit is `true`. A filter batch is one index buffer over its
    /// source, as a join batch is one per source buffer: the kept rows' positions are the buffer
    /// every plain column's view shares, and a view composes its own through them
    /// ([`DataChunk::take_dict`]). Nothing is copied until a kernel computes on a column.
    pub fn filter(&self, mask: &[bool]) -> DataChunk {
        debug_assert_eq!(mask.len(), self.rows);
        if !mask.contains(&false) {
            return self.clone();
        }
        self.take_dict(&kept_rows(mask))
    }

    /// Gather the rows at `indices` as views: every column becomes (or stays) a dict view, and
    /// all views over plain columns share `indices` itself (see [`Array::take_dict`]).
    pub fn take_dict(&self, indices: &Arc<[u32]>) -> DataChunk {
        self.map_columns(
            indices.len(),
            |inner| compose_indices(inner, indices),
            |column| column.take_dict(indices),
        )
    }

    /// A copy of the rows `[offset, offset + len)`.
    pub fn slice(&self, offset: usize, len: usize) -> DataChunk {
        self.map_columns(
            len,
            |indices| Arc::from(&indices[offset..offset + len]),
            |column| column.slice(offset, len),
        )
    }

    /// Approximate heap footprint in bytes (stream and operator memory accounting): what the
    /// chunk keeps alive, with a column, dictionary or index buffer that several columns share
    /// charged once.
    pub fn byte_size(&self) -> usize {
        DataChunk::byte_size_of([self])
    }

    /// [`DataChunk::byte_size`] of several chunks together: a buffer shared between chunks —
    /// the dictionary under every batch of one join — is charged once for all of them.
    pub fn byte_size_of<'a>(chunks: impl IntoIterator<Item = &'a DataChunk>) -> usize {
        DataChunk::byte_size_beside(chunks, &[])
    }

    /// [`DataChunk::byte_size_of`] beside the buffers at the sorted addresses `owned_elsewhere`,
    /// which are not charged: a statement's stored columns ([`DataChunk::note_columns`]) belong
    /// to the catalog, so a view over one costs the statement its index buffer only.
    pub fn byte_size_beside<'a>(
        chunks: impl IntoIterator<Item = &'a DataChunk>,
        owned_elsewhere: &[usize],
    ) -> usize {
        let mut charged = Charged { seen: Default::default(), elsewhere: owned_elsewhere };
        let mut bytes = 0;
        for chunk in chunks {
            for column in &chunk.columns {
                bytes += charge_shared(column, &mut charged);
            }
        }
        bytes
    }

    /// Append the addresses of this chunk's columns to `addresses`.
    pub fn note_columns(&self, addresses: &mut Vec<usize>) {
        addresses.extend(self.columns.iter().map(address));
    }

    /// Decode any encoded (dict / run-length) columns into plain arrays.
    pub fn to_plain(&self) -> DataChunk {
        if self.columns.iter().all(|c| !c.is_encoded()) {
            return self.clone();
        }
        DataChunk {
            columns: self
                .columns
                .iter()
                .map(|c| if c.is_encoded() { Arc::new(c.to_plain()) } else { c.clone() })
                .collect(),
            rows: self.rows,
        }
    }

    /// Concatenate chunks of the same arity into one chunk — what a join does to its build side
    /// and `ORDER BY` to its input. A column whose parts are views (or all-NULL: an outer join's
    /// padding) stays a view: over the one dictionary the parts share (every batch of a join's
    /// build side), or over their distinct dictionaries laid end to end (the probe side: one
    /// dictionary per probe chunk) when that is no longer than the rows themselves. Columns
    /// whose parts shared their index buffers chunk by chunk share the concatenated buffer, so
    /// the result is a handful of index buffers however wide it is. See [`Array::concat`] for
    /// every other column — and for the one way this fails: more text than a column can hold.
    pub fn concat(arity: usize, chunks: &[DataChunk]) -> Result<DataChunk, AlgebraError> {
        if chunks.len() == 1 {
            return Ok(chunks[0].clone());
        }
        let rows = chunks.iter().map(|c| c.num_rows()).sum();
        let mut joined: Vec<(Vec<PartIndices>, IndexBuffer)> = Vec::new();
        let columns = (0..arity)
            .map(|c| {
                let Some((dict, parts)) = gathered_dictionary(chunks, c, rows)? else {
                    let parts: Vec<&Array> =
                        chunks.iter().map(|ch| ch.column(c).as_ref()).collect();
                    return Ok(Arc::new(Array::concat(&parts)?));
                };
                let indices = match joined.iter().find(|(from, _)| same_parts(from, &parts)) {
                    Some((_, shared)) => shared.clone(),
                    None => {
                        let mut fresh = Vec::with_capacity(rows);
                        for (chunk, (indices, start)) in chunks.iter().zip(&parts) {
                            match indices {
                                Some(indices) => fresh.extend(indices.iter().map(|i| start + i)),
                                None => fresh.resize(fresh.len() + chunk.num_rows(), *start),
                            }
                        }
                        let fresh = IndexBuffer::from(fresh);
                        joined.push((parts, fresh.clone()));
                        fresh
                    }
                };
                Ok(Arc::new(Array::Dict { indices, dict }))
            })
            .collect::<Result<_, AlgebraError>>()?;
        Ok(DataChunk { columns, rows })
    }
}

/// One part of a view column under concatenation: its index buffer and where its dictionary
/// starts in the concatenated dictionary — or, for an all-NULL part (no buffer), the row of
/// that dictionary that holds the NULL.
type PartIndices<'a> = (Option<&'a IndexBuffer>, u32);

/// A dictionary gathered for a view column under concatenation, and each part's place in it.
type GatheredDictionary<'a> = (Arc<Array>, Vec<PartIndices<'a>>);

/// One dictionary for column `c` of a chunk list whose parts are all views or all-NULL, and
/// each part's place in it: the parts' one shared dictionary as it is, or their distinct
/// dictionaries end to end, followed by one NULL row if a part needs it. `None` when a part is
/// neither, when no part is a view, or when the dictionary would be longer than the `rows` it
/// is gathered for (a selective join's probe chunks: copying the surviving rows is cheaper).
fn gathered_dictionary(
    chunks: &[DataChunk],
    c: usize,
    rows: usize,
) -> Result<Option<GatheredDictionary<'_>>, AlgebraError> {
    let mut distinct: Vec<&Arc<Array>> = Vec::new();
    let mut starts: std::collections::HashMap<*const Array, u32> = Default::default();
    let mut len = 0usize;
    let mut parts = Vec::with_capacity(chunks.len());
    for chunk in chunks {
        match chunk.column(c).as_ref() {
            Array::Dict { indices, dict } => {
                let start = *starts.entry(Arc::as_ptr(dict)).or_insert_with(|| {
                    distinct.push(dict);
                    len += dict.len();
                    (len - dict.len()) as u32
                });
                parts.push((Some(indices), start));
            }
            Array::Null { .. } => parts.push((None, 0)),
            _ => return Ok(None),
        }
    }
    let Some(first) = distinct.first() else { return Ok(None) };
    let padded = parts.iter().any(|(indices, _)| indices.is_none());
    if distinct.len() == 1 && !padded {
        return Ok(Some(((*first).clone(), parts)));
    }
    let null = Array::Null { len: 1 };
    let mut laid_out: Vec<&Array> = distinct.iter().map(|dict| dict.as_ref()).collect();
    if padded {
        for part in parts.iter_mut().filter(|(indices, _)| indices.is_none()) {
            part.1 = len as u32;
        }
        laid_out.push(&null);
        len += 1;
    }
    if len > rows {
        return Ok(None);
    }
    Ok(Some((Arc::new(Array::concat(&laid_out)?), parts)))
}

/// Do two view columns read the same index buffers into the same dictionary layout, part by
/// part?
fn same_parts(a: &[PartIndices], b: &[PartIndices]) -> bool {
    a.iter().zip(b).all(|(a, b)| {
        a.1 == b.1
            && match (a.0, b.0) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                (a, b) => a.is_none() && b.is_none(),
            }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn bitmap_basics() {
        let mut b = Bitmap::new();
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 130);
        assert!(b.get(0));
        assert!(!b.get(1));
        assert!(b.get(129));
        assert_eq!(b.count_set(), (0..130).filter(|i| i % 3 == 0).count());
        assert!(Bitmap::all_set(70).all_set_bits());
        assert_eq!(Bitmap::all_unset(70).count_set(), 0);
    }

    #[test]
    fn builder_types_lock_and_refuse_another_type() {
        let a = Array::from_values(vec![Value::Int(1), Value::Null, Value::Int(3)]).unwrap();
        assert!(matches!(a, Array::Int { .. }));
        assert_eq!(a.value(0), Value::Int(1));
        assert_eq!(a.value(1), Value::Null);
        assert_eq!(a.value(2), Value::Int(3));

        // Leading NULLs then a typed value.
        let a = Array::from_values(vec![Value::Null, Value::text("x")]).unwrap();
        assert!(matches!(a, Array::Text { .. }));
        assert_eq!(a.value(0), Value::Null);
        assert_eq!(a.value(1), Value::text("x"));

        // A value of another type is refused, and the builder keeps what it had.
        let mut builder = ArrayBuilder::new();
        builder.push(Value::Null).unwrap();
        builder.push(Value::Int(1)).unwrap();
        for other in [Value::text("x"), Value::Float(1.0)] {
            assert!(matches!(builder.push(other), Err(AlgebraError::TypeMismatch { .. })));
        }
        builder.push(Value::Null).unwrap();
        let a = builder.finish();
        assert!(matches!(a, Array::Int { .. }));
        assert_eq!(
            (0..3).map(|i| a.value(i)).collect::<Vec<_>>(),
            [Value::Null, Value::Int(1), Value::Null]
        );
        assert!(Array::from_values(vec![Value::Int(1), Value::text("x")]).is_err());

        let a = Array::from_values(vec![Value::Null, Value::Null]).unwrap();
        assert!(matches!(a, Array::Null { len: 2 }));
    }

    #[test]
    fn chunk_round_trips_tuples() {
        let rows = vec![tuple![1, "a"], tuple![2, "b"], Tuple::new(vec![Value::Null, Value::Null])];
        let chunk = DataChunk::from_tuples(2, &rows);
        assert_eq!(chunk.num_rows(), 3);
        assert_eq!(chunk.num_columns(), 2);
        let back: Vec<Tuple> = chunk.iter_tuples().collect();
        assert_eq!(back, rows);
    }

    #[test]
    fn hand_built_rows_of_two_types_share_one() {
        let rows = [tuple![1, "x", Value::Null], tuple![2.5, 3, true]];
        let chunk = DataChunk::from_tuples(3, &rows);
        assert!(matches!(chunk.column(0).as_ref(), Array::Float { .. }));
        assert!(matches!(chunk.column(1).as_ref(), Array::Text { .. }));
        assert!(matches!(chunk.column(2).as_ref(), Array::Bool { .. }));
        assert_eq!(chunk.tuple_at(0), tuple![1.0, "x", Value::Null]);
        assert_eq!(chunk.tuple_at(1), tuple![2.5, "3", true]);
        assert!(DataChunk::try_from_tuples(3, &rows).is_err());
    }

    /// An index buffer for `take_dict` calls.
    fn idx(indices: &[u32]) -> Arc<[u32]> {
        Arc::from(indices)
    }

    #[test]
    fn filter_take_slice() {
        let rows: Vec<Tuple> = (0..10i64).map(|i| tuple![i, i * 10]).collect();
        let chunk = DataChunk::from_tuples(2, &rows);
        let mask: Vec<bool> = (0..10).map(|i| i % 2 == 0).collect();
        let filtered = chunk.filter(&mask);
        assert_eq!(filtered.num_rows(), 5);
        assert_eq!(filtered.tuple_at(2), tuple![4, 40]);

        let taken = chunk.take_dict(&idx(&[9, 0, 9]));
        assert_eq!(taken.tuple_at(0), tuple![9, 90]);
        assert_eq!(taken.tuple_at(1), tuple![0, 0]);
        assert_eq!(taken.tuple_at(2), tuple![9, 90]);

        let sliced = chunk.slice(3, 4);
        assert_eq!(sliced.num_rows(), 4);
        assert_eq!(sliced.tuple_at(0), tuple![3, 30]);
        assert_eq!(sliced.tuple_at(3), tuple![6, 60]);
    }

    #[test]
    fn concat_extends_one_type_and_refuses_two() {
        let a = Array::from_values(vec![Value::Int(1), Value::Int(2)]).unwrap();
        let b = Array::from_values(vec![Value::Null, Value::Int(4)]).unwrap();
        let c = Array::concat(&[&a, &b]).unwrap();
        assert!(matches!(c, Array::Int { .. }));
        assert_eq!(c.len(), 4);
        assert_eq!(c.value(2), Value::Null);
        assert_eq!(c.value(3), Value::Int(4));

        let t = Array::from_values(vec![Value::text("x")]).unwrap();
        let err = Array::concat(&[&a, &Array::Null { len: 1 }, &t]).unwrap_err();
        assert!(matches!(err, AlgebraError::TypeMismatch { ref expected, ref actual, .. }
            if expected == "INT" && actual == "TEXT"));
    }

    #[test]
    fn compare_matches_value_order() {
        let a = Array::from_values(vec![Value::Null, Value::Int(1), Value::Int(5)]).unwrap();
        assert_eq!(a.compare(0, &a, 1), std::cmp::Ordering::Less); // NULLs first
        assert_eq!(a.compare(1, &a, 2), std::cmp::Ordering::Less);
        assert_eq!(a.compare(2, &a, 2), std::cmp::Ordering::Equal);
        let floats = Array::from_values(vec![Value::Float(2.0)]).unwrap();
        assert_eq!(
            Array::from_values([Value::Int(2)]).unwrap().compare(0, &floats, 0),
            std::cmp::Ordering::Equal
        );
    }

    #[test]
    fn format_into_matches_display() {
        let rows = vec![
            tuple![1, 2.5, "x", true],
            Tuple::new(vec![Value::Null, Value::Null, Value::Null, Value::Null]),
        ];
        let chunk = DataChunk::from_tuples(4, &rows);
        let mut out = String::new();
        for c in 0..4 {
            chunk.column(c).format_into(0, &mut out);
            out.push('|');
            chunk.column(c).format_into(1, &mut out);
            out.push('|');
        }
        assert_eq!(out, "1|NULL|2.5|NULL|x|NULL|true|NULL|");
    }

    #[test]
    fn repeat_broadcasts_literals() {
        let a = Array::repeat(&Value::text("p"), 3);
        assert_eq!(a.len(), 3);
        assert_eq!(a.value(2), Value::text("p"));
        assert!(matches!(Array::repeat(&Value::Null, 2), Array::Null { len: 2 }));
    }

    #[test]
    fn text_past_what_offsets_address_stays_a_typed_view() {
        // 16 MiB of text 257 times over is more than 4 GiB.
        let text = Value::text("x".repeat(16 << 20));
        let rows = 257;
        let repeated = Array::repeat(&text, rows);
        assert!(matches!(repeated, Array::RunLength { .. }));
        let source = Arc::new(Array::from_values([Value::Null, text.clone()]).unwrap());
        let gathered = source.take(&vec![1; rows]);
        assert!(matches!(&gathered, Array::Dict { dict, .. } if Arc::ptr_eq(dict, &source)));
        for view in [&repeated, &gathered] {
            assert_eq!((view.len(), view.data_type()), (rows, DataType::Text));
            assert!(view.value(0) == text && view.value(rows - 1) == text);
            assert!(view.to_plain().is_encoded(), "decoding would outgrow the offsets");
        }
        let err = Array::concat(&[&gathered, &source]).unwrap_err();
        assert!(
            matches!(err, AlgebraError::ColumnTooLarge { bytes } if bytes == (rows as u64) << 24)
        );
    }

    #[test]
    fn dict_views_behave_like_their_decoded_form() {
        let dict = Arc::new(
            Array::from_values(vec![Value::text("a"), Value::Null, Value::text("c")]).unwrap(),
        );
        let view = dict.take_dict(&idx(&[2, 0, 1, 2, 2]));
        assert!(matches!(view, Array::Dict { .. }));
        assert_eq!(view.len(), 5);
        assert_eq!(view.value(0), Value::text("c"));
        assert_eq!(view.value(1), Value::text("a"));
        assert!(view.is_null(2));
        assert_eq!(view.data_type(), DataType::Text);

        // Logical equality against the decoded form.
        let plain = view.to_plain();
        assert!(!plain.is_encoded());
        assert_eq!(view, plain);

        // take composes without nesting: the result still points at the original dict.
        let taken = Arc::new(view.clone()).take_dict(&idx(&[4, 2]));
        match &taken {
            Array::Dict { indices, dict: d } => {
                assert_eq!(indices[..], [2, 1]);
                assert!(Arc::ptr_eq(d, &dict));
            }
            other => panic!("expected dict view, got {other:?}"),
        }
        assert_eq!(Arc::new(view.clone()).take(&[4, 2]), taken);

        // filter and slice stay views; a filter of the plain form is a view too.
        let mask = [true, false, true, false, true];
        let filtered = Arc::new(view.clone()).filter(&mask);
        assert!(filtered.is_encoded());
        assert_eq!(filtered.to_plain(), Arc::new(plain.clone()).filter(&mask).to_plain());
        let sliced = view.slice(1, 3);
        assert!(sliced.is_encoded());
        assert_eq!(sliced.to_plain(), plain.slice(1, 3));

        // compare resolves through the encoding.
        assert_eq!(view.compare(0, &plain, 0), std::cmp::Ordering::Equal);
        assert_eq!(view.compare(1, &view, 0), std::cmp::Ordering::Less);

        // format_into matches the plain rendering.
        let (mut a, mut b) = (String::new(), String::new());
        for i in 0..view.len() {
            view.format_into(i, &mut a);
            plain.format_into(i, &mut b);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn chunk_concat_over_a_shared_dictionary_stays_encoded() {
        let source = DataChunk::from_tuples(2, &[tuple![0, "a"], tuple![1, "b"], tuple![2, "c"]]);
        let parts = [source.take_dict(&idx(&[0, 1])), source.take_dict(&idx(&[2, 2, 1]))];
        let joined = DataChunk::concat(2, &parts).unwrap();
        let view = |c: usize| match joined.column(c).as_ref() {
            Array::Dict { indices, dict } => (indices.clone(), dict.clone()),
            other => panic!("expected the concatenation to stay a view, got {other:?}"),
        };
        assert_eq!(view(0).0[..], [0, 1, 2, 2, 1]);
        assert!(Arc::ptr_eq(&view(0).0, &view(1).0), "one concatenated buffer for both");
        assert!(Arc::ptr_eq(&view(1).1, source.column(1)));
        // A view next to a plain part decodes to a typed plain array.
        let a = source.column(0).take_dict(&idx(&[0, 1]));
        let plain_tail = Array::from_values(vec![Value::Int(9)]).unwrap();
        let mixed = Array::concat(&[&a, &plain_tail]).unwrap();
        assert!(matches!(mixed, Array::Int { .. }));
        assert_eq!(mixed.value(2), Value::Int(9));
    }

    #[test]
    fn rle_round_trip_and_threshold() {
        let long = Array::from_values(
            std::iter::repeat_n(Value::Int(7), 5)
                .chain(std::iter::repeat_n(Value::Null, 3))
                .chain(std::iter::repeat_n(Value::Int(1), 4))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let rle = long.rle_compress().expect("3 runs over 12 rows compresses");
        assert!(matches!(rle, Array::RunLength { .. }));
        assert_eq!(rle.len(), 12);
        assert_eq!(rle, long);
        assert_eq!(rle.to_plain(), long);
        assert_eq!(rle.value(4), Value::Int(7));
        assert!(rle.is_null(6));
        assert_eq!(rle.value(8), Value::Int(1));
        // take over RLE produces a dict view over the run values.
        let taken = Arc::new(rle.clone()).take(&[0, 6, 11]);
        assert_eq!(taken, Arc::new(long.clone()).take(&[0, 6, 11]));

        // Unique values do not compress.
        let unique = Array::from_values((0..12i64).map(Value::Int).collect::<Vec<_>>()).unwrap();
        assert!(unique.rle_compress().is_none());
    }

    #[test]
    fn byte_size_charges_a_shared_buffer_once() {
        let dict =
            Arc::new(Array::from_values(vec![Value::text("abcd"), Value::text("ef")]).unwrap());
        let dict_bytes = dict.byte_size();
        assert!(dict_bytes >= 6);
        let indices = idx(&[0, 1, 0, 1]);
        let view = Arc::new(dict.take_dict(&indices));
        assert_eq!(view.byte_size(), 4 * 4 + dict_bytes);
        // Three views of one dictionary through one index buffer cost what one does; a view
        // with its own buffer adds only that buffer; the same again in a second chunk adds
        // nothing to the pair.
        let own = Arc::new(dict.take_dict(&idx(&[1, 1, 1, 1])));
        let chunk = DataChunk::new(vec![view.clone(), view.clone(), view.clone(), own]);
        assert_eq!(chunk.byte_size(), 2 * 4 * 4 + dict_bytes);
        assert_eq!(DataChunk::byte_size_of([&chunk, &chunk.clone()]), chunk.byte_size());
    }

    #[test]
    fn chunk_wide_gathers_keep_index_buffers_shared() {
        let left = DataChunk::from_tuples(2, &[tuple![1, "a"], tuple![2, "b"], tuple![3, "c"]]);
        let picks = idx(&[2, 2, 0, 1]);
        let joined = left.take_dict(&picks);
        let buffer_of = |chunk: &DataChunk, c: usize| match chunk.column(c).as_ref() {
            Array::Dict { indices, .. } => indices.clone(),
            other => panic!("expected a view, got {other:?}"),
        };
        // Views over plain columns share the caller's buffer itself.
        assert!(Arc::ptr_eq(&buffer_of(&joined, 0), &picks));
        assert!(Arc::ptr_eq(&buffer_of(&joined, 1), &picks));
        // A gather, a filter and a slice on top each derive one buffer for both columns, and
        // still point at the original dictionaries.
        let again = joined.take_dict(&idx(&[3, 0]));
        let filtered = joined.filter(&[true, false, true, true]);
        let sliced = joined.slice(1, 2);
        for (derived, expected) in [
            (&again, vec![tuple![2, "b"], tuple![3, "c"]]),
            (&filtered, vec![tuple![3, "c"], tuple![1, "a"], tuple![2, "b"]]),
            (&sliced, vec![tuple![3, "c"], tuple![1, "a"]]),
        ] {
            assert!(Arc::ptr_eq(&buffer_of(derived, 0), &buffer_of(derived, 1)));
            assert!(matches!(derived.column(1).as_ref(),
                Array::Dict { dict, .. } if Arc::ptr_eq(dict, left.column(1))));
            assert_eq!(derived.iter_tuples().collect::<Vec<_>>(), expected);
        }
    }

    #[test]
    fn concat_extends_typed_columns_over_all_null_parts() {
        let ints = Array::from_values(vec![Value::Int(1), Value::Int(2)]).unwrap();
        let texts = Array::from_values(vec![Value::text("x")]).unwrap();
        let pad = Array::Null { len: 2 };
        let joined = Array::concat(&[&pad, &ints, &pad]).unwrap();
        assert!(matches!(joined, Array::Int { .. }));
        assert_eq!(
            (0..joined.len()).map(|i| joined.value(i)).collect::<Vec<_>>(),
            vec![Value::Null, Value::Null, Value::Int(1), Value::Int(2), Value::Null, Value::Null]
        );
        let joined = Array::concat(&[&texts, &pad]).unwrap();
        assert!(matches!(joined, Array::Text { .. }));
        assert_eq!(joined.value(0), Value::text("x"));
        assert!(joined.is_null(2));
        assert!(matches!(Array::concat(&[&pad, &pad]).unwrap(), Array::Null { len: 4 }));
    }

    #[test]
    fn chunk_concat_lays_distinct_dictionaries_and_null_parts_end_to_end() {
        // One dictionary per probe chunk (batches of a join whose probe side spans chunks),
        // then an outer join's padding: all-NULL columns.
        let first = DataChunk::from_tuples(2, &[tuple![0, "a0"], tuple![1, "a1"]]);
        let second = DataChunk::from_tuples(2, &[tuple![2, "b0"], tuple![3, "b1"]]);
        let nulls = Arc::new(Array::Null { len: 2 });
        let pad = DataChunk::new(vec![nulls.clone(), nulls]);
        let parts =
            [first.take_dict(&idx(&[1, 0, 1])), second.take_dict(&idx(&[0, 1])), pad.clone()];
        let joined = DataChunk::concat(2, &parts).unwrap();
        let view = |c: usize| match joined.column(c).as_ref() {
            Array::Dict { indices, dict } => (indices.clone(), dict.clone()),
            other => panic!("expected the concatenation to stay a view, got {other:?}"),
        };
        assert_eq!(view(1).1.len(), 5, "both dictionaries, once each, and one NULL row");
        assert_eq!(view(1).0[..], [1, 0, 1, 2, 3, 4, 4]);
        assert!(Arc::ptr_eq(&view(0).0, &view(1).0), "one concatenated buffer for both");
        let expected: Vec<Tuple> = parts.iter().flat_map(DataChunk::iter_tuples).collect();
        assert_eq!(joined.iter_tuples().collect::<Vec<_>>(), expected);
        // Dictionaries longer than the rows drawn from them are not worth carrying along: the
        // rows are copied out instead.
        let sparse = [first.take_dict(&idx(&[1])), second.take_dict(&idx(&[0]))];
        let joined = DataChunk::concat(2, &sparse).unwrap();
        assert!(matches!(joined.column(1).as_ref(), Array::Text { .. }));
        assert_eq!(joined.tuple_at(1), tuple![2, "b0"]);
        // Padding alone has no dictionary to extend.
        assert!(matches!(
            DataChunk::concat(2, &[pad.clone(), pad]).unwrap().column(0).as_ref(),
            Array::Null { len: 4 }
        ));
    }
}

//! Join and group-by keys, hashed and compared where they lie.
//!
//! A key is a row of some columns. [`hash_rows`] hashes a whole batch of keys straight from the
//! columns' native buffers and [`rows_equal`] compares two keys in place, so a hash join, a hash
//! aggregation, `DISTINCT` and the statistics' distinct counts never box a [`Value`] per row —
//! which for text would be an allocation per row. [`RowTable`] is the table they share: keyed by
//! the row hash, with the caller's equality deciding between keys whose hashes collide.
//!
//! Both agree with the boxed forms by construction: a value hashes to what `Value`'s [`Hash`]
//! feeds the operator's hasher (all numerics through one key, so `1 = 1.0` hashes alike) and
//! two values are equal when `Value`'s `==` says so.
//!
//! An operator draws one [`RandomState`] and hashes every key it handles under it — a join its
//! build and its probe side, an aggregation all its morsels — so row hashes agree wherever they
//! meet, but no stored data can be crafted to collide under them. That is what lets
//! [`RowTable`] use a row hash as it is instead of hashing it a second time.

use std::collections::hash_map::{DefaultHasher, Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

use crate::chunk::{text_row, Array};
use crate::value::Value;

/// The hash of one value under `state`, fed by `feed`.
fn hash_one(state: &RandomState, feed: impl FnOnce(&mut DefaultHasher)) -> u64 {
    let mut hasher = state.build_hasher();
    feed(&mut hasher);
    hasher.finish()
}

/// Row `i` of a plain (not encoded) array, fed as `Value`'s [`Hash`] feeds it.
fn feed_row(array: &Array, i: usize, state: &mut impl Hasher) {
    match array {
        _ if array.is_null(i) => Value::hash_null(state),
        Array::Bool { values, .. } => Value::hash_bool(values[i], state),
        Array::Int { values, .. } => Value::hash_number(values[i] as f64, state),
        Array::Float { values, .. } => Value::hash_number(values[i], state),
        Array::Date { values, .. } => Value::hash_number(f64::from(values[i]), state),
        Array::Text { offsets, bytes, .. } => Value::hash_text(text_row(offsets, bytes, i), state),
        other => other.value(i).hash(state),
    }
}

/// Append the hash of every row of `array` to `out`. A view hashes each row of what it points
/// at once and maps the hashes through its indices or runs — unless it draws fewer rows than
/// the dictionary has, when it hashes just those.
fn value_hashes(state: &RandomState, array: &Array, out: &mut Vec<u64>) {
    match array {
        Array::Dict { indices, dict } if dict.len() <= indices.len() => {
            let mut distinct = Vec::with_capacity(dict.len());
            value_hashes(state, dict, &mut distinct);
            out.extend(indices.iter().map(|&i| distinct[i as usize]));
        }
        Array::Dict { indices, dict } => out.extend(indices.iter().map(|&i| {
            let (array, row) = dict.resolve_row(i as usize);
            hash_one(state, |hasher| feed_row(array, row, hasher))
        })),
        Array::RunLength { values, run_ends } => {
            let mut runs = Vec::with_capacity(values.len());
            value_hashes(state, values, &mut runs);
            let mut start = 0;
            for (hash, &end) in runs.iter().zip(run_ends) {
                out.extend(std::iter::repeat_n(*hash, (end - start) as usize));
                start = end;
            }
        }
        plain => out
            .extend((0..plain.len()).map(|i| hash_one(state, |hasher| feed_row(plain, i, hasher)))),
    }
}

/// Fold the next key column's value hash into a row hash.
fn combine(row: u64, value: u64) -> u64 {
    (row.rotate_left(26) ^ value).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Hash every row of a batch of keys — one key per row, one column per key part — into
/// `hashes` (cleared first; no columns, no hashes), under the hasher of the operator the keys
/// meet in. A single-column key hashes to exactly what its boxed [`Value`] does
/// (`state.hash_one(value)`); further columns fold in the same way whatever their
/// representation, so equal keys hash alike plain, as views, or mixed.
pub fn hash_rows(state: &RandomState, columns: &[Arc<Array>], hashes: &mut Vec<u64>) {
    hashes.clear();
    let Some((first, rest)) = columns.split_first() else { return };
    value_hashes(state, first, hashes);
    let mut next = Vec::new();
    for column in rest {
        next.clear();
        value_hashes(state, column, &mut next);
        for (row, value) in hashes.iter_mut().zip(&next) {
            *row = combine(*row, *value);
        }
    }
}

/// Is key `i` of `a` equal to key `j` of `b`? Column by column as `Value`'s `==`: NULL equals
/// NULL, NaN equals NaN, numerics compare across types — except that where `null_safe[k]` is
/// `false` (a plain `=` join key), a NULL or NaN in column `k` equals nothing, itself included.
/// So a key that does not equal itself can never match, which is how a join tells.
pub fn rows_equal(
    a: &[Arc<Array>],
    i: usize,
    b: &[Arc<Array>],
    j: usize,
    null_safe: &[bool],
) -> bool {
    debug_assert!(a.len() == b.len() && a.len() == null_safe.len());
    a.iter().zip(b).zip(null_safe).all(|((a, b), &null_safe)| values_equal(a, i, b, j, null_safe))
}

fn values_equal(a: &Array, i: usize, b: &Array, j: usize, null_safe: bool) -> bool {
    let ((a, i), (b, j)) = (a.resolve_row(i), b.resolve_row(j));
    match (a.is_null(i), b.is_null(j)) {
        (true, true) => return null_safe,
        (false, false) => {}
        _ => return false,
    }
    match (a, b) {
        (Array::Int { values: x, .. }, Array::Int { values: y, .. }) => x[i] == y[j],
        (Array::Date { values: x, .. }, Array::Date { values: y, .. }) => x[i] == y[j],
        (Array::Bool { values: x, .. }, Array::Bool { values: y, .. }) => x[i] == y[j],
        (Array::Text { offsets: ox, bytes: x, .. }, Array::Text { offsets: oy, bytes: y, .. }) => {
            text_row(ox, x, i) == text_row(oy, y, j)
        }
        // Everything else boxes without allocating: text only ever equals text.
        _ => {
            let (x, y) = (a.value(i), b.value(j));
            (null_safe || !matches!(x, Value::Float(f) if f.is_nan())) && x == y
        }
    }
}

/// Row hashes are keyed and mixed already ([`hash_rows`]): the table uses them as they are.
#[derive(Debug, Default)]
struct RowHashHasher(u64);

impl Hasher for RowHashHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(byte);
        }
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A hash table from keys to one payload each, for keys that stay in their columns: the table
/// holds a key's row hash ([`hash_rows`]) and a payload from which the caller can find the key
/// again — a build row, a group's first row — and asks the caller whether a payload's key is
/// the one it is looking for ([`rows_equal`]). Two keys with one hash (2⁻⁶⁴ per pair) sit in
/// successive slots of a probe sequence over the hash.
#[derive(Debug)]
pub struct RowTable<V> {
    slots: HashMap<u64, V, BuildHasherDefault<RowHashHasher>>,
}

impl<V> Default for RowTable<V> {
    fn default() -> Self {
        RowTable { slots: HashMap::default() }
    }
}

impl<V: Copy> RowTable<V> {
    /// An empty table.
    pub fn new() -> RowTable<V> {
        RowTable::default()
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Does the table hold no key?
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The slot key at which a key with this hash sits, or would be inserted.
    fn locate(&self, hash: u64, same: impl Fn(V) -> bool) -> u64 {
        let mut at = hash;
        while self.slots.get(&at).is_some_and(|&held| !same(held)) {
            at = at.wrapping_add(0x9E37_79B9_7F4A_7C15);
        }
        at
    }

    /// The payload of the key with this hash whose payload `same` accepts.
    pub fn find(&self, hash: u64, same: impl Fn(V) -> bool) -> Option<V> {
        self.slots.get(&self.locate(hash, same)).copied()
    }

    /// The payload slot of that key, and whether the key was there: a new key gets `fresh`.
    pub fn slot(&mut self, hash: u64, same: impl Fn(V) -> bool, fresh: V) -> (&mut V, bool) {
        match self.slots.entry(self.locate(hash, same)) {
            Entry::Occupied(held) => (held.into_mut(), true),
            Entry::Vacant(free) => (free.insert(fresh), false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::Bitmap;

    fn values() -> Vec<Value> {
        vec![
            Value::Int(1),
            Value::Float(1.0),
            Value::Date(1),
            Value::Int(-7),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Int(0),
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
            Value::Null,
            Value::text(""),
            Value::text("a"),
            Value::text("żółw 🐢"),
            Value::text("a"),
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(i64::MAX),
            Value::Float(i64::MAX as f64),
            Value::Null,
        ]
    }

    /// Typed columns (each with NULLs), plain and as dict / run-length views.
    fn columns() -> Vec<(Vec<Value>, Arc<Array>)> {
        let all = values();
        let of = |keep: fn(&Value) -> bool| -> Vec<Value> {
            all.iter().filter(|v| keep(v) || v.is_null()).cloned().collect()
        };
        let typed = vec![
            of(|v| matches!(v, Value::Int(_))),
            of(|v| matches!(v, Value::Float(_))),
            of(|v| matches!(v, Value::Date(_))),
            of(|v| matches!(v, Value::Text(_))),
            of(|v| matches!(v, Value::Bool(_))),
            vec![Value::Null; 3],
        ];
        let mut out = Vec::new();
        for rows in typed {
            let plain = Arc::new(Array::from_values(rows.clone()).unwrap());
            // A view that draws more rows than the dictionary has, and one that draws fewer.
            let wide: Vec<u32> = (0..rows.len() as u32).rev().chain(0..rows.len() as u32).collect();
            let narrow = [rows.len() as u32 - 1, 0];
            for picks in [&wide[..], &narrow[..]] {
                let view = plain.take_dict(&Arc::from(picks));
                out.push((picks.iter().map(|&i| rows[i as usize].clone()).collect(), view.into()));
            }
            let runs = Array::RunLength {
                values: plain.clone(),
                run_ends: (1..=rows.len() as u32).map(|run| run * 2).collect(),
            };
            out.push((rows.iter().flat_map(|v| [v.clone(), v.clone()]).collect(), runs.into()));
            out.push((rows, plain));
        }
        out
    }

    #[test]
    fn a_single_column_key_hashes_as_its_boxed_value() {
        let state = RandomState::new();
        for (rows, column) in columns() {
            let mut hashes = vec![42];
            hash_rows(&state, std::slice::from_ref(&column), &mut hashes);
            let expected: Vec<u64> = rows.iter().map(|value| state.hash_one(value)).collect();
            assert_eq!(hashes, expected, "{column:?}");
        }
        let mut hashes = vec![42];
        hash_rows(&state, &[], &mut hashes);
        assert!(hashes.is_empty());
    }

    #[test]
    fn rows_equal_is_value_equality_with_a_null_safe_flag() {
        let columns = columns();
        for (rows_a, a) in &columns {
            for (rows_b, b) in &columns {
                let (a, b) = (std::slice::from_ref(a), std::slice::from_ref(b));
                for (i, x) in rows_a.iter().enumerate() {
                    for (j, y) in rows_b.iter().enumerate() {
                        assert_eq!(rows_equal(a, i, b, j, &[true]), x == y, "{x:?} vs {y:?}");
                        let unknown =
                            |v: &Value| v.is_null() || matches!(v, Value::Float(f) if f.is_nan());
                        assert_eq!(
                            rows_equal(a, i, b, j, &[false]),
                            x == y && !unknown(x) && !unknown(y),
                            "{x:?} = {y:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn multi_column_keys_hash_alike_in_every_representation() {
        let texts = [Value::text("a"), Value::text(""), Value::text("a"), Value::Null];
        let text = Arc::new(Array::from_values(texts).unwrap());
        let numbers = [
            [Value::Int(1), Value::Int(0), Value::Int(-7), Value::Null],
            [Value::Float(1.0), Value::Float(-0.0), Value::Float(f64::NAN), Value::Null],
            [Value::Date(1), Value::Date(0), Value::Date(-7), Value::Null],
        ];
        let keys = numbers.map(|n| [Arc::new(Array::from_values(n).unwrap()), text.clone()]);
        let state = RandomState::new();
        let hashes = keys.clone().map(|key| {
            let mut hashes = Vec::new();
            hash_rows(&state, &key, &mut hashes);
            hashes
        });
        // Equal keys hash alike (Int 1 / Float 1.0 / Date 1, both zeros, NULLs) ...
        let mut equal_pairs = 0;
        for (a, hashes_a) in keys.iter().zip(&hashes) {
            for (b, hashes_b) in keys.iter().zip(&hashes) {
                for (i, j) in (0..4).flat_map(|i| (0..4).map(move |j| (i, j))) {
                    if rows_equal(a, i, b, j, &[true, true]) {
                        assert_eq!(hashes_a[i], hashes_b[j], "rows {i} and {j}");
                        equal_pairs += 1;
                    } else {
                        assert_ne!(hashes_a[i], hashes_b[j], "rows {i} and {j}");
                    }
                }
            }
        }
        assert!(equal_pairs > keys.len() * 4, "keys of different types hold equal values");
        // ... and the column order matters.
        let mut swapped = Vec::new();
        hash_rows(&state, &[text.clone(), keys[0][0].clone()], &mut swapped);
        assert_ne!(hashes[0], swapped);
        // Views of the same rows hash to the same.
        let picks: Arc<[u32]> = (0..4).rev().collect();
        let views = [Arc::new(keys[1][0].take_dict(&picks)), Arc::new(text.take_dict(&picks))];
        let mut viewed = Vec::new();
        hash_rows(&state, &views, &mut viewed);
        viewed.reverse();
        assert_eq!(viewed, hashes[1]);
        let mixed = [views[0].clone(), Arc::new(text.take(&picks))];
        let mut mixed_hashes = Vec::new();
        hash_rows(&state, &mixed, &mut mixed_hashes);
        mixed_hashes.reverse();
        assert_eq!(mixed_hashes, hashes[1]);
    }

    #[test]
    fn invalid_slots_hash_and_compare_as_null_whatever_they_hold() {
        let padded = Arc::new(Array::Int { values: vec![7, 9], validity: Bitmap::all_unset(2) });
        let nulls = Arc::new(Array::Null { len: 2 });
        let state = RandomState::new();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        hash_rows(&state, std::slice::from_ref(&padded), &mut a);
        hash_rows(&state, std::slice::from_ref(&nulls), &mut b);
        assert_eq!(a, b);
        let padded = std::slice::from_ref(&padded);
        assert!(rows_equal(padded, 0, &[nulls], 1, &[true]));
        assert!(!rows_equal(padded, 0, padded, 0, &[false]));
    }

    #[test]
    fn the_row_table_keeps_colliding_keys_apart() {
        // Every key hashes to 7: equality alone tells them apart.
        let keys = ["a", "b", "c", "a", "b", "a"];
        let mut table: RowTable<usize> = RowTable::new();
        let mut counts = Vec::new();
        for (row, key) in keys.iter().enumerate() {
            let (first, found) = table.slot(7, |first| keys[first] == *key, row);
            if !found {
                counts.push((*first, 0));
            }
            let first = *first;
            counts.iter_mut().find(|(f, _)| *f == first).unwrap().1 += 1;
        }
        assert_eq!(counts, vec![(0, 3), (1, 2), (2, 1)]);
        assert_eq!(table.len(), 3);
        assert_eq!(table.find(7, |first| keys[first] == "c"), Some(2));
        assert_eq!(table.find(7, |first| keys[first] == "d"), None);
        assert_eq!(table.find(8, |_| true), None);
        // A payload can be replaced in place (a join chain's head).
        *table.slot(7, |first| keys[first] == "b", 0).0 = 4;
        assert_eq!(table.find(7, |first| keys[first] == "b"), Some(4));
    }
}

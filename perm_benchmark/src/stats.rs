//! Order statistics and the result digest.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use perm_algebra::{DataChunk, Value};

/// A percentile is reported only with at least this many samples beyond it.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (in `0.0..=1.0`) among `len` samples.
fn rank(len: usize, p: f64) -> usize {
    ((p * len as f64).ceil() as usize).clamp(1, len.max(1))
}

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    sorted.get(rank(sorted.len(), p) - 1).copied().unwrap_or(0.0)
}

/// The percentile, or `None` when fewer than [`MIN_SAMPLES_BEYOND`] samples lie beyond it (an
/// estimate resting on a handful of outliers is noise, not a tail).
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    (sorted.len() >= rank(sorted.len(), p) + MIN_SAMPLES_BEYOND).then(|| nearest_rank(sorted, p))
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of unsorted values; 0 when empty.
pub fn median(values: Vec<f64>) -> f64 {
    nearest_rank(&sorted(values), 0.5)
}

/// Row count plus an order-insensitive, multiplicity-sensitive digest of a result.
///
/// Each row hashes to 64 bits and the row hashes are summed (wrapping): a sum does not depend
/// on order, and a duplicated row adds its hash again.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub sum: u64,
}

impl Digest {
    pub fn add_chunk(&mut self, chunk: &DataChunk) {
        // Column-major: hash each column's values into per-row states.
        let mut rows: Vec<DefaultHasher> = vec![DefaultHasher::new(); chunk.num_rows()];
        for col in 0..chunk.num_columns() {
            let column = chunk.column(col);
            for (row, hasher) in rows.iter_mut().enumerate() {
                hash_value(&column.value(row), hasher);
            }
        }
        for hasher in rows {
            self.sum = self.sum.wrapping_add(hasher.finish());
        }
        self.rows += chunk.num_rows() as u64;
    }

    pub fn of_chunks<'a>(chunks: impl IntoIterator<Item = &'a DataChunk>) -> Digest {
        let mut digest = Digest::default();
        for chunk in chunks {
            digest.add_chunk(chunk);
        }
        digest
    }
}

/// Floats hash by their first ten significant digits: the reference evaluator and the parallel
/// engine may add the same numbers in a different order and differ in the last bits.
fn hash_value(value: &Value, hasher: &mut DefaultHasher) {
    match value {
        Value::Float(f) => format!("{f:.9e}").hash(hasher),
        other => other.hash(hasher),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_algebra::tuple;

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.90), None, "99 samples leave 9 beyond p90");
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.90), Some(90.0));
        assert_eq!(percentile(&samples, 0.99), None);
        assert_eq!(percentile(&samples[..19], 0.5), None);
        assert_eq!(percentile(&samples[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(nearest_rank(&samples, 0.99), 99.0);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
    }

    #[test]
    fn digest_is_order_insensitive_and_multiplicity_sensitive() {
        let a = tuple![1, "x"];
        let b = tuple![2, "y"];
        let chunk = |rows: &[perm_algebra::Tuple]| DataChunk::from_tuples(2, rows);
        let ab = Digest::of_chunks([&chunk(&[a.clone(), b.clone()])]);
        let ba =
            Digest::of_chunks([&chunk(std::slice::from_ref(&b)), &chunk(std::slice::from_ref(&a))]);
        assert_eq!(ab, ba, "row and chunk order do not matter");
        let aab = Digest::of_chunks([&chunk(&[a.clone(), a.clone(), b.clone()])]);
        assert_ne!(ab.sum, aab.sum, "a duplicated row changes the digest");
        assert_eq!(aab.rows, 3);
        let swapped = Digest::of_chunks([&chunk(&[tuple!["x", 1], b])]);
        assert_ne!(ab, swapped, "column order matters");
    }

    #[test]
    fn digest_ignores_float_noise_below_ten_digits() {
        let chunk = |f: f64| DataChunk::from_tuples(1, &[tuple![f]]);
        let a = Digest::of_chunks([&chunk(0.1 + 0.2)]);
        let b = Digest::of_chunks([&chunk(0.3)]);
        assert_eq!(a, b);
        assert_ne!(a, Digest::of_chunks([&chunk(0.3001)]));
    }
}

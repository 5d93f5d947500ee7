//! Per-table statistics: the input of the cost-based planner in `perm-exec`.
//!
//! Statistics are collected from a [`crate::Relation`]'s stored chunks
//! ([`crate::Relation::chunks`]) in a column-at-a-time sweep. They are computed lazily on first
//! request and cached on the relation; any mutation drops the cache, so a statistic handed out
//! is always consistent with the relation contents it was computed from. Freshness across commits is tracked by the catalog's version counter
//! (see [`crate::TableEntry::modified_version`]): plan caches already invalidate on version
//! bumps, which makes stale-statistics plans impossible to serve by construction.

use std::collections::hash_map::RandomState;
use std::sync::Arc;

use perm_algebra::{hash_rows, rows_equal, Array, DataChunk, RowTable, Value};

/// Statistics for one column of a stored relation.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Number of distinct non-NULL values.
    ///
    /// Collected exactly (a table of the distinct rows, hashed and compared in their chunks);
    /// at the in-memory scales this engine stores the exact count is cheaper than sketch
    /// maintenance would be, and the estimator treats it as an estimate regardless.
    pub distinct: u64,
    /// Number of NULL values.
    pub null_count: u64,
    /// Smallest non-NULL value under SQL ordering (`None` for an empty or all-NULL column, or
    /// when the column holds nothing comparable — e.g. only NaN).
    pub min: Option<Value>,
    /// Largest non-NULL value under SQL ordering.
    pub max: Option<Value>,
}

impl ColumnStats {
    /// Stats of an empty column.
    fn empty() -> ColumnStats {
        ColumnStats { distinct: 0, null_count: 0, min: None, max: None }
    }
}

/// Statistics for one stored relation: total row count plus per-column detail.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Total number of rows (counting duplicates — bag semantics).
    pub row_count: u64,
    /// Per-column statistics, in schema order.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Collect statistics from a columnar view: one pass per column over every chunk. Values
    /// stay in their chunks — a sweep boxes two bound candidates per chunk, not a value per row.
    pub fn compute(chunks: &[DataChunk], arity: usize) -> TableStats {
        let row_count: usize = chunks.iter().map(|c| c.num_rows()).sum();
        let mut columns = Vec::with_capacity(arity);
        let state = RandomState::new();
        let mut hashes = Vec::new();
        for col in 0..arity {
            let mut stats = ColumnStats::empty();
            // Distinct values, each by the (chunk, row) it was first seen at.
            let mut seen: RowTable<(u32, u32)> = RowTable::new();
            for (c, chunk) in chunks.iter().enumerate() {
                let column = chunk.column(col);
                let key = std::slice::from_ref(column);
                hash_rows(&state, key, &mut hashes);
                for (row, &hash) in hashes.iter().enumerate() {
                    if column.is_null(row) {
                        stats.null_count += 1;
                        continue;
                    }
                    let same = |(c, r): (u32, u32)| {
                        let first = std::slice::from_ref(chunks[c as usize].column(col));
                        rows_equal(first, r as usize, key, row, &[true])
                    };
                    seen.slot(hash, same, (c as u32, row as u32));
                }
                for row in bound_rows(column) {
                    let value = column.value(row);
                    update_bound(&mut stats.min, &value, std::cmp::Ordering::Less);
                    update_bound(&mut stats.max, &value, std::cmp::Ordering::Greater);
                }
            }
            stats.distinct = seen.len() as u64;
            columns.push(stats);
        }
        TableStats { row_count: row_count as u64, columns }
    }

    /// Statistics of column `index`, if the table has that many columns.
    pub fn column(&self, index: usize) -> Option<&ColumnStats> {
        self.columns.get(index)
    }
}

/// The rows of `column` that may hold its bounds. A natively typed column names its smallest
/// and largest non-NULL rows ([`Array::compare`] is `sql_cmp` there, but for NaN, which it
/// orders and `sql_cmp` cannot: NaN rows are passed over); an encoded column names every row.
fn bound_rows(column: &Array) -> Vec<usize> {
    let orderable = |row: usize| match column {
        Array::Float { values, .. } => !values[row].is_nan(),
        _ => true,
    };
    let rows = (0..column.len()).filter(|&row| !column.is_null(row));
    if column.is_encoded() {
        return rows.collect();
    }
    let mut bounds: Option<(usize, usize)> = None;
    for row in rows.filter(|&row| orderable(row)) {
        bounds = Some(match bounds {
            None => (row, row),
            Some((min, max)) => (
                if column.compare(row, column, min).is_lt() { row } else { min },
                if column.compare(row, column, max).is_gt() { row } else { max },
            ),
        });
    }
    bounds.map_or(Vec::new(), |(min, max)| vec![min, max])
}

/// Replace `bound` with `value` when the value compares `keep` against it. Values `sql_cmp`
/// cannot order (NaN, cross-type oddities) never become a bound.
fn update_bound(bound: &mut Option<Value>, value: &Value, keep: std::cmp::Ordering) {
    match bound {
        None => {
            // NaN cannot be ordered against anything, so it must not seed the bound either.
            if value.sql_cmp(value).is_some() {
                *bound = Some(value.clone());
            }
        }
        Some(current) => {
            if value.sql_cmp(current) == Some(keep) {
                *bound = Some(value.clone());
            }
        }
    }
}

/// A cheap, shareable handle to one table's statistics.
pub type SharedTableStats = Arc<TableStats>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Relation;
    use perm_algebra::{tuple, DataType, Schema, Tuple};

    fn sample() -> Relation {
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("name", DataType::Text)]);
        let tuples = vec![
            tuple![1, "a"],
            tuple![2, "b"],
            tuple![2, "b"],
            Tuple::new(vec![Value::Int(3), Value::Null]),
        ];
        Relation::new(schema, tuples).unwrap()
    }

    #[test]
    fn stats_count_rows_distincts_nulls_and_bounds() {
        let r = sample();
        let stats = r.stats();
        assert_eq!(stats.row_count, 4);
        let k = stats.column(0).unwrap();
        assert_eq!(k.distinct, 3);
        assert_eq!(k.null_count, 0);
        assert_eq!(k.min, Some(Value::Int(1)));
        assert_eq!(k.max, Some(Value::Int(3)));
        let name = stats.column(1).unwrap();
        assert_eq!(name.distinct, 2);
        assert_eq!(name.null_count, 1);
        assert_eq!(name.min, Some(Value::text("a")));
        assert_eq!(name.max, Some(Value::text("b")));
    }

    #[test]
    fn stats_are_cached_and_invalidated_by_mutation() {
        let mut r = sample();
        let first = r.stats();
        assert!(Arc::ptr_eq(&first, &r.stats()), "second request reuses the cache");
        r.push(tuple![9, "z"]).unwrap();
        let after = r.stats();
        assert_eq!(after.row_count, 5);
        assert_eq!(after.column(0).unwrap().max, Some(Value::Int(9)));
    }

    #[test]
    fn nan_never_becomes_a_bound() {
        let schema = Schema::from_pairs(&[("f", DataType::Float)]);
        let rows = vec![
            Tuple::new(vec![Value::Float(f64::NAN)]),
            Tuple::new(vec![Value::Float(1.5)]),
            Tuple::new(vec![Value::Float(f64::NAN)]),
        ];
        let r = Relation::new(schema, rows).unwrap();
        let stats = r.stats();
        let f = stats.column(0).unwrap();
        assert_eq!(f.min, Some(Value::Float(1.5)));
        assert_eq!(f.max, Some(Value::Float(1.5)));
        assert_eq!(f.null_count, 0);
    }

    #[test]
    fn empty_relation_has_empty_stats() {
        let r = Relation::empty(Schema::from_pairs(&[("x", DataType::Int)]));
        let stats = r.stats();
        assert_eq!(stats.row_count, 0);
        assert_eq!(stats.column(0).unwrap().distinct, 0);
        assert_eq!(stats.column(0).unwrap().min, None);
    }
}

//! Materialised bag-semantic relations, stored as a list of columnar chunks.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

use perm_algebra::{
    AlgebraError, Attribute, DataChunk, DataType, Schema, Tuple, Value, DEFAULT_CHUNK_SIZE,
};

use crate::stats::TableStats;

/// A materialised relation: a schema plus a bag of rows.
///
/// Duplicates are kept (bag semantics); the multiplicity of a tuple is its number of physical
/// occurrences. This is exactly the representation the Perm provenance representation needs: a
/// result tuple is duplicated once per combination of contributing source tuples.
///
/// Rows are stored once, as [`DataChunk`]s of up to [`DEFAULT_CHUNK_SIZE`] rows — what the
/// engine scans and produces. The row-shaped accessors ([`Relation::tuples`] and friends) are an
/// on-demand view for the oracle, the baselines and tests: they box rows on every call and cache
/// nothing.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Schema,
    /// Shared with every reader that took [`Relation::chunks`]; appends copy the chunk *list*
    /// (refcount bumps), never the chunks.
    chunks: Arc<Vec<DataChunk>>,
    /// Per-column statistics; lazily collected on first request and dropped by any mutation
    /// (see [`crate::stats`]).
    stats: OnceLock<Arc<TableStats>>,
    /// Total row count.
    rows: usize,
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.rows == other.rows && self.iter().eq(other.iter())
    }
}

/// Rows in batches of up to [`DEFAULT_CHUNK_SIZE`], each batch dropped once it is converted.
fn row_batches(rows: Vec<Tuple>) -> impl Iterator<Item = Vec<Tuple>> {
    let mut rows = rows.into_iter();
    std::iter::from_fn(move || {
        let batch: Vec<Tuple> = rows.by_ref().take(DEFAULT_CHUNK_SIZE).collect();
        (!batch.is_empty()).then_some(batch)
    })
}

/// Does a value or column of type `actual` fit the column `attribute` declares? NULL fits
/// every column; anything else is a [`AlgebraError::TypeMismatch`] naming the column.
fn check_type(attribute: &Attribute, actual: DataType) -> Result<(), AlgebraError> {
    if [actual, attribute.data_type].contains(&DataType::Null) || actual == attribute.data_type {
        return Ok(());
    }
    Err(AlgebraError::type_mismatch(
        format!("column '{}'", attribute.name),
        attribute.data_type,
        actual,
    ))
}

fn arity_mismatch(got: usize, schema: &Schema) -> AlgebraError {
    AlgebraError::Internal(format!(
        "tuple arity {got} does not match schema arity {}",
        schema.arity()
    ))
}

impl Relation {
    /// Create an empty relation with the given schema.
    pub fn empty(schema: Schema) -> Relation {
        Relation::from_chunks(schema, Vec::new())
    }

    /// Create a relation from a schema and tuples.
    ///
    /// Every tuple must have the same arity as the schema.
    pub fn new(schema: Schema, tuples: Vec<Tuple>) -> Result<Relation, AlgebraError> {
        let mut relation = Relation::empty(schema);
        relation.extend(tuples)?;
        Ok(relation)
    }

    /// Create a relation without checking tuple arities or types (used on rows the caller has
    /// produced itself, typed column by column: see [`DataChunk::from_tuples`]). The rows are
    /// consumed batch by batch, so a large input is never resident twice.
    pub fn from_parts(schema: Schema, tuples: Vec<Tuple>) -> Relation {
        let arity = schema.arity();
        let chunks = row_batches(tuples).map(|batch| DataChunk::from_tuples(arity, &batch));
        Relation::from_chunks(schema, chunks.collect())
    }

    /// Create a relation directly from columnar chunks (what the engine returns).
    pub fn from_chunks(schema: Schema, chunks: Vec<DataChunk>) -> Relation {
        let rows = chunks.iter().map(|c| c.num_rows()).sum();
        Relation { schema, chunks: Arc::new(chunks), stats: OnceLock::new(), rows }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The stored chunks (a refcount bump).
    pub fn chunks(&self) -> Arc<Vec<DataChunk>> {
        self.chunks.clone()
    }

    /// The stored chunks by value, for a consumer that hands them on one at a time and wants
    /// each freed as it goes (a query stream). Copies the list, never a chunk, when
    /// another reader still holds it.
    pub fn into_chunks(self) -> Vec<DataChunk> {
        Arc::try_unwrap(self.chunks).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Per-column statistics (row count, distinct values, NULL count, min/max), collected on
    /// first request and cached. Mutations drop the cache, so the handle always describes the
    /// relation contents at the time of the call.
    pub fn stats(&self) -> Arc<TableStats> {
        self.stats
            .get_or_init(|| Arc::new(TableStats::compute(&self.chunks, self.schema.arity())))
            .clone()
    }

    /// Approximate heap footprint of the stored chunks in bytes.
    pub fn byte_size(&self) -> usize {
        self.chunks.iter().map(DataChunk::byte_size).sum()
    }

    /// Number of tuples (counting duplicates).
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Append chunks of this relation's arity. A partial tail chunk is topped up to
    /// [`DEFAULT_CHUNK_SIZE`] rows first and the rest is cut into chunks of at most that size;
    /// full chunks are never touched, so an append under a reader that holds
    /// [`Relation::chunks`] costs one refcount bump per stored column plus the tail. All or
    /// nothing: a column of another type than the schema declares, or a top-up that would lay
    /// more text end to end than one column can hold ([`AlgebraError::ColumnTooLarge`]), leaves
    /// the relation as it was.
    pub fn append_chunks(&mut self, new: &[DataChunk]) -> Result<(), AlgebraError> {
        if let Some(c) = new.iter().find(|c| c.num_columns() != self.schema.arity()) {
            return Err(arity_mismatch(c.num_columns(), &self.schema));
        }
        for chunk in new {
            for (column, a) in chunk.columns().iter().zip(self.schema.attributes()) {
                check_type(a, column.data_type())?;
            }
        }
        let before = (self.chunks.len(), self.chunks.last().cloned(), self.rows);
        for chunk in new {
            // Stored data is plain: a dictionary view would pin its whole source column.
            if let Err(e) = self.append_chunk(chunk.to_plain()) {
                let (len, tail, rows) = before;
                let chunks = Arc::make_mut(&mut self.chunks);
                chunks.truncate(len);
                if let (Some(last), Some(tail)) = (chunks.last_mut(), tail) {
                    *last = tail;
                }
                self.rows = rows;
                return Err(e);
            }
        }
        Ok(())
    }

    /// Append one plain chunk of the right arity (on an error nothing of it is appended).
    fn append_chunk(&mut self, chunk: DataChunk) -> Result<(), AlgebraError> {
        let rows = chunk.num_rows();
        if rows == 0 {
            return Ok(());
        }
        let mut offset = 0;
        let mut topped_up = None;
        if let Some(tail) = self.chunks.last().filter(|t| t.num_rows() < DEFAULT_CHUNK_SIZE) {
            offset = (DEFAULT_CHUNK_SIZE - tail.num_rows()).min(rows);
            let head = if offset == rows { chunk.clone() } else { chunk.slice(0, offset) };
            topped_up = Some(DataChunk::concat(chunk.num_columns(), &[tail.clone(), head])?);
        }
        // Statistics describe exact contents: recollect lazily after any append.
        self.stats = OnceLock::new();
        self.rows += rows;
        let chunks = Arc::make_mut(&mut self.chunks);
        if let (Some(tail), Some(topped_up)) = (chunks.last_mut(), topped_up) {
            *tail = topped_up;
        }
        if offset == 0 && rows <= DEFAULT_CHUNK_SIZE {
            chunks.push(chunk);
        } else {
            while offset < rows {
                let len = (rows - offset).min(DEFAULT_CHUNK_SIZE);
                chunks.push(chunk.slice(offset, len));
                offset += len;
            }
        }
        Ok(())
    }

    /// Append rows of the right arity, each value cast to its column's declared type
    /// ([`Value::cast`]) where it does not fit it — the one place inserted values are coerced. A
    /// value that casts to nothing refuses all the rows; they convert to chunks a chunk's worth
    /// at a time.
    fn append_rows(&mut self, new: Vec<Tuple>) -> Result<(), AlgebraError> {
        let cast = |(v, a): (Value, &Attribute)| match check_type(a, v.data_type()) {
            Ok(()) => Ok(v),
            Err(e) => v.cast(a.data_type).map_err(|_| e),
        };
        let attributes = self.schema.attributes();
        let typed = |t: Tuple| t.into_values().into_iter().zip(attributes).map(cast).collect();
        let rows = new.into_iter().map(typed).collect::<Result<Vec<Tuple>, _>>()?;
        let arity = self.schema.arity();
        row_batches(rows)
            .try_for_each(|batch| self.append_chunks(&[DataChunk::try_from_tuples(arity, &batch)?]))
    }

    /// Append a tuple.
    pub fn push(&mut self, tuple: Tuple) -> Result<(), AlgebraError> {
        self.extend([tuple])
    }

    /// Append many tuples.
    pub fn extend(&mut self, tuples: impl IntoIterator<Item = Tuple>) -> Result<(), AlgebraError> {
        let tuples: Vec<Tuple> = tuples.into_iter().collect();
        if let Some(t) = tuples.iter().find(|t| t.arity() != self.schema.arity()) {
            return Err(arity_mismatch(t.arity(), &self.schema));
        }
        self.append_rows(tuples)
    }

    /// Iterate over the rows as tuples, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = Tuple> + '_ {
        self.chunks.iter().flat_map(DataChunk::iter_tuples)
    }

    /// The rows as tuples, in insertion order.
    pub fn tuples(&self) -> Vec<Tuple> {
        self.iter().collect()
    }

    /// Consume the relation returning its tuples.
    pub fn into_tuples(self) -> Vec<Tuple> {
        self.tuples()
    }

    /// The multiplicity of each distinct tuple.
    pub fn multiplicities(&self) -> HashMap<Tuple, usize> {
        let mut counts: HashMap<Tuple, usize> = HashMap::new();
        for t in self.iter() {
            *counts.entry(t).or_insert(0) += 1;
        }
        counts
    }

    /// Number of *distinct* tuples.
    pub fn num_distinct_rows(&self) -> usize {
        self.multiplicities().len()
    }

    /// Bag equality: same schema arity and same tuples with the same multiplicities, regardless
    /// of order. Used pervasively in tests.
    pub fn bag_eq(&self, other: &Relation) -> bool {
        if self.schema.arity() != other.schema.arity() || self.num_rows() != other.num_rows() {
            return false;
        }
        self.multiplicities() == other.multiplicities()
    }

    /// Set equality: same distinct tuples, ignoring multiplicities and order.
    pub fn set_eq(&self, other: &Relation) -> bool {
        if self.schema.arity() != other.schema.arity() {
            return false;
        }
        self.iter().collect::<HashSet<Tuple>>() == other.iter().collect::<HashSet<Tuple>>()
    }

    /// Return a copy sorted by the total value order (stable presentation for tests/examples).
    pub fn sorted(&self) -> Relation {
        let mut tuples = self.tuples();
        tuples.sort();
        Relation::from_parts(self.schema.clone(), tuples)
    }

    /// Project the relation onto the attributes at `positions` (bag semantics).
    pub fn project(&self, positions: &[usize]) -> Relation {
        Relation::from_parts(
            self.schema.project(positions),
            self.iter().map(|t| t.project(positions)).collect(),
        )
    }

    /// Row `row` as a tuple, if the relation has that many rows.
    pub fn tuple_at(&self, row: usize) -> Option<Tuple> {
        let mut offset = row;
        for chunk in self.chunks.iter() {
            if offset < chunk.num_rows() {
                return Some(chunk.tuple_at(offset));
            }
            offset -= chunk.num_rows();
        }
        None
    }

    /// Value of attribute `name` in row `row`.
    pub fn value_at(&self, row: usize, name: &str) -> Result<Value, AlgebraError> {
        let col = self.schema.resolve(name)?;
        self.tuple_at(row)
            .and_then(|t| t.get(col).cloned())
            .ok_or(AlgebraError::ColumnIndexOutOfBounds { index: row, width: self.num_rows() })
    }

    /// Render the relation as a simple ASCII table (used by examples and the benchmark harness).
    pub fn to_table_string(&self) -> String {
        let names = self.schema.attribute_names();
        let mut widths: Vec<usize> = names.iter().map(|n| n.len()).collect();
        let rendered: Vec<Vec<String>> =
            self.iter().map(|t| t.values().iter().map(|v| v.to_string()).collect()).collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let sep: String =
            widths.iter().map(|w| format!("+{}", "-".repeat(w + 2))).collect::<String>() + "+\n";
        out.push_str(&sep);
        out.push('|');
        for (n, w) in names.iter().zip(&widths) {
            out.push_str(&format!(" {n:<w$} |"));
        }
        out.push('\n');
        out.push_str(&sep);
        for row in &rendered {
            out.push('|');
            for (cell, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {cell:<w$} |"));
            }
            out.push('\n');
        }
        out.push_str(&sep);
        out
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_table_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_algebra::{tuple, DataType};

    fn schema() -> Schema {
        Schema::from_pairs(&[("name", DataType::Text), ("n", DataType::Int)])
    }

    fn rows(range: std::ops::Range<usize>) -> Vec<Tuple> {
        range.map(|i| tuple![format!("r{i}"), i as i64]).collect()
    }

    #[test]
    fn new_rejects_arity_mismatch() {
        assert!(Relation::new(schema(), vec![tuple!["a"]]).is_err());
        assert!(Relation::new(schema(), vec![tuple!["a", 1]]).is_ok());
        // The check runs over the whole input before any row is converted.
        let mut r = Relation::empty(schema());
        assert!(r.extend(vec![tuple!["a", 1], tuple!["b"]]).is_err());
        assert!(r.is_empty() && r.chunks().is_empty());
    }

    /// A one-row `(name, n)` chunk whose text column claims `text_len` bytes — by its offsets
    /// only, so a test can stand in for gigabytes of text without allocating them.
    fn chunk_claiming(text_len: u32) -> DataChunk {
        use perm_algebra::{Array, Bitmap};
        DataChunk::new(vec![
            Arc::new(Array::Text {
                offsets: vec![0, text_len],
                bytes: Vec::new(),
                validity: Bitmap::all_set(1),
            }),
            Arc::new(Array::from_values([Value::Int(1)]).unwrap()),
        ])
    }

    #[test]
    fn an_append_that_outgrows_a_text_column_is_refused_whole() {
        // Topping up the open tail would lay 6 GiB end to end: refused, the tail untouched.
        let mut r = Relation::from_chunks(schema(), vec![chunk_claiming(3 << 30)]);
        let before = r.chunks();
        let error = r.append_chunks(&[chunk_claiming(3 << 30)]).unwrap_err();
        assert!(matches!(error, AlgebraError::ColumnTooLarge { .. }), "{error}");
        assert_eq!((r.num_rows(), r.chunks().len()), (1, 1));
        assert!(Arc::ptr_eq(r.chunks()[0].column(0), before[0].column(0)));
        // All or nothing: the first chunk of this append fits, the second does not.
        let mut r = Relation::empty(schema());
        assert!(r.append_chunks(&[chunk_claiming(3 << 30), chunk_claiming(3 << 30)]).is_err());
        assert!(r.is_empty() && r.chunks().is_empty());
        r.append_chunks(&[DataChunk::from_tuples(2, &rows(0..3))]).unwrap();
        assert_eq!((r.num_rows(), r.chunks().len()), (3, 1));
    }

    #[test]
    fn bag_semantics_keeps_duplicates() {
        let mut r = Relation::empty(schema());
        r.push(tuple!["a", 1]).unwrap();
        r.push(tuple!["a", 1]).unwrap();
        r.push(tuple!["b", 2]).unwrap();
        assert_eq!(r.num_rows(), 3);
        assert_eq!(r.num_distinct_rows(), 2);
        assert_eq!(r.multiplicities()[&tuple!["a", 1]], 2);
    }

    #[test]
    fn bag_eq_is_order_insensitive_but_multiplicity_sensitive() {
        let a =
            Relation::new(schema(), vec![tuple!["a", 1], tuple!["b", 2], tuple!["a", 1]]).unwrap();
        let b =
            Relation::new(schema(), vec![tuple!["b", 2], tuple!["a", 1], tuple!["a", 1]]).unwrap();
        let c = Relation::new(schema(), vec![tuple!["a", 1], tuple!["b", 2]]).unwrap();
        assert!(a.bag_eq(&b));
        assert!(!a.bag_eq(&c));
        assert!(a.set_eq(&c));
    }

    #[test]
    fn project_keeps_duplicates() {
        let r = Relation::new(schema(), vec![tuple!["a", 1], tuple!["b", 1]]).unwrap();
        let p = r.project(&[1]);
        assert_eq!(p.num_rows(), 2);
        assert_eq!(p.schema().attribute_names(), vec!["n"]);
        assert_eq!(p.tuples()[0], tuple![1]);
    }

    #[test]
    fn value_at_resolves_by_name() {
        let r = Relation::new(schema(), rows(0..DEFAULT_CHUNK_SIZE + 2)).unwrap();
        assert_eq!(r.value_at(7, "n").unwrap(), Value::Int(7));
        assert_eq!(r.tuple_at(DEFAULT_CHUNK_SIZE), Some(tuple!["r1024", 1024]));
        assert_eq!(r.tuple_at(DEFAULT_CHUNK_SIZE + 2), None);
        assert_eq!(r.value_at(DEFAULT_CHUNK_SIZE + 1, "n").unwrap().as_i64(), Some(1025));
        assert!(r.value_at(0, "missing").is_err());
        assert!(r.value_at(DEFAULT_CHUNK_SIZE + 2, "n").is_err());
    }

    #[test]
    fn table_rendering_contains_headers_and_rows() {
        let r = Relation::new(schema(), vec![tuple!["Merdies", 3]]).unwrap();
        let s = r.to_table_string();
        assert!(s.contains("name"));
        assert!(s.contains("Merdies"));
    }

    #[test]
    fn sorted_orders_rows() {
        let r = Relation::new(schema(), vec![tuple!["b", 2], tuple!["a", 1]]).unwrap();
        let s = r.sorted();
        assert_eq!(s.tuples()[0], tuple!["a", 1]);
    }

    #[test]
    fn rows_convert_eagerly_into_bounded_chunks_and_round_trip() {
        let input = rows(0..DEFAULT_CHUNK_SIZE + 1);
        let r = Relation::new(schema(), input.clone()).unwrap();
        let chunks = r.chunks();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].num_rows(), DEFAULT_CHUNK_SIZE);
        assert_eq!(chunks[1].num_rows(), 1);
        // One representation: the same list is handed out again, and clones share it.
        assert!(Arc::ptr_eq(&chunks, &r.chunks()));
        assert!(Arc::ptr_eq(&chunks, &r.clone().chunks()));
        let back = Relation::from_chunks(r.schema().clone(), (*chunks).clone());
        assert_eq!(back.num_rows(), input.len());
        assert_eq!(back.tuples(), input);
        assert_eq!(back.clone().into_tuples(), input);
        assert_eq!(back, r);
        assert_eq!(r.byte_size(), chunks.iter().map(DataChunk::byte_size).sum::<usize>());
    }

    #[test]
    fn append_shares_full_chunks_and_rebuilds_only_the_tail() {
        let mut r = Relation::new(schema(), rows(0..DEFAULT_CHUNK_SIZE + 1)).unwrap();
        let before = r.chunks();
        r.push(tuple!["x", -1]).unwrap();
        let after = r.chunks();
        assert_eq!(before.len(), 2, "the reader's list is untouched");
        assert_eq!(before[1].num_rows(), 1);
        assert_eq!(after.len(), 2);
        assert!(
            Arc::ptr_eq(before[0].column(0), after[0].column(0)),
            "the full leading chunk must be shared, not rebuilt"
        );
        assert_eq!(after[1].num_rows(), 2);
        assert_eq!(after[1].tuple_at(1), tuple!["x", -1]);
        assert_eq!(r.num_rows(), DEFAULT_CHUNK_SIZE + 2);
    }
}

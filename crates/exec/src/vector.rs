//! Vectorized expression kernels: how the engine in [`crate::parallel`] evaluates scalar
//! expressions and join conditions over columnar [`DataChunk`] batches.
//!
//! [`CompiledExpr::eval_array`] runs typed kernels over native value slices for comparisons
//! and arithmetic on Int/Float/Date/Text columns, selective (mask-directed) evaluation for
//! `AND`/`OR` so a decisive left operand shields the right one from evaluation, and a per-row
//! fallback through [`CompiledExpr::eval`] for the long tail (`CASE`, non-constant `IN`).
//! [`project_chunk`] is projection as a column gather (a bare column reference forwards the
//! input column by refcount) and [`JoinFilter`] decides join matches while touching only the
//! columns the condition reads.
//!
//! The kernels sit under one rule about data movement, which [`crate::parallel`] applies: *a
//! join batch is two index buffers over its sources; operators above keep views while the
//! dictionary is shared.* A join never copies a source value into its output — every output
//! column is an [`Array::Dict`] view of the probe or build column it came from, and all columns
//! of one side share that side's index buffer. Filters, limits, further joins and `ORDER BY`
//! re-address those buffers (once per shared buffer, not once per column) and leave the
//! dictionaries alone — but for an outer join, which copies the dictionaries of a build side
//! of views once to put the NULL row its pads address behind them. A kernel that *computes* on
//! a view ([`vectorized_binary`]) decodes it first: that is the only place the engine pays for
//! a repeated value, and only for the columns an expression actually reads (a nested-loop
//! join decodes those of its build side once, [`JoinFilter::scanned_build`]).

use std::sync::Arc;

use perm_algebra::{
    Array, ArrayBuilder, BinaryOperator, Bitmap, DataChunk, ScalarExpr, Tuple, UnaryOperator, Value,
};

use crate::compile::{in_set_lookup, in_values, CompiledExpr};
use crate::error::ExecError;
use crate::eval::{binary_op_values, evaluate_function, logical_combine, unary_op_value};

/// Build a chunk from computed columns, preserving the row count even when there are no
/// columns (zero-width chunks keep flowing through the pipeline).
pub(crate) fn chunk_from_columns(columns: Vec<Arc<Array>>, rows: usize) -> DataChunk {
    if columns.is_empty() {
        DataChunk::zero_width(rows)
    } else {
        DataChunk::new(columns)
    }
}

/// Evaluate projection expressions over a chunk, producing the output chunk (bare column
/// references forward the input column by refcount).
pub(crate) fn project_chunk(
    exprs: &[CompiledExpr],
    chunk: &DataChunk,
) -> Result<DataChunk, ExecError> {
    let mut columns = Vec::with_capacity(exprs.len());
    for e in exprs {
        columns.push(e.eval_array(chunk)?);
    }
    Ok(chunk_from_columns(columns, chunk.num_rows()))
}

/// Candidate count at which a join filter switches from per-pair tuple evaluation to the
/// vectorized path: below this the per-call chunk assembly costs more than it saves.
pub(crate) const VECTORIZED_FILTER_THRESHOLD: usize = 8;

/// A compiled join condition (loop-mode full condition or hash-mode residual) plus the
/// combined-schema columns it actually reads, split by side.
///
/// Provenance rewrites push joins whose inputs carry dozens of duplicated payload columns;
/// deciding a match must not materialize those payloads. Both evaluation strategies below touch
/// only the columns the condition references: the vectorized path broadcasts the probe row's
/// used values and gathers the used build columns into a narrow chunk (everything else is a
/// NULL placeholder column that is never read), the per-pair path boxes used cells into a
/// sparse tuple.
pub(crate) struct JoinFilter {
    expr: CompiledExpr,
    /// Probe-side columns the condition reads.
    probe_cols: Vec<usize>,
    /// Build-side columns the condition reads, rebased onto the build chunk.
    build_cols: Vec<usize>,
    left_arity: usize,
    right_arity: usize,
}

impl JoinFilter {
    /// `source` is the uncompiled condition `expr` came from (used for column analysis); a
    /// sublink-bearing condition may read columns invisible to `columns_used`, so it
    /// conservatively reads everything.
    pub(crate) fn new(
        expr: CompiledExpr,
        source: &ScalarExpr,
        left_arity: usize,
        right_arity: usize,
    ) -> JoinFilter {
        let used: Vec<usize> = if source.has_sublink() {
            (0..left_arity + right_arity).collect()
        } else {
            source.columns_used()
        };
        let probe_cols: Vec<usize> = used.iter().copied().filter(|&c| c < left_arity).collect();
        let build_cols: Vec<usize> =
            used.iter().filter(|&&c| c >= left_arity).map(|&c| c - left_arity).collect();
        JoinFilter { expr, probe_cols, build_cols, left_arity, right_arity }
    }

    /// The first `rows` rows of `build` as a nested loop scans them for every probe row: the
    /// columns the condition reads — short of an outer join's NULL slot, which is not a build
    /// row, and decoded if they are views — prepared once per join instead of once per probe
    /// row. Every other column is a NULL placeholder that is never read.
    pub(crate) fn scanned_build(&self, build: &DataChunk, rows: usize) -> DataChunk {
        let columns = (0..self.right_arity)
            .map(|c| {
                let column = build.column(c);
                if !self.build_cols.contains(&c) {
                    Arc::new(Array::Null { len: rows })
                } else if column.len() == rows && !column.is_encoded() {
                    column.clone()
                } else {
                    Arc::new(column.slice(0, rows).to_plain())
                }
            })
            .collect();
        chunk_from_columns(columns, rows)
    }

    /// Evaluate the condition for probe row `row` against `candidates` build rows (`None` =
    /// all of `build`, a [`Self::scanned_build`]) in one vectorized pass; returns the matching build-row indices in
    /// candidate order. Error semantics match per-pair evaluation: kernels run in row order,
    /// so the first failing candidate raises.
    pub(crate) fn matches_vectorized(
        &self,
        probe: &DataChunk,
        row: usize,
        build: &DataChunk,
        candidates: Option<&[u32]>,
    ) -> Result<Vec<u32>, ExecError> {
        let rows = candidates.map_or(build.num_rows(), <[u32]>::len);
        if rows == 0 {
            return Ok(Vec::new());
        }
        let mut columns: Vec<Arc<Array>> = Vec::with_capacity(self.left_arity + self.right_arity);
        let mut probe_used = self.probe_cols.iter().peekable();
        for c in 0..self.left_arity {
            if probe_used.next_if(|&&u| u == c).is_some() {
                columns.push(Arc::new(Array::repeat(&probe.column(c).value(row), rows)));
            } else {
                columns.push(Arc::new(Array::Null { len: rows }));
            }
        }
        let mut build_used = self.build_cols.iter().peekable();
        for c in 0..self.right_arity {
            if build_used.next_if(|&&u| u == c).is_some() {
                columns.push(match candidates {
                    Some(idx) => Arc::new(build.column(c).take(idx)),
                    None => build.column(c).clone(),
                });
            } else {
                columns.push(Arc::new(Array::Null { len: rows }));
            }
        }
        let mask = self.expr.eval_mask(&chunk_from_columns(columns, rows))?;
        Ok(mask
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m)
            .map(|(i, _)| candidates.map_or(i as u32, |idx| idx[i]))
            .collect())
    }

    /// Evaluate one (probe row, build row) pair through a sparse tuple: only used cells are
    /// boxed, the rest stay NULL. Used for short hash chains where vectorization doesn't pay.
    pub(crate) fn matches_pair(
        &self,
        probe: &DataChunk,
        row: usize,
        build: &DataChunk,
        candidate: usize,
    ) -> Result<bool, ExecError> {
        let mut values = vec![Value::Null; self.left_arity + self.right_arity];
        for &c in &self.probe_cols {
            values[c] = probe.column(c).value(row);
        }
        for &c in &self.build_cols {
            values[self.left_arity + c] = build.column(c).value(candidate);
        }
        self.expr.eval_predicate(&Tuple::new(values))
    }
}

// ---------------------------------------------------------------------------
// Vectorized scalar expression evaluation.
// ---------------------------------------------------------------------------

impl CompiledExpr {
    /// Evaluate the expression over a whole chunk, producing one output column.
    ///
    /// Bare column references forward the input column by refcount; comparisons and arithmetic
    /// on native columns run typed kernels; `AND`/`OR` evaluate their right side selectively
    /// (only on rows the left side leaves undecided) so error and short-circuit semantics match
    /// row-at-a-time evaluation; everything else falls back to a per-row loop.
    pub(crate) fn eval_array(&self, chunk: &DataChunk) -> Result<Arc<Array>, ExecError> {
        let rows = chunk.num_rows();
        match self {
            CompiledExpr::Column(index) => {
                if *index >= chunk.num_columns() {
                    return Err(ExecError::Internal(format!(
                        "column #{index} out of bounds for chunk of arity {}",
                        chunk.num_columns()
                    )));
                }
                Ok(chunk.column(*index).clone())
            }
            CompiledExpr::Literal(v) => Ok(Arc::new(Array::repeat(v, rows))),
            CompiledExpr::Binary { op, left, right } => {
                let l = left.eval_array(chunk)?;
                let r = right.eval_array(chunk)?;
                Ok(Arc::new(vectorized_binary(*op, &l, &r)?))
            }
            CompiledExpr::Logical { op, left, right } => selective_logical(*op, left, right, chunk),
            CompiledExpr::Unary { op, expr } => {
                let a = expr.eval_array(chunk)?;
                match op {
                    UnaryOperator::IsNull => Ok(Arc::new(null_test(&a, false))),
                    UnaryOperator::IsNotNull => Ok(Arc::new(null_test(&a, true))),
                    _ => {
                        let mut builder = ArrayBuilder::with_capacity(rows);
                        for i in 0..rows {
                            builder.push(unary_op_value(*op, a.value(i))?);
                        }
                        Ok(Arc::new(builder.finish()))
                    }
                }
            }
            CompiledExpr::Function { func, args } => {
                let arg_arrays: Vec<Arc<Array>> =
                    args.iter().map(|a| a.eval_array(chunk)).collect::<Result<_, _>>()?;
                let mut builder = ArrayBuilder::with_capacity(rows);
                let mut buf: Vec<Value> = vec![Value::Null; arg_arrays.len()];
                for i in 0..rows {
                    for (slot, arr) in buf.iter_mut().zip(&arg_arrays) {
                        *slot = arr.value(i);
                    }
                    builder.push(evaluate_function(*func, &buf)?);
                }
                Ok(Arc::new(builder.finish()))
            }
            CompiledExpr::Cast { expr, data_type } => {
                let a = expr.eval_array(chunk)?;
                let mut builder = ArrayBuilder::with_capacity(rows);
                for i in 0..rows {
                    builder.push(a.value(i).cast(*data_type)?);
                }
                Ok(Arc::new(builder.finish()))
            }
            CompiledExpr::InSet { expr, set, types, has_null, negated } => {
                let needles = expr.eval_array(chunk)?;
                let mut builder = ArrayBuilder::with_capacity(rows);
                for i in 0..rows {
                    builder.push(in_set_lookup(
                        &needles.value(i),
                        set,
                        *types,
                        *has_null,
                        *negated,
                    ));
                }
                Ok(Arc::new(builder.finish()))
            }
            CompiledExpr::InValues { expr, values, negated } => {
                let needles = expr.eval_array(chunk)?;
                let mut builder = ArrayBuilder::with_capacity(rows);
                for i in 0..rows {
                    builder.push(in_values(
                        &needles.value(i),
                        values.iter().map(|v| Ok(v.clone())),
                        *negated,
                    )?);
                }
                Ok(Arc::new(builder.finish()))
            }
            // CASE branches and non-constant IN lists are evaluated lazily per row in the
            // row-at-a-time evaluator, and must stay lazy (a taken branch must not observe
            // another branch's error). Fall back to row evaluation.
            CompiledExpr::Case { .. } | CompiledExpr::InList { .. } => {
                let mut builder = ArrayBuilder::with_capacity(rows);
                for i in 0..rows {
                    builder.push(self.eval(&chunk.tuple_at(i))?);
                }
                Ok(Arc::new(builder.finish()))
            }
        }
    }

    /// Evaluate as a chunk-wide predicate mask: `true` only for SQL TRUE.
    pub(crate) fn eval_mask(&self, chunk: &DataChunk) -> Result<Vec<bool>, ExecError> {
        let arr = self.eval_array(chunk)?;
        Ok(bool_view(&arr).into_iter().map(|b| b == Some(true)).collect())
    }
}

/// The three-valued boolean view of a column ([`Value::as_bool`] semantics per row).
fn bool_view(a: &Array) -> Vec<Option<bool>> {
    match a {
        Array::Bool { values, validity } => {
            values.iter().enumerate().map(|(i, v)| validity.get(i).then_some(*v)).collect()
        }
        Array::Int { values, validity } => {
            values.iter().enumerate().map(|(i, v)| validity.get(i).then_some(*v != 0)).collect()
        }
        Array::Any { values } => values.iter().map(|v| v.as_bool()).collect(),
        // Encoded views must be decoded, not treated as the untyped all-NULL fallback.
        encoded if encoded.is_encoded() => bool_view(&encoded.to_plain()),
        other => vec![None; other.len()],
    }
}

/// `IS [NOT] NULL` straight off the validity bitmap.
fn null_test(a: &Array, negated: bool) -> Array {
    let len = a.len();
    let values: Vec<bool> =
        (0..len).map(|i| if negated { !a.is_null(i) } else { a.is_null(i) }).collect();
    Array::Bool { values, validity: Bitmap::all_set(len) }
}

/// Selective `AND`/`OR`: evaluate the left side over the whole chunk, then evaluate the right
/// side only over the rows the left side leaves undecided (so a decisive left operand shields
/// the right side from evaluation — same error semantics as short-circuiting row evaluation).
fn selective_logical(
    op: BinaryOperator,
    left: &CompiledExpr,
    right: &CompiledExpr,
    chunk: &DataChunk,
) -> Result<Arc<Array>, ExecError> {
    let rows = chunk.num_rows();
    let l = left.eval_array(chunk)?;
    let lb = bool_view(&l);
    let decisive = |b: &Option<bool>| match op {
        BinaryOperator::And => *b == Some(false),
        BinaryOperator::Or => *b == Some(true),
        _ => unreachable!("only AND/OR are logical"),
    };
    let undecided: Vec<bool> = lb.iter().map(|b| !decisive(b)).collect();
    let n_undecided = undecided.iter().filter(|u| **u).count();
    let rb: Vec<Option<bool>> = if n_undecided == 0 {
        Vec::new()
    } else if n_undecided == rows {
        let r = right.eval_array(chunk)?;
        bool_view(&r)
    } else {
        let sub = chunk.filter(&undecided);
        let r = right.eval_array(&sub)?;
        bool_view(&r)
    };
    let mut values = Vec::with_capacity(rows);
    let mut validity = Bitmap::new();
    let mut r_pos = 0;
    for (i, l_bool) in lb.iter().enumerate() {
        let combined = if undecided[i] {
            let r_bool = rb[r_pos];
            r_pos += 1;
            logical_combine(op, *l_bool, r_bool)
        } else {
            // Decisive left operand: FALSE for AND, TRUE for OR.
            Value::Bool(op == BinaryOperator::Or)
        };
        match combined {
            Value::Bool(b) => {
                values.push(b);
                validity.push(true);
            }
            _ => {
                values.push(false);
                validity.push(false);
            }
        }
    }
    Ok(Arc::new(Array::Bool { values, validity }))
}

/// Map a comparison operator over an ordering.
fn cmp_to_bool(op: BinaryOperator, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        BinaryOperator::Eq => ord == Equal,
        BinaryOperator::NotEq => ord != Equal,
        BinaryOperator::Lt => ord == Less,
        BinaryOperator::LtEq => ord != Greater,
        BinaryOperator::Gt => ord == Greater,
        BinaryOperator::GtEq => ord != Less,
        _ => unreachable!("not a comparison operator"),
    }
}

fn is_cmp(op: BinaryOperator) -> bool {
    matches!(
        op,
        BinaryOperator::Eq
            | BinaryOperator::NotEq
            | BinaryOperator::Lt
            | BinaryOperator::LtEq
            | BinaryOperator::Gt
            | BinaryOperator::GtEq
    )
}

/// Comparison kernel over two native slices (result is NULL where either side is NULL or the
/// comparison is undefined, e.g. against NaN).
fn cmp_kernel<T, U>(
    op: BinaryOperator,
    a: &[T],
    va: &Bitmap,
    b: &[U],
    vb: &Bitmap,
    cmp: impl Fn(&T, &U) -> Option<std::cmp::Ordering>,
) -> Array {
    let len = a.len();
    let mut values = Vec::with_capacity(len);
    let mut validity = Bitmap::new();
    for i in 0..len {
        match (va.get(i) && vb.get(i)).then(|| cmp(&a[i], &b[i])).flatten() {
            Some(ord) => {
                values.push(cmp_to_bool(op, ord));
                validity.push(true);
            }
            None => {
                values.push(false);
                validity.push(false);
            }
        }
    }
    Array::Bool { values, validity }
}

/// Arithmetic kernel over two native slices (NULL where either side is NULL).
fn arith_kernel<T: Copy, U: Copy, O: Default>(
    a: &[T],
    va: &Bitmap,
    b: &[U],
    vb: &Bitmap,
    f: impl Fn(T, U) -> O,
    wrap: impl Fn(Vec<O>, Bitmap) -> Array,
) -> Array {
    let len = a.len();
    let mut values = Vec::with_capacity(len);
    let mut validity = Bitmap::new();
    for i in 0..len {
        if va.get(i) && vb.get(i) {
            values.push(f(a[i], b[i]));
            validity.push(true);
        } else {
            values.push(O::default());
            validity.push(false);
        }
    }
    wrap(values, validity)
}

/// Checked integer-arithmetic kernel: stops at the first overflowing row with the same
/// [`ExecError::ArithmeticOverflow`] per-row evaluation raises through checked [`Value`]
/// arithmetic.
fn checked_arith_kernel<T: Copy, U: Copy, O: Default>(
    a: &[T],
    va: &Bitmap,
    b: &[U],
    vb: &Bitmap,
    f: impl Fn(T, U) -> Option<O>,
    operation: &str,
    wrap: impl Fn(Vec<O>, Bitmap) -> Array,
) -> Result<Array, ExecError> {
    let len = a.len();
    let mut values = Vec::with_capacity(len);
    let mut validity = Bitmap::new();
    for i in 0..len {
        if va.get(i) && vb.get(i) {
            match f(a[i], b[i]) {
                Some(v) => {
                    values.push(v);
                    validity.push(true);
                }
                None => {
                    return Err(ExecError::ArithmeticOverflow { operation: operation.to_string() })
                }
            }
        } else {
            values.push(O::default());
            validity.push(false);
        }
    }
    Ok(wrap(values, validity))
}

/// Vectorized non-logical binary operator over two columns: typed kernels for the native
/// column pairs that dominate query workloads, a per-row fallback (through the exact
/// row-at-a-time semantics in [`binary_op_values`]) for everything else.
fn vectorized_binary(op: BinaryOperator, l: &Array, r: &Array) -> Result<Array, ExecError> {
    use BinaryOperator::*;
    debug_assert_eq!(l.len(), r.len());
    // Encoded operands are decoded up front so the typed kernels below apply; computing on a
    // factorized column pays the materialization the gather deferred, exactly once.
    if l.is_encoded() {
        return vectorized_binary(op, &l.to_plain(), r);
    }
    if r.is_encoded() {
        return vectorized_binary(op, l, &r.to_plain());
    }
    // All-NULL operands: every row-wise result is NULL for the null-propagating operators.
    if !matches!(op, IsDistinctFrom | IsNotDistinctFrom)
        && (matches!(l, Array::Null { .. }) || matches!(r, Array::Null { .. }))
    {
        return Ok(Array::Null { len: l.len() });
    }
    match (l, r) {
        (Array::Int { values: a, validity: va }, Array::Int { values: b, validity: vb }) => {
            if is_cmp(op) {
                return Ok(cmp_kernel(op, a, va, b, vb, |x, y| Some(x.cmp(y))));
            }
            match op {
                Add => {
                    return checked_arith_kernel(
                        a,
                        va,
                        b,
                        vb,
                        i64::checked_add,
                        "addition",
                        int_array,
                    )
                }
                Sub => {
                    return checked_arith_kernel(
                        a,
                        va,
                        b,
                        vb,
                        i64::checked_sub,
                        "subtraction",
                        int_array,
                    )
                }
                Mul => {
                    return checked_arith_kernel(
                        a,
                        va,
                        b,
                        vb,
                        i64::checked_mul,
                        "multiplication",
                        int_array,
                    )
                }
                _ => {}
            }
        }
        (Array::Float { values: a, validity: va }, Array::Float { values: b, validity: vb }) => {
            if is_cmp(op) {
                return Ok(cmp_kernel(op, a, va, b, vb, |x, y| x.partial_cmp(y)));
            }
            match op {
                Add => return Ok(arith_kernel(a, va, b, vb, |x, y| x + y, float_array)),
                Sub => return Ok(arith_kernel(a, va, b, vb, |x, y| x - y, float_array)),
                Mul => return Ok(arith_kernel(a, va, b, vb, |x, y| x * y, float_array)),
                Div => return Ok(arith_kernel(a, va, b, vb, |x, y| x / y, float_array)),
                _ => {}
            }
        }
        (Array::Int { values: a, validity: va }, Array::Float { values: b, validity: vb }) => {
            if is_cmp(op) {
                return Ok(cmp_kernel(op, a, va, b, vb, |x, y| (*x as f64).partial_cmp(y)));
            }
            match op {
                Add => return Ok(arith_kernel(a, va, b, vb, |x, y| x as f64 + y, float_array)),
                Sub => return Ok(arith_kernel(a, va, b, vb, |x, y| x as f64 - y, float_array)),
                Mul => return Ok(arith_kernel(a, va, b, vb, |x, y| x as f64 * y, float_array)),
                Div => return Ok(arith_kernel(a, va, b, vb, |x, y| x as f64 / y, float_array)),
                _ => {}
            }
        }
        (Array::Float { values: a, validity: va }, Array::Int { values: b, validity: vb }) => {
            if is_cmp(op) {
                return Ok(cmp_kernel(op, a, va, b, vb, |x, y| x.partial_cmp(&(*y as f64))));
            }
            match op {
                Add => return Ok(arith_kernel(a, va, b, vb, |x, y| x + y as f64, float_array)),
                Sub => return Ok(arith_kernel(a, va, b, vb, |x, y| x - y as f64, float_array)),
                Mul => return Ok(arith_kernel(a, va, b, vb, |x, y| x * y as f64, float_array)),
                Div => return Ok(arith_kernel(a, va, b, vb, |x, y| x / y as f64, float_array)),
                _ => {}
            }
        }
        (Array::Date { values: a, validity: va }, Array::Date { values: b, validity: vb })
            if is_cmp(op) =>
        {
            return Ok(cmp_kernel(op, a, va, b, vb, |x, y| Some(x.cmp(y))));
        }
        (Array::Date { values: a, validity: va }, Array::Int { values: b, validity: vb }) => {
            if is_cmp(op) {
                return Ok(cmp_kernel(op, a, va, b, vb, |x, y| Some((*x as i64).cmp(y))));
            }
            if op == Add {
                return checked_arith_kernel(
                    a,
                    va,
                    b,
                    vb,
                    |x: i32, y: i64| i32::try_from(y).ok().and_then(|d| x.checked_add(d)),
                    "addition",
                    date_array,
                );
            }
            if op == Sub {
                return checked_arith_kernel(
                    a,
                    va,
                    b,
                    vb,
                    |x: i32, y: i64| {
                        y.checked_neg()
                            .and_then(|d| i32::try_from(d).ok())
                            .and_then(|d| x.checked_add(d))
                    },
                    "subtraction",
                    date_array,
                );
            }
        }
        (Array::Int { values: a, validity: va }, Array::Date { values: b, validity: vb })
            if is_cmp(op) =>
        {
            return Ok(cmp_kernel(op, a, va, b, vb, |x, y| Some(x.cmp(&(*y as i64)))));
        }
        (Array::Text { values: a, validity: va }, Array::Text { values: b, validity: vb })
            if is_cmp(op) =>
        {
            return Ok(cmp_kernel(op, a, va, b, vb, |x, y| Some(x.cmp(y))));
        }
        _ => {}
    }
    // Generic fallback: exact row-at-a-time semantics per row.
    let mut builder = ArrayBuilder::with_capacity(l.len());
    for i in 0..l.len() {
        builder.push(binary_op_values(op, &l.value(i), &r.value(i))?);
    }
    Ok(builder.finish())
}

fn int_array(values: Vec<i64>, validity: Bitmap) -> Array {
    Array::Int { values, validity }
}

fn float_array(values: Vec<f64>, validity: Bitmap) -> Array {
    Array::Float { values, validity }
}

fn date_array(values: Vec<i32>, validity: Bitmap) -> Array {
    Array::Date { values, validity }
}

//! Vectorized expression kernels: the one way the engine in [`crate::parallel`] evaluates a
//! compiled expression or a join condition — column-wise over [`DataChunk`] batches.
//!
//! [`CompiledExpr::eval_array`] runs typed kernels over native value slices for comparisons
//! and arithmetic on Int/Float/Date columns, comparisons and `LIKE` on Text, and maps the scalar semantics of
//! [`crate::eval`] over the rows for the rest. The lazily evaluated forms — `AND`/`OR`, `CASE`,
//! `IN` over a list — share one selective step ([`eval_selected`]): a sub-expression runs only
//! on the rows whose result still depends on it, so a decided row never evaluates (and never
//! fails in) a shielded operand, branch or candidate. Kernels run one after another over the
//! whole batch: when several rows fail, the error reported is the earliest kernel's.
//! [`project_chunk`] is projection as a column gather (a bare column reference forwards the
//! input column by refcount) and [`JoinFilter`] decides a batch of candidate pairs while
//! touching only the columns the condition reads.
//!
//! The kernels sit under one rule about data movement, which [`crate::parallel`] applies: *a
//! filter batch is one index buffer over its source; a join batch is one per source buffer its
//! sides carry; operators above keep views while the dictionary is shared.* A filter never copies
//! a kept row — every column it passes on is an [`Array::Dict`] view of its source column through
//! the kept positions, one buffer for the whole batch ([`DataChunk::filter`]); the selective step
//! does the same. A join never copies a source value into its output — every output column is a
//! view of the probe or build column it came from, and the columns of a side that shared a buffer
//! share one composed buffer: two per batch over plain sides, one per source buffer over a side of
//! views. Further filters, limits, joins and `ORDER BY` re-address those buffers (once per shared
//! buffer, not once per column) and leave the dictionaries alone — but for an outer join, which
//! copies the dictionaries of a build side of views once to put the NULL row its pads address
//! behind them. A kernel that *computes* on a view ([`vectorized_binary`]) decodes it first: that
//! is the only place the engine pays for a repeated value, and only for the columns an expression
//! actually reads (a join condition decodes those of its build side once per join,
//! [`JoinFilter::new`]).

use std::sync::Arc;

use perm_algebra::chunk::{text_row, text_str};
use perm_algebra::{
    Array, ArrayBuilder, BinaryOperator, Bitmap, DataChunk, DataType, ScalarExpr, UnaryOperator,
    Value,
};

use crate::compile::{in_set_lookup, CompiledExpr};
use crate::error::ExecError;
use crate::eval::{
    binary_op_values, evaluate_function, like_match, logical_combine, unary_op_value,
};

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

/// A compiled join condition (a nested loop's full condition or a hash join's residual) over
/// the combined schema, with the columns it actually reads.
///
/// Provenance rewrites push joins whose inputs carry dozens of duplicated payload columns;
/// deciding a match must not materialize those payloads. A batch of candidate pairs is
/// evaluated over the read columns gathered at the pairs; every other column is a NULL
/// placeholder that is never read.
pub(crate) struct JoinFilter {
    expr: CompiledExpr,
    /// Probe-side columns the condition reads.
    probe_cols: Vec<usize>,
    /// The build side, column by column: a column the condition reads, decoded if it is a
    /// view — once per join, not once per batch — or `None`.
    build: Vec<Option<Arc<Array>>>,
    left_arity: usize,
}

impl JoinFilter {
    /// `source` is the uncompiled condition `expr` came from (used for column analysis); a
    /// sublink-bearing condition may read columns invisible to `columns_used`, so it
    /// conservatively reads everything.
    pub(crate) fn new(
        expr: CompiledExpr,
        source: &ScalarExpr,
        left_arity: usize,
        build: &DataChunk,
    ) -> JoinFilter {
        let (all, used) = (source.has_sublink(), source.columns_used());
        let reads = |column: usize| all || used.contains(&column);
        let probe_cols = (0..left_arity).filter(|&c| reads(c)).collect();
        let build = (0..build.num_columns())
            .map(|c| {
                let column = build.column(c);
                reads(left_arity + c).then(|| {
                    if column.is_encoded() {
                        Arc::new(column.to_plain())
                    } else {
                        column.clone()
                    }
                })
            })
            .collect();
        JoinFilter { expr, probe_cols, build, left_arity }
    }

    /// Decide a batch of candidate pairs — probe row `probe_rows[i]` with build row
    /// `build_rows[i]` — in one [`CompiledExpr::eval_mask`] over the columns the condition
    /// reads, gathered at the pairs.
    pub(crate) fn eval_pairs(
        &self,
        probe: &DataChunk,
        probe_rows: &[u32],
        build_rows: &[u32],
    ) -> Result<Vec<bool>, ExecError> {
        let pairs = probe_rows.len();
        let unread = Arc::new(Array::Null { len: pairs });
        let mut columns = vec![unread.clone(); self.left_arity];
        for &c in &self.probe_cols {
            columns[c] = Arc::new(probe.column(c).take(probe_rows));
        }
        columns.extend(self.build.iter().map(|column| match column {
            Some(column) => Arc::new(column.take(build_rows)),
            None => unread.clone(),
        }));
        self.expr.eval_mask(&chunk_from_columns(columns, pairs))
    }
}

// ---------------------------------------------------------------------------
// Vectorized scalar expression evaluation.
// ---------------------------------------------------------------------------

impl CompiledExpr {
    /// Evaluate the expression over a whole chunk, producing one output column.
    ///
    /// Bare column references forward the input column by refcount; comparisons and arithmetic
    /// on native columns run typed kernels; `AND`/`OR`, `CASE` and `IN` over a list evaluate
    /// their later operands selectively (only on the rows the earlier ones leave undecided);
    /// everything else maps the scalar semantics over the rows.
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
                    _ => map_rows(rows, |i| unary_op_value(*op, a.value(i))).map(Arc::new),
                }
            }
            CompiledExpr::Function { func, args } => {
                let args: Vec<Arc<Array>> =
                    args.iter().map(|a| a.eval_array(chunk)).collect::<Result<_, _>>()?;
                let mut buf: Vec<Value> = vec![Value::Null; args.len()];
                map_rows(rows, |i| {
                    for (slot, arg) in buf.iter_mut().zip(&args) {
                        *slot = arg.value(i);
                    }
                    evaluate_function(*func, &buf)
                })
                .map(Arc::new)
            }
            CompiledExpr::Cast { expr, data_type } => {
                let a = expr.eval_array(chunk)?;
                map_rows(rows, |i| Ok(a.value(i).cast(*data_type)?)).map(Arc::new)
            }
            CompiledExpr::InSet { expr, set, types, has_null, negated } => {
                let needles = expr.eval_array(chunk)?;
                map_rows(rows, |i| {
                    Ok(in_set_lookup(&needles.value(i), set, *types, *has_null, *negated))
                })
                .map(Arc::new)
            }
            CompiledExpr::Case { operand, branches, else_expr } => {
                selective_case(operand.as_deref(), branches, else_expr.as_deref(), chunk)
            }
            CompiledExpr::InList { expr, list, negated } => {
                selective_in_list(expr, list, *negated, chunk)
            }
        }
    }

    /// Evaluate as a chunk-wide predicate mask: `true` only for SQL TRUE.
    pub(crate) fn eval_mask(&self, chunk: &DataChunk) -> Result<Vec<bool>, ExecError> {
        let arr = self.eval_array(chunk)?;
        Ok(bool_view(&arr).into_iter().map(|b| b == Some(true)).collect())
    }
}

/// One output row per input row: `f(i)` is row `i`'s value under the scalar semantics of
/// [`crate::eval`]; the first failing row raises.
fn map_rows(
    rows: usize,
    mut f: impl FnMut(usize) -> Result<Value, ExecError>,
) -> Result<Array, ExecError> {
    let mut builder = ArrayBuilder::with_capacity(rows);
    for i in 0..rows {
        builder.push(f(i)?)?;
    }
    Ok(builder.finish())
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
        // Encoded views must be decoded, not treated as the untyped all-NULL fallback. Text, the
        // one type a decoded view may stay encoded in, has no boolean view.
        a if a.is_encoded() && a.data_type() != DataType::Text => bool_view(&a.to_plain()),
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

/// The selective step under `AND`/`OR`, `CASE` and `IN`: evaluate `expr` on the `selected`
/// rows of `chunk` only, so a row whose result is already decided never evaluates — and never
/// fails in — an expression it does not depend on. One result row per selected row, in row
/// order; nothing selected evaluates nothing.
fn eval_selected(
    expr: &CompiledExpr,
    chunk: &DataChunk,
    selected: &[bool],
) -> Result<Arc<Array>, ExecError> {
    if !selected.contains(&true) {
        return Ok(Arc::new(Array::Null { len: 0 }));
    }
    expr.eval_array(&chunk.filter(selected))
}

/// `lhs = rhs` in three-valued logic (`sql_eq`), where `rhs` holds one row per `selected` row
/// of `lhs` — what a simple `CASE` asks of its operand and `IN` of its needle.
fn eq_selected(
    lhs: &Arc<Array>,
    selected: &[bool],
    rhs: &Array,
) -> Result<Vec<Option<bool>>, ExecError> {
    Ok(bool_view(&vectorized_binary(BinaryOperator::Eq, &lhs.filter(selected), rhs)?))
}

/// Selective `AND`/`OR`: evaluate the left side over the whole chunk, then the right side only
/// over the rows the left side leaves undecided.
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
    let rb = bool_view(&*eval_selected(right, chunk, &undecided)?);
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

/// Selective `CASE`: each `WHEN` is evaluated on the rows no earlier branch took, each `THEN`
/// on the rows its `WHEN` takes, `ELSE` on what is left (NULL without one). A simple `CASE`
/// evaluates its operand once and takes a branch where `operand = WHEN` is TRUE.
fn selective_case(
    operand: Option<&CompiledExpr>,
    branches: &[(CompiledExpr, CompiledExpr)],
    else_expr: Option<&CompiledExpr>,
    chunk: &DataChunk,
) -> Result<Arc<Array>, ExecError> {
    let operand = operand.map(|o| o.eval_array(chunk)).transpose()?;
    let mut out = vec![Value::Null; chunk.num_rows()];
    let mut undecided = vec![true; out.len()];
    // Write the results for the `selected` rows (one per selected row) to their rows of `out`.
    let scatter = |out: &mut [Value], selected: &[bool], results: &Array| {
        let slots = out.iter_mut().zip(selected).filter(|(_, s)| **s);
        for (j, (slot, _)) in slots.enumerate() {
            *slot = results.value(j);
        }
    };
    for (when, then) in branches {
        let when = eval_selected(when, chunk, &undecided)?;
        let matched = match &operand {
            Some(operand) => eq_selected(operand, &undecided, &when)?,
            None => bool_view(&when),
        };
        let mut matched = matched.into_iter();
        let taken: Vec<bool> =
            undecided.iter().map(|&u| u && matched.next() == Some(Some(true))).collect();
        scatter(&mut out, &taken, &*eval_selected(then, chunk, &taken)?);
        for (undecided, taken) in undecided.iter_mut().zip(&taken) {
            *undecided &= !taken;
        }
    }
    if let Some(else_expr) = else_expr {
        scatter(&mut out, &undecided, &*eval_selected(else_expr, chunk, &undecided)?);
    }
    Ok(Arc::new(Array::from_values(out)?))
}

/// Selective `IN` over a list: a NULL needle is NULL and evaluates no candidate; every other
/// row evaluates the candidates in order up to its first match. Without a match the result is
/// NULL if some comparison was unknown (a NULL or incomparable candidate), else FALSE.
fn selective_in_list(
    needle: &CompiledExpr,
    list: &[CompiledExpr],
    negated: bool,
    chunk: &DataChunk,
) -> Result<Arc<Array>, ExecError> {
    let rows = chunk.num_rows();
    let needles = needle.eval_array(chunk)?;
    let mut undecided: Vec<bool> = (0..rows).map(|i| !needles.is_null(i)).collect();
    let mut result: Vec<Option<bool>> = undecided.iter().map(|&u| u.then_some(negated)).collect();
    for candidate in list {
        let candidates = eval_selected(candidate, chunk, &undecided)?;
        let mut equal = eq_selected(&needles, &undecided, &candidates)?.into_iter();
        for (undecided, result) in undecided.iter_mut().zip(&mut result) {
            if *undecided {
                match equal.next().flatten() {
                    Some(true) => (*undecided, *result) = (false, Some(!negated)),
                    Some(false) => {}
                    None => *result = None,
                }
            }
        }
    }
    Ok(Arc::new(Array::Bool {
        values: result.iter().map(|r| r.unwrap_or(false)).collect(),
        validity: result.iter().map(Option::is_some).collect(),
    }))
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
    // factorized column pays the materialization the gather deferred, exactly once. A view over
    // more text than a column addresses stays encoded and goes row by row.
    if l.is_encoded() || r.is_encoded() {
        let (dl, dr) = (l.is_encoded().then(|| l.to_plain()), r.is_encoded().then(|| r.to_plain()));
        let (l, r) = (dl.as_ref().unwrap_or(l), dr.as_ref().unwrap_or(r));
        if !l.is_encoded() && !r.is_encoded() {
            return vectorized_binary(op, l, r);
        }
        // Text compares where it lies, through the view.
        if is_cmp(op) && (l.data_type(), r.data_type()) == (DataType::Text, DataType::Text) {
            let validity: Bitmap = (0..l.len()).map(|i| !l.is_null(i) && !r.is_null(i)).collect();
            let values =
                (0..l.len()).map(|i| validity.get(i) && cmp_to_bool(op, l.compare(i, r, i)));
            return Ok(Array::Bool { values: values.collect(), validity });
        }
        return map_rows(l.len(), |i| binary_op_values(op, &l.value(i), &r.value(i)));
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
        (
            Array::Text { offsets: oa, bytes: a, validity: va },
            Array::Text { offsets: ob, bytes: b, validity: vb },
        ) if is_cmp(op) || matches!(op, Like | NotLike) => {
            // Text is compared where it lies (UTF-8 orders bytewise as `str` does) and
            // matched against a pattern as a borrowed `str`: no row is boxed.
            let decide = |i: usize| {
                let (x, y) = (text_row(oa, a, i), text_row(ob, b, i));
                match op {
                    Like => like_match(&text_str(x), &text_str(y)),
                    NotLike => !like_match(&text_str(x), &text_str(y)),
                    _ => cmp_to_bool(op, x.cmp(y)),
                }
            };
            let validity: Bitmap = (0..l.len()).map(|i| va.get(i) && vb.get(i)).collect();
            let values = (0..l.len()).map(|i| validity.get(i) && decide(i)).collect();
            return Ok(Array::Bool { values, validity });
        }
        _ => {}
    }
    // Everything else: the scalar semantics, row by row.
    map_rows(l.len(), |i| binary_op_values(op, &l.value(i), &r.value(i)))
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_operand_that_stays_encoded_is_compared_row_by_row() {
        // 4.5 MiB 1024 times over is more text than offsets address: decoding keeps the view.
        let big = Value::text("x".repeat(9 << 19));
        let repeated = Array::repeat(&big, 1024);
        assert!(repeated.to_plain().is_encoded());
        let names = Array::from_values((0..1024).map(|i| match i {
            7 => big.clone(),
            _ => Value::text(format!("n{i}")),
        }))
        .unwrap();
        let eq = vectorized_binary(BinaryOperator::Eq, &repeated, &names).unwrap();
        let hits: Vec<usize> =
            (0..eq.len()).filter(|&i| eq.value(i) == Value::Bool(true)).collect();
        assert_eq!(hits, [7]);
        assert_eq!(bool_view(&repeated), vec![None; 1024]);
    }
}

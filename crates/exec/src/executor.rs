//! The [`Executor`] front end: execution options, the per-query context, and the
//! pool-independent operator logic of the engine in [`crate::parallel`]: equi-key extraction,
//! and the aggregate accumulators it shares with the oracle in [`crate::reference`].
//!
//! There is one engine. [`Executor::execute`] runs the morsel executor at degree 1 on the
//! calling thread; [`Executor::execute_parallel`] runs the same code on a shared
//! [`crate::WorkerPool`]; [`Executor::open`] hands out the same execution as a
//! [`crate::ResultCursor`] whose top region is pulled. A pipeline breaker materializes its
//! output as a chunk list, results and errors are identical at every degree and however a
//! result is pulled, and [`ExecOptions`] bounds an execution by rows,
//! wall-clock time, cancellation and memory — see [`ExecOptions::row_budget`] for the budget
//! rule and the [`crate::parallel`] module docs for the operators.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use perm_algebra::{BinaryOperator, DataChunk, LogicalPlan, ScalarExpr, Schema, Value};
use perm_storage::{Catalog, CatalogSnapshot, Relation};

use crate::error::ExecError;

/// A cooperative cancellation flag shared between a running query and whoever controls it
/// (the wire server's `cancel` request, a dropped stream, the governor shedding a query, or
/// graceful shutdown).
///
/// Cancellation is *checked*, never forced: the engine polls the token at its deadline
/// checkpoints (morsel boundaries, join probe strides), so a cancel lands within one scheduling
/// quantum and operators always unwind through normal error paths.
#[derive(Debug, Default)]
pub struct CancelToken {
    /// 0 = live, 1 = cancelled, 2 = shed by the governor (resource exhausted).
    state: AtomicU8,
    /// The governor's explanation when `state == 2`.
    message: OnceLock<String>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Cancel the query (client request, dropped stream, shutdown). Idempotent; a
    /// resource-exhausted cancellation is never downgraded to a plain cancel.
    pub fn cancel(&self) {
        let _ = self.state.compare_exchange(0, 1, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// Cancel the query because the governor shed it; `message` explains which limit was hit.
    pub fn cancel_resource_exhausted(&self, message: impl Into<String>) {
        let _ = self.message.set(message.into());
        self.state.store(2, Ordering::Relaxed);
    }

    /// Whether the token has been cancelled (one relaxed atomic load).
    pub fn is_cancelled(&self) -> bool {
        self.state.load(Ordering::Relaxed) != 0
    }

    /// Error if cancelled: [`ExecError::Cancelled`] for plain cancellation,
    /// [`ExecError::ResourceExhausted`] when the governor shed the query.
    pub fn check(&self) -> Result<(), ExecError> {
        match self.state.load(Ordering::Relaxed) {
            0 => Ok(()),
            2 => Err(ExecError::ResourceExhausted(
                self.message.get().cloned().unwrap_or_else(|| "query shed by governor".into()),
            )),
            _ => Err(ExecError::Cancelled),
        }
    }
}

/// Memory accounting hook for one query: the service layer's governor implements this so the
/// executor can charge its materializations (join build sides, sort/aggregation buffers)
/// against per-session and engine-wide budgets.
///
/// Reservations are *coarse*: the executor reserves at materialization points (never per row)
/// and the implementor releases everything when the query ends, so accounting stays out of the
/// per-row hot path.
pub trait QueryMemory: Send + Sync + std::fmt::Debug {
    /// Reserve `bytes` against the query's budget. An `Err` (typically
    /// [`ExecError::ResourceExhausted`]) aborts the query cleanly instead of letting it OOM.
    fn reserve(&self, bytes: usize) -> Result<(), ExecError>;
}

/// Resource limits applied to a single plan execution.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// No operator may produce more than this many output rows. The row that takes an operator
    /// past the budget is an error met in plan order, like any other (see [`crate::reference`]
    /// for the rule), so a plan under a budget ends in the same `Ok` or
    /// [`ExecError::RowBudgetExceeded`] at every parallelism degree; a pulled result may have
    /// handed out chunks before the error. A streaming operator is charged only for the rows
    /// the output needs; everything below a materializing operator (sort, aggregation, set
    /// operation, DISTINCT, a join's inputs) is produced and charged in full.
    pub row_budget: Option<usize>,
    /// Wall-clock timeout.
    pub timeout: Option<Duration>,
    /// Cooperative cancellation token, polled at the same checkpoints as the deadline.
    pub cancel: Option<Arc<CancelToken>>,
    /// Memory-accounting hook charged at materialization points.
    pub memory: Option<Arc<dyn QueryMemory>>,
    /// Per-operator instrumentation sink (`EXPLAIN ANALYZE`); `None` means no profiling, and
    /// the engine then pays only one `Option` check per operator.
    pub profile: Option<Arc<crate::profile::ProfileSink>>,
}

impl ExecOptions {
    /// No limits.
    pub fn unlimited() -> ExecOptions {
        ExecOptions::default()
    }

    /// Limit the number of rows any operator may produce.
    pub fn with_row_budget(mut self, budget: usize) -> ExecOptions {
        self.row_budget = Some(budget);
        self
    }

    /// Limit wall-clock execution time.
    pub fn with_timeout(mut self, timeout: Duration) -> ExecOptions {
        self.timeout = Some(timeout);
        self
    }

    /// Attach a cancellation token (see [`CancelToken`]).
    pub fn with_cancel_token(mut self, token: Arc<CancelToken>) -> ExecOptions {
        self.cancel = Some(token);
        self
    }

    /// Attach a memory-accounting hook (see [`QueryMemory`]).
    pub fn with_memory(mut self, memory: Arc<dyn QueryMemory>) -> ExecOptions {
        self.memory = Some(memory);
        self
    }

    /// Attach a per-operator instrumentation sink (see [`crate::profile::ProfileSink`]).
    pub fn with_profile(mut self, profile: Arc<crate::profile::ProfileSink>) -> ExecOptions {
        self.profile = Some(profile);
        self
    }
}

/// Per-execution limits, resolved once per [`Executor::execute`] call and passed *by
/// reference* down the operator tree; morsel tasks keep a clone — two words plus a few
/// optional `Arc`s.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExecContext {
    row_budget: Option<usize>,
    deadline: Option<Deadline>,
    cancel: Option<Arc<CancelToken>>,
    memory: Option<Arc<dyn QueryMemory>>,
    profile: Option<Arc<crate::profile::ProfileSink>>,
    /// The executor's [`StoredColumns`].
    stored: StoredColumns,
}

/// The addresses of the stored columns an executor's scans have read, sorted. The catalog owns
/// them and the executor's snapshot keeps them alive, so a view over one is charged only its
/// index buffer ([`Executor::bytes_held`]).
type StoredColumns = Arc<Mutex<Vec<usize>>>;

/// What `chunks` hold beside the `stored` columns: every buffer once, stored columns not at
/// all ([`DataChunk::byte_size_beside`]).
fn bytes_beside<'a>(
    stored: &StoredColumns,
    chunks: impl IntoIterator<Item = &'a DataChunk>,
) -> usize {
    DataChunk::byte_size_beside(chunks, &stored.lock().unwrap_or_else(PoisonError::into_inner))
}

#[derive(Debug, Clone, Copy)]
struct Deadline {
    at: Instant,
    millis: u64,
}

impl ExecContext {
    fn new(options: &ExecOptions, stored: &StoredColumns) -> ExecContext {
        ExecContext {
            row_budget: options.row_budget,
            deadline: options
                .timeout
                .map(|t| Deadline { at: Instant::now() + t, millis: t.as_millis() as u64 }),
            cancel: options.cancel.clone(),
            memory: options.memory.clone(),
            profile: options.profile.clone(),
            stored: stored.clone(),
        }
    }

    /// Charge one operator's materialized output against the row budget.
    pub(crate) fn charge_rows(&self, output: &[DataChunk]) -> Result<(), ExecError> {
        match self.row_budget {
            Some(_) => self.charge_count(output.iter().map(DataChunk::num_rows).sum()),
            None => Ok(()),
        }
    }

    /// Charge `rows` of one operator's output, pulled so far, against the row budget.
    pub(crate) fn charge_count(&self, rows: usize) -> Result<(), ExecError> {
        match self.row_budget {
            Some(budget) if rows > budget => Err(ExecError::RowBudgetExceeded { budget }),
            _ => Ok(()),
        }
    }

    /// Check the wall-clock deadline *and* the cancellation token: every deadline checkpoint
    /// doubles as a cancellation point, so cancel latency is bounded by the same strides that
    /// bound timeout latency.
    pub(crate) fn check_deadline(&self) -> Result<(), ExecError> {
        if let Some(cancel) = &self.cancel {
            cancel.check()?;
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() > deadline.at {
                return Err(ExecError::Timeout { millis: deadline.millis });
            }
        }
        Ok(())
    }

    /// Charge `bytes` of materialized state (join build side, sort/aggregation buffer) against
    /// the query's memory grant, if one is attached. Called at materialization points only —
    /// never per row.
    pub(crate) fn reserve_memory(&self, bytes: usize) -> Result<(), ExecError> {
        match &self.memory {
            Some(memory) => memory.reserve(bytes),
            None => Ok(()),
        }
    }

    /// Note the stored chunks a scan hands out ([`Self::bytes_held`] does not charge them).
    pub(crate) fn note_stored(&self, chunks: &[DataChunk]) {
        let mut stored = self.stored.lock().unwrap_or_else(PoisonError::into_inner);
        chunks.iter().for_each(|chunk| chunk.note_columns(&mut stored));
        stored.sort_unstable();
        stored.dedup();
    }

    /// What `chunks` hold that this statement owns ([`Executor::bytes_held`]).
    pub(crate) fn bytes_held<'a>(&self, chunks: impl IntoIterator<Item = &'a DataChunk>) -> usize {
        bytes_beside(&self.stored, chunks)
    }

    /// The profile slot for `plan`, when a sink is attached and knows this node. `None` (the
    /// common case) makes instrumentation a single `Option` check.
    pub(crate) fn profile_op(&self, plan: &LogicalPlan) -> Option<(ProfileHandle, usize)> {
        let sink = self.profile.as_ref()?;
        sink.op(plan).map(|idx| (sink.clone(), idx))
    }

    /// The attached profile sink, if any.
    pub(crate) fn profile(&self) -> Option<&ProfileHandle> {
        self.profile.as_ref()
    }

    /// Record that the operator owning slot `idx` holds `bytes` materialized (no-op without a
    /// sink). Called at the same coarse materialization points as [`Self::reserve_memory`].
    pub(crate) fn record_buffered(&self, plan: &LogicalPlan, bytes: usize) {
        if let Some(sink) = &self.profile {
            if let Some(idx) = sink.op(plan) {
                sink.record_buffered(idx, bytes as u64);
            }
        }
    }
}

/// An attached profile sink.
pub(crate) type ProfileHandle = Arc<crate::profile::ProfileSink>;

/// Executes logical plans against a [`Catalog`].
///
/// The executor captures a [`CatalogSnapshot`] at construction time and every base-relation
/// scan reads from it, so one execution observes a single atomic catalog state even while
/// concurrent sessions commit multi-table writes. Construct a fresh executor per query to pick
/// up later commits.
#[derive(Debug, Clone)]
pub struct Executor {
    catalog: Catalog,
    snapshot: CatalogSnapshot,
    options: ExecOptions,
    /// Bound values for the plan's `$n` parameter slots (resolved at expression-compile time).
    params: Arc<[Value]>,
    /// The stored columns its scans have read.
    stored: StoredColumns,
}

impl Executor {
    /// Create an executor without resource limits.
    pub fn new(catalog: Catalog) -> Executor {
        Executor::with_options(catalog, ExecOptions::default())
    }

    /// Create an executor with resource limits.
    pub fn with_options(catalog: Catalog, options: ExecOptions) -> Executor {
        let snapshot = catalog.snapshot();
        Executor { catalog, snapshot, options, params: Arc::from([]), stored: Arc::default() }
    }

    /// Bind values for the plan's `$n` parameter slots (zero-based: `$1` reads `params[0]`).
    pub fn with_params(mut self, params: Vec<Value>) -> Executor {
        self.params = params.into();
        self
    }

    /// The catalog this executor reads from.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The atomic catalog snapshot this executor scans from.
    pub fn snapshot(&self) -> &CatalogSnapshot {
        &self.snapshot
    }

    /// The bound value of parameter slot `index` (zero-based).
    pub(crate) fn param(&self, index: usize) -> Result<Value, ExecError> {
        self.params.get(index).cloned().ok_or(ExecError::UnboundParameter { index })
    }

    /// Resolve this executor's options into a per-execution context.
    pub(crate) fn context(&self) -> ExecContext {
        ExecContext::new(&self.options, &self.stored)
    }

    /// What `chunks` — a result of this executor, or a part of one — hold that the statement
    /// owns: every buffer once, and none of the stored columns its scans read, which are the
    /// catalog's (a view over one costs its index buffer).
    pub fn bytes_held<'a>(&self, chunks: impl IntoIterator<Item = &'a DataChunk>) -> usize {
        bytes_beside(&self.stored, chunks)
    }

    /// Execute a plan on the calling thread: the morsel engine at degree 1 (an inline pool
    /// spawns no threads and takes no locks), returning a chunk-backed [`Relation`].
    pub fn execute(&self, plan: &LogicalPlan) -> Result<Relation, ExecError> {
        self.execute_parallel(plan, &crate::parallel::WorkerPool::new(1))
    }

    /// Execute a plan with the naive, pulled reference evaluator (the executable
    /// specification of operator semantics; ignores resource limits). Exposed for differential
    /// tests.
    pub fn execute_reference(&self, plan: &LogicalPlan) -> Result<Relation, ExecError> {
        crate::reference::execute_reference(&self.catalog, plan)
    }
}

/// Strip operators that are transparent to execution (aliases, provenance annotations). Shared
/// with the optimizer's column-pruning pass, whose notion of a "fusible leaf" must stay in
/// lockstep with the engine's filter/project fusion.
pub(crate) fn strip_transparent(plan: &LogicalPlan) -> &LogicalPlan {
    match plan {
        LogicalPlan::SubqueryAlias { input, .. }
        | LogicalPlan::ProvenanceAnnotation { input, .. } => strip_transparent(input),
        other => other,
    }
}

/// One equi-join key pair extracted from a join condition.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EquiKey {
    /// Column index on the left input.
    pub(crate) left: usize,
    /// Column index in the *combined* schema (>= left arity).
    pub(crate) right: usize,
    /// Whether the comparison is null-safe (`IS NOT DISTINCT FROM`).
    pub(crate) null_safe: bool,
}

/// Split a join condition into hashable equi-key pairs and a residual predicate.
pub(crate) fn split_equi_join_condition(
    condition: &ScalarExpr,
    left_arity: usize,
) -> (Vec<EquiKey>, Vec<&ScalarExpr>) {
    let mut keys = Vec::new();
    let mut residual = Vec::new();
    for conjunct in condition.split_conjunction() {
        if let ScalarExpr::BinaryOp { op, left, right } = conjunct {
            let null_safe = *op == BinaryOperator::IsNotDistinctFrom;
            if *op == BinaryOperator::Eq || null_safe {
                if let (Some(a), Some(b)) = (left.as_column(), right.as_column()) {
                    let (l, r) = if a < left_arity && b >= left_arity {
                        (a, b)
                    } else if b < left_arity && a >= left_arity {
                        (b, a)
                    } else {
                        residual.push(conjunct);
                        continue;
                    };
                    keys.push(EquiKey { left: l, right: r, null_safe });
                    continue;
                }
            }
        }
        residual.push(conjunct);
    }
    (keys, residual)
}

/// Aggregate accumulator for one aggregate expression within one group.
#[derive(Debug, Clone)]
pub(crate) enum Accumulator {
    Count { count: i64, distinct: Option<std::collections::HashSet<Value>> },
    Sum { sum: Option<Value>, distinct: Option<std::collections::HashSet<Value>> },
    Avg { sum: f64, count: i64, distinct: Option<std::collections::HashSet<Value>> },
    Min { min: Option<Value> },
    Max { max: Option<Value> },
}

impl Accumulator {
    pub(crate) fn new(agg: &perm_algebra::AggregateExpr) -> Accumulator {
        use perm_algebra::AggregateFunction;
        let distinct = agg.distinct.then(std::collections::HashSet::new);
        match agg.func {
            AggregateFunction::Count => Accumulator::Count { count: 0, distinct },
            AggregateFunction::Sum => Accumulator::Sum { sum: None, distinct },
            AggregateFunction::Avg => Accumulator::Avg { sum: 0.0, count: 0, distinct },
            AggregateFunction::Min => Accumulator::Min { min: None },
            AggregateFunction::Max => Accumulator::Max { max: None },
        }
    }

    pub(crate) fn update(&mut self, value: Option<Value>) -> Result<(), ExecError> {
        match self {
            Accumulator::Count { count, distinct } => match value {
                // COUNT(*): every row counts.
                None => *count += 1,
                Some(v) if !v.is_null() => match distinct {
                    Some(set) => {
                        if set.insert(v) {
                            *count += 1;
                        }
                    }
                    None => *count += 1,
                },
                Some(_) => {}
            },
            Accumulator::Sum { sum, distinct } => {
                if let Some(v) = value {
                    if v.is_null() {
                        return Ok(());
                    }
                    if let Some(set) = distinct {
                        if !set.insert(v.clone()) {
                            return Ok(());
                        }
                    }
                    *sum = Some(match sum.take() {
                        Some(acc) => acc.add(&v)?,
                        None => v,
                    });
                }
            }
            Accumulator::Avg { sum, count, distinct } => {
                if let Some(v) = value {
                    if v.is_null() {
                        return Ok(());
                    }
                    if let Some(set) = distinct {
                        if !set.insert(v.clone()) {
                            return Ok(());
                        }
                    }
                    if let Some(x) = v.as_f64() {
                        *sum += x;
                        *count += 1;
                    }
                }
            }
            Accumulator::Min { min } => {
                if let Some(v) = value {
                    if v.is_null() {
                        return Ok(());
                    }
                    let replace = match min {
                        Some(cur) => v.sql_cmp(cur) == Some(std::cmp::Ordering::Less),
                        None => true,
                    };
                    if replace {
                        *min = Some(v);
                    }
                }
            }
            Accumulator::Max { max } => {
                if let Some(v) = value {
                    if v.is_null() {
                        return Ok(());
                    }
                    let replace = match max {
                        Some(cur) => v.sql_cmp(cur) == Some(std::cmp::Ordering::Greater),
                        None => true,
                    };
                    if replace {
                        *max = Some(v);
                    }
                }
            }
        }
        Ok(())
    }

    pub(crate) fn finish(self) -> Value {
        match self {
            Accumulator::Count { count, .. } => Value::Int(count),
            Accumulator::Sum { sum, .. } => sum.unwrap_or(Value::Null),
            Accumulator::Avg { sum, count, .. } => {
                if count == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / count as f64)
                }
            }
            Accumulator::Min { min } => min.unwrap_or(Value::Null),
            Accumulator::Max { max } => max.unwrap_or(Value::Null),
        }
    }
}

/// Convenience: execute a plan against a catalog with default options.
pub fn execute_plan(catalog: &Catalog, plan: &LogicalPlan) -> Result<Relation, ExecError> {
    Executor::new(catalog.clone()).execute(plan)
}

/// Build the schema a plan's execution result will carry (re-exported for callers that only need
/// the schema without running the query).
pub fn output_schema(plan: &LogicalPlan) -> Schema {
    plan.schema()
}

/// Convenience for tests and the benchmark harness: execute with limits.
pub fn execute_plan_with_options(
    catalog: &Catalog,
    plan: &LogicalPlan,
    options: ExecOptions,
) -> Result<Relation, ExecError> {
    Executor::with_options(catalog.clone(), options).execute(plan)
}

/// Helpers shared by unit tests across this crate.
#[cfg(test)]
pub(crate) mod test_fixtures {
    use super::*;
    use perm_algebra::{tuple, DataType};

    /// The example database of the paper's Figure 2: shop, sales and items.
    pub fn paper_example_catalog() -> Catalog {
        let catalog = Catalog::new();
        let shop = Relation::new(
            Schema::new(vec![
                perm_algebra::Attribute::qualified("shop", "name", DataType::Text),
                perm_algebra::Attribute::qualified("shop", "numempl", DataType::Int),
            ]),
            vec![tuple!["Merdies", 3], tuple!["Joba", 14]],
        )
        .unwrap();
        let sales = Relation::new(
            Schema::new(vec![
                perm_algebra::Attribute::qualified("sales", "sname", DataType::Text),
                perm_algebra::Attribute::qualified("sales", "itemid", DataType::Int),
            ]),
            vec![
                tuple!["Merdies", 1],
                tuple!["Merdies", 2],
                tuple!["Merdies", 2],
                tuple!["Joba", 3],
                tuple!["Joba", 3],
            ],
        )
        .unwrap();
        let items = Relation::new(
            Schema::new(vec![
                perm_algebra::Attribute::qualified("items", "id", DataType::Int),
                perm_algebra::Attribute::qualified("items", "price", DataType::Int),
            ]),
            vec![tuple![1, 100], tuple![2, 10], tuple![3, 25]],
        )
        .unwrap();
        catalog.create_table_with_data("shop", shop).unwrap();
        catalog.create_table_with_data("sales", sales).unwrap();
        catalog.create_table_with_data("items", items).unwrap();
        catalog
    }
}

#[cfg(test)]
mod tests {
    use super::test_fixtures::paper_example_catalog;
    use super::*;
    use perm_algebra::{
        tuple, AggregateExpr, AggregateFunction, Attribute, DataType, JoinKind, PlanBuilder,
        SetOpKind, SetSemantics, SortKey, SublinkKind, Tuple,
    };

    fn scan(catalog: &Catalog, table: &str, ref_id: usize) -> PlanBuilder {
        PlanBuilder::scan(table, catalog.table_schema(table).unwrap(), ref_id)
    }

    #[test]
    fn scan_base_relation() {
        let catalog = paper_example_catalog();
        let plan = scan(&catalog, "shop", 0).build();
        let result = execute_plan(&catalog, &plan).unwrap();
        assert_eq!(result.num_rows(), 2);
        assert_eq!(result.schema().attribute_names(), vec!["name", "numempl"]);
    }

    #[test]
    fn selection_filters_rows() {
        let catalog = paper_example_catalog();
        let shop = scan(&catalog, "shop", 0);
        let pred = shop.col("numempl").unwrap().eq(ScalarExpr::literal(3i64));
        let plan = shop.filter(pred).build();
        let result = execute_plan(&catalog, &plan).unwrap();
        assert_eq!(result.num_rows(), 1);
        assert_eq!(result.tuples()[0], tuple!["Merdies", 3]);
    }

    #[test]
    fn projection_computes_expressions_and_distinct() {
        let catalog = paper_example_catalog();
        let sales = scan(&catalog, "sales", 0);
        let sname = sales.col("sname").unwrap();
        let plan = sales.clone().project(vec![(sname.clone(), "sname".into())]).build();
        assert_eq!(execute_plan(&catalog, &plan).unwrap().num_rows(), 5);
        let plan = sales.project_distinct(vec![(sname, "sname".into())]).build();
        let result = execute_plan(&catalog, &plan).unwrap();
        assert_eq!(result.num_rows(), 2);
    }

    #[test]
    fn cross_product_multiplies_cardinalities() {
        let catalog = paper_example_catalog();
        let plan = scan(&catalog, "shop", 0).cross_join(scan(&catalog, "items", 1)).build();
        let result = execute_plan(&catalog, &plan).unwrap();
        assert_eq!(result.num_rows(), 2 * 3);
        assert_eq!(result.arity(), 4);
    }

    #[test]
    fn hash_join_equi_condition() {
        let catalog = paper_example_catalog();
        let shop = scan(&catalog, "shop", 0);
        let sales = scan(&catalog, "sales", 1);
        // shop.name = sales.sname  (columns 0 and 2 in the combined schema)
        let cond = ScalarExpr::column(0, "name").eq(ScalarExpr::column(2, "sname"));
        let plan = shop.join(sales, JoinKind::Inner, Some(cond)).build();
        let result = execute_plan(&catalog, &plan).unwrap();
        assert_eq!(result.num_rows(), 5);
    }

    #[test]
    fn hash_join_output_order_matches_nested_loop() {
        // The bucket chains of the hash join must preserve build-row order so that hash and
        // nested-loop joins produce identical sequences, not just identical bags.
        let catalog = paper_example_catalog();
        let cond = ScalarExpr::column(0, "name").eq(ScalarExpr::column(2, "sname"));
        let hash_plan = scan(&catalog, "shop", 0)
            .join(scan(&catalog, "sales", 1), JoinKind::Inner, Some(cond.clone()))
            .build();
        let nl_plan =
            scan(&catalog, "shop", 0).cross_join(scan(&catalog, "sales", 1)).filter(cond).build();
        let hash = execute_plan(&catalog, &hash_plan).unwrap();
        let nl = execute_plan(&catalog, &nl_plan).unwrap();
        assert_eq!(hash.tuples(), nl.tuples());
    }

    #[test]
    fn left_outer_join_pads_unmatched() {
        let catalog = Catalog::new();
        let left = Relation::new(
            Schema::from_pairs(&[("id", DataType::Int)]),
            vec![tuple![1], tuple![2], tuple![3]],
        )
        .unwrap();
        let right = Relation::new(
            Schema::from_pairs(&[("rid", DataType::Int), ("payload", DataType::Text)]),
            vec![tuple![1, "a"], tuple![1, "b"]],
        )
        .unwrap();
        catalog.create_table_with_data("l", left).unwrap();
        catalog.create_table_with_data("r", right).unwrap();
        let l = scan(&catalog, "l", 0);
        let r = scan(&catalog, "r", 1);
        let cond = ScalarExpr::column(0, "id").eq(ScalarExpr::column(1, "rid"));
        let plan = l.join(r, JoinKind::LeftOuter, Some(cond)).build();
        let result = execute_plan(&catalog, &plan).unwrap();
        // id=1 matches twice, ids 2 and 3 are padded with NULLs.
        assert_eq!(result.num_rows(), 4);
        let padded: Vec<_> = result.iter().filter(|t| t[1].is_null()).collect();
        assert_eq!(padded.len(), 2);
    }

    #[test]
    fn full_outer_join_pads_both_sides() {
        let catalog = Catalog::new();
        catalog
            .create_table_with_data(
                "l",
                Relation::new(
                    Schema::from_pairs(&[("id", DataType::Int)]),
                    vec![tuple![1], tuple![2]],
                )
                .unwrap(),
            )
            .unwrap();
        catalog
            .create_table_with_data(
                "r",
                Relation::new(
                    Schema::from_pairs(&[("rid", DataType::Int)]),
                    vec![tuple![2], tuple![3]],
                )
                .unwrap(),
            )
            .unwrap();
        let cond = ScalarExpr::column(0, "id").eq(ScalarExpr::column(1, "rid"));
        let plan = scan(&catalog, "l", 0)
            .join(scan(&catalog, "r", 1), JoinKind::FullOuter, Some(cond))
            .build();
        let result = execute_plan(&catalog, &plan).unwrap();
        assert_eq!(result.num_rows(), 3);
    }

    #[test]
    fn join_nulls_do_not_match_under_eq_but_do_under_null_safe_eq() {
        let catalog = Catalog::new();
        let schema = Schema::from_pairs(&[("k", DataType::Int)]);
        let rows = vec![tuple![1], Tuple::new(vec![Value::Null])];
        catalog
            .create_table_with_data("a", Relation::new(schema.clone(), rows.clone()).unwrap())
            .unwrap();
        catalog.create_table_with_data("b", Relation::new(schema, rows).unwrap()).unwrap();
        let eq_cond = ScalarExpr::column(0, "k").eq(ScalarExpr::column(1, "k"));
        let plan = scan(&catalog, "a", 0)
            .join(scan(&catalog, "b", 1), JoinKind::Inner, Some(eq_cond))
            .build();
        assert_eq!(execute_plan(&catalog, &plan).unwrap().num_rows(), 1);
        let ns_cond = ScalarExpr::column(0, "k").null_safe_eq(ScalarExpr::column(1, "k"));
        let plan = scan(&catalog, "a", 0)
            .join(scan(&catalog, "b", 1), JoinKind::Inner, Some(ns_cond))
            .build();
        assert_eq!(execute_plan(&catalog, &plan).unwrap().num_rows(), 2);
    }

    #[test]
    fn aggregation_matches_paper_example_result() {
        // q_ex from the paper: total price per shop = {(Merdies, 120), (Joba, 50)}.
        let catalog = paper_example_catalog();
        let prod = scan(&catalog, "shop", 0)
            .cross_join(scan(&catalog, "sales", 1))
            .cross_join(scan(&catalog, "items", 2));
        let name = prod.col("shop.name").unwrap();
        let sname = prod.col("sales.sname").unwrap();
        let itemid = prod.col("sales.itemid").unwrap();
        let id = prod.col("items.id").unwrap();
        let price = prod.col("items.price").unwrap();
        let plan = prod
            .filter(name.clone().eq(sname).and(itemid.eq(id)))
            .aggregate(
                vec![(name, "name".into())],
                vec![(AggregateExpr::new(AggregateFunction::Sum, price), "sum_price".into())],
            )
            .build();
        let result = execute_plan(&catalog, &plan).unwrap();
        let sorted = result.sorted();
        assert_eq!(sorted.tuples(), &[tuple!["Joba", 50], tuple!["Merdies", 120]]);
    }

    #[test]
    fn aggregation_over_empty_input_without_groups_yields_one_row() {
        let catalog = Catalog::new();
        catalog.create_table("empty", Schema::from_pairs(&[("x", DataType::Int)])).unwrap();
        let t = scan(&catalog, "empty", 0);
        let x = t.col("x").unwrap();
        let plan = t
            .aggregate(
                vec![],
                vec![
                    (AggregateExpr::new(AggregateFunction::Sum, x.clone()), "s".into()),
                    (AggregateExpr::count_star(), "c".into()),
                    (AggregateExpr::new(AggregateFunction::Min, x), "m".into()),
                ],
            )
            .build();
        let result = execute_plan(&catalog, &plan).unwrap();
        assert_eq!(result.num_rows(), 1);
        assert_eq!(result.tuples()[0], Tuple::new(vec![Value::Null, Value::Int(0), Value::Null]));
    }

    #[test]
    fn aggregation_functions_cover_count_avg_min_max_distinct() {
        let catalog = paper_example_catalog();
        let sales = scan(&catalog, "sales", 0);
        let itemid = sales.col("itemid").unwrap();
        let plan = sales
            .aggregate(
                vec![],
                vec![
                    (AggregateExpr::count_star(), "cnt".into()),
                    (AggregateExpr::new(AggregateFunction::Avg, itemid.clone()), "avg_item".into()),
                    (AggregateExpr::new(AggregateFunction::Min, itemid.clone()), "min_item".into()),
                    (AggregateExpr::new(AggregateFunction::Max, itemid.clone()), "max_item".into()),
                    (
                        AggregateExpr {
                            func: AggregateFunction::Count,
                            arg: Some(itemid),
                            distinct: true,
                        },
                        "distinct_items".into(),
                    ),
                ],
            )
            .build();
        let result = execute_plan(&catalog, &plan).unwrap();
        let row = &result.tuples()[0];
        assert_eq!(row[0], Value::Int(5));
        assert_eq!(row[1], Value::Float((1 + 2 + 2 + 3 + 3) as f64 / 5.0));
        assert_eq!(row[2], Value::Int(1));
        assert_eq!(row[3], Value::Int(3));
        assert_eq!(row[4], Value::Int(3));
    }

    #[test]
    fn set_operations_bag_and_set() {
        let catalog = Catalog::new();
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        let table = |values: &[i64]| {
            Relation::new(schema.clone(), values.iter().map(|&x| tuple![x]).collect()).unwrap()
        };
        catalog.create_table_with_data("a", table(&[1, 2, 1, 3, 1])).unwrap();
        catalog.create_table_with_data("b", table(&[3, 1, 4, 1])).unwrap();
        // The exact output sequence: unions keep input order (first occurrences for UNION),
        // INTERSECT / EXCEPT keep left order, and `ALL` spends one right occurrence per left
        // row — so EXCEPT ALL drops the *earliest* matching left rows (1 twice, then 3).
        let run = |kind, semantics| {
            let plan =
                scan(&catalog, "a", 0).set_op(scan(&catalog, "b", 1), kind, semantics).build();
            let rows = execute_plan(&catalog, &plan).unwrap();
            rows.iter().map(|t| t[0].as_i64().unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(run(SetOpKind::Union, SetSemantics::Bag), [1, 2, 1, 3, 1, 3, 1, 4, 1]);
        assert_eq!(run(SetOpKind::Union, SetSemantics::Set), [1, 2, 3, 4]);
        assert_eq!(run(SetOpKind::Intersect, SetSemantics::Bag), [1, 1, 3]);
        assert_eq!(run(SetOpKind::Intersect, SetSemantics::Set), [1, 3]);
        assert_eq!(run(SetOpKind::Difference, SetSemantics::Bag), [2, 1]);
        assert_eq!(run(SetOpKind::Difference, SetSemantics::Set), [2]);
    }

    #[test]
    fn sort_and_limit() {
        let catalog = paper_example_catalog();
        let items = scan(&catalog, "items", 0);
        let price = items.col("price").unwrap();
        let plan = items.sort(vec![SortKey::desc(price)]).limit(Some(2), 0).build();
        let result = execute_plan(&catalog, &plan).unwrap();
        assert_eq!(result.num_rows(), 2);
        assert_eq!(result.tuples()[0], tuple![1, 100]);
        assert_eq!(result.tuples()[1], tuple![3, 25]);
    }

    #[test]
    fn limit_with_offset() {
        let catalog = paper_example_catalog();
        let items = scan(&catalog, "items", 0);
        let id = items.col("id").unwrap();
        let plan = items.sort(vec![SortKey::asc(id)]).limit(Some(1), 1).build();
        let result = execute_plan(&catalog, &plan).unwrap();
        assert_eq!(result.tuples(), &[tuple![2, 10]]);
    }

    #[test]
    fn row_budget_aborts_large_results() {
        let catalog = paper_example_catalog();
        let plan = scan(&catalog, "sales", 0)
            .cross_join(scan(&catalog, "sales", 1))
            .cross_join(scan(&catalog, "sales", 2))
            .build();
        let options = ExecOptions::default().with_row_budget(20);
        let err = execute_plan_with_options(&catalog, &plan, options).unwrap_err();
        assert!(matches!(err, ExecError::RowBudgetExceeded { budget: 20 }));
    }

    #[test]
    fn limit_short_circuits_the_join_feeding_it() {
        // sales³ = 125 rows, over the budget of 25 (see `row_budget_aborts_large_results`).
        // The LIMIT stops the join directly beneath it after 5 rows, so that join is never
        // charged for 125; its probe input — the inner 25-row join — materializes in full and
        // must fit the budget.
        let catalog = paper_example_catalog();
        let plan = scan(&catalog, "sales", 0)
            .cross_join(scan(&catalog, "sales", 1))
            .cross_join(scan(&catalog, "sales", 2))
            .limit(Some(5), 0)
            .build();
        let options = ExecOptions::default().with_row_budget(25);
        let result = execute_plan_with_options(&catalog, &plan, options).unwrap();
        assert_eq!(result.num_rows(), 5);
        let options = ExecOptions::default().with_row_budget(24);
        let err = execute_plan_with_options(&catalog, &plan, options).unwrap_err();
        assert!(matches!(err, ExecError::RowBudgetExceeded { budget: 24 }));
    }

    #[test]
    fn limit_zero_probes_nothing() {
        // Both join inputs materialize, so the budget must cover their 5 rows each; the
        // 25-row cross product is never produced because LIMIT 0 claims no probe morsel.
        let catalog = paper_example_catalog();
        let plan = scan(&catalog, "sales", 0)
            .cross_join(scan(&catalog, "sales", 1))
            .limit(Some(0), 0)
            .build();
        let options = ExecOptions::default().with_row_budget(5);
        let result = execute_plan_with_options(&catalog, &plan, options).unwrap();
        assert_eq!(result.num_rows(), 0);
    }

    #[test]
    fn values_plan_executes() {
        let catalog = Catalog::new();
        let plan = PlanBuilder::values(
            Schema::new(vec![Attribute::new("x", DataType::Int)]),
            vec![tuple![1], tuple![2]],
        )
        .build();
        assert_eq!(execute_plan(&catalog, &plan).unwrap().num_rows(), 2);
    }

    #[test]
    fn subquery_alias_is_transparent_to_execution() {
        let catalog = paper_example_catalog();
        let plan = scan(&catalog, "shop", 0).alias("s").build();
        let result = execute_plan(&catalog, &plan).unwrap();
        assert_eq!(result.num_rows(), 2);
        assert_eq!(result.schema().resolve("s.name").unwrap(), 0);
    }

    fn sublink(kind: SublinkKind, operand: Option<ScalarExpr>, plan: LogicalPlan) -> ScalarExpr {
        ScalarExpr::Sublink {
            kind,
            operand: operand.map(Box::new),
            negated: false,
            plan: std::sync::Arc::new(plan),
        }
    }

    #[test]
    fn scalar_sublink_with_multiple_rows_is_an_error() {
        let catalog = paper_example_catalog();
        // items has 3 rows: using it as a scalar subquery must fail, not silently take row 1.
        let sub = scan(&catalog, "items", 1).build();
        let shop = scan(&catalog, "shop", 0);
        let pred = ScalarExpr::column(1, "numempl").eq(sublink(SublinkKind::Scalar, None, sub));
        let plan = shop.filter(pred).build();
        let err = execute_plan(&catalog, &plan).unwrap_err();
        assert!(matches!(err, ExecError::ScalarSubqueryTooManyRows));
        // The reference path agrees.
        let err = Executor::new(catalog.clone()).execute_reference(&plan).unwrap_err();
        assert!(matches!(err, ExecError::ScalarSubqueryTooManyRows));
    }

    #[test]
    fn scalar_sublink_single_row_and_empty() {
        let catalog = paper_example_catalog();
        let items = scan(&catalog, "items", 1);
        let price = items.col("price").unwrap();
        let one_row = items
            .clone()
            .aggregate(
                vec![],
                vec![(AggregateExpr::new(AggregateFunction::Max, price), "m".into())],
            )
            .build();
        let shop = scan(&catalog, "shop", 0);
        let pred = sublink(SublinkKind::Scalar, None, one_row).eq(ScalarExpr::literal(100i64));
        let plan = shop.clone().filter(pred).build();
        assert_eq!(execute_plan(&catalog, &plan).unwrap().num_rows(), 2);
        // An empty scalar subquery evaluates to NULL: the predicate filters everything.
        let empty = scan(&catalog, "items", 1)
            .filter(ScalarExpr::literal(false))
            .project(vec![(ScalarExpr::column(0, "id"), "id".into())])
            .build();
        let pred = sublink(SublinkKind::Scalar, None, empty).eq(ScalarExpr::literal(1i64));
        let plan = shop.filter(pred).build();
        assert_eq!(execute_plan(&catalog, &plan).unwrap().num_rows(), 0);
    }

    #[test]
    fn in_subquery_resolves_to_hash_set_semantics() {
        let catalog = paper_example_catalog();
        let ids = scan(&catalog, "items", 1)
            .project(vec![(ScalarExpr::column(0, "id"), "id".into())])
            .build();
        let sales = scan(&catalog, "sales", 0);
        let pred = sublink(SublinkKind::InSubquery, Some(ScalarExpr::column(1, "itemid")), ids);
        let plan = sales.filter(pred).build();
        // All 5 sales reference an existing item id.
        assert_eq!(execute_plan(&catalog, &plan).unwrap().num_rows(), 5);
    }

    #[test]
    fn exists_sublink_short_circuits() {
        let catalog = paper_example_catalog();
        // EXISTS over a cross join that would exceed the row budget if fully executed: one row
        // decides the sublink, so the join stops after its first row and is charged for one.
        let big = scan(&catalog, "sales", 1).cross_join(scan(&catalog, "sales", 2)).build();
        let shop = scan(&catalog, "shop", 0);
        let plan = shop.filter(sublink(SublinkKind::Exists, None, big)).build();
        let options = ExecOptions::default().with_row_budget(10);
        let result = execute_plan_with_options(&catalog, &plan, options).unwrap();
        assert_eq!(result.num_rows(), 2);
    }

    #[test]
    fn timeout_fires_inside_selective_nested_loop_joins() {
        // A nested-loop join with an always-false condition produces no rows; the deadline is
        // checked against work done (per morsel and per probe row), not rows emitted.
        let catalog = Catalog::new();
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        let rows: Vec<Tuple> = (0..100).map(|i| tuple![i]).collect();
        catalog
            .create_table_with_data("a", Relation::from_parts(schema.clone(), rows.clone()))
            .unwrap();
        catalog.create_table_with_data("b", Relation::from_parts(schema, rows)).unwrap();
        // Non-equi condition so the join cannot use the hash path: x + x' < 0 is always false.
        let cond = ScalarExpr::binary(
            BinaryOperator::Lt,
            ScalarExpr::binary(
                BinaryOperator::Add,
                ScalarExpr::column(0, "x"),
                ScalarExpr::column(1, "x"),
            ),
            ScalarExpr::literal(-1i64),
        );
        let plan = scan(&catalog, "a", 0)
            .join(scan(&catalog, "b", 1), JoinKind::Inner, Some(cond))
            .build();
        let options = ExecOptions::default().with_timeout(Duration::from_millis(0));
        let err = execute_plan_with_options(&catalog, &plan, options).unwrap_err();
        assert!(matches!(err, ExecError::Timeout { .. }), "expected a timeout, got {err:?}");
    }

    #[test]
    fn in_set_incomparable_types_yield_null_like_the_reference() {
        // A Date needle against Text candidates: sql_eq is unknown (None), so `IN` must be
        // NULL (filtering the row), not FALSE — and NOT IN must also be NULL, not TRUE.
        let catalog = Catalog::new();
        let schema = Schema::from_pairs(&[("d", DataType::Date)]);
        catalog
            .create_table_with_data(
                "t",
                Relation::from_parts(schema, vec![Tuple::new(vec![Value::Date(10)])]),
            )
            .unwrap();
        for negated in [false, true] {
            let t = scan(&catalog, "t", 0);
            let pred = ScalarExpr::InList {
                expr: Box::new(ScalarExpr::column(0, "d")),
                list: vec![ScalarExpr::literal("ten")],
                negated,
            };
            let plan = t.filter(pred).build();
            let executor = Executor::new(catalog.clone());
            let result = executor.execute(&plan).unwrap();
            let reference = executor.execute_reference(&plan).unwrap();
            assert_eq!(result.num_rows(), 0, "negated={negated}: NULL predicate keeps no rows");
            assert!(result.bag_eq(&reference), "negated={negated}");
        }
        // A NaN needle compares unknown against every candidate: IN and NOT IN are both NULL
        // (row dropped) whenever any candidate exists, matching the linear `sql_eq` path — the
        // grouping-equality hash set would otherwise match NaN to itself.
        let nan_table = Relation::from_parts(
            Schema::from_pairs(&[("f", DataType::Float)]),
            vec![Tuple::new(vec![Value::Float(f64::NAN)])],
        );
        catalog.create_table_with_data("nan", nan_table).unwrap();
        for negated in [false, true] {
            let t = scan(&catalog, "nan", 0);
            let pred = ScalarExpr::InList {
                expr: Box::new(ScalarExpr::column(0, "f")),
                list: vec![ScalarExpr::literal(1.0f64), ScalarExpr::literal(2.0f64)],
                negated,
            };
            let plan = t.filter(pred).build();
            let executor = Executor::new(catalog.clone());
            let result = executor.execute(&plan).unwrap();
            let reference = executor.execute_reference(&plan).unwrap();
            assert_eq!(result.num_rows(), 0, "NaN needle, negated={negated}");
            assert!(result.bag_eq(&reference), "NaN needle, negated={negated}");
        }

        // Dates compare numerically against the other numeric types (days since epoch): an Int
        // candidate matches exactly, a fractional Float candidate is a definite non-match (so
        // NOT IN keeps the row rather than yielding NULL).
        for (candidate, negated, expect_rows) in [
            (ScalarExpr::literal(10i64), false, 1),
            (ScalarExpr::literal(10.0f64), false, 1),
            (ScalarExpr::literal(10.5f64), false, 0),
            (ScalarExpr::literal(10.5f64), true, 1),
        ] {
            let t = scan(&catalog, "t", 0);
            let pred = ScalarExpr::InList {
                expr: Box::new(ScalarExpr::column(0, "d")),
                list: vec![candidate.clone()],
                negated,
            };
            let plan = t.filter(pred).build();
            assert_eq!(
                execute_plan(&catalog, &plan).unwrap().num_rows(),
                expect_rows,
                "candidate={candidate:?} negated={negated}"
            );
        }
    }

    #[test]
    fn engine_matches_reference_on_the_paper_example() {
        let catalog = paper_example_catalog();
        let prod = scan(&catalog, "shop", 0)
            .cross_join(scan(&catalog, "sales", 1))
            .cross_join(scan(&catalog, "items", 2));
        let name = prod.col("shop.name").unwrap();
        let sname = prod.col("sales.sname").unwrap();
        let plan = prod.filter(name.eq(sname)).build();
        let executor = Executor::new(catalog);
        let result = executor.execute(&plan).unwrap();
        let reference = executor.execute_reference(&plan).unwrap();
        assert!(result.bag_eq(&reference));
    }
}

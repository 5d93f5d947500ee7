//! The engine: morsel-driven execution over columnar [`DataChunk`] lists.
//!
//! [`Executor::execute_parallel`] evaluates a plan on a shared [`WorkerPool`]; sequential
//! execution ([`Executor::execute`]) is the same code on a degree-1 pool, which runs every
//! morsel inline on the calling thread. A pipeline breaker (sort, aggregation, set operation,
//! DISTINCT, a join's build side) materializes its output as a chunk list; the region above
//! one — projections, filters, aliases, a LIMIT, over at most one join probe — is a
//! [`ResultCursor`] (`pull.rs`) that [`Executor::open`] hands out to be pulled and that the
//! engine drains wherever it needs the region's output. The chunk lists are split into
//! *morsels* (one chunk each, up to [`DEFAULT_CHUNK_SIZE`] rows; one probe chunk each for a
//! join) that idle workers pull from a shared claim counter — the scheduling model of Leis et
//! al.'s morsel-driven HyPer executor, applied to the provenance workload of this reproduction
//! (rewrite rules R5–R9 produce wide, join-heavy plans that do a multiple of the original
//! query's work).
//!
//! Per operator:
//!
//! * **scan → filter → project** pipelines run one morsel per chunk: a base relation hands out
//!   its stored chunks (an `Arc` bump each), every worker masks and projects its own morsels —
//!   every filter and projection of the region in one task — and results are handed out in
//!   morsel order. A filter batch is *one index
//!   buffer over its source*: the kept rows' positions, through which every column it passes
//!   on is a view — no kept value is copied, text included. DISTINCT, `INTERSECT` and `EXCEPT`
//!   keep their rows the same way.
//! * **hash join** builds *partitioned*: build-side key hashes are computed per morsel, then
//!   every worker builds the hash table of one key-hash partition (never more partitions than
//!   build morsels); the probe phase runs one morsel per probe chunk, routing each probe key
//!   to its partition, and a probe morsel is a resumable `ProbeCursor` that emits one batch
//!   per step. Keys are hashed and compared in their columns ([`hash_rows`] once per
//!   morsel, [`rows_equal`] against a chain's head) — no key is boxed, on either side.
//!   Bucket chains preserve build-row order, so each probe row sees
//!   candidates in exactly the nested-loop order. A probe batch is *one index buffer per source
//!   buffer its sides carry* (two over plain sides): every output column is a dictionary view of
//!   the probe or build column it came from, the columns of a side that shared a buffer sharing
//!   one composed buffer — no source value is copied, and an outer join's pads address a NULL
//!   slot behind the build rows.
//! * **hash aggregation** also partitions by key hash (at most one partition per input
//!   morsel): group-key and argument columns are evaluated per morsel, then every worker owns
//!   the groups of one partition and folds *all* morsels' rows of that partition **in global
//!   row order** — float sums are bit-identical and integer-overflow errors fire at the
//!   identical row at every degree. A group is found by its row hash and [`rows_equal`] against
//!   the row it was first seen at; its key is boxed once, for the output. Group output is
//!   restored to global first-seen order.
//! * **sort** evaluates the keys and sorts a run per input chunk, merges the runs into one
//!   permutation of input positions (ties broken by input position, so it is deterministic),
//!   and emits *views* of the concatenated input through it. Concatenating view columns joins
//!   their index buffers and leaves the dictionaries alone ([`DataChunk::concat`]), so a
//!   column that arrives as views over a join's sources leaves as views over them. An input
//!   already in key order (every key tied, say) is emitted as it is. The optimizer moves an
//!   `ORDER BY` over a provenance result below its join-back
//!   ([`crate::reorder::push_down_sorts`]), so a sort mostly sees q's rows — Q11+'s 156, not
//!   its 24 960 — and the join keeps their order: it emits in probe order.
//! * **set operations** compare rows the way DISTINCT does, in their columns: `UNION ALL`
//!   forwards both inputs' chunks, `UNION` keeps first occurrences, and `INTERSECT` / `EXCEPT`
//!   count the right input's rows in a [`RowTable`] once, then mask the left chunks in order,
//!   one right occurrence spent per left row under `ALL` — no row is boxed. Runs of small
//!   output chunks are laid end to end up to one morsel, so the operators above do not pay a
//!   dispatch per fragment.
//! * **LIMIT** ends its region: the region's morsels are claimed in index order until the
//!   completed ones cover the rows it wants, through filters and probes alike, and replayed in
//!   index order. Everything *below* a breaker (sort, aggregation, set operation, DISTINCT, a
//!   join's inputs) is evaluated in full, so a runtime error there surfaces even when the
//!   `LIMIT` would have discarded the offending row; within the region, only the rows the
//!   `LIMIT` needs are evaluated — the pull rule of [`crate::reference`] (see `pull.rs`).
//! * **row budgets** ([`crate::ExecOptions::row_budget`]) follow the same rule: an operator's
//!   output is charged as it is replayed, and the row that takes it past the budget is one
//!   more error met in plan order. A region stops running morsels ahead of its replay once the
//!   rows it has run, over all its morsels, pass the budget, so a runaway join fails after
//!   about a budget's worth of rows instead of materializing its whole output first.
//!
//! Results and errors do not depend on the degree: a failing region reports the error of the
//! *lowest* morsel index, and partitioned aggregation reports the error of the globally first
//! failing row. Timeouts and cancellation are checked per morsel and per 1024 join candidates.

use std::collections::hash_map::RandomState;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Instant;

use perm_algebra::{
    hash_rows, rows_equal, Array, DataChunk, JoinKind, LogicalPlan, RowTable, ScalarExpr,
    SetOpKind, SetSemantics, SortOrder, Tuple, Value, DEFAULT_CHUNK_SIZE,
};
use perm_storage::Relation;

use crate::compile::{CompiledAggregate, CompiledExpr};
use crate::error::ExecError;
use crate::executor::{split_equi_join_condition, Accumulator, EquiKey, ExecContext, Executor};
use crate::pull::ResultCursor;
use crate::vector::{chunk_from_columns, JoinFilter};

/// Sentinel terminating a hash-join bucket chain.
const CHAIN_END: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// Worker pool.
// ---------------------------------------------------------------------------

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    jobs: std::collections::VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work_ready: Condvar,
}

/// A fixed-size pool of worker threads shared by every query of an engine.
///
/// A pool of parallelism degree `n` owns `n - 1` background threads; the session thread that
/// dispatches a parallel region participates as the n-th worker, so `WorkerPool::new(1)` runs
/// everything on the calling thread (no cross-thread handoff at all) and degree-n execution
/// uses exactly n cores. Multiple sessions may dispatch regions concurrently; morsels from all
/// regions interleave on the same threads.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<thread::JoinHandle<()>>,
    workers: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("workers", &self.workers).finish()
    }
}

impl WorkerPool {
    /// Create a pool of parallelism degree `workers` (clamped to at least 1); `workers - 1`
    /// background threads are spawned eagerly.
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                jobs: std::collections::VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let handles: Vec<_> = (0..workers - 1)
            .filter_map(|i| {
                let shared = shared.clone();
                thread::Builder::new()
                    .name(format!("perm-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .ok()
            })
            .collect();
        // If the OS refused some threads, degrade the advertised parallelism to what actually
        // spawned (the dispatching session thread always counts as one).
        let workers = handles.len() + 1;
        WorkerPool { shared, handles, workers }
    }

    /// The parallelism degree (background threads + the dispatching session thread).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The default parallelism degree: the number of logical CPUs.
    pub fn default_workers() -> usize {
        thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }

    fn submit(&self, job: Job) {
        let mut state = self.shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        state.jobs.push_back(job);
        drop(state);
        self.shared.work_ready.notify_one();
    }

    /// Run `task` over morsel indices `0..total`, fanning out across the pool while the calling
    /// thread claims morsels too. Each task returns its result plus its *output row count*; no
    /// morsel is claimed once the completed ones count `stop_rows` (`usize::MAX` always stops).
    /// One slot per morsel; unclaimed ones (cut off that way or by an error) stay `None`, a suffix.
    pub(crate) fn run_region<T, F>(
        &self,
        total: usize,
        stop_rows: usize,
        task: F,
    ) -> Vec<Option<Result<T, ExecError>>>
    where
        T: Send + 'static,
        F: Fn(usize) -> Result<(T, usize), ExecError> + Send + Sync + 'static,
    {
        if total == 0 {
            return Vec::new();
        }
        // Degree-1 (or single-morsel) regions run inline with no shared state: same morsel
        // order, same stop/error semantics, none of the synchronization.
        if self.workers == 1 || total == 1 {
            let mut slots: Vec<Option<Result<T, ExecError>>> = (0..total).map(|_| None).collect();
            let mut produced = 0usize;
            for (i, slot) in slots.iter_mut().enumerate() {
                if produced >= stop_rows {
                    break;
                }
                match task(i) {
                    Ok((value, rows)) => {
                        produced = produced.saturating_add(rows);
                        *slot = Some(Ok(value));
                    }
                    Err(e) => {
                        *slot = Some(Err(e));
                        break;
                    }
                }
            }
            return slots;
        }
        let region = Arc::new(Region {
            next: AtomicUsize::new(0),
            produced: AtomicUsize::new(0),
            abort: AtomicBool::new(false),
            stop_rows,
            total,
            slots: Mutex::new((0..total).map(|_| None).collect()),
            in_flight: Mutex::new(0),
            idle: Condvar::new(),
            // The dispatching thread carries the query id in TLS (set by the server / query
            // stream); capture it so worker threads tag their log lines with the same query.
            qid: crate::log::current_query_id(),
        });
        let task = Arc::new(task);
        // One claim-loop job per background thread (capped by the morsel count); the calling
        // thread runs the same loop inline below. Jobs that start only after the region is
        // already complete find nothing to claim and exit immediately — the dispatcher waits
        // for *in-flight morsels*, never for queued jobs to be scheduled.
        let helpers = (self.workers - 1).min(total.saturating_sub(1));
        for _ in 0..helpers {
            let region = region.clone();
            let task = task.clone();
            self.submit(Box::new(move || claim_loop(&region, &*task)));
        }
        claim_loop(&region, &*task);
        // The inline loop exited, so no *new* morsel can be claimed (the morsels are exhausted,
        // the stop target is covered, or the region aborted — all sticky conditions every
        // claimer re-checks). Wait only for morsels other workers are still executing.
        let mut in_flight =
            region.in_flight.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        while *in_flight > 0 {
            in_flight =
                region.idle.wait(in_flight).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        drop(in_flight);
        let mut slots = region.slots.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        std::mem::take(&mut *slots)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state =
                self.shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            state.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // Fence the job as a whole so a panic that escapes the per-morsel fence (or strikes
        // region bookkeeping) retires this job without killing the worker thread.
        if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)) {
            crate::log_error!("worker_panic", site = "pool_job", error = panic_message(&payload));
        }
    }
}

/// Shared state of one parallel region (one fan-out over a morsel list).
struct Region<T> {
    /// Next unclaimed morsel index: claims are strictly in index order, so at any instant the
    /// claimed set is a prefix — the invariant the LIMIT early-stop and the deterministic
    /// error selection below both rely on.
    next: AtomicUsize,
    /// Output rows of all *completed* morsels (the shared stop counter), saturating.
    produced: AtomicUsize,
    abort: AtomicBool,
    stop_rows: usize,
    total: usize,
    slots: Mutex<Vec<Option<Result<T, ExecError>>>>,
    /// Morsels currently being executed by some worker. The dispatcher waits for this to hit
    /// zero *after* its own claim loop exits — at that point no new claim can start, so zero
    /// in-flight means the region is complete even if some helper jobs never got scheduled.
    in_flight: Mutex<usize>,
    idle: Condvar,
    /// Query id of the dispatching thread, re-established on workers for log attribution.
    qid: u64,
}

fn claim_loop<T, F>(region: &Region<T>, task: &F)
where
    F: Fn(usize) -> Result<(T, usize), ExecError>,
{
    use AtomicOrdering::Relaxed;
    let _qid_guard = crate::log::QueryIdGuard::new(region.qid);
    loop {
        // Register as in-flight *before* checking the exit conditions: the dispatcher declares
        // the region complete when it observes zero in-flight after its own loop exits, and all
        // three exit conditions (abort, stop target, exhausted indices) are sticky — so a
        // straggler job that starts late either registers first (the dispatcher waits for it)
        // or observes the sticky exit condition and leaves without claiming a morsel. Checking
        // before registering would let a straggler claim a morsel after the dispatcher already
        // harvested the result slots.
        *region.in_flight.lock().unwrap_or_else(std::sync::PoisonError::into_inner) += 1;
        if region.abort.load(Relaxed) || region.produced.load(Relaxed) >= region.stop_rows {
            finish_morsel(region);
            return;
        }
        let i = region.next.fetch_add(1, Relaxed);
        if i >= region.total {
            finish_morsel(region);
            return;
        }
        // Panic fence: a panicking morsel (a bug, or an injected failpoint) fails *this query*
        // with an internal error instead of unwinding through the pool — the worker thread,
        // the region bookkeeping and every other session keep working.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(i)))
            .unwrap_or_else(|payload| {
                let message = panic_message(&payload);
                crate::log_error!("worker_panic", site = "morsel", morsel = i, error = message);
                Err(ExecError::Internal(message))
            });
        let slot = match outcome {
            Ok((value, rows)) => {
                let add = |produced: usize| Some(produced.saturating_add(rows));
                let _ = region.produced.fetch_update(Relaxed, Relaxed, add);
                Ok(value)
            }
            Err(e) => {
                region.abort.store(true, Relaxed);
                Err(e)
            }
        };
        lock_recovered(&region.slots)[i] = Some(slot);
        finish_morsel(region);
    }
}

/// Render a panic payload into the message of the internal error that replaces it (shared by
/// every panic fence: the pool's, a stream's and the wire server's dispatch).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic with non-string payload".to_string());
    format!("worker panicked: {msg}")
}

/// Lock a mutex, recovering from poison: with the panic fence above, a poisoned lock can only
/// mean a panic struck between guard acquisition and release in bookkeeping code that performs
/// no fallible work while holding the guard, so the data is consistent and safe to reuse.
pub(crate) fn lock_recovered<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn finish_morsel<T>(region: &Region<T>) {
    let mut in_flight = region.in_flight.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    *in_flight -= 1;
    if *in_flight == 0 {
        region.idle.notify_all();
    }
}

/// Gather a region's slots in morsel-index order and surface the first error — the rule that
/// makes errors independent of the degree. A slot no worker claimed lies behind an earlier
/// error, so it is never reached.
fn collect_region<T>(slots: Vec<Option<Result<T, ExecError>>>) -> Result<Vec<T>, ExecError> {
    slots.into_iter().map_while(|slot| slot).collect()
}

/// One hash per row of a batch of keys, under the hasher `state` of the operator they meet in
/// ([`hash_rows`]: a join's build and probe side agree, on whichever thread). A key of no
/// columns — a global aggregation — is one key.
fn key_hashes(state: &RandomState, keys: &[Arc<Array>], rows: usize) -> Vec<u64> {
    let mut hashes = Vec::with_capacity(rows);
    hash_rows(state, keys, &mut hashes);
    hashes.resize(rows, 0);
    hashes
}

// ---------------------------------------------------------------------------
// The parallel plan walk.
// ---------------------------------------------------------------------------

impl Executor {
    /// Execute a plan with morsel-driven parallelism on `pool`, returning a chunk-backed
    /// [`Relation`]. The result — rows, row order and any error — is the same at every pool
    /// degree (see the module docs).
    pub fn execute_parallel(
        &self,
        plan: &LogicalPlan,
        pool: &WorkerPool,
    ) -> Result<Relation, ExecError> {
        let chunks = self.open(plan, pool)?.drain(pool)?;
        Ok(Relation::from_chunks(plan.schema(), chunks))
    }

    /// Open `plan` for pulling: everything below its top region runs now, and the region
    /// above the last pipeline breaker — projection, filter, alias, LIMIT, over at most one
    /// join probe or over the breaker's chunk list — runs as the [`ResultCursor`] is pulled.
    /// Draining the cursor is [`Executor::execute_parallel`].
    pub fn open(&self, plan: &LogicalPlan, pool: &WorkerPool) -> Result<ResultCursor, ExecError> {
        ResultCursor::open(self, plan, &self.context(), pool, None, false)
    }

    /// Evaluate `plan` to a materialized chunk list, charged against the row budget. `limit`
    /// is how many rows the caller takes (a sublink's decisive row count, or a LIMIT's through
    /// a projection): a region-shaped node (projection, filter, alias, LIMIT, join) is a
    /// [`ResultCursor`] drained to that many rows; a pipeline breaker is evaluated here.
    ///
    /// With a profile sink attached (`EXPLAIN ANALYZE`) each operator records its inclusive
    /// wall time and materialized output — one timestamp pair and two relaxed increments per
    /// *operator*. Without a sink the cost is one `Option` check per operator.
    pub(crate) fn par_chunks(
        &self,
        plan: &LogicalPlan,
        ctx: &ExecContext,
        pool: &WorkerPool,
        limit: Option<usize>,
    ) -> Result<Vec<DataChunk>, ExecError> {
        if crate::pull::is_pulled(plan) {
            return ResultCursor::open(self, plan, ctx, pool, limit, false)?.drain(pool);
        }
        let run = || {
            let chunks = self.par_chunks_inner(plan, ctx, pool)?;
            ctx.charge_rows(&chunks)?;
            Ok(chunks)
        };
        let Some((sink, idx)) = ctx.profile_op(plan) else {
            return run();
        };
        let started = Instant::now();
        let result = run();
        sink.add_nanos(idx, started.elapsed().as_nanos() as u64);
        if let Ok(chunks) = &result {
            let rows: u64 = chunks.iter().map(|c| c.num_rows() as u64).sum();
            sink.add_output(idx, rows, chunks.len() as u64);
        }
        result
    }

    fn par_chunks_inner(
        &self,
        plan: &LogicalPlan,
        ctx: &ExecContext,
        pool: &WorkerPool,
    ) -> Result<Vec<DataChunk>, ExecError> {
        match plan {
            LogicalPlan::BaseRelation { name, schema, .. } => {
                ctx.check_deadline()?;
                let rel = self.snapshot().table(name)?;
                if rel.schema().arity() != schema.arity() {
                    return Err(ExecError::Internal(format!(
                        "stored table '{name}' has arity {} but the plan expects {}",
                        rel.schema().arity(),
                        schema.arity()
                    )));
                }
                let chunks = rel.chunks();
                ctx.note_stored(&chunks);
                Ok(chunks.as_ref().clone())
            }
            LogicalPlan::Values { rows, .. } => {
                ctx.check_deadline()?;
                rows_to_chunks(rows, plan.output_arity())
            }
            LogicalPlan::Projection { distinct: true, .. } => {
                // DISTINCT consumes its whole input: the projection below it is a region of
                // its own, drained, and only the distinct rows are charged.
                let projected =
                    ResultCursor::open(self, plan, ctx, pool, None, true)?.drain(pool)?;
                distinct_chunks(ctx, &projected)
            }
            LogicalPlan::Aggregation { input, group_by, aggregates } => {
                let group_by: Vec<CompiledExpr> = group_by
                    .iter()
                    .map(|(e, _)| CompiledExpr::compile(e, self, ctx, pool))
                    .collect::<Result<_, _>>()?;
                let aggregates: Vec<CompiledAggregate> = aggregates
                    .iter()
                    .map(|(a, _)| CompiledAggregate::compile(a, self, ctx, pool))
                    .collect::<Result<_, _>>()?;
                let input = self.par_chunks(input, ctx, pool, None)?;
                let rows = par_aggregate(pool, ctx, input, group_by, aggregates)?;
                rows_to_chunks(&rows, plan.output_arity())
            }
            LogicalPlan::SetOp { left, right, kind, semantics } => {
                let left = self.par_chunks(left, ctx, pool, None)?;
                let right = self.par_chunks(right, ctx, pool, None)?;
                ctx.reserve_memory(ctx.bytes_held(left.iter().chain(&right)))?;
                let arity = plan.output_arity();
                pack_chunks(arity, set_operation(ctx, arity, left, right, *kind, *semantics)?)
            }
            LogicalPlan::Sort { input, keys } => {
                let compiled: Vec<(CompiledExpr, SortOrder)> = keys
                    .iter()
                    .map(|k| Ok((CompiledExpr::compile(&k.expr, self, ctx, pool)?, k.order)))
                    .collect::<Result<_, ExecError>>()?;
                let chunks = self.par_chunks(input, ctx, pool, None)?;
                par_sort(pool, ctx, plan, chunks, compiled)
            }
            _ => {
                Err(ExecError::Internal(format!("{} is pulled, not materialized", plan.describe())))
            }
        }
    }

    /// Open a join for probing: build its right input into a partitioned hash table (or a
    /// nested loop's build chunk) and evaluate its left input, the probe morsels; the probe
    /// itself is pulled ([`ProbeCursor`]). `plan` is the `Join` node itself, used to attribute
    /// the build side's buffered bytes.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn open_join(
        &self,
        plan: &LogicalPlan,
        left: &LogicalPlan,
        right: &LogicalPlan,
        kind: JoinKind,
        condition: Option<&ScalarExpr>,
        ctx: &ExecContext,
        pool: &WorkerPool,
    ) -> Result<Probe, ExecError> {
        let left_arity = left.output_arity();
        let right_arity = right.output_arity();
        let build_chunks = Arc::new(self.par_chunks(right, ctx, pool, None)?);
        crate::faults::fire("join-build")?;
        let input_bytes = ctx.bytes_held(build_chunks.iter());
        ctx.reserve_memory(input_bytes)?;
        let rows = build_chunks.iter().map(DataChunk::num_rows).sum();
        let (equi_keys, residual) = match condition {
            Some(c) => split_equi_join_condition(c, left_arity),
            None => (Vec::new(), Vec::new()),
        };
        // `EquiKey.right` indexes the combined schema; rebase it onto the build side.
        let keys: Vec<EquiKey> = equi_keys
            .iter()
            .map(|k| EquiKey { left: k.left, right: k.right - left_arity, ..*k })
            .collect();
        // Key hashes come off the build chunks as they arrive: one morsel each.
        let state = RandomState::new();
        let hashes = match keys.is_empty() {
            true => None,
            false => Some(build_key_hashes(pool, ctx, &state, &build_chunks, &keys)?),
        };
        let mut build_chunks = Arc::try_unwrap(build_chunks).unwrap_or_else(|s| (*s).clone());
        if matches!(kind, JoinKind::LeftOuter | JoinKind::FullOuter) {
            let nulls = (0..right_arity).map(|_| Arc::new(Array::Null { len: 1 })).collect();
            build_chunks.push(chunk_from_columns(nulls, 1));
        }
        let chunk = DataChunk::concat(right_arity, &build_chunks)?;
        // At its peak the join holds its input and the concatenation (views of the same
        // dictionaries, or a copy) together.
        let held = ctx.bytes_held(build_chunks.iter().chain([&chunk]));
        ctx.record_buffered(plan, held);
        ctx.reserve_memory(held - input_bytes)?;
        drop(build_chunks);
        let build = BuildSide { chunk, rows };
        // A nested loop checks the whole condition, a hash join what its keys leave over.
        let residual = match condition {
            Some(c) if keys.is_empty() => Some(c.clone()),
            _ if residual.is_empty() => None,
            _ => Some(ScalarExpr::conjunction(residual.into_iter().cloned().collect())),
        };
        let filter = match &residual {
            Some(source) => Some(JoinFilter::new(
                CompiledExpr::compile(source, self, ctx, pool)?,
                source,
                left_arity,
                &build.chunk,
            )),
            None => None,
        };
        let mode = match hashes {
            Some(hashes) => {
                ParJoinMode::Hash(build_partitioned_table(pool, ctx, state, &build, &keys, hashes)?)
            }
            None => ParJoinMode::Loop,
        };
        let morsels = self.par_chunks(left, ctx, pool, None)?;
        // Matched-build-row flags, shared across probe workers (right/full outer only).
        let matched = matches!(kind, JoinKind::RightOuter | JoinKind::FullOuter)
            .then(|| (0..build.rows).map(|_| AtomicBool::new(false)).collect());
        Ok(Probe {
            morsels,
            build,
            mode,
            filter,
            pads: matches!(kind, JoinKind::LeftOuter | JoinKind::FullOuter),
            matched,
            left_arity,
        })
    }
}

/// Keep the rows of `chunks` that `keep` accepts, asked in input order with the chunk's index,
/// the chunk, the row and the row's hash under `state` (every column a key part). Sequential:
/// what `keep` decides for a row may depend on every row before it.
fn keep_rows(
    ctx: &ExecContext,
    state: &RandomState,
    chunks: &[DataChunk],
    mut keep: impl FnMut(u32, &DataChunk, usize, u64) -> bool,
) -> Result<Vec<DataChunk>, ExecError> {
    let mut out = Vec::new();
    for (c, chunk) in chunks.iter().enumerate() {
        ctx.check_deadline()?;
        let hashes = key_hashes(state, chunk.columns(), chunk.num_rows());
        let mask: Vec<bool> = hashes
            .iter()
            .enumerate()
            .map(|(row, &hash)| keep(c as u32, chunk, row, hash))
            .collect();
        let kept = chunk.filter(&mask);
        if !kept.is_empty() {
            out.push(kept);
        }
    }
    Ok(out)
}

/// Chunk-wise DISTINCT (first occurrence wins), applied after a parallel projection and by
/// `UNION`. A row is a key of all its columns, remembered by the (chunk, row) it was first
/// seen at.
fn distinct_chunks(ctx: &ExecContext, chunks: &[DataChunk]) -> Result<Vec<DataChunk>, ExecError> {
    let mut seen: RowTable<(u32, u32)> = RowTable::new();
    let grouping = vec![true; chunks.first().map_or(0, DataChunk::num_columns)];
    keep_rows(ctx, &RandomState::new(), chunks, |c, chunk, row, hash| {
        let same = |(c, r): (u32, u32)| {
            let first = chunks[c as usize].columns();
            rows_equal(first, r as usize, chunk.columns(), row, &grouping)
        };
        !seen.slot(hash, same, (c, row as u32)).1
    })
}

/// A set operation over the two inputs' chunk lists, comparing rows where they lie as DISTINCT
/// does: every column a grouping key, so rows are equal as `Value`s are (NULL = NULL, NaN = NaN,
/// `1 = 1.0`). `UNION ALL` forwards the left chunks and then the right ones; `UNION` keeps the
/// first occurrence of each row of both. `INTERSECT` / `EXCEPT` count the right input's rows
/// once, then go through the left rows in order: under `ALL` each left row that finds an
/// unspent right occurrence spends it — so `EXCEPT ALL` drops a row's *earliest* left
/// occurrences — and under set semantics each left row's first occurrence is kept.
fn set_operation(
    ctx: &ExecContext,
    arity: usize,
    left: Vec<DataChunk>,
    right: Vec<DataChunk>,
    kind: SetOpKind,
    semantics: SetSemantics,
) -> Result<Vec<DataChunk>, ExecError> {
    let bag = semantics == SetSemantics::Bag;
    if kind == SetOpKind::Union && bag {
        return Ok(left.into_iter().chain(right).collect());
    }
    // A row table costs a hash, a slot and where a row first occurs (~32 B) per row it may hold.
    let rows: usize = left.iter().chain(&right).map(DataChunk::num_rows).sum();
    ctx.reserve_memory(rows.saturating_mul(32))?;
    let intersect = match kind {
        SetOpKind::Union => return distinct_chunks(ctx, &[left, right].concat()),
        SetOpKind::Intersect => true,
        SetOpKind::Difference => false,
    };
    let grouping = vec![true; arity];
    let state = RandomState::new();
    // Each distinct right row: where it first occurs, and how many occurrences are unspent.
    let mut table: RowTable<u32> = RowTable::new();
    let mut firsts: Vec<(u32, u32)> = Vec::new();
    let mut credits: Vec<usize> = Vec::new();
    let is_right_row = |k: u32, chunk: &DataChunk, row: usize, firsts: &[(u32, u32)]| {
        let (c, r) = firsts[k as usize];
        rows_equal(right[c as usize].columns(), r as usize, chunk.columns(), row, &grouping)
    };
    for (c, chunk) in right.iter().enumerate() {
        ctx.check_deadline()?;
        let hashes = key_hashes(&state, chunk.columns(), chunk.num_rows());
        for (row, &hash) in hashes.iter().enumerate() {
            let same = |k: u32| is_right_row(k, chunk, row, &firsts);
            let (k, found) = table.slot(hash, same, firsts.len() as u32);
            let k = *k as usize;
            if !found {
                firsts.push((c as u32, row as u32));
                credits.push(0);
            }
            credits[k] += 1;
        }
    }
    let kept = keep_rows(ctx, &state, &left, |_, chunk, row, hash| {
        let found = match table.find(hash, |k| is_right_row(k, chunk, row, &firsts)) {
            Some(k) if credits[k as usize] > 0 => {
                if bag {
                    credits[k as usize] -= 1;
                }
                true
            }
            _ => false,
        };
        found == intersect
    })?;
    match bag {
        true => Ok(kept),
        false => distinct_chunks(ctx, &kept),
    }
}

/// Lay each run of consecutive chunks that fits in one morsel ([`DEFAULT_CHUNK_SIZE`] rows) end
/// to end with [`DataChunk::concat`], in order; a full chunk is passed on as it is. A set
/// operation's output is its inputs' chunks, or what masking them left — often a few
/// rows each — and above it every morsel more is a dispatch more across the pool for each
/// operator it passes through.
fn pack_chunks(arity: usize, chunks: Vec<DataChunk>) -> Result<Vec<DataChunk>, ExecError> {
    let mut out = Vec::new();
    let mut run: Vec<DataChunk> = Vec::new();
    let mut rows = 0;
    for chunk in chunks.into_iter().filter(|c| !c.is_empty()) {
        if rows + chunk.num_rows() > DEFAULT_CHUNK_SIZE && !run.is_empty() {
            out.push(DataChunk::concat(arity, &std::mem::take(&mut run))?);
            rows = 0;
        }
        rows += chunk.num_rows();
        run.push(chunk);
    }
    if !run.is_empty() {
        out.push(DataChunk::concat(arity, &run)?);
    }
    Ok(out)
}

/// Re-chunk materialized rows into `DEFAULT_CHUNK_SIZE` batches.
fn rows_to_chunks(rows: &[Tuple], arity: usize) -> Result<Vec<DataChunk>, ExecError> {
    let chunks =
        rows.chunks(DEFAULT_CHUNK_SIZE).map(|batch| DataChunk::try_from_tuples(arity, batch));
    Ok(chunks.collect::<Result<_, _>>()?)
}

// ---------------------------------------------------------------------------
// Partitioned hash join.
// ---------------------------------------------------------------------------

/// The materialized build side of a join: `rows` build rows in one chunk. A join that pads
/// unmatched probe rows (left / full outer) keeps one all-NULL row behind them — the slot every
/// pad addresses — so a padded batch is views over its sources like any other.
/// Nothing that *matches* rows may look past `rows`.
struct BuildSide {
    chunk: DataChunk,
    rows: usize,
}

/// A hash-join table built partition-parallel: build rows are routed to `parts.len()` key-hash
/// partitions, each built by one worker — a table from a key's row hash to the first build row
/// that holds the key. `next` chains same-key rows in increasing build-row order (the
/// nested-loop candidate order). Keys stay in their columns on both sides.
struct ParHashTable {
    /// The hasher both sides' keys are hashed under.
    state: RandomState,
    /// The probe side's key columns, by position.
    probe_keys: Vec<usize>,
    /// The build side's key columns.
    build_keys: Vec<Arc<Array>>,
    /// Key by key: `IS NOT DISTINCT FROM` (NULL and NaN match themselves) or plain `=`.
    null_safe: Vec<bool>,
    parts: Vec<RowTable<u32>>,
    next: Vec<u32>,
}

/// Where a probe row's candidates come from: its key's bucket chain, or every build row.
enum ParJoinMode {
    Hash(ParHashTable),
    Loop,
}

/// The per-row key hashes of the build side, computed morsel-parallel: one morsel per build
/// chunk, before the chunks are concatenated. `keys[..].right` must already be rebased onto the
/// build side.
fn build_key_hashes(
    pool: &WorkerPool,
    ctx: &ExecContext,
    state: &RandomState,
    build_chunks: &Arc<Vec<DataChunk>>,
    keys: &[EquiKey],
) -> Result<Vec<u64>, ExecError> {
    let state = state.clone();
    let chunks = build_chunks.clone();
    let columns: Vec<usize> = keys.iter().map(|k| k.right).collect();
    let ctx = ctx.clone();
    let slots = pool.run_region(build_chunks.len(), usize::MAX, move |m| {
        ctx.check_deadline()?;
        let chunk = &chunks[m];
        let keys: Vec<Arc<Array>> = columns.iter().map(|&c| chunk.column(c).clone()).collect();
        Ok((key_hashes(&state, &keys, chunk.num_rows()), 0))
    });
    let parts = collect_region(slots)?;
    Ok(parts.into_iter().flatten().collect())
}

/// Build the partitioned hash table from the build rows' key `hashes`: one worker per
/// partition inserting its rows (in reverse global order, so bucket chains run forward).
fn build_partitioned_table(
    pool: &WorkerPool,
    ctx: &ExecContext,
    state: RandomState,
    build: &BuildSide,
    keys: &[EquiKey],
    hashes: Vec<u64>,
) -> Result<ParHashTable, ExecError> {
    let rows = build.rows;
    // Key hashes, table slots and chain links cost ~32 bytes per build row on top of the
    // (already reserved) build chunk itself.
    ctx.reserve_memory(rows.saturating_mul(32))?;
    let build_keys: Vec<Arc<Array>> =
        keys.iter().map(|k| build.chunk.column(k.right).clone()).collect();
    let null_safe: Vec<bool> = keys.iter().map(|k| k.null_safe).collect();
    // Never more partitions than build morsels: a small build side is not worth a fan-out.
    let nparts = pool.workers().min(rows.div_ceil(DEFAULT_CHUNK_SIZE)).max(1);

    // Each partition task returns its table plus the chain links of its rows; links are
    // merged into the global `next` vector afterwards (disjoint row sets, so no contention).
    let task_keys = build_keys.clone();
    let task_null_safe = null_safe.clone();
    let ctx = ctx.clone();
    let slots = pool.run_region(nparts, usize::MAX, move |p| {
        ctx.check_deadline()?;
        let mut table: RowTable<u32> = RowTable::new();
        let mut links: Vec<(u32, u32)> = Vec::new();
        // Under plain `=` a key that does not equal itself (NULL, NaN) matches nothing.
        let strict = task_null_safe.contains(&false);
        for i in (0..rows).rev() {
            if i & 0xFFF == 0 {
                ctx.check_deadline()?;
            }
            if hashes[i] as usize % nparts != p {
                continue;
            }
            let same =
                |head: u32| rows_equal(&task_keys, head as usize, &task_keys, i, &task_null_safe);
            if strict && !same(i as u32) {
                continue;
            }
            let (head, chained) = table.slot(hashes[i], same, i as u32);
            if chained {
                links.push((i as u32, std::mem::replace(head, i as u32)));
            }
        }
        Ok(((table, links), 0))
    });
    let mut next = vec![CHAIN_END; rows];
    let mut parts = Vec::with_capacity(nparts);
    for (table, links) in collect_region(slots)? {
        for (i, following) in links {
            next[i as usize] = following;
        }
        parts.push(table);
    }
    let probe_keys = keys.iter().map(|k| k.left).collect();
    Ok(ParHashTable { state, probe_keys, build_keys, null_safe, parts, next })
}

impl ParHashTable {
    /// The key columns of a probe chunk and the hash of each of its rows.
    fn keys_of(&self, probe: &DataChunk) -> (Vec<Arc<Array>>, Vec<u64>) {
        let keys: Vec<Arc<Array>> =
            self.probe_keys.iter().map(|&c| probe.column(c).clone()).collect();
        let hashes = key_hashes(&self.state, &keys, probe.num_rows());
        (keys, hashes)
    }

    /// The bucket-chain start for row `row` of a probe chunk's keys ([`Self::keys_of`]), or
    /// [`CHAIN_END`] when it cannot match.
    fn chain_start(&self, (keys, hashes): &(Vec<Arc<Array>>, Vec<u64>), row: usize) -> u32 {
        let hash = hashes[row];
        let same =
            |head: u32| rows_equal(keys, row, &self.build_keys, head as usize, &self.null_safe);
        self.parts[hash as usize % self.parts.len()].find(hash, same).unwrap_or(CHAIN_END)
    }
}

/// An opened join: its build side and table, its probe morsels (one per probe chunk) and what
/// every [`ProbeCursor`] over them shares.
pub(crate) struct Probe {
    morsels: Vec<DataChunk>,
    build: BuildSide,
    mode: ParJoinMode,
    filter: Option<JoinFilter>,
    /// Does an unmatched probe row get a pad (left / full outer)?
    pads: bool,
    /// Matched-build-row flags (right / full outer).
    matched: Option<Vec<AtomicBool>>,
    left_arity: usize,
}

impl Probe {
    /// The number of probe morsels.
    pub(crate) fn morsels(&self) -> usize {
        self.morsels.len()
    }

    /// The build rows no probe row matched, once every morsel has been probed — a right or
    /// full outer join's pads — or `None` for a join that pads no build row.
    pub(crate) fn unmatched(&self) -> Option<Vec<u32>> {
        let matched = self.matched.as_ref()?;
        let unmatched =
            matched.iter().enumerate().filter(|(_, f)| !f.load(AtomicOrdering::Relaxed));
        Some(unmatched.map(|(i, _)| i as u32).collect())
    }

    /// The output batch padding build rows `rows` with a NULL probe side.
    pub(crate) fn pad_build_rows(&self, rows: &[u32]) -> DataChunk {
        let nulls = (0..self.left_arity).map(|_| Arc::new(Array::Null { len: rows.len() }));
        let left = chunk_from_columns(nulls.collect(), rows.len());
        left.hstack(self.build.chunk.take_dict(&Arc::from(rows)))
    }
}

/// The probe of one morsel (one probe chunk) against the shared build side, resumable: each
/// [`ProbeCursor::step`] emits the next batch. Every output batch is the probe rows and the
/// build rows of its pairs, composed through each buffer a side carries — two index buffers
/// over plain sides — and every output column a view of its source column through its buffer
/// (see [`DataChunk::take_dict`]); a pad addresses the build side's NULL slot. Candidate pairs
/// are generated one way — each probe row with its bucket chain or with every build row, in
/// build-row order, so the output row sequence equals a nested loop's — and a join condition
/// decides them [`DEFAULT_CHUNK_SIZE`] at a time ([`ProbeCursor::decide`]).
///
/// A failing condition is met where a nested loop meets it: the cursor emits the pairs and pads
/// before the first failing pair, then the error. The batch is decided again pair by pair to
/// find that pair, on the error path only. Which rows of the morsel's output are wanted, and
/// so whether the error is observed, is the region's to decide (see `pull.rs`); a morsel is
/// probed the same way whichever worker steps it.
pub(crate) struct ProbeCursor {
    morsel: usize,
    /// The probe chunk's key columns and row hashes (hash joins).
    keys: (Vec<Arc<Array>>, Vec<u64>),
    /// The next probe row to start, and the one whose candidates are being generated.
    next_row: u32,
    row: u32,
    /// The next candidate build row of `row`, or [`CHAIN_END`].
    candidate: u32,
    generated: usize,
    /// Candidate pairs waiting for the join condition.
    candidates: (Vec<u32>, Vec<u32>),
    /// The open batch: probe rows and build rows of the emitted pairs.
    pairs: (Vec<u32>, Vec<u32>),
    /// The first probe row that has neither a match nor a pad yet.
    pad_from: u32,
    /// Batches emitted and not yet returned.
    batches: Vec<DataChunk>,
    /// The error met behind the batches not yet returned.
    failed: Option<ExecError>,
    done: bool,
}

impl ProbeCursor {
    /// A cursor at the start of probe morsel `morsel`.
    pub(crate) fn new(probe: &Probe, morsel: usize) -> ProbeCursor {
        let keys = match &probe.mode {
            ParJoinMode::Hash(table) => table.keys_of(&probe.morsels[morsel]),
            ParJoinMode::Loop => Default::default(),
        };
        ProbeCursor {
            morsel,
            keys,
            next_row: 0,
            row: 0,
            candidate: CHAIN_END,
            generated: 0,
            candidates: Default::default(),
            pairs: Default::default(),
            pad_from: 0,
            batches: Vec::new(),
            failed: None,
            done: false,
        }
    }

    /// Has the morsel emitted everything?
    pub(crate) fn done(&self) -> bool {
        self.done
    }

    /// Probe on until at least one batch is emitted or the morsel ends, and return what was
    /// emitted (nothing only at the end). An error comes after the batches emitted before it,
    /// and a cursor that returned one is spent.
    pub(crate) fn step(
        &mut self,
        probe: &Probe,
        ctx: &ExecContext,
    ) -> Result<Vec<DataChunk>, ExecError> {
        if let Some(error) = self.failed.take() {
            return Err(error);
        }
        if let Err(error) = self.advance(probe, ctx) {
            self.flush(probe);
            if self.batches.is_empty() {
                return Err(error);
            }
            self.failed = Some(error);
        }
        Ok(std::mem::take(&mut self.batches))
    }

    fn advance(&mut self, probe: &Probe, ctx: &ExecContext) -> Result<(), ExecError> {
        let chunk = &probe.morsels[self.morsel];
        let rows = chunk.num_rows() as u32;
        // A nested loop's "chain" is every build row.
        let build_row = |i: u32| if (i as usize) < probe.build.rows { i } else { CHAIN_END };
        while self.batches.is_empty() && !self.done {
            if self.candidate == CHAIN_END {
                if self.next_row < rows {
                    self.row = self.next_row;
                    self.next_row += 1;
                    self.candidate = match &probe.mode {
                        ParJoinMode::Hash(table) => {
                            table.chain_start(&self.keys, self.row as usize)
                        }
                        ParJoinMode::Loop => build_row(0),
                    };
                    continue;
                }
                if let Some(filter) = &probe.filter {
                    self.decide(probe, filter)?;
                }
                self.pad_before(probe, rows);
                self.flush(probe);
                self.done = true;
                break;
            }
            // The candidates of one probe row, until its chain ends or a batch is emitted.
            let (row, mut candidate, mut generated) = (self.row, self.candidate, self.generated);
            while candidate != CHAIN_END && self.batches.is_empty() {
                if generated & 0x3FF == 0 {
                    ctx.check_deadline()?;
                }
                generated += 1;
                match &probe.filter {
                    // Without a condition every candidate is a match.
                    None => self.accept(probe, row, candidate),
                    Some(filter) => {
                        self.candidates.0.push(row);
                        self.candidates.1.push(candidate);
                        if self.candidates.0.len() >= DEFAULT_CHUNK_SIZE {
                            self.decide(probe, filter)?;
                        }
                    }
                }
                candidate = match &probe.mode {
                    ParJoinMode::Hash(table) => table.next[candidate as usize],
                    ParJoinMode::Loop => build_row(candidate + 1),
                };
            }
            self.candidate = candidate;
            self.generated = generated;
        }
        Ok(())
    }

    /// Apply the join condition to the whole batch of candidate pairs and accept the survivors.
    /// When it fails, the pairs are decided one by one up to the first failing pair, whose
    /// error is returned after the pairs and pads before it are emitted.
    fn decide(&mut self, probe: &Probe, filter: &JoinFilter) -> Result<(), ExecError> {
        if self.candidates.0.is_empty() {
            return Ok(());
        }
        let (mut rows, mut build_rows) = std::mem::take(&mut self.candidates);
        let chunk = &probe.morsels[self.morsel];
        match filter.eval_pairs(chunk, &rows, &build_rows) {
            Ok(keep) => {
                for (i, keep) in keep.into_iter().enumerate() {
                    if keep {
                        self.accept(probe, rows[i], build_rows[i]);
                    }
                }
            }
            Err(_) => {
                for i in 0..rows.len() {
                    let pair = i..i + 1;
                    match filter.eval_pairs(chunk, &rows[pair.clone()], &build_rows[pair]) {
                        Ok(keep) if keep[0] => self.accept(probe, rows[i], build_rows[i]),
                        Ok(_) => {}
                        Err(error) => {
                            self.pad_before(probe, rows[i]);
                            return Err(error);
                        }
                    }
                }
            }
        }
        rows.clear();
        build_rows.clear();
        self.candidates = (rows, build_rows);
        Ok(())
    }

    /// A matching pair: emitted behind the pads of the probe rows passed over on the way.
    fn accept(&mut self, probe: &Probe, row: u32, build_row: u32) {
        self.pad_before(probe, row);
        self.pad_from = row + 1;
        if let Some(flags) = &probe.matched {
            flags[build_row as usize].store(true, AtomicOrdering::Relaxed);
        }
        self.emit(probe, row, build_row);
    }

    /// Pad the probe rows before `row` that found no match.
    fn pad_before(&mut self, probe: &Probe, row: u32) {
        while probe.pads && self.pad_from < row {
            self.emit(probe, self.pad_from, probe.build.rows as u32);
            self.pad_from += 1;
        }
    }

    /// One more output row.
    fn emit(&mut self, probe: &Probe, probe_row: u32, build_row: u32) {
        self.pairs.0.push(probe_row);
        self.pairs.1.push(build_row);
        if self.pairs.0.len() >= DEFAULT_CHUNK_SIZE {
            self.flush(probe);
        }
    }

    fn flush(&mut self, probe: &Probe) {
        if self.pairs.0.is_empty() {
            return;
        }
        let left = probe.morsels[self.morsel].take_dict(&Arc::from(self.pairs.0.as_slice()));
        let right = probe.build.chunk.take_dict(&Arc::from(self.pairs.1.as_slice()));
        self.pairs.0.clear();
        self.pairs.1.clear();
        self.batches.push(left.hstack(right));
    }
}

// ---------------------------------------------------------------------------
// Partitioned parallel aggregation.
// ---------------------------------------------------------------------------

/// Per-morsel evaluated aggregation inputs (phase 1 output).
struct AggMorsel {
    keys: Vec<Arc<Array>>,
    args: Vec<Option<Arc<Array>>>,
    hashes: Vec<u64>,
    rows: usize,
}

/// A row of the aggregation's input: morsel in the high half, row in it in the low half, so
/// positions order as the input does.
fn agg_pos(morsel: usize, row: usize) -> u64 {
    ((morsel as u64) << 32) | row as u64
}

/// Parallel hash aggregation in two morsel-parallel phases.
///
/// Phase 1 evaluates group-key and argument columns per morsel (vectorized, embarrassingly
/// parallel) and hashes each row's key where it lies. Phase 2 assigns each key-hash partition
/// to one worker, which folds *every* morsel's rows of its partition in global row order —
/// each group lives in exactly one partition, so its accumulator sees values in the identical
/// order to sequential execution (bit-identical float sums, identical overflow errors). A row
/// finds its group by hash and by comparing its key, in place, with the key of the group's
/// first row. Results are restored to global first-seen order, where each group's key is boxed.
fn par_aggregate(
    pool: &WorkerPool,
    ctx: &ExecContext,
    input: Vec<DataChunk>,
    group_by: Vec<CompiledExpr>,
    aggregates: Vec<CompiledAggregate>,
) -> Result<Vec<Tuple>, ExecError> {
    let input: Vec<DataChunk> = input.into_iter().filter(|c| !c.is_empty()).collect();
    if input.is_empty() {
        // A global aggregation over an empty input still yields one row.
        if group_by.is_empty() {
            let values: Vec<Value> =
                aggregates.iter().map(|a| Accumulator::new(&a.spec).finish()).collect();
            return Ok(vec![Tuple::new(values)]);
        }
        return Ok(Vec::new());
    }

    // Phase 1: evaluate key/argument columns and key hashes, morsel-parallel. It holds its
    // input and a hash per row, charged up front, and the arrays its expressions compute,
    // charged once they are built (an array that only reads a column is the input's own).
    let input_bytes = ctx.bytes_held(&input);
    let rows: usize = input.iter().map(DataChunk::num_rows).sum();
    ctx.reserve_memory(input_bytes + rows * std::mem::size_of::<u64>())?;
    // Never more partitions than input morsels: a small input is not worth a fan-out.
    let nparts = pool.workers().min(input.len());
    let grouping = vec![true; group_by.len()];
    let state = RandomState::new();
    let source = Arc::new(input);
    let task_source = source.clone();
    let task_aggregates = Arc::new(aggregates);
    let phase1_aggregates = task_aggregates.clone();
    let phase1_ctx = ctx.clone();
    let slots = pool.run_region(source.len(), usize::MAX, move |m| {
        phase1_ctx.check_deadline()?;
        let chunk = &task_source[m];
        let keys: Vec<Arc<Array>> =
            group_by.iter().map(|e| e.eval_array(chunk)).collect::<Result<_, _>>()?;
        let args: Vec<Option<Arc<Array>>> = phase1_aggregates
            .iter()
            .map(|a| a.arg.as_ref().map(|e| e.eval_array(chunk)).transpose())
            .collect::<Result<_, _>>()?;
        let hashes = key_hashes(&state, &keys, chunk.num_rows());
        Ok((AggMorsel { keys, args, hashes, rows: chunk.num_rows() }, 0))
    });
    let morsels = Arc::new(collect_region(slots)?);
    let built: Vec<DataChunk> = morsels
        .iter()
        .map(|m| DataChunk::new(m.keys.iter().chain(m.args.iter().flatten()).cloned().collect()))
        .collect();
    ctx.reserve_memory(ctx.bytes_held(source.iter().chain(&built)).saturating_sub(input_bytes))?;

    // Phase 2: one worker per key-hash partition, folding rows in global order.
    struct PartGroups {
        /// `(first-seen position, accumulators)` in partition-local first-seen order.
        groups: Vec<(u64, Vec<Accumulator>)>,
        /// Globally positioned first error, if any row of this partition failed.
        error: Option<(u64, ExecError)>,
    }
    let task_morsels = morsels.clone();
    let phase2_aggregates = task_aggregates.clone();
    let phase2_ctx = ctx.clone();
    let slots = pool.run_region(nparts, usize::MAX, move |p| {
        phase2_ctx.check_deadline()?;
        let mut index: RowTable<u32> = RowTable::new();
        let mut groups: Vec<(u64, Vec<Accumulator>)> = Vec::new();
        let mut since_check = 0usize;
        for (m, morsel) in task_morsels.iter().enumerate() {
            for i in 0..morsel.rows {
                since_check += 1;
                if since_check & 0xFFF == 0 {
                    phase2_ctx.check_deadline()?;
                }
                if morsel.hashes[i] as usize % nparts != p {
                    continue;
                }
                let same = |group: u32| {
                    let first = groups[group as usize].0;
                    let first_keys = &task_morsels[(first >> 32) as usize].keys;
                    rows_equal(first_keys, first as u32 as usize, &morsel.keys, i, &grouping)
                };
                let (slot, found) = index.slot(morsel.hashes[i], same, groups.len() as u32);
                let slot = *slot as usize;
                if !found {
                    let accs = phase2_aggregates.iter().map(|a| Accumulator::new(&a.spec));
                    groups.push((agg_pos(m, i), accs.collect()));
                }
                for (arg, acc) in morsel.args.iter().zip(groups[slot].1.iter_mut()) {
                    // xtask-allow: row-view-in-served-path — the accumulator takes a `Value`
                    if let Err(e) = acc.update(arg.as_ref().map(|a| a.value(i))) {
                        return Ok((PartGroups { groups, error: Some((agg_pos(m, i), e)) }, 0));
                    }
                }
            }
        }
        Ok((PartGroups { groups, error: None }, 0))
    });
    let parts = collect_region(slots)?;

    // Surface the globally first failing row's error (what sequential execution reports).
    if let Some((_, e)) = parts.iter().filter_map(|p| p.error.as_ref()).min_by_key(|(pos, _)| *pos)
    {
        return Err(e.clone());
    }
    // Each group holds a table slot, its first position and its accumulators.
    let group_bytes = std::mem::size_of::<(u64, u32, u64, Vec<Accumulator>)>()
        + task_aggregates.len() * std::mem::size_of::<Accumulator>();
    ctx.reserve_memory(parts.iter().map(|p| p.groups.len()).sum::<usize>() * group_bytes)?;

    // Merge partitions back into global first-seen order; a group's key is boxed here, once,
    // from the row it was first seen at.
    let mut all: Vec<(u64, Vec<Accumulator>)> = parts.into_iter().flat_map(|p| p.groups).collect();
    all.sort_unstable_by_key(|(pos, _)| *pos);
    Ok(all
        .into_iter()
        .map(|(first, accs)| {
            let (keys, row) = (&morsels[(first >> 32) as usize].keys, first as u32 as usize);
            let key = keys.iter().map(|k| k.value(row));
            Tuple::new(key.chain(accs.into_iter().map(Accumulator::finish)).collect())
        })
        .collect())
}

// ---------------------------------------------------------------------------
// Parallel sort.
// ---------------------------------------------------------------------------

/// A row of the sort's input: (chunk, row in it). Tuple order is input order.
type SortPos = (u32, u32);

/// Parallel sort: the sort keys are evaluated on each input chunk and a run is sorted per chunk
/// (one morsel each), the runs are merged into one permutation of input positions — ties break
/// on input position (a stable sort by key), so it is deterministic regardless of worker count
/// — and the output batches are views of the concatenated input through it
/// ([`DataChunk::concat`] keeps a column of views a view, so for a join's output the
/// concatenation is a handful of index buffers). The operator reserves what it holds as it
/// grows — input and permutation, then the concatenation's own buffers, then the output's —
/// and reports the larger of its two peaks: input beside concatenation, concatenation beside
/// output. An input that is already in key order (every key tied, for one) is the output as it
/// is: it is checked while the runs are formed, and nothing is concatenated or gathered.
fn par_sort(
    pool: &WorkerPool,
    ctx: &ExecContext,
    plan: &LogicalPlan,
    chunks: Vec<DataChunk>,
    keys: Vec<(CompiledExpr, SortOrder)>,
) -> Result<Vec<DataChunk>, ExecError> {
    crate::faults::fire("sort")?;
    let chunks: Vec<DataChunk> = chunks.into_iter().filter(|c| !c.is_empty()).collect();
    let rows: usize = chunks.iter().map(DataChunk::num_rows).sum();
    let input_bytes = ctx.bytes_held(&chunks);
    let order_bytes = rows * std::mem::size_of::<SortPos>();
    ctx.record_buffered(plan, input_bytes + order_bytes);
    ctx.reserve_memory(input_bytes + order_bytes)?;
    if rows == 0 {
        return Ok(Vec::new());
    }
    let chunks = Arc::new(chunks);
    let keys = Arc::new(keys);
    let task_chunks = chunks.clone();
    let task_keys = keys.clone();
    let task_ctx = ctx.clone();
    let slots = pool.run_region(chunks.len(), usize::MAX, move |m| {
        task_ctx.check_deadline()?;
        let chunk = &task_chunks[m];
        let key_cols: Vec<Arc<Array>> =
            task_keys.iter().map(|(e, _)| e.eval_array(chunk)).collect::<Result<_, _>>()?;
        let rows = chunk.num_rows();
        let in_order = |a: usize, b: usize| {
            compare_keys(&key_cols, a, &key_cols, b, &task_keys) != std::cmp::Ordering::Greater
        };
        // A chunk already in key order has no run to sort (`None`: the identity).
        if (1..rows).all(|row| in_order(row - 1, row)) {
            return Ok(((key_cols, None), 0));
        }
        let mut order: Vec<u32> = (0..rows as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            compare_keys(&key_cols, a as usize, &key_cols, b as usize, &task_keys).then(a.cmp(&b))
        });
        let run: Vec<SortPos> = order.into_iter().map(|row| (m as u32, row)).collect();
        Ok(((key_cols, Some(run)), 0))
    });
    let extracted = collect_region(slots)?;
    let (run_keys, runs): (Vec<_>, Vec<_>) = extracted.into_iter().unzip();

    // Global comparator: a position names its chunk's key columns and the row in them.
    let cmp = |a: SortPos, b: SortPos| -> std::cmp::Ordering {
        let (ka, kb) = (&run_keys[a.0 as usize], &run_keys[b.0 as usize]);
        compare_keys(ka, a.1 as usize, kb, b.1 as usize, &keys).then(a.cmp(&b))
    };
    // Input already in key order — every chunk, and every chunk's last row against the next
    // one's first (a sort whose keys all tie, say) — is its own output.
    let last = |m: usize| (m as u32, chunks[m].num_rows() as u32 - 1);
    if runs.iter().all(Option::is_none)
        && (1..chunks.len()).all(|m| cmp(last(m - 1), (m as u32, 0)).is_lt())
    {
        return Ok(Arc::try_unwrap(chunks).unwrap_or_else(|shared| (*shared).clone()));
    }
    let mut runs: Vec<Vec<SortPos>> = runs
        .into_iter()
        .enumerate()
        .map(|(m, run)| {
            run.unwrap_or_else(|| {
                (0..chunks[m].num_rows() as u32).map(|row| (m as u32, row)).collect()
            })
        })
        .collect();

    // Pairwise merge rounds until one run remains.
    while runs.len() > 1 {
        ctx.check_deadline()?;
        let mut merged = Vec::with_capacity(runs.len().div_ceil(2));
        let mut iter = runs.into_iter();
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => merged.push(merge_runs(a, b, cmp)),
                None => merged.push(a),
            }
        }
        runs = merged;
    }
    let order = runs.pop().unwrap_or_default();

    let flat = DataChunk::concat(plan.output_arity(), &chunks)?;
    let flat_bytes = ctx.bytes_held([&flat]);
    let held = ctx.bytes_held(chunks.iter().chain([&flat]));
    ctx.record_buffered(plan, held + order_bytes);
    ctx.reserve_memory(held - input_bytes)?;
    // Flat row number of each chunk's first row.
    let offsets: Vec<u32> = chunks
        .iter()
        .scan(0, |next, chunk| Some(std::mem::replace(next, *next + chunk.num_rows() as u32)))
        .collect();
    drop(chunks);

    let mut out: Vec<DataChunk> = Vec::with_capacity(rows.div_ceil(DEFAULT_CHUNK_SIZE));
    for batch in order.chunks(DEFAULT_CHUNK_SIZE) {
        let picks: Arc<[u32]> =
            batch.iter().map(|&(chunk, row)| offsets[chunk as usize] + row).collect();
        let gathered = flat.take_dict(&picks);
        if out.is_empty() {
            // A batch is one index buffer per buffer of `flat` (its dictionaries are `flat`'s),
            // so the first batch prices all of them before the rest are gathered.
            let row_bytes = (ctx.bytes_held([&flat, &gathered]) - flat_bytes) / batch.len();
            ctx.record_buffered(plan, flat_bytes + order_bytes + row_bytes * rows);
            ctx.reserve_memory(row_bytes * rows)?;
        }
        out.push(gathered);
    }
    Ok(out)
}

/// Compare two rows by their evaluated key columns under the sort key orders.
fn compare_keys(
    a: &[Arc<Array>],
    i: usize,
    b: &[Arc<Array>],
    j: usize,
    keys: &[(CompiledExpr, SortOrder)],
) -> std::cmp::Ordering {
    for ((ca, cb), (_, order)) in a.iter().zip(b.iter()).zip(keys) {
        let ord = ca.compare(i, cb, j);
        let ord = match order {
            SortOrder::Ascending => ord,
            SortOrder::Descending => ord.reverse(),
        };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// Merge two sorted runs of input positions.
fn merge_runs(
    a: Vec<SortPos>,
    b: Vec<SortPos>,
    cmp: impl Fn(SortPos, SortPos) -> std::cmp::Ordering,
) -> Vec<SortPos> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if cmp(a[i], b[j]) != std::cmp::Ordering::Greater {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::test_fixtures::paper_example_catalog;
    use crate::executor::ExecOptions;
    use perm_algebra::{
        tuple, AggregateExpr, AggregateFunction, DataType, PlanBuilder, Schema, SortKey,
    };
    use perm_storage::Catalog;

    fn scan(catalog: &Catalog, table: &str, ref_id: usize) -> PlanBuilder {
        PlanBuilder::scan(table, catalog.table_schema(table).unwrap(), ref_id)
    }

    /// A `(k, v)` integer table big enough to span several morsels.
    fn big_catalog(rows: usize) -> Catalog {
        let catalog = Catalog::new();
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
        let tuples: Vec<Tuple> = (0..rows as i64).map(|i| tuple![i % 97, i % 13]).collect();
        catalog.create_table_with_data("t", Relation::from_parts(schema, tuples)).unwrap();
        catalog
    }

    /// Degree `workers` must equal degree 1 row for row, and the oracle as a bag.
    fn assert_parallel_matches(catalog: &Catalog, plan: &LogicalPlan, workers: usize) {
        let pool = WorkerPool::new(workers);
        let executor = Executor::new(catalog.clone());
        let parallel = executor.execute_parallel(plan, &pool).unwrap();
        let sequential = executor.execute(plan).unwrap();
        assert_eq!(
            parallel.tuples(),
            sequential.tuples(),
            "degree {workers} != degree 1 on\n{plan}"
        );
        let reference = executor.execute_reference(plan).unwrap();
        assert!(parallel.bag_eq(&reference), "degree {workers} != reference on\n{plan}");
    }

    #[test]
    fn filter_project_pipeline_matches_at_every_degree() {
        let catalog = big_catalog(5000);
        let t = scan(&catalog, "t", 0);
        let pred = t.col("k").unwrap().eq(ScalarExpr::literal(7i64));
        let plan = t.filter(pred).project(vec![(ScalarExpr::column(1, "v"), "v".into())]).build();
        for workers in [1, 2, 8] {
            assert_parallel_matches(&catalog, &plan, workers);
        }
    }

    #[test]
    fn hash_join_and_outer_joins_match_at_every_degree() {
        let catalog = big_catalog(3000);
        for kind in
            [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::RightOuter, JoinKind::FullOuter]
        {
            let cond = ScalarExpr::column(0, "k").eq(ScalarExpr::column(2, "k"));
            let filtered = scan(&catalog, "t", 1)
                .filter(ScalarExpr::column(1, "v").eq(ScalarExpr::literal(3i64)));
            let plan = scan(&catalog, "t", 0).join(filtered, kind, Some(cond)).build();
            for workers in [1, 4] {
                assert_parallel_matches(&catalog, &plan, workers);
            }
        }
    }

    #[test]
    fn aggregation_sort_setop_and_limit_match_at_every_degree() {
        let catalog = big_catalog(4000);
        let agg = scan(&catalog, "t", 0)
            .aggregate(
                vec![(ScalarExpr::column(0, "k"), "k".into())],
                vec![(
                    AggregateExpr::new(AggregateFunction::Sum, ScalarExpr::column(1, "v")),
                    "s".into(),
                )],
            )
            .build();
        let sorted = scan(&catalog, "t", 0)
            .sort(vec![
                SortKey::desc(ScalarExpr::column(1, "v")),
                SortKey::asc(ScalarExpr::column(0, "k")),
            ])
            .build();
        let setop = scan(&catalog, "t", 0)
            .set_op(
                scan(&catalog, "t", 1)
                    .filter(ScalarExpr::column(0, "k").eq(ScalarExpr::literal(5i64))),
                SetOpKind::Difference,
                SetSemantics::Bag,
            )
            .build();
        let limited = scan(&catalog, "t", 0)
            .filter(ScalarExpr::column(1, "v").eq(ScalarExpr::literal(1i64)))
            .limit(Some(17), 3)
            .build();
        for plan in [&agg, &sorted, &setop, &limited] {
            for workers in [1, 8] {
                assert_parallel_matches(&catalog, plan, workers);
            }
        }
    }

    #[test]
    fn provenance_example_matches_at_every_degree() {
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
        for workers in [1, 4] {
            assert_parallel_matches(&catalog, &plan, workers);
        }
    }

    #[test]
    fn overflow_error_is_identical_at_every_degree() {
        let catalog = Catalog::new();
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        let rows: Vec<Tuple> =
            (0..1500i64).map(|i| if i == 700 { tuple![i64::MAX] } else { tuple![i] }).collect();
        catalog.create_table_with_data("t", Relation::from_parts(schema, rows)).unwrap();
        let t = scan(&catalog, "t", 0);
        let plan = t
            .project(vec![(
                ScalarExpr::binary(
                    perm_algebra::BinaryOperator::Add,
                    ScalarExpr::column(0, "x"),
                    ScalarExpr::literal(1i64),
                ),
                "y".into(),
            )])
            .build();
        let executor = Executor::new(catalog.clone());
        let pool = WorkerPool::new(4);
        let expected = ExecError::ArithmeticOverflow { operation: "addition".into() };
        assert_eq!(executor.execute(&plan).unwrap_err(), expected);
        assert_eq!(executor.execute_parallel(&plan, &pool).unwrap_err(), expected);
        assert_eq!(executor.execute_reference(&plan).unwrap_err(), expected);
    }

    #[test]
    fn row_budget_is_enforced_at_every_degree() {
        // A 3000 x 3000 self-join on k (97 keys) would emit ~93k rows; with a budget of 5000
        // the probe stops one row over budget instead of materializing them, and the outcome
        // does not depend on how many workers raced for morsels.
        let catalog = big_catalog(3000);
        let cond = ScalarExpr::column(0, "k").eq(ScalarExpr::column(2, "k"));
        let plan = scan(&catalog, "t", 0)
            .join(scan(&catalog, "t", 1), JoinKind::Inner, Some(cond))
            .build();
        let executor =
            Executor::with_options(catalog.clone(), ExecOptions::default().with_row_budget(5000));
        let expected = ExecError::RowBudgetExceeded { budget: 5000 };
        assert_eq!(executor.execute(&plan).unwrap_err(), expected);
        for workers in [2, 8] {
            let pool = WorkerPool::new(workers);
            assert_eq!(executor.execute_parallel(&plan, &pool).unwrap_err(), expected);
        }
    }

    #[test]
    fn a_limit_reaches_a_join_probe_through_a_projection() {
        // The same ~93k-row self-join under `LIMIT 10` through a renaming projection: the
        // projection hands the row target on, so the probe stops long before the budget.
        let catalog = big_catalog(3000);
        let cond = ScalarExpr::column(0, "k").eq(ScalarExpr::column(2, "k"));
        let plan = scan(&catalog, "t", 0)
            .join(scan(&catalog, "t", 1), JoinKind::Inner, Some(cond))
            .project(vec![(ScalarExpr::column(3, "v"), "v".into())])
            .limit(Some(10), 0)
            .build();
        let executor =
            Executor::with_options(catalog.clone(), ExecOptions::default().with_row_budget(5000));
        let expected = Executor::new(catalog.clone()).execute(&plan).unwrap();
        assert_eq!(expected.num_rows(), 10);
        assert_eq!(executor.execute(&plan).unwrap().tuples(), expected.tuples());
        for workers in [2, 8] {
            let pool = WorkerPool::new(workers);
            assert_eq!(
                executor.execute_parallel(&plan, &pool).unwrap().tuples(),
                expected.tuples()
            );
        }
    }

    #[test]
    fn a_sort_passes_input_already_in_key_order_through() {
        // Two chunks each in key order: in order across the boundary too (ties included), they
        // come out as they went in, the very same buffers; out of order across it, sorted.
        let chunk = |keys: &[i64]| {
            DataChunk::new(vec![Arc::new(
                Array::from_values(keys.iter().map(|&k| Value::Int(k))).unwrap(),
            )])
        };
        let schema = Schema::from_pairs(&[("k", DataType::Int)]);
        for (chunks, in_order) in [
            (vec![chunk(&[1, 2, 2]), chunk(&[2, 3])], true),
            (vec![chunk(&[1, 3]), chunk(&[2, 4])], false),
        ] {
            let catalog = Catalog::new();
            let table = Relation::from_chunks(schema.clone(), chunks.clone());
            catalog.create_table_with_data("t", table).unwrap();
            let plan =
                scan(&catalog, "t", 0).sort(vec![SortKey::asc(ScalarExpr::column(0, "k"))]).build();
            for workers in [1, 2] {
                let sorted = Executor::new(catalog.clone())
                    .execute_parallel(&plan, &WorkerPool::new(workers));
                let sorted = sorted.unwrap();
                let keys: Vec<Value> = sorted.iter().map(|t| t[0].clone()).collect();
                let mut expected = keys.clone();
                expected.sort();
                assert_eq!(keys, expected);
                let passed = sorted
                    .chunks()
                    .iter()
                    .zip(&chunks)
                    .all(|(out, input)| Arc::ptr_eq(out.column(0), input.column(0)));
                assert_eq!(passed, in_order, "{workers} workers");
            }
        }
    }

    #[test]
    fn text_beyond_what_a_column_addresses_is_a_resource_error() {
        // Two chunks whose text column claims 3 GiB each — by its offsets only; nothing reads
        // the bytes before the sort or the join lays the column end to end. They are out of key
        // order, so the sort has rows to move (input already in order passes through).
        use perm_algebra::Bitmap;
        let chunk = |k: i64| {
            DataChunk::new(vec![
                Arc::new(Array::from_values([Value::Int(k)]).unwrap()),
                Arc::new(Array::Text {
                    offsets: vec![0, 3 << 30],
                    bytes: Vec::new(),
                    validity: Bitmap::all_set(1),
                }),
            ])
        };
        let catalog = big_catalog(10);
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("s", DataType::Text)]);
        let huge = Relation::from_chunks(schema, vec![chunk(2), chunk(1)]);
        catalog.create_table_with_data("huge", huge).unwrap();
        let sorted =
            scan(&catalog, "huge", 0).sort(vec![SortKey::asc(ScalarExpr::column(0, "k"))]).build();
        let cond = ScalarExpr::column(0, "k").eq(ScalarExpr::column(2, "k"));
        let joined = scan(&catalog, "t", 0)
            .join(scan(&catalog, "huge", 1), JoinKind::Inner, Some(cond))
            .build();
        let executor = Executor::new(catalog.clone());
        for plan in [&sorted, &joined] {
            for workers in [1, 2] {
                let error = executor.execute_parallel(plan, &WorkerPool::new(workers)).unwrap_err();
                assert!(
                    matches!(&error, ExecError::ResourceExhausted(m) if m.contains("4 GiB")),
                    "{error}"
                );
            }
        }
    }

    #[test]
    fn a_literal_repeated_past_what_a_column_addresses_still_compares() {
        // 4.5 MiB broadcast over a 1024-row chunk is more text than one column addresses: the
        // literal stays a run-length view and the comparison goes row by row.
        let big = "x".repeat(9 << 19);
        let catalog = Catalog::new();
        let schema = Schema::from_pairs(&[("name", DataType::Text)]);
        let mut tuples: Vec<Tuple> = (0..1023).map(|i| tuple![format!("n{i}")]).collect();
        tuples.push(tuple![big.clone()]);
        catalog.create_table_with_data("names", Relation::from_parts(schema, tuples)).unwrap();
        let cond = ScalarExpr::column(0, "name").eq(ScalarExpr::literal(big.as_str()));
        let plan = scan(&catalog, "names", 0).filter(cond).build();
        let executor = Executor::new(catalog);
        for workers in [1, 2] {
            let found = executor.execute_parallel(&plan, &WorkerPool::new(workers)).unwrap();
            assert_eq!(found.num_rows(), 1, "degree {workers}");
        }
    }

    #[test]
    fn limit_early_stop_is_stable_under_worker_races() {
        // Regression stress for the straggler race: a LIMIT region stops claiming morsels
        // early; helper jobs that start late must never claim (and write) a morsel after the
        // dispatcher harvested the result slots. 1-core schedulers interleave aggressively
        // under repetition.
        let catalog = big_catalog(8192);
        let pool = WorkerPool::new(8);
        let executor = Executor::new(catalog.clone());
        let plan = scan(&catalog, "t", 0)
            .filter(ScalarExpr::column(1, "v").eq(ScalarExpr::literal(2i64)))
            .limit(Some(9), 1)
            .build();
        let expected = executor.execute(&plan).unwrap();
        for _ in 0..200 {
            let got = executor.execute_parallel(&plan, &pool).unwrap();
            assert_eq!(got.tuples(), expected.tuples());
        }
    }

    #[test]
    fn shared_pool_survives_concurrent_regions() {
        let catalog = big_catalog(3000);
        let pool = Arc::new(WorkerPool::new(4));
        let plan = Arc::new(
            scan(&catalog, "t", 0)
                .filter(ScalarExpr::column(0, "k").eq(ScalarExpr::literal(11i64)))
                .build(),
        );
        let expected = Executor::new(catalog.clone()).execute(&plan).unwrap();
        let threads: Vec<_> = (0..6)
            .map(|_| {
                let pool = pool.clone();
                let plan = plan.clone();
                let catalog = catalog.clone();
                let expected = expected.clone();
                thread::spawn(move || {
                    let executor = Executor::new(catalog);
                    for _ in 0..10 {
                        let got = executor.execute_parallel(&plan, &pool).unwrap();
                        assert_eq!(got.tuples(), expected.tuples());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }
}

//! Streaming query results: [`QueryStream`], an iterator of [`DataChunk`]s with a schema
//! header, cancellation and per-engine buffered-memory accounting.
//!
//! A stream starts *pending*: planning has happened but no execution work has been done. The
//! first pull ([`QueryStream::next_chunk`]) opens the plan on the calling thread — which is one
//! of the engine's pool workers while it dispatches, so a query gets the pool's full degree and
//! no thread of its own: everything below the plan's last pipeline breaker runs then (sort,
//! aggregation, set operation, DISTINCT, every join's build side and the probe inputs of the
//! joins below the top one). The region above that breaker — projection, filter, alias,
//! annotation, LIMIT, over at most the topmost join probe or the breaker's chunk list — is
//! pulled: each pull runs the next `workers` morsels ([`perm_exec::ResultCursor`]) and the
//! stream hands their chunks out one by one, so a consumer that forwards chunks as it pulls
//! them (the wire server) paces execution by whatever it writes to, and a `cancel` between
//! pulls stops execution. Collecting the stream whole ([`QueryStream::collect_relation`], the
//! path behind the convenience `Session::execute`) drains the same cursor.
//!
//! What a pulled chunk costs is set by the engine's one rule about data movement — *a filter
//! batch is one index buffer over its source; a join batch is one per source buffer its sides
//! carry; operators above keep views while the dictionary is shared* (see `perm_exec::vector`):
//! a provenance result of tens of thousands of wide rows arrives here as a few index buffers
//! per chunk over the columns of its source tuples, and between pulls the stream holds only
//! the chunks of the last pull not yet handed out. [`crate::codec`] ships the views as they
//! are, each shared index buffer once per frame and each dictionary row once per result.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use perm_algebra::{DataChunk, Schema};
use perm_exec::{CancelToken, ExecError, Executor, ResultCursor, WorkerPool};
use perm_storage::Relation;

use crate::engine::PreparedPlan;
use crate::error::ServiceError;
use crate::metrics::{outcome_of, QueryOutcome, QueryTicket};

/// A streaming query result: the output schema up front, then chunks on demand.
///
/// Cancelling the stream ends it at the next chunk boundary; dropping it mid-way releases the
/// chunks not yet handed out and the statement's memory grant at once.
pub struct QueryStream {
    schema: Schema,
    state: State,
    /// Engine-wide gauge of result bytes a stream holds and has not handed to a consumer: the
    /// chunks of its last pull not yet handed out (incremented as a pull returns, decremented as
    /// its chunks go out).
    buffered: Arc<AtomicUsize>,
    cancelled: AtomicBool,
    /// The executor-level cancellation token of the governed statement behind this stream;
    /// [`cancel`](QueryStream::cancel) trips it so execution aborts at its next checkpoint.
    token: Option<Arc<CancelToken>>,
    /// The metrics ticket of the governed statement: finished with the stream's terminal
    /// outcome (ok / error / cancelled / shed) exactly once; a stream dropped mid-flight
    /// settles it as cancelled.
    ticket: Option<QueryTicket>,
    rows: u64,
}

enum State {
    /// Planned but not started; holds everything needed to execute.
    Pending { executor: Executor, prepared: Arc<PreparedPlan>, pool: Arc<WorkerPool> },
    /// Opened: the plan's top region is pulled from `cursor`, and `batch` holds what the last
    /// pull returned. The executor — its catalog snapshot and the memory grant riding in it —
    /// lives until the stream ends.
    Pulling { executor: Executor, cursor: Box<ResultCursor>, pool: Arc<WorkerPool>, batch: Batch },
    /// A result built elsewhere (DDL/DML, `SELECT ... INTO`), handed out chunk by chunk.
    Materialized { batch: Batch },
    /// Exhausted or failed.
    Done,
}

/// Chunks waiting to be handed out, and what they count on the gauge: what they hold beside
/// the stored columns the executor's scans read (all of them, for a result built elsewhere).
#[derive(Default)]
struct Batch {
    chunks: VecDeque<DataChunk>,
    unsent: usize,
}

impl std::fmt::Debug for QueryStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match &self.state {
            State::Pending { .. } => "pending",
            State::Pulling { .. } => "pulling",
            State::Materialized { .. } => "materialized",
            State::Done => "done",
        };
        f.debug_struct("QueryStream")
            .field("schema", &self.schema)
            .field("state", &state)
            .field("rows", &self.rows)
            .finish()
    }
}

impl QueryStream {
    /// A pending stream over a planned query (started lazily on the first chunk pull).
    pub(crate) fn pending(
        executor: Executor,
        prepared: Arc<PreparedPlan>,
        pool: Arc<WorkerPool>,
        buffered: Arc<AtomicUsize>,
        token: Arc<CancelToken>,
        ticket: QueryTicket,
    ) -> QueryStream {
        QueryStream {
            schema: prepared.plan.schema(),
            state: State::Pending { executor, prepared, pool },
            buffered,
            cancelled: AtomicBool::new(false),
            token: Some(token),
            ticket: Some(ticket),
            rows: 0,
        }
    }

    /// A stream over an already-materialized relation (DDL/DML results, `SELECT ... INTO`).
    pub fn from_relation(relation: Relation) -> QueryStream {
        let schema = relation.schema().clone();
        let chunks: VecDeque<DataChunk> =
            relation.into_chunks().into_iter().filter(|c| !c.is_empty()).collect();
        let unsent = chunks.iter().map(DataChunk::byte_size).sum();
        QueryStream {
            schema,
            state: State::Materialized { batch: Batch { chunks, unsent } },
            buffered: Arc::new(AtomicUsize::new(0)),
            cancelled: AtomicBool::new(false),
            token: None,
            ticket: None,
            rows: 0,
        }
    }

    /// The output schema (available before any chunk).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Rows delivered so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// The engine-wide query id of the governed statement behind this stream (0 for streams
    /// over already-materialized results). Tags the query's log lines as `qid=<id>`.
    pub fn query_id(&self) -> u64 {
        self.ticket.as_ref().map(QueryTicket::query_id).unwrap_or(0)
    }

    /// Settle the metrics ticket with `outcome` and the rows delivered so far (idempotent;
    /// no-op for ticketless streams).
    fn finish_ticket(&mut self, outcome: QueryOutcome) {
        if let Some(ticket) = &mut self.ticket {
            ticket.finish(outcome, self.rows);
        }
    }

    /// Cancel the query behind this stream: an execution in progress aborts at its next
    /// cancellation checkpoint (freeing reserved memory as it unwinds), and the stream ends at
    /// the next chunk boundary.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
        if let Some(token) = &self.token {
            token.cancel();
        }
    }

    /// The cancellation token of the governed statement behind this stream, if any (streams
    /// over already-materialized results have none).
    pub fn cancel_token(&self) -> Option<&Arc<CancelToken>> {
        self.token.as_ref()
    }

    /// Pull the next chunk. `None` means the stream finished cleanly; an `Err` is terminal and
    /// invalidates every chunk delivered before it (partial results must not be trusted).
    ///
    /// The first pull on a pending stream opens the query, and a pull that finds no chunk
    /// waiting runs the next morsels of its top region: an execution error — a row budget, a
    /// timeout, a memory limit, a cancellation — may arrive here after chunks were delivered.
    pub fn next_chunk(&mut self) -> Option<Result<DataChunk, ServiceError>> {
        if let State::Pending { .. } = self.state {
            if let Err(e) = self.open() {
                return Some(Err(e));
            }
        }
        while !self.cancelled.load(Ordering::Relaxed) {
            let (batch, executor) = match &mut self.state {
                State::Pulling { executor, batch, .. } => (batch, Some(&*executor)),
                State::Materialized { batch } => (batch, None),
                _ => break,
            };
            if let Some(chunk) = batch.chunks.pop_front() {
                let bytes = held(executor, &chunk);
                batch.unsent -= bytes;
                self.buffered.fetch_sub(bytes, Ordering::Relaxed);
                self.rows += chunk.num_rows() as u64;
                return Some(Ok(chunk));
            }
            let State::Pulling { .. } = self.state else { break };
            match self.pull() {
                Ok(Some(chunks)) => self.refill(chunks),
                Ok(None) => break,
                Err(e) => return Some(Err(e)),
            }
        }
        // Every chunk handed out — or a cancelled stream, whose partial result must not count
        // as ok.
        let outcome = if self.cancelled.load(Ordering::Relaxed) {
            QueryOutcome::Cancelled
        } else {
            QueryOutcome::Ok
        };
        self.release();
        self.finish_ticket(outcome);
        None
    }

    /// Open a pending stream's plan: everything below its top region runs now.
    fn open(&mut self) -> Result<(), ServiceError> {
        let State::Pending { executor, prepared, pool } =
            std::mem::replace(&mut self.state, State::Done)
        else {
            unreachable!("open on a stream that is not pending")
        };
        match fenced(self.query_id(), || executor.open(&prepared.plan, &pool)) {
            Ok(cursor) => {
                let cursor = Box::new(cursor);
                self.state = State::Pulling { executor, cursor, pool, batch: Batch::default() };
                Ok(())
            }
            Err(e) => {
                drop(executor);
                self.finish_ticket(outcome_of(&e));
                Err(e)
            }
        }
    }

    /// Run the next pull of an open stream's cursor. On error the executor — and the memory
    /// grant in it — is gone and the ticket settled by the time this returns.
    fn pull(&mut self) -> Result<Option<Vec<DataChunk>>, ServiceError> {
        let qid = self.query_id();
        let State::Pulling { cursor, pool, .. } = &mut self.state else { return Ok(None) };
        let result = fenced(qid, || cursor.next_batch(pool));
        if let Err(e) = &result {
            self.release();
            self.finish_ticket(outcome_of(e));
        }
        result
    }

    /// Queue the chunks of one pull, counting them on the gauge until they are handed out.
    fn refill(&mut self, chunks: Vec<DataChunk>) {
        let State::Pulling { executor, batch, .. } = &mut self.state else { return };
        for chunk in chunks.into_iter().filter(|c| !c.is_empty()) {
            let bytes = executor.bytes_held([&chunk]);
            batch.unsent += bytes;
            self.buffered.fetch_add(bytes, Ordering::Relaxed);
            batch.chunks.push_back(chunk);
        }
    }

    /// End the stream: take its chunks not handed out off the gauge and drop them together with
    /// the cursor and the executor, so the gauge and the governor's reservation are provably
    /// released when this returns.
    fn release(&mut self) {
        if let State::Pulling { batch, .. } | State::Materialized { batch } =
            std::mem::replace(&mut self.state, State::Done)
        {
            self.buffered.fetch_sub(batch.unsent, Ordering::Relaxed);
        }
    }

    /// Drain the stream into a materialized [`Relation`]: the chunks waiting, then the rest of
    /// the region with every remaining morsel pulled at once.
    pub fn collect_relation(mut self) -> Result<Relation, ServiceError> {
        if let State::Pending { .. } = self.state {
            self.open()?;
        }
        let mut chunks = Vec::new();
        match std::mem::replace(&mut self.state, State::Done) {
            State::Pulling { executor, cursor, pool, batch } => {
                self.buffered.fetch_sub(batch.unsent, Ordering::Relaxed);
                chunks.extend(batch.chunks);
                let drained = fenced(self.query_id(), || (*cursor).drain(&pool));
                drop(executor);
                match drained {
                    Ok(rest) => chunks.extend(rest),
                    Err(e) => {
                        self.finish_ticket(outcome_of(&e));
                        return Err(e);
                    }
                }
                self.rows += chunks.iter().map(|c| c.num_rows() as u64).sum::<u64>();
                self.finish_ticket(QueryOutcome::Ok);
            }
            other => {
                self.state = other;
                while let Some(item) = self.next_chunk() {
                    chunks.push(item?);
                }
            }
        }
        Ok(Relation::from_chunks(self.schema.clone(), chunks))
    }
}

/// `work` tagged with query id `qid`, behind a panic fence: a panic anywhere in execution (a
/// worker bug, an injected fault) fails the stream with [`ServiceError::Internal`], not the
/// thread.
fn fenced<T>(qid: u64, work: impl FnOnce() -> Result<T, ExecError>) -> Result<T, ServiceError> {
    let _qid_guard = perm_exec::QueryIdGuard::new(qid);
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(work)) {
        Ok(result) => result.map_err(ServiceError::from),
        Err(payload) => Err(ServiceError::Internal(perm_exec::panic_message(payload.as_ref()))),
    }
}

impl Iterator for QueryStream {
    type Item = Result<DataChunk, ServiceError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_chunk()
    }
}

impl Drop for QueryStream {
    fn drop(&mut self) {
        self.release();
        // A stream abandoned before its terminal outcome was observed counts as cancelled
        // (idempotent: a finished ticket keeps its recorded outcome).
        self.finish_ticket(QueryOutcome::Cancelled);
    }
}

/// What `chunk` holds that its stream owns: all of it beside the stored columns `executor`'s
/// scans read (a filtered scan's result is its index buffers), or all of it for a result
/// materialized elsewhere.
fn held(executor: Option<&Executor>, chunk: &DataChunk) -> usize {
    match executor {
        Some(executor) => executor.bytes_held([chunk]),
        None => chunk.byte_size(),
    }
}

//! Streaming query results: [`QueryStream`], an iterator of [`DataChunk`]s with a schema
//! header, cancellation and per-engine buffered-memory accounting.
//!
//! A stream starts *pending*: planning has happened but no execution work has been done. The
//! first pull ([`QueryStream::next_chunk`]) — or collecting the stream whole
//! ([`QueryStream::collect_relation`], the path behind the convenience `Session::execute`) —
//! runs the engine on the calling thread, which is one of the engine's pool workers while it
//! dispatches, so a query gets the pool's full degree and no thread of its own. The result is
//! materialized once, by the engine, and then handed out chunk by chunk; a consumer that
//! forwards chunks as it pulls them (the wire server) is paced by whatever it writes to.
//!
//! What "materialized" costs is set by the engine's one rule about data movement — *a filter
//! batch is one index buffer over its source; a join batch is one per source buffer its sides
//! carry; operators above keep views while the dictionary is shared* (see `perm_exec::vector`):
//! a provenance result of tens of thousands of wide rows arrives here as a few index buffers per
//! chunk over the columns of its source tuples. The stream takes the chunk list by value and
//! *moves* each chunk out, so a chunk is freed when the consumer drops it, not when the last
//! frame has gone; [`crate::codec`] ships the views as they are, each shared index buffer once
//! per frame and each dictionary row once per result.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use perm_algebra::{DataChunk, Schema};
use perm_exec::{CancelToken, Executor, WorkerPool};
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
    /// Engine-wide gauge of materialized result bytes not yet handed to a consumer
    /// (incremented when a result is materialized, decremented as its chunks go out).
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
    /// The result, handed out chunk by chunk. `unsent` is what the chunks still here count on
    /// the gauge: what they hold beside the stored columns the executor's scans read. The
    /// executor — and the memory grant riding in it — lives until the stream ends (`None` for
    /// results materialized elsewhere: DDL/DML, `SELECT ... INTO`).
    Materialized {
        chunks: std::vec::IntoIter<DataChunk>,
        unsent: usize,
        executor: Option<Executor>,
    },
    /// Exhausted or failed.
    Done,
}

impl std::fmt::Debug for QueryStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match &self.state {
            State::Pending { .. } => "pending",
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
        let mut stream = QueryStream {
            schema: relation.schema().clone(),
            state: State::Done,
            buffered: Arc::new(AtomicUsize::new(0)),
            cancelled: AtomicBool::new(false),
            token: None,
            ticket: None,
            rows: 0,
        };
        stream.materialize(relation, None);
        stream
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
    /// cancellation checkpoint (freeing reserved memory as it unwinds), and a materialized
    /// result ends at the next chunk boundary.
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
    /// The first pull on a pending stream executes the query; its errors arrive here, before
    /// any chunk.
    pub fn next_chunk(&mut self) -> Option<Result<DataChunk, ServiceError>> {
        if let State::Pending { .. } = self.state {
            match self.execute() {
                Ok((relation, executor)) => self.materialize(relation, Some(executor)),
                Err(e) => return Some(Err(e)),
            }
        }
        let State::Materialized { chunks, unsent, executor } = &mut self.state else { return None };
        if !self.cancelled.load(Ordering::Relaxed) {
            if let Some(chunk) = chunks.next() {
                let bytes = held(executor, &chunk);
                *unsent -= bytes;
                self.buffered.fetch_sub(bytes, Ordering::Relaxed);
                self.rows += chunk.num_rows() as u64;
                return Some(Ok(chunk));
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

    /// Run a pending stream's plan on the calling thread, tagged with the query id, behind a
    /// panic fence: a panic anywhere in execution (a worker bug, an injected fault) fails the
    /// stream with [`ServiceError::Internal`], not the thread. On error the executor — and the
    /// memory grant in it — is gone and the ticket settled by the time this returns.
    fn execute(&mut self) -> Result<(Relation, Executor), ServiceError> {
        let State::Pending { executor, prepared, pool } =
            std::mem::replace(&mut self.state, State::Done)
        else {
            unreachable!("execute on a stream that is not pending")
        };
        let _qid_guard = perm_exec::QueryIdGuard::new(self.query_id());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            executor.execute_parallel(&prepared.plan, &pool)
        }));
        let result = match outcome {
            Ok(result) => result.map_err(ServiceError::from),
            Err(payload) => Err(ServiceError::Internal(perm_exec::panic_message(payload.as_ref()))),
        };
        match result {
            Ok(relation) => Ok((relation, executor)),
            Err(e) => {
                drop(executor);
                self.finish_ticket(outcome_of(&e));
                Err(e)
            }
        }
    }

    /// Serve `relation` chunk by chunk, counting it on the gauge until it is handed out.
    fn materialize(&mut self, relation: Relation, executor: Option<Executor>) {
        let chunks: Vec<DataChunk> =
            relation.into_chunks().into_iter().filter(|c| !c.is_empty()).collect();
        let unsent = chunks.iter().map(|chunk| held(&executor, chunk)).sum();
        self.buffered.fetch_add(unsent, Ordering::Relaxed);
        self.state = State::Materialized { chunks: chunks.into_iter(), unsent, executor };
    }

    /// End the stream: take its chunks not handed out off the gauge and drop them together with
    /// the executor, so the gauge and the governor's reservation are provably released when
    /// this returns.
    fn release(&mut self) {
        if let State::Materialized { unsent, .. } = std::mem::replace(&mut self.state, State::Done)
        {
            self.buffered.fetch_sub(unsent, Ordering::Relaxed);
        }
    }

    /// Drain the stream into a materialized [`Relation`].
    ///
    /// On a stream that has not started yet this returns the engine's result as it is;
    /// otherwise it concatenates the remaining chunks.
    pub fn collect_relation(mut self) -> Result<Relation, ServiceError> {
        if let State::Pending { .. } = self.state {
            let (relation, _executor) = self.execute()?;
            self.rows = relation.num_rows() as u64;
            self.finish_ticket(QueryOutcome::Ok);
            return Ok(relation);
        }
        let mut chunks = Vec::new();
        while let Some(item) = self.next_chunk() {
            chunks.push(item?);
        }
        Ok(Relation::from_chunks(self.schema.clone(), chunks))
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
fn held(executor: &Option<Executor>, chunk: &DataChunk) -> usize {
    match executor {
        Some(executor) => executor.bytes_held([chunk]),
        None => chunk.byte_size(),
    }
}

//! Streaming query results: [`QueryStream`], an iterator of [`DataChunk`]s with a schema
//! header, cancellation and per-engine buffered-memory accounting.
//!
//! A stream starts *pending*: planning has happened but no execution work has been done, so a
//! caller that wants the whole result materialized ([`QueryStream::collect_relation`], the path
//! behind the convenience `Session::execute`) runs the engine inline on the engine's worker
//! pool. Pulling the first chunk instead promotes the stream to *running*: a producer thread
//! runs the same engine on the same pool — the result is materialized inside the producer —
//! and hands chunks over a bounded channel, so a consumer that forwards chunks as it pulls
//! them (the wire server) buffers at most `window` chunks and wire backpressure applies.
//!
//! What "materialized" costs is set by the engine's one rule about data movement — *a join
//! batch is two index buffers over its sources; operators above keep views while the
//! dictionary is shared* (see `perm_exec::vector`): a provenance result of tens of thousands
//! of wide rows arrives here as a few index buffers per chunk over the columns of its source
//! tuples. The producer takes the chunk list by value and *moves* each chunk into the
//! channel, so a chunk is freed when the consumer drops it, not when the last frame has gone;
//! [`crate::codec`] ships the views as they are.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use perm_algebra::{DataChunk, Schema};
use perm_exec::{CancelToken, Executor, WorkerPool};
use perm_storage::Relation;

use crate::engine::PreparedPlan;
use crate::error::ServiceError;
use crate::metrics::{outcome_of, QueryOutcome, QueryTicket};

/// How many chunks a running stream's producer may buffer ahead of the consumer.
pub const STREAM_CHANNEL_WINDOW: usize = 4;

/// A streaming query result: the output schema up front, then chunks on demand.
///
/// Dropping the stream mid-way cancels the producer at its next chunk boundary; collecting it
/// ([`collect_relation`](QueryStream::collect_relation)) before the first pull runs the
/// engine inline instead of spawning a producer.
pub struct QueryStream {
    schema: Schema,
    state: State,
    /// Engine-wide gauge of bytes buffered in stream channels (incremented by producers when
    /// they send, decremented here when the consumer takes a chunk).
    buffered: Arc<AtomicUsize>,
    cancel: Arc<AtomicBool>,
    /// The executor-level cancellation token of the governed statement behind this stream;
    /// [`cancel`](QueryStream::cancel) trips it so execution aborts at its next checkpoint
    /// (not just at the next chunk boundary of the producer loop).
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
    /// Producer thread running; chunks arrive over the bounded channel. The handle is `None`
    /// only when spawning the thread itself failed (the error is queued in the channel).
    Running { rx: Receiver<Result<DataChunk, ServiceError>>, producer: Option<JoinHandle<()>> },
    /// Result already materialized (DDL/DML, `SELECT ... INTO`): chunks are served from it.
    Materialized { chunks: std::vec::IntoIter<DataChunk> },
    /// Exhausted or failed.
    Done,
}

impl std::fmt::Debug for QueryStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match &self.state {
            State::Pending { .. } => "pending",
            State::Running { .. } => "running",
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
            cancel: Arc::new(AtomicBool::new(false)),
            token: Some(token),
            ticket: Some(ticket),
            rows: 0,
        }
    }

    /// A stream over an already-materialized relation (DDL/DML results, `SELECT ... INTO`).
    pub fn from_relation(relation: Relation) -> QueryStream {
        let schema = relation.schema().clone();
        let chunks: Vec<DataChunk> =
            relation.into_chunks().into_iter().filter(|c| !c.is_empty()).collect();
        QueryStream {
            schema,
            state: State::Materialized { chunks: chunks.into_iter() },
            buffered: Arc::new(AtomicUsize::new(0)),
            cancel: Arc::new(AtomicBool::new(false)),
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

    /// Cancel the query behind this stream: the executor aborts at its next cancellation
    /// checkpoint (freeing reserved memory as it unwinds) and the producer stops at its next
    /// chunk boundary. Already-buffered chunks still drain; `next_chunk` keeps returning them
    /// until the channel closes.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
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
    pub fn next_chunk(&mut self) -> Option<Result<DataChunk, ServiceError>> {
        loop {
            match &mut self.state {
                State::Pending { .. } => {
                    let state = std::mem::replace(&mut self.state, State::Done);
                    let State::Pending { executor, prepared, pool } = state else { unreachable!() };
                    self.state = spawn_producer(
                        executor,
                        prepared,
                        pool,
                        self.buffered.clone(),
                        self.cancel.clone(),
                        self.query_id(),
                    );
                }
                State::Running { rx, .. } => {
                    let item = rx.recv();
                    match item {
                        Ok(Ok(chunk)) => {
                            self.buffered.fetch_sub(chunk.byte_size(), Ordering::Relaxed);
                            self.rows += chunk.num_rows() as u64;
                            return Some(Ok(chunk));
                        }
                        // Terminal outcomes retire the producer thread *before* returning, so
                        // its executor (and the memory grant riding in it) is released by the
                        // time the caller sees the end of the stream — not eventually.
                        Ok(Err(e)) => {
                            self.finish_running();
                            self.finish_ticket(outcome_of(&e));
                            return Some(Err(e));
                        }
                        Err(_) => {
                            self.finish_running();
                            // The channel closed without an error: a clean end — unless this
                            // stream was cancelled and the producer simply stopped sending, in
                            // which case the partial result must not count as ok.
                            let outcome = if self.cancel.load(Ordering::Relaxed) {
                                QueryOutcome::Cancelled
                            } else {
                                QueryOutcome::Ok
                            };
                            self.finish_ticket(outcome);
                            return None;
                        }
                    }
                }
                State::Materialized { chunks } => match chunks.next() {
                    Some(chunk) => {
                        self.rows += chunk.num_rows() as u64;
                        return Some(Ok(chunk));
                    }
                    None => {
                        self.state = State::Done;
                        return None;
                    }
                },
                State::Done => return None,
            }
        }
    }

    /// Retire a running producer: drain every buffered item (keeping the engine-wide gauge
    /// exact) and join the thread, so the producer's executor — and with it the governor's
    /// memory reservation — is provably gone when this returns. A `while let Ok(Ok(..))`
    /// drain would stop at the first queued error and leak the accounting of chunks behind
    /// it.
    fn finish_running(&mut self) {
        if let State::Running { rx, producer } = std::mem::replace(&mut self.state, State::Done) {
            for chunk in rx.iter().flatten() {
                self.buffered.fetch_sub(chunk.byte_size(), Ordering::Relaxed);
            }
            // The channel is drained and the producer has observed the cancel flag, finished,
            // or had its send fail; joining makes "gauge reads zero afterwards" a guarantee
            // rather than a race. A panicked producer already reported through the channel.
            if let Some(handle) = producer {
                let _ = handle.join();
            }
        }
    }

    /// Drain the stream into a materialized [`Relation`].
    ///
    /// On a stream that has not started yet this runs the engine inline (no producer thread);
    /// otherwise it concatenates the remaining chunks.
    pub fn collect_relation(mut self) -> Result<Relation, ServiceError> {
        if let State::Pending { .. } = &self.state {
            let state = std::mem::replace(&mut self.state, State::Done);
            let State::Pending { executor, prepared, pool } = state else { unreachable!() };
            return match executor.execute_parallel(&prepared.plan, &pool) {
                Ok(relation) => {
                    self.rows = relation.num_rows() as u64;
                    self.finish_ticket(QueryOutcome::Ok);
                    Ok(relation)
                }
                Err(e) => {
                    let e = ServiceError::from(e);
                    self.finish_ticket(outcome_of(&e));
                    Err(e)
                }
            };
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
        self.cancel();
        self.finish_running();
        // A stream abandoned before its terminal outcome was observed counts as cancelled
        // (idempotent: a finished ticket keeps its recorded outcome).
        self.finish_ticket(QueryOutcome::Cancelled);
    }
}

/// Spawn the producer thread for a pending stream and return the running state.
///
/// Failure to spawn the thread (resource exhaustion) is reported through the channel as a
/// [`ServiceError::Internal`] rather than panicking, and a producer that *panics* mid-query
/// (a worker bug, an injected fault) is caught and surfaced the same way — the stream fails,
/// the process does not.
fn spawn_producer(
    executor: Executor,
    prepared: Arc<PreparedPlan>,
    pool: Arc<WorkerPool>,
    buffered: Arc<AtomicUsize>,
    cancel: Arc<AtomicBool>,
    qid: u64,
) -> State {
    let (tx, rx) = std::sync::mpsc::sync_channel(STREAM_CHANNEL_WINDOW);
    let spawned = std::thread::Builder::new().name("perm-stream".into()).spawn(move || {
        // Tag everything this producer (and the morsel workers it drives) logs with the
        // query's id.
        let _qid_guard = perm_exec::QueryIdGuard::new(qid);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            produce(&executor, &prepared, &pool, &tx, &buffered, &cancel)
        }));
        if let Err(payload) = outcome {
            // Errors carry no buffered bytes, so no gauge accounting is needed here; the
            // consumer (or `Drop`) drains the channel as usual.
            let _ = tx.send(Err(ServiceError::Internal(panic_message(payload.as_ref()))));
        }
    });
    match spawned {
        Ok(producer) => State::Running { rx, producer: Some(producer) },
        Err(e) => {
            // The closure (with `tx` inside) was dropped, closing the channel; report the
            // spawn failure over a fresh channel instead.
            let (tx, rx) = std::sync::mpsc::sync_channel(1);
            let _ = tx.send(Err(ServiceError::Internal(format!(
                "failed to spawn stream producer thread: {e}"
            ))));
            State::Running { rx, producer: None }
        }
    }
}

/// Render a caught panic payload as an error message (shared with the server's dispatch
/// fence).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    };
    format!("worker panicked: {msg}")
}

fn produce(
    executor: &Executor,
    prepared: &PreparedPlan,
    pool: &WorkerPool,
    tx: &SyncSender<Result<DataChunk, ServiceError>>,
    buffered: &AtomicUsize,
    cancel: &AtomicBool,
) {
    let send = |item: Result<DataChunk, ServiceError>| -> bool {
        let bytes = item.as_ref().map_or(0, DataChunk::byte_size);
        buffered.fetch_add(bytes, Ordering::Relaxed);
        if tx.send(item).is_err() {
            // Consumer went away; roll the accounting back and stop.
            buffered.fetch_sub(bytes, Ordering::Relaxed);
            return false;
        }
        true
    };
    // The engine materializes the result inside this thread; it is then fed out chunk-wise
    // (the consumer gets bounded buffering and wire backpressure). Each chunk is *moved* into
    // the channel: once the consumer is done with it, nothing here keeps it alive.
    match executor.execute_parallel(&prepared.plan, pool) {
        Ok(relation) => {
            for chunk in relation.into_chunks() {
                if chunk.is_empty() {
                    continue;
                }
                if cancel.load(Ordering::Relaxed) || !send(Ok(chunk)) {
                    return;
                }
            }
        }
        Err(e) => {
            send(Err(e.into()));
        }
    }
}

//! The top region of a plan, pulled: [`ResultCursor`].
//!
//! A plan's *region* is what sits above its last pipeline breaker (sort, aggregation, set
//! operation, DISTINCT, a join's build side and its probe input): projections and filters,
//! aliases and a `LIMIT`, over at most one join probe or over the breaker's chunk list. Opening
//! a cursor evaluates everything below the region; each pull then runs the region on the next
//! morsels — one probe chunk or one source chunk each — on the pool and hands out their output
//! in morsel order. A join morsel that emits many batches (Q11+'s last join-back: 156 probe
//! rows, 24 960 output rows) is a resumable [`ProbeCursor`] that a streaming pull steps one
//! batch at a time, so the result is never held whole. Draining the cursor pulls every morsel
//! in one region, and is how the engine materializes a region ([`Executor::par_chunks`]).
//!
//! **When a query fails.** The oracle's rule ([`crate::reference`]): a query fails if and only
//! if evaluating, in plan order, the rows its output needs meets an error, and then with the
//! first such error. A level's output passing the row budget is one more such error. Morsels
//! run ahead of the consumer a batch at a time, and their batches are replayed in morsel order.
//! The one batch that ends the region — it fails, takes a level past the budget, or covers what
//! the consumer still wants — is *cut*: lifted again from the shortest prefix of its source
//! rows that still ends it ([`ResultCursor::cut`]). Nothing behind that row is charged,
//! profiled or handed out, and an error behind it is not observed. Rows, row order and errors
//! do not depend on the degree or on how many rows each pull hands out.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use perm_algebra::{DataChunk, LogicalPlan, ScalarExpr, DEFAULT_CHUNK_SIZE};

use crate::compile::CompiledExpr;
use crate::error::ExecError;
use crate::executor::{strip_transparent, ExecContext, Executor};
use crate::parallel::{lock_recovered, Probe, ProbeCursor, WorkerPool};
use crate::vector::project_chunk;

/// Is `plan` the top of a region (evaluated by a [`ResultCursor`]) rather than a breaker?
pub(crate) fn is_pulled(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::Projection { distinct, .. } => !distinct,
        LogicalPlan::Selection { .. }
        | LogicalPlan::Join { .. }
        | LogicalPlan::Limit { .. }
        | LogicalPlan::SubqueryAlias { .. }
        | LogicalPlan::ProvenanceAnnotation { .. } => true,
        _ => false,
    }
}

/// A filter and/or a projection over the level below it.
struct Stage {
    predicate: Option<CompiledExpr>,
    exprs: Option<Vec<CompiledExpr>>,
}

impl Stage {
    fn apply(&self, chunk: &DataChunk, ctx: &ExecContext) -> Result<DataChunk, ExecError> {
        ctx.check_deadline()?;
        let filtered = match &self.predicate {
            Some(p) => chunk.filter(&p.eval_mask(chunk)?),
            None => chunk.clone(),
        };
        match &self.exprs {
            Some(exprs) => project_chunk(exprs, &filtered),
            None => Ok(filtered),
        }
    }
}

/// Where a region's rows come from: one morsel per chunk of a breaker's output, or one per
/// probe chunk of a join.
enum Source {
    Chunks(Vec<DataChunk>),
    Probe(Box<Probe>),
}

/// What every morsel task of a region reads.
struct Shared {
    source: Source,
    /// Bottom-up: stage `i` is level `i + 1`.
    stages: Vec<Stage>,
    ctx: ExecContext,
    /// Rows each charged level has produced in the morsels run so far, replayed or not (`None`
    /// for an uncharged level, and for every level without a row budget).
    ran: Vec<Option<AtomicUsize>>,
}

impl Shared {
    /// Count `lift`'s rows as run.
    fn run(&self, lift: &Lift) {
        for (ran, &rows) in self.ran.iter().zip(&lift.rows) {
            if let Some(ran) = ran {
                ran.fetch_add(rows, Ordering::Relaxed);
            }
        }
    }

    /// Has a charged level run past the row budget? Then the region is sure to end at or before
    /// the last row run, within the morsels claimed so far.
    fn over(&self) -> bool {
        let mut ran = self.ran.iter().flatten().map(|ran| ran.load(Ordering::Relaxed));
        ran.any(|ran| self.ctx.charge_count(ran).is_err())
    }
}

/// One level's output: level 0 is the source, level `i` is stage `i - 1`.
struct Level {
    /// Is the output charged against the row budget here? (A breaker's chunk list was charged
    /// when it was built; the projection under a DISTINCT is charged as the distinct rows.)
    charged: bool,
    produced: usize,
    /// The profile slots of the operators whose output this level is.
    nodes: Vec<usize>,
}

impl Level {
    fn new(charged: bool, nodes: Vec<usize>) -> Level {
        Level { charged, produced: 0, nodes }
    }
}

/// What one source batch became on its way up the region.
struct Lift {
    /// The batch (none when the source itself failed), kept for [`ResultCursor::cut`].
    source: Option<DataChunk>,
    /// Its rows at each level it reached, from the source up.
    rows: Vec<usize>,
    /// Its output at the top level, when it reached it.
    top: Option<DataChunk>,
    /// The error that stopped it at level `rows.len()`.
    error: Option<ExecError>,
}

impl Lift {
    fn failed(error: ExecError) -> Lift {
        Lift { source: None, rows: Vec::new(), top: None, error: Some(error) }
    }

    fn top_rows(&self) -> usize {
        self.top.as_ref().map_or(0, DataChunk::num_rows)
    }
}

/// A morsel claimed and not yet replayed to its end.
#[derive(Default)]
struct Morsel {
    index: usize,
    /// A join morsel's cursor between steps (`None` before its first step).
    cursor: Option<ProbeCursor>,
    lifts: VecDeque<Lift>,
    done: bool,
}

/// A morsel after a step: its cursor to resume (unless done), its lifts, and whether it is done.
type Stepped = (Option<ProbeCursor>, Vec<Lift>, bool);

/// The unmatched build rows a right or full outer join pads once every morsel is probed.
enum Pads {
    Pending,
    Rows(Vec<u32>, usize),
    Done,
}

/// A plan's top region, pulled on demand ([`Executor::open`]).
///
/// [`ResultCursor::next_batch`] runs the next `workers` morsels — one step of each join morsel
/// — and returns their output in morsel order; [`ResultCursor::drain`] runs everything the
/// consumer wants. The cursor owns what its region reads (the join's build side and probe
/// morsels, the breaker's chunk list, the compiled expressions) and the statement's context:
/// its row budget, deadline, cancellation token, memory grant and profile sink.
pub struct ResultCursor {
    shared: Arc<Shared>,
    levels: Vec<Level>,
    /// Morsels claimed, in index order (contiguous from the oldest one not yet replayed).
    open: VecDeque<Morsel>,
    next: usize,
    total: usize,
    pads: Pads,
    error: Option<ExecError>,
    /// `LIMIT`: rows still to skip and rows still wanted; the operators it stands for.
    skip: usize,
    remaining: Option<usize>,
    consumer: Vec<usize>,
    /// Chunks replayed to the consumer and not yet returned.
    ready: Vec<DataChunk>,
    finished: bool,
}

impl std::fmt::Debug for ResultCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCursor")
            .field("levels", &self.levels.len())
            .field("morsels", &self.total)
            .field("next", &self.next)
            .field("finished", &self.finished)
            .finish()
    }
}

impl ResultCursor {
    /// Open the region at the top of `plan`, evaluating everything below it. `limit` is how
    /// many rows the caller takes (a sublink's decisive row count, say). With `distinct`,
    /// `plan` is a DISTINCT projection whose projection is the region's top level, uncharged.
    pub(crate) fn open(
        exec: &Executor,
        plan: &LogicalPlan,
        ctx: &ExecContext,
        pool: &WorkerPool,
        limit: Option<usize>,
        distinct: bool,
    ) -> Result<ResultCursor, ExecError> {
        let started = ctx.profile().map(|_| Instant::now());
        let compile = |e: &ScalarExpr| CompiledExpr::compile(e, exec, ctx, pool);
        // Operators whose output is the level below them (aliases), waiting for it.
        let mut nodes: Vec<usize> = Vec::new();
        let mut stages: Vec<(Stage, Level)> = Vec::new();
        let mut consumer = None;
        let mut node = plan;
        // The rows the level being opened must deliver, as long as no filter intervenes: a
        // `LIMIT` below a projection is a region of its own, drained to this many rows.
        let mut hint = limit;
        let (source, level0) = loop {
            match node {
                LogicalPlan::SubqueryAlias { input, .. }
                | LogicalPlan::ProvenanceAnnotation { input, .. } => {
                    nodes.extend(ctx.profile_op(node).map(|(_, slot)| slot));
                    node = input;
                }
                LogicalPlan::Limit { input, limit: n, offset }
                    if consumer.is_none() && stages.is_empty() =>
                {
                    nodes.extend(ctx.profile_op(node).map(|(_, slot)| slot));
                    let wanted = n.iter().chain(&limit).copied().min();
                    consumer = Some((*offset, wanted, std::mem::take(&mut nodes)));
                    // `LIMIT 0` pulls nothing, not even the rows it would skip.
                    hint = wanted.map(|n| if n == 0 { 0 } else { n.saturating_add(*offset) });
                    node = input;
                }
                LogicalPlan::Projection { input, exprs, distinct: d }
                    if !d || (distinct && std::ptr::eq(node, plan)) =>
                {
                    let exprs: Vec<CompiledExpr> =
                        exprs.iter().map(|(e, _)| compile(e)).collect::<Result<_, _>>()?;
                    if *d {
                        hint = None;
                    } else {
                        nodes.extend(ctx.profile_op(node).map(|(_, slot)| slot));
                    }
                    let level = Level::new(!*d, std::mem::take(&mut nodes));
                    // A selection right below (aliases between are not executed) is the same
                    // stage.
                    let (input, predicate) = match strip_transparent(input) {
                        LogicalPlan::Selection { input, predicate } => {
                            (input, Some(compile(predicate)?))
                        }
                        _ => (input, None),
                    };
                    hint = hint.filter(|_| predicate.is_none());
                    stages.push((Stage { predicate, exprs: Some(exprs) }, level));
                    node = input;
                }
                LogicalPlan::Selection { input, predicate } => {
                    let predicate = Some(compile(predicate)?);
                    nodes.extend(ctx.profile_op(node).map(|(_, slot)| slot));
                    let level = Level::new(true, std::mem::take(&mut nodes));
                    stages.push((Stage { predicate, exprs: None }, level));
                    hint = None;
                    node = input;
                }
                LogicalPlan::Join { left, right, kind, condition } => {
                    let probe =
                        exec.open_join(node, left, right, *kind, condition.as_ref(), ctx, pool)?;
                    nodes.extend(ctx.profile_op(node).map(|(_, slot)| slot));
                    break (Source::Probe(Box::new(probe)), Level::new(true, nodes));
                }
                _ => {
                    let chunks = exec.par_chunks(node, ctx, pool, hint)?;
                    break (Source::Chunks(chunks), Level::new(false, nodes));
                }
            }
        };
        let (total, pads) = match &source {
            Source::Chunks(chunks) => (chunks.len(), Pads::Done),
            Source::Probe(probe) => (probe.morsels(), Pads::Pending),
        };
        let (stages, upper): (Vec<Stage>, Vec<Level>) = stages.into_iter().rev().unzip();
        let levels: Vec<Level> = std::iter::once(level0).chain(upper).collect();
        // Does the statement have a row budget? (Every budget is below `usize::MAX` rows.)
        let budgeted = ctx.charge_count(usize::MAX).is_err();
        let ran = levels.iter().map(|l| (l.charged && budgeted).then(AtomicUsize::default));
        let (skip, remaining, consumer) = consumer.unwrap_or((0, limit, Vec::new()));
        let mut cursor = ResultCursor {
            shared: Arc::new(Shared { source, stages, ctx: ctx.clone(), ran: ran.collect() }),
            levels,
            open: VecDeque::new(),
            next: 0,
            total,
            pads,
            error: None,
            skip,
            remaining,
            consumer,
            ready: Vec::new(),
            finished: false,
        };
        cursor.settle();
        cursor.record_time(started);
        Ok(cursor)
    }

    /// The next pull's output: `workers` more morsels run (one step of each join morsel), and
    /// what they produced comes back in morsel order. `Ok(None)` once the region is exhausted;
    /// an `Err` is terminal and invalidates every batch returned before it.
    pub fn next_batch(&mut self, pool: &WorkerPool) -> Result<Option<Vec<DataChunk>>, ExecError> {
        loop {
            if !self.ready.is_empty() {
                return Ok(Some(std::mem::take(&mut self.ready)));
            }
            if self.finished {
                return self.error.take().map_or(Ok(None), Err);
            }
            self.pull(pool, false);
        }
    }

    /// Run the rest of the region and return its output: every remaining morsel is claimed in
    /// one region, until the consumer has what it wants.
    pub fn drain(mut self, pool: &WorkerPool) -> Result<Vec<DataChunk>, ExecError> {
        let mut out = std::mem::take(&mut self.ready);
        while !self.finished {
            self.pull(pool, true);
            out.append(&mut self.ready);
        }
        self.error.take().map_or(Ok(out), Err)
    }

    /// One pull: step the open morsels that have nothing waiting and claim new ones — `workers`
    /// of them, or all with `whole` — then replay what came back in morsel order.
    fn pull(&mut self, pool: &WorkerPool, whole: bool) {
        let started = self.shared.ctx.profile().map(|_| Instant::now());
        if self.next == self.total && self.open.is_empty() {
            self.pad(whole);
        } else {
            self.step(pool, whole);
        }
        self.replay_open();
        self.settle();
        self.record_time(started);
    }

    fn step(&mut self, pool: &WorkerPool, whole: bool) {
        let width = if whole { usize::MAX } else { pool.workers() };
        // Past the budget, only the morsel being replayed is needed to find where it ends.
        let width = if self.shared.over() { 1 } else { width };
        let waiting = self.open.iter_mut().filter(|m| !m.done && m.lifts.is_empty());
        let mut work: Vec<(usize, Mutex<Option<ProbeCursor>>)> =
            waiting.take(width).map(|m| (m.index, Mutex::new(m.cursor.take()))).collect();
        while work.len() < width && self.next < self.total {
            self.open.push_back(Morsel { index: self.next, ..Morsel::default() });
            work.push((self.next, Mutex::new(None)));
            self.next += 1;
        }
        // The consumer's rows are the one stop counter: morsels are claimed in index order until
        // the completed ones cover what it wants, or one of them is sure to end the region.
        let wanted = self.wanted();
        let (shared, work) = (self.shared.clone(), Arc::new(work));
        let task_work = work.clone();
        let task = move |i: usize| {
            let (index, cursor) = &task_work[i];
            let cursor = lock_recovered(cursor).take();
            let (stepped, ends) = run_morsel(&shared, *index, cursor, whole, wanted);
            let top = if ends { usize::MAX } else { stepped.1.iter().map(Lift::top_rows).sum() };
            Ok((stepped, top))
        };
        // A breaker's chunk list with nothing above it has nothing to compute.
        let slots: Vec<_> = match (&self.shared.source, self.shared.stages.is_empty()) {
            (Source::Chunks(_), true) => {
                (0..work.len()).map(|i| Some(task(i).map(|(stepped, _)| stepped))).collect()
            }
            _ => pool.run_region(work.len(), wanted.unwrap_or(usize::MAX), task),
        };
        for ((index, unclaimed), slot) in work.iter().zip(slots) {
            match slot {
                Some(stepped) => self.settle_morsel(*index, stepped),
                // Not claimed: the region stopped before it.
                None => self.morsel(*index).cursor = lock_recovered(unclaimed).take(),
            }
        }
    }

    fn morsel(&mut self, index: usize) -> &mut Morsel {
        let first = self.open.front().map_or(0, |m| m.index);
        &mut self.open[index - first]
    }

    /// Record a morsel's step. A panic the pool's fence caught fails it where its source does.
    fn settle_morsel(&mut self, index: usize, stepped: Result<Stepped, ExecError>) {
        let stepped = stepped.unwrap_or_else(|error| (None, vec![Lift::failed(error)], true));
        let morsel = self.morsel(index);
        (morsel.cursor, morsel.done) = (stepped.0, stepped.2);
        morsel.lifts.extend(stepped.1);
    }

    /// A right or full outer join's unmatched build rows, padded once every morsel is probed:
    /// one batch per pull, or all of them with `whole`.
    fn pad(&mut self, whole: bool) {
        let shared = self.shared.clone();
        let Source::Probe(probe) = &shared.source else {
            self.pads = Pads::Done;
            return;
        };
        if matches!(self.pads, Pads::Pending) {
            self.pads = probe.unmatched().map_or(Pads::Done, |rows| Pads::Rows(rows, 0));
        }
        loop {
            let batch = match &mut self.pads {
                Pads::Rows(rows, at) if *at < rows.len() => {
                    let end = rows.len().min(*at + DEFAULT_CHUNK_SIZE);
                    let batch = rows[*at..end].to_vec();
                    *at = end;
                    batch
                }
                _ => {
                    self.pads = Pads::Done;
                    return;
                }
            };
            let lift = match shared.ctx.check_deadline() {
                Ok(()) => lift_batch(&shared, probe.pad_build_rows(&batch)),
                Err(error) => Lift::failed(error),
            };
            self.replay(lift);
            if !whole || self.ended() {
                return;
            }
        }
    }

    /// Replay the claimed morsels' output in morsel order, as far as it is complete and wanted.
    fn replay_open(&mut self) {
        while !self.ended() {
            let Some(front) = self.open.front_mut() else { return };
            match front.lifts.pop_front() {
                Some(lift) => self.replay(lift),
                None if front.done => drop(self.open.pop_front()),
                None => return,
            }
        }
    }

    /// Take one source batch's way up the region into the bookkeeping, cut where it ends the
    /// region: each level is charged for it and profiled, and the consumer gets its top rows.
    fn replay(&mut self, lift: Lift) {
        let lift = self.cut(lift);
        let ctx = &self.shared.ctx;
        for (level, &rows) in self.levels.iter_mut().zip(&lift.rows) {
            level.produced += rows;
            if let (true, Some(sink)) = (rows > 0, ctx.profile()) {
                level.nodes.iter().for_each(|&slot| sink.add_output(slot, rows as u64, 1));
            }
            if level.charged {
                if let Err(error) = ctx.charge_count(level.produced) {
                    self.error = Some(error);
                    return;
                }
            }
        }
        self.error = lift.error;
        if let (None, Some(top)) = (&self.error, lift.top) {
            self.consume(top);
        }
    }

    /// The one cut. A lift that ends the region — it fails, takes a charged level past the
    /// budget, or covers what the consumer still wants — is lifted again from the shortest
    /// prefix of its source batch that still ends it: the failing row, the row over budget or
    /// the last row wanted is the prefix's last. Whether a prefix ends the region grows with the
    /// prefix, so a binary search finds it in a logarithmic number of lifts.
    fn cut(&self, lift: Lift) -> Lift {
        let source = match &lift.source {
            Some(source) if self.ends(&lift) => source.clone(),
            _ => return lift,
        };
        let (mut shorter, mut cut, mut best) = (0, source.num_rows(), lift);
        while cut - shorter > 1 {
            let mid = shorter + (cut - shorter) / 2;
            let prefix = lift_batch(&self.shared, source.slice(0, mid));
            match self.ends(&prefix) {
                true => (cut, best) = (mid, prefix),
                false => shorter = mid,
            }
        }
        best
    }

    /// Does `lift`, replayed next, end the region?
    fn ends(&self, lift: &Lift) -> bool {
        let ctx = &self.shared.ctx;
        let over = (self.levels.iter().zip(&lift.rows)).any(|(level, &rows)| {
            level.charged && ctx.charge_count(level.produced + rows).is_err()
        });
        lift.error.is_some() || over || self.wanted().is_some_and(|w| lift.top_rows() >= w)
    }

    /// The top rows the consumer still takes, skipped ones included, if it takes a number.
    fn wanted(&self) -> Option<usize> {
        self.remaining.map(|remaining| remaining.saturating_add(self.skip))
    }

    /// Has the region ended: it failed, or the consumer has what it wants?
    fn ended(&self) -> bool {
        self.error.is_some() || self.remaining == Some(0)
    }

    /// Finish once the region has ended or has nothing left to run.
    fn settle(&mut self) {
        let exhausted =
            self.next == self.total && self.open.is_empty() && matches!(self.pads, Pads::Done);
        self.finished = self.ended() || exhausted;
        if self.finished {
            self.open.clear();
        }
    }

    /// Hand a top-level chunk to the consumer, through the `LIMIT` if there is one.
    fn consume(&mut self, mut chunk: DataChunk) {
        if self.skip > 0 {
            if self.skip >= chunk.num_rows() {
                self.skip -= chunk.num_rows();
                return;
            }
            chunk = chunk.slice(self.skip, chunk.num_rows() - self.skip);
            self.skip = 0;
        }
        if let Some(remaining) = &mut self.remaining {
            if chunk.num_rows() > *remaining {
                chunk = chunk.slice(0, *remaining);
            }
            *remaining -= chunk.num_rows();
        }
        if !chunk.is_empty() {
            if let Some(sink) = self.shared.ctx.profile() {
                let rows = chunk.num_rows() as u64;
                self.consumer.iter().for_each(|&slot| sink.add_output(slot, rows, 1));
            }
            self.ready.push(chunk);
        }
    }

    /// Add the wall time since `started` to every operator of the region (times are inclusive).
    fn record_time(&self, started: Option<Instant>) {
        let (Some(started), Some(sink)) = (started, self.shared.ctx.profile()) else { return };
        let nanos = started.elapsed().as_nanos() as u64;
        let slots = self.levels.iter().flat_map(|l| &l.nodes).chain(&self.consumer);
        slots.for_each(|&slot| sink.add_nanos(slot, nanos));
    }
}

/// Run one morsel of a region: its chunk up the region, or its join probe one step — with
/// `whole`, on to the morsel's end — each batch up the region. Also say whether the region is
/// sure to end within the morsels claimed so far: a lift failed, the morsel's top rows cover what
/// the consumer `wanted`, or the rows run pass the row budget ([`Shared::over`]). A drained join
/// morsel then stops, and the region claims no more morsels.
fn run_morsel(
    shared: &Shared,
    index: usize,
    cursor: Option<ProbeCursor>,
    whole: bool,
    wanted: Option<usize>,
) -> (Stepped, bool) {
    // Is the region sure to end, once `lift` is run and the morsel has `top` top rows?
    let ends = |lift: &Lift, top: usize| {
        shared.run(lift);
        lift.error.is_some() || shared.over() || wanted.is_some_and(|wanted| top >= wanted)
    };
    let probe = match &shared.source {
        Source::Chunks(chunks) => {
            let lift = lift_batch(shared, chunks[index].clone());
            let ended = ends(&lift, lift.top_rows());
            return ((None, vec![lift], true), ended);
        }
        Source::Probe(probe) => probe,
    };
    let mut cursor = cursor.unwrap_or_else(|| ProbeCursor::new(probe, index));
    let (mut lifts, mut top, mut ended) = (Vec::new(), 0, false);
    loop {
        match cursor.step(probe, &shared.ctx) {
            Ok(batches) => {
                for batch in batches {
                    let lift = lift_batch(shared, batch);
                    top += lift.top_rows();
                    ended |= ends(&lift, top);
                    lifts.push(lift);
                }
            }
            Err(error) => {
                lifts.push(Lift::failed(error));
                return ((None, lifts, true), true);
            }
        }
        if cursor.done() {
            return ((None, lifts, true), ended);
        }
        if !whole || ended {
            return ((Some(cursor), lifts, false), ended);
        }
    }
}

/// Take a source batch up the stages. An empty output stops it.
fn lift_batch(shared: &Shared, source: DataChunk) -> Lift {
    let (rows, top) = (vec![source.num_rows()], Some(source.clone()));
    let mut lift = Lift { source: Some(source), rows, top, error: None };
    for stage in &shared.stages {
        let Some(chunk) = lift.top.take().filter(|chunk| !chunk.is_empty()) else { break };
        match stage.apply(&chunk, &shared.ctx) {
            Ok(out) => {
                lift.rows.push(out.num_rows());
                lift.top = Some(out);
            }
            Err(error) => {
                lift.error = Some(error);
                break;
            }
        }
    }
    lift.top = lift.top.filter(|chunk| !chunk.is_empty());
    lift
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ExecOptions;
    use perm_algebra::{tuple, DataType, JoinKind, PlanBuilder, Schema, Tuple};
    use perm_storage::{Catalog, Relation};

    /// A drained join past the row budget runs about a budget's worth of join rows over all of
    /// its probe morsels — the rows up to the one over budget, and what other workers ran ahead
    /// meanwhile. Under a budget of 25 000, 20 probe morsels of 102 400 join rows each would run
    /// 20 budgets' worth if each morsel stopped only on its own output, and 20 of 10 240 rows
    /// each would run whole if the region stopped only on a morsel past the budget alone.
    #[test]
    fn a_join_past_the_budget_runs_about_a_budget_of_rows() {
        let schema = Schema::from_pairs(&[("k", DataType::Int)]);
        let scan = |name: &str, ref_id| PlanBuilder::scan(name, schema.clone(), ref_id);
        let key = |index| ScalarExpr::column(index, "k");
        let plan =
            scan("probe", 0).join(scan("build", 1), JoinKind::Inner, Some(key(0).eq(key(1))));
        let budget = 25_000;
        for build_rows in [100, 10] {
            let catalog = Catalog::new();
            for (name, rows) in [("probe", 20 * DEFAULT_CHUNK_SIZE), ("build", build_rows)] {
                let tuples: Vec<Tuple> = (0..rows).map(|_| tuple![1i64]).collect();
                let relation = Relation::from_parts(schema.clone(), tuples);
                catalog.create_table_with_data(name, relation).unwrap();
            }
            let options = ExecOptions::default().with_row_budget(budget);
            let executor = Executor::with_options(catalog, options);
            for workers in [1, 2, 4] {
                let pool = WorkerPool::new(workers);
                let mut cursor = executor.open(&plan.clone().build(), &pool).unwrap();
                while !cursor.finished {
                    cursor.pull(&pool, true);
                }
                assert!(matches!(cursor.error, Some(ExecError::RowBudgetExceeded { .. })));
                let ran = cursor.shared.ran[0].as_ref().unwrap().load(Ordering::Relaxed);
                let bound = 2 * budget + workers * DEFAULT_CHUNK_SIZE;
                assert!(
                    ran <= bound,
                    "{ran} join rows ran at degree {workers}, {build_rows} built"
                );
            }
        }
    }
}

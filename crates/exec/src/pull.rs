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
//! **One outcome, however it is pulled.** Every level of the region keeps the rule the
//! engine's materializing regions had: its output is taken in morsel order, chunk by chunk (a
//! join's morsel by morsel) until it covers the level's stop target — a `LIMIT`'s, carried down
//! as far as nothing filters — and it is charged against the row budget as it goes. An error
//! is the one a level-by-level evaluation meets first: the lowest level's, and within a level
//! the earliest morsel's. A level whose output is no longer wanted — the `LIMIT` is satisfied,
//! or a level above failed — is therefore still run to its stop target (its output dropped as
//! it comes), so that its own errors and budget are settled as if it had run first. Rows, row
//! order and errors do not depend on the degree or on how many rows each pull hands out.

use std::collections::VecDeque;
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
}

/// The bookkeeping of one level's output: level 0 is the source, level `i` is stage `i - 1`.
struct Level {
    /// The output rows that satisfy the level (a `LIMIT`'s target, or one row over budget for a
    /// join).
    stop: Option<usize>,
    /// Is the output charged against the row budget here? (A breaker's chunk list was charged
    /// when it was built; the projection under a DISTINCT is charged as the distinct rows.)
    charged: bool,
    produced: usize,
    /// A join's output of the morsels it has finished: a join stops at morsel boundaries.
    closed: usize,
    /// The profile slots of the operators whose output this level is.
    nodes: Vec<usize>,
}

impl Level {
    fn new(stop: Option<usize>, charged: bool, nodes: Vec<usize>) -> Level {
        Level { stop, charged, produced: 0, closed: 0, nodes }
    }
}

/// What one source chunk became on its way up the region.
struct Lift {
    /// Its rows at each level it reached, from the source up.
    rows: Vec<usize>,
    /// Its output at the top level, when it reached it.
    top: Option<DataChunk>,
    /// The error that stopped it at level `rows.len()`.
    error: Option<ExecError>,
}

/// A morsel claimed and not yet replayed to its end.
struct Morsel {
    index: usize,
    /// A join morsel's cursor between steps (`None` before its first step).
    cursor: Option<ProbeCursor>,
    lifts: VecDeque<Lift>,
    done: bool,
}

/// One task of a pull: a morsel and its cursor (none before its first step), stepped once or
/// to its end. A task that is not claimed leaves the cursor where it was.
type Work = (usize, Mutex<Option<ProbeCursor>>);

/// The unmatched build rows a right or full outer join pads once every morsel is probed.
enum Pads {
    Pending,
    Rows(Vec<u32>, usize),
    Done,
}

/// A plan's top region, pulled on demand ([`Executor::open`]).
///
/// [`ResultCursor::next_batch`] runs the next `workers` morsels — one step of each join morsel
/// — and returns their output in morsel order; [`ResultCursor::drain`] runs everything. The
/// cursor owns what its region reads (the join's build side and probe morsels, the breaker's
/// chunk list, the compiled expressions) and the statement's context: its row budget, deadline,
/// cancellation token, memory grant and profile sink.
pub struct ResultCursor {
    shared: Arc<Shared>,
    levels: Vec<Level>,
    /// Morsels claimed, in index order (contiguous from the oldest one not yet replayed).
    open: VecDeque<Morsel>,
    next: usize,
    total: usize,
    pads: Pads,
    /// The levels whose output is still wanted: an error at level `l` leaves `l`.
    live: usize,
    error: Option<ExecError>,
    /// `LIMIT`: rows still to skip and rows still wanted; the operators it stands for.
    skip: usize,
    remaining: Option<usize>,
    consumer: Vec<usize>,
    /// Chunks replayed to the consumer and not yet returned.
    ready: Vec<DataChunk>,
    /// When every morsel is claimed in one region, the level whose stop target ends it.
    gate: Option<usize>,
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
    /// Open the region at the top of `plan`, evaluating everything below it. `limit` is a row
    /// target from above (a sublink's decisive row count, say). With `distinct`, `plan` is a
    /// DISTINCT projection whose projection is the region's top level, uncharged.
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
                    consumer = Some((*offset, *n, std::mem::take(&mut nodes)));
                    hint = n.map(|n| n.saturating_add(*offset));
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
                    let level = Level::new(hint, !*d, std::mem::take(&mut nodes));
                    // A selection right below (aliases between are not executed) is the same
                    // stage; without one the projection maps row for row, so its input needs
                    // no more rows than its own target either.
                    match strip_transparent(input) {
                        LogicalPlan::Selection { input, predicate } => {
                            let predicate = Some(compile(predicate)?);
                            stages.push((Stage { predicate, exprs: Some(exprs) }, level));
                            hint = None;
                            node = input;
                        }
                        _ => {
                            stages.push((Stage { predicate: None, exprs: Some(exprs) }, level));
                            node = input;
                        }
                    }
                }
                LogicalPlan::Selection { input, predicate } => {
                    let predicate = Some(compile(predicate)?);
                    nodes.extend(ctx.profile_op(node).map(|(_, slot)| slot));
                    let level = Level::new(hint, true, std::mem::take(&mut nodes));
                    stages.push((Stage { predicate, exprs: None }, level));
                    hint = None;
                    node = input;
                }
                LogicalPlan::Join { left, right, kind, condition } => {
                    let stop = ctx.region_stop(hint);
                    let probe = exec.open_join(
                        node,
                        left,
                        right,
                        *kind,
                        condition.as_ref(),
                        ctx,
                        pool,
                        stop,
                    )?;
                    nodes.extend(ctx.profile_op(node).map(|(_, slot)| slot));
                    break (Source::Probe(Box::new(probe)), Level::new(stop, true, nodes));
                }
                _ => {
                    let chunks = exec.par_chunks(node, ctx, pool, hint)?;
                    break (Source::Chunks(chunks), Level::new(None, false, nodes));
                }
            }
        };
        let total = match &source {
            Source::Chunks(chunks) => chunks.len(),
            Source::Probe(probe) => probe.morsels(),
        };
        let probing = matches!(source, Source::Probe(_));
        let (stages, upper): (Vec<Stage>, Vec<Level>) = stages.into_iter().rev().unzip();
        let levels: Vec<Level> = std::iter::once(level0).chain(upper).collect();
        // Claiming every morsel in one region may stop at a level's target only when no level
        // below it must run to its end: each stage has a target, and so does a join source.
        let gate = match levels[1..].iter().all(|l| l.stop.is_some()) {
            true if probing => levels[0].stop.map(|_| 0),
            true => (levels.len() > 1).then_some(1),
            false => None,
        };
        let (skip, remaining, consumer) = consumer.unwrap_or((0, None, Vec::new()));
        let mut cursor = ResultCursor {
            shared: Arc::new(Shared { source, stages, ctx: ctx.clone() }),
            live: levels.len(),
            levels,
            open: VecDeque::new(),
            next: 0,
            total,
            pads: if probing { Pads::Pending } else { Pads::Done },
            error: None,
            skip,
            remaining,
            consumer,
            ready: Vec::new(),
            gate,
            finished: false,
        };
        cursor.finished = !cursor.wants_more();
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
    /// one region, as far as the stop targets allow.
    pub fn drain(mut self, pool: &WorkerPool) -> Result<Vec<DataChunk>, ExecError> {
        let mut out = std::mem::take(&mut self.ready);
        while !self.finished {
            self.pull(pool, true);
            out.append(&mut self.ready);
        }
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok(out),
        }
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
        self.finished = !self.wants_more();
        if self.finished {
            self.open.clear();
        }
        self.record_time(started);
    }

    fn step(&mut self, pool: &WorkerPool, whole: bool) {
        // A join that has met its target once the morsel being replayed ends needs no other.
        let level0 = &self.levels[0];
        let last = level0.stop.is_some_and(|stop| level0.produced >= stop);
        let width = match (last, whole) {
            (true, _) => 1,
            (false, true) => usize::MAX,
            (false, false) => pool.workers(),
        };
        let mut work: Vec<Work> = Vec::new();
        for morsel in self.open.iter_mut().filter(|m| !m.done && m.lifts.is_empty()) {
            if work.len() == width {
                break;
            }
            work.push((morsel.index, Mutex::new(morsel.cursor.take())));
        }
        while work.len() < width && self.next < self.total && !last && !self.level_stopped(0) {
            let index = self.next;
            self.open.push_back(Morsel {
                index,
                cursor: None,
                lifts: VecDeque::new(),
                done: false,
            });
            work.push((index, Mutex::new(None)));
            self.next += 1;
        }
        let work = Arc::new(work);
        let shared = self.shared.clone();
        let (live, gate) = (self.live, self.gate.filter(|_| whole));
        let stop_rows = gate.and_then(|g| {
            let level = &self.levels[g];
            let produced = if g == 0 { level.closed } else { level.produced };
            level.stop.map(|stop| stop.saturating_sub(produced))
        });
        let task_work = work.clone();
        let task = move |i: usize| {
            let (index, cursor) = &task_work[i];
            let cursor = lock_recovered(cursor).take();
            let (cursor, lifts, done) = run_morsel(&shared, *index, cursor, live, whole);
            let rows = gate.map_or(0, |g| lifts.iter().filter_map(|l| l.rows.get(g)).sum());
            Ok(((cursor, lifts, done), rows))
        };
        // A breaker's chunk list with nothing above it has nothing to compute.
        let slots: Vec<_> = match (&self.shared.source, self.shared.stages.is_empty()) {
            (Source::Chunks(_), true) => {
                (0..work.len()).map(|i| Some(task(i).map(|(stepped, _)| stepped))).collect()
            }
            _ => pool.run_region(work.len(), stop_rows, task),
        };
        let first = self.open.front().map_or(0, |m| m.index);
        for ((index, unclaimed), slot) in work.iter().zip(slots) {
            let morsel = &mut self.open[index - first];
            match slot {
                Some(Ok((cursor, lifts, done))) => {
                    morsel.cursor = cursor;
                    morsel.lifts.extend(lifts);
                    morsel.done = done;
                }
                // A panic the pool's fence caught: the morsel fails where its source does.
                Some(Err(error)) => {
                    morsel.lifts.push_back(Lift {
                        rows: Vec::new(),
                        top: None,
                        error: Some(error),
                    });
                    morsel.done = true;
                }
                // Not claimed: the region stopped before it.
                None => morsel.cursor = lock_recovered(unclaimed).take(),
            }
        }
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
            self.pads = match probe.unmatched() {
                Some(rows) if !self.level_stopped(0) => Pads::Rows(rows, 0),
                _ => Pads::Done,
            };
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
                Ok(()) => lift(&shared, probe.pad_build_rows(&batch), self.live),
                Err(error) => Lift { rows: Vec::new(), top: None, error: Some(error) },
            };
            self.replay(lift);
            if !whole || self.live == 0 {
                return;
            }
        }
    }

    /// Replay the claimed morsels' output in morsel order, as far as it is complete.
    fn replay_open(&mut self) {
        while let Some(front) = self.open.front_mut() {
            if let Some(lift) = front.lifts.pop_front() {
                self.replay(lift);
                continue;
            }
            if !front.done {
                break;
            }
            self.open.pop_front();
            self.levels[0].closed = self.levels[0].produced;
            if self.live == 0 || self.level_stopped(0) {
                self.open.clear();
                break;
            }
        }
    }

    /// Take one source chunk's way up the region into the bookkeeping: each level it reaches
    /// takes it unless the level has already met its target, and is charged for it; the consumer
    /// gets what reaches the top while every level is wanted.
    fn replay(&mut self, lift: Lift) {
        let mut level = 0;
        for &rows in &lift.rows {
            if level >= self.live || (level > 0 && self.level_stopped(level)) {
                return;
            }
            let l = &mut self.levels[level];
            l.produced += rows;
            if rows > 0 {
                if let Some(sink) = self.shared.ctx.profile() {
                    l.nodes.iter().for_each(|&slot| sink.add_output(slot, rows as u64, 1));
                }
            }
            if l.charged {
                if let Err(error) = self.shared.ctx.charge_count(l.produced) {
                    return self.fail(level, error);
                }
            }
            level += 1;
        }
        if let Some(error) = lift.error {
            if level < self.live && !(level > 0 && self.level_stopped(level)) {
                self.fail(level, error);
            }
            return;
        }
        if self.live == self.levels.len() {
            if let Some(top) = lift.top {
                self.consume(top);
            }
        }
    }

    /// Hand a top-level chunk to the consumer, through the `LIMIT` if there is one.
    fn consume(&mut self, mut chunk: DataChunk) {
        if self.remaining == Some(0) {
            return;
        }
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

    /// A level failed: the levels from it up are wanted no more, and the lowest failure wins.
    fn fail(&mut self, level: usize, error: ExecError) {
        if level < self.live {
            self.live = level;
            self.error = Some(error);
        }
    }

    /// Has `level` met its stop target? A join meets it at the end of a morsel.
    fn level_stopped(&self, level: usize) -> bool {
        let l = &self.levels[level];
        let produced = if level == 0 { l.closed } else { l.produced };
        l.stop.is_some_and(|stop| produced >= stop)
    }

    /// Is there a morsel left whose output some level still takes — for the consumer, or to
    /// settle a level's own errors and budget?
    fn wants_more(&self) -> bool {
        let exhausted =
            self.next == self.total && self.open.is_empty() && matches!(self.pads, Pads::Done);
        if self.live == 0 || exhausted || self.level_stopped(0) {
            return false;
        }
        // Levels below the lowest one that has met its target still take input.
        let frontier = (1..self.live).find(|&l| self.level_stopped(l)).unwrap_or(self.live);
        let consumer =
            self.live == self.levels.len() && frontier == self.live && self.remaining != Some(0);
        let probing = matches!(self.shared.source, Source::Probe(_));
        consumer || frontier > 1 || probing
    }

    /// Add the wall time since `started` to every operator of the region (times are inclusive).
    fn record_time(&self, started: Option<Instant>) {
        let (Some(started), Some(sink)) = (started, self.shared.ctx.profile()) else { return };
        let nanos = started.elapsed().as_nanos() as u64;
        let slots = self.levels.iter().flat_map(|l| &l.nodes).chain(&self.consumer);
        slots.for_each(|&slot| sink.add_nanos(slot, nanos));
    }
}

/// Run one morsel of a region: its chunk up the region, or its join probe one step — to the
/// morsel's end with `whole` — each batch up the region. Returns the cursor to resume (unless
/// the morsel is done), the lifts, and whether the morsel is done.
fn run_morsel(
    shared: &Shared,
    index: usize,
    cursor: Option<ProbeCursor>,
    live: usize,
    whole: bool,
) -> (Option<ProbeCursor>, Vec<Lift>, bool) {
    let probe = match &shared.source {
        Source::Chunks(chunks) => {
            return (None, vec![lift(shared, chunks[index].clone(), live)], true)
        }
        Source::Probe(probe) => probe,
    };
    let mut cursor = cursor.unwrap_or_else(|| ProbeCursor::new(probe, index));
    let mut lifts = Vec::new();
    loop {
        match cursor.step(probe, &shared.ctx) {
            Ok(batches) => lifts.extend(batches.into_iter().map(|b| lift(shared, b, live))),
            Err(error) => {
                lifts.push(Lift { rows: Vec::new(), top: None, error: Some(error) });
                return (None, lifts, true);
            }
        }
        if cursor.done() {
            return (None, lifts, true);
        }
        if !whole && !lifts.is_empty() {
            return (Some(cursor), lifts, false);
        }
    }
}

/// Take `chunk` from the source up the stages below level `live`. An empty output stops it.
fn lift(shared: &Shared, mut chunk: DataChunk, live: usize) -> Lift {
    let mut rows = Vec::with_capacity(shared.stages.len() + 1);
    rows.push(chunk.num_rows());
    for stage in shared.stages.iter().take(live.saturating_sub(1)) {
        if chunk.is_empty() {
            return Lift { rows, top: None, error: None };
        }
        match stage.apply(&chunk, &shared.ctx) {
            Ok(out) => {
                rows.push(out.num_rows());
                chunk = out;
            }
            Err(error) => return Lift { rows, top: None, error: Some(error) },
        }
    }
    let top = (rows.len() == shared.stages.len() + 1 && !chunk.is_empty()).then_some(chunk);
    Lift { rows, top, error: None }
}

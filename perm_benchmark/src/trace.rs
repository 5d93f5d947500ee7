//! The in-process passes: an untraced `Session` pass (the denominator) and the traced pass,
//! which replays the same operations with a span around the public entry point of each layer.
//! The caller runs the two side by side, operation by operation and swapping which goes first,
//! so that neither is measured on a warmer machine than the other.
//!
//! Spans are recorded from this file, not from inside the program: each layer is entered
//! through the same public function the serving path calls (`parse_statement`,
//! `Analyzer::analyze_statement` with a [`TracingRewriter`], `Engine::optimize_plan`,
//! `Engine::run_plan_streaming`, `codec::encode_chunk` / `decode_chunk`), so the pass costs what
//! `Session::execute_streaming` plus the server's encoder and the client's decoder cost.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use perm_algebra::{DataChunk, LogicalPlan, Value};
use perm_core::ProvenanceRewriter;
use perm_exec::ExecOptions;
use perm_service::{codec, normalize_sql, Engine, PreparedPlan, Session};
use perm_sql::{AnalyzedStatement, ProvenanceRewrite, SqlError};
use perm_storage::Relation;

use crate::workload::{Generator, Op, OpKind};
use crate::Res;

/// Span names: the root, then one per layer entry point.
pub mod name {
    pub const OP: &str = "op";
    pub const LOOKUP: &str = "service.plan_lookup";
    pub const PARSE: &str = "sql.parse";
    pub const ANALYZE: &str = "sql.analyze";
    pub const REWRITE: &str = "core.rewrite";
    pub const OPTIMIZE: &str = "exec.optimize";
    pub const EXECUTE: &str = "exec.execute";
    pub const COMMIT: &str = "storage.commit";
    pub const ENCODE: &str = "service.encode";
    pub const DECODE: &str = "service.decode";
}

/// One span: which operation it belongs to, what caused it, and when it ran (nanoseconds since
/// the recorder was created).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub op: u32,
    pub name: &'static str,
    /// Index of the parent span in the recorder; `None` for an operation's root.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans kept in memory until the pass ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { epoch: Instant::now(), spans: Vec::new() }
    }

    fn since_epoch(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span now; [`close`](Recorder::close) it with the returned index.
    pub fn open(&mut self, op: u32, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.since_epoch(Instant::now());
        self.spans.push(Span { op, name, parent, start_ns: now, end_ns: now });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.since_epoch(Instant::now());
    }

    /// Record a span whose instants were taken elsewhere (the rewriter runs inside `analyze`).
    fn add(&mut self, op: u32, name: &'static str, parent: usize, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.since_epoch(start), self.since_epoch(end));
        self.spans.push(Span { op, name, parent: Some(parent), start_ns, end_ns });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the durations of its direct children.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Write one JSON object per span: `{op, name, parent, start_ns, end_ns}`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"op\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
            span.op, span.name, span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}

/// One call of the provenance rewriter, timed where it runs.
#[derive(Debug, Clone, Copy)]
struct RewriteCall {
    start: Instant,
    end: Instant,
    nodes_before: usize,
    nodes_after: usize,
}

/// The benchmark-owned rewriter the issue asks for: delegates to `ProvenanceRewriter` and
/// notes when each call ran and how much it grew the plan.
#[derive(Debug, Default)]
pub struct TracingRewriter {
    inner: ProvenanceRewriter,
    calls: Mutex<Vec<RewriteCall>>,
}

impl ProvenanceRewrite for TracingRewriter {
    fn rewrite_provenance(&self, plan: &LogicalPlan) -> Result<LogicalPlan, SqlError> {
        let start = Instant::now();
        let rewritten = self.inner.rewrite_provenance(plan)?;
        let end = Instant::now();
        let call = RewriteCall {
            start,
            end,
            nodes_before: plan.node_count(),
            nodes_after: rewritten.node_count(),
        };
        // A poisoned lock only means another traced op panicked; the notes are still valid.
        self.calls.lock().unwrap_or_else(|e| e.into_inner()).push(call);
        Ok(rewritten)
    }
}

impl TracingRewriter {
    fn take_calls(&self) -> Vec<RewriteCall> {
        std::mem::take(&mut *self.calls.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// Capacity of the traced pass's plan map; the engine's default plan-cache capacity.
const PLAN_CACHE_CAPACITY: usize = 128;

/// Counts the traced pass takes at the layer boundaries.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub ops: u64,
    pub rows: u64,
    pub frames: u64,
    pub wire_bytes: u64,
    /// Plan nodes after / before, one entry per rewriter call.
    pub node_growth: Vec<f64>,
}

/// Replays operations in process with a span around each layer.
pub struct Tracer<'a> {
    engine: &'a Arc<Engine>,
    rewriter: Arc<TracingRewriter>,
    /// Mirrors `Engine::plan_query`: normalized text to (catalog version, plan). Pools fit and
    /// cold texts never repeat, so what is evicted when it fills does not matter.
    plans: HashMap<String, (u64, Arc<PreparedPlan>)>,
    prepared: HashMap<String, Arc<PreparedPlan>>,
    pub recorder: Recorder,
    pub counts: Counts,
}

impl<'a> Tracer<'a> {
    /// A tracer with `generator`'s statements prepared and its pool warmed; nothing of that is
    /// kept in the recorder.
    pub fn new(engine: &'a Arc<Engine>, generator: &Generator) -> Res<Tracer<'a>> {
        let mut tracer = Tracer {
            engine,
            rewriter: Arc::new(TracingRewriter::default()),
            plans: HashMap::new(),
            prepared: HashMap::new(),
            recorder: Recorder::new(),
            counts: Counts::default(),
        };
        let root = tracer.recorder.open(0, name::OP, None);
        for statement in generator.prepared() {
            let plan = tracer.compile(0, root, &statement.sql)?;
            tracer.prepared.insert(statement.name.clone(), plan);
        }
        for op in generator.warm_pool() {
            tracer.run(0, &op)?;
        }
        tracer.recorder = Recorder::new();
        tracer.counts = Counts::default();
        Ok(tracer)
    }

    /// parse, analyze (rewrite inside), optimize: what `Engine::plan_query` does on a miss.
    fn compile(&mut self, op: u32, root: usize, sql: &str) -> Res<Arc<PreparedPlan>> {
        let span = self.recorder.open(op, name::PARSE, Some(root));
        let statement = perm_sql::parse_statement(sql).map_err(|e| format!("parse: {e}"))?;
        self.recorder.close(span);

        let span = self.recorder.open(op, name::ANALYZE, Some(root));
        let analyzer = perm_sql::Analyzer::new(self.engine.catalog().clone())
            .with_rewriter(self.rewriter.clone());
        let analyzed =
            analyzer.analyze_statement(&statement).map_err(|e| format!("analyze: {e}"))?;
        let AnalyzedStatement::Query { plan, into } = analyzed else {
            return Err(format!("not a query: {sql}"));
        };
        plan.verify().map_err(|e| format!("verify: {e}"))?;
        self.recorder.close(span);
        for call in self.rewriter.take_calls() {
            self.recorder.add(op, name::REWRITE, span, call.start, call.end);
            self.counts.node_growth.push(call.nodes_after as f64 / call.nodes_before.max(1) as f64);
        }

        let span = self.recorder.open(op, name::OPTIMIZE, Some(root));
        let plan = self.engine.optimize_plan(&plan).map_err(|e| format!("optimize: {e}"))?;
        self.recorder.close(span);
        let param_count = plan.max_parameter().map_or(0, |max| max + 1);
        Ok(Arc::new(PreparedPlan { plan, into, param_count, sql: sql.to_string() }))
    }

    /// One operation: plan (looked up or compiled), execute, commit an `INTO`, encode, decode.
    pub fn run(&mut self, op_index: u32, op: &Op) -> Res<()> {
        let root = self.recorder.open(op_index, name::OP, None);
        let (plan, params) = match &op.kind {
            OpKind::Exec { name, param } => {
                let plan = self.prepared.get(name).ok_or(format!("{name} is not prepared"))?;
                (plan.clone(), vec![Value::Int(*param)])
            }
            OpKind::Query | OpKind::Write => {
                let span = self.recorder.open(op_index, name::LOOKUP, Some(root));
                let key = normalize_sql(&op.sql);
                let version = self.engine.catalog().version();
                let hit =
                    self.plans.get(&key).filter(|(v, _)| *v == version).map(|(_, p)| p.clone());
                self.recorder.close(span);
                let plan = match hit {
                    Some(plan) => plan,
                    None => {
                        let plan = self.compile(op_index, root, &op.sql)?;
                        if self.plans.len() >= PLAN_CACHE_CAPACITY {
                            self.plans.clear();
                        }
                        self.plans.insert(key, (version, plan.clone()));
                        plan
                    }
                };
                (plan, Vec::new())
            }
        };

        let span = self.recorder.open(op_index, name::EXECUTE, Some(root));
        let mut stream = self
            .engine
            .run_plan_streaming(plan.clone(), ExecOptions::default(), params)
            .map_err(|e| format!("execute: {e}"))?;
        let schema = stream.schema().clone();
        let chunks = drain(&mut stream)?;
        drop(stream);
        self.recorder.close(span);

        if let Some(target) = &plan.into {
            let stored = Relation::from_chunks(schema, chunks.clone());
            let span = self.recorder.open(op_index, name::COMMIT, Some(root));
            self.engine.catalog().overwrite(target, stored).map_err(|e| format!("commit: {e}"))?;
            self.recorder.close(span);
        }

        let span = self.recorder.open(op_index, name::ENCODE, Some(root));
        let frames: Vec<Vec<u8>> = chunks.iter().map(codec::encode_chunk).collect();
        self.recorder.close(span);

        let span = self.recorder.open(op_index, name::DECODE, Some(root));
        for frame in &frames {
            // The client strips the tag byte before decoding the body.
            let decoded = codec::decode_chunk(&frame[1..]).map_err(|e| format!("decode: {e}"))?;
            std::hint::black_box(decoded);
        }
        self.recorder.close(span);
        self.recorder.close(root);

        self.counts.ops += 1;
        self.counts.rows += chunks.iter().map(|c| c.num_rows() as u64).sum::<u64>();
        self.counts.frames += frames.len() as u64;
        self.counts.wire_bytes += frames.iter().map(|f| f.len() as u64).sum::<u64>();
        Ok(())
    }
}

fn drain(stream: &mut perm_service::QueryStream) -> Res<Vec<DataChunk>> {
    let mut chunks = Vec::new();
    while let Some(chunk) = stream.next_chunk() {
        chunks.push(chunk.map_err(|e| format!("execute: {e}"))?);
    }
    Ok(chunks)
}

/// The untraced in-process pass: each operation through `Session::execute_streaming` (or
/// `execute_prepared_streaming`), drained; what the server's connection thread does per request
/// before any byte is written.
pub struct SessionPass {
    session: Session,
}

impl SessionPass {
    /// A session with `generator`'s statements prepared and its pool warmed.
    pub fn new(engine: &Arc<Engine>, generator: &Generator) -> Res<SessionPass> {
        let mut session = engine.session();
        for statement in generator.prepared() {
            session
                .prepare(&statement.name, &statement.sql)
                .map_err(|e| format!("prepare: {e}"))?;
        }
        let pass = SessionPass { session };
        for op in generator.warm_pool() {
            pass.run(&op)?;
        }
        Ok(pass)
    }

    /// Run one operation; returns the microseconds it took.
    pub fn run(&self, op: &Op) -> Res<f64> {
        let start = Instant::now();
        let mut stream = match &op.kind {
            OpKind::Exec { name, param } => {
                self.session.execute_prepared_streaming(name, vec![Value::Int(*param)])
            }
            OpKind::Query | OpKind::Write => self.session.execute_streaming(&op.sql),
        }
        .map_err(|e| format!("session: {e}: {}", op.sql))?;
        std::hint::black_box(drain(&mut stream)?);
        drop(stream);
        Ok(start.elapsed().as_secs_f64() * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { op: 0, name, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(name::OP, None, 0, 1000),
            span(name::PARSE, Some(0), 10, 110),
            span(name::ANALYZE, Some(0), 110, 610),
            span(name::REWRITE, Some(2), 200, 500),
            span(name::REWRITE, Some(2), 500, 550),
            span(name::EXECUTE, Some(0), 610, 900),
        ];
        let own = self_times_ns(&spans);
        // root: 1000 - (100 + 500 + 290); the rewrites are the analyzer's children, not its.
        assert_eq!(own[0], 110);
        assert_eq!(own[1], 100);
        assert_eq!(own[2], 500 - 300 - 50, "analyze keeps what its two rewrite calls leave");
        assert_eq!(own[3], 300);
        assert_eq!(own[5], 290);
        assert_eq!(
            own.iter().sum::<u64>(),
            spans[0].duration_ns(),
            "self times partition the root"
        );
    }

    #[test]
    fn recorder_nests_spans_under_their_parent() {
        let mut recorder = Recorder::new();
        let root = recorder.open(7, name::OP, None);
        let child = recorder.open(7, name::EXECUTE, Some(root));
        recorder.close(child);
        recorder.close(root);
        let spans = recorder.spans();
        assert_eq!(spans[child].parent, Some(root));
        assert!(spans[root].start_ns <= spans[child].start_ns);
        assert!(spans[child].end_ns <= spans[root].end_ns);
        assert_eq!(spans[root].op, 7);
    }
}

//! `perm_benchmark` — the repository's benchmark.
//!
//! One invocation runs one workload in a fresh process: it generates the seeded statements,
//! serves an in-process engine over loopback, drives it with the shipped `Client`, checks every
//! result against the reference evaluator, and prints the metrics `BENCHMARK.json` names as
//! the last line of standard output. `--trace 0` prints the end-to-end metrics (measured
//! untraced, over the wire); `--trace 1` prints the per-layer metrics (the wire run's public
//! counters plus an in-process traced pass). See `README.md` beside this package.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod spec;
mod stats;
mod trace;
mod wire;
mod workload;

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use perm_service::Engine;
use perm_sql::AnalyzedStatement;

use stats::{median, nearest_rank, percentile, sorted, Digest};
use wire::Write;
use workload::{Generator, Op, OpKind, Workload};

/// Failures are reported as text and end the run; nothing here is recoverable.
pub type Res<T> = Result<T, String>;

/// Set-up runs this many times per invocation and `setup_s` is the median.
const SETUPS: usize = 3;
/// `compile_cold` texts are all distinct, so the oracle checks one measured operation in this
/// many (and at most [`COLD_CHECKS`]) against its own reference result.
const COLD_CHECK_EVERY: usize = 16;
const COLD_CHECKS: usize = 256;

const USAGE: &str = "usage: perm_benchmark --workload <name> [--seed <n>] [--seconds <n>] \
                     [--trace <0|1>] | --list";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Res<Option<Args>> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = spec::RUN_SECONDS;
    let mut trace = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if flag == "--list" {
            return Ok(None);
        }
        let value = iter.next().ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(
                    Workload::from_name(value)
                        .ok_or(format!("unknown workload {value}; one of {}", names.join(", ")))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or(USAGE.to_string())?;
    Ok(Some(Args { workload, seed, seconds, trace }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", spec::list_json());
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            eprint!("{}", report.table);
            println!("{}", report.json);
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("perm_benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

struct Report {
    /// Human-readable table, for standard error.
    table: String,
    /// The result line, for standard output.
    json: String,
    failed: u64,
}

/// Computes what a statement must return: row count and digest of `execute_reference`.
///
/// The reference evaluator joins by nested loops, so it runs on the *optimized* plan: the
/// un-optimized six-leaf SPJ plans are cross products of up to 100^6 rows. The oracle therefore
/// checks the executor, plan cache, parameter binding, codec and wire framing against an
/// independent evaluator, and leaves the optimizer to the repository's own differential tests.
struct Oracle<'a> {
    engine: &'a Engine,
    memo: HashMap<String, Digest>,
}

impl Oracle<'_> {
    fn expected(&mut self, sql: &str) -> Res<Digest> {
        if let Some(known) = self.memo.get(sql) {
            return Ok(*known);
        }
        let analyzed =
            self.engine.analyzer().analyze_sql(sql).map_err(|e| format!("oracle: {e}: {sql}"))?;
        let AnalyzedStatement::Query { plan, .. } = analyzed else {
            return Err(format!("oracle: not a query: {sql}"));
        };
        let plan = self.engine.optimize_plan(&plan).map_err(|e| format!("oracle: {e}: {sql}"))?;
        let result = perm_exec::execute_reference(self.engine.catalog(), &plan)
            .map_err(|e| format!("oracle: {e}: {sql}"))?;
        let digest = Digest::of_chunks(result.chunks().iter());
        self.memo.insert(sql.to_string(), digest);
        Ok(digest)
    }
}

/// One measured closed-loop operation joined with the statement that produced it.
struct Measured {
    op: Op,
    primary: bool,
    reply: wire::Reply,
}

/// Everything the wire run produced.
struct WireRun {
    reader: wire::ClosedLoop,
    writes: Vec<Write>,
    peak_rss_mb: f64,
    engine: Arc<Engine>,
    setup_seconds: f64,
}

/// Set up, drive the workload over the wire for `args.seconds`, read the peak memory and shut
/// the server down. `mixed_rw` runs its open-loop writer beside the closed-loop reader.
fn wire_run(args: &Args, generator: &Generator) -> Res<WireRun> {
    let window = Duration::from_secs(args.seconds);
    let (mut served, setup_seconds) = wire::set_up(generator)?;
    let engine = served.engine.clone();
    let (reader, writes) = if args.workload == Workload::MixedRw {
        let (reader_client, writer_client) = served.clients.split_at_mut(1);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let writer =
                scope.spawn(|| wire::open_loop_writer(&mut writer_client[0], generator, &stop));
            let reader = wire::closed_loop(&mut reader_client[0], generator, &engine, window);
            stop.store(true, Ordering::SeqCst);
            let writes = writer.join().map_err(|_| "writer thread panicked".to_string())??;
            Ok::<_, String>((reader?, writes))
        })?
    } else {
        (wire::closed_loop(&mut served.clients[0], generator, &engine, window)?, Vec::new())
    };
    let peak_rss_mb = wire::peak_rss_mb()?;
    let engine = served.shut_down();
    Ok(WireRun { reader, writes, peak_rss_mb, engine, setup_seconds })
}

fn run(args: &Args) -> Res<Report> {
    let generator = Generator::new(args.workload, args.seed);
    let WireRun { mut reader, writes, peak_rss_mb, engine, setup_seconds: first_setup } =
        wire_run(args, &generator)?;

    // Join samples with their statements; blocks are regenerated, not stored.
    let mut measured = Vec::with_capacity(reader.samples.len());
    let mut block = (u64::MAX, Vec::new());
    for sample in std::mem::take(&mut reader.samples) {
        if block.0 != sample.block {
            block = (sample.block, generator.block(sample.block));
        }
        let op = block.1[sample.position].clone();
        let primary = generator.is_primary(&op);
        measured.push(Measured { op, primary, reply: sample.reply });
    }
    // Only writes that were due inside the reader's measured window count.
    let writes: Vec<&Write> =
        writes.iter().filter(|w| w.due >= reader.started && w.due <= reader.ended).collect();

    let mut oracle = Oracle { engine: &engine, memo: HashMap::new() };
    let failed_reads = check_reads(&generator, &measured, &mut oracle)?;
    let failed_writes = check_writes(&generator, &writes, &mut oracle)?;
    let attempted = (measured.len() + writes.len()) as u64;
    let failed = failed_reads + failed_writes;

    let seconds = reader.ended.duration_since(reader.started).as_secs_f64();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let latencies = |keep: &dyn Fn(&Measured) -> bool| -> Vec<f64> {
        sorted(measured.iter().filter(|m| keep(m)).map(|m| ms(m.reply.latency)).collect())
    };
    let primary = latencies(&|m| m.primary);
    let latency_p50_ms = nearest_rank(&primary, 0.5);
    let latency_p90_ms = nearest_rank(&primary, 0.9);
    // The median block's rate, not ops / window: every block is the same work, and one stall of
    // the machine then costs one block its rate instead of shifting the whole run's.
    let block_rates =
        reader.block_seconds.iter().map(|seconds| generator.block_len() as f64 / seconds).collect();
    let qps = median(block_rates);

    let mut table = format!(
        "perm_benchmark  workload={}  seed={}  window={seconds:.3}s  cores={}\n",
        args.workload.name(),
        args.seed,
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let mut line = |name: &str, value: f64, unit: &str, note: &str| {
        table.push_str(&format!("  {name:<34} {value:>14.4} {unit:<6} {note}\n"));
    };
    let blocks = format!("median of {} blocks, {} ops", reader.block_seconds.len(), measured.len());
    line("qps", qps, "ops/s", &blocks);
    line("latency_p50_ms", latency_p50_ms, "ms", &format!("{} primary samples", primary.len()));
    let undersampled = if percentile(&primary, 0.9).is_none() {
        "not gated; fewer than 10 samples beyond it"
    } else {
        "not gated"
    };
    line("latency_p90_ms", latency_p90_ms, "ms", undersampled);
    if let Some(p99) = percentile(&primary, 0.99) {
        line("latency_p99_ms", p99, "ms", "not gated");
    }
    line(
        "failed_share",
        failed as f64 / attempted as f64,
        "ratio",
        &format!("{failed} of {attempted}"),
    );
    line("peak_rss_mb", peak_rss_mb, "MB", "VmHWM, client and server");
    let first_byte =
        sorted(measured.iter().filter(|m| m.primary).map(|m| ms(m.reply.first_byte)).collect());
    line("ttfb_p50_ms", nearest_rank(&first_byte, 0.5), "ms", "not gated");
    let provenance = nearest_rank(&latencies(&|m| m.op.provenance), 0.5);
    let normal = nearest_rank(&latencies(&|m| !m.op.provenance), 0.5);
    line("p50_ms provenance ops", provenance, "ms", "");
    line("p50_ms normal ops", normal, "ms", "");
    if normal > 0.0 {
        line("prov_overhead_ratio", provenance / normal, "ratio", "not gated");
    }
    line(
        "p50_ms query ops",
        nearest_rank(&latencies(&|m| m.op.kind == OpKind::Query), 0.5),
        "ms",
        "",
    );
    let execs = latencies(&|m| matches!(m.op.kind, OpKind::Exec { .. }));
    if !execs.is_empty() {
        line("p50_ms exec ops", nearest_rank(&execs, 0.5), "ms", "");
    }
    if !writes.is_empty() {
        let from_due = sorted(writes.iter().map(|w| ms(w.latency)).collect());
        line("p50_ms writes (from due)", nearest_rank(&from_due, 0.5), "ms", "open loop");
        line("write max (from due)", nearest_rank(&from_due, 1.0), "ms", "");
        let late = writes.iter().filter(|w| w.late).count();
        line("late writes", late as f64, "count", "finished after their slot; not failures");
        let lateness = sorted(writes.iter().map(|w| ms(w.generator_lateness)).collect());
        line("generator lateness max", nearest_rank(&lateness, 1.0), "ms", "");
    }

    let metrics: Vec<(&str, f64)> = if args.trace {
        let counters = WireCounters {
            latency_p50_us: latency_p50_ms * 1e3,
            seconds,
            before: reader.before,
            after: reader.after,
        };
        per_layer(args, &engine, &generator, &counters, &mut line)?
    } else {
        let mut setups = vec![first_setup];
        while setups.len() < SETUPS {
            let (served, seconds) = wire::set_up(&generator)?;
            served.shut_down();
            setups.push(seconds);
        }
        let note = format!("median of {setups:.3?}");
        let setup_s = median(setups);
        line("setup_s", setup_s, "s", &note);
        vec![
            ("qps", qps),
            ("latency_p50_ms", latency_p50_ms),
            ("setup_s", setup_s),
            ("peak_rss_mb", peak_rss_mb),
        ]
    };

    let rendered: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}", unit_of(name))
        })
        .collect();
    let json = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        rendered.join(", ")
    );
    Ok(Report { table, json, failed })
}

fn unit_of(name: &str) -> &'static str {
    let end_to_end = spec::END_TO_END.iter().map(|m| (m.name, m.unit));
    let per_layer = spec::PER_LAYER.iter().map(|m| (m.name, m.unit));
    end_to_end.chain(per_layer).find(|(n, _)| *n == name).map_or("", |(_, unit)| unit)
}

/// Why a reply is wrong, if it is: an error frame, a `D` row count that disagrees with the
/// decoded rows, or (when `compare`) a result that differs from the reference evaluator's.
fn fault(
    reply: &wire::Reply,
    sql: &str,
    compare: bool,
    oracle: &mut Oracle,
) -> Res<Option<String>> {
    Ok(match &reply.error {
        Some(message) => Some(format!("error frame: {message}")),
        None if reply.done_rows != reply.digest.rows => {
            Some(format!("D frame says {} rows, {} decoded", reply.done_rows, reply.digest.rows))
        }
        None if compare && oracle.expected(sql)? != reply.digest => {
            Some(format!("result differs from the reference ({:?})", reply.digest))
        }
        None => None,
    })
}

/// Count closed-loop operations that failed.
fn check_reads(generator: &Generator, measured: &[Measured], oracle: &mut Oracle) -> Res<u64> {
    let mut failed = 0;
    for (i, m) in measured.iter().enumerate() {
        let compare = generator.workload().cached()
            || (i % COLD_CHECK_EVERY == 0 && i / COLD_CHECK_EVERY < COLD_CHECKS);
        if let Some(why) = fault(&m.reply, &m.op.sql, compare, oracle)? {
            failed += 1;
            eprintln!("FAILED {}: {why}", m.op.request());
        }
    }
    Ok(failed)
}

/// Count writes that failed. A write that finishes after its 200 ms slot is reported as late
/// but is not a failure: at this commit a write is one or two 44-88 ms delayed-ACK waits, an
/// occasional one takes three, and a workload may hold no operation that fails by chance.
fn check_writes(generator: &Generator, writes: &[&Write], oracle: &mut Oracle) -> Res<u64> {
    let mut failed = 0;
    for write in writes {
        let sql = generator.write_op(write.index).sql;
        if let Some(why) = fault(&write.reply, &sql, true, oracle)? {
            failed += 1;
            eprintln!("FAILED write {}: {why}", write.index);
        }
    }
    Ok(failed)
}

/// What the per-layer metrics need from the wire run.
struct WireCounters {
    latency_p50_us: f64,
    seconds: f64,
    before: wire::Counters,
    after: wire::Counters,
}

/// The in-process passes and the per-layer metrics, in `spec::PER_LAYER` order.
fn per_layer(
    args: &Args,
    engine: &Arc<Engine>,
    generator: &Generator,
    wire: &WireCounters,
    line: &mut dyn FnMut(&str, f64, &str, &str),
) -> Res<Vec<(&'static str, f64)>> {
    let ops = generator.replay(args.workload.traced_ops());
    // The wire run left the cache in whatever state it ended in; both passes start from the
    // workload's own warm pool instead.
    engine.clear_plan_cache();
    let session = trace::SessionPass::new(engine, generator)?;
    let mut tracer = trace::Tracer::new(engine, generator)?;
    let mut session_us = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        if i % 2 == 0 {
            session_us.push(session.run(op)?);
            tracer.run(i as u32, op)?;
        } else {
            tracer.run(i as u32, op)?;
            session_us.push(session.run(op)?);
        }
    }
    let spans = tracer.recorder.spans();
    let own = trace::self_times_ns(spans);

    // Per operation: self time of each layer, and the part a `Session` would also have run.
    let mut layer_us: HashMap<&str, HashMap<u32, f64>> = HashMap::new();
    let mut session_part_ns = 0u64;
    for (span, own_ns) in spans.iter().zip(&own) {
        *layer_us.entry(span.name).or_default().entry(span.op).or_default() += *own_ns as f64 / 1e3;
        match span.name {
            trace::name::OP => session_part_ns += span.duration_ns(),
            trace::name::ENCODE | trace::name::DECODE => {
                session_part_ns = session_part_ns.saturating_sub(span.duration_ns())
            }
            _ => {}
        }
    }
    let session_total_us: f64 = session_us.iter().sum();
    let mut layer = |metric: &'static str, span: &str| -> (&'static str, f64) {
        let per_op: Vec<f64> =
            layer_us.get(span).map(|ops| ops.values().copied().collect()).unwrap_or_default();
        let total = per_op.iter().fold(0.0, |sum, us| sum + us);
        let share = 100.0 * total / session_total_us;
        let note = format!("{} ops, {share:.1} % of service.session_us", per_op.len());
        let value = median(per_op);
        line(metric, value, "us", &note);
        (metric, value)
    };

    let parse = layer("sql.parse_us", trace::name::PARSE);
    let analyze = layer("sql.analyze_us", trace::name::ANALYZE);
    let rewrite = layer("core.rewrite_us", trace::name::REWRITE);
    let optimize = layer("exec.optimize_us", trace::name::OPTIMIZE);
    let execute = layer("exec.execute_us", trace::name::EXECUTE);
    let encode = layer("service.encode_us", trace::name::ENCODE);
    let decode = layer("service.decode_us", trace::name::DECODE);
    let commit = layer("storage.commit_us", trace::name::COMMIT);

    let counts = &tracer.counts;
    let per = |total: u64, of: u64| if of == 0 { 0.0 } else { total as f64 / of as f64 };
    let cache = (wire.after.cache, wire.before.cache);
    let lookups = (cache.0.hits - cache.1.hits) + (cache.0.misses - cache.1.misses);
    let primary_session_us: Vec<f64> = ops
        .iter()
        .zip(&session_us)
        .filter(|(op, _)| generator.is_primary(op))
        .map(|(_, us)| *us)
        .collect();
    let session_p50 = median(primary_session_us);
    let rest = [
        ("core.rewrite_node_growth", median(counts.node_growth.clone())),
        ("exec.rows_out_per_op", per(counts.rows, counts.ops)),
        ("service.wire_bytes_per_row", per(counts.wire_bytes, counts.rows)),
        ("service.frames_per_op", per(counts.frames, counts.ops)),
        ("service.cache_hit_ratio", per(cache.0.hits - cache.1.hits, lookups)),
        (
            "service.cache_invalidations_per_s",
            (cache.0.invalidations - cache.1.invalidations) as f64 / wire.seconds,
        ),
        ("service.session_us", session_p50),
        ("service.wire_gap_us", wire.latency_p50_us - session_p50),
        (
            "storage.version_bumps",
            (wire.after.catalog_version - wire.before.catalog_version) as f64,
        ),
        ("trace_overhead_ratio", session_part_ns as f64 / 1e3 / session_total_us),
    ];
    for (name, value) in rest {
        line(name, value, unit_of(name), "");
    }

    let file = trace_file(args)?;
    trace::write_jsonl(&file, spans).map_err(|e| format!("{}: {e}", file.display()))?;
    line("spans", spans.len() as f64, "count", &format!("{} ops -> {}", ops.len(), file.display()));

    let by_name: HashMap<&str, f64> =
        [parse, analyze, rewrite, optimize, execute, encode, decode, commit]
            .into_iter()
            .chain(rest)
            .collect();
    spec::PER_LAYER
        .iter()
        .map(|m| {
            by_name.get(m.name).map(|v| (m.name, *v)).ok_or(format!("{} was not measured", m.name))
        })
        .collect()
}

/// `<directory of this executable>/perm_benchmark_trace/trace-<workload>-<seed>.jsonl`: inside
/// the build directory, which every checkout ignores.
fn trace_file(args: &Args) -> Res<std::path::PathBuf> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("the executable has no directory")?;
    Ok(dir.join("perm_benchmark_trace").join(format!(
        "trace-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    )))
}

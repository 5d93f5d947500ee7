//! The wire run: set-up of an in-process `perm_service::serve` engine, and the closed-loop and
//! open-loop load generators that drive it over loopback with the shipped `Client`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use perm_core::ProvenanceRewriter;
use perm_service::shell::ResponseFrame;
use perm_service::{serve, CacheStats, Client, Engine, ServerHandle};
use perm_tpch::{generate_catalog, TpchScale};

use crate::stats::Digest;
use crate::workload::{Generator, Op, Workload, CATALOG_SEED, WRITE_INTERVAL_MS};
use crate::Res;

/// Engine worker threads (the sandbox has two cores).
pub const WORKERS: usize = 2;
/// Whole blocks are sent untimed for at least this long before the measured window opens.
pub const WARM_UP: Duration = Duration::from_millis(1500);

/// A served engine with its connected clients: everything set-up builds.
pub struct Served {
    pub engine: Arc<Engine>,
    handle: ServerHandle,
    /// One connection per client thread: the reader first, then `mixed_rw`'s writer.
    pub clients: Vec<Client>,
}

impl Served {
    /// Close the connections, stop the server and hand back the engine.
    pub fn shut_down(self) -> Arc<Engine> {
        drop(self.clients);
        self.handle.shutdown();
        self.engine
    }
}

/// Everything between process start and the first measured operation: generate the
/// catalog, `analyze()`, build the engine, `serve`, connect, `prepare`, and one warm pass over
/// the workload's statement pool. Returns the served engine and the seconds it took.
pub fn set_up(generator: &Generator) -> Res<(Served, f64)> {
    let start = Instant::now();
    let catalog = generate_catalog(TpchScale::small(), CATALOG_SEED);
    catalog.analyze();
    let engine = Arc::new(
        Engine::with_catalog(catalog)
            .with_rewriter(Arc::new(ProvenanceRewriter::new()))
            .with_workers(WORKERS),
    );
    let handle = serve(engine.clone(), "127.0.0.1:0").map_err(|e| format!("serve: {e}"))?;
    let connections = if generator.workload() == Workload::MixedRw { 2 } else { 1 };
    let mut clients = Vec::with_capacity(connections);
    for _ in 0..connections {
        clients.push(Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?);
    }
    let reader = &mut clients[0];
    for statement in generator.prepared() {
        let request = format!("prepare {} {}", statement.name, statement.sql);
        match reader.roundtrip(&request).map_err(|e| format!("prepare: {e}"))? {
            Ok(_) => {}
            Err(message) => return Err(format!("prepare {} refused: {message}", statement.name)),
        }
    }
    for op in generator.warm_pool() {
        send_op(reader, &op)?.into_result().map_err(|e| format!("warm pass: {e}: {}", op.sql))?;
    }
    if let Some(writer) = clients.get_mut(1) {
        send_op(writer, &generator.write_op(0))?.into_result()?;
    }
    let seconds = start.elapsed().as_secs_f64();
    Ok((Served { engine, handle, clients }, seconds))
}

/// The outcome of one request, as the client saw it.
#[derive(Debug, Clone)]
pub struct Reply {
    /// `Client::send` to the `D` (or `-`) frame decoded.
    pub latency: Duration,
    /// `Client::send` to the `S` frame decoded.
    pub first_byte: Duration,
    /// Row count and digest of the decoded `R` frames.
    pub digest: Digest,
    /// Row count the `D` frame reported.
    pub done_rows: u64,
    /// Text of a `-` frame, or of a protocol surprise.
    pub error: Option<String>,
}

impl Reply {
    pub fn into_result(self) -> Res<Reply> {
        match &self.error {
            Some(message) => Err(message.clone()),
            None => Ok(self),
        }
    }
}

/// Send one operation and read its whole response. An I/O error ends the run (`Err`); an error
/// *frame* is a failed operation (`Reply::error`). The digest is computed after the clock stops.
pub fn send_op(client: &mut Client, op: &Op) -> Res<Reply> {
    let request = op.request();
    let io = |e: std::io::Error| format!("connection lost: {e}");
    let mut chunks = Vec::new();
    let mut first_byte = None;
    let start = Instant::now();
    client.send(&request).map_err(io)?;
    let outcome = loop {
        match client.read_response().map_err(io)? {
            ResponseFrame::Schema(_) => first_byte = Some(start.elapsed()),
            ResponseFrame::Chunk(chunk) => chunks.push(chunk),
            ResponseFrame::Done { rows } => break Ok(rows),
            ResponseFrame::Err(message) => break Err(message),
            ResponseFrame::Ok(text) => break Err(format!("unexpected text reply: {text}")),
        }
    };
    let latency = start.elapsed();
    let (done_rows, error) = match outcome {
        Ok(rows) => (rows, None),
        Err(message) => (0, Some(message)),
    };
    Ok(Reply {
        latency,
        first_byte: first_byte.unwrap_or(latency),
        digest: Digest::of_chunks(&chunks),
        done_rows,
        error,
    })
}

/// Public counters read at the edges of the measured window.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    pub cache: CacheStats,
    pub catalog_version: u64,
}

impl Counters {
    fn read(engine: &Engine) -> Counters {
        Counters { cache: engine.cache_stats(), catalog_version: engine.catalog().version() }
    }
}

/// One measured closed-loop operation: where it sits in the seeded sequence, and its reply.
#[derive(Debug, Clone)]
pub struct Sample {
    pub block: u64,
    pub position: usize,
    pub reply: Reply,
}

/// What a closed loop measured: whole blocks only.
#[derive(Debug)]
pub struct ClosedLoop {
    pub samples: Vec<Sample>,
    /// Seconds each whole block took, first request sent to last reply read.
    pub block_seconds: Vec<f64>,
    pub started: Instant,
    /// When the last whole block completed; the measured window is `started..ended`.
    pub ended: Instant,
    pub before: Counters,
    pub after: Counters,
}

/// One client, one connection: the next request is sent when the previous reply is complete.
/// Sends whole blocks untimed for [`WARM_UP`], then measures until `window` has passed and
/// drops the block the deadline interrupted.
pub fn closed_loop(
    client: &mut Client,
    generator: &Generator,
    engine: &Engine,
    window: Duration,
) -> Res<ClosedLoop> {
    let mut block = 0u64;
    let warm_up_started = Instant::now();
    while warm_up_started.elapsed() < WARM_UP {
        for op in generator.block(block) {
            send_op(client, &op)?.into_result().map_err(|e| format!("warm-up: {e}"))?;
        }
        block += 1;
    }
    let before = Counters::read(engine);
    let started = Instant::now();
    let mut measured = ClosedLoop {
        samples: Vec::new(),
        block_seconds: Vec::new(),
        started,
        ended: started,
        before,
        after: before,
    };
    while started.elapsed() < window {
        let block_started = Instant::now();
        let mut replies = Vec::new();
        for op in generator.block(block) {
            if started.elapsed() >= window {
                break;
            }
            replies.push(send_op(client, &op)?);
        }
        if replies.len() < generator.block_len() {
            break;
        }
        measured.ended = Instant::now();
        measured.block_seconds.push(measured.ended.duration_since(block_started).as_secs_f64());
        measured.after = Counters::read(engine);
        measured.samples.extend(replies.into_iter().enumerate().map(|(position, reply)| Sample {
            block,
            position,
            reply,
        }));
        block += 1;
    }
    if measured.samples.is_empty() {
        return Err(format!(
            "no whole block of {} operations completed in {window:?}",
            generator.block_len()
        ));
    }
    Ok(measured)
}

/// An open-loop schedule: operation `k` is due at `start + k * interval` whatever happened to
/// the operations before it, and is timed from that instant.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub interval: Duration,
}

impl Schedule {
    pub fn due(&self, k: u64) -> Instant {
        self.start + self.interval * k as u32
    }

    /// Latency of operation `k`, counted from when it was due, not from when it was sent: a
    /// stall delays the sends behind it and this charges them for the wait.
    pub fn latency(&self, k: u64, completed: Instant) -> Duration {
        completed.saturating_duration_since(self.due(k))
    }

    /// A write that finishes after its slot (when the next one is due) is late.
    pub fn is_late(&self, k: u64, completed: Instant) -> bool {
        completed > self.due(k + 1)
    }
}

/// One open-loop write.
#[derive(Debug, Clone)]
pub struct Write {
    pub index: u64,
    pub due: Instant,
    /// How long after its due instant the generator got to send it.
    pub generator_lateness: Duration,
    /// From the due instant to the reply.
    pub latency: Duration,
    pub late: bool,
    pub reply: Reply,
}

/// `mixed_rw`'s writer: one `SELECT PROVENANCE ... INTO` every [`WRITE_INTERVAL_MS`] until
/// `stop` is set. Index 0 was spent by set-up.
pub fn open_loop_writer(
    client: &mut Client,
    generator: &Generator,
    stop: &AtomicBool,
) -> Res<Vec<Write>> {
    let schedule =
        Schedule { start: Instant::now(), interval: Duration::from_millis(WRITE_INTERVAL_MS) };
    let mut writes = Vec::new();
    for k in 0u64.. {
        let due = schedule.due(k);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let generator_lateness = Instant::now().saturating_duration_since(due);
        let reply = send_op(client, &generator.write_op(k + 1))?;
        let completed = Instant::now();
        writes.push(Write {
            index: k + 1,
            due,
            generator_lateness,
            latency: schedule.latency(k, completed),
            late: schedule.is_late(k, completed),
            reply,
        });
    }
    Ok(writes)
}

/// The process's peak resident set (`VmHWM`) in MB; the client and the server share it.
pub fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_times_from_the_due_instant() {
        let schedule = Schedule { start: Instant::now(), interval: Duration::from_millis(200) };
        assert_eq!(schedule.due(3), schedule.start + Duration::from_millis(600));
        // Operation 3 was held up behind a stall: sent 150 ms after it was due, answered 50 ms
        // after that. Its latency is the 200 ms since it was due, not the 50 ms since the send.
        let sent = schedule.due(3) + Duration::from_millis(150);
        let completed = sent + Duration::from_millis(50);
        assert_eq!(schedule.latency(3, completed), Duration::from_millis(200));
        assert!(!schedule.is_late(3, completed), "finishing exactly on the next due instant");
        assert!(schedule.is_late(3, completed + Duration::from_millis(1)));
        assert!(!schedule.is_late(3, schedule.due(3) + Duration::from_millis(90)));
    }

    #[test]
    fn peak_rss_is_readable_and_positive() {
        assert!(peak_rss_mb().unwrap() > 1.0);
    }
}

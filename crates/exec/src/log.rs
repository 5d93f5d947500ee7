//! Leveled, timestamped, structured (`key=value`) logging for the engine and daemon.
//!
//! The paper's host DBMS inherits PostgreSQL's logging infrastructure for free; this crate
//! substrate needs its own. The logger is deliberately tiny — no external dependencies, no
//! formatting machinery beyond `std::fmt` — but it is *structured*: every line is
//!
//! ```text
//! 2026-08-07T12:34:56.789Z INFO query_end qid=42 latency_ms=1.234 rows=7 outcome=ok
//! ```
//!
//! i.e. a UTC timestamp, a level, an event name, and `key=value` pairs. Values containing
//! whitespace, `"` or `=` are double-quoted with `"` and `\` escaped, so lines stay
//! machine-parseable. Output goes to stderr (like PostgreSQL's default), leaving stdout to the
//! wire protocol and shell.
//!
//! The active level is a process-global relaxed atomic — a disabled call site costs one load.
//! A thread-local *current query id* ([`QueryIdGuard`]) lets deep execution code (failpoint
//! trips, panic fences, governor sheds) tag lines with the query they happened inside without
//! threading an id through every call signature.
//!
//! Use the [`log_error!`](crate::log_error), [`log_warn!`](crate::log_warn),
//! [`log_info!`](crate::log_info) and [`log_debug!`](crate::log_debug) macros:
//!
//! ```
//! perm_exec::log_info!("connection_open", conn = 7, peer = "127.0.0.1:5433");
//! ```

use std::cell::Cell;
use std::fmt::{self, Write as _};
use std::io::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Unrecoverable or data-affecting problems (startup failure, panic recovery).
    Error = 0,
    /// Degraded but handled situations (shed queries, failpoint trips, slow queries).
    Warn = 1,
    /// Normal operational events (connections, query start/end). `permd`'s default.
    Info = 2,
    /// Detailed internals (cache decisions, stream lifecycle).
    Debug = 3,
    /// Very chatty tracing.
    Trace = 4,
}

impl Level {
    /// Parse a level name (case-insensitive). Accepts `error|warn|info|debug|trace`.
    pub fn parse(s: &str) -> Result<Level, String> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Ok(Level::Error),
            "warn" | "warning" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            "trace" => Ok(Level::Trace),
            other => Err(format!("unknown log level '{other}' (use error|warn|info|debug|trace)")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Active level; calls at a numerically greater level are dropped. The *library* default is
/// `Warn` so embedded uses (tests, benches, `perm-core`'s facade) stay quiet; `permd` raises it
/// to `Info` at startup (`--log-level` overrides).
static LEVEL: AtomicU8 = AtomicU8::new(Level::Warn as u8);

/// Set the process-global log level.
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current process-global log level.
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Error,
        1 => Level::Warn,
        2 => Level::Info,
        3 => Level::Debug,
        _ => Level::Trace,
    }
}

/// Whether a line at `level` would be emitted. One relaxed load; macros check this before
/// evaluating their arguments.
#[inline]
pub fn enabled(level: Level) -> bool {
    level as u8 <= LEVEL.load(Ordering::Relaxed)
}

thread_local! {
    static QUERY_ID: Cell<u64> = const { Cell::new(0) };
}

/// RAII guard tagging every log line emitted by this thread with `qid=<id>` while alive.
///
/// Used by the server dispatch loop and by query streams as they execute, so that code deep in
/// the executor (failpoints, memory sheds) logs the query it is serving without plumbing.
pub struct QueryIdGuard {
    previous: u64,
}

impl QueryIdGuard {
    /// Tag this thread's log lines with `qid` (0 means "no query"). Restores the previous tag
    /// on drop, so guards nest.
    pub fn new(qid: u64) -> QueryIdGuard {
        let previous = QUERY_ID.with(|c| c.replace(qid));
        QueryIdGuard { previous }
    }
}

impl Drop for QueryIdGuard {
    fn drop(&mut self) {
        QUERY_ID.with(|c| c.set(self.previous));
    }
}

/// The query id tagged on this thread, or 0 if none.
pub fn current_query_id() -> u64 {
    QUERY_ID.with(Cell::get)
}

/// Format `value`, quoting it if it contains characters that would break `key=value` parsing.
fn push_value(out: &mut String, value: &dyn fmt::Display) {
    let start = out.len();
    let _ = write!(out, "{value}");
    let needs_quoting = out[start..].is_empty()
        || out[start..].chars().any(|c| c.is_whitespace() || c == '"' || c == '=');
    if needs_quoting {
        let raw: String = out.split_off(start);
        out.push('"');
        for c in raw.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

/// Write a `YYYY-MM-DDTHH:MM:SS.mmmZ` UTC timestamp for the current wall clock.
///
/// Uses the standard civil-from-days algorithm (Howard Hinnant's `days_from_civil` inverse) so
/// we need no date-time dependency.
fn push_timestamp(out: &mut String) {
    let now = SystemTime::now().duration_since(UNIX_EPOCH).unwrap_or_default();
    let secs = now.as_secs();
    let millis = now.subsec_millis();
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let (hh, mm, ss) = (rem / 3600, (rem % 3600) / 60, rem % 60);
    // civil_from_days with the epoch shifted to 0000-03-01 eras of 400 years.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    let _ = write!(out, "{y:04}-{m:02}-{d:02}T{hh:02}:{mm:02}:{ss:02}.{millis:03}Z");
}

/// Emit one log line. Call through the macros, which gate on [`enabled`] first.
pub fn write_line(level: Level, event: &str, fields: &[(&str, &dyn fmt::Display)]) {
    let mut line = String::with_capacity(96);
    push_timestamp(&mut line);
    let _ = write!(line, " {} {}", level.name(), event);
    let qid = current_query_id();
    if qid != 0 && !fields.iter().any(|(k, _)| *k == "qid") {
        let _ = write!(line, " qid={qid}");
    }
    for (key, value) in fields {
        line.push(' ');
        line.push_str(key);
        line.push('=');
        push_value(&mut line, *value);
    }
    line.push('\n');
    // One write_all per line keeps concurrent threads' lines from interleaving mid-line.
    let _ = std::io::stderr().write_all(line.as_bytes());
}

/// Emit a structured log line at an explicit [`Level`].
///
/// `slog!(Level::Info, "event", key = value, ...)` — values are captured by reference and must
/// implement `Display`. Arguments are not evaluated when the level is disabled.
#[macro_export]
macro_rules! slog {
    ($level:expr, $event:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::log::enabled($level) {
            $crate::log::write_line(
                $level,
                $event,
                &[$((stringify!($key), &$value as &dyn ::std::fmt::Display)),*],
            );
        }
    };
}

/// `slog!` at `Level::Error`.
#[macro_export]
macro_rules! log_error {
    ($event:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::slog!($crate::log::Level::Error, $event $(, $key = $value)*)
    };
}

/// `slog!` at `Level::Warn`.
#[macro_export]
macro_rules! log_warn {
    ($event:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::slog!($crate::log::Level::Warn, $event $(, $key = $value)*)
    };
}

/// `slog!` at `Level::Info`.
#[macro_export]
macro_rules! log_info {
    ($event:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::slog!($crate::log::Level::Info, $event $(, $key = $value)*)
    };
}

/// `slog!` at `Level::Debug`.
#[macro_export]
macro_rules! log_debug {
    ($event:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::slog!($crate::log::Level::Debug, $event $(, $key = $value)*)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing_and_ordering() {
        assert_eq!(Level::parse("warn").unwrap(), Level::Warn);
        assert_eq!(Level::parse("TRACE").unwrap(), Level::Trace);
        assert!(Level::parse("loud").is_err());
        assert!(Level::Error < Level::Trace);
    }

    #[test]
    fn enabled_respects_level() {
        let before = level();
        set_level(Level::Warn);
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        set_level(before);
    }

    #[test]
    fn query_id_guard_nests_and_restores() {
        assert_eq!(current_query_id(), 0);
        {
            let _a = QueryIdGuard::new(7);
            assert_eq!(current_query_id(), 7);
            {
                let _b = QueryIdGuard::new(9);
                assert_eq!(current_query_id(), 9);
            }
            assert_eq!(current_query_id(), 7);
        }
        assert_eq!(current_query_id(), 0);
    }

    #[test]
    fn values_are_quoted_when_needed() {
        let mut out = String::new();
        push_value(&mut out, &"plain");
        assert_eq!(out, "plain");
        out.clear();
        push_value(&mut out, &"has space");
        assert_eq!(out, "\"has space\"");
        out.clear();
        push_value(&mut out, &"a=b");
        assert_eq!(out, "\"a=b\"");
        out.clear();
        push_value(&mut out, &"");
        assert_eq!(out, "\"\"");
    }

    #[test]
    fn timestamp_shape() {
        let mut out = String::new();
        push_timestamp(&mut out);
        // 2026-08-07T12:34:56.789Z
        assert_eq!(out.len(), 24);
        assert_eq!(&out[4..5], "-");
        assert_eq!(&out[10..11], "T");
        assert!(out.ends_with('Z'));
        assert!(out.starts_with("20"));
    }
}

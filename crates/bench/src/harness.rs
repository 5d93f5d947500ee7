//! The one setup every criterion bench shares: the database the paper's figures are measured
//! on, and the measurement settings of the gated spj / parallel-scaling benches.

use std::time::Duration;

use perm_core::{PermDb, SessionOptions};
use perm_tpch::dbgen::{generate_catalog, TpchScale};

/// Criterion samples per entry of `spj_queries` (gated against `BENCH_fig13.json`) and
/// `parallel_scaling`.
pub const SAMPLES: usize = 15;
/// Their warm-up time per entry. PR 1's 400 ms warm-up / 900 ms measurement gave untrustworthy
/// rows (one spj `normal/6` sample spanned 2.3–12.9 ms).
pub const WARM_UP: Duration = Duration::from_millis(700);
/// Their measurement time per entry.
pub const MEASUREMENT: Duration = Duration::from_millis(2500);

/// The small TPC-H instance (seed 42), analyzed, behind a [`PermDb`] with a 1 000 000-row
/// budget and a 10 s timeout.
pub fn database() -> PermDb {
    let catalog = generate_catalog(TpchScale::small(), 42);
    // Post-load ANALYZE: statistics otherwise build lazily inside the first measured query,
    // which would charge a whole-table collection scan to that query's latency (the paper's
    // figures measure warm-catalog execution).
    catalog.analyze();
    let options =
        SessionOptions::default().with_row_budget(1_000_000).with_timeout(Duration::from_secs(10));
    PermDb::with_catalog(catalog, options)
}

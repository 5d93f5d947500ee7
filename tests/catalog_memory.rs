//! What a served catalog costs at rest.
//!
//! Perm's representation copies every contributing base tuple — names, addresses and comments
//! included — into each result row, so the text of the base tables is what everything
//! downstream is made of. A text column is offsets over one byte buffer (`Array::Text`), not a
//! heap box per value: the TPC-H `small` catalog holds 79 125 text values, and this test bounds
//! both what it leaves live and in how many allocations — the boxed form took 79 125 of them
//! for the text alone. `ANALYZE` hashes and compares values in their chunks, so its transient
//! is one column's table of distinct rows, not a boxed copy of the column.
//!
//! One `#[test]` on purpose: the allocator counts the whole process, and cargo runs the tests of
//! one file on parallel threads.

use std::sync::atomic::Ordering;

use perm::prelude::*;

mod common;
use common::{high_water_over_base, CountingAllocator, LIVE, LIVE_ALLOCATIONS};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn live() -> (usize, usize) {
    (LIVE.load(Ordering::Relaxed), LIVE_ALLOCATIONS.load(Ordering::Relaxed))
}

#[test]
fn the_small_catalog_rests_in_a_few_buffers_per_column() {
    /// 2.90 MB measured (1.12 MB of it the characters); the boxed form asked for 5.28 MB, which
    /// the allocator's per-box overhead made 6.9 MB resident.
    const CATALOG_CAP_BYTES: usize = 3_200_000;
    /// 1 138 measured; the boxed form needed one per text value on top: 80 103.
    const CATALOG_CAP_ALLOCATIONS: usize = 2_000;
    /// 0.43 MB measured: the table of `l_comment`'s distinct rows as it doubles (0.62 MB as a
    /// set of boxed values).
    const ANALYZE_CAP_BYTES: usize = 500_000;

    let (base_bytes, base_allocations) = live();
    let catalog = generate_catalog(TpchScale::small(), 42);
    let ((), transient) = high_water_over_base(|| catalog.analyze());
    let (bytes, allocations) = live();
    let (bytes, allocations) = (bytes - base_bytes, allocations - base_allocations);

    let tables = catalog.table_names();
    let text_values: usize = tables
        .iter()
        .map(|name| {
            let table = catalog.table(name).unwrap();
            let text_columns = table
                .schema()
                .attributes()
                .iter()
                .filter(|a| a.data_type == DataType::Text)
                .count();
            text_columns * table.num_rows()
        })
        .sum();
    println!(
        "catalog: {bytes} B live in {allocations} allocations ({text_values} text values); \
         ANALYZE transient {transient} B"
    );
    assert_eq!(text_values, 79_125, "the catalog this test was measured on");
    assert!(bytes <= CATALOG_CAP_BYTES, "{bytes} B live, cap {CATALOG_CAP_BYTES}");
    assert!(
        allocations <= CATALOG_CAP_ALLOCATIONS,
        "{allocations} live allocations, cap {CATALOG_CAP_ALLOCATIONS}"
    );
    assert!(transient < ANALYZE_CAP_BYTES, "ANALYZE held {transient} B, cap {ANALYZE_CAP_BYTES}");
}

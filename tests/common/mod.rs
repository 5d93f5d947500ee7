//! A counting global allocator for the memory-bound tests (`factorized_memory`,
//! `catalog_memory`, `plan_memory`, `filter_memory`). Each of them installs it with
//! `#[global_allocator]` and holds one `#[test]`: the counters cover the whole process, and cargo runs the tests of one file on
//! parallel threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

pub struct CountingAllocator;

/// Bytes live now, by requested size.
pub static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most `LIVE` has been since it was last reset ([`high_water_over_base`]).
pub static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Allocations live now.
#[allow(dead_code)] // not every test counts allocations
pub static LIVE_ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the `GlobalAlloc`
// contract; the counters beside it are plain atomics and never touch the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout is passed through as received.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
            LIVE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        LIVE_ALLOCATIONS.fetch_sub(1, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System.alloc` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Bytes the heap grew to, over what was live at the start, while `f` ran.
#[allow(dead_code)] // not every test measures a high-water mark
pub fn high_water_over_base<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed).saturating_sub(base))
}

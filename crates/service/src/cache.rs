//! The shared plan cache: parse/analyze/rewrite/optimize once, execute many.
//!
//! Entries are keyed by *normalized* SQL text (whitespace collapsed outside quotes, trailing
//! semicolons stripped) and tagged with the catalog commit version observed at planning time.
//! Any DDL/DML commit bumps the catalog version, so stale plans are evicted lazily on their
//! next lookup — the cache never serves a plan created against a different catalog state.
//! Eviction is LRU with a fixed capacity.
//!
//! **Admission.** A text's plan is cached from its *second* planning. Beside the LRU map the
//! cache keeps a ring of the 64-bit hashes of the last `capacity` texts it declined or let go;
//! [`PlanCache::insert`] keeps a plan only when its text's hash is in that ring (or the text is
//! already cached), and otherwise just records the hash. Traffic whose texts never repeat —
//! generated one-shot queries, `SELECT PROVENANCE … INTO` writes — would otherwise fill the
//! cache with plans nobody reuses and evict the hot ones to make room (TinyLFU's doorkeeper;
//! SQL Server's "optimize for ad hoc workloads"). Every plan that leaves the cache — evicted,
//! found stale, or cleared — leaves its hash in the ring, so a hot text re-planned after a
//! commit or a clear is cached again at once: only a text's first-ever planning is not kept. A
//! hash collision can only admit a plan early; lookups still compare the full text.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::hash::BuildHasher;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::engine::PreparedPlan;

/// Counters describing cache effectiveness (exposed for tests, benches and the wire `stats`
/// command).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a cached plan.
    pub hits: u64,
    /// Lookups that found nothing (or only a stale entry).
    pub misses: u64,
    /// Entries dropped because the catalog version moved past them.
    pub invalidations: u64,
    /// Misses whose plan was not kept because its text was new to the cache.
    pub deferred: u64,
    /// Current number of cached plans.
    pub entries: usize,
}

struct CacheEntry {
    plan: Arc<PreparedPlan>,
    version: u64,
}

/// The map and the recency order share each key: a normalized text is held once per entry.
#[derive(Default)]
struct CacheInner {
    map: HashMap<Arc<str>, CacheEntry>,
    /// Keys in least-recently-used-first order.
    order: VecDeque<Arc<str>>,
    /// Hashes of the last `capacity` texts declined or let go, oldest first.
    ring: VecDeque<u64>,
    hits: u64,
    misses: u64,
    invalidations: u64,
    deferred: u64,
}

impl CacheInner {
    /// Take `key` out of the recency order, if it is there.
    fn forget(&mut self, key: &str) -> Option<Arc<str>> {
        let pos = self.order.iter().position(|k| **k == *key)?;
        self.order.remove(pos)
    }

    /// Take `hash` out of the ring; whether it was there.
    fn recall(&mut self, hash: u64) -> bool {
        self.ring.iter().position(|&h| h == hash).and_then(|pos| self.ring.remove(pos)).is_some()
    }
}

/// A thread-safe LRU cache of optimized query plans that admits a text on its second planning.
pub struct PlanCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    hasher: RandomState,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("stats", &stats)
            .finish()
    }
}

impl PlanCache {
    /// Create a cache holding at most `capacity` plans and remembering as many declined texts
    /// (a capacity of 0 disables both).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache { inner: Mutex::new(CacheInner::default()), capacity, hasher: RandomState::new() }
    }

    /// The maximum number of cached plans.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Remember `key` in the ring, pushing out the oldest hash when it is full.
    fn remember(&self, inner: &mut CacheInner, key: &str) {
        if inner.ring.len() >= self.capacity {
            inner.ring.pop_front();
        }
        inner.ring.push_back(self.hasher.hash_one(key));
    }

    /// Look up a plan for `key` that was created at exactly `version`. A stale entry counts as
    /// a miss and is dropped; its text stays remembered, so its next plan is cached at once.
    pub fn get(&self, key: &str, version: u64) -> Option<Arc<PreparedPlan>> {
        let mut inner = self.inner.lock();
        match inner.map.get(key) {
            Some(entry) if entry.version == version => {
                let plan = entry.plan.clone();
                inner.hits += 1;
                if let Some(shared) = inner.forget(key) {
                    inner.order.push_back(shared);
                }
                Some(plan)
            }
            Some(_) => {
                inner.map.remove(key);
                inner.forget(key);
                self.remember(&mut inner, key);
                inner.invalidations += 1;
                inner.misses += 1;
                None
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Offer a plan created at `version`. It is kept when `key` is already cached or is
    /// remembered in the ring, evicting the least-recently-used entry when full; a text new to
    /// the cache is only remembered, and the caller runs the plan it holds.
    pub fn insert(&self, key: String, version: u64, plan: Arc<PreparedPlan>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        // A replaced entry gives up its key too, so map and order keep sharing one.
        if inner.map.remove(key.as_str()).is_some() {
            inner.forget(&key);
        } else if !inner.recall(self.hasher.hash_one(key.as_str())) {
            self.remember(&mut inner, &key);
            inner.deferred += 1;
            return;
        } else if inner.map.len() >= self.capacity {
            if let Some(evicted) = inner.order.pop_front() {
                inner.map.remove(&evicted);
                self.remember(&mut inner, &evicted);
            }
        }
        let key = Arc::<str>::from(key);
        inner.map.insert(key.clone(), CacheEntry { plan, version });
        inner.order.push_back(key);
    }

    /// Drop every entry, remembering each text so its next plan is cached at once (counters
    /// are preserved).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        for key in std::mem::take(&mut inner.order) {
            self.remember(&mut inner, &key);
        }
    }

    /// A snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            invalidations: inner.invalidations,
            deferred: inner.deferred,
            entries: inner.map.len(),
        }
    }
}

/// Normalize SQL text for use as a cache key: strip `--` line comments, collapse whitespace
/// runs to a single space *outside* quoted strings/identifiers and strip trailing semicolons,
/// so trivially reformatted queries share one plan. Comments must be removed (not just
/// space-collapsed): the newline that terminates a `--` comment is semantically load-bearing,
/// and collapsing it would give `a -- c\nFROM t` and `a -- c FROM t` the same key.
pub fn normalize_sql(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    let mut chars = sql.chars().peekable();
    let mut pending_space = false;
    while let Some(c) = chars.next() {
        match c {
            '-' if chars.peek() == Some(&'-') => {
                // Drop the comment through its terminating newline; the newline itself becomes
                // ordinary (collapsible) whitespace.
                for inner in chars.by_ref() {
                    if inner == '\n' {
                        break;
                    }
                }
                pending_space = true;
            }
            '\'' | '"' => {
                if pending_space && !out.is_empty() {
                    out.push(' ');
                }
                pending_space = false;
                out.push(c);
                // Copy the quoted segment verbatim ('' escapes stay as-is: the closing quote of
                // the escape simply reopens a quoted segment of the same kind).
                for inner in chars.by_ref() {
                    out.push(inner);
                    if inner == c {
                        break;
                    }
                }
            }
            c if c.is_whitespace() => pending_space = true,
            c => {
                if pending_space && !out.is_empty() {
                    out.push(' ');
                }
                pending_space = false;
                out.push(c);
            }
        }
    }
    while out.ends_with(';') || out.ends_with(' ') {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> Arc<PreparedPlan> {
        Arc::new(PreparedPlan {
            plan: perm_algebra::LogicalPlan::Values {
                schema: perm_algebra::Schema::empty(),
                rows: vec![],
            },
            into: None,
            param_count: 0,
            sql: String::new(),
        })
    }

    /// Plan `key` twice at `version`: its first planning is remembered, its second cached.
    fn admit(cache: &PlanCache, key: &str, version: u64) {
        cache.insert(key.into(), version, plan());
        cache.insert(key.into(), version, plan());
    }

    #[test]
    fn normalization_collapses_whitespace_but_not_strings() {
        assert_eq!(normalize_sql("  SELECT   x\nFROM\tt ; "), "SELECT x FROM t");
        assert_eq!(normalize_sql("SELECT 'a  b'  FROM t"), "SELECT 'a  b' FROM t");
        assert_eq!(normalize_sql("SELECT \"weird  col\" FROM t"), "SELECT \"weird  col\" FROM t");
        assert_eq!(normalize_sql("SELECT 'it''s   ok'"), "SELECT 'it''s   ok'");
        assert_eq!(normalize_sql("SELECT x - -1 FROM t"), "SELECT x - -1 FROM t");
    }

    #[test]
    fn normalization_strips_comments_instead_of_collapsing_their_newlines() {
        // These two texts are semantically different (the second comment swallows `FROM t`);
        // collapsing whitespace without removing comments would give them the same key.
        let query = normalize_sql("SELECT x -- note\nFROM t");
        let comment_eats_from = normalize_sql("SELECT x -- note FROM t");
        assert_eq!(query, "SELECT x FROM t");
        assert_eq!(comment_eats_from, "SELECT x");
        assert_ne!(query, comment_eats_from);
        // A `--` inside a string is not a comment.
        assert_eq!(normalize_sql("SELECT '--x'  FROM t"), "SELECT '--x' FROM t");
    }

    #[test]
    fn map_and_recency_order_share_each_key() {
        let cache = PlanCache::new(2);
        admit(&cache, "a", 1);
        admit(&cache, "b", 1);
        cache.insert("a".into(), 2, plan());
        assert!(cache.get("b", 1).is_some());
        let inner = cache.inner.lock();
        assert_eq!(inner.order.iter().map(|k| &**k).collect::<Vec<_>>(), ["a", "b"]);
        for key in &inner.order {
            let (shared, _) = inner.map.get_key_value(key).unwrap();
            assert!(Arc::ptr_eq(shared, key), "{key} is held twice");
        }
    }

    #[test]
    fn lru_eviction_and_version_invalidation() {
        let cache = PlanCache::new(2);
        admit(&cache, "a", 1);
        admit(&cache, "b", 1);
        assert!(cache.get("a", 1).is_some());
        // "b" is now least recently used; admitting "c" evicts it.
        admit(&cache, "c", 1);
        assert!(cache.get("b", 1).is_none());
        assert!(cache.get("a", 1).is_some());
        // A version bump invalidates on lookup.
        assert!(cache.get("a", 2).is_none());
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 1);
        assert!(stats.hits >= 2 && stats.misses >= 2);
    }

    #[test]
    fn a_text_is_cached_from_its_second_planning() {
        let cache = PlanCache::new(4);
        cache.insert("a".into(), 1, plan());
        assert!(cache.get("a", 1).is_none(), "a first planning is not kept");
        assert_eq!(cache.stats().deferred, 1);
        cache.insert("a".into(), 1, plan());
        assert!(cache.get("a", 1).is_some(), "the second one is");
        let stats = cache.stats();
        assert_eq!((stats.deferred, stats.entries), (1, 1));
        assert!(cache.inner.lock().ring.is_empty(), "an admitted text leaves the ring");
    }

    #[test]
    fn the_ring_never_holds_more_than_capacity_hashes() {
        let cache = PlanCache::new(3);
        for i in 0..50 {
            cache.insert(format!("one-shot {i}"), 1, plan());
            assert!(cache.inner.lock().ring.len() <= 3);
        }
        let stats = cache.stats();
        assert_eq!((stats.deferred, stats.entries), (50, 0));
        // Only the last three one-shot texts are still remembered.
        cache.insert("one-shot 46".into(), 1, plan());
        assert_eq!(cache.stats().entries, 0, "pushed out of the ring: planned as new");
        cache.insert("one-shot 49".into(), 1, plan());
        assert_eq!(cache.stats().entries, 1, "still in the ring: cached");
    }

    #[test]
    fn every_plan_that_leaves_is_cached_at_once_when_planned_again() {
        let cache = PlanCache::new(2);
        let cached_at_once = |key: &str, version: u64| {
            let deferred = cache.stats().deferred;
            cache.insert(key.into(), version, plan());
            cache.get(key, version).is_some() && cache.stats().deferred == deferred
        };

        // Eviction: "a" is least recently used when "c" comes in.
        admit(&cache, "a", 1);
        admit(&cache, "b", 1);
        admit(&cache, "c", 1);
        assert!(cache.get("a", 1).is_none());
        assert!(cached_at_once("a", 1), "an evicted text");

        // Invalidation: a commit moved the version past "a".
        assert!(cache.get("a", 2).is_none());
        assert_eq!(cache.stats().invalidations, 1);
        assert!(cached_at_once("a", 2), "a text whose plan went stale");

        // `clear` remembers every text it drops.
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        assert!(cached_at_once("a", 2), "a cleared text");
        assert!(cached_at_once("c", 2), "another cleared text");
    }

    #[test]
    fn capacity_zero_remembers_nothing() {
        let cache = PlanCache::new(0);
        for _ in 0..3 {
            cache.insert("a".into(), 1, plan());
            assert!(cache.get("a", 1).is_none());
        }
        cache.clear();
        assert!(cache.inner.lock().ring.is_empty());
        let stats = cache.stats();
        assert_eq!((stats.deferred, stats.entries, stats.misses), (0, 0, 3));
    }
}

//! The shared plan cache: parse/analyze/rewrite/optimize once, execute many.
//!
//! Entries are keyed by *normalized* SQL text (whitespace collapsed outside quotes, trailing
//! semicolons stripped) and tagged with the catalog commit version observed at planning time.
//! Any DDL/DML commit bumps the catalog version, so stale plans are evicted lazily on their
//! next lookup — the cache never serves a plan created against a different catalog state.
//! Eviction is LRU with a fixed capacity.

use std::collections::HashMap;
use std::collections::VecDeque;
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
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl CacheInner {
    /// Take `key` out of the recency order, if it is there.
    fn forget(&mut self, key: &str) -> Option<Arc<str>> {
        let pos = self.order.iter().position(|k| **k == *key)?;
        self.order.remove(pos)
    }
}

/// A thread-safe LRU cache of optimized query plans.
pub struct PlanCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
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
    /// Create a cache holding at most `capacity` plans (a capacity of 0 disables caching).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache { inner: Mutex::new(CacheInner::default()), capacity }
    }

    /// The maximum number of cached plans.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Look up a plan for `key` that was created at exactly `version`. A stale entry counts as
    /// a miss and is dropped.
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

    /// Insert a plan created at `version`, evicting the least-recently-used entry when full.
    pub fn insert(&self, key: String, version: u64, plan: Arc<PreparedPlan>) {
        if self.capacity == 0 {
            return;
        }
        let key = Arc::<str>::from(key);
        let mut inner = self.inner.lock();
        // A replaced entry gives up its key too, so map and order keep sharing one.
        if inner.map.remove(&key).is_some() {
            inner.forget(&key);
        } else if inner.map.len() >= self.capacity {
            if let Some(evicted) = inner.order.pop_front() {
                inner.map.remove(&evicted);
            }
        }
        inner.map.insert(key.clone(), CacheEntry { plan, version });
        inner.order.push_back(key);
    }

    /// Drop every entry (counters are preserved).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.order.clear();
    }

    /// A snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            invalidations: inner.invalidations,
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
        cache.insert("a".into(), 1, plan());
        cache.insert("b".into(), 1, plan());
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
        cache.insert("a".into(), 1, plan());
        cache.insert("b".into(), 1, plan());
        assert!(cache.get("a", 1).is_some());
        // "b" is now least recently used; inserting "c" evicts it.
        cache.insert("c".into(), 1, plan());
        assert!(cache.get("b", 1).is_none());
        assert!(cache.get("a", 1).is_some());
        // A version bump invalidates on lookup.
        assert!(cache.get("a", 2).is_none());
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 1);
        assert!(stats.hits >= 2 && stats.misses >= 2);
    }
}

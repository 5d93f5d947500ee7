//! The catalog: a thread-safe registry of base tables and views.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;
use perm_algebra::{AlgebraError, DataChunk, Schema, Tuple};

use crate::relation::Relation;

/// Errors raised by catalog operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// A table or view with this name already exists.
    AlreadyExists(String),
    /// No table or view with this name exists.
    NotFound(String),
    /// A tuple or schema did not fit the stored definition.
    Invalid(String),
    /// An append would lay more text end to end than one stored column can hold; nothing was
    /// appended. The executor surfaces it as `ExecError::ResourceExhausted`.
    TooLarge(String),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::AlreadyExists(n) => write!(f, "relation '{n}' already exists"),
            CatalogError::NotFound(n) => write!(f, "relation '{n}' does not exist"),
            CatalogError::Invalid(msg) => write!(f, "invalid catalog operation: {msg}"),
            CatalogError::TooLarge(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<AlgebraError> for CatalogError {
    fn from(e: AlgebraError) -> Self {
        match e {
            AlgebraError::ColumnTooLarge { .. } => CatalogError::TooLarge(e.to_string()),
            other => CatalogError::Invalid(other.to_string()),
        }
    }
}

/// A view definition.
///
/// Views are stored as SQL text and unfolded (re-analyzed) at reference time by `perm-sql`,
/// mirroring the rewriter stage of PostgreSQL in the paper's architecture (Fig. 5). A view whose
/// body contains `SELECT PROVENANCE ...` stores provenance and can be used for incremental
/// provenance computation via the `PROVENANCE (attrs)` from-clause annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewDef {
    /// View name.
    pub name: String,
    /// The defining SQL text (a single SELECT statement, possibly with SQL-PLE keywords).
    pub sql: String,
}

/// A base table: schema plus stored rows.
///
/// The relation is held behind an [`Arc`] so that executors can take a zero-copy snapshot of a
/// table ([`Catalog::table_arc`]). Mutating operations use copy-on-write ([`Arc::make_mut`]):
/// the new version shares every full chunk with the old one and rebuilds only the tail, and a
/// snapshot taken before a mutation keeps observing the pre-mutation contents.
#[derive(Debug, Clone)]
pub struct TableEntry {
    /// Table name.
    pub name: String,
    /// The stored relation.
    pub relation: Arc<Relation>,
    /// The catalog version at which this table's contents last changed. Statistics are
    /// collected lazily from the current contents, so this version *is* the statistics
    /// refresh point: a statistic served for this table is exactly as fresh as this commit.
    pub modified_version: u64,
}

/// One table's identity and freshness, as reported by [`Catalog::table_infos`] (the backing
/// data of the wire `stats` per-table lines).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableInfo {
    /// Table name (normalized).
    pub name: String,
    /// Current row count.
    pub rows: usize,
    /// Resident size of the stored chunks ([`Relation::byte_size`]) — the number to hold against
    /// the process's RSS.
    pub bytes: usize,
    /// Catalog version at which the contents (and therefore the statistics) last changed.
    pub modified_version: u64,
}

#[derive(Debug, Default)]
struct CatalogInner {
    tables: BTreeMap<String, TableEntry>,
    views: BTreeMap<String, ViewDef>,
    /// Monotonically increasing commit counter, bumped by every successful DDL or DML
    /// operation. Plan caches key their entries to the version observed at planning time and
    /// treat any bump as an invalidation.
    version: u64,
}

/// A consistent, point-in-time view of every table in a catalog.
///
/// All table `Arc`s are captured under a single read lock, so a query scanning several tables
/// (or the same table more than once) observes one atomic state even while concurrent writers
/// commit multi-table changes. Snapshots are cheap: one refcount bump per table.
#[derive(Debug, Clone, Default)]
pub struct CatalogSnapshot {
    tables: BTreeMap<String, Arc<Relation>>,
    version: u64,
}

impl CatalogSnapshot {
    /// The table contents as of the snapshot.
    pub fn table(&self, name: &str) -> Result<Arc<Relation>, CatalogError> {
        self.tables
            .get(&Catalog::normalize(name))
            .cloned()
            .ok_or_else(|| CatalogError::NotFound(name.to_string()))
    }

    /// Does the snapshot contain this table?
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&Catalog::normalize(name))
    }

    /// Names of all tables in the snapshot, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// The catalog commit version this snapshot was taken at.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Iterate over every `(name, relation)` pair in the snapshot (names normalized, sorted).
    /// The cost-based planner walks this to collect per-table statistics.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Arc<Relation>)> {
        self.tables.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// A thread-safe catalog of tables and views.
///
/// The catalog is cheap to clone (`Arc` internally); clones share the same underlying data.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    inner: Arc<RwLock<CatalogInner>>,
}

impl Catalog {
    /// Create an empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    fn normalize(name: &str) -> String {
        name.to_ascii_lowercase()
    }

    /// Create a new, empty base table.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<(), CatalogError> {
        let key = Self::normalize(name);
        let mut inner = self.inner.write();
        if inner.tables.contains_key(&key) || inner.views.contains_key(&key) {
            return Err(CatalogError::AlreadyExists(name.to_string()));
        }
        inner.version += 1;
        let version = inner.version;
        inner.tables.insert(
            key.clone(),
            TableEntry {
                name: key,
                relation: Arc::new(Relation::empty(schema)),
                modified_version: version,
            },
        );
        Ok(())
    }

    /// Create a base table pre-populated with data.
    pub fn create_table_with_data(
        &self,
        name: &str,
        relation: Relation,
    ) -> Result<(), CatalogError> {
        let key = Self::normalize(name);
        let mut inner = self.inner.write();
        if inner.tables.contains_key(&key) || inner.views.contains_key(&key) {
            return Err(CatalogError::AlreadyExists(name.to_string()));
        }
        inner.version += 1;
        let version = inner.version;
        inner.tables.insert(
            key.clone(),
            TableEntry { name: key, relation: Arc::new(relation), modified_version: version },
        );
        Ok(())
    }

    /// Drop a table (or do nothing if it does not exist and `if_exists` is set).
    pub fn drop_table(&self, name: &str, if_exists: bool) -> Result<(), CatalogError> {
        let key = Self::normalize(name);
        let mut inner = self.inner.write();
        if inner.tables.remove(&key).is_none() {
            if !if_exists {
                return Err(CatalogError::NotFound(name.to_string()));
            }
            return Ok(());
        }
        inner.version += 1;
        Ok(())
    }

    /// One append commit on `name`: copy-on-write the relation, apply `append`, bump versions.
    fn append_to(
        &self,
        name: &str,
        append: impl FnOnce(&mut Relation) -> Result<(), AlgebraError>,
    ) -> Result<(), CatalogError> {
        let key = Self::normalize(name);
        let mut inner = self.inner.write();
        let version = inner.version + 1;
        let entry =
            inner.tables.get_mut(&key).ok_or_else(|| CatalogError::NotFound(name.to_string()))?;
        append(Arc::make_mut(&mut entry.relation))?;
        entry.modified_version = version;
        inner.version = version;
        Ok(())
    }

    /// Insert tuples into an existing table.
    pub fn insert(&self, name: &str, tuples: Vec<Tuple>) -> Result<usize, CatalogError> {
        let n = tuples.len();
        self.append_to(name, |relation| relation.extend(tuples))?;
        Ok(n)
    }

    /// Append columnar chunks (a query result) to an existing table: the `INSERT … SELECT`
    /// commit, which never boxes the result into tuples.
    pub fn insert_chunks(&self, name: &str, chunks: &[DataChunk]) -> Result<usize, CatalogError> {
        self.append_to(name, |relation| relation.append_chunks(chunks))?;
        Ok(chunks.iter().map(DataChunk::num_rows).sum())
    }

    /// Insert tuples into several tables as **one atomic commit**: a concurrent
    /// [`Catalog::snapshot`] observes either none or all of the batches, never a half-applied
    /// state. All batches are validated (table existence and tuple arity) before any of them is
    /// applied, so an error leaves the catalog unchanged.
    pub fn insert_many(&self, batches: Vec<(&str, Vec<Tuple>)>) -> Result<usize, CatalogError> {
        let mut inner = self.inner.write();
        for (name, tuples) in &batches {
            let entry = inner
                .tables
                .get(&Self::normalize(name))
                .ok_or_else(|| CatalogError::NotFound(name.to_string()))?;
            let arity = entry.relation.schema().arity();
            if let Some(t) = tuples.iter().find(|t| t.arity() != arity) {
                return Err(CatalogError::Invalid(format!(
                    "tuple of arity {} does not fit table '{name}' of arity {arity}",
                    t.arity()
                )));
            }
        }
        inner.version += 1;
        let version = inner.version;
        let mut n = 0;
        for (name, tuples) in batches {
            // Validated above under the same write lock, so the lookup cannot fail; surface
            // a structured error rather than panicking if that invariant ever breaks.
            let entry = inner.tables.get_mut(&Self::normalize(name)).ok_or_else(|| {
                CatalogError::Invalid(format!("internal: table '{name}' vanished mid-commit"))
            })?;
            n += tuples.len();
            Arc::make_mut(&mut entry.relation).extend(tuples)?;
            entry.modified_version = version;
        }
        Ok(n)
    }

    /// A consistent snapshot of every table (all `Arc`s captured under one read lock).
    ///
    /// This is what the executor reads from: queries that scan several tables — or the same
    /// table more than once, as provenance-rewritten self-joins do — see one atomic catalog
    /// state regardless of concurrent commits.
    pub fn snapshot(&self) -> CatalogSnapshot {
        let inner = self.inner.read();
        CatalogSnapshot {
            tables: inner.tables.iter().map(|(k, e)| (k.clone(), e.relation.clone())).collect(),
            version: inner.version,
        }
    }

    /// The current commit version (bumped by every successful DDL/DML operation).
    pub fn version(&self) -> u64 {
        self.inner.read().version
    }

    /// Warm the per-column statistics of every table — the equivalent of a post-bulk-load
    /// `ANALYZE`. Statistics are otherwise computed lazily by the first query that plans
    /// against a table, which charges the collection scan to that query's latency; call this
    /// after loading when first-query latency matters (benchmarks do).
    pub fn analyze(&self) {
        // Collect the Arcs under the read lock, compute outside it: stats computation scans
        // whole tables and must not block concurrent DDL/DML.
        let relations: Vec<Arc<Relation>> =
            self.inner.read().tables.values().map(|e| e.relation.clone()).collect();
        for relation in relations {
            let _ = relation.stats();
        }
    }

    /// Replace the full contents of a table (used by `SELECT INTO` style provenance storage).
    /// Stored data is plain: a result's views are decoded, as a view would pin its whole source
    /// column.
    pub fn overwrite(&self, name: &str, relation: Relation) -> Result<(), CatalogError> {
        let chunks = relation.chunks().iter().map(DataChunk::to_plain).collect();
        let relation = Arc::new(Relation::from_chunks(relation.schema().clone(), chunks));
        let key = Self::normalize(name);
        let mut inner = self.inner.write();
        inner.version += 1;
        let version = inner.version;
        match inner.tables.get_mut(&key) {
            Some(entry) => {
                entry.relation = relation;
                entry.modified_version = version;
            }
            None => {
                inner.tables.insert(
                    key.clone(),
                    TableEntry { name: key, relation, modified_version: version },
                );
            }
        }
        Ok(())
    }

    /// A snapshot of a table's contents, as an owned relation sharing the stored chunks.
    pub fn table(&self, name: &str) -> Result<Relation, CatalogError> {
        self.table_arc(name).map(|r| (*r).clone())
    }

    /// A zero-copy snapshot of a table's contents.
    ///
    /// The returned [`Arc`] observes the table as of the call; later inserts or overwrites do
    /// not affect it (copy-on-write). This is what the executor scans from.
    pub fn table_arc(&self, name: &str) -> Result<Arc<Relation>, CatalogError> {
        let key = Self::normalize(name);
        let inner = self.inner.read();
        inner
            .tables
            .get(&key)
            .map(|e| e.relation.clone())
            .ok_or_else(|| CatalogError::NotFound(name.to_string()))
    }

    /// The schema of a table.
    pub fn table_schema(&self, name: &str) -> Result<Schema, CatalogError> {
        let key = Self::normalize(name);
        let inner = self.inner.read();
        inner
            .tables
            .get(&key)
            .map(|e| e.relation.schema().clone())
            .ok_or_else(|| CatalogError::NotFound(name.to_string()))
    }

    /// Does a table with this name exist?
    pub fn has_table(&self, name: &str) -> bool {
        self.inner.read().tables.contains_key(&Self::normalize(name))
    }

    /// Number of rows currently stored in a table.
    pub fn table_row_count(&self, name: &str) -> Result<usize, CatalogError> {
        let key = Self::normalize(name);
        let inner = self.inner.read();
        inner
            .tables
            .get(&key)
            .map(|e| e.relation.num_rows())
            .ok_or_else(|| CatalogError::NotFound(name.to_string()))
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.inner.read().tables.keys().cloned().collect()
    }

    /// Register a view.
    pub fn create_view(&self, name: &str, sql: &str) -> Result<(), CatalogError> {
        let key = Self::normalize(name);
        let mut inner = self.inner.write();
        if inner.tables.contains_key(&key) || inner.views.contains_key(&key) {
            return Err(CatalogError::AlreadyExists(name.to_string()));
        }
        inner.views.insert(key.clone(), ViewDef { name: key, sql: sql.to_string() });
        inner.version += 1;
        Ok(())
    }

    /// Drop a view.
    pub fn drop_view(&self, name: &str, if_exists: bool) -> Result<(), CatalogError> {
        let key = Self::normalize(name);
        let mut inner = self.inner.write();
        if inner.views.remove(&key).is_none() {
            if !if_exists {
                return Err(CatalogError::NotFound(name.to_string()));
            }
            return Ok(());
        }
        inner.version += 1;
        Ok(())
    }

    /// Look up a view definition.
    pub fn view(&self, name: &str) -> Option<ViewDef> {
        self.inner.read().views.get(&Self::normalize(name)).cloned()
    }

    /// Does a view with this name exist?
    pub fn has_view(&self, name: &str) -> bool {
        self.inner.read().views.contains_key(&Self::normalize(name))
    }

    /// Names of all views, sorted.
    pub fn view_names(&self) -> Vec<String> {
        self.inner.read().views.keys().cloned().collect()
    }

    /// Total number of stored tuples across all tables (used by benchmark reports).
    pub fn total_rows(&self) -> usize {
        self.inner.read().tables.values().map(|e| e.relation.num_rows()).sum()
    }

    /// Per-table row counts, resident bytes and statistics freshness, sorted by name. One read
    /// lock: every entry describes the same catalog instant, alongside [`Catalog::version`]
    /// (a table whose `modified_version` equals the current version changed in the latest
    /// commit; older values tell exactly how stale a cached estimate could be).
    pub fn table_infos(&self) -> Vec<TableInfo> {
        let inner = self.inner.read();
        inner
            .tables
            .values()
            .map(|e| TableInfo {
                name: e.name.clone(),
                rows: e.relation.num_rows(),
                bytes: e.relation.byte_size(),
                modified_version: e.modified_version,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_algebra::{tuple, DataType, DEFAULT_CHUNK_SIZE};

    fn items_schema() -> Schema {
        Schema::from_pairs(&[("id", DataType::Int), ("price", DataType::Int)])
    }

    #[test]
    fn create_insert_and_read_back() {
        let catalog = Catalog::new();
        catalog.create_table("items", items_schema()).unwrap();
        catalog.insert("items", vec![tuple![1, 100], tuple![2, 10]]).unwrap();
        let rel = catalog.table("items").unwrap();
        assert_eq!(rel.num_rows(), 2);
        assert_eq!(catalog.table_row_count("items").unwrap(), 2);
        assert!(catalog.has_table("ITEMS"), "names are case-insensitive");
    }

    #[test]
    fn duplicate_table_rejected() {
        let catalog = Catalog::new();
        catalog.create_table("items", items_schema()).unwrap();
        assert!(matches!(
            catalog.create_table("Items", items_schema()),
            Err(CatalogError::AlreadyExists(_))
        ));
    }

    #[test]
    fn missing_table_errors() {
        let catalog = Catalog::new();
        assert!(matches!(catalog.table("ghost"), Err(CatalogError::NotFound(_))));
        assert!(matches!(catalog.insert("ghost", vec![]), Err(CatalogError::NotFound(_))));
        assert!(catalog.drop_table("ghost", true).is_ok());
        assert!(catalog.drop_table("ghost", false).is_err());
    }

    #[test]
    fn views_are_registered_and_unfoldable_by_name() {
        let catalog = Catalog::new();
        catalog
            .create_view("totalitemprice", "SELECT PROVENANCE sum(price) AS total FROM items")
            .unwrap();
        let v = catalog.view("TotalItemPrice").unwrap();
        assert!(v.sql.contains("PROVENANCE"));
        assert!(catalog.has_view("totalitemprice"));
        assert!(!catalog.has_view("other"));
        catalog.drop_view("totalitemprice", false).unwrap();
        assert!(!catalog.has_view("totalitemprice"));
    }

    #[test]
    fn view_and_table_names_share_a_namespace() {
        let catalog = Catalog::new();
        catalog.create_table("x", items_schema()).unwrap();
        assert!(catalog.create_view("x", "SELECT 1").is_err());
    }

    #[test]
    fn overwrite_creates_or_replaces() {
        let catalog = Catalog::new();
        let rel = Relation::new(items_schema(), vec![tuple![1, 5]]).unwrap();
        catalog.overwrite("stored_prov", rel.clone()).unwrap();
        assert_eq!(catalog.table("stored_prov").unwrap().num_rows(), 1);
        let rel2 = Relation::new(items_schema(), vec![tuple![1, 5], tuple![2, 6]]).unwrap();
        catalog.overwrite("stored_prov", rel2).unwrap();
        assert_eq!(catalog.table("stored_prov").unwrap().num_rows(), 2);
    }

    #[test]
    fn clones_share_state() {
        let catalog = Catalog::new();
        let clone = catalog.clone();
        catalog.create_table("items", items_schema()).unwrap();
        assert!(clone.has_table("items"));
        clone.insert("items", vec![tuple![1, 1]]).unwrap();
        assert_eq!(catalog.table_row_count("items").unwrap(), 1);
    }

    #[test]
    fn insert_rejects_wrong_arity() {
        let catalog = Catalog::new();
        catalog.create_table("items", items_schema()).unwrap();
        assert!(catalog.insert("items", vec![tuple![1]]).is_err());
    }

    #[test]
    fn version_bumps_on_every_commit() {
        let catalog = Catalog::new();
        let v0 = catalog.version();
        catalog.create_table("items", items_schema()).unwrap();
        let v1 = catalog.version();
        assert!(v1 > v0);
        catalog.insert("items", vec![tuple![1, 5]]).unwrap();
        let v2 = catalog.version();
        assert!(v2 > v1);
        catalog.create_view("v", "SELECT 1").unwrap();
        catalog.drop_view("v", false).unwrap();
        catalog.drop_table("items", false).unwrap();
        assert!(catalog.version() > v2);
        // Failed and no-op operations do not commit.
        let v = catalog.version();
        assert!(catalog.insert("ghost", vec![]).is_err());
        catalog.drop_table("ghost", true).unwrap();
        assert_eq!(catalog.version(), v);
    }

    #[test]
    fn table_infos_track_per_table_freshness() {
        let catalog = Catalog::new();
        catalog.create_table("a", items_schema()).unwrap();
        catalog.create_table("b", items_schema()).unwrap();
        catalog.insert("a", vec![tuple![1, 1]]).unwrap();
        let infos = catalog.table_infos();
        assert_eq!(infos.len(), 2);
        let a = infos.iter().find(|i| i.name == "a").unwrap();
        let b = infos.iter().find(|i| i.name == "b").unwrap();
        assert_eq!(a.rows, 1);
        assert_eq!(b.rows, 0);
        assert_eq!(a.bytes, catalog.table_arc("a").unwrap().byte_size());
        assert!(a.bytes > 0 && b.bytes == 0);
        assert_eq!(a.modified_version, catalog.version(), "a changed in the latest commit");
        assert!(b.modified_version < a.modified_version, "b is stale relative to a");
        // A view commit bumps the catalog version but no table's freshness.
        catalog.create_view("v", "SELECT 1").unwrap();
        let after = catalog.table_infos();
        assert_eq!(
            after.iter().find(|i| i.name == "a").unwrap().modified_version,
            a.modified_version
        );
        assert!(catalog.version() > a.modified_version);
    }

    #[test]
    fn snapshot_is_immune_to_later_commits() {
        let catalog = Catalog::new();
        catalog.create_table("items", items_schema()).unwrap();
        catalog.insert("items", vec![tuple![1, 5]]).unwrap();
        let snap = catalog.snapshot();
        catalog.insert("items", vec![tuple![2, 6]]).unwrap();
        assert_eq!(snap.table("items").unwrap().num_rows(), 1);
        assert_eq!(catalog.table("items").unwrap().num_rows(), 2);
        assert!(snap.version() < catalog.version());
        assert!(snap.has_table("ITEMS"), "snapshot lookups are case-insensitive");
        assert!(matches!(snap.table("ghost"), Err(CatalogError::NotFound(_))));
    }

    #[test]
    fn insert_many_is_all_or_nothing() {
        let catalog = Catalog::new();
        catalog.create_table("a", items_schema()).unwrap();
        catalog.create_table("b", items_schema()).unwrap();
        let n = catalog
            .insert_many(vec![("a", vec![tuple![1, 1]]), ("b", vec![tuple![2, 2], tuple![3, 3]])])
            .unwrap();
        assert_eq!(n, 3);
        assert_eq!(catalog.table_row_count("a").unwrap(), 1);
        assert_eq!(catalog.table_row_count("b").unwrap(), 2);
        // A bad second batch must leave the first untouched.
        let v = catalog.version();
        assert!(catalog
            .insert_many(vec![("a", vec![tuple![4, 4]]), ("b", vec![tuple![5]])])
            .is_err());
        assert_eq!(catalog.table_row_count("a").unwrap(), 1);
        assert_eq!(catalog.version(), v);
        assert!(catalog.insert_many(vec![("ghost", vec![])]).is_err());
    }

    fn items(range: std::ops::Range<usize>) -> Vec<Tuple> {
        range.map(|i| tuple![i as i64, (i % 7) as i64]).collect()
    }

    /// A copy-on-write commit under a reader is O(chunks): the reader's snapshot is unchanged,
    /// the new version shares every full chunk by pointer and rebuilds only the tail.
    #[test]
    fn insert_under_a_reader_shares_full_chunks_and_rebuilds_the_tail() {
        let rows = 9 * DEFAULT_CHUNK_SIZE + 500;
        let catalog = Catalog::new();
        catalog
            .create_table_with_data("t", Relation::from_parts(items_schema(), items(0..rows)))
            .unwrap();
        let reader = catalog.table_arc("t").unwrap();
        let before = reader.chunks();
        assert_eq!(before.len(), 10);

        catalog.insert("t", vec![tuple![-1, -1]]).unwrap();

        assert_eq!(reader.num_rows(), rows);
        assert!(Arc::ptr_eq(&before, &reader.chunks()));
        assert_eq!(before[9].num_rows(), 500);
        let after = catalog.table_arc("t").unwrap().chunks();
        assert_eq!(after.len(), 10);
        for (old, new) in before.iter().zip(after.iter()).take(9) {
            for (a, b) in old.columns().iter().zip(new.columns()) {
                assert!(Arc::ptr_eq(a, b), "full chunks are shared, not copied");
            }
        }
        assert!(!Arc::ptr_eq(before[9].column(0), after[9].column(0)));
        assert_eq!(after[9].num_rows(), 501);
        assert_eq!(after[9].tuple_at(500), tuple![-1, -1]);
    }

    /// The `INSERT … SELECT` commit takes the result's chunks as they are.
    #[test]
    fn insert_chunks_appends_a_result_without_rows() {
        let catalog = Catalog::new();
        catalog.create_table("t", items_schema()).unwrap();
        catalog.insert("t", items(0..10)).unwrap();
        let result = Relation::from_parts(items_schema(), items(10..3010));
        let v = catalog.version();
        assert_eq!(catalog.insert_chunks("t", &result.chunks()).unwrap(), 3000);
        assert_eq!(catalog.version(), v + 1);
        let stored = catalog.table_arc("t").unwrap();
        assert_eq!(stored.num_rows(), 3010);
        assert_eq!(
            *stored.chunks(),
            *Relation::from_parts(items_schema(), items(0..3010)).chunks()
        );
        // Wrong arity and unknown tables fail without committing.
        let narrow = Relation::from_parts(Schema::from_pairs(&[("x", DataType::Int)]), vec![]);
        assert!(catalog.insert_chunks("ghost", &narrow.chunks()).is_err());
        let narrow = Relation::new(narrow.schema().clone(), vec![tuple![1]]).unwrap();
        assert!(catalog.insert_chunks("t", &narrow.chunks()).is_err());
        assert_eq!(catalog.version(), v + 1);
        assert_eq!(catalog.table_row_count("t").unwrap(), 3010);
    }

    /// `insert` / `insert_many` across the 1023 / 1024 / 1025 boundary store the same chunks,
    /// row for row, as a table loaded in one go, and drop the statistics.
    #[test]
    fn inserts_across_the_chunk_boundary_match_a_bulk_load() {
        for total in [DEFAULT_CHUNK_SIZE - 1, DEFAULT_CHUNK_SIZE, DEFAULT_CHUNK_SIZE + 1] {
            let bulk = Relation::from_parts(items_schema(), items(0..total));
            let catalog = Catalog::new();
            for table in ["a", "b"] {
                let seed = Relation::from_parts(items_schema(), items(0..total - 2));
                catalog.create_table_with_data(table, seed).unwrap();
            }
            catalog.analyze();
            catalog.insert("a", items(total - 2..total - 1)).unwrap();
            catalog.insert("a", items(total - 1..total)).unwrap();
            catalog.insert_many(vec![("b", items(total - 2..total))]).unwrap();
            for table in ["a", "b"] {
                let stored = catalog.table_arc(table).unwrap();
                assert_eq!(stored.num_rows(), total);
                assert_eq!(*stored.chunks(), *bulk.chunks(), "{table} at {total} rows");
                assert_eq!(stored.stats().row_count, total as u64, "statistics were recollected");
            }
        }
    }
}

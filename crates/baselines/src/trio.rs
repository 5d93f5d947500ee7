//! A Trio-style eager lineage baseline.
//!
//! Trio (Agrawal et al., 2006) computes the provenance of a query *during* execution and stores
//! it in lineage relations; tracing the provenance of a tuple later performs iterative lookups
//! through these lineage relations, one derivation level at a time. This module reproduces that
//! cost structure on top of the same storage/executor substrate that Perm uses, so that the
//! Figure 15 comparison measures the architectural difference (eager materialised lineage with
//! tuple-at-a-time tracing vs. Perm's lazy set-oriented query rewriting) rather than differences
//! in engine quality.
//!
//! Like Trio's published prototype, the baseline supports select-project-join queries and single
//! set operations; aggregation and sublinks are not supported (the paper notes the same
//! restriction, which is why the §V-C comparison uses simple selections).

use std::collections::HashMap;

use perm_algebra::{Schema, Tuple};
use perm_core::{PermDb, PermError};
use perm_storage::{Catalog, Relation};

/// One lineage fact: result row `result_row` of a derived table was produced (in part) from
/// `source_row` of `source_table`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineageEntry {
    /// Index of the result tuple in the derived table.
    pub result_row: usize,
    /// Name of the source table (a base table or a previously derived table).
    pub source_table: String,
    /// Index of the contributing tuple in the source table.
    pub source_row: usize,
}

/// The lineage relation of one derived table.
#[derive(Debug, Clone, Default)]
pub struct LineageTable {
    entries: Vec<LineageEntry>,
}

impl LineageTable {
    /// All lineage entries.
    pub fn entries(&self) -> &[LineageEntry] {
        &self.entries
    }

    /// The lineage entries of one result row.
    pub fn for_row(&self, result_row: usize) -> impl Iterator<Item = &LineageEntry> {
        self.entries.iter().filter(move |e| e.result_row == result_row)
    }

    /// Number of stored lineage facts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the lineage relation empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A provenance fact returned by tracing: a contributing base tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedTuple {
    /// The base (or derived, when tracing stops early) table the tuple belongs to.
    pub table: String,
    /// The row index within that table.
    pub row: usize,
    /// The tuple itself.
    pub tuple: Tuple,
}

/// A Trio-style provenance management system: eager lineage computation at derivation time,
/// iterative lineage tracing at query time.
#[derive(Debug)]
pub struct TrioStyleDb {
    db: PermDb,
    lineage: HashMap<String, LineageTable>,
    /// Tables that were created by [`TrioStyleDb::derive_table`] (everything else is a base
    /// table and terminates tracing).
    derived: Vec<String>,
}

impl TrioStyleDb {
    /// Create a Trio-style database over an existing catalog (shares the stored data).
    pub fn new(catalog: Catalog) -> TrioStyleDb {
        TrioStyleDb {
            db: PermDb::with_catalog(catalog, Default::default()),
            lineage: HashMap::new(),
            derived: Vec::new(),
        }
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        self.db.catalog()
    }

    /// Execute `sql` (a select-project-join query or single set operation), materialise its
    /// result as table `name` and **eagerly** record its lineage relation.
    ///
    /// This is the expensive step of the Trio architecture: provenance is computed and stored
    /// whether or not it is ever queried.
    pub fn derive_table(&mut self, name: &str, sql: &str) -> Result<usize, PermError> {
        // Compute result plus provenance in one pass (this stands in for Trio's instrumented
        // execution) and split it into the materialised result and the lineage relation.
        let annotated = self.db.provenance_of_query(sql)?;
        let schema = annotated.schema().clone();
        let normal_positions = schema.normal_indices();
        let prov_positions = schema.provenance_indices();

        // Group provenance columns by the base relation reference they were derived from. The
        // rewriter appends one group per base-relation reference, in plan pre-order, so the
        // groups can be recovered from the analyzed plan's relation list and arities.
        let plan = self.db.analyzer().analyze_query_sql(sql)?;
        let base_refs: Vec<(String, usize)> = plan
            .base_relations()
            .iter()
            .filter_map(|p| match p {
                perm_algebra::LogicalPlan::BaseRelation { name, schema, .. } => {
                    Some((name.to_string(), schema.arity()))
                }
                _ => None,
            })
            .collect();
        let groups = group_provenance_columns(&prov_positions, &base_refs)?;

        // Materialise the result table (distinct original tuples, in first-appearance order —
        // Trio stores each derived tuple once and hangs lineage off it).
        let mut result_rows: Vec<Tuple> = Vec::new();
        let mut row_index: HashMap<Tuple, usize> = HashMap::new();
        let mut lineage = LineageTable::default();

        // Pre-build per-source-table tuple → row-index maps for lineage resolution.
        let mut source_indexes: HashMap<String, HashMap<Tuple, usize>> = HashMap::new();
        for (table, _) in &groups {
            if !source_indexes.contains_key(table) {
                let rel = self.db.catalog().table(table)?;
                let mut index = HashMap::new();
                for (i, t) in rel.iter().enumerate() {
                    index.entry(t).or_insert(i);
                }
                source_indexes.insert(table.clone(), index);
            }
        }

        for row in annotated.iter() {
            let original = row.project(&normal_positions);
            let result_row = match row_index.get(&original) {
                Some(&i) => i,
                None => {
                    let i = result_rows.len();
                    row_index.insert(original.clone(), i);
                    result_rows.push(original);
                    i
                }
            };
            for (table, positions) in &groups {
                let source_tuple = row.project(positions);
                if source_tuple.values().iter().all(|v| v.is_null()) {
                    continue; // outer-join padding: no contribution from this relation
                }
                if let Some(&source_row) =
                    source_indexes.get(table).and_then(|idx| idx.get(&source_tuple))
                {
                    let entry =
                        LineageEntry { result_row, source_table: table.clone(), source_row };
                    if !lineage.entries.contains(&entry) {
                        lineage.entries.push(entry);
                    }
                }
            }
        }

        let result_schema =
            Schema::new(normal_positions.iter().map(|&i| schema.attributes()[i].clone()).collect());
        let rows = result_rows.len();
        self.db.catalog().overwrite(name, Relation::from_parts(result_schema, result_rows))?;

        // Materialise the lineage relation as an ordinary table, exactly like Trio does: later
        // tracing queries it through SQL, one result tuple at a time.
        let lineage_schema = Schema::from_pairs(&[
            ("result_row", perm_algebra::DataType::Int),
            ("source_table", perm_algebra::DataType::Text),
            ("source_row", perm_algebra::DataType::Int),
        ]);
        let lineage_rows: Vec<Tuple> = lineage
            .entries
            .iter()
            .map(|e| {
                Tuple::new(vec![
                    perm_algebra::Value::Int(e.result_row as i64),
                    perm_algebra::Value::text(e.source_table.clone()),
                    perm_algebra::Value::Int(e.source_row as i64),
                ])
            })
            .collect();
        self.db.catalog().overwrite(
            &lineage_table_name(name),
            Relation::from_parts(lineage_schema, lineage_rows),
        )?;

        self.lineage.insert(name.to_ascii_lowercase(), lineage);
        self.derived.push(name.to_ascii_lowercase());
        Ok(rows)
    }

    /// The stored lineage relation of a derived table.
    pub fn lineage_of(&self, table: &str) -> Option<&LineageTable> {
        self.lineage.get(&table.to_ascii_lowercase())
    }

    /// Trace the provenance of one tuple of a derived table down to base tables, iteratively
    /// following lineage relations one level at a time (Trio's tracing strategy).
    ///
    /// Each step issues an SQL query against the stored lineage relation of the current level —
    /// the tuple-at-a-time access pattern that the Figure 15 comparison contrasts with Perm's
    /// single set-oriented rewritten query.
    pub fn trace(&self, table: &str, row: usize) -> Result<Vec<TracedTuple>, PermError> {
        let mut out = Vec::new();
        let mut frontier = vec![(table.to_ascii_lowercase(), row)];
        while let Some((current_table, current_row)) = frontier.pop() {
            if self.lineage.contains_key(&current_table) {
                // A derived table: query its stored lineage relation for this one result row.
                let lineage_sql = format!(
                    "SELECT source_table, source_row FROM {} WHERE result_row = {current_row}",
                    lineage_table_name(&current_table)
                );
                let entries = self.db.execute_sql(&lineage_sql)?;
                for entry in entries.iter() {
                    let source_table = entry[0].to_string();
                    let source_row = entry[1].as_i64().unwrap_or(0) as usize;
                    frontier.push((source_table, source_row));
                }
            } else {
                // A base table: fetch the tuple itself (tuple-at-a-time, as Trio does).
                let rel = self.db.catalog().table(&current_table)?;
                let tuple = rel
                    .tuple_at(current_row)
                    .ok_or_else(|| PermError::Other(format!(
                        "lineage points to row {current_row} of '{current_table}', which does not exist"
                    )))?;
                out.push(TracedTuple { table: current_table.clone(), row: current_row, tuple });
            }
        }
        Ok(out)
    }

    /// Trace the provenance of *every* tuple of a derived table (the operation measured in the
    /// Figure 15 comparison). Returns, per result row, the list of contributing base tuples.
    pub fn trace_all(&self, table: &str) -> Result<Vec<Vec<TracedTuple>>, PermError> {
        let rel = self.db.catalog().table(table)?;
        (0..rel.num_rows()).map(|row| self.trace(table, row)).collect()
    }

    /// Names of all derived tables, in derivation order.
    pub fn derived_tables(&self) -> &[String] {
        &self.derived
    }
}

/// Name of the stored lineage relation of a derived table.
fn lineage_table_name(table: &str) -> String {
    format!("{}__lineage", table.to_ascii_lowercase())
}

/// Group provenance attribute positions by the base relation reference they belong to.
///
/// The provenance rewriter appends one contiguous group of provenance attributes per base
/// relation reference, in plan pre-order; `base_refs` lists those references with their arities,
/// so the groups are simply consecutive runs of the corresponding widths.
fn group_provenance_columns(
    prov_positions: &[usize],
    base_refs: &[(String, usize)],
) -> Result<Vec<(String, Vec<usize>)>, PermError> {
    let expected: usize = base_refs.iter().map(|(_, arity)| arity).sum();
    if expected != prov_positions.len() {
        return Err(PermError::Other(format!(
            "cannot align {} provenance columns with base relations of total arity {expected}; \
             the Trio-style baseline supports select-project-join queries over base tables only",
            prov_positions.len()
        )));
    }
    let mut groups = Vec::with_capacity(base_refs.len());
    let mut cursor = 0;
    for (name, arity) in base_refs {
        groups.push((name.clone(), prov_positions[cursor..cursor + arity].to_vec()));
        cursor += arity;
    }
    Ok(groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_algebra::{tuple, DataType, Value};

    fn catalog() -> Catalog {
        let catalog = Catalog::new();
        catalog
            .create_table_with_data(
                "supplier",
                Relation::new(
                    Schema::from_pairs(&[("s_suppkey", DataType::Int), ("s_name", DataType::Text)]),
                    (1..=10).map(|i| tuple![i, format!("Supplier#{i}")]).collect(),
                )
                .unwrap(),
            )
            .unwrap();
        catalog
            .create_table_with_data(
                "nation",
                Relation::new(
                    Schema::from_pairs(&[
                        ("n_nationkey", DataType::Int),
                        ("n_name", DataType::Text),
                    ]),
                    vec![tuple![0, "GERMANY"], tuple![1, "FRANCE"]],
                )
                .unwrap(),
            )
            .unwrap();
        catalog
    }

    #[test]
    fn derive_and_trace_simple_selection() {
        let mut trio = TrioStyleDb::new(catalog());
        let rows = trio
            .derive_table(
                "small_suppliers",
                "SELECT s_suppkey, s_name FROM supplier WHERE s_suppkey <= 3",
            )
            .unwrap();
        assert_eq!(rows, 3);
        let lineage = trio.lineage_of("small_suppliers").unwrap();
        assert_eq!(lineage.len(), 3);
        let traced = trio.trace("small_suppliers", 0).unwrap();
        assert_eq!(traced.len(), 1);
        assert_eq!(traced[0].table, "supplier");
        assert_eq!(traced[0].tuple[0], Value::Int(1));
    }

    #[test]
    fn derive_join_has_lineage_from_both_relations() {
        let mut trio = TrioStyleDb::new(catalog());
        trio.derive_table(
            "sup_nation",
            "SELECT s_name, n_name FROM supplier, nation WHERE s_suppkey % 2 = n_nationkey",
        )
        .unwrap();
        let all = trio.trace_all("sup_nation").unwrap();
        assert_eq!(all.len(), 10);
        for contributors in &all {
            let tables: Vec<&str> = contributors.iter().map(|t| t.table.as_str()).collect();
            assert!(tables.contains(&"supplier"));
            assert!(tables.contains(&"nation"));
        }
    }

    #[test]
    fn multi_level_derivation_traces_to_base_tables() {
        let mut trio = TrioStyleDb::new(catalog());
        trio.derive_table("level1", "SELECT s_suppkey, s_name FROM supplier WHERE s_suppkey <= 5")
            .unwrap();
        trio.derive_table("level2", "SELECT s_suppkey FROM level1 WHERE s_suppkey >= 4").unwrap();
        let traced = trio.trace("level2", 0).unwrap();
        // Tracing level2 row 0 goes through level1 down to the supplier base table.
        assert_eq!(traced.len(), 1);
        assert_eq!(traced[0].table, "supplier");
        assert!(matches!(traced[0].tuple[0], Value::Int(4 | 5)));
        assert_eq!(trio.derived_tables(), &["level1".to_string(), "level2".to_string()]);
    }

    #[test]
    fn tracing_missing_rows_is_an_error() {
        let mut trio = TrioStyleDb::new(catalog());
        trio.derive_table("d", "SELECT s_suppkey FROM supplier WHERE s_suppkey = 1").unwrap();
        assert!(
            trio.trace("d", 99).is_ok_and(|v| v.is_empty()),
            "no lineage entries for unknown rows"
        );
    }
}

//! The provenance attribute naming scheme of the paper (§IV-A.1).
//!
//! A provenance attribute name consists of the fixed prefix `prov_`, the name of the base
//! relation the attribute is derived from, and the original attribute name, separated by
//! underscores. If a relation is referenced more than once in a query, an identifying number is
//! attached to the relation name (`prov_items_1_price` for the second reference to `items`).

use std::collections::{HashMap, HashSet};

use perm_algebra::Name;

/// Generates unique provenance attribute names within one query rewrite.
#[derive(Debug, Default, Clone)]
pub struct ProvenanceNaming {
    reference_counts: HashMap<String, usize>,
    /// Every provenance attribute name handed out (or reserved) so far in this rewrite.
    taken: HashSet<Name>,
}

impl ProvenanceNaming {
    /// Create a fresh naming context (one per rewritten query).
    pub fn new() -> ProvenanceNaming {
        ProvenanceNaming::default()
    }

    /// Reserve the next prefix for a reference to `relation` whose attributes are `attributes`,
    /// and return the reference's provenance attribute names, one per attribute, in order.
    ///
    /// The first reference to `items` yields the prefix `prov_items`, the second `prov_items_1`,
    /// and so on. The scheme alone can hand out one name twice in a query — the second
    /// reference to `t` and the first to `t_1` both name their `x` `prov_t_1_x`, and `t(a_b)`
    /// and `t_a(b)` both give `prov_t_a_b` — so a reference's number goes up until none of its
    /// names is taken. Names that do not collide follow the paper's scheme unchanged. Each name
    /// is allocated once; the plan shares it.
    pub fn next_names(&mut self, relation: &str, attributes: &[Name]) -> Vec<Name> {
        let relation = sanitize(relation);
        let count = self.reference_counts.entry(relation.clone()).or_insert(0);
        loop {
            let prefix = if *count == 0 {
                format!("prov_{relation}")
            } else {
                format!("prov_{relation}_{count}")
            };
            *count += 1;
            let names: Vec<Name> =
                attributes.iter().map(|a| Self::attribute_name(&prefix, a).into()).collect();
            if !names.iter().any(|name| self.taken.contains(name)) {
                self.taken.extend(names.iter().cloned());
                return names;
            }
        }
    }

    /// Mark names as taken without generating them: the P-list of an input that is already
    /// rewritten (`PROVENANCE (attrs)`) keeps its stored names.
    pub fn reserve(&mut self, names: impl IntoIterator<Item = Name>) {
        self.taken.extend(names);
    }

    /// The full provenance attribute name for `attribute` of a reference with `prefix`.
    pub fn attribute_name(prefix: &str, attribute: &str) -> String {
        format!("{prefix}_{}", sanitize(attribute))
    }
}

fn sanitize(name: &str) -> String {
    name.to_ascii_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &[&str]) -> Vec<Name> {
        list.iter().map(|&n| Name::from(n)).collect()
    }

    fn prefixed(naming: &mut ProvenanceNaming, relation: &str, attributes: &[&str]) -> Vec<String> {
        naming.next_names(relation, &names(attributes)).iter().map(|n| n.to_string()).collect()
    }

    #[test]
    fn first_and_repeated_references() {
        let mut naming = ProvenanceNaming::new();
        assert_eq!(prefixed(&mut naming, "shop", &["name"]), ["prov_shop_name"]);
        assert_eq!(prefixed(&mut naming, "items", &["id"]), ["prov_items_id"]);
        assert_eq!(prefixed(&mut naming, "items", &["id"]), ["prov_items_1_id"]);
        assert_eq!(prefixed(&mut naming, "items", &["id"]), ["prov_items_2_id"]);
        assert_eq!(prefixed(&mut naming, "shop", &["name"]), ["prov_shop_1_name"]);
    }

    #[test]
    fn attribute_names_follow_the_paper_scheme() {
        let mut naming = ProvenanceNaming::new();
        assert_eq!(
            prefixed(&mut naming, "sales", &["sName", "itemid"]),
            ["prov_sales_sname", "prov_sales_itemid"]
        );
        assert_eq!(ProvenanceNaming::attribute_name("prov_sales", "sName"), "prov_sales_sname");
    }

    #[test]
    fn odd_characters_are_sanitised() {
        let mut naming = ProvenanceNaming::new();
        assert_eq!(prefixed(&mut naming, "my table", &["a b"]), ["prov_my_table_a_b"]);
    }

    /// The second reference to `t` and the first to `t_1` would both name their `x`
    /// `prov_t_1_x`: the later one moves on to the next free number.
    #[test]
    fn a_numbered_reference_does_not_take_another_relations_name() {
        let mut naming = ProvenanceNaming::new();
        assert_eq!(prefixed(&mut naming, "t", &["x"]), ["prov_t_x"]);
        assert_eq!(prefixed(&mut naming, "t", &["x"]), ["prov_t_1_x"]);
        assert_eq!(prefixed(&mut naming, "t_1", &["x"]), ["prov_t_1_1_x"]);
        // Taken the other way round, `t`'s second reference skips to 2.
        let mut naming = ProvenanceNaming::new();
        assert_eq!(prefixed(&mut naming, "t_1", &["x"]), ["prov_t_1_x"]);
        assert_eq!(prefixed(&mut naming, "t", &["x"]), ["prov_t_x"]);
        assert_eq!(prefixed(&mut naming, "t", &["x"]), ["prov_t_2_x"]);
    }

    /// `t(a_b)` and `t_a(b)` both spell `prov_t_a_b`; one attribute clashing renumbers the
    /// whole reference, so its names keep one prefix.
    #[test]
    fn underscores_in_relation_and_attribute_names_do_not_collide() {
        let mut naming = ProvenanceNaming::new();
        assert_eq!(prefixed(&mut naming, "t", &["a_b"]), ["prov_t_a_b"]);
        assert_eq!(prefixed(&mut naming, "t_a", &["c", "b"]), ["prov_t_a_1_c", "prov_t_a_1_b"]);
    }

    #[test]
    fn reserved_names_are_not_handed_out() {
        let mut naming = ProvenanceNaming::new();
        naming.reserve(names(&["prov_items_id"]));
        assert_eq!(prefixed(&mut naming, "items", &["id"]), ["prov_items_1_id"]);
    }

    #[test]
    fn names_that_do_not_collide_are_allocated_once_and_shared() {
        let mut naming = ProvenanceNaming::new();
        let handed_out = naming.next_names("items", &names(&["id"]));
        let kept = naming.taken.get("prov_items_id").unwrap();
        assert!(std::sync::Arc::ptr_eq(&handed_out[0], kept));
    }
}

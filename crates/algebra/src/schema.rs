//! Schemas: ordered lists of named, typed attributes.
//!
//! Attributes carry an optional *qualifier* (the base relation or subquery alias they come from)
//! so that the SQL analyzer can resolve qualified references, and a *provenance flag* used by the
//! Perm rewriter and the SQL-PLE `PROVENANCE (attrs)` clause to recognise provenance attributes
//! of already-rewritten inputs.

use std::fmt;
use std::sync::Arc;

use crate::error::AlgebraError;
use crate::value::DataType;

/// A name held by a schema or a plan: an attribute, a qualifier, a relation or an alias.
///
/// Names are shared, not owned: each is allocated once — by the catalog, the analyzer or the
/// provenance rewriter — and every schema, expression and plan node that repeats it holds a
/// pointer. A provenance plan repeats its P-list at every operator, so copying a name is a
/// refcount bump rather than a heap string.
pub type Name = Arc<str>;

/// A single attribute (column) of a relation schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Attribute {
    /// Attribute name (case-normalised to lower case by the SQL layer).
    pub name: Name,
    /// Data type of the attribute.
    pub data_type: DataType,
    /// Relation name or subquery alias this attribute is visible under, if any.
    pub qualifier: Option<Name>,
    /// Whether this attribute is a provenance attribute (`prov_<rel>_<attr>` in the paper's
    /// naming scheme). Set by the provenance rewriter and by `PROVENANCE (attrs)` declarations.
    pub provenance: bool,
}

impl Attribute {
    /// Create a plain (non-provenance, unqualified) attribute.
    pub fn new(name: impl Into<Name>, data_type: DataType) -> Attribute {
        Attribute { name: name.into(), data_type, qualifier: None, provenance: false }
    }

    /// Create an attribute qualified by a relation name or alias.
    pub fn qualified(
        qualifier: impl Into<Name>,
        name: impl Into<Name>,
        data_type: DataType,
    ) -> Attribute {
        Attribute {
            name: name.into(),
            data_type,
            qualifier: Some(qualifier.into()),
            provenance: false,
        }
    }

    /// Returns a copy marked as a provenance attribute.
    pub fn as_provenance(mut self) -> Attribute {
        self.provenance = true;
        self
    }

    /// Returns a copy with a different qualifier.
    pub fn with_qualifier(mut self, qualifier: impl Into<Name>) -> Attribute {
        self.qualifier = Some(qualifier.into());
        self
    }

    /// Returns a copy with a different name.
    pub fn renamed(mut self, name: impl Into<Name>) -> Attribute {
        self.name = name.into();
        self
    }

    /// Does `reference` (either `name` or `qualifier.name`) refer to this attribute?
    pub fn matches(&self, reference: &str) -> bool {
        match reference.split_once('.') {
            Some((qual, name)) => {
                self.name.eq_ignore_ascii_case(name)
                    && self.qualifier.as_deref().is_some_and(|q| q.eq_ignore_ascii_case(qual))
            }
            None => self.name.eq_ignore_ascii_case(reference),
        }
    }

    /// Fully qualified display name.
    pub fn qualified_name(&self) -> String {
        match &self.qualifier {
            Some(q) => format!("{q}.{}", self.name),
            None => self.name.to_string(),
        }
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.qualified_name(), self.data_type)?;
        if self.provenance {
            write!(f, " [prov]")?;
        }
        Ok(())
    }
}

/// An ordered list of attributes describing a relation or query result.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    attributes: Vec<Attribute>,
}

impl Schema {
    /// Create a schema from attributes.
    pub fn new(attributes: Vec<Attribute>) -> Schema {
        Schema { attributes }
    }

    /// The empty schema.
    pub fn empty() -> Schema {
        Schema { attributes: Vec::new() }
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn from_pairs(pairs: &[(&str, DataType)]) -> Schema {
        Schema { attributes: pairs.iter().map(|(n, t)| Attribute::new(*n, *t)).collect() }
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Is the schema empty?
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }

    /// The attributes as a slice.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Attribute at position `i`.
    pub fn attribute(&self, i: usize) -> Result<&Attribute, AlgebraError> {
        self.attributes
            .get(i)
            .ok_or(AlgebraError::ColumnIndexOutOfBounds { index: i, width: self.arity() })
    }

    /// All attribute names, in order (owned copies, for reports and tests).
    pub fn attribute_names(&self) -> Vec<String> {
        self.attributes.iter().map(|a| a.name.to_string()).collect()
    }

    /// Indices of all provenance attributes.
    pub fn provenance_indices(&self) -> Vec<usize> {
        self.attributes.iter().enumerate().filter_map(|(i, a)| a.provenance.then_some(i)).collect()
    }

    /// Indices of all normal (non-provenance) attributes.
    pub fn normal_indices(&self) -> Vec<usize> {
        self.attributes
            .iter()
            .enumerate()
            .filter_map(|(i, a)| (!a.provenance).then_some(i))
            .collect()
    }

    /// Resolve an attribute reference (`name` or `qualifier.name`) to its position.
    ///
    /// Returns an error if the name is unknown or ambiguous.
    pub fn resolve(&self, reference: &str) -> Result<usize, AlgebraError> {
        let mut matches = self
            .attributes
            .iter()
            .enumerate()
            .filter(|(_, a)| a.matches(reference))
            .map(|(i, _)| i);
        match (matches.next(), matches.next()) {
            (Some(i), None) => Ok(i),
            (Some(_), Some(_)) => {
                Err(AlgebraError::AmbiguousAttribute { name: reference.to_string() })
            }
            (None, _) => Err(AlgebraError::UnknownAttribute {
                name: reference.to_string(),
                available: self.attributes.iter().map(|a| a.qualified_name()).collect(),
            }),
        }
    }

    /// Like [`Schema::resolve`] but returns `None` instead of an unknown-attribute error.
    pub fn try_resolve(&self, reference: &str) -> Result<Option<usize>, AlgebraError> {
        match self.resolve(reference) {
            Ok(i) => Ok(Some(i)),
            Err(AlgebraError::UnknownAttribute { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Concatenate two schemas (joins, cross products).
    pub fn concat(mut self, other: Schema) -> Schema {
        self.attributes.extend(other.attributes);
        self
    }

    /// Schema made of the attributes at the given positions.
    pub fn project(&self, positions: &[usize]) -> Schema {
        Schema { attributes: positions.iter().map(|&i| self.attributes[i].clone()).collect() }
    }

    /// Replace all qualifiers with `alias` (used by subquery aliases `... AS x`); every
    /// attribute shares the one alias.
    pub fn with_qualifier(&self, alias: impl Into<Name>) -> Schema {
        let alias = alias.into();
        Schema {
            attributes: self
                .attributes
                .iter()
                .map(|a| a.clone().with_qualifier(alias.clone()))
                .collect(),
        }
    }

    /// Append an attribute, returning the new schema.
    pub fn with_attribute(&self, attribute: Attribute) -> Schema {
        let mut attributes = self.attributes.clone();
        attributes.push(attribute);
        Schema { attributes }
    }

    /// Iterate over `(index, attribute)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Attribute)> {
        self.attributes.iter().enumerate()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, a) in self.attributes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<Attribute>> for Schema {
    fn from(attributes: Vec<Attribute>) -> Self {
        Schema::new(attributes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shop_schema() -> Schema {
        Schema::new(vec![
            Attribute::qualified("shop", "name", DataType::Text),
            Attribute::qualified("shop", "numempl", DataType::Int),
        ])
    }

    #[test]
    fn resolve_by_plain_and_qualified_name() {
        let s = shop_schema();
        assert_eq!(s.resolve("name").unwrap(), 0);
        assert_eq!(s.resolve("shop.numempl").unwrap(), 1);
        assert_eq!(s.resolve("SHOP.NumEmpl").unwrap(), 1);
    }

    #[test]
    fn resolve_unknown_and_ambiguous() {
        let s = shop_schema();
        assert!(matches!(s.resolve("zip"), Err(AlgebraError::UnknownAttribute { .. })));
        let joined =
            s.concat(Schema::new(vec![Attribute::qualified("sales", "name", DataType::Text)]));
        assert!(matches!(joined.resolve("name"), Err(AlgebraError::AmbiguousAttribute { .. })));
        assert_eq!(joined.resolve("sales.name").unwrap(), 2);
        assert_eq!(joined.try_resolve("nothere").unwrap(), None);
    }

    #[test]
    fn concat_and_project() {
        let s = shop_schema();
        let items = Schema::from_pairs(&[("id", DataType::Int), ("price", DataType::Int)]);
        let both = s.concat(items);
        assert_eq!(both.arity(), 4);
        let proj = both.project(&[3, 0]);
        assert_eq!(proj.attribute_names(), vec!["price", "name"]);
    }

    #[test]
    fn provenance_flags_partition_schema() {
        let s = shop_schema()
            .with_attribute(Attribute::new("prov_shop_name", DataType::Text).as_provenance())
            .with_attribute(Attribute::new("prov_shop_numempl", DataType::Int).as_provenance());
        assert_eq!(s.normal_indices(), vec![0, 1]);
        assert_eq!(s.provenance_indices(), vec![2, 3]);
    }

    #[test]
    fn qualifier_rewrite_for_alias() {
        let s = shop_schema().with_qualifier("s");
        assert_eq!(s.resolve("s.name").unwrap(), 0);
        assert!(s.resolve("shop.name").is_err());
    }
}

//! Relational schemas.

use crate::error::{GeoError, Result};
use crate::types::DataType;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Field {
    /// Column name. TPC-H-style prefixed names (`c_custkey`, `o_orderkey`)
    /// keep names unique across joins; the plan builder rejects duplicate
    /// names when combining schemas.
    pub name: String,
    /// Column type.
    pub data_type: DataType,
}

impl Field {
    /// Create a field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Field {
        Field {
            name: name.into(),
            data_type,
        }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.name, self.data_type)
    }
}

/// An ordered collection of fields. Shared by reference throughout plans.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Schema {
    fields: Vec<Field>,
}

/// Schemas are shared widely across plan nodes; `SchemaRef` keeps that cheap.
pub type SchemaRef = Arc<Schema>;

impl Schema {
    /// Build a schema from fields, rejecting duplicate column names.
    pub fn new(fields: Vec<Field>) -> Result<Schema> {
        for (i, f) in fields.iter().enumerate() {
            if fields[..i].iter().any(|g| g.name == f.name) {
                return Err(GeoError::Plan(format!(
                    "duplicate column name `{}` in schema",
                    f.name
                )));
            }
        }
        Ok(Schema { fields })
    }

    /// The empty schema.
    pub fn empty() -> Schema {
        Schema { fields: Vec::new() }
    }

    /// The fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// The field with a given name.
    pub fn field_by_name(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// The field at an index.
    pub fn field(&self, i: usize) -> &Field {
        &self.fields[i]
    }

    /// Index lookup that surfaces a planning error when missing.
    pub fn require_index(&self, name: &str) -> Result<usize> {
        self.index_of(name).ok_or_else(|| {
            GeoError::Plan(format!(
                "unknown column `{}`; available: [{}]",
                name,
                self.fields
                    .iter()
                    .map(|f| f.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })
    }

    /// Concatenate two schemas (join output), rejecting name collisions.
    pub fn join(&self, other: &Schema) -> Result<Schema> {
        let mut fields = self.fields.clone();
        fields.extend(other.fields.iter().cloned());
        Schema::new(fields)
    }

    /// A schema containing only the named columns, in the given order.
    pub fn project(&self, names: &[&str]) -> Result<Schema> {
        let mut fields = Vec::with_capacity(names.len());
        for n in names {
            let f = self
                .field_by_name(n)
                .ok_or_else(|| GeoError::Plan(format!("unknown column `{n}` in projection")))?;
            fields.push(f.clone());
        }
        Schema::new(fields)
    }

    /// All column names, in order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }

    /// Estimated serialized row width in bytes, for cost estimation
    /// (strings priced at an average payload of 16 bytes).
    pub fn estimated_row_width(&self) -> usize {
        self.fields
            .iter()
            .map(|f| match f.data_type {
                DataType::Bool => 2,
                DataType::Int64 => 9,
                DataType::Float64 => 9,
                DataType::Date => 5,
                DataType::Str => 21,
            })
            .sum()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{field}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Str),
            Field::new("c", DataType::Float64),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_duplicate_names() {
        let err = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("a", DataType::Str),
        ])
        .unwrap_err();
        assert_eq!(err.kind(), "plan");
    }

    #[test]
    fn lookup_by_name() {
        let s = abc();
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.index_of("zz"), None);
        assert_eq!(s.require_index("c").unwrap(), 2);
        assert!(s.require_index("zz").is_err());
    }

    #[test]
    fn join_concatenates_and_detects_collisions() {
        let s = abc();
        let t = Schema::new(vec![Field::new("d", DataType::Date)]).unwrap();
        let j = s.join(&t).unwrap();
        assert_eq!(j.names(), vec!["a", "b", "c", "d"]);
        assert!(s.join(&abc()).is_err());
    }

    #[test]
    fn projection_preserves_order_given() {
        let s = abc();
        let p = s.project(&["c", "a"]).unwrap();
        assert_eq!(p.names(), vec!["c", "a"]);
        assert_eq!(p.field(0).data_type, DataType::Float64);
        assert!(s.project(&["nope"]).is_err());
    }

    #[test]
    fn row_width_estimate() {
        let s = abc();
        assert_eq!(s.estimated_row_width(), 9 + 21 + 9);
    }

    #[test]
    fn display_format() {
        let s = Schema::new(vec![Field::new("x", DataType::Bool)]).unwrap();
        assert_eq!(s.to_string(), "(x BOOLEAN)");
    }
}

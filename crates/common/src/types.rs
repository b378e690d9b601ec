//! Relational data types.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The type of a column or scalar expression.
///
/// The set matches what the TPC-H schema and the paper's examples need:
/// integers, decimals (modelled as binary doubles), strings, dates, and
/// booleans. `Date` is carried as days since 1970-01-01, which makes range
/// predicates over dates ordinary integer-interval reasoning inside the
/// implication prover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// Boolean truth value.
    Bool,
    /// 64-bit signed integer (keys, quantities).
    Int64,
    /// 64-bit IEEE float (prices, balances; TPC-H decimal substitute).
    Float64,
    /// UTF-8 string.
    Str,
    /// Calendar date, stored as days since 1970-01-01.
    Date,
}

impl DataType {
    /// True if the type is numeric (participates in arithmetic and
    /// aggregation functions such as SUM/AVG).
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int64 | DataType::Float64)
    }

    /// True if values of this type have a total order usable in range
    /// predicates (`<`, `BETWEEN`, ...).
    pub fn is_ordered(self) -> bool {
        !matches!(self, DataType::Bool)
    }

    /// The result type of arithmetic between two numeric types
    /// (float wins, i.e. `Int64 + Float64 = Float64`).
    pub fn arithmetic_result(self, other: DataType) -> Option<DataType> {
        match (self, other) {
            (DataType::Int64, DataType::Int64) => Some(DataType::Int64),
            (a, b) if a.is_numeric() && b.is_numeric() => Some(DataType::Float64),
            // Date ± Int64 is a date offset, used by TPC-H interval predicates.
            (DataType::Date, DataType::Int64) | (DataType::Int64, DataType::Date) => {
                Some(DataType::Date)
            }
            _ => None,
        }
    }

    /// Whether two types can be compared with `=`, `<`, etc.
    pub fn comparable_with(self, other: DataType) -> bool {
        self == other || (self.is_numeric() && other.is_numeric())
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOLEAN",
            DataType::Int64 => "BIGINT",
            DataType::Float64 => "DOUBLE",
            DataType::Str => "VARCHAR",
            DataType::Date => "DATE",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_classification() {
        assert!(DataType::Int64.is_numeric());
        assert!(DataType::Float64.is_numeric());
        assert!(!DataType::Str.is_numeric());
        assert!(!DataType::Date.is_numeric());
        assert!(!DataType::Bool.is_numeric());
    }

    #[test]
    fn ordering_classification() {
        assert!(DataType::Date.is_ordered());
        assert!(DataType::Str.is_ordered());
        assert!(!DataType::Bool.is_ordered());
    }

    #[test]
    fn arithmetic_promotion() {
        assert_eq!(
            DataType::Int64.arithmetic_result(DataType::Int64),
            Some(DataType::Int64)
        );
        assert_eq!(
            DataType::Int64.arithmetic_result(DataType::Float64),
            Some(DataType::Float64)
        );
        assert_eq!(
            DataType::Date.arithmetic_result(DataType::Int64),
            Some(DataType::Date)
        );
        assert_eq!(DataType::Str.arithmetic_result(DataType::Int64), None);
    }

    #[test]
    fn comparability() {
        assert!(DataType::Int64.comparable_with(DataType::Float64));
        assert!(DataType::Date.comparable_with(DataType::Date));
        assert!(!DataType::Date.comparable_with(DataType::Int64));
        assert!(!DataType::Str.comparable_with(DataType::Bool));
    }

    #[test]
    fn display_names() {
        assert_eq!(DataType::Str.to_string(), "VARCHAR");
        assert_eq!(DataType::Date.to_string(), "DATE");
    }
}

//! Dynamic runtime values.

use crate::types::DataType;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A dynamically typed scalar value flowing through the executor.
///
/// `Value` implements total `Eq`/`Ord`/`Hash` (floats via
/// [`f64::total_cmp`]/bit patterns) so that it can key hash joins and
/// hash aggregations directly. Strings are reference counted so that
/// row cloning during joins and shipping stays cheap.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL. Sorts before every non-null value; equal to itself for
    /// grouping purposes (SQL `GROUP BY` semantics), but comparison
    /// *predicates* involving NULL evaluate to false in the evaluator.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int64(i64),
    /// 64-bit float.
    Float64(f64),
    /// UTF-8 string (cheaply clonable).
    Str(Arc<str>),
    /// Days since 1970-01-01.
    Date(i32),
}

impl Value {
    /// Construct a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Construct a date from `(year, month, day)` using a proleptic
    /// Gregorian calendar. Panics on out-of-range month/day; the TPC-H
    /// generator only produces valid dates.
    pub fn date(year: i32, month: u32, day: u32) -> Value {
        Value::Date(days_from_civil(year, month, day))
    }

    /// The type of this value, or `None` for NULL (NULL is typeless).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int64(_) => Some(DataType::Int64),
            Value::Float64(_) => Some(DataType::Float64),
            Value::Str(_) => Some(DataType::Str),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    /// True if the value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interpret as a truth value (for WHERE-clause results).
    /// NULL is treated as false, per SQL's three-valued logic collapsing
    /// to a filter decision.
    pub fn is_true(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// Numeric view as f64 (ints widen; dates expose their day number so
    /// date arithmetic composes with interval literals).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int64(i) => Some(*i as f64),
            Value::Float64(f) => Some(*f),
            Value::Date(d) => Some(*d as f64),
            _ => None,
        }
    }

    /// Integer view, if the value is an integer or date.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int64(i) => Some(*i),
            Value::Date(d) => Some(*d as i64),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// SQL comparison: returns `None` when either side is NULL or the types
    /// are incomparable, otherwise the ordering. Numeric types compare
    /// cross-type (Int64 vs Float64).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Int64(a), Value::Int64(b)) => Some(a.cmp(b)),
            (Value::Date(a), Value::Date(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                // Mixed numeric comparison; Date only compares with Date,
                // guarded above (Date vs numeric falls through to here, so
                // re-check kinds).
                (Some(x), Some(y))
                    if a.data_type().is_some_and(DataType::is_numeric)
                        && b.data_type().is_some_and(DataType::is_numeric) =>
                {
                    Some(x.total_cmp(&y))
                }
                _ => None,
            },
        }
    }

    /// Approximate serialized width in bytes, used by the optimizer's
    /// cardinality/byte estimates when costing SHIP operators.
    pub fn estimated_width(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int64(_) => 8,
            Value::Float64(_) => 8,
            Value::Str(s) => 4 + s.len(),
            Value::Date(_) => 4,
        }
    }

    /// Append a compact binary encoding of this value to `out` and return
    /// the number of bytes written. Used by the SHIP operator to account
    /// for real (simulated) network transfer volume.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> usize {
        let start = out.len();
        match self {
            Value::Null => out.push(0),
            Value::Bool(b) => {
                out.push(1);
                out.push(*b as u8);
            }
            Value::Int64(i) => {
                out.push(2);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float64(f) => {
                out.push(3);
                out.extend_from_slice(&f.to_le_bytes());
            }
            Value::Str(s) => {
                out.push(4);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Date(d) => {
                out.push(5);
                out.extend_from_slice(&d.to_le_bytes());
            }
        }
        out.len() - start
    }

    /// Decode a value previously written by [`Value::encode_into`],
    /// returning the value and the number of bytes consumed.
    pub fn decode_from(buf: &[u8]) -> Option<(Value, usize)> {
        let tag = *buf.first()?;
        match tag {
            0 => Some((Value::Null, 1)),
            1 => Some((Value::Bool(*buf.get(1)? != 0), 2)),
            2 => {
                let b: [u8; 8] = buf.get(1..9)?.try_into().ok()?;
                Some((Value::Int64(i64::from_le_bytes(b)), 9))
            }
            3 => {
                let b: [u8; 8] = buf.get(1..9)?.try_into().ok()?;
                Some((Value::Float64(f64::from_le_bytes(b)), 9))
            }
            4 => {
                let lb: [u8; 4] = buf.get(1..5)?.try_into().ok()?;
                let len = u32::from_le_bytes(lb) as usize;
                let s = std::str::from_utf8(buf.get(5..5 + len)?).ok()?;
                Some((Value::str(s), 5 + len))
            }
            5 => {
                let b: [u8; 4] = buf.get(1..5)?.try_into().ok()?;
                Some((Value::Date(i32::from_le_bytes(b)), 5))
            }
            _ => None,
        }
    }
}

/// Total equality: NULL == NULL, floats by bit-equivalent total order.
/// This is *grouping* equality (hash join/aggregate keys), distinct from
/// SQL predicate equality which is handled in the expression evaluator.
impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}
impl Eq for Value {}

impl Value {
    /// Total order over all values (for sorting and BTree keys):
    /// NULL < Bool < Int64/Float64 (numeric, merged) < Date < Str.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int64(_) | Value::Float64(_) => 2,
                Value::Date(_) => 3,
                Value::Str(_) => 4,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int64(a), Value::Int64(b)) => a.cmp(b),
            (Value::Date(a), Value::Date(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.as_ref().cmp(b.as_ref()),
            (Value::Float64(a), Value::Float64(b)) => a.total_cmp(b),
            (Value::Int64(a), Value::Float64(b)) => (*a as f64).total_cmp(b),
            (Value::Float64(a), Value::Int64(b)) => a.total_cmp(&(*b as f64)),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Value) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Value {
    fn cmp(&self, other: &Value) -> Ordering {
        self.total_cmp(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int64 and Float64 must hash identically when numerically equal
            // because total_cmp treats them as one numeric domain.
            Value::Int64(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float64(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Date(d) => {
                3u8.hash(state);
                d.hash(state);
            }
            Value::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int64(i) => write!(f, "{i}"),
            Value::Float64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Date(d) => {
                let (y, m, day) = civil_from_days(*d);
                write!(f, "{y:04}-{m:02}-{day:02}")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(Arc::from(v.as_str()))
    }
}

/// Days since 1970-01-01 for a proleptic Gregorian civil date
/// (Howard Hinnant's algorithm).
pub fn days_from_civil(y: i32, m: u32, d: u32) -> i32 {
    assert!((1..=12).contains(&m), "month out of range: {m}");
    assert!((1..=31).contains(&d), "day out of range: {d}");
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as i64;
    let mp = ((m + 9) % 12) as i64;
    let doy = (153 * mp + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    (era as i64 * 146097 + doe - 719468) as i32
}

/// Inverse of [`days_from_civil`].
pub fn civil_from_days(z: i32) -> (i32, u32, u32) {
    let z = z as i64 + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097;
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    ((if m <= 2 { y + 1 } else { y }) as i32, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn date_round_trip_known_values() {
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(days_from_civil(1970, 1, 2), 1);
        assert_eq!(days_from_civil(1969, 12, 31), -1);
        assert_eq!(days_from_civil(2000, 3, 1), 11017);
        for &(y, m, d) in &[(1992, 1, 1), (1998, 12, 1), (1995, 3, 15), (2024, 2, 29)] {
            let days = days_from_civil(y, m, d);
            assert_eq!(civil_from_days(days), (y, m, d));
        }
    }

    #[test]
    fn date_display_is_iso() {
        assert_eq!(Value::date(1995, 3, 15).to_string(), "1995-03-15");
    }

    #[test]
    fn sql_cmp_nulls_are_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int64(1)), None);
        assert_eq!(Value::Int64(1).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn sql_cmp_mixed_numerics() {
        assert_eq!(
            Value::Int64(2).sql_cmp(&Value::Float64(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float64(1.5).sql_cmp(&Value::Int64(2)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn sql_cmp_incompatible_types() {
        assert_eq!(Value::str("a").sql_cmp(&Value::Int64(1)), None);
        assert_eq!(Value::Date(10).sql_cmp(&Value::Int64(10)), None);
    }

    #[test]
    fn grouping_equality_treats_null_equal() {
        assert_eq!(Value::Null, Value::Null);
        assert_eq!(Value::Int64(3), Value::Float64(3.0));
    }

    #[test]
    fn numeric_hash_consistency_with_eq() {
        assert_eq!(hash_of(&Value::Int64(42)), hash_of(&Value::Float64(42.0)));
    }

    #[test]
    fn total_order_ranks() {
        let mut vs = [
            Value::str("z"),
            Value::Date(0),
            Value::Float64(0.5),
            Value::Bool(true),
            Value::Null,
            Value::Int64(7),
        ];
        vs.sort();
        assert!(vs[0].is_null());
        assert!(matches!(vs[1], Value::Bool(_)));
        assert!(matches!(vs.last(), Some(Value::Str(_))));
    }

    #[test]
    fn encode_decode_round_trip() {
        let vals = [
            Value::Null,
            Value::Bool(true),
            Value::Int64(-77),
            Value::Float64(3.5),
            Value::str("hello world"),
            Value::date(1996, 6, 30),
        ];
        for v in &vals {
            let mut buf = Vec::new();
            let n = v.encode_into(&mut buf);
            assert_eq!(n, buf.len());
            let (back, consumed) = Value::decode_from(&buf).expect("decode");
            assert_eq!(consumed, n);
            assert_eq!(&back, v);
        }
    }

    #[test]
    fn estimated_width_tracks_strings() {
        assert_eq!(Value::Int64(1).estimated_width(), 8);
        assert_eq!(Value::str("abc").estimated_width(), 7);
    }

    #[test]
    fn is_true_only_for_bool_true() {
        assert!(Value::Bool(true).is_true());
        assert!(!Value::Bool(false).is_true());
        assert!(!Value::Null.is_true());
        assert!(!Value::Int64(1).is_true());
    }
}

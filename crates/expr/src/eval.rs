//! Expression binding and SQL-semantics evaluation.
//!
//! Expressions reference columns by name; [`bind`] compiles an expression
//! against a concrete input [`Schema`] into a [`BoundExpr`] whose column
//! references are positional. The executor binds once per operator and then
//! evaluates per row without any name lookups on the hot path.

use crate::expr::{BinaryOp, ScalarExpr, UnaryOp};
use crate::like::LikePattern;
use geoqp_common::{GeoError, Result, Row, Schema, Value};
use std::cmp::Ordering;

/// A scalar expression with column references resolved to row positions.
#[derive(Debug, Clone)]
pub enum BoundExpr {
    /// Positional column reference.
    Column(usize),
    /// Constant.
    Literal(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<BoundExpr>,
        /// Right operand.
        rhs: Box<BoundExpr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<BoundExpr>,
    },
    /// `LIKE`.
    Like {
        /// Matched expression.
        expr: Box<BoundExpr>,
        /// Pattern, compiled once at bind time.
        pattern: LikePattern,
        /// Negated?
        negated: bool,
    },
    /// `IN` over constants.
    InList {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Candidates.
        list: Vec<Value>,
        /// Negated?
        negated: bool,
    },
    /// `BETWEEN`.
    Between {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Lower bound.
        low: Box<BoundExpr>,
        /// Upper bound.
        high: Box<BoundExpr>,
        /// Negated?
        negated: bool,
    },
    /// `IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Negated?
        negated: bool,
    },
}

/// Compile `expr` against `schema`, resolving every column name to its
/// position. Fails on unknown columns.
pub fn bind(expr: &ScalarExpr, schema: &Schema) -> Result<BoundExpr> {
    Ok(match expr {
        ScalarExpr::Column(n) => BoundExpr::Column(schema.require_index(n)?),
        ScalarExpr::Literal(v) => BoundExpr::Literal(v.clone()),
        ScalarExpr::Binary { op, lhs, rhs } => BoundExpr::Binary {
            op: *op,
            lhs: Box::new(bind(lhs, schema)?),
            rhs: Box::new(bind(rhs, schema)?),
        },
        ScalarExpr::Unary { op, expr } => BoundExpr::Unary {
            op: *op,
            expr: Box::new(bind(expr, schema)?),
        },
        ScalarExpr::Like {
            expr,
            pattern,
            negated,
        } => BoundExpr::Like {
            expr: Box::new(bind(expr, schema)?),
            pattern: LikePattern::new(pattern),
            negated: *negated,
        },
        ScalarExpr::InList {
            expr,
            list,
            negated,
        } => BoundExpr::InList {
            expr: Box::new(bind(expr, schema)?),
            list: list.clone(),
            negated: *negated,
        },
        ScalarExpr::Between {
            expr,
            low,
            high,
            negated,
        } => BoundExpr::Between {
            expr: Box::new(bind(expr, schema)?),
            low: Box::new(bind(low, schema)?),
            high: Box::new(bind(high, schema)?),
            negated: *negated,
        },
        ScalarExpr::IsNull { expr, negated } => BoundExpr::IsNull {
            expr: Box::new(bind(expr, schema)?),
            negated: *negated,
        },
    })
}

impl BoundExpr {
    /// Evaluate against one row, with SQL three-valued semantics: NULL
    /// propagates through arithmetic and comparisons; `AND`/`OR` follow
    /// Kleene logic; `IS NULL` observes NULL directly.
    pub fn eval(&self, row: &Row) -> Result<Value> {
        self.eval_with(&|i| row.get(i).cloned())
    }

    /// [`eval`](Self::eval) over any source of column values: `col(i)`
    /// is the value of input column `i`, or `None` when the input has no
    /// such column. The one scalar evaluator — the row engine reads a
    /// [`Row`], the vectorized engine reads row `r` of a columnar batch —
    /// so semantics, short-circuiting and error text cannot drift apart.
    pub fn eval_with(&self, col: &impl Fn(usize) -> Option<Value>) -> Result<Value> {
        match self {
            BoundExpr::Column(i) => {
                col(*i).ok_or_else(|| GeoError::Execution(format!("row too short for column {i}")))
            }
            BoundExpr::Literal(v) => Ok(v.clone()),
            BoundExpr::Binary { op, lhs, rhs } => {
                // Kleene short-circuiting for AND/OR.
                if *op == BinaryOp::And || *op == BinaryOp::Or {
                    return eval_logical(*op, lhs, rhs, col);
                }
                let l = lhs.eval_with(col)?;
                let r = rhs.eval_with(col)?;
                if l.is_null() || r.is_null() {
                    return Ok(Value::Null);
                }
                if op.is_comparison() {
                    let ord = l.sql_cmp(&r).ok_or_else(|| {
                        GeoError::Execution(format!("incomparable values {l} and {r}"))
                    })?;
                    Ok(Value::Bool(apply_cmp(*op, ord)))
                } else {
                    eval_arith(*op, &l, &r)
                }
            }
            BoundExpr::Unary { op, expr } => {
                let v = expr.eval_with(col)?;
                match (op, v) {
                    (_, Value::Null) => Ok(Value::Null),
                    (UnaryOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
                    (UnaryOp::Neg, Value::Int64(i)) => Ok(Value::Int64(-i)),
                    (UnaryOp::Neg, Value::Float64(f)) => Ok(Value::Float64(-f)),
                    (op, v) => Err(GeoError::Execution(format!("cannot apply {op:?} to {v}"))),
                }
            }
            BoundExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = expr.eval_with(col)?;
                match v {
                    Value::Null => Ok(Value::Null),
                    Value::Str(s) => Ok(Value::Bool(pattern.matches(&s) != *negated)),
                    other => Err(GeoError::Execution(format!("LIKE on non-string {other}"))),
                }
            }
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval_with(col)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let found = list.iter().any(|c| v.sql_cmp(c) == Some(Ordering::Equal));
                Ok(Value::Bool(found != *negated))
            }
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.eval_with(col)?;
                let lo = low.eval_with(col)?;
                let hi = high.eval_with(col)?;
                if v.is_null() || lo.is_null() || hi.is_null() {
                    return Ok(Value::Null);
                }
                let ge_lo = matches!(
                    v.sql_cmp(&lo),
                    Some(Ordering::Greater) | Some(Ordering::Equal)
                );
                let le_hi = matches!(v.sql_cmp(&hi), Some(Ordering::Less) | Some(Ordering::Equal));
                Ok(Value::Bool((ge_lo && le_hi) != *negated))
            }
            BoundExpr::IsNull { expr, negated } => {
                let v = expr.eval_with(col)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
        }
    }
}

fn eval_logical(
    op: BinaryOp,
    lhs: &BoundExpr,
    rhs: &BoundExpr,
    col: &impl Fn(usize) -> Option<Value>,
) -> Result<Value> {
    let l = lhs.eval_with(col)?;
    match (op, &l) {
        (BinaryOp::And, Value::Bool(false)) => return Ok(Value::Bool(false)),
        (BinaryOp::Or, Value::Bool(true)) => return Ok(Value::Bool(true)),
        _ => {}
    }
    let r = rhs.eval_with(col)?;
    let lb = as_tv(&l)?;
    let rb = as_tv(&r)?;
    Ok(match op {
        BinaryOp::And => match (lb, rb) {
            (Some(false), _) | (_, Some(false)) => Value::Bool(false),
            (Some(true), Some(true)) => Value::Bool(true),
            _ => Value::Null,
        },
        BinaryOp::Or => match (lb, rb) {
            (Some(true), _) | (_, Some(true)) => Value::Bool(true),
            (Some(false), Some(false)) => Value::Bool(false),
            _ => Value::Null,
        },
        _ => unreachable!("eval_logical only handles AND/OR"),
    })
}

/// Three-valued truth view: Some(bool) or None for NULL. Public so the
/// vectorized executor (`geoqp-exec`) can reproduce these semantics
/// exactly when it evaluates predicates column-at-a-time.
pub fn as_tv(v: &Value) -> Result<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(*b)),
        other => Err(GeoError::Execution(format!(
            "expected boolean, got {other}"
        ))),
    }
}

/// Apply a comparison operator to an [`Ordering`]. Public for the
/// vectorized executor, which compares typed columns directly.
pub fn apply_cmp(op: BinaryOp, ord: Ordering) -> bool {
    match op {
        BinaryOp::Eq => ord == Ordering::Equal,
        BinaryOp::NotEq => ord != Ordering::Equal,
        BinaryOp::Lt => ord == Ordering::Less,
        BinaryOp::LtEq => ord != Ordering::Greater,
        BinaryOp::Gt => ord == Ordering::Greater,
        BinaryOp::GtEq => ord != Ordering::Less,
        _ => unreachable!("not a comparison"),
    }
}

/// Arithmetic with SQL typing rules (dates ± integer days, wrapping
/// integer arithmetic, float fallback).
fn eval_arith(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    // Date ± integer days.
    if let (Value::Date(d), Some(n)) = (l, r.as_i64()) {
        if !matches!(r, Value::Date(_)) {
            return match op {
                BinaryOp::Add => Ok(Value::Date(d + n as i32)),
                BinaryOp::Sub => Ok(Value::Date(d - n as i32)),
                _ => Err(GeoError::Execution(format!("cannot {op} dates"))),
            };
        }
    }
    match (l, r) {
        (Value::Int64(a), Value::Int64(b)) => match op {
            BinaryOp::Add => Ok(Value::Int64(a.wrapping_add(*b))),
            BinaryOp::Sub => Ok(Value::Int64(a.wrapping_sub(*b))),
            BinaryOp::Mul => Ok(Value::Int64(a.wrapping_mul(*b))),
            BinaryOp::Div => {
                if *b == 0 {
                    Err(GeoError::Execution("integer division by zero".into()))
                } else {
                    // Wrapping like `+ - *`: `i64::MIN / -1` is not a panic.
                    Ok(Value::Int64(a.wrapping_div(*b)))
                }
            }
            _ => unreachable!(),
        },
        _ => {
            let (a, b) = match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b))
                    if !matches!(l, Value::Date(_)) && !matches!(r, Value::Date(_)) =>
                {
                    (a, b)
                }
                _ => {
                    return Err(GeoError::Execution(format!(
                        "cannot apply {op} to {l} and {r}"
                    )))
                }
            };
            let out = match op {
                BinaryOp::Add => a + b,
                BinaryOp::Sub => a - b,
                BinaryOp::Mul => a * b,
                BinaryOp::Div => a / b,
                _ => unreachable!(),
            };
            Ok(Value::Float64(out))
        }
    }
}

/// Convenience: bind and evaluate in one step (tests, policy generator).
pub fn eval_once(expr: &ScalarExpr, row: &Row, schema: &Schema) -> Result<Value> {
    bind(expr, schema)?.eval(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoqp_common::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Float64),
            Field::new("s", DataType::Str),
            Field::new("d", DataType::Date),
        ])
        .unwrap()
    }

    fn row() -> Row {
        vec![
            Value::Int64(10),
            Value::Float64(2.5),
            Value::str("BUILDING"),
            Value::date(1995, 3, 15),
        ]
    }

    fn ev(e: ScalarExpr) -> Value {
        eval_once(&e, &row(), &schema()).unwrap()
    }

    #[test]
    fn arithmetic() {
        assert_eq!(
            ev(ScalarExpr::col("a").add(ScalarExpr::lit(5i64))),
            Value::Int64(15)
        );
        assert_eq!(
            ev(ScalarExpr::col("a").mul(ScalarExpr::col("b"))),
            Value::Float64(25.0)
        );
        assert_eq!(
            ev(ScalarExpr::col("b").div(ScalarExpr::lit(2i64))),
            Value::Float64(1.25)
        );
    }

    #[test]
    fn integer_division_by_zero_errors() {
        let e = ScalarExpr::col("a").div(ScalarExpr::lit(0i64));
        assert!(eval_once(&e, &row(), &schema()).is_err());
    }

    #[test]
    fn integer_division_wraps_instead_of_panicking() {
        let e = ScalarExpr::lit(i64::MIN).div(ScalarExpr::lit(-1i64));
        assert_eq!(ev(e), Value::Int64(i64::MIN));
    }

    #[test]
    fn date_arithmetic() {
        let e = ScalarExpr::col("d").add(ScalarExpr::lit(10i64));
        assert_eq!(ev(e), Value::date(1995, 3, 25));
        let e = ScalarExpr::col("d").sub(ScalarExpr::lit(15i64));
        assert_eq!(ev(e), Value::date(1995, 2, 28));
    }

    #[test]
    fn comparisons() {
        assert_eq!(
            ev(ScalarExpr::col("a").gt(ScalarExpr::lit(5i64))),
            Value::Bool(true)
        );
        assert_eq!(
            ev(ScalarExpr::col("a").lt_eq(ScalarExpr::lit(9i64))),
            Value::Bool(false)
        );
        assert_eq!(
            ev(ScalarExpr::col("a").eq(ScalarExpr::lit(10.0))),
            Value::Bool(true)
        );
        assert_eq!(
            ev(ScalarExpr::col("d").lt(ScalarExpr::lit(Value::date(1996, 1, 1)))),
            Value::Bool(true)
        );
    }

    #[test]
    fn null_propagation() {
        let e = ScalarExpr::lit(Value::Null).add(ScalarExpr::lit(1i64));
        assert_eq!(ev(e), Value::Null);
        let e = ScalarExpr::lit(Value::Null).eq(ScalarExpr::lit(1i64));
        assert_eq!(ev(e), Value::Null);
        let e = ScalarExpr::lit(Value::Null).is_null();
        assert_eq!(ev(e), Value::Bool(true));
        let e = ScalarExpr::col("a").is_null();
        assert_eq!(ev(e), Value::Bool(false));
    }

    #[test]
    fn kleene_logic() {
        let null = || ScalarExpr::lit(Value::Null).eq(ScalarExpr::lit(1i64));
        let t = || ScalarExpr::lit(true);
        let f = || ScalarExpr::lit(false);
        assert_eq!(ev(f().and(null())), Value::Bool(false));
        assert_eq!(ev(null().and(f())), Value::Bool(false));
        assert_eq!(ev(t().and(null())), Value::Null);
        assert_eq!(ev(t().or(null())), Value::Bool(true));
        assert_eq!(ev(null().or(t())), Value::Bool(true));
        assert_eq!(ev(f().or(null())), Value::Null);
        assert_eq!(ev(null().not()), Value::Null);
    }

    #[test]
    fn like_and_in_and_between() {
        assert_eq!(ev(ScalarExpr::col("s").like("BUILD%")), Value::Bool(true));
        assert_eq!(
            ev(ScalarExpr::col("s").not_like("%ING")),
            Value::Bool(false)
        );
        assert_eq!(
            ev(ScalarExpr::col("a").in_list(vec![Value::Int64(1), Value::Int64(10)])),
            Value::Bool(true)
        );
        assert_eq!(
            ev(ScalarExpr::col("a").between(ScalarExpr::lit(5i64), ScalarExpr::lit(10i64))),
            Value::Bool(true)
        );
        assert_eq!(
            ev(ScalarExpr::col("a").between(ScalarExpr::lit(11i64), ScalarExpr::lit(20i64))),
            Value::Bool(false)
        );
    }

    #[test]
    fn bind_rejects_unknown_columns() {
        let e = ScalarExpr::col("missing");
        assert!(bind(&e, &schema()).is_err());
    }

    #[test]
    fn comparing_incompatible_types_errors() {
        let e = ScalarExpr::col("s").lt(ScalarExpr::lit(1i64));
        assert!(eval_once(&e, &row(), &schema()).is_err());
    }
}

//! Aggregate accumulators with SQL null semantics.

use geoqp_common::{DataType, GeoError, Result, Row, Schema, Value};
use geoqp_expr::{bind, AggCall, AggFunc, BoundExpr};

/// A single running aggregate.
#[derive(Debug, Clone)]
pub enum Accumulator {
    /// SUM over integers.
    SumInt {
        /// Running total.
        sum: i64,
        /// Any non-null input seen?
        seen: bool,
    },
    /// SUM over floats (also used for mixed numeric input).
    SumFloat {
        /// Running total.
        sum: f64,
        /// Any non-null input seen?
        seen: bool,
    },
    /// AVG.
    Avg {
        /// Running total.
        sum: f64,
        /// Non-null count.
        n: u64,
    },
    /// MIN.
    Min(Option<Value>),
    /// MAX.
    Max(Option<Value>),
    /// COUNT(expr) — non-null count — or COUNT(*) when `star`.
    Count {
        /// Running count.
        n: u64,
        /// COUNT(*)?
        star: bool,
    },
}

/// An aggregate call bound to its argument expression.
#[derive(Debug)]
pub struct BoundAgg {
    /// The function.
    pub func: AggFunc,
    /// Bound argument; `None` for COUNT(*).
    pub arg: Option<BoundExpr>,
    /// True when SUM should accumulate in integer space.
    pub int_sum: bool,
}

impl BoundAgg {
    /// `call` bound to the columns of `input`; a SUM accumulates in
    /// integer space when its argument is declared `Int64`.
    pub fn bind(call: &AggCall, input: &Schema) -> Result<BoundAgg> {
        let arg = call.arg.as_ref().map(|e| bind(e, input)).transpose()?;
        let int_sum = match &call.arg {
            Some(e) => e.data_type(input)? == DataType::Int64,
            None => false,
        };
        Ok(BoundAgg {
            func: call.func,
            arg,
            int_sum,
        })
    }

    /// A fresh accumulator for this call.
    pub fn new_acc(&self) -> Accumulator {
        match self.func {
            AggFunc::Sum if self.int_sum => Accumulator::SumInt {
                sum: 0,
                seen: false,
            },
            AggFunc::Sum => Accumulator::SumFloat {
                sum: 0.0,
                seen: false,
            },
            AggFunc::Avg => Accumulator::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => Accumulator::Min(None),
            AggFunc::Max => Accumulator::Max(None),
            AggFunc::Count => Accumulator::Count {
                n: 0,
                star: self.arg.is_none(),
            },
        }
    }

    /// Feed one input row into an accumulator.
    pub fn update(&self, acc: &mut Accumulator, row: &Row) -> Result<()> {
        let value = match &self.arg {
            None => None, // COUNT(*)
            Some(e) => Some(e.eval(row)?),
        };
        self.apply(acc, value)
    }

    /// An integer SUM's addend: `None` for NULL, an error for anything
    /// but an integer. Both engines read a SUM(int) argument through here.
    pub fn int_addend(v: Value) -> Result<Option<i64>> {
        match v {
            Value::Null => Ok(None),
            Value::Int64(i) => Ok(Some(i)),
            other => Err(GeoError::Execution(format!(
                "SUM(int) got non-integer {other}"
            ))),
        }
    }

    /// A float SUM's or AVG's addend, as [`Value::as_f64`] reads it:
    /// `None` for NULL, an error for a value that is no number. Both
    /// engines read such an argument through here.
    pub fn float_addend(&self, v: Value) -> Result<Option<f64>> {
        if v.is_null() {
            return Ok(None);
        }
        let name = if self.func == AggFunc::Avg {
            "AVG"
        } else {
            "SUM"
        };
        let f = v
            .as_f64()
            .ok_or_else(|| GeoError::Execution(format!("{name} got non-numeric {v}")))?;
        Ok(Some(f))
    }

    /// Feed one already-evaluated argument value into an accumulator
    /// (`None` = COUNT(*)'s argument-less case): the row engine's step.
    /// The columnar engine accumulates per-group vectors instead, reading
    /// a cell that is not of its typed layout through the same addend
    /// rules, so both engines share one set of NULL and error semantics.
    pub fn apply(&self, acc: &mut Accumulator, value: Option<Value>) -> Result<()> {
        match acc {
            Accumulator::Count { n, star } => {
                if *star || value.as_ref().is_some_and(|v| !v.is_null()) {
                    *n += 1;
                }
            }
            Accumulator::SumInt { sum, seen } => {
                if let Some(i) = value.map(BoundAgg::int_addend).transpose()?.flatten() {
                    *sum = sum.wrapping_add(i);
                    *seen = true;
                }
            }
            Accumulator::SumFloat { sum, seen } => {
                if let Some(f) = value.map(|v| self.float_addend(v)).transpose()?.flatten() {
                    *sum += f;
                    *seen = true;
                }
            }
            Accumulator::Avg { sum, n } => {
                if let Some(f) = value.map(|v| self.float_addend(v)).transpose()?.flatten() {
                    *sum += f;
                    *n += 1;
                }
            }
            Accumulator::Min(cur) => {
                if let Some(v) = value {
                    if !v.is_null() {
                        match cur {
                            None => *cur = Some(v),
                            Some(c) => {
                                if v.total_cmp(c) == std::cmp::Ordering::Less {
                                    *cur = Some(v);
                                }
                            }
                        }
                    }
                }
            }
            Accumulator::Max(cur) => {
                if let Some(v) = value {
                    if !v.is_null() {
                        match cur {
                            None => *cur = Some(v),
                            Some(c) => {
                                if v.total_cmp(c) == std::cmp::Ordering::Greater {
                                    *cur = Some(v);
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

impl Accumulator {
    /// The final SQL value of this accumulator.
    pub fn finish(&self) -> Value {
        match self {
            Accumulator::SumInt { sum, seen } => {
                if *seen {
                    Value::Int64(*sum)
                } else {
                    Value::Null
                }
            }
            Accumulator::SumFloat { sum, seen } => {
                if *seen {
                    Value::Float64(*sum)
                } else {
                    Value::Null
                }
            }
            Accumulator::Avg { sum, n } => {
                if *n > 0 {
                    Value::Float64(sum / *n as f64)
                } else {
                    Value::Null
                }
            }
            Accumulator::Min(v) | Accumulator::Max(v) => v.clone().unwrap_or(Value::Null),
            Accumulator::Count { n, .. } => Value::Int64(*n as i64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoqp_common::{DataType, Field, Schema};
    use geoqp_expr::{bind, ScalarExpr};

    fn bound(func: AggFunc, int_sum: bool) -> BoundAgg {
        let schema = Schema::new(vec![Field::new("x", DataType::Float64)]).unwrap();
        BoundAgg {
            func,
            arg: Some(bind(&ScalarExpr::col("x"), &schema).unwrap()),
            int_sum,
        }
    }

    fn run(agg: &BoundAgg, inputs: &[Value]) -> Value {
        let mut acc = agg.new_acc();
        for v in inputs {
            agg.update(&mut acc, &vec![v.clone()]).unwrap();
        }
        acc.finish()
    }

    #[test]
    fn sum_skips_nulls_and_nulls_on_empty() {
        let agg = bound(AggFunc::Sum, false);
        assert_eq!(
            run(
                &agg,
                &[Value::Float64(1.5), Value::Null, Value::Float64(2.5)]
            ),
            Value::Float64(4.0)
        );
        assert_eq!(run(&agg, &[Value::Null]), Value::Null);
        assert_eq!(run(&agg, &[]), Value::Null);
    }

    #[test]
    fn avg_divides_by_non_null_count() {
        let agg = bound(AggFunc::Avg, false);
        assert_eq!(
            run(
                &agg,
                &[Value::Float64(2.0), Value::Null, Value::Float64(4.0)]
            ),
            Value::Float64(3.0)
        );
        assert_eq!(run(&agg, &[]), Value::Null);
    }

    #[test]
    fn min_max() {
        let min = bound(AggFunc::Min, false);
        let max = bound(AggFunc::Max, false);
        let vals = [Value::Float64(3.0), Value::Float64(-1.0), Value::Null];
        assert_eq!(run(&min, &vals), Value::Float64(-1.0));
        assert_eq!(run(&max, &vals), Value::Float64(3.0));
        assert_eq!(run(&min, &[Value::Null]), Value::Null);
    }

    #[test]
    fn count_expr_vs_star() {
        let c = bound(AggFunc::Count, false);
        assert_eq!(
            run(&c, &[Value::Float64(1.0), Value::Null]),
            Value::Int64(1)
        );
        let star = BoundAgg {
            func: AggFunc::Count,
            arg: None,
            int_sum: false,
        };
        let mut acc = star.new_acc();
        for _ in 0..3 {
            star.update(&mut acc, &vec![Value::Null]).unwrap();
        }
        assert_eq!(acc.finish(), Value::Int64(3));
    }

    #[test]
    fn int_sum_stays_integer() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int64)]).unwrap();
        let agg = BoundAgg {
            func: AggFunc::Sum,
            arg: Some(bind(&ScalarExpr::col("x"), &schema).unwrap()),
            int_sum: true,
        };
        let mut acc = agg.new_acc();
        agg.update(&mut acc, &vec![Value::Int64(2)]).unwrap();
        agg.update(&mut acc, &vec![Value::Int64(3)]).unwrap();
        assert_eq!(acc.finish(), Value::Int64(5));
    }
}

//! The implication memo: optimizer-side caching of `P_q ⟹ P_e` verdicts.
//!
//! Algorithm 1's line-3 implication test dominates policy-evaluation
//! cost, and the optimizer asks it for the *same* (query predicate,
//! expression predicate) pairs over and over: annotation rules AR1–AR4
//! evaluate overlapping subtrees of one query, the dynamic-programming
//! enumeration revisits the same local queries under different join
//! orders, and the resilient loop re-plans the same query after every
//! fault. The prover is pure — its verdict depends only on the two
//! predicates — so the verdicts memoize perfectly.
//!
//! A verdict is keyed by its two inputs, compared by value: the query
//! predicate, then the expression's predicate. Nothing about a catalog
//! snapshot enters the key, so one memo may serve any number of
//! snapshots — an engine forked over a new snapshot shares its parent's
//! memo — and a verdict stays exact across every grant and revoke.
//! Hit/miss counters feed the engine's optimizer metrics.

use geoqp_expr::ScalarExpr;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Verdicts keyed by query predicate, then by expression predicate.
type Verdicts = HashMap<Option<ScalarExpr>, HashMap<Option<ScalarExpr>, bool>>;

/// A shared cache of implication verdicts.
#[derive(Debug, Default)]
pub struct ImplicationMemo {
    verdicts: Mutex<Verdicts>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ImplicationMemo {
    /// An empty memo.
    pub fn new() -> ImplicationMemo {
        ImplicationMemo::default()
    }

    /// Return the memoized verdict for `pred ⟹ expr_pred`, computing and
    /// storing it via `prove` on a miss. A hit clones nothing; each
    /// predicate is cloned on the miss that first stores it.
    pub fn check(
        &self,
        pred: &Option<ScalarExpr>,
        expr_pred: &Option<ScalarExpr>,
        prove: impl FnOnce() -> bool,
    ) -> bool {
        let mut verdicts = self.verdicts.lock().expect("memo lock poisoned");
        if let Some(&v) = verdicts
            .get(pred)
            .and_then(|by_expr| by_expr.get(expr_pred))
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        // The prover is pure and lock-cheap at this scale; holding the
        // lock keeps concurrent re-plans from proving the same pair twice.
        let v = prove();
        if let Some(by_expr) = verdicts.get_mut(pred) {
            by_expr.insert(expr_pred.clone(), v);
        } else {
            verdicts.insert(pred.clone(), HashMap::from([(expr_pred.clone(), v)]));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        v
    }

    /// Memo hits since creation.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Memo misses (= implication proofs actually run through the memo).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cached verdicts currently held.
    pub fn len(&self) -> usize {
        let verdicts = self.verdicts.lock().expect("memo lock poisoned");
        verdicts.values().map(HashMap::len).sum()
    }

    /// True when no verdicts are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fraction of lookups served from the cache since creation; 0 when
    /// nothing has been looked up.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits(), self.misses());
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoqp_common::Value;
    use geoqp_expr::implication::implies_opt;
    use geoqp_expr::ScalarExpr as E;

    #[test]
    fn memoizes_per_key_and_counts() {
        let m = ImplicationMemo::new();
        let p = Some(E::col("x").gt(E::lit(5i64)));
        let e = Some(E::col("x").gt(E::lit(0i64)));
        let mut proofs = 0;
        for _ in 0..3 {
            let v = m.check(&p, &e, || {
                proofs += 1;
                true
            });
            assert!(v);
        }
        assert_eq!(proofs, 1, "verdict must be proven once");
        assert_eq!(m.hits(), 2);
        assert_eq!(m.misses(), 1);
        // A different expression predicate proves again.
        assert!(!m.check(&p, &Some(E::col("x").gt(E::lit(9i64))), || false));
        assert_eq!(m.misses(), 2);
    }

    #[test]
    fn predicates_are_keyed_by_value() {
        let m = ImplicationMemo::new();
        let e = Some(E::col("x").gt(E::lit(0i64)));
        assert!(m.check(&Some(E::col("x").gt(E::lit(5i64))), &e, || true));
        // Structurally equal predicates built anew are the same key...
        let e_again = Some(E::col("x").gt(E::lit(0i64)));
        assert!(m.check(&Some(E::col("x").gt(E::lit(5i64))), &e_again, || false));
        assert_eq!((m.hits(), m.misses()), (1, 1));
        // ...a different literal, or no predicate at all, is not — on
        // either side of the implication.
        assert!(!m.check(&Some(E::col("x").gt(E::lit(6i64))), &e, || false));
        assert!(!m.check(&None, &e, || false));
        assert!(!m.check(&None, &None, || false));
        assert_eq!((m.len(), m.misses()), (4, 4));

        // `1` and `1.0` are one key (`Value` compares numerically), so
        // a verdict proven for one expression predicate is served for
        // the other. That is exact only if the prover cannot tell them
        // apart either: every memo verdict must equal a fresh proof.
        let m = ImplicationMemo::new();
        let x = |op: fn(E, E) -> E, v: Value| Some(op(E::col("x"), E::lit(v)));
        let ops: [fn(E, E) -> E; 4] = [E::gt, E::gt_eq, E::eq, E::lt];
        let mut queries = vec![
            None,
            x(E::gt, Value::Int64(0)),
            x(E::gt, Value::Float64(1.5)),
        ];
        queries.extend(ops.map(|op| x(op, Value::Int64(1))));
        for q in &queries {
            for op in ops {
                for v in [Value::Int64(1), Value::Float64(1.0), Value::Int64(1)] {
                    let e = x(op, v);
                    let memo = m.check(q, &e, || implies_opt(q.as_ref(), e.as_ref()));
                    assert_eq!(memo, implies_opt(q.as_ref(), e.as_ref()), "{q:?} => {e:?}");
                }
            }
        }
        assert_eq!(m.misses(), (queries.len() * ops.len()) as u64);
        assert_eq!(m.hits(), 2 * m.misses(), "1 and 1.0 share one verdict");
    }
}

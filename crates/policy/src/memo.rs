//! The implication memo: optimizer-side caching of `P_q ⟹ P_e` verdicts.
//!
//! Algorithm 1's line-3 implication test dominates policy-evaluation
//! cost, and the optimizer asks it for the *same* (query predicate,
//! policy expression) pairs over and over: annotation rules AR1–AR4
//! evaluate overlapping subtrees of one query, the dynamic-programming
//! enumeration revisits the same local queries under different join
//! orders, and the resilient loop re-plans the same query after every
//! fault. The prover is pure — its verdict depends only on the two
//! predicates — so the verdicts memoize perfectly.
//!
//! Verdicts are keyed by value: the query predicate itself, then the
//! expression id. Expression ids name expressions of one catalog, so
//! one memo serves one catalog — the engine that owns the memo holds an
//! immutable snapshot, and a new snapshot gets a new engine and a cold
//! memo. Hit/miss counters feed the engine's optimizer metrics.

use geoqp_expr::ScalarExpr;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Verdicts keyed by query predicate, then by expression id.
type Verdicts = HashMap<Option<ScalarExpr>, HashMap<usize, bool>>;

/// A shared cache of implication verdicts over one policy catalog.
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

    /// Return the memoized verdict for `(pred, expr_id)`, computing and
    /// storing it via `prove` on a miss. A hit clones nothing; the
    /// predicate is cloned once, on its first miss.
    pub fn check(
        &self,
        pred: &Option<ScalarExpr>,
        expr_id: usize,
        prove: impl FnOnce() -> bool,
    ) -> bool {
        let mut verdicts = self.verdicts.lock().expect("memo lock poisoned");
        if let Some(&v) = verdicts.get(pred).and_then(|by_id| by_id.get(&expr_id)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        // The prover is pure and lock-cheap at this scale; holding the
        // lock keeps concurrent re-plans from proving the same pair twice.
        let v = prove();
        if let Some(by_id) = verdicts.get_mut(pred) {
            by_id.insert(expr_id, v);
        } else {
            verdicts.insert(pred.clone(), HashMap::from([(expr_id, v)]));
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
    use geoqp_expr::ScalarExpr as E;

    #[test]
    fn memoizes_per_key_and_counts() {
        let m = ImplicationMemo::new();
        let p = Some(E::col("x").gt(E::lit(5i64)));
        let mut proofs = 0;
        for _ in 0..3 {
            let v = m.check(&p, 7, || {
                proofs += 1;
                true
            });
            assert!(v);
        }
        assert_eq!(proofs, 1, "verdict must be proven once");
        assert_eq!(m.hits(), 2);
        assert_eq!(m.misses(), 1);
        // A different key proves again.
        assert!(!m.check(&p, 8, || false));
        assert_eq!(m.misses(), 2);
    }

    #[test]
    fn predicates_are_keyed_by_value() {
        let m = ImplicationMemo::new();
        assert!(m.check(&Some(E::col("x").gt(E::lit(5i64))), 0, || true));
        // A structurally equal predicate built anew is the same key...
        assert!(m.check(&Some(E::col("x").gt(E::lit(5i64))), 0, || false));
        assert_eq!((m.hits(), m.misses()), (1, 1));
        // ...a different literal, or no predicate at all, is not.
        assert!(!m.check(&Some(E::col("x").gt(E::lit(6i64))), 0, || false));
        assert!(!m.check(&None, 0, || false));
        assert_eq!((m.len(), m.misses()), (3, 3));
    }
}

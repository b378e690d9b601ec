//! The one place a key fingerprint becomes a table position.
//!
//! The hash join and the hash aggregate both look rows up by a `u64`
//! key fingerprint ([`ColumnarBatch::key_fingerprints`]) and then verify
//! the candidates with a typed comparison. [`KeyIndex`] is the lookup
//! and [`KeyEq`] the comparison; neither kernel holds a table of its
//! own.
//!
//! The index asks one thing of a fingerprint — *equal keys have equal
//! fingerprints* — and nothing about how its bits are distributed: it
//! runs every fingerprint through its own finalizer before taking slot
//! bits ([`KeyIndex::position`]), so a fold that leaves half the word
//! constant (an `f64`-encoded small integer does) costs nothing here.
//! Collisions, of fingerprints or of positions, cost comparisons, never
//! correctness: `candidates` may yield ids whose key differs, and the
//! caller's [`KeyEq`] is what decides.

use geoqp_common::{Column, ColumnarBatch};

/// End-of-chain / empty-slot marker; never a valid entry number.
const NONE: u32 = u32::MAX;

/// Entries per slot at which the slot arrays double: a lookup inspects
/// its own key's entries plus, on average, at most this many others.
const MAX_LOAD: usize = 1;

/// Smallest slot count (a power of two).
const MIN_SLOTS: usize = 16;

/// One `(fingerprint, id)` pair, chained to the next pair that was
/// inserted into the same slot.
struct Entry {
    fp: u64,
    id: u32,
    next: u32,
}

/// A multimap from key fingerprint to the `u32` ids inserted under it,
/// yielding them back **in insertion order** — the property that makes
/// join match order and group numbering a function of the input alone.
pub(crate) struct KeyIndex {
    /// First entry of each slot's chain; a power of two of them.
    heads: Vec<u32>,
    /// Last entry of each slot's chain: appending there is what keeps a
    /// chain in insertion order.
    tails: Vec<u32>,
    /// Every pair ever inserted, in insertion order.
    entries: Vec<Entry>,
}

impl KeyIndex {
    /// An index sized so that `n` inserts never grow it.
    pub(crate) fn with_capacity(n: usize) -> KeyIndex {
        let slots = n.div_ceil(MAX_LOAD).next_power_of_two().max(MIN_SLOTS);
        KeyIndex {
            heads: vec![NONE; slots],
            tails: vec![NONE; slots],
            entries: Vec::with_capacity(n),
        }
    }

    /// The slot of `fp`: a full-avalanche finalizer (the `fmix64` step of
    /// MurmurHash3, a bijection on `u64`), then the top bits. Every
    /// input bit reaches every slot bit, whatever the fold upstream did.
    fn position(&self, fp: u64) -> usize {
        let mut x = fp;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^= x >> 33;
        (x >> (64 - self.heads.len().trailing_zeros())) as usize
    }

    /// Record `id` under `fp`, after everything inserted before it.
    pub(crate) fn insert(&mut self, fp: u64, id: u32) {
        if self.entries.len() >= self.heads.len() * MAX_LOAD {
            // Re-linking in entry order keeps every chain in insertion
            // order across the growth.
            self.heads = vec![NONE; self.heads.len() * 2];
            self.tails = vec![NONE; self.heads.len()];
            for e in 0..self.entries.len() {
                self.link(e as u32);
            }
        }
        let e = self.entries.len();
        assert!(e < NONE as usize, "a key index holds under 2^32 - 1 ids");
        self.entries.push(Entry { fp, id, next: NONE });
        self.link(e as u32);
    }

    /// Append entry `e` to its slot's chain.
    fn link(&mut self, e: u32) {
        self.entries[e as usize].next = NONE;
        let p = self.position(self.entries[e as usize].fp);
        match self.tails[p] {
            NONE => self.heads[p] = e,
            tail => self.entries[tail as usize].next = e,
        }
        self.tails[p] = e;
    }

    /// The entries chained in `fp`'s slot, in insertion order: what a
    /// lookup has to inspect.
    fn chain(&self, fp: u64) -> impl Iterator<Item = &Entry> + '_ {
        // `NONE` is past the end of `entries`, so it ends the walk.
        let at = |e: u32| self.entries.get(e as usize);
        std::iter::successors(at(self.heads[self.position(fp)]), move |e| at(e.next))
    }

    /// The ids inserted under `fp`, in insertion order.
    pub(crate) fn candidates(&self, fp: u64) -> impl Iterator<Item = u32> + '_ {
        self.chain(fp).filter(move |e| e.fp == fp).map(|e| e.id)
    }
}

/// "Row `i` of batch A equals row `j` of batch B on these key columns",
/// with [`Column::eq_at`]'s semantics: NULL equals NULL, which is what
/// grouping wants; a join never asks about a NULL key because it skips
/// such rows before they reach the index. One resolved [`KeyPair`] per
/// key column, so a two-column key is two slice comparisons, not two
/// walks of `eq_at`'s variant match.
pub(crate) struct KeyEq<'a>(Vec<KeyPair<'a>>);

/// How one key column of A is compared with its counterpart in B.
enum KeyPair<'a> {
    /// `Int64` on both sides, no NULL row ever compared.
    Int64(&'a [i64], &'a [i64]),
    /// `Date` on both sides, no NULL row ever compared.
    Date(&'a [i32], &'a [i32]),
    /// Any other pairing, through [`Column::eq_at`].
    General(&'a Column, &'a Column),
}

impl<'a> KeyEq<'a> {
    /// Resolve the comparator once per kernel call. `null_free` promises
    /// that no row with a NULL key will be passed to [`KeyEq::eq`]; only
    /// then may a fixed-width pair compare raw slices, whose NULL slots
    /// hold a placeholder rather than a value.
    pub(crate) fn new(
        a: &'a ColumnarBatch,
        a_cols: &[usize],
        b: &'a ColumnarBatch,
        b_cols: &[usize],
        null_free: bool,
    ) -> KeyEq<'a> {
        let pair = |(&ac, &bc)| match (null_free, a.column(ac), b.column(bc)) {
            (true, Column::Int64(x), Column::Int64(y)) => KeyPair::Int64(&x.values, &y.values),
            (true, Column::Date(x), Column::Date(y)) => KeyPair::Date(&x.values, &y.values),
            (_, x, y) => KeyPair::General(x, y),
        };
        KeyEq(a_cols.iter().zip(b_cols).map(pair).collect())
    }

    /// Does row `i` of A carry the same key as row `j` of B?
    #[inline]
    pub(crate) fn eq(&self, i: usize, j: usize) -> bool {
        self.0.iter().all(|pair| match pair {
            KeyPair::Int64(a, b) => a[i] == b[j],
            KeyPair::Date(a, b) => a[i] == b[j],
            KeyPair::General(a, b) => a.eq_at(i, b, j),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoqp_common::Value;

    const N: i64 = 1 << 17;

    /// Fingerprints of `N` rows by the real fold, all columns as the key.
    fn folded(columns: &[&dyn Fn(i64) -> Value]) -> Vec<u64> {
        let rows: Vec<Vec<Value>> = (0..N)
            .map(|i| columns.iter().map(|c| c(i)).collect())
            .collect();
        let batch = ColumnarBatch::from_rows(&rows, columns.len());
        let key: Vec<usize> = (0..columns.len()).collect();
        batch.key_fingerprints(&key, None).0
    }

    /// Index `fps` at exactly the module's load limit, then look every
    /// one up: (most, mean) entries a lookup inspected.
    fn inspected(fps: &[u64]) -> (usize, f64) {
        let mut index = KeyIndex::with_capacity(fps.len());
        for (id, &fp) in fps.iter().enumerate() {
            index.insert(fp, id as u32);
        }
        assert_eq!(
            index.heads.len() * MAX_LOAD,
            fps.len(),
            "no slack, no growth"
        );
        let lens: Vec<usize> = fps.iter().map(|&fp| index.chain(fp).count()).collect();
        let total: usize = lens.iter().sum();
        (
            lens.into_iter().max().unwrap_or(0),
            total as f64 / fps.len() as f64,
        )
    }

    /// Counts, never time: whatever the fold leaves constant in a
    /// fingerprint, a lookup inspects a handful of entries. An index that
    /// took slot bits straight from these fingerprints fails the first
    /// line — every dense `Int64` key shares its low 33 bits.
    #[test]
    fn lookups_inspect_a_bounded_number_of_entries() {
        let sets: Vec<(&str, Vec<u64>)> = vec![
            ("dense int64", folded(&[&Value::Int64])),
            ("int64 stride 32", folded(&[&|i| Value::Int64(i * 32)])),
            ("int64 stride 2^20", folded(&[&|i| Value::Int64(i << 20)])),
            ("whole float64", folded(&[&|i| Value::Float64(i as f64)])),
            ("date", folded(&[&|i| Value::Date(i as i32)])),
            (
                "dictionary string",
                folded(&[&|i| Value::str(format!("Customer#{i:09}"))]),
            ),
            (
                "int64 x int64",
                folded(&[&|i| Value::Int64(i / 512), &|i| Value::Int64(i % 512)]),
            ),
            (
                "date x string",
                folded(&[&|i| Value::Date((i / 64) as i32), &|i| {
                    Value::str(format!("s{}", i % 64))
                }]),
            ),
            (
                "low 32 bits equal",
                (0..N as u64).map(|i| i << 32 | 0xdead_beef).collect(),
            ),
            (
                "high 32 bits equal",
                (0..N as u64).map(|i| 0xdead_beef << 32 | i).collect(),
            ),
        ];
        for (name, fps) in &sets {
            let (most, mean) = inspected(fps);
            println!("{name}: most {most}, mean {mean:.3}");
            assert!(
                most <= 16 && mean <= 2.25,
                "{name}: most {most}, mean {mean}"
            );
        }
    }

    #[test]
    fn candidates_keep_insertion_order_across_growth() {
        let fps = [11u64, 22, 33];
        let mut index = KeyIndex::with_capacity(0);
        let first_slots = index.heads.len();
        for id in 0..1000u32 {
            index.insert(fps[id as usize % 3], id);
            // Every prefix, so each doubling is checked right after it.
            for (k, &fp) in fps.iter().enumerate() {
                let want: Vec<u32> = (0..=id).filter(|i| *i as usize % 3 == k).collect();
                assert_eq!(index.candidates(fp).collect::<Vec<_>>(), want);
            }
        }
        assert!(index.heads.len() >= 8 * first_slots, "the index grew");
        assert_eq!(index.candidates(44).count(), 0);
    }

    #[test]
    fn one_fingerprint_two_keys_share_a_chain_and_the_comparator_separates_them() {
        let rows = vec![
            vec![Value::Int64(7), Value::str("x")],
            vec![Value::Int64(9), Value::str("x")],
            vec![Value::Int64(7), Value::str("x")],
            vec![Value::Null, Value::str("x")],
            vec![Value::Null, Value::str("x")],
            vec![Value::Int64(0), Value::str("x")],
        ];
        let b = ColumnarBatch::from_rows(&rows, 2);
        let mut index = KeyIndex::with_capacity(rows.len());
        for id in 0..rows.len() as u32 {
            index.insert(42, id);
        }
        let all: Vec<u32> = index.candidates(42).collect();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5], "one chain, insertion order");

        let matching = |keq: &KeyEq<'_>, row: usize| -> Vec<u32> {
            let same = |&c: &u32| keq.eq(c as usize, row);
            index.candidates(42).filter(same).collect()
        };
        // Join-style: fixed-width keys, NULL rows never asked about.
        let raw = KeyEq::new(&b, &[0], &b, &[0], true);
        assert!(matches!(raw.0[..], [KeyPair::Int64(..)]));
        assert_eq!(matching(&raw, 0), vec![0, 2]);
        assert_eq!(matching(&raw, 1), vec![1]);
        // Group-style: NULL equals NULL and nothing else — not even the
        // 0 its slot holds.
        for cols in [&[0usize][..], &[0, 1][..]] {
            let general = KeyEq::new(&b, cols, &b, cols, false);
            assert!(general.0.iter().all(|p| matches!(p, KeyPair::General(..))));
            assert_eq!(matching(&general, 0), vec![0, 2]);
            assert_eq!(matching(&general, 3), vec![3, 4]);
            assert_eq!(matching(&general, 5), vec![5]);
        }
    }

    #[test]
    fn every_key_pair_resolves_on_its_own() {
        let rows = vec![
            vec![
                Value::Int64(1),
                Value::Date(10),
                Value::Float64(1.0),
                Value::str("x"),
            ],
            vec![
                Value::Int64(2),
                Value::Date(10),
                Value::Float64(2.5),
                Value::str("y"),
            ],
        ];
        let b = ColumnarBatch::from_rows(&rows, 4);
        // Two fixed-width keys: both raw.
        let two = KeyEq::new(&b, &[0, 1], &b, &[0, 1], true);
        assert!(matches!(two.0[..], [KeyPair::Int64(..), KeyPair::Date(..)]));
        assert!(two.eq(0, 0) && !two.eq(0, 1), "the Int64 half differs");
        // A raw pair beside ones that must stay general: Int64 ⋈ Float64
        // merges the numeric domain, strings go through the dictionary.
        let mixed = KeyEq::new(&b, &[0, 0, 3], &b, &[0, 2, 3], true);
        assert!(matches!(
            mixed.0[..],
            [
                KeyPair::Int64(..),
                KeyPair::General(..),
                KeyPair::General(..)
            ]
        ));
        assert!(mixed.eq(0, 0), "1 = 1 = 1.0, x = x");
        assert!(!mixed.eq(1, 1), "2 != 2.5");
        // The empty key: every row equals every row.
        assert!(KeyEq::new(&b, &[], &b, &[], true).eq(0, 1));
    }
}

//! The one place a join or grouping key becomes a table position.
//!
//! The hash join and the hash aggregate look rows up by key and verify
//! the candidates with one typed comparison, [`KeyEq`]; neither kernel
//! holds a table of its own. A key reaches a position one of two ways:
//!
//! * **Hashed** — [`KeyIndex`] takes a `u64` key fingerprint
//!   ([`ColumnarBatch::key_fingerprints`]) and runs it through its own
//!   finalizer before taking slot bits ([`KeyIndex::position`]). It asks
//!   one thing of a fingerprint — *equal keys have equal fingerprints* —
//!   and nothing about how its bits are distributed, so a fold that
//!   leaves half the word constant (an `f64`-encoded small integer does)
//!   costs nothing here. Collisions, of fingerprints or of positions,
//!   cost comparisons, never correctness: `candidates` may yield ids
//!   whose key differs, and the caller's [`KeyEq`] decides. A join
//!   [`positioning`] turns down hashes, and so does a grouping
//!   [`group_positioning`] turns down.
//! * **Positioned** — a join with an `Int64 = Int64` or `Date = Date` key
//!   pair whose build-side values span few enough slots
//!   ([`SLOTS_PER_ROW`] per input row) puts a build row whose key is `v`
//!   at `v − min` of a flat array, and the probe reads its own key column
//!   instead: one subtraction replaces fingerprinting both sides and the
//!   finalizer. The widest such span wins (it tells the most rows apart);
//!   [`KeyEq`] verifies the other pairs, except that one other `Int64 =
//!   Int64` pair beside a probe side with no NULL key is compared from
//!   its two slices in a loop of its own. A grouping positions the same
//!   way by an `Int64` or `Date` column, or by a string column's
//!   dictionary code (a dictionary holds each string once, so a code is
//!   a position already), NULL in a slot of its own; of several such
//!   columns the one with the most distinct values wins, and the groups
//!   that share a slot chain.
//!
//! Both yield a key's rows in insertion order — the property that makes
//! join match order and group numbering a function of the input alone —
//! so which way a kernel positions its rows never shows in its output.
//! [`JoinIndex`] is the join's one build/probe interface over either,
//! [`Grouping`] the aggregate's. Every probe loop emits its matches by
//! one rule ([`Emit`]): write the candidate pair, advance by its key
//! test, so no loop branches on whether a candidate matched. A positioned
//! table records while it is filled whether any slot holds two build
//! rows; when none does, a one-key join's probe has no branch at all.

use geoqp_common::{Cells, Column, ColumnarBatch};

/// End-of-chain / empty-slot marker; never a valid entry number.
const NONE: u32 = u32::MAX;

/// Entries per slot at which the slot arrays double: a lookup inspects
/// its own key's entries plus, on average, at most this many others.
const MAX_LOAD: usize = 1;

/// Smallest slot count (a power of two).
const MIN_SLOTS: usize = 16;

/// Array slots a positioned join may spend per input row (build plus
/// probe), and a positioned grouping per selected row: a wider span is
/// mostly empty slots, and hashing is cheaper than the memory.
const SLOTS_PER_ROW: usize = 4;

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

    /// The two slices of a comparator that is one `Int64` pair and
    /// nothing else: what a join whose other key is one integer compares
    /// in a loop of its own.
    fn one_int64(&self) -> Option<(&'a [i64], &'a [i64])> {
        match self.0[..] {
            [KeyPair::Int64(a, b)] => Some((a, b)),
            _ => None,
        }
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

/// Selected rows of a batch and their key columns, as a keyed kernel
/// reads them: one input of a join, or a grouping's input.
#[derive(Clone, Copy)]
pub(crate) struct Keyed<'a> {
    pub(crate) batch: &'a ColumnarBatch,
    /// The selected physical rows, in order and never repeated (a
    /// filter's, sort's or limit's selection); `None` = every row.
    pub(crate) sel: Option<&'a [u32]>,
    /// Key columns; a join's pairwise with the other side's.
    pub(crate) keys: &'a [usize],
}

impl<'a> Keyed<'a> {
    /// Selected rows.
    fn len(&self) -> usize {
        self.sel.map_or(self.batch.len(), <[u32]>::len)
    }

    /// Physical index of selected row `k`.
    #[inline]
    fn phys(&self, k: usize) -> usize {
        self.sel.map_or(k, |s| s[k] as usize)
    }

    /// The key columns that are NULL in some row: a row NULL in any key
    /// column never joins (SQL semantics), and only these need asking.
    fn nullable(&self) -> Vec<&'a Column> {
        let columns = self.keys.iter().map(|&c| self.batch.column(c));
        columns.filter(|c| c.has_null()).collect()
    }

    /// The key columns but the `skip`-th.
    fn keys_but(&self, skip: usize) -> Vec<usize> {
        let others = self.keys.iter().enumerate().filter(|&(k, _)| k != skip);
        others.map(|(_, &c)| c).collect()
    }
}

/// Which key positions a keyed kernel's rows, and how.
pub(crate) struct Positioning {
    /// Index into the input's `keys` (a join's, pairwise).
    pub(crate) key: usize,
    /// Subtracted from a key before it is a slot: the smallest valid
    /// value of an integer key (0 when there is none), 0 for a
    /// dictionary code.
    min: i64,
    /// Slots the valid values need: `max − min + 1` of an integer key (0
    /// when there is none), the dictionary's length for a string key.
    span: usize,
}

/// An integer key column's cells, read in place; a `Date`'s days widen
/// to `i64`.
enum Ints<'a> {
    Int64(&'a Cells<i64>),
    Date(&'a Cells<i32>),
}

/// `(min, max − min + 1)` of `cells` over `side`'s selected rows where it
/// is valid, `(0, 0)` when no row is: `i128`, because `i64::MIN` and
/// `i64::MAX` on one side span 2^64 values.
fn range<T: Copy + Into<i64>>(side: &Keyed<'_>, cells: &Cells<T>) -> (i64, i128) {
    let valid = (0..side.len())
        .map(|k| side.phys(k))
        .filter(|&i| cells.valid[i]);
    let bounds = valid
        .map(|i| cells.values[i].into())
        .fold(None, |acc, v| match acc {
            None => Some((v, v)),
            Some((lo, hi)) => Some((v.min(lo), v.max(hi))),
        });
    bounds.map_or((0, 0), |(lo, hi)| (lo, hi as i128 - lo as i128 + 1))
}

/// The key pair whose build-side values position `build`'s rows for
/// `probe`, or `None` when the join hashes: among the `Int64 = Int64`
/// and `Date = Date` pairs whose values span at most [`SLOTS_PER_ROW`]
/// slots per row of the two inputs, the widest (the first of equals).
/// Every other pairing — strings, `Int64 = Float64` — hashes, and so
/// does a span the bound turns down.
pub(crate) fn positioning(build: &Keyed<'_>, probe: &Keyed<'_>) -> Option<Positioning> {
    let limit = SLOTS_PER_ROW.saturating_mul(build.len() + probe.len()) as i128;
    let (mut best, mut widest) = (None, -1);
    for (key, (&b, &p)) in build.keys.iter().zip(probe.keys).enumerate() {
        let (min, span) = match (build.batch.column(b), probe.batch.column(p)) {
            (Column::Int64(cells), Column::Int64(_)) => range(build, cells),
            (Column::Date(cells), Column::Date(_)) => range(build, cells),
            _ => continue,
        };
        if span <= limit && span > widest {
            widest = span;
            let span = span as usize;
            best = Some(Positioning { key, min, span });
        }
    }
    best
}

/// The key column that positions a grouping of `input`'s rows, or
/// `None` when the grouping hashes. A column qualifies when its slots
/// are few — an `Int64` or `Date` column whose values span at most
/// [`SLOTS_PER_ROW`] slots per selected row, or a string column whose
/// dictionary is no longer (a code already is a position); `Float64`,
/// `Bool` and mixed columns never do. Of several, the one with the most
/// distinct values among the selected rows wins (the first of equals):
/// it leaves the fewest groups sharing a slot, where a span or a
/// dictionary's length — both counting values no row holds — would
/// rank a customer's name above its key although they tell the same
/// rows apart.
pub(crate) fn group_positioning(input: &Keyed<'_>) -> Option<Positioning> {
    let limit = SLOTS_PER_ROW.saturating_mul(input.len()) as i128;
    let mut best: Option<(usize, Positioning)> = None;
    for (key, &c) in input.keys.iter().enumerate() {
        let candidate = match input.batch.column(c) {
            Column::Int64(cells) => candidate(input, cells, key, range(input, cells), limit),
            Column::Date(cells) => candidate(input, cells, key, range(input, cells), limit),
            Column::Str { dict, codes, .. } => {
                candidate(input, codes, key, (0, dict.len() as i128), limit)
            }
            _ => None,
        };
        if let Some((distinct, at)) = candidate {
            if best.as_ref().is_none_or(|(most, _)| distinct > *most) {
                best = Some((distinct, at));
            }
        }
    }
    best.map(|(_, at)| at)
}

/// Key `key` of a grouping, its `cells` positioned from `min` over
/// `span` slots, when that is at most `limit`: with the number of slots
/// the selected rows fill — its distinct values, NULL counting as one.
fn candidate<T: Copy + Into<i64>>(
    input: &Keyed<'_>,
    cells: &Cells<T>,
    key: usize,
    (min, span): (i64, i128),
    limit: i128,
) -> Option<(usize, Positioning)> {
    if span > limit {
        return None;
    }
    let mut seen = vec![false; span as usize + 1];
    let slots = (0..input.len()).map(|k| slot(cells, input.phys(k), min));
    let distinct = slots
        .filter(|&p| !std::mem::replace(&mut seen[p], true))
        .count();
    let span = span as usize;
    Some((distinct, Positioning { key, min, span }))
}

/// The slot of physical row `i` in a grouping positioned by `cells`: 0
/// for a NULL, `v − min + 1` for a value `v`.
#[inline]
fn slot<T: Copy + Into<i64>>(cells: &Cells<T>, i: usize, min: i64) -> usize {
    match cells.valid[i] {
        true => cells.values[i].into().wrapping_sub(min) as usize + 1,
        false => 0,
    }
}

/// Each selected row's group, numbered densely in first-appearance
/// order whichever way the rows were grouped.
pub(crate) struct Grouping {
    /// The group of each selected row.
    pub(crate) ids: Vec<u32>,
    /// Each group's first physical row: the row its key is read from.
    pub(crate) reps: Vec<u32>,
    /// The groups in ascending key order, when the slots already hold
    /// it: the first key column is an integer that positions, and no
    /// slot holds two groups, so slot order is that column's order, NULL
    /// (slot 0) first.
    pub(crate) sorted: Option<Vec<u32>>,
}

impl Grouping {
    /// Group `input`'s selected rows by its key columns, NULL equal to
    /// NULL: by the key [`group_positioning`] picks, the other keys
    /// verified with [`KeyEq`], or by key fingerprint when it picks none.
    pub(crate) fn of(input: Keyed<'_>) -> Grouping {
        let Some(at) = group_positioning(&input) else {
            return Grouping::hashed(input);
        };
        let integer_first = at.key == 0;
        match input.batch.column(input.keys[at.key]) {
            Column::Int64(cells) => Grouping::positioned(input, &at, cells, integer_first),
            Column::Date(cells) => Grouping::positioned(input, &at, cells, integer_first),
            Column::Str { codes, .. } => Grouping::positioned(input, &at, codes, false),
            // `group_positioning` picks only the three layouts above.
            _ => Grouping::hashed(input),
        }
    }

    /// Group by fingerprint through a [`KeyIndex`] of group ids.
    fn hashed(input: Keyed<'_>) -> Grouping {
        let (fps, live) = input.batch.key_fingerprints(input.keys, input.sel);
        // NULL is a key value when grouping, so `live` only tells the
        // comparator whether it may skip the validity checks.
        let null_free = live.iter().all(|&l| l);
        let keq = KeyEq::new(input.batch, input.keys, input.batch, input.keys, null_free);
        let mut index = KeyIndex::with_capacity(0);
        let (mut ids, mut reps) = (Vec::with_capacity(fps.len()), Vec::new());
        for (k, &fp) in fps.iter().enumerate() {
            let i = input.phys(k);
            let found = index
                .candidates(fp)
                .find(|&g| keq.eq(reps[g as usize] as usize, i));
            let g = found.unwrap_or_else(|| {
                let g = reps.len() as u32;
                index.insert(fp, g);
                reps.push(i as u32);
                g
            });
            ids.push(g);
        }
        Grouping {
            ids,
            reps,
            sorted: None,
        }
    }

    /// Group by slot: a row whose positioning key is `v` lands in slot
    /// `v − min + 1`, a NULL in slot 0, and a slot chains the groups that
    /// share it (their other keys differ). `ordered` says slot order is
    /// key order, which is what lets [`Grouping::sorted`] be read off.
    fn positioned<T: Copy + Default + Into<i64>>(
        input: Keyed<'_>,
        at: &Positioning,
        cells: &Cells<T>,
        ordered: bool,
    ) -> Grouping {
        assert!(
            input.batch.len() < NONE as usize,
            "a grouping holds under 2^32 - 1 rows"
        );
        let rest = input.keys_but(at.key);
        let null_free = rest.iter().all(|&c| !input.batch.column(c).has_null());
        let keq = KeyEq::new(input.batch, &rest, input.batch, &rest, null_free);
        let mut heads = vec![NONE; at.span + 1];
        // Per group: the next group in its slot.
        let mut next: Vec<u32> = Vec::new();
        let (mut ids, mut reps) = (Vec::with_capacity(input.len()), Vec::new());
        let mut chained = false;
        for k in 0..input.len() {
            let i = input.phys(k);
            let slot = slot(cells, i, at.min);
            let mut g = heads[slot];
            while g != NONE && !keq.eq(reps[g as usize] as usize, i) {
                g = next[g as usize];
            }
            if g == NONE {
                g = reps.len() as u32;
                chained |= heads[slot] != NONE;
                next.push(heads[slot]);
                heads[slot] = g;
                reps.push(i as u32);
            }
            ids.push(g);
        }
        let in_slot_order = || heads.iter().copied().filter(|&g| g != NONE).collect();
        Grouping {
            ids,
            reps,
            sorted: (ordered && !chained).then(in_slot_order),
        }
    }
}

/// A flat table of build rows by `key − min`: `heads[p]` is the first
/// build row whose key is `min + p`, `next[i]` the one after row `i`.
struct Positions {
    min: i64,
    /// One slot per key in `min..=max`, then one more that is always
    /// `NONE`: every key outside the range reads that one.
    heads: Vec<u32>,
    /// Indexed by physical build row.
    next: Vec<u32>,
    /// No slot holds two build rows, so no chain has a second link.
    unique: bool,
}

impl Positions {
    /// Place `build`'s rows by `keys`, skipping those NULL in any of
    /// `nullable`. Back to front: each row goes in front of the rows
    /// after it, so every chain reads in build order.
    fn place<T: Copy + Into<i64>>(
        build: &Keyed<'_>,
        keys: &[T],
        at: &Positioning,
        nullable: &[&Column],
    ) -> Positions {
        assert!(
            build.batch.len() < NONE as usize,
            "a join side holds under 2^32 - 1 rows"
        );
        let mut heads = vec![NONE; at.span + 1];
        let mut next = vec![NONE; build.batch.len()];
        let mut unique = true;
        for k in (0..build.len()).rev() {
            let i = build.phys(k);
            if nullable.iter().any(|c| c.is_null(i)) {
                continue;
            }
            let p = keys[i].into().wrapping_sub(at.min) as usize;
            unique &= heads[p] == NONE;
            next[i] = heads[p];
            heads[p] = i as u32;
        }
        Positions {
            min: at.min,
            heads,
            next,
            unique,
        }
    }

    /// The first build row whose key is `v`, or `NONE`, with no branch:
    /// an offset past the key range is clamped onto the last slot, which
    /// is always `NONE`. Wrapping is exact: the range is `max − min + 1`
    /// slots and `max ≤ i64::MAX`, so only a `v` in `min..=max` lands
    /// inside it.
    #[inline]
    fn head(&self, v: i64) -> u32 {
        let p = v.wrapping_sub(self.min) as u64;
        let last = self.heads.len() - 1;
        self.heads[p.min(last as u64) as usize]
    }
}

/// A join's match list as a probe loop writes it: every candidate pair
/// goes at the end, and the end advances by the candidate's key test, so
/// no loop branches on whether a candidate matched. Sized for one match
/// per probe row and doubled when full.
struct Emit {
    build: Vec<u32>,
    probe: Vec<u32>,
    n: usize,
}

impl Emit {
    fn with_capacity(rows: usize) -> Emit {
        Emit {
            build: vec![0; rows],
            probe: vec![0; rows],
            n: 0,
        }
    }

    /// Write `(i, j)` and keep it when `hit`.
    #[inline]
    fn push(&mut self, i: u32, j: u32, hit: bool) {
        if self.n == self.build.len() {
            self.grow();
        }
        self.build[self.n] = i;
        self.probe[self.n] = j;
        self.n += usize::from(hit);
    }

    #[cold]
    fn grow(&mut self) {
        let len = (self.build.len() * 2).max(16);
        self.build.resize(len, 0);
        self.probe.resize(len, 0);
    }

    /// The kept pairs: `(build rows, probe rows)`. A list under half full
    /// is shrunk, so a selective join holds no more than it keeps.
    fn finish(self) -> (Vec<u32>, Vec<u32>) {
        let n = self.n;
        let fit = |mut v: Vec<u32>| {
            v.truncate(n);
            if n < v.capacity() / 2 {
                v.shrink_to_fit();
            }
            v
        };
        (fit(self.build), fit(self.probe))
    }
}

/// How a [`JoinIndex`] finds a probe row's candidates.
enum Lookup<'a> {
    /// By fingerprint: the build rows' [`KeyIndex`], and the probe rows'
    /// fingerprints and liveness by selected row.
    Hashed {
        index: KeyIndex,
        fps: Vec<u64>,
        live: Vec<bool>,
    },
    /// By position: the build rows' table, the probe's positioning key
    /// column, and the probe key columns that hold a NULL.
    Positioned {
        table: Positions,
        key: Ints<'a>,
        nullable: Vec<&'a Column>,
    },
}

/// A join's build side indexed for its probe side: built once, then
/// probed by disjoint ranges of probe rows, in any order and from any
/// thread. Candidates come back in build order whichever [`Lookup`] the
/// inputs chose, so the match list is the row engine's.
pub(crate) struct JoinIndex<'a> {
    probe: Keyed<'a>,
    /// The key pairs the lookup does not already prove equal.
    keq: KeyEq<'a>,
    lookup: Lookup<'a>,
}

impl<'a> JoinIndex<'a> {
    /// Index `build` for `probe`, positioned when [`positioning`] finds
    /// a pair, hashed otherwise.
    pub(crate) fn build(build: Keyed<'a>, probe: Keyed<'a>) -> JoinIndex<'a> {
        let Some(at) = positioning(&build, &probe) else {
            return JoinIndex::hashed(build, probe);
        };
        // NULL keys are skipped on both sides before any comparison.
        let keq = KeyEq::new(
            build.batch,
            &build.keys_but(at.key),
            probe.batch,
            &probe.keys_but(at.key),
            true,
        );
        let (b, p) = (build.keys[at.key], probe.keys[at.key]);
        let nullable = build.nullable();
        let (table, key) = match (build.batch.column(b), probe.batch.column(p)) {
            (Column::Int64(bc), Column::Int64(pc)) => (
                Positions::place(&build, &bc.values, &at, &nullable),
                Ints::Int64(pc),
            ),
            (Column::Date(bc), Column::Date(pc)) => (
                Positions::place(&build, &bc.values, &at, &nullable),
                Ints::Date(pc),
            ),
            // `positioning` picks only the two pairings above.
            _ => return JoinIndex::hashed(build, probe),
        };
        JoinIndex {
            probe,
            keq,
            lookup: Lookup::Positioned {
                table,
                key,
                nullable: probe.nullable(),
            },
        }
    }

    /// Index `build` for `probe` by key fingerprints.
    fn hashed(build: Keyed<'a>, probe: Keyed<'a>) -> JoinIndex<'a> {
        let (bfps, blive) = build.batch.key_fingerprints(build.keys, build.sel);
        let (fps, live) = probe.batch.key_fingerprints(probe.keys, probe.sel);
        let mut index = KeyIndex::with_capacity(bfps.len());
        for (k, &fp) in bfps.iter().enumerate() {
            if blive[k] {
                index.insert(fp, build.phys(k) as u32);
            }
        }
        JoinIndex {
            probe,
            keq: KeyEq::new(build.batch, build.keys, probe.batch, probe.keys, true),
            lookup: Lookup::Hashed { index, fps, live },
        }
    }

    /// The matches of selected probe rows `lo..hi`, in probe order and,
    /// per probe row, in build order: `(build rows, probe rows)`, both
    /// physical. Every loop emits by one rule ([`Emit`]): write each
    /// candidate, advance by its key test.
    pub(crate) fn matches(&self, (lo, hi): (usize, usize)) -> (Vec<u32>, Vec<u32>) {
        let mut out = Emit::with_capacity(hi - lo);
        match &self.lookup {
            Lookup::Hashed { index, fps, live } => {
                for k in lo..hi {
                    if !live[k] {
                        continue;
                    }
                    let j = self.probe.phys(k);
                    for i in index.candidates(fps[k]) {
                        out.push(i, j as u32, self.keq.eq(i as usize, j));
                    }
                }
            }
            Lookup::Positioned {
                table,
                key,
                nullable,
            } => match key {
                Ints::Int64(keys) => self.walk(table, keys, nullable, lo, hi, &mut out),
                Ints::Date(keys) => self.walk(table, keys, nullable, lo, hi, &mut out),
            },
        }
        out.finish()
    }

    /// [`JoinIndex::matches`] over a positioned table, the probe's key
    /// read from `keys`, in the cheapest loop the join's shape allows:
    ///
    /// * one key and a unique table — a probe row has at most one
    ///   candidate, and the loop has no branch at all;
    /// * one other key pair, `Int64 = Int64`, and no NULL among the
    ///   probe's keys (the table already left out build rows with one) —
    ///   that key is compared from its two slices, with no comparator to
    ///   dispatch and no row to skip;
    /// * otherwise the comparator verifies the other pairs.
    fn walk<T: Copy + Into<i64>>(
        &self,
        table: &Positions,
        keys: &Cells<T>,
        nullable: &[&Column],
        lo: usize,
        hi: usize,
        out: &mut Emit,
    ) {
        if table.unique && self.keq.0.is_empty() {
            for k in lo..hi {
                let j = self.probe.phys(k);
                let i = table.head(keys.values[j].into());
                out.push(i, j as u32, (i != NONE) & keys.valid[j]);
            }
        } else if let Some((build, probe)) = self.keq.one_int64().filter(|_| nullable.is_empty()) {
            for k in lo..hi {
                let j = self.probe.phys(k);
                let (v, mut i) = (probe[j], table.head(keys.values[j].into()));
                while i != NONE {
                    out.push(i, j as u32, build[i as usize] == v);
                    i = table.next[i as usize];
                }
            }
        } else {
            for k in lo..hi {
                let j = self.probe.phys(k);
                if nullable.iter().any(|c| c.is_null(j)) {
                    continue;
                }
                let mut i = table.head(keys.values[j].into());
                while i != NONE {
                    out.push(i, j as u32, self.keq.eq(i as usize, j));
                    i = table.next[i as usize];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoqp_common::Value;
    use proptest::collection::vec;
    use proptest::option;
    use proptest::prelude::*;

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

    fn batch(rows: impl IntoIterator<Item = Vec<Value>>, arity: usize) -> ColumnarBatch {
        ColumnarBatch::from_rows(&rows.into_iter().collect::<Vec<_>>(), arity)
    }

    fn side<'a>(b: &'a ColumnarBatch, sel: Option<&'a [u32]>, keys: &'a [usize]) -> Keyed<'a> {
        Keyed {
            batch: b,
            sel,
            keys,
        }
    }

    /// Every selected build row against every selected probe row, by
    /// [`Column::eq_at`] with NULL never joining: the list either lookup
    /// must produce.
    fn nested_loops(build: &Keyed<'_>, probe: &Keyed<'_>) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for k in 0..probe.len() {
            let j = probe.phys(k);
            for q in 0..build.len() {
                let i = build.phys(q);
                let equal = build.keys.iter().zip(probe.keys).all(|(&b, &p)| {
                    let (bc, pc) = (build.batch.column(b), probe.batch.column(p));
                    !bc.is_null(i) && !pc.is_null(j) && bc.eq_at(i, pc, j)
                });
                if equal {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    /// The join through [`JoinIndex::build`], whole and in 3-row probe
    /// morsels, equal to the hashed index's and to nested loops, in
    /// order: returns the pair that positioned it.
    fn check(build: Keyed<'_>, probe: Keyed<'_>) -> Option<usize> {
        let pairs =
            |(l, r): (Vec<u32>, Vec<u32>)| -> Vec<(u32, u32)> { l.into_iter().zip(r).collect() };
        let chosen = JoinIndex::build(build, probe);
        let hashed = JoinIndex::hashed(build, probe);
        let want = nested_loops(&build, &probe);
        let n = probe.len();
        assert_eq!(pairs(hashed.matches((0, n))), want, "hashed");
        assert_eq!(pairs(chosen.matches((0, n))), want, "chosen");
        let morsels: Vec<(u32, u32)> = (0..n)
            .step_by(3)
            .flat_map(|lo| pairs(chosen.matches((lo, (lo + 3).min(n)))))
            .collect();
        assert_eq!(morsels, want, "morsel-split");
        let at = positioning(&build, &probe);
        assert_eq!(
            matches!(chosen.lookup, Lookup::Positioned { .. }),
            at.is_some(),
            "the index took the rule's choice"
        );
        at.map(|p| p.key)
    }

    fn int(v: i64) -> Value {
        Value::Int64(v)
    }

    #[test]
    fn positioned_joins_match_hashed_ones_in_order() {
        // Negative keys, duplicates on both sides.
        let b = batch((0..60).map(|i| vec![int(i % 17 - 8)]), 1);
        let p = batch((0..50).map(|i| vec![int(i % 23 - 11)]), 1);
        assert_eq!(check(side(&b, None, &[0]), side(&p, None, &[0])), Some(0));

        // NULLs in the positioned column and in a verified one, and
        // selections on both sides — the build's reversed, as a sort
        // leaves it, so build order is selection order, not row order.
        let null_every = |i: i64, m: i64, v: Value| if i % m == 0 { Value::Null } else { v };
        let b = batch(
            (0..40).map(|i| vec![null_every(i, 7, int(i % 9)), null_every(i, 5, int(i % 2))]),
            2,
        );
        let p = batch(
            (0..45).map(|i| vec![null_every(i, 4, int(i % 11)), null_every(i, 6, int(i % 2))]),
            2,
        );
        let bsel: Vec<u32> = (0..40).rev().filter(|i| i % 3 != 1).collect();
        let psel: Vec<u32> = (0..45).filter(|i| i % 4 != 3).collect();
        let (b2, p2) = (
            side(&b, Some(&bsel), &[0, 1]),
            side(&p, Some(&psel), &[0, 1]),
        );
        assert_eq!(check(b2, p2), Some(0), "a span of 9 beats a span of 2");
        assert_eq!(
            check(side(&b, None, &[1, 0]), side(&p, None, &[1, 0])),
            Some(1)
        );

        // Three pairs, the widest (span 40) in every position; a Date
        // pair positions like an Int64 one.
        let row = |i: i64| vec![int(i % 3), int(i % 40 - 20), Value::Date((i % 7) as i32)];
        let b = batch((0..80).map(row), 3);
        let p = batch((0..90).map(|i| row(i * 7 + 1)), 3);
        for (keys, widest) in [([1, 0, 2], 0), ([0, 1, 2], 1), ([0, 2, 1], 2)] {
            assert_eq!(
                check(side(&b, None, &keys), side(&p, None, &keys)),
                Some(widest)
            );
        }
        assert_eq!(check(side(&b, None, &[2]), side(&p, None, &[2])), Some(0));
    }

    #[test]
    fn spans_past_the_bound_and_the_i64_extremes_hash() {
        // 5 + 5 rows: a span of up to SLOTS_PER_ROW · 10 is positioned.
        let limit = (SLOTS_PER_ROW * 10) as i64;
        for (span, positioned) in [(limit - 1, true), (limit, true), (limit + 1, false)] {
            let top = span - 1;
            let b = batch([0, 0, 7, top, 3].map(|v| vec![int(v)]), 1);
            let p = batch([0, 7, top, 3, top + 1].map(|v| vec![int(v)]), 1);
            let at = check(side(&b, None, &[0]), side(&p, None, &[0]));
            assert_eq!(at.is_some(), positioned, "span {span}");
        }

        // i64::MIN..=i64::MAX spans 2^64 values: hashed, and still exact.
        let b = batch([i64::MIN, 0, i64::MAX, i64::MIN].map(|v| vec![int(v)]), 1);
        let p = batch([i64::MAX, i64::MIN, 1, 0].map(|v| vec![int(v)]), 1);
        assert_eq!(check(side(&b, None, &[0]), side(&p, None, &[0])), None);

        // A small span at either end, probed from the other: the offset
        // wraps, and must still land outside the table.
        let (lo, hi) = (i64::MIN, i64::MAX);
        let far = [lo, lo + 1, lo + 2, -1, 0, hi - 2, hi - 1, hi];
        let p = batch(far.map(|v| vec![int(v)]), 1);
        for near in [[hi - 2, hi, hi - 1, hi], [lo + 1, lo, lo + 2, lo]] {
            let b = batch(near.map(|v| vec![int(v)]), 1);
            assert_eq!(check(side(&b, None, &[0]), side(&p, None, &[0])), Some(0));
        }
    }

    #[test]
    fn empty_sides_and_mixed_types() {
        let rows = batch((0..10).map(|i| vec![int(i), Value::Float64(i as f64)]), 2);
        let none = batch([], 2);
        let empty: &[u32] = &[];
        for (b, p) in [(&none, &rows), (&rows, &none), (&none, &none)] {
            check(side(b, None, &[0]), side(p, None, &[0]));
        }
        check(side(&rows, Some(empty), &[0]), side(&rows, None, &[0]));
        // Int64 ⋈ Float64 merges the numeric domain: hashed, unless an
        // Int64 pair beside it positions the join.
        assert_eq!(
            check(side(&rows, None, &[0]), side(&rows, None, &[1])),
            None
        );
        assert_eq!(
            check(side(&rows, None, &[0, 0]), side(&rows, None, &[1, 0])),
            Some(1)
        );
        // NULL in every positioned cell: a zero-length table, no match.
        let nulls = batch((0..4).map(|_| vec![Value::Null, Value::Null]), 2);
        check(side(&nulls, None, &[0]), side(&rows, None, &[0]));
    }

    /// A join input of `(positioning key, second key)` rows: the first
    /// column `Int64` or `Date`, the second `Int64` with its NULLs.
    fn two_keys(rows: &[(i64, Option<i64>)], dates: bool) -> ColumnarBatch {
        let first = |v: i64| if dates { Value::Date(v as i32) } else { int(v) };
        let row = |&(a, b): &(i64, Option<i64>)| vec![first(a), b.map_or(Value::Null, int)];
        batch(rows.iter().map(row), 2)
    }

    /// The rows `keep` marks, in order or reversed (a filter's or a
    /// sort's selection); `None` when `all` is set.
    fn selection(keep: &[bool], reversed: bool, all: bool) -> Option<Vec<u32>> {
        let mut sel: Vec<u32> = (0..keep.len() as u32)
            .filter(|&i| keep[i as usize])
            .collect();
        if reversed {
            sel.reverse();
        }
        (!all).then_some(sel)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(384))]

        /// A join on an `Int64` or `Date` key beside a second `Int64` one
        /// — the shape the two-slice loop walks — matches nested loops and
        /// the hashed path pair for pair, in order, whole and split at
        /// arbitrary probe bounds: NULLs in the second key on either side,
        /// selections on both inputs.
        #[test]
        fn a_two_integer_key_matches_nested_loops_and_the_hashed_path(
            build in vec((0i64..24, option::of(0i64..4)), 0..40),
            probe in vec((0i64..28, option::of(0i64..4)), 0..40),
            // Build NULLs, probe NULLs, a `Date` first key, build and
            // probe unselected, build selection reversed.
            flags in (
                any::<bool>(), any::<bool>(), any::<bool>(),
                any::<bool>(), any::<bool>(), any::<bool>(),
            ),
            keep in (vec(any::<bool>(), 40), vec(any::<bool>(), 40)),
            cuts in vec(0usize..41, 0..5),
        ) {
            let (build_nulls, probe_nulls, dates, build_all, probe_all, reversed) = flags;
            // A side keeps its second key's NULLs only when asked to.
            let strip = |rows: &[(i64, Option<i64>)], nulls: bool| -> Vec<(i64, Option<i64>)> {
                let cell = |(a, b): (i64, Option<i64>)| (a, b.or((!nulls).then_some(a % 4)));
                rows.iter().copied().map(cell).collect()
            };
            let (build, probe) = (strip(&build, build_nulls), strip(&probe, probe_nulls));
            let (b, p) = (two_keys(&build, dates), two_keys(&probe, dates));
            let bsel = selection(&keep.0[..build.len()], reversed, build_all);
            let psel = selection(&keep.1[..probe.len()], false, probe_all);
            let bs = side(&b, bsel.as_deref(), &[0, 1]);
            let ps = side(&p, psel.as_deref(), &[0, 1]);
            let at = check(bs, ps);

            // The two-slice loop runs exactly when one key positions, the
            // other is the `Int64` pair and no probe key cell is NULL.
            let index = JoinIndex::build(bs, ps);
            let probe_null = probe.iter().any(|r| r.1.is_none());
            let other_int64 = at.is_some_and(|key| key == 0 || !dates);
            let pair_loop = match &index.lookup {
                Lookup::Positioned { nullable, .. } => {
                    nullable.is_empty() && index.keq.one_int64().is_some()
                }
                Lookup::Hashed { .. } => false,
            };
            prop_assert_eq!(pair_loop, other_int64 && !probe_null);

            let n = ps.len();
            let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(n)).collect();
            bounds.extend([0, n]);
            bounds.sort_unstable();
            let split: Vec<(u32, u32)> = bounds
                .windows(2)
                .flat_map(|w| {
                    let (l, r) = index.matches((w[0], w[1]));
                    l.into_iter().zip(r)
                })
                .collect();
            prop_assert_eq!(split, nested_loops(&bs, &ps));
        }
    }

    /// A join input of one `Int64` key column, NULL where `None`.
    fn one_key(rows: &[Option<i64>]) -> ColumnarBatch {
        batch(rows.iter().map(|v| vec![v.map_or(Value::Null, int)]), 1)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(384))]

        /// A one-key join emits what nested loops find, in order, whole
        /// and split at arbitrary probe bounds, over a build whose keys
        /// repeat or are each held once: NULL keys on either side,
        /// selections on both inputs. A positioned table records that it
        /// is unique exactly when no two selected, non-NULL build rows
        /// share a key, and only then does the branch-free loop run.
        #[test]
        fn emission_matches_nested_loops_and_records_uniqueness(
            build in vec(option::of(0i64..30), 0..40),
            probe in vec(option::of(0i64..34), 0..60),
            // Each build key once, build and probe unselected, build
            // selection reversed.
            flags in (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
            keep in (vec(any::<bool>(), 40), vec(any::<bool>(), 60)),
            cuts in vec(0usize..61, 0..5),
        ) {
            let (distinct, build_all, probe_all, reversed) = flags;
            let mut seen = std::collections::HashSet::new();
            let build: Vec<Option<i64>> = match distinct {
                true => build.iter().map(|v| v.filter(|v| seen.insert(*v))).collect(),
                false => build,
            };
            let (b, p) = (one_key(&build), one_key(&probe));
            let bsel = selection(&keep.0[..build.len()], reversed, build_all);
            let psel = selection(&keep.1[..probe.len()], false, probe_all);
            let bs = side(&b, bsel.as_deref(), &[0]);
            let ps = side(&p, psel.as_deref(), &[0]);
            let at = check(bs, ps);

            let keys: Vec<i64> = (0..bs.len()).filter_map(|k| build[bs.phys(k)]).collect();
            let unique = keys.iter().enumerate().all(|(x, v)| !keys[..x].contains(v));
            prop_assert!(!distinct || unique);
            let index = JoinIndex::build(bs, ps);
            match &index.lookup {
                Lookup::Positioned { table, .. } => {
                    prop_assert_eq!(table.unique, unique);
                    prop_assert!(index.keq.0.is_empty(), "one key: nothing left to verify");
                }
                Lookup::Hashed { .. } => prop_assert!(at.is_none()),
            }

            let n = ps.len();
            let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(n)).collect();
            bounds.extend([0, n]);
            bounds.sort_unstable();
            let split: Vec<(u32, u32)> = bounds
                .windows(2)
                .flat_map(|w| {
                    let (l, r) = index.matches((w[0], w[1]));
                    l.into_iter().zip(r)
                })
                .collect();
            prop_assert_eq!(split, nested_loops(&bs, &ps));
        }
    }

    /// A list of matches is sized for one match per probe row, grown when
    /// a probe row has several and shrunk when few rows match, so it never
    /// holds more than twice what it keeps: a selective join's output
    /// costs what it keeps, not what it probed.
    #[test]
    fn match_lists_hold_at_most_twice_their_matches() {
        let few = batch((0..4).map(|i| vec![int(i), Value::Float64(i as f64)]), 2);
        let many = batch(
            (0..10_000).map(|i| vec![int(i % 2_000), Value::Float64((i % 2_000) as f64)]),
            2,
        );
        let dense = batch(
            (0..2_000).map(|i| vec![int(i), Value::Float64(i as f64)]),
            2,
        );
        let fan_out = batch((0..6).map(|_| vec![int(1), Value::Float64(1.0)]), 2);
        let cases = [
            // Positioned and unique, 20 matches of 10 000 probe rows.
            (&few, [0], &many, [0], 20),
            // Hashed (Int64 ⋈ Float64), the same matches.
            (&few, [0], &many, [1], 20),
            // Every probe row matches once.
            (&dense, [0], &many, [0], 10_000),
            // Six matches per probe row: the list grows past its first size.
            (&fan_out, [0], &many, [0], 30),
        ];
        for (build, bk, probe, pk, want) in cases {
            let (bs, ps) = (side(build, None, &bk), side(probe, None, &pk));
            let (l, r) = JoinIndex::build(bs, ps).matches((0, ps.len()));
            assert_eq!((l.len(), r.len()), (want, want));
            for list in [&l, &r] {
                assert!(
                    list.capacity() <= 2 * list.len(),
                    "{} of {}",
                    list.len(),
                    list.capacity()
                );
            }
        }
    }

    /// Every selected row against each group found so far, by
    /// [`Column::eq_at`] (NULL equal to NULL): the numbering and first
    /// rows either grouping must produce.
    fn naive_groups(input: &Keyed<'_>) -> (Vec<u32>, Vec<u32>) {
        let (mut ids, mut reps) = (Vec::new(), Vec::<u32>::new());
        for k in 0..input.len() {
            let i = input.phys(k);
            let same = |&r: &u32| {
                let columns = input.keys.iter().map(|&c| input.batch.column(c));
                columns.clone().all(|col| col.eq_at(r as usize, col, i))
            };
            let g = reps.iter().position(same).unwrap_or_else(|| {
                reps.push(i as u32);
                reps.len() - 1
            });
            ids.push(g as u32);
        }
        (ids, reps)
    }

    /// `input` grouped through [`Grouping::of`] and through the hashed
    /// path, both equal to [`naive_groups`], with `sorted` (when read off
    /// the slots) the groups in key order: returns the key that
    /// positioned it and whether the slots gave the order.
    fn check_grouping(input: Keyed<'_>) -> (Option<usize>, bool) {
        let (ids, reps) = naive_groups(&input);
        let chosen = Grouping::of(input);
        let hashed = Grouping::hashed(input);
        assert_eq!((&hashed.ids, &hashed.reps), (&ids, &reps), "hashed");
        assert_eq!((&chosen.ids, &chosen.reps), (&ids, &reps), "chosen");
        assert!(hashed.sorted.is_none());
        if let Some(sorted) = &chosen.sorted {
            let mut order: Vec<u32> = (0..reps.len() as u32).collect();
            order.sort_by(|&x, &y| {
                let (x, y) = (reps[x as usize] as usize, reps[y as usize] as usize);
                let mut ord = input
                    .keys
                    .iter()
                    .map(|&c| input.batch.column(c).cmp_at(x, y));
                ord.find(|o| o.is_ne()).unwrap_or(std::cmp::Ordering::Equal)
            });
            assert_eq!(sorted, &order, "slot order is key order");
        }
        let at = group_positioning(&input).map(|p| p.key);
        (at, chosen.sorted.is_some())
    }

    #[test]
    fn positioned_groupings_number_rows_as_hashed_ones_do() {
        let null_every = |i: i64, m: i64, v: Value| if i % m == 0 { Value::Null } else { v };
        // Negative integers with duplicates and NULLs; dates; strings.
        let b = batch(
            (0..60).map(|i| {
                vec![
                    null_every(i, 7, int(i % 13 - 6)),
                    null_every(i, 5, Value::Date((i % 9) as i32 - 4)),
                    null_every(i, 4, Value::str(format!("s{}", i % 6))),
                    int(i % 2),
                    Value::Float64((i % 3) as f64),
                ]
            }),
            5,
        );
        for key in 0..3 {
            let slots_sort = key < 2;
            assert_eq!(
                check_grouping(side(&b, None, &[key])),
                (Some(0), slots_sort)
            );
        }
        // A reversed, thinned selection, as a sort and a filter leave it.
        let sel: Vec<u32> = (0..60).rev().filter(|i| i % 4 != 1).collect();
        assert_eq!(check_grouping(side(&b, Some(&sel), &[0])), (Some(0), true));
        // The widest key positions; the others are verified. A dependent
        // second key leaves each slot one group, so the slots give the
        // order; an independent one (i % 2 beside i % 13) chains two
        // groups in a slot, and the groups are sorted instead.
        assert_eq!(check_grouping(side(&b, None, &[0, 1])), (Some(0), false));
        assert_eq!(check_grouping(side(&b, None, &[3, 0])), (Some(1), false));
        assert_eq!(check_grouping(side(&b, None, &[4, 2])), (Some(1), false));
        // Keys that tell the same rows apart tie, whatever their spans
        // (10 and 28): the first positions, and gives the order.
        let dependent = batch((0..40).map(|i| vec![int(i % 10), int(i % 10 * 3)]), 2);
        assert_eq!(
            check_grouping(side(&dependent, None, &[0, 1])),
            (Some(0), true)
        );
        assert_eq!(
            check_grouping(side(&dependent, None, &[1, 0])),
            (Some(0), true)
        );
        // Distinct values rank, not spans: two values 150 apart lose to
        // ten values 10 apart.
        let sparse = batch((0..40).map(|i| vec![int(i % 2 * 150), int(i % 10)]), 2);
        assert_eq!(
            check_grouping(side(&sparse, None, &[0, 1])),
            (Some(1), false)
        );
        // Float64 never positions; no key is one group.
        assert_eq!(check_grouping(side(&b, None, &[4])), (None, false));
        assert_eq!(check_grouping(side(&b, None, &[])), (None, false));
    }

    #[test]
    fn groupings_past_the_bound_hash() {
        // 5 rows: a span of up to SLOTS_PER_ROW · 5 is positioned.
        let limit = (SLOTS_PER_ROW * 5) as i64;
        for (span, positioned) in [(limit - 1, true), (limit, true), (limit + 1, false)] {
            let b = batch([0, 0, 7, span - 1, 3].map(|v| vec![int(v)]), 1);
            let at = check_grouping(side(&b, None, &[0])).0;
            assert_eq!(at.is_some(), positioned, "span {span}");
        }
        // The i64 extremes span 2^64 values.
        let b = batch([i64::MIN, 0, i64::MAX, i64::MIN].map(|v| vec![int(v)]), 1);
        assert_eq!(check_grouping(side(&b, None, &[0])), (None, false));
        // Near either extreme the offset wraps, and stays exact.
        let (lo, hi) = (i64::MIN, i64::MAX);
        for near in [[hi - 2, hi, hi - 1, hi], [lo + 1, lo, lo + 2, lo]] {
            let b = batch(near.map(|v| vec![int(v)]), 1);
            assert_eq!(check_grouping(side(&b, None, &[0])), (Some(0), true));
        }
        // A dictionary longer than four slots per selected row hashes.
        let words = batch((0..30).map(|i| vec![Value::str(format!("w{i}"))]), 1);
        let few: Vec<u32> = vec![3, 9, 3];
        assert_eq!(
            check_grouping(side(&words, Some(&few), &[0])),
            (None, false)
        );
        assert_eq!(check_grouping(side(&words, None, &[0])), (Some(0), false));
        // Empty input, and a column of NULLs only (one slot, slot 0).
        let empty: &[u32] = &[];
        assert_eq!(
            check_grouping(side(&words, Some(empty), &[0])),
            (None, false)
        );
        let nulls = batch((0..4).map(|_| vec![Value::Null, int(1)]), 2);
        assert_eq!(check_grouping(side(&nulls, None, &[0])), (Some(0), true));
        assert_eq!(check_grouping(side(&nulls, None, &[0, 1])), (Some(0), true));
    }
}

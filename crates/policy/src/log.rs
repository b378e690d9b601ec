//! The versioned policy-catalog log and its per-site replicas.
//!
//! Policies stop being a frozen set: every grant or revoke is an entry in
//! an append-only [`CatalogLog`], and each entry deterministically bumps
//! the *epoch* — a chain hash over the whole log prefix, seeded with the
//! base catalog's content hash. Chaining (rather than re-hashing content)
//! means revoke-then-regrant never returns to an old epoch, so a replica
//! that verifies the chain has seen exactly the coordinator's history.
//! Epochs are the log's integrity check and never leave it: a
//! materialized [`PolicyCatalog`] does not carry one.
//!
//! Epochs are hashes and therefore unordered; a snapshot is named by its
//! monotone **sequence number**. A query pins the sequence at admission;
//! a replica that has applied entries up to that sequence — verifying
//! the chain as it goes — can prove it has seen the pinned catalog, and
//! one that cannot must fail safe (`GeoError::CatalogStale`).
//!
//! A policy is named by the stable **pid** its grant assigned, in every
//! snapshot: a materialized catalog keeps each live policy's pid as its
//! [`RegisteredExpression::id`], so `e3` means the same grant before and
//! after a revocation of `e0`.
//!
//! Grant entries carry their expression pre-validated and pre-expanded
//! (the attribute sets [`PolicyCatalog::register`] would compute), so
//! replaying a log prefix needs no schema access: coordinator and replica
//! materialize byte-identical snapshots from the same prefix.
//!
//! The log does not grow without bound: [`CatalogLog::compact`]
//! materializes the live state at a sequence into a [`CatalogSnapshot`]
//! (whose hash is *chain-anchored* — folded from the chain epoch at that
//! sequence over the canonical live-policy lines) and truncates the
//! prefix. Reads below the resulting **floor** return a typed
//! `GeoError::CatalogCompacted`, never a panic and never head state. A
//! replica that lost its state (catalog-plane crash) re-bootstraps by
//! installing the latest snapshot — verifying the snapshot hash first —
//! and then applying tail entries, which chain-verify from the snapshot
//! epoch exactly as they would from the base.

use crate::catalog::{PolicyCatalog, RegisteredExpression};
use crate::expression::PolicyExpression;
use geoqp_common::{GeoError, Result, Schema};
use std::collections::BTreeSet;
use std::fmt;

/// What one log entry does to the catalog.
///
/// Grants dwarf revocations by size, but logs are short-lived vectors
/// cloned whole during replica delivery — boxing the expression would
/// add an allocation per grant for no measurable win.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum CatalogAction {
    /// Add a policy expression. `attrs` / `table_attrs` are the
    /// validated expansions registration would compute, captured at
    /// append time so replay is schema-free.
    Grant {
        /// The stable policy id the grant creates.
        pid: u64,
        /// The expression itself.
        expr: PolicyExpression,
        /// `A_e`, fully expanded against the governed table's schema.
        attrs: BTreeSet<String>,
        /// All attributes of the governed table.
        table_attrs: BTreeSet<String>,
    },
    /// Remove the policy with the given stable id.
    Revoke {
        /// The policy id being revoked.
        pid: u64,
    },
}

/// One appended grant or revoke, with the chain epoch its prefix hashes
/// to.
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogEntry {
    /// 1-based position in the log (0 is the base catalog).
    pub seq: u64,
    /// Chain epoch of the log prefix ending at this entry.
    pub epoch: u64,
    /// The change itself.
    pub action: CatalogAction,
}

impl CatalogEntry {
    /// The canonical line the chain hash folds in for this entry. Covers
    /// everything that affects materialization, so a replica verifying
    /// the chain has verified the content.
    fn canonical(&self) -> String {
        match &self.action {
            CatalogAction::Grant {
                pid,
                expr,
                attrs,
                table_attrs,
            } => {
                let csv = |s: &BTreeSet<String>| s.iter().cloned().collect::<Vec<_>>().join(",");
                format!(
                    "{}:grant:{}:{}|{}|{}",
                    self.seq,
                    pid,
                    expr,
                    csv(attrs),
                    csv(table_attrs)
                )
            }
            CatalogAction::Revoke { pid } => format!("{}:revoke:{}", self.seq, pid),
        }
    }

    /// Whether this entry revokes a policy.
    pub fn is_revocation(&self) -> bool {
        matches!(self.action, CatalogAction::Revoke { .. })
    }

    /// Encoded size of this entry on the replication wire: the canonical
    /// line plus the `(seq, epoch)` header. Catalog-plane transfers are
    /// byte-charged like any other transfer.
    pub fn encoded_len(&self) -> u64 {
        self.canonical().len() as u64 + 16
    }
}

impl fmt::Display for CatalogEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.action {
            CatalogAction::Grant { pid, expr, .. } => {
                write!(
                    f,
                    "#{} grant p{pid}: {expr} (epoch {:016x})",
                    self.seq, self.epoch
                )
            }
            CatalogAction::Revoke { pid } => {
                write!(f, "#{} revoke p{pid} (epoch {:016x})", self.seq, self.epoch)
            }
        }
    }
}

/// The genesis epoch of a log started from `base`: a stable content hash
/// (FNV-1a) over each expression's canonical display form.
fn genesis_epoch(base: &PolicyCatalog) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in base.expressions() {
        for b in e.to_string().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Fold one canonical entry line into the chain: FNV-1a seeded with the
/// previous epoch (perturbed so an empty line still moves the hash).
fn chain_epoch(prev: u64, line: &str) -> u64 {
    let mut h = prev ^ 0x9e37_79b9_7f4a_7c15;
    for b in line.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The materialized catalog at one log sequence, with a chain-anchored
/// hash: the compaction unit and the replica-bootstrap transfer payload.
///
/// The hash folds the chain epoch at `seq` through the snapshot header
/// and every canonical live-policy line, so it commits to the full log
/// history (via the epoch) *and* the exact live state. A replica accepts
/// a snapshot only after recomputing the hash from the received content;
/// tail entries applied afterwards chain-verify from the snapshot epoch.
#[derive(Debug, Clone)]
pub struct CatalogSnapshot {
    seq: u64,
    epoch: u64,
    hash: u64,
    /// Live state at `seq`, in grant order, each expression's id its pid.
    live: Vec<RegisteredExpression>,
    next_pid: u64,
}

impl CatalogSnapshot {
    fn build(seq: u64, epoch: u64, live: Vec<RegisteredExpression>, next_pid: u64) -> Self {
        let mut snap = CatalogSnapshot {
            seq,
            epoch,
            hash: 0,
            live,
            next_pid,
        };
        snap.hash = snap.compute_hash();
        snap
    }

    /// The canonical line for one live policy — same shape as a grant
    /// entry's chain line, so the hash covers everything that affects
    /// materialization.
    fn line(e: &RegisteredExpression) -> String {
        let csv = |s: &BTreeSet<String>| s.iter().cloned().collect::<Vec<_>>().join(",");
        format!(
            "{}:{}|{}|{}",
            e.id,
            e.expr,
            csv(&e.attrs),
            csv(&e.table_attrs)
        )
    }

    fn compute_hash(&self) -> u64 {
        let mut h = chain_epoch(
            self.epoch,
            &format!("snapshot:{}:{}", self.seq, self.next_pid),
        );
        for e in &self.live {
            h = chain_epoch(h, &Self::line(e));
        }
        h
    }

    /// The log sequence this snapshot materializes.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The chain epoch at that sequence.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The chain-anchored snapshot hash.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Recompute the hash from the carried content and compare against
    /// the claimed one — what a bootstrapping replica does before
    /// installing a snapshot it received over the wire.
    pub fn verify(&self) -> bool {
        self.hash == self.compute_hash()
    }

    /// Encoded size on the replication wire: header plus every canonical
    /// live-policy line. Snapshot transfers are byte-charged like any
    /// other transfer.
    pub fn encoded_len(&self) -> u64 {
        let lines: u64 = self
            .live
            .iter()
            .map(|e| Self::line(e).len() as u64 + 1)
            .sum();
        lines + 32 // seq + epoch + hash + next_pid
    }

    /// Materialize this snapshot into a [`PolicyCatalog`], exactly as a
    /// log replay would.
    pub fn materialize(&self) -> PolicyCatalog {
        PolicyCatalog::from_registered(self.live.clone())
    }
}

/// A floor snapshot plus the entries applied over it: the state the
/// coordinator's log and every replica hold, and the one place a sequence
/// is materialized, so the two can only ever disagree if chain
/// verification already failed.
#[derive(Debug, Clone)]
struct Prefix {
    floor: CatalogSnapshot,
    /// Entries `floor.seq + 1 ..=`, in sequence order.
    entries: Vec<CatalogEntry>,
}

impl Prefix {
    fn at(floor: CatalogSnapshot) -> Prefix {
        Prefix {
            floor,
            entries: Vec::new(),
        }
    }

    fn seq(&self) -> u64 {
        self.floor.seq + self.entries.len() as u64
    }

    fn epoch(&self) -> u64 {
        self.entries.last().map_or(self.floor.epoch, |e| e.epoch)
    }

    /// The live policies at absolute sequence `seq` (between the floor
    /// and the head), in grant order, each expression's id its pid.
    fn live(&self, seq: u64) -> Vec<RegisteredExpression> {
        let mut live = self.floor.live.clone();
        for entry in &self.entries[..(seq - self.floor.seq) as usize] {
            match &entry.action {
                CatalogAction::Grant {
                    pid,
                    expr,
                    attrs,
                    table_attrs,
                } => live.push(RegisteredExpression {
                    id: *pid as usize,
                    expr: expr.clone(),
                    attrs: attrs.clone(),
                    table_attrs: table_attrs.clone(),
                }),
                CatalogAction::Revoke { pid } => live.retain(|e| e.id as u64 != *pid),
            }
        }
        live
    }

    /// The catalog as of `seq`. A sequence below the floor was compacted
    /// away and is the typed `GeoError::CatalogCompacted` — never a
    /// panic, and never silently the head state; one past the head is a
    /// policy error.
    fn materialize(&self, seq: u64) -> Result<PolicyCatalog> {
        if seq < self.floor.seq {
            return Err(GeoError::CatalogCompacted(format!(
                "catalog seq {seq} was compacted away; the oldest \
                 reconstructible state is the floor snapshot at seq {}",
                self.floor.seq
            )));
        }
        if seq > self.seq() {
            return Err(GeoError::Policy(format!(
                "catalog holds up to seq {}; cannot materialize seq {seq}",
                self.seq()
            )));
        }
        Ok(PolicyCatalog::from_registered(self.live(seq)))
    }
}

/// The coordinator's append-only catalog log: the base catalog at
/// sequence 0 plus every grant/revoke since, each bumping the chain
/// epoch deterministically. Compaction replaces the oldest prefix with
/// its materialized [`CatalogSnapshot`] (the **floor**); the entries the
/// log retains always cover `floor.seq() + 1 ..= seq()`.
#[derive(Debug, Clone)]
pub struct CatalogLog {
    /// The deployment's static seq-0 state — what a brand-new replica
    /// starts from. Never moves, even after compaction.
    base: CatalogSnapshot,
    /// The newest compaction point (== `base` before any compaction)
    /// and the entries retained above it.
    prefix: Prefix,
    next_pid: u64,
    compactions: u64,
}

impl CatalogLog {
    /// Start a log from the deployment's base catalog. Sequence 0 *is*
    /// the base: its expression ids are its pids, and its genesis epoch
    /// is the base content hash, so two logs started from the same
    /// policies chain identically.
    pub fn new(base: PolicyCatalog) -> CatalogLog {
        let live = base.expressions().to_vec();
        // Past every id the base holds: a base materialized from a
        // churned log has gaps, and a pid still live must not recur.
        let next_pid = live.iter().map(|e| e.id as u64 + 1).max().unwrap_or(0);
        let base = CatalogSnapshot::build(0, genesis_epoch(&base), live, next_pid);
        CatalogLog {
            prefix: Prefix::at(base.clone()),
            base,
            next_pid,
            compactions: 0,
        }
    }

    /// The head: the newest appended sequence (floor plus retained
    /// entries; 0 while the log holds only the base).
    pub fn seq(&self) -> u64 {
        self.prefix.seq()
    }

    /// Chain epoch at the head.
    pub fn epoch(&self) -> u64 {
        self.prefix.epoch()
    }

    /// The compaction floor: the oldest sequence the log can still
    /// reconstruct exactly. 0 until the first [`CatalogLog::compact`].
    pub fn floor_seq(&self) -> u64 {
        self.prefix.floor.seq
    }

    /// How many times the log has been compacted.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// The newest snapshot — the floor itself. What a bootstrapping
    /// replica is shipped.
    pub fn latest_snapshot(&self) -> &CatalogSnapshot {
        &self.prefix.floor
    }

    /// Chain epoch at `seq`, if the log still holds that prefix (`None`
    /// for sequences past the head *or* compacted below the floor).
    pub fn epoch_at(&self, seq: u64) -> Option<u64> {
        let Prefix { floor, entries } = &self.prefix;
        if seq < floor.seq {
            None
        } else if seq == floor.seq {
            Some(floor.epoch)
        } else {
            entries.get((seq - floor.seq) as usize - 1).map(|e| e.epoch)
        }
    }

    /// Every retained entry, in sequence order (compacted entries are
    /// gone — they live on only inside the floor snapshot).
    pub fn entries(&self) -> &[CatalogEntry] {
        &self.prefix.entries
    }

    /// The retained entries a replica at `seq` still needs, in order. A
    /// replica below the floor cannot catch up from entries at all: the
    /// whole retained tail is returned, but applying it would gap — such
    /// a replica must bootstrap from [`CatalogLog::latest_snapshot`]
    /// first.
    pub fn entries_after(&self, seq: u64) -> &[CatalogEntry] {
        let entries = self.entries();
        let idx = seq.saturating_sub(self.floor_seq()) as usize;
        &entries[idx.min(entries.len())..]
    }

    /// Compact the log at `seq`: materialize the live state there into a
    /// chain-anchored snapshot, make it the new floor, and truncate every
    /// retained entry at or below it. Reads below the new floor return
    /// `GeoError::CatalogCompacted` from then on. Compacting at the
    /// current floor is a no-op; compacting below it is the typed error.
    pub fn compact(&mut self, seq: u64) -> Result<CatalogSnapshot> {
        let floor = self.floor_seq();
        if seq < floor {
            return Err(GeoError::CatalogCompacted(format!(
                "catalog seq {seq} is below the compaction floor at seq {floor}; \
                 its exact state is no longer reconstructible"
            )));
        }
        if seq > self.seq() {
            return Err(GeoError::Policy(format!(
                "catalog log head is seq {}; cannot compact at seq {seq}",
                self.seq()
            )));
        }
        if seq == floor {
            return Ok(self.prefix.floor.clone());
        }
        let epoch = self.epoch_at(seq).expect("seq bounds checked above");
        let folded = (seq - floor) as usize;
        // The pid frontier *as of `seq`* — every grant at or below the
        // compaction point has consumed its pid, whether still live or
        // already revoked, so pids can never be reused across the floor.
        let next_pid = self.prefix.floor.next_pid
            + self.prefix.entries[..folded]
                .iter()
                .filter(|e| !e.is_revocation())
                .count() as u64;
        let snapshot = CatalogSnapshot::build(seq, epoch, self.prefix.live(seq), next_pid);
        self.prefix.entries.drain(..folded);
        self.prefix.floor = snapshot.clone();
        self.compactions += 1;
        Ok(snapshot)
    }

    /// Append a grant: validate the expression against the governed
    /// table's schema (expanding `ship *` and capturing the table's
    /// attribute set, exactly as [`PolicyCatalog::register`] would),
    /// assign the next stable policy id, and bump the epoch. Returns the
    /// new head's seq. The new policy only affects queries admitted at or
    /// after it — in-flight pins are undisturbed.
    pub fn grant(&mut self, expr: PolicyExpression, table_schema: &Schema) -> Result<u64> {
        let attrs = expr.validate(table_schema)?;
        let table_attrs = table_schema
            .fields()
            .iter()
            .map(|f| f.name.clone())
            .collect();
        let pid = self.next_pid;
        self.next_pid += 1;
        self.append(CatalogAction::Grant {
            pid,
            expr,
            attrs,
            table_attrs,
        })
    }

    /// Append a revocation of the live policy `pid` and bump the epoch.
    /// Returns the new head's seq. Unlike grants, revocations are pushed
    /// to in-flight queries via the churn signal: a query shipping on a
    /// now-revoked edge aborts and re-plans under the new head.
    pub fn revoke(&mut self, pid: u64) -> Result<u64> {
        if !(self.prefix.live(self.seq()).iter()).any(|e| e.id as u64 == pid) {
            return Err(GeoError::Policy(format!(
                "cannot revoke p{pid}: no such live policy at catalog seq {}",
                self.seq()
            )));
        }
        self.append(CatalogAction::Revoke { pid })
    }

    fn append(&mut self, action: CatalogAction) -> Result<u64> {
        let seq = self.seq() + 1;
        let mut entry = CatalogEntry {
            seq,
            epoch: 0,
            action,
        };
        entry.epoch = chain_epoch(self.epoch(), &entry.canonical());
        self.prefix.entries.push(entry);
        Ok(seq)
    }

    /// Materialize the catalog as of sequence `seq`. `seq == 0`
    /// reproduces the base catalog's expressions. A sequence below the
    /// compaction floor is gone for good and returns the typed
    /// `GeoError::CatalogCompacted`.
    pub fn materialize(&self, seq: u64) -> Result<PolicyCatalog> {
        self.prefix.materialize(seq)
    }

    /// The live policies at `seq`: `(pid, display form)` pairs in pid
    /// order — the `\catalog` shell verb's listing.
    pub fn live_policies(&self, seq: u64) -> Vec<(u64, String)> {
        let seq = seq.clamp(self.floor_seq(), self.seq());
        let mut out: Vec<(u64, String)> = (self.prefix.live(seq).iter())
            .map(|e| (e.id as u64, e.expr.to_string()))
            .collect();
        out.sort_by_key(|(pid, _)| *pid);
        out
    }

    /// A fresh replica of this log's *base* (sequence 0), ready to apply
    /// entries as the replication transport delivers them. If the log
    /// has compacted past 0, the replica must bootstrap from
    /// [`CatalogLog::latest_snapshot`] before entries can land.
    pub fn replica(&self) -> CatalogReplica {
        CatalogReplica {
            base: self.base.clone(),
            prefix: Prefix::at(self.base.clone()),
        }
    }
}

/// A site's copy of the catalog log: applies entries strictly in
/// sequence order, re-deriving and verifying the chain epoch for each.
/// Because an entry that fails verification is refused, a replica can
/// never report an epoch it cannot reconstruct — `epoch()` always names
/// a prefix the replica holds in full.
///
/// A replica's state above its static `base` is volatile: a
/// catalog-plane crash [`CatalogReplica::wipe`]s it back to the base,
/// after which it re-bootstraps by installing a coordinator snapshot
/// ([`CatalogReplica::bootstrap`], which verifies the snapshot hash
/// before accepting) and applying the retained tail entries on top.
#[derive(Debug, Clone)]
pub struct CatalogReplica {
    /// The deployment's static seq-0 state — survives wipes.
    base: CatalogSnapshot,
    /// The applied entries over their floor: the base, or an installed
    /// (hash-verified) coordinator snapshot after a bootstrap.
    prefix: Prefix,
}

impl CatalogReplica {
    /// The newest sequence this replica holds.
    pub fn seq(&self) -> u64 {
        self.prefix.seq()
    }

    /// Chain epoch of the applied prefix.
    pub fn epoch(&self) -> u64 {
        self.prefix.epoch()
    }

    /// The oldest sequence this replica can reconstruct: 0 until a
    /// bootstrap installs a newer snapshot floor.
    pub fn floor_seq(&self) -> u64 {
        self.prefix.floor.seq
    }

    /// Whether this replica can prove it has seen log sequence `seq`.
    pub fn has_seen(&self, seq: u64) -> bool {
        self.seq() >= seq
    }

    /// Apply the next entry. Refuses gaps (entries must arrive in
    /// sequence) and chain mismatches (a tampered or corrupted entry
    /// hashes to the wrong epoch), leaving the replica unchanged.
    pub fn apply(&mut self, entry: &CatalogEntry) -> Result<()> {
        if entry.seq != self.seq() + 1 {
            return Err(GeoError::Policy(format!(
                "replica at seq {} cannot apply entry seq {} (gap)",
                self.seq(),
                entry.seq
            )));
        }
        let expected = chain_epoch(self.epoch(), &entry.canonical());
        if entry.epoch != expected {
            return Err(GeoError::Policy(format!(
                "entry seq {} fails chain verification: claims epoch {:016x}, \
                 chain derives {expected:016x}",
                entry.seq, entry.epoch
            )));
        }
        self.prefix.entries.push(entry.clone());
        Ok(())
    }

    /// A catalog-plane crash: everything above the static base is lost.
    /// The replica drops back to sequence 0 and must re-prove every
    /// sequence from scratch — via entry replay, or a snapshot bootstrap
    /// when the coordinator has compacted past what replay can reach.
    pub fn wipe(&mut self) {
        self.prefix = Prefix::at(self.base.clone());
    }

    /// Install a coordinator snapshot as this replica's new floor — the
    /// recovery path after a wipe (or for a fresh replica facing an
    /// already-compacted log). The snapshot hash is recomputed from the
    /// received content and verified before anything is accepted; a
    /// snapshot older than what the replica already holds is refused
    /// (bootstrap never rewinds). On success the replica holds exactly
    /// `snapshot.seq()` and tail entries chain-verify from the snapshot
    /// epoch.
    pub fn bootstrap(&mut self, snapshot: &CatalogSnapshot) -> Result<()> {
        if !snapshot.verify() {
            return Err(GeoError::Policy(format!(
                "snapshot at seq {} fails chain verification: claims hash \
                 {:016x}, content derives {:016x}; refusing to install",
                snapshot.seq,
                snapshot.hash,
                snapshot.compute_hash()
            )));
        }
        if snapshot.seq < self.seq() {
            return Err(GeoError::Policy(format!(
                "replica at seq {} refuses to rewind onto a snapshot at \
                 seq {}",
                self.seq(),
                snapshot.seq
            )));
        }
        self.prefix = Prefix::at(snapshot.clone());
        Ok(())
    }

    /// Materialize the replica's catalog as of `seq` — must be a prefix
    /// the replica holds. Byte-identical to the coordinator's
    /// [`CatalogLog::materialize`] at the same sequence. A sequence
    /// below the replica's floor was compacted away upstream and returns
    /// the typed `GeoError::CatalogCompacted` — never a panic, and never
    /// silently the head state.
    pub fn materialize(&self, seq: u64) -> Result<PolicyCatalog> {
        self.prefix.materialize(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expression::ShipAttrs;
    use geoqp_common::{DataType, Field, LocationPattern, TableRef};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Str),
        ])
        .unwrap()
    }

    fn expr(attr: &str) -> PolicyExpression {
        PolicyExpression::basic(
            TableRef::bare("t"),
            ShipAttrs::list([attr]),
            LocationPattern::Star,
            None,
        )
    }

    fn base() -> PolicyCatalog {
        let mut cat = PolicyCatalog::new();
        cat.register(expr("a"), &schema()).unwrap();
        cat
    }

    #[test]
    fn grants_and_revokes_bump_the_epoch_deterministically() {
        let head = |log: &CatalogLog| (log.seq(), log.epoch());
        let mut log1 = CatalogLog::new(base());
        let mut log2 = CatalogLog::new(base());
        assert_eq!(head(&log1), head(&log2));
        assert_eq!(log1.epoch(), genesis_epoch(&base()), "seq 0 is the base");

        let s1 = log1.grant(expr("b"), &schema()).unwrap();
        let s2 = log2.grant(expr("b"), &schema()).unwrap();
        assert_eq!((s1, s2), (1, 1), "a grant returns the new head's seq");
        assert_eq!(head(&log1), head(&log2), "appends chain alike");
        assert_ne!(log1.epoch(), log1.epoch_at(0).unwrap());

        assert_eq!(log1.revoke(1).unwrap(), 2);
        log2.revoke(1).unwrap();
        assert_eq!(head(&log1), head(&log2));
    }

    #[test]
    fn log_genesis_epoch_tracks_catalog_content() {
        let genesis = |c: &PolicyCatalog| CatalogLog::new(c.clone()).epoch();
        let mut a = PolicyCatalog::new();
        let mut b = PolicyCatalog::new();
        assert_eq!(genesis(&a), genesis(&b), "empty catalogs share an epoch");
        a.register(expr("a"), &schema()).unwrap();
        assert_ne!(
            genesis(&a),
            genesis(&b),
            "registering must change the epoch"
        );
        b.register(expr("a"), &schema()).unwrap();
        assert_eq!(genesis(&a), genesis(&b), "same content, same epoch");
    }

    #[test]
    fn revoke_then_regrant_never_returns_to_an_old_epoch() {
        let mut log = CatalogLog::new(base());
        log.grant(expr("b"), &schema()).unwrap();
        log.revoke(1).unwrap();
        log.grant(expr("b"), &schema()).unwrap();
        // Content at seq 3 equals content at seq 1, but the regrant is a
        // new policy with a new pid, and the chain epoch remembers the
        // history.
        let [(pids1, exprs1), (pids3, exprs3)] = [1, 3].map(|seq| {
            let snap = log.materialize(seq).unwrap();
            (snap.expressions().iter().map(|e| (e.id, e.expr.clone())))
                .unzip::<_, _, Vec<_>, Vec<_>>()
        });
        assert_eq!(exprs1, exprs3);
        assert_eq!((pids1, pids3), (vec![0, 1], vec![0, 2]));
        assert_ne!(log.epoch_at(1), log.epoch_at(3));
    }

    #[test]
    fn materialize_replays_grants_and_revokes() {
        let mut log = CatalogLog::new(base());
        log.grant(expr("b"), &schema()).unwrap(); // pid 1
        log.revoke(0).unwrap(); // drop the base policy
        let mut snap = log.materialize(2).unwrap();
        assert_eq!(snap.expressions()[0].id, 1, "ids are pids");
        assert_eq!(log.epoch_at(2), Some(log.epoch()));
        assert_eq!(log.live_policies(2), vec![(1, expr("b").to_string())]);
        // One expression is held, but id 1 is live: a catalog or log
        // built from the snapshot hands out id 2 next.
        let mut relog = CatalogLog::new(snap.clone());
        assert_eq!(snap.register(expr("a"), &schema()).unwrap(), 2);
        relog.grant(expr("a"), &schema()).unwrap();
        assert_eq!(relog.live_policies(1)[1].0, 2);
        // seq 0 reproduces the base, epoch included.
        let at0 = log.materialize(0).unwrap();
        assert_eq!(at0.canonical_bytes(), base().canonical_bytes());
        assert_eq!(log.epoch_at(0), Some(genesis_epoch(&base())));
    }

    #[test]
    fn revoking_a_dead_or_unknown_pid_is_refused() {
        let mut log = CatalogLog::new(base());
        assert!(log.revoke(7).is_err());
        log.revoke(0).unwrap();
        assert!(log.revoke(0).is_err(), "already revoked");
    }

    #[test]
    fn replica_verifies_the_chain_and_matches_the_coordinator() {
        let mut log = CatalogLog::new(base());
        log.grant(expr("b"), &schema()).unwrap();
        log.revoke(0).unwrap();

        let mut replica = log.replica();
        for entry in log.entries() {
            replica.apply(entry).unwrap();
        }
        assert_eq!(replica.seq(), log.seq());
        assert_eq!(replica.epoch(), log.epoch());
        for seq in 0..=log.seq() {
            assert_eq!(
                replica.materialize(seq).unwrap().canonical_bytes(),
                log.materialize(seq).unwrap().canonical_bytes(),
            );
        }
    }

    #[test]
    fn replica_refuses_gaps_and_tampered_entries() {
        let mut log = CatalogLog::new(base());
        log.grant(expr("b"), &schema()).unwrap();
        log.grant(expr("a"), &schema()).unwrap();

        let mut replica = log.replica();
        // Gap: entry 2 before entry 1.
        assert!(replica.apply(&log.entries()[1]).is_err());
        assert_eq!(replica.seq(), 0);

        // Tampered epoch.
        let mut forged = log.entries()[0].clone();
        forged.epoch ^= 1;
        assert!(replica.apply(&forged).is_err());
        assert_eq!(
            replica.seq(),
            0,
            "a refused entry leaves the replica unchanged"
        );

        // Tampered content under the original epoch.
        let mut forged = log.entries()[0].clone();
        if let CatalogAction::Grant { pid, .. } = &mut forged.action {
            *pid += 10;
        }
        assert!(replica.apply(&forged).is_err());

        replica.apply(&log.entries()[0]).unwrap();
        replica.apply(&log.entries()[1]).unwrap();
        assert!(replica.has_seen(2));
    }

    #[test]
    fn compaction_truncates_the_prefix_and_keeps_the_head_reachable() {
        let mut log = CatalogLog::new(base());
        log.grant(expr("b"), &schema()).unwrap(); // seq 1
        log.revoke(0).unwrap(); // seq 2
        log.grant(expr("a"), &schema()).unwrap(); // seq 3
        let head_bytes = log.materialize(3).unwrap().canonical_bytes();
        let head_epoch = log.epoch();

        let snap = log.compact(2).unwrap();
        assert_eq!(snap.seq(), 2);
        assert_eq!(snap.epoch(), log.epoch_at(2).unwrap());
        assert!(snap.verify());
        assert_eq!(log.floor_seq(), 2);
        assert_eq!(log.compactions(), 1);
        assert_eq!(log.entries().len(), 1, "only the tail survives");

        // Everything at or above the floor still materializes
        // byte-identically; the head is untouched.
        assert_eq!(log.materialize(3).unwrap().canonical_bytes(), head_bytes);
        assert_eq!(log.epoch(), head_epoch);
        assert_eq!(
            log.materialize(2).unwrap().canonical_bytes(),
            snap.materialize().canonical_bytes()
        );

        // Reads below the floor are typed, never a panic or head state.
        for seq in [0, 1] {
            let err = log.materialize(seq).unwrap_err();
            assert_eq!(err.kind(), "catalog-compacted", "seq {seq}");
        }
        assert_eq!(log.epoch_at(1), None);
        assert_eq!(log.compact(1).unwrap_err().kind(), "catalog-compacted");

        // Compacting at the floor is a no-op returning the same snapshot.
        let again = log.compact(2).unwrap();
        assert_eq!(again.hash(), snap.hash());
        assert_eq!(log.compactions(), 1);

        // Appends keep working across the floor, and pids never reuse
        // compacted ones.
        assert_eq!(log.grant(expr("b"), &schema()).unwrap(), 4);
        let pids: Vec<u64> = log.live_policies(4).iter().map(|(p, _)| *p).collect();
        assert_eq!(pids, vec![1, 2, 3], "pids 0..=2 were consumed before");
    }

    #[test]
    fn wiped_replica_bootstraps_from_a_verified_snapshot_plus_tail() {
        let mut log = CatalogLog::new(base());
        log.grant(expr("b"), &schema()).unwrap();
        log.revoke(0).unwrap();
        log.grant(expr("a"), &schema()).unwrap();

        // A replica that replayed everything from seq 0.
        let mut from_zero = log.replica();
        for entry in log.entries() {
            from_zero.apply(entry).unwrap();
        }

        // Compact, then crash-wipe a second replica and bootstrap it.
        let snap = log.compact(2).unwrap();
        let mut wiped = log.replica();
        wiped.wipe();
        assert_eq!(wiped.seq(), 0, "a wipe drops back to the base");
        wiped.bootstrap(&snap).unwrap();
        assert_eq!(wiped.seq(), 2);
        assert_eq!(wiped.epoch(), log.epoch_at(2).unwrap());
        for entry in log.entries_after(wiped.seq()).to_vec() {
            wiped.apply(&entry).unwrap();
        }

        // Byte-identical to the replay-from-zero replica at the head.
        assert_eq!(wiped.seq(), from_zero.seq());
        assert_eq!(wiped.epoch(), from_zero.epoch());
        assert_eq!(
            wiped.materialize(3).unwrap().canonical_bytes(),
            from_zero.materialize(3).unwrap().canonical_bytes()
        );

        // The bootstrapped replica's floor is the snapshot: reads below
        // it are typed (regression: no panic, no silent head state).
        assert_eq!(wiped.floor_seq(), 2);
        let err = wiped.materialize(1).unwrap_err();
        assert_eq!(err.kind(), "catalog-compacted");
        assert!(wiped.materialize(4).is_err(), "beyond the head refuses too");
    }

    #[test]
    fn tampered_snapshots_are_refused_and_bootstrap_never_rewinds() {
        let mut log = CatalogLog::new(base());
        log.grant(expr("b"), &schema()).unwrap();
        log.grant(expr("a"), &schema()).unwrap();
        let snap = log.compact(2).unwrap();

        let mut replica = log.replica();
        // Tampered hash.
        let mut forged = snap.clone();
        forged.hash ^= 1;
        assert!(!forged.verify());
        assert!(replica.bootstrap(&forged).is_err());
        assert_eq!(replica.seq(), 0, "a refused snapshot changes nothing");
        // Tampered content under the claimed hash.
        let mut forged = snap.clone();
        forged.live.pop();
        assert!(replica.bootstrap(&forged).is_err());
        // Tampered epoch (the chain anchor).
        let mut forged = snap.clone();
        forged.epoch ^= 1;
        assert!(replica.bootstrap(&forged).is_err());

        // The genuine snapshot installs; an older one then refuses.
        replica.bootstrap(&snap).unwrap();
        assert_eq!(replica.seq(), 2);
        let old = CatalogLog::new(base()).compact(0).unwrap();
        assert!(
            replica.bootstrap(&old).is_err(),
            "bootstrap must never rewind a replica"
        );
        assert_eq!(replica.seq(), 2);
    }
}

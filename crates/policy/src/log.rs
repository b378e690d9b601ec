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
//! Nothing truncates the log: every sequence from the base to the head
//! stays materializable. A replica that lost its state (a catalog-plane
//! crash) drops back to the base and recovers by replaying the
//! coordinator's entries, each chain-verified exactly as on first
//! delivery.

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

/// The deployment's static seq-0 state: what the log starts from and
/// what a wiped replica drops back to.
#[derive(Debug, Clone)]
struct Base {
    epoch: u64,
    /// Live policies at seq 0, in grant order, each expression's id its
    /// pid.
    live: Vec<RegisteredExpression>,
}

/// The base plus the entries applied over it: the state the
/// coordinator's log and every replica hold, and the one place a sequence
/// is materialized, so the two can only ever disagree if chain
/// verification already failed.
#[derive(Debug, Clone)]
struct Prefix {
    base: Base,
    /// Entries `1 ..=`, in sequence order.
    entries: Vec<CatalogEntry>,
}

impl Prefix {
    fn seq(&self) -> u64 {
        self.entries.len() as u64
    }

    fn epoch(&self) -> u64 {
        self.entries.last().map_or(self.base.epoch, |e| e.epoch)
    }

    /// The live policies at sequence `seq` (at most the head), in grant
    /// order, each expression's id its pid.
    fn live(&self, seq: u64) -> Vec<RegisteredExpression> {
        let mut live = self.base.live.clone();
        for entry in &self.entries[..seq as usize] {
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

    /// The catalog as of `seq`; one past the head is a policy error.
    fn materialize(&self, seq: u64) -> Result<PolicyCatalog> {
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
/// epoch deterministically. Nothing truncates it, so every sequence from
/// 0 to the head stays materializable.
#[derive(Debug, Clone)]
pub struct CatalogLog {
    prefix: Prefix,
    next_pid: u64,
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
        CatalogLog {
            prefix: Prefix {
                base: Base {
                    epoch: genesis_epoch(&base),
                    live,
                },
                entries: Vec::new(),
            },
            next_pid,
        }
    }

    /// The head: the newest appended sequence (0 while the log holds
    /// only the base).
    pub fn seq(&self) -> u64 {
        self.prefix.seq()
    }

    /// Chain epoch at the head.
    pub fn epoch(&self) -> u64 {
        self.prefix.epoch()
    }

    /// Chain epoch at `seq`, or `None` past the head.
    pub fn epoch_at(&self, seq: u64) -> Option<u64> {
        match seq.checked_sub(1) {
            None => Some(self.prefix.base.epoch),
            Some(i) => self.prefix.entries.get(i as usize).map(|e| e.epoch),
        }
    }

    /// Every appended entry, in sequence order.
    pub fn entries(&self) -> &[CatalogEntry] {
        &self.prefix.entries
    }

    /// The entries a replica at `seq` still needs, in order.
    pub fn entries_after(&self, seq: u64) -> &[CatalogEntry] {
        let entries = self.entries();
        &entries[(seq as usize).min(entries.len())..]
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
    /// reproduces the base catalog's expressions.
    pub fn materialize(&self, seq: u64) -> Result<PolicyCatalog> {
        self.prefix.materialize(seq)
    }

    /// The live policies at `seq` (the head, if `seq` is past it):
    /// `(pid, display form)` pairs in pid order — the `\catalog` shell
    /// verb's listing.
    pub fn live_policies(&self, seq: u64) -> Vec<(u64, String)> {
        let mut out: Vec<(u64, String)> = (self.prefix.live(seq.min(self.seq())).iter())
            .map(|e| (e.id as u64, e.expr.to_string()))
            .collect();
        out.sort_by_key(|(pid, _)| *pid);
        out
    }

    /// A fresh replica of this log's *base* (sequence 0), ready to apply
    /// entries as the replication transport delivers them.
    pub fn replica(&self) -> CatalogReplica {
        CatalogReplica {
            prefix: Prefix {
                base: self.prefix.base.clone(),
                entries: Vec::new(),
            },
        }
    }
}

/// A site's copy of the catalog log: applies entries strictly in
/// sequence order, re-deriving and verifying the chain epoch for each.
/// Because an entry that fails verification is refused, a replica can
/// never report an epoch it cannot reconstruct — `epoch()` always names
/// a prefix the replica holds in full.
///
/// A replica's state above its static base is volatile: a catalog-plane
/// crash [`CatalogReplica::wipe`]s it back to the base, after which it
/// recovers by replaying the coordinator's entries from sequence 1,
/// chain-verifying each exactly as on first delivery.
#[derive(Debug, Clone)]
pub struct CatalogReplica {
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
    /// sequence by replaying the coordinator's entries.
    pub fn wipe(&mut self) {
        self.prefix.entries.clear();
    }

    /// Materialize the replica's catalog as of `seq` — must be a prefix
    /// the replica holds. Byte-identical to the coordinator's
    /// [`CatalogLog::materialize`] at the same sequence; a sequence past
    /// the replica's head is a policy error, never a guess.
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
        // First delivery, then recovery from a wipe: both are replay.
        for pass in ["delivery", "replay after a wipe"] {
            for entry in log.entries_after(replica.seq()) {
                replica.apply(entry).unwrap();
            }
            assert_eq!((replica.seq(), replica.epoch()), (log.seq(), log.epoch()));
            for seq in 0..=log.seq() {
                assert_eq!(
                    replica.materialize(seq).unwrap().canonical_bytes(),
                    log.materialize(seq).unwrap().canonical_bytes(),
                    "{pass}: seq {seq}"
                );
            }
            replica.wipe();
            assert_eq!(replica.seq(), 0, "a wipe drops back to the base");
            assert_eq!(replica.epoch(), log.epoch_at(0).unwrap());
            assert!(replica.materialize(1).is_err(), "past the head refuses");
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
}

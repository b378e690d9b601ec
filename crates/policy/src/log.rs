//! The versioned policy-catalog log.
//!
//! Policies stop being a frozen set: every grant or revoke is an entry in
//! an append-only [`CatalogLog`]. A snapshot is named by its monotone
//! **sequence number** (0 = the base catalog); a query pins the sequence
//! at admission and is planned and audited against the snapshot
//! materialized there.
//!
//! A policy is named by the stable **pid** its grant assigned, in every
//! snapshot: a materialized catalog keeps each live policy's pid as its
//! [`RegisteredExpression::id`], so `e3` means the same grant before and
//! after a revocation of `e0`.
//!
//! Grant entries carry their expression pre-validated and pre-expanded
//! (the attribute sets [`PolicyCatalog::register`] would compute), so
//! materializing a sequence needs no schema access. Nothing truncates the
//! log: every sequence from the base to the head stays materializable.

use crate::catalog::{PolicyCatalog, RegisteredExpression};
use crate::expression::PolicyExpression;
use geoqp_common::{GeoError, Result, Schema};
use std::collections::BTreeSet;
use std::fmt;

/// What one log entry does to the catalog.
///
/// Grants dwarf revocations by size, but a log is appended to once per
/// policy change — boxing the expression would add an allocation per
/// grant for no measurable win.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum CatalogAction {
    /// Add a policy expression. `attrs` / `table_attrs` are the
    /// validated expansions registration would compute, captured at
    /// append time so materialization is schema-free.
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

/// One appended grant or revoke.
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogEntry {
    /// 1-based position in the log (0 is the base catalog).
    pub seq: u64,
    /// The change itself.
    pub action: CatalogAction,
}

impl fmt::Display for CatalogEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.action {
            CatalogAction::Grant { pid, expr, .. } => {
                write!(f, "#{} grant p{pid}: {expr}", self.seq)
            }
            CatalogAction::Revoke { pid } => write!(f, "#{} revoke p{pid}", self.seq),
        }
    }
}

/// The append-only catalog log: the base catalog at sequence 0 plus
/// every grant/revoke since. Nothing truncates it, so every sequence
/// from 0 to the head stays materializable.
#[derive(Debug, Clone)]
pub struct CatalogLog {
    /// Live policies at seq 0, in grant order, each expression's id its
    /// pid.
    base: Vec<RegisteredExpression>,
    /// Entries `1 ..=`, in sequence order.
    entries: Vec<CatalogEntry>,
    next_pid: u64,
}

impl CatalogLog {
    /// Start a log from the deployment's base catalog. Sequence 0 *is*
    /// the base: its expression ids are its pids.
    pub fn new(base: PolicyCatalog) -> CatalogLog {
        let base = base.expressions().to_vec();
        // Past every id the base holds: a base materialized from a
        // churned log has gaps, and a pid still live must not recur.
        let next_pid = base.iter().map(|e| e.id as u64 + 1).max().unwrap_or(0);
        CatalogLog {
            base,
            entries: Vec::new(),
            next_pid,
        }
    }

    /// The head: the newest appended sequence (0 while the log holds
    /// only the base).
    pub fn seq(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Every appended entry, in sequence order.
    pub fn entries(&self) -> &[CatalogEntry] {
        &self.entries
    }

    /// Append a grant: validate the expression against the governed
    /// table's schema (expanding `ship *` and capturing the table's
    /// attribute set, exactly as [`PolicyCatalog::register`] would) and
    /// assign the next stable policy id. Returns the new head's seq. The
    /// new policy only affects queries admitted at or after it —
    /// in-flight pins are undisturbed.
    pub fn grant(&mut self, expr: PolicyExpression, table_schema: &Schema) -> Result<u64> {
        let attrs = expr.validate(table_schema)?;
        let table_attrs = table_schema
            .fields()
            .iter()
            .map(|f| f.name.clone())
            .collect();
        let pid = self.next_pid;
        self.next_pid += 1;
        Ok(self.append(CatalogAction::Grant {
            pid,
            expr,
            attrs,
            table_attrs,
        }))
    }

    /// Append a revocation of the live policy `pid`. Returns the new
    /// head's seq. Unlike grants, revocations are pushed to in-flight
    /// queries via the churn signal: a query shipping on a now-revoked
    /// edge aborts and re-plans under the new head.
    pub fn revoke(&mut self, pid: u64) -> Result<u64> {
        if !(self.live(self.seq()).iter()).any(|e| e.id as u64 == pid) {
            return Err(GeoError::Policy(format!(
                "cannot revoke p{pid}: no such live policy at catalog seq {}",
                self.seq()
            )));
        }
        Ok(self.append(CatalogAction::Revoke { pid }))
    }

    fn append(&mut self, action: CatalogAction) -> u64 {
        let seq = self.seq() + 1;
        self.entries.push(CatalogEntry { seq, action });
        seq
    }

    /// The live policies at sequence `seq` (at most the head), in grant
    /// order, each expression's id its pid.
    fn live(&self, seq: u64) -> Vec<RegisteredExpression> {
        let mut live = self.base.clone();
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

    /// Materialize the catalog as of sequence `seq`. `seq == 0`
    /// reproduces the base catalog's expressions; a sequence past the
    /// head is a policy error.
    pub fn materialize(&self, seq: u64) -> Result<PolicyCatalog> {
        if seq > self.seq() {
            return Err(GeoError::Policy(format!(
                "catalog holds up to seq {}; cannot materialize seq {seq}",
                self.seq()
            )));
        }
        Ok(PolicyCatalog::from_registered(self.live(seq)))
    }

    /// The live policies at `seq` (the head, if `seq` is past it):
    /// `(pid, display form)` pairs in pid order — the `\catalog` shell
    /// verb's listing.
    pub fn live_policies(&self, seq: u64) -> Vec<(u64, String)> {
        let mut out: Vec<(u64, String)> = (self.live(seq.min(self.seq())).iter())
            .map(|e| (e.id as u64, e.expr.to_string()))
            .collect();
        out.sort_by_key(|(pid, _)| *pid);
        out
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
    fn grants_and_revokes_advance_the_head_and_name_stable_pids() {
        let mut log = CatalogLog::new(base());
        assert_eq!(log.seq(), 0, "seq 0 is the base");
        assert_eq!(log.grant(expr("b"), &schema()).unwrap(), 1);
        assert_eq!(log.revoke(1).unwrap(), 2);
        assert_eq!(log.grant(expr("b"), &schema()).unwrap(), 3);
        // Content at seq 3 equals content at seq 1, but the regrant is a
        // new policy with a new pid.
        let [(pids1, exprs1), (pids3, exprs3)] = [1, 3].map(|seq| {
            let snap = log.materialize(seq).unwrap();
            (snap.expressions().iter().map(|e| (e.id, e.expr.clone())))
                .unzip::<_, _, Vec<_>, Vec<_>>()
        });
        assert_eq!(exprs1, exprs3);
        assert_eq!((pids1, pids3), (vec![0, 1], vec![0, 2]));
        let history: Vec<String> = log.entries().iter().map(|e| e.to_string()).collect();
        assert_eq!(history[1], "#2 revoke p1");
    }

    #[test]
    fn materialize_replays_grants_and_revokes() {
        let mut log = CatalogLog::new(base());
        log.grant(expr("b"), &schema()).unwrap(); // pid 1
        log.revoke(0).unwrap(); // drop the base policy
        let mut snap = log.materialize(2).unwrap();
        assert_eq!(snap.expressions()[0].id, 1, "ids are pids");
        assert_eq!(log.live_policies(2), vec![(1, expr("b").to_string())]);
        // One expression is held, but id 1 is live: a catalog or log
        // built from the snapshot hands out id 2 next.
        let mut relog = CatalogLog::new(snap.clone());
        assert_eq!(snap.register(expr("a"), &schema()).unwrap(), 2);
        relog.grant(expr("a"), &schema()).unwrap();
        assert_eq!(relog.live_policies(1)[1].0, 2);
        // seq 0 reproduces the base; past the head refuses.
        let at0 = log.materialize(0).unwrap();
        assert_eq!(at0.canonical_bytes(), base().canonical_bytes());
        assert!(log.materialize(3).is_err());
    }

    #[test]
    fn revoking_a_dead_or_unknown_pid_is_refused() {
        let mut log = CatalogLog::new(base());
        assert!(log.revoke(7).is_err());
        log.revoke(0).unwrap();
        assert!(log.revoke(0).is_err(), "already revoked");
    }
}

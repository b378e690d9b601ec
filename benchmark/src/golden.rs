//! Committed oracle digests: `benchmark/golden/<workload>-<seed>.digest`.
//!
//! One line per query: `key rows hash bytes`, produced once by the row
//! interpreter (`run.sh --regen-golden`) and frozen. A run at the golden
//! seed loads them instead of recomputing the oracle, so a later change
//! that alters the generators or both engines the same wrong way still
//! shows as failed ops.

use crate::sut::Digest;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

pub const GOLDEN_SEED: u64 = 2021;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub digest: Digest,
    /// Shipped bytes of the oracle's own run; 0 where the key's plan is
    /// not unique (the service pool, planned once per tenant).
    pub bytes: u64,
}

pub type Oracle = BTreeMap<String, Expected>;

fn path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(format!("benchmark/golden/{workload}-{seed}.digest"))
}

/// The frozen oracle for `(workload, seed)`, if one is committed.
pub fn load(workload: &str, seed: u64) -> Option<Oracle> {
    let text = std::fs::read_to_string(path(workload, seed)).ok()?;
    let mut out = Oracle::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let mut it = line.split_whitespace();
        let key = it.next()?.to_string();
        let rows = it.next()?.parse().ok()?;
        let hash = u64::from_str_radix(it.next()?, 16).ok()?;
        let bytes = it.next()?.parse().ok()?;
        out.insert(
            key,
            Expected {
                digest: Digest { rows, hash },
                bytes,
            },
        );
    }
    Some(out)
}

pub fn save(workload: &str, seed: u64, oracle: &Oracle) -> Result<(), String> {
    let mut s = format!(
        "# {workload}, seed {seed}: key rows multiset-hash shipped-bytes, from the row interpreter. Frozen.\n"
    );
    for (key, e) in oracle {
        let _ = writeln!(
            s,
            "{key} {} {:016x} {}",
            e.digest.rows, e.digest.hash, e.bytes
        );
    }
    let p = path(workload, seed);
    if let Some(dir) = p.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&p, s).map_err(|e| format!("{}: {e}", p.display()))
}

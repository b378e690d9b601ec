//! The service's cache of located plans, keyed by what the compliant
//! optimizer reads.
//!
//! A [`PlanKey`] holds the SQL text, the requested result location, the
//! tenant, and the pids of the tenant's live expressions that govern a
//! table the lowered query scans. Algorithm 1 reads no other expression
//! (`RegisteredExpression::applies_to` skips an expression governing none
//! of a local query's tables), and a pid names one expression text in
//! every snapshot, so a hit is the plan the compliant optimizer returns
//! for this input under the tenant's current catalog. Theorem 1 holds on
//! a hit by construction, so nothing is audited again.
//!
//! * **Only a revoke evicts.** A grant on a table the query scans adds a
//!   pid to its key, so the query misses and plans fresh; a grant
//!   elsewhere leaves the key, and the plan, as they were. A revoke
//!   evicts the entries whose key names the revoked pid
//!   ([`PlanCache::evict_pids`]): the catalog log never reissues a pid,
//!   so no later lookup could name them again.
//! * **An entry keeps only what a hit runs**: the located plan, its
//!   result location and the optimizer's stats — not the lowered query,
//!   which a hit has just lowered itself, and not phase 1's annotated
//!   plan, which a re-plan re-derives.
//! * **LRU eviction.** The cache holds at most `capacity` entries; the
//!   least-recently-used entry is evicted when a fresh plan needs a slot.

use geoqp_common::Location;
use geoqp_core::OptimizeStats;
use geoqp_plan::PhysicalPlan;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What makes a cached plan the plan for a request, compared by value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    /// Tenant index inside the service: plans never cross tenants.
    pub tenant: usize,
    /// The query's SQL text. A tenant's data catalog never changes, so
    /// one text always lowers to one plan.
    pub sql: String,
    /// The requested result location (`None`: the optimizer's choice).
    pub result_location: Option<Location>,
    /// Pids of the live expressions governing a table the query scans, in
    /// catalog order: the part of the policy catalog the optimizer reads.
    pub policies: Vec<usize>,
}

/// A cached located plan: what a hit runs.
#[derive(Clone)]
pub(crate) struct CachedPlan {
    pub physical: Arc<PhysicalPlan>,
    pub result_location: Location,
    pub stats: OptimizeStats,
}

/// Counter snapshot for observability (`\tenants`, bench JSON).
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted by the LRU policy to make room.
    pub evictions: u64,
    /// Live entries.
    pub len: usize,
    /// Maximum entries.
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache; 0 when never used.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    plan: CachedPlan,
    last_used: u64,
}

struct CacheState {
    map: HashMap<PlanKey, Entry>,
    /// Logical clock for LRU stamping; bumped on every touch.
    tick: u64,
}

/// Thread-safe LRU cache of located plans. Interior mutability
/// throughout: workers share it behind an `Arc` without outer locking.
pub(crate) struct PlanCache {
    state: Mutex<CacheState>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (floored at 1).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            state: Mutex::new(CacheState {
                map: HashMap::new(),
                tick: 0,
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Look up a plan, refreshing its LRU stamp and counting hit/miss.
    pub fn lookup(&self, key: &PlanKey) -> Option<CachedPlan> {
        let mut st = self.state.lock().unwrap();
        st.tick += 1;
        let tick = st.tick;
        match st.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.plan.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or replace) a plan, evicting the least-recently-used entry
    /// when the cache is full.
    pub fn insert(&self, key: PlanKey, plan: CachedPlan) {
        let mut st = self.state.lock().unwrap();
        st.tick += 1;
        let tick = st.tick;
        if !st.map.contains_key(&key) && st.map.len() >= self.capacity {
            if let Some(victim) = st
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                st.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        st.map.insert(
            key,
            Entry {
                plan,
                last_used: tick,
            },
        );
    }

    /// Drop every entry of `tenant` whose key names one of the revoked
    /// `pids`. Those keys are unreachable already — a pid, once revoked,
    /// is never live again — so this only frees their slots.
    pub fn evict_pids(&self, tenant: usize, pids: &BTreeSet<usize>) {
        if pids.is_empty() {
            return;
        }
        let mut st = self.state.lock().unwrap();
        st.map
            .retain(|k, _| k.tenant != tenant || !k.policies.iter().any(|p| pids.contains(p)));
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len: self.state.lock().unwrap().map.len(),
            capacity: self.capacity,
        }
    }
}

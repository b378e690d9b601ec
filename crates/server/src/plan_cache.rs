//! The service's cache of optimized located plans, keyed by value.
//!
//! A [`PlanKey`] holds the lowered query itself, the pinned result
//! location, the tenant, and the catalog-log sequence the tenant's engine
//! was built at. The map settles hash collisions with `Eq`, so a hit is
//! the same lowered plan at the same result site for the same tenant under
//! the same policy snapshot: the very plan the compliant optimizer
//! returned for this input under this catalog. Theorem 1 holds on a hit by
//! construction, so nothing is audited again.
//!
//! * **A policy update moves the key.** Every grant or revoke appends to
//!   the tenant's catalog log, and the sequence only moves forward, so a
//!   plan optimized under an older snapshot is never found again
//!   ([`PlanCache::purge_tenant`] reclaims its slot eagerly).
//! * **LRU eviction.** The cache holds at most `capacity` entries; the
//!   least-recently-used entry is evicted when a fresh plan needs a slot.

use geoqp_common::Location;
use geoqp_core::OptimizedQuery;
use geoqp_plan::LogicalPlan;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What makes a cached plan the plan for a request, compared by value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    /// Tenant index inside the service: plans never cross tenants.
    pub tenant: usize,
    /// The tenant's catalog-log sequence (`CatalogPin::seq`) when the
    /// plan was optimized. With `tenant` it names one policy snapshot:
    /// the engine and the pin are swapped and read together.
    pub seq: u64,
    /// The lowered query.
    pub query: Arc<LogicalPlan>,
    /// The requested result location (`None`: the optimizer's choice).
    pub result_location: Option<Location>,
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
    plan: Arc<OptimizedQuery>,
    last_used: u64,
}

struct CacheState {
    map: HashMap<PlanKey, Entry>,
    /// Logical clock for LRU stamping; bumped on every touch.
    tick: u64,
}

/// Thread-safe LRU cache of optimized located plans. Interior mutability
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
    pub fn lookup(&self, key: &PlanKey) -> Option<Arc<OptimizedQuery>> {
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
    pub fn insert(&self, key: PlanKey, plan: Arc<OptimizedQuery>) {
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

    /// Eagerly drop every entry belonging to `tenant` (policy update):
    /// the sequence component of the key already makes them unreachable,
    /// but purging frees their LRU slots immediately.
    pub fn purge_tenant(&self, tenant: usize) {
        let mut st = self.state.lock().unwrap();
        st.map.retain(|k, _| k.tenant != tenant);
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

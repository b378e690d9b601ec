//! Network topology and the `α + β·b` message cost model.

use geoqp_common::{Location, LocationSet};
use std::collections::BTreeMap;

/// Pairwise link parameters: `α` (startup cost, milliseconds — one WAN
/// round-trip) and `β` (per-byte cost, milliseconds/byte — inverse
/// throughput).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Startup cost in ms.
    pub alpha_ms: f64,
    /// Cost per byte in ms.
    pub beta_ms_per_byte: f64,
}

/// A geo-distributed network: locations plus per-directed-pair link
/// parameters. Intra-site transfers are free, following the paper's model
/// where SHIP only appears between sites.
#[derive(Debug, Clone)]
pub struct NetworkTopology {
    locations: LocationSet,
    links: BTreeMap<(Location, Location), Link>,
    default_link: Link,
}

/// Megabits/second to ms-per-byte.
fn mbps_to_ms_per_byte(mbps: f64) -> f64 {
    // bytes/ms at `mbps`: mbps * 1e6 bits/s = mbps * 125_000 bytes/s
    // = mbps * 125 bytes/ms.
    1.0 / (mbps * 125.0)
}

impl NetworkTopology {
    /// A topology where every cross-site link has the same parameters.
    pub fn uniform(locations: LocationSet, alpha_ms: f64, mbps: f64) -> NetworkTopology {
        NetworkTopology {
            locations,
            links: BTreeMap::new(),
            default_link: Link {
                alpha_ms,
                beta_ms_per_byte: mbps_to_ms_per_byte(mbps),
            },
        }
    }

    /// The five-region WAN of the paper's Section 7.4: locations `L1`–`L5`
    /// standing for Europe, Africa, Asia, North America, and the Middle
    /// East. The α values are representative inter-region round-trip times
    /// and the β values derive from representative inter-region throughput.
    pub fn paper_wan() -> NetworkTopology {
        let names = ["L1", "L2", "L3", "L4", "L5"];
        // Round-trip times in ms between regions (symmetric):
        //        EU    AF    AS    NA    ME
        let rtt = [
            [0.0, 150.0, 180.0, 90.0, 110.0],  // EU (L1)
            [150.0, 0.0, 280.0, 200.0, 180.0], // AF (L2)
            [180.0, 280.0, 0.0, 160.0, 120.0], // AS (L3)
            [90.0, 200.0, 160.0, 0.0, 190.0],  // NA (L4)
            [110.0, 180.0, 120.0, 190.0, 0.0], // ME (L5)
        ];
        // Sustained inter-region throughput in Mbps (symmetric):
        let mbps = [
            [0.0, 120.0, 150.0, 400.0, 250.0],
            [120.0, 0.0, 60.0, 100.0, 140.0],
            [150.0, 60.0, 0.0, 180.0, 220.0],
            [400.0, 100.0, 180.0, 0.0, 110.0],
            [250.0, 140.0, 220.0, 110.0, 0.0],
        ];
        let locations: Vec<Location> = names.iter().map(Location::new).collect();
        let mut links = BTreeMap::new();
        for (i, a) in locations.iter().enumerate() {
            for (j, b) in locations.iter().enumerate() {
                if i != j {
                    links.insert(
                        (a.clone(), b.clone()),
                        Link {
                            alpha_ms: rtt[i][j],
                            beta_ms_per_byte: mbps_to_ms_per_byte(mbps[i][j]),
                        },
                    );
                }
            }
        }
        NetworkTopology {
            locations: locations.into_iter().collect(),
            links,
            default_link: Link {
                alpha_ms: 150.0,
                beta_ms_per_byte: mbps_to_ms_per_byte(100.0),
            },
        }
    }

    /// Override one directed link.
    pub fn set_link(&mut self, from: Location, to: Location, link: Link) {
        self.locations.insert(from.clone());
        self.locations.insert(to.clone());
        self.links.insert((from, to), link);
    }

    /// The known locations.
    pub fn locations(&self) -> &LocationSet {
        &self.locations
    }

    /// The link parameters for a directed pair (the default link when the
    /// pair was never configured — so ad-hoc location sets still cost
    /// sensibly).
    pub fn link(&self, from: &Location, to: &Location) -> Link {
        if from == to {
            return Link {
                alpha_ms: 0.0,
                beta_ms_per_byte: 0.0,
            };
        }
        self.links
            .get(&(from.clone(), to.clone()))
            .copied()
            .unwrap_or(self.default_link)
    }

    /// A copy of the topology with the given directed links priced at ∞
    /// — what the failover re-planner optimizes against once a link
    /// between two live sites has failed (Algorithm 2 then routes around
    /// the failed edges on cost alone, never leaving the compliant
    /// placement space). The
    /// per-byte slope is zeroed so `∞ · 0` bytes can never produce NaN.
    pub fn avoiding_links<'a, I>(&self, avoided: I) -> NetworkTopology
    where
        I: IntoIterator<Item = &'a (Location, Location)>,
    {
        let mut t = self.clone();
        for (from, to) in avoided {
            t.links.insert(
                (from.clone(), to.clone()),
                Link {
                    alpha_ms: f64::INFINITY,
                    beta_ms_per_byte: 0.0,
                },
            );
        }
        t
    }

    /// The message cost model: `cost(i→j, b) = α_ij + β_ij · b`, in
    /// simulated milliseconds. Zero for intra-site movement.
    pub fn ship_cost_ms(&self, from: &Location, to: &Location, bytes: f64) -> f64 {
        if from == to {
            return 0.0;
        }
        let l = self.link(from, to);
        l.alpha_ms + l.beta_ms_per_byte * bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intra_site_is_free() {
        let t = NetworkTopology::paper_wan();
        let l1 = Location::new("L1");
        assert_eq!(t.ship_cost_ms(&l1, &l1, 1e9), 0.0);
    }

    #[test]
    fn cost_is_affine_in_bytes() {
        let t = NetworkTopology::paper_wan();
        let (l1, l3) = (Location::new("L1"), Location::new("L3"));
        let c0 = t.ship_cost_ms(&l1, &l3, 0.0);
        let c1 = t.ship_cost_ms(&l1, &l3, 1_000_000.0);
        let c2 = t.ship_cost_ms(&l1, &l3, 2_000_000.0);
        assert!(c0 > 0.0, "startup cost must be positive");
        let d1 = c1 - c0;
        let d2 = c2 - c1;
        assert!((d1 - d2).abs() < 1e-9, "per-byte slope must be constant");
    }

    #[test]
    fn paper_wan_is_symmetric_and_complete() {
        let t = NetworkTopology::paper_wan();
        assert_eq!(t.locations().len(), 5);
        for a in t.locations().iter() {
            for b in t.locations().iter() {
                if a != b {
                    let ab = t.link(a, b);
                    let ba = t.link(b, a);
                    assert_eq!(ab.alpha_ms, ba.alpha_ms);
                    assert_eq!(ab.beta_ms_per_byte, ba.beta_ms_per_byte);
                    assert!(ab.alpha_ms > 0.0);
                }
            }
        }
    }

    #[test]
    fn unknown_pairs_use_default_link() {
        let t = NetworkTopology::paper_wan();
        let cost = t.ship_cost_ms(&Location::new("X"), &Location::new("Y"), 1000.0);
        assert!(cost > 0.0);
    }

    #[test]
    fn uniform_topology() {
        let locs = LocationSet::from_iter(["A", "B"]);
        let t = NetworkTopology::uniform(locs, 100.0, 125.0);
        // 125 Mbps = 15625 bytes/ms → β = 6.4e-5 ms/byte.
        let c = t.ship_cost_ms(&Location::new("A"), &Location::new("B"), 15625.0 * 125.0);
        assert!((c - 225.0).abs() < 1e-6);
    }

    #[test]
    fn avoiding_links_prices_only_the_named_edges_at_infinity() {
        let t = NetworkTopology::paper_wan();
        let (l1, l4) = (Location::new("L1"), Location::new("L4"));
        let avoided = [(l1.clone(), l4.clone())];
        let a = t.avoiding_links(&avoided);
        assert!(a.ship_cost_ms(&l1, &l4, 0.0).is_infinite());
        assert!(!a.ship_cost_ms(&l1, &l4, 0.0).is_nan());
        // The reverse direction and every other link keep their prices.
        assert_eq!(
            a.ship_cost_ms(&l4, &l1, 100.0),
            t.ship_cost_ms(&l4, &l1, 100.0)
        );
        assert_eq!(
            a.ship_cost_ms(&l1, &Location::new("L3"), 100.0),
            t.ship_cost_ms(&l1, &Location::new("L3"), 100.0)
        );
        // The original is untouched.
        assert!(t.ship_cost_ms(&l1, &l4, 0.0).is_finite());
    }

    #[test]
    fn set_link_overrides() {
        let mut t = NetworkTopology::uniform(LocationSet::new(), 10.0, 100.0);
        t.set_link(
            Location::new("A"),
            Location::new("B"),
            Link {
                alpha_ms: 1.0,
                beta_ms_per_byte: 0.0,
            },
        );
        assert_eq!(
            t.ship_cost_ms(&Location::new("A"), &Location::new("B"), 1e6),
            1.0
        );
        // Reverse direction still uses the default.
        assert!(t.ship_cost_ms(&Location::new("B"), &Location::new("A"), 1e6) > 1.0);
        assert_eq!(t.locations().len(), 2);
    }
}

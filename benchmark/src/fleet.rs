//! The protected fleet: 100 000 owned IPv4 prefixes, 64 vantage
//! points, and the service built around them.

use crate::rng::Rng;
use artemis_bgp::{Asn, Prefix};
use artemis_controller::Controller;
use artemis_core::{ArtemisConfig, ArtemisService, OwnedPrefix, Pipeline};
use artemis_feeds::FeedSource;
use artemis_simnet::{LatencyModel, SimRng, SimTime};
use std::net::Ipv4Addr;

pub const FLEET_SIZE: usize = 100_000;
pub const VANTAGE_POINTS: usize = 64;
pub const OPERATOR_AS: u32 = 65_001;
/// First address of the fleet's address space (10.0.0.0); noise is
/// drawn from 32.0.0.0 upward, far outside it.
const FLEET_BASE: u32 = 0x0A00_0000;
/// How many hijack victims of each kind one run may consume. Victims
/// are set aside so that legitimate background churn never touches a
/// prefix with a live incident.
const RESERVED_PER_KIND: usize = 8_192;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Owned {
    pub prefix: Prefix,
    /// Owned but unannounced: any announcement is squatting.
    pub dormant: bool,
}

pub struct Fleet {
    pub owned: Vec<Owned>,
    /// Unowned /24s scattered inside the fleet's address space, so
    /// some noise misses the routing structure deep instead of at its
    /// root table.
    pub holes: Vec<Prefix>,
    pub vantage_points: Vec<Asn>,
    /// Indices into `owned` that legitimate background churn may use.
    pub legit_pool: Vec<u32>,
    /// Victim pools, shuffled; each hijack pops the next unused index.
    pub exact_victims: Vec<u32>,
    pub sub_victims: Vec<u32>,
    pub squat_victims: Vec<u32>,
}

pub fn v4(addr: u32, len: u8) -> Prefix {
    Prefix::v4(Ipv4Addr::from(addr), len).expect("generated prefix is aligned and at most /32")
}

/// The IPv4 address of a generated prefix.
pub fn addr_of(p: Prefix) -> u32 {
    (p.bits() >> 96) as u32
}

impl Fleet {
    /// The fleet for `seed`: mixed /20–/24 (so de-aggregation plans
    /// exist), about 1 % dormant, packed upward from 10.0.0.0 with an
    /// unowned /24 hole after every sixteenth prefix on average.
    pub fn generate(seed: u64) -> Fleet {
        let mut rng = Rng::new(seed).fork(1);
        let mut owned = Vec::with_capacity(FLEET_SIZE);
        let mut holes = Vec::new();
        let mut cursor = FLEET_BASE;
        for _ in 0..FLEET_SIZE {
            let len = match rng.below(100) {
                0..=49 => 24,
                50..=69 => 23,
                70..=84 => 22,
                85..=94 => 21,
                _ => 20,
            };
            let size = 1u32 << (32 - len);
            cursor = cursor.next_multiple_of(size);
            owned.push(Owned {
                prefix: v4(cursor, len),
                dormant: rng.percent(1),
            });
            cursor += size;
            if rng.below(16) == 0 {
                holes.push(v4(cursor, 24));
                cursor += 256;
            }
        }

        let mut exact = Vec::new();
        let mut sub = Vec::new();
        let mut squat = Vec::new();
        for (i, o) in owned.iter().enumerate() {
            if o.dormant {
                squat.push(i as u32);
            } else if o.prefix.len() <= 23 && i % 2 == 0 {
                sub.push(i as u32);
            } else {
                exact.push(i as u32);
            }
        }
        rng.shuffle(&mut exact);
        rng.shuffle(&mut sub);
        rng.shuffle(&mut squat);
        let legit_pool = exact
            .iter()
            .skip(RESERVED_PER_KIND)
            .chain(sub.iter().skip(RESERVED_PER_KIND))
            .copied()
            .collect();
        exact.truncate(RESERVED_PER_KIND);
        sub.truncate(RESERVED_PER_KIND);

        Fleet {
            owned,
            holes,
            // Distinct, public-looking ASNs that collide with neither
            // the operator nor the generator's transit/rogue ranges.
            vantage_points: (0..VANTAGE_POINTS as u32)
                .map(|i| Asn(100 + i * 11))
                .collect(),
            legit_pool,
            exact_victims: exact,
            sub_victims: sub,
            squat_victims: squat,
        }
    }

    pub fn config(&self) -> ArtemisConfig {
        ArtemisConfig::new(
            Asn(OPERATOR_AS),
            self.owned
                .iter()
                .map(|o| {
                    let p = OwnedPrefix::new(o.prefix, Asn(OPERATOR_AS));
                    if o.dormant {
                        p.dormant()
                    } else {
                        p
                    }
                })
                .collect(),
        )
    }

    /// A fresh service protecting this fleet with `feed` attached,
    /// built through the surface an operator's deployment uses
    /// (`Pipeline::bare`, `attach_feed`, `ArtemisService::new`). Every
    /// workload times this construction as part of `setup_s`.
    pub fn service(&self, feed: Box<dyn FeedSource>) -> ArtemisService {
        let mut pipeline =
            Pipeline::bare(self.config(), self.vantage_points.iter().copied().collect());
        pipeline.attach_feed(feed, SimTime::ZERO);
        let controller = Controller::new(
            Asn(OPERATOR_AS),
            LatencyModel::const_secs(15),
            SimRng::new(1),
        );
        ArtemisService::new(pipeline, controller)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn fleet_is_disjoint_sized_and_seeded() {
        let a = Fleet::generate(7);
        let b = Fleet::generate(7);
        let c = Fleet::generate(8);
        assert_eq!(a.owned, b.owned);
        assert_ne!(a.owned, c.owned);
        assert_eq!(a.owned.len(), FLEET_SIZE);
        // Packed upward: each prefix starts at or after the previous end.
        for w in a.owned.windows(2) {
            let end = addr_of(w[0].prefix) as u64 + (1u64 << (32 - w[0].prefix.len()));
            assert!(addr_of(w[1].prefix) as u64 >= end);
        }
        assert!(a.owned.iter().all(|o| (20..=24).contains(&o.prefix.len())));
        let dormant = a.owned.iter().filter(|o| o.dormant).count();
        assert!(
            (500..2000).contains(&dormant),
            "about 1% dormant: {dormant}"
        );
        // The whole fleet stays below the noise space.
        assert!(addr_of(a.owned.last().unwrap().prefix) < 0x2000_0000);
        // Holes lie in the gaps: the owned prefix starting at or before
        // a hole ends before it.
        for h in a.holes.iter().step_by(97) {
            let i = a
                .owned
                .partition_point(|o| addr_of(o.prefix) <= addr_of(*h));
            assert!(i > 0 && !a.owned[i - 1].prefix.contains(*h));
        }
    }

    #[test]
    fn victims_never_overlap_background_churn() {
        let f = Fleet::generate(3);
        let legit: BTreeSet<u32> = f.legit_pool.iter().copied().collect();
        for pool in [&f.exact_victims, &f.sub_victims, &f.squat_victims] {
            assert!(pool.iter().all(|i| !legit.contains(i)));
        }
        assert!(f.legit_pool.iter().all(|i| !f.owned[*i as usize].dormant));
        assert!(f
            .sub_victims
            .iter()
            .all(|i| f.owned[*i as usize].prefix.len() <= 23));
        assert!(f.squat_victims.iter().all(|i| f.owned[*i as usize].dormant));
    }
}

//! The detection rules written out over a list of owned prefixes, with
//! no routing structure: the reference the detector
//! (`detector_properties.rs`) and the whole service
//! (`path_reduction.rs`) are held to. It reads the origin and the
//! origin-adjacent hop off the full AS path itself, segment by
//! segment, so it shares no code with the reduction events go through.

use artemis_bgp::aspath::Segment;
use artemis_bgp::{AsPath, Asn, Prefix};
use artemis_core::{HijackType, OwnedPrefix};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::net::{Ipv4Addr, Ipv6Addr};

/// The operator's origin.
pub const VICTIM: u32 = 65_001;
/// A second legitimate origin some owned prefixes list (anycast).
pub const PARTNER: u32 = 65_002;
/// The known neighbours some owned prefixes list.
pub const UPSTREAM_A: u32 = 174;
pub const UPSTREAM_B: u32 = 3_356;
/// Origins the generated histories announce with.
pub const ORIGINS: [u32; 4] = [VICTIM, PARTNER, 666, 667];
/// Origin-adjacent hops: the two upstreams and a stranger.
pub const ADJACENT: [u32; 3] = [UPSTREAM_A, UPSTREAM_B, 9_999];

/// The `k`-th `/len` of the generated address space: counted up from
/// 10.0.0.0 for IPv4 and from 2001:db8:: for IPv6, so small `k` at
/// different lengths nest.
pub fn space(v6: bool, len: u8, k: u32) -> Prefix {
    if v6 {
        let bits = (0x2001_0db8u128 << 96) + (u128::from(k) << (128 - u32::from(len)));
        Prefix::v6(Ipv6Addr::from(bits), len).expect("aligned")
    } else {
        let bits = 0x0A00_0000u32 + (k << (32 - u32::from(len)));
        Prefix::v4(Ipv4Addr::from(bits), len).expect("aligned")
    }
}

/// An owned prefix: a v4 /20–/24 (one in four is a v6 /32–/48), one or
/// two legitimate origins, optional known neighbours, sometimes
/// dormant.
pub fn arb_owned() -> impl Strategy<Value = OwnedPrefix> {
    (0u8..4, 0usize..5, 0u32..4, 0usize..3, 0usize..4, 0u8..6).prop_map(
        |(family, len, k, origins, neighbors, dormant)| {
            let v6 = family == 0;
            let len = if v6 {
                [32, 36, 40, 44, 48][len]
            } else {
                20 + len as u8
            };
            let origins: &[u32] = [&[VICTIM][..], &[PARTNER], &[VICTIM, PARTNER]][origins];
            let neighbors = &[UPSTREAM_A, UPSTREAM_B][..[0, 0, 1, 2][neighbors]];
            OwnedPrefix {
                prefix: space(v6, len, k),
                legitimate_origins: origins.iter().map(|a| Asn(*a)).collect(),
                known_neighbors: neighbors.iter().map(|a| Asn(*a)).collect(),
                dormant: dormant == 0,
            }
        },
    )
}

/// A prefix an event may carry or a mitigation may expect: an owned
/// prefix, a more-specific, a less-specific or nearby unowned space.
pub fn arb_observed() -> impl Strategy<Value = Prefix> {
    (0u8..4, 0usize..8, 0u32..8).prop_map(|(family, len, k)| {
        let v6 = family == 0;
        let len = if v6 {
            [31, 32, 36, 40, 44, 48, 50, 56][len]
        } else {
            19 + len as u8
        };
        space(v6, len, k)
    })
}

/// The origin of `path`: the last ASN of its last segment, if that
/// segment is a sequence. An AS_SET at the end (or no segment at all)
/// leaves the origin undefined.
pub fn path_origin(path: &AsPath) -> Option<Asn> {
    match path.segments().last()? {
        Segment::Sequence(asns) => asns.last().copied(),
        Segment::Set(_) => None,
    }
}

/// The hop next to the origin: the second-to-last ASN over all
/// segments, if no segment is an AS_SET (a set anywhere leaves the
/// adjacency undefined).
pub fn path_origin_neighbor(path: &AsPath) -> Option<Asn> {
    let mut hops = Vec::new();
    for segment in path.segments() {
        match segment {
            Segment::Sequence(asns) => hops.extend_from_slice(asns),
            Segment::Set(_) => return None,
        }
    }
    hops.len().checked_sub(2).map(|i| hops[i])
}

/// One owned prefix as the linear model keeps it.
#[derive(Debug)]
pub struct ModelShard {
    pub prefix: Prefix,
    pub origins: BTreeSet<Asn>,
    pub neighbors: BTreeSet<Asn>,
    pub dormant: bool,
    /// Announcements a mitigation registered within this prefix.
    pub expected: BTreeSet<Prefix>,
}

/// The detection rules applied to a list of owned prefixes: a linear
/// scan finds the most-specific owned prefix covering an announcement,
/// and the paper's rules (exact prefix, sub-prefix, Type-1 fake
/// neighbour, squatting) judge it.
#[derive(Debug, Default)]
pub struct RulesModel {
    pub shards: Vec<ModelShard>,
}

impl RulesModel {
    /// Add `owned`; a prefix already listed takes the union of both
    /// copies' origins and neighbours and stays dormant only if both
    /// are (`fold`), else the add is refused.
    pub fn add(&mut self, owned: &OwnedPrefix, fold: bool) -> bool {
        match self.shards.iter_mut().find(|s| s.prefix == owned.prefix) {
            Some(shard) if fold => {
                shard
                    .origins
                    .extend(owned.legitimate_origins.iter().copied());
                shard
                    .neighbors
                    .extend(owned.known_neighbors.iter().copied());
                shard.dormant &= owned.dormant;
                true
            }
            Some(_) => false,
            None => {
                self.shards.push(ModelShard {
                    prefix: owned.prefix,
                    origins: owned.legitimate_origins.clone(),
                    neighbors: owned.known_neighbors.clone(),
                    dormant: owned.dormant,
                    expected: BTreeSet::new(),
                });
                true
            }
        }
    }

    /// Index of the most-specific owned prefix covering `prefix`.
    pub fn owner(&self, prefix: Prefix) -> Option<usize> {
        (0..self.shards.len())
            .filter(|i| self.shards[*i].prefix.contains(prefix))
            .max_by_key(|i| self.shards[*i].prefix.len())
    }

    /// A mitigation registers `prefix` as its own announcement, with
    /// the owned prefix covering it.
    pub fn expect(&mut self, prefix: Prefix) {
        if let Some(i) = self.owner(prefix) {
            self.shards[i].expected.insert(prefix);
        }
    }

    /// A mitigation begins announcing the dormant owned prefix `owned`.
    pub fn activate(&mut self, owned: Prefix) {
        if let Some(shard) = self.shards.iter_mut().find(|s| s.prefix == owned) {
            shard.dormant = false;
            shard.expected.insert(owned);
        }
    }

    /// The owned prefix an announcement of `prefix` along `path` falls
    /// under, and the hijack it is (`None`: benign). The origin is the
    /// `stated` one, else the path's. `None` overall for a withdrawal
    /// (`path` is `None`) or space nobody owns.
    pub fn classify(
        &self,
        prefix: Prefix,
        path: Option<&AsPath>,
        stated: Option<Asn>,
    ) -> Option<(Prefix, Option<HijackType>)> {
        let path = path?;
        let shard = &self.shards[self.owner(prefix)?];
        let origin = stated.or_else(|| path_origin(path));
        let legit = origin.is_some_and(|o| shard.origins.contains(&o));
        let expected = shard.expected.contains(&prefix);
        let hijack = if shard.dormant {
            (!(expected && legit)).then_some(HijackType::Squatting)
        } else if prefix == shard.prefix {
            let fake_neighbor = !shard.neighbors.is_empty()
                && path_origin_neighbor(path).is_some_and(|adj| {
                    !shard.neighbors.contains(&adj)
                        && Some(adj) != origin
                        && !shard.origins.contains(&adj)
                });
            if !legit {
                Some(HijackType::ExactOrigin)
            } else {
                fake_neighbor.then_some(HijackType::Type1FakeNeighbor)
            }
        } else if expected {
            (!legit).then_some(HijackType::SubPrefix)
        } else if legit {
            Some(HijackType::SubPrefixForgedOrigin)
        } else {
            Some(HijackType::SubPrefix)
        };
        Some((shard.prefix, hijack))
    }
}

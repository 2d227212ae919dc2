//! The operator's configuration: which prefixes we own, who may
//! originate them, and how to mitigate.

use artemis_bgp::{Asn, Prefix};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// One owned prefix and its legitimacy rules.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OwnedPrefix {
    /// The prefix the operator owns (e.g. `10.0.0.0/23`).
    pub prefix: Prefix,
    /// ASNs allowed to originate it (usually just the operator's AS;
    /// multiple for legitimate MOAS, e.g. anycast partners).
    pub legitimate_origins: BTreeSet<Asn>,
    /// Direct BGP neighbors of the origin (upstreams/peers). When
    /// non-empty, paths whose origin-adjacent hop is not in this set
    /// raise a Type-1 (fake first-hop) alert — a documented extension
    /// beyond the demo paper's origin-only check.
    pub known_neighbors: BTreeSet<Asn>,
    /// True when the prefix is owned but intentionally *not announced*
    /// (any announcement at all is then a squatting incident).
    pub dormant: bool,
}

impl OwnedPrefix {
    /// Standard single-origin prefix.
    pub fn new(prefix: Prefix, origin: Asn) -> Self {
        OwnedPrefix {
            prefix,
            legitimate_origins: [origin].into_iter().collect(),
            known_neighbors: BTreeSet::new(),
            dormant: false,
        }
    }

    /// Add an additional legitimate origin (anycast / multi-homing).
    pub fn with_extra_origin(mut self, origin: Asn) -> Self {
        self.legitimate_origins.insert(origin);
        self
    }

    /// Declare the legitimate upstream set (enables Type-1 detection).
    pub fn with_neighbors<I: IntoIterator<Item = Asn>>(mut self, neighbors: I) -> Self {
        self.known_neighbors = neighbors.into_iter().collect();
        self
    }

    /// Mark as dormant (squatting detection).
    pub fn dormant(mut self) -> Self {
        self.dormant = true;
        self
    }
}

/// How aggressively the mitigation de-aggregates (ablation in
/// DESIGN.md §5: one level always suffices against the *current*
/// announcement; going straight to the filtering limit also preempts
/// an attacker's counter-escalation with even-more-specifics, at the
/// cost of more routing-table pollution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeaggregationPolicy {
    /// Split once (the paper's move: /23 → two /24s).
    OneLevel,
    /// Announce every sub-prefix at the filtering limit
    /// (/20 → sixteen /24s).
    ToFilterLimit,
}

/// Full ARTEMIS configuration for one operator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArtemisConfig {
    /// The operator's primary AS.
    pub operator_as: Asn,
    /// Owned prefixes with their rules.
    pub owned: Vec<OwnedPrefix>,
    /// Longest de-aggregated prefix the mitigation may announce
    /// (paper §2: /24 for IPv4 — longer is widely filtered).
    pub max_deaggregation_len_v4: u8,
    /// IPv6 equivalent (/48 by common filtering practice).
    pub max_deaggregation_len_v6: u8,
    /// De-aggregation aggressiveness.
    pub deaggregation_policy: DeaggregationPolicy,
    /// Automatically trigger mitigation on detection (the paper's
    /// headline behaviour). When false, ARTEMIS only alerts.
    pub auto_mitigate: bool,
    /// Helper ASes (other networks of the same organization, or
    /// mitigation partners) that can co-announce prefixes when
    /// de-aggregation is infeasible — the "outsourcing" extension.
    pub helper_ases: Vec<Asn>,
}

impl ArtemisConfig {
    /// Minimal config: one operator AS owning some prefixes.
    pub fn new(operator_as: Asn, owned: Vec<OwnedPrefix>) -> Self {
        ArtemisConfig {
            operator_as,
            owned,
            max_deaggregation_len_v4: 24,
            max_deaggregation_len_v6: 48,
            deaggregation_policy: DeaggregationPolicy::OneLevel,
            auto_mitigate: true,
            helper_ases: Vec::new(),
        }
    }

    /// Max de-aggregation length for the family of `prefix`.
    pub fn max_deagg_len(&self, prefix: Prefix) -> u8 {
        match prefix.afi() {
            artemis_bgp::prefix::Afi::Ipv4 => self.max_deaggregation_len_v4,
            artemis_bgp::prefix::Afi::Ipv6 => self.max_deaggregation_len_v6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    fn pfx(s: &str) -> Prefix {
        Prefix::from_str(s).unwrap()
    }

    fn config() -> ArtemisConfig {
        ArtemisConfig::new(
            Asn(65001),
            vec![
                OwnedPrefix::new(pfx("10.0.0.0/23"), Asn(65001))
                    .with_neighbors([Asn(174), Asn(3356)]),
                OwnedPrefix::new(pfx("192.0.2.0/24"), Asn(65001)),
                OwnedPrefix::new(pfx("203.0.113.0/24"), Asn(65001)).dormant(),
            ],
        )
    }

    #[test]
    fn builder_helpers() {
        let o = OwnedPrefix::new(pfx("10.0.0.0/23"), Asn(1))
            .with_extra_origin(Asn(2))
            .with_neighbors([Asn(10)]);
        assert!(o.legitimate_origins.contains(&Asn(1)));
        assert!(o.legitimate_origins.contains(&Asn(2)));
        assert!(o.known_neighbors.contains(&Asn(10)));
    }

    #[test]
    fn max_deagg_len_per_family() {
        let c = config();
        assert_eq!(c.max_deagg_len(pfx("10.0.0.0/23")), 24);
        assert_eq!(c.max_deagg_len(pfx("2001:db8::/32")), 48);
    }

    #[test]
    fn serde_roundtrip() {
        let c = config();
        let json = serde_json::to_string(&c).unwrap();
        let back: ArtemisConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.owned, c.owned);
        assert_eq!(back.operator_as, c.operator_as);
    }
}

//! BGP path attributes consumed by the decision process (RFC 4271 §5).

use crate::{AsPath, Asn};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::{IpAddr, Ipv4Addr};

/// ORIGIN attribute (RFC 4271 §5.1.1): how the route entered BGP.
/// Decision-process preference: IGP < EGP < Incomplete (lower wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Origin {
    /// Interior (network statement); wire code 0.
    Igp,
    /// Learned via (historic) EGP; wire code 1.
    Egp,
    /// Redistributed / unknown provenance; wire code 2.
    Incomplete,
}

impl Origin {
    /// Wire code (RFC 4271).
    pub const fn code(self) -> u8 {
        match self {
            Origin::Igp => 0,
            Origin::Egp => 1,
            Origin::Incomplete => 2,
        }
    }

    /// Parse a wire code.
    pub const fn from_code(code: u8) -> Option<Origin> {
        match code {
            0 => Some(Origin::Igp),
            1 => Some(Origin::Egp),
            2 => Some(Origin::Incomplete),
            _ => None,
        }
    }
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Origin::Igp => write!(f, "IGP"),
            Origin::Egp => write!(f, "EGP"),
            Origin::Incomplete => write!(f, "incomplete"),
        }
    }
}

/// A standard community (RFC 1997): `asn:value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Community(pub u32);

impl Community {
    /// Well-known NO_EXPORT (RFC 1997).
    pub const NO_EXPORT: Community = Community(0xFFFF_FF01);
    /// Well-known NO_ADVERTISE (RFC 1997).
    pub const NO_ADVERTISE: Community = Community(0xFFFF_FF02);

    /// Build from the conventional `asn:value` pair.
    pub const fn from_parts(asn: u16, value: u16) -> Self {
        Community(((asn as u32) << 16) | value as u32)
    }

    /// The high 16 bits (conventionally an ASN).
    pub const fn asn_part(self) -> u16 {
        (self.0 >> 16) as u16
    }

    /// The low 16 bits.
    pub const fn value_part(self) -> u16 {
        (self.0 & 0xFFFF) as u16
    }

    /// True for the RFC 1997 well-known range `0xFFFFxxxx`.
    pub const fn is_well_known(self) -> bool {
        self.0 >> 16 == 0xFFFF
    }
}

impl fmt::Display for Community {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.asn_part(), self.value_part())
    }
}

/// The set of path attributes carried with a route.
///
/// `local_pref` is only meaningful inside an AS (iBGP); the simulator
/// assigns it from the business relationship of the session the route
/// was learned over (Gao–Rexford), which is also how real operators
/// configure it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PathAttributes {
    /// ORIGIN (well-known mandatory).
    pub origin: Origin,
    /// AS_PATH (well-known mandatory).
    pub as_path: AsPath,
    /// NEXT_HOP (well-known mandatory). For simulated sessions this is a
    /// synthetic per-AS address.
    pub next_hop: IpAddr,
    /// MULTI_EXIT_DISC (optional non-transitive).
    pub med: Option<u32>,
    /// LOCAL_PREF (well-known, iBGP).
    pub local_pref: Option<u32>,
    /// ATOMIC_AGGREGATE marker.
    pub atomic_aggregate: bool,
    /// AGGREGATOR (optional transitive): the AS and router that
    /// aggregated the route.
    pub aggregator: Option<(Asn, Ipv4Addr)>,
    /// Standard communities (RFC 1997).
    pub communities: Vec<Community>,
}

impl PathAttributes {
    /// Minimal attribute set for a locally originated route.
    pub fn originate(origin_as: Asn, next_hop: IpAddr) -> Self {
        PathAttributes {
            origin: Origin::Igp,
            as_path: AsPath::from_sequence([origin_as]),
            next_hop,
            med: None,
            local_pref: None,
            atomic_aggregate: false,
            aggregator: None,
            communities: Vec::new(),
        }
    }

    /// Minimal attribute set with an explicit path (tests, feeds).
    pub fn with_path(as_path: AsPath, next_hop: IpAddr) -> Self {
        PathAttributes {
            origin: Origin::Igp,
            as_path,
            next_hop,
            med: None,
            local_pref: None,
            atomic_aggregate: false,
            aggregator: None,
            communities: Vec::new(),
        }
    }

    /// The route's origin AS, if the path determines one.
    pub fn origin_as(&self) -> Option<Asn> {
        self.as_path.origin()
    }

    /// Effective LOCAL_PREF with the conventional default of 100.
    pub fn effective_local_pref(&self) -> u32 {
        self.local_pref.unwrap_or(100)
    }

    /// True if NO_EXPORT is attached.
    pub fn no_export(&self) -> bool {
        self.communities.contains(&Community::NO_EXPORT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_codes_roundtrip() {
        for o in [Origin::Igp, Origin::Egp, Origin::Incomplete] {
            assert_eq!(Origin::from_code(o.code()), Some(o));
        }
        assert_eq!(Origin::from_code(3), None);
    }

    #[test]
    fn origin_preference_order() {
        assert!(Origin::Igp < Origin::Egp);
        assert!(Origin::Egp < Origin::Incomplete);
    }

    #[test]
    fn origin_display() {
        assert_eq!(Origin::Igp.to_string(), "IGP");
        assert_eq!(Origin::Incomplete.to_string(), "incomplete");
    }

    #[test]
    fn community_parts() {
        let c = Community::from_parts(65000, 120);
        assert_eq!(c.asn_part(), 65000);
        assert_eq!(c.value_part(), 120);
        assert_eq!(c.to_string(), "65000:120");
    }

    #[test]
    fn well_known_communities() {
        assert!(Community::NO_EXPORT.is_well_known());
        assert!(Community::NO_ADVERTISE.is_well_known());
        assert!(!Community::from_parts(65000, 1).is_well_known());
    }

    #[test]
    fn originate_sets_mandatory_attrs() {
        let attrs = PathAttributes::originate(Asn(65001), "10.0.0.1".parse().unwrap());
        assert_eq!(attrs.origin, Origin::Igp);
        assert_eq!(attrs.origin_as(), Some(Asn(65001)));
        assert_eq!(attrs.as_path.decision_len(), 1);
        assert!(!attrs.no_export());
    }

    #[test]
    fn effective_defaults() {
        let attrs = PathAttributes::originate(Asn(1), "10.0.0.1".parse().unwrap());
        assert_eq!(attrs.effective_local_pref(), 100);
    }

    #[test]
    fn no_export_detection() {
        let mut attrs = PathAttributes::originate(Asn(1), "10.0.0.1".parse().unwrap());
        attrs.communities.push(Community::NO_EXPORT);
        assert!(attrs.no_export());
    }
}

//! Routes and route updates — the lingua franca between simulator,
//! feeds and detector.

use crate::{AsPath, Asn, PathAttributes, Prefix};
use artemis_simnet::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::IpAddr;

/// Where a route observation came from (vantage point provenance).
///
/// ARTEMIS's detection delay is `min` over sources; keeping provenance on
/// every observation is what lets the experiments attribute wins to
/// specific feeds (Periscope vs RIS vs BGPmon).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RouteSource {
    /// Locally originated by the AS itself.
    Local,
    /// Learned over an eBGP session from the given neighbor AS.
    Ebgp(Asn),
    /// Learned over iBGP.
    Ibgp,
}

impl fmt::Display for RouteSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteSource::Local => write!(f, "local"),
            RouteSource::Ebgp(asn) => write!(f, "eBGP({asn})"),
            RouteSource::Ibgp => write!(f, "iBGP"),
        }
    }
}

/// A single route: a prefix plus the attributes it was announced with.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Route {
    /// Destination prefix.
    pub prefix: Prefix,
    /// Path attributes.
    pub attrs: PathAttributes,
    /// How the holder of this route learned it.
    pub source: RouteSource,
}

impl Route {
    /// Construct a locally originated route.
    pub fn originate(prefix: Prefix, origin_as: Asn, next_hop: IpAddr) -> Self {
        Route {
            prefix,
            attrs: PathAttributes::originate(origin_as, next_hop),
            source: RouteSource::Local,
        }
    }

    /// Construct from an explicit path (convenient in tests and feeds).
    pub fn with_path(prefix: Prefix, as_path: AsPath, next_hop: IpAddr) -> Self {
        Route {
            prefix,
            attrs: PathAttributes::with_path(as_path, next_hop),
            source: RouteSource::Ibgp,
        }
    }

    /// The origin AS of the route's path, if well defined.
    pub fn origin_as(&self) -> Option<Asn> {
        self.attrs.origin_as()
    }

    /// The AS path.
    pub fn as_path(&self) -> &AsPath {
        &self.attrs.as_path
    }
}

/// An announce/withdraw event for a prefix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouteUpdate {
    /// A new or replacement path for the prefix (implicit withdraw of
    /// any previous path from the same peer).
    Announce(Route),
    /// The prefix is no longer reachable via the sending peer.
    Withdraw {
        /// Withdrawn prefix.
        prefix: Prefix,
    },
}

impl RouteUpdate {
    /// The prefix the update concerns.
    pub fn prefix(&self) -> Prefix {
        match self {
            RouteUpdate::Announce(r) => r.prefix,
            RouteUpdate::Withdraw { prefix } => *prefix,
        }
    }

    /// The announced route, if any.
    pub fn route(&self) -> Option<&Route> {
        match self {
            RouteUpdate::Announce(r) => Some(r),
            RouteUpdate::Withdraw { .. } => None,
        }
    }
}

/// The role a *neighbor* plays relative to a given AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RelKind {
    /// The neighbor pays us for transit.
    Customer,
    /// Settlement-free peer.
    Peer,
    /// We pay the neighbor for transit.
    Provider,
}

impl fmt::Display for RelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelKind::Customer => write!(f, "customer"),
            RelKind::Peer => write!(f, "peer"),
            RelKind::Provider => write!(f, "provider"),
        }
    }
}

impl RelKind {
    /// The same edge seen from the other endpoint.
    pub fn inverse(self) -> RelKind {
        match self {
            RelKind::Customer => RelKind::Provider,
            RelKind::Peer => RelKind::Peer,
            RelKind::Provider => RelKind::Customer,
        }
    }
}

/// The selected (best) route of one AS for one prefix, as visible in
/// its Loc-RIB.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BestRoute {
    /// AS path *as stored in the Loc-RIB* (empty for locally originated
    /// routes; a collector peering with this AS sees it prepended with
    /// this AS's number).
    pub as_path: AsPath,
    /// The origin AS (for local routes, the AS itself).
    pub origin_as: Asn,
    /// The eBGP neighbor the route was learned from (`None` = local).
    pub neighbor: Option<Asn>,
    /// Relationship of that neighbor (`None` = local route).
    pub learned_from: Option<RelKind>,
    /// Effective LOCAL_PREF after ingress policy.
    pub local_pref: u32,
}

/// A Loc-RIB delta: AS `asn`'s best route for `prefix` changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteChange {
    /// When the change happened.
    pub time: SimTime,
    /// The AS whose Loc-RIB changed.
    pub asn: Asn,
    /// The affected prefix.
    pub prefix: Prefix,
    /// Previous best (`None` = was unreachable).
    pub old: Option<BestRoute>,
    /// New best (`None` = now unreachable).
    pub new: Option<BestRoute>,
}

impl RouteChange {
    /// Origin AS now selected, if any.
    pub fn new_origin(&self) -> Option<Asn> {
        self.new.as_ref().map(|b| b.origin_as)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    fn pfx(s: &str) -> Prefix {
        Prefix::from_str(s).unwrap()
    }

    #[test]
    fn originate_builds_single_hop_path() {
        let r = Route::originate(pfx("10.0.0.0/23"), Asn(65001), "10.0.0.1".parse().unwrap());
        assert_eq!(r.origin_as(), Some(Asn(65001)));
        assert_eq!(r.source, RouteSource::Local);
        assert_eq!(r.as_path().decision_len(), 1);
    }

    #[test]
    fn update_prefix_accessor() {
        let r = Route::originate(pfx("10.0.0.0/23"), Asn(65001), "10.0.0.1".parse().unwrap());
        let a = RouteUpdate::Announce(r.clone());
        let w = RouteUpdate::Withdraw {
            prefix: pfx("10.0.0.0/23"),
        };
        assert_eq!(a.prefix(), pfx("10.0.0.0/23"));
        assert_eq!(w.prefix(), pfx("10.0.0.0/23"));
        assert_eq!(a.route(), Some(&r));
        assert_eq!(w.route(), None);
    }

    #[test]
    fn route_source_display() {
        assert_eq!(RouteSource::Ebgp(Asn(174)).to_string(), "eBGP(AS174)");
        assert_eq!(RouteSource::Local.to_string(), "local");
    }
}

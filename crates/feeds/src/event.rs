//! The common event type all feeds emit.

use artemis_bgp::{AsPath, Asn, Prefix};
use artemis_simnet::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Which monitoring system produced an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FeedKind {
    /// RIPE RIS streaming service ("RIS Live").
    RisLive,
    /// BGPmon live stream.
    BgpMon,
    /// Periscope looking-glass query.
    Periscope,
    /// Archived update batches (RouteViews/RIS style, baseline only).
    ArchiveUpdates,
    /// Periodic full-RIB dumps (baseline only).
    ArchiveRib,
    /// Replay of raw MRT archive bytes (forensics / baseline replay).
    MrtReplay,
    /// Live BMP (RFC 7854) session off a real TCP socket.
    BmpLive,
}

impl fmt::Display for FeedKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeedKind::RisLive => write!(f, "ris-live"),
            FeedKind::BgpMon => write!(f, "bgpmon"),
            FeedKind::Periscope => write!(f, "periscope"),
            FeedKind::ArchiveUpdates => write!(f, "archive-updates"),
            FeedKind::ArchiveRib => write!(f, "archive-rib"),
            FeedKind::MrtReplay => write!(f, "mrt-replay"),
            FeedKind::BmpLive => write!(f, "bmp-live"),
        }
    }
}

/// One observation delivered by a monitoring feed.
///
/// `as_path` is the path *as seen from the vantage point's collector
/// session* — i.e. it starts with the vantage AS itself (a collector
/// receives the peer's Adj-RIB-Out, which prepends the peer).
///
/// A feed builds one event per NLRI, and the hub moves it lane → batch
/// by value (the live BMP feed builds it as it drains its ring, whose
/// entries are thinner), so what it carries on the heap is shared, not
/// owned: cloning `collector` or `as_path` bumps a reference count. On
/// the wire both are a plain string and a plain segment list, as they
/// always were.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeedEvent {
    /// When the monitoring service delivered the event to subscribers
    /// (this is when ARTEMIS can possibly react).
    pub emitted_at: SimTime,
    /// When the vantage point's routing actually changed.
    pub observed_at: SimTime,
    /// Producing system.
    pub source: FeedKind,
    /// Collector / LG identifier (e.g. `rrc00`, `lg-03`): a handle on
    /// the one copy of the name its feed made at construction.
    pub collector: Arc<str>,
    /// The vantage-point AS.
    pub vantage: Asn,
    /// Affected prefix.
    pub prefix: Prefix,
    /// Path including the vantage AS; `None` for withdrawals. All
    /// announcements of one UPDATE share one path allocation.
    pub as_path: Option<AsPath>,
    /// Origin AS of the observed path, if defined.
    pub origin_as: Option<Asn>,
    /// Raw wire payload where the real service has one (RIS-live
    /// JSON). The one field whose clone allocates; only the simulated
    /// RIS-live stream fills it.
    pub raw: Option<String>,
}

// The hot type of the chain: every build fails when it regrows.
const _: () = assert!(std::mem::size_of::<FeedEvent>() <= 128);

impl FeedEvent {
    /// Feed pipeline latency for this event (emission − observation).
    pub fn feed_delay(&self) -> artemis_simnet::SimDuration {
        self.emitted_at.saturating_since(self.observed_at)
    }

    /// True for withdrawal observations.
    pub fn is_withdrawal(&self) -> bool {
        self.as_path.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    #[test]
    fn feed_delay_computation() {
        let e = FeedEvent {
            emitted_at: SimTime::from_secs(50),
            observed_at: SimTime::from_secs(45),
            source: FeedKind::RisLive,
            collector: "rrc00".into(),
            vantage: Asn(174),
            prefix: Prefix::from_str("10.0.0.0/23").unwrap(),
            as_path: None,
            origin_as: None,
            raw: None,
        };
        assert_eq!(e.feed_delay(), artemis_simnet::SimDuration::from_secs(5));
        assert!(e.is_withdrawal());
    }

    #[test]
    fn kind_display() {
        assert_eq!(FeedKind::RisLive.to_string(), "ris-live");
        assert_eq!(FeedKind::ArchiveRib.to_string(), "archive-rib");
    }
}

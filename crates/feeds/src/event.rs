//! The common event type all feeds emit, and its wire twin.

use artemis_bgp::{AsPath, Asn, Prefix};
use artemis_simnet::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

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

/// What an event says about its route besides the origin: whether the
/// prefix was announced or withdrawn, and for an announcement the hop
/// next to the origin. Detection reads no other hop of the path: the
/// origin decides exact-prefix, sub-prefix and squatting, and the
/// origin-adjacent hop decides Type-1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reach {
    /// The vantage point withdrew the prefix.
    Withdrawn,
    /// The vantage point announces the prefix.
    Announced {
        /// [`AsPath::origin_neighbor`] of the announced path: `None`
        /// for a one-hop path and for any path with an AS_SET.
        origin_neighbor: Option<Asn>,
    },
}

impl Reach {
    /// Reduce a path (`None` for a withdrawal) and the origin a
    /// producer states, if any, to what an event keeps: its reach and
    /// its one origin — the stated one, else the path's.
    pub(crate) fn of(path: Option<&AsPath>, origin_as: Option<Asn>) -> (Reach, Option<Asn>) {
        match path {
            None => (Reach::Withdrawn, origin_as),
            Some(path) => (
                Reach::Announced {
                    origin_neighbor: path.origin_neighbor(),
                },
                origin_as.or_else(|| path.origin()),
            ),
        }
    }
}

/// One observation delivered by a monitoring feed.
///
/// An event keeps of its AS path only what detection reads
/// ([`Reach`] and `origin_as`), so it owns nothing on the heap but the
/// simulated RIS-live payload: the hub moves it lane → batch by value,
/// and dropping one frees nothing. The collector's name is the feed's
/// ([`crate::FeedSource::name`]), not the event's. On the wire
/// (`/v1/inject`) an event travels as its v2 twin [`WireFeedEvent`],
/// with collector name and full path.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedEvent {
    /// When the monitoring service delivered the event to subscribers
    /// (this is when ARTEMIS can possibly react).
    pub emitted_at: SimTime,
    /// When the vantage point's routing actually changed.
    pub observed_at: SimTime,
    /// Producing system.
    pub source: FeedKind,
    /// The vantage-point AS.
    pub vantage: Asn,
    /// Affected prefix.
    pub prefix: Prefix,
    /// Announced (with the origin-adjacent hop) or withdrawn.
    pub reach: Reach,
    /// The origin AS every stage reads: the producer's stated origin,
    /// else the announced path's. `None` for withdrawals and for paths
    /// ending in an AS_SET.
    pub origin_as: Option<Asn>,
    /// Raw wire payload where the real service has one (RIS-live
    /// JSON). The one field whose clone allocates; only the simulated
    /// RIS-live stream fills it.
    pub raw: Option<String>,
}

// The hot type of the chain: every build fails when it regrows.
const _: () = assert!(std::mem::size_of::<FeedEvent>() <= 96);

impl FeedEvent {
    /// The one way a producer makes an event: `path` is the full path
    /// the vantage point reports, vantage AS first (`None` for a
    /// withdrawal), and `origin_as` the origin the producer states, if
    /// any. The path is reduced here to its [`Reach`] and origin;
    /// `raw` starts empty.
    pub fn new(
        emitted_at: SimTime,
        observed_at: SimTime,
        source: FeedKind,
        vantage: Asn,
        prefix: Prefix,
        path: Option<&AsPath>,
        origin_as: Option<Asn>,
    ) -> Self {
        let (reach, origin_as) = Reach::of(path, origin_as);
        FeedEvent {
            emitted_at,
            observed_at,
            source,
            vantage,
            prefix,
            reach,
            origin_as,
            raw: None,
        }
    }

    /// Feed pipeline latency for this event (emission − observation).
    pub fn feed_delay(&self) -> artemis_simnet::SimDuration {
        self.emitted_at.saturating_since(self.observed_at)
    }

    /// True for withdrawal observations.
    pub fn is_withdrawal(&self) -> bool {
        self.reach == Reach::Withdrawn
    }

    /// The hop next to the origin of an announcement (see [`Reach`]).
    pub fn origin_neighbor(&self) -> Option<Asn> {
        match self.reach {
            Reach::Announced { origin_neighbor } => origin_neighbor,
            Reach::Withdrawn => None,
        }
    }
}

/// A [`FeedEvent`] as `/v1/inject` carries it (wire schema v2): the
/// collector's name and the full AS path, vantage AS first (`null` for
/// a withdrawal). It becomes a [`FeedEvent`] at the boundary, which
/// keeps only what detection reads of it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireFeedEvent {
    /// See [`FeedEvent::emitted_at`].
    pub emitted_at: SimTime,
    /// See [`FeedEvent::observed_at`].
    pub observed_at: SimTime,
    /// See [`FeedEvent::source`].
    pub source: FeedKind,
    /// Collector / LG identifier (e.g. `rrc00`, `lg-03`).
    pub collector: String,
    /// See [`FeedEvent::vantage`].
    pub vantage: Asn,
    /// See [`FeedEvent::prefix`].
    pub prefix: Prefix,
    /// Path including the vantage AS; `None` for withdrawals.
    pub as_path: Option<AsPath>,
    /// The stated origin; `None` lets the path's origin stand.
    pub origin_as: Option<Asn>,
    /// See [`FeedEvent::raw`].
    pub raw: Option<String>,
}

impl From<WireFeedEvent> for FeedEvent {
    fn from(wire: WireFeedEvent) -> Self {
        FeedEvent {
            raw: wire.raw,
            ..FeedEvent::new(
                wire.emitted_at,
                wire.observed_at,
                wire.source,
                wire.vantage,
                wire.prefix,
                wire.as_path.as_ref(),
                wire.origin_as,
            )
        }
    }
}

impl From<FeedEvent> for WireFeedEvent {
    /// Render an event that has lost its collector and path: the name
    /// is empty, and the path is the shortest one with the event's
    /// origin-adjacent hop and origin, so converting back yields the
    /// same [`FeedEvent`] for every event [`FeedEvent::new`] builds.
    fn from(event: FeedEvent) -> Self {
        let as_path = match event.reach {
            Reach::Withdrawn => None,
            Reach::Announced { origin_neighbor } => Some(AsPath::from_sequence(
                origin_neighbor.into_iter().chain(event.origin_as),
            )),
        };
        WireFeedEvent {
            emitted_at: event.emitted_at,
            observed_at: event.observed_at,
            source: event.source,
            collector: String::new(),
            vantage: event.vantage,
            prefix: event.prefix,
            as_path,
            origin_as: event.origin_as,
            raw: event.raw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    #[test]
    fn feed_delay_computation() {
        let e = FeedEvent::new(
            SimTime::from_secs(50),
            SimTime::from_secs(45),
            FeedKind::RisLive,
            Asn(174),
            Prefix::from_str("10.0.0.0/23").unwrap(),
            None,
            None,
        );
        assert_eq!(e.feed_delay(), artemis_simnet::SimDuration::from_secs(5));
        assert!(e.is_withdrawal());
    }

    #[test]
    fn the_stated_origin_wins_and_the_path_fills_in() {
        let path = AsPath::from_sequence([174u32, 3356, 65001]);
        let at = SimTime::from_secs(1);
        let prefix = Prefix::from_str("10.0.0.0/23").unwrap();
        let derived = FeedEvent::new(
            at,
            at,
            FeedKind::BmpLive,
            Asn(174),
            prefix,
            Some(&path),
            None,
        );
        assert_eq!(derived.origin_as, Some(Asn(65001)));
        assert_eq!(derived.origin_neighbor(), Some(Asn(3356)));
        let stated = FeedEvent::new(
            at,
            at,
            FeedKind::BmpLive,
            Asn(174),
            prefix,
            Some(&path),
            Some(Asn(666)),
        );
        assert_eq!(stated.origin_as, Some(Asn(666)));
        assert_eq!(stated.origin_neighbor(), Some(Asn(3356)));
    }

    #[test]
    fn an_event_renders_to_a_wire_twin_that_converts_back_to_it() {
        let at = SimTime::from_secs(1);
        let prefix = Prefix::from_str("10.0.0.0/23").unwrap();
        let set_tail = AsPath::from_segments([
            artemis_bgp::aspath::Segment::Sequence(vec![Asn(174)]),
            artemis_bgp::aspath::Segment::Set(vec![Asn(1), Asn(2)]),
        ]);
        let set_head = AsPath::from_segments([
            artemis_bgp::aspath::Segment::Set(vec![Asn(1), Asn(2)]),
            artemis_bgp::aspath::Segment::Sequence(vec![Asn(3356), Asn(65001)]),
        ]);
        for (path, origin) in [
            (None, None),
            (None, Some(Asn(65001))),
            (Some(AsPath::empty()), None),
            (Some(AsPath::from_sequence([65001u32])), None),
            (Some(AsPath::from_sequence([174u32, 65001, 65001])), None),
            (
                Some(AsPath::from_sequence([174u32, 3356, 65001])),
                Some(Asn(666)),
            ),
            (Some(set_tail), None),
            (Some(set_head), None),
        ] {
            let event = FeedEvent::new(
                at,
                at,
                FeedKind::RisLive,
                Asn(174),
                prefix,
                path.as_ref(),
                origin,
            );
            assert_eq!(FeedEvent::from(WireFeedEvent::from(event.clone())), event);
        }
    }

    #[test]
    fn kind_display() {
        assert_eq!(FeedKind::RisLive.to_string(), "ris-live");
        assert_eq!(FeedKind::ArchiveRib.to_string(), "archive-rib");
    }
}

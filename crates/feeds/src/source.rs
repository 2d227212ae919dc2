//! The [`FeedSource`] trait and routing-state views.

use crate::event::{FeedEvent, FeedKind};
use artemis_bgp::{Asn, Prefix};
use artemis_bgpsim::{BestRoute, Engine, RouteChange};
use artemis_simnet::{SimRng, SimTime};

pub use artemis_bmp::WakeLatch;

/// Read-only view of current routing state, used by pull-based feeds
/// (looking glasses, RIB snapshots).
pub trait RibView {
    /// Best route of `asn` for exactly `prefix`.
    fn best_route(&self, asn: Asn, prefix: Prefix) -> Option<BestRoute>;
    /// Complete Loc-RIB of `asn`.
    fn loc_rib(&self, asn: Asn) -> Vec<(Prefix, BestRoute)>;
}

/// A [`RibView`] with no routing state at all.
///
/// Live wire feeds ([`crate::BmpLiveFeed`]) do not inspect simulated
/// routing state — their poll path drains a socket-fed ring. Drivers
/// that pump only such feeds (the operator daemon) pass this view so
/// they need no engine.
pub struct EmptyRibView;

impl RibView for EmptyRibView {
    fn best_route(&self, _asn: Asn, _prefix: Prefix) -> Option<BestRoute> {
        None
    }
    fn loc_rib(&self, _asn: Asn) -> Vec<(Prefix, BestRoute)> {
        Vec::new()
    }
}

/// The live engine as a [`RibView`].
pub struct EngineView<'a>(pub &'a Engine);

impl RibView for EngineView<'_> {
    fn best_route(&self, asn: Asn, prefix: Prefix) -> Option<BestRoute> {
        self.0.best_route(asn, prefix)
    }
    fn loc_rib(&self, asn: Asn) -> Vec<(Prefix, BestRoute)> {
        self.0.loc_rib(asn)
    }
}

/// A monitoring data source.
///
/// Feeds are driven two ways:
/// * **push**: the experiment driver forwards every [`RouteChange`] via
///   [`FeedSource::on_route_change`]; the feed decides whether one of
///   its vantage points saw it and when subscribers learn about it.
/// * **pull**: the driver asks [`FeedSource::next_poll`] when the feed
///   next wants to inspect routing state and calls
///   [`FeedSource::poll`] at that instant with a [`RibView`].
///
/// Either path returns [`FeedEvent`]s whose `emitted_at` may lie in the
/// future (pipeline delay); the driver is responsible for ordering.
///
/// Feeds are `Send`: the operator daemon keeps the hub (and thus every
/// attached feed) behind a mutex shared across connection threads.
pub trait FeedSource: Send {
    /// The feed family.
    fn kind(&self) -> FeedKind;
    /// Human-readable instance name.
    fn name(&self) -> &str;
    /// Push-path: react to a Loc-RIB change somewhere in the Internet,
    /// appending any resulting events to `out`. This is the primary
    /// implementation surface: the [`crate::FeedHub`] batch path
    /// threads one reusable buffer through every feed instead of
    /// collecting a fresh `Vec` per `(change, feed)` pair.
    fn on_route_change_into(
        &mut self,
        change: &RouteChange,
        rng: &mut SimRng,
        out: &mut Vec<FeedEvent>,
    );
    /// Push-path, allocating convenience wrapper around
    /// [`FeedSource::on_route_change_into`].
    fn on_route_change(&mut self, change: &RouteChange, rng: &mut SimRng) -> Vec<FeedEvent> {
        let mut out = Vec::new();
        self.on_route_change_into(change, rng, &mut out);
        out
    }
    /// Pull-path: when does this feed next want to run (`None` = never)?
    fn next_poll(&self, now: SimTime) -> Option<SimTime>;
    /// Pull-path: execute the poll scheduled at `at`.
    fn poll(&mut self, at: SimTime, view: &dyn RibView, rng: &mut SimRng) -> Vec<FeedEvent>;
    /// Pull-path into a caller's buffer: execute the poll scheduled at
    /// `at`, **appending** its events to `out`. It never clears `out`;
    /// whatever `out` held before is left as it was. The
    /// [`crate::FeedHub`] polls through this into one reused buffer.
    /// The default forwards [`FeedSource::poll`]; feeds that can fill
    /// the buffer directly ([`crate::BmpLiveFeed`]) override it.
    fn poll_into(
        &mut self,
        at: SimTime,
        view: &dyn RibView,
        rng: &mut SimRng,
        out: &mut Vec<FeedEvent>,
    ) {
        out.extend(self.poll(at, view, rng));
    }
    /// Events emitted so far (monitoring-overhead accounting).
    fn events_emitted(&self) -> u64;
    /// Pull queries actually issued (0 for push feeds) — the
    /// monitoring-overhead axis of the LG trade-off.
    fn polls_executed(&self) -> u64 {
        0
    }
    /// Events this feed discarded *before* they could reach the hub's
    /// merge queue: backpressure sheds plus feed-local filtering and
    /// outage windows. Monotone. The hub adds its own pre-heap filter
    /// rejections on top when reporting [`crate::FeedLag`].
    fn dropped_events(&self) -> u64 {
        0
    }
    /// The backpressure-shed subset of [`FeedSource::dropped_events`]:
    /// events discarded because the consumer fell behind a bounded
    /// ring (0 for feeds without one). Monotone.
    fn shed_events(&self) -> u64 {
        0
    }
    /// Raw MRT bytes this feed has accumulated, for feeds that write
    /// archives ([`crate::ArchiveUpdatesFeed`], [`crate::ArchiveRibFeed`]);
    /// `None` for everything else. Lets drivers pull archive bytes back
    /// out of a [`crate::FeedHub`]-boxed feed for replay.
    fn archive_bytes(&self) -> Option<&[u8]> {
        None
    }
    /// Wire-session health for socket-backed feeds
    /// ([`crate::BmpLiveFeed`]): transport reconnects plus per-peer
    /// `stats_report` health. `None` for simulated feeds.
    fn wire_health(&self) -> Option<crate::live::WireHealth> {
        None
    }
    /// Drain the peers whose BGP sessions this feed observed going
    /// down (BMP `peer_down`) since the last call. The pipeline purges
    /// each returned vantage point from its monitors' per-VP views.
    /// Empty for feeds without session semantics.
    fn take_peer_downs(&mut self) -> Vec<Asn> {
        Vec::new()
    }
    /// Hand the feed the latch its driver parks on. A feed that learns
    /// of events on a thread of its own ([`crate::BmpLiveFeed`])
    /// signals it when [`FeedSource::next_poll`] turns from `None` to
    /// ready, so the driver need not ask on a timer. Feeds driven
    /// entirely by the caller have nobody to wake and ignore it.
    fn set_waker(&mut self, _waker: WakeLatch) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_bgpsim::SimConfig;
    use artemis_topology::AsGraph;
    use std::str::FromStr;

    #[test]
    fn engine_view_delegates() {
        let mut g = AsGraph::new();
        g.add_provider_customer(Asn(1), Asn(2)).unwrap();
        let mut e = Engine::new(g, SimConfig::instantaneous(), 1);
        let p = Prefix::from_str("10.0.0.0/24").unwrap();
        e.announce(Asn(2), p);
        e.run_to_quiescence(10_000);
        let view = EngineView(&e);
        assert!(view.best_route(Asn(1), p).is_some());
        assert_eq!(view.loc_rib(Asn(1)).len(), 1);
        assert!(view.best_route(Asn(99), p).is_none());
    }
}

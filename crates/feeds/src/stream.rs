//! Push-based live streams: the RIS-live and BGPmon flavours.

use crate::event::{FeedEvent, FeedKind};
use crate::source::{FeedSource, RibView};
use artemis_bgp::Asn;
use artemis_bgpsim::RouteChange;
use artemis_simnet::{LatencyModel, SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A streaming collector network (RIS-live or BGPmon flavour).
///
/// Each named collector peers with a set of vantage ASes. When a
/// vantage AS's best route changes, the collector receives the update
/// on its session and the streaming pipeline delivers it to
/// subscribers after `export_delay`.
pub struct StreamFeed {
    kind: FeedKind,
    name: String,
    /// collector name -> peers; each name is shared by the events
    /// its sessions produce
    collectors: BTreeMap<Arc<str>, Vec<Asn>>,
    export_delay: LatencyModel,
    /// Events dropped by an (optional) outage window.
    outage: Option<(SimTime, SimTime)>,
    emitted: u64,
    /// Observations swallowed by the outage window (one per vantage
    /// session that would have produced an event).
    dropped: u64,
}

/// One shared handle per collector name, made once at construction.
fn shared_names(collectors: BTreeMap<String, Vec<Asn>>) -> BTreeMap<Arc<str>, Vec<Asn>> {
    collectors
        .into_iter()
        .map(|(name, peers)| (name.into(), peers))
        .collect()
}

impl StreamFeed {
    /// A RIS-live flavoured stream. `export_delay` defaults to a
    /// lognormal with median 8 s (σ = 0.6) — a live pipeline that is
    /// usually seconds but occasionally tens of seconds, matching the
    /// 2016-era RIS streaming service the paper used.
    pub fn ris_live(collectors: BTreeMap<String, Vec<Asn>>) -> Self {
        StreamFeed {
            kind: FeedKind::RisLive,
            name: "ris-live".into(),
            collectors: shared_names(collectors),
            export_delay: LatencyModel::LogNormal {
                median: SimDuration::from_secs(8),
                sigma: 0.6,
            },
            outage: None,
            emitted: 0,
            dropped: 0,
        }
    }

    /// A BGPmon flavoured stream (independent peer set, slightly slower
    /// pipeline: lognormal median 15 s).
    pub fn bgpmon(collectors: BTreeMap<String, Vec<Asn>>) -> Self {
        StreamFeed {
            kind: FeedKind::BgpMon,
            name: "bgpmon".into(),
            collectors: shared_names(collectors),
            export_delay: LatencyModel::LogNormal {
                median: SimDuration::from_secs(15),
                sigma: 0.5,
            },
            outage: None,
            emitted: 0,
            dropped: 0,
        }
    }

    /// Override the export-delay model.
    pub fn with_export_delay(mut self, model: LatencyModel) -> Self {
        self.export_delay = model;
        self
    }

    /// Simulate a feed outage: events observed within `[from, to)` are
    /// lost (never delivered). Used by fault-injection tests.
    pub fn with_outage(mut self, from: SimTime, to: SimTime) -> Self {
        self.outage = Some((from, to));
        self
    }

    /// Vantage ASes across all collectors (deduplicated).
    pub fn vantage_points(&self) -> Vec<Asn> {
        let mut v: Vec<Asn> = self.collectors.values().flatten().copied().collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Render the RIS-live JSON payload for an event (schema mirrors
    /// the real `ris_message` envelope).
    fn render_raw(&self, ev: &FeedEvent) -> Option<String> {
        if self.kind != FeedKind::RisLive {
            return None;
        }
        let path: Vec<u32> = ev
            .as_path
            .as_ref()
            .map(|p| p.iter().map(|a| a.value()).collect())
            .unwrap_or_default();
        let msg = serde_json::json!({
            "type": "ris_message",
            "data": {
                "timestamp": ev.emitted_at.as_secs_f64(),
                "host": ev.collector,
                "peer_asn": ev.vantage.value().to_string(),
                "type": "UPDATE",
                "path": path,
                "announcements": if ev.as_path.is_some() {
                    serde_json::json!([{ "prefixes": [ev.prefix.to_string()] }])
                } else {
                    serde_json::json!([])
                },
                "withdrawals": if ev.as_path.is_none() {
                    serde_json::json!([ev.prefix.to_string()])
                } else {
                    serde_json::json!([])
                },
            }
        });
        Some(msg.to_string())
    }
}

impl FeedSource for StreamFeed {
    fn kind(&self) -> FeedKind {
        self.kind
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn on_route_change_into(
        &mut self,
        change: &RouteChange,
        rng: &mut SimRng,
        out: &mut Vec<FeedEvent>,
    ) {
        if let Some((from, to)) = self.outage {
            if change.time >= from && change.time < to {
                // Count what the outage swallowed: one observation per
                // vantage session that would have produced an event.
                self.dropped += self
                    .collectors
                    .values()
                    .filter(|peers| peers.contains(&change.asn))
                    .count() as u64;
                return;
            }
        }
        for (collector, peers) in &self.collectors {
            if !peers.contains(&change.asn) {
                continue;
            }
            let delay = self.export_delay.sample(rng);
            let (as_path, origin_as) = match &change.new {
                Some(best) => (Some(best.as_path.prepend(change.asn)), Some(best.origin_as)),
                None => (None, None),
            };
            let mut ev = FeedEvent {
                emitted_at: change.time + delay,
                observed_at: change.time,
                source: self.kind,
                collector: collector.clone(),
                vantage: change.asn,
                prefix: change.prefix,
                as_path,
                origin_as,
                raw: None,
            };
            ev.raw = self.render_raw(&ev);
            out.push(ev);
            self.emitted += 1;
        }
    }

    fn next_poll(&self, _now: SimTime) -> Option<SimTime> {
        None // purely push-based
    }

    fn poll(&mut self, _at: SimTime, _view: &dyn RibView, _rng: &mut SimRng) -> Vec<FeedEvent> {
        Vec::new()
    }

    fn events_emitted(&self) -> u64 {
        self.emitted
    }

    fn dropped_events(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_bgp::AsPath;
    use artemis_bgpsim::BestRoute;
    use std::str::FromStr;

    fn change(asn: u32, t: u64) -> RouteChange {
        RouteChange {
            time: SimTime::from_secs(t),
            asn: Asn(asn),
            prefix: artemis_bgp::Prefix::from_str("10.0.0.0/23").unwrap(),
            old: None,
            new: Some(BestRoute {
                as_path: AsPath::from_sequence([3356u32, 65001]),
                origin_as: Asn(65001),
                neighbor: Some(Asn(3356)),
                learned_from: Some(artemis_topology::RelKind::Provider),
                local_pref: 100,
            }),
        }
    }

    fn collectors() -> BTreeMap<String, Vec<Asn>> {
        let mut m = BTreeMap::new();
        m.insert("rrc00".to_string(), vec![Asn(174), Asn(3356)]);
        m.insert("rrc01".to_string(), vec![Asn(174), Asn(2914)]);
        m
    }

    #[test]
    fn only_vantage_changes_produce_events() {
        let mut feed = StreamFeed::ris_live(collectors());
        let mut rng = SimRng::new(1);
        assert!(feed.on_route_change(&change(9999, 10), &mut rng).is_empty());
        let evs = feed.on_route_change(&change(174, 10), &mut rng);
        assert_eq!(evs.len(), 2, "AS174 peers with both collectors");
        assert_eq!(feed.events_emitted(), 2);
    }

    #[test]
    fn events_carry_prepended_path_and_delay() {
        let mut feed =
            StreamFeed::ris_live(collectors()).with_export_delay(LatencyModel::const_secs(5));
        let mut rng = SimRng::new(1);
        let evs = feed.on_route_change(&change(3356, 100), &mut rng);
        assert_eq!(evs.len(), 1);
        let ev = &evs[0];
        assert_eq!(ev.emitted_at, SimTime::from_secs(105));
        assert_eq!(ev.observed_at, SimTime::from_secs(100));
        assert_eq!(
            ev.as_path.as_ref().unwrap().to_string(),
            "3356 3356 65001",
            "vantage AS must be prepended"
        );
        assert_eq!(ev.origin_as, Some(Asn(65001)));
    }

    #[test]
    fn ris_raw_payload_is_valid_json() {
        let mut feed = StreamFeed::ris_live(collectors());
        let mut rng = SimRng::new(1);
        let evs = feed.on_route_change(&change(174, 1), &mut rng);
        let raw = evs[0].raw.as_ref().expect("ris-live has raw payload");
        let v: serde_json::Value = serde_json::from_str(raw).unwrap();
        assert_eq!(v["type"], "ris_message");
        assert_eq!(v["data"]["peer_asn"], "174");
        assert_eq!(v["data"]["announcements"][0]["prefixes"][0], "10.0.0.0/23");
    }

    #[test]
    fn bgpmon_has_no_raw_payload() {
        let mut feed = StreamFeed::bgpmon(collectors());
        let mut rng = SimRng::new(1);
        let evs = feed.on_route_change(&change(174, 1), &mut rng);
        assert!(evs[0].raw.is_none());
        assert_eq!(evs[0].source, FeedKind::BgpMon);
    }

    #[test]
    fn withdrawals_map_to_pathless_events() {
        let mut feed = StreamFeed::ris_live(collectors());
        let mut rng = SimRng::new(1);
        let mut c = change(174, 1);
        c.new = None;
        let evs = feed.on_route_change(&c, &mut rng);
        assert!(evs[0].is_withdrawal());
        let raw: serde_json::Value = serde_json::from_str(evs[0].raw.as_ref().unwrap()).unwrap();
        assert_eq!(raw["data"]["withdrawals"][0], "10.0.0.0/23");
    }

    #[test]
    fn outage_swallows_events() {
        let mut feed = StreamFeed::ris_live(collectors())
            .with_outage(SimTime::from_secs(5), SimTime::from_secs(15));
        let mut rng = SimRng::new(1);
        assert!(feed.on_route_change(&change(174, 10), &mut rng).is_empty());
        assert!(!feed.on_route_change(&change(174, 20), &mut rng).is_empty());
    }

    #[test]
    fn outage_boundaries_are_exact() {
        // Window is [from, to): the first instant is dark, the end
        // instant is already live again.
        let from = SimTime::from_secs(5);
        let to = SimTime::from_secs(15);
        let mut feed = StreamFeed::ris_live(collectors()).with_outage(from, to);
        let mut rng = SimRng::new(1);
        assert!(
            !feed.on_route_change(&change(174, 4), &mut rng).is_empty(),
            "instant before the window is delivered"
        );
        assert!(
            feed.on_route_change(&change(174, 5), &mut rng).is_empty(),
            "window start is inclusive: dropped"
        );
        assert!(
            feed.on_route_change(&change(174, 14), &mut rng).is_empty(),
            "interior instant is dropped"
        );
        assert!(
            !feed.on_route_change(&change(174, 15), &mut rng).is_empty(),
            "window end is exclusive: delivered"
        );
    }

    #[test]
    fn outage_accounting_matches_delivered_events() {
        let mut feed = StreamFeed::ris_live(collectors())
            .with_outage(SimTime::from_secs(10), SimTime::from_secs(20));
        let mut rng = SimRng::new(1);
        // AS174 peers with both collectors (2 events per change), AS3356
        // with one. Outside: t=5 (2) and t=25 (1). Inside: t=12 (2) and
        // t=15 (1).
        let mut delivered = 0;
        for (asn, t) in [(174, 5), (174, 12), (3356, 15), (3356, 25)] {
            delivered += feed.on_route_change(&change(asn, t), &mut rng).len();
        }
        assert_eq!(delivered, 3);
        assert_eq!(
            feed.events_emitted(),
            3,
            "emitted counts only delivered events"
        );
        assert_eq!(
            feed.dropped_events(),
            3,
            "dropped counts per swallowed vantage session"
        );
        // A non-vantage change during the outage is not an outage drop —
        // no session would have produced an event.
        assert!(feed.on_route_change(&change(9999, 12), &mut rng).is_empty());
        assert_eq!(feed.dropped_events(), 3);
    }

    #[test]
    fn vantage_points_deduplicated() {
        let feed = StreamFeed::ris_live(collectors());
        assert_eq!(feed.vantage_points(), vec![Asn(174), Asn(2914), Asn(3356)]);
    }
}

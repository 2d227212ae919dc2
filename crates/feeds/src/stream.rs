//! Push-based live streams: the RIS-live and BGPmon flavours.

use crate::event::{FeedEvent, FeedKind};
use crate::source::{FeedSource, RibView};
use artemis_bgp::{AsPath, Asn, RouteChange};
use artemis_simnet::{LatencyModel, SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;

/// A streaming collector network (RIS-live or BGPmon flavour).
///
/// Each named collector peers with a set of vantage ASes. When a
/// vantage AS's best route changes, the collector receives the update
/// on its session and the streaming pipeline delivers it to
/// subscribers after `export_delay`.
pub struct StreamFeed {
    kind: FeedKind,
    name: String,
    /// collector name -> peers
    collectors: BTreeMap<String, Vec<Asn>>,
    export_delay: LatencyModel,
    emitted: u64,
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
            collectors,
            export_delay: LatencyModel::LogNormal {
                median: SimDuration::from_secs(8),
                sigma: 0.6,
            },
            emitted: 0,
        }
    }

    /// A BGPmon flavoured stream (independent peer set, slightly slower
    /// pipeline: lognormal median 15 s).
    pub fn bgpmon(collectors: BTreeMap<String, Vec<Asn>>) -> Self {
        StreamFeed {
            kind: FeedKind::BgpMon,
            name: "bgpmon".into(),
            collectors,
            export_delay: LatencyModel::LogNormal {
                median: SimDuration::from_secs(15),
                sigma: 0.5,
            },
            emitted: 0,
        }
    }

    /// Override the export-delay model.
    pub fn with_export_delay(mut self, model: LatencyModel) -> Self {
        self.export_delay = model;
        self
    }

    /// Vantage ASes across all collectors (deduplicated).
    pub fn vantage_points(&self) -> Vec<Asn> {
        let mut v: Vec<Asn> = self.collectors.values().flatten().copied().collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Render the RIS-live JSON payload for an event that `collector`
    /// saw along `as_path` (schema mirrors the real `ris_message`
    /// envelope).
    fn render_raw(
        &self,
        collector: &str,
        as_path: Option<&AsPath>,
        ev: &FeedEvent,
    ) -> Option<String> {
        if self.kind != FeedKind::RisLive {
            return None;
        }
        let path: Vec<u32> = as_path
            .map(|p| p.iter().map(|a| a.value()).collect())
            .unwrap_or_default();
        let msg = serde_json::json!({
            "type": "ris_message",
            "data": {
                "timestamp": ev.emitted_at.as_secs_f64(),
                "host": collector,
                "peer_asn": ev.vantage.value().to_string(),
                "type": "UPDATE",
                "path": path,
                "announcements": if as_path.is_some() {
                    serde_json::json!([{ "prefixes": [ev.prefix.to_string()] }])
                } else {
                    serde_json::json!([])
                },
                "withdrawals": if as_path.is_none() {
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
        for (collector, peers) in &self.collectors {
            if !peers.contains(&change.asn) {
                continue;
            }
            let delay = self.export_delay.sample(rng);
            let (as_path, origin_as) = match &change.new {
                Some(best) => (Some(best.as_path.prepend(change.asn)), Some(best.origin_as)),
                None => (None, None),
            };
            let mut ev = FeedEvent::new(
                change.time + delay,
                change.time,
                self.kind,
                change.asn,
                change.prefix,
                as_path.as_ref(),
                origin_as,
            );
            ev.raw = self.render_raw(collector, as_path.as_ref(), &ev);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Reach;
    use artemis_bgp::BestRoute;
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
                learned_from: Some(artemis_bgp::RelKind::Provider),
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
        let raw: serde_json::Value = serde_json::from_str(ev.raw.as_ref().unwrap()).unwrap();
        assert_eq!(
            raw["data"]["path"],
            serde_json::json!([3356, 3356, 65001]),
            "vantage AS must be prepended"
        );
        assert_eq!(
            ev.reach,
            Reach::Announced {
                origin_neighbor: Some(Asn(3356))
            }
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
    fn vantage_points_deduplicated() {
        let feed = StreamFeed::ris_live(collectors());
        assert_eq!(feed.vantage_points(), vec![Asn(174), Asn(2914), Asn(3356)]);
    }
}

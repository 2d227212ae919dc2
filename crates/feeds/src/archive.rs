//! The slow baseline pipelines: batched update archives and periodic
//! full-RIB dumps (RouteViews / RIPE RIS style).
//!
//! These are what made pre-ARTEMIS detection slow (paper §1, claim C5):
//! an update only becomes visible when its 15-minute batch is
//! published; a RIB-based detector sees state only every ~2 hours.
//! Both feeds also write genuine MRT bytes ([`artemis_mrt`]) so the
//! ingestion path of the baseline detectors is format-faithful.

use crate::event::{FeedEvent, FeedKind};
use crate::source::{FeedSource, RibView};
use artemis_bgp::{AsPath, Asn, PathAttributes, Prefix, RouteChange, UpdateMessage};
use artemis_mrt::{
    Bgp4mpMessage, MrtRecord, MrtWriter, PeerEntry, PeerIndexTable, RibEntry, RibRecord,
};
use artemis_simnet::{SimDuration, SimRng, SimTime};
use std::net::Ipv4Addr;

/// Batched update archive: updates observed at vantage points become
/// visible at the end of their batch window plus a publish delay.
pub struct ArchiveUpdatesFeed {
    name: String,
    peers: Vec<Asn>,
    /// Batch window (paper: 15 minutes).
    pub batch_period: SimDuration,
    /// Additional processing/publishing delay after the window closes.
    pub publish_delay: SimDuration,
    emitted: u64,
    mrt: MrtWriter,
    mrt_records: u64,
}

impl ArchiveUpdatesFeed {
    /// RouteViews-style: 15-minute batches, 60 s publish delay.
    pub fn route_views(peers: Vec<Asn>) -> Self {
        ArchiveUpdatesFeed {
            name: "archive-updates".into(),
            peers,
            batch_period: SimDuration::from_mins(15),
            publish_delay: SimDuration::from_secs(60),
            emitted: 0,
            mrt: MrtWriter::new(),
            mrt_records: 0,
        }
    }

    /// The MRT bytes accumulated so far (BGP4MP records).
    pub fn mrt_bytes(&self) -> &[u8] {
        self.mrt.as_bytes()
    }

    /// Number of MRT records written.
    pub fn mrt_records(&self) -> u64 {
        self.mrt_records
    }
}

/// The instant an observation made at `observed` becomes visible
/// through an archive pipeline that closes a batch every `period` and
/// publishes it `publish` later. A zero period publishes each
/// observation on its own, `publish` after it.
pub fn batch_end(observed: SimTime, period: SimDuration, publish: SimDuration) -> SimTime {
    if period == SimDuration::ZERO {
        return observed + publish;
    }
    let period = period.as_micros();
    SimTime::from_micros((observed.as_micros() / period + 1) * period) + publish
}

impl FeedSource for ArchiveUpdatesFeed {
    fn kind(&self) -> FeedKind {
        FeedKind::ArchiveUpdates
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn on_route_change_into(
        &mut self,
        change: &RouteChange,
        _rng: &mut SimRng,
        out: &mut Vec<FeedEvent>,
    ) {
        if !self.peers.contains(&change.asn) {
            return;
        }
        let visible = batch_end(change.time, self.batch_period, self.publish_delay);
        let (as_path, origin_as) = match &change.new {
            Some(best) => (Some(best.as_path.prepend(change.asn)), Some(best.origin_as)),
            None => (None, None),
        };
        // Write the genuine MRT record for this observation.
        let message = match (&as_path, &change.new) {
            (Some(path), Some(_)) => {
                let attrs = PathAttributes::with_path(
                    path.clone(),
                    std::net::IpAddr::V4(Ipv4Addr::from(change.asn.value())),
                );
                artemis_bgp::BgpMessage::Update(UpdateMessage::announce(attrs, vec![change.prefix]))
            }
            _ => artemis_bgp::BgpMessage::Update(UpdateMessage::withdraw(vec![change.prefix])),
        };
        let rec = MrtRecord::Bgp4mp {
            timestamp: change.time.as_micros().checked_div(1_000_000).unwrap_or(0) as u32,
            microseconds: Some((change.time.as_micros() % 1_000_000) as u32),
            message: Bgp4mpMessage {
                peer_as: change.asn,
                local_as: Asn(64_999),
                peer_ip: std::net::IpAddr::V4(Ipv4Addr::from(change.asn.value())),
                local_ip: std::net::IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1)),
                message,
            },
        };
        if self.mrt.write(&rec).is_ok() {
            self.mrt_records += 1;
        }
        self.emitted += 1;
        out.push(FeedEvent::new(
            visible,
            change.time,
            FeedKind::ArchiveUpdates,
            change.asn,
            change.prefix,
            as_path.as_ref(),
            origin_as,
        ));
    }

    fn next_poll(&self, _now: SimTime) -> Option<SimTime> {
        None
    }

    fn poll(&mut self, _at: SimTime, _view: &dyn RibView, _rng: &mut SimRng) -> Vec<FeedEvent> {
        Vec::new()
    }

    fn events_emitted(&self) -> u64 {
        self.emitted
    }

    fn archive_bytes(&self) -> Option<&[u8]> {
        Some(self.mrt_bytes())
    }
}

/// Periodic full-RIB snapshots: the slowest baseline (paper: ~2 h).
pub struct ArchiveRibFeed {
    name: String,
    peers: Vec<Asn>,
    /// Snapshot period (paper: 2 hours).
    pub rib_period: SimDuration,
    /// Publish delay after the snapshot instant.
    pub publish_delay: SimDuration,
    next_dump: SimTime,
    monitored: Vec<Prefix>,
    emitted: u64,
    dumps_taken: u64,
    last_dump_mrt: Vec<u8>,
}

impl ArchiveRibFeed {
    /// RouteViews-style: 2-hour RIBs, 5-minute publish delay. The
    /// first dump happens one period in (a fresh hijack always waits).
    pub fn route_views(peers: Vec<Asn>, monitored: Vec<Prefix>) -> Self {
        let period = SimDuration::from_mins(120);
        ArchiveRibFeed {
            name: "archive-rib".into(),
            peers,
            rib_period: period,
            publish_delay: SimDuration::from_mins(5),
            next_dump: SimTime::ZERO + period,
            monitored,
            emitted: 0,
            dumps_taken: 0,
            last_dump_mrt: Vec::new(),
        }
    }

    /// Override the snapshot period (first dump moves accordingly).
    pub fn with_period(mut self, period: SimDuration) -> Self {
        self.rib_period = period;
        self.next_dump = SimTime::ZERO + period;
        self
    }

    /// MRT bytes of the most recent dump (TABLE_DUMP_V2).
    pub fn last_dump_mrt(&self) -> &[u8] {
        &self.last_dump_mrt
    }

    /// Number of snapshots taken.
    pub fn dumps_taken(&self) -> u64 {
        self.dumps_taken
    }
}

impl FeedSource for ArchiveRibFeed {
    fn kind(&self) -> FeedKind {
        FeedKind::ArchiveRib
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn on_route_change_into(
        &mut self,
        _change: &RouteChange,
        _rng: &mut SimRng,
        _out: &mut Vec<FeedEvent>,
    ) {
        // snapshot-based
    }

    fn next_poll(&self, now: SimTime) -> Option<SimTime> {
        Some(self.next_dump.max(now))
    }

    fn poll(&mut self, at: SimTime, view: &dyn RibView, _rng: &mut SimRng) -> Vec<FeedEvent> {
        if at < self.next_dump {
            return Vec::new();
        }
        self.next_dump = at + self.rib_period;
        self.dumps_taken += 1;
        let visible = at + self.publish_delay;
        let mut out = Vec::new();

        // Build the MRT dump alongside the events.
        let mut writer = MrtWriter::new();
        let table = PeerIndexTable {
            collector_id: Ipv4Addr::new(198, 51, 100, 1),
            view_name: "artemis-sim".into(),
            peers: self
                .peers
                .iter()
                .map(|a| PeerEntry {
                    bgp_id: Ipv4Addr::from(a.value()),
                    addr: std::net::IpAddr::V4(Ipv4Addr::from(a.value())),
                    asn: *a,
                })
                .collect(),
        };
        let ts = (at.as_micros() / 1_000_000) as u32;
        let _ = writer.write(&MrtRecord::PeerIndex {
            timestamp: ts,
            table,
        });

        let mut seq = 0u32;
        for (peer_idx, peer) in self.peers.iter().enumerate() {
            for (prefix, best) in view.loc_rib(*peer) {
                let relevant = self
                    .monitored
                    .iter()
                    .any(|m| m.contains(prefix) || prefix.contains(*m));
                if !relevant {
                    continue;
                }
                let path: AsPath = best.as_path.prepend(*peer);
                let attrs = PathAttributes::with_path(
                    path.clone(),
                    std::net::IpAddr::V4(Ipv4Addr::from(peer.value())),
                );
                let _ = writer.write(&MrtRecord::Rib {
                    timestamp: ts,
                    rib: RibRecord {
                        sequence: seq,
                        prefix,
                        entries: vec![RibEntry {
                            peer_index: peer_idx as u16,
                            originated_time: ts,
                            attrs,
                        }],
                    },
                });
                seq += 1;
                out.push(FeedEvent::new(
                    visible,
                    at,
                    FeedKind::ArchiveRib,
                    *peer,
                    prefix,
                    Some(&path),
                    Some(best.origin_as),
                ));
            }
        }
        self.last_dump_mrt = writer.into_bytes();
        self.emitted += out.len() as u64;
        out
    }

    fn events_emitted(&self) -> u64 {
        self.emitted
    }

    fn archive_bytes(&self) -> Option<&[u8]> {
        Some(self.last_dump_mrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_bgp::BestRoute;
    use artemis_mrt::MrtReader;
    use std::collections::BTreeMap;
    use std::str::FromStr;

    fn pfx(s: &str) -> Prefix {
        Prefix::from_str(s).unwrap()
    }

    fn change(asn: u32, t_secs: u64, origin: u32) -> RouteChange {
        RouteChange {
            time: SimTime::from_secs(t_secs),
            asn: Asn(asn),
            prefix: pfx("10.0.0.0/23"),
            old: None,
            new: Some(BestRoute {
                as_path: AsPath::from_sequence([3356u32, origin]),
                origin_as: Asn(origin),
                neighbor: Some(Asn(3356)),
                learned_from: Some(artemis_bgp::RelKind::Provider),
                local_pref: 100,
            }),
        }
    }

    #[test]
    fn updates_become_visible_at_batch_end() {
        let mut feed = ArchiveUpdatesFeed::route_views(vec![Asn(174)]);
        let mut rng = SimRng::new(1);
        // Observed at t=100s; 15-min batch ends at 900s; +60s publish.
        let evs = feed.on_route_change(&change(174, 100, 65001), &mut rng);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].emitted_at, SimTime::from_secs(960));
        // Observed at t=901s -> next batch at 1800s (+60s).
        let evs = feed.on_route_change(&change(174, 901, 65001), &mut rng);
        assert_eq!(evs[0].emitted_at, SimTime::from_secs(1_860));
    }

    #[test]
    fn non_peer_changes_ignored() {
        let mut feed = ArchiveUpdatesFeed::route_views(vec![Asn(174)]);
        let mut rng = SimRng::new(1);
        assert!(feed
            .on_route_change(&change(999, 1, 2), &mut rng)
            .is_empty());
    }

    #[test]
    fn updates_feed_writes_parsable_mrt() {
        let mut feed = ArchiveUpdatesFeed::route_views(vec![Asn(174)]);
        let mut rng = SimRng::new(1);
        feed.on_route_change(&change(174, 100, 65001), &mut rng);
        let mut c = change(174, 101, 65001);
        c.new = None; // withdrawal
        feed.on_route_change(&c, &mut rng);
        let records = MrtReader::new(feed.mrt_bytes())
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(feed.mrt_records(), 2);
        match &records[0] {
            MrtRecord::Bgp4mp { message, .. } => {
                assert_eq!(message.peer_as, Asn(174));
            }
            other => panic!("unexpected record {other:?}"),
        }
    }

    struct FakeView {
        ribs: BTreeMap<Asn, Vec<(Prefix, BestRoute)>>,
    }
    impl RibView for FakeView {
        fn best_route(&self, asn: Asn, prefix: Prefix) -> Option<BestRoute> {
            self.ribs
                .get(&asn)?
                .iter()
                .find(|(p, _)| *p == prefix)
                .map(|(_, b)| b.clone())
        }
        fn loc_rib(&self, asn: Asn) -> Vec<(Prefix, BestRoute)> {
            self.ribs.get(&asn).cloned().unwrap_or_default()
        }
    }

    fn fake_view() -> FakeView {
        let mut ribs = BTreeMap::new();
        ribs.insert(
            Asn(174),
            vec![
                (
                    pfx("10.0.0.0/23"),
                    BestRoute {
                        as_path: AsPath::from_sequence([3356u32, 666]),
                        origin_as: Asn(666),
                        neighbor: Some(Asn(3356)),
                        learned_from: Some(artemis_bgp::RelKind::Provider),
                        local_pref: 100,
                    },
                ),
                (
                    pfx("203.0.113.0/24"),
                    BestRoute {
                        as_path: AsPath::from_sequence([2914u32, 65009]),
                        origin_as: Asn(65009),
                        neighbor: Some(Asn(2914)),
                        learned_from: Some(artemis_bgp::RelKind::Peer),
                        local_pref: 200,
                    },
                ),
            ],
        );
        FakeView { ribs }
    }

    #[test]
    fn rib_feed_dumps_on_schedule() {
        let mut feed = ArchiveRibFeed::route_views(vec![Asn(174)], vec![pfx("10.0.0.0/23")]);
        let mut rng = SimRng::new(1);
        let first = feed.next_poll(SimTime::ZERO).unwrap();
        assert_eq!(first, SimTime::ZERO + SimDuration::from_mins(120));
        let evs = feed.poll(first, &fake_view(), &mut rng);
        assert_eq!(evs.len(), 1, "only the monitored prefix is relevant");
        assert_eq!(evs[0].origin_as, Some(Asn(666)));
        assert_eq!(
            evs[0].emitted_at,
            first + SimDuration::from_mins(5),
            "publish delay applies"
        );
        assert_eq!(feed.dumps_taken(), 1);
        // Next dump two hours later.
        assert_eq!(
            feed.next_poll(first).unwrap(),
            first + SimDuration::from_mins(120)
        );
    }

    #[test]
    fn rib_dump_mrt_is_parsable() {
        let mut feed = ArchiveRibFeed::route_views(vec![Asn(174)], vec![pfx("10.0.0.0/23")]);
        let mut rng = SimRng::new(1);
        let at = feed.next_poll(SimTime::ZERO).unwrap();
        feed.poll(at, &fake_view(), &mut rng);
        let records = MrtReader::new(feed.last_dump_mrt())
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        assert!(matches!(records[0], MrtRecord::PeerIndex { .. }));
        assert!(
            matches!(&records[1], MrtRecord::Rib { rib, .. } if rib.prefix == pfx("10.0.0.0/23"))
        );
    }

    #[test]
    fn early_poll_is_a_noop() {
        let mut feed = ArchiveRibFeed::route_views(vec![Asn(174)], vec![pfx("10.0.0.0/23")]);
        let mut rng = SimRng::new(1);
        assert!(feed
            .poll(SimTime::from_secs(10), &fake_view(), &mut rng)
            .is_empty());
        assert_eq!(feed.dumps_taken(), 0);
    }

    #[test]
    fn with_period_override() {
        let feed =
            ArchiveRibFeed::route_views(vec![], vec![]).with_period(SimDuration::from_mins(10));
        assert_eq!(
            feed.next_poll(SimTime::ZERO).unwrap(),
            SimTime::ZERO + SimDuration::from_mins(10)
        );
    }
}

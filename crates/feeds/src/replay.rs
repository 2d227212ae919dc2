//! Replay of real MRT archive bytes into the detection pipeline.
//!
//! The write side ([`crate::ArchiveUpdatesFeed`], [`crate::ArchiveRibFeed`])
//! produces genuine RFC 6396 bytes; this module closes the loop by
//! parsing archives *back* into timestamped [`FeedEvent`]s, so the
//! full pipeline — detection, monitoring, mitigation — runs unchanged
//! on replayed RouteViews/RIS-style data.
//!
//! ARTEMIS's core latency argument (paper §1) is that these archives
//! are **slow**: an update only becomes visible when its 15-minute
//! batch is published, a RIB snapshot only every ~2 hours. The replay
//! feed makes that claim measurable end-to-end: every replayed event
//! carries the batch-delayed `emitted_at` the archive pipeline would
//! have produced, so detection instants on a replayed archive are the
//! paper's baseline numbers — minutes, not the seconds of the
//! streaming feeds.
//!
//! Parsing uses the zero-copy [`MrtScanner`] fast path and surfaces
//! per-record failures as [`MrtDiagnostic`]s instead of aborting: one
//! corrupt record in a multi-gigabyte archive costs one diagnostic,
//! not the whole replay.

use crate::archive::batch_end;
use crate::event::{FeedEvent, FeedKind};
use crate::source::{FeedSource, RibView};
use artemis_bgp::{Asn, BestRoute, BgpMessage, Prefix, RouteChange};
use artemis_mrt::{MrtDiagnostic, MrtError, MrtRecord, MrtScanner, PeerEntry, PeerIndexTable};
use artemis_simnet::{SimDuration, SimRng, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// Convert an MRT `(seconds, microseconds)` pair back into simulation
/// time (the writers store observation instants at full precision).
fn mrt_instant(timestamp: u32, microseconds: Option<u32>) -> SimTime {
    SimTime::from_micros(timestamp as u64 * 1_000_000 + microseconds.unwrap_or(0) as u64)
}

/// A `TABLE_DUMP_V2` snapshot loaded back from MRT bytes: the
/// bootstrap routing state a replay starts from, usable anywhere a
/// [`RibView`] is expected (pull feeds, forensics queries).
///
/// The snapshot resolves each RIB entry's vantage through the
/// `PEER_INDEX_TABLE`, and undoes the collector-session prepend (the
/// writers record the path *as exported to the collector*, i.e. with
/// the peer AS in front) to recover each peer's own Loc-RIB path.
pub struct MrtRibSnapshot {
    timestamp: SimTime,
    peers: Vec<PeerEntry>,
    ribs: BTreeMap<Asn, Vec<(Prefix, BestRoute)>>,
    diagnostics: Vec<MrtDiagnostic>,
    routes: usize,
}

impl MrtRibSnapshot {
    /// Load a snapshot from raw `TABLE_DUMP_V2` bytes. Records that
    /// fail to decode (or RIB entries referencing unknown peer
    /// indices) become [`MrtDiagnostic`]s; everything else loads.
    pub fn load(bytes: &[u8]) -> Self {
        let mut snap = MrtRibSnapshot {
            timestamp: SimTime::ZERO,
            peers: Vec::new(),
            ribs: BTreeMap::new(),
            diagnostics: Vec::new(),
            routes: 0,
        };
        let mut table: Option<PeerIndexTable> = None;
        let mut scanner = MrtScanner::new(bytes);
        loop {
            let raw = match scanner.next_raw() {
                Ok(Some(raw)) => raw,
                Ok(None) => break,
                Err(error) => {
                    // Header-level corruption: no boundary to resync to.
                    snap.diagnostics.push(MrtDiagnostic {
                        offset: scanner.offset(),
                        timestamp: 0,
                        mrt_type: 0,
                        subtype: 0,
                        error,
                    });
                    break;
                }
            };
            if !raw.is_table_dump() {
                continue; // interleaved update records: not snapshot state
            }
            match raw.decode() {
                Ok(MrtRecord::PeerIndex {
                    timestamp,
                    table: t,
                }) => {
                    snap.timestamp = mrt_instant(timestamp, None);
                    snap.peers = t.peers.clone();
                    table = Some(t);
                }
                Ok(MrtRecord::Rib { timestamp, rib }) => {
                    snap.timestamp = snap.timestamp.max(mrt_instant(timestamp, None));
                    let Some(table) = &table else {
                        snap.diagnostics.push(
                            raw.diagnostic(MrtError::Malformed(
                                "RIB record before PEER_INDEX_TABLE",
                            )),
                        );
                        continue;
                    };
                    for entry in &rib.entries {
                        let Some(peer) = table.peers.get(entry.peer_index as usize) else {
                            snap.diagnostics.push(raw.diagnostic(MrtError::Malformed(
                                "RIB entry peer index out of range",
                            )));
                            continue;
                        };
                        let vantage = peer.asn;
                        // Undo the collector-session prepend.
                        let exported = &entry.attrs.as_path;
                        let asns: Vec<Asn> = exported.iter().collect();
                        let loc_rib_path: Vec<Asn> = match asns.split_first() {
                            Some((first, rest)) if *first == vantage => rest.to_vec(),
                            _ => asns,
                        };
                        let Some(origin_as) = exported.origin() else {
                            snap.diagnostics.push(
                                raw.diagnostic(MrtError::Malformed("RIB entry with empty AS path")),
                            );
                            continue;
                        };
                        let best = BestRoute {
                            neighbor: loc_rib_path.first().copied(),
                            as_path: artemis_bgp::AsPath::from_sequence(
                                loc_rib_path.iter().map(|a| a.value()),
                            ),
                            origin_as,
                            learned_from: None, // relationships are not archived
                            local_pref: entry.attrs.effective_local_pref(),
                        };
                        snap.ribs
                            .entry(vantage)
                            .or_default()
                            .push((rib.prefix, best));
                        snap.routes += 1;
                    }
                }
                Ok(MrtRecord::Bgp4mp { .. }) => {}
                Err(error) => snap.diagnostics.push(raw.diagnostic(error)),
            }
        }
        snap
    }

    /// The snapshot instant (latest record timestamp).
    pub fn timestamp(&self) -> SimTime {
        self.timestamp
    }

    /// Peers from the `PEER_INDEX_TABLE`.
    pub fn peers(&self) -> &[PeerEntry] {
        &self.peers
    }

    /// Routes loaded across all peers.
    pub fn route_count(&self) -> usize {
        self.routes
    }

    /// Per-record load failures.
    pub fn diagnostics(&self) -> &[MrtDiagnostic] {
        &self.diagnostics
    }
}

impl RibView for MrtRibSnapshot {
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

/// Replays `BGP4MP` update records out of raw MRT bytes as a
/// [`FeedSource`].
///
/// Each record's observation instant is reconstructed from the MRT
/// timestamp (seconds + extended microseconds), its vantage from the
/// record's peer metadata, and its `emitted_at` from the configured
/// **batch window**: with [`MrtReplayFeed::route_views`] parameters a
/// route observed at *t* only reaches the detector at the end of its
/// 15-minute batch plus the publish delay — exactly the archive
/// latency the paper's §1 measurement shows dominating pre-ARTEMIS
/// detection. Replaying the same archive through a [`crate::FeedHub`]
/// therefore reproduces the original [`crate::ArchiveUpdatesFeed`]
/// detection timeline instant-for-instant (round-trip property,
/// verified in `crates/feeds/tests/mrt_replay.rs`).
///
/// With a zero batch window ([`MrtReplayFeed::from_mrt_bytes`]) the
/// feed replays at observation instants instead — the forensics mode:
/// "what would ARTEMIS have seen live?".
pub struct MrtReplayFeed {
    name: String,
    batch_period: SimDuration,
    publish_delay: SimDuration,
    /// Events in emission order, ready to be polled out.
    queue: VecDeque<FeedEvent>,
    diagnostics: Vec<MrtDiagnostic>,
    records_replayed: u64,
    records_skipped: u64,
    emitted: u64,
    polls: u64,
}

impl MrtReplayFeed {
    /// Replay `bytes` with **no** added archive latency: events are
    /// emitted at their recorded observation instants.
    pub fn from_mrt_bytes(bytes: &[u8]) -> Self {
        let mut feed = MrtReplayFeed {
            name: "mrt-replay".into(),
            batch_period: SimDuration::ZERO,
            publish_delay: SimDuration::ZERO,
            queue: VecDeque::new(),
            diagnostics: Vec::new(),
            records_replayed: 0,
            records_skipped: 0,
            emitted: 0,
            polls: 0,
        };
        feed.ingest_archive(bytes);
        feed.reschedule();
        feed
    }

    /// Replay with RouteViews-style latency: 15-minute batches plus a
    /// 60 s publish delay (the [`crate::ArchiveUpdatesFeed`] defaults,
    /// so a written archive round-trips onto its original timeline).
    pub fn route_views(bytes: &[u8]) -> Self {
        Self::from_mrt_bytes(bytes)
            .with_batch_window(SimDuration::from_mins(15), SimDuration::from_secs(60))
    }

    /// Override the batch window; every queued event's emission instant
    /// is recomputed from its observation instant.
    fn with_batch_window(mut self, period: SimDuration, publish_delay: SimDuration) -> Self {
        self.batch_period = period;
        self.publish_delay = publish_delay;
        self.reschedule();
        self
    }

    /// Prepend bootstrap state from a `TABLE_DUMP_V2` snapshot: every
    /// route in the snapshot becomes one event emitted at the snapshot
    /// instant, seeding detector and monitors with the pre-replay
    /// routing table before the first update record plays.
    pub fn with_rib_bootstrap(mut self, snapshot: &MrtRibSnapshot) -> Self {
        let at = snapshot.timestamp();
        // Iterate the per-ASN route map, not the peer rows: a real
        // PEER_INDEX_TABLE lists the same AS once per session (v4 and
        // v6), and per-row iteration would queue those routes twice.
        for (&vantage, routes) in &snapshot.ribs {
            for (prefix, best) in routes {
                self.queue.push_back(FeedEvent::new(
                    at,
                    at,
                    FeedKind::MrtReplay,
                    vantage,
                    *prefix,
                    Some(&best.as_path.prepend(vantage)),
                    Some(best.origin_as),
                ));
                self.records_replayed += 1;
            }
        }
        self.diagnostics.extend_from_slice(snapshot.diagnostics());
        self.sort_queue();
        self
    }

    /// Events parsed and still awaiting emission.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Records successfully replayed.
    pub fn records_replayed(&self) -> u64 {
        self.records_replayed
    }

    /// Records skipped over (see [`MrtReplayFeed::diagnostics`]).
    pub fn records_skipped(&self) -> u64 {
        self.records_skipped
    }

    /// Per-record parse failures encountered while ingesting.
    pub fn diagnostics(&self) -> &[MrtDiagnostic] {
        &self.diagnostics
    }

    /// Recompute every queued event's emission instant from its
    /// observation instant under the current batch window, then
    /// restore emission order.
    fn reschedule(&mut self) {
        let mut events = std::mem::take(&mut self.queue);
        for ev in &mut events {
            ev.emitted_at = batch_end(ev.observed_at, self.batch_period, self.publish_delay);
        }
        self.queue = events;
        self.sort_queue();
    }

    /// Stable-sort the queue by emission instant (ties keep archive
    /// order, matching the hub's ingestion-sequence tie-break).
    fn sort_queue(&mut self) {
        self.queue.make_contiguous().sort_by_key(|ev| ev.emitted_at);
    }

    /// Stream the archive through the zero-copy scanner, converting
    /// `BGP4MP` update records into feed events and collecting
    /// diagnostics for anything that fails to decode.
    fn ingest_archive(&mut self, bytes: &[u8]) {
        let mut scanner = MrtScanner::new(bytes);
        loop {
            let raw = match scanner.next_raw() {
                Ok(Some(raw)) => raw,
                Ok(None) => break,
                Err(error) => {
                    // Corrupt common header: no next boundary exists.
                    self.diagnostics.push(MrtDiagnostic {
                        offset: scanner.offset(),
                        timestamp: 0,
                        mrt_type: 0,
                        subtype: 0,
                        error,
                    });
                    self.records_skipped += 1;
                    break;
                }
            };
            if !raw.is_bgp4mp() {
                continue; // snapshot records: MrtRibSnapshot territory
            }
            let decoded = match raw.decode() {
                Ok(rec) => rec,
                Err(error) => {
                    self.diagnostics.push(raw.diagnostic(error));
                    self.records_skipped += 1;
                    continue;
                }
            };
            let MrtRecord::Bgp4mp {
                timestamp,
                microseconds,
                message,
            } = decoded
            else {
                continue;
            };
            let BgpMessage::Update(update) = &message.message else {
                self.records_replayed += 1; // OPEN/KEEPALIVE: no routes
                continue;
            };
            let observed = mrt_instant(timestamp, microseconds);
            for prefix in &update.withdrawn {
                self.queue.push_back(FeedEvent::new(
                    observed, // emission is scheduled later
                    observed,
                    FeedKind::MrtReplay,
                    message.peer_as,
                    *prefix,
                    None,
                    None,
                ));
            }
            if let Some(attrs) = &update.attrs {
                for prefix in &update.nlri {
                    self.queue.push_back(FeedEvent::new(
                        observed,
                        observed,
                        FeedKind::MrtReplay,
                        message.peer_as,
                        *prefix,
                        Some(&attrs.as_path),
                        None,
                    ));
                }
            }
            self.records_replayed += 1;
        }
    }
}

impl FeedSource for MrtReplayFeed {
    fn kind(&self) -> FeedKind {
        FeedKind::MrtReplay
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
        // Replay is archive-driven: live routing changes are ignored.
    }

    fn next_poll(&self, now: SimTime) -> Option<SimTime> {
        self.queue.front().map(|ev| ev.emitted_at.max(now))
    }

    fn poll(&mut self, at: SimTime, _view: &dyn RibView, _rng: &mut SimRng) -> Vec<FeedEvent> {
        let mut out = Vec::new();
        while self.queue.front().is_some_and(|ev| ev.emitted_at <= at) {
            out.push(self.queue.pop_front().expect("checked non-empty"));
        }
        if !out.is_empty() {
            self.polls += 1;
        }
        self.emitted += out.len() as u64;
        out
    }

    fn events_emitted(&self) -> u64 {
        self.emitted
    }

    fn polls_executed(&self) -> u64 {
        self.polls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::{ArchiveRibFeed, ArchiveUpdatesFeed};
    use crate::event::Reach;
    use artemis_bgp::AsPath;
    use artemis_bgp::RelKind;
    use std::str::FromStr;

    fn pfx(s: &str) -> Prefix {
        Prefix::from_str(s).unwrap()
    }

    fn change(asn: u32, t_micros: u64, origin: u32) -> RouteChange {
        RouteChange {
            time: SimTime::from_micros(t_micros),
            asn: Asn(asn),
            prefix: pfx("10.0.0.0/23"),
            old: None,
            new: Some(BestRoute {
                as_path: AsPath::from_sequence([3356u32, origin]),
                origin_as: Asn(origin),
                neighbor: Some(Asn(3356)),
                learned_from: Some(RelKind::Provider),
                local_pref: 100,
            }),
        }
    }

    fn archive_bytes(changes: &[RouteChange]) -> Vec<u8> {
        let mut feed = ArchiveUpdatesFeed::route_views(vec![Asn(174), Asn(2914)]);
        let mut rng = SimRng::new(1);
        for c in changes {
            feed.on_route_change(c, &mut rng);
        }
        feed.mrt_bytes().to_vec()
    }

    #[test]
    fn replay_reconstructs_observations_exactly() {
        let changes = [
            change(174, 100_000_123, 65001),
            change(2914, 250_500_000, 65001),
        ];
        let bytes = archive_bytes(&changes);
        let feed = MrtReplayFeed::from_mrt_bytes(&bytes);
        assert_eq!(feed.records_replayed(), 2);
        assert_eq!(feed.records_skipped(), 0);
        assert!(feed.diagnostics().is_empty());
        assert_eq!(feed.pending_events(), 2);

        let mut feed = feed;
        let mut rng = SimRng::new(9);
        let view = MrtRibSnapshot::load(&[]);
        let events = feed.poll(SimTime::from_secs(10_000), &view, &mut rng);
        assert_eq!(events.len(), 2);
        // Microsecond-precise observation instants survive the bytes.
        assert_eq!(events[0].observed_at, SimTime::from_micros(100_000_123));
        assert_eq!(events[0].vantage, Asn(174));
        assert_eq!(events[0].prefix, pfx("10.0.0.0/23"));
        assert_eq!(events[0].origin_as, Some(Asn(65001)));
        // Path as exported to the collector, reduced: 3356 is the
        // origin's neighbour.
        assert_eq!(
            events[0].reach,
            Reach::Announced {
                origin_neighbor: Some(Asn(3356))
            }
        );
        // Zero batch window: emission == observation.
        assert_eq!(events[0].emitted_at, events[0].observed_at);
    }

    #[test]
    fn route_views_window_matches_archive_feed_timeline() {
        // Same arithmetic as ArchiveUpdatesFeed::route_views: a route
        // observed at t=100 s lands at the 15-min batch end + 60 s.
        let changes = [change(174, 100_000_000, 65001)];
        let bytes = archive_bytes(&changes);
        let mut replay = MrtReplayFeed::route_views(&bytes);
        assert_eq!(
            replay.next_poll(SimTime::ZERO),
            Some(SimTime::from_secs(960))
        );
        let mut rng = SimRng::new(9);
        let view = MrtRibSnapshot::load(&[]);
        let events = replay.poll(SimTime::from_secs(960), &view, &mut rng);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].emitted_at, SimTime::from_secs(960));
        assert_eq!(events[0].observed_at, SimTime::from_secs(100));
    }

    #[test]
    fn withdrawals_replay_as_withdrawals() {
        let mut c = change(174, 50_000_000, 65001);
        c.new = None;
        let bytes = archive_bytes(&[c]);
        let mut replay = MrtReplayFeed::from_mrt_bytes(&bytes);
        let mut rng = SimRng::new(9);
        let view = MrtRibSnapshot::load(&[]);
        let events = replay.poll(SimTime::from_secs(10_000), &view, &mut rng);
        assert_eq!(events.len(), 1);
        assert!(events[0].is_withdrawal());
        assert_eq!(events[0].origin_as, None);
    }

    #[test]
    fn corrupt_record_becomes_diagnostic_not_abort() {
        let changes = [
            change(174, 10_000_000, 65001),
            change(174, 20_000_000, 65001),
            change(174, 30_000_000, 65001),
        ];
        let mut bytes = archive_bytes(&changes);
        let record_len = bytes.len() / 3;
        // Clobber the middle record's AFI field (12-byte header + 4 µs
        // field + 10 bytes into the BGP4MP body).
        bytes[record_len + 12 + 4 + 10] = 0xff;
        bytes[record_len + 12 + 4 + 11] = 0xff;
        let replay = MrtReplayFeed::from_mrt_bytes(&bytes);
        assert_eq!(replay.records_replayed(), 2);
        assert_eq!(replay.records_skipped(), 1);
        assert_eq!(replay.diagnostics().len(), 1);
        assert_eq!(replay.diagnostics()[0].offset, record_len);
        assert_eq!(replay.pending_events(), 2);
    }

    #[test]
    fn polls_drain_in_emission_order() {
        let changes = [
            change(174, 1_000_000_000, 65001), // second batch
            change(2914, 100_000_000, 65001),  // first batch
        ];
        let bytes = archive_bytes(&changes);
        let mut replay = MrtReplayFeed::route_views(&bytes);
        let mut rng = SimRng::new(9);
        let view = MrtRibSnapshot::load(&[]);
        let first_due = replay.next_poll(SimTime::ZERO).unwrap();
        let batch1 = replay.poll(first_due, &view, &mut rng);
        assert_eq!(batch1.len(), 1);
        assert_eq!(batch1[0].vantage, Asn(2914));
        let second_due = replay.next_poll(first_due).unwrap();
        assert!(second_due > first_due);
        let batch2 = replay.poll(second_due, &view, &mut rng);
        assert_eq!(batch2[0].vantage, Asn(174));
        assert_eq!(replay.events_emitted(), 2);
        assert_eq!(replay.polls_executed(), 2);
    }

    fn fake_view() -> impl RibView {
        struct V;
        impl RibView for V {
            fn best_route(&self, _asn: Asn, _prefix: Prefix) -> Option<BestRoute> {
                None
            }
            fn loc_rib(&self, asn: Asn) -> Vec<(Prefix, BestRoute)> {
                if asn == Asn(174) {
                    vec![(
                        pfx("10.0.0.0/23"),
                        BestRoute {
                            as_path: AsPath::from_sequence([3356u32, 65001]),
                            origin_as: Asn(65001),
                            neighbor: Some(Asn(3356)),
                            learned_from: Some(RelKind::Provider),
                            local_pref: 100,
                        },
                    )]
                } else {
                    Vec::new()
                }
            }
        }
        V
    }

    #[test]
    fn rib_snapshot_roundtrips_through_dump_bytes() {
        // Write a TABLE_DUMP_V2 via ArchiveRibFeed, load it back.
        let mut feed = ArchiveRibFeed::route_views(vec![Asn(174)], vec![pfx("10.0.0.0/23")]);
        let mut rng = SimRng::new(1);
        let at = feed.next_poll(SimTime::ZERO).unwrap();
        feed.poll(at, &fake_view(), &mut rng);
        let snap = MrtRibSnapshot::load(feed.last_dump_mrt());
        assert!(snap.diagnostics().is_empty());
        assert_eq!(snap.peers().len(), 1);
        assert_eq!(snap.route_count(), 1);
        assert_eq!(snap.timestamp(), at);
        // The collector prepend is undone: peer 174's Loc-RIB path is
        // the original [3356, 65001].
        let rib = snap.loc_rib(Asn(174));
        assert_eq!(rib.len(), 1);
        assert_eq!(rib[0].0, pfx("10.0.0.0/23"));
        assert_eq!(rib[0].1.as_path, AsPath::from_sequence([3356u32, 65001]));
        assert_eq!(rib[0].1.origin_as, Asn(65001));
        assert_eq!(rib[0].1.neighbor, Some(Asn(3356)));
        assert_eq!(
            snap.best_route(Asn(174), pfx("10.0.0.0/23"))
                .map(|b| b.origin_as),
            Some(Asn(65001))
        );
        assert!(snap.best_route(Asn(999), pfx("10.0.0.0/23")).is_none());
    }

    #[test]
    fn rib_bootstrap_dedupes_multi_session_peers() {
        // Regression: a real PEER_INDEX_TABLE lists the same AS once
        // per collector session (v4 + v6). The bootstrap must queue
        // each stored route once, not once per peer row.
        use artemis_mrt::{MrtRecord, MrtWriter, PeerEntry, PeerIndexTable, RibEntry, RibRecord};
        let mut w = MrtWriter::new();
        w.write(&MrtRecord::PeerIndex {
            timestamp: 50,
            table: PeerIndexTable {
                collector_id: "198.51.100.1".parse().unwrap(),
                view_name: "dual-stack".into(),
                peers: vec![
                    PeerEntry {
                        bgp_id: "10.0.0.1".parse().unwrap(),
                        addr: "192.0.2.10".parse().unwrap(),
                        asn: Asn(174),
                    },
                    PeerEntry {
                        bgp_id: "10.0.0.1".parse().unwrap(),
                        addr: "2001:db8::a".parse().unwrap(),
                        asn: Asn(174), // same AS, second session
                    },
                ],
            },
        })
        .unwrap();
        let attrs = artemis_bgp::PathAttributes::with_path(
            AsPath::from_sequence([174u32, 3356, 65001]),
            "192.0.2.1".parse().unwrap(),
        );
        w.write(&MrtRecord::Rib {
            timestamp: 50,
            rib: RibRecord {
                sequence: 0,
                prefix: pfx("10.0.0.0/23"),
                entries: vec![RibEntry {
                    peer_index: 0,
                    originated_time: 40,
                    attrs,
                }],
            },
        })
        .unwrap();
        let bytes = w.into_bytes();

        let snap = MrtRibSnapshot::load(&bytes);
        assert_eq!(snap.peers().len(), 2);
        assert_eq!(snap.route_count(), 1);
        let replay = MrtReplayFeed::from_mrt_bytes(&[]).with_rib_bootstrap(&snap);
        assert_eq!(
            replay.pending_events(),
            1,
            "one stored route must bootstrap exactly one event"
        );
        assert_eq!(replay.records_replayed(), 1);
    }

    #[test]
    fn rib_bootstrap_seeds_replay_queue() {
        let mut feed = ArchiveRibFeed::route_views(vec![Asn(174)], vec![pfx("10.0.0.0/23")]);
        let mut rng = SimRng::new(1);
        let at = feed.next_poll(SimTime::ZERO).unwrap();
        feed.poll(at, &fake_view(), &mut rng);
        let snap = MrtRibSnapshot::load(feed.last_dump_mrt());

        let mut replay = MrtReplayFeed::from_mrt_bytes(&[]).with_rib_bootstrap(&snap);
        assert_eq!(replay.pending_events(), 1);
        assert_eq!(replay.next_poll(SimTime::ZERO), Some(at));
        let view = MrtRibSnapshot::load(&[]);
        let events = replay.poll(at, &view, &mut rng);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].vantage, Asn(174));
        // Bootstrap events carry the collector-session path (vantage
        // prepended) reduced, like every other feed event.
        assert_eq!(
            (events[0].reach, events[0].origin_as),
            (
                Reach::Announced {
                    origin_neighbor: Some(Asn(3356))
                },
                Some(Asn(65001))
            )
        );
    }
}

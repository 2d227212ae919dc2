//! The monitoring service: per-vantage-point origin tracking.
//!
//! "In parallel to the mitigation, a monitoring service is running to
//! provide real-time information about the mitigation process." (§2)
//! The demo (§4) visualizes vantage points around the globe switching
//! between the legitimate and illegitimate origin — this module keeps
//! that state and declares the incident resolved when every vantage
//! point routes to a legitimate origin again.
//!
//! # Cost model
//!
//! The information the paper asks for is small: per vantage point the
//! *selected origin*, and over the population three counters. The
//! service keeps exactly that, incrementally:
//!
//! * the vantage population is fixed at construction, so it is a
//!   sorted `Vec<Asn>` with one slot per VP beside it; a slot holds
//!   the few routes that VP reported inside the monitored space, the
//!   index of the one longest-prefix match selects, and the
//!   `(state, origin)` that selection classifies to;
//! * an announcement of a prefix the VP already reports updates that
//!   route in place, a new prefix replaces the cached selection only
//!   when its `(length, prefix)` key beats the cached one, and a
//!   withdrawal rescans that one VP's routes only when it removed the
//!   selection;
//! * `legitimate` and `hijacked` are fields adjusted on each per-VP
//!   transition, so [`MonitorService::snapshot`] and
//!   [`MonitorService::all_legitimate`] read two integers;
//! * the timeline holds at most [`TIMELINE_CAP`] points. Below the cap
//!   every state change appends one; at the cap the newest point
//!   overwrites the last slot and `coalesced_points` counts it, so the
//!   head of the incident (hijack spread, mitigation onset) and its
//!   current state stay exact while a flapping incident's memory stays
//!   bounded. The rule depends only on the event sequence, never on
//!   how the stream was cut into batches;
//! * once the incident is over, [`MonitorService::retire`] frees the
//!   per-VP slots and the population list in place and keeps what
//!   reporting reads (population count, counters, timeline): one
//!   monitor type for every phase, costing a fixed-size record plus
//!   its timeline once retired, when it ingests and purges nothing.
//!
//! The previous implementation (nested `BTreeMap`s, a `max_by_key`
//! scan per read, a full population rescan per snapshot) lives on
//! under `#[cfg(test)]` as the linear model the property tests at the
//! bottom of this file compare every step against.

use crate::alert::AlertId;
use artemis_bgp::{Asn, FlatTrie, Prefix};
use artemis_feeds::FeedEvent;
use artemis_simnet::SimTime;
use std::collections::BTreeSet;

/// Most timeline points one incident keeps (4096 × 32 B = 128 KiB).
/// Past it the last slot tracks the newest point and
/// [`MonitorService::coalesced_points`] counts what it absorbed. Far
/// above anything an experiment binary, example or test records (the
/// longest timeline among them is under 128 points), so theirs are
/// complete.
pub const TIMELINE_CAP: usize = 4096;

/// What a vantage point currently selects for the monitored space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VpState {
    /// No route observed yet.
    Unknown,
    /// Routes to a legitimate origin.
    Legitimate,
    /// Routes to the offending origin.
    Hijacked,
}

/// A snapshot row of the monitoring timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelinePoint {
    /// When.
    pub time: SimTime,
    /// Vantage points currently on a legitimate origin.
    pub legitimate: usize,
    /// Vantage points currently on the offending origin.
    pub hijacked: usize,
    /// Vantage points with no information yet.
    pub unknown: usize,
}

/// One vantage point's view of the monitored space.
#[derive(Debug)]
struct VpSlot {
    /// Every route the VP currently reports inside the monitored space
    /// (covering or covered by the target), unordered. A handful at
    /// most: the owned prefix, the hijacker's more-specifics, the
    /// mitigation's de-aggregates.
    routes: Vec<(Prefix, Option<Asn>)>,
    /// Index into `routes` of the longest-prefix match — the maximum
    /// by `(length, prefix)`. Meaningless while `routes` is empty.
    selected: usize,
    /// What the selection classifies to; `(Unknown, None)` while
    /// `routes` is empty.
    observation: (VpState, Option<Asn>),
}

/// Selection order within one VP: longest prefix first, and of two
/// equal-length more-specifics the greater in `Prefix` order.
fn selection_key(prefix: Prefix) -> (u8, Prefix) {
    (prefix.len(), prefix)
}

/// Tracks, per vantage point, the origin selected for a monitored
/// prefix (longest-prefix-match over everything that VP reported).
/// See the module documentation for the cost model.
#[derive(Debug)]
pub struct MonitorService {
    /// The monitored (owned) prefix.
    target: Prefix,
    legitimate_origins: BTreeSet<Asn>,
    /// Expected vantage points, ascending; emptied on retirement.
    vantage_points: Vec<Asn>,
    /// One slot per vantage point, parallel to `vantage_points`.
    slots: Vec<VpSlot>,
    /// Size of the fixed population (for percentages); outlives the
    /// list on retirement.
    population: usize,
    /// Vantage points whose selection is legitimate / the offender's;
    /// the rest of the population is unknown.
    legitimate: usize,
    hijacked: usize,
    /// Recorded timeline (one point per state change, up to
    /// `timeline_cap`).
    timeline: Vec<TimelinePoint>,
    /// [`TIMELINE_CAP`] outside tests.
    timeline_cap: usize,
    /// State changes absorbed by the last timeline slot at the cap.
    coalesced_points: u64,
}

impl MonitorService {
    /// Monitor `target` with the given legitimacy rules across a fixed
    /// vantage-point population.
    pub fn new(
        target: Prefix,
        legitimate_origins: BTreeSet<Asn>,
        vantage_points: BTreeSet<Asn>,
    ) -> Self {
        let vantage_points: Vec<Asn> = vantage_points.into_iter().collect();
        let slots = vantage_points
            .iter()
            .map(|_| VpSlot {
                routes: Vec::new(),
                selected: 0,
                observation: (VpState::Unknown, None),
            })
            .collect();
        MonitorService {
            target,
            legitimate_origins,
            population: vantage_points.len(),
            vantage_points,
            slots,
            legitimate: 0,
            hijacked: 0,
            timeline: Vec::new(),
            timeline_cap: TIMELINE_CAP,
            coalesced_points: 0,
        }
    }

    /// [`MonitorService::new`] with a small timeline cap, so tests
    /// reach the coalescing regime in a few events.
    #[cfg(test)]
    pub(crate) fn with_timeline_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "the last slot must exist");
        self.timeline_cap = cap;
        self
    }

    /// The monitored prefix.
    pub fn target(&self) -> Prefix {
        self.target
    }

    /// True when `prefix` concerns the monitored space: the target
    /// contains it (mitigation de-aggregates, hijacker sub-prefixes)
    /// or it contains the target (covering announcements). This is the
    /// relevance relation the pipeline's [`MonitorIndex`] evaluates
    /// once per event over *all* active monitors instead of once per
    /// `(event, monitor)` pair.
    pub fn is_relevant(&self, prefix: Prefix) -> bool {
        self.target.contains(prefix) || prefix.contains(self.target)
    }

    /// Ingest a monitoring event; records a timeline point when the
    /// reporting vantage point's selection changed. Events outside the
    /// monitored space (see [`MonitorService::is_relevant`]) are
    /// ignored: the pipeline's walk hands a monitor the events the
    /// [`MonitorIndex`] routed to it, plus — once, for an alert
    /// mitigated between deliveries — the next batch's first event
    /// whatever its prefix, so its resolution is re-evaluated there.
    ///
    /// The change test is **per-VP**, not aggregate: it compares the
    /// reporting VP's `(state, selected origin)` before and after the
    /// observation. Comparing aggregate `(legitimate, hijacked,
    /// unknown)` counts — the previous behaviour — suppressed every
    /// transition that left the totals untouched: a vantage point
    /// switching from one hijacker origin to another (or between two
    /// legitimate anycast origins) stayed inside its bucket, and
    /// opposite per-VP flips netting out across a recorded point
    /// vanished from the timeline entirely.
    pub fn ingest(&mut self, event: &FeedEvent) {
        if !self.is_relevant(event.prefix) {
            return;
        }
        let Ok(vp) = self.vantage_points.binary_search(&event.vantage) else {
            return;
        };
        let slot = &mut self.slots[vp];
        let at = slot.routes.iter().position(|(p, _)| *p == event.prefix);
        match (event.is_withdrawal(), at) {
            (false, Some(i)) => slot.routes[i].1 = event.origin_as,
            (false, None) => {
                slot.routes.push((event.prefix, event.origin_as));
                let i = slot.routes.len() - 1;
                if i == 0
                    || selection_key(event.prefix) > selection_key(slot.routes[slot.selected].0)
                {
                    slot.selected = i;
                }
            }
            (true, Some(i)) => {
                slot.routes.swap_remove(i);
                if slot.selected == i {
                    // The selection itself went away: the one rescan,
                    // over this VP's few routes only.
                    slot.selected = (0..slot.routes.len())
                        .max_by_key(|j| selection_key(slot.routes[*j].0))
                        .unwrap_or(0);
                } else if slot.selected == slot.routes.len() {
                    slot.selected = i; // the selection was the moved tail
                }
            }
            (true, None) => {}
        }
        let changed = self.reclassify(vp);
        if self.timeline.is_empty() || changed {
            self.record(event.emitted_at);
        }
    }

    /// Re-derive slot `vp`'s `(state, origin)` from its selection and
    /// move the VP between the counters. Returns whether it changed.
    fn reclassify(&mut self, vp: usize) -> bool {
        let slot = &mut self.slots[vp];
        let after = match slot.routes.get(slot.selected) {
            None => (VpState::Unknown, None),
            Some((_, Some(origin))) if self.legitimate_origins.contains(origin) => {
                (VpState::Legitimate, Some(*origin))
            }
            Some((_, Some(origin))) => (VpState::Hijacked, Some(*origin)),
            Some((_, None)) => (VpState::Hijacked, None), // AS_SET origin: suspicious
        };
        let before = std::mem::replace(&mut slot.observation, after);
        if before.0 != after.0 {
            if let Some(n) = self.count_mut(before.0) {
                *n -= 1;
            }
            if let Some(n) = self.count_mut(after.0) {
                *n += 1;
            }
        }
        before != after
    }

    /// The counter `state` is tallied in; unknown is the remainder.
    fn count_mut(&mut self, state: VpState) -> Option<&mut usize> {
        match state {
            VpState::Legitimate => Some(&mut self.legitimate),
            VpState::Hijacked => Some(&mut self.hijacked),
            VpState::Unknown => None,
        }
    }

    /// Put the current counts on the timeline: appended below the cap,
    /// folded into the last slot at it.
    fn record(&mut self, time: SimTime) {
        let point = self.snapshot(time);
        if self.timeline.len() < self.timeline_cap {
            self.timeline.push(point);
        } else {
            *self.timeline.last_mut().expect("cap is nonzero") = point;
            self.coalesced_points += 1;
        }
    }

    /// The state of one vantage point together with the origin its
    /// LPM-selected observation points at (`None` when the VP has no
    /// data, or its best route carries an AS_SET origin). For the
    /// paper's measurement the address under test is the target prefix
    /// itself (its first address), so every route the VP reported
    /// inside the monitored space competes and the longest wins.
    pub fn vp_observation(&self, vp: Asn) -> (VpState, Option<Asn>) {
        match self.vantage_points.binary_search(&vp) {
            Ok(i) => self.slots[i].observation,
            Err(_) => (VpState::Unknown, None),
        }
    }

    /// Drop everything `vp` ever reported about the monitored space:
    /// its BGP session to the collector went down (BMP `peer_down`),
    /// so its routes are no longer current. The vantage point returns
    /// to [`VpState::Unknown`] until it reports again; a timeline
    /// point is recorded when the purge changed its state. Returns
    /// `true` when the VP actually had observations to drop.
    ///
    /// Purging never *resolves* an incident by itself — resolution is
    /// evaluated on the next ingested event, exactly like any other
    /// state change — so a flapping session cannot silently close an
    /// alert.
    pub fn purge_vantage(&mut self, vp: Asn, at: SimTime) -> bool {
        let Ok(vp) = self.vantage_points.binary_search(&vp) else {
            return false;
        };
        if self.slots[vp].routes.is_empty() {
            return false;
        }
        self.slots[vp].routes.clear();
        if self.reclassify(vp) {
            self.record(at);
        }
        true
    }

    /// Aggregate counts now.
    pub fn snapshot(&self, time: SimTime) -> TimelinePoint {
        TimelinePoint {
            time,
            legitimate: self.legitimate,
            hijacked: self.hijacked,
            unknown: self.population - self.legitimate - self.hijacked,
        }
    }

    /// True when every vantage point that has data selects a
    /// legitimate origin (the paper's "mitigation completed": *all*
    /// vantage points switched back) and at least one VP has data.
    pub fn all_legitimate(&self) -> bool {
        self.hijacked == 0 && self.legitimate > 0
    }

    /// The recorded timeline: one point per state change, complete
    /// while [`MonitorService::coalesced_points`] is zero. Past
    /// [`TIMELINE_CAP`] points the head stays as recorded and the last
    /// point is the newest one.
    pub fn timeline(&self) -> &[TimelinePoint] {
        &self.timeline
    }

    /// State changes the timeline did not keep a point of their own
    /// for: each overwrote the last slot once the timeline was full.
    pub fn coalesced_points(&self) -> u64 {
        self.coalesced_points
    }

    /// Number of monitored vantage points.
    pub fn vantage_count(&self) -> usize {
        self.population
    }

    /// Retire the monitor once its incident is over (resolved, or
    /// closed by offboarding its prefix): free the per-VP routes and
    /// the population list in place. The counters, the population
    /// count and the timeline stay, so reporting reads a retired
    /// monitor exactly as it read the live one at retirement, and
    /// [`MonitorService::ingest`] / [`MonitorService::purge_vantage`]
    /// find no vantage point to change.
    pub fn retire(&mut self) {
        self.vantage_points = Vec::new();
        self.slots = Vec::new();
        self.legitimate_origins = BTreeSet::new();
    }
}

/// Prefix-routed index over the active monitors.
///
/// Maps each monitor's target prefix to the alerts monitoring it, so
/// the pipeline can answer "which monitors care about this event?" in
/// one trie walk ([`FlatTrie::visit_relevant`]: an LPM-style
/// ancestor walk plus the subtree at the event prefix) instead of
/// scanning every active monitor per event. Kept in sync by the
/// pipeline on monitor create, retire (resolution) and offboard.
///
/// Several alerts can monitor the same target (e.g. an exact-prefix
/// and a sub-prefix hijack against one owned prefix), so each trie
/// node holds a sorted list of alert ids.
#[derive(Debug, Default)]
pub struct MonitorIndex {
    targets: FlatTrie<Vec<AlertId>>,
    len: usize,
}

impl MonitorIndex {
    /// An empty index.
    pub fn new() -> Self {
        MonitorIndex::default()
    }

    /// Number of indexed `(target, alert)` pairs (= active monitors).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no monitor is indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Index `alert`'s monitor under its target prefix.
    pub fn insert(&mut self, target: Prefix, alert: AlertId) {
        let ids = match self.targets.get_mut(target) {
            Some(ids) => ids,
            None => {
                self.targets.insert(target, Vec::new());
                self.targets.get_mut(target).expect("just inserted")
            }
        };
        match ids.binary_search(&alert) {
            Ok(_) => return, // already indexed
            Err(pos) => ids.insert(pos, alert),
        }
        self.len += 1;
    }

    /// Drop `alert` from the index. Returns `false` when it was not
    /// indexed under `target`.
    pub fn remove(&mut self, target: Prefix, alert: AlertId) -> bool {
        let Some(ids) = self.targets.get_mut(target) else {
            return false;
        };
        let Ok(pos) = ids.binary_search(&alert) else {
            return false;
        };
        ids.remove(pos);
        if ids.is_empty() {
            self.targets.remove(target);
        }
        self.len -= 1;
        true
    }

    /// The alerts whose monitors are relevant to an event on `prefix`
    /// (target contains the prefix, or the prefix contains the
    /// target), appended to `out` in ascending alert order — the same
    /// order the pre-index pipeline visited monitors in its
    /// all-monitors `BTreeMap` scan. `out` is cleared first; reuse one
    /// buffer across events to keep the hot path allocation-free.
    pub fn route(&self, prefix: Prefix, out: &mut Vec<AlertId>) {
        out.clear();
        self.targets.visit_relevant(prefix, |_, ids| {
            out.extend_from_slice(ids);
        });
        // Distinct targets hold distinct sorted runs; a merged view
        // must be globally sorted (and each id appears under exactly
        // one target, so no dedup is needed).
        out.sort_unstable();
    }
}

/// The linear model: the monitor as it was before the cached
/// selection and the counters — nested `BTreeMap`s, a filtered
/// `max_by_key` scan on every read, a full population rescan per
/// snapshot, an unbounded timeline. Slow and obviously right; the
/// property tests below hold [`MonitorService`] to it step by step.
#[cfg(test)]
mod model {
    use super::{TimelinePoint, VpState};
    use artemis_bgp::{Asn, Prefix};
    use artemis_feeds::FeedEvent;
    use artemis_simnet::SimTime;
    use std::collections::{BTreeMap, BTreeSet};

    pub(super) struct ModelMonitor {
        target: Prefix,
        legitimate_origins: BTreeSet<Asn>,
        vantage_points: BTreeSet<Asn>,
        /// vp -> (prefix -> origin) observations within the target space.
        observations: BTreeMap<Asn, BTreeMap<Prefix, Option<Asn>>>,
        timeline: Vec<TimelinePoint>,
    }

    impl ModelMonitor {
        pub(super) fn new(
            target: Prefix,
            legitimate_origins: BTreeSet<Asn>,
            vantage_points: BTreeSet<Asn>,
        ) -> Self {
            ModelMonitor {
                target,
                legitimate_origins,
                vantage_points,
                observations: BTreeMap::new(),
                timeline: Vec::new(),
            }
        }

        fn is_relevant(&self, prefix: Prefix) -> bool {
            self.target.contains(prefix) || prefix.contains(self.target)
        }

        pub(super) fn ingest(&mut self, event: &FeedEvent) {
            if !self.is_relevant(event.prefix) || !self.vantage_points.contains(&event.vantage) {
                return;
            }
            let before = self.vp_observation(event.vantage);
            let slot = self.observations.entry(event.vantage).or_default();
            if event.is_withdrawal() {
                slot.remove(&event.prefix);
            } else {
                slot.insert(event.prefix, event.origin_as);
            }
            let after = self.vp_observation(event.vantage);
            if self.timeline.is_empty() || before != after {
                self.timeline.push(self.snapshot(event.emitted_at));
            }
        }

        pub(super) fn vp_observation(&self, vp: Asn) -> (VpState, Option<Asn>) {
            let Some(obs) = self.observations.get(&vp) else {
                return (VpState::Unknown, None);
            };
            // `max_by_key` returns the *last* maximum, and the map
            // iterates in `Prefix` order: of two equal-length
            // more-specifics the greater prefix wins.
            let best = obs
                .iter()
                .filter(|(p, _)| self.is_relevant(**p))
                .max_by_key(|(p, _)| p.len());
            match best {
                None => (VpState::Unknown, None),
                Some((_, Some(origin))) if self.legitimate_origins.contains(origin) => {
                    (VpState::Legitimate, Some(*origin))
                }
                Some((_, Some(origin))) => (VpState::Hijacked, Some(*origin)),
                Some((_, None)) => (VpState::Hijacked, None),
            }
        }

        pub(super) fn purge_vantage(&mut self, vp: Asn, at: SimTime) -> bool {
            let before = self.vp_observation(vp);
            let dropped = self.observations.remove(&vp).is_some_and(|o| !o.is_empty());
            let after = self.vp_observation(vp);
            if before != after {
                self.timeline.push(self.snapshot(at));
            }
            dropped
        }

        pub(super) fn snapshot(&self, time: SimTime) -> TimelinePoint {
            let mut point = TimelinePoint {
                time,
                legitimate: 0,
                hijacked: 0,
                unknown: 0,
            };
            for vp in &self.vantage_points {
                match self.vp_observation(*vp).0 {
                    VpState::Legitimate => point.legitimate += 1,
                    VpState::Hijacked => point.hijacked += 1,
                    VpState::Unknown => point.unknown += 1,
                }
            }
            point
        }

        pub(super) fn all_legitimate(&self) -> bool {
            let snap = self.snapshot(SimTime::ZERO);
            snap.hijacked == 0 && snap.legitimate > 0
        }

        pub(super) fn timeline(&self) -> &[TimelinePoint] {
            &self.timeline
        }
    }
}

#[cfg(test)]
mod tests {
    use super::model::ModelMonitor;
    use super::*;
    use artemis_bgp::AsPath;
    use artemis_feeds::{FeedKind, Reach};
    use std::str::FromStr;

    fn pfx(s: &str) -> Prefix {
        Prefix::from_str(s).unwrap()
    }

    fn event(vp: u32, prefix: &str, origin: Option<u32>, t: u64) -> FeedEvent {
        FeedEvent::new(
            SimTime::from_secs(t),
            SimTime::from_secs(t),
            FeedKind::RisLive,
            Asn(vp),
            pfx(prefix),
            origin.map(|o| AsPath::from_sequence([vp, o])).as_ref(),
            None,
        )
    }

    fn service() -> MonitorService {
        MonitorService::new(
            pfx("10.0.0.0/23"),
            [Asn(65001)].into_iter().collect(),
            [Asn(174), Asn(3356), Asn(2914)].into_iter().collect(),
        )
    }

    #[test]
    fn initial_state_unknown() {
        let m = service();
        assert_eq!(m.vp_observation(Asn(174)).0, VpState::Unknown);
        assert!(!m.all_legitimate());
        assert_eq!(m.snapshot(SimTime::ZERO).hijacked, 0);
    }

    #[test]
    fn legitimate_observation_counts() {
        let mut m = service();
        m.ingest(&event(174, "10.0.0.0/23", Some(65001), 10));
        assert_eq!(m.vp_observation(Asn(174)).0, VpState::Legitimate);
        let snap = m.snapshot(SimTime::from_secs(10));
        assert_eq!((snap.legitimate, snap.hijacked, snap.unknown), (1, 0, 2));
    }

    #[test]
    fn hijack_flips_vp() {
        let mut m = service();
        m.ingest(&event(174, "10.0.0.0/23", Some(65001), 10));
        m.ingest(&event(174, "10.0.0.0/23", Some(666), 20));
        assert_eq!(m.vp_observation(Asn(174)).0, VpState::Hijacked);
        assert_eq!(m.snapshot(SimTime::ZERO).hijacked, 1);
    }

    #[test]
    fn more_specific_wins_within_vp() {
        let mut m = service();
        // Hijacked on the /23 but the mitigation /24s take precedence.
        m.ingest(&event(174, "10.0.0.0/23", Some(666), 20));
        assert_eq!(m.vp_observation(Asn(174)).0, VpState::Hijacked);
        m.ingest(&event(174, "10.0.0.0/24", Some(65001), 30));
        assert_eq!(m.vp_observation(Asn(174)).0, VpState::Legitimate);
    }

    #[test]
    fn all_legitimate_requires_every_vp_clean() {
        let mut m = service();
        m.ingest(&event(174, "10.0.0.0/23", Some(65001), 10));
        m.ingest(&event(3356, "10.0.0.0/23", Some(666), 12));
        m.ingest(&event(2914, "10.0.0.0/23", Some(65001), 13));
        assert!(!m.all_legitimate());
        m.ingest(&event(3356, "10.0.0.0/24", Some(65001), 40));
        assert!(
            m.all_legitimate(),
            "unknown VPs do not block resolution; hijacked ones do"
        );
    }

    #[test]
    fn peer_down_purge_resets_vp_to_unknown() {
        let mut m = service();
        m.ingest(&event(174, "10.0.0.0/23", Some(666), 10));
        m.ingest(&event(3356, "10.0.0.0/23", Some(65001), 11));
        assert_eq!(m.vp_observation(Asn(174)).0, VpState::Hijacked);
        let points_before = m.timeline().len();

        // The hijacked VP's session to the collector drops: its stale
        // routes are purged, the VP returns to Unknown, and the state
        // change lands on the timeline.
        assert!(m.purge_vantage(Asn(174), SimTime::from_secs(20)));
        assert_eq!(m.vp_observation(Asn(174)).0, VpState::Unknown);
        assert_eq!(m.timeline().len(), points_before + 1);
        let last = m.timeline().last().unwrap();
        assert_eq!(last.time, SimTime::from_secs(20));
        assert_eq!((last.legitimate, last.hijacked, last.unknown), (1, 0, 2));

        // A VP with nothing recorded purges to nothing — no timeline
        // noise from flapping sessions that never reported.
        assert!(!m.purge_vantage(Asn(174), SimTime::from_secs(21)));
        assert!(!m.purge_vantage(Asn(2914), SimTime::from_secs(22)));
        assert_eq!(m.timeline().len(), points_before + 1);

        // Purging alone never resolves: the legitimate VP still has
        // data, but `all_legitimate` is only *acted on* at the next
        // ingest (here it merely reads true, as any snapshot would).
        assert!(m.all_legitimate());
    }

    #[test]
    fn withdraw_only_vantage_purges_to_false() {
        // A VP whose only traffic was a withdrawal holds no
        // observation: purging it drops nothing, so it must not count
        // in `Pipeline::apply_peer_downs` nor touch the timeline.
        let mut m = service();
        m.ingest(&event(174, "10.0.0.0/23", None, 10));
        assert_eq!(m.timeline().len(), 1, "the first event always records");
        assert!(!m.purge_vantage(Asn(174), SimTime::from_secs(20)));
        assert_eq!(m.timeline().len(), 1);
        assert!(!m.purge_vantage(Asn(9999), SimTime::from_secs(21)));
    }

    #[test]
    fn of_two_equal_length_more_specifics_the_greater_prefix_wins() {
        let mut m = service();
        m.ingest(&event(174, "10.0.1.0/24", Some(666), 10));
        m.ingest(&event(174, "10.0.0.0/24", Some(65001), 11));
        assert_eq!(
            m.vp_observation(Asn(174)).0,
            VpState::Hijacked,
            "10.0.1.0/24 selected"
        );
        // Withdrawing the selection falls back to the other /24; the
        // covering /16 never beats either.
        m.ingest(&event(174, "10.0.0.0/16", Some(667), 12));
        m.ingest(&event(174, "10.0.1.0/24", None, 13));
        assert_eq!(
            m.vp_observation(Asn(174)),
            (VpState::Legitimate, Some(Asn(65001)))
        );
    }

    #[test]
    fn full_timeline_keeps_its_head_and_tracks_the_newest_point() {
        let mut m = service().with_timeline_cap(3);
        for t in 0..6u64 {
            let origin = if t % 2 == 0 { 666 } else { 65001 };
            m.ingest(&event(174, "10.0.0.0/23", Some(origin), t));
        }
        let times: Vec<SimTime> = m.timeline().iter().map(|p| p.time).collect();
        assert_eq!(
            times,
            [0, 1, 5].map(SimTime::from_secs),
            "head exact, last slot = newest"
        );
        assert_eq!(m.timeline().last().unwrap().legitimate, 1);
        assert_eq!(m.coalesced_points(), 3);
        // Retired, it keeps what it reported and takes nothing more.
        let last = m.snapshot(SimTime::from_secs(9));
        m.retire();
        m.ingest(&event(174, "10.0.0.0/23", Some(666), 9));
        assert!(!m.purge_vantage(Asn(174), SimTime::from_secs(9)));
        assert_eq!(m.snapshot(SimTime::from_secs(9)), last);
        assert_eq!(m.coalesced_points(), 3);
        assert_eq!(m.timeline().len(), 3);
    }

    #[test]
    fn withdrawal_clears_observation() {
        let mut m = service();
        m.ingest(&event(174, "10.0.0.0/23", Some(666), 10));
        assert_eq!(m.vp_observation(Asn(174)).0, VpState::Hijacked);
        m.ingest(&event(174, "10.0.0.0/23", None, 20));
        assert_eq!(m.vp_observation(Asn(174)).0, VpState::Unknown);
    }

    #[test]
    fn unrelated_events_ignored() {
        let mut m = service();
        m.ingest(&event(174, "8.8.8.0/24", Some(15169), 10));
        m.ingest(&event(9999, "10.0.0.0/23", Some(666), 11)); // not a VP
        assert_eq!(m.vp_observation(Asn(174)).0, VpState::Unknown);
        assert_eq!(m.snapshot(SimTime::ZERO).hijacked, 0);
    }

    #[test]
    fn timeline_records_changes_only() {
        let mut m = service();
        m.ingest(&event(174, "10.0.0.0/23", Some(65001), 10));
        m.ingest(&event(174, "10.0.0.0/23", Some(65001), 11)); // no change
        m.ingest(&event(3356, "10.0.0.0/23", Some(666), 12));
        assert_eq!(m.timeline().len(), 2);
        assert_eq!(m.timeline()[1].hijacked, 1);
    }

    #[test]
    fn hijacker_origin_swap_records_a_timeline_point() {
        // Regression: the old aggregate-count comparison suppressed
        // every per-VP transition that left (legitimate, hijacked,
        // unknown) untouched — a vantage point moving from one
        // hijacker to another stayed "1 hijacked" and vanished from
        // the timeline.
        let mut m = service();
        m.ingest(&event(174, "10.0.0.0/23", Some(666), 10));
        assert_eq!(m.timeline().len(), 1);
        m.ingest(&event(174, "10.0.0.0/23", Some(667), 20));
        assert_eq!(
            m.timeline().len(),
            2,
            "origin 666 → 667 is a state transition even though the \
             aggregate counts are unchanged"
        );
        assert_eq!(m.timeline()[1].time, SimTime::from_secs(20));
        assert_eq!(
            m.vp_observation(Asn(174)),
            (VpState::Hijacked, Some(Asn(667)))
        );
    }

    #[test]
    fn legitimate_anycast_origin_swap_records_a_timeline_point() {
        let mut m = MonitorService::new(
            pfx("10.0.0.0/23"),
            [Asn(65001), Asn(65002)].into_iter().collect(),
            [Asn(174)].into_iter().collect(),
        );
        m.ingest(&event(174, "10.0.0.0/23", Some(65001), 10));
        m.ingest(&event(174, "10.0.0.0/23", Some(65002), 20));
        assert_eq!(m.timeline().len(), 2, "anycast swap is visible");
        assert!(m.all_legitimate());
    }

    #[test]
    fn simultaneous_opposite_flips_both_appear() {
        // Two VPs flip in opposite directions at the same instant; the
        // aggregate counts net out to the pre-flip values, but the
        // timeline must still carry both transitions.
        let mut m = service();
        m.ingest(&event(174, "10.0.0.0/23", Some(65001), 10));
        m.ingest(&event(3356, "10.0.0.0/23", Some(666), 11));
        let len_before = m.timeline().len();
        m.ingest(&event(174, "10.0.0.0/23", Some(666), 30)); // legit → hijacked
        m.ingest(&event(3356, "10.0.0.0/23", Some(65001), 30)); // hijacked → legit
        assert_eq!(
            m.timeline().len(),
            len_before + 2,
            "both opposite flips are recorded"
        );
        let last = m.timeline().last().unwrap();
        let prior = &m.timeline()[m.timeline().len() - 3];
        assert_eq!(
            (last.legitimate, last.hijacked, last.unknown),
            (prior.legitimate, prior.hijacked, prior.unknown),
            "net aggregate change is zero — exactly why the aggregate \
             comparison lost these"
        );
    }

    fn id(n: u64) -> AlertId {
        AlertId(n)
    }

    #[test]
    fn index_routes_by_containment_in_alert_order() {
        let mut idx = MonitorIndex::new();
        idx.insert(pfx("10.0.0.0/23"), id(3));
        idx.insert(pfx("10.0.0.0/24"), id(1));
        idx.insert(pfx("10.0.0.0/23"), id(2)); // second alert, same target
        idx.insert(pfx("172.16.0.0/23"), id(4));
        assert_eq!(idx.len(), 4);

        let mut out = Vec::new();
        // Sub-prefix event: both covering targets, not the sibling.
        idx.route(pfx("10.0.0.0/25"), &mut out);
        assert_eq!(out, vec![id(1), id(2), id(3)]);
        // Covering event: everything under it.
        idx.route(pfx("10.0.0.0/8"), &mut out);
        assert_eq!(out, vec![id(1), id(2), id(3)]);
        // Exact target match is routed once.
        idx.route(pfx("172.16.0.0/23"), &mut out);
        assert_eq!(out, vec![id(4)]);
        // Disjoint space routes nowhere.
        idx.route(pfx("192.0.2.0/24"), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn index_remove_unindexes_exactly_one_alert() {
        let mut idx = MonitorIndex::new();
        idx.insert(pfx("10.0.0.0/23"), id(1));
        idx.insert(pfx("10.0.0.0/23"), id(2));
        assert!(idx.remove(pfx("10.0.0.0/23"), id(1)));
        assert!(!idx.remove(pfx("10.0.0.0/23"), id(1)), "already gone");
        assert!(!idx.remove(pfx("10.0.0.0/24"), id(2)), "wrong target");
        let mut out = Vec::new();
        idx.route(pfx("10.0.0.0/23"), &mut out);
        assert_eq!(out, vec![id(2)]);
        assert!(idx.remove(pfx("10.0.0.0/23"), id(2)));
        assert!(idx.is_empty());
        idx.route(pfx("10.0.0.0/23"), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn checked_ingest_still_filters_irrelevant_events() {
        // The public wrapper keeps direct callers safe after the
        // relevance check moved into the routing layer.
        let mut m = service();
        m.ingest(&event(174, "8.8.8.0/24", Some(666), 10));
        assert!(m.timeline().is_empty());
        assert!(!m.is_relevant(pfx("8.8.8.0/24")));
        assert!(m.is_relevant(pfx("10.0.0.0/24")));
        assert!(m.is_relevant(pfx("0.0.0.0/0")));
    }

    #[test]
    fn redundant_reannouncement_still_suppressed() {
        // The fix must not regress the dedup property: an event that
        // changes nothing for its VP records nothing.
        let mut m = service();
        m.ingest(&event(174, "10.0.0.0/23", Some(666), 10));
        // Same VP, same origin, via a different (less specific) covering
        // route: LPM selection unchanged.
        m.ingest(&event(174, "10.0.0.0/16", Some(666), 11));
        assert_eq!(m.timeline().len(), 1);
    }

    // ---- Equivalence with the linear model --------------------------

    /// The population, plus (last) an ASN outside it.
    const VPS: [u32; 5] = [174, 2914, 3356, 6939, 9999];

    /// Everything around the 10.0.0.0/23 target: itself, a covering
    /// /16 and /8, both /24 halves, all four /25 quarters (equal-length
    /// siblings compete on `Prefix` order), and unrelated space.
    const PREFIXES: [&str; 10] = [
        "10.0.0.0/23",
        "10.0.0.0/16",
        "10.0.0.0/8",
        "10.0.0.0/24",
        "10.0.1.0/24",
        "10.0.0.0/25",
        "10.0.0.128/25",
        "10.0.1.0/25",
        "10.0.1.128/25",
        "8.8.8.0/24",
    ];

    /// Two legitimate (anycast) origins, two hijackers, and an AS_SET
    /// route (`origin_as: None` on an announcement).
    const ORIGINS: [Option<u32>; 5] = [Some(65001), Some(65002), Some(666), Some(667), None];

    /// Shrunk cap of the second service under test.
    const SMALL_CAP: usize = 5;

    fn population() -> (BTreeSet<Asn>, BTreeSet<Asn>) {
        (
            [Asn(65001), Asn(65002)].into_iter().collect(),
            VPS[..4].iter().map(|vp| Asn(*vp)).collect(),
        )
    }

    /// One generated announcement or withdrawal; every index wraps
    /// into its pool.
    fn step_event(vp: u8, prefix: u8, origin: u8, withdraw: bool, t: u64) -> FeedEvent {
        let vp = VPS[vp as usize % VPS.len()];
        let mut e = event(vp, PREFIXES[prefix as usize % PREFIXES.len()], None, t);
        if !withdraw {
            e.reach = Reach::Announced {
                origin_neighbor: None,
            };
            e.origin_as = ORIGINS[origin as usize % ORIGINS.len()].map(Asn);
        }
        e
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// After every step of a generated sequence the service reads
        /// exactly like the model: per-VP observation, counters,
        /// resolution predicate, `purge_vantage`'s return value and —
        /// under the cap — the whole timeline. A second service with
        /// the cap shrunk to `SMALL_CAP` keeps the model's head, ends
        /// on the model's last point and counts the rest. A step is
        /// `(kind, vp, prefix, origin)`: kind 0–5 announces, 6–8
        /// withdraws, 9 is `purge_vantage`.
        #[test]
        fn service_matches_linear_model_step_by_step(
            steps in proptest::collection::vec((0u8..10, 0u8..=255, 0u8..=255, 0u8..=255), 1..120),
        ) {
            use proptest::prop_assert_eq;
            let (legit, vps) = population();
            let target = pfx(PREFIXES[0]);
            let mut model = ModelMonitor::new(target, legit.clone(), vps.clone());
            let mut full = MonitorService::new(target, legit.clone(), vps.clone());
            let mut small = MonitorService::new(target, legit, vps).with_timeline_cap(SMALL_CAP);
            for (t, (kind, vp, prefix, origin)) in steps.into_iter().enumerate() {
                let t = t as u64;
                if kind == 9 {
                    let vp = Asn(VPS[vp as usize % VPS.len()]);
                    let at = SimTime::from_secs(t);
                    let dropped = model.purge_vantage(vp, at);
                    prop_assert_eq!(full.purge_vantage(vp, at), dropped);
                    prop_assert_eq!(small.purge_vantage(vp, at), dropped);
                } else {
                    let e = step_event(vp, prefix, origin, kind >= 6, t);
                    model.ingest(&e);
                    full.ingest(&e);
                    small.ingest(&e);
                }

                for vp in VPS {
                    prop_assert_eq!(full.vp_observation(Asn(vp)), model.vp_observation(Asn(vp)));
                }
                let now = SimTime::from_secs(t);
                prop_assert_eq!(full.snapshot(now), model.snapshot(now));
                prop_assert_eq!(small.snapshot(now), model.snapshot(now));
                prop_assert_eq!(full.all_legitimate(), model.all_legitimate());
                prop_assert_eq!(full.timeline(), model.timeline());
                prop_assert_eq!(full.coalesced_points(), 0);

                let recorded = model.timeline();
                let kept = recorded.len().min(SMALL_CAP);
                prop_assert_eq!(small.timeline().len(), kept);
                prop_assert_eq!(small.timeline().last(), recorded.last());
                if kept > 0 {
                    prop_assert_eq!(&small.timeline()[..kept - 1], &recorded[..kept - 1]);
                }
                prop_assert_eq!(small.coalesced_points(), (recorded.len() - kept) as u64);
            }
        }
    }
}

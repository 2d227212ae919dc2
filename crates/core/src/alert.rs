//! Alerts and their lifecycle (raise → update → resolve).

use crate::classify::HijackType;
use artemis_bgp::{Asn, Prefix};
use artemis_feeds::FeedKind;
use artemis_simnet::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Opaque alert identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AlertId(pub u64);

/// Alert lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlertState {
    /// Hijack currently observed at ≥ 1 vantage point.
    Active,
    /// Mitigation has been triggered for this alert.
    Mitigating,
    /// No vantage point selects the offending route any more.
    Resolved,
}

/// A detected hijacking incident.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Identifier.
    pub id: AlertId,
    /// Classification.
    pub hijack_type: HijackType,
    /// The configured prefix being attacked.
    pub owned_prefix: Prefix,
    /// The offending announcement's prefix (== owned for exact
    /// hijacks, more specific for sub-prefix hijacks).
    pub observed_prefix: Prefix,
    /// Offending origin AS (None when undefined, e.g. AS_SET origin).
    pub offending_origin: Option<Asn>,
    /// When ARTEMIS first learned of it (feed emission time) — the
    /// paper's "detection" instant.
    pub detected_at: SimTime,
    /// When the offending route was first *observed* at a vantage
    /// point (routing-plane time; detection delay = detected_at −
    /// hijack launch).
    pub first_observed_at: SimTime,
    /// Which feed won the detection race.
    pub detected_by: FeedKind,
    /// All vantage points that have reported the offending route.
    pub vantage_points: BTreeSet<Asn>,
    /// Lifecycle.
    pub state: AlertState,
    /// Last update time.
    pub last_update: SimTime,
}

impl fmt::Display for Alert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} on {} (observed {}, origin {}) at {} via {} ({} VPs)",
            self.id.0,
            self.hijack_type,
            self.owned_prefix,
            self.observed_prefix,
            self.offending_origin
                .map(|a| a.to_string())
                .unwrap_or_else(|| "unknown".into()),
            self.detected_at,
            self.detected_by,
            self.vantage_points.len()
        )
    }
}

/// Deduplicating alert store.
///
/// Open alerts are keyed by `(owned, observed, offending origin)`: a
/// hijack seen from 40 vantage points is *one* incident with 40
/// witnesses, not 40 incidents. The classification is not part of the
/// key — the same offending announcement can classify differently
/// once our own rules change under it (a squatting mitigation
/// activates the dormant prefix, so later witnesses of the same squat
/// read `ExactOrigin`), and that is still the incident already open.
/// The alert keeps the type it was raised with.
#[derive(Debug, Default)]
pub struct AlertStore {
    alerts: Vec<Alert>,
    next_id: u64,
}

impl AlertStore {
    /// Empty store.
    pub fn new() -> Self {
        AlertStore::default()
    }

    /// True when the alert at `i` is open on this offending
    /// announcement, i.e. absorbs a new witness of it.
    fn absorbs(
        &self,
        i: usize,
        owned_prefix: Prefix,
        observed_prefix: Prefix,
        offending_origin: Option<Asn>,
    ) -> bool {
        let a = &self.alerts[i];
        a.owned_prefix == owned_prefix
            && a.observed_prefix == observed_prefix
            && a.offending_origin == offending_origin
            && a.state != AlertState::Resolved
    }

    /// Position of `id` in the store (alerts are kept sorted by id).
    fn idx(&self, id: AlertId) -> Option<usize> {
        self.alerts.binary_search_by_key(&id, |a| a.id).ok()
    }

    /// Record an observation; returns `(alert id, is_new)`.
    ///
    /// Deduplicates only against the alerts listed in `scope` (a
    /// detector shard's own alerts) instead of scanning the whole
    /// store; a newly raised alert is appended to `scope`. This keeps
    /// multi-prefix detection O(per-shard alerts) per event rather
    /// than O(total alerts).
    #[allow(clippy::too_many_arguments)]
    pub fn observe_scoped(
        &mut self,
        scope: &mut Vec<AlertId>,
        hijack_type: HijackType,
        owned_prefix: Prefix,
        observed_prefix: Prefix,
        offending_origin: Option<Asn>,
        vantage: Asn,
        emitted_at: SimTime,
        observed_at: SimTime,
        source: FeedKind,
    ) -> (AlertId, bool) {
        let hit = scope
            .iter()
            .map(|id| self.idx(*id).expect("scoped id exists"))
            .find(|i| self.absorbs(*i, owned_prefix, observed_prefix, offending_origin));
        if let Some(existing) = hit.map(|i| &mut self.alerts[i]) {
            existing.vantage_points.insert(vantage);
            existing.last_update = emitted_at;
            if observed_at < existing.first_observed_at {
                existing.first_observed_at = observed_at;
            }
            return (existing.id, false);
        }
        let id = AlertId(self.next_id);
        self.next_id += 1;
        self.alerts.push(Alert {
            id,
            hijack_type,
            owned_prefix,
            observed_prefix,
            offending_origin,
            detected_at: emitted_at,
            first_observed_at: observed_at,
            detected_by: source,
            vantage_points: [vantage].into_iter().collect(),
            state: AlertState::Active,
            last_update: emitted_at,
        });
        scope.push(id);
        (id, true)
    }

    /// Move an alert to `Mitigating`.
    pub fn mark_mitigating(&mut self, id: AlertId, at: SimTime) {
        if let Some(i) = self.idx(id) {
            self.alerts[i].state = AlertState::Mitigating;
            self.alerts[i].last_update = at;
        }
    }

    /// Move an alert to `Resolved`.
    pub fn mark_resolved(&mut self, id: AlertId, at: SimTime) {
        if let Some(i) = self.idx(id) {
            self.alerts[i].state = AlertState::Resolved;
            self.alerts[i].last_update = at;
        }
    }

    /// Look up by id.
    pub fn get(&self, id: AlertId) -> Option<&Alert> {
        self.idx(id).map(|i| &self.alerts[i])
    }

    /// All alerts, in raise order.
    pub fn all(&self) -> &[Alert] {
        &self.alerts
    }

    /// Alerts still requiring attention.
    pub fn active(&self) -> impl Iterator<Item = &Alert> {
        self.alerts
            .iter()
            .filter(|a| a.state != AlertState::Resolved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    fn pfx(s: &str) -> Prefix {
        Prefix::from_str(s).unwrap()
    }

    /// A witness of `AS<origin>` announcing the owned /23, with every
    /// alert in the store in scope.
    fn witness(
        store: &mut AlertStore,
        origin: u32,
        vantage: u32,
        t: u64,
        observed: u64,
        source: FeedKind,
    ) -> (AlertId, bool) {
        let mut scope: Vec<AlertId> = store.all().iter().map(|a| a.id).collect();
        store.observe_scoped(
            &mut scope,
            HijackType::ExactOrigin,
            pfx("10.0.0.0/23"),
            pfx("10.0.0.0/23"),
            Some(Asn(origin)),
            Asn(vantage),
            SimTime::from_secs(t),
            SimTime::from_secs(observed),
            source,
        )
    }

    fn observe(store: &mut AlertStore, vantage: u32, t: u64) -> (AlertId, bool) {
        witness(
            store,
            666,
            vantage,
            t,
            t.saturating_sub(5),
            FeedKind::RisLive,
        )
    }

    #[test]
    fn first_observation_creates_alert() {
        let mut store = AlertStore::new();
        let (id, new) = observe(&mut store, 174, 100);
        assert!(new);
        let a = store.get(id).unwrap();
        assert_eq!(a.state, AlertState::Active);
        assert_eq!(a.detected_at, SimTime::from_secs(100));
        assert_eq!(a.vantage_points.len(), 1);
    }

    #[test]
    fn repeat_observations_deduplicate() {
        let mut store = AlertStore::new();
        let (id1, _) = observe(&mut store, 174, 100);
        let (id2, new) = observe(&mut store, 3356, 110);
        assert!(!new);
        assert_eq!(id1, id2);
        let a = store.get(id1).unwrap();
        assert_eq!(a.vantage_points.len(), 2);
        // Detection time stays at the first event.
        assert_eq!(a.detected_at, SimTime::from_secs(100));
        assert_eq!(a.last_update, SimTime::from_secs(110));
    }

    #[test]
    fn different_origin_is_a_new_alert() {
        let mut store = AlertStore::new();
        let (id1, _) = observe(&mut store, 174, 100);
        let (id2, new) = witness(&mut store, 667, 174, 100, 95, FeedKind::BgpMon);
        assert!(new);
        assert_ne!(id1, id2);
    }

    #[test]
    fn lifecycle_transitions() {
        let mut store = AlertStore::new();
        let (id, _) = observe(&mut store, 174, 100);
        store.mark_mitigating(id, SimTime::from_secs(115));
        assert_eq!(store.get(id).unwrap().state, AlertState::Mitigating);
        store.mark_resolved(id, SimTime::from_secs(400));
        assert_eq!(store.get(id).unwrap().state, AlertState::Resolved);
        assert_eq!(store.active().count(), 0);
    }

    #[test]
    fn resolved_alerts_do_not_absorb_new_observations() {
        let mut store = AlertStore::new();
        let (id, _) = observe(&mut store, 174, 100);
        store.mark_resolved(id, SimTime::from_secs(200));
        let (id2, new) = observe(&mut store, 174, 300);
        assert!(new, "a recurrence is a fresh incident");
        assert_ne!(id, id2);
    }

    #[test]
    fn first_observed_at_takes_minimum() {
        let mut store = AlertStore::new();
        let (id, _) = observe(&mut store, 174, 100); // observed at 95
        witness(&mut store, 666, 2914, 120, 90, FeedKind::Periscope); // reported later, seen earlier
        assert_eq!(
            store.get(id).unwrap().first_observed_at,
            SimTime::from_secs(90)
        );
    }

    #[test]
    fn display_mentions_key_facts() {
        let mut store = AlertStore::new();
        let (id, _) = observe(&mut store, 174, 100);
        let text = store.get(id).unwrap().to_string();
        assert!(text.contains("10.0.0.0/23"));
        assert!(text.contains("AS666"));
        assert!(text.contains("ris-live"));
    }
}

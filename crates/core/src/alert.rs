//! Alerts and their lifecycle (raise → update → resolve).

use crate::classify::HijackType;
use artemis_bgp::{Asn, Prefix};
use artemis_feeds::{FeedEvent, FeedKind};
use artemis_simnet::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
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
/// witnesses, not 40 incidents, and deduplicating a witness is one
/// keyed lookup whatever the prefix's history. The classification is
/// not part of the key — the same offending announcement can classify
/// differently once our own rules change under it (a squatting
/// mitigation activates the dormant prefix, so later witnesses of the
/// same squat read `ExactOrigin`), and that is still the incident
/// already open. The alert keeps the type it was raised with.
#[derive(Debug, Default)]
pub struct AlertStore {
    alerts: Vec<Alert>,
    /// The open alert of each key. The owned prefix comes first, so
    /// one prefix's open alerts form a range.
    open: BTreeMap<(Prefix, Prefix, Option<Asn>), AlertId>,
}

impl AlertStore {
    /// Empty store.
    pub fn new() -> Self {
        AlertStore::default()
    }

    /// Position of `id` in the store: ids count up from 0 and no
    /// alert is ever dropped, so an id is its own position.
    fn idx(&self, id: AlertId) -> Option<usize> {
        let i = usize::try_from(id.0)
            .ok()
            .filter(|i| *i < self.alerts.len())?;
        debug_assert_eq!(self.alerts[i].id, id);
        Some(i)
    }

    /// Record one witness of an offending announcement against
    /// `owned_prefix`; returns `(alert id, is_new)`.
    ///
    /// The witness joins the open alert with the same key, if there is
    /// one; otherwise it raises a new alert of `hijack_type`.
    pub fn observe(
        &mut self,
        hijack_type: HijackType,
        owned_prefix: Prefix,
        offending_origin: Option<Asn>,
        event: &FeedEvent,
    ) -> (AlertId, bool) {
        let key = (owned_prefix, event.prefix, offending_origin);
        if let Some(id) = self.open.get(&key) {
            let i = self.idx(*id).expect("open id exists");
            let existing = &mut self.alerts[i];
            existing.vantage_points.insert(event.vantage);
            existing.last_update = event.emitted_at;
            if event.observed_at < existing.first_observed_at {
                existing.first_observed_at = event.observed_at;
            }
            return (existing.id, false);
        }
        let id = AlertId(self.alerts.len() as u64);
        self.alerts.push(Alert {
            id,
            hijack_type,
            owned_prefix,
            observed_prefix: event.prefix,
            offending_origin,
            detected_at: event.emitted_at,
            first_observed_at: event.observed_at,
            detected_by: event.source,
            vantage_points: [event.vantage].into_iter().collect(),
            state: AlertState::Active,
            last_update: event.emitted_at,
        });
        self.open.insert(key, id);
        (id, true)
    }

    /// Stop deduplicating against `owned`'s open alerts: later
    /// witnesses raise new alerts. Returns their ids, ascending; the
    /// alerts themselves keep their state.
    pub(crate) fn drain_open(&mut self, owned: Prefix) -> Vec<AlertId> {
        // Every observed prefix under `owned` lies inside it, so none
        // sorts before `owned` itself.
        let keys: Vec<_> = self
            .open
            .range((owned, owned, None)..)
            .take_while(|(key, _)| key.0 == owned)
            .map(|(key, _)| *key)
            .collect();
        let mut ids: Vec<AlertId> = keys
            .iter()
            .filter_map(|key| self.open.remove(key))
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Move an alert to `Mitigating`.
    pub fn mark_mitigating(&mut self, id: AlertId, at: SimTime) {
        if let Some(i) = self.idx(id) {
            self.alerts[i].state = AlertState::Mitigating;
            self.alerts[i].last_update = at;
        }
    }

    /// Move an alert to `Resolved`, freeing its key for a new
    /// incident.
    pub fn mark_resolved(&mut self, id: AlertId, at: SimTime) {
        if let Some(i) = self.idx(id) {
            let a = &mut self.alerts[i];
            a.state = AlertState::Resolved;
            a.last_update = at;
            let key = (a.owned_prefix, a.observed_prefix, a.offending_origin);
            if self.open.get(&key) == Some(&id) {
                self.open.remove(&key);
            }
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

    /// `AS<vantage>` reporting `AS<origin>` announcing the owned /23.
    fn event(origin: u32, vantage: u32, t: u64, observed: u64, source: FeedKind) -> FeedEvent {
        FeedEvent {
            emitted_at: SimTime::from_secs(t),
            observed_at: SimTime::from_secs(observed),
            source,
            collector: "rrc00".into(),
            vantage: Asn(vantage),
            prefix: pfx("10.0.0.0/23"),
            as_path: None,
            origin_as: Some(Asn(origin)),
            raw: None,
        }
    }

    /// A witness of `AS<origin>` announcing the owned /23.
    fn witness(
        store: &mut AlertStore,
        origin: u32,
        vantage: u32,
        t: u64,
        observed: u64,
        source: FeedKind,
    ) -> (AlertId, bool) {
        store.observe(
            HijackType::ExactOrigin,
            pfx("10.0.0.0/23"),
            Some(Asn(origin)),
            &event(origin, vantage, t, observed, source),
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
    fn dedup_keeps_one_key_per_open_incident_whatever_the_history() {
        let mut store = AlertStore::new();
        for i in 0..10_000u64 {
            let (id, new) = witness(&mut store, 1_000 + i as u32, 174, i, i, FeedKind::RisLive);
            assert!(new);
            store.mark_resolved(id, SimTime::from_secs(i));
        }
        assert!(store.open.is_empty());
        let (open, new) = observe(&mut store, 174, 20_000);
        assert!(new);
        assert_eq!(store.open.len(), 1);
        assert_eq!(observe(&mut store, 3356, 20_001), (open, false));
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

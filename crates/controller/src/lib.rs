//! # artemis-controller — ONOS-like route-intent controller
//!
//! ARTEMIS assumes "permissions for sending BGP advertisements for the
//! owned prefixes from the BGP routers of the network … effectively
//! accomplished by running ARTEMIS, as an application-level module,
//! over a network controller that supports BGP, like ONOS or
//! OpenDayLight" (paper §2).
//!
//! This crate models that controller as an *intent* system: the
//! mitigation service submits route intents (announce/withdraw a
//! prefix from the operator's AS); the controller compiles and installs
//! each intent after a configurable delay (the paper measures ≈ 15 s
//! from detection to the de-aggregated announcements leaving the AS);
//! installed intents become originations on the simulated BGP speakers.
//!
//! The controller is deliberately engine-agnostic: it emits
//! [`ControllerAction`]s, and whoever owns the routing layer applies
//! them. `ArtemisService::take_due_intents` (in `artemis_core`) takes
//! the due ones, records each in the incident log and hands them back:
//! the simulator driver in `artemis_bench` applies them to the
//! simulated Internet, and a deployment would apply them to its
//! routers or BGP speaker instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use artemis_bgp::{Asn, Prefix};
use artemis_simnet::{LatencyModel, SimRng, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Lifecycle of a route intent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IntentState {
    /// Accepted, compilation/installation in progress.
    Installing,
    /// Live on the routers.
    Installed,
    /// Withdrawn (terminal).
    Withdrawn,
}

/// What an installed intent does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IntentKind {
    /// Originate `prefix` from the AS.
    Announce,
    /// Stop originating `prefix`.
    Withdraw,
}

/// A route intent (announce or withdraw one prefix).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteIntent {
    /// Controller-assigned identifier.
    pub id: u64,
    /// Announce or withdraw.
    pub kind: IntentKind,
    /// The prefix concerned.
    pub prefix: Prefix,
    /// The AS the intent acts for.
    pub origin_as: Asn,
    /// Current state.
    pub state: IntentState,
    /// Submission instant.
    pub submitted_at: SimTime,
    /// Installation instant (once installed).
    pub installed_at: Option<SimTime>,
}

/// An action ready to be applied to the routing layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControllerAction {
    /// The intent that produced this action.
    pub intent_id: u64,
    /// When the routers execute it.
    pub effective_at: SimTime,
    /// Announce or withdraw.
    pub kind: IntentKind,
    /// Acting AS.
    pub origin_as: Asn,
    /// Prefix.
    pub prefix: Prefix,
}

/// The BGP-speaking SDN controller for one operator AS.
pub struct Controller {
    origin_as: Asn,
    install_delay: LatencyModel,
    rng: SimRng,
    intents: BTreeMap<u64, RouteIntent>,
    queue: Vec<ControllerAction>,
    next_id: u64,
}

impl Controller {
    /// A controller for `origin_as`. `install_delay` models intent
    /// compilation + router session programming; the paper's ≈ 15 s is
    /// `LatencyModel::uniform_secs(10, 20)`.
    pub fn new(origin_as: Asn, install_delay: LatencyModel, rng: SimRng) -> Self {
        Controller {
            origin_as,
            install_delay,
            rng,
            intents: BTreeMap::new(),
            queue: Vec::new(),
            next_id: 1,
        }
    }

    /// The AS this controller speaks for.
    pub fn origin_as(&self) -> Asn {
        self.origin_as
    }

    /// Submit an announce intent at `now`; returns its id.
    pub fn submit_announce(&mut self, prefix: Prefix, now: SimTime) -> u64 {
        self.submit(IntentKind::Announce, prefix, now)
    }

    /// Submit a withdraw intent at `now`; returns its id.
    pub fn submit_withdraw(&mut self, prefix: Prefix, now: SimTime) -> u64 {
        self.submit(IntentKind::Withdraw, prefix, now)
    }

    fn submit(&mut self, kind: IntentKind, prefix: Prefix, now: SimTime) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let delay = self.install_delay.sample(&mut self.rng);
        self.intents.insert(
            id,
            RouteIntent {
                id,
                kind,
                prefix,
                origin_as: self.origin_as,
                state: IntentState::Installing,
                submitted_at: now,
                installed_at: None,
            },
        );
        self.queue.push(ControllerAction {
            intent_id: id,
            effective_at: now + delay,
            kind,
            origin_as: self.origin_as,
            prefix,
        });
        self.queue.sort_by_key(|a| a.effective_at);
        id
    }

    /// Time of the next pending action.
    pub fn next_action_time(&self) -> Option<SimTime> {
        self.queue.first().map(|a| a.effective_at)
    }

    /// Pop every action due at or before `now`, marking the intents
    /// installed. The caller applies them to the routing layer.
    pub fn due_actions(&mut self, now: SimTime) -> Vec<ControllerAction> {
        let split = self
            .queue
            .iter()
            .position(|a| a.effective_at > now)
            .unwrap_or(self.queue.len());
        let due: Vec<ControllerAction> = self.queue.drain(..split).collect();
        for action in &due {
            if let Some(intent) = self.intents.get_mut(&action.intent_id) {
                intent.state = match action.kind {
                    IntentKind::Announce => IntentState::Installed,
                    IntentKind::Withdraw => IntentState::Withdrawn,
                };
                intent.installed_at = Some(action.effective_at);
            }
        }
        due
    }

    /// Look up an intent.
    pub fn intent(&self, id: u64) -> Option<&RouteIntent> {
        self.intents.get(&id)
    }

    /// All intents (audit log), ordered by id.
    pub fn intents(&self) -> impl Iterator<Item = &RouteIntent> {
        self.intents.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_simnet::SimDuration;
    use std::str::FromStr;

    fn pfx(s: &str) -> Prefix {
        Prefix::from_str(s).unwrap()
    }

    fn controller(delay_secs: u64) -> Controller {
        Controller::new(
            Asn(65001),
            LatencyModel::const_secs(delay_secs),
            SimRng::new(1),
        )
    }

    #[test]
    fn submit_and_install_lifecycle() {
        let mut c = controller(15);
        let now = SimTime::from_secs(100);
        let id = c.submit_announce(pfx("10.0.0.0/24"), now);
        assert_eq!(c.intent(id).unwrap().state, IntentState::Installing);
        assert_eq!(c.next_action_time(), Some(now + SimDuration::from_secs(15)));
        // Too early: nothing due.
        assert!(c.due_actions(now + SimDuration::from_secs(10)).is_empty());
        // Due at the install instant.
        let due = c.due_actions(now + SimDuration::from_secs(15));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].prefix, pfx("10.0.0.0/24"));
        assert_eq!(due[0].origin_as, Asn(65001));
        let intent = c.intent(id).unwrap();
        assert_eq!(intent.state, IntentState::Installed);
        assert_eq!(intent.installed_at, Some(now + SimDuration::from_secs(15)));
    }

    #[test]
    fn withdraw_intents_terminal_state() {
        let mut c = controller(5);
        let id = c.submit_withdraw(pfx("10.0.0.0/24"), SimTime::ZERO);
        c.due_actions(SimTime::from_secs(5));
        assert_eq!(c.intent(id).unwrap().state, IntentState::Withdrawn);
    }

    #[test]
    fn actions_pop_in_time_order() {
        let mut c = Controller::new(
            Asn(65001),
            LatencyModel::uniform_secs(5, 30),
            SimRng::new(7),
        );
        for i in 0..10 {
            c.submit_announce(pfx(&format!("10.0.{i}.0/24")), SimTime::ZERO);
        }
        let due = c.due_actions(SimTime::from_secs(3_600));
        assert_eq!(due.len(), 10);
        let times: Vec<SimTime> = due.iter().map(|a| a.effective_at).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
    }

    #[test]
    fn paper_calibration_range() {
        // The paper's ≈ 15 s, as `Controller::new` documents it.
        let mut c = Controller::new(
            Asn(65001),
            LatencyModel::uniform_secs(10, 20),
            SimRng::new(3),
        );
        for _ in 0..50 {
            c.submit_announce(pfx("10.0.0.0/24"), SimTime::ZERO);
        }
        let due = c.due_actions(SimTime::from_secs(60));
        assert_eq!(due.len(), 50);
        for a in due {
            let d = a.effective_at.since(SimTime::ZERO);
            assert!(
                d >= SimDuration::from_secs(10) && d <= SimDuration::from_secs(20),
                "install delay {d} outside 10–20 s"
            );
        }
    }

    #[test]
    fn partial_drain_keeps_remainder() {
        let mut c = controller(10);
        c.submit_announce(pfx("10.0.0.0/24"), SimTime::ZERO);
        c.submit_announce(pfx("10.0.1.0/24"), SimTime::from_secs(100));
        assert_eq!(c.due_actions(SimTime::from_secs(10)).len(), 1);
        assert_eq!(c.next_action_time(), Some(SimTime::from_secs(110)));
        assert_eq!(c.intents().count(), 2);
    }
}

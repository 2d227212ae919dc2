//! The run loop over a simulated Internet: one [`ArtemisService`]
//! driven against an [`artemis_bgpsim::Engine`] through the service's
//! public API.
//!
//! The product crates know no simulator. This driver supplies what a
//! deployment's routers and collectors would: Loc-RIB deltas from the
//! engine go to the hub's push feeds, pull feeds read the engine's
//! RIBs through an [`EngineView`], and the controller intents the
//! service hands back are applied to the engine as originations.

use artemis_bgp::{Asn, BestRoute, Prefix};
use artemis_bgpsim::Engine;
use artemis_controller::IntentKind;
use artemis_core::{ArtemisService, IncidentEvent};
use artemis_feeds::RibView;
use artemis_simnet::SimTime;
use std::ops::ControlFlow;

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

/// How a [`run`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunEnd {
    /// Every clock domain drained — nothing left to do.
    Drained,
    /// The time horizon was reached first.
    Horizon,
    /// The observer returned [`ControlFlow::Break`].
    Stopped,
}

/// Summary of one [`run`] invocation.
#[derive(Debug, Clone, Copy)]
pub struct RunReport {
    /// Virtual time when the loop exited.
    pub ended_at: SimTime,
    /// Why the loop exited.
    pub end: RunEnd,
    /// Feed events delivered to the detector during this run.
    pub events_delivered: u64,
}

/// Drive the four interleaved clock domains — BGP engine, controller
/// installs, pull-feed polls, feed deliveries — from `start` until
/// `horizon`, everything drains, or the observer breaks.
///
/// Tie-break at equal instants: engine first so RIB views are current,
/// then controller installs, then polls, then feed deliveries. Feed
/// events due at the same instant are drained together and delivered
/// one at a time in `(emitted_at, ingestion order)`, each a batch of
/// one through [`ArtemisService::deliver`].
///
/// The observer reads the event log: after each delivered feed event
/// and after each controller instant it is shown, in order, the
/// entries that step appended, together with the engine (for
/// ground-truth measurements); returning [`ControlFlow::Break`] stops
/// the run. Every step is fully logged before the observer sees any of
/// it, and undelivered events go back to the hub, so a Break loses
/// nothing and a later `run` resumes where this one stopped. The
/// observer sees what the log retains: a step that appends more than
/// the log's capacity shows only the retained tail.
pub fn run<F>(
    service: &mut ArtemisService,
    engine: &mut Engine,
    start: SimTime,
    horizon: SimTime,
    mut observer: F,
) -> RunReport
where
    F: FnMut(&mut Engine, &IncidentEvent) -> ControlFlow<()>,
{
    let delivered_before = service.pipeline().events_delivered();
    let mut batch = Vec::new();
    let mut now = start;
    let end = 'run: loop {
        if now > horizon {
            break RunEnd::Horizon;
        }
        let hub = service.pipeline().hub();
        let t_engine = engine.next_event_time();
        let t_feed = hub.next_emission();
        let t_poll = hub.next_poll(now);
        let t_ctrl = service.controller().next_action_time();
        let Some(next) = [t_engine, t_feed, t_ctrl, t_poll]
            .into_iter()
            .flatten()
            .min()
        else {
            break RunEnd::Drained;
        };
        if next > horizon {
            break RunEnd::Horizon;
        }
        now = next;

        if t_engine == Some(next) {
            if let Some(changes) = engine.step() {
                service
                    .pipeline_mut()
                    .hub_mut()
                    .ingest_route_changes(&changes);
            }
            continue;
        }
        if t_ctrl == Some(next) {
            // The announcements only enter RIBs when the engine
            // processes them, so ground-truth reads in the observer
            // are unaffected by applying them first.
            let seen = service.event_log().live_cursor();
            for action in service.take_due_intents(next) {
                match action.kind {
                    IntentKind::Announce => {
                        engine.announce_at(action.origin_as, action.prefix, next);
                    }
                    IntentKind::Withdraw => {
                        engine.withdraw_at(action.origin_as, action.prefix, next);
                    }
                }
            }
            let flow = service
                .event_log()
                .iter_from(seen)
                .try_for_each(|e| observer(engine, e));
            if flow.is_break() {
                break RunEnd::Stopped;
            }
            continue;
        }
        if t_poll == Some(next) {
            let view = EngineView(engine);
            service.pipeline_mut().hub_mut().poll_and_queue(next, &view);
            continue;
        }

        // Each due event alone, so nothing is committed past an event
        // the observer has not seen; a Break hands the rest back.
        let pipeline = service.pipeline_mut();
        pipeline.apply_peer_downs(next);
        pipeline.hub_mut().drain_batch(next, &mut batch);
        let mut due = batch.drain(..);
        while let Some(event) = due.next() {
            let seen = service.event_log().live_cursor();
            service.deliver(&event);
            let flow = service
                .event_log()
                .iter_from(seen)
                .try_for_each(|e| observer(engine, e));
            if flow.is_break() {
                service.pipeline_mut().hub_mut().requeue(due);
                break 'run RunEnd::Stopped;
            }
        }
    };
    RunReport {
        ended_at: now,
        end,
        events_delivered: service.pipeline().events_delivered() - delivered_before,
    }
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

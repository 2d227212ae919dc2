//! Break-and-resume invariance of the simulator driver: a [`run`]
//! interrupted by `Break` at every action of a multi-event same-instant
//! batch — and at every event its observer sees, same-instant
//! controller installs included — then resumed, must match the
//! uninterrupted run. The driver commits each due event as a batch of
//! one, so every break falls between two walks of the pipeline's
//! commit. (That commit's own batch-boundary invariance — the same
//! outcome however a stream is cut into batches — is tested in
//! `artemis_core`.)

use artemis_bench::{run, RunEnd};
use artemis_bgp::{AsPath, Asn, BestRoute, Prefix, RelKind, RouteChange};
use artemis_bgpsim::{Engine, SimConfig};
use artemis_controller::Controller;
use artemis_core::config::OwnedPrefix;
use artemis_core::{ArtemisConfig, ArtemisService, EventCursor, IncidentEvent, Pipeline};
use artemis_feeds::vantage::group_into_collectors;
use artemis_feeds::{FeedHub, StreamFeed};
use artemis_simnet::{LatencyModel, SimRng, SimTime};
use artemis_topology::AsGraph;
use std::ops::ControlFlow;

const VPS: [u32; 3] = [174, 3356, 2914];
const OPERATOR: u32 = 65001;

fn pfx(s: &str) -> Prefix {
    s.parse().expect("literal prefix")
}

fn config() -> ArtemisConfig {
    ArtemisConfig::new(
        Asn(OPERATOR),
        vec![
            OwnedPrefix::new(pfx("10.0.0.0/23"), Asn(OPERATOR)),
            // Nested inside 10.0.0.0/23.
            OwnedPrefix::new(pfx("10.0.1.0/24"), Asn(OPERATOR)),
            OwnedPrefix::new(pfx("172.16.0.0/22"), Asn(OPERATOR)),
            OwnedPrefix::new(pfx("192.0.2.0/24"), Asn(OPERATOR)),
            OwnedPrefix::new(pfx("203.0.113.0/24"), Asn(OPERATOR)).dormant(),
        ],
    )
}

fn controller() -> Controller {
    Controller::new(Asn(OPERATOR), LatencyModel::const_secs(15), SimRng::new(7))
}

/// The whole retained event log, serialized (plus how much fell off
/// the ring, so a lossy comparison cannot pass by accident).
fn serialized_log(p: &Pipeline) -> String {
    let batch = p.poll_events(EventCursor::START);
    let events = serde_json::to_string(&batch.events).expect("events serialize");
    format!("missed={} {events}", batch.missed)
}

fn change(vp: u32, prefix: &str, origin: u32, t: u64) -> RouteChange {
    let path = AsPath::from_sequence([vp, 3356, origin]);
    RouteChange {
        time: SimTime::from_secs(t),
        asn: Asn(vp),
        prefix: pfx(prefix),
        old: None,
        new: Some(BestRoute {
            origin_as: path.origin().expect("non-empty path"),
            as_path: path,
            neighbor: Some(Asn(3356)),
            learned_from: Some(RelKind::Provider),
            local_pref: 100,
        }),
    }
}

/// A hub-fed service with a queued backlog whose first instant holds
/// several events that each produce actions (three alerts with their
/// mitigations), followed by heals that resolve them.
fn queued_service() -> ArtemisService {
    let vps: Vec<Asn> = VPS.iter().copied().map(Asn).collect();
    let mut hub = FeedHub::new(SimRng::new(11));
    hub.add(Box::new(
        StreamFeed::ris_live(group_into_collectors("rrc", &vps, 1))
            .with_export_delay(LatencyModel::const_secs(3)),
    ));
    let mut p = Pipeline::new(hub, config(), vps.into_iter().collect());
    p.hub_mut().ingest_route_changes(&[
        // One instant, five events, three of them raising alerts.
        change(174, "10.0.0.0/23", 666, 10),
        change(3356, "10.0.0.0/23", 666, 10),
        change(174, "192.0.2.0/24", 667, 10),
        change(2914, "8.8.8.0/24", 15169, 10),
        change(2914, "10.0.1.0/24", 666, 10),
        // Heals, again sharing an instant.
        change(174, "10.0.0.0/23", OPERATOR, 40),
        change(3356, "10.0.0.0/23", OPERATOR, 40),
        change(2914, "10.0.1.0/24", OPERATOR, 40),
        change(174, "192.0.2.0/24", OPERATOR, 41),
    ]);
    ArtemisService::new(p, controller())
}

/// Alerts, mitigations and resolutions: what the commit walk logs.
fn is_action(event: &IncidentEvent) -> bool {
    !matches!(event, IncidentEvent::ControllerApplied { .. })
}

/// Run to the horizon, breaking at the `stop_at`-th observed event for
/// which `counts` holds (if any) and then resuming. Returns the
/// serialized event log, the events delivered, and how many counted
/// events the observer saw in total.
fn run_with_break(
    stop_at: Option<usize>,
    counts: fn(&IncidentEvent) -> bool,
) -> (String, u64, usize) {
    let mut service = queued_service();
    let mut graph = AsGraph::new();
    graph.add_as(Asn(OPERATOR));
    let mut engine = Engine::new(graph, SimConfig::default(), 1);
    let horizon = SimTime::from_secs(600);

    let mut seen = 0usize;
    let mut start = SimTime::ZERO;
    let mut pending_stop = stop_at;
    loop {
        let report = run(&mut service, &mut engine, start, horizon, |_, ev| {
            if counts(ev) {
                seen += 1;
                if pending_stop == Some(seen - 1) {
                    pending_stop = None;
                    return ControlFlow::Break(());
                }
            }
            ControlFlow::Continue(())
        });
        if report.end != RunEnd::Stopped {
            break;
        }
        start = report.ended_at;
    }
    let p = service.pipeline();
    (serialized_log(p), p.events_delivered(), seen)
}

#[test]
fn run_broken_at_every_action_and_resumed_matches_the_uninterrupted_run() {
    let (log, delivered, actions) = run_with_break(None, is_action);
    assert_eq!(delivered, 9);
    assert!(
        actions >= 8,
        "alerts, mitigations and resolutions: {actions}"
    );
    assert!(log.contains("\"Resolved\""), "incidents heal: {log}");
    for k in 0..actions {
        let (broken_log, broken_delivered, _) = run_with_break(Some(k), is_action);
        assert_eq!(broken_log, log, "break at action {k}");
        assert_eq!(broken_delivered, delivered, "break at action {k}");
    }
}

#[test]
fn run_broken_at_every_observed_event_and_resumed_matches_the_uninterrupted_run() {
    // Same-instant mitigation installs are break points too: a Break
    // on the first of them must not cost the log the others, which the
    // engine has already applied.
    let (log, delivered, events) = run_with_break(None, |_| true);
    let installs = log.matches("\"ControllerApplied\"").count();
    assert!(installs >= 2, "several installs share an instant: {log}");
    for k in 0..events {
        let (broken_log, broken_delivered, _) = run_with_break(Some(k), |_| true);
        assert_eq!(broken_log, log, "break at observed event {k} of {events}");
        assert_eq!(broken_delivered, delivered, "break at observed event {k}");
    }
}

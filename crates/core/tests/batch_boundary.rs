//! Batch-boundary invariance: the staged commit is the only code that
//! walks events, and what it produces must not depend on how a stream
//! is cut into batches.
//!
//! * One generated stream — nested owned prefixes (so one event is
//!   routed to several monitors), hijacks and heals (so resolutions
//!   land mid-batch), mitigation echoes that dirty shard rules after
//!   the classify pass, a dormant prefix, and an operator confirmation
//!   between two deliveries (so a confirmed alert's resolution is due
//!   at the next batch's first event) — is
//!   delivered as one batch, as random splits, and as singletons
//!   through [`Pipeline::deliver`]; event log, alert store, live
//!   monitors, retired timelines and controller intents must come out
//!   byte-identical.
//! * A [`Pipeline::run`] interrupted by `Break` at every action of a
//!   multi-event same-instant batch — and at every event its observer
//!   sees, same-instant controller installs included — then resumed,
//!   must match the uninterrupted run.

use artemis_bgp::{AsPath, Asn, Prefix};
use artemis_bgpsim::{BestRoute, Engine, RouteChange, SimConfig};
use artemis_controller::Controller;
use artemis_core::config::OwnedPrefix;
use artemis_core::{ArtemisConfig, EventCursor, IncidentEvent, MitigationPolicy, Pipeline, RunEnd};
use artemis_feeds::vantage::group_into_collectors;
use artemis_feeds::{FeedEvent, FeedHub, FeedKind, StreamFeed};
use artemis_simnet::{LatencyModel, SimRng, SimTime};
use artemis_topology::{AsGraph, RelKind};
use proptest::prelude::*;
use std::ops::ControlFlow;

const VPS: [u32; 3] = [174, 3356, 2914];
const OPERATOR: u32 = 65001;
const FAR: u64 = 1 << 40;

fn pfx(s: &str) -> Prefix {
    s.parse().expect("literal prefix")
}

fn config() -> ArtemisConfig {
    ArtemisConfig::new(
        Asn(OPERATOR),
        vec![
            OwnedPrefix::new(pfx("10.0.0.0/23"), Asn(OPERATOR)),
            // Nested inside 10.0.0.0/23: concurrent incidents on the
            // pair produce nested monitor targets, so one event is
            // replayed into several monitors.
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

/// A hand-fed pipeline; 172.16.0.0/22 holds its plans for the operator.
fn pipeline() -> Pipeline {
    let mut p = Pipeline::bare(config(), VPS.iter().copied().map(Asn).collect());
    assert!(p.set_mitigation_policy(
        pfx("172.16.0.0/22"),
        MitigationPolicy::ConfirmFirst,
        SimTime::ZERO,
    ));
    p
}

fn event(vp: u32, prefix: &str, origin: Option<u32>, t: u64) -> FeedEvent {
    let as_path = origin.map(|o| AsPath::from_sequence([vp, 3356, o]));
    FeedEvent {
        emitted_at: SimTime::from_secs(t),
        observed_at: SimTime::from_secs(t.saturating_sub(4)),
        source: FeedKind::RisLive,
        collector: "rrc00".into(),
        vantage: Asn(vp),
        prefix: pfx(prefix),
        origin_as: as_path.as_ref().and_then(|p| p.origin()),
        as_path,
        raw: None,
    }
}

/// Decode one randomized `(kind, slot, t)` triple into a feed event.
/// Instants are whole seconds out of a small range, so many events
/// share one.
fn decode(kind: u8, slot: u8, t: u64) -> FeedEvent {
    let vp = VPS[(slot % 3) as usize];
    let (prefix, origin): (&str, u32) = match kind % 12 {
        0 => ("10.0.0.0/23", OPERATOR),     // benign exact / heals the /23
        1 => ("10.0.0.0/23", 666),          // exact-origin hijack
        2 => ("10.0.0.0/24", 666),          // sub-prefix hijack
        3 => ("172.16.1.0/24", OPERATOR),   // forged-origin sub-prefix (held plan)
        4 => ("192.0.2.0/24", 667),         // /24 hijack (infeasible deagg)
        5 => ("203.0.113.0/24", 31337),     // squat on the dormant prefix
        6 => ("8.8.8.0/24", 15169),         // unrelated noise
        7 => ("10.0.1.0/24", 666),          // hijack on the nested owned /24
        8 => ("10.0.1.0/24", OPERATOR),     // benign nested / mitigation echo
        9 => ("10.0.0.0/24", OPERATOR),     // mitigation echo (or forged origin before it)
        10 => ("203.0.113.0/24", OPERATOR), // squat mitigation echo
        _ => ("172.16.0.0/22", 668),        // exact hijack under ConfirmFirst
    };
    // Rare withdrawals.
    event(vp, prefix, (kind < 240).then_some(origin), t)
}

/// Fixed opening that parks one alert in the `recheck` set whatever
/// the random tail does: a ConfirmFirst hijack seen by one vantage
/// point heals *before* the operator confirms, so at confirmation its
/// monitor is already all-legitimate and only the recheck at the first
/// event of the next delivery can resolve it.
fn preamble() -> Vec<FeedEvent> {
    vec![
        event(174, "172.16.0.0/22", Some(669), 1),
        event(174, "172.16.0.0/22", Some(OPERATOR), 2),
    ]
}

/// The whole retained event log, serialized (plus how much fell off
/// the ring, so a lossy comparison cannot pass by accident).
fn serialized_log(p: &Pipeline) -> String {
    let batch = p.poll_events(EventCursor::START);
    let events = serde_json::to_string(&batch.events).expect("events serialize");
    format!("missed={} {events}", batch.missed)
}

/// Everything observable about a pipeline after a replay.
#[derive(Debug, PartialEq)]
struct Outcome {
    log: String,
    alerts: String,
    monitors: String,
    intents: String,
    delivered: u64,
}

enum Cut<'a> {
    /// Each phase is one batch.
    Whole,
    /// Each phase is cut after every listed per-mille position.
    At(&'a [u16]),
    /// Every event is its own batch, through `Pipeline::deliver`.
    Singletons,
}

fn deliver_phase(p: &mut Pipeline, ctrl: &mut Controller, phase: &[FeedEvent], cut: &Cut<'_>) {
    let mut batch = |p: &mut Pipeline, chunk: &[FeedEvent]| {
        p.hub_mut().requeue(chunk.iter().cloned());
        let n = p.deliver_due(SimTime::from_secs(FAR), ctrl, &mut []);
        assert_eq!(n, chunk.len() as u64);
    };
    match cut {
        Cut::Whole => batch(p, phase),
        Cut::At(permille) => {
            let mut bounds: Vec<usize> = permille
                .iter()
                .map(|m| phase.len() * usize::from(*m) / 1000)
                .collect();
            bounds.push(phase.len());
            bounds.sort_unstable();
            let mut start = 0;
            for end in bounds {
                batch(p, &phase[start..end]);
                start = end;
            }
        }
        Cut::Singletons => {
            for ev in phase {
                p.deliver(ev, ctrl, &mut []);
            }
        }
    }
}

/// Deliver `events[..confirm_at]`, confirm every held plan, deliver the
/// rest — each phase cut into batches as `cut` says.
fn replay(events: &[FeedEvent], confirm_at: usize, cut: Cut<'_>) -> Outcome {
    let mut p = pipeline();
    let mut ctrl = controller();
    let (before, after) = events.split_at(confirm_at);
    deliver_phase(&mut p, &mut ctrl, before, &cut);
    let now = before.last().map_or(SimTime::ZERO, |e| e.emitted_at);
    let held: Vec<_> = p.pending_mitigations().map(|(id, _)| id).collect();
    for id in held {
        p.confirm_mitigation(id, now, &mut ctrl, &mut [])
            .expect("listed as pending");
    }
    deliver_phase(&mut p, &mut ctrl, after, &cut);
    Outcome {
        log: serialized_log(&p),
        alerts: format!("{:?}", p.detector().alerts().all()),
        monitors: format!(
            "{:?} | {:?}",
            p.monitors().collect::<Vec<_>>(),
            p.retired_monitors().collect::<Vec<_>>()
        ),
        intents: format!("{:?}", ctrl.intents().collect::<Vec<_>>()),
        delivered: p.events_delivered(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn outcome_is_independent_of_batch_boundaries(
        spec in prop::collection::vec((0u8..=255, 0u8..=255, 3u64..120), 1..250),
        confirm_permille in 0u16..=1000,
        cuts in prop::collection::vec(0u16..=1000, 0..12),
    ) {
        let mut tail: Vec<FeedEvent> = spec.iter().map(|(k, s, t)| decode(*k, *s, *t)).collect();
        tail.sort_by_key(|e| e.emitted_at);
        let mut events = preamble();
        let confirm_at = events.len() + tail.len() * usize::from(confirm_permille) / 1000;
        events.extend(tail);

        let whole = replay(&events, confirm_at, Cut::Whole);
        let split = replay(&events, confirm_at, Cut::At(&cuts));
        let single = replay(&events, confirm_at, Cut::Singletons);
        prop_assert_eq!(&whole, &split, "random splits differ from one batch");
        prop_assert_eq!(&whole, &single, "singleton deliveries differ from one batch");
        prop_assert_eq!(whole.delivered, events.len() as u64);
    }
}

#[test]
fn confirmed_and_already_healed_incident_resolves_at_the_next_event_however_it_is_batched() {
    // The preamble alone, then one irrelevant event after the confirm:
    // only the recheck can resolve the alert, and it must do so at
    // that event in every batching.
    let mut events = preamble();
    events.push(event(2914, "8.8.8.0/24", Some(15169), 9));
    let whole = replay(&events, 2, Cut::Whole);
    assert!(
        whole.log.contains("\"Resolved\""),
        "recheck resolves the healed incident: {}",
        whole.log
    );
    assert_eq!(whole, replay(&events, 2, Cut::Singletons));
}

// ---- run(): Break at every action, resume, compare ------------------

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

/// A hub-fed pipeline with a queued backlog whose first instant holds
/// several events that each produce actions (three alerts with their
/// mitigations), followed by heals that resolve them.
fn queued_pipeline() -> Pipeline {
    let vps: Vec<Asn> = VPS.iter().copied().map(Asn).collect();
    let mut hub = FeedHub::new(SimRng::new(11));
    hub.add(Box::new(
        StreamFeed::ris_live(group_into_collectors("rrc", &vps, 1))
            .with_export_delay(LatencyModel::const_secs(3)),
    ));
    let mut p = Pipeline::new(hub, config(), vps.into_iter().collect());
    p.ingest_route_changes(&[
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
    p
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
    let mut p = queued_pipeline();
    let mut ctrl = controller();
    let mut graph = AsGraph::new();
    graph.add_as(Asn(OPERATOR));
    let mut engine = Engine::new(graph, SimConfig::default(), 1);
    let horizon = SimTime::from_secs(600);

    let mut seen = 0usize;
    let mut start = SimTime::ZERO;
    let mut pending_stop = stop_at;
    loop {
        let report = p.run(&mut engine, &mut ctrl, &mut [], start, horizon, |_, ev| {
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
    (serialized_log(&p), p.events_delivered(), seen)
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

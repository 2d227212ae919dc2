//! Batch-boundary invariance: the pipeline's commit — a classify pass
//! over the batch, then one ordered walk that detects, feeds each
//! concerned monitor and resolves, event by event — is the only code
//! that walks events, and what it produces must not depend on how a
//! stream is cut into batches.
//!
//! * One generated stream — nested owned prefixes (so one event is
//!   routed to several monitors), an owned IPv6 prefix, hijacks and
//!   heals (so resolutions land mid-batch), mitigation echoes that
//!   dirty shard rules after the classify pass, a dormant prefix, and
//!   an operator confirmation between two deliveries (so a confirmed
//!   alert's resolution is due at the next batch's first event) — is
//!   delivered as one batch, as random splits, and as singletons
//!   through [`Pipeline::deliver`]; event log, alert store, live
//!   monitors, retired timelines and controller intents must come out
//!   byte-identical.
//! * Fixed streams pin the walk's own edge cases: an incident raised,
//!   mitigated and healed inside one batch, two incidents healed by
//!   the same event, and a confirmed incident that only the recheck
//!   at the next batch's first event can resolve.
//!
//! The simulator driver's own break-and-resume invariance is tested
//! beside it, in `artemis_bench`'s `tests/batch_boundary.rs`.

use artemis_bgp::{AsPath, Asn, Prefix};
use artemis_controller::Controller;
use artemis_core::config::OwnedPrefix;
use artemis_core::{
    AlertId, ArtemisConfig, EventCursor, IncidentEvent, MitigationPolicy, Pipeline,
};
use artemis_feeds::{FeedEvent, FeedKind};
use artemis_simnet::{LatencyModel, SimRng, SimTime};
use proptest::prelude::*;

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
            OwnedPrefix::new(pfx("2001:db8::/32"), Asn(OPERATOR)),
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
    FeedEvent::new(
        SimTime::from_secs(t),
        SimTime::from_secs(t.saturating_sub(4)),
        FeedKind::RisLive,
        Asn(vp),
        pfx(prefix),
        origin
            .map(|o| AsPath::from_sequence([vp, 3356, o]))
            .as_ref(),
        None,
    )
}

/// Decode one randomized `(kind, slot, t)` triple into a feed event.
/// Instants are whole seconds out of a small range, so many events
/// share one.
fn decode(kind: u8, slot: u8, t: u64) -> FeedEvent {
    let vp = VPS[(slot % 3) as usize];
    let (prefix, origin): (&str, u32) = match kind % 15 {
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
        11 => ("172.16.0.0/22", 668),       // exact hijack under ConfirmFirst
        12 => ("2001:db8::/32", 666),       // IPv6 exact-origin hijack
        13 => ("2001:db8::/32", OPERATOR),  // benign IPv6 exact / heals the /32
        _ => ("2001:db8::/33", OPERATOR),   // IPv6 mitigation echo
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
        let n = p.deliver_due(SimTime::from_secs(FAR), ctrl);
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
                p.deliver(ev, ctrl);
            }
        }
    }
}

/// Deliver `events[..confirm_at]`, confirm every held plan, deliver the
/// rest — each phase cut into batches as `cut` says.
fn run(events: &[FeedEvent], confirm_at: usize, cut: &Cut<'_>) -> (Pipeline, Controller) {
    let mut p = pipeline();
    let mut ctrl = controller();
    let (before, after) = events.split_at(confirm_at);
    deliver_phase(&mut p, &mut ctrl, before, cut);
    let now = before.last().map_or(SimTime::ZERO, |e| e.emitted_at);
    let held: Vec<_> = p.pending_mitigations().map(|(id, _)| id).collect();
    for id in held {
        p.confirm_mitigation(id, now, &mut ctrl)
            .expect("listed as pending");
    }
    deliver_phase(&mut p, &mut ctrl, after, cut);
    (p, ctrl)
}

/// [`run`], reduced to everything observable.
fn replay(events: &[FeedEvent], confirm_at: usize, cut: Cut<'_>) -> Outcome {
    let (p, ctrl) = run(events, confirm_at, &cut);
    Outcome {
        log: serialized_log(&p),
        alerts: format!("{:?}", p.detector().alerts().all()),
        monitors: format!(
            "{:?} | {:?}",
            p.monitors().collect::<Vec<_>>(),
            p.detector()
                .alerts()
                .all()
                .iter()
                .filter_map(|a| p.retired_monitor(a.id))
                .collect::<Vec<_>>()
        ),
        intents: format!("{:?}", ctrl.intents().collect::<Vec<_>>()),
        delivered: p.events_delivered(),
    }
}

/// Every `Resolved` entry of the log, in log order.
fn resolutions(p: &Pipeline) -> Vec<(AlertId, SimTime)> {
    p.poll_events(EventCursor::START)
        .events
        .into_iter()
        .filter_map(|e| match e {
            IncidentEvent::Resolved { alert, at } => Some((alert, at)),
            _ => None,
        })
        .collect()
}

/// 48 cases, or `PROPTEST_CASES` when set (`with_cases` alone would
/// override the variable).
fn cases() -> ProptestConfig {
    if std::env::var_os("PROPTEST_CASES").is_some() {
        ProptestConfig::default()
    } else {
        ProptestConfig::with_cases(48)
    }
}

proptest! {
    #![proptest_config(cases())]

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

#[test]
fn incident_raised_mitigated_and_healed_in_one_batch_resolves_at_the_singleton_event() {
    // The alert, its monitor and its mitigation are all born at the
    // second event; the echo of the plan's first half heals the only
    // hijacked vantage point two events later.
    let events = [
        event(3356, "8.8.8.0/24", Some(15169), 10),
        event(174, "10.0.0.0/23", Some(666), 11),
        event(2914, "192.0.2.0/24", Some(OPERATOR), 12),
        event(174, "10.0.0.0/24", Some(OPERATOR), 13),
        event(3356, "8.8.8.0/24", Some(15169), 14),
    ];
    let (whole, _) = run(&events, events.len(), &Cut::Whole);
    let (single, _) = run(&events, events.len(), &Cut::Singletons);
    let healed = resolutions(&whole);
    assert_eq!(healed.len(), 1, "one incident, resolved once: {healed:?}");
    assert_eq!(healed[0].1, SimTime::from_secs(13), "at the echo");
    assert_eq!(healed, resolutions(&single));
    assert_eq!(
        replay(&events, events.len(), Cut::Whole),
        replay(&events, events.len(), Cut::Singletons)
    );
}

#[test]
fn incidents_healed_by_the_same_event_resolve_in_id_order() {
    // A hijack of the /23, then of the owned /24 nested in it: two
    // mitigated incidents, both seen only by AS174. Its route back to
    // the operator for the /24 is the longest match in both monitored
    // spaces, so that one event heals both.
    let events = [
        event(174, "10.0.0.0/23", Some(666), 10),
        event(174, "10.0.1.0/24", Some(666), 11),
        event(174, "10.0.1.0/24", Some(OPERATOR), 12),
    ];
    for cut in [Cut::Whole, Cut::Singletons] {
        let (p, _) = run(&events, events.len(), &cut);
        let raised: Vec<AlertId> = p.detector().alerts().all().iter().map(|a| a.id).collect();
        assert_eq!(raised.len(), 2, "two incidents");
        let at = SimTime::from_secs(12);
        assert_eq!(
            resolutions(&p),
            vec![(raised[0], at), (raised[1], at)],
            "one event, ascending ids"
        );
    }
}

//! Mitigation leaves the process only as events: a consumer that reads
//! nothing but the incident event stream (`/v1/events`, a webhook) can
//! rebuild every route intent the controller was handed.
//!
//! * Announcements are the union of `MitigationTriggered.plan.announce`.
//! * Withdrawals are implied by `PrefixOffboarded { prefix }`: every
//!   plan triggered since the previous offboard of that prefix, for an
//!   alert whose `AlertRaised.owned_prefix` is the prefix, in alert-id
//!   order. Plans of naturally resolved incidents are included, although
//!   `closed_alerts` lists only the alerts still open at the offboard.

use artemis_repro::bgp::AsPath;
use artemis_repro::controller::{Controller, IntentKind};
use artemis_repro::core::{
    AlertId, ArtemisService, CommandOutcome, EventCursor, IncidentEvent, MitigationPlan,
    OffboardReport, OwnedPrefix, ServiceCommand,
};
use artemis_repro::feeds::{FeedEvent, FeedKind};
use artemis_repro::prelude::*;
use artemis_repro::simnet::{LatencyModel, SimRng};
use std::collections::BTreeMap;

const ORIGIN: Asn = Asn(65001);

fn pfx(s: &str) -> Prefix {
    s.parse().unwrap()
}

fn event(vp: u32, prefix: &str, path: &[u32], t: u64) -> FeedEvent {
    FeedEvent::new(
        SimTime::from_secs(t),
        SimTime::from_secs(t - 5),
        FeedKind::RisLive,
        Asn(vp),
        pfx(prefix),
        Some(&AsPath::from_sequence(path.iter().copied())),
        None,
    )
}

fn apply(service: &mut ArtemisService, cmd: ServiceCommand, t: u64) -> CommandOutcome {
    service
        .apply(cmd, SimTime::from_secs(t))
        .expect("command applies")
}

fn offboard(service: &mut ArtemisService, prefix: &str, t: u64) -> OffboardReport {
    let prefix = pfx(prefix);
    match apply(service, ServiceCommand::RemoveOwnedPrefix { prefix }, t) {
        CommandOutcome::PrefixRemoved(report) => report,
        other => panic!("offboard answered {other:?}"),
    }
}

fn hijack(service: &mut ArtemisService, vp: u32, prefix: &str, t: u64) -> AlertId {
    service
        .deliver(&event(vp, prefix, &[vp, 666], t))
        .expect("the hijack raises an alert")
}

/// The controller's intents of one kind, in submission order.
fn intents(controller: &Controller, kind: IntentKind) -> Vec<Prefix> {
    controller
        .intents()
        .filter(|i| i.kind == kind)
        .map(|i| i.prefix)
        .collect()
}

/// Announces and withdraws rebuilt from the event stream alone.
fn rebuild(events: &[IncidentEvent]) -> (Vec<Prefix>, Vec<Prefix>) {
    let mut owned_of: BTreeMap<AlertId, Prefix> = BTreeMap::new();
    let mut installed: BTreeMap<Prefix, BTreeMap<AlertId, &MitigationPlan>> = BTreeMap::new();
    let (mut announces, mut withdraws) = (Vec::new(), Vec::new());
    for event in events {
        match event {
            IncidentEvent::AlertRaised {
                alert,
                owned_prefix,
                ..
            } => {
                owned_of.insert(*alert, *owned_prefix);
            }
            IncidentEvent::MitigationTriggered { alert, plan, .. } => {
                assert!(plan.helper_announce.is_empty(), "no helper AS here");
                announces.extend(&plan.announce);
                installed
                    .entry(owned_of[alert])
                    .or_default()
                    .insert(*alert, plan);
            }
            IncidentEvent::PrefixOffboarded { prefix, .. } => {
                for plan in installed.remove(prefix).unwrap_or_default().values() {
                    withdraws.extend(&plan.announce);
                }
            }
            _ => {}
        }
    }
    (announces, withdraws)
}

#[test]
fn announces_and_withdraws_rebuild_from_the_event_stream_alone() {
    let (auto, confirmed, pending) = ("10.0.0.0/23", "172.16.0.0/23", "192.168.0.0/23");
    let config = ArtemisConfig::new(
        ORIGIN,
        [auto, confirmed, pending]
            .map(|p| OwnedPrefix::new(pfx(p), ORIGIN))
            .to_vec(),
    );
    let pipeline = Pipeline::bare(config, [Asn(174), Asn(3356)].into_iter().collect());
    let controller = Controller::new(ORIGIN, LatencyModel::const_secs(15), SimRng::new(1));
    let mut service = ArtemisService::new(pipeline, controller);
    for (prefix, t) in [(confirmed, 1), (pending, 2)] {
        let cmd = ServiceCommand::SetMitigationPolicy {
            prefix: pfx(prefix),
            policy: MitigationPolicy::ConfirmFirst,
        };
        apply(&mut service, cmd, t);
    }

    // 1. An auto-mitigated hijack.
    let first = hijack(&mut service, 174, auto, 45);
    // 2. Two confirm-first hijacks: one confirmed, one left pending.
    let held = hijack(&mut service, 3356, confirmed, 50);
    hijack(&mut service, 174, pending, 52);
    apply(
        &mut service,
        ServiceCommand::ConfirmMitigation { alert: held },
        55,
    );
    // 3. The vantage point's route to the auto prefix flips back to the
    // legitimate origin: the incident resolves on its own, and its
    // de-aggregated announcements stay installed.
    service.deliver(&event(174, "10.0.0.0/24", &[174, 65001], 80));
    // 4. Offboard every prefix. The resolved incident is not among the
    // closed alerts, yet its plan is withdrawn.
    let report = offboard(&mut service, auto, 90);
    assert!(report.closed_alerts.is_empty(), "{report:?}");
    assert_eq!(report.withdrawn_plans, 1);
    offboard(&mut service, confirmed, 91);
    offboard(&mut service, pending, 92);
    // 5. Re-onboard the auto prefix, hijack it again, offboard it again.
    let cmd = ServiceCommand::AddOwnedPrefix {
        owned: OwnedPrefix::new(pfx(auto), ORIGIN),
        policy: None,
    };
    apply(&mut service, cmd, 100);
    let second = hijack(&mut service, 174, auto, 110);
    assert_ne!(second, first, "a re-onboarded prefix opens a new incident");
    offboard(&mut service, auto, 120);

    let batch = service.poll_events(EventCursor::START);
    assert_eq!(batch.missed, 0, "the log kept the whole run");
    let (announces, withdraws) = rebuild(&batch.events);
    let controller = service.controller();
    assert_eq!(announces, intents(controller, IntentKind::Announce));
    assert_eq!(withdraws, intents(controller, IntentKind::Withdraw));
    // Three executed plans, two /24s each; all three were withdrawn.
    assert_eq!(announces.len(), 6);
    assert_eq!(withdraws.len(), 6);
}

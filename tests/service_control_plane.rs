//! End-to-end operator control plane (ISSUE 4 acceptance): a single
//! [`ArtemisService`] run that, mid-stream,
//!
//! 1. onboards a second owned prefix,
//! 2. detects and mitigates a hijack against it under a *swapped*
//!    per-prefix policy (confirm-first, approved via command),
//! 3. detaches a feed,
//! 4. offboards the first prefix while an incident on it is still
//!    active (monitors freeze, no orphaned mitigation intents),
//!
//! with the full sequence observable via `poll_events` from two
//! independent cursors yielding identical `IncidentEvent` histories.

use artemis_repro::bench::run;
use artemis_repro::bgpsim::{Engine, SimConfig};
use artemis_repro::controller::{Controller, IntentKind};
use artemis_repro::core::config::OwnedPrefix;
use artemis_repro::core::service::{CommandOutcome, ServiceCommand};
use artemis_repro::core::{
    AlertState, ArtemisService, EventCursor, IncidentEvent, MitigationPolicy,
};
use artemis_repro::feeds::vantage::group_into_collectors;
use artemis_repro::feeds::{FeedHub, StreamFeed};
use artemis_repro::prelude::*;
use artemis_repro::simnet::{LatencyModel, SimRng};
use artemis_repro::topology::{generate, TopologyConfig};
use std::collections::BTreeSet;
use std::ops::ControlFlow;

const SEED: u64 = 7;

/// Drive the service until `until`, letting everything due happen.
fn run_until(service: &mut ArtemisService, engine: &mut Engine, from: SimTime, until: SimTime) {
    run(service, engine, from, until, |_, _| {
        ControlFlow::Continue(())
    });
}

#[test]
fn one_service_run_reconfigures_mid_stream() {
    let mut rng = SimRng::new(SEED);
    let topo = generate(&TopologyConfig::tiny(), &mut rng);
    let victim = topo.stubs[0];
    let attacker_a = topo.stubs[topo.stubs.len() / 2];
    let attacker_b = *topo.stubs.last().expect("stubs exist");

    let p1: Prefix = "10.0.0.0/23".parse().unwrap();
    let p2: Prefix = "172.16.0.0/23".parse().unwrap();

    let vps: Vec<Asn> = topo
        .tier1
        .iter()
        .chain(topo.transit.iter())
        .copied()
        .collect();
    let vp_set: BTreeSet<Asn> = vps.iter().copied().collect();

    let mut hub = FeedHub::new(SimRng::new(SEED ^ 0xFEED));
    let _ris = hub.add(Box::new(
        StreamFeed::ris_live(group_into_collectors("rrc", &vps, 2))
            .with_export_delay(LatencyModel::uniform_secs(3, 9)),
    ));
    let bmon = hub.add(Box::new(
        StreamFeed::bgpmon(group_into_collectors("bmon", &vps, 1))
            .with_export_delay(LatencyModel::uniform_secs(20, 60)),
    ));

    // The service starts owning only p1.
    let config = ArtemisConfig::new(victim, vec![OwnedPrefix::new(p1, victim)]);
    let pipeline = Pipeline::new(hub, config, vp_set);
    let controller = Controller::new(
        victim,
        LatencyModel::uniform_secs(10, 20),
        SimRng::new(SEED ^ 0xC001),
    );
    let mut service = ArtemisService::new(pipeline, controller);
    let mut engine = Engine::new(topo.graph.clone(), SimConfig::default(), SEED);

    // Two independent event consumers with their own cursors: A polls
    // after every stage, B polls only once at the very end.
    let mut cursor_a = EventCursor::START;
    let mut history_a: Vec<IncidentEvent> = Vec::new();
    let mut poll_a = |svc: &ArtemisService, cursor: &mut EventCursor| {
        let batch = svc.poll_events(*cursor);
        assert_eq!(batch.missed, 0, "consumer A keeps up");
        *cursor = batch.next;
        history_a.extend(batch.events);
    };

    // ---- Stage 0: p1 converges --------------------------------------
    service.pipeline_mut().expect_announcement(p1);
    engine.announce(victim, p1);
    let changes = engine.run_to_quiescence(10_000_000);
    service
        .pipeline_mut()
        .hub_mut()
        .ingest_route_changes(&changes);
    let converged = engine.now();
    let mut now = converged;
    poll_a(&service, &mut cursor_a);

    // ---- Stage 1: onboard p2 mid-stream, swap its policy ------------
    let out = service
        .apply(
            ServiceCommand::AddOwnedPrefix {
                owned: OwnedPrefix::new(p2, victim),
                policy: None,
            },
            now,
        )
        .unwrap();
    assert_eq!(out, CommandOutcome::PrefixAdded { prefix: p2 });
    assert_eq!(
        service.pipeline().mitigation_policy(p2),
        MitigationPolicy::Auto,
        "default policy before the swap"
    );
    service
        .apply(
            ServiceCommand::SetMitigationPolicy {
                prefix: p2,
                policy: MitigationPolicy::ConfirmFirst,
            },
            now,
        )
        .unwrap();
    service.pipeline_mut().expect_announcement(p2);
    engine.announce_at(victim, p2, now + SimDuration::from_secs(1));
    run_until(
        &mut service,
        &mut engine,
        now,
        now + SimDuration::from_mins(10),
    );
    now += SimDuration::from_mins(10);
    poll_a(&service, &mut cursor_a);

    // ---- Stage 2: hijack p2 under the swapped (confirm-first) policy
    engine.announce_at(attacker_a, p2, now + SimDuration::from_secs(5));
    run_until(
        &mut service,
        &mut engine,
        now,
        now + SimDuration::from_mins(5),
    );
    now += SimDuration::from_mins(5);
    poll_a(&service, &mut cursor_a);

    let pending: Vec<_> = service
        .pipeline()
        .pending_mitigations()
        .map(|(id, plan)| (id, plan.clone()))
        .collect();
    assert_eq!(pending.len(), 1, "alert raised, plan held for approval");
    let (alert_p2, _) = pending[0].clone();
    assert_eq!(
        service.controller().intents().count(),
        0,
        "confirm-first holds intents back"
    );

    // The operator approves; mitigation executes and the incident
    // resolves like any auto-mitigated one.
    let out = service
        .apply(ServiceCommand::ConfirmMitigation { alert: alert_p2 }, now)
        .unwrap();
    assert!(matches!(
        out,
        CommandOutcome::MitigationConfirmed { alert, .. } if alert == alert_p2
    ));
    assert!(service.controller().intents().count() > 0);
    run_until(
        &mut service,
        &mut engine,
        now,
        now + SimDuration::from_mins(30),
    );
    now += SimDuration::from_mins(30);
    poll_a(&service, &mut cursor_a);
    assert_eq!(
        service
            .pipeline()
            .detector()
            .alerts()
            .get(alert_p2)
            .unwrap()
            .state,
        AlertState::Resolved,
        "p2 incident resolves under the confirmed plan"
    );

    // ---- Stage 3: hijack p1 (Auto), then detach a feed and offboard
    // p1 while its incident is still open. The observer breaks the run
    // the instant p1's auto-mitigation triggers, so the offboard
    // happens mid-incident deterministically.
    engine.announce_at(attacker_b, p1, now + SimDuration::from_secs(5));
    let report = run(
        &mut service,
        &mut engine,
        now,
        now + SimDuration::from_mins(30),
        |_, event| match event {
            IncidentEvent::MitigationTriggered { plan, .. } if p1.contains(plan.target) => {
                ControlFlow::Break(())
            }
            _ => ControlFlow::Continue(()),
        },
    );
    now = report.ended_at;
    poll_a(&service, &mut cursor_a);
    let alert_p1 = service
        .pipeline()
        .detector()
        .alerts()
        .all()
        .iter()
        .find(|a| a.owned_prefix == p1)
        .map(|a| a.id)
        .expect("hijack of p1 detected");
    assert_ne!(
        service
            .pipeline()
            .detector()
            .alerts()
            .get(alert_p1)
            .unwrap()
            .state,
        AlertState::Resolved,
        "p1 incident still open when we offboard"
    );

    let out = service.apply(ServiceCommand::DetachFeed { handle: bmon }, now);
    let Ok(CommandOutcome::FeedDetached { handle, .. }) = out else {
        panic!("detach must succeed: {out:?}");
    };
    assert_eq!(handle, bmon);
    assert_eq!(service.pipeline().hub().len(), 1);

    let out = service
        .apply(ServiceCommand::RemoveOwnedPrefix { prefix: p1 }, now)
        .unwrap();
    let CommandOutcome::PrefixRemoved(report) = out else {
        panic!("expected PrefixRemoved, got {out:?}");
    };
    assert!(report.closed_alerts.contains(&alert_p1));
    assert_eq!(report.withdrawn_plans, 1, "executed plan withdrawn");

    // Monitors retired: the p1 monitor's record ignores everything
    // after the offboard instant.
    let frozen_len = service
        .pipeline()
        .retired_monitor(alert_p1)
        .expect("record kept for reporting")
        .timeline()
        .len();
    run_until(
        &mut service,
        &mut engine,
        now,
        now + SimDuration::from_mins(10),
    );
    now += SimDuration::from_mins(10);
    poll_a(&service, &mut cursor_a);
    assert_eq!(
        service
            .pipeline()
            .retired_monitor(alert_p1)
            .unwrap()
            .timeline()
            .len(),
        frozen_len,
        "retired record changes nothing after offboard"
    );

    // No orphaned mitigation intents: every announce inside p1's space
    // has a matching withdraw.
    let in_p1 = |p: &Prefix| p1.contains(*p);
    let announces = service
        .controller()
        .intents()
        .filter(|i| i.kind == IntentKind::Announce && in_p1(&i.prefix))
        .count();
    let withdraws = service
        .controller()
        .intents()
        .filter(|i| i.kind == IntentKind::Withdraw && in_p1(&i.prefix))
        .count();
    assert!(announces > 0, "p1 auto-mitigation did announce");
    assert_eq!(announces, withdraws, "offboard orphaned an intent");

    // ---- The event stream tells the whole story, identically, to
    // both consumers.
    let batch_b = service.poll_events(EventCursor::START);
    assert_eq!(batch_b.missed, 0);
    assert_eq!(
        history_a, batch_b.events,
        "independent cursors replay identical histories"
    );

    let positions = |pred: &dyn Fn(&IncidentEvent) -> bool| -> Vec<usize> {
        history_a
            .iter()
            .enumerate()
            .filter(|(_, e)| pred(e))
            .map(|(i, _)| i)
            .collect()
    };
    let onboard =
        positions(&|e| matches!(e, IncidentEvent::PrefixOnboarded { prefix, .. } if *prefix == p2));
    let policy = positions(&|e| {
        matches!(e, IncidentEvent::PolicyChanged { prefix, policy, .. }
        if *prefix == p2 && *policy == MitigationPolicy::ConfirmFirst)
    });
    let pending_ev = positions(
        &|e| matches!(e, IncidentEvent::MitigationPending { alert, .. } if *alert == alert_p2),
    );
    let triggered = positions(
        &|e| matches!(e, IncidentEvent::MitigationTriggered { alert, .. } if *alert == alert_p2),
    );
    let resolved =
        positions(&|e| matches!(e, IncidentEvent::Resolved { alert, .. } if *alert == alert_p2));
    let detached =
        positions(&|e| matches!(e, IncidentEvent::FeedDetached { handle, .. } if *handle == bmon));
    let offboard = positions(
        &|e| matches!(e, IncidentEvent::PrefixOffboarded { prefix, .. } if *prefix == p1),
    );
    for (name, p) in [
        ("onboard", &onboard),
        ("policy", &policy),
        ("pending", &pending_ev),
        ("triggered", &triggered),
        ("resolved", &resolved),
        ("detached", &detached),
        ("offboard", &offboard),
    ] {
        assert!(!p.is_empty(), "event stream must contain {name}");
    }
    let order = [
        onboard[0],
        policy[0],
        pending_ev[0],
        triggered[0],
        resolved[0],
        detached[0],
        offboard[0],
    ];
    let mut sorted = order;
    sorted.sort_unstable();
    assert_eq!(order, sorted, "lifecycle events appear in causal order");
}

#[test]
fn control_plane_runs_are_deterministic() {
    // The full reconfiguration scenario above is deterministic per
    // seed: two fresh services replay byte-identical event histories.
    let run = |seed: u64| -> Vec<IncidentEvent> {
        let mut rng = SimRng::new(seed);
        let topo = generate(&TopologyConfig::tiny(), &mut rng);
        let victim = topo.stubs[0];
        let attacker = *topo.stubs.last().expect("stubs exist");
        let p1: Prefix = "10.0.0.0/23".parse().unwrap();
        let vps: Vec<Asn> = topo
            .tier1
            .iter()
            .chain(topo.transit.iter())
            .copied()
            .collect();
        let mut hub = FeedHub::new(SimRng::new(seed ^ 0xFEED));
        hub.add(Box::new(
            StreamFeed::ris_live(group_into_collectors("rrc", &vps, 2))
                .with_export_delay(LatencyModel::uniform_secs(3, 9)),
        ));
        let config = ArtemisConfig::new(victim, vec![OwnedPrefix::new(p1, victim)]);
        let pipeline = Pipeline::new(hub, config, vps.iter().copied().collect());
        let controller = Controller::new(
            victim,
            LatencyModel::uniform_secs(10, 20),
            SimRng::new(seed ^ 0xC001),
        );
        let mut service = ArtemisService::new(pipeline, controller);
        let mut engine = Engine::new(topo.graph.clone(), SimConfig::default(), seed);
        service.pipeline_mut().expect_announcement(p1);
        engine.announce(victim, p1);
        let changes = engine.run_to_quiescence(10_000_000);
        service
            .pipeline_mut()
            .hub_mut()
            .ingest_route_changes(&changes);
        let converged = engine.now();
        engine.announce_at(attacker, p1, converged + SimDuration::from_secs(30));
        run_until(
            &mut service,
            &mut engine,
            converged,
            converged + SimDuration::from_mins(60),
        );
        service.poll_events(EventCursor::START).events
    };
    let a = run(SEED);
    let b = run(SEED);
    assert!(!a.is_empty());
    assert_eq!(a, b);
}

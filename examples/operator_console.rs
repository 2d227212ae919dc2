//! The operator control plane, end to end: drive a live
//! [`ArtemisService`] through its typed command / query / event
//! surfaces — onboard a prefix mid-run, watch a hijack get caught
//! under a swapped (confirm-first) policy, approve the mitigation,
//! detach a feed, offboard a prefix — and replay the whole story from
//! the owned [`IncidentEvent`] stream with two independent cursors.
//!
//! ```sh
//! cargo run --release --example operator_console [seed]
//! ```

use artemis_repro::bench::run;
use artemis_repro::bgpsim::{Engine, SimConfig};
use artemis_repro::controller::Controller;
use artemis_repro::core::config::OwnedPrefix;
use artemis_repro::core::service::{CommandOutcome, ServiceCommand, ServiceQuery, ServiceReply};
use artemis_repro::core::{ArtemisService, EventCursor, IncidentEvent, MitigationPolicy};
use artemis_repro::feeds::vantage::group_into_collectors;
use artemis_repro::feeds::{FeedHub, StreamFeed};
use artemis_repro::prelude::*;
use artemis_repro::simnet::{LatencyModel, SimRng};
use artemis_repro::topology::{generate, TopologyConfig};
use std::collections::BTreeSet;
use std::ops::ControlFlow;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);

    // --- The world ----------------------------------------------------
    let mut rng = SimRng::new(seed);
    let topo = generate(&TopologyConfig::tiny(), &mut rng);
    let victim = topo.stubs[0];
    let attacker = *topo.stubs.last().expect("stubs exist");
    let p1: Prefix = "10.0.0.0/23".parse().expect("valid");
    let p2: Prefix = "172.16.0.0/23".parse().expect("valid");

    let vps: Vec<Asn> = topo
        .tier1
        .iter()
        .chain(topo.transit.iter())
        .copied()
        .collect();
    let vp_set: BTreeSet<Asn> = vps.iter().copied().collect();

    let mut hub = FeedHub::new(SimRng::new(seed ^ 0xFEED));
    let ris = hub.add(Box::new(
        StreamFeed::ris_live(group_into_collectors("rrc", &vps, 2))
            .with_export_delay(LatencyModel::uniform_secs(3, 9)),
    ));

    // The service boots owning only p1.
    let config = ArtemisConfig::new(victim, vec![OwnedPrefix::new(p1, victim)]);
    let pipeline = Pipeline::new(hub, config, vp_set);
    let controller = Controller::new(
        victim,
        LatencyModel::uniform_secs(10, 20),
        SimRng::new(seed ^ 0xC001),
    );
    let mut service = ArtemisService::new(pipeline, controller);
    let mut engine = Engine::new(topo.graph.clone(), SimConfig::default(), seed);

    println!("=== ARTEMIS operator console (seed {seed}) ===\n");

    // Two independent event consumers: a "dashboard" polling after
    // every step and an "audit log" polling once at the very end.
    let mut dashboard_cursor = EventCursor::START;
    let mut dashboard: Vec<IncidentEvent> = Vec::new();

    // --- Boot: p1 converges -------------------------------------------
    service.pipeline_mut().expect_announcement(p1);
    engine.announce(victim, p1);
    let changes = engine.run_to_quiescence(10_000_000);
    service
        .pipeline_mut()
        .hub_mut()
        .ingest_route_changes(&changes);
    let mut now = engine.now();
    println!("boot: operator {victim} announces {p1}; converged at {now}");

    // --- Command: onboard p2, then swap its policy --------------------
    let out = service
        .apply(
            ServiceCommand::AddOwnedPrefix {
                owned: OwnedPrefix::new(p2, victim),
                policy: None,
            },
            now,
        )
        .expect("fresh prefix");
    println!("apply AddOwnedPrefix     -> {out:?}");
    let out = service
        .apply(
            ServiceCommand::SetMitigationPolicy {
                prefix: p2,
                policy: MitigationPolicy::ConfirmFirst,
            },
            now,
        )
        .expect("owned prefix");
    println!("apply SetMitigationPolicy-> {out:?}");
    service.pipeline_mut().expect_announcement(p2);
    engine.announce_at(victim, p2, now + SimDuration::from_secs(1));
    run(
        &mut service,
        &mut engine,
        now,
        now + SimDuration::from_mins(10),
        |_, _| ControlFlow::Continue(()),
    );
    now += SimDuration::from_mins(10);
    drain(&service, &mut dashboard_cursor, &mut dashboard);

    // --- The hijack: caught, but held for approval --------------------
    println!("\n{attacker} hijacks {p2}…");
    engine.announce_at(attacker, p2, now + SimDuration::from_secs(5));
    run(
        &mut service,
        &mut engine,
        now,
        now + SimDuration::from_mins(5),
        |_, _| ControlFlow::Continue(()),
    );
    now += SimDuration::from_mins(5);
    drain(&service, &mut dashboard_cursor, &mut dashboard);

    let ServiceReply::Incidents(incidents) = service.query(ServiceQuery::Incidents, now) else {
        unreachable!("Incidents query answers with Incidents");
    };
    for i in &incidents {
        println!(
            "incident #{}: {} on {} — phase {:?}",
            i.alert.0, i.hijack_type, i.owned_prefix, i.phase
        );
    }
    let held = service
        .pipeline()
        .pending_mitigations()
        .next()
        .map(|(id, plan)| (id, plan.rationale.clone()))
        .expect("confirm-first held the plan");
    println!("held plan for #{}: {}", held.0 .0, held.1);

    // --- Approve, resolve ---------------------------------------------
    let out = service
        .apply(ServiceCommand::ConfirmMitigation { alert: held.0 }, now)
        .expect("plan pending");
    println!("apply ConfirmMitigation  -> {out:?}");
    run(
        &mut service,
        &mut engine,
        now,
        now + SimDuration::from_mins(30),
        |_, _| ControlFlow::Continue(()),
    );
    now += SimDuration::from_mins(30);
    drain(&service, &mut dashboard_cursor, &mut dashboard);

    // --- Wind down: detach the feed, offboard p1 ----------------------
    let out = service
        .apply(ServiceCommand::DetachFeed { handle: ris }, now)
        .expect("feed attached");
    println!("apply DetachFeed         -> {out:?}");
    let out = service
        .apply(ServiceCommand::RemoveOwnedPrefix { prefix: p1 }, now)
        .expect("prefix owned");
    if let CommandOutcome::PrefixRemoved(report) = &out {
        println!(
            "apply RemoveOwnedPrefix  -> closed {} alert(s), withdrew {} plan(s)",
            report.closed_alerts.len(),
            report.withdrawn_plans
        );
    }
    drain(&service, &mut dashboard_cursor, &mut dashboard);

    // --- The audit log replays the identical history ------------------
    let audit = service.poll_events(EventCursor::START);
    assert_eq!(
        dashboard, audit.events,
        "independent cursors replay identical histories"
    );
    println!(
        "\n=== audit log ({} events, identical to the live dashboard) ===",
        audit.events.len()
    );
    for event in &audit.events {
        println!("  {}", describe(event));
    }

    let status = service.status(now);
    println!(
        "\nfinal status: {} owned prefix(es), {} feed(s), {} incident(s), {} feed events delivered",
        status.owned.len(),
        status.feeds.len(),
        status.incidents.len(),
        status.events_delivered
    );
    println!(
        "status snapshot serializes: {} bytes of JSON",
        serde_json::to_string(&status)
            .expect("owned snapshot")
            .len()
    );
}

fn drain(service: &ArtemisService, cursor: &mut EventCursor, sink: &mut Vec<IncidentEvent>) {
    let batch = service.poll_events(*cursor);
    *cursor = batch.next;
    for event in &batch.events {
        println!("  [live] {}", describe(event));
    }
    sink.extend(batch.events);
}

fn describe(event: &IncidentEvent) -> String {
    match event {
        IncidentEvent::AlertRaised {
            alert,
            owned_prefix,
            hijack_type,
            at,
            ..
        } => format!(
            "{at} ALERT      #{} {hijack_type} on {owned_prefix}",
            alert.0
        ),
        IncidentEvent::MitigationPending { alert, at, .. } => {
            format!("{at} HELD       #{} awaiting operator approval", alert.0)
        }
        IncidentEvent::MitigationTriggered { alert, plan, at } => {
            format!("{at} MITIGATE   #{} announce {:?}", alert.0, plan.announce)
        }
        IncidentEvent::Resolved { alert, at } => format!("{at} RESOLVED   #{}", alert.0),
        IncidentEvent::ControllerApplied { kind, prefix, at } => {
            format!("{at} INSTALLED  {kind:?} {prefix}")
        }
        IncidentEvent::PrefixOnboarded { prefix, at } => format!("{at} ONBOARD    {prefix}"),
        IncidentEvent::PrefixOffboarded {
            prefix,
            closed_alerts,
            at,
        } => format!(
            "{at} OFFBOARD   {prefix} (closed {} alert(s))",
            closed_alerts.len()
        ),
        IncidentEvent::FeedAttached { handle, at } => format!("{at} ATTACH     {handle}"),
        IncidentEvent::FeedDetached {
            handle,
            dropped_events,
            at,
        } => format!("{at} DETACH     {handle} ({dropped_events} queued events dropped)"),
        IncidentEvent::PolicyChanged { prefix, policy, at } => {
            format!("{at} POLICY     {prefix} -> {policy:?}")
        }
        IncidentEvent::MitigationPaused { at } => format!("{at} PAUSE      mitigation"),
        IncidentEvent::MitigationResumed {
            executed_alerts,
            at,
            ..
        } => format!(
            "{at} RESUME     mitigation ({} held plan(s) executed)",
            executed_alerts.len()
        ),
    }
}

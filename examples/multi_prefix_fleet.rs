//! Multi-prefix fleet: one operator, several owned prefixes, two
//! *overlapping* hijacks on different prefixes — detected, mitigated
//! and resolved independently by one [`ArtemisService`].
//!
//! This is the operator configuration the journal version of ARTEMIS
//! ("Neutralizing BGP Hijacking within a Minute") evaluates, which the
//! single-alert experiment harness cannot represent: the detector
//! shards its state per owned prefix, every alert gets its own
//! monitor, and the mitigation lifecycles never interfere. Since the
//! control-plane redesign the run is driven through the service
//! surface, and the narration at the end replays the owned
//! [`IncidentEvent`] stream instead of scraping pipeline internals.
//!
//! ```sh
//! cargo run --release --example multi_prefix_fleet [seed]
//! ```

use artemis_repro::bench::run;
use artemis_repro::bgpsim::{Engine, SimConfig};
use artemis_repro::controller::Controller;
use artemis_repro::core::config::OwnedPrefix;
use artemis_repro::core::{ArtemisService, EventCursor, IncidentEvent};
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

    // --- The world: a small Internet, one victim, two attackers -----
    let mut rng = SimRng::new(seed);
    let topo = generate(&TopologyConfig::tiny(), &mut rng);
    let victim = topo.stubs[0];
    let attacker_a = topo.stubs[topo.stubs.len() / 2];
    let attacker_b = *topo.stubs.last().expect("stubs exist");
    assert!(victim != attacker_a && victim != attacker_b && attacker_a != attacker_b);

    // The operator's fleet: three prefixes announced from one AS.
    let fleet: Vec<Prefix> = ["10.0.0.0/23", "172.16.0.0/23", "192.168.0.0/23"]
        .iter()
        .map(|s| s.parse().expect("valid prefix"))
        .collect();

    // Vantage points: every transit + tier-1 AS streams to collectors.
    let vps: Vec<Asn> = topo
        .tier1
        .iter()
        .chain(topo.transit.iter())
        .copied()
        .collect();
    let vp_set: BTreeSet<Asn> = vps.iter().copied().collect();

    let mut hub = FeedHub::new(SimRng::new(seed ^ 0xFEED));
    hub.add(Box::new(
        StreamFeed::ris_live(group_into_collectors("rrc", &vps, 2))
            .with_export_delay(LatencyModel::uniform_secs(3, 9)),
    ));

    let config = ArtemisConfig::new(
        victim,
        fleet.iter().map(|p| OwnedPrefix::new(*p, victim)).collect(),
    );
    let pipeline = Pipeline::new(hub, config, vp_set);
    let mut engine = Engine::new(topo.graph.clone(), SimConfig::default(), seed);
    let controller = Controller::new(
        victim,
        LatencyModel::uniform_secs(10, 20),
        SimRng::new(seed ^ 0xC001),
    );
    let mut service = ArtemisService::new(pipeline, controller);

    // --- Phase 1: the fleet converges --------------------------------
    for p in &fleet {
        service.pipeline_mut().expect_announcement(*p);
        engine.announce(victim, *p);
    }
    let changes = engine.run_to_quiescence(10_000_000);
    service
        .pipeline_mut()
        .hub_mut()
        .ingest_route_changes(&changes);
    let converged = engine.now();
    println!("=== multi-prefix fleet (seed {seed}) ===\n");
    println!(
        "operator {victim} announces {} prefixes; {} vantage points; converged at {converged}",
        fleet.len(),
        vps.len()
    );

    // --- Phase 2: two overlapping hijacks on different prefixes ------
    let t_a = converged + artemis_repro::simnet::SimDuration::from_secs(30);
    let t_b = converged + artemis_repro::simnet::SimDuration::from_secs(32);
    engine.announce_at(attacker_a, fleet[0], t_a);
    engine.announce_at(attacker_b, fleet[1], t_b);
    println!("hijack A: {attacker_a} announces {} at {t_a}", fleet[0]);
    println!("hijack B: {attacker_b} announces {} at {t_b}\n", fleet[1]);

    // --- Drive the service; stop once both prefixes recovered --------
    // (Post-mitigation /23 churn may re-raise an already-mitigated
    // incident — count recovered *prefixes*, not alerts. The observer
    // reads the event log as the run appends to it and only decides
    // when to stop; the narration below replays the same log.)
    let mut incident_target: std::collections::BTreeMap<u64, Prefix> =
        std::collections::BTreeMap::new();
    let mut recovered: BTreeSet<Prefix> = BTreeSet::new();
    let horizon = converged + artemis_repro::simnet::SimDuration::from_mins(120);
    let report = run(&mut service, &mut engine, converged, horizon, |_, event| {
        match event {
            IncidentEvent::MitigationTriggered { alert, plan, .. } => {
                incident_target.insert(alert.0, plan.target);
            }
            IncidentEvent::Resolved { alert, .. } => {
                if let Some(target) = incident_target.get(&alert.0) {
                    recovered.insert(*target);
                }
            }
            _ => {}
        }
        if recovered.contains(&fleet[0]) && recovered.contains(&fleet[1]) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });

    // --- Narrate the run from the owned event stream -----------------
    let batch = service.poll_events(EventCursor::START);
    for event in &batch.events {
        match event {
            IncidentEvent::AlertRaised {
                alert,
                owned_prefix,
                hijack_type,
                at,
                ..
            } => println!(
                "  ALERT        #{} {hijack_type} on {owned_prefix} at {at}",
                alert.0
            ),
            IncidentEvent::MitigationTriggered { alert, plan, at } => println!(
                "  MITIGATE     #{} at {at}: announce {:?}",
                alert.0, plan.announce
            ),
            IncidentEvent::Resolved { alert, at } => {
                println!("  RESOLVED     #{} at {at}", alert.0)
            }
            IncidentEvent::ControllerApplied { prefix, at, .. } => {
                println!("  INSTALLED    {prefix} at {at}")
            }
            other => println!("  EVENT        {other:?}"),
        }
    }

    // --- Report ------------------------------------------------------
    println!("\nrun ended at {} ({:?})", report.ended_at, report.end);
    println!("{} feed events delivered\n", report.events_delivered);
    let status = service.status(report.ended_at);
    for incident in &status.incidents {
        println!(
            "incident #{}: {} on {} ({:?}, phase {:?})",
            incident.alert.0,
            incident.hijack_type,
            incident.owned_prefix,
            incident.state,
            incident.phase
        );
        // Active incidents have a live monitor; resolved ones retired
        // theirs into a compact record that keeps the timeline.
        let pipeline = service.pipeline();
        let (target, points) = pipeline
            .monitor_for(incident.alert)
            .map(|m| (m.target(), m.timeline().len()))
            .or_else(|| {
                pipeline
                    .retired_monitor(incident.alert)
                    .map(|r| (r.target(), r.timeline().len()))
            })
            .expect("monitor record per alert");
        println!("  monitor on {target} recorded {points} timeline points");
    }
    for row in &status.owned {
        println!("shard {}: {} events routed", row.prefix, row.shard_events);
    }
    if recovered.contains(&fleet[0]) && recovered.contains(&fleet[1]) {
        println!("\nboth incidents detected, mitigated and resolved independently ✓");
    } else {
        // Control-plane monitoring can miss a hijack whose polluted
        // catchment contains no vantage point — a documented
        // limitation of VP-based detection, not a pipeline failure.
        for p in [fleet[0], fleet[1]] {
            if !recovered.contains(&p) {
                println!("\ncoverage miss: the hijack of {p} was invisible to every vantage point");
            }
        }
    }
}

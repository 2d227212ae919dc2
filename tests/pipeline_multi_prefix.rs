//! End-to-end multi-prefix pipeline test: one operator with several
//! owned prefixes, two hijacks on different prefixes launched at
//! nearly the same instant, driven through `Pipeline::run` against the
//! full simulated Internet — proving the pipeline sustains ≥ 2
//! concurrent alerts with independent monitor timelines and
//! independent mitigation lifecycles (the configuration the old
//! single-alert experiment loop could not represent).

use artemis_repro::bgpsim::{Engine, SimConfig};
use artemis_repro::controller::Controller;
use artemis_repro::core::config::OwnedPrefix;
use artemis_repro::core::pipeline::RunEnd;
use artemis_repro::core::service::ServiceStatus;
use artemis_repro::core::{AlertState, EventCursor, IncidentEvent};
use artemis_repro::feeds::vantage::group_into_collectors;
use artemis_repro::feeds::{FeedHub, StreamFeed};
use artemis_repro::prelude::*;
use artemis_repro::simnet::{LatencyModel, SimRng};
use artemis_repro::topology::{generate, TopologyConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;

const SEED: u64 = 7;

struct FleetRun {
    /// (alert id, owned prefix, mitigation instant) per trigger.
    triggers: Vec<(u64, Prefix, artemis_repro::simnet::SimTime)>,
    /// (alert id, resolution instant) per resolution.
    resolutions: Vec<(u64, artemis_repro::simnet::SimTime)>,
    /// Alert ids active (raised, unresolved) when each alert fired.
    concurrent_at_raise: BTreeMap<u64, usize>,
    service: ArtemisService,
    end: RunEnd,
    /// The full owned event history, serialized (byte-identity probe).
    history: String,
    /// Status snapshot at the horizon.
    status: ServiceStatus,
}

/// Mirror of the `multi_prefix_fleet` example scenario, instrumented.
fn run_fleet(seed: u64) -> FleetRun {
    let mut rng = SimRng::new(seed);
    let topo = generate(&TopologyConfig::tiny(), &mut rng);
    let victim = topo.stubs[0];
    let attacker_a = topo.stubs[topo.stubs.len() / 2];
    let attacker_b = *topo.stubs.last().expect("stubs exist");

    let p1: Prefix = "10.0.0.0/23".parse().expect("valid");
    let p2: Prefix = "172.16.0.0/23".parse().expect("valid");
    let p3: Prefix = "192.168.0.0/23".parse().expect("valid");

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
        vec![
            OwnedPrefix::new(p1, victim),
            OwnedPrefix::new(p2, victim),
            OwnedPrefix::new(p3, victim),
        ],
    );
    let pipeline = Pipeline::new(hub, config, vp_set);
    let mut engine = Engine::new(topo.graph.clone(), SimConfig::default(), seed);
    let controller = Controller::new(
        victim,
        LatencyModel::uniform_secs(10, 20),
        SimRng::new(seed ^ 0xC001),
    );
    let mut service = ArtemisService::new(pipeline, controller);

    for p in [p1, p2, p3] {
        service.pipeline_mut().expect_announcement(p);
        engine.announce(victim, p);
    }
    let changes = engine.run_to_quiescence(10_000_000);
    service.pipeline_mut().ingest_route_changes(&changes);
    let converged = engine.now();

    let dt = artemis_repro::simnet::SimDuration::from_secs(30);
    engine.announce_at(attacker_a, p1, converged + dt);
    engine.announce_at(
        attacker_b,
        p2,
        converged + dt + artemis_repro::simnet::SimDuration::from_secs(2),
    );

    let mut triggers = Vec::new();
    let mut resolutions = Vec::new();
    let mut concurrent_at_raise = BTreeMap::new();
    let mut active: BTreeSet<u64> = BTreeSet::new();
    let mut recovered: BTreeSet<Prefix> = BTreeSet::new();
    let mut target_of: BTreeMap<u64, Prefix> = BTreeMap::new();
    let horizon = converged + artemis_repro::simnet::SimDuration::from_mins(120);
    let report = service.run(&mut engine, converged, horizon, |_, event| {
        match event {
            IncidentEvent::AlertRaised { alert, .. } => {
                concurrent_at_raise.insert(alert.0, active.len());
                active.insert(alert.0);
            }
            IncidentEvent::MitigationTriggered { alert, plan, at } => {
                triggers.push((alert.0, plan.target, *at));
                target_of.insert(alert.0, plan.target);
            }
            IncidentEvent::Resolved { alert, at } => {
                resolutions.push((alert.0, *at));
                active.remove(&alert.0);
                if let Some(t) = target_of.get(&alert.0) {
                    recovered.insert(*t);
                }
            }
            _ => {}
        }
        if recovered.contains(&p1) && recovered.contains(&p2) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });

    let history = serde_json::to_string(&service.poll_events(EventCursor::START).events)
        .expect("events serialize");
    let status = service.status(horizon);

    FleetRun {
        triggers,
        resolutions,
        concurrent_at_raise,
        service,
        end: report.end,
        history,
        status,
    }
}

#[test]
fn two_concurrent_incidents_run_independent_lifecycles() {
    let run = run_fleet(SEED);
    assert_eq!(run.end, RunEnd::Stopped, "both incidents must resolve");

    let p1: Prefix = "10.0.0.0/23".parse().unwrap();
    let p2: Prefix = "172.16.0.0/23".parse().unwrap();

    // Two distinct owned prefixes were attacked, alerted and mitigated.
    let targets: BTreeSet<Prefix> = run.triggers.iter().map(|(_, p, _)| *p).collect();
    assert!(
        targets.contains(&p1) && targets.contains(&p2),
        "{targets:?}"
    );

    // Concurrency: at least one alert was raised while another was
    // still unresolved.
    assert!(
        run.concurrent_at_raise.values().any(|n| *n >= 1),
        "some alert must fire while another is active: {:?}",
        run.concurrent_at_raise
    );

    // Independent mitigation triggers: distinct instants, distinct
    // de-aggregation plans per prefix.
    let t1 = run.triggers.iter().find(|(_, p, _)| *p == p1).unwrap();
    let t2 = run.triggers.iter().find(|(_, p, _)| *p == p2).unwrap();
    assert_ne!(t1.0, t2.0, "separate alerts");
    assert_ne!(t1.2, t2.2, "separate trigger instants");

    // Independent resolutions at distinct instants.
    let r1 = run.resolutions.iter().find(|(id, _)| *id == t1.0).unwrap();
    let r2 = run.resolutions.iter().find(|(id, _)| *id == t2.0).unwrap();
    assert_ne!(r1.1, r2.1, "separate resolution instants");

    // Each incident has its own monitor with its own non-empty
    // timeline over its own prefix.
    let pipeline = run.service.pipeline();
    let alerts = pipeline.detector().alerts();
    let a1 = alerts.get(artemis_repro::core::AlertId(t1.0)).unwrap();
    let a2 = alerts.get(artemis_repro::core::AlertId(t2.0)).unwrap();
    assert_eq!(a1.owned_prefix, p1);
    assert_eq!(a2.owned_prefix, p2);
    assert_eq!(a1.state, AlertState::Resolved);
    assert_eq!(a2.state, AlertState::Resolved);
    // Both incidents resolved, so the monitors retired into compact
    // records that preserve the recorded timelines.
    let m1 = pipeline.retired_monitor(a1.id).expect("record per alert");
    let m2 = pipeline.retired_monitor(a2.id).expect("record per alert");
    assert_eq!(m1.target(), p1);
    assert_eq!(m2.target(), p2);
    assert!(!m1.timeline().is_empty() && !m2.timeline().is_empty());
    assert_ne!(
        m1.timeline(),
        m2.timeline(),
        "independent incidents record independent timelines"
    );

    // Sharded routing: both attacked shards saw traffic; the untouched
    // third prefix never alerted.
    let det = pipeline.detector();
    assert_eq!(det.shard_count(), 3);
    assert!(det.shard_events(p1).unwrap() > 0);
    assert!(det.shard_events(p2).unwrap() > 0);
    let p3: Prefix = "192.168.0.0/23".parse().unwrap();
    assert!(alerts.all().iter().all(|a| a.owned_prefix != p3));
}

#[test]
fn fleet_runs_are_deterministic() {
    let a = run_fleet(SEED);
    let b = run_fleet(SEED);
    assert_eq!(a.triggers, b.triggers);
    assert_eq!(a.resolutions, b.resolutions);
    assert_eq!(a.history, b.history, "serialized event log");
    assert_eq!(a.status, b.status);
    assert_eq!(
        a.service.pipeline().events_delivered(),
        b.service.pipeline().events_delivered()
    );
}

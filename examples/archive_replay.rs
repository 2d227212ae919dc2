//! Closed-loop MRT forensics: simulate a hijack, let the RouteViews-
//! style feeds write **real MRT bytes**, then replay those bytes into a
//! completely fresh pipeline and watch it re-detect the incident at
//! the archive's batch-delayed instants.
//!
//! This is the paper's §1 latency argument, run end-to-end: the same
//! hijack that streaming feeds surface in seconds only becomes visible
//! to an archive consumer at the end of its 15-minute batch — and the
//! replay reproduces the original archive-based detection timeline
//! instant-for-instant.
//!
//! ```sh
//! cargo run --release --example archive_replay
//! ```

use artemis_bgpsim::{Engine, SimConfig};
use artemis_controller::Controller;
use artemis_feeds::{
    ArchiveRibFeed, ArchiveUpdatesFeed, EngineView, FeedHub, FeedSource, MrtReplayFeed,
    MrtRibSnapshot,
};
use artemis_repro::core::{ArtemisConfig, OwnedPrefix, Pipeline};
use artemis_repro::prelude::*;
use artemis_simnet::{LatencyModel, SimRng};
use artemis_topology::{generate, AsGraph, TopologyConfig};
use std::collections::BTreeSet;
use std::ops::ControlFlow;

fn main() {
    // ---- Act 1: the incident happens, the archives record it --------
    let mut rng = SimRng::new(9);
    let topo = generate(&TopologyConfig::tiny(), &mut rng);
    let victim = topo.stubs[0];
    let attacker = *topo.stubs.last().expect("stubs exist");
    let peers: Vec<Asn> = topo.tier1.clone();
    let vantage_points: BTreeSet<Asn> = peers.iter().copied().collect();
    let prefix: Prefix = "10.0.0.0/23".parse().expect("valid");

    let config = ArtemisConfig::new(victim, vec![OwnedPrefix::new(prefix, victim)]);
    let mut hub = FeedHub::new(SimRng::new(42));
    let archive_feed = hub.add(Box::new(ArchiveUpdatesFeed::route_views(peers.clone())));
    let mut pipeline = Pipeline::new(hub, config.clone(), vantage_points.clone());
    let mut controller = Controller::new(victim, LatencyModel::const_secs(15), SimRng::new(3));

    let mut engine = Engine::new(topo.graph.clone(), SimConfig::default(), 9);
    pipeline.expect_announcement(prefix);
    engine.announce(victim, prefix);
    let changes = engine.run_to_quiescence(1_000_000);
    pipeline.ingest_route_changes(&changes);
    let converged = engine.now();

    // A RouteViews-style RIB snapshot of the pre-hijack Internet — the
    // bootstrap state a forensics replay starts from.
    let mut rib_feed = ArchiveRibFeed::route_views(peers.clone(), vec![prefix])
        .with_period(artemis_simnet::SimDuration::from_secs(1));
    let dump_at = rib_feed.next_poll(converged).expect("dump scheduled");
    rib_feed.poll(dump_at, &EngineView(&engine), &mut SimRng::new(7));
    let rib_bytes = rib_feed.last_dump_mrt().to_vec();

    engine.announce_at(attacker, prefix, converged + SimDuration::from_secs(30));
    let horizon = SimTime::ZERO + SimDuration::from_mins(120);
    pipeline.run(
        &mut engine,
        &mut controller,
        &mut [],
        converged,
        horizon,
        |_, _| ControlFlow::Continue(()),
    );

    let update_bytes = pipeline
        .hub()
        .feed_by_handle(archive_feed)
        .expect("archive feed")
        .archive_bytes()
        .expect("archive feeds expose MRT bytes")
        .to_vec();
    println!("=== Act 1: incident recorded ===");
    println!("victim {victim} / attacker {attacker}, prefix {prefix}");
    println!(
        "update archive: {} bytes; RIB snapshot: {} bytes",
        update_bytes.len(),
        rib_bytes.len()
    );
    let original_alert = pipeline.detector().alerts().all().first().cloned();

    // ---- Act 2: forensics — replay the bytes into a fresh pipeline --
    let snapshot = MrtRibSnapshot::load(&rib_bytes);
    println!("\n=== Act 2: replay the archive bytes ===");
    println!(
        "RIB bootstrap: {} peers, {} routes, snapshot at {}",
        snapshot.peers().len(),
        snapshot.route_count(),
        snapshot.timestamp()
    );

    let replay = MrtReplayFeed::route_views(&update_bytes).with_rib_bootstrap(&snapshot);
    println!(
        "replay feed: {} records replayed, {} skipped, {} events queued",
        replay.records_replayed(),
        replay.records_skipped(),
        replay.pending_events()
    );
    for diag in replay.diagnostics() {
        println!("  diagnostic: {diag}");
    }

    let mut hub = FeedHub::new(SimRng::new(43));
    hub.add(Box::new(replay));
    let mut forensics = Pipeline::new(hub, config, vantage_points);
    forensics.expect_announcement(prefix);
    let mut graph = AsGraph::new();
    graph.add_as(victim);
    let mut idle_engine = Engine::new(graph, SimConfig::default(), 1);
    let mut idle_controller = Controller::new(victim, LatencyModel::const_secs(15), SimRng::new(3));
    forensics.run(
        &mut idle_engine,
        &mut idle_controller,
        &mut [],
        SimTime::ZERO,
        horizon,
        |_, _| ControlFlow::Continue(()),
    );

    println!("\n=== Verdict ===");
    match (original_alert, forensics.detector().alerts().all().first()) {
        (Some(orig), Some(replayed)) => {
            println!("original run detected: {orig}");
            println!("replay run detected:   {replayed}");
            assert_eq!(
                orig.detected_at, replayed.detected_at,
                "round-trip must reproduce the detection instant"
            );
            assert_eq!(orig.hijack_type, replayed.hijack_type);
            assert_eq!(orig.offending_origin, replayed.offending_origin);
            let archive_delay = replayed
                .detected_at
                .saturating_since(replayed.first_observed_at);
            println!(
                "archive latency (observation -> batch publication): {archive_delay} \
                 — the minutes-long gap ARTEMIS's streaming feeds close (paper §1)"
            );
        }
        (orig, replayed) => panic!(
            "both runs must detect the hijack (original: {orig:?}, replay: {:?})",
            replayed.map(|a| a.id)
        ),
    }
    println!("\nround-trip OK: simulate -> write MRT -> replay -> same detection timeline");
}

//! Cross-crate integration tests: the whole ARTEMIS stack — topology,
//! BGP propagation, feeds, detection, controller, mitigation,
//! monitoring — exercised together.

use artemis_repro::bench::baseline::{run_baseline, BaselineKind};
use artemis_repro::bench::experiment::SourceSelection;
use artemis_repro::core::HijackType;
use artemis_repro::prelude::*;
use artemis_simnet::SimDuration;

#[test]
fn paper_phase_ordering_holds_across_seeds() {
    // Seeds chosen so the hijack catchment overlaps the vantage set
    // (seed 89's hijack is invisible to every VP — a realistic
    // coverage miss exercised by `coverage_misses_are_possible`).
    for seed in [202, 303, 404] {
        let out = ExperimentBuilder::tiny(seed).run();
        let t = &out.timings;
        let launch = t.hijack_launched.expect("hijack always launches");
        let detect = t.detected_at.expect("tiny topologies always detect");
        let mitigate = t.mitigation_started.expect("mitigation starts");
        let resolve = t.resolved_at.expect("incident resolves");
        assert!(launch < detect, "seed {seed}");
        assert!(detect < mitigate, "seed {seed}");
        assert!(mitigate <= resolve, "seed {seed}");
    }
}

#[test]
fn coverage_misses_are_possible() {
    // Seed 89's hijack pollutes only a small catchment that contains
    // no vantage point: control-plane monitoring cannot see it. This
    // is a documented limitation of VP-based detection, not a bug.
    let out = ExperimentBuilder::tiny(89).run();
    assert!(out.timings.detected_at.is_none());
    assert!(
        out.ground_truth.hijacked_at_end > 0,
        "the hijack is real in the ground truth even though no VP saw it"
    );
}

#[test]
fn detection_beats_every_baseline() {
    let builder = ExperimentBuilder::tiny(55);
    let artemis = builder.clone().run();
    let artemis_detect = artemis.timings.detection_delay().expect("detected");
    for kind in [
        BaselineKind::ArchiveUpdates,
        BaselineKind::ArchiveRib,
        BaselineKind::ThirdPartyManual,
    ] {
        let baseline = run_baseline(kind, &builder);
        assert!(
            baseline
                .detection_delay
                .expect("baselines detect eventually")
                > artemis_detect,
            "{kind} beat ARTEMIS"
        );
    }
}

#[test]
fn subprefix_hijack_detected_and_classified() {
    let mut b = ExperimentBuilder::tiny(77);
    b.hijack_prefix = Some("10.0.1.0/24".parse().expect("valid"));
    let out = b.run();
    assert_eq!(out.hijack_type, Some(HijackType::SubPrefix));
    assert!(out.timings.detected_at.is_some());
}

#[test]
fn mitigation_restores_all_traffic_paths() {
    let out = ExperimentBuilder::tiny(101).run();
    assert_eq!(out.ground_truth.hijacked_at_end, 0);
    assert_eq!(
        out.ground_truth.recovered_at_end,
        out.ground_truth.total_ases
    );
}

#[test]
fn detection_needs_at_least_one_source() {
    let mut b = ExperimentBuilder::tiny(99);
    b.sources = SourceSelection {
        ris: false,
        bgpmon: false,
        periscope: false,
    };
    b.max_sim_time = SimDuration::from_mins(20);
    let out = b.run();
    assert!(
        out.timings.detected_at.is_none(),
        "no feeds -> no detection (the monitoring services ARE the sensor)"
    );
}

#[test]
fn experiments_are_reproducible() {
    let a = ExperimentBuilder::tiny(123).run();
    let b = ExperimentBuilder::tiny(123).run();
    assert_eq!(a.timings.detected_at, b.timings.detected_at);
    assert_eq!(a.timings.mitigation_started, b.timings.mitigation_started);
    assert_eq!(a.timings.resolved_at, b.timings.resolved_at);
    assert_eq!(
        a.ground_truth.recovered_at_end,
        b.ground_truth.recovered_at_end
    );
    assert_eq!(a.milestones.len(), b.milestones.len());
}

#[test]
fn timeline_shows_hijack_wave_and_recovery() {
    let out = ExperimentBuilder::tiny(19).run();
    let timeline = &out.timeline;
    assert!(!timeline.is_empty(), "monitor must record the incident");
    let peak_hijacked = timeline.iter().map(|p| p.hijacked).max().unwrap_or(0);
    assert!(peak_hijacked > 0, "some VP must have been hijacked");
    let last = timeline.last().expect("non-empty");
    assert_eq!(last.hijacked, 0, "finally no VP remains hijacked");
}

#[test]
fn faulty_feeds_degrade_gracefully() {
    use artemis_repro::bgpsim::SimConfig;
    // Heavy message loss in the BGP plane: the experiment must not
    // wedge; detection may be later but the run terminates cleanly.
    let mut b = ExperimentBuilder::tiny(42);
    b.sim = SimConfig {
        faults: artemis_repro::simnet::FaultInjector::dropper(0.10),
        ..SimConfig::default()
    };
    b.max_sim_time = SimDuration::from_mins(60);
    let out = b.run();
    // With 10% loss the hijack still reaches VPs (BGP floods), so
    // detection is expected; resolution may or may not complete.
    assert!(out.timings.detected_at.is_some());
}

#[test]
fn lpm_semantics_hold_at_the_vantage_points() {
    // After mitigation, VP monitors must show legitimate via the /24s
    // even where the /23 still points at the attacker.
    let out = ExperimentBuilder::tiny(61).run();
    assert!(out.timings.resolved_at.is_some());
    // The engine ground truth agrees with the monitoring view.
    assert_eq!(out.ground_truth.hijacked_at_end, 0);
}

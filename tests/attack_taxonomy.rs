//! End-to-end coverage of the hijack taxonomy: each attack kind must
//! be detected by the right rule and classified correctly.
//!
//! Forged-path attacks (Type-1) carry a one-hop handicap (the attacker
//! must prepend itself to the fabricated path), so they win far fewer
//! ASes than honest-origin hijacks — on tiny topologies they often win
//! nobody at all. Those cases therefore run on the medium (1000-AS)
//! topology, which is also where the paper-scale dynamics live.

use artemis_repro::bench::experiment::AttackKind;
use artemis_repro::core::HijackType;
use artemis_repro::prelude::*;

fn run_tiny(attack: AttackKind, seed: u64) -> artemis_repro::bench::ExperimentOutcome {
    let mut b = ExperimentBuilder::tiny(seed);
    b.attack = attack;
    b.run()
}

#[test]
fn exact_origin_classified() {
    let out = run_tiny(AttackKind::ExactOrigin, 202);
    assert_eq!(out.hijack_type, Some(HijackType::ExactOrigin));
}

#[test]
fn subprefix_classified() {
    let out = run_tiny(AttackKind::SubPrefix, 202);
    assert_eq!(out.hijack_type, Some(HijackType::SubPrefix));
}

#[test]
fn forged_origin_subprefix_classified() {
    // The attacker fakes the victim's origin: origin checks alone
    // cannot catch this; the expected-announcement rule does.
    let out = run_tiny(AttackKind::SubPrefixForgedOrigin, 202);
    assert_eq!(out.hijack_type, Some(HijackType::SubPrefixForgedOrigin));
}

#[test]
fn type1_fake_adjacency_classified_on_paper_scale_topology() {
    // Exact prefix, legitimate origin on the path — only the
    // known-neighbors check can see the fake adjacency. Medium
    // topology: the forged route needs room to win somewhere.
    let mut b = ExperimentBuilder::new(8001);
    b.attack = AttackKind::Type1FakeAdjacency;
    let out = b.run();
    assert_eq!(out.hijack_type, Some(HijackType::Type1FakeNeighbor));
    let delay = out.timings.detection_delay().expect("detected");
    assert!(
        delay < artemis_simnet::SimDuration::from_mins(5),
        "Type-1 detection in the live-feed time scale, got {delay}"
    );
}

#[test]
fn subprefix_of_a_22_owner_is_mitigated_by_deaggregation() {
    // Owner has a /22; the attacker announces its first /23 — still
    // above the /24 filter limit, so de-aggregation (two /24s) works.
    let mut b = ExperimentBuilder::tiny(202);
    b.prefix = "10.0.0.0/22".parse().expect("valid");
    b.attack = AttackKind::SubPrefix;
    let out = b.run();
    assert_eq!(out.hijack_type, Some(HijackType::SubPrefix));
    assert!(
        out.timings.resolved_at.is_some(),
        "de-aggregation resolves it"
    );
    let mitigation_line = out
        .milestones
        .iter()
        .find(|(_, m)| m.contains("mitigation triggered"))
        .map(|(_, m)| m.clone())
        .expect("mitigation milestone present");
    assert!(
        mitigation_line.contains("10.0.0.0/24") && mitigation_line.contains("10.0.1.0/24"),
        "must de-aggregate the OBSERVED /23, not the owned /22: {mitigation_line}"
    );
}

#[test]
fn subprefix_at_the_filter_limit_detects_but_may_not_fully_resolve() {
    // Owner has a /23; the attacker announces a /24 — mitigation can
    // only re-announce the same /24 (MOAS competition), which is the
    // paper's stated /24 limitation.
    let mut b = ExperimentBuilder::tiny(202);
    b.attack = AttackKind::SubPrefix;
    b.max_sim_time = artemis_simnet::SimDuration::from_mins(30);
    let out = b.run();
    assert_eq!(out.hijack_type, Some(HijackType::SubPrefix));
    assert!(out.timings.detected_at.is_some());
    // Mitigation runs (best effort) but cannot out-specific a /24.
    assert!(out.timings.mitigation_started.is_some());
}

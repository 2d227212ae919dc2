//! The paper's Section-3 experiment, end to end, on the simulated
//! Internet: Phase 1 (setup), Phase 2 (hijack + detection), Phase 3
//! (automatic mitigation by de-aggregation).
//!
//! ```sh
//! cargo run --release --example hijack_experiment [seed]
//! ```

use artemis_repro::bench::viz::render_milestones;
use artemis_repro::prelude::*;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);

    println!("=== ARTEMIS hijack experiment (seed {seed}) ===\n");
    println!("topology: 1000 ASes (tier-1 clique + transit + stubs)");
    println!("feeds: RIS-live + BGPmon streams, 8 Periscope LGs\n");

    let outcome = ExperimentBuilder::new(seed).run();

    println!("victim  : {} (announces 10.0.0.0/23)", outcome.victim);
    println!("attacker: {} (hijacks the same prefix)\n", outcome.attacker);

    println!("--- milestones -------------------------------------------");
    print!("{}", render_milestones(&outcome.milestones));

    println!("\n--- measured vs paper ------------------------------------");
    let t = &outcome.timings;
    let fmt = |d: Option<artemis_simnet::SimDuration>| {
        d.map(|d| d.to_string()).unwrap_or_else(|| "n/a".into())
    };
    println!(
        "detection delay     : {:<12} (paper: ≈45 s)",
        fmt(t.detection_delay())
    );
    println!(
        "mitigation trigger  : {:<12} (paper: ≈15 s)",
        fmt(t.trigger_delay())
    );
    println!(
        "mitigation complete : {:<12} (paper: <5 min)",
        fmt(t.completion_delay())
    );
    println!(
        "total hijack life   : {:<12} (paper: ≈6 min)",
        fmt(t.total_delay())
    );

    println!("\n--- ground truth -----------------------------------------");
    let g = &outcome.ground_truth;
    println!(
        "ASes on hijacker when mitigation started: {}/{}",
        g.hijacked_at_mitigation, g.total_ases
    );
    println!(
        "ASes recovered at the end               : {}/{}",
        g.recovered_at_end, g.total_ases
    );
    println!(
        "detected by {} across {} vantage points; {} feed events, {} LG queries",
        outcome
            .detected_by
            .map(|k| k.to_string())
            .unwrap_or_else(|| "n/a".into()),
        outcome.vantage_count,
        outcome.feed_events,
        outcome.lg_queries
    );
}

//! The demo from Section 4: visualize, in (virtual) real time, how the
//! hijack propagates across vantage points and how mitigation wins
//! them back — rendered as a terminal strip chart instead of a globe.
//!
//! ```sh
//! cargo run --release --example monitoring_dashboard [seed]
//! ```

use artemis_repro::bench::viz::render_timeline;
use artemis_repro::prelude::*;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);

    let outcome = ExperimentBuilder::new(seed).run();

    println!("=== ARTEMIS monitoring service — vantage-point view ===");
    println!(
        "victim {} vs attacker {} on 10.0.0.0/23 ({} vantage points)\n",
        outcome.victim, outcome.attacker, outcome.vantage_count
    );
    println!("legend: '.' legitimate origin   '#' hijacked   ' ' no data\n");
    print!("{}", render_timeline(&outcome.timeline, 40));

    let t = &outcome.timings;
    if let (Some(h), Some(r)) = (t.hijack_launched, t.resolved_at) {
        println!(
            "\nhijack at {h}; all vantage points recovered at {r} (lifetime {})",
            r.since(h)
        );
    } else {
        println!("\nincident did not fully resolve within the horizon");
    }
}

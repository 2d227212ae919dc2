//! **E6 — the Section-4 demo as data**: the timeline of vantage points
//! flipping to the hijacker and back after mitigation (the paper
//! renders this on a globe; we emit the series and a strip chart).
//!
//! ```sh
//! cargo run --release -p artemis-bench --bin exp_e6_propagation_timeline [seed]
//! ```

use artemis_bench::viz::{render_milestones, render_timeline};
use artemis_bench::ExperimentBuilder;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(6000);

    let outcome = ExperimentBuilder::new(seed).run();

    println!("=== E6: hijack propagation & mitigation timeline (seed {seed}) ===\n");
    print!("{}", render_milestones(&outcome.milestones));
    println!();
    print!("{}", render_timeline(&outcome.timeline, 40));

    println!("\nseries (CSV): time_s,legitimate,hijacked,unknown");
    for p in &outcome.timeline {
        println!(
            "{:.3},{},{},{}",
            p.time.as_secs_f64(),
            p.legitimate,
            p.hijacked,
            p.unknown
        );
    }
}

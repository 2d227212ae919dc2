//! ARTEMIS vs the pre-existing pipelines (paper §1): archived updates
//! (15-minute batches), RIB dumps (2 hours), and third-party alerts
//! with manual verification (YouTube took ≈ 80 minutes to react).
//!
//! ```sh
//! cargo run --release --example baseline_comparison [seed]
//! ```

use artemis_repro::bench::baseline::{run_baseline, BaselineKind};
use artemis_repro::bench::report::Table;
use artemis_repro::prelude::*;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(11);

    let builder = ExperimentBuilder::new(seed);
    println!("=== detection/reaction latency: ARTEMIS vs baselines (seed {seed}) ===\n");

    let artemis = builder.clone().run();
    let fmt = |d: Option<artemis_simnet::SimDuration>| {
        d.map(|d| d.to_string()).unwrap_or_else(|| "n/a".into())
    };

    let mut table = Table::new(["pipeline", "detection delay", "reaction delay"]);
    table.row([
        "ARTEMIS (RIS-live + BGPmon + Periscope)".to_string(),
        fmt(artemis.timings.detection_delay()),
        fmt(artemis
            .timings
            .trigger_delay()
            .and_then(|t| artemis.timings.detection_delay().map(|d| d + t))),
    ]);
    for kind in [
        BaselineKind::ArchiveUpdates,
        BaselineKind::ArchiveRib,
        BaselineKind::ThirdPartyManual,
    ] {
        let out = run_baseline(kind, &builder);
        table.row([
            kind.to_string(),
            fmt(out.detection_delay),
            fmt(out.reaction_delay),
        ]);
    }
    print!("{}", table.render());

    println!(
        "\nARTEMIS total mitigation (launch→recovered): {}",
        fmt(artemis.timings.total_delay())
    );
    println!("paper anchors: RIBs ≈ 2 h granularity, updates ≈ 15 min, YouTube ≈ 80 min reaction");
}

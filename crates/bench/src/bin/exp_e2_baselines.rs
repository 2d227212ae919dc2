//! **E2 — baseline comparison** (paper §1, claim C5).
//!
//! "…aggregated BGP data from RouteViews or RIPE RIS … become available
//! approximately every 2 hours (BGP full RIBs) or 15 mins (BGP
//! updates); a network administrator that receives a notification from
//! a third-party alert system needs to manually process it …
//! YouTube, for example, reacted about 80 min after the hijacking."
//!
//! ```sh
//! cargo run --release -p artemis-bench --bin exp_e2_baselines [trials] [seed]
//! ```

use artemis_bench::baseline::{run_baseline, BaselineKind};
use artemis_bench::report::{DurationStats, Table};
use artemis_bench::ExperimentBuilder;
use artemis_bench::{arg_seed, arg_trials, run_trials};
use artemis_simnet::SimDuration;

fn main() {
    let trials = arg_trials(10);
    let seed0 = arg_seed(2000);
    eprintln!("running {trials} scenarios for ARTEMIS + 3 baselines…");

    let artemis = run_trials(trials, seed0, ExperimentBuilder::new);
    let artemis_det: Vec<SimDuration> = artemis
        .iter()
        .filter_map(|o| o.timings.detection_delay())
        .collect();
    let artemis_react: Vec<SimDuration> = artemis
        .iter()
        .filter_map(|o| Some(o.timings.detection_delay()? + o.timings.trigger_delay()?))
        .collect();

    let mut det: std::collections::BTreeMap<BaselineKind, Vec<SimDuration>> = Default::default();
    let mut react: std::collections::BTreeMap<BaselineKind, Vec<SimDuration>> = Default::default();
    for i in 0..trials {
        let builder = ExperimentBuilder::new(seed0 + i as u64);
        for kind in [
            BaselineKind::ArchiveUpdates,
            BaselineKind::ArchiveRib,
            BaselineKind::ThirdPartyManual,
        ] {
            let out = run_baseline(kind, &builder);
            if let Some(d) = out.detection_delay {
                det.entry(kind).or_default().push(d);
            }
            if let Some(r) = out.reaction_delay {
                react.entry(kind).or_default().push(r);
            }
        }
    }

    println!("=== E2: detection & reaction latency, ARTEMIS vs pre-existing pipelines ===\n");
    let mut table = Table::new([
        "pipeline",
        "paper anchor",
        "detection (mean)",
        "reaction (mean)",
    ]);
    let mean = |v: &[SimDuration]| {
        DurationStats::from_samples(v)
            .map(|s| s.mean.to_string())
            .unwrap_or_else(|| "n/a".into())
    };
    table.row([
        "ARTEMIS (live feeds, auto)".to_string(),
        "detect <1 min, react +15 s".to_string(),
        mean(&artemis_det),
        mean(&artemis_react),
    ]);
    let anchors = [
        (BaselineKind::ArchiveUpdates, "≥15 min batches"),
        (BaselineKind::ArchiveRib, "≥2 h RIBs"),
        (BaselineKind::ThirdPartyManual, "YouTube ≈80 min"),
    ];
    for (kind, anchor) in anchors {
        table.row([
            kind.to_string(),
            anchor.to_string(),
            mean(det.get(&kind).map(|v| v.as_slice()).unwrap_or(&[])),
            mean(react.get(&kind).map(|v| v.as_slice()).unwrap_or(&[])),
        ]);
    }
    print!("{}", table.render());

    println!("\nshape check: every baseline must be ≥10× slower than ARTEMIS detection.");
}

//! **E4 — hijack-duration coverage** (paper §1 C6 + §3 C4).
//!
//! "more than 20% of hijacks last < 10 mins" and ARTEMIS's ≈6-minute
//! total response "is smaller than the duration of > 80% of the
//! hijacking cases observed in \[3\]" (the paper's Argus citation).
//!
//! Uses the Argus-calibrated duration model (DESIGN.md substitution)
//! and the *measured* response times from fresh experiment runs.
//!
//! ```sh
//! cargo run --release -p artemis-bench --bin exp_e4_duration_coverage [trials] [seed]
//! ```

use artemis_bench::baseline::{run_baseline, BaselineKind};
use artemis_bench::report::{DurationStats, Table};
use artemis_bench::{arg_seed, arg_trials, collect_metric, run_trials};
use artemis_bench::{ExperimentBuilder, HijackDurationModel};
use artemis_simnet::SimDuration;

fn main() {
    let trials = arg_trials(10);
    let seed0 = arg_seed(4000);
    let model = HijackDurationModel::argus_calibrated();

    println!("=== E4: what fraction of real hijack events would each pipeline outlive? ===\n");
    println!(
        "duration model (Argus substitution): lognormal median {}, sigma {}",
        model.median, model.sigma
    );
    println!(
        "anchor C6: P(duration < 10 min) = {:.1}% (paper: >20%)\n",
        model.fraction_shorter_than(SimDuration::from_mins(10)) * 100.0
    );

    let outcomes = run_trials(trials, seed0, ExperimentBuilder::new);
    let totals = collect_metric(&outcomes, |o| o.timings.total_delay());
    let artemis_mean = DurationStats::from_samples(&totals)
        .map(|s| s.mean)
        .unwrap_or(SimDuration::from_mins(6));

    let mut table = Table::new([
        "pipeline",
        "response time (mean)",
        "% of hijacks it outlasts",
        "paper anchor",
    ]);
    table.row([
        "ARTEMIS (detect+mitigate)".to_string(),
        artemis_mean.to_string(),
        format!("{:.1}%", model.fraction_outlasting(artemis_mean) * 100.0),
        ">80% (6 min anchor)".to_string(),
    ]);
    for kind in [
        BaselineKind::ArchiveUpdates,
        BaselineKind::ArchiveRib,
        BaselineKind::ThirdPartyManual,
    ] {
        let mut reacts = Vec::new();
        for i in 0..trials {
            let b = ExperimentBuilder::new(seed0 + i as u64);
            if let Some(r) = run_baseline(kind, &b).reaction_delay {
                reacts.push(r);
            }
        }
        let mean = DurationStats::from_samples(&reacts)
            .map(|s| s.mean)
            .unwrap_or(SimDuration::ZERO);
        table.row([
            kind.to_string(),
            mean.to_string(),
            format!("{:.1}%", model.fraction_outlasting(mean) * 100.0),
            "—".to_string(),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\n(an 80-minute reaction — the YouTube case — outlasts only {:.1}% of events)",
        model.fraction_outlasting(SimDuration::from_mins(80)) * 100.0
    );
}

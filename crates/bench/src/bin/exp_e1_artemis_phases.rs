//! **E1 — the paper's Section-3 results** (its single results "table",
//! plus Figure 1 as the executable pipeline).
//!
//! "Our preliminary results over a few dozen experiments show that
//! ARTEMIS needs (on average) 45 secs to detect the hijacking, 15 secs
//! to announce the de-aggregated /24 prefixes (through the controller),
//! and, after that, the mitigation is completed within 5 mins. In
//! total, the hijacking is completely mitigated around 6 mins after it
//! has been launched."
//!
//! ```sh
//! cargo run --release -p artemis-bench --bin exp_e1_artemis_phases [trials] [seed]
//! ```

use artemis_bench::report::{DurationStats, Table};
use artemis_bench::ExperimentBuilder;
use artemis_bench::{arg_seed, arg_trials, collect_metric, run_trials};

fn main() {
    let trials = arg_trials(30);
    let seed0 = arg_seed(1000);
    eprintln!(
        "running {trials} hijack experiments (seeds {seed0}..{})…",
        seed0 + trials as u64
    );

    let outcomes = run_trials(trials, seed0, ExperimentBuilder::new);

    let detection = collect_metric(&outcomes, |o| o.timings.detection_delay());
    let trigger = collect_metric(&outcomes, |o| o.timings.trigger_delay());
    let completion = collect_metric(&outcomes, |o| o.timings.completion_delay());
    let total = collect_metric(&outcomes, |o| o.timings.total_delay());

    println!("=== E1: ARTEMIS phase timings over {trials} experiments ===\n");
    let mut table = Table::new(["phase", "paper", "measured (mean)", "distribution"]);
    let mut push = |name: &str, paper: &str, samples: &[artemis_simnet::SimDuration]| {
        match DurationStats::from_samples(samples) {
            Some(s) => table.row([
                name.to_string(),
                paper.to_string(),
                s.mean.to_string(),
                s.render(),
            ]),
            None => table.row([
                name.to_string(),
                paper.to_string(),
                "n/a".to_string(),
                "no samples".to_string(),
            ]),
        };
    };
    push("detection (hijack→alert)", "≈45 s", &detection);
    push("announce (alert→/24s out)", "≈15 s", &trigger);
    push("mitigation (out→all VPs back)", "<5 min", &completion);
    push("total (hijack→recovered)", "≈6 min", &total);
    print!("{}", table.render());

    // Who won the detection race?
    let mut by_source: std::collections::BTreeMap<String, usize> = Default::default();
    for o in &outcomes {
        if let Some(k) = o.detected_by {
            *by_source.entry(k.to_string()).or_default() += 1;
        }
    }
    println!("\ndetection wins by source: {by_source:?}");
    let resolved = outcomes
        .iter()
        .filter(|o| o.timings.resolved_at.is_some())
        .count();
    let undetected = outcomes
        .iter()
        .filter(|o| o.timings.detected_at.is_none())
        .count();
    println!("resolved: {resolved}/{trials}");
    if undetected > 0 {
        println!(
            "undetected (hijack catchment missed every vantage point): {undetected}/{trials} — \
             a coverage effect; the real RIS/BGPmon peer sets are ~10× larger than our 40 VPs"
        );
    }
    let polluted: Vec<usize> = outcomes
        .iter()
        .map(|o| o.ground_truth.hijacked_at_mitigation)
        .collect();
    println!(
        "ASes polluted when mitigation started: mean {:.0}/{} (the hijack was real)",
        polluted.iter().sum::<usize>() as f64 / polluted.len().max(1) as f64,
        outcomes
            .first()
            .map(|o| o.ground_truth.total_ases)
            .unwrap_or(0)
    );
}

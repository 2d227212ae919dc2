//! **E3 — min-of-sources & the LG trade-off** (paper §2, claim C7).
//!
//! "By combining multiple sources, the delay of the detection phase is
//! the min of the delays of these sources. The system can be
//! parametrized (e.g., selecting LGs based on location or connectivity)
//! to achieve trade-offs between monitoring overhead and detection
//! efficiency/speed."
//!
//! Sweeps (a) the enabled source combinations, (b) the number of
//! looking glasses, reporting detection delay vs query overhead.
//!
//! ```sh
//! cargo run --release -p artemis-bench --bin exp_e3_sources_sweep [trials] [seed]
//! ```

use artemis_bench::experiment::SourceSelection;
use artemis_bench::report::{DurationStats, Table};
use artemis_bench::ExperimentBuilder;
use artemis_bench::{arg_seed, arg_trials, collect_metric, run_trials};

fn main() {
    let trials = arg_trials(10);
    let seed0 = arg_seed(3000);

    println!("=== E3a: detection delay per source combination ({trials} trials each) ===\n");
    let combos: Vec<(&str, SourceSelection)> = vec![
        (
            "RIS only",
            SourceSelection {
                ris: true,
                bgpmon: false,
                periscope: false,
            },
        ),
        (
            "BGPmon only",
            SourceSelection {
                ris: false,
                bgpmon: true,
                periscope: false,
            },
        ),
        (
            "Periscope only",
            SourceSelection {
                ris: false,
                bgpmon: false,
                periscope: true,
            },
        ),
        (
            "RIS+BGPmon",
            SourceSelection {
                ris: true,
                bgpmon: true,
                periscope: false,
            },
        ),
        (
            "all three (ARTEMIS)",
            SourceSelection {
                ris: true,
                bgpmon: true,
                periscope: true,
            },
        ),
    ];
    let mut table = Table::new(["sources", "detection distribution"]);
    let mut all_three_mean = None;
    let mut singles_means = Vec::new();
    for (name, sources) in &combos {
        let outcomes = run_trials(trials, seed0, |seed| {
            let mut b = ExperimentBuilder::new(seed);
            b.sources = *sources;
            b
        });
        let det = collect_metric(&outcomes, |o| o.timings.detection_delay());
        let stats = DurationStats::from_samples(&det);
        if let Some(s) = &stats {
            if *name == "all three (ARTEMIS)" {
                all_three_mean = Some(s.mean);
            } else if !name.contains('+') {
                singles_means.push(s.mean);
            }
        }
        table.row([
            name.to_string(),
            stats
                .map(|s| s.render())
                .unwrap_or_else(|| "never detected".into()),
        ]);
    }
    print!("{}", table.render());
    if let (Some(combined), Some(best_single)) =
        (all_three_mean, singles_means.iter().min().copied())
    {
        println!(
            "\nmin-of-sources check: combined mean {combined} ≤ best single mean {best_single}: {}",
            if combined <= best_single {
                "HOLDS"
            } else {
                "VIOLATED (noise — increase trials)"
            }
        );
    }

    println!("\n=== E3b: LG count trade-off (overhead vs speed, Periscope only) ===\n");
    let mut table = Table::new(["LGs", "detection (mean)", "queries/min (overhead)"]);
    for lg_count in [0usize, 1, 2, 4, 8, 16, 32] {
        let outcomes = run_trials(trials, seed0, |seed| {
            let mut b = ExperimentBuilder::new(seed);
            b.sources = SourceSelection {
                ris: false,
                bgpmon: false,
                periscope: true,
            };
            b.lg_count = lg_count;
            b
        });
        let det = collect_metric(&outcomes, |o| o.timings.detection_delay());
        // Overhead normalized per minute of incident time.
        let mut qpm_sum = 0.0f64;
        let mut qpm_n = 0usize;
        for o in &outcomes {
            let mins = o.elapsed_after_hijack.as_secs_f64() / 60.0;
            if mins > 0.0 {
                qpm_sum += o.lg_polls as f64 / mins;
                qpm_n += 1;
            }
        }
        table.row([
            lg_count.to_string(),
            DurationStats::from_samples(&det)
                .map(|s| s.mean.to_string())
                .unwrap_or_else(|| "never".into()),
            if qpm_n > 0 {
                format!("{:.1}", qpm_sum / qpm_n as f64)
            } else {
                "0".into()
            },
        ]);
    }
    print!("{}", table.render());
    println!("\nexpected shape: more LGs -> faster detection, proportionally more queries/min.");
}

//! **A2 — the detector across the full attack taxonomy** (extension;
//! the demo paper's experiments perform only exact-origin hijacks).
//!
//! For each attack kind: does ARTEMIS detect it, how fast, and how is
//! it classified? Forged-path attacks (Type-1, forged-origin
//! sub-prefix) are where origin-only checking fails and the
//! known-neighbors extension earns its keep.
//!
//! ```sh
//! cargo run --release -p artemis-bench --bin exp_a2_attack_types [trials] [seed]
//! ```

use artemis_bench::experiment::AttackKind;
use artemis_bench::report::{DurationStats, Table};
use artemis_bench::ExperimentBuilder;
use artemis_bench::{arg_seed, arg_trials, collect_metric, run_trials};

fn main() {
    let trials = arg_trials(8);
    let seed0 = arg_seed(8000);

    println!("=== A2: detection across attack kinds ({trials} trials each) ===\n");
    let mut table = Table::new(["attack", "detected", "detection (mean)", "classified as"]);
    for (name, attack) in [
        (
            "exact-prefix origin hijack (paper)",
            AttackKind::ExactOrigin,
        ),
        ("sub-prefix hijack", AttackKind::SubPrefix),
        (
            "sub-prefix, forged origin",
            AttackKind::SubPrefixForgedOrigin,
        ),
        ("Type-1 fake adjacency", AttackKind::Type1FakeAdjacency),
    ] {
        let outcomes = run_trials(trials, seed0, |seed| {
            let mut b = ExperimentBuilder::new(seed);
            b.attack = attack;
            b
        });
        let detected = outcomes
            .iter()
            .filter(|o| o.timings.detected_at.is_some())
            .count();
        let det = collect_metric(&outcomes, |o| o.timings.detection_delay());
        let mut kinds: std::collections::BTreeMap<String, usize> = Default::default();
        for o in &outcomes {
            if let Some(k) = o.hijack_type {
                *kinds.entry(k.to_string()).or_default() += 1;
            }
        }
        let classification = kinds
            .iter()
            .map(|(k, n)| format!("{k} ×{n}"))
            .collect::<Vec<_>>()
            .join(", ");
        table.row([
            name.to_string(),
            format!("{detected}/{trials}"),
            DurationStats::from_samples(&det)
                .map(|s| s.mean.to_string())
                .unwrap_or_else(|| "n/a".into()),
            if classification.is_empty() {
                "—".into()
            } else {
                classification
            },
        ]);
    }
    print!("{}", table.render());
    println!("\nexpected: all four kinds detected; forged-path attacks classified by the");
    println!("known-neighbors / expected-announcement extensions, not by origin matching.");
}

//! # artemis-bench — the simulation layer
//!
//! Everything that runs ARTEMIS against a simulated Internet rather
//! than a real network: the PEERING-style experiment harness
//! ([`experiment`]), the slow baselines it is compared with
//! ([`baseline`]), the hijack-duration model ([`hijack_stats`]), the
//! run loop that drives an [`artemis_core::ArtemisService`] against an
//! [`artemis_bgpsim::Engine`] ([`run`]), vantage-point selection over a
//! topology ([`vantage`]), text reports ([`report`], [`viz`]), and the
//! experiment binaries (`src/bin/exp_*`) that regenerate every number
//! in the ARTEMIS paper.
//!
//! Experiment ↔ paper mapping (README "Reproducing the paper's
//! numbers" has the measured side of each row):
//!
//! | binary | paper anchor |
//! |--------|--------------|
//! | `exp_e1_artemis_phases` | §3 results: detect ≈45 s, announce ≈15 s, complete <5 min, total ≈6 min |
//! | `exp_e2_baselines` | §1: 2 h RIBs / 15 min updates / ≈80 min manual reaction |
//! | `exp_e3_sources_sweep` | §2: min-of-sources, LG overhead/speed trade-off |
//! | `exp_e4_duration_coverage` | §1+§3: >20% of hijacks <10 min; ARTEMIS beats >80% of durations |
//! | `exp_e5_deaggregation` | §2: de-aggregation works above /24, not at /24 |
//! | `exp_e6_propagation_timeline` | §4 demo: vantage points flipping origins |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod driver;
pub mod experiment;
pub mod hijack_stats;
pub mod report;
pub mod vantage;
pub mod viz;

pub use driver::{run, EngineView, RunEnd, RunReport};
pub use experiment::{Experiment, ExperimentBuilder, ExperimentOutcome, PhaseTimings};
pub use hijack_stats::HijackDurationModel;
pub use vantage::VantageStrategy;

use artemis_simnet::SimDuration;

/// Parse `argv[1]` as trial count with a default.
pub fn arg_trials(default: usize) -> usize {
    std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Parse `argv[2]` as base seed with a default.
pub fn arg_seed(default: u64) -> u64 {
    std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Run `n` trials of a builder template over consecutive seeds.
pub fn run_trials<F>(n: usize, seed0: u64, mut make: F) -> Vec<ExperimentOutcome>
where
    F: FnMut(u64) -> ExperimentBuilder,
{
    (0..n)
        .map(|i| {
            let seed = seed0 + i as u64;
            make(seed).run()
        })
        .collect()
}

/// Extract a duration metric across outcomes, skipping trials where it
/// is undefined.
pub fn collect_metric<F>(outcomes: &[ExperimentOutcome], f: F) -> Vec<SimDuration>
where
    F: Fn(&ExperimentOutcome) -> Option<SimDuration>,
{
    outcomes.iter().filter_map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_trials_uses_distinct_seeds() {
        let outcomes = run_trials(2, 100, ExperimentBuilder::tiny);
        assert_eq!(outcomes.len(), 2);
        // Trials must not be identical clones of one another.
        assert!(
            outcomes[0].victim != outcomes[1].victim
                || outcomes[0].timings.detected_at != outcomes[1].timings.detected_at
        );
    }

    #[test]
    fn collect_metric_skips_undefined() {
        let outcomes = run_trials(2, 7, ExperimentBuilder::tiny);
        let detections = collect_metric(&outcomes, |o| o.timings.detection_delay());
        assert_eq!(detections.len(), 2, "tiny experiments always detect");
    }
}

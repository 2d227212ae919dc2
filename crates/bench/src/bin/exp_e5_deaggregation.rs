//! **E5 — de-aggregation effectiveness vs prefix length** (paper §2,
//! claim C8).
//!
//! "Prefix de-aggregation is effective for hijacks of IP address
//! prefixes larger than /24, but it might not work for /24 prefixes,
//! as BGP advertisements of prefixes smaller than /24 are filtered by
//! some ISPs."
//!
//! Sweeps the owned-prefix length /20…/24. For /24 the mitigation is
//! infeasible by de-aggregation; the third column shows the
//! outsourcing (helper-AS MOAS) fallback, run directly on the engine.
//!
//! ```sh
//! cargo run --release -p artemis-bench --bin exp_e5_deaggregation [trials] [seed]
//! ```

use artemis_bench::report::Table;
use artemis_bench::ExperimentBuilder;
use artemis_bench::{arg_seed, arg_trials};
use artemis_bgp::{Asn, Prefix};
use artemis_bgpsim::{Engine, SimConfig};
use artemis_simnet::SimRng;
use artemis_topology::{generate, TopologyConfig};

/// Fraction of ASes whose traffic for the hijacked space reaches the
/// victim at the end of an ARTEMIS experiment run.
fn artemis_recovery(prefix: &str, trials: usize, seed0: u64) -> (f64, bool) {
    let mut recovered = 0usize;
    let mut total = 0usize;
    let mut infeasible = false;
    for i in 0..trials {
        let mut b = ExperimentBuilder::new(seed0 + i as u64);
        b.prefix = prefix.parse().expect("valid prefix");
        let out = b.run();
        recovered += out.ground_truth.recovered_at_end;
        total += out.ground_truth.total_ases;
        if out.timings.resolved_at.is_none() {
            infeasible = true;
        }
    }
    (recovered as f64 / total.max(1) as f64, infeasible)
}

/// Outsourcing fallback for a /24: helpers co-announce the exact
/// prefix (MOAS). Measured directly on the propagation engine.
fn outsourcing_recovery(helpers: usize, seed: u64) -> f64 {
    let mut rng = SimRng::new(seed);
    let topo = generate(&TopologyConfig::medium(), &mut rng);
    let victim = topo.stubs[0];
    let attacker = topo.stubs[topo.stubs.len() - 1];
    // Helpers: well-connected transit ASes (a mitigation organization
    // would place them at IXPs).
    let helper_ases: Vec<Asn> = topo.transit.iter().take(helpers).copied().collect();

    let prefix: Prefix = "198.51.100.0/24".parse().expect("valid");
    let mut engine = Engine::new(topo.graph.clone(), SimConfig::default(), seed);
    engine.announce(victim, prefix);
    engine.run_to_quiescence(10_000_000);
    engine.announce(attacker, prefix);
    engine.run_to_quiescence(10_000_000);
    for h in &helper_ases {
        engine.announce(*h, prefix);
    }
    engine.run_to_quiescence(10_000_000);

    // Traffic reaching the victim or a helper (helpers tunnel it back
    // to the victim — the outsourcing model) counts as recovered.
    let good: std::collections::BTreeSet<Asn> =
        std::iter::once(victim).chain(helper_ases).collect();
    let total = engine.graph().as_count();
    let recovered = engine
        .ases()
        .collect::<Vec<_>>()
        .into_iter()
        .filter(|a| {
            engine
                .origin_of(*a, prefix)
                .is_some_and(|o| good.contains(&o))
        })
        .count();
    recovered as f64 / total as f64
}

fn main() {
    let trials = arg_trials(5);
    let seed0 = arg_seed(5000);

    println!("=== E5: de-aggregation effectiveness vs hijacked prefix length ===\n");
    let mut table = Table::new([
        "owned prefix",
        "recovered (de-aggregation)",
        "mitigation feasible?",
    ]);
    for (prefix, label) in [
        ("10.0.0.0/20", "/20"),
        ("10.0.0.0/22", "/22"),
        ("10.0.0.0/23", "/23 (paper's case)"),
        ("10.0.0.0/24", "/24 (at filter limit)"),
    ] {
        let (recovery, hit_infeasible) = artemis_recovery(prefix, trials, seed0);
        table.row([
            label.to_string(),
            format!("{:.1}%", recovery * 100.0),
            if hit_infeasible {
                "NO — /24 cannot be de-aggregated".to_string()
            } else {
                "yes".to_string()
            },
        ]);
    }
    print!("{}", table.render());

    println!("\n=== E5b: /24 outsourcing fallback (helper-AS MOAS co-announcement) ===\n");
    let mut table = Table::new(["helpers", "traffic recovered (victim+helpers)"]);
    for helpers in [0usize, 1, 2, 4, 8] {
        let r = outsourcing_recovery(helpers, seed0);
        table.row([helpers.to_string(), format!("{:.1}%", r * 100.0)]);
    }
    print!("{}", table.render());
    println!("\nexpected shape: sub-/24 recovers ~100% by LPM; /24 depends on MOAS competition,");
    println!("improving with helper count (the ARTEMIS follow-up's outsourcing result).");
}

//! Vantage-point selection strategies.
//!
//! The paper notes ARTEMIS "can be parametrized (e.g., selecting LGs
//! based on location or connectivity) to achieve trade-offs between
//! monitoring overhead and detection efficiency/speed" — experiment E3
//! sweeps these strategies.

use artemis_bgp::Asn;
use artemis_simnet::SimRng;
use artemis_topology::AsGraph;
use serde::{Deserialize, Serialize};

/// How to choose vantage-point ASes from a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VantageStrategy {
    /// Uniformly random ASes.
    Random,
    /// The best-connected ASes (highest degree first) — these hear
    /// about routing changes soonest, like real collectors peering at
    /// large IXPs.
    TopDegree,
    /// Half top-degree, half random — a realistic collector mix.
    Mixed,
}

impl VantageStrategy {
    /// Select `k` distinct vantage ASes (fewer if the graph is small).
    /// `exclude` lists ASes that must not be chosen (e.g. the victim
    /// and attacker themselves, which would make detection trivial).
    pub fn select(self, graph: &AsGraph, k: usize, exclude: &[Asn], rng: &mut SimRng) -> Vec<Asn> {
        let candidates: Vec<Asn> = graph.ases().filter(|a| !exclude.contains(a)).collect();
        if candidates.is_empty() {
            return Vec::new();
        }
        let k = k.min(candidates.len());
        match self {
            VantageStrategy::Random => {
                let idx = rng.sample_indices(candidates.len(), k);
                let mut out: Vec<Asn> = idx.into_iter().map(|i| candidates[i]).collect();
                out.sort_unstable();
                out
            }
            VantageStrategy::TopDegree => {
                let mut by_degree: Vec<(usize, Asn)> =
                    candidates.iter().map(|a| (graph.degree(*a), *a)).collect();
                // Highest degree first; ASN ascending as tie-break for
                // determinism.
                by_degree.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                let mut out: Vec<Asn> = by_degree.into_iter().take(k).map(|(_, a)| a).collect();
                out.sort_unstable();
                out
            }
            VantageStrategy::Mixed => {
                let half = k / 2;
                let top = VantageStrategy::TopDegree.select(graph, half, exclude, rng);
                let mut exclude2 = exclude.to_vec();
                exclude2.extend(&top);
                let rest = VantageStrategy::Random.select(graph, k - top.len(), &exclude2, rng);
                let mut out = top;
                out.extend(rest);
                out.sort_unstable();
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_topology::{generate, TopologyConfig};

    fn topo() -> AsGraph {
        let mut rng = SimRng::new(77);
        generate(&TopologyConfig::tiny(), &mut rng).graph
    }

    #[test]
    fn random_selection_respects_k_and_exclude() {
        let g = topo();
        let mut rng = SimRng::new(1);
        let excluded = Asn(1);
        let vps = VantageStrategy::Random.select(&g, 10, &[excluded], &mut rng);
        assert_eq!(vps.len(), 10);
        assert!(!vps.contains(&excluded));
        let dedup: std::collections::BTreeSet<_> = vps.iter().collect();
        assert_eq!(dedup.len(), 10);
    }

    #[test]
    fn top_degree_picks_highest_degrees() {
        let g = topo();
        let mut rng = SimRng::new(1);
        let vps = VantageStrategy::TopDegree.select(&g, 3, &[], &mut rng);
        let min_chosen = vps.iter().map(|a| g.degree(*a)).min().unwrap();
        let max_unchosen = g
            .ases()
            .filter(|a| !vps.contains(a))
            .map(|a| g.degree(a))
            .max()
            .unwrap();
        assert!(min_chosen >= max_unchosen.min(min_chosen));
        // The single best-connected AS must be in the set.
        let best = g
            .ases()
            .max_by_key(|a| (g.degree(*a), u32::MAX - a.value()))
            .unwrap();
        let top1 = g.ases().map(|a| g.degree(a)).max().unwrap();
        assert!(
            vps.iter().any(|v| g.degree(*v) == top1),
            "top-degree AS missing (best={best})"
        );
    }

    #[test]
    fn mixed_combines_both() {
        let g = topo();
        let mut rng = SimRng::new(2);
        let vps = VantageStrategy::Mixed.select(&g, 8, &[], &mut rng);
        assert_eq!(vps.len(), 8);
        let dedup: std::collections::BTreeSet<_> = vps.iter().collect();
        assert_eq!(dedup.len(), 8, "no duplicates between halves");
    }

    #[test]
    fn k_larger_than_population_clamps() {
        let g = topo();
        let mut rng = SimRng::new(3);
        let vps = VantageStrategy::Random.select(&g, 10_000, &[], &mut rng);
        assert_eq!(vps.len(), g.as_count());
    }

    #[test]
    fn deterministic_given_seed() {
        let g = topo();
        let a = VantageStrategy::Random.select(&g, 5, &[], &mut SimRng::new(9));
        let b = VantageStrategy::Random.select(&g, 5, &[], &mut SimRng::new(9));
        assert_eq!(a, b);
    }
}

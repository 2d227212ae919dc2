//! Property: [`MonitorIndex`] routing is equivalent to a brute-force
//! scan over every `(target, alert)` pair, under arbitrary churn.
//!
//! The index replaces the pipeline's historical full-registry
//! relevance scan, so its contract is exactly the scan's predicate:
//! an alert is relevant to an event iff its target contains the event
//! prefix **or** the event prefix contains the target, and the alerts
//! come back in ascending order. The generator
//! drives nested and disjoint targets from a fixed prefix pool
//! (covering /8 down to /25, including sub-prefix relations), mixed
//! insert/remove churn, and queries from the same pool — so exact
//! matches, strict less-specifics, strict more-specifics, and
//! unrelated prefixes all occur.

use artemis_bgp::Prefix;
use artemis_core::{AlertId, MonitorIndex};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Nested/disjoint prefix pool: 10.0.0.0/8 ⊃ /16 ⊃ /23 ⊃ {/24, 10.0.1.0/24 ⊃ /25},
/// a second nest under 172.16.0.0/22, and two standalone /24s.
const POOL: [&str; 12] = [
    "10.0.0.0/8",
    "10.0.0.0/16",
    "10.0.0.0/23",
    "10.0.0.0/24",
    "10.0.1.0/24",
    "10.0.1.128/25",
    "172.16.0.0/22",
    "172.16.1.0/24",
    "172.16.2.0/25",
    "192.0.2.0/24",
    "8.8.8.0/24",
    "198.51.100.0/24",
];

fn prefix(idx: u8) -> Prefix {
    POOL[idx as usize % POOL.len()].parse().unwrap()
}

/// The predicate the pipeline's historical full scan applied per
/// monitor (see `MonitorService::is_relevant`).
fn brute_force_route(model: &BTreeMap<AlertId, Prefix>, query: Prefix) -> Vec<AlertId> {
    model
        .iter()
        .filter(|(_, target)| target.contains(query) || query.contains(**target))
        .map(|(id, _)| *id)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Each op triple is `(insert?, target slot, alert id)`; after
    /// every op, every pool prefix must route identically to the
    /// brute-force scan over the model registry.
    #[test]
    fn routing_matches_brute_force_scan_under_churn(
        ops in prop::collection::vec((any::<bool>(), 0u8..=255, 0u64..40), 1..60),
    ) {
        let mut index = MonitorIndex::new();
        let mut model: BTreeMap<AlertId, Prefix> = BTreeMap::new();
        let mut route = Vec::new();
        for (insert, slot, raw_id) in ops {
            let target = prefix(slot);
            let id = AlertId(raw_id);
            if insert {
                // One alert maps to one target: mirror the pipeline,
                // which indexes each alert under its owned prefix
                // exactly once for its whole lifetime.
                if let std::collections::btree_map::Entry::Vacant(e) = model.entry(id) {
                    e.insert(target);
                    index.insert(target, id);
                }
            } else if model.get(&id) == Some(&target) {
                prop_assert!(index.remove(target, id), "indexed alert must remove");
                model.remove(&id);
            } else {
                // Removing a pair that was never indexed is a no-op.
                prop_assert!(!index.remove(target, id));
            }
            prop_assert_eq!(index.len(), model.len());

            for q in 0..POOL.len() as u8 {
                let query = prefix(q);
                index.route(query, &mut route);
                let expected = brute_force_route(&model, query);
                prop_assert_eq!(
                    &route, &expected,
                    "query {} diverged from brute force", query
                );
            }
        }
    }
}

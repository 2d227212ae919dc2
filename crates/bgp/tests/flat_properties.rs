//! Model-based property tests: [`FlatTrie`] must answer every query —
//! longest-prefix match, exact lookup, iteration order, the covering
//! visit and the containment visit — exactly like a linear model, a
//! `BTreeMap<Prefix, u32>` scanned with [`Prefix::contains`]. `Prefix:
//! Ord` is `(afi, bits, len)`, which is the trie's pre-order, so the
//! map's own order is the expected visiting order. Checked across
//! offboard-then-readd churn, nested/adjacent prefix sets, IPv6 down to
//! /128 (all 16 levels), queries shorter than stored more-specifics in
//! the same 8-bit stride, on either side of the IPv4 direct-table
//! threshold, and — the contract the detector's routing epochs stand on
//! — after every single in-place mutation, against both the model and
//! a trie rebuilt from scratch.
//!
//! Each block runs 256 cases unless `PROPTEST_CASES` sets the count
//! (CI runs 4096 in release).

use artemis_bgp::{FlatTrie, Prefix};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::net::{Ipv4Addr, Ipv6Addr};

// ---------------------------------------------------------------------
// Generators — deliberately clustered so nesting and adjacency are the
// norm, not a rare accident.
// ---------------------------------------------------------------------

/// V4 prefixes drawn from a handful of /8s with short-ish masks:
/// collisions, covering prefixes and adjacent siblings are frequent.
fn clustered_v4() -> impl Strategy<Value = Prefix> {
    (0u8..4, any::<u32>(), 4u8..=32).prop_map(|(net, addr, len)| {
        let addr = Ipv4Addr::from((u32::from(net) << 24) | (addr & 0x00FF_FFFF));
        Prefix::v4(addr, len).expect("len <= 32")
    })
}

/// V6 prefixes clustered under 2001:db8::/32, down to host routes.
fn clustered_v6() -> impl Strategy<Value = Prefix> {
    (any::<u128>(), 8u8..=128).prop_map(|(low, len)| {
        let addr = Ipv6Addr::from((0x2001_0db8u128 << 96) | (low >> 32));
        Prefix::v6(addr, len).expect("len <= 128")
    })
}

/// V4 /20–/24s under the four /20s of 10.1.0.0/18: several stored
/// more-specifics share each depth-16 node (lengths /17–/24).
fn nested_v4() -> impl Strategy<Value = Prefix> {
    (0u32..4, any::<u32>(), 20u8..=24).prop_map(|(block, low, len)| {
        let addr = Ipv4Addr::from(0x0A01_0000 | (block << 12) | (low & 0x0FFF));
        Prefix::v4(addr, len).expect("len <= 32")
    })
}

fn arb_prefix_set(max: usize) -> impl Strategy<Value = Vec<Prefix>> {
    prop::collection::vec(
        prop_oneof![
            clustered_v4(),
            clustered_v4(),
            clustered_v4(),
            clustered_v6()
        ],
        1..max,
    )
}

/// Rebuild a prefix of the same family from left-aligned bits (the
/// constructors zero host bits, so derived queries stay canonical).
fn mk(template: Prefix, bits: u128, len: u8) -> Prefix {
    match template.afi() {
        artemis_bgp::prefix::Afi::Ipv4 => {
            Prefix::v4(Ipv4Addr::from((bits >> 96) as u32), len).expect("len <= 32")
        }
        artemis_bgp::prefix::Afi::Ipv6 => {
            Prefix::v6(Ipv6Addr::from(bits), len).expect("len <= 128")
        }
    }
}

/// Queries derived from an inserted prefix: itself, every shorter
/// prefix of it down to the start of its 8-bit stride (so the parent),
/// a more-specific child, the host route and the adjacent sibling —
/// the relationships a longest-prefix match has to arbitrate.
fn related_queries(p: Prefix) -> Vec<Prefix> {
    let mut queries = vec![p];
    if p.len() > 0 {
        let stride_start = (p.len() - 1) / 8 * 8;
        queries.extend((stride_start..p.len()).map(|len| mk(p, p.bits(), len)));
        // Sibling: flip the last masked bit.
        let flipped = p.bits() ^ (1u128 << (128 - u32::from(p.len())));
        queries.push(mk(p, flipped, p.len()));
    }
    let host_len = p.afi().max_len();
    if p.len() < host_len {
        queries.push(mk(p, p.bits(), p.len() + 1));
        queries.push(mk(p, p.bits(), host_len));
    }
    queries
}

type Model = BTreeMap<Prefix, u32>;

/// A model and a trie built from scratch by inserting `entries` in
/// order (later duplicates replace earlier ones in both).
fn build(entries: impl IntoIterator<Item = (Prefix, u32)>) -> (FlatTrie<u32>, Model) {
    let mut flat = FlatTrie::new();
    let mut model = Model::new();
    for (p, v) in entries {
        assert_eq!(flat.insert(p, v), model.insert(p, v), "insert({p})");
    }
    (flat, model)
}

fn numbered(prefixes: &[Prefix]) -> impl Iterator<Item = (Prefix, u32)> + '_ {
    prefixes.iter().copied().zip(0..)
}

fn pairs<'a>(it: impl Iterator<Item = (&'a Prefix, &'a u32)>) -> Vec<(Prefix, u32)> {
    it.map(|(p, v)| (*p, *v)).collect()
}

/// Assert the trie and the model agree on every probe we can derive.
fn assert_agrees(flat: &FlatTrie<u32>, model: &Model, queries: &[Prefix]) {
    assert_eq!(flat.len(), model.len());
    assert_eq!(flat.is_empty(), model.is_empty());
    let flat_iter: Vec<(Prefix, u32)> = flat.iter().map(|(p, v)| (p, *v)).collect();
    assert_eq!(
        flat_iter,
        pairs(model.iter()),
        "iteration order and contents"
    );
    for &q in queries {
        let covering = pairs(model.iter().filter(|(m, _)| m.contains(q)));
        assert_eq!(
            flat.longest_match(q).map(|(p, v)| (p, *v)),
            covering.iter().copied().max_by_key(|(m, _)| m.len()),
            "longest_match({q})"
        );
        assert_eq!(flat.get(q), model.get(&q), "get({q})");
        // Covering prefixes nest, so pre-order lists them shortest
        // first, and all of them ahead of the subtree at `q`.
        let mut got = Vec::new();
        flat.visit_covering(q, |p, v| got.push((p, *v)));
        assert_eq!(got, covering, "visit_covering({q})");
        got.clear();
        flat.visit_relevant(q, |p, v| got.push((p, *v)));
        let relevant = pairs(
            model
                .iter()
                .filter(|(m, _)| m.contains(q) || q.contains(**m)),
        );
        assert_eq!(got, relevant, "visit_relevant({q})");
    }
}

/// A clustered set salted with what the clustered generators never
/// draw: both default routes (optionally) and a lone far-away prefix,
/// so that most derived queries end on an absent branch.
fn arb_mixed_set() -> impl Strategy<Value = Vec<Prefix>> {
    (arb_prefix_set(80), any::<bool>(), any::<bool>()).prop_map(|(mut set, d4, d6)| {
        if d4 {
            set.push(Prefix::default_v4());
        }
        if d6 {
            set.push(Prefix::default_v6());
        }
        set.push(Prefix::v4(Ipv4Addr::new(203, 0, 113, 0), 24).expect("/24"));
        set
    })
}

/// Probes for the visits: everything derivable from the stored set
/// (stored exact matches included), both `/0`s, and prefixes in space
/// nothing but a default route covers.
fn visit_queries(stored: &[Prefix]) -> Vec<Prefix> {
    let mut queries: Vec<Prefix> = stored.iter().flat_map(|p| related_queries(*p)).collect();
    queries.push(Prefix::default_v4());
    queries.push(Prefix::default_v6());
    queries.push(Prefix::v4(Ipv4Addr::new(198, 51, 100, 0), 24).expect("/24"));
    queries.push(Prefix::v6(Ipv6Addr::from(0xfd00u128 << 112), 48).expect("/48"));
    queries
}

/// 256 cases, or `PROPTEST_CASES` when set (`with_cases` alone would
/// override the variable).
fn config() -> ProptestConfig {
    if std::env::var_os("PROPTEST_CASES").is_some() {
        ProptestConfig::default()
    } else {
        ProptestConfig::with_cases(256)
    }
}

/// Filler /24s that carry a small base set past the IPv4 direct-table
/// threshold (`TABLE_MIN_V4` = 256 in `flat.rs`).
const FILLER: u32 = 320;

/// Distinct /24s under 192.0.0.0/8, where the clustered generators
/// never draw.
fn filler(seed: u32, count: u32) -> Vec<Prefix> {
    (0..count)
        .map(|i| {
            let addr = 0xC000_0000 | (seed.wrapping_add(i) & 0xFFFF) << 8;
            Prefix::v4(Ipv4Addr::from(addr), 24).expect("/24")
        })
        .collect()
}

proptest! {
    #![proptest_config(config())]

    /// Any clustered prefix set: identical views, identical matches.
    #[test]
    fn flat_matches_model_on_clustered_sets(
        prefixes in arb_prefix_set(120),
        extra_queries in prop::collection::vec(
            prop_oneof![clustered_v4(), clustered_v6()], 0..32),
    ) {
        let (flat, model) = build(numbered(&prefixes));
        let mut queries: Vec<Prefix> =
            prefixes.iter().flat_map(|p| related_queries(*p)).collect();
        queries.extend(extra_queries);
        assert_agrees(&flat, &model, &queries);
    }

    /// The containment and covering visits on mixed v4/v6 sets of 2 to
    /// 82 entries (both sides of the 32-entry stride-table threshold,
    /// which the visits must not consult), with and without `/0`,
    /// probed at stored exact matches, parents, children, siblings and
    /// absent branches.
    #[test]
    fn visits_match_model_across_defaults_and_absent_branches(
        prefixes in arb_mixed_set(),
    ) {
        let (flat, model) = build(numbered(&prefixes));
        assert_agrees(&flat, &model, &visit_queries(&prefixes));
    }

    /// Offboard-then-readd churn, in place: remove a subset, check;
    /// re-add the removed prefixes (fresh values), check. This is
    /// exactly the detector's shard onboard/offboard life cycle.
    #[test]
    fn flat_survives_offboard_then_readd_churn(
        prefixes in arb_prefix_set(80),
        removal_seed in any::<u64>(),
    ) {
        let (mut flat, mut model) = build(numbered(&prefixes));
        let queries: Vec<Prefix> =
            prefixes.iter().flat_map(|p| related_queries(*p)).collect();

        // Offboard roughly half, chosen by a cheap deterministic hash.
        let removed: Vec<Prefix> = model
            .keys()
            .filter(|p| (p.bits().wrapping_mul(removal_seed as u128)) & 1 == 1)
            .copied()
            .collect();
        for p in &removed {
            prop_assert_eq!(flat.remove(*p), model.remove(p), "remove({})", p);
        }
        assert_agrees(&flat, &model, &queries);

        // Re-add with fresh shard indices (offboard → onboard again).
        for (j, p) in removed.iter().enumerate() {
            let v = 10_000 + j as u32;
            prop_assert_eq!(flat.insert(*p, v), model.insert(*p, v), "insert({})", p);
        }
        assert_agrees(&flat, &model, &queries);
    }

    /// Incremental patching must be indistinguishable from a wholesale
    /// rebuild: apply a randomized insert/remove churn sequence to one
    /// `FlatTrie` in place, and after every operation compare it — and
    /// a trie freshly built from the model's survivors — to the model:
    /// return values, lengths, iteration order and every derived probe
    /// must agree. This is the contract the incremental detector
    /// epochs stand on.
    #[test]
    fn incremental_patching_matches_wholesale_rebuild(
        pool in arb_prefix_set(48),
        ops in prop::collection::vec(
            (any::<bool>(), any::<usize>(), any::<u32>()),
            1..160),
    ) {
        let mut model = Model::new();
        let mut flat: FlatTrie<u32> = FlatTrie::new();
        for (step, (is_insert, which, value)) in ops.iter().enumerate() {
            let p = pool[which % pool.len()];
            if *is_insert {
                prop_assert_eq!(
                    flat.insert(p, *value), model.insert(p, *value),
                    "insert({}) return at step {}", p, step
                );
            } else {
                prop_assert_eq!(
                    flat.remove(p), model.remove(&p),
                    "remove({}) return at step {}", p, step
                );
            }
            let (rebuilt, _) = build(pairs(model.iter()));
            prop_assert_eq!(flat.node_count(), rebuilt.node_count());
            let queries = related_queries(p);
            assert_agrees(&flat, &model, &queries);
            assert_agrees(&rebuilt, &model, &queries);
        }
        // Full sweep at the end: the patched structure answers every
        // probe derivable from the whole pool, not just the last op.
        let queries: Vec<Prefix> =
            pool.iter().flat_map(|p| related_queries(*p)).collect();
        assert_agrees(&flat, &model, &queries);
    }

    /// Draining the churned structure back to empty via incremental
    /// removes leaves no residue: it answers like a brand-new trie.
    #[test]
    fn incremental_drain_to_empty_leaves_no_residue(
        pool in arb_prefix_set(40),
        probes in prop::collection::vec(
            prop_oneof![clustered_v4(), clustered_v6()], 0..24),
    ) {
        let mut flat: FlatTrie<u32> = FlatTrie::new();
        for (i, p) in pool.iter().enumerate() {
            flat.insert(*p, i as u32);
        }
        for p in &pool {
            flat.remove(*p);
        }
        prop_assert_eq!(flat.node_count(), FlatTrie::<u32>::new().node_count());
        let queries: Vec<Prefix> = pool.iter().chain(probes.iter()).copied().collect();
        assert_agrees(&flat, &Model::new(), &queries);
    }

    /// The IPv4 direct table must be behaviorally invisible. The same
    /// base set answers every query like the model while the trie is
    /// small and walks from the root; once [`FILLER`] has grown it past
    /// the table threshold, so that the table is built and then patched
    /// by every insert; while the base set (/4–/32, so up to 4096 slots
    /// a prefix) is removed and re-added under the live table; and after
    /// the filler is removed, when the kept table has been patched back.
    #[test]
    fn root_table_threshold_is_invisible(
        base in prop::collection::vec(clustered_v4(), 8..24),
        filler_seed in any::<u32>(),
    ) {
        let (mut flat, mut model) = build(numbered(&base));
        let filler = filler(filler_seed, FILLER);
        let mut queries: Vec<Prefix> =
            base.iter().flat_map(|p| related_queries(*p)).collect();
        queries.extend(filler.iter().step_by(128).flat_map(|p| related_queries(*p)));
        assert_agrees(&flat, &model, &queries);

        for (p, v) in filler.iter().zip(50_000..) {
            prop_assert_eq!(flat.insert(*p, v), model.insert(*p, v));
        }
        assert_agrees(&flat, &model, &queries);

        for p in &base {
            prop_assert_eq!(flat.remove(*p), model.remove(p), "remove({})", p);
        }
        assert_agrees(&flat, &model, &queries);
        for (p, v) in base.iter().zip(60_000..) {
            prop_assert_eq!(flat.insert(*p, v), model.insert(*p, v), "insert({})", p);
        }
        assert_agrees(&flat, &model, &queries);

        for p in &filler {
            prop_assert_eq!(flat.remove(*p), model.remove(p));
        }
        assert_agrees(&flat, &model, &queries);
    }

    /// The length bound inside one stride: /17–/24 queries over /20–/24
    /// sets under 10.1.0.0/18, where a /21 or /22 query shares its
    /// depth-16 node with stored /23s and /24s inside it and must still
    /// match only what covers it.
    #[test]
    fn queries_shorter_than_stored_more_specifics_in_one_stride(
        stored in prop::collection::vec(nested_v4(), 1..24),
        churn in prop::collection::vec(nested_v4(), 0..8),
    ) {
        let (mut flat, mut model) = build(numbered(&stored));
        // Every prefix of 10.1.0.0/18 down to /24, and its /16 and /17.
        let v4 = |addr: u32, len: u8| Prefix::v4(Ipv4Addr::from(addr), len).expect("/16-/24");
        let mut queries = vec![v4(0x0A01_0000, 16), v4(0x0A01_0000, 17)];
        for len in 18u8..=24 {
            let step = 1u32 << (32 - len);
            queries.extend((0..1u32 << (len - 18)).map(|i| v4(0x0A01_0000 + i * step, len)));
        }
        assert_agrees(&flat, &model, &queries);
        for p in &churn {
            prop_assert_eq!(flat.remove(*p), model.remove(p), "remove({})", p);
            assert_agrees(&flat, &model, &queries);
        }
    }
}

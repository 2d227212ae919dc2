//! Property-based tests for the BGP foundation types: prefix algebra,
//! trie-vs-naive equivalence, and wire-codec round-trips.

use artemis_bgp::prefix::Afi;
use artemis_bgp::{
    aspath::Segment, AsPath, Asn, BgpMessage, Codec, Community, FlatTrie, Origin, PathAttributes,
    Prefix, UpdateMessage,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

fn arb_v4_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32)
        .prop_map(|(addr, len)| Prefix::v4(std::net::Ipv4Addr::from(addr), len).expect("len <= 32"))
}

fn arb_v6_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u128>(), 0u8..=128).prop_map(|(addr, len)| {
        Prefix::v6(std::net::Ipv6Addr::from(addr), len).expect("len <= 128")
    })
}

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    prop_oneof![arb_v4_prefix(), arb_v6_prefix()]
}

fn arb_asn() -> impl Strategy<Value = Asn> {
    prop_oneof![
        (1u32..65536).prop_map(Asn),
        (65536u32..4_000_000_000).prop_map(Asn),
    ]
}

fn arb_as_path() -> impl Strategy<Value = AsPath> {
    prop::collection::vec(arb_asn(), 1..8).prop_map(AsPath::from_sequence)
}

fn arb_as_path_with_sets() -> impl Strategy<Value = AsPath> {
    prop::collection::vec(
        prop_oneof![
            prop::collection::vec(arb_asn(), 1..5).prop_map(Segment::Sequence),
            prop::collection::vec(arb_asn(), 1..4).prop_map(Segment::Set),
        ],
        1..4,
    )
    .prop_map(AsPath::from_segments)
}

fn arb_attrs() -> impl Strategy<Value = PathAttributes> {
    (
        arb_as_path(),
        prop_oneof![
            Just(Origin::Igp),
            Just(Origin::Egp),
            Just(Origin::Incomplete)
        ],
        any::<u32>(),
        proptest::option::of(any::<u32>()),
        proptest::option::of(any::<u32>()),
        prop::collection::vec(any::<u32>().prop_map(Community), 0..4),
        any::<bool>(),
    )
        .prop_map(
            |(path, origin, nh, med, lp, communities, atomic)| PathAttributes {
                origin,
                as_path: path,
                next_hop: std::net::IpAddr::V4(std::net::Ipv4Addr::from(nh)),
                med,
                local_pref: lp,
                atomic_aggregate: atomic,
                aggregator: None,
                communities,
            },
        )
}

// ---------------------------------------------------------------------
// Prefix algebra
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn prefix_display_parse_roundtrip(p in arb_prefix()) {
        let text = p.to_string();
        let back: Prefix = text.parse().expect("canonical text reparses");
        prop_assert_eq!(p, back);
    }

    #[test]
    fn prefix_contains_is_reflexive(p in arb_prefix()) {
        prop_assert!(p.contains(p));
    }

    #[test]
    fn split_partitions_exactly(p in arb_v4_prefix()) {
        if let Some((lo, hi)) = p.split() {
            prop_assert!(p.contains(lo));
            prop_assert!(p.contains(hi));
            prop_assert!(!lo.overlaps(hi));
            prop_assert_eq!(lo.len(), p.len() + 1);
            prop_assert_eq!(hi.len(), p.len() + 1);
            prop_assert_eq!(
                lo.address_count() + hi.address_count(),
                p.address_count()
            );
        } else {
            prop_assert_eq!(p.len(), 32);
        }
    }

    #[test]
    fn deaggregate_covers_parent_and_nothing_else(
        p in (any::<u32>(), 8u8..=22).prop_map(|(a, l)| Prefix::v4(a.into(), l).unwrap()),
        extra in 1u8..=3,
    ) {
        let target = p.len() + extra;
        let subs = p.deaggregate(target);
        prop_assert_eq!(subs.len(), 1usize << extra);
        let mut total: u128 = 0;
        for (i, s) in subs.iter().enumerate() {
            prop_assert_eq!(s.len(), target);
            prop_assert!(p.contains(*s), "{} must contain {}", p, s);
            total += s.address_count();
            // Ordered and pairwise disjoint.
            if i > 0 {
                prop_assert!(subs[i - 1] < *s);
                prop_assert!(!subs[i - 1].overlaps(*s));
            }
        }
        prop_assert_eq!(total, p.address_count());
    }

    #[test]
    fn supernet_inverts_split(p in arb_v4_prefix()) {
        if let Some((lo, hi)) = p.split() {
            prop_assert_eq!(lo.supernet().unwrap(), p);
            prop_assert_eq!(hi.supernet().unwrap(), p);
            prop_assert_eq!(lo.sibling().unwrap(), hi);
            prop_assert_eq!(hi.sibling().unwrap(), lo);
        }
    }

    #[test]
    fn containment_transitivity(a in arb_v4_prefix(), b in arb_v4_prefix(), c in arb_v4_prefix()) {
        if a.contains(b) && b.contains(c) {
            prop_assert!(a.contains(c));
        }
    }
}

// ---------------------------------------------------------------------
// Trie vs naive scan
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn trie_longest_match_equals_naive(
        entries in prop::collection::hash_set((any::<u32>(), 0u8..=28), 1..40),
        probe in any::<u32>(),
    ) {
        let mut trie = FlatTrie::new();
        let prefixes: Vec<Prefix> = entries
            .iter()
            .map(|(a, l)| Prefix::v4((*a).into(), *l).unwrap())
            .collect();
        for (i, p) in prefixes.iter().enumerate() {
            trie.insert(*p, i);
        }
        let probe = Prefix::v4(probe.into(), 32).unwrap();
        let trie_hit = trie.longest_match(probe).map(|(p, _)| p);
        let naive_hit = prefixes
            .iter()
            .filter(|p| p.contains(probe))
            .max_by_key(|p| p.len())
            .copied();
        // Dup prefixes in `prefixes` collapse in the trie; compare prefixes only.
        prop_assert_eq!(trie_hit, naive_hit);
    }

    #[test]
    fn trie_covered_equals_naive(
        entries in prop::collection::hash_set((any::<u32>(), 0u8..=24), 1..40),
        root_addr in any::<u32>(),
        root_len in 0u8..=16,
    ) {
        let mut trie = FlatTrie::new();
        let prefixes: Vec<Prefix> = entries
            .iter()
            .map(|(a, l)| Prefix::v4((*a).into(), *l).unwrap())
            .collect();
        for p in &prefixes {
            trie.insert(*p, ());
        }
        let root = Prefix::v4(root_addr.into(), root_len).unwrap();
        // The containment visit minus the strict less-specifics is the
        // covered set.
        let mut visited: Vec<Prefix> = Vec::new();
        trie.visit_relevant(root, |p, _| {
            if root.contains(p) {
                visited.push(p);
            }
        });
        let mut naive: Vec<Prefix> = prefixes
            .iter()
            .filter(|p| root.contains(**p))
            .copied()
            .collect();
        naive.sort();
        naive.dedup();
        visited.sort();
        prop_assert_eq!(visited, naive);
    }

    #[test]
    fn trie_insert_remove_is_identity(
        entries in prop::collection::vec((any::<u32>(), 0u8..=32), 1..30),
    ) {
        let mut trie = FlatTrie::new();
        let prefixes: Vec<Prefix> = entries
            .iter()
            .map(|(a, l)| Prefix::v4((*a).into(), *l).unwrap())
            .collect();
        for p in &prefixes {
            trie.insert(*p, *p);
        }
        let mut uniq = prefixes.clone();
        uniq.sort();
        uniq.dedup();
        prop_assert_eq!(trie.len(), uniq.len());
        for p in &uniq {
            prop_assert_eq!(trie.remove(*p), Some(*p));
        }
        prop_assert!(trie.is_empty());
    }

    /// Insert-all then `iter()` is the identity on the deduplicated
    /// entry set, and yields address order within each family with v4
    /// before v6.
    #[test]
    fn trie_insert_iter_roundtrip(
        v4 in prop::collection::hash_set((any::<u32>(), 0u8..=32), 0..30),
        v6 in prop::collection::hash_set((any::<u128>(), 0u8..=64), 0..20),
    ) {
        let entries: Vec<(Prefix, u64)> = v4
            .iter()
            .map(|(a, l)| Prefix::v4((*a).into(), *l).unwrap())
            .chain(
                v6.iter()
                    .map(|(a, l)| Prefix::v6((*a).into(), *l).unwrap()),
            )
            .enumerate()
            .map(|(i, p)| (p, i as u64))
            .collect();
        let mut trie = FlatTrie::new();
        for (p, v) in &entries {
            trie.insert(*p, *v);
        }

        // Insertion keeps the *last* value for duplicate prefixes
        // (distinct (addr, len) pairs can mask to the same prefix), and
        // `Prefix: Ord` is (family, bits, len) — exactly iteration
        // order — so a BTreeMap models both.
        let expected: Vec<(Prefix, u64)> = entries
            .iter()
            .copied()
            .collect::<std::collections::BTreeMap<Prefix, u64>>()
            .into_iter()
            .collect();

        prop_assert_eq!(trie.len(), expected.len());
        let yielded: Vec<(Prefix, u64)> = trie.iter().map(|(p, v)| (p, *v)).collect();
        prop_assert_eq!(yielded, expected);
    }

    /// Longest-prefix match agrees with a naive linear scan for
    /// arbitrary host probes on sets from 1 to 511 entries — on both
    /// sides of the 256-entry threshold where the /16 direct table
    /// starts answering the first sixteen bits.
    #[test]
    fn trie_lpm_equals_naive_scan_across_table_threshold(
        entries in prop::collection::hash_set((any::<u32>(), 0u8..=30), 1..512),
        probes in prop::collection::vec(any::<u32>(), 1..16),
    ) {
        let prefixes: Vec<(Prefix, usize)> = entries
            .iter()
            .map(|(a, l)| Prefix::v4((*a).into(), *l).unwrap())
            .enumerate()
            .map(|(i, p)| (p, i))
            .collect();
        let mut trie = FlatTrie::new();
        for (p, i) in &prefixes {
            trie.insert(*p, *i);
        }
        for probe in probes {
            let host = Prefix::v4(probe.into(), 32).unwrap();
            let trie_hit = trie.longest_match(host).map(|(p, _)| p);
            let naive_hit = prefixes
                .iter()
                .map(|(p, _)| *p)
                .filter(|p| p.contains(host))
                .max_by_key(|p| p.len());
            prop_assert_eq!(trie_hit, naive_hit, "probe {}", host);
        }
    }
}

// ---------------------------------------------------------------------
// AS path
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn prepend_increases_len_and_sets_neighbor(path in arb_as_path(), asn in arb_asn(), n in 1usize..5) {
        let out = path.prepend_n(asn, n);
        prop_assert_eq!(out.decision_len(), path.decision_len() + n);
        prop_assert_eq!(out.neighbor(), Some(asn));
        prop_assert_eq!(out.origin(), path.origin());
    }

    /// Value semantics of a path do not depend on how its storage is
    /// shared: a clone equals its source, equal paths hash equally
    /// however they were built, and `prepend_n` builds a new path
    /// without touching the one it was called on (or its clones).
    #[test]
    fn paths_keep_value_semantics(
        path in arb_as_path_with_sets(),
        asn in arb_asn(),
        n in 0usize..4,
        cut in any::<usize>(),
    ) {
        let before: Vec<Segment> = path.segments().to_vec();
        let copy = path.clone();
        prop_assert_eq!(&copy, &path);

        // Built a second way: every sequence cut in two adjacent
        // chunks (as the wire does past 255 ASNs) plus an empty
        // segment, which `from_segments` must merge and drop again.
        let rebuilt = AsPath::from_segments(before.iter().flat_map(|seg| match seg {
            Segment::Sequence(a) => {
                let (l, r) = a.split_at(cut % (a.len() + 1));
                vec![
                    Segment::Sequence(l.to_vec()),
                    Segment::Set(Vec::new()),
                    Segment::Sequence(r.to_vec()),
                ]
            }
            set => vec![set.clone()],
        }));
        prop_assert_eq!(&rebuilt, &path);
        prop_assert_eq!(hash_of(&rebuilt), hash_of(&path));
        prop_assert_eq!(hash_of(&copy), hash_of(&path));

        let out = path.prepend_n(asn, n);
        let expected: Vec<Asn> = std::iter::repeat_n(asn, n).chain(path.iter()).collect();
        prop_assert_eq!(out.iter().collect::<Vec<_>>(), expected);
        prop_assert_eq!(path.segments(), &before[..]);
        prop_assert_eq!(copy.segments(), &before[..]);
    }

    /// `origin_neighbor` against the flatten-everything model it
    /// replaced: `None` on any set, else the second-to-last ASN.
    #[test]
    fn origin_neighbor_matches_flattened_model(path in arb_as_path_with_sets()) {
        let has_set = path.segments().iter().any(|s| matches!(s, Segment::Set(_)));
        let flat: Vec<Asn> = path.iter().collect();
        let model = if has_set || flat.len() < 2 { None } else { Some(flat[flat.len() - 2]) };
        prop_assert_eq!(path.origin_neighbor(), model);
    }
}

fn hash_of(path: &AsPath) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    path.hash(&mut h);
    h.finish()
}

// ---------------------------------------------------------------------
// Wire codec round-trips
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn update_roundtrips_four_octet(
        attrs in arb_attrs(),
        nlri in prop::collection::vec(arb_v4_prefix(), 1..6),
        withdrawn in prop::collection::vec(arb_v4_prefix(), 0..4),
    ) {
        let codec = Codec::four_octet();
        let update = UpdateMessage { withdrawn, attrs: Some(attrs), nlri };
        let bytes = codec.encode(&BgpMessage::Update(update.clone())).unwrap();
        let (decoded, used) = codec.decode(&bytes).unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(decoded, BgpMessage::Update(update));
    }

    #[test]
    fn update_roundtrips_two_octet_with_as4(
        path in arb_as_path(),
        nlri in prop::collection::vec(arb_v4_prefix(), 1..4),
    ) {
        let codec = Codec::two_octet();
        let attrs = PathAttributes::with_path(path, "192.0.2.1".parse().unwrap());
        let update = UpdateMessage::announce(attrs, nlri);
        let bytes = codec.encode(&BgpMessage::Update(update.clone())).unwrap();
        let (decoded, _) = codec.decode(&bytes).unwrap();
        // The reconciled AS_PATH must equal the original.
        match decoded {
            BgpMessage::Update(u) => {
                prop_assert_eq!(u.attrs.unwrap().as_path, update.attrs.unwrap().as_path);
                prop_assert_eq!(u.nlri, update.nlri);
            }
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    #[test]
    fn mixed_segment_paths_roundtrip(path in arb_as_path_with_sets(), nlri in prop::collection::vec(arb_v4_prefix(), 1..3)) {
        let codec = Codec::four_octet();
        let attrs = PathAttributes::with_path(path, "192.0.2.1".parse().unwrap());
        let update = UpdateMessage::announce(attrs, nlri);
        let bytes = codec.encode(&BgpMessage::Update(update.clone())).unwrap();
        let (decoded, _) = codec.decode(&bytes).unwrap();
        prop_assert_eq!(decoded, BgpMessage::Update(update));
    }

    #[test]
    fn v6_updates_roundtrip(
        path in arb_as_path(),
        nlri in prop::collection::vec(arb_v6_prefix(), 1..5),
        withdrawn in prop::collection::vec(arb_v6_prefix(), 0..3),
    ) {
        let codec = Codec::four_octet();
        let attrs = PathAttributes::with_path(path, "2001:db8::1".parse().unwrap());
        let update = UpdateMessage { withdrawn, attrs: Some(attrs), nlri };
        let bytes = codec.encode(&BgpMessage::Update(update.clone())).unwrap();
        let (decoded, _) = codec.decode(&bytes).unwrap();
        prop_assert_eq!(decoded, BgpMessage::Update(update));
    }

    #[test]
    fn decoder_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..256)) {
        let codec = Codec::four_octet();
        let _ = codec.decode(&data); // must return, never panic
    }

    #[test]
    fn decoder_never_panics_on_corrupted_valid_message(
        attrs in arb_attrs(),
        nlri in prop::collection::vec(arb_v4_prefix(), 1..4),
        flip in any::<(usize, u8)>(),
    ) {
        let codec = Codec::four_octet();
        let update = UpdateMessage::announce(attrs, nlri);
        let mut bytes = codec.encode(&BgpMessage::Update(update)).unwrap().to_vec();
        let idx = flip.0 % bytes.len();
        bytes[idx] ^= flip.1;
        let _ = codec.decode(&bytes); // Result either way; no panic
    }
}

// ---------------------------------------------------------------------
// Deterministic smoke checks that complement the proptest suites
// ---------------------------------------------------------------------

#[test]
fn afi_scoping_of_tries_under_heavy_mixing() {
    let mut trie = FlatTrie::new();
    for i in 0..512u32 {
        let v4 = Prefix::v4(std::net::Ipv4Addr::from(i << 12), 24).unwrap();
        let v6 = Prefix::v6(std::net::Ipv6Addr::from((i as u128) << 100), 28).unwrap();
        trie.insert(v4, i);
        trie.insert(v6, i + 10_000);
    }
    let (mut v4_all, mut v6_all) = (Vec::new(), Vec::new());
    trie.visit_relevant(Prefix::default_v4(), |p, _| v4_all.push(p));
    trie.visit_relevant(Prefix::default_v6(), |p, _| v6_all.push(p));
    assert!(v4_all.iter().all(|p| p.afi() == Afi::Ipv4));
    assert!(v6_all.iter().all(|p| p.afi() == Afi::Ipv6));
    assert_eq!(v4_all.len() + v6_all.len(), trie.len());
}

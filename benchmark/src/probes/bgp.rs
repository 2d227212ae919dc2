//! `artemis_bgp`: UPDATE decode and the routing structure.
//!
//! Calls `Codec::{four_octet, decode}`, `FlatTrie::{new, insert,
//! remove, longest_match, len, approx_bytes}`.

use super::{ns_per, ProbeInputs};
use artemis_bgp::{Codec, FlatTrie, Prefix};
use artemis_bmp::{BmpScanner, MSG_ROUTE_MONITORING, PEER_HEADER_LEN};

/// Lookups per LPM measurement and prefixes per mutation measurement.
const LOOKUPS: usize = 400_000;
const MUTATIONS: usize = 2_000;

pub fn run(inputs: &ProbeInputs<'_>, out: &mut Vec<(&'static str, f64)>) {
    // The UPDATE PDU alone: what follows the per-peer header.
    let mut scanner = BmpScanner::new(&inputs.bytes);
    let mut pdus = Vec::new();
    while let Some(raw) = scanner.next_raw().expect("generated framing is sound") {
        if raw.msg_type == MSG_ROUTE_MONITORING {
            pdus.push(&raw.body[PEER_HEADER_LEN..]);
        }
    }
    let codec = Codec::four_octet();
    let (decode_ns, ()) = ns_per(inputs.declared_events, || {
        for pdu in &pdus {
            std::hint::black_box(codec.decode(pdu).expect("generated UPDATE decodes"));
        }
    });
    out.push(("bgp.update_decode_ns_per_event", decode_ns));

    // The fleet's routing structure, as the detector builds it.
    let mut trie: FlatTrie<usize> = FlatTrie::new();
    for (i, o) in inputs.fleet.owned.iter().enumerate() {
        trie.insert(o.prefix, i);
    }
    out.push((
        "bgp.trie_bytes_per_prefix",
        trie.approx_bytes() as f64 / trie.len() as f64,
    ));

    // Longest-prefix match with the stream's own prefixes, split by
    // whether the fleet covers them.
    let (hits, misses): (Vec<Prefix>, Vec<Prefix>) = inputs
        .events
        .iter()
        .map(|e| e.prefix)
        .partition(|p| trie.longest_match(*p).is_some());
    for (name, set) in [("bgp.lpm_hit_ns", &hits), ("bgp.lpm_miss_ns", &misses)] {
        assert!(!set.is_empty(), "the stream has no prefixes for {name}");
        let (ns, ()) = ns_per(LOOKUPS as u64, || {
            for p in set.iter().cycle().take(LOOKUPS) {
                std::hint::black_box(trie.longest_match(*p));
            }
        });
        out.push((name, ns));
    }

    // In-place mutation at fleet scale, prefixes spread over the fleet.
    let stride = inputs.fleet.owned.len() / MUTATIONS;
    let victims: Vec<(Prefix, usize)> = (0..MUTATIONS)
        .map(|i| (inputs.fleet.owned[i * stride].prefix, i * stride))
        .collect();
    let (remove_ns, ()) = ns_per(MUTATIONS as u64, || {
        for (p, _) in &victims {
            std::hint::black_box(trie.remove(*p));
        }
    });
    let (insert_ns, ()) = ns_per(MUTATIONS as u64, || {
        for (p, i) in &victims {
            std::hint::black_box(trie.insert(*p, *i));
        }
    });
    assert_eq!(trie.len(), inputs.fleet.owned.len());
    out.push(("bgp.trie_insert_ns", insert_ns));
    out.push(("bgp.trie_remove_ns", remove_ns));
}

//! Array-backed binary prefix trie: the one prefix → value map of the
//! workspace.
//!
//! [`FlatTrie`] is a plain one-bit-per-level binary trie whose nodes
//! live in a contiguous pool linked by `u32` indices, with the values
//! in a slab indexed from the nodes. Longest-prefix match is a walk
//! over a dense array, and for IPv4 lookups a stride-16 root table
//! skips the first sixteen branches in one indexed load.
//!
//! [`FlatTrie::insert`] and [`FlatTrie::remove`] patch the node pool
//! and the stride table in place, touching only the affected subtree
//! and the `2^(16-len)` stride slots a changed IPv4 prefix can
//! influence. Onboarding or offboarding a prefix therefore costs
//! O(affected subtree), which is what lets the ARTEMIS detector keep a
//! single epoch-stamped routing structure across configuration churn.
//!
//! Every query is property-checked in `tests/flat_properties.rs`
//! against a linear model (a `BTreeMap<Prefix, T>` scanned with
//! [`Prefix::contains`]), after every single mutation and on both sides
//! of the stride-table threshold.

use crate::prefix::{Afi, Prefix};

/// Sentinel for "no node" / "no value" links in the flat arrays.
const NONE: u32 = u32::MAX;
/// Index of the IPv4 root node in the node pool.
const V4_ROOT: u32 = 0;
/// Index of the IPv6 root node in the node pool.
const V6_ROOT: u32 = 1;
/// Number of leading IPv4 bits resolved by the stride table.
const TABLE_BITS: u8 = 16;
/// Minimum number of IPv4 entries before the 65536-slot stride table
/// is materialized. Below this the plain walk is already cheap and the
/// 512 KiB table would dominate the structure's footprint. Once built
/// the table is kept (and patched) even if the count later drops.
const TABLE_MIN_V4: usize = 32;

/// One node of the flattened trie: two child links and an optional
/// index into the value slab.
#[derive(Debug, Clone, Copy)]
struct FlatNode {
    children: [u32; 2],
    value: u32,
}

impl FlatNode {
    const EMPTY: FlatNode = FlatNode {
        children: [NONE, NONE],
        value: NONE,
    };
}

/// Precomputed state after consuming the first [`TABLE_BITS`] bits of
/// an IPv4 lookup: the node reached (or [`NONE`]) and the best value
/// index seen on the way down.
#[derive(Debug, Clone, Copy)]
struct RootSlot {
    node: u32,
    best: u32,
}

/// A map from [`Prefix`] to `T` with longest-prefix-match, covering and
/// containment queries; IPv4 and IPv6 occupy disjoint sub-tries.
///
/// See the [module docs](self) for the layout. All point operations
/// are `O(len)` (≤ 32 / 128 bit steps); the visits are
/// output-sensitive.
#[derive(Debug, Clone)]
pub struct FlatTrie<T> {
    nodes: Vec<FlatNode>,
    /// Recycled node-pool indices available for reuse.
    free_nodes: Vec<u32>,
    /// `(prefix, value)` slab; `None` entries are free slots.
    values: Vec<Option<(Prefix, T)>>,
    /// Recycled value-slab indices available for reuse.
    free_values: Vec<u32>,
    /// Stride-16 IPv4 root table (empty until [`TABLE_MIN_V4`] IPv4
    /// prefixes have been inserted).
    v4_table: Vec<RootSlot>,
    /// Live IPv4 prefix count (drives stride-table materialization).
    v4_len: usize,
}

impl<T> FlatTrie<T> {
    /// An empty flat trie (no prefixes, lookups all miss).
    pub fn new() -> Self {
        FlatTrie {
            nodes: vec![FlatNode::EMPTY, FlatNode::EMPTY],
            free_nodes: Vec::new(),
            values: Vec::new(),
            free_values: Vec::new(),
            v4_table: Vec::new(),
            v4_len: 0,
        }
    }

    /// Insert `value` for `prefix`, returning the previous value if the
    /// prefix was already present. Patches the node pool and (for IPv4)
    /// the stride-16 root table in place: only the path to `prefix` and
    /// the stride slots covered by `prefix` are touched.
    pub fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        let mut cur = root_of(prefix.afi());
        for i in 0..prefix.len() {
            let b = usize::from(prefix.bit(i));
            let next = self.nodes[cur as usize].children[b];
            cur = if next == NONE {
                let idx = self.alloc_node();
                self.nodes[cur as usize].children[b] = idx;
                idx
            } else {
                next
            };
        }
        let node = &mut self.nodes[cur as usize];
        if node.value != NONE {
            // Replace in place: the value index is unchanged, so every
            // stride slot referencing it stays valid — no patch needed.
            let vidx = node.value as usize;
            let (_, old) = self.values[vidx]
                .replace((prefix, value))
                .expect("occupied value slot");
            return Some(old);
        }
        let vidx = self.alloc_value(prefix, value);
        self.nodes[cur as usize].value = vidx;
        if prefix.afi() == Afi::Ipv4 {
            self.v4_len += 1;
            if self.v4_table.is_empty() {
                if self.v4_len >= TABLE_MIN_V4 {
                    self.build_v4_table();
                }
            } else {
                self.patch_v4_table(prefix);
            }
        }
        None
    }

    /// Remove `prefix`, returning its value if it was present. Prunes
    /// now-empty chain nodes back toward the root and patches the
    /// affected IPv4 stride slots in place.
    pub fn remove(&mut self, prefix: Prefix) -> Option<T> {
        let root = root_of(prefix.afi());
        let mut cur = root;
        let mut path = Vec::with_capacity(usize::from(prefix.len()));
        for i in 0..prefix.len() {
            let b = usize::from(prefix.bit(i));
            let next = self.nodes[cur as usize].children[b];
            if next == NONE {
                return None;
            }
            path.push((cur, b));
            cur = next;
        }
        let vidx = self.nodes[cur as usize].value;
        if vidx == NONE {
            return None;
        }
        self.nodes[cur as usize].value = NONE;
        let (_, value) = self.values[vidx as usize]
            .take()
            .expect("occupied value slot");
        self.free_values.push(vidx);
        // Prune valueless leaf chains back toward the root.
        let mut child = cur;
        while child != root {
            let n = self.nodes[child as usize];
            if n.value != NONE || n.children[0] != NONE || n.children[1] != NONE {
                break;
            }
            let (parent, b) = path.pop().expect("path covers all non-root nodes");
            self.nodes[parent as usize].children[b] = NONE;
            self.nodes[child as usize] = FlatNode::EMPTY;
            self.free_nodes.push(child);
            child = parent;
        }
        if prefix.afi() == Afi::Ipv4 {
            self.v4_len -= 1;
            self.patch_v4_table(prefix);
        }
        Some(value)
    }

    /// Mutable access to the value stored for exactly `prefix`.
    pub fn get_mut(&mut self, prefix: Prefix) -> Option<&mut T> {
        let mut cur = root_of(prefix.afi());
        for i in 0..prefix.len() {
            let next = self.nodes[cur as usize].children[usize::from(prefix.bit(i))];
            if next == NONE {
                return None;
            }
            cur = next;
        }
        let vidx = self.nodes[cur as usize].value;
        if vidx == NONE {
            return None;
        }
        self.values[vidx as usize].as_mut().map(|(_, v)| v)
    }

    fn alloc_node(&mut self) -> u32 {
        if let Some(idx) = self.free_nodes.pop() {
            idx
        } else {
            let idx = u32::try_from(self.nodes.len()).expect("node pool fits in u32");
            self.nodes.push(FlatNode::EMPTY);
            idx
        }
    }

    fn alloc_value(&mut self, prefix: Prefix, value: T) -> u32 {
        if let Some(idx) = self.free_values.pop() {
            self.values[idx as usize] = Some((prefix, value));
            idx
        } else {
            let idx = u32::try_from(self.values.len()).expect("value slab fits in u32");
            self.values.push(Some((prefix, value)));
            idx
        }
    }

    /// Recompute the stride slots whose 16-bit head is covered by
    /// `prefix` (all of them when `len < 16`, exactly one otherwise).
    /// Heads outside that range cannot observe the change: the
    /// inserted/pruned chain nodes off `prefix`'s path are valueless
    /// and single-child, so their walks terminate with the same
    /// `(node, best)` as before.
    fn patch_v4_table(&mut self, prefix: Prefix) {
        if self.v4_table.is_empty() {
            return;
        }
        let head = (prefix.bits() >> (128 - u32::from(TABLE_BITS))) as usize;
        let span = if prefix.len() >= TABLE_BITS {
            1
        } else {
            1usize << (TABLE_BITS - prefix.len())
        };
        for h in head..head + span {
            self.v4_table[h] = self.compute_slot(h);
        }
    }

    fn compute_slot(&self, head: usize) -> RootSlot {
        let mut cur = V4_ROOT;
        let mut best = self.nodes[cur as usize].value;
        for i in 0..TABLE_BITS {
            let b = (head >> (TABLE_BITS - 1 - i)) & 1;
            let next = self.nodes[cur as usize].children[b];
            if next == NONE {
                return RootSlot { node: NONE, best };
            }
            cur = next;
            if self.nodes[cur as usize].value != NONE {
                best = self.nodes[cur as usize].value;
            }
        }
        RootSlot { node: cur, best }
    }

    fn build_v4_table(&mut self) {
        let slots = 1usize << TABLE_BITS;
        let mut table = Vec::with_capacity(slots);
        for head in 0..slots {
            table.push(self.compute_slot(head));
        }
        self.v4_table = table;
    }

    /// Longest stored prefix covering `prefix` (possibly `prefix`
    /// itself), with its value.
    pub fn longest_match(&self, prefix: Prefix) -> Option<(Prefix, &T)> {
        let (mut cur, mut best, start) = match prefix.afi() {
            Afi::Ipv4 if !self.v4_table.is_empty() && prefix.len() >= TABLE_BITS => {
                let head = (prefix.bits() >> (128 - u32::from(TABLE_BITS))) as usize;
                let slot = self.v4_table[head];
                if slot.node == NONE {
                    return self.value_at(slot.best);
                }
                (slot.node, slot.best, TABLE_BITS)
            }
            Afi::Ipv4 => (V4_ROOT, self.nodes[V4_ROOT as usize].value, 0),
            Afi::Ipv6 => (V6_ROOT, self.nodes[V6_ROOT as usize].value, 0),
        };
        for i in start..prefix.len() {
            let b = usize::from(prefix.bit(i));
            let next = self.nodes[cur as usize].children[b];
            if next == NONE {
                break;
            }
            cur = next;
            let v = self.nodes[cur as usize].value;
            if v != NONE {
                best = v;
            }
        }
        self.value_at(best)
    }

    /// Value stored for exactly `prefix`, if any.
    pub fn get(&self, prefix: Prefix) -> Option<&T> {
        let mut cur = root_of(prefix.afi());
        for i in 0..prefix.len() {
            let next = self.nodes[cur as usize].children[usize::from(prefix.bit(i))];
            if next == NONE {
                return None;
            }
            cur = next;
        }
        self.value_at(self.nodes[cur as usize].value)
            .map(|(_, v)| v)
    }

    /// Show `f` every stored strict less-specific of `prefix`,
    /// shortest first, and return the node at exactly `prefix` (`None`
    /// when the branch ends before it). Walks from the family root:
    /// the stride table records only the best match per slot, not
    /// every match on the way down.
    fn visit_above<'a, F>(&'a self, prefix: Prefix, f: &mut F) -> Option<u32>
    where
        F: FnMut(Prefix, &'a T),
    {
        let mut cur = root_of(prefix.afi());
        for i in 0..prefix.len() {
            if let Some((p, v)) = self.value_at(self.nodes[cur as usize].value) {
                f(p, v);
            }
            cur = self.nodes[cur as usize].children[usize::from(prefix.bit(i))];
            if cur == NONE {
                return None;
            }
        }
        Some(cur)
    }

    /// Visit every stored prefix that covers `prefix` — its
    /// less-specifics and `prefix` itself when stored — shortest
    /// first, without allocating.
    pub fn visit_covering<'a, F>(&'a self, prefix: Prefix, mut f: F)
    where
        F: FnMut(Prefix, &'a T),
    {
        if let Some(at) = self.visit_above(prefix, &mut f) {
            if let Some((p, v)) = self.value_at(self.nodes[at as usize].value) {
                f(p, v);
            }
        }
    }

    /// Visit every stored prefix *relevant* to `prefix` under the
    /// containment relation — every stored prefix that covers it,
    /// equals it, or is covered by it — exactly once each and without
    /// allocating: the strict less-specifics shortest-first, then the
    /// subtree at `prefix` (the exact prefix first, then
    /// more-specifics in address order). Hot paths that run one
    /// containment query per feed event (the monitor-routing index)
    /// use this.
    pub fn visit_relevant<'a, F>(&'a self, prefix: Prefix, mut f: F)
    where
        F: FnMut(Prefix, &'a T),
    {
        if let Some(at) = self.visit_above(prefix, &mut f) {
            self.visit_subtree(at, &mut f);
        }
    }

    /// Pre-order walk of the subtree at `idx`; recursion depth is
    /// bounded by the family's address length.
    fn visit_subtree<'a, F>(&'a self, idx: u32, f: &mut F)
    where
        F: FnMut(Prefix, &'a T),
    {
        let node = self.nodes[idx as usize];
        if let Some((p, v)) = self.value_at(node.value) {
            f(p, v);
        }
        for child in node.children {
            if child != NONE {
                self.visit_subtree(child, f);
            }
        }
    }

    fn value_at(&self, idx: u32) -> Option<(Prefix, &T)> {
        if idx == NONE {
            None
        } else {
            let (p, v) = self.values[idx as usize]
                .as_ref()
                .expect("live value index");
            Some((*p, v))
        }
    }

    /// All `(prefix, value)` pairs, IPv4 before IPv6 and in pre-order
    /// address order within each family — the order of `Prefix: Ord`.
    pub fn iter(&self) -> FlatIter<'_, T> {
        FlatIter {
            trie: self,
            stack: vec![V6_ROOT, V4_ROOT],
        }
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.values.len() - self.free_values.len()
    }

    /// True when no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of live nodes in the flat pool (including the two roots).
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free_nodes.len()
    }

    /// Approximate heap footprint in bytes: node pool, value slab, free
    /// lists and the IPv4 stride table. Per-value payload is counted by
    /// `size_of::<T>()`; heap owned by `T` itself is not followed.
    pub fn approx_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<FlatNode>()
            + self.values.capacity() * std::mem::size_of::<Option<(Prefix, T)>>()
            + self.v4_table.capacity() * std::mem::size_of::<RootSlot>()
            + (self.free_nodes.capacity() + self.free_values.capacity())
                * std::mem::size_of::<u32>()
    }
}

fn root_of(afi: Afi) -> u32 {
    match afi {
        Afi::Ipv4 => V4_ROOT,
        Afi::Ipv6 => V6_ROOT,
    }
}

/// Lazy pre-order iterator over a [`FlatTrie`] (see
/// [`FlatTrie::iter`]).
#[derive(Debug)]
pub struct FlatIter<'a, T> {
    trie: &'a FlatTrie<T>,
    stack: Vec<u32>,
}

impl<'a, T> Iterator for FlatIter<'a, T> {
    type Item = (Prefix, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(idx) = self.stack.pop() {
            let node = self.trie.nodes[idx as usize];
            if node.children[1] != NONE {
                self.stack.push(node.children[1]);
            }
            if node.children[0] != NONE {
                self.stack.push(node.children[0]);
            }
            if node.value != NONE {
                let (p, v) = self.trie.values[node.value as usize]
                    .as_ref()
                    .expect("live value index");
                return Some((*p, v));
            }
        }
        None
    }
}

impl<T> Default for FlatTrie<T> {
    fn default() -> Self {
        FlatTrie::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn p(s: &str) -> Prefix {
        s.parse().expect("valid prefix")
    }

    /// The linear reference: a sorted map scanned with
    /// [`Prefix::contains`]. `Prefix: Ord` is `(afi, bits, len)`, which
    /// is the trie's pre-order, so the map's order is `iter()`'s.
    type Model = BTreeMap<Prefix, u32>;

    fn model_lpm(model: &Model, q: Prefix) -> Option<(Prefix, u32)> {
        model
            .iter()
            .filter(|(m, _)| m.contains(q))
            .max_by_key(|(m, _)| m.len())
            .map(|(m, v)| (*m, *v))
    }

    fn both(entries: &[(Prefix, u32)]) -> (FlatTrie<u32>, Model) {
        let mut flat = FlatTrie::new();
        for (pr, v) in entries {
            flat.insert(*pr, *v);
        }
        (flat, entries.iter().copied().collect())
    }

    fn assert_agrees(flat: &FlatTrie<u32>, model: &Model, queries: &[Prefix]) {
        assert_eq!(flat.len(), model.len());
        let pairs: Vec<_> = flat.iter().map(|(pr, v)| (pr, *v)).collect();
        let expected: Vec<_> = model.iter().map(|(pr, v)| (*pr, *v)).collect();
        assert_eq!(pairs, expected, "iteration order and contents");
        for &q in queries {
            assert_eq!(
                flat.longest_match(q).map(|(pr, v)| (pr, *v)),
                model_lpm(model, q),
                "longest_match({q})"
            );
            assert_eq!(flat.get(q), model.get(&q), "get({q})");
        }
    }

    #[test]
    fn empty_trie_misses_everything() {
        let flat: FlatTrie<u32> = FlatTrie::new();
        assert!(flat.longest_match(p("10.0.0.0/24")).is_none());
        assert!(flat.get(p("::/0")).is_none());
        assert_eq!(flat.len(), 0);
        assert!(flat.is_empty());
        assert_eq!(flat.node_count(), 2);
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = FlatTrie::new();
        assert_eq!(t.insert(p("10.0.0.0/23"), "a"), None);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(p("10.0.0.0/23")), Some(&"a"));
        assert_eq!(t.insert(p("10.0.0.0/23"), "b"), Some("a"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(p("10.0.0.0/23")), Some("b"));
        assert!(t.is_empty());
        assert_eq!(t.remove(p("10.0.0.0/23")), None);
    }

    #[test]
    fn exact_match_does_not_cross_lengths() {
        let mut t = FlatTrie::new();
        t.insert(p("10.0.0.0/23"), 23);
        assert_eq!(t.get(p("10.0.0.0/24")), None);
        assert_eq!(t.get(p("10.0.0.0/22")), None);
        assert_eq!(t.get(p("10.0.0.0/23")), Some(&23));
    }

    #[test]
    fn default_route_storable() {
        let mut t = FlatTrie::new();
        t.insert(Prefix::default_v4(), "default");
        assert_eq!(t.get(Prefix::default_v4()), Some(&"default"));
        assert_eq!(
            t.longest_match(p("203.0.113.0/24")).map(|(q, v)| (q, *v)),
            Some((Prefix::default_v4(), "default"))
        );
        assert!(t.longest_match(p("2001:db8::/32")).is_none());
    }

    #[test]
    fn longest_match_prefers_most_specific() {
        let mut t = FlatTrie::new();
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.0.0.0/16"), 16);
        t.insert(p("10.0.0.0/24"), 24);
        let (q, v) = t.longest_match(p("10.0.0.0/26")).unwrap();
        assert_eq!((q, *v), (p("10.0.0.0/24"), 24));
        let (q, v) = t.longest_match(p("10.0.1.0/24")).unwrap();
        assert_eq!((q, *v), (p("10.0.0.0/16"), 16));
        let (q, v) = t.longest_match(p("10.9.0.0/16")).unwrap();
        assert_eq!((q, *v), (p("10.0.0.0/8"), 8));
        assert!(t.longest_match(p("11.0.0.0/8")).is_none());
    }

    #[test]
    fn covering_lists_less_specifics() {
        let mut t = FlatTrie::new();
        for s in ["10.0.0.0/8", "10.0.0.0/16", "10.0.0.0/24", "10.1.0.0/16"] {
            t.insert(p(s), ());
        }
        let mut cov = Vec::new();
        t.visit_covering(p("10.0.0.0/24"), |q, _| cov.push(q));
        assert_eq!(
            cov,
            vec![p("10.0.0.0/8"), p("10.0.0.0/16"), p("10.0.0.0/24")]
        );
        // A branch that ends early still reports what covers the query.
        cov.clear();
        t.visit_covering(p("10.0.128.0/17"), |q, _| cov.push(q));
        assert_eq!(cov, vec![p("10.0.0.0/8"), p("10.0.0.0/16")]);
    }

    #[test]
    fn visit_relevant_is_covering_union_covered() {
        let (t, model) = both(&[
            (p("0.0.0.0/0"), 0),
            (p("10.0.0.0/8"), 8),
            (p("10.0.0.0/23"), 23),
            (p("10.0.0.0/24"), 24),
            (p("10.0.1.0/24"), 124),
            (p("10.0.0.0/25"), 25),
            (p("10.0.2.0/24"), 224),
            (p("172.16.0.0/12"), 12),
        ]);
        for query in [
            "10.0.0.0/24",
            "10.0.0.0/23",
            "10.0.0.0/8",
            "10.0.0.128/25",
            "10.0.3.0/24",
            "192.0.2.0/24",
            "0.0.0.0/0",
        ] {
            let q = p(query);
            // Pre-order puts the covering chain (shortest first) ahead
            // of the subtree at `q`, so the sorted model is the order.
            let expected: Vec<(Prefix, u32)> = model
                .iter()
                .filter(|(m, _)| m.contains(q) || q.contains(**m))
                .map(|(m, v)| (*m, *v))
                .collect();
            let mut got = Vec::new();
            t.visit_relevant(q, |pfx, v| got.push((pfx, *v)));
            assert_eq!(got, expected, "query {query}");
        }
    }

    #[test]
    fn families_are_disjoint() {
        let mut t = FlatTrie::new();
        t.insert(p("10.0.0.0/8"), "v4");
        t.insert(p("a00::/8"), "v6");
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(p("10.0.0.0/8")), Some(&"v4"));
        assert_eq!(t.get(p("a00::/8")), Some(&"v6"));
        let mut seen = Vec::new();
        t.visit_covering(p("10.0.0.0/24"), |_, v| seen.push(*v));
        t.visit_relevant(Prefix::default_v6(), |_, v| seen.push(*v));
        assert_eq!(seen, vec!["v4", "v6"]);
    }

    #[test]
    fn iter_returns_everything_in_order() {
        let mut t = FlatTrie::new();
        t.insert(p("192.0.2.0/24"), 1);
        t.insert(p("10.0.0.0/8"), 2);
        t.insert(p("2001:db8::/32"), 3);
        let all: Vec<Prefix> = t.iter().map(|(q, _)| q).collect();
        assert_eq!(
            all,
            vec![p("10.0.0.0/8"), p("192.0.2.0/24"), p("2001:db8::/32")]
        );
    }

    #[test]
    fn iter_is_lazy_and_ordered_within_subtrees() {
        let mut t = FlatTrie::new();
        t.insert(p("10.0.0.0/23"), 0);
        t.insert(p("10.0.1.0/24"), 1);
        t.insert(p("10.0.0.0/24"), 2);
        let mut it = t.iter();
        // Less-specific parent first, then children in address order.
        assert_eq!(it.next().map(|(q, _)| q), Some(p("10.0.0.0/23")));
        assert_eq!(it.next().map(|(q, _)| q), Some(p("10.0.0.0/24")));
        assert_eq!(it.next().map(|(q, _)| q), Some(p("10.0.1.0/24")));
        assert_eq!(it.next(), None);
    }

    #[test]
    fn remove_prunes_branches() {
        let mut t = FlatTrie::new();
        t.insert(p("10.0.0.0/24"), ());
        t.remove(p("10.0.0.0/24"));
        // After pruning, longest_match walks nothing.
        assert!(t.longest_match(p("10.0.0.0/32")).is_none());
        assert_eq!(t.nodes[V4_ROOT as usize].children, [NONE, NONE]);
    }

    #[test]
    fn remove_keeps_other_branch() {
        let mut t = FlatTrie::new();
        t.insert(p("10.0.0.0/24"), 1);
        t.insert(p("10.0.1.0/24"), 2);
        t.remove(p("10.0.0.0/24"));
        assert_eq!(t.get(p("10.0.1.0/24")), Some(&2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn get_mut_mutates() {
        let mut t = FlatTrie::new();
        t.insert(p("10.0.0.0/8"), 1);
        *t.get_mut(p("10.0.0.0/8")).unwrap() = 42;
        assert_eq!(t.get(p("10.0.0.0/8")), Some(&42));
    }

    #[test]
    fn matches_model_on_nested_prefixes() {
        let (flat, model) = both(&[
            (p("10.0.0.0/8"), 8),
            (p("10.0.0.0/24"), 24),
            (p("10.0.1.0/24"), 124),
            (p("0.0.0.0/0"), 0),
            (p("2001:db8::/32"), 632),
        ]);
        let queries = [
            "10.0.0.0/25",
            "10.0.0.0/24",
            "10.0.1.7/32",
            "10.9.0.0/16",
            "11.0.0.0/8",
            "0.0.0.0/0",
            "2001:db8:1::/48",
            "2001:db9::/32",
        ]
        .map(p);
        assert_agrees(&flat, &model, &queries);
    }

    #[test]
    fn stride_table_kicks_in_above_threshold_and_stays_identical() {
        let mut entries: Vec<(Prefix, u32)> = (0..64u32)
            .map(|i| {
                (
                    Prefix::v4([10, 0, i as u8, 0].into(), 24).expect("valid"),
                    i,
                )
            })
            .collect();
        entries.push((p("10.0.0.0/12"), 9000));
        let (flat, model) = both(&entries);
        assert!(!flat.v4_table.is_empty(), "table built above threshold");
        let mut queries: Vec<Prefix> = (0..128u32)
            .map(|i| Prefix::v4([10, (i >> 8) as u8, i as u8, 1].into(), 32).expect("valid"))
            .collect();
        // Short queries bypass the table but still agree.
        queries.push(p("10.128.0.0/9"));
        assert_agrees(&flat, &model, &queries);
    }

    #[test]
    fn footprint_accessors_report_plausible_sizes() {
        let (flat, _) = both(&[(p("192.0.2.0/24"), 1)]);
        assert_eq!(flat.len(), 1);
        assert_eq!(flat.node_count(), 2 + 24);
        assert!(flat.approx_bytes() >= flat.node_count() * std::mem::size_of::<FlatNode>());
    }

    #[test]
    fn incremental_insert_remove_matches_rebuild() {
        let prefixes: Vec<Prefix> = (0..48u32)
            .map(|i| {
                let octets = [10, (i >> 4) as u8, (i << 4) as u8, 0];
                Prefix::v4(octets.into(), 24).expect("valid")
            })
            .chain([p("10.0.0.0/8"), p("0.0.0.0/0"), p("2001:db8::/32")])
            .collect();
        let entries: Vec<(Prefix, u32)> = prefixes.iter().copied().zip(0..).collect();
        let (mut flat, mut model) = both(&entries);
        // Replacement returns the old value and keeps lookups intact.
        assert_eq!(flat.insert(prefixes[0], 999), Some(0));
        model.insert(prefixes[0], 999);
        // Remove roughly half, including table-covered and short ones.
        for pr in prefixes.iter().step_by(2) {
            assert_eq!(flat.remove(*pr), model.remove(pr));
        }
        assert_eq!(flat.remove(p("10.255.0.0/24")), None);
        assert_agrees(&flat, &model, &prefixes);
        // A trie that only ever saw the survivors answers the same.
        let survivors: Vec<(Prefix, u32)> = model.iter().map(|(pr, v)| (*pr, *v)).collect();
        let (rebuilt, _) = both(&survivors);
        assert_agrees(&rebuilt, &model, &prefixes);
        assert_eq!(flat.node_count(), rebuilt.node_count());
    }

    #[test]
    fn remove_prunes_chain_nodes_and_recycles_them() {
        let mut flat: FlatTrie<u32> = FlatTrie::new();
        flat.insert(p("192.0.2.0/24"), 1);
        assert_eq!(flat.node_count(), 2 + 24);
        assert_eq!(flat.remove(p("192.0.2.0/24")), Some(1));
        assert_eq!(flat.node_count(), 2, "chain pruned back to the root");
        assert!(flat.is_empty());
        // Reinsertion reuses the freed pool slots.
        flat.insert(p("198.51.100.0/24"), 2);
        assert_eq!(flat.node_count(), 2 + 24);
        assert_eq!(flat.nodes.len(), 2 + 24, "no pool growth on reuse");
    }

    #[test]
    fn stride_table_stays_patched_under_churn() {
        let entries: Vec<(Prefix, u32)> = (0..40u32)
            .map(|i| {
                (
                    Prefix::v4([10, i as u8, 0, 0].into(), 16).expect("valid"),
                    i,
                )
            })
            .collect();
        let (mut flat, mut model) = both(&entries);
        assert!(!flat.v4_table.is_empty());
        // Short prefix insert patches a wide slot range.
        flat.insert(p("10.0.0.0/8"), 800);
        model.insert(p("10.0.0.0/8"), 800);
        // Long prefix insert patches a single slot.
        flat.insert(p("10.3.7.0/24"), 2437);
        model.insert(p("10.3.7.0/24"), 2437);
        // Removal under the table, including a pruning one.
        flat.remove(p("10.5.0.0/16"));
        model.remove(&p("10.5.0.0/16"));
        let mut queries: Vec<Prefix> = (0..40u8)
            .flat_map(|i| [[10, i, 0, 1], [10, i, 255, 255]])
            .map(|host| Prefix::v4(host.into(), 32).expect("valid"))
            .collect();
        queries.push(p("10.5.1.2/32"));
        assert_agrees(&flat, &model, &queries);
    }
}

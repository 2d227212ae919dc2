//! Stride-8 multibit prefix trie: the one prefix → value map of the
//! workspace.
//!
//! [`FlatTrie`] consumes addresses eight bits per level. A node at depth
//! `d` holds the stored prefixes of lengths `d+1 ..= d+8` that share its
//! first `d` bits, each at the heap position `(1 << k) | bits` of its
//! `k` bits below `d` (a family root also holds `/0`, at position 1).
//! For every position a node keeps a presence bit and a best-value
//! index: the value of the longest of the node's *own* prefixes that
//! covers the position, pushed down from each prefix to the positions
//! below it. Child links live in 256-slot blocks, allocated only for
//! nodes that have children, and values in a slab indexed from the
//! nodes.
//!
//! [`FlatTrie::longest_match`] reads one best entry per level and
//! carries the best match so far down to the next: at most 16 levels
//! for IPv6, and for IPv4 maps large enough to carry it a /16 direct
//! table answers the first two levels in one slot, so a /17–/24 query
//! is that slot plus one node entry. Best entries are kept per prefix
//! length, not per address, so a query never matches a stored prefix
//! longer than itself.
//!
//! [`FlatTrie::insert`] and [`FlatTrie::remove`] patch in place: a
//! prefix `k` bits into its node rewrites at most `2^(9-k) - 1` best
//! entries of that node, an IPv4 prefix of length `len` re-derives the
//! `2^(16-len)` table slots it covers (one when `len >= 16`), and nodes
//! are added or pruned only along the prefix's own path. Onboarding or
//! offboarding a prefix therefore costs O(one stride), which is what
//! lets the ARTEMIS detector keep a single epoch-stamped routing
//! structure across configuration churn.
//!
//! Every query is property-checked in `tests/flat_properties.rs`
//! against a linear model (a `BTreeMap<Prefix, T>` scanned with
//! [`Prefix::contains`]), after every single mutation and on both sides
//! of the table threshold.

use crate::prefix::{Afi, Prefix};

/// Sentinel for "no node" / "no block" / "no value" links.
const NONE: u32 = u32::MAX;
/// Index of the IPv4 root node in the node pool.
const V4_ROOT: u32 = 0;
/// Index of the IPv6 root node in the node pool.
const V6_ROOT: u32 = 1;
/// Address bits consumed per level.
const STRIDE: u8 = 8;
/// Heap position of the first level-8 entry. Level-8 positions map one
/// to one onto the child slots (`pos - LEAF_BASE`).
const LEAF_BASE: usize = 1 << STRIDE;
/// Levels of an IPv6 walk, and so the longest root-to-node path.
const LEVELS: usize = 128 / STRIDE as usize;
/// Number of leading IPv4 bits resolved by the direct table.
const TABLE_BITS: u8 = 16;
/// Minimum number of IPv4 entries before the 65536-slot direct table
/// (512 KiB) is materialized. Below this a map walks its few,
/// cache-resident nodes from the root: the monitor index (tens of live
/// targets) and a ROA table never pay for the table, while the
/// detector's fleet-sized map always has it. Of 32, 256, 1024 and 4096,
/// 256 gave the lowest monitor-routing time per event on the
/// benchmark's `incident_storm`. Once built the table is kept (and
/// patched) even if the count later drops.
const TABLE_MIN_V4: usize = 256;

/// One multibit node: the stored prefixes of one 8-bit stride, by heap
/// position (position 0 is never used, position 1 only by the roots).
#[derive(Debug, Clone)]
struct Node {
    /// Which heap positions hold a stored prefix.
    present: [u64; 2 * LEAF_BASE / 64],
    /// Which child slots hold a link.
    kids: [u64; LEAF_BASE / 64],
    /// Per heap position, the value index of the longest of this node's
    /// own prefixes covering it ([`NONE`] when none does). At a present
    /// position that is the position's own value.
    best: [u32; 2 * LEAF_BASE],
    /// This node's block in `FlatTrie::blocks`, or [`NONE`] while it has
    /// no children.
    block: u32,
}

impl Node {
    const EMPTY: Node = Node {
        present: [0; 2 * LEAF_BASE / 64],
        kids: [0; LEAF_BASE / 64],
        best: [NONE; 2 * LEAF_BASE],
        block: NONE,
    };

    fn is_present(&self, pos: usize) -> bool {
        self.present[pos / 64] & (1 << (pos % 64)) != 0
    }

    fn is_empty(&self) -> bool {
        self.present.iter().chain(&self.kids).all(|w| *w == 0)
    }

    /// True when the heap subtree at `pos` holds a stored prefix or,
    /// below its level-8 positions, a child: one aligned range of the
    /// presence bits per level, then one of the child bits.
    fn holds(&self, pos: usize) -> bool {
        let (mut lo, mut hi) = (pos, pos + 1);
        loop {
            if any_bit(&self.present, lo, hi) {
                return true;
            }
            if lo >= LEAF_BASE {
                return any_bit(&self.kids, lo - LEAF_BASE, hi - LEAF_BASE);
            }
            lo *= 2;
            hi *= 2;
        }
    }

    /// Store value index `vidx` at `pos`.
    fn store(&mut self, pos: usize, vidx: u32) {
        self.present[pos / 64] |= 1 << (pos % 64);
        self.best[pos] = vidx;
        self.push_down(pos);
    }

    /// Clear `pos` and return its value index; the positions below fall
    /// back to the next covering prefix in this node.
    fn clear(&mut self, pos: usize) -> u32 {
        let vidx = self.best[pos];
        self.present[pos / 64] &= !(1 << (pos % 64));
        self.best[pos] = self.best[pos / 2];
        self.push_down(pos);
        vidx
    }

    /// Re-derive the best entries below `pos` from `best[pos]`, level by
    /// level: a position without a prefix of its own inherits its
    /// parent's entry.
    fn push_down(&mut self, pos: usize) {
        let (mut lo, mut hi) = (pos, pos + 1);
        while lo < LEAF_BASE {
            lo *= 2;
            hi *= 2;
            for q in lo..hi {
                if !self.is_present(q) {
                    self.best[q] = self.best[q / 2];
                }
            }
        }
    }
}

/// A stored prefix unpacked beside its value. As a `(Prefix, T)` pair
/// the 16-byte-aligned `Prefix` would pad every slab slot by up to 16
/// bytes.
#[derive(Debug, Clone)]
struct Entry<T> {
    bits: u128,
    len: u8,
    afi: Afi,
    value: T,
}

/// One /16 of the IPv4 direct table: the depth-16 node below it (or
/// [`NONE`]) and the best value index among the stored prefixes of
/// length ≤ 16 covering it.
#[derive(Debug, Clone, Copy)]
struct RootSlot {
    node: u32,
    best: u32,
}

/// A map from [`Prefix`] to `T` with longest-prefix-match, covering and
/// containment queries; IPv4 and IPv6 occupy disjoint sub-tries.
///
/// See the [module docs](self) for the layout. Point operations visit
/// at most 4 (IPv4) or 16 (IPv6) nodes; the visits and the iterator
/// skip empty heap subtrees, so their cost follows their output.
#[derive(Debug, Clone)]
pub struct FlatTrie<T> {
    /// Node pool, one box per node: growing the pool moves pointers, and
    /// its spare capacity costs a pointer per slot, not a 2 KiB node.
    #[allow(clippy::vec_box)]
    nodes: Vec<Box<Node>>,
    /// Recycled node-pool indices available for reuse.
    free_nodes: Vec<u32>,
    /// Child blocks: slot `i` of a node's block links the child for the
    /// next eight bits `i`.
    blocks: Vec<[u32; LEAF_BASE]>,
    /// Recycled block indices available for reuse.
    free_blocks: Vec<u32>,
    /// Value slab; `None` entries are free slots.
    values: Vec<Option<Entry<T>>>,
    /// Recycled value-slab indices available for reuse.
    free_values: Vec<u32>,
    /// IPv4 direct table indexed by the first 16 bits (empty until
    /// [`TABLE_MIN_V4`] IPv4 prefixes have been inserted).
    v4_table: Vec<RootSlot>,
    /// Live IPv4 prefix count (drives table materialization).
    v4_len: usize,
}

impl<T> FlatTrie<T> {
    /// An empty flat trie (no prefixes, lookups all miss).
    pub fn new() -> Self {
        FlatTrie {
            nodes: vec![Box::new(Node::EMPTY), Box::new(Node::EMPTY)],
            free_nodes: Vec::new(),
            blocks: Vec::new(),
            free_blocks: Vec::new(),
            values: Vec::new(),
            free_values: Vec::new(),
            v4_table: Vec::new(),
            v4_len: 0,
        }
    }

    /// Insert `value` for `prefix`, returning the previous value if the
    /// prefix was already present. Patches in place: the nodes on the
    /// path to `prefix`, the best entries below it in its node and (for
    /// IPv4) the table slots it covers.
    pub fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        let home = home_depth(prefix.len());
        let mut node = root_of(prefix.afi());
        let mut depth = 0;
        while depth < home {
            let slot = stride_at(prefix.bits(), depth);
            node = match self.child(node, slot) {
                Some(child) => child,
                None => self.add_child(node, slot),
            };
            depth += STRIDE;
        }
        let pos = position(stride_at(prefix.bits(), home), prefix.len() - home);
        let n = &self.nodes[node as usize];
        if n.is_present(pos) {
            // Replace in place: the value index is unchanged, so every
            // best entry and table slot holding it stays valid.
            let entry = self.values[n.best[pos] as usize]
                .as_mut()
                .expect("occupied value slot");
            return Some(std::mem::replace(&mut entry.value, value));
        }
        let vidx = self.alloc_value(prefix, value);
        self.nodes[node as usize].store(pos, vidx);
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
    /// nodes left with neither prefixes nor children back toward the
    /// root and patches the affected IPv4 table slots in place. The walk
    /// keeps its path in a fixed array; the only allocation is a free
    /// list growing, so a warm trie removes without allocating.
    pub fn remove(&mut self, prefix: Prefix) -> Option<T> {
        let home = home_depth(prefix.len());
        // `(parent, slot)` of every step below the root.
        let mut path = [(NONE, 0); LEVELS];
        let mut steps = 0;
        let mut node = root_of(prefix.afi());
        let mut depth = 0;
        while depth < home {
            let slot = stride_at(prefix.bits(), depth);
            let child = self.child(node, slot)?;
            path[steps] = (node, slot);
            steps += 1;
            node = child;
            depth += STRIDE;
        }
        let pos = position(stride_at(prefix.bits(), home), prefix.len() - home);
        if !self.nodes[node as usize].is_present(pos) {
            return None;
        }
        let vidx = self.nodes[node as usize].clear(pos);
        let entry = self.values[vidx as usize]
            .take()
            .expect("occupied value slot");
        self.free_values.push(vidx);
        while steps > 0 && self.nodes[node as usize].is_empty() {
            steps -= 1;
            let (parent, slot) = path[steps];
            self.remove_child(parent, slot);
            node = parent;
        }
        if prefix.afi() == Afi::Ipv4 {
            self.v4_len -= 1;
            self.patch_v4_table(prefix);
        }
        Some(entry.value)
    }

    /// Mutable access to the value stored for exactly `prefix`.
    pub fn get_mut(&mut self, prefix: Prefix) -> Option<&mut T> {
        let vidx = self.exact(prefix)?;
        self.values[vidx as usize].as_mut().map(|e| &mut e.value)
    }

    /// Value index stored for exactly `prefix`, if any.
    fn exact(&self, prefix: Prefix) -> Option<u32> {
        let home = home_depth(prefix.len());
        let mut node = root_of(prefix.afi());
        let mut depth = 0;
        while depth < home {
            node = self.child(node, stride_at(prefix.bits(), depth))?;
            depth += STRIDE;
        }
        let n = &self.nodes[node as usize];
        let pos = position(stride_at(prefix.bits(), home), prefix.len() - home);
        n.is_present(pos).then(|| n.best[pos])
    }

    fn child(&self, node: u32, slot: usize) -> Option<u32> {
        let block = self.nodes[node as usize].block;
        if block == NONE {
            return None;
        }
        let child = self.blocks[block as usize][slot];
        (child != NONE).then_some(child)
    }

    /// Link a fresh empty node under `parent` at `slot`, giving the
    /// parent a block first if it has none.
    fn add_child(&mut self, parent: u32, slot: usize) -> u32 {
        let child = match self.free_nodes.pop() {
            Some(idx) => idx,
            None => {
                let idx = u32::try_from(self.nodes.len()).expect("node pool fits in u32");
                self.nodes.push(Box::new(Node::EMPTY));
                idx
            }
        };
        let mut block = self.nodes[parent as usize].block;
        if block == NONE {
            block = match self.free_blocks.pop() {
                Some(idx) => idx,
                None => {
                    let idx = u32::try_from(self.blocks.len()).expect("block pool fits in u32");
                    self.blocks.push([NONE; LEAF_BASE]);
                    idx
                }
            };
            self.nodes[parent as usize].block = block;
        }
        self.blocks[block as usize][slot] = child;
        self.nodes[parent as usize].kids[slot / 64] |= 1 << (slot % 64);
        child
    }

    /// Unlink the (empty) child of `parent` at `slot` and recycle it,
    /// and the parent's block with it when that was its last child.
    /// Both are left as they were allocated: an empty node's best
    /// entries are all [`NONE`], as are an unused block's slots.
    fn remove_child(&mut self, parent: u32, slot: usize) {
        let p = &mut self.nodes[parent as usize];
        let block = p.block;
        p.kids[slot / 64] &= !(1 << (slot % 64));
        if p.kids.iter().all(|w| *w == 0) {
            p.block = NONE;
            self.free_blocks.push(block);
        }
        let child = std::mem::replace(&mut self.blocks[block as usize][slot], NONE);
        self.free_nodes.push(child);
    }

    fn alloc_value(&mut self, prefix: Prefix, value: T) -> u32 {
        let entry = Some(Entry {
            bits: prefix.bits(),
            len: prefix.len(),
            afi: prefix.afi(),
            value,
        });
        if let Some(idx) = self.free_values.pop() {
            self.values[idx as usize] = entry;
            idx
        } else {
            let idx = u32::try_from(self.values.len()).expect("value slab fits in u32");
            self.values.push(entry);
            idx
        }
    }

    /// Re-derive the table slots whose 16-bit head is covered by
    /// `prefix` (all of them when `len < 16`, exactly one otherwise).
    /// No other slot can observe the change: the best entries it
    /// rewrote and the nodes it added or pruned all lie under `prefix`.
    fn patch_v4_table(&mut self, prefix: Prefix) {
        if self.v4_table.is_empty() {
            return;
        }
        let head = table_head(prefix.bits());
        let span = 1usize << TABLE_BITS.saturating_sub(prefix.len());
        for h in head..head + span {
            self.v4_table[h] = self.root_slot(h);
        }
    }

    /// The table slot for 16-bit head `head`, read off the root's and
    /// the depth-8 node's level-8 best entries.
    fn root_slot(&self, head: usize) -> RootSlot {
        let (hi, lo) = (head >> STRIDE, head % LEAF_BASE);
        let above = self.nodes[V4_ROOT as usize].best[LEAF_BASE | hi];
        let Some(mid) = self.child(V4_ROOT, hi) else {
            return RootSlot {
                node: NONE,
                best: above,
            };
        };
        let best = self.nodes[mid as usize].best[LEAF_BASE | lo];
        RootSlot {
            node: self.child(mid, lo).unwrap_or(NONE),
            best: if best == NONE { above } else { best },
        }
    }

    fn build_v4_table(&mut self) {
        let table = (0..1usize << TABLE_BITS)
            .map(|head| self.root_slot(head))
            .collect();
        self.v4_table = table;
    }

    /// Longest stored prefix covering `prefix` (possibly `prefix`
    /// itself), with its value.
    pub fn longest_match(&self, prefix: Prefix) -> Option<(Prefix, &T)> {
        let (len, bits) = (prefix.len(), prefix.bits());
        let (mut node, mut depth, mut best) = match prefix.afi() {
            Afi::Ipv4 if len >= TABLE_BITS && !self.v4_table.is_empty() => {
                let slot = self.v4_table[table_head(bits)];
                if slot.node == NONE {
                    return self.value_at(slot.best);
                }
                (slot.node, TABLE_BITS, slot.best)
            }
            afi => (root_of(afi), 0, NONE),
        };
        loop {
            let stride = stride_at(bits, depth);
            let rest = len - depth;
            let found = self.nodes[node as usize].best[position(stride, rest.min(STRIDE))];
            if found != NONE {
                best = found;
            }
            if rest <= STRIDE {
                break;
            }
            match self.child(node, stride) {
                Some(child) => {
                    node = child;
                    depth += STRIDE;
                }
                None => break,
            }
        }
        self.value_at(best)
    }

    /// Value stored for exactly `prefix`, if any.
    pub fn get(&self, prefix: Prefix) -> Option<&T> {
        self.value_at(self.exact(prefix)?).map(|(_, v)| v)
    }

    /// Show `f` every stored strict less-specific of `prefix`,
    /// shortest first, and return the node and heap position of
    /// `prefix` itself (`None` when the path ends before its node).
    /// Walks from the family root: the table records only the best
    /// match per slot, not every match on the way down.
    fn visit_above<'a, F>(&'a self, prefix: Prefix, f: &mut F) -> Option<(u32, usize)>
    where
        F: FnMut(Prefix, &'a T),
    {
        let mut node = root_of(prefix.afi());
        let mut depth = 0;
        loop {
            let stride = stride_at(prefix.bits(), depth);
            let rest = prefix.len() - depth;
            let n = &self.nodes[node as usize];
            // Levels `0..above` of this node lie above `prefix`: all of
            // them unless `prefix` ends in this node.
            let above = if rest <= STRIDE { rest } else { STRIDE + 1 };
            // When none holds a prefix, the deepest one's best entry is
            // empty.
            if above > 0 && n.best[position(stride, above - 1)] != NONE {
                for k in 0..above {
                    if let Some((p, v)) = self.stored(n, position(stride, k)) {
                        f(p, v);
                    }
                }
            }
            if rest <= STRIDE {
                return Some((node, position(stride, rest)));
            }
            node = self.child(node, stride)?;
            depth += STRIDE;
        }
    }

    /// Visit every stored prefix that covers `prefix` — its
    /// less-specifics and `prefix` itself when stored — shortest
    /// first, without allocating.
    pub fn visit_covering<'a, F>(&'a self, prefix: Prefix, mut f: F)
    where
        F: FnMut(Prefix, &'a T),
    {
        if let Some((node, pos)) = self.visit_above(prefix, &mut f) {
            if let Some((p, v)) = self.stored(&self.nodes[node as usize], pos) {
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
        if let Some((node, pos)) = self.visit_above(prefix, &mut f) {
            self.visit_subtree(node, pos, &mut f);
        }
    }

    /// Pre-order walk of the subtree at heap position `pos` of `node`:
    /// a level-8 position continues into the child for its slot.
    fn visit_subtree<'a, F>(&'a self, node: u32, pos: usize, f: &mut F)
    where
        F: FnMut(Prefix, &'a T),
    {
        let n = &self.nodes[node as usize];
        if !n.holds(pos) {
            return;
        }
        if let Some((p, v)) = self.stored(n, pos) {
            f(p, v);
        }
        if pos < LEAF_BASE {
            self.visit_subtree(node, 2 * pos, f);
            self.visit_subtree(node, 2 * pos + 1, f);
        } else if let Some(child) = self.child(node, pos - LEAF_BASE) {
            self.visit_subtree(child, 1, f);
        }
    }

    /// The prefix stored at `pos` of `node`, if any, with its value.
    fn stored<'a>(&'a self, node: &Node, pos: usize) -> Option<(Prefix, &'a T)> {
        if node.is_present(pos) {
            self.value_at(node.best[pos])
        } else {
            None
        }
    }

    fn value_at(&self, idx: u32) -> Option<(Prefix, &T)> {
        if idx == NONE {
            None
        } else {
            let e = self.values[idx as usize]
                .as_ref()
                .expect("live value index");
            let prefix = Prefix::from_bits(e.afi, e.bits, e.len).expect("stored prefix is valid");
            Some((prefix, &e.value))
        }
    }

    /// All `(prefix, value)` pairs, IPv4 before IPv6 and in pre-order
    /// address order within each family — the order of `Prefix: Ord`.
    pub fn iter(&self) -> FlatIter<'_, T> {
        FlatIter {
            trie: self,
            stack: vec![(V6_ROOT, 1), (V4_ROOT, 1)],
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

    /// Number of live multibit nodes (including the two roots).
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free_nodes.len()
    }

    /// Approximate heap footprint in bytes: nodes, child blocks, value
    /// slab, free lists and the IPv4 table. Per-value payload is counted
    /// by `size_of::<T>()`; heap owned by `T` itself is not followed.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.nodes.capacity() * size_of::<Box<Node>>()
            + self.nodes.len() * size_of::<Node>()
            + self.blocks.capacity() * size_of::<[u32; LEAF_BASE]>()
            + self.values.capacity() * size_of::<Option<Entry<T>>>()
            + self.v4_table.capacity() * size_of::<RootSlot>()
            + (self.free_nodes.capacity()
                + self.free_blocks.capacity()
                + self.free_values.capacity())
                * size_of::<u32>()
    }
}

fn root_of(afi: Afi) -> u32 {
    match afi {
        Afi::Ipv4 => V4_ROOT,
        Afi::Ipv6 => V6_ROOT,
    }
}

/// Depth of the node that stores prefixes of length `len`.
fn home_depth(len: u8) -> u8 {
    len.saturating_sub(1) / STRIDE * STRIDE
}

/// The eight bits of left-aligned `bits` that follow the first `depth`.
fn stride_at(bits: u128, depth: u8) -> usize {
    ((bits << depth) >> (128 - u32::from(STRIDE))) as usize
}

/// Heap position of the first `k` (≤ 8) bits of `stride`.
fn position(stride: usize, k: u8) -> usize {
    (1 << k) | (stride >> (STRIDE - k))
}

/// Direct-table index of left-aligned IPv4 `bits`.
fn table_head(bits: u128) -> usize {
    (bits >> (128 - u32::from(TABLE_BITS))) as usize
}

/// True when any of bits `lo..hi` is set; the range is aligned to its
/// power-of-two width, so a narrow one lies inside one word.
fn any_bit(words: &[u64], lo: usize, hi: usize) -> bool {
    if hi - lo >= 64 {
        words[lo / 64..hi / 64].iter().any(|w| *w != 0)
    } else {
        words[lo / 64] >> (lo % 64) & ((1 << (hi - lo)) - 1) != 0
    }
}

/// Lazy pre-order iterator over a [`FlatTrie`] (see
/// [`FlatTrie::iter`]).
#[derive(Debug)]
pub struct FlatIter<'a, T> {
    trie: &'a FlatTrie<T>,
    /// Pending `(node, heap position)` subtrees, next on top.
    stack: Vec<(u32, usize)>,
}

impl<'a, T> Iterator for FlatIter<'a, T> {
    type Item = (Prefix, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some((node, pos)) = self.stack.pop() {
            let n = &self.trie.nodes[node as usize];
            if pos < LEAF_BASE {
                for q in [2 * pos + 1, 2 * pos] {
                    if n.holds(q) {
                        self.stack.push((node, q));
                    }
                }
            } else if let Some(child) = self.trie.child(node, pos - LEAF_BASE) {
                self.stack.push((child, 1));
            }
            let found = self.trie.stored(n, pos);
            if found.is_some() {
                return found;
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

    /// `n` distinct IPv4 /24s under 10.0.0.0/8, in address order.
    fn slash24s(n: usize) -> Vec<Prefix> {
        (0..n as u32)
            .map(|i| Prefix::v4([10, (i >> 8) as u8, i as u8, 0].into(), 24).expect("valid"))
            .collect()
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
        assert_eq!(t.nodes[V4_ROOT as usize].block, NONE);
        assert_eq!(t.node_count(), 2);
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
        let mut entries: Vec<(Prefix, u32)> =
            slash24s(TABLE_MIN_V4 + 32).into_iter().zip(0..).collect();
        entries.push((p("10.0.0.0/12"), 9000));
        let (flat, model) = both(&entries);
        assert!(!flat.v4_table.is_empty(), "table built above threshold");
        let mut queries: Vec<Prefix> = (0..2 * TABLE_MIN_V4 as u32)
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
        // The v4 root, the depth-8 node for 192 and the depth-16 node
        // for 192.0 holding the /24 at one of its level-8 positions.
        assert_eq!(flat.node_count(), 2 + 2);
        assert!(flat.approx_bytes() >= flat.node_count() * std::mem::size_of::<Node>());
        // A slab slot for a `usize` value is half a cache line, where a
        // `(Prefix, usize)` pair would take 48 bytes.
        assert_eq!(std::mem::size_of::<Option<Entry<usize>>>(), 32);
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
        assert_eq!(flat.node_count(), 2 + 2);
        assert_eq!(flat.remove(p("192.0.2.0/24")), Some(1));
        assert_eq!(flat.node_count(), 2, "chain pruned back to the root");
        assert!(flat.is_empty());
        // Reinsertion reuses the freed pool slots and blocks.
        flat.insert(p("198.51.100.0/24"), 2);
        assert_eq!(flat.node_count(), 2 + 2);
        assert_eq!(flat.nodes.len(), 2 + 2, "no pool growth on reuse");
        assert_eq!(flat.blocks.len(), 2, "no block growth on reuse");
    }

    #[test]
    fn stride_table_stays_patched_under_churn() {
        let entries: Vec<(Prefix, u32)> = (0..TABLE_MIN_V4 as u32 + 8)
            .map(|i| {
                let octets = [10 + (i >> 8) as u8, i as u8, 0, 0];
                (Prefix::v4(octets.into(), 16).expect("valid"), i)
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
        flat.remove(p("10.3.7.0/24"));
        model.remove(&p("10.3.7.0/24"));
        let mut queries: Vec<Prefix> = (0..40u8)
            .flat_map(|i| [[10, i, 0, 1], [10, i, 255, 255]])
            .map(|host| Prefix::v4(host.into(), 32).expect("valid"))
            .collect();
        queries.extend([p("10.5.1.2/32"), p("10.3.7.9/32"), p("10.3.7.0/24")]);
        assert_agrees(&flat, &model, &queries);
    }

    #[test]
    fn queries_shorter_than_stored_more_specifics_in_their_stride() {
        // /20../24 all live in the depth-16 node for 10.1: a /22 query
        // reads the level-6 entry, which must not see the /23s and /24s
        // below it.
        let (flat, model) = both(&[
            (p("10.1.0.0/20"), 20),
            (p("10.1.4.0/23"), 23),
            (p("10.1.4.0/24"), 24),
            (p("10.1.6.0/24"), 246),
        ]);
        let queries = [
            "10.1.4.0/22",
            "10.1.0.0/21",
            "10.1.6.0/23",
            "10.1.4.0/23",
            "10.1.5.0/24",
            "10.1.6.128/25",
            "10.1.0.0/19",
            "10.1.0.0/16",
        ]
        .map(p);
        assert_agrees(&flat, &model, &queries);
        assert_eq!(
            flat.longest_match(p("10.1.4.0/22")).map(|(q, _)| q),
            Some(p("10.1.0.0/20"))
        );
    }
}

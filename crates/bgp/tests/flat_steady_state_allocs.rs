//! Once warm, `FlatTrie` patches itself without touching the allocator:
//! `remove` walks a fixed-size path array and recycles the value slot,
//! any pruned node and any emptied child block through free lists, and
//! re-inserting a prefix the trie held before takes them back from
//! those lists.
//!
//! This binary installs a counting global allocator that counts only
//! the thread that armed it, so the test harness's own threads cannot
//! disturb the count.

use artemis_bgp::{FlatTrie, Prefix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::{Ipv4Addr, Ipv6Addr};

thread_local! {
    // `const` initialisers and `Cell`s need neither lazy initialisation
    // nor a destructor, so touching them inside the allocator cannot
    // itself allocate.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count() {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone; those are not counted.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's layout
// and pointer unchanged; the counting touches only thread-local cells
// and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator with `layout`, which
        // means it came from `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the calling thread makes while running `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.with(Cell::get) - before
}

/// 10 000 prefixes: a fleet of /20–/24s packed upward from 10.0.0.0
/// (several per depth-16 node, past the IPv4 direct-table threshold),
/// IPv4 /24s alone in a /16 and IPv6 /48s and /128s alone in their
/// subtree, whose removal prunes nodes and child blocks.
fn prefixes() -> Vec<Prefix> {
    let mut out = Vec::new();
    let mut cursor = 0x0A00_0000u32;
    for i in 0..9_000u32 {
        let len = [24, 23, 24, 22, 21, 24, 20, 23][i as usize % 8];
        let size = 1u32 << (32 - len);
        cursor = cursor.next_multiple_of(size);
        out.push(Prefix::v4(Ipv4Addr::from(cursor), len).expect("aligned"));
        cursor += size;
    }
    for i in 0..500u32 {
        let addr = Ipv4Addr::from(0xC000_0000 | (i << 16));
        out.push(Prefix::v4(addr, 24).expect("/24"));
    }
    for i in 0..500u128 {
        let addr = Ipv6Addr::from((0x2001_0db8u128 << 96) | (i << 80) | i);
        let len = if i % 2 == 0 { 48 } else { 128 };
        out.push(Prefix::v6(addr, len).expect("v6"));
    }
    out
}

#[test]
fn warm_remove_and_reinsert_allocate_nothing() {
    let all = prefixes();
    let mut trie: FlatTrie<usize> = FlatTrie::new();
    for (i, p) in all.iter().enumerate() {
        assert_eq!(trie.insert(*p, i), None, "{p} is distinct");
    }
    assert_eq!(trie.len(), 10_000);
    let victims: Vec<(Prefix, usize)> = all.iter().copied().zip(0..).step_by(3).collect();
    let nodes = trie.node_count();
    let cycle = |trie: &mut FlatTrie<usize>| {
        let removed = allocs_during(|| {
            for (p, i) in &victims {
                assert_eq!(trie.remove(*p), Some(*i));
            }
        });
        let reinserted = allocs_during(|| {
            for (p, i) in &victims {
                assert_eq!(trie.insert(*p, *i), None);
            }
        });
        (removed, reinserted)
    };

    // Warm-up: the free lists grow once to hold every victim's value
    // slot, pruned nodes and emptied blocks.
    cycle(&mut trie);
    for round in 0..4 {
        assert_eq!(
            cycle(&mut trie),
            (0, 0),
            "round {round}: (remove, re-insert) allocations"
        );
    }
    assert_eq!(trie.len(), 10_000);
    assert_eq!(trie.node_count(), nodes, "pruned nodes came back");
    for (p, i) in &victims {
        assert_eq!(trie.get(*p), Some(i));
        assert_eq!(trie.longest_match(*p).map(|(q, v)| (q, *v)), Some((*p, *i)));
    }
}

//! Building a `Detector` allocates per routing-trie node and per table,
//! never per owned prefix: a configured prefix's shard holds no
//! expectation set of its own, and its routing entry lives in the
//! trie's pooled value slots.
//!
//! This binary installs a counting global allocator that counts only
//! the thread that armed it, so the test harness's own threads cannot
//! disturb the count.

use artemis_bgp::{Asn, Prefix};
use artemis_core::{ArtemisConfig, Detector, OwnedPrefix};
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
fn allocs_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, ALLOCS.with(Cell::get) - before)
}

/// 10 000 single-origin owned prefixes: IPv4 /20–/24s packed upward
/// from 10.0.0.0 and IPv6 /48s, each its own shard.
fn fleet() -> Vec<OwnedPrefix> {
    let mut out = Vec::new();
    let mut cursor = 0x0A00_0000u32;
    for i in 0..9_000u32 {
        let len = [24, 23, 24, 22, 21, 24, 20, 23][i as usize % 8];
        let size = 1u32 << (32 - len);
        cursor = cursor.next_multiple_of(size);
        out.push(Prefix::v4(Ipv4Addr::from(cursor), len).expect("aligned"));
        cursor += size;
    }
    for i in 0..1_000u128 {
        let addr = Ipv6Addr::from((0x2001_0db8u128 << 96) | (i << 80));
        out.push(Prefix::v6(addr, 48).expect("/48"));
    }
    out.into_iter()
        .map(|p| OwnedPrefix::new(p, Asn(65001)))
        .collect()
}

#[test]
fn setup_allocates_far_less_than_once_per_owned_prefix() {
    let owned = fleet();
    let prefixes = owned.len();
    let config = ArtemisConfig::new(Asn(65001), owned);
    let (detector, allocs) = allocs_during(|| Detector::new(config));
    assert_eq!(detector.shard_count(), prefixes);
    assert!(
        allocs * 20 < prefixes as u64,
        "{allocs} allocations for {prefixes} owned prefixes"
    );
}

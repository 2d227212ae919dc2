//! Once warm, decoding route-monitoring messages into one reused
//! `UpdateMessage` (what the live reader does) allocates only the AS
//! path of each announcement: its ASN `Vec` and the shared segment
//! slice. The prefix lists are the caller's, cleared and refilled, so
//! a pure withdrawal allocates nothing.
//!
//! This binary installs a counting global allocator that counts only
//! the thread that armed it, so the test harness's own threads cannot
//! disturb the count.

use artemis_bgp::{AsPath, Asn, BgpMessage, PathAttributes, Prefix, UpdateMessage};
use artemis_bmp::{BmpMessage, BmpScanner, BmpWriter, PeerHeader};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

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

/// 80 announcing UPDATEs without communities (1–8 NLRI, paths of 2–6
/// ASNs, every fourth one IPv6 through MP_REACH) and 20 pure
/// withdrawals (1–5 prefixes, every other one IPv6 through
/// MP_UNREACH), interleaved.
fn stream() -> Vec<u8> {
    let peer = PeerHeader::global(
        IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10)),
        Asn(174),
        Ipv4Addr::new(10, 0, 0, 1),
        1_000_000,
    );
    let v4 = |i: u32| Prefix::v4(Ipv4Addr::from(0x0A00_0000 + (i << 8)), 24).unwrap();
    let v6 = |i: u32| {
        Prefix::v6(
            Ipv6Addr::from((0x2001_0db8u128 << 96) | ((i as u128) << 80)),
            48,
        )
        .unwrap()
    };
    let mut w = BmpWriter::new();
    for i in 0..100u32 {
        let update = if i % 5 == 4 {
            let n = 1 + i % 5;
            let family = if i % 10 == 4 { v4 } else { v6 };
            UpdateMessage::withdraw((0..n).map(|k| family(i * 8 + k)).collect())
        } else {
            let n = 1 + i % 8;
            let path = AsPath::from_sequence((0..2 + i % 5).map(|k| 64_500 + i + k));
            if i % 4 == 3 {
                let attrs = PathAttributes::with_path(path, "2001:db8::1".parse().unwrap());
                UpdateMessage::announce(attrs, (0..n).map(|k| v6(i * 8 + k)).collect())
            } else {
                let attrs = PathAttributes::with_path(path, "192.0.2.10".parse().unwrap());
                UpdateMessage::announce(attrs, (0..n).map(|k| v4(i * 8 + k)).collect())
            }
        };
        w.write(&BmpMessage::RouteMonitoring {
            peer,
            update: BgpMessage::Update(update),
        })
        .unwrap();
    }
    w.into_bytes()
}

#[test]
fn warm_decode_into_allocates_only_the_announced_path() {
    let bytes = stream();
    let raws: Vec<_> = BmpScanner::new(&bytes).map(Result::unwrap).collect();
    assert_eq!(raws.len(), 100);
    let mut update = UpdateMessage::withdraw(Vec::new());
    // Warm-up: the two prefix lists grow once to the largest UPDATE.
    for raw in &raws {
        raw.decode_route_monitoring_into(&mut update).unwrap();
    }
    let (mut announcing, mut total) = (0u64, 0u64);
    for raw in &raws {
        let allocs = allocs_during(|| {
            raw.decode_route_monitoring_into(&mut update).unwrap();
        });
        let expected = if update.attrs.is_some() { 2 } else { 0 };
        assert_eq!(allocs, expected, "{update:?}");
        announcing += u64::from(update.attrs.is_some());
        total += allocs;
    }
    assert_eq!((announcing, total), (80, 160));

    // The owned decode, for scale: it builds both lists afresh.
    let owned = allocs_during(|| {
        for raw in &raws {
            std::hint::black_box(raw.decode().unwrap());
        }
    });
    assert!(owned > total, "owned decode: {owned} allocations");
}

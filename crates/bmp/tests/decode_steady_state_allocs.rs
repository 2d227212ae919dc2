//! Walking route-monitoring messages in place (what the live reader
//! does) allocates nothing: the per-peer header, the withdrawn and
//! announced prefixes and the announced path's two ends all come
//! straight from the wire bytes, for four-octet and legacy two-octet
//! peers (AS4_PATH reconciled) alike, with or without AS_SETs and
//! communities.
//!
//! This binary installs a counting global allocator that counts only
//! the thread that armed it, so the test harness's own threads cannot
//! disturb the count.

use artemis_bgp::{
    AsPath, Asn, BgpMessage, Community, PathAttributes, Prefix, Segment, UpdateMessage,
};
use artemis_bmp::{BmpMessage, BmpScanner, BmpWriter, PeerHeader, PEER_FLAG_A};
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
fn allocs_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, ALLOCS.with(Cell::get) - before)
}

/// 80 announcing UPDATEs (1–8 NLRI, paths of 2–6 ASNs, every fourth
/// one IPv6 through MP_REACH, every third one with communities, every
/// seventh one ending in an AS_SET) and 20 pure withdrawals (1–5
/// prefixes, every other one IPv6 through MP_UNREACH), interleaved.
/// Every other UPDATE comes from a legacy two-octet peer, whose
/// four-octet origin travels as AS_TRANS plus AS4_PATH.
fn stream() -> Vec<u8> {
    let peer = |legacy: bool| PeerHeader {
        flags: if legacy { PEER_FLAG_A } else { 0 },
        ..PeerHeader::global(
            IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10)),
            Asn(174),
            Ipv4Addr::new(10, 0, 0, 1),
            1_000_000,
        )
    };
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
            let hops = (0..1 + i % 5).map(|k| Asn(64_500 + i + k));
            let mut segments = vec![Segment::Sequence(
                hops.chain([Asn(4_200_000_000 + i)]).collect(),
            )];
            if i % 7 == 0 {
                segments.push(Segment::Set(vec![Asn(65_001), Asn(4_200_000_001)]));
            }
            let path = AsPath::from_segments(segments);
            let mut attrs = if i % 4 == 3 {
                PathAttributes::with_path(path, "2001:db8::1".parse().unwrap())
            } else {
                PathAttributes::with_path(path, "192.0.2.10".parse().unwrap())
            };
            if i % 3 == 0 {
                attrs.communities = vec![Community::from_parts(174, i as u16)];
            }
            let family = if i % 4 == 3 { v6 } else { v4 };
            UpdateMessage::announce(attrs, (0..n).map(|k| family(i * 8 + k)).collect())
        };
        w.write(&BmpMessage::RouteMonitoring {
            peer: peer(i % 2 == 1),
            update: BgpMessage::Update(update),
        })
        .unwrap();
    }
    w.into_bytes()
}

#[test]
fn walking_route_monitoring_messages_allocates_nothing() {
    let bytes = stream();
    let raws: Vec<_> = BmpScanner::new(&bytes).map(Result::unwrap).collect();
    assert_eq!(raws.len(), 100);
    let (mut announcing, mut events) = (0u64, 0usize);
    for raw in &raws {
        let ((announces, n), allocs) = allocs_during(|| {
            let (peer, update) = raw.scan_route_monitoring().unwrap();
            std::hint::black_box((peer, update.path_ends()));
            let n = update
                .withdrawn()
                .chain(update.announced())
                .map(std::hint::black_box)
                .count();
            (update.path_ends().is_some(), n)
        });
        assert_eq!(allocs, 0, "message at {}", raw.offset);
        announcing += u64::from(announces);
        events += n;
    }
    assert_eq!(announcing, 80);
    // Legacy peers' paths reconcile to their four-octet origins.
    let (_, legacy) = raws[1].scan_route_monitoring().unwrap();
    assert_eq!(legacy.path_ends().unwrap().origin, Some(Asn(4_200_000_001)));

    // The owned decode, for scale: it builds the lists, and each
    // announced path's ASN list and shared segment slice.
    let ((), owned) = allocs_during(|| {
        for raw in &raws {
            std::hint::black_box(raw.decode().unwrap());
        }
    });
    assert!(owned > 2 * announcing, "owned decode: {owned} allocations");
    assert!(events > raws.len());
}

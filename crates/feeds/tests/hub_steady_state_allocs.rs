//! Once its buffers are warm, a one-feed `FeedHub` moves events from a
//! pull feed to the caller's batch without touching the allocator:
//! `poll_and_queue` polls into the hub's reused scratch buffer
//! (`FeedSource::poll_into`), the lane takes that buffer by swap, and
//! `drain_batch` hands the lane's buffer to the caller by swap.
//!
//! This binary installs a counting global allocator that counts only
//! the thread that armed it, so the test harness's own threads cannot
//! disturb the count.

use artemis_bgp::{AsPath, Asn, Prefix};
use artemis_feeds::{EmptyRibView, FeedEvent, FeedHub, FeedKind, FeedSource, RibView};
use artemis_simnet::{SimRng, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;
use std::sync::Arc;

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

/// A pull feed that, like a live wire feed, is due whenever asked and
/// appends one fixed burst straight into the caller's buffer, stamped
/// with the poll instant. Its events share one collector name and one
/// path, so cloning one allocates nothing.
struct BurstFeed {
    burst: Vec<FeedEvent>,
}

impl FeedSource for BurstFeed {
    fn kind(&self) -> FeedKind {
        FeedKind::BmpLive
    }
    fn name(&self) -> &str {
        "burst"
    }
    fn on_route_change_into(
        &mut self,
        _: &artemis_bgpsim::RouteChange,
        _: &mut SimRng,
        _: &mut Vec<FeedEvent>,
    ) {
    }
    fn next_poll(&self, now: SimTime) -> Option<SimTime> {
        Some(now)
    }
    fn poll(&mut self, at: SimTime, view: &dyn RibView, rng: &mut SimRng) -> Vec<FeedEvent> {
        let mut out = Vec::new();
        self.poll_into(at, view, rng, &mut out);
        out
    }
    fn poll_into(
        &mut self,
        at: SimTime,
        _: &dyn RibView,
        _: &mut SimRng,
        out: &mut Vec<FeedEvent>,
    ) {
        out.extend(self.burst.iter().map(|ev| FeedEvent {
            emitted_at: at,
            ..ev.clone()
        }));
    }
    fn events_emitted(&self) -> u64 {
        0
    }
}

#[test]
fn steady_state_poll_and_drain_through_one_feed_allocates_nothing() {
    const BURST: usize = 512;
    let collector: Arc<str> = "bmp0".into();
    let path = AsPath::from_sequence([174u32, 3356, 65001]);
    let burst = (0..BURST)
        .map(|i| FeedEvent {
            emitted_at: SimTime::ZERO,
            observed_at: SimTime::from_micros(i as u64),
            source: FeedKind::BmpLive,
            collector: Arc::clone(&collector),
            vantage: Asn(174),
            prefix: Prefix::v4(Ipv4Addr::new(10, (i >> 8) as u8, i as u8, 0), 24).unwrap(),
            as_path: Some(path.clone()),
            origin_as: Some(Asn(65001)),
            raw: None,
        })
        .collect();
    let mut hub = FeedHub::new(SimRng::new(1));
    hub.add(Box::new(BurstFeed { burst }));
    let mut batch: Vec<FeedEvent> = Vec::new();
    let mut cycle = |t: u64, batch: &mut Vec<FeedEvent>| {
        let at = SimTime::from_micros(t);
        hub.poll_and_queue(at, &EmptyRibView);
        hub.drain_batch(at, batch)
    };

    // Warm-up: the scratch, lane and batch buffers rotate through the
    // swaps and each grows to one burst once.
    for t in 0..8 {
        assert_eq!(cycle(t, &mut batch), BURST);
    }
    let mut delivered = 0;
    let allocs = allocs_during(|| {
        for t in 8..264 {
            delivered += cycle(t, &mut batch);
        }
    });
    assert_eq!(delivered, 256 * BURST);
    assert_eq!(
        batch.last().map(|e| e.emitted_at),
        Some(SimTime::from_micros(263))
    );
    assert_eq!(
        allocs, 0,
        "steady-state poll → queue → drain must not allocate"
    );
}

//! Once its buffers are warm, a one-feed `FeedHub` moves events from a
//! pull feed to the caller's batch without touching the allocator:
//! `poll_and_queue` polls into the hub's reused scratch buffer
//! (`FeedSource::poll_into`), the lane takes that buffer by swap, and
//! `drain_batch` hands the lane's buffer to the caller by swap.
//! Dropping the drained events (the next `drain_batch` clears the
//! batch) frees nothing either: an event owns no heap. Behind a live
//! BMP feed, the whole consuming side — draining the ring, queueing,
//! merging and dropping — neither allocates nor frees, and neither
//! does the producing side: the feed's reader thread walks each UPDATE
//! in place and parks its entries in a warm ring.
//!
//! This binary installs a counting global allocator that counts only
//! the thread that armed it, so the test harness's own threads cannot
//! disturb the count, plus, while the reader count is armed, any live
//! feed's reader thread (known by its name).

use artemis_bgp::{AsPath, Asn, BgpMessage, PathAttributes, Prefix, UpdateMessage};
use artemis_bmp::{BmpMessage, BmpWriter, PeerHeader};
use artemis_feeds::{
    BmpLiveFeed, EmptyRibView, FeedEvent, FeedHub, FeedKind, FeedSource, LiveFeedConfig, RibView,
};
use artemis_simnet::{SimRng, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::net::{IpAddr, Ipv4Addr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

thread_local! {
    // `const` initialisers and `Cell`s need neither lazy initialisation
    // nor a destructor, so touching them inside the allocator cannot
    // itself allocate.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
    /// Whether this thread is a live feed's reader: unknown until the
    /// first allocation the reader count sees on it.
    static IS_READER: Cell<Option<bool>> = const { Cell::new(None) };
}

/// Allocations and frees of live feeds' reader threads, counted while
/// `READER_ARMED` is set.
static READER_ARMED: AtomicBool = AtomicBool::new(false);
static READER_ALLOCS: AtomicU64 = AtomicU64::new(0);
static READER_FREES: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

/// Whether the calling thread is a live feed's reader. The name is
/// looked up once per thread; the verdict is stored as "no" first, so
/// an allocation made while looking cannot recurse into the lookup.
fn is_reader() -> bool {
    IS_READER
        .try_with(|known| match known.get() {
            Some(verdict) => verdict,
            None => {
                known.set(Some(false));
                let verdict = std::thread::current()
                    .name()
                    .is_some_and(|name| name.starts_with("bmp-live-"));
                known.set(Some(verdict));
                verdict
            }
        })
        .unwrap_or(false)
}

fn count(counter: &'static std::thread::LocalKey<Cell<u64>>, reader: &AtomicU64) {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone; those are not counted.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = counter.try_with(|c| c.set(c.get() + 1));
        }
    });
    if READER_ARMED.load(Ordering::Relaxed) && is_reader() {
        reader.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's layout
// and pointer unchanged; the counting touches only thread-local cells
// and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCS, &READER_ALLOCS);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCS, &READER_ALLOCS);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(&ALLOCS, &READER_ALLOCS);
        // SAFETY: `ptr` came from this allocator with `layout`, which
        // means it came from `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(&FREES, &READER_FREES);
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations and frees the calling thread makes while running `f`.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (allocs, frees) = (ALLOCS.with(Cell::get), FREES.with(Cell::get));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (
        out,
        ALLOCS.with(Cell::get) - allocs,
        FREES.with(Cell::get) - frees,
    )
}

/// A pull feed that, like a live wire feed, is due whenever asked and
/// appends one fixed burst straight into the caller's buffer, stamped
/// with the poll instant. Its events own no heap, so cloning one
/// allocates nothing.
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
    let path = AsPath::from_sequence([174u32, 3356, 65001]);
    let burst = (0..BURST)
        .map(|i| {
            FeedEvent::new(
                SimTime::ZERO,
                SimTime::from_micros(i as u64),
                FeedKind::BmpLive,
                Asn(174),
                Prefix::v4(Ipv4Addr::new(10, (i >> 8) as u8, i as u8, 0), 24).unwrap(),
                Some(&path),
                None,
            )
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
    let ((), allocs, frees) = allocs_during(|| {
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
        (allocs, frees),
        (0, 0),
        "steady-state poll → queue → drain must neither allocate nor free"
    );
}

/// A live feed the hub polls only once the reader has decoded `open_at`
/// events, so every poll drains one whole round of UPDATEs.
struct Gated {
    feed: BmpLiveFeed,
    open_at: Arc<AtomicU64>,
}

impl FeedSource for Gated {
    fn kind(&self) -> FeedKind {
        self.feed.kind()
    }
    fn name(&self) -> &str {
        self.feed.name()
    }
    fn on_route_change_into(
        &mut self,
        _: &artemis_bgpsim::RouteChange,
        _: &mut SimRng,
        _: &mut Vec<FeedEvent>,
    ) {
    }
    fn next_poll(&self, now: SimTime) -> Option<SimTime> {
        let decoded = self.feed.stats().decoded;
        (decoded >= self.open_at.load(Ordering::Relaxed))
            .then(|| self.feed.next_poll(now))
            .flatten()
    }
    fn poll(&mut self, at: SimTime, view: &dyn RibView, rng: &mut SimRng) -> Vec<FeedEvent> {
        self.feed.poll(at, view, rng)
    }
    fn poll_into(
        &mut self,
        at: SimTime,
        view: &dyn RibView,
        rng: &mut SimRng,
        out: &mut Vec<FeedEvent>,
    ) {
        self.feed.poll_into(at, view, rng, out);
    }
    fn events_emitted(&self) -> u64 {
        self.feed.events_emitted()
    }
}

#[test]
fn a_live_feed_drained_through_the_hub_neither_allocates_nor_frees_per_event() {
    // The reader's count is process-wide: this is the one test here
    // with a live feed.
    /// UPDATEs per round; the `i`-th announces `i % 16 + 1` prefixes.
    const UPDATES: usize = 64;
    const EVENTS: u64 = (UPDATES / 16 * (16 * 17 / 2)) as u64;
    const ROUNDS: u64 = 64;
    const WARM: u64 = 8;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (go, rounds) = mpsc::channel::<u64>();
    let writer = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        for round in rounds {
            let mut w = BmpWriter::new();
            for i in 0..UPDATES {
                let peer = PeerHeader::global(
                    IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10)),
                    Asn(174),
                    Ipv4Addr::new(10, 0, 0, 1),
                    round,
                );
                // Every UPDATE decodes a path of its own.
                let path = AsPath::from_sequence([174u32, 3356, 64_512 + i as u32]);
                let nlri = (0..=i % 16)
                    .map(|k| Prefix::v4(Ipv4Addr::new(10, i as u8, k as u8, 0), 24).unwrap())
                    .collect();
                let attrs =
                    PathAttributes::with_path(path, IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10)));
                w.write(&BmpMessage::RouteMonitoring {
                    peer,
                    update: BgpMessage::Update(UpdateMessage::announce(attrs, nlri)),
                })
                .unwrap();
            }
            sock.write_all(w.as_bytes()).unwrap();
        }
    });
    let open_at = Arc::new(AtomicU64::new(u64::MAX));
    let mut hub = FeedHub::new(SimRng::new(1));
    hub.add(Box::new(Gated {
        feed: BmpLiveFeed::connect("bmp0", addr.to_string(), LiveFeedConfig::default()),
        open_at: Arc::clone(&open_at),
    }));
    let mut batch: Vec<FeedEvent> = Vec::new();
    let (mut allocs, mut frees) = (0, 0);
    for round in 0..ROUNDS {
        open_at.store((round + 1) * EVENTS, Ordering::Relaxed);
        // The reader decodes this round only after the send; from the
        // first warm round on, everything it does is counted.
        READER_ARMED.store(round >= WARM, Ordering::Relaxed);
        go.send(round).unwrap();
        let at = SimTime::from_micros(round);
        while hub.next_poll(at).is_none() {
            std::thread::yield_now();
        }
        // Poll the ring into the hub, queue, merge into the batch, and
        // drop the previous round's events as the batch is cleared.
        let (drained, a, f) = allocs_during(|| {
            hub.poll_and_queue(at, &EmptyRibView);
            hub.drain_batch(at, &mut batch)
        });
        assert_eq!(drained as u64, EVENTS, "round {round} drains whole");
        if round >= WARM {
            allocs += a;
            frees += f;
        }
    }
    READER_ARMED.store(false, Ordering::Relaxed);
    drop(go);
    writer.join().unwrap();
    assert!(batch.iter().all(|e| e.origin_as.is_some()));
    assert_eq!(
        (allocs, frees),
        (0, 0),
        "consuming side, {} warm rounds of {EVENTS} events",
        ROUNDS - WARM
    );
    assert_eq!(
        (
            READER_ALLOCS.load(Ordering::Relaxed),
            READER_FREES.load(Ordering::Relaxed)
        ),
        (0, 0),
        "reader thread, {} warm rounds of {EVENTS} events",
        ROUNDS - WARM
    );
}

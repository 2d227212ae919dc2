//! `artemis_feeds`: the live reader (socket → ring, nothing behind it)
//! and the hub (poll, seal, merge).
//!
//! Calls `BmpLiveFeed::{connect, stats}`, `FeedSource::{next_poll,
//! poll}`, `FeedHub::{new, add, poll_and_queue, drain_batch_timed}`.

use super::{ns_per, ProbeInputs, ReplayFeed};
use crate::harness::RING_CAPACITY;
use artemis_feeds::{BmpLiveFeed, EmptyRibView, FeedEvent, FeedHub, FeedSource, LiveFeedConfig};
use artemis_simnet::{SimRng, SimTime};
use std::io::Write;
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// Stream `bytes` through a real `BmpLiveFeed` whose ring is drained by
/// a consumer that does nothing else, so the reader thread sets the
/// pace. Returns the decoded events.
pub fn live_reader(
    bytes: &[u8],
    declared_events: u64,
    out: &mut Vec<(&'static str, f64)>,
) -> Vec<FeedEvent> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let mut events: Vec<FeedEvent> = Vec::with_capacity(declared_events as usize);
    let mut rng = SimRng::new(0);
    let (secs, diagnostics, shed) = std::thread::scope(|scope| {
        let writer = scope.spawn(move || {
            let (mut sock, _) = listener.accept().expect("feed connects");
            sock.write_all(bytes).expect("loopback write");
            sock
        });
        let mut feed = BmpLiveFeed::connect(
            "probe",
            addr,
            LiveFeedConfig {
                ring_capacity: RING_CAPACITY,
                ..LiveFeedConfig::default()
            },
        );
        let mut first: Option<Instant> = None;
        let started = Instant::now();
        while (events.len() as u64) < declared_events {
            let now = SimTime::from_micros(started.elapsed().as_micros() as u64);
            if feed.next_poll(now).is_some() {
                first.get_or_insert_with(Instant::now);
                events.extend(feed.poll(now, &EmptyRibView, &mut rng));
            } else {
                std::thread::yield_now();
            }
            assert!(
                started.elapsed() < Duration::from_secs(30),
                "live reader probe stalled at {} of {declared_events} events",
                events.len()
            );
        }
        let secs = first.expect("events arrived").elapsed().as_secs_f64();
        let stats = feed.stats();
        drop(feed);
        drop(writer.join().expect("writer thread"));
        (secs, stats.diagnostics, stats.shed)
    });
    assert_eq!(
        shed, 0,
        "a draining consumer never lets the probe ring shed"
    );
    out.push(("feeds.live_reader_events_per_s", events.len() as f64 / secs));
    out.push(("feeds.live_diagnostics", diagnostics as f64));
    events
}

/// The hub alone: one replay feed, batches the size the chain sees.
pub fn hub(inputs: &ProbeInputs<'_>, out: &mut Vec<(&'static str, f64)>) {
    let mut hub = FeedHub::new(SimRng::new(0));
    hub.add(Box::new(ReplayFeed::new(inputs.batches())));
    let events = inputs.events.len() as u64;
    let mut drained = Vec::new();
    let (mut poll_ns, mut seal_ns, mut merge_ns, mut seen) = (0u64, 0u64, 0u64, 0u64);
    let mut tick = 0u64;
    while seen < events {
        tick += 1;
        let now = SimTime::from_micros(tick);
        let (ns, ()) = ns_per(1, || hub.poll_and_queue(now, &EmptyRibView));
        poll_ns += ns as u64;
        let (n, split) = hub.drain_batch_timed(now, &mut drained);
        seal_ns += split.seal_nanos;
        merge_ns += split.merge_nanos;
        seen += n as u64;
    }
    out.push((
        "feeds.hub_poll_ns_per_event",
        poll_ns as f64 / events as f64,
    ));
    out.push((
        "feeds.hub_drain_seal_ns_per_event",
        seal_ns as f64 / events as f64,
    ));
    out.push((
        "feeds.hub_drain_merge_ns_per_event",
        merge_ns as f64 / events as f64,
    ));
}

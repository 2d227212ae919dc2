//! The live BMP wire feed: a real TCP session into the pipeline.
//!
//! [`BmpLiveFeed`] owns a reader thread that speaks RFC 7854 framing
//! off a [`std::net::TcpStream`] and turns each `route_monitoring`
//! message into ring entries in one pass: the per-peer header, the
//! UPDATE walked in place
//! ([`artemis_bmp::RawBmpMessage::scan_route_monitoring`], in the
//! AS_PATH format the header's "A" flag names), then one entry per
//! withdrawn or announced prefix, through an optional pre-ring
//! [`FeedFilter`], into a fixed-capacity
//! [`artemis_bmp::BackpressureRing`]. No `UpdateMessage` and no
//! `AsPath` is built: the walk checks the UPDATE whole, as the owned
//! decode does, and reads the path's origin and origin-adjacent hop
//! straight off the AS_PATH (and AS4_PATH) bytes, so a warm reader
//! allocates nothing. A ring entry carries only what differs between
//! events (observation time, vantage, prefix, [`Reach`], origin) and
//! owns nothing. The pump's `poll` builds each [`FeedEvent`] from one
//! entry as it drains, adding the emission instant. What is per feed or
//! per socket read is paid once: the reader publishes its `decoded`
//! count once per read, after that read's events are in the ring.
//!
//! The pipeline side is an ordinary pull-based [`FeedSource`]:
//! `next_poll` reports "now" whenever the ring holds events, and
//! `poll` drains them; a driver that installed a latch with
//! [`FeedSource::set_waker`] is woken when the ring turns non-empty
//! (and on a `peer_down`). When the detector falls behind, the ring
//! sheds oldest-first and counts every shed — memory stays bounded by
//! construction, and the loss is visible in [`crate::FeedLag`] instead
//! of silent.

#![deny(missing_docs)]

use crate::event::{FeedEvent, FeedKind, Reach};
use crate::filter::FeedFilter;
use crate::source::{FeedSource, RibView, WakeLatch};
use artemis_bgp::{Asn, Prefix, RouteChange, UpdateView};
use artemis_bmp::{BackpressureRing, BmpMessage, FrameAssembler, PeerHeader, MSG_ROUTE_MONITORING};
use artemis_simnet::{SimRng, SimTime};
use std::collections::BTreeMap;
use std::io::Read;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Tuning knobs for a [`BmpLiveFeed`].
#[derive(Debug, Clone)]
pub struct LiveFeedConfig {
    /// Backpressure ring capacity in events (clamped to ≥ 1).
    pub ring_capacity: usize,
    /// Pre-ring filter: events failing it are counted and discarded on
    /// the reader thread, before they cost a ring slot.
    pub filter: Option<FeedFilter>,
}

impl Default for LiveFeedConfig {
    fn default() -> Self {
        LiveFeedConfig {
            ring_capacity: 8192,
            filter: None,
        }
    }
}

/// Shared reader-thread counters, readable lock-free from the feed
/// (the two maps behind mutexes are touched only on rare session
/// events — stats reports and peer downs — never per route).
#[derive(Default)]
struct LiveCounters {
    /// Route-monitoring events decoded off the wire. Published once per
    /// socket read (with `Release`), after that read's events were
    /// pushed and its rejections counted in `filtered`.
    decoded: AtomicU64,
    /// Events rejected by the pre-ring filter, published per socket
    /// read just before `decoded`.
    filtered: AtomicU64,
    /// Messages skipped on per-message decode defects, plus one for a
    /// reader thread that failed to start.
    diagnostics: AtomicU64,
    /// Completed re-dials after an established session was lost.
    reconnects: AtomicU64,
    /// Session reached an established TCP connection.
    connected: AtomicBool,
    /// Reader thread has exited (shutdown or fatal framing).
    disconnected: AtomicBool,
    /// Per-peer health accumulated from `stats_report` messages.
    peer_health: Mutex<BTreeMap<Asn, PeerHealth>>,
    /// Peers whose sessions went down since the pipeline last asked.
    peer_downs: Mutex<Vec<Asn>>,
}

/// Lock one of the two session maps, taking the guard back from a
/// `PoisonError`. Every write to them is a single insert, push or
/// field store, so a thread that panicked while holding the lock left
/// the map valid; refusing it afterwards would take `stats`, the
/// health views and `take_peer_downs` — and with them the pump that
/// calls those — down for one dead reader.
fn lock_recovering<T>(map: &Mutex<T>) -> MutexGuard<'_, T> {
    map.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Per-peer session health accumulated from BMP `stats_report` and
/// `peer_down` messages (RFC 7854 §4.8/§4.9). Counter-typed stats
/// (types 0–2) are cumulative on the monitored router, so each report
/// replaces the stored value; the RIB sizes (types 7–8) are gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerHealth {
    /// `stats_report` messages seen for this peer.
    pub reports: u64,
    /// Stat type 0: prefixes rejected by inbound policy.
    pub prefixes_rejected: u64,
    /// Stat type 1: duplicate prefix advertisements.
    pub duplicate_updates: u64,
    /// Stat type 2: duplicate withdraws.
    pub duplicate_withdraws: u64,
    /// Stat type 7: routes in Adj-RIB-In (gauge).
    pub adj_rib_in: u64,
    /// Stat type 8: routes in Loc-RIB (gauge).
    pub loc_rib: u64,
    /// `peer_down` messages seen for this peer.
    pub peer_downs: u64,
}

/// Wire-session health of a live feed: how often the transport had to
/// be re-established, and what the collector's peers report about
/// their own sessions. Returned by [`FeedSource::wire_health`] for
/// wire-backed feeds (`None` for simulated ones).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireHealth {
    /// Completed re-dials after an established session was lost.
    pub reconnects: u64,
    /// Per-peer health, ascending by peer ASN.
    pub peers: Vec<(Asn, PeerHealth)>,
}

/// A point-in-time snapshot of a live feed's wire-side health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveFeedStats {
    /// Route-monitoring events decoded off the wire so far. Published
    /// once per socket read, after that read's events are in the ring:
    /// each one counted here is already pending, polled
    /// ([`FeedSource::events_emitted`]), filtered or shed, so
    /// `decoded == polled + filtered + shed + pending` whenever the
    /// feed is quiescent.
    pub decoded: u64,
    /// Events discarded by the pre-ring filter.
    pub filtered: u64,
    /// Events shed from the full ring (detector fell behind).
    pub shed: u64,
    /// Events currently parked in the ring.
    pub pending: usize,
    /// Messages skipped because their body failed to decode, plus one
    /// for a reader thread that failed to start.
    pub diagnostics: u64,
    /// Completed re-dials after an established session was lost.
    pub reconnects: u64,
    /// Peers with recorded health (see [`BmpLiveFeed::peer_health`]).
    pub peers: usize,
    /// The TCP session was established at some point.
    pub connected: bool,
    /// The reader thread has exited.
    pub disconnected: bool,
}

/// A live RFC 7854 BMP session as a [`FeedSource`]. See the module
/// docs for the architecture.
pub struct BmpLiveFeed {
    /// The collector's name: the feed's, not its events'.
    name: String,
    ring: Arc<BackpressureRing<RingEntry>>,
    counters: Arc<LiveCounters>,
    shutdown: Arc<AtomicBool>,
    reader: Option<std::thread::JoinHandle<()>>,
    /// Events handed to the hub via `poll` / `poll_into`.
    emitted: u64,
    /// Poll invocations that drained at least one event.
    polls: u64,
}

impl BmpLiveFeed {
    /// Connect to `addr` from a background thread, retrying until the
    /// collector accepts or the feed is dropped. Never blocks and
    /// never fails: connection state is observable via
    /// [`BmpLiveFeed::stats`] rather than a constructor error, which
    /// is what lets a serializable [`crate::FeedSpec`] build this feed
    /// infallibly.
    ///
    /// A lost transport re-enters the dial loop with jittered
    /// exponential backoff, so the feed outlives collector restarts;
    /// only dropping the feed or fused framing ends the reader.
    pub fn connect(
        name: impl Into<String>,
        addr: impl Into<String>,
        config: LiveFeedConfig,
    ) -> Self {
        let name: String = name.into();
        let addr = addr.into();
        let ring = Arc::new(BackpressureRing::new(config.ring_capacity));
        let counters = Arc::new(LiveCounters::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let reader = {
            let ring = Arc::clone(&ring);
            let counters = Arc::clone(&counters);
            let shutdown = Arc::clone(&shutdown);
            let collector = name.clone();
            // `spawn` refuses a thread name with an interior NUL; the
            // feed itself keeps the name as given.
            std::thread::Builder::new()
                .name(format!("bmp-live-{name}").replace('\0', ""))
                .spawn(move || reader_main(addr, config, collector, ring, counters, shutdown))
        };
        // A feed whose reader could not start never connects: it counts
        // the failure and reports itself disconnected.
        let reader = reader
            .inspect_err(|_| {
                counters.diagnostics.fetch_add(1, Ordering::Relaxed);
                counters.disconnected.store(true, Ordering::Relaxed);
            })
            .ok();
        BmpLiveFeed {
            name,
            ring,
            counters,
            shutdown,
            reader,
            emitted: 0,
            polls: 0,
        }
    }

    /// Wire-side health counters (see [`LiveFeedStats`]).
    pub fn stats(&self) -> LiveFeedStats {
        LiveFeedStats {
            // Acquire: what the reader did before publishing this count
            // (ring pushes, sheds, filter rejections) is seen below.
            decoded: self.counters.decoded.load(Ordering::Acquire),
            filtered: self.counters.filtered.load(Ordering::Relaxed),
            shed: self.ring.shed_total(),
            pending: self.ring.len(),
            diagnostics: self.counters.diagnostics.load(Ordering::Relaxed),
            reconnects: self.counters.reconnects.load(Ordering::Relaxed),
            peers: lock_recovering(&self.counters.peer_health).len(),
            connected: self.counters.connected.load(Ordering::Relaxed),
            disconnected: self.counters.disconnected.load(Ordering::Relaxed),
        }
    }

    /// Per-peer session health accumulated from `stats_report` and
    /// `peer_down` messages, ascending by peer ASN.
    pub fn peer_health(&self) -> Vec<(Asn, PeerHealth)> {
        lock_recovering(&self.counters.peer_health)
            .iter()
            .map(|(asn, h)| (*asn, *h))
            .collect()
    }
}

impl Drop for BmpLiveFeed {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(handle) = self.reader.take() {
            // The reader polls the flag between (timeout-bounded)
            // reads, so this join is bounded too.
            let _ = handle.join();
        }
    }
}

impl FeedSource for BmpLiveFeed {
    fn kind(&self) -> FeedKind {
        FeedKind::BmpLive
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn on_route_change_into(
        &mut self,
        _change: &RouteChange,
        _rng: &mut SimRng,
        _out: &mut Vec<FeedEvent>,
    ) {
        // A wire feed observes a real socket, not the simulator.
    }

    fn next_poll(&self, now: SimTime) -> Option<SimTime> {
        // Ready exactly when the ring holds events: the driver polls
        // immediately, and an empty ring schedules nothing (the ring
        // wakes the driver when that changes).
        if self.ring.is_empty() {
            None
        } else {
            Some(now)
        }
    }

    fn poll(&mut self, at: SimTime, view: &dyn RibView, rng: &mut SimRng) -> Vec<FeedEvent> {
        let mut out = Vec::new();
        self.poll_into(at, view, rng, &mut out);
        out
    }

    fn poll_into(
        &mut self,
        at: SimTime,
        _view: &dyn RibView,
        _rng: &mut SimRng,
        out: &mut Vec<FeedEvent>,
    ) {
        // The ring drains straight into the caller's buffer, each entry
        // becoming its event in the same pass.
        let n = self.ring.drain_map_into(out, usize::MAX, |e| FeedEvent {
            // Emission is the instant the pipeline could first react;
            // observation keeps the collector's wire timestamp (capped
            // so a fast collector clock cannot place it after
            // emission).
            emitted_at: at,
            observed_at: e.observed_at.min(at),
            source: FeedKind::BmpLive,
            vantage: e.vantage,
            prefix: e.prefix,
            reach: e.reach,
            origin_as: e.origin_as,
            raw: None,
        });
        if n > 0 {
            self.emitted += n as u64;
            self.polls += 1;
        }
    }

    fn events_emitted(&self) -> u64 {
        self.emitted
    }

    fn polls_executed(&self) -> u64 {
        self.polls
    }

    fn dropped_events(&self) -> u64 {
        self.counters.filtered.load(Ordering::Relaxed) + self.ring.shed_total()
    }

    fn shed_events(&self) -> u64 {
        self.ring.shed_total()
    }

    fn wire_health(&self) -> Option<WireHealth> {
        Some(WireHealth {
            reconnects: self.counters.reconnects.load(Ordering::Relaxed),
            peers: self.peer_health(),
        })
    }

    fn take_peer_downs(&mut self) -> Vec<Asn> {
        std::mem::take(&mut *lock_recovering(&self.counters.peer_downs))
    }

    fn set_waker(&mut self, waker: WakeLatch) {
        self.ring.set_waker(waker);
    }
}

/// One prefix of one route-monitoring UPDATE, as the reader parks it:
/// only what differs between events, reduced as [`FeedEvent::new`]
/// reduces it. `poll` adds the emission instant.
struct RingEntry {
    /// The collector's wire timestamp.
    observed_at: SimTime,
    vantage: Asn,
    prefix: Prefix,
    /// The same for every prefix of one UPDATE.
    reach: Reach,
    origin_as: Option<Asn>,
}

// The reader writes one per prefix and the ring moves each twice:
// every build fails when it regrows, or when dropping one costs
// anything (the pump drops what the reader made).
const _: () = assert!(std::mem::size_of::<RingEntry>() <= 64);
const _: () = assert!(!std::mem::needs_drop::<RingEntry>());

/// Why one TCP session ended, deciding what the reader does next.
enum SessionEnd {
    /// The feed was dropped; stop for good.
    Shutdown,
    /// Corrupt framing fused the stream: the message boundary is lost
    /// and re-dialing would replay the same defect. Stop for good.
    Fatal,
    /// EOF or a transport error — the collector may come back.
    TransportLost,
}

/// How often a blocked reader re-checks the shutdown flag.
const READ_TIMEOUT: Duration = Duration::from_millis(25);
/// Socket read-buffer size in bytes.
const READ_CHUNK: usize = 64 * 1024;
/// Base backoff between connection attempts;
/// doubles per consecutive failure up to [`CONNECT_RETRY_CAP`], with
/// jitter so a fleet of feeds does not re-dial in lockstep.
const CONNECT_RETRY: Duration = Duration::from_millis(50);
/// Upper bound on the exponential connect backoff.
const CONNECT_RETRY_CAP: Duration = Duration::from_secs(5);

/// Jittered exponential backoff for re-dial `attempt` (1-based): a
/// uniform draw from `[half, full]` of `CONNECT_RETRY × 2^(attempt-1)`,
/// capped at [`CONNECT_RETRY_CAP`].
fn backoff_delay(attempt: u32, jitter: &mut u64) -> Duration {
    // xorshift64* — deterministic per seed, no external RNG on the
    // reader thread.
    *jitter ^= *jitter << 13;
    *jitter ^= *jitter >> 7;
    *jitter ^= *jitter << 17;
    let full = CONNECT_RETRY
        .saturating_mul(1u32 << attempt.saturating_sub(1).min(16))
        .min(CONNECT_RETRY_CAP);
    let half = full / 2;
    half + Duration::from_nanos(*jitter % (full - half).as_nanos().max(1) as u64)
}

/// Sleep `total`, polling the shutdown flag every [`READ_TIMEOUT`] so
/// dropping the feed mid-backoff never blocks the join.
fn sleep_with_shutdown(total: Duration, shutdown: &AtomicBool) {
    let mut left = total;
    while !left.is_zero() {
        if shutdown.load(Ordering::Relaxed) {
            return;
        }
        let step = left.min(READ_TIMEOUT);
        std::thread::sleep(step);
        left -= step;
    }
}

fn reader_main(
    addr: String,
    config: LiveFeedConfig,
    collector: String,
    ring: Arc<BackpressureRing<RingEntry>>,
    counters: Arc<LiveCounters>,
    shutdown: Arc<AtomicBool>,
) {
    let mut jitter = 0x9E37_79B9_7F4A_7C15u64
        ^ collector
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(b as u64));
    let mut attempt = 0u32;
    let mut established_once = false;
    while !shutdown.load(Ordering::Relaxed) {
        if let Ok(stream) = TcpStream::connect(&addr) {
            counters.connected.store(true, Ordering::Relaxed);
            if established_once {
                counters.reconnects.fetch_add(1, Ordering::Relaxed);
            }
            established_once = true;
            attempt = 0;
            match stream_session(stream, &config, &ring, &counters, &shutdown) {
                SessionEnd::Shutdown | SessionEnd::Fatal => break,
                SessionEnd::TransportLost => {}
            }
        }
        attempt += 1;
        sleep_with_shutdown(backoff_delay(attempt, &mut jitter), &shutdown);
    }
    counters.disconnected.store(true, Ordering::Relaxed);
}

fn stream_session(
    mut stream: TcpStream,
    config: &LiveFeedConfig,
    ring: &BackpressureRing<RingEntry>,
    counters: &LiveCounters,
    shutdown: &AtomicBool,
) -> SessionEnd {
    // A bounded read timeout keeps the thread responsive to shutdown
    // without a second control channel.
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let mut asm = FrameAssembler::new();
    let mut buf = vec![0u8; READ_CHUNK];
    let mut batch: Vec<RingEntry> = Vec::new();
    loop {
        if shutdown.load(Ordering::Relaxed) {
            return SessionEnd::Shutdown;
        }
        let n = match stream.read(&mut buf) {
            Ok(0) => return SessionEnd::TransportLost, // collector closed
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                continue
            }
            Err(_) => return SessionEnd::TransportLost,
        };
        asm.push(&buf[..n]);
        let mut tally = ReadTally::default();
        let fused = loop {
            match asm.next_message() {
                Ok(Some(raw)) if raw.msg_type == MSG_ROUTE_MONITORING => {
                    match raw.scan_route_monitoring() {
                        Ok((peer, update)) => events_from_update(
                            &peer,
                            &update,
                            config.filter.as_ref(),
                            &mut tally,
                            &mut batch,
                        ),
                        Err(_) => {
                            counters.diagnostics.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                Ok(Some(raw)) => match raw.decode() {
                    Ok(BmpMessage::StatsReport { peer, stats }) => {
                        let mut health = lock_recovering(&counters.peer_health);
                        let h = health.entry(peer.peer_as).or_default();
                        h.reports += 1;
                        for s in stats {
                            // RFC 7854 §4.8 stat types the health view
                            // tracks; unknown types pass through
                            // silently (the spec requires tolerance).
                            match s.stat_type {
                                0 => h.prefixes_rejected = s.value,
                                1 => h.duplicate_updates = s.value,
                                2 => h.duplicate_withdraws = s.value,
                                7 => h.adj_rib_in = s.value,
                                8 => h.loc_rib = s.value,
                                _ => {}
                            }
                        }
                    }
                    Ok(BmpMessage::PeerDown { peer, .. }) => {
                        lock_recovering(&counters.peer_health)
                            .entry(peer.peer_as)
                            .or_default()
                            .peer_downs += 1;
                        let mut downs = lock_recovering(&counters.peer_downs);
                        if !downs.contains(&peer.peer_as) {
                            downs.push(peer.peer_as);
                        }
                        drop(downs);
                        // The purge waits for the next delivery
                        // boundary; do not let that be the idle tick.
                        ring.wake_consumer();
                    }
                    // Remaining session bookkeeping (peer up,
                    // initiation/termination) carries no reachability.
                    Ok(_) => {}
                    Err(_) => {
                        counters.diagnostics.fetch_add(1, Ordering::Relaxed);
                    }
                },
                Ok(None) => break false,
                // Fused framing: the stream boundary is lost for good.
                Err(_) => {
                    counters.diagnostics.fetch_add(1, Ordering::Relaxed);
                    break true;
                }
            }
        };
        // What this read decoded reaches the ring and the counters
        // even when its framing fused part-way.
        tally.publish(ring, counters, &mut batch);
        if fused {
            return SessionEnd::Fatal;
        }
    }
}

/// What one socket read decoded and filtered, published in one go.
#[derive(Default)]
struct ReadTally {
    decoded: u64,
    filtered: u64,
}

impl ReadTally {
    /// Push the read's survivors, then count them: filter rejections
    /// first, then `decoded` with `Release`, so a `stats` that sees the
    /// new `decoded` also sees every one of its events queued, shed or
    /// filtered.
    fn publish(
        self,
        ring: &BackpressureRing<RingEntry>,
        counters: &LiveCounters,
        batch: &mut Vec<RingEntry>,
    ) {
        if !batch.is_empty() {
            ring.push_batch(batch.drain(..));
        }
        if self.filtered > 0 {
            counters
                .filtered
                .fetch_add(self.filtered, Ordering::Relaxed);
        }
        if self.decoded > 0 {
            counters.decoded.fetch_add(self.decoded, Ordering::Release);
        }
    }
}

/// Expand one walked route-monitoring UPDATE into per-prefix ring
/// entries, filter them, and append survivors to `batch`, counting
/// both in `tally`. The walk reduced the UPDATE's path to its two ends
/// once, and every announced prefix copies them: nothing here
/// allocates or shares anything with the pump.
fn events_from_update(
    peer: &PeerHeader,
    update: &UpdateView<'_>,
    filter: Option<&FeedFilter>,
    tally: &mut ReadTally,
    batch: &mut Vec<RingEntry>,
) {
    let observed_at = SimTime::from_micros(peer.timestamp_micros());
    let vantage = peer.peer_as;
    let mut push = |prefix, (reach, origin_as): (Reach, Option<Asn>)| {
        tally.decoded += 1;
        match filter {
            Some(f) if !f.matches_parts(prefix, origin_as, vantage, observed_at) => {
                tally.filtered += 1;
            }
            _ => batch.push(RingEntry {
                observed_at,
                vantage,
                prefix,
                reach,
                origin_as,
            }),
        }
    };
    for prefix in update.withdrawn() {
        push(prefix, (Reach::Withdrawn, None));
    }
    // What `FeedEvent::new` makes of the decoded path, read off the
    // walk; present exactly when the UPDATE announces a prefix.
    if let Some(ends) = update.path_ends() {
        let reach = Reach::Announced {
            origin_neighbor: ends.origin_neighbor,
        };
        for prefix in update.announced() {
            push(prefix, (reach, ends.origin));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::EmptyRibView;
    use artemis_bgp::{AsPath, BgpMessage, PathAttributes, UpdateMessage};
    use artemis_bmp::BmpWriter;
    use std::io::Write;
    use std::net::{Ipv4Addr, TcpListener};
    use std::str::FromStr;

    fn route_monitoring(prefix: &str, path: &[u32], ts_micros: u64) -> artemis_bmp::BmpMessage {
        let peer = PeerHeader::global(
            std::net::IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10)),
            Asn(path[0]),
            Ipv4Addr::new(10, 0, 0, 1),
            ts_micros,
        );
        artemis_bmp::BmpMessage::RouteMonitoring {
            peer,
            update: BgpMessage::Update(UpdateMessage::announce(
                PathAttributes::with_path(
                    AsPath::from_sequence(path.iter().copied()),
                    "192.0.2.10".parse().unwrap(),
                ),
                vec![Prefix::from_str(prefix).unwrap()],
            )),
        }
    }

    fn peer_174() -> PeerHeader {
        PeerHeader::global(
            std::net::IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10)),
            Asn(174),
            Ipv4Addr::new(10, 0, 0, 1),
            5_000_000,
        )
    }

    fn wait_until(pred: impl Fn() -> bool) {
        for _ in 0..400 {
            if pred() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("condition not reached within 2s");
    }

    #[test]
    fn streams_route_monitoring_into_poll_events() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let mut w = BmpWriter::new();
            w.write(&route_monitoring("10.0.0.0/24", &[174, 666], 5_000_000))
                .unwrap();
            w.write(&route_monitoring(
                "203.0.113.0/24",
                &[174, 65001],
                6_000_000,
            ))
            .unwrap();
            sock.write_all(w.as_bytes()).unwrap();
        });
        let mut feed = BmpLiveFeed::connect("bmp0", addr.to_string(), LiveFeedConfig::default());
        writer.join().unwrap();
        wait_until(|| feed.stats().pending == 2);

        let now = SimTime::from_secs(100);
        assert_eq!(feed.next_poll(now), Some(now));
        let evs = feed.poll(now, &EmptyRibView, &mut SimRng::new(1));
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].prefix, Prefix::from_str("10.0.0.0/24").unwrap());
        assert_eq!(evs[0].vantage, Asn(174));
        assert_eq!(evs[0].origin_as, Some(Asn(666)));
        assert_eq!(evs[0].emitted_at, now);
        assert_eq!(evs[0].observed_at, SimTime::from_secs(5));
        assert_eq!(evs[0].source, FeedKind::BmpLive);
        assert_eq!(feed.next_poll(now), None, "drained ring schedules nothing");
        assert_eq!(feed.events_emitted(), 2);
        assert_eq!(feed.polls_executed(), 1);
    }

    #[test]
    fn poll_into_appends_and_stamps_only_what_it_appended() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let mut w = BmpWriter::new();
            // One wire timestamp before the poll instant, one after.
            w.write(&route_monitoring("10.0.0.0/24", &[174, 666], 5_000_000))
                .unwrap();
            w.write(&route_monitoring("10.0.1.0/24", &[174, 666], 200_000_000))
                .unwrap();
            sock.write_all(w.as_bytes()).unwrap();
        });
        let mut feed = BmpLiveFeed::connect("bmp0", addr.to_string(), LiveFeedConfig::default());
        writer.join().unwrap();
        wait_until(|| feed.stats().pending == 2);

        // What the caller's buffer already holds must come back as it was.
        let earlier = FeedEvent {
            raw: Some("kept".into()),
            ..FeedEvent::new(
                SimTime::from_secs(1),
                SimTime::from_secs(999),
                FeedKind::RisLive,
                Asn(3356),
                Prefix::from_str("192.0.2.0/24").unwrap(),
                None,
                None,
            )
        };
        let mut out = vec![earlier.clone()];
        let at = SimTime::from_secs(100);
        feed.poll_into(at, &EmptyRibView, &mut SimRng::new(1), &mut out);
        assert_eq!(out.len(), 3, "appended after what was there");
        assert_eq!(out[0], earlier, "earlier entries untouched");
        let stamped: Vec<(SimTime, SimTime)> = out[1..]
            .iter()
            .map(|e| (e.emitted_at, e.observed_at))
            .collect();
        assert_eq!(
            stamped,
            vec![(at, SimTime::from_secs(5)), (at, at)],
            "emitted at the poll, observed at the wire time capped by it"
        );
        assert_eq!(out[1].prefix, Prefix::from_str("10.0.0.0/24").unwrap());
        assert_eq!(feed.events_emitted(), 2);
        assert_eq!(feed.polls_executed(), 1);
    }

    #[test]
    fn events_of_one_update_carry_one_reduction_of_its_path() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let peer = peer_174();
            let mut w = BmpWriter::new();
            // 16 NLRI + 2 withdrawals in one UPDATE, then a second
            // UPDATE carrying an equal path of its own.
            let attrs = || {
                PathAttributes::with_path(
                    AsPath::from_sequence([174u32, 3356, 65001]),
                    "192.0.2.10".parse().unwrap(),
                )
            };
            w.write(&artemis_bmp::BmpMessage::RouteMonitoring {
                peer,
                update: BgpMessage::Update(UpdateMessage {
                    withdrawn: (0..2u8)
                        .map(|i| Prefix::v4(Ipv4Addr::new(198, 51, i, 0), 24).unwrap())
                        .collect(),
                    attrs: Some(attrs()),
                    nlri: (0..16u8)
                        .map(|i| Prefix::v4(Ipv4Addr::new(10, 0, i, 0), 24).unwrap())
                        .collect(),
                }),
            })
            .unwrap();
            w.write(&artemis_bmp::BmpMessage::RouteMonitoring {
                peer,
                update: BgpMessage::Update(UpdateMessage::announce(
                    attrs(),
                    vec![Prefix::from_str("10.1.0.0/24").unwrap()],
                )),
            })
            .unwrap();
            sock.write_all(w.as_bytes()).unwrap();
        });
        let mut feed = BmpLiveFeed::connect("bmp0", addr.to_string(), LiveFeedConfig::default());
        writer.join().unwrap();
        wait_until(|| feed.stats().pending == 19);
        let evs = feed.poll(SimTime::from_secs(100), &EmptyRibView, &mut SimRng::new(1));
        let (first, second) = evs.split_at(18);
        assert!(first[..2].iter().all(FeedEvent::is_withdrawal));

        assert_eq!(
            feed.name(),
            "bmp0",
            "the name is the feed's, not its events'"
        );
        let announced = Reach::Announced {
            origin_neighbor: Some(Asn(3356)),
        };
        for ev in first[2..].iter().chain(second) {
            assert_eq!((ev.reach, ev.origin_as), (announced, Some(Asn(65001))));
        }
        assert!(first[..2].iter().all(|ev| ev.origin_as.is_none()));
    }

    #[test]
    fn a_legacy_two_octet_peer_announces_its_four_octet_origin() {
        // RFC 7854 §4.2: the per-peer "A" flag says the UPDATE uses
        // 2-octet AS_PATH, so its four-octet hops travel as AS_TRANS
        // and the AS4_PATH attribute restores them (RFC 6793).
        let path = AsPath::from_sequence([174u32, 4_200_000_001, 4_200_000_002]);
        let update = BgpMessage::Update(UpdateMessage::announce(
            PathAttributes::with_path(path, "192.0.2.10".parse().unwrap()),
            vec![Prefix::from_str("10.0.0.0/24").unwrap()],
        ));
        // The writer frames the per-peer header around an empty UPDATE
        // (the same bytes in either AS_PATH format); the announcement
        // is then encoded in the legacy format by hand, so that the
        // bytes are legacy whatever the writer does with the flag.
        let mut w = BmpWriter::new();
        w.write(&artemis_bmp::BmpMessage::RouteMonitoring {
            peer: PeerHeader {
                flags: 0x20,
                ..peer_174()
            },
            update: BgpMessage::Update(UpdateMessage::withdraw(Vec::new())),
        })
        .unwrap();
        let mut msg = w.into_bytes();
        msg.truncate(artemis_bmp::COMMON_HEADER_LEN + artemis_bmp::PEER_HEADER_LEN);
        let pdu = artemis_bgp::Codec::two_octet().encode(&update).unwrap();
        assert!(
            pdu.windows(2).any(|w| w == 23456u16.to_be_bytes()),
            "AS_TRANS on the wire"
        );
        msg.extend_from_slice(&pdu);
        let len = msg.len() as u32;
        msg[1..5].copy_from_slice(&len.to_be_bytes());

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            sock.write_all(&msg).unwrap();
        });
        let mut feed = BmpLiveFeed::connect("bmp0", addr.to_string(), LiveFeedConfig::default());
        writer.join().unwrap();
        wait_until(|| feed.stats().pending == 1);
        let evs = feed.poll(SimTime::from_secs(100), &EmptyRibView, &mut SimRng::new(1));
        assert_eq!(feed.stats().diagnostics, 0);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].origin_as, Some(Asn(4_200_000_002)));
        assert_eq!(
            evs[0].reach,
            Reach::Announced {
                origin_neighbor: Some(Asn(4_200_000_001))
            }
        );
    }

    #[test]
    fn poisoned_session_maps_do_not_take_the_feed_down() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut feed = BmpLiveFeed::connect("bmp0", addr.to_string(), LiveFeedConfig::default());
        let (mut sock, _) = listener.accept().unwrap();

        // What a panic on the reader thread does to the two maps.
        let counters = Arc::clone(&feed.counters);
        let died = std::thread::spawn(move || {
            let _health = counters.peer_health.lock().unwrap();
            let _downs = counters.peer_downs.lock().unwrap();
            panic!("poisoning both session maps (expected in this test)");
        })
        .join();
        assert!(died.is_err());
        assert!(feed.counters.peer_health.is_poisoned());
        assert!(feed.counters.peer_downs.is_poisoned());

        // The pump's four reads still answer ...
        assert_eq!(feed.stats().peers, 0);
        assert!(feed.peer_health().is_empty());
        assert!(feed.wire_health().expect("wire feed").peers.is_empty());
        assert!(feed.take_peer_downs().is_empty());

        // ... and the reader's three writes still land.
        let peer = peer_174();
        let mut w = BmpWriter::new();
        w.write(&artemis_bmp::BmpMessage::StatsReport {
            peer,
            stats: vec![artemis_bmp::StatCounter {
                stat_type: 7,
                value: 42,
            }],
        })
        .unwrap();
        w.write(&artemis_bmp::BmpMessage::PeerDown {
            peer,
            reason: 1,
            data: Vec::new(),
        })
        .unwrap();
        let latch = WakeLatch::new();
        feed.set_waker(latch.clone());
        sock.write_all(w.as_bytes()).unwrap();
        // The reader knocks once the peer down is fully recorded.
        assert!(latch.wait(Duration::from_secs(10)));
        let (asn, health) = feed.peer_health()[0];
        assert_eq!(
            (asn, health.reports, health.adj_rib_in, health.peer_downs),
            (Asn(174), 1, 42, 1)
        );
        assert_eq!(feed.stats().peers, 1);
        assert_eq!(feed.wire_health().expect("wire feed").peers.len(), 1);
        assert_eq!(feed.take_peer_downs(), vec![Asn(174)]);
        assert!(!feed.stats().disconnected);
    }

    #[test]
    fn pre_ring_filter_counts_rejections_as_drops() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let mut w = BmpWriter::new();
            for i in 0..10u32 {
                // Half inside the watched prefix, half elsewhere.
                let p = if i % 2 == 0 {
                    "10.0.0.0/24"
                } else {
                    "198.51.100.0/24"
                };
                w.write(&route_monitoring(p, &[174, 666], i as u64))
                    .unwrap();
            }
            sock.write_all(w.as_bytes()).unwrap();
        });
        let config = LiveFeedConfig {
            filter: Some(FeedFilter::any().prefix(Prefix::from_str("10.0.0.0/23").unwrap())),
            ..LiveFeedConfig::default()
        };
        let feed = BmpLiveFeed::connect("bmp0", addr.to_string(), config);
        writer.join().unwrap();
        wait_until(|| feed.stats().decoded == 10);
        let stats = feed.stats();
        assert_eq!(stats.filtered, 5);
        assert_eq!(stats.pending, 5, "rejected events never reach the ring");
        assert_eq!(feed.dropped_events(), 5);
        assert_eq!(feed.shed_events(), 0);
    }

    #[test]
    fn every_decoded_event_is_polled_filtered_or_shed() {
        const BURST: u64 = 300;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let config = LiveFeedConfig {
            ring_capacity: 16,
            filter: Some(FeedFilter::any().prefix(Prefix::from_str("10.0.0.0/16").unwrap())),
        };
        let mut feed = BmpLiveFeed::connect("bmp0", addr.to_string(), config);
        let (mut sock, _) = listener.accept().unwrap();
        let writer = std::thread::spawn(move || {
            // Two of every three inside the filter. Half the burst in
            // one write (more than the ring holds), the rest in small
            // pieces so the reader sees many socket reads.
            let mut w = BmpWriter::new();
            let mut cut = 0;
            for i in 0..BURST {
                let p = if i % 3 == 2 {
                    "198.51.100.0/24"
                } else {
                    "10.0.0.0/24"
                };
                w.write(&route_monitoring(p, &[174, 666], i)).unwrap();
                if i == BURST / 2 {
                    cut = w.as_bytes().len();
                }
            }
            let (bulk, rest) = w.as_bytes().split_at(cut);
            sock.write_all(bulk).unwrap();
            for chunk in rest.chunks(700) {
                sock.write_all(chunk).unwrap();
                std::thread::sleep(Duration::from_micros(200));
            }
            sock
        });
        // Poll while the burst streams in: some events are polled,
        // some shed from the small ring, some filtered.
        let mut polled = 0u64;
        let mut rng = SimRng::new(1);
        while feed.stats().decoded < BURST {
            polled += feed
                .poll(SimTime::from_secs(1), &EmptyRibView, &mut rng)
                .len() as u64;
        }
        // The stats that first read the whole burst already see all of
        // it in the ring, shed or filtered: none is still in flight.
        let stats = feed.stats();
        assert_eq!(
            stats.decoded,
            polled + stats.filtered + stats.shed + stats.pending as u64,
            "{stats:?}, polled {polled}"
        );
        let _sock = writer.join().unwrap();
        polled += feed
            .poll(SimTime::from_secs(1), &EmptyRibView, &mut rng)
            .len() as u64;
        let stats = feed.stats();
        assert_eq!(stats.decoded, BURST);
        assert_eq!(stats.filtered, BURST / 3);
        assert_eq!(stats.pending, 0);
        assert_eq!(stats.decoded, polled + stats.filtered + stats.shed);
        assert_eq!(feed.events_emitted(), polled);
        assert_eq!(feed.dropped_events(), stats.filtered + stats.shed);
    }

    #[test]
    fn stalled_consumer_sheds_oldest_bounded() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let mut w = BmpWriter::new();
            for i in 0..200u64 {
                w.write(&route_monitoring("10.0.0.0/24", &[174, 666], i))
                    .unwrap();
            }
            sock.write_all(w.as_bytes()).unwrap();
        });
        let config = LiveFeedConfig {
            ring_capacity: 16,
            ..LiveFeedConfig::default()
        };
        let mut feed = BmpLiveFeed::connect("bmp0", addr.to_string(), config);
        writer.join().unwrap();
        wait_until(|| feed.stats().decoded == 200);
        let stats = feed.stats();
        assert_eq!(stats.pending, 16, "ring memory is bounded at capacity");
        assert_eq!(stats.shed, 184, "everything beyond capacity was shed");
        assert_eq!(feed.dropped_events(), 184);
        // The newest observation survived the stall.
        let evs = feed.poll(SimTime::from_secs(1), &EmptyRibView, &mut SimRng::new(1));
        assert_eq!(evs.last().unwrap().observed_at, SimTime::from_micros(199));
    }

    #[test]
    fn corrupt_framing_disconnects_cleanly() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let mut w = BmpWriter::new();
            w.write(&route_monitoring("10.0.0.0/24", &[174, 666], 1))
                .unwrap();
            let mut bytes = w.into_bytes();
            bytes.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF, 0, 0, 0, 0]);
            sock.write_all(&bytes).unwrap();
            // Keep the socket open: the feed must bail on the corrupt
            // framing itself, not on EOF.
            std::thread::sleep(Duration::from_millis(300));
        });
        let mut feed = BmpLiveFeed::connect("bmp0", addr.to_string(), LiveFeedConfig::default());
        wait_until(|| feed.stats().disconnected);
        let stats = feed.stats();
        assert_eq!(stats.decoded, 1, "events before the corruption were kept");
        assert_eq!(stats.pending, 1, "... and reached the ring");
        assert!(stats.diagnostics >= 1);
        let evs = feed.poll(SimTime::from_secs(1), &EmptyRibView, &mut SimRng::new(1));
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].prefix, Prefix::from_str("10.0.0.0/24").unwrap());
        writer.join().unwrap();
    }

    #[test]
    fn drop_while_connecting_does_not_hang() {
        // No listener: the feed sits in the connect-retry loop. Drop
        // must terminate the thread promptly.
        let feed = BmpLiveFeed::connect("bmp0", "127.0.0.1:1", LiveFeedConfig::default());
        std::thread::sleep(Duration::from_millis(30));
        drop(feed); // must not hang
    }

    #[test]
    fn transport_loss_reconnects_with_backoff() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            // First session: one event, then EOF (collector restart).
            let (mut sock, _) = listener.accept().unwrap();
            let mut w = BmpWriter::new();
            w.write(&route_monitoring("10.0.0.0/24", &[174, 666], 1))
                .unwrap();
            sock.write_all(w.as_bytes()).unwrap();
            drop(sock);
            // Second session once the feed re-dials.
            let (mut sock, _) = listener.accept().unwrap();
            let mut w = BmpWriter::new();
            w.write(&route_monitoring("10.0.1.0/24", &[174, 667], 2))
                .unwrap();
            sock.write_all(w.as_bytes()).unwrap();
            std::thread::sleep(Duration::from_millis(150));
        });
        let feed = BmpLiveFeed::connect("bmp0", addr.to_string(), LiveFeedConfig::default());
        wait_until(|| feed.stats().decoded == 2);
        let stats = feed.stats();
        assert_eq!(stats.reconnects, 1, "one re-established session");
        assert!(
            !stats.disconnected,
            "a lost transport keeps the feed alive (it re-dials)"
        );
        assert!(stats.connected);
        writer.join().unwrap();
    }

    #[test]
    fn stats_report_populates_peer_health() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let peer = PeerHeader::global(
                std::net::IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10)),
                Asn(174),
                Ipv4Addr::new(10, 0, 0, 1),
                5_000_000,
            );
            let mut w = BmpWriter::new();
            // Two reports: counters replace, the second wins.
            for (rejected, adj_in) in [(3u64, 800_000u64), (5, 900_000)] {
                w.write(&artemis_bmp::BmpMessage::StatsReport {
                    peer,
                    stats: vec![
                        artemis_bmp::StatCounter {
                            stat_type: 0,
                            value: rejected,
                        },
                        artemis_bmp::StatCounter {
                            stat_type: 1,
                            value: 2,
                        },
                        artemis_bmp::StatCounter {
                            stat_type: 7,
                            value: adj_in,
                        },
                        artemis_bmp::StatCounter {
                            stat_type: 8,
                            value: adj_in - 1_000,
                        },
                        // An exotic stat type must pass through silently.
                        artemis_bmp::StatCounter {
                            stat_type: 13,
                            value: 77,
                        },
                    ],
                })
                .unwrap();
            }
            sock.write_all(w.as_bytes()).unwrap();
            std::thread::sleep(Duration::from_millis(150));
        });
        let feed = BmpLiveFeed::connect("bmp0", addr.to_string(), LiveFeedConfig::default());
        wait_until(|| feed.stats().peers == 1);
        wait_until(|| feed.peer_health()[0].1.reports == 2);
        let (peer, health) = feed.peer_health()[0];
        assert_eq!(peer, Asn(174));
        assert_eq!(health.prefixes_rejected, 5, "second report replaces");
        assert_eq!(health.duplicate_updates, 2);
        assert_eq!(health.adj_rib_in, 900_000);
        assert_eq!(health.loc_rib, 899_000);
        assert_eq!(health.peer_downs, 0);
        let wire = feed.wire_health().expect("wire feed reports health");
        assert_eq!(wire.peers.len(), 1);
        writer.join().unwrap();
    }

    #[test]
    fn peer_down_queues_purge_signal_once() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let peer = PeerHeader::global(
                std::net::IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10)),
                Asn(174),
                Ipv4Addr::new(10, 0, 0, 1),
                5_000_000,
            );
            let mut w = BmpWriter::new();
            // The same peer flaps twice before the pipeline drains the
            // signals: one purge is enough (health still counts both).
            for _ in 0..2 {
                w.write(&artemis_bmp::BmpMessage::PeerDown {
                    peer,
                    reason: 1,
                    data: Vec::new(),
                })
                .unwrap();
            }
            sock.write_all(w.as_bytes()).unwrap();
            std::thread::sleep(Duration::from_millis(150));
        });
        let mut feed = BmpLiveFeed::connect("bmp0", addr.to_string(), LiveFeedConfig::default());
        wait_until(|| {
            feed.peer_health()
                .first()
                .is_some_and(|(_, h)| h.peer_downs == 2)
        });
        assert_eq!(feed.take_peer_downs(), vec![Asn(174)], "deduped signal");
        assert!(
            feed.take_peer_downs().is_empty(),
            "draining is destructive — the purge applies once"
        );
        writer.join().unwrap();
    }

    #[test]
    fn peer_down_knocks_on_the_waker_though_nothing_is_pushed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut feed = BmpLiveFeed::connect("bmp0", addr.to_string(), LiveFeedConfig::default());
        let latch = WakeLatch::new();
        feed.set_waker(latch.clone());
        let (mut sock, _) = listener.accept().unwrap();
        let peer = PeerHeader::global(
            std::net::IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10)),
            Asn(174),
            Ipv4Addr::new(10, 0, 0, 1),
            5_000_000,
        );
        let mut w = BmpWriter::new();
        w.write(&artemis_bmp::BmpMessage::PeerDown {
            peer,
            reason: 1,
            data: Vec::new(),
        })
        .unwrap();
        sock.write_all(w.as_bytes()).unwrap();
        assert!(
            latch.wait(Duration::from_secs(10)),
            "the purge must not wait for the driver's idle tick"
        );
        assert_eq!(feed.stats().pending, 0);
        assert_eq!(feed.take_peer_downs(), vec![Asn(174)]);
    }
}

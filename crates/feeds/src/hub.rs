//! The [`FeedHub`]: fan-out of routing changes to all configured feeds
//! and time-ordered aggregation of their events.

use crate::event::{FeedEvent, FeedKind};
use crate::source::{FeedSource, RibView, WakeLatch};
use artemis_bgp::RouteChange;
use artemis_simnet::{SimRng, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// Stable identity of a feed inside a [`FeedHub`].
///
/// Returned by [`FeedHub::add`] and never reused, so drivers can
/// attach, address and detach feeds at runtime without the positional
/// fragility of index-based access (a detach shifts every later
/// index; handles are immune).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FeedHandle(u64);

impl FeedHandle {
    /// Reserved pseudo-handle for events put back into the queue via
    /// [`FeedHub::requeue`]. Requeued events were already drained once
    /// — their feed attribution is deliberately severed, so a later
    /// [`FeedHub::remove`] never drops them (they were due for
    /// delivery before the detach).
    pub const REQUEUED: FeedHandle = FeedHandle(0);

    /// The raw numeric id (stable, serializable).
    pub fn id(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for FeedHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "feed#{}", self.0)
    }
}

/// Hub-observed health of one attached feed: how many of its events
/// sit undrained in the merge queue, and the emission instant of the
/// newest event it ever queued. This is the single source of truth
/// behind both `ServiceStatus` feed health and daemon `/metrics` —
/// they must agree because they both read it from here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeedLag {
    /// Events queued (not yet drained) attributed to this feed.
    pub queued_events: usize,
    /// Emission instant of the newest event this feed queued, if any.
    pub last_event_at: Option<SimTime>,
    /// Events the feed reports discarding before they could reach the
    /// hub ([`FeedSource::dropped_events`]: backpressure sheds and a
    /// live feed's pre-ring [`crate::FeedFilter`]).
    /// Monotone; `shed_events` is a subset.
    pub dropped_events: u64,
    /// The backpressure subset of `dropped_events`: events shed from a
    /// bounded ring because the consumer fell behind. Monotone.
    pub shed_events: u64,
}

/// A queued event's ordering key: `(emitted_at, ingestion sequence)` —
/// the sequence number makes simultaneous emissions deterministic.
type Key = (SimTime, u64);

/// Everything the hub keeps for one feed. Its pending events are held
/// **by value** as a *sorted run*: appends land at the tail in
/// ingestion order (per-feed streams are near-sorted already — a
/// constant export delay makes them exactly sorted), a flag records
/// whether an append broke `(time, seq)` order, and [`Lane::seal`]
/// sorts the run lazily at drain time only when it has to. Drains take
/// whole runs off the front; a run that is the lane's whole content,
/// going into an empty buffer, leaves as a buffer swap — as does a
/// batch appended to an empty lane — so an event queued and drained
/// through a lone lane is never moved by the hub at all.
#[derive(Default)]
struct Lane {
    /// Pending events; `seqs[i]` is the ingestion sequence of
    /// `events[i]`.
    events: VecDeque<FeedEvent>,
    seqs: VecDeque<u64>,
    /// True when an append broke `(time, seq)` order since the last
    /// seal; the run must be sorted before merging.
    unsorted: bool,
    /// Earliest emission instant among pending events (exact even
    /// while the run is unsorted), `None` when the lane is empty.
    min_time: Option<SimTime>,
    /// Queue depth and newest emission, booked once per queued batch
    /// and once per drained run.
    lag: FeedLag,
}

impl Lane {
    /// Append the whole (non-empty) `batch` in ingestion order, under
    /// sequence numbers from `seq` on. Onto an empty lane this is a
    /// buffer swap: `batch` comes back empty, holding the lane's spare
    /// allocation.
    fn append(&mut self, batch: &mut Vec<FeedEvent>, seq: u64) {
        let mut last = self.events.back().map(|e| e.emitted_at);
        let (mut oldest, mut newest) = (SimTime::from_micros(u64::MAX), SimTime::ZERO);
        for ev in batch.iter() {
            let t = ev.emitted_at;
            self.unsorted |= last.is_some_and(|l| t < l);
            last = Some(t);
            oldest = oldest.min(t);
            newest = newest.max(t);
        }
        self.min_time = Some(self.min_time.map_or(oldest, |t| t.min(oldest)));
        self.lag.queued_events += batch.len();
        self.lag.last_event_at = self.lag.last_event_at.max(Some(newest));
        self.seqs.extend(seq..seq + batch.len() as u64);
        if self.events.is_empty() {
            let spare = Vec::from(std::mem::take(&mut self.events));
            self.events = VecDeque::from(std::mem::replace(batch, spare));
        } else {
            self.events.extend(batch.drain(..));
        }
    }

    /// Sort the run by `(time, seq)` if an append disordered it. The
    /// sort moves 24-byte keys, not events: `keys` (reused across
    /// calls) is sorted with each key's position, and the events then
    /// follow that permutation in place, one cycle at a time.
    fn seal(&mut self, keys: &mut Vec<(SimTime, u64, u32)>) {
        if !std::mem::take(&mut self.unsorted) {
            return;
        }
        let events = self.events.make_contiguous();
        let seqs = self.seqs.make_contiguous();
        keys.clear();
        keys.extend(
            events
                .iter()
                .zip(seqs.iter())
                .zip(0u32..)
                .map(|((ev, &seq), i)| (ev.emitted_at, seq, i)),
        );
        keys.sort_unstable();
        // Position `i` takes the event now at `keys[i].2`; `u32::MAX`
        // marks a position already filled.
        for i in 0..keys.len() {
            seqs[i] = keys[i].1;
            let mut at = i;
            loop {
                let from = std::mem::replace(&mut keys[at].2, u32::MAX);
                if from == u32::MAX || from as usize == i {
                    break;
                }
                events.swap(at, from as usize);
                at = from as usize;
            }
        }
    }

    /// The earliest pending key. Only meaningful after [`Lane::seal`].
    fn front(&self) -> Option<Key> {
        Some((self.events.front()?.emitted_at, *self.seqs.front()?))
    }

    /// How many front events sort before `limit` (lane sealed): O(1)
    /// when the whole lane does, else O(run), never O(pending).
    fn run_before(&self, limit: Key) -> usize {
        let n = self.events.len();
        if n == 0 || (self.events[n - 1].emitted_at, self.seqs[n - 1]) < limit {
            return n;
        }
        self.events
            .iter()
            .zip(&self.seqs)
            .take_while(|(ev, &seq)| (ev.emitted_at, seq) < limit)
            .count()
    }

    /// Move the first `k` events (lane sealed) to the end of `out` in
    /// one drain, or — when they are the whole lane and `out` is empty
    /// — by swapping buffers with `out`. A front drain moves the `k`
    /// events and nothing behind them.
    fn take_run(&mut self, k: usize, out: &mut Vec<FeedEvent>) {
        if k == self.events.len() && out.is_empty() {
            let spare = VecDeque::from(std::mem::take(out));
            *out = Vec::from(std::mem::replace(&mut self.events, spare));
            self.seqs.clear();
        } else {
            out.extend(self.events.drain(..k));
            self.seqs.drain(..k);
        }
        self.lag.queued_events -= k;
        self.min_time = self.events.front().map(|e| e.emitted_at);
    }
}

/// Wall-clock timing breakdown of one [`FeedHub::drain_batch_timed`]
/// call, split into the drain's two sub-stages: sealing the per-feed
/// sorted runs (lazy sort of any lane an append disordered) and the
/// k-way merge that moves due events out in global `(time, seq)`
/// order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainBreakdown {
    /// Nanoseconds spent sealing (lazily sorting) lanes.
    pub seal_nanos: u64,
    /// Nanoseconds spent merging due events into the output buffer.
    pub merge_nanos: u64,
}

/// Aggregates any number of [`FeedSource`]s behind one interface.
///
/// The hub has one consumption path: the caller queues events with
/// [`FeedHub::ingest_route_changes`] / [`FeedHub::poll_and_queue`],
/// and [`FeedHub::drain_batch`] moves everything due up to an instant,
/// merge-sorted by `(emitted_at, ingestion order)`, into a
/// caller-owned reusable buffer. One scratch buffer is threaded
/// through all feeds, and each feed's lane holds its events by value.
/// With a single feed attached, both the queueing and the drain are
/// buffer swaps: an event moves once on its way from the feed to the
/// batch (into the scratch buffer), and the hot path allocates nothing
/// once its buffers are warm.
///
/// Feeds are identified by the stable [`FeedHandle`] returned from
/// [`FeedHub::add`]; [`FeedHub::remove`] detaches a feed at runtime and
/// **drops** its queued, undelivered events (see `remove` docs).
///
/// # Per-feed RNG streams
///
/// Every feed draws its export-delay samples from its **own** RNG
/// stream, forked deterministically from the hub's master stream at
/// attach time (`fork_indexed("feed", handle)`). A feed's draw
/// sequence therefore depends only on the hub seed, its handle and its
/// own event history — attaching or detaching another feed never
/// shifts it.
pub struct FeedHub {
    /// Attached feeds with their stable handle and private RNG stream.
    feeds: Vec<(FeedHandle, SimRng, Box<dyn FeedSource>)>,
    /// Master stream: only forked at attach time, never drawn from on
    /// the event path.
    rng: SimRng,
    /// One lane per attached feed, keyed by handle id, plus
    /// [`FeedHandle::REQUEUED`]'s at id 0 once anything is requeued.
    /// The global drain order is recovered by a k-way merge over the
    /// lane fronts that moves a run at a time — per-feed streams are
    /// already (near-)time-ordered, so the merge pays O(feeds) per run
    /// where a global heap paid O(log total-events) sifts per event.
    lanes: BTreeMap<u64, Lane>,
    /// Total pending (undrained) events across all lanes.
    pending: usize,
    /// Monotone ingestion counter (tie-break for equal emission times).
    seq: u64,
    /// Monotone handle allocator (0 is [`FeedHandle::REQUEUED`]).
    next_handle: u64,
    /// Reusable fan-out buffer shared by the batch ingestion paths.
    scratch: Vec<FeedEvent>,
    /// Reusable sort keys for [`Lane::seal`].
    sort_keys: Vec<(SimTime, u64, u32)>,
    /// The driver's wake-up latch, kept so feeds attached later get it
    /// too (see [`FeedHub::set_waker`]).
    waker: Option<WakeLatch>,
}

impl FeedHub {
    /// An empty hub with its own RNG stream.
    pub fn new(rng: SimRng) -> Self {
        FeedHub {
            feeds: Vec::new(),
            rng,
            lanes: BTreeMap::new(),
            pending: 0,
            seq: 0,
            next_handle: 1,
            scratch: Vec::new(),
            sort_keys: Vec::new(),
            waker: None,
        }
    }

    /// Install the latch the hub's driver parks on: handed to every
    /// attached feed now and to every feed attached from here on
    /// ([`FeedSource::set_waker`]), so a live feed wakes the driver
    /// whenever [`FeedHub::next_poll`] turns ready.
    pub fn set_waker(&mut self, waker: WakeLatch) {
        for (_, _, feed) in &mut self.feeds {
            feed.set_waker(waker.clone());
        }
        self.waker = Some(waker);
    }

    /// Add a feed, returning its stable [`FeedHandle`]. Handles are
    /// never reused, even after [`FeedHub::remove`]. The feed gets its
    /// own RNG stream, forked from the hub's master stream by handle —
    /// so its delay draws are a pure function of (hub seed, handle,
    /// its own event history), independent of other feeds.
    pub fn add(&mut self, mut feed: Box<dyn FeedSource>) -> FeedHandle {
        let handle = FeedHandle(self.next_handle);
        self.next_handle += 1;
        let feed_rng = self.rng.fork_indexed("feed", handle.0);
        if let Some(waker) = &self.waker {
            feed.set_waker(waker.clone());
        }
        self.feeds.push((handle, feed_rng, feed));
        self.lanes.insert(handle.0, Lane::default());
        handle
    }

    /// Detach a feed at runtime, returning the feed and the number of
    /// its queued, undelivered events.
    ///
    /// **Detach semantics (deliberate, deterministic):** every event
    /// the detached feed emitted that is still waiting in the merge
    /// queue is *dropped* — a detached feed's telemetry is considered
    /// untrustworthy from the detach instant, and dropping (rather
    /// than delivering a dying feed's tail) keeps the delivered stream
    /// a pure function of the attach/detach schedule. Events from
    /// other feeds keep their exact relative order. Events restored
    /// via [`FeedHub::requeue`] carry [`FeedHandle::REQUEUED`] and are
    /// never dropped by a detach (they were already due for delivery).
    pub fn remove(&mut self, handle: FeedHandle) -> Option<(Box<dyn FeedSource>, usize)> {
        let pos = self.feeds.iter().position(|(h, _, _)| *h == handle)?;
        let (_, _, feed) = self.feeds.remove(pos);
        // The detached feed's pending events all live in its own lane:
        // other feeds' lanes (and the requeued lane) are untouched, so
        // their exact relative order is preserved by construction.
        let dropped = self.lanes.remove(&handle.0).map_or(0, |l| l.events.len());
        self.pending -= dropped;
        Some((feed, dropped))
    }

    /// Number of feeds.
    pub fn len(&self) -> usize {
        self.feeds.len()
    }

    /// True when no feeds are configured.
    pub fn is_empty(&self) -> bool {
        self.feeds.is_empty()
    }

    /// Move everything in the scratch buffer into `handle`'s lane.
    fn queue_scratch(&mut self, handle: FeedHandle) {
        if self.scratch.is_empty() {
            return;
        }
        let lane = self.lanes.entry(handle.0).or_default();
        let n = self.scratch.len();
        lane.append(&mut self.scratch, self.seq);
        self.pending += n;
        self.seq += n as u64;
    }

    /// Fan one routing change out to all push feeds and queue the
    /// resulting events for [`FeedHub::drain_batch`].
    pub fn ingest_route_change(&mut self, change: &RouteChange) {
        for i in 0..self.feeds.len() {
            let handle = {
                let (h, rng, feed) = &mut self.feeds[i];
                feed.on_route_change_into(change, rng, &mut self.scratch);
                *h
            };
            self.queue_scratch(handle);
        }
    }

    /// Fan a batch of routing changes out to all push feeds, in order,
    /// queueing every resulting event.
    pub fn ingest_route_changes(&mut self, changes: &[RouteChange]) {
        for change in changes {
            self.ingest_route_change(change);
        }
    }

    /// Run every feed whose poll is due at `at` and queue the results.
    /// Each feed appends straight into the hub's reused scratch buffer
    /// ([`FeedSource::poll_into`]).
    pub fn poll_and_queue(&mut self, at: SimTime, view: &dyn RibView) {
        for i in 0..self.feeds.len() {
            let handle = {
                let (h, rng, feed) = &mut self.feeds[i];
                if feed.next_poll(at).is_some_and(|t| t <= at) {
                    feed.poll_into(at, view, rng, &mut self.scratch);
                }
                *h
            };
            self.queue_scratch(handle);
        }
    }

    /// Put drained-but-unprocessed events back into the merge queue
    /// (e.g. when a driver stops mid-batch and wants a later drain to
    /// resume losslessly). Relative order among requeued events is
    /// preserved: they re-enter in iteration order with fresh
    /// ingestion sequence numbers, and everything at their emission
    /// instants has already been drained. Requeued events are
    /// attributed to [`FeedHandle::REQUEUED`], so a later
    /// [`FeedHub::remove`] does not drop them.
    pub fn requeue(&mut self, events: impl IntoIterator<Item = FeedEvent>) {
        self.scratch.extend(events);
        self.queue_scratch(FeedHandle::REQUEUED);
    }

    /// Emission instant of the earliest queued event, if any.
    pub fn next_emission(&self) -> Option<SimTime> {
        self.lanes.values().filter_map(|l| l.min_time).min()
    }

    /// Number of queued (not yet drained) events.
    pub fn pending_events(&self) -> usize {
        self.pending
    }

    /// Drain every queued event with `emitted_at <= upto` into `out`
    /// (cleared first), globally merge-sorted by `(emitted_at,
    /// ingestion order)` across push and pull feeds. Returns the number
    /// of drained events. `out` is caller-owned so one buffer can be
    /// reused across the whole run; a drain that empties a lone lane
    /// swaps buffers with it instead of moving the events.
    ///
    /// Internally this seals each feed's sorted run (a lazy sort, paid
    /// only by lanes an append actually disordered) and then k-way
    /// merges the lane fronts by `(emitted_at, ingestion sequence)`,
    /// a run at a time — sequence numbers are globally unique, so the
    /// merged order is byte-identical to what a single global ordered
    /// queue would produce.
    pub fn drain_batch(&mut self, upto: SimTime, out: &mut Vec<FeedEvent>) -> usize {
        out.clear();
        self.seal_lanes();
        self.merge_due(upto, out)
    }

    /// [`FeedHub::drain_batch`] with a wall-clock sub-stage breakdown
    /// (seal vs merge), for pipelines exporting drain-stage latency
    /// histograms.
    pub fn drain_batch_timed(
        &mut self,
        upto: SimTime,
        out: &mut Vec<FeedEvent>,
    ) -> (usize, DrainBreakdown) {
        out.clear();
        let t0 = std::time::Instant::now();
        self.seal_lanes();
        let t1 = std::time::Instant::now();
        let n = self.merge_due(upto, out);
        let t2 = std::time::Instant::now();
        (
            n,
            DrainBreakdown {
                seal_nanos: (t1 - t0).as_nanos() as u64,
                merge_nanos: (t2 - t1).as_nanos() as u64,
            },
        )
    }

    /// Seal every lane's sorted run ahead of a merge.
    fn seal_lanes(&mut self) {
        for lane in self.lanes.values_mut() {
            lane.seal(&mut self.sort_keys);
        }
    }

    /// K-way merge of due events (lanes must be sealed), a run at a
    /// time: the lane whose front key is globally smallest gives up,
    /// in one move, every due event that sorts before the runner-up
    /// lane's front. With a handful of feeds the linear scan over lane
    /// fronts beats both a loser tree and a global heap; with one lane
    /// holding events, the whole due run leaves in one step.
    fn merge_due(&mut self, upto: SimTime, out: &mut Vec<FeedEvent>) -> usize {
        loop {
            let mut best: Option<(Key, u64)> = None;
            let mut runner_up: Option<Key> = None;
            for (&id, lane) in &self.lanes {
                let Some(key) = lane.front().filter(|k| k.0 <= upto) else {
                    continue;
                };
                if best.is_none_or(|(b, _)| key < b) {
                    runner_up = best.map(|(b, _)| b);
                    best = Some((key, id));
                } else if runner_up.is_none_or(|r| key < r) {
                    runner_up = Some(key);
                }
            }
            let Some((_, id)) = best else {
                break;
            };
            let lane = self.lanes.get_mut(&id).expect("winning lane exists");
            let k = lane.run_before(runner_up.unwrap_or((upto, u64::MAX)));
            lane.take_run(k, out);
            self.pending -= k;
        }
        out.len()
    }

    /// Earliest pending poll across all pull feeds.
    pub fn next_poll(&self, now: SimTime) -> Option<SimTime> {
        self.feeds
            .iter()
            .filter_map(|(_, _, f)| f.next_poll(now))
            .min()
    }

    /// Per-feed event counters (monitoring overhead of E3).
    pub fn emission_stats(&self) -> BTreeMap<(FeedKind, String), u64> {
        self.feeds
            .iter()
            .map(|(_, _, f)| ((f.kind(), f.name().to_string()), f.events_emitted()))
            .collect()
    }

    /// Every attached feed with its stable handle, in insertion order.
    pub fn handles(&self) -> impl Iterator<Item = (FeedHandle, &dyn FeedSource)> {
        self.feeds.iter().map(|(h, _, f)| (*h, f.as_ref()))
    }

    /// Drain the peers whose BGP sessions went down (BMP `peer_down`)
    /// across every attached wire feed since the last call, deduped in
    /// first-seen order. The pipeline purges each returned vantage
    /// point from its monitors' per-VP views.
    pub fn take_peer_downs(&mut self) -> Vec<artemis_bgp::Asn> {
        let mut downs: Vec<artemis_bgp::Asn> = Vec::new();
        for (_, _, feed) in &mut self.feeds {
            for asn in feed.take_peer_downs() {
                if !downs.contains(&asn) {
                    downs.push(asn);
                }
            }
        }
        downs
    }

    /// Access a feed by its stable handle (for feed-specific accessors
    /// like MRT archive bytes).
    pub fn feed_by_handle(&self, handle: FeedHandle) -> Option<&dyn FeedSource> {
        self.feeds
            .iter()
            .find(|(h, _, _)| *h == handle)
            .map(|(_, _, f)| f.as_ref())
    }

    /// Hub-observed lag of an attached feed (see [`FeedLag`]).
    /// `None` once the feed is detached. The drop counters are read
    /// from the feed itself ([`FeedSource::dropped_events`] /
    /// [`FeedSource::shed_events`]).
    pub fn feed_lag(&self, handle: FeedHandle) -> Option<FeedLag> {
        let feed = self.feed_by_handle(handle)?;
        Some(FeedLag {
            dropped_events: feed.dropped_events(),
            shed_events: feed.shed_events(),
            ..self.lanes.get(&handle.0)?.lag
        })
    }

    /// Total pull queries issued across feeds (LG overhead).
    pub fn polls_executed(&self) -> u64 {
        self.feeds.iter().map(|(_, _, f)| f.polls_executed()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamFeed;
    use crate::vantage::group_into_collectors;
    use artemis_bgp::BestRoute;
    use artemis_bgp::{AsPath, Asn};
    use std::str::FromStr;

    fn change(asn: u32, t: u64) -> RouteChange {
        RouteChange {
            time: SimTime::from_secs(t),
            asn: Asn(asn),
            prefix: artemis_bgp::Prefix::from_str("10.0.0.0/23").unwrap(),
            old: None,
            new: Some(BestRoute {
                as_path: AsPath::from_sequence([3356u32, 65001]),
                origin_as: Asn(65001),
                neighbor: Some(Asn(3356)),
                learned_from: Some(artemis_bgp::RelKind::Provider),
                local_pref: 100,
            }),
        }
    }

    #[test]
    fn hub_fans_out_to_all_feeds() {
        let mut hub = FeedHub::new(SimRng::new(1));
        let vps = vec![Asn(174)];
        hub.add(Box::new(StreamFeed::ris_live(group_into_collectors(
            "rrc", &vps, 1,
        ))));
        hub.add(Box::new(StreamFeed::bgpmon(group_into_collectors(
            "bmp", &vps, 1,
        ))));
        assert_eq!(hub.len(), 2);
        hub.ingest_route_change(&change(174, 10));
        let mut evs = Vec::new();
        assert_eq!(hub.drain_batch(SimTime::from_micros(u64::MAX), &mut evs), 2);
        let kinds: std::collections::BTreeSet<FeedKind> = evs.iter().map(|e| e.source).collect();
        assert!(kinds.contains(&FeedKind::RisLive));
        assert!(kinds.contains(&FeedKind::BgpMon));
    }

    /// A feed that knocks on the latch the moment it is handed one.
    struct Knocker;

    impl FeedSource for Knocker {
        fn kind(&self) -> FeedKind {
            FeedKind::BmpLive
        }
        fn name(&self) -> &str {
            "knocker"
        }
        fn on_route_change_into(
            &mut self,
            _: &RouteChange,
            _: &mut SimRng,
            _: &mut Vec<FeedEvent>,
        ) {
        }
        fn next_poll(&self, _now: SimTime) -> Option<SimTime> {
            None
        }
        fn poll(&mut self, _: SimTime, _: &dyn RibView, _: &mut SimRng) -> Vec<FeedEvent> {
            Vec::new()
        }
        fn events_emitted(&self) -> u64 {
            0
        }
        fn set_waker(&mut self, waker: WakeLatch) {
            waker.wake();
        }
    }

    #[test]
    fn waker_reaches_feeds_attached_before_and_after_it() {
        use std::time::Duration;
        let mut hub = FeedHub::new(SimRng::new(1));
        let latch = WakeLatch::new();
        hub.add(Box::new(Knocker));
        assert!(!latch.wait(Duration::ZERO), "no waker installed yet");
        hub.set_waker(latch.clone());
        assert!(latch.wait(Duration::ZERO), "already-attached feeds get it");
        hub.add(Box::new(Knocker));
        assert!(latch.wait(Duration::ZERO), "so does a feed added later");
    }

    #[test]
    fn empty_hub_is_silent() {
        let mut hub = FeedHub::new(SimRng::new(1));
        assert!(hub.is_empty());
        assert_eq!(hub.next_poll(SimTime::ZERO), None);
        hub.ingest_route_change(&change(1, 1));
        hub.poll_and_queue(SimTime::ZERO, &crate::source::EmptyRibView);
        assert_eq!(hub.pending_events(), 0);
        assert_eq!(hub.next_emission(), None);
        let mut evs = Vec::new();
        assert_eq!(hub.drain_batch(SimTime::from_micros(u64::MAX), &mut evs), 0);
    }

    #[test]
    fn handles_are_stable_and_unique() {
        let mut hub = FeedHub::new(SimRng::new(1));
        let vps = vec![Asn(174)];
        let h1 = hub.add(Box::new(StreamFeed::ris_live(group_into_collectors(
            "rrc", &vps, 1,
        ))));
        let h2 = hub.add(Box::new(StreamFeed::bgpmon(group_into_collectors(
            "bmp", &vps, 1,
        ))));
        assert_ne!(h1, h2);
        assert_ne!(h1, FeedHandle::REQUEUED);
        let handles = |hub: &FeedHub| hub.handles().map(|(h, _)| h).collect::<Vec<_>>();
        assert_eq!(handles(&hub), vec![h1, h2]);
        assert_eq!(hub.feed_by_handle(h1).unwrap().kind(), FeedKind::RisLive);
        assert_eq!(hub.feed_by_handle(h2).unwrap().kind(), FeedKind::BgpMon);

        // Detach the first feed: the second keeps its handle even
        // though its position shifted, and the handle is never reused.
        let (removed, dropped) = hub.remove(h1).expect("attached");
        assert_eq!(removed.kind(), FeedKind::RisLive);
        assert_eq!(dropped, 0);
        assert_eq!(hub.len(), 1);
        assert_eq!(handles(&hub), vec![h2]);
        assert!(hub.feed_by_handle(h1).is_none());
        let h3 = hub.add(Box::new(StreamFeed::ris_live(group_into_collectors(
            "rrc", &vps, 1,
        ))));
        assert!(h3 != h1 && h3 != h2, "handles are never recycled");
        assert!(hub.remove(h1).is_none(), "double-detach is a no-op");
    }

    #[test]
    fn feed_lag_tracks_queue_depth_and_last_emission() {
        let mut hub = FeedHub::new(SimRng::new(1));
        let vps = vec![Asn(174)];
        let h = hub.add(Box::new(
            StreamFeed::ris_live(group_into_collectors("rrc", &vps, 1))
                .with_export_delay(artemis_simnet::LatencyModel::const_secs(5)),
        ));
        assert_eq!(hub.feed_lag(h), Some(FeedLag::default()));

        hub.ingest_route_changes(&[change(174, 10), change(174, 20)]);
        let lag = hub.feed_lag(h).unwrap();
        assert_eq!(lag.queued_events, 2);
        assert_eq!(lag.last_event_at, Some(SimTime::from_secs(25)));

        // Partial drain decrements the queue depth but keeps the
        // high-water emission instant.
        let mut buf = Vec::new();
        hub.drain_batch(SimTime::from_secs(15), &mut buf);
        let lag = hub.feed_lag(h).unwrap();
        assert_eq!(lag.queued_events, 1);
        assert_eq!(lag.last_event_at, Some(SimTime::from_secs(25)));

        // Requeued events are attributed to REQUEUED, not the feed.
        hub.requeue(buf.drain(..));
        assert_eq!(hub.feed_lag(h).unwrap().queued_events, 1);

        // Detach removes the bookkeeping entirely.
        hub.remove(h).expect("attached");
        assert_eq!(hub.feed_lag(h), None);
    }

    #[test]
    fn remove_drops_only_the_detached_feeds_queued_events() {
        let mut hub = FeedHub::new(SimRng::new(1));
        let vps = vec![Asn(174)];
        let _ris = hub.add(Box::new(
            StreamFeed::ris_live(group_into_collectors("rrc", &vps, 1))
                .with_export_delay(artemis_simnet::LatencyModel::const_secs(60)),
        ));
        let bmon = hub.add(Box::new(
            StreamFeed::bgpmon(group_into_collectors("bmp", &vps, 1))
                .with_export_delay(artemis_simnet::LatencyModel::const_secs(5)),
        ));
        hub.ingest_route_changes(&[change(174, 10), change(174, 20)]);
        assert_eq!(hub.pending_events(), 4);

        let (_, dropped) = hub.remove(bmon).expect("attached");
        assert_eq!(dropped, 2, "both queued bgpmon events dropped");
        assert_eq!(hub.pending_events(), 2);
        assert_eq!(
            hub.next_emission(),
            Some(SimTime::from_secs(70)),
            "next emission reflects the surviving feed"
        );
        let mut buf = Vec::new();
        hub.drain_batch(SimTime::from_secs(1_000), &mut buf);
        assert_eq!(buf.len(), 2);
        assert!(buf.iter().all(|e| e.source == FeedKind::RisLive));
    }

    #[test]
    fn requeued_events_survive_detach() {
        let mut hub = FeedHub::new(SimRng::new(4));
        let vps = vec![Asn(174)];
        let h = hub.add(Box::new(
            StreamFeed::ris_live(group_into_collectors("rrc", &vps, 1))
                .with_export_delay(artemis_simnet::LatencyModel::const_secs(5)),
        ));
        hub.ingest_route_changes(&[change(174, 10)]);
        let mut buf = Vec::new();
        hub.drain_batch(SimTime::from_secs(1_000), &mut buf);
        assert_eq!(buf.len(), 1);
        // The driver could not process the event; it goes back — and a
        // subsequent detach must NOT drop it (it was already due).
        hub.requeue(buf.drain(..));
        let (_, dropped) = hub.remove(h).expect("attached");
        assert_eq!(dropped, 0);
        assert_eq!(hub.pending_events(), 1);
    }

    #[test]
    fn drain_batch_is_sorted_and_respects_upto() {
        let mut hub = FeedHub::new(SimRng::new(1));
        let vps = vec![Asn(174)];
        // Skewed constant delays: the later observation (t=20, 5 s
        // delay) is emitted *before* the earlier one (t=10, 60 s).
        hub.add(Box::new(
            StreamFeed::ris_live(group_into_collectors("rrc", &vps, 1))
                .with_export_delay(artemis_simnet::LatencyModel::const_secs(60)),
        ));
        hub.add(Box::new(
            StreamFeed::bgpmon(group_into_collectors("bmp", &vps, 1))
                .with_export_delay(artemis_simnet::LatencyModel::const_secs(5)),
        ));
        hub.ingest_route_changes(&[change(174, 10), change(174, 20)]);
        assert_eq!(hub.pending_events(), 4);
        assert_eq!(hub.next_emission(), Some(SimTime::from_secs(15)));

        let mut buf = Vec::new();
        // Partial drain: only events emitted by t=30 (the two bgpmon).
        let n = hub.drain_batch(SimTime::from_secs(30), &mut buf);
        assert_eq!(n, 2);
        assert!(buf.iter().all(|e| e.source == FeedKind::BgpMon));
        assert_eq!(hub.pending_events(), 2);

        // The rest drains in emission order despite reversed ingestion.
        hub.drain_batch(SimTime::from_secs(1_000), &mut buf);
        let times: Vec<SimTime> = buf.iter().map(|e| e.emitted_at).collect();
        assert_eq!(times, vec![SimTime::from_secs(70), SimTime::from_secs(80)]);
        assert_eq!(hub.pending_events(), 0);
    }

    #[test]
    fn requeue_restores_undelivered_events() {
        let mut hub = FeedHub::new(SimRng::new(4));
        let vps = vec![Asn(174)];
        hub.add(Box::new(
            StreamFeed::ris_live(group_into_collectors("rrc", &vps, 1))
                .with_export_delay(artemis_simnet::LatencyModel::const_secs(5)),
        ));
        hub.ingest_route_changes(&[change(174, 10), change(174, 10), change(174, 20)]);
        let mut buf = Vec::new();
        hub.drain_batch(SimTime::from_secs(1_000), &mut buf);
        assert_eq!(buf.len(), 3);
        assert_eq!(hub.pending_events(), 0);

        // A driver consumed only the first event; the rest goes back.
        let undelivered: Vec<FeedEvent> = buf.drain(1..).collect();
        hub.requeue(undelivered.clone());
        assert_eq!(hub.pending_events(), 2);
        assert_eq!(hub.next_emission(), Some(SimTime::from_secs(15)));
        hub.drain_batch(SimTime::from_secs(1_000), &mut buf);
        assert_eq!(
            buf, undelivered,
            "resumed drain sees the same events in order"
        );
    }

    #[test]
    fn batch_and_per_event_paths_emit_the_same_events() {
        let vps = vec![Asn(174), Asn(3356)];
        let changes: Vec<RouteChange> = (0..20u64)
            .map(|i| change(if i % 2 == 0 { 174 } else { 3356 }, i))
            .collect();
        let feed = || {
            StreamFeed::ris_live(group_into_collectors("rrc", &vps, 2))
                .with_export_delay(artemis_simnet::LatencyModel::const_secs(3))
        };

        // The feed's own per-event surface, on the stream the hub forks
        // for its first handle.
        let mut per_event = Vec::new();
        let mut solo = feed();
        let mut rng = SimRng::new(9).fork_indexed("feed", 1);
        for c in &changes {
            solo.on_route_change_into(c, &mut rng, &mut per_event);
        }

        let mut batch = Vec::new();
        let mut hub = FeedHub::new(SimRng::new(9));
        hub.add(Box::new(feed()));
        hub.ingest_route_changes(&changes);
        hub.drain_batch(SimTime::from_secs(10_000), &mut batch);

        let mut per_event_sorted = per_event.clone();
        per_event_sorted.sort_by_key(|e| e.emitted_at);
        assert_eq!(batch, per_event_sorted);
    }

    #[test]
    fn emission_stats_track_feeds() {
        let mut hub = FeedHub::new(SimRng::new(1));
        let vps = vec![Asn(174)];
        hub.add(Box::new(StreamFeed::ris_live(group_into_collectors(
            "rrc", &vps, 1,
        ))));
        hub.ingest_route_changes(&[change(174, 10), change(174, 20)]);
        let stats = hub.emission_stats();
        assert_eq!(stats[&(FeedKind::RisLive, "ris-live".to_string())], 2);
    }
}

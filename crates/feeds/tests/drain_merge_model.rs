//! Model-based property test for the sorted-run drain merge:
//! `FeedHub::drain_batch` (per-feed lanes + k-way merge) must be
//! byte-identical to the old single global ordered queue — pops in
//! `(emitted_at, ingestion sequence)` order, detach drops exactly the
//! detached feed's pending events, requeued events survive detach —
//! across arbitrary feed counts and arbitrary interleavings of
//! push / partial-drain / requeue / detach operations.

use artemis_bgp::{AsPath, Asn, Prefix};
use artemis_feeds::{FeedEvent, FeedHandle, FeedHub, FeedKind, FeedSource, RibView};
use artemis_simnet::{SimRng, SimTime};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::str::FromStr;
use std::sync::{Arc, Mutex};

/// Script handle shared between the test body and a [`ScriptedFeed`]
/// living inside the hub: the test appends batches, the feed pops them.
type Script = Arc<Mutex<VecDeque<Vec<FeedEvent>>>>;

/// A feed that emits pre-scripted event batches: the next batch on
/// every fanned-out route change, nothing on polls. This pins emission
/// times exactly (no export-delay sampling), so the model can predict
/// the queue contents to the byte.
struct ScriptedFeed {
    name: String,
    batches: Script,
    emitted: u64,
}

impl FeedSource for ScriptedFeed {
    fn kind(&self) -> FeedKind {
        FeedKind::RisLive
    }
    fn name(&self) -> &str {
        &self.name
    }
    fn on_route_change_into(
        &mut self,
        _change: &artemis_bgpsim::RouteChange,
        _rng: &mut SimRng,
        out: &mut Vec<FeedEvent>,
    ) {
        if let Some(batch) = self.batches.lock().unwrap().pop_front() {
            self.emitted += batch.len() as u64;
            out.extend(batch);
        }
    }
    fn next_poll(&self, _now: SimTime) -> Option<SimTime> {
        None
    }
    fn poll(&mut self, _at: SimTime, _view: &dyn RibView, _rng: &mut SimRng) -> Vec<FeedEvent> {
        Vec::new()
    }
    fn events_emitted(&self) -> u64 {
        self.emitted
    }
}

fn scripted_event(feed: usize, step: usize, k: usize, t_micros: u64) -> FeedEvent {
    let as_path = AsPath::from_sequence([3356u32, 65001]);
    FeedEvent {
        emitted_at: SimTime::from_micros(t_micros),
        observed_at: SimTime::from_micros(t_micros.saturating_sub(3)),
        source: FeedKind::RisLive,
        collector: format!("f{feed}-s{step}-e{k}").into(),
        vantage: Asn(174),
        prefix: Prefix::from_str("10.0.0.0/23").unwrap(),
        as_path: Some(as_path),
        origin_as: Some(Asn(65001)),
        raw: None,
    }
}

fn dummy_change() -> artemis_bgpsim::RouteChange {
    artemis_bgpsim::RouteChange {
        time: SimTime::ZERO,
        asn: Asn(174),
        prefix: Prefix::from_str("10.0.0.0/23").unwrap(),
        old: None,
        new: None,
    }
}

/// The reference: one global ordered queue, exactly the semantics of
/// the pre-lane `BinaryHeap<(emitted_at, seq)>` implementation. Drains
/// pop strictly in `(time, seq)` order; detach drops the feed's
/// pending entries; requeue re-enters with fresh sequence numbers
/// under the reserved attribution.
struct HeapModel {
    entries: Vec<(SimTime, u64, FeedHandle, FeedEvent)>,
    seq: u64,
}

impl HeapModel {
    fn new() -> Self {
        HeapModel {
            entries: Vec::new(),
            seq: 0,
        }
    }
    fn push(&mut self, owner: FeedHandle, ev: FeedEvent) {
        self.entries.push((ev.emitted_at, self.seq, owner, ev));
        self.seq += 1;
    }
    fn drain(&mut self, upto: SimTime) -> Vec<FeedEvent> {
        let mut due: Vec<(SimTime, u64, FeedEvent)> = Vec::new();
        self.entries.retain_mut(|(t, s, _, ev)| {
            if *t <= upto {
                due.push((*t, *s, std::mem::replace(ev, scripted_event(0, 0, 0, 0))));
                false
            } else {
                true
            }
        });
        due.sort_by_key(|(t, s, _)| (*t, *s));
        due.into_iter().map(|(_, _, ev)| ev).collect()
    }
    fn detach(&mut self, owner: FeedHandle) -> usize {
        let before = self.entries.len();
        self.entries.retain(|(_, _, o, _)| *o != owner);
        before - self.entries.len()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary interleavings of pushes (possibly time-disordered
    /// across feeds), partial drains, tail requeues and feed detaches:
    /// the lane merge and the global-queue model agree byte-for-byte
    /// on every drained batch, every detach drop count, and the final
    /// flush.
    #[test]
    fn lane_merge_is_byte_identical_to_global_queue_model(
        n_feeds in 1usize..5,
        ops in prop::collection::vec(
            (0u8..8, prop::collection::vec(0u64..2_000, 0..4), any::<u64>(), any::<usize>()),
            1..40),
    ) {
        let mut hub = FeedHub::new(SimRng::new(1));
        let mut model = HeapModel::new();
        // Scripted batches are installed lazily: feeds carry a shared
        // script queue the test appends to right before each push op.
        let mut handles: Vec<(FeedHandle, Script)> = (0..n_feeds)
            .map(|i| {
                let script: Script = Arc::new(Mutex::new(VecDeque::new()));
                let h = hub.add(Box::new(ScriptedFeed {
                    name: format!("scripted-{i}"),
                    batches: Arc::clone(&script),
                    emitted: 0,
                }));
                (h, script)
            })
            .collect();
        let mut last_drain: Vec<FeedEvent> = Vec::new();
        let mut buf = Vec::new();

        for (step, (tag, times, upto_raw, pick)) in ops.iter().enumerate() {
            match tag {
                // Push: every alive feed emits one scripted batch for
                // this change, times derived from the generated list
                // with a per-feed skew so inter-feed disorder is the
                // norm. The hub fans the change feed-by-feed in
                // insertion order; the model mirrors that exact order.
                0..=3 => {
                    if handles.is_empty() {
                        continue;
                    }
                    let mut scripted: Vec<(FeedHandle, Vec<FeedEvent>)> = Vec::new();
                    for (fi, (h, script)) in handles.iter().enumerate() {
                        let batch: Vec<FeedEvent> = times
                            .iter()
                            .enumerate()
                            .map(|(k, t)| scripted_event(
                                fi, step, k, t * 7 + (fi as u64) * 131))
                            .collect();
                        script.lock().unwrap().push_back(batch.clone());
                        scripted.push((*h, batch));
                    }
                    hub.ingest_route_change(&dummy_change());
                    for (h, batch) in scripted {
                        for ev in batch {
                            model.push(h, ev);
                        }
                    }
                }
                // Partial drain at a bounded cut.
                4 | 5 => {
                    let upto = SimTime::from_micros(upto_raw % 16_000);
                    hub.drain_batch(upto, &mut buf);
                    let expect = model.drain(upto);
                    prop_assert_eq!(&buf, &expect, "drain at step {}", step);
                    last_drain = buf.clone();
                }
                // Requeue a tail of the last drained batch.
                6 => {
                    if last_drain.is_empty() {
                        continue;
                    }
                    let k = pick % last_drain.len() + 1;
                    let tail: Vec<FeedEvent> =
                        last_drain.split_off(last_drain.len() - k);
                    hub.requeue(tail.iter().cloned());
                    for ev in tail {
                        model.push(FeedHandle::REQUEUED, ev);
                    }
                }
                // Detach a feed: drop counts must agree.
                _ => {
                    if handles.is_empty() {
                        continue;
                    }
                    let idx = pick % handles.len();
                    let (h, _) = handles.remove(idx);
                    let (_, dropped) = hub.remove(h).expect("attached");
                    prop_assert_eq!(
                        dropped, model.detach(h),
                        "detach drop count at step {}", step
                    );
                }
            }
            prop_assert_eq!(hub.pending_events(), model.entries.len());
        }

        // Final flush: everything left agrees, down to the last byte.
        hub.drain_batch(SimTime::from_micros(u64::MAX), &mut buf);
        let expect = model.drain(SimTime::from_micros(u64::MAX));
        prop_assert_eq!(buf, expect, "final flush");
        prop_assert_eq!(hub.pending_events(), 0);
    }
}

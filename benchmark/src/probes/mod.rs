//! Layer probes: each file times the public functions of one module
//! from outside, on the workload's own generated inputs, on one
//! thread. README.md lists which functions each probe calls, so a
//! change that removes one knows which probe it strands.

mod artemisd;
mod bgp;
mod bmp;
mod detector;
mod event_log;
mod feeds;
mod mitigation;
mod monitor;
mod pipeline;
mod service;
mod wire;

use crate::fleet::Fleet;
use crate::harness::RoundInputs;
use crate::spec::{Harness, Workload};
use crate::stream::{Encoded, Generator, Hijack};
use artemis_bgp::Asn;
use artemis_bgpsim::RouteChange;
use artemis_core::ArtemisService;
use artemis_feeds::{FeedEvent, FeedKind, FeedSource, RibView};
use artemis_simnet::{SimRng, SimTime};
use std::collections::VecDeque;
use std::time::Instant;

/// Hijacks spread through the probe stream, so the commit half of
/// every probe sees alerts whatever the workload's background is.
const PROBE_HIJACKS: usize = 64;

/// What every probe replays.
pub struct ProbeInputs<'a> {
    pub fleet: &'a Fleet,
    /// The workload's stream as bytes: session open, long-lived
    /// incidents (if any), one background cycle with hijacks spread
    /// through it, and their healing.
    pub bytes: Vec<u8>,
    /// Route events the bytes declare.
    pub declared_events: u64,
    /// The same stream as the live reader decoded it.
    pub events: Vec<FeedEvent>,
    /// Every hijack in the stream (long-lived ones first).
    pub hijacks: Vec<Hijack>,
    /// Events per batch in the batch-wise probes.
    pub batch: usize,
}

impl ProbeInputs<'_> {
    /// The decoded stream cut into batches, cloned outside any timer.
    pub fn batches(&self) -> VecDeque<Vec<FeedEvent>> {
        self.events
            .chunks(self.batch)
            .map(<[FeedEvent]>::to_vec)
            .collect()
    }

    /// A service fed the decoded stream, and the same service after it
    /// has delivered all of it (incidents raised, mitigated, resolved —
    /// the state a timed window leaves behind).
    pub fn replay_service(&self) -> ArtemisService {
        self.fleet
            .service(Box::new(ReplayFeed::new(self.batches())))
    }

    pub fn pumped_service(&self) -> ArtemisService {
        let mut service = self.replay_service();
        pump_all(&mut service, self.events.len() as u64);
        service
    }

    /// The hijackers' announcements as the reader decoded them, one
    /// per hijack (its first witness).
    pub fn hijack_events(&self) -> Vec<FeedEvent> {
        self.hijacks
            .iter()
            .filter_map(|h| {
                self.events
                    .iter()
                    .find(|e| e.prefix == h.observed && e.origin_as == Some(Asn(h.rogue)))
            })
            .cloned()
            .collect()
    }
}

fn probe_stream(gen: &mut Generator<'_>, workload: Workload) -> (Encoded, Vec<Hijack>) {
    let mix = match workload.harness() {
        Harness::Closed(spec) => spec.mix,
        Harness::Paced(spec) => spec.mix,
    };
    let inputs = RoundInputs::prepare(gen, mix);
    let mut stream = Encoded::default();
    stream.append_all(&inputs.open);
    stream.append_all(&inputs.lane_raise);
    let mut hijacks = inputs.lanes.clone();

    let msgs = inputs.cycle.msgs.len();
    let slice = msgs.div_ceil(PROBE_HIJACKS);
    let mut fresh = Vec::new();
    for start in (0..msgs).step_by(slice) {
        stream.append(&inputs.cycle, start..(start + slice).min(msgs));
        if let Some(h) = gen.next_hijack() {
            stream.append_all(&gen.encode_hijack(&h));
            fresh.push(h);
        }
    }
    for h in &fresh {
        stream.append_all(&gen.encode_heal(h));
    }
    for lane in &inputs.lanes {
        stream.append_all(&gen.encode_lane_heal(lane));
    }
    hijacks.extend(fresh);
    (stream, hijacks)
}

/// A feed that hands out pre-decoded batches: lets the hub, pipeline
/// and service probes run the pump side alone, on one thread.
pub struct ReplayFeed {
    batches: VecDeque<Vec<FeedEvent>>,
    emitted: u64,
}

impl ReplayFeed {
    pub fn new(batches: VecDeque<Vec<FeedEvent>>) -> Self {
        ReplayFeed {
            batches,
            emitted: 0,
        }
    }
}

impl FeedSource for ReplayFeed {
    fn kind(&self) -> FeedKind {
        FeedKind::BmpLive
    }

    fn name(&self) -> &str {
        "replay"
    }

    fn on_route_change_into(&mut self, _: &RouteChange, _: &mut SimRng, _: &mut Vec<FeedEvent>) {}

    fn next_poll(&self, now: SimTime) -> Option<SimTime> {
        (!self.batches.is_empty()).then_some(now)
    }

    fn poll(&mut self, at: SimTime, _: &dyn RibView, _: &mut SimRng) -> Vec<FeedEvent> {
        let mut batch = self.batches.pop_front().unwrap_or_default();
        for ev in &mut batch {
            ev.emitted_at = at;
        }
        self.emitted += batch.len() as u64;
        batch
    }

    fn events_emitted(&self) -> u64 {
        self.emitted
    }
}

/// Pump until `events` events are delivered; returns the service
/// clock after the last tick.
pub fn pump_all(service: &mut ArtemisService, events: u64) -> SimTime {
    let (mut delivered, mut tick) = (0u64, 0u64);
    while delivered < events {
        tick += 1;
        delivered += service.pump_feeds(SimTime::from_micros(tick));
    }
    SimTime::from_micros(tick + 1)
}

/// Nanoseconds per item of `f`, which handles `items` items.
pub fn ns_per<T>(items: u64, f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = std::hint::black_box(f());
    (
        start.elapsed().as_nanos() as f64 / items.max(1) as f64,
        value,
    )
}

pub struct ProbeReport {
    pub metrics: Vec<(&'static str, f64)>,
}

/// Probes whose per-event times add up to the pump side of the chain.
/// `feeds.hub_poll_ns_per_event` is left out when the pump-side total
/// comes from the pipeline's stage clocks (the daemon workloads), which
/// start after the poll.
const PUMP_SIDE: &[&str] = &[
    "feeds.hub_poll_ns_per_event",
    "feeds.hub_drain_seal_ns_per_event",
    "feeds.hub_drain_merge_ns_per_event",
    "core.detector.prepare_ns_per_event",
    "core.detector.commit_ns_per_event",
    "core.monitor.route_ns_per_event",
    "core.monitor.ingest_ns_per_event",
];

impl ProbeReport {
    fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("probe metric {name} missing"))
    }

    pub fn pump_side_sum(&self, stage_clocks_only: bool) -> f64 {
        PUMP_SIDE
            .iter()
            .filter(|n| !(stage_clocks_only && **n == "feeds.hub_poll_ns_per_event"))
            .map(|n| self.get(n))
            .sum()
    }
}

/// Run every layer probe on `workload`'s inputs.
pub fn run_all(fleet: &Fleet, seed: u64, workload: Workload) -> ProbeReport {
    // A generator of the probes' own: what they replay depends on the
    // seed alone, not on how many hijacks the rounds before them got
    // through, so their counts repeat exactly.
    let mut gen = Generator::new(fleet, seed ^ 0x5052_4F42_4553);
    let (stream, hijacks) = probe_stream(&mut gen, workload);
    let (declared_events, bytes) = (stream.events(), stream.bytes);
    // Events per batch: what one pump drains at this workload's pace —
    // a 10 ms tick's worth through the daemon, a few thousand under
    // saturation (`core.pipeline.batch_events_mean` reports the real
    // figure of the traced pass).
    let batch = match workload.harness() {
        Harness::Closed(_) => 4_096,
        Harness::Paced(spec) => spec.rate as usize / 100,
    };
    let mut report = ProbeReport {
        metrics: Vec::new(),
    };
    // The live reader runs first: what it decodes is what every
    // pump-side probe replays.
    let events = feeds::live_reader(&bytes, declared_events, &mut report.metrics);
    let inputs = ProbeInputs {
        fleet,
        bytes,
        declared_events,
        events,
        hijacks,
        batch,
    };
    bmp::run(&inputs, &mut report.metrics);
    bgp::run(&inputs, &mut report.metrics);
    feeds::hub(&inputs, &mut report.metrics);
    detector::run(&inputs, &mut report.metrics);
    monitor::run(&inputs, &mut report.metrics);
    mitigation::run(&inputs, &mut report.metrics);
    event_log::run(&inputs, &mut report.metrics);
    wire::run(&inputs, &mut report.metrics);
    pipeline::run(&inputs, &mut report.metrics);
    let in_process_pair_us = service::run(&inputs, &mut report.metrics);
    artemisd::run(&inputs, in_process_pair_us, &mut report.metrics);
    report
}

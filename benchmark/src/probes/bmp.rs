//! `artemis_bmp`: framing, message decode, and the ring hop.
//!
//! Calls `FrameAssembler::{new, push, next_message}`,
//! `BmpScanner::{new, next_raw}`, `RawBmpMessage::decode`,
//! `BackpressureRing::{new, push_batch, drain_into}`.

use super::{ns_per, ProbeInputs};
use crate::alloc;
use crate::harness::RING_CAPACITY;
use artemis_bmp::{BackpressureRing, BmpScanner, FrameAssembler};
use artemis_feeds::FeedEvent;

/// The live feed's socket read size.
const READ_CHUNK: usize = 64 * 1024;

pub fn run(inputs: &ProbeInputs<'_>, out: &mut Vec<(&'static str, f64)>) {
    // Framing alone: chunked pushes, complete messages out, no decode.
    let mut messages = 0u64;
    let (frame_ns_total, ()) = ns_per(1, || {
        let mut asm = FrameAssembler::new();
        for chunk in inputs.bytes.chunks(READ_CHUNK) {
            asm.push(chunk);
            while let Some(raw) = asm.next_message().expect("generated framing is sound") {
                std::hint::black_box(raw.body.len());
                messages += 1;
            }
        }
    });
    out.push(("bmp.frame_ns_per_msg", frame_ns_total / messages as f64));

    // Decode alone: bodies already framed, full message decode
    // (per-peer header + BGP UPDATE).
    let mut scanner = BmpScanner::new(&inputs.bytes);
    let mut raws = Vec::new();
    while let Some(raw) = scanner.next_raw().expect("generated framing is sound") {
        raws.push(raw);
    }
    let before = alloc::snapshot();
    let (decode_ns, ()) = ns_per(inputs.declared_events, || {
        for raw in &raws {
            std::hint::black_box(raw.decode().expect("generated message decodes"));
        }
    });
    let allocs = alloc::snapshot().since(before);
    out.push(("bmp.decode_ns_per_event", decode_ns));
    out.push((
        "bmp.decode_allocs_per_event",
        allocs.allocs as f64 / inputs.declared_events as f64,
    ));
    out.push((
        "bmp.bytes_per_event",
        inputs.bytes.len() as f64 / inputs.declared_events as f64,
    ));

    // The ring hop: batches in on one side, everything out on the
    // other, as the reader and the feed's `poll` do it.
    let ring: BackpressureRing<FeedEvent> = BackpressureRing::new(RING_CAPACITY);
    let mut batches = inputs.batches();
    let mut drained = Vec::new();
    let events = inputs.events.len() as u64;
    let (hop_ns, ()) = ns_per(events, || {
        while let Some(mut batch) = batches.pop_front() {
            ring.push_batch(batch.drain(..));
            drained.clear();
            ring.drain_into(&mut drained, usize::MAX);
        }
    });
    assert_eq!(ring.shed_total(), 0, "probe batches fit the ring");
    out.push(("bmp.ring_hop_ns_per_event", hop_ns));
}

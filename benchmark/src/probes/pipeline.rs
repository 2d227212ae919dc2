//! The whole pump side on one thread: a service fed pre-decoded
//! batches, so no reader thread shares the caches.
//!
//! Calls `Pipeline::{bare, attach_feed}`, `ArtemisService::{new,
//! pump_feeds}` (through `Fleet::service`).

use super::{ns_per, pump_all, ProbeInputs};
use crate::alloc;

pub fn run(inputs: &ProbeInputs<'_>, out: &mut Vec<(&'static str, f64)>) {
    let mut service = inputs.replay_service();
    let events = inputs.events.len() as u64;
    let before = alloc::snapshot();
    let (ns, _) = ns_per(events, || pump_all(&mut service, events));
    let allocs = alloc::snapshot().since(before);
    out.push(("core.pipeline.deliver_ns_per_event", ns));
    out.push((
        "core.pipeline.allocs_per_event",
        allocs.allocs as f64 / events as f64,
    ));
    out.push((
        "core.pipeline.alloc_bytes_per_event",
        allocs.bytes as f64 / events as f64,
    ));
}

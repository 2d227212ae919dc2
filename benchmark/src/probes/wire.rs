//! `artemis_core::wire`: serialising the envelope a long-poll returns.
//!
//! Calls `EventsEnvelope::from(PollBatch)` and `serde_json::to_string`.

use super::{ns_per, ProbeInputs};
use artemis_core::wire::EventsEnvelope;
use artemis_core::{EventCursor, EventLog};

const CALLS: u64 = 20_000;

pub fn run(inputs: &ProbeInputs<'_>, out: &mut Vec<(&'static str, f64)>) {
    let mut log = EventLog::new();
    for record in super::event_log::incident_records(inputs) {
        log.push(record);
    }
    let envelope = EventsEnvelope::from(log.poll(EventCursor::START));
    let (ns, ()) = ns_per(CALLS, || {
        for _ in 0..CALLS {
            std::hint::black_box(serde_json::to_string(&envelope).expect("envelope serialises"));
        }
    });
    out.push(("core.wire.events_envelope_ser_us", ns / 1e3));
}

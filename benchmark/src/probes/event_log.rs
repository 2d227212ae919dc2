//! `artemis_core::event_log`: append, and the poll a long-poll wake
//! performs.
//!
//! Calls `EventLog::{new, push, poll, live_cursor}`.

use super::{ns_per, ProbeInputs};
use artemis_core::{AlertId, EventLog, IncidentEvent};
use artemis_simnet::SimTime;

const PUSHES: u64 = 200_000;
const POLLS: u64 = 20_000;

/// The three records one detected, mitigated and healed hijack leaves.
pub fn incident_records(inputs: &ProbeInputs<'_>) -> Vec<IncidentEvent> {
    let h = inputs.hijacks.last().expect("the probe stream has hijacks");
    let plan = artemis_core::MitigationPlan {
        target: h.observed,
        announce: h
            .observed
            .split()
            .map_or(vec![h.observed], |(a, b)| vec![a, b]),
        helper_announce: Vec::new(),
        infeasible: false,
        rationale: format!("de-aggregate {} into 2 more-specific(s)", h.observed),
    };
    vec![
        IncidentEvent::AlertRaised {
            alert: AlertId(7),
            owned_prefix: h.owned,
            observed_prefix: h.observed,
            hijack_type: h.expected_type(),
            at: SimTime::from_secs(1),
        },
        IncidentEvent::MitigationTriggered {
            alert: AlertId(7),
            plan,
            at: SimTime::from_secs(1),
        },
        IncidentEvent::Resolved {
            alert: AlertId(7),
            at: SimTime::from_secs(2),
        },
    ]
}

pub fn run(inputs: &ProbeInputs<'_>, out: &mut Vec<(&'static str, f64)>) {
    let records = incident_records(inputs);
    let mut log = EventLog::new();
    let mut pending: Vec<IncidentEvent> = records
        .iter()
        .cycle()
        .take(PUSHES as usize)
        .cloned()
        .collect();
    let (push_ns, ()) = ns_per(PUSHES, || {
        for record in pending.drain(..) {
            log.push(record);
        }
    });
    out.push(("core.event_log.push_ns", push_ns));

    // A consumer three records behind the tail: what one hijack adds.
    // (A cursor can only be built from its wire form, a sequence number.)
    let tail = log.live_cursor().sequence();
    let behind: artemis_core::EventCursor =
        serde_json::from_str(&(tail - 3).to_string()).expect("a cursor is a sequence number");
    let (poll_ns, ()) = ns_per(POLLS, || {
        for _ in 0..POLLS {
            std::hint::black_box(log.poll(behind));
        }
    });
    out.push(("core.event_log.poll_us", poll_ns / 1e3));
}

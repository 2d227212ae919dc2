//! `artemis_core::monitor`: routing events to monitors, and ingesting
//! them.
//!
//! Calls `MonitorIndex::{new, insert, route}`, `MonitorService::{new,
//! is_relevant, ingest}`.
//!
//! One monitor per hijack in the stream, all live at once — the
//! population the long-lived incidents of `incident_storm` keep, and
//! an upper bound for the other workloads. Both times are divided by
//! all events of the stream, routed or not, so they add to the other
//! pump-side probes.

use super::{ns_per, ProbeInputs};
use crate::fleet::OPERATOR_AS;
use artemis_bgp::Asn;
use artemis_core::{AlertId, MonitorIndex, MonitorService};
use std::collections::BTreeMap;

pub fn run(inputs: &ProbeInputs<'_>, out: &mut Vec<(&'static str, f64)>) {
    let mut index = MonitorIndex::new();
    let mut monitors: BTreeMap<AlertId, MonitorService> = BTreeMap::new();
    for (i, h) in inputs.hijacks.iter().enumerate() {
        let id = AlertId(i as u64);
        index.insert(h.owned, id);
        monitors.insert(
            id,
            MonitorService::new(
                h.owned,
                [Asn(OPERATOR_AS)].into_iter().collect(),
                inputs.fleet.vantage_points.iter().copied().collect(),
            ),
        );
    }

    let events = inputs.events.len() as u64;
    let mut routed: Vec<(usize, AlertId)> = Vec::new();
    let mut buf = Vec::new();
    let (route_ns, ()) = ns_per(events, || {
        for (i, e) in inputs.events.iter().enumerate() {
            index.route(e.prefix, &mut buf);
            routed.extend(buf.iter().map(|id| (i, *id)));
        }
    });
    out.push(("core.monitor.route_ns_per_event", route_ns));

    let (ingest_ns, ()) = ns_per(events, || {
        for (i, id) in &routed {
            let monitor = monitors.get_mut(id).expect("routed to a live monitor");
            let event = &inputs.events[*i];
            if monitor.is_relevant(event.prefix) {
                monitor.ingest(event);
            }
        }
    });
    out.push(("core.monitor.ingest_ns_per_event", ingest_ns));
}

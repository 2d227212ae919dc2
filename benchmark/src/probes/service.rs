//! `artemis_core::service`: operator commands and the status snapshot,
//! in process.
//!
//! Calls `ArtemisService::{new, apply, pump_feeds, status}`,
//! `serde_json::to_string(&ServiceStatus)`.

use super::ProbeInputs;
use crate::fleet::OPERATOR_AS;
use crate::stats;
use artemis_bgp::Asn;
use artemis_core::{OwnedPrefix, ServiceCommand};
use artemis_simnet::SimTime;
use std::time::Instant;

const CYCLES: usize = 200;
const STATUS_CALLS: usize = 3;

/// Returns the in-process offboard + onboard pair in microseconds, the
/// base `artemisd.command_http_overhead_us` subtracts.
pub fn run(inputs: &ProbeInputs<'_>, out: &mut Vec<(&'static str, f64)>) -> f64 {
    let mut service = inputs.pumped_service();
    let now = SimTime::from_secs(3_600);

    let pool = &inputs.fleet.legit_pool;
    let stride = pool.len() / CYCLES;
    let (mut off_us, mut on_us) = (Vec::new(), Vec::new());
    for i in 0..CYCLES {
        let prefix = inputs.fleet.owned[pool[i * stride] as usize].prefix;
        let t = Instant::now();
        service
            .apply(ServiceCommand::RemoveOwnedPrefix { prefix }, now)
            .expect("offboard a configured prefix");
        off_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        service
            .apply(
                ServiceCommand::AddOwnedPrefix {
                    owned: OwnedPrefix::new(prefix, Asn(OPERATOR_AS)),
                    policy: None,
                },
                now,
            )
            .expect("onboard it again");
        on_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let (off, on) = (stats::median(&off_us), stats::median(&on_us));
    out.push(("core.service.onboard_us", on));
    out.push(("core.service.offboard_us", off));

    let mut status_ms = Vec::new();
    let mut json_len = 0usize;
    for _ in 0..STATUS_CALLS {
        let t = Instant::now();
        let status = service.status(now);
        status_ms.push(t.elapsed().as_secs_f64() * 1e3);
        json_len = serde_json::to_string(&status)
            .expect("status serialises")
            .len();
    }
    out.push(("core.service.status_ms", stats::median(&status_ms)));
    out.push((
        "core.service.status_json_mb",
        json_len as f64 / (1024.0 * 1024.0),
    ));
    off + on
}

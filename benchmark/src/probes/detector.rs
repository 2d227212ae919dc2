//! `artemis_core::detector`: classify-prepare, commit, and shard
//! mutation.
//!
//! Calls `Detector::{new, prepare, begin_batch, process_prepared,
//! add_shard, remove_shard}`.

use super::{ns_per, ProbeInputs};
use crate::alloc;
use crate::fleet::OPERATOR_AS;
use artemis_bgp::Asn;
use artemis_core::{Detector, OwnedPrefix};

const MUTATIONS: usize = 500;

pub fn run(inputs: &ProbeInputs<'_>, out: &mut Vec<(&'static str, f64)>) {
    let mut detector = Detector::new(inputs.fleet.config());
    let events = inputs.events.len() as u64;

    let before = alloc::snapshot();
    let (prepare_ns, prepared) = ns_per(events, || {
        inputs
            .events
            .iter()
            .map(|e| detector.prepare(e))
            .collect::<Vec<_>>()
    });
    let allocs = alloc::snapshot().since(before);
    out.push(("core.detector.prepare_ns_per_event", prepare_ns));
    // One allocation is the result vector itself.
    out.push((
        "core.detector.prepare_allocs_per_event",
        allocs.allocs.saturating_sub(1) as f64 / events as f64,
    ));

    detector.begin_batch();
    let (commit_ns, ()) = ns_per(events, || {
        for (event, prep) in inputs.events.iter().zip(&prepared) {
            std::hint::black_box(detector.process_prepared(event, *prep));
        }
    });
    out.push(("core.detector.commit_ns_per_event", commit_ns));

    let pool = &inputs.fleet.legit_pool;
    let stride = pool.len() / MUTATIONS;
    let prefixes: Vec<_> = (0..MUTATIONS)
        .map(|i| inputs.fleet.owned[pool[i * stride] as usize].prefix)
        .collect();
    let (remove_ns, ()) = ns_per(MUTATIONS as u64, || {
        for p in &prefixes {
            std::hint::black_box(detector.remove_shard(*p).expect("shard exists"));
        }
    });
    let (add_ns, ()) = ns_per(MUTATIONS as u64, || {
        for p in &prefixes {
            assert!(detector.add_shard(OwnedPrefix::new(*p, Asn(OPERATOR_AS))));
        }
    });
    out.push(("core.detector.add_shard_us", add_ns / 1e3));
    out.push(("core.detector.remove_shard_us", remove_ns / 1e3));
}

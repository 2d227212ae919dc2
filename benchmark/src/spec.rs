//! Names: the four workloads and every metric, with units, direction
//! and (for end-to-end metrics) the bound `BENCHMARK.json` records.
//! `BENCHMARK.json` is checked against this file by a unit test, so the
//! two cannot drift apart.

use crate::closed::ClosedSpec;
use crate::paced::PacedSpec;
use crate::stream::Mix;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FirehoseNoise,
    IncidentStorm,
    PacedDetect,
    OperatorChurn,
}

pub enum Harness {
    Closed(ClosedSpec),
    Paced(PacedSpec),
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FirehoseNoise,
        Workload::IncidentStorm,
        Workload::PacedDetect,
        Workload::OperatorChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FirehoseNoise => "firehose_noise",
            Workload::IncidentStorm => "incident_storm",
            Workload::PacedDetect => "paced_detect",
            Workload::OperatorChurn => "operator_churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists; recorded verbatim in `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::FirehoseNoise => {
                "closed loop, 90% unowned prefixes: frame, decode, ring hop, hub drain, LPM miss and \
                 prepare do nearly all the work, commit almost none"
            }
            Workload::IncidentStorm => {
                "closed loop, 50% vantage-point flips on 48 live incidents: detect walk, monitor \
                 route/ingest, resolve and event log dominate, LPM-miss work is small"
            }
            Workload::PacedDetect => {
                "open loop through the real daemon at 100k events/s (~7% of capacity): pump and \
                 long-poll ticks, the service mutex and JSON set latency, per-event CPU does not"
            }
            Workload::OperatorChurn => {
                "open loop at 50k events/s beside an operator offboarding, onboarding, setting policy \
                 and scraping: routing-structure writes and lock holders contend with the feed pump"
            }
        }
    }

    pub fn harness(self) -> Harness {
        const NOISE: Mix = Mix {
            noise: 90,
            legit: 10,
            flips: 0,
        };
        match self {
            // One hijack per ~20k events, healed ~1.3M events (about a
            // second of firehose) later: at most ~64 live incidents.
            Workload::FirehoseNoise => Harness::Closed(ClosedSpec {
                mix: NOISE,
                hijack_every: 20_000,
                heal_after: 1_280_000,
            }),
            // The commit half is slower, so a second is fewer events.
            Workload::IncidentStorm => Harness::Closed(ClosedSpec {
                mix: Mix {
                    noise: 25,
                    legit: 25,
                    flips: 50,
                },
                hijack_every: 10_000,
                heal_after: 160_000,
            }),
            Workload::PacedDetect => Harness::Paced(PacedSpec {
                mix: NOISE,
                rate: 100_000,
                operator: false,
            }),
            Workload::OperatorChurn => Harness::Paced(PacedSpec {
                mix: NOISE,
                rate: 50_000,
                operator: true,
            }),
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    /// Allowed worsening as a share of the parent's median
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    e2e(name, unit, better, 0.0)
}

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("events_per_s", "1/s", "higher", 0.25),
    e2e("detect_p50_ms", "ms", "lower", 0.25),
    e2e("detect_within_2x_median_share", "share", "higher", 0.10),
    e2e("mitigate_p50_ms", "ms", "lower", 0.25),
    e2e("command_ms", "ms", "lower", 0.25),
    e2e("rss_peak_mb", "MiB", "lower", 0.25),
];

/// Single layers, named after the module they measure.
pub const PER_LAYER: &[MetricDef] = &[
    // artemis_bmp / artemis_bgp / artemis_feeds: the reader-thread side.
    layer("bmp.frame_ns_per_msg", "ns", "lower"),
    layer("bmp.decode_ns_per_event", "ns", "lower"),
    layer("bmp.decode_allocs_per_event", "count", "lower"),
    layer("bmp.ring_hop_ns_per_event", "ns", "lower"),
    layer("bmp.bytes_per_event", "B", "lower"),
    layer("bgp.update_decode_ns_per_event", "ns", "lower"),
    layer("feeds.live_reader_events_per_s", "1/s", "higher"),
    layer("feeds.ring_depth_max", "count", "lower"),
    layer("feeds.live_diagnostics", "count", "lower"),
    // The pump-thread front half.
    layer("feeds.hub_poll_ns_per_event", "ns", "lower"),
    layer("feeds.hub_drain_seal_ns_per_event", "ns", "lower"),
    layer("feeds.hub_drain_merge_ns_per_event", "ns", "lower"),
    layer("bgp.lpm_hit_ns", "ns", "lower"),
    layer("bgp.lpm_miss_ns", "ns", "lower"),
    layer("core.detector.prepare_ns_per_event", "ns", "lower"),
    layer("core.detector.prepare_allocs_per_event", "count", "lower"),
    // The commit half.
    layer("core.detector.commit_ns_per_event", "ns", "lower"),
    layer("core.monitor.route_ns_per_event", "ns", "lower"),
    layer("core.monitor.ingest_ns_per_event", "ns", "lower"),
    layer("core.monitor.live_max", "count", "lower"),
    layer("core.mitigation.plan_execute_us_per_alert", "us", "lower"),
    layer("core.event_log.push_ns", "ns", "lower"),
    layer("controller.intents_submitted", "count", "lower"),
    // The whole delivery path and its own stage clocks.
    layer("core.pipeline.deliver_ns_per_event", "ns", "lower"),
    layer("core.pipeline.allocs_per_event", "count", "lower"),
    layer("core.pipeline.alloc_bytes_per_event", "B", "lower"),
    layer("core.pipeline.batch_events_mean", "count", "higher"),
    layer("core.pipeline.stage.drain_ns_per_event", "ns", "lower"),
    layer("core.pipeline.stage.drain_seal_ns_per_event", "ns", "lower"),
    layer(
        "core.pipeline.stage.drain_merge_ns_per_event",
        "ns",
        "lower",
    ),
    layer("core.pipeline.stage.classify_ns_per_event", "ns", "lower"),
    layer(
        "core.pipeline.stage.classify_snapshot_ns_per_event",
        "ns",
        "lower",
    ),
    layer(
        "core.pipeline.stage.classify_prepare_ns_per_event",
        "ns",
        "lower",
    ),
    layer("core.pipeline.stage.commit_ns_per_event", "ns", "lower"),
    layer("core.pipeline.stage.detect_ns_per_event", "ns", "lower"),
    layer(
        "core.pipeline.stage.monitor_route_ns_per_event",
        "ns",
        "lower",
    ),
    layer(
        "core.pipeline.stage.monitor_ingest_ns_per_event",
        "ns",
        "lower",
    ),
    layer("core.pipeline.stage.resolve_ns_per_event", "ns", "lower"),
    layer("core.pipeline.stage.mitigate_ns_per_event", "ns", "lower"),
    layer("core.service.pump_ns_per_event", "ns", "lower"),
    layer("core.service.pump_busy_share", "share", "lower"),
    // Fleet mutation: what an operator command costs.
    layer("bgp.trie_insert_ns", "ns", "lower"),
    layer("bgp.trie_remove_ns", "ns", "lower"),
    layer("bgp.trie_bytes_per_prefix", "B", "lower"),
    layer("core.detector.add_shard_us", "us", "lower"),
    layer("core.detector.remove_shard_us", "us", "lower"),
    layer("core.service.onboard_us", "us", "lower"),
    layer("core.service.offboard_us", "us", "lower"),
    // The daemon's wire: what stands between an alert and its reader.
    layer("artemisd.healthz_us", "us", "lower"),
    layer("artemisd.command_http_overhead_us", "us", "lower"),
    layer("artemisd.events_wake_ms", "ms", "lower"),
    layer("core.event_log.poll_us", "us", "lower"),
    layer("core.wire.events_envelope_ser_us", "us", "lower"),
    // Control-plane reads that hold the service mutex.
    layer("artemisd.scrape_ms", "ms", "lower"),
    layer("artemisd.scrape_kb", "KiB", "lower"),
    layer("artemisd.incidents_ms", "ms", "lower"),
    layer("artemisd.status_ms", "ms", "lower"),
    layer("core.service.status_ms", "ms", "lower"),
    layer("core.service.status_json_mb", "MiB", "lower"),
    // The process and the benchmark itself.
    layer("process.cpu_us_per_event", "us", "lower"),
    layer("process.threads", "count", "lower"),
    layer("bench.shed_share", "share", "lower"),
    layer("bench.missed_share", "share", "lower"),
    layer("bench.detect_samples", "count", "higher"),
    layer("bench.detect_p95_ms", "ms", "lower"),
    layer("bench.generator_late_p99_ms", "ms", "lower"),
    layer("bench.events_per_s_mean", "1/s", "higher"),
    layer("bench.events_per_s_median", "1/s", "higher"),
    layer("bench.slow_regime_share", "share", "lower"),
    layer("bench.trace_overhead_share", "share", "lower"),
    layer("bench.unattributed_ns_per_event", "ns", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::field;
    use serde_json::Value;

    fn items(v: &Value) -> &[Value] {
        match v {
            Value::Array(items) => items,
            other => panic!("expected an array, got {other:?}"),
        }
    }

    fn number(v: &Value) -> f64 {
        match v {
            Value::F64(x) => *x,
            Value::U64(x) => *x as f64,
            other => panic!("expected a number, got {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_matches_these_definitions() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");

        let workloads = items(field(&json, "workloads"));
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (w, spec) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(field(w, "name").as_str(), Some(spec.name()));
            assert_eq!(field(w, "why").as_str(), Some(spec.why()));
            assert!(spec.why().len() <= 200 && !spec.why().contains('\n'));
        }

        let e2e = items(field(&json, "end_to_end"));
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, def) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(m, "name").as_str(), Some(def.name));
            assert_eq!(field(m, "unit").as_str(), Some(def.unit));
            assert_eq!(field(m, "better").as_str(), Some(def.better));
            assert_eq!(number(field(m, "bound")), def.bound);
            assert!(def.bound > 0.0 && def.bound <= 0.25);
        }

        let layers = items(field(&json, "per_layer"));
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(PER_LAYER.len() <= 128);
        for (m, def) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(m, "name").as_str(), Some(def.name));
            assert_eq!(field(m, "unit").as_str(), Some(def.unit));
            assert_eq!(field(m, "better").as_str(), Some(def.better));
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "{} is used twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.better == "lower" || def.better == "higher");
        }
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }
}

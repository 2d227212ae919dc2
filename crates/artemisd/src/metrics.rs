//! Prometheus text exposition for the daemon's `/metrics` endpoint.
//!
//! Everything rendered here comes from surfaces the typed API already
//! exposes — the [`ServiceSummary`] counts (the numbers of a
//! `ServiceQuery::Status` snapshot without its fleet-sized tables), the
//! pipeline's wall-clock [`StageMetrics`], the webhook pagers'
//! [`DispatchStats`] summed over sinks, and the daemon's own counters — so a scrape can
//! never disagree with what `ServiceQuery::Status` reports at the same
//! instant, and costs the same whatever the fleet size.

use crate::alerts::DispatchStats;
use artemis_core::service::{FeedStatus, MitigationPhase, ServiceSummary};
use artemis_core::{StageMetrics, StageStat};
use std::fmt::Write;

fn phase_label(phase: MitigationPhase) -> &'static str {
    match phase {
        MitigationPhase::None => "none",
        MitigationPhase::PendingConfirmation => "pending_confirmation",
        MitigationPhase::Executing => "executing",
        MitigationPhase::Resolved => "resolved",
    }
}

/// Point-in-time gauges of the pipeline's internal structures that
/// [`ServiceSummary`] does not carry (they are implementation detail,
/// not operator-facing state): the routing trie's footprint and the
/// count of incidents whose monitors were retired in place.
#[derive(Debug, Clone, Copy, Default)]
pub struct StructureGauges {
    /// Stride-8 multibit nodes in the detector's routing trie.
    pub routing_nodes: usize,
    /// Approximate heap bytes held by the routing structure.
    pub routing_bytes: usize,
    /// The detector's routing epoch: bumped on every incremental
    /// onboard/offboard patch of the routing trie. A gauge that climbs
    /// with churn but never jumps — there are no wholesale rebuilds to
    /// observe anymore.
    pub routing_epoch: u64,
    /// Incidents that are over, their monitors retired in place.
    pub retired_incidents: usize,
    /// Timeline points folded away by the per-incident timeline cap,
    /// over live and retired incidents.
    pub timeline_coalesced_points: u64,
}

/// The daemon's own state, outside the service it wraps.
#[derive(Debug, Clone, Copy, Default)]
pub struct DaemonGauges {
    /// Incident-log entries the webhook pagers have not yet read,
    /// summed over sinks.
    pub alert_queue_depth: u64,
    /// Operator commands audited.
    pub audit_records: u64,
    /// Audited commands the audit file did not take.
    pub audit_write_errors: u64,
    /// Times the state lock was taken over from a thread that
    /// panicked while holding it.
    pub state_lock_poisoned: u64,
    /// Times the feed pump left its park (ring wake or idle tick).
    pub feed_pump_wakeups: u64,
    /// Feed-pump iterations that panicked and were survived.
    pub feed_pump_panics: u64,
    /// Times a long-poll, a pager or a pause left a park on the
    /// incident log (an append, a stop or its own deadline).
    pub log_park_wakeups: u64,
}

/// Write a family's `# HELP` and `# TYPE` lines; its samples follow
/// directly, so every family is one contiguous group.
fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Write an unlabelled family: header and its one sample.
fn single(out: &mut String, name: &str, kind: &str, help: &str, value: u64) {
    family(out, name, kind, help);
    let _ = writeln!(out, "{name} {value}");
}

/// A label value escaped as the text format requires (`\` → `\\`,
/// `"` → `\"`, newline → `\n`), so an operator-chosen feed name can
/// neither break the scrape nor forge samples.
struct Escaped<'a>(&'a str);

impl std::fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for c in self.0.chars() {
            match c {
                '\\' => f.write_str("\\\\")?,
                '"' => f.write_str("\\\"")?,
                '\n' => f.write_str("\\n")?,
                c => f.write_char(c)?,
            }
        }
        Ok(())
    }
}

/// A metric family with one sample per row of `T`: name, type, help,
/// and how to read a row.
type Family<T> = (&'static str, &'static str, &'static str, fn(&T) -> u64);

/// The per-stage families.
const STAGE_FAMILIES: [Family<StageStat>; 5] = [
    (
        "artemis_stage_batches_total",
        "counter",
        "Non-empty batches seen per pipeline stage.",
        |s| s.batches,
    ),
    (
        "artemis_stage_events_total",
        "counter",
        "Events processed per pipeline stage.",
        |s| s.events,
    ),
    (
        "artemis_stage_nanos_total",
        "counter",
        "Wall-clock nanoseconds spent per stage.",
        |s| s.nanos,
    ),
    (
        "artemis_stage_mean_batch_nanos",
        "gauge",
        "Mean wall-clock nanoseconds per batch.",
        StageStat::mean_batch_nanos,
    ),
    (
        "artemis_stage_p99_batch_nanos",
        "gauge",
        "99th-percentile wall-clock nanoseconds per batch (upper edge of its log2 bucket).",
        StageStat::p99_batch_nanos,
    ),
];

/// The per-feed integer families. (`artemis_feed_last_event_seconds`
/// is written apart: it is a float, absent for a feed that queued
/// nothing yet.)
const FEED_FAMILIES: [Family<FeedStatus>; 4] = [
    (
        "artemis_feed_events_emitted_total",
        "counter",
        "Events emitted per attached feed.",
        |f| f.events_emitted,
    ),
    (
        "artemis_feed_queued_events",
        "gauge",
        "Emitted-but-undrained events per feed.",
        |f| f.queued_events as u64,
    ),
    (
        "artemis_feed_dropped_total",
        "counter",
        "Events discarded before the merge queue per feed (filter rejections, backpressure sheds).",
        |f| f.dropped_events,
    ),
    (
        "artemis_feed_shed_total",
        "counter",
        "Backpressure-shed subset of dropped events per feed.",
        |f| f.shed_events,
    ),
];

/// Render one scrape in the Prometheus text exposition format, one
/// family at a time. `wire` carries the `(name, health)` of every
/// socket-backed feed — see [`artemis_feeds::WireHealth`] — rendered
/// as reconnect counters and per-peer session gauges.
pub fn render(
    status: &ServiceSummary,
    stages: &StageMetrics,
    structure: &StructureGauges,
    wire: &[(String, artemis_feeds::WireHealth)],
    dispatch: &DispatchStats,
    daemon: &DaemonGauges,
) -> String {
    let mut out = String::with_capacity(2048);

    // -- pipeline throughput ------------------------------------------
    single(
        &mut out,
        "artemis_events_delivered_total",
        "counter",
        "Feed events delivered to the detector.",
        status.events_delivered,
    );
    single(
        &mut out,
        "artemis_events_recorded_total",
        "counter",
        "Incident events recorded in the log.",
        status.events_recorded,
    );

    // -- per-stage wall-clock batch latency ---------------------------
    // Sub-stages overlap their parent stage, never add to it.
    // `commit_monitor_route` and `commit_monitor_ingest` read 0: that
    // work is timed inside `commit_detect` (see `StageMetrics`).
    let stage_rows = [
        ("drain", &stages.drain),
        ("classify", &stages.classify),
        ("commit", &stages.commit),
        ("drain_seal", &stages.drain_seal),
        ("drain_merge", &stages.drain_merge),
        ("classify_snapshot", &stages.classify_snapshot),
        ("classify_prepare", &stages.classify_prepare),
        ("commit_detect", &stages.detect),
        ("commit_monitor_route", &stages.monitor_route),
        ("commit_monitor_ingest", &stages.monitor_ingest),
        ("commit_resolve", &stages.resolve),
        ("commit_mitigate", &stages.mitigate),
    ];
    for (name, kind, help, read) in STAGE_FAMILIES {
        family(&mut out, name, kind, help);
        for (stage, stat) in stage_rows {
            let _ = writeln!(out, "{name}{{stage=\"{stage}\"}} {}", read(stat));
        }
    }

    // -- feed lag ------------------------------------------------------
    for (name, kind, help, read) in FEED_FAMILIES {
        family(&mut out, name, kind, help);
        for feed in &status.feeds {
            let _ = writeln!(
                out,
                "{name}{{feed=\"{}\",name=\"{}\"}} {}",
                feed.handle,
                Escaped(&feed.name),
                read(feed)
            );
        }
    }
    family(
        &mut out,
        "artemis_feed_last_event_seconds",
        "gauge",
        "Service-clock emission instant of the newest queued event per feed.",
    );
    for feed in &status.feeds {
        if let Some(at) = feed.last_event_at {
            let _ = writeln!(
                out,
                "artemis_feed_last_event_seconds{{feed=\"{}\",name=\"{}\"}} {}",
                feed.handle,
                Escaped(&feed.name),
                at.as_micros() as f64 / 1_000_000.0
            );
        }
    }

    // -- wire-feed session health -------------------------------------
    if !wire.is_empty() {
        family(
            &mut out,
            "artemis_feed_reconnects_total",
            "counter",
            "Re-established transport sessions per wire feed.",
        );
        for (name, health) in wire {
            let _ = writeln!(
                out,
                "artemis_feed_reconnects_total{{name=\"{}\"}} {}",
                Escaped(name),
                health.reconnects
            );
        }
        family(
            &mut out,
            "artemis_bmp_peer_stat",
            "gauge",
            "Per-peer BMP stats_report counters and gauges.",
        );
        for (name, health) in wire {
            for (peer, h) in &health.peers {
                for (stat, value) in [
                    ("reports", h.reports),
                    ("prefixes_rejected", h.prefixes_rejected),
                    ("duplicate_updates", h.duplicate_updates),
                    ("duplicate_withdraws", h.duplicate_withdraws),
                    ("adj_rib_in", h.adj_rib_in),
                    ("loc_rib", h.loc_rib),
                ] {
                    let _ = writeln!(
                        out,
                        "artemis_bmp_peer_stat{{name=\"{}\",peer=\"{}\",stat=\"{stat}\"}} {value}",
                        Escaped(name),
                        peer.0
                    );
                }
            }
        }
        family(
            &mut out,
            "artemis_bmp_peer_downs_total",
            "counter",
            "peer_down messages seen per peer.",
        );
        for (name, health) in wire {
            for (peer, h) in &health.peers {
                let _ = writeln!(
                    out,
                    "artemis_bmp_peer_downs_total{{name=\"{}\",peer=\"{}\"}} {}",
                    Escaped(name),
                    peer.0,
                    h.peer_downs
                );
            }
        }
    }

    // -- incidents by mitigation phase --------------------------------
    family(
        &mut out,
        "artemis_incidents",
        "gauge",
        "Incidents by mitigation lifecycle phase.",
    );
    for phase in MitigationPhase::ALL {
        let _ = writeln!(
            out,
            "artemis_incidents{{phase=\"{}\"}} {}",
            phase_label(phase),
            status.incidents_in(phase)
        );
    }

    // -- service state -------------------------------------------------
    for (name, help, value) in [
        (
            "artemis_owned_prefixes",
            "Owned prefixes currently onboarded.",
            status.owned_prefixes as u64,
        ),
        (
            "artemis_mitigation_paused",
            "1 while mitigation is paused.",
            u64::from(status.mitigation_paused),
        ),
        (
            "artemis_routing_nodes",
            "Stride-8 multibit nodes in the routing trie.",
            structure.routing_nodes as u64,
        ),
        (
            "artemis_routing_bytes",
            "Approximate heap bytes of the routing structure.",
            structure.routing_bytes as u64,
        ),
        (
            "artemis_routing_epoch",
            "Incremental patches applied to the routing structure.",
            structure.routing_epoch,
        ),
        (
            "artemis_retired_incidents",
            "Resolved incidents retired to compact summaries.",
            structure.retired_incidents as u64,
        ),
    ] {
        single(&mut out, name, "gauge", help, value);
    }
    single(
        &mut out,
        "artemis_monitor_timeline_coalesced_points_total",
        "counter",
        "State changes folded into a full incident timeline's last point.",
        structure.timeline_coalesced_points,
    );

    // -- alert paging, summed over sinks -------------------------------
    single(
        &mut out,
        "artemis_alerts_enqueued_total",
        "counter",
        "Alert payloads built for a sink, summed over sinks.",
        dispatch.enqueued,
    );
    single(
        &mut out,
        "artemis_alerts_delivered_total",
        "counter",
        "Alert payloads a sink accepted, summed over sinks.",
        dispatch.delivered,
    );
    family(
        &mut out,
        "artemis_alerts_dropped_total",
        "counter",
        "Alert pages lost, summed over sinks: overflow counts incident-log entries evicted before a sink read them, failed counts payloads a sink refused on every attempt.",
    );
    let _ = writeln!(
        out,
        "artemis_alerts_dropped_total{{reason=\"overflow\"}} {}",
        dispatch.dropped_overflow
    );
    let _ = writeln!(
        out,
        "artemis_alerts_dropped_total{{reason=\"failed\"}} {}",
        dispatch.dropped_failed
    );
    single(
        &mut out,
        "artemis_alert_queue_depth",
        "gauge",
        "Incident-log entries the sinks have not yet read, summed over sinks.",
        daemon.alert_queue_depth,
    );

    // -- audit ---------------------------------------------------------
    single(
        &mut out,
        "artemis_audit_records_total",
        "counter",
        "Operator commands audited.",
        daemon.audit_records,
    );
    single(
        &mut out,
        "artemis_audit_write_errors_total",
        "counter",
        "Audited commands the audit file did not take (kept in memory only).",
        daemon.audit_write_errors,
    );

    // -- daemon threads ------------------------------------------------
    single(
        &mut out,
        "artemis_state_lock_poisoned_total",
        "counter",
        "State-lock acquisitions that recovered the guard from a thread that panicked \
         holding it.",
        daemon.state_lock_poisoned,
    );
    single(
        &mut out,
        "artemis_feed_pump_wakeups_total",
        "counter",
        "Times the feed pump left its park (a live ring turned non-empty, or the idle tick).",
        daemon.feed_pump_wakeups,
    );
    single(
        &mut out,
        "artemis_log_park_wakeups_total",
        "counter",
        "Times a long-poll, a webhook pager or a pause left its park on the incident log \
         (an append, a stop or its deadline).",
        daemon.log_park_wakeups,
    );
    single(
        &mut out,
        "artemis_feed_pump_panics_total",
        "counter",
        "Feed-pump iterations that panicked; the pump counted each and kept pumping.",
        daemon.feed_pump_panics,
    );

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_simnet::SimTime;

    /// One parsed sample line.
    #[derive(Debug)]
    struct Sample {
        family: String,
        /// `(label, unescaped value)` pairs, in line order.
        labels: Vec<(String, String)>,
        value: f64,
    }

    /// Parse a scrape, panicking on anything the text format forbids:
    /// a malformed line, a sample whose family was not declared by
    /// exactly one `# HELP` and one `# TYPE` before it, or a family
    /// whose lines are split into two separate runs.
    fn parse_exposition(text: &str) -> Vec<Sample> {
        let mut help = std::collections::BTreeSet::new();
        let mut typed = std::collections::BTreeSet::new();
        let mut closed = std::collections::BTreeSet::new();
        let mut current: Option<String> = None;
        let mut samples = Vec::new();
        for line in text.lines() {
            let (family, sample) = if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, _) = rest.split_once(' ').expect("HELP has text");
                assert!(help.insert(name.to_string()), "second HELP: {line}");
                (name.to_string(), None)
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').expect("TYPE has a kind");
                assert!(["counter", "gauge"].contains(&kind), "type: {line}");
                assert!(help.contains(name), "TYPE before HELP: {line}");
                assert!(typed.insert(name.to_string()), "second TYPE: {line}");
                (name.to_string(), None)
            } else {
                let sample = parse_sample(line);
                assert!(
                    typed.contains(&sample.family),
                    "sample before its HELP and TYPE: {line}"
                );
                (sample.family.clone(), Some(sample))
            };
            if current.as_ref() != Some(&family) {
                assert!(!closed.contains(&family), "{family} split: {line}");
                closed.extend(current.replace(family));
            }
            samples.extend(sample);
        }
        samples
    }

    /// Parse `name{label="value",…} number`, unescaping label values.
    fn parse_sample(line: &str) -> Sample {
        let name_end = line.find(['{', ' ']).expect("name ends");
        let family = &line[..name_end];
        assert!(
            !family.is_empty()
                && family
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "metric name: {line}"
        );
        let mut rest = &line[name_end..];
        let mut labels = Vec::new();
        if let Some(body) = rest.strip_prefix('{') {
            let mut chars = body.char_indices();
            loop {
                let (start, _) = chars.clone().next().expect("label or brace");
                let (eq, _) = chars.find(|(_, c)| *c == '=').expect("label =");
                let label = &body[start..eq];
                assert!(
                    label.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                    "label name {label:?}: {line}"
                );
                assert_eq!(chars.next().map(|(_, c)| c), Some('"'), "{line}");
                let mut value = String::new();
                loop {
                    match chars.next().expect("unterminated label value").1 {
                        '"' => break,
                        '\\' => value.push(match chars.next().expect("escape").1 {
                            '\\' => '\\',
                            '"' => '"',
                            'n' => '\n',
                            other => panic!("bad escape \\{other}: {line}"),
                        }),
                        c => value.push(c),
                    }
                }
                labels.push((label.to_string(), value));
                match chars.next().expect("label separator") {
                    (_, ',') => continue,
                    (at, '}') => {
                        rest = &body[at + 1..];
                        break;
                    }
                    (_, c) => panic!("unexpected {c:?}: {line}"),
                }
            }
        }
        let value = rest.strip_prefix(' ').expect("one space before the value");
        Sample {
            family: family.to_string(),
            labels,
            value: value.parse().unwrap_or_else(|_| panic!("value: {line}")),
        }
    }

    fn empty_status() -> ServiceSummary {
        ServiceSummary {
            mitigation_paused: false,
            events_delivered: 7,
            events_recorded: 3,
            owned_prefixes: 100_000,
            incidents_by_phase: [0, 0, 4, 9],
            feeds: Vec::new(),
        }
    }

    #[test]
    fn render_is_valid_exposition_text() {
        let text = render(
            &empty_status(),
            &StageMetrics::default(),
            &StructureGauges {
                routing_nodes: 42,
                routing_bytes: 1024,
                routing_epoch: 17,
                retired_incidents: 2,
                timeline_coalesced_points: 6,
            },
            &[],
            &DispatchStats::default(),
            &DaemonGauges {
                alert_queue_depth: 0,
                audit_records: 5,
                audit_write_errors: 3,
                state_lock_poisoned: 1,
                feed_pump_wakeups: 12,
                feed_pump_panics: 2,
                log_park_wakeups: 5,
            },
        );
        let samples = parse_exposition(&text);
        for family in STAGE_FAMILIES.map(|(name, ..)| name) {
            let stages = samples.iter().filter(|s| s.family == family).count();
            assert_eq!(stages, 12, "{family}: one sample per stage");
        }
        assert!(text.contains("artemis_events_delivered_total 7"));
        assert!(text.contains("artemis_stage_batches_total{stage=\"drain\"} 0"));
        assert!(text.contains("artemis_incidents{phase=\"executing\"} 4"));
        assert!(text.contains("artemis_incidents{phase=\"resolved\"} 9"));
        assert!(text.contains("artemis_incidents{phase=\"none\"} 0"));
        assert!(text.contains("artemis_owned_prefixes 100000"));
        assert!(text.contains("artemis_audit_records_total 5"));
        assert!(text.contains("artemis_audit_write_errors_total 3"));
        assert!(text.contains("artemis_state_lock_poisoned_total 1"));
        assert!(text.contains("artemis_feed_pump_wakeups_total 12"));
        assert!(text.contains("artemis_feed_pump_panics_total 2"));
        assert!(text.contains("artemis_log_park_wakeups_total 5"));
        assert!(text.contains("artemis_mitigation_paused 0"));
        assert!(text.contains("artemis_stage_p99_batch_nanos{stage=\"classify\"} 0"));
        for sub in [
            "drain_seal",
            "drain_merge",
            "classify_snapshot",
            "classify_prepare",
            "commit_detect",
            "commit_monitor_route",
            "commit_monitor_ingest",
            "commit_resolve",
            "commit_mitigate",
        ] {
            assert!(
                text.contains(&format!(
                    "artemis_stage_p99_batch_nanos{{stage=\"{sub}\"}} 0"
                )),
                "missing sub-stage {sub}"
            );
        }
        assert!(text.contains("artemis_routing_nodes 42"));
        assert!(text.contains("artemis_routing_bytes 1024"));
        assert!(text.contains("artemis_routing_epoch 17"));
        assert!(text.contains("artemis_retired_incidents 2"));
        assert!(text.contains("artemis_monitor_timeline_coalesced_points_total 6"));
    }

    #[test]
    fn feed_rows_render_drop_and_shed_counters() {
        use artemis_core::service::FeedStatus;
        use artemis_feeds::{FeedHandle, FeedKind};
        let mut status = empty_status();
        status.feeds.push(FeedStatus {
            handle: FeedHandle::REQUEUED,
            kind: FeedKind::BmpLive,
            name: "bmp0".into(),
            events_emitted: 10,
            polls_executed: 4,
            queued_events: 1,
            last_event_at: Some(SimTime::from_secs(9)),
            dropped_events: 7,
            shed_events: 3,
        });
        status.feeds.push(FeedStatus {
            name: "bmp1".into(),
            last_event_at: None,
            ..status.feeds[0].clone()
        });
        let text = render(
            &status,
            &StageMetrics::default(),
            &StructureGauges::default(),
            &[],
            &DispatchStats::default(),
            &DaemonGauges::default(),
        );
        let samples = parse_exposition(&text);
        let feed_samples = samples
            .iter()
            .filter(|s| s.labels.iter().any(|(l, _)| l == "feed"))
            .count();
        assert_eq!(feed_samples, 9, "five per feed, no instant for bmp1");
        assert!(text.contains("artemis_feed_dropped_total{feed=\"feed#0\",name=\"bmp0\"} 7"));
        assert!(text.contains("artemis_feed_shed_total{feed=\"feed#0\",name=\"bmp0\"} 3"));
        assert!(
            text.contains("artemis_feed_events_emitted_total{feed=\"feed#0\",name=\"bmp0\"} 10")
        );
    }

    #[test]
    fn wire_health_renders_reconnects_and_peer_gauges() {
        use artemis_bgp::Asn;
        use artemis_feeds::{PeerHealth, WireHealth};
        let wire = vec![(
            "bmp0".to_string(),
            WireHealth {
                reconnects: 3,
                peers: vec![(
                    Asn(174),
                    PeerHealth {
                        reports: 2,
                        prefixes_rejected: 11,
                        duplicate_updates: 5,
                        duplicate_withdraws: 1,
                        adj_rib_in: 900_000,
                        loc_rib: 870_000,
                        peer_downs: 1,
                    },
                )],
            },
        )];
        let mut wire = [wire.clone(), wire].concat();
        wire[1].0 = "bmp1".into();
        wire[1].1.peers.push((Asn(3356), PeerHealth::default()));
        let text = render(
            &empty_status(),
            &StageMetrics::default(),
            &StructureGauges::default(),
            &wire,
            &DispatchStats::default(),
            &DaemonGauges::default(),
        );
        let samples = parse_exposition(&text);
        let peer_stats = samples
            .iter()
            .filter(|s| s.family == "artemis_bmp_peer_stat")
            .count();
        assert_eq!(peer_stats, 18, "six per (feed, peer)");
        assert!(text.contains("artemis_feed_reconnects_total{name=\"bmp0\"} 3"));
        assert!(text.contains(
            "artemis_bmp_peer_stat{name=\"bmp0\",peer=\"174\",stat=\"adj_rib_in\"} 900000"
        ));
        assert!(
            text.contains("artemis_bmp_peer_stat{name=\"bmp0\",peer=\"174\",stat=\"reports\"} 2")
        );
        assert!(text.contains("artemis_bmp_peer_downs_total{name=\"bmp0\",peer=\"174\"} 1"));
    }

    #[test]
    fn hostile_feed_names_are_escaped_and_forge_nothing() {
        use artemis_bgp::Asn;
        use artemis_core::service::FeedStatus;
        use artemis_feeds::{FeedHandle, FeedKind, PeerHealth, WireHealth};
        let hostile = "evil\"} 1\nartemis_owned_prefixes 999\n# TYPE x gauge\\";
        let mut status = empty_status();
        status.feeds.push(FeedStatus {
            handle: FeedHandle::REQUEUED,
            kind: FeedKind::BmpLive,
            name: hostile.into(),
            events_emitted: 10,
            polls_executed: 4,
            queued_events: 1,
            last_event_at: Some(SimTime::from_secs(9)),
            dropped_events: 7,
            shed_events: 3,
        });
        let wire = vec![(
            hostile.to_string(),
            WireHealth {
                reconnects: 3,
                peers: vec![(Asn(174), PeerHealth::default())],
            },
        )];
        let text = render(
            &status,
            &StageMetrics::default(),
            &StructureGauges::default(),
            &wire,
            &DispatchStats::default(),
            &DaemonGauges::default(),
        );
        let samples = parse_exposition(&text);
        let owned: Vec<f64> = samples
            .iter()
            .filter(|s| s.family == "artemis_owned_prefixes")
            .map(|s| s.value)
            .collect();
        assert_eq!(owned, vec![100_000.0], "no forged sample");
        let named: Vec<&Sample> = samples
            .iter()
            .filter(|s| s.labels.iter().any(|(l, _)| l == "name"))
            .collect();
        // Five feed samples, one reconnect count, six peer stats, one
        // peer-down count.
        assert_eq!(named.len(), 13);
        for s in named {
            let name = s.labels.iter().find(|(l, _)| l == "name").unwrap();
            assert_eq!(name.1, hostile, "{} round-trips the name", s.family);
        }
        assert!(text.contains(
            "artemis_feed_reconnects_total{name=\"evil\\\"} 1\\nartemis_owned_prefixes 999\\n# TYPE x gauge\\\\\"} 3"
        ));
    }
}

//! Prometheus text exposition for the daemon's `/metrics` endpoint.
//!
//! Everything rendered here comes from surfaces the typed API already
//! exposes — the [`ServiceSummary`] counts (the numbers of a
//! `ServiceQuery::Status` snapshot without its fleet-sized tables), the
//! pipeline's wall-clock [`StageMetrics`], the alert dispatcher's
//! [`DispatchStats`], and the daemon's own counters — so a scrape can
//! never disagree with what `ServiceQuery::Status` reports at the same
//! instant, and costs the same whatever the fleet size.

use crate::alerts::DispatchStats;
use artemis_core::service::{MitigationPhase, ServiceSummary};
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
/// count of incidents whose monitors were retired into compact
/// summaries.
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
    /// Resolved incidents retired to compact monitor summaries.
    pub retired_incidents: usize,
    /// Timeline points folded away by the per-incident timeline cap,
    /// over live and retired incidents.
    pub timeline_coalesced_points: u64,
}

/// The daemon's own state, outside the service it wraps.
#[derive(Debug, Clone, Copy, Default)]
pub struct DaemonGauges {
    /// Alert payloads waiting for delivery.
    pub alert_queue_depth: usize,
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
}

fn stage_lines(out: &mut String, name: &str, stat: &StageStat) {
    let _ = writeln!(
        out,
        "artemis_stage_batches_total{{stage=\"{name}\"}} {}",
        stat.batches
    );
    let _ = writeln!(
        out,
        "artemis_stage_events_total{{stage=\"{name}\"}} {}",
        stat.events
    );
    let _ = writeln!(
        out,
        "artemis_stage_nanos_total{{stage=\"{name}\"}} {}",
        stat.nanos
    );
    let _ = writeln!(
        out,
        "artemis_stage_mean_batch_nanos{{stage=\"{name}\"}} {}",
        stat.mean_batch_nanos()
    );
    let _ = writeln!(
        out,
        "artemis_stage_p99_batch_nanos{{stage=\"{name}\"}} {}",
        stat.p99_batch_nanos()
    );
}

/// Render one scrape in the Prometheus text exposition format. `wire`
/// carries the `(name, health)` of every socket-backed feed — see
/// [`artemis_feeds::WireHealth`] — rendered as reconnect counters and
/// per-peer session gauges.
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
    out.push_str("# HELP artemis_events_delivered_total Feed events delivered to the detector.\n");
    out.push_str("# TYPE artemis_events_delivered_total counter\n");
    let _ = writeln!(
        out,
        "artemis_events_delivered_total {}",
        status.events_delivered
    );
    out.push_str("# HELP artemis_events_recorded_total Incident events recorded in the log.\n");
    out.push_str("# TYPE artemis_events_recorded_total counter\n");
    let _ = writeln!(
        out,
        "artemis_events_recorded_total {}",
        status.events_recorded
    );

    // -- per-stage wall-clock batch latency ---------------------------
    out.push_str("# HELP artemis_stage_batches_total Non-empty batches seen per pipeline stage.\n");
    out.push_str("# TYPE artemis_stage_batches_total counter\n");
    out.push_str("# HELP artemis_stage_events_total Events processed per pipeline stage.\n");
    out.push_str("# TYPE artemis_stage_events_total counter\n");
    out.push_str("# HELP artemis_stage_nanos_total Wall-clock nanoseconds spent per stage.\n");
    out.push_str("# TYPE artemis_stage_nanos_total counter\n");
    out.push_str("# HELP artemis_stage_mean_batch_nanos Mean wall-clock nanoseconds per batch.\n");
    out.push_str("# TYPE artemis_stage_mean_batch_nanos gauge\n");
    stage_lines(&mut out, "drain", &stages.drain);
    stage_lines(&mut out, "classify", &stages.classify);
    stage_lines(&mut out, "commit", &stages.commit);
    // Sub-stages (each overlaps its parent stage, never adds to it).
    stage_lines(&mut out, "drain_seal", &stages.drain_seal);
    stage_lines(&mut out, "drain_merge", &stages.drain_merge);
    stage_lines(&mut out, "classify_snapshot", &stages.classify_snapshot);
    stage_lines(&mut out, "classify_prepare", &stages.classify_prepare);
    stage_lines(&mut out, "commit_detect", &stages.detect);
    stage_lines(&mut out, "commit_monitor_route", &stages.monitor_route);
    stage_lines(&mut out, "commit_monitor_ingest", &stages.monitor_ingest);
    stage_lines(&mut out, "commit_resolve", &stages.resolve);
    stage_lines(&mut out, "commit_mitigate", &stages.mitigate);

    // -- feed lag ------------------------------------------------------
    out.push_str("# HELP artemis_feed_events_emitted_total Events emitted per attached feed.\n");
    out.push_str("# TYPE artemis_feed_events_emitted_total counter\n");
    out.push_str("# HELP artemis_feed_queued_events Emitted-but-undrained events per feed.\n");
    out.push_str("# TYPE artemis_feed_queued_events gauge\n");
    out.push_str(
        "# HELP artemis_feed_last_event_seconds Service-clock emission instant of the \
         newest queued event per feed.\n",
    );
    out.push_str("# TYPE artemis_feed_last_event_seconds gauge\n");
    out.push_str(
        "# HELP artemis_feed_dropped_total Events discarded before the merge queue per feed \
         (filter rejections, backpressure sheds).\n",
    );
    out.push_str("# TYPE artemis_feed_dropped_total counter\n");
    out.push_str(
        "# HELP artemis_feed_shed_total Backpressure-shed subset of dropped events per feed.\n",
    );
    out.push_str("# TYPE artemis_feed_shed_total counter\n");
    for feed in &status.feeds {
        let handle = feed.handle;
        let _ = writeln!(
            out,
            "artemis_feed_events_emitted_total{{feed=\"{handle}\",name=\"{}\"}} {}",
            feed.name, feed.events_emitted
        );
        let _ = writeln!(
            out,
            "artemis_feed_queued_events{{feed=\"{handle}\",name=\"{}\"}} {}",
            feed.name, feed.queued_events
        );
        if let Some(at) = feed.last_event_at {
            let _ = writeln!(
                out,
                "artemis_feed_last_event_seconds{{feed=\"{handle}\",name=\"{}\"}} {}",
                feed.name,
                at.as_micros() as f64 / 1_000_000.0
            );
        }
        let _ = writeln!(
            out,
            "artemis_feed_dropped_total{{feed=\"{handle}\",name=\"{}\"}} {}",
            feed.name, feed.dropped_events
        );
        let _ = writeln!(
            out,
            "artemis_feed_shed_total{{feed=\"{handle}\",name=\"{}\"}} {}",
            feed.name, feed.shed_events
        );
    }

    // -- wire-feed session health -------------------------------------
    if !wire.is_empty() {
        out.push_str(
            "# HELP artemis_feed_reconnects_total Re-established transport sessions per wire feed.\n",
        );
        out.push_str("# TYPE artemis_feed_reconnects_total counter\n");
        for (name, health) in wire {
            let _ = writeln!(
                out,
                "artemis_feed_reconnects_total{{name=\"{name}\"}} {}",
                health.reconnects
            );
        }
        out.push_str(
            "# HELP artemis_bmp_peer_stat Per-peer BMP stats_report counters and gauges.\n",
        );
        out.push_str("# TYPE artemis_bmp_peer_stat gauge\n");
        out.push_str("# HELP artemis_bmp_peer_downs_total peer_down messages seen per peer.\n");
        out.push_str("# TYPE artemis_bmp_peer_downs_total counter\n");
        for (name, health) in wire {
            for (peer, h) in &health.peers {
                let peer = peer.0;
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
                        "artemis_bmp_peer_stat{{name=\"{name}\",peer=\"{peer}\",stat=\"{stat}\"}} {value}"
                    );
                }
                let _ = writeln!(
                    out,
                    "artemis_bmp_peer_downs_total{{name=\"{name}\",peer=\"{peer}\"}} {}",
                    h.peer_downs
                );
            }
        }
    }

    // -- incidents by mitigation phase --------------------------------
    out.push_str("# HELP artemis_incidents Incidents by mitigation lifecycle phase.\n");
    out.push_str("# TYPE artemis_incidents gauge\n");
    for phase in MitigationPhase::ALL {
        let _ = writeln!(
            out,
            "artemis_incidents{{phase=\"{}\"}} {}",
            phase_label(phase),
            status.incidents_in(phase)
        );
    }

    // -- service state -------------------------------------------------
    out.push_str("# HELP artemis_owned_prefixes Owned prefixes currently onboarded.\n");
    out.push_str("# TYPE artemis_owned_prefixes gauge\n");
    let _ = writeln!(out, "artemis_owned_prefixes {}", status.owned_prefixes);
    out.push_str("# HELP artemis_mitigation_paused 1 while mitigation is paused.\n");
    out.push_str("# TYPE artemis_mitigation_paused gauge\n");
    let _ = writeln!(
        out,
        "artemis_mitigation_paused {}",
        u8::from(status.mitigation_paused)
    );
    out.push_str("# HELP artemis_routing_nodes Stride-8 multibit nodes in the routing trie.\n");
    out.push_str("# TYPE artemis_routing_nodes gauge\n");
    let _ = writeln!(out, "artemis_routing_nodes {}", structure.routing_nodes);
    out.push_str("# HELP artemis_routing_bytes Approximate heap bytes of the routing structure.\n");
    out.push_str("# TYPE artemis_routing_bytes gauge\n");
    let _ = writeln!(out, "artemis_routing_bytes {}", structure.routing_bytes);
    out.push_str(
        "# HELP artemis_routing_epoch Incremental patches applied to the routing structure.\n",
    );
    out.push_str("# TYPE artemis_routing_epoch gauge\n");
    let _ = writeln!(out, "artemis_routing_epoch {}", structure.routing_epoch);
    out.push_str(
        "# HELP artemis_retired_incidents Resolved incidents retired to compact summaries.\n",
    );
    out.push_str("# TYPE artemis_retired_incidents gauge\n");
    let _ = writeln!(
        out,
        "artemis_retired_incidents {}",
        structure.retired_incidents
    );
    out.push_str(
        "# HELP artemis_monitor_timeline_coalesced_points_total State changes folded into a full incident timeline's last point.\n",
    );
    out.push_str("# TYPE artemis_monitor_timeline_coalesced_points_total counter\n");
    let _ = writeln!(
        out,
        "artemis_monitor_timeline_coalesced_points_total {}",
        structure.timeline_coalesced_points
    );

    // -- alert dispatch ------------------------------------------------
    out.push_str("# HELP artemis_alerts_enqueued_total Alert payloads queued for delivery.\n");
    out.push_str("# TYPE artemis_alerts_enqueued_total counter\n");
    let _ = writeln!(out, "artemis_alerts_enqueued_total {}", dispatch.enqueued);
    out.push_str("# HELP artemis_alerts_delivered_total Alert payloads delivered to all sinks.\n");
    out.push_str("# TYPE artemis_alerts_delivered_total counter\n");
    let _ = writeln!(out, "artemis_alerts_delivered_total {}", dispatch.delivered);
    out.push_str("# HELP artemis_alerts_dropped_total Alert payloads dropped, by reason.\n");
    out.push_str("# TYPE artemis_alerts_dropped_total counter\n");
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
    out.push_str("# HELP artemis_alert_queue_depth Alert payloads waiting for delivery.\n");
    out.push_str("# TYPE artemis_alert_queue_depth gauge\n");
    let _ = writeln!(
        out,
        "artemis_alert_queue_depth {}",
        daemon.alert_queue_depth
    );

    // -- audit ---------------------------------------------------------
    out.push_str("# HELP artemis_audit_records_total Operator commands audited.\n");
    out.push_str("# TYPE artemis_audit_records_total counter\n");
    let _ = writeln!(out, "artemis_audit_records_total {}", daemon.audit_records);
    out.push_str(
        "# HELP artemis_audit_write_errors_total Audited commands the audit file did not take \
         (kept in memory only).\n",
    );
    out.push_str("# TYPE artemis_audit_write_errors_total counter\n");
    let _ = writeln!(
        out,
        "artemis_audit_write_errors_total {}",
        daemon.audit_write_errors
    );

    // -- daemon threads ------------------------------------------------
    out.push_str(
        "# HELP artemis_state_lock_poisoned_total State-lock acquisitions that recovered the \
         guard from a thread that panicked holding it.\n",
    );
    out.push_str("# TYPE artemis_state_lock_poisoned_total counter\n");
    let _ = writeln!(
        out,
        "artemis_state_lock_poisoned_total {}",
        daemon.state_lock_poisoned
    );
    out.push_str(
        "# HELP artemis_feed_pump_wakeups_total Times the feed pump left its park (a live \
         ring turned non-empty, or the idle tick).\n",
    );
    out.push_str("# TYPE artemis_feed_pump_wakeups_total counter\n");
    let _ = writeln!(
        out,
        "artemis_feed_pump_wakeups_total {}",
        daemon.feed_pump_wakeups
    );
    out.push_str(
        "# HELP artemis_feed_pump_panics_total Feed-pump iterations that panicked; the pump \
         counted each and kept pumping.\n",
    );
    out.push_str("# TYPE artemis_feed_pump_panics_total counter\n");
    let _ = writeln!(
        out,
        "artemis_feed_pump_panics_total {}",
        daemon.feed_pump_panics
    );

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_simnet::SimTime;

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
            },
        );
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.contains(' '),
                "malformed line: {line}"
            );
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
        let text = render(
            &status,
            &StageMetrics::default(),
            &StructureGauges::default(),
            &[],
            &DispatchStats::default(),
            &DaemonGauges::default(),
        );
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
        let text = render(
            &empty_status(),
            &StageMetrics::default(),
            &StructureGauges::default(),
            &wire,
            &DispatchStats::default(),
            &DaemonGauges::default(),
        );
        assert!(text.contains("artemis_feed_reconnects_total{name=\"bmp0\"} 3"));
        assert!(text.contains(
            "artemis_bmp_peer_stat{name=\"bmp0\",peer=\"174\",stat=\"adj_rib_in\"} 900000"
        ));
        assert!(
            text.contains("artemis_bmp_peer_stat{name=\"bmp0\",peer=\"174\",stat=\"reports\"} 2")
        );
        assert!(text.contains("artemis_bmp_peer_downs_total{name=\"bmp0\",peer=\"174\"} 1"));
    }
}

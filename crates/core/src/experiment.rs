//! The PEERING-style hijack experiment harness (paper §3).
//!
//! Reproduces the paper's methodology on the simulated Internet:
//!
//! * **Phase 1 — Setup**: ASN-1 (the victim, a stub AS — exactly what a
//!   PEERING mux gives you) announces the prefix; we wait for BGP
//!   convergence ("until the announcement becomes visible to all the
//!   LGs in our arsenal").
//! * **Phase 2 — Hijacking and Detection**: ASN-2 announces the same
//!   prefix (or a more-specific) from a different edge of the graph;
//!   ARTEMIS watches its feeds; detection is the first feed event that
//!   raises an alert.
//! * **Phase 3 — Mitigation**: ARTEMIS de-aggregates through the
//!   controller; the experiment measures the instant the de-aggregated
//!   announcements leave the AS and the instant *every* vantage point
//!   selects the legitimate origin again.
//!
//! The run interleaves four clock domains deterministically — the BGP
//! engine, the controller's install queue, pull-feed polls, and
//! batched feed-event deliveries — by assembling an
//! [`ArtemisService`] (pipeline + controller) and delegating to
//! [`ArtemisService::run`]; the harness itself only assembles the
//! scenario and records milestones.

use crate::config::{ArtemisConfig, OwnedPrefix};
use crate::event_log::IncidentEvent;
use crate::monitor::TimelinePoint;
use crate::pipeline::Pipeline;
use crate::service::ArtemisService;
use artemis_bgp::{Asn, Prefix};
use artemis_bgpsim::{Engine, SimConfig};
use artemis_controller::{Controller, IntentKind};
use artemis_feeds::{
    vantage::group_into_collectors, FeedHub, FeedKind, LookingGlass, PeriscopeFeed, StreamFeed,
    VantageStrategy,
};
use artemis_simnet::{LatencyModel, SimDuration, SimRng, SimTime};
use artemis_topology::{generate, GeneratedTopology, TopologyConfig};
use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// The attack the adversary performs (Phase 2). The demo paper's
/// experiments perform `ExactOrigin`; the other kinds exercise the
/// detector's full classification taxonomy (documented extensions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// Announce the victim's exact prefix with the attacker as origin.
    ExactOrigin,
    /// Announce a more-specific of the victim's prefix.
    SubPrefix,
    /// Announce a more-specific with a forged path ending in the
    /// victim's ASN (evades origin-only checks).
    SubPrefixForgedOrigin,
    /// Announce the exact prefix with a forged victim-origin path
    /// (Type-1: fake adjacency attacker→victim).
    Type1FakeAdjacency,
}

impl AttackKind {
    /// Does this attack fabricate the AS_PATH?
    pub fn forges_path(self) -> bool {
        matches!(
            self,
            AttackKind::SubPrefixForgedOrigin | AttackKind::Type1FakeAdjacency
        )
    }

    /// Does this attack target a more-specific prefix?
    pub fn is_subprefix(self) -> bool {
        matches!(
            self,
            AttackKind::SubPrefix | AttackKind::SubPrefixForgedOrigin
        )
    }
}

/// Which live sources ARTEMIS uses (E3 ablates these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceSelection {
    /// RIS-live style stream.
    pub ris: bool,
    /// BGPmon style stream.
    pub bgpmon: bool,
    /// Periscope looking glasses.
    pub periscope: bool,
}

impl Default for SourceSelection {
    fn default() -> Self {
        SourceSelection {
            ris: true,
            bgpmon: true,
            periscope: true,
        }
    }
}

/// Builder for a hijack experiment.
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    /// Master seed (drives everything).
    pub seed: u64,
    /// Topology parameters.
    pub topology: TopologyConfig,
    /// BGP engine timing.
    pub sim: SimConfig,
    /// The owned/victim prefix.
    pub prefix: Prefix,
    /// The prefix the attacker announces (defaults to `prefix` = exact
    /// hijack; set a more-specific for sub-prefix experiments).
    pub hijack_prefix: Option<Prefix>,
    /// Number of stream vantage points (shared between RIS/BGPmon).
    pub stream_vps: usize,
    /// Number of RIS collectors the VPs are spread over.
    pub ris_collectors: usize,
    /// Number of Periscope looking glasses.
    pub lg_count: usize,
    /// LG poll interval (rate limit).
    pub lg_interval: SimDuration,
    /// Vantage selection strategy.
    pub vantage_strategy: VantageStrategy,
    /// Which sources are enabled.
    pub sources: SourceSelection,
    /// Controller install delay (paper ≈ 15 s).
    pub controller_delay: LatencyModel,
    /// RIS-live export pipeline delay (2016-era streaming service).
    pub ris_delay: LatencyModel,
    /// BGPmon export pipeline delay.
    pub bgpmon_delay: LatencyModel,
    /// Delay between Phase-1 convergence and the hijack launch.
    pub hijack_offset: SimDuration,
    /// Hard stop for the run.
    pub max_sim_time: SimDuration,
    /// Disable mitigation (detection-only runs, used by baselines).
    pub mitigate: bool,
    /// De-aggregation aggressiveness (ablation knob).
    pub deagg_policy: crate::config::DeaggregationPolicy,
    /// What the adversary does in Phase 2.
    pub attack: AttackKind,
}

impl Default for ExperimentBuilder {
    fn default() -> Self {
        // Calibration (DESIGN.md §4): half the eBGP sessions batch even
        // first advertisements (out-delay routers); the 2016-era RIS
        // streaming pipeline has a ~15 s median, BGPmon ~25 s. Together
        // with propagation this lands detection around the paper's
        // ≈ 45 s average and full mitigation in minutes.
        let sim = SimConfig {
            mrai_on_first: 0.5,
            ..SimConfig::default()
        };
        ExperimentBuilder {
            seed: 1,
            topology: TopologyConfig::medium(),
            sim,
            prefix: "10.0.0.0/23".parse().expect("static prefix"),
            hijack_prefix: None,
            stream_vps: 40,
            ris_collectors: 4,
            lg_count: 8,
            lg_interval: SimDuration::from_secs(60),
            vantage_strategy: VantageStrategy::Mixed,
            sources: SourceSelection::default(),
            controller_delay: LatencyModel::uniform_secs(10, 20),
            ris_delay: LatencyModel::LogNormal {
                median: SimDuration::from_secs(15),
                sigma: 0.5,
            },
            bgpmon_delay: LatencyModel::LogNormal {
                median: SimDuration::from_secs(25),
                sigma: 0.5,
            },
            hijack_offset: SimDuration::from_secs(30),
            max_sim_time: SimDuration::from_mins(360),
            mitigate: true,
            deagg_policy: crate::config::DeaggregationPolicy::OneLevel,
            attack: AttackKind::ExactOrigin,
        }
    }
}

impl ExperimentBuilder {
    /// A new builder with the given seed.
    pub fn new(seed: u64) -> Self {
        ExperimentBuilder {
            seed,
            ..Default::default()
        }
    }

    /// Small-topology variant for fast tests.
    pub fn tiny(seed: u64) -> Self {
        ExperimentBuilder {
            seed,
            topology: TopologyConfig::tiny(),
            stream_vps: 6,
            ris_collectors: 2,
            lg_count: 2,
            ..ExperimentBuilder::new(seed)
        }
    }

    /// Assemble and run to completion.
    pub fn run(self) -> ExperimentOutcome {
        Experiment::assemble(self).run()
    }
}

/// Timing results of one experiment (the paper's Section-3 numbers).
#[derive(Debug, Clone, Default)]
pub struct PhaseTimings {
    /// Phase-1 convergence instant.
    pub setup_converged: Option<SimTime>,
    /// Hijack launch instant (start of the measured incident).
    pub hijack_launched: Option<SimTime>,
    /// First alert instant (paper: ≈ 45 s after launch).
    pub detected_at: Option<SimTime>,
    /// De-aggregated announcements leave the AS (paper: ≈ 15 s after
    /// detection).
    pub mitigation_started: Option<SimTime>,
    /// Every vantage point back on the legitimate origin (paper: ≈
    /// 5 min after the announcements; ≈ 6 min total).
    pub resolved_at: Option<SimTime>,
}

impl PhaseTimings {
    /// Detection delay (launch → alert).
    pub fn detection_delay(&self) -> Option<SimDuration> {
        Some(self.detected_at?.saturating_since(self.hijack_launched?))
    }

    /// Mitigation trigger delay (alert → announcements out).
    pub fn trigger_delay(&self) -> Option<SimDuration> {
        Some(self.mitigation_started?.saturating_since(self.detected_at?))
    }

    /// Mitigation completion (announcements out → all VPs recovered).
    pub fn completion_delay(&self) -> Option<SimDuration> {
        Some(self.resolved_at?.saturating_since(self.mitigation_started?))
    }

    /// Total incident lifetime under ARTEMIS (launch → recovery).
    pub fn total_delay(&self) -> Option<SimDuration> {
        Some(self.resolved_at?.saturating_since(self.hijack_launched?))
    }
}

/// Ground-truth routing measurements taken during the run.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// ASes routing to the hijacker when mitigation started.
    pub hijacked_at_mitigation: usize,
    /// ASes routing to the victim at the end of the run.
    pub recovered_at_end: usize,
    /// ASes routing to the hijacker at the end of the run.
    pub hijacked_at_end: usize,
    /// Total ASes.
    pub total_ases: usize,
}

/// Everything a run produces.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// Milestone timings.
    pub timings: PhaseTimings,
    /// Which feed won the detection race.
    pub detected_by: Option<FeedKind>,
    /// Hijack classification of the first alert.
    pub hijack_type: Option<crate::classify::HijackType>,
    /// Ground truth from the engine.
    pub ground_truth: GroundTruth,
    /// Monitor timeline (for the demo viz).
    pub timeline: Vec<TimelinePoint>,
    /// Milestones for pretty-printing.
    pub milestones: Vec<(SimTime, String)>,
    /// LG events returned (route rows observed via Periscope).
    pub lg_queries: u64,
    /// Actual LG queries issued (overhead axis of E3).
    pub lg_polls: u64,
    /// Virtual time elapsed from hijack launch to run end (normalizes
    /// overhead into queries/minute).
    pub elapsed_after_hijack: SimDuration,
    /// Feed events processed by the detector.
    pub feed_events: u64,
    /// Number of vantage points (streams + LGs).
    pub vantage_count: usize,
    /// The victim / attacker pair.
    pub victim: Asn,
    /// Attacker AS.
    pub attacker: Asn,
}

/// An assembled experiment ready to run.
pub struct Experiment {
    builder: ExperimentBuilder,
    engine: Engine,
    service: ArtemisService,
    victim: Asn,
    attacker: Asn,
    prefix: Prefix,
    hijack_prefix: Prefix,
    vantage_count: usize,
}

impl Experiment {
    /// Build topology, engine, feeds, controller and app.
    pub fn assemble(builder: ExperimentBuilder) -> Experiment {
        let master = SimRng::new(builder.seed);
        let mut rng_topo = master.fork("experiment/topology");
        let topo: GeneratedTopology = generate(&builder.topology, &mut rng_topo);

        // Victim and attacker: two distinct stub ASes, like two PEERING
        // muxes at different sites.
        let mut rng_roles = master.fork("experiment/roles");
        let victim = topo.stubs[rng_roles.index(topo.stubs.len())];
        let attacker = loop {
            let cand = topo.stubs[rng_roles.index(topo.stubs.len())];
            if cand != victim {
                break cand;
            }
        };

        // Vantage points for the streams.
        let mut rng_vps = master.fork("experiment/vantage");
        let vps = builder.vantage_strategy.select(
            &topo.graph,
            builder.stream_vps,
            &[victim, attacker],
            &mut rng_vps,
        );

        // Feeds.
        let mut hub = FeedHub::new(master.fork("experiment/feeds"));
        let mut all_vps: BTreeSet<Asn> = BTreeSet::new();
        if builder.sources.ris {
            let half = vps.len().div_ceil(2);
            let ris_vps = &vps[..half];
            all_vps.extend(ris_vps);
            hub.add(Box::new(
                StreamFeed::ris_live(group_into_collectors(
                    "rrc",
                    ris_vps,
                    builder.ris_collectors,
                ))
                .with_export_delay(builder.ris_delay.clone()),
            ));
        }
        if builder.sources.bgpmon {
            let half = vps.len() / 2;
            let mon_vps = &vps[vps.len() - half..];
            all_vps.extend(mon_vps);
            hub.add(Box::new(
                StreamFeed::bgpmon(group_into_collectors(
                    "bmon",
                    mon_vps,
                    2.max(builder.ris_collectors / 2),
                ))
                .with_export_delay(builder.bgpmon_delay.clone()),
            ));
        }
        if builder.sources.periscope && builder.lg_count > 0 {
            let mut rng_lg = master.fork("experiment/lgs");
            let lg_vps = VantageStrategy::TopDegree.select(
                &topo.graph,
                builder.lg_count,
                &[victim, attacker],
                &mut rng_lg,
            );
            all_vps.extend(&lg_vps);
            let lgs: Vec<LookingGlass> = lg_vps
                .iter()
                .enumerate()
                .map(|(i, vp)| LookingGlass {
                    name: format!("lg-{i:02}").into(),
                    vantage: *vp,
                    min_interval: builder.lg_interval,
                    response_latency: LatencyModel::uniform_millis(1_000, 4_000),
                })
                .collect();
            hub.add(Box::new(PeriscopeFeed::new(
                lgs,
                vec![builder.prefix],
                &mut rng_lg,
            )));
        }

        // The operator's ARTEMIS instance.
        let owned = OwnedPrefix::new(builder.prefix, victim)
            .with_neighbors(topo.graph.neighbors(victim).map(|(n, _)| n));
        let mut config = ArtemisConfig::new(victim, vec![owned]);
        config.auto_mitigate = builder.mitigate;
        config.deaggregation_policy = builder.deagg_policy;
        let pipeline = Pipeline::new(hub, config, all_vps.clone());

        let controller = Controller::new(
            victim,
            builder.controller_delay.clone(),
            master.fork("experiment/controller"),
        );

        let engine = Engine::new(topo.graph.clone(), builder.sim.clone(), builder.seed);
        let prefix = builder.prefix;
        let hijack_prefix = builder.hijack_prefix.unwrap_or_else(|| {
            if builder.attack.is_subprefix() {
                prefix.split().map(|(lo, _)| lo).unwrap_or(prefix)
            } else {
                prefix
            }
        });

        Experiment {
            vantage_count: all_vps.len(),
            builder,
            engine,
            service: ArtemisService::new(pipeline, controller),
            victim,
            attacker,
            prefix,
            hijack_prefix,
        }
    }

    /// The assembled operator control plane (read access).
    pub fn service(&self) -> &ArtemisService {
        &self.service
    }

    /// The victim AS chosen for this run.
    pub fn victim(&self) -> Asn {
        self.victim
    }

    /// The attacker AS chosen for this run.
    pub fn attacker(&self) -> Asn {
        self.attacker
    }

    /// Run all three phases.
    pub fn run(mut self) -> ExperimentOutcome {
        let mut milestones: Vec<(SimTime, String)> = Vec::new();
        let mut timings = PhaseTimings::default();
        let mut detected_by = None;
        let mut hijack_type = None;
        let mut ground_truth = GroundTruth {
            total_ases: self.engine.graph().as_count(),
            ..Default::default()
        };

        // ---- Phase 1: setup & convergence -------------------------------
        self.service.pipeline_mut().expect_announcement(self.prefix);
        self.engine.announce(self.victim, self.prefix);
        let changes = self.engine.run_to_quiescence(10_000_000);
        self.service.pipeline_mut().ingest_route_changes(&changes);
        let converged = self.engine.now();
        timings.setup_converged = Some(converged);
        milestones.push((
            converged,
            format!(
                "phase-1 converged ({} announced by {})",
                self.prefix, self.victim
            ),
        ));

        // ---- Phase 2: hijack --------------------------------------------
        let t_hijack = converged + self.builder.hijack_offset;
        if self.builder.attack.forges_path() {
            // Fabricate a path claiming direct adjacency to the victim.
            self.engine.announce_forged_at(
                self.attacker,
                self.hijack_prefix,
                artemis_bgp::AsPath::from_sequence([self.victim]),
                t_hijack,
            );
        } else {
            self.engine
                .announce_at(self.attacker, self.hijack_prefix, t_hijack);
        }
        timings.hijack_launched = Some(t_hijack);
        milestones.push((
            t_hijack,
            format!(
                "hijack launched: {} announces {}",
                self.attacker, self.hijack_prefix
            ),
        ));

        // ---- Interleaved main loop (delegated to the pipeline) ----------
        // The observer records milestones/timings and stops the run at
        // the first resolution — this harness measures exactly one
        // incident; multi-incident drivers keep the pipeline running.
        let horizon = SimTime::ZERO + self.builder.max_sim_time;
        let attacker = self.attacker;
        let hijack_prefix = self.hijack_prefix;
        let report = self
            .service
            .run(&mut self.engine, converged, horizon, |engine, event| {
                match event {
                    IncidentEvent::ControllerApplied {
                        kind: IntentKind::Announce,
                        prefix,
                        at,
                    } if timings.mitigation_started.is_none() => {
                        timings.mitigation_started = Some(*at);
                        let probes = probe_targets(hijack_prefix);
                        ground_truth.hijacked_at_mitigation = engine
                            .ases()
                            .collect::<Vec<_>>()
                            .into_iter()
                            .filter(|a| {
                                probes
                                    .iter()
                                    .any(|p| engine.origin_of(*a, *p) == Some(attacker))
                            })
                            .count();
                        milestones.push((
                            *at,
                            format!(
                                "mitigation announcements out: {prefix} (controller install done)"
                            ),
                        ));
                    }
                    IncidentEvent::MitigationTriggered { plan, at, .. } => {
                        milestones.push((
                            *at,
                            format!(
                                "mitigation triggered: announce {:?} (rationale: {})",
                                plan.announce, plan.rationale
                            ),
                        ));
                    }
                    IncidentEvent::Resolved { at, .. } if timings.resolved_at.is_none() => {
                        timings.resolved_at = Some(*at);
                        milestones.push((
                            *at,
                            "RESOLVED: all vantage points back on the legitimate origin".into(),
                        ));
                    }
                    // Alerts are read back below from the detector's
                    // store; only the first install and the first
                    // resolution are milestones.
                    _ => {}
                }
                if timings.resolved_at.is_some() {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
        let loop_now = report.ended_at;

        // First-alert details (detection instant, winning feed,
        // classification) from the detector's store. The milestone is
        // spliced in *before* same-instant mitigation entries so the
        // narrated order matches causality.
        if let Some(alert) = self.service.pipeline().detector().alerts().all().first() {
            timings.detected_at = Some(alert.detected_at);
            detected_by = Some(alert.detected_by);
            hijack_type = Some(alert.hijack_type);
            let at = alert.detected_at;
            let idx = milestones
                .iter()
                .position(|(t, _)| *t >= at)
                .unwrap_or(milestones.len());
            milestones.insert(idx, (at, format!("DETECTED: {alert}")));
        }

        // The loop may break on resolution while later controller
        // installs are still in flight (e.g. the 9th of 16 /24s):
        // apply them before judging the end state.
        let leftover = self
            .service
            .controller_mut()
            .due_actions(SimTime::from_micros(u64::MAX));
        for action in leftover {
            let at = action.effective_at.max(self.engine.now());
            match action.kind {
                IntentKind::Announce => {
                    self.engine.announce_at(action.origin_as, action.prefix, at)
                }
                IntentKind::Withdraw => {
                    self.engine.withdraw_at(action.origin_as, action.prefix, at)
                }
            }
        }

        // Drain remaining engine events so end-state ground truth is the
        // converged post-mitigation Internet. Recovery is measured on
        // the *address space* (LPM probes into both halves of the
        // hijacked prefix): after de-aggregation the /23 route may
        // still point at the attacker somewhere, but the /24s cover
        // every address — exactly the paper's recovery condition.
        self.engine.run_to_quiescence(10_000_000);
        let probes = probe_targets(self.hijack_prefix);
        let (mut recovered, mut hijacked) = (0usize, 0usize);
        for asn in self.engine.ases().collect::<Vec<_>>() {
            let origins: Vec<Option<Asn>> = probes
                .iter()
                .map(|p| self.engine.origin_of(asn, *p))
                .collect();
            if origins.iter().all(|o| *o == Some(self.victim)) {
                recovered += 1;
            }
            if origins.contains(&Some(self.attacker)) {
                hijacked += 1;
            }
        }
        ground_truth.recovered_at_end = recovered;
        ground_truth.hijacked_at_end = hijacked;

        let timeline = self
            .service
            .pipeline()
            .detector()
            .alerts()
            .all()
            .first()
            .and_then(|a| {
                let p = self.service.pipeline();
                // A resolved incident's monitor has retired; its
                // recorded timeline is preserved on the retired record.
                p.monitor_for(a.id)
                    .map(|m| m.timeline().to_vec())
                    .or_else(|| p.retired_monitor(a.id).map(|r| r.timeline().to_vec()))
            })
            .unwrap_or_default();

        milestones.sort_by_key(|(t, _)| *t);

        let lg_queries = {
            // Periscope is the only pull feed; find it in the hub stats.
            self.service
                .pipeline()
                .hub()
                .emission_stats()
                .iter()
                .filter(|((kind, _), _)| *kind == FeedKind::Periscope)
                .map(|(_, v)| *v)
                .sum::<u64>()
        };
        let lg_polls = self.service.pipeline().hub().polls_executed();
        let run_end = timings.resolved_at.unwrap_or(loop_now);
        let elapsed_after_hijack = run_end.saturating_since(t_hijack);

        ExperimentOutcome {
            timings,
            detected_by,
            hijack_type,
            ground_truth,
            timeline,
            milestones,
            lg_queries,
            lg_polls,
            elapsed_after_hijack,
            feed_events: self.service.pipeline().detector().events_processed(),
            vantage_count: self.vantage_count,
            victim: self.victim,
            attacker: self.attacker,
        }
    }
}

/// LPM probes covering the full address space of `prefix`.
///
/// Probes must be at least as specific as anything the mitigation may
/// announce, otherwise LPM attribution misses the mitigation routes
/// (a /21 probe cannot see a /24 announcement). We probe at the
/// de-aggregation filter limit (/24 v4, /48 v6), capped at 32 probes
/// for very short prefixes — the experiments use /16…/24 victims, all
/// fully covered.
fn probe_targets(prefix: Prefix) -> Vec<Prefix> {
    let filter_limit: u8 = match prefix.afi() {
        artemis_bgp::prefix::Afi::Ipv4 => 24,
        artemis_bgp::prefix::Afi::Ipv6 => 48,
    };
    if prefix.len() >= filter_limit {
        return vec![prefix];
    }
    let target = filter_limit.min(prefix.len() + 5); // ≤ 32 probes
    let probes = prefix.deaggregate(target);
    if probes.is_empty() {
        vec![prefix]
    } else {
        probes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_outcome(seed: u64) -> ExperimentOutcome {
        ExperimentBuilder::tiny(seed).run()
    }

    #[test]
    fn full_cycle_detects_and_resolves() {
        let out = quick_outcome(7);
        assert!(out.timings.detected_at.is_some(), "hijack must be detected");
        assert!(
            out.timings.mitigation_started.is_some(),
            "mitigation must start"
        );
        assert!(out.timings.resolved_at.is_some(), "incident must resolve");
        // Ordering of milestones.
        let t = &out.timings;
        assert!(t.hijack_launched.unwrap() < t.detected_at.unwrap());
        assert!(t.detected_at.unwrap() < t.mitigation_started.unwrap());
        assert!(t.mitigation_started.unwrap() <= t.resolved_at.unwrap());
    }

    #[test]
    fn detection_is_fast_mitigation_minutes() {
        let out = quick_outcome(3);
        let det = out.timings.detection_delay().unwrap();
        assert!(
            det < SimDuration::from_mins(5),
            "detection should be well under minutes, got {det}"
        );
        let total = out.timings.total_delay().unwrap();
        assert!(
            total < SimDuration::from_mins(30),
            "total should be minutes, got {total}"
        );
    }

    #[test]
    fn trigger_delay_matches_controller_calibration() {
        let out = quick_outcome(11);
        let trig = out.timings.trigger_delay().unwrap();
        assert!(
            trig >= SimDuration::from_secs(10) && trig <= SimDuration::from_secs(21),
            "trigger delay {trig} should reflect the 10–20 s controller"
        );
    }

    #[test]
    fn ground_truth_recovery() {
        let out = quick_outcome(13);
        // After de-aggregation the /24s cover the whole space — even
        // the attacker's own traffic goes to the victim by LPM.
        assert_eq!(
            out.ground_truth.hijacked_at_end, 0,
            "no AS may still route to the attacker: {:?}",
            out.ground_truth
        );
        assert_eq!(
            out.ground_truth.recovered_at_end, out.ground_truth.total_ases,
            "everyone recovered: {:?}",
            out.ground_truth
        );
        assert!(
            out.ground_truth.hijacked_at_mitigation > 0,
            "the hijack must have polluted someone before mitigation"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = quick_outcome(21);
        let b = quick_outcome(21);
        assert_eq!(a.timings.detected_at, b.timings.detected_at);
        assert_eq!(a.timings.resolved_at, b.timings.resolved_at);
        assert_eq!(a.victim, b.victim);
        assert_eq!(a.attacker, b.attacker);
    }

    #[test]
    fn seeds_vary_timings() {
        let a = quick_outcome(1);
        let b = quick_outcome(2);
        assert!(
            a.timings.detected_at != b.timings.detected_at
                || a.victim != b.victim
                || a.timings.resolved_at != b.timings.resolved_at,
            "different seeds should differ somewhere"
        );
    }

    #[test]
    fn no_mitigation_mode_detects_but_never_resolves() {
        let mut b = ExperimentBuilder::tiny(3);
        b.mitigate = false;
        b.max_sim_time = SimDuration::from_mins(30);
        let out = b.run();
        assert!(out.timings.detected_at.is_some());
        assert!(out.timings.mitigation_started.is_none());
        assert!(out.timings.resolved_at.is_none());
        assert!(out.ground_truth.hijacked_at_end > 1, "hijack persists");
    }

    #[test]
    fn subprefix_hijack_variant() {
        let mut b = ExperimentBuilder::tiny(9);
        b.hijack_prefix = Some("10.0.0.0/24".parse().unwrap());
        let out = b.run();
        assert_eq!(
            out.hijack_type,
            Some(crate::classify::HijackType::SubPrefix)
        );
        assert!(out.timings.detected_at.is_some());
    }

    #[test]
    fn stream_only_and_lg_only_both_detect() {
        for sources in [
            SourceSelection {
                ris: true,
                bgpmon: false,
                periscope: false,
            },
            SourceSelection {
                ris: false,
                bgpmon: false,
                periscope: true,
            },
        ] {
            let mut b = ExperimentBuilder::tiny(17);
            b.sources = sources;
            let out = b.run();
            assert!(
                out.timings.detected_at.is_some(),
                "sources {sources:?} failed to detect"
            );
        }
    }

    #[test]
    fn milestones_are_ordered() {
        let out = quick_outcome(19);
        let times: Vec<SimTime> = out.milestones.iter().map(|(t, _)| *t).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
        assert!(out.feed_events > 0);
        assert!(out.vantage_count > 0);
    }
}

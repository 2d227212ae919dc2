//! The batched multi-prefix detection pipeline.
//!
//! A [`Pipeline`] is the reusable event loop that used to live inside
//! the experiment harness: it owns the [`FeedHub`], the sharded
//! multi-prefix [`Detector`], one incident record per alert and the
//! [`Mitigator`], and consumes feed events in **batches**
//! ([`FeedHub::drain_batch`] merge-sorts everything due by
//! `emitted_at` into one reusable buffer).
//!
//! An incident is one alert's whole lifecycle — detection, mitigation,
//! recovery — in one slot of a `Vec` at the alert's position (alert ids
//! are positions in the [`AlertStore`]): its [`MonitorService`] and
//! where its mitigation plan stands (none, held for the operator, or
//! executed). When the incident is over the monitor retires in place
//! ([`MonitorService::retire`]) and the record stays, so every reader
//! looks an incident up once, with [`Pipeline::monitor`], whatever its
//! phase.
//!
//! Because the detector shards its state per owned prefix and every
//! alert gets its own monitor, several concurrent incidents on
//! different prefixes each run an independent
//! alert → mitigation → resolution lifecycle — the multi-victim /
//! simultaneous-attack operator configurations of the journal version
//! of the paper ("ARTEMIS: Neutralizing BGP Hijacking within a
//! Minute"), which the old single-alert experiment loop structurally
//! could not represent.
//!
//! Since the control-plane redesign the pipeline is also **runtime
//! reconfigurable**: owned prefixes onboard/offboard mid-run
//! ([`Pipeline::add_owned_prefix`] / [`Pipeline::remove_owned_prefix`]),
//! feeds attach/detach by stable handle, per-prefix
//! [`MitigationPolicy`] swaps at any instant, and mitigation can
//! pause/resume without stopping detection. Everything noteworthy is
//! recorded once, as an owned, serializable [`IncidentEvent`] in an
//! internal [`EventLog`] — poll it with [`Pipeline::poll_events`]; any
//! number of cursors replay the same history independently.
//!
//! Drivers have two entry points, and both are batches through the
//! same commit (a classify pass over the batch, then one ordered walk
//! that detects, feeds every concerned monitor and resolves, event by
//! event) — there is no second code path that walks events:
//!
//! * [`Pipeline::deliver_due`] — drain everything due and commit it as
//!   one batch (the daemon's pump, archive replays, benches).
//! * [`Pipeline::deliver`] — hand-feed a single event: a batch of one
//!   (deployments that bring their own transport, `/v1/inject`, and
//!   the simulator driver in `artemis_bench`, which commits each due
//!   event alone so its observer can stop between any two).
//!
//! Deployments that want typed commands/queries over these primitives
//! should use [`crate::service::ArtemisService`].

use crate::alert::{AlertId, AlertState, AlertStore};
use crate::config::{ArtemisConfig, OwnedPrefix};
use crate::detector::{Detection, Detector, PreparedEvent};
use crate::event_log::{EventCursor, EventLog, IncidentEvent, PollBatch};
use crate::metrics::StageMetrics;
use crate::mitigation::{MitigationPlan, MitigationPolicy, Mitigator};
use crate::monitor::{MonitorIndex, MonitorService};
use artemis_bgp::{Asn, Prefix};
use artemis_controller::{Controller, ControllerAction};
use artemis_feeds::{EmptyRibView, FeedEvent, FeedHandle, FeedHub, FeedSource};
use artemis_simnet::{SimRng, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// What [`Pipeline::remove_owned_prefix`] did while winding the
/// prefix down.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OffboardReport {
    /// The removed prefix's configuration at offboard time.
    pub owned: OwnedPrefix,
    /// Alerts that were still open and got closed (their monitors are
    /// frozen for reporting, exactly like naturally resolved ones).
    pub closed_alerts: Vec<AlertId>,
    /// Executed mitigation plans that were withdrawn through the
    /// controller so no intent keeps originating offboarded space.
    pub withdrawn_plans: usize,
    /// Feed events the removed shard processed over its lifetime.
    pub shard_events: u64,
}

/// True when `id`'s plan executed and the incident is not over: the
/// condition under which an all-legitimate monitor resolves it.
fn is_mitigating(alerts: &AlertStore, id: AlertId) -> bool {
    alerts
        .get(id)
        .is_some_and(|a| a.state == AlertState::Mitigating)
}

/// Where an incident's mitigation plan stands.
enum Plan {
    /// None computed (detect-only policy), or discarded or withdrawn
    /// when the prefix was offboarded.
    None,
    /// Computed and held for the operator (confirm-first policy, or
    /// mitigation paused).
    Held(MitigationPlan),
    /// Executed through the controller. It stays installed after the
    /// incident resolves, until the prefix is offboarded.
    Executed(MitigationPlan),
}

/// One alert's incident: its monitor (live while the alert is open,
/// retired in place once it is over) and its mitigation plan.
struct Incident {
    monitor: MonitorService,
    plan: Plan,
}

/// `id`'s position in [`Pipeline`]'s incident records (its position
/// in the [`AlertStore`]), for ids the pipeline raised itself.
fn slot(id: AlertId) -> usize {
    usize::try_from(id.0).expect("alert ids are positions in memory")
}

/// Saturating elapsed nanoseconds since `t0`.
fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The assembled ARTEMIS pipeline: feeds → sharded detection →
/// per-alert monitoring → automatic mitigation.
pub struct Pipeline {
    hub: FeedHub,
    detector: Detector,
    mitigator: Mitigator,
    /// One record per alert, at the alert's position: raising an
    /// alert is a push, a lookup is an index.
    incidents: Vec<Incident>,
    /// Prefix index over the live monitors' targets: routes an event
    /// to its covering set of relevant monitors instead of scanning
    /// every incident. Insert on alert raise, remove on retirement.
    monitor_index: MonitorIndex,
    /// Alerts whose mitigation executed *outside* event delivery
    /// (operator confirm, or resume after a pause). Their monitors may
    /// already be all-legitimate, so the resolution condition must be
    /// re-evaluated at the next delivered event even when that event is
    /// irrelevant to them — exactly what the historical full-registry
    /// scan did implicitly.
    recheck: BTreeSet<AlertId>,
    /// Reusable routing buffer for [`MonitorIndex::route`].
    route_buf: Vec<AlertId>,
    /// Vantage population handed to new monitors.
    vantage_points: BTreeSet<Asn>,
    /// True while mitigation is paused (detection continues).
    paused: bool,
    /// Owned, replayable record of everything noteworthy.
    log: EventLog,
    /// Reusable drain buffer for batched feed consumption.
    batch: Vec<FeedEvent>,
    events_delivered: u64,
    /// Reusable batch-aligned classification buffer.
    prepared: Vec<PreparedEvent>,
    /// Wall-clock per-stage batch latency (observability only; never
    /// part of deterministic snapshots).
    stage_metrics: StageMetrics,
}

impl Pipeline {
    /// Assemble a pipeline around a configured feed hub.
    ///
    /// The owned-prefix table moves into the detector's shard rules —
    /// the one copy the pipeline keeps (see
    /// [`Detector::owned_prefixes`]); the mitigator only needs the
    /// operator-wide knobs.
    pub fn new(hub: FeedHub, mut config: ArtemisConfig, vantage_points: BTreeSet<Asn>) -> Self {
        let owned = std::mem::take(&mut config.owned);
        Pipeline {
            hub,
            mitigator: Mitigator::new(config.clone()),
            detector: Detector::new(ArtemisConfig { owned, ..config }),
            incidents: Vec::new(),
            monitor_index: MonitorIndex::new(),
            recheck: BTreeSet::new(),
            route_buf: Vec::new(),
            vantage_points,
            paused: false,
            log: EventLog::new(),
            batch: Vec::new(),
            events_delivered: 0,
            prepared: Vec::new(),
            stage_metrics: StageMetrics::default(),
        }
    }

    /// A pipeline with no feeds attached — for drivers that deliver
    /// events by hand through [`Pipeline::deliver`].
    pub fn bare(config: ArtemisConfig, vantage_points: BTreeSet<Asn>) -> Self {
        Pipeline::new(FeedHub::new(SimRng::new(0)), config, vantage_points)
    }

    /// Replace the event log's retention (builder style; events pushed
    /// so far are dropped).
    pub fn with_event_capacity(mut self, capacity: usize) -> Self {
        self.log = EventLog::with_capacity(capacity);
        self
    }

    /// Read access to the feed hub.
    pub fn hub(&self) -> &FeedHub {
        &self.hub
    }

    /// Mutable access to the feed hub (add feeds before running).
    pub fn hub_mut(&mut self) -> &mut FeedHub {
        &mut self.hub
    }

    /// Read access to the detector.
    pub fn detector(&self) -> &Detector {
        &self.detector
    }

    /// `alert`'s monitor: live while the incident is open, retired
    /// (frozen counts and timeline) once it is over.
    pub fn monitor(&self, alert: AlertId) -> Option<&MonitorService> {
        self.incident(alert).map(|i| &i.monitor)
    }

    fn incident(&self, alert: AlertId) -> Option<&Incident> {
        self.incidents.get(usize::try_from(alert.0).ok()?)
    }

    /// True while `alert`'s plan is computed and held for the operator.
    pub(crate) fn plan_held(&self, alert: AlertId) -> bool {
        self.incident(alert)
            .is_some_and(|i| matches!(i.plan, Plan::Held(_)))
    }

    /// Number of retired (over) incidents (capacity gauge).
    pub fn retired_count(&self) -> usize {
        self.incidents.len() - self.monitor_index.len()
    }

    /// Timeline points folded away by [`crate::monitor::TIMELINE_CAP`]
    /// over every incident so far, live and retired (monotone; 0
    /// unless some incident outlived the cap).
    pub fn timeline_coalesced_points(&self) -> u64 {
        self.incidents
            .iter()
            .map(|i| i.monitor.coalesced_points())
            .sum()
    }

    /// Wall-clock per-stage batch latency of the delivery path
    /// (observability only; see [`StageMetrics`] for why this is kept
    /// out of deterministic snapshots).
    pub fn stage_metrics(&self) -> &StageMetrics {
        &self.stage_metrics
    }

    /// Feed events delivered to the detector so far.
    pub fn events_delivered(&self) -> u64 {
        self.events_delivered
    }

    // ---- Owned event stream -----------------------------------------

    /// Everything recorded since `cursor` (owned, serializable
    /// events). Any number of consumers poll with independent cursors
    /// and replay identical histories.
    pub fn poll_events(&self, cursor: EventCursor) -> PollBatch {
        self.log.poll(cursor)
    }

    /// Read access to the event log (capacity/len accounting).
    pub fn event_log(&self) -> &EventLog {
        &self.log
    }

    /// Record that the routing layer applied a controller intent at
    /// `at` (see [`crate::ArtemisService::take_due_intents`]).
    pub(crate) fn log_controller_applied(&mut self, action: &ControllerAction, at: SimTime) {
        self.log.push(IncidentEvent::ControllerApplied {
            kind: action.kind,
            prefix: action.prefix,
            at,
        });
    }

    // ---- Runtime reconfiguration ------------------------------------

    /// Onboard an owned prefix mid-run: a fresh detector shard, an
    /// optional per-prefix [`MitigationPolicy`] override, and a
    /// `PrefixOnboarded` event. Returns `false` (no change) when the
    /// prefix is already configured.
    pub fn add_owned_prefix(
        &mut self,
        owned: OwnedPrefix,
        policy: Option<MitigationPolicy>,
        now: SimTime,
    ) -> bool {
        let prefix = owned.prefix;
        if !self.detector.add_shard(owned) {
            return false;
        }
        if let Some(p) = policy {
            self.mitigator.set_policy(prefix, p);
        }
        self.log
            .push(IncidentEvent::PrefixOnboarded { prefix, at: now });
        true
    }

    /// Offboard an owned prefix mid-run.
    ///
    /// In-flight incidents on the prefix are closed: their monitors
    /// freeze (kept for reporting, skipped on ingestion), their held
    /// plans are discarded, and every *executed* mitigation plan is
    /// withdrawn through the controller — so no operator intent keeps
    /// originating offboarded address space. Returns
    /// `None` when the prefix is not configured.
    pub fn remove_owned_prefix(
        &mut self,
        prefix: Prefix,
        now: SimTime,
        controller: &mut Controller,
    ) -> Option<OffboardReport> {
        let removed = self.detector.remove_shard(prefix)?;
        self.mitigator.clear_policy(prefix);
        // Withdraw every plan still installed on this prefix, in id
        // order — a naturally resolved incident keeps its de-aggregated
        // announcements installed by design, so resolved alerts need
        // the withdrawal just as much as open ones — and discard the
        // held ones.
        let mut withdrawn_plans = 0usize;
        for incident in &mut self.incidents {
            if incident.monitor.target() != prefix {
                continue;
            }
            if let Plan::Executed(plan) = std::mem::replace(&mut incident.plan, Plan::None) {
                self.mitigator.withdraw(&plan, now, controller, &mut []);
                withdrawn_plans += 1;
            }
        }
        let closed_alerts = removed.open_alerts;
        for id in &closed_alerts {
            self.recheck.remove(id);
            self.retire(*id, now);
        }
        self.log.push(IncidentEvent::PrefixOffboarded {
            prefix,
            closed_alerts: closed_alerts.clone(),
            at: now,
        });
        Some(OffboardReport {
            owned: removed.owned,
            closed_alerts,
            withdrawn_plans,
            shard_events: removed.events,
        })
    }

    /// Attach a feed mid-run, returning its stable handle.
    pub fn attach_feed(&mut self, feed: Box<dyn FeedSource>, now: SimTime) -> FeedHandle {
        let handle = self.hub.add(feed);
        self.log
            .push(IncidentEvent::FeedAttached { handle, at: now });
        handle
    }

    /// Detach a feed mid-run, dropping its queued undelivered events
    /// (see `FeedHub::remove` for the exact semantics). Returns how
    /// many were dropped, or `None` for an unknown handle.
    pub fn detach_feed(&mut self, handle: FeedHandle, now: SimTime) -> Option<usize> {
        let (_, dropped_events) = self.hub.remove(handle)?;
        self.log.push(IncidentEvent::FeedDetached {
            handle,
            dropped_events,
            at: now,
        });
        Some(dropped_events)
    }

    /// Run every pull feed that is ready at `now`, queueing whatever
    /// they return onto their lanes in the hub. Live wire feeds
    /// ([`artemis_feeds::BmpLiveFeed`]) report readiness exactly when
    /// their socket ring holds events, so a daemon pump loop can call
    /// this every tick at negligible idle cost. Uses an
    /// [`EmptyRibView`]: wire feeds never inspect simulated routing
    /// state (RIB-inspecting pull feeds belong to simulation drivers,
    /// which poll the hub themselves with a real routing view).
    pub fn poll_feeds(&mut self, now: SimTime) {
        if self.hub.next_poll(now).is_some() {
            self.hub.poll_and_queue(now, &EmptyRibView);
        }
    }

    /// Swap the mitigation policy of an owned prefix. Returns `false`
    /// for prefixes not currently configured.
    pub fn set_mitigation_policy(
        &mut self,
        prefix: Prefix,
        policy: MitigationPolicy,
        now: SimTime,
    ) -> bool {
        if self.detector.owned_rules(prefix).is_none() {
            return false;
        }
        self.mitigator.set_policy(prefix, policy);
        self.log.push(IncidentEvent::PolicyChanged {
            prefix,
            policy,
            at: now,
        });
        true
    }

    /// The mitigation policy in force for an owned prefix.
    pub fn mitigation_policy(&self, prefix: Prefix) -> MitigationPolicy {
        self.mitigator.policy_for(prefix)
    }

    /// Pause mitigation service-wide: detection and monitoring keep
    /// running; new plans are computed and *held* as pending instead
    /// of executing. Idempotent.
    pub fn pause_mitigation(&mut self, now: SimTime) {
        if !self.paused {
            self.paused = true;
            self.log.push(IncidentEvent::MitigationPaused { at: now });
        }
    }

    /// Resume mitigation: held plans whose prefix policy is
    /// [`MitigationPolicy::Auto`] execute now (confirm-first plans
    /// keep waiting for their confirmation). Returns the alerts whose
    /// plans executed. No-op when not paused.
    pub fn resume_mitigation(&mut self, now: SimTime, controller: &mut Controller) -> Vec<AlertId> {
        if !self.paused {
            return Vec::new();
        }
        self.paused = false;
        let to_run: Vec<AlertId> = self
            .pending_mitigations()
            .map(|(id, _)| id)
            .filter(|id| {
                self.detector.alerts().get(*id).is_some_and(|a| {
                    self.mitigator.policy_for(a.owned_prefix) == MitigationPolicy::Auto
                })
            })
            .collect();
        for id in &to_run {
            self.confirm_mitigation(*id, now, controller);
        }
        self.log.push(IncidentEvent::MitigationResumed {
            executed_alerts: to_run.clone(),
            at: now,
        });
        to_run
    }

    /// True while mitigation is paused.
    pub fn mitigation_paused(&self) -> bool {
        self.paused
    }

    /// Execute the held plan of a confirm-first (or paused-era) alert.
    /// Returns the executed plan, or `None` when nothing is pending
    /// for the alert.
    pub fn confirm_mitigation(
        &mut self,
        alert: AlertId,
        now: SimTime,
        controller: &mut Controller,
    ) -> Option<MitigationPlan> {
        let incident = self.incidents.get_mut(usize::try_from(alert.0).ok()?)?;
        let Plan::Held(plan) = std::mem::replace(&mut incident.plan, Plan::None) else {
            return None;
        };
        self.execute_held_plan(alert, plan.clone(), now, controller);
        // The alert turned `Mitigating` outside delivery, and its (open)
        // monitor may already be all-legitimate: the hijack could have
        // withered while the plan was held. The next delivered event
        // re-evaluates it even if that event is irrelevant to it.
        self.recheck.insert(alert);
        Some(plan)
    }

    /// Every alert with a computed-but-held plan, in alert order.
    pub fn pending_mitigations(&self) -> impl Iterator<Item = (AlertId, &MitigationPlan)> {
        self.incidents
            .iter()
            .enumerate()
            .filter_map(|(i, incident)| match &incident.plan {
                Plan::Held(plan) => Some((AlertId(i as u64), plan)),
                _ => None,
            })
    }

    // ---- Event delivery ---------------------------------------------

    /// Tell the detector that a prefix announcement of ours is
    /// expected (phase-1 setup, planned anycast, …).
    pub fn expect_announcement(&mut self, prefix: Prefix) {
        self.detector.expect_announcement(prefix);
    }

    /// Drain pending BMP `peer_down` signals from the hub's wire feeds
    /// and purge each downed peer from every live monitor's per-VP
    /// view (a retired monitor has none left): a vantage point whose
    /// session to the collector is gone no longer has current routes,
    /// so it returns to `Unknown` until it reports again. Called
    /// automatically by [`Pipeline::deliver_due`]; callers that drain
    /// the hub themselves call it before each drain. Returns the
    /// number of `(peer, monitor)` purges applied.
    pub fn apply_peer_downs(&mut self, at: SimTime) -> usize {
        let downs = self.hub.take_peer_downs();
        if downs.is_empty() {
            return 0;
        }
        let mut purged = 0;
        for vp in &downs {
            for incident in &mut self.incidents {
                purged += usize::from(incident.monitor.purge_vantage(*vp, at));
            }
        }
        purged
    }

    /// Feed one monitoring event through detection, monitoring and
    /// (policy permitting) automatic mitigation — a batch of one
    /// through the same commit as a drained backlog: its classify pass
    /// and its walk each see one event. `controller` receives mitigation
    /// intents when a new alert fires. Returns the
    /// alert the event raised, if any (one event raises at most one);
    /// everything else it caused is in the event log.
    pub fn deliver(&mut self, event: &FeedEvent, controller: &mut Controller) -> Option<AlertId> {
        self.commit_batch(std::slice::from_ref(event), controller)
    }

    /// Steps 1–3 of committing one event: commit its prepared
    /// classification, and — on a new alert — record it, spin up and
    /// index its monitor, and run the policy-gated mitigation. Returns
    /// the newly raised alert (if any) plus the wall-clock nanoseconds
    /// the mitigation sub-stage took (0 on the overwhelmingly common
    /// no-alert path, which never reads the clock).
    fn detect_and_arm(
        &mut self,
        event: &FeedEvent,
        prepared: PreparedEvent,
        controller: &mut Controller,
    ) -> (Option<AlertId>, u64) {
        // 1. Detection: the detector re-classifies against live state
        // whenever the owning shard's rules changed since the batch was
        // prepared (an earlier event's mitigation registered an
        // expectation), so the outcome never depends on batch shape.
        let Detection::NewAlert(id) = self.detector.process_prepared(event, prepared) else {
            return (None, 0);
        };

        let alert = self.detector.alerts().get(id).expect("just created");
        let hijack_type = alert.hijack_type;
        let owned_prefix = alert.owned_prefix;
        let observed_prefix = alert.observed_prefix;
        let at = event.emitted_at;
        self.log.push(IncidentEvent::AlertRaised {
            alert: id,
            owned_prefix,
            observed_prefix,
            hijack_type,
            at,
        });

        // 2. Spin up a monitor scoped to the attacked prefix. Each
        // alert gets its own, so concurrent incidents on different
        // prefixes track independent recovery timelines. The rules
        // come from the detector's routing structure — a keyed
        // lookup, not a scan over the whole owned portfolio.
        let legitimate_origins = self
            .detector
            .owned_rules(owned_prefix)
            .expect("alert references configured prefix")
            .legitimate_origins
            .clone();
        let monitor = MonitorService::new(
            owned_prefix,
            legitimate_origins,
            self.vantage_points.clone(),
        );
        debug_assert_eq!(slot(id), self.incidents.len(), "alert ids are positions");
        self.incidents.push(Incident {
            monitor,
            plan: Plan::None,
        });
        self.monitor_index.insert(owned_prefix, id);

        // 3. Mitigation, governed by the prefix's policy.
        let policy = self.mitigator.policy_for(owned_prefix);
        let mut mitigate_ns = 0u64;
        if policy != MitigationPolicy::DetectOnly {
            let clock = Instant::now();
            let alert = self.detector.alerts().get(id).expect("just created");
            let plan = self.mitigator.plan(alert);
            if policy == MitigationPolicy::Auto && !self.paused {
                self.execute_held_plan(id, plan, at, controller);
            } else {
                // Confirm-first policy, or Auto while paused: the
                // plan is computed and held for the operator.
                self.incidents[slot(id)].plan = Plan::Held(plan.clone());
                self.log.push(IncidentEvent::MitigationPending {
                    alert: id,
                    plan,
                    at,
                });
            }
            mitigate_ns = elapsed_ns(clock);
        }
        (Some(id), mitigate_ns)
    }

    /// End an open incident at `at` (healed, or closed by offboarding):
    /// mark its alert resolved, unindex its monitor and retire it in
    /// place.
    fn retire(&mut self, id: AlertId, at: SimTime) {
        self.detector.alerts_mut().mark_resolved(id, at);
        let monitor = &mut self.incidents[slot(id)].monitor;
        self.monitor_index.remove(monitor.target(), id);
        monitor.retire();
    }

    /// Drain every queued feed event due by `upto` and deliver it as
    /// **one** batch, using the caller's controller. Returns the number
    /// of events delivered.
    ///
    /// This is the bulk-ingestion surface for drivers that pump live
    /// feeds or replay pre-queued streams (the daemon, benchmarks,
    /// archive replays): the whole backlog becomes a single batch —
    /// exactly the `drain_batch` contract — preserving the global
    /// `(emitted_at, ingestion order)` delivery order.
    pub fn deliver_due(&mut self, upto: SimTime, controller: &mut Controller) -> u64 {
        let mut batch = self.drain_due(upto);
        self.commit_batch(&batch, controller);
        let delivered = batch.len() as u64;
        batch.clear();
        self.batch = batch;
        delivered
    }

    /// Apply pending peer-downs, then drain every queued feed event
    /// due by `upto` into the reusable batch buffer (handed to the
    /// caller, who puts it back) and record the drain stage.
    fn drain_due(&mut self, upto: SimTime) -> Vec<FeedEvent> {
        self.apply_peer_downs(upto);
        let t0 = Instant::now();
        let mut batch = std::mem::take(&mut self.batch);
        let (_, split) = self.hub.drain_batch_timed(upto, &mut batch);
        let drained = batch.len() as u64;
        if drained > 0 {
            let m = &mut self.stage_metrics;
            m.drain.record(drained, t0.elapsed());
            m.drain_seal
                .record(drained, Duration::from_nanos(split.seal_nanos));
            m.drain_merge
                .record(drained, Duration::from_nanos(split.merge_nanos));
        }
        batch
    }

    /// The batch commit — the only code that walks events. Both entry
    /// points ([`Pipeline::deliver_due`], [`Pipeline::deliver`]) hand
    /// it a batch in `(emitted_at, ingestion order)`; every lifecycle
    /// fact goes to the event log in delivery order. Returns the last
    /// alert the batch raised, if any.
    ///
    /// Two passes. The first classifies the whole batch in one tight
    /// loop (the flat trie and shard rules stay hot in cache). The
    /// second walks the batch once, in order; at each event it commits
    /// detection (a monitor born here is indexed before the event is
    /// routed, so it sees its own birth event), routes the event
    /// through the [`MonitorIndex`] into every monitor it concerns, and
    /// resolves, in ascending id order, each of those monitors that is
    /// now all-legitimate on a `Mitigating` alert — before the next
    /// event's detection, so dedup against resolved alerts (a re-hijack
    /// is a NEW alert) sees them. Alerts mitigated outside delivery
    /// (`recheck`) join the first event's route whether or not it
    /// concerns them: their monitor may already be all-legitimate.
    ///
    /// The outcome is independent of how a stream is cut into batches:
    /// the walk is the singleton delivery repeated, and the detector
    /// re-classifies any event whose shard rules changed after the
    /// classify pass. Each stage records its own [`crate::StageStat`]
    /// (see [`StageMetrics`]).
    fn commit_batch(
        &mut self,
        batch: &[FeedEvent],
        controller: &mut Controller,
    ) -> Option<AlertId> {
        if batch.is_empty() {
            return None;
        }
        let delivered = batch.len() as u64;

        // --- classify: start the detector's batch (dirty tracking),
        // then one sequential pass over the events.
        let t1 = Instant::now();
        self.detector.begin_batch();
        let t1b = Instant::now();
        let mut prep = std::mem::take(&mut self.prepared);
        prep.clear();
        prep.extend(batch.iter().map(|event| self.detector.prepare(event)));
        let t2 = Instant::now();

        // --- commit walk: detection, monitoring and resolution, event
        // by event.
        let mut route = std::mem::take(&mut self.route_buf);
        let mut healed: Vec<AlertId> = Vec::new();
        let mut last_raised = None;
        let mut mitigate_ns = 0u64;
        let mut resolve_ns = 0u64;
        for (i, event) in batch.iter().enumerate() {
            self.events_delivered += 1;
            let (new_alert, mit_ns) = self.detect_and_arm(event, prep[i], controller);
            mitigate_ns += mit_ns;
            last_raised = new_alert.or(last_raised);

            self.monitor_index.route(event.prefix, &mut route);
            if i == 0 && !self.recheck.is_empty() {
                route.extend(std::mem::take(&mut self.recheck));
                route.sort_unstable();
                route.dedup();
            }
            for id in &route {
                let monitor = &mut self.incidents[slot(*id)].monitor;
                monitor.ingest(event);
                if monitor.all_legitimate() && is_mitigating(self.detector.alerts(), *id) {
                    healed.push(*id);
                }
            }
            if !healed.is_empty() {
                let clock = Instant::now();
                for id in healed.drain(..) {
                    self.retire(id, event.emitted_at);
                    self.log.push(IncidentEvent::Resolved {
                        alert: id,
                        at: event.emitted_at,
                    });
                }
                resolve_ns += elapsed_ns(clock);
            }
        }
        self.route_buf = route;
        let t3 = Instant::now();
        self.prepared = prep;

        let m = &mut self.stage_metrics;
        m.classify.record(delivered, t2 - t1);
        m.classify_snapshot.record(delivered, t1b - t1);
        m.classify_prepare.record(delivered, t2 - t1b);
        m.commit.record(delivered, t3 - t2);
        let walk_ns = u64::try_from((t3 - t2).as_nanos()).unwrap_or(u64::MAX);
        let detect_ns = walk_ns.saturating_sub(mitigate_ns + resolve_ns);
        m.detect.record(delivered, Duration::from_nanos(detect_ns));
        m.resolve
            .record(delivered, Duration::from_nanos(resolve_ns));
        m.mitigate
            .record(delivered, Duration::from_nanos(mitigate_ns));
        last_raised
    }

    /// Shared tail of the auto/confirm/resume execution paths for a
    /// plan that was computed earlier and held.
    fn execute_held_plan(
        &mut self,
        id: AlertId,
        plan: MitigationPlan,
        now: SimTime,
        controller: &mut Controller,
    ) {
        for p in &plan.announce {
            self.detector.expect_announcement(*p);
        }
        // A Squatting plan announces the dormant prefix itself: from
        // now on it is active, and the echo of our own announcement
        // must classify under normal rules.
        let alert = self.detector.alerts().get(id).expect("alert exists");
        let (owned_prefix, squat) = (
            alert.owned_prefix,
            alert.hijack_type == crate::classify::HijackType::Squatting,
        );
        if squat {
            self.detector.activate_prefix(owned_prefix);
        }
        self.mitigator.execute(&plan, now, controller, &mut []);
        self.detector.alerts_mut().mark_mitigating(id, now);
        self.incidents[slot(id)].plan = Plan::Executed(plan.clone());
        self.log.push(IncidentEvent::MitigationTriggered {
            alert: id,
            plan,
            at: now,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::AlertState;
    use crate::config::OwnedPrefix;
    use crate::event_log::EventCursor;
    use artemis_bgp::AsPath;
    use artemis_controller::IntentKind;
    use artemis_feeds::FeedKind;
    use artemis_simnet::LatencyModel;
    use std::str::FromStr;

    fn pfx(s: &str) -> Prefix {
        Prefix::from_str(s).unwrap()
    }

    fn event(vp: u32, prefix: &str, path: &[u32], t: u64) -> FeedEvent {
        FeedEvent::new(
            SimTime::from_secs(t),
            SimTime::from_secs(t.saturating_sub(5)),
            FeedKind::RisLive,
            Asn(vp),
            pfx(prefix),
            Some(&AsPath::from_sequence(path.iter().copied())),
            None,
        )
    }

    fn two_prefix_pipeline() -> Pipeline {
        let config = ArtemisConfig::new(
            Asn(65001),
            vec![
                OwnedPrefix::new(pfx("10.0.0.0/23"), Asn(65001)),
                OwnedPrefix::new(pfx("172.16.0.0/23"), Asn(65001)),
            ],
        );
        Pipeline::bare(config, [Asn(174), Asn(3356)].into_iter().collect())
    }

    fn controller() -> Controller {
        Controller::new(Asn(65001), LatencyModel::const_secs(15), SimRng::new(1))
    }

    /// Deliver one event and return what it appended to the log.
    fn deliver(p: &mut Pipeline, ev: &FeedEvent, ctrl: &mut Controller) -> Vec<IncidentEvent> {
        let cursor = p.event_log().live_cursor();
        p.deliver(ev, ctrl);
        p.poll_events(cursor).events
    }

    /// Minimal wire-feed stand-in: contributes no events, only queued
    /// `peer_down` signals.
    struct PeerDownFeed {
        downs: Vec<Asn>,
    }

    impl artemis_feeds::FeedSource for PeerDownFeed {
        fn kind(&self) -> FeedKind {
            FeedKind::BmpLive
        }
        fn name(&self) -> &str {
            "stub-bmp"
        }
        fn on_route_change_into(
            &mut self,
            _change: &artemis_bgp::RouteChange,
            _rng: &mut SimRng,
            _out: &mut Vec<FeedEvent>,
        ) {
        }
        fn next_poll(&self, _now: SimTime) -> Option<SimTime> {
            None
        }
        fn poll(
            &mut self,
            _at: SimTime,
            _view: &dyn artemis_feeds::RibView,
            _rng: &mut SimRng,
        ) -> Vec<FeedEvent> {
            Vec::new()
        }
        fn events_emitted(&self) -> u64 {
            0
        }
        fn take_peer_downs(&mut self) -> Vec<Asn> {
            std::mem::take(&mut self.downs)
        }
    }

    #[test]
    fn peer_down_purges_vantage_from_live_monitors() {
        use crate::monitor::VpState;
        let mut p = two_prefix_pipeline();
        let mut ctrl = controller();
        let raised = |acts: Vec<IncidentEvent>| match acts[0] {
            IncidentEvent::AlertRaised { alert, .. } => alert,
            ref other => panic!("hijack must alert, got {other:?}"),
        };
        // AS174 reports into two incidents; the one on 172.16.0.0/23
        // heals and retires.
        let alert = raised(deliver(
            &mut p,
            &event(174, "10.0.0.0/23", &[174, 666], 45),
            &mut ctrl,
        ));
        let healed = raised(deliver(
            &mut p,
            &event(174, "172.16.0.0/23", &[174, 667], 46),
            &mut ctrl,
        ));
        deliver(
            &mut p,
            &event(174, "172.16.0.0/24", &[174, 65001], 47),
            &mut ctrl,
        );
        assert_eq!(p.retired_count(), 1);
        assert_eq!(
            p.monitor(alert).unwrap().vp_observation(Asn(174)).0,
            VpState::Hijacked
        );
        let retired = p.monitor(healed).unwrap();
        let (counts, timeline) = (retired.snapshot(SimTime::ZERO), retired.timeline().to_vec());
        assert_eq!((counts.legitimate, counts.unknown), (1, 1));

        p.hub_mut().add(Box::new(PeerDownFeed {
            downs: vec![Asn(174)],
        }));
        let purged = p.apply_peer_downs(SimTime::from_secs(50));
        assert_eq!(purged, 1, "one (peer, monitor) purge: the live one");
        assert_eq!(
            p.monitor(alert).unwrap().vp_observation(Asn(174)).0,
            VpState::Unknown,
            "the downed peer's routes are gone from the per-VP view"
        );
        let retired = p.monitor(healed).unwrap();
        assert_eq!(
            retired.snapshot(SimTime::ZERO),
            counts,
            "retired: untouched"
        );
        assert_eq!(retired.timeline(), timeline);
        assert_eq!(
            p.apply_peer_downs(SimTime::from_secs(51)),
            0,
            "the signal drains on first application"
        );
    }

    #[test]
    fn concurrent_incidents_on_distinct_prefixes_are_independent() {
        let mut p = two_prefix_pipeline();
        let mut ctrl = controller();

        // Two overlapping hijacks on different owned prefixes.
        let acts1 = deliver(
            &mut p,
            &event(174, "10.0.0.0/23", &[174, 666], 45),
            &mut ctrl,
        );
        let acts2 = deliver(
            &mut p,
            &event(3356, "172.16.0.0/23", &[3356, 667], 50),
            &mut ctrl,
        );
        let IncidentEvent::AlertRaised { alert: a1, .. } = acts1[0] else {
            panic!("first hijack must alert");
        };
        let IncidentEvent::AlertRaised { alert: a2, .. } = acts2[0] else {
            panic!("second hijack must alert");
        };
        assert_ne!(a1, a2);
        assert_eq!(p.detector().shard_events(pfx("10.0.0.0/23")), Some(1));
        assert_eq!(p.detector().shard_events(pfx("172.16.0.0/23")), Some(1));

        // Both mitigations triggered independently (4 intents: 2 × /24s).
        assert_eq!(ctrl.intents().count(), 4);
        assert_eq!(p.monitor_index.len(), 2);

        // Resolve incident 2 first; incident 1 stays active. The
        // monitor judges the hijacked vantage by LPM, so the echoed
        // mitigation /24 flips it back.
        let acts = deliver(
            &mut p,
            &event(3356, "172.16.0.0/24", &[3356, 65001], 80),
            &mut ctrl,
        );
        assert!(
            acts.iter()
                .any(|a| matches!(a, IncidentEvent::Resolved { alert, at }
                    if *alert == a2 && *at == SimTime::from_secs(80))),
            "incident on 172.16.0.0/23 resolves alone: {acts:?}"
        );
        let alert1 = p.detector().alerts().get(a1).unwrap();
        assert_ne!(alert1.state, AlertState::Resolved);

        // Now resolve incident 1, on its own timeline.
        let acts = deliver(
            &mut p,
            &event(174, "10.0.0.0/24", &[174, 65001], 120),
            &mut ctrl,
        );
        assert!(acts
            .iter()
            .any(|a| matches!(a, IncidentEvent::Resolved { alert, at }
                if *alert == a1 && *at == SimTime::from_secs(120))));

        // Independent timelines on independent monitors. Both
        // incidents are over, so their monitors retired in place.
        let t1 = p.monitor(a1).unwrap();
        let t2 = p.monitor(a2).unwrap();
        assert_eq!(t1.target(), pfx("10.0.0.0/23"));
        assert_eq!(t2.target(), pfx("172.16.0.0/23"));
        assert!(!t1.timeline().is_empty());
        assert!(!t2.timeline().is_empty());
        assert_eq!(t1.snapshot(SimTime::ZERO).hijacked, 0);
        assert_eq!(p.retired_count(), 2);
    }

    #[test]
    fn squatting_mitigation_echo_does_not_realert() {
        // Regression: the echo of a Squatting mitigation's own
        // announcement used to re-enter detection and raise/update a
        // squatting alert against ourselves.
        let config = ArtemisConfig::new(
            Asn(65001),
            vec![OwnedPrefix::new(pfx("203.0.113.0/24"), Asn(65001)).dormant()],
        );
        let mut p = Pipeline::bare(config, [Asn(174), Asn(3356)].into_iter().collect());
        let mut ctrl = controller();

        // Attacker squats the dormant prefix → alert + mitigation
        // (announce the prefix ourselves).
        let acts = deliver(
            &mut p,
            &event(174, "203.0.113.0/24", &[174, 31337], 45),
            &mut ctrl,
        );
        let IncidentEvent::AlertRaised { alert, .. } = acts[0] else {
            panic!("squat must alert, got {acts:?}");
        };
        assert!(matches!(
            &acts[1],
            IncidentEvent::MitigationTriggered { plan, .. }
                if plan.announce == vec![pfx("203.0.113.0/24")]
        ));

        // Our own announcement echoes back through the feeds: no new
        // alert, and the vantage point flipping to the legitimate
        // origin resolves the incident.
        let acts = deliver(
            &mut p,
            &event(174, "203.0.113.0/24", &[174, 65001], 80),
            &mut ctrl,
        );
        assert!(
            acts.iter()
                .all(|a| !matches!(a, IncidentEvent::AlertRaised { .. })),
            "echo must not self-alert: {acts:?}"
        );
        assert!(
            acts.iter()
                .any(|a| matches!(a, IncidentEvent::Resolved { alert: a2, .. } if *a2 == alert)),
            "legitimate echo resolves the squat: {acts:?}"
        );
        assert_eq!(p.detector().alerts().all().len(), 1, "exactly one alert");
    }

    #[test]
    fn bare_pipeline_has_empty_hub() {
        let p = two_prefix_pipeline();
        assert!(p.hub().is_empty());
        assert_eq!(p.hub.next_emission(), None);
        assert_eq!(p.events_delivered(), 0);
    }

    #[test]
    fn confirm_first_policy_holds_the_plan_until_confirmed() {
        let mut p = two_prefix_pipeline();
        let mut ctrl = controller();
        assert!(p.set_mitigation_policy(
            pfx("10.0.0.0/23"),
            MitigationPolicy::ConfirmFirst,
            SimTime::from_secs(1),
        ));

        let acts = deliver(
            &mut p,
            &event(174, "10.0.0.0/23", &[174, 666], 45),
            &mut ctrl,
        );
        let IncidentEvent::AlertRaised { alert: id, .. } = acts[0] else {
            panic!("must alert");
        };
        assert!(
            matches!(&acts[1], IncidentEvent::MitigationPending { alert, .. } if *alert == id),
            "plan held, not executed: {acts:?}"
        );
        assert_eq!(ctrl.intents().count(), 0, "no intents before confirmation");
        assert_eq!(p.pending_mitigations().count(), 1);

        // More witnesses update the alert but cannot resolve anything
        // yet (nothing is mitigated).
        let acts = deliver(
            &mut p,
            &event(3356, "10.0.0.0/23", &[3356, 666], 60),
            &mut ctrl,
        );
        assert!(acts
            .iter()
            .all(|a| !matches!(a, IncidentEvent::Resolved { .. })));
        assert_eq!(p.pending_mitigations().count(), 1, "still one held plan");

        // Operator confirms: the held plan executes verbatim.
        let plan = p
            .confirm_mitigation(id, SimTime::from_secs(70), &mut ctrl)
            .expect("plan was pending");
        assert_eq!(plan.announce, vec![pfx("10.0.0.0/24"), pfx("10.0.1.0/24")]);
        assert_eq!(ctrl.intents().count(), 2);
        assert_eq!(p.pending_mitigations().count(), 0);
        assert_eq!(
            p.detector().alerts().get(id).unwrap().state,
            AlertState::Mitigating
        );
        assert!(
            p.confirm_mitigation(id, SimTime::from_secs(71), &mut ctrl)
                .is_none(),
            "double-confirm is a no-op"
        );

        // Now recovery resolves the incident as usual once every
        // witnessing vantage point flips back.
        deliver(
            &mut p,
            &event(174, "10.0.0.0/24", &[174, 65001], 120),
            &mut ctrl,
        );
        let acts = deliver(
            &mut p,
            &event(3356, "10.0.0.0/24", &[3356, 65001], 121),
            &mut ctrl,
        );
        assert!(acts
            .iter()
            .any(|a| matches!(a, IncidentEvent::Resolved { alert, .. } if *alert == id)));
    }

    #[test]
    fn pause_holds_auto_plans_and_resume_executes_them() {
        let mut p = two_prefix_pipeline();
        let mut ctrl = controller();
        p.pause_mitigation(SimTime::from_secs(10));
        assert!(p.mitigation_paused());

        let acts = deliver(
            &mut p,
            &event(174, "10.0.0.0/23", &[174, 666], 45),
            &mut ctrl,
        );
        let IncidentEvent::AlertRaised { alert: id, .. } = acts[0] else {
            panic!("detection keeps running while paused");
        };
        assert!(matches!(&acts[1], IncidentEvent::MitigationPending { .. }));
        assert_eq!(ctrl.intents().count(), 0);

        let executed = p.resume_mitigation(SimTime::from_secs(90), &mut ctrl);
        assert_eq!(executed, vec![id]);
        assert!(!p.mitigation_paused());
        assert_eq!(ctrl.intents().count(), 2, "held plan executed on resume");
        assert_eq!(
            p.detector().alerts().get(id).unwrap().state,
            AlertState::Mitigating
        );
        assert!(
            p.resume_mitigation(SimTime::from_secs(91), &mut ctrl)
                .is_empty(),
            "resume is idempotent"
        );
    }

    #[test]
    fn detect_only_policy_never_computes_a_plan() {
        let mut p = two_prefix_pipeline();
        let mut ctrl = controller();
        assert!(p.set_mitigation_policy(
            pfx("10.0.0.0/23"),
            MitigationPolicy::DetectOnly,
            SimTime::ZERO,
        ));
        // Unknown prefixes are rejected.
        assert!(!p.set_mitigation_policy(pfx("8.8.8.0/24"), MitigationPolicy::Auto, SimTime::ZERO,));

        let acts = deliver(
            &mut p,
            &event(174, "10.0.0.0/23", &[174, 666], 45),
            &mut ctrl,
        );
        assert_eq!(acts.len(), 1, "alert only: {acts:?}");
        assert_eq!(ctrl.intents().count(), 0);
        assert_eq!(p.pending_mitigations().count(), 0);

        // The second prefix still mitigates automatically.
        let acts = deliver(
            &mut p,
            &event(174, "172.16.0.0/23", &[174, 666], 50),
            &mut ctrl,
        );
        assert!(acts
            .iter()
            .any(|a| matches!(a, IncidentEvent::MitigationTriggered { .. })));
    }

    #[test]
    fn onboard_offboard_roundtrip_with_active_incident() {
        let mut p = two_prefix_pipeline();
        let mut ctrl = controller();

        // Onboard a third prefix mid-run…
        let onboarded = p.add_owned_prefix(
            OwnedPrefix::new(pfx("192.0.2.0/24"), Asn(65001)),
            Some(MitigationPolicy::DetectOnly),
            SimTime::from_secs(5),
        );
        assert!(onboarded);
        assert!(!p.add_owned_prefix(
            OwnedPrefix::new(pfx("192.0.2.0/24"), Asn(65001)),
            None,
            SimTime::from_secs(6),
        ));
        assert_eq!(p.detector().shard_count(), 3);
        assert_eq!(
            p.mitigation_policy(pfx("192.0.2.0/24")),
            MitigationPolicy::DetectOnly
        );

        // …hijack the first prefix (auto-mitigates: 2 announce intents)…
        let acts = deliver(
            &mut p,
            &event(174, "10.0.0.0/23", &[174, 666], 45),
            &mut ctrl,
        );
        let IncidentEvent::AlertRaised { alert: id, .. } = acts[0] else {
            panic!("must alert");
        };
        assert_eq!(ctrl.intents().count(), 2);

        // …then offboard it while the incident is still active.
        let report = p
            .remove_owned_prefix(pfx("10.0.0.0/23"), SimTime::from_secs(60), &mut ctrl)
            .expect("prefix configured");
        assert_eq!(report.closed_alerts, vec![id]);
        assert_eq!(report.withdrawn_plans, 1);
        assert_eq!(report.shard_events, 1);
        assert!(p
            .remove_owned_prefix(pfx("10.0.0.0/23"), SimTime::from_secs(61), &mut ctrl)
            .is_none());

        // The alert is closed, its monitor frozen, and every announce
        // intent has a matching withdraw — nothing orphaned.
        assert_eq!(
            p.detector().alerts().get(id).unwrap().state,
            AlertState::Resolved
        );
        let announces = ctrl
            .intents()
            .filter(|i| i.kind == IntentKind::Announce)
            .count();
        let withdraws = ctrl
            .intents()
            .filter(|i| i.kind == IntentKind::Withdraw)
            .count();
        assert_eq!(announces, withdraws, "offboard must not orphan intents");

        // Events for the offboarded space are no longer ours.
        let acts = deliver(
            &mut p,
            &event(174, "10.0.0.0/23", &[174, 667], 70),
            &mut ctrl,
        );
        assert!(acts.is_empty());
        // The retired monitor froze at close time and ignored the new
        // event.
        assert_eq!(p.retired_count(), 1);
        let monitor = p.monitor(id).expect("kept for reporting");
        let last = monitor.timeline().last().map(|t| t.time);
        assert!(last.is_none_or(|t| t < SimTime::from_secs(70)));
    }

    #[test]
    fn offboard_after_natural_resolution_still_withdraws_the_plan() {
        // A resolved incident keeps its de-aggregated announcements
        // installed by design; offboarding the prefix must withdraw
        // them anyway, or the operator keeps originating space it no
        // longer owns. The second input nests an owned /24 inside the
        // offboarded /22, with a mitigated incident of its own: that
        // incident stays open and its plan stays installed.
        let nested_fleet = ArtemisConfig::new(
            Asn(65001),
            vec![
                OwnedPrefix::new(pfx("10.0.0.0/22"), Asn(65001)),
                OwnedPrefix::new(pfx("10.0.3.0/24"), Asn(65001)),
            ],
        );
        let inputs = [
            (two_prefix_pipeline(), "10.0.0.0/23", "10.0.0.0/24", None),
            (
                Pipeline::bare(nested_fleet, [Asn(174), Asn(3356)].into_iter().collect()),
                "10.0.0.0/22",
                "10.0.0.0/23",
                Some("10.0.3.0/24"),
            ),
        ];
        for (mut p, owned, echo, nested) in inputs {
            let mut ctrl = controller();
            let acts = deliver(&mut p, &event(174, owned, &[174, 666], 45), &mut ctrl);
            let IncidentEvent::AlertRaised { alert: id, .. } = acts[0] else {
                panic!("must alert");
            };
            // AS2914 is no monitored vantage point, so the /22's
            // monitor ignores the nested hijack and still resolves.
            let nested_alert = nested.map(|n| {
                let acts = deliver(&mut p, &event(2914, n, &[2914, 777], 50), &mut ctrl);
                let IncidentEvent::AlertRaised { alert, .. } = acts[0] else {
                    panic!("must alert");
                };
                alert
            });
            // The mitigation echo resolves the incident naturally.
            let acts = deliver(&mut p, &event(174, echo, &[174, 65001], 120), &mut ctrl);
            assert!(acts
                .iter()
                .any(|a| matches!(a, IncidentEvent::Resolved { alert, .. } if *alert == id)));

            let report = p
                .remove_owned_prefix(pfx(owned), SimTime::from_secs(200), &mut ctrl)
                .expect("prefix configured");
            assert!(report.closed_alerts.is_empty(), "nothing was still open");
            assert_eq!(report.withdrawn_plans, 1, "resolved plan still withdrawn");
            let announced: Vec<Prefix> = ctrl
                .intents()
                .filter(|i| i.kind == IntentKind::Announce && pfx(owned).contains(i.prefix))
                .filter(|i| nested.is_none_or(|n| !pfx(n).contains(i.prefix)))
                .map(|i| i.prefix)
                .collect();
            let withdrawn: Vec<Prefix> = ctrl
                .intents()
                .filter(|i| i.kind == IntentKind::Withdraw)
                .map(|i| i.prefix)
                .collect();
            assert_eq!(announced.len(), 2);
            assert_eq!(withdrawn, announced, "no intent keeps originating");
            assert!(
                matches!(p.incidents[slot(id)].plan, Plan::None),
                "plan bookkeeping cleared"
            );
            if let (Some(n), Some(nested_alert)) = (nested, nested_alert) {
                assert_eq!(
                    p.detector().alerts().get(nested_alert).unwrap().state,
                    AlertState::Mitigating
                );
                assert_eq!(p.monitor_index.len(), 1);
                let nested_incident = &p.incidents[slot(nested_alert)];
                assert_eq!(nested_incident.monitor.target(), pfx(n));
                assert!(matches!(nested_incident.plan, Plan::Executed(_)));
                let acts = deliver(&mut p, &event(2914, n, &[2914, 777], 210), &mut ctrl);
                assert!(
                    acts.is_empty(),
                    "the nested incident still absorbs: {acts:?}"
                );
            }

            // Onboarded again and offboarded once more, the prefix has
            // no plan left to withdraw.
            let intents = ctrl.intents().count();
            let owned_again = OwnedPrefix::new(pfx(owned), Asn(65001));
            assert!(p.add_owned_prefix(owned_again, None, SimTime::from_secs(300)));
            let again = p
                .remove_owned_prefix(pfx(owned), SimTime::from_secs(310), &mut ctrl)
                .expect("prefix configured");
            assert_eq!(again.withdrawn_plans, 0);
            assert_eq!(ctrl.intents().count(), intents, "no second withdraw");
        }
    }

    #[test]
    fn squat_seen_by_a_second_vantage_point_joins_the_open_alert() {
        // Regression: auto-mitigating a squat activates the dormant
        // prefix, so the next vantage point's view of the *same* rogue
        // announcement classifies ExactOrigin. That is the incident
        // already open, not a second one with a second plan.
        let config = ArtemisConfig::new(
            Asn(65001),
            vec![OwnedPrefix::new(pfx("203.0.113.0/24"), Asn(65001)).dormant()],
        );
        let mut p = Pipeline::bare(config, [Asn(174), Asn(3356)].into_iter().collect());
        let mut ctrl = controller();

        let mut acts = deliver(
            &mut p,
            &event(174, "203.0.113.0/24", &[174, 31337], 45),
            &mut ctrl,
        );
        acts.extend(deliver(
            &mut p,
            &event(3356, "203.0.113.0/24", &[3356, 31337], 50),
            &mut ctrl,
        ));
        let raised: Vec<AlertId> = acts
            .iter()
            .filter_map(|a| match a {
                IncidentEvent::AlertRaised { alert, .. } => Some(*alert),
                _ => None,
            })
            .collect();
        assert_eq!(raised.len(), 1, "one offender, one alert: {acts:?}");
        let triggered = acts
            .iter()
            .filter(|a| matches!(a, IncidentEvent::MitigationTriggered { .. }))
            .count();
        assert_eq!(triggered, 1, "one plan: {acts:?}");
        let alert = p.detector().alerts().get(raised[0]).unwrap();
        assert_eq!(
            alert.vantage_points,
            [Asn(174), Asn(3356)].into_iter().collect()
        );
        assert_eq!(alert.hijack_type, crate::HijackType::Squatting);
        assert_eq!(ctrl.intents().count(), 1, "the prefix is announced once");
    }

    // ---- Hand-fed single-prefix scenarios ---------------------------

    fn one_prefix_pipeline() -> Pipeline {
        let config = ArtemisConfig::new(
            Asn(65001),
            vec![OwnedPrefix::new(pfx("10.0.0.0/23"), Asn(65001))],
        );
        Pipeline::bare(config, [Asn(174), Asn(3356)].into_iter().collect())
    }

    /// One owned space per address family for the full incident cycle:
    /// the owned prefix, the two halves its mitigation announces, and a
    /// second owned prefix already at the family's de-aggregation limit.
    struct Fleet {
        owned: &'static str,
        halves: [&'static str; 2],
        at_limit: &'static str,
    }

    const FLEETS: [Fleet; 2] = [
        Fleet {
            owned: "10.0.0.0/23",
            halves: ["10.0.0.0/24", "10.0.1.0/24"],
            at_limit: "192.0.2.0/24",
        },
        Fleet {
            owned: "2001:db8::/32",
            halves: ["2001:db8::/33", "2001:db8:8000::/33"],
            at_limit: "2001:db9:1::/48",
        },
    ];

    #[test]
    fn full_cycle_detect_mitigate_resolve() {
        for fleet in &FLEETS {
            full_cycle(fleet);
        }
    }

    fn full_cycle(fleet: &Fleet) {
        let config = ArtemisConfig::new(
            Asn(65001),
            vec![
                OwnedPrefix::new(pfx(fleet.owned), Asn(65001)),
                OwnedPrefix::new(pfx(fleet.at_limit), Asn(65001)),
            ],
        );
        let mut p = Pipeline::bare(config, [Asn(174), Asn(3356)].into_iter().collect());
        let mut ctrl = controller();
        let [lo, hi] = fleet.halves;

        // Phase 1: legit announcement observed — benign.
        let acts = deliver(
            &mut p,
            &event(174, fleet.owned, &[174, 65001], 10),
            &mut ctrl,
        );
        assert!(acts.is_empty(), "{}", fleet.owned);

        // Phase 2: hijack detected at t=45 → alert + auto mitigation.
        let acts = deliver(&mut p, &event(174, fleet.owned, &[174, 666], 45), &mut ctrl);
        assert_eq!(acts.len(), 2, "{}", fleet.owned);
        let IncidentEvent::AlertRaised {
            alert: alert_id, ..
        } = acts[0]
        else {
            panic!("expected alert first, got {acts:?}");
        };
        match &acts[1] {
            IncidentEvent::MitigationTriggered { plan, at, .. } => {
                assert_eq!(plan.announce, vec![pfx(lo), pfx(hi)]);
                assert!(!plan.infeasible);
                assert_eq!(*at, SimTime::from_secs(45));
            }
            other => panic!("expected mitigation, got {other:?}"),
        }
        assert_eq!(ctrl.intents().count(), 2, "intents submitted to controller");

        // Phase 3: the halves propagate; VPs flip back. 3356 was also
        // hijacked, then recovers.
        deliver(
            &mut p,
            &event(3356, fleet.owned, &[3356, 666], 50),
            &mut ctrl,
        );
        deliver(&mut p, &event(174, lo, &[174, 65001], 120), &mut ctrl);
        deliver(&mut p, &event(174, hi, &[174, 65001], 121), &mut ctrl);
        // 3356 still hijacked → not resolved yet.
        let monitor = p.monitor(alert_id).expect("incident still open");
        assert_eq!(monitor.snapshot(SimTime::ZERO).hijacked, 1);
        let acts = deliver(&mut p, &event(3356, lo, &[3356, 65001], 300), &mut ctrl);
        let resolved = acts
            .iter()
            .find_map(|a| match a {
                IncidentEvent::Resolved { alert, at } => Some((*alert, *at)),
                _ => None,
            })
            .expect("incident resolves once every VP is clean");
        assert_eq!(resolved, (alert_id, SimTime::from_secs(300)));

        // An exact hijack at the limit: nothing longer may be announced,
        // so the plan re-announces the prefix and says it is infeasible.
        let acts = deliver(
            &mut p,
            &event(174, fleet.at_limit, &[174, 666], 400),
            &mut ctrl,
        );
        match &acts[..] {
            [IncidentEvent::AlertRaised { .. }, IncidentEvent::MitigationTriggered { plan, .. }] => {
                assert_eq!(plan.announce, vec![pfx(fleet.at_limit)]);
                assert!(plan.infeasible, "{}", fleet.at_limit);
            }
            other => panic!("expected alert and mitigation, got {other:?}"),
        }
    }

    #[test]
    fn mitigation_announcements_do_not_self_alert() {
        let mut p = one_prefix_pipeline();
        let mut ctrl = controller();
        deliver(
            &mut p,
            &event(174, "10.0.0.0/23", &[174, 666], 45),
            &mut ctrl,
        );
        // Our own /24s observed in the wild must not raise alerts.
        let acts = deliver(
            &mut p,
            &event(174, "10.0.0.0/24", &[174, 65001], 90),
            &mut ctrl,
        );
        assert!(acts
            .iter()
            .all(|a| !matches!(a, IncidentEvent::AlertRaised { .. })));
        assert_eq!(p.detector().alerts().all().len(), 1);
    }

    #[test]
    fn auto_mitigate_off_only_alerts() {
        let mut config = ArtemisConfig::new(
            Asn(65001),
            vec![OwnedPrefix::new(pfx("10.0.0.0/23"), Asn(65001))],
        );
        config.auto_mitigate = false;
        let mut p = Pipeline::bare(config, [Asn(174)].into_iter().collect());
        let mut ctrl = controller();
        let acts = deliver(
            &mut p,
            &event(174, "10.0.0.0/23", &[174, 666], 45),
            &mut ctrl,
        );
        assert_eq!(acts.len(), 1);
        assert!(matches!(acts[0], IncidentEvent::AlertRaised { .. }));
        assert_eq!(ctrl.intents().count(), 0);
    }

    #[test]
    fn second_hijacker_gets_its_own_alert_and_mitigation_once() {
        let mut p = one_prefix_pipeline();
        let mut ctrl = controller();
        deliver(
            &mut p,
            &event(174, "10.0.0.0/23", &[174, 666], 45),
            &mut ctrl,
        );
        let n_after_first = ctrl.intents().count();
        // Same hijack seen elsewhere: no new intents.
        deliver(
            &mut p,
            &event(3356, "10.0.0.0/23", &[3356, 666], 50),
            &mut ctrl,
        );
        assert_eq!(ctrl.intents().count(), n_after_first);
        // Different offending origin: new alert, new mitigation.
        let acts = deliver(
            &mut p,
            &event(174, "10.0.0.0/23", &[174, 667], 60),
            &mut ctrl,
        );
        assert!(acts
            .iter()
            .any(|a| matches!(a, IncidentEvent::AlertRaised { .. })));
        assert!(ctrl.intents().count() > n_after_first);
    }

    #[test]
    fn event_log_mirrors_the_lifecycle_for_independent_cursors() {
        let mut p = two_prefix_pipeline();
        let mut ctrl = controller();
        deliver(
            &mut p,
            &event(174, "10.0.0.0/23", &[174, 666], 45),
            &mut ctrl,
        );
        deliver(
            &mut p,
            &event(174, "10.0.0.0/24", &[174, 65001], 120),
            &mut ctrl,
        );
        let batch = p.poll_events(EventCursor::START);
        let kinds: Vec<&'static str> = batch
            .events
            .iter()
            .map(|e| match e {
                IncidentEvent::AlertRaised { .. } => "alert",
                IncidentEvent::MitigationTriggered { .. } => "mitigate",
                IncidentEvent::Resolved { .. } => "resolve",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, vec!["alert", "mitigate", "resolve"]);

        // A second cursor polled later sees the identical history.
        let batch2 = p.poll_events(EventCursor::START);
        assert_eq!(batch.events, batch2.events);
        // And an incremental cursor sees nothing new.
        assert!(p.poll_events(batch.next).events.is_empty());
    }

    #[test]
    fn coalesced_points_total_spans_live_and_retired_incidents() {
        use crate::monitor::TIMELINE_CAP;
        let mut p = two_prefix_pipeline();
        let mut ctrl = controller();
        let acts = deliver(
            &mut p,
            &event(3356, "10.0.0.0/23", &[3356, 666], 45),
            &mut ctrl,
        );
        let IncidentEvent::AlertRaised { alert: id, .. } = acts[0] else {
            panic!("hijack must alert");
        };
        // AS3356 stays on the hijacker, so the incident never heals
        // while AS174 flaps: one timeline point per flip, `extra` more
        // than the timeline holds.
        let extra = 7u64;
        for flip in 0..TIMELINE_CAP as u64 - 1 + extra {
            let origin = if flip % 2 == 0 { 666 } else { 65001 };
            deliver(
                &mut p,
                &event(174, "10.0.0.0/23", &[174, origin], 46 + flip),
                &mut ctrl,
            );
        }
        let live = p.monitor(id).expect("never healed");
        assert_eq!(live.timeline().len(), TIMELINE_CAP);
        assert_eq!(live.coalesced_points(), extra);
        assert_eq!(p.timeline_coalesced_points(), extra);

        // Closing the incident retires the monitor with its count; the
        // total does not move.
        let at = SimTime::from_secs(10_000);
        p.remove_owned_prefix(pfx("10.0.0.0/23"), at, &mut ctrl)
            .expect("prefix configured");
        assert_eq!(p.retired_count(), 1);
        assert_eq!(p.monitor(id).unwrap().coalesced_points(), extra);
        assert_eq!(p.timeline_coalesced_points(), extra);
    }
}

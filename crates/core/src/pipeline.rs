//! The batched multi-prefix detection pipeline.
//!
//! A [`Pipeline`] is the reusable event loop that used to live inside
//! the experiment harness: it owns the [`FeedHub`], the sharded
//! multi-prefix [`Detector`], the per-alert [`MonitorService`]
//! registry and the [`Mitigator`], and consumes feed events in
//! **batches** ([`FeedHub::drain_batch`] merge-sorts everything due by
//! `emitted_at` into one reusable buffer).
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
//! Drivers have three entry points, and all three are batches through
//! the same staged commit (classify pass → monitor route → monitor
//! replay in batch order → ordered detect/resolve walk) — there is no
//! second code path that walks events:
//!
//! * [`Pipeline::deliver_due`] — drain everything due and commit it as
//!   one batch (the daemon's pump, archive replays, benches).
//! * [`Pipeline::run`] — the full interleaved loop across the four
//!   clock domains (BGP engine, controller installs, pull-feed polls,
//!   feed-event deliveries); its observer reads the log entries each
//!   step appended. Each due event is committed as a batch of one so
//!   the observer can stop the run between any two events.
//! * [`Pipeline::deliver`] — hand-feed a single event: a batch of one
//!   (deployments that bring their own transport, `/v1/inject`).
//!
//! Deployments that want typed commands/queries over these primitives
//! should use [`crate::service::ArtemisService`].

use crate::alert::{AlertId, AlertState};
use crate::config::{ArtemisConfig, OwnedPrefix};
use crate::detector::{Detection, Detector, PreparedEvent};
use crate::event_log::{EventCursor, EventLog, IncidentEvent, PollBatch};
use crate::metrics::StageMetrics;
use crate::mitigation::{MitigationPlan, MitigationPolicy, Mitigator};
use crate::monitor::{MonitorIndex, MonitorService, RetiredMonitor};
use artemis_bgp::{Asn, Prefix};
use artemis_bgpsim::Engine;
use artemis_controller::{Controller, IntentKind};
use artemis_feeds::{EmptyRibView, EngineView, FeedEvent, FeedHandle, FeedHub, FeedSource};
use artemis_simnet::{SimRng, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

/// How a [`Pipeline::run`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunEnd {
    /// Every clock domain drained — nothing left to do.
    Drained,
    /// The time horizon was reached first.
    Horizon,
    /// The observer returned [`ControlFlow::Break`].
    Stopped,
}

/// Summary of one [`Pipeline::run`] invocation.
#[derive(Debug, Clone, Copy)]
pub struct RunReport {
    /// Virtual time when the loop exited.
    pub ended_at: SimTime,
    /// Why the loop exited.
    pub end: RunEnd,
    /// Feed events delivered to the detector during this run.
    pub events_delivered: u64,
}

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
    /// One monitor per live alert, created when the alert is raised,
    /// ascending by id. Alert ids only grow, so raising an alert is a
    /// push and a lookup is a binary search.
    monitors: Vec<(AlertId, MonitorService)>,
    /// Prefix index over the active monitors' targets: routes an event
    /// to its covering set of relevant monitors instead of scanning the
    /// whole registry. Kept in lockstep with `monitors` (insert on
    /// alert raise, remove on retire/offboard).
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
    /// Reusable monitor-route output, parallel to `monitors`: the batch
    /// indices routed to each monitor, ascending.
    routed: Vec<Vec<u32>>,
    /// Vantage population handed to new monitors.
    vantage_points: BTreeSet<Asn>,
    mitigated: BTreeSet<AlertId>,
    /// Compact records of incidents that are over (resolved, or closed
    /// by offboarding). Their full monitors are retired on resolution,
    /// so per-event cost *and* memory track active incidents, not
    /// lifetime incident count.
    retired: BTreeMap<AlertId, RetiredMonitor>,
    /// Sum of [`RetiredMonitor::coalesced_points`] over `retired`,
    /// kept as a count so a metrics scrape never walks the records.
    retired_coalesced_points: u64,
    /// Plans computed but held (confirm-first policy, or paused).
    pending: BTreeMap<AlertId, MitigationPlan>,
    /// Plans that were executed, for withdrawal on offboard.
    executed_plans: BTreeMap<AlertId, MitigationPlan>,
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
            monitors: Vec::new(),
            monitor_index: MonitorIndex::new(),
            recheck: BTreeSet::new(),
            route_buf: Vec::new(),
            routed: Vec::new(),
            vantage_points,
            mitigated: BTreeSet::new(),
            retired: BTreeMap::new(),
            retired_coalesced_points: 0,
            pending: BTreeMap::new(),
            executed_plans: BTreeMap::new(),
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

    /// The live monitor attached to an *active* alert, if any. Once
    /// the incident is over the monitor retires — see
    /// [`Pipeline::retired_monitor`].
    pub fn monitor_for(&self, alert: AlertId) -> Option<&MonitorService> {
        self.monitor_at(alert).map(|at| &self.monitors[at].1)
    }

    /// Position of `alert`'s live monitor in the registry.
    fn monitor_at(&self, alert: AlertId) -> Option<usize> {
        self.monitors
            .binary_search_by_key(&alert, |(id, _)| *id)
            .ok()
    }

    /// Take `alert`'s live monitor out of the registry.
    fn take_monitor(&mut self, alert: AlertId) -> Option<MonitorService> {
        let at = self.monitor_at(alert)?;
        Some(self.monitors.remove(at).1)
    }

    /// Every active `(alert, monitor)` pair, in alert-raise order.
    pub fn monitors(&self) -> impl Iterator<Item = (AlertId, &MonitorService)> {
        self.monitors.iter().map(|(id, m)| (*id, m))
    }

    /// The compact retirement record of an alert whose incident is
    /// over (resolved, or closed by offboarding), if any.
    pub fn retired_monitor(&self, alert: AlertId) -> Option<&RetiredMonitor> {
        self.retired.get(&alert)
    }

    /// Every retired `(alert, record)` pair, in alert-raise order.
    pub fn retired_monitors(&self) -> impl Iterator<Item = (AlertId, &RetiredMonitor)> {
        self.retired.iter().map(|(id, m)| (*id, m))
    }

    /// Number of retired (over) incidents (capacity gauge).
    pub fn retired_count(&self) -> usize {
        self.retired.len()
    }

    /// Timeline points folded away by [`crate::monitor::TIMELINE_CAP`]
    /// over every incident so far, live and retired (monotone; 0
    /// unless some incident outlived the cap).
    pub fn timeline_coalesced_points(&self) -> u64 {
        let live: u64 = self
            .monitors
            .iter()
            .map(|(_, m)| m.coalesced_points())
            .sum();
        self.retired_coalesced_points + live
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
    /// withdrawn through the controller — so no helper or operator
    /// intent keeps originating offboarded address space. Returns
    /// `None` when the prefix is not configured.
    pub fn remove_owned_prefix(
        &mut self,
        prefix: Prefix,
        now: SimTime,
        controller: &mut Controller,
        helper_controllers: &mut [Controller],
    ) -> Option<OffboardReport> {
        let removed = self.detector.remove_shard(prefix)?;
        self.mitigator.clear_policy(prefix);
        let mut closed_alerts = Vec::new();
        let mut withdrawn_plans = 0usize;
        for id in &removed.alerts {
            self.pending.remove(id);
            self.recheck.remove(id);
            // Withdraw every plan ever executed on this shard — a
            // naturally resolved incident keeps its de-aggregated
            // announcements installed by design, so resolved alerts
            // need the withdrawal just as much as open ones.
            if let Some(plan) = self.executed_plans.remove(id) {
                self.mitigator
                    .withdraw(&plan, now, controller, helper_controllers);
                withdrawn_plans += 1;
            }
            let open = self
                .detector
                .alerts()
                .get(*id)
                .map(|a| a.state != AlertState::Resolved)
                .unwrap_or(false);
            if !open {
                continue;
            }
            self.detector.alerts_mut().mark_resolved(*id, now);
            if let Some(monitor) = self.take_monitor(*id) {
                self.retire_monitor(*id, monitor, now);
            }
            closed_alerts.push(*id);
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
    /// they return into the hub's merge heap. Live wire feeds
    /// ([`artemis_feeds::BmpLiveFeed`]) report readiness exactly when
    /// their socket ring holds events, so a daemon pump loop can call
    /// this every tick at negligible idle cost. Uses an
    /// [`EmptyRibView`]: wire feeds never inspect simulated routing
    /// state (RIB-inspecting pull feeds belong to simulation drivers,
    /// which poll through [`Pipeline::run`] with a real engine view).
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
    pub fn resume_mitigation(
        &mut self,
        now: SimTime,
        controller: &mut Controller,
        helper_controllers: &mut [Controller],
    ) -> Vec<AlertId> {
        if !self.paused {
            return Vec::new();
        }
        self.paused = false;
        let to_run: Vec<AlertId> = self
            .pending
            .iter()
            .filter(|(id, _)| {
                self.detector.alerts().get(**id).is_some_and(|a| {
                    self.mitigator.policy_for(a.owned_prefix) == MitigationPolicy::Auto
                })
            })
            .map(|(id, _)| *id)
            .collect();
        for id in &to_run {
            let plan = self.pending.remove(id).expect("listed as pending");
            self.execute_held_plan(*id, plan, now, controller, helper_controllers);
            // The monitor may already be all-legitimate (the hijack
            // could have withered while the plan was held), so the
            // resolution condition must be evaluated at the next
            // delivered event even if that event is irrelevant.
            if self.monitor_at(*id).is_some() {
                self.recheck.insert(*id);
            }
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
        helper_controllers: &mut [Controller],
    ) -> Option<MitigationPlan> {
        let plan = self.pending.remove(&alert)?;
        self.execute_held_plan(alert, plan.clone(), now, controller, helper_controllers);
        // Same rationale as in `resume_mitigation`: the mitigated flag
        // flipped outside delivery, so the next delivered event must
        // re-evaluate this alert's resolution condition.
        if self.monitor_at(alert).is_some() {
            self.recheck.insert(alert);
        }
        Some(plan)
    }

    /// Every alert with a computed-but-held plan, in alert order.
    pub fn pending_mitigations(&self) -> impl Iterator<Item = (AlertId, &MitigationPlan)> {
        self.pending.iter().map(|(id, p)| (*id, p))
    }

    // ---- Event delivery ---------------------------------------------

    /// Tell the detector that a prefix announcement of ours is
    /// expected (phase-1 setup, planned anycast, …).
    pub fn expect_announcement(&mut self, prefix: Prefix) {
        self.detector.expect_announcement(prefix);
    }

    /// Fan a batch of routing changes out to the push feeds; the
    /// resulting events queue inside the hub until due.
    pub fn ingest_route_changes(&mut self, changes: &[artemis_bgpsim::RouteChange]) {
        self.hub.ingest_route_changes(changes);
    }

    /// Drain pending BMP `peer_down` signals from the hub's wire feeds
    /// and purge each downed peer from every active monitor's per-VP
    /// view: a vantage point whose session to the collector is gone no
    /// longer has current routes, so it returns to `Unknown` until it
    /// reports again. Called automatically at each delivery boundary
    /// ([`Pipeline::deliver_due`] and [`Pipeline::run`]); exposed for
    /// drivers that pump wire feeds without delivering. Returns the
    /// number of `(peer, monitor)` purges applied.
    pub fn apply_peer_downs(&mut self, at: SimTime) -> usize {
        let downs = self.hub.take_peer_downs();
        if downs.is_empty() {
            return 0;
        }
        let mut purged = 0;
        for vp in &downs {
            for (_, monitor) in &mut self.monitors {
                purged += usize::from(monitor.purge_vantage(*vp, at));
            }
        }
        purged
    }

    /// Earliest pending pull-feed poll.
    pub fn next_poll(&self, now: SimTime) -> Option<SimTime> {
        self.hub.next_poll(now)
    }

    /// Feed one monitoring event through detection, monitoring and
    /// (policy permitting) automatic mitigation — a batch of one
    /// through the staged commit. `controller` (and optional helpers)
    /// receive mitigation intents when a new alert fires. Returns the
    /// alert the event raised, if any (one event raises at most one);
    /// everything else it caused is in the event log.
    pub fn deliver(
        &mut self,
        event: &FeedEvent,
        controller: &mut Controller,
        helper_controllers: &mut [Controller],
    ) -> Option<AlertId> {
        self.commit_batch(std::slice::from_ref(event), controller, helper_controllers)
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
        helper_controllers: &mut [Controller],
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
        debug_assert!(self.monitors.last().is_none_or(|(last, _)| *last < id));
        self.monitors.push((id, monitor));
        self.monitor_index.insert(owned_prefix, id);

        // 3. Mitigation, governed by the prefix's policy.
        let policy = self.mitigator.policy_for(owned_prefix);
        let mut mitigate_ns = 0u64;
        if policy != MitigationPolicy::DetectOnly && !self.mitigated.contains(&id) {
            let clock = Instant::now();
            let alert = self.detector.alerts().get(id).expect("just created");
            let plan = self.mitigator.plan(alert);
            if policy == MitigationPolicy::Auto && !self.paused {
                self.execute_held_plan(id, plan, at, controller, helper_controllers);
            } else {
                // Confirm-first policy, or Auto while paused: the
                // plan is computed and held for the operator.
                self.pending.insert(id, plan.clone());
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

    /// Resolve one alert's incident at `at`: mark it, log it, and
    /// retire its monitor (already taken out of the registry) into the
    /// compact record.
    fn resolve(&mut self, id: AlertId, monitor: MonitorService, at: SimTime) {
        self.detector.alerts_mut().mark_resolved(id, at);
        self.log.push(IncidentEvent::Resolved { alert: id, at });
        self.retire_monitor(id, monitor, at);
    }

    /// Unindex a monitor already taken out of the registry and file its
    /// compact record.
    fn retire_monitor(&mut self, id: AlertId, monitor: MonitorService, at: SimTime) {
        self.monitor_index.remove(monitor.target(), id);
        self.retired_coalesced_points += monitor.coalesced_points();
        self.retired.insert(id, monitor.retire(at));
    }

    /// Drain every queued feed event due by `upto` and deliver it as
    /// **one** batch, using the caller's controllers but no observer.
    /// Returns the number of events delivered.
    ///
    /// This is the bulk-ingestion surface for drivers that pump live
    /// feeds or replay pre-queued streams (the daemon, benchmarks,
    /// archive replays): unlike [`Pipeline::run`], which stops between
    /// events for its observer, the whole backlog becomes a single
    /// batch — exactly the `drain_batch` contract — preserving the
    /// global `(emitted_at, ingestion order)` delivery order.
    pub fn deliver_due(
        &mut self,
        upto: SimTime,
        controller: &mut Controller,
        helper_controllers: &mut [Controller],
    ) -> u64 {
        let mut batch = self.drain_due(upto);
        self.commit_batch(&batch, controller, helper_controllers);
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

    /// The staged commit — the only code that walks events. Every
    /// entry point ([`Pipeline::deliver_due`], [`Pipeline::deliver`],
    /// [`Pipeline::run`]) hands it a batch in `(emitted_at, ingestion
    /// order)`; every lifecycle fact goes to the event log in delivery
    /// order. Returns the last alert the batch raised, if any.
    ///
    /// Stages: classify the whole batch in one tight pass (the flat
    /// trie and shard rules stay hot in cache); route every event once
    /// through the [`MonitorIndex`] onto the list of each monitor alive
    /// at batch start that it concerns; replay each monitor's list in
    /// batch order, stopping at the event that resolves it; then walk
    /// the batch in order running detection, monitors born earlier in
    /// this batch, and the noted resolutions.
    ///
    /// The outcome is independent of how a stream is cut into batches:
    /// a pre-existing monitor's state evolution depends only on the
    /// event sequence, never on in-batch detection; its `mitigated`
    /// flag cannot change mid-batch (confirm/resume happen between
    /// deliveries); and the detector re-classifies any event whose
    /// shard rules changed after the classify pass. Each stage records
    /// its own [`crate::StageStat`] (see [`StageMetrics`]).
    fn commit_batch(
        &mut self,
        batch: &[FeedEvent],
        controller: &mut Controller,
        helper_controllers: &mut [Controller],
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

        // --- monitor-route: every event once through the prefix
        // index, its batch index appended to the list of each monitor it
        // concerns. Alerts mitigated outside delivery (`recheck`) start
        // their list with event 0 whether or not it concerns them: their
        // monitor may already be all-legitimate, so resolution is due at
        // the first event.
        let mut routed = std::mem::take(&mut self.routed);
        routed.iter_mut().for_each(Vec::clear);
        routed.resize_with(self.monitors.len(), Vec::new);
        for id in std::mem::take(&mut self.recheck) {
            if let Some(at) = self.monitor_at(id) {
                routed[at].push(0);
            }
        }
        let mut route = std::mem::take(&mut self.route_buf);
        for (i, event) in batch.iter().enumerate() {
            self.monitor_index.route(event.prefix, &mut route);
            for id in &route {
                let at = self
                    .monitor_at(*id)
                    .expect("indexed alert has a live monitor");
                let list = &mut routed[at];
                if list.last() != Some(&(i as u32)) {
                    list.push(i as u32); // not already there as a recheck
                }
            }
        }
        self.route_buf = route;
        let t3 = Instant::now();

        // --- monitor-ingest: replay each monitor's events in batch
        // order straight into the registry, one monitor at a time so its
        // per-VP slots stay in cache, and stop at the event that
        // resolves it. Monitors are independent, so this is the state a
        // batch-order replay reaches. The resolved leave the registry in
        // the order the walk applies them: by event, then by alert.
        let mut due: Vec<(usize, AlertId)> = Vec::new();
        for ((id, monitor), events) in self.monitors.iter_mut().zip(&routed) {
            for &i in events {
                let event = &batch[i as usize];
                if monitor.is_relevant(event.prefix) {
                    monitor.ingest_routed(event);
                }
                if monitor.all_legitimate() && self.mitigated.contains(id) {
                    due.push((i as usize, *id));
                    break;
                }
            }
        }
        self.routed = routed;
        due.sort_unstable();
        let mut resolved = Vec::with_capacity(due.len());
        for (i, id) in due {
            let monitor = self.take_monitor(id).expect("listed monitor is live");
            resolved.push((i, id, monitor));
        }
        let mut resolved = resolved.into_iter().peekable();
        let t4 = Instant::now();

        // --- commit walk: detection in delivery order, events into
        // monitors born earlier in this batch, and the noted
        // resolutions applied at their exact event indices (before the
        // next event's detection, so dedup against resolved alerts —
        // a re-hijack is a NEW alert — sees them).
        let mut live_new: Vec<AlertId> = Vec::new();
        let mut last_raised = None;
        let mut mitigate_ns = 0u64;
        let mut resolve_ns = 0u64;
        for (i, event) in batch.iter().enumerate() {
            self.events_delivered += 1;
            let (new_alert, mit_ns) =
                self.detect_and_arm(event, prep[i], controller, helper_controllers);
            mitigate_ns += mit_ns;
            last_raised = new_alert.or(last_raised);
            live_new.extend(new_alert);

            // Monitors born earlier in this batch could not be
            // pre-staged; they ingest inline (their count is bounded
            // by in-batch alerts, not registry size).
            let mut resolved_new: Vec<AlertId> = Vec::new();
            for id in &live_new {
                let Some(at) = self.monitor_at(*id) else {
                    continue;
                };
                let monitor = &mut self.monitors[at].1;
                if !monitor.is_relevant(event.prefix) {
                    continue;
                }
                monitor.ingest_routed(event);
                if self.mitigated.contains(id) && monitor.all_legitimate() {
                    resolved_new.push(*id);
                }
            }

            let scheduled = resolved.peek().is_some_and(|(j, _, _)| *j == i);
            if scheduled || !resolved_new.is_empty() {
                let clock = Instant::now();
                let at = event.emitted_at;
                // Pre-existing alerts carry smaller ids than any alert
                // born in this batch, so scheduled-then-new keeps the
                // ascending order.
                while let Some((_, id, monitor)) = resolved.next_if(|(j, _, _)| *j == i) {
                    self.resolve(id, monitor, at);
                }
                for id in resolved_new {
                    if let Some(monitor) = self.take_monitor(id) {
                        self.resolve(id, monitor, at);
                    }
                    live_new.retain(|x| *x != id);
                }
                resolve_ns += elapsed_ns(clock);
            }
        }
        let t5 = Instant::now();
        self.prepared = prep;

        let m = &mut self.stage_metrics;
        m.classify.record(delivered, t2 - t1);
        m.classify_snapshot.record(delivered, t1b - t1);
        m.classify_prepare.record(delivered, t2 - t1b);
        m.commit.record(delivered, t5 - t2);
        m.monitor_route.record(delivered, t3 - t2);
        m.monitor_ingest.record(delivered, t4 - t3);
        let walk_ns = u64::try_from((t5 - t4).as_nanos()).unwrap_or(u64::MAX);
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
        helper_controllers: &mut [Controller],
    ) {
        for p in &plan.announce {
            self.detector.expect_announcement(*p);
        }
        // A Squatting plan announces the dormant prefix itself: from
        // now on it is active, and the echo of our own announcement
        // must classify under normal rules.
        let squat_target = self
            .detector
            .alerts()
            .get(id)
            .filter(|a| a.hijack_type == crate::classify::HijackType::Squatting)
            .map(|a| a.owned_prefix);
        if let Some(prefix) = squat_target {
            self.detector.activate_prefix(prefix);
        }
        self.mitigator
            .execute(&plan, now, controller, helper_controllers);
        self.detector.alerts_mut().mark_mitigating(id, now);
        self.mitigated.insert(id);
        self.executed_plans.insert(id, plan.clone());
        self.log.push(IncidentEvent::MitigationTriggered {
            alert: id,
            plan,
            at: now,
        });
    }

    /// Drive the four interleaved clock domains — BGP engine,
    /// controller installs, pull-feed polls, batched feed deliveries —
    /// from `start` until `horizon`, everything drains, or the
    /// observer breaks.
    ///
    /// Tie-break at equal instants (deterministic, and identical to
    /// the historical experiment loop): engine first so RIB views are
    /// current, then controller installs, then polls, then feed
    /// deliveries. Feed events due at the same instant are drained
    /// together and committed one at a time in `(emitted_at, ingestion
    /// order)`.
    ///
    /// Mitigation plans that outsource co-announcements reach
    /// `helper_controllers`, whose install queues join the controller
    /// clock domain (the operator's controller installs first at equal
    /// instants, then helpers in order).
    ///
    /// The observer reads the event log: after each committed feed
    /// event and after each controller instant it is shown, in order,
    /// the entries that step appended, together with the engine (for
    /// ground-truth measurements); returning [`ControlFlow::Break`]
    /// stops the run. Every step is fully logged before the observer
    /// sees any of it, so a Break loses nothing and a later `run`
    /// resumes where this one stopped. The observer sees what the log
    /// retains: a step that appends more than the log's capacity
    /// (4096 entries by default, see [`Pipeline::with_event_capacity`])
    /// shows only the retained tail.
    pub fn run<F>(
        &mut self,
        engine: &mut Engine,
        controller: &mut Controller,
        helper_controllers: &mut [Controller],
        start: SimTime,
        horizon: SimTime,
        mut observer: F,
    ) -> RunReport
    where
        F: FnMut(&mut Engine, &IncidentEvent) -> ControlFlow<()>,
    {
        let delivered_before = self.events_delivered;
        let mut now = start;
        let end = loop {
            if now > horizon {
                break RunEnd::Horizon;
            }
            // Candidate times across the four clock domains.
            let t_engine = engine.next_event_time();
            let t_feed = self.hub.next_emission();
            let t_poll = self.hub.next_poll(now);
            let t_ctrl = std::iter::once(controller.next_action_time())
                .chain(helper_controllers.iter().map(|h| h.next_action_time()))
                .flatten()
                .min();
            let candidates = [t_engine, t_feed, t_ctrl, t_poll];
            let Some(next) = candidates.iter().flatten().min().copied() else {
                break RunEnd::Drained;
            };
            if next > horizon {
                break RunEnd::Horizon;
            }
            now = next;

            if t_engine == Some(next) {
                // Engine first at equal times so RIB views are current.
                if let Some(changes) = engine.step() {
                    self.hub.ingest_route_changes(&changes);
                }
                continue;
            }
            if t_ctrl == Some(next) {
                // Apply and log every due intent *before* the observer
                // runs: `due_actions` already removed them from the
                // controller's queue, so an early Break must not lose
                // installs. (The announcements only enter RIBs when the
                // engine processes them, so ground-truth reads in the
                // observer are unaffected.)
                let seen = self.log.live_cursor();
                let mut due = controller.due_actions(next);
                for helper in helper_controllers.iter_mut() {
                    due.extend(helper.due_actions(next));
                }
                for action in &due {
                    match action.kind {
                        IntentKind::Announce => {
                            engine.announce_at(action.origin_as, action.prefix, next);
                        }
                        IntentKind::Withdraw => {
                            engine.withdraw_at(action.origin_as, action.prefix, next);
                        }
                    }
                    self.log.push(IncidentEvent::ControllerApplied {
                        kind: action.kind,
                        prefix: action.prefix,
                        at: next,
                    });
                }
                let flow = self
                    .log
                    .iter_from(seen)
                    .try_for_each(|e| observer(engine, e));
                if flow.is_break() {
                    break RunEnd::Stopped;
                }
                continue;
            }
            if t_poll == Some(next) {
                let view = EngineView(engine);
                self.hub.poll_and_queue(next, &view);
                continue;
            }

            // Otherwise: the feed events due now, committed one by one
            // in `(emitted_at, ingestion order)` — a batch of one each,
            // so nothing is staged past an event the observer has not
            // seen yet and a Break loses nothing.
            let mut batch = self.drain_due(next);
            let mut stopped_at: Option<usize> = None;
            for i in 0..batch.len() {
                let seen = self.log.live_cursor();
                self.commit_batch(&batch[i..=i], controller, helper_controllers);
                let flow = self
                    .log
                    .iter_from(seen)
                    .try_for_each(|e| observer(engine, e));
                if flow.is_break() {
                    stopped_at = Some(i);
                    break;
                }
            }
            if let Some(i) = stopped_at {
                // Hand undelivered events back to the hub so a later
                // `run` resumes without losing them.
                self.hub.requeue(batch.drain(i + 1..));
            }
            batch.clear();
            self.batch = batch;
            if stopped_at.is_some() {
                break RunEnd::Stopped;
            }
        };
        RunReport {
            ended_at: now,
            end,
            events_delivered: self.events_delivered - delivered_before,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::AlertState;
    use crate::config::OwnedPrefix;
    use crate::event_log::EventCursor;
    use artemis_bgp::AsPath;
    use artemis_feeds::FeedKind;
    use artemis_simnet::LatencyModel;
    use std::str::FromStr;

    fn pfx(s: &str) -> Prefix {
        Prefix::from_str(s).unwrap()
    }

    fn event(vp: u32, prefix: &str, path: &[u32], t: u64) -> FeedEvent {
        let as_path = AsPath::from_sequence(path.iter().copied());
        let origin = as_path.origin();
        FeedEvent {
            emitted_at: SimTime::from_secs(t),
            observed_at: SimTime::from_secs(t.saturating_sub(5)),
            source: FeedKind::RisLive,
            collector: "rrc00".into(),
            vantage: Asn(vp),
            prefix: pfx(prefix),
            as_path: Some(as_path),
            origin_as: origin,
            raw: None,
        }
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
        p.deliver(ev, ctrl, &mut []);
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
            _change: &artemis_bgpsim::RouteChange,
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
        let acts = deliver(
            &mut p,
            &event(174, "10.0.0.0/23", &[174, 666], 45),
            &mut ctrl,
        );
        let IncidentEvent::AlertRaised { alert, .. } = acts[0] else {
            panic!("hijack must alert");
        };
        assert_eq!(
            p.monitor_for(alert).unwrap().vp_state(Asn(174)),
            VpState::Hijacked
        );

        p.hub_mut().add(Box::new(PeerDownFeed {
            downs: vec![Asn(174)],
        }));
        let purged = p.apply_peer_downs(SimTime::from_secs(50));
        assert_eq!(purged, 1, "one (peer, monitor) purge");
        assert_eq!(
            p.monitor_for(alert).unwrap().vp_state(Asn(174)),
            VpState::Unknown,
            "the downed peer's routes are gone from the per-VP view"
        );
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
        assert_eq!(p.monitors().count(), 2);

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
        // incidents are over, so their monitors retired into compact
        // records; live monitors are gone.
        assert!(p.monitor_for(a1).is_none());
        assert!(p.monitor_for(a2).is_none());
        let t1 = p.retired_monitor(a1).unwrap();
        let t2 = p.retired_monitor(a2).unwrap();
        assert_eq!(t1.target(), pfx("10.0.0.0/23"));
        assert_eq!(t2.target(), pfx("172.16.0.0/23"));
        assert!(!t1.timeline().is_empty());
        assert!(!t2.timeline().is_empty());
        assert_eq!(t1.final_point().hijacked, 0);
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
            .confirm_mitigation(id, SimTime::from_secs(70), &mut ctrl, &mut [])
            .expect("plan was pending");
        assert_eq!(plan.announce, vec![pfx("10.0.0.0/24"), pfx("10.0.1.0/24")]);
        assert_eq!(ctrl.intents().count(), 2);
        assert_eq!(p.pending_mitigations().count(), 0);
        assert_eq!(
            p.detector().alerts().get(id).unwrap().state,
            AlertState::Mitigating
        );
        assert!(
            p.confirm_mitigation(id, SimTime::from_secs(71), &mut ctrl, &mut [])
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

        let executed = p.resume_mitigation(SimTime::from_secs(90), &mut ctrl, &mut []);
        assert_eq!(executed, vec![id]);
        assert!(!p.mitigation_paused());
        assert_eq!(ctrl.intents().count(), 2, "held plan executed on resume");
        assert_eq!(
            p.detector().alerts().get(id).unwrap().state,
            AlertState::Mitigating
        );
        assert!(
            p.resume_mitigation(SimTime::from_secs(91), &mut ctrl, &mut [])
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
            .remove_owned_prefix(
                pfx("10.0.0.0/23"),
                SimTime::from_secs(60),
                &mut ctrl,
                &mut [],
            )
            .expect("prefix configured");
        assert_eq!(report.closed_alerts, vec![id]);
        assert_eq!(report.withdrawn_plans, 1);
        assert_eq!(report.shard_events, 1);
        assert!(p
            .remove_owned_prefix(
                pfx("10.0.0.0/23"),
                SimTime::from_secs(61),
                &mut ctrl,
                &mut []
            )
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
        // The retired record froze at close time and ignored the new
        // event.
        assert!(p.monitor_for(id).is_none());
        let monitor = p.retired_monitor(id).expect("kept for reporting");
        let last = monitor.timeline().last().map(|t| t.time);
        assert!(last.is_none_or(|t| t < SimTime::from_secs(70)));
    }

    #[test]
    fn offboard_after_natural_resolution_still_withdraws_the_plan() {
        // A resolved incident keeps its de-aggregated announcements
        // installed by design; offboarding the prefix must withdraw
        // them anyway, or the operator keeps originating space it no
        // longer owns.
        let mut p = two_prefix_pipeline();
        let mut ctrl = controller();
        let acts = deliver(
            &mut p,
            &event(174, "10.0.0.0/23", &[174, 666], 45),
            &mut ctrl,
        );
        let IncidentEvent::AlertRaised { alert: id, .. } = acts[0] else {
            panic!("must alert");
        };
        // The mitigation /24 echo resolves the incident naturally.
        let acts = deliver(
            &mut p,
            &event(174, "10.0.0.0/24", &[174, 65001], 120),
            &mut ctrl,
        );
        assert!(acts
            .iter()
            .any(|a| matches!(a, IncidentEvent::Resolved { alert, .. } if *alert == id)));

        let report = p
            .remove_owned_prefix(
                pfx("10.0.0.0/23"),
                SimTime::from_secs(200),
                &mut ctrl,
                &mut [],
            )
            .expect("prefix configured");
        assert!(report.closed_alerts.is_empty(), "nothing was still open");
        assert_eq!(report.withdrawn_plans, 1, "resolved plan still withdrawn");
        let announces = ctrl
            .intents()
            .filter(|i| i.kind == IntentKind::Announce)
            .count();
        let withdraws = ctrl
            .intents()
            .filter(|i| i.kind == IntentKind::Withdraw)
            .count();
        assert_eq!(announces, withdraws, "no intent keeps originating");
        assert!(
            !p.executed_plans.contains_key(&id),
            "plan bookkeeping cleared"
        );
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

    #[test]
    fn full_cycle_detect_mitigate_resolve() {
        let mut p = one_prefix_pipeline();
        let mut ctrl = controller();

        // Phase 1: legit announcement observed — benign.
        let acts = deliver(
            &mut p,
            &event(174, "10.0.0.0/23", &[174, 65001], 10),
            &mut ctrl,
        );
        assert!(acts.is_empty());

        // Phase 2: hijack detected at t=45 → alert + auto mitigation.
        let acts = deliver(
            &mut p,
            &event(174, "10.0.0.0/23", &[174, 666], 45),
            &mut ctrl,
        );
        assert_eq!(acts.len(), 2);
        let IncidentEvent::AlertRaised {
            alert: alert_id, ..
        } = acts[0]
        else {
            panic!("expected alert first, got {acts:?}");
        };
        match &acts[1] {
            IncidentEvent::MitigationTriggered { plan, at, .. } => {
                assert_eq!(plan.announce, vec![pfx("10.0.0.0/24"), pfx("10.0.1.0/24")]);
                assert_eq!(*at, SimTime::from_secs(45));
            }
            other => panic!("expected mitigation, got {other:?}"),
        }
        assert_eq!(ctrl.intents().count(), 2, "intents submitted to controller");

        // Phase 3: the /24s propagate; VPs flip back. 3356 was also
        // hijacked, then recovers.
        deliver(
            &mut p,
            &event(3356, "10.0.0.0/23", &[3356, 666], 50),
            &mut ctrl,
        );
        deliver(
            &mut p,
            &event(174, "10.0.0.0/24", &[174, 65001], 120),
            &mut ctrl,
        );
        deliver(
            &mut p,
            &event(174, "10.0.1.0/24", &[174, 65001], 121),
            &mut ctrl,
        );
        // 3356 still hijacked → not resolved yet.
        assert!(p.monitor_for(alert_id).unwrap().any_hijacked());
        let acts = deliver(
            &mut p,
            &event(3356, "10.0.0.0/24", &[3356, 65001], 300),
            &mut ctrl,
        );
        let resolved = acts
            .iter()
            .find_map(|a| match a {
                IncidentEvent::Resolved { alert, at } => Some((*alert, *at)),
                _ => None,
            })
            .expect("incident resolves once every VP is clean");
        assert_eq!(resolved.0, alert_id);
        assert_eq!(resolved.1, SimTime::from_secs(300));
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
        let live = p.monitor_for(id).expect("never healed");
        assert_eq!(live.timeline().len(), TIMELINE_CAP);
        assert_eq!(live.coalesced_points(), extra);
        assert_eq!(p.timeline_coalesced_points(), extra);

        // Closing the incident moves the count from the live monitor
        // to the retired record; the total does not move.
        let at = SimTime::from_secs(10_000);
        p.remove_owned_prefix(pfx("10.0.0.0/23"), at, &mut ctrl, &mut [])
            .expect("prefix configured");
        assert!(p.monitor_for(id).is_none());
        assert_eq!(p.retired_monitor(id).unwrap().coalesced_points(), extra);
        assert_eq!(p.timeline_coalesced_points(), extra);
    }
}

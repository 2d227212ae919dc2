//! The owned, replayable incident event stream — the one record of
//! everything the pipeline does. The daemon's sinks, `/v1/events` and
//! the simulator driver's observer (`artemis_bench::run`) all read it:
//!
//! * [`IncidentEvent`] — an owned, `serde`-serializable record of one
//!   noteworthy thing (alert raised, mitigation triggered/pending,
//!   incident resolved, prefix onboarded/offboarded, feed
//!   attached/detached, policy changed, pause/resume, controller
//!   install).
//! * [`EventLog`] — a bounded ring buffer of [`IncidentEvent`]s with
//!   **cursor-based polling**: any number of independent consumers
//!   call [`EventLog::poll`] with their own [`EventCursor`] and each
//!   replays the same history at its own pace;
//!   [`EventLog::iter_from`] reads the same entries without cloning.

#![deny(missing_docs)]

use crate::alert::AlertId;
use crate::classify::HijackType;
use crate::mitigation::{MitigationPlan, MitigationPolicy};
use artemis_bgp::Prefix;
use artemis_controller::IntentKind;
use artemis_feeds::FeedHandle;
use artemis_simnet::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One owned, serializable record in the incident event stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum IncidentEvent {
    /// A new hijacking incident was detected.
    AlertRaised {
        /// The alert's identifier.
        alert: AlertId,
        /// The configured prefix under attack.
        owned_prefix: Prefix,
        /// The offending announcement's prefix.
        observed_prefix: Prefix,
        /// Classification of the incident.
        hijack_type: HijackType,
        /// Detection instant (feed emission time).
        at: SimTime,
    },
    /// A mitigation plan was computed but is awaiting operator
    /// confirmation (confirm-first policy, or mitigation paused).
    MitigationPending {
        /// The alert awaiting confirmation.
        alert: AlertId,
        /// The plan that would execute.
        plan: MitigationPlan,
        /// When the plan was computed.
        at: SimTime,
    },
    /// Mitigation intents were submitted to the controller.
    MitigationTriggered {
        /// The alert being mitigated.
        alert: AlertId,
        /// The executed plan.
        plan: MitigationPlan,
        /// Trigger instant.
        at: SimTime,
    },
    /// Every vantage point is back on a legitimate origin.
    Resolved {
        /// The resolved alert.
        alert: AlertId,
        /// Resolution instant.
        at: SimTime,
    },
    /// A controller intent finished installing and entered the
    /// routing plane.
    ControllerApplied {
        /// Announce or withdraw.
        kind: IntentKind,
        /// The affected prefix.
        prefix: Prefix,
        /// Installation instant.
        at: SimTime,
    },
    /// An owned prefix was onboarded at runtime.
    PrefixOnboarded {
        /// The new owned prefix.
        prefix: Prefix,
        /// Onboarding instant.
        at: SimTime,
    },
    /// An owned prefix was offboarded at runtime; its in-flight
    /// incidents were closed and its monitors frozen.
    PrefixOffboarded {
        /// The removed prefix.
        prefix: Prefix,
        /// Alerts that were still open and got closed by the offboard.
        closed_alerts: Vec<AlertId>,
        /// Offboarding instant.
        at: SimTime,
    },
    /// A feed was attached to the hub.
    FeedAttached {
        /// The new feed's stable handle.
        handle: FeedHandle,
        /// Attach instant.
        at: SimTime,
    },
    /// A feed was detached; its queued undelivered events were
    /// dropped (see `FeedHub::remove` for the exact semantics).
    FeedDetached {
        /// The detached feed's handle.
        handle: FeedHandle,
        /// Queued events dropped with the feed.
        dropped_events: usize,
        /// Detach instant.
        at: SimTime,
    },
    /// The mitigation policy of an owned prefix changed.
    PolicyChanged {
        /// The owned prefix concerned.
        prefix: Prefix,
        /// The policy now in force.
        policy: MitigationPolicy,
        /// Change instant.
        at: SimTime,
    },
    /// Mitigation was paused service-wide (detection continues; new
    /// plans accumulate as pending).
    MitigationPaused {
        /// Pause instant.
        at: SimTime,
    },
    /// Mitigation resumed; pending plans under an `Auto` policy were
    /// executed.
    MitigationResumed {
        /// Alerts whose held plans executed on resume.
        executed_alerts: Vec<AlertId>,
        /// Resume instant.
        at: SimTime,
    },
}

impl IncidentEvent {
    /// The instant the event describes.
    pub fn at(&self) -> SimTime {
        match self {
            IncidentEvent::AlertRaised { at, .. }
            | IncidentEvent::MitigationPending { at, .. }
            | IncidentEvent::MitigationTriggered { at, .. }
            | IncidentEvent::Resolved { at, .. }
            | IncidentEvent::ControllerApplied { at, .. }
            | IncidentEvent::PrefixOnboarded { at, .. }
            | IncidentEvent::PrefixOffboarded { at, .. }
            | IncidentEvent::FeedAttached { at, .. }
            | IncidentEvent::FeedDetached { at, .. }
            | IncidentEvent::PolicyChanged { at, .. }
            | IncidentEvent::MitigationPaused { at }
            | IncidentEvent::MitigationResumed { at, .. } => *at,
        }
    }
}

/// A consumer's position in the event stream.
///
/// Cursors are plain values: store them, serialize them, hand one to
/// each consumer. [`EventCursor::START`] replays from the oldest
/// retained event.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct EventCursor(u64);

impl EventCursor {
    /// The beginning of the stream (sequence 0).
    pub const START: EventCursor = EventCursor(0);

    /// The raw sequence number the cursor points at.
    pub fn sequence(self) -> u64 {
        self.0
    }
}

/// One [`EventLog::poll`] result.
#[derive(Debug, Clone, PartialEq)]
pub struct PollBatch {
    /// The events since the cursor, oldest first.
    pub events: Vec<IncidentEvent>,
    /// Pass this cursor to the next poll.
    pub next: EventCursor,
    /// Events that were overwritten before this consumer polled (the
    /// consumer lagged further than the ring-buffer capacity). 0 for
    /// consumers that keep up.
    pub missed: u64,
}

/// Bounded ring buffer of [`IncidentEvent`]s with independent
/// cursor-based consumers.
///
/// The log assigns every pushed event a monotonically increasing
/// sequence number and retains the most recent `capacity` events.
/// Consumers never mutate the log when polling, so any number of them
/// replay the same history independently.
#[derive(Debug)]
pub struct EventLog {
    events: VecDeque<IncidentEvent>,
    /// Sequence number of `events.front()`.
    first_seq: u64,
    /// Sequence number the next push receives.
    next_seq: u64,
    capacity: usize,
}

impl EventLog {
    /// Default retention: plenty for any experiment in this repo while
    /// keeping the worst-case memory bounded.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// A log retaining the default number of events.
    pub fn new() -> Self {
        EventLog::with_capacity(EventLog::DEFAULT_CAPACITY)
    }

    /// A log retaining at most `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        EventLog {
            events: VecDeque::new(),
            first_seq: 0,
            next_seq: 0,
            capacity: capacity.max(1),
        }
    }

    /// Append an event, evicting the oldest when full. Returns the
    /// event's sequence number.
    pub fn push(&mut self, event: IncidentEvent) -> u64 {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.first_seq += 1;
        }
        self.events.push_back(event);
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Everything since `cursor`, oldest first, plus the cursor to use
    /// next and how many events (if any) this consumer missed because
    /// they were evicted before it polled.
    pub fn poll(&self, cursor: EventCursor) -> PollBatch {
        PollBatch {
            events: self.iter_from(cursor).cloned().collect(),
            next: EventCursor(self.next_seq),
            missed: self.first_seq.saturating_sub(cursor.0),
        }
    }

    /// The retained events since `cursor`, oldest first, borrowed in
    /// place (what [`EventLog::poll`] clones).
    pub fn iter_from(&self, cursor: EventCursor) -> impl Iterator<Item = &IncidentEvent> {
        let skip = cursor.0.saturating_sub(self.first_seq);
        self.events.iter().skip(skip as usize)
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events ever pushed (retained or evicted).
    pub fn total_pushed(&self) -> u64 {
        self.next_seq
    }

    /// The cursor a brand-new consumer should start from to see only
    /// *future* events.
    pub fn live_cursor(&self) -> EventCursor {
        EventCursor(self.next_seq)
    }
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64) -> IncidentEvent {
        IncidentEvent::MitigationPaused {
            at: SimTime::from_secs(t),
        }
    }

    #[test]
    fn poll_replays_in_order() {
        let mut log = EventLog::new();
        for t in 0..5 {
            log.push(ev(t));
        }
        let batch = log.poll(EventCursor::START);
        assert_eq!(batch.events.len(), 5);
        assert_eq!(batch.missed, 0);
        let times: Vec<SimTime> = batch.events.iter().map(|e| e.at()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        // Nothing new: an empty follow-up batch from the same cursor.
        let again = log.poll(batch.next);
        assert!(again.events.is_empty());
        assert_eq!(again.next, batch.next);
    }

    #[test]
    fn independent_cursors_see_identical_histories() {
        let mut log = EventLog::new();
        let mut a = EventCursor::START;
        let mut b = EventCursor::START;
        let mut seen_a = Vec::new();
        let mut seen_b = Vec::new();
        for t in 0..10 {
            log.push(ev(t));
            // Consumer A polls every event; B polls every 3rd.
            let batch = log.poll(a);
            a = batch.next;
            seen_a.extend(batch.events);
            if t % 3 == 2 {
                let batch = log.poll(b);
                b = batch.next;
                seen_b.extend(batch.events);
            }
        }
        let batch = log.poll(b);
        seen_b.extend(batch.events);
        assert_eq!(seen_a, seen_b, "cadence must not change the history");
    }

    #[test]
    fn ring_buffer_reports_missed_events() {
        let mut log = EventLog::with_capacity(3);
        for t in 0..10 {
            log.push(ev(t));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.total_pushed(), 10);
        let batch = log.poll(EventCursor::START);
        assert_eq!(batch.events.len(), 3);
        assert_eq!(batch.missed, 7, "evicted events are reported, not hidden");
        assert_eq!(
            batch.events[0].at(),
            SimTime::from_secs(7),
            "oldest retained survives"
        );
    }

    #[test]
    fn live_cursor_skips_history() {
        let mut log = EventLog::new();
        log.push(ev(1));
        let live = log.live_cursor();
        log.push(ev(2));
        let batch = log.poll(live);
        assert_eq!(batch.events.len(), 1);
        assert_eq!(batch.events[0].at(), SimTime::from_secs(2));
        assert_eq!(batch.missed, 0);
    }

    #[test]
    fn iter_from_borrows_exactly_what_poll_clones() {
        let mut log = EventLog::with_capacity(3);
        for t in 0..5 {
            log.push(ev(t));
        }
        // Before, inside and past the retained window.
        for seq in 0..7 {
            let cursor = EventCursor(seq);
            let borrowed: Vec<IncidentEvent> = log.iter_from(cursor).cloned().collect();
            assert_eq!(borrowed, log.poll(cursor).events, "cursor {seq}");
        }
    }

    #[test]
    fn events_serialize() {
        let e = IncidentEvent::AlertRaised {
            alert: AlertId(3),
            owned_prefix: "10.0.0.0/23".parse().unwrap(),
            observed_prefix: "10.0.0.0/24".parse().unwrap(),
            hijack_type: HijackType::SubPrefix,
            at: SimTime::from_secs(45),
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: IncidentEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }
}

//! Output checking: the program's incident stream against the
//! generator's ledger of injected hijacks.

use crate::stream::Hijack;
use crate::trace::Tracer;
use artemis_bgp::Prefix;
use artemis_core::{AlertId, IncidentEvent};
use std::collections::BTreeMap;
use std::time::Instant;

/// One injected hijack as the generator recorded it.
pub struct LedgerEntry {
    pub hijack: Hijack,
    /// Closed loop: just before the hijack's first byte is written.
    /// Open loop: the due instant of the tick that carries it, so a
    /// late generator counts against the latency, not for it.
    pub start: Instant,
    /// Events the program had delivered when the hijack was written
    /// (closed loop; 0 through the daemon, where nobody outside knows).
    pub delivered_at_start: u64,
    /// Long-lived `incident_storm` lanes are raised before the timed
    /// window: their verdict is checked, their latency is not a sample.
    pub timed: bool,
    /// The healing announcements were sent.
    pub healed: bool,
}

/// One record of the program's event stream with the instant the
/// consumer held it (after `poll_events` returned, or after the
/// long-poll response was parsed).
pub struct Seen {
    pub event: IncidentEvent,
    pub at: Instant,
    /// Events the program had delivered by then (closed loop; else 0).
    pub delivered: u64,
}

#[derive(Debug, Default)]
pub struct Verdict {
    pub hijacks: u64,
    /// Hijacks without exactly one `AlertRaised` of the expected type,
    /// owned prefix and observed prefix.
    pub undetected: u64,
    /// `AlertRaised` for a prefix nobody attacked.
    pub false_alerts: u64,
    /// Healed hijacks whose incident never reported `Resolved`.
    pub unresolved: u64,
    /// Wire-in → `AlertRaised` visible, timed hijacks only.
    pub detect_ms: Vec<f64>,
    /// Wire-in → `MitigationTriggered` visible, timed hijacks only.
    pub mitigate_ms: Vec<f64>,
    /// The same two intervals counted in events the program delivered
    /// meanwhile: the work that stood between the hijack and its alert.
    /// Closed loop only, where the interval is queueing and its length
    /// in time says how fast the host was, not what the program did.
    pub detect_events: Vec<f64>,
    pub mitigate_events: Vec<f64>,
    /// Most incidents open at once (raised and not yet resolved), in
    /// stream order — what `core.monitor.live_max` reports.
    pub live_max: u64,
    /// Announcements in the executed mitigation plans; each one is an
    /// intent submitted to a controller.
    pub intents: u64,
    /// The first few discrepancies, for the operator of the benchmark.
    pub problems: Vec<String>,
}

impl Verdict {
    pub fn wrong(&self) -> u64 {
        self.undetected + self.false_alerts + self.unresolved
    }

    fn problem(&mut self, text: String) {
        if self.problems.len() < 8 {
            self.problems.push(text);
        }
    }

    pub fn merge(&mut self, other: Verdict) {
        self.hijacks += other.hijacks;
        self.undetected += other.undetected;
        self.false_alerts += other.false_alerts;
        self.unresolved += other.unresolved;
        self.detect_ms.extend(other.detect_ms);
        self.mitigate_ms.extend(other.mitigate_ms);
        self.detect_events.extend(other.detect_events);
        self.mitigate_events.extend(other.mitigate_events);
        self.live_max = self.live_max.max(other.live_max);
        self.intents += other.intents;
        for p in other.problems {
            self.problem(p);
        }
    }
}

/// Match the stream of one round against its ledger. Victims are
/// distinct within a run, so the owned prefix identifies the hijack.
///
/// Each timed hijack's life also goes to `tracer`: `alert_visible`
/// (caused by the generator's `wire_write` span of the same id) and
/// `mitigation_visible` (caused by `alert_visible`).
pub fn check(ledger: &[LedgerEntry], stream: &[Seen], tracer: &mut Tracer) -> Verdict {
    let mut verdict = Verdict {
        hijacks: ledger.len() as u64,
        ..Verdict::default()
    };
    let by_prefix: BTreeMap<Prefix, usize> = ledger
        .iter()
        .enumerate()
        .map(|(i, e)| (e.hijack.owned, i))
        .collect();
    assert_eq!(by_prefix.len(), ledger.len(), "ledger victims are distinct");

    #[derive(Default, Clone)]
    struct Outcome {
        right_alerts: u32,
        wrong_alerts: u32,
        alert_at: Option<(Instant, u64)>,
        mitigated_at: Option<(Instant, u64)>,
        resolved: bool,
    }
    let mut outcomes = vec![Outcome::default(); ledger.len()];
    let mut by_alert: BTreeMap<AlertId, usize> = BTreeMap::new();
    let mut live = 0u64;

    for seen in stream {
        match &seen.event {
            IncidentEvent::AlertRaised {
                alert,
                owned_prefix,
                observed_prefix,
                hijack_type,
                ..
            } => {
                live += 1;
                verdict.live_max = verdict.live_max.max(live);
                let Some(&i) = by_prefix.get(owned_prefix) else {
                    verdict.false_alerts += 1;
                    verdict.problem(format!(
                        "alert {} ({hijack_type}) on {owned_prefix}, which was never attacked",
                        alert.0
                    ));
                    continue;
                };
                let h = &ledger[i].hijack;
                by_alert.insert(*alert, i);
                if *hijack_type == h.expected_type() && *observed_prefix == h.observed {
                    outcomes[i].right_alerts += 1;
                    outcomes[i]
                        .alert_at
                        .get_or_insert((seen.at, seen.delivered));
                } else {
                    outcomes[i].wrong_alerts += 1;
                    verdict.problem(format!(
                        "alert {} on {owned_prefix}: got {hijack_type} for {observed_prefix}, \
                         expected {} for {}",
                        alert.0,
                        h.expected_type(),
                        h.observed
                    ));
                }
            }
            IncidentEvent::MitigationTriggered { alert, plan, .. } => {
                verdict.intents += plan.announcement_count() as u64;
                if let Some(&i) = by_alert.get(alert) {
                    outcomes[i]
                        .mitigated_at
                        .get_or_insert((seen.at, seen.delivered));
                }
            }
            IncidentEvent::Resolved { alert, .. } => {
                live = live.saturating_sub(1);
                if let Some(&i) = by_alert.get(alert) {
                    outcomes[i].resolved = true;
                }
            }
            _ => {}
        }
    }

    let writes: BTreeMap<u64, u32> = tracer
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "wire_write")
        .map(|(i, s)| (s.id, i as u32))
        .collect();
    for (i, (entry, outcome)) in ledger.iter().zip(&outcomes).enumerate() {
        let id = i as u64 + 1;
        let ms = |t: Instant| t.saturating_duration_since(entry.start).as_secs_f64() * 1e3;
        if outcome.right_alerts != 1 || outcome.wrong_alerts != 0 {
            verdict.undetected += 1;
            verdict.problem(format!(
                "{:?} hijack of {}: {} matching and {} other alerts, expected exactly one",
                entry.hijack.kind, entry.hijack.owned, outcome.right_alerts, outcome.wrong_alerts
            ));
            continue;
        }
        if entry.healed && !outcome.resolved {
            verdict.unresolved += 1;
            verdict.problem(format!(
                "{:?} hijack of {} was healed but never resolved",
                entry.hijack.kind, entry.hijack.owned
            ));
        }
        if entry.timed {
            let work = |d: u64| d.saturating_sub(entry.delivered_at_start) as f64;
            let (alert_at, delivered) = outcome.alert_at.expect("one right alert");
            verdict.detect_ms.push(ms(alert_at));
            verdict.detect_events.push(work(delivered));
            let cause = writes.get(&id).copied();
            let visible = tracer.record("alert_visible", entry.start, alert_at, cause, id, 0);
            if let Some((at, delivered)) = outcome.mitigated_at {
                verdict.mitigate_ms.push(ms(at));
                verdict.mitigate_events.push(work(delivered));
                tracer.record("mitigation_visible", alert_at, at, visible, id, 0);
            }
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::v4;
    use crate::stream::HijackKind;
    use artemis_core::HijackType;
    use artemis_simnet::SimTime;
    use std::time::Duration;

    fn entry(addr: u32, start: Instant) -> LedgerEntry {
        LedgerEntry {
            hijack: Hijack {
                kind: HijackKind::Exact,
                owned: v4(addr, 24),
                observed: v4(addr, 24),
                rogue: 64_512,
                vps: vec![0],
            },
            start,
            delivered_at_start: 100,
            timed: true,
            healed: true,
        }
    }

    fn raised(id: u64, addr: u32, ty: HijackType, at: Instant) -> Seen {
        Seen {
            event: IncidentEvent::AlertRaised {
                alert: AlertId(id),
                owned_prefix: v4(addr, 24),
                observed_prefix: v4(addr, 24),
                hijack_type: ty,
                at: SimTime::ZERO,
            },
            at,
            delivered: 350,
        }
    }

    #[test]
    fn counts_missing_wrong_false_and_unresolved() {
        let t0 = Instant::now();
        let later = t0 + Duration::from_millis(20);
        let ledger = vec![
            entry(0x0A00_0000, t0), // detected and resolved
            entry(0x0A00_0100, t0), // never detected
            entry(0x0A00_0200, t0), // wrong type
            entry(0x0A00_0300, t0), // detected, never resolved
        ];
        let stream = vec![
            raised(1, 0x0A00_0000, HijackType::ExactOrigin, later),
            Seen {
                event: IncidentEvent::Resolved {
                    alert: AlertId(1),
                    at: SimTime::ZERO,
                },
                at: later,
                delivered: 400,
            },
            raised(2, 0x0A00_0200, HijackType::Squatting, later),
            raised(3, 0x0A00_0300, HijackType::ExactOrigin, later),
            raised(4, 0x0B00_0000, HijackType::ExactOrigin, later),
        ];
        let v = check(&ledger, &stream, &mut Tracer::new(t0, false));
        assert_eq!(v.hijacks, 4);
        assert_eq!(v.undetected, 2);
        assert_eq!(v.false_alerts, 1);
        assert_eq!(v.unresolved, 1);
        assert_eq!(v.detect_ms.len(), 2);
        assert!((v.detect_ms[0] - 20.0).abs() < 1e-6);
        assert_eq!(v.detect_events, vec![250.0, 250.0]);
        assert_eq!(v.wrong(), 4);
    }
}

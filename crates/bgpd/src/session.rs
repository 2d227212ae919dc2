//! The sans-I/O BGP session: FSM, negotiation, timers, framing.

use artemis_bgp::{BgpError, BgpMessage, Codec, NotificationMessage, OpenMessage, UpdateMessage};
use artemis_simnet::{SimDuration, SimTime};
use bytes::{Bytes, BytesMut};
use std::net::Ipv4Addr;

/// RFC 4271 §8 session states (the TCP-level `Active` state is folded
/// into `Connect`; transport management is the caller's job in a
/// sans-I/O design).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// Not trying to connect.
    Idle,
    /// Waiting for the transport to come up.
    Connect,
    /// OPEN sent, waiting for the peer's OPEN.
    OpenSent,
    /// OPENs exchanged, waiting for the first KEEPALIVE.
    OpenConfirm,
    /// Session up; UPDATEs flow.
    Established,
}

/// Static configuration of one session endpoint.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Our AS number.
    pub local_as: artemis_bgp::Asn,
    /// Our BGP identifier.
    pub router_id: Ipv4Addr,
    /// Proposed hold time in seconds (RFC minimum semantics: 0 or ≥ 3).
    pub hold_time: u16,
    /// Expected peer AS; `None` accepts any (route-server style).
    pub peer_as: Option<artemis_bgp::Asn>,
    /// Advertise the four-octet-AS capability.
    pub four_octet: bool,
}

impl SessionConfig {
    /// A typical eBGP endpoint: 90 s hold time, four-octet capable.
    pub fn new(local_as: artemis_bgp::Asn, router_id: Ipv4Addr) -> Self {
        SessionConfig {
            local_as,
            router_id,
            hold_time: 90,
            peer_as: None,
            four_octet: true,
        }
    }

    /// Pin the expected peer AS (connection rejected otherwise).
    pub fn with_peer(mut self, peer: artemis_bgp::Asn) -> Self {
        self.peer_as = Some(peer);
        self
    }
}

/// Application-visible events produced by the session.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionEvent {
    /// The FSM moved.
    StateChanged {
        /// Previous state.
        from: State,
        /// New state.
        to: State,
    },
    /// An UPDATE arrived (session Established).
    Update(UpdateMessage),
    /// The peer closed the session with a NOTIFICATION.
    PeerNotification(NotificationMessage),
    /// We closed the session (reason carried in the NOTIFICATION we
    /// sent, e.g. hold timer expiry).
    Closed {
        /// Human-readable reason.
        reason: String,
    },
}

/// One endpoint of a BGP session (sans-I/O).
pub struct Session {
    config: SessionConfig,
    state: State,
    codec: Codec,
    in_buf: BytesMut,
    out_buf: BytesMut,
    /// When silence from the peer kills the session.
    hold_deadline: Option<SimTime>,
    /// When we owe the peer our next KEEPALIVE.
    keepalive_at: Option<SimTime>,
    negotiated_hold: u16,
    peer_open: Option<OpenMessage>,
    /// Statistics: messages in/out by type code.
    msgs_in: u64,
    msgs_out: u64,
}

impl Session {
    /// Create a session that will actively open once the transport is
    /// up (state `Connect`).
    pub fn connect(config: SessionConfig) -> Session {
        Session {
            // Until negotiation completes, encode conservatively
            // two-octet unless we advertise the capability.
            codec: Codec {
                four_octet_as: config.four_octet,
            },
            config,
            state: State::Connect,
            in_buf: BytesMut::new(),
            out_buf: BytesMut::new(),
            hold_deadline: None,
            keepalive_at: None,
            negotiated_hold: 0,
            peer_open: None,
            msgs_in: 0,
            msgs_out: 0,
        }
    }

    /// Current FSM state.
    pub fn state(&self) -> State {
        self.state
    }

    /// Negotiated hold time (0 until OPENs are exchanged).
    pub fn negotiated_hold_time(&self) -> u16 {
        self.negotiated_hold
    }

    /// The peer's OPEN (once received).
    pub fn peer_open(&self) -> Option<&OpenMessage> {
        self.peer_open.as_ref()
    }

    /// Messages received / sent.
    pub fn message_counts(&self) -> (u64, u64) {
        (self.msgs_in, self.msgs_out)
    }

    /// Bytes queued for transmission (drains the buffer).
    pub fn take_output(&mut self) -> Bytes {
        self.out_buf.split().freeze()
    }

    /// The earliest instant at which [`Session::poll_timers`] would do
    /// something.
    pub fn next_timer(&self) -> Option<SimTime> {
        match (self.hold_deadline, self.keepalive_at) {
            (Some(h), Some(k)) => Some(h.min(k)),
            (Some(t), None) | (None, Some(t)) => Some(t),
            (None, None) => None,
        }
    }

    fn transition(&mut self, to: State, events: &mut Vec<SessionEvent>) {
        if self.state != to {
            events.push(SessionEvent::StateChanged {
                from: self.state,
                to,
            });
            self.state = to;
        }
    }

    fn send(&mut self, msg: &BgpMessage) {
        let bytes = self.codec.encode(msg).expect("session messages encode");
        self.out_buf.extend_from_slice(&bytes);
        self.msgs_out += 1;
    }

    /// The transport connected: send our OPEN (Connect → OpenSent).
    pub fn on_transport_connected(&mut self, _now: SimTime) -> Vec<SessionEvent> {
        let mut events = Vec::new();
        if self.state != State::Connect {
            return events;
        }
        let open = OpenMessage {
            version: 4,
            asn: self.config.local_as,
            hold_time: self.config.hold_time,
            bgp_id: self.config.router_id,
            four_octet_capable: self.config.four_octet,
        };
        self.send(&BgpMessage::Open(open));
        self.transition(State::OpenSent, &mut events);
        events
    }

    fn reset(&mut self) {
        self.hold_deadline = None;
        self.keepalive_at = None;
        self.in_buf.clear();
        self.peer_open = None;
        self.negotiated_hold = 0;
    }

    /// Ingest received bytes; may produce events and queue output.
    ///
    /// Framing: BGP messages are length-prefixed; partial messages stay
    /// buffered until completed. A malformed message tears the session
    /// down with a NOTIFICATION, per the RFC.
    pub fn on_bytes(&mut self, now: SimTime, bytes: &[u8]) -> Vec<SessionEvent> {
        let mut events = Vec::new();
        self.in_buf.extend_from_slice(bytes);
        loop {
            // Do we have a full message? Header is 19 bytes; bytes
            // 16..18 carry the length.
            if self.in_buf.len() < 19 {
                break;
            }
            let claimed = u16::from_be_bytes([self.in_buf[16], self.in_buf[17]]) as usize;
            if claimed > self.in_buf.len() {
                break; // wait for more bytes
            }
            let frame = self.in_buf.split_to(claimed.max(19));
            match self.codec.decode(&frame) {
                Ok((msg, _)) => {
                    self.msgs_in += 1;
                    self.handle_message(now, msg, &mut events);
                }
                Err(e) => {
                    self.fail(now, 1, 0, &format!("decode error: {e}"), &mut events);
                    break;
                }
            }
            if self.state == State::Idle {
                break;
            }
        }
        events
    }

    fn handle_message(&mut self, now: SimTime, msg: BgpMessage, events: &mut Vec<SessionEvent>) {
        // Any message from the peer restarts the hold timer.
        if self.negotiated_hold > 0 {
            self.hold_deadline = Some(now + SimDuration::from_secs(self.negotiated_hold as u64));
        }
        match (self.state, msg) {
            (State::OpenSent, BgpMessage::Open(open)) => {
                if let Some(expected) = self.config.peer_as {
                    if open.asn != expected {
                        self.fail(now, 2, 2, "bad peer AS", events);
                        return;
                    }
                }
                // Negotiate: hold = min, four-octet = both.
                self.negotiated_hold = self.config.hold_time.min(open.hold_time);
                self.codec.four_octet_as = self.config.four_octet && open.four_octet_capable;
                self.peer_open = Some(open);
                self.send(&BgpMessage::Keepalive);
                if self.negotiated_hold > 0 {
                    self.hold_deadline =
                        Some(now + SimDuration::from_secs(self.negotiated_hold as u64));
                    self.keepalive_at =
                        Some(now + SimDuration::from_secs(self.negotiated_hold as u64 / 3));
                }
                self.transition(State::OpenConfirm, events);
            }
            (State::OpenConfirm, BgpMessage::Keepalive) => {
                self.transition(State::Established, events);
            }
            (State::Established, BgpMessage::Keepalive) => {
                // hold timer already refreshed above
            }
            (State::Established, BgpMessage::Update(update)) => {
                events.push(SessionEvent::Update(update));
            }
            (_, BgpMessage::Notification(n)) => {
                events.push(SessionEvent::PeerNotification(n));
                self.reset();
                self.transition(State::Idle, events);
            }
            (state, msg) => {
                // FSM error: message not acceptable in this state.
                self.fail(
                    now,
                    5,
                    0,
                    &format!("unexpected {:?} in {state:?}", msg.type_code()),
                    events,
                );
            }
        }
    }

    fn fail(
        &mut self,
        _now: SimTime,
        code: u8,
        subcode: u8,
        reason: &str,
        events: &mut Vec<SessionEvent>,
    ) {
        self.send(&BgpMessage::Notification(NotificationMessage {
            code,
            subcode,
            data: Vec::new(),
        }));
        self.reset();
        self.transition(State::Idle, events);
        events.push(SessionEvent::Closed {
            reason: reason.to_string(),
        });
    }

    /// Fire any due timers: keepalive transmission and hold expiry.
    pub fn poll_timers(&mut self, now: SimTime) -> Vec<SessionEvent> {
        let mut events = Vec::new();
        if let Some(hold) = self.hold_deadline {
            if now >= hold {
                self.fail(now, 4, 0, "hold timer expired", &mut events);
                return events;
            }
        }
        if let Some(ka) = self.keepalive_at {
            if now >= ka && matches!(self.state, State::OpenConfirm | State::Established) {
                self.send(&BgpMessage::Keepalive);
                self.keepalive_at =
                    Some(now + SimDuration::from_secs((self.negotiated_hold as u64 / 3).max(1)));
            }
        }
        events
    }

    /// Queue an UPDATE for transmission (Established only).
    pub fn announce(&mut self, update: UpdateMessage) -> Result<(), BgpError> {
        if self.state != State::Established {
            return Err(BgpError::Truncated("session not established"));
        }
        self.send(&BgpMessage::Update(update));
        Ok(())
    }

    /// Administratively close (sends cease NOTIFICATION).
    pub fn close(&mut self, _now: SimTime) -> Vec<SessionEvent> {
        let mut events = Vec::new();
        if self.state != State::Idle {
            self.send(&BgpMessage::Notification(
                NotificationMessage::cease_admin_shutdown(),
            ));
            self.reset();
            self.transition(State::Idle, &mut events);
            events.push(SessionEvent::Closed {
                reason: "administrative shutdown".into(),
            });
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_bgp::{AsPath, Asn, PathAttributes, Prefix};
    use std::str::FromStr;

    fn pair() -> (Session, Session) {
        let a = Session::connect(
            SessionConfig::new(Asn(65001), Ipv4Addr::new(10, 0, 0, 1)).with_peer(Asn(65002)),
        );
        let b = Session::connect(
            SessionConfig::new(Asn(65002), Ipv4Addr::new(10, 0, 0, 2)).with_peer(Asn(65001)),
        );
        (a, b)
    }

    /// Shuttle queued bytes between the two endpoints until quiet.
    fn shuttle(now: SimTime, a: &mut Session, b: &mut Session) -> Vec<SessionEvent> {
        let mut events = Vec::new();
        loop {
            let out_a = a.take_output();
            let out_b = b.take_output();
            if out_a.is_empty() && out_b.is_empty() {
                break;
            }
            if !out_a.is_empty() {
                events.extend(b.on_bytes(now, &out_a));
            }
            if !out_b.is_empty() {
                events.extend(a.on_bytes(now, &out_b));
            }
        }
        events
    }

    fn establish(now: SimTime, a: &mut Session, b: &mut Session) {
        a.on_transport_connected(now);
        b.on_transport_connected(now);
        shuttle(now, a, b);
        assert_eq!(a.state(), State::Established);
        assert_eq!(b.state(), State::Established);
    }

    #[test]
    fn handshake_reaches_established() {
        let (mut a, mut b) = pair();
        let t0 = SimTime::ZERO;
        assert_eq!(a.state(), State::Connect);
        a.on_transport_connected(t0);
        assert_eq!(a.state(), State::OpenSent);
        b.on_transport_connected(t0);
        let events = shuttle(t0, &mut a, &mut b);
        assert_eq!(a.state(), State::Established);
        assert_eq!(b.state(), State::Established);
        assert!(events.iter().any(|e| matches!(
            e,
            SessionEvent::StateChanged {
                to: State::Established,
                ..
            }
        )));
        // Hold time negotiated to min(90, 90).
        assert_eq!(a.negotiated_hold_time(), 90);
        assert_eq!(b.peer_open().unwrap().asn, Asn(65001));
    }

    #[test]
    fn hold_time_negotiates_to_min() {
        let mut a = Session::connect(SessionConfig {
            hold_time: 30,
            ..SessionConfig::new(Asn(1), Ipv4Addr::new(1, 1, 1, 1))
        });
        let mut b = Session::connect(SessionConfig::new(Asn(2), Ipv4Addr::new(2, 2, 2, 2)));
        let t0 = SimTime::ZERO;
        a.on_transport_connected(t0);
        b.on_transport_connected(t0);
        shuttle(t0, &mut a, &mut b);
        assert_eq!(a.negotiated_hold_time(), 30);
        assert_eq!(b.negotiated_hold_time(), 30);
    }

    #[test]
    fn wrong_peer_as_is_rejected() {
        let mut a = Session::connect(
            SessionConfig::new(Asn(65001), Ipv4Addr::new(1, 1, 1, 1)).with_peer(Asn(9_999)),
        );
        let mut b = Session::connect(SessionConfig::new(Asn(65002), Ipv4Addr::new(2, 2, 2, 2)));
        let t0 = SimTime::ZERO;
        a.on_transport_connected(t0);
        b.on_transport_connected(t0);
        let events = shuttle(t0, &mut a, &mut b);
        assert_eq!(a.state(), State::Idle, "a must refuse the wrong peer");
        assert!(events.iter().any(|e| matches!(
            e,
            SessionEvent::Closed { reason } if reason.contains("bad peer AS")
        )));
        // b learns via the NOTIFICATION.
        assert!(events
            .iter()
            .any(|e| matches!(e, SessionEvent::PeerNotification(n) if n.code == 2)));
    }

    #[test]
    fn updates_flow_when_established() {
        let (mut a, mut b) = pair();
        let t0 = SimTime::ZERO;
        establish(t0, &mut a, &mut b);
        let update = UpdateMessage::announce(
            PathAttributes::with_path(
                AsPath::from_sequence([65001u32]),
                "10.0.0.1".parse().unwrap(),
            ),
            vec![Prefix::from_str("10.0.0.0/24").unwrap()],
        );
        a.announce(update.clone()).unwrap();
        let events = shuttle(t0, &mut a, &mut b);
        assert!(events
            .iter()
            .any(|e| matches!(e, SessionEvent::Update(u) if *u == update)));
    }

    #[test]
    fn announce_requires_established() {
        let (mut a, _) = pair();
        let update = UpdateMessage::withdraw(vec![Prefix::from_str("10.0.0.0/24").unwrap()]);
        assert!(a.announce(update).is_err());
    }

    #[test]
    fn keepalives_maintain_the_session() {
        let (mut a, mut b) = pair();
        let t0 = SimTime::ZERO;
        establish(t0, &mut a, &mut b);
        // Advance in 20 s steps for 10 minutes, delivering keepalives.
        let mut now = t0;
        for _ in 0..30 {
            now += SimDuration::from_secs(20);
            a.poll_timers(now);
            b.poll_timers(now);
            shuttle(now, &mut a, &mut b);
        }
        assert_eq!(a.state(), State::Established);
        assert_eq!(b.state(), State::Established);
    }

    #[test]
    fn silence_expires_the_hold_timer() {
        let (mut a, mut b) = pair();
        let t0 = SimTime::ZERO;
        establish(t0, &mut a, &mut b);
        // b goes silent; a's hold timer (90 s) must fire.
        let later = t0 + SimDuration::from_secs(91);
        let events = a.poll_timers(later);
        assert_eq!(a.state(), State::Idle);
        assert!(events.iter().any(|e| matches!(
            e,
            SessionEvent::Closed { reason } if reason.contains("hold timer")
        )));
        // The NOTIFICATION (code 4) is queued for the peer.
        let out = a.take_output();
        let (msg, _) = Codec::four_octet().decode(&out).unwrap();
        assert!(matches!(msg, BgpMessage::Notification(n) if n.code == 4));
    }

    #[test]
    fn next_timer_reports_earliest() {
        let (mut a, mut b) = pair();
        let t0 = SimTime::ZERO;
        establish(t0, &mut a, &mut b);
        let next = a.next_timer().expect("timers armed when established");
        // Keepalive (hold/3 = 30 s) earlier than hold (90 s).
        assert_eq!(next, t0 + SimDuration::from_secs(30));
    }

    #[test]
    fn partial_frames_are_buffered() {
        let (mut a, mut b) = pair();
        let t0 = SimTime::ZERO;
        a.on_transport_connected(t0);
        let open_bytes = a.take_output();
        b.on_transport_connected(t0);
        let _ = b.take_output();
        // Deliver a's OPEN one byte at a time.
        let mut events = Vec::new();
        for chunk in open_bytes.chunks(1) {
            events.extend(b.on_bytes(t0, chunk));
        }
        assert_eq!(b.state(), State::OpenConfirm, "reassembled OPEN processed");
    }

    #[test]
    fn garbage_bytes_tear_down_with_notification() {
        let (mut a, mut b) = pair();
        let t0 = SimTime::ZERO;
        establish(t0, &mut a, &mut b);
        let garbage = vec![0u8; 19]; // all-zero marker = BadMarker
        let events = b.on_bytes(t0, &garbage);
        assert_eq!(b.state(), State::Idle);
        assert!(events
            .iter()
            .any(|e| matches!(e, SessionEvent::Closed { .. })));
    }

    #[test]
    fn administrative_close_sends_cease() {
        let (mut a, mut b) = pair();
        let t0 = SimTime::ZERO;
        establish(t0, &mut a, &mut b);
        a.close(t0);
        let events = shuttle(t0, &mut a, &mut b);
        assert_eq!(a.state(), State::Idle);
        assert_eq!(b.state(), State::Idle);
        assert!(events
            .iter()
            .any(|e| matches!(e, SessionEvent::PeerNotification(n) if n.code == 6)));
    }

    #[test]
    fn four_octet_negotiation_falls_back() {
        let mut a = Session::connect(SessionConfig {
            four_octet: false,
            ..SessionConfig::new(Asn(65001), Ipv4Addr::new(1, 1, 1, 1))
        });
        let mut b = Session::connect(SessionConfig::new(Asn(65002), Ipv4Addr::new(2, 2, 2, 2)));
        let t0 = SimTime::ZERO;
        a.on_transport_connected(t0);
        b.on_transport_connected(t0);
        shuttle(t0, &mut a, &mut b);
        assert_eq!(a.state(), State::Established);
        // Updates still flow (the codec fell back to two-octet).
        let update = UpdateMessage::announce(
            PathAttributes::with_path(
                AsPath::from_sequence([65001u32]),
                "10.0.0.1".parse().unwrap(),
            ),
            vec![Prefix::from_str("10.0.0.0/24").unwrap()],
        );
        a.announce(update.clone()).unwrap();
        let events = shuttle(t0, &mut a, &mut b);
        assert!(events
            .iter()
            .any(|e| matches!(e, SessionEvent::Update(u) if u.nlri == update.nlri)));
    }

    #[test]
    fn message_counters_track_traffic() {
        let (mut a, mut b) = pair();
        let t0 = SimTime::ZERO;
        establish(t0, &mut a, &mut b);
        let (rx, tx) = a.message_counts();
        assert!(rx >= 2, "OPEN + KEEPALIVE received");
        assert!(tx >= 2, "OPEN + KEEPALIVE sent");
    }
}

//! The traffic generator's content: RFC 7854 bytes for background
//! churn, hijacks and their healing, and the ledger the checker later
//! matches the program's event stream against.
//!
//! Everything here is a pure function of the seed. Nothing depends on
//! timing: a stream is a sequence of messages, lifetimes are counted in
//! events, and the harnesses only decide *when* to write the next
//! bytes.

use crate::fleet::{addr_of, v4, Fleet, OPERATOR_AS};
use crate::rng::Rng;
use artemis_bgp::{AsPath, Asn, BgpMessage, OpenMessage, PathAttributes, Prefix, UpdateMessage};
use artemis_bmp::{BmpMessage, BmpWriter, InfoTlv, PeerHeader};
use artemis_core::HijackType;
use std::net::{IpAddr, Ipv4Addr};

/// What the background churn of a workload is made of, in percent of
/// messages (events follow, because NLRI counts are drawn
/// independently of the class).
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Prefixes nobody in the fleet owns.
    pub noise: u32,
    /// Legitimate announcements and withdrawals of owned prefixes.
    pub legit: u32,
    /// Vantage-point flips on the prefixes of the long-lived incidents
    /// (`incident_storm` only); the remainder up to 100.
    pub flips: u32,
}

/// Events in one pre-encoded background cycle. Replayed for as long as
/// a round lasts; 256k events is about 6 MB, larger than the last-level
/// cache, so the reader does not see an unrealistically warm buffer.
pub const CYCLE_EVENTS: usize = 256 * 1024;
/// Long-lived incidents `incident_storm` keeps open for a whole round.
pub const STORM_LANES: usize = 48;

/// End offset and event count of one framed message in a byte buffer.
#[derive(Debug, Clone, Copy)]
pub struct MsgMark {
    pub end: u32,
    pub events: u16,
}

/// Framed messages with their boundaries, so a harness can cut the
/// bytes at message granularity and knows how many events it sent.
#[derive(Default)]
pub struct Encoded {
    pub bytes: Vec<u8>,
    pub msgs: Vec<MsgMark>,
}

impl Encoded {
    pub fn events(&self) -> u64 {
        self.msgs.iter().map(|m| m.events as u64).sum()
    }

    /// Append messages `range` (indices into `other.msgs`) of `other`.
    pub fn append(&mut self, other: &Encoded, range: std::ops::Range<usize>) {
        if range.is_empty() {
            return;
        }
        let from = match range.start {
            0 => 0,
            i => other.msgs[i - 1].end,
        };
        let to = other.msgs[range.end - 1].end;
        let shift = self.bytes.len() as u32;
        self.bytes
            .extend_from_slice(&other.bytes[from as usize..to as usize]);
        self.msgs.extend(other.msgs[range].iter().map(|m| MsgMark {
            end: m.end - from + shift,
            events: m.events,
        }));
    }

    pub fn append_all(&mut self, other: &Encoded) {
        self.append(other, 0..other.msgs.len());
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HijackKind {
    /// The owned prefix itself, announced by a foreign origin.
    Exact,
    /// A more-specific of the owned prefix, foreign origin.
    Sub,
    /// Any announcement of a dormant owned prefix.
    Squat,
}

/// One injected hijack: what was announced, by whom, through which
/// vantage points, and what the program must say about it.
#[derive(Debug, Clone)]
pub struct Hijack {
    pub kind: HijackKind,
    pub owned: Prefix,
    pub observed: Prefix,
    pub rogue: u32,
    /// Indices into `Fleet::vantage_points`.
    pub vps: Vec<usize>,
}

impl Hijack {
    pub fn expected_type(&self) -> HijackType {
        match self.kind {
            HijackKind::Exact => HijackType::ExactOrigin,
            HijackKind::Sub => HijackType::SubPrefix,
            HijackKind::Squat => HijackType::Squatting,
        }
    }
}

fn nlri_count(rng: &mut Rng) -> usize {
    match rng.below(10) {
        0..=4 => 1,
        5..=7 => 4,
        _ => 16,
    }
}

/// Writes messages for one run. Owns the RNG streams and the victim
/// cursors, so every hijack of a run — across all its rounds — targets
/// a different owned prefix.
pub struct Generator<'f> {
    fleet: &'f Fleet,
    rng: Rng,
    next_exact: usize,
    next_sub: usize,
    next_squat: usize,
    hijacks_made: u32,
}

impl<'f> Generator<'f> {
    pub fn new(fleet: &'f Fleet, seed: u64) -> Self {
        Generator {
            fleet,
            rng: Rng::new(seed).fork(2),
            next_exact: 0,
            next_sub: 0,
            next_squat: 0,
            hijacks_made: 0,
        }
    }

    fn peer(&self, vp: usize) -> PeerHeader {
        PeerHeader::global(
            IpAddr::V4(Ipv4Addr::new(
                10,
                255,
                (vp / 250) as u8,
                (vp % 250) as u8 + 1,
            )),
            self.fleet.vantage_points[vp],
            Ipv4Addr::new(10, 255, 255, vp as u8),
            // The live feed stamps emission itself; the wire timestamp
            // only has to be plausible.
            1_700_000_000_000_000,
        )
    }

    /// `[vantage, transit…, origin]`, `len` ASNs in total.
    fn path(&mut self, vp: usize, origin: u32, len: usize) -> PathAttributes {
        let mut asns = Vec::with_capacity(len);
        asns.push(self.fleet.vantage_points[vp].0);
        for _ in 0..len.saturating_sub(2) {
            asns.push(1_000 + self.rng.below(50_000) as u32);
        }
        asns.push(origin);
        PathAttributes::with_path(
            AsPath::from_sequence(asns),
            IpAddr::V4(Ipv4Addr::new(192, 0, 2, 1)),
        )
    }

    fn push(&self, out: &mut Encoded, vp: usize, update: UpdateMessage) {
        let events = (update.withdrawn.len() + update.nlri.len()) as u16;
        let mut w = BmpWriter::new();
        w.write(&BmpMessage::RouteMonitoring {
            peer: self.peer(vp),
            update: BgpMessage::Update(update),
        })
        .expect("generated UPDATE fits one BMP message");
        out.bytes.extend_from_slice(w.as_bytes());
        out.msgs.push(MsgMark {
            end: out.bytes.len() as u32,
            events,
        });
    }

    /// Session opening: Initiation, one PeerUp per vantage point, and a
    /// single noise announcement — the first event the program
    /// delivers, which ends `setup_s`.
    pub fn session_open(&mut self) -> Encoded {
        let mut w = BmpWriter::new();
        w.write(&BmpMessage::Initiation {
            info: vec![
                InfoTlv::string(2, "artemis-benchmark"),
                InfoTlv::string(1, "synthetic collector"),
            ],
        })
        .expect("initiation encodes");
        for vp in 0..self.fleet.vantage_points.len() {
            let asn = self.fleet.vantage_points[vp];
            let open = |asn: Asn, bgp_id: Ipv4Addr| OpenMessage {
                version: 4,
                asn,
                hold_time: 180,
                bgp_id,
                four_octet_capable: true,
            };
            w.write(&BmpMessage::PeerUp {
                peer: self.peer(vp),
                local_ip: IpAddr::V4(Ipv4Addr::new(10, 255, 255, 254)),
                local_port: 179,
                remote_port: 40_000 + vp as u16,
                sent_open: open(Asn(OPERATOR_AS), Ipv4Addr::new(10, 255, 255, 254)),
                recv_open: open(asn, Ipv4Addr::new(10, 255, 255, vp as u8)),
            })
            .expect("peer up encodes");
        }
        let mut out = Encoded {
            bytes: w.into_bytes(),
            msgs: Vec::new(),
        };
        let attrs = self.path(0, 3_333, 3);
        self.push(
            &mut out,
            0,
            UpdateMessage::announce(attrs, vec![v4(0xC633_6400, 24)]),
        );
        out
    }

    fn noise_prefix(&mut self) -> Prefix {
        if self.rng.percent(10) && !self.fleet.holes.is_empty() {
            return self.fleet.holes[self.rng.below(self.fleet.holes.len())];
        }
        let len = match self.rng.below(10) {
            0..=5 => 24,
            6..=7 => 22 + self.rng.below(2) as u8,
            _ => 16 + self.rng.below(6) as u8,
        };
        let addr = ((32 + self.rng.below(192)) as u32) << 24 | (self.rng.next_u64() as u32 >> 8);
        v4(addr & (u32::MAX << (32 - len)), len)
    }

    fn legit_prefix(&mut self) -> Prefix {
        let i = self.fleet.legit_pool[self.rng.below(self.fleet.legit_pool.len())];
        self.fleet.owned[i as usize].prefix
    }

    fn random_vp(&mut self) -> usize {
        self.rng.below(self.fleet.vantage_points.len())
    }

    /// One cycle of background churn: full-table shaped (AS-path length
    /// 3–8, 10 % withdrawals, 1/4/16 NLRI per UPDATE at 50/30/20 %).
    /// `lanes` are the long-lived incidents the flips play on.
    pub fn background_cycle(&mut self, mix: Mix, lanes: &[Hijack]) -> Encoded {
        assert!(mix.noise + mix.legit + mix.flips == 100);
        assert!(mix.flips == 0 || !lanes.is_empty());
        let mut out = Encoded::default();
        let mut events = 0usize;
        while events < CYCLE_EVENTS {
            let before = out.msgs.len();
            let class = self.rng.below(100) as u32;
            if class < mix.noise + mix.legit {
                let noise = class < mix.noise;
                let vp = self.random_vp();
                let n = nlri_count(&mut self.rng);
                let prefixes: Vec<Prefix> = (0..n)
                    .map(|_| {
                        if noise {
                            self.noise_prefix()
                        } else {
                            self.legit_prefix()
                        }
                    })
                    .collect();
                let update = if self.rng.percent(10) {
                    UpdateMessage::withdraw(prefixes)
                } else {
                    let origin = if noise {
                        1_000 + self.rng.below(50_000) as u32
                    } else {
                        OPERATOR_AS
                    };
                    let len = 3 + self.rng.below(6);
                    UpdateMessage::announce(self.path(vp, origin, len), prefixes)
                };
                self.push(&mut out, vp, update);
            } else {
                self.flip(&mut out, lanes);
            }
            events += out.msgs[before..]
                .iter()
                .map(|m| m.events as usize)
                .sum::<usize>();
        }
        out
    }

    /// One vantage-point flip on the long-lived incidents. Each lane's
    /// first vantage point (its anchor) never flips, so the incident
    /// stays open whatever the others do; nothing here can raise a new
    /// alert (rogue announcements dedup onto the open one, the rest
    /// classify benign).
    fn flip(&mut self, out: &mut Encoded, lanes: &[Hijack]) {
        let lane = &lanes[self.rng.below(lanes.len())];
        let vp = loop {
            let vp = self.random_vp();
            if vp != lane.vps[0] {
                break vp;
            }
        };
        let update = match self.rng.below(10) {
            // The hijacker's route reaches another vantage point.
            0..=3 => UpdateMessage::announce(self.path(vp, lane.rogue, 3), vec![lane.observed]),
            // Vantage points (re)select the legitimate route, for a
            // few of the attacked prefixes in one UPDATE.
            4..=7 => {
                let n = 1 + self.rng.below(4);
                let mut prefixes = vec![lane.owned];
                for _ in 1..n {
                    let other = &lanes[self.rng.below(lanes.len())];
                    if other.vps[0] != vp && !prefixes.contains(&other.owned) {
                        prefixes.push(other.owned);
                    }
                }
                let len = 3 + self.rng.below(6);
                UpdateMessage::announce(self.path(vp, OPERATOR_AS, len), prefixes)
            }
            // The vantage point loses the hijacker's route.
            8 => UpdateMessage::withdraw(vec![lane.observed]),
            // The operator's covering aggregate: routed to every
            // monitor whose target it contains, never more specific
            // than anything, so it changes no verdict.
            _ => {
                let aggregate = v4(addr_of(lane.owned) & 0xFFFF_0000, 16);
                UpdateMessage::announce(self.path(vp, OPERATOR_AS, 4), vec![aggregate])
            }
        };
        self.push(out, vp, update);
    }

    /// True once in `n` calls on average (the open-loop hijack schedule).
    pub fn one_in(&mut self, n: usize) -> bool {
        self.rng.below(n) == 0
    }

    /// The next hijack: 50 % exact-prefix origin, 40 % sub-prefix,
    /// 10 % squatting, seen by one to three vantage points. `None`
    /// once a victim pool is used up (a run never re-attacks a prefix).
    pub fn next_hijack(&mut self) -> Option<Hijack> {
        let kind = match self.rng.below(10) {
            0..=4 => HijackKind::Exact,
            5..=8 => HijackKind::Sub,
            _ => HijackKind::Squat,
        };
        self.hijack_of(kind)
    }

    fn hijack_of(&mut self, kind: HijackKind) -> Option<Hijack> {
        let (pool, cursor) = match kind {
            HijackKind::Exact => (&self.fleet.exact_victims, &mut self.next_exact),
            HijackKind::Sub => (&self.fleet.sub_victims, &mut self.next_sub),
            HijackKind::Squat => (&self.fleet.squat_victims, &mut self.next_squat),
        };
        let owned = self.fleet.owned[*pool.get(*cursor)? as usize].prefix;
        *cursor += 1;
        let observed = match kind {
            HijackKind::Exact | HijackKind::Squat => owned,
            // A more-specific no longer than /24, somewhere inside.
            HijackKind::Sub => {
                let len = owned.len() + 1 + self.rng.below((24 - owned.len()) as usize) as u8;
                let span = 1u32 << (len - owned.len());
                let offset = (self.rng.below(span as usize) as u32) << (32 - len);
                v4(addr_of(owned) | offset, len)
            }
        };
        let mut vps = Vec::new();
        // Squatting has one witness: auto-mitigation announces the
        // dormant prefix and thereby ends its dormancy, so a second
        // vantage point reporting the same squatter afterwards is
        // classified ExactOrigin and raises a second alert for one
        // incident (README, "Findings"). Which of the two a run sees
        // depends on batching, and a workload must not fail by design.
        let witnesses = match kind {
            HijackKind::Squat => 1,
            _ => 1 + self.rng.below(3),
        };
        while vps.len() < witnesses {
            let vp = self.random_vp();
            if !vps.contains(&vp) {
                vps.push(vp);
            }
        }
        let rogue = 64_512 + self.hijacks_made % 400;
        self.hijacks_made += 1;
        Some(Hijack {
            kind,
            owned,
            observed,
            rogue,
            vps,
        })
    }

    /// The long-lived incidents of `incident_storm`: half exact, half
    /// sub-prefix.
    pub fn storm_lanes(&mut self) -> Vec<Hijack> {
        (0..STORM_LANES)
            .map(|i| {
                let kind = if i % 2 == 0 {
                    HijackKind::Exact
                } else {
                    HijackKind::Sub
                };
                self.hijack_of(kind).expect("victim pools hold the lanes")
            })
            .collect()
    }

    /// The hijacker's announcement, one message per witnessing vantage
    /// point.
    pub fn encode_hijack(&mut self, h: &Hijack) -> Encoded {
        let mut out = Encoded::default();
        for &vp in &h.vps {
            let attrs = self.path(vp, h.rogue, 3);
            self.push(
                &mut out,
                vp,
                UpdateMessage::announce(attrs, vec![h.observed]),
            );
        }
        out
    }

    /// The same vantage points return to the legitimate route: the
    /// more-specific (if any) is withdrawn and the owned prefix is
    /// announced by the operator.
    pub fn encode_heal(&mut self, h: &Hijack) -> Encoded {
        self.heal_through(h, &h.vps)
    }

    fn heal_through(&mut self, h: &Hijack, vps: &[usize]) -> Encoded {
        let mut out = Encoded::default();
        for &vp in vps {
            let len = 3 + self.rng.below(3);
            let update = UpdateMessage {
                withdrawn: if h.observed == h.owned {
                    Vec::new()
                } else {
                    vec![h.observed]
                },
                attrs: Some(self.path(vp, OPERATOR_AS, len)),
                nlri: vec![h.owned],
            };
            self.push(&mut out, vp, update);
        }
        out
    }

    /// Healing of a long-lived incident: flips may have left any
    /// vantage point on the hijacker's route, so all of them return.
    pub fn encode_lane_heal(&mut self, lane: &Hijack) -> Encoded {
        let all: Vec<usize> = (0..self.fleet.vantage_points.len()).collect();
        // The anchor last, so the incident stays open until the end.
        let mut order: Vec<usize> = all.into_iter().filter(|vp| *vp != lane.vps[0]).collect();
        order.push(lane.vps[0]);
        self.heal_through(lane, &order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_bmp::BmpScanner;
    use std::collections::BTreeSet;

    const FIREHOSE: Mix = Mix {
        noise: 90,
        legit: 10,
        flips: 0,
    };

    /// Decode a stream back through the repository's scanner and count
    /// the route events in it.
    fn decoded_events(bytes: &[u8]) -> u64 {
        let mut scanner = BmpScanner::new(bytes);
        let mut events = 0;
        while let Some(raw) = scanner.next_raw().expect("framing is sound") {
            if let BmpMessage::RouteMonitoring {
                update: BgpMessage::Update(u),
                ..
            } = raw.decode().expect("message decodes")
            {
                events += (u.withdrawn.len() + u.nlri.len()) as u64;
            }
        }
        events
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let fleet = Fleet::generate(5);
        let make = |seed| {
            let mut g = Generator::new(&fleet, seed);
            let mut bytes = g.session_open().bytes;
            bytes.extend(g.background_cycle(FIREHOSE, &[]).bytes);
            let h = g.next_hijack().unwrap();
            bytes.extend(g.encode_hijack(&h).bytes);
            bytes.extend(g.encode_heal(&h).bytes);
            bytes
        };
        assert_eq!(make(5), make(5));
        assert_ne!(make(5), make(6));
    }

    #[test]
    fn stream_decodes_to_the_declared_event_count() {
        let fleet = Fleet::generate(9);
        let mut g = Generator::new(&fleet, 9);
        let lanes = g.storm_lanes();
        let storm = Mix {
            noise: 25,
            legit: 25,
            flips: 50,
        };
        for enc in [
            g.session_open(),
            g.background_cycle(FIREHOSE, &[]),
            g.background_cycle(storm, &lanes),
            g.encode_lane_heal(&lanes[1]),
        ] {
            assert_eq!(decoded_events(&enc.bytes), enc.events());
            assert_eq!(enc.msgs.last().unwrap().end as usize, enc.bytes.len());
        }
        let cycle = g.background_cycle(FIREHOSE, &[]);
        assert!(cycle.events() as usize >= CYCLE_EVENTS);
        assert!((cycle.events() as usize) < CYCLE_EVENTS + 16);
    }

    #[test]
    fn victims_are_distinct_and_inside_the_fleet() {
        let fleet = Fleet::generate(2);
        let owned: BTreeSet<Prefix> = fleet.owned.iter().map(|o| o.prefix).collect();
        let mut g = Generator::new(&fleet, 2);
        let mut seen = BTreeSet::new();
        for lane in g.storm_lanes() {
            assert!(seen.insert(lane.owned));
        }
        let mut kinds = [0usize; 3];
        for _ in 0..3_000 {
            let Some(h) = g.next_hijack() else { break };
            assert!(seen.insert(h.owned), "victim {} attacked twice", h.owned);
            assert!(owned.contains(&h.owned));
            assert!(h.owned.contains(h.observed));
            assert!(h.observed.len() <= 24);
            assert_eq!(h.kind == HijackKind::Sub, h.observed != h.owned);
            assert!((1..=3).contains(&h.vps.len()));
            kinds[h.kind as usize] += 1;
        }
        assert!(seen.len() > 2_000);
        assert!(kinds[0] > kinds[1] && kinds[1] > kinds[2] && kinds[2] > 0);
    }
}

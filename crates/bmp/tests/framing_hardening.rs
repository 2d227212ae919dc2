//! Fuzz-shaped hardening for BMP framing, mirroring the MRT scanner
//! rules: truncated common headers, mid-stream garbage, and impossible
//! length fields must **resync or fuse** — never panic, never loop.

use artemis_bgp::{
    AsPath, Asn, BgpMessage, Community, PathAttributes, PathEnds, Prefix, Segment, UpdateMessage,
};
use artemis_bmp::{
    BmpMessage, BmpScanner, BmpWriter, FrameAssembler, InfoTlv, PeerHeader, RawBmpMessage,
    COMMON_HEADER_LEN, MAX_BMP_MESSAGE_LEN, MSG_ROUTE_MONITORING, PEER_FLAG_A, PEER_HEADER_LEN,
};
use proptest::prelude::*;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::str::FromStr;

fn valid_stream(n: usize) -> Vec<u8> {
    let peer = PeerHeader::global(
        IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10)),
        Asn(174),
        Ipv4Addr::new(10, 0, 0, 1),
        1_000_000,
    );
    let mut w = BmpWriter::new();
    w.write(&BmpMessage::Initiation {
        info: vec![InfoTlv::string(2, "rrc00")],
    })
    .unwrap();
    for i in 0..n {
        w.write(&BmpMessage::RouteMonitoring {
            peer,
            update: BgpMessage::Update(UpdateMessage::announce(
                PathAttributes::with_path(
                    AsPath::from_sequence([174u32, 3356, 65000 + i as u32 % 100]),
                    "192.0.2.10".parse().unwrap(),
                ),
                vec![Prefix::from_str("10.0.0.0/24").unwrap()],
            )),
        })
        .unwrap();
    }
    w.into_bytes()
}

/// Drive a scanner to exhaustion with an iteration budget; panics if
/// the budget is exceeded (i.e. the scanner loops).
fn scan_to_end(data: &[u8]) -> (usize, usize) {
    let mut scanner = BmpScanner::new(data);
    let (mut ok, mut errs) = (0usize, 0usize);
    for _ in 0..(data.len() + 8) {
        match scanner.next_raw() {
            Ok(Some(raw)) => {
                // Decoding arbitrary bodies must never panic either.
                let _ = raw.decode();
                ok += 1;
            }
            Ok(None) => return (ok, errs),
            Err(_) => errs += 1,
        }
    }
    panic!("scanner failed to terminate within the iteration budget");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes: the scanner terminates without panicking, and
    /// header-level corruption fuses (at most one error).
    #[test]
    fn scanner_survives_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let (_, errs) = scan_to_end(&data);
        prop_assert!(errs <= 1, "header corruption must fuse, got {errs} errors");
    }

    /// A valid stream with garbage appended: every valid message is
    /// recovered, then the scanner errors at most once and stops.
    #[test]
    fn garbage_tail_never_costs_valid_messages(
        n in 1usize..6,
        garbage in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let mut bytes = valid_stream(n);
        bytes.extend_from_slice(&garbage);
        let (ok, errs) = scan_to_end(&bytes);
        prop_assert!(ok > n, "lost valid messages: {ok} < {}", n + 1);
        prop_assert!(errs <= 1);
    }

    /// Truncation at every possible point: the intact prefix of
    /// messages is recovered; the cut frame is one error, then EOF.
    #[test]
    fn truncation_yields_the_intact_prefix(n in 1usize..5, frac in 0.0f64..1.0) {
        let bytes = valid_stream(n);
        let cut = (bytes.len() as f64 * frac) as usize;
        let (ok, errs) = scan_to_end(&bytes[..cut]);
        prop_assert!(ok <= n + 1);
        prop_assert!(errs <= 1);
        // Whole-message boundaries are exact: no error at a boundary.
        let full = scan_to_end(&bytes);
        prop_assert_eq!(full, (n + 1, 0));
    }

    /// An impossible length field mid-stream (too small to advance or
    /// beyond the message cap) fuses rather than looping.
    #[test]
    fn impossible_length_fields_fuse(
        n in 0usize..4,
        len in prop_oneof![0u32..6, (MAX_BMP_MESSAGE_LEN as u32 + 1)..u32::MAX],
    ) {
        let mut bytes = valid_stream(n);
        bytes.push(3); // correct version, hostile length
        bytes.extend_from_slice(&len.to_be_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&valid_stream(1)); // unreachable tail
        let (ok, errs) = scan_to_end(&bytes);
        prop_assert_eq!(ok, n + 1);
        prop_assert_eq!(errs, 1, "bad length is unrecoverable");
    }

    /// The frame assembler reproduces the scanner's output under any
    /// chunking of the byte stream.
    #[test]
    fn assembler_matches_scanner_under_any_chunking(
        n in 1usize..6,
        chunk in 1usize..128,
    ) {
        let bytes = valid_stream(n);
        let expect: Vec<_> = BmpScanner::new(&bytes)
            .map(|r| r.unwrap().decode().unwrap())
            .collect();
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for part in bytes.chunks(chunk) {
            asm.push(part);
            while let Some(raw) = asm.next_message().unwrap() {
                got.push(raw.decode().unwrap());
            }
        }
        prop_assert_eq!(got, expect);
        prop_assert_eq!(asm.buffered(), 0);
    }

    /// Feeding the assembler arbitrary garbage keeps memory bounded:
    /// once fused it buffers nothing, and before fusing it holds at
    /// most one incomplete frame.
    #[test]
    fn assembler_memory_stays_bounded_on_garbage(
        chunks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..64), 1..32),
    ) {
        let mut asm = FrameAssembler::new();
        for chunk in &chunks {
            asm.push(chunk);
            // Drain completable frames; tolerate (sticky) errors.
            for _ in 0..(chunk.len() + 8) {
                match asm.next_message() {
                    Ok(Some(_)) => continue,
                    Ok(None) | Err(_) => break,
                }
            }
            prop_assert!(
                asm.buffered() <= MAX_BMP_MESSAGE_LEN + 64,
                "assembler buffered {} bytes",
                asm.buffered()
            );
            if asm.is_fused() {
                prop_assert_eq!(asm.buffered(), 0);
            }
        }
    }
}

/// One generated route-monitoring message: what it announces and
/// withdraws, and an optional single-byte mutation of its encoding.
type Spec = (
    u8,                // shape, see `update_of`
    Vec<(u32, u8)>,    // IPv4 prefixes (address, length)
    Vec<(u64, u8)>,    // IPv6 prefixes (top 64 bits, length)
    Vec<u32>,          // AS_SEQUENCE
    Option<Vec<u32>>,  // trailing AS_SET
    Vec<u32>,          // communities
    Option<(u16, u8)>, // mutation: (position, byte)
);

fn spec() -> impl Strategy<Value = Spec> {
    (
        0u8..6,
        proptest::collection::vec((any::<u32>(), 0u8..=32), 1..6),
        proptest::collection::vec((any::<u64>(), 0u8..=64), 1..4),
        proptest::collection::vec(any::<u32>(), 1..5),
        proptest::option::of(proptest::collection::vec(any::<u32>(), 1..4)),
        proptest::collection::vec(any::<u32>(), 0..3),
        proptest::option::of((any::<u16>(), any::<u8>())),
    )
}

/// The UPDATE a spec describes. Shapes: 0 IPv4 announcement, 1 pure
/// IPv4 withdrawal, 2 IPv4 withdrawals and announcements, 3 IPv6
/// announcement (MP_REACH) beside IPv4 withdrawals, 4 pure withdrawal
/// of both families (MP_UNREACH), 5 announcement of both families
/// beside IPv6 withdrawals.
fn update_of(spec: &Spec) -> UpdateMessage {
    let (shape, v4, v6, seq, set, communities, _) = spec;
    let v4: Vec<Prefix> = v4
        .iter()
        .map(|&(a, len)| Prefix::v4(Ipv4Addr::from(a), len).unwrap())
        .collect();
    let v6: Vec<Prefix> = v6
        .iter()
        .map(|&(a, len)| Prefix::v6(Ipv6Addr::from((a as u128) << 64), len).unwrap())
        .collect();
    let attrs = |next_hop: IpAddr| {
        let mut segments = vec![Segment::Sequence(seq.iter().copied().map(Asn).collect())];
        if let Some(set) = set {
            segments.push(Segment::Set(set.iter().copied().map(Asn).collect()));
        }
        let mut attrs = PathAttributes::with_path(AsPath::from_segments(segments), next_hop);
        attrs.communities = communities.iter().copied().map(Community).collect();
        Some(attrs)
    };
    let v4_hop = IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10));
    let v6_hop = IpAddr::V6("2001:db8::10".parse().unwrap());
    let (withdrawn, attrs, nlri) = match shape {
        0 => (vec![], attrs(v4_hop), v4),
        1 => (v4, None, vec![]),
        2 => {
            let (w, n) = v4.split_at(v4.len() / 2);
            (w.to_vec(), attrs(v4_hop), n.to_vec())
        }
        3 => (v4, attrs(v6_hop), v6),
        4 => ([v4, v6].concat(), None, vec![]),
        _ => (v6.clone(), attrs(v4_hop), [v4, v6].concat()),
    };
    UpdateMessage {
        withdrawn,
        attrs,
        nlri,
    }
}

/// The spec's framed message, mutated if it says so: `(type, body)`.
/// A mutation past the body's end rewrites the message type instead.
fn frame_of(spec: &Spec) -> (u8, Vec<u8>) {
    let peer = PeerHeader::global(
        IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10)),
        Asn(174),
        Ipv4Addr::new(10, 0, 0, 1),
        7_000_001,
    );
    let mut w = BmpWriter::new();
    w.write(&BmpMessage::RouteMonitoring {
        peer,
        update: BgpMessage::Update(update_of(spec)),
    })
    .unwrap();
    let mut body = w.into_bytes().split_off(COMMON_HEADER_LEN);
    let mut msg_type = MSG_ROUTE_MONITORING;
    if let Some((pos, byte)) = spec.6 {
        let at = pos as usize % (body.len() + 1);
        match body.get_mut(at) {
            Some(b) => *b = byte,
            None => msg_type = byte % 6,
        }
    }
    (msg_type, body)
}

/// AS path segments as generated: `(is AS_SET, ASNs)`, empty ones and
/// sets anywhere included.
type Segments = Vec<(bool, Vec<u32>)>;

/// One UPDATE written byte by byte, so that it can carry what the
/// encoder never writes: empty segments, AS_SETs before sequences, an
/// AS4_PATH shorter than, as long as or longer than AS_PATH, missing
/// mandatory attributes. Then framed as a route-monitoring message
/// whose per-peer header names the session's AS_PATH format.
#[derive(Debug, Clone)]
struct WireUpdate {
    four_octet: bool,
    /// IPv4 prefixes (address, length), withdrawn and announced.
    withdrawn: Vec<(u32, u8)>,
    announced: Vec<(u32, u8)>,
    /// IPv6 prefixes (top 64 bits, length) in MP_UNREACH and MP_REACH.
    withdrawn6: Vec<(u64, u8)>,
    announced6: Vec<(u64, u8)>,
    /// ORIGIN and NEXT_HOP present.
    origin: bool,
    next_hop: bool,
    as_path: Option<Segments>,
    as4_path: Option<Segments>,
    communities: Vec<u32>,
    /// A truncation of the BMP body, then a single-byte mutation of it
    /// (past the body's end: of the message type).
    cut: Option<u16>,
    mutation: Option<(u16, u8)>,
}

fn segments() -> impl Strategy<Value = Segments> {
    // A few ASNs recur so that paths prepend and hit AS_TRANS (23456).
    let asn = prop_oneof![Just(23456u32), Just(174), Just(4_200_000_001), any::<u32>()];
    proptest::collection::vec((any::<bool>(), proptest::collection::vec(asn, 0..5)), 0..4)
}

fn wire_update() -> impl Strategy<Value = WireUpdate> {
    let v4 = || proptest::collection::vec((any::<u32>(), 0u8..=32), 0..4);
    let v6 = || proptest::collection::vec((any::<u64>(), 0u8..=64), 0..3);
    (
        (any::<bool>(), v4(), v4(), v6(), v6()),
        (
            (0u8..10).prop_map(|x| x != 0),
            (0u8..10).prop_map(|x| x != 0),
            (0u8..10, segments()).prop_map(|(x, path)| (x != 0).then_some(path)),
            proptest::option::of(segments()),
            proptest::collection::vec(any::<u32>(), 0..3),
        ),
        (
            (0u8..8, any::<u16>()).prop_map(|(x, cut)| (x == 0).then_some(cut)),
            (0u8..4, any::<u16>(), any::<u8>()).prop_map(|(x, at, b)| (x == 0).then_some((at, b))),
        ),
    )
        .prop_map(
            |(
                (four_octet, wd, nlri, wd6, nlri6),
                (origin, next_hop, as_path, as4_path, communities),
                (cut, mutation),
            )| WireUpdate {
                four_octet,
                withdrawn: wd,
                announced: nlri,
                withdrawn6: wd6,
                announced6: nlri6,
                origin,
                next_hop,
                as_path,
                as4_path,
                communities,
                cut,
                mutation,
            },
        )
}

fn put_attr(out: &mut Vec<u8>, flags: u8, code: u8, value: &[u8]) {
    if value.len() > 255 {
        out.extend_from_slice(&[flags | 0x10, code]);
        out.extend_from_slice(&(value.len() as u16).to_be_bytes());
    } else {
        out.extend_from_slice(&[flags, code, value.len() as u8]);
    }
    out.extend_from_slice(value);
}

fn put_segments(segments: &Segments, four_octet: bool) -> Vec<u8> {
    let mut out = Vec::new();
    for (set, asns) in segments {
        out.extend_from_slice(&[if *set { 1 } else { 2 }, asns.len() as u8]);
        for &asn in asns {
            if four_octet {
                out.extend_from_slice(&asn.to_be_bytes());
            } else {
                out.extend_from_slice(&(asn as u16).to_be_bytes());
            }
        }
    }
    out
}

/// One NLRI prefix: its length, then as many address bytes as it needs
/// (host bits left as generated).
fn put_prefix(out: &mut Vec<u8>, bits: u128, len: u8) {
    out.push(len);
    out.extend_from_slice(&bits.to_be_bytes()[..(len as usize).div_ceil(8)]);
}

/// Whether the spec is whole and unmutated, and carries what an
/// announcement must: ORIGIN, AS_PATH and a next hop (MP_REACH's will
/// do).
fn well_formed(spec: &WireUpdate) -> bool {
    let announces = !spec.announced.is_empty() || !spec.announced6.is_empty();
    let mandatory =
        spec.origin && spec.as_path.is_some() && (spec.next_hop || !spec.announced6.is_empty());
    spec.cut.is_none() && spec.mutation.is_none() && (mandatory || !announces)
}

/// The spec's `(message type, BMP body)`.
fn wire_frame(spec: &WireUpdate) -> (u8, Vec<u8>) {
    let v4 = |out: &mut Vec<u8>, prefixes: &[(u32, u8)]| {
        for &(addr, len) in prefixes {
            put_prefix(out, (addr as u128) << 96, len);
        }
    };
    let v6 = |out: &mut Vec<u8>, prefixes: &[(u64, u8)]| {
        for &(addr, len) in prefixes {
            put_prefix(out, (addr as u128) << 64, len);
        }
    };
    let mut attrs = Vec::new();
    if spec.origin {
        put_attr(&mut attrs, 0x40, 1, &[0]);
    }
    if let Some(path) = &spec.as_path {
        put_attr(&mut attrs, 0x40, 2, &put_segments(path, spec.four_octet));
    }
    if spec.next_hop {
        put_attr(&mut attrs, 0x40, 3, &[192, 0, 2, 10]);
    }
    if !spec.communities.is_empty() {
        let bytes: Vec<u8> = spec
            .communities
            .iter()
            .flat_map(|c| c.to_be_bytes())
            .collect();
        put_attr(&mut attrs, 0xC0, 8, &bytes);
    }
    if let Some(path) = &spec.as4_path {
        put_attr(&mut attrs, 0xC0, 17, &put_segments(path, true));
    }
    if !spec.announced6.is_empty() {
        let mut mp = vec![0, 2, 1, 16];
        mp.extend_from_slice(&"2001:db8::10".parse::<Ipv6Addr>().unwrap().octets());
        mp.push(0);
        v6(&mut mp, &spec.announced6);
        put_attr(&mut attrs, 0x80, 14, &mp);
    }
    if !spec.withdrawn6.is_empty() {
        let mut mp = vec![0, 2, 1];
        v6(&mut mp, &spec.withdrawn6);
        put_attr(&mut attrs, 0x80, 15, &mp);
    }
    let mut withdrawn = Vec::new();
    v4(&mut withdrawn, &spec.withdrawn);
    let mut body = (withdrawn.len() as u16).to_be_bytes().to_vec();
    body.extend(withdrawn);
    body.extend_from_slice(&(attrs.len() as u16).to_be_bytes());
    body.extend(attrs);
    v4(&mut body, &spec.announced);

    let peer = PeerHeader {
        flags: if spec.four_octet { 0 } else { PEER_FLAG_A },
        ..PeerHeader::global(
            IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10)),
            Asn(174),
            Ipv4Addr::new(10, 0, 0, 1),
            7_000_001,
        )
    };
    // The per-peer header as the writer lays it out, with an empty
    // UPDATE (whose bytes do not depend on the AS_PATH format) cut off.
    let mut w = BmpWriter::new();
    w.write(&BmpMessage::RouteMonitoring {
        peer,
        update: BgpMessage::Update(UpdateMessage::withdraw(Vec::new())),
    })
    .unwrap();
    let mut bmp = w.into_bytes().split_off(COMMON_HEADER_LEN);
    bmp.truncate(PEER_HEADER_LEN);
    bmp.extend_from_slice(&[0xFF; 16]);
    bmp.extend_from_slice(&((19 + body.len()) as u16).to_be_bytes());
    bmp.push(2);
    bmp.extend(body);

    if let Some(cut) = spec.cut {
        bmp.truncate(cut as usize % (bmp.len() + 1));
    }
    let mut msg_type = MSG_ROUTE_MONITORING;
    if let Some((pos, byte)) = spec.mutation {
        let at = pos as usize % (bmp.len() + 1);
        match bmp.get_mut(at) {
            Some(b) => *b = byte,
            None => msg_type = byte % 6,
        }
    }
    (msg_type, bmp)
}

proptest! {
    /// The live reader's walk ([`RawBmpMessage::scan_route_monitoring`])
    /// agrees with the owned decode: it accepts exactly the
    /// route-monitoring messages `decode` accepts, with an equal peer
    /// header, the same withdrawn and announced lists, and the origin
    /// and origin-adjacent hop that `AsPath::origin` and
    /// `origin_neighbor` read off the decoded path (AS4_PATH
    /// reconciled). Whole, well-formed UPDATEs decode.
    /// (Default config, so `PROPTEST_CASES` sets the count.)
    #[test]
    fn the_update_walk_agrees_with_decode(
        specs in proptest::collection::vec(
            prop_oneof![
                wire_update().prop_map(|w| (wire_frame(&w), well_formed(&w))),
                spec().prop_map(|s| (frame_of(&s), s.6.is_none())),
            ],
            1..12,
        ),
    ) {
        for ((msg_type, body), well_formed) in &specs {
            let raw = RawBmpMessage { offset: 0, msg_type: *msg_type, body };
            let owned = raw.decode();
            let walked = raw.scan_route_monitoring();
            match (owned, walked) {
                (
                    Ok(BmpMessage::RouteMonitoring { peer, update: BgpMessage::Update(u) }),
                    Ok((got, view)),
                ) => {
                    prop_assert_eq!(got, peer);
                    prop_assert_eq!(view.withdrawn().collect::<Vec<_>>(), u.withdrawn.clone());
                    prop_assert_eq!(view.announced().collect::<Vec<_>>(), u.nlri.clone());
                    let ends = u.attrs.as_ref().map(|a| PathEnds {
                        origin: a.as_path.origin(),
                        origin_neighbor: a.as_path.origin_neighbor(),
                    });
                    prop_assert_eq!(view.path_ends(), ends);
                }
                (Ok(BmpMessage::RouteMonitoring { .. }), Err(e)) => {
                    prop_assert!(false, "decode accepted what the walk refused: {e}");
                }
                (Ok(other), Ok(_)) => {
                    prop_assert!(false, "the walk accepted a non-RM message: {other:?}");
                }
                (Err(e), Ok(_)) => {
                    prop_assert!(false, "the walk accepted what decode refused: {e}");
                }
                (Err(e), Err(_)) => {
                    prop_assert!(!well_formed, "a well-formed UPDATE failed: {e}");
                }
                (Ok(_), Err(_)) => {}
            }
        }
    }
}

#[test]
fn a_withdrawal_after_an_announcement_comes_out_without_attributes() {
    let v4 = vec![(0x0A00_0000, 24), (0x0A00_0100, 24)];
    let v6 = vec![(0x2001_0db8_0000_0000, 48)];
    let announce: Spec = (
        5,
        v4.clone(),
        v6.clone(),
        vec![174, 666],
        None,
        vec![7],
        None,
    );
    for shape in [1, 4] {
        let mut last = None;
        for spec in [
            announce.clone(),
            (shape, v4.clone(), v6.clone(), vec![1], None, vec![], None),
        ] {
            let (msg_type, body) = frame_of(&spec);
            let raw = RawBmpMessage {
                offset: 0,
                msg_type,
                body: &body,
            };
            let expected = update_of(&spec);
            let (_, view) = raw.scan_route_monitoring().unwrap();
            assert_eq!(view.withdrawn().collect::<Vec<_>>(), expected.withdrawn);
            assert_eq!(view.announced().collect::<Vec<_>>(), expected.nlri);
            let BmpMessage::RouteMonitoring { update, .. } = raw.decode().unwrap() else {
                panic!("shape {} is a route monitoring message", spec.0);
            };
            assert_eq!(update, BgpMessage::Update(expected), "shape {}", spec.0);
            last = Some((view.path_ends(), view.announced().len()));
        }
        assert_eq!(last, Some((None, 0)));
    }
}

//! Fuzz-shaped hardening for BMP framing, mirroring the MRT scanner
//! rules: truncated common headers, mid-stream garbage, and impossible
//! length fields must **resync or fuse** — never panic, never loop.

use artemis_bgp::{
    AsPath, Asn, BgpMessage, Community, PathAttributes, Prefix, Segment, UpdateMessage,
};
use artemis_bmp::{
    BmpMessage, BmpScanner, BmpWriter, FrameAssembler, InfoTlv, PeerHeader, RawBmpMessage,
    COMMON_HEADER_LEN, MAX_BMP_MESSAGE_LEN, MSG_ROUTE_MONITORING,
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

proptest! {
    /// The live reader's reused-buffer decode agrees with the owned
    /// decode on every message of a sequence decoded into one
    /// `UpdateMessage`: it accepts exactly the route-monitoring
    /// messages `decode` accepts, with an equal peer header and UPDATE,
    /// whatever the previous message left in the buffers. (Default
    /// config, so `PROPTEST_CASES` sets the count.)
    #[test]
    fn decode_into_a_reused_update_agrees_with_decode(
        specs in proptest::collection::vec(spec(), 1..12),
    ) {
        let mut reused = UpdateMessage::withdraw(Vec::new());
        for spec in &specs {
            let (msg_type, body) = frame_of(spec);
            let raw = RawBmpMessage { offset: 0, msg_type, body: &body };
            let owned = raw.decode();
            let into = raw.decode_route_monitoring_into(&mut reused);
            match (owned, into) {
                (
                    Ok(BmpMessage::RouteMonitoring { peer, update: BgpMessage::Update(u) }),
                    Ok(got),
                ) => {
                    prop_assert_eq!(got, peer);
                    prop_assert_eq!(&reused, &u);
                }
                (Ok(BmpMessage::RouteMonitoring { .. }), Err(e)) => {
                    prop_assert!(false, "decode accepted what decode_into refused: {e}");
                }
                (Ok(other), Ok(_)) => {
                    prop_assert!(false, "decode_into accepted a non-RM message: {other:?}");
                }
                (Err(e), Ok(_)) => {
                    prop_assert!(false, "decode_into accepted what decode refused: {e}");
                }
                (_, Err(_)) => {}
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
    let mut reused = UpdateMessage::withdraw(Vec::new());
    for shape in [1, 4] {
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
            raw.decode_route_monitoring_into(&mut reused).unwrap();
            assert_eq!(reused, update_of(&spec), "shape {}", spec.0);
        }
        assert_eq!(reused.attrs, None);
        assert!(reused.nlri.is_empty());
    }
}

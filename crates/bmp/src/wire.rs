//! BMP v3 message model, encoder, and zero-copy scanner (RFC 7854).

use artemis_bgp::wire::{split_header, HEADER_LEN};
use artemis_bgp::{Asn, BgpError, BgpMessage, Codec, OpenMessage, UpdateView, UPDATE_TYPE};
use std::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// BMP protocol version this crate speaks.
pub const BMP_VERSION: u8 = 3;
/// Bytes in the common header: version, length, type.
pub const COMMON_HEADER_LEN: usize = 6;
/// Bytes in the per-peer header.
pub const PEER_HEADER_LEN: usize = 42;
/// Upper bound on a single BMP message (header included). A route
/// monitoring message carries at most one 4096-byte BGP PDU plus
/// headers, and initiation/stats TLV blocks are small; anything
/// claiming more is treated as stream corruption, which keeps a
/// [`crate::FrameAssembler`] from buffering unboundedly on garbage.
pub const MAX_BMP_MESSAGE_LEN: usize = 64 * 1024;

/// Message type code: route monitoring (a peer's UPDATE, re-framed).
pub const MSG_ROUTE_MONITORING: u8 = 0;
/// Message type code: statistics report.
pub const MSG_STATS_REPORT: u8 = 1;
/// Message type code: peer down notification.
pub const MSG_PEER_DOWN: u8 = 2;
/// Message type code: peer up notification.
pub const MSG_PEER_UP: u8 = 3;
/// Message type code: initiation (session metadata TLVs).
pub const MSG_INITIATION: u8 = 4;
/// Message type code: termination.
pub const MSG_TERMINATION: u8 = 5;

/// Per-peer flag bit: the peer address is IPv6.
pub const PEER_FLAG_V: u8 = 0x80;
/// Per-peer flag bit: the peer's UPDATEs use the legacy two-octet
/// AS_PATH format (RFC 7854 §4.2), AS4_PATH carrying any wider ASN.
pub const PEER_FLAG_A: u8 = 0x20;

/// Stat types carried as 64-bit gauges (RFC 7854 §4.8); everything
/// else is a 32-bit counter.
const GAUGE64_STATS: [u16; 2] = [7, 8];

/// Errors raised while encoding, framing, or decoding BMP messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BmpError {
    /// The buffer ended before a required field.
    Truncated {
        /// What was being read.
        what: &'static str,
        /// Bytes required.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// The common header carried a version other than 3. Framing
    /// cannot be trusted past this point — scanners fuse.
    BadVersion(u8),
    /// The common-header length field is impossible: shorter than the
    /// header itself or beyond [`MAX_BMP_MESSAGE_LEN`]. Advancing by
    /// it would loop or buffer unboundedly — scanners fuse.
    BadLength(u32),
    /// Unknown message type code (per-message defect; resyncable).
    UnknownType(u8),
    /// A message body violated its layout.
    Malformed(&'static str),
    /// A BGP PDU inside a BMP body failed to encode or decode.
    Bgp(BgpError),
}

impl fmt::Display for BmpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BmpError::Truncated { what, need, have } => {
                write!(f, "truncated BMP {what}: need {need} bytes, have {have}")
            }
            BmpError::BadVersion(v) => write!(f, "unsupported BMP version {v}"),
            BmpError::BadLength(l) => write!(f, "impossible BMP message length {l}"),
            BmpError::UnknownType(t) => write!(f, "unknown BMP message type {t}"),
            BmpError::Malformed(what) => write!(f, "malformed BMP message: {what}"),
            BmpError::Bgp(e) => write!(f, "BGP PDU inside BMP body: {e}"),
        }
    }
}

impl std::error::Error for BmpError {}

impl From<BgpError> for BmpError {
    fn from(e: BgpError) -> Self {
        BmpError::Bgp(e)
    }
}

/// The RFC 7854 per-peer header carried by route monitoring, stats,
/// and peer up/down messages: which peering session the wrapped data
/// came from, and when the collector saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerHeader {
    /// Peer type (0 = global instance peer).
    pub peer_type: u8,
    /// Flag bits ([`PEER_FLAG_V`] is derived from `peer_ip` when
    /// encoding; other bits pass through, and [`PEER_FLAG_A`] selects
    /// the AS_PATH format of the peer's route-monitoring UPDATEs).
    pub flags: u8,
    /// Peer distinguisher (0 for global instance peers).
    pub distinguisher: u64,
    /// Remote address of the monitored session.
    pub peer_ip: IpAddr,
    /// Remote AS of the monitored session.
    pub peer_as: Asn,
    /// Remote BGP identifier.
    pub bgp_id: Ipv4Addr,
    /// Timestamp: whole seconds.
    pub ts_secs: u32,
    /// Timestamp: microsecond remainder.
    pub ts_micros: u32,
}

impl PeerHeader {
    /// A global-instance peer header with the given session identity
    /// and a microsecond timestamp.
    pub fn global(peer_ip: IpAddr, peer_as: Asn, bgp_id: Ipv4Addr, timestamp_micros: u64) -> Self {
        PeerHeader {
            peer_type: 0,
            flags: if peer_ip.is_ipv6() { PEER_FLAG_V } else { 0 },
            distinguisher: 0,
            peer_ip,
            peer_as,
            bgp_id,
            ts_secs: (timestamp_micros / 1_000_000) as u32,
            ts_micros: (timestamp_micros % 1_000_000) as u32,
        }
    }

    /// The timestamp as total microseconds.
    pub fn timestamp_micros(&self) -> u64 {
        self.ts_secs as u64 * 1_000_000 + self.ts_micros as u64
    }
}

/// One counter from a stats report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatCounter {
    /// RFC 7854 §4.8 stat type code.
    pub stat_type: u16,
    /// Counter/gauge value. Types 7 and 8 travel as 64-bit gauges;
    /// everything else as 32-bit counters (values must fit).
    pub value: u64,
}

/// One information TLV from an initiation or termination message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfoTlv {
    /// TLV type code (0 = free-form string, 1 = sysDescr, 2 = sysName).
    pub code: u16,
    /// Raw value bytes (UTF-8 for the string types).
    pub value: Vec<u8>,
}

impl InfoTlv {
    /// A string-valued TLV.
    pub fn string(code: u16, s: &str) -> Self {
        InfoTlv {
            code,
            value: s.as_bytes().to_vec(),
        }
    }

    /// The value as UTF-8 text, if it is valid UTF-8.
    pub fn as_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.value).ok()
    }
}

/// A fully decoded BMP message.
#[derive(Debug, Clone, PartialEq)]
pub enum BmpMessage {
    /// A peer's BGP UPDATE, re-framed by the collector.
    RouteMonitoring {
        /// Which session observed the update, and when.
        peer: PeerHeader,
        /// The wrapped PDU (always `BgpMessage::Update` on encode;
        /// decode rejects other types).
        update: BgpMessage,
    },
    /// Periodic session statistics.
    StatsReport {
        /// Which session the counters describe.
        peer: PeerHeader,
        /// The counters.
        stats: Vec<StatCounter>,
    },
    /// A monitored session went down.
    PeerDown {
        /// Which session went down.
        peer: PeerHeader,
        /// RFC 7854 §4.9 reason code.
        reason: u8,
        /// Reason-specific payload (a NOTIFICATION PDU for reasons 1
        /// and 3; kept raw for lossless round trips).
        data: Vec<u8>,
    },
    /// A monitored session came up.
    PeerUp {
        /// Which session came up.
        peer: PeerHeader,
        /// Local address of the session.
        local_ip: IpAddr,
        /// Local TCP port.
        local_port: u16,
        /// Remote TCP port.
        remote_port: u16,
        /// The OPEN the monitored router sent.
        sent_open: OpenMessage,
        /// The OPEN the monitored router received.
        recv_open: OpenMessage,
    },
    /// Collector session metadata, first message on a session.
    Initiation {
        /// Information TLVs (sysName, sysDescr, …).
        info: Vec<InfoTlv>,
    },
    /// Collector is closing the session.
    Termination {
        /// Information TLVs (reason, …).
        info: Vec<InfoTlv>,
    },
}

impl BmpMessage {
    /// The wire type code of this message.
    pub fn type_code(&self) -> u8 {
        match self {
            BmpMessage::RouteMonitoring { .. } => MSG_ROUTE_MONITORING,
            BmpMessage::StatsReport { .. } => MSG_STATS_REPORT,
            BmpMessage::PeerDown { .. } => MSG_PEER_DOWN,
            BmpMessage::PeerUp { .. } => MSG_PEER_UP,
            BmpMessage::Initiation { .. } => MSG_INITIATION,
            BmpMessage::Termination { .. } => MSG_TERMINATION,
        }
    }
}

/// The codec for the BGP PDUs a peer's messages carry: four-octet AS
/// numbers unless the per-peer header's [`PEER_FLAG_A`] says the
/// legacy two-octet format.
fn pdu_codec(peer: &PeerHeader) -> Codec {
    if peer.flags & PEER_FLAG_A != 0 {
        Codec::two_octet()
    } else {
        Codec::four_octet()
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Streaming BMP encoder: appends framed messages to an internal
/// buffer, mirroring `artemis_mrt::MrtWriter`.
#[derive(Default)]
pub struct BmpWriter {
    buf: Vec<u8>,
}

impl BmpWriter {
    /// An empty writer.
    pub fn new() -> Self {
        BmpWriter::default()
    }

    /// Everything written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the writer, returning the framed byte stream.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one framed message.
    pub fn write(&mut self, msg: &BmpMessage) -> Result<(), BmpError> {
        let mut body = Vec::new();
        match msg {
            BmpMessage::RouteMonitoring { peer, update } => {
                put_peer_header(&mut body, peer);
                body.extend_from_slice(&pdu_codec(peer).encode(update)?);
            }
            BmpMessage::StatsReport { peer, stats } => {
                put_peer_header(&mut body, peer);
                body.extend_from_slice(&(stats.len() as u32).to_be_bytes());
                for s in stats {
                    body.extend_from_slice(&s.stat_type.to_be_bytes());
                    if GAUGE64_STATS.contains(&s.stat_type) {
                        body.extend_from_slice(&8u16.to_be_bytes());
                        body.extend_from_slice(&s.value.to_be_bytes());
                    } else {
                        let v: u32 = s
                            .value
                            .try_into()
                            .map_err(|_| BmpError::Malformed("32-bit stat counter overflow"))?;
                        body.extend_from_slice(&4u16.to_be_bytes());
                        body.extend_from_slice(&v.to_be_bytes());
                    }
                }
            }
            BmpMessage::PeerDown { peer, reason, data } => {
                put_peer_header(&mut body, peer);
                body.push(*reason);
                body.extend_from_slice(data);
            }
            BmpMessage::PeerUp {
                peer,
                local_ip,
                local_port,
                remote_port,
                sent_open,
                recv_open,
            } => {
                put_peer_header(&mut body, peer);
                put_addr16(&mut body, *local_ip);
                body.extend_from_slice(&local_port.to_be_bytes());
                body.extend_from_slice(&remote_port.to_be_bytes());
                let codec = pdu_codec(peer);
                body.extend_from_slice(&codec.encode(&BgpMessage::Open(sent_open.clone()))?);
                body.extend_from_slice(&codec.encode(&BgpMessage::Open(recv_open.clone()))?);
            }
            BmpMessage::Initiation { info } | BmpMessage::Termination { info } => {
                for tlv in info {
                    let len: u16 = tlv
                        .value
                        .len()
                        .try_into()
                        .map_err(|_| BmpError::Malformed("info TLV longer than u16"))?;
                    body.extend_from_slice(&tlv.code.to_be_bytes());
                    body.extend_from_slice(&len.to_be_bytes());
                    body.extend_from_slice(&tlv.value);
                }
            }
        }
        let total = COMMON_HEADER_LEN + body.len();
        if total > MAX_BMP_MESSAGE_LEN {
            return Err(BmpError::BadLength(total as u32));
        }
        self.buf.push(BMP_VERSION);
        self.buf.extend_from_slice(&(total as u32).to_be_bytes());
        self.buf.push(msg.type_code());
        self.buf.extend_from_slice(&body);
        Ok(())
    }
}

fn put_peer_header(out: &mut Vec<u8>, peer: &PeerHeader) {
    out.push(peer.peer_type);
    let v_bit = if peer.peer_ip.is_ipv6() {
        PEER_FLAG_V
    } else {
        0
    };
    out.push((peer.flags & !PEER_FLAG_V) | v_bit);
    out.extend_from_slice(&peer.distinguisher.to_be_bytes());
    put_addr16(out, peer.peer_ip);
    out.extend_from_slice(&peer.peer_as.0.to_be_bytes());
    out.extend_from_slice(&peer.bgp_id.octets());
    out.extend_from_slice(&peer.ts_secs.to_be_bytes());
    out.extend_from_slice(&peer.ts_micros.to_be_bytes());
}

/// IPv4 addresses occupy the low 4 bytes of the 16-byte field.
fn put_addr16(out: &mut Vec<u8>, addr: IpAddr) {
    match addr {
        IpAddr::V4(v4) => {
            out.extend_from_slice(&[0u8; 12]);
            out.extend_from_slice(&v4.octets());
        }
        IpAddr::V6(v6) => out.extend_from_slice(&v6.octets()),
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Cursor over a message body.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], BmpError> {
        if self.data.len() - self.pos < n {
            return Err(BmpError::Truncated {
                what,
                need: n,
                have: self.data.len() - self.pos,
            });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, BmpError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, BmpError> {
        Ok(u16::from_be_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, BmpError> {
        Ok(u32::from_be_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, BmpError> {
        Ok(u64::from_be_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn rest(&self) -> &'a [u8] {
        &self.data[self.pos..]
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }
}

fn get_peer_header(c: &mut Cursor<'_>) -> Result<PeerHeader, BmpError> {
    // One length check for the fixed-size header, then fixed offsets
    // into it.
    const FIXED: &str = "a fixed range of the fixed-size header";
    let h: &[u8; PEER_HEADER_LEN] = c
        .take(PEER_HEADER_LEN, "per-peer header")?
        .try_into()
        .expect("`take` returns exactly the bytes asked for");
    let be32 = |at: usize| u32::from_be_bytes(h[at..at + 4].try_into().expect(FIXED));
    let flags = h[1];
    let addr: [u8; 16] = h[10..26].try_into().expect(FIXED);
    let peer_ip = if flags & PEER_FLAG_V != 0 {
        IpAddr::V6(Ipv6Addr::from(addr))
    } else {
        IpAddr::V4(Ipv4Addr::new(addr[12], addr[13], addr[14], addr[15]))
    };
    Ok(PeerHeader {
        peer_type: h[0],
        flags,
        distinguisher: u64::from_be_bytes(h[2..10].try_into().expect(FIXED)),
        peer_ip,
        peer_as: Asn(be32(26)),
        bgp_id: Ipv4Addr::from(be32(30)),
        ts_secs: be32(34),
        ts_micros: be32(38),
    })
}

fn get_info_tlvs(c: &mut Cursor<'_>) -> Result<Vec<InfoTlv>, BmpError> {
    let mut info = Vec::new();
    while c.remaining() > 0 {
        let code = c.u16("info TLV header")?;
        let len = c.u16("info TLV header")? as usize;
        let value = c.take(len, "info TLV value")?.to_vec();
        info.push(InfoTlv { code, value });
    }
    Ok(info)
}

/// A scanned-but-undecoded BMP message: validated framing, borrowed
/// body. Decoding is deferred so scan-only consumers (framing benches,
/// relays) never pay for attribute parsing.
#[derive(Debug, Clone, Copy)]
pub struct RawBmpMessage<'a> {
    /// Byte offset of this message's common header in the stream.
    pub offset: u64,
    /// Wire message type code.
    pub msg_type: u8,
    /// Body bytes (everything after the 6-byte common header).
    pub body: &'a [u8],
}

impl<'a> RawBmpMessage<'a> {
    /// Fully decode the body.
    pub fn decode(&self) -> Result<BmpMessage, BmpError> {
        let mut c = Cursor::new(self.body);
        match self.msg_type {
            MSG_ROUTE_MONITORING => {
                let (peer, pdu) = self.route_monitoring_pdu()?;
                let (update, _) = pdu_codec(&peer).decode(pdu)?;
                Ok(BmpMessage::RouteMonitoring { peer, update })
            }
            MSG_STATS_REPORT => {
                let peer = get_peer_header(&mut c)?;
                let count = c.u32("stats count")?;
                let mut stats = Vec::new();
                for _ in 0..count {
                    let stat_type = c.u16("stat TLV header")?;
                    let len = c.u16("stat TLV header")?;
                    let value = match len {
                        4 => c.u32("stat value")? as u64,
                        8 => c.u64("stat value")?,
                        _ => return Err(BmpError::Malformed("stat TLV length not 4 or 8")),
                    };
                    stats.push(StatCounter { stat_type, value });
                }
                if c.remaining() != 0 {
                    return Err(BmpError::Malformed("trailing bytes after stats TLVs"));
                }
                Ok(BmpMessage::StatsReport { peer, stats })
            }
            MSG_PEER_DOWN => {
                let peer = get_peer_header(&mut c)?;
                let reason = c.u8("peer down reason")?;
                Ok(BmpMessage::PeerDown {
                    peer,
                    reason,
                    data: c.rest().to_vec(),
                })
            }
            MSG_PEER_UP => {
                let peer = get_peer_header(&mut c)?;
                let addr: [u8; 16] = c.take(16, "peer up local address")?.try_into().unwrap();
                let local_ip = if peer.flags & PEER_FLAG_V != 0 {
                    IpAddr::V6(Ipv6Addr::from(addr))
                } else {
                    IpAddr::V4(Ipv4Addr::new(addr[12], addr[13], addr[14], addr[15]))
                };
                let local_port = c.u16("peer up ports")?;
                let remote_port = c.u16("peer up ports")?;
                let codec = pdu_codec(&peer);
                let (sent, used) = codec.decode(c.rest())?;
                c.take(used, "sent OPEN")?;
                let (recv, used) = codec.decode(c.rest())?;
                c.take(used, "received OPEN")?;
                match (sent, recv) {
                    (BgpMessage::Open(sent_open), BgpMessage::Open(recv_open)) => {
                        Ok(BmpMessage::PeerUp {
                            peer,
                            local_ip,
                            local_port,
                            remote_port,
                            sent_open,
                            recv_open,
                        })
                    }
                    _ => Err(BmpError::Malformed("peer up PDU is not an OPEN")),
                }
            }
            MSG_INITIATION => Ok(BmpMessage::Initiation {
                info: get_info_tlvs(&mut c)?,
            }),
            MSG_TERMINATION => Ok(BmpMessage::Termination {
                info: get_info_tlvs(&mut c)?,
            }),
            t => Err(BmpError::UnknownType(t)),
        }
    }

    /// Walk a `route_monitoring` message in place: its per-peer header,
    /// and its UPDATE as [`Codec::scan_update`] walks it, in the AS_PATH
    /// format the header's [`PEER_FLAG_A`] names. Nothing is allocated.
    /// Accepts exactly the messages [`RawBmpMessage::decode`] decodes
    /// as [`BmpMessage::RouteMonitoring`] (both run the same walk); any
    /// other message type is `Malformed`.
    pub fn scan_route_monitoring(&self) -> Result<(PeerHeader, UpdateView<'a>), BmpError> {
        let (peer, pdu) = self.route_monitoring_pdu()?;
        let update = pdu_codec(&peer).scan_update(&pdu[HEADER_LEN..])?;
        Ok((peer, update))
    }

    /// The per-peer header of a `route_monitoring` message and its BGP
    /// PDU, checked to be exactly one UPDATE's bytes.
    fn route_monitoring_pdu(&self) -> Result<(PeerHeader, &'a [u8]), BmpError> {
        if self.msg_type != MSG_ROUTE_MONITORING {
            return Err(BmpError::Malformed("not a route monitoring message"));
        }
        let mut c = Cursor::new(self.body);
        let peer = get_peer_header(&mut c)?;
        let pdu = c.rest();
        let (msg_type, body) = split_header(pdu)?;
        if msg_type != UPDATE_TYPE {
            return Err(BmpError::Malformed("route monitoring PDU is not an UPDATE"));
        }
        if HEADER_LEN + body.len() != pdu.len() {
            return Err(BmpError::Malformed("trailing bytes after BGP PDU"));
        }
        Ok((peer, pdu))
    }

    /// Attach stream context to a body-level decode error, producing
    /// the per-message defect record callers log before resyncing.
    pub fn diagnostic(&self, error: BmpError) -> BmpDiagnostic {
        BmpDiagnostic {
            offset: self.offset,
            msg_type: self.msg_type,
            error,
        }
    }
}

/// A per-message defect: which message failed to decode, and why.
/// Produced by [`RawBmpMessage::diagnostic`]; the scanner itself has
/// already advanced past the message, so logging the diagnostic and
/// continuing *is* the resync.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BmpDiagnostic {
    /// Stream offset of the offending message's common header.
    pub offset: u64,
    /// Its claimed message type.
    pub msg_type: u8,
    /// What went wrong.
    pub error: BmpError,
}

impl fmt::Display for BmpDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BMP message at offset {} (type {}): {}",
            self.offset, self.msg_type, self.error
        )
    }
}

/// Validate one common header at the start of `data`.
///
/// `Ok(Some((len, msg_type)))` means a plausible frame of `len` total
/// bytes; `Ok(None)` means the header itself is incomplete (`data`
/// shorter than [`COMMON_HEADER_LEN`]); `Err` means the framing is
/// unrecoverable (wrong version, impossible length) and the stream
/// position cannot be trusted.
pub(crate) fn parse_common_header(data: &[u8]) -> Result<Option<(usize, u8)>, BmpError> {
    if data.len() < COMMON_HEADER_LEN {
        return Ok(None);
    }
    if data[0] != BMP_VERSION {
        return Err(BmpError::BadVersion(data[0]));
    }
    let len = u32::from_be_bytes(data[1..5].try_into().unwrap());
    if (len as usize) < COMMON_HEADER_LEN || len as usize > MAX_BMP_MESSAGE_LEN {
        return Err(BmpError::BadLength(len));
    }
    Ok(Some((len as usize, data[5])))
}

/// Zero-copy scan over a contiguous buffer of framed BMP messages.
///
/// Corruption handling mirrors `artemis_mrt::MrtScanner`:
///
/// * **Body-level** defects (unknown type, malformed body, bad inner
///   PDU) surface when the *caller* decodes a [`RawBmpMessage`]; the
///   scanner has already advanced to the next length-delimited
///   boundary, so skipping the message is a clean resync.
/// * **Header-level** defects (wrong version, impossible length,
///   truncated tail) are unrecoverable: the scanner returns the error
///   once and **fuses** — every subsequent call reports end-of-input,
///   so error-skipping iteration always terminates.
pub struct BmpScanner<'a> {
    data: &'a [u8],
    offset: usize,
}

impl<'a> BmpScanner<'a> {
    /// Scan `data` from the beginning.
    pub fn new(data: &'a [u8]) -> Self {
        BmpScanner { data, offset: 0 }
    }

    /// Current byte offset into the buffer.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.offset
    }

    /// The next message's validated frame, without decoding the body.
    /// `Ok(None)` at end of input.
    pub fn next_raw(&mut self) -> Result<Option<RawBmpMessage<'a>>, BmpError> {
        if self.remaining() == 0 {
            return Ok(None);
        }
        let tail = &self.data[self.offset..];
        match parse_common_header(tail) {
            Ok(Some((len, msg_type))) => {
                if len > tail.len() {
                    return self.fail(BmpError::Truncated {
                        what: "message body",
                        need: len,
                        have: tail.len(),
                    });
                }
                let raw = RawBmpMessage {
                    offset: self.offset as u64,
                    msg_type,
                    body: &tail[COMMON_HEADER_LEN..len],
                };
                self.offset += len;
                Ok(Some(raw))
            }
            Ok(None) => self.fail(BmpError::Truncated {
                what: "common header",
                need: COMMON_HEADER_LEN,
                have: tail.len(),
            }),
            Err(e) => self.fail(e),
        }
    }

    /// Record an unrecoverable defect and fuse: the buffer is truncated
    /// at the current offset so every later call sees end-of-input.
    fn fail(&mut self, error: BmpError) -> Result<Option<RawBmpMessage<'a>>, BmpError> {
        self.data = &self.data[..self.offset];
        Err(error)
    }
}

impl<'a> Iterator for BmpScanner<'a> {
    type Item = Result<RawBmpMessage<'a>, BmpError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_raw().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_bgp::{AsPath, PathAttributes, Prefix, UpdateMessage};
    use std::str::FromStr;

    fn peer() -> PeerHeader {
        PeerHeader::global(
            IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10)),
            Asn(174),
            Ipv4Addr::new(10, 0, 0, 1),
            45_000_123,
        )
    }

    fn update() -> BgpMessage {
        BgpMessage::Update(UpdateMessage::announce(
            PathAttributes::with_path(
                AsPath::from_sequence([174u32, 666]),
                "192.0.2.10".parse().unwrap(),
            ),
            vec![Prefix::from_str("10.0.0.0/24").unwrap()],
        ))
    }

    fn all_messages() -> Vec<BmpMessage> {
        let open = OpenMessage {
            version: 4,
            asn: Asn(174),
            hold_time: 180,
            bgp_id: Ipv4Addr::new(10, 0, 0, 1),
            four_octet_capable: true,
        };
        vec![
            BmpMessage::Initiation {
                info: vec![InfoTlv::string(2, "rrc00"), InfoTlv::string(1, "artemis")],
            },
            BmpMessage::PeerUp {
                peer: peer(),
                local_ip: IpAddr::V4(Ipv4Addr::new(192, 0, 2, 1)),
                local_port: 179,
                remote_port: 41000,
                sent_open: open.clone(),
                recv_open: open,
            },
            BmpMessage::RouteMonitoring {
                peer: peer(),
                update: update(),
            },
            BmpMessage::StatsReport {
                peer: peer(),
                stats: vec![
                    StatCounter {
                        stat_type: 0,
                        value: 12,
                    },
                    StatCounter {
                        stat_type: 7,
                        value: u64::MAX / 2,
                    },
                ],
            },
            BmpMessage::PeerDown {
                peer: peer(),
                reason: 2,
                data: vec![6],
            },
            BmpMessage::Termination {
                info: vec![InfoTlv::string(0, "bye")],
            },
        ]
    }

    #[test]
    fn all_message_types_round_trip() {
        let msgs = all_messages();
        let mut w = BmpWriter::new();
        for m in &msgs {
            w.write(m).unwrap();
        }
        let bytes = w.into_bytes();
        let decoded: Vec<BmpMessage> = BmpScanner::new(&bytes)
            .map(|r| r.unwrap().decode().unwrap())
            .collect();
        assert_eq!(decoded, msgs);
    }

    #[test]
    fn peer_header_round_trips_ipv6_and_timestamp() {
        let p = PeerHeader::global(
            IpAddr::V6("2001:db8::7".parse::<Ipv6Addr>().unwrap()),
            Asn(3356),
            Ipv4Addr::new(1, 2, 3, 4),
            9_000_007,
        );
        assert_eq!(p.timestamp_micros(), 9_000_007);
        let mut w = BmpWriter::new();
        w.write(&BmpMessage::RouteMonitoring {
            peer: p,
            update: update(),
        })
        .unwrap();
        let bytes = w.into_bytes();
        let raw = BmpScanner::new(&bytes).next_raw().unwrap().unwrap();
        match raw.decode().unwrap() {
            BmpMessage::RouteMonitoring { peer, .. } => {
                assert_eq!(peer, p);
                assert!(peer.peer_ip.is_ipv6());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scanner_resyncs_past_a_corrupt_body() {
        let mut w = BmpWriter::new();
        w.write(&BmpMessage::RouteMonitoring {
            peer: peer(),
            update: update(),
        })
        .unwrap();
        w.write(&BmpMessage::Termination {
            info: vec![InfoTlv::string(0, "x")],
        })
        .unwrap();
        let mut bytes = w.into_bytes();
        // Zero a byte of the inner BGP PDU's all-ones marker: the BMP
        // frame stays valid, the body does not.
        bytes[COMMON_HEADER_LEN + PEER_HEADER_LEN + 2] = 0;

        let mut scanner = BmpScanner::new(&bytes);
        let first = scanner.next_raw().unwrap().unwrap();
        let err = first.decode().unwrap_err();
        let diag = first.diagnostic(err);
        assert_eq!(diag.offset, 0);
        // The scanner already advanced: the next message decodes fine.
        let second = scanner.next_raw().unwrap().unwrap();
        assert!(matches!(
            second.decode().unwrap(),
            BmpMessage::Termination { .. }
        ));
        assert!(scanner.next_raw().unwrap().is_none());
    }

    #[test]
    fn scanner_fuses_on_bad_version_and_terminates() {
        let mut w = BmpWriter::new();
        w.write(&BmpMessage::Termination { info: vec![] }).unwrap();
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&[9u8, 0, 0, 0, 6, 5]); // version 9 garbage
        let mut tail = BmpWriter::new();
        tail.write(&BmpMessage::Termination { info: vec![] })
            .unwrap();
        bytes.extend_from_slice(tail.as_bytes());

        let mut scanner = BmpScanner::new(&bytes);
        assert!(scanner.next_raw().unwrap().is_some());
        assert!(matches!(
            scanner.next_raw().unwrap_err(),
            BmpError::BadVersion(9)
        ));
        // Fused: the valid message after the garbage is unreachable,
        // but iteration terminates instead of looping.
        assert!(scanner.next_raw().unwrap().is_none());
        assert_eq!(BmpScanner::new(&bytes).filter_map(|r| r.ok()).count(), 1);
    }

    #[test]
    fn scanner_fuses_on_impossible_lengths() {
        for len in [0u32, 5, (MAX_BMP_MESSAGE_LEN as u32) + 1] {
            let mut bytes = vec![BMP_VERSION];
            bytes.extend_from_slice(&len.to_be_bytes());
            bytes.push(MSG_TERMINATION);
            bytes.extend_from_slice(&[0u8; 32]);
            let mut scanner = BmpScanner::new(&bytes);
            assert!(
                matches!(scanner.next_raw().unwrap_err(), BmpError::BadLength(l) if l == len),
                "len={len}"
            );
            assert!(scanner.next_raw().unwrap().is_none());
        }
    }

    #[test]
    fn truncated_tail_is_an_error_then_eof() {
        let mut w = BmpWriter::new();
        w.write(&BmpMessage::RouteMonitoring {
            peer: peer(),
            update: update(),
        })
        .unwrap();
        let bytes = w.into_bytes();
        // Cut mid-body and mid-header.
        for cut in [bytes.len() - 7, 3] {
            let mut scanner = BmpScanner::new(&bytes[..cut]);
            assert!(matches!(
                scanner.next_raw().unwrap_err(),
                BmpError::Truncated { .. }
            ));
            assert!(scanner.next_raw().unwrap().is_none());
        }
    }

    #[test]
    fn unknown_type_is_a_per_message_defect_not_a_stream_error() {
        let mut bytes = vec![BMP_VERSION, 0, 0, 0, 8, 77, 1, 2];
        let mut w = BmpWriter::new();
        w.write(&BmpMessage::Termination { info: vec![] }).unwrap();
        bytes.extend_from_slice(w.as_bytes());

        let mut scanner = BmpScanner::new(&bytes);
        let raw = scanner.next_raw().unwrap().unwrap();
        assert!(matches!(
            raw.decode().unwrap_err(),
            BmpError::UnknownType(77)
        ));
        // Length framing was honoured, so the stream resyncs.
        assert!(scanner.next_raw().unwrap().is_some());
        assert!(scanner.next_raw().unwrap().is_none());
    }

    #[test]
    fn route_monitoring_rejects_non_update_pdus() {
        let mut body = Vec::new();
        put_peer_header(&mut body, &peer());
        body.extend_from_slice(&pdu_codec(&peer()).encode(&BgpMessage::Keepalive).unwrap());
        let mut bytes = vec![BMP_VERSION];
        bytes.extend_from_slice(&((COMMON_HEADER_LEN + body.len()) as u32).to_be_bytes());
        bytes.push(MSG_ROUTE_MONITORING);
        bytes.extend_from_slice(&body);
        let raw = BmpScanner::new(&bytes).next_raw().unwrap().unwrap();
        assert!(matches!(raw.decode().unwrap_err(), BmpError::Malformed(_)));
    }

    #[test]
    fn oversized_stat_counter_fails_encode() {
        let mut w = BmpWriter::new();
        let err = w
            .write(&BmpMessage::StatsReport {
                peer: peer(),
                stats: vec![StatCounter {
                    stat_type: 0,
                    value: u64::MAX,
                }],
            })
            .unwrap_err();
        assert!(matches!(err, BmpError::Malformed(_)));
    }
}

//! MRT common header, BGP4MP records, reader/writer.

use crate::rib::{PeerIndexTable, RibRecord};
use artemis_bgp::{BgpError, BgpMessage, Codec};
use bytes::{Buf, BufMut, BytesMut};
use std::fmt;
use std::net::IpAddr;

/// MRT type codes (RFC 6396 §4).
pub const TYPE_TABLE_DUMP_V2: u16 = 13;
/// BGP4MP type code.
pub const TYPE_BGP4MP: u16 = 16;
/// BGP4MP with extended (microsecond) timestamps.
pub const TYPE_BGP4MP_ET: u16 = 17;

/// BGP4MP subtypes.
pub const SUBTYPE_BGP4MP_MESSAGE: u16 = 1;
/// Four-octet-AS message subtype.
pub const SUBTYPE_BGP4MP_MESSAGE_AS4: u16 = 4;

/// TABLE_DUMP_V2 subtypes.
pub const SUBTYPE_PEER_INDEX_TABLE: u16 = 1;
/// IPv4 unicast RIB subtype.
pub const SUBTYPE_RIB_IPV4_UNICAST: u16 = 2;
/// IPv6 unicast RIB subtype.
pub const SUBTYPE_RIB_IPV6_UNICAST: u16 = 4;

/// Errors produced by the MRT codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MrtError {
    /// Input ended inside a record.
    Truncated(&'static str),
    /// A record advertises an unsupported type/subtype pair.
    Unsupported {
        /// MRT type.
        mrt_type: u16,
        /// MRT subtype.
        subtype: u16,
    },
    /// The wrapped BGP message failed to parse.
    Bgp(BgpError),
    /// Structural problem in a record body.
    Malformed(&'static str),
    /// A variable-length field does not fit its wire-format counter
    /// (e.g. a PEER_INDEX_TABLE with more than 65535 peers). Raised at
    /// *encode* time: silently truncating the counter would produce a
    /// record that round-trips wrong.
    FieldOverflow {
        /// Which field overflowed.
        field: &'static str,
        /// The unencodable length.
        len: usize,
        /// The wire format's maximum for this field.
        max: usize,
    },
}

impl fmt::Display for MrtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrtError::Truncated(what) => write!(f, "truncated MRT record: {what}"),
            MrtError::Unsupported { mrt_type, subtype } => {
                write!(f, "unsupported MRT record type {mrt_type}/{subtype}")
            }
            MrtError::Bgp(e) => write!(f, "embedded BGP message: {e}"),
            MrtError::Malformed(what) => write!(f, "malformed MRT record: {what}"),
            MrtError::FieldOverflow { field, len, max } => {
                write!(f, "{field} length {len} exceeds wire maximum {max}")
            }
        }
    }
}

impl std::error::Error for MrtError {}

impl From<BgpError> for MrtError {
    fn from(e: BgpError) -> Self {
        MrtError::Bgp(e)
    }
}

/// A BGP4MP_MESSAGE(_AS4) record: one BGP message seen on a collector
/// session, with peer metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bgp4mpMessage {
    /// Peer (sender) ASN.
    pub peer_as: artemis_bgp::Asn,
    /// Collector-side ASN.
    pub local_as: artemis_bgp::Asn,
    /// Peer address.
    pub peer_ip: IpAddr,
    /// Collector address.
    pub local_ip: IpAddr,
    /// The BGP message itself.
    pub message: BgpMessage,
}

/// Any supported MRT record with its timestamp.
#[derive(Debug, Clone, PartialEq)]
pub enum MrtRecord {
    /// A BGP4MP message record. `microseconds` is `Some` for the ET
    /// (extended-timestamp) flavour.
    Bgp4mp {
        /// Seconds since the UNIX epoch (simulation epoch here).
        timestamp: u32,
        /// Extended microseconds (BGP4MP_ET).
        microseconds: Option<u32>,
        /// Payload.
        message: Bgp4mpMessage,
    },
    /// TABLE_DUMP_V2 peer index table.
    PeerIndex {
        /// Snapshot timestamp.
        timestamp: u32,
        /// The table.
        table: PeerIndexTable,
    },
    /// TABLE_DUMP_V2 RIB record (one prefix, N entries).
    Rib {
        /// Snapshot timestamp.
        timestamp: u32,
        /// The per-prefix RIB data.
        rib: RibRecord,
    },
}

impl MrtRecord {
    /// The record's timestamp in whole seconds.
    pub fn timestamp(&self) -> u32 {
        match self {
            MrtRecord::Bgp4mp { timestamp, .. }
            | MrtRecord::PeerIndex { timestamp, .. }
            | MrtRecord::Rib { timestamp, .. } => *timestamp,
        }
    }
}

/// Serializes MRT records to bytes.
#[derive(Debug, Default)]
pub struct MrtWriter {
    buf: BytesMut,
}

impl MrtWriter {
    /// A fresh writer.
    pub fn new() -> Self {
        MrtWriter::default()
    }

    /// Bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the writer, returning the archive bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf.to_vec()
    }

    /// Append one record.
    pub fn write(&mut self, record: &MrtRecord) -> Result<(), MrtError> {
        let (mrt_type, subtype, micros, body) = match record {
            MrtRecord::Bgp4mp {
                microseconds,
                message,
                ..
            } => {
                let body = encode_bgp4mp_body(message)?;
                let t = if microseconds.is_some() {
                    TYPE_BGP4MP_ET
                } else {
                    TYPE_BGP4MP
                };
                (t, SUBTYPE_BGP4MP_MESSAGE_AS4, *microseconds, body)
            }
            MrtRecord::PeerIndex { table, .. } => (
                TYPE_TABLE_DUMP_V2,
                SUBTYPE_PEER_INDEX_TABLE,
                None,
                table.encode()?,
            ),
            MrtRecord::Rib { rib, .. } => {
                let subtype = if rib.prefix.afi() == artemis_bgp::prefix::Afi::Ipv4 {
                    SUBTYPE_RIB_IPV4_UNICAST
                } else {
                    SUBTYPE_RIB_IPV6_UNICAST
                };
                (TYPE_TABLE_DUMP_V2, subtype, None, rib.encode()?)
            }
        };
        let extra = if micros.is_some() { 4 } else { 0 };
        self.buf.put_u32(record.timestamp());
        self.buf.put_u16(mrt_type);
        self.buf.put_u16(subtype);
        self.buf.put_u32((body.len() + extra) as u32);
        if let Some(us) = micros {
            self.buf.put_u32(us);
        }
        self.buf.put_slice(&body);
        Ok(())
    }
}

fn encode_bgp4mp_body(msg: &Bgp4mpMessage) -> Result<Vec<u8>, MrtError> {
    let mut out = BytesMut::new();
    out.put_u32(msg.peer_as.value());
    out.put_u32(msg.local_as.value());
    out.put_u16(0); // interface index
    match (msg.peer_ip, msg.local_ip) {
        (IpAddr::V4(p), IpAddr::V4(l)) => {
            out.put_u16(1); // AFI v4
            out.put_slice(&p.octets());
            out.put_slice(&l.octets());
        }
        (IpAddr::V6(p), IpAddr::V6(l)) => {
            out.put_u16(2);
            out.put_slice(&p.octets());
            out.put_slice(&l.octets());
        }
        _ => return Err(MrtError::Malformed("mixed-family peer/local addresses")),
    }
    let codec = Codec::four_octet();
    let bgp = codec.encode(&msg.message)?;
    out.put_slice(&bgp);
    Ok(out.to_vec())
}

fn decode_bgp4mp_body(mut body: &[u8], subtype: u16) -> Result<Bgp4mpMessage, MrtError> {
    let as_size = match subtype {
        SUBTYPE_BGP4MP_MESSAGE => 2usize,
        SUBTYPE_BGP4MP_MESSAGE_AS4 => 4,
        _ => {
            return Err(MrtError::Unsupported {
                mrt_type: TYPE_BGP4MP,
                subtype,
            })
        }
    };
    if body.len() < as_size * 2 + 4 {
        return Err(MrtError::Truncated("BGP4MP header"));
    }
    let (peer_as, local_as) = if as_size == 4 {
        (body.get_u32(), body.get_u32())
    } else {
        (body.get_u16() as u32, body.get_u16() as u32)
    };
    let _ifindex = body.get_u16();
    let afi = body.get_u16();
    let addr_len = match afi {
        1 => 4usize,
        2 => 16,
        _ => return Err(MrtError::Malformed("unknown AFI in BGP4MP")),
    };
    if body.len() < addr_len * 2 {
        return Err(MrtError::Truncated("BGP4MP addresses"));
    }
    let peer_ip = read_ip(&body[..addr_len]);
    let local_ip = read_ip(&body[addr_len..addr_len * 2]);
    body = &body[addr_len * 2..];
    let codec = if as_size == 4 {
        Codec::four_octet()
    } else {
        Codec::two_octet()
    };
    let (message, _) = codec.decode(body)?;
    Ok(Bgp4mpMessage {
        peer_as: artemis_bgp::Asn(peer_as),
        local_as: artemis_bgp::Asn(local_as),
        peer_ip,
        local_ip,
        message,
    })
}

fn read_ip(bytes: &[u8]) -> IpAddr {
    match bytes.len() {
        4 => IpAddr::V4(std::net::Ipv4Addr::new(
            bytes[0], bytes[1], bytes[2], bytes[3],
        )),
        _ => {
            let mut b = [0u8; 16];
            b.copy_from_slice(bytes);
            IpAddr::V6(std::net::Ipv6Addr::from(b))
        }
    }
}

/// A raw MRT record: parsed common header plus a **borrowed** body
/// slice, produced by [`MrtScanner`] without allocating or touching the
/// payload (bgpkit-parser's chunk-then-parse shape). Call
/// [`RawMrtRecord::decode`] for the full owned [`MrtRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawMrtRecord<'a> {
    /// Byte offset of the record's common header within the archive —
    /// the stable identifier for per-record diagnostics.
    pub offset: usize,
    /// Seconds since the epoch (common header).
    pub timestamp: u32,
    /// MRT type code.
    pub mrt_type: u16,
    /// MRT subtype code.
    pub subtype: u16,
    /// Extended microseconds, already split off the body for
    /// `BGP4MP_ET` records. `None` for an ET record whose body was too
    /// short to hold the field — [`RawMrtRecord::decode`] reports that
    /// as a per-record truncation.
    pub microseconds: Option<u32>,
    /// The record body (after the common header and, for ET records,
    /// the microsecond field) — borrowed straight from the archive.
    pub body: &'a [u8],
}

impl<'a> RawMrtRecord<'a> {
    /// True for `BGP4MP` / `BGP4MP_ET` update records — the hot kind
    /// during replay; lets scanners filter before paying for a decode.
    pub fn is_bgp4mp(&self) -> bool {
        matches!(self.mrt_type, TYPE_BGP4MP | TYPE_BGP4MP_ET)
    }

    /// True for `TABLE_DUMP_V2` snapshot records.
    pub fn is_table_dump(&self) -> bool {
        self.mrt_type == TYPE_TABLE_DUMP_V2
    }

    /// Fully decode the record body into an owned [`MrtRecord`].
    pub fn decode(&self) -> Result<MrtRecord, MrtError> {
        let record = match (self.mrt_type, self.subtype) {
            (TYPE_BGP4MP | TYPE_BGP4MP_ET, st) => {
                if self.mrt_type == TYPE_BGP4MP_ET && self.microseconds.is_none() {
                    // The scanner could not split the microsecond field
                    // (body shorter than 4 bytes): a per-record defect,
                    // reported here so the scan itself resyncs.
                    return Err(MrtError::Truncated("BGP4MP_ET microseconds"));
                }
                MrtRecord::Bgp4mp {
                    timestamp: self.timestamp,
                    microseconds: self.microseconds,
                    message: decode_bgp4mp_body(self.body, st)?,
                }
            }
            (TYPE_TABLE_DUMP_V2, SUBTYPE_PEER_INDEX_TABLE) => MrtRecord::PeerIndex {
                timestamp: self.timestamp,
                table: PeerIndexTable::decode(self.body)?,
            },
            (TYPE_TABLE_DUMP_V2, st @ (SUBTYPE_RIB_IPV4_UNICAST | SUBTYPE_RIB_IPV6_UNICAST)) => {
                let afi = if st == SUBTYPE_RIB_IPV4_UNICAST {
                    artemis_bgp::prefix::Afi::Ipv4
                } else {
                    artemis_bgp::prefix::Afi::Ipv6
                };
                MrtRecord::Rib {
                    timestamp: self.timestamp,
                    rib: RibRecord::decode(self.body, afi)?,
                }
            }
            (t, s) => {
                return Err(MrtError::Unsupported {
                    mrt_type: t,
                    subtype: s,
                })
            }
        };
        Ok(record)
    }

    /// Attach an error to this record's identity for reporting.
    pub fn diagnostic(&self, error: MrtError) -> MrtDiagnostic {
        MrtDiagnostic {
            offset: self.offset,
            timestamp: self.timestamp,
            mrt_type: self.mrt_type,
            subtype: self.subtype,
            error,
        }
    }
}

/// A per-record parse failure: which record (by archive offset and
/// header fields) failed and why. Streaming consumers collect these and
/// keep going instead of aborting the whole archive on one bad record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MrtDiagnostic {
    /// Byte offset of the failing record's common header.
    pub offset: usize,
    /// The record's timestamp (from the common header, always
    /// readable even when the body is not).
    pub timestamp: u32,
    /// MRT type code.
    pub mrt_type: u16,
    /// MRT subtype code.
    pub subtype: u16,
    /// What went wrong.
    pub error: MrtError,
}

impl fmt::Display for MrtDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "record at byte {} (type {}/{}, ts {}): {}",
            self.offset, self.mrt_type, self.subtype, self.timestamp, self.error
        )
    }
}

/// Zero-copy streaming scanner over an MRT byte slice.
///
/// [`MrtScanner::next_raw`] reads only the 12-byte common header (plus
/// the 4-byte microsecond field for `BGP4MP_ET`) and yields the body as
/// a borrowed slice — no per-record allocation, no payload parse. The
/// record *length* field lets the scanner hop to the next boundary, so
/// a consumer that fails to decode one body can keep scanning: this is
/// the resync property per-record diagnostics are built on.
///
/// Header-level corruption (a truncated header, or a length field
/// pointing past the end of the input) is unrecoverable — there is no
/// next boundary to resync to. The scanner reports it **once** (with
/// the failing record's start offset still readable via
/// [`MrtScanner::offset`]) and then fuses: every subsequent call is a
/// clean EOF, so error-skipping consumers terminate instead of
/// spinning on the same error forever.
pub struct MrtScanner<'a> {
    data: &'a [u8],
    offset: usize,
}

impl<'a> MrtScanner<'a> {
    /// Scan from the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        MrtScanner { data, offset: 0 }
    }

    /// Byte offset of the next unread record header — or, immediately
    /// after an unrecoverable error, of the record that failed.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.offset
    }

    /// Chunk the next record, or `Ok(None)` at clean EOF.
    ///
    /// An `Err` is unrecoverable (corrupt common header): it is
    /// returned once and the scanner then reports EOF. Defects
    /// *inside* a record body — including a `BGP4MP_ET` body too short
    /// for its microsecond field — surface from
    /// [`RawMrtRecord::decode`] instead, so the scan itself continues
    /// at the next length-delimited boundary.
    pub fn next_raw(&mut self) -> Result<Option<RawMrtRecord<'a>>, MrtError> {
        if self.remaining() == 0 {
            return Ok(None);
        }
        if self.remaining() < 12 {
            return self.fail(MrtError::Truncated("MRT common header"));
        }
        let start = self.offset;
        let mut hdr = &self.data[start..start + 12];
        let timestamp = hdr.get_u32();
        let mrt_type = hdr.get_u16();
        let subtype = hdr.get_u16();
        let length = hdr.get_u32() as usize;
        if self.remaining() < 12 + length {
            return self.fail(MrtError::Truncated("MRT record body"));
        }
        let mut body = &self.data[start + 12..start + 12 + length];
        self.offset = start + 12 + length;

        // Split the ET microsecond field when present; a too-short
        // body yields `None` and errors at decode time (per-record).
        let microseconds = if mrt_type == TYPE_BGP4MP_ET && body.len() >= 4 {
            Some(body.get_u32())
        } else {
            None
        };
        Ok(Some(RawMrtRecord {
            offset: start,
            timestamp,
            mrt_type,
            subtype,
            microseconds,
            body,
        }))
    }

    /// Report an unrecoverable error once, then fuse to EOF. The
    /// failing offset stays readable until the next (EOF) call.
    fn fail(&mut self, error: MrtError) -> Result<Option<RawMrtRecord<'a>>, MrtError> {
        self.data = &self.data[..self.offset];
        Err(error)
    }
}

impl<'a> Iterator for MrtScanner<'a> {
    type Item = Result<RawMrtRecord<'a>, MrtError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_raw().transpose()
    }
}

/// Streaming reader over an MRT byte slice: [`MrtScanner`] plus a full
/// per-record decode. Any record failing to decode aborts the stream;
/// consumers that prefer to skip bad records and keep going should
/// drive the scanner directly and collect [`MrtDiagnostic`]s.
pub struct MrtReader<'a> {
    scanner: MrtScanner<'a>,
}

impl<'a> MrtReader<'a> {
    /// Read from the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        MrtReader {
            scanner: MrtScanner::new(data),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.scanner.remaining()
    }

    /// Parse the next record, or `Ok(None)` at clean EOF.
    fn next_record(&mut self) -> Result<Option<MrtRecord>, MrtError> {
        match self.scanner.next_raw()? {
            Some(raw) => Ok(Some(raw.decode()?)),
            None => Ok(None),
        }
    }
}

impl<'a> Iterator for MrtReader<'a> {
    type Item = Result<MrtRecord, MrtError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_bgp::{AsPath, Asn, PathAttributes, Prefix, UpdateMessage};
    use std::str::FromStr;

    fn sample_update() -> BgpMessage {
        let attrs = PathAttributes::with_path(
            AsPath::from_sequence([174u32, 65001]),
            "192.0.2.1".parse().unwrap(),
        );
        BgpMessage::Update(UpdateMessage::announce(
            attrs,
            vec![Prefix::from_str("10.0.0.0/23").unwrap()],
        ))
    }

    fn sample_bgp4mp(ts: u32, micros: Option<u32>) -> MrtRecord {
        MrtRecord::Bgp4mp {
            timestamp: ts,
            microseconds: micros,
            message: Bgp4mpMessage {
                peer_as: Asn(174),
                local_as: Asn(64999),
                peer_ip: "192.0.2.10".parse().unwrap(),
                local_ip: "192.0.2.1".parse().unwrap(),
                message: sample_update(),
            },
        }
    }

    #[test]
    fn bgp4mp_roundtrip() {
        let rec = sample_bgp4mp(1_234, None);
        let mut w = MrtWriter::new();
        w.write(&rec).unwrap();
        let bytes = w.into_bytes();
        let mut r = MrtReader::new(&bytes);
        assert_eq!(r.next_record().unwrap().unwrap(), rec);
        assert_eq!(r.next_record().unwrap(), None);
    }

    #[test]
    fn bgp4mp_et_roundtrip_keeps_microseconds() {
        let rec = sample_bgp4mp(99, Some(456_789));
        let mut w = MrtWriter::new();
        w.write(&rec).unwrap();
        let bytes = w.into_bytes();
        let got = MrtReader::new(&bytes)
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        assert_eq!(got, vec![rec]);
    }

    #[test]
    fn multiple_records_stream() {
        let mut w = MrtWriter::new();
        for i in 0..10u32 {
            w.write(&sample_bgp4mp(i, None)).unwrap();
        }
        let bytes = w.into_bytes();
        let all = MrtReader::new(&bytes)
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        assert_eq!(all.len(), 10);
        let stamps: Vec<u32> = all.iter().map(MrtRecord::timestamp).collect();
        assert_eq!(stamps, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn iterator_interface() {
        let mut w = MrtWriter::new();
        w.write(&sample_bgp4mp(5, None)).unwrap();
        let bytes = w.into_bytes();
        let count = MrtReader::new(&bytes).count();
        assert_eq!(count, 1);
    }

    #[test]
    fn v6_session_addresses() {
        let rec = MrtRecord::Bgp4mp {
            timestamp: 7,
            microseconds: None,
            message: Bgp4mpMessage {
                peer_as: Asn(6939),
                local_as: Asn(64999),
                peer_ip: "2001:db8::a".parse().unwrap(),
                local_ip: "2001:db8::1".parse().unwrap(),
                message: sample_update(),
            },
        };
        let mut w = MrtWriter::new();
        w.write(&rec).unwrap();
        let bytes = w.into_bytes();
        assert_eq!(
            MrtReader::new(&bytes)
                .collect::<Result<Vec<_>, _>>()
                .unwrap(),
            vec![rec]
        );
    }

    #[test]
    fn mixed_family_session_rejected() {
        let rec = MrtRecord::Bgp4mp {
            timestamp: 7,
            microseconds: None,
            message: Bgp4mpMessage {
                peer_as: Asn(1),
                local_as: Asn(2),
                peer_ip: "2001:db8::a".parse().unwrap(),
                local_ip: "192.0.2.1".parse().unwrap(),
                message: sample_update(),
            },
        };
        assert!(MrtWriter::new().write(&rec).is_err());
    }

    #[test]
    fn truncated_input_errors() {
        let mut w = MrtWriter::new();
        w.write(&sample_bgp4mp(1, None)).unwrap();
        let bytes = w.into_bytes();
        // header cut
        let mut r = MrtReader::new(&bytes[..8]);
        assert!(matches!(
            r.next_record(),
            Err(MrtError::Truncated("MRT common header"))
        ));
        // body cut
        let mut r = MrtReader::new(&bytes[..bytes.len() - 3]);
        assert!(matches!(
            r.next_record(),
            Err(MrtError::Truncated("MRT record body"))
        ));
    }

    #[test]
    fn unsupported_type_errors() {
        let mut buf = BytesMut::new();
        buf.put_u32(0);
        buf.put_u16(99); // unknown type
        buf.put_u16(1);
        buf.put_u32(0);
        let mut r = MrtReader::new(&buf);
        assert!(matches!(
            r.next_record(),
            Err(MrtError::Unsupported {
                mrt_type: 99,
                subtype: 1
            })
        ));
    }

    #[test]
    fn empty_input_is_clean_eof() {
        let mut r = MrtReader::new(&[]);
        assert_eq!(r.next_record().unwrap(), None);
    }

    #[test]
    fn scanner_chunks_without_decoding() {
        let mut w = MrtWriter::new();
        for i in 0..5u32 {
            w.write(&sample_bgp4mp(i, Some(i * 10))).unwrap();
        }
        let bytes = w.into_bytes();
        let raws: Vec<RawMrtRecord<'_>> =
            MrtScanner::new(&bytes).collect::<Result<_, _>>().unwrap();
        assert_eq!(raws.len(), 5);
        assert_eq!(raws[0].offset, 0);
        for (i, raw) in raws.iter().enumerate() {
            assert!(raw.is_bgp4mp());
            assert!(!raw.is_table_dump());
            assert_eq!(raw.timestamp, i as u32);
            assert_eq!(raw.microseconds, Some(i as u32 * 10));
            // The body is a borrowed slice into the archive itself.
            let body_ptr = raw.body.as_ptr() as usize;
            let base = bytes.as_ptr() as usize;
            assert!(body_ptr >= base && body_ptr < base + bytes.len());
            assert_eq!(
                raw.decode().unwrap(),
                sample_bgp4mp(i as u32, Some(i as u32 * 10))
            );
        }
    }

    #[test]
    fn scanner_resyncs_past_a_corrupt_body() {
        // Three records; corrupt the *body* of the middle one. The
        // scanner still chunks all three (lengths are intact); only the
        // middle decode fails, and its diagnostic names the offset.
        let mut w = MrtWriter::new();
        for i in 0..3u32 {
            w.write(&sample_bgp4mp(i, None)).unwrap();
        }
        let mut bytes = w.into_bytes();
        let record_len = bytes.len() / 3;
        // Clobber the AFI field of record 1 (offset 12 header + 10 into body).
        bytes[record_len + 12 + 10] = 0xff;
        bytes[record_len + 12 + 11] = 0xff;

        let mut ok = Vec::new();
        let mut diags = Vec::new();
        for raw in MrtScanner::new(&bytes) {
            let raw = raw.unwrap();
            match raw.decode() {
                Ok(rec) => ok.push(rec),
                Err(e) => diags.push(raw.diagnostic(e)),
            }
        }
        assert_eq!(ok.len(), 2, "records 0 and 2 still decode");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].offset, record_len);
        assert_eq!(diags[0].timestamp, 1);
        assert!(diags[0].to_string().contains("malformed"));
        // The strict reader aborts at the same record.
        assert!(MrtReader::new(&bytes)
            .collect::<Result<Vec<_>, _>>()
            .is_err());
    }

    #[test]
    fn scanner_reports_unrecoverable_header_corruption() {
        let mut w = MrtWriter::new();
        w.write(&sample_bgp4mp(1, None)).unwrap();
        let mut bytes = w.into_bytes();
        // Length field claims more bytes than the archive holds.
        bytes[8..12].copy_from_slice(&u32::MAX.to_be_bytes());
        let mut s = MrtScanner::new(&bytes);
        assert!(matches!(
            s.next_raw(),
            Err(MrtError::Truncated("MRT record body"))
        ));
        // The failing record's start offset is still readable…
        assert_eq!(s.offset(), 0);
        // …and the scanner fuses: the error is reported once, then EOF.
        assert!(matches!(s.next_raw(), Ok(None)));
    }

    #[test]
    fn scanner_iterator_terminates_on_unrecoverable_corruption() {
        // Regression: a consumer that skips errors (filter_map,
        // log-and-continue loops) must terminate, not spin forever on
        // the same header-level error.
        let mut w = MrtWriter::new();
        w.write(&sample_bgp4mp(1, None)).unwrap();
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&[0xde, 0xad, 0xbe]); // truncated tail
        let items: Vec<Result<RawMrtRecord<'_>, MrtError>> = MrtScanner::new(&bytes).collect();
        assert_eq!(items.len(), 2, "one record, one error, then EOF");
        assert!(items[0].is_ok());
        assert!(matches!(
            items[1],
            Err(MrtError::Truncated("MRT common header"))
        ));
        assert_eq!(MrtScanner::new(&bytes).filter_map(Result::ok).count(), 1);
    }

    #[test]
    fn et_record_with_short_body_is_a_per_record_defect() {
        // Regression: a BGP4MP_ET record whose body cannot hold the
        // microsecond field must not kill the scan — the stream
        // resyncs at the next boundary and the defect surfaces from
        // decode() with the right offset.
        let mut bytes = BytesMut::new();
        bytes.put_u32(7); // timestamp
        bytes.put_u16(TYPE_BGP4MP_ET);
        bytes.put_u16(SUBTYPE_BGP4MP_MESSAGE_AS4);
        bytes.put_u32(2); // body too short for the 4-byte micros field
        bytes.put_slice(&[0, 0]);
        let mut w = MrtWriter::new();
        w.write(&sample_bgp4mp(8, Some(5))).unwrap();
        let bad_len = bytes.len();
        bytes.put_slice(&w.into_bytes());

        let mut scanner = MrtScanner::new(&bytes);
        let bad = scanner.next_raw().unwrap().expect("chunked despite defect");
        assert_eq!(bad.offset, 0);
        assert_eq!(bad.microseconds, None);
        assert!(matches!(
            bad.decode(),
            Err(MrtError::Truncated("BGP4MP_ET microseconds"))
        ));
        // The next record is intact and fully decodable.
        let good = scanner.next_raw().unwrap().expect("stream resynced");
        assert_eq!(good.offset, bad_len);
        assert_eq!(good.decode().unwrap(), sample_bgp4mp(8, Some(5)));
        assert!(matches!(scanner.next_raw(), Ok(None)));
    }
}

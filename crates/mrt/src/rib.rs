//! TABLE_DUMP_V2: peer index tables and per-prefix RIB records.

use crate::record::MrtError;
use artemis_bgp::prefix::Afi;
use artemis_bgp::{Asn, Codec, PathAttributes, Prefix};
use bytes::{Buf, BufMut, BytesMut};
use std::net::IpAddr;

/// One peer in a [`PeerIndexTable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerEntry {
    /// Peer BGP identifier.
    pub bgp_id: std::net::Ipv4Addr,
    /// Peer address.
    pub addr: IpAddr,
    /// Peer ASN.
    pub asn: Asn,
}

/// The PEER_INDEX_TABLE record: maps peer indices used by RIB entries
/// to collector peers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerIndexTable {
    /// Collector BGP identifier.
    pub collector_id: std::net::Ipv4Addr,
    /// Optional view name.
    pub view_name: String,
    /// Indexed peers.
    pub peers: Vec<PeerEntry>,
}

/// Error on any `len > u16::MAX`: the wire format counts this field
/// with 16 bits, and truncating the counter would corrupt the record.
fn check_u16(field: &'static str, len: usize) -> Result<u16, MrtError> {
    u16::try_from(len).map_err(|_| MrtError::FieldOverflow {
        field,
        len,
        max: u16::MAX as usize,
    })
}

impl PeerIndexTable {
    pub(crate) fn encode(&self) -> Result<Vec<u8>, MrtError> {
        let mut out = BytesMut::new();
        out.put_slice(&self.collector_id.octets());
        out.put_u16(check_u16("peer index view name", self.view_name.len())?);
        out.put_slice(self.view_name.as_bytes());
        out.put_u16(check_u16("peer index peer count", self.peers.len())?);
        for p in &self.peers {
            // peer type: bit 0 = v6 address, bit 1 = 4-byte AS (always).
            let v6 = matches!(p.addr, IpAddr::V6(_));
            out.put_u8(if v6 { 0b11 } else { 0b10 });
            out.put_slice(&p.bgp_id.octets());
            match p.addr {
                IpAddr::V4(a) => out.put_slice(&a.octets()),
                IpAddr::V6(a) => out.put_slice(&a.octets()),
            }
            out.put_u32(p.asn.value());
        }
        Ok(out.to_vec())
    }

    pub(crate) fn decode(mut body: &[u8]) -> Result<Self, MrtError> {
        if body.len() < 8 {
            return Err(MrtError::Truncated("peer index header"));
        }
        let collector_id = std::net::Ipv4Addr::new(body[0], body[1], body[2], body[3]);
        body.advance(4);
        let name_len = body.get_u16() as usize;
        if body.len() < name_len + 2 {
            return Err(MrtError::Truncated("peer index view name"));
        }
        let view_name = String::from_utf8_lossy(&body[..name_len]).into_owned();
        body.advance(name_len);
        let count = body.get_u16() as usize;
        let mut peers = Vec::with_capacity(count);
        for _ in 0..count {
            if body.is_empty() {
                return Err(MrtError::Truncated("peer entry type"));
            }
            let ptype = body.get_u8();
            let v6 = ptype & 0b01 != 0;
            let as4 = ptype & 0b10 != 0;
            let need = 4 + if v6 { 16 } else { 4 } + if as4 { 4 } else { 2 };
            if body.len() < need {
                return Err(MrtError::Truncated("peer entry"));
            }
            let bgp_id = std::net::Ipv4Addr::new(body[0], body[1], body[2], body[3]);
            body.advance(4);
            let addr: IpAddr = if v6 {
                let mut b = [0u8; 16];
                b.copy_from_slice(&body[..16]);
                body.advance(16);
                IpAddr::V6(b.into())
            } else {
                let a = std::net::Ipv4Addr::new(body[0], body[1], body[2], body[3]);
                body.advance(4);
                IpAddr::V4(a)
            };
            let asn = if as4 {
                Asn(body.get_u32())
            } else {
                Asn(body.get_u16() as u32)
            };
            peers.push(PeerEntry { bgp_id, addr, asn });
        }
        Ok(PeerIndexTable {
            collector_id,
            view_name,
            peers,
        })
    }
}

/// One route in a [`RibRecord`]: which peer had it, since when, with
/// what attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct RibEntry {
    /// Index into the snapshot's [`PeerIndexTable`].
    pub peer_index: u16,
    /// When the route was learned (seconds).
    pub originated_time: u32,
    /// Path attributes.
    pub attrs: PathAttributes,
}

/// A TABLE_DUMP_V2 RIB record: all known paths for one prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct RibRecord {
    /// Monotonic sequence number within the dump.
    pub sequence: u32,
    /// The prefix.
    pub prefix: Prefix,
    /// Entries, one per peer that had a path.
    pub entries: Vec<RibEntry>,
}

impl RibRecord {
    pub(crate) fn encode(&self) -> Result<Vec<u8>, MrtError> {
        let codec = Codec::four_octet();
        let mut out = BytesMut::new();
        out.put_u32(self.sequence);
        out.put_u8(self.prefix.len());
        let nbytes = (self.prefix.len() as usize).div_ceil(8);
        out.put_slice(&self.prefix.bits().to_be_bytes()[..nbytes]);
        out.put_u16(check_u16("RIB entry count", self.entries.len())?);
        for e in &self.entries {
            out.put_u16(e.peer_index);
            out.put_u32(e.originated_time);
            let attrs = codec.encode_path_attributes(&e.attrs)?;
            out.put_u16(check_u16("RIB entry attributes", attrs.len())?);
            out.put_slice(&attrs);
        }
        Ok(out.to_vec())
    }

    pub(crate) fn decode(mut body: &[u8], afi: Afi) -> Result<Self, MrtError> {
        let codec = Codec::four_octet();
        if body.len() < 5 {
            return Err(MrtError::Truncated("RIB header"));
        }
        let sequence = body.get_u32();
        let bit_len = body.get_u8();
        if bit_len > afi.max_len() {
            return Err(MrtError::Malformed("RIB prefix length out of range"));
        }
        let nbytes = (bit_len as usize).div_ceil(8);
        if body.len() < nbytes + 2 {
            return Err(MrtError::Truncated("RIB prefix"));
        }
        let mut bits = [0u8; 16];
        bits[..nbytes].copy_from_slice(&body[..nbytes]);
        body.advance(nbytes);
        let prefix = Prefix::from_bits(afi, u128::from_be_bytes(bits), bit_len)
            .map_err(|_| MrtError::Malformed("RIB prefix bits"))?;
        let count = body.get_u16() as usize;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            if body.len() < 8 {
                return Err(MrtError::Truncated("RIB entry header"));
            }
            let peer_index = body.get_u16();
            let originated_time = body.get_u32();
            let attr_len = body.get_u16() as usize;
            if body.len() < attr_len {
                return Err(MrtError::Truncated("RIB entry attributes"));
            }
            let attrs = codec.decode_path_attributes(&body[..attr_len])?;
            body.advance(attr_len);
            entries.push(RibEntry {
                peer_index,
                originated_time,
                attrs,
            });
        }
        Ok(RibRecord {
            sequence,
            prefix,
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{MrtReader, MrtRecord, MrtWriter};
    use artemis_bgp::AsPath;
    use std::str::FromStr;

    /// Every record of `bytes`, strictly decoded.
    fn records(bytes: &[u8]) -> Vec<MrtRecord> {
        MrtReader::new(bytes)
            .collect::<Result<_, _>>()
            .expect("strict decode")
    }

    fn table() -> PeerIndexTable {
        PeerIndexTable {
            collector_id: "198.51.100.1".parse().unwrap(),
            view_name: "rrc00".to_string(),
            peers: vec![
                PeerEntry {
                    bgp_id: "10.0.0.1".parse().unwrap(),
                    addr: "192.0.2.10".parse().unwrap(),
                    asn: Asn(174),
                },
                PeerEntry {
                    bgp_id: "10.0.0.2".parse().unwrap(),
                    addr: "2001:db8::5".parse().unwrap(),
                    asn: Asn(4_200_000_001),
                },
            ],
        }
    }

    fn rib(prefix: &str) -> RibRecord {
        let attrs = PathAttributes::with_path(
            AsPath::from_sequence([174u32, 65001]),
            "192.0.2.1".parse().unwrap(),
        );
        RibRecord {
            sequence: 42,
            prefix: Prefix::from_str(prefix).unwrap(),
            entries: vec![
                RibEntry {
                    peer_index: 0,
                    originated_time: 1_000,
                    attrs: attrs.clone(),
                },
                RibEntry {
                    peer_index: 1,
                    originated_time: 2_000,
                    attrs,
                },
            ],
        }
    }

    #[test]
    fn peer_index_roundtrip() {
        let rec = MrtRecord::PeerIndex {
            timestamp: 100,
            table: table(),
        };
        let mut w = MrtWriter::new();
        w.write(&rec).unwrap();
        let bytes = w.into_bytes();
        assert_eq!(records(&bytes), vec![rec]);
    }

    #[test]
    fn rib_v4_roundtrip() {
        let rec = MrtRecord::Rib {
            timestamp: 100,
            rib: rib("10.0.0.0/23"),
        };
        let mut w = MrtWriter::new();
        w.write(&rec).unwrap();
        let bytes = w.into_bytes();
        assert_eq!(records(&bytes), vec![rec]);
    }

    #[test]
    fn rib_v6_roundtrip() {
        let attrs = PathAttributes::with_path(
            AsPath::from_sequence([6939u32, 65001]),
            "2001:db8::1".parse().unwrap(),
        );
        let rec = MrtRecord::Rib {
            timestamp: 5,
            rib: RibRecord {
                sequence: 7,
                prefix: Prefix::from_str("2001:db8::/32").unwrap(),
                entries: vec![RibEntry {
                    peer_index: 3,
                    originated_time: 9,
                    attrs,
                }],
            },
        };
        let mut w = MrtWriter::new();
        w.write(&rec).unwrap();
        let bytes = w.into_bytes();
        assert_eq!(records(&bytes), vec![rec]);
    }

    #[test]
    fn full_dump_structure() {
        // A realistic dump: peer index first, then RIB records.
        let mut w = MrtWriter::new();
        w.write(&MrtRecord::PeerIndex {
            timestamp: 0,
            table: table(),
        })
        .unwrap();
        for (i, p) in ["10.0.0.0/24", "10.0.1.0/24", "192.0.2.0/24"]
            .iter()
            .enumerate()
        {
            let mut r = rib(p);
            r.sequence = i as u32;
            w.write(&MrtRecord::Rib {
                timestamp: 0,
                rib: r,
            })
            .unwrap();
        }
        let bytes = w.into_bytes();
        let recs = records(&bytes);
        assert_eq!(recs.len(), 4);
        assert!(matches!(recs[0], MrtRecord::PeerIndex { .. }));
        let seqs: Vec<u32> = recs[1..]
            .iter()
            .map(|r| match r {
                MrtRecord::Rib { rib, .. } => rib.sequence,
                _ => panic!("expected RIB"),
            })
            .collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn empty_view_name_ok() {
        let mut t = table();
        t.view_name = String::new();
        let rec = MrtRecord::PeerIndex {
            timestamp: 1,
            table: t,
        };
        let mut w = MrtWriter::new();
        w.write(&rec).unwrap();
        let bytes = w.into_bytes();
        assert_eq!(records(&bytes), vec![rec]);
    }

    #[test]
    fn oversized_view_name_errors_instead_of_corrupting() {
        let mut t = table();
        t.view_name = "x".repeat(u16::MAX as usize + 1);
        let rec = MrtRecord::PeerIndex {
            timestamp: 1,
            table: t,
        };
        let err = MrtWriter::new().write(&rec).unwrap_err();
        assert_eq!(
            err,
            MrtError::FieldOverflow {
                field: "peer index view name",
                len: u16::MAX as usize + 1,
                max: u16::MAX as usize,
            }
        );
    }

    #[test]
    fn oversized_peer_count_errors_instead_of_corrupting() {
        let peer = PeerEntry {
            bgp_id: "10.0.0.1".parse().unwrap(),
            addr: "192.0.2.10".parse().unwrap(),
            asn: Asn(174),
        };
        let t = PeerIndexTable {
            collector_id: "198.51.100.1".parse().unwrap(),
            view_name: String::new(),
            peers: vec![peer; u16::MAX as usize + 1],
        };
        let rec = MrtRecord::PeerIndex {
            timestamp: 1,
            table: t,
        };
        assert!(matches!(
            MrtWriter::new().write(&rec).unwrap_err(),
            MrtError::FieldOverflow {
                field: "peer index peer count",
                ..
            }
        ));
    }

    #[test]
    fn oversized_rib_entry_count_errors() {
        let entry = RibEntry {
            peer_index: 0,
            originated_time: 1,
            attrs: PathAttributes::with_path(
                AsPath::from_sequence([174u32]),
                "192.0.2.1".parse().unwrap(),
            ),
        };
        let rec = MrtRecord::Rib {
            timestamp: 1,
            rib: RibRecord {
                sequence: 0,
                prefix: Prefix::from_str("10.0.0.0/8").unwrap(),
                entries: vec![entry; u16::MAX as usize + 1],
            },
        };
        assert!(matches!(
            MrtWriter::new().write(&rec).unwrap_err(),
            MrtError::FieldOverflow {
                field: "RIB entry count",
                ..
            }
        ));
    }

    #[test]
    fn rib_with_no_entries() {
        let rec = MrtRecord::Rib {
            timestamp: 1,
            rib: RibRecord {
                sequence: 0,
                prefix: Prefix::from_str("10.0.0.0/8").unwrap(),
                entries: vec![],
            },
        };
        let mut w = MrtWriter::new();
        w.write(&rec).unwrap();
        let bytes = w.into_bytes();
        assert_eq!(records(&bytes), vec![rec]);
    }
}

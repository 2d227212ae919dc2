//! RFC 4271 wire codec with RFC 6793 (four-octet AS) and RFC 4760
//! (multiprotocol IPv6 NLRI) support.
//!
//! The [`Codec`] is parameterized on the session's four-octet-AS
//! capability: in two-octet mode, AS_PATHs containing 32-bit ASNs are
//! encoded with `AS_TRANS` substitutions plus an `AS4_PATH` attribute,
//! and reconstructed on decode — the same dance real routers perform.

use crate::aspath::{AsPath, Segment};
use crate::attrs::{Community, Origin, PathAttributes};
use crate::message::{
    BgpMessage, NotificationMessage, OpenMessage, UpdateMessage, KEEPALIVE_TYPE, NOTIFICATION_TYPE,
    OPEN_TYPE, UPDATE_TYPE,
};
use crate::prefix::{Afi, Prefix};
use crate::{asn::AS_TRANS, Asn, BgpError};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// Maximum BGP message size (RFC 4271 §4.1).
pub const MAX_MESSAGE_LEN: usize = 4096;
/// BGP header size.
pub const HEADER_LEN: usize = 19;

const FLAG_OPTIONAL: u8 = 0x80;
const FLAG_TRANSITIVE: u8 = 0x40;
const FLAG_EXTENDED_LEN: u8 = 0x10;

const ATTR_ORIGIN: u8 = 1;
const ATTR_AS_PATH: u8 = 2;
const ATTR_NEXT_HOP: u8 = 3;
const ATTR_MED: u8 = 4;
const ATTR_LOCAL_PREF: u8 = 5;
const ATTR_ATOMIC_AGGREGATE: u8 = 6;
const ATTR_AGGREGATOR: u8 = 7;
const ATTR_COMMUNITIES: u8 = 8;
const ATTR_MP_REACH: u8 = 14;
const ATTR_MP_UNREACH: u8 = 15;
const ATTR_AS4_PATH: u8 = 17;

const SEG_SET: u8 = 1;
const SEG_SEQUENCE: u8 = 2;

const CAP_FOUR_OCTET_AS: u8 = 65;

/// Encoder/decoder for BGP messages on one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Codec {
    /// Whether the session negotiated four-octet AS numbers. Modern
    /// sessions virtually always do; set `false` to exercise the
    /// AS_TRANS / AS4_PATH compatibility path.
    pub four_octet_as: bool,
}

impl Default for Codec {
    fn default() -> Self {
        Codec {
            four_octet_as: true,
        }
    }
}

impl Codec {
    /// A codec for a session that negotiated four-octet ASNs.
    pub const fn four_octet() -> Self {
        Codec {
            four_octet_as: true,
        }
    }

    /// A codec for a legacy two-octet session.
    pub const fn two_octet() -> Self {
        Codec {
            four_octet_as: false,
        }
    }

    // ------------------------------------------------------------------
    // Encoding
    // ------------------------------------------------------------------

    /// Encode a full message including the 19-byte header.
    pub fn encode(&self, msg: &BgpMessage) -> Result<Bytes, BgpError> {
        let mut body = BytesMut::with_capacity(64);
        match msg {
            BgpMessage::Open(open) => self.encode_open(open, &mut body)?,
            BgpMessage::Update(update) => self.encode_update(update, &mut body)?,
            BgpMessage::Notification(n) => {
                body.put_u8(n.code);
                body.put_u8(n.subcode);
                body.put_slice(&n.data);
            }
            BgpMessage::Keepalive => {}
        }
        let total = HEADER_LEN + body.len();
        if total > MAX_MESSAGE_LEN {
            return Err(BgpError::EncodingOverflow("message exceeds 4096 bytes"));
        }
        let mut out = BytesMut::with_capacity(total);
        out.put_bytes(0xFF, 16);
        out.put_u16(total as u16);
        out.put_u8(msg.type_code());
        out.extend_from_slice(&body);
        Ok(out.freeze())
    }

    fn encode_open(&self, open: &OpenMessage, out: &mut BytesMut) -> Result<(), BgpError> {
        out.put_u8(open.version);
        let two_octet_as: u16 = if open.asn.is_two_octet() {
            open.asn.value() as u16
        } else {
            AS_TRANS.value() as u16
        };
        out.put_u16(two_octet_as);
        out.put_u16(open.hold_time);
        out.put_slice(&open.bgp_id.octets());
        if open.four_octet_capable {
            // One optional parameter: capabilities (type 2) containing the
            // four-octet-AS capability (code 65, length 4).
            out.put_u8(8); // opt params len
            out.put_u8(2); // param type: capabilities
            out.put_u8(6); // param length
            out.put_u8(CAP_FOUR_OCTET_AS);
            out.put_u8(4);
            out.put_u32(open.asn.value());
        } else {
            if !open.asn.is_two_octet() {
                return Err(BgpError::EncodingOverflow(
                    "four-octet ASN without the capability",
                ));
            }
            out.put_u8(0);
        }
        Ok(())
    }

    fn encode_update(&self, update: &UpdateMessage, out: &mut BytesMut) -> Result<(), BgpError> {
        let (wd_v4, wd_v6): (Vec<Prefix>, Vec<Prefix>) = update
            .withdrawn
            .iter()
            .copied()
            .partition(|p| p.afi() == Afi::Ipv4);
        let (nlri_v4, nlri_v6): (Vec<Prefix>, Vec<Prefix>) = update
            .nlri
            .iter()
            .copied()
            .partition(|p| p.afi() == Afi::Ipv4);

        if (!nlri_v4.is_empty() || !nlri_v6.is_empty()) && update.attrs.is_none() {
            return Err(BgpError::MissingMandatoryAttribute("path attributes"));
        }

        // Withdrawn routes (IPv4 only in the classic field).
        let mut wd_buf = BytesMut::new();
        for p in &wd_v4 {
            encode_nlri_prefix(*p, &mut wd_buf);
        }
        out.put_u16(wd_buf.len() as u16);
        out.extend_from_slice(&wd_buf);

        // Path attributes.
        let mut attr_buf = BytesMut::new();
        if let Some(attrs) = &update.attrs {
            self.encode_attrs(attrs, &nlri_v4, &nlri_v6, &wd_v6, &mut attr_buf)?;
        } else if !wd_v6.is_empty() {
            // Pure v6 withdrawal still needs MP_UNREACH.
            encode_mp_unreach(&wd_v6, &mut attr_buf);
        }
        out.put_u16(attr_buf.len() as u16);
        out.extend_from_slice(&attr_buf);

        // Classic NLRI (IPv4).
        for p in &nlri_v4 {
            encode_nlri_prefix(*p, out);
        }
        Ok(())
    }

    fn encode_attrs(
        &self,
        attrs: &PathAttributes,
        nlri_v4: &[Prefix],
        nlri_v6: &[Prefix],
        wd_v6: &[Prefix],
        out: &mut BytesMut,
    ) -> Result<(), BgpError> {
        // ORIGIN
        put_attr(out, FLAG_TRANSITIVE, ATTR_ORIGIN, &[attrs.origin.code()]);

        // AS_PATH (and possibly AS4_PATH)
        let needs_as4 = !self.four_octet_as && attrs.as_path.iter().any(|a| !a.is_two_octet());
        let path_buf = encode_as_path(&attrs.as_path, self.four_octet_as, needs_as4);
        put_attr(out, FLAG_TRANSITIVE, ATTR_AS_PATH, &path_buf);

        // NEXT_HOP: required alongside classic v4 NLRI.
        if !nlri_v4.is_empty() {
            match attrs.next_hop {
                IpAddr::V4(a) => put_attr(out, FLAG_TRANSITIVE, ATTR_NEXT_HOP, &a.octets()),
                IpAddr::V6(_) => {
                    return Err(BgpError::EncodingOverflow("IPv6 next-hop with IPv4 NLRI"))
                }
            }
        }

        if let Some(med) = attrs.med {
            put_attr(out, FLAG_OPTIONAL, ATTR_MED, &med.to_be_bytes());
        }
        if let Some(lp) = attrs.local_pref {
            put_attr(out, FLAG_TRANSITIVE, ATTR_LOCAL_PREF, &lp.to_be_bytes());
        }
        if attrs.atomic_aggregate {
            put_attr(out, FLAG_TRANSITIVE, ATTR_ATOMIC_AGGREGATE, &[]);
        }
        if let Some((asn, id)) = attrs.aggregator {
            let mut buf = Vec::with_capacity(8);
            if self.four_octet_as {
                buf.extend_from_slice(&asn.value().to_be_bytes());
            } else {
                let v: u16 = if asn.is_two_octet() {
                    asn.value() as u16
                } else {
                    AS_TRANS.value() as u16
                };
                buf.extend_from_slice(&v.to_be_bytes());
            }
            buf.extend_from_slice(&id.octets());
            put_attr(out, FLAG_OPTIONAL | FLAG_TRANSITIVE, ATTR_AGGREGATOR, &buf);
        }
        if !attrs.communities.is_empty() {
            let mut buf = Vec::with_capacity(attrs.communities.len() * 4);
            for c in &attrs.communities {
                buf.extend_from_slice(&c.0.to_be_bytes());
            }
            put_attr(out, FLAG_OPTIONAL | FLAG_TRANSITIVE, ATTR_COMMUNITIES, &buf);
        }
        if needs_as4 {
            let as4_buf = encode_as_path(&attrs.as_path, true, false);
            put_attr(
                out,
                FLAG_OPTIONAL | FLAG_TRANSITIVE,
                ATTR_AS4_PATH,
                &as4_buf,
            );
        }

        // MP_REACH_NLRI for IPv6 announcements.
        if !nlri_v6.is_empty() {
            let next_hop_v6 = match attrs.next_hop {
                IpAddr::V6(a) => a,
                // Map a v4 next hop into the v4-mapped space so that a
                // mixed-family update stays encodable.
                IpAddr::V4(a) => a.to_ipv6_mapped(),
            };
            let mut buf = BytesMut::new();
            buf.put_u16(Afi::Ipv6.iana_code());
            buf.put_u8(1); // SAFI unicast
            buf.put_u8(16);
            buf.put_slice(&next_hop_v6.octets());
            buf.put_u8(0); // reserved
            for p in nlri_v6 {
                encode_nlri_prefix(*p, &mut buf);
            }
            put_attr(out, FLAG_OPTIONAL, ATTR_MP_REACH, &buf);
        }
        if !wd_v6.is_empty() {
            encode_mp_unreach(wd_v6, out);
        }
        Ok(())
    }

    /// Encode a bare path-attribute block (as stored in MRT
    /// TABLE_DUMP_V2 RIB entries). IPv6 next-hops are carried in an
    /// MP_REACH_NLRI attribute with an empty NLRI, mirroring real dumps.
    pub fn encode_path_attributes(&self, attrs: &PathAttributes) -> Result<Vec<u8>, BgpError> {
        let mut buf = BytesMut::new();
        match attrs.next_hop {
            IpAddr::V4(_) => {
                // Pretend there is v4 NLRI so NEXT_HOP is emitted.
                self.encode_attrs(attrs, &[Prefix::default_v4()], &[], &[], &mut buf)?
            }
            IpAddr::V6(_) => {
                // Emit MP_REACH with the v6 next hop and an empty NLRI.
                self.encode_attrs_v6_nonlri(attrs, &mut buf)?;
                return Ok(buf.to_vec());
            }
        }
        Ok(buf.to_vec())
    }

    fn encode_attrs_v6_nonlri(
        &self,
        attrs: &PathAttributes,
        out: &mut BytesMut,
    ) -> Result<(), BgpError> {
        put_attr(out, FLAG_TRANSITIVE, ATTR_ORIGIN, &[attrs.origin.code()]);
        let path_buf = encode_as_path(&attrs.as_path, true, false);
        put_attr(out, FLAG_TRANSITIVE, ATTR_AS_PATH, &path_buf);
        if let Some(med) = attrs.med {
            put_attr(out, FLAG_OPTIONAL, ATTR_MED, &med.to_be_bytes());
        }
        if let Some(lp) = attrs.local_pref {
            put_attr(out, FLAG_TRANSITIVE, ATTR_LOCAL_PREF, &lp.to_be_bytes());
        }
        if !attrs.communities.is_empty() {
            let mut buf = Vec::with_capacity(attrs.communities.len() * 4);
            for c in &attrs.communities {
                buf.extend_from_slice(&c.0.to_be_bytes());
            }
            put_attr(out, FLAG_OPTIONAL | FLAG_TRANSITIVE, ATTR_COMMUNITIES, &buf);
        }
        let IpAddr::V6(nh) = attrs.next_hop else {
            return Err(BgpError::EncodingOverflow("expected v6 next hop"));
        };
        let mut buf = BytesMut::new();
        buf.put_u16(Afi::Ipv6.iana_code());
        buf.put_u8(1);
        buf.put_u8(16);
        buf.put_slice(&nh.octets());
        buf.put_u8(0);
        put_attr(out, FLAG_OPTIONAL, ATTR_MP_REACH, &buf);
        Ok(())
    }

    /// Decode a bare path-attribute block (MRT RIB entries). Requires
    /// ORIGIN and AS_PATH; a missing NEXT_HOP falls back to `0.0.0.0`
    /// (some dumps omit it for iBGP-learned entries).
    pub fn decode_path_attributes(&self, bytes: &[u8]) -> Result<PathAttributes, BgpError> {
        let parsed = self.decode_attrs(bytes)?;
        let origin = parsed
            .origin
            .ok_or(BgpError::MissingMandatoryAttribute("ORIGIN"))?;
        let raw_path = parsed
            .as_path
            .ok_or(BgpError::MissingMandatoryAttribute("AS_PATH"))?;
        let as_path = reconcile_as4(raw_path, parsed.as4_path);
        let next_hop: IpAddr = match (parsed.next_hop, &parsed.mp_reach) {
            (Some(v4), _) => IpAddr::V4(v4),
            (None, Some((_, nh))) => IpAddr::V6(*nh),
            (None, None) => IpAddr::V4(Ipv4Addr::UNSPECIFIED),
        };
        Ok(PathAttributes {
            origin,
            as_path,
            next_hop,
            med: parsed.med,
            local_pref: parsed.local_pref,
            atomic_aggregate: parsed.atomic_aggregate,
            aggregator: parsed.aggregator,
            communities: parsed.communities,
        })
    }

    // ------------------------------------------------------------------
    // Decoding
    // ------------------------------------------------------------------

    /// Decode one message from the front of `buf`. Returns the message
    /// and the number of bytes consumed.
    pub fn decode(&self, buf: &[u8]) -> Result<(BgpMessage, usize), BgpError> {
        if buf.len() < HEADER_LEN {
            return Err(BgpError::Truncated("header"));
        }
        if buf[..16].iter().any(|&b| b != 0xFF) {
            return Err(BgpError::BadMarker);
        }
        let claimed = u16::from_be_bytes([buf[16], buf[17]]) as usize;
        if !(HEADER_LEN..=MAX_MESSAGE_LEN).contains(&claimed) || claimed > buf.len() {
            return Err(BgpError::BadLength {
                claimed,
                available: buf.len(),
            });
        }
        let msg_type = buf[18];
        let body = &buf[HEADER_LEN..claimed];
        let msg = match msg_type {
            OPEN_TYPE => BgpMessage::Open(self.decode_open(body)?),
            UPDATE_TYPE => BgpMessage::Update(self.decode_update(body)?),
            NOTIFICATION_TYPE => {
                if body.len() < 2 {
                    return Err(BgpError::Truncated("notification"));
                }
                BgpMessage::Notification(NotificationMessage {
                    code: body[0],
                    subcode: body[1],
                    data: body[2..].to_vec(),
                })
            }
            KEEPALIVE_TYPE => {
                if !body.is_empty() {
                    return Err(BgpError::BadLength {
                        claimed,
                        available: HEADER_LEN,
                    });
                }
                BgpMessage::Keepalive
            }
            t => return Err(BgpError::UnknownMessageType(t)),
        };
        Ok((msg, claimed))
    }

    fn decode_open(&self, mut body: &[u8]) -> Result<OpenMessage, BgpError> {
        if body.len() < 10 {
            return Err(BgpError::Truncated("open"));
        }
        let version = body.get_u8();
        if version != 4 {
            return Err(BgpError::UnsupportedVersion(version));
        }
        let two_octet_as = body.get_u16();
        let hold_time = body.get_u16();
        let bgp_id = Ipv4Addr::from(body.get_u32());
        let opt_len = body.get_u8() as usize;
        if body.len() < opt_len {
            return Err(BgpError::Truncated("open optional parameters"));
        }
        let mut params = &body[..opt_len];
        let mut four_octet: Option<u32> = None;
        while params.len() >= 2 {
            let ptype = params.get_u8();
            let plen = params.get_u8() as usize;
            if params.len() < plen {
                return Err(BgpError::Truncated("open parameter"));
            }
            let mut pval = &params[..plen];
            params = &params[plen..];
            if ptype != 2 {
                continue; // non-capability parameter: ignore
            }
            while pval.len() >= 2 {
                let cap = pval.get_u8();
                let clen = pval.get_u8() as usize;
                if pval.len() < clen {
                    return Err(BgpError::Truncated("capability"));
                }
                if cap == CAP_FOUR_OCTET_AS && clen == 4 {
                    four_octet = Some(u32::from_be_bytes([pval[0], pval[1], pval[2], pval[3]]));
                }
                pval = &pval[clen..];
            }
        }
        let asn = match four_octet {
            Some(v) => Asn(v),
            None => Asn(two_octet_as as u32),
        };
        Ok(OpenMessage {
            version,
            asn,
            hold_time,
            bgp_id,
            four_octet_capable: four_octet.is_some(),
        })
    }

    fn decode_update(&self, body: &[u8]) -> Result<UpdateMessage, BgpError> {
        let mut cur = body;
        if cur.len() < 2 {
            return Err(BgpError::Truncated("withdrawn length"));
        }
        let wd_len = cur.get_u16() as usize;
        if cur.len() < wd_len {
            return Err(BgpError::Truncated("withdrawn routes"));
        }
        let mut withdrawn = decode_nlri(&cur[..wd_len], Afi::Ipv4)?;
        cur = &cur[wd_len..];

        if cur.len() < 2 {
            return Err(BgpError::Truncated("attribute length"));
        }
        let attr_len = cur.get_u16() as usize;
        if cur.len() < attr_len {
            return Err(BgpError::Truncated("path attributes"));
        }
        let attr_bytes = &cur[..attr_len];
        cur = &cur[attr_len..];

        let mut nlri = decode_nlri(cur, Afi::Ipv4)?;

        let parsed = self.decode_attrs(attr_bytes)?;
        let ParsedAttrs {
            origin,
            as_path,
            as4_path,
            next_hop,
            med,
            local_pref,
            atomic_aggregate,
            aggregator,
            communities,
            mp_reach,
            mp_unreach,
        } = parsed;

        if let Some((v6_nlri, _)) = &mp_reach {
            nlri.extend(v6_nlri.iter().copied());
        }
        if let Some(v6_wd) = &mp_unreach {
            withdrawn.extend(v6_wd.iter().copied());
        }

        let attrs = if nlri.is_empty() {
            None
        } else {
            let origin = origin.ok_or(BgpError::MissingMandatoryAttribute("ORIGIN"))?;
            let raw_path = as_path.ok_or(BgpError::MissingMandatoryAttribute("AS_PATH"))?;
            let as_path = reconcile_as4(raw_path, as4_path);
            let next_hop: IpAddr = match (next_hop, &mp_reach) {
                (Some(v4), _) => IpAddr::V4(v4),
                (None, Some((_, nh))) => IpAddr::V6(*nh),
                (None, None) => return Err(BgpError::MissingMandatoryAttribute("NEXT_HOP")),
            };
            Some(PathAttributes {
                origin,
                as_path,
                next_hop,
                med,
                local_pref,
                atomic_aggregate,
                aggregator,
                communities,
            })
        };

        Ok(UpdateMessage {
            withdrawn,
            attrs,
            nlri,
        })
    }

    fn decode_attrs(&self, mut cur: &[u8]) -> Result<ParsedAttrs, BgpError> {
        let mut parsed = ParsedAttrs::default();
        while !cur.is_empty() {
            if cur.len() < 2 {
                return Err(BgpError::Truncated("attribute header"));
            }
            let flags = cur.get_u8();
            let type_code = cur.get_u8();
            let len = if flags & FLAG_EXTENDED_LEN != 0 {
                if cur.len() < 2 {
                    return Err(BgpError::Truncated("attribute extended length"));
                }
                cur.get_u16() as usize
            } else {
                if cur.is_empty() {
                    return Err(BgpError::Truncated("attribute length"));
                }
                cur.get_u8() as usize
            };
            if cur.len() < len {
                return Err(BgpError::Truncated("attribute value"));
            }
            let val = &cur[..len];
            cur = &cur[len..];
            self.decode_one_attr(flags, type_code, val, &mut parsed)?;
        }
        Ok(parsed)
    }

    fn decode_one_attr(
        &self,
        _flags: u8,
        type_code: u8,
        val: &[u8],
        parsed: &mut ParsedAttrs,
    ) -> Result<(), BgpError> {
        match type_code {
            ATTR_ORIGIN => {
                if val.len() != 1 {
                    return Err(BgpError::MalformedAttribute {
                        type_code,
                        reason: "ORIGIN length != 1",
                    });
                }
                parsed.origin = Some(Origin::from_code(val[0]).ok_or(
                    BgpError::MalformedAttribute {
                        type_code,
                        reason: "unknown ORIGIN code",
                    },
                )?);
            }
            ATTR_AS_PATH => {
                parsed.as_path = Some(decode_as_path(val, self.four_octet_as)?);
            }
            ATTR_AS4_PATH => {
                parsed.as4_path = Some(decode_as_path(val, true)?);
            }
            ATTR_NEXT_HOP => {
                if val.len() != 4 {
                    return Err(BgpError::MalformedAttribute {
                        type_code,
                        reason: "NEXT_HOP length != 4",
                    });
                }
                parsed.next_hop = Some(Ipv4Addr::new(val[0], val[1], val[2], val[3]));
            }
            ATTR_MED => {
                if val.len() != 4 {
                    return Err(BgpError::MalformedAttribute {
                        type_code,
                        reason: "MED length != 4",
                    });
                }
                parsed.med = Some(u32::from_be_bytes([val[0], val[1], val[2], val[3]]));
            }
            ATTR_LOCAL_PREF => {
                if val.len() != 4 {
                    return Err(BgpError::MalformedAttribute {
                        type_code,
                        reason: "LOCAL_PREF length != 4",
                    });
                }
                parsed.local_pref = Some(u32::from_be_bytes([val[0], val[1], val[2], val[3]]));
            }
            ATTR_ATOMIC_AGGREGATE => {
                if !val.is_empty() {
                    return Err(BgpError::MalformedAttribute {
                        type_code,
                        reason: "ATOMIC_AGGREGATE length != 0",
                    });
                }
                parsed.atomic_aggregate = true;
            }
            ATTR_AGGREGATOR => {
                let (asn, rest) = if self.four_octet_as {
                    if val.len() != 8 {
                        return Err(BgpError::MalformedAttribute {
                            type_code,
                            reason: "AGGREGATOR length != 8",
                        });
                    }
                    (
                        Asn(u32::from_be_bytes([val[0], val[1], val[2], val[3]])),
                        &val[4..],
                    )
                } else {
                    if val.len() != 6 {
                        return Err(BgpError::MalformedAttribute {
                            type_code,
                            reason: "AGGREGATOR length != 6",
                        });
                    }
                    (Asn(u16::from_be_bytes([val[0], val[1]]) as u32), &val[2..])
                };
                parsed.aggregator = Some((asn, Ipv4Addr::new(rest[0], rest[1], rest[2], rest[3])));
            }
            ATTR_COMMUNITIES => {
                if !val.len().is_multiple_of(4) {
                    return Err(BgpError::MalformedAttribute {
                        type_code,
                        reason: "COMMUNITIES length not a multiple of 4",
                    });
                }
                parsed.communities = val
                    .chunks_exact(4)
                    .map(|c| Community(u32::from_be_bytes([c[0], c[1], c[2], c[3]])))
                    .collect();
            }
            ATTR_MP_REACH => {
                let mut cur = val;
                if cur.len() < 5 {
                    return Err(BgpError::MalformedAttribute {
                        type_code,
                        reason: "MP_REACH too short",
                    });
                }
                let afi = cur.get_u16();
                let _safi = cur.get_u8();
                let nh_len = cur.get_u8() as usize;
                if cur.len() < nh_len + 1 {
                    return Err(BgpError::MalformedAttribute {
                        type_code,
                        reason: "MP_REACH next-hop truncated",
                    });
                }
                if afi != Afi::Ipv6.iana_code() || nh_len < 16 {
                    return Err(BgpError::MalformedAttribute {
                        type_code,
                        reason: "unsupported MP_REACH AFI or next-hop",
                    });
                }
                let mut nh_bytes = [0u8; 16];
                nh_bytes.copy_from_slice(&cur[..16]);
                let nh = Ipv6Addr::from(nh_bytes);
                cur = &cur[nh_len..];
                let _reserved = cur.get_u8();
                let nlri = decode_nlri(cur, Afi::Ipv6)?;
                parsed.mp_reach = Some((nlri, nh));
            }
            ATTR_MP_UNREACH => {
                let mut cur = val;
                if cur.len() < 3 {
                    return Err(BgpError::MalformedAttribute {
                        type_code,
                        reason: "MP_UNREACH too short",
                    });
                }
                let afi = cur.get_u16();
                let _safi = cur.get_u8();
                if afi != Afi::Ipv6.iana_code() {
                    return Err(BgpError::MalformedAttribute {
                        type_code,
                        reason: "unsupported MP_UNREACH AFI",
                    });
                }
                parsed.mp_unreach = Some(decode_nlri(cur, Afi::Ipv6)?);
            }
            _ => {
                // Unknown attribute: tolerated and skipped (optional
                // transitive semantics are out of scope here).
            }
        }
        Ok(())
    }
}

#[derive(Default)]
struct ParsedAttrs {
    origin: Option<Origin>,
    as_path: Option<AsPath>,
    as4_path: Option<AsPath>,
    next_hop: Option<Ipv4Addr>,
    med: Option<u32>,
    local_pref: Option<u32>,
    atomic_aggregate: bool,
    aggregator: Option<(Asn, Ipv4Addr)>,
    communities: Vec<Community>,
    mp_reach: Option<(Vec<Prefix>, Ipv6Addr)>,
    mp_unreach: Option<Vec<Prefix>>,
}

/// RFC 6793 §4.2.3 reconciliation: when AS4_PATH is present and no
/// longer than AS_PATH, prefer it (prepending any extra leading
/// AS_TRANS hops from AS_PATH).
fn reconcile_as4(as_path: AsPath, as4_path: Option<AsPath>) -> AsPath {
    let Some(as4) = as4_path else {
        return as_path;
    };
    let n = as_path.asn_count();
    let n4 = as4.asn_count();
    if n4 > n {
        // Broken speaker: ignore AS4_PATH per the RFC.
        return as_path;
    }
    if n4 == n {
        return as4;
    }
    // Keep the first (n - n4) hops of AS_PATH, then splice AS4_PATH.
    let lead: Vec<Asn> = as_path.iter().take(n - n4).collect();
    let mut segments = vec![Segment::Sequence(lead)];
    segments.extend(as4.segments().iter().cloned());
    AsPath::from_segments(segments)
}

fn put_attr(out: &mut BytesMut, flags: u8, type_code: u8, value: &[u8]) {
    if value.len() > 255 {
        out.put_u8(flags | FLAG_EXTENDED_LEN);
        out.put_u8(type_code);
        out.put_u16(value.len() as u16);
    } else {
        out.put_u8(flags);
        out.put_u8(type_code);
        out.put_u8(value.len() as u8);
    }
    out.put_slice(value);
}

fn encode_as_path(path: &AsPath, four_octet: bool, substitute_trans: bool) -> Vec<u8> {
    let mut out = Vec::new();
    for seg in path.segments() {
        let (code, asns) = match seg {
            Segment::Set(a) => (SEG_SET, a),
            Segment::Sequence(a) => (SEG_SEQUENCE, a),
        };
        // Wire segments carry at most 255 ASNs; chunk long sequences.
        for chunk in asns.chunks(255) {
            out.push(code);
            out.push(chunk.len() as u8);
            for asn in chunk {
                if four_octet {
                    out.extend_from_slice(&asn.value().to_be_bytes());
                } else {
                    let v: u16 = if asn.is_two_octet() {
                        asn.value() as u16
                    } else {
                        debug_assert!(substitute_trans || asn.is_two_octet());
                        AS_TRANS.value() as u16
                    };
                    out.extend_from_slice(&v.to_be_bytes());
                }
            }
        }
    }
    out
}

fn decode_as_path(mut cur: &[u8], four_octet: bool) -> Result<AsPath, BgpError> {
    let asn_size = if four_octet { 4 } else { 2 };
    let mut segments = Vec::new();
    while !cur.is_empty() {
        if cur.len() < 2 {
            return Err(BgpError::MalformedAttribute {
                type_code: ATTR_AS_PATH,
                reason: "segment header truncated",
            });
        }
        let seg_type = cur.get_u8();
        let count = cur.get_u8() as usize;
        if cur.len() < count * asn_size {
            return Err(BgpError::MalformedAttribute {
                type_code: ATTR_AS_PATH,
                reason: "segment ASNs truncated",
            });
        }
        let mut asns = Vec::with_capacity(count);
        for _ in 0..count {
            let v = if four_octet {
                cur.get_u32()
            } else {
                cur.get_u16() as u32
            };
            asns.push(Asn(v));
        }
        match seg_type {
            SEG_SET => segments.push(Segment::Set(asns)),
            SEG_SEQUENCE => segments.push(Segment::Sequence(asns)),
            _ => {
                return Err(BgpError::MalformedAttribute {
                    type_code: ATTR_AS_PATH,
                    reason: "unknown segment type",
                })
            }
        }
    }
    // `from_segments` merges adjacent sequences (chunked on encode)
    // back together.
    Ok(AsPath::from_segments(segments))
}

fn encode_mp_unreach(wd_v6: &[Prefix], out: &mut BytesMut) {
    let mut buf = BytesMut::new();
    buf.put_u16(Afi::Ipv6.iana_code());
    buf.put_u8(1); // SAFI unicast
    for p in wd_v6 {
        encode_nlri_prefix(*p, &mut buf);
    }
    put_attr(out, FLAG_OPTIONAL, ATTR_MP_UNREACH, &buf);
}

/// Encode one NLRI prefix: length octet then ceil(len/8) address bytes.
fn encode_nlri_prefix(prefix: Prefix, out: &mut BytesMut) {
    out.put_u8(prefix.len());
    let nbytes = (prefix.len() as usize).div_ceil(8);
    let bytes = prefix.bits().to_be_bytes();
    out.put_slice(&bytes[..nbytes]);
}

/// Decode a run of NLRI prefixes for one family.
fn decode_nlri(mut cur: &[u8], afi: Afi) -> Result<Vec<Prefix>, BgpError> {
    let mut out = Vec::new();
    while !cur.is_empty() {
        let bit_len = cur.get_u8();
        if bit_len > afi.max_len() {
            return Err(BgpError::InvalidNlri { bit_len });
        }
        let nbytes = (bit_len as usize).div_ceil(8);
        if cur.len() < nbytes {
            return Err(BgpError::Truncated("NLRI prefix bytes"));
        }
        let mut bits_bytes = [0u8; 16];
        bits_bytes[..nbytes].copy_from_slice(&cur[..nbytes]);
        cur = &cur[nbytes..];
        let bits = u128::from_be_bytes(bits_bytes);
        let prefix =
            Prefix::from_bits(afi, bits, bit_len).map_err(|_| BgpError::InvalidNlri { bit_len })?;
        out.push(prefix);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    fn p(s: &str) -> Prefix {
        Prefix::from_str(s).unwrap()
    }

    fn attrs_v4(path: &[u32]) -> PathAttributes {
        PathAttributes::with_path(
            AsPath::from_sequence(path.iter().copied()),
            "192.0.2.1".parse().unwrap(),
        )
    }

    #[test]
    fn keepalive_roundtrip() {
        let codec = Codec::default();
        let bytes = codec.encode(&BgpMessage::Keepalive).unwrap();
        assert_eq!(bytes.len(), 19);
        let (msg, used) = codec.decode(&bytes).unwrap();
        assert_eq!(msg, BgpMessage::Keepalive);
        assert_eq!(used, 19);
    }

    #[test]
    fn open_roundtrip_four_octet() {
        let codec = Codec::default();
        let open = OpenMessage {
            version: 4,
            asn: Asn(4_200_000_001),
            hold_time: 180,
            bgp_id: Ipv4Addr::new(10, 0, 0, 1),
            four_octet_capable: true,
        };
        let bytes = codec.encode(&BgpMessage::Open(open.clone())).unwrap();
        let (msg, _) = codec.decode(&bytes).unwrap();
        assert_eq!(msg, BgpMessage::Open(open));
    }

    #[test]
    fn open_two_octet_without_capability() {
        let codec = Codec::two_octet();
        let open = OpenMessage {
            version: 4,
            asn: Asn(65001),
            hold_time: 90,
            bgp_id: Ipv4Addr::new(1, 2, 3, 4),
            four_octet_capable: false,
        };
        let bytes = codec.encode(&BgpMessage::Open(open.clone())).unwrap();
        let (msg, _) = codec.decode(&bytes).unwrap();
        assert_eq!(msg, BgpMessage::Open(open));
    }

    #[test]
    fn open_rejects_wide_asn_without_capability() {
        let codec = Codec::default();
        let open = OpenMessage {
            version: 4,
            asn: Asn(70000),
            hold_time: 90,
            bgp_id: Ipv4Addr::new(1, 2, 3, 4),
            four_octet_capable: false,
        };
        assert!(codec.encode(&BgpMessage::Open(open)).is_err());
    }

    #[test]
    fn update_roundtrip_v4() {
        let codec = Codec::default();
        let update = UpdateMessage::announce(
            attrs_v4(&[174, 3356, 65001]),
            vec![p("10.0.0.0/23"), p("203.0.113.0/24")],
        );
        let bytes = codec.encode(&BgpMessage::Update(update.clone())).unwrap();
        let (msg, _) = codec.decode(&bytes).unwrap();
        assert_eq!(msg, BgpMessage::Update(update));
    }

    #[test]
    fn update_roundtrip_withdraw_only() {
        let codec = Codec::default();
        let update = UpdateMessage::withdraw(vec![p("10.0.0.0/23")]);
        let bytes = codec.encode(&BgpMessage::Update(update.clone())).unwrap();
        let (msg, _) = codec.decode(&bytes).unwrap();
        assert_eq!(msg, BgpMessage::Update(update));
    }

    #[test]
    fn update_roundtrip_full_attributes() {
        let codec = Codec::default();
        let mut attrs = attrs_v4(&[64500, 64501]);
        attrs.origin = Origin::Incomplete;
        attrs.med = Some(50);
        attrs.local_pref = Some(200);
        attrs.atomic_aggregate = true;
        attrs.aggregator = Some((Asn(64500), Ipv4Addr::new(10, 1, 1, 1)));
        attrs.communities = vec![Community::from_parts(64500, 7), Community::NO_EXPORT];
        let update = UpdateMessage::announce(attrs, vec![p("198.51.100.0/24")]);
        let bytes = codec.encode(&BgpMessage::Update(update.clone())).unwrap();
        let (msg, _) = codec.decode(&bytes).unwrap();
        assert_eq!(msg, BgpMessage::Update(update));
    }

    #[test]
    fn update_roundtrip_v6_mp_reach() {
        let codec = Codec::default();
        let attrs = PathAttributes::with_path(
            AsPath::from_sequence([6939u32, 65001]),
            "2001:db8::1".parse().unwrap(),
        );
        let update = UpdateMessage::announce(attrs, vec![p("2001:db8:1::/48")]);
        let bytes = codec.encode(&BgpMessage::Update(update.clone())).unwrap();
        let (msg, _) = codec.decode(&bytes).unwrap();
        assert_eq!(msg, BgpMessage::Update(update));
    }

    #[test]
    fn update_roundtrip_v6_withdraw() {
        let codec = Codec::default();
        let update = UpdateMessage::withdraw(vec![p("2001:db8:2::/48")]);
        let bytes = codec.encode(&BgpMessage::Update(update.clone())).unwrap();
        let (msg, _) = codec.decode(&bytes).unwrap();
        assert_eq!(msg, BgpMessage::Update(update));
    }

    #[test]
    fn two_octet_session_uses_as_trans_and_as4_path() {
        let codec = Codec::two_octet();
        let update = UpdateMessage::announce(
            attrs_v4(&[174, 4_200_000_001, 65001]),
            vec![p("10.0.0.0/24")],
        );
        let bytes = codec.encode(&BgpMessage::Update(update.clone())).unwrap();
        // The raw AS_PATH on the wire must contain AS_TRANS (23456).
        let raw = bytes.as_ref();
        let needle = 23456u16.to_be_bytes();
        assert!(raw.windows(2).any(|w| w == needle));
        // And decoding reconstructs the true path via AS4_PATH.
        let (msg, _) = codec.decode(&bytes).unwrap();
        match msg {
            BgpMessage::Update(u) => {
                assert_eq!(
                    u.attrs.unwrap().as_path,
                    AsPath::from_sequence([174u32, 4_200_000_001, 65001])
                );
            }
            other => panic!("unexpected message {other:?}"),
        }
    }

    #[test]
    fn notification_roundtrip() {
        let codec = Codec::default();
        let n = NotificationMessage {
            code: 6,
            subcode: 2,
            data: vec![1, 2, 3],
        };
        let bytes = codec.encode(&BgpMessage::Notification(n.clone())).unwrap();
        let (msg, _) = codec.decode(&bytes).unwrap();
        assert_eq!(msg, BgpMessage::Notification(n));
    }

    #[test]
    fn decode_rejects_bad_marker() {
        let codec = Codec::default();
        let mut bytes = codec.encode(&BgpMessage::Keepalive).unwrap().to_vec();
        bytes[3] = 0;
        assert_eq!(codec.decode(&bytes), Err(BgpError::BadMarker));
    }

    #[test]
    fn decode_rejects_truncation() {
        let codec = Codec::default();
        let bytes = codec.encode(&BgpMessage::Keepalive).unwrap();
        assert!(matches!(
            codec.decode(&bytes[..10]),
            Err(BgpError::Truncated(_))
        ));
    }

    #[test]
    fn decode_rejects_length_lies() {
        let codec = Codec::default();
        let mut bytes = codec.encode(&BgpMessage::Keepalive).unwrap().to_vec();
        bytes[16] = 0xFF;
        bytes[17] = 0xFF; // claims 65535
        assert!(matches!(
            codec.decode(&bytes),
            Err(BgpError::BadLength { .. })
        ));
    }

    #[test]
    fn decode_rejects_unknown_type() {
        let codec = Codec::default();
        let mut bytes = codec.encode(&BgpMessage::Keepalive).unwrap().to_vec();
        bytes[18] = 9;
        assert_eq!(codec.decode(&bytes), Err(BgpError::UnknownMessageType(9)));
    }

    #[test]
    fn decode_rejects_nlri_overflow_bitlen() {
        // Hand-craft an UPDATE whose NLRI claims /40 on IPv4.
        let codec = Codec::default();
        let update = UpdateMessage::announce(attrs_v4(&[65001]), vec![p("10.0.0.0/24")]);
        let bytes = codec.encode(&BgpMessage::Update(update)).unwrap().to_vec();
        let mut bad = bytes.clone();
        // Last 4 bytes are the NLRI: len=24 then 3 address bytes.
        let nlri_pos = bad.len() - 4;
        bad[nlri_pos] = 40;
        assert!(matches!(
            codec.decode(&bad),
            Err(BgpError::InvalidNlri { bit_len: 40 })
        ));
    }

    #[test]
    fn announce_without_attrs_is_rejected_on_encode() {
        let codec = Codec::default();
        let update = UpdateMessage {
            withdrawn: vec![],
            attrs: None,
            nlri: vec![p("10.0.0.0/24")],
        };
        assert!(codec.encode(&BgpMessage::Update(update)).is_err());
    }

    #[test]
    fn long_as_path_chunks_and_merges() {
        let codec = Codec::default();
        let long: Vec<u32> = (1..=300).collect();
        let update = UpdateMessage::announce(attrs_v4(&long), vec![p("10.0.0.0/24")]);
        let bytes = codec.encode(&BgpMessage::Update(update.clone())).unwrap();
        let (msg, _) = codec.decode(&bytes).unwrap();
        assert_eq!(msg, BgpMessage::Update(update));
    }

    #[test]
    fn multiple_messages_in_one_buffer() {
        let codec = Codec::default();
        let mut buf = Vec::new();
        buf.extend_from_slice(&codec.encode(&BgpMessage::Keepalive).unwrap());
        let update = UpdateMessage::withdraw(vec![p("10.0.0.0/23")]);
        buf.extend_from_slice(&codec.encode(&BgpMessage::Update(update.clone())).unwrap());
        let (m1, used1) = codec.decode(&buf).unwrap();
        assert_eq!(m1, BgpMessage::Keepalive);
        let (m2, _) = codec.decode(&buf[used1..]).unwrap();
        assert_eq!(m2, BgpMessage::Update(update));
    }
}

//! RFC 4271 wire codec with RFC 6793 (four-octet AS) and RFC 4760
//! (multiprotocol IPv6 NLRI) support.
//!
//! The [`Codec`] is parameterized on the session's four-octet-AS
//! capability: in two-octet mode, AS_PATHs containing 32-bit ASNs are
//! encoded with `AS_TRANS` substitutions plus an `AS4_PATH` attribute,
//! and reconstructed on decode — the same dance real routers perform.
//!
//! UPDATEs are parsed once, by one walk: [`Codec::scan_update`] checks
//! a body whole and returns an [`UpdateView`] that borrows it. The view
//! yields the withdrawn and announced prefixes (classic IPv4, then
//! MP_UNREACH / MP_REACH IPv6) and the announced path's origin and
//! origin-adjacent hop ([`PathEnds`]), reduced from the AS_PATH and
//! AS4_PATH bytes as RFC 6793 §4.2.3 reconciliation would leave them,
//! all without allocating. A live reader stops there; [`Codec::decode`]
//! builds its owned [`UpdateMessage`] from the same walk, so the two
//! accept exactly the same bytes.

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
            let mp_reach = (!nlri_v6.is_empty()).then_some(&nlri_v6[..]);
            self.encode_attrs(attrs, !nlri_v4.is_empty(), mp_reach, &wd_v6, &mut attr_buf)?;
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

    /// Encode the attribute block: NEXT_HOP when `next_hop` (classic
    /// IPv4 NLRI follows), MP_REACH_NLRI carrying `mp_reach` when it is
    /// `Some` (possibly empty, as in a RIB entry), and MP_UNREACH_NLRI
    /// when `wd_v6` is not empty.
    fn encode_attrs(
        &self,
        attrs: &PathAttributes,
        next_hop: bool,
        mp_reach: Option<&[Prefix]>,
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
        if next_hop {
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
        if let Some(nlri_v6) = mp_reach {
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
            IpAddr::V4(_) => self.encode_attrs(attrs, true, None, &[], &mut buf)?,
            IpAddr::V6(_) => self.encode_attrs(attrs, false, Some(&[]), &[], &mut buf)?,
        }
        Ok(buf.to_vec())
    }

    /// Decode a bare path-attribute block (MRT RIB entries). Requires
    /// ORIGIN and AS_PATH; a missing NEXT_HOP falls back to `0.0.0.0`
    /// (some dumps omit it for iBGP-learned entries).
    pub fn decode_path_attributes(&self, bytes: &[u8]) -> Result<PathAttributes, BgpError> {
        // A RIB entry's MP_REACH carries no NLRI; any it has is ignored.
        let attrs = self.scan_attrs(bytes)?;
        let mandatory = attrs.mandatory(Some(IpAddr::V4(Ipv4Addr::UNSPECIFIED)))?;
        Ok(attrs.materialise(mandatory, self.four_octet_as))
    }

    // ------------------------------------------------------------------
    // Decoding
    // ------------------------------------------------------------------

    /// Decode one message from the front of `buf`. Returns the message
    /// and the number of bytes consumed.
    pub fn decode(&self, buf: &[u8]) -> Result<(BgpMessage, usize), BgpError> {
        let (msg_type, body) = split_header(buf)?;
        let msg = match msg_type {
            OPEN_TYPE => BgpMessage::Open(self.decode_open(body)?),
            UPDATE_TYPE => {
                let (view, attrs) = self.walk_update(body)?;
                BgpMessage::Update(view.to_update(&attrs, self.four_octet_as))
            }
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
                        claimed: HEADER_LEN + body.len(),
                        available: HEADER_LEN,
                    });
                }
                BgpMessage::Keepalive
            }
            t => return Err(BgpError::UnknownMessageType(t)),
        };
        Ok((msg, HEADER_LEN + body.len()))
    }

    /// Walk one UPDATE body (the bytes after the header, see
    /// [`split_header`]) in place. Nothing is allocated: the view
    /// borrows `body`, and yields the withdrawn and announced prefixes
    /// and the two hops detection reads of the announced path
    /// ([`UpdateView::path_ends`]) straight from the wire bytes.
    ///
    /// This is the one UPDATE parser: [`Codec::decode`] builds its
    /// [`UpdateMessage`] from this walk, so the two accept exactly the
    /// same bodies and yield the same prefixes and path ends.
    pub fn scan_update<'a>(&self, body: &'a [u8]) -> Result<UpdateView<'a>, BgpError> {
        self.walk_update(body).map(|(view, _)| view)
    }

    /// [`Codec::scan_update`], keeping the checked attributes for a
    /// caller that builds them out.
    #[inline]
    fn walk_update<'a>(
        &self,
        body: &'a [u8],
    ) -> Result<(UpdateView<'a>, ScannedAttrs<'a>), BgpError> {
        let mut cur = body;
        if cur.len() < 2 {
            return Err(BgpError::Truncated("withdrawn length"));
        }
        let wd_len = cur.get_u16() as usize;
        if cur.len() < wd_len {
            return Err(BgpError::Truncated("withdrawn routes"));
        }
        let withdrawn = &cur[..wd_len];
        let withdrawn_v4 = validate_nlri(withdrawn, Afi::Ipv4)?;
        cur = &cur[wd_len..];

        if cur.len() < 2 {
            return Err(BgpError::Truncated("attribute length"));
        }
        let attr_len = cur.get_u16() as usize;
        if cur.len() < attr_len {
            return Err(BgpError::Truncated("path attributes"));
        }
        let attr_bytes = &cur[..attr_len];
        let nlri = &cur[attr_len..];
        let nlri_v4 = validate_nlri(nlri, Afi::Ipv4)?;

        let attrs = self.scan_attrs(attr_bytes)?;
        let withdrawn = Prefixes::new((withdrawn, withdrawn_v4), attrs.mp_unreach);
        let announced = Prefixes::new((nlri, nlri_v4), attrs.mp_reach);
        let ends = if announced.left > 0 {
            let mandatory = attrs.mandatory(None)?;
            Some(reconciled_ends(
                mandatory.as_path.summary,
                attrs.as4_path.map(|p| p.summary),
            ))
        } else {
            None
        };
        let view = UpdateView {
            withdrawn,
            announced,
            ends,
        };
        Ok((view, attrs))
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

    /// Walk a path-attribute block, checking every attribute as
    /// [`Codec::decode`] does and keeping each value as wire bytes or a
    /// `Copy` scalar. A repeated attribute replaces the earlier one.
    fn scan_attrs<'a>(&self, mut cur: &'a [u8]) -> Result<ScannedAttrs<'a>, BgpError> {
        let mut scanned = ScannedAttrs::default();
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
            self.scan_one_attr(type_code, val, &mut scanned)?;
        }
        Ok(scanned)
    }

    fn scan_one_attr<'a>(
        &self,
        type_code: u8,
        val: &'a [u8],
        scanned: &mut ScannedAttrs<'a>,
    ) -> Result<(), BgpError> {
        let malformed = |reason| BgpError::MalformedAttribute { type_code, reason };
        match type_code {
            ATTR_ORIGIN => {
                if val.len() != 1 {
                    return Err(malformed("ORIGIN length != 1"));
                }
                scanned.origin =
                    Some(Origin::from_code(val[0]).ok_or(malformed("unknown ORIGIN code"))?);
            }
            ATTR_AS_PATH => {
                scanned.as_path = Some(ScannedPath::scan(val, self.four_octet_as)?);
            }
            ATTR_AS4_PATH => {
                scanned.as4_path = Some(ScannedPath::scan(val, true)?);
            }
            ATTR_NEXT_HOP => {
                if val.len() != 4 {
                    return Err(malformed("NEXT_HOP length != 4"));
                }
                scanned.next_hop = Some(Ipv4Addr::new(val[0], val[1], val[2], val[3]));
            }
            ATTR_MED => {
                if val.len() != 4 {
                    return Err(malformed("MED length != 4"));
                }
                scanned.med = Some(u32::from_be_bytes([val[0], val[1], val[2], val[3]]));
            }
            ATTR_LOCAL_PREF => {
                if val.len() != 4 {
                    return Err(malformed("LOCAL_PREF length != 4"));
                }
                scanned.local_pref = Some(u32::from_be_bytes([val[0], val[1], val[2], val[3]]));
            }
            ATTR_ATOMIC_AGGREGATE => {
                if !val.is_empty() {
                    return Err(malformed("ATOMIC_AGGREGATE length != 0"));
                }
                scanned.atomic_aggregate = true;
            }
            ATTR_AGGREGATOR => {
                let (asn, rest) = if self.four_octet_as {
                    if val.len() != 8 {
                        return Err(malformed("AGGREGATOR length != 8"));
                    }
                    (
                        Asn(u32::from_be_bytes([val[0], val[1], val[2], val[3]])),
                        &val[4..],
                    )
                } else {
                    if val.len() != 6 {
                        return Err(malformed("AGGREGATOR length != 6"));
                    }
                    (Asn(u16::from_be_bytes([val[0], val[1]]) as u32), &val[2..])
                };
                scanned.aggregator = Some((asn, Ipv4Addr::new(rest[0], rest[1], rest[2], rest[3])));
            }
            ATTR_COMMUNITIES => {
                if !val.len().is_multiple_of(4) {
                    return Err(malformed("COMMUNITIES length not a multiple of 4"));
                }
                scanned.communities = val;
            }
            ATTR_MP_REACH => {
                let mut cur = val;
                if cur.len() < 5 {
                    return Err(malformed("MP_REACH too short"));
                }
                let afi = cur.get_u16();
                let _safi = cur.get_u8();
                let nh_len = cur.get_u8() as usize;
                if cur.len() < nh_len + 1 {
                    return Err(malformed("MP_REACH next-hop truncated"));
                }
                if afi != Afi::Ipv6.iana_code() || nh_len < 16 {
                    return Err(malformed("unsupported MP_REACH AFI or next-hop"));
                }
                let mut nh_bytes = [0u8; 16];
                nh_bytes.copy_from_slice(&cur[..16]);
                let nh = Ipv6Addr::from(nh_bytes);
                cur = &cur[nh_len..];
                let _reserved = cur.get_u8();
                scanned.mp_reach = (cur, validate_nlri(cur, Afi::Ipv6)?);
                scanned.mp_next_hop = Some(nh);
            }
            ATTR_MP_UNREACH => {
                let mut cur = val;
                if cur.len() < 3 {
                    return Err(malformed("MP_UNREACH too short"));
                }
                let afi = cur.get_u16();
                let _safi = cur.get_u8();
                if afi != Afi::Ipv6.iana_code() {
                    return Err(malformed("unsupported MP_UNREACH AFI"));
                }
                scanned.mp_unreach = (cur, validate_nlri(cur, Afi::Ipv6)?);
            }
            _ => {
                // Unknown attribute: tolerated and skipped (optional
                // transitive semantics are out of scope here).
            }
        }
        Ok(())
    }
}

/// One UPDATE body as [`Codec::scan_update`] walked it: checked whole,
/// with its prefixes and attributes still borrowed from the wire.
///
/// Reading it allocates nothing: [`UpdateView::withdrawn`] and
/// [`UpdateView::announced`] decode prefixes on the fly, and
/// [`UpdateView::path_ends`] was reduced from the AS_PATH (and
/// AS4_PATH) bytes during the walk. [`Codec::decode`] builds its owned
/// message from the same walk. The view keeps only
/// what a live reader reads, so it stays small to pass around.
#[derive(Debug, Clone)]
pub struct UpdateView<'a> {
    /// Classic IPv4 withdrawn routes, then MP_UNREACH's IPv6 ones.
    withdrawn: Prefixes<'a>,
    /// Classic IPv4 NLRI, then MP_REACH's IPv6 NLRI.
    announced: Prefixes<'a>,
    /// Present exactly when the UPDATE announces a prefix.
    ends: Option<PathEnds>,
}

impl<'a> UpdateView<'a> {
    /// Withdrawn prefixes: the classic IPv4 ones, then MP_UNREACH's.
    #[inline]
    pub fn withdrawn(&self) -> impl ExactSizeIterator<Item = Prefix> + 'a {
        self.withdrawn.clone()
    }

    /// Announced prefixes: the classic IPv4 ones, then MP_REACH's.
    #[inline]
    pub fn announced(&self) -> impl ExactSizeIterator<Item = Prefix> + 'a {
        self.announced.clone()
    }

    /// The origin and origin-adjacent hop of the announced path, as
    /// [`AsPath::origin`] and [`AsPath::origin_neighbor`] read them off
    /// the path [`Codec::decode`] builds (AS4_PATH reconciled). `None`
    /// when the UPDATE announces nothing.
    #[inline]
    pub fn path_ends(&self) -> Option<PathEnds> {
        self.ends
    }

    /// The owned UPDATE, `attrs` being the walk's own.
    fn to_update(&self, attrs: &ScannedAttrs<'_>, four_octet_as: bool) -> UpdateMessage {
        // The walk found the mandatory attributes exactly when the
        // UPDATE announces, so this lookup cannot fail.
        let attrs = self.ends.and_then(|_| {
            let mandatory = attrs.mandatory(None).ok()?;
            Some(attrs.materialise(mandatory, four_octet_as))
        });
        UpdateMessage {
            withdrawn: self.withdrawn().collect(),
            attrs,
            nlri: self.announced().collect(),
        }
    }
}

/// The two hops of an announced path that detection reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathEnds {
    /// [`AsPath::origin`]: `None` for an empty path and for one whose
    /// last segment is an AS_SET.
    pub origin: Option<Asn>,
    /// [`AsPath::origin_neighbor`]: `None` for a path of fewer than two
    /// ASNs and for any path with an AS_SET.
    pub origin_neighbor: Option<Asn>,
}

/// A path-attribute block as [`Codec::scan_attrs`] checked it.
#[derive(Debug, Clone, Copy, Default)]
struct ScannedAttrs<'a> {
    origin: Option<Origin>,
    as_path: Option<ScannedPath<'a>>,
    as4_path: Option<ScannedPath<'a>>,
    next_hop: Option<Ipv4Addr>,
    med: Option<u32>,
    local_pref: Option<u32>,
    atomic_aggregate: bool,
    aggregator: Option<(Asn, Ipv4Addr)>,
    /// Whole 4-byte communities.
    communities: &'a [u8],
    mp_next_hop: Option<Ipv6Addr>,
    /// MP_REACH's IPv6 NLRI, and how many prefixes it holds.
    mp_reach: (&'a [u8], usize),
    /// MP_UNREACH's IPv6 withdrawn routes, and how many.
    mp_unreach: (&'a [u8], usize),
}

/// What an announcement must carry, checked present.
#[derive(Debug, Clone, Copy)]
struct Mandatory<'a> {
    origin: Origin,
    as_path: ScannedPath<'a>,
    next_hop: IpAddr,
}

impl<'a> ScannedAttrs<'a> {
    /// ORIGIN, AS_PATH and a next hop (`no_next_hop` when the block
    /// carries none; `None` makes that an error).
    fn mandatory(&self, no_next_hop: Option<IpAddr>) -> Result<Mandatory<'a>, BgpError> {
        let origin = self
            .origin
            .ok_or(BgpError::MissingMandatoryAttribute("ORIGIN"))?;
        let as_path = self
            .as_path
            .ok_or(BgpError::MissingMandatoryAttribute("AS_PATH"))?;
        let next_hop = match (self.next_hop, self.mp_next_hop) {
            (Some(v4), _) => IpAddr::V4(v4),
            (None, Some(nh)) => IpAddr::V6(nh),
            (None, None) => no_next_hop.ok_or(BgpError::MissingMandatoryAttribute("NEXT_HOP"))?,
        };
        Ok(Mandatory {
            origin,
            as_path,
            next_hop,
        })
    }

    fn materialise(&self, m: Mandatory<'_>, four_octet_as: bool) -> PathAttributes {
        let as_path = reconcile_as4(
            m.as_path.to_path(four_octet_as),
            self.as4_path.map(|p| p.to_path(true)),
        );
        PathAttributes {
            origin: m.origin,
            as_path,
            next_hop: m.next_hop,
            med: self.med,
            local_pref: self.local_pref,
            atomic_aggregate: self.atomic_aggregate,
            aggregator: self.aggregator,
            communities: self
                .communities
                .chunks_exact(4)
                .map(|c| Community(u32::from_be_bytes([c[0], c[1], c[2], c[3]])))
                .collect(),
        }
    }
}

/// A checked AS_PATH or AS4_PATH value and what the path reduction
/// needs of it, gathered in the same walk.
#[derive(Debug, Clone, Copy)]
struct ScannedPath<'a> {
    bytes: &'a [u8],
    summary: PathSummary,
}

/// An AS path's ASN count and its tail, as its canonical [`AsPath`]
/// (empty segments dropped) would report them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PathSummary {
    /// [`AsPath::asn_count`].
    asns: usize,
    /// Some non-empty segment is an AS_SET.
    has_set: bool,
    /// The last non-empty segment is an AS_SET.
    last_is_set: bool,
    /// The last and second-to-last ASN, segments flattened.
    last: Option<Asn>,
    second_last: Option<Asn>,
}

impl PathSummary {
    fn ends(self) -> PathEnds {
        PathEnds {
            origin: if self.last_is_set { None } else { self.last },
            origin_neighbor: if self.has_set { None } else { self.second_last },
        }
    }
}

impl<'a> ScannedPath<'a> {
    fn scan(bytes: &'a [u8], four_octet: bool) -> Result<Self, BgpError> {
        let mut summary = PathSummary::default();
        for segment in segments(bytes, four_octet) {
            let (set, asns) = segment?;
            let Some(last) = asns.last() else {
                continue;
            };
            summary.asns += asns.len();
            summary.last_is_set = set;
            summary.has_set |= set;
            summary.second_last = match asns.len() {
                1 => summary.last,
                n => Some(asns.get(n - 2)),
            };
            summary.last = Some(last);
        }
        Ok(ScannedPath { bytes, summary })
    }

    fn to_path(self, four_octet: bool) -> AsPath {
        // Every path off the wire is one segment, or nearly: the first
        // goes straight into the path's shared slice, and only a second
        // one starts a Vec. `scan` checked the bytes, so the walk ends
        // only at their end.
        let mut segs = segments(self.bytes, four_octet)
            .map_while(Result::ok)
            .map(|(set, asns)| {
                let asns = asns.iter().collect();
                if set {
                    Segment::Set(asns)
                } else {
                    Segment::Sequence(asns)
                }
            });
        let first = segs.next();
        let more: Vec<Segment> = segs.collect();
        // `from_segments` merges adjacent sequences (chunked on encode)
        // back together.
        AsPath::from_segments(first.into_iter().chain(more))
    }
}

/// RFC 6793 §4.2.3 as [`reconcile_as4`] applies it, on summaries: the
/// ends of the path it would build.
fn reconciled_ends(as_path: PathSummary, as4_path: Option<PathSummary>) -> PathEnds {
    let Some(as4) = as4_path else {
        return as_path.ends();
    };
    match as4.asns.cmp(&as_path.asns) {
        std::cmp::Ordering::Greater => as_path.ends(),
        std::cmp::Ordering::Equal => as4.ends(),
        // AS_PATH's leading hops as one sequence, then AS4_PATH: only
        // AS4_PATH can hold a set, and each end comes from AS4_PATH
        // unless it is too short to have it.
        std::cmp::Ordering::Less => PathEnds {
            origin: if as4.asns == 0 {
                as_path.last
            } else {
                as4.ends().origin
            },
            origin_neighbor: match as4.asns {
                _ if as4.has_set => None,
                0 | 1 => as_path.second_last,
                _ => as4.second_last,
            },
        },
    }
}

/// The ASNs of one AS_PATH segment, still in wire order and width.
#[derive(Debug, Clone, Copy)]
struct SegmentAsns<'a> {
    bytes: &'a [u8],
    width: usize,
}

impl<'a> SegmentAsns<'a> {
    fn len(&self) -> usize {
        self.bytes.len() / self.width
    }

    fn get(&self, i: usize) -> Asn {
        let b = &self.bytes[i * self.width..];
        Asn(if self.width == 4 {
            u32::from_be_bytes([b[0], b[1], b[2], b[3]])
        } else {
            u16::from_be_bytes([b[0], b[1]]) as u32
        })
    }

    fn last(&self) -> Option<Asn> {
        self.len().checked_sub(1).map(|i| self.get(i))
    }

    fn iter(self) -> impl Iterator<Item = Asn> + 'a {
        (0..self.len()).map(move |i| self.get(i))
    }
}

/// Walk AS_PATH segments: `(is AS_SET, ASNs)` each, or the error that
/// ends the walk.
fn segments(
    mut cur: &[u8],
    four_octet: bool,
) -> impl Iterator<Item = Result<(bool, SegmentAsns<'_>), BgpError>> {
    let width = if four_octet { 4 } else { 2 };
    std::iter::from_fn(move || {
        if cur.is_empty() {
            return None;
        }
        let malformed = |reason| {
            Some(Err(BgpError::MalformedAttribute {
                type_code: ATTR_AS_PATH,
                reason,
            }))
        };
        if cur.len() < 2 {
            cur = &[];
            return malformed("segment header truncated");
        }
        let seg_type = cur.get_u8();
        let count = cur.get_u8() as usize;
        if cur.len() < count * width {
            cur = &[];
            return malformed("segment ASNs truncated");
        }
        let bytes = &cur[..count * width];
        cur = &cur[count * width..];
        let set = match seg_type {
            SEG_SET => true,
            SEG_SEQUENCE => false,
            _ => {
                cur = &[];
                return malformed("unknown segment type");
            }
        };
        Some(Ok((set, SegmentAsns { bytes, width })))
    })
}

/// Validate the 19-byte header at the front of `buf` and split off the
/// message's type code and body. The message is
/// `HEADER_LEN + body.len()` bytes long.
pub fn split_header(buf: &[u8]) -> Result<(u8, &[u8]), BgpError> {
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
    Ok((buf[18], &buf[HEADER_LEN..claimed]))
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

/// Split one NLRI prefix off the front of a non-empty run: its bit
/// length and its address bytes. Every NLRI run is read through here.
fn split_prefix<'a>(cur: &mut &'a [u8], afi: Afi) -> Result<(u8, &'a [u8]), BgpError> {
    let Some((&bit_len, rest)) = cur.split_first() else {
        return Err(BgpError::Truncated("NLRI prefix bytes"));
    };
    if bit_len > afi.max_len() {
        return Err(BgpError::InvalidNlri { bit_len });
    }
    let nbytes = (bit_len as usize).div_ceil(8);
    if rest.len() < nbytes {
        return Err(BgpError::Truncated("NLRI prefix bytes"));
    }
    let (addr, tail) = rest.split_at(nbytes);
    *cur = tail;
    Ok((bit_len, addr))
}

/// Check a run of NLRI prefixes for one family, and count them.
fn validate_nlri(mut cur: &[u8], afi: Afi) -> Result<usize, BgpError> {
    let mut count = 0;
    while !cur.is_empty() {
        split_prefix(&mut cur, afi)?;
        count += 1;
    }
    Ok(count)
}

/// The prefixes of an IPv4 and an IPv6 run that [`validate_nlri`]
/// accepted and counted, IPv4 first.
#[derive(Debug, Clone)]
struct Prefixes<'a> {
    v4: &'a [u8],
    v6: &'a [u8],
    left: usize,
}

impl<'a> Prefixes<'a> {
    fn new((v4, v4_count): (&'a [u8], usize), (v6, v6_count): (&'a [u8], usize)) -> Self {
        Prefixes {
            v4,
            v6,
            left: v4_count + v6_count,
        }
    }
}

impl Iterator for Prefixes<'_> {
    type Item = Prefix;

    #[inline]
    fn next(&mut self) -> Option<Prefix> {
        let (cur, afi) = if !self.v4.is_empty() {
            (&mut self.v4, Afi::Ipv4)
        } else if !self.v6.is_empty() {
            (&mut self.v6, Afi::Ipv6)
        } else {
            return None;
        };
        let (bit_len, addr) = split_prefix(cur, afi).ok()?;
        self.left = self.left.saturating_sub(1);
        let mut bytes = [0u8; 16];
        bytes[..addr.len()].copy_from_slice(addr);
        Prefix::from_bits(afi, u128::from_be_bytes(bytes), bit_len).ok()
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Prefixes<'_> {}

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
    fn rib_attribute_block_roundtrips_with_either_next_hop_family() {
        let codec = Codec::four_octet();
        for next_hop in ["192.0.2.1", "2001:db8::1"] {
            let mut attrs = PathAttributes::with_path(
                AsPath::from_sequence([6939u32, 4_200_000_000, 65001]),
                next_hop.parse().unwrap(),
            );
            attrs.med = Some(50);
            attrs.atomic_aggregate = true;
            attrs.aggregator = Some((Asn(4_200_000_000), Ipv4Addr::new(10, 1, 1, 1)));
            attrs.communities = vec![Community::NO_EXPORT];
            let bytes = codec.encode_path_attributes(&attrs).unwrap();
            let decoded = codec.decode_path_attributes(&bytes).unwrap();
            assert_eq!(decoded, attrs, "next hop {next_hop}");
        }
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
        // The walk reads the same two hops off the wire bytes.
        let (_, body) = split_header(&bytes).unwrap();
        assert_eq!(
            codec.scan_update(body).unwrap().path_ends(),
            Some(PathEnds {
                origin: Some(Asn(65001)),
                origin_neighbor: Some(Asn(4_200_000_001)),
            })
        );
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
    fn a_repeated_mp_reach_replaces_the_earlier_one() {
        let mp_reach = |second_octet: u8| {
            let mut v = vec![0x80, ATTR_MP_REACH, 26, 0, 2, 1, 16];
            v.extend_from_slice(&"2001:db8::1".parse::<Ipv6Addr>().unwrap().octets());
            v.extend_from_slice(&[0, 32, 0x20, 0x01, 0x0d, second_octet]);
            v
        };
        let mut attrs = vec![0x40, ATTR_ORIGIN, 1, 0];
        attrs.extend_from_slice(&[0x40, ATTR_AS_PATH, 6, SEG_SEQUENCE, 1, 0, 0, 0, 174]);
        attrs.extend(mp_reach(0xb8));
        attrs.extend(mp_reach(0xb9));
        let mut body = vec![0, 0];
        body.extend_from_slice(&(attrs.len() as u16).to_be_bytes());
        body.extend(attrs);
        body.extend_from_slice(&[24, 10, 0, 0]); // one classic IPv4 prefix
        let mut msg = vec![0xFF; 16];
        msg.extend_from_slice(&((HEADER_LEN + body.len()) as u16).to_be_bytes());
        msg.push(UPDATE_TYPE);
        msg.extend(body);

        let codec = Codec::default();
        let (msg_type, body) = split_header(&msg).unwrap();
        assert_eq!(
            (msg_type, HEADER_LEN + body.len()),
            (UPDATE_TYPE, msg.len())
        );
        let view = codec.scan_update(body).unwrap();
        assert_eq!(
            view.announced().collect::<Vec<_>>(),
            vec![p("10.0.0.0/24"), p("2001:db9::/32")]
        );
        assert_eq!(view.withdrawn().count(), 0);
        assert_eq!(
            view.path_ends(),
            Some(PathEnds {
                origin: Some(Asn(174)),
                origin_neighbor: None
            })
        );
        let (owned, _) = codec.decode(&msg).unwrap();
        let BgpMessage::Update(owned) = owned else {
            panic!("not an UPDATE: {owned:?}");
        };
        assert_eq!(owned.nlri, view.announced().collect::<Vec<_>>());
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

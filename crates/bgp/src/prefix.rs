//! CIDR prefixes and the de-aggregation operations used for mitigation.

use serde::{de, Deserialize, Deserializer, Serialize, Serializer};
use std::cmp::Ordering;
use std::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::str::FromStr;

/// Address family of a [`Prefix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Afi {
    /// IPv4 (AFI 1).
    Ipv4,
    /// IPv6 (AFI 2).
    Ipv6,
}

impl Afi {
    /// Maximum prefix length for this family (32 or 128).
    pub const fn max_len(self) -> u8 {
        match self {
            Afi::Ipv4 => 32,
            Afi::Ipv6 => 128,
        }
    }

    /// IANA address-family identifier as used on the wire (RFC 4760).
    pub const fn iana_code(self) -> u16 {
        match self {
            Afi::Ipv4 => 1,
            Afi::Ipv6 => 2,
        }
    }
}

/// An IP prefix in CIDR notation, IPv4 or IPv6.
///
/// Internally the network address is stored *left-aligned* in a `u128`
/// (the most-significant address bit sits at bit 127 regardless of
/// family), which gives the radix trie and all containment tests a single
/// uniform bit-string view. Host bits are always zero — the type upholds
/// this as an invariant.
///
/// The two mitigation primitives of ARTEMIS live here:
/// [`Prefix::split`] (one level of de-aggregation, e.g. a /23 into two
/// /24s) and [`Prefix::deaggregate`] (to an arbitrary target length).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prefix {
    afi: Afi,
    /// Network bits, left-aligned at bit 127; host bits zero.
    bits: u128,
    len: u8,
}

/// Error produced when constructing or parsing a [`Prefix`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixParseError {
    /// The prefix length exceeds the family maximum.
    LengthOutOfRange {
        /// Offending length.
        len: u8,
        /// Family maximum (32 or 128).
        max: u8,
    },
    /// Bits were set beyond the prefix length (e.g. `10.0.0.1/23`).
    HostBitsSet,
    /// The textual form could not be parsed at all.
    Malformed(String),
}

impl fmt::Display for PrefixParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixParseError::LengthOutOfRange { len, max } => {
                write!(f, "prefix length /{len} out of range (max /{max})")
            }
            PrefixParseError::HostBitsSet => write!(f, "host bits set below the prefix length"),
            PrefixParseError::Malformed(s) => write!(f, "malformed prefix: {s:?}"),
        }
    }
}

impl std::error::Error for PrefixParseError {}

/// Mask with the top `len` bits set (left-aligned in a u128).
fn mask(len: u8) -> u128 {
    if len == 0 {
        0
    } else if len >= 128 {
        u128::MAX
    } else {
        !(u128::MAX >> len)
    }
}

impl Prefix {
    /// Build an IPv4 prefix, silently zeroing any host bits.
    pub fn v4(addr: Ipv4Addr, len: u8) -> Result<Self, PrefixParseError> {
        if len > 32 {
            return Err(PrefixParseError::LengthOutOfRange { len, max: 32 });
        }
        let bits = (u32::from(addr) as u128) << 96;
        Ok(Prefix {
            afi: Afi::Ipv4,
            bits: bits & mask(len),
            len,
        })
    }

    /// Build an IPv6 prefix, silently zeroing any host bits.
    pub fn v6(addr: Ipv6Addr, len: u8) -> Result<Self, PrefixParseError> {
        if len > 128 {
            return Err(PrefixParseError::LengthOutOfRange { len, max: 128 });
        }
        let bits = u128::from(addr);
        Ok(Prefix {
            afi: Afi::Ipv6,
            bits: bits & mask(len),
            len,
        })
    }

    /// Build from any [`IpAddr`], zeroing host bits.
    pub fn new(addr: IpAddr, len: u8) -> Result<Self, PrefixParseError> {
        match addr {
            IpAddr::V4(a) => Self::v4(a, len),
            IpAddr::V6(a) => Self::v6(a, len),
        }
    }

    /// Construct directly from left-aligned bits (host bits are masked).
    pub fn from_bits(afi: Afi, bits: u128, len: u8) -> Result<Self, PrefixParseError> {
        if len > afi.max_len() {
            return Err(PrefixParseError::LengthOutOfRange {
                len,
                max: afi.max_len(),
            });
        }
        // Masking to `len` bits also guarantees an IPv4 prefix can never
        // carry data outside the top 32 bits (len <= 32 is checked above).
        Ok(Prefix {
            afi,
            bits: bits & mask(len),
            len,
        })
    }

    /// The default IPv4 route `0.0.0.0/0`.
    pub fn default_v4() -> Self {
        Prefix {
            afi: Afi::Ipv4,
            bits: 0,
            len: 0,
        }
    }

    /// The default IPv6 route `::/0`.
    pub fn default_v6() -> Self {
        Prefix {
            afi: Afi::Ipv6,
            bits: 0,
            len: 0,
        }
    }

    /// Address family.
    pub const fn afi(self) -> Afi {
        self.afi
    }

    /// Prefix length.
    // `len` here is CIDR mask length, not a collection size — there is
    // no meaningful `is_empty` counterpart.
    #[allow(clippy::len_without_is_empty)]
    pub const fn len(self) -> u8 {
        self.len
    }

    /// Left-aligned network bits.
    pub const fn bits(self) -> u128 {
        self.bits
    }

    /// Network address as an [`IpAddr`].
    pub fn addr(self) -> IpAddr {
        match self.afi {
            Afi::Ipv4 => IpAddr::V4(Ipv4Addr::from((self.bits >> 96) as u32)),
            Afi::Ipv6 => IpAddr::V6(Ipv6Addr::from(self.bits)),
        }
    }

    /// The `i`-th bit (0 = most significant). Panics if `i >= len`.
    pub fn bit(self, i: u8) -> bool {
        assert!(i < self.len, "bit index {i} out of range for /{}", self.len);
        (self.bits >> (127 - i)) & 1 == 1
    }

    /// Number of host addresses covered (saturating; 2^(max_len - len)).
    pub fn address_count(self) -> u128 {
        let host_bits = (self.afi.max_len() - self.len) as u32;
        if host_bits >= 128 {
            u128::MAX
        } else {
            1u128 << host_bits
        }
    }

    /// True if `self` covers `other` (same family, `self` is equal or
    /// less specific, and the network bits agree on `self.len` bits).
    pub fn contains(self, other: Prefix) -> bool {
        self.afi == other.afi
            && self.len <= other.len
            && (self.bits ^ other.bits) & mask(self.len) == 0
    }

    /// True if the two prefixes share any address space.
    pub fn overlaps(self, other: Prefix) -> bool {
        self.contains(other) || other.contains(self)
    }

    /// The immediate parent (one bit shorter), or `None` for /0.
    pub fn supernet(self) -> Option<Prefix> {
        if self.len == 0 {
            return None;
        }
        let len = self.len - 1;
        Some(Prefix {
            afi: self.afi,
            bits: self.bits & mask(len),
            len,
        })
    }

    /// Split into the two equal halves one bit longer — the elementary
    /// de-aggregation step of ARTEMIS (a hijacked /23 becomes two /24s).
    /// Returns `None` when already at the family maximum length.
    pub fn split(self) -> Option<(Prefix, Prefix)> {
        if self.len >= self.afi.max_len() {
            return None;
        }
        let len = self.len + 1;
        let lo = Prefix {
            afi: self.afi,
            bits: self.bits,
            len,
        };
        let hi = Prefix {
            afi: self.afi,
            bits: self.bits | (1u128 << (128 - len as u32)),
            len,
        };
        Some((lo, hi))
    }

    /// De-aggregate into all sub-prefixes of exactly `target_len`.
    ///
    /// Returns an empty vec when `target_len < self.len` or exceeds the
    /// family maximum; returns `[self]` when `target_len == self.len`.
    /// The result is ordered by address and covers exactly the same
    /// address space as `self`.
    pub fn deaggregate(self, target_len: u8) -> Vec<Prefix> {
        if target_len < self.len || target_len > self.afi.max_len() {
            return Vec::new();
        }
        let extra = (target_len - self.len) as u32;
        // Cap the fan-out so a caller can't accidentally materialize 2^64
        // prefixes; mitigation never needs more than a few thousand.
        if extra > 16 {
            return Vec::new();
        }
        let count = 1u128 << extra;
        let step = 1u128 << (128 - target_len as u32);
        (0..count)
            .map(|i| Prefix {
                afi: self.afi,
                bits: self.bits | (i * step),
                len: target_len,
            })
            .collect()
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr(), self.len)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl Ord for Prefix {
    fn cmp(&self, other: &Self) -> Ordering {
        self.afi
            .cmp(&other.afi)
            .then(self.bits.cmp(&other.bits))
            .then(self.len.cmp(&other.len))
    }
}

impl PartialOrd for Prefix {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl FromStr for Prefix {
    type Err = PrefixParseError;

    /// Parse strict CIDR text such as `10.0.0.0/23` or `2001:db8::/32`.
    /// Host bits below the mask are rejected ([`PrefixParseError::HostBitsSet`]).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| PrefixParseError::Malformed(s.to_string()))?;
        let addr: IpAddr = addr
            .parse()
            .map_err(|_| PrefixParseError::Malformed(s.to_string()))?;
        let len: u8 = len
            .parse()
            .map_err(|_| PrefixParseError::Malformed(s.to_string()))?;
        let prefix = Prefix::new(addr, len)?;
        // `new` zeroes the host bits: a different address had some set.
        if prefix.addr() != addr {
            return Err(PrefixParseError::HostBitsSet);
        }
        Ok(prefix)
    }
}

impl Serialize for Prefix {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_str(self)
    }
}

impl<'de> Deserialize<'de> for Prefix {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_str(|s| Prefix::from_str(s).map_err(de::Error::custom))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_roundtrip_v4() {
        let pfx = p("10.0.0.0/23");
        assert_eq!(pfx.to_string(), "10.0.0.0/23");
        assert_eq!(pfx.len(), 23);
        assert_eq!(pfx.afi(), Afi::Ipv4);
    }

    #[test]
    fn parse_and_display_roundtrip_v6() {
        let pfx = p("2001:db8::/32");
        assert_eq!(pfx.to_string(), "2001:db8::/32");
        assert_eq!(pfx.afi(), Afi::Ipv6);
    }

    #[test]
    fn strict_parse_rejects_host_bits() {
        assert_eq!(
            "10.0.0.1/23".parse::<Prefix>(),
            Err(PrefixParseError::HostBitsSet)
        );
        assert_eq!(
            "2001:db8::1/64".parse::<Prefix>(),
            Err(PrefixParseError::HostBitsSet)
        );
    }

    #[test]
    fn parse_rejects_bad_lengths() {
        assert!(matches!(
            "10.0.0.0/33".parse::<Prefix>(),
            Err(PrefixParseError::LengthOutOfRange { len: 33, max: 32 })
        ));
        assert!(matches!(
            "::/129".parse::<Prefix>(),
            Err(PrefixParseError::LengthOutOfRange { len: 129, max: 128 })
        ));
        assert!("10.0.0.0".parse::<Prefix>().is_err());
        assert!("banana/8".parse::<Prefix>().is_err());
        assert!("10.0.0.0/x".parse::<Prefix>().is_err());
    }

    #[test]
    fn containment_basics() {
        let p23 = p("10.0.0.0/23");
        let p24a = p("10.0.0.0/24");
        let p24b = p("10.0.1.0/24");
        let other = p("10.0.2.0/24");
        assert!(p23.contains(p24a));
        assert!(p23.contains(p24b));
        assert!(!p23.contains(other));
        assert!(!p24a.contains(p23));
        assert!(p23.contains(p23));
    }

    #[test]
    fn containment_is_family_scoped() {
        let v4 = p("10.0.0.0/8");
        let v6 = p("a00::/8"); // same leading bits, different family
        assert!(!v4.contains(v6));
        assert!(!v6.contains(v4));
    }

    #[test]
    fn default_routes() {
        assert!(Prefix::default_v4().contains(p("1.2.3.0/24")));
        assert!(Prefix::default_v6().contains(p("2001:db8::/32")));
        assert!(!Prefix::default_v4().contains(p("2001:db8::/32")));
    }

    #[test]
    fn split_is_the_paper_example() {
        // The exact mitigation example from Section 3 of the paper:
        // 10.0.0.0/23 splits into 10.0.0.0/24 and 10.0.1.0/24.
        let (lo, hi) = p("10.0.0.0/23").split().unwrap();
        assert_eq!(lo, p("10.0.0.0/24"));
        assert_eq!(hi, p("10.0.1.0/24"));
    }

    #[test]
    fn split_at_max_len_returns_none() {
        assert!(p("10.0.0.0/32").split().is_none());
        assert!(p("2001:db8::/128").split().is_none());
    }

    #[test]
    fn split_halves_partition_parent() {
        let parent = p("172.16.4.0/22");
        let (lo, hi) = parent.split().unwrap();
        assert!(parent.contains(lo) && parent.contains(hi));
        assert!(!lo.overlaps(hi));
        assert_eq!(
            lo.address_count() + hi.address_count(),
            parent.address_count()
        );
    }

    #[test]
    fn deaggregate_to_target() {
        let subs = p("10.0.0.0/22").deaggregate(24);
        assert_eq!(
            subs,
            vec![
                p("10.0.0.0/24"),
                p("10.0.1.0/24"),
                p("10.0.2.0/24"),
                p("10.0.3.0/24"),
            ]
        );
    }

    #[test]
    fn deaggregate_degenerate_cases() {
        assert_eq!(p("10.0.0.0/24").deaggregate(24), vec![p("10.0.0.0/24")]);
        assert!(p("10.0.0.0/24").deaggregate(23).is_empty());
        assert!(p("10.0.0.0/24").deaggregate(33).is_empty());
        // Fan-out cap: /8 -> /25 would be 2^17 prefixes.
        assert!(p("10.0.0.0/8").deaggregate(25).is_empty());
    }

    #[test]
    fn supernet_and_sibling() {
        let pfx = p("10.0.1.0/24");
        assert_eq!(pfx.supernet().unwrap(), p("10.0.0.0/23"));
        // The sibling is the parent's other half.
        let (sibling, itself) = pfx.supernet().unwrap().split().unwrap();
        assert_eq!((sibling, itself), (p("10.0.0.0/24"), pfx));
        assert!(Prefix::default_v4().supernet().is_none());
    }

    #[test]
    fn address_count() {
        assert_eq!(p("10.0.0.0/24").address_count(), 256);
        assert_eq!(p("10.0.0.0/31").address_count(), 2);
        assert_eq!(p("0.0.0.0/0").address_count(), 1u128 << 32);
    }

    #[test]
    fn bit_indexing() {
        let pfx = p("128.0.0.0/1");
        assert!(pfx.bit(0));
        let pfx = p("64.0.0.0/2");
        assert!(!pfx.bit(0));
        assert!(pfx.bit(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_out_of_range_panics() {
        p("10.0.0.0/8").bit(8);
    }

    #[test]
    fn ordering_is_total_and_deterministic() {
        let mut v = vec![p("10.0.1.0/24"), p("10.0.0.0/23"), p("10.0.0.0/24")];
        v.sort();
        assert_eq!(
            v,
            vec![p("10.0.0.0/23"), p("10.0.0.0/24"), p("10.0.1.0/24")]
        );
    }

    #[test]
    fn serde_string_form() {
        let pfx = p("203.0.113.0/24");
        let json = serde_json_str(&pfx);
        assert_eq!(json, "\"203.0.113.0/24\"");
    }

    // Minimal JSON string serializer shim (serde_json is not a dependency
    // of this crate; Display-based serialization is what we assert).
    fn serde_json_str(p: &Prefix) -> String {
        format!("{:?}", p.to_string()).replace('\'', "\"")
    }

    #[test]
    fn from_bits_validates() {
        // Host bits (here bit 95, below the /32 network part) are masked.
        let masked = Prefix::from_bits(Afi::Ipv4, 1u128 << 95, 32).unwrap();
        assert_eq!(masked, p("0.0.0.0/32"));
        assert!(Prefix::from_bits(Afi::Ipv4, 0, 33).is_err());
        let ok = Prefix::from_bits(Afi::Ipv4, (10u128) << 120, 8).unwrap();
        assert_eq!(ok, p("10.0.0.0/8"));
    }
}

//! Autonomous System Numbers (RFC 1930, RFC 6793).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// A 32-bit Autonomous System Number.
///
/// Two-octet ASNs (RFC 1930) embed naturally in the low 16 bits; RFC 6793
/// extended the number space to 32 bits. `Asn` always stores the full
/// 32-bit value and offers classification helpers used by the ARTEMIS
/// detector to spot announcements that can never be legitimate (private,
/// reserved or documentation ASNs appearing as origin on the public
/// Internet).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Asn(pub u32);

/// AS_TRANS (RFC 6793): the two-octet stand-in used in OPEN messages and
/// AS_PATHs when a four-octet ASN must be represented to a two-octet peer.
pub const AS_TRANS: Asn = Asn(23456);

impl Asn {
    /// The reserved ASN 0 (RFC 7607) — must never appear in routing.
    pub const ZERO: Asn = Asn(0);

    /// Construct from a raw u32.
    pub const fn new(value: u32) -> Self {
        Asn(value)
    }

    /// Raw numeric value.
    pub const fn value(self) -> u32 {
        self.0
    }

    /// True if the ASN fits in two octets.
    pub const fn is_two_octet(self) -> bool {
        self.0 <= u16::MAX as u32
    }

    /// True for the private-use ranges 64512–65534 (RFC 6996) and
    /// 4200000000–4294967294 (RFC 6996).
    pub const fn is_private(self) -> bool {
        (self.0 >= 64_512 && self.0 <= 65_534)
            || (self.0 >= 4_200_000_000 && self.0 <= 4_294_967_294)
    }

    /// True for ASNs reserved for documentation: 64496–64511 and
    /// 65536–65551 (RFC 5398).
    pub const fn is_documentation(self) -> bool {
        (self.0 >= 64_496 && self.0 <= 64_511) || (self.0 >= 65_536 && self.0 <= 65_551)
    }

    /// True for values that must never be routed: 0 (RFC 7607),
    /// 65535 (RFC 7300) and 4294967295 (RFC 7300).
    pub const fn is_reserved(self) -> bool {
        self.0 == 0 || self.0 == 65_535 || self.0 == u32::MAX
    }

    /// True if this ASN is plausible as a public origin — i.e. none of
    /// private / documentation / reserved / AS_TRANS.
    pub const fn is_routable(self) -> bool {
        !(self.is_private() || self.is_documentation() || self.is_reserved())
            && self.0 != AS_TRANS.0
    }
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl fmt::Debug for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl From<u32> for Asn {
    fn from(value: u32) -> Self {
        Asn(value)
    }
}

impl From<u16> for Asn {
    fn from(value: u16) -> Self {
        Asn(value as u32)
    }
}

impl From<Asn> for u32 {
    fn from(asn: Asn) -> u32 {
        asn.0
    }
}

/// Error returned when parsing an [`Asn`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsnParseError(String);

impl fmt::Display for AsnParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid ASN: {}", self.0)
    }
}

impl std::error::Error for AsnParseError {}

impl FromStr for Asn {
    type Err = AsnParseError;

    /// Accepts `64512`, `AS64512` (case-insensitive) and asdot `1.0`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let body = s
            .strip_prefix("AS")
            .or_else(|| s.strip_prefix("as"))
            .or_else(|| s.strip_prefix("As"))
            .or_else(|| s.strip_prefix("aS"))
            .unwrap_or(s);
        if let Some((hi, lo)) = body.split_once('.') {
            let hi: u32 = hi.parse().map_err(|_| AsnParseError(s.to_string()))?;
            let lo: u32 = lo.parse().map_err(|_| AsnParseError(s.to_string()))?;
            if hi > u16::MAX as u32 || lo > u16::MAX as u32 {
                return Err(AsnParseError(s.to_string()));
            }
            Ok(Asn((hi << 16) | lo))
        } else {
            body.parse::<u32>()
                .map(Asn)
                .map_err(|_| AsnParseError(s.to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_debug_use_as_prefix() {
        assert_eq!(Asn(65000).to_string(), "AS65000");
        assert_eq!(format!("{:?}", Asn(1)), "AS1");
    }

    #[test]
    fn two_octet_boundary() {
        assert!(Asn(65535).is_two_octet());
        assert!(!Asn(65536).is_two_octet());
    }

    #[test]
    fn private_ranges() {
        assert!(!Asn(64511).is_private());
        assert!(Asn(64512).is_private());
        assert!(Asn(65534).is_private());
        assert!(!Asn(65535).is_private());
        assert!(Asn(4_200_000_000).is_private());
        assert!(Asn(4_294_967_294).is_private());
        assert!(!Asn(u32::MAX).is_private());
    }

    #[test]
    fn documentation_ranges() {
        assert!(Asn(64496).is_documentation());
        assert!(Asn(64511).is_documentation());
        assert!(Asn(65536).is_documentation());
        assert!(Asn(65551).is_documentation());
        assert!(!Asn(65552).is_documentation());
    }

    #[test]
    fn reserved_values() {
        assert!(Asn::ZERO.is_reserved());
        assert!(Asn(65535).is_reserved());
        assert!(Asn(u32::MAX).is_reserved());
        assert!(!Asn(1).is_reserved());
    }

    #[test]
    fn routability() {
        assert!(Asn(3333).is_routable());
        assert!(!Asn(64512).is_routable());
        assert!(!AS_TRANS.is_routable());
        assert!(!Asn::ZERO.is_routable());
    }

    #[test]
    fn parse_plain_and_prefixed() {
        assert_eq!("64512".parse::<Asn>().unwrap(), Asn(64512));
        assert_eq!("AS3333".parse::<Asn>().unwrap(), Asn(3333));
        assert_eq!("as1".parse::<Asn>().unwrap(), Asn(1));
    }

    #[test]
    fn parse_asdot() {
        assert_eq!("1.0".parse::<Asn>().unwrap(), Asn(65536));
        assert_eq!("AS5.20".parse::<Asn>().unwrap(), Asn(327700));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<Asn>().is_err());
        assert!("AS".parse::<Asn>().is_err());
        assert!("-5".parse::<Asn>().is_err());
        assert!("1.65536".parse::<Asn>().is_err());
        assert!("70000.1".parse::<Asn>().is_err());
        assert!("4294967296".parse::<Asn>().is_err());
    }

    #[test]
    fn ordering_and_conversion() {
        assert!(Asn(1) < Asn(2));
        assert_eq!(u32::from(Asn(7)), 7);
        assert_eq!(Asn::from(7u16), Asn(7));
    }
}

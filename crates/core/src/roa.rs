//! RPKI Route Origin Authorization validation (RFC 6483/6811) — a
//! documented extension.
//!
//! The paper notes hijack *prevention* "is not always possible"; RPKI
//! is the deployed prevention mechanism, and the ARTEMIS follow-up
//! work positions detection as complementary to it. This module gives
//! the detector an optional ROA table so alerts can be annotated with
//! RPKI validity (an `Invalid` announcement is a hijack with very high
//! confidence; `NotFound` keeps the config-based logic authoritative).

use artemis_bgp::{Asn, FlatTrie, Prefix};
use serde::{Deserialize, Serialize};

/// One Route Origin Authorization: `asn` may originate `prefix` and
/// any more-specific up to `max_length`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Roa {
    /// Authorized prefix.
    pub prefix: Prefix,
    /// Authorized origin AS.
    pub asn: Asn,
    /// Longest authorized more-specific (RFC 6482 maxLength).
    pub max_length: u8,
}

/// RFC 6811 validation outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoaValidity {
    /// A covering ROA authorizes this exact (prefix, origin) pair.
    Valid,
    /// Covering ROAs exist but none authorizes the pair.
    Invalid,
    /// No covering ROA.
    NotFound,
}

/// A validated ROA table.
#[derive(Debug, Clone, Default)]
pub struct RoaTable {
    // Multiple ROAs can share a prefix (different origins/maxLength).
    by_prefix: FlatTrie<Vec<Roa>>,
    count: usize,
}

impl RoaTable {
    /// Empty table.
    pub fn new() -> Self {
        RoaTable::default()
    }

    /// Number of ROAs.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no ROA is registered.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Add a ROA, returning whether it was accepted.
    ///
    /// RFC 9582 (§4.8.1) requires `prefixLength <= maxLength <=
    /// family max`; a ROA violating either bound is corrupt and MUST
    /// be considered unusable. Such ROAs are **rejected** (`false`,
    /// table unchanged) rather than repaired: the previous behaviour
    /// of clamping `max_length` *up* to the prefix length silently
    /// converted an erroneous, unusable ROA into one that validates
    /// the exact prefix — granting an authorization the signer never
    /// expressed. (RFC 9582 treats an *absent* maxLength as the prefix
    /// length; callers model that case by passing `prefix.len()`.)
    #[must_use = "a ROA with an out-of-range maxLength is ignored; check acceptance"]
    pub fn add(&mut self, prefix: Prefix, asn: Asn, max_length: u8) -> bool {
        if max_length < prefix.len() || max_length > prefix.afi().max_len() {
            return false;
        }
        let roa = Roa {
            prefix,
            asn,
            max_length,
        };
        match self.by_prefix.get_mut(prefix) {
            Some(list) => list.push(roa),
            None => {
                self.by_prefix.insert(prefix, vec![roa]);
            }
        }
        self.count += 1;
        true
    }

    /// RFC 6811 origin validation of an announcement.
    pub fn validate(&self, prefix: Prefix, origin: Asn) -> RoaValidity {
        let mut validity = RoaValidity::NotFound;
        self.by_prefix.visit_covering(prefix, |_, roas| {
            if roas
                .iter()
                .any(|roa| roa.asn == origin && prefix.len() <= roa.max_length)
            {
                validity = RoaValidity::Valid;
            } else if validity == RoaValidity::NotFound {
                validity = RoaValidity::Invalid;
            }
        });
        validity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    fn pfx(s: &str) -> Prefix {
        Prefix::from_str(s).unwrap()
    }

    fn table() -> RoaTable {
        let mut t = RoaTable::new();
        assert!(t.add(pfx("10.0.0.0/23"), Asn(65001), 24));
        assert!(t.add(pfx("192.0.2.0/24"), Asn(65001), 24));
        t
    }

    #[test]
    fn exact_valid() {
        let t = table();
        assert_eq!(
            t.validate(pfx("10.0.0.0/23"), Asn(65001)),
            RoaValidity::Valid
        );
    }

    #[test]
    fn more_specific_within_maxlength_is_valid() {
        let t = table();
        assert_eq!(
            t.validate(pfx("10.0.1.0/24"), Asn(65001)),
            RoaValidity::Valid
        );
    }

    #[test]
    fn more_specific_beyond_maxlength_is_invalid() {
        let t = table();
        assert_eq!(
            t.validate(pfx("10.0.0.0/25"), Asn(65001)),
            RoaValidity::Invalid,
            "even the right origin may not announce past maxLength"
        );
    }

    #[test]
    fn wrong_origin_is_invalid() {
        let t = table();
        assert_eq!(
            t.validate(pfx("10.0.0.0/23"), Asn(666)),
            RoaValidity::Invalid
        );
        assert_eq!(
            t.validate(pfx("10.0.0.0/24"), Asn(666)),
            RoaValidity::Invalid
        );
    }

    #[test]
    fn uncovered_space_is_not_found() {
        let t = table();
        assert_eq!(
            t.validate(pfx("8.8.8.0/24"), Asn(15169)),
            RoaValidity::NotFound
        );
        // Less-specific than any ROA: not covered either.
        assert_eq!(
            t.validate(pfx("10.0.0.0/16"), Asn(65001)),
            RoaValidity::NotFound
        );
    }

    #[test]
    fn multiple_roas_any_match_validates() {
        let mut t = table();
        assert!(t.add(pfx("10.0.0.0/23"), Asn(65002), 23)); // anycast partner
        assert_eq!(
            t.validate(pfx("10.0.0.0/23"), Asn(65002)),
            RoaValidity::Valid
        );
        // …but the partner's authorization stops at /23.
        assert_eq!(
            t.validate(pfx("10.0.0.0/24"), Asn(65002)),
            RoaValidity::Invalid
        );
        // The primary's /24 authorization still applies.
        assert_eq!(
            t.validate(pfx("10.0.0.0/24"), Asn(65001)),
            RoaValidity::Valid
        );
    }

    #[test]
    fn maxlength_below_prefix_len_is_rejected() {
        // Regression: a ROA whose maxLength is shorter than its prefix
        // (unusable per RFC 9582) used to be clamped *up*, granting a
        // validation for the exact prefix that the signer never
        // authorized. It must be ignored instead.
        let mut t = RoaTable::new();
        assert!(!t.add(pfx("10.0.0.0/24"), Asn(1), 8)); // nonsense maxLength
        assert!(!t.add(pfx("10.0.0.0/24"), Asn(1), 23)); // off by one
        assert_eq!(
            t.validate(pfx("10.0.0.0/24"), Asn(1)),
            RoaValidity::NotFound,
            "a rejected ROA must not grant any authorization"
        );
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
    }

    #[test]
    fn maxlength_boundaries() {
        let mut t = RoaTable::new();
        // maxLength == prefix length: the tightest valid ROA.
        assert!(t.add(pfx("10.0.0.0/24"), Asn(1), 24));
        assert_eq!(t.validate(pfx("10.0.0.0/24"), Asn(1)), RoaValidity::Valid);
        // maxLength == family max: still valid.
        assert!(t.add(pfx("192.0.2.0/24"), Asn(1), 32));
        assert_eq!(
            t.validate(pfx("192.0.2.128/25"), Asn(1)),
            RoaValidity::Valid
        );
        // maxLength beyond the family max is corrupt (RFC 9582: it
        // must not exceed the address size) and rejected.
        assert!(!t.add(pfx("10.1.0.0/24"), Asn(1), 33));
        assert!(!t.add(pfx("2001:db8::/48"), Asn(1), 129));
        // IPv6 at its family max is fine.
        assert!(t.add(pfx("2001:db8::/48"), Asn(1), 128));
        assert_eq!(t.len(), 3);
    }
}

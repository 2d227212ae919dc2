//! AS_PATH attribute: segments, origin extraction, prepending, loops.

use crate::Asn;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter;
use std::sync::Arc;

/// One AS_PATH segment (RFC 4271 §4.3).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Segment {
    /// AS_SEQUENCE: ordered list of traversed ASes.
    Sequence(Vec<Asn>),
    /// AS_SET: unordered set produced by aggregation.
    Set(Vec<Asn>),
}

impl Segment {
    /// Path-length contribution per the decision process: a sequence
    /// counts every ASN, a set counts as one hop (RFC 4271 §9.1.2.2 a).
    pub fn decision_len(&self) -> usize {
        match self {
            Segment::Sequence(asns) => asns.len(),
            Segment::Set(asns) => usize::from(!asns.is_empty()),
        }
    }

    /// All ASNs mentioned in the segment.
    pub fn asns(&self) -> &[Asn] {
        match self {
            Segment::Sequence(a) | Segment::Set(a) => a,
        }
    }
}

/// A full AS_PATH: a list of segments, leftmost = most recent hop.
///
/// The empty path is valid (an iBGP-originated route before any eBGP
/// hop). The *origin* of the path — the AS that first announced the
/// route, and the value ARTEMIS validates against the operator's
/// configuration — is the rightmost ASN of the final `Sequence` segment.
///
/// A path is immutable once built and its segments sit behind one
/// shared allocation, so `clone` is a reference-count bump: the N
/// events of an N-NLRI UPDATE carry the same path without copying it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct AsPath {
    segments: Arc<[Segment]>,
}

impl AsPath {
    /// The empty path.
    pub fn empty() -> Self {
        AsPath::default()
    }

    /// Build a pure-sequence path from ASNs ordered neighbor→origin.
    pub fn from_sequence<I, A>(asns: I) -> Self
    where
        I: IntoIterator<Item = A>,
        A: Into<Asn>,
    {
        let seq: Vec<Asn> = asns.into_iter().map(Into::into).collect();
        if seq.is_empty() {
            AsPath::empty()
        } else {
            AsPath {
                segments: Arc::from([Segment::Sequence(seq)]),
            }
        }
    }

    /// Build from explicit segments. The path is canonicalized: empty
    /// segments are dropped and adjacent `Sequence` segments are merged
    /// (the wire format chunks long sequences at 255 ASNs, so adjacent
    /// sequences carry no information).
    pub fn from_segments<I: IntoIterator<Item = Segment>>(segments: I) -> Self {
        let mut rest = segments.into_iter().filter(|s| !s.asns().is_empty());
        let Some(first) = rest.next() else {
            return AsPath::empty();
        };
        let Some(second) = rest.next() else {
            // One segment is already canonical, and is what nearly every
            // path off the wire looks like: the shared slice is the only
            // allocation, no staging `Vec`.
            return AsPath {
                segments: Arc::from([first]),
            };
        };
        let mut merged = vec![first];
        for seg in iter::once(second).chain(rest) {
            match (merged.last_mut(), seg) {
                (Some(Segment::Sequence(tail)), Segment::Sequence(more)) => tail.extend(more),
                (_, seg) => merged.push(seg),
            }
        }
        AsPath {
            segments: merged.into(),
        }
    }

    /// Segments, leftmost (most recent) first.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// True when no segment is present.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Path length as used by the BGP decision process.
    pub fn decision_len(&self) -> usize {
        self.segments.iter().map(Segment::decision_len).sum()
    }

    /// Total number of ASNs mentioned (prepends counted).
    pub fn asn_count(&self) -> usize {
        self.segments.iter().map(|s| s.asns().len()).sum()
    }

    /// The origin AS: rightmost ASN of the last segment, provided that
    /// segment is a `Sequence`. Aggregated routes ending in an AS_SET
    /// have no well-defined origin and yield `None` — ARTEMIS treats
    /// those as suspicious rather than matching them against the config.
    pub fn origin(&self) -> Option<Asn> {
        match self.segments.last()? {
            Segment::Sequence(asns) => asns.last().copied(),
            Segment::Set(_) => None,
        }
    }

    /// The neighbor AS: leftmost ASN of the first segment if it is a
    /// `Sequence`. This is the AS the observing router heard the route
    /// from, used for Type-1 (fake first-hop) detection.
    pub fn neighbor(&self) -> Option<Asn> {
        match self.segments.first()? {
            Segment::Sequence(asns) => asns.first().copied(),
            Segment::Set(_) => None,
        }
    }

    /// The AS adjacent to the origin (second-to-last ASN), if any —
    /// used for Type-1 hijack classification at the origin end.
    pub fn origin_neighbor(&self) -> Option<Asn> {
        if self.segments.iter().any(|s| matches!(s, Segment::Set(_))) {
            return None;
        }
        self.segments
            .iter()
            .rev()
            .flat_map(|s| s.asns().iter().rev())
            .nth(1)
            .copied()
    }

    /// Prepend `asn` once at the front (what a router does on eBGP
    /// export). Merges into an existing front sequence.
    pub fn prepend(&self, asn: Asn) -> AsPath {
        self.prepend_n(asn, 1)
    }

    /// Prepend `asn` `n` times (traffic-engineering style prepending).
    pub fn prepend_n(&self, asn: Asn, n: usize) -> AsPath {
        if n == 0 {
            return self.clone();
        }
        // Both arms chain exact-size iterators, so `collect` sizes the
        // shared slice once and fills it in place.
        let segments = match self.segments.split_first() {
            Some((Segment::Sequence(seq), rest)) => {
                let mut front = Vec::with_capacity(n + seq.len());
                front.resize(n, asn);
                front.extend_from_slice(seq);
                iter::once(Segment::Sequence(front))
                    .chain(rest.iter().cloned())
                    .collect()
            }
            _ => iter::once(Segment::Sequence(vec![asn; n]))
                .chain(self.segments.iter().cloned())
                .collect(),
        };
        AsPath { segments }
    }

    /// True if `asn` appears anywhere in the path — the RFC 4271 §9.1.2
    /// loop-prevention test a router applies before accepting a route.
    pub fn contains(&self, asn: Asn) -> bool {
        self.segments.iter().any(|s| s.asns().contains(&asn))
    }

    /// Whether any ASN appears in two different positions of the
    /// *sequence* portion (a routing loop indicator; prepending does not
    /// count because repeats are adjacent).
    pub fn has_nonadjacent_repeat(&self) -> bool {
        let mut flat: Vec<Asn> = Vec::new();
        for seg in self.segments.iter() {
            if let Segment::Sequence(a) = seg {
                flat.extend_from_slice(a);
            }
        }
        // Collapse adjacent repeats (prepending), then look for dups.
        flat.dedup();
        let mut seen = std::collections::HashSet::new();
        flat.iter().any(|a| !seen.insert(*a))
    }

    /// Iterate over every ASN in order, sequences flattened, sets in
    /// their stored order.
    pub fn iter(&self) -> impl Iterator<Item = Asn> + '_ {
        self.segments.iter().flat_map(|s| s.asns().iter().copied())
    }
}

impl fmt::Display for AsPath {
    /// Conventional `show ip bgp` rendering: `174 3356 {1299,2914}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for seg in self.segments.iter() {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            match seg {
                Segment::Sequence(asns) => {
                    let parts: Vec<String> = asns.iter().map(|a| a.value().to_string()).collect();
                    write!(f, "{}", parts.join(" "))?;
                }
                Segment::Set(asns) => {
                    let parts: Vec<String> = asns.iter().map(|a| a.value().to_string()).collect();
                    write!(f, "{{{}}}", parts.join(","))?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(asns: &[u32]) -> AsPath {
        AsPath::from_sequence(asns.iter().copied())
    }

    #[test]
    fn origin_is_rightmost() {
        assert_eq!(seq(&[174, 3356, 65001]).origin(), Some(Asn(65001)));
        assert_eq!(AsPath::empty().origin(), None);
    }

    #[test]
    fn origin_of_trailing_set_is_none() {
        let path = AsPath::from_segments([
            Segment::Sequence(vec![Asn(174)]),
            Segment::Set(vec![Asn(1), Asn(2)]),
        ]);
        assert_eq!(path.origin(), None);
    }

    #[test]
    fn neighbor_is_leftmost() {
        assert_eq!(seq(&[174, 3356, 65001]).neighbor(), Some(Asn(174)));
        assert_eq!(AsPath::empty().neighbor(), None);
    }

    #[test]
    fn origin_neighbor_extraction() {
        assert_eq!(seq(&[174, 3356, 65001]).origin_neighbor(), Some(Asn(3356)));
        assert_eq!(seq(&[65001]).origin_neighbor(), None);
        let with_set = AsPath::from_segments([
            Segment::Sequence(vec![Asn(174)]),
            Segment::Set(vec![Asn(1)]),
        ]);
        assert_eq!(with_set.origin_neighbor(), None);
    }

    #[test]
    fn origin_neighbor_spans_segments_and_refuses_any_set() {
        // Deserialisation does not canonicalise, so two adjacent
        // sequences can exist: the pair then straddles the boundary.
        let split = AsPath {
            segments: Arc::from([
                Segment::Sequence(vec![Asn(174), Asn(3356)]),
                Segment::Sequence(vec![Asn(65001)]),
            ]),
        };
        assert_eq!(split.origin_neighbor(), Some(Asn(3356)));
        // A set that is not last: the tail sequence alone has a
        // second-to-last ASN, the path as a whole has none.
        let set_first = AsPath::from_segments([
            Segment::Set(vec![Asn(1), Asn(2)]),
            Segment::Sequence(vec![Asn(3356), Asn(65001)]),
        ]);
        assert_eq!(set_first.origin(), Some(Asn(65001)));
        assert_eq!(set_first.origin_neighbor(), None);
        let set_middle = AsPath::from_segments([
            Segment::Sequence(vec![Asn(174)]),
            Segment::Set(vec![Asn(1)]),
            Segment::Sequence(vec![Asn(3356), Asn(65001)]),
        ]);
        assert_eq!(set_middle.origin_neighbor(), None);
    }

    #[test]
    fn decision_len_counts_sets_as_one() {
        let path = AsPath::from_segments([
            Segment::Sequence(vec![Asn(1), Asn(2), Asn(3)]),
            Segment::Set(vec![Asn(4), Asn(5)]),
        ]);
        assert_eq!(path.decision_len(), 4);
        assert_eq!(path.asn_count(), 5);
    }

    #[test]
    fn prepend_merges_into_front_sequence() {
        let path = seq(&[3356, 65001]).prepend(Asn(174));
        assert_eq!(path, seq(&[174, 3356, 65001]));
        assert_eq!(path.decision_len(), 3);
    }

    #[test]
    fn prepend_n_repeats() {
        let path = seq(&[65001]).prepend_n(Asn(174), 3);
        assert_eq!(path, seq(&[174, 174, 174, 65001]));
        assert_eq!(path.decision_len(), 4);
    }

    #[test]
    fn prepend_onto_empty_and_set_front() {
        assert_eq!(AsPath::empty().prepend(Asn(7)), seq(&[7]));
        let set_front = AsPath::from_segments([Segment::Set(vec![Asn(1)])]);
        let prepended = set_front.prepend(Asn(7));
        assert_eq!(prepended.segments().len(), 2);
        assert_eq!(prepended.neighbor(), Some(Asn(7)));
    }

    #[test]
    fn prepend_zero_is_identity() {
        let path = seq(&[1, 2]);
        assert_eq!(path.prepend_n(Asn(9), 0), path);
    }

    #[test]
    fn loop_detection() {
        assert!(seq(&[1, 2, 3]).contains(Asn(2)));
        assert!(!seq(&[1, 2, 3]).contains(Asn(4)));
    }

    #[test]
    fn nonadjacent_repeat_detection() {
        assert!(!seq(&[1, 1, 1, 2]).has_nonadjacent_repeat()); // prepending
        assert!(seq(&[1, 2, 1]).has_nonadjacent_repeat()); // loop
        assert!(!seq(&[1, 2, 3]).has_nonadjacent_repeat());
    }

    #[test]
    fn display_formats() {
        let path = AsPath::from_segments([
            Segment::Sequence(vec![Asn(174), Asn(3356)]),
            Segment::Set(vec![Asn(1299), Asn(2914)]),
        ]);
        assert_eq!(path.to_string(), "174 3356 {1299,2914}");
        assert_eq!(AsPath::empty().to_string(), "");
    }

    #[test]
    fn from_segments_drops_empties() {
        let path = AsPath::from_segments([Segment::Sequence(vec![]), Segment::Set(vec![])]);
        assert!(path.is_empty());
    }

    #[test]
    fn iter_flattens() {
        let path = AsPath::from_segments([
            Segment::Sequence(vec![Asn(1), Asn(2)]),
            Segment::Set(vec![Asn(3)]),
        ]);
        let all: Vec<Asn> = path.iter().collect();
        assert_eq!(all, vec![Asn(1), Asn(2), Asn(3)]);
    }
}

//! Hijack classification.
//!
//! The demo paper detects "an announcement with an illegitimate origin
//! AS" (§3). We classify along the standard taxonomy (formalized in
//! the authors' follow-up work) so mitigation can pick the right
//! response; the extra classes are documented extensions.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The kind of hijacking incident detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum HijackType {
    /// Exact-prefix announcement with an illegitimate origin (Type-0 /
    /// origin hijack — the event the paper's experiments perform).
    ExactOrigin,
    /// A more-specific of an owned prefix announced by an illegitimate
    /// origin (sub-prefix hijack — attracts *all* traffic by LPM).
    SubPrefix,
    /// A more-specific announced with the *legitimate* origin but not
    /// by us (attacker prepends the victim's AS to evade origin
    /// checks while still winning by LPM).
    SubPrefixForgedOrigin,
    /// Exact prefix, legitimate origin, but the hop adjacent to the
    /// origin is not a known neighbor (Type-1 / fake first-hop).
    Type1FakeNeighbor,
    /// An announcement for a dormant (owned but unannounced) prefix.
    Squatting,
}

impl fmt::Display for HijackType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HijackType::ExactOrigin => write!(f, "exact-prefix origin hijack"),
            HijackType::SubPrefix => write!(f, "sub-prefix hijack"),
            HijackType::SubPrefixForgedOrigin => write!(f, "sub-prefix hijack (forged origin)"),
            HijackType::Type1FakeNeighbor => write!(f, "Type-1 fake-neighbor hijack"),
            HijackType::Squatting => write!(f, "prefix squatting"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_descriptive() {
        assert!(HijackType::ExactOrigin.to_string().contains("origin"));
        assert!(HijackType::Squatting.to_string().contains("squat"));
    }
}

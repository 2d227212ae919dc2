//! # artemis-bgp — BGP core types and wire formats
//!
//! Foundation crate of the ARTEMIS reproduction. It provides everything
//! the rest of the workspace needs to talk *about* (and *in*) BGP:
//!
//! * [`Asn`] — 32-bit autonomous system numbers (RFC 6793) with the
//!   classification helpers (`is_private`, `is_reserved`, …) the detector
//!   uses to flag bogus origins.
//! * [`Prefix`] — IPv4/IPv6 CIDR prefixes with containment tests and the
//!   *de-aggregation* operations at the heart of ARTEMIS mitigation
//!   ([`Prefix::split`], [`Prefix::deaggregate`]).
//! * [`AsPath`] — AS_PATH with SEQUENCE/SET segments, origin extraction,
//!   prepending and loop detection.
//! * [`attrs`] — the BGP path attributes used by the decision process.
//! * [`BgpMessage`] / [`wire`] — the RFC 4271 wire codec (OPEN / UPDATE /
//!   NOTIFICATION / KEEPALIVE) including RFC 6793 four-octet AS support
//!   and RFC 4760 multiprotocol NLRI for IPv6.
//! * [`FlatTrie`] — the prefix → value map everything routes with: a
//!   binary trie in a contiguous node pool (nodes linked by `u32`
//!   indices, a stride-16 IPv4 root table) with in-place
//!   insert/remove, longest-prefix match, exact match, and
//!   allocation-free covering / containment visits. The detector's
//!   owned-prefix routing, the monitor index and the ROA table are all
//!   built on it.
//! * [`Route`] / [`RouteUpdate`] — announced paths and announce/withdraw
//!   events exchanged between the simulator, the feeds and the detector.
//!
//! The crate is deliberately free of any simulation or I/O concerns so it
//! can be reused verbatim by a real deployment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aspath;
pub mod attrs;
pub mod error;
pub mod flat;
pub mod message;
pub mod prefix;
pub mod route;
pub mod wire;

mod asn;

pub use asn::Asn;
pub use aspath::{AsPath, Segment};
pub use attrs::{Community, Origin, PathAttributes};
pub use error::BgpError;
pub use flat::FlatTrie;
pub use message::{
    BgpMessage, NotificationMessage, OpenMessage, UpdateMessage, KEEPALIVE_TYPE, NOTIFICATION_TYPE,
    OPEN_TYPE, UPDATE_TYPE,
};
pub use prefix::{Afi, Prefix, PrefixParseError};
pub use route::{Route, RouteSource, RouteUpdate};
pub use wire::Codec;

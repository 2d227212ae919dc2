//! # artemis-bmp — BGP Monitoring Protocol wire format (RFC 7854)
//!
//! The live-ingestion substrate of the workspace: everything a
//! collector session needs to speak BMP v3 over a byte stream, with
//! zero I/O of its own so every piece is testable against in-memory
//! buffers.
//!
//! * [`BmpMessage`] / [`BmpWriter`] — owned message model and encoder
//!   for the six RFC 7854 message types (`route_monitoring`,
//!   `stats_report`, `peer_down`, `peer_up`, `initiation`,
//!   `termination`). BGP PDUs inside BMP bodies reuse the workspace
//!   [`artemis_bgp::Codec`], so a route-monitoring payload is a real
//!   UPDATE, byte for byte.
//! * [`BmpScanner`] / [`RawBmpMessage`] — zero-copy scan over a
//!   contiguous byte buffer, mirroring `artemis_mrt::MrtScanner`:
//!   borrowed bodies, per-message [`BmpDiagnostic`]s, resync at
//!   length-delimited boundaries, and a *fused* terminal state on
//!   unrecoverable header corruption so error-skipping loops always
//!   terminate.
//! * [`FrameAssembler`] — incremental framing for a TCP byte stream:
//!   push arbitrarily chunked reads in, pull complete messages out.
//! * [`BackpressureRing`] — the fixed-capacity drop-oldest ring a live
//!   feed parks decoded events in when the detector falls behind;
//!   sheds are counted, memory is bounded.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod frame;
mod ring;
mod wire;

pub use frame::FrameAssembler;
pub use ring::{BackpressureRing, WakeLatch};
pub use wire::{
    BmpDiagnostic, BmpError, BmpMessage, BmpScanner, BmpWriter, InfoTlv, PeerHeader, RawBmpMessage,
    StatCounter, COMMON_HEADER_LEN, MAX_BMP_MESSAGE_LEN, MSG_INITIATION, MSG_PEER_DOWN,
    MSG_PEER_UP, MSG_ROUTE_MONITORING, MSG_STATS_REPORT, MSG_TERMINATION, PEER_FLAG_A, PEER_FLAG_V,
    PEER_HEADER_LEN,
};

//! # artemis-feeds — BGP monitoring infrastructure
//!
//! ARTEMIS detects hijacks by combining *multiple live control-plane
//! feeds* (paper §2): the streaming service of RIPE RIS, BGPmon, and
//! Periscope-style Looking Glass queries. This crate simulates all of
//! them — plus the slow archive pipelines (2-hour RIBs / 15-minute
//! update batches) that the paper's baselines rely on — against the
//! routing state of an [`artemis_bgpsim::Engine`].
//!
//! Taxonomy:
//!
//! | feed | mode | latency character |
//! |------|------|-------------------|
//! | [`StreamFeed`] (RIS-live flavour) | push | seconds (lognormal export pipeline) |
//! | [`StreamFeed`] (BGPmon flavour)   | push | seconds–tens of seconds |
//! | [`BmpLiveFeed`] (RFC 7854 wire)   | pull off a real TCP socket | sub-second (bounded by pump cadence) |
//! | [`PeriscopeFeed`] | pull (rate-limited polls) | poll phase + response latency |
//! | [`ArchiveUpdatesFeed`] | batch | visible at the next batch boundary |
//! | [`ArchiveRibFeed`] | snapshot | visible at the next dump |
//! | [`MrtReplayFeed`] | replay of raw MRT bytes | recorded instants + batch window |
//!
//! Every source implements [`FeedSource`]; a [`FeedHub`] fans a
//! [`RouteChange`](artemis_bgpsim::RouteChange) out to all of them and
//! merge-sorts the timestamped [`FeedEvent`]s it collects into batches
//! (see [`FeedHub::drain_batch`]). Detection delay is therefore *the
//! min over sources* — exactly the property the paper exploits (claim
//! C7 in DESIGN.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod event;
pub mod filter;
pub mod hub;
pub mod live;
pub mod periscope;
pub mod replay;
pub mod source;
pub mod spec;
pub mod stream;
pub mod vantage;

pub use archive::{ArchiveRibFeed, ArchiveUpdatesFeed};
pub use event::{FeedEvent, FeedKind};
pub use filter::FeedFilter;
pub use hub::{DrainBreakdown, FeedHandle, FeedHub, FeedLag};
pub use live::{BmpLiveFeed, LiveFeedConfig, LiveFeedStats, PeerHealth, WireHealth};
pub use periscope::{LookingGlass, PeriscopeFeed};
pub use replay::{MrtReplayFeed, MrtRibSnapshot};
pub use source::{EmptyRibView, EngineView, FeedSource, RibView, WakeLatch};
pub use spec::FeedSpec;
pub use stream::StreamFeed;
pub use vantage::VantageStrategy;

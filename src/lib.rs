//! # artemis-repro — umbrella crate
//!
//! Re-exports the whole ARTEMIS reproduction workspace behind a single
//! dependency, and hosts the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`).
//!
//! The interesting code lives in the member crates:
//!
//! * [`artemis_bgp`] — BGP types, RFC 4271 wire codec, prefix trie.
//! * [`artemis_bmp`] — RFC 7854 BMP wire format + backpressure ring.
//! * [`artemis_mrt`] — RFC 6396 MRT archive format.
//! * [`artemis_simnet`] — deterministic discrete-event engine.
//! * [`artemis_topology`] — AS-level Internet topology + policies.
//! * [`artemis_bgpsim`] — event-driven BGP propagation simulator.
//! * [`artemis_feeds`] — RIS-live / BGPmon / Periscope / archive feeds.
//! * [`artemis_controller`] — ONOS-like route-intent controller.
//! * [`artemis_core`] — the ARTEMIS detector, mitigator and experiment
//!   harness (the paper's contribution).

pub use artemis_bgp as bgp;
pub use artemis_bgpd as bgpd;
pub use artemis_bgpsim as bgpsim;
pub use artemis_bmp as bmp;
pub use artemis_controller as controller;
pub use artemis_core as core;
pub use artemis_feeds as feeds;
pub use artemis_mrt as mrt;
pub use artemis_simnet as simnet;
pub use artemis_topology as topology;

/// Commonly used items for examples and quick scripts.
pub mod prelude {
    pub use artemis_bgp::{Asn, Prefix};
    pub use artemis_core::{
        ArtemisConfig, ArtemisService, Detector, ExperimentBuilder, HijackType, MitigationPolicy,
        Mitigator, Pipeline,
    };
    pub use artemis_simnet::{SimDuration, SimTime};
}

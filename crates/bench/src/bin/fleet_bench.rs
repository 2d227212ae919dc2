//! **Fleet-scale trajectory** — drives the pipeline with a fleet-sized
//! operator (~100k owned prefixes), a full-table-sized churn stream
//! and dozens of concurrent hijack incidents, and emits
//! `BENCH_fleet.json`: end-to-end events/s (ingest, drain, classify
//! and commit), p99 per-stage batch latency from the pipeline's
//! `StageMetrics` taps, the flattened routing structure's
//! bytes-per-owned-prefix, and a longest-prefix-match microbench of
//! the flattened [`FlatTrie`] against the boxed [`PrefixTrie`] on the
//! same 100k-entry fleet.
//!
//! ```sh
//! cargo run --release -p artemis_bench --bin fleet_bench            # full: 100k prefixes
//! cargo run --release -p artemis_bench --bin fleet_bench -- --smoke # CI: 5k prefixes
//! cargo run --release -p artemis_bench --bin fleet_bench -- --out BENCH_fleet.json
//! cargo run --release -p artemis_bench --bin fleet_bench -- --churn 1m # ~1M-route churn
//! cargo run --release -p artemis_bench --bin fleet_bench -- --fleet-churn 5k # onboard/offboard axis
//! ```
//!
//! `--churn N[k|m]` overrides the churn volume (e.g. `--churn 1m` =
//! one million route changes) and switches the hijack mix to
//! **deaggregation attacks**: every other rogue announcement targets a
//! /25 sub-prefix of the victim /24 instead of the exact prefix, so
//! sub-prefix classification and covering-set monitor routing both
//! stay hot for the whole run.
//!
//! The **fleet-churn axis** (always on; `--fleet-churn N[k|m]`
//! overrides the cycle count) offboards and re-onboards prefixes
//! spread across the fleet and reports the per-direction cost. Each
//! cycle is exactly two incremental patches of the flattened routing
//! structure — the routing epoch advances by 2 per cycle and the node
//! count is steady, proving there are no wholesale rebuilds.
//!
//! Churn is delivered in waves (ingest a chunk, drain it, repeat) the
//! way a live deployment sees the firehose, which both bounds queue
//! memory and gives the stage histograms enough batch samples for a
//! meaningful p99.

use artemis_bgp::{AsPath, Asn, FlatTrie, Prefix, PrefixTrie};
use artemis_bgpsim::{BestRoute, RouteChange};
use artemis_controller::Controller;
use artemis_core::{ArtemisConfig, OwnedPrefix, Pipeline};
use artemis_feeds::vantage::group_into_collectors;
use artemis_feeds::{FeedHub, StreamFeed};
use artemis_simnet::{LatencyModel, SimRng, SimTime};
use artemis_topology::RelKind;
use std::net::Ipv4Addr;
use std::time::Instant;

const FULL_OWNED: usize = 100_000;
const SMOKE_OWNED: usize = 5_000;
const FULL_CHANGES: usize = 200_000;
const SMOKE_CHANGES: usize = 20_000;
const FULL_LPM_QUERIES: usize = 1_000_000;
const SMOKE_LPM_QUERIES: usize = 100_000;
/// Offboard+re-onboard cycles for the `--fleet-churn` axis.
const FULL_FLEET_CHURN: usize = 2_000;
const SMOKE_FLEET_CHURN: usize = 500;
/// Route changes per delivery wave (≈ 2× events per wave).
const WAVE_CHANGES: usize = 2_000;
/// Distinct owned prefixes attacked mid-churn ("dozens of concurrent
/// incidents").
const HIJACKED_PREFIXES: usize = 48;
const OPERATOR: u32 = 65_001;
const ROGUE: u32 = 64_666;

/// The owned fleet: consecutive /24s from 10.0.0.0 up — 100k of them
/// span 10.0.0.0/7, the shape of a large provider's customer blocks.
fn owned_fleet(n: usize) -> Vec<Prefix> {
    (0..n as u32)
        .map(|i| {
            Prefix::v4(Ipv4Addr::from(0x0A00_0000u32 + (i << 8)), 24).expect("fleet /24 is valid")
        })
        .collect()
}

fn config(owned: &[Prefix]) -> ArtemisConfig {
    ArtemisConfig::new(
        Asn(OPERATOR),
        owned
            .iter()
            .map(|p| OwnedPrefix::new(*p, Asn(OPERATOR)))
            .collect(),
    )
}

fn hub() -> FeedHub {
    let vps = vec![Asn(174), Asn(3356)];
    let mut hub = FeedHub::new(SimRng::new(1));
    hub.add(Box::new(
        StreamFeed::ris_live(group_into_collectors("rrc", &vps, 1))
            .with_export_delay(LatencyModel::const_secs(3)),
    ));
    hub.add(Box::new(
        StreamFeed::bgpmon(group_into_collectors("bmon", &vps, 1))
            .with_export_delay(LatencyModel::const_secs(9)),
    ));
    hub
}

/// Full-table-sized churn: mostly unrelated internet noise, a steady
/// trickle of legitimate owned-space updates, and hijack announcements
/// against [`HIJACKED_PREFIXES`] distinct owned prefixes spread across
/// the run so the incidents overlap.
fn churn(n: usize, owned: &[Prefix], deagg: bool) -> Vec<RouteChange> {
    let hijack_every = (n / (HIJACKED_PREFIXES * 2)).max(1);
    let hijack_stride = owned.len() / HIJACKED_PREFIXES.min(owned.len()).max(1);
    (0..n as u64)
        .map(|i| {
            let (prefix, origin) = if i % (hijack_every as u64) == 7 {
                // Hijack: rogue origin announces an owned /24. Repeat
                // announcements against the same target prefix land in
                // the same incident, keeping ~48 concurrent alerts. In
                // deaggregation mode every other strike announces a
                // /25 *inside* the victim /24 — the sub-prefix attack
                // of paper §2 — exercising sub-prefix classification
                // and covering-set monitor routing.
                let victim =
                    ((i / hijack_every as u64) as usize % HIJACKED_PREFIXES) * hijack_stride.max(1);
                let target = owned[victim % owned.len()];
                let announced = if deagg && (i / hijack_every as u64) % 2 == 1 {
                    Prefix::v4(Ipv4Addr::from((target.bits() >> 96) as u32), 25)
                        .expect("victim /25 is valid")
                } else {
                    target
                };
                (announced, ROGUE)
            } else if i % 4 == 0 {
                // Legitimate owned-space update.
                (owned[(i as usize * 7919) % owned.len()], OPERATOR)
            } else {
                // Unrelated internet noise: /24s far outside the fleet.
                let addr =
                    0x6400_0000u32 | (((i as u32).wrapping_mul(2_654_435_761)) & 0x00FF_FF00);
                (Prefix::v4(Ipv4Addr::from(addr), 24).expect("valid"), 7018)
            };
            let vantage = if i % 2 == 0 { Asn(174) } else { Asn(3356) };
            let path = AsPath::from_sequence([3356u32, origin]);
            RouteChange {
                time: SimTime::from_micros(i * 50),
                asn: vantage,
                prefix,
                old: None,
                new: Some(BestRoute {
                    origin_as: path.origin().expect("non-empty"),
                    as_path: path,
                    neighbor: Some(Asn(3356)),
                    learned_from: Some(RelKind::Provider),
                    local_pref: 100,
                }),
            }
        })
        .collect()
}

struct ChurnResult {
    events: u64,
    secs: f64,
    alerts: usize,
    routing_nodes: usize,
    routing_bytes: usize,
    p99: [u64; 3],
    mean: [u64; 3],
    /// Commit sub-stage p99/mean batch nanos, in `SUBSTAGES` order.
    sub_p99: [u64; 5],
    sub_mean: [u64; 5],
    /// Drain/classify sub-stage p99/mean batch nanos, in
    /// `FRONT_SUBSTAGES` order.
    front_p99: [u64; 4],
    front_mean: [u64; 4],
}

/// Commit sub-stage names, matching the daemon's `/metrics` labels
/// (`artemis_stage_*{stage="commit_<name>"}`).
const SUBSTAGES: [&str; 5] = [
    "detect",
    "monitor_route",
    "monitor_ingest",
    "resolve",
    "mitigate",
];

/// Front-half (drain/classify) sub-stage names, matching the daemon's
/// `/metrics` labels (`artemis_stage_*{stage="<name>"}`).
const FRONT_SUBSTAGES: [&str; 4] = [
    "drain_seal",
    "drain_merge",
    "classify_snapshot",
    "classify_prepare",
];

/// Wave-delivered churn through a fleet-sized pipeline; the timed
/// region is the full hot path — feed ingest, merge-queue drain,
/// classification and the staged in-order commit.
fn run_churn(owned: &[Prefix], route_changes: &[RouteChange]) -> ChurnResult {
    let mut pipeline = Pipeline::new(
        hub(),
        config(owned),
        [Asn(174), Asn(3356)].into_iter().collect(),
    );
    let mut ctrl = Controller::new(Asn(OPERATOR), LatencyModel::const_secs(15), SimRng::new(1));

    let mut events = 0u64;
    let start = Instant::now();
    for wave in route_changes.chunks(WAVE_CHANGES) {
        pipeline.ingest_route_changes(wave);
        events += pipeline.deliver_due(SimTime::from_micros(u64::MAX), &mut ctrl, &mut []);
    }
    let secs = start.elapsed().as_secs_f64();

    let stages = pipeline.stage_metrics();
    let subs = [
        &stages.detect,
        &stages.monitor_route,
        &stages.monitor_ingest,
        &stages.resolve,
        &stages.mitigate,
    ];
    let fronts = [
        &stages.drain_seal,
        &stages.drain_merge,
        &stages.classify_snapshot,
        &stages.classify_prepare,
    ];
    ChurnResult {
        events,
        secs,
        alerts: pipeline.detector().alerts().all().len(),
        routing_nodes: pipeline.detector().routing_nodes(),
        routing_bytes: pipeline.detector().routing_bytes(),
        p99: [
            stages.drain.p99_batch_nanos(),
            stages.classify.p99_batch_nanos(),
            stages.commit.p99_batch_nanos(),
        ],
        mean: [
            stages.drain.mean_batch_nanos(),
            stages.classify.mean_batch_nanos(),
            stages.commit.mean_batch_nanos(),
        ],
        sub_p99: subs.map(|s| s.p99_batch_nanos()),
        sub_mean: subs.map(|s| s.mean_batch_nanos()),
        front_p99: fronts.map(|s| s.p99_batch_nanos()),
        front_mean: fronts.map(|s| s.mean_batch_nanos()),
    }
}

struct FleetChurnResult {
    cycles: usize,
    offboard_ns: f64,
    onboard_ns: f64,
    epoch_before: u64,
    epoch_after: u64,
    nodes_before: usize,
    nodes_after: usize,
}

/// The `--fleet-churn` axis: onboard/offboard cost at fleet scale.
///
/// Offboards and immediately re-onboards prefixes spread across the
/// whole fleet, timing each direction. With the incremental routing
/// epoch every cycle is two in-place patches of the flattened routing
/// structure — cost stays flat in fleet size (no wholesale rebuild),
/// which the epoch counter proves: it advances exactly twice per
/// cycle, and the node count returns to its starting value.
fn fleet_churn_bench(owned: &[Prefix], cycles: usize) -> FleetChurnResult {
    let mut pipeline = Pipeline::new(
        hub(),
        config(owned),
        [Asn(174), Asn(3356)].into_iter().collect(),
    );
    let mut ctrl = Controller::new(Asn(OPERATOR), LatencyModel::const_secs(15), SimRng::new(1));
    let epoch_before = pipeline.detector().routing_epoch().epoch();
    let nodes_before = pipeline.detector().routing_nodes();

    let stride = (owned.len() / cycles.max(1)).max(1);
    let now = SimTime::from_secs(1);
    let mut offboard = std::time::Duration::ZERO;
    let mut onboard = std::time::Duration::ZERO;
    for c in 0..cycles {
        let prefix = owned[(c * stride) % owned.len()];
        let t = Instant::now();
        pipeline
            .remove_owned_prefix(prefix, now, &mut ctrl, &mut [])
            .expect("fleet prefix is onboarded");
        offboard += t.elapsed();
        let t = Instant::now();
        assert!(pipeline.add_owned_prefix(OwnedPrefix::new(prefix, Asn(OPERATOR)), None, now));
        onboard += t.elapsed();
    }

    FleetChurnResult {
        cycles,
        offboard_ns: offboard.as_secs_f64() * 1e9 / cycles.max(1) as f64,
        onboard_ns: onboard.as_secs_f64() * 1e9 / cycles.max(1) as f64,
        epoch_before,
        epoch_after: pipeline.detector().routing_epoch().epoch(),
        nodes_before,
        nodes_after: pipeline.detector().routing_nodes(),
    }
}

/// Deterministic LPM query mix over the fleet: exact owned /24s, host
/// routes inside owned space (sub-prefix hits), covering /16s
/// (misses — nothing shorter than /24 is owned) and far-away noise.
fn lpm_queries(n: usize, owned: &[Prefix]) -> Vec<Prefix> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    (0..n)
        .map(|i| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let pick = owned[(state >> 33) as usize % owned.len()];
            match i % 4 {
                0 => pick,
                1 => {
                    let host = pick.bits() | u128::from(state & 0xFF) << 96;
                    Prefix::v4(Ipv4Addr::from((host >> 96) as u32), 32).expect("host route")
                }
                2 => Prefix::v4(Ipv4Addr::from((pick.bits() >> 96) as u32), 16).expect("/16"),
                _ => {
                    let addr = 0xC000_0000u32 | ((state as u32) & 0x00FF_FF00);
                    Prefix::v4(Ipv4Addr::from(addr), 24).expect("noise /24")
                }
            }
        })
        .collect()
}

struct LpmResult {
    queries: usize,
    boxed_ns: f64,
    flat_ns: f64,
    speedup: f64,
    hits: u64,
}

/// Boxed-vs-flattened longest-prefix-match microbench on the same
/// fleet the pipeline routes with. Best-of-3 per structure; both sides
/// run the identical query list and must agree on the hit count.
fn lpm_bench(owned: &[Prefix], n_queries: usize) -> LpmResult {
    let mut trie: PrefixTrie<usize> = PrefixTrie::new();
    for (i, p) in owned.iter().enumerate() {
        trie.insert(*p, i);
    }
    let flat = FlatTrie::from_trie(&trie);
    let queries = lpm_queries(n_queries, owned);

    let mut boxed_best = f64::INFINITY;
    let mut boxed_hits = 0u64;
    for _ in 0..3 {
        let start = Instant::now();
        let mut hits = 0u64;
        for q in &queries {
            hits += u64::from(std::hint::black_box(trie.longest_match(*q)).is_some());
        }
        boxed_best = boxed_best.min(start.elapsed().as_secs_f64());
        boxed_hits = hits;
    }
    let mut flat_best = f64::INFINITY;
    let mut flat_hits = 0u64;
    for _ in 0..3 {
        let start = Instant::now();
        let mut hits = 0u64;
        for q in &queries {
            hits += u64::from(std::hint::black_box(flat.longest_match(*q)).is_some());
        }
        flat_best = flat_best.min(start.elapsed().as_secs_f64());
        flat_hits = hits;
    }
    assert_eq!(boxed_hits, flat_hits, "structures must agree on hits");

    let boxed_ns = boxed_best * 1e9 / n_queries as f64;
    let flat_ns = flat_best * 1e9 / n_queries as f64;
    LpmResult {
        queries: n_queries,
        boxed_ns,
        flat_ns,
        speedup: boxed_ns / flat_ns,
        hits: flat_hits,
    }
}

/// Parse `--churn`'s count argument: a plain integer with an optional
/// `k` (thousand) or `m` (million) suffix, e.g. `250k` or `1m`.
fn parse_count(s: &str) -> Option<usize> {
    let lower = s.to_ascii_lowercase();
    let (digits, mult) = match lower.strip_suffix(['k', 'm']) {
        Some(d) if lower.ends_with('k') => (d, 1_000),
        Some(d) => (d, 1_000_000),
        None => (lower.as_str(), 1),
    };
    digits.parse::<usize>().ok().map(|n| n * mult)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let churn_override = args.iter().position(|a| a == "--churn").map(|i| {
        let arg = args.get(i + 1).expect("--churn needs a count, e.g. 1m");
        parse_count(arg).unwrap_or_else(|| panic!("bad --churn count {arg:?} (try 250k, 1m)"))
    });
    let fleet_churn_override = args.iter().position(|a| a == "--fleet-churn").map(|i| {
        let arg = args
            .get(i + 1)
            .expect("--fleet-churn needs a cycle count, e.g. 5k");
        parse_count(arg).unwrap_or_else(|| panic!("bad --fleet-churn count {arg:?} (try 5k)"))
    });

    let (n_owned, mut n_changes, n_queries) = if smoke {
        (SMOKE_OWNED, SMOKE_CHANGES, SMOKE_LPM_QUERIES)
    } else {
        (FULL_OWNED, FULL_CHANGES, FULL_LPM_QUERIES)
    };
    let n_fleet_churn = fleet_churn_override.unwrap_or(if smoke {
        SMOKE_FLEET_CHURN
    } else {
        FULL_FLEET_CHURN
    });
    let deagg = churn_override.is_some();
    if let Some(n) = churn_override {
        n_changes = n;
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!(
        "fleet_bench: {n_owned} owned prefixes, {n_changes} route changes{}, {} mode, \
         {cores} core(s)",
        if deagg { " (deaggregation mix)" } else { "" },
        if smoke { "smoke" } else { "full" }
    );

    let owned = owned_fleet(n_owned);
    let route_changes = churn(n_changes, &owned, deagg);

    let lpm = lpm_bench(&owned, n_queries);
    println!(
        "  lpm: boxed {:.1} ns/lookup, flat {:.1} ns/lookup, speedup {:.2}x ({} hits)",
        lpm.boxed_ns, lpm.flat_ns, lpm.speedup, lpm.hits
    );

    let run = run_churn(&owned, &route_changes);
    let events_per_sec = run.events as f64 / run.secs;
    let bytes_per_owned = run.routing_bytes as f64 / n_owned as f64;
    println!(
        "  churn: {} events in {:.3} s = {:.1} k events/s, {} alerts",
        run.events,
        run.secs,
        events_per_sec / 1_000.0,
        run.alerts
    );
    println!(
        "  routing: {} nodes, {} bytes ({:.1} B per owned prefix)",
        run.routing_nodes, run.routing_bytes, bytes_per_owned
    );
    println!(
        "  p99 batch nanos: drain {}, classify {}, commit {}",
        run.p99[0], run.p99[1], run.p99[2]
    );
    let sub_json = |vals: &[u64; 5]| {
        SUBSTAGES
            .iter()
            .zip(vals)
            .map(|(name, v)| format!("\"{name}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let front_json = |vals: &[u64; 4]| {
        FRONT_SUBSTAGES
            .iter()
            .zip(vals)
            .map(|(name, v)| format!("\"{name}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!("  commit sub-stage p99 nanos: {}", sub_json(&run.sub_p99));
    println!(
        "  front sub-stage p99 nanos: {}",
        front_json(&run.front_p99)
    );

    let fc = fleet_churn_bench(&owned, n_fleet_churn);
    assert_eq!(
        fc.epoch_after - fc.epoch_before,
        2 * fc.cycles as u64,
        "every cycle must be exactly two incremental patches (no rebuilds)"
    );
    assert_eq!(
        fc.nodes_before, fc.nodes_after,
        "offboard+re-onboard must return the routing structure to its starting shape"
    );
    println!(
        "  fleet-churn: {} cycles, offboard {:.0} ns/op, onboard {:.0} ns/op, \
         epoch {} -> {} (2 patches/cycle, {} nodes steady)",
        fc.cycles, fc.offboard_ns, fc.onboard_ns, fc.epoch_before, fc.epoch_after, fc.nodes_after
    );

    let json = format!(
        "{{\n  \"bench\": \"fleet_scale/churn_and_lpm\",\n  \"mode\": \"{mode}\",\n  \
         \"owned_prefixes\": {n_owned},\n  \"churn_changes\": {n_changes},\n  \
         \"deagg_mix\": {deagg},\n  \
         \"events_delivered\": {events},\n  \"events_per_sec\": {eps:.0},\n  \
         \"alerts_raised\": {alerts},\n  \"host_cores\": {cores},\n  \
         \"timed_region\": \"ingest + drain + classify + staged in-order commit, in {wave}-change waves\",\n  \
         \"stage_p99_batch_nanos\": {{ \"drain\": {p0}, \"classify\": {p1}, \"commit\": {p2} }},\n  \
         \"stage_mean_batch_nanos\": {{ \"drain\": {m0}, \"classify\": {m1}, \"commit\": {m2} }},\n  \
         \"commit_substages_p99_batch_nanos\": {{ {sp} }},\n  \
         \"commit_substages_mean_batch_nanos\": {{ {sm} }},\n  \
         \"front_substages_p99_batch_nanos\": {{ {fp} }},\n  \
         \"front_substages_mean_batch_nanos\": {{ {fm} }},\n  \
         \"fleet_churn\": {{ \"cycles\": {fcc}, \"offboard_ns_per_op\": {fco:.0}, \"onboard_ns_per_op\": {fcn:.0}, \"routing_epoch_advance\": {fce}, \"patches_per_cycle\": 2, \"routing_nodes_steady\": {fcs} }},\n  \
         \"routing\": {{ \"nodes\": {nodes}, \"bytes\": {bytes}, \"bytes_per_owned_prefix\": {bpo:.1} }},\n  \
         \"lpm_microbench\": {{ \"queries\": {queries}, \"hits\": {hits}, \"boxed_ns_per_lookup\": {bns:.1}, \"flat_ns_per_lookup\": {fns:.1}, \"flat_speedup_vs_boxed\": {spd:.2} }},\n  \
         \"note\": \"single-threaded: the pipeline and the LPM microbench both run on the calling thread\"\n}}\n",
        mode = if smoke { "smoke" } else { "full" },
        events = run.events,
        eps = events_per_sec,
        alerts = run.alerts,
        wave = WAVE_CHANGES,
        p0 = run.p99[0],
        p1 = run.p99[1],
        p2 = run.p99[2],
        m0 = run.mean[0],
        m1 = run.mean[1],
        m2 = run.mean[2],
        sp = sub_json(&run.sub_p99),
        sm = sub_json(&run.sub_mean),
        fp = front_json(&run.front_p99),
        fm = front_json(&run.front_mean),
        fcc = fc.cycles,
        fco = fc.offboard_ns,
        fcn = fc.onboard_ns,
        fce = fc.epoch_after - fc.epoch_before,
        fcs = fc.nodes_after == fc.nodes_before,
        nodes = run.routing_nodes,
        bytes = run.routing_bytes,
        bpo = bytes_per_owned,
        queries = lpm.queries,
        hits = lpm.hits,
        bns = lpm.boxed_ns,
        fns = lpm.flat_ns,
        spd = lpm.speedup,
    );

    match out_path {
        Some(path) => {
            std::fs::write(&path, &json).expect("write bench JSON");
            println!("wrote {path}");
        }
        None => print!("{json}"),
    }
}

//! `artemisd`: what the HTTP wire adds between the service and its
//! users, measured against an idle daemon that has seen the stream.
//!
//! Calls `Daemon::start`, `DaemonHandle::{addr, shutdown}`,
//! `CtlClient::{new, healthz, apply, query, events, inject,
//! metrics_text}`, and a raw `GET /v1/status` (the typed client cannot
//! read a 12 MB body).

use super::ProbeInputs;
use crate::fleet::OPERATOR_AS;
use crate::stats;
use artemis_bgp::Asn;
use artemis_core::{EventCursor, OwnedPrefix, ServiceCommand, ServiceQuery};
use artemisd::{CtlClient, Daemon, DaemonConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const HEALTHZ_CALLS: usize = 50;
const PAIRS: usize = 32;
const READS: usize = 5;
const STATUS_READS: usize = 3;
const WAKES: usize = 16;

fn median_ms<T>(calls: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..calls)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&samples)
}

/// `GET path` read to end of stream; returns the response size.
fn raw_get(addr: &str, path: &str) -> usize {
    let mut sock = TcpStream::connect(addr).expect("connect to the daemon");
    write!(
        sock,
        "GET {path} HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut response = Vec::new();
    sock.read_to_end(&mut response).expect("read response");
    assert!(response.starts_with(b"HTTP/1.1 200"), "GET {path} failed");
    response.len()
}

pub fn run(inputs: &ProbeInputs<'_>, in_process_pair_us: f64, out: &mut Vec<(&'static str, f64)>) {
    let handle = Daemon::start(
        "127.0.0.1:0",
        inputs.pumped_service(),
        DaemonConfig::default(),
    )
    .expect("daemon binds loopback");
    let addr = handle.addr().to_string();
    let client = CtlClient::new(addr.clone());

    out.push((
        "artemisd.healthz_us",
        median_ms(HEALTHZ_CALLS, || client.healthz().expect("GET /healthz")) * 1e3,
    ));

    let pool = &inputs.fleet.legit_pool;
    let stride = pool.len() / PAIRS;
    let mut next = 0usize;
    let pair_ms = median_ms(PAIRS, || {
        let prefix = inputs.fleet.owned[pool[next * stride] as usize].prefix;
        next += 1;
        client
            .apply(ServiceCommand::RemoveOwnedPrefix { prefix }, None)
            .expect("offboard over HTTP");
        client
            .apply(
                ServiceCommand::AddOwnedPrefix {
                    owned: OwnedPrefix::new(prefix, Asn(OPERATOR_AS)),
                    policy: None,
                },
                None,
            )
            .expect("onboard over HTTP");
    });
    out.push((
        "artemisd.command_http_overhead_us",
        pair_ms * 1e3 - in_process_pair_us,
    ));

    let mut scrape_len = 0usize;
    out.push((
        "artemisd.scrape_ms",
        median_ms(READS, || {
            scrape_len = client.metrics_text().expect("GET /metrics").len();
        }),
    ));
    out.push(("artemisd.scrape_kb", scrape_len as f64 / 1024.0));
    out.push((
        "artemisd.incidents_ms",
        median_ms(READS, || {
            client
                .query(ServiceQuery::Incidents)
                .expect("query incidents")
        }),
    ));
    out.push((
        "artemisd.status_ms",
        median_ms(STATUS_READS, || raw_get(&addr, "/v1/status")),
    ));

    // Long-poll wake: a consumer parked on the tail of the stream, an
    // alert raised by an injected hijack of a victim nothing else used
    // (the far end of the pool), time from sending the injection to
    // holding the parsed long-poll response.
    let template = inputs
        .hijack_events()
        .into_iter()
        .next()
        .expect("the probe stream has hijacks");
    let mut cursor = client
        .events(EventCursor::START, 0)
        .expect("read the stream's tail")
        .next;
    let victims = &inputs.fleet.exact_victims;
    let mut wake_ms = Vec::new();
    for i in 0..WAKES {
        let mut event = template.clone();
        event.prefix = inputs.fleet.owned[victims[victims.len() - 1 - i] as usize].prefix;
        let (woke, next) = std::thread::scope(|scope| {
            let parked = scope.spawn(|| {
                let env = CtlClient::new(addr.clone())
                    .events(cursor, 2_000)
                    .expect("long-poll /v1/events");
                (Instant::now(), env)
            });
            // Let the long-poll park, at a varying phase of its 10 ms
            // re-check loop.
            std::thread::sleep(Duration::from_micros(3_000 + 650 * i as u64));
            let sent = Instant::now();
            let outcome = client.inject(vec![event]).expect("POST /v1/inject");
            assert_eq!(
                outcome.alerts_raised, 1,
                "the injected hijack raises one alert"
            );
            let (at, env) = parked.join().expect("long-poll thread");
            assert!(
                !env.events.is_empty(),
                "the long-poll returned without the alert"
            );
            (at.saturating_duration_since(sent), env.next)
        });
        cursor = next;
        wake_ms.push(woke.as_secs_f64() * 1e3);
    }
    out.push(("artemisd.events_wake_ms", stats::median(&wake_ms)));

    handle.shutdown();
}

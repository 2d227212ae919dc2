//! `artemisd` — run the ARTEMIS operator daemon.
//!
//! Assembles an [`ArtemisService`] from command-line flags and serves
//! the HTTP/JSON control plane until `POST /v1/shutdown` stops it. See
//! the crate docs for the endpoint table; `artemisctl` is the matching
//! client.
//!
//! [`ArtemisService`]: artemis_core::ArtemisService

use artemis_bgp::Asn;
use artemis_controller::Controller;
use artemis_core::{ArtemisConfig, ArtemisService, OwnedPrefix, Pipeline};
use artemis_feeds::FeedSpec;
use artemis_simnet::{LatencyModel, SimRng};
use artemisd::{Daemon, DaemonConfig};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
artemisd — ARTEMIS operator daemon

USAGE:
    artemisd [FLAGS]

FLAGS:
    --addr HOST:PORT       listen address (default 127.0.0.1:8900; port 0 = ephemeral)
    --asn N                the operator's AS number (default 65001)
    --owned PREFIX:ASN     onboard an owned prefix at startup (repeatable),
                           e.g. --owned 10.0.0.0/23:65001; repeating a
                           prefix adds ASN as another legitimate origin
    --vantage N            a vantage-point ASN for monitors (repeatable;
                           default 174 and 3356)
    --event-capacity N     incident event-log ring capacity (default 1024)
    --audit-log PATH       also append audit records to this JSONL file
    --webhook URL          register a webhook alert sink,
                           http://host:port/path (repeatable, at most 16)
    --bmp-feed NAME@HOST:PORT
                           dial a live RFC 7854 BMP collector at startup
                           (repeatable); the reader retries until the
                           collector accepts
    --help                 print this text
";

struct Flags {
    addr: String,
    asn: u32,
    owned: Vec<(String, u32)>,
    vantage: Vec<u32>,
    event_capacity: usize,
    audit_log: Option<PathBuf>,
    webhooks: Vec<String>,
    bmp_feeds: Vec<(String, String)>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        addr: "127.0.0.1:8900".into(),
        asn: 65001,
        owned: Vec::new(),
        vantage: Vec::new(),
        event_capacity: 1024,
        audit_log: None,
        webhooks: Vec::new(),
        bmp_feeds: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--addr" => flags.addr = value("--addr")?,
            "--asn" => {
                flags.asn = value("--asn")?.parse().map_err(|e| format!("--asn: {e}"))?;
            }
            "--owned" => {
                let spec = value("--owned")?;
                let (prefix, asn) = spec
                    .rsplit_once(':')
                    .ok_or_else(|| format!("--owned wants PREFIX:ASN, got {spec}"))?;
                let asn: u32 = asn.parse().map_err(|e| format!("--owned origin: {e}"))?;
                flags.owned.push((prefix.to_string(), asn));
            }
            "--vantage" => {
                let v: u32 = value("--vantage")?
                    .parse()
                    .map_err(|e| format!("--vantage: {e}"))?;
                flags.vantage.push(v);
            }
            "--event-capacity" => {
                flags.event_capacity = value("--event-capacity")?
                    .parse()
                    .map_err(|e| format!("--event-capacity: {e}"))?;
            }
            "--audit-log" => flags.audit_log = Some(PathBuf::from(value("--audit-log")?)),
            "--webhook" => flags.webhooks.push(value("--webhook")?),
            "--bmp-feed" => {
                let spec = value("--bmp-feed")?;
                let (name, addr) = spec
                    .split_once('@')
                    .ok_or_else(|| format!("--bmp-feed wants NAME@HOST:PORT, got {spec}"))?;
                flags.bmp_feeds.push((name.to_string(), addr.to_string()));
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    Ok(flags)
}

fn run(flags: Flags) -> Result<(), String> {
    let asn = Asn(flags.asn);
    let mut owned = Vec::new();
    for (prefix, origin) in &flags.owned {
        let prefix = prefix
            .parse()
            .map_err(|e| format!("--owned prefix {prefix}: {e}"))?;
        owned.push(OwnedPrefix::new(prefix, Asn(*origin)));
    }
    let vantage: BTreeSet<Asn> = if flags.vantage.is_empty() {
        [Asn(174), Asn(3356)].into_iter().collect()
    } else {
        flags.vantage.iter().copied().map(Asn).collect()
    };

    let config = ArtemisConfig::new(asn, owned);
    let pipeline = Pipeline::bare(config, vantage).with_event_capacity(flags.event_capacity.max(1));
    let controller = Controller::new(asn, LatencyModel::const_secs(15), SimRng::new(1));
    let mut service = ArtemisService::new(pipeline, controller);
    for (name, addr) in &flags.bmp_feeds {
        let spec = FeedSpec::BmpLive {
            name: name.clone(),
            addr: addr.clone(),
            ring_capacity: None,
            filter: None,
        };
        let handle = service
            .pipeline_mut()
            .attach_feed(spec.build(), artemis_simnet::SimTime::ZERO);
        println!("artemisd dialing BMP collector {addr} as {name} ({handle})");
    }

    let daemon_config = DaemonConfig {
        audit_path: flags.audit_log,
        webhooks: flags.webhooks,
    };
    let handle = Daemon::start(&flags.addr, service, daemon_config).map_err(|e| e.to_string())?;
    println!("artemisd listening on http://{}", handle.addr());
    handle.wait();
    println!("artemisd stopped");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let flags = match parse_flags(&args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("artemisd: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("artemisd: {e}");
            ExitCode::FAILURE
        }
    }
}

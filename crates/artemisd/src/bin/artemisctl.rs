//! `artemisctl` — command-line client for a running `artemisd`.
//!
//! Thin argument parser over [`artemisd::CtlClient`]; every subcommand
//! maps onto one control-plane endpoint and prints the daemon's JSON
//! reply on stdout.

use artemis_bgp::{AsPath, Asn, Prefix};
use artemis_core::{AlertId, EventCursor, MitigationPolicy, OwnedPrefix, ServiceCommand};
use artemis_feeds::{FeedHandle, FeedKind, FeedSpec, WireFeedEvent};
use artemis_simnet::SimTime;
use artemisd::CtlClient;
use serde::Serialize;
use std::process::ExitCode;

const USAGE: &str = "\
artemisctl — client for the ARTEMIS operator daemon

USAGE:
    artemisctl [--addr HOST:PORT] SUBCOMMAND [ARGS]

The default address is 127.0.0.1:8900. Subcommands taking --at SECS
apply the command at an explicit service-clock instant (seconds);
without it the daemon stamps its own clock.

SUBCOMMANDS:
    status                          full service snapshot
    prefixes                        owned-prefix table
    incidents                       incident table
    feeds                           feed-health table
    onboard PREFIX:ASN [--policy auto|confirm|detect] [--at SECS]
    offboard PREFIX [--at SECS]
    attach-feed ris-live|bgpmon COLLECTOR VANTAGE_ASN[,ASN...] [--at SECS]
    attach-feed bmp-live NAME HOST:PORT [--at SECS]
                                    dial a live RFC 7854 BMP collector
    detach-feed HANDLE [--at SECS]
    policy PREFIX auto|confirm|detect [--at SECS]
    confirm ALERT_ID [--at SECS]
    pause [--at SECS]
    resume [--at SECS]
    events [--cursor N] [--wait-ms M]
    inject --vantage ASN --prefix PREFIX --path \"ASN ASN ...\" [--at SECS]
                                    deliver one synthetic feed event
    audit [--from N]                the audit trail
    sinks                           registered alert sinks
    add-sink URL                    register a webhook alert sink
    metrics                         raw Prometheus scrape
    shutdown                        stop the daemon
    help                            print this text
";

fn take_flag(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    if let Some(pos) = args.iter().position(|a| a == name) {
        if pos + 1 >= args.len() {
            return Err(format!("{name} requires a value"));
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        Ok(Some(value))
    } else {
        Ok(None)
    }
}

fn take_at(args: &mut Vec<String>) -> Result<Option<SimTime>, String> {
    Ok(take_flag(args, "--at")?
        .map(|s| s.parse::<u64>().map_err(|e| format!("--at: {e}")))
        .transpose()?
        .map(SimTime::from_secs))
}

fn parse_policy(s: &str) -> Result<MitigationPolicy, String> {
    match s {
        "auto" => Ok(MitigationPolicy::Auto),
        "confirm" => Ok(MitigationPolicy::ConfirmFirst),
        "detect" => Ok(MitigationPolicy::DetectOnly),
        other => Err(format!("unknown policy {other} (auto|confirm|detect)")),
    }
}

fn parse_prefix(s: &str) -> Result<Prefix, String> {
    s.parse().map_err(|e| format!("bad prefix {s}: {e}"))
}

fn parse_handle(s: &str) -> Result<FeedHandle, String> {
    let id: u64 = s.parse().map_err(|e| format!("bad feed handle {s}: {e}"))?;
    serde_json::from_str(&id.to_string()).map_err(|e| format!("bad feed handle {s}: {e}"))
}

fn print_json<T: Serialize>(value: &T) -> Result<(), String> {
    let json = serde_json::to_string(value).map_err(|e| e.to_string())?;
    println!("{json}");
    Ok(())
}

fn expect_arg(args: &mut Vec<String>, what: &str) -> Result<String, String> {
    if args.is_empty() {
        Err(format!("missing {what} (try help)"))
    } else {
        Ok(args.remove(0))
    }
}

fn apply_and_print(
    client: &CtlClient,
    command: ServiceCommand,
    at: Option<SimTime>,
) -> Result<(), String> {
    print_json(&client.command(&{
        let mut env = artemis_core::CommandEnvelope::new(command);
        if let Some(at) = at {
            env = env.at(at);
        }
        env
    })?)
}

fn run(mut args: Vec<String>) -> Result<(), String> {
    let addr = take_flag(&mut args, "--addr")?.unwrap_or_else(|| "127.0.0.1:8900".into());
    let client = CtlClient::new(addr);
    let sub = expect_arg(&mut args, "subcommand")?;
    match sub.as_str() {
        "status" => print_json(&client.status()?),
        "prefixes" => print_json(&client.query(artemis_core::ServiceQuery::OwnedPrefixes)?),
        "incidents" => print_json(&client.query(artemis_core::ServiceQuery::Incidents)?),
        "feeds" => print_json(&client.query(artemis_core::ServiceQuery::Feeds)?),
        "onboard" => {
            let at = take_at(&mut args)?;
            let policy = take_flag(&mut args, "--policy")?
                .map(|p| parse_policy(&p))
                .transpose()?;
            let spec = expect_arg(&mut args, "PREFIX:ASN")?;
            let (prefix, origin) = spec
                .rsplit_once(':')
                .ok_or_else(|| format!("onboard wants PREFIX:ASN, got {spec}"))?;
            let origin: u32 = origin.parse().map_err(|e| format!("origin ASN: {e}"))?;
            let owned = OwnedPrefix::new(parse_prefix(prefix)?, Asn(origin));
            apply_and_print(
                &client,
                ServiceCommand::AddOwnedPrefix { owned, policy },
                at,
            )
        }
        "offboard" => {
            let at = take_at(&mut args)?;
            let prefix = parse_prefix(&expect_arg(&mut args, "PREFIX")?)?;
            apply_and_print(&client, ServiceCommand::RemoveOwnedPrefix { prefix }, at)
        }
        "attach-feed" => {
            let at = take_at(&mut args)?;
            let kind = expect_arg(&mut args, "ris-live|bgpmon|bmp-live")?;
            let feed = if kind == "bmp-live" {
                // bmp-live NAME HOST:PORT — dials a real BMP collector.
                let name = expect_arg(&mut args, "NAME")?;
                let addr = expect_arg(&mut args, "HOST:PORT")?;
                FeedSpec::BmpLive {
                    name,
                    addr,
                    ring_capacity: None,
                    filter: None,
                }
            } else {
                let collector = expect_arg(&mut args, "COLLECTOR")?;
                let vps = expect_arg(&mut args, "VANTAGE_ASN[,ASN...]")?;
                let vantage: Vec<Asn> = vps
                    .split(',')
                    .map(|v| v.trim().parse::<u32>().map(Asn))
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("vantage ASNs: {e}"))?;
                match kind.as_str() {
                    "ris-live" => FeedSpec::ris_live(&collector, vantage),
                    "bgpmon" => FeedSpec::bgpmon(&collector, vantage),
                    other => {
                        return Err(format!(
                            "unknown feed kind {other} (ris-live|bgpmon|bmp-live)"
                        ))
                    }
                }
            };
            apply_and_print(&client, ServiceCommand::AttachFeed { feed }, at)
        }
        "detach-feed" => {
            let at = take_at(&mut args)?;
            let handle = parse_handle(&expect_arg(&mut args, "HANDLE")?)?;
            apply_and_print(&client, ServiceCommand::DetachFeed { handle }, at)
        }
        "policy" => {
            let at = take_at(&mut args)?;
            let prefix = parse_prefix(&expect_arg(&mut args, "PREFIX")?)?;
            let policy = parse_policy(&expect_arg(&mut args, "POLICY")?)?;
            apply_and_print(
                &client,
                ServiceCommand::SetMitigationPolicy { prefix, policy },
                at,
            )
        }
        "confirm" => {
            let at = take_at(&mut args)?;
            let id: u64 = expect_arg(&mut args, "ALERT_ID")?
                .parse()
                .map_err(|e| format!("alert id: {e}"))?;
            apply_and_print(
                &client,
                ServiceCommand::ConfirmMitigation { alert: AlertId(id) },
                at,
            )
        }
        "pause" => {
            let at = take_at(&mut args)?;
            apply_and_print(&client, ServiceCommand::Pause, at)
        }
        "resume" => {
            let at = take_at(&mut args)?;
            apply_and_print(&client, ServiceCommand::Resume, at)
        }
        "events" => {
            let cursor = match take_flag(&mut args, "--cursor")? {
                None => EventCursor::START,
                Some(raw) => serde_json::from_str(&raw)
                    .map_err(|e| format!("--cursor must be a sequence number: {e}"))?,
            };
            let wait_ms = take_flag(&mut args, "--wait-ms")?
                .map(|w| w.parse::<u64>().map_err(|e| format!("--wait-ms: {e}")))
                .transpose()?
                .unwrap_or(0);
            print_json(&client.events(cursor, wait_ms)?)
        }
        "inject" => {
            let at = take_at(&mut args)?.unwrap_or(SimTime::ZERO);
            let vantage: u32 = take_flag(&mut args, "--vantage")?
                .ok_or("inject requires --vantage")?
                .parse()
                .map_err(|e| format!("--vantage: {e}"))?;
            let prefix = parse_prefix(
                &take_flag(&mut args, "--prefix")?.ok_or("inject requires --prefix")?,
            )?;
            let path_raw = take_flag(&mut args, "--path")?.ok_or("inject requires --path")?;
            let hops: Vec<u32> = path_raw
                .split_whitespace()
                .map(|h| h.parse::<u32>())
                .collect::<Result<_, _>>()
                .map_err(|e| format!("--path: {e}"))?;
            let as_path = AsPath::from_sequence(hops.iter().copied());
            let origin_as = as_path.origin();
            let event = WireFeedEvent {
                emitted_at: at,
                observed_at: at,
                source: FeedKind::RisLive,
                collector: "ctl".into(),
                vantage: Asn(vantage),
                prefix,
                as_path: Some(as_path),
                origin_as,
                raw: None,
            };
            print_json(&client.inject(vec![event])?)
        }
        "audit" => {
            let from = take_flag(&mut args, "--from")?
                .map(|f| f.parse::<u64>().map_err(|e| format!("--from: {e}")))
                .transpose()?
                .unwrap_or(0);
            print_json(&client.audit(from)?)
        }
        "sinks" => print_json(&client.sinks()?),
        "add-sink" => {
            let url = expect_arg(&mut args, "URL")?;
            print_json(&client.add_webhook(&url)?)
        }
        "metrics" => {
            print!("{}", client.metrics_text()?);
            Ok(())
        }
        "shutdown" => {
            client.shutdown()?;
            println!("{{\"shutting_down\":true}}");
            Ok(())
        }
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand {other} (try help)")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        print!("{USAGE}");
        return ExitCode::FAILURE;
    }
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("artemisctl: {e}");
            ExitCode::FAILURE
        }
    }
}

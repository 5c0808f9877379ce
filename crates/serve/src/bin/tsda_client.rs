//! `tsda_client` — a readiness probe, a `stats` reader and a one-shot
//! predict for `tsda_serve` and `tsda_router`.
//!
//! ```text
//! tsda_client --addr 127.0.0.1:7878 --wait-ready 30
//! tsda_client --stats
//! tsda_client --proto v2 --model rocket --series "1.0,2.0,...:0.5,..."
//! ```
//!
//! `--series` is one `.ts` data line (dimensions separated by `:`,
//! values by `,`, `?` for missing). The client decodes it before
//! connecting, so a series that does not parse never reaches the
//! server, and sends it in the `--proto` encoding. Every request runs
//! through the library's [`RetryingClient`]: timeouts, dropped
//! connections and `overloaded` sheds are retried with capped, jittered
//! backoff, up to `--retries` attempts of at most `--timeout-ms` each.
//!
//! Load runs belong to the benchmark (`python3 perfbench/run.py
//! --workload W`), which checks every reply against offline execution.

use serde::Value;
use std::time::Duration;
use tsda_serve::client::{wait_ready, Proto, RetryPolicy, RetryingClient, WireRequest};
use tsda_serve::protocol::decode_series;

struct Args {
    addr: String,
    wait_ready: Option<u64>,
    proto: Proto,
    stats: bool,
    model: Option<String>,
    series: Option<String>,
    retries: u32,
    timeout_ms: u64,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".into(),
            wait_ready: None,
            proto: Proto::Ndjson,
            stats: false,
            model: None,
            series: None,
            retries: 8,
            timeout_ms: 5000,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--wait-ready" => {
                args.wait_ready = Some(
                    value("--wait-ready")?.parse().map_err(|e| format!("--wait-ready: {e}"))?,
                );
            }
            "--proto" => args.proto = Proto::from_flag(&value("--proto")?)?,
            "--stats" => args.stats = true,
            "--model" => args.model = Some(value("--model")?),
            "--series" => args.series = Some(value("--series")?),
            "--retries" => {
                args.retries = value("--retries")?.parse().map_err(|e| format!("--retries: {e}"))?;
            }
            "--timeout-ms" => {
                args.timeout_ms =
                    value("--timeout-ms")?.parse().map_err(|e| format!("--timeout-ms: {e}"))?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: tsda_client [--addr A] [--wait-ready SECS] [--proto ndjson|v2]\n\
                     \x20                  [--stats] [--model M --series S]\n\
                     \x20                  [--retries N] [--timeout-ms MS]\n\
                     --wait-ready polls with pings until the server answers; --stats prints\n\
                     its counters; --model with --series predicts one series, given as a\n\
                     .ts data line (dims split by ':', values by ',', '?' for missing)."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn fetch_stats(addr: &str, proto: Proto, policy: RetryPolicy) -> Result<Value, String> {
    let mut client = RetryingClient::new_proto(addr.to_string(), policy, "stats", proto);
    let reply = client.round_trip_request(&WireRequest::simple(proto, 1, "stats"))?;
    if !reply.ok {
        return Err(reply.error.unwrap_or_else(|| "stats failed".into()));
    }
    reply.result.ok_or_else(|| "stats response had no result".into())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let policy = RetryPolicy {
        max_attempts: args.retries.max(1),
        timeout: Duration::from_millis(args.timeout_ms.max(1)),
        ..RetryPolicy::default()
    };

    if let Some(secs) = args.wait_ready {
        wait_ready(&args.addr, secs)?;
        println!("ready");
    }

    if args.stats {
        let stats = fetch_stats(&args.addr, args.proto, policy)?;
        println!(
            "{}",
            serde_json::to_string_pretty(&stats).expect("value trees always serialise")
        );
        return Ok(());
    }

    if let (Some(model), Some(series)) = (&args.model, &args.series) {
        let series = decode_series(series).map_err(|e| format!("--series: {e}"))?;
        let mut client = RetryingClient::new_proto(args.addr.clone(), policy, "single", args.proto);
        let reply = client.predict_mts(1, model, &series)?;
        if reply.ok {
            println!(
                "label {} (batch {}, {}us server-side)",
                reply.label.unwrap_or(0),
                reply.batch.unwrap_or(1),
                reply.micros.unwrap_or(0)
            );
            return Ok(());
        }
        return Err(reply.error.unwrap_or_else(|| "predict failed".into()));
    }

    if args.wait_ready.is_some() {
        return Ok(());
    }
    Err("nothing to do: pass --wait-ready, --stats, or --model with --series".into())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("tsda_client: {e}");
        std::process::exit(1);
    }
}

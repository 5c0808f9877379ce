//! `tsda_client` — single requests, readiness probing, and a
//! closed-loop load generator for `tsda_serve`.
//!
//! ```text
//! tsda_client --addr 127.0.0.1:7878 --wait-ready 30
//! tsda_client --model rocket --series "1.0,2.0,...:0.5,..."
//! tsda_client --stats
//! tsda_client --load --models rocket,inception --requests 400 \
//!             --concurrency 8 --dataset RacketSports --seed 7 \
//!             --retries 8 --timeout-ms 5000 --out BENCH_serve.json
//! tsda_client --load augment --pipelines light,heavy --requests 400 \
//!             --concurrency 8 --dataset RacketSports --seed 7
//! ```
//!
//! The load generator runs `--concurrency` closed-loop connections per
//! model (each sends one request, waits for the response, repeats),
//! records exact client-side latencies, and writes per-model
//! requests/sec + p50/p99/mean to `--out` together with the server's
//! own stats snapshot. Every path runs through the library's
//! [`RetryingClient`], so timeouts, dropped connections, and
//! `overloaded` sheds are retried with capped, jittered backoff — the
//! report includes how often that machinery fired (`retries`,
//! `reconnects`, `shed_backoffs`).
//!
//! `--load augment` swaps the op: each request runs one series through
//! a named server-side pipeline (`--pipelines p1,p2`), every reply's
//! series is checked bit-identical against the offline
//! `AugPipeline::apply_one` for the same `(seed, index)`, and the
//! report goes to `BENCH_augment.json` by default.

use serde::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tsda_core::Mts;
use tsda_datasets::registry::ALL_DATASETS;
use tsda_datasets::synth::{generate, GenOptions};
use tsda_augment::declarative::AugPipeline;
use tsda_serve::client::{
    predict_line, wait_ready, Proto, RetryPolicy, RetryingClient, WireRequest,
};
use tsda_serve::pipelines::PipelineRegistry;

struct Args {
    addr: String,
    wait_ready: Option<u64>,
    model: Option<String>,
    series: Option<String>,
    stats: bool,
    load: bool,
    load_augment: bool,
    models: Vec<String>,
    pipelines: Vec<String>,
    pipelines_file: Option<String>,
    requests: usize,
    concurrency: usize,
    dataset: String,
    seed: u64,
    retries: u32,
    timeout_ms: u64,
    out: String,
    proto: Proto,
    replicas: usize,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".into(),
            wait_ready: None,
            model: None,
            series: None,
            stats: false,
            load: false,
            load_augment: false,
            models: vec!["rocket".into()],
            pipelines: vec!["light".into()],
            pipelines_file: None,
            requests: 200,
            concurrency: 8,
            dataset: "RacketSports".into(),
            seed: 7,
            retries: 8,
            timeout_ms: 5000,
            out: String::new(),
            proto: Proto::Ndjson,
            replicas: 1,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--wait-ready" => {
                args.wait_ready = Some(
                    value("--wait-ready")?.parse().map_err(|e| format!("--wait-ready: {e}"))?,
                );
            }
            "--model" => args.model = Some(value("--model")?),
            "--series" => args.series = Some(value("--series")?),
            "--stats" => args.stats = true,
            "--load" => {
                args.load = true;
                // Optional mode value: `--load augment` (plain `--load`
                // stays the predict load generator).
                if it.peek().is_some_and(|v| v == "augment") {
                    let _mode = it.next();
                    args.load_augment = true;
                } else if it.peek().is_some_and(|v| v == "predict") {
                    let _mode = it.next();
                }
            }
            "--models" => {
                args.models = value("--models")?
                    .split(',')
                    .map(|s| s.trim().to_lowercase())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--pipelines" => {
                args.pipelines = value("--pipelines")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--pipelines-file" => args.pipelines_file = Some(value("--pipelines-file")?),
            "--requests" => {
                args.requests =
                    value("--requests")?.parse().map_err(|e| format!("--requests: {e}"))?;
            }
            "--concurrency" => {
                args.concurrency =
                    value("--concurrency")?.parse().map_err(|e| format!("--concurrency: {e}"))?;
            }
            "--dataset" => args.dataset = value("--dataset")?,
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--retries" => {
                args.retries = value("--retries")?.parse().map_err(|e| format!("--retries: {e}"))?;
            }
            "--timeout-ms" => {
                args.timeout_ms =
                    value("--timeout-ms")?.parse().map_err(|e| format!("--timeout-ms: {e}"))?;
            }
            "--out" => args.out = value("--out")?,
            "--proto" => args.proto = Proto::from_flag(&value("--proto")?)?,
            "--replicas" => {
                // A label recorded in bench rows (the router hides the
                // fleet size from the wire).
                args.replicas =
                    value("--replicas")?.parse().map_err(|e| format!("--replicas: {e}"))?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: tsda_client [--addr A] [--wait-ready SECS] [--proto ndjson|v2]\n\
                     \x20                  [--model M --series S] [--stats]\n\
                     \x20                  [--retries N] [--timeout-ms MS]\n\
                     \x20                  [--load --models m1,m2 --requests N --concurrency C\n\
                     \x20                   --dataset D --seed S --replicas N --out FILE]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.out.is_empty() {
        args.out =
            if args.load_augment { "BENCH_augment.json".into() } else { "BENCH_serve.json".into() };
    }
    Ok(args)
}

fn policy_of(args: &Args) -> RetryPolicy {
    RetryPolicy {
        max_attempts: args.retries.max(1),
        timeout: Duration::from_millis(args.timeout_ms.max(1)),
        jitter_seed: args.seed,
        ..RetryPolicy::default()
    }
}

/// Exact percentile over a sorted latency slice (nearest-rank).
fn percentile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

struct LoadResult {
    /// JSON key for the thing under load ("model" or "pipeline").
    unit: &'static str,
    model: String,
    protocol: Proto,
    replicas: usize,
    requests: usize,
    errors: usize,
    retries: u64,
    reconnects: u64,
    shed_backoffs: u64,
    elapsed_s: f64,
    latencies_us: Vec<u64>,
}

impl LoadResult {
    fn to_value(&self) -> Value {
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        let mean = if sorted.is_empty() {
            0.0
        } else {
            sorted.iter().sum::<u64>() as f64 / sorted.len() as f64
        };
        Value::Object(vec![
            (self.unit.into(), Value::Str(self.model.clone())),
            ("protocol".into(), Value::Str(self.protocol.name().to_string())),
            ("replicas".into(), Value::Num(self.replicas as f64)),
            ("requests".into(), Value::Num(self.requests as f64)),
            ("errors".into(), Value::Num(self.errors as f64)),
            ("retries".into(), Value::Num(self.retries as f64)),
            ("reconnects".into(), Value::Num(self.reconnects as f64)),
            ("shed_backoffs".into(), Value::Num(self.shed_backoffs as f64)),
            ("elapsed_s".into(), Value::Num(self.elapsed_s)),
            (
                "requests_per_s".into(),
                Value::Num(if self.elapsed_s > 0.0 {
                    self.requests as f64 / self.elapsed_s
                } else {
                    0.0
                }),
            ),
            ("p50_us".into(), Value::Num(percentile_us(&sorted, 0.50) as f64)),
            ("p99_us".into(), Value::Num(percentile_us(&sorted, 0.99) as f64)),
            ("mean_us".into(), Value::Num(mean)),
        ])
    }
}

/// What a closed-loop load worker sends.
#[derive(Clone)]
enum LoadOp {
    /// Predicts against a model.
    Predict,
    /// Augments through a pipeline; every reply is checked bit-for-bit
    /// against the offline pipeline when one was loaded.
    Augment(Option<Arc<AugPipeline>>),
}

/// Closed-loop load against one model or pipeline: `concurrency`
/// worker threads, each with its own retrying client, splitting
/// `requests` between them. A served augment that diverges from the
/// offline pipeline is a hard error.
fn run_load(
    args: &Args,
    target: &str,
    op: &LoadOp,
    series: &[Mts],
    policy: RetryPolicy,
) -> Result<LoadResult, String> {
    let requests = args.requests;
    let concurrency = args.concurrency.max(1);
    let proto = args.proto;
    let seed = args.seed;
    let started = Instant::now();
    let mut handles = Vec::new();
    for worker in 0..concurrency {
        let n = requests / concurrency + usize::from(worker < requests % concurrency);
        let addr = args.addr.to_string();
        let target = target.to_string();
        let series = series.to_vec();
        let op = op.clone();
        handles.push(std::thread::spawn(
            move || -> Result<(Vec<u64>, usize, RetryingClient), String> {
                let label = if matches!(op, LoadOp::Predict) { "load" } else { "aug" };
                let mut client =
                    RetryingClient::new_proto(addr, policy, &format!("{label}-{worker}"), proto);
                let mut latencies = Vec::with_capacity(n);
                let mut errors = 0usize;
                for i in 0..n {
                    let g = worker + i * concurrency;
                    let s = &series[g % series.len()];
                    let index = g as u64;
                    let t0 = Instant::now();
                    let reply = match &op {
                        LoadOp::Predict => client.predict_mts(i as u64 + 1, &target, s)?,
                        LoadOp::Augment(_) => {
                            client.augment_mts(i as u64 + 1, &target, seed, index, s)?
                        }
                    };
                    latencies.push(t0.elapsed().as_micros() as u64);
                    if !reply.ok {
                        errors += 1;
                        continue;
                    }
                    let LoadOp::Augment(offline) = &op else { continue };
                    let Some(got) = reply.series else {
                        return Err(format!("{target}: ok reply without a series"));
                    };
                    if offline.as_ref().is_some_and(|pipe| got != pipe.apply_one(s, seed, index)) {
                        return Err(format!(
                            "{target}: served series diverged from offline at index {index}"
                        ));
                    }
                }
                Ok((latencies, errors, client))
            },
        ));
    }
    let mut latencies_us = Vec::with_capacity(requests);
    let mut errors = 0;
    let (mut retries, mut reconnects, mut shed_backoffs) = (0u64, 0u64, 0u64);
    for h in handles {
        let (lat, err, client) = h.join().map_err(|_| "load worker panicked".to_string())??;
        latencies_us.extend(lat);
        errors += err;
        let c = client.counters();
        retries += c.retries;
        reconnects += c.reconnects;
        shed_backoffs += c.shed_backoffs;
    }
    Ok(LoadResult {
        unit: if matches!(op, LoadOp::Predict) { "model" } else { "pipeline" },
        model: target.to_string(),
        protocol: proto,
        replicas: args.replicas,
        requests,
        errors,
        retries,
        reconnects,
        shed_backoffs,
        elapsed_s: started.elapsed().as_secs_f64(),
        latencies_us,
    })
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
    let policy = policy_of(&args);

    if let Some(secs) = args.wait_ready {
        wait_ready(&args.addr, secs)?;
        println!("ready");
        if !args.load && args.model.is_none() && !args.stats {
            return Ok(());
        }
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
        let mut client = RetryingClient::new(args.addr.clone(), policy, "single");
        let reply = client.round_trip(&predict_line(1, model, series))?;
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

    if args.load {
        let meta = ALL_DATASETS
            .iter()
            .find(|m| m.name.eq_ignore_ascii_case(&args.dataset))
            .ok_or_else(|| format!("unknown dataset {:?}", args.dataset))?;
        let tt = generate(meta, &GenOptions::ci(args.seed));
        let series: Vec<Mts> = tt.test.series().to_vec();
        if series.is_empty() {
            return Err("dataset generated no test series".into());
        }
        let offline = match &args.pipelines_file {
            Some(path) if args.load_augment => Some(
                PipelineRegistry::from_file(std::path::Path::new(path))
                    .map_err(|e| format!("load {path}: {e}"))?,
            ),
            _ => None,
        };
        let (what, unit, targets) = if args.load_augment {
            ("augment load", "pipeline", &args.pipelines)
        } else {
            ("load", "model", &args.models)
        };
        let mut entries = Vec::new();
        for target in targets {
            eprintln!(
                "{what}: {unit} {target}, {} requests, concurrency {}, proto {}{}",
                args.requests,
                args.concurrency,
                args.proto.name(),
                if offline.is_some() { ", verifying against offline" } else { "" }
            );
            let op = if args.load_augment {
                let pipe = offline.as_ref().map(|reg| {
                    reg.get(target)
                        .cloned()
                        .ok_or_else(|| format!("pipeline {target:?} not in --pipelines-file"))
                });
                LoadOp::Augment(pipe.transpose()?)
            } else {
                LoadOp::Predict
            };
            let result = run_load(&args, target, &op, &series, policy)?;
            eprintln!(
                "{what}: {target}: {:.0} req/s, {} errors, {} retries, {} reconnects",
                result.requests as f64 / result.elapsed_s.max(1e-9),
                result.errors,
                result.retries,
                result.reconnects
            );
            entries.push(result.to_value());
        }
        let server_stats = fetch_stats(&args.addr, args.proto, policy).unwrap_or(Value::Null);
        let mut report = vec![
            ("dataset".into(), Value::Str(meta.name.to_string())),
            ("seed".into(), Value::Num(args.seed as f64)),
            ("concurrency".into(), Value::Num(args.concurrency as f64)),
            ("protocol".into(), Value::Str(args.proto.name().to_string())),
            ("replicas".into(), Value::Num(args.replicas as f64)),
        ];
        if args.load_augment {
            report.push(("verified_offline".into(), Value::Bool(offline.is_some())));
        }
        report.push((format!("{unit}s"), Value::Array(entries)));
        report.push(("server_stats".into(), server_stats));
        let text = serde_json::to_string_pretty(&Value::Object(report))
            .expect("value trees always serialise");
        std::fs::write(&args.out, text + "\n").map_err(|e| format!("write {}: {e}", args.out))?;
        println!("wrote {}", args.out);
        return Ok(());
    }

    if args.wait_ready.is_some() {
        return Ok(());
    }
    Err("nothing to do: pass --wait-ready, --stats, --model+--series, or --load".into())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("tsda_client: {e}");
        std::process::exit(1);
    }
}

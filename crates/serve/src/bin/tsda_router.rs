//! `tsda_router` — front a fleet of `tsda_serve` replicas.
//!
//! ```text
//! tsda_router --addr 127.0.0.1:7979 --replicas 2 --models rocket,inception \
//!             --dataset RacketSports --seed 7 --dir models --fast \
//!             --route least-loaded --quota-rps 500
//! ```
//!
//! When a `--models` entry has no `<dir>/<model>.tsda` yet, the router
//! first runs the serve binary once with `--max-seconds 0` so every
//! model is trained and saved into `--dir` (one process, so `--shard`
//! replicas never race on a save); when every file is there it skips
//! that pass. It then spawns `--replicas` server processes together,
//! and they all load those exact files — replicas are byte-for-byte
//! the same models, so routing policy can never change a label. A
//! replica that loads its models from disk never generates the
//! dataset. With `--shard`, models are partitioned round-robin across
//! replicas instead of replicated everywhere.
//!
//! Replicas bind ephemeral ports; the router learns each address from
//! the `listening on <addr>` readiness line, health-checks the fleet,
//! and respawns replicas that die. Clients talk to the router address
//! with either wire protocol; predicts are relayed verbatim.

use std::time::{Duration, Instant};
use tsda_serve::admission::AdmissionConfig;
use tsda_serve::registry::model_path;
use tsda_serve::router::{ReplicaSpec, RoutePolicy, Router, RouterConfig};
use tsda_serve::signal;

struct Args {
    addr: String,
    replicas: usize,
    models: Vec<String>,
    dataset: String,
    seed: u64,
    dir: String,
    fast: bool,
    shard: bool,
    route: RoutePolicy,
    quota_rps: Option<f64>,
    quota_burst: f64,
    max_batch: usize,
    max_wait_ms: u64,
    queue_cap: Option<usize>,
    serve_bin: Option<String>,
    max_seconds: Option<u64>,
    pipelines: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7979".into(),
            replicas: 2,
            models: vec!["rocket".into()],
            dataset: "RacketSports".into(),
            seed: 7,
            dir: "models".into(),
            fast: false,
            shard: false,
            route: RoutePolicy::default(),
            quota_rps: None,
            quota_burst: 32.0,
            max_batch: 32,
            max_wait_ms: 2,
            queue_cap: None,
            serve_bin: None,
            max_seconds: None,
            pipelines: None,
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
            "--replicas" => {
                args.replicas =
                    value("--replicas")?.parse().map_err(|e| format!("--replicas: {e}"))?;
            }
            "--models" => {
                args.models = value("--models")?
                    .split(',')
                    .map(|s| s.trim().to_lowercase())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--dataset" => args.dataset = value("--dataset")?,
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--dir" => args.dir = value("--dir")?,
            "--fast" => args.fast = true,
            "--shard" => args.shard = true,
            "--route" => args.route = RoutePolicy::from_flag(&value("--route")?)?,
            "--quota-rps" => {
                args.quota_rps =
                    Some(value("--quota-rps")?.parse().map_err(|e| format!("--quota-rps: {e}"))?);
            }
            "--quota-burst" => {
                args.quota_burst =
                    value("--quota-burst")?.parse().map_err(|e| format!("--quota-burst: {e}"))?;
            }
            "--max-batch" => {
                args.max_batch =
                    value("--max-batch")?.parse().map_err(|e| format!("--max-batch: {e}"))?;
            }
            "--max-wait-ms" => {
                args.max_wait_ms =
                    value("--max-wait-ms")?.parse().map_err(|e| format!("--max-wait-ms: {e}"))?;
            }
            "--queue-cap" => {
                args.queue_cap =
                    Some(value("--queue-cap")?.parse().map_err(|e| format!("--queue-cap: {e}"))?);
            }
            "--serve-bin" => args.serve_bin = Some(value("--serve-bin")?),
            "--pipelines" => args.pipelines = Some(value("--pipelines")?),
            "--max-seconds" => {
                args.max_seconds = Some(
                    value("--max-seconds")?.parse().map_err(|e| format!("--max-seconds: {e}"))?,
                );
            }
            "--help" | "-h" => {
                println!(
                    "usage: tsda_router [--addr A] [--replicas N] [--models m1,m2] [--dataset D]\n\
                     \x20                  [--seed S] [--dir MODELDIR] [--fast] [--shard]\n\
                     \x20                  [--route least-loaded|hash] [--quota-rps R]\n\
                     \x20                  [--quota-burst B] [--max-batch N] [--max-wait-ms MS]\n\
                     \x20                  [--queue-cap N] [--serve-bin PATH] [--max-seconds S]\n\
                     \x20                  [--pipelines PIPELINES.toml]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.models.is_empty() {
        return Err("--models list is empty".into());
    }
    if args.replicas == 0 {
        return Err("--replicas must be at least 1".into());
    }
    Ok(args)
}

/// Locate the `tsda_serve` binary: `--serve-bin` wins, otherwise the
/// sibling of this executable (both bins install to the same dir).
fn serve_bin_path(args: &Args) -> Result<String, String> {
    if let Some(bin) = &args.serve_bin {
        return Ok(bin.clone());
    }
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let sibling = me.with_file_name(format!("tsda_serve{}", std::env::consts::EXE_SUFFIX));
    if sibling.exists() {
        return Ok(sibling.to_string_lossy().into_owned());
    }
    Err(format!("tsda_serve not found at {sibling:?}; pass --serve-bin PATH"))
}

/// One warm-up run of the serve binary with `--max-seconds 0`, when
/// some model has no file in `--dir` yet: it trains every missing model,
/// saves it and exits, so the replicas spawned next all load identical
/// bytes instead of each training its own copy.
fn pretrain(bin: &str, args: &Args) -> Result<(), String> {
    let missing: Vec<&str> = args
        .models
        .iter()
        .filter(|m| !model_path(&args.dir, m).exists())
        .map(String::as_str)
        .collect();
    if missing.is_empty() {
        return Ok(());
    }
    let mut cmd = std::process::Command::new(bin);
    cmd.args([
        "--addr",
        "127.0.0.1:0",
        "--models",
        &args.models.join(","),
        "--dataset",
        &args.dataset,
        "--seed",
        &args.seed.to_string(),
        "--dir",
        &args.dir,
        "--max-seconds",
        "0",
    ]);
    if args.fast {
        cmd.arg("--fast");
    }
    cmd.stdout(std::process::Stdio::null());
    let t0 = Instant::now();
    let status = cmd.status().map_err(|e| format!("pretrain spawn {bin}: {e}"))?;
    if !status.success() {
        return Err(format!("pretrain run failed ({status})"));
    }
    eprintln!(
        "pretrain pass for [{}] done in {:.1}s (models in {})",
        missing.join(", "),
        t0.elapsed().as_secs_f64(),
        args.dir
    );
    Ok(())
}

/// Build the argument list for one replica serving `models`.
fn replica_args(args: &Args, models: &[String]) -> Vec<String> {
    let mut out = vec![
        "--addr".into(),
        "127.0.0.1:0".into(),
        "--models".into(),
        models.join(","),
        "--dataset".into(),
        args.dataset.clone(),
        "--seed".into(),
        args.seed.to_string(),
        "--dir".into(),
        args.dir.clone(),
        "--max-batch".into(),
        args.max_batch.to_string(),
        "--max-wait-ms".into(),
        args.max_wait_ms.to_string(),
    ];
    if let Some(cap) = args.queue_cap {
        out.push("--queue-cap".into());
        out.push(cap.to_string());
    }
    if args.fast {
        out.push("--fast".into());
    }
    // Pipelines are replicated, never sharded: every replica loads the
    // same TOML so the router can send an augment anywhere.
    if let Some(pipelines) = &args.pipelines {
        out.push("--pipelines".into());
        out.push(pipelines.clone());
    }
    out
}

/// Shard placement: `--shard` deals models round-robin across the
/// fleet (replica i gets models i, i+R, …); otherwise every replica
/// serves every model.
fn placement(args: &Args) -> Vec<Vec<String>> {
    if !args.shard {
        return vec![args.models.clone(); args.replicas];
    }
    let mut shards = vec![Vec::new(); args.replicas];
    for (i, model) in args.models.iter().enumerate() {
        shards[i % args.replicas].push(model.clone());
    }
    // Fewer models than replicas leaves empty shards; wrap those
    // replicas onto the full list so capacity is never wasted.
    for shard in &mut shards {
        if shard.is_empty() {
            *shard = args.models.clone();
        }
    }
    shards
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let bin = serve_bin_path(&args)?;
    pretrain(&bin, &args)?;

    let replicas: Vec<ReplicaSpec> = placement(&args)
        .into_iter()
        .map(|models| ReplicaSpec::Spawn {
            bin: bin.clone(),
            args: replica_args(&args, &models),
            models,
        })
        .collect();

    signal::install();
    let config = RouterConfig {
        addr: args.addr.clone(),
        replicas,
        policy: args.route,
        admission: args.quota_rps.map(|rps| AdmissionConfig::new(rps, args.quota_burst)),
        ..RouterConfig::default()
    };
    if let Some(adm) = &config.admission {
        eprintln!("admission control: {} req/s per client, burst {}", adm.rate_per_s, adm.burst);
    }
    let handle = Router::start(config).map_err(|e| format!("router: {e}"))?;
    // Same readiness line as tsda_serve, so wait_ready/scripts work
    // unchanged against the router.
    println!("listening on {}", handle.addr());
    eprintln!(
        "routing [{}] over {} replicas ({}, shard={})",
        args.models.join(", "),
        args.replicas,
        args.route.name(),
        args.shard
    );

    let started = Instant::now();
    while !signal::shutdown_requested() {
        if let Some(limit) = args.max_seconds {
            if started.elapsed() >= Duration::from_secs(limit) {
                eprintln!("--max-seconds {limit} reached");
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    eprintln!("shutting down");
    let snap = handle.snapshot();
    let restarts = handle.restarts_total();
    handle.shutdown();
    eprintln!(
        "routed {} requests ({} forwarded, {} throttled, {} failovers, {} errors, {} restarts)",
        snap.get("requests").and_then(serde::Value::as_f64).unwrap_or(0.0),
        snap.get("forwarded").and_then(serde::Value::as_f64).unwrap_or(0.0),
        snap.get("throttled").and_then(serde::Value::as_f64).unwrap_or(0.0),
        snap.get("failovers").and_then(serde::Value::as_f64).unwrap_or(0.0),
        snap.get("errors").and_then(serde::Value::as_f64).unwrap_or(0.0),
        restarts
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("tsda_router: {e}");
        std::process::exit(1);
    }
}

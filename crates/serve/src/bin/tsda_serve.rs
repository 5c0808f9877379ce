//! `tsda_serve` — train-or-load models, then serve prediction traffic.
//!
//! ```text
//! tsda_serve --models rocket,inception --dataset RacketSports --dir models \
//!            --addr 127.0.0.1:7878 --max-batch 32 --max-wait-ms 2 --fast
//! ```
//!
//! For each requested model the bin loads `<dir>/<model>.tsda` when the
//! file exists, otherwise trains on the named simulated dataset
//! (laptop-scale `GenOptions::ci(seed)`) and saves it there, so restarts
//! reuse the fitted model byte-for-byte. The dataset is generated only
//! to train a model or to give a `ridge` model its input shape: a start
//! that loads ROCKET, MiniRocket or InceptionTime from `--dir` never
//! synthesises it. SIGINT/SIGTERM flip the
//! shutdown flag; the server drains every accepted request, prints a
//! final stats snapshot, and exits 0.
//!
//! `--fault-seed N` (or the `TSDA_FAULT_SEED` env var; the flag wins)
//! arms the deterministic fault-injection plan with seed N — dropped
//! and torn writes, corrupted request bytes, worker stalls, load
//! shedding — and prints the per-kind injection log at shutdown.
//! Seed 0 keeps faults off.

use std::cell::OnceCell;
use std::time::{Duration, Instant};
use tsda_classify::persist::{load_model, save_model, SavedModel};
use tsda_classify::{
    Classifier, InceptionTime, InceptionTimeConfig, MiniRocket, MiniRocketConfig, RidgeClassifier,
    Rocket, RocketConfig,
};
use tsda_core::rng::seeded;
use tsda_core::Dataset;
use tsda_datasets::registry::{DatasetMeta, ALL_DATASETS};
use tsda_datasets::synth::{generate, GenOptions};
use tsda_neuro::train::TrainConfig;
use tsda_serve::admission::AdmissionConfig;
use tsda_serve::batcher::BatchConfig;
use tsda_serve::faults::FaultPlan;
use tsda_serve::pipelines::PipelineRegistry;
use tsda_serve::registry::{model_path, ModelEntry, ModelRegistry};
use tsda_serve::server::{serve, ServerConfig};
use tsda_serve::signal;

struct Args {
    addr: String,
    models: Vec<String>,
    dataset: String,
    seed: u64,
    dir: Option<String>,
    max_batch: usize,
    max_wait_ms: u64,
    queue_cap: usize,
    fast: bool,
    max_seconds: Option<u64>,
    fault_seed: Option<u64>,
    quota_rps: Option<f64>,
    quota_burst: f64,
    pipelines: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".into(),
            models: vec!["rocket".into()],
            dataset: "RacketSports".into(),
            seed: 7,
            dir: None,
            max_batch: 32,
            max_wait_ms: 2,
            queue_cap: BatchConfig::default().queue_cap,
            fast: false,
            max_seconds: None,
            fault_seed: None,
            quota_rps: None,
            quota_burst: 32.0,
            pipelines: None,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--models" => {
                args.models = value("--models")?
                    .split(',')
                    .map(|s| s.trim().to_lowercase())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--dataset" => args.dataset = value("--dataset")?,
            "--seed" => {
                args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--dir" => args.dir = Some(value("--dir")?),
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
                    value("--queue-cap")?.parse().map_err(|e| format!("--queue-cap: {e}"))?;
            }
            "--fast" => args.fast = true,
            "--max-seconds" => {
                args.max_seconds = Some(
                    value("--max-seconds")?.parse().map_err(|e| format!("--max-seconds: {e}"))?,
                );
            }
            "--fault-seed" => {
                args.fault_seed = Some(
                    value("--fault-seed")?.parse().map_err(|e| format!("--fault-seed: {e}"))?,
                );
            }
            "--quota-rps" => {
                args.quota_rps = Some(
                    value("--quota-rps")?.parse().map_err(|e| format!("--quota-rps: {e}"))?,
                );
            }
            "--quota-burst" => {
                args.quota_burst =
                    value("--quota-burst")?.parse().map_err(|e| format!("--quota-burst: {e}"))?;
            }
            "--pipelines" => args.pipelines = Some(value("--pipelines")?),
            "--help" | "-h" => {
                println!(
                    "usage: tsda_serve [--addr A] [--models m1,m2] [--dataset D] [--seed S]\n\
                     \x20                 [--dir MODELDIR] [--max-batch N] [--max-wait-ms MS]\n\
                     \x20                 [--queue-cap N] [--fast] [--max-seconds S]\n\
                     \x20                 [--fault-seed N] [--quota-rps R] [--quota-burst B]\n\
                     \x20                 [--pipelines PIPELINES.toml]\n\
                     models: rocket minirocket ridge inception"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.models.is_empty() {
        return Err("--models list is empty".into());
    }
    Ok(args)
}

fn dataset_meta(name: &str) -> Result<&'static DatasetMeta, String> {
    ALL_DATASETS
        .iter()
        .find(|m| m.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown dataset {name:?}"))
}

/// The `--dataset` training split, generated on first use.
struct TrainingData {
    meta: &'static DatasetMeta,
    seed: u64,
    train: OnceCell<Dataset>,
}

impl TrainingData {
    fn train_split(&self) -> &Dataset {
        self.train.get_or_init(|| {
            eprintln!("generating dataset {} (seed {})", self.meta.name, self.seed);
            generate(self.meta, &GenOptions::ci(self.seed)).train
        })
    }

    /// `(n_dims, series_len)` of the training series.
    fn series_shape(&self) -> (usize, usize) {
        let s = &self.train_split().series()[0];
        (s.n_dims(), s.len())
    }
}

fn flatten(ds: &Dataset) -> Vec<Vec<f64>> {
    ds.series().iter().map(|s| s.as_flat().to_vec()).collect()
}

/// Train one model by kind name; seeds are derived per kind so the
/// ensemble of served models is deterministic in `--seed`.
fn train_model(kind: &str, train: &Dataset, fast: bool, seed: u64) -> Result<SavedModel, String> {
    let mut rng = seeded(seed ^ (kind.len() as u64) << 32);
    match kind {
        "rocket" => {
            let config = RocketConfig {
                n_kernels: if fast { 200 } else { RocketConfig::default().n_kernels },
            };
            let mut m = Rocket::new(config);
            m.fit(train, None, &mut rng);
            Ok(SavedModel::Rocket(m))
        }
        "minirocket" => {
            let config = MiniRocketConfig {
                n_features: if fast { 168 } else { MiniRocketConfig::default().n_features },
            };
            let mut m = MiniRocket::new(config);
            m.fit(train, None, &mut rng);
            Ok(SavedModel::MiniRocket(m))
        }
        "ridge" => {
            let mut m = RidgeClassifier::default();
            m.fit_features(&flatten(train), train.labels(), train.n_classes());
            Ok(SavedModel::Ridge(m))
        }
        "inception" => {
            let config = if fast {
                InceptionTimeConfig {
                    filters: 2,
                    depth: 3,
                    kernel_sizes: [9, 5, 3],
                    ensemble: 1,
                    train_fraction: 2.0 / 3.0,
                    train: TrainConfig { max_epochs: 3, batch_size: 16, patience: 3, lr: 1e-3 },
                    use_lr_range_test: false,
                }
            } else {
                InceptionTimeConfig::default()
            };
            let mut m = InceptionTime::new(config);
            m.fit(train, None, &mut rng);
            Ok(SavedModel::InceptionTime(m))
        }
        other => Err(format!("unknown model kind {other:?} (rocket|minirocket|ridge|inception)")),
    }
}

fn obtain_model(
    kind: &str,
    dir: Option<&str>,
    data: &TrainingData,
    fast: bool,
    seed: u64,
) -> Result<SavedModel, String> {
    let path = dir.map(|d| model_path(d, kind));
    if let Some(p) = &path {
        if p.exists() {
            let shown = p.display();
            let model = load_model(p).map_err(|e| format!("load {shown}: {e}"))?;
            if model.kind() != tsda_kind(kind) {
                return Err(format!("{shown} holds a {:?} model, expected {kind}", model.kind()));
            }
            eprintln!("loaded {kind} from {shown}");
            return Ok(model);
        }
    }
    let t0 = Instant::now();
    let mut model = train_model(kind, data.train_split(), fast, seed)?;
    eprintln!("trained {kind} in {:.1}s", t0.elapsed().as_secs_f64());
    if let Some(p) = &path {
        let shown = p.display();
        if let Some(parent) = p.parent() {
            std::fs::create_dir_all(parent).map_err(|e| format!("mkdir {parent:?}: {e}"))?;
        }
        save_model(&mut model, p).map_err(|e| format!("save {shown}: {e}"))?;
        eprintln!("saved {kind} to {shown}");
    }
    Ok(model)
}

fn tsda_kind(name: &str) -> &'static str {
    match name {
        "rocket" => tsda_classify::rocket::ROCKET_KIND,
        "minirocket" => tsda_classify::minirocket::MINIROCKET_KIND,
        "ridge" => tsda_classify::ridge::RIDGE_KIND,
        "inception" => tsda_classify::inception::INCEPTION_KIND,
        _ => "?",
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let meta = dataset_meta(&args.dataset)?;
    let data = TrainingData { meta, seed: args.seed, train: OnceCell::new() };

    let mut registry = ModelRegistry::new();
    for kind in &args.models {
        let saved = obtain_model(kind, args.dir.as_deref(), &data, args.fast, args.seed)?;
        // A ridge file stores only its feature count; the dataset
        // factors it into the served (n_dims, series_len).
        let ridge_shape = matches!(saved, SavedModel::Ridge(_)).then(|| data.series_shape());
        let entry = ModelEntry::from_saved(kind, saved, ridge_shape)
            .map_err(|e| format!("register {kind}: {e}"))?;
        registry.insert(entry);
    }
    // Training is over: the dataset is not held while serving.
    drop(data);
    let shape = args
        .models
        .first()
        .and_then(|m| registry.get(m))
        .map_or((0, 0), ModelEntry::input_shape);

    signal::install();
    // --fault-seed wins over the env var; 0 means off either way.
    let faults = match args.fault_seed {
        Some(0) => None,
        Some(seed) => Some(std::sync::Arc::new(FaultPlan::seeded(seed))),
        None => FaultPlan::from_env(),
    };
    if let Some(plan) = &faults {
        eprintln!("fault injection armed (seed {})", plan.seed());
    }
    let pipelines = match &args.pipelines {
        Some(path) => {
            let reg = PipelineRegistry::from_file(std::path::Path::new(path))
                .map_err(|e| format!("load pipelines {path}: {e}"))?;
            eprintln!("loaded {} augmentation pipelines [{}]", reg.len(), reg.names().join(", "));
            Some(std::sync::Arc::new(reg))
        }
        None => None,
    };
    let config = ServerConfig {
        addr: args.addr.clone(),
        batch: BatchConfig {
            max_batch: args.max_batch,
            max_wait: Duration::from_millis(args.max_wait_ms),
            queue_cap: args.queue_cap,
        },
        faults: faults.clone(),
        admission: args.quota_rps.map(|rps| AdmissionConfig::new(rps, args.quota_burst)),
        pipelines,
    };
    if let Some(adm) = &config.admission {
        eprintln!(
            "admission control: {} req/s per client, burst {}",
            adm.rate_per_s, adm.burst
        );
    }
    let handle = serve(registry, config).map_err(|e| format!("serve: {e}"))?;
    // The readiness line clients grep for (also carries the resolved
    // ephemeral port when --addr ends in :0).
    println!("listening on {}", handle.addr());
    eprintln!(
        "serving models [{}] over {} series shape {}x{}",
        args.models.join(", "),
        meta.name,
        shape.0,
        shape.1
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
    let snap = handle.stats().snapshot();
    handle.shutdown();
    eprintln!(
        "served {} requests ({} errors, {} shed, {} throttled) in {} batches, mean batch {:.2}, \
         p50 {}us p99 {}us",
        snap.requests,
        snap.errors,
        snap.shed,
        snap.throttled,
        snap.batches,
        snap.mean_batch,
        snap.request_p50_us,
        snap.request_p99_us
    );
    if let Some(plan) = &faults {
        eprintln!("faults injected/offered: {}", plan.summary());
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("tsda_serve: {e}");
        std::process::exit(1);
    }
}

//! `perfbench` — the tsda benchmark: one command per workload that runs
//! it, checks every output against the offline reference, and prints
//! every metric by name and unit.
//!
//! ```text
//! perfbench --workload predict-closed --seed 7 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a separate traced run with
//! `--trace 1`. A failed check exits non-zero. Run it through
//! `python3 perfbench/run.py`, which builds the served binaries and this
//! one first; README.md explains every workload and metric.

mod env;
mod gr;
mod metrics;
mod serving;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// The benchmark's named workloads (README.md says why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop v2 predicts with ROCKET, direct to `tsda_serve`.
    PredictClosed,
    /// Closed-loop NDJSON augments over the four served pipelines.
    AugmentNdjson,
    /// Closed-loop v2 predicts with InceptionTime through `tsda_router`.
    PredictRouter,
    /// The G_r cells of `augment_sweep`, in-process.
    GrOffline,
}

impl Workload {
    /// Every workload. `BENCHMARK.json` lists all but `gr-offline`, in
    /// this order.
    pub const ALL: [Workload; 4] = [
        Self::PredictClosed,
        Self::AugmentNdjson,
        Self::PredictRouter,
        Self::GrOffline,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Self::PredictClosed => "predict-closed",
            Self::AugmentNdjson => "augment-ndjson",
            Self::PredictRouter => "predict-router",
            Self::GrOffline => "gr-offline",
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    /// Workload seed: the generated inputs (and the served models'
    /// training data) derive from it.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Run the traced variant and report per-layer metrics.
    pub trace: bool,
    /// Scratch space for model files, logs and the span dump.
    pub work_dir: PathBuf,
    /// Where `tsda_serve` and `tsda_router` live.
    pub bin_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 7;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    let mut bin_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} outside (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--work-dir" => work_dir = PathBuf::from(value()?),
            "--bin-dir" => bin_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("--workload is required ({})", names.join("|"))
    })?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        work_dir,
        bin_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: create {}: {e}", args.work_dir.display());
        return ExitCode::FAILURE;
    }
    // The pool runs at nproc workers, as the served processes do
    // (TSDA_THREADS is set for them).
    tsda_core::parallel::ThreadLimit::set(env::nproc());
    let result = match args.workload {
        Workload::GrOffline => gr::run(&args),
        _ => serving::run(&args),
    };
    match result {
        Ok(outcome) => {
            metrics::print(&args, &stamp(&args), &outcome);
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

/// The environment every result is stamped with.
fn stamp(args: &Args) -> String {
    let batch = tsda_serve::BatchConfig::default();
    let proto = match args.workload {
        Workload::PredictClosed | Workload::PredictRouter => "v2",
        Workload::AugmentNdjson => "ndjson",
        Workload::GrOffline => "none",
    };
    format!(
        "nproc={} available_parallelism={} simd={} threads={} max_batch={} max_wait_ms={} \
         queue_cap={} proto={proto} conns={} seed={} commit={}",
        env::nproc(),
        env::available_parallelism(),
        tsda_linalg::simd::level().name(),
        tsda_core::parallel::ThreadLimit::get(),
        batch.max_batch,
        batch.max_wait.as_millis(),
        batch.queue_cap,
        serving::CONNS,
        args.seed,
        env::commit()
    )
}

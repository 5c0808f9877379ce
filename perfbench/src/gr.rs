//! The G_r workload: the augment → ROCKET → score cells behind the
//! paper's relative gain G_r (Eq. 3), exactly as `augment_sweep` runs
//! them at CI scale (2 runs, the baseline plus the four served
//! policies), in this process on the shared pool. No network and no
//! batcher: the pool, linalg, the ROCKET transform and the augmenters do
//! all the work.

use crate::metrics::Outcome;
use crate::serving::load_pipes;
use crate::stats::{lower_decile_of_percentiles, median, percentile, sorted};
use crate::trace::Trace;
use crate::{env, Args};
use serde::Value;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tsda_augment::declarative::AugPipeline;
use tsda_bench::scale::ScaleProfile;
use tsda_classify::encode::preprocess_dataset;
use tsda_classify::{Classifier, RidgeClassifier, Rocket};
use tsda_core::math::sum_stable;
use tsda_core::parallel::{Pool, ThreadLimit};
use tsda_core::rng::{derive_seed, seeded};
use tsda_core::Dataset;
use tsda_datasets::registry::ALL_DATASETS;
use tsda_datasets::synth::generate;
use tsda_linalg::eig::SymmetricEig;
use tsda_linalg::matrix::Matrix;

/// The datasets whose cells run. PEMS-SF has the widest series (24
/// dimensions at CI scale), so the transform and the augmenters
/// dominate its cells; Heartbeat has the most training series of the
/// sub-second datasets, so ridge's LOOCV eigendecomposition carries a
/// larger share there. Both keep a whole sweep well under the window,
/// so every run times several complete sweeps.
pub const DATASETS: [&str; 2] = ["PEMS-SF", "Heartbeat"];
/// Runs per cell, as `augment_sweep` at CI scale.
const RUNS: usize = 2;
/// Dataset generations per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The committed sweep at seed 7 the accuracies must reproduce.
const GOLDEN: &str = "results/augment_sweep.json";

struct Data {
    name: &'static str,
    train: Dataset,
    test: Dataset,
}

/// One cell: accuracy (%) and the instants between its stages. The
/// fitted model and its training set are kept only when replays need
/// them.
struct Cell {
    acc: f64,
    variant: usize,
    start: Instant,
    augmented: Instant,
    fitted: Instant,
    end: Instant,
    kept: Option<(Rocket, Dataset)>,
}

impl Cell {
    fn latency_us(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e6
    }
}

/// The training set of cell `variant`: the original (variant 0), or the
/// original plus one pipeline-augmented copy of every sample, exactly as
/// `augment_sweep` builds it.
fn train_set(d: &Data, pipes: &[AugPipeline], run_seed: u64, variant: usize) -> Dataset {
    if variant == 0 {
        return d.train.clone();
    }
    let pipe = &pipes[variant - 1];
    let mut out = d.train.clone();
    let augmented = pipe.run(d.train.series(), derive_seed(run_seed, pipe.name()));
    for (s, &label) in augmented.into_iter().zip(d.train.labels()) {
        out.push(s, label);
    }
    out
}

fn cell(d: &Data, pipes: &[AugPipeline], seed: u64, idx: usize, keep: bool) -> Cell {
    let n_variants = pipes.len() + 1;
    let (run, variant) = (idx / n_variants, idx % n_variants);
    let run_seed = derive_seed(seed, &format!("{}/augsweep/run{run}", d.name));
    let start = Instant::now();
    let train = train_set(d, pipes, run_seed, variant);
    let augmented = Instant::now();
    let mut model = Rocket::new(ScaleProfile::Ci.rocket());
    let mut rng = seeded(derive_seed(run_seed, &format!("fit/{variant}")));
    model.fit(&train, None, &mut rng);
    let fitted = Instant::now();
    let pred = model.predict(&d.test);
    let acc = tsda_core::metrics::accuracy(&pred, d.test.labels()) * 100.0;
    let end = Instant::now();
    Cell {
        acc,
        variant,
        start,
        augmented,
        fitted,
        end,
        kept: keep.then_some((model, train)),
    }
}

/// Every cell of every dataset; cells of one dataset fan out on the
/// pool, as in `augment_sweep`.
fn sweep(data: &[Data], pipes: &[AugPipeline], seed: u64, keep: bool) -> Vec<Vec<Cell>> {
    data.iter()
        .map(|d| {
            Pool::global().par_map_indexed(RUNS * (pipes.len() + 1), |idx| {
                cell(d, pipes, seed, idx, keep)
            })
        })
        .collect()
}

fn accuracies(cells: &[Vec<Cell>]) -> Vec<Vec<u64>> {
    cells
        .iter()
        .map(|cs| cs.iter().map(|c| c.acc.to_bits()).collect())
        .collect()
}

/// Compare the seed-7 sweep with the committed `augment_sweep` output:
/// per dataset, the baseline and every policy's mean accuracy over runs.
fn golden_problems(
    data: &[Data],
    pipes: &[AugPipeline],
    cells: &[Vec<Cell>],
) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(GOLDEN).map_err(|e| format!("read {GOLDEN}: {e}"))?;
    let doc = serde_json::parse_value(&text).map_err(|e| format!("parse {GOLDEN}: {e}"))?;
    let Some(Value::Array(rows)) = doc.get("rows") else {
        return Err(format!("{GOLDEN} has no rows"));
    };
    let n_variants = pipes.len() + 1;
    let mut problems = Vec::new();
    for (d, cs) in data.iter().zip(cells) {
        let row = rows
            .iter()
            .find(|r| r.get("dataset").and_then(Value::as_str) == Some(d.name))
            .ok_or_else(|| format!("{GOLDEN} has no row for {}", d.name))?;
        let mean_of =
            |v: usize| sum_stable((0..RUNS).map(|run| cs[run * n_variants + v].acc)) / RUNS as f64;
        let mut want = vec![(
            "baseline".to_string(),
            row.get("baseline").and_then(Value::as_f64),
            mean_of(0),
        )];
        for (i, p) in pipes.iter().enumerate() {
            let acc = row
                .get("policies")
                .and_then(|ps| ps.get(p.name()))
                .and_then(|p| p.get("accuracy"))
                .and_then(Value::as_f64);
            want.push((p.name().to_string(), acc, mean_of(i + 1)));
        }
        for (what, golden, got) in want {
            if golden != Some(got) {
                problems.push(format!(
                    "{} {what}: accuracy {got} but {GOLDEN} has {golden:?}",
                    d.name
                ));
            }
        }
    }
    Ok(problems)
}

/// Sweeps run back to back for one phase of the window.
struct Window {
    cells: Vec<Cell>,
    secs: f64,
    sweeps: usize,
}

impl Window {
    fn latencies(&self) -> Vec<f64> {
        sorted(self.cells.iter().map(Cell::latency_us).collect())
    }
}

/// Run whole sweeps until `length` has passed (at least one), checking
/// every sweep's accuracies against the reference bit for bit. With
/// `keep`, the last sweep's fitted models stay for the replays.
fn window(
    data: &[Data],
    pipes: &[AugPipeline],
    seed: u64,
    length: Duration,
    reference: &[Vec<u64>],
    keep: bool,
    out: &mut Outcome,
) -> Window {
    let start = Instant::now();
    let mut w = Window {
        cells: Vec::new(),
        secs: 0.0,
        sweeps: 0,
    };
    while w.sweeps == 0 || start.elapsed() < length {
        let cells = sweep(data, pipes, seed, keep);
        let same = accuracies(&cells) == reference;
        let n = w.sweeps + 1;
        out.check(same, || {
            format!("sweep {n} accuracies differ from the warm-up sweep")
        });
        if !same {
            out.failed += cells.iter().map(|cs| cs.len() as u64).sum::<u64>();
        }
        for c in &mut w.cells {
            c.kept = None;
        }
        w.cells.extend(cells.into_iter().flatten());
        w.sweeps += 1;
    }
    w.secs = start.elapsed().as_secs_f64();
    w
}

/// Run the G_r workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let pipes = load_pipes()?;

    // Set-up is dataset generation, repeated; the median is reported.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut data = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        data = DATASETS
            .iter()
            .map(|&name| {
                let meta = ALL_DATASETS
                    .iter()
                    .find(|m| m.name == name)
                    .ok_or_else(|| format!("dataset {name} is not registered"))?;
                let tt = generate(meta, &ScaleProfile::Ci.gen_options(args.seed));
                Ok(Data {
                    name,
                    train: tt.train,
                    test: tt.test,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        setups.push(t0.elapsed().as_secs_f64());
    }

    // Warm-up sweep: pays first-touch costs and fixes the reference
    // accuracies every timed sweep must repeat exactly.
    let first = sweep(&data, &pipes, args.seed, false);
    let reference = accuracies(&first);
    if args.seed == 7 {
        for p in golden_problems(&data, &pipes, &first)? {
            out.check(false, || p);
        }
        out.note(format!("seed 7 accuracies checked against {GOLDEN}"));
    } else {
        out.note(format!(
            "{GOLDEN} is checked at seed 7 only; this run checks repeatability"
        ));
    }

    let length = Duration::from_secs_f64(args.seconds);
    let first_length = if args.trace { length / 2 } else { length };
    let untraced = window(
        &data,
        &pipes,
        args.seed,
        first_length,
        &reference,
        false,
        &mut out,
    );
    let traced = args.trace.then(|| {
        window(
            &data,
            &pipes,
            args.seed,
            length / 2,
            &reference,
            true,
            &mut out,
        )
    });

    let measured: Vec<&Window> = std::iter::once(&untraced).chain(traced.as_ref()).collect();
    out.attempted = measured.iter().map(|w| w.cells.len() as u64).sum();
    out.failed = out.failed.min(out.attempted);
    let lat = untraced.latencies();
    let cells_per_s = untraced.cells.len() as f64 / untraced.secs;
    out.set("latency_p50_us", percentile(&lat, 50.0));
    // As for the serving workloads, the tail is taken per slice of the
    // window — here per sweep — and reported as the lower decile over
    // slices.
    let per_sweep: Vec<Vec<f64>> = untraced
        .cells
        .chunks(untraced.cells.len() / untraced.sweeps)
        .map(|sweep| sweep.iter().map(Cell::latency_us).collect())
        .collect();
    out.set("latency_p99_us", lower_decile_of_percentiles(&per_sweep, 99.0));
    out.set("throughput_rps", cells_per_s);
    out.set(
        "ok_rate",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.set(
        "peak_rss_mb",
        env::peak_rss_mb(std::process::id()).unwrap_or(f64::NAN),
    );
    out.set("setup_s", median(&setups));
    out.note(format!(
        "window {:.3} s: {} sweeps, {} cells; latency is per cell and throughput_rps counts cells",
        untraced.secs,
        untraced.sweeps,
        lat.len()
    ));
    out.note(format!("cells_per_s {cells_per_s:.4} 1/s"));
    out.note(format!(
        "error_rate {} ratio",
        out.failed as f64 / out.attempted.max(1) as f64
    ));
    out.note(format!(
        "setup_s is the median of {SETUPS} generations: {setups:.4?}"
    ));
    out.note("peak_rss_mb is VmHWM of this process".to_string());

    if let Some(traced) = traced {
        layers(args, &untraced, &traced, &mut out)?;
    }
    Ok(out)
}

/// Per-layer metrics: cell spans from the traced window, and replays of
/// `Rocket::transform`, `RidgeClassifier::fit_features` and
/// `SymmetricEig::new` on the last traced sweep's own training sets,
/// each inside a pool worker as the cells run.
fn layers(
    args: &Args,
    untraced: &Window,
    traced: &Window,
    out: &mut Outcome,
) -> Result<(), String> {
    let epoch = traced
        .cells
        .iter()
        .map(|c| c.start)
        .min()
        .ok_or("no traced cell")?;
    let mut trace = Trace::new(epoch, traced.cells.len() * 4);
    let (mut augment, mut predict) = (0.0, 0.0);
    for (i, c) in traced.cells.iter().enumerate() {
        let req = i as u64;
        let root = trace.record("gr.cell", c.start, c.end, None, req);
        if c.variant > 0 {
            trace.record("gr.augment", c.start, c.augmented, Some(root), req);
            augment += c.augmented.duration_since(c.start).as_secs_f64();
        }
        trace.record("gr.fit", c.augmented, c.fitted, Some(root), req);
        trace.record("gr.predict", c.fitted, c.end, Some(root), req);
        predict += c.end.duration_since(c.fitted).as_secs_f64();
    }
    let sweeps = traced.sweeps as f64;
    out.set("gr.augment_s", augment / sweeps);
    out.set("gr.predict_s", predict / sweeps);

    let kept: Vec<(&Rocket, &Dataset, f64)> = traced
        .cells
        .iter()
        .filter_map(|c| {
            let fit_s = c.fitted.duration_since(c.augmented).as_secs_f64();
            c.kept.as_ref().map(|(m, t)| (m, t, fit_s))
        })
        .collect();
    if kept.is_empty() {
        return Err("the traced window kept no sweep for replays".into());
    }
    let replays: Vec<(f64, f64, f64, f64)> = Pool::global().par_map_indexed(kept.len(), |i| {
        let (model, train, fit_s) = kept[i];
        let clean = preprocess_dataset(train);
        let t0 = Instant::now();
        let features = model.transform(&clean);
        let t1 = Instant::now();
        let mut ridge = RidgeClassifier::default();
        ridge.fit_features(&features, clean.labels(), clean.n_classes());
        let t2 = Instant::now();
        let gram = ridge_gram(&features);
        let t3 = Instant::now();
        black_box(SymmetricEig::new(&gram));
        let t4 = Instant::now();
        let s = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
        (s(t0, t1), s(t1, t2), s(t3, t4), fit_s - s(t0, t2))
    });
    let total = |f: fn(&(f64, f64, f64, f64)) -> f64| replays.iter().map(f).sum::<f64>();
    let (transform, ridge, eig) = (total(|r| r.0), total(|r| r.1), total(|r| r.2));
    out.set("gr.transform_s", transform);
    out.set("gr.ridge_fit_s", ridge);
    out.set("gr.eig_s", eig);
    // Fit time the transform and ridge replays do not explain (kernel
    // sampling, preprocessing, contention), median per cell.
    let remainder_us = median(&replays.iter().map(|r| r.3 * 1e6).collect::<Vec<_>>());
    out.set("trace.remainder_us", remainder_us);

    // Transform speed-up of the pool: the largest training set, outside
    // any pool worker, at 1 thread and at nproc threads.
    let (model, train, _) = kept
        .iter()
        .max_by_key(|(_, t, _)| t.len() * t.n_dims())
        .copied()
        .ok_or("no kept cell")?;
    let clean = preprocess_dataset(train);
    let nproc = env::nproc();
    let run_at = |threads: usize| {
        ThreadLimit::set(threads);
        let mut features = Vec::new();
        let times: Vec<f64> = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                features = black_box(model.transform(&clean));
                t0.elapsed().as_secs_f64()
            })
            .collect();
        (median(&times), features)
    };
    let (serial, one) = run_at(1);
    let (wide, many) = run_at(nproc);
    out.set("pool.transform_speedup", serial / wide);
    let bits = |f: &[Vec<f64>]| -> Vec<u64> { f.iter().flatten().map(|v| v.to_bits()).collect() };
    out.check(bits(&one) == bits(&many), || {
        "ROCKET features differ between 1 and nproc threads".to_string()
    });

    let traced_p50 = percentile(&traced.latencies(), 50.0);
    let untraced_p50 = percentile(&untraced.latencies(), 50.0);
    out.set("trace.overhead_us", traced_p50 - untraced_p50);
    out.note(format!(
        "per sweep (s): augment {:.4}, predict {:.4}; fit replayed as transform {transform:.4} \
         + ridge {ridge:.4} (eig {eig:.4} of it); unexplained fit per cell {remainder_us:.1} us",
        augment / sweeps,
        predict / sweeps,
    ));
    out.note(format!(
        "tracing overhead: cell latency p50 traced {traced_p50:.1} us vs untraced {untraced_p50:.1} us"
    ));

    // Every cell's stages must add back to the cell's latency.
    let own = trace.self_times();
    let spans = trace.spans();
    let mut stage_sum = vec![0u64; spans.len()];
    for (j, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            stage_sum[p] += own[j];
        }
    }
    let mismatched = spans
        .iter()
        .enumerate()
        .filter(|(i, s)| s.parent.is_none() && own[*i] + stage_sum[*i] != s.dur_ns())
        .count();
    out.check(mismatched == 0, || {
        format!("{mismatched} traced cells do not decompose into stages")
    });
    let path = args.work_dir.join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let file =
        std::fs::File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
    trace
        .write_jsonl(&mut std::io::BufWriter::new(file))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    out.note(format!(
        "{} spans written to {}",
        spans.len(),
        path.display()
    ));
    Ok(())
}

/// The matrix ridge's LOOCV eigendecomposes for these features:
/// standardised, then `XᵀX` when there are no more features than rows
/// (primal) and `XXᵀ` otherwise (dual), as `RidgeLoocv::fit` chooses.
fn ridge_gram(features: &[Vec<f64>]) -> Matrix {
    let n = features.len();
    let p = features.first().map_or(0, Vec::len);
    let mean: Vec<f64> = (0..p)
        .map(|j| features.iter().map(|r| r[j]).sum::<f64>() / n as f64)
        .collect();
    let std: Vec<f64> = (0..p)
        .map(|j| {
            let var = features
                .iter()
                .map(|r| (r[j] - mean[j]).powi(2))
                .sum::<f64>()
                / n as f64;
            var.sqrt().max(1e-8)
        })
        .collect();
    let x = Matrix::from_fn(n, p, |i, j| (features[i][j] - mean[j]) / std[j]);
    if p <= n {
        x.gram()
    } else {
        x.gram_rows()
    }
}

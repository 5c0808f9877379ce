//! Performance baseline — and regression contract — for the compute
//! layer: times the hot paths the SIMD/GEMM rework targets, at CI
//! scale, and writes `BENCH_perf.json` (op, size, ns/iter, threads)
//! plus the headline speedups of the lowered kernels over the retained
//! reference implementations.
//!
//! ```text
//! # measure and write BENCH_perf.json
//! cargo run --release -p tsda-bench --bin perf_baseline [--out BENCH_perf.json]
//!
//! # measure and fail (exit 1) on regression vs the committed baseline
//! cargo run --release -p tsda-bench --bin perf_baseline -- \
//!     --check [--baseline BENCH_perf.baseline.json] [--tolerance-pct 25]
//!
//! # refresh the committed baseline after an intentional perf change
//! cargo run --release -p tsda-bench --bin perf_baseline -- --write-baseline
//! ```
//!
//! Worker counts are pinned through [`ThreadLimit::set`]: every op runs
//! at 1 thread, and the parallel-sensitive ops also at 2 and 4 threads,
//! each op's counts interleaved, so the contract covers both the
//! kernel and the pool-scaling regressions. The parallel-sensitive ops
//! include the pool's own dispatch cost (`pool_dispatch`, a trivial
//! two-chunk call, which has no 1-thread row: one worker never
//! dispatches) and the served models' batch calls at serving batch
//! sizes (`rocket_predict`, `inception_predict`: RacketSports, the
//! `tsda_serve --fast` configurations, through
//! `ModelEntry::predict_batch_into`, which runs on the calling thread
//! at any worker count, as a serving lane runs it). Two 1-thread rows
//! time the cold-start path: `crc32` over 64 KiB (every model file and
//! v2 frame is checksummed) and `model_load`, `load_model_bytes` over
//! the served ROCKET's saved bytes. `--check` keys rows by
//! `(op, size, threads)` and fails when a current row exceeds its
//! baseline by more than the tolerance *or* when the row sets drift
//! apart (a missing row means the contract silently stopped covering
//! something — refresh with `--write-baseline`). The report records
//! the host's core count beside the rows.
//!
//! Timings are best-of-3 in-process (best of 16 interleaved rounds for
//! the ops measured at several worker counts); the tolerance absorbs
//! machine noise, not algorithmic regressions. CI runs with a generous
//! tolerance (see `.github/workflows/ci.yml`).

use serde::{Deserialize, Serialize};
use std::time::Instant;
use tsda_augment::basic::time::Scaling;
use tsda_augment::SeriesTransform;
use tsda_classify::persist::{load_model_bytes, SavedModel};
use tsda_classify::rocket::{Rocket, RocketConfig};
use tsda_classify::{dtw_distance_matrix, Classifier, InceptionTime, InceptionTimeConfig};
use tsda_core::codec::crc32;
use tsda_core::parallel::{Pool, ThreadLimit};
use tsda_core::rng::{normal, seeded};
use tsda_core::{Dataset, Mts};
use tsda_datasets::{generate, DatasetId, DatasetMeta, GenOptions};
use tsda_linalg::{simd, Matrix};
use tsda_neuro::layers::{BatchNorm1d, Conv1d, Layer};
use tsda_neuro::tensor::Tensor;
use tsda_neuro::train::TrainConfig;
use tsda_serve::ModelEntry;
use tsda_signal::dtw::DtwOptions;

#[derive(Serialize, Deserialize)]
struct Row {
    op: String,
    size: String,
    ns_per_iter: f64,
    threads: usize,
}

#[derive(Serialize, Deserialize)]
struct Speedups {
    conv1d_forward: f64,
    matmul_256: f64,
}

#[derive(Serialize, Deserialize)]
struct Report {
    threads: usize,
    /// `available_parallelism` of the host that measured the rows.
    #[serde(default)]
    cores: usize,
    #[serde(default)]
    simd_level: String,
    rows: Vec<Row>,
    speedup: Speedups,
}

/// Best-of-3 samples, each long enough to dominate timer noise.
fn time_ns(mut f: impl FnMut()) -> f64 {
    let iters = calibrate(&mut f, 40);
    (0..3).map(|_| sample_ns(&mut f, iters)).fold(f64::INFINITY, f64::min)
}

/// After a warm-up call, the iteration count (doubling from 1) at
/// which one sample takes at least `ms` milliseconds.
fn calibrate(f: &mut impl FnMut(), ms: u128) -> u32 {
    f();
    let mut iters = 1u32;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t0.elapsed().as_millis() >= ms || iters >= 1 << 20 {
            return iters;
        }
        iters *= 2;
    }
}

/// Mean time of one call over `iters` back-to-back calls.
fn sample_ns(f: &mut impl FnMut(), iters: u32) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / f64::from(iters)
}

fn random_tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = seeded(seed);
    let n: usize = shape.iter().product();
    Tensor::from_flat(shape, (0..n).map(|_| normal(&mut rng, 0.0, 1.0) as f32).collect())
}

fn random_dataset(n: usize, dims: usize, len: usize, seed: u64) -> Dataset {
    let mut rng = seeded(seed);
    let mut ds = Dataset::empty(2);
    for i in 0..n {
        let dims: Vec<Vec<f64>> = (0..dims)
            .map(|_| (0..len).map(|_| normal(&mut rng, 0.0, 1.0)).collect())
            .collect();
        ds.push(Mts::from_dims(dims), i % 2);
    }
    ds
}

/// The served models of `tsda_serve --fast`, trained on RacketSports
/// and registered as the server registers them.
struct Served {
    rocket: ModelEntry,
    inception: ModelEntry,
    /// Two test series: the batch inputs.
    series: Vec<Mts>,
    /// The ROCKET model's saved file, as `tsda_serve --dir` writes it.
    rocket_file: Vec<u8>,
}

fn served_models() -> Served {
    let data = generate(DatasetMeta::get(DatasetId::RacketSports), &GenOptions::ci(7));
    let mut rocket = Rocket::new(RocketConfig { n_kernels: 200, ..RocketConfig::default() });
    rocket.fit(&data.train, None, &mut seeded(23));
    let mut inception = InceptionTime::new(InceptionTimeConfig {
        filters: 2,
        depth: 3,
        kernel_sizes: [9, 5, 3],
        ensemble: 1,
        train_fraction: 2.0 / 3.0,
        train: TrainConfig { max_epochs: 3, batch_size: 16, patience: 3, lr: 1e-3 },
        use_lr_range_test: false,
    });
    inception.fit(&data.train, None, &mut seeded(24));
    let rocket_file = rocket.save_bytes().expect("save the fitted ROCKET");
    let entry = |name, model| ModelEntry::from_saved(name, model, None).expect("fitted model");
    Served {
        rocket: entry("rocket", SavedModel::Rocket(rocket)),
        inception: entry("inception", SavedModel::InceptionTime(inception)),
        series: data.test.series()[..2].to_vec(),
        rocket_file,
    }
}

/// Worker counts the parallel-sensitive ops are measured at.
const SCALING_THREADS: [usize; 3] = [1, 2, 4];

fn push(rows: &mut Vec<Row>, op: &str, size: &str, threads: usize, ns: f64) {
    println!("{op:<28} {size:<24} {ns:>14.0} ns/iter  ({threads} threads)");
    rows.push(Row { op: op.to_string(), size: size.to_string(), ns_per_iter: ns, threads });
}

/// Time `f` at each pinned worker count in `counts`: best of 16 rounds,
/// each round taking one 10 ms sample per count in turn. The CPU's
/// speed can drift within a fraction of a second; interleaving the
/// counts finely keeps that drift out of the comparison with the
/// 1-thread row. Returns the 1-thread time (NaN when 1 is not in
/// `counts`).
fn scaling(
    rows: &mut Vec<Row>,
    op: &str,
    size: &str,
    counts: &[usize],
    mut f: impl FnMut(),
) -> f64 {
    let mut iters = 1;
    for &threads in counts {
        ThreadLimit::set(threads);
        iters = iters.max(calibrate(&mut f, 10));
    }
    let mut best = vec![f64::INFINITY; counts.len()];
    for _ in 0..16 {
        for (b, &threads) in best.iter_mut().zip(counts) {
            ThreadLimit::set(threads);
            *b = b.min(sample_ns(&mut f, iters));
        }
    }
    ThreadLimit::set(1);
    for (&ns, &threads) in best.iter().zip(counts) {
        push(rows, op, size, threads, ns);
    }
    counts.iter().position(|&t| t == 1).map_or(f64::NAN, |i| best[i])
}

/// Measure every row. The pool-parallel ops run at each of
/// [`SCALING_THREADS`]; the reference implementations and the serial
/// micro-ops (pooling, batch-norm, augment), whose timings are
/// thread-independent, at 1 thread; the pool's dispatch cost, which one
/// worker never pays, at 2 and 4. Returns `(conv_fwd_gemm,
/// conv_fwd_ref, mm_tiled, mm_naive)` at 1 thread for the headline
/// speedups.
fn bench(served: &Served, rows: &mut Vec<Row>) -> (f64, f64, f64, f64) {
    ThreadLimit::set(1);

    // Conv1d forward/backward: InceptionTime-module scale, batch 16.
    let mut rng = seeded(11);
    let mut conv = Conv1d::new(8, 16, 9, true, &mut rng);
    let x = random_tensor(&[16, 8, 128], 12);
    let conv_size = "b16 c8->16 k9 t128";
    let fwd_gemm = scaling(rows, "conv1d_forward_gemm", conv_size, &SCALING_THREADS, || {
        std::hint::black_box(conv.forward(&x));
    });
    let fwd_ref = time_ns(|| {
        std::hint::black_box(conv.forward_reference(&x));
    });
    push(rows, "conv1d_forward_reference", conv_size, 1, fwd_ref);
    let gout = random_tensor(&[16, 16, 128], 13);
    conv.forward(&x);
    let bwd_gemm = time_ns(|| {
        std::hint::black_box(conv.backward(&gout));
    });
    push(rows, "conv1d_backward_gemm", conv_size, 1, bwd_gemm);

    // Dense matmul, tiled-parallel vs the seed triple loop.
    let a = Matrix::from_vec(256, 256, {
        let mut rng = seeded(14);
        (0..256 * 256).map(|_| normal(&mut rng, 0.0, 1.0)).collect()
    });
    let b = Matrix::from_vec(256, 256, {
        let mut rng = seeded(15);
        (0..256 * 256).map(|_| normal(&mut rng, 0.0, 1.0)).collect()
    });
    let mm_tiled = scaling(rows, "matmul_tiled", "256x256x256", &SCALING_THREADS, || {
        std::hint::black_box(a.matmul(&b));
    });
    let mm_naive = time_ns(|| {
        std::hint::black_box(a.matmul_naive(&b));
    });
    push(rows, "matmul_naive", "256x256x256", 1, mm_naive);

    // ROCKET transform at the CI profile's scale.
    let ds = random_dataset(32, 3, 128, 16);
    let mut rocket = Rocket::new(RocketConfig { n_kernels: 300, ..RocketConfig::default() });
    rocket.fit(&ds, None, &mut seeded(17));
    scaling(rows, "rocket_transform", "32 series x 300 kernels", &SCALING_THREADS, || {
        std::hint::black_box(rocket.transform(&ds));
    });

    // Pairwise banded DTW distance matrix.
    let queries = random_dataset(40, 2, 64, 18);
    scaling(rows, "dtw_matrix", "40x40 len 64 band 0.1", &SCALING_THREADS, || {
        std::hint::black_box(dtw_distance_matrix(
            &queries,
            &queries,
            DtwOptions { band_fraction: Some(0.1) },
        ));
    });

    // A trivial two-chunk call: what the pool adds to every call that
    // fans out (the served batch calls below never do).
    let mut pair = [0u64; 2];
    scaling(rows, "pool_dispatch", "2 chunks", &SCALING_THREADS[1..], || {
        Pool::global().par_chunks_mut(&mut pair, 1, |i, c| c[0] = i as u64);
        std::hint::black_box(&pair);
    });

    // The served models' batch calls at serving batch sizes, on the
    // calling thread whatever the pinned count.
    let series = &served.series;
    let mut labels = Vec::with_capacity(series.len());
    for (op, entry) in [("rocket_predict", &served.rocket), ("inception_predict", &served.inception)] {
        for b in 1..=series.len() {
            scaling(rows, op, &format!("RacketSports b{b}"), &SCALING_THREADS, || {
                entry.predict_batch_into(&series[..b], &mut labels).expect("served predict");
                std::hint::black_box(&labels);
            });
        }
    }

    // ROCKET's pooling kernel in isolation (PPV + max over a conv
    // output buffer) — separates pooling regressions from the
    // convolution accumulation above.
    let buf: Vec<f64> = {
        let mut rng = seeded(19);
        (0..8192).map(|_| normal(&mut rng, 0.0, 1.0)).collect()
    };
    let pool_ns = time_ns(|| {
        std::hint::black_box(simd::ppv_max_f64(&buf));
    });
    push(rows, "rocket_pooling", "len 8192", 1, pool_ns);

    // Batch-norm training forward (stats + normalise + affine).
    let mut bn = BatchNorm1d::new(16);
    let bx = random_tensor(&[16, 16, 128], 20);
    let bn_ns = time_ns(|| {
        std::hint::black_box(bn.forward(&bx));
    });
    push(rows, "batchnorm_forward", "b16 c16 t128", 1, bn_ns);

    // One per-element augment transform (NaN-masked scaling).
    let series = random_dataset(1, 3, 4096, 21).series()[0].clone();
    let scaler = Scaling { sigma: 0.1 };
    let mut aug_rng = seeded(22);
    let aug_ns = time_ns(|| {
        std::hint::black_box(scaler.transform(&series, &mut aug_rng));
    });
    push(rows, "aug_scaling", "3 dims x 4096", 1, aug_ns);

    // Cold start: the checksum over a model-file-sized block, and the
    // served ROCKET's load from its saved bytes (parse, checksum,
    // decode).
    let block: Vec<u8> = (0..64 * 1024u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
    let crc_ns = time_ns(|| {
        std::hint::black_box(crc32(std::hint::black_box(&block)));
    });
    push(rows, "crc32", "64 KiB", 1, crc_ns);
    let load_ns = time_ns(|| {
        std::hint::black_box(load_model_bytes(&served.rocket_file).expect("load the saved ROCKET"));
    });
    push(rows, "model_load", "RacketSports 200 kernels", 1, load_ns);

    (fwd_gemm, fwd_ref, mm_tiled, mm_naive)
}

/// Compare `current` against `baseline`, keyed by `(op, size, threads)`.
/// Returns the failure messages (empty = contract holds).
fn check(current: &Report, baseline: &Report, tolerance_pct: f64) -> Vec<String> {
    let key = |r: &Row| (r.op.clone(), r.size.clone(), r.threads);
    let base: std::collections::BTreeMap<_, f64> =
        baseline.rows.iter().map(|r| (key(r), r.ns_per_iter)).collect();
    let cur: std::collections::BTreeMap<_, f64> =
        current.rows.iter().map(|r| (key(r), r.ns_per_iter)).collect();
    let mut failures = Vec::new();
    for (k, &cur_ns) in &cur {
        match base.get(k) {
            None => failures.push(format!(
                "{}/{} @{}t: no baseline row (refresh with --write-baseline)",
                k.0, k.1, k.2
            )),
            Some(&base_ns) => {
                let limit = base_ns * (1.0 + tolerance_pct / 100.0);
                let ratio = cur_ns / base_ns;
                let verdict = if cur_ns > limit { "FAIL" } else { "ok" };
                println!(
                    "{verdict:<4} {:<28} {:<24} {:>2}t  {cur_ns:>14.0} vs {base_ns:>14.0} ns ({ratio:.2}x)",
                    k.0, k.1, k.2
                );
                if cur_ns > limit {
                    failures.push(format!(
                        "{}/{} @{}t: {cur_ns:.0} ns exceeds baseline {base_ns:.0} ns by {:.1}% (tolerance {tolerance_pct}%)",
                        k.0, k.1, k.2,
                        (ratio - 1.0) * 100.0
                    ));
                }
            }
        }
    }
    for k in base.keys() {
        if !cur.contains_key(k) {
            failures.push(format!(
                "{}/{} @{}t: baseline row not measured any more (refresh with --write-baseline)",
                k.0, k.1, k.2
            ));
        }
    }
    failures
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_path = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_perf.json".to_string());
    let baseline_path =
        flag_value(&args, "--baseline").unwrap_or_else(|| "BENCH_perf.baseline.json".to_string());
    let tolerance_pct: f64 = flag_value(&args, "--tolerance-pct")
        .map(|v| v.parse().expect("--tolerance-pct expects a number"))
        .unwrap_or(25.0);
    let do_check = args.iter().any(|a| a == "--check");
    let write_baseline = args.iter().any(|a| a == "--write-baseline");

    let served = served_models();
    let mut rows = Vec::new();
    let (fwd_gemm, fwd_ref, mm_tiled, mm_naive) = bench(&served, &mut rows);
    ThreadLimit::clear();

    let report = Report {
        threads: 1,
        cores: std::thread::available_parallelism().map_or(1, usize::from),
        simd_level: simd::level().name().to_string(),
        speedup: Speedups {
            conv1d_forward: fwd_ref / fwd_gemm,
            matmul_256: mm_naive / mm_tiled,
        },
        rows,
    };
    println!(
        "\n{} cores, simd level {}; speedups: conv1d_forward {:.2}x, matmul_256 {:.2}x",
        report.cores, report.simd_level, report.speedup.conv1d_forward, report.speedup.matmul_256
    );
    let json = serde_json::to_string_pretty(&report).expect("serialise perf report");
    std::fs::write(&out_path, json.clone() + "\n").expect("write perf report");
    println!("wrote {out_path}");
    if write_baseline {
        std::fs::write(&baseline_path, json + "\n").expect("write perf baseline");
        println!("wrote {baseline_path}");
    }

    if do_check {
        let text = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
        let baseline: Report =
            serde_json::from_str(&text).expect("parse baseline perf report");
        println!("\nchecking against {baseline_path} (tolerance {tolerance_pct}%)");
        let failures = check(&report, &baseline, tolerance_pct);
        if failures.is_empty() {
            println!("perf contract holds: every row within {tolerance_pct}% of baseline");
        } else {
            eprintln!("\nperf contract violated:");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
    }
}

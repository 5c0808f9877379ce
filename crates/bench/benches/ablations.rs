//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! ROCKET feature type, ridge alpha selection, noise level, SMOTE k,
//! OHIT shrinkage, TimeGAN iteration budget.
//!
//! These measure *runtime* under Criterion; the accompanying accuracy
//! ablations live in the `ablation_accuracy` example.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::Rng;
use tsda_augment::basic::time::NoiseInjection;
use tsda_augment::generative::timegan::{TimeGan, TimeGanConfig};
use tsda_augment::oversample::Smote;
use tsda_augment::preserve::structure::Ohit;
use tsda_augment::Augmenter;
use tsda_core::rng::seeded;
use tsda_datasets::registry::{DatasetId, DatasetMeta};
use tsda_datasets::synth::{generate, GenOptions};
use tsda_classify::rocket::{Rocket, RocketConfig, RocketFeatures};
use tsda_classify::traits::Classifier;
use tsda_linalg::cov::shrinkage_covariance;
use tsda_linalg::matrix::Matrix;
use tsda_linalg::solve::RidgeLoocv;

fn bench_ablations(c: &mut Criterion) {
    let data = generate(DatasetMeta::get(DatasetId::RacketSports), &GenOptions::ci(42));
    let train = &data.train;
    let minority = 3;

    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);

    // Noise level sweep (accuracy impact measured in the example; here:
    // the cost is level-independent, which the bench demonstrates).
    for level in [0.5, 1.0, 3.0, 5.0] {
        group.bench_function(format!("noise_level_{level}"), |b| {
            let aug = NoiseInjection::level(level);
            b.iter(|| aug.synthesize(train, minority, 10, &mut seeded(1)).unwrap())
        });
    }

    // SMOTE k sweep: neighbour search cost grows with k only mildly.
    for k in [1usize, 3, 5, 10] {
        group.bench_function(format!("smote_k_{k}"), |b| {
            let aug = Smote { k };
            b.iter(|| aug.synthesize(train, minority, 10, &mut seeded(2)).unwrap())
        });
    }

    // OHIT kNN parameter (drives cluster granularity and covariance count).
    for k in [3usize, 5, 8] {
        group.bench_function(format!("ohit_k_{k}"), |b| {
            let aug = Ohit { k };
            b.iter(|| aug.synthesize(train, minority, 10, &mut seeded(3)).unwrap())
        });
    }

    // ROCKET feature type: PPV-only halves the feature matrix.
    for (label, features) in [("ppv_max", RocketFeatures::PpvAndMax), ("ppv_only", RocketFeatures::PpvOnly)] {
        group.bench_function(format!("rocket_features_{label}"), |b| {
            b.iter(|| {
                let mut rocket = Rocket::new(RocketConfig {
                    n_kernels: 150,
                    features,
                });
                rocket.fit(train, None, &mut seeded(9));
                rocket
            })
        });
    }

    // Ridge: fixed alpha vs LOOCV sweep.
    let mut rng = seeded(4);
    let x = Matrix::from_fn(100, 60, |_, _| rng.gen_range(-1.0..1.0));
    let y = Matrix::from_fn(100, 2, |_, _| rng.gen_range(-1.0..1.0));
    group.bench_function("ridge_fixed_alpha", |b| {
        b.iter(|| RidgeLoocv::fixed(1.0).fit(&x, &y))
    });
    group.bench_function("ridge_loocv_10_alphas", |b| {
        b.iter(|| RidgeLoocv::default().fit(&x, &y))
    });

    // Shrinkage covariance cost vs plain covariance in the
    // high-dimensional small-sample regime OHIT faces.
    let small = Matrix::from_fn(8, 120, |_, _| rng.gen_range(-1.0..1.0));
    group.bench_function("shrinkage_cov_8x120", |b| {
        b.iter(|| shrinkage_covariance(&small))
    });

    // TimeGAN iteration budget.
    for (label, iters) in [("tiny", 10usize), ("small", 40)] {
        group.bench_function(format!("timegan_{label}"), |b| {
            let aug = TimeGan::new(TimeGanConfig {
                hidden: 6,
                latent: 4,
                iters_embedding: iters,
                iters_supervised: iters,
                iters_joint: iters / 2,
                ..TimeGanConfig::default()
            });
            b.iter(|| aug.synthesize(train, minority, 4, &mut seeded(5)).unwrap())
        });
    }

    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);

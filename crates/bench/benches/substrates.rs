//! Criterion benchmarks of the substrate crates: FFT, DTW, EMD, ridge
//! LOOCV, eigendecomposition, and the GRU forward/backward step.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::Rng;
use tsda_core::rng::seeded;
use tsda_core::Mts;
use tsda_linalg::matrix::Matrix;
use tsda_linalg::solve::RidgeLoocv;
use tsda_linalg::SymmetricEig;
use tsda_neuro::layers::{Gru, Layer};
use tsda_neuro::tensor::Tensor;
use tsda_signal::dtw::{dtw_distance, DtwOptions};
use tsda_signal::emd::{emd, EmdOptions};
use tsda_signal::fft::fft_real;

fn bench_substrates(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrates");
    group.sample_size(20);

    let signal: Vec<f64> = (0..1024).map(|t| (t as f64 * 0.05).sin()).collect();
    group.bench_function("fft_1024", |b| b.iter(|| fft_real(&signal)));

    let odd_signal: Vec<f64> = signal[..1000].to_vec();
    group.bench_function("fft_bluestein_1000", |b| b.iter(|| fft_real(&odd_signal)));

    let a = Mts::univariate((0..256).map(|t| (t as f64 * 0.1).sin()).collect());
    let b2 = Mts::univariate((0..256).map(|t| (t as f64 * 0.11).cos()).collect());
    group.bench_function("dtw_256_banded", |b| {
        b.iter(|| dtw_distance(&a, &b2, DtwOptions { band_fraction: Some(0.1) }))
    });

    let noisy: Vec<f64> = (0..512)
        .map(|t| (t as f64 * 0.4).sin() + 0.4 * (t as f64 * 0.05).sin())
        .collect();
    group.bench_function("emd_512", |b| {
        b.iter(|| emd(&noisy, EmdOptions { max_imfs: 4, ..EmdOptions::default() }))
    });

    let mut rng = seeded(1);
    let x = Matrix::from_fn(120, 80, |_, _| rng.gen_range(-1.0..1.0));
    let y = Matrix::from_fn(120, 3, |_, _| rng.gen_range(-1.0..1.0));
    group.bench_function("ridge_loocv_120x80", |b| {
        b.iter(|| RidgeLoocv::default().fit(&x, &y))
    });

    let sym = {
        let mut m = x.gram();
        m.add_diagonal(1.0);
        m
    };
    group.bench_function("eig_jacobi_80", |b| b.iter(|| SymmetricEig::new(&sym)));

    group.bench_function("gru_fwd_bwd_16x20x8", |b| {
        let mut gru = Gru::new(8, 16, &mut rng);
        let input =
            Tensor::from_flat(&[16, 20, 8], (0..16 * 20 * 8).map(|v| (v % 7) as f32 * 0.1).collect());
        b.iter(|| {
            let out = gru.forward(&input);
            gru.zero_grad();
            gru.backward(&out)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_substrates);
criterion_main!(benches);

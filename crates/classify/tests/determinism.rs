//! Thread-count determinism of the classifier hot paths that run on
//! the shared pool: ROCKET's transform, InceptionTime's forward pass,
//! and the pairwise DTW distance matrix must produce bit-identical
//! results whether the pool runs 1 worker or many.

use std::sync::Mutex;
use tsda_classify::encode::{dataset_to_tensor3, preprocess_dataset};
use tsda_classify::inception::{InceptionTime, InceptionTimeConfig};
use tsda_classify::rocket::{Rocket, RocketConfig};
use tsda_classify::traits::Classifier;
use tsda_classify::dtw_distance_matrix;
use tsda_core::parallel::ThreadLimit;
use tsda_core::rng::{normal, seeded};
use tsda_core::{Dataset, Mts};
use tsda_signal::dtw::DtwOptions;

/// `ThreadLimit` is process-global; serialize the tests that toggle it.
static LIMIT_LOCK: Mutex<()> = Mutex::new(());

fn two_class_dataset(n_per_class: usize, dims: usize, len: usize, seed: u64) -> Dataset {
    let mut rng = seeded(seed);
    let mut ds = Dataset::empty(2);
    for c in 0..2 {
        let freq = if c == 0 { 0.25 } else { 0.7 };
        for _ in 0..n_per_class {
            let series: Vec<Vec<f64>> = (0..dims)
                .map(|d| {
                    (0..len)
                        .map(|t| {
                            (t as f64 * freq + d as f64).sin() + normal(&mut rng, 0.0, 0.1)
                        })
                        .collect()
                })
                .collect();
            ds.push(Mts::from_dims(series), c);
        }
    }
    ds
}

#[test]
fn rocket_features_do_not_depend_on_thread_count() {
    let _guard = LIMIT_LOCK.lock().unwrap();
    let ds = two_class_dataset(8, 2, 48, 31);
    let features = |threads: usize| {
        ThreadLimit::set(threads);
        let mut rocket = Rocket::new(RocketConfig { n_kernels: 60 });
        rocket.fit(&ds, None, &mut seeded(32));
        rocket.transform(&ds)
    };
    let reference = features(1);
    for threads in [4, 16] {
        assert_eq!(features(threads), reference, "{threads} threads");
    }
    ThreadLimit::clear();
}

#[test]
fn inception_forward_does_not_depend_on_thread_count() {
    let _guard = LIMIT_LOCK.lock().unwrap();
    let train = two_class_dataset(6, 2, 32, 41);
    let cfg = InceptionTimeConfig {
        filters: 2,
        depth: 3,
        kernel_sizes: [9, 5, 3],
        ensemble: 1,
        use_lr_range_test: false,
        ..InceptionTimeConfig::default()
    };
    let mut cfg = cfg;
    cfg.train.max_epochs = 2;
    let x = dataset_to_tensor3(&preprocess_dataset(&train));
    let proba = |threads: usize| {
        ThreadLimit::set(threads);
        let mut net = InceptionTime::new(cfg.clone());
        net.fit(&train, None, &mut seeded(42));
        net.predict_proba(&x).data().to_vec()
    };
    let reference = proba(1);
    let run4 = proba(4);
    assert_eq!(run4, reference);
    ThreadLimit::clear();
}

#[test]
fn dtw_matrix_does_not_depend_on_thread_count() {
    let _guard = LIMIT_LOCK.lock().unwrap();
    let queries = two_class_dataset(7, 2, 40, 51);
    let refs = two_class_dataset(5, 2, 40, 52);
    let opts = DtwOptions { band_fraction: Some(0.2) };
    let matrix = |threads: usize| {
        ThreadLimit::set(threads);
        dtw_distance_matrix(&queries, &refs, opts)
    };
    let reference = matrix(1);
    for threads in [4, 16] {
        assert_eq!(matrix(threads), reference, "{threads} threads");
    }
    assert_eq!(reference.len(), queries.len() * refs.len());
    ThreadLimit::clear();
}

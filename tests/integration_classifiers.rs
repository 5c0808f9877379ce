//! Integration tests of the classifiers on generated archive data: both
//! paper baselines must clearly beat chance on separable datasets and
//! hover near chance on the EEG dataset designed to be hard, mirroring
//! the paper's Table IV/V regimes.

use tsda_bench::harness::{run_dataset, GridConfig, ModelKind};
use tsda_bench::scale::ScaleProfile;
use tsda_classify::inception::{InceptionTime, InceptionTimeConfig};
use tsda_classify::rocket::{Rocket, RocketConfig};
use tsda_classify::traits::Classifier;
use tsda_core::rng::seeded;
use tsda_datasets::registry::{DatasetId, DatasetMeta};
use tsda_datasets::synth::{generate, GenOptions};
use tsda_neuro::train::TrainConfig;

#[test]
fn rocket_beats_chance_on_separable_archive_datasets() {
    for id in [DatasetId::PenDigits, DatasetId::RacketSports, DatasetId::Epilepsy] {
        let meta = DatasetMeta::get(id);
        let data = generate(meta, &GenOptions::ci(31));
        let chance = 1.0 / meta.n_classes as f64;
        let mut model = Rocket::new(RocketConfig { n_kernels: 200, ..RocketConfig::default() });
        let acc = model.fit_score(&data.train, None, &data.test, &mut seeded(1));
        assert!(acc > 2.0 * chance, "{}: acc {acc} vs chance {chance}", meta.name);
    }
}

#[test]
fn rocket_stays_near_chance_on_finger_movements() {
    // The paper reports ~52% on this 2-class EEG dataset; the simulator
    // encodes the same near-chance regime. The ci test split is tiny
    // (~24 series), so a single seed is noisy — average three archives.
    let meta = DatasetMeta::get(DatasetId::FingerMovements);
    let mut total = 0.0;
    for seed in [32u64, 33, 34] {
        let data = generate(meta, &GenOptions::ci(seed));
        let mut model =
            Rocket::new(RocketConfig { n_kernels: 200, ..RocketConfig::default() });
        total += model.fit_score(&data.train, None, &data.test, &mut seeded(seed));
    }
    let acc = total / 3.0;
    assert!(acc < 0.7, "{}: mean acc {acc} should be near chance", meta.name);
}

#[test]
fn inceptiontime_learns_a_separable_archive_dataset() {
    // Epilepsy is the easiest ci dataset (near-ceiling for ROCKET), so a
    // small InceptionTime must clearly beat chance on it.
    let meta = DatasetMeta::get(DatasetId::Epilepsy);
    let data = generate(meta, &GenOptions::ci(33));
    let cfg = InceptionTimeConfig {
        filters: 4,
        depth: 3,
        kernel_sizes: [9, 5, 3],
        ensemble: 1,
        train: TrainConfig { max_epochs: 30, batch_size: 16, patience: 10, lr: 1e-2 },
        use_lr_range_test: false,
        ..InceptionTimeConfig::default()
    };
    let mut model = InceptionTime::new(cfg);
    let acc = model.fit_score(&data.train, None, &data.test, &mut seeded(3));
    let chance = 1.0 / meta.n_classes as f64;
    assert!(acc > 2.0 * chance, "acc {acc} vs chance {chance}");
}

#[test]
fn harness_grid_cell_reproduces_table_row_shape() {
    // One full Table IV cell via the harness: baseline + 5 techniques,
    // improvement consistent with the accuracies.
    let cfg = GridConfig {
        profile: ScaleProfile::Ci,
        seed: 13,
        runs: 1,
        model: ModelKind::Rocket,
        datasets: vec![],
    };
    let meta = DatasetMeta::get(DatasetId::Epilepsy);
    let mut log = |_: &str| {};
    let row = run_dataset(meta, &cfg, &mut log);
    assert_eq!(row.technique_acc.len(), 5);
    let labels: Vec<&str> = row.technique_acc.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(labels, vec!["noise_1.0", "noise_3.0", "noise_5.0", "smote", "timegan"]);
    let best = row
        .technique_acc
        .iter()
        .map(|(_, a)| *a)
        .fold(f64::NEG_INFINITY, f64::max);
    let expected = (best - row.baseline) / row.baseline * 100.0;
    assert!((row.improvement_pct - expected).abs() < 1e-9);
}

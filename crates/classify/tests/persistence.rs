//! Codec round-trip contract for every saveable model: save → load →
//! predict must be bit-identical to the fitted model, and corrupted or
//! mismatched inputs must come back as `TsdaError`, never a panic.

use rand::Rng;
use tsda_classify::persist::{load_model_bytes, SavedModel};
use tsda_classify::{
    Classifier, InceptionTime, InceptionTimeConfig, MiniRocket, MiniRocketConfig, RidgeClassifier,
    Rocket, RocketConfig,
};
use tsda_core::codec::{crc32, CodecReader, CodecWriter};
use tsda_core::rng::seeded;
use tsda_core::{Dataset, Mts};
use tsda_neuro::train::TrainConfig;

fn toy_problem(seed: u64, n_per_class: usize) -> (Dataset, Dataset) {
    let make = |split_seed: u64| {
        let mut ds = Dataset::empty(3);
        let mut rng = seeded(split_seed);
        for c in 0..3usize {
            let freq = 0.2 + 0.35 * c as f64;
            for _ in 0..n_per_class {
                let phase: f64 = rng.gen_range(0.0..1.0);
                let amp: f64 = rng.gen_range(0.8..1.2);
                let dims = (0..2)
                    .map(|d| {
                        (0..30)
                            .map(|t| amp * ((t as f64) * freq + phase + d as f64).sin())
                            .collect()
                    })
                    .collect();
                ds.push(Mts::from_dims(dims), c);
            }
        }
        ds
    };
    (make(seed), make(seed ^ 0x9e37_79b9))
}

fn flatten(ds: &Dataset) -> Vec<Vec<f64>> {
    ds.series().iter().map(|s| s.as_flat().to_vec()).collect()
}

/// Fitted predictions survive the codec byte-for-byte.
fn assert_round_trip(mut model: SavedModel, test: &Dataset, before: &[usize]) {
    let bytes = model.save_bytes().expect("save fitted model");
    let mut loaded = load_model_bytes(&bytes).expect("load saved bytes");
    assert_eq!(loaded.kind(), model.kind());
    let after = match &mut loaded {
        SavedModel::Rocket(m) => m.predict(test),
        SavedModel::MiniRocket(m) => m.predict(test),
        SavedModel::Ridge(m) => m.try_predict_features(&flatten(test)).unwrap(),
        SavedModel::InceptionTime(m) => m.predict(test),
    };
    assert_eq!(after, before, "{} predictions changed across save/load", model.kind());

    // A second save of the loaded model must reproduce the same bytes:
    // the codec has one canonical encoding per model state.
    let again = loaded.save_bytes().expect("re-save loaded model");
    assert_eq!(again, bytes, "{} re-encoding is not canonical", model.kind());
}

#[test]
fn rocket_round_trips_bit_identical() {
    let (train, test) = toy_problem(1, 8);
    let mut m = Rocket::new(RocketConfig { n_kernels: 60, ..RocketConfig::default() });
    m.fit(&train, None, &mut seeded(2));
    let before = m.predict(&test);
    assert_round_trip(SavedModel::Rocket(m), &test, &before);
}

#[test]
fn minirocket_round_trips_bit_identical() {
    let (train, test) = toy_problem(3, 8);
    let mut m = MiniRocket::new(MiniRocketConfig { n_features: 168 });
    m.fit(&train, None, &mut seeded(4));
    let before = m.predict(&test);
    assert_round_trip(SavedModel::MiniRocket(m), &test, &before);
}

#[test]
fn ridge_round_trips_bit_identical() {
    let (train, test) = toy_problem(5, 8);
    let mut m = RidgeClassifier::default();
    m.fit_features(&flatten(&train), train.labels(), train.n_classes());
    let before = m.try_predict_features(&flatten(&test)).unwrap();
    assert_round_trip(SavedModel::Ridge(m), &test, &before);
}

#[test]
fn inception_round_trips_bit_identical() {
    let (train, test) = toy_problem(6, 6);
    let config = InceptionTimeConfig {
        filters: 2,
        depth: 3,
        kernel_sizes: [9, 5, 3],
        ensemble: 2,
        train_fraction: 2.0 / 3.0,
        train: TrainConfig { max_epochs: 2, batch_size: 8, patience: 2, lr: 1e-3 },
        use_lr_range_test: false,
    };
    let mut m = InceptionTime::new(config);
    m.fit(&train, None, &mut seeded(7));
    let before = m.predict(&test);
    assert_round_trip(SavedModel::InceptionTime(m), &test, &before);
}

#[test]
fn unfitted_models_refuse_to_save() {
    assert!(SavedModel::Rocket(Rocket::new(RocketConfig::default())).save_bytes().is_err());
    assert!(SavedModel::MiniRocket(MiniRocket::new(MiniRocketConfig::default()))
        .save_bytes()
        .is_err());
    assert!(SavedModel::Ridge(RidgeClassifier::default()).save_bytes().is_err());
    assert!(SavedModel::InceptionTime(InceptionTime::new(InceptionTimeConfig::default()))
        .save_bytes()
        .is_err());
}

#[test]
fn every_single_byte_corruption_is_an_error_not_a_panic() {
    let (train, _) = toy_problem(8, 6);
    let mut m = Rocket::new(RocketConfig { n_kernels: 12, ..RocketConfig::default() });
    m.fit(&train, None, &mut seeded(9));
    let bytes = SavedModel::Rocket(m).save_bytes().unwrap();
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0xFF;
        assert!(
            load_model_bytes(&bad).is_err(),
            "flipping byte {i} of {} was not detected",
            bytes.len()
        );
    }
}

#[test]
fn a_corrupt_nested_ridge_section_fails_its_own_checksum() {
    let (train, _) = toy_problem(12, 6);
    let mut m = Rocket::new(RocketConfig { n_kernels: 12, ..RocketConfig::default() });
    m.fit(&train, None, &mut seeded(13));
    let mut bytes = SavedModel::Rocket(m).save_bytes().unwrap();
    // The ridge head is the last section, so its payload (itself a
    // checksummed container) ends where the outer trailer begins.
    let ridge_len = CodecReader::parse(&bytes).unwrap().section("ridge").unwrap().len();
    let body_len = bytes.len() - 4;
    bytes[body_len - ridge_len / 2] ^= 0x10;
    // Re-seal the outer trailer so only the nested checksum can notice.
    let crc = crc32(&bytes[..body_len]).to_le_bytes();
    bytes[body_len..].copy_from_slice(&crc);
    assert!(CodecReader::parse(&bytes).is_ok(), "the outer container must verify");
    for (loader, err) in [
        ("load_model_bytes", load_model_bytes(&bytes).err()),
        ("Rocket::load_bytes", Rocket::load_bytes(&bytes).err()),
    ] {
        let err = err.unwrap_or_else(|| panic!("{loader} accepted a corrupt ridge head"));
        assert!(err.to_string().contains("checksum mismatch"), "{loader}: {err}");
    }
}

#[test]
fn truncation_is_an_error_not_a_panic() {
    let (train, _) = toy_problem(10, 6);
    let mut m = RidgeClassifier::default();
    m.fit_features(&flatten(&train), train.labels(), train.n_classes());
    let bytes = SavedModel::Ridge(m).save_bytes().unwrap();
    for cut in 0..bytes.len() {
        assert!(load_model_bytes(&bytes[..cut]).is_err(), "truncation at {cut} accepted");
    }
}

#[test]
fn wrong_kind_and_unknown_kind_are_rejected() {
    // A syntactically valid container whose kind no model claims.
    let mut w = CodecWriter::new("martian");
    w.section("meta", vec![1, 2, 3]);
    match load_model_bytes(&w.finish()) {
        Err(e) => assert!(format!("{e}").contains("martian"), "{e}"),
        Ok(_) => panic!("unknown kind accepted"),
    }

    // A ridge container fed to the rocket-specific loader.
    let (train, _) = toy_problem(11, 6);
    let mut ridge = RidgeClassifier::default();
    ridge.fit_features(&flatten(&train), train.labels(), train.n_classes());
    let bytes = SavedModel::Ridge(ridge).save_bytes().unwrap();
    let reader = CodecReader::parse(&bytes).unwrap();
    assert!(reader.expect_kind(tsda_classify::rocket::ROCKET_KIND).is_err());
}

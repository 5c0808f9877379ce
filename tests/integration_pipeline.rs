//! End-to-end integration: archive generation → augmentation → ROCKET
//! classification → relative gain, spanning every crate in the
//! workspace (the quickstart path, asserted).

use tsda_augment::balance::augment_to_balance;
use tsda_augment::oversample::Smote;
use tsda_augment::taxonomy::PaperTechnique;
use tsda_classify::rocket::{Rocket, RocketConfig};
use tsda_classify::traits::Classifier;
use tsda_core::metrics::relative_gain;
use tsda_core::rng::seeded;
use tsda_datasets::registry::{DatasetId, DatasetMeta};
use tsda_datasets::synth::{generate, GenOptions};

#[test]
fn archive_to_accuracy_pipeline_runs() {
    let meta = DatasetMeta::get(DatasetId::RacketSports);
    let data = generate(meta, &GenOptions::ci(21));

    let balanced = augment_to_balance(&data.train, &Smote::default(), &mut seeded(1))
        .expect("SMOTE balances the imbalanced archive dataset");
    let counts = balanced.class_counts();
    assert!(counts.iter().all(|&c| c == counts[0]), "{counts:?}");

    let mut model = Rocket::new(RocketConfig { n_kernels: 150, ..RocketConfig::default() });
    let baseline = model.fit_score(&data.train, None, &data.test, &mut seeded(2));
    let mut model_aug = Rocket::new(RocketConfig { n_kernels: 150, ..RocketConfig::default() });
    let augmented = model_aug.fit_score(&balanced, None, &data.test, &mut seeded(2));

    // Both models must clearly beat 4-class chance on this separable set.
    assert!(baseline > 0.4, "baseline {baseline}");
    assert!(augmented > 0.4, "augmented {augmented}");
    let gain = relative_gain(baseline, augmented);
    assert!(gain.abs() < 1.0, "gain out of plausible range: {gain}");
}

#[test]
fn all_five_paper_techniques_balance_every_ci_dataset_class() {
    // The exact protocol of §IV-C on a small dataset: every technique
    // must produce a perfectly balanced training set (or fall back
    // gracefully inside the driver).
    let meta = DatasetMeta::get(DatasetId::Epilepsy);
    let data = generate(meta, &GenOptions::ci(22));
    for technique in PaperTechnique::ALL {
        let aug = technique.build(false);
        let out = augment_to_balance(&data.train, aug.as_ref(), &mut seeded(3))
            .unwrap_or_else(|e| panic!("{} failed: {e}", technique.label()));
        let counts = out.class_counts();
        let max = counts.iter().max().copied().unwrap();
        assert!(
            counts.iter().all(|&c| c == max),
            "{} left counts {counts:?}",
            technique.label()
        );
        // Originals are preserved verbatim at the front.
        assert_eq!(out.series()[0], data.train.series()[0]);
    }
}

#[test]
fn augmentation_never_touches_the_test_set() {
    let meta = DatasetMeta::get(DatasetId::RacketSports);
    let data = generate(meta, &GenOptions::ci(23));
    let before = data.test.clone();
    let _ = augment_to_balance(&data.train, &Smote::default(), &mut seeded(4)).unwrap();
    assert_eq!(before.len(), data.test.len());
    for (a, b) in before.series().iter().zip(data.test.series()) {
        assert_eq!(a, b);
    }
}

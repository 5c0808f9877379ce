//! Accuracy ablations for the design choices DESIGN.md calls out
//! (runtime ablations live in `benches/ablations.rs`):
//!
//! * noise level sweep l ∈ {0.5, 1, 2, 3, 5} (extends the paper's
//!   three levels);
//! * SMOTE k ∈ {1, 3, 5, 10};
//! * ROCKET kernel count (the accuracy/cost trade the paper's "10 000
//!   kernels" buys);
//! * augment-to-balance vs 2× overshoot (is more synthetic data better?).
//!
//! Run: `cargo run --release --example ablation_accuracy`

use tsda_augment::balance::{augment_to_balance, augment_to_target};
use tsda_augment::basic::time::NoiseInjection;
use tsda_augment::oversample::Smote;
use tsda_classify::rocket::{Rocket, RocketConfig};
use tsda_classify::traits::Classifier;
use tsda_core::rng::seeded;
use tsda_core::Dataset;
use tsda_datasets::registry::{DatasetId, DatasetMeta};
use tsda_datasets::synth::{generate, GenOptions};

fn score(train: &Dataset, test: &Dataset, kernels: usize, seed: u64) -> f64 {
    let mut model = Rocket::new(RocketConfig { n_kernels: kernels });
    model.fit_score(train, None, test, &mut seeded(seed)) * 100.0
}

fn main() {
    let meta = DatasetMeta::get(DatasetId::Epilepsy);
    let data = generate(meta, &GenOptions::ci(55));
    println!("dataset: {} (counts {:?})\n", meta.name, data.train.class_counts());

    let baseline = score(&data.train, &data.test, 300, 1);
    println!("baseline accuracy: {baseline:.2}%\n");

    println!("— noise level sweep (Eq. 6) —");
    for level in [0.5, 1.0, 2.0, 3.0, 5.0] {
        let aug = NoiseInjection::level(level);
        let balanced = augment_to_balance(&data.train, &aug, &mut seeded(2)).unwrap();
        let acc = score(&balanced, &data.test, 300, 1);
        println!("noise_{level:<4}: {acc:.2}%  (Δ {:+.2})", acc - baseline);
    }

    println!("\n— SMOTE k sweep —");
    for k in [1usize, 3, 5, 10] {
        let aug = Smote { k };
        let balanced = augment_to_balance(&data.train, &aug, &mut seeded(3)).unwrap();
        let acc = score(&balanced, &data.test, 300, 1);
        println!("k={k:<2}: {acc:.2}%  (Δ {:+.2})", acc - baseline);
    }

    println!("\n— ROCKET kernel count (baseline, no augmentation) —");
    for kernels in [50usize, 100, 300, 1000] {
        let acc = score(&data.train, &data.test, kernels, 1);
        println!("{kernels:>5} kernels: {acc:.2}%");
    }

    println!("\n— balance vs overshoot (SMOTE) —");
    let balanced = augment_to_balance(&data.train, &Smote::default(), &mut seeded(4)).unwrap();
    let max_class = *data.train.class_counts().iter().max().unwrap();
    let overshoot =
        augment_to_target(&data.train, &Smote::default(), 2 * max_class, &mut seeded(4)).unwrap();
    println!(
        "balanced ({} series):  {:.2}%",
        balanced.len(),
        score(&balanced, &data.test, 300, 1)
    );
    println!(
        "2x overshoot ({} series): {:.2}%",
        overshoot.len(),
        score(&overshoot, &data.test, 300, 1)
    );
}

//! A realistic imbalanced-sensor scenario: fault detection where the
//! fault class is rare (the paper's introduction motivates exactly this
//! setting — sensor data, costly minority events, labels sensitive to
//! perturbation).
//!
//! We build a 3-axis vibration dataset with a 12:1 healthy/fault
//! imbalance, then compare balancing strategies from three taxonomy
//! branches on macro-F1 (accuracy is misleading under imbalance):
//! plain noise, SMOTE, and the label-preserving range technique.
//!
//! Run: `cargo run --release --example imbalanced_sensor`

use tsda_augment::balance::augment_to_balance;
use tsda_augment::basic::time::NoiseInjection;
use tsda_augment::oversample::Smote;
use tsda_augment::preserve::label::RangeNoise;
use tsda_augment::Augmenter;
use tsda_classify::rocket::{Rocket, RocketConfig};
use tsda_classify::traits::Classifier;
use tsda_core::metrics::macro_f1;
use tsda_core::rng::{normal, seeded};
use tsda_core::{Dataset, Mts};

/// Healthy machines hum at low frequency; faulty bearings add a
/// high-frequency rattle burst whose amplitude barely exceeds the noise.
fn vibration_dataset(n_healthy: usize, n_faulty: usize, seed: u64) -> Dataset {
    let mut rng = seeded(seed);
    let mut ds = Dataset::empty(2);
    let len = 64;
    for class in 0..2 {
        let n = if class == 0 { n_healthy } else { n_faulty };
        for _ in 0..n {
            let dims: Vec<Vec<f64>> = (0..3)
                .map(|axis| {
                    (0..len)
                        .map(|t| {
                            let x = t as f64;
                            let hum = (x * 0.25 + axis as f64).sin();
                            let rattle = if class == 1 && (20..36).contains(&t) {
                                0.9 * (x * 2.1).sin()
                            } else {
                                0.0
                            };
                            hum + rattle + normal(&mut rng, 0.0, 0.35)
                        })
                        .collect()
                })
                .collect();
            ds.push(Mts::from_dims(dims), class);
        }
    }
    ds
}

fn main() {
    let train = vibration_dataset(60, 5, 1);
    let test = vibration_dataset(30, 30, 2); // balanced test: F1 is honest
    println!(
        "train: {:?} (12:1 imbalance), test: {:?}",
        train.class_counts(),
        test.class_counts()
    );

    let strategies: Vec<(&str, Option<Box<dyn Augmenter>>)> = vec![
        ("no augmentation", None),
        ("noise level 1 (basic)", Some(Box::new(NoiseInjection::level(1.0)))),
        ("SMOTE (oversampling)", Some(Box::new(Smote::default()))),
        ("range noise (label-preserving)", Some(Box::new(RangeNoise::default()))),
    ];

    for (name, strategy) in strategies {
        let train_set = match &strategy {
            Some(aug) => augment_to_balance(&train, aug.as_ref(), &mut seeded(3))
                .expect("balancing succeeds on this dataset"),
            None => train.clone(),
        };
        let mut model = Rocket::new(RocketConfig { n_kernels: 300 });
        model.fit(&train_set, None, &mut seeded(4));
        let pred = model.predict(&test);
        let f1 = macro_f1(&pred, test.labels(), 2);
        let fault_recall = {
            let hits = pred
                .iter()
                .zip(test.labels())
                .filter(|&(p, &a)| a == 1 && *p == 1)
                .count();
            hits as f64 / test.class_counts()[1] as f64
        };
        println!(
            "{name:<32} macro-F1 {:.3}   fault recall {:.3}   (train size {})",
            f1,
            fault_recall,
            train_set.len()
        );
    }
    println!(
        "\nBalanced training catches more faults; the label-preserving\n\
         variant bounds its perturbations by the class margin (Fig. 5)."
    );
}

//! Property-based tests of the core invariants.

use proptest::prelude::*;
use tsda_core::characteristics::{hellinger_distance, imbalance_degree_hellinger};
use tsda_core::metrics::{accuracy, confusion_matrix, macro_f1, relative_gain};
use tsda_core::preprocess::{impute_linear, znormalize_series};
use tsda_core::{Dataset, Mts};

fn series(dims: usize, len: usize) -> impl Strategy<Value = Mts> {
    proptest::collection::vec(-100.0f64..100.0, dims * len)
        .prop_map(move |data| Mts::from_flat(dims, len, data))
}

fn labels(n: usize, k: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0..k, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn accuracy_is_a_proportion(pred in labels(20, 4), actual in labels(20, 4)) {
        let a = accuracy(&pred, &actual);
        prop_assert!((0.0..=1.0).contains(&a));
        // Confusion-matrix diagonal agrees with accuracy.
        let m = confusion_matrix(&pred, &actual, 4);
        let diag: usize = (0..4).map(|c| m[c][c]).sum();
        prop_assert!((a - diag as f64 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn macro_f1_bounded_and_perfect_on_equality(y in labels(15, 3)) {
        prop_assert_eq!(macro_f1(&y, &y, 3), 1.0);
        let shifted: Vec<usize> = y.iter().map(|&l| (l + 1) % 3).collect();
        let f1 = macro_f1(&shifted, &y, 3);
        prop_assert!((0.0..=1.0).contains(&f1));
    }

    #[test]
    fn relative_gain_is_antisymmetric_in_sign(base in 0.01f64..1.0, aug in 0.01f64..1.0) {
        let g = relative_gain(base, aug);
        prop_assert_eq!(g > 0.0, aug > base);
        prop_assert!((g - (aug - base) / base).abs() < 1e-12);
    }

    #[test]
    fn hellinger_is_a_bounded_metric(
        p in proptest::collection::vec(0.0f64..1.0, 5),
        q in proptest::collection::vec(0.0f64..1.0, 5),
    ) {
        let norm = |v: &[f64]| -> Vec<f64> {
            let s: f64 = v.iter().sum::<f64>().max(1e-9);
            v.iter().map(|x| x / s).collect()
        };
        let p = norm(&p);
        let q = norm(&q);
        let d = hellinger_distance(&p, &q);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&d));
        prop_assert!((d - hellinger_distance(&q, &p)).abs() < 1e-12);
        prop_assert!(hellinger_distance(&p, &p) < 1e-12);
    }

    #[test]
    fn imbalance_degree_in_band(counts in proptest::collection::vec(1usize..50, 2..8)) {
        let total: usize = counts.iter().sum();
        let dist: Vec<f64> = counts.iter().map(|&c| c as f64 / total as f64).collect();
        let k = dist.len();
        let m = dist.iter().filter(|&&p| p < 1.0 / k as f64 - 1e-12).count();
        let id = imbalance_degree_hellinger(&dist);
        if m == 0 {
            prop_assert_eq!(id, 0.0);
        } else {
            prop_assert!(id > m as f64 - 1.0 - 1e-9 && id <= m as f64 + 1e-9, "id {} m {}", id, m);
        }
    }

    #[test]
    fn znormalize_is_idempotent_up_to_tolerance(s in series(2, 16)) {
        let once = znormalize_series(&s);
        let twice = znormalize_series(&once);
        for (a, b) in once.as_flat().iter().zip(twice.as_flat()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn impute_removes_all_missing(mut data in proptest::collection::vec(-5.0f64..5.0, 24),
                                  holes in proptest::collection::vec(0usize..24, 0..10)) {
        for &h in &holes {
            data[h] = f64::NAN;
        }
        let s = Mts::from_flat(2, 12, data);
        let filled = impute_linear(&s);
        prop_assert!(!filled.has_missing());
        // Observed positions are untouched.
        for m in 0..2 {
            for t in 0..12 {
                let orig = s.value(m, t);
                if !orig.is_nan() {
                    prop_assert_eq!(filled.value(m, t), orig);
                }
            }
        }
    }

    #[test]
    fn stratified_split_partitions_exactly(counts in proptest::collection::vec(2usize..12, 2..5)) {
        let mut ds = Dataset::empty(counts.len());
        for (c, &n) in counts.iter().enumerate() {
            for i in 0..n {
                ds.push(Mts::constant(1, 4, (c * 100 + i) as f64), c);
            }
        }
        let mut rng = tsda_core::rng::seeded(1);
        let (a, b) = ds.stratified_split(0.5, &mut rng);
        prop_assert_eq!(a.len() + b.len(), ds.len());
        for (ca, cb) in a.class_counts().iter().zip(b.class_counts()) {
            prop_assert!(*ca >= 1 && cb >= 1);
        }
    }
}

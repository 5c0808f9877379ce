//! Property-based tests of the neural substrate: loss invariants and
//! layer algebra that must hold for arbitrary bounded inputs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tsda_neuro::layers::{Activation, Dense, GlobalAvgPool1d, Layer, MaxPool1dSame};
use tsda_neuro::loss::{bce_with_logits, mse_loss, softmax, softmax_cross_entropy};
use tsda_neuro::tensor::Tensor;

fn tensor2(n: usize, m: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-5.0f32..5.0, n * m)
        .prop_map(move |d| Tensor::from_flat(&[n, m], d))
}

fn tensor3(n: usize, c: usize, t: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-5.0f32..5.0, n * c * t)
        .prop_map(move |d| Tensor::from_flat(&[n, c, t], d))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn softmax_rows_are_distributions(x in tensor2(4, 5)) {
        let p = softmax(&x);
        for i in 0..4 {
            let row = &p.data()[i * 5..(i + 1) * 5];
            let s: f32 = row.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-5);
            prop_assert!(row.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant(x in tensor2(2, 4), shift in -10.0f32..10.0) {
        let mut shifted = x.clone();
        for v in shifted.data_mut() {
            *v += shift;
        }
        let a = softmax(&x);
        let b = softmax(&shifted);
        for (p, q) in a.data().iter().zip(b.data()) {
            prop_assert!((p - q).abs() < 1e-5);
        }
    }

    #[test]
    fn cross_entropy_at_least_uniform_bound(x in tensor2(3, 4), t0 in 0usize..4, t1 in 0usize..4, t2 in 0usize..4) {
        // Loss is nonnegative and its gradient rows sum to ~0.
        let targets = [t0, t1, t2];
        let (loss, grad) = softmax_cross_entropy(&x, &targets);
        prop_assert!(loss >= 0.0);
        for i in 0..3 {
            let s: f32 = grad.data()[i * 4..(i + 1) * 4].iter().sum();
            prop_assert!(s.abs() < 1e-5);
        }
    }

    #[test]
    fn mse_zero_iff_equal(x in tensor2(3, 3)) {
        let (loss, grad) = mse_loss(&x, &x);
        prop_assert_eq!(loss, 0.0);
        prop_assert!(grad.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn bce_matches_naive_formula(x in proptest::collection::vec(-8.0f32..8.0, 6),
                                 t in proptest::collection::vec(0u8..2, 6)) {
        let logits = Tensor::from_flat(&[6], x.clone());
        let targets = Tensor::from_flat(&[6], t.iter().map(|&b| b as f32).collect());
        let (loss, _) = bce_with_logits(&logits, &targets);
        let naive: f32 = x
            .iter()
            .zip(&t)
            .map(|(&l, &y)| {
                let p = 1.0 / (1.0 + (-l).exp());
                let y = y as f32;
                -(y * p.max(1e-7).ln() + (1.0 - y) * (1.0 - p).max(1e-7).ln())
            })
            .sum::<f32>()
            / 6.0;
        prop_assert!((loss - naive).abs() < 1e-3, "{} vs {}", loss, naive);
    }

    #[test]
    fn relu_output_is_nonnegative_and_sparse_grad(x in tensor2(3, 6)) {
        let mut act = Activation::relu();
        let y = act.forward(&x);
        prop_assert!(y.data().iter().all(|&v| v >= 0.0));
        let g = act.backward(&Tensor::from_flat(y.shape(), vec![1.0; y.len()]));
        for (gv, &xv) in g.data().iter().zip(x.data()) {
            prop_assert_eq!(*gv != 0.0, xv > 0.0);
        }
    }

    #[test]
    fn gap_output_bounded_by_input_extremes(x in tensor3(2, 3, 5)) {
        let mut gap = GlobalAvgPool1d::new();
        let y = gap.forward(&x);
        let lo = x.data().iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = x.data().iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        prop_assert!(y.data().iter().all(|&v| v >= lo - 1e-6 && v <= hi + 1e-6));
    }

    #[test]
    fn maxpool_dominates_input(x in tensor3(1, 2, 8)) {
        let mut p = MaxPool1dSame::new(3);
        let y = p.forward(&x);
        for (o, i) in y.data().iter().zip(x.data()) {
            prop_assert!(o >= i, "pooled {} < input {}", o, i);
        }
    }

    #[test]
    fn dense_is_linear(x in tensor2(2, 3), scale in -2.0f32..2.0) {
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = Dense::new(3, 4, &mut rng);
        // Kill the bias so homogeneity holds exactly.
        let mut buf_index = 0;
        d.visit_params(&mut |p, _| {
            if buf_index == 1 {
                for v in p.iter_mut() {
                    *v = 0.0;
                }
            }
            buf_index += 1;
        });
        let y1 = d.forward(&x);
        let mut sx = x.clone();
        sx.scale(scale);
        let y2 = d.forward(&sx);
        for (a, b) in y1.data().iter().zip(y2.data()) {
            prop_assert!((a * scale - b).abs() < 1e-3 * (1.0 + a.abs() * scale.abs()), "{} vs {}", a * scale, b);
        }
    }
}

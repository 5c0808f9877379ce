//! Property-based tests of the linear-algebra invariants.

use proptest::prelude::*;
use tsda_linalg::cholesky::{cholesky, cholesky_jittered};
use tsda_linalg::cov::{covariance_matrix, shrinkage_covariance};
use tsda_linalg::matrix::Matrix;
use tsda_linalg::solve::RidgeLoocv;
use tsda_linalg::SymmetricEig;

/// Strategy: an n×m matrix with bounded entries.
fn matrix(n: usize, m: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0f64..10.0, n * m)
        .prop_map(move |data| Matrix::from_vec(n, m, data))
}

/// Strategy: a symmetric positive-definite matrix `BᵀB + I`.
fn spd(n: usize) -> impl Strategy<Value = Matrix> {
    matrix(n, n).prop_map(|b| {
        let mut a = b.gram();
        a.scale(1.0 / (a.max_abs().max(1.0))); // keep conditioning sane
        a.add_diagonal(1.0);
        a
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_is_associative(a in matrix(3, 4), b in matrix(4, 2), c in matrix(2, 5)) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!(left.approx_eq(&right, 1e-6 * (1.0 + left.max_abs())));
    }

    #[test]
    fn transpose_reverses_product(a in matrix(3, 4), b in matrix(4, 3)) {
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn matmul_into_matches_naive_triple_loop(
        (m, k, n) in (1usize..70, 1usize..150, 1usize..40),
        data in proptest::collection::vec(-10.0f64..10.0, 70 * 150 + 150 * 40),
    ) {
        // Shapes deliberately cross the kernel's MC/KC tile boundaries
        // and its 8×8 micro-kernel remainders.
        let a = Matrix::from_vec(m, k, data[..m * k].to_vec());
        let b = Matrix::from_vec(k, n, data[70 * 150..70 * 150 + k * n].to_vec());
        let tiled = a.matmul(&b);
        let naive = a.matmul_naive(&b);
        prop_assert!(tiled.approx_eq(&naive, 1e-9 * (1.0 + naive.max_abs())));
        let mut into = Matrix::zeros(m, n);
        a.matmul_into(&b, &mut into);
        prop_assert!(into.approx_eq(&tiled, 0.0)); // same kernel, same bits
    }

    #[test]
    fn cholesky_reconstructs(a in spd(4)) {
        let l = cholesky(&a).expect("SPD by construction");
        let back = l.matmul(&l.transpose());
        prop_assert!(back.approx_eq(&a, 1e-8 * (1.0 + a.max_abs())));
    }

    #[test]
    fn eigen_reconstructs_and_sorts(a in spd(5)) {
        let e = SymmetricEig::new(&a);
        let back = e.reconstruct(|l| l);
        prop_assert!(back.approx_eq(&a, 1e-7 * (1.0 + a.max_abs())));
        for w in e.values.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
        // SPD ⇒ all eigenvalues ≥ 1 (we added I).
        prop_assert!(e.values.iter().all(|&l| l > 0.0));
    }

    #[test]
    fn covariance_is_psd(x in matrix(8, 4)) {
        let c = covariance_matrix(&x);
        let e = SymmetricEig::new(&c);
        prop_assert!(e.values.iter().all(|&l| l > -1e-9), "{:?}", e.values);
    }

    #[test]
    fn shrinkage_always_factors(x in matrix(3, 6)) {
        // Fewer samples than dimensions: raw covariance is singular but
        // the shrunk one must always admit a (jittered) Cholesky.
        let sc = shrinkage_covariance(&x);
        prop_assert!((0.0..=1.0).contains(&sc.intensity));
        prop_assert!(cholesky_jittered(&sc.covariance, 14).is_ok());
    }

    #[test]
    fn ridge_loocv_never_beats_zero_training_error_claim(
        data in proptest::collection::vec(-1.0f64..1.0, 12 * 3),
        targets in proptest::collection::vec(-1.0f64..1.0, 12),
    ) {
        // Fitting must succeed and produce finite weights/intercepts for
        // any bounded data.
        let x = Matrix::from_vec(12, 3, data);
        let y = Matrix::from_vec(12, 1, targets);
        let sol = RidgeLoocv::default().fit(&x, &y);
        prop_assert!(sol.weights.as_slice().iter().all(|v| v.is_finite()));
        prop_assert!(sol.intercepts.iter().all(|v| v.is_finite()));
        prop_assert!(sol.loocv_mse.is_finite() && sol.loocv_mse >= 0.0);
    }
}

//! Ridge regression with closed-form leave-one-out cross-validation.
//!
//! ROCKET's companion classifier in the paper is scikit-learn's
//! `RidgeClassifierCV`, which sweeps a grid of regularisation strengths
//! and scores each by *exact* leave-one-out error computed from a single
//! eigendecomposition — no refitting per fold. This module reproduces
//! that algorithm.
//!
//! Two paths, chosen by shape:
//! * **primal** (`p ≤ n`): eigendecompose `XᵀX` once; for each α the hat
//!   diagonal is `hᵢ = xᵢᵀ (XᵀX + αI)⁻¹ xᵢ` and the LOO residual is
//!   `(yᵢ − ŷᵢ)/(1 − hᵢ)`.
//! * **dual** (`p > n`, the typical ROCKET regime at paper scale):
//!   eigendecompose the Gram matrix `K = XXᵀ`; with
//!   `G(α) = (K + αI)⁻¹`, the LOO residual is `(G y)ᵢ / Gᵢᵢ` and the
//!   primal weights recover as `w = Xᵀ G y`.

use crate::eig::SymmetricEig;
use crate::matrix::Matrix;

/// A fitted multi-output ridge model `ŷ = x·W + b`.
#[derive(Debug, Clone)]
pub struct RidgeSolution {
    /// Weight matrix, `p × k` for `p` features and `k` outputs.
    pub weights: Matrix,
    /// Per-output intercepts.
    pub intercepts: Vec<f64>,
    /// The regularisation strength that produced this solution.
    pub alpha: f64,
    /// Mean squared LOOCV error of the winning alpha.
    pub loocv_mse: f64,
}

impl RidgeSolution {
    /// Predict the `k` outputs for a single feature vector.
    pub fn predict(&self, x: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.intercepts.len());
        self.predict_into(x, &mut out);
        out
    }

    /// [`Self::predict`] into a caller-owned buffer (cleared first),
    /// which allocates nothing once `out` holds `k` values.
    pub fn predict_into(&self, x: &[f64], out: &mut Vec<f64>) {
        assert_eq!(x.len(), self.weights.rows(), "predict feature count mismatch");
        let k = self.weights.cols();
        out.clear();
        out.extend_from_slice(&self.intercepts);
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let row = self.weights.row(i);
            for j in 0..k {
                out[j] += xi * row[j];
            }
        }
    }

    /// Predict all rows of a feature matrix (`n × p` → `n × k`).
    pub fn predict_batch(&self, x: &Matrix) -> Matrix {
        let mut out = x.matmul(&self.weights);
        for i in 0..out.rows() {
            let row = out.row_mut(i);
            for (v, b) in row.iter_mut().zip(&self.intercepts) {
                *v += b;
            }
        }
        out
    }
}

/// Ridge regression estimator with a LOOCV alpha sweep.
#[derive(Debug, Clone)]
pub struct RidgeLoocv {
    /// Candidate regularisation strengths (all must be > 0).
    pub alphas: Vec<f64>,
}

impl Default for RidgeLoocv {
    /// The sweep used by the ROCKET reference implementation:
    /// `logspace(-3, 3, 10)`.
    fn default() -> Self {
        let alphas = (0..10)
            .map(|i| 10f64.powf(-3.0 + 6.0 * i as f64 / 9.0))
            .collect();
        Self { alphas }
    }
}

impl RidgeLoocv {
    /// Estimator with a single fixed alpha (no sweep).
    pub fn fixed(alpha: f64) -> Self {
        Self { alphas: vec![alpha] }
    }

    /// Fit on features `x` (`n × p`) and targets `y` (`n × k`).
    ///
    /// Data are centred internally, which realises the intercept; callers
    /// should still standardise feature scales when they differ wildly
    /// (ROCKET does).
    ///
    /// # Panics
    /// Panics if `x` and `y` disagree on row count, if `n == 0`, or if the
    /// alpha grid is empty.
    pub fn fit(&self, x: &Matrix, y: &Matrix) -> RidgeSolution {
        assert_eq!(x.rows(), y.rows(), "ridge fit: X/Y row mismatch");
        assert!(x.rows() > 0, "ridge fit: empty design matrix");
        assert!(!self.alphas.is_empty(), "ridge fit: empty alpha grid");

        let n = x.rows();
        let p = x.cols();
        let k = y.cols();

        // Centre features and targets.
        let x_mean: Vec<f64> = (0..p)
            .map(|j| tsda_core::math::sum_stable((0..n).map(|i| x[(i, j)])) / n as f64)
            .collect();
        let y_mean: Vec<f64> = (0..k)
            .map(|j| tsda_core::math::sum_stable((0..n).map(|i| y[(i, j)])) / n as f64)
            .collect();
        let xc = Matrix::from_fn(n, p, |i, j| x[(i, j)] - x_mean[j]);
        let yc = Matrix::from_fn(n, k, |i, j| y[(i, j)] - y_mean[j]);

        let (weights, alpha, loocv) = if p <= n {
            self.fit_primal(&xc, &yc)
        } else {
            self.fit_dual(&xc, &yc)
        };

        // b_j = ȳ_j − x̄ · w_j
        let intercepts: Vec<f64> = (0..k)
            .map(|j| {
                y_mean[j]
                    - tsda_core::math::sum_stable(
                        x_mean.iter().enumerate().map(|(f, &xm)| xm * weights[(f, j)]),
                    )
            })
            .collect();

        RidgeSolution { weights, intercepts, alpha, loocv_mse: loocv }
    }

    /// Primal path: eigendecompose `XᵀX` (p × p).
    fn fit_primal(&self, xc: &Matrix, yc: &Matrix) -> (Matrix, f64, f64) {
        let n = xc.rows();
        let p = xc.cols();
        let k = yc.cols();
        let xtx = xc.gram();
        let eig = SymmetricEig::new(&xtx);
        let xty = xc.transpose().matmul(yc);

        let mut best: Option<(f64, Matrix, f64)> = None;
        for &alpha in &self.alphas {
            // G = (XᵀX + αI)⁻¹ through the eigenbasis.
            let g = eig.reconstruct(|l| 1.0 / (l.max(0.0) + alpha));
            let w = g.matmul(&xty); // p × k
            let preds = xc.matmul(&w); // n × k
            // Hat diagonal hᵢ = 1/n + xᵢ G xᵢᵀ (the 1/n term is the
            // leverage of the intercept, realised here by centring).
            let mut sq = Vec::with_capacity(n * k);
            for i in 0..n {
                let xi = xc.row(i);
                let gxi = g.matvec(xi);
                let h: f64 = 1.0 / n as f64
                    + tsda_core::math::sum_stable(xi.iter().zip(&gxi).map(|(a, b)| a * b));
                let denom = (1.0 - h).max(1e-10);
                for j in 0..k {
                    let resid = (yc[(i, j)] - preds[(i, j)]) / denom;
                    sq.push(resid * resid);
                }
            }
            let mse = tsda_core::math::sum_stable(sq.iter().copied()) / (n * k) as f64;
            if best.as_ref().is_none_or(|(m, _, _)| mse < *m) {
                best = Some((mse, w, alpha));
            }
        }
        // An empty alpha grid is degenerate; return zero weights rather
        // than panicking in library code.
        let Some((mse, w, alpha)) = best else {
            return (Matrix::zeros(p, k), 0.0, f64::INFINITY);
        };
        debug_assert_eq!(w.shape(), (p, k));
        (w, alpha, mse)
    }

    /// Dual path: eigendecompose the Gram matrix `K = XXᵀ` (n × n).
    fn fit_dual(&self, xc: &Matrix, yc: &Matrix) -> (Matrix, f64, f64) {
        let n = xc.rows();
        let k = yc.cols();
        let mut gram = xc.gram_rows();
        // Model the intercept as a penalised constant feature by adding
        // the ones outer-product to the Gram matrix (as scikit-learn's
        // `_RidgeGCV` does). Without it, centring leaves a zero eigenvalue
        // whose 1/α term inflates Gᵢᵢ and fakes near-zero LOO errors at
        // tiny alphas.
        for v in gram.as_mut_slice() {
            *v += 1.0;
        }
        let eig = SymmetricEig::new(&gram);

        let mut best: Option<(f64, Matrix, f64)> = None;
        for &alpha in &self.alphas {
            let g = eig.reconstruct(|l| 1.0 / (l.max(0.0) + alpha));
            let c = g.matmul(yc); // n × k dual coefficients
            let mut sq = Vec::with_capacity(n * k);
            for i in 0..n {
                let gii = g[(i, i)].max(1e-12);
                for j in 0..k {
                    let resid = c[(i, j)] / gii;
                    sq.push(resid * resid);
                }
            }
            let mse = tsda_core::math::sum_stable(sq.iter().copied()) / (n * k) as f64;
            if best.as_ref().is_none_or(|(m, _, _)| mse < *m) {
                best = Some((mse, c, alpha));
            }
        }
        // An empty alpha grid is degenerate; return zero weights rather
        // than panicking in library code.
        let Some((mse, c, alpha)) = best else {
            return (Matrix::zeros(xc.cols(), k), 0.0, f64::INFINITY);
        };
        let w = xc.transpose().matmul(&c); // p × k
        (w, alpha, mse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// y = 2 x0 − x1 + 0.5, exactly linear; ridge with tiny alpha must
    /// recover it.
    #[test]
    fn recovers_exact_linear_relation() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 40;
        let x = Matrix::from_fn(n, 2, |_, _| rng.gen_range(-1.0..1.0));
        let y = Matrix::from_fn(n, 1, |i, _| 2.0 * x[(i, 0)] - x[(i, 1)] + 0.5);
        let sol = RidgeLoocv::fixed(1e-8).fit(&x, &y);
        assert!((sol.weights[(0, 0)] - 2.0).abs() < 1e-4, "{sol:?}");
        assert!((sol.weights[(1, 0)] + 1.0).abs() < 1e-4);
        assert!((sol.intercepts[0] - 0.5).abs() < 1e-4);
    }

    #[test]
    fn dual_path_interpolates_exact_linear_relation() {
        let mut rng = StdRng::seed_from_u64(11);
        // n=10 < p=20 triggers the dual path through `fit`.
        let n = 10;
        let p = 20;
        let x = Matrix::from_fn(n, p, |_, _| rng.gen_range(-1.0..1.0));
        let true_w: Vec<f64> = (0..p).map(|j| if j < 3 { 1.0 } else { 0.0 }).collect();
        let y = Matrix::from_fn(n, 1, |i, _| {
            x.row(i).iter().zip(&true_w).map(|(a, b)| a * b).sum::<f64>()
        });
        let sol = RidgeLoocv::fixed(1e-8).fit(&x, &y);
        // The minimum-norm interpolator reproduces the training targets.
        let preds = sol.predict_batch(&x);
        for i in 0..n {
            assert!((preds[(i, 0)] - y[(i, 0)]).abs() < 1e-4, "row {i}");
        }
    }

    #[test]
    fn loocv_prefers_regularisation_under_noise() {
        // Pure-noise, overparameterised: LOOCV should not pick the
        // smallest alpha (which interpolates the noise).
        let mut rng = StdRng::seed_from_u64(3);
        let n = 15;
        let p = 40;
        let x = Matrix::from_fn(n, p, |_, _| rng.gen_range(-1.0..1.0));
        let y = Matrix::from_fn(n, 1, |_, _| rng.gen_range(-1.0..1.0));
        let sol = RidgeLoocv::default().fit(&x, &y);
        assert!(sol.alpha > 1e-3, "picked alpha {}", sol.alpha);
    }

    #[test]
    fn multi_output_predicts_each_column() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 30;
        let x = Matrix::from_fn(n, 3, |_, _| rng.gen_range(-1.0..1.0));
        let y = Matrix::from_fn(n, 2, |i, j| {
            if j == 0 {
                x[(i, 0)] + 1.0
            } else {
                -2.0 * x[(i, 2)]
            }
        });
        let sol = RidgeLoocv::fixed(1e-6).fit(&x, &y);
        let pred = sol.predict(&[0.5, 0.1, -0.4]);
        assert!((pred[0] - 1.5).abs() < 1e-3);
        assert!((pred[1] - 0.8).abs() < 1e-3);
    }

    #[test]
    fn predict_batch_matches_predict() {
        let mut rng = StdRng::seed_from_u64(9);
        let x = Matrix::from_fn(20, 4, |_, _| rng.gen_range(-1.0..1.0));
        let y = Matrix::from_fn(20, 3, |_, _| rng.gen_range(-1.0..1.0));
        let sol = RidgeLoocv::default().fit(&x, &y);
        let batch = sol.predict_batch(&x);
        for i in 0..5 {
            let single = sol.predict(x.row(i));
            for j in 0..3 {
                assert!((batch[(i, j)] - single[j]).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty design matrix")]
    fn rejects_empty_input() {
        let _ = RidgeLoocv::default().fit(&Matrix::zeros(0, 3), &Matrix::zeros(0, 1));
    }
}

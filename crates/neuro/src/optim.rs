//! The optimiser. Adam is what both the InceptionTime reference (fastai)
//! and the TimeGAN reference use, and every trainer here uses it.

use crate::layers::Layer;

/// Adam (Kingma & Ba 2015) with optional global-norm gradient clipping.
pub struct Adam {
    /// Learning rate (mutable so cyclical schedules can drive it).
    pub lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    /// Clip the global gradient norm to this value when `Some`.
    pub clip_norm: Option<f32>,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Adam with the standard `(β₁, β₂, ε) = (0.9, 0.999, 1e-8)`.
    pub fn new(lr: f32) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, clip_norm: None, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Enable global-norm gradient clipping (useful for GRU stacks).
    pub fn with_clip(mut self, clip_norm: f32) -> Self {
        self.clip_norm = Some(clip_norm);
        self
    }

    /// Apply one update step using the gradients accumulated in `layer`.
    ///
    /// Moment buffers are allocated lazily on the first step and keyed by
    /// visit order, so a given `Adam` must always be used with the same
    /// layer (or stack).
    pub fn step<L: Layer + ?Sized>(&mut self, layer: &mut L) {
        self.t += 1;
        // Optional clipping needs the global norm first.
        let scale = if let Some(clip) = self.clip_norm {
            let mut sq_terms: Vec<f64> = Vec::new();
            layer.visit_params(&mut |_, g| {
                sq_terms.extend(g.iter().map(|&v| (v as f64) * (v as f64)));
            });
            let norm = tsda_core::math::sum_stable(sq_terms.iter().copied()).sqrt() as f32;
            if norm > clip && norm > 0.0 {
                clip / norm
            } else {
                1.0
            }
        } else {
            1.0
        };

        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let (m_all, v_all) = (&mut self.m, &mut self.v);
        let mut idx = 0usize;
        layer.visit_params(&mut |p, g| {
            if m_all.len() <= idx {
                m_all.push(vec![0.0; p.len()]);
                v_all.push(vec![0.0; p.len()]);
            }
            let m = &mut m_all[idx];
            let v = &mut v_all[idx];
            assert_eq!(m.len(), p.len(), "optimiser used with a different layer");
            for i in 0..p.len() {
                let gi = g[i] * scale;
                m[i] = b1 * m[i] + (1.0 - b1) * gi;
                v[i] = b2 * v[i] + (1.0 - b2) * gi * gi;
                let mhat = m[i] / bc1;
                let vhat = v[i] / bc2;
                p[i] -= lr * mhat / (vhat.sqrt() + eps);
            }
            idx += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Layer};
    use crate::loss::mse_loss;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Adam on a tiny regression: y = 2x. Loss must fall by >100x.
    #[test]
    fn adam_fits_linear_regression() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = Dense::new(1, 1, &mut rng);
        let mut opt = Adam::new(0.05);
        let x = Tensor::from_flat(&[4, 1], vec![-1.0, 0.0, 1.0, 2.0]);
        let y = Tensor::from_flat(&[4, 1], vec![-2.0, 0.0, 2.0, 4.0]);
        let initial = mse_loss(&net.forward(&x), &y).0;
        for _ in 0..300 {
            let out = net.forward(&x);
            let (_, grad) = mse_loss(&out, &y);
            net.zero_grad();
            let _ = net.backward(&grad);
            opt.step(&mut net);
        }
        let fin = mse_loss(&net.forward(&x), &y).0;
        assert!(fin < initial / 100.0, "initial {initial}, final {fin}");
    }

    #[test]
    fn clipping_limits_update_magnitude() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Dense::new(1, 1, &mut rng);
        let mut opt = Adam::new(0.1).with_clip(1e-3);
        // Huge target creates a huge gradient; the clipped step must stay
        // bounded by ~lr regardless.
        let x = Tensor::from_flat(&[1, 1], vec![1.0]);
        let y = Tensor::from_flat(&[1, 1], vec![1e6]);
        let mut before = Vec::new();
        net.visit_params(&mut |p, _| before.extend_from_slice(p));
        let out = net.forward(&x);
        let (_, grad) = mse_loss(&out, &y);
        net.zero_grad();
        let _ = net.backward(&grad);
        opt.step(&mut net);
        let mut after = Vec::new();
        net.visit_params(&mut |p, _| after.extend_from_slice(p));
        for (b, a) in before.iter().zip(&after) {
            assert!((a - b).abs() <= 0.11, "step too large: {b} -> {a}");
        }
    }

    #[test]
    #[should_panic(expected = "different layer")]
    fn rejects_layer_swap() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut a = Dense::new(2, 2, &mut rng);
        let mut b = Dense::new(3, 3, &mut rng);
        let mut opt = Adam::new(0.01);
        let xa = Tensor::zeros(&[1, 2]);
        let _ = a.forward(&xa);
        let _ = a.backward(&Tensor::zeros(&[1, 2]));
        opt.step(&mut a);
        opt.step(&mut b);
    }
}

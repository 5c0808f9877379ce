//! Trainable layers with explicit forward/backward passes.
//!
//! A [`Layer`] has two forward passes. `forward(&mut self)` trains: it
//! uses batch statistics where the layer has them (batch norm) and
//! caches whatever `backward` needs. `infer(&self)` evaluates: it uses
//! the running statistics and caches nothing, so one fitted network can
//! serve from many threads without a lock. Both share each layer's
//! arithmetic; outside batch norm, `forward` is `infer` plus the cache.
//! `backward` accumulates parameter gradients, and optimisers reach the
//! parameters through [`Layer::visit_params`].

mod activation;
mod conv;
mod dense;
mod gru;
mod norm;
mod pool;

pub use activation::Activation;
pub use conv::Conv1d;
pub use dense::Dense;
pub use gru::Gru;
pub use norm::BatchNorm1d;
pub use pool::{GlobalAvgPool1d, MaxPool1dSame};

use crate::tensor::Tensor;

/// A differentiable layer.
pub trait Layer {
    /// Training forward: batch statistics, and intermediates cached
    /// for `backward`.
    fn forward(&mut self, x: &Tensor) -> Tensor;

    /// Evaluation forward: running statistics, nothing cached.
    fn infer(&self, x: &Tensor) -> Tensor;

    /// Given the loss gradient w.r.t. the last `forward` output,
    /// accumulate parameter gradients and return the gradient w.r.t. the
    /// input.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Visit `(parameter, gradient)` buffer pairs in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32]));

    /// Visit non-trainable state buffers (batch-norm running statistics)
    /// in a stable order. Checkpointing MUST capture these alongside the
    /// parameters: restoring best-epoch weights while keeping last-epoch
    /// running statistics silently corrupts eval-mode predictions.
    fn visit_buffers(&mut self, _f: &mut dyn FnMut(&mut [f32])) {}

    /// Reset all parameter gradients to zero.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |_, g| {
            for v in g.iter_mut() {
                *v = 0.0;
            }
        });
    }

    /// Total parameter count.
    fn n_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p, _| n += p.len());
        n
    }
}

/// A sequential stack of layers, itself a [`Layer`]. Its layers are
/// `Send + Sync`, so a fitted stack can serve from many threads.
pub struct Sequential {
    layers: Vec<Box<dyn Layer + Send + Sync>>,
}

impl Sequential {
    /// Build from a vector of boxed layers.
    pub fn new(layers: Vec<Box<dyn Layer + Send + Sync>>) -> Self {
        Self { layers }
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut cur = x.clone();
        for l in &mut self.layers {
            cur = l.forward(&cur);
        }
        cur
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        let mut cur = x.clone();
        for l in &self.layers {
            cur = l.infer(&cur);
        }
        cur
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for l in self.layers.iter_mut().rev() {
            g = l.backward(&g);
        }
        g
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        for l in &mut self.layers {
            l.visit_params(f);
        }
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        for l in &mut self.layers {
            l.visit_buffers(f);
        }
    }
}

#[doc(hidden)]
pub mod gradcheck {
    //! Finite-difference gradient checking shared by layer tests across
    //! the workspace (also used by `tsda-classify`'s InceptionTime
    //! tests). Not part of the stable API.

    use super::*;

    /// Scalar loss = sum of element-wise `out * seed` for a fixed
    /// pseudo-random seed vector, so every output position contributes a
    /// distinct gradient.
    pub fn seeded_loss_grad(out: &Tensor) -> (f32, Tensor) {
        let seed: Vec<f32> = (0..out.len())
            .map(|i| ((i * 2654435761) % 17) as f32 / 8.0 - 1.0)
            .collect();
        let loss: f32 =
            tsda_core::math::sum_stable(out.data().iter().zip(&seed).map(|(a, b)| a * b));
        (loss, Tensor::from_flat(out.shape(), seed))
    }

    /// Check input gradients of `layer` at `x` by central differences.
    pub fn check_input_grad<L: Layer>(layer: &mut L, x: &Tensor, tol: f32) {
        let out = layer.forward(x);
        let (_, gout) = seeded_loss_grad(&out);
        layer.zero_grad();
        let gin = layer.backward(&gout);
        let eps = 1e-2f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let (lp, _) = seeded_loss_grad(&layer.forward(&xp));
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let (lm, _) = seeded_loss_grad(&layer.forward(&xm));
            let num = (lp - lm) / (2.0 * eps);
            let ana = gin.data()[i];
            assert!(
                (num - ana).abs() <= tol * (1.0 + num.abs().max(ana.abs())),
                "input grad {i}: numeric {num} vs analytic {ana}"
            );
        }
        // Restore cache for callers that keep using the layer.
        let _ = layer.forward(x);
    }

    /// Check parameter gradients of `layer` at `x` by central differences.
    pub fn check_param_grad<L: Layer>(layer: &mut L, x: &Tensor, tol: f32) {
        let out = layer.forward(x);
        let (_, gout) = seeded_loss_grad(&out);
        layer.zero_grad();
        let _ = layer.backward(&gout);
        // Snapshot analytic gradients.
        let mut analytic: Vec<Vec<f32>> = Vec::new();
        layer.visit_params(&mut |_, g| analytic.push(g.to_vec()));
        let eps = 1e-2f32;
        let mut param_idx = 0;
        // For each parameter buffer and element, perturb and re-evaluate.
        for (buf, buf_grads) in analytic.iter().enumerate() {
            let n = buf_grads.len();
            for i in 0..n {
                let bump = |layer: &mut L, delta: f32| {
                    let mut b = 0;
                    layer.visit_params(&mut |p, _| {
                        if b == buf {
                            p[i] += delta;
                        }
                        b += 1;
                    });
                };
                bump(layer, eps);
                let (lp, _) = seeded_loss_grad(&layer.forward(x));
                bump(layer, -2.0 * eps);
                let (lm, _) = seeded_loss_grad(&layer.forward(x));
                bump(layer, eps);
                let num = (lp - lm) / (2.0 * eps);
                let ana = buf_grads[i];
                assert!(
                    (num - ana).abs() <= tol * (1.0 + num.abs().max(ana.abs())),
                    "param buf {buf} elem {i}: numeric {num} vs analytic {ana}"
                );
                param_idx += 1;
            }
        }
        let _ = param_idx;
        let _ = layer.forward(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sequential_composes_forward_and_backward() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = Sequential::new(vec![
            Box::new(Dense::new(3, 5, &mut rng)),
            Box::new(Activation::relu()),
            Box::new(Dense::new(5, 2, &mut rng)),
        ]);
        let x = Tensor::from_flat(&[4, 3], (0..12).map(|v| v as f32 * 0.1 - 0.5).collect());
        let y = net.forward(&x);
        assert_eq!(y.shape(), &[4, 2]);
        net.zero_grad();
        let gin = net.backward(&Tensor::from_flat(&[4, 2], vec![1.0; 8]));
        assert_eq!(gin.shape(), &[4, 3]);
        assert!(net.n_params() > 0);
    }

    #[test]
    fn sequential_gradcheck() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Sequential::new(vec![
            Box::new(Dense::new(3, 4, &mut rng)),
            Box::new(Activation::tanh()),
            Box::new(Dense::new(4, 2, &mut rng)),
        ]);
        let x = Tensor::from_flat(&[2, 3], vec![0.3, -0.2, 0.5, 0.1, 0.7, -0.4]);
        gradcheck::check_input_grad(&mut net, &x, 2e-2);
    }
}

//! Batch normalisation over channels of `[batch, ch, time]` tensors.

use super::Layer;
use crate::tensor::Tensor;
use tsda_linalg::simd;

/// Batch normalisation (Ioffe & Szegedy) for 1-D convolutional feature
/// maps: statistics are taken per channel over the batch and time axes.
pub struct BatchNorm1d {
    channels: usize,
    eps: f32,
    momentum: f32,
    gamma: Vec<f32>,
    beta: Vec<f32>,
    g_gamma: Vec<f32>,
    g_beta: Vec<f32>,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    // Caches from the last training forward.
    cached_xhat: Option<Tensor>,
    cached_std: Vec<f32>,
}

impl BatchNorm1d {
    /// New batch-norm layer with unit gamma / zero beta.
    pub fn new(channels: usize) -> Self {
        Self {
            channels,
            eps: 1e-5,
            momentum: 0.1,
            gamma: vec![1.0; channels],
            beta: vec![0.0; channels],
            g_gamma: vec![0.0; channels],
            g_beta: vec![0.0; channels],
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            cached_xhat: None,
            cached_std: vec![0.0; channels],
        }
    }

    /// `(batch, time)` extents of `x`, after checking its layout.
    fn extents(&self, x: &Tensor) -> (usize, usize) {
        assert_eq!(x.shape().len(), 3, "BatchNorm1d expects [batch, ch, time]");
        assert_eq!(x.shape()[1], self.channels, "BatchNorm1d channel mismatch");
        (x.shape()[0], x.shape()[2])
    }

    /// The normalise + affine pass both statistics sources share:
    /// channel `c` is normalised with `stats[c] = (mean, std)`. Each
    /// `(batch, channel)` run is a contiguous `t_len` slice of the
    /// row-major tensor and goes through one fused kernel call with the
    /// division pre-inverted, bit-identical across dispatch levels.
    /// `xhat`, when given, receives the normalised values; otherwise
    /// they land in a one-run scratch.
    fn normalise(&self, x: &Tensor, stats: &[(f32, f32)], mut xhat: Option<&mut [f32]>) -> Tensor {
        let (n, t_len) = self.extents(x);
        let lvl = simd::level();
        let mut out = Tensor::zeros(x.shape());
        let mut scratch = vec![0.0; t_len];
        for (c, &(mean, std)) in stats.iter().enumerate() {
            let inv_std = 1.0 / std;
            for b in 0..n {
                let r = (b * self.channels + c) * t_len;
                let xh = match xhat.as_deref_mut() {
                    Some(xhat) => &mut xhat[r..r + t_len],
                    None => &mut scratch[..],
                };
                simd::bn_forward_f32_with(
                    lvl,
                    &x.data()[r..r + t_len],
                    mean,
                    inv_std,
                    self.gamma[c],
                    self.beta[c],
                    xh,
                    &mut out.data_mut()[r..r + t_len],
                );
            }
        }
        out
    }
}

impl Layer for BatchNorm1d {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let (n, t_len) = self.extents(x);
        let count = (n * t_len) as f32;
        // Batch statistics per channel over the batch and time axes, by
        // the striped fixed-tree reductions from `tsda_linalg::simd`
        // (per-sample partials added in ascending batch order).
        let lvl = simd::level();
        let channels = self.channels;
        let run = |b: usize, c: usize| {
            let r = (b * channels + c) * t_len;
            &x.data()[r..r + t_len]
        };
        let mut stats = Vec::with_capacity(channels);
        for c in 0..channels {
            let mut sum = 0.0;
            for b in 0..n {
                sum += simd::sum_f32_with(lvl, run(b, c));
            }
            let mean = sum / count;
            let mut var = 0.0;
            for b in 0..n {
                var += simd::sumsq_centered_f32_with(lvl, run(b, c), mean);
            }
            var /= count;
            self.running_mean[c] =
                (1.0 - self.momentum) * self.running_mean[c] + self.momentum * mean;
            self.running_var[c] =
                (1.0 - self.momentum) * self.running_var[c] + self.momentum * var;
            let std = (var + self.eps).sqrt();
            self.cached_std[c] = std;
            stats.push((mean, std));
        }
        let mut xhat = Tensor::zeros(x.shape());
        let out = self.normalise(x, &stats, Some(xhat.data_mut()));
        self.cached_xhat = Some(xhat);
        out
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        let stats: Vec<(f32, f32)> = self
            .running_mean
            .iter()
            .zip(&self.running_var)
            .map(|(&mean, &var)| (mean, (var + self.eps).sqrt()))
            .collect();
        self.normalise(x, &stats, None)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let xhat = self
            .cached_xhat
            .as_ref()
            .expect("BatchNorm1d backward requires a training forward");
        let n = grad_out.shape()[0];
        let t_len = grad_out.shape()[2];
        let count = (n * t_len) as f32;
        let mut gx = Tensor::zeros(grad_out.shape());
        for c in 0..self.channels {
            let mut sum_g = 0.0;
            let mut sum_gh = 0.0;
            for b in 0..n {
                for t in 0..t_len {
                    let g = grad_out.at3(b, c, t);
                    sum_g += g;
                    sum_gh += g * xhat.at3(b, c, t);
                    self.g_beta[c] += g;
                    self.g_gamma[c] += g * xhat.at3(b, c, t);
                }
            }
            let scale = self.gamma[c] / self.cached_std[c];
            for b in 0..n {
                for t in 0..t_len {
                    let g = grad_out.at3(b, c, t);
                    let h = xhat.at3(b, c, t);
                    *gx.at3_mut(b, c, t) =
                        scale * (g - sum_g / count - h * sum_gh / count);
                }
            }
        }
        gx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(&mut self.gamma, &mut self.g_gamma);
        f(&mut self.beta, &mut self.g_beta);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        f(&mut self.running_mean);
        f(&mut self.running_var);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;

    fn sample() -> Tensor {
        Tensor::from_flat(
            &[2, 2, 3],
            vec![1.0, 2.0, 3.0, 10.0, 20.0, 30.0, 4.0, 5.0, 6.0, 40.0, 50.0, 60.0],
        )
    }

    #[test]
    fn training_output_is_standardised() {
        let mut bn = BatchNorm1d::new(2);
        let y = bn.forward(&sample());
        for c in 0..2 {
            let vals: Vec<f32> = (0..2)
                .flat_map(|b| (0..3).map(move |t| (b, t)))
                .map(|(b, t)| y.at3(b, c, t))
                .collect();
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-5, "channel {c} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "channel {c} var {var}");
        }
    }

    #[test]
    fn eval_uses_running_statistics() {
        let mut bn = BatchNorm1d::new(2);
        // Saturate the running stats with many training passes.
        for _ in 0..200 {
            let _ = bn.forward(&sample());
        }
        let y_eval = bn.infer(&sample());
        let y_train = bn.forward(&sample());
        // Converged running stats ≈ batch stats, so outputs agree loosely.
        for (a, b) in y_eval.data().iter().zip(y_train.data()) {
            assert!((a - b).abs() < 0.15, "{a} vs {b}");
        }
    }

    #[test]
    fn gradients_check_numerically() {
        let mut bn = BatchNorm1d::new(2);
        let x = Tensor::from_flat(
            &[2, 2, 3],
            vec![0.5, -1.0, 2.0, 1.5, 0.3, -0.7, -0.2, 0.9, 1.1, 0.0, -1.3, 0.4],
        );
        gradcheck::check_input_grad(&mut bn, &x, 3e-2);
        gradcheck::check_param_grad(&mut bn, &x, 3e-2);
    }

    #[test]
    fn gamma_beta_shift_output() {
        let mut bn = BatchNorm1d::new(1);
        bn.visit_params(&mut |p, _| {
            p[0] = if p[0] == 1.0 { 2.0 } else { 3.0 } // gamma=2, beta=3
        });
        let x = Tensor::from_flat(&[1, 1, 4], vec![1.0, 2.0, 3.0, 4.0]);
        let y = bn.forward(&x);
        let mean: f32 = y.data().iter().sum::<f32>() / 4.0;
        assert!((mean - 3.0).abs() < 1e-5);
    }
}

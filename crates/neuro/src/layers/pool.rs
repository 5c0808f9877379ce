//! Pooling layers: same-padded max pooling and global average pooling.

use super::Layer;
use crate::tensor::Tensor;

/// Max pooling with stride 1 and "same" zero-less padding (window is
/// clipped at the edges, matching PyTorch's behaviour for InceptionTime's
/// `MaxPool1d(3, stride=1, padding=1)` branch on positive inputs and
/// avoiding artificial zeros elsewhere).
pub struct MaxPool1dSame {
    kernel: usize,
    cached_argmax: Vec<usize>,
    cached_shape: Vec<usize>,
}

impl MaxPool1dSame {
    /// New max-pool layer.
    ///
    /// # Panics
    /// Panics on an even kernel.
    pub fn new(kernel: usize) -> Self {
        assert!(kernel % 2 == 1, "MaxPool1dSame requires an odd kernel");
        Self { kernel, cached_argmax: Vec::new(), cached_shape: Vec::new() }
    }

    /// Max over each clipped window. `argmax`, when given, receives the
    /// input position each output was taken from.
    fn pool(&self, x: &Tensor, mut argmax: Option<&mut [usize]>) -> Tensor {
        assert_eq!(x.shape().len(), 3, "MaxPool1dSame expects [batch, ch, time]");
        let (n, c, t_len) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        let half = self.kernel / 2;
        let mut out = Tensor::zeros(x.shape());
        for b in 0..n {
            for ch in 0..c {
                for t in 0..t_len {
                    let lo = t.saturating_sub(half);
                    let hi = (t + half + 1).min(t_len);
                    let mut best = f32::NEG_INFINITY;
                    let mut best_i = lo;
                    for i in lo..hi {
                        let v = x.at3(b, ch, i);
                        if v > best {
                            best = v;
                            best_i = i;
                        }
                    }
                    *out.at3_mut(b, ch, t) = best;
                    if let Some(argmax) = argmax.as_deref_mut() {
                        argmax[(b * c + ch) * t_len + t] = best_i;
                    }
                }
            }
        }
        out
    }
}

impl Layer for MaxPool1dSame {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut argmax = vec![0; x.len()];
        let out = self.pool(x, Some(&mut argmax));
        self.cached_argmax = argmax;
        self.cached_shape = x.shape().to_vec();
        out
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        self.pool(x, None)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert_eq!(grad_out.shape(), &self.cached_shape[..], "pool grad shape mismatch");
        let (n, c, t_len) = (
            self.cached_shape[0],
            self.cached_shape[1],
            self.cached_shape[2],
        );
        let mut gx = Tensor::zeros(&self.cached_shape);
        for b in 0..n {
            for ch in 0..c {
                for t in 0..t_len {
                    let src = self.cached_argmax[(b * c + ch) * t_len + t];
                    *gx.at3_mut(b, ch, src) += grad_out.at3(b, ch, t);
                }
            }
        }
        gx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut [f32], &mut [f32])) {}
}

/// Global average pooling: `[batch, ch, time]` → `[batch, ch]`.
pub struct GlobalAvgPool1d {
    cached_shape: Vec<usize>,
}

impl GlobalAvgPool1d {
    /// New GAP layer.
    pub fn new() -> Self {
        Self { cached_shape: Vec::new() }
    }
}

impl Default for GlobalAvgPool1d {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for GlobalAvgPool1d {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let out = self.infer(x);
        self.cached_shape = x.shape().to_vec();
        out
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.shape().len(), 3, "GlobalAvgPool1d expects [batch, ch, time]");
        let (n, c, t_len) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        let mut out = Tensor::zeros(&[n, c]);
        for b in 0..n {
            for ch in 0..c {
                let mut acc = 0.0;
                for t in 0..t_len {
                    acc += x.at3(b, ch, t);
                }
                *out.at2_mut(b, ch) = acc / t_len as f32;
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (n, c, t_len) = (
            self.cached_shape[0],
            self.cached_shape[1],
            self.cached_shape[2],
        );
        assert_eq!(grad_out.shape(), &[n, c], "GAP grad shape mismatch");
        let mut gx = Tensor::zeros(&self.cached_shape);
        let inv = 1.0 / t_len as f32;
        for b in 0..n {
            for ch in 0..c {
                let g = grad_out.at2(b, ch) * inv;
                for t in 0..t_len {
                    *gx.at3_mut(b, ch, t) = g;
                }
            }
        }
        gx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut [f32], &mut [f32])) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;

    #[test]
    fn maxpool_takes_window_maximum() {
        let mut p = MaxPool1dSame::new(3);
        let x = Tensor::from_flat(&[1, 1, 5], vec![1.0, 5.0, 2.0, 0.0, 3.0]);
        let y = p.forward(&x);
        assert_eq!(y.data(), &[5.0, 5.0, 5.0, 3.0, 3.0]);
    }

    #[test]
    fn maxpool_edges_clip_window() {
        let mut p = MaxPool1dSame::new(3);
        let x = Tensor::from_flat(&[1, 1, 3], vec![-1.0, -5.0, -2.0]);
        let y = p.forward(&x);
        // No zero padding: edge windows see only real values.
        assert_eq!(y.data(), &[-1.0, -1.0, -2.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut p = MaxPool1dSame::new(3);
        let x = Tensor::from_flat(&[1, 1, 4], vec![0.0, 9.0, 1.0, 2.0]);
        let _ = p.forward(&x);
        let g = p.backward(&Tensor::from_flat(&[1, 1, 4], vec![1.0, 1.0, 1.0, 1.0]));
        // Positions 0..2 all take max at index 1; position 3 at index 3.
        assert_eq!(g.data(), &[0.0, 3.0, 0.0, 1.0]);
    }

    #[test]
    fn gap_averages_time() {
        let mut p = GlobalAvgPool1d::new();
        let x = Tensor::from_flat(&[1, 2, 2], vec![1.0, 3.0, 10.0, 20.0]);
        let y = p.forward(&x);
        assert_eq!(y.data(), &[2.0, 15.0]);
        assert_eq!(y.shape(), &[1, 2]);
    }

    #[test]
    fn gap_gradcheck() {
        let mut p = GlobalAvgPool1d::new();
        let x = Tensor::from_flat(&[2, 2, 3], (0..12).map(|v| v as f32 * 0.3).collect());
        gradcheck::check_input_grad(&mut p, &x, 1e-2);
    }

    #[test]
    fn maxpool_gradcheck_away_from_ties() {
        let mut p = MaxPool1dSame::new(3);
        // Distinct values avoid tie-induced kinks in the numeric gradient.
        let x = Tensor::from_flat(&[1, 2, 4], vec![0.1, 0.9, 0.3, 0.7, -0.2, 0.5, -0.8, 0.4]);
        gradcheck::check_input_grad(&mut p, &x, 1e-2);
    }
}

//! Element-wise activation layers.

use super::Layer;
use crate::tensor::Tensor;

/// The supported activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Relu,
    Sigmoid,
    Tanh,
}

/// An element-wise activation layer (shape-preserving, any rank).
pub struct Activation {
    kind: Kind,
    /// Output cache — enough to compute every supported derivative.
    cached_out: Option<Tensor>,
    /// Input cache, needed by ReLU whose derivative depends on
    /// the input sign rather than the output value at zero.
    cached_in: Option<Tensor>,
}

impl Activation {
    /// Rectified linear unit.
    pub fn relu() -> Self {
        Self { kind: Kind::Relu, cached_out: None, cached_in: None }
    }

    /// Logistic sigmoid.
    pub fn sigmoid() -> Self {
        Self { kind: Kind::Sigmoid, cached_out: None, cached_in: None }
    }

    /// Hyperbolic tangent.
    pub fn tanh() -> Self {
        Self { kind: Kind::Tanh, cached_out: None, cached_in: None }
    }

    fn apply(&self, v: f32) -> f32 {
        match self.kind {
            Kind::Relu => v.max(0.0),
            Kind::Sigmoid => 1.0 / (1.0 + (-v).exp()),
            Kind::Tanh => v.tanh(),
        }
    }
}

impl Layer for Activation {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let out = self.infer(x);
        self.cached_in = Some(x.clone());
        self.cached_out = Some(out.clone());
        out
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        let mut out = x.clone();
        for v in out.data_mut() {
            *v = self.apply(*v);
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let out = self.cached_out.as_ref().expect("backward before forward");
        let inp = self.cached_in.as_ref().expect("backward before forward");
        assert_eq!(grad_out.shape(), out.shape(), "activation grad shape mismatch");
        let mut gx = grad_out.clone();
        match self.kind {
            Kind::Relu => {
                for (g, &x) in gx.data_mut().iter_mut().zip(inp.data()) {
                    if x <= 0.0 {
                        *g = 0.0;
                    }
                }
            }
            Kind::Sigmoid => {
                for (g, &y) in gx.data_mut().iter_mut().zip(out.data()) {
                    *g *= y * (1.0 - y);
                }
            }
            Kind::Tanh => {
                for (g, &y) in gx.data_mut().iter_mut().zip(out.data()) {
                    *g *= 1.0 - y * y;
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

    fn sample() -> Tensor {
        Tensor::from_flat(&[2, 3], vec![-1.5, -0.1, 0.0, 0.2, 1.0, 3.0])
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut a = Activation::relu();
        let y = a.forward(&sample());
        assert_eq!(y.data(), &[0.0, 0.0, 0.0, 0.2, 1.0, 3.0]);
    }

    #[test]
    fn sigmoid_range_and_midpoint() {
        let mut a = Activation::sigmoid();
        let y = a.forward(&sample());
        assert!(y.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!((y.data()[2] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn gradchecks_all_kinds() {
        // Input avoids the ReLU kink at 0 where the numeric derivative is
        // undefined.
        let x = Tensor::from_flat(&[2, 3], vec![-1.5, -0.1, 0.4, 0.2, 1.0, 3.0]);
        for mut a in [
            Activation::relu(),
            Activation::sigmoid(),
            Activation::tanh(),
        ] {
            gradcheck::check_input_grad(&mut a, &x, 1e-2);
        }
    }

    #[test]
    fn has_no_parameters() {
        let mut a = Activation::tanh();
        assert_eq!(a.n_params(), 0);
    }
}

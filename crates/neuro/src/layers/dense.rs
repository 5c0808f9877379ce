//! Fully-connected layer.

use super::Layer;
use crate::init::he_uniform;
use crate::tensor::Tensor;
use rand::Rng;

/// `y = x W + b` on `[batch, in]` inputs.
pub struct Dense {
    in_features: usize,
    out_features: usize,
    w: Vec<f32>, // [in, out]
    b: Vec<f32>, // [out]
    gw: Vec<f32>,
    gb: Vec<f32>,
    cached_x: Option<Tensor>,
}

impl Dense {
    /// New dense layer with He-uniform weights and zero bias.
    pub fn new<R: Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        Self {
            in_features,
            out_features,
            w: he_uniform(rng, in_features, in_features * out_features),
            b: vec![0.0; out_features],
            gw: vec![0.0; in_features * out_features],
            gb: vec![0.0; out_features],
            cached_x: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Layer for Dense {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let out = self.infer(x);
        self.cached_x = Some(x.clone());
        out
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.shape().len(), 2, "Dense expects rank-2 input");
        assert_eq!(x.shape()[1], self.in_features, "Dense input width mismatch");
        let n = x.shape()[0];
        let mut out = Tensor::zeros(&[n, self.out_features]);
        for i in 0..n {
            let xi = &x.data()[i * self.in_features..(i + 1) * self.in_features];
            let oi = &mut out.data_mut()[i * self.out_features..(i + 1) * self.out_features];
            oi.copy_from_slice(&self.b);
            for (k, &xv) in xi.iter().enumerate() {
                if xv == 0.0 {
                    continue;
                }
                let wrow = &self.w[k * self.out_features..(k + 1) * self.out_features];
                for (o, &wv) in oi.iter_mut().zip(wrow) {
                    *o += xv * wv;
                }
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cached_x.as_ref().expect("backward before forward");
        let n = x.shape()[0];
        assert_eq!(grad_out.shape(), &[n, self.out_features], "Dense grad shape mismatch");
        let mut gx = Tensor::zeros(&[n, self.in_features]);
        for i in 0..n {
            let xi = &x.data()[i * self.in_features..(i + 1) * self.in_features];
            let gi = &grad_out.data()[i * self.out_features..(i + 1) * self.out_features];
            for (j, &gv) in gi.iter().enumerate() {
                self.gb[j] += gv;
            }
            let gxi = &mut gx.data_mut()[i * self.in_features..(i + 1) * self.in_features];
            for k in 0..self.in_features {
                let wrow = &self.w[k * self.out_features..(k + 1) * self.out_features];
                let gwrow = &mut self.gw[k * self.out_features..(k + 1) * self.out_features];
                let xv = xi[k];
                let mut acc = 0.0;
                for ((gw, &wv), &gv) in gwrow.iter_mut().zip(wrow).zip(gi) {
                    *gw += xv * gv;
                    acc += wv * gv;
                }
                gxi[k] = acc;
            }
        }
        gx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(&mut self.w, &mut self.gw);
        f(&mut self.b, &mut self.gb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_hand_computation() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut d = Dense::new(2, 2, &mut rng);
        d.visit_params(&mut |p, _| {
            if p.len() == 4 {
                p.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]); // w row-major [in,out]
            } else {
                p.copy_from_slice(&[0.5, -0.5]);
            }
        });
        let x = Tensor::from_flat(&[1, 2], vec![1.0, 1.0]);
        let y = d.forward(&x);
        // y = [1*1+1*3+0.5, 1*2+1*4-0.5] = [4.5, 5.5]
        assert_eq!(y.data(), &[4.5, 5.5]);
    }

    #[test]
    fn gradients_check_numerically() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = Dense::new(3, 4, &mut rng);
        let x = Tensor::from_flat(&[2, 3], vec![0.1, -0.4, 0.9, 0.3, 0.2, -0.7]);
        gradcheck::check_input_grad(&mut d, &x, 1e-2);
        gradcheck::check_param_grad(&mut d, &x, 1e-2);
    }

    #[test]
    fn zero_grad_clears_accumulators() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut d = Dense::new(2, 2, &mut rng);
        let x = Tensor::from_flat(&[1, 2], vec![1.0, 2.0]);
        let _ = d.forward(&x);
        let _ = d.backward(&Tensor::from_flat(&[1, 2], vec![1.0, 1.0]));
        d.zero_grad();
        d.visit_params(&mut |_, g| assert!(g.iter().all(|&v| v == 0.0)));
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn rejects_wrong_width() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = Dense::new(3, 2, &mut rng);
        let _ = d.forward(&Tensor::zeros(&[1, 4]));
    }
}

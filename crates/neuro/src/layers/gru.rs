//! Gated recurrent unit layer with full backpropagation through time.
//!
//! TimeGAN's five networks (embedder, recovery, generator, supervisor,
//! discriminator) are all GRU stacks; this layer supplies them.
//!
//! Equations (Cho et al. 2014):
//! ```text
//! z_t = σ(x_t W_z + h_{t−1} U_z + b_z)
//! r_t = σ(x_t W_r + h_{t−1} U_r + b_r)
//! ĥ_t = tanh(x_t W_h + (r_t ⊙ h_{t−1}) U_h + b_h)
//! h_t = (1 − z_t) ⊙ h_{t−1} + z_t ⊙ ĥ_t
//! ```
//! Input `[batch, time, features]` → output `[batch, time, hidden]`
//! (the full hidden sequence; take the last step for seq-to-one heads).

use super::Layer;
use crate::init::{glorot_uniform, recurrent_uniform};
use crate::tensor::Tensor;
use rand::Rng;

/// One GRU layer.
pub struct Gru {
    in_features: usize,
    hidden: usize,
    // Input kernels [in, hidden] and recurrent kernels [hidden, hidden].
    wz: Vec<f32>,
    wr: Vec<f32>,
    wh: Vec<f32>,
    uz: Vec<f32>,
    ur: Vec<f32>,
    uh: Vec<f32>,
    bz: Vec<f32>,
    br: Vec<f32>,
    bh: Vec<f32>,
    gwz: Vec<f32>,
    gwr: Vec<f32>,
    gwh: Vec<f32>,
    guz: Vec<f32>,
    gur: Vec<f32>,
    guh: Vec<f32>,
    gbz: Vec<f32>,
    gbr: Vec<f32>,
    gbh: Vec<f32>,
    cache: Option<Cache>,
}

/// Per-sequence caches for BPTT, all `[time][batch * hidden]` except the
/// input which is kept as the original tensor.
struct Cache {
    x: Tensor,
    /// h_{t−1} for each step (h[0] is the zero initial state).
    h_prev: Vec<Vec<f32>>,
    z: Vec<Vec<f32>>,
    r: Vec<Vec<f32>>,
    hcand: Vec<Vec<f32>>,
}

/// `out[n,b] += x[n,a] · w[a,b]`.
fn matmul_acc(x: &[f32], w: &[f32], out: &mut [f32], n: usize, a: usize, b: usize) {
    for i in 0..n {
        let xi = &x[i * a..(i + 1) * a];
        let oi = &mut out[i * b..(i + 1) * b];
        for (k, &xv) in xi.iter().enumerate() {
            if xv == 0.0 {
                continue;
            }
            let wr = &w[k * b..(k + 1) * b];
            for (o, &wv) in oi.iter_mut().zip(wr) {
                *o += xv * wv;
            }
        }
    }
}

/// `out[n,a] += g[n,b] · wᵀ[b,a]` for `w` stored `[a,b]`.
fn matmul_transb_acc(g: &[f32], w: &[f32], out: &mut [f32], n: usize, a: usize, b: usize) {
    for i in 0..n {
        let gi = &g[i * b..(i + 1) * b];
        let oi = &mut out[i * a..(i + 1) * a];
        for (k, o) in oi.iter_mut().enumerate() {
            let wr = &w[k * b..(k + 1) * b];
            *o += gi.iter().zip(wr).map(|(x, y)| x * y).sum::<f32>();
        }
    }
}

/// `gw[a,b] += xᵀ[a,n] · g[n,b]`.
fn outer_acc(x: &[f32], g: &[f32], gw: &mut [f32], n: usize, a: usize, b: usize) {
    for i in 0..n {
        let xi = &x[i * a..(i + 1) * a];
        let gi = &g[i * b..(i + 1) * b];
        for (k, &xv) in xi.iter().enumerate() {
            if xv == 0.0 {
                continue;
            }
            let gwr = &mut gw[k * b..(k + 1) * b];
            for (w, &gv) in gwr.iter_mut().zip(gi) {
                *w += xv * gv;
            }
        }
    }
}

fn sigmoid(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}

impl Gru {
    /// New GRU with Glorot input kernels and scaled recurrent kernels.
    pub fn new<R: Rng + ?Sized>(in_features: usize, hidden: usize, rng: &mut R) -> Self {
        let ik = |rng: &mut R| glorot_uniform(rng, in_features, hidden, in_features * hidden);
        let rk = |rng: &mut R| recurrent_uniform(rng, hidden, hidden * hidden);
        Self {
            in_features,
            hidden,
            wz: ik(rng),
            wr: ik(rng),
            wh: ik(rng),
            uz: rk(rng),
            ur: rk(rng),
            uh: rk(rng),
            bz: vec![0.0; hidden],
            br: vec![0.0; hidden],
            bh: vec![0.0; hidden],
            gwz: vec![0.0; in_features * hidden],
            gwr: vec![0.0; in_features * hidden],
            gwh: vec![0.0; in_features * hidden],
            guz: vec![0.0; hidden * hidden],
            gur: vec![0.0; hidden * hidden],
            guh: vec![0.0; hidden * hidden],
            gbz: vec![0.0; hidden],
            gbr: vec![0.0; hidden],
            gbh: vec![0.0; hidden],
            cache: None,
        }
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Extract the slice of `x` at time `t` as `[batch * features]`.
    fn step_input(x: &Tensor, t: usize) -> Vec<f32> {
        let (n, t_len, f) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        debug_assert!(t < t_len);
        let mut out = vec![0.0; n * f];
        for b in 0..n {
            let src = (b * t_len + t) * f;
            out[b * f..(b + 1) * f].copy_from_slice(&x.data()[src..src + f]);
        }
        out
    }

    /// Run the recurrence over `x`. `cache`, when given, receives what
    /// backpropagation through time needs from every step.
    fn run(&self, x: &Tensor, mut cache: Option<&mut Cache>) -> Tensor {
        assert_eq!(x.shape().len(), 3, "Gru expects [batch, time, features]");
        assert_eq!(x.shape()[2], self.in_features, "Gru feature mismatch");
        let (n, t_len) = (x.shape()[0], x.shape()[1]);
        let h = self.hidden;
        let mut out = Tensor::zeros(&[n, t_len, h]);
        let mut h_state = vec![0.0f32; n * h];
        for t in 0..t_len {
            let xt = Self::step_input(x, t);
            if let Some(cache) = cache.as_deref_mut() {
                cache.h_prev.push(h_state.clone());
            }

            let mut az = self.bz.repeat(n);
            let mut ar = self.br.repeat(n);
            matmul_acc(&xt, &self.wz, &mut az, n, self.in_features, h);
            matmul_acc(&h_state, &self.uz, &mut az, n, h, h);
            matmul_acc(&xt, &self.wr, &mut ar, n, self.in_features, h);
            matmul_acc(&h_state, &self.ur, &mut ar, n, h, h);
            let z: Vec<f32> = az.iter().map(|&v| sigmoid(v)).collect();
            let r: Vec<f32> = ar.iter().map(|&v| sigmoid(v)).collect();

            let rh: Vec<f32> = r.iter().zip(&h_state).map(|(a, b)| a * b).collect();
            let mut ah = self.bh.repeat(n);
            matmul_acc(&xt, &self.wh, &mut ah, n, self.in_features, h);
            matmul_acc(&rh, &self.uh, &mut ah, n, h, h);
            let hcand: Vec<f32> = ah.iter().map(|&v| v.tanh()).collect();

            for i in 0..n * h {
                h_state[i] = (1.0 - z[i]) * h_state[i] + z[i] * hcand[i];
            }
            for b in 0..n {
                let dst = (b * t_len + t) * self.hidden;
                out.data_mut()[dst..dst + h].copy_from_slice(&h_state[b * h..(b + 1) * h]);
            }
            if let Some(cache) = cache.as_deref_mut() {
                cache.z.push(z);
                cache.r.push(r);
                cache.hcand.push(hcand);
            }
        }
        out
    }
}

impl Layer for Gru {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut cache = Cache {
            x: x.clone(),
            h_prev: Vec::new(),
            z: Vec::new(),
            r: Vec::new(),
            hcand: Vec::new(),
        };
        let out = self.run(x, Some(&mut cache));
        self.cache = Some(cache);
        out
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        self.run(x, None)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("backward before forward");
        let x = &cache.x;
        let (n, t_len) = (x.shape()[0], x.shape()[1]);
        let h = self.hidden;
        let f = self.in_features;
        assert_eq!(grad_out.shape(), &[n, t_len, h], "Gru grad shape mismatch");

        let mut gx = Tensor::zeros(&[n, t_len, f]);
        let mut dh_carry = vec![0.0f32; n * h];
        for t in (0..t_len).rev() {
            let xt = Self::step_input(x, t);
            let h_prev = &cache.h_prev[t];
            let z = &cache.z[t];
            let r = &cache.r[t];
            let hcand = &cache.hcand[t];

            // dh = grad from output at t + carry from t+1.
            let mut dh = dh_carry.clone();
            for b in 0..n {
                let src = (b * t_len + t) * h;
                for k in 0..h {
                    dh[b * h + k] += grad_out.data()[src + k];
                }
            }

            let mut dh_prev = vec![0.0f32; n * h];
            let mut da_z = vec![0.0f32; n * h];
            let mut da_h = vec![0.0f32; n * h];
            for i in 0..n * h {
                let dz = dh[i] * (hcand[i] - h_prev[i]);
                let dhc = dh[i] * z[i];
                dh_prev[i] += dh[i] * (1.0 - z[i]);
                da_z[i] = dz * z[i] * (1.0 - z[i]);
                da_h[i] = dhc * (1.0 - hcand[i] * hcand[i]);
            }

            // Candidate path: a_h = x W_h + (r⊙h_prev) U_h + b_h.
            let rh: Vec<f32> = r.iter().zip(h_prev).map(|(a, b)| a * b).collect();
            outer_acc(&xt, &da_h, &mut self.gwh, n, f, h);
            outer_acc(&rh, &da_h, &mut self.guh, n, h, h);
            for b in 0..n {
                for k in 0..h {
                    self.gbh[k] += da_h[b * h + k];
                }
            }
            let mut d_rh = vec![0.0f32; n * h];
            matmul_transb_acc(&da_h, &self.uh, &mut d_rh, n, h, h);
            let mut da_r = vec![0.0f32; n * h];
            for i in 0..n * h {
                let dr = d_rh[i] * h_prev[i];
                dh_prev[i] += d_rh[i] * r[i];
                da_r[i] = dr * r[i] * (1.0 - r[i]);
            }

            // Gate paths.
            outer_acc(&xt, &da_z, &mut self.gwz, n, f, h);
            outer_acc(h_prev, &da_z, &mut self.guz, n, h, h);
            outer_acc(&xt, &da_r, &mut self.gwr, n, f, h);
            outer_acc(h_prev, &da_r, &mut self.gur, n, h, h);
            for b in 0..n {
                for k in 0..h {
                    self.gbz[k] += da_z[b * h + k];
                    self.gbr[k] += da_r[b * h + k];
                }
            }
            matmul_transb_acc(&da_z, &self.uz, &mut dh_prev, n, h, h);
            matmul_transb_acc(&da_r, &self.ur, &mut dh_prev, n, h, h);

            // Input gradient.
            let mut dxt = vec![0.0f32; n * f];
            matmul_transb_acc(&da_z, &self.wz, &mut dxt, n, f, h);
            matmul_transb_acc(&da_r, &self.wr, &mut dxt, n, f, h);
            matmul_transb_acc(&da_h, &self.wh, &mut dxt, n, f, h);
            for b in 0..n {
                let dst = (b * t_len + t) * f;
                for k in 0..f {
                    gx.data_mut()[dst + k] += dxt[b * f + k];
                }
            }
            dh_carry = dh_prev;
        }
        gx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(&mut self.wz, &mut self.gwz);
        f(&mut self.wr, &mut self.gwr);
        f(&mut self.wh, &mut self.gwh);
        f(&mut self.uz, &mut self.guz);
        f(&mut self.ur, &mut self.gur);
        f(&mut self.uh, &mut self.guh);
        f(&mut self.bz, &mut self.gbz);
        f(&mut self.br, &mut self.gbr);
        f(&mut self.bh, &mut self.gbh);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_shape_is_batch_time_hidden() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut gru = Gru::new(3, 5, &mut rng);
        let x = Tensor::zeros(&[2, 4, 3]);
        let y = gru.forward(&x);
        assert_eq!(y.shape(), &[2, 4, 5]);
    }

    #[test]
    fn zero_input_keeps_state_near_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut gru = Gru::new(2, 3, &mut rng);
        let x = Tensor::zeros(&[1, 5, 2]);
        let y = gru.forward(&x);
        // With zero bias and zero input the candidate is tanh(0)=0, so h
        // stays exactly 0.
        assert!(y.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn state_carries_information_forward() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut gru = Gru::new(1, 4, &mut rng);
        // Impulse at t=0, zeros after: later outputs must remain nonzero
        // (memory) but differ from the impulse response.
        let mut x = Tensor::zeros(&[1, 6, 1]);
        x.data_mut()[0] = 1.0;
        let y = gru.forward(&x);
        let h1: Vec<f32> = y.data()[4..8].to_vec();
        let h5: Vec<f32> = y.data()[20..24].to_vec();
        assert!(h1.iter().any(|&v| v.abs() > 1e-4));
        assert!(h5.iter().any(|&v| v.abs() > 1e-5));
        assert_ne!(h1, h5);
    }

    #[test]
    fn input_gradients_check_numerically() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut gru = Gru::new(2, 3, &mut rng);
        let x = Tensor::from_flat(
            &[2, 3, 2],
            vec![0.5, -0.3, 0.8, 0.1, -0.6, 0.4, 0.2, 0.9, -0.1, 0.3, 0.7, -0.5],
        );
        gradcheck::check_input_grad(&mut gru, &x, 3e-2);
    }

    #[test]
    fn param_gradients_check_numerically() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut gru = Gru::new(2, 2, &mut rng);
        let x = Tensor::from_flat(&[1, 3, 2], vec![0.5, -0.3, 0.8, 0.1, -0.6, 0.4]);
        gradcheck::check_param_grad(&mut gru, &x, 3e-2);
    }

    #[test]
    fn deterministic_given_seed() {
        let x = Tensor::from_flat(&[1, 2, 2], vec![0.1, 0.2, 0.3, 0.4]);
        let y1 = Gru::new(2, 3, &mut StdRng::seed_from_u64(7)).forward(&x);
        let y2 = Gru::new(2, 3, &mut StdRng::seed_from_u64(7)).forward(&x);
        assert_eq!(y1.data(), y2.data());
    }
}

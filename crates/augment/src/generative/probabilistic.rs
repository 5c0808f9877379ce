//! Probabilistic generative models — the taxonomy branch describing time
//! series "as transformations of underlying Markov processes":
//!
//! * [`GaussianHmm`] — a hidden Markov model with diagonal-Gaussian
//!   emissions, fit by Baum-Welch and sampled ancestrally;
//! * [`AutoregressiveSampler`] — the paper's Eq. 1 factorisation
//!   `P(x) = Π P(x_t | x_{<t})` with linear-Gaussian conditionals;
//! * [`DiffusionSampler`] — a small denoising diffusion model (paper
//!   Eq. 2): a forward Markov chain adds noise, an MLP learns to reverse
//!   it, and sampling runs the learned reverse chain from pure noise.

use crate::Augmenter;
use rand::rngs::StdRng;
use rand::Rng;
use tsda_core::preprocess::impute_linear;
use tsda_core::rng::normal;
use tsda_core::{Dataset, Label, Mts, TsdaError};
use tsda_neuro::layers::{Activation, Dense, Layer, Sequential};
use tsda_neuro::loss::mse_loss;
use tsda_neuro::optim::Adam;
use tsda_neuro::tensor::Tensor;

// ---------------------------------------------------------------------
// Gaussian HMM
// ---------------------------------------------------------------------

/// Hidden Markov model with diagonal-Gaussian emissions over the `M`
/// observation channels, trained per class with Baum-Welch.
#[derive(Debug, Clone, Copy)]
pub struct GaussianHmm {
    /// Number of hidden states.
    pub states: usize,
    /// Baum-Welch iterations.
    pub iterations: usize,
}

impl Default for GaussianHmm {
    fn default() -> Self {
        Self { states: 4, iterations: 12 }
    }
}

/// A fitted HMM: initial distribution, transitions, per-state
/// diagonal-Gaussian emissions.
struct HmmModel {
    pi: Vec<f64>,
    trans: Vec<Vec<f64>>,
    means: Vec<Vec<f64>>,
    vars: Vec<Vec<f64>>,
}

impl HmmModel {
    fn log_emission(&self, state: usize, obs: &[f64]) -> f64 {
        tsda_core::math::sum_stable(obs.iter().enumerate().map(|(d, &x)| {
            let var = self.vars[state][d].max(1e-6);
            let diff = x - self.means[state][d];
            -0.5 * ((2.0 * std::f64::consts::PI * var).ln() + diff * diff / var)
        }))
    }
}

/// Scaled forward-backward; returns per-step state posteriors γ and
/// pairwise transition posteriors ξ summed over time.
fn forward_backward(model: &HmmModel, obs: &[Vec<f64>]) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let t_len = obs.len();
    let k = model.pi.len();
    // Per-step emission likelihoods, normalised per step to avoid
    // underflow on long sequences (the scaling cancels in γ and ξ).
    let mut b = vec![vec![0.0; k]; t_len];
    for (t, o) in obs.iter().enumerate() {
        let logs: Vec<f64> = (0..k).map(|s| model.log_emission(s, o)).collect();
        let max = logs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for s in 0..k {
            b[t][s] = (logs[s] - max).exp().max(1e-300);
        }
    }
    let mut alpha = vec![vec![0.0; k]; t_len];
    let mut scale = vec![0.0; t_len];
    for s in 0..k {
        alpha[0][s] = model.pi[s] * b[0][s];
    }
    scale[0] = tsda_core::math::sum_stable(alpha[0].iter().copied()).max(1e-300);
    for v in &mut alpha[0] {
        *v /= scale[0];
    }
    for t in 1..t_len {
        for s in 0..k {
            let acc = tsda_core::math::sum_stable(
                alpha[t - 1].iter().zip(&model.trans).map(|(ap, trans_row)| ap * trans_row[s]),
            );
            alpha[t][s] = acc * b[t][s];
        }
        scale[t] = tsda_core::math::sum_stable(alpha[t].iter().copied()).max(1e-300);
        for v in &mut alpha[t] {
            *v /= scale[t];
        }
    }
    let mut beta = vec![vec![1.0; k]; t_len];
    for t in (0..t_len.saturating_sub(1)).rev() {
        for s in 0..k {
            let acc = tsda_core::math::sum_stable(
                (0..k).map(|n| model.trans[s][n] * b[t + 1][n] * beta[t + 1][n]),
            );
            beta[t][s] = acc / scale[t + 1];
        }
    }
    let mut gamma = vec![vec![0.0; k]; t_len];
    for t in 0..t_len {
        for s in 0..k {
            gamma[t][s] = alpha[t][s] * beta[t][s];
        }
        let norm = tsda_core::math::sum_stable(gamma[t].iter().copied());
        for v in &mut gamma[t] {
            *v /= norm.max(1e-300);
        }
    }
    let mut xi_sum = vec![vec![0.0; k]; k];
    for t in 0..t_len.saturating_sub(1) {
        let mut local = vec![vec![0.0; k]; k];
        for s in 0..k {
            for n in 0..k {
                local[s][n] = alpha[t][s] * model.trans[s][n] * b[t + 1][n] * beta[t + 1][n];
            }
        }
        let norm = tsda_core::math::sum_stable(local.iter().flat_map(|r| r.iter().copied()));
        for s in 0..k {
            for n in 0..k {
                xi_sum[s][n] += local[s][n] / norm.max(1e-300);
            }
        }
    }
    (gamma, xi_sum)
}

impl GaussianHmm {
    fn fit(&self, sequences: &[Vec<Vec<f64>>], rng: &mut StdRng) -> HmmModel {
        let k = self.states;
        let dims = sequences[0][0].len();
        let all_obs: Vec<&Vec<f64>> = sequences.iter().flatten().collect();
        let mut global_mean = vec![0.0; dims];
        for o in &all_obs {
            for d in 0..dims {
                global_mean[d] += o[d];
            }
        }
        for v in &mut global_mean {
            *v /= all_obs.len() as f64;
        }
        let mut global_var = vec![0.0; dims];
        for o in &all_obs {
            for d in 0..dims {
                let diff = o[d] - global_mean[d];
                global_var[d] += diff * diff;
            }
        }
        for v in &mut global_var {
            *v = (*v / all_obs.len() as f64).max(1e-4);
        }
        // k-means++-style mean initialisation: spread the initial state
        // means across the observation space, otherwise Baum-Welch easily
        // collapses multiple states onto one mode.
        let mut means: Vec<Vec<f64>> = vec![all_obs[rng.gen_range(0..all_obs.len())].clone()];
        while means.len() < k {
            let d2: Vec<f64> = all_obs
                .iter()
                .map(|o| {
                    means
                        .iter()
                        .map(|m| {
                            tsda_core::math::sum_stable(
                                o.iter().zip(m).map(|(a, b)| (a - b) * (a - b)),
                            )
                        })
                        .fold(f64::INFINITY, f64::min)
                })
                .collect();
            let total: f64 = tsda_core::math::sum_stable(d2.iter().copied());
            if total <= 0.0 {
                means.push(all_obs[rng.gen_range(0..all_obs.len())].clone());
                continue;
            }
            let u: f64 = rng.gen::<f64>() * total;
            let mut acc = 0.0;
            let mut pick = all_obs.len() - 1;
            for (i, &d) in d2.iter().enumerate() {
                acc += d;
                if u <= acc {
                    pick = i;
                    break;
                }
            }
            means.push(all_obs[pick].clone());
        }
        let mut model = HmmModel {
            pi: vec![1.0 / k as f64; k],
            trans: vec![vec![1.0 / k as f64; k]; k],
            means,
            vars: vec![global_var.clone(); k],
        };
        for _ in 0..self.iterations {
            let mut pi_acc = vec![0.0; k];
            let mut trans_acc = vec![vec![0.0; k]; k];
            let mut mean_acc = vec![vec![0.0; dims]; k];
            let mut sq_acc = vec![vec![0.0; dims]; k];
            let mut weight_acc = vec![0.0; k];
            for seq in sequences {
                let (gamma, xi) = forward_backward(&model, seq);
                for s in 0..k {
                    pi_acc[s] += gamma[0][s];
                    for n in 0..k {
                        trans_acc[s][n] += xi[s][n];
                    }
                }
                for (t, o) in seq.iter().enumerate() {
                    for s in 0..k {
                        let g = gamma[t][s];
                        weight_acc[s] += g;
                        for d in 0..dims {
                            mean_acc[s][d] += g * o[d];
                            sq_acc[s][d] += g * o[d] * o[d];
                        }
                    }
                }
            }
            let pi_total: f64 = tsda_core::math::sum_stable(pi_acc.iter().copied());
            for s in 0..k {
                model.pi[s] = (pi_acc[s] / pi_total.max(1e-300)).max(1e-6);
                let row_total: f64 = tsda_core::math::sum_stable(trans_acc[s].iter().copied());
                for (tn, &ta) in model.trans[s].iter_mut().zip(&trans_acc[s]) {
                    *tn = ((ta + 1e-6) / (row_total + k as f64 * 1e-6)).max(1e-9);
                }
                let w = weight_acc[s].max(1e-300);
                for d in 0..dims {
                    model.means[s][d] = mean_acc[s][d] / w;
                    model.vars[s][d] =
                        (sq_acc[s][d] / w - model.means[s][d] * model.means[s][d]).max(1e-6);
                }
            }
        }
        model
    }

    fn sample(model: &HmmModel, len: usize, dims: usize, rng: &mut StdRng) -> Mts {
        let k = model.pi.len();
        let pick = |dist: &[f64], rng: &mut StdRng| {
            let u: f64 = rng.gen::<f64>() * tsda_core::math::sum_stable(dist.iter().copied());
            let mut acc = 0.0;
            for (i, &p) in dist.iter().enumerate() {
                acc += p;
                if u <= acc {
                    return i;
                }
            }
            k - 1
        };
        let mut state = pick(&model.pi, rng);
        let mut dims_out = vec![Vec::with_capacity(len); dims];
        for _ in 0..len {
            for (d, out) in dims_out.iter_mut().enumerate() {
                out.push(normal(rng, model.means[state][d], model.vars[state][d].sqrt()));
            }
            state = pick(&model.trans[state], rng);
        }
        Mts::from_dims(dims_out)
    }
}

impl Augmenter for GaussianHmm {
    fn name(&self) -> &'static str {
        "gaussian_hmm"
    }

    fn synthesize(
        &self,
        ds: &Dataset,
        class: Label,
        count: usize,
        rng: &mut StdRng,
    ) -> Result<Vec<Mts>, TsdaError> {
        let members = ds.indices_of_class(class);
        if members.is_empty() {
            return Err(TsdaError::InvalidParameter(format!("class {class} empty")));
        }
        let sequences: Vec<Vec<Vec<f64>>> = members
            .iter()
            .map(|&i| {
                let s = impute_linear(&ds.series()[i]);
                (0..s.len()).map(|t| s.observation(t)).collect()
            })
            .collect();
        let model = self.fit(&sequences, rng);
        let len = ds.series_len();
        let dims = ds.n_dims();
        Ok((0..count).map(|_| Self::sample(&model, len, dims, rng)).collect())
    }
}

// ---------------------------------------------------------------------
// Autoregressive factorisation (paper Eq. 1)
// ---------------------------------------------------------------------

/// Linear-Gaussian autoregressive sampler implementing the paper's Eq. 1
/// factorisation: each step is drawn from
/// `P(x_t | x_{t−1}, …, x_{t−p}) = N(μ_t, σ²)` with the conditional mean
/// given by AR coefficients fit per class and dimension. Unlike
/// [`super::statistical::ArResidualSampler`], whose simulated deviations
/// never feed back into the conditioning, this one conditions on its own
/// generated trajectory — a true ancestral sample from the fitted process.
#[derive(Debug, Clone, Copy)]
pub struct AutoregressiveSampler {
    /// AR order `p`.
    pub order: usize,
}

impl Default for AutoregressiveSampler {
    fn default() -> Self {
        Self { order: 3 }
    }
}

impl Augmenter for AutoregressiveSampler {
    fn name(&self) -> &'static str {
        "autoregressive"
    }

    fn synthesize(
        &self,
        ds: &Dataset,
        class: Label,
        count: usize,
        rng: &mut StdRng,
    ) -> Result<Vec<Mts>, TsdaError> {
        use super::statistical::yule_walker;
        let members = ds.indices_of_class(class);
        if members.is_empty() {
            return Err(TsdaError::InvalidParameter(format!("class {class} empty")));
        }
        let dims = ds.n_dims();
        let len = ds.series_len();
        let imputed: Vec<Mts> = members.iter().map(|&i| impute_linear(&ds.series()[i])).collect();
        let mut mean = vec![vec![0.0; len]; dims];
        for s in &imputed {
            for (m, mean_row) in mean.iter_mut().enumerate() {
                for (t, &v) in s.dim(m).iter().enumerate() {
                    mean_row[t] += v / imputed.len() as f64;
                }
            }
        }
        let models: Vec<(Vec<f64>, f64)> = (0..dims)
            .map(|m| {
                let pooled: Vec<f64> = imputed
                    .iter()
                    .flat_map(|s| {
                        s.dim(m)
                            .iter()
                            .zip(&mean[m])
                            .map(|(v, mu)| v - mu)
                            .collect::<Vec<f64>>()
                    })
                    .collect();
                yule_walker(&pooled, self.order)
            })
            .collect();
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let dims_out: Vec<Vec<f64>> = (0..dims)
                .map(|m| {
                    let (coef, var) = &models[m];
                    let std = var.sqrt();
                    let mut dev: Vec<f64> = Vec::with_capacity(len);
                    for t in 0..len {
                        let dev_ref = &dev;
                        let mu = tsda_core::math::sum_stable(
                            coef.iter()
                                .enumerate()
                                .filter(|&(j, _)| t > j)
                                .map(move |(j, &c)| c * dev_ref[t - 1 - j]),
                        );
                        dev.push(mu + normal(rng, 0.0, std));
                    }
                    dev.iter().zip(&mean[m]).map(|(d, mu)| mu + d).collect()
                })
                .collect();
            out.push(Mts::from_dims(dims_out));
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// Denoising diffusion (paper Eq. 2)
// ---------------------------------------------------------------------

/// A small denoising diffusion probabilistic model on the flattened
/// series: the forward chain corrupts `x₀` toward `N(0, I)` over
/// `diffusion_steps`; an MLP `ε_θ(x_t, t)` learns to predict the injected
/// noise; sampling runs the learned reverse chain (paper Eq. 2).
///
/// Data are standardised per feature before training and restored after
/// sampling. Deliberately small — it exercises the probabilistic branch
/// end-to-end rather than competing with TimeGAN.
#[derive(Debug, Clone, Copy)]
pub struct DiffusionSampler {
    /// Length of the diffusion chain.
    pub diffusion_steps: usize,
    /// Optimisation steps.
    pub train_steps: usize,
    /// Hidden width of the denoiser MLP.
    pub hidden: usize,
    /// Adam learning rate.
    pub lr: f32,
}

impl Default for DiffusionSampler {
    fn default() -> Self {
        Self { diffusion_steps: 40, train_steps: 300, hidden: 64, lr: 2e-3 }
    }
}

impl Augmenter for DiffusionSampler {
    fn name(&self) -> &'static str {
        "diffusion"
    }

    fn synthesize(
        &self,
        ds: &Dataset,
        class: Label,
        count: usize,
        rng: &mut StdRng,
    ) -> Result<Vec<Mts>, TsdaError> {
        let members = ds.indices_of_class(class);
        if members.len() < 2 {
            return Err(TsdaError::InvalidParameter(format!(
                "diffusion needs ≥2 members in class {class}"
            )));
        }
        let dims = ds.n_dims();
        let len = ds.series_len();
        let d = dims * len;
        let flat: Vec<Vec<f64>> = members
            .iter()
            .map(|&i| impute_linear(&ds.series()[i]).into_flat())
            .collect();
        let mut mean = vec![0.0; d];
        for v in &flat {
            for j in 0..d {
                mean[j] += v[j] / flat.len() as f64;
            }
        }
        let mut std = vec![0.0; d];
        for v in &flat {
            for j in 0..d {
                let diff = v[j] - mean[j];
                std[j] += diff * diff / flat.len() as f64;
            }
        }
        for s in &mut std {
            *s = s.sqrt().max(1e-6);
        }
        let data: Vec<Vec<f32>> = flat
            .iter()
            .map(|v| {
                v.iter()
                    .enumerate()
                    .map(|(j, &x)| ((x - mean[j]) / std[j]) as f32)
                    .collect()
            })
            .collect();

        let steps = self.diffusion_steps.max(2);
        let betas: Vec<f32> = (0..steps)
            .map(|t| 1e-4 + (0.05 - 1e-4) * t as f32 / (steps - 1) as f32)
            .collect();
        let alphas: Vec<f32> = betas.iter().map(|b| 1.0 - b).collect();
        let mut alpha_bar = Vec::with_capacity(steps);
        let mut acc = 1.0f32;
        for a in &alphas {
            acc *= a;
            alpha_bar.push(acc);
        }

        // Denoiser MLP: input [x_t ‖ t/T] → ε̂.
        let mut net = Sequential::new(vec![
            Box::new(Dense::new(d + 1, self.hidden, rng)),
            Box::new(Activation::relu()),
            Box::new(Dense::new(self.hidden, self.hidden, rng)),
            Box::new(Activation::relu()),
            Box::new(Dense::new(self.hidden, d, rng)),
        ]);
        let mut opt = Adam::new(self.lr).with_clip(5.0);
        let batch = 16.min(data.len()).max(1);
        for _ in 0..self.train_steps {
            let mut xin = Vec::with_capacity(batch * (d + 1));
            let mut eps_true = Vec::with_capacity(batch * d);
            for _ in 0..batch {
                let x0 = &data[rng.gen_range(0..data.len())];
                let t = rng.gen_range(0..steps);
                let ab = alpha_bar[t];
                for &v in x0.iter() {
                    let e = normal(rng, 0.0, 1.0) as f32;
                    eps_true.push(e);
                    xin.push(ab.sqrt() * v + (1.0 - ab).sqrt() * e);
                }
                xin.push(t as f32 / steps as f32);
            }
            let x = Tensor::from_flat(&[batch, d + 1], xin);
            let target = Tensor::from_flat(&[batch, d], eps_true);
            let pred = net.forward(&x);
            let (_, grad) = mse_loss(&pred, &target);
            net.zero_grad();
            let _ = net.backward(&grad);
            opt.step(&mut net);
        }

        // Reverse-chain (ancestral) sampling.
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let mut x: Vec<f32> = (0..d).map(|_| normal(rng, 0.0, 1.0) as f32).collect();
            for t in (0..steps).rev() {
                let mut xin = x.clone();
                xin.push(t as f32 / steps as f32);
                let input = Tensor::from_flat(&[1, d + 1], xin);
                let eps = net.infer(&input);
                let a = alphas[t];
                let ab = alpha_bar[t];
                let sigma = betas[t].sqrt();
                for (j, xj) in x.iter_mut().enumerate().take(d) {
                    let noise = if t > 0 { normal(rng, 0.0, 1.0) as f32 } else { 0.0 };
                    *xj = (*xj - (1.0 - a) / (1.0 - ab).sqrt() * eps.data()[j]) / a.sqrt()
                        + sigma * noise;
                }
            }
            let restored: Vec<f64> = x
                .iter()
                .enumerate()
                .map(|(j, &v)| f64::from(v) * std[j] + mean[j])
                .collect();
            out.push(Mts::from_flat(dims, len, restored));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsda_core::rng::seeded;

    /// A class of noisy two-state square-ish waves: good HMM material.
    fn square_class() -> Dataset {
        let mut ds = Dataset::empty(1);
        let mut rng = seeded(0);
        for _ in 0..6 {
            let dims: Vec<Vec<f64>> = vec![(0..48)
                .map(|t| {
                    let level = if (t / 12) % 2 == 0 { 3.0 } else { -3.0 };
                    level + normal(&mut rng, 0.0, 0.3)
                })
                .collect()];
            ds.push(Mts::from_dims(dims), 0);
        }
        ds
    }

    #[test]
    fn hmm_learns_bimodal_levels() {
        let ds = square_class();
        let hmm = GaussianHmm { states: 2, iterations: 15 };
        let out = hmm.synthesize(&ds, 0, 20, &mut seeded(1)).unwrap();
        // A single 48-step chain can legitimately dwell in one state, so
        // the level check aggregates over the 20 samples.
        let mut hi = 0usize;
        let mut lo = 0usize;
        let mut mid = 0usize;
        for s in &out {
            assert_eq!(s.shape(), (1, 48));
            for &v in s.dim(0) {
                assert!(v.abs() < 6.0);
                if v > 1.0 {
                    hi += 1;
                } else if v < -1.0 {
                    lo += 1;
                } else {
                    mid += 1;
                }
            }
        }
        let total = 20 * 48;
        assert!(hi > total / 6, "hi level underrepresented: {hi}/{total}");
        assert!(lo > total / 6, "lo level underrepresented: {lo}/{total}");
        // Emissions concentrate at the two levels, not in between.
        assert!(mid < total / 20, "too much mass between the levels: {mid}");
    }

    #[test]
    fn hmm_fits_correct_transition_dwell() {
        // The square wave switches level every 12 steps → the fitted
        // self-transition probability must be near 11/12.
        let ds = square_class();
        let hmm = GaussianHmm { states: 2, iterations: 15 };
        let members = ds.indices_of_class(0);
        let sequences: Vec<Vec<Vec<f64>>> = members
            .iter()
            .map(|&i| {
                let s = tsda_core::preprocess::impute_linear(&ds.series()[i]);
                (0..s.len()).map(|t| s.observation(t)).collect()
            })
            .collect();
        let model = hmm.fit(&sequences, &mut seeded(1));
        for s in 0..2 {
            assert!(
                (model.trans[s][s] - 11.0 / 12.0).abs() < 0.06,
                "state {s} self-transition {}",
                model.trans[s][s]
            );
        }
        // Means near ±3 (in either order).
        let mut ms: Vec<f64> = model.means.iter().map(|m| m[0]).collect();
        ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((ms[0] + 3.0).abs() < 0.3 && (ms[1] - 3.0).abs() < 0.3, "{ms:?}");
    }

    #[test]
    fn hmm_sampling_is_deterministic_given_seed() {
        let ds = square_class();
        let hmm = GaussianHmm::default();
        let a = hmm.synthesize(&ds, 0, 2, &mut seeded(2)).unwrap();
        let b = hmm.synthesize(&ds, 0, 2, &mut seeded(2)).unwrap();
        assert_eq!(a[0], b[0]);
    }

    #[test]
    fn autoregressive_sampler_tracks_class_mean() {
        let mut ds = Dataset::empty(1);
        let mut rng = seeded(3);
        for _ in 0..8 {
            ds.push(
                Mts::from_dims(vec![(0..30)
                    .map(|t| (t as f64 * 0.4).sin() * 2.0 + normal(&mut rng, 0.0, 0.2))
                    .collect()]),
                0,
            );
        }
        let out = AutoregressiveSampler::default()
            .synthesize(&ds, 0, 10, &mut seeded(4))
            .unwrap();
        let mut avg = vec![0.0; 30];
        for s in &out {
            for (t, &v) in s.dim(0).iter().enumerate() {
                avg[t] += v / out.len() as f64;
            }
        }
        let err: f64 = avg
            .iter()
            .enumerate()
            .map(|(t, a)| (a - (t as f64 * 0.4).sin() * 2.0).abs())
            .sum::<f64>()
            / 30.0;
        assert!(err < 0.6, "{err}");
    }

    #[test]
    fn diffusion_generates_class_like_samples() {
        // Class = narrow Gaussian blob around a fixed 1×8 pattern. After
        // training, samples must correlate with the pattern far better
        // than noise would.
        let mut ds = Dataset::empty(1);
        let mut rng = seeded(5);
        let pattern = [4.0, 3.0, 2.0, 1.0, -1.0, -2.0, -3.0, -4.0];
        for _ in 0..12 {
            ds.push(
                Mts::from_dims(vec![pattern
                    .iter()
                    .map(|&v| v + normal(&mut rng, 0.0, 0.2))
                    .collect()]),
                0,
            );
        }
        let diff = DiffusionSampler { train_steps: 400, ..DiffusionSampler::default() };
        let out = diff.synthesize(&ds, 0, 4, &mut seeded(6)).unwrap();
        for s in &out {
            let corr: f64 = s.dim(0).iter().zip(&pattern).map(|(a, b)| a * b).sum::<f64>();
            assert!(corr > 10.0, "sample uncorrelated with class: {corr}");
        }
    }

    #[test]
    fn diffusion_rejects_tiny_class() {
        let mut ds = Dataset::empty(1);
        ds.push(Mts::constant(1, 4, 0.0), 0);
        assert!(DiffusionSampler::default()
            .synthesize(&ds, 0, 1, &mut seeded(7))
            .is_err());
    }

    #[test]
    fn hmm_handles_multivariate_observations() {
        let mut ds = Dataset::empty(1);
        let mut rng = seeded(8);
        for _ in 0..4 {
            let d0: Vec<f64> = (0..30).map(|t| (t as f64 * 0.5).sin() + normal(&mut rng, 0.0, 0.1)).collect();
            let d1: Vec<f64> = d0.iter().map(|v| 2.0 * v + normal(&mut rng, 0.0, 0.1)).collect();
            ds.push(Mts::from_dims(vec![d0, d1]), 0);
        }
        let out = GaussianHmm { states: 3, iterations: 8 }
            .synthesize(&ds, 0, 2, &mut seeded(9))
            .unwrap();
        assert_eq!(out[0].shape(), (2, 30));
        assert!(out[0].as_flat().iter().all(|v| v.is_finite()));
    }
}

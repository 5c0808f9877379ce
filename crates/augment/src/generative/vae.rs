//! Variational auto-encoder augmentation (the taxonomy's neural-network
//! generative branch alongside TimeGAN; cf. Fu, Kirchbuchner & Kuijper
//! 2020 and the feature-space augmentation of DeVries & Taylor 2017).
//!
//! A small MLP VAE on the flattened, standardised series: encoder →
//! (μ, log σ²) → reparameterised latent → decoder. Trained per class
//! with the usual ELBO (reconstruction MSE + KL to the unit Gaussian);
//! new series are decoded from latent samples `z ~ N(0, I)`.

use crate::Augmenter;
use rand::rngs::StdRng;
use rand::Rng;
use tsda_core::preprocess::impute_linear;
use tsda_core::rng::normal;
use tsda_core::{Dataset, Label, Mts, TsdaError};
use tsda_neuro::layers::{Activation, Dense, Layer, Sequential};
use tsda_neuro::optim::Adam;
use tsda_neuro::tensor::Tensor;

/// VAE hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct VaeConfig {
    /// Latent dimensionality.
    pub latent: usize,
    /// Hidden width of encoder/decoder.
    pub hidden: usize,
    /// Optimisation steps.
    pub train_steps: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Weight of the KL term (β-VAE style; 1.0 = standard ELBO).
    pub beta: f32,
}

impl Default for VaeConfig {
    fn default() -> Self {
        Self { latent: 8, hidden: 64, train_steps: 400, lr: 2e-3, beta: 1.0 }
    }
}

/// The VAE augmenter.
#[derive(Debug, Clone, Copy, Default)]
pub struct VaeAugmenter {
    /// Hyper-parameters.
    pub config: VaeConfig,
}

impl VaeAugmenter {
    /// New VAE augmenter with explicit hyper-parameters.
    pub fn new(config: VaeConfig) -> Self {
        Self { config }
    }
}

impl Augmenter for VaeAugmenter {
    fn name(&self) -> &'static str {
        "vae"
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
                "VAE needs ≥2 members in class {class}"
            )));
        }
        let dims = ds.n_dims();
        let len = ds.series_len();
        let d = dims * len;
        let cfg = self.config;
        let z_dim = cfg.latent.min(d);

        // Standardise per feature.
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

        // Encoder trunk → (μ ‖ log σ²) head; decoder mirrors it.
        let mut encoder = Sequential::new(vec![
            Box::new(Dense::new(d, cfg.hidden, rng)),
            Box::new(Activation::relu()),
            Box::new(Dense::new(cfg.hidden, 2 * z_dim, rng)),
        ]);
        let mut decoder = Sequential::new(vec![
            Box::new(Dense::new(z_dim, cfg.hidden, rng)),
            Box::new(Activation::relu()),
            Box::new(Dense::new(cfg.hidden, d, rng)),
        ]);
        let mut opt_e = Adam::new(cfg.lr).with_clip(5.0);
        let mut opt_d = Adam::new(cfg.lr).with_clip(5.0);
        let batch = 16.min(data.len()).max(1);

        for _ in 0..cfg.train_steps {
            // Mini-batch.
            let mut xin = Vec::with_capacity(batch * d);
            for _ in 0..batch {
                xin.extend_from_slice(&data[rng.gen_range(0..data.len())]);
            }
            let x = Tensor::from_flat(&[batch, d], xin);
            let enc = encoder.forward(&x); // [batch, 2z]
            // Reparameterise: z = μ + σ·ε.
            let mut z = Tensor::zeros(&[batch, z_dim]);
            let mut eps_cache = vec![0.0f32; batch * z_dim];
            for b in 0..batch {
                for k in 0..z_dim {
                    let mu = enc.at2(b, k);
                    let logvar = enc.at2(b, z_dim + k).clamp(-8.0, 8.0);
                    let eps = normal(rng, 0.0, 1.0) as f32;
                    eps_cache[b * z_dim + k] = eps;
                    *z.at2_mut(b, k) = mu + (0.5 * logvar).exp() * eps;
                }
            }
            let recon = decoder.forward(&z);
            // Reconstruction gradient (MSE).
            let n_el = (batch * d) as f32;
            let mut g_recon = recon.clone();
            for (g, &t) in g_recon.data_mut().iter_mut().zip(x.data()) {
                *g = 2.0 * (*g - t) / n_el;
            }
            decoder.zero_grad();
            encoder.zero_grad();
            let g_z = decoder.backward(&g_recon);
            // Gradient into the encoder head: combine the pathwise
            // reconstruction term with the analytic KL term
            // KL = ½ Σ (μ² + e^{logvar} − logvar − 1), averaged per batch.
            let kl_scale = cfg.beta / (batch * z_dim) as f32;
            let mut g_enc = Tensor::zeros(&[batch, 2 * z_dim]);
            for b in 0..batch {
                for k in 0..z_dim {
                    let mu = enc.at2(b, k);
                    let logvar = enc.at2(b, z_dim + k).clamp(-8.0, 8.0);
                    let sigma = (0.5 * logvar).exp();
                    let eps = eps_cache[b * z_dim + k];
                    let gz = g_z.at2(b, k);
                    // dz/dμ = 1; dz/dlogvar = ½σε.
                    // dKL/dμ = μ, dKL/dlogvar = ½(e^{logvar} − 1).
                    *g_enc.at2_mut(b, k) = gz + kl_scale * mu;
                    *g_enc.at2_mut(b, z_dim + k) =
                        gz * 0.5 * sigma * eps + kl_scale * 0.5 * (logvar.exp() - 1.0);
                }
            }
            let _ = encoder.backward(&g_enc);
            opt_e.step(&mut encoder);
            opt_d.step(&mut decoder);
        }

        // Decode fresh unit-Gaussian latents.
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let z: Vec<f32> = (0..z_dim).map(|_| normal(rng, 0.0, 1.0) as f32).collect();
            let recon = decoder.infer(&Tensor::from_flat(&[1, z_dim], z));
            let restored: Vec<f64> = recon
                .data()
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

    fn pattern_class() -> Dataset {
        let mut ds = Dataset::empty(1);
        let mut rng = seeded(1);
        let pattern: Vec<f64> = (0..16).map(|t| (t as f64 * 0.5).sin() * 3.0).collect();
        for _ in 0..16 {
            ds.push(
                Mts::from_dims(vec![pattern
                    .iter()
                    .map(|&v| v + normal(&mut rng, 0.0, 0.3))
                    .collect()]),
                0,
            );
        }
        ds
    }

    #[test]
    fn vae_generates_class_correlated_samples() {
        let ds = pattern_class();
        let vae = VaeAugmenter::default();
        let out = vae.synthesize(&ds, 0, 5, &mut seeded(2)).unwrap();
        let pattern: Vec<f64> = (0..16).map(|t| (t as f64 * 0.5).sin() * 3.0).collect();
        let norm_p: f64 = pattern.iter().map(|v| v * v).sum::<f64>();
        for s in &out {
            assert_eq!(s.shape(), (1, 16));
            let corr: f64 = s.dim(0).iter().zip(&pattern).map(|(a, b)| a * b).sum();
            assert!(corr > 0.3 * norm_p, "uncorrelated with class: {corr} vs {norm_p}");
        }
    }

    #[test]
    fn vae_is_deterministic_given_seed() {
        let ds = pattern_class();
        let vae = VaeAugmenter::default();
        let a = vae.synthesize(&ds, 0, 2, &mut seeded(3)).unwrap();
        let b = vae.synthesize(&ds, 0, 2, &mut seeded(3)).unwrap();
        assert_eq!(a[0], b[0]);
    }

    #[test]
    fn vae_rejects_singleton_class() {
        let mut ds = Dataset::empty(1);
        ds.push(Mts::constant(1, 8, 0.0), 0);
        assert!(VaeAugmenter::default().synthesize(&ds, 0, 1, &mut seeded(4)).is_err());
    }
}

//! Latent-space (feature-space) augmentation — DeVries & Taylor 2017,
//! the paper's reference [50]: train an auto-encoder on the class, then
//! perturb or interpolate in the *latent* space and decode. Latent
//! operations respect the data manifold far better than raw-input
//! perturbations, which is the whole argument of the taxonomy's
//! neural-network generative branch.

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

/// How new latent codes are produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatentMode {
    /// Add Gaussian noise to a random member's code.
    Noise,
    /// Interpolate between the codes of two random members.
    Interpolate,
    /// Extrapolate beyond a member's code away from a second one
    /// (DeVries & Taylor report extrapolation works best).
    Extrapolate,
}

/// Auto-encoder latent-space augmenter.
#[derive(Debug, Clone, Copy)]
pub struct LatentSpaceAugmenter {
    /// Latent width.
    pub latent: usize,
    /// Hidden width of the encoder/decoder MLPs.
    pub hidden: usize,
    /// Training steps for the auto-encoder.
    pub train_steps: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Latent operation.
    pub mode: LatentMode,
    /// Noise std (for [`LatentMode::Noise`]) or mixing weight scale.
    pub strength: f64,
}

impl Default for LatentSpaceAugmenter {
    fn default() -> Self {
        Self {
            latent: 8,
            hidden: 48,
            train_steps: 350,
            lr: 2e-3,
            mode: LatentMode::Interpolate,
            strength: 0.5,
        }
    }
}

impl Augmenter for LatentSpaceAugmenter {
    fn name(&self) -> &'static str {
        "latent_space"
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
                "latent-space augmentation needs ≥2 members in class {class}"
            )));
        }
        let dims = ds.n_dims();
        let len = ds.series_len();
        let d = dims * len;
        let z_dim = self.latent.min(d);

        // Standardise the flattened class data.
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
        let rows: Vec<Vec<f32>> = flat
            .iter()
            .map(|v| {
                v.iter()
                    .enumerate()
                    .map(|(j, &x)| ((x - mean[j]) / std[j]) as f32)
                    .collect()
            })
            .collect();

        // Plain auto-encoder.
        let mut encoder = Sequential::new(vec![
            Box::new(Dense::new(d, self.hidden, rng)),
            Box::new(Activation::relu()),
            Box::new(Dense::new(self.hidden, z_dim, rng)),
        ]);
        let mut decoder = Sequential::new(vec![
            Box::new(Dense::new(z_dim, self.hidden, rng)),
            Box::new(Activation::relu()),
            Box::new(Dense::new(self.hidden, d, rng)),
        ]);
        let mut opt_e = Adam::new(self.lr).with_clip(5.0);
        let mut opt_d = Adam::new(self.lr).with_clip(5.0);
        let batch = 16.min(rows.len()).max(1);
        for _ in 0..self.train_steps {
            let mut xin = Vec::with_capacity(batch * d);
            for _ in 0..batch {
                xin.extend_from_slice(&rows[rng.gen_range(0..rows.len())]);
            }
            let x = Tensor::from_flat(&[batch, d], xin);
            let z = encoder.forward(&x);
            let recon = decoder.forward(&z);
            let (_, grad) = mse_loss(&recon, &x);
            encoder.zero_grad();
            decoder.zero_grad();
            let gz = decoder.backward(&grad);
            let _ = encoder.backward(&gz);
            opt_e.step(&mut encoder);
            opt_d.step(&mut decoder);
        }

        // Encode every member once.
        let all = Tensor::from_flat(
            &[rows.len(), d],
            rows.iter().flatten().copied().collect(),
        );
        let codes = encoder.infer(&all);
        let code = |i: usize| -> Vec<f32> {
            codes.data()[i * z_dim..(i + 1) * z_dim].to_vec()
        };
        // Latent std for the noise mode.
        let latent_std: Vec<f32> = (0..z_dim)
            .map(|k| {
                let vals: Vec<f32> = (0..rows.len()).map(|i| codes.at2(i, k)).collect();
                let m = tsda_core::math::sum_stable(vals.iter().copied()) / vals.len() as f32;
                (tsda_core::math::sum_stable(vals.iter().map(|v| (v - m) * (v - m)))
                    / vals.len() as f32)
                    .sqrt()
            })
            .collect();

        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let a = rng.gen_range(0..rows.len());
            let mut b = rng.gen_range(0..rows.len());
            while b == a {
                b = rng.gen_range(0..rows.len());
            }
            let (za, zb) = (code(a), code(b));
            let z_new: Vec<f32> = match self.mode {
                LatentMode::Noise => za
                    .iter()
                    .zip(&latent_std)
                    .map(|(&z, &s)| z + (self.strength as f32) * s * normal(rng, 0.0, 1.0) as f32)
                    .collect(),
                LatentMode::Interpolate => {
                    let lambda = rng.gen_range(0.0..self.strength) as f32;
                    za.iter().zip(&zb).map(|(&x, &y)| x + lambda * (y - x)).collect()
                }
                LatentMode::Extrapolate => {
                    let lambda = rng.gen_range(0.0..self.strength) as f32;
                    // z' = za + λ(za − zb): push away from the neighbour.
                    za.iter().zip(&zb).map(|(&x, &y)| x + lambda * (x - y)).collect()
                }
            };
            let recon = decoder.infer(&Tensor::from_flat(&[1, z_dim], z_new));
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

    fn wave_class(n: usize) -> Dataset {
        let mut ds = Dataset::empty(1);
        let mut rng = seeded(1);
        for _ in 0..n {
            let amp: f64 = rng.gen_range(1.5..2.5);
            ds.push(
                Mts::from_dims(vec![(0..20)
                    .map(|t| amp * (t as f64 * 0.5).sin() + normal(&mut rng, 0.0, 0.1))
                    .collect()]),
                0,
            );
        }
        ds
    }

    #[test]
    fn interpolation_mode_stays_on_the_class_manifold() {
        let ds = wave_class(16);
        let aug = LatentSpaceAugmenter::default();
        let out = aug.synthesize(&ds, 0, 5, &mut seeded(2)).unwrap();
        let pattern: Vec<f64> = (0..20).map(|t| (t as f64 * 0.5).sin()).collect();
        let pnorm: f64 = pattern.iter().map(|v| v * v).sum();
        for s in &out {
            assert_eq!(s.shape(), (1, 20));
            let corr: f64 = s.dim(0).iter().zip(&pattern).map(|(a, b)| a * b).sum();
            // Amplitudes 1.5–2.5 → corr ≈ amp · ‖pattern‖² ≥ pnorm.
            assert!(corr > 0.7 * pnorm, "off-manifold sample: {corr} vs {pnorm}");
        }
    }

    #[test]
    fn all_modes_produce_finite_series() {
        let ds = wave_class(12);
        for mode in [LatentMode::Noise, LatentMode::Interpolate, LatentMode::Extrapolate] {
            let aug = LatentSpaceAugmenter { mode, ..LatentSpaceAugmenter::default() };
            let out = aug.synthesize(&ds, 0, 3, &mut seeded(3)).unwrap();
            assert_eq!(out.len(), 3);
            assert!(out
                .iter()
                .all(|s| s.as_flat().iter().all(|v| v.is_finite())));
        }
    }

    #[test]
    fn rejects_singleton_class() {
        let mut ds = Dataset::empty(1);
        ds.push(Mts::constant(1, 8, 0.0), 0);
        assert!(LatentSpaceAugmenter::default()
            .synthesize(&ds, 0, 1, &mut seeded(4))
            .is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = wave_class(10);
        let aug = LatentSpaceAugmenter::default();
        let a = aug.synthesize(&ds, 0, 2, &mut seeded(5)).unwrap();
        let b = aug.synthesize(&ds, 0, 2, &mut seeded(5)).unwrap();
        assert_eq!(a[0], b[0]);
    }
}

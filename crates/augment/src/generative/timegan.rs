//! TimeGAN (Yoon, Jarrett & van der Schaar, NeurIPS 2019).
//!
//! Five cooperating networks over a shared latent sequence space:
//!
//! * **embedder** `e = E(x)` — maps real sequences into latents;
//! * **recovery** `x̃ = R(e)` — maps latents back to feature space;
//! * **generator** `ê = G(z)` — maps noise sequences into latents;
//! * **supervisor** `ĥ_{t+1} = S(ĥ_t)` — teaches next-step dynamics;
//! * **discriminator** `y = D(h)` — real/fake per time step.
//!
//! Training follows the reference's three phases: (1) autoencoding
//! (E, R on reconstruction), (2) supervised (S on next-step prediction
//! in latent space), (3) joint adversarial (G+S vs D, with E, R refined
//! and moment matching on the synthetic output).
//!
//! The paper's §IV-C settings — iterations 2500/2500/1000, latent
//! dimension 10, γ = 1, learning rate 5·10⁻⁴, batch 32, trained on one
//! class at a time — are [`TimeGanConfig::paper`]; the default is a
//! laptop-scale reduction with the same structure.

use crate::Augmenter;
use rand::rngs::StdRng;
use rand::Rng;
use tsda_core::preprocess::impute_linear;
use tsda_core::{Dataset, Label, Mts, TsdaError};
use tsda_neuro::layers::{Activation, Dense, Gru, Layer};
use tsda_neuro::loss::{bce_with_logits, mse_loss};
use tsda_neuro::optim::Adam;
use tsda_neuro::tensor::Tensor;

/// Dense layer applied independently at every time step:
/// `[n, T, F] → [n, T, out]`.
struct TimeDistributedDense {
    dense: Dense,
    cached_nt: (usize, usize),
}

impl TimeDistributedDense {
    fn new<R: Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        Self { dense: Dense::new(in_features, out_features, rng), cached_nt: (0, 0) }
    }
}

/// Run `dense` on every time step of `x`: `[n, T, F]` is viewed as
/// `[n·T, F]` rows and the output reshaped back to `[n, T, out]`.
fn per_step(x: &Tensor, dense: impl FnOnce(&Tensor) -> Tensor) -> Tensor {
    let (n, t, f) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let out = dense(&x.clone().reshape(&[n * t, f]));
    let of = out.shape()[1];
    out.reshape(&[n, t, of])
}

impl Layer for TimeDistributedDense {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.cached_nt = (x.shape()[0], x.shape()[1]);
        per_step(x, |flat| self.dense.forward(flat))
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        per_step(x, |flat| self.dense.infer(flat))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (n, t) = self.cached_nt;
        let of = grad_out.shape()[2];
        let flat = grad_out.clone().reshape(&[n * t, of]);
        let gin = self.dense.backward(&flat);
        let inf = gin.shape()[1];
        gin.reshape(&[n, t, inf])
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.dense.visit_params(f);
    }
}

/// One TimeGAN sub-network: GRU → per-step dense → optional sigmoid.
struct GruNet {
    gru: Gru,
    head: TimeDistributedDense,
    act: Option<Activation>,
}

impl GruNet {
    fn new<R: Rng + ?Sized>(
        input: usize,
        hidden: usize,
        output: usize,
        sigmoid: bool,
        rng: &mut R,
    ) -> Self {
        Self {
            gru: Gru::new(input, hidden, rng),
            head: TimeDistributedDense::new(hidden, output, rng),
            act: sigmoid.then(Activation::sigmoid),
        }
    }
}

impl Layer for GruNet {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let y = self.head.forward(&self.gru.forward(x));
        match &mut self.act {
            Some(a) => a.forward(&y),
            None => y,
        }
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        let y = self.head.infer(&self.gru.infer(x));
        match &self.act {
            Some(a) => a.infer(&y),
            None => y,
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = match &mut self.act {
            Some(a) => a.backward(grad_out),
            None => grad_out.clone(),
        };
        let g = self.head.backward(&g);
        self.gru.backward(&g)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.gru.visit_params(f);
        self.head.visit_params(f);
    }
}

/// TimeGAN hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct TimeGanConfig {
    /// Latent (hidden) dimension of all five networks.
    pub hidden: usize,
    /// Noise dimension fed to the generator.
    pub latent: usize,
    /// Phase-1 (autoencoding) iterations.
    pub iters_embedding: usize,
    /// Phase-2 (supervised) iterations.
    pub iters_supervised: usize,
    /// Phase-3 (joint adversarial) iterations.
    pub iters_joint: usize,
    /// Weight of the supervised loss in the generator objective (γ).
    pub gamma: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// Mini-batch size.
    pub batch: usize,
}

impl Default for TimeGanConfig {
    /// Laptop-scale profile: same architecture and schedule shape, an
    /// order of magnitude fewer iterations.
    fn default() -> Self {
        Self {
            hidden: 12,
            latent: 10,
            iters_embedding: 150,
            iters_supervised: 150,
            iters_joint: 80,
            gamma: 1.0,
            lr: 1e-3,
            batch: 16,
        }
    }
}

impl TimeGanConfig {
    /// The paper's §IV-C settings: iterations 2500/2500/1000, latent 10,
    /// γ = 1, lr 5·10⁻⁴, batch 32.
    pub fn paper() -> Self {
        Self {
            hidden: 24,
            latent: 10,
            iters_embedding: 2500,
            iters_supervised: 2500,
            iters_joint: 1000,
            gamma: 1.0,
            lr: 5e-4,
            batch: 32,
        }
    }
}

/// The TimeGAN augmenter. Trains one model per (class, call) on the
/// class's series, exactly as the paper's protocol feeds the GAN series
/// "coming from a single class of the original dataset".
#[derive(Debug, Clone, Copy, Default)]
pub struct TimeGan {
    /// Hyper-parameters.
    pub config: TimeGanConfig,
}

impl TimeGan {
    /// TimeGAN with explicit hyper-parameters.
    pub fn new(config: TimeGanConfig) -> Self {
        Self { config }
    }
}

/// Per-feature min-max scaling state.
struct MinMax {
    min: Vec<f64>,
    range: Vec<f64>,
}

impl MinMax {
    fn fit(series: &[Mts]) -> Self {
        let dims = series[0].n_dims();
        let mut min = vec![f64::INFINITY; dims];
        let mut max = vec![f64::NEG_INFINITY; dims];
        for s in series {
            for m in 0..dims {
                for &v in s.dim(m) {
                    min[m] = min[m].min(v);
                    max[m] = max[m].max(v);
                }
            }
        }
        let range = min
            .iter()
            .zip(&max)
            .map(|(lo, hi)| (hi - lo).max(1e-9))
            .collect();
        Self { min, range }
    }

    /// `[n, T, F]` tensor of scaled sequences (series transposed to
    /// time-major steps).
    fn to_tensor(&self, series: &[Mts]) -> Tensor {
        let n = series.len();
        let t = series[0].len();
        let f = series[0].n_dims();
        let mut data = Vec::with_capacity(n * t * f);
        for s in series {
            for step in 0..t {
                for m in 0..f {
                    let v = (s.value(m, step) - self.min[m]) / self.range[m];
                    data.push(v as f32);
                }
            }
        }
        Tensor::from_flat(&[n, t, f], data)
    }

    fn restore(&self, data: &[f32], t: usize, f: usize) -> Mts {
        let mut dims = vec![Vec::with_capacity(t); f];
        for step in 0..t {
            for m in 0..f {
                let v = f64::from(data[step * f + m]) * self.range[m] + self.min[m];
                dims[m].push(v);
            }
        }
        Mts::from_dims(dims)
    }
}

/// Supervised next-step loss: `MSE(S(h)[:, :−1], h[:, 1:])`; returns the
/// loss and the gradient w.r.t. the supervisor *output*.
fn supervised_loss(s_out: &Tensor, h: &Tensor) -> (f32, Tensor) {
    let (n, t, k) = (h.shape()[0], h.shape()[1], h.shape()[2]);
    let mut grad = Tensor::zeros(s_out.shape());
    if t < 2 {
        return (0.0, grad);
    }
    let count = (n * (t - 1) * k) as f32;
    let mut sq = Vec::with_capacity(n * (t - 1) * k);
    for b in 0..n {
        for step in 0..t - 1 {
            for j in 0..k {
                let pred = s_out.data()[(b * t + step) * k + j];
                let target = h.data()[(b * t + step + 1) * k + j];
                let d = pred - target;
                sq.push(d * d);
                grad.data_mut()[(b * t + step) * k + j] = 2.0 * d / count;
            }
        }
    }
    let loss: f32 = tsda_core::math::sum_stable(sq.iter().copied());
    (loss / count, grad)
}

impl Augmenter for TimeGan {
    fn name(&self) -> &'static str {
        "timegan"
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
                "TimeGAN needs ≥2 members in class {class}"
            )));
        }
        let series: Vec<Mts> = members.iter().map(|&i| impute_linear(&ds.series()[i])).collect();
        let scaler = MinMax::fit(&series);
        let all = scaler.to_tensor(&series);
        let (n, t, f) = (all.shape()[0], all.shape()[1], all.shape()[2]);
        let cfg = self.config;
        let h = cfg.hidden;

        let mut embedder = GruNet::new(f, h, h, true, rng);
        let mut recovery = GruNet::new(h, h, f, true, rng);
        let mut generator = GruNet::new(cfg.latent, h, h, true, rng);
        let mut supervisor = GruNet::new(h, h, h, true, rng);
        let mut discriminator = GruNet::new(h, h, 1, false, rng);

        let mut opt_e = Adam::new(cfg.lr).with_clip(5.0);
        let mut opt_r = Adam::new(cfg.lr).with_clip(5.0);
        let mut opt_g = Adam::new(cfg.lr).with_clip(5.0);
        let mut opt_s = Adam::new(cfg.lr).with_clip(5.0);
        let mut opt_d = Adam::new(cfg.lr).with_clip(5.0);

        let batch_size = cfg.batch.min(n).max(1);
        let sample_batch = |rng: &mut StdRng| -> Tensor {
            let idx: Vec<usize> = (0..batch_size).map(|_| rng.gen_range(0..n)).collect();
            all.select_rows(&idx)
        };
        let sample_noise = |rng: &mut StdRng| -> Tensor {
            let data: Vec<f32> = (0..batch_size * t * cfg.latent)
                .map(|_| rng.gen::<f32>())
                .collect();
            Tensor::from_flat(&[batch_size, t, cfg.latent], data)
        };
        let zero_all = |e: &mut GruNet,
                        r: &mut GruNet,
                        g: &mut GruNet,
                        s: &mut GruNet,
                        d: &mut GruNet| {
            e.zero_grad();
            r.zero_grad();
            g.zero_grad();
            s.zero_grad();
            d.zero_grad();
        };

        // Phase 1: autoencoding — E and R minimise reconstruction MSE.
        for _ in 0..cfg.iters_embedding {
            let x = sample_batch(rng);
            let e = embedder.forward(&x);
            let xr = recovery.forward(&e);
            let (_, grad) = mse_loss(&xr, &x);
            zero_all(&mut embedder, &mut recovery, &mut generator, &mut supervisor, &mut discriminator);
            let ge = recovery.backward(&grad);
            let _ = embedder.backward(&ge);
            opt_e.step(&mut embedder);
            opt_r.step(&mut recovery);
        }

        // Phase 2: supervised — S learns next-step dynamics on real
        // latents (E frozen here, as in the reference).
        for _ in 0..cfg.iters_supervised {
            let x = sample_batch(rng);
            let e = embedder.forward(&x);
            let s_out = supervisor.forward(&e);
            let (_, grad) = supervised_loss(&s_out, &e);
            zero_all(&mut embedder, &mut recovery, &mut generator, &mut supervisor, &mut discriminator);
            let _ = supervisor.backward(&grad);
            opt_s.step(&mut supervisor);
        }

        // Phase 3: joint adversarial training.
        for _ in 0..cfg.iters_joint {
            // --- Generator + supervisor update -------------------------
            let z = sample_noise(rng);
            let e_hat = generator.forward(&z);
            let h_hat = supervisor.forward(&e_hat);
            let y_fake = discriminator.forward(&h_hat);
            let ones = Tensor::from_flat(y_fake.shape(), vec![1.0; y_fake.len()]);
            let (_, g_adv) = bce_with_logits(&y_fake, &ones);
            // Supervised consistency on the generated latents.
            let (_, mut g_sup) = supervised_loss(&h_hat, &e_hat);
            g_sup.scale(cfg.gamma);
            zero_all(&mut embedder, &mut recovery, &mut generator, &mut supervisor, &mut discriminator);
            let mut g_h = discriminator.backward(&g_adv);
            g_h.add_assign(&g_sup);
            let g_e = supervisor.backward(&g_h);
            let _ = generator.backward(&g_e);
            opt_g.step(&mut generator);
            opt_s.step(&mut supervisor);

            // --- Embedder/recovery refinement ---------------------------
            let x = sample_batch(rng);
            let e = embedder.forward(&x);
            let xr = recovery.forward(&e);
            let (_, grad) = mse_loss(&xr, &x);
            zero_all(&mut embedder, &mut recovery, &mut generator, &mut supervisor, &mut discriminator);
            let ge = recovery.backward(&grad);
            let _ = embedder.backward(&ge);
            opt_e.step(&mut embedder);
            opt_r.step(&mut recovery);

            // --- Discriminator update ----------------------------------
            let x = sample_batch(rng);
            let e_real = embedder.forward(&x);
            let y_real = discriminator.forward(&e_real);
            let ones = Tensor::from_flat(y_real.shape(), vec![1.0; y_real.len()]);
            let (loss_real, gr) = bce_with_logits(&y_real, &ones);
            zero_all(&mut embedder, &mut recovery, &mut generator, &mut supervisor, &mut discriminator);
            let _ = discriminator.backward(&gr);
            // Fake side (fresh forward so the discriminator cache matches).
            let z = sample_noise(rng);
            let e_hat = generator.forward(&z);
            let h_hat = supervisor.forward(&e_hat);
            let y_fake = discriminator.forward(&h_hat);
            let zeros = Tensor::zeros(y_fake.shape());
            let (loss_fake, gf) = bce_with_logits(&y_fake, &zeros);
            let _ = discriminator.backward(&gf);
            // The reference only updates D while it is losing; mirror that.
            if loss_real + loss_fake > 0.15 {
                opt_d.step(&mut discriminator);
            }
        }

        // Generation: x̂ = R(S(G(z))).
        let mut out = Vec::with_capacity(count);
        let mut produced = 0;
        while produced < count {
            let take = batch_size.min(count - produced);
            let z = sample_noise(rng);
            let e_hat = generator.infer(&z);
            let h_hat = supervisor.infer(&e_hat);
            let x_hat = recovery.infer(&h_hat);
            for b in 0..take {
                let start = b * t * f;
                out.push(scaler.restore(&x_hat.data()[start..start + t * f], t, f));
            }
            produced += take;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsda_core::rng::seeded;
    use tsda_core::rng::normal;

    fn sine_class(n: usize, len: usize) -> Dataset {
        let mut ds = Dataset::empty(1);
        let mut rng = seeded(0);
        for _ in 0..n {
            let phase: f64 = rng.gen_range(0.0..0.5);
            ds.push(
                Mts::from_dims(vec![(0..len)
                    .map(|t| (t as f64 * 0.5 + phase).sin() + normal(&mut rng, 0.0, 0.05))
                    .collect()]),
                0,
            );
        }
        ds
    }

    fn quick_cfg() -> TimeGanConfig {
        TimeGanConfig {
            hidden: 6,
            latent: 4,
            iters_embedding: 40,
            iters_supervised: 30,
            iters_joint: 20,
            gamma: 1.0,
            lr: 2e-3,
            batch: 8,
        }
    }

    #[test]
    fn generates_requested_count_and_shape() {
        let ds = sine_class(8, 16);
        let out = TimeGan::new(quick_cfg()).synthesize(&ds, 0, 5, &mut seeded(1)).unwrap();
        assert_eq!(out.len(), 5);
        for s in &out {
            assert_eq!(s.shape(), (1, 16));
            assert!(s.dim(0).iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn output_respects_training_range() {
        let ds = sine_class(8, 16);
        let out = TimeGan::new(quick_cfg()).synthesize(&ds, 0, 4, &mut seeded(2)).unwrap();
        // Sigmoid recovery + min-max restore bounds samples to the
        // observed range (plus nothing).
        for s in &out {
            for &v in s.dim(0) {
                assert!((-1.2..=1.2).contains(&v), "{v}");
            }
        }
    }

    #[test]
    fn rejects_singleton_class() {
        let mut ds = Dataset::empty(1);
        ds.push(Mts::constant(1, 8, 1.0), 0);
        assert!(TimeGan::new(quick_cfg()).synthesize(&ds, 0, 1, &mut seeded(3)).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = sine_class(6, 12);
        let a = TimeGan::new(quick_cfg()).synthesize(&ds, 0, 2, &mut seeded(4)).unwrap();
        let b = TimeGan::new(quick_cfg()).synthesize(&ds, 0, 2, &mut seeded(4)).unwrap();
        assert_eq!(a[0], b[0]);
    }

    #[test]
    fn autoencoding_phase_actually_reconstructs() {
        // With joint phase disabled, E+R alone must reconstruct training
        // batches reasonably after phase 1.
        let ds = sine_class(8, 12);
        let cfg = TimeGanConfig {
            iters_embedding: 300,
            iters_supervised: 1,
            iters_joint: 0,
            ..quick_cfg()
        };
        // Run the full pipeline; if autoencoding failed, generated output
        // through R would collapse to a constant. Check variance.
        let out = TimeGan::new(cfg).synthesize(&ds, 0, 4, &mut seeded(5)).unwrap();
        let var: f64 = {
            let vals: Vec<f64> = out.iter().flat_map(|s| s.dim(0).to_vec()).collect();
            let m = vals.iter().sum::<f64>() / vals.len() as f64;
            vals.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / vals.len() as f64
        };
        assert!(var > 1e-4, "generator output collapsed: var {var}");
    }

    #[test]
    fn paper_config_matches_section_4c() {
        let cfg = TimeGanConfig::paper();
        assert_eq!(cfg.iters_embedding, 2500);
        assert_eq!(cfg.iters_supervised, 2500);
        assert_eq!(cfg.iters_joint, 1000);
        assert_eq!(cfg.latent, 10);
        assert_eq!(cfg.gamma, 1.0);
        assert_eq!(cfg.lr, 5e-4);
        assert_eq!(cfg.batch, 32);
    }
}

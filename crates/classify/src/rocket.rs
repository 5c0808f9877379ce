//! ROCKET: RandOm Convolutional KErnel Transform (Dempster, Petitjean &
//! Webb, DMKD 2020), multivariate variant as in sktime.
//!
//! Thousands of random 1-D kernels — random length ∈ {7, 9, 11},
//! N(0,1) mean-centred weights, random bias, exponentially sampled
//! dilation, optional padding, and (for multivariate input) a random
//! channel subset per kernel — each yielding two features: PPV (the
//! proportion of positive convolution outputs) and the maximum. A linear
//! classifier on these features ([`crate::ridge::RidgeClassifier`])
//! matches deep models at a fraction of the cost; the paper uses 10 000
//! kernels (§IV-D).

use crate::encode::{check_shapes, preprocess_dataset, preprocess_into};
use crate::ridge::{BatchScratch, RidgeClassifier, SeriesScratch};
use crate::traits::Classifier;
use rand::rngs::StdRng;
use rand::Rng;
use tsda_core::codec::{ByteReader, ByteWriter, CodecReader, CodecWriter};
use tsda_core::parallel::Pool;
use tsda_core::rng::standard_normal;
use tsda_core::{Dataset, Label, Mts, TsdaError};
use tsda_linalg::simd::{self, SimdLevel};

/// Codec kind tag for saved ROCKET models.
pub const ROCKET_KIND: &str = "rocket";

/// Which pooled features each kernel contributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RocketFeatures {
    /// PPV and max per kernel (the ROCKET paper's choice).
    #[default]
    PpvAndMax,
    /// PPV only (the MiniRocket simplification; ablation target).
    PpvOnly,
}

/// ROCKET configuration.
#[derive(Debug, Clone)]
pub struct RocketConfig {
    /// Number of random kernels (paper: 10 000; each yields 2 features).
    pub n_kernels: usize,
    /// Pooled feature set per kernel.
    pub features: RocketFeatures,
}

impl Default for RocketConfig {
    /// Laptop-scale default; use `paper()` for the full 10 000 kernels.
    fn default() -> Self {
        Self { n_kernels: 500, features: RocketFeatures::PpvAndMax }
    }
}

impl RocketConfig {
    /// The paper's configuration: 10 000 kernels, PPV + max.
    pub fn paper() -> Self {
        Self { n_kernels: 10_000, features: RocketFeatures::PpvAndMax }
    }
}

/// One random kernel.
#[derive(Debug, Clone)]
struct Kernel {
    /// Per selected channel, `length` weights (mean-centred).
    weights: Vec<Vec<f64>>,
    /// The channels this kernel reads.
    channels: Vec<usize>,
    length: usize,
    bias: f64,
    dilation: usize,
    padding: usize,
}

impl Kernel {
    fn sample(n_channels: usize, series_len: usize, rng: &mut StdRng) -> Kernel {
        // Random length from {7, 9, 11}, restricted to lengths that fit
        // the series; very short series fall back to their full length.
        let candidates: Vec<usize> =
            [7usize, 9, 11].into_iter().filter(|&l| l <= series_len).collect();
        let length = if candidates.is_empty() {
            series_len.max(2)
        } else {
            candidates[rng.gen_range(0..candidates.len())]
        };
        // Dilation: 2^x with x ~ U(0, log2((len−1)/(length−1))).
        let max_exp = (((series_len - 1) as f64 / (length - 1) as f64).log2()).max(0.0);
        let dilation = 2f64.powf(rng.gen_range(0.0..=max_exp)).floor() as usize;
        let dilation = dilation.max(1);
        let padding = if rng.gen::<bool>() {
            ((length - 1) * dilation) / 2
        } else {
            0
        };
        // Multivariate: pick 2^U(0, log2(C+1)) channels (sktime's rule).
        let max_ch_exp = ((n_channels as f64 + 1.0).log2()).max(0.0);
        let n_sel = (2f64.powf(rng.gen_range(0.0..max_ch_exp)).floor() as usize)
            .clamp(1, n_channels);
        let mut channels: Vec<usize> = (0..n_channels).collect();
        // Partial Fisher-Yates for the first n_sel entries.
        for i in 0..n_sel {
            let j = rng.gen_range(i..n_channels);
            channels.swap(i, j);
        }
        channels.truncate(n_sel);
        let weights: Vec<Vec<f64>> = (0..n_sel)
            .map(|_| {
                let mut w: Vec<f64> = (0..length).map(|_| standard_normal(rng)).collect();
                let mean = tsda_core::math::sum_stable(w.iter().copied()) / length as f64;
                for v in &mut w {
                    *v -= mean;
                }
                w
            })
            .collect();
        let bias = rng.gen_range(-1.0..1.0);
        Kernel { weights, channels, length, bias, dilation, padding }
    }

    /// Apply to one series, given as its flat dimension-major values
    /// and its length: returns `(ppv, max)`.
    ///
    /// The convolution is evaluated tap-by-tap: `out` starts at the bias
    /// and each `(channel, tap)` pair contributes one vectorised axpy
    /// over the output positions it reaches. Every output element still
    /// accumulates its terms in the same ascending `(ci, k)` order with
    /// the same unfused multiply-add as the former per-position loop, so
    /// features are bit-identical to it (and across dispatch levels);
    /// only the pooled max's traversal order changed, which can alter
    /// at most the sign of a `±0.0` maximum.
    fn apply(&self, s: &[f64], t_len: usize, out: &mut Vec<f64>, lvl: SimdLevel) -> (f64, f64) {
        let span = (self.length - 1) * self.dilation;
        let out_len = (t_len + 2 * self.padding).saturating_sub(span);
        if out_len == 0 {
            return (0.0, self.bias);
        }
        out.clear();
        out.resize(out_len, self.bias);
        let pad = self.padding as isize;
        for (ci, &ch) in self.channels.iter().enumerate() {
            let dim = &s[ch * t_len..(ch + 1) * t_len];
            for (k, &wk) in self.weights[ci].iter().enumerate() {
                // This tap reads input index `out_i + shift`; clamp the
                // output range so the read stays inside the series (the
                // former loop's bounds check, hoisted).
                let shift = (k * self.dilation) as isize - pad;
                let lo = (-shift).max(0) as usize;
                let hi = (t_len as isize - shift).clamp(0, out_len as isize) as usize;
                if lo < hi {
                    let src = &dim[(lo as isize + shift) as usize..(hi as isize + shift) as usize];
                    simd::axpy_f64_with(lvl, &mut out[lo..hi], src, wk);
                }
            }
        }
        let (positives, max) = simd::ppv_max_f64_with(lvl, out);
        (positives as f64 / out_len as f64, max)
    }
}

/// The ROCKET classifier: random kernel transform + ridge with LOOCV.
pub struct Rocket {
    config: RocketConfig,
    kernels: Vec<Kernel>,
    ridge: RidgeClassifier,
    /// Input shape seen at fit time, `(n_dims, series_len)`; `(0, 0)`
    /// while unfitted. The serving layer validates request shapes
    /// against this before batching.
    input_shape: (usize, usize),
}

impl Rocket {
    /// New ROCKET with the given configuration.
    pub fn new(config: RocketConfig) -> Self {
        Self {
            config,
            kernels: Vec::new(),
            ridge: RidgeClassifier::default(),
            input_shape: (0, 0),
        }
    }

    /// Transform a dataset to the `2·n_kernels` feature matrix
    /// (rows = series), parallelised over series on the shared pool.
    ///
    /// Each series' feature row depends only on that series and the
    /// fitted kernels, so the result is bit-identical for any thread
    /// count.
    pub fn transform(&self, ds: &Dataset) -> Vec<Vec<f64>> {
        let width = self.n_features();
        Pool::global().par_map_indexed(ds.len(), |i| {
            let s = &ds.series()[i];
            let mut f = vec![0.0; width];
            // One conv-output scratch buffer per series, reused across
            // kernels (it only ever grows to the longest output).
            self.transform_row(s.as_flat(), s.len(), &mut f, &mut Vec::new());
            f
        })
    }

    /// Features per series: two per kernel, or one for PPV only.
    fn n_features(&self) -> usize {
        match self.config.features {
            RocketFeatures::PpvAndMax => 2 * self.kernels.len(),
            RocketFeatures::PpvOnly => self.kernels.len(),
        }
    }

    /// Write one series' feature row (kernels in order, PPV then max)
    /// into `row`, using `conv` as the convolution-output scratch.
    fn transform_row(&self, s: &[f64], t_len: usize, row: &mut [f64], conv: &mut Vec<f64>) {
        let lvl = simd::level();
        for (k, kernel) in self.kernels.iter().enumerate() {
            let (ppv, max) = kernel.apply(s, t_len, conv, lvl);
            match self.config.features {
                RocketFeatures::PpvAndMax => {
                    row[2 * k] = ppv;
                    row[2 * k + 1] = max;
                }
                RocketFeatures::PpvOnly => row[k] = ppv,
            }
        }
    }

    /// `(n_dims, series_len)` seen at fit time; `None` while unfitted.
    pub fn input_shape(&self) -> Option<(usize, usize)> {
        (!self.kernels.is_empty()).then_some(self.input_shape)
    }

    /// Number of classes the fitted ridge head separates (0 before fit).
    pub fn n_classes(&self) -> usize {
        self.ridge.n_classes()
    }

    /// Item step of a served predict: `s`, preprocessed as
    /// [`preprocess_dataset`] does, transformed into the next row of
    /// `scratch` for the ridge head's batch step
    /// ([`RidgeClassifier::label_rows`] through [`Self::head`]).
    /// Allocates nothing once this thread's scratch is warm, and only
    /// reads fitted state, so concurrent threads can share one model.
    pub(crate) fn push_row(&self, s: &Mts, scratch: &mut BatchScratch) -> Result<(), TsdaError> {
        check_shapes(std::slice::from_ref(s), self.input_shape())?;
        self.ridge
            .push_row(s, self.n_features(), scratch, |s, row, clean| self.series_row(s, row, clean))
    }

    /// The ridge head, whose `label_rows` is the batch step.
    pub(crate) fn head(&self) -> &RidgeClassifier {
        &self.ridge
    }

    /// One series' feature row: preprocessed into `clean`, then
    /// transformed with `conv` as the convolution scratch.
    fn series_row(&self, s: &Mts, row: &mut [f64], (clean, conv): &mut SeriesScratch) {
        let s = preprocess_into(s, std::mem::take(clean));
        self.transform_row(s.as_flat(), s.len(), row, conv);
        *clean = s.into_flat();
    }

    /// Serialise the fitted state (kernels + ridge head) into a
    /// versioned, checksummed [`tsda_core::codec`] container. The
    /// round trip is bit-exact: a loaded model predicts identically.
    pub fn save_bytes(&self) -> Result<Vec<u8>, TsdaError> {
        if self.kernels.is_empty() {
            return Err(TsdaError::InvalidParameter("cannot save an unfitted ROCKET model".into()));
        }
        let mut w = CodecWriter::new(ROCKET_KIND);
        let mut cfg = ByteWriter::new();
        cfg.usize(self.config.n_kernels);
        // The retired per-model thread budget: the slot stays so model
        // files keep one layout; the transform always runs on the
        // shared pool.
        cfg.usize(0);
        cfg.u8(match self.config.features {
            RocketFeatures::PpvAndMax => 0,
            RocketFeatures::PpvOnly => 1,
        });
        w.section("config", cfg.into_bytes());
        let mut meta = ByteWriter::new();
        meta.usize(self.input_shape.0);
        meta.usize(self.input_shape.1);
        w.section("meta", meta.into_bytes());
        let mut ks = ByteWriter::new();
        ks.usize(self.kernels.len());
        for k in &self.kernels {
            ks.usize(k.length);
            ks.f64(k.bias);
            ks.usize(k.dilation);
            ks.usize(k.padding);
            ks.usize_slice(&k.channels);
            for wrow in &k.weights {
                ks.f64_slice(wrow);
            }
        }
        w.section("kernels", ks.into_bytes());
        w.section("ridge", self.ridge.save_bytes()?);
        Ok(w.finish())
    }

    /// Rebuild a fitted model from [`Self::save_bytes`] output.
    pub fn load_bytes(bytes: &[u8]) -> Result<Self, TsdaError> {
        Self::load_codec(&CodecReader::parse(bytes)?)
    }

    /// Rebuild from an already-parsed, checksum-verified container
    /// (the kind dispatch in [`crate::persist`] parses once).
    pub(crate) fn load_codec(r: &CodecReader) -> Result<Self, TsdaError> {
        r.expect_kind(ROCKET_KIND)?;
        let mut cfg = ByteReader::new(r.section("config")?);
        let n_kernels = cfg.usize()?;
        let _retired_thread_budget = cfg.usize()?;
        let features = match cfg.u8()? {
            0 => RocketFeatures::PpvAndMax,
            1 => RocketFeatures::PpvOnly,
            other => return Err(TsdaError::Codec(format!("unknown feature kind {other}"))),
        };
        cfg.finish()?;
        let mut meta = ByteReader::new(r.section("meta")?);
        let input_shape = (meta.usize()?, meta.usize()?);
        meta.finish()?;
        let mut ks = ByteReader::new(r.section("kernels")?);
        let count = ks.usize()?;
        if count != n_kernels {
            return Err(TsdaError::Codec(format!(
                "kernel count {count} disagrees with config {n_kernels}"
            )));
        }
        let mut kernels = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            let length = ks.usize()?;
            let bias = ks.f64()?;
            let dilation = ks.usize()?;
            let padding = ks.usize()?;
            let channels = ks.usize_vec()?;
            let mut weights = Vec::with_capacity(channels.len());
            for _ in 0..channels.len() {
                let wrow = ks.f64_vec()?;
                if wrow.len() != length {
                    return Err(TsdaError::Codec("kernel weight row length mismatch".into()));
                }
                weights.push(wrow);
            }
            if dilation == 0 || length == 0 {
                return Err(TsdaError::Codec("kernel with zero length or dilation".into()));
            }
            kernels.push(Kernel { weights, channels, length, bias, dilation, padding });
        }
        ks.finish()?;
        let ridge = RidgeClassifier::load_codec(&CodecReader::parse(r.section("ridge")?)?)?;
        Ok(Self {
            config: RocketConfig { n_kernels, features },
            kernels,
            ridge,
            input_shape,
        })
    }
}

impl Classifier for Rocket {
    fn name(&self) -> &'static str {
        "ROCKET"
    }

    fn fit(&mut self, train: &Dataset, _validation: Option<&Dataset>, rng: &mut StdRng) {
        let clean = preprocess_dataset(train);
        self.input_shape = (clean.n_dims(), clean.series_len());
        self.kernels = (0..self.config.n_kernels)
            .map(|_| Kernel::sample(clean.n_dims(), clean.series_len(), rng))
            .collect();
        let features = self.transform(&clean);
        self.ridge.fit_features(&features, clean.labels(), clean.n_classes());
    }

    fn predict(&self, test: &Dataset) -> Vec<Label> {
        // Every series' item-step transform spread over the pool, then
        // the head.
        check_shapes(test.series(), self.input_shape())
            .and_then(|()| {
                self.ridge.predict_rows(test.series(), self.n_features(), |s, row, clean| {
                    self.series_row(s, row, clean)
                })
            })
            .expect("predict before fit, or on series of another shape")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsda_core::rng::{normal, seeded};

    /// Two sine classes differing in frequency.
    fn sine_problem(n_per_class: usize, len: usize, seed: u64) -> Dataset {
        let mut ds = Dataset::empty(2);
        let mut rng = seeded(seed);
        for c in 0..2 {
            let freq = if c == 0 { 0.3 } else { 0.8 };
            for _ in 0..n_per_class {
                let phase: f64 = rng.gen_range(0.0..1.0);
                ds.push(
                    Mts::from_dims(vec![(0..len)
                        .map(|t| (t as f64 * freq + phase).sin() + normal(&mut rng, 0.0, 0.2))
                        .collect()]),
                    c,
                );
            }
        }
        ds
    }

    #[test]
    fn model_files_with_a_nonzero_thread_budget_load_and_predict_identically() {
        let train = sine_problem(10, 40, 31);
        let test = sine_problem(6, 40, 32);
        let mut rocket = Rocket::new(RocketConfig { n_kernels: 60, ..RocketConfig::default() });
        rocket.fit(&train, None, &mut seeded(33));
        let saved = rocket.save_bytes().unwrap();
        // Re-pack the same model with the retired thread-budget slot
        // set, as files written while the budget was honoured carry it.
        let current = CodecReader::parse(&saved).unwrap();
        let mut cfg = ByteWriter::new();
        cfg.usize(60);
        cfg.usize(2);
        cfg.u8(0);
        let mut w = CodecWriter::new(ROCKET_KIND);
        w.section("config", cfg.into_bytes());
        for name in ["meta", "kernels", "ridge"] {
            w.section(name, current.section(name).unwrap().to_vec());
        }
        let legacy = Rocket::load_bytes(&w.finish()).unwrap();
        assert_eq!(legacy.transform(&test), rocket.transform(&test));
        assert_eq!(legacy.predict(&test), rocket.predict(&test));
        // Saving again writes the slot as 0: the current layout.
        assert_eq!(legacy.save_bytes().unwrap(), saved);
    }

    #[test]
    fn separates_frequency_classes() {
        let train = sine_problem(20, 50, 1);
        let test = sine_problem(10, 50, 2);
        let mut rocket = Rocket::new(RocketConfig { n_kernels: 200, ..RocketConfig::default() });
        let acc = rocket.fit_score(&train, None, &test, &mut seeded(3));
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn multivariate_channels_are_used() {
        // Class signal lives only in channel 1; channel 0 is noise.
        let mut ds = Dataset::empty(2);
        let mut rng = seeded(4);
        for c in 0..2 {
            for _ in 0..15 {
                let noise: Vec<f64> = (0..40).map(|_| normal(&mut rng, 0.0, 1.0)).collect();
                let sig: Vec<f64> = (0..40)
                    .map(|t| if c == 0 { (t as f64 * 0.3).sin() } else { (t as f64 * 0.9).sin() })
                    .collect();
                ds.push(Mts::from_dims(vec![noise, sig]), c);
            }
        }
        let test = {
            let mut t = Dataset::empty(2);
            for c in 0..2 {
                for _ in 0..5 {
                    let noise: Vec<f64> = (0..40).map(|_| normal(&mut rng, 0.0, 1.0)).collect();
                    let sig: Vec<f64> = (0..40)
                        .map(|t| {
                            if c == 0 {
                                (t as f64 * 0.3).sin()
                            } else {
                                (t as f64 * 0.9).sin()
                            }
                        })
                        .collect();
                    t.push(Mts::from_dims(vec![noise, sig]), c);
                }
            }
            t
        };
        let mut rocket = Rocket::new(RocketConfig { n_kernels: 300, ..RocketConfig::default() });
        let acc = rocket.fit_score(&ds, None, &test, &mut seeded(5));
        assert!(acc > 0.8, "accuracy {acc}");
    }

    #[test]
    fn transform_feature_count_is_two_per_kernel() {
        let ds = sine_problem(4, 30, 6);
        let mut rocket = Rocket::new(RocketConfig { n_kernels: 50, ..RocketConfig::default() });
        rocket.fit(&ds, None, &mut seeded(7));
        let f = rocket.transform(&ds);
        assert_eq!(f.len(), 8);
        assert!(f.iter().all(|row| row.len() == 100));
    }

    #[test]
    fn ppv_is_a_proportion() {
        let ds = sine_problem(4, 30, 8);
        let mut rocket = Rocket::new(RocketConfig { n_kernels: 50, ..RocketConfig::default() });
        rocket.fit(&ds, None, &mut seeded(9));
        let f = rocket.transform(&ds);
        for row in &f {
            for ppv in row.iter().step_by(2) {
                assert!((0.0..=1.0).contains(ppv), "{ppv}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = sine_problem(5, 30, 10);
        let mut r1 = Rocket::new(RocketConfig { n_kernels: 30, ..RocketConfig::default() });
        let mut r2 = Rocket::new(RocketConfig { n_kernels: 30, ..RocketConfig::default() });
        r1.fit(&ds, None, &mut seeded(11));
        r2.fit(&ds, None, &mut seeded(11));
        assert_eq!(r1.predict(&ds), r2.predict(&ds));
    }

    #[test]
    fn ppv_only_halves_feature_count_and_still_learns() {
        let train = sine_problem(15, 40, 20);
        let test = sine_problem(8, 40, 21);
        let mut rocket = Rocket::new(RocketConfig {
            n_kernels: 200,
            features: RocketFeatures::PpvOnly,
        });
        rocket.fit(&train, None, &mut seeded(22));
        let f = rocket.transform(&train);
        assert!(f.iter().all(|row| row.len() == 200));
        let acc = {
            let pred = rocket.predict(&test);
            pred.iter().zip(test.labels()).filter(|(a, b)| a == b).count() as f64
                / test.len() as f64
        };
        assert!(acc > 0.85, "PPV-only accuracy {acc}");
    }

    #[test]
    fn handles_very_short_series() {
        // PenDigits-like: length 8.
        let mut ds = Dataset::empty(2);
        let mut rng = seeded(12);
        for c in 0..2 {
            for _ in 0..10 {
                let base = if c == 0 { 1.0 } else { -1.0 };
                ds.push(
                    Mts::from_dims(vec![(0..8)
                        .map(|t| base * t as f64 + normal(&mut rng, 0.0, 0.3))
                        .collect()]),
                    c,
                );
            }
        }
        let mut rocket = Rocket::new(RocketConfig { n_kernels: 100, ..RocketConfig::default() });
        let acc = rocket.fit_score(&ds, None, &ds, &mut seeded(13));
        assert!(acc > 0.9, "accuracy {acc}");
    }
}

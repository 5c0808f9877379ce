//! MiniRocket (Dempster, Schmidt & Webb, KDD 2021) — the (almost)
//! deterministic successor of ROCKET the paper's related work points to.
//!
//! Differences from ROCKET: a *fixed* kernel set (length 9, weights in
//! {−1, 2} with exactly three 2s → 84 kernels), dilations spread on a
//! log scale to cover the series, biases drawn from the empirical
//! quantiles of the convolution output on training samples, and PPV-only
//! features. The only randomness left is which training sample supplies
//! each bias (and the channel subset per kernel in the multivariate
//! case).

use crate::encode::{check_shapes, preprocess_dataset, preprocess_into};
use crate::ridge::{BatchScratch, RidgeClassifier, SeriesScratch};
use crate::traits::Classifier;
use rand::rngs::StdRng;
use rand::Rng;
use tsda_core::codec::{ByteReader, ByteWriter, CodecReader, CodecWriter};
use tsda_core::{Dataset, Label, Mts, TsdaError};

/// Codec kind tag for saved MiniRocket models.
pub const MINIROCKET_KIND: &str = "minirocket";

/// MiniRocket configuration.
#[derive(Debug, Clone)]
pub struct MiniRocketConfig {
    /// Target number of features (kernel × dilation × bias triples).
    /// The reference default is 9 996 (= 84 × 119).
    pub n_features: usize,
}

impl Default for MiniRocketConfig {
    /// Laptop-scale default (the paper-faithful value is 9 996).
    fn default() -> Self {
        Self { n_features: 504 }
    }
}

impl MiniRocketConfig {
    /// The reference configuration: 9 996 features.
    pub fn paper() -> Self {
        Self { n_features: 9_996 }
    }
}

const KERNEL_LEN: usize = 9;

/// The 84 fixed kernels: weight 2 at three of nine positions, −1
/// elsewhere (each kernel sums to zero: 3·2 + 6·(−1) = 0).
fn fixed_kernels() -> Vec<[f64; KERNEL_LEN]> {
    let mut kernels = Vec::with_capacity(84);
    for a in 0..KERNEL_LEN {
        for b in (a + 1)..KERNEL_LEN {
            for c in (b + 1)..KERNEL_LEN {
                let mut k = [-1.0; KERNEL_LEN];
                k[a] = 2.0;
                k[b] = 2.0;
                k[c] = 2.0;
                kernels.push(k);
            }
        }
    }
    kernels
}

/// One fitted feature: kernel index, dilation, channel subset, bias.
#[derive(Debug, Clone)]
struct Feature {
    kernel: usize,
    dilation: usize,
    channels: Vec<usize>,
    bias: f64,
}

/// Convolve one series with a fixed kernel at a dilation, summed over
/// the selected channels, "same" padding; `out` receives the raw
/// outputs, one per time step.
fn convolve(
    s: &Mts,
    kernel: &[f64; KERNEL_LEN],
    dilation: usize,
    channels: &[usize],
    out: &mut Vec<f64>,
) {
    let t_len = s.len();
    let pad = (KERNEL_LEN - 1) * dilation / 2;
    out.clear();
    out.resize(t_len, 0.0);
    for (t, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (k, &w) in kernel.iter().enumerate() {
            let idx = t as isize + (k * dilation) as isize - pad as isize;
            if idx >= 0 && (idx as usize) < t_len {
                for &ch in channels {
                    acc += w * s.dim(ch)[idx as usize];
                }
            }
        }
        *o = acc;
    }
}

/// The MiniRocket classifier: fixed-kernel transform + ridge with LOOCV.
pub struct MiniRocket {
    config: MiniRocketConfig,
    features: Vec<Feature>,
    kernels: Vec<[f64; KERNEL_LEN]>,
    ridge: RidgeClassifier,
    /// Input shape seen at fit time, `(n_dims, series_len)`; `(0, 0)`
    /// while unfitted.
    input_shape: (usize, usize),
}

impl MiniRocket {
    /// New MiniRocket with the given configuration.
    pub fn new(config: MiniRocketConfig) -> Self {
        Self {
            config,
            features: Vec::new(),
            kernels: fixed_kernels(),
            ridge: RidgeClassifier::default(),
            input_shape: (0, 0),
        }
    }

    /// Number of fitted features.
    pub fn n_features(&self) -> usize {
        self.features.len()
    }

    /// `(n_dims, series_len)` seen at fit time; `None` while unfitted.
    pub fn input_shape(&self) -> Option<(usize, usize)> {
        (!self.features.is_empty()).then_some(self.input_shape)
    }

    /// Number of classes the fitted ridge head separates (0 before fit).
    pub fn n_classes(&self) -> usize {
        self.ridge.n_classes()
    }

    /// Item step of a served predict (see `Rocket`'s).
    pub(crate) fn push_row(&self, s: &Mts, scratch: &mut BatchScratch) -> Result<(), TsdaError> {
        check_shapes(std::slice::from_ref(s), self.input_shape())?;
        self.ridge
            .push_row(s, self.n_features(), scratch, |s, row, clean| self.series_row(s, row, clean))
    }

    /// The ridge head, whose `label_rows` is the batch step.
    pub(crate) fn head(&self) -> &RidgeClassifier {
        &self.ridge
    }

    /// One series' feature row (see `Rocket`'s).
    fn series_row(&self, s: &Mts, row: &mut [f64], (clean, conv): &mut SeriesScratch) {
        let s = preprocess_into(s, std::mem::take(clean));
        self.transform_row(&s, row, conv);
        *clean = s.into_flat();
    }

    /// Serialise the fitted state into a [`tsda_core::codec`] container.
    /// The fixed 84-kernel bank is reconstructed on load, so only the
    /// dilation/channel/bias triples and the ridge head are stored.
    pub fn save_bytes(&self) -> Result<Vec<u8>, TsdaError> {
        if self.features.is_empty() {
            return Err(TsdaError::InvalidParameter(
                "cannot save an unfitted MiniRocket model".into(),
            ));
        }
        let mut w = CodecWriter::new(MINIROCKET_KIND);
        let mut cfg = ByteWriter::new();
        cfg.usize(self.config.n_features);
        w.section("config", cfg.into_bytes());
        let mut meta = ByteWriter::new();
        meta.usize(self.input_shape.0);
        meta.usize(self.input_shape.1);
        w.section("meta", meta.into_bytes());
        let mut fs = ByteWriter::new();
        fs.usize(self.features.len());
        for f in &self.features {
            fs.usize(f.kernel);
            fs.usize(f.dilation);
            fs.f64(f.bias);
            fs.usize_slice(&f.channels);
        }
        w.section("features", fs.into_bytes());
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
        r.expect_kind(MINIROCKET_KIND)?;
        let mut cfg = ByteReader::new(r.section("config")?);
        let n_features = cfg.usize()?;
        cfg.finish()?;
        let mut meta = ByteReader::new(r.section("meta")?);
        let input_shape = (meta.usize()?, meta.usize()?);
        meta.finish()?;
        let kernels = fixed_kernels();
        let mut fs = ByteReader::new(r.section("features")?);
        let count = fs.usize()?;
        let mut features = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            let kernel = fs.usize()?;
            let dilation = fs.usize()?;
            let bias = fs.f64()?;
            let channels = fs.usize_vec()?;
            if kernel >= kernels.len() {
                return Err(TsdaError::Codec(format!("kernel index {kernel} out of range")));
            }
            if dilation == 0 {
                return Err(TsdaError::Codec("feature with zero dilation".into()));
            }
            features.push(Feature { kernel, dilation, channels, bias });
        }
        fs.finish()?;
        let ridge = RidgeClassifier::load_codec(&CodecReader::parse(r.section("ridge")?)?)?;
        Ok(Self { config: MiniRocketConfig { n_features }, features, kernels, ridge, input_shape })
    }

    /// PPV features for every series.
    pub fn transform(&self, ds: &Dataset) -> Vec<Vec<f64>> {
        let mut conv = Vec::new();
        ds.series()
            .iter()
            .map(|s| {
                let mut row = vec![0.0; self.features.len()];
                self.transform_row(s, &mut row, &mut conv);
                row
            })
            .collect()
    }

    /// Write one series' PPV features into `row`, using `conv` as the
    /// convolution-output scratch.
    fn transform_row(&self, s: &Mts, row: &mut [f64], conv: &mut Vec<f64>) {
        for (f, v) in self.features.iter().zip(row) {
            convolve(s, &self.kernels[f.kernel], f.dilation, &f.channels, conv);
            let pos = conv.iter().filter(|&&c| c > f.bias).count();
            *v = pos as f64 / conv.len().max(1) as f64;
        }
    }

    fn fit_features(&mut self, ds: &Dataset, rng: &mut StdRng) {
        let t_len = ds.series_len();
        let n_ch = ds.n_dims();
        // Dilations on a log scale, as many as needed for the feature
        // budget: features = 84 kernels × dilations × biases_per_pair.
        let max_exp = (((t_len - 1) as f64 / (KERNEL_LEN - 1) as f64).max(1.0)).log2();
        let n_dilations = ((self.config.n_features as f64 / 84.0).ceil() as usize).clamp(1, 32);
        let dilations: Vec<usize> = (0..n_dilations)
            .map(|i| {
                let e = max_exp * i as f64 / n_dilations.max(2).saturating_sub(1) as f64;
                (2f64.powf(e).floor() as usize).max(1)
            })
            .collect();
        self.features.clear();
        'outer: for &dilation in &dilations {
            for kernel in 0..self.kernels.len() {
                if self.features.len() >= self.config.n_features {
                    break 'outer;
                }
                // Random channel subset (multivariate MiniRocket).
                let n_sel = if n_ch <= 1 {
                    1
                } else {
                    let max_ch_exp = ((n_ch as f64 + 1.0).log2()).max(0.0);
                    (2f64.powf(rng.gen_range(0.0..max_ch_exp)).floor() as usize).clamp(1, n_ch)
                };
                let mut channels: Vec<usize> = (0..n_ch).collect();
                for i in 0..n_sel {
                    let j = rng.gen_range(i..n_ch);
                    channels.swap(i, j);
                }
                channels.truncate(n_sel);
                // Bias: a random quantile of the convolution output on a
                // random training sample.
                let sample = &ds.series()[rng.gen_range(0..ds.len())];
                let mut conv = Vec::new();
                convolve(sample, &self.kernels[kernel], dilation, &channels, &mut conv);
                conv.sort_by(|a, b| a.total_cmp(b));
                let q: f64 = rng.gen_range(0.1..0.9);
                let bias = conv[((conv.len() - 1) as f64 * q) as usize];
                self.features.push(Feature { kernel, dilation, channels, bias });
            }
        }
    }
}

impl Classifier for MiniRocket {
    fn name(&self) -> &'static str {
        "MiniRocket"
    }

    fn fit(&mut self, train: &Dataset, _validation: Option<&Dataset>, rng: &mut StdRng) {
        let clean = preprocess_dataset(train);
        self.input_shape = (clean.n_dims(), clean.series_len());
        self.fit_features(&clean, rng);
        let features = self.transform(&clean);
        self.ridge.fit_features(&features, clean.labels(), clean.n_classes());
    }

    fn predict(&self, test: &Dataset) -> Vec<Label> {
        // Item-step transforms over the pool, then the head (see
        // `Rocket`'s).
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

    #[test]
    fn there_are_exactly_84_fixed_kernels() {
        let ks = fixed_kernels();
        assert_eq!(ks.len(), 84);
        for k in &ks {
            let sum: f64 = k.iter().sum();
            assert_eq!(sum, 0.0);
            assert_eq!(k.iter().filter(|&&w| w == 2.0).count(), 3);
        }
    }

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
    fn separates_frequency_classes() {
        let train = sine_problem(20, 50, 1);
        let test = sine_problem(10, 50, 2);
        let mut mr = MiniRocket::new(MiniRocketConfig { n_features: 336 });
        let acc = mr.fit_score(&train, None, &test, &mut seeded(3));
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn features_are_ppv_proportions() {
        let ds = sine_problem(4, 30, 4);
        let mut mr = MiniRocket::new(MiniRocketConfig { n_features: 168 });
        mr.fit(&ds, None, &mut seeded(5));
        for row in mr.transform(&ds) {
            assert!(row.iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn respects_feature_budget() {
        let ds = sine_problem(4, 40, 6);
        let mut mr = MiniRocket::new(MiniRocketConfig { n_features: 100 });
        mr.fit(&ds, None, &mut seeded(7));
        assert!(mr.n_features() <= 100);
        assert!(mr.n_features() >= 84); // at least one full kernel pass
    }
}

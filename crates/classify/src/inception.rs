//! InceptionTime (Ismail Fawaz et al., DMKD 2020).
//!
//! Each network stacks `depth` inception modules — a 1×1 bottleneck
//! feeding three parallel wide convolutions plus a max-pool → 1×1
//! branch, concatenated, batch-normalised and ReLU-activated — with a
//! residual shortcut every three modules, global average pooling and a
//! linear head. The model is an *ensemble*: several networks with
//! different initialisations vote by averaging softmax outputs.
//!
//! Training follows the paper's §IV-D protocol: a 2:1 train/validation
//! split (augmented data never enter validation), up to `max_epochs`
//! epochs with early stopping, best-by-validation checkpointing, and a
//! cyclical learning-rate range test per dataset whose "valley" sets the
//! training rate.

use crate::encode::{check_shapes, dataset_to_tensor3, series_to_tensor3};
use crate::traits::Classifier;
use rand::rngs::StdRng;
use tsda_core::codec::{ByteReader, ByteWriter, CodecReader, CodecWriter};
use tsda_core::{Dataset, Label, Mts, TsdaError};
use tsda_neuro::layers::{
    Activation, BatchNorm1d, Conv1d, Dense, GlobalAvgPool1d, Layer, MaxPool1dSame, Sequential,
};
use tsda_neuro::loss::softmax;
use tsda_neuro::tensor::Tensor;
use tsda_neuro::train::{argmax_rows, lr_range_test, train_classifier, TrainConfig};

/// Codec kind tag for saved InceptionTime ensembles.
pub const INCEPTION_KIND: &str = "inceptiontime";

/// Hyper-parameters of the InceptionTime ensemble.
#[derive(Debug, Clone)]
pub struct InceptionTimeConfig {
    /// Filters per branch (paper: 32); the module outputs `4 × filters`
    /// channels.
    pub filters: usize,
    /// Number of inception modules (paper: 6; residual every 3).
    pub depth: usize,
    /// The three branch kernel sizes (paper: 39/19/9; clamped to the
    /// series length and forced odd).
    pub kernel_sizes: [usize; 3],
    /// Ensemble size (paper: 5).
    pub ensemble: usize,
    /// Fraction of training data kept for training when the caller
    /// supplies no validation set (paper: 2:1 split → 2/3).
    pub train_fraction: f64,
    /// Epoch/early-stopping configuration (paper: 200 epochs, patience 30).
    pub train: TrainConfig,
    /// Run the LR range test before training (paper protocol); when
    /// false, `train.lr` is used as-is.
    pub use_lr_range_test: bool,
}

impl Default for InceptionTimeConfig {
    /// Laptop-scale profile: same architecture shape, smaller widths.
    fn default() -> Self {
        Self {
            filters: 4,
            depth: 3,
            kernel_sizes: [19, 9, 5],
            ensemble: 2,
            train_fraction: 2.0 / 3.0,
            train: TrainConfig { max_epochs: 40, batch_size: 16, patience: 12, lr: 1e-3 },
            use_lr_range_test: true,
        }
    }
}

impl InceptionTimeConfig {
    /// The paper's configuration: 32 filters, depth 6, kernels 39/19/9,
    /// ensemble of 5, 200 epochs, patience 30.
    pub fn paper() -> Self {
        Self {
            filters: 32,
            depth: 6,
            kernel_sizes: [39, 19, 9],
            ensemble: 5,
            train_fraction: 2.0 / 3.0,
            train: TrainConfig { max_epochs: 200, batch_size: 64, patience: 30, lr: 1e-3 },
            use_lr_range_test: true,
        }
    }
}

/// Concatenate rank-3 tensors along the channel axis.
fn concat_channels(parts: &[Tensor]) -> Tensor {
    let n = parts[0].shape()[0];
    let t = parts[0].shape()[2];
    let total_c: usize = parts.iter().map(|p| p.shape()[1]).sum();
    let mut out = Tensor::zeros(&[n, total_c, t]);
    let mut offset = 0;
    for p in parts {
        let c = p.shape()[1];
        for b in 0..n {
            for ch in 0..c {
                for step in 0..t {
                    *out.at3_mut(b, offset + ch, step) = p.at3(b, ch, step);
                }
            }
        }
        offset += c;
    }
    out
}

/// Split a rank-3 gradient along channels into the given widths.
fn split_channels(grad: &Tensor, widths: &[usize]) -> Vec<Tensor> {
    let n = grad.shape()[0];
    let t = grad.shape()[2];
    let mut out = Vec::with_capacity(widths.len());
    let mut offset = 0;
    for &c in widths {
        let mut g = Tensor::zeros(&[n, c, t]);
        for b in 0..n {
            for ch in 0..c {
                for step in 0..t {
                    *g.at3_mut(b, ch, step) = grad.at3(b, offset + ch, step);
                }
            }
        }
        offset += c;
        out.push(g);
    }
    out
}

/// Copy `values` over the buffers `visit` walks, in order, as a saved
/// member is loaded; errors unless they fill the architecture exactly.
fn restore(
    what: &str,
    values: &[f32],
    visit: impl FnOnce(&mut dyn FnMut(&mut [f32])),
) -> Result<(), TsdaError> {
    let mut off = 0usize;
    visit(&mut |b| {
        if let Some(src) = values.get(off..off + b.len()) {
            b.copy_from_slice(src);
        }
        off += b.len();
    });
    if off != values.len() {
        return Err(TsdaError::Codec(format!(
            "member {what} count mismatch: file has {}, architecture needs {off}",
            values.len()
        )));
    }
    Ok(())
}

/// One inception module.
struct InceptionModule {
    bottleneck: Option<Conv1d>,
    convs: Vec<Conv1d>,
    pool: MaxPool1dSame,
    pool_conv: Conv1d,
    bn: BatchNorm1d,
    act: Activation,
    filters: usize,
}

impl InceptionModule {
    fn new(in_ch: usize, filters: usize, kernels: &[usize; 3], series_len: usize, rng: &mut StdRng) -> Self {
        let odd = |k: usize| {
            let k = k.min(series_len.max(2));
            if k.is_multiple_of(2) {
                (k - 1).max(1)
            } else {
                k
            }
        };
        let bottleneck = (in_ch > 1).then(|| Conv1d::new(in_ch, filters, 1, false, rng));
        let branch_in = if in_ch > 1 { filters } else { in_ch };
        let convs = kernels
            .iter()
            .map(|&k| Conv1d::new(branch_in, filters, odd(k), false, rng))
            .collect();
        Self {
            bottleneck,
            convs,
            pool: MaxPool1dSame::new(3),
            pool_conv: Conv1d::new(in_ch, filters, 1, false, rng),
            bn: BatchNorm1d::new(4 * filters),
            act: Activation::relu(),
            filters,
        }
    }

    fn out_channels(&self) -> usize {
        4 * self.filters
    }

    /// Swap the ReLU for a smooth activation so finite-difference
    /// gradient checks do not trip on kinks (batch-norm centres the
    /// pre-activations on zero, right where ReLU is non-differentiable).
    #[cfg(test)]
    fn use_tanh_for_gradcheck(&mut self) {
        self.act = Activation::tanh();
    }
}

impl Layer for InceptionModule {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let bottlenecked = match &mut self.bottleneck {
            Some(b) => b.forward(x),
            None => x.clone(),
        };
        let mut parts: Vec<Tensor> =
            self.convs.iter_mut().map(|c| c.forward(&bottlenecked)).collect();
        parts.push(self.pool_conv.forward(&self.pool.forward(x)));
        self.act.forward(&self.bn.forward(&concat_channels(&parts)))
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        let bottlenecked = match &self.bottleneck {
            Some(b) => b.infer(x),
            None => x.clone(),
        };
        let mut parts: Vec<Tensor> = self.convs.iter().map(|c| c.infer(&bottlenecked)).collect();
        parts.push(self.pool_conv.infer(&self.pool.infer(x)));
        self.act.infer(&self.bn.infer(&concat_channels(&parts)))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.act.backward(grad_out);
        let g = self.bn.backward(&g);
        let widths = vec![self.filters; 4];
        let parts = split_channels(&g, &widths);
        // Conv branches accumulate into the bottleneck output gradient.
        let mut g_bottleneck: Option<Tensor> = None;
        for (conv, gp) in self.convs.iter_mut().zip(&parts[..3]) {
            let gb = conv.backward(gp);
            match &mut g_bottleneck {
                Some(acc) => acc.add_assign(&gb),
                None => g_bottleneck = Some(gb),
            }
        }
        let g_bottleneck = g_bottleneck.expect("three conv branches");
        let mut gx = match &mut self.bottleneck {
            Some(b) => b.backward(&g_bottleneck),
            None => g_bottleneck,
        };
        // Pool branch.
        let gp = self.pool_conv.backward(&parts[3]);
        gx.add_assign(&self.pool.backward(&gp));
        gx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        if let Some(b) = &mut self.bottleneck {
            b.visit_params(f);
        }
        for c in &mut self.convs {
            c.visit_params(f);
        }
        self.pool_conv.visit_params(f);
        self.bn.visit_params(f);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        self.bn.visit_buffers(f);
    }
}

/// Residual shortcut: 1×1 conv + batch norm.
fn shortcut(in_ch: usize, out_ch: usize, rng: &mut StdRng) -> Sequential {
    Sequential::new(vec![
        Box::new(Conv1d::new(in_ch, out_ch, 1, false, rng)),
        Box::new(BatchNorm1d::new(out_ch)),
    ])
}

/// One ensemble member: the full InceptionTime network.
struct InceptionNet {
    modules: Vec<InceptionModule>,
    shortcuts: Vec<Sequential>,
    res_acts: Vec<Activation>,
    gap: GlobalAvgPool1d,
    head: Dense,
    depth: usize,
}

impl InceptionNet {
    fn new(cfg: &InceptionTimeConfig, in_ch: usize, series_len: usize, n_classes: usize, rng: &mut StdRng) -> Self {
        let mut modules = Vec::with_capacity(cfg.depth);
        let mut shortcuts = Vec::new();
        let mut res_acts = Vec::new();
        let mut cur_ch = in_ch;
        let mut res_ch = in_ch;
        for d in 0..cfg.depth {
            let m = InceptionModule::new(cur_ch, cfg.filters, &cfg.kernel_sizes, series_len, rng);
            cur_ch = m.out_channels();
            modules.push(m);
            if d % 3 == 2 {
                shortcuts.push(shortcut(res_ch, cur_ch, rng));
                res_acts.push(Activation::relu());
                res_ch = cur_ch;
            }
        }
        let head = Dense::new(cur_ch, n_classes, rng);
        Self { modules, shortcuts, res_acts, gap: GlobalAvgPool1d::new(), head, depth: cfg.depth }
    }
}

impl Layer for InceptionNet {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut cur = x.clone();
        let mut res_input = x.clone();
        for d in 0..self.depth {
            cur = self.modules[d].forward(&cur);
            if d % 3 == 2 {
                let si = d / 3;
                cur.add_assign(&self.shortcuts[si].forward(&res_input));
                cur = self.res_acts[si].forward(&cur);
                res_input = cur.clone();
            }
        }
        self.head.forward(&self.gap.forward(&cur))
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        let mut cur = x.clone();
        let mut res_input = x.clone();
        for d in 0..self.depth {
            cur = self.modules[d].infer(&cur);
            if d % 3 == 2 {
                let si = d / 3;
                cur.add_assign(&self.shortcuts[si].infer(&res_input));
                cur = self.res_acts[si].infer(&cur);
                res_input = cur.clone();
            }
        }
        self.head.infer(&self.gap.infer(&cur))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.head.backward(grad_out);
        let mut g = self.gap.backward(&g);
        let mut si = self.shortcuts.len();
        // Shortcut gradients to inject at each residual segment start
        // (segment s starts at module 3s).
        let mut stash: Vec<Option<Tensor>> = vec![None; self.shortcuts.len()];
        for d in (0..self.depth).rev() {
            if d % 3 == 2 {
                si -= 1;
                g = self.res_acts[si].backward(&g);
                stash[si] = Some(self.shortcuts[si].backward(&g));
            }
            g = self.modules[d].backward(&g);
            if d % 3 == 0 && d / 3 < stash.len() {
                if let Some(extra) = &stash[d / 3] {
                    g.add_assign(extra);
                }
            }
        }
        g
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        let mut si = 0;
        for d in 0..self.depth {
            self.modules[d].visit_params(f);
            if d % 3 == 2 {
                self.shortcuts[si].visit_params(f);
                si += 1;
            }
        }
        self.head.visit_params(f);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        let mut si = 0;
        for d in 0..self.depth {
            self.modules[d].visit_buffers(f);
            if d % 3 == 2 {
                self.shortcuts[si].visit_buffers(f);
                si += 1;
            }
        }
    }
}

/// The InceptionTime ensemble classifier.
pub struct InceptionTime {
    config: InceptionTimeConfig,
    members: Vec<InceptionNet>,
    n_classes: usize,
    /// Input shape seen at fit time, `(n_dims, series_len)`; needed to
    /// rebuild the architecture on load and to validate serving inputs.
    input_shape: (usize, usize),
}

impl InceptionTime {
    /// New (unfitted) ensemble.
    pub fn new(config: InceptionTimeConfig) -> Self {
        Self { config, members: Vec::new(), n_classes: 0, input_shape: (0, 0) }
    }

    /// `(n_dims, series_len)` seen at fit time; `None` while unfitted.
    pub fn input_shape(&self) -> Option<(usize, usize)> {
        (!self.members.is_empty()).then_some(self.input_shape)
    }

    /// Number of output classes (0 before fit).
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Serialise the fitted ensemble into a [`tsda_core::codec`]
    /// container: the architecture hyper-parameters plus, per member,
    /// every parameter tensor and batch-norm running buffer as raw f32
    /// bit patterns. Takes `&mut self` because [`Layer::visit_params`]
    /// does; nothing is modified.
    pub fn save_bytes(&mut self) -> Result<Vec<u8>, TsdaError> {
        if self.members.is_empty() {
            return Err(TsdaError::InvalidParameter(
                "cannot save an unfitted InceptionTime model".into(),
            ));
        }
        let mut w = CodecWriter::new(INCEPTION_KIND);
        let mut cfg = ByteWriter::new();
        cfg.usize(self.config.filters);
        cfg.usize(self.config.depth);
        for k in self.config.kernel_sizes {
            cfg.usize(k);
        }
        cfg.usize(self.config.ensemble);
        cfg.f64(self.config.train_fraction);
        cfg.usize(self.config.train.max_epochs);
        cfg.usize(self.config.train.batch_size);
        cfg.usize(self.config.train.patience);
        cfg.f32(self.config.train.lr);
        cfg.u8(self.config.use_lr_range_test as u8);
        w.section("config", cfg.into_bytes());
        let mut meta = ByteWriter::new();
        meta.usize(self.input_shape.0);
        meta.usize(self.input_shape.1);
        meta.usize(self.n_classes);
        meta.usize(self.members.len());
        w.section("meta", meta.into_bytes());
        let mut ms = ByteWriter::new();
        for member in &mut self.members {
            let mut params: Vec<f32> = Vec::new();
            member.visit_params(&mut |p, _| params.extend_from_slice(p));
            let mut buffers: Vec<f32> = Vec::new();
            member.visit_buffers(&mut |b| buffers.extend_from_slice(b));
            ms.f32_slice(&params);
            ms.f32_slice(&buffers);
        }
        w.section("members", ms.into_bytes());
        Ok(w.finish())
    }

    /// Rebuild a fitted ensemble from [`Self::save_bytes`] output.
    ///
    /// The networks are reconstructed from the stored hyper-parameters
    /// (which fully determine the layer layout) and every parameter and
    /// running-statistics buffer is overwritten with the stored bits, so
    /// eval-mode predictions are bit-identical to the saved model.
    pub fn load_bytes(bytes: &[u8]) -> Result<Self, TsdaError> {
        Self::load_codec(&CodecReader::parse(bytes)?)
    }

    /// Rebuild from an already-parsed, checksum-verified container
    /// (the kind dispatch in [`crate::persist`] parses once).
    pub(crate) fn load_codec(r: &CodecReader) -> Result<Self, TsdaError> {
        r.expect_kind(INCEPTION_KIND)?;
        let mut c = ByteReader::new(r.section("config")?);
        let config = InceptionTimeConfig {
            filters: c.usize()?,
            depth: c.usize()?,
            kernel_sizes: [c.usize()?, c.usize()?, c.usize()?],
            ensemble: c.usize()?,
            train_fraction: c.f64()?,
            train: TrainConfig {
                max_epochs: c.usize()?,
                batch_size: c.usize()?,
                patience: c.usize()?,
                lr: c.f32()?,
            },
            use_lr_range_test: c.u8()? != 0,
        };
        c.finish()?;
        let mut meta = ByteReader::new(r.section("meta")?);
        let input_shape = (meta.usize()?, meta.usize()?);
        let n_classes = meta.usize()?;
        let n_members = meta.usize()?;
        meta.finish()?;
        if input_shape.0 == 0 || input_shape.1 == 0 || n_classes == 0 {
            return Err(TsdaError::Codec("saved model has a degenerate shape".into()));
        }
        if n_members == 0 || n_members > 1 << 10 {
            return Err(TsdaError::Codec(format!("implausible member count {n_members}")));
        }
        let mut ms = ByteReader::new(r.section("members")?);
        let mut members = Vec::with_capacity(n_members);
        for _ in 0..n_members {
            let params = ms.f32_vec()?;
            let buffers = ms.f32_vec()?;
            // Rebuild the architecture (the init RNG is irrelevant: every
            // parameter is overwritten below), then restore the bits.
            let mut net = InceptionNet::new(
                &config,
                input_shape.0,
                input_shape.1,
                n_classes,
                &mut tsda_core::rng::seeded(0),
            );
            restore("parameter", &params, |f| net.visit_params(&mut |p, _| f(p)))?;
            restore("buffer", &buffers, |f| net.visit_buffers(f))?;
            members.push(net);
        }
        ms.finish()?;
        Ok(Self { config, members, n_classes, input_shape })
    }

    /// Averaged softmax probabilities over the ensemble.
    pub fn predict_proba(&self, x: &Tensor) -> Tensor {
        assert!(!self.members.is_empty(), "predict before fit");
        let n = x.shape()[0];
        let mut acc = Tensor::zeros(&[n, self.n_classes]);
        for m in &self.members {
            acc.add_assign(&softmax(&m.infer(x)));
        }
        acc.scale(1.0 / self.members.len() as f32);
        acc
    }

    /// Predict `series` into `out` (cleared first): the arg-max of
    /// [`Self::predict_proba`] over the series encoded as
    /// [`dataset_to_tensor3`] encodes them. Errors on an unfitted model
    /// or a series of another shape.
    pub fn predict_into(&self, series: &[Mts], out: &mut Vec<Label>) -> Result<(), TsdaError> {
        check_shapes(series, self.input_shape())?;
        out.clear();
        argmax_rows(&self.predict_proba(&series_to_tensor3(series, self.input_shape)), out);
        Ok(())
    }
}

impl Classifier for InceptionTime {
    fn name(&self) -> &'static str {
        "InceptionTime"
    }

    fn fit(&mut self, train: &Dataset, validation: Option<&Dataset>, rng: &mut StdRng) {
        self.n_classes = train.n_classes();
        self.input_shape = (train.n_dims(), train.series_len());
        // Build train/val tensors per the §IV-D protocol.
        let (train_ds, val_ds) = match validation {
            Some(v) => (train.clone(), v.clone()),
            None => train.stratified_split(self.config.train_fraction, rng),
        };
        let x_train = dataset_to_tensor3(&train_ds);
        let y_train: Vec<usize> = train_ds.labels().to_vec();
        let x_val = dataset_to_tensor3(&val_ds);
        let y_val: Vec<usize> = val_ds.labels().to_vec();

        self.members = (0..self.config.ensemble)
            .map(|_| {
                InceptionNet::new(
                    &self.config,
                    train.n_dims(),
                    train.series_len(),
                    self.n_classes,
                    rng,
                )
            })
            .collect();
        for member in &mut self.members {
            let mut cfg = self.config.train.clone();
            if self.config.use_lr_range_test {
                // The valley pick is clamped to the band where this
                // architecture actually trains within the epoch budget;
                // on tiny datasets the 15-step range test is noisy enough
                // to otherwise return rates that never converge.
                cfg.lr = lr_range_test(
                    member,
                    &x_train,
                    &y_train,
                    cfg.batch_size,
                    1e-4,
                    1e-1,
                    15,
                    rng,
                )
                .clamp(3e-3, 5e-2);
            }
            let _ = train_classifier(member, &x_train, &y_train, &x_val, &y_val, &cfg, rng);
        }
    }

    fn predict(&self, test: &Dataset) -> Vec<Label> {
        let mut labels = Vec::with_capacity(test.len());
        self.predict_into(test.series(), &mut labels)
            .map(|()| labels)
            .expect("predict before fit, or on series of another shape")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use tsda_core::rng::{normal, seeded};
    use tsda_core::Mts;
    use tsda_neuro::layers::gradcheck;

    fn sine_problem(n_per_class: usize, len: usize, seed: u64) -> Dataset {
        let mut ds = Dataset::empty(2);
        let mut rng = seeded(seed);
        for c in 0..2 {
            let freq = if c == 0 { 0.3 } else { 0.9 };
            for _ in 0..n_per_class {
                let phase: f64 = rng.gen_range(0.0..1.0);
                ds.push(
                    Mts::from_dims(vec![(0..len)
                        .map(|t| (t as f64 * freq + phase).sin() + normal(&mut rng, 0.0, 0.15))
                        .collect()]),
                    c,
                );
            }
        }
        ds
    }

    #[test]
    fn module_forward_shape() {
        let mut rng = seeded(0);
        let mut m = InceptionModule::new(3, 4, &[9, 5, 3], 20, &mut rng);
        let x = Tensor::zeros(&[2, 3, 20]);
        let y = m.forward(&x);
        assert_eq!(y.shape(), &[2, 16, 20]);
    }

    #[test]
    fn module_gradcheck() {
        let mut rng = seeded(1);
        let mut m = InceptionModule::new(2, 2, &[5, 3, 3], 6, &mut rng);
        m.use_tanh_for_gradcheck();
        let x = Tensor::from_flat(
            &[1, 2, 6],
            (0..12).map(|v| ((v * 7 % 13) as f32 - 6.0) * 0.2).collect(),
        );
        gradcheck::check_input_grad(&mut m, &x, 5e-2);
    }

    #[test]
    fn full_net_gradcheck() {
        let mut rng = seeded(0);
        let cfg = InceptionTimeConfig {
            filters: 2,
            depth: 3,
            kernel_sizes: [5, 3, 3],
            ensemble: 1,
            ..InceptionTimeConfig::default()
        };
        let mut net = InceptionNet::new(&cfg, 2, 6, 2, &mut rng);
        let x = Tensor::from_flat(
            &[1, 2, 6],
            (0..12).map(|v| ((v * 5 % 11) as f32 - 5.0) * 0.15).collect(),
        );
        gradcheck::check_input_grad(&mut net, &x, 8e-2);
    }

    #[test]
    fn concat_split_round_trip() {
        let a = Tensor::from_flat(&[1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_flat(&[1, 1, 2], vec![5.0, 6.0]);
        let z = concat_channels(&[a.clone(), b.clone()]);
        assert_eq!(z.shape(), &[1, 3, 2]);
        let parts = split_channels(&z, &[2, 1]);
        assert_eq!(parts[0].data(), a.data());
        assert_eq!(parts[1].data(), b.data());
    }

    #[test]
    fn learns_frequency_discrimination() {
        let train = sine_problem(25, 32, 3);
        let test = sine_problem(10, 32, 4);
        let cfg = InceptionTimeConfig {
            filters: 3,
            depth: 3,
            kernel_sizes: [9, 5, 3],
            ensemble: 1,
            train: TrainConfig { max_epochs: 40, batch_size: 16, patience: 15, lr: 2e-2 },
            use_lr_range_test: false,
            ..InceptionTimeConfig::default()
        };
        let mut model = InceptionTime::new(cfg);
        let acc = model.fit_score(&train, None, &test, &mut seeded(5));
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn ensemble_probabilities_sum_to_one() {
        let train = sine_problem(10, 16, 6);
        let cfg = InceptionTimeConfig {
            filters: 2,
            depth: 3,
            kernel_sizes: [5, 3, 3],
            ensemble: 2,
            train: TrainConfig { max_epochs: 3, batch_size: 8, patience: 3, lr: 1e-3 },
            use_lr_range_test: false,
            ..InceptionTimeConfig::default()
        };
        let mut model = InceptionTime::new(cfg);
        model.fit(&train, None, &mut seeded(7));
        let x = dataset_to_tensor3(&train);
        let p = model.predict_proba(&x);
        for i in 0..p.shape()[0] {
            let s: f32 = p.data()[i * 2..(i + 1) * 2].iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "{s}");
        }
    }

    #[test]
    fn respects_supplied_validation_set() {
        let train = sine_problem(10, 16, 8);
        let val = sine_problem(4, 16, 9);
        let cfg = InceptionTimeConfig {
            filters: 2,
            depth: 3,
            kernel_sizes: [5, 3, 3],
            ensemble: 1,
            train: TrainConfig { max_epochs: 3, batch_size: 8, patience: 3, lr: 1e-3 },
            use_lr_range_test: false,
            ..InceptionTimeConfig::default()
        };
        let mut model = InceptionTime::new(cfg);
        model.fit(&train, Some(&val), &mut seeded(10));
        let pred = model.predict(&val);
        assert_eq!(pred.len(), val.len());
    }

    #[test]
    fn paper_config_matches_protocol() {
        let cfg = InceptionTimeConfig::paper();
        assert_eq!(cfg.train.max_epochs, 200);
        assert_eq!(cfg.train.patience, 30);
        assert_eq!(cfg.ensemble, 5);
        assert_eq!(cfg.depth, 6);
        assert_eq!(cfg.kernel_sizes, [39, 19, 9]);
        assert!((cfg.train_fraction - 2.0 / 3.0).abs() < 1e-12);
    }
}

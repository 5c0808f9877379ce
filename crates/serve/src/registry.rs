//! Named-model registry: load many saved models at startup, validate
//! request shapes, and run batched predictions.
//!
//! Every model kind predicts in two steps through `&self`, reading only
//! fitted state: an item step per series ([`ModelEntry::item_step`]),
//! which a batch lane runs on each request as it takes it, while its
//! flush window is open, and a batch step ([`ModelEntry::batch_step`])
//! once the window closes. For ROCKET, MiniRocket and ridge the item
//! step is the series' feature row and the batch step the ridge head;
//! InceptionTime does all its work in the batch step. Batch workers
//! share the registry through a plain `Arc` with no lock, and a panicked
//! batch leaves no poisoned model behind.

use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use tsda_classify::persist::SavedModel;
use tsda_classify::ridge::{BatchScratch, RIDGE_KIND};
use tsda_core::parallel;
use tsda_core::{Label, Mts, TsdaError};

enum Model {
    Saved(SavedModel),
    /// Constant-label model with a trivially allocation-free predict
    /// path; exists so the allocation-count harness can measure the
    /// batcher itself rather than a real model's transform.
    Stub(Label),
}

/// One served model plus the input contract requests must meet.
pub struct ModelEntry {
    name: String,
    kind: &'static str,
    n_dims: usize,
    series_len: usize,
    n_classes: usize,
    model: Model,
}

impl ModelEntry {
    /// Wrap a loaded model under a registry name. Fails on unfitted
    /// models (no input contract to validate against). A ridge file
    /// stores only its feature count, which `ridge_shape` factors as
    /// `n_dims × series_len` (one dimension when `None`).
    pub fn from_saved(
        name: &str,
        model: SavedModel,
        ridge_shape: Option<(usize, usize)>,
    ) -> Result<Self, TsdaError> {
        let (d, l) = model.input_shape().ok_or_else(|| {
            TsdaError::InvalidParameter(format!("model {name:?} is not fitted"))
        })?;
        let (n_dims, series_len) = match ridge_shape.filter(|_| model.kind() == RIDGE_KIND) {
            Some((rd, rl)) if rd * rl != d * l => {
                return Err(TsdaError::Shape(format!(
                    "ridge shape {rd}×{rl} does not match {l} features"
                )))
            }
            Some(shape) => shape,
            None => (d, l),
        };
        Ok(Self {
            name: name.to_string(),
            kind: model.kind(),
            n_dims,
            series_len,
            n_classes: model.n_classes(),
            model: Model::Saved(model),
        })
    }

    /// Constant-label entry for tests that need a model whose predict
    /// path performs no work and no allocation (see the allocation
    /// harness in `tests/alloc_count.rs`). Not reachable from model
    /// loading — only test code constructs it.
    #[doc(hidden)]
    pub fn stub(name: &str, label: Label, n_dims: usize, series_len: usize) -> Self {
        Self {
            name: name.to_string(),
            kind: "stub",
            n_dims,
            series_len,
            n_classes: label + 1,
            model: Model::Stub(label),
        }
    }

    /// Required input shape `(n_dims, series_len)`.
    pub fn input_shape(&self) -> (usize, usize) {
        (self.n_dims, self.series_len)
    }

    /// Check one request series against the input contract.
    pub fn validate(&self, s: &Mts) -> Result<(), String> {
        if s.n_dims() != self.n_dims || s.len() != self.series_len {
            return Err(format!(
                "series shape {}x{} does not match model {:?} ({}x{})",
                s.n_dims(),
                s.len(),
                self.name,
                self.n_dims,
                self.series_len
            ));
        }
        Ok(())
    }

    /// Run one batched prediction into a caller-owned label buffer: each
    /// series' item step, then the batch step, as a lane runs them; a
    /// warm ROCKET, MiniRocket or ridge batch allocates nothing at all.
    /// All series must already satisfy [`Self::validate`]. Each label is
    /// bit-identical to what offline `Classifier::predict` returns for
    /// that series alone. `out` is cleared first and holds
    /// `series.len()` labels on success.
    pub fn predict_batch_into(
        &self,
        series: &[Mts],
        out: &mut Vec<Label>,
    ) -> Result<(), TsdaError> {
        out.clear();
        if series.is_empty() {
            return Ok(());
        }
        match &self.model {
            Model::Saved(m) => parallel::serial(|| m.predict_into(series, out)),
            Model::Stub(label) => {
                out.resize(series.len(), *label);
                Ok(())
            }
        }
    }

    /// The item step for one validated series, which a lane runs as it
    /// takes the job, while the flush window is open: ROCKET, MiniRocket
    /// and ridge write the series' feature row as the next row of
    /// `rows`; InceptionTime and the stub do nothing. It runs on the
    /// calling thread ([`parallel::serial`]).
    pub fn item_step(&self, s: &Mts, rows: &mut BatchScratch) -> Result<(), TsdaError> {
        match &self.model {
            Model::Saved(m) => parallel::serial(|| m.item_step(s, rows)),
            Model::Stub(_) => Ok(()),
        }
    }

    /// The batch step, once the window closes: labels for `series`,
    /// whose item steps ran into `rows` in order, into `out` (cleared
    /// first). It runs on the calling thread ([`parallel::serial`]): a
    /// serving-size batch takes less time than the pool's thread spawns
    /// would.
    pub fn batch_step(
        &self,
        series: &[Mts],
        rows: &mut BatchScratch,
        out: &mut Vec<Label>,
    ) -> Result<(), TsdaError> {
        out.clear();
        match &self.model {
            Model::Saved(m) => parallel::serial(|| m.batch_step(series, rows, out)),
            Model::Stub(label) => {
                out.resize(series.len(), *label);
                Ok(())
            }
        }
    }

    /// Describe the entry for the `list` endpoint.
    pub fn describe(&self) -> Value {
        Value::Object(vec![
            ("name".into(), Value::Str(self.name.clone())),
            ("kind".into(), Value::Str(self.kind.to_string())),
            ("n_dims".into(), Value::Num(self.n_dims as f64)),
            ("series_len".into(), Value::Num(self.series_len as f64)),
            ("n_classes".into(), Value::Num(self.n_classes as f64)),
        ])
    }
}

/// Where a model directory keeps the saved model `name`:
/// `<dir>/<name>.tsda`. `tsda_serve` loads the file when it exists
/// (and trains and saves it otherwise); `tsda_router` runs its pretrain
/// pass only when one of its models has no such file.
pub fn model_path(dir: &str, name: &str) -> PathBuf {
    Path::new(dir).join(format!("{name}.tsda"))
}

/// All models served by one server instance, keyed by name.
#[derive(Default)]
pub struct ModelRegistry {
    models: BTreeMap<String, ModelEntry>,
}

impl ModelRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert an entry under its name (replacing any previous holder).
    pub fn insert(&mut self, entry: ModelEntry) {
        self.models.insert(entry.name.clone(), entry);
    }

    /// Look up a model by name.
    pub fn get(&self, name: &str) -> Option<&ModelEntry> {
        self.models.get(name)
    }

    /// Model names in sorted order.
    pub fn names(&self) -> Vec<String> {
        self.models.keys().cloned().collect()
    }

    /// True when no models are registered.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// `list` endpoint payload.
    pub fn describe(&self) -> Value {
        Value::Array(self.models.values().map(ModelEntry::describe).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use tsda_classify::persist::load_model_bytes;
    use tsda_classify::{
        Classifier, InceptionTime, InceptionTimeConfig, MiniRocket, MiniRocketConfig,
        RidgeClassifier, Rocket, RocketConfig,
    };
    use tsda_core::rng::seeded;
    use tsda_core::Dataset;
    use tsda_neuro::train::TrainConfig;

    fn toy_dataset(seed: u64) -> Dataset {
        let mut ds = Dataset::empty(2);
        let mut rng = seeded(seed);
        for c in 0..2 {
            let freq = if c == 0 { 0.3 } else { 0.9 };
            for _ in 0..10 {
                let phase: f64 = rng.gen_range(0.0..1.0);
                ds.push(
                    Mts::from_dims(vec![(0..24)
                        .map(|t| (t as f64 * freq + phase).sin())
                        .collect()]),
                    c,
                );
            }
        }
        ds
    }

    /// Every served kind, saved and loaded as `tsda_serve` does it,
    /// validates request shapes and answers each series like offline,
    /// whole test set and in batches of 1 and 2, in one call and through
    /// a lane's item and batch steps.
    #[test]
    fn entry_validates_shapes_and_matches_offline_predict() {
        let train = toy_dataset(1);
        let test = toy_dataset(2);
        let flatten = |ds: &Dataset| -> Vec<Vec<f64>> {
            ds.series().iter().map(|s| s.as_flat().to_vec()).collect()
        };
        let mut rocket = Rocket::new(RocketConfig { n_kernels: 50 });
        rocket.fit(&train, None, &mut seeded(3));
        let mut minirocket = MiniRocket::new(MiniRocketConfig { n_features: 168 });
        minirocket.fit(&train, None, &mut seeded(3));
        let mut ridge = RidgeClassifier::default();
        ridge.fit_features(&flatten(&train), train.labels(), train.n_classes());
        let mut inception = InceptionTime::new(InceptionTimeConfig {
            filters: 2,
            depth: 3,
            kernel_sizes: [9, 5, 3],
            ensemble: 1,
            train: TrainConfig { max_epochs: 3, batch_size: 16, patience: 3, lr: 1e-3 },
            use_lr_range_test: false,
            ..InceptionTimeConfig::default()
        });
        inception.fit(&train, None, &mut seeded(3));
        let kinds = [
            (rocket.predict(&test), SavedModel::Rocket(rocket)),
            (minirocket.predict(&test), SavedModel::MiniRocket(minirocket)),
            (ridge.try_predict_features(&flatten(&test)).unwrap(), SavedModel::Ridge(ridge)),
            (inception.predict(&test), SavedModel::InceptionTime(inception)),
        ];
        for (offline, mut model) in kinds {
            let kind = model.kind();
            let loaded = load_model_bytes(&model.save_bytes().unwrap()).unwrap();
            let ridge_shape = (kind == RIDGE_KIND).then_some((1, 24));
            let entry = ModelEntry::from_saved(kind, loaded, ridge_shape).unwrap();
            assert_eq!(entry.input_shape(), (1, 24), "{kind}");
            assert!(entry.validate(&Mts::zeros(1, 24)).is_ok(), "{kind}");
            assert!(entry.validate(&Mts::zeros(2, 24)).is_err(), "{kind}");
            assert!(entry.validate(&Mts::zeros(1, 23)).is_err(), "{kind}");
            let mut served = Vec::new();
            entry.predict_batch_into(test.series(), &mut served).unwrap();
            assert_eq!(served, offline, "{kind}, whole test set");
            let mut rows = BatchScratch::default();
            for b in [1, 2] {
                for (i, batch) in test.series().chunks(b).enumerate() {
                    let want = &offline[i * b..i * b + batch.len()];
                    entry.predict_batch_into(batch, &mut served).unwrap();
                    assert_eq!(served, want, "{kind}, b{b}");
                    // A lane's two steps: each series as it is taken,
                    // then the batch.
                    for s in batch {
                        entry.item_step(s, &mut rows).unwrap();
                    }
                    entry.batch_step(batch, &mut rows, &mut served).unwrap();
                    assert_eq!(served, want, "{kind}, b{b}, item and batch steps");
                }
            }
        }
    }

    #[test]
    fn unfitted_models_are_rejected() {
        let rocket = Rocket::new(RocketConfig::default());
        assert!(ModelEntry::from_saved("r", SavedModel::Rocket(rocket), None).is_err());
    }

    #[test]
    fn registry_lookup_and_listing() {
        let train = toy_dataset(4);
        let mut rocket = Rocket::new(RocketConfig { n_kernels: 30 });
        rocket.fit(&train, None, &mut seeded(5));
        let mut reg = ModelRegistry::new();
        reg.insert(ModelEntry::from_saved("rocket", SavedModel::Rocket(rocket), None).unwrap());
        assert_eq!(reg.names(), vec!["rocket".to_string()]);
        assert!(reg.get("rocket").is_some());
        assert!(reg.get("nope").is_none());
        let listing = serde_json::to_string(&reg.describe()).unwrap();
        assert!(listing.contains("\"rocket\""));
    }
}

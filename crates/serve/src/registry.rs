//! Named-model registry: load many saved models at startup, validate
//! request shapes, and run batched predictions.
//!
//! ROCKET, MiniRocket, and ridge are served through their `&self`
//! prediction paths, so batch workers read the registry through a plain
//! `Arc` with no locking. InceptionTime's forward pass caches
//! activations (`&mut`), so it sits behind a `Mutex`; contention is nil
//! because only that model's single batch worker ever locks it.

use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use tsda_classify::persist::SavedModel;
use tsda_classify::{InceptionTime, MiniRocket, RidgeClassifier, Rocket};
use tsda_core::parallel;
use tsda_core::{Dataset, Label, Mts, TsdaError};

enum ModelInner {
    Rocket(Rocket),
    MiniRocket(MiniRocket),
    /// Served over flattened raw series values (dimension-major), the
    /// linear baseline: `n_features = n_dims × series_len`.
    Ridge(RidgeClassifier),
    Inception(Mutex<InceptionTime>),
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
    inner: ModelInner,
}

impl ModelEntry {
    /// Wrap a loaded model under a registry name.
    ///
    /// Fails on unfitted models (no input contract to validate against).
    /// For ridge the expected feature count must factor as
    /// `n_dims × series_len`, supplied by the caller.
    pub fn from_saved(
        name: &str,
        model: SavedModel,
        ridge_shape: Option<(usize, usize)>,
    ) -> Result<Self, TsdaError> {
        let kind = model.kind();
        let unfitted = || TsdaError::InvalidParameter(format!("model {name:?} is not fitted"));
        let (n_dims, series_len, n_classes, inner) = match model {
            SavedModel::Rocket(m) => {
                let (d, l) = m.input_shape().ok_or_else(unfitted)?;
                (d, l, m.n_classes(), ModelInner::Rocket(m))
            }
            SavedModel::MiniRocket(m) => {
                let (d, l) = m.input_shape().ok_or_else(unfitted)?;
                (d, l, m.n_classes(), ModelInner::MiniRocket(m))
            }
            SavedModel::Ridge(m) => {
                let p = m.n_features().ok_or_else(unfitted)?;
                let (d, l) = ridge_shape.unwrap_or((1, p));
                if d * l != p {
                    return Err(TsdaError::Shape(format!(
                        "ridge shape {d}×{l} does not match {p} features"
                    )));
                }
                (d, l, m.n_classes(), ModelInner::Ridge(m))
            }
            SavedModel::InceptionTime(m) => {
                let (d, l) = m.input_shape().ok_or_else(unfitted)?;
                (d, l, m.n_classes(), ModelInner::Inception(Mutex::new(m)))
            }
        };
        Ok(Self { name: name.to_string(), kind, n_dims, series_len, n_classes, inner })
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
            inner: ModelInner::Stub(label),
        }
    }

    /// Registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Codec kind tag.
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// Required input shape `(n_dims, series_len)`.
    pub fn input_shape(&self) -> (usize, usize) {
        (self.n_dims, self.series_len)
    }

    /// Number of output classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
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

    /// Run one batched prediction into a caller-owned label buffer, so
    /// a batch worker's steady state reuses one allocation across
    /// batches; a warm ROCKET batch allocates nothing at all. All series
    /// must already satisfy [`Self::validate`]; the batch shares a
    /// single transform/forward pass, which runs on the calling thread
    /// ([`parallel::serial`]): a serving-size batch takes less time than
    /// the thread spawns the pool would make for it.
    /// Per-series results are independent of the batch composition, so
    /// each label is bit-identical to what offline
    /// `Classifier::predict` returns for that series alone. `out` is
    /// cleared first and holds exactly `series.len()` labels on success.
    pub fn predict_batch_into(
        &self,
        series: &[Mts],
        out: &mut Vec<Label>,
    ) -> Result<(), TsdaError> {
        out.clear();
        if series.is_empty() {
            return Ok(());
        }
        parallel::serial(|| self.predict_serial(series, out))
    }

    /// [`Self::predict_batch_into`]'s model call, for a non-empty batch.
    fn predict_serial(&self, series: &[Mts], out: &mut Vec<Label>) -> Result<(), TsdaError> {
        let labels = match &self.inner {
            ModelInner::Rocket(m) => return m.predict_into(series, out),
            ModelInner::MiniRocket(m) => m.predict_fitted(&self.to_dataset(series))?,
            ModelInner::Ridge(m) => {
                let rows: Vec<Vec<f64>> =
                    series.iter().map(|s| s.as_flat().to_vec()).collect();
                m.try_predict_features(&rows)?
            }
            ModelInner::Inception(m) => {
                let ds = self.to_dataset(series);
                // lock-order: the model mutex is a leaf lock. predict
                // needs `&mut` (buffer reuse inside the network), so the
                // guard spans the forward pass — pure compute on this
                // thread, no IO and no other lock (L2-clean
                // by the blocking-reachability check).
                let mut guard = m.lock().map_err(|_| {
                    TsdaError::Numerical("inception model poisoned by a panicked batch".into())
                })?;
                tsda_classify::Classifier::predict(&mut *guard, &ds)
            }
            ModelInner::Stub(label) => {
                out.resize(series.len(), *label);
                return Ok(());
            }
        };
        out.extend_from_slice(&labels);
        Ok(())
    }

    fn to_dataset(&self, series: &[Mts]) -> Dataset {
        let mut ds = Dataset::empty(self.n_classes.max(1));
        for s in series {
            ds.push(s.clone(), 0);
        }
        ds
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

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.len()
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
    use tsda_core::rng::seeded;
    use tsda_classify::{Classifier, RocketConfig};

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

    #[test]
    fn entry_validates_shapes_and_matches_offline_predict() {
        let train = toy_dataset(1);
        let test = toy_dataset(2);
        let mut rocket = Rocket::new(RocketConfig { n_kernels: 50, ..RocketConfig::default() });
        rocket.fit(&train, None, &mut seeded(3));
        let offline = rocket.predict(&test);
        let entry = ModelEntry::from_saved("r", SavedModel::Rocket(rocket), None).unwrap();
        assert_eq!(entry.input_shape(), (1, 24));
        assert!(entry.validate(&Mts::zeros(1, 24)).is_ok());
        assert!(entry.validate(&Mts::zeros(2, 24)).is_err());
        assert!(entry.validate(&Mts::zeros(1, 23)).is_err());
        let mut served = Vec::new();
        entry.predict_batch_into(test.series(), &mut served).unwrap();
        assert_eq!(served, offline);
    }

    #[test]
    fn unfitted_models_are_rejected() {
        let rocket = Rocket::new(RocketConfig::default());
        assert!(ModelEntry::from_saved("r", SavedModel::Rocket(rocket), None).is_err());
    }

    #[test]
    fn registry_lookup_and_listing() {
        let train = toy_dataset(4);
        let mut rocket = Rocket::new(RocketConfig { n_kernels: 30, ..RocketConfig::default() });
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

//! Save / load dispatch over every persistable classifier.
//!
//! Each model serialises itself into the [`tsda_core::codec`] container
//! (magic + version + section table + CRC); this module adds the
//! kind-tag dispatch so callers — the serving layer above all — can load
//! a file without knowing in advance which model it holds:
//!
//! ```no_run
//! use tsda_classify::persist::{load_model, SavedModel};
//! match load_model(std::path::Path::new("models/rocket.tsda")).unwrap() {
//!     SavedModel::Rocket(m) => drop(m),
//!     other => panic!("expected ROCKET, got {}", other.kind()),
//! }
//! ```
//!
//! All round trips are bit-exact: a loaded model produces predictions
//! identical to the fitted original (asserted by the persistence test
//! suite for all four model types). [`SavedModel`] is also the serving
//! layer's one view of a model, whatever its kind.

use crate::inception::{InceptionTime, INCEPTION_KIND};
use crate::minirocket::{MiniRocket, MINIROCKET_KIND};
use crate::ridge::{with_batch_scratch, BatchScratch, RidgeClassifier, RIDGE_KIND};
use crate::rocket::{Rocket, ROCKET_KIND};
use std::path::Path;
use tsda_core::codec::CodecReader;
use tsda_core::{Label, Mts, TsdaError};

/// A loaded model of any persistable kind.
pub enum SavedModel {
    /// ROCKET: random kernels + ridge head.
    Rocket(Rocket),
    /// MiniRocket: fixed kernel bank + ridge head.
    MiniRocket(MiniRocket),
    /// Standalone ridge classifier over raw feature vectors.
    Ridge(RidgeClassifier),
    /// InceptionTime ensemble.
    InceptionTime(InceptionTime),
}

impl SavedModel {
    /// The codec kind tag of the wrapped model.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Rocket(_) => ROCKET_KIND,
            Self::MiniRocket(_) => MINIROCKET_KIND,
            Self::Ridge(_) => RIDGE_KIND,
            Self::InceptionTime(_) => INCEPTION_KIND,
        }
    }

    /// `(n_dims, series_len)` of the series the model predicts; `None`
    /// while unfitted. Ridge reads flattened series: `(1, n_features)`.
    pub fn input_shape(&self) -> Option<(usize, usize)> {
        match self {
            Self::Rocket(m) => m.input_shape(),
            Self::MiniRocket(m) => m.input_shape(),
            Self::Ridge(m) => m.n_features().map(|p| (1, p)),
            Self::InceptionTime(m) => m.input_shape(),
        }
    }

    /// Number of classes the model separates (0 before fit).
    pub fn n_classes(&self) -> usize {
        match self {
            Self::Rocket(m) => m.n_classes(),
            Self::MiniRocket(m) => m.n_classes(),
            Self::Ridge(m) => m.n_classes(),
            Self::InceptionTime(m) => m.n_classes(),
        }
    }

    /// Item step: `s`'s share of a predict, run on its own as a serving
    /// lane takes the series off its queue. ROCKET, MiniRocket and ridge
    /// write `s`'s feature row as the next row of `scratch`;
    /// InceptionTime, whose forward pass is the batched part, does
    /// nothing here.
    pub fn item_step(&self, s: &Mts, scratch: &mut BatchScratch) -> Result<(), TsdaError> {
        match self {
            Self::Rocket(m) => m.push_row(s, scratch),
            Self::MiniRocket(m) => m.push_row(s, scratch),
            Self::Ridge(m) => m.push_series(s, scratch),
            Self::InceptionTime(_) => Ok(()),
        }
    }

    /// Batch step: labels for `series`, whose item steps ran into
    /// `scratch` in order, into `out` (cleared first). ROCKET,
    /// MiniRocket and ridge run the ridge head over the rows;
    /// InceptionTime runs its forward pass over the batch.
    pub fn batch_step(
        &self,
        series: &[Mts],
        scratch: &mut BatchScratch,
        out: &mut Vec<Label>,
    ) -> Result<(), TsdaError> {
        match self {
            Self::Rocket(m) => m.head().label_rows(series.len(), scratch, out),
            Self::MiniRocket(m) => m.head().label_rows(series.len(), scratch, out),
            Self::Ridge(m) => m.label_rows(series.len(), scratch, out),
            Self::InceptionTime(m) => m.predict_into(series, out),
        }
    }

    /// Label `series` into `out` on this thread: each series' item step,
    /// then the batch step, over this thread's [`BatchScratch`]. Labels
    /// are bit-identical to the wrapped model's offline `predict`, and
    /// only fitted state is read, so no lock is needed.
    pub fn predict_into(&self, series: &[Mts], out: &mut Vec<Label>) -> Result<(), TsdaError> {
        with_batch_scratch(|scratch| {
            let items = series.iter().try_for_each(|s| self.item_step(s, scratch));
            let batch = self.batch_step(series, scratch, out);
            items.and(batch)
        })
    }

    /// Serialise the wrapped model (takes `&mut self` because the
    /// InceptionTime parameter visitor does; nothing is modified).
    pub fn save_bytes(&mut self) -> Result<Vec<u8>, TsdaError> {
        match self {
            Self::Rocket(m) => m.save_bytes(),
            Self::MiniRocket(m) => m.save_bytes(),
            Self::Ridge(m) => m.save_bytes(),
            Self::InceptionTime(m) => m.save_bytes(),
        }
    }
}

/// Load a model from serialised bytes, dispatching on the kind tag.
/// The container is parsed and checksummed once; the kind's decoder
/// reads the parsed sections.
pub fn load_model_bytes(bytes: &[u8]) -> Result<SavedModel, TsdaError> {
    let r = CodecReader::parse(bytes)?;
    match r.kind() {
        ROCKET_KIND => Rocket::load_codec(&r).map(SavedModel::Rocket),
        MINIROCKET_KIND => MiniRocket::load_codec(&r).map(SavedModel::MiniRocket),
        RIDGE_KIND => RidgeClassifier::load_codec(&r).map(SavedModel::Ridge),
        INCEPTION_KIND => InceptionTime::load_codec(&r).map(SavedModel::InceptionTime),
        other => Err(TsdaError::Codec(format!("unknown model kind {other:?}"))),
    }
}

/// Load a model file, dispatching on the kind tag.
pub fn load_model(path: &Path) -> Result<SavedModel, TsdaError> {
    let bytes = std::fs::read(path)?;
    load_model_bytes(&bytes)
}

/// Save a model to a file.
pub fn save_model(model: &mut SavedModel, path: &Path) -> Result<(), TsdaError> {
    std::fs::write(path, model.save_bytes()?)?;
    Ok(())
}

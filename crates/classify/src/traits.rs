//! The classifier interface shared by the harness.

use rand::rngs::StdRng;
use tsda_core::{Dataset, Label};

/// A trainable time series classifier.
///
/// The paper's protocol (§IV-D) gives deep models a validation split cut
/// from the *original* training data before augmentation; `fit` therefore
/// takes an optional validation set. Models that do not use validation
/// (ROCKET, 1-NN) ignore it.
pub trait Classifier {
    /// Stable model name for reports.
    fn name(&self) -> &'static str;

    /// Train on `train`, optionally monitoring `validation`.
    fn fit(&mut self, train: &Dataset, validation: Option<&Dataset>, rng: &mut StdRng);

    /// Predict a label for every series of `test`.
    ///
    /// Each persistable model's `predict` runs the path of its fallible
    /// `predict_into(&self, &[Mts], &mut Vec<Label>)`, the serving
    /// layer's entry point, so offline and served labels are
    /// bit-identical.
    fn predict(&self, test: &Dataset) -> Vec<Label>;

    /// Convenience: fit then score accuracy on `test`.
    fn fit_score(
        &mut self,
        train: &Dataset,
        validation: Option<&Dataset>,
        test: &Dataset,
        rng: &mut StdRng,
    ) -> f64 {
        self.fit(train, validation, rng);
        let pred = self.predict(test);
        tsda_core::metrics::accuracy(&pred, test.labels())
    }
}

//! Multi-class ridge classifier with exact LOOCV alpha selection — the
//! scikit-learn `RidgeClassifierCV` that the paper pairs with ROCKET.
//!
//! One-vs-rest ±1 targets, features standardised with training
//! statistics, alpha swept over `logspace(−3, 3, 10)` scored by exact
//! leave-one-out error (see [`tsda_linalg::solve::RidgeLoocv`]), argmax
//! decision.
//!
//! It is also the head of ROCKET, MiniRocket and the served linear
//! baseline, which predict in two steps over a reused [`BatchScratch`]:
//! an item step per series writes its feature row
//! (`RidgeClassifier::push_row`), and the batch step labels the rows
//! (`RidgeClassifier::label_rows`). A serving lane runs the item step
//! as it takes each request, during its flush window, and the batch step
//! when the window closes; offline `Classifier::predict` spreads the
//! same row transform over the pool, then runs the same head
//! (`RidgeClassifier::predict_rows`).

use std::cell::Cell;
use tsda_core::codec::{ByteReader, ByteWriter, CodecReader, CodecWriter};
use tsda_core::parallel::Pool;
use tsda_core::{Label, Mts, TsdaError};
use tsda_linalg::matrix::Matrix;
use tsda_linalg::solve::{RidgeLoocv, RidgeSolution};

/// Codec kind tag for saved ridge classifiers.
pub const RIDGE_KIND: &str = "ridge";

/// The feature rows of one batch and one row's class scores: what the
/// item steps of a ROCKET, MiniRocket or ridge predict write, one row
/// per series, and its batch step, the ridge head, labels. It keeps its
/// capacity across batches, so once it has held the largest batch
/// (`max_batch` on a serving lane) a predict allocates nothing.
#[derive(Default)]
pub struct BatchScratch {
    /// `rows × width` features, row-major.
    features: Vec<f64>,
    scores: Vec<f64>,
    /// Rows written since the last batch step.
    rows: usize,
}

/// One series' cleaned values and convolution output.
pub(crate) type SeriesScratch = (Vec<f64>, Vec<f64>);

thread_local! {
    static BATCH_SCRATCH: Cell<BatchScratch> =
        const { Cell::new(BatchScratch { features: Vec::new(), scores: Vec::new(), rows: 0 }) };
    static SERIES_SCRATCH: Cell<SeriesScratch> = const { Cell::new((Vec::new(), Vec::new())) };
}

/// Run `f` with this thread's batch scratch, which keeps the capacity
/// of the largest batch this thread has predicted.
pub(crate) fn with_batch_scratch<T>(f: impl FnOnce(&mut BatchScratch) -> T) -> T {
    let mut scratch = BATCH_SCRATCH.take();
    let result = f(&mut scratch);
    BATCH_SCRATCH.set(scratch);
    result
}

/// Run `f` with this thread's series scratch.
fn with_series_scratch<T>(f: impl FnOnce(&mut SeriesScratch) -> T) -> T {
    let mut scratch = SERIES_SCRATCH.take();
    let result = f(&mut scratch);
    SERIES_SCRATCH.set(scratch);
    result
}

/// Fitted ridge classifier state.
#[derive(Default)]
pub struct RidgeClassifier {
    solution: Option<RidgeSolution>,
    feature_mean: Vec<f64>,
    feature_std: Vec<f64>,
    n_classes: usize,
}

impl RidgeClassifier {
    /// Fit on raw feature rows.
    ///
    /// # Panics
    /// Panics on empty input or mismatched lengths.
    pub fn fit_features(&mut self, features: &[Vec<f64>], labels: &[Label], n_classes: usize) {
        assert_eq!(features.len(), labels.len(), "feature/label mismatch");
        assert!(!features.is_empty(), "ridge classifier needs data");
        let n = features.len();
        let p = features[0].len();
        // Standardise features (ROCKET features have wildly different
        // scales: PPV in [0,1], max unbounded).
        self.feature_mean = vec![0.0; p];
        self.feature_std = vec![0.0; p];
        for row in features {
            for (j, &v) in row.iter().enumerate() {
                self.feature_mean[j] += v / n as f64;
            }
        }
        for row in features {
            for (j, &v) in row.iter().enumerate() {
                let d = v - self.feature_mean[j];
                self.feature_std[j] += d * d / n as f64;
            }
        }
        for s in &mut self.feature_std {
            *s = s.sqrt().max(1e-8);
        }
        let x = Matrix::from_fn(n, p, |i, j| {
            (features[i][j] - self.feature_mean[j]) / self.feature_std[j]
        });
        // One-vs-rest ±1 targets.
        let y = Matrix::from_fn(n, n_classes, |i, c| if labels[i] == c { 1.0 } else { -1.0 });
        self.solution = Some(RidgeLoocv::default().fit(&x, &y));
        self.n_classes = n_classes;
    }

    /// Predict labels for raw feature rows.
    pub fn predict_features(&self, features: &[Vec<f64>]) -> Vec<Label> {
        self.try_predict_features(features).expect("predict before fit")
    }

    /// Fallible [`Self::predict_features`]: errors instead of panicking
    /// on an unfitted model or a feature-width mismatch, which is what
    /// the serving layer needs when the input comes off the wire.
    pub fn try_predict_features(&self, features: &[Vec<f64>]) -> Result<Vec<Label>, TsdaError> {
        let sol = self.solution()?;
        let p = self.feature_mean.len();
        if let Some(bad) = features.iter().find(|row| row.len() != p) {
            return Err(TsdaError::Shape(format!(
                "feature row has {} values, model expects {p}",
                bad.len()
            )));
        }
        let mut scores = Vec::with_capacity(self.n_classes);
        Ok(features
            .iter()
            .map(|row| self.label_row(sol, &mut row.clone(), &mut scores))
            .collect())
    }

    /// Item step of the served linear baseline: `s`'s flattened values
    /// (dimension-major, no preprocessing) as the next row of `scratch`,
    /// for [`Self::label_rows`].
    pub(crate) fn push_series(&self, s: &Mts, scratch: &mut BatchScratch) -> Result<(), TsdaError> {
        let width = s.as_flat().len();
        self.push_row(s, width, scratch, |s, row, _| row.copy_from_slice(s.as_flat()))
    }

    /// The item step of ROCKET, MiniRocket and served ridge: `transform`
    /// writes `s`'s `width` features, with this thread's
    /// [`SeriesScratch`], as the next row of `scratch`.
    pub(crate) fn push_row(
        &self,
        s: &Mts,
        width: usize,
        scratch: &mut BatchScratch,
        transform: impl FnOnce(&Mts, &mut [f64], &mut SeriesScratch),
    ) -> Result<(), TsdaError> {
        self.check_width(width)?;
        let start = scratch.rows * width;
        scratch.features.resize(start + width, 0.0);
        with_series_scratch(|series| transform(s, &mut scratch.features[start..], series));
        scratch.rows += 1;
        Ok(())
    }

    /// The batch step of ROCKET, MiniRocket and served ridge: each of the
    /// `n` rows the item steps wrote is standardised in place and scored,
    /// and its arg-max class pushed to `out` (cleared first), as
    /// [`Self::try_predict_features`] labels the same rows. The rows are
    /// spent either way: the next item step starts a new batch.
    pub(crate) fn label_rows(
        &self,
        n: usize,
        scratch: &mut BatchScratch,
        out: &mut Vec<Label>,
    ) -> Result<(), TsdaError> {
        let written = std::mem::take(&mut scratch.rows);
        let sol = self.solution()?;
        let p = self.feature_mean.len();
        let rows = match scratch.features.get_mut(..n * p) {
            Some(rows) if written == n && p > 0 => rows,
            _ => {
                return Err(TsdaError::InvalidParameter(format!(
                    "{written} feature rows of {p} values for a batch of {n} series"
                )))
            }
        };
        out.clear();
        for row in rows.chunks_exact_mut(p) {
            out.push(self.label_row(sol, row, &mut scratch.scores));
        }
        Ok(())
    }

    /// Offline labels for a whole batch: every series' [`Self::push_row`]
    /// transform spread over the pool (one chunk per series, each with
    /// its thread's [`SeriesScratch`]), then [`Self::label_rows`], in
    /// buffers of its own that are freed on return.
    pub(crate) fn predict_rows(
        &self,
        series: &[Mts],
        width: usize,
        transform: impl Fn(&Mts, &mut [f64], &mut SeriesScratch) + Sync,
    ) -> Result<Vec<Label>, TsdaError> {
        self.check_width(width)?;
        let mut features = vec![0.0; series.len() * width];
        Pool::global().par_chunks_mut(&mut features, width, |i, row| {
            with_series_scratch(|s| transform(&series[i], row, s));
        });
        let mut scratch = BatchScratch { features, scores: Vec::new(), rows: series.len() };
        let mut labels = Vec::with_capacity(series.len());
        self.label_rows(series.len(), &mut scratch, &mut labels)?;
        Ok(labels)
    }

    /// Refuse feature rows of `width` values: unfitted, or another width
    /// than the fitted one.
    fn check_width(&self, width: usize) -> Result<(), TsdaError> {
        let p = self.solution().map(|_| self.feature_mean.len())?;
        if width != p || p == 0 {
            return Err(TsdaError::Shape(format!(
                "feature row has {width} values, model expects {p}"
            )));
        }
        Ok(())
    }

    fn solution(&self) -> Result<&RidgeSolution, TsdaError> {
        self.solution
            .as_ref()
            .ok_or_else(|| TsdaError::InvalidParameter("predict before fit".into()))
    }

    /// Standardise one raw feature row in place with the training
    /// statistics, score it, and return the arg-max class.
    fn label_row(&self, sol: &RidgeSolution, row: &mut [f64], scores: &mut Vec<f64>) -> Label {
        for (j, v) in row.iter_mut().enumerate() {
            *v = (*v - self.feature_mean[j]) / self.feature_std[j];
        }
        sol.predict_into(row, scores);
        scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(c, _)| c)
            .unwrap_or(0)
    }

    /// The alpha the LOOCV sweep selected (None before fit).
    pub fn selected_alpha(&self) -> Option<f64> {
        self.solution.as_ref().map(|s| s.alpha)
    }

    /// Number of input features the fitted model expects.
    pub fn n_features(&self) -> Option<usize> {
        self.solution.as_ref().map(|_| self.feature_mean.len())
    }

    /// Number of output classes (0 before fit).
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Serialise the fitted state into a [`tsda_core::codec`] container.
    ///
    /// Weights, standardisation statistics, and intercepts are stored as
    /// raw f64 bit patterns, so a load restores bit-identical predictions.
    pub fn save_bytes(&self) -> Result<Vec<u8>, TsdaError> {
        let sol = self
            .solution
            .as_ref()
            .ok_or_else(|| TsdaError::InvalidParameter("cannot save an unfitted ridge model".into()))?;
        let mut w = CodecWriter::new(RIDGE_KIND);
        let mut meta = ByteWriter::new();
        meta.usize(self.n_classes);
        meta.usize(self.feature_mean.len());
        w.section("meta", meta.into_bytes());
        let mut st = ByteWriter::new();
        st.f64_slice(&self.feature_mean);
        st.f64_slice(&self.feature_std);
        w.section("standardise", st.into_bytes());
        let mut s = ByteWriter::new();
        s.f64(sol.alpha);
        s.f64(sol.loocv_mse);
        s.usize(sol.weights.rows());
        s.usize(sol.weights.cols());
        s.f64_slice(sol.weights.as_slice());
        s.f64_slice(&sol.intercepts);
        w.section("solution", s.into_bytes());
        Ok(w.finish())
    }

    /// Rebuild a fitted classifier from [`Self::save_bytes`] output.
    pub fn load_bytes(bytes: &[u8]) -> Result<Self, TsdaError> {
        Self::load_codec(&CodecReader::parse(bytes)?)
    }

    /// Rebuild from an already-parsed container (used by the kind
    /// dispatch in [`crate::persist`], and when the ridge state is
    /// nested inside a ROCKET/MiniRocket file).
    pub(crate) fn load_codec(r: &CodecReader) -> Result<Self, TsdaError> {
        r.expect_kind(RIDGE_KIND)?;
        let mut meta = ByteReader::new(r.section("meta")?);
        let n_classes = meta.usize()?;
        let p = meta.usize()?;
        meta.finish()?;
        let mut st = ByteReader::new(r.section("standardise")?);
        let feature_mean = st.f64_vec()?;
        let feature_std = st.f64_vec()?;
        st.finish()?;
        if feature_mean.len() != p || feature_std.len() != p {
            return Err(TsdaError::Codec("standardisation length disagrees with meta".into()));
        }
        let mut s = ByteReader::new(r.section("solution")?);
        let alpha = s.f64()?;
        let loocv_mse = s.f64()?;
        let rows = s.usize()?;
        let cols = s.usize()?;
        let data = s.f64_vec()?;
        let intercepts = s.f64_vec()?;
        s.finish()?;
        if data.len() != rows.saturating_mul(cols) {
            return Err(TsdaError::Codec("weight matrix shape disagrees with payload".into()));
        }
        if rows != p || cols != n_classes || intercepts.len() != n_classes {
            return Err(TsdaError::Codec("solution shape disagrees with meta".into()));
        }
        let weights = Matrix::from_vec(rows, cols, data);
        Ok(Self {
            solution: Some(RidgeSolution { weights, intercepts, alpha, loocv_mse }),
            feature_mean,
            feature_std,
            n_classes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use tsda_core::rng::seeded;

    fn blobs(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<Label>) {
        let mut rng = seeded(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let c = i % 3;
            let centre = [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)][c];
            x.push(vec![
                centre.0 + rng.gen_range(-1.0..1.0),
                centre.1 + rng.gen_range(-1.0..1.0),
            ]);
            y.push(c);
        }
        (x, y)
    }

    #[test]
    fn classifies_three_blobs() {
        let (xt, yt) = blobs(90, 1);
        let (xs, ys) = blobs(30, 2);
        let mut clf = RidgeClassifier::default();
        clf.fit_features(&xt, &yt, 3);
        let pred = clf.predict_features(&xs);
        let acc = pred.iter().zip(&ys).filter(|(a, b)| a == b).count() as f64 / 30.0;
        assert!(acc > 0.95, "{acc}");
    }

    #[test]
    fn alpha_is_selected_from_the_grid() {
        let (xt, yt) = blobs(60, 3);
        let mut clf = RidgeClassifier::default();
        clf.fit_features(&xt, &yt, 3);
        let alpha = clf.selected_alpha().unwrap();
        assert!((1e-3..=1e3).contains(&alpha));
    }

    #[test]
    fn constant_features_do_not_blow_up() {
        // Zero-variance feature: standardisation must guard the division.
        let x = vec![vec![1.0, 5.0], vec![2.0, 5.0], vec![3.0, 5.0], vec![4.0, 5.0]];
        let y = vec![0, 0, 1, 1];
        let mut clf = RidgeClassifier::default();
        clf.fit_features(&x, &y, 2);
        let pred = clf.predict_features(&x);
        assert_eq!(pred, y);
    }

    #[test]
    fn overparameterised_regime_works() {
        // p >> n exercises the dual LOOCV path end to end.
        let mut rng = seeded(4);
        let n = 12;
        let p = 60;
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let c = i % 2;
            let row: Vec<f64> = (0..p)
                .map(|j| {
                    let sig = if j < 5 { (c as f64) * 2.0 - 1.0 } else { 0.0 };
                    sig + rng.gen_range(-0.3..0.3)
                })
                .collect();
            x.push(row);
            y.push(c);
        }
        let mut clf = RidgeClassifier::default();
        clf.fit_features(&x, &y, 2);
        let pred = clf.predict_features(&x);
        let acc = pred.iter().zip(&y).filter(|(a, b)| a == b).count();
        assert!(acc >= 11, "{acc}/12");
    }

    #[test]
    #[should_panic(expected = "needs data")]
    fn empty_fit_panics() {
        RidgeClassifier::default().fit_features(&[], &[], 2);
    }
}

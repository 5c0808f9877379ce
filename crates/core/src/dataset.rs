//! Labelled time series datasets and train/test pairs.

use crate::error::TsdaError;
use crate::series::Mts;
use crate::Label;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A labelled collection of multivariate time series.
///
/// Invariants (enforced by [`Dataset::from_parts`] and `push`):
/// * every series has the same `(n_dims, len)` shape;
/// * every label is `< n_classes`;
/// * `series.len() == labels.len()`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Dataset {
    series: Vec<Mts>,
    labels: Vec<Label>,
    n_classes: usize,
}

impl Dataset {
    /// An empty dataset expecting `n_classes` classes.
    pub fn empty(n_classes: usize) -> Self {
        Self { series: Vec::new(), labels: Vec::new(), n_classes }
    }

    /// Build from parallel vectors of series and labels.
    pub fn from_parts(
        series: Vec<Mts>,
        labels: Vec<Label>,
        n_classes: usize,
    ) -> Result<Self, TsdaError> {
        if series.len() != labels.len() {
            return Err(TsdaError::Shape(format!(
                "{} series but {} labels",
                series.len(),
                labels.len()
            )));
        }
        if let Some(first) = series.first() {
            let shape = first.shape();
            if let Some(bad) = series.iter().find(|s| s.shape() != shape) {
                return Err(TsdaError::Shape(format!(
                    "mixed series shapes: {:?} vs {:?}",
                    shape,
                    bad.shape()
                )));
            }
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= n_classes) {
            return Err(TsdaError::Label { label: bad, n_classes });
        }
        Ok(Self { series, labels, n_classes })
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True when there are no series.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// The declared number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Dimensions of the series (0 when empty).
    pub fn n_dims(&self) -> usize {
        self.series.first().map_or(0, Mts::n_dims)
    }

    /// Time length of the series (0 when empty).
    pub fn series_len(&self) -> usize {
        self.series.first().map_or(0, Mts::len)
    }

    /// Borrow the series.
    pub fn series(&self) -> &[Mts] {
        &self.series
    }

    /// Borrow the labels.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// The `i`-th (series, label) pair.
    pub fn get(&self, i: usize) -> (&Mts, Label) {
        (&self.series[i], self.labels[i])
    }

    /// Append a series with its label.
    ///
    /// # Panics
    /// Panics on a shape mismatch with existing series or an out-of-range
    /// label — these are programming errors in augmentation code.
    pub fn push(&mut self, series: Mts, label: Label) {
        if let Some(first) = self.series.first() {
            assert_eq!(series.shape(), first.shape(), "pushed series shape mismatch");
        }
        assert!(label < self.n_classes, "label {label} >= n_classes {}", self.n_classes);
        self.series.push(series);
        self.labels.push(label);
    }

    /// Count of series per class (length `n_classes`).
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }

    /// Empirical class distribution (sums to 1; all-zero when empty).
    pub fn class_distribution(&self) -> Vec<f64> {
        let counts = self.class_counts();
        let n = self.len();
        if n == 0 {
            return vec![0.0; self.n_classes];
        }
        counts.iter().map(|&c| c as f64 / n as f64).collect()
    }

    /// Indices of the series belonging to `class`.
    pub fn indices_of_class(&self, class: Label) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l == class)
            .map(|(i, _)| i)
            .collect()
    }

    /// Iterate over `(series, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Mts, Label)> {
        self.series.iter().zip(self.labels.iter().copied())
    }

    /// Total missing-value proportion across the whole dataset.
    pub fn missing_proportion(&self) -> f64 {
        let total: usize = self.series.iter().map(|s| s.n_dims() * s.len()).sum();
        if total == 0 {
            return 0.0;
        }
        let missing: usize = self.series.iter().map(Mts::missing_count).sum();
        missing as f64 / total as f64
    }

    /// Stratified split into `(first, second)` where `first` receives
    /// `ratio` of each class (rounded, at least 1 per non-empty class when
    /// possible). Used by the InceptionTime protocol's 2:1
    /// train/validation split.
    pub fn stratified_split<R: Rng>(&self, ratio: f64, rng: &mut R) -> (Dataset, Dataset) {
        assert!((0.0..=1.0).contains(&ratio), "split ratio must be in [0,1]");
        let mut first = Dataset::empty(self.n_classes);
        let mut second = Dataset::empty(self.n_classes);
        for class in 0..self.n_classes {
            let mut idx = self.indices_of_class(class);
            idx.shuffle(rng);
            let take = if idx.is_empty() {
                0
            } else {
                ((idx.len() as f64 * ratio).round() as usize).clamp(
                    usize::from(ratio > 0.0),
                    idx.len() - usize::from(ratio < 1.0 && idx.len() > 1),
                )
            };
            for (k, &i) in idx.iter().enumerate() {
                if k < take {
                    first.push(self.series[i].clone(), class);
                } else {
                    second.push(self.series[i].clone(), class);
                }
            }
        }
        (first, second)
    }

    /// Randomly drop series until each class keeps at most
    /// `ceil(fraction · count)`. Used for the paper's "downsampled
    /// training set" protocol variant.
    pub fn downsample<R: Rng>(&self, fraction: f64, rng: &mut R) -> Dataset {
        assert!(fraction > 0.0 && fraction <= 1.0, "fraction must be in (0,1]");
        let mut out = Dataset::empty(self.n_classes);
        for class in 0..self.n_classes {
            let mut idx = self.indices_of_class(class);
            idx.shuffle(rng);
            let keep = ((idx.len() as f64 * fraction).ceil() as usize).max(1).min(idx.len());
            for &i in idx.iter().take(keep) {
                out.push(self.series[i].clone(), class);
            }
        }
        out
    }

    /// Mean vector of the dataset: the element-wise mean over all series
    /// of the flattened `M·T` representation, skipping missing values.
    pub fn mean_vector(&self) -> Vec<f64> {
        let d = self.n_dims() * self.series_len();
        let mut sums = vec![0.0; d];
        let mut counts = vec![0usize; d];
        for s in &self.series {
            for (j, &v) in s.as_flat().iter().enumerate() {
                if !v.is_nan() {
                    sums[j] += v;
                    counts[j] += 1;
                }
            }
        }
        sums.iter()
            .zip(&counts)
            .map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
            .collect()
    }
}

/// A dataset with the archive's fixed train/test division.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainTest {
    /// Training split.
    pub train: Dataset,
    /// Testing split (never augmented).
    pub test: Dataset,
}

impl TrainTest {
    /// Construct, checking the two splits agree on shape and classes.
    pub fn new(train: Dataset, test: Dataset) -> Result<Self, TsdaError> {
        if train.n_classes() != test.n_classes() {
            return Err(TsdaError::Shape(format!(
                "train has {} classes, test has {}",
                train.n_classes(),
                test.n_classes()
            )));
        }
        if !train.is_empty()
            && !test.is_empty()
            && (train.n_dims() != test.n_dims() || train.series_len() != test.series_len())
        {
            return Err(TsdaError::Shape(format!(
                "train shape {}x{} vs test shape {}x{}",
                train.n_dims(),
                train.series_len(),
                test.n_dims(),
                test.series_len()
            )));
        }
        Ok(Self { train, test })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy(counts: &[usize]) -> Dataset {
        let mut ds = Dataset::empty(counts.len());
        for (class, &c) in counts.iter().enumerate() {
            for k in 0..c {
                ds.push(Mts::constant(2, 4, (class * 10 + k) as f64), class);
            }
        }
        ds
    }

    #[test]
    fn class_counts_and_distribution() {
        let ds = toy(&[3, 1]);
        assert_eq!(ds.class_counts(), vec![3, 1]);
        assert_eq!(ds.class_distribution(), vec![0.75, 0.25]);
    }

    #[test]
    fn from_parts_rejects_mismatched_lengths() {
        let err = Dataset::from_parts(vec![Mts::zeros(1, 2)], vec![0, 1], 2);
        assert!(err.is_err());
    }

    #[test]
    fn from_parts_rejects_bad_label() {
        let err = Dataset::from_parts(vec![Mts::zeros(1, 2)], vec![5], 2);
        assert!(matches!(err, Err(TsdaError::Label { label: 5, .. })));
    }

    #[test]
    fn from_parts_rejects_mixed_shapes() {
        let err = Dataset::from_parts(vec![Mts::zeros(1, 2), Mts::zeros(2, 2)], vec![0, 0], 1);
        assert!(err.is_err());
    }

    #[test]
    fn stratified_split_keeps_class_ratios() {
        let ds = toy(&[30, 60]);
        let mut rng = StdRng::seed_from_u64(0);
        let (a, b) = ds.stratified_split(2.0 / 3.0, &mut rng);
        assert_eq!(a.class_counts(), vec![20, 40]);
        assert_eq!(b.class_counts(), vec![10, 20]);
        assert_eq!(a.len() + b.len(), ds.len());
    }

    #[test]
    fn stratified_split_never_empties_a_class() {
        let ds = toy(&[2, 2]);
        let mut rng = StdRng::seed_from_u64(1);
        let (a, b) = ds.stratified_split(0.9, &mut rng);
        assert!(a.class_counts().iter().all(|&c| c >= 1));
        assert!(b.class_counts().iter().all(|&c| c >= 1));
    }

    #[test]
    fn downsample_keeps_fraction_per_class() {
        let ds = toy(&[10, 4]);
        let mut rng = StdRng::seed_from_u64(2);
        let down = ds.downsample(0.5, &mut rng);
        assert_eq!(down.class_counts(), vec![5, 2]);
    }

    #[test]
    fn downsample_keeps_at_least_one() {
        let ds = toy(&[1, 8]);
        let mut rng = StdRng::seed_from_u64(3);
        let down = ds.downsample(0.1, &mut rng);
        assert_eq!(down.class_counts()[0], 1);
    }

    #[test]
    fn mean_vector_skips_missing() {
        let mut ds = Dataset::empty(1);
        ds.push(Mts::from_dims(vec![vec![1.0, f64::NAN]]), 0);
        ds.push(Mts::from_dims(vec![vec![3.0, 8.0]]), 0);
        assert_eq!(ds.mean_vector(), vec![2.0, 8.0]);
    }

    #[test]
    fn missing_proportion_counts_nans() {
        let mut ds = Dataset::empty(1);
        ds.push(Mts::from_dims(vec![vec![1.0, f64::NAN, 3.0, f64::NAN]]), 0);
        assert_eq!(ds.missing_proportion(), 0.5);
    }

    #[test]
    fn train_test_rejects_class_mismatch() {
        let t = TrainTest::new(toy(&[1]), toy(&[1, 1]));
        assert!(t.is_err());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn push_rejects_wrong_shape() {
        let mut ds = toy(&[1]);
        ds.push(Mts::zeros(3, 3), 0);
    }
}

//! 1-nearest-neighbour DTW — the classic time series classification
//! reference baseline, kept here to sanity-check the two paper models.

use crate::encode::preprocess_dataset;
use crate::traits::Classifier;
use rand::rngs::StdRng;
use tsda_core::parallel::Pool;
use tsda_core::{Dataset, Label};
use tsda_signal::dtw::{dtw_distance, DtwOptions};

/// 1-NN classifier under (optionally banded) DTW distance.
pub struct KnnDtw {
    /// Sakoe-Chiba band fraction; `None` for unconstrained DTW.
    pub band_fraction: Option<f64>,
    train: Option<Dataset>,
}

impl KnnDtw {
    /// New 1-NN DTW with the given band.
    pub fn new(band_fraction: Option<f64>) -> Self {
        Self { band_fraction, train: None }
    }
}

/// The full `queries × references` DTW distance matrix (row-major,
/// one row per query), computed on the shared pool — one row per work
/// unit, so the matrix is bit-identical for any thread count.
pub fn dtw_distance_matrix(queries: &Dataset, references: &Dataset, opts: DtwOptions) -> Vec<f64> {
    let n_ref = references.len();
    let mut matrix = vec![0.0f64; queries.len() * n_ref];
    Pool::global().par_chunks_mut(&mut matrix, n_ref.max(1), |q, row| {
        let s = &queries.series()[q];
        for (cell, t) in row.iter_mut().zip(references.series()) {
            *cell = dtw_distance(s, t, opts);
        }
    });
    matrix
}

impl Default for KnnDtw {
    fn default() -> Self {
        Self::new(Some(0.1))
    }
}

impl Classifier for KnnDtw {
    fn name(&self) -> &'static str {
        "1NN-DTW"
    }

    fn fit(&mut self, train: &Dataset, _validation: Option<&Dataset>, _rng: &mut StdRng) {
        self.train = Some(preprocess_dataset(train));
    }

    fn predict(&self, test: &Dataset) -> Vec<Label> {
        let train = self.train.as_ref().expect("predict before fit");
        let opts = DtwOptions { band_fraction: self.band_fraction };
        let clean = preprocess_dataset(test);
        let n_train = train.len();
        if n_train == 0 {
            return vec![0; clean.len()];
        }
        let matrix = dtw_distance_matrix(&clean, train, opts);
        matrix
            .chunks(n_train)
            .map(|row| {
                row.iter()
                    .zip(train.labels())
                    .min_by(|a, b| a.0.total_cmp(b.0))
                    .map(|(_, &l)| l)
                    .unwrap_or(0)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsda_core::rng::{normal, seeded};
    use tsda_core::Mts;

    fn shifted_pattern_problem(n: usize, seed: u64) -> Dataset {
        let mut ds = Dataset::empty(2);
        let mut rng = seeded(seed);
        for c in 0..2 {
            for _ in 0..n {
                use rand::Rng;
                let shift: usize = rng.gen_range(0..6);
                let series: Vec<f64> = (0..32)
                    .map(|t| {
                        let x = (t + 32 - shift) % 32;
                        let bump = if c == 0 { (8..12).contains(&x) } else { (20..24).contains(&x) };
                        (if bump { 2.0 } else { 0.0 }) + normal(&mut rng, 0.0, 0.1)
                    })
                    .collect();
                ds.push(Mts::from_dims(vec![series]), c);
            }
        }
        ds
    }

    #[test]
    fn classifies_shift_invariant_patterns() {
        let train = shifted_pattern_problem(8, 1);
        let test = shifted_pattern_problem(4, 2);
        let mut knn = KnnDtw::new(Some(0.3));
        let acc = knn.fit_score(&train, None, &test, &mut seeded(3));
        assert!(acc > 0.8, "accuracy {acc}");
    }

    #[test]
    fn perfect_on_training_data() {
        let train = shifted_pattern_problem(5, 4);
        let mut knn = KnnDtw::default();
        let acc = knn.fit_score(&train, None, &train, &mut seeded(5));
        assert_eq!(acc, 1.0);
    }
}

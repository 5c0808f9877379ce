//! The DTW distance matrix between two datasets, the kernel behind the
//! `dtw_matrix` row of `perf_baseline`.

use tsda_core::parallel::Pool;
use tsda_core::Dataset;
use tsda_signal::dtw::{dtw_distance, DtwOptions};

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

//! The multivariate time series container.

use serde::{Deserialize, Serialize};

/// A multivariate time series: `M` dimensions, each a sequence of `T`
/// values.
///
/// Storage is dimension-major (`data[m * len + t]`), matching how the
/// UCR/UEA archive lays out `.ts` files and how every augmenter in this
/// workspace iterates (whole dimensions at a time). Missing observations
/// are encoded as `NaN`, again matching the archive convention.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Mts {
    n_dims: usize,
    len: usize,
    data: Vec<f64>,
}

impl Mts {
    /// A series of `n_dims × len` zeros.
    pub fn zeros(n_dims: usize, len: usize) -> Self {
        Self { n_dims, len, data: vec![0.0; n_dims * len] }
    }

    /// A series where every value is `v`.
    pub fn constant(n_dims: usize, len: usize, v: f64) -> Self {
        Self { n_dims, len, data: vec![v; n_dims * len] }
    }

    /// Build from per-dimension vectors.
    ///
    /// # Panics
    /// Panics if dimensions have unequal lengths or `dims` is empty.
    pub fn from_dims(dims: Vec<Vec<f64>>) -> Self {
        assert!(!dims.is_empty(), "Mts::from_dims with no dimensions");
        let len = dims[0].len();
        let n_dims = dims.len();
        let mut data = Vec::with_capacity(n_dims * len);
        for d in dims {
            assert_eq!(d.len(), len, "ragged dimensions in Mts::from_dims");
            data.extend_from_slice(&d);
        }
        Self { n_dims, len, data }
    }

    /// Build from a flat dimension-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != n_dims * len`.
    pub fn from_flat(n_dims: usize, len: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n_dims * len, "Mts::from_flat length mismatch");
        Self { n_dims, len, data }
    }

    /// A univariate series.
    pub fn univariate(values: Vec<f64>) -> Self {
        let len = values.len();
        Self { n_dims: 1, len, data: values }
    }

    /// Number of dimensions (variables) `M`.
    pub fn n_dims(&self) -> usize {
        self.n_dims
    }

    /// Number of time steps `T`.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the series has zero time steps.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Borrow dimension `m` as a slice of `T` values.
    pub fn dim(&self, m: usize) -> &[f64] {
        assert!(m < self.n_dims, "dimension {m} out of range");
        &self.data[m * self.len..(m + 1) * self.len]
    }

    /// Mutably borrow dimension `m`.
    pub fn dim_mut(&mut self, m: usize) -> &mut [f64] {
        assert!(m < self.n_dims, "dimension {m} out of range");
        &mut self.data[m * self.len..(m + 1) * self.len]
    }

    /// Value at dimension `m`, time `t`.
    #[inline]
    pub fn value(&self, m: usize, t: usize) -> f64 {
        debug_assert!(m < self.n_dims && t < self.len);
        self.data[m * self.len + t]
    }

    /// Set the value at dimension `m`, time `t`.
    #[inline]
    pub fn set(&mut self, m: usize, t: usize, v: f64) {
        debug_assert!(m < self.n_dims && t < self.len);
        self.data[m * self.len + t] = v;
    }

    /// The observation at time `t` across all dimensions.
    pub fn observation(&self, t: usize) -> Vec<f64> {
        (0..self.n_dims).map(|m| self.value(m, t)).collect()
    }

    /// Iterate over dimensions as slices.
    pub fn dims(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.len.max(1)).take(self.n_dims)
    }

    /// The flat dimension-major buffer.
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat buffer.
    pub fn as_flat_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume into the flat buffer.
    pub fn into_flat(self) -> Vec<f64> {
        self.data
    }

    /// Count of missing (`NaN`) values.
    pub fn missing_count(&self) -> usize {
        self.data.iter().filter(|v| v.is_nan()).count()
    }

    /// True when any value is missing.
    pub fn has_missing(&self) -> bool {
        self.data.iter().any(|v| v.is_nan())
    }

    /// Mean of dimension `m`, ignoring missing values; 0 if all missing.
    pub fn dim_mean(&self, m: usize) -> f64 {
        crate::math::observed_mean_std(self.dim(m)).0
    }

    /// Population standard deviation of dimension `m`, ignoring missing
    /// values.
    pub fn dim_std(&self, m: usize) -> f64 {
        crate::math::observed_mean_std(self.dim(m)).1
    }

    /// Euclidean distance to another series of the same shape, treating
    /// the series as a point in `M·T` space and skipping positions where
    /// either side is missing.
    ///
    /// # Panics
    /// Panics on a shape mismatch.
    pub fn euclidean_distance(&self, other: &Mts) -> f64 {
        assert_eq!(self.shape(), other.shape(), "distance shape mismatch");
        crate::math::sum_stable(
            self.data
                .iter()
                .zip(&other.data)
                .filter(|(a, b)| !a.is_nan() && !b.is_nan())
                .map(|(a, b)| (a - b) * (a - b)),
        )
        .sqrt()
    }

    /// `(n_dims, len)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.n_dims, self.len)
    }
}

impl std::fmt::Debug for Mts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Mts[{}x{}]", self.n_dims, self.len)?;
        if self.len <= 8 && self.n_dims <= 4 {
            write!(f, " {:?}", self.dims().collect::<Vec<_>>())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_dims_round_trips() {
        let s = Mts::from_dims(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.dim(0), &[1.0, 2.0]);
        assert_eq!(s.dim(1), &[3.0, 4.0]);
        assert_eq!(s.value(1, 0), 3.0);
    }

    #[test]
    fn observation_gathers_across_dims() {
        let s = Mts::from_dims(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(s.observation(1), vec![2.0, 4.0]);
    }

    #[test]
    fn missing_values_are_counted() {
        let s = Mts::from_dims(vec![vec![1.0, f64::NAN], vec![f64::NAN, 4.0]]);
        assert_eq!(s.missing_count(), 2);
        assert!(s.has_missing());
    }

    #[test]
    fn dim_stats_skip_missing() {
        let s = Mts::from_dims(vec![vec![1.0, f64::NAN, 3.0]]);
        assert_eq!(s.dim_mean(0), 2.0);
        assert_eq!(s.dim_std(0), 1.0);
    }

    #[test]
    fn all_missing_dim_stats_are_zero() {
        let s = Mts::from_dims(vec![vec![f64::NAN, f64::NAN]]);
        assert_eq!(s.dim_mean(0), 0.0);
        assert_eq!(s.dim_std(0), 0.0);
    }

    #[test]
    fn distance_skips_missing_pairs() {
        let a = Mts::from_dims(vec![vec![0.0, f64::NAN]]);
        let b = Mts::from_dims(vec![vec![3.0, 100.0]]);
        assert_eq!(a.euclidean_distance(&b), 3.0);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let a = Mts::from_dims(vec![vec![1.0, 2.0], vec![-1.0, 0.5]]);
        assert_eq!(a.euclidean_distance(&a), 0.0);
    }

    #[test]
    #[should_panic(expected = "ragged dimensions")]
    fn ragged_dims_rejected() {
        let _ = Mts::from_dims(vec![vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn set_and_value_round_trip() {
        let mut s = Mts::zeros(2, 3);
        s.set(1, 2, 9.0);
        assert_eq!(s.value(1, 2), 9.0);
        assert_eq!(s.value(0, 2), 0.0);
    }
}

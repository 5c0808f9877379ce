//! Dataset → tensor/feature encoding shared by the classifiers.

use tsda_core::preprocess::{impute_linear_dim, znormalize_dim};
use tsda_core::{Dataset, Mts, TsdaError};
use tsda_neuro::tensor::Tensor;

/// The archive preprocessing both baselines assume: every dimension of
/// `s` linearly imputed, then z-normalised, in `buf`'s allocation.
pub(crate) fn preprocess_into(s: &Mts, mut buf: Vec<f64>) -> Mts {
    buf.clear();
    buf.extend_from_slice(s.as_flat());
    let mut clean = Mts::from_flat(s.n_dims(), s.len(), buf);
    for m in 0..s.n_dims() {
        impute_linear_dim(clean.dim_mut(m));
        znormalize_dim(clean.dim_mut(m));
    }
    clean
}

/// Convert a dataset to a `[n, channels, time]` `f32` tensor after
/// imputation and per-series z-normalisation.
pub fn dataset_to_tensor3(ds: &Dataset) -> Tensor {
    series_to_tensor3(ds.series(), (ds.n_dims(), ds.series_len()))
}

/// [`dataset_to_tensor3`] over series of one `(channels, time)` shape.
pub(crate) fn series_to_tensor3(series: &[Mts], (c, t): (usize, usize)) -> Tensor {
    let mut data = Vec::with_capacity(series.len() * c * t);
    let mut buf = Vec::new();
    for s in series {
        let clean = preprocess_into(s, buf);
        data.extend(clean.as_flat().iter().map(|&v| v as f32));
        buf = clean.into_flat();
    }
    Tensor::from_flat(&[series.len(), c, t], data)
}

/// Preprocess one dataset into per-series cleaned `f64` series (imputed,
/// z-normalised) for the non-neural classifiers.
pub fn preprocess_dataset(ds: &Dataset) -> Dataset {
    let mut out = Dataset::empty(ds.n_classes());
    for (s, l) in ds.iter() {
        out.push(preprocess_into(s, Vec::new()), l);
    }
    out
}

/// Refuse a batch for a model fitted on `(n_dims, series_len)` series:
/// unfitted (`None`), or holding a series of another shape.
pub(crate) fn check_shapes(series: &[Mts], fitted: Option<(usize, usize)>) -> Result<(), TsdaError> {
    let (d, l) = fitted.ok_or_else(|| TsdaError::InvalidParameter("predict before fit".into()))?;
    match series.iter().find(|s| s.shape() != (d, l)) {
        None => Ok(()),
        Some(s) => Err(TsdaError::Shape(format!(
            "series shape {}x{} does not match the model's {d}x{l}",
            s.n_dims(),
            s.len()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsda_core::Mts;

    #[test]
    fn tensor_shape_and_normalisation() {
        let mut ds = Dataset::empty(1);
        ds.push(Mts::from_dims(vec![vec![1.0, 2.0, 3.0, 4.0]]), 0);
        let t = dataset_to_tensor3(&ds);
        assert_eq!(t.shape(), &[1, 1, 4]);
        let mean: f32 = t.data().iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-6);
    }

    #[test]
    fn missing_values_are_gone_after_preprocess() {
        let mut ds = Dataset::empty(1);
        ds.push(Mts::from_dims(vec![vec![1.0, f64::NAN, 3.0]]), 0);
        let clean = preprocess_dataset(&ds);
        assert!(!clean.series()[0].has_missing());
    }
}

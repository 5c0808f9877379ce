//! Preprocessing: z-normalisation and missing-value imputation.
//!
//! The archive protocol z-normalises per dimension and imputes the
//! sparse missing stretches (CharacterTrajectories, SpokenArabicDigits)
//! by linear interpolation before feeding any classifier.

use crate::math::observed_mean_std;
use crate::series::Mts;

/// Z-normalise each dimension of a series to zero mean / unit variance
/// (missing values are ignored in the statistics and left missing).
/// Dimensions with zero variance are centred only.
pub fn znormalize_series(s: &Mts) -> Mts {
    let mut out = s.clone();
    for m in 0..s.n_dims() {
        znormalize_dim(out.dim_mut(m));
    }
    out
}

/// [`znormalize_series`] for one dimension, in place and without
/// allocating: the statistics are those of [`Mts::dim_mean`] and
/// [`Mts::dim_std`] ([`observed_mean_std`]).
pub fn znormalize_dim(dim: &mut [f64]) {
    let (mean, std) = observed_mean_std(dim);
    for v in dim.iter_mut() {
        if v.is_nan() {
            continue;
        }
        *v = if std > 0.0 { (*v - mean) / std } else { *v - mean };
    }
}

/// Replace missing values by linear interpolation between the nearest
/// observed neighbours in the same dimension; leading/trailing gaps take
/// the nearest observed value; an all-missing dimension becomes zeros.
pub fn impute_linear(s: &Mts) -> Mts {
    let mut out = s.clone();
    for m in 0..s.n_dims() {
        impute_linear_dim(out.dim_mut(m));
    }
    out
}

/// [`impute_linear`] for one dimension, in place and without
/// allocating. Each gap is filled from the observed values on either
/// side of it, which the fill never overwrites, so the result is that
/// of interpolating every gap from the original values.
pub fn impute_linear_dim(dim: &mut [f64]) {
    let t = dim.len();
    let mut left: Option<usize> = None;
    let mut i = 0;
    while i < t {
        if !dim[i].is_nan() {
            left = Some(i);
            i += 1;
            continue;
        }
        // `dim[i..right]` is one gap.
        let right = (i..t).find(|&j| !dim[j].is_nan());
        let end = right.unwrap_or(t);
        for g in i..end {
            dim[g] = match (left, right) {
                (Some(l), Some(r)) => {
                    let w = (g - l) as f64 / (r - l) as f64;
                    dim[l] * (1.0 - w) + dim[r] * w
                }
                (Some(l), None) => dim[l],
                (None, Some(r)) => dim[r],
                // An all-missing dimension becomes zeros.
                (None, None) => 0.0,
            };
        }
        i = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn znormalize_gives_zero_mean_unit_std() {
        let s = Mts::from_dims(vec![vec![1.0, 2.0, 3.0, 4.0]]);
        let z = znormalize_series(&s);
        assert!(z.dim_mean(0).abs() < 1e-12);
        assert!((z.dim_std(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn znormalize_constant_dim_centres_only() {
        let s = Mts::from_dims(vec![vec![5.0, 5.0, 5.0]]);
        let z = znormalize_series(&s);
        assert_eq!(z.dim(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn znormalize_preserves_missing() {
        let s = Mts::from_dims(vec![vec![1.0, f64::NAN, 3.0]]);
        let z = znormalize_series(&s);
        assert!(z.value(0, 1).is_nan());
    }

    #[test]
    fn impute_interpolates_interior_gap() {
        let s = Mts::from_dims(vec![vec![0.0, f64::NAN, f64::NAN, 3.0]]);
        let i = impute_linear(&s);
        assert_eq!(i.dim(0), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn impute_extends_edges() {
        let s = Mts::from_dims(vec![vec![f64::NAN, 2.0, f64::NAN]]);
        let i = impute_linear(&s);
        assert_eq!(i.dim(0), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn impute_all_missing_becomes_zero() {
        let s = Mts::from_dims(vec![vec![f64::NAN, f64::NAN]]);
        let i = impute_linear(&s);
        assert_eq!(i.dim(0), &[0.0, 0.0]);
    }
}

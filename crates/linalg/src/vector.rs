//! Small free-standing vector helpers shared across the workspace.

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean (L2) norm.
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Euclidean distance between two equal-length slices.
pub fn euclidean_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distance length mismatch");
    tsda_core::math::sum_stable(a.iter().zip(b).map(|(x, y)| (x - y) * (x - y))).sqrt()
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        tsda_core::math::sum_stable(a.iter().copied()) / a.len() as f64
    }
}

/// Population variance (divides by `n`); 0 for an empty slice.
pub fn variance(a: &[f64]) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    let m = mean(a);
    tsda_core::math::sum_stable(a.iter().map(|v| (v - m) * (v - m))) / a.len() as f64
}

/// `y ← y + alpha * x`.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Index of the maximum element (first on ties); `None` for empty input.
pub fn argmax(a: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in a.iter().enumerate() {
        match best {
            Some((_, bv)) if v <= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm_basic() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = [1.0, 2.0, 3.0];
        let b = [-1.0, 0.5, 2.0];
        assert!((euclidean_distance(&a, &b) - euclidean_distance(&b, &a)).abs() < 1e-15);
    }

    #[test]
    fn mean_variance_of_constant_series() {
        let a = [2.0; 10];
        assert_eq!(mean(&a), 2.0);
        assert_eq!(variance(&a), 0.0);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![7.0, -1.0]);
    }

    #[test]
    fn argmax_argmin_prefer_first_tie() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), Some(1));
        assert_eq!(argmax(&[]), None);
    }
}

//! Cholesky factorisation of symmetric positive-definite matrices.
//!
//! Used by the structure-preserving oversamplers (OHIT, INOS) to draw
//! correlated Gaussian samples `x = μ + L z`.

use crate::matrix::Matrix;

/// Failure modes of the Cholesky factorisation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CholeskyError {
    /// The input matrix is not square.
    NotSquare,
    /// A non-positive pivot was encountered at the given index: the matrix
    /// is not positive definite (within numerical tolerance).
    NotPositiveDefinite { pivot: usize },
}

impl std::fmt::Display for CholeskyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotSquare => write!(f, "cholesky: matrix is not square"),
            Self::NotPositiveDefinite { pivot } => {
                write!(f, "cholesky: non-positive pivot at index {pivot}")
            }
        }
    }
}

impl std::error::Error for CholeskyError {}

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
///
/// The upper triangle of the returned matrix is zero.
pub fn cholesky(a: &Matrix) -> Result<Matrix, CholeskyError> {
    if !a.is_square() {
        return Err(CholeskyError::NotSquare);
    }
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for j in 0..n {
        let mut diag = a[(j, j)];
        for k in 0..j {
            diag -= l[(j, k)] * l[(j, k)];
        }
        if diag <= 0.0 || !diag.is_finite() {
            return Err(CholeskyError::NotPositiveDefinite { pivot: j });
        }
        let ljj = diag.sqrt();
        l[(j, j)] = ljj;
        for i in (j + 1)..n {
            let mut v = a[(i, j)];
            for k in 0..j {
                v -= l[(i, k)] * l[(j, k)];
            }
            l[(i, j)] = v / ljj;
        }
    }
    Ok(l)
}

/// Cholesky with diagonal jitter: retries with geometrically increasing
/// ridge `εI` until the factorisation succeeds.
///
/// Structure-preserving oversampling routinely produces covariance
/// estimates that are only positive *semi*-definite (more dimensions than
/// cluster members); the paper's OHIT reference handles this with
/// regularisation, which this helper mirrors. Returns the factor and the
/// jitter that was finally applied.
pub fn cholesky_jittered(a: &Matrix, max_tries: usize) -> Result<(Matrix, f64), CholeskyError> {
    let scale = (a.trace() / a.rows().max(1) as f64).abs().max(1e-12);
    let mut jitter = 0.0;
    let mut attempt = 0;
    loop {
        let mut m = a.clone();
        if jitter > 0.0 {
            m.add_diagonal(jitter);
        }
        match cholesky(&m) {
            Ok(l) => return Ok((l, jitter)),
            Err(CholeskyError::NotSquare) => return Err(CholeskyError::NotSquare),
            Err(_) if attempt < max_tries => {
                jitter = if jitter == 0.0 { scale * 1e-10 } else { jitter * 10.0 };
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = Bᵀ B + I is SPD for any B.
        let b = Matrix::from_rows(&[
            vec![1.0, 2.0, 0.5],
            vec![-1.0, 0.3, 2.0],
            vec![0.7, -0.2, 1.1],
        ]);
        let mut a = b.gram();
        a.add_diagonal(1.0);
        a
    }

    #[test]
    fn factor_reconstructs_input() {
        let a = spd3();
        let l = cholesky(&a).unwrap();
        let back = l.matmul(&l.transpose());
        assert!(back.approx_eq(&a, 1e-10));
    }

    #[test]
    fn factor_is_lower_triangular() {
        let l = cholesky(&spd3()).unwrap();
        for i in 0..3 {
            for j in (i + 1)..3 {
                assert_eq!(l[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn rejects_indefinite_matrix() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            cholesky(&a),
            Err(CholeskyError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        assert_eq!(cholesky(&Matrix::zeros(2, 3)), Err(CholeskyError::NotSquare));
    }

    #[test]
    fn jittered_recovers_from_semidefinite() {
        // Rank-1 PSD matrix: plain Cholesky fails, jittered succeeds.
        let v = [1.0, 2.0, 3.0];
        let a = Matrix::from_fn(3, 3, |i, j| v[i] * v[j]);
        assert!(cholesky(&a).is_err());
        let (l, jitter) = cholesky_jittered(&a, 12).unwrap();
        assert!(jitter > 0.0);
        let back = l.matmul(&l.transpose());
        assert!(back.approx_eq(&a, 1e-3 * a.max_abs()));
    }
}

//! Dynamic time warping for multivariate series.
//!
//! Two augmenters in this workspace, guided warping (warps a sample
//! along its DTW alignment with a same-class teacher) and DBA averaging,
//! need the alignment *path*, not just the distance, so the full cost
//! matrix is materialised; the DTW distance matrix of `tsda_classify`
//! uses the distance alone. An optional Sakoe-Chiba band keeps long
//! series affordable.

use tsda_core::Mts;
use tsda_linalg::simd;

/// Options for a DTW computation.
#[derive(Debug, Clone, Copy, Default)]
pub struct DtwOptions {
    /// Sakoe-Chiba band half-width as a fraction of the longer series
    /// length; `None` means an unconstrained alignment.
    pub band_fraction: Option<f64>,
}

/// Squared Euclidean point costs for row `i` against `b`'s positions
/// `lo..hi`, written into `out[lo..hi]`.
///
/// Dimensions accumulate in ascending order with unfused `acc += d·d`
/// (`simd::sq_diff_acc_f64`), exactly the order the former per-cell
/// `point_cost` used — every cell is bit-identical to it, at any
/// dispatch level.
#[inline]
fn point_cost_row(
    lvl: simd::SimdLevel,
    a: &Mts,
    b: &Mts,
    i: usize,
    lo: usize,
    hi: usize,
    out: &mut [f64],
) {
    let row = &mut out[lo..hi];
    row.fill(0.0);
    for m in 0..a.n_dims() {
        simd::sq_diff_acc_f64_with(lvl, row, a.value(m, i), &b.dim(m)[lo..hi]);
    }
}

fn band_width(len_a: usize, len_b: usize, opts: DtwOptions) -> usize {
    match opts.band_fraction {
        Some(f) => {
            let w = (f * len_a.max(len_b) as f64).ceil() as usize;
            // The band must at least cover the diagonal offset or no path
            // exists.
            w.max(len_a.abs_diff(len_b)).max(1)
        }
        None => len_a.max(len_b),
    }
}

/// DTW distance (square root of accumulated squared point costs).
///
/// # Panics
/// Panics if the series differ in dimension count or either is empty.
pub fn dtw_distance(a: &Mts, b: &Mts, opts: DtwOptions) -> f64 {
    accumulate(a, b, opts).0
}

/// DTW distance together with the optimal alignment path as `(i, j)`
/// index pairs from `(0,0)` to `(n−1,m−1)`.
pub fn dtw_path(a: &Mts, b: &Mts, opts: DtwOptions) -> (f64, Vec<(usize, usize)>) {
    let (dist, cost) = accumulate_full(a, b, opts);
    let n = a.len();
    let m = b.len();
    let mut path = vec![(n - 1, m - 1)];
    let (mut i, mut j) = (n - 1, m - 1);
    while i > 0 || j > 0 {
        let options = [
            (i.wrapping_sub(1), j.wrapping_sub(1)),
            (i.wrapping_sub(1), j),
            (i, j.wrapping_sub(1)),
        ];
        let (bi, bj) = options
            .iter()
            .copied()
            .filter(|&(x, y)| x < n && y < m && (x, y) != (i, j))
            .min_by(|&(x1, y1), &(x2, y2)| cost[x1 * m + y1].total_cmp(&cost[x2 * m + y2]))
            // At least one predecessor exists whenever i > 0 || j > 0;
            // the origin fallback keeps the walk total (and terminates it).
            .unwrap_or((0, 0));
        i = bi;
        j = bj;
        path.push((i, j));
    }
    path.reverse();
    (dist, path)
}

/// Banded accumulation keeping only two rows (distance only).
fn accumulate(a: &Mts, b: &Mts, opts: DtwOptions) -> (f64, ()) {
    assert_eq!(a.n_dims(), b.n_dims(), "dtw dimension mismatch");
    assert!(!a.is_empty() && !b.is_empty(), "dtw of empty series");
    let n = a.len();
    let m = b.len();
    let w = band_width(n, m, opts);
    let lvl = simd::level();
    let mut prev = vec![f64::INFINITY; m];
    let mut curr = vec![f64::INFINITY; m];
    // Per-row scratch: the vectorised point costs and the up/diag min
    // prepass (`prev` carries +∞ outside the band, which folds the old
    // per-cell `i > 0` / band checks into plain reads).
    let mut costs = vec![0.0; m];
    let mut updiag = vec![0.0; m];
    // Written extent of `prev`; cells past it were last touched two rows
    // ago and must be re-seeded to +∞ before this row reads them. The
    // band centre is non-decreasing in `i`, so only the right margin
    // (and the single `lo − 1` guard cell below) ever needs re-seeding —
    // fills stay O(band), not O(m), per row.
    let mut prev_hi = 0usize;
    for i in 0..n {
        let centre = i * m / n;
        let lo = centre.saturating_sub(w);
        let hi = (centre + w + 1).min(m);
        if i > 0 && hi > prev_hi {
            prev[prev_hi..hi].fill(f64::INFINITY);
        }
        point_cost_row(lvl, a, b, i, lo, hi, &mut costs);
        // updiag[j] = min(prev[j], prev[j−1]): the two predecessors with
        // no in-row dependency, minimised in one vector pass; only the
        // `curr[j−1]` left-neighbour stays sequential below.
        let start = lo.max(1);
        if start < hi {
            simd::min2_f64_with(
                lvl,
                &mut updiag[start..hi],
                &prev[start..hi],
                &prev[start - 1..hi - 1],
            );
        }
        // Peel the j = lo boundary so the interior is the bare
        // recurrence `cost + min(updiag, left)` — identical arithmetic
        // to the former per-cell branches.
        let mut j = lo;
        if lo == 0 {
            curr[0] = costs[0] + if i == 0 { 0.0 } else { prev[0] };
            j = 1;
        } else {
            curr[lo - 1] = f64::INFINITY;
        }
        while j < hi {
            curr[j] = costs[j] + updiag[j].min(curr[j - 1]);
            j += 1;
        }
        prev_hi = hi;
        std::mem::swap(&mut prev, &mut curr);
    }
    (prev[m - 1].sqrt(), ())
}

/// Full cost-matrix accumulation (needed for path extraction).
fn accumulate_full(a: &Mts, b: &Mts, opts: DtwOptions) -> (f64, Vec<f64>) {
    assert_eq!(a.n_dims(), b.n_dims(), "dtw dimension mismatch");
    assert!(!a.is_empty() && !b.is_empty(), "dtw of empty series");
    let n = a.len();
    let m = b.len();
    let w = band_width(n, m, opts);
    let lvl = simd::level();
    let mut cost = vec![f64::INFINITY; n * m];
    let mut costs = vec![0.0; m];
    let mut updiag = vec![0.0; m];
    for i in 0..n {
        let centre = i * m / n;
        let lo = centre.saturating_sub(w);
        let hi = (centre + w + 1).min(m);
        point_cost_row(lvl, a, b, i, lo, hi, &mut costs);
        // Same prepass as `accumulate`: the whole matrix is +∞-seeded,
        // so out-of-band predecessors read as +∞ like the old guards.
        let start = lo.max(1);
        if i > 0 && start < hi {
            let prev_row = &cost[(i - 1) * m..i * m];
            simd::min2_f64_with(
                lvl,
                &mut updiag[start..hi],
                &prev_row[start..hi],
                &prev_row[start - 1..hi - 1],
            );
        }
        // Boundary peel as in `accumulate`; each cell is written exactly
        // once and the matrix is +∞-seeded, so the `j = lo` left
        // neighbour reads +∞ without any per-row re-seeding.
        let mut j = lo;
        if lo == 0 {
            cost[i * m] = costs[0] + if i == 0 { 0.0 } else { cost[(i - 1) * m] };
            j = 1;
        }
        if i == 0 {
            while j < hi {
                cost[j] = costs[j] + cost[j - 1];
                j += 1;
            }
        } else {
            while j < hi {
                cost[i * m + j] = costs[j] + updiag[j].min(cost[i * m + j - 1]);
                j += 1;
            }
        }
    }
    (cost[n * m - 1].sqrt(), cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uni(v: &[f64]) -> Mts {
        Mts::univariate(v.to_vec())
    }

    #[test]
    fn identical_series_have_zero_distance() {
        let a = uni(&[1.0, 2.0, 3.0, 2.0]);
        assert_eq!(dtw_distance(&a, &a, DtwOptions::default()), 0.0);
    }

    #[test]
    fn shifted_series_beat_euclidean() {
        // A pattern and its one-step shift: DTW should nearly vanish,
        // Euclidean does not.
        let a = uni(&[0.0, 0.0, 1.0, 2.0, 1.0, 0.0, 0.0, 0.0]);
        let b = uni(&[0.0, 0.0, 0.0, 1.0, 2.0, 1.0, 0.0, 0.0]);
        let dtw = dtw_distance(&a, &b, DtwOptions::default());
        let euc = a.euclidean_distance(&b);
        assert!(dtw < 0.25 * euc, "dtw {dtw} vs euclid {euc}");
    }

    #[test]
    fn distance_is_symmetric() {
        let a = uni(&[0.0, 1.0, 2.0, 1.5]);
        let b = uni(&[0.5, 0.5, 2.0, 2.0, 1.0]);
        let d1 = dtw_distance(&a, &b, DtwOptions::default());
        let d2 = dtw_distance(&b, &a, DtwOptions::default());
        assert!((d1 - d2).abs() < 1e-12);
    }

    #[test]
    fn path_endpoints_and_monotonicity() {
        let a = uni(&[0.0, 1.0, 2.0, 3.0]);
        let b = uni(&[0.0, 2.0, 3.0]);
        let (_, path) = dtw_path(&a, &b, DtwOptions::default());
        assert_eq!(*path.first().unwrap(), (0, 0));
        assert_eq!(*path.last().unwrap(), (3, 2));
        for w in path.windows(2) {
            let (i0, j0) = w[0];
            let (i1, j1) = w[1];
            assert!(i1 >= i0 && j1 >= j0 && (i1 - i0) + (j1 - j0) >= 1 && i1 - i0 <= 1 && j1 - j0 <= 1);
        }
    }

    #[test]
    fn path_distance_matches_distance_only() {
        let a = uni(&[0.3, 1.7, 0.2, -1.0, 0.5]);
        let b = uni(&[0.0, 1.0, 1.5, 0.0, -0.8, 0.4]);
        let d1 = dtw_distance(&a, &b, DtwOptions::default());
        let (d2, _) = dtw_path(&a, &b, DtwOptions::default());
        assert!((d1 - d2).abs() < 1e-12);
    }

    #[test]
    fn banded_equals_full_when_band_is_wide() {
        let a = uni(&[0.0, 1.0, 0.0, -1.0, 0.0, 1.0]);
        let b = uni(&[0.0, 0.5, 1.0, 0.0, -1.0, 0.5]);
        let full = dtw_distance(&a, &b, DtwOptions::default());
        let banded = dtw_distance(&a, &b, DtwOptions { band_fraction: Some(1.0) });
        assert!((full - banded).abs() < 1e-12);
    }

    #[test]
    fn narrow_band_never_beats_full() {
        let a = uni(&[0.0, 0.0, 1.0, 2.0, 1.0, 0.0, 0.0, 0.0]);
        let b = uni(&[1.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let full = dtw_distance(&a, &b, DtwOptions::default());
        let banded = dtw_distance(&a, &b, DtwOptions { band_fraction: Some(0.1) });
        assert!(banded >= full - 1e-12, "banded {banded} < full {full}");
    }

    #[test]
    fn multivariate_uses_all_dims() {
        let a = Mts::from_dims(vec![vec![0.0, 1.0], vec![0.0, 0.0]]);
        let b = Mts::from_dims(vec![vec![0.0, 1.0], vec![3.0, 3.0]]);
        // First dims identical, second differ by 3 everywhere.
        let d = dtw_distance(&a, &b, DtwOptions::default());
        assert!(d >= 3.0);
    }

    #[test]
    fn different_lengths_are_aligned() {
        let a = uni(&[1.0; 10]);
        let b = uni(&[1.0; 4]);
        assert_eq!(dtw_distance(&a, &b, DtwOptions::default()), 0.0);
    }
}

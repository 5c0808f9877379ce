//! DTW barycenter averaging (DBA, Petitjean et al. 2011 — the paper's
//! reference \[78\]) and weighted-DBA augmentation (Forestier et al.):
//! a synthetic series is the DTW-barycentre of several class members
//! with random weights, producing class-faithful "averages" that respect
//! temporal alignment instead of naive pointwise mixing.

use crate::Augmenter;
use rand::rngs::StdRng;
use rand::Rng;
use tsda_core::preprocess::impute_linear;
use tsda_core::{Dataset, Label, Mts, TsdaError};
use tsda_signal::dtw::{dtw_path, DtwOptions};

/// One DBA refinement step: align every member to the current barycentre
/// and replace each barycentre point by the weighted mean of all values
/// aligned to it.
fn dba_step(
    barycentre: &Mts,
    members: &[Mts],
    weights: &[f64],
    opts: DtwOptions,
) -> Mts {
    let dims = barycentre.n_dims();
    let len = barycentre.len();
    let mut sums = vec![vec![0.0; len]; dims];
    let mut wsum = vec![0.0; len];
    for (member, &w) in members.iter().zip(weights) {
        let (_, path) = dtw_path(barycentre, member, opts);
        for &(bi, mi) in &path {
            wsum[bi] += w;
            for (m, sum_row) in sums.iter_mut().enumerate() {
                sum_row[bi] += w * member.value(m, mi);
            }
        }
    }
    let dims_out: Vec<Vec<f64>> = sums
        .into_iter()
        .map(|row| {
            row.iter()
                .zip(&wsum)
                .map(|(&s, &w)| if w > 0.0 { s / w } else { 0.0 })
                .collect()
        })
        .collect();
    Mts::from_dims(dims_out)
}

/// Compute the DBA barycentre of `members` with the given weights,
/// starting from the highest-weighted member.
pub fn dba_barycentre(
    members: &[Mts],
    weights: &[f64],
    iterations: usize,
    opts: DtwOptions,
) -> Mts {
    assert!(!members.is_empty(), "DBA of an empty set");
    assert_eq!(members.len(), weights.len(), "DBA weight count mismatch");
    let seed_idx = weights
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut barycentre = members[seed_idx].clone();
    for _ in 0..iterations {
        barycentre = dba_step(&barycentre, members, weights, opts);
    }
    barycentre
}

/// Weighted-DBA augmentation: each synthetic series is the barycentre of
/// a random subset of class members under exponential random weights
/// (one member dominates, so samples stay near real exemplars while
/// blending in aligned neighbours).
#[derive(Debug, Clone, Copy)]
pub struct WeightedDba {
    /// Members blended per sample (capped by the class size).
    pub subset: usize,
    /// DBA refinement iterations.
    pub iterations: usize,
    /// Sakoe-Chiba band for the alignments.
    pub band_fraction: Option<f64>,
}

impl Default for WeightedDba {
    fn default() -> Self {
        Self { subset: 4, iterations: 3, band_fraction: Some(0.2) }
    }
}

impl Augmenter for WeightedDba {
    fn name(&self) -> &'static str {
        "wdba"
    }

    fn synthesize(
        &self,
        ds: &Dataset,
        class: Label,
        count: usize,
        rng: &mut StdRng,
    ) -> Result<Vec<Mts>, TsdaError> {
        let members: Vec<Mts> = ds
            .indices_of_class(class)
            .into_iter()
            .map(|i| impute_linear(&ds.series()[i]))
            .collect();
        if members.len() < 2 {
            return Err(TsdaError::InvalidParameter(format!(
                "weighted DBA needs ≥2 members in class {class}"
            )));
        }
        let opts = DtwOptions { band_fraction: self.band_fraction };
        let k = self.subset.clamp(2, members.len());
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            // Random subset (partial Fisher-Yates).
            let mut idx: Vec<usize> = (0..members.len()).collect();
            for i in 0..k {
                let j = rng.gen_range(i..idx.len());
                idx.swap(i, j);
            }
            idx.truncate(k);
            let subset: Vec<Mts> = idx.iter().map(|&i| members[i].clone()).collect();
            // Exponential weights, heaviest first (Forestier's "average
            // selected with distance" simplified): w₀ ≈ ½, rest split.
            let mut weights: Vec<f64> = (0..k)
                .map(|i| 0.5f64.powi(i as i32) * (0.5 + rng.gen::<f64>()))
                .collect();
            let total: f64 = tsda_core::math::sum_stable(weights.iter().copied());
            for w in &mut weights {
                *w /= total;
            }
            out.push(dba_barycentre(&subset, &weights, self.iterations, opts));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsda_core::rng::{normal, seeded};

    fn shifted_class() -> Dataset {
        // Same bump pattern at slightly different time shifts.
        let mut ds = Dataset::empty(1);
        let mut rng = seeded(1);
        for shift in [0usize, 2, 4, 6] {
            ds.push(
                Mts::from_dims(vec![(0..40)
                    .map(|t| {
                        let x = (t + 40 - shift) % 40;
                        let bump = if (10..18).contains(&x) { 3.0 } else { 0.0 };
                        bump + normal(&mut rng, 0.0, 0.1)
                    })
                    .collect()]),
                0,
            );
        }
        ds
    }

    #[test]
    fn barycentre_of_identical_series_is_that_series() {
        let s = Mts::from_dims(vec![(0..20).map(|t| (t as f64 * 0.3).sin()).collect()]);
        let members = vec![s.clone(), s.clone(), s.clone()];
        let b = dba_barycentre(&members, &[1.0, 1.0, 1.0], 3, DtwOptions::default());
        for t in 0..20 {
            assert!((b.value(0, t) - s.value(0, t)).abs() < 1e-9);
        }
    }

    #[test]
    fn barycentre_keeps_bump_amplitude_under_shifts() {
        // Pointwise averaging of shifted bumps flattens them; DBA must
        // keep the bump near its full height.
        let ds = shifted_class();
        let members: Vec<Mts> = ds.series().to_vec();
        let w = vec![0.25; 4];
        let b = dba_barycentre(&members, &w, 4, DtwOptions::default());
        let peak = b.dim(0).iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // Pointwise mean peak would be ≈ 3·(overlap fraction) < 2.3; DBA ≈ 3.
        assert!(peak > 2.5, "DBA flattened the bump: peak {peak}");
    }

    #[test]
    fn wdba_generates_class_faithful_series() {
        let ds = shifted_class();
        let out = WeightedDba::default().synthesize(&ds, 0, 5, &mut seeded(2)).unwrap();
        for s in &out {
            assert_eq!(s.shape(), (1, 40));
            let peak = s.dim(0).iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!(peak > 2.0, "sample lost the class bump: {peak}");
            assert!(s.dim(0).iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn wdba_rejects_singleton_class() {
        let mut ds = Dataset::empty(1);
        ds.push(Mts::constant(1, 8, 1.0), 0);
        assert!(WeightedDba::default().synthesize(&ds, 0, 1, &mut seeded(3)).is_err());
    }

    #[test]
    fn wdba_is_deterministic_given_seed() {
        let ds = shifted_class();
        let a = WeightedDba::default().synthesize(&ds, 0, 2, &mut seeded(4)).unwrap();
        let b = WeightedDba::default().synthesize(&ds, 0, 2, &mut seeded(4)).unwrap();
        assert_eq!(a[0], b[0]);
    }
}

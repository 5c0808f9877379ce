//! Order statistics used by every metric the benchmark reports.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `q`% of the sample at or below it (rank
/// `⌈q/100 · n⌉`, 1-based). Returns NaN for an empty sample. No
/// interpolation, so every reported percentile is a value that was
/// actually observed.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let n = sorted.len();
    let rank = ((q / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Sort a sample ascending; NaN sorts last (it never occurs in a
/// measured time, and a failed request is `+inf`, which sorts last too).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// Nearest-rank median (the 50th percentile) of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// Lower decile (nearest-rank 10th percentile) over groups of each
/// group's nearest-rank `q`-th percentile (empty groups skipped).
///
/// On a shared host, preemption arrives in stretches of several seconds
/// and only ever adds latency; a run can spend anywhere from none to
/// nearly all of its window in such stretches, so even the median over
/// one-second slices swings with the host. The lower decile needs only
/// a tenth of the slices to be quiet, and it still moves with any change
/// in the program's own tail, which every slice carries.
pub fn lower_decile_of_percentiles(groups: &[Vec<f64>], q: f64) -> f64 {
    let per_group: Vec<f64> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| percentile(&sorted(g.clone()), q))
        .collect();
    percentile(&sorted(per_group), 10.0)
}

/// Arithmetic mean; NaN for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median wall time, in microseconds, of `reps` calls to `f` after
/// `warm` untimed calls.
pub fn median_call_us(warm: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warm {
        f();
    }
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_observed_values() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 91.0), 10.0);
        assert_eq!(percentile(&s, 99.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        // q = 0 still returns the first observed value, never index -1.
        assert_eq!(percentile(&s, 0.0), 1.0);
    }

    #[test]
    fn nearest_rank_on_tiny_and_empty_samples() {
        assert_eq!(percentile(&[4.0], 50.0), 4.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 51.0), 2.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn p99_of_a_hundred_samples_is_the_99th() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 99.0), 99.0);
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 99.0), 990.0);
    }

    #[test]
    fn failures_count_as_infinitely_slow() {
        let mut v: Vec<f64> = (1..=99).map(f64::from).collect();
        v.push(f64::INFINITY);
        v.push(f64::INFINITY);
        let s = sorted(v);
        assert_eq!(percentile(&s, 50.0), 51.0);
        assert_eq!(percentile(&s, 99.0), f64::INFINITY);
    }

    #[test]
    fn slow_slices_do_not_move_the_lower_decile_of_slice_percentiles() {
        let steady: Vec<f64> = (1..=100).map(f64::from).collect();
        let mut slow = steady.clone();
        slow[98] = 1e6;
        slow[99] = 1e6;
        // Nine of ten slices slow: the median would be theirs, the lower
        // decile is still the steady p99.
        let mut groups = vec![slow; 9];
        groups.insert(4, steady.clone());
        groups.push(Vec::new());
        assert_eq!(lower_decile_of_percentiles(&groups, 99.0), 99.0);
        assert_eq!(lower_decile_of_percentiles(&groups, 100.0), 100.0);
        assert!(lower_decile_of_percentiles(&[], 99.0).is_nan());
        let per_slice: Vec<f64> = groups[..10].iter().map(|g| percentile(g, 99.0)).collect();
        assert_eq!(median(&per_slice), 1e6);
        // A slower program moves every slice, and so the result.
        let shifted: Vec<Vec<f64>> = (0..10)
            .map(|_| steady.iter().map(|v| v + 10.0).collect())
            .collect();
        assert_eq!(lower_decile_of_percentiles(&shifted, 99.0), 109.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert!(mean(&[]).is_nan());
    }
}

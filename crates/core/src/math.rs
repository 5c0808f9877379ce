//! Order-pinned floating-point reductions.
//!
//! The paper's tables are averages of accuracies that are themselves
//! produced by long float reductions; the workspace promises those
//! numbers are *bit-identical* across thread counts and refactors. A
//! plain `iter().sum()` keeps that promise only as long as nobody
//! reorders the loop — which is exactly the kind of silent change the
//! analyzer's R4 rule guards against. Result-producing reductions route
//! through [`sum_stable`] instead: Kahan (compensated) summation in a
//! fixed left-to-right order, so the result is a function of the value
//! *sequence* alone and carries an error bound of `O(1)` ulps instead
//! of the naive `O(n)`.
//!
//! Determinism first, accuracy second: for the same input order,
//! compensated and naive summation are each bit-stable — the reason R4
//! standardises on one helper is so there is exactly one accumulation
//! order to reason about (and to re-pin goldens against) workspace-wide.

/// Float scalar that [`sum_stable`] can reduce. Implemented for `f32`
/// and `f64`; the arithmetic is performed in the type itself, so an
/// `f32` sum stays comparable with a hand-written `f32` loop.
pub trait StableFloat: Copy {
    /// Additive identity.
    const ZERO: Self;
    /// `self + other`.
    fn add(self, other: Self) -> Self;
    /// `self - other`.
    fn sub(self, other: Self) -> Self;
}

impl StableFloat for f32 {
    const ZERO: Self = 0.0;
    fn add(self, other: Self) -> Self {
        self + other
    }
    fn sub(self, other: Self) -> Self {
        self - other
    }
}

impl StableFloat for f64 {
    const ZERO: Self = 0.0;
    fn add(self, other: Self) -> Self {
        self + other
    }
    fn sub(self, other: Self) -> Self {
        self - other
    }
}

/// Kahan-compensated sum of `values`, strictly left to right.
///
/// Bit-deterministic for a given input sequence and within ~1 ulp of
/// the exact sum for well-scaled inputs. Accepts anything iterable over
/// `f32`/`f64` values (`sum_stable(xs.iter().copied())`).
pub fn sum_stable<T, I>(values: I) -> T
where
    T: StableFloat,
    I: IntoIterator<Item = T>,
{
    let mut sum = T::ZERO;
    let mut comp = T::ZERO; // running compensation (lost low-order bits)
    for v in values {
        let y = v.sub(comp);
        let t = sum.add(y);
        comp = t.sub(sum).sub(y);
        sum = t;
    }
    sum
}

/// Mean and population standard deviation of the observed (non-`NaN`)
/// values, each a [`sum_stable`] in order; `(0, 0)` when every value is
/// missing. Allocates nothing: the one copy of the per-dimension
/// statistics behind [`crate::Mts::dim_mean`], [`crate::Mts::dim_std`]
/// and [`crate::preprocess::znormalize_dim`].
pub fn observed_mean_std(values: &[f64]) -> (f64, f64) {
    let observed = || values.iter().copied().filter(|v| !v.is_nan());
    let n = observed().count();
    if n == 0 {
        return (0.0, 0.0);
    }
    let mean = sum_stable(observed()) / n as f64;
    let var = sum_stable(observed().map(|v| (v - mean) * (v - mean))) / n as f64;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_naive_sum_on_benign_inputs() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64 * 0.25).collect();
        let naive: f64 = xs.iter().sum();
        assert_eq!(sum_stable(xs.iter().copied()), naive);
    }

    #[test]
    fn compensates_catastrophic_cancellation() {
        // 1.0 is far below f64 resolution at 1e16: the naive running
        // sum drops every one of the 1000 increments; Kahan keeps them.
        let mut xs = vec![1e16];
        xs.extend(std::iter::repeat_n(1.0, 1000));
        xs.push(-1e16);
        let naive: f64 = xs.iter().sum();
        assert_eq!(naive, 0.0);
        assert_eq!(sum_stable(xs.iter().copied()), 1000.0);
    }

    #[test]
    fn f32_sum_runs_in_f32() {
        let xs: Vec<f32> = vec![0.1, 0.2, 0.3];
        let s: f32 = sum_stable(xs.iter().copied());
        let naive: f32 = xs.iter().sum();
        assert!((s - naive).abs() <= f32::EPSILON);
    }

    #[test]
    fn deterministic_across_repeated_calls() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 2654435761_usize) % 1009) as f64 / 7.0).collect();
        let a = sum_stable(xs.iter().copied());
        let b = sum_stable(xs.iter().copied());
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(sum_stable(std::iter::empty::<f64>()), 0.0);
        assert_eq!(sum_stable([3.5f64]), 3.5);
    }
}

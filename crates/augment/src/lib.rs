//! Time series data augmentation — the paper's taxonomy, implemented.
//!
//! The paper (Ilbert et al., ICDE 2024) organises augmentation techniques
//! into three classes (its Figure 1), all of which this crate implements:
//!
//! * **basic** — time-domain transformations ([`basic::time`]),
//!   frequency-domain perturbations ([`basic::frequency`]), oversampling
//!   ([`oversample`]: SMOTE and friends), and decomposition-based
//!   recombination ([`decompose_aug`]);
//! * **generative** — statistical samplers
//!   ([`generative::statistical`]), probabilistic models
//!   ([`generative::probabilistic`]: Gaussian HMM, autoregressive
//!   factorisation, a small DDPM), and the neural TimeGAN
//!   ([`generative::timegan`]);
//! * **preserving** — label-preserving range noise ([`preserve::label`])
//!   and structure-preserving oversampling ([`preserve::structure`]:
//!   OHIT, INOS).
//!
//! Every technique implements [`Augmenter`]; the paper's protocol —
//! *augment each minority class until the training set is perfectly
//! balanced* (§IV-C) — is the technique-agnostic driver in [`balance`].
//!
//! # Example
//! ```
//! use tsda_augment::{Augmenter, balance::augment_to_balance};
//! use tsda_augment::basic::time::NoiseInjection;
//! use tsda_core::{Dataset, Mts};
//! use tsda_core::rng::seeded;
//!
//! let mut ds = Dataset::empty(2);
//! for i in 0..8 { ds.push(Mts::constant(1, 16, i as f64), 0); }
//! for i in 0..3 { ds.push(Mts::constant(1, 16, -(i as f64)), 1); }
//!
//! let noise = NoiseInjection::level(1.0); // the paper's noise_1
//! let balanced = augment_to_balance(&ds, &noise, &mut seeded(7)).unwrap();
//! assert_eq!(balanced.class_counts(), vec![8, 8]);
//! ```

#![forbid(unsafe_code)]

pub mod averaging;
pub mod balance;
pub mod basic;
pub mod declarative;
pub mod decompose_aug;
pub mod generative;
pub mod oversample;
pub mod preserve;
pub mod taxonomy;

use rand::rngs::StdRng;
use tsda_core::{Dataset, Label, Mts, TsdaError};

/// A data augmentation technique.
///
/// Given a training dataset, synthesize `count` new series belonging to
/// `class`. The balancing driver decides the counts; techniques decide
/// how the samples are produced.
pub trait Augmenter {
    /// Stable technique name (used in reports and seed derivation).
    fn name(&self) -> &'static str;

    /// Generate `count` synthetic members of `class`.
    ///
    /// Implementations must not mutate the dataset and must be
    /// deterministic given `rng`. An error is returned when the class is
    /// too small for the technique's requirements (the driver falls back
    /// to random oversampling in that case).
    fn synthesize(
        &self,
        ds: &Dataset,
        class: Label,
        count: usize,
        rng: &mut StdRng,
    ) -> Result<Vec<Mts>, TsdaError>;
}

/// A per-series transformation (noise, warping, masking, …).
///
/// Implementors get [`Augmenter`] for free through the blanket impl:
/// the driver picks a random member of the class and transforms it,
/// repeating until `count` samples exist — exactly the paper's protocol
/// for noise injection.
pub trait SeriesTransform {
    /// Stable technique name.
    fn name(&self) -> &'static str;

    /// Produce a transformed variant of `series`.
    fn transform(&self, series: &Mts, rng: &mut StdRng) -> Mts;
}

impl<T: SeriesTransform> Augmenter for T {
    fn name(&self) -> &'static str {
        SeriesTransform::name(self)
    }

    fn synthesize(
        &self,
        ds: &Dataset,
        class: Label,
        count: usize,
        rng: &mut StdRng,
    ) -> Result<Vec<Mts>, TsdaError> {
        use rand::Rng;
        let members = ds.indices_of_class(class);
        if members.is_empty() {
            return Err(TsdaError::InvalidParameter(format!(
                "class {class} has no members to transform"
            )));
        }
        Ok((0..count)
            .map(|_| {
                let idx = members[rng.gen_range(0..members.len())];
                self.transform(&ds.series()[idx], rng)
            })
            .collect())
    }
}

//! Dense linear-algebra substrate for the `tsda` workspace.
//!
//! The paper's pipeline needs a surprising amount of numerical machinery:
//! ridge regression with leave-one-out cross-validation (the classifier
//! behind ROCKET), covariance estimation with shrinkage (OHIT / INOS
//! structure-preserving oversampling) and eigendecomposition
//! (imbalance-aware sampling along principal axes). None of the crates
//! allowed offline provide these, so this crate implements them from
//! scratch on a small row-major [`Matrix`] type.
//!
//! Everything here is `f64`: the statistical code paths are accuracy
//! sensitive (LOOCV residuals, shrinkage intensities), and the matrices
//! involved are small enough that bandwidth is not a concern. The neural
//! network substrate ([`tsda_neuro`](https://docs.rs/tsda-neuro)) keeps
//! its own `f32` tensors for throughput.
//!
//! This crate is the workspace's single home for `unsafe` code: the
//! [`simd`] module's AVX2 kernels need raw intrinsics, so the former
//! crate-wide `#![forbid(unsafe_code)]` is narrowed to a deny that the
//! `simd` module opts out of locally. Every unsafe block carries a
//! `// SAFETY:` comment enforced by `tsda-analyze` rule U1; the decision
//! is recorded in `analyze.toml`.

#![deny(unsafe_code)]

pub mod cholesky;
pub mod cov;
pub mod eig;
pub mod gemm;
pub mod matrix;
#[allow(unsafe_code)]
pub mod simd;
pub mod solve;
pub mod vector;

pub use cholesky::CholeskyError;
pub use cov::{covariance_matrix, shrinkage_covariance, ShrinkageCovariance};
pub use eig::SymmetricEig;
pub use matrix::Matrix;
pub use solve::{RidgeLoocv, RidgeSolution};

//! Signal-processing substrate for the `tsda` workspace.
//!
//! The frequency-domain and decomposition branches of the paper's
//! augmentation taxonomy need spectral and time-warping machinery that no
//! offline crate provides:
//!
//! * [`fft`](mod@fft) — radix-2 FFT plus Bluestein's algorithm for arbitrary
//!   lengths, the basis of all frequency-domain perturbations;
//! * [`stft`](mod@stft) — short-time Fourier transform and its inverse, used by the
//!   SpecAugment-style spectrogram masking;
//! * [`dtw`] — dynamic time warping with optional Sakoe-Chiba band and
//!   alignment-path extraction, used by guided warping, DBA averaging
//!   and the DTW distance matrix;
//! * [`interp`] — linear and natural-cubic-spline interpolation, used by
//!   time warping and EMD envelopes;
//! * [`decompose`] — moving-average trend/seasonal/residual split (an
//!   STL-style decomposition), used by decomposition-based augmentation;
//! * [`emd`] — empirical mode decomposition via spline envelopes;
//! * [`window`] — analysis windows (Hann, Hamming, rectangular).

#![forbid(unsafe_code)]

pub mod decompose;
pub mod dtw;
pub mod emd;
pub mod fft;
pub mod interp;
pub mod stft;
pub mod window;

pub use decompose::{decompose_additive, Decomposition};
pub use dtw::{dtw_distance, dtw_path, DtwOptions};
pub use fft::{fft, ifft, Complex};
pub use stft::{istft, stft, Stft};

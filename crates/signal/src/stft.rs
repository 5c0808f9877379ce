//! Short-time Fourier transform and its least-squares inverse.
//!
//! The SpecAugment-style frequency/time masking augmenter perturbs the
//! magnitude spectrogram and resynthesises the signal with [`istft`]
//! (weighted overlap-add), so a proper inverse matters.

use crate::fft::{fft, ifft, Complex};
use crate::window::{window, WindowKind};

/// A complex spectrogram: `frames × bins`, produced by [`stft`].
#[derive(Debug, Clone)]
pub struct Stft {
    /// One spectrum per frame.
    pub frames: Vec<Vec<Complex>>,
    /// Analysis frame length.
    pub frame_len: usize,
    /// Hop between consecutive frames.
    pub hop: usize,
    /// Analysis window kind.
    pub window: WindowKind,
    /// Original signal length (needed for exact-length resynthesis).
    pub signal_len: usize,
}

impl Stft {
    /// Number of analysis frames.
    pub fn n_frames(&self) -> usize {
        self.frames.len()
    }

    /// Magnitude spectrogram (`frames × bins`).
    pub fn magnitudes(&self) -> Vec<Vec<f64>> {
        self.frames
            .iter()
            .map(|f| f.iter().map(|c| c.abs()).collect())
            .collect()
    }
}

/// Compute the STFT of `signal` with the given frame length, hop and
/// window. The signal is zero-padded at the tail so at least one frame
/// is produced.
///
/// # Panics
/// Panics if `frame_len == 0` or `hop == 0`.
pub fn stft(signal: &[f64], frame_len: usize, hop: usize, win: WindowKind) -> Stft {
    assert!(frame_len > 0 && hop > 0, "stft requires positive frame and hop");
    let w = window(win, frame_len);
    let n_frames = if signal.len() <= frame_len {
        1
    } else {
        (signal.len() - frame_len).div_ceil(hop) + 1
    };
    let mut frames = Vec::with_capacity(n_frames);
    for f in 0..n_frames {
        let start = f * hop;
        let buf: Vec<Complex> = (0..frame_len)
            .map(|i| {
                let v = signal.get(start + i).copied().unwrap_or(0.0);
                Complex::real(v * w[i])
            })
            .collect();
        frames.push(fft(&buf));
    }
    Stft { frames, frame_len, hop, window: win, signal_len: signal.len() }
}

/// Inverse STFT by weighted overlap-add with window-squared
/// normalisation. Reconstructs a signal of the original length.
pub fn istft(spec: &Stft) -> Vec<f64> {
    let w = window(spec.window, spec.frame_len);
    let total = (spec.n_frames().saturating_sub(1)) * spec.hop + spec.frame_len;
    let mut acc = vec![0.0; total];
    let mut norm = vec![0.0; total];
    for (f, frame) in spec.frames.iter().enumerate() {
        let time = ifft(frame);
        let start = f * spec.hop;
        for i in 0..spec.frame_len {
            acc[start + i] += time[i].re * w[i];
            norm[start + i] += w[i] * w[i];
        }
    }
    for (a, n) in acc.iter_mut().zip(&norm) {
        if *n > 1e-12 {
            *a /= n;
        }
    }
    acc.truncate(spec.signal_len);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chirpish(n: usize) -> Vec<f64> {
        (0..n)
            .map(|t| {
                let x = t as f64 / n as f64;
                (20.0 * x * x * std::f64::consts::PI).sin() + 0.3 * (3.0 * x).cos()
            })
            .collect()
    }

    #[test]
    fn round_trip_reconstructs_interior() {
        let x = chirpish(128);
        let spec = stft(&x, 32, 16, WindowKind::Hann);
        let y = istft(&spec);
        assert_eq!(y.len(), x.len());
        // Edges are imperfect (partial window coverage); interior must match.
        for t in 32..96 {
            assert!((x[t] - y[t]).abs() < 1e-9, "t={t}: {} vs {}", x[t], y[t]);
        }
    }

    #[test]
    fn frame_count_covers_signal() {
        let spec = stft(&chirpish(100), 32, 16, WindowKind::Hann);
        assert!((spec.n_frames() - 1) * 16 + 32 >= 100);
    }

    #[test]
    fn short_signal_single_frame() {
        let spec = stft(&[1.0, 2.0], 8, 4, WindowKind::Rectangular);
        assert_eq!(spec.n_frames(), 1);
        let y = istft(&spec);
        assert_eq!(y.len(), 2);
        assert!((y[0] - 1.0).abs() < 1e-9 && (y[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn magnitudes_shape_matches() {
        let spec = stft(&chirpish(64), 16, 8, WindowKind::Hamming);
        let mags = spec.magnitudes();
        assert_eq!(mags.len(), spec.n_frames());
        assert!(mags.iter().all(|f| f.len() == 16));
        assert!(mags.iter().flatten().all(|&v| v >= 0.0));
    }

    #[test]
    fn tone_energy_in_expected_bin() {
        let n = 64;
        let x: Vec<f64> = (0..n)
            .map(|t| (2.0 * std::f64::consts::PI * 4.0 * t as f64 / 32.0).sin())
            .collect();
        let spec = stft(&x, 32, 16, WindowKind::Hann);
        let mags = spec.magnitudes();
        // Bin 4 of a 32-point frame at this frequency.
        let mid = &mags[1];
        let peak = mid
            .iter()
            .take(16)
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, 4);
    }
}

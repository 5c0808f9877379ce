//! 1-D convolution with "same" padding, lowered to im2col + GEMM.
//!
//! InceptionTime's inception modules are built entirely from this layer:
//! bottleneck 1×1 convolutions, the three parallel wide kernels, and the
//! shortcut projections.
//!
//! Forward and backward both run as matrix products on the cache-tiled
//! kernels in [`tsda_linalg::gemm`], parallelised over the batch
//! dimension on the workspace pool:
//!
//! * forward: per batch, unfold the input into a `[in_ch·kernel, T]`
//!   column matrix (zeros where the window hangs off the series), then
//!   `out_b ← W·col_b` with `W` viewed as `[out_ch, in_ch·kernel]`;
//! * backward: `∂W += Σ_b g_b·col_bᵀ` (per-batch partials summed in
//!   ascending batch order so results are thread-count independent) and
//!   `∂x_b ← fold(Wᵀ·g_b)`.
//!
//! The pre-GEMM scalar loop survives as [`Conv1d::forward_reference`]
//! for differential tests and the `perf_baseline` speedup measurement.

use super::Layer;
use crate::init::he_uniform;
use crate::tensor::Tensor;
use rand::Rng;
use std::cell::RefCell;
use tsda_core::parallel::Pool;
use tsda_linalg::gemm::{gemm_acc_f32, gemm_nt_acc_f32, gemm_tn_f32};

thread_local! {
    // Per-worker im2col column scratch, reused across batches and
    // requests: pool threads are long-lived, so after each worker's
    // first pass at a given size the forward hot path performs no
    // im2col allocation at all.
    static COL_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// 1-D convolution, stride 1, odd kernel, zero "same" padding.
/// Input `[batch, in_ch, T]` → output `[batch, out_ch, T]`.
pub struct Conv1d {
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    use_bias: bool,
    w: Vec<f32>, // [out_ch, in_ch, kernel]
    b: Vec<f32>, // [out_ch]
    gw: Vec<f32>,
    gb: Vec<f32>,
    cached_x: Option<Tensor>,
}

impl Conv1d {
    /// New convolution with He-uniform weights.
    ///
    /// # Panics
    /// Panics if `kernel` is even (same-padding needs odd kernels).
    pub fn new<R: Rng + ?Sized>(
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        use_bias: bool,
        rng: &mut R,
    ) -> Self {
        assert!(kernel % 2 == 1, "Conv1d requires an odd kernel, got {kernel}");
        let fan_in = in_ch * kernel;
        Self {
            in_ch,
            out_ch,
            kernel,
            use_bias,
            w: he_uniform(rng, fan_in, out_ch * in_ch * kernel),
            b: vec![0.0; out_ch],
            gw: vec![0.0; out_ch * in_ch * kernel],
            gb: vec![0.0; out_ch],
            cached_x: None,
        }
    }

    /// Kernel length.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    #[inline]
    fn w_at(&self, oc: usize, ic: usize, k: usize) -> f32 {
        self.w[(oc * self.in_ch + ic) * self.kernel + k]
    }

    /// Unfold one batch element into the `[in_ch·kernel, T]` column
    /// matrix: row `ic·kernel + k` holds `x[b, ic, t + k − pad]`, zero
    /// where the window reaches past either end of the series.
    fn im2col(&self, x_b: &[f32], t_len: usize, col: &mut [f32]) {
        let pad = self.kernel / 2;
        col.fill(0.0);
        for ic in 0..self.in_ch {
            let src = &x_b[ic * t_len..(ic + 1) * t_len];
            for k in 0..self.kernel {
                // src index = t + k − pad, valid for t in [lo, hi).
                let lo = pad.saturating_sub(k);
                let hi = (t_len + pad).saturating_sub(k).min(t_len);
                let row = &mut col[(ic * self.kernel + k) * t_len..(ic * self.kernel + k + 1) * t_len];
                row[lo..hi].copy_from_slice(&src[lo + k - pad..hi + k - pad]);
            }
        }
    }

    /// The inverse scatter of [`Conv1d::im2col`]: fold the column-matrix
    /// gradient back onto one batch element's input gradient.
    fn col2im(&self, gcol: &[f32], t_len: usize, gx_b: &mut [f32]) {
        let pad = self.kernel / 2;
        for ic in 0..self.in_ch {
            let dst = &mut gx_b[ic * t_len..(ic + 1) * t_len];
            for k in 0..self.kernel {
                let lo = pad.saturating_sub(k);
                let hi = (t_len + pad).saturating_sub(k).min(t_len);
                let row = &gcol[(ic * self.kernel + k) * t_len..(ic * self.kernel + k + 1) * t_len];
                for t in lo..hi {
                    dst[t + k - pad] += row[t];
                }
            }
        }
    }

    /// The pre-GEMM scalar forward pass, kept as the reference
    /// implementation for differential tests and the `perf_baseline`
    /// binary. Does not cache the input, so it cannot be followed by
    /// `backward`.
    pub fn forward_reference(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.shape().len(), 3, "Conv1d expects [batch, ch, time]");
        assert_eq!(x.shape()[1], self.in_ch, "Conv1d channel mismatch");
        let n = x.shape()[0];
        let t_len = x.shape()[2];
        let pad = self.kernel / 2;
        let mut out = Tensor::zeros(&[n, self.out_ch, t_len]);
        for b in 0..n {
            for oc in 0..self.out_ch {
                let bias = if self.use_bias { self.b[oc] } else { 0.0 };
                for t in 0..t_len {
                    let mut acc = bias;
                    // k index range that keeps t + k − pad in bounds.
                    let k_lo = pad.saturating_sub(t);
                    let k_hi = self.kernel.min(t_len + pad - t);
                    for ic in 0..self.in_ch {
                        for k in k_lo..k_hi {
                            acc += self.w_at(oc, ic, k) * x.at3(b, ic, t + k - pad);
                        }
                    }
                    *out.at3_mut(b, oc, t) = acc;
                }
            }
        }
        out
    }
}

impl Layer for Conv1d {
    // Hot path (`tsda_analyze` R3, scratch discipline): `infer` plus the backward
    // cache, refreshed in place in the cache tensor's buffers.
    #[doc(alias = "tsda::hot")]
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let out = self.infer(x);
        self.cached_x.get_or_insert_with(Tensor::default).copy_from(x);
        out
    }

    // Hot path (`tsda_analyze` R3, scratch discipline): the only steady-state
    // allocation is the escaping output tensor — im2col columns come
    // from the per-worker scratch.
    #[doc(alias = "tsda::hot")]
    fn infer(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.shape().len(), 3, "Conv1d expects [batch, ch, time]");
        assert_eq!(x.shape()[1], self.in_ch, "Conv1d channel mismatch");
        let n = x.shape()[0];
        let t_len = x.shape()[2];
        let ick = self.in_ch * self.kernel;
        let mut out = Tensor::zeros(&[n, self.out_ch, t_len]);
        let x_data = x.data();
        // One batch element per work unit: workers own disjoint
        // `[out_ch, T]` output slices, so any thread count produces the
        // same bits. Nested pool calls inside the GEMM go serial.
        Pool::global().par_chunks_mut(out.data_mut(), self.out_ch * t_len, |b, out_b| {
            COL_SCRATCH.with(|cell| {
                let mut col = cell.borrow_mut();
                col.resize(ick * t_len, 0.0);
                self.im2col(&x_data[b * self.in_ch * t_len..(b + 1) * self.in_ch * t_len], t_len, &mut col);
                if self.use_bias {
                    for (oc, row) in out_b.chunks_mut(t_len).enumerate() {
                        row.fill(self.b[oc]);
                    }
                }
                gemm_acc_f32(self.out_ch, ick, t_len, &self.w, &col, out_b);
            });
        });
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cached_x.as_ref().expect("backward before forward");
        let n = x.shape()[0];
        let t_len = x.shape()[2];
        assert_eq!(grad_out.shape(), &[n, self.out_ch, t_len], "Conv1d grad shape mismatch");
        let ick = self.in_ch * self.kernel;
        let mut gx = Tensor::zeros(&[n, self.in_ch, t_len]);
        let this = &*self;
        let x_data = x.data();
        let g_data = grad_out.data();
        // Per-batch weight/bias-gradient partials, computed in parallel
        // alongside each batch's input gradient.
        let partials = {
            let gx_slots: &mut [f32] = gx.data_mut();
            let mut partials: Vec<(Vec<f32>, Vec<f32>)> = Vec::new();
            let slots = Pool::global().par_map_indexed(n, |b| {
                let mut col = vec![0.0f32; ick * t_len];
                this.im2col(&x_data[b * this.in_ch * t_len..(b + 1) * this.in_ch * t_len], t_len, &mut col);
                let g_b = &g_data[b * this.out_ch * t_len..(b + 1) * this.out_ch * t_len];
                // ∂W partial: g_b [out_ch, T] · col_bᵀ [T, ick].
                let mut gw_p = vec![0.0f32; this.out_ch * ick];
                gemm_nt_acc_f32(this.out_ch, t_len, ick, g_b, &col, &mut gw_p);
                let mut gb_p = vec![0.0f32; this.out_ch];
                if this.use_bias {
                    for (oc, row) in g_b.chunks_exact(t_len).enumerate() {
                        gb_p[oc] = row.iter().sum();
                    }
                }
                // ∂x_b: fold Wᵀ [ick, out_ch] · g_b [out_ch, T].
                let mut gcol = vec![0.0f32; ick * t_len];
                gemm_tn_f32(ick, this.out_ch, t_len, &this.w, g_b, &mut gcol);
                let mut gx_b = vec![0.0f32; this.in_ch * t_len];
                this.col2im(&gcol, t_len, &mut gx_b);
                (gw_p, gb_p, gx_b)
            });
            for (b, (gw_p, gb_p, gx_b)) in slots.into_iter().enumerate() {
                gx_slots[b * this.in_ch * t_len..(b + 1) * this.in_ch * t_len]
                    .copy_from_slice(&gx_b);
                partials.push((gw_p, gb_p));
            }
            partials
        };
        // Reduce the partials serially in ascending batch order — the
        // one cross-batch accumulation, kept off the pool on purpose so
        // gradients are bit-identical for every thread count.
        for (gw_p, gb_p) in &partials {
            for (acc, p) in self.gw.iter_mut().zip(gw_p) {
                *acc += p;
            }
            if self.use_bias {
                for (acc, p) in self.gb.iter_mut().zip(gb_p) {
                    *acc += p;
                }
            }
        }
        gx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(&mut self.w, &mut self.gw);
        if self.use_bias {
            f(&mut self.b, &mut self.gb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_kernel_copies_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Conv1d::new(1, 1, 3, false, &mut rng);
        c.visit_params(&mut |p, _| p.copy_from_slice(&[0.0, 1.0, 0.0]));
        let x = Tensor::from_flat(&[1, 1, 4], vec![1.0, 2.0, 3.0, 4.0]);
        let y = c.forward(&x);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn shift_kernel_pads_with_zero() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Conv1d::new(1, 1, 3, false, &mut rng);
        // Kernel [1,0,0] reads x[t−1]: shifts right, zero-padding at t=0.
        c.visit_params(&mut |p, _| p.copy_from_slice(&[1.0, 0.0, 0.0]));
        let x = Tensor::from_flat(&[1, 1, 4], vec![1.0, 2.0, 3.0, 4.0]);
        let y = c.forward(&x);
        assert_eq!(y.data(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn sums_over_input_channels() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Conv1d::new(2, 1, 1, true, &mut rng);
        c.visit_params(&mut |p, _| {
            if p.len() == 2 {
                p.copy_from_slice(&[1.0, 10.0]);
            } else {
                p.copy_from_slice(&[0.5]);
            }
        });
        let x = Tensor::from_flat(&[1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = c.forward(&x);
        assert_eq!(y.data(), &[31.5, 42.5]);
    }

    #[test]
    fn gradients_check_numerically() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut c = Conv1d::new(2, 3, 3, true, &mut rng);
        let x = Tensor::from_flat(
            &[2, 2, 5],
            (0..20).map(|v| (v as f32 * 0.37).sin()).collect(),
        );
        gradcheck::check_input_grad(&mut c, &x, 2e-2);
        gradcheck::check_param_grad(&mut c, &x, 2e-2);
    }

    #[test]
    #[should_panic(expected = "odd kernel")]
    fn rejects_even_kernel() {
        let mut rng = StdRng::seed_from_u64(2);
        let _ = Conv1d::new(1, 1, 4, true, &mut rng);
    }

    #[test]
    fn no_bias_exposes_single_param_buffer() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut c = Conv1d::new(1, 2, 3, false, &mut rng);
        let mut bufs = 0;
        c.visit_params(&mut |_, _| bufs += 1);
        assert_eq!(bufs, 1);
    }
}

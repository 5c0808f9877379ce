//! Allocation-count harness for `Conv1d::infer` — the runtime check
//! behind the `tsda_analyze` A1 scratch rule. Once the per-worker
//! im2col scratch is warm for a shape, the inference forward pass
//! allocates only the escaping output tensor: a *fixed number* of
//! allocator calls, independent of the series length. Doubling `T`
//! must not change the allocation count, only the bytes.
//!
//! One `#[test]` only: the counting allocator is process-global, and
//! sibling tests on parallel threads would pollute the windows.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tsda_neuro::layers::{Conv1d, Layer};
use tsda_neuro::Tensor;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to the System allocator; the only added
// behaviour is a relaxed counter bump, which cannot violate any
// GlobalAlloc contract.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: delegates to System.alloc with the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: delegates to System.realloc with the caller's pointer,
    // layout, and size, all forwarded untouched.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: delegates to System.dealloc with the caller's pointer
    // and layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn input(n: usize, ch: usize, t_len: usize) -> Tensor {
    let data = (0..n * ch * t_len).map(|i| ((i % 17) as f32 - 8.0) * 0.25).collect();
    Tensor::from_flat(&[n, ch, t_len], data)
}

/// Allocator calls for one warm inference forward at the given length.
fn warm_forward_allocs(conv: &Conv1d, n: usize, ch: usize, t_len: usize) -> u64 {
    let x = input(n, ch, t_len);
    // Warm this shape: pool worker scratch resizes to `ick·T` on the
    // first pass, then stays.
    for _ in 0..4 {
        let _ = conv.infer(&x);
    }
    let before = ALLOCS.load(Ordering::SeqCst);
    let _ = conv.infer(&x);
    ALLOCS.load(Ordering::SeqCst) - before
}

#[test]
fn warm_conv_forward_alloc_count_is_independent_of_series_length() {
    let mut rng = StdRng::seed_from_u64(7);
    let conv = Conv1d::new(3, 5, 9, true, &mut rng);
    let short = warm_forward_allocs(&conv, 6, 3, 64);
    let long = warm_forward_allocs(&conv, 6, 3, 256);
    assert_eq!(
        short, long,
        "warm forward allocations must not scale with T (T=64: {short}, T=256: {long}); \
         the im2col scratch is leaking per-window allocations"
    );
    // And the fixed cost is bounded: the output tensor plus per-worker
    // pool bookkeeping — nothing per window. (The exact number depends
    // on the pool's worker count, never on T.)
    assert!(short <= 64, "warm forward made {short} allocations; scratch reuse regressed");
}

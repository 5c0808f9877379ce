//! Thread-count determinism of the GEMM-lowered Conv1d: the parallel
//! compute layer guarantees bit-identical results for any worker
//! budget, which these tests pin down for 1 vs 4 (and 16) threads.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;
use tsda_core::parallel::ThreadLimit;
use tsda_neuro::layers::{Conv1d, Layer};
use tsda_neuro::Tensor;

/// `ThreadLimit` is process-global; serialize the tests that toggle it.
static LIMIT_LOCK: Mutex<()> = Mutex::new(());

fn input(batch: usize, ch: usize, t: usize) -> Tensor {
    let n = batch * ch * t;
    Tensor::from_flat(
        &[batch, ch, t],
        (0..n).map(|v| ((v * 37 % 101) as f32 - 50.0) * 0.021).collect(),
    )
}

/// Forward + backward under the given thread limit; fresh layer per
/// call so cached state cannot leak between runs.
fn conv_pass(threads: usize) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    ThreadLimit::set(threads);
    let mut rng = StdRng::seed_from_u64(7);
    let mut conv = Conv1d::new(3, 5, 9, true, &mut rng);
    let x = input(6, 3, 40);
    let y = conv.forward(&x);
    let gout = input(6, 5, 40);
    let gx = conv.backward(&gout);
    let mut grads = Vec::new();
    conv.visit_params(&mut |_, g| grads.extend_from_slice(g));
    (y.data().to_vec(), gx.data().to_vec(), grads)
}

#[test]
fn conv1d_bits_do_not_depend_on_thread_count() {
    let _guard = LIMIT_LOCK.lock().unwrap();
    let reference = conv_pass(1);
    for threads in [4, 16] {
        let run = conv_pass(threads);
        assert_eq!(run.0, reference.0, "forward, {threads} threads");
        assert_eq!(run.1, reference.1, "input grad, {threads} threads");
        assert_eq!(run.2, reference.2, "param grads, {threads} threads");
    }
    ThreadLimit::clear();
}

#[test]
fn conv1d_gemm_matches_reference_forward() {
    let _guard = LIMIT_LOCK.lock().unwrap();
    ThreadLimit::set(4);
    let mut rng = StdRng::seed_from_u64(9);
    let mut conv = Conv1d::new(4, 6, 5, true, &mut rng);
    let x = input(3, 4, 33);
    let lowered = conv.forward(&x);
    let reference = conv.forward_reference(&x);
    for (l, r) in lowered.data().iter().zip(reference.data()) {
        assert!((l - r).abs() <= 1e-4 * (1.0 + r.abs()), "{l} vs {r}");
    }
    ThreadLimit::clear();
}

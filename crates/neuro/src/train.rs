//! Mini-batch training loop with early stopping, mirroring the paper's
//! protocol: train up to `max_epochs`, stop after `patience` epochs
//! without validation improvement, keep the best-by-validation weights.

use crate::layers::Layer;
use crate::loss::{softmax, softmax_cross_entropy};
use crate::optim::Adam;
use crate::tensor::Tensor;
use rand::seq::SliceRandom;
use rand::Rng;

/// Training-loop configuration.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Maximum epochs (paper: 200).
    pub max_epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Early-stopping patience in epochs (paper: 30).
    pub patience: usize,
    /// Learning rate for Adam.
    pub lr: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { max_epochs: 200, batch_size: 32, patience: 30, lr: 1e-3 }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Epochs actually executed.
    pub epochs_run: usize,
    /// Best validation accuracy observed.
    pub best_val_accuracy: f64,
    /// Per-epoch `(train_loss, val_accuracy)` history.
    pub history: Vec<(f32, f64)>,
}

/// Snapshot every parameter AND state buffer of a layer (for best-model
/// restore). Batch-norm running statistics live in the state buffers;
/// restoring weights without them corrupts eval-mode predictions.
pub fn snapshot_params<L: Layer + ?Sized>(layer: &mut L) -> Vec<Vec<f32>> {
    let mut out = Vec::new();
    layer.visit_params(&mut |p, _| out.push(p.to_vec()));
    layer.visit_buffers(&mut |b| out.push(b.to_vec()));
    out
}

/// Restore parameters and state buffers captured by [`snapshot_params`].
pub fn restore_params<L: Layer + ?Sized>(layer: &mut L, snap: &[Vec<f32>]) {
    let mut i = 0;
    layer.visit_params(&mut |p, _| {
        p.copy_from_slice(&snap[i]);
        i += 1;
    });
    layer.visit_buffers(&mut |b| {
        b.copy_from_slice(&snap[i]);
        i += 1;
    });
    assert_eq!(i, snap.len(), "snapshot does not match layer");
}

/// Predicted class per row of a logits tensor.
pub fn predict_classes<L: Layer + ?Sized>(model: &L, x: &Tensor) -> Vec<usize> {
    let mut classes = Vec::with_capacity(x.shape()[0]);
    argmax_rows(&softmax(&model.infer(x)), &mut classes);
    classes
}

/// Append the arg-max column of every row of a `[n, classes]` tensor
/// to `out`: the predicted class per row of class probabilities or
/// logits.
pub fn argmax_rows(scores: &Tensor, out: &mut Vec<usize>) {
    let c = scores.shape()[1];
    out.extend((0..scores.shape()[0]).map(|i| {
        let row = &scores.data()[i * c..(i + 1) * c];
        row.iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(j, _)| j)
            .unwrap_or(0)
    }));
}

/// Classification accuracy of `model` on `(x, y)`.
pub fn evaluate_accuracy<L: Layer + ?Sized>(model: &L, x: &Tensor, y: &[usize]) -> f64 {
    if y.is_empty() {
        return 0.0;
    }
    let pred = predict_classes(model, x);
    let ok = pred.iter().zip(y).filter(|(p, t)| p == t).count();
    ok as f64 / y.len() as f64
}

/// Train a softmax classifier with early stopping.
///
/// `x_train` rows are the samples (any rank ≥ 2; axis 0 is the batch).
/// Returns the report; the model is left holding the best-validation
/// weights.
pub fn train_classifier<L: Layer + ?Sized, R: Rng>(
    model: &mut L,
    x_train: &Tensor,
    y_train: &[usize],
    x_val: &Tensor,
    y_val: &[usize],
    cfg: &TrainConfig,
    rng: &mut R,
) -> TrainReport {
    assert_eq!(x_train.shape()[0], y_train.len(), "train size mismatch");
    assert_eq!(x_val.shape()[0], y_val.len(), "val size mismatch");
    let n = y_train.len();
    let mut opt = Adam::new(cfg.lr).with_clip(5.0);
    let mut best_acc = -1.0f64;
    let mut best_snap: Option<Vec<Vec<f32>>> = None;
    let mut since_best = 0usize;
    let mut history = Vec::new();
    let mut epochs_run = 0;

    let mut order: Vec<usize> = (0..n).collect();
    for _epoch in 0..cfg.max_epochs {
        epochs_run += 1;
        order.shuffle(rng);
        let mut batch_losses = Vec::new();
        for chunk in order.chunks(cfg.batch_size.max(1)) {
            let xb = x_train.select_rows(chunk);
            let yb: Vec<usize> = chunk.iter().map(|&i| y_train[i]).collect();
            let logits = model.forward(&xb);
            let (loss, grad) = softmax_cross_entropy(&logits, &yb);
            model.zero_grad();
            let _ = model.backward(&grad);
            opt.step(model);
            batch_losses.push(loss);
        }
        let epoch_loss: f32 = tsda_core::math::sum_stable(batch_losses.iter().copied());
        let batches = batch_losses.len();
        let val_acc = if y_val.is_empty() {
            // No validation data: track training loss instead (lower is
            // better → negate so "greater is better" logic still works).
            -f64::from(epoch_loss / batches.max(1) as f32)
        } else {
            evaluate_accuracy(model, x_val, y_val)
        };
        history.push((epoch_loss / batches.max(1) as f32, val_acc));
        if val_acc > best_acc {
            best_acc = val_acc;
            best_snap = Some(snapshot_params(model));
            since_best = 0;
        } else {
            since_best += 1;
            if since_best >= cfg.patience {
                break;
            }
        }
    }
    if let Some(snap) = &best_snap {
        restore_params(model, snap);
    }
    TrainReport { epochs_run, best_val_accuracy: best_acc.max(0.0), history }
}

/// Run an LR range test: sweep `steps` exponentially growing rates, one
/// mini-batch each, recording the training loss; return the valley LR.
/// The model's parameters are restored afterwards.
#[allow(clippy::too_many_arguments)] // mirrors the sweep's knobs 1:1
pub fn lr_range_test<L: Layer + ?Sized, R: Rng>(
    model: &mut L,
    x_train: &Tensor,
    y_train: &[usize],
    batch_size: usize,
    lo: f32,
    hi: f32,
    steps: usize,
    rng: &mut R,
) -> f32 {
    let snap = snapshot_params(model);
    let lrs = crate::lr::lr_schedule(lo, hi, steps);
    let n = y_train.len();
    let mut losses = Vec::with_capacity(steps);
    let mut opt = Adam::new(lo).with_clip(5.0);
    for &lr in &lrs {
        opt.lr = lr;
        let idx: Vec<usize> = (0..batch_size.min(n)).map(|_| rng.gen_range(0..n)).collect();
        let xb = x_train.select_rows(&idx);
        let yb: Vec<usize> = idx.iter().map(|&i| y_train[i]).collect();
        let logits = model.forward(&xb);
        let (loss, grad) = softmax_cross_entropy(&logits, &yb);
        model.zero_grad();
        let _ = model.backward(&grad);
        opt.step(model);
        losses.push(loss);
        if !loss.is_finite() || loss > losses[0] * 20.0 {
            // Blown up: pad the tail so valley detection sees the cliff.
            while losses.len() < steps {
                losses.push(loss.max(losses[0] * 20.0));
            }
            break;
        }
    }
    restore_params(model, &snap);
    let used = losses.len();
    crate::lr::valley_lr(&lrs[..used], &losses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, Dense, Sequential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two Gaussian blobs in 2-D: a tiny MLP must reach high accuracy.
    fn blobs(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(n * 2);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let c = i % 2;
            let (cx, cy): (f32, f32) = if c == 0 { (-1.0, -1.0) } else { (1.0, 1.0) };
            data.push(cx + rng.gen_range(-0.5f32..0.5));
            data.push(cy + rng.gen_range(-0.5f32..0.5));
            labels.push(c);
        }
        (Tensor::from_flat(&[n, 2], data), labels)
    }

    fn mlp(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new(vec![
            Box::new(Dense::new(2, 8, &mut rng)),
            Box::new(Activation::relu()),
            Box::new(Dense::new(8, 2, &mut rng)),
        ])
    }

    #[test]
    fn trains_to_high_accuracy_on_separable_blobs() {
        let (x, y) = blobs(80, 0);
        let (xv, yv) = blobs(40, 1);
        let mut model = mlp(2);
        let cfg = TrainConfig { max_epochs: 60, batch_size: 16, patience: 15, lr: 0.02 };
        let mut rng = StdRng::seed_from_u64(3);
        let report = train_classifier(&mut model, &x, &y, &xv, &yv, &cfg, &mut rng);
        assert!(report.best_val_accuracy > 0.95, "{report:?}");
        assert!(evaluate_accuracy(&model, &xv, &yv) > 0.95);
    }

    #[test]
    fn early_stopping_halts_before_max_epochs() {
        let (x, y) = blobs(40, 4);
        let (xv, yv) = blobs(20, 5);
        let mut model = mlp(6);
        let cfg = TrainConfig { max_epochs: 500, batch_size: 16, patience: 5, lr: 0.05 };
        let mut rng = StdRng::seed_from_u64(7);
        let report = train_classifier(&mut model, &x, &y, &xv, &yv, &cfg, &mut rng);
        assert!(report.epochs_run < 500, "{}", report.epochs_run);
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let mut model = mlp(8);
        let snap = snapshot_params(&mut model);
        // Perturb.
        model.visit_params(&mut |p, _| {
            for v in p.iter_mut() {
                *v += 1.0;
            }
        });
        restore_params(&mut model, &snap);
        let now = snapshot_params(&mut model);
        assert_eq!(snap, now);
    }

    #[test]
    fn snapshot_captures_batchnorm_running_statistics() {
        use crate::layers::BatchNorm1d;
        let mut bn = BatchNorm1d::new(1);
        let x = Tensor::from_flat(&[2, 1, 2], vec![5.0, 5.0, 7.0, 7.0]);
        let _ = bn.forward(&x);
        let snap = snapshot_params(&mut bn);
        // Drift the running stats with very different data.
        let y = Tensor::from_flat(&[2, 1, 2], vec![-90.0, -90.0, -110.0, -110.0]);
        for _ in 0..50 {
            let _ = bn.forward(&y);
        }
        restore_params(&mut bn, &snap);
        // Eval-mode output on the original data must reflect the ORIGINAL
        // running stats (mean ≈ 0.6 after one step), not the drifted ones;
        // with drifted stats the normalised output would be ≈ +3 sigma.
        let out = bn.infer(&x);
        assert!(
            out.data().iter().all(|v| v.abs() < 10.0),
            "restored running stats are wrong: {:?}",
            out.data()
        );
        // And the drifted stats genuinely differ: without restore the
        // output would be far away.
        let mut drifted = BatchNorm1d::new(1);
        for _ in 0..50 {
            let _ = drifted.forward(&y);
        }
        let bad = drifted.infer(&x);
        assert!(bad.data().iter().any(|v| v.abs() > 5.0));
    }

    #[test]
    fn lr_range_test_returns_finite_rate_and_restores_params() {
        let (x, y) = blobs(60, 9);
        let mut model = mlp(10);
        let before = snapshot_params(&mut model);
        let mut rng = StdRng::seed_from_u64(11);
        let lr = lr_range_test(&mut model, &x, &y, 16, 1e-5, 1.0, 20, &mut rng);
        assert!(lr.is_finite() && lr > 0.0 && lr <= 1.0);
        let after = snapshot_params(&mut model);
        assert_eq!(before, after);
    }

    #[test]
    fn predict_classes_matches_argmax() {
        let model = mlp(12);
        let (x, _) = blobs(10, 13);
        let preds = predict_classes(&model, &x);
        assert_eq!(preds.len(), 10);
        assert!(preds.iter().all(|&p| p < 2));
    }
}

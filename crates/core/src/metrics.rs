//! Evaluation metrics: accuracy, confusion matrix, macro-F1, and the
//! paper's relative gain `G_r` (Eq. 3).

use crate::Label;

/// Fraction of positions where `predicted == actual`.
///
/// # Panics
/// Panics if the slices differ in length or are empty.
pub fn accuracy(predicted: &[Label], actual: &[Label]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "accuracy length mismatch");
    assert!(!predicted.is_empty(), "accuracy of empty predictions");
    let correct = predicted.iter().zip(actual).filter(|(p, a)| p == a).count();
    correct as f64 / predicted.len() as f64
}

/// `n_classes × n_classes` confusion matrix; `counts[actual][predicted]`.
pub fn confusion_matrix(predicted: &[Label], actual: &[Label], n_classes: usize) -> Vec<Vec<usize>> {
    assert_eq!(predicted.len(), actual.len(), "confusion length mismatch");
    let mut m = vec![vec![0usize; n_classes]; n_classes];
    for (&p, &a) in predicted.iter().zip(actual) {
        assert!(p < n_classes && a < n_classes, "label out of range");
        m[a][p] += 1;
    }
    m
}

/// Macro-averaged F1 score. Classes absent from both `actual` and
/// `predicted` are skipped (scikit-learn's behaviour with
/// `zero_division=0` averages over all classes; we average over classes
/// with any support or prediction, which is more informative on the
/// archive's very imbalanced test sets).
pub fn macro_f1(predicted: &[Label], actual: &[Label], n_classes: usize) -> f64 {
    let m = confusion_matrix(predicted, actual, n_classes);
    let mut used = 0usize;
    let sum = crate::math::sum_stable(m.iter().enumerate().filter_map(|(c, row)| {
        let tp = row[c] as f64;
        let fn_: f64 =
            crate::math::sum_stable((0..n_classes).filter(|&j| j != c).map(|j| row[j] as f64));
        let fp: f64 =
            crate::math::sum_stable((0..n_classes).filter(|&i| i != c).map(|i| m[i][c] as f64));
        if tp + fn_ + fp == 0.0 {
            return None;
        }
        used += 1;
        let denom = 2.0 * tp + fp + fn_;
        Some(if denom > 0.0 { 2.0 * tp / denom } else { 0.0 })
    }));
    if used == 0 {
        0.0
    } else {
        sum / used as f64
    }
}

/// The paper's relative gain (Eq. 3):
/// `G_r = (acc(model_aug) − acc(model)) / acc(model)`.
///
/// Returns 0 when the baseline accuracy is 0 (undefined in the paper;
/// every dataset there has a positive baseline).
pub fn relative_gain(baseline_acc: f64, augmented_acc: f64) -> f64 {
    if baseline_acc == 0.0 {
        0.0
    } else {
        (augmented_acc - baseline_acc) / baseline_acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_matches() {
        assert_eq!(accuracy(&[0, 1, 1, 0], &[0, 1, 0, 0]), 0.75);
        assert_eq!(accuracy(&[1], &[1]), 1.0);
    }

    #[test]
    fn confusion_matrix_rows_are_actual() {
        let m = confusion_matrix(&[0, 1, 1], &[0, 0, 1], 2);
        assert_eq!(m, vec![vec![1, 1], vec![0, 1]]);
    }

    #[test]
    fn macro_f1_perfect_prediction_is_one() {
        let y = [0, 1, 2, 1, 0];
        assert_eq!(macro_f1(&y, &y, 3), 1.0);
    }

    #[test]
    fn macro_f1_skips_absent_classes() {
        // Class 2 never appears in actual or predicted: ignored.
        let f1 = macro_f1(&[0, 1], &[0, 1], 3);
        assert_eq!(f1, 1.0);
    }

    #[test]
    fn macro_f1_penalises_one_sided_errors() {
        // Everything predicted as class 0.
        let f1 = macro_f1(&[0, 0, 0, 0], &[0, 0, 1, 1], 2);
        // class0: tp=2 fp=2 fn=0 → f1 = 4/6; class1: tp=0 → 0.
        assert!((f1 - (2.0 / 3.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn relative_gain_matches_eq3() {
        // Table IV EigenWorms: 89.16 → 91.15 is +2.23%.
        let g = relative_gain(89.16, 91.15);
        assert!((g * 100.0 - 2.23).abs() < 0.01, "{g}");
    }

    #[test]
    fn relative_gain_negative_when_worse() {
        assert!(relative_gain(0.9, 0.8) < 0.0);
        assert_eq!(relative_gain(0.0, 0.5), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accuracy_rejects_mismatch() {
        let _ = accuracy(&[0], &[0, 1]);
    }
}

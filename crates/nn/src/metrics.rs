//! Classification metrics.

use sagegpu_tensor::dense::Tensor;

/// Accuracy of `logits` against `labels` restricted to rows where `mask`
/// is true. Returns 0.0 when the mask selects nothing.
pub fn accuracy(logits: &Tensor, labels: &[usize], mask: &[bool]) -> f64 {
    let preds = logits.argmax_rows();
    let mut correct = 0usize;
    let mut total = 0usize;
    for r in 0..preds.len() {
        if mask[r] {
            total += 1;
            if preds[r] == labels[r] {
                correct += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        correct as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_masked_rows_only() {
        // Predictions: argmax rows = [1, 0, 1].
        let logits = Tensor::from_rows(&[&[0.1, 0.9], &[0.8, 0.2], &[0.3, 0.7]]);
        let labels = [1, 1, 1];
        assert_eq!(accuracy(&logits, &labels, &[true, true, true]), 2.0 / 3.0);
        assert_eq!(accuracy(&logits, &labels, &[true, false, true]), 1.0);
        assert_eq!(accuracy(&logits, &labels, &[false, false, false]), 0.0);
    }
}

//! Loss functions.
//!
//! Each loss returns `(scalar_loss, grad_wrt_input)` so callers can chain
//! straight into `Layer::backward`. The softmax cross-entropy is fused
//! (computed from logits) for numerical stability; its gradient is the
//! classic `softmax(logits) − one_hot(y)` averaged over the batch.

use nebula_tensor::Tensor;

/// Mean softmax cross-entropy from logits.
///
/// `logits: batch × classes`, `labels: batch` (class indices).
/// Returns `(loss, dlogits)` with the gradient already averaged over the
/// batch.
pub fn cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    assert_eq!(logits.rank(), 2, "cross_entropy expects rank-2 logits");
    assert_eq!(logits.rows(), labels.len(), "labels/batch mismatch");
    let batch = logits.rows();
    assert!(batch > 0, "cross_entropy on empty batch");
    let classes = logits.cols();

    let log_probs = logits.log_softmax_rows();
    let mut loss = 0.0f32;
    let mut grad = log_probs.map(f32::exp); // softmax probabilities
    for (i, &y) in labels.iter().enumerate() {
        assert!(y < classes, "label {y} out of range for {classes} classes");
        loss -= log_probs.at(i, y);
        *grad.at_mut(i, y) -= 1.0;
    }
    let scale = 1.0 / batch as f32;
    grad.scale_assign(scale);
    (loss * scale, grad)
}

/// Mean squared error and its gradient w.r.t. predictions.
pub fn mse(pred: &Tensor, target: &Tensor) -> (f32, Tensor) {
    assert_eq!(pred.shape(), target.shape(), "mse shape mismatch");
    let n = pred.len().max(1) as f32;
    let diff = pred.sub(target);
    let loss = diff.norm_sq() / n;
    let grad = diff.scale(2.0 / n);
    (loss, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nebula_tensor::{assert_close, Tensor};

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let logits = Tensor::matrix(&[&[10.0, -10.0], &[-10.0, 10.0]]);
        let (loss, _) = cross_entropy(&logits, &[0, 1]);
        assert!(loss < 1e-3, "loss {loss}");
    }

    #[test]
    fn cross_entropy_of_uniform_logits_is_ln_classes() {
        let logits = Tensor::zeros(&[3, 4]);
        let (loss, _) = cross_entropy(&logits, &[0, 1, 2]);
        assert_close(loss, (4.0f32).ln(), 1e-5);
    }

    #[test]
    fn cross_entropy_grad_is_softmax_minus_onehot() {
        let logits = Tensor::matrix(&[&[1.0, 2.0, 3.0]]);
        let (_, grad) = cross_entropy(&logits, &[2]);
        let probs = logits.softmax_rows();
        assert_close(grad.at(0, 0), probs.at(0, 0), 1e-5);
        assert_close(grad.at(0, 2), probs.at(0, 2) - 1.0, 1e-5);
        // Gradient rows of CE always sum to zero.
        assert_close(grad.row(0).iter().sum::<f32>(), 0.0, 1e-5);
    }

    #[test]
    fn cross_entropy_grad_matches_finite_difference() {
        let logits = Tensor::matrix(&[&[0.3, -0.7, 1.2], &[2.0, 0.1, -0.4]]);
        let labels = [1usize, 0];
        let (_, grad) = cross_entropy(&logits, &labels);
        let eps = 1e-3;
        for i in 0..2 {
            for j in 0..3 {
                let mut plus = logits.clone();
                *plus.at_mut(i, j) += eps;
                let mut minus = logits.clone();
                *minus.at_mut(i, j) -= eps;
                let (lp, _) = cross_entropy(&plus, &labels);
                let (lm, _) = cross_entropy(&minus, &labels);
                let fd = (lp - lm) / (2.0 * eps);
                assert!((fd - grad.at(i, j)).abs() < 1e-3, "({i},{j}): fd {fd} vs {}", grad.at(i, j));
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cross_entropy_rejects_bad_label() {
        cross_entropy(&Tensor::zeros(&[1, 3]), &[5]);
    }

    #[test]
    fn mse_basics() {
        let pred = Tensor::vector(&[1.0, 2.0]);
        let target = Tensor::vector(&[0.0, 0.0]);
        let (loss, grad) = mse(&pred, &target);
        assert_close(loss, 2.5, 1e-6);
        assert_eq!(grad.data(), &[1.0, 2.0]);
    }
}

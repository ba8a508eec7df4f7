//! Training loss: negative log-likelihood against random labels.
//!
//! The paper's training methodology (§4.1): "to obtain a loss, we compute
//! the negative log-likelihood loss by comparing the output with a
//! precomputed random label tensor."

use hector_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

/// Loss value and the gradient w.r.t. the logits.
#[derive(Clone, Debug)]
pub struct LossResult {
    /// Mean negative log-likelihood.
    pub loss: f32,
    /// `d loss / d logits`, same shape as the logits.
    pub grad: Tensor,
}

/// Computes mean NLL loss (with an internal log-softmax) and its gradient.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the number of logit rows or any
/// label is out of range.
#[must_use]
pub fn nll_loss_and_grad(logits: &Tensor, labels: &[usize]) -> LossResult {
    assert_eq!(logits.rank(), 2);
    let (m, n) = (logits.shape()[0], logits.shape()[1]);
    let mut grad = Tensor::zeros(&[m, n]);
    let loss = nll_loss_and_grad_into(logits, labels, grad.data_mut());
    LossResult { loss, grad }
}

/// Allocation-free core of [`nll_loss_and_grad`]: writes the gradient
/// into `grad` (a `rows × classes` row-major slice, fully overwritten)
/// and returns the loss. A training step calls this with the run plan's
/// staging buffer, so a warm step never touches the heap.
///
/// # Panics
///
/// Panics if `labels`/`grad` sizes disagree with the logits or any label
/// is out of range.
#[must_use]
pub fn nll_loss_and_grad_into(logits: &Tensor, labels: &[usize], grad: &mut [f32]) -> f32 {
    assert_eq!(logits.rank(), 2);
    let (m, n) = (logits.shape()[0], logits.shape()[1]);
    assert_eq!(labels.len(), m, "one label per row");
    assert_eq!(grad.len(), m * n, "gradient buffer shape mismatch");
    let mut loss = 0.0f64;
    for (i, &label) in labels.iter().enumerate().take(m) {
        let row = logits.row(i);
        assert!(label < n, "label {label} out of range for {n} classes");
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for &v in row {
            sum += (v - max).exp();
        }
        let log_sum = sum.ln() + max;
        loss += f64::from(log_sum - row[label]);
        let g = &mut grad[i * n..(i + 1) * n];
        for j in 0..n {
            let softmax = (row[j] - log_sum).exp();
            g[j] = (softmax - if j == label { 1.0 } else { 0.0 }) / m as f32;
        }
    }
    (loss / m as f64) as f32
}

/// Generates the paper's "precomputed random label tensor": one class id
/// per node, seeded.
#[must_use]
pub fn random_labels(rng: &mut StdRng, count: usize, classes: usize) -> Vec<usize> {
    (0..count).map(|_| rng.gen_range(0..classes)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hector_tensor::seeded_rng;

    #[test]
    fn perfect_prediction_has_low_loss() {
        let logits = Tensor::from_vec(vec![10.0, -10.0, -10.0, 10.0], &[2, 2]);
        let r = nll_loss_and_grad(&logits, &[0, 1]);
        assert!(r.loss < 1e-3);
    }

    #[test]
    fn uniform_prediction_loss_is_log_n() {
        let logits = Tensor::zeros(&[4, 8]);
        let r = nll_loss_and_grad(&logits, &[0, 1, 2, 3]);
        assert!((r.loss - (8.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn grad_rows_sum_to_zero() {
        let logits = Tensor::from_vec(vec![0.3, -0.2, 1.0, 0.5, 0.1, -0.6], &[2, 3]);
        let r = nll_loss_and_grad(&logits, &[2, 0]);
        for i in 0..2 {
            let s: f32 = r.grad.row(i).iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn grad_matches_finite_difference() {
        let mut logits = Tensor::from_vec(vec![0.5, -1.0, 0.25, 0.75], &[2, 2]);
        let labels = [1usize, 0];
        let base = nll_loss_and_grad(&logits, &labels);
        let eps = 1e-3;
        for i in 0..4 {
            let orig = logits.data()[i];
            logits.data_mut()[i] = orig + eps;
            let up = nll_loss_and_grad(&logits, &labels).loss;
            logits.data_mut()[i] = orig - eps;
            let down = nll_loss_and_grad(&logits, &labels).loss;
            logits.data_mut()[i] = orig;
            let fd = (up - down) / (2.0 * eps);
            assert!(
                (fd - base.grad.data()[i]).abs() < 1e-3,
                "fd {fd} vs analytic {}",
                base.grad.data()[i]
            );
        }
    }

    #[test]
    fn random_labels_in_range() {
        let mut rng = seeded_rng(9);
        let labels = random_labels(&mut rng, 100, 7);
        assert_eq!(labels.len(), 100);
        assert!(labels.iter().all(|&l| l < 7));
    }
}

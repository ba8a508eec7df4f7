//! Training loss: negative log-likelihood against random labels.
//!
//! The paper's training methodology (§4.1): "to obtain a loss, we compute
//! the negative log-likelihood loss by comparing the output with a
//! precomputed random label tensor."
//!
//! # Numerics
//!
//! Each logit costs one `exp`. A row writes `e_j = exp(v_j − max)` into
//! its gradient row once and sums the row with the label's term held out
//! (`others`); every other entry becomes `e_j / sum`, the label's
//! `−others / sum`, and the row's log-sum `ln_1p((e_label − 1) + others)`,
//! so neither `1 − softmax` nor a log-sum near `ln 1` loses digits to
//! cancellation. The row max and the row sum fold [`LANES`] fixed
//! partials, so the row vectorises and its bits depend on the row alone;
//! where the host has AVX2 the same body runs compiled for it — the same
//! IEEE operations in the same order, so the same bits. Threads, backends
//! and shards all call this one function, so they agree bit for bit.
//!
//! The `exp` is [`exp_nonpos`], branch-free for `x ≤ 0`: Cody–Waite
//! reduction by ln 2 (`x = n·ln 2 + r`, `|r| ≲ ln 2 / 2`, `ln 2` split in
//! a short high part and a low correction), Cephes' `expf` polynomial
//! `e^r ≈ 1 + r + r²·P(r)` (`P` of degree 5, so degree 7 in all), and
//! `2ⁿ` assembled from its exponent bits — no float-to-int cast. Its
//! relative error on `[−87.3, 0]` is below 2.4e-7 (8.0e-8 measured, about
//! one ulp; the tests sweep it against `f64::exp`), and
//! `exp_nonpos(0.0)` is exactly `1.0`. Inputs are clamped from below at
//! `−87.33`, so `−inf` yields about `1.18e-38` rather than `0`; a NaN
//! passes the clamp and the polynomial as NaN.
//!
//! Against an `f64` reference the loss and every gradient entry stay
//! within 1e-6 relative (absolute floor 1e-9). The bits are not a libm
//! `expf`'s: against the former formulation (two `expf` per logit,
//! `softmax − 1` by subtraction) they move by up to about 1.4e-6 relative
//! on logits within ±4, and further where that formulation lost digits
//! itself (3e-5 at ±30).
//!
//! A row holding NaN or `+inf` yields a NaN loss and an all-NaN gradient
//! row: `+inf − max` is `inf − inf`, and either way the row sum is NaN.

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
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the host supports AVX2, detected just above.
        return (unsafe { loss_rows_avx2(logits, labels, grad) } / m as f64) as f32;
    }
    (loss_rows(logits, labels, grad) / m as f64) as f32
}

/// [`loss_rows`] compiled for 256-bit registers: the same IEEE operations in
/// the same order, so the same bits.
///
/// # Safety
///
/// The host supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn loss_rows_avx2(logits: &Tensor, labels: &[usize], grad: &mut [f32]) -> f64 {
    loss_rows(logits, labels, grad)
}

/// The summed loss of every row, writing each gradient row.
#[inline(always)]
fn loss_rows(logits: &Tensor, labels: &[usize], grad: &mut [f32]) -> f64 {
    let (m, n) = (logits.shape()[0], logits.shape()[1]);
    let mut loss = 0.0f64;
    for (i, &label) in labels.iter().enumerate().take(m) {
        let row = logits.row(i);
        assert!(label < n, "label {label} out of range for {n} classes");
        let max = lane_fold(row, f32::NEG_INFINITY, |a, v| if v > a { v } else { a });
        let g = &mut grad[i * n..(i + 1) * n];
        for (e, &v) in g.iter_mut().zip(row) {
            *e = exp_nonpos(v - max);
        }
        // The label's term is held out of the sum, so `1 − softmax` and
        // a log-sum near `ln 1` come without cancellation.
        let e_label = std::mem::replace(&mut g[label], 0.0);
        let others = lane_fold(g, 0.0, |a, e| a + e);
        let sum = others + e_label;
        // −ln softmax = ln sum + (max − v_label), both terms ≥ 0. For
        // `e_label ≥ ½` (the only case where `ln sum` can be small beside
        // the second term) `e_label − 1` is exact.
        let log_sum = ((e_label - 1.0) + others).ln_1p();
        loss += f64::from(log_sum) + (f64::from(max) - f64::from(row[label]));
        for e in g.iter_mut() {
            *e = *e / sum / m as f32;
        }
        g[label] = -(others / sum) / m as f32;
    }
    loss
}

/// Width of the fixed partials a row's max and sum fold over: one
/// 256-bit register of `f32`s.
const LANES: usize = 8;

/// Folds `row` with `f` over [`LANES`] partials (element `j` into
/// partial `j % LANES`, the ragged tail last), then folds the partials
/// in ascending order: a fixed order, so the result depends on the row
/// alone, and one the compiler can vectorise.
#[inline(always)]
fn lane_fold(row: &[f32], init: f32, f: impl Fn(f32, f32) -> f32) -> f32 {
    let mut acc = [init; LANES];
    let mut chunks = row.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (a, &v) in acc.iter_mut().zip(chunk) {
            *a = f(*a, v);
        }
    }
    let head = acc.into_iter().fold(init, &f);
    chunks.remainder().iter().fold(head, |a, &v| f(a, v))
}

/// `e^x` for `x ≤ 0` (and NaN), branch-free: see the module docs for the
/// method and its error bound. Multiplies, then adds — never a fused
/// multiply-add.
#[inline(always)]
fn exp_nonpos(x: f32) -> f32 {
    /// Clamp floor, just above `ln 2⁻¹²⁶ ≈ −87.3365`: `2ⁿ` stays normal
    /// and `e^x` at least `f32::MIN_POSITIVE`.
    const X_MIN: f32 = -87.33;
    /// `1.5 · 2²³`: adding it rounds `x · log₂e` to an integer held in
    /// the low mantissa bits.
    const ROUND: f32 = 12_582_912.0;
    /// `ln 2` split Cody–Waite style: a high part with 9 significant
    /// bits (so `n · LN2_HI` is exact) and the low remainder.
    const LN2_HI: f32 = 355.0 / 512.0;
    const LN2_LO: f32 = -2.121_944_4e-4;
    /// Cephes' `expf` coefficients of `P`, highest degree first.
    const P: [f32; 6] = [
        1.987_569_1e-4,
        1.398_199_9e-3,
        8.333_452e-3,
        4.166_579_6e-2,
        0.166_666_66,
        0.5,
    ];
    // Written so a NaN `x` is kept (`x < X_MIN` is false for NaN).
    let x = if x < X_MIN { X_MIN } else { x };
    let t = x * std::f32::consts::LOG2_E + ROUND;
    let nf = t - ROUND;
    let r = (x - nf * LN2_HI) - nf * LN2_LO;
    let p = P.iter().skip(1).fold(P[0], |acc, &c| acc * r + c);
    let er = p * (r * r) + r + 1.0;
    // `n + 127` in the exponent field: `t`'s bits are `ROUND`'s plus `n`.
    let biased = t.to_bits().wrapping_sub(ROUND.to_bits()).wrapping_add(127);
    er * f32::from_bits(biased << 23)
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
    use proptest::prelude::*;

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
    fn exp_nonpos_tracks_f64_exp() {
        // A dense sweep of [−87.3, 0] plus the tiny magnitudes near zero.
        let steps = 1 << 21;
        let sweep = (0..=steps).map(|i| -87.3 * i as f32 / steps as f32);
        let tiny = [-1e-30f32, -f32::MIN_POSITIVE, -1e-10, -1e-7, -6e-8];
        let mut worst = 0.0f64;
        for x in sweep.chain(tiny) {
            let want = f64::from(x).exp();
            let rel = ((f64::from(exp_nonpos(x)) - want) / want).abs();
            worst = worst.max(rel);
            assert!(rel <= 2.4e-7, "exp_nonpos({x}) off by {rel:e} relative");
        }
        eprintln!("exp_nonpos worst relative error {worst:e}");
        assert_eq!(exp_nonpos(0.0), 1.0);
        assert_eq!(exp_nonpos(-0.0), 1.0);
        assert!(exp_nonpos(f32::NAN).is_nan());
        let floor = exp_nonpos(f32::NEG_INFINITY);
        assert!(
            (0.0..=1.2e-38).contains(&floor),
            "exp_nonpos(-inf) = {floor:e}"
        );
    }

    /// Mean NLL loss and its gradient in `f64` from the `f32` logits.
    fn reference(logits: &[f32], labels: &[usize], n: usize) -> (f64, Vec<f64>) {
        let m = labels.len() as f64;
        let mut grad = Vec::with_capacity(logits.len());
        let mut loss = 0.0;
        for (row, &label) in logits.chunks_exact(n).zip(labels) {
            let row: Vec<f64> = row.iter().map(|&v| f64::from(v)).collect();
            let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let sum: f64 = row.iter().map(|&v| (v - max).exp()).sum();
            loss += sum.ln() + max - row[label];
            for (j, &v) in row.iter().enumerate() {
                let onehot = if j == label { 1.0 } else { 0.0 };
                grad.push(((v - max).exp() / sum - onehot) / m);
            }
        }
        (loss / m, grad)
    }

    /// `got` within 1e-6 relative of `want`, with an absolute floor of
    /// 1e-9.
    fn close(got: f32, want: f64) -> bool {
        (f64::from(got) - want).abs() <= (1e-6 * want.abs()).max(1e-9)
    }

    #[test]
    fn a_near_certain_label_keeps_its_digits() {
        // softmax(label) = 1 − 6.8e-7: `1 − softmax` by subtraction, or a
        // log-sum of a sum rounded near 1, would be off by percents.
        let data = vec![8.0, -8.0, -8.0, -8.0, -8.0, -8.0, -8.0];
        let r = nll_loss_and_grad(&Tensor::from_vec(data.clone(), &[1, 7]), &[0]);
        let (loss, grad) = reference(&data, &[0], 7);
        assert!(close(r.loss, loss), "loss {:e} vs {loss:e}", r.loss);
        assert!(
            close(r.grad.data()[0], grad[0]),
            "{:e} vs {:e}",
            r.grad.data()[0],
            grad[0]
        );
    }

    proptest! {
        #[test]
        fn loss_and_grad_track_an_f64_reference(
            n in prop_oneof![Just(1usize), Just(7), Just(8), Just(9), Just(64), Just(65)],
            m in 1usize..5,
            seed in 0u64..1_000_000,
            spread in prop_oneof![Just(1.0f32), Just(4.0), Just(30.0)],
            poison in 0usize..4,
        ) {
            let mut rng = seeded_rng(seed);
            let mut data: Vec<f32> = (0..m * n).map(|_| rng.gen_range(-spread..spread)).collect();
            let labels = random_labels(&mut rng, m, n);
            // Cases 1 and 2 poison one row with NaN or +inf.
            let poisoned = (poison > 0 && poison < 3).then(|| rng.gen_range(0..m));
            if let Some(row) = poisoned {
                let j = rng.gen_range(0..n);
                data[row * n + j] = if poison == 1 { f32::NAN } else { f32::INFINITY };
            }
            let logits = Tensor::from_vec(data.clone(), &[m, n]);
            let got = nll_loss_and_grad(&logits, &labels);
            // The host's widest instantiation and the plain one agree bit
            // for bit (NaNs by position).
            let mut plain = vec![0.0; m * n];
            let plain_loss = (loss_rows(&logits, &labels, &mut plain) / m as f64) as f32;
            let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
            prop_assert!(same(got.loss, plain_loss), "loss {} vs plain {plain_loss}", got.loss);
            prop_assert!(got.grad.data().iter().zip(&plain).all(|(&a, &b)| same(a, b)));
            let (loss, grad) = reference(&data, &labels, n);
            if let Some(bad) = poisoned {
                prop_assert!(got.loss.is_nan(), "poisoned row must give a NaN loss");
                for i in 0..m {
                    let row = got.grad.row(i);
                    if i == bad {
                        prop_assert!(row.iter().all(|g| g.is_nan()), "row {i}: {row:?}");
                    } else {
                        prop_assert!(row.iter().all(|g| g.is_finite()), "row {i}: {row:?}");
                    }
                }
                return;
            }
            prop_assert!(close(got.loss, loss), "loss {} vs {loss}", got.loss);
            for (j, (&g, &want)) in got.grad.data().iter().zip(&grad).enumerate() {
                prop_assert!(close(g, want), "grad[{j}] {g:e} vs {want:e} (n {n}, m {m})");
            }
            for i in 0..m {
                let s: f64 = got.grad.row(i).iter().map(|&g| f64::from(g)).sum();
                prop_assert!(s.abs() <= 1e-6 / m as f64, "row {i} sums to {s:e}");
            }
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

//! The two dense helpers outside the tiles: an elementwise map on
//! [`Tensor`] and a plain `out = x · w` over slices.

use crate::microkernel::{gemm_rows, Isa};
use crate::Tensor;

impl Tensor {
    /// Applies `f` to every element, producing a new tensor.
    #[must_use]
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let data = self.data().iter().map(|&x| f(x)).collect();
        Tensor::from_vec(data, self.shape())
    }
}

/// `out = x · w` for row-major `x [m, k]`, `w [k, n]` and `out [m, n]`,
/// on the production segment tiles ([`gemm_rows`] at [`Isa::best`]).
/// `out` is overwritten: each element sums from `+0.0` in ascending `k`
/// without skipping zeros, so `0 × inf` is `NaN`. With `k == 0` every
/// output is the empty sum, `+0.0`.
///
/// # Panics
///
/// Panics if the slices disagree with `m`/`k`/`n`.
pub fn matmul_into(x: &[f32], w: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(x.len(), m * k);
    assert_eq!(w.len(), k * n);
    assert_eq!(out.len(), m * n);
    if k == 0 {
        out.fill(0.0);
        return;
    }
    gemm_rows(Isa::best(), x.chunks_exact(k), w, n, out);
}

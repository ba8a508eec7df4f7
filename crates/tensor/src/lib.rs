//! Dense tensor substrate for the Hector RGNN compiler.
//!
//! This crate is the dense layer every other Hector crate builds on: a
//! row-major `f32` [`Tensor`] of rank one to three (feature matrices,
//! per-type weight stacks, per-row scalars), seeded randomness, and the
//! register-tiled GEMM [`microkernel`]s.
//!
//! The paper's point is that two templates — one GEMM, one traversal —
//! replace a per-operator kernel library, and this crate keeps to it:
//! there is one optimised GEMM family, the segment tiles
//! ([`microkernel::gemm_rows`], [`microkernel::outer_rows`]) that the
//! runtime's GEMM kernels run, plus the scalar row loops they are pinned
//! against bit for bit. [`matmul_into`] is a plain `out = x · w` over the
//! same tiles.
//!
//! Everything is deterministic and CPU-only: Hector's simulated GPU executes
//! kernels functionally through this crate while a separate cost model
//! accounts simulated time (see the `hector-device` crate).
//!
//! # Example
//!
//! ```
//! use hector_tensor::{matmul_into, Tensor};
//!
//! let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let w = [1.0, 0.0, 0.0, 1.0]; // the 2 × 2 identity
//! let mut y = [f32::NAN; 4]; // overwritten
//! matmul_into(x.data(), &w, &mut y, 2, 2, 2);
//! assert_eq!(y, [1.0, 2.0, 3.0, 4.0]);
//! ```

#![warn(missing_docs)]

pub mod microkernel;
mod ops;
mod random;
mod tensor;

pub use ops::matmul_into;
pub use random::{seeded_rng, xavier_uniform};
pub use tensor::Tensor;

/// Tolerance-aware float comparison used across Hector's test suites.
///
/// Returns `true` when `a` and `b` are within `atol + rtol * |b|` of each
/// other, mirroring the semantics of `numpy.allclose` for a single pair.
#[must_use]
pub fn approx_eq(a: f32, b: f32, rtol: f32, atol: f32) -> bool {
    if a.is_nan() || b.is_nan() {
        return false;
    }
    (a - b).abs() <= atol + rtol * b.abs()
}

/// Asserts two tensors are elementwise close; panics with context otherwise.
///
/// # Panics
///
/// Panics if shapes differ or any element pair violates the tolerance.
pub fn assert_close(a: &Tensor, b: &Tensor, rtol: f32, atol: f32) {
    assert_eq!(
        a.shape(),
        b.shape(),
        "shape mismatch: {:?} vs {:?}",
        a.shape(),
        b.shape()
    );
    for (i, (&x, &y)) in a.data().iter().zip(b.data().iter()).enumerate() {
        assert!(
            approx_eq(x, y, rtol, atol),
            "tensors differ at flat index {i}: {x} vs {y} (rtol={rtol}, atol={atol})"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_basic() {
        assert!(approx_eq(1.0, 1.0 + 1e-7, 1e-5, 1e-6));
        assert!(!approx_eq(1.0, 1.1, 1e-5, 1e-6));
        assert!(!approx_eq(f32::NAN, f32::NAN, 1e-5, 1e-6));
    }

    #[test]
    fn assert_close_passes_on_identical() {
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        assert_close(&t, &t.clone(), 1e-6, 1e-6);
    }

    #[test]
    #[should_panic(expected = "tensors differ")]
    fn assert_close_panics_on_difference() {
        let a = Tensor::from_vec(vec![1.0], &[1]);
        let b = Tensor::from_vec(vec![2.0], &[1]);
        assert_close(&a, &b, 1e-6, 1e-6);
    }
}

//! The core [`Tensor`] type: a row-major, owned `f32` buffer with shape.

use std::fmt;

/// A dense, row-major, owned `f32` tensor of rank 1 to 3.
///
/// `Tensor` is deliberately simple: RGNN workloads in Hector only need 2-D
/// feature matrices, 3-D per-type weight stacks, and 1-D scalars-per-row
/// vectors. Contiguous row-major storage keeps gather/scatter kernels and
/// the GEMM inner loops straightforward and cache-friendly.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Default for Tensor {
    /// An empty rank-0 placeholder (no storage, no heap allocation) —
    /// what `std::mem::take` leaves behind while a store computes into a
    /// temporarily detached tensor.
    fn default() -> Self {
        Tensor {
            shape: Vec::new(),
            data: Vec::new(),
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let preview: Vec<f32> = self.data.iter().copied().take(8).collect();
        write!(
            f,
            "Tensor{{shape: {:?}, data[..8]: {:?}}}",
            self.shape, preview
        )
    }
}

impl Tensor {
    /// Creates a tensor from `data` with the given `shape`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    #[must_use]
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let expected: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            expected,
            "shape/data mismatch: shape {shape:?} expects {expected} elements"
        );
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Creates a zero-filled tensor of the given shape.
    #[must_use]
    pub fn zeros(shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; n],
        }
    }

    /// Reshapes the tensor in place to `shape` and zero-fills it,
    /// reusing the existing allocation when its capacity suffices.
    /// Returns `true` if the data buffer had to grow (i.e. this call
    /// allocated) — callers that account scratch growth key off it.
    pub fn reset_shape_zeroed(&mut self, shape: &[usize]) -> bool {
        let n: usize = shape.iter().product();
        let grew = n > self.data.capacity();
        self.data.clear();
        self.data.resize(n, 0.0);
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        grew
    }

    /// Creates a tensor filled with `value`.
    #[must_use]
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n: usize = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![value; n],
        }
    }

    /// The tensor's shape.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Rank (number of dimensions).
    #[must_use]
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of rows, treating the tensor as a matrix (first dimension).
    ///
    /// # Panics
    ///
    /// Panics on rank-0 tensors (which cannot be constructed anyway).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.shape[0]
    }

    /// Number of columns of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    #[must_use]
    pub fn cols(&self) -> usize {
        assert_eq!(self.rank(), 2, "cols() requires a rank-2 tensor");
        self.shape[1]
    }

    /// Elements per row — the product of every dimension after the
    /// first, i.e. the row stride of [`Tensor::row`]/[`Tensor::row_mut`].
    #[must_use]
    #[inline]
    pub fn width(&self) -> usize {
        self.shape[1..].iter().product()
    }

    /// Immutable view of the underlying storage.
    #[must_use]
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying storage.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor for rank-2 tensors.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or indices are out of range.
    #[must_use]
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        assert_eq!(self.rank(), 2);
        self.data[i * self.shape[1] + j]
    }

    /// Element accessor for rank-3 tensors.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 3 or indices are out of range.
    #[must_use]
    pub fn at3(&self, b: usize, i: usize, j: usize) -> f32 {
        assert_eq!(self.rank(), 3);
        self.data[(b * self.shape[1] + i) * self.shape[2] + j]
    }

    /// Borrows row `i` of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `i` is out of range.
    #[must_use]
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        assert_eq!(self.rank(), 2);
        let c = self.shape[1];
        &self.data[i * c..(i + 1) * c]
    }

    /// Mutably borrows row `i` of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `i` is out of range.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert_eq!(self.rank(), 2);
        let c = self.shape[1];
        &mut self.data[i * c..(i + 1) * c]
    }

    /// Borrows slice `b` (an `[rows, cols]` matrix) of a rank-3 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 3 or `b` is out of range.
    #[must_use]
    #[inline]
    pub fn slab(&self, b: usize) -> &[f32] {
        assert_eq!(self.rank(), 3);
        let sz = self.shape[1] * self.shape[2];
        &self.data[b * sz..(b + 1) * sz]
    }

    /// Copies `src` into row `i`.
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch or the tensor is not rank 2.
    #[inline]
    pub fn set_row(&mut self, i: usize, src: &[f32]) {
        let dst = self.row_mut(i);
        assert_eq!(dst.len(), src.len());
        dst.copy_from_slice(src);
    }

    /// Bytes occupied by the tensor payload (`4 * len`), used by the
    /// simulated device's memory accounting.
    #[must_use]
    pub fn byte_size(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.at2(1, 2), 6.0);
        assert_eq!(t.row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn rank3_accessors() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[2, 3, 4]);
        assert_eq!(t.at3(1, 2, 3), 23.0);
        assert_eq!(t.slab(1).len(), 12);
        assert_eq!(t.slab(1)[0], 12.0);
    }

    #[test]
    fn set_row_writes() {
        let mut t = Tensor::zeros(&[2, 2]);
        t.set_row(1, &[5.0, 6.0]);
        assert_eq!(t.row(1), &[5.0, 6.0]);
        assert_eq!(t.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn byte_size_counts_f32() {
        assert_eq!(Tensor::zeros(&[3, 3]).byte_size(), 36);
    }
}

//! Element-wise and broadcasting operations on [`Tensor`].
//!
//! Two broadcasting forms are supported, matching exactly what the NN stack
//! needs: same-shape element-wise ops, and rank-2 ⊕ rank-1 row broadcasting
//! (a bias vector applied to every row of a batch).

use crate::Tensor;

impl Tensor {
    /// Element-wise sum; shapes must match.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// Element-wise difference; shapes must match.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// In-place element-wise sum.
    pub fn add_assign(&mut self, other: &Tensor) {
        self.zip_assign(other, |a, b| *a += b);
    }

    /// In-place `self += alpha * other` (axpy). The workhorse of SGD updates
    /// and weighted model aggregation.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data_mut().iter_mut().zip(other.data().iter()) {
            *a += alpha * b;
        }
    }

    /// Scales every element by `alpha`, returning a new tensor.
    pub fn scale(&self, alpha: f32) -> Tensor {
        self.map(|v| v * alpha)
    }

    /// Scales every element in place.
    pub fn scale_assign(&mut self, alpha: f32) {
        self.data_mut().iter_mut().for_each(|v| *v *= alpha);
    }

    /// Adds a scalar to every element, returning a new tensor.
    pub fn add_scalar(&self, alpha: f32) -> Tensor {
        self.map(|v| v + alpha)
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor::from_vec(self.data().iter().map(|&v| f(v)).collect(), self.shape())
    }

    /// Combines two same-shape tensors element-wise with `f`.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape(),
            other.shape(),
            "zip shape mismatch: {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        let data = self.data().iter().zip(other.data().iter()).map(|(&a, &b)| f(a, b)).collect();
        Tensor::from_vec(data, self.shape())
    }

    /// In-place binary combiner.
    fn zip_assign(&mut self, other: &Tensor, f: impl Fn(&mut f32, f32)) {
        assert_eq!(self.shape(), other.shape(), "zip_assign shape mismatch");
        for (a, &b) in self.data_mut().iter_mut().zip(other.data().iter()) {
            f(a, b);
        }
    }

    /// Adds a rank-1 `bias` to every row of a rank-2 tensor, in place.
    pub fn add_row_broadcast_assign(&mut self, bias: &Tensor) {
        assert_eq!(self.rank(), 2, "add_row_broadcast_assign needs a rank-2 receiver");
        assert_eq!(bias.rank(), 1, "bias must be rank-1");
        assert_eq!(self.cols(), bias.len(), "bias length must match columns");
        let c = self.cols();
        for row in self.data_mut().chunks_mut(c) {
            for (v, &b) in row.iter_mut().zip(bias.data()) {
                *v += b;
            }
        }
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Tensor {
        self.map(|v| v.max(0.0))
    }

    /// Clamps every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|v| v.clamp(lo, hi))
    }

    /// Dot product between two rank-1 tensors (or flattened tensors of equal
    /// length).
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.len(), other.len(), "dot length mismatch");
        self.data().iter().zip(other.data()).map(|(&a, &b)| a * b).sum()
    }
}

/// Dot product of two slices; shared helper used by the linalg kernels.
#[inline]
pub fn dot_slices(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    // Four-lane manual unrolling: measurably faster than the naive zip-sum
    // under rustc's default vectorisation for the sizes Nebula uses
    // (64–1024 element rows), per the perf-book guidance of helping LLVM
    // with reduction dependencies.
    let mut acc0 = 0.0f32;
    let mut acc1 = 0.0f32;
    let mut acc2 = 0.0f32;
    let mut acc3 = 0.0f32;
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        acc0 += a[j] * b[j];
        acc1 += a[j + 1] * b[j + 1];
        acc2 += a[j + 2] * b[j + 2];
        acc3 += a[j + 3] * b[j + 3];
    }
    let mut acc = acc0 + acc1 + acc2 + acc3;
    for j in chunks * 4..a.len() {
        acc += a[j] * b[j];
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_tensor_close;

    #[test]
    fn add_sub() {
        let a = Tensor::vector(&[1.0, 2.0, 3.0]);
        let b = Tensor::vector(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::vector(&[1.0, 1.0]);
        let b = Tensor::vector(&[2.0, 4.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[2.0, 3.0]);
    }

    #[test]
    fn scale_and_add_scalar() {
        let a = Tensor::vector(&[1.0, -2.0]);
        assert_eq!(a.scale(3.0).data(), &[3.0, -6.0]);
        assert_eq!(a.add_scalar(1.0).data(), &[2.0, -1.0]);
    }

    #[test]
    fn row_broadcasts() {
        let x = Tensor::matrix(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::vector(&[10.0, 20.0]);
        let mut y = x.clone();
        y.add_row_broadcast_assign(&b);
        assert_eq!(y.data(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    #[should_panic(expected = "bias length must match")]
    fn broadcast_rejects_bad_bias() {
        Tensor::zeros(&[2, 3]).add_row_broadcast_assign(&Tensor::zeros(&[2]));
    }

    #[test]
    fn relu_clamps_negatives() {
        let a = Tensor::vector(&[-1.0, 0.0, 2.0]);
        assert_eq!(a.relu().data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn clamp_bounds() {
        let a = Tensor::vector(&[-5.0, 0.5, 5.0]);
        assert_eq!(a.clamp(-1.0, 1.0).data(), &[-1.0, 0.5, 1.0]);
    }

    #[test]
    fn dot_matches_manual() {
        let a = Tensor::vector(&[1.0, 2.0, 3.0]);
        let b = Tensor::vector(&[4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b), 32.0);
    }

    #[test]
    fn dot_slices_matches_naive_on_odd_lengths() {
        let a: Vec<f32> = (0..13).map(|i| i as f32 * 0.5).collect();
        let b: Vec<f32> = (0..13).map(|i| (13 - i) as f32).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        crate::assert_close(dot_slices(&a, &b), naive, 1e-5);
    }

    #[test]
    fn map_and_zip_preserve_shape() {
        let a = Tensor::zeros(&[2, 3]);
        let b = a.map(|v| v + 1.0);
        assert_eq!(b.shape(), &[2, 3]);
        assert_tensor_close(&b, &Tensor::ones(&[2, 3]), 0.0);
    }
}

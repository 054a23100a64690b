//! The core [`Tensor`] type: row-major dense `f32` storage with a dynamic
//! shape. Rank-1 and rank-2 tensors cover everything the Nebula training
//! stack needs; ranks up to [`MAX_RANK`] are supported for storage but
//! most linear algebra is defined on rank ≤ 2.

use std::fmt;

/// Highest rank a [`Tensor`] can have: its shape is stored inline, so a
/// tensor is one heap allocation (the values), not two.
pub const MAX_RANK: usize = 4;

/// A shape of rank ≤ [`MAX_RANK`], stored inline. Unused trailing
/// dimensions are always zero, so derived equality compares shapes.
#[derive(Clone, Copy, PartialEq)]
struct Shape {
    dims: [usize; MAX_RANK],
    rank: u8,
}

impl Shape {
    fn new(shape: &[usize]) -> Self {
        assert!(shape.len() <= MAX_RANK, "rank-{} shape {shape:?} exceeds MAX_RANK {MAX_RANK}", shape.len());
        let mut dims = [0; MAX_RANK];
        dims[..shape.len()].copy_from_slice(shape);
        Self { dims, rank: shape.len() as u8 }
    }

    #[inline]
    fn as_slice(&self) -> &[usize] {
        &self.dims[..self.rank as usize]
    }
}

/// A dense, row-major `f32` tensor.
///
/// Cloning a tensor copies its buffer; the training stack relies on this for
/// snapshotting model parameters before aggregation, so buffers are kept as
/// plain `Vec<f32>` rather than reference-counted slabs.
/// [`Clone::clone_from`] reuses the receiver's buffer, which is how layers
/// refill an activation cache without visiting the allocator.
#[derive(PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Self { data: self.data.clone(), shape: self.shape }
    }

    fn clone_from(&mut self, source: &Self) {
        self.data.clone_from(&source.data);
        self.shape = source.shape;
    }
}

impl Tensor {
    /// Creates a tensor from raw parts. Panics if `data.len()` does not
    /// match the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let expect: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            expect,
            "data length {} does not match shape {:?} (= {})",
            data.len(),
            shape,
            expect
        );
        Self { data, shape: Shape::new(shape) }
    }

    /// All-zeros tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// All-ones tensor of the given shape.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Tensor filled with a constant.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Self { data: vec![value; shape.iter().product()], shape: Shape::new(shape) }
    }

    /// Rank-1 tensor from a slice.
    pub fn vector(values: &[f32]) -> Self {
        Self { data: values.to_vec(), shape: Shape::new(&[values.len()]) }
    }

    /// Rank-2 tensor from nested slices; all rows must have equal length.
    pub fn matrix(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows in Tensor::matrix");
            data.extend_from_slice(row);
        }
        Self { data, shape: Shape::new(&[r, c]) }
    }

    /// Identity matrix of size `n × n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// The shape as a slice.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        self.shape.as_slice()
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.shape.rank as usize
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying buffer (row-major).
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Number of rows of a rank-2 tensor (or length of a rank-1 tensor).
    #[inline]
    pub fn rows(&self) -> usize {
        match self.rank() {
            1 => self.shape.dims[0],
            2 => self.shape.dims[0],
            r => panic!("rows() on rank-{r} tensor"),
        }
    }

    /// Number of columns of a rank-2 tensor (1 for rank-1 tensors).
    #[inline]
    pub fn cols(&self) -> usize {
        match self.rank() {
            1 => 1,
            2 => self.shape.dims[1],
            r => panic!("cols() on rank-{r} tensor"),
        }
    }

    /// Immutable view of row `i` of a rank-2 tensor.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        assert_eq!(self.rank(), 2, "row() requires a rank-2 tensor");
        let c = self.shape.dims[1];
        &self.data[i * c..(i + 1) * c]
    }

    /// Mutable view of row `i` of a rank-2 tensor.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert_eq!(self.rank(), 2, "row_mut() requires a rank-2 tensor");
        let c = self.shape.dims[1];
        &mut self.data[i * c..(i + 1) * c]
    }

    /// Element accessor for rank-2 tensors.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f32 {
        debug_assert_eq!(self.rank(), 2);
        self.data[i * self.shape.dims[1] + j]
    }

    /// Mutable element accessor for rank-2 tensors.
    #[inline]
    pub fn at_mut(&mut self, i: usize, j: usize) -> &mut f32 {
        debug_assert_eq!(self.rank(), 2);
        let c = self.shape.dims[1];
        &mut self.data[i * c + j]
    }

    /// Returns a copy reshaped to `shape`; element count must be preserved.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        let expect: usize = shape.iter().product();
        assert_eq!(self.len(), expect, "reshape {:?} -> {:?} changes element count", self.shape(), shape);
        Tensor { data: self.data.clone(), shape: Shape::new(shape) }
    }

    /// Transposes a rank-2 tensor (copying).
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transpose requires a rank-2 tensor");
        let (r, c) = (self.shape.dims[0], self.shape.dims[1]);
        let mut out = Tensor::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        out
    }

    /// Extracts a contiguous range of rows as a new tensor.
    pub fn slice_rows(&self, start: usize, end: usize) -> Tensor {
        assert_eq!(self.rank(), 2, "slice_rows requires rank-2");
        assert!(start <= end && end <= self.shape.dims[0], "row range {start}..{end} out of bounds");
        let c = self.shape.dims[1];
        Tensor::from_vec(self.data[start * c..end * c].to_vec(), &[end - start, c])
    }

    /// Gives the tensor `shape`, keeping its buffer when the capacity
    /// allows. The contents are unspecified afterwards (whatever the old
    /// buffer held, zeros where it grew): for a buffer the caller is about
    /// to overwrite in full, which therefore needs no fill.
    pub fn resize_for_overwrite(&mut self, shape: &[usize]) {
        self.data.resize(shape.iter().product(), 0.0);
        self.shape = Shape::new(shape);
    }

    /// Gathers the given rows (by index) into a new tensor.
    pub fn gather_rows(&self, idx: &[usize]) -> Tensor {
        assert_eq!(self.rank(), 2, "gather_rows requires rank-2");
        let c = self.shape.dims[1];
        let mut data = Vec::with_capacity(idx.len() * c);
        for &i in idx {
            data.extend_from_slice(self.row(i));
        }
        Tensor::from_vec(data, &[idx.len(), c])
    }

    /// Gathers the given rows into `out` (`idx.len() × cols`, overwritten)
    /// without allocating; `out` must already have the right shape.
    pub fn gather_rows_into(&self, idx: &[usize], out: &mut Tensor) {
        assert_eq!(self.rank(), 2, "gather_rows_into requires rank-2");
        let c = self.shape.dims[1];
        assert_eq!(out.shape(), &[idx.len(), c], "gather_rows_into out shape mismatch");
        for (dst, &i) in out.data.chunks_exact_mut(c).zip(idx) {
            dst.copy_from_slice(&self.data[i * c..(i + 1) * c]);
        }
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Squared L2 norm of all elements.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// L2 norm of all elements.
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Fills with zeros without reallocating.
    pub fn zero_(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape())?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{:.4}, {:.4}, …, {:.4}]", self.data[0], self.data[1], self.data[self.len() - 1])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_shape() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.at(1, 2), 6.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_bad_shape() {
        Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    fn zeros_ones_full() {
        assert!(Tensor::zeros(&[3, 2]).data().iter().all(|&v| v == 0.0));
        assert!(Tensor::ones(&[4]).data().iter().all(|&v| v == 1.0));
        assert!(Tensor::full(&[2, 2], 7.5).data().iter().all(|&v| v == 7.5));
    }

    #[test]
    fn eye_is_identity() {
        let t = Tensor::eye(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(t.at(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn row_access() {
        let t = Tensor::matrix(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(t.row(0), &[1.0, 2.0]);
        assert_eq!(t.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn row_mut_updates() {
        let mut t = Tensor::zeros(&[2, 2]);
        t.row_mut(1).copy_from_slice(&[5.0, 6.0]);
        assert_eq!(t.data(), &[0.0, 0.0, 5.0, 6.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let t = Tensor::matrix(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let tt = t.transpose();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.at(2, 1), 6.0);
        assert_eq!(tt.transpose(), t);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]);
        let r = t.reshape(&[3, 2]);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    #[should_panic(expected = "changes element count")]
    fn reshape_rejects_count_change() {
        Tensor::zeros(&[2, 3]).reshape(&[4, 2]);
    }

    #[test]
    fn slice_and_gather_rows() {
        let t = Tensor::matrix(&[&[0.0, 1.0], &[2.0, 3.0], &[4.0, 5.0]]);
        let s = t.slice_rows(1, 3);
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.row(0), &[2.0, 3.0]);
        let g = t.gather_rows(&[2, 0, 2]);
        assert_eq!(g.shape(), &[3, 2]);
        assert_eq!(g.row(0), &[4.0, 5.0]);
        assert_eq!(g.row(1), &[0.0, 1.0]);
        assert_eq!(g.row(2), &[4.0, 5.0]);
        let mut out = Tensor::full(&[3, 2], -1.0);
        t.gather_rows_into(&[2, 0, 2], &mut out);
        assert_eq!(out, g);
    }

    #[test]
    fn norms() {
        let t = Tensor::vector(&[3.0, 4.0]);
        assert_eq!(t.norm_sq(), 25.0);
        assert_eq!(t.norm(), 5.0);
    }

    #[test]
    fn finite_detection() {
        let mut t = Tensor::ones(&[2]);
        assert!(t.all_finite());
        t.data_mut()[0] = f32::NAN;
        assert!(!t.all_finite());
    }

    #[test]
    fn clone_from_reuses_the_buffer() {
        let mut t = Tensor::zeros(&[4, 6]);
        let buffer = t.data().as_ptr();
        let src = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]);
        t.clone_from(&src);
        assert_eq!(t, src);
        assert_eq!(t.data().as_ptr(), buffer, "a smaller source must not reallocate");
        assert_ne!(Tensor::zeros(&[6]), Tensor::zeros(&[2, 3]), "equal data, different shape");
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_RANK")]
    fn rank_above_max_is_rejected() {
        Tensor::zeros(&[1; MAX_RANK + 1]);
    }

    #[test]
    fn zero_in_place() {
        let mut t = Tensor::full(&[3], 2.0);
        t.zero_();
        assert_eq!(t.data(), &[0.0, 0.0, 0.0]);
    }
}

//! Reductions and row-wise probabilistic transforms (softmax, log-softmax,
//! argmax) used by the classifier heads and the module selector gates.

use crate::Tensor;
use std::iter::Sum;
use std::ops::{Add, Mul};

impl Tensor {
    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Mean of all elements; zero for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Maximum element; `-inf` for an empty tensor.
    pub fn max(&self) -> f32 {
        self.data().iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element; `+inf` for an empty tensor.
    pub fn min(&self) -> f32 {
        self.data().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Column-wise sum of a rank-2 tensor → rank-1 of length `cols`.
    pub fn sum_rows(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "sum_rows requires rank-2");
        let c = self.cols();
        let mut out = Tensor::zeros(&[c]);
        for row in self.data().chunks(c) {
            for (o, &v) in out.data_mut().iter_mut().zip(row) {
                *o += v;
            }
        }
        out
    }

    /// `out += self.sum_rows()` without the temporary: each column is
    /// summed from zero in row order and then added to `out`, so the bits
    /// are those of the two-step form.
    pub fn add_sum_rows_to(&self, out: &mut Tensor) {
        assert_eq!(self.rank(), 2, "add_sum_rows_to requires rank-2");
        let c = self.cols();
        assert_eq!(out.len(), c, "add_sum_rows_to out length mismatch");
        // A stack-sized run of columns at a time.
        const RUN: usize = 64;
        for (start, dst) in out.data_mut().chunks_mut(RUN).enumerate() {
            let mut sums = [0.0f32; RUN];
            let sums = &mut sums[..dst.len()];
            for row in self.data().chunks_exact(c) {
                for (s, &v) in sums.iter_mut().zip(&row[start * RUN..]) {
                    *s += v;
                }
            }
            for (o, &s) in dst.iter_mut().zip(sums.iter()) {
                *o += s;
            }
        }
    }

    /// Column-wise mean of a rank-2 tensor → rank-1 of length `cols`.
    pub fn mean_rows(&self) -> Tensor {
        let r = self.rows() as f32;
        let mut out = self.sum_rows();
        if r > 0.0 {
            out.scale_assign(1.0 / r);
        }
        out
    }

    /// Index of the maximum element of a rank-1 tensor (first on ties).
    pub fn argmax(&self) -> usize {
        assert!(!self.is_empty(), "argmax of empty tensor");
        let mut best = 0;
        let mut best_v = self.data()[0];
        for (i, &v) in self.data().iter().enumerate().skip(1) {
            if v > best_v {
                best = i;
                best_v = v;
            }
        }
        best
    }

    /// Per-row argmax of a rank-2 tensor (class predictions).
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.rank(), 2, "argmax_rows requires rank-2");
        (0..self.rows())
            .map(|i| {
                let row = self.row(i);
                let mut best = 0;
                let mut best_v = row[0];
                for (j, &v) in row.iter().enumerate().skip(1) {
                    if v > best_v {
                        best = j;
                        best_v = v;
                    }
                }
                best
            })
            .collect()
    }

    /// Numerically-stable softmax over each row of a rank-2 tensor.
    pub fn softmax_rows(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "softmax_rows requires rank-2");
        let mut out = self.clone();
        let c = out.cols();
        for row in out.data_mut().chunks_mut(c) {
            softmax_in_place(row);
        }
        out
    }

    /// Numerically-stable log-softmax over each row of a rank-2 tensor.
    pub fn log_softmax_rows(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "log_softmax_rows requires rank-2");
        let mut out = self.clone();
        let c = out.cols();
        for row in out.data_mut().chunks_mut(c) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse = row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln() + max;
            row.iter_mut().for_each(|v| *v -= lse);
        }
        out
    }
}

/// How many slices' sums [`sum_sq_each`] advances together.
const SUM_LANES: usize = 8;

/// `sums[i] = Σ v²` over `slices[i]` in the accumulator type `A` of
/// `sums`, each with the bits of the one-line sum it replaces —
/// [`Tensor::norm_sq`] on that slice for `f32`,
/// `slice.iter().map(|&v| v as f64 * v as f64).sum::<f64>()` for `f64`
/// (`A::from` widens exactly): one accumulator per slice, started at
/// `Sum`'s own identity, elements in ascending order, multiply then add.
/// A slice is never split and no sum is reassociated.
///
/// What is interleaved is *which slice's* next add issues: a single
/// slice's sum is one chain of dependent adds, each waiting out the
/// adder's latency, so up to eight (`SUM_LANES`) slices advance in one loop and
/// the adds of different slices overlap. When a slice ends, the next one
/// in list order takes the free lane. Gradient clipping sums its ~100
/// small tensors this way in `f32` (`nebula_nn::Layer::clip_grad_norm`),
/// but only on the steps its cheaper `f64` bound cannot decide; the
/// sanitize gate's RMS norm sums an update's module vectors in `f64`
/// (`nebula_core::aggregate`).
///
/// Panics if `slices` and `sums` differ in length.
pub fn sum_sq_each<A, S>(slices: &[S], sums: &mut [A])
where
    A: Copy + From<f32> + Add<Output = A> + Mul<Output = A> + Sum<A>,
    S: AsRef<[f32]>,
{
    assert_eq!(slices.len(), sums.len(), "sum_sq_each: {} slices, {} sums", slices.len(), sums.len());
    // `-0.0` since Rust 1.83, `0.0` before; either way adding a square
    // to it gives the square, so only an empty slice's sum shows it.
    let identity: A = std::iter::empty::<A>().sum();
    // Lanes `..live` are busy: lane `s` still has `rest[s]` to add into
    // `acc[s]`, the sum of `slices[owner[s]]`.
    let mut rest: [&[f32]; SUM_LANES] = [&[]; SUM_LANES];
    let mut owner = [0usize; SUM_LANES];
    let mut acc = [identity; SUM_LANES];
    let mut live = 0;
    let mut next = 0;
    loop {
        while live < SUM_LANES && next < slices.len() {
            let slice = slices[next].as_ref();
            if slice.is_empty() {
                sums[next] = identity;
            } else {
                (rest[live], owner[live], acc[live]) = (slice, next, identity);
                live += 1;
            }
            next += 1;
        }
        if live == 0 {
            return;
        }
        // Every busy lane can take this many steps before one of them ends.
        let run = rest[..live].iter().map(|r| r.len()).min().expect("a busy lane");
        match live {
            1 => advance::<A, 1>(&mut rest, &mut acc, run),
            2 => advance::<A, 2>(&mut rest, &mut acc, run),
            3 => advance::<A, 3>(&mut rest, &mut acc, run),
            4 => advance::<A, 4>(&mut rest, &mut acc, run),
            5 => advance::<A, 5>(&mut rest, &mut acc, run),
            6 => advance::<A, 6>(&mut rest, &mut acc, run),
            7 => advance::<A, 7>(&mut rest, &mut acc, run),
            _ => advance::<A, SUM_LANES>(&mut rest, &mut acc, run),
        }
        // Retire the lanes that ended; the last busy lane moves down.
        let mut s = 0;
        while s < live {
            if rest[s].is_empty() {
                sums[owner[s]] = acc[s];
                live -= 1;
                (rest[s], owner[s], acc[s]) = (rest[live], owner[live], acc[live]);
            } else {
                s += 1;
            }
        }
    }
}

/// Adds the squares of the next `run` elements of lanes `..K` to their
/// accumulators, one element of every lane per step.
#[inline]
fn advance<A, const K: usize>(rest: &mut [&[f32]; SUM_LANES], acc: &mut [A; SUM_LANES], run: usize)
where
    A: Copy + From<f32> + Add<Output = A> + Mul<Output = A>,
{
    let mut heads: [&[f32]; K] = [&[]; K];
    // Filled by the loop; `array::from_fn` here read +6 µs per clip
    // (the accumulators left their registers).
    let mut a = [acc[0]; K];
    for s in 0..K {
        (heads[s], rest[s]) = rest[s].split_at(run);
        a[s] = acc[s];
    }
    for i in 0..run {
        for (a, head) in a.iter_mut().zip(&heads) {
            let v = A::from(head[i]);
            *a = *a + v * v;
        }
    }
    acc[..K].copy_from_slice(&a);
}

/// In-place numerically-stable softmax over a slice.
pub fn softmax_in_place(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Returns the indices of the `k` largest values of `scores`, in descending
/// value order. Ties broken by lower index first (deterministic).
pub fn top_k_indices(scores: &[f32], k: usize) -> Vec<usize> {
    let mut out = Vec::new();
    top_k_indices_into(scores, k, &mut out);
    out
}

/// Zero-allocation variant of [`top_k_indices`]: clears `out` and fills it
/// with the selected indices. The routing hot loop calls this once per
/// sample per layer, reusing one buffer.
///
/// Partial insertion selection, O(N·k): `out` is kept sorted by
/// (value descending, index ascending). Because candidates are scanned in
/// ascending index order and only displace strictly-smaller values, an
/// equal-valued later index can never overtake an earlier one — the same
/// tie-break the previous full sort implemented.
pub fn top_k_indices_into(scores: &[f32], k: usize, out: &mut Vec<usize>) {
    out.clear();
    let k = k.min(scores.len());
    if k == 0 {
        return;
    }
    out.reserve(k);
    for (i, &v) in scores.iter().enumerate() {
        if out.len() == k {
            // Continue unless the current tail is strictly smaller than `v`
            // (NaN tails are incomparable and also never displaced).
            if scores[out[k - 1]].partial_cmp(&v) != Some(std::cmp::Ordering::Less) {
                continue;
            }
            out.pop();
        }
        let mut pos = out.len();
        while pos > 0 && scores[out[pos - 1]] < v {
            pos -= 1;
        }
        out.insert(pos, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_close, assert_tensor_close};

    #[test]
    fn scalar_reductions() {
        let t = Tensor::vector(&[1.0, 2.0, 3.0, -4.0]);
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.mean(), 0.5);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -4.0);
    }

    #[test]
    fn row_reductions() {
        let t = Tensor::matrix(&[&[1.0, 2.0], &[3.0, 6.0]]);
        assert_eq!(t.sum_rows().data(), &[4.0, 8.0]);
        assert_eq!(t.mean_rows().data(), &[2.0, 4.0]);
    }

    #[test]
    fn add_sum_rows_to_equals_sum_rows_then_add_bitwise() {
        let mut rng = crate::NebulaRng::seed(9);
        // Narrower than, equal to and wider than one column run.
        for (r, c) in [(1, 1), (7, 24), (16, 64), (11, 150)] {
            let t = Tensor::from_vec((0..r * c).map(|_| rng.normal_f32(0.0, 1.0)).collect(), &[r, c]);
            let start = Tensor::from_vec((0..c).map(|_| rng.normal_f32(0.0, 1.0)).collect(), &[c]);
            let mut want = start.clone();
            want.add_assign(&t.sum_rows());
            let mut got = start;
            t.add_sum_rows_to(&mut got);
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
            assert_eq!(bits(&got), bits(&want), "{r}x{c}");
        }
    }

    #[test]
    fn argmax_first_on_ties() {
        let t = Tensor::vector(&[1.0, 3.0, 3.0, 0.0]);
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn argmax_rows_predictions() {
        let t = Tensor::matrix(&[&[0.1, 0.9], &[0.8, 0.2]]);
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::matrix(&[&[1.0, 2.0, 3.0], &[100.0, 100.0, 100.0]]);
        let s = t.softmax_rows();
        for i in 0..2 {
            assert_close(s.row(i).iter().sum::<f32>(), 1.0, 1e-5);
        }
        // Uniform logits → uniform probabilities, even for huge values
        // (stability check).
        for &v in s.row(1) {
            assert_close(v, 1.0 / 3.0, 1e-5);
        }
    }

    #[test]
    fn log_softmax_is_log_of_softmax() {
        let t = Tensor::matrix(&[&[0.5, -1.0, 2.0]]);
        let ls = t.log_softmax_rows();
        let s = t.softmax_rows();
        assert_tensor_close(&ls.map(f32::exp), &s, 1e-5);
    }

    #[test]
    fn top_k_orders_and_truncates() {
        let scores = [0.1, 0.9, 0.5, 0.9];
        assert_eq!(top_k_indices(&scores, 2), vec![1, 3]);
        assert_eq!(top_k_indices(&scores, 10), vec![1, 3, 2, 0]);
        assert_eq!(top_k_indices(&scores, 0), Vec::<usize>::new());
    }

    #[test]
    fn top_k_breaks_ties_by_lower_index() {
        // All-equal scores: selection must be the first k indices in order.
        let flat = [2.0; 7];
        assert_eq!(top_k_indices(&flat, 3), vec![0, 1, 2]);
        // Ties straddling the selection boundary: index 1 and 4 tie at 5.0;
        // only the lower index may enter a top-2 alongside the 9.0.
        let scores = [0.0, 5.0, 9.0, -1.0, 5.0, 5.0];
        assert_eq!(top_k_indices(&scores, 2), vec![2, 1]);
        assert_eq!(top_k_indices(&scores, 4), vec![2, 1, 4, 5]);
    }

    #[test]
    fn top_k_matches_full_sort_reference() {
        // Partial selection must agree with the naive sort-everything
        // reference (value desc, index asc) for every k.
        let mut rng = crate::NebulaRng::seed(23);
        for _ in 0..50 {
            // Coarse quantisation forces frequent ties.
            let scores: Vec<f32> = (0..17).map(|_| (rng.normal_f32(0.0, 2.0) * 2.0).round() / 2.0).collect();
            let mut reference: Vec<usize> = (0..scores.len()).collect();
            reference.sort_by(|&a, &b| {
                scores[b].partial_cmp(&scores[a]).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
            });
            for k in 0..=scores.len() {
                assert_eq!(top_k_indices(&scores, k), reference[..k], "k={k} scores={scores:?}");
            }
        }
    }

    #[test]
    fn top_k_into_reuses_buffer() {
        let mut buf = vec![42; 9];
        top_k_indices_into(&[1.0, 3.0, 2.0], 2, &mut buf);
        assert_eq!(buf, vec![1, 2]);
        top_k_indices_into(&[5.0], 4, &mut buf);
        assert_eq!(buf, vec![0]);
    }
}

//! Matrix multiplication kernels.
//!
//! Three variants cover every use in the NN stack without materialising
//! transposes in the hot path:
//!
//! * [`Tensor::matmul`] — `A(m×k) · B(k×n)`, forward pass of a linear layer
//!   (weights stored as `out×in`, used through [`Tensor::matmul_nt`]).
//! * [`Tensor::matmul_nt`] — `A(m×k) · Bᵀ(n×k)`, forward pass with row-major
//!   weight layout: each output element is a dot of two contiguous rows.
//! * [`Tensor::matmul_tn`] — `Aᵀ(k×m) · B(k×n)`, gradient w.r.t. weights.
//!
//! All three lower onto the register-tiled engine in [`crate::gemm`],
//! which absorbs the transposed layouts — by packing, or, for the small
//! products a train step is made of, by reading the operands through
//! strides with nothing packed at all. `*_into` variants write into a
//! caller-provided output tensor so hot loops can reuse buffers (see
//! `nebula-nn`'s workspace); [`Tensor::matmul_tn_acc`] adds into it.
//!
//! Which micro-kernel runs under that macro-kernel is selected through
//! [`crate::backend`]: the default `Auto` resolves once (cached CPUID) to
//! the best engine the CPU supports — the explicit AVX-512/AVX2+FMA tiles
//! in [`crate::gemm::simd`] where present, the auto-vectorised scalar
//! `Blocked` tile otherwise — and tests/benches force a specific engine
//! with [`crate::KernelBackend::scoped`]. Every backend is run-to-run
//! deterministic; see `backend.rs` for the full contract.
//!
//! Threads: a product runs on the thread that issued it. The workspace
//! forks over *devices* ([`crate::par::map`]), never inside a kernel —
//! the products a train step issues finish in 1–9 µs (median ≈ 2 µs:
//! sparse routing leaves each module 3–15 of a batch's 16 rows), far less
//! than a fork costs, so the row-split this engine once had was deleted
//! as a measured loss.
//!
//! The pre-blocking kernels are retained under [`reference`] — they anchor
//! the equivalence proptests ([`KernelBackend::Reference`]).

use crate::backend::{self, KernelBackend};
use crate::gemm::{self, simd, ALayout, BLayout};
use crate::ops::dot_slices;
use crate::Tensor;

/// Lowers one product onto the engine the resolved backend names.
/// `Reference` is handled by the callers (its three naive kernels are
/// layout-specific); `Auto` never escapes [`backend::resolve`].
#[allow(clippy::too_many_arguments)]
fn gemm_backend(
    engine: KernelBackend,
    out: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    al: ALayout,
    b: &[f32],
    bl: BLayout,
) {
    match engine {
        KernelBackend::Blocked => gemm::gemm(out, m, n, k, a, al, b, bl),
        KernelBackend::Avx2 => simd::gemm_avx2(out, m, n, k, a, al, b, bl),
        KernelBackend::Avx512 => simd::gemm_avx512(out, m, n, k, a, al, b, bl),
        KernelBackend::Reference | KernelBackend::Auto => {
            unreachable!("resolve() never yields {engine} here")
        }
    }
}

impl Tensor {
    /// `self (m×k) · other (k×n)` → `m×n`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(&[self.shape()[0], other.shape()[1]]);
        self.matmul_into(other, &mut out);
        out
    }

    /// `self (m×k) · other (k×n)` written into `out` (`m×n`, overwritten).
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.rank(), 2, "matmul lhs must be rank-2");
        assert_eq!(other.rank(), 2, "matmul rhs must be rank-2");
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        assert_eq!(k, k2, "matmul inner dims differ: {k} vs {k2}");
        assert_eq!(out.shape(), &[m, n], "matmul out shape mismatch");
        out.zero_();
        match backend::resolved_backend() {
            KernelBackend::Reference => {
                reference::matmul_slices(out.data_mut(), m, n, k, self.data(), other.data())
            }
            engine => gemm_backend(
                engine,
                out.data_mut(),
                m,
                n,
                k,
                self.data(),
                ALayout::RowMajor,
                other.data(),
                BLayout::RowMajor,
            ),
        }
    }

    /// `self (m×k) · otherᵀ` where `other` is `n×k` → `m×n`.
    ///
    /// This is the natural layout for a linear layer whose weight matrix is
    /// stored `out_features × in_features`.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(&[self.shape()[0], other.shape()[0]]);
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// `self · otherᵀ` written into `out` (`m×n`, overwritten).
    pub fn matmul_nt_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.rank(), 2, "matmul_nt lhs must be rank-2");
        assert_eq!(other.rank(), 2, "matmul_nt rhs must be rank-2");
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (n, k2) = (other.shape()[0], other.shape()[1]);
        assert_eq!(k, k2, "matmul_nt inner dims differ: {k} vs {k2}");
        assert_eq!(out.shape(), &[m, n], "matmul_nt out shape mismatch");
        out.zero_();
        match backend::resolved_backend() {
            KernelBackend::Reference => {
                reference::matmul_nt_slices(out.data_mut(), m, n, k, self.data(), other.data())
            }
            engine => gemm_backend(
                engine,
                out.data_mut(),
                m,
                n,
                k,
                self.data(),
                ALayout::RowMajor,
                other.data(),
                BLayout::Transposed,
            ),
        }
    }

    /// `selfᵀ · other` where `self` is `k×m` and `other` is `k×n` → `m×n`.
    ///
    /// Weight-gradient kernel: `dW = dYᵀ · X` with `dY: batch×out` and
    /// `X: batch×in` is computed as `dY.matmul_tn(X)`.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(&[self.shape()[1], other.shape()[1]]);
        self.matmul_tn_into(other, &mut out);
        out
    }

    /// `selfᵀ · other` written into `out` (`m×n`, overwritten).
    pub fn matmul_tn_into(&self, other: &Tensor, out: &mut Tensor) {
        out.zero_();
        self.matmul_tn_acc(other, out);
    }

    /// `out += selfᵀ · other`: the accumulating form of
    /// [`Tensor::matmul_tn_into`], so a weight gradient is summed where it
    /// lives instead of in a scratch that is then added.
    ///
    /// Bits: `Blocked`, `Avx2` and `Avx512` sum each `KC`-deep slab of the
    /// reduction from zero and add it to `out`, so for `k ≤ KC` the result
    /// is what adding a separately computed product to `out` gives (only
    /// the sign of a zero can differ, when a sum that is exactly `-0.0`
    /// meets an `out` element that is exactly `-0.0`). For deeper
    /// reductions, and on `Reference` (which adds product by product), the
    /// two agree when `out` starts at zero — as a gradient does in every
    /// train loop, which zeroes it before each backward pass.
    pub fn matmul_tn_acc(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.rank(), 2, "matmul_tn lhs must be rank-2");
        assert_eq!(other.rank(), 2, "matmul_tn rhs must be rank-2");
        let (k, m) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        assert_eq!(k, k2, "matmul_tn inner dims differ: {k} vs {k2}");
        assert_eq!(out.shape(), &[m, n], "matmul_tn out shape mismatch");
        match backend::resolved_backend() {
            KernelBackend::Reference => {
                reference::matmul_tn_slices(out.data_mut(), m, n, k, self.data(), other.data())
            }
            engine => gemm_backend(
                engine,
                out.data_mut(),
                m,
                n,
                k,
                self.data(),
                ALayout::Transposed,
                other.data(),
                BLayout::RowMajor,
            ),
        }
    }

    /// Matrix–vector product `self (m×k) · v (k)` → `m`.
    pub fn matvec(&self, v: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matvec lhs must be rank-2");
        assert_eq!(v.rank(), 1, "matvec rhs must be rank-1");
        let (m, k) = (self.shape()[0], self.shape()[1]);
        assert_eq!(k, v.len(), "matvec inner dims differ");
        let mut out = Tensor::zeros(&[m]);
        for i in 0..m {
            out.data_mut()[i] = dot_slices(self.row(i), v.data());
        }
        out
    }

    /// Outer product of two rank-1 tensors → `m×n`.
    pub fn outer(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 1, "outer lhs must be rank-1");
        assert_eq!(other.rank(), 1, "outer rhs must be rank-1");
        let (m, n) = (self.len(), other.len());
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            let a = self.data()[i];
            for j in 0..n {
                out.data_mut()[i * n + j] = a * other.data()[j];
            }
        }
        out
    }
}

/// The pre-blocking kernels, retained verbatim (branchy `ikj` row loop for
/// `matmul`/`matmul_tn`, row-dot loop for `matmul_nt`).
///
/// The equivalence proptests check the blocked engine against them across
/// random shapes and the shapes a round issues, and
/// `KernelBackend::Reference.scoped()` runs whole rounds on them. They are
/// sequential — on the round hot path they were always below the old
/// parallel threshold.
pub mod reference {
    use super::dot_slices;
    use crate::Tensor;

    /// Naive `C = A·B` (`ikj` order, zero-skip branch as pre-blocking).
    pub fn matmul_slices(out: &mut [f32], m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) {
        for i in 0..m {
            let orow = &mut out[i * n..(i + 1) * n];
            let arow = &a[i * k..(i + 1) * k];
            for (p, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    }

    /// Naive `C = A·Bᵀ` (per-element row dots).
    pub fn matmul_nt_slices(out: &mut [f32], m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) {
        for i in 0..m {
            let orow = &mut out[i * n..(i + 1) * n];
            let arow = &a[i * k..(i + 1) * k];
            for (j, o) in orow.iter_mut().enumerate() {
                *o = dot_slices(arow, &b[j * k..(j + 1) * k]);
            }
        }
    }

    /// Naive `C = Aᵀ·B` (strided `A` reads, zero-skip branch).
    pub fn matmul_tn_slices(out: &mut [f32], m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) {
        for i in 0..m {
            let orow = &mut out[i * n..(i + 1) * n];
            for p in 0..k {
                let av = a[p * m + i];
                if av == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    }

    /// Tensor-level wrapper over [`matmul_slices`] (tests, benches).
    pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        assert_eq!(k, b.shape()[0], "reference matmul inner dims differ");
        let mut out = Tensor::zeros(&[m, n]);
        matmul_slices(out.data_mut(), m, n, k, a.data(), b.data());
        out
    }

    /// Tensor-level wrapper over [`matmul_nt_slices`].
    pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[0];
        assert_eq!(k, b.shape()[1], "reference matmul_nt inner dims differ");
        let mut out = Tensor::zeros(&[m, n]);
        matmul_nt_slices(out.data_mut(), m, n, k, a.data(), b.data());
        out
    }

    /// Tensor-level wrapper over [`matmul_tn_slices`].
    pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
        let (k, m) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        assert_eq!(k, b.shape()[0], "reference matmul_tn inner dims differ");
        let mut out = Tensor::zeros(&[m, n]);
        matmul_tn_slices(out.data_mut(), m, n, k, a.data(), b.data());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_tensor_close;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += a.at(i, p) * b.at(p, j);
                }
                *out.at_mut(i, j) = s;
            }
        }
        out
    }

    #[test]
    fn matmul_small_known_values() {
        let a = Tensor::matrix(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::matrix(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::matrix(&[&[1.5, -2.0, 3.0], &[0.0, 4.0, 5.5]]);
        let c = a.matmul(&Tensor::eye(3));
        assert_tensor_close(&c, &a, 0.0);
    }

    #[test]
    fn matmul_matches_naive_random() {
        let mut rng = crate::NebulaRng::seed(7);
        let a = Tensor::from_vec((0..13 * 9).map(|_| rng.normal_f32(0.0, 1.0)).collect(), &[13, 9]);
        let b = Tensor::from_vec((0..9 * 11).map(|_| rng.normal_f32(0.0, 1.0)).collect(), &[9, 11]);
        assert_tensor_close(&a.matmul(&b), &naive_matmul(&a, &b), 1e-4);
    }

    #[test]
    fn matmul_multi_block_matches_naive() {
        // Several row blocks and a full NC slab (256·256·64 = 4M MACs).
        let mut rng = crate::NebulaRng::seed(11);
        let a = Tensor::from_vec((0..256 * 64).map(|_| rng.normal_f32(0.0, 0.5)).collect(), &[256, 64]);
        let b = Tensor::from_vec((0..64 * 256).map(|_| rng.normal_f32(0.0, 0.5)).collect(), &[64, 256]);
        assert_tensor_close(&a.matmul(&b), &naive_matmul(&a, &b), 1e-3);
    }

    #[test]
    fn matmul_nt_equals_matmul_with_transpose() {
        let mut rng = crate::NebulaRng::seed(3);
        let a = Tensor::from_vec((0..6 * 5).map(|_| rng.normal_f32(0.0, 1.0)).collect(), &[6, 5]);
        let b = Tensor::from_vec((0..7 * 5).map(|_| rng.normal_f32(0.0, 1.0)).collect(), &[7, 5]);
        assert_tensor_close(&a.matmul_nt(&b), &a.matmul(&b.transpose()), 1e-4);
    }

    #[test]
    fn matmul_tn_equals_transpose_matmul() {
        let mut rng = crate::NebulaRng::seed(5);
        let a = Tensor::from_vec((0..8 * 4).map(|_| rng.normal_f32(0.0, 1.0)).collect(), &[8, 4]);
        let b = Tensor::from_vec((0..8 * 6).map(|_| rng.normal_f32(0.0, 1.0)).collect(), &[8, 6]);
        assert_tensor_close(&a.matmul_tn(&b), &a.transpose().matmul(&b), 1e-4);
    }

    #[test]
    fn into_variants_overwrite_stale_output() {
        let mut rng = crate::NebulaRng::seed(17);
        let a = Tensor::from_vec((0..5 * 7).map(|_| rng.normal_f32(0.0, 1.0)).collect(), &[5, 7]);
        let b = Tensor::from_vec((0..7 * 3).map(|_| rng.normal_f32(0.0, 1.0)).collect(), &[7, 3]);
        let mut out = Tensor::full(&[5, 3], 99.0); // stale garbage must not leak
        a.matmul_into(&b, &mut out);
        assert_tensor_close(&out, &naive_matmul(&a, &b), 1e-4);
    }

    /// Adding `Aᵀ·B` into `out` equals computing it apart and adding it,
    /// bit for bit, wherever [`Tensor::matmul_tn_acc`] says so. Engines
    /// are named explicitly so a concurrent test's scoped backend cannot
    /// change the kernel between the two halves of a comparison.
    #[test]
    fn accumulating_tn_equals_product_then_add_bitwise() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let mut rng = crate::NebulaRng::seed(23);
        let mut random = |len: usize| (0..len).map(|_| rng.normal_f32(0.0, 1.0)).collect::<Vec<f32>>();
        let tn =
            |engine, out: &mut [f32], (k, m, n): (usize, usize, usize), a: &[f32], b: &[f32]| match engine {
                KernelBackend::Reference => reference::matmul_tn_slices(out, m, n, k, a, b),
                engine => gemm_backend(engine, out, m, n, k, a, ALayout::Transposed, b, BLayout::RowMajor),
            };
        // (k, m, n): two dW shapes of a train step, a ragged one, and a
        // reduction deeper than KC.
        for shape @ (k, m, n) in [(11, 24, 96), (16, 96, 24), (5, 7, 9), (300, 9, 20)] {
            let (a, b, gradient) = (random(k * m), random(k * n), random(m * n));
            for engine in
                [KernelBackend::Reference, KernelBackend::Blocked, KernelBackend::Avx2, KernelBackend::Avx512]
            {
                if backend::resolve(engine) != engine {
                    continue;
                }
                let one_slab = engine != KernelBackend::Reference && k <= gemm::KC;
                for onto in [vec![0.0; m * n], gradient.clone()] {
                    if onto[0] != 0.0 && !one_slab {
                        continue;
                    }
                    let mut product = vec![0.0; m * n];
                    tn(engine, &mut product, shape, &a, &b);
                    let want: Vec<f32> = onto.iter().zip(&product).map(|(o, p)| o + p).collect();
                    let mut got = onto;
                    tn(engine, &mut got, shape, &a, &b);
                    assert_eq!(bits(&got), bits(&want), "{engine} {k}x{m}x{n}");
                }
            }
        }

        // The method itself, on whatever backend is selected right now.
        let (a, b) = (Tensor::from_vec(random(6 * 4), &[6, 4]), Tensor::from_vec(random(6 * 5), &[6, 5]));
        let mut got = Tensor::ones(&[4, 5]);
        a.matmul_tn_acc(&b, &mut got);
        assert_tensor_close(&got, &a.matmul_tn(&b).add_scalar(1.0), 1e-4);
    }

    /// The products of a train step must never reach the packing
    /// routines on a SIMD engine: on a fresh thread, after every shape of
    /// the round table in all three layouts, neither packing buffer has
    /// ever been allocated. Engines are named explicitly (what
    /// `matmul*` do after resolving the backend), so a concurrent test's
    /// scoped backend cannot route this one elsewhere.
    #[test]
    fn round_shapes_never_pack_on_simd_engines() {
        let mut shapes = vec![
            (16, 96, 96),
            (16, 64, 64),
            (16, 48, 96),
            (16, 16, 48),
            (16, 10, 96),
            (200, 48, 96),
            (16, 64, 360),
        ];
        for r in [1, 3, 5, 8, 9, 11, 15, 16] {
            for w in [64, 96] {
                shapes.extend([(r, 24, w), (r, w, 24), (24, w, r), (w, 24, r)]);
            }
        }
        for engine in [KernelBackend::Avx2, KernelBackend::Avx512] {
            if backend::resolve(engine) != engine {
                continue;
            }
            let shapes = shapes.clone();
            let grown = std::thread::spawn(move || {
                for (m, n, k) in shapes {
                    let (a, b) = (vec![0.5; m * k], vec![0.25; k * n]);
                    for (al, bl) in gemm::LAYOUTS {
                        let mut out = vec![0.0; m * n];
                        gemm_backend(engine, &mut out, m, n, k, &a, al, &b, bl);
                        assert_eq!(out[m * n - 1], 0.125 * k as f32);
                    }
                }
                gemm::pack_capacities()
            })
            .join()
            .expect("the product thread panicked");
            assert_eq!(grown, (0, 0), "{engine} packed an operand of a round-sized product");

            // The accessor does see packing: a product past the direct
            // path's bounds grows both buffers.
            let grown = std::thread::spawn(move || {
                let (m, n, k) = (300, 300, 300);
                let mut out = vec![0.0; m * n];
                let (a, b) = (vec![0.5; m * k], vec![0.25; k * n]);
                gemm_backend(engine, &mut out, m, n, k, &a, ALayout::RowMajor, &b, BLayout::Transposed);
                gemm::pack_capacities()
            })
            .join()
            .expect("the product thread panicked");
            assert!(grown.0 > 0 && grown.1 > 0, "{engine} did not pack a large product");
        }
    }

    #[test]
    fn backend_override_round_trips() {
        let mut rng = crate::NebulaRng::seed(19);
        let a = Tensor::from_vec((0..12 * 30).map(|_| rng.normal_f32(0.0, 1.0)).collect(), &[12, 30]);
        let b = Tensor::from_vec((0..30 * 8).map(|_| rng.normal_f32(0.0, 1.0)).collect(), &[30, 8]);
        let auto = a.matmul(&b);
        let baseline = {
            let _g = KernelBackend::Reference.scoped();
            a.matmul(&b)
        };
        let blocked = {
            let _g = KernelBackend::Blocked.scoped();
            a.matmul(&b)
        };
        assert_tensor_close(&auto, &baseline, 1e-4);
        assert_tensor_close(&blocked, &baseline, 1e-4);
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn matmul_rejects_mismatched_dims() {
        Tensor::zeros(&[2, 3]).matmul(&Tensor::zeros(&[4, 2]));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Tensor::matrix(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let v = Tensor::vector(&[2.0, -1.0]);
        let out = a.matvec(&v);
        assert_eq!(out.data(), &[0.0, 2.0, 4.0]);
    }

    #[test]
    fn outer_product_shape_and_values() {
        let a = Tensor::vector(&[1.0, 2.0]);
        let b = Tensor::vector(&[3.0, 4.0, 5.0]);
        let o = a.outer(&b);
        assert_eq!(o.shape(), &[2, 3]);
        assert_eq!(o.data(), &[3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
    }
}

//! Cache-blocked, register-tiled GEMM engine behind the public
//! [`crate::Tensor`] mat-mul API.
//!
//! Structure follows the classic three-level blocking of GotoBLAS/BLIS:
//!
//! * the `n` dimension is cut into `NC`-wide slabs, the `k` dimension into
//!   `KC`-deep slabs; for every `(jc, pc)` pair the corresponding `B` panel
//!   is packed once into a contiguous, `NR`-interleaved buffer;
//! * the `m` dimension is cut into `MC`-tall blocks; each block packs its
//!   `A` slab `MR`-interleaved and then sweeps `MR×NR` register tiles over
//!   the packed panels;
//! * the micro-kernel keeps an `MR×NR` accumulator entirely in registers
//!   and streams both packed panels linearly — no bounds checks, no
//!   branches, unit-stride loads.
//!
//! Both transposed operand layouts (`A` stored `k×m`, `B` stored `n×k`)
//! are absorbed by the packing routines, so `matmul`, `matmul_nt` and
//! `matmul_tn` all share this one macro-kernel.
//!
//! The packing/blocking loops are generic over the register-tile shape
//! (`const MR_/NR_`), so one macro-kernel drives several micro-kernels:
//! the scalar 4×8 tile the compiler auto-vectorises (the `Blocked`
//! backend — numerically identical to the pre-generic engine), and the
//! explicit AVX2/AVX-512 tiles in [`simd`] selected at runtime through
//! [`crate::backend`].
//!
//! ## The direct path
//!
//! Packing pays for itself when a panel is re-read many times. The
//! products a train step issues are not like that: sparse top-k routing
//! leaves a module 3–15 of a batch's 16 rows, so a step is ~160 products
//! of 1–9 µs whose operands (10²–10⁴ floats) already sit in L1, and
//! packing them cost more than multiplying them. For any product whose
//! operands are small ([`direct_fits`] — decided from the shape alone)
//! the SIMD engines therefore skip packing: `A` is read through
//! `(row, column)` strides, a row-major `B` where it lies, a transposed
//! `B` after a blockwise in-register transpose onto the stack, the tile
//! is as tall as the rows that exist, and it is added straight into `C`
//! ([`simd`] has the macro-loop and the tiles). The packed engine keeps
//! everything larger. `Blocked` always packs: it is the portable fallback
//! and the FMA-free engine every golden digest is pinned under, nothing
//! on an x86 host resolves to it, and a scalar direct tile would be a
//! third tile to keep bit-exact for no measured caller.
//!
//! ## Determinism
//!
//! For a fixed output element `C[i, j]`, products are accumulated in
//! ascending `p` order: the `pc` loop walks `k` in `KC` steps and the
//! micro-kernel walks each slab in order, from zero, before the slab's
//! sum is added to `C`. The direct path runs the same chain per element
//! — same slabs, same order, same FMA — so the two paths of one engine
//! agree bit for bit (`simd::tests::direct_path_equals_packed_path_bit_for_bit`)
//! and which one ran is unobservable. A product runs on the thread
//! that issued it — the products a train step issues take 1–9 µs, far
//! less than forking costs, so the workspace's threads split *devices*
//! ([`crate::par`]), never a GEMM. `KC` is shared by every register-tile
//! shape, so two backends differ only in whether `a*b + c` is contracted
//! into a fused multiply-add (the explicit SIMD micro-kernels) or not
//! (the scalar tile; LLVM does not contract without fast-math flags) —
//! never in summation order.

pub mod simd;

use std::cell::RefCell;

/// Micro-tile rows of the scalar engine: `MR` rows of `A` broadcast per step.
pub const MR: usize = 4;
/// Micro-tile columns of the scalar engine: `NR` contiguous packed `B`
/// values per step. One 256-bit lane on the x86-64-v3 baseline (see
/// `.cargo/config.toml`), so the `MR×NR` accumulator occupies 4 of the 16
/// YMM registers with room for the `B` row, `A` broadcasts and
/// loop-carried state.
pub const NR: usize = 8;
/// Rows of `A` packed per block (multiple of `MR`); `MC×KC` floats ≈ 64 KiB
/// targets L2 residency for the packed `A` slab.
pub const MC: usize = 64;
/// Depth of one packed slab; bounds the per-tile accumulator run. Shared
/// by every backend so the k-reduction splits identically everywhere.
pub const KC: usize = 256;
/// Columns of `B` packed per slab (multiple of every `NR_` in use);
/// `KC×NC` floats ≈ 256 KiB keeps the shared `B` panel cache-resident
/// while every row block re-reads it.
pub const NC: usize = 256;

/// Largest operand, in floats, of a product the SIMD engines run on
/// their direct path (see [`direct_fits`]): 256 KiB, so `A` and `B`
/// together stay inside a core's L2.
pub const DIRECT_MAX_FLOATS: usize = 64 * 1024;

/// Whether the SIMD engines run `A(m×k)·B(k×n)` on their direct path,
/// which reads both operands where they lie instead of packing them.
/// Decided from the shape alone, and the same bits either way.
///
/// The direct path re-reads all of `A` for every column panel and all of
/// a panel's `B` for every row tile, with no `MC`/`NC` blocking, so it
/// wins while both operands stay cache-resident and loses once one
/// outgrows L2. Measured on a 2 MiB-L2 AVX-512 host it is 1.4–4.5× as
/// fast as the packed path on everything a train step issues (operands
/// of 10²–10⁴ floats), still 1.1–1.2× at 256³ (65 536 floats each), and
/// 0.73–0.87× on the `tn` layout from 512 × 256 × 256 (131 072) on.
pub fn direct_fits(m: usize, n: usize, k: usize) -> bool {
    m * k <= DIRECT_MAX_FLOATS && k * n <= DIRECT_MAX_FLOATS
}

/// A register-tiled micro-kernel: `acc[i][j] += Σ_p apanel[p][i] · bpanel[p][j]`
/// over one packed `(MR_, NR_)` tile pair of depth `kc`.
///
/// # Safety
///
/// Implementations may require CPU features (AVX2+FMA, AVX-512F); callers
/// must only invoke pointers whose requirements the running CPU satisfies
/// — [`crate::backend::resolve`] guarantees this for dispatched kernels.
pub type MicroKernel<const MR_: usize, const NR_: usize> =
    unsafe fn(kc: usize, apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; NR_]; MR_]);

/// How the `A` operand is stored.
#[derive(Clone, Copy, Debug)]
pub enum ALayout {
    /// `m×k` row-major: element `(i, p)` at `a[i*k + p]`.
    RowMajor,
    /// `k×m` row-major, used transposed: element `(i, p)` at `a[p*m + i]`.
    Transposed,
}

/// How the `B` operand is stored.
#[derive(Clone, Copy, Debug)]
pub enum BLayout {
    /// `k×n` row-major: element `(p, j)` at `b[p*n + j]`.
    RowMajor,
    /// `n×k` row-major, used transposed: element `(p, j)` at `b[j*k + p]`.
    Transposed,
}

thread_local! {
    // Packing scratch, reused across calls (one per thread that trains a
    // device) so steady-state GEMMs allocate nothing.
    static PACK_A: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static PACK_B: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// The layout pairs the mat-mul API issues: `matmul`, `matmul_nt`,
/// `matmul_tn`.
#[cfg(test)]
pub(crate) const LAYOUTS: [(ALayout, BLayout); 3] = [
    (ALayout::RowMajor, BLayout::RowMajor),
    (ALayout::RowMajor, BLayout::Transposed),
    (ALayout::Transposed, BLayout::RowMajor),
];

/// Capacities of this thread's `(PACK_A, PACK_B)`: zero until a product
/// on this thread has gone through the packed path.
#[cfg(test)]
pub(crate) fn pack_capacities() -> (usize, usize) {
    (PACK_A.with_borrow(Vec::capacity), PACK_B.with_borrow(Vec::capacity))
}

/// `C += A·B` over row-major `out` (`m×n`, assumed pre-zeroed by callers
/// wanting a plain product) through the scalar `Blocked` engine.
#[allow(clippy::too_many_arguments)]
pub fn gemm(out: &mut [f32], m: usize, n: usize, k: usize, a: &[f32], al: ALayout, b: &[f32], bl: BLayout) {
    // SAFETY: the scalar micro-kernel has no CPU-feature requirements.
    unsafe { gemm_with::<MR, NR>(microkernel_scalar, MC, out, m, n, k, a, al, b, bl) }
}

/// The shared macro-kernel, generic over the register-tile shape.
///
/// `mc_block` is the row-block height (a multiple of `MR_`). `KC`/`NC`
/// are shared constants so every tile shape produces the same
/// k-reduction slabs.
///
/// # Safety
///
/// `kernel`'s CPU-feature requirements (see [`MicroKernel`]) must hold on
/// the running CPU.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn gemm_with<const MR_: usize, const NR_: usize>(
    kernel: MicroKernel<MR_, NR_>,
    mc_block: usize,
    out: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    al: ALayout,
    b: &[f32],
    bl: BLayout,
) {
    debug_assert_eq!(out.len(), m * n);
    debug_assert_eq!(mc_block % MR_, 0, "row block must be a multiple of the tile height");
    debug_assert_eq!(NC % NR_, 0, "NC must be a multiple of the tile width");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let lda = match al {
        ALayout::RowMajor => k,
        ALayout::Transposed => m,
    };
    let ldb = match bl {
        BLayout::RowMajor => n,
        BLayout::Transposed => k,
    };

    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            PACK_B.with(|cell| {
                let mut bbuf = cell.borrow_mut();
                pack_b::<NR_>(&mut bbuf, b, bl, ldb, pc, kc, jc, nc);
                for (blk, rows) in out.chunks_mut(mc_block * n).enumerate() {
                    let ic = blk * mc_block;
                    let mc = mc_block.min(m - ic);
                    process_block(kernel, rows, a, al, lda, ic, mc, n, jc, nc, pc, kc, &bbuf);
                }
            });
            pc += kc;
        }
        jc += nc;
    }
}

/// Packs `B[pc..pc+kc, jc..jc+nc]` into `NR_`-wide column panels: panel
/// `jp` holds, for each `p`, the `NR_` values of columns
/// `jc + jp*NR_ .. +NR_`, zero-padded past the matrix edge so the
/// micro-kernel never branches.
#[allow(clippy::too_many_arguments)]
fn pack_b<const NR_: usize>(
    buf: &mut Vec<f32>,
    b: &[f32],
    bl: BLayout,
    ldb: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
) {
    let np = nc.div_ceil(NR_);
    buf.clear();
    buf.resize(np * kc * NR_, 0.0);
    for jp in 0..np {
        let j0 = jc + jp * NR_;
        let jw = NR_.min(jc + nc - j0);
        let panel = &mut buf[jp * kc * NR_..(jp + 1) * kc * NR_];
        match bl {
            BLayout::RowMajor => {
                for p in 0..kc {
                    let src = &b[(pc + p) * ldb + j0..(pc + p) * ldb + j0 + jw];
                    panel[p * NR_..p * NR_ + jw].copy_from_slice(src);
                }
            }
            BLayout::Transposed => {
                for j in 0..jw {
                    let src = &b[(j0 + j) * ldb + pc..(j0 + j) * ldb + pc + kc];
                    for (p, &v) in src.iter().enumerate() {
                        panel[p * NR_ + j] = v;
                    }
                }
            }
        }
    }
}

/// Packs `A[ic..ic+mc, pc..pc+kc]` into `MR_`-tall row panels: panel `ip`
/// holds, for each `p`, the `MR_` values of rows `ic + ip*MR_ .. +MR_`,
/// zero-padded past the matrix edge.
#[allow(clippy::too_many_arguments)]
fn pack_a<const MR_: usize>(
    buf: &mut Vec<f32>,
    a: &[f32],
    al: ALayout,
    lda: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
) {
    let mp = mc.div_ceil(MR_);
    buf.clear();
    buf.resize(mp * kc * MR_, 0.0);
    for ip in 0..mp {
        let i0 = ic + ip * MR_;
        let iw = MR_.min(ic + mc - i0);
        let panel = &mut buf[ip * kc * MR_..(ip + 1) * kc * MR_];
        match al {
            ALayout::RowMajor => {
                for i in 0..iw {
                    let src = &a[(i0 + i) * lda + pc..(i0 + i) * lda + pc + kc];
                    for (p, &v) in src.iter().enumerate() {
                        panel[p * MR_ + i] = v;
                    }
                }
            }
            ALayout::Transposed => {
                for p in 0..kc {
                    let src = &a[(pc + p) * lda + i0..(pc + p) * lda + i0 + iw];
                    panel[p * MR_..p * MR_ + iw].copy_from_slice(src);
                }
            }
        }
    }
}

/// One `mc`-tall row block: pack its `A` slab, then sweep `MR_×NR_` tiles.
/// `rows` is the block's `mc×n` window of `C`.
#[allow(clippy::too_many_arguments)]
fn process_block<const MR_: usize, const NR_: usize>(
    kernel: MicroKernel<MR_, NR_>,
    rows: &mut [f32],
    a: &[f32],
    al: ALayout,
    lda: usize,
    ic: usize,
    mc: usize,
    n: usize,
    jc: usize,
    nc: usize,
    pc: usize,
    kc: usize,
    bpack: &[f32],
) {
    PACK_A.with(|cell| {
        let mut abuf = cell.borrow_mut();
        pack_a::<MR_>(&mut abuf, a, al, lda, ic, mc, pc, kc);
        let mp = mc.div_ceil(MR_);
        let np = nc.div_ceil(NR_);
        for ip in 0..mp {
            let iw = MR_.min(mc - ip * MR_);
            let apanel = &abuf[ip * kc * MR_..(ip + 1) * kc * MR_];
            for jp in 0..np {
                let jw = NR_.min(nc - jp * NR_);
                let bpanel = &bpack[jp * kc * NR_..(jp + 1) * kc * NR_];
                let mut acc = [[0.0f32; NR_]; MR_];
                // SAFETY: feature requirements are guaranteed by
                // gemm_with's caller; panels are fully packed
                // (kc·MR_ / kc·NR_ long, zero-padded).
                unsafe { kernel(kc, apanel, bpanel, &mut acc) };
                for (i, acc_row) in acc.iter().enumerate().take(iw) {
                    let base = (ip * MR_ + i) * n + jc + jp * NR_;
                    let crow = &mut rows[base..base + jw];
                    for (c, &v) in crow.iter_mut().zip(acc_row.iter()) {
                        *c += v;
                    }
                }
            }
        }
    });
}

/// The scalar register tile: `acc[i][j] += Σ_p apanel[p][i] · bpanel[p][j]`.
/// `chunks_exact` gives the optimiser fixed-size, bounds-check-free views;
/// the `NR`-wide inner loop vectorises and the `MR×NR` accumulators give
/// 32 independent dependency chains. No FMA contraction, so numerics match
/// a baseline (non-v3) build bit-for-bit.
///
/// # Safety
///
/// None required — plain safe code behind the [`MicroKernel`] signature.
unsafe fn microkernel_scalar(kc: usize, apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
    for (av, bv) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR)).take(kc) {
        for i in 0..MR {
            let ai = av[i];
            for j in 0..NR {
                acc[i][j] += ai * bv[j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += a[i * k + p] * b[p * n + j];
                }
                out[i * n + j] = s;
            }
        }
        out
    }

    fn fill(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = crate::NebulaRng::seed(seed);
        (0..len).map(|_| rng.normal_f32(0.0, 1.0)).collect()
    }

    #[test]
    fn blocked_matches_naive_at_block_edges() {
        // Shapes straddling MR/NR/MC/KC/NC boundaries.
        for &(m, n, k) in &[
            (1, 1, 1),
            (MR, NR, 4),
            (MR + 1, NR + 1, 3),
            (MC, NR, KC),
            (MC + 3, NC + 5, KC + 7),
            (2, 300, 300),
        ] {
            let a = fill(m * k, 1 + m as u64);
            let b = fill(k * n, 2 + n as u64);
            let mut out = vec![0.0; m * n];
            gemm(&mut out, m, n, k, &a, ALayout::RowMajor, &b, BLayout::RowMajor);
            let want = naive(m, n, k, &a, &b);
            for (x, y) in out.iter().zip(&want) {
                assert!((x - y).abs() <= 1e-3 * (1.0 + y.abs()), "{m}x{n}x{k}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn transposed_layouts_match_explicit_transpose() {
        let (m, n, k) = (9, 13, 21);
        let a = fill(m * k, 3);
        let b = fill(k * n, 4);
        // A stored k×m.
        let mut at = vec![0.0; k * m];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        // B stored n×k.
        let mut bt = vec![0.0; n * k];
        for p in 0..k {
            for j in 0..n {
                bt[j * k + p] = b[p * n + j];
            }
        }
        let want = naive(m, n, k, &a, &b);
        let mut out = vec![0.0; m * n];
        gemm(&mut out, m, n, k, &at, ALayout::Transposed, &b, BLayout::RowMajor);
        for (x, y) in out.iter().zip(&want) {
            assert!((x - y).abs() <= 1e-3 * (1.0 + y.abs()));
        }
        let mut out2 = vec![0.0; m * n];
        gemm(&mut out2, m, n, k, &a, ALayout::RowMajor, &bt, BLayout::Transposed);
        for (x, y) in out2.iter().zip(&want) {
            assert!((x - y).abs() <= 1e-3 * (1.0 + y.abs()));
        }
    }
}

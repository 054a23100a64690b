//! Explicit SIMD micro-kernels with runtime dispatch.
//!
//! The scalar `Blocked` engine leaves FMA throughput on the table: LLVM
//! will not contract `a*b + c` into a fused multiply-add without
//! fast-math flags, so the auto-vectorised tile issues separate multiply
//! and add instructions and sustains at best half of machine peak. The
//! kernels here use `_mm256_fmadd_ps`/`_mm512_fmadd_ps` explicitly:
//!
//! * **AVX2+FMA, 6×16 tile** — 12 of the 16 YMM registers hold the
//!   accumulator (6 rows × two 8-lane vectors), leaving room for the two
//!   `B` vectors and the broadcast `A` scalar. 6×16 over two FMA ports
//!   covers the 4-to-5-cycle FMA latency with ~12 independent chains.
//! * **AVX-512F, 8×32 tile** — 16 of the 32 ZMM registers hold the
//!   accumulator (8 rows × two 16-lane vectors); twice the flops per
//!   k-step of the AVX2 tile.
//!
//! Feature detection runs once via [`is_x86_feature_detected!`] and is
//! cached in a `OnceLock` ([`detect`]); [`crate::backend::resolve`] maps
//! the detected [`SimdLevel`] to a [`crate::KernelBackend`] and never
//! dispatches a kernel the CPU cannot run — on non-x86 builds both entry
//! points degrade to the scalar blocked engine, the guaranteed fallback.
//!
//! Each engine has two paths over those tile shapes, chosen per product
//! by [`direct_fits`]: the packed macro-kernel it shares with the scalar
//! engine (`gemm::gemm_with`), and a direct macro-loop (also one
//! generic function) whose tiles read `A` and `B` where they lie, are as
//! tall as the rows that exist and mask the ragged right edge — what a
//! train step's small products run on.
//!
//! ## Determinism
//!
//! Both paths of both engines cut `k` into the scalar tile's `KC` slabs
//! and sum each output element's slab in ascending `p` order from zero,
//! one FMA per product, on the calling thread, before adding it to `C`.
//! A fixed backend is therefore run-to-run bit-identical and its two
//! paths are bit-identical to each other (pinned per engine by
//! `tests::direct_path_equals_packed_path_bit_for_bit`); across backends
//! results differ only by FMA contraction, pinned against the scalar
//! engine by `tests/simd_equivalence.rs`.

use super::{direct_fits, gemm_with, ALayout, BLayout};
use std::sync::OnceLock;

/// Best instruction-set tier the running CPU supports, ordered so that
/// `Avx512 > Avx2 > None` comparisons express capability.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// No usable x86 SIMD tier (or a non-x86 build): scalar engine only.
    None,
    /// AVX2 + FMA available.
    Avx2,
    /// AVX-512F available (implies the AVX2 tier).
    Avx512,
}

/// Detects the best supported [`SimdLevel`] once per process; subsequent
/// calls are a relaxed atomic load out of the `OnceLock`.
pub fn detect() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            // FMA is required at every tier: the whole point of the
            // explicit kernels is fused multiply-add throughput.
            if !(is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")) {
                SimdLevel::None
            } else if is_x86_feature_detected!("avx512f") {
                SimdLevel::Avx512
            } else {
                SimdLevel::Avx2
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            SimdLevel::None
        }
    })
}

/// Register-tile rows of the AVX2 micro-kernel.
pub const MR_AVX2: usize = 6;
/// Register-tile columns of the AVX2 micro-kernel (two YMM lanes).
pub const NR_AVX2: usize = 16;
/// Register-tile rows of the AVX-512 micro-kernel.
pub const MR_AVX512: usize = 8;
/// Register-tile columns of the AVX-512 micro-kernel (two ZMM lanes).
pub const NR_AVX512: usize = 32;
/// Row-block height for the SIMD engines: a common multiple of both tile
/// heights; `96×KC` floats ≈ 96 KiB of packed `A` stays L2-resident.
pub const MC_SIMD: usize = 96;

/// `C += A·B` through the AVX2+FMA engine: the direct 6×16 tiles when
/// [`direct_fits`], the packed 6×16 micro-kernel otherwise — the same
/// bits either way.
///
/// Panics in debug builds if the CPU lacks AVX2+FMA — dispatch through
/// [`crate::backend::resolve`] guarantees it is only reached when
/// supported. Non-x86 builds fall back to the scalar blocked engine.
#[allow(clippy::too_many_arguments)]
pub fn gemm_avx2(
    out: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    al: ALayout,
    b: &[f32],
    bl: BLayout,
) {
    #[cfg(target_arch = "x86_64")]
    {
        debug_assert!(detect() >= SimdLevel::Avx2, "AVX2 kernel dispatched on unsupported CPU");
        // SAFETY: resolve() only routes here when AVX2+FMA are present.
        unsafe {
            if direct_fits(m, n, k) {
                x86::gemm_direct::<MR_AVX2, NR_AVX2>(x86::direct_avx2, out, m, n, k, a, al, b, bl)
            } else {
                gemm_with::<MR_AVX2, NR_AVX2>(x86::microkernel_avx2, MC_SIMD, out, m, n, k, a, al, b, bl)
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    super::gemm(out, m, n, k, a, al, b, bl);
}

/// `C += A·B` through the AVX-512F engine, 8×32 tiles.
///
/// Same contract as [`gemm_avx2`], requiring the `Avx512` tier.
#[allow(clippy::too_many_arguments)]
pub fn gemm_avx512(
    out: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    al: ALayout,
    b: &[f32],
    bl: BLayout,
) {
    #[cfg(target_arch = "x86_64")]
    {
        debug_assert!(detect() >= SimdLevel::Avx512, "AVX-512 kernel dispatched on unsupported CPU");
        // SAFETY: resolve() only routes here when AVX-512F — and with it
        // AVX2+FMA, see `detect` — is present.
        unsafe {
            if direct_fits(m, n, k) {
                x86::gemm_direct::<MR_AVX512, NR_AVX512>(x86::direct_avx512, out, m, n, k, a, al, b, bl)
            } else {
                gemm_with::<MR_AVX512, NR_AVX512>(
                    x86::microkernel_avx512,
                    MC_SIMD,
                    out,
                    m,
                    n,
                    k,
                    a,
                    al,
                    b,
                    bl,
                )
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    super::gemm(out, m, n, k, a, al, b, bl);
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::super::KC;
    use super::{ALayout, BLayout, MR_AVX2, MR_AVX512, NR_AVX2, NR_AVX512};
    use std::arch::x86_64::*;
    use std::mem::MaybeUninit;

    /// The operands of one register tile of the direct path, which reads
    /// `A[i, p]` at `a + i·a_rs + p·a_cs`, `B[p, j]` at `b + p·ldb + j` and
    /// `C[i, j]` at `c + i·ldc + j` for `p < k`, `j < nr`: nothing is
    /// packed.
    #[derive(Clone, Copy)]
    pub(super) struct Tile {
        k: usize,
        a: *const f32,
        a_rs: usize,
        a_cs: usize,
        b: *const f32,
        ldb: usize,
        c: *mut f32,
        ldc: usize,
        nr: usize,
    }

    /// Runs one tile of `mr` rows: `C[i, j] += Σ_p A[i, p]·B[p, j]` for
    /// `i < mr`, `j < nr`, every sum one ascending-`p` FMA chain from zero
    /// — the chain the packed micro-kernel of the same engine runs —
    /// added to `C` once.
    ///
    /// # Safety
    ///
    /// The CPU must support the kernel's instruction set, `1 ≤ mr` and
    /// `1 ≤ nr` must not exceed the kernel's tile shape, and every element
    /// [`Tile`] names must lie inside one live allocation, `C`'s writable
    /// and not aliased by `A` or `B`. Nothing else is touched: lanes at or
    /// past `nr` are masked out of every load and store.
    pub(super) type DirectKernel = unsafe fn(tile: Tile, mr: usize);

    /// The direct macro-loop, generic over the register-tile shape as
    /// [`super::gemm_with`] is: `out += A·B` with neither operand packed.
    ///
    /// Column panels are `NR_` wide (the last one as wide as what is left)
    /// and the reduction is cut into the packed path's `KC` slabs, each
    /// summed from zero and added to `out` in ascending order — so every
    /// output element sees the additions the packed path makes. A
    /// row-major `B` is read where it lies; a transposed `B` has each
    /// panel slab transposed onto the stack once, 8×8 blocks at a time in
    /// registers, and is then read the same way. Row tiles split `m`
    /// evenly over the fewest tiles of at most `MR_` rows (`m = 10` runs
    /// 5 + 5), so no tile multiplies rows that do not exist and none is
    /// left with a row or two, too few FMA chains to hide their latency.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX and `kernel`'s instruction set, and `MR_`,
    /// `NR_` must be `kernel`'s tile shape.
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn gemm_direct<const MR_: usize, const NR_: usize>(
        kernel: DirectKernel,
        out: &mut [f32],
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        al: ALayout,
        b: &[f32],
        bl: BLayout,
    ) {
        // Every pointer the tiles dereference is derived from these
        // lengths, so they are checked in release builds too.
        assert!(out.len() == m * n && a.len() == m * k && b.len() == k * n, "operand length mismatch");
        assert!(NR_ <= NR_AVX512, "the transposed panel is sized for the widest tile");
        if m == 0 || n == 0 {
            return;
        }
        // Where one slab of a transposed `B` panel is laid out row-major:
        // at most `KC` rows of `NR_` floats, written before they are read.
        let mut panel = [MaybeUninit::<f32>::uninit(); KC * NR_AVX512];
        let (a_rs, a_cs) = match al {
            ALayout::RowMajor => (k, 1),
            ALayout::Transposed => (1, m),
        };
        let row_tiles = m.div_ceil(MR_);
        let (rows, taller) = (m / row_tiles, m % row_tiles);
        let mut j0 = 0;
        while j0 < n {
            let nr = NR_.min(n - j0);
            let mut pc = 0;
            while pc < k {
                let kc = KC.min(k - pc);
                let (bp, ldb) = match bl {
                    BLayout::RowMajor => (b[pc * n + j0..].as_ptr(), n),
                    BLayout::Transposed => {
                        let dst = panel.as_mut_ptr().cast::<f32>();
                        // SAFETY: AVX is the caller's guarantee. The source
                        // is columns `pc..pc + kc ≤ k` of rows
                        // `j0..j0 + nr ≤ n` of the `n×k` matrix `b`; the
                        // destination is `kc ≤ KC` rows of `NR_` floats,
                        // which is what `panel` holds.
                        unsafe { transpose_panel(b[j0 * k + pc..].as_ptr(), k, kc, nr, dst, NR_) };
                        (dst.cast_const(), NR_)
                    }
                };
                let mut i0 = 0;
                for tile in 0..row_tiles {
                    let mr = rows + usize::from(tile < taller);
                    // SAFETY: the instruction set and `mr ≤ MR_`,
                    // `nr ≤ NR_` are the caller's guarantee and the splits
                    // above. Rows `i0..i0 + mr ≤ m`, columns
                    // `j0..j0 + nr ≤ n` and depths `pc..pc + kc ≤ k` are
                    // inside `a`, `out` and `b` by the length checks (a
                    // transposed `B` is read from `panel`, where
                    // `transpose_panel` has just written `kc` rows of `nr`
                    // floats); `out` is a `&mut`, so no operand aliases it.
                    unsafe {
                        let tile = Tile {
                            k: kc,
                            a: a[i0 * a_rs + pc * a_cs..].as_ptr(),
                            a_rs,
                            a_cs,
                            b: bp,
                            ldb,
                            c: out[i0 * n + j0..].as_mut_ptr(),
                            ldc: n,
                            nr,
                        };
                        kernel(tile, mr)
                    };
                    i0 += mr;
                }
                pc += kc;
            }
            j0 += nr;
        }
    }

    /// `dst[p·ld + j] = src[j·src_ld + p]` for `j < nr`, `p < kc`: the
    /// transpose of `kc` columns of `nr` rows, in 8×8 register blocks with
    /// scalar copies along the two ragged edges.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX; `src` must be readable for `nr` rows of
    /// `kc` floats, `src_ld` apart, and `dst` writable for `kc` rows of
    /// `ld ≥ nr` floats.
    #[target_feature(enable = "avx")]
    unsafe fn transpose_panel(
        src: *const f32,
        src_ld: usize,
        kc: usize,
        nr: usize,
        dst: *mut f32,
        ld: usize,
    ) {
        let (jf, pf) = (nr & !7, kc & !7);
        for jb in (0..jf).step_by(8) {
            for pb in (0..pf).step_by(8) {
                let s = src.add(jb * src_ld + pb);
                let mut r = [_mm256_setzero_ps(); 8];
                for (i, row) in r.iter_mut().enumerate() {
                    *row = _mm256_loadu_ps(s.add(i * src_ld));
                }
                // t[2q], t[2q + 1]: rows 2q and 2q + 1 interleaved, low
                // and high halves of each 128-bit lane.
                let mut t = r;
                for q in 0..4 {
                    t[2 * q] = _mm256_unpacklo_ps(r[2 * q], r[2 * q + 1]);
                    t[2 * q + 1] = _mm256_unpackhi_ps(r[2 * q], r[2 * q + 1]);
                }
                // u[4h + 2q], u[4h + 2q + 1]: the 64-bit pairs of t[4h + q]
                // and t[4h + q + 2], i.e. four rows' worth of one column
                // pair in each 128-bit lane.
                let mut u = t;
                for h in [0, 4] {
                    for q in 0..2 {
                        u[h + 2 * q] = _mm256_shuffle_ps::<0x44>(t[h + q], t[h + q + 2]);
                        u[h + 2 * q + 1] = _mm256_shuffle_ps::<0xEE>(t[h + q], t[h + q + 2]);
                    }
                }
                let d = dst.add(pb * ld + jb);
                for i in 0..4 {
                    _mm256_storeu_ps(d.add(i * ld), _mm256_permute2f128_ps::<0x20>(u[i], u[i + 4]));
                    _mm256_storeu_ps(d.add((i + 4) * ld), _mm256_permute2f128_ps::<0x31>(u[i], u[i + 4]));
                }
            }
        }
        for j in 0..nr {
            let from = if j < jf { pf } else { 0 };
            for p in from..kc {
                *dst.add(p * ld + j) = *src.add(j * src_ld + p);
            }
        }
    }

    /// Expands to a `match` that calls `$tile::<rows, $vectors>($t)` for
    /// the run-time row count `$mr`.
    macro_rules! tile_by_rows {
        ($tile:ident, $vectors:literal, $t:expr, $mr:expr, [$($rows:literal),+]) => {
            match $mr {
                $($rows => $tile::<$rows, $vectors>($t),)+
                rows => unreachable!("a direct tile of {rows} rows"),
            }
        };
    }

    /// [`DirectKernel`] of the AVX2 engine: tiles of up to 6 × 16.
    ///
    /// # Safety
    /// As [`DirectKernel`], with AVX2 and FMA.
    pub(super) unsafe fn direct_avx2(t: Tile, mr: usize) {
        assert!(t.nr <= NR_AVX2, "a direct tile of {} columns", t.nr);
        if t.nr <= 8 {
            tile_by_rows!(tile_avx2, 1, t, mr, [1, 2, 3, 4, 5, 6])
        } else {
            tile_by_rows!(tile_avx2, 2, t, mr, [1, 2, 3, 4, 5, 6])
        }
    }

    /// An `R × nr` tile in `R × V` YMM accumulators, `nr ≤ 8·V`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn tile_avx2<const R: usize, const V: usize>(t: Tile) {
        // Lane `l` of vector `v` is column `8v + l`: live while below `nr`.
        // `maskload`/`maskstore` neither read, write nor fault on a lane
        // whose mask is clear, so no column at or past `nr` is touched;
        // the vectors' base pointers are formed with `wrapping_add`
        // because a fully masked one may lie past the allocation.
        const LANES: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];
        let mut mask = [_mm256_setzero_si256(); V];
        for (v, lanes) in mask.iter_mut().enumerate() {
            let live = t.nr.saturating_sub(8 * v).min(8);
            *lanes = _mm256_loadu_si256(LANES.as_ptr().add(8 - live).cast());
        }
        let mut acc = [[_mm256_setzero_ps(); V]; R];
        let mut bv = [_mm256_setzero_ps(); V];
        for p in 0..t.k {
            let bp = t.b.add(p * t.ldb);
            for v in 0..V {
                bv[v] = _mm256_maskload_ps(bp.wrapping_add(8 * v), mask[v]);
            }
            let ap = t.a.add(p * t.a_cs);
            for (i, row) in acc.iter_mut().enumerate() {
                let ai = _mm256_broadcast_ss(&*ap.add(i * t.a_rs));
                for v in 0..V {
                    row[v] = _mm256_fmadd_ps(ai, bv[v], row[v]);
                }
            }
        }
        for (i, row) in acc.iter().enumerate() {
            let cp = t.c.add(i * t.ldc);
            for v in 0..V {
                let at = cp.wrapping_add(8 * v);
                _mm256_maskstore_ps(at, mask[v], _mm256_add_ps(_mm256_maskload_ps(at, mask[v]), row[v]));
            }
        }
    }

    /// [`DirectKernel`] of the AVX-512 engine: tiles of up to 8 × 32.
    ///
    /// # Safety
    /// As [`DirectKernel`], with AVX-512F.
    pub(super) unsafe fn direct_avx512(t: Tile, mr: usize) {
        assert!(t.nr <= NR_AVX512, "a direct tile of {} columns", t.nr);
        if t.nr <= 16 {
            tile_by_rows!(tile_avx512, 1, t, mr, [1, 2, 3, 4, 5, 6, 7, 8])
        } else {
            tile_by_rows!(tile_avx512, 2, t, mr, [1, 2, 3, 4, 5, 6, 7, 8])
        }
    }

    /// An `R × nr` tile in `R × V` ZMM accumulators, `nr ≤ 16·V`.
    #[target_feature(enable = "avx512f")]
    unsafe fn tile_avx512<const R: usize, const V: usize>(t: Tile) {
        // Bit `l` of mask `v` is column `16v + l`: set while below `nr`.
        // A masked load or store neither touches nor faults on a lane
        // whose bit is clear, so no column at or past `nr` is touched;
        // the vectors' base pointers are formed with `wrapping_add`
        // because a fully masked one may lie past the allocation.
        let mut mask: [__mmask16; V] = [0; V];
        for (v, lanes) in mask.iter_mut().enumerate() {
            *lanes = ((1u32 << t.nr.saturating_sub(16 * v).min(16)) - 1) as __mmask16;
        }
        let mut acc = [[_mm512_setzero_ps(); V]; R];
        let mut bv = [_mm512_setzero_ps(); V];
        for p in 0..t.k {
            let bp = t.b.add(p * t.ldb);
            for v in 0..V {
                bv[v] = _mm512_maskz_loadu_ps(mask[v], bp.wrapping_add(16 * v));
            }
            let ap = t.a.add(p * t.a_cs);
            for (i, row) in acc.iter_mut().enumerate() {
                let ai = _mm512_set1_ps(*ap.add(i * t.a_rs));
                for v in 0..V {
                    row[v] = _mm512_fmadd_ps(ai, bv[v], row[v]);
                }
            }
        }
        for (i, row) in acc.iter().enumerate() {
            let cp = t.c.add(i * t.ldc);
            for v in 0..V {
                let at = cp.wrapping_add(16 * v);
                let sum = _mm512_add_ps(_mm512_maskz_loadu_ps(mask[v], at), row[v]);
                _mm512_mask_storeu_ps(at, mask[v], sum);
            }
        }
    }

    /// AVX2+FMA 6×16 register tile behind the [`super::MicroKernel`]
    /// signature (plain `unsafe fn` so it coerces to the fn-pointer type).
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    pub(super) unsafe fn microkernel_avx2(
        kc: usize,
        apanel: &[f32],
        bpanel: &[f32],
        acc: &mut [[f32; NR_AVX2]; MR_AVX2],
    ) {
        debug_assert!(apanel.len() >= kc * MR_AVX2 && bpanel.len() >= kc * NR_AVX2);
        microkernel_avx2_impl(kc, apanel, bpanel, acc)
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn microkernel_avx2_impl(
        kc: usize,
        apanel: &[f32],
        bpanel: &[f32],
        acc: &mut [[f32; NR_AVX2]; MR_AVX2],
    ) {
        // 12 YMM accumulators: 6 rows × two 8-lane halves, loaded from
        // (and added back into) the caller's tile to honour the `+=`
        // contract shared with the scalar kernel.
        let mut c = [[_mm256_setzero_ps(); 2]; MR_AVX2];
        let mut ap = apanel.as_ptr();
        let mut bp = bpanel.as_ptr();
        for _ in 0..kc {
            let b0 = _mm256_loadu_ps(bp);
            let b1 = _mm256_loadu_ps(bp.add(8));
            for (i, row) in c.iter_mut().enumerate() {
                let ai = _mm256_broadcast_ss(&*ap.add(i));
                row[0] = _mm256_fmadd_ps(ai, b0, row[0]);
                row[1] = _mm256_fmadd_ps(ai, b1, row[1]);
            }
            ap = ap.add(MR_AVX2);
            bp = bp.add(NR_AVX2);
        }
        for (row, out) in c.iter().zip(acc.iter_mut()) {
            let lo = _mm256_add_ps(_mm256_loadu_ps(out.as_ptr()), row[0]);
            let hi = _mm256_add_ps(_mm256_loadu_ps(out.as_ptr().add(8)), row[1]);
            _mm256_storeu_ps(out.as_mut_ptr(), lo);
            _mm256_storeu_ps(out.as_mut_ptr().add(8), hi);
        }
    }

    /// AVX-512F 8×32 register tile behind the [`super::MicroKernel`]
    /// signature.
    ///
    /// # Safety
    /// The CPU must support AVX-512F.
    pub(super) unsafe fn microkernel_avx512(
        kc: usize,
        apanel: &[f32],
        bpanel: &[f32],
        acc: &mut [[f32; NR_AVX512]; MR_AVX512],
    ) {
        debug_assert!(apanel.len() >= kc * MR_AVX512 && bpanel.len() >= kc * NR_AVX512);
        microkernel_avx512_impl(kc, apanel, bpanel, acc)
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn microkernel_avx512_impl(
        kc: usize,
        apanel: &[f32],
        bpanel: &[f32],
        acc: &mut [[f32; NR_AVX512]; MR_AVX512],
    ) {
        // 16 ZMM accumulators: 8 rows × two 16-lane halves.
        let mut c = [[_mm512_setzero_ps(); 2]; MR_AVX512];
        let mut ap = apanel.as_ptr();
        let mut bp = bpanel.as_ptr();
        for _ in 0..kc {
            let b0 = _mm512_loadu_ps(bp);
            let b1 = _mm512_loadu_ps(bp.add(16));
            for (i, row) in c.iter_mut().enumerate() {
                let ai = _mm512_set1_ps(*ap.add(i));
                row[0] = _mm512_fmadd_ps(ai, b0, row[0]);
                row[1] = _mm512_fmadd_ps(ai, b1, row[1]);
            }
            ap = ap.add(MR_AVX512);
            bp = bp.add(NR_AVX512);
        }
        for (row, out) in c.iter().zip(acc.iter_mut()) {
            let lo = _mm512_add_ps(_mm512_loadu_ps(out.as_ptr()), row[0]);
            let hi = _mm512_add_ps(_mm512_loadu_ps(out.as_ptr().add(16)), row[1]);
            _mm512_storeu_ps(out.as_mut_ptr(), lo);
            _mm512_storeu_ps(out.as_mut_ptr().add(16), hi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = crate::NebulaRng::seed(seed);
        (0..len).map(|_| rng.normal_f32(0.0, 1.0)).collect()
    }

    fn close(got: &[f32], want: &[f32], tol: f32) {
        for (x, y) in got.iter().zip(want) {
            assert!((x - y).abs() <= tol * (1.0 + y.abs()), "{x} vs {y}");
        }
    }

    #[test]
    fn detect_is_stable_and_ordered() {
        assert_eq!(detect(), detect());
        assert!(SimdLevel::None < SimdLevel::Avx2 && SimdLevel::Avx2 < SimdLevel::Avx512);
    }

    /// The direct path and the packed macro-kernel of one engine must
    /// agree in every bit: both run one ascending-`p` FMA chain from zero
    /// per output element and add it to `out` once. Swept over the row
    /// counts sparse routing leaves a module (and the `dW` shapes whose
    /// depth they are), the other products of a train step, and shapes
    /// that straddle both tile shapes, in all three layouts, onto a zero
    /// `out` and — the accumulating form — onto a non-zero one.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn direct_path_equals_packed_path_bit_for_bit() {
        type Path = unsafe fn(&mut [f32], usize, usize, usize, &[f32], ALayout, &[f32], BLayout);
        // `(name, direct path, packed path)`. SAFETY of the blocks inside:
        // each pair is pushed only when `detect()` reports its tier, and
        // each kernel is passed with its own tile shape.
        let mut engines: Vec<(&str, Path, Path)> = Vec::new();
        if detect() >= SimdLevel::Avx2 {
            engines.push((
                "avx2",
                |out, m, n, k, a, al, b, bl| unsafe {
                    x86::gemm_direct::<MR_AVX2, NR_AVX2>(x86::direct_avx2, out, m, n, k, a, al, b, bl)
                },
                |out, m, n, k, a, al, b, bl| unsafe {
                    gemm_with::<MR_AVX2, NR_AVX2>(x86::microkernel_avx2, MC_SIMD, out, m, n, k, a, al, b, bl)
                },
            ));
        }
        if detect() >= SimdLevel::Avx512 {
            engines.push((
                "avx512",
                |out, m, n, k, a, al, b, bl| unsafe {
                    x86::gemm_direct::<MR_AVX512, NR_AVX512>(x86::direct_avx512, out, m, n, k, a, al, b, bl)
                },
                |out, m, n, k, a, al, b, bl| unsafe {
                    gemm_with::<MR_AVX512, NR_AVX512>(
                        x86::microkernel_avx512,
                        MC_SIMD,
                        out,
                        m,
                        n,
                        k,
                        a,
                        al,
                        b,
                        bl,
                    )
                },
            ));
        }

        let mut shapes = vec![
            (16, 48, 96),
            (16, 16, 48),
            (16, 10, 96),
            (17, 33, 5),
            (33, 17, 7),
            (16, 64, 360),
            (9, 35, 2 * super::super::KC + 3),
        ];
        for r in 1..=18 {
            for w in [64, 96] {
                shapes.extend([(r, 24, w), (r, w, 24), (24, w, r), (w, 24, r)]);
            }
        }
        let mut compared = 0;
        for (m, n, k) in shapes {
            let a = fill(m * k, (m * 31 + k) as u64);
            let b = fill(k * n, (n * 37 + k) as u64);
            let start = fill(m * n, (m * 41 + n) as u64);
            for (al, bl) in super::super::LAYOUTS {
                for onto in [vec![0.0; m * n], start.clone()] {
                    for &(name, direct, packed) in &engines {
                        let (mut d, mut p) = (onto.clone(), onto.clone());
                        // SAFETY: `engines` holds only what `detect()` reports.
                        unsafe {
                            direct(&mut d, m, n, k, &a, al, &b, bl);
                            packed(&mut p, m, n, k, &a, al, &b, bl);
                        }
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
                        assert_eq!(bits(&d), bits(&p), "{name} {m}x{n}x{k} {al:?}/{bl:?}");
                        compared += 1;
                    }
                }
            }
        }
        assert_eq!(compared, (7 + 18 * 8) * 3 * 2 * engines.len());
    }

    #[test]
    fn simd_engines_match_scalar_and_are_deterministic() {
        // Shapes straddling both SIMD tile shapes and the shared KC slab.
        for &(m, n, k) in
            &[(1, 1, 1), (MR_AVX512, NR_AVX512, 5), (MC_SIMD + 7, NR_AVX512 + 3, super::super::KC + 9)]
        {
            let a = fill(m * k, 21 + m as u64);
            let b = fill(k * n, 22 + n as u64);
            let mut scalar = vec![0.0; m * n];
            super::super::gemm(&mut scalar, m, n, k, &a, ALayout::RowMajor, &b, BLayout::RowMajor);

            if detect() >= SimdLevel::Avx2 {
                let mut v = vec![0.0; m * n];
                gemm_avx2(&mut v, m, n, k, &a, ALayout::RowMajor, &b, BLayout::RowMajor);
                close(&v, &scalar, 1e-4);
                let mut v2 = vec![0.0; m * n];
                gemm_avx2(&mut v2, m, n, k, &a, ALayout::RowMajor, &b, BLayout::RowMajor);
                assert_eq!(v, v2, "AVX2 engine is not run-to-run deterministic");
            }
            if detect() >= SimdLevel::Avx512 {
                let mut v = vec![0.0; m * n];
                gemm_avx512(&mut v, m, n, k, &a, ALayout::RowMajor, &b, BLayout::RowMajor);
                close(&v, &scalar, 1e-4);
                let mut v2 = vec![0.0; m * n];
                gemm_avx512(&mut v2, m, n, k, &a, ALayout::RowMajor, &b, BLayout::RowMajor);
                assert_eq!(v, v2, "AVX-512 engine is not run-to-run deterministic");
            }
        }
    }
}

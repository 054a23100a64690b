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
//! ## Determinism
//!
//! Both kernels run under the same macro-kernel
//! ([`crate::gemm::gemm_with`]) with the same `KC` slabbing as the scalar
//! tile and accumulate each output element in ascending `p` order on the
//! calling thread. A fixed backend is therefore run-to-run bit-identical;
//! across backends results differ only by FMA contraction, pinned against
//! the scalar engine by `tests/simd_equivalence.rs`.

use super::{gemm_with, ALayout, BLayout, MicroKernel};
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

/// `C += A·B` through the AVX2+FMA 6×16 micro-kernel.
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
        let kernel: MicroKernel<MR_AVX2, NR_AVX2> = x86::microkernel_avx2;
        // SAFETY: resolve() only routes here when AVX2+FMA are present.
        unsafe { gemm_with::<MR_AVX2, NR_AVX2>(kernel, MC_SIMD, out, m, n, k, a, al, b, bl) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    super::gemm(out, m, n, k, a, al, b, bl);
}

/// `C += A·B` through the AVX-512F 8×32 micro-kernel.
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
        let kernel: MicroKernel<MR_AVX512, NR_AVX512> = x86::microkernel_avx512;
        // SAFETY: resolve() only routes here when AVX-512F is present.
        unsafe { gemm_with::<MR_AVX512, NR_AVX512>(kernel, MC_SIMD, out, m, n, k, a, al, b, bl) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    super::gemm(out, m, n, k, a, al, b, bl);
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{MR_AVX2, MR_AVX512, NR_AVX2, NR_AVX512};
    use std::arch::x86_64::*;

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

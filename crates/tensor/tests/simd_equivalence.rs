//! Property tests pinning the SIMD engines against the scalar blocked
//! engine.
//!
//! Both paths of a SIMD engine — the packed macro-kernel it shares with
//! the blocked engine, and the direct one small products take — use the
//! blocked engine's `KC` slabbing, so for every output element they
//! accumulate the same products in the same order — the only difference
//! is FMA contraction. Tolerance is therefore the workspace's ordinary
//! mixed 1e-4. (That the two paths of one engine agree bit for bit is a
//! unit test next to them, `gemm::simd::tests`.)
//!
//! Shapes are drawn to straddle every register tile in play (scalar 4×8,
//! AVX2 6×16, AVX-512 8×32), the `MC_SIMD = 96` row block, and the shared
//! `KC = 256` slab: dimensions of 1, exact multiples, and off-by-a-few
//! tails are all reachable. The engines are called directly (not through
//! the process-global backend switch) so the proptests can run
//! concurrently without racing the selection; the scoped-guard path
//! through the public `Tensor` API is covered by a single deterministic
//! test at the bottom.

use nebula_tensor::gemm::simd::{self, SimdLevel};
use nebula_tensor::gemm::{self, ALayout, BLayout};
use nebula_tensor::{KernelBackend, NebulaRng, Tensor};
use proptest::prelude::*;

const TOL: f32 = 1e-4;

fn fill(rng: &mut NebulaRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.normal_f32(0.0, 1.0)).collect()
}

fn close(got: &[f32], want: &[f32]) -> Option<String> {
    for (i, (&x, &y)) in got.iter().zip(want).enumerate() {
        if (x - y).abs() > TOL.max(TOL * x.abs().max(y.abs())) {
            return Some(format!("element {i}: {x} vs {y}"));
        }
    }
    None
}

/// Dimension strategy biased toward the tile/block edges of every engine:
/// 1, the AVX2/AVX-512 tile sides (6, 16, 8, 32), and the SIMD row block
/// (95..97) get extra probability; the plain range covers non-multiples.
fn dim() -> impl Strategy<Value = usize> {
    (0usize..139 * 4).prop_map(|x| {
        let d = 1 + x / 4;
        if x % 4 == 0 {
            [1, 6, 8, 16, 32, 95, 96, 97][d % 8]
        } else {
            d
        }
    })
}

/// Signature shared by every full GEMM engine entry point.
type Engine = fn(&mut [f32], usize, usize, usize, &[f32], ALayout, &[f32], BLayout);

/// Runs one engine over all three layout variants and checks it against
/// the scalar blocked engine.
fn check_engine(engine: Engine, name: &str, m: usize, n: usize, k: usize, seed: u64) -> Result<(), String> {
    let mut rng = NebulaRng::seed(seed);
    let a = fill(&mut rng, m * k);
    let b = fill(&mut rng, k * n);
    let at = fill(&mut rng, k * m); // stored k×m
    let bt = fill(&mut rng, n * k); // stored n×k
    for (al, bl, aa, bb) in [
        (ALayout::RowMajor, BLayout::RowMajor, &a, &b),
        (ALayout::RowMajor, BLayout::Transposed, &a, &bt),
        (ALayout::Transposed, BLayout::RowMajor, &at, &b),
    ] {
        let mut scalar = vec![0.0; m * n];
        gemm::gemm(&mut scalar, m, n, k, aa, al, bb, bl);
        let mut v = vec![0.0; m * n];
        engine(&mut v, m, n, k, aa, al, bb, bl);
        if let Some(err) = close(&v, &scalar) {
            return Err(format!("{name} diverged from blocked at {m}x{n}x{k} {al:?}/{bl:?}: {err}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn avx2_matches_blocked_all_layouts(m in dim(), n in dim(), k in dim(), seed in 0u64..1_000_000) {
        if simd::detect() >= SimdLevel::Avx2 {
            if let Err(e) = check_engine(simd::gemm_avx2, "avx2", m, n, k, seed) {
                prop_assert!(false, "{}", e);
            }
        }
    }

    #[test]
    fn avx512_matches_blocked_all_layouts(m in dim(), n in dim(), k in dim(), seed in 0u64..1_000_000) {
        if simd::detect() >= SimdLevel::Avx512 {
            if let Err(e) = check_engine(simd::gemm_avx512, "avx512", m, n, k, seed) {
                prop_assert!(false, "{}", e);
            }
        }
    }
}

/// Deterministic sweep of the adversarial shapes named in the issue —
/// tail m/n/k not divisible by any register block, k=1, m=1 — and of the
/// shapes a round issues, through every supported engine.
#[test]
fn edge_shapes_every_engine() {
    let mut shapes: Vec<(usize, usize, usize)> = vec![
        (1, 1, 1),
        (1, 17, 33),
        (17, 1, 33),
        (17, 33, 1),
        (6, 16, 256),   // exact AVX2 tile, exact KC
        (7, 17, 257),   // one past each
        (8, 32, 64),    // exact AVX-512 tile
        (9, 33, 65),    // one past
        (96, 256, 96),  // exact MC_SIMD/NC
        (97, 257, 300), // one past MC_SIMD/NC, k past KC
        (5, 300, 7),
        // Operands past `DIRECT_MAX_FLOATS` (everything else here is small
        // enough for the engines' direct path), so the packed path's
        // block edges stay covered through the public entry points.
        (300, 70, 280),
        (100, 400, 300),
        // The shapes `nebula_benchmark` times as `tensor.gemm_small_gflops`
        // (trunk W→W, module in W→24, module out 24→W; W = 64 HAR, 96
        // CIFAR-10) at a full batch of 16 rows — which only the stem, head
        // and selector see; modules run at the row counts appended below:
        // forward `nt` and `dX` `nn` are (16, out, in) / (16, in, out) ...
        (16, 64, 64),
        (16, 24, 64),
        (16, 64, 24),
        (16, 96, 96),
        (16, 24, 96),
        (16, 96, 24),
        // ... and `dW` `tn` is (out, in, 16).
        (64, 64, 16),
        (24, 64, 16),
        (64, 24, 16),
        (96, 96, 16),
        (24, 96, 16),
        (96, 24, 16),
    ];
    // Sparse top-k routing hands each module only the rows that chose it
    // — 3 to 15 of a 16-row batch, hardly ever all 16 — so these are the
    // row counts the module products above really run at, and the depth
    // of the matching `dW` shapes.
    for rows in [1, 3, 5, 8, 9, 11, 15] {
        for w in [64, 96] {
            shapes.extend([(rows, 24, w), (rows, w, 24), (24, w, rows), (w, 24, rows)]);
        }
    }
    for (m, n, k) in shapes {
        let seed = (m * 1_000_003 + n * 1_009 + k) as u64;
        if simd::detect() >= SimdLevel::Avx2 {
            check_engine(simd::gemm_avx2, "avx2", m, n, k, seed).unwrap();
        }
        if simd::detect() >= SimdLevel::Avx512 {
            check_engine(simd::gemm_avx512, "avx512", m, n, k, seed).unwrap();
        }
    }
}

/// The scoped-guard path through the public `Tensor` API: one `#[test]`
/// because the backend selection is process-global (see `backend.rs`).
#[test]
fn scoped_backend_switches_tensor_matmuls() {
    let mut rng = NebulaRng::seed(123);
    let a = Tensor::from_vec(fill(&mut rng, 37 * 300), &[37, 300]);
    let b = Tensor::from_vec(fill(&mut rng, 300 * 41), &[300, 41]);

    let blocked = {
        let _g = KernelBackend::Blocked.scoped();
        a.matmul(&b)
    };
    for backend in [KernelBackend::Avx2, KernelBackend::Avx512, KernelBackend::Auto] {
        let _g = backend.scoped();
        let once = a.matmul(&b);
        let twice = a.matmul(&b);
        assert_eq!(once.data(), twice.data(), "{backend} not run-to-run deterministic");
        assert!(close(once.data(), blocked.data()).is_none(), "{backend} diverged from Blocked");
    }
}

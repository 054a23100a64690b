//! Property tests: the blocked GEMM engine must agree with the retained
//! naive reference kernels for every shape and all three layout variants.
//!
//! Shapes are drawn to straddle the blocking parameters (MR=4, NR=8,
//! MC=64, KC=256, NC=256): dimensions of 1, exact multiples, and
//! off-by-a-few around tile/block edges are all reachable. Tolerance is
//! relative 1e-4 — the blocked kernel reassociates the k-sum into KC
//! slabs, so results are not bit-identical to the naive loop, but must
//! stay within ordinary f32 reassociation error.

use nebula_tensor::linalg::reference;
use nebula_tensor::{NebulaRng, Tensor};
use proptest::prelude::*;

/// Relative/absolute mixed tolerance, matching `assert_tensor_close`.
const TOL: f32 = 1e-4;

fn random_tensor(rng: &mut NebulaRng, r: usize, c: usize) -> Tensor {
    Tensor::from_vec((0..r * c).map(|_| rng.normal_f32(0.0, 1.0)).collect(), &[r, c])
}

fn close(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data().iter().zip(b.data()).all(|(&x, &y)| (x - y).abs() <= TOL.max(TOL * x.abs().max(y.abs())))
}

/// Dimension strategy biased toward blocking-parameter edges: the plain
/// range already covers 1 and non-multiples; the map folds in exact tile
/// widths (4, 8) and the MC block edge (64±1) with extra probability.
fn dim() -> impl Strategy<Value = usize> {
    (0usize..139 * 4).prop_map(|x| {
        let d = 1 + x / 4;
        if x % 4 == 0 {
            [1, 4, 8, 63, 64, 65][d % 6]
        } else {
            d
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_matches_reference(m in dim(), n in dim(), k in dim(), seed in 0u64..1_000_000) {
        let mut rng = NebulaRng::seed(seed);
        let a = random_tensor(&mut rng, m, k);
        let b = random_tensor(&mut rng, k, n);
        let blocked = a.matmul(&b);
        let naive = reference::matmul(&a, &b);
        prop_assert!(close(&blocked, &naive), "matmul diverged at m={} n={} k={}", m, n, k);
    }

    #[test]
    fn matmul_nt_matches_reference(m in dim(), n in dim(), k in dim(), seed in 0u64..1_000_000) {
        let mut rng = NebulaRng::seed(seed);
        let a = random_tensor(&mut rng, m, k);
        let b = random_tensor(&mut rng, n, k);
        let blocked = a.matmul_nt(&b);
        let naive = reference::matmul_nt(&a, &b);
        prop_assert!(close(&blocked, &naive), "matmul_nt diverged at m={} n={} k={}", m, n, k);
    }

    #[test]
    fn matmul_tn_matches_reference(m in dim(), n in dim(), k in dim(), seed in 0u64..1_000_000) {
        let mut rng = NebulaRng::seed(seed);
        let a = random_tensor(&mut rng, k, m);
        let b = random_tensor(&mut rng, k, n);
        let blocked = a.matmul_tn(&b);
        let naive = reference::matmul_tn(&a, &b);
        prop_assert!(close(&blocked, &naive), "matmul_tn diverged at m={} n={} k={}", m, n, k);
    }
}

/// Deterministic sweep of the exact edge shapes named in the issue:
/// m=1, k=1, and dims that are not multiples of any block parameter —
/// and of the shapes a round issues.
#[test]
fn edge_shapes_all_variants() {
    let mut shapes: Vec<(usize, usize, usize)> = vec![
        (1, 1, 1),
        (1, 17, 33),
        (17, 1, 33),
        (17, 33, 1),
        (4, 8, 256),    // exact MR/NR/KC multiples
        (5, 9, 257),    // one past each
        (64, 256, 64),  // exact MC/NC
        (65, 257, 300), // one past MC/NC, k past KC
        (3, 300, 7),
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
        let mut rng = NebulaRng::seed((m * 1_000_003 + n * 1_009 + k) as u64);
        let a = random_tensor(&mut rng, m, k);
        let b = random_tensor(&mut rng, k, n);
        assert!(close(&a.matmul(&b), &reference::matmul(&a, &b)), "matmul {m}x{n}x{k}");

        let bt = random_tensor(&mut rng, n, k);
        assert!(close(&a.matmul_nt(&bt), &reference::matmul_nt(&a, &bt)), "matmul_nt {m}x{n}x{k}");

        let at = random_tensor(&mut rng, k, m);
        assert!(close(&at.matmul_tn(&b), &reference::matmul_tn(&at, &b)), "matmul_tn {m}x{n}x{k}");
    }
}

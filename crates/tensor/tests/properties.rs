//! Property-based tests for the tensor algebra.

use nebula_tensor::reduce::{sum_sq_each, top_k_indices};
use nebula_tensor::{NebulaRng, Tensor};
use proptest::prelude::*;

/// Generates a random tensor of the given shape from a seed.
fn tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = NebulaRng::seed(seed);
    Tensor::from_vec((0..rows * cols).map(|_| rng.normal_f32(0.0, 1.0)).collect(), &[rows, cols])
}

fn close(a: f32, b: f32) -> bool {
    (a - b).abs() <= 1e-3 * (1.0 + a.abs().max(b.abs()))
}

proptest! {
    #[test]
    fn matmul_is_associative(
        m in 1usize..6, k in 1usize..6, n in 1usize..6, p in 1usize..6, seed in 0u64..500
    ) {
        let a = tensor(m, k, seed);
        let b = tensor(k, n, seed ^ 1);
        let c = tensor(n, p, seed ^ 2);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!(close(*x, *y), "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_distributes_over_addition(
        m in 1usize..6, k in 1usize..6, n in 1usize..6, seed in 0u64..500
    ) {
        let a = tensor(m, k, seed);
        let b = tensor(k, n, seed ^ 3);
        let c = tensor(k, n, seed ^ 4);
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!(close(*x, *y));
        }
    }

    #[test]
    fn transpose_is_an_involution(m in 1usize..8, n in 1usize..8, seed in 0u64..500) {
        let a = tensor(m, n, seed);
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_reverses_matmul(m in 1usize..6, k in 1usize..6, n in 1usize..6, seed in 0u64..500) {
        // (A·B)ᵀ = Bᵀ·Aᵀ
        let a = tensor(m, k, seed);
        let b = tensor(k, n, seed ^ 5);
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!(close(*x, *y));
        }
    }

    #[test]
    fn softmax_is_shift_invariant(n in 1usize..10, shift in -50.0f32..50.0, seed in 0u64..500) {
        let a = tensor(1, n, seed);
        let shifted = a.add_scalar(shift);
        let sa = a.softmax_rows();
        let sb = shifted.softmax_rows();
        for (x, y) in sa.data().iter().zip(sb.data()) {
            prop_assert!(close(*x, *y), "{x} vs {y}");
        }
    }

    #[test]
    fn softmax_rows_are_simplex_points(m in 1usize..5, n in 1usize..10, seed in 0u64..500) {
        let s = tensor(m, n, seed).softmax_rows();
        for i in 0..m {
            let sum: f32 = s.row(i).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(i).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn top_k_returns_the_k_largest(n in 1usize..12, k in 0usize..12, seed in 0u64..500) {
        let mut rng = NebulaRng::seed(seed);
        let scores: Vec<f32> = (0..n).map(|_| rng.normal_f32(0.0, 1.0)).collect();
        let idx = top_k_indices(&scores, k);
        prop_assert_eq!(idx.len(), k.min(n));
        // Every selected score ≥ every unselected score.
        let min_selected = idx.iter().map(|&i| scores[i]).fold(f32::INFINITY, f32::min);
        for (i, &s) in scores.iter().enumerate() {
            if !idx.contains(&i) {
                prop_assert!(s <= min_selected + 1e-6);
            }
        }
    }

    /// `sum_sq_each` interleaves the sums of several slices; each
    /// slice's own sum must keep the bits of `Tensor::norm_sq`. Values
    /// span twenty orders of magnitude inside one slice (squares stay
    /// finite), so a sum taken in any other order or association rounds
    /// differently; lists are shorter than, equal to and longer than the
    /// lane count, with empty and one-element slices among long ones.
    #[test]
    fn interleaved_sum_sq_keeps_norm_sq_bits(count in 0usize..6, seed in 0u64..1000) {
        let count = [0, 1, 7, 8, 9, 70][count];
        let mut rng = NebulaRng::seed(seed);
        let tensors: Vec<Tensor> = (0..count)
            .map(|_| {
                let len = *rng.choose(&[0, 1, 24, 96, 2_304, 9_216]);
                let sign = |rng: &mut NebulaRng| if rng.bernoulli(0.5) { -1.0 } else { 1.0 };
                Tensor::vector(&(0..len).map(|_| sign(&mut rng) * 10f32.powf(rng.uniform_f32(-10.0, 10.0))).collect::<Vec<_>>())
            })
            .collect();
        let slices: Vec<&[f32]> = tensors.iter().map(Tensor::data).collect();
        let mut sums = vec![f32::NAN; count];
        sum_sq_each(&slices, &mut sums);
        for (t, sum) in tensors.iter().zip(&sums) {
            prop_assert!(t.norm_sq().is_finite());
            prop_assert_eq!(sum.to_bits(), t.norm_sq().to_bits(), "slice of {} floats", t.len());
        }
    }

    #[test]
    fn axpy_matches_scale_add(m in 1usize..6, n in 1usize..6, alpha in -3.0f32..3.0, seed in 0u64..500) {
        let a = tensor(m, n, seed);
        let b = tensor(m, n, seed ^ 7);
        let mut via_axpy = a.clone();
        via_axpy.axpy(alpha, &b);
        let direct = a.add(&b.scale(alpha));
        for (x, y) in via_axpy.data().iter().zip(direct.data()) {
            prop_assert!(close(*x, *y));
        }
    }

    #[test]
    fn dirichlet_always_lands_on_the_simplex(alpha in 0.05f32..10.0, n in 1usize..12, seed in 0u64..500) {
        let mut rng = NebulaRng::seed(seed);
        let p = rng.dirichlet(alpha, n);
        prop_assert_eq!(p.len(), n);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-3, "sum {}", sum);
        prop_assert!(p.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn gather_then_concat_rows_is_permutation(m in 2usize..8, n in 1usize..6, seed in 0u64..500) {
        let a = tensor(m, n, seed);
        let first: Vec<usize> = (0..m / 2).collect();
        let rest: Vec<usize> = (m / 2..m).collect();
        let ga = a.gather_rows(&first);
        let gb = a.gather_rows(&rest);
        let mut data = ga.data().to_vec();
        data.extend_from_slice(gb.data());
        prop_assert_eq!(Tensor::from_vec(data, &[m, n]), a);
    }
}

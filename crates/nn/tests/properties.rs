//! Property-based tests for the NN layer algebra and losses.

use nebula_nn::{cross_entropy, Activation, Layer, Linear, Mode, Sequential};
use nebula_tensor::{NebulaRng, Tensor};
use proptest::prelude::*;

fn tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = NebulaRng::seed(seed);
    Tensor::from_vec((0..rows * cols).map(|_| rng.normal_f32(0.0, 1.0)).collect(), &[rows, cols])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn linear_layers_are_linear(
        din in 1usize..6, dout in 1usize..6, batch in 1usize..4,
        alpha in -2.0f32..2.0, seed in 0u64..200
    ) {
        // f(αx + y) = αf(x) + f(y) − (α+1−1)·b … with bias: check on the
        // bias-free difference instead: f(x+y) − f(y) = f(x) − f(0).
        let mut rng = NebulaRng::seed(seed);
        let mut l = Linear::new(din, dout, &mut rng);
        let x = tensor(batch, din, seed ^ 1);
        let y = tensor(batch, din, seed ^ 2);
        let fx = l.forward(&x, Mode::Eval);
        let fy = l.forward(&y, Mode::Eval);
        let fxy = l.forward(&x.scale(alpha).add(&y), Mode::Eval);
        let f0 = l.forward(&Tensor::zeros(&[batch, din]), Mode::Eval);
        // f(αx + y) = α·f(x) + f(y) − α·f(0)
        let expect = fx.scale(alpha).add(&fy).sub(&f0.scale(alpha));
        for (a, b) in fxy.data().iter().zip(expect.data()) {
            prop_assert!((a - b).abs() < 1e-3 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn cross_entropy_is_nonnegative_and_grad_rows_sum_to_zero(
        batch in 1usize..6, classes in 2usize..8, seed in 0u64..300
    ) {
        let logits = tensor(batch, classes, seed);
        let mut rng = NebulaRng::seed(seed ^ 3);
        let labels: Vec<usize> = (0..batch).map(|_| rng.below(classes)).collect();
        let (loss, grad) = cross_entropy(&logits, &labels);
        prop_assert!(loss >= 0.0);
        for b in 0..batch {
            let s: f32 = grad.row(b).iter().sum();
            prop_assert!(s.abs() < 1e-4, "grad row sums to {}", s);
        }
    }

    #[test]
    fn relu_backward_never_amplifies(batch in 1usize..4, dim in 1usize..8, seed in 0u64..200) {
        let mut a = Activation::relu();
        let x = tensor(batch, dim, seed);
        a.forward(&x, Mode::Train);
        let g = tensor(batch, dim, seed ^ 5);
        let dx = a.backward(&g);
        for (gi, di) in g.data().iter().zip(dx.data()) {
            prop_assert!(di.abs() <= gi.abs() + 1e-6);
        }
    }

    #[test]
    fn sequential_backward_matches_composition(seed in 0u64..100) {
        // backward through [L1, L2] == L1.backward(L2.backward(g)).
        let mut rng = NebulaRng::seed(seed);
        let mut l1 = Linear::new(4, 5, &mut rng);
        let mut l2 = Linear::new(5, 3, &mut rng);
        let mut rng2 = NebulaRng::seed(seed);
        let mut s = Sequential::new()
            .with(Linear::new(4, 5, &mut rng2))
            .with(Linear::new(5, 3, &mut rng2));

        let x = tensor(2, 4, seed ^ 1);
        let g = tensor(2, 3, seed ^ 2);
        let h = l1.forward(&x, Mode::Train);
        l2.forward(&h, Mode::Train);
        let manual = l1.backward(&l2.backward(&g));
        s.forward(&x, Mode::Train);
        let composed = s.backward(&g);
        for (a, b) in manual.data().iter().zip(composed.data()) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn grad_accumulation_is_additive(seed in 0u64..200) {
        // Two backward passes accumulate exactly the sum of two separate
        // single-pass gradients.
        let mut rng = NebulaRng::seed(seed);
        let mut l = Linear::new(3, 3, &mut rng);
        let x1 = tensor(2, 3, seed ^ 1);
        let x2 = tensor(2, 3, seed ^ 2);
        let g = Tensor::ones(&[2, 3]);

        l.zero_grad();
        l.forward(&x1, Mode::Train);
        l.backward(&g);
        let g1 = l.grad_vector();
        l.zero_grad();
        l.forward(&x2, Mode::Train);
        l.backward(&g);
        let g2 = l.grad_vector();

        l.zero_grad();
        l.forward(&x1, Mode::Train);
        l.backward(&g);
        l.forward(&x2, Mode::Train);
        l.backward(&g);
        let gsum = l.grad_vector();
        for ((a, b), s) in g1.iter().zip(&g2).zip(&gsum) {
            prop_assert!((a + b - s).abs() < 1e-4, "{} + {} != {}", a, b, s);
        }
    }

    #[test]
    fn clip_grad_norm_is_idempotent_and_bounding(max_norm in 0.1f32..5.0, seed in 0u64..200) {
        let mut rng = NebulaRng::seed(seed);
        let mut l = Linear::new(4, 4, &mut rng);
        let x = tensor(3, 4, seed ^ 9).scale(10.0);
        l.forward(&x, Mode::Train);
        l.backward(&Tensor::full(&[3, 4], 3.0));
        l.clip_grad_norm(max_norm);
        let mut sq = 0.0;
        l.visit_params(&mut |_, g| sq += g.norm_sq());
        prop_assert!(sq.sqrt() <= max_norm * 1.001);
        let pre = l.clip_grad_norm(max_norm);
        prop_assert!(pre <= max_norm * 1.001, "second clip found norm {}", pre);
    }
}

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
        prop_assert!(pre.is_none_or(|pre| pre <= max_norm * 1.001), "second clip found norm {:?}", pre);
    }

    #[test]
    fn backward_params_accumulates_the_bits_of_backward(
        din in 1usize..9, hidden in 1usize..9, dout in 1usize..9, batch in 1usize..6, seed in 0u64..200
    ) {
        type Build<'a> = &'a dyn Fn() -> Box<dyn Layer>;
        let linear = || -> Box<dyn Layer> { Box::new(Linear::new(din, dout, &mut NebulaRng::seed(seed))) };
        let mlp = || -> Box<dyn Layer> {
            let mut rng = NebulaRng::seed(seed ^ 7);
            Box::new(
                Sequential::new()
                    .with(Linear::new(din, hidden, &mut rng))
                    .with(Activation::relu())
                    .with(Linear::new(hidden, dout, &mut rng)),
            )
        };
        // The blanket `impl Layer for Box<dyn Layer>` around the MLP.
        let boxed = || -> Box<dyn Layer> { Box::new(mlp()) };
        let x = tensor(batch, din, seed ^ 1);
        let g = tensor(batch, dout, seed ^ 2);
        for (name, build) in [("Linear", &linear as Build), ("Sequential", &mlp), ("Box<dyn Layer>", &boxed)] {
            let (mut full, mut params_only) = (build(), build());
            // Two steps, so the second accumulates onto the first.
            for _ in 0..2 {
                full.forward(&x, Mode::Train);
                full.backward(&g);
                params_only.forward(&x, Mode::Train);
                params_only.backward_params(&g);
            }
            prop_assert_eq!(bits(&full.grad_vector()), bits(&params_only.grad_vector()), "{}", name);
        }
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A layer that is nothing but parameter and gradient tensors, to clip.
struct Gradients {
    params: Vec<Tensor>,
    grads: Vec<Tensor>,
}

impl Layer for Gradients {
    fn forward(&mut self, x: &Tensor, _: Mode) -> Tensor {
        x.clone()
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        grad.clone()
    }

    fn visit_params<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Tensor, &'a mut Tensor)) {
        for (p, g) in self.params.iter_mut().zip(&mut self.grads) {
            f(p, g);
        }
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Tensor)) {
        self.params.iter().for_each(f);
    }
}

impl Gradients {
    /// `tensors` gradient tensors of 0–9 216 elements (most of them short),
    /// magnitudes drawn log-uniformly from 10^`lo` to 10^`hi` with random
    /// signs, sprinkled with zeros and subnormals, and — by the coin —
    /// one NaN and one ∞ somewhere.
    fn draw(tensors: usize, lo: f32, hi: f32, seed: u64) -> Self {
        let mut rng = NebulaRng::seed(seed);
        let mut grads: Vec<Tensor> = (0..tensors)
            .map(|_| {
                let len = if rng.bernoulli(0.1) { rng.below(9_217) } else { rng.below(65) };
                let values = (0..len)
                    .map(|_| {
                        let sign = if rng.bernoulli(0.5) { -1.0 } else { 1.0 };
                        let magnitude = match rng.below(20) {
                            0 => 0.0,
                            1 => f32::from_bits(1 + rng.below(0x7f_ffff) as u32),
                            _ => 10f32.powf(if hi > lo { rng.uniform_f32(lo, hi) } else { lo }),
                        };
                        sign * magnitude
                    })
                    .collect();
                Tensor::from_vec(values, &[len])
            })
            .collect();
        let nonempty: Vec<usize> = (0..grads.len()).filter(|&i| !grads[i].is_empty()).collect();
        for special in [f32::NAN, f32::INFINITY] {
            if !nonempty.is_empty() && rng.bernoulli(0.2) {
                let i = *rng.choose(&nonempty);
                let at = rng.below(grads[i].len());
                grads[i].data_mut()[at] = special;
            }
        }
        let params = grads.iter().map(|g| Tensor::zeros(g.shape())).collect();
        Self { params, grads }
    }

    fn copy(&self) -> Self {
        Self { params: self.params.clone(), grads: self.grads.clone() }
    }
}

/// The clip as one `Tensor::norm_sq` per tensor added in visit order and a
/// second visit that scales: the bits `Layer::clip_grad_norm` must keep.
fn two_visit_clip(model: &mut dyn Layer, max_norm: f32) -> f32 {
    let mut sq = 0.0f32;
    model.visit_params(&mut |_, g| sq += g.norm_sq());
    let norm = sq.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        model.visit_params(&mut |_, g| g.scale_assign(scale));
    }
    norm
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whether the bound rules the clip out or the exact norm runs, the
    /// gradients come out with the two-visit form's bits; a returned norm
    /// is that form's norm; and `None` comes only where it scaled nothing.
    #[test]
    fn clip_grad_norm_keeps_the_bits_of_the_two_visit_form(
        tensors in 0usize..301, lo in -20.0f32..20.0, spread in 0usize..4, seed in 0u64..1_000_000
    ) {
        // Alike magnitudes let the clip's `f32` rounding pile up; a wide
        // spread mixes 1e-20 with 1e20 in one tensor.
        let hi = (lo + [0.0, 1.0, 6.0, 40.0][spread]).min(20.0);
        let grads = Gradients::draw(tensors, lo, hi, seed);
        let norm = two_visit_clip(&mut grads.copy(), f32::INFINITY);
        let longest = grads.grads.iter().map(Tensor::len).max().unwrap_or(0);
        let ku = (longest + tensors + 1) as f64 * (f32::EPSILON as f64 / 2.0);
        let gamma = ku / (1.0 - ku);
        // The norm without the clip's rounding: a bound that leaves out
        // the (1 + γ) factor skips clips between this and `norm`.
        let reassociated =
            grads.grads.iter().flat_map(Tensor::data).map(|&v| v as f64 * v as f64).sum::<f64>().sqrt() as f32;
        let max_norms = [
            norm,
            norm.next_up(),
            norm.next_down(),
            reassociated,
            reassociated.next_up(),
            reassociated.next_down(),
            (norm as f64 * (1.0 + gamma)) as f32,
            (norm as f64 * (1.0 - gamma)) as f32,
            norm * 2.0,
            norm * 0.5,
            f32::INFINITY,
            0.0,
            -1.0,
            f32::NAN,
        ];
        for max_norm in max_norms {
            let mut reference = grads.copy();
            let expected = two_visit_clip(&mut reference, max_norm);
            let mut clipped = grads.copy();
            let returned = clipped.clip_grad_norm(max_norm);
            prop_assert!(
                bits(&clipped.grad_vector()) == bits(&reference.grad_vector()),
                "max_norm {} (norm {}): gradients differ", max_norm, norm
            );
            match returned {
                Some(returned) => prop_assert_eq!(returned.to_bits(), expected.to_bits(), "max_norm {}", max_norm),
                None => prop_assert!(
                    !(expected > max_norm && expected > 0.0),
                    "max_norm {}: ruled out a clip the two-visit form made at norm {}", max_norm, expected
                ),
            }
        }
    }
}

//! The [`Layer`] trait and parameter-vector utilities.
//!
//! Federated algorithms (FedAvg, HeteroFL, Nebula's module-wise aggregation)
//! all operate on *flat parameter vectors*; the visitor-based API here lets
//! any layer or composite expose its parameters without committing to a
//! specific container layout.

use nebula_tensor::{reduce, Tensor};

/// Forward-pass mode. `Train` enables dropout masks, batch statistics and
/// gate noise; `Eval` uses running statistics and deterministic routing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Train,
    Eval,
}

/// A differentiable layer with explicit forward/backward passes.
///
/// Contract:
/// * `forward` must be called before `backward`; the layer caches whatever
///   the backward pass needs.
/// * `backward` **accumulates** into parameter gradients (callers zero them
///   via [`Layer::zero_grad`] between steps) and returns ∂loss/∂input.
/// * `backward_params` accumulates the same parameter gradients, bit for
///   bit, and computes no ∂loss/∂input: what a train loop calls, since
///   nothing reads the gradient at the model's input.
/// * `visit_params` yields `(parameter, gradient)` pairs in a fixed,
///   deterministic order — optimiser state is keyed by this order.
/// * `Send + Sync`: a round trains its devices' models on separate
///   threads (`nebula_tensor::par::map`) while all of them read the cloud
///   model, so a layer holds no `Rc`, `Cell` or `RefCell`.
pub trait Layer: Send + Sync {
    /// Computes the layer output, caching activations for backward.
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor;

    /// Back-propagates `grad` (∂loss/∂output), accumulating parameter
    /// gradients and returning ∂loss/∂input.
    fn backward(&mut self, grad: &Tensor) -> Tensor;

    /// [`Layer::backward`] without ∂loss/∂input: accumulates the parameter
    /// gradients `backward` would, with the same bits. A layer whose input
    /// gradient costs work of its own overrides this to skip it.
    fn backward_params(&mut self, grad: &Tensor) {
        self.backward(grad);
    }

    /// Visits `(param, grad)` pairs in a fixed order.
    fn visit_params<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Tensor, &'a mut Tensor));

    /// Visits parameters immutably (fixed order matching `visit_params`).
    fn visit_params_ref(&self, f: &mut dyn FnMut(&Tensor));

    /// Total number of trainable scalars.
    fn param_count(&self) -> usize {
        let mut n = 0;
        self.visit_params_ref(&mut |p| n += p.len());
        n
    }

    /// Zeroes all accumulated gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |_, g| g.zero_());
    }

    /// Copies all parameters into a single flat vector (visit order).
    fn param_vector(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        self.visit_params_ref(&mut |p| out.extend_from_slice(p.data()));
        out
    }

    /// Loads parameters from a flat vector produced by [`Layer::param_vector`]
    /// on an identically-shaped layer. Panics on length mismatch.
    fn load_param_vector(&mut self, flat: &[f32]) {
        let mut offset = 0;
        self.visit_params(&mut |p, _| {
            let n = p.len();
            assert!(
                offset + n <= flat.len(),
                "flat parameter vector too short: need more than {}",
                flat.len()
            );
            p.data_mut().copy_from_slice(&flat[offset..offset + n]);
            offset += n;
        });
        assert_eq!(offset, flat.len(), "flat parameter vector too long: used {offset} of {}", flat.len());
    }

    /// Copies all gradients into a single flat vector (visit order).
    fn grad_vector(&mut self) -> Vec<f32> {
        let mut out = Vec::new();
        self.visit_params(&mut |_, g| out.extend_from_slice(g.data()));
        out
    }

    /// Global L2 gradient-norm clipping. Returns the pre-clip norm when it
    /// had to be computed, `None` when a cheaper bound proved that no
    /// gradient is scaled.
    ///
    /// The norm is `sqrt(Σ g.norm_sq())` with the tensors' sums added in
    /// visit order, and a clipped gradient is `g.scale_assign(max_norm /
    /// norm)` — those bits exactly. A clip scales only when that norm
    /// exceeds `max_norm`, so one visit first bounds the exact `f32` sum
    /// from above through a reassociated `f64` sum of squares
    /// (see `ClipBound`). When the bound is below `max_norm²` the gradients
    /// are left as they are and `None` is returned; otherwise — including
    /// NaN or ∞ anywhere, `max_norm ≤ 0` and norms near the threshold —
    /// the exact norm is computed and applied, and returned as `Some`.
    ///
    /// The exact norm's schedule differs from the expression above, not its
    /// bits: one visit collects the gradients, [`reduce::sum_sq_each`]
    /// advances several tensors' sums at a time (each tensor's own sum keeps
    /// its order), and the scaling runs over the collected list instead of
    /// a second visit.
    fn clip_grad_norm(&mut self, max_norm: f32) -> Option<f32> {
        let mut bound = ClipBound::default();
        self.visit_params(&mut |_, g| bound.add(g.data()));
        if bound.rules_out(max_norm) {
            return None;
        }

        let mut grads: Vec<&mut [f32]> = Vec::with_capacity(bound.tensors);
        self.visit_params(&mut |_, g| grads.push(g.data_mut()));

        // A stack-sized run of tensors at a time.
        const RUN: usize = 64;
        let mut sums = [0.0f32; RUN];
        let mut sq = 0.0f32;
        for run in grads.chunks(RUN) {
            let sums = &mut sums[..run.len()];
            reduce::sum_sq_each(run, sums);
            for &s in sums.iter() {
                sq += s;
            }
        }
        let norm = sq.sqrt();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for g in grads {
                g.iter_mut().for_each(|v| *v *= scale);
            }
        }
        Some(norm)
    }
}

/// An upper bound on the `f32` sum of squares [`Layer::clip_grad_norm`]
/// computes, from one pass over the gradients that is free to reassociate.
///
/// `s64` is Σ g² in `f64`, summed in lanes. Each `(g as f64)²` is exact (a
/// 24-bit significand squared fits in 53 bits, and no `f32` square leaves
/// `f64`'s normal range), and `n` additions of non-negative terms each err
/// by at most 2⁻⁵³ relative, so the exact sum S ≤ `s64`·(1 + n·2⁻⁵²).
///
/// The clip's `f32` sum is recursive summation of non-negative terms
/// (Higham, *Accuracy and Stability of Numerical Algorithms*, §4.2): every
/// square is rounded once, then passes through at most `len − 1` adds of
/// its tensor's chain and `tensors − 1` adds of the visit-order total. With
/// `k` = longest tensor + tensor count + 1 and u = 2⁻²⁴, each term carries
/// a factor below (1 + u)^(k − 2) < 1 + γ with γ = k·u / (1 − k·u). A
/// square below `f32`'s normal range errs by an absolute 2⁻¹⁵⁰ instead,
/// at most doubled by the same factor (k·u < ½ is required), hence n·2⁻¹⁴⁹.
/// So the clip's sum is at most
///
/// `s64`·(1 + γ)·(1 + n·2⁻⁵²) + n·2⁻¹⁴⁹,
///
/// provided no `f32` step overflows — which holds when that bound is
/// below `f32::MAX`. The slack between (1 + u)^(k − 2) and 1 + γ, at
/// least 2u relative, covers the few `f64` roundings of evaluating it.
#[derive(Default)]
struct ClipBound {
    s64: f64,
    elements: usize,
    longest: usize,
    tensors: usize,
}

impl ClipBound {
    /// Folds in one gradient tensor.
    fn add(&mut self, g: &[f32]) {
        // Independent accumulators, so the adds pipeline and the loop
        // vectorises to whatever width the build targets.
        const LANES: usize = 8;
        let mut acc = [0.0f64; LANES];
        let mut chunks = g.chunks_exact(LANES);
        for chunk in &mut chunks {
            for (a, &v) in acc.iter_mut().zip(chunk) {
                *a += v as f64 * v as f64;
            }
        }
        for (a, &v) in acc.iter_mut().zip(chunks.remainder()) {
            *a += v as f64 * v as f64;
        }
        self.s64 += acc.iter().sum::<f64>();
        self.elements += g.len();
        self.longest = self.longest.max(g.len());
        self.tensors += 1;
    }

    /// True when the exact clip provably scales nothing at `max_norm`:
    /// its `f32` sum of squares is below `max_norm²`, so the norm, a
    /// correctly rounded square root, is at most `max_norm`.
    fn rules_out(&self, max_norm: f32) -> bool {
        const U: f64 = f32::EPSILON as f64 / 2.0;
        // 2⁻¹⁴⁹, the least positive `f32`.
        let subnormal = f32::from_bits(1) as f64;
        let n = self.elements as f64;
        let ku = (self.longest + self.tensors + 1) as f64 * U;
        let gamma = ku / (1.0 - ku);
        let bound = self.s64 * (1.0 + gamma) * (1.0 + n * f64::EPSILON) + n * subnormal;
        let limit = (max_norm as f64 * max_norm as f64).min(f32::MAX as f64);
        max_norm > 0.0 && self.s64.is_finite() && ku < 0.5 && bound < limit
    }
}

/// `buf` as a buffer of `shape` for the caller to fill; its contents are
/// unspecified.
///
/// A `Train` forward takes the buffer it already has, whatever the row
/// count: a train loop's batches are bounded by its batch size, so after
/// the first few steps refilling it never allocates — even for a module,
/// whose routed row count changes every step. An `Eval` forward is a
/// one-off at whatever size its caller has (a whole dataset for module
/// importance, an evaluation batch), so it reuses the buffer only when the
/// shape repeats and otherwise leaves an exactly-sized one: nothing the
/// size of the largest batch ever seen is kept for the layer's lifetime.
pub fn buffer_for<'a>(buf: &'a mut Tensor, shape: &[usize], mode: Mode) -> &'a mut Tensor {
    if mode == Mode::Train || buf.shape() == shape {
        buf.resize_for_overwrite(shape);
    } else {
        *buf = Tensor::zeros(shape);
    }
    buf
}

/// [`buffer_for`] on a cache that is empty before the first forward.
pub(crate) fn cache_for<'a>(cache: &'a mut Option<Tensor>, shape: &[usize], mode: Mode) -> &'a mut Tensor {
    match cache {
        Some(c) => buffer_for(c, shape, mode),
        None => cache.insert(Tensor::zeros(shape)),
    }
}

/// Makes `cache` a copy of `value`, in the buffer [`cache_for`] picks.
pub(crate) fn refill_cache(cache: &mut Option<Tensor>, value: &Tensor, mode: Mode) {
    cache_for(cache, value.shape(), mode).data_mut().copy_from_slice(value.data());
}

/// Blanket impl so `Box<dyn Layer>` composes inside containers.
impl Layer for Box<dyn Layer> {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        (**self).forward(x, mode)
    }
    fn backward(&mut self, grad: &Tensor) -> Tensor {
        (**self).backward(grad)
    }
    fn backward_params(&mut self, grad: &Tensor) {
        (**self).backward_params(grad)
    }
    fn visit_params<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Tensor, &'a mut Tensor)) {
        (**self).visit_params(f)
    }
    fn visit_params_ref(&self, f: &mut dyn FnMut(&Tensor)) {
        (**self).visit_params_ref(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;
    use nebula_tensor::NebulaRng;

    #[test]
    fn param_vector_roundtrip() {
        let mut rng = NebulaRng::seed(1);
        let a = Linear::new(4, 3, &mut rng);
        let mut b = Linear::new(4, 3, &mut rng);
        let va = a.param_vector();
        assert_eq!(va.len(), 4 * 3 + 3);
        b.load_param_vector(&va);
        assert_eq!(b.param_vector(), va);
    }

    #[test]
    #[should_panic(expected = "too long")]
    fn load_rejects_oversized_vector() {
        let mut rng = NebulaRng::seed(2);
        let mut l = Linear::new(2, 2, &mut rng);
        let v = vec![0.0; 100];
        l.load_param_vector(&v);
    }

    #[test]
    fn zero_grad_clears_accumulation() {
        let mut rng = NebulaRng::seed(3);
        let mut l = Linear::new(3, 2, &mut rng);
        let x = Tensor::ones(&[4, 3]);
        let y = l.forward(&x, Mode::Train);
        l.backward(&Tensor::ones(y.shape()));
        assert!(l.grad_vector().iter().any(|&g| g != 0.0));
        l.zero_grad();
        assert!(l.grad_vector().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn clip_grad_norm_scales_down() {
        let mut rng = NebulaRng::seed(4);
        let mut l = Linear::new(3, 2, &mut rng);
        let x = Tensor::full(&[2, 3], 10.0);
        let y = l.forward(&x, Mode::Train);
        l.backward(&Tensor::full(y.shape(), 10.0));
        let pre = l.clip_grad_norm(1.0).expect("a norm above 1 is computed");
        assert!(pre > 1.0);
        let mut sq = 0.0;
        l.visit_params(&mut |_, g| sq += g.norm_sq());
        assert!((sq.sqrt() - 1.0).abs() < 1e-4);
        // Well under the bound: ruled out without an exact norm.
        let clipped = l.grad_vector();
        assert_eq!(l.clip_grad_norm(2.0), None);
        assert_eq!(l.grad_vector(), clipped);
    }
}

//! A single substitutable module inside a module layer (§4.1).
//!
//! Two network structures, as in the paper:
//! * **shrunk module** — same layer pattern as the original (ResNet-style)
//!   block but with a reduced hidden width:
//!   `x ↦ x + W₂·relu(W₁·x + b₁) + b₂` with `W₁: h×d`, `W₂: d×h`, `h ≪ d`
//!   (a residual bottleneck block — keeping the block's skip connection is
//!   what lets deep stacks of narrow modules train; since the layer's
//!   combination weights renormalise to 1, the skips compose into a clean
//!   trunk residual `x + Σ wᵢ·gᵢ(x)`);
//! * **residual module** — a parameter-free bypass `x ↦ x`, letting inputs
//!   skip the layer ("not all inputs need layer-by-layer processing").
//!
//! ## Who owns which cache
//!
//! A module runs on the rows of the layer input that were routed to it,
//! and backward needs two things from that forward: those rows (for `dW₁`
//! and the skip) and the hidden activation (for `dW₂` and the ReLU mask).
//! Each exists exactly once, where backward reads it:
//!
//! * the routed rows are gathered straight *into* `l1`'s input cache;
//! * the hidden activation is computed *in* `l2`'s input cache — product,
//!   bias and ReLU in place — so there is no separate pre-activation copy.
//!   Backward takes the ReLU mask from that post-activation value:
//!   `relu(v) > 0 ⇔ v > 0` for every `v` including `−0.0` and NaN, so the
//!   mask is the one the pre-activation gave, and the gradient is still
//!   *multiplied* by `1.0` / `0.0` (not selected), so a `−0.0` gradient
//!   keeps its sign exactly as before.
//!
//! Both caches follow `Linear::forward_into`'s sizing rule (a Train forward
//! reuses the buffer at any row count, an Eval forward leaves an exactly
//! sized one). The module's *output* is not cached here: the layer keeps
//! it for the gate gradient (`MoeLayer`'s `LayerCache::outputs`).

use nebula_nn::{Layer, Linear, Mode, Workspace};
use nebula_tensor::{NebulaRng, Tensor};

/// One module of a module layer. Input and output width are both `d`
/// (the trunk width), so any subset of modules is combinable.
// Residual is intentionally zero-sized; boxing Shrunk would add a pointer chase
// to every forward call for no memory win (modules live in long-lived Vecs).
#[allow(clippy::large_enum_variant)]
pub enum Module {
    /// Bottleneck block with hidden width `h`.
    Shrunk { l1: Linear, l2: Linear },
    /// Parameter-free input bypass. Caches nothing.
    Residual,
}

impl Module {
    /// Builds a shrunk module `d → h → d`.
    pub fn shrunk(d: usize, h: usize, rng: &mut NebulaRng) -> Self {
        Module::Shrunk { l1: Linear::new(d, h, rng), l2: Linear::new(h, d, rng) }
    }

    /// A shrunk module `d → h → d` with all-zero parameters, built without
    /// an RNG: the shape an edge client loads a shipped module into.
    pub fn zeros(d: usize, h: usize) -> Self {
        Module::Shrunk { l1: Linear::zeros(d, h), l2: Linear::zeros(h, d) }
    }

    /// Builds the bypass module.
    pub fn residual() -> Self {
        Module::Residual
    }

    /// True for the bypass module.
    pub fn is_residual(&self) -> bool {
        matches!(self, Module::Residual)
    }

    /// Forward pass over the rows `rows` of the layer input `x`, in that
    /// order: returns the `rows.len() × d` output in a buffer of `ws`
    /// (the caller's to recycle), so a layer that runs its modules step
    /// after step allocates nothing.
    pub fn forward(&mut self, x: &Tensor, rows: &[usize], mode: Mode, ws: &mut Workspace) -> Tensor {
        let mut y = ws.scratch(&[rows.len(), x.cols()]);
        match self {
            Module::Shrunk { l1, l2 } => {
                x.gather_rows_into(rows, l1.input_cache_mut(rows.len(), mode));
                let h = l2.input_cache_mut(rows.len(), mode);
                l1.forward_cached_into(h);
                for v in h.data_mut() {
                    *v = v.max(0.0);
                }
                l2.forward_cached_into(&mut y);
                y.add_assign(l1.input_cache()); // block-level skip (ResNet pattern)
            }
            Module::Residual => x.gather_rows_into(rows, &mut y),
        }
        y
    }

    /// Backward pass for the rows of the last forward; accumulates
    /// parameter gradients and returns ∂loss/∂(those rows) in a buffer of
    /// `ws` (the caller's to recycle).
    pub fn backward(&mut self, grad: &Tensor, ws: &mut Workspace) -> Tensor {
        let mut dx = ws.scratch(grad.shape());
        match self {
            Module::Shrunk { l1, l2 } => {
                let mut dh = ws.scratch(&[grad.rows(), l2.in_features()]);
                l2.backward_into(grad, &mut dh);
                for (g, &h) in dh.data_mut().iter_mut().zip(l2.input_cache().data()) {
                    *g *= if h > 0.0 { 1.0 } else { 0.0 };
                }
                l1.backward_into(&dh, &mut dx);
                ws.recycle(dh);
                dx.add_assign(grad); // skip path
            }
            Module::Residual => dx.data_mut().copy_from_slice(grad.data()),
        }
        dx
    }

    /// Visits `(param, grad)` pairs.
    pub fn visit_params<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Tensor, &'a mut Tensor)) {
        if let Module::Shrunk { l1, l2, .. } = self {
            l1.visit_params(f);
            l2.visit_params(f);
        }
    }

    /// Visits parameters immutably.
    pub fn visit_params_ref(&self, f: &mut dyn FnMut(&Tensor)) {
        if let Module::Shrunk { l1, l2, .. } = self {
            l1.visit_params_ref(f);
            l2.visit_params_ref(f);
        }
    }

    /// Number of trainable scalars.
    pub fn param_count(&self) -> usize {
        let mut n = 0;
        self.visit_params_ref(&mut |p| n += p.len());
        n
    }

    /// Flat parameter vector (empty for the residual module).
    pub fn param_vector(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.write_param_vector(&mut out);
        out
    }

    /// Overwrites `out` with the flat parameter vector, reusing its
    /// allocation when it is large enough.
    pub fn write_param_vector(&self, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.param_count());
        self.visit_params_ref(&mut |p| out.extend_from_slice(p.data()));
    }

    /// Loads a flat parameter vector produced by [`Module::param_vector`].
    pub fn load_param_vector(&mut self, flat: &[f32]) {
        let mut offset = 0;
        self.visit_params(&mut |p, _| {
            let n = p.len();
            p.data_mut().copy_from_slice(&flat[offset..offset + n]);
            offset += n;
        });
        assert_eq!(offset, flat.len(), "module parameter vector length mismatch");
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut |_, g| g.zero_());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A module run on every row of its input, as a [`Layer`].
    struct Whole(Module, Workspace);

    impl Whole {
        fn new(m: Module) -> Self {
            Whole(m, Workspace::new())
        }
    }

    impl Layer for Whole {
        fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
            let rows: Vec<usize> = (0..x.rows()).collect();
            self.0.forward(x, &rows, mode, &mut self.1)
        }
        fn backward(&mut self, grad: &Tensor) -> Tensor {
            self.0.backward(grad, &mut self.1)
        }
        fn visit_params<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Tensor, &'a mut Tensor)) {
            self.0.visit_params(f)
        }
        fn visit_params_ref(&self, f: &mut dyn FnMut(&Tensor)) {
            self.0.visit_params_ref(f)
        }
    }

    #[test]
    fn shrunk_module_shapes() {
        let mut rng = NebulaRng::seed(1);
        let mut m = Whole::new(Module::shrunk(8, 3, &mut rng));
        let x = Tensor::zeros(&[5, 8]);
        let y = m.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[5, 8]);
        assert_eq!(m.0.param_count(), 8 * 3 + 3 + 3 * 8 + 8);
    }

    #[test]
    fn residual_module_is_identity() {
        let mut m = Whole::new(Module::residual());
        let x = Tensor::matrix(&[&[1.0, -2.0]]);
        assert_eq!(m.forward(&x, Mode::Train).data(), x.data());
        assert_eq!(m.backward(&x).data(), x.data());
        assert_eq!(m.0.param_count(), 0);
        assert!(m.0.param_vector().is_empty());
    }

    #[test]
    fn forward_runs_on_the_listed_rows_in_the_listed_order() {
        let mut rng = NebulaRng::seed(5);
        let mut ws = Workspace::new();
        let x = Tensor::from_vec((0..6 * 4).map(|_| rng.normal_f32(0.0, 1.0)).collect(), &[6, 4]);
        for mut m in [Module::shrunk(4, 2, &mut rng), Module::residual()] {
            let rows = [4, 1, 5];
            let routed = m.forward(&x, &rows, Mode::Eval, &mut ws);
            let gathered = m.forward(&x.gather_rows(&rows), &[0, 1, 2], Mode::Eval, &mut ws);
            assert_eq!(routed, gathered);
        }
    }

    #[test]
    fn param_vector_roundtrip() {
        let mut rng = NebulaRng::seed(2);
        let m1 = Module::shrunk(4, 2, &mut rng);
        let mut m2 = Module::shrunk(4, 2, &mut rng);
        let v = m1.param_vector();
        m2.load_param_vector(&v);
        assert_eq!(m2.param_vector(), v);
    }

    #[test]
    fn shrunk_gradients_flow() {
        let mut rng = NebulaRng::seed(3);
        let mut m = Whole::new(Module::shrunk(4, 2, &mut rng));
        let x = Tensor::ones(&[3, 4]);
        let y = m.forward(&x, Mode::Train);
        let dx = m.backward(&Tensor::ones(y.shape()));
        assert_eq!(dx.shape(), x.shape());
        let mut grad_norm = 0.0;
        m.visit_params(&mut |_, g| grad_norm += g.norm_sq());
        assert!(grad_norm > 0.0, "no gradient accumulated");
    }

    #[test]
    fn gradcheck_shrunk_module_via_wrapper() {
        // Wrap the module in the Layer trait to reuse the nn gradchecker.
        let mut rng = NebulaRng::seed(4);
        let m = Module::shrunk(5, 3, &mut rng);
        nebula_nn::gradcheck::check_layer_gradients(Box::new(Whole::new(m)), 5, 2, 11);
    }
}

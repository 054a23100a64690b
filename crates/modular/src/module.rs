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

use nebula_nn::{Activation, Layer, Linear, Mode, Workspace};
use nebula_tensor::{NebulaRng, Tensor};

/// One module of a module layer. Input and output width are both `d`
/// (the trunk width), so any subset of modules is combinable.
// Residual is intentionally zero-sized; boxing Shrunk would add a pointer chase
// to every forward call for no memory win (modules live in long-lived Vecs).
#[allow(clippy::large_enum_variant)]
pub enum Module {
    /// Bottleneck block with hidden width `h`.
    Shrunk { l1: Linear, act: Activation, l2: Linear },
    /// Parameter-free input bypass. Caches nothing.
    Residual,
}

impl Module {
    /// Builds a shrunk module `d → h → d`.
    pub fn shrunk(d: usize, h: usize, rng: &mut NebulaRng) -> Self {
        Module::Shrunk { l1: Linear::new(d, h, rng), act: Activation::relu(), l2: Linear::new(h, d, rng) }
    }

    /// A shrunk module `d → h → d` with all-zero parameters, built without
    /// an RNG: the shape an edge client loads a shipped module into.
    pub fn zeros(d: usize, h: usize) -> Self {
        Module::Shrunk { l1: Linear::zeros(d, h), act: Activation::relu(), l2: Linear::zeros(h, d) }
    }

    /// Builds the bypass module.
    pub fn residual() -> Self {
        Module::Residual
    }

    /// True for the bypass module.
    pub fn is_residual(&self) -> bool {
        matches!(self, Module::Residual)
    }

    /// Forward pass over a (sub-)batch of rows.
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.forward_with(x, mode, &mut Workspace::new())
    }

    /// [`Module::forward`] with the hidden activation and the output held
    /// in buffers of `ws` (the output is the caller's to recycle), so a
    /// layer that runs its modules step after step allocates nothing.
    pub fn forward_with(&mut self, x: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        let mut y = ws.zeroed(x.shape());
        match self {
            Module::Shrunk { l1, act, l2 } => {
                let mut h = ws.zeroed(&[x.rows(), l1.out_features()]);
                l1.forward_into(x, &mut h, mode);
                act.forward_in_place(&mut h, mode);
                l2.forward_into(&h, &mut y, mode);
                ws.recycle(h);
                y.add_assign(x); // block-level skip (ResNet pattern)
            }
            Module::Residual => y.data_mut().copy_from_slice(x.data()),
        }
        y
    }

    /// Backward pass; accumulates parameter gradients, returns ∂loss/∂x.
    pub fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.backward_with(grad, &mut Workspace::new())
    }

    /// [`Module::backward`] with the hidden gradient and the result held
    /// in buffers of `ws` (the result is the caller's to recycle).
    pub fn backward_with(&mut self, grad: &Tensor, ws: &mut Workspace) -> Tensor {
        let mut dx = ws.zeroed(grad.shape());
        match self {
            Module::Shrunk { l1, act, l2 } => {
                let mut dh = ws.zeroed(&[grad.rows(), l2.in_features()]);
                l2.backward_into(grad, &mut dh);
                act.backward_in_place(&mut dh);
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

    #[test]
    fn shrunk_module_shapes() {
        let mut rng = NebulaRng::seed(1);
        let mut m = Module::shrunk(8, 3, &mut rng);
        let x = Tensor::zeros(&[5, 8]);
        let y = m.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[5, 8]);
        assert_eq!(m.param_count(), 8 * 3 + 3 + 3 * 8 + 8);
    }

    #[test]
    fn residual_module_is_identity() {
        let mut m = Module::residual();
        let x = Tensor::matrix(&[&[1.0, -2.0]]);
        assert_eq!(m.forward(&x, Mode::Train).data(), x.data());
        assert_eq!(m.backward(&x).data(), x.data());
        assert_eq!(m.param_count(), 0);
        assert!(m.param_vector().is_empty());
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
        let mut m = Module::shrunk(4, 2, &mut rng);
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
        struct Wrap(Module);
        impl Layer for Wrap {
            fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
                self.0.forward(x, mode)
            }
            fn backward(&mut self, grad: &Tensor) -> Tensor {
                self.0.backward(grad)
            }
            fn visit_params<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Tensor, &'a mut Tensor)) {
                self.0.visit_params(f)
            }
            fn visit_params_ref(&self, f: &mut dyn FnMut(&Tensor)) {
                self.0.visit_params_ref(f)
            }
        }
        let mut rng = NebulaRng::seed(4);
        let m = Module::shrunk(5, 3, &mut rng);
        nebula_nn::gradcheck::check_layer_gradients(Box::new(Wrap(m)), 5, 2, 11);
    }
}

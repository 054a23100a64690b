//! The unified module selector (§4.2).
//!
//! One embedding network extracts features `h = embed(x)` from the raw
//! input, and one gate head per module layer maps `h` to logits over that
//! layer's modules — so the activated modules for *all* layers are decided
//! in one shot, decoupled from module execution. This is what lets an edge
//! device score module importance locally from its own data without
//! running the full model (§5.1).
//!
//! Noisy top-k (§4.3): during training, Gaussian noise is added to the
//! gate logits before selection so that near-tied modules both receive
//! training signal. We use fixed-std noise rather than the learned noise
//! head of Shazeer et al.; the paper cites the technique without
//! specifying the variant, and fixed noise reproduces the load-spreading
//! effect (ablated in the bench suite).

use nebula_nn::{Activation, Layer, Linear, Mode, Workspace};
use nebula_tensor::{NebulaRng, Tensor};

/// Unified selector: shared embedding + per-layer gate heads.
pub struct UnifiedSelector {
    embed: Linear,
    act: Activation,
    gates: Vec<Linear>,
    noise_std: f32,
    rng: NebulaRng,
    /// Batch rows of the last forward (the gates cache the embedding
    /// itself; backward only needs its shape).
    cached_rows: Option<usize>,
    ws: Workspace,
}

impl UnifiedSelector {
    /// Builds a selector for `layers` module layers of `modules` modules
    /// each, over raw inputs of width `input_dim`.
    pub fn new(
        input_dim: usize,
        embed_dim: usize,
        layers: usize,
        modules: usize,
        noise_std: f32,
        rng: &mut NebulaRng,
    ) -> Self {
        let embed = Linear::new(input_dim, embed_dim, rng);
        let gates = (0..layers).map(|_| Linear::new(embed_dim, modules, rng)).collect();
        Self {
            embed,
            act: Activation::relu(),
            gates,
            noise_std,
            rng: rng.fork(0x5E1E_C70F),
            cached_rows: None,
            ws: Workspace::new(),
        }
    }

    /// An all-zero selector of the same shape as [`UnifiedSelector::new`]
    /// that draws nothing: parameters are loaded afterwards and the
    /// gate-noise stream is handed in as `noise_rng`.
    pub fn zeros(
        input_dim: usize,
        embed_dim: usize,
        layers: usize,
        modules: usize,
        noise_std: f32,
        noise_rng: NebulaRng,
    ) -> Self {
        Self {
            embed: Linear::zeros(input_dim, embed_dim),
            act: Activation::relu(),
            gates: (0..layers).map(|_| Linear::zeros(embed_dim, modules)).collect(),
            noise_std,
            rng: noise_rng,
            cached_rows: None,
            ws: Workspace::new(),
        }
    }

    /// The gate-noise stream's current state.
    pub(crate) fn noise_rng(&self) -> &NebulaRng {
        &self.rng
    }

    /// Number of module layers this selector routes for.
    pub fn num_layers(&self) -> usize {
        self.gates.len()
    }

    /// Gate logits for every module layer. In `Train` mode with
    /// `noise_std > 0`, Gaussian noise is added (noisy top-k).
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Vec<Tensor> {
        let mut h = self.ws.zeroed(&[x.rows(), self.embed.out_features()]);
        self.embed.forward_into(x, &mut h, mode);
        self.act.forward_in_place(&mut h, mode);
        self.cached_rows = Some(x.rows());
        let logits = self
            .gates
            .iter_mut()
            .map(|gate| {
                let mut logits = gate.forward(&h, mode);
                if mode == Mode::Train && self.noise_std > 0.0 {
                    let std = self.noise_std;
                    for v in logits.data_mut() {
                        *v += self.rng.normal_f32(0.0, std);
                    }
                }
                logits
            })
            .collect();
        self.ws.recycle(h);
        logits
    }

    /// Deterministic (noise-free) logits regardless of mode — used for
    /// importance scoring and the sub-task load matrix.
    pub fn forward_deterministic(&mut self, x: &Tensor) -> Vec<Tensor> {
        self.forward(x, Mode::Eval)
    }

    /// Backward pass: one gradient tensor per layer's logits, in layer
    /// order. Accumulates parameter gradients; returns ∂loss/∂x.
    pub fn backward(&mut self, dlogits: &[Tensor]) -> Tensor {
        assert_eq!(dlogits.len(), self.gates.len(), "dlogits per layer mismatch");
        let rows = self.cached_rows.expect("selector backward before forward");
        let shape = [rows, self.embed.out_features()];
        let mut dh = self.ws.zeroed(&shape);
        let mut from_gate = self.ws.zeroed(&shape);
        for (gate, dl) in self.gates.iter_mut().zip(dlogits) {
            gate.backward_into(dl, &mut from_gate);
            dh.add_assign(&from_gate);
        }
        self.ws.recycle(from_gate);
        self.act.backward_in_place(&mut dh);
        let dx = self.embed.backward(&dh);
        self.ws.recycle(dh);
        dx
    }

    /// Visits `(param, grad)` pairs (embedding first, then gates in order).
    pub fn visit_params<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Tensor, &'a mut Tensor)) {
        self.embed.visit_params(f);
        for gate in &mut self.gates {
            gate.visit_params(f);
        }
    }

    /// Visits parameters immutably.
    pub fn visit_params_ref(&self, f: &mut dyn FnMut(&Tensor)) {
        self.embed.visit_params_ref(f);
        for gate in &self.gates {
            gate.visit_params_ref(f);
        }
    }

    /// Number of trainable scalars.
    pub fn param_count(&self) -> usize {
        let mut n = 0;
        self.visit_params_ref(&mut |p| n += p.len());
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn selector(noise: f32) -> UnifiedSelector {
        let mut rng = NebulaRng::seed(1);
        UnifiedSelector::new(8, 16, 3, 4, noise, &mut rng)
    }

    #[test]
    fn forward_emits_one_logit_tensor_per_layer() {
        let mut s = selector(0.0);
        let x = Tensor::zeros(&[5, 8]);
        let logits = s.forward(&x, Mode::Eval);
        assert_eq!(logits.len(), 3);
        for l in &logits {
            assert_eq!(l.shape(), &[5, 4]);
        }
    }

    #[test]
    fn eval_mode_is_noise_free_and_deterministic() {
        let mut s = selector(1.0);
        let x = Tensor::ones(&[2, 8]);
        let a = s.forward(&x, Mode::Eval);
        let b = s.forward(&x, Mode::Eval);
        for (la, lb) in a.iter().zip(&b) {
            assert_eq!(la.data(), lb.data());
        }
    }

    #[test]
    fn train_mode_noise_perturbs_logits() {
        let mut s = selector(1.0);
        let x = Tensor::ones(&[2, 8]);
        let a = s.forward(&x, Mode::Train);
        let b = s.forward(&x, Mode::Train);
        assert_ne!(a[0].data(), b[0].data(), "noisy gating should differ across calls");
    }

    #[test]
    fn zero_noise_train_equals_eval() {
        let mut s = selector(0.0);
        let x = Tensor::ones(&[2, 8]);
        let a = s.forward(&x, Mode::Train);
        let b = s.forward(&x, Mode::Eval);
        for (la, lb) in a.iter().zip(&b) {
            assert_eq!(la.data(), lb.data());
        }
    }

    #[test]
    fn backward_accumulates_gate_and_embed_grads() {
        let mut s = selector(0.0);
        let x = Tensor::ones(&[2, 8]);
        let logits = s.forward(&x, Mode::Train);
        let dlogits: Vec<Tensor> = logits.iter().map(|l| Tensor::ones(l.shape())).collect();
        let dx = s.backward(&dlogits);
        assert_eq!(dx.shape(), &[2, 8]);
        let mut gsum = 0.0;
        s.visit_params(&mut |_, g| gsum += g.norm_sq());
        assert!(gsum > 0.0);
    }

    #[test]
    fn param_count_matches_structure() {
        let s = selector(0.0);
        // embed 8→16 + 3 gates 16→4
        assert_eq!(s.param_count(), (8 * 16 + 16) + 3 * (16 * 4 + 4));
    }
}

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
//!
//! ## Noise is drawn where a module can win
//!
//! A sub-model holds 1–12 of a layer's 16 modules, and [`MoeLayer`] sets
//! the logit of every module outside the mask to −∞ before it reads it:
//! such a logit never enters top-k, its softmax probability, combination
//! weight and gradient are exactly 0, and nothing else reads the logits
//! the selector returns (the gate-KL path of `ModularModel::backward` does,
//! over *all* modules — which is why a model with a KL target set passes
//! no mask). The noise added to a masked-out logit is therefore
//! unobservable; its *position in the stream* is not, because the next
//! allowed logit's draw comes after it. So [`UnifiedSelector::forward`]
//! takes the per-layer masks and, for a masked-out module, advances the
//! stream by exactly one draw ([`NebulaRng::skip_normal`]: two raw `u64`s,
//! no logarithm, square root or cosine) and leaves the logit un-noised.
//! Every allowed logit, and the stream afterwards, have the bits an
//! unmasked forward gives them. Which draws are skipped depends on the
//! mask alone; the mask is an argument, not a mode.
//!
//! [`MoeLayer`]: crate::MoeLayer

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
    /// `noise_std > 0`, Gaussian noise is added (noisy top-k) — to the
    /// logits `masks` allows (one mask per layer, one flag per module);
    /// a masked-out logit stays noise-free while the stream advances past
    /// its draw. `None` allows everything.
    pub fn forward(&mut self, x: &Tensor, masks: Option<&[Vec<bool>]>, mode: Mode) -> Vec<Tensor> {
        if let Some(masks) = masks {
            assert_eq!(masks.len(), self.gates.len(), "one mask per module layer");
        }
        let mut h = self.ws.zeroed(&[x.rows(), self.embed.out_features()]);
        self.embed.forward_into(x, &mut h, mode);
        self.act.forward_in_place(&mut h, mode);
        self.cached_rows = Some(x.rows());
        let noise = (mode == Mode::Train && self.noise_std > 0.0).then_some(self.noise_std);
        let mut logits = Vec::with_capacity(self.gates.len());
        for (l, gate) in self.gates.iter_mut().enumerate() {
            let mut layer_logits = gate.forward(&h, mode);
            if let Some(std) = noise {
                let mask = masks.map(|m| m[l].as_slice());
                let n = gate.out_features();
                assert!(mask.is_none_or(|m| m.len() == n), "mask length != module count");
                for row in layer_logits.data_mut().chunks_exact_mut(n) {
                    for (i, v) in row.iter_mut().enumerate() {
                        if mask.is_none_or(|m| m[i]) {
                            *v += self.rng.normal_f32(0.0, std);
                        } else {
                            self.rng.skip_normal();
                        }
                    }
                }
            }
            logits.push(layer_logits);
        }
        self.ws.recycle(h);
        logits
    }

    /// Deterministic (noise-free) logits regardless of mode — used for
    /// importance scoring and the sub-task load matrix.
    pub fn forward_deterministic(&mut self, x: &Tensor) -> Vec<Tensor> {
        self.forward(x, None, Mode::Eval)
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
        let logits = s.forward(&x, None, Mode::Eval);
        assert_eq!(logits.len(), 3);
        for l in &logits {
            assert_eq!(l.shape(), &[5, 4]);
        }
    }

    #[test]
    fn eval_mode_is_noise_free_and_deterministic() {
        let mut s = selector(1.0);
        let x = Tensor::ones(&[2, 8]);
        let a = s.forward(&x, None, Mode::Eval);
        let b = s.forward(&x, None, Mode::Eval);
        for (la, lb) in a.iter().zip(&b) {
            assert_eq!(la.data(), lb.data());
        }
    }

    #[test]
    fn train_mode_noise_perturbs_logits() {
        let mut s = selector(1.0);
        let x = Tensor::ones(&[2, 8]);
        let a = s.forward(&x, None, Mode::Train);
        let b = s.forward(&x, None, Mode::Train);
        assert_ne!(a[0].data(), b[0].data(), "noisy gating should differ across calls");
    }

    #[test]
    fn zero_noise_train_equals_eval() {
        let mut s = selector(0.0);
        let x = Tensor::ones(&[2, 8]);
        let a = s.forward(&x, None, Mode::Train);
        let b = s.forward(&x, None, Mode::Eval);
        for (la, lb) in a.iter().zip(&b) {
            assert_eq!(la.data(), lb.data());
        }
    }

    #[test]
    fn masked_forward_keeps_allowed_logits_and_the_stream() {
        let mut rng = NebulaRng::seed(7);
        let x = Tensor::from_vec((0..5 * 8).map(|_| rng.normal_f32(0.0, 1.0)).collect(), &[5, 8]);
        let (layers, modules) = (3, 16);
        // 1, 6 and 16 of 16 allowed, a different set in every layer.
        for allowed in [1usize, 6, 16] {
            let masks: Vec<Vec<bool>> = (0..layers)
                .map(|l| {
                    let mut mask = vec![false; modules];
                    rng.sample_indices(modules, allowed).into_iter().for_each(|i| mask[i] = true);
                    assert_eq!(mask.iter().filter(|&&a| a).count(), allowed, "layer {l}");
                    mask
                })
                .collect();
            let mut open = UnifiedSelector::new(8, 16, layers, modules, 0.3, &mut NebulaRng::seed(1));
            let mut masked = UnifiedSelector::new(8, 16, layers, modules, 0.3, &mut NebulaRng::seed(1));
            // Two forwards: the second starts from the stream the first left.
            for step in 0..2 {
                let want = open.forward(&x, None, Mode::Train);
                let got = masked.forward(&x, Some(&masks), Mode::Train);
                let clean = open.forward_deterministic(&x);
                for (l, mask) in masks.iter().enumerate() {
                    for b in 0..x.rows() {
                        for (i, &allowed_here) in mask.iter().enumerate() {
                            let expect = if allowed_here { &want[l] } else { &clean[l] }.at(b, i);
                            assert_eq!(
                                got[l].at(b, i).to_bits(),
                                expect.to_bits(),
                                "{allowed} allowed, step {step}, layer {l}, row {b}, module {i}"
                            );
                        }
                    }
                }
                assert_eq!(
                    masked.noise_rng().state(),
                    open.noise_rng().state(),
                    "{allowed} allowed, step {step}"
                );
            }
        }
    }

    #[test]
    fn backward_accumulates_gate_and_embed_grads() {
        let mut s = selector(0.0);
        let x = Tensor::ones(&[2, 8]);
        let logits = s.forward(&x, None, Mode::Train);
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

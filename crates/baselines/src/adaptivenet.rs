//! AdaptiveNet-style baseline (Wen et al., MobiCom'23): post-deployment
//! architecture adaptation from a cloud-pre-trained multi-branch supernet.
//!
//! Our rendition: the cloud pre-trains the width-scalable [`DenseModel`]
//! at several branch widths (sandwich training, as slimmable supernets
//! do). A device profiles its resources, picks the widest branch that
//! fits, and fine-tunes that branch locally — on-device adaptation with a
//! flexible accuracy–latency tradeoff but **no knowledge sharing across
//! devices**, which is exactly the gap the paper's Table 1 shows.

use crate::dense::{active_slice, splice_active, DenseModel};
use nebula_data::Dataset;
use nebula_nn::{cross_entropy, Layer, Mode, Optimizer, Sgd};
use nebula_tensor::NebulaRng;

/// Branch widths of the supernet.
pub const BRANCH_RATIOS: [f32; 3] = [1.0, 0.5, 0.25];

/// The multi-branch supernet plus branch-selection logic.
pub struct AdaptiveNet {
    supernet: DenseModel,
}

impl AdaptiveNet {
    /// Wraps a (possibly pre-trained) dense model as the supernet.
    pub fn new(supernet: DenseModel) -> Self {
        Self { supernet }
    }

    /// Sandwich pre-training: each batch takes gradient steps at every
    /// branch width so all branches stay functional.
    pub fn pretrain(
        &mut self,
        proxy: &Dataset,
        epochs: usize,
        batch_size: usize,
        lr: f32,
        rng: &mut NebulaRng,
    ) {
        let mut opt = Sgd::with_momentum(lr, 0.9);
        for _ in 0..epochs {
            for (x, y) in proxy.batches(batch_size, rng) {
                for &r in &BRANCH_RATIOS {
                    self.supernet.set_width_ratio(r);
                    self.supernet.zero_grad();
                    let logits = self.supernet.forward(&x, Mode::Train);
                    let (_, grad) = cross_entropy(&logits, &y);
                    self.supernet.backward(&grad);
                    self.supernet.clip_grad_norm(5.0);
                    opt.step(&mut self.supernet);
                }
            }
        }
        self.supernet.set_width_ratio(1.0);
    }

    /// Picks the widest branch whose parameter count fits the budget.
    pub fn select_branch(&self, budget_params: usize) -> f32 {
        for &r in &BRANCH_RATIOS {
            if self.supernet.active_params(r) <= budget_params {
                return r;
            }
        }
        *BRANCH_RATIOS.last().unwrap()
    }

    /// Instantiates a device-side copy running branch `ratio`.
    pub fn branch_model(&self, ratio: f32) -> DenseModel {
        let mut m = self.supernet.deep_clone();
        m.set_width_ratio(ratio);
        m
    }

    /// Like [`AdaptiveNet::branch_model`], but the branch's active slice
    /// travels as a real `nebula-wire` frame on the device's download
    /// channel. Returns the decoded device model and the measured frame
    /// bytes (AdaptiveNet's only communication: branches never upload).
    pub fn branch_model_wire(
        &self,
        ratio: f32,
        device: u64,
        pool: &mut nebula_wire::DensePool,
    ) -> (DenseModel, u64) {
        let params = self.supernet.param_vector();
        let mask = self.supernet.mask_for_ratio(ratio);
        let mut decoded = Vec::new();
        let bytes = pool
            .send_down(device, &active_slice(&params, &mask), &mut decoded)
            .expect("pristine in-process frame must decode");
        let mut full = params;
        splice_active(&mut full, &mask, &decoded);
        let mut m = self.supernet.deep_clone();
        m.load_param_vector(&full);
        m.set_width_ratio(ratio);
        (m, bytes)
    }

    /// The underlying supernet.
    pub fn supernet(&self) -> &DenseModel {
        &self.supernet
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nebula_data::{SynthSpec, Synthesizer, TrainConfig};

    #[test]
    fn sandwich_training_keeps_all_branches_usable() {
        let synth = Synthesizer::new(SynthSpec::toy(), 1);
        let mut rng = NebulaRng::seed(1);
        let proxy = synth.sample(400, 0, &mut rng);
        let test = synth.sample(200, 0, &mut rng);

        let mut an = AdaptiveNet::new(DenseModel::new(16, 24, 2, 32, 4, 7));
        an.pretrain(&proxy, 8, 16, 0.03, &mut rng);

        for &r in &BRANCH_RATIOS {
            let mut branch = an.branch_model(r);
            let acc = nebula_data::evaluate_accuracy(&mut branch, &test, 64);
            assert!(acc > 0.55, "branch {r} accuracy only {acc}");
        }
    }

    #[test]
    fn branch_selection_respects_budget() {
        let an = AdaptiveNet::new(DenseModel::new(16, 24, 2, 32, 4, 7));
        let full = an.supernet().param_count();
        assert_eq!(an.select_branch(full), 1.0);
        assert_eq!(an.select_branch(0), 0.25);
        let mid = an.supernet().active_params(0.5);
        assert!(an.select_branch(mid) <= 0.5 + 1e-6);
    }

    #[test]
    fn device_adaptation_does_not_touch_supernet() {
        let synth = Synthesizer::new(SynthSpec::toy(), 1);
        let mut rng = NebulaRng::seed(2);
        let an = AdaptiveNet::new(DenseModel::new(16, 24, 1, 16, 4, 3));
        let before = an.supernet().param_vector();
        let local = synth.sample(80, 0, &mut rng);
        let mut device = an.branch_model(0.5);
        let mut opt = Sgd::with_momentum(0.05, 0.9);
        let cfg = TrainConfig { epochs: 3, batch_size: 16, clip_norm: Some(5.0) };
        nebula_data::train_epochs(&mut device, &mut opt, &local, cfg, &mut rng);
        assert_eq!(an.supernet().param_vector(), before);
    }
}

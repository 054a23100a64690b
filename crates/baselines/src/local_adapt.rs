//! Local Adaptation (LA): a device fine-tunes a private copy of the
//! pre-trained cloud model on its own fresh data, with no collaboration.
//! (Paper §6.1: 10 local epochs.)

use crate::dense::DenseModel;
use nebula_data::{Dataset, TrainConfig};
use nebula_nn::Sgd;
use nebula_tensor::NebulaRng;

/// The momentum of every dense baseline's local SGD.
pub(crate) const MOMENTUM: f32 = 0.9;

/// Fine-tunes `model` in place on `data`; returns the final mean loss.
pub fn local_adapt(
    model: &mut DenseModel,
    data: &Dataset,
    epochs: usize,
    batch_size: usize,
    lr: f32,
    rng: &mut NebulaRng,
) -> f32 {
    adapt_with(model, &mut Sgd::with_momentum(lr, MOMENTUM), data, epochs, batch_size, rng)
}

/// [`local_adapt`] with the optimiser passed in: the same steps, for a
/// caller that keeps its optimiser between models.
pub(crate) fn adapt_with(
    model: &mut DenseModel,
    opt: &mut Sgd,
    data: &Dataset,
    epochs: usize,
    batch_size: usize,
    rng: &mut NebulaRng,
) -> f32 {
    nebula_data::train_epochs(model, opt, data, TrainConfig { epochs, batch_size, clip_norm: Some(5.0) }, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nebula_data::{SynthSpec, Synthesizer};
    use nebula_nn::Layer;

    #[test]
    fn adapting_to_a_subtask_beats_the_generic_model_there() {
        let synth = Synthesizer::new(SynthSpec::toy(), 1);
        let mut rng = NebulaRng::seed(1);
        // Pre-train on the full task.
        let proxy = synth.sample(400, 0, &mut rng);
        let mut cloud = DenseModel::new(16, 24, 2, 32, 4, 7);
        let mut opt = Sgd::with_momentum(0.03, 0.9);
        nebula_data::train_epochs(
            &mut cloud,
            &mut opt,
            &proxy,
            TrainConfig { epochs: 10, batch_size: 16, clip_norm: Some(5.0) },
            &mut rng,
        );

        // Device sees only classes {0,1} in a shifted context.
        let local = synth.sample_classes(120, &[0, 1], 2, &mut rng);
        let test = synth.sample_classes(150, &[0, 1], 2, &mut rng);
        let mut device = cloud.deep_clone();
        let before = nebula_data::evaluate_accuracy(&mut device, &test, 64);
        local_adapt(&mut device, &local, 10, 16, 0.02, &mut rng);
        let after = nebula_data::evaluate_accuracy(&mut device, &test, 64);
        assert!(after >= before - 0.02, "LA regressed: {before} -> {after}");
        assert!(after > 0.7, "LA accuracy only {after}");
        // Cloud model itself is untouched.
        assert_eq!(cloud.param_vector().len(), device.param_vector().len());
    }

    #[test]
    fn empty_data_is_a_noop() {
        let mut m = DenseModel::new(8, 8, 1, 8, 2, 1);
        let before = m.param_vector();
        let mut rng = NebulaRng::seed(2);
        let empty = Dataset::empty(8, 2);
        local_adapt(&mut m, &empty, 5, 16, 0.1, &mut rng);
        assert_eq!(m.param_vector(), before);
    }
}

//! Model training/evaluation helpers shared by the baselines, the Nebula
//! core and the experiment harness.

use crate::dataset::Dataset;
use nebula_nn::{cross_entropy, Layer, Mode, Optimizer};
use nebula_tensor::NebulaRng;

/// Hyper-parameters for a local training run (paper §6.1: batch 16,
/// lr 1e-3, 3 local epochs for collaborative rounds / 10 for on-device
/// fine-tuning).
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    pub epochs: usize,
    pub batch_size: usize,
    /// Gradient-norm clip; `None` disables clipping.
    pub clip_norm: Option<f32>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { epochs: 3, batch_size: 16, clip_norm: Some(5.0) }
    }
}

/// Trains `model` on `data` with the supplied optimiser; returns the mean
/// loss of the final epoch. No-op (returns 0) on an empty dataset.
pub fn train_epochs(
    model: &mut dyn Layer,
    opt: &mut dyn Optimizer,
    data: &Dataset,
    cfg: TrainConfig,
    rng: &mut NebulaRng,
) -> f32 {
    if data.is_empty() {
        return 0.0;
    }
    let mut last_epoch_loss = 0.0;
    for _ in 0..cfg.epochs {
        let mut epoch_loss = 0.0f64;
        let mut seen = 0usize;
        for (x, y) in data.batches(cfg.batch_size, rng) {
            model.zero_grad();
            let logits = model.forward(&x, Mode::Train);
            let (loss, grad) = cross_entropy(&logits, &y);
            model.backward_params(&grad);
            if let Some(c) = cfg.clip_norm {
                model.clip_grad_norm(c);
            }
            opt.step(model);
            epoch_loss += loss as f64 * y.len() as f64;
            seen += y.len();
        }
        last_epoch_loss = (epoch_loss / seen.max(1) as f64) as f32;
    }
    last_epoch_loss
}

/// Top-1 accuracy of `model` on `data` (eval mode). Returns 0 on empty data.
pub fn evaluate_accuracy(model: &mut dyn Layer, data: &Dataset, batch_size: usize) -> f32 {
    if data.is_empty() {
        return 0.0;
    }
    let mut correct = 0usize;
    let n = data.len();
    let mut i = 0;
    while i < n {
        let end = (i + batch_size).min(n);
        let idx: Vec<usize> = (i..end).collect();
        let sub = data.subset(&idx);
        let logits = model.forward(sub.features(), Mode::Eval);
        let preds = logits.argmax_rows();
        correct += preds.iter().zip(sub.labels()).filter(|(p, y)| p == y).count();
        i = end;
    }
    correct as f32 / n as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{SynthSpec, Synthesizer};
    use nebula_nn::{Activation, Linear, Sequential, Sgd};

    fn mlp(in_dim: usize, classes: usize, seed: u64) -> Sequential {
        let mut rng = NebulaRng::seed(seed);
        Sequential::new()
            .with(Linear::new(in_dim, 32, &mut rng))
            .with(Activation::relu())
            .with(Linear::new(32, classes, &mut rng))
    }

    #[test]
    fn training_improves_accuracy_on_toy_task() {
        let synth = Synthesizer::new(SynthSpec::toy(), 1);
        let mut rng = NebulaRng::seed(2);
        let train = synth.sample(400, 0, &mut rng);
        let test = synth.sample(200, 0, &mut rng);

        let mut model = mlp(16, 4, 3);
        let before = evaluate_accuracy(&mut model, &test, 64);
        let mut opt = Sgd::with_momentum(0.05, 0.9);
        let cfg = TrainConfig { epochs: 15, batch_size: 16, clip_norm: Some(5.0) };
        let loss = train_epochs(&mut model, &mut opt, &train, cfg, &mut rng);
        let after = evaluate_accuracy(&mut model, &test, 64);

        assert!(loss < 1.0, "final loss {loss}");
        assert!(after > before + 0.2, "accuracy {before} -> {after}");
        assert!(after > 0.7, "accuracy only {after}");
    }

    #[test]
    fn empty_dataset_is_noop() {
        let mut model = mlp(16, 4, 4);
        let mut opt = Sgd::new(0.1);
        let mut rng = NebulaRng::seed(5);
        let empty = Dataset::empty(16, 4);
        assert_eq!(train_epochs(&mut model, &mut opt, &empty, TrainConfig::default(), &mut rng), 0.0);
        assert_eq!(evaluate_accuracy(&mut model, &empty, 16), 0.0);
    }

    #[test]
    fn accuracy_is_batch_size_invariant() {
        let synth = Synthesizer::new(SynthSpec::toy(), 1);
        let mut rng = NebulaRng::seed(6);
        let test = synth.sample(101, 0, &mut rng);
        let mut model = mlp(16, 4, 7);
        let a = evaluate_accuracy(&mut model, &test, 7);
        let b = evaluate_accuracy(&mut model, &test, 64);
        let c = evaluate_accuracy(&mut model, &test, 101);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }
}

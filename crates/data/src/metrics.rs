//! Classification metrics beyond plain top-1 accuracy.
//!
//! Personalized-evaluation analyses (per-device, per-class) need the
//! confusion matrix, per-class recall/precision and macro-F1 — e.g. to
//! check that a derived sub-model is strong on the device's sub-task
//! classes specifically, not just on average.

use crate::dataset::Dataset;
use nebula_nn::{Layer, Mode};

/// A `classes × classes` confusion matrix: `m[actual][predicted]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfusionMatrix {
    counts: Vec<Vec<usize>>,
}

impl ConfusionMatrix {
    /// Empty matrix for `classes` classes.
    pub fn new(classes: usize) -> Self {
        Self { counts: vec![vec![0; classes]; classes] }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.counts.len()
    }

    /// Records one `(actual, predicted)` observation.
    pub fn record(&mut self, actual: usize, predicted: usize) {
        self.counts[actual][predicted] += 1;
    }

    /// Raw count for `(actual, predicted)`.
    pub fn count(&self, actual: usize, predicted: usize) -> usize {
        self.counts[actual][predicted]
    }

    /// Total observations.
    pub fn total(&self) -> usize {
        self.counts.iter().flatten().sum()
    }

    /// Overall accuracy (trace / total); 0 on an empty matrix.
    pub fn accuracy(&self) -> f32 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: usize = (0..self.classes()).map(|c| self.counts[c][c]).sum();
        correct as f32 / total as f32
    }

    /// Recall of class `c` (`None` if the class never appears).
    pub fn recall(&self, c: usize) -> Option<f32> {
        let actual: usize = self.counts[c].iter().sum();
        (actual > 0).then(|| self.counts[c][c] as f32 / actual as f32)
    }

    /// Precision of class `c` (`None` if it is never predicted).
    fn precision(&self, c: usize) -> Option<f32> {
        let predicted: usize = (0..self.classes()).map(|a| self.counts[a][c]).sum();
        (predicted > 0).then(|| self.counts[c][c] as f32 / predicted as f32)
    }

    /// F1 of class `c` (`None` when undefined).
    fn f1(&self, c: usize) -> Option<f32> {
        let p = self.precision(c)?;
        let r = self.recall(c)?;
        if p + r == 0.0 {
            return Some(0.0);
        }
        Some(2.0 * p * r / (p + r))
    }

    /// Macro-F1 over the classes that appear in the data.
    pub fn macro_f1(&self) -> f32 {
        let scores: Vec<f32> = (0..self.classes()).filter_map(|c| self.f1(c)).collect();
        if scores.is_empty() {
            0.0
        } else {
            scores.iter().sum::<f32>() / scores.len() as f32
        }
    }
}

/// Evaluates `model` on `data`, returning the full confusion matrix.
pub fn confusion_matrix(model: &mut dyn Layer, data: &Dataset, batch_size: usize) -> ConfusionMatrix {
    let mut cm = ConfusionMatrix::new(data.classes());
    let n = data.len();
    let mut i = 0;
    while i < n {
        let end = (i + batch_size).min(n);
        let idx: Vec<usize> = (i..end).collect();
        let sub = data.subset(&idx);
        let logits = model.forward(sub.features(), Mode::Eval);
        for (pred, &actual) in logits.argmax_rows().iter().zip(sub.labels()) {
            cm.record(actual, *pred);
        }
        i = end;
    }
    cm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{SynthSpec, Synthesizer};
    use nebula_nn::{Activation, Linear, Sequential, Sgd};
    use nebula_tensor::NebulaRng;

    fn manual_cm() -> ConfusionMatrix {
        // actual 0: 3 right, 1 wrong→1; actual 1: 2 right, 2 wrong→0.
        let mut cm = ConfusionMatrix::new(2);
        for _ in 0..3 {
            cm.record(0, 0);
        }
        cm.record(0, 1);
        for _ in 0..2 {
            cm.record(1, 1);
        }
        for _ in 0..2 {
            cm.record(1, 0);
        }
        cm
    }

    #[test]
    fn accuracy_is_trace_over_total() {
        let cm = manual_cm();
        nebula_tensor::assert_close(cm.accuracy(), 5.0 / 8.0, 1e-6);
    }

    #[test]
    fn recall_precision_f1() {
        let cm = manual_cm();
        nebula_tensor::assert_close(cm.recall(0).unwrap(), 0.75, 1e-6);
        nebula_tensor::assert_close(cm.recall(1).unwrap(), 0.5, 1e-6);
        nebula_tensor::assert_close(cm.precision(0).unwrap(), 3.0 / 5.0, 1e-6);
        nebula_tensor::assert_close(cm.precision(1).unwrap(), 2.0 / 3.0, 1e-6);
        let f1_0 = cm.f1(0).unwrap();
        nebula_tensor::assert_close(f1_0, 2.0 * 0.6 * 0.75 / (0.6 + 0.75), 1e-6);
    }

    #[test]
    fn absent_class_yields_none() {
        let mut cm = ConfusionMatrix::new(3);
        cm.record(0, 0);
        assert!(cm.recall(2).is_none());
        assert!(cm.precision(2).is_none());
        assert!(cm.f1(2).is_none());
        // Macro-F1 skips undefined classes instead of poisoning the mean.
        assert!(cm.macro_f1() > 0.0);
    }

    #[test]
    fn empty_matrix_behaves() {
        let cm = ConfusionMatrix::new(4);
        assert_eq!(cm.total(), 0);
        assert_eq!(cm.accuracy(), 0.0);
        assert_eq!(cm.macro_f1(), 0.0);
    }

    #[test]
    fn confusion_matrix_agrees_with_evaluate_accuracy() {
        let synth = Synthesizer::new(SynthSpec::toy(), 1);
        let mut rng = NebulaRng::seed(2);
        let train = synth.sample(300, 0, &mut rng);
        let test = synth.sample(150, 0, &mut rng);
        let mut model = Sequential::new()
            .with(Linear::new(16, 24, &mut rng))
            .with(Activation::relu())
            .with(Linear::new(24, 4, &mut rng));
        let mut opt = Sgd::with_momentum(0.05, 0.9);
        crate::eval::train_epochs(
            &mut model,
            &mut opt,
            &train,
            crate::eval::TrainConfig { epochs: 8, batch_size: 16, clip_norm: Some(5.0) },
            &mut rng,
        );
        let cm = confusion_matrix(&mut model, &test, 32);
        let direct = crate::eval::evaluate_accuracy(&mut model, &test, 32);
        nebula_tensor::assert_close(cm.accuracy(), direct, 1e-6);
        assert_eq!(cm.total(), test.len());
    }
}

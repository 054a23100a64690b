//! Optimiser: SGD with momentum and weight decay.
//!
//! Optimiser state (momentum buffers) is keyed by the visit
//! order of [`Layer::visit_params`], which is fixed per architecture. State
//! buffers are allocated lazily on the first step so an optimiser can be
//! constructed before the model.

use crate::layer::Layer;
use nebula_tensor::Tensor;

/// A gradient-descent optimiser over a [`Layer`]'s parameters.
pub trait Optimizer {
    /// Applies one update step using the layer's accumulated gradients.
    /// Does **not** zero the gradients — callers do that explicitly.
    fn step(&mut self, model: &mut dyn Layer);
}

/// Stochastic gradient descent with optional momentum and L2 weight decay.
#[derive(Clone, Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Plain SGD.
    pub fn new(lr: f32) -> Self {
        Self { lr, momentum: 0.0, weight_decay: 0.0, velocity: Vec::new() }
    }

    /// SGD with momentum.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Self { lr, momentum, weight_decay: 0.0, velocity: Vec::new() }
    }

    /// Adds L2 weight decay (builder style).
    pub fn weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, model: &mut dyn Layer) {
        let mut idx = 0;
        let lr = self.lr;
        let momentum = self.momentum;
        let wd = self.weight_decay;
        let velocity = &mut self.velocity;
        model.visit_params(&mut |p, g| {
            if momentum == 0.0 {
                if wd > 0.0 {
                    p.scale_assign(1.0 - lr * wd);
                }
                p.axpy(-lr, g);
            } else {
                if velocity.len() <= idx {
                    velocity.push(Tensor::zeros(p.shape()));
                }
                let v = &mut velocity[idx];
                // v ← μ·v + (g + wd·p); p ← p − lr·v
                v.scale_assign(momentum);
                v.add_assign(g);
                if wd > 0.0 {
                    v.axpy(wd, p);
                }
                p.axpy(-lr, v);
            }
            idx += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Mode;
    use crate::linear::Linear;
    use crate::loss::mse;
    use nebula_tensor::{NebulaRng, Tensor};

    /// Trains `y = 2x` with a 1×1 linear layer; any sane optimiser converges.
    fn train_scalar(optimizer: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut rng = NebulaRng::seed(1);
        let mut model = Linear::new(1, 1, &mut rng);
        let x = Tensor::matrix(&[&[1.0], &[2.0], &[-1.0], &[0.5]]);
        let target = x.scale(2.0);
        let mut last = f32::INFINITY;
        for _ in 0..steps {
            model.zero_grad();
            let y = model.forward(&x, Mode::Train);
            let (loss, grad) = mse(&y, &target);
            model.backward(&grad);
            optimizer.step(&mut model);
            last = loss;
        }
        last
    }

    #[test]
    fn sgd_converges_on_linear_regression() {
        let mut opt = Sgd::new(0.1);
        assert!(train_scalar(&mut opt, 200) < 1e-4);
    }

    #[test]
    fn sgd_momentum_converges_faster_than_plain() {
        let mut plain = Sgd::new(0.02);
        let mut mom = Sgd::with_momentum(0.02, 0.9);
        let loss_plain = train_scalar(&mut plain, 50);
        let loss_mom = train_scalar(&mut mom, 50);
        assert!(loss_mom < loss_plain, "momentum {loss_mom} vs plain {loss_plain}");
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut rng = NebulaRng::seed(2);
        let mut model = Linear::new(4, 4, &mut rng);
        let before = model.param_vector().iter().map(|v| v * v).sum::<f32>();
        let mut opt = Sgd::new(0.1).weight_decay(0.5);
        // Zero gradients: the only force is decay.
        for _ in 0..10 {
            model.zero_grad();
            opt.step(&mut model);
        }
        let after = model.param_vector().iter().map(|v| v * v).sum::<f32>();
        assert!(after < before * 0.8, "decay had no effect: {before} -> {after}");
    }
}

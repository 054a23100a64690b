//! Optimiser: SGD with momentum.
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

/// Stochastic gradient descent with optional momentum.
#[derive(Clone, Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Plain SGD.
    pub fn new(lr: f32) -> Self {
        Self::with_momentum(lr, 0.0)
    }

    /// SGD with momentum.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Self { lr, momentum, velocity: Vec::new() }
    }

    /// Makes this optimiser the one `with_momentum(lr, momentum)` builds,
    /// at its own momentum, for a model of the shape it has stepped so
    /// far: the velocity buffers it holds are zeroed where it would have
    /// allocated zeroed ones, so the steps after carry the same bits.
    pub fn restart(&mut self, lr: f32) {
        self.lr = lr;
        for v in &mut self.velocity {
            v.zero_();
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, model: &mut dyn Layer) {
        let mut idx = 0;
        let lr = self.lr;
        let momentum = self.momentum;
        let velocity = &mut self.velocity;
        model.visit_params(&mut |p, g| {
            if momentum == 0.0 {
                p.axpy(-lr, g);
            } else {
                if velocity.len() <= idx {
                    velocity.push(Tensor::zeros(p.shape()));
                }
                let v = &mut velocity[idx];
                assert_eq!(p.shape(), g.shape(), "parameter and gradient shapes differ");
                assert_eq!(p.shape(), v.shape(), "parameter {idx} changed shape between steps");
                // v ← μ·v + g; p ← p − lr·v, one walk over the three
                // tensors. Each element sees the multiplications and
                // additions a pass per operation would make, in their
                // order (nothing here is contracted into an FMA), so the
                // bits are those of the unfused update.
                for ((p, v), &g) in p.data_mut().iter_mut().zip(v.data_mut()).zip(g.data()) {
                    *v = *v * momentum + g;
                    *p += -lr * *v;
                }
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
            let diff = y.sub(&target);
            let n = diff.len() as f32;
            model.backward(&diff.scale(2.0 / n));
            optimizer.step(&mut model);
            last = diff.norm_sq() / n;
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
    fn a_restarted_optimiser_steps_with_a_fresh_ones_bits() {
        let mut warm = Sgd::with_momentum(0.5, 0.9);
        train_scalar(&mut warm, 20);
        warm.restart(0.02);
        let mut fresh = Sgd::with_momentum(0.02, 0.9);
        assert_eq!(train_scalar(&mut warm, 30).to_bits(), train_scalar(&mut fresh, 30).to_bits());
    }

    #[test]
    fn fused_momentum_step_equals_a_pass_per_operation_bitwise() {
        let mut rng = NebulaRng::seed(2);
        let mut model = Linear::new(7, 5, &mut rng);
        let mut opt = Sgd::with_momentum(0.03, 0.9);
        let mut params: Vec<Tensor> = Vec::new();
        model.visit_params(&mut |p, _| params.push(p.clone()));
        let mut velocity: Vec<Tensor> = params.iter().map(|p| Tensor::zeros(p.shape())).collect();
        for _ in 0..3 {
            let mut i = 0;
            model.visit_params(&mut |_, g| {
                for v in g.data_mut() {
                    *v = rng.normal_f32(0.0, 1.0);
                }
                velocity[i].scale_assign(0.9);
                velocity[i].add_assign(g);
                params[i].axpy(-0.03, &velocity[i]);
                i += 1;
            });
            opt.step(&mut model);
            let mut i = 0;
            model.visit_params(&mut |p, _| {
                let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
                assert_eq!(bits(p), bits(&params[i]));
                i += 1;
            });
        }
    }
}

//! Finite-difference gradient checking.
//!
//! Used by the test suites of `nebula-nn` and `nebula-modular` to validate
//! every hand-written backward pass. The check perturbs each parameter and
//! each input coordinate, compares the numerical derivative of a scalar
//! probe loss against the analytic gradient, and panics with coordinates on
//! the first mismatch.

use crate::layer::{Layer, Mode};
use nebula_tensor::{NebulaRng, Tensor};

/// Scalar probe loss: a fixed random linear functional of the output.
/// Linear probes keep the finite-difference error purely second-order.
fn probe_loss(y: &Tensor, probe: &Tensor) -> f32 {
    y.dot(probe)
}

/// Checks analytic gradients of `layer` against central finite differences.
///
/// * `in_features` — input width; a `batch × in_features` random input is
///   drawn from the seeded RNG.
/// * Checks both ∂loss/∂input and ∂loss/∂θ for every parameter scalar.
///
/// Panics on mismatch. Layers with internal stochasticity (dropout) or
/// batch statistics must behave deterministically across repeated forwards
/// for this to be valid — the check runs everything in `Mode::Train` but
/// re-runs forward for each perturbation, so such layers should be checked
/// with their stochasticity disabled.
pub fn check_layer_gradients(layer: Box<dyn Layer>, in_features: usize, batch: usize, seed: u64) {
    check_layer_gradients_with(layer, in_features, batch, seed, 1e-2, 2e-2)
}

/// [`check_layer_gradients`] with explicit perturbation size and relative
/// tolerance. ReLU-heavy composites need a smaller `eps` (to lower the
/// odds of stepping across an activation kink) and a looser `tol` (f32
/// noise grows as `eps` shrinks).
pub fn check_layer_gradients_with(
    mut layer: Box<dyn Layer>,
    in_features: usize,
    batch: usize,
    seed: u64,
    eps: f32,
    tol: f32,
) {
    let mut rng = NebulaRng::seed(seed);
    let x = Tensor::from_vec(
        (0..batch * in_features).map(|_| rng.normal_f32(0.0, 1.0)).collect(),
        &[batch, in_features],
    );

    // Jitter all parameters away from their initial values. Zero-initialised
    // biases otherwise place ReLU pre-activations *exactly* on the kink for
    // any dead input row (the derivative is then one-sided and the check
    // produces false positives).
    {
        let mut theta = layer.param_vector();
        for v in &mut theta {
            *v += rng.uniform_f32(-0.05, 0.05);
        }
        layer.load_param_vector(&theta);
    }

    // Analytic pass.
    layer.zero_grad();
    let y = layer.forward(&x, Mode::Train);
    let probe = Tensor::from_vec((0..y.len()).map(|_| rng.normal_f32(0.0, 1.0)).collect(), y.shape());
    let dx = layer.backward(&probe);
    let analytic_param_grads = layer.grad_vector();

    // Input gradient check.
    for i in 0..x.len() {
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        let lp = probe_loss(&layer.forward(&xp, Mode::Train), &probe);
        let lm = probe_loss(&layer.forward(&xm, Mode::Train), &probe);
        let fd = (lp - lm) / (2.0 * eps);
        let an = dx.data()[i];
        let denom = 1.0f32.max(fd.abs()).max(an.abs());
        assert!((fd - an).abs() / denom < tol, "input grad mismatch at {i}: fd {fd} vs analytic {an}");
    }

    // Parameter gradient check: perturb each scalar through the flat vector.
    let theta = layer.param_vector();
    for i in 0..theta.len() {
        let mut tp = theta.clone();
        tp[i] += eps;
        layer.load_param_vector(&tp);
        let lp = probe_loss(&layer.forward(&x, Mode::Train), &probe);
        let mut tm = theta.clone();
        tm[i] -= eps;
        layer.load_param_vector(&tm);
        let lm = probe_loss(&layer.forward(&x, Mode::Train), &probe);
        let fd = (lp - lm) / (2.0 * eps);
        let an = analytic_param_grads[i];
        let denom = 1.0f32.max(fd.abs()).max(an.abs());
        assert!((fd - an).abs() / denom < tol, "param grad mismatch at {i}: fd {fd} vs analytic {an}");
    }
    layer.load_param_vector(&theta);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;

    #[test]
    fn gradcheck_accepts_correct_layer() {
        let mut rng = NebulaRng::seed(1);
        check_layer_gradients(Box::new(Linear::new(3, 2, &mut rng)), 3, 2, 7);
    }

    /// A deliberately broken layer: backward returns a wrongly-scaled input
    /// gradient. The checker must catch it.
    struct BrokenLinear(Linear);
    impl Layer for BrokenLinear {
        fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
            self.0.forward(x, mode)
        }
        fn backward(&mut self, grad: &Tensor) -> Tensor {
            self.0.backward(grad).scale(0.5) // wrong on purpose
        }
        fn visit_params<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Tensor, &'a mut Tensor)) {
            self.0.visit_params(f)
        }
        fn visit_params_ref(&self, f: &mut dyn FnMut(&Tensor)) {
            self.0.visit_params_ref(f)
        }
    }

    #[test]
    #[should_panic(expected = "input grad mismatch")]
    fn gradcheck_rejects_broken_layer() {
        let mut rng = NebulaRng::seed(2);
        check_layer_gradients(Box::new(BrokenLinear(Linear::new(3, 2, &mut rng))), 3, 2, 8);
    }
}

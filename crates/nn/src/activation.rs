//! Parameter-free activation layers.

use crate::layer::{refill_cache, Layer, Mode};
use nebula_tensor::Tensor;

/// Which nonlinearity an [`Activation`] layer applies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ActivationKind {
    Relu,
    Tanh,
}

impl ActivationKind {
    fn apply(self, v: f32) -> f32 {
        match self {
            ActivationKind::Relu => v.max(0.0),
            ActivationKind::Tanh => v.tanh(),
        }
    }

    /// Whether the derivative is a function of the output `y = f(x)`
    /// (tanh) rather than of the input `x` (ReLU).
    fn derivative_uses_output(self) -> bool {
        matches!(self, ActivationKind::Tanh)
    }

    /// Derivative in terms of the value [`Activation`] caches: the input
    /// for ReLU, the output for tanh.
    fn derivative(self, cached: f32) -> f32 {
        match self {
            ActivationKind::Relu => {
                if cached > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActivationKind::Tanh => 1.0 - cached * cached,
        }
    }
}

/// Element-wise activation layer caching whichever of its input and
/// output the derivative is written in.
#[derive(Clone, Debug)]
pub struct Activation {
    kind: ActivationKind,
    cached: Option<Tensor>,
}

impl Activation {
    pub fn new(kind: ActivationKind) -> Self {
        Self { kind, cached: None }
    }

    pub fn relu() -> Self {
        Self::new(ActivationKind::Relu)
    }

    pub fn tanh() -> Self {
        Self::new(ActivationKind::Tanh)
    }

    /// [`Layer::forward`] applied to `x` where it lies; the cache is
    /// refilled as [`crate::Linear::forward_into`]'s is.
    pub fn forward_in_place(&mut self, x: &mut Tensor, mode: Mode) {
        if !self.kind.derivative_uses_output() {
            refill_cache(&mut self.cached, x, mode);
        }
        for v in x.data_mut() {
            *v = self.kind.apply(*v);
        }
        if self.kind.derivative_uses_output() {
            refill_cache(&mut self.cached, x, mode);
        }
    }

    /// [`Layer::backward`] applied to `grad` where it lies.
    pub fn backward_in_place(&mut self, grad: &mut Tensor) {
        let cached = self.cached.as_ref().expect("Activation::backward before forward");
        assert_eq!(grad.shape(), cached.shape(), "Activation grad shape mismatch");
        for (g, &c) in grad.data_mut().iter_mut().zip(cached.data()) {
            *g *= self.kind.derivative(c);
        }
    }
}

impl Layer for Activation {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let mut y = x.clone();
        self.forward_in_place(&mut y, mode);
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mut dx = grad.clone();
        self.backward_in_place(&mut dx);
        dx
    }

    fn visit_params<'a>(&'a mut self, _f: &mut dyn FnMut(&'a mut Tensor, &'a mut Tensor)) {}

    fn visit_params_ref(&self, _f: &mut dyn FnMut(&Tensor)) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use nebula_tensor::assert_close;

    #[test]
    fn relu_forward_backward() {
        let mut a = Activation::relu();
        let x = Tensor::vector(&[-1.0, 0.5, 2.0]).reshape(&[1, 3]);
        let y = a.forward(&x, Mode::Train);
        assert_eq!(y.data(), &[0.0, 0.5, 2.0]);
        let dx = a.backward(&Tensor::ones(&[1, 3]));
        assert_eq!(dx.data(), &[0.0, 1.0, 1.0]);
    }

    #[test]
    fn tanh_derivative_matches_identity() {
        let mut a = Activation::tanh();
        let x = Tensor::vector(&[0.7]).reshape(&[1, 1]);
        let y = a.forward(&x, Mode::Eval);
        let dx = a.backward(&Tensor::ones(&[1, 1]));
        assert_close(dx.data()[0], 1.0 - y.data()[0] * y.data()[0], 1e-6);
    }

    #[test]
    fn activation_has_no_params() {
        let a = Activation::relu();
        assert_eq!(a.param_count(), 0);
    }
}

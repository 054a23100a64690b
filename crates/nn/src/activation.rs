//! The parameter-free activation layer.

use crate::layer::{refill_cache, Layer, Mode};
use nebula_tensor::Tensor;

/// Element-wise ReLU layer caching its input, which the derivative is
/// written in.
#[derive(Clone, Debug)]
pub struct Activation {
    cached: Option<Tensor>,
}

impl Activation {
    pub fn relu() -> Self {
        Self { cached: None }
    }

    /// [`Layer::forward`] applied to `x` where it lies; the cache is
    /// refilled as [`crate::Linear::forward_into`]'s is.
    pub fn forward_in_place(&mut self, x: &mut Tensor, mode: Mode) {
        refill_cache(&mut self.cached, x, mode);
        for v in x.data_mut() {
            *v = v.max(0.0);
        }
    }

    /// [`Layer::backward`] applied to `grad` where it lies.
    pub fn backward_in_place(&mut self, grad: &mut Tensor) {
        let cached = self.cached.as_ref().expect("Activation::backward before forward");
        assert_eq!(grad.shape(), cached.shape(), "Activation grad shape mismatch");
        for (g, &c) in grad.data_mut().iter_mut().zip(cached.data()) {
            *g *= if c > 0.0 { 1.0 } else { 0.0 };
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
    fn activation_has_no_params() {
        let a = Activation::relu();
        assert_eq!(a.param_count(), 0);
    }
}

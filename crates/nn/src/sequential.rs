//! Ordered container of boxed layers.

use crate::layer::{Layer, Mode};
use nebula_tensor::Tensor;

/// A stack of layers applied in order; backward runs in reverse.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl Sequential {
    /// Empty container (acts as the identity function).
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Builder-style push.
    pub fn with(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the container holds no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let mut layers = self.layers.iter_mut();
        let Some(first) = layers.next() else { return x.clone() };
        layers.fold(first.forward(x, mode), |cur, layer| layer.forward(&cur, mode))
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mut layers = self.layers.iter_mut().rev();
        let Some(last) = layers.next() else { return grad.clone() };
        layers.fold(last.backward(grad), |cur, layer| layer.backward(&cur))
    }

    fn visit_params<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Tensor, &'a mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Tensor)) {
        for layer in &self.layers {
            layer.visit_params_ref(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::gradcheck::check_layer_gradients;
    use crate::linear::Linear;
    use nebula_tensor::NebulaRng;

    #[test]
    fn empty_sequential_is_identity() {
        let mut s = Sequential::new();
        let x = Tensor::matrix(&[&[1.0, 2.0]]);
        assert_eq!(s.forward(&x, Mode::Eval).data(), x.data());
        assert_eq!(s.backward(&x).data(), x.data());
    }

    #[test]
    fn two_layer_mlp_gradcheck() {
        let mut rng = NebulaRng::seed(1);
        let mlp = Sequential::new()
            .with(Linear::new(4, 8, &mut rng))
            .with(Activation::relu())
            .with(Linear::new(8, 3, &mut rng));
        check_layer_gradients(Box::new(mlp), 4, 2, 99);
    }

    #[test]
    fn param_count_sums_layers() {
        let mut rng = NebulaRng::seed(2);
        let s = Sequential::new()
            .with(Linear::new(4, 8, &mut rng))
            .with(Activation::relu())
            .with(Linear::new(8, 2, &mut rng));
        assert_eq!(s.param_count(), (4 * 8 + 8) + (8 * 2 + 2));
    }

    #[test]
    fn forward_composes_in_order() {
        let mut rng = NebulaRng::seed(3);
        let mut l1 = Linear::new(2, 2, &mut rng);
        let mut l2 = Linear::new(2, 2, &mut rng);
        let x = Tensor::matrix(&[&[1.0, -1.0]]);
        let manual = l2.forward(&l1.forward(&x, Mode::Eval), Mode::Eval);

        let mut rng2 = NebulaRng::seed(3);
        let mut s = Sequential::new().with(Linear::new(2, 2, &mut rng2)).with(Linear::new(2, 2, &mut rng2));
        let composed = s.forward(&x, Mode::Eval);
        nebula_tensor::assert_tensor_close(&composed, &manual, 1e-6);
    }
}

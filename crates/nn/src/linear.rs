//! Fully-connected layer.
//!
//! Weights are stored row-major as `out_features × in_features` so the
//! forward pass is a single [`Tensor::matmul_nt`] over contiguous rows.

use crate::layer::{cache_for, refill_cache, Layer, Mode};
use nebula_tensor::{Init, NebulaRng, Tensor};

/// `y = x · Wᵀ + b` with `W: out×in`, `b: out`.
#[derive(Clone, Debug)]
pub struct Linear {
    w: Tensor,
    b: Tensor,
    dw: Tensor,
    db: Tensor,
    cached_x: Option<Tensor>,
}

impl Linear {
    /// Kaiming-initialised linear layer (the default for ReLU stacks).
    pub fn new(in_features: usize, out_features: usize, rng: &mut NebulaRng) -> Self {
        Self::with_init(in_features, out_features, Init::KaimingNormal, rng)
    }

    /// Linear layer with an explicit weight-init scheme; bias starts at zero.
    fn with_init(in_features: usize, out_features: usize, init: Init, rng: &mut NebulaRng) -> Self {
        Self::from_weight(init.weight(out_features, in_features, rng))
    }

    /// All-zero layer that draws nothing from an RNG: the shape to load
    /// shipped parameters into.
    pub fn zeros(in_features: usize, out_features: usize) -> Self {
        Self::from_weight(Tensor::zeros(&[out_features, in_features]))
    }

    /// A layer around the `out × in` weight `w`; bias starts at zero.
    pub fn from_weight(w: Tensor) -> Self {
        let out_features = w.shape()[0];
        Self {
            b: Tensor::zeros(&[out_features]),
            dw: Tensor::zeros(w.shape()),
            db: Tensor::zeros(&[out_features]),
            w,
            cached_x: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.w.shape()[1]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.w.shape()[0]
    }

    /// Immutable weight access (for tests and cost models).
    pub fn weight(&self) -> &Tensor {
        &self.w
    }

    /// Immutable bias access.
    pub fn bias(&self) -> &Tensor {
        &self.b
    }

    /// [`Layer::forward`] into a caller-provided `y` (`batch × out`,
    /// overwritten), so a composite can keep the output in a buffer it
    /// reuses. A `Train` forward refills the input cache in the buffer it
    /// has, whatever the row count; an `Eval` forward leaves one sized to
    /// its batch.
    pub fn forward_into(&mut self, x: &Tensor, y: &mut Tensor, mode: Mode) {
        assert_eq!(x.cols(), self.in_features(), "Linear input width mismatch");
        refill_cache(&mut self.cached_x, x, mode);
        self.forward_cached_into(y);
    }

    /// The input cache as a `rows × in` buffer with unspecified contents,
    /// sized by [`Linear::forward_into`]'s rule. A composite that can
    /// produce this layer's input where backward will read it (gathered
    /// rows, the previous layer's activation) fills it and calls
    /// [`Linear::forward_cached_into`], instead of producing the input
    /// elsewhere for `forward_into` to copy here.
    pub fn input_cache_mut(&mut self, rows: usize, mode: Mode) -> &mut Tensor {
        let shape = [rows, self.in_features()];
        cache_for(&mut self.cached_x, &shape, mode)
    }

    /// The input the last forward cached. Panics before any forward.
    pub fn input_cache(&self) -> &Tensor {
        self.cached_x.as_ref().expect("Linear input cache read before forward")
    }

    /// `y = x · Wᵀ + b` (`y` overwritten) with `x` the cached input.
    pub fn forward_cached_into(&self, y: &mut Tensor) {
        self.input_cache().matmul_nt_into(&self.w, y);
        y.add_row_broadcast_assign(&self.b);
    }

    /// [`Layer::backward`] with ∂loss/∂input written into a
    /// caller-provided `dx` (`batch × in`, overwritten).
    pub fn backward_into(&mut self, grad: &Tensor, dx: &mut Tensor) {
        self.backward_params(grad);
        // dx = grad · W  (batch×out · out×in).
        grad.matmul_into(&self.w, dx);
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let mut y = Tensor::zeros(&[x.rows(), self.out_features()]);
        self.forward_into(x, &mut y, mode);
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mut dx = Tensor::zeros(&[grad.rows(), self.in_features()]);
        self.backward_into(grad, &mut dx);
        dx
    }

    fn backward_params(&mut self, grad: &Tensor) {
        let x = self.cached_x.as_ref().expect("Linear::backward before forward");
        // dW += gradᵀ · x  (out×batch · batch×in), summed where it lives.
        grad.matmul_tn_acc(x, &mut self.dw);
        grad.add_sum_rows_to(&mut self.db);
    }

    fn visit_params<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Tensor, &'a mut Tensor)) {
        f(&mut self.w, &mut self.dw);
        f(&mut self.b, &mut self.db);
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Tensor)) {
        f(&self.w);
        f(&self.b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use nebula_tensor::{assert_tensor_close, NebulaRng};

    #[test]
    fn forward_matches_manual() {
        let mut rng = NebulaRng::seed(1);
        let mut l = Linear::new(2, 3, &mut rng);
        // Weight rows [1,2],[3,4],[5,6], then the bias.
        l.load_param_vector(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.1, 0.2, 0.3]);
        let x = Tensor::matrix(&[&[1.0, 1.0]]);
        let y = l.forward(&x, Mode::Eval);
        assert_tensor_close(&y, &Tensor::matrix(&[&[3.1, 7.2, 11.3]]), 1e-5);
    }

    #[test]
    fn gradients_pass_finite_difference_check() {
        let mut rng = NebulaRng::seed(2);
        let layer = Linear::new(5, 4, &mut rng);
        check_layer_gradients(Box::new(layer), 5, 3, 42);
    }

    #[test]
    fn backward_accumulates_across_calls() {
        let mut rng = NebulaRng::seed(3);
        let mut l = Linear::new(2, 2, &mut rng);
        let x = Tensor::ones(&[1, 2]);
        let g = Tensor::ones(&[1, 2]);
        l.forward(&x, Mode::Train);
        l.backward(&g);
        let g1 = l.grad_vector();
        l.forward(&x, Mode::Train);
        l.backward(&g);
        let g2 = l.grad_vector();
        for (a, b) in g1.iter().zip(&g2) {
            assert!((b - 2.0 * a).abs() < 1e-5, "grad not accumulated: {a} vs {b}");
        }
    }

    #[test]
    fn input_cache_follows_a_changing_row_count() {
        // Backward must see the rows of the forward before it, whether the
        // batch grew or shrank since the one before that.
        let mut rng = NebulaRng::seed(6);
        let mut l = Linear::new(3, 2, &mut rng);
        let mut fresh = l.clone();
        for rows in [4, 9, 2] {
            let x = Tensor::from_vec((0..rows * 3).map(|_| rng.normal_f32(0.0, 1.0)).collect(), &[rows, 3]);
            l.zero_grad();
            let y = l.forward(&x, Mode::Train);
            let dx = l.backward(&Tensor::ones(y.shape()));
            fresh.cached_x = None;
            fresh.zero_grad();
            assert_eq!(fresh.forward(&x, Mode::Train), y);
            assert_eq!(fresh.backward(&Tensor::ones(y.shape())), dx);
            assert_eq!(fresh.grad_vector(), l.grad_vector());
        }
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn forward_rejects_wrong_width() {
        let mut rng = NebulaRng::seed(4);
        let mut l = Linear::new(3, 2, &mut rng);
        l.forward(&Tensor::zeros(&[1, 5]), Mode::Eval);
    }

    #[test]
    fn param_count_is_w_plus_b() {
        let mut rng = NebulaRng::seed(5);
        let l = Linear::new(7, 4, &mut rng);
        assert_eq!(l.param_count(), 7 * 4 + 4);
    }
}

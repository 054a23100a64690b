//! Fully-connected layer.
//!
//! Weights are stored row-major as `out_features × in_features` so the
//! forward pass is a single [`Tensor::matmul_nt`] over contiguous rows.

use crate::layer::{Layer, Mode};
use crate::workspace::Workspace;
use nebula_tensor::{Init, NebulaRng, Tensor};
use std::cell::RefCell;

thread_local! {
    // Scratch for `dW = gradᵀ · x`: one per thread, not one per layer. A
    // weight-sized buffer pooled in every `Linear` made a live model a
    // third larger than its values, gradients and optimiser state — which
    // is what a round pays for every device it trains at the same time.
    static DW_SCRATCH: RefCell<Workspace> = const { RefCell::new(Workspace::new()) };
}

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
    pub fn with_init(in_features: usize, out_features: usize, init: Init, rng: &mut NebulaRng) -> Self {
        Self::from_weight(init.weight(out_features, in_features, rng))
    }

    /// All-zero layer that draws nothing from an RNG: the shape to load
    /// shipped parameters into.
    pub fn zeros(in_features: usize, out_features: usize) -> Self {
        Self::from_weight(Tensor::zeros(&[out_features, in_features]))
    }

    fn from_weight(w: Tensor) -> Self {
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

    /// Mutable weight access (used by width-scaled HeteroFL extraction).
    pub fn weight_mut(&mut self) -> &mut Tensor {
        &mut self.w
    }

    /// Mutable bias access.
    pub fn bias_mut(&mut self) -> &mut Tensor {
        &mut self.b
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        assert_eq!(x.cols(), self.in_features(), "Linear input width mismatch");
        // Reuse the activation cache buffer when the batch shape repeats
        // (always true inside a training loop).
        match self.cached_x.as_mut() {
            Some(c) if c.shape() == x.shape() => c.data_mut().copy_from_slice(x.data()),
            _ => self.cached_x = Some(x.clone()),
        }
        let mut y = Tensor::zeros(&[x.rows(), self.out_features()]);
        x.matmul_nt_into(&self.w, &mut y);
        y.add_row_broadcast_assign(&self.b);
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let x = self.cached_x.as_ref().expect("Linear::backward before forward");
        // dW = gradᵀ · x  (out×batch · batch×in), accumulated via scratch.
        let mut dw = DW_SCRATCH.with_borrow_mut(|ws| ws.zeroed(&[self.out_features(), self.in_features()]));
        grad.matmul_tn_into(x, &mut dw);
        self.dw.add_assign(&dw);
        DW_SCRATCH.with_borrow_mut(|ws| ws.recycle(dw));
        self.db.add_assign(&grad.sum_rows());
        // dx = grad · W  (batch×out · out×in).
        grad.matmul(&self.w)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
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
        l.weight_mut().data_mut().copy_from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]); // rows: [1,2],[3,4],[5,6]
        l.bias_mut().data_mut().copy_from_slice(&[0.1, 0.2, 0.3]);
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

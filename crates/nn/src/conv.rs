//! 1-D convolution and pooling.
//!
//! The paper's speech model (ResNet34 over audio) and HAR models consume
//! sequence data; these layers provide the convolutional substrate. A
//! sequence batch is carried in the workspace's rank-2 layout as
//! `batch × (channels · length)`, channel-major per sample (channel 0's
//! samples first) — [`Conv1d::new`] records `(in_channels, length)` so
//! the layer can address the layout without a rank-3 tensor type.
//!
//! The convolution lowers to a GEMM through im2col (forward) / col2im
//! (input gradient), the standard CPU implementation strategy.

use crate::layer::{Layer, Mode};
use crate::workspace::Workspace;
use nebula_tensor::{Init, NebulaRng, Tensor};

/// 1-D convolution with zero padding.
pub struct Conv1d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    in_len: usize,
    /// Weights `out_channels × (in_channels · kernel)`.
    w: Tensor,
    b: Tensor,
    dw: Tensor,
    db: Tensor,
    /// im2col of the last input: `(batch · out_len) × (in_channels · kernel)`.
    cols: Option<Tensor>,
    last_batch: usize,
    ws: Workspace,
}

impl Conv1d {
    /// Builds a convolution over length-`in_len` sequences of
    /// `in_channels` channels.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        in_len: usize,
        rng: &mut NebulaRng,
    ) -> Self {
        Self {
            w: Init::KaimingNormal.weight(out_channels, in_channels * kernel, rng),
            ..Self::zeros(in_channels, out_channels, kernel, stride, pad, in_len)
        }
    }

    /// All-zero convolution that draws nothing from an RNG: the shape to
    /// load shipped parameters into.
    pub fn zeros(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        in_len: usize,
    ) -> Self {
        assert!(kernel >= 1 && stride >= 1, "kernel/stride must be ≥ 1");
        assert!(in_len + 2 * pad >= kernel, "kernel larger than padded input");
        Self {
            in_channels,
            out_channels,
            kernel,
            stride,
            pad,
            in_len,
            w: Tensor::zeros(&[out_channels, in_channels * kernel]),
            b: Tensor::zeros(&[out_channels]),
            dw: Tensor::zeros(&[out_channels, in_channels * kernel]),
            db: Tensor::zeros(&[out_channels]),
            cols: None,
            last_batch: 0,
            ws: Workspace::new(),
        }
    }

    /// Output sequence length.
    pub fn out_len(&self) -> usize {
        (self.in_len + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Output feature width in the flattened layout
    /// (`out_channels · out_len`).
    pub fn out_features(&self) -> usize {
        self.out_channels * self.out_len()
    }

    /// Input feature width (`in_channels · in_len`).
    pub fn in_features(&self) -> usize {
        self.in_channels * self.in_len
    }

    /// im2col: one row per (sample, output position). `cols` must come in
    /// zeroed — the zero background doubles as the padding values.
    fn im2col_into(&self, x: &Tensor, cols: &mut Tensor) {
        let batch = x.rows();
        let out_len = self.out_len();
        for bsample in 0..batch {
            let xrow = x.row(bsample);
            for o in 0..out_len {
                let crow = cols.row_mut(bsample * out_len + o);
                let start = (o * self.stride) as isize - self.pad as isize;
                for c in 0..self.in_channels {
                    for k in 0..self.kernel {
                        let t = start + k as isize;
                        if t >= 0 && (t as usize) < self.in_len {
                            crow[c * self.kernel + k] = xrow[c * self.in_len + t as usize];
                        }
                    }
                }
            }
        }
    }
}

impl Layer for Conv1d {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        assert_eq!(x.cols(), self.in_features(), "Conv1d input width mismatch");
        let batch = x.rows();
        let out_len = self.out_len();
        let krows = self.in_channels * self.kernel;
        let col_shape = [batch * out_len, krows];
        // Reuse the cached im2col matrix when the batch shape repeats.
        let mut cols = match self.cols.take() {
            Some(mut c) if c.shape() == col_shape => {
                c.zero_();
                c
            }
            _ => Tensor::zeros(&col_shape),
        };
        self.im2col_into(x, &mut cols);
        // (batch·out_len) × krows · krowsᵀ → (batch·out_len) × out_channels
        let mut prod = self.ws.zeroed(&[batch * out_len, self.out_channels]);
        cols.matmul_nt_into(&self.w, &mut prod);
        // Re-pack into batch × (out_channels · out_len), channel-major.
        let mut y = Tensor::zeros(&[batch, self.out_features()]);
        for bsample in 0..batch {
            for o in 0..out_len {
                let prow = prod.row(bsample * out_len + o);
                let yrow = y.row_mut(bsample);
                for (oc, &v) in prow.iter().enumerate() {
                    yrow[oc * out_len + o] = v + self.b.data()[oc];
                }
            }
        }
        self.ws.recycle(prod);
        self.cols = Some(cols);
        self.last_batch = batch;
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let cols = self.cols.take().expect("Conv1d::backward before forward");
        let batch = self.last_batch;
        let out_len = self.out_len();
        assert_eq!(grad.cols(), self.out_features(), "Conv1d grad width mismatch");

        // Unpack grad into (batch·out_len) × out_channels.
        let mut gprod = self.ws.zeroed(&[batch * out_len, self.out_channels]);
        for bsample in 0..batch {
            let grow = grad.row(bsample);
            for o in 0..out_len {
                let gp = gprod.row_mut(bsample * out_len + o);
                for oc in 0..self.out_channels {
                    gp[oc] = grow[oc * out_len + o];
                }
            }
        }

        // dW = gprodᵀ · cols ; db = Σ gprod rows.
        let mut dw = self.ws.zeroed(&[self.out_channels, self.in_channels * self.kernel]);
        gprod.matmul_tn_into(&cols, &mut dw);
        self.dw.add_assign(&dw);
        self.ws.recycle(dw);
        self.db.add_assign(&gprod.sum_rows());
        self.cols = Some(cols);

        // dcols = gprod · W, then col2im scatter back to dx.
        let mut dcols = self.ws.zeroed(&[batch * out_len, self.in_channels * self.kernel]);
        gprod.matmul_into(&self.w, &mut dcols);
        self.ws.recycle(gprod);
        let mut dx = Tensor::zeros(&[batch, self.in_features()]);
        for bsample in 0..batch {
            for o in 0..out_len {
                let drow = dcols.row(bsample * out_len + o);
                let xrow = dx.row_mut(bsample);
                let start = (o * self.stride) as isize - self.pad as isize;
                for c in 0..self.in_channels {
                    for k in 0..self.kernel {
                        let t = start + k as isize;
                        if t >= 0 && (t as usize) < self.in_len {
                            xrow[c * self.in_len + t as usize] += drow[c * self.kernel + k];
                        }
                    }
                }
            }
        }
        self.ws.recycle(dcols);
        dx
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

/// Non-overlapping-window max pooling over the sequence axis.
pub struct MaxPool1d {
    channels: usize,
    in_len: usize,
    window: usize,
    /// Flat argmax index (into the input row) per output element.
    argmax: Option<Vec<usize>>,
    last_batch: usize,
}

impl MaxPool1d {
    pub fn new(channels: usize, in_len: usize, window: usize) -> Self {
        assert!(window >= 1 && window <= in_len, "bad pooling window");
        Self { channels, in_len, window, argmax: None, last_batch: 0 }
    }

    pub fn out_len(&self) -> usize {
        self.in_len / self.window
    }

    pub fn out_features(&self) -> usize {
        self.channels * self.out_len()
    }
}

impl Layer for MaxPool1d {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        assert_eq!(x.cols(), self.channels * self.in_len, "MaxPool1d width mismatch");
        let batch = x.rows();
        let out_len = self.out_len();
        let mut y = Tensor::zeros(&[batch, self.out_features()]);
        let mut argmax = vec![0usize; batch * self.out_features()];
        for bsample in 0..batch {
            let xrow = x.row(bsample);
            for c in 0..self.channels {
                for o in 0..out_len {
                    let base = c * self.in_len + o * self.window;
                    let mut best = base;
                    for t in base + 1..base + self.window {
                        if xrow[t] > xrow[best] {
                            best = t;
                        }
                    }
                    y.row_mut(bsample)[c * out_len + o] = xrow[best];
                    argmax[bsample * self.out_features() + c * out_len + o] = best;
                }
            }
        }
        self.argmax = Some(argmax);
        self.last_batch = batch;
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let argmax = self.argmax.as_ref().expect("MaxPool1d::backward before forward");
        let batch = self.last_batch;
        let mut dx = Tensor::zeros(&[batch, self.channels * self.in_len]);
        for bsample in 0..batch {
            let grow = grad.row(bsample);
            let xrow = dx.row_mut(bsample);
            for (j, &g) in grow.iter().enumerate() {
                xrow[argmax[bsample * grad.cols() + j]] += g;
            }
        }
        dx
    }

    fn visit_params<'a>(&'a mut self, _f: &mut dyn FnMut(&'a mut Tensor, &'a mut Tensor)) {}
    fn visit_params_ref(&self, _f: &mut dyn FnMut(&Tensor)) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients_with;
    use crate::{Activation, Sequential};

    #[test]
    fn conv_shapes_follow_the_formula() {
        let mut rng = NebulaRng::seed(1);
        let c = Conv1d::new(2, 4, 3, 1, 1, 8, &mut rng);
        assert_eq!(c.out_len(), 8); // same-padding with k=3, s=1, p=1
        assert_eq!(c.out_features(), 32);
        let strided = Conv1d::new(2, 4, 3, 2, 0, 8, &mut rng);
        assert_eq!(strided.out_len(), 3);
    }

    #[test]
    fn conv_matches_manual_computation() {
        // 1 channel, length 4, kernel 2, stride 1, no pad; known weights.
        let mut rng = NebulaRng::seed(2);
        let mut c = Conv1d::new(1, 1, 2, 1, 0, 4, &mut rng);
        c.w.data_mut().copy_from_slice(&[1.0, -1.0]); // difference filter
        c.b.data_mut()[0] = 0.5;
        let x = Tensor::matrix(&[&[1.0, 3.0, 2.0, 5.0]]);
        let y = c.forward(&x, Mode::Eval);
        // y[o] = x[o]·1 + x[o+1]·(−1) + 0.5
        assert_eq!(y.data(), &[1.0 - 3.0 + 0.5, 3.0 - 2.0 + 0.5, 2.0 - 5.0 + 0.5]);
    }

    #[test]
    fn conv_gradcheck() {
        let mut rng = NebulaRng::seed(3);
        let c = Conv1d::new(2, 3, 3, 1, 1, 6, &mut rng);
        check_layer_gradients_with(Box::new(c), 12, 2, 11, 1e-3, 5e-2);
    }

    #[test]
    fn conv_gradcheck_strided_unpadded() {
        let mut rng = NebulaRng::seed(4);
        let c = Conv1d::new(1, 2, 3, 2, 0, 9, &mut rng);
        check_layer_gradients_with(Box::new(c), 9, 2, 12, 1e-3, 5e-2);
    }

    #[test]
    fn maxpool_selects_window_maxima() {
        let mut p = MaxPool1d::new(1, 6, 2);
        let x = Tensor::matrix(&[&[1.0, 5.0, 2.0, 2.0, -3.0, 0.0]]);
        let y = p.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[5.0, 2.0, 0.0]);
        // Gradient routes to the argmax positions only.
        let dx = p.backward(&Tensor::matrix(&[&[1.0, 1.0, 1.0]]));
        assert_eq!(dx.data(), &[0.0, 1.0, 1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn small_convnet_trains_on_synthetic_sequences() {
        use crate::loss::cross_entropy;
        use crate::optim::{Optimizer, Sgd};
        // Two classes distinguished by where a bump sits in the sequence.
        let mut rng = NebulaRng::seed(5);
        let make = |n: usize, rng: &mut NebulaRng| -> (Tensor, Vec<usize>) {
            let mut xs = Vec::with_capacity(n * 16);
            let mut ys = Vec::with_capacity(n);
            for _ in 0..n {
                let class = rng.below(2);
                let centre = if class == 0 { 4.0f32 } else { 11.0 };
                for t in 0..16 {
                    let d = t as f32 - centre;
                    xs.push((-d * d / 4.0).exp() + rng.normal_f32(0.0, 0.25));
                }
                ys.push(class);
            }
            (Tensor::from_vec(xs, &[n, 16]), ys)
        };
        let (train_x, train_y) = make(300, &mut rng);
        let (test_x, test_y) = make(150, &mut rng);

        let conv = Conv1d::new(1, 4, 5, 1, 2, 16, &mut rng);
        let pool = MaxPool1d::new(4, 16, 4);
        let mut model = Sequential::new()
            .with(conv)
            .with(Activation::relu())
            .with(pool)
            .with(crate::Linear::new(16, 2, &mut rng));
        let mut opt = Sgd::with_momentum(0.05, 0.9);
        for _ in 0..10 {
            let mut order: Vec<usize> = (0..train_y.len()).collect();
            rng.shuffle(&mut order);
            for chunk in order.chunks(16) {
                let x = train_x.gather_rows(chunk);
                let y: Vec<usize> = chunk.iter().map(|&i| train_y[i]).collect();
                model.zero_grad();
                let logits = model.forward(&x, Mode::Train);
                let (_, grad) = cross_entropy(&logits, &y);
                model.backward(&grad);
                model.clip_grad_norm(5.0);
                opt.step(&mut model);
            }
        }
        let preds = model.forward(&test_x, Mode::Eval).argmax_rows();
        let correct = preds.iter().zip(&test_y).filter(|(p, y)| p == y).count();
        let acc = correct as f32 / test_y.len() as f32;
        assert!(acc > 0.9, "convnet accuracy only {acc}");
    }
}

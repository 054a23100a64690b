//! The dense (non-modular) reference model with width scaling.
//!
//! Architecture mirrors the modular trunk — stem → residual blocks → head —
//! with each block's hidden width equal to the modular model's *total*
//! module capacity, so FedAvg's "full large cloud model" has comparable
//! capacity to Nebula's full modularized model.
//!
//! **Width scaling**: a block can run using only its first `⌈r·H⌉` hidden
//! units. Parameters are stored at full width; the active slice is a
//! prefix, which makes sub-models *nested* — exactly the structure
//! HeteroFL aggregates over and slimmable branches (AdaptiveNet baseline)
//! switch between.
//!
//! ## The train step
//!
//! Each activation is written where backward reads it: the stem's ReLU
//! and every block's output go straight into the next block's input
//! buffer, the last of them into the head's input cache
//! ([`Linear::input_cache_mut`]). Caches and gradient buffers are refilled
//! in place, so a warm step allocates only what [`Layer::forward`] and
//! [`Layer::backward`] return by value. How a block runs its products at
//! full and at narrow width is on `ScalableBlock`.

use nebula_nn::layer::buffer_for;
use nebula_nn::{Layer, Linear, Mode};
use nebula_tensor::{resolved_backend, Init, KernelBackend, NebulaRng, Tensor};

/// A width-scalable residual block:
/// `y = x + s·(W₂[:, :h]·relu(W₁[:h, :]·x + b₁[:h]) + b₂)` with
/// `s = √(H/h)`, which keeps the output's magnitude comparable across
/// widths (the slimmable-net trick).
///
/// At full width (`h = H`, so `s = 1` and scaling is skipped as the exact
/// no-op it is) the products run on `w1` and `w2` where they lie, and the
/// weight gradients are added where they live with
/// [`Tensor::matmul_tn_acc`] — the batch is far below the engine's `KC`,
/// so the bits are those of a product added afterwards.
///
/// A narrow block's `W₂[:, :h]` is a strided piece of every row, which no
/// product can read in place. Its forward copies `w1`'s active rows and
/// the transpose of `w2`'s active columns into `h × d` buffers the block
/// owns, and backward reuses both; the narrow weight gradients land in a
/// scratch and are added into the full-width ones. The reference engine
/// takes this compact path at full width too: its `A·B` and `A·Bᵀ`
/// kernels sum in different orders, so there the layout a product reads
/// shows in the bits, and the compact path keeps the layouts this block
/// has always used.
struct ScalableBlock {
    w1: Tensor, // H × d
    b1: Tensor, // H
    w2: Tensor, // d × H
    b2: Tensor, // d
    dw1: Tensor,
    db1: Tensor,
    dw2: Tensor,
    db2: Tensor,
    /// Active hidden units (prefix length).
    active: usize,
    /// The block's input (B × d), written there by the stage before it.
    x: Tensor,
    /// Hidden pre-activation on the active prefix (B × h), for the ReLU
    /// mask, and its ReLU, for `dW₂`.
    pre: Tensor,
    act: Tensor,
    /// ∂loss/∂pre (B × h).
    dpre: Tensor,
    /// Whether the last forward took the compact path (backward follows).
    compact: bool,
    /// The compact path's buffers: `w1[:h, :]` and `w2[:, :h]ᵀ` (h × d),
    /// `s·∂loss/∂y` (B × d), and the scratch a narrow weight gradient
    /// lands in (h × d or d × h).
    w1a: Tensor,
    w2t: Tensor,
    dys: Tensor,
    dwa: Tensor,
}

impl ScalableBlock {
    /// A full-width block around `w1` (H × d) and `w2` (d × H); biases
    /// start at zero.
    fn new(w1: Tensor, w2: Tensor) -> Self {
        let (h, d) = (w1.shape()[0], w1.shape()[1]);
        let empty = || Tensor::zeros(&[0]);
        Self {
            b1: Tensor::zeros(&[h]),
            b2: Tensor::zeros(&[d]),
            dw1: Tensor::zeros(&[h, d]),
            db1: Tensor::zeros(&[h]),
            dw2: Tensor::zeros(&[d, h]),
            db2: Tensor::zeros(&[d]),
            w1,
            w2,
            active: h,
            x: empty(),
            pre: empty(),
            act: empty(),
            dpre: empty(),
            compact: false,
            w1a: empty(),
            w2t: empty(),
            dys: empty(),
            dwa: empty(),
        }
    }

    fn full_hidden(&self) -> usize {
        self.w1.shape()[0]
    }

    /// Hidden units active at width ratio `r`: the first `⌈r·H⌉`, at
    /// least one.
    fn hidden_at(&self, r: f32) -> usize {
        let full = self.full_hidden();
        ((full as f32 * r).ceil() as usize).clamp(1, full)
    }

    fn scale(&self) -> f32 {
        (self.full_hidden() as f32 / self.active as f32).sqrt()
    }

    /// Writes the block's output for the input buffer `self.x` into `y`
    /// (B × d, overwritten).
    fn forward(&mut self, y: &mut Tensor, mode: Mode) {
        let (h, full, d) = (self.active, self.full_hidden(), self.w1.cols());
        let rows = self.x.rows();
        self.compact = h < full || resolved_backend() == KernelBackend::Reference;
        let pre = buffer_for(&mut self.pre, &[rows, h], mode);
        if self.compact {
            self.w1a.resize_for_overwrite(&[h, d]);
            self.w1a.data_mut().copy_from_slice(&self.w1.data()[..h * d]);
            self.w2t.resize_for_overwrite(&[h, d]);
            for (j, dst) in self.w2t.data_mut().chunks_exact_mut(d).enumerate() {
                for (v, w2row) in dst.iter_mut().zip(self.w2.data().chunks_exact(full)) {
                    *v = w2row[j];
                }
            }
            self.x.matmul_nt_into(&self.w1a, pre);
        } else {
            self.x.matmul_nt_into(&self.w1, pre);
        }
        for row in pre.data_mut().chunks_exact_mut(h) {
            for (v, &b) in row.iter_mut().zip(&self.b1.data()[..h]) {
                *v += b;
            }
        }
        let act = buffer_for(&mut self.act, &[rows, h], mode);
        for (a, &p) in act.data_mut().iter_mut().zip(pre.data()) {
            *a = p.max(0.0);
        }
        if self.compact {
            act.matmul_into(&self.w2t, y);
        } else {
            act.matmul_nt_into(&self.w2, y);
        }
        y.add_row_broadcast_assign(&self.b2);
        let scale = self.scale();
        if scale != 1.0 {
            y.scale_assign(scale);
        }
        y.add_assign(&self.x);
    }

    /// Accumulates the block's gradients for `dy` = ∂loss/∂y and writes
    /// ∂loss/∂x into `dx` (B × d, overwritten).
    fn backward(&mut self, dy: &Tensor, dx: &mut Tensor) {
        let (h, full, d) = (self.active, self.full_hidden(), self.w1.cols());
        self.dpre.resize_for_overwrite(&[dy.rows(), h]);
        if !self.compact {
            // db2 += Σ_b dy; dW2 += dyᵀ·relu(pre); dpre = dy·W2.
            dy.add_sum_rows_to(&mut self.db2);
            dy.matmul_tn_acc(&self.act, &mut self.dw2);
            dy.matmul_into(&self.w2, &mut self.dpre);
            mask_by_relu(&mut self.dpre, &self.pre);
            // db1 += Σ_b dpre; dW1 += dpreᵀ·x; dx = dpre·W1 + dy.
            self.dpre.add_sum_rows_to(&mut self.db1);
            self.dpre.matmul_tn_acc(&self.x, &mut self.dw1);
            self.dpre.matmul_into(&self.w1, dx);
            dx.add_assign(dy);
            return;
        }
        // The same steps on the active slices, with dy scaled by s.
        self.dys.resize_for_overwrite(dy.shape());
        self.dys.data_mut().copy_from_slice(dy.data());
        self.dys.scale_assign(self.scale());
        self.dys.add_sum_rows_to(&mut self.db2);
        self.dwa.resize_for_overwrite(&[d, h]);
        self.dys.matmul_tn_into(&self.act, &mut self.dwa);
        for (dst, src) in self.dw2.data_mut().chunks_exact_mut(full).zip(self.dwa.data().chunks_exact(h)) {
            for (g, &v) in dst.iter_mut().zip(src) {
                *g += v;
            }
        }
        self.dys.matmul_nt_into(&self.w2t, &mut self.dpre);
        mask_by_relu(&mut self.dpre, &self.pre);
        // Each column summed from zero in row order, as `sum_rows` does.
        for (j, g) in self.db1.data_mut()[..h].iter_mut().enumerate() {
            *g += self.dpre.data().iter().skip(j).step_by(h).fold(0.0, |s, &v| s + v);
        }
        self.dwa.resize_for_overwrite(&[h, d]);
        self.dpre.matmul_tn_into(&self.x, &mut self.dwa);
        for (g, &v) in self.dw1.data_mut().iter_mut().zip(self.dwa.data()) {
            *g += v;
        }
        self.dpre.matmul_into(&self.w1a, dx);
        dx.add_assign(dy);
    }
}

/// Zeroes the gradient `g` wherever the ReLU's input `pre` was not
/// positive.
fn mask_by_relu(g: &mut Tensor, pre: &Tensor) {
    for (g, &p) in g.data_mut().iter_mut().zip(pre.data()) {
        if p <= 0.0 {
            *g = 0.0;
        }
    }
}

/// The coordinates of `values` that `mask` marks active, in order — the
/// slice of a width-scaled sub-model that travels on the wire.
pub(crate) fn active_slice(values: &[f32], mask: &[bool]) -> Vec<f32> {
    values.iter().zip(mask).filter_map(|(&v, &m)| m.then_some(v)).collect()
}

/// Inverse of [`active_slice`]: writes `slice` back over the active
/// coordinates of `full`, leaving the others untouched.
pub(crate) fn splice_active(full: &mut [f32], mask: &[bool], slice: &[f32]) {
    let mut it = slice.iter();
    for (v, &m) in full.iter_mut().zip(mask) {
        if m {
            *v = *it.next().expect("decoded slice shorter than mask");
        }
    }
}

/// Static architecture of a [`DenseModel`]: enough to rebuild an
/// identical (untrained) model elsewhere — the shape a transport job
/// ships to a remote executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DenseDims {
    pub input: usize,
    pub width: usize,
    pub blocks: usize,
    pub block_hidden: usize,
    pub classes: usize,
}

impl DenseDims {
    /// An all-zero model of this shape that draws nothing from an RNG,
    /// like [`Linear::zeros`]: the shape to load shipped parameters into.
    pub fn build(&self) -> DenseModel {
        DenseModel::with_weights(*self, |_, rows, cols| Tensor::zeros(&[rows, cols]))
    }
}

/// Width-scalable dense residual MLP.
pub struct DenseModel {
    stem: Linear,
    /// The stem's pre-activation (B × width), for its ReLU mask.
    stem_pre: Tensor,
    blocks: Vec<ScalableBlock>,
    head: Linear,
    /// Backward's ∂loss/∂trunk and the buffer the next block writes its
    /// ∂loss/∂input into; the two swap at every block.
    du: Tensor,
    dx: Tensor,
    width_ratio: f32,
}

impl DenseModel {
    /// `input → width` stem, `blocks` residual blocks of hidden `block_hidden`,
    /// `width → classes` head.
    pub fn new(
        input: usize,
        width: usize,
        blocks: usize,
        block_hidden: usize,
        classes: usize,
        seed: u64,
    ) -> Self {
        let mut rng = NebulaRng::seed(seed);
        let dims = DenseDims { input, width, blocks, block_hidden, classes };
        Self::with_weights(dims, |init, rows, cols| init.weight(rows, cols, &mut rng))
    }

    /// The model of shape `dims` whose weight matrices `weight(init, rows,
    /// cols)` returns; biases start at zero. The weights are asked for in
    /// parameter order, which is the seeded initialisation's draw order.
    fn with_weights(dims: DenseDims, mut weight: impl FnMut(Init, usize, usize) -> Tensor) -> Self {
        let DenseDims { input, width, blocks, block_hidden, classes } = dims;
        let stem = Linear::from_weight(weight(Init::KaimingNormal, width, input));
        let blocks = (0..blocks)
            .map(|_| {
                let w1 = weight(Init::KaimingNormal, block_hidden, width);
                ScalableBlock::new(w1, weight(Init::KaimingNormal, width, block_hidden))
            })
            .collect();
        let head = Linear::from_weight(weight(Init::XavierUniform, classes, width));
        let empty = || Tensor::zeros(&[0]);
        Self { stem, stem_pre: empty(), blocks, head, du: empty(), dx: empty(), width_ratio: 1.0 }
    }

    /// Sets the running width ratio `r ∈ (0, 1]`; every block activates its
    /// first `⌈r·H⌉` hidden units.
    pub fn set_width_ratio(&mut self, r: f32) {
        assert!(r > 0.0 && r <= 1.0, "width ratio {r} out of (0, 1]");
        self.width_ratio = r;
        for b in &mut self.blocks {
            b.active = b.hidden_at(r);
        }
    }

    /// The current width ratio.
    pub fn width_ratio(&self) -> f32 {
        self.width_ratio
    }

    /// Boolean mask over the flat parameter vector marking coordinates
    /// active at width ratio `r` (HeteroFL aggregation).
    pub fn mask_for_ratio(&self, r: f32) -> Vec<bool> {
        assert!(r > 0.0 && r <= 1.0);
        let mut mask = Vec::with_capacity(self.param_count());
        // Stem: always active.
        mask.extend(std::iter::repeat_n(true, self.stem.param_count()));
        for b in &self.blocks {
            let full = b.full_hidden();
            let h = b.hidden_at(r);
            let d = b.w1.shape()[1];
            // w1 rows 0..h active.
            for j in 0..full {
                mask.extend(std::iter::repeat_n(j < h, d));
            }
            // b1.
            for j in 0..full {
                mask.push(j < h);
            }
            // w2 columns 0..h active (row-major d×H).
            for _ in 0..d {
                for j in 0..full {
                    mask.push(j < h);
                }
            }
            // b2 always active.
            mask.extend(std::iter::repeat_n(true, b.b2.len()));
        }
        mask.extend(std::iter::repeat_n(true, self.head.param_count()));
        debug_assert_eq!(mask.len(), self.param_count());
        mask
    }

    /// Number of parameters active at ratio `r` (the count of `true` in
    /// [`Self::mask_for_ratio`], without building the mask).
    pub fn active_params(&self, r: f32) -> usize {
        assert!(r > 0.0 && r <= 1.0);
        let blocks: usize = self
            .blocks
            .iter()
            .map(|b| {
                // h rows of w1, h of b1, h columns of w2, all of b2.
                let (h, d) = (b.hidden_at(r), b.w1.shape()[1]);
                2 * h * d + h + b.b2.len()
            })
            .sum();
        self.stem.param_count() + blocks + self.head.param_count()
    }

    /// The model's static architecture (see [`DenseDims`]).
    pub fn dims(&self) -> DenseDims {
        DenseDims {
            input: self.stem.in_features(),
            width: self.stem.out_features(),
            blocks: self.blocks.len(),
            block_hidden: self.blocks.first().map_or(0, ScalableBlock::full_hidden),
            classes: self.head.out_features(),
        }
    }

    /// Deep copy (parameters only; caches reset).
    pub fn deep_clone(&self) -> DenseModel {
        let mut m = self.dims().build();
        m.load_param_vector(&self.param_vector());
        m.set_width_ratio(self.width_ratio);
        m
    }
}

/// Where the stage before `blocks` writes its output: the first block's
/// input buffer, or the head's input cache when no block is left.
fn stage_output<'a>(
    blocks: &'a mut [ScalableBlock],
    head: &'a mut Linear,
    shape: &[usize],
    mode: Mode,
) -> &'a mut Tensor {
    match blocks.first_mut() {
        Some(b) => buffer_for(&mut b.x, shape, mode),
        None => head.input_cache_mut(shape[0], mode),
    }
}

impl Layer for DenseModel {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let shape = [x.rows(), self.stem.out_features()];
        let pre = buffer_for(&mut self.stem_pre, &shape, mode);
        self.stem.forward_into(x, pre, mode);
        let trunk = stage_output(&mut self.blocks, &mut self.head, &shape, mode);
        for (u, &p) in trunk.data_mut().iter_mut().zip(pre.data()) {
            *u = p.max(0.0);
        }
        for i in 0..self.blocks.len() {
            let (block, rest) = self.blocks[i..].split_first_mut().expect("i is in range");
            block.forward(stage_output(rest, &mut self.head, &shape, mode), mode);
        }
        let mut logits = Tensor::zeros(&[shape[0], self.head.out_features()]);
        self.head.forward_cached_into(&mut logits);
        logits
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let shape = [grad.rows(), self.stem.out_features()];
        self.du.resize_for_overwrite(&shape);
        self.head.backward_into(grad, &mut self.du);
        for b in self.blocks.iter_mut().rev() {
            self.dx.resize_for_overwrite(&shape);
            b.backward(&self.du, &mut self.dx);
            std::mem::swap(&mut self.du, &mut self.dx);
        }
        mask_by_relu(&mut self.du, &self.stem_pre);
        let mut dx = Tensor::zeros(&[shape[0], self.stem.in_features()]);
        self.stem.backward_into(&self.du, &mut dx);
        dx
    }

    fn visit_params<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Tensor, &'a mut Tensor)) {
        self.stem.visit_params(f);
        for b in &mut self.blocks {
            f(&mut b.w1, &mut b.dw1);
            f(&mut b.b1, &mut b.db1);
            f(&mut b.w2, &mut b.dw2);
            f(&mut b.b2, &mut b.db2);
        }
        self.head.visit_params(f);
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Tensor)) {
        self.stem.visit_params_ref(f);
        for b in &self.blocks {
            f(&b.w1);
            f(&b.b1);
            f(&b.w2);
            f(&b.b2);
        }
        self.head.visit_params_ref(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nebula_data::{SynthSpec, Synthesizer};
    use nebula_nn::Sgd;

    fn model() -> DenseModel {
        DenseModel::new(16, 24, 2, 32, 4, 1)
    }

    #[test]
    fn forward_shapes() {
        let mut m = model();
        let x = Tensor::ones(&[5, 16]);
        let y = m.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[5, 4]);
        assert!(y.all_finite());
    }

    #[test]
    fn gradcheck_full_width() {
        // eps 1e-3: at 2e-3 this seed lands a ReLU pre-activation within
        // the probe step of the kink and the fd estimate goes one-sided.
        nebula_nn::gradcheck::check_layer_gradients_with(Box::new(model()), 16, 2, 13, 1e-3, 5e-2);
    }

    #[test]
    fn gradcheck_half_width() {
        let mut m = model();
        m.set_width_ratio(0.5);
        nebula_nn::gradcheck::check_layer_gradients_with(Box::new(m), 16, 2, 14, 1e-3, 5e-2);
    }

    #[test]
    fn width_ratio_changes_output_and_cost() {
        let mut m = model();
        let x = Tensor::ones(&[2, 16]);
        let full = m.forward(&x, Mode::Eval);
        m.set_width_ratio(0.25);
        let narrow = m.forward(&x, Mode::Eval);
        assert_ne!(full.data(), narrow.data());
        assert!(m.active_params(0.25) < m.active_params(1.0));
    }

    #[test]
    fn mask_prefix_nesting() {
        let m = model();
        let small = m.mask_for_ratio(0.25);
        let big = m.mask_for_ratio(0.75);
        // Nested: every coordinate active at 0.25 is active at 0.75.
        for (s, b) in small.iter().zip(&big) {
            assert!(!s || *b, "masks are not nested");
        }
        assert_eq!(m.active_params(1.0), m.param_count());
        for r in [1.0, 0.75, 0.5, 0.3, 0.125, 0.01] {
            assert_eq!(m.active_params(r), m.mask_for_ratio(r).iter().filter(|&&v| v).count(), "ratio {r}");
        }
    }

    #[test]
    fn deep_clone_is_equivalent() {
        let mut m = model();
        let mut c = m.deep_clone();
        let x = Tensor::ones(&[3, 16]);
        nebula_tensor::assert_tensor_close(&m.forward(&x, Mode::Eval), &c.forward(&x, Mode::Eval), 1e-6);
    }

    #[test]
    fn deep_clone_equals_the_original_bit_for_bit() {
        // A trained, narrowed original: nonzero biases, a ratio to carry.
        let synth = Synthesizer::new(SynthSpec::toy(), 1);
        let mut rng = NebulaRng::seed(4);
        let data = synth.sample(48, 0, &mut rng);
        let mut m = model();
        m.set_width_ratio(0.5);
        crate::local_adapt(&mut m, &data, 1, 16, 0.03, &mut rng);
        let mut c = m.deep_clone();
        assert_eq!(c.width_ratio(), m.width_ratio());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(&c.param_vector()), bits(&m.param_vector()));
        for mode in [Mode::Eval, Mode::Train] {
            assert_eq!(
                bits(c.forward(data.features(), mode).data()),
                bits(m.forward(data.features(), mode).data())
            );
        }
    }

    #[test]
    fn learns_toy_task() {
        let synth = Synthesizer::new(SynthSpec::toy(), 1);
        let mut rng = NebulaRng::seed(2);
        let train = synth.sample(400, 0, &mut rng);
        let test = synth.sample(200, 0, &mut rng);
        let mut m = model();
        let mut opt = Sgd::with_momentum(0.03, 0.9);
        nebula_data::train_epochs(
            &mut m,
            &mut opt,
            &train,
            nebula_data::TrainConfig { epochs: 15, batch_size: 16, clip_norm: Some(5.0) },
            &mut rng,
        );
        let acc = nebula_data::evaluate_accuracy(&mut m, &test, 64);
        assert!(acc > 0.7, "dense model accuracy only {acc}");
    }

    #[test]
    fn narrow_width_still_learns() {
        let synth = Synthesizer::new(SynthSpec::toy(), 1);
        let mut rng = NebulaRng::seed(3);
        let train = synth.sample(400, 0, &mut rng);
        let test = synth.sample(200, 0, &mut rng);
        let mut m = model();
        m.set_width_ratio(0.25);
        let mut opt = Sgd::with_momentum(0.03, 0.9);
        nebula_data::train_epochs(
            &mut m,
            &mut opt,
            &train,
            nebula_data::TrainConfig { epochs: 15, batch_size: 16, clip_norm: Some(5.0) },
            &mut rng,
        );
        let acc = nebula_data::evaluate_accuracy(&mut m, &test, 64);
        assert!(acc > 0.55, "narrow model accuracy only {acc}");
    }

    #[test]
    #[should_panic(expected = "out of (0, 1]")]
    fn rejects_zero_ratio() {
        model().set_width_ratio(0.0);
    }
}

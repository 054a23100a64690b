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

use nebula_nn::{Layer, Mode};
use nebula_tensor::{Init, NebulaRng, Tensor};

/// A width-scalable residual block: `y = x + W₂[:, :h]·relu(W₁[:h, :]·x + b₁[:h]) + b₂`.
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
    cache: Option<BlockCache>,
}

struct BlockCache {
    x: Tensor,
    /// Hidden pre-activations on the active slice (B × h).
    pre: Tensor,
}

impl ScalableBlock {
    fn new(d: usize, h: usize, rng: &mut NebulaRng) -> Self {
        Self {
            w1: Init::KaimingNormal.weight(h, d, rng),
            b1: Tensor::zeros(&[h]),
            w2: Init::KaimingNormal.weight(d, h, rng),
            b2: Tensor::zeros(&[d]),
            dw1: Tensor::zeros(&[h, d]),
            db1: Tensor::zeros(&[h]),
            dw2: Tensor::zeros(&[d, h]),
            db2: Tensor::zeros(&[d]),
            active: h,
            cache: None,
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

    /// Copies the active prefix slices: `(w1[:h, :], b1[:h], w2ᵀ[:h, :])`.
    /// The transpose of the active `w2` columns is materialised so both
    /// GEMMs run on contiguous rows; the copies are `O(h·d)` against
    /// `O(B·h·d)` compute.
    fn active_slices(&self) -> (Tensor, Tensor, Tensor) {
        let h = self.active;
        let d = self.w1.shape()[1];
        let w1a = self.w1.slice_rows(0, h);
        let b1a = Tensor::from_vec(self.b1.data()[..h].to_vec(), &[h]);
        let mut w2t = Tensor::zeros(&[h, d]);
        for jd in 0..d {
            let w2row = self.w2.row(jd);
            for (j, &v) in w2row.iter().enumerate().take(h) {
                *w2t.at_mut(j, jd) = v;
            }
        }
        (w1a, b1a, w2t)
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let h = self.active;
        let (w1a, b1a, w2t) = self.active_slices();
        // pre = x·W1ᵀ + b1 on the active prefix.
        let pre = x.matmul_nt(&w1a).add_row_broadcast(&b1a);
        let act = pre.relu();
        // y = x + scale·(relu(pre)·W2ᵀ + b2); the 1/√r-style rescale keeps
        // output magnitude comparable across widths (slimmable-net trick).
        let scale = (self.full_hidden() as f32 / h as f32).sqrt();
        let mut y = act.matmul(&w2t).add_row_broadcast(&self.b2);
        y.scale_assign(scale);
        y.add_assign(x);
        self.cache = Some(BlockCache { x: x.clone(), pre });
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("block backward before forward");
        let h = self.active;
        let d = dy.cols();
        let scale = (self.full_hidden() as f32 / h as f32).sqrt();
        let (w1a, _, w2t) = self.active_slices();

        let act = cache.pre.relu();

        // db2 += scale·Σ_b dy ; dW2[:, :h] += scale·dyᵀ·relu(pre).
        let mut dy_scaled = dy.clone();
        dy_scaled.scale_assign(scale);
        self.db2.add_assign(&dy_scaled.sum_rows());
        let dw2_slice = dy_scaled.matmul_tn(&act); // d × h
        for jd in 0..d {
            let src = dw2_slice.row(jd);
            let dst = self.dw2.row_mut(jd);
            for j in 0..h {
                dst[j] += src[j];
            }
        }

        // dpre = scale·(dy·W2[:, :h]) ⊙ 1[pre > 0].
        let mut dpre = dy_scaled.matmul_nt(&w2t); // B × h (w2t is h×d)
        for (g, &p) in dpre.data_mut().iter_mut().zip(cache.pre.data()) {
            if p <= 0.0 {
                *g = 0.0;
            }
        }

        // db1[:h], dW1[:h, :], and dx = dy + dpre·W1[:h, :].
        let db1_slice = dpre.sum_rows();
        for j in 0..h {
            self.db1.data_mut()[j] += db1_slice.data()[j];
        }
        let dw1_slice = dpre.matmul_tn(&cache.x); // h × d
        for j in 0..h {
            let src = dw1_slice.row(j);
            let dst = self.dw1.row_mut(j);
            for (dv, &sv) in dst.iter_mut().zip(src) {
                *dv += sv;
            }
        }
        let mut dx = dpre.matmul(&w1a);
        dx.add_assign(dy);
        dx
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
    /// Builds a fresh model of this shape (deterministic seed-0 init;
    /// callers load real parameters on top).
    pub fn build(&self) -> DenseModel {
        DenseModel::new(self.input, self.width, self.blocks, self.block_hidden, self.classes, 0)
    }
}

/// Width-scalable dense residual MLP.
pub struct DenseModel {
    stem_w: Tensor,
    stem_b: Tensor,
    dstem_w: Tensor,
    dstem_b: Tensor,
    blocks: Vec<ScalableBlock>,
    head_w: Tensor,
    head_b: Tensor,
    dhead_w: Tensor,
    dhead_b: Tensor,
    stem_cache: Option<(Tensor, Tensor)>, // (input, post-relu trunk)
    head_cache: Option<Tensor>,
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
        Self {
            stem_w: Init::KaimingNormal.weight(width, input, &mut rng),
            stem_b: Tensor::zeros(&[width]),
            dstem_w: Tensor::zeros(&[width, input]),
            dstem_b: Tensor::zeros(&[width]),
            blocks: (0..blocks).map(|_| ScalableBlock::new(width, block_hidden, &mut rng)).collect(),
            head_w: Init::XavierUniform.weight(classes, width, &mut rng),
            head_b: Tensor::zeros(&[classes]),
            dhead_w: Tensor::zeros(&[classes, width]),
            dhead_b: Tensor::zeros(&[classes]),
            stem_cache: None,
            head_cache: None,
            width_ratio: 1.0,
        }
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
        mask.extend(std::iter::repeat_n(true, self.stem_w.len() + self.stem_b.len()));
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
        mask.extend(std::iter::repeat_n(true, self.head_w.len() + self.head_b.len()));
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
        self.stem_w.len() + self.stem_b.len() + blocks + self.head_w.len() + self.head_b.len()
    }

    /// The model's static architecture (see [`DenseDims`]).
    pub fn dims(&self) -> DenseDims {
        DenseDims {
            input: self.stem_w.shape()[1],
            width: self.stem_w.shape()[0],
            blocks: self.blocks.len(),
            block_hidden: self.blocks.first().map_or(0, ScalableBlock::full_hidden),
            classes: self.head_w.shape()[0],
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

impl Layer for DenseModel {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        let pre = x.matmul_nt(&self.stem_w).add_row_broadcast(&self.stem_b);
        let trunk = pre.relu();
        self.stem_cache = Some((x.clone(), pre));
        let mut u = trunk;
        for b in &mut self.blocks {
            u = b.forward(&u);
        }
        self.head_cache = Some(u.clone());
        u.matmul_nt(&self.head_w).add_row_broadcast(&self.head_b)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let u = self.head_cache.as_ref().expect("backward before forward");
        self.dhead_w.add_assign(&grad.matmul_tn(u));
        self.dhead_b.add_assign(&grad.sum_rows());
        let mut du = grad.matmul(&self.head_w);
        for b in self.blocks.iter_mut().rev() {
            du = b.backward(&du);
        }
        let (x, pre) = self.stem_cache.as_ref().expect("backward before forward");
        // Through stem ReLU.
        let mut dpre = du;
        for (g, &p) in dpre.data_mut().iter_mut().zip(pre.data()) {
            if p <= 0.0 {
                *g = 0.0;
            }
        }
        self.dstem_w.add_assign(&dpre.matmul_tn(x));
        self.dstem_b.add_assign(&dpre.sum_rows());
        dpre.matmul(&self.stem_w)
    }

    fn visit_params<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Tensor, &'a mut Tensor)) {
        f(&mut self.stem_w, &mut self.dstem_w);
        f(&mut self.stem_b, &mut self.dstem_b);
        for b in &mut self.blocks {
            f(&mut b.w1, &mut b.dw1);
            f(&mut b.b1, &mut b.db1);
            f(&mut b.w2, &mut b.dw2);
            f(&mut b.b2, &mut b.db2);
        }
        f(&mut self.head_w, &mut self.dhead_w);
        f(&mut self.head_b, &mut self.dhead_b);
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Tensor)) {
        f(&self.stem_w);
        f(&self.stem_b);
        for b in &self.blocks {
            f(&b.w1);
            f(&b.b1);
            f(&b.w2);
            f(&b.b2);
        }
        f(&self.head_w);
        f(&self.head_b);
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

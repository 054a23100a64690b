//! The modularized cloud model (§4.1): stem → L module layers → head,
//! routed by the unified selector, with sub-model masking.

use crate::config::{ConvStemConfig, ModularConfig};
use crate::moe_layer::MoeLayer;
use crate::selector::UnifiedSelector;
use crate::submodel::SubModelSpec;
use nebula_nn::{Activation, Conv1d, Layer, Linear, MaxPool1d, Mode, Sequential};
use nebula_tensor::{NebulaRng, Tensor};
use std::sync::Mutex;

/// A modularized model.
///
/// Implements [`Layer`], so the generic training/eval helpers work on it
/// directly. Internals the framework relies on:
/// * [`ModularModel::set_submodel`] — restrict routing to a sub-model's
///   modules (deriving an edge model is *just this call*);
/// * [`ModularModel::gate_probs`] — deterministic per-layer gate
///   distributions, the basis of module importance (§5.1) and the
///   sub-task load matrix `H` (§4.3);
/// * per-module parameter access for module-wise aggregation (§5.2);
/// * the load-balancing loss is folded into `backward` with weight
///   `cfg.load_balance_weight`, so a plain cross-entropy training loop
///   trains exactly the paper's §4.3 objective.
///
/// A model need not hold every module: [`ModularModel::for_submodel`]
/// materialises only a sub-model's modules (what an edge device holds,
/// §5.1), and everything that walks parameters — `param_count`,
/// `param_vector`, `zero_grad`, gradient clipping, the optimiser — then
/// touches only those.
pub struct ModularModel {
    cfg: ModularConfig,
    /// Dense (`Linear → ReLU`) or convolutional
    /// (`Conv1d → ReLU → MaxPool1d → Linear → ReLU`) stem, per
    /// `cfg.conv_stem`.
    stem: Sequential,
    layers: Vec<MoeLayer>,
    head: Linear,
    selector: UnifiedSelector,
    /// Current per-layer module availability (sub-model restriction).
    masks: Vec<Vec<bool>>,
    /// KL-target distributions for gate fine-tuning (§4.3 step 3);
    /// when set, `backward` adds λ·KL(g_label ‖ gate) gradients.
    gate_kl_target: Option<(Vec<Tensor>, f32)>,
    /// Cached gate logits of the last forward (per layer).
    cached_logits: Vec<Tensor>,
}

impl ModularModel {
    /// Builds a freshly-initialised modularized model holding every module.
    pub fn new(cfg: ModularConfig, seed: u64) -> Self {
        cfg.validate();
        let mut rng = NebulaRng::seed(seed);
        let stem = build_stem(&cfg, Some(&mut rng));
        let layers: Vec<MoeLayer> = (0..cfg.num_layers)
            .map(|_| {
                MoeLayer::new(
                    cfg.width,
                    cfg.module_hidden,
                    cfg.modules_per_layer,
                    cfg.residual_module,
                    &mut rng,
                )
            })
            .collect();
        let head = Linear::new(cfg.width, cfg.classes, &mut rng);
        let selector = UnifiedSelector::new(
            cfg.input_dim,
            cfg.selector_embed,
            cfg.num_layers,
            cfg.modules_per_layer,
            cfg.gate_noise_std,
            &mut rng,
        );
        Self::assemble(cfg, stem, layers, head, selector)
    }

    /// Builds a model holding exactly `spec`'s modules plus the shared
    /// stem, head and selector, all parameters zero and ready to be
    /// loaded, routing restricted to `spec`. Draws nothing from an RNG, so
    /// it costs a few allocations rather than a full initialisation: this
    /// is how an edge client, a replica or a restored snapshot is built.
    pub fn for_submodel(cfg: ModularConfig, spec: &SubModelSpec) -> Self {
        cfg.validate();
        spec.validate(cfg.num_layers, cfg.modules_per_layer);
        let noise_rng = seed0_gate_noise_rng(&cfg);
        let stem = build_stem(&cfg, None);
        let layers: Vec<MoeLayer> = spec
            .layers()
            .iter()
            .map(|resident| {
                MoeLayer::zeros(
                    cfg.width,
                    cfg.module_hidden,
                    cfg.modules_per_layer,
                    cfg.residual_module,
                    resident,
                )
            })
            .collect();
        let head = Linear::zeros(cfg.width, cfg.classes);
        let selector = UnifiedSelector::zeros(
            cfg.input_dim,
            cfg.selector_embed,
            cfg.num_layers,
            cfg.modules_per_layer,
            cfg.gate_noise_std,
            noise_rng,
        );
        let mut model = Self::assemble(cfg, stem, layers, head, selector);
        model.masks = spec.to_masks(model.cfg.modules_per_layer);
        model
    }

    fn assemble(
        cfg: ModularConfig,
        stem: Sequential,
        layers: Vec<MoeLayer>,
        head: Linear,
        selector: UnifiedSelector,
    ) -> Self {
        let masks = vec![vec![true; cfg.modules_per_layer]; cfg.num_layers];
        Self { cfg, stem, layers, head, selector, masks, gate_kl_target: None, cached_logits: Vec::new() }
    }

    /// The model's configuration.
    pub fn config(&self) -> &ModularConfig {
        &self.cfg
    }

    /// Restricts routing to `spec`'s modules; `None` restores every module
    /// the model holds (the full model, unless it was built for a
    /// sub-model). Panics if `spec` names a module the model does not hold.
    pub fn set_submodel(&mut self, spec: Option<&SubModelSpec>) {
        match spec {
            Some(s) => {
                s.validate(self.cfg.num_layers, self.cfg.modules_per_layer);
                for (l, mods) in s.layers().iter().enumerate() {
                    for &i in mods {
                        assert!(
                            self.layers[l].is_resident(i),
                            "sub-model routes to module ({l}, {i}), which this model does not hold"
                        );
                    }
                }
                self.masks = s.to_masks(self.cfg.modules_per_layer);
            }
            None => self.masks = self.resident_submodel().to_masks(self.cfg.modules_per_layer),
        }
    }

    /// The modules this model holds.
    pub fn resident_submodel(&self) -> SubModelSpec {
        SubModelSpec::new(self.layers.iter().map(MoeLayer::resident).collect())
    }

    /// Makes the held modules exactly `spec` and routes to all of them:
    /// departed modules are dropped, arrived ones start all-zero (to be
    /// loaded), modules in both keep their parameters.
    pub fn set_resident(&mut self, spec: &SubModelSpec) {
        spec.validate(self.cfg.num_layers, self.cfg.modules_per_layer);
        for (layer, resident) in self.layers.iter_mut().zip(spec.layers()) {
            layer.set_resident(resident);
        }
        self.masks = spec.to_masks(self.cfg.modules_per_layer);
    }

    /// Sets per-layer gate KL targets (`g_label`, §4.3 step 3) applied on
    /// the next backward pass with weight `lambda`; `None` clears them.
    pub fn set_gate_kl_target(&mut self, targets: Option<(Vec<Tensor>, f32)>) {
        if let Some((t, _)) = &targets {
            assert_eq!(t.len(), self.cfg.num_layers, "KL target layer count mismatch");
        }
        self.gate_kl_target = targets;
    }

    /// Deterministic (noise-free, unmasked) gate probability distributions
    /// per layer for inputs `x`: the `g(x; θ)` of §4.2, used for module
    /// importance scoring and the sub-task load matrix.
    pub fn gate_probs(&mut self, x: &Tensor) -> Vec<Tensor> {
        self.selector.forward_deterministic(x).into_iter().map(|logits| logits.softmax_rows()).collect()
    }

    /// Per-layer, per-module mean gate probability over a batch — the
    /// paper's module importance `Importance(ω_i | D_k)` (§5.1).
    pub fn importance(&mut self, x: &Tensor) -> Vec<Vec<f32>> {
        self.gate_probs(x).into_iter().map(|p| p.mean_rows().into_vec()).collect()
    }

    /// Flat parameters of module `(layer, index)` (empty for the residual
    /// module).
    pub fn module_param_vector(&self, layer: usize, module: usize) -> Vec<f32> {
        self.layers[layer].module(module).param_vector()
    }

    /// Overwrites the parameters of module `(layer, index)`.
    pub fn load_module_param_vector(&mut self, layer: usize, module: usize, flat: &[f32]) {
        self.layers[layer].module_mut(module).load_param_vector(flat);
    }

    /// Parameter count of one module.
    pub fn module_param_count(&self, layer: usize, module: usize) -> usize {
        self.layers[layer].module(module).param_count()
    }

    /// Overwrites `out` with the flat parameters of module
    /// `(layer, index)`, reusing its allocation when it is large enough.
    pub fn write_module_param_vector(&self, layer: usize, module: usize, out: &mut Vec<f32>) {
        self.layers[layer].module(module).write_param_vector(out);
    }

    /// Flat parameters of the shared parts (stem + head + selector).
    pub fn shared_param_vector(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.write_shared_param_vector(&mut out);
        out
    }

    /// Overwrites `out` with the shared parts' flat parameters, reusing
    /// its allocation when it is large enough.
    pub fn write_shared_param_vector(&self, out: &mut Vec<f32>) {
        let mut count = 0;
        self.visit_shared_ref(&mut |p| count += p.len());
        out.clear();
        out.reserve(count);
        self.visit_shared_ref(&mut |p| out.extend_from_slice(p.data()));
    }

    /// The shared parts' parameters in vector order: stem, head, selector.
    fn visit_shared_ref(&self, f: &mut dyn FnMut(&Tensor)) {
        self.stem.visit_params_ref(f);
        self.head.visit_params_ref(f);
        self.selector.visit_params_ref(f);
    }

    /// Overwrites the shared parts from a flat vector.
    pub fn load_shared_param_vector(&mut self, flat: &[f32]) {
        let mut offset = 0;
        let mut load = |p: &mut Tensor| {
            let n = p.len();
            p.data_mut().copy_from_slice(&flat[offset..offset + n]);
            offset += n;
        };
        self.stem.visit_params(&mut |p, _| load(p));
        self.head.visit_params(&mut |p, _| load(p));
        self.selector.visit_params(&mut |p, _| load(p));
        assert_eq!(offset, flat.len(), "shared parameter vector length mismatch");
    }

    /// Deep copy: same architecture and held modules, identical
    /// parameters, fresh caches.
    pub fn deep_clone(&self) -> ModularModel {
        let mut clone = ModularModel::for_submodel(self.cfg.clone(), &self.resident_submodel());
        clone.load_param_vector(&self.param_vector());
        clone.masks = self.masks.clone();
        clone
    }

    /// Number of module layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Direct access to a module layer (tests, cost model).
    pub fn layer(&self, l: usize) -> &MoeLayer {
        &self.layers[l]
    }
}

/// The stem of `cfg`, Kaiming-initialised from `rng` or all-zero without
/// one.
fn build_stem(cfg: &ModularConfig, rng: Option<&mut NebulaRng>) -> Sequential {
    match &cfg.conv_stem {
        None => {
            let project = match rng {
                Some(rng) => Linear::new(cfg.input_dim, cfg.width, rng),
                None => Linear::zeros(cfg.input_dim, cfg.width),
            };
            Sequential::new().with(project).with(Activation::relu())
        }
        Some(cs) => {
            let pad = cs.kernel / 2;
            let (conv, project) = match rng {
                Some(rng) => (
                    Conv1d::new(cs.in_channels, cs.out_channels, cs.kernel, 1, pad, cs.in_len, rng),
                    Linear::new(cs.pooled_features(), cfg.width, rng),
                ),
                None => (
                    Conv1d::zeros(cs.in_channels, cs.out_channels, cs.kernel, 1, pad, cs.in_len),
                    Linear::zeros(cs.pooled_features(), cfg.width),
                ),
            };
            Sequential::new()
                .with(conv)
                .with(Activation::relu())
                .with(MaxPool1d::new(cs.out_channels, cs.in_len, cs.pool))
                .with(project)
                .with(Activation::relu())
        }
    }
}

/// The [`ModularConfig`] fields that size tensors, and therefore fix how
/// many draws [`ModularModel::new`] makes before it forks the selector's
/// gate-noise stream.
type ArchKey = ([usize; 7], bool, Option<ConvStemConfig>);

/// The gate-noise stream of `ModularModel::new(cfg, 0)`.
///
/// Every edge client, replica and restored snapshot used to be built as a
/// seed-0 model and then overwritten, so its noisy top-k drew from the
/// stream `UnifiedSelector::new` forks off the *tail of the seed-0 init
/// stream* — a constant per architecture. [`ModularModel::for_submodel`]
/// draws nothing, so it is handed that constant instead: obtained by
/// construction (one real seed-0 model per distinct architecture, on first
/// use) rather than by counting draws, which would silently go stale when
/// an initialiser changes. Sharing one noise stream across devices is a
/// known defect (ROADMAP item 3); this keeps it bit-identical until the
/// PR that re-keys it to the device RNG and re-blesses the pins.
fn seed0_gate_noise_rng(cfg: &ModularConfig) -> NebulaRng {
    static MEMO: Mutex<Vec<(ArchKey, NebulaRng)>> = Mutex::new(Vec::new());
    let key: ArchKey = (
        [
            cfg.input_dim,
            cfg.classes,
            cfg.width,
            cfg.num_layers,
            cfg.modules_per_layer,
            cfg.module_hidden,
            cfg.selector_embed,
        ],
        cfg.residual_module,
        cfg.conv_stem,
    );
    let mut memo = MEMO.lock().expect("a validated config cannot panic ModularModel::new under the lock");
    if let Some((_, rng)) = memo.iter().find(|(k, _)| *k == key) {
        return rng.clone();
    }
    let rng = ModularModel::new(cfg.clone(), 0).selector.noise_rng().clone();
    memo.push((key, rng.clone()));
    rng
}

impl Layer for ModularModel {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(x.cols(), self.cfg.input_dim, "input width mismatch");
        // Gate noise goes where the sub-model can observe it — unless a KL
        // target is set: that path of `backward` reads every logit.
        let noised = self.gate_kl_target.is_none().then_some(self.masks.as_slice());
        self.cached_logits = self.selector.forward(x, noised, mode);

        let mut u = self.stem.forward(x, mode);
        for ((layer, logits), mask) in self.layers.iter_mut().zip(&self.cached_logits).zip(&self.masks) {
            u = layer.forward(&u, logits, mask, self.cfg.top_k, mode);
        }
        self.head.forward(&u, mode)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mut du = self.head.backward(grad);
        // Per-layer gate gradients, last layer first until reversed.
        let mut dlogits: Vec<Tensor> = Vec::with_capacity(self.layers.len());
        for layer in self.layers.iter_mut().rev() {
            let (dx, dl) = layer.backward(&du);
            dlogits.push(dl);
            du = dx;
        }
        dlogits.reverse();
        let mut dx = self.stem.backward(&du);

        // Assemble selector gradients: task path + load-balancing path
        // (+ optional KL-to-recommended-gate path during fine-tuning).
        let lambda = self.cfg.load_balance_weight;
        for (l, (layer, dl)) in self.layers.iter().zip(&mut dlogits).enumerate() {
            if lambda > 0.0 {
                layer.add_load_balance_logit_grad(lambda, dl);
            }
            if let Some((targets, kl_w)) = &self.gate_kl_target {
                // ∂KL(t ‖ softmax(logits))/∂logits = softmax(logits) − t,
                // averaged over the batch.
                let probs = self.cached_logits[l].softmax_rows();
                let mut kl_grad = probs.sub(&targets[l]);
                kl_grad.scale_assign(kl_w / grad.rows().max(1) as f32);
                dl.add_assign(&kl_grad);
            }
        }
        dx.add_assign(&self.selector.backward(&dlogits));
        dx
    }

    fn visit_params<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Tensor, &'a mut Tensor)) {
        self.stem.visit_params(f);
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
        self.head.visit_params(f);
        self.selector.visit_params(f);
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Tensor)) {
        self.stem.visit_params_ref(f);
        for layer in &self.layers {
            layer.visit_params_ref(f);
        }
        self.head.visit_params_ref(f);
        self.selector.visit_params_ref(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModularConfig;

    fn model() -> ModularModel {
        let mut cfg = ModularConfig::toy(12, 5);
        cfg.gate_noise_std = 0.0; // deterministic for most tests
        ModularModel::new(cfg, 7)
    }

    #[test]
    fn forward_shapes() {
        let mut m = model();
        let x = Tensor::ones(&[6, 12]);
        let y = m.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[6, 5]);
        assert!(y.all_finite());
    }

    #[test]
    fn full_model_gradcheck() {
        let mut cfg = ModularConfig::toy(6, 3);
        cfg.gate_noise_std = 0.0;
        cfg.load_balance_weight = 0.0; // LB loads are non-differentiable
        cfg.width = 8;
        cfg.module_hidden = 4;
        cfg.modules_per_layer = 3;
        cfg.top_k = 3; // k = N avoids top-k set flips under perturbation
        cfg.selector_embed = 6;
        let m = ModularModel::new(cfg, 3);
        // Small eps keeps the probe on one side of the ReLU kinks.
        nebula_nn::gradcheck::check_layer_gradients_with(Box::new(m), 6, 2, 21, 2e-3, 5e-2);
    }

    #[test]
    fn submodel_masking_changes_output() {
        let mut m = model();
        let x = Tensor::ones(&[4, 12]);
        let full = m.forward(&x, Mode::Eval);
        let spec = SubModelSpec::new(vec![vec![0], vec![0]]);
        m.set_submodel(Some(&spec));
        let masked = m.forward(&x, Mode::Eval);
        assert_ne!(full.data(), masked.data());
        m.set_submodel(None);
        let restored = m.forward(&x, Mode::Eval);
        nebula_tensor::assert_tensor_close(&restored, &full, 1e-6);
    }

    #[test]
    fn gate_probs_rows_sum_to_one() {
        let mut m = model();
        let x = Tensor::ones(&[3, 12]);
        for p in m.gate_probs(&x) {
            for b in 0..3 {
                nebula_tensor::assert_close(p.row(b).iter().sum::<f32>(), 1.0, 1e-5);
            }
        }
    }

    #[test]
    fn importance_is_a_distribution_per_layer() {
        let mut m = model();
        let x = Tensor::ones(&[8, 12]);
        let imp = m.importance(&x);
        assert_eq!(imp.len(), 2);
        for layer_imp in &imp {
            assert_eq!(layer_imp.len(), 4);
            nebula_tensor::assert_close(layer_imp.iter().sum::<f32>(), 1.0, 1e-4);
        }
    }

    #[test]
    fn module_param_roundtrip() {
        let mut m = model();
        let v = m.module_param_vector(0, 1);
        assert!(!v.is_empty());
        let doubled: Vec<f32> = v.iter().map(|x| x * 2.0).collect();
        m.load_module_param_vector(0, 1, &doubled);
        assert_eq!(m.module_param_vector(0, 1), doubled);
        // Residual module (last index with residual_module=true) is empty.
        assert!(m.module_param_vector(0, 3).is_empty());
    }

    #[test]
    fn shared_param_roundtrip() {
        let mut m = model();
        let v = m.shared_param_vector();
        let zeros = vec![0.0; v.len()];
        m.load_shared_param_vector(&zeros);
        assert!(m.shared_param_vector().iter().all(|&p| p == 0.0));
    }

    #[test]
    fn deep_clone_matches_outputs() {
        let mut m = model();
        let mut c = m.deep_clone();
        let x = Tensor::ones(&[2, 12]);
        let a = m.forward(&x, Mode::Eval);
        let b = c.forward(&x, Mode::Eval);
        nebula_tensor::assert_tensor_close(&a, &b, 1e-6);
    }

    #[test]
    fn training_reduces_loss_on_toy_task() {
        use nebula_data::{train_epochs, SynthSpec, Synthesizer, TrainConfig};
        use nebula_nn::{Optimizer, Sgd};

        let synth = Synthesizer::new(SynthSpec::toy(), 1);
        let mut rng = NebulaRng::seed(2);
        let train = synth.sample(300, 0, &mut rng);
        let test = synth.sample(150, 0, &mut rng);

        let mut cfg = ModularConfig::toy(16, 4);
        cfg.gate_noise_std = 0.3;
        let mut m = ModularModel::new(cfg, 5);
        let before = nebula_data::evaluate_accuracy(&mut m, &test, 64);
        let mut opt: Box<dyn Optimizer> = Box::new(Sgd::with_momentum(0.05, 0.9));
        let cfg_t = TrainConfig { epochs: 12, batch_size: 16, clip_norm: Some(5.0) };
        train_epochs(&mut m, opt.as_mut(), &train, cfg_t, &mut rng);
        let after = nebula_data::evaluate_accuracy(&mut m, &test, 64);
        assert!(after > before + 0.2, "modular model failed to learn: {before} -> {after}");
        assert!(after > 0.6, "accuracy only {after}");
    }

    #[test]
    fn kl_target_moves_gate_toward_recommendation() {
        use nebula_nn::{cross_entropy, Optimizer, Sgd};

        let mut cfg = ModularConfig::toy(12, 5);
        cfg.gate_noise_std = 0.0;
        let mut m = ModularModel::new(cfg, 9);
        let mut rng = NebulaRng::seed(3);
        let x = Tensor::from_vec((0..16 * 12).map(|_| rng.normal_f32(0.0, 1.0)).collect(), &[16, 12]);
        let labels: Vec<usize> = (0..16).map(|i| i % 5).collect();

        // Recommend module 2 for everything in layer 0, module 0 in layer 1.
        let mut t0 = Tensor::zeros(&[16, 4]);
        let mut t1 = Tensor::zeros(&[16, 4]);
        for b in 0..16 {
            t0.row_mut(b)[2] = 1.0;
            t1.row_mut(b)[0] = 1.0;
        }
        let before = m.gate_probs(&x)[0].mean_rows().data()[2];
        let mut opt = Sgd::new(0.1);
        for _ in 0..60 {
            m.zero_grad();
            m.set_gate_kl_target(Some((vec![t0.clone(), t1.clone()], 2.0)));
            let logits = m.forward(&x, Mode::Train);
            let (_, grad) = cross_entropy(&logits, &labels);
            m.backward(&grad);
            m.clip_grad_norm(5.0);
            opt.step(&mut m);
        }
        m.set_gate_kl_target(None);
        let after = m.gate_probs(&x)[0].mean_rows().data()[2];
        assert!(after > before + 0.1, "gate did not follow KL target: {before} -> {after}");
    }

    #[test]
    fn conv_stem_model_works_end_to_end() {
        use crate::config::ConvStemConfig;
        let mut cfg = ModularConfig::toy(16, 4); // 16 = 2 channels × 8 samples
        cfg.gate_noise_std = 0.0;
        cfg.conv_stem =
            Some(ConvStemConfig { in_channels: 2, in_len: 8, out_channels: 4, kernel: 3, pool: 2 });
        let mut m = ModularModel::new(cfg.clone(), 5);
        let x = Tensor::ones(&[3, 16]);
        let y = m.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[3, 4]);
        assert!(y.all_finite());

        // Trainable end to end.
        m.zero_grad();
        let y = m.forward(&x, Mode::Train);
        let dx = m.backward(&Tensor::ones(y.shape()));
        assert!(dx.all_finite());

        // deep_clone reconstructs the conv stem from the config.
        let mut c = m.deep_clone();
        nebula_tensor::assert_tensor_close(&m.forward(&x, Mode::Eval), &c.forward(&x, Mode::Eval), 1e-6);

        // Cost model's shared() matches the actual shared parameter count.
        let cm = crate::cost::CostModel::new(cfg);
        let shared_expected = cm.shared().params as usize;
        assert_eq!(m.shared_param_vector().len(), shared_expected);
    }

    #[test]
    fn conv_stem_gradcheck() {
        use crate::config::ConvStemConfig;
        let mut cfg = ModularConfig::toy(12, 3);
        cfg.gate_noise_std = 0.0;
        cfg.load_balance_weight = 0.0;
        cfg.width = 8;
        cfg.module_hidden = 4;
        cfg.modules_per_layer = 3;
        cfg.top_k = 3;
        cfg.selector_embed = 6;
        cfg.conv_stem =
            Some(ConvStemConfig { in_channels: 2, in_len: 6, out_channels: 3, kernel: 3, pool: 2 });
        let m = ModularModel::new(cfg, 3);
        nebula_nn::gradcheck::check_layer_gradients_with(Box::new(m), 12, 2, 32, 1e-3, 6e-2);
    }
}

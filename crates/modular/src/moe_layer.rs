//! A module layer: N substitutable modules combined per sample by the
//! selector's gate scores (§4.1–§4.2).
//!
//! Per sample, the top-k allowed modules are activated and their outputs
//! combined by a weighted sum, with weights softmax-renormalised over the
//! active set so sub-models of any size keep a stable output scale:
//!
//! ```text
//! f(x; ω) = Σ_{i∈A} softmax(logits_A)_i · f_i(x; ω_i),  A = Top-k(logits)
//! ```
//!
//! Routing is *per sample*: each module runs once on the sub-batch of rows
//! that selected it (sparse MoE execution), which is also what makes the
//! layer's compute proportional to `k`, not `N`.
//!
//! ## What a sub-model cannot observe is not computed
//!
//! A sub-model's mask sets the logit of every module it lacks to −∞, and
//! everything downstream of such a logit is exact: it never enters top-k,
//! `exp(−∞ − max)` is exactly `+0.0`, adding `+0.0` to the softmax's
//! (≥ 1) denominator changes no bit, `0.0 / sum` is `+0.0`, so its
//! probability, its combination weight, its load and both its gradients
//! are `+0.0` whatever the logit was. The forward therefore takes the
//! softmax's max and `exp` over allowed entries only and *writes* `0.0`
//! for the rest (24 → 10 `exp` calls per row at 6 of 16 modules), the
//! active-set softmax keeps each top-k `exp` from the denominator loop
//! for the weight that divides it, and the selector does not draw the
//! noise of a masked-out logit (see `selector.rs`). Logits are assumed
//! finite, as the sanitize gate guarantees of every parameter that
//! produces them.
//!
//! ## Who owns which cache
//!
//! Between a Train forward and its backward, a routed module's input rows
//! and hidden activation live in that module's two `Linear` input caches
//! (see `module.rs`); its *output* lives here, in `LayerCache::outputs`,
//! because only the gate gradient `dw[b,i] = ⟨f_i(x_b), dy_b⟩` reads it.
//! Temporaries that are overwritten in full (a module's output, the
//! per-module gradient `w·dy`, the hidden gradient, `dx_i`) come from the
//! layer's [`Workspace`] unfilled; only what is accumulated into (`y`,
//! `dx`, the weights and `dw` matrices) is zeroed first.

use crate::module::Module;
use nebula_nn::{Mode, Workspace};
use nebula_tensor::reduce::top_k_indices_into;
use nebula_tensor::{NebulaRng, Tensor};

/// One module layer of a modularized model.
pub struct MoeLayer {
    /// One slot per module index. `None` is a module this model does not
    /// hold: an edge client materialises only its installed sub-model, so
    /// an absent slot owns no weights, gradients or scratch and is skipped
    /// by the parameter visitors.
    modules: Vec<Option<Module>>,
    width: usize,
    hidden: usize,
    residual_module: bool,
    cache: Option<LayerCache>,
    ws: Workspace,
    /// Per-row gate scratch (masked logits, then their softmax), reused
    /// across forwards so routing never touches the allocator.
    gate_row: Vec<f32>,
    /// Top-k selection scratch.
    topk: Vec<usize>,
    /// `exp(logit − max)` of each top-k entry, in `topk`'s order.
    topk_exp: Vec<f32>,
}

struct LayerCache {
    /// Number of modules the sub-model mask allowed.
    n_allowed: usize,
    /// Post-top-k, renormalised combination weights (B×N; 0 = inactive).
    weights: Tensor,
    /// Row indices routed to each module.
    rows_per_module: Vec<Vec<usize>>,
    /// Each module's output on its routed rows, for the gate gradient:
    /// kept by Train forwards only, like `probs`.
    outputs: Vec<Option<Tensor>>,
    /// Full softmax over allowed modules (B×N), pre-top-k. Only the
    /// load-balancing *gradient* needs the full matrix, so it is kept in
    /// Train mode only; eval forwards skip the B×N materialisation.
    probs: Option<Tensor>,
    /// Column means of the full softmax (length N) — everything the
    /// load-balancing *loss* needs, computed on the fly in both modes.
    mean_probs: Vec<f32>,
    /// Fraction of the batch routed to each module.
    loads: Vec<f32>,
}

impl MoeLayer {
    /// Builds a layer of `n_modules` modules over trunk width `width`.
    /// When `residual_module` is set, the last module is the bypass.
    pub fn new(
        width: usize,
        hidden: usize,
        n_modules: usize,
        residual_module: bool,
        rng: &mut NebulaRng,
    ) -> Self {
        assert!(n_modules >= 1);
        let mut modules = Vec::with_capacity(n_modules);
        let shrunk_count = if residual_module { n_modules - 1 } else { n_modules };
        for _ in 0..shrunk_count {
            modules.push(Some(Module::shrunk(width, hidden, rng)));
        }
        if residual_module {
            modules.push(Some(Module::residual()));
        }
        Self::with_slots(modules, width, hidden, residual_module)
    }

    /// Builds the same layer shape without an RNG, holding only the
    /// modules in `resident` (all-zero parameters, to be loaded).
    pub fn zeros(
        width: usize,
        hidden: usize,
        n_modules: usize,
        residual_module: bool,
        resident: &[usize],
    ) -> Self {
        assert!(n_modules >= 1);
        let mut layer =
            Self::with_slots((0..n_modules).map(|_| None).collect(), width, hidden, residual_module);
        layer.set_resident(resident);
        layer
    }

    fn with_slots(modules: Vec<Option<Module>>, width: usize, hidden: usize, residual_module: bool) -> Self {
        Self {
            modules,
            width,
            hidden,
            residual_module,
            cache: None,
            ws: Workspace::new(),
            gate_row: Vec::new(),
            topk: Vec::new(),
            topk_exp: Vec::new(),
        }
    }

    /// Makes the held modules exactly `resident`: departed modules are
    /// dropped with their buffers, arrived ones start all-zero, modules in
    /// both keep their parameters.
    pub fn set_resident(&mut self, resident: &[usize]) {
        let n = self.modules.len();
        for &i in resident {
            assert!(i < n, "module index {i} out of range");
        }
        for i in 0..n {
            match (self.modules[i].is_some(), resident.contains(&i)) {
                (true, false) => self.modules[i] = None,
                (false, true) => {
                    let bypass = self.residual_module && i == n - 1;
                    self.modules[i] = Some(if bypass {
                        Module::residual()
                    } else {
                        Module::zeros(self.width, self.hidden)
                    });
                }
                _ => {}
            }
        }
    }

    /// Whether module `i` is held by this model.
    pub fn is_resident(&self, i: usize) -> bool {
        self.modules[i].is_some()
    }

    /// Indices of the modules this model holds, ascending.
    pub fn resident(&self) -> Vec<usize> {
        (0..self.modules.len()).filter(|&i| self.is_resident(i)).collect()
    }

    /// Trunk width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Access a module (for cost models and tests). Panics on a module
    /// this model does not hold.
    pub fn module(&self, i: usize) -> &Module {
        self.modules[i].as_ref().unwrap_or_else(|| panic!("module {i} is not resident"))
    }

    /// Mutable module access (for aggregation and parameter loading).
    pub fn module_mut(&mut self, i: usize) -> &mut Module {
        self.modules[i].as_mut().unwrap_or_else(|| panic!("module {i} is not resident"))
    }

    /// Forward pass.
    ///
    /// * `x` — layer input (B×width);
    /// * `logits` — this layer's gate logits (B×N) from the unified selector;
    /// * `allowed` — module availability mask (sub-model restriction);
    /// * `k` — modules to activate per sample (clamped to the allowed count).
    pub fn forward(&mut self, x: &Tensor, logits: &Tensor, allowed: &[bool], k: usize, mode: Mode) -> Tensor {
        let n = self.modules.len();
        assert_eq!(logits.cols(), n, "gate width != module count");
        assert_eq!(logits.rows(), x.rows(), "gate batch != input batch");
        assert_eq!(allowed.len(), n, "allowed mask length mismatch");
        assert_eq!(x.cols(), self.width, "layer input width mismatch");
        let n_allowed = allowed.iter().filter(|&&a| a).count();
        assert!(n_allowed >= 1, "sub-model leaves no module in a layer");
        let k = k.max(1).min(n_allowed);
        let batch = x.rows();
        // Only the backward pass needs the full B×N softmax matrix (the
        // load-balance logit gradient) and the modules' outputs (the gate
        // gradient); eval forwards keep just the matrix's column means.
        let train = mode == Mode::Train;

        // Recycle the previous forward's cache buffers so steady-state
        // routing performs no heap allocation.
        let (mut weights, mut rows_per_module, mut outputs, mut probs, mut mean_probs, mut loads) =
            match self.cache.take() {
                Some(mut old) => {
                    for o in old.outputs.drain(..).flatten() {
                        self.ws.recycle(o);
                    }
                    let weights = if old.weights.shape() == [batch, n] {
                        let mut w = old.weights;
                        w.zero_();
                        w
                    } else {
                        self.ws.recycle(old.weights);
                        self.ws.zeroed(&[batch, n])
                    };
                    let mut rpm = old.rows_per_module;
                    for v in &mut rpm {
                        v.clear();
                    }
                    let probs = match old.probs {
                        Some(p) if train && p.shape() == [batch, n] => Some(p),
                        Some(p) => {
                            self.ws.recycle(p);
                            if train {
                                Some(self.ws.zeroed(&[batch, n]))
                            } else {
                                None
                            }
                        }
                        None => {
                            if train {
                                Some(self.ws.zeroed(&[batch, n]))
                            } else {
                                None
                            }
                        }
                    };
                    (weights, rpm, old.outputs, probs, old.mean_probs, old.loads)
                }
                None => (
                    Tensor::zeros(&[batch, n]),
                    vec![Vec::new(); n],
                    Vec::with_capacity(n),
                    if train { Some(Tensor::zeros(&[batch, n])) } else { None },
                    Vec::new(),
                    Vec::new(),
                ),
            };
        mean_probs.clear();
        mean_probs.resize(n, 0.0);

        // Per-sample masking, top-k routing, renormalised weights and the
        // full-softmax statistics — one reused scratch row, no clones.
        self.gate_row.clear();
        self.gate_row.resize(n, 0.0);
        for b in 0..batch {
            self.gate_row.copy_from_slice(logits.row(b));
            for (v, &a) in self.gate_row.iter_mut().zip(allowed) {
                if !a {
                    *v = f32::NEG_INFINITY;
                }
            }
            // Top-k over the *masked logits* (pre-softmax), exactly as the
            // previous full-materialisation path selected.
            top_k_indices_into(&self.gate_row, k, &mut self.topk);
            // Softmax over the active logits only; each `exp` is taken
            // once and serves the denominator and its own weight.
            let maxv = self.topk.iter().map(|&i| self.gate_row[i]).fold(f32::NEG_INFINITY, f32::max);
            self.topk_exp.clear();
            self.topk_exp.extend(self.topk.iter().map(|&i| (self.gate_row[i] - maxv).exp()));
            let mut denom = 0.0f32;
            for &e in &self.topk_exp {
                denom += e;
            }
            for (&i, &e) in self.topk.iter().zip(&self.topk_exp) {
                weights.row_mut(b)[i] = e / denom;
                rows_per_module[i].push(b);
            }
            // Full softmax over allowed modules, accumulated into column
            // sums (row order matches `Tensor::mean_rows` bit-for-bit).
            softmax_over_allowed(&mut self.gate_row, allowed);
            for (s, &p) in mean_probs.iter_mut().zip(self.gate_row.iter()) {
                *s += p;
            }
            if let Some(p) = probs.as_mut() {
                p.row_mut(b).copy_from_slice(&self.gate_row);
            }
        }
        let r = batch as f32;
        if r > 0.0 {
            for s in &mut mean_probs {
                *s *= 1.0 / r;
            }
        }

        // Run each module on its routed rows and scatter the weighted sum.
        let mut y = Tensor::zeros(&[batch, self.width]);
        for (i, slot) in self.modules.iter_mut().enumerate() {
            let rows = &rows_per_module[i];
            if rows.is_empty() {
                outputs.push(None);
                continue;
            }
            let module = slot.as_mut().expect("routed to a module this model does not hold");
            let oi = module.forward(x, rows, mode, &mut self.ws);
            for (j, &b) in rows.iter().enumerate() {
                let w = weights.at(b, i);
                let orow = oi.row(j);
                for (yv, &ov) in y.row_mut(b).iter_mut().zip(orow) {
                    *yv += w * ov;
                }
            }
            // An eval forward hands the output's buffer straight back, so
            // a model that is only evaluated holds one at a time.
            if train {
                outputs.push(Some(oi));
            } else {
                self.ws.recycle(oi);
                outputs.push(None);
            }
        }

        loads.clear();
        loads.extend((0..n).map(|i| rows_per_module[i].len() as f32 / batch.max(1) as f32));
        self.cache =
            Some(LayerCache { n_allowed, weights, rows_per_module, outputs, probs, mean_probs, loads });
        y
    }

    /// Backward pass: returns `(∂loss/∂x, ∂loss/∂logits)`; accumulates
    /// module parameter gradients. The forward before it must have run in
    /// `Mode::Train`.
    ///
    /// The gate gradient covers the differentiable path through the active
    /// set's renormalised softmax; the discrete top-k selection itself is
    /// treated as constant (straight-through, as in sparsely-gated MoE).
    pub fn backward(&mut self, dy: &Tensor) -> (Tensor, Tensor) {
        let cache = self.cache.as_ref().expect("MoeLayer::backward before forward");
        let batch = dy.rows();
        let n = self.modules.len();
        assert_eq!(dy.cols(), self.width, "dy width mismatch");

        // Per routed module: the gate-gradient dots dw[b,i] = ⟨f_i(x_b), dy_b⟩,
        // the gradient into the module w[b,i] · dy[b], then the module's
        // parameter gradients and its dx.
        let mut dw = self.ws.zeroed(&[batch, n]);
        let mut dx = Tensor::zeros(&[batch, self.width]);
        for (i, slot) in self.modules.iter_mut().enumerate() {
            let rows = &cache.rows_per_module[i];
            if rows.is_empty() {
                continue;
            }
            let module = slot.as_mut().expect("routed to a module this model does not hold");
            let oi = cache.outputs[i].as_ref().expect("MoeLayer::backward requires a Train-mode forward");
            gate_dots(oi, dy, rows, i, &mut dw);
            let mut gi = self.ws.scratch(&[rows.len(), self.width]);
            for (j, &b) in rows.iter().enumerate() {
                let w = cache.weights.at(b, i);
                for (gv, &dv) in gi.row_mut(j).iter_mut().zip(dy.row(b)) {
                    *gv = w * dv;
                }
            }
            let dxi = module.backward(&gi, &mut self.ws);
            self.ws.recycle(gi);
            for (j, &b) in rows.iter().enumerate() {
                for (xv, &dv) in dx.row_mut(b).iter_mut().zip(dxi.row(j)) {
                    *xv += dv;
                }
            }
            self.ws.recycle(dxi);
        }

        // Gate gradient through the active-set softmax:
        // dlogit[b,j] = w_bj (dw_bj − Σ_i w_bi dw_bi).
        let mut dlogits = Tensor::zeros(&[batch, n]);
        for b in 0..batch {
            let wrow = cache.weights.row(b);
            let dwrow = dw.row(b);
            let s: f32 = wrow.iter().zip(dwrow).map(|(&w, &d)| w * d).sum();
            for j in 0..n {
                let w = wrow[j];
                if w > 0.0 {
                    dlogits.row_mut(b)[j] = w * (dwrow[j] - s);
                }
            }
        }
        self.ws.recycle(dw);

        (dx, dlogits)
    }

    /// Load-balancing statistics from the last forward:
    /// `(full probs B×N over allowed — Train forwards only, per-module
    /// batch loads)`.
    pub fn lb_stats(&self) -> (Option<&Tensor>, &[f32]) {
        let cache = self.cache.as_ref().expect("lb_stats before forward");
        (cache.probs.as_ref(), &cache.loads)
    }

    /// Column means of the full softmax from the last forward (length N).
    pub fn mean_probs(&self) -> &[f32] {
        &self.cache.as_ref().expect("mean_probs before forward").mean_probs
    }

    /// The switch-style load-balancing loss of the last forward:
    /// `N_allowed · Σ_i load_i · mean_prob_i`, where `N_allowed` counts the
    /// modules the current sub-model mask permits (disallowed modules carry
    /// zero probability and zero load, so they contribute nothing to the
    /// sum — but they must not inflate the scale factor either).
    pub fn load_balance_loss(&self) -> f32 {
        let cache = self.cache.as_ref().expect("lb loss before forward");
        cache.n_allowed as f32 * cache.loads.iter().zip(&cache.mean_probs).map(|(&l, &p)| l * p).sum::<f32>()
    }

    /// Adds the gradient of λ·load_balance_loss w.r.t. this layer's gate
    /// logits, computed from the cached full-softmax probabilities, to
    /// `dlogits` (B×N).
    pub fn add_load_balance_logit_grad(&self, lambda: f32, dlogits: &mut Tensor) {
        let cache = self.cache.as_ref().expect("lb grad before forward");
        let probs = cache
            .probs
            .as_ref()
            .expect("load_balance_logit_grad requires a Train-mode forward (probs not kept in eval)");
        assert_eq!(dlogits.shape(), probs.shape(), "lb grad shape mismatch");
        let batch = probs.rows();
        // dL/dprob[b,i] = λ · N_allowed · load_i / B (loads constant).
        let coeff = lambda * cache.n_allowed as f32 / batch.max(1) as f32;
        for b in 0..batch {
            let prow = probs.row(b);
            // Softmax jacobian: dlogit_j = p_j (g_j − Σ_i p_i g_i).
            let mut inner = 0.0f32;
            for (p, load) in prow.iter().zip(&cache.loads) {
                inner += p * (coeff * load);
            }
            for ((d, p), load) in dlogits.row_mut(b).iter_mut().zip(prow).zip(&cache.loads) {
                *d += p * (coeff * load - inner);
            }
        }
    }

    /// Visits `(param, grad)` pairs of every held module, in module order.
    pub fn visit_params<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Tensor, &'a mut Tensor)) {
        for m in self.modules.iter_mut().flatten() {
            m.visit_params(f);
        }
    }

    /// Visits parameters immutably.
    pub fn visit_params_ref(&self, f: &mut dyn FnMut(&Tensor)) {
        for m in self.modules.iter().flatten() {
            m.visit_params_ref(f);
        }
    }
}

/// Softmax of `row` over the entries `allowed` marks, `+0.0` elsewhere:
/// the bits of `softmax_in_place` on the row with every other entry set
/// to −∞ (whose `exp` is exactly `+0.0` and adds nothing to the sum),
/// without computing those `exp`s. At least one entry is allowed.
fn softmax_over_allowed(row: &mut [f32], allowed: &[bool]) {
    let mut max = f32::NEG_INFINITY;
    for (&v, &a) in row.iter().zip(allowed) {
        if a {
            max = max.max(v);
        }
    }
    let mut sum = 0.0f32;
    for (v, &a) in row.iter_mut().zip(allowed) {
        *v = if a { (*v - max).exp() } else { 0.0 };
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// How many rows' dot products [`gate_dots`] advances together.
const DOT_ROWS: usize = 4;

/// For module `i` and each of its routed rows `rows[j] = b`:
/// `dw[b,i] = ⟨o[j], dy[b]⟩`.
///
/// Each dot is one accumulator from `0.0`, columns ascending, multiply
/// then add — one chain of dependent adds, each waiting out the adder's
/// latency. Four (`DOT_ROWS`) rows' chains advance in one loop so their
/// adds overlap (the `reduce::sum_sq_each` idea); no chain is split or
/// reassociated, so every dot has the bits of the one-row loop, which
/// also finishes the `rows.len() % 4` rows left over.
fn gate_dots(o: &Tensor, dy: &Tensor, rows: &[usize], i: usize, dw: &mut Tensor) {
    let width = dy.cols();
    let quads = rows.chunks_exact(DOT_ROWS);
    let leftover = quads.remainder();
    let mut o_rows = o.data().chunks_exact(width);
    for quad in quads {
        // Every slice is `width` long, which lets the bounds checks leave
        // the column loop.
        let d: [&[f32]; DOT_ROWS] = std::array::from_fn(|t| &dy.row(quad[t])[..width]);
        let o4: [&[f32]; DOT_ROWS] =
            std::array::from_fn(|_| o_rows.next().expect("one output row per routed row"));
        let mut acc = [0.0f32; DOT_ROWS];
        for c in 0..width {
            for t in 0..DOT_ROWS {
                acc[t] += o4[t][c] * d[t][c];
            }
        }
        for (&b, a) in quad.iter().zip(acc) {
            *dw.at_mut(b, i) = a;
        }
    }
    for (&b, ov) in leftover.iter().zip(o_rows) {
        let mut acc = 0.0f32;
        for (&ov, &dv) in ov.iter().zip(dy.row(b)) {
            acc += ov * dv;
        }
        *dw.at_mut(b, i) = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(n: usize, residual: bool) -> MoeLayer {
        let mut rng = NebulaRng::seed(1);
        MoeLayer::new(6, 3, n, residual, &mut rng)
    }

    fn uniform_logits(batch: usize, n: usize) -> Tensor {
        Tensor::zeros(&[batch, n])
    }

    #[test]
    fn forward_shape_and_finiteness() {
        let mut l = layer(4, true);
        let x = Tensor::ones(&[3, 6]);
        let logits = uniform_logits(3, 4);
        let y = l.forward(&x, &logits, &[true; 4], 2, Mode::Eval);
        assert_eq!(y.shape(), &[3, 6]);
        assert!(y.all_finite());
    }

    #[test]
    fn single_module_full_weight() {
        // With k=1 and one module strongly preferred, output == module output.
        let mut l = layer(3, false);
        let x = Tensor::ones(&[2, 6]);
        let logits = Tensor::matrix(&[&[10.0, 0.0, 0.0], &[10.0, 0.0, 0.0]]);
        let y = l.forward(&x, &logits, &[true; 3], 1, Mode::Eval);
        let direct = l.module_mut(0).forward(&x, &[0, 1], Mode::Eval, &mut Workspace::new());
        nebula_tensor::assert_tensor_close(&y, &direct, 1e-5);
    }

    #[test]
    fn disallowed_modules_are_never_routed() {
        let mut l = layer(4, false);
        let x = Tensor::ones(&[8, 6]);
        // Module 0 has huge logits but is disallowed.
        let mut logits = Tensor::zeros(&[8, 4]);
        for b in 0..8 {
            logits.row_mut(b)[0] = 100.0;
        }
        let allowed = [false, true, true, true];
        l.forward(&x, &logits, &allowed, 2, Mode::Eval);
        let (_, loads) = l.lb_stats();
        assert_eq!(loads[0], 0.0, "disallowed module got traffic");
    }

    #[test]
    fn weights_renormalise_over_active_set() {
        let mut l = layer(4, false);
        let x = Tensor::ones(&[1, 6]);
        let logits = Tensor::matrix(&[&[1.0, 0.5, -3.0, -3.0]]);
        l.forward(&x, &logits, &[true; 4], 2, Mode::Eval);
        let cache = l.cache.as_ref().unwrap();
        let wsum: f32 = cache.weights.row(0).iter().sum();
        nebula_tensor::assert_close(wsum, 1.0, 1e-5);
    }

    #[test]
    fn k_clamps_to_allowed_count() {
        let mut l = layer(4, false);
        let x = Tensor::ones(&[2, 6]);
        let logits = uniform_logits(2, 4);
        // Only one module allowed; k=3 must degrade gracefully.
        let allowed = [false, true, false, false];
        let y = l.forward(&x, &logits, &allowed, 3, Mode::Eval);
        assert!(y.all_finite());
        let (_, loads) = l.lb_stats();
        assert_eq!(loads[1], 1.0);
    }

    #[test]
    #[should_panic(expected = "no module")]
    fn rejects_empty_allowed_set() {
        let mut l = layer(2, false);
        let x = Tensor::ones(&[1, 6]);
        let logits = uniform_logits(1, 2);
        l.forward(&x, &logits, &[false, false], 1, Mode::Eval);
    }

    #[test]
    fn absent_slots_hold_nothing_and_set_resident_keeps_what_stays() {
        // 4 slots over width 6 / hidden 3, slot 3 is the bypass.
        let per_module = 6 * 3 + 3 + 3 * 6 + 6;
        let mut l = MoeLayer::zeros(6, 3, 4, true, &[1, 3]);
        assert_eq!(l.resident(), vec![1, 3]);
        assert!(l.module(3).is_residual());
        let count = |l: &MoeLayer| {
            let mut n = 0;
            l.visit_params_ref(&mut |p| n += p.len());
            n
        };
        assert_eq!(count(&l), per_module, "only module 1 carries parameters");

        let marked: Vec<f32> = (0..per_module).map(|i| i as f32 + 1.0).collect();
        l.module_mut(1).load_param_vector(&marked);
        l.set_resident(&[0, 1]);
        assert_eq!(l.resident(), vec![0, 1]);
        assert_eq!(l.module(1).param_vector(), marked, "a module in both sets keeps its parameters");
        assert!(l.module(0).param_vector().iter().all(|&p| p == 0.0), "an arrived module starts at zero");
        assert_eq!(count(&l), 2 * per_module);

        // Routing only to held modules works; the absent ones are skipped.
        let y = l.forward(
            &Tensor::ones(&[2, 6]),
            &uniform_logits(2, 4),
            &[true, true, false, false],
            2,
            Mode::Train,
        );
        assert!(y.all_finite());
        l.backward(&Tensor::ones(&[2, 6]));
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn routing_to_an_absent_slot_panics() {
        let mut l = MoeLayer::zeros(6, 3, 4, false, &[0]);
        l.forward(&Tensor::ones(&[1, 6]), &uniform_logits(1, 4), &[true, true, false, false], 2, Mode::Eval);
    }

    #[test]
    fn backward_shapes() {
        let mut l = layer(4, true);
        let x = Tensor::ones(&[3, 6]);
        let logits = uniform_logits(3, 4);
        l.forward(&x, &logits, &[true; 4], 2, Mode::Train);
        let (dx, dlogits) = l.backward(&Tensor::ones(&[3, 6]));
        assert_eq!(dx.shape(), &[3, 6]);
        assert_eq!(dlogits.shape(), &[3, 4]);
        assert!(dx.all_finite() && dlogits.all_finite());
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = NebulaRng::seed(5);
        let mut l = MoeLayer::new(4, 3, 3, false, &mut rng);
        let x = Tensor::from_vec((0..2 * 4).map(|_| rng.normal_f32(0.0, 1.0)).collect(), &[2, 4]);
        // Fixed, well-separated logits so the top-k set is stable under
        // the probe perturbations.
        let logits = Tensor::matrix(&[&[2.0, 0.0, -2.0], &[0.0, 2.0, -2.0]]);
        let probe = Tensor::from_vec((0..2 * 4).map(|_| rng.normal_f32(0.0, 1.0)).collect(), &[2, 4]);

        let _y = l.forward(&x, &logits, &[true; 3], 2, Mode::Train);
        let (dx, _) = l.backward(&probe);

        let eps = 1e-2;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let yp = l.forward(&xp, &logits, &[true; 3], 2, Mode::Train);
            let lp = yp.dot(&probe);
            let ym = l.forward(&xm, &logits, &[true; 3], 2, Mode::Train);
            let lm = ym.dot(&probe);
            let fd = (lp - lm) / (2.0 * eps);
            let an = dx.data()[i];
            assert!((fd - an).abs() / 1.0f32.max(fd.abs()) < 2e-2, "dx[{i}]: fd {fd} vs analytic {an}");
        }
    }

    #[test]
    fn gate_gradient_matches_finite_difference() {
        let mut rng = NebulaRng::seed(6);
        let mut l = MoeLayer::new(4, 3, 3, false, &mut rng);
        let x = Tensor::from_vec((0..2 * 4).map(|_| rng.normal_f32(0.0, 1.0)).collect(), &[2, 4]);
        let logits = Tensor::matrix(&[&[2.0, 0.5, -2.0], &[0.5, 2.0, -2.0]]);
        let probe = Tensor::from_vec((0..2 * 4).map(|_| rng.normal_f32(0.0, 1.0)).collect(), &[2, 4]);

        l.forward(&x, &logits, &[true; 3], 2, Mode::Train);
        let (_, dlogits) = l.backward(&probe);

        let eps = 1e-2;
        for b in 0..2 {
            // Only active modules (0 and 1 by construction) are differentiable.
            for j in 0..2 {
                let mut lp = logits.clone();
                *lp.at_mut(b, j) += eps;
                let mut lm = logits.clone();
                *lm.at_mut(b, j) -= eps;
                let yp = l.forward(&x, &lp, &[true; 3], 2, Mode::Train).dot(&probe);
                let ym = l.forward(&x, &lm, &[true; 3], 2, Mode::Train).dot(&probe);
                let fd = (yp - ym) / (2.0 * eps);
                let an = dlogits.at(b, j);
                assert!(
                    (fd - an).abs() / 1.0f32.max(fd.abs()) < 2e-2,
                    "dlogits[{b},{j}]: fd {fd} vs analytic {an}"
                );
            }
        }
    }

    #[test]
    fn load_balance_loss_is_one_at_perfect_balance() {
        // Uniform logits + k=N → every module carries every sample with
        // uniform probability: loss = N · Σ (1 · 1/N) = N · N·(1/N)... —
        // with loads all 1 and probs 1/N: N · N · (1·1/N) = N.
        // With k=1 and uniform routing the ideal is 1; verify monotonicity
        // instead of an absolute constant: balanced < concentrated.
        let mut l = layer(4, false);
        let x = Tensor::ones(&[8, 6]);
        // Balanced: each sample prefers a different module.
        let mut balanced = Tensor::zeros(&[8, 4]);
        for b in 0..8 {
            balanced.row_mut(b)[b % 4] = 5.0;
        }
        l.forward(&x, &balanced, &[true; 4], 1, Mode::Eval);
        let lb_balanced = l.load_balance_loss();

        // Concentrated: everyone routes to module 0.
        let mut conc = Tensor::zeros(&[8, 4]);
        for b in 0..8 {
            conc.row_mut(b)[0] = 5.0;
        }
        l.forward(&x, &conc, &[true; 4], 1, Mode::Eval);
        let lb_conc = l.load_balance_loss();

        assert!(
            lb_conc > lb_balanced * 1.5,
            "LB loss should punish concentration: balanced {lb_balanced} vs concentrated {lb_conc}"
        );
    }

    #[test]
    fn softmax_over_allowed_is_softmax_of_the_masked_row() {
        use nebula_tensor::reduce::softmax_in_place;
        let mut rng = NebulaRng::seed(8);
        for allowed_count in [1usize, 2, 6, 15, 16] {
            for _ in 0..20 {
                let mut allowed = [false; 16];
                rng.sample_indices(16, allowed_count).into_iter().for_each(|i| allowed[i] = true);
                let row: Vec<f32> = (0..16).map(|_| rng.normal_f32(0.0, 3.0)).collect();
                let mut want = row.clone();
                for (v, &a) in want.iter_mut().zip(&allowed) {
                    if !a {
                        *v = f32::NEG_INFINITY;
                    }
                }
                softmax_in_place(&mut want);
                let mut got = row;
                softmax_over_allowed(&mut got, &allowed);
                let bits = |r: &[f32]| r.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
                assert_eq!(bits(&got), bits(&want), "{allowed_count} allowed");
            }
        }
    }

    #[test]
    fn four_row_gate_dots_equal_the_one_row_loop() {
        let mut rng = NebulaRng::seed(9);
        let (batch, width, n, i) = (16, 96, 3, 1);
        // Magnitudes 1e-10..1e10 inside one row, so any reassociation shows.
        let mut wide = |len: usize| -> Vec<f32> {
            (0..len).map(|_| rng.normal_f32(0.0, 1.0) * 10f32.powf(rng.uniform_f32(-10.0, 10.0))).collect()
        };
        let dy = Tensor::from_vec(wide(batch * width), &[batch, width]);
        for count in [0usize, 1, 3, 4, 5, 7, 8, 11, 16] {
            let rows: Vec<usize> = (0..count).map(|j| (j * 5 + 3) % batch).collect();
            let o = Tensor::from_vec(wide(count * width), &[count, width]);
            let mut dw = Tensor::zeros(&[batch, n]);
            gate_dots(&o, &dy, &rows, i, &mut dw);
            for (j, &b) in rows.iter().enumerate() {
                let mut acc = 0.0f32;
                for (&ov, &gv) in o.row(j).iter().zip(dy.row(b)) {
                    acc += ov * gv;
                }
                assert_eq!(dw.at(b, i).to_bits(), acc.to_bits(), "{count} rows, dot {j}");
            }
            assert_eq!(dw.data().iter().filter(|&&v| v != 0.0).count(), count, "{count} rows: stray dots");
        }
    }

    #[test]
    fn eval_forward_skips_probs_but_keeps_lb_loss() {
        let mut l = layer(4, false);
        let x = Tensor::ones(&[6, 6]);
        let mut logits = Tensor::zeros(&[6, 4]);
        for b in 0..6 {
            logits.row_mut(b)[b % 4] = 2.0;
        }
        l.forward(&x, &logits, &[true; 4], 2, Mode::Train);
        let train_loss = l.load_balance_loss();
        assert!(l.lb_stats().0.is_some(), "train forward must keep probs");
        l.forward(&x, &logits, &[true; 4], 2, Mode::Eval);
        assert!(l.lb_stats().0.is_none(), "eval forward materialised the full probs matrix");
        // The loss comes from the on-the-fly column means and must not
        // change between modes.
        assert_eq!(l.load_balance_loss(), train_loss);
    }

    #[test]
    fn lb_grad_pushes_probability_away_from_overloaded_modules() {
        let mut l = layer(4, false);
        let x = Tensor::ones(&[8, 6]);
        let mut conc = Tensor::zeros(&[8, 4]);
        for b in 0..8 {
            conc.row_mut(b)[0] = 3.0;
        }
        // Train mode: the logit gradient needs the full probs matrix,
        // which eval forwards no longer materialise.
        l.forward(&x, &conc, &[true; 4], 1, Mode::Train);
        let mut g = Tensor::zeros(conc.shape());
        l.add_load_balance_logit_grad(1.0, &mut g);
        // Gradient descent (−g) must reduce logit 0 (overloaded): g > 0 there.
        for b in 0..8 {
            assert!(g.at(b, 0) > 0.0, "overloaded module grad should be positive");
        }
    }
}

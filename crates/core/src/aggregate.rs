//! Module-wise weighted sub-model aggregation (§5.2).
//!
//! Each module's parameters are replaced by the importance-weighted
//! average of that module's copies across the sub-models that contain it:
//!
//! ```text
//! ω_i' = Σ_{k ∈ U_i} Importance(ω_i | D_k)·ω_i^k / Σ_{k ∈ U_i} Importance(ω_i | D_k)
//! ```
//!
//! Modules updated by no sub-model keep the cloud's parameters. Shared
//! parts (stem/head/selector), which every sub-model carries, are averaged
//! with data-volume weights (FedAvg-style).

use nebula_modular::{ModularModel, SubModelSpec};
use nebula_tensor::reduce;
use std::borrow::Borrow;
use std::collections::BTreeMap;

mod robust;
pub use robust::{aggregate_module_wise_robust, RobustAggregator};

/// One device's contribution to a round of aggregation.
///
/// `module_params` is a `BTreeMap` so every walk over an update's modules
/// is in `(layer, index)` order — aggregation, sanitize norms, and
/// shard-merge order can never depend on hasher state.
#[derive(Clone, Debug)]
pub struct ModuleUpdate {
    /// Which modules the device trained.
    pub spec: SubModelSpec,
    /// Updated parameters of each trained module, keyed by `(layer, index)`.
    pub module_params: BTreeMap<(usize, usize), Vec<f32>>,
    /// Updated shared-part parameters.
    pub shared_params: Vec<f32>,
    /// Device-local module importance `importance[layer][module]`.
    pub importance: Vec<Vec<f32>>,
    /// Local data volume (shared-part weighting).
    pub data_volume: usize,
}

/// Applies module-wise weighted aggregation to the cloud model in place,
/// over owned or borrowed updates. `use_importance = false` falls back to
/// a plain mean over contributing sub-models (the ablation in DESIGN.md
/// §5.2). Returns the number of modules that received at least one update.
///
/// This is the materialized reference path; one accumulator buffer is
/// reused across every module. Per coordinate the fold is
/// `Σ w_k·p_k / Σ w_k` with contributions taken in update order;
/// [`StreamingAccumulator`] performs the same operations in the same
/// order, which is what keeps the two paths bit-identical (test-pinned).
pub fn aggregate_module_wise<U: Borrow<ModuleUpdate>>(
    cloud: &mut ModularModel,
    updates: &[U],
    use_importance: bool,
) -> usize {
    if updates.is_empty() {
        return 0;
    }
    let layers = cloud.num_layers();
    let n = cloud.config().modules_per_layer;
    let mut touched = 0usize;
    let mut acc: Vec<f32> = Vec::new();

    for l in 0..layers {
        for i in 0..n {
            // Gather contributions with positive importance.
            acc.clear();
            let mut weight_sum = 0.0f32;
            for u in updates {
                let u = u.borrow();
                if !u.spec.contains(l, i) {
                    continue;
                }
                let Some(params) = u.module_params.get(&(l, i)) else {
                    continue;
                };
                if params.is_empty() {
                    continue; // residual module: nothing to aggregate
                }
                let w = if use_importance { u.importance[l][i].max(1e-8) } else { 1.0 };
                if acc.is_empty() {
                    acc.extend(params.iter().map(|&p| p * w));
                } else {
                    assert_eq!(acc.len(), params.len(), "module param size mismatch at ({l},{i})");
                    for (av, &pv) in acc.iter_mut().zip(params) {
                        *av += w * pv;
                    }
                }
                weight_sum += w;
            }
            if !acc.is_empty() && weight_sum > 0.0 {
                acc.iter_mut().for_each(|v| *v /= weight_sum);
                cloud.load_module_param_vector(l, i, &acc);
                touched += 1;
            }
        }
    }

    // Shared parts: volume-weighted average over all participants. The
    // volume weights are applied unnormalized (`Σ vol_k·p_k / Σ vol_k`,
    // one division at the end) so a single forward pass — the streaming
    // accumulator — can reproduce the result bit-for-bit.
    let total_volume: f32 = updates.iter().map(|u| u.borrow().data_volume as f32).sum();
    if total_volume > 0.0 {
        let len = updates[0].borrow().shared_params.len();
        let mut shared = vec![0.0f32; len];
        for u in updates {
            let u = u.borrow();
            assert_eq!(u.shared_params.len(), len, "shared param size mismatch");
            let w = u.data_volume as f32;
            for (s, &p) in shared.iter_mut().zip(&u.shared_params) {
                *s += w * p;
            }
        }
        shared.iter_mut().for_each(|v| *v /= total_volume);
        cloud.load_shared_param_vector(&shared);
    }

    touched
}

// ---------------------------------------------------------------------------
// Streaming aggregation (constant-memory weighted mean)
// ---------------------------------------------------------------------------

/// Running weighted sum for one module.
#[derive(Clone, Debug)]
struct ModuleSum {
    sum: Vec<f32>,
    weight: f32,
}

/// Constant-memory module-wise aggregation: folds each arriving
/// [`ModuleUpdate`] into importance-weighted sums instead of holding the
/// round's updates until aggregation time.
///
/// Memory is bounded by the union of module vectors contributed so far
/// (≤ one full model) regardless of how many updates fold in — the
/// property that lets a round scale to 10^5–10^6 devices. Folding updates
/// in the same order the materialized path iterates them reproduces
/// [`aggregate_module_wise`] bit-for-bit (test-pinned): per
/// coordinate both paths compute `p_1·w_1 + w_2·p_2 + …` then divide by
/// the same weight sum.
///
/// Accumulators [`merge`](Self::merge) associatively *in value* but not
/// in f32 bits: `fold(a);fold(b)` and `merge(fold(a), fold(b))` sum in a
/// different association. Callers that need bit-stable results across
/// shard counts must merge partials at a canonical granularity that does
/// not depend on the shard count (see `nebula-sim`'s cell-level fold
/// plan).
#[derive(Clone, Debug)]
pub struct StreamingAccumulator {
    use_importance: bool,
    folded: usize,
    modules: BTreeMap<(usize, usize), ModuleSum>,
    shared_sum: Vec<f32>,
    volume_sum: f32,
}

impl StreamingAccumulator {
    /// An empty accumulator. `use_importance = false` is the plain-mean
    /// ablation, mirroring [`aggregate_module_wise`].
    pub fn new(use_importance: bool) -> Self {
        Self { use_importance, folded: 0, modules: BTreeMap::new(), shared_sum: Vec::new(), volume_sum: 0.0 }
    }

    /// Updates folded in (directly or via merge).
    pub fn folded(&self) -> usize {
        self.folded
    }

    /// True if nothing has been folded in.
    pub fn is_empty(&self) -> bool {
        self.folded == 0
    }

    /// Folds one update into the running sums. Skip rules match the
    /// materialized path exactly: a module contributes iff the spec
    /// contains it and its parameter vector is present and non-empty.
    pub fn fold(&mut self, u: &ModuleUpdate) {
        for (l, layer) in u.spec.layers().iter().enumerate() {
            for &i in layer {
                let Some(params) = u.module_params.get(&(l, i)) else {
                    continue;
                };
                if params.is_empty() {
                    continue; // residual module: nothing to aggregate
                }
                let w = if self.use_importance { u.importance[l][i].max(1e-8) } else { 1.0 };
                match self.modules.get_mut(&(l, i)) {
                    None => {
                        self.modules.insert(
                            (l, i),
                            ModuleSum { sum: params.iter().map(|&p| p * w).collect(), weight: w },
                        );
                    }
                    Some(m) => {
                        assert_eq!(m.sum.len(), params.len(), "module param size mismatch at ({l},{i})");
                        for (av, &pv) in m.sum.iter_mut().zip(params) {
                            *av += w * pv;
                        }
                        m.weight += w;
                    }
                }
            }
        }
        if self.folded == 0 {
            self.shared_sum = vec![0.0; u.shared_params.len()];
        }
        assert_eq!(self.shared_sum.len(), u.shared_params.len(), "shared param size mismatch");
        let w = u.data_volume as f32;
        for (s, &p) in self.shared_sum.iter_mut().zip(&u.shared_params) {
            *s += w * p;
        }
        self.volume_sum += w;
        self.folded += 1;
    }

    /// Adds another accumulator's sums into this one (shard/cell partial
    /// merge). Element-wise addition, so the merged value equals folding
    /// both partials' updates into one accumulator — up to f32
    /// association (see the type docs).
    pub fn merge(&mut self, other: &StreamingAccumulator) {
        assert_eq!(self.use_importance, other.use_importance, "accumulator weighting modes differ");
        if other.folded == 0 {
            return;
        }
        if self.folded == 0 {
            *self = other.clone();
            return;
        }
        for (k, om) in &other.modules {
            match self.modules.get_mut(k) {
                None => {
                    self.modules.insert(*k, om.clone());
                }
                Some(m) => {
                    assert_eq!(m.sum.len(), om.sum.len(), "module param size mismatch at {k:?}");
                    for (av, &ov) in m.sum.iter_mut().zip(&om.sum) {
                        *av += ov;
                    }
                    m.weight += om.weight;
                }
            }
        }
        assert_eq!(self.shared_sum.len(), other.shared_sum.len(), "shared param size mismatch");
        for (s, &o) in self.shared_sum.iter_mut().zip(&other.shared_sum) {
            *s += o;
        }
        self.volume_sum += other.volume_sum;
        self.folded += other.folded;
    }

    /// Divides the sums and loads them into the cloud model, in
    /// `(layer, index)` order. Returns the number of modules touched.
    pub fn apply(&self, cloud: &mut ModularModel) -> usize {
        let mut touched = 0usize;
        let mut buf: Vec<f32> = Vec::new();
        for (&(l, i), m) in &self.modules {
            if m.weight <= 0.0 {
                continue;
            }
            buf.clear();
            buf.extend(m.sum.iter().map(|&v| v / m.weight));
            cloud.load_module_param_vector(l, i, &buf);
            touched += 1;
        }
        if self.volume_sum > 0.0 {
            buf.clear();
            buf.extend(self.shared_sum.iter().map(|&v| v / self.volume_sum));
            cloud.load_shared_param_vector(&buf);
        }
        touched
    }

    /// Bytes an edge→cloud upload of this partial costs on the wire
    /// (f32 sums + one weight per module + shared sums + volume).
    pub fn wire_bytes(&self) -> u64 {
        let sums: usize = self.modules.values().map(|m| m.sum.len() + 1).sum();
        ((sums + self.shared_sum.len() + 1) * 4) as u64
    }
}

/// One edge server's contribution to a hierarchical round: either
/// streamed constant-memory partials (WeightedMean) or the buffered
/// updates a robust combine rule needs, plus the edge-side sanitize
/// accounting.
#[derive(Clone, Debug, Default)]
pub struct EdgePartial {
    /// Sealed accumulator groups in canonical `(group, sums)` order.
    /// Groups are the unit the cloud merges in — per shard for lowest
    /// memory, per cell for shard-count-invariant bits.
    pub groups: Vec<(u64, StreamingAccumulator)>,
    /// Updates buffered for a robust combine rule (empty when streaming).
    pub buffered: Vec<ModuleUpdate>,
    /// Edge-side sanitize accounting (streaming mode only; buffered
    /// updates run the full gate at the cloud).
    pub report: SanitizeReport,
    /// Devices that reported to this edge.
    pub devices: usize,
}

impl EdgePartial {
    /// Bytes the edge→cloud upload costs.
    pub fn wire_bytes(&self) -> u64 {
        let streamed: u64 = self.groups.iter().map(|(_, a)| a.wire_bytes()).sum();
        let buffered: u64 = self.buffered.iter().map(crate::edge::update_bytes).sum();
        streamed + buffered
    }
}

/// The aggregation half of an edge server: ingests device updates as they
/// arrive and emits an [`EdgePartial`] for the cloud.
///
/// In `WeightedMean` mode updates are folded immediately (constant
/// memory); the edge applies the sanitize gate's non-finite check at fold
/// time, but the cross-cohort norm-outlier check is unavailable — it
/// needs the whole cohort's norms *before* any fold, and a fold cannot be
/// undone bit-exactly. Robust rules (median/trimmed-mean/Krum) buffer
/// updates instead and leave the full sanitize gate to the cloud: that is
/// the documented memory/robustness trade-off.
#[derive(Clone, Debug)]
pub struct EdgeAccumulator {
    aggregator: RobustAggregator,
    policy: SanitizePolicy,
    use_importance: bool,
    acc: StreamingAccumulator,
    partial: EdgePartial,
}

impl EdgeAccumulator {
    pub fn new(aggregator: RobustAggregator, policy: SanitizePolicy, use_importance: bool) -> Self {
        Self {
            aggregator,
            policy,
            use_importance,
            acc: StreamingAccumulator::new(use_importance),
            partial: EdgePartial::default(),
        }
    }

    /// Whether this edge streams (WeightedMean) or buffers (robust rules).
    pub fn streaming(&self) -> bool {
        self.aggregator == RobustAggregator::WeightedMean
    }

    /// Ingests one device update. Returns false if the edge rejected it
    /// (streaming mode, non-finite parameters).
    pub fn ingest(&mut self, u: ModuleUpdate) -> bool {
        self.partial.devices += 1;
        if self.streaming() {
            if self.policy.reject_non_finite && !update_is_finite(&u) {
                self.partial.report.rejected_non_finite += 1;
                return false;
            }
            self.partial.report.accepted += 1;
            if self.policy.norm_outlier_ratio.is_finite() {
                self.partial.report.outlier_check_skipped += 1;
            }
            self.acc.fold(&u);
        } else {
            self.partial.buffered.push(u);
        }
        true
    }

    /// Seals the open accumulator as canonical group `group`. Call once
    /// per cell for shard-count-invariant bits; never call mid-round for
    /// one group per shard (lowest memory).
    pub fn seal(&mut self, group: u64) {
        if self.acc.is_empty() {
            return;
        }
        let sealed = std::mem::replace(&mut self.acc, StreamingAccumulator::new(self.use_importance));
        self.partial.groups.push((group, sealed));
    }

    /// Finishes the round: seals any open accumulator under `group` and
    /// returns the partial for the cloud.
    pub fn finish(mut self, group: u64) -> EdgePartial {
        self.seal(group);
        self.partial
    }
}

// ---------------------------------------------------------------------------
// Sanitize gate & staleness discounting (robust rounds)
// ---------------------------------------------------------------------------

/// What the cloud refuses to aggregate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SanitizePolicy {
    /// Reject updates carrying any non-finite parameter or importance.
    pub reject_non_finite: bool,
    /// Reject updates whose RMS parameter norm exceeds this multiple of
    /// the round's median RMS norm (needs ≥ 3 finite updates to have a
    /// trustworthy median). RMS — not raw L2 — so devices with different
    /// sub-model sizes are comparable.
    ///
    /// The check needs every cohort norm *before* any fold, so streaming
    /// paths ([`EdgeAccumulator`] under `WeightedMean` — `edge_groups`,
    /// `ShardedWorld`) cannot run it: finite updates fold in unchecked.
    /// That is not silent — every accept that bypassed an enabled check
    /// is counted in [`SanitizeReport::outlier_check_skipped`].
    pub norm_outlier_ratio: f32,
}

impl Default for SanitizePolicy {
    fn default() -> Self {
        Self { reject_non_finite: true, norm_outlier_ratio: 10.0 }
    }
}

/// What the sanitize gate did to one round of updates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SanitizeReport {
    pub accepted: usize,
    pub rejected_non_finite: usize,
    pub rejected_outlier: usize,
    /// Accepted updates that never faced an *enabled* norm-outlier check
    /// — folded at a streaming edge, or part of a cohort too small for a
    /// trustworthy median. Zero whenever `norm_outlier_ratio` is
    /// infinite (check disabled) or the full gate ran. Non-zero means
    /// `rejected_outlier == 0` is absence of evidence, not evidence of
    /// absence.
    pub outlier_check_skipped: usize,
}

impl SanitizeReport {
    /// Total rejections, any cause.
    pub fn rejected(&self) -> usize {
        self.rejected_non_finite + self.rejected_outlier
    }
}

/// Whether every parameter and importance weight the update carries is
/// finite — the sanitize check an edge can run per update at fold time,
/// without buffering the cohort.
pub fn update_is_finite(u: &ModuleUpdate) -> bool {
    u.module_params.values().all(|p| all_finite(p))
        && all_finite(&u.shared_params)
        && u.importance.iter().all(|row| row.iter().all(|v| v.is_finite()))
}

/// `values.iter().all(|v| v.is_finite())`, folded a fixed-size chunk at a
/// time: inside a chunk there is no early exit, so the compare
/// vectorises; a non-finite value still stops the scan at its chunk's end.
fn all_finite(values: &[f32]) -> bool {
    const CHUNK: usize = 64;
    let mut chunks = values.chunks_exact(CHUNK);
    chunks.by_ref().all(|c| c.iter().fold(true, |ok, v| ok & v.is_finite()))
        && chunks.remainder().iter().all(|v| v.is_finite())
}

/// RMS norm over every parameter the update carries (0.0 if empty).
///
/// The sum of squares is `f64`: each module vector's squares (`v as f64`
/// squared) summed from zero in ascending order, the per-vector sums added
/// in key order, the shared vector's last. [`reduce::sum_sq_each`] keeps
/// every vector's own chain and only interleaves eight of them, so ~110 k
/// squares per update are not one chain of dependent adds.
fn update_rms_norm(u: &ModuleUpdate) -> f32 {
    let vectors: Vec<&[f32]> =
        u.module_params.values().map(Vec::as_slice).chain([u.shared_params.as_slice()]).collect();
    let mut sums = vec![0.0f64; vectors.len()];
    reduce::sum_sq_each(&vectors, &mut sums);
    let sum = sums.iter().fold(0.0f64, |sum, &s| sum + s);
    let n: usize = vectors.iter().map(|v| v.len()).sum();
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).sqrt() as f32
    }
}

/// The sanitize gate: validates a round of updates against `policy` and
/// returns the indices that may be aggregated plus an accounting report.
///
/// Two checks, in order: (1) every parameter and importance weight must
/// be finite; (2) among the finite updates, RMS-norm outliers beyond
/// `norm_outlier_ratio` × the median are rejected (exploding-weight
/// uploads that are still finite). A permissive policy that accepts
/// everything returns the identity, so fault-free rounds aggregate
/// exactly as before.
pub fn sanitize_updates<U: Borrow<ModuleUpdate>>(
    updates: &[U],
    policy: &SanitizePolicy,
) -> (Vec<usize>, SanitizeReport) {
    let mut report = SanitizeReport::default();
    let mut finite: Vec<usize> = Vec::with_capacity(updates.len());
    for (i, u) in updates.iter().enumerate() {
        if policy.reject_non_finite && !update_is_finite(u.borrow()) {
            report.rejected_non_finite += 1;
        } else {
            finite.push(i);
        }
    }

    let kept: Vec<usize> = if finite.len() >= 3 && policy.norm_outlier_ratio.is_finite() {
        let mut norms: Vec<f32> = finite.iter().map(|&i| update_rms_norm(updates[i].borrow())).collect();
        let mut sorted = norms.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite norms"));
        let median = sorted[sorted.len() / 2];
        let cutoff = median * policy.norm_outlier_ratio;
        let mut kept = Vec::with_capacity(finite.len());
        for (&i, norm) in finite.iter().zip(norms.drain(..)) {
            if median > 0.0 && norm > cutoff {
                report.rejected_outlier += 1;
            } else {
                kept.push(i);
            }
        }
        kept
    } else {
        if policy.norm_outlier_ratio.is_finite() {
            // The check was enabled but the cohort is too small for a
            // trustworthy median — these accepts went unchecked.
            report.outlier_check_skipped = finite.len();
        }
        finite
    };

    report.accepted = kept.len();
    (kept, report)
}

/// Discounts a late (straggler) update's influence: importance weights
/// and the shared-part data-volume weight are both scaled by `discount`,
/// so a stale update still contributes but no longer dominates fresher
/// ones (§5.2's weighting, staleness-aware).
pub fn discount_staleness(update: &mut ModuleUpdate, discount: f32) {
    let d = discount.clamp(0.0, 1.0);
    for row in &mut update.importance {
        for w in row.iter_mut() {
            *w *= d;
        }
    }
    update.data_volume = (((update.data_volume as f32) * d).round() as usize).max(1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use nebula_modular::ModularConfig;

    fn cloud() -> ModularModel {
        let mut cfg = ModularConfig::toy(8, 3);
        cfg.gate_noise_std = 0.0;
        cfg.residual_module = false;
        ModularModel::new(cfg, 3)
    }

    fn update_for(
        cloud: &ModularModel,
        spec: SubModelSpec,
        importance: Vec<Vec<f32>>,
        offset: f32,
        volume: usize,
    ) -> ModuleUpdate {
        let mut module_params = BTreeMap::new();
        for (l, layer) in spec.layers().iter().enumerate() {
            for &i in layer {
                let p: Vec<f32> = cloud.module_param_vector(l, i).iter().map(|v| v + offset).collect();
                module_params.insert((l, i), p);
            }
        }
        let shared_params: Vec<f32> = cloud.shared_param_vector().iter().map(|v| v + offset).collect();
        ModuleUpdate { spec, module_params, shared_params, importance, data_volume: volume }
    }

    #[test]
    fn single_update_replaces_module() {
        let mut c = cloud();
        let before = c.module_param_vector(0, 0);
        let spec = SubModelSpec::new(vec![vec![0], vec![0]]);
        let imp = vec![vec![1.0, 0.0, 0.0, 0.0], vec![1.0, 0.0, 0.0, 0.0]];
        let u = update_for(&c, spec, imp, 1.0, 100);
        let touched = aggregate_module_wise(&mut c, &[u], true);
        assert_eq!(touched, 2);
        let after = c.module_param_vector(0, 0);
        for (b, a) in before.iter().zip(&after) {
            nebula_tensor::assert_close(a - b, 1.0, 1e-5);
        }
        // Untouched module unchanged... except via shared params which are
        // separate: check module (0,1) kept its values.
    }

    #[test]
    fn untouched_modules_keep_cloud_params() {
        let mut c = cloud();
        let before = c.module_param_vector(0, 2);
        let spec = SubModelSpec::new(vec![vec![0], vec![0]]);
        let imp = vec![vec![1.0; 4]; 2];
        let u = update_for(&c, spec, imp, 5.0, 10);
        aggregate_module_wise(&mut c, &[u], true);
        assert_eq!(c.module_param_vector(0, 2), before);
    }

    #[test]
    fn importance_weights_balance_contributions() {
        let mut c = cloud();
        let base = c.module_param_vector(0, 0);
        let spec = SubModelSpec::new(vec![vec![0], vec![0]]);
        // Device A: importance 3, offset +1; device B: importance 1, offset +5.
        let ua = update_for(&c, spec.clone(), vec![vec![3.0, 0.0, 0.0, 0.0]; 2], 1.0, 10);
        let ub = update_for(&c, spec, vec![vec![1.0, 0.0, 0.0, 0.0]; 2], 5.0, 10);
        aggregate_module_wise(&mut c, &[ua, ub], true);
        let after = c.module_param_vector(0, 0);
        // Weighted offset: (3·1 + 1·5)/4 = 2.
        for (b, a) in base.iter().zip(&after) {
            nebula_tensor::assert_close(a - b, 2.0, 1e-4);
        }
    }

    #[test]
    fn shared_parts_use_volume_weights() {
        let mut c = cloud();
        let base = c.shared_param_vector();
        let spec = SubModelSpec::new(vec![vec![0], vec![0]]);
        let ua = update_for(&c, spec.clone(), vec![vec![1.0; 4]; 2], 1.0, 30);
        let ub = update_for(&c, spec, vec![vec![1.0; 4]; 2], 5.0, 10);
        aggregate_module_wise(&mut c, &[ua, ub], true);
        let after = c.shared_param_vector();
        // (30·1 + 10·5)/40 = 2.
        for (b, a) in base.iter().zip(&after) {
            nebula_tensor::assert_close(a - b, 2.0, 1e-4);
        }
    }

    #[test]
    fn empty_update_list_is_noop() {
        let mut c = cloud();
        let before = c.param_vector();
        assert_eq!(aggregate_module_wise::<ModuleUpdate>(&mut c, &[], true), 0);
        assert_eq!(c.param_vector(), before);
    }

    // --- partial participation -------------------------------------------

    #[test]
    fn empty_layer_contribution_leaves_layer_untouched() {
        // A partial upload: the spec names a layer-1 module but the update
        // carries no parameters for it (empty vec, as residual modules
        // ship, or the entry missing entirely, as a torn upload leaves).
        let c = cloud();
        let before_l1: Vec<Vec<f32>> = (0..4).map(|i| c.module_param_vector(1, i)).collect();
        let spec = SubModelSpec::new(vec![vec![0], vec![1]]);
        let imp = vec![vec![1.0; 4]; 2];
        let mut u = update_for(&c, spec.clone(), imp.clone(), 2.0, 50);
        u.module_params.insert((1, 1), Vec::new());
        let mut missing = update_for(&c, spec, imp, 2.0, 50);
        missing.module_params.remove(&(1, 1));
        for u in [u, missing] {
            let mut c2 = cloud();
            let touched = aggregate_module_wise(&mut c2, &[u], true);
            assert_eq!(touched, 1, "only the layer-0 module moved");
            for (i, before) in before_l1.iter().enumerate() {
                assert_eq!(&c2.module_param_vector(1, i), before, "layer-1 module {i} moved");
            }
        }
    }

    #[test]
    fn single_surviving_update_round_trips() {
        // A round where every other device failed: one update must fully
        // determine the touched modules and shared parts.
        let mut c = cloud();
        let spec = SubModelSpec::new(vec![vec![1], vec![2]]);
        let imp = vec![vec![0.5; 4]; 2];
        let u = update_for(&c, spec, imp, 3.0, 5);
        let expect_module = u.module_params[&(0, 1)].clone();
        let expect_shared = u.shared_params.clone();
        let touched = aggregate_module_wise(&mut c, &[u], true);
        assert_eq!(touched, 2);
        for (got, want) in c.module_param_vector(0, 1).iter().zip(&expect_module) {
            nebula_tensor::assert_close(*got, *want, 1e-5);
        }
        for (got, want) in c.shared_param_vector().iter().zip(&expect_shared) {
            nebula_tensor::assert_close(*got, *want, 1e-5);
        }
    }

    // --- robust aggregators -----------------------------------------------

    /// Five updates on module (0,0): four honest near +1, one scaled ×40.
    fn attacked_round(c: &ModularModel) -> Vec<ModuleUpdate> {
        let spec = SubModelSpec::new(vec![vec![0], vec![0]]);
        let mut ups: Vec<ModuleUpdate> = (0..4)
            .map(|k| update_for(c, spec.clone(), vec![vec![1.0; 4]; 2], 1.0 + 0.01 * k as f32, 10))
            .collect();
        let mut evil = update_for(c, spec, vec![vec![50.0; 4]; 2], 0.0, 10_000);
        for p in evil.module_params.values_mut() {
            for v in p.iter_mut() {
                *v *= 40.0;
            }
        }
        for v in evil.shared_params.iter_mut() {
            *v *= 40.0;
        }
        ups.push(evil);
        ups
    }

    /// Aggregate `ups` into a fresh `cloud()` under `agg`, returning the
    /// resulting (0,0) module parameters.
    fn robust_after(ups: &[ModuleUpdate], agg: RobustAggregator) -> Vec<f32> {
        let mut c2 = cloud();
        let refs: Vec<&ModuleUpdate> = ups.iter().collect();
        aggregate_module_wise_robust(&mut c2, &refs, agg, true);
        c2.module_param_vector(0, 0)
    }

    #[test]
    fn median_and_trimmed_resist_scaled_outlier() {
        let c = cloud();
        let base = c.module_param_vector(0, 0);
        let ups = attacked_round(&c);
        for agg in [
            RobustAggregator::CoordinateMedian,
            RobustAggregator::TrimmedMean { frac: 0.2 },
            RobustAggregator::Krum { f: 1 },
        ] {
            let after = robust_after(&ups, agg);
            for (b, a) in base.iter().zip(&after) {
                assert!((a - b - 1.0).abs() < 0.1, "{agg}: offset {} strayed from honest +1", a - b);
            }
        }
        // The weighted mean, by contrast, is dragged by the attacker's
        // inflated importance: (4·1·~1 + 50·40·p) / 54 is nowhere near +1.
        let after = robust_after(&ups, RobustAggregator::WeightedMean);
        let drift: f32 =
            base.iter().zip(&after).map(|(b, a)| (a - b - 1.0).abs()).sum::<f32>() / base.len() as f32;
        assert!(drift > 1.0, "weighted mean should collapse under the scaled update, drift {drift}");
    }

    #[test]
    fn weighted_mean_is_bit_identical_to_reference_path() {
        let c = cloud();
        let spec = SubModelSpec::new(vec![vec![0, 1], vec![0, 2]]);
        let ups: Vec<ModuleUpdate> = (0..3)
            .map(|k| update_for(&c, spec.clone(), vec![vec![0.3 + k as f32; 4]; 2], 0.7 * k as f32, 10 + k))
            .collect();
        let refs: Vec<&ModuleUpdate> = ups.iter().collect();
        let mut a = cloud();
        let mut b = cloud();
        let ta = aggregate_module_wise(&mut a, &refs, true);
        let tb = aggregate_module_wise_robust(&mut b, &refs, RobustAggregator::WeightedMean, true);
        assert_eq!(ta, tb);
        assert_eq!(a.param_vector(), b.param_vector(), "WeightedMean must stay bit-identical");
    }

    #[test]
    fn krum_below_quorum_falls_back_to_median() {
        // 4 updates with f = 1 → n < 2f+3, so Krum must behave like the
        // coordinate median rather than trusting its scoring.
        let c = cloud();
        let mut ups = attacked_round(&c);
        ups.pop(); // drop the attacker, leaving 4 honest
        let km = robust_after(&ups, RobustAggregator::Krum { f: 1 });
        let med = robust_after(&ups, RobustAggregator::CoordinateMedian);
        assert_eq!(km, med);
    }

    #[test]
    fn aggregator_labels_are_stable() {
        assert_eq!(RobustAggregator::WeightedMean.to_string(), "weighted_mean");
        assert_eq!(RobustAggregator::CoordinateMedian.to_string(), "coord_median");
        assert_eq!(RobustAggregator::TrimmedMean { frac: 0.2 }.to_string(), "trimmed_mean_0.2");
        assert_eq!(RobustAggregator::Krum { f: 2 }.to_string(), "krum_2");
    }

    // --- sanitize gate ----------------------------------------------------

    fn poisoned(c: &ModularModel, offset: f32) -> ModuleUpdate {
        let spec = SubModelSpec::new(vec![vec![0], vec![0]]);
        let mut u = update_for(c, spec, vec![vec![1.0; 4]; 2], offset, 10);
        u.module_params.get_mut(&(0, 0)).unwrap()[0] = f32::NAN;
        u
    }

    #[test]
    fn sanitize_rejects_non_finite_updates() {
        let c = cloud();
        let spec = SubModelSpec::new(vec![vec![0], vec![0]]);
        let good = update_for(&c, spec, vec![vec![1.0; 4]; 2], 1.0, 10);
        let bad = poisoned(&c, 1.0);
        let mut inf = poisoned(&c, 1.0);
        inf.module_params.get_mut(&(0, 0)).unwrap()[0] = f32::INFINITY;
        let (kept, report) = sanitize_updates(&[good, bad, inf], &SanitizePolicy::default());
        assert_eq!(kept, vec![0]);
        assert_eq!(report.rejected_non_finite, 2);
        assert_eq!(report.accepted, 1);
    }

    #[test]
    fn interleaved_rms_norm_keeps_the_sequential_bits() {
        // The one-chain expression `update_rms_norm` replaced.
        fn sequential(u: &ModuleUpdate) -> f32 {
            let mut sum = 0.0f64;
            let mut n = 0usize;
            for p in u.module_params.values() {
                sum += p.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>();
                n += p.len();
            }
            sum += u.shared_params.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>();
            n += u.shared_params.len();
            if n == 0 {
                0.0
            } else {
                (sum / n as f64).sqrt() as f32
            }
        }
        let mut rng = nebula_tensor::NebulaRng::seed(12);
        let mut wide = |len: usize| -> Vec<f32> {
            (0..len).map(|_| rng.normal_f32(0.0, 1.0) * 10f32.powf(rng.uniform_f32(-10.0, 10.0))).collect()
        };
        // Fewer vectors than lanes, more than lanes, empty (bypass) vectors
        // first, last and in between, an empty shared part, nothing at all.
        let shapes: [(&[usize], usize); 6] = [
            (&[4_632, 0, 4_632, 4_632], 9_000),
            (&[0, 7, 0, 96, 2_304, 1, 0, 24, 4_632, 4_632, 63, 64, 65, 0], 1_000),
            (&[5, 0], 0),
            (&[0, 0], 0),
            (&[], 17),
            (&[], 0),
        ];
        for (modules, shared) in shapes {
            let module_params =
                modules.iter().enumerate().map(|(i, &len)| ((i / 4, i % 4), wide(len))).collect();
            let u = ModuleUpdate {
                spec: SubModelSpec::new(vec![vec![0]]),
                module_params,
                shared_params: wide(shared),
                importance: Vec::new(),
                data_volume: 1,
            };
            assert_eq!(update_rms_norm(&u).to_bits(), sequential(&u).to_bits(), "{modules:?} + {shared}");
        }
    }

    #[test]
    fn chunked_finiteness_finds_a_bad_value_anywhere() {
        for len in [0usize, 1, 63, 64, 65, 200] {
            let clean = vec![1.0f32; len];
            assert!(all_finite(&clean), "length {len}");
            for at in 0..len {
                for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                    let mut v = clean.clone();
                    v[at] = bad;
                    assert!(!all_finite(&v), "length {len}, {bad} at {at}");
                }
            }
        }
    }

    #[test]
    fn sanitize_rejects_norm_outliers() {
        let c = cloud();
        let spec = SubModelSpec::new(vec![vec![0], vec![0]]);
        let mk = |offset| update_for(&c, spec.clone(), vec![vec![1.0; 4]; 2], offset, 10);
        let mut exploded = mk(0.0);
        for p in exploded.module_params.values_mut() {
            for v in p.iter_mut() {
                *v *= 1e6;
            }
        }
        for v in exploded.shared_params.iter_mut() {
            *v *= 1e6;
        }
        let (kept, report) =
            sanitize_updates(&[mk(0.1), exploded, mk(0.2), mk(0.3)], &SanitizePolicy::default());
        assert_eq!(kept, vec![0, 2, 3]);
        assert_eq!(report.rejected_outlier, 1);
        assert_eq!(report.rejected(), 1);
        assert_eq!(report.outlier_check_skipped, 0, "the check ran; nothing was skipped");
    }

    #[test]
    fn sanitize_skips_outlier_check_below_three_updates() {
        // With one honest and one exploded update there is no trustworthy
        // median; both finite updates pass.
        let c = cloud();
        let spec = SubModelSpec::new(vec![vec![0], vec![0]]);
        let mut big = update_for(&c, spec.clone(), vec![vec![1.0; 4]; 2], 0.0, 10);
        for v in big.shared_params.iter_mut() {
            *v *= 1e6;
        }
        let small = update_for(&c, spec, vec![vec![1.0; 4]; 2], 0.1, 10);
        let (kept, report) = sanitize_updates(&[small.clone(), big.clone()], &SanitizePolicy::default());
        assert_eq!(kept.len(), 2);
        assert_eq!(report.rejected(), 0);
        assert_eq!(report.outlier_check_skipped, 2, "the bypassed check must be accounted");
        // With the check disabled outright, nothing counts as skipped.
        let permissive = SanitizePolicy { norm_outlier_ratio: f32::INFINITY, ..SanitizePolicy::default() };
        let (_, report) = sanitize_updates(&[small, big], &permissive);
        assert_eq!(report.outlier_check_skipped, 0);
    }

    #[test]
    fn all_rejected_round_leaves_cloud_unchanged_and_finite() {
        let mut c = cloud();
        let before = c.param_vector();
        let bad: Vec<ModuleUpdate> = (0..3).map(|i| poisoned(&c, i as f32)).collect();
        let (kept, report) = sanitize_updates(&bad, &SanitizePolicy::default());
        assert!(kept.is_empty());
        assert_eq!(report.rejected_non_finite, 3);
        let refs: Vec<&ModuleUpdate> = kept.iter().map(|&i| &bad[i]).collect();
        assert_eq!(aggregate_module_wise(&mut c, &refs, true), 0);
        let after = c.param_vector();
        assert_eq!(after, before, "all-rejected round must be a no-op");
        assert!(after.iter().all(|v| v.is_finite()));
    }

    // --- streaming accumulator --------------------------------------------

    /// A mixed cohort: overlapping specs, varying importance/volumes, one
    /// residual (empty) module, one missing entry.
    fn mixed_cohort(c: &ModularModel) -> Vec<ModuleUpdate> {
        let mut ups = Vec::new();
        for k in 0..5usize {
            let spec = if k % 2 == 0 {
                SubModelSpec::new(vec![vec![0, 1], vec![k % 3]])
            } else {
                SubModelSpec::new(vec![vec![k % 3], vec![0, 2]])
            };
            let imp = vec![vec![0.1 + 0.3 * k as f32; 4]; 2];
            let mut u = update_for(c, spec, imp, 0.4 * k as f32 - 0.7, 5 + 7 * k);
            if k == 2 {
                u.module_params.insert((1, 2), Vec::new()); // residual
            }
            if k == 3 {
                u.module_params.remove(&(1, 0)); // torn upload
            }
            ups.push(u);
        }
        ups
    }

    #[test]
    fn streaming_fold_matches_materialized_bitwise() {
        for use_importance in [true, false] {
            let c = cloud();
            let ups = mixed_cohort(&c);
            let mut reference = cloud();
            let touched_ref = aggregate_module_wise(&mut reference, &ups, use_importance);

            let mut acc = StreamingAccumulator::new(use_importance);
            for u in &ups {
                acc.fold(u);
            }
            let mut streamed = cloud();
            let touched_stream = acc.apply(&mut streamed);
            assert_eq!(touched_ref, touched_stream);
            assert_eq!(
                reference.param_vector(),
                streamed.param_vector(),
                "streaming fold must be bit-identical (use_importance={use_importance})"
            );
        }
    }

    #[test]
    fn merged_partials_equal_single_fold_within_tolerance() {
        let c = cloud();
        let ups = mixed_cohort(&c);
        let mut whole = StreamingAccumulator::new(true);
        for u in &ups {
            whole.fold(u);
        }
        let mut left = StreamingAccumulator::new(true);
        let mut right = StreamingAccumulator::new(true);
        for u in &ups[..2] {
            left.fold(u);
        }
        for u in &ups[2..] {
            right.fold(u);
        }
        left.merge(&right);
        assert_eq!(left.folded(), whole.folded());
        let mut a = cloud();
        let mut b = cloud();
        whole.apply(&mut a);
        left.apply(&mut b);
        for (x, y) in a.param_vector().iter().zip(b.param_vector()) {
            nebula_tensor::assert_close(*x, y, 1e-5);
        }
    }

    #[test]
    fn empty_accumulator_is_a_noop() {
        let mut c = cloud();
        let before = c.param_vector();
        let acc = StreamingAccumulator::new(true);
        assert!(acc.is_empty());
        assert_eq!(acc.apply(&mut c), 0);
        assert_eq!(c.param_vector(), before);
    }

    #[test]
    fn edge_accumulator_streams_and_rejects_non_finite() {
        let c = cloud();
        let spec = SubModelSpec::new(vec![vec![0], vec![0]]);
        let good = update_for(&c, spec.clone(), vec![vec![1.0; 4]; 2], 1.0, 10);
        let bad = poisoned(&c, 1.0);
        let mut edge = EdgeAccumulator::new(RobustAggregator::WeightedMean, SanitizePolicy::default(), true);
        assert!(edge.streaming());
        assert!(edge.ingest(good.clone()));
        assert!(!edge.ingest(bad));
        let partial = edge.finish(0);
        assert_eq!(partial.devices, 2);
        assert_eq!(partial.report.rejected_non_finite, 1);
        assert_eq!(partial.report.accepted, 1);
        // Default policy enables the norm-outlier check, which a
        // streaming fold cannot run — the accept must count as skipped.
        assert_eq!(partial.report.outlier_check_skipped, 1);
        assert_eq!(partial.groups.len(), 1);
        assert!(partial.buffered.is_empty());
        assert!(partial.wire_bytes() > 0);

        // The streamed partial equals aggregating the surviving update.
        let mut reference = cloud();
        aggregate_module_wise(&mut reference, &[good], true);
        let mut streamed = cloud();
        partial.groups[0].1.apply(&mut streamed);
        assert_eq!(reference.param_vector(), streamed.param_vector());
    }

    #[test]
    fn edge_accumulator_buffers_for_robust_rules() {
        let c = cloud();
        let ups = attacked_round(&c);
        let mut edge =
            EdgeAccumulator::new(RobustAggregator::CoordinateMedian, SanitizePolicy::default(), true);
        assert!(!edge.streaming());
        for u in &ups {
            assert!(edge.ingest(u.clone()));
        }
        let partial = edge.finish(0);
        assert_eq!(partial.buffered.len(), ups.len());
        assert!(partial.groups.is_empty(), "robust mode must not fold");
    }

    #[test]
    fn sealed_groups_preserve_cell_order() {
        let c = cloud();
        let ups = mixed_cohort(&c);
        let mut edge = EdgeAccumulator::new(RobustAggregator::WeightedMean, SanitizePolicy::default(), true);
        for (k, u) in ups.iter().enumerate() {
            edge.ingest(u.clone());
            edge.seal(k as u64); // one group per update
        }
        let partial = edge.finish(99);
        let groups: Vec<u64> = partial.groups.iter().map(|(g, _)| *g).collect();
        assert_eq!(groups, vec![0, 1, 2, 3, 4], "seal order must be the ingest order");
    }

    #[test]
    fn staleness_discount_halves_influence() {
        let c = cloud();
        let spec = SubModelSpec::new(vec![vec![0], vec![0]]);
        let mut u = update_for(&c, spec, vec![vec![2.0; 4]; 2], 1.0, 100);
        discount_staleness(&mut u, 0.5);
        assert!(u.importance.iter().all(|row| row.iter().all(|&w| (w - 1.0).abs() < 1e-6)));
        assert_eq!(u.data_volume, 50);
        // Volume never reaches zero: a stale update still counts.
        let mut tiny = u.clone();
        tiny.data_volume = 1;
        discount_staleness(&mut tiny, 0.1);
        assert_eq!(tiny.data_volume, 1);
    }

    use nebula_nn::Layer;
}

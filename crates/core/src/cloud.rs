//! The Nebula cloud orchestrator.
//!
//! Owns the modularized cloud model and drives both stages: offline
//! pre-training + ability enhancing, and the online loop of deriving
//! sub-models for devices, dispatching them, and aggregating updates
//! module-wise. Payload byte sizes are exposed so the simulator can
//! account communication exactly (paper Fig. 7).

use crate::aggregate::{
    aggregate_module_wise, aggregate_module_wise_robust, sanitize_updates, EdgePartial, ModuleUpdate,
    RobustAggregator, SanitizePolicy, SanitizeReport, StreamingAccumulator,
};
use crate::derive::{derive_submodel, DeriveOutcome};
use crate::offline::{enhance_module_abilities, pretrain, EnhanceOutcome, PretrainConfig};
use crate::profile::ResourceProfile;
use nebula_data::Dataset;
use nebula_modular::cost::CostModel;
use nebula_modular::{ModularConfig, ModularModel, SubModelSpec};
use nebula_nn::Layer;
use nebula_tensor::NebulaRng;
use std::collections::BTreeMap;

/// Framework hyper-parameters (paper §6.1 defaults).
#[derive(Clone, Copy, Debug)]
pub struct NebulaParams {
    pub pretrain: PretrainConfig,
    /// Local epochs per collaborative round (paper: 3).
    /// Unread; kept while `nebula_benchmark` names it.
    pub local_epochs: usize,
    /// Local batch size (paper: 16).
    /// Unread; kept while `nebula_benchmark` names it.
    pub batch_size: usize,
    /// Local learning rate.
    /// Unread; kept while `nebula_benchmark` names it.
    pub local_lr: f32,
}

impl Default for NebulaParams {
    fn default() -> Self {
        Self { pretrain: PretrainConfig::default(), local_epochs: 3, batch_size: 16, local_lr: 0.02 }
    }
}

/// The sub-model package the cloud ships to a device: selected module
/// parameters plus the shared parts.
#[derive(Clone, Debug)]
pub struct SubModelPayload {
    /// The sub-model structure.
    pub spec: SubModelSpec,
    /// Parameters of each included module (residuals ship empty vectors),
    /// in deterministic `(layer, index)` order.
    pub module_params: BTreeMap<(usize, usize), Vec<f32>>,
    /// Shared stem/head/selector parameters.
    pub shared_params: Vec<f32>,
}

impl SubModelPayload {
    /// Bytes on the wire (f32 parameters).
    pub fn bytes(&self) -> u64 {
        let module: usize = self.module_params.values().map(Vec::len).sum();
        ((module + self.shared_params.len()) * 4) as u64
    }

    /// Checks that this payload fits the architecture `cfg`: layer count,
    /// non-empty layers, module indices in range, exactly one record per
    /// spec module, and every record and the shared vector of the length
    /// the configuration implies. A payload decoded from a frame is only
    /// well-formed, not well-matched — an executor must call this before
    /// [`crate::EdgeClient::from_payload`], which panics on a mismatch.
    pub fn validate(&self, cfg: &ModularConfig) -> Result<(), String> {
        check_records("payload", &self.spec, &self.module_params, &self.shared_params, cfg)
    }
}

/// The check of [`SubModelPayload::validate`] for any message naming a
/// sub-model: `spec`'s shape against `cfg`, exactly one record per spec
/// module, and each record and the shared vector of the length `cfg`
/// implies.
pub(crate) fn check_records(
    name: &str,
    spec: &SubModelSpec,
    module_params: &BTreeMap<(usize, usize), Vec<f32>>,
    shared_params: &[f32],
    cfg: &ModularConfig,
) -> Result<(), String> {
    check_spec_shape(name, spec.layers(), cfg)?;
    if module_params.len() != spec.total_modules() {
        return Err(format!(
            "{name} ships {} module records for a {}-module spec",
            module_params.len(),
            spec.total_modules()
        ));
    }
    let cost = CostModel::new(cfg.clone());
    for (l, mods) in spec.layers().iter().enumerate() {
        for &i in mods {
            let Some(record) = module_params.get(&(l, i)) else {
                return Err(format!("{name} ships no record for spec module ({l}, {i})"));
            };
            let want = cost.module(l, i).params as usize;
            if record.len() != want {
                return Err(format!("module ({l}, {i}) record has {} params, wants {want}", record.len()));
            }
        }
    }
    let want = cost.shared().params as usize;
    if shared_params.len() != want {
        return Err(format!("shared record has {} params, wants {want}", shared_params.len()));
    }
    Ok(())
}

/// Checks per-layer module lists from outside the process (a decoded
/// frame, a snapshot) against `cfg` before anything indexes with them.
pub(crate) fn check_spec_shape(name: &str, layers: &[Vec<usize>], cfg: &ModularConfig) -> Result<(), String> {
    if layers.len() != cfg.num_layers {
        return Err(format!("{name} spec has {} layers, model has {}", layers.len(), cfg.num_layers));
    }
    for (l, mods) in layers.iter().enumerate() {
        if mods.is_empty() {
            return Err(format!("{name} spec layer {l} is empty"));
        }
        if let Some(&bad) = mods.iter().find(|&&m| m >= cfg.modules_per_layer) {
            return Err(format!(
                "{name} spec layer {l} references module {bad} of {}",
                cfg.modules_per_layer
            ));
        }
    }
    Ok(())
}

/// The cloud side of Nebula.
pub struct NebulaCloud {
    model: ModularModel,
    cost: CostModel,
    params: NebulaParams,
}

impl NebulaCloud {
    /// Builds a cloud with a fresh modularized model.
    pub fn new(cfg: ModularConfig, params: NebulaParams, seed: u64) -> Self {
        let cost = CostModel::new(cfg.clone());
        Self { model: ModularModel::new(cfg, seed), cost, params }
    }

    /// The cloud model (read access).
    pub fn model(&self) -> &ModularModel {
        &self.model
    }

    /// The cloud model (mutable access — evaluation needs `&mut` for
    /// forward caches).
    pub fn model_mut(&mut self) -> &mut ModularModel {
        &mut self.model
    }

    /// The module/sub-model cost calculator.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Offline stage step 1: end-to-end pre-training on proxy data.
    pub fn pretrain(&mut self, proxy: &Dataset, rng: &mut NebulaRng) -> f32 {
        pretrain(&mut self.model, proxy, self.params.pretrain, rng)
    }

    /// Offline stage step 2: module ability-enhancing training over the
    /// application-defined sub-tasks.
    pub fn enhance(&mut self, subtasks: &[Dataset], rng: &mut NebulaRng) -> EnhanceOutcome {
        enhance_module_abilities(&mut self.model, subtasks, rng)
    }

    /// Online: derive a personalized sub-model for a device from its local
    /// data sample and resource profile.
    pub fn derive_for_data(
        &mut self,
        local_data: &Dataset,
        profile: &ResourceProfile,
        module_cap: Option<usize>,
    ) -> DeriveOutcome {
        assert!(!local_data.is_empty(), "cannot derive from empty local data");
        let importance = self.model.importance(local_data.features());
        derive_submodel(&self.cost, &importance, profile, module_cap)
    }

    /// Online: derive directly from an importance matrix (devices can score
    /// importance locally with the decoupled selector).
    pub fn derive_for_importance(
        &self,
        importance: &[Vec<f32>],
        profile: &ResourceProfile,
        module_cap: Option<usize>,
    ) -> DeriveOutcome {
        derive_submodel(&self.cost, importance, profile, module_cap)
    }

    /// Packages a sub-model for shipping to a device.
    pub fn dispatch(&self, spec: &SubModelSpec) -> SubModelPayload {
        spec.validate(self.model.num_layers(), self.model.config().modules_per_layer);
        let mut module_params = BTreeMap::new();
        for (l, layer) in spec.layers().iter().enumerate() {
            for &i in layer {
                module_params.insert((l, i), self.model.module_param_vector(l, i));
            }
        }
        SubModelPayload { spec: spec.clone(), module_params, shared_params: self.model.shared_param_vector() }
    }

    /// Aggregates a round of device updates module-wise (§5.2). Returns
    /// the number of modules updated.
    pub fn aggregate(&mut self, updates: &[ModuleUpdate]) -> usize {
        aggregate_module_wise(&mut self.model, updates, true)
    }

    /// Aggregates a round behind the sanitize gate: non-finite and
    /// norm-outlier updates are rejected before they can touch the model,
    /// then `aggregator` merges the survivors module-wise. With nothing to
    /// reject, `WeightedMean` is exactly [`NebulaCloud::aggregate`].
    pub fn aggregate_robust_with(
        &mut self,
        updates: &[ModuleUpdate],
        policy: &SanitizePolicy,
        aggregator: RobustAggregator,
    ) -> AggregateOutcome {
        let (kept, sanitize) = sanitize_updates(updates, policy);
        let refs: Vec<&ModuleUpdate> = kept.iter().map(|&i| &updates[i]).collect();
        let touched = aggregate_module_wise_robust(&mut self.model, &refs, aggregator, true);
        AggregateOutcome { touched, sanitize }
    }

    /// Hierarchical aggregation: merges edge partials into the cloud
    /// model, in the order given. The streamed sums are merged
    /// left-to-right across all partials — `ShardedWorld` passes one
    /// partial per cell in cell order, so the result does not depend on
    /// how cells were assigned to shards.
    pub fn absorb_partials(&mut self, partials: &[EdgePartial]) -> AggregateOutcome {
        let mut sanitize = SanitizeReport::default();
        let mut merged = StreamingAccumulator::new(true);
        for p in partials {
            sanitize.accepted += p.report.accepted;
            sanitize.rejected_non_finite += p.report.rejected_non_finite;
            sanitize.rejected_outlier += p.report.rejected_outlier;
            sanitize.outlier_check_skipped += p.report.outlier_check_skipped;
            merged.merge(&p.sums);
        }
        AggregateOutcome { touched: merged.apply(&mut self.model), sanitize }
    }

    /// Runs `aggregate` — any of the entry points above — under the
    /// rollback guard: the model's parameters are copied, `probe` measures
    /// accuracy before and after, and if the drop exceeds `max_drop` (or
    /// the model stopped producing finite accuracy) the copy is loaded
    /// back: updates that slipped past the sanitize gate but still
    /// wrecked the model. `probe` takes `&mut` because evaluation uses the
    /// model's forward caches.
    pub fn guarded(
        &mut self,
        mut probe: impl FnMut(&mut ModularModel) -> f32,
        max_drop: f32,
        aggregate: impl FnOnce(&mut Self) -> AggregateOutcome,
    ) -> GuardedOutcome {
        let saved = self.model.param_vector();
        let acc_before = probe(&mut self.model);
        let out = aggregate(self);
        let acc_after = probe(&mut self.model);
        let rolled_back = !acc_after.is_finite() || acc_after < acc_before - max_drop;
        if rolled_back {
            self.model.load_param_vector(&saved);
        }
        GuardedOutcome { touched: out.touched, sanitize: out.sanitize, rolled_back, acc_before, acc_after }
    }
}

/// What one aggregation did.
#[derive(Clone, Copy, Debug, Default)]
pub struct AggregateOutcome {
    /// Modules that received at least one accepted update.
    pub touched: usize,
    /// Sanitize-gate accounting.
    pub sanitize: SanitizeReport,
}

/// What [`NebulaCloud::guarded`] did.
#[derive(Clone, Copy, Debug)]
pub struct GuardedOutcome {
    pub touched: usize,
    pub sanitize: SanitizeReport,
    /// Whether the aggregation was undone.
    pub rolled_back: bool,
    /// Probe accuracy before/after aggregation (pre-rollback).
    pub acc_before: f32,
    pub acc_after: f32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use nebula_data::{SynthSpec, Synthesizer};

    fn cloud() -> NebulaCloud {
        let mut cfg = nebula_modular::ModularConfig::toy(16, 4);
        cfg.gate_noise_std = 0.2;
        NebulaCloud::new(cfg, NebulaParams::default(), 11)
    }

    #[test]
    fn dispatch_round_trips_module_params() {
        let c = cloud();
        let spec = SubModelSpec::new(vec![vec![0, 2], vec![1]]);
        let payload = c.dispatch(&spec);
        assert_eq!(payload.module_params.len(), 3);
        assert_eq!(payload.module_params[&(0, 2)], c.model().module_param_vector(0, 2));
        assert!(payload.bytes() > 0);
    }

    #[test]
    fn validate_accepts_what_dispatch_ships_and_names_each_mismatch() {
        let c = cloud();
        let cfg = c.model().config().clone();
        let good = c.dispatch(&SubModelSpec::new(vec![vec![0, 3], vec![1]]));
        assert_eq!(good.validate(&cfg), Ok(()));

        let rejected = |payload: &SubModelPayload, cfg: &ModularConfig, needle: &str| {
            let err = payload.validate(cfg).expect_err(needle);
            assert!(err.contains(needle), "expected `{needle}` in `{err}`");
        };
        // Another architecture: layer count, module count, widths.
        let mut other = cfg.clone();
        other.num_layers = 3;
        rejected(&good, &other, "spec has 2 layers, model has 3");
        other = cfg.clone();
        other.modules_per_layer = 3;
        other.top_k = 2;
        rejected(&good, &other, "references module 3 of 3");
        other = cfg.clone();
        other.module_hidden += 1;
        rejected(&good, &other, "module (0, 0) record has");
        other = cfg.clone();
        other.selector_embed += 1;
        rejected(&good, &other, "shared record has");
        // A spec that skipped `SubModelSpec::new` (it is `Deserialize`).
        let mut bad = good.clone();
        bad.spec = serde_json::from_str(r#"{"active":[[0,3],[]]}"#).expect("spec json");
        rejected(&bad, &cfg, "spec layer 1 is empty");
        // Records that do not match the spec.
        let mut bad = good.clone();
        bad.module_params.remove(&(1, 1));
        rejected(&bad, &cfg, "ships 2 module records for a 3-module spec");
        bad.module_params.insert((1, 2), good.module_params[&(1, 1)].clone());
        rejected(&bad, &cfg, "no record for spec module (1, 1)");
        let mut bad = good.clone();
        bad.module_params.get_mut(&(0, 3)).expect("bypass record").push(0.0);
        rejected(&bad, &cfg, "module (0, 3) record has 1 params, wants 0");
        let mut bad = good.clone();
        bad.shared_params.pop();
        rejected(&bad, &cfg, "shared record has");
    }

    #[test]
    fn update_validate_adds_importance_rows_to_the_payload_check() {
        let c = cloud();
        let cfg = c.model().config().clone();
        let payload = c.dispatch(&SubModelSpec::new(vec![vec![0, 3], vec![1]]));
        let SubModelPayload { spec, module_params, shared_params } = payload;
        let importance = vec![vec![0.25; cfg.modules_per_layer]; cfg.num_layers];
        let good = ModuleUpdate { spec, module_params, shared_params, importance, data_volume: 9 };
        assert_eq!(good.validate(&cfg), Ok(()));

        let rejected = |update: &ModuleUpdate, needle: &str| {
            let err = update.validate(&cfg).expect_err(needle);
            assert!(err.contains(needle), "expected `{needle}` in `{err}`");
        };
        let mut bad = good.clone();
        bad.module_params.get_mut(&(0, 0)).expect("module").pop();
        rejected(&bad, "module (0, 0) record has");
        let mut bad = good.clone();
        bad.shared_params.pop();
        rejected(&bad, "shared record has");
        let mut bad = good.clone();
        bad.module_params.remove(&(1, 1));
        rejected(&bad, "update ships 2 module records for a 3-module spec");
        let mut bad = good.clone();
        bad.importance.pop();
        rejected(&bad, "update carries 1 importance rows, model has 2 layers");
        let mut bad = good.clone();
        bad.importance[1].pop();
        rejected(&bad, "importance row 1 has 3 entries, wants 4");
    }

    #[test]
    fn payload_bytes_scale_with_spec_size() {
        let c = cloud();
        let small = c.dispatch(&SubModelSpec::new(vec![vec![0], vec![0]]));
        let large = c.dispatch(&SubModelSpec::full(2, 4));
        assert!(large.bytes() > small.bytes());
    }

    #[test]
    fn derive_for_data_produces_valid_spec() {
        let mut c = cloud();
        let synth = Synthesizer::new(SynthSpec::toy(), 1);
        let mut rng = NebulaRng::seed(2);
        let data = synth.sample_classes(60, &[0, 1], 0, &mut rng);
        let out = c.derive_for_data(&data, &ResourceProfile::unconstrained(), Some(2));
        out.spec.validate(2, 4);
        for l in 0..2 {
            assert!(out.spec.layer(l).len() <= 2);
        }
    }

    fn honest_update(c: &NebulaCloud, offset: f32) -> ModuleUpdate {
        let spec = SubModelSpec::new(vec![vec![0], vec![0]]);
        let mut module_params = BTreeMap::new();
        for (l, layer) in spec.layers().iter().enumerate() {
            for &i in layer {
                let p: Vec<f32> = c.model().module_param_vector(l, i).iter().map(|v| v + offset).collect();
                module_params.insert((l, i), p);
            }
        }
        let shared_params: Vec<f32> = c.model().shared_param_vector().iter().map(|v| v + offset).collect();
        ModuleUpdate {
            spec,
            module_params,
            shared_params,
            importance: vec![vec![1.0; 4]; 2],
            data_volume: 10,
        }
    }

    #[test]
    fn robust_aggregate_rejects_poison_and_applies_the_rest() {
        let mut c = cloud();
        let good = honest_update(&c, 0.5);
        let mut bad = honest_update(&c, 0.5);
        bad.shared_params[0] = f32::NAN;
        let out =
            c.aggregate_robust_with(&[good, bad], &SanitizePolicy::default(), RobustAggregator::WeightedMean);
        assert_eq!(out.sanitize.rejected_non_finite, 1);
        assert_eq!(out.sanitize.accepted, 1);
        assert!(out.touched > 0);
        assert!(c.model().param_vector().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn guarded_aggregate_rolls_back_on_regression() {
        let mut c = cloud();
        let before = c.model().param_vector();
        let u = honest_update(&c, 1.0);
        // Probe reports a collapse after aggregation → rollback.
        let mut calls = 0;
        let out = c.guarded(
            |_m| {
                calls += 1;
                if calls == 1 {
                    0.8
                } else {
                    0.1
                }
            },
            0.2,
            |c| c.aggregate_robust_with(&[u], &SanitizePolicy::default(), RobustAggregator::WeightedMean),
        );
        assert!(out.rolled_back);
        assert_eq!(c.model().param_vector(), before, "rollback must restore the snapshot");
    }

    #[test]
    fn guarded_aggregate_keeps_benign_rounds() {
        let mut c = cloud();
        let before = c.model().param_vector();
        let u = honest_update(&c, 1.0);
        let out = c.guarded(
            |_m| 0.8,
            0.2,
            |c| c.aggregate_robust_with(&[u], &SanitizePolicy::default(), RobustAggregator::WeightedMean),
        );
        assert!(!out.rolled_back);
        assert_ne!(c.model().param_vector(), before, "benign aggregation must stick");
    }

    #[test]
    fn full_offline_online_smoke() {
        let mut c = cloud();
        let synth = Synthesizer::new(SynthSpec::toy(), 1);
        let mut rng = NebulaRng::seed(3);
        let proxy = synth.sample(300, 0, &mut rng);
        c.params.pretrain.epochs = 6;
        let loss = c.pretrain(&proxy, &mut rng);
        assert!(loss.is_finite());

        let subtasks = vec![
            synth.sample_classes(80, &[0, 1], 0, &mut rng),
            synth.sample_classes(80, &[2, 3], 0, &mut rng),
        ];
        let out = c.enhance(&subtasks, &mut rng);
        assert!(out.final_loss.is_finite());
    }
}

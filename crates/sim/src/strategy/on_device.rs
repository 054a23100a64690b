//! The three baselines that adapt without the cloud in the loop: the
//! static pre-trained model (NA), private on-device fine-tuning (LA) and
//! the multi-branch AdaptiveNet supernet (AN).

use super::state::{dense_export, dense_import};
use super::{dense_footprint, pretrain_dense, AdaptStrategy, Footprint, StrategyConfig, StrategyState};
use crate::device::SimDevice;
use crate::faults::RoundReport;
use crate::latency::adaptation_latency_ms;
use crate::network::{transfer_time_ms, CommTracker};
use crate::world::SimWorld;
use nebula_baselines::{local_adapt, AdaptiveNet, DenseModel};
use nebula_core::RoundStats;
use nebula_nn::Layer;
use nebula_tensor::NebulaRng;
use nebula_wire::DensePool;
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// No Adaptation
// ---------------------------------------------------------------------------

/// The pre-trained cloud model used as-is on every device.
pub struct NoAdaptStrategy {
    cfg: StrategyConfig,
    model: DenseModel,
}

impl NoAdaptStrategy {
    pub fn new(cfg: StrategyConfig, seed: u64) -> Self {
        let model = cfg.dense_model(seed);
        Self { cfg, model }
    }
}

impl AdaptStrategy for NoAdaptStrategy {
    fn name(&self) -> &'static str {
        "NA"
    }

    fn offline(&mut self, world: &mut SimWorld, rng: &mut NebulaRng) {
        pretrain_dense(&mut self.model, &self.cfg, world, rng);
    }

    fn track(&mut self, _ids: &[usize]) {}

    fn adaptation_step(&mut self, _world: &mut SimWorld, _rng: &mut NebulaRng) -> RoundStats {
        RoundStats::default()
    }

    fn device_accuracy(&mut self, world: &mut SimWorld, id: usize) -> f32 {
        nebula_data::evaluate_accuracy(&mut self.model, &world.devices[id].test, 64)
    }

    fn footprint(&self, _world: &SimWorld, _id: usize) -> Footprint {
        dense_footprint(&self.model, 1.0)
    }

    fn export_state(&self) -> Option<StrategyState> {
        Some(dense_export("NA", &self.model))
    }

    fn import_state(&mut self, state: &StrategyState) -> Result<(), String> {
        dense_import("NA", &mut self.model, state)
    }
}

// ---------------------------------------------------------------------------
// Local Adaptation
// ---------------------------------------------------------------------------

/// Each tracked device fine-tunes a private full-model copy on its fresh
/// local data every step.
pub struct LocalAdaptStrategy {
    cfg: StrategyConfig,
    base: DenseModel,
    device_models: HashMap<usize, DenseModel>,
    tracked: Vec<usize>,
}

impl LocalAdaptStrategy {
    pub fn new(cfg: StrategyConfig, seed: u64) -> Self {
        let base = cfg.dense_model(seed);
        Self { cfg, base, device_models: HashMap::new(), tracked: Vec::new() }
    }
}

impl AdaptStrategy for LocalAdaptStrategy {
    fn name(&self) -> &'static str {
        "LA"
    }

    fn offline(&mut self, world: &mut SimWorld, rng: &mut NebulaRng) {
        pretrain_dense(&mut self.base, &self.cfg, world, rng);
    }

    fn track(&mut self, ids: &[usize]) {
        self.tracked = ids.to_vec();
    }

    fn adaptation_step(&mut self, world: &mut SimWorld, rng: &mut NebulaRng) -> RoundStats {
        let mut time_ms = 0.0;
        for &id in &self.tracked.clone() {
            let model = self.device_models.entry(id).or_insert_with(|| self.base.deep_clone());
            let dev = &world.devices[id];
            let mut drng = rng.fork(id as u64);
            local_adapt(
                model,
                &dev.partition.data,
                self.cfg.finetune_epochs,
                self.cfg.batch_size,
                self.cfg.local_lr,
                &mut drng,
            );
            time_ms += adaptation_latency_ms(
                &dev.resources,
                // Forward MACs of a dense model: one per weight.
                model.param_count() as u64,
                dev.volume(),
                self.cfg.finetune_epochs,
                self.cfg.batch_size,
            );
        }
        RoundStats {
            comm: CommTracker::new(),
            adapt_time_ms: time_ms / self.tracked.len().max(1) as f64,
            faults: RoundReport::default(),
        }
    }

    fn device_accuracy(&mut self, world: &mut SimWorld, id: usize) -> f32 {
        let model = self.device_models.entry(id).or_insert_with(|| self.base.deep_clone());
        nebula_data::evaluate_accuracy(model, &world.devices[id].test, 64)
    }

    fn footprint(&self, _world: &SimWorld, _id: usize) -> Footprint {
        dense_footprint(&self.base, 1.0)
    }
}

// ---------------------------------------------------------------------------
// AdaptiveNet-style
// ---------------------------------------------------------------------------

/// Multi-branch supernet; each tracked device adapts its selected branch
/// locally.
pub struct AdaptiveNetStrategy {
    cfg: StrategyConfig,
    an: AdaptiveNet,
    device_models: HashMap<usize, DenseModel>,
    tracked: Vec<usize>,
    /// Per-device wire channels: the one-time branch download is a real
    /// measured frame (AdaptiveNet never uploads).
    pool: DensePool,
}

impl AdaptiveNetStrategy {
    pub fn new(cfg: StrategyConfig, seed: u64) -> Self {
        let an = AdaptiveNet::new(cfg.dense_model(seed));
        let pool = cfg.dense_pool();
        Self { cfg, an, device_models: HashMap::new(), tracked: Vec::new(), pool }
    }

    fn branch_for(&self, dev: &SimDevice) -> f32 {
        let budget = (self.an.supernet().param_count() as f64 * dev.resources.budget_ratio as f64) as usize;
        self.an.select_branch(budget)
    }

    /// Ensures device `id` holds its branch model, downloading it over the
    /// wire on first contact. Returns the measured frame bytes (0 when the
    /// device already has its branch).
    fn ensure_branch(&mut self, id: usize, ratio: f32) -> u64 {
        if self.device_models.contains_key(&id) {
            return 0;
        }
        let (model, bytes) = self.an.branch_model_wire(ratio, id as u64, &mut self.pool);
        self.device_models.insert(id, model);
        bytes
    }
}

impl AdaptStrategy for AdaptiveNetStrategy {
    fn name(&self) -> &'static str {
        "AN"
    }

    fn offline(&mut self, world: &mut SimWorld, rng: &mut NebulaRng) {
        let proxy = world.proxy(self.cfg.proxy_samples);
        // Sandwich training is 3× the work per epoch; keep wall-clock
        // comparable to the single-branch baselines.
        let epochs = (self.cfg.pretrain_epochs / 2).max(1);
        self.an.pretrain(&proxy, epochs, 32, 0.05, rng);
    }

    fn track(&mut self, ids: &[usize]) {
        self.tracked = ids.to_vec();
    }

    fn adaptation_step(&mut self, world: &mut SimWorld, rng: &mut NebulaRng) -> RoundStats {
        let mut time_ms = 0.0;
        let mut comm = CommTracker::new();
        for &id in &self.tracked.clone() {
            let ratio = self.branch_for(&world.devices[id]);
            let bytes = self.ensure_branch(id, ratio);
            if bytes > 0 {
                comm.record_download(bytes);
                time_ms += transfer_time_ms(bytes, world.devices[id].resources.bandwidth_bps);
            }
            let model = self.device_models.get_mut(&id).expect("branch just ensured");
            let dev = &world.devices[id];
            let mut drng = rng.fork(id as u64 ^ 0xA0A0);
            local_adapt(
                model,
                &dev.partition.data,
                self.cfg.finetune_epochs,
                self.cfg.batch_size,
                self.cfg.local_lr,
                &mut drng,
            );
            time_ms += adaptation_latency_ms(
                &dev.resources,
                model.active_params(model.width_ratio()) as u64,
                dev.volume(),
                self.cfg.finetune_epochs,
                self.cfg.batch_size,
            );
        }
        RoundStats {
            comm,
            adapt_time_ms: time_ms / self.tracked.len().max(1) as f64,
            faults: RoundReport::default(),
        }
    }

    fn device_accuracy(&mut self, world: &mut SimWorld, id: usize) -> f32 {
        let ratio = self.branch_for(&world.devices[id]);
        self.ensure_branch(id, ratio);
        let model = self.device_models.get_mut(&id).expect("branch just ensured");
        nebula_data::evaluate_accuracy(model, &world.devices[id].test, 64)
    }

    fn footprint(&self, world: &SimWorld, id: usize) -> Footprint {
        let ratio = self.branch_for(&world.devices[id]);
        dense_footprint(self.an.supernet(), ratio)
    }
}

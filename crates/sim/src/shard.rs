//! Sharded round engine for 10^5–10^6-device populations (DESIGN.md §14).
//!
//! [`crate::world::SimWorld`] materializes every device up front — right
//! for the paper's 500-device population, hopeless at a million. Here the
//! population is *virtual*: a device's hardware, sub-task and data volume
//! are a pure function of `(world seed, device id)`, materialized only for
//! the devices a round actually samples. Peak memory is therefore flat in
//! the population size and linear in the sampled cohort.
//!
//! ## Topology
//!
//! The id space is split into fixed-size **cells**; contiguous runs of
//! cells form **shards**, one simulated edge server each. A round samples
//! a per-cell quota with a per-`(seed, round, cell)` RNG, so *which*
//! devices participate never depends on the shard count. Each shard
//! derives and dispatches its devices' sub-models from the cloud model
//! (the round does not change the cloud until the partials are absorbed,
//! so every shard reads the same parameters), folds each cell's updates
//! into one [`EdgePartial`], and ships its partials over the backhaul; the
//! cloud merges them in shard order ([`NebulaCloud::absorb_partials`]).
//!
//! Rounds are an engine benchmark, not a learning simulation: a device's
//! importance comes from its RNG and its "update" is the dispatched
//! sub-model plus a small deterministic perturbation. That exercises
//! derive → dispatch → fold → absorb and all byte/latency accounting
//! without data synthesis or SGD, so rounds over 10^5–10^6-device
//! populations fit a laptop.
//!
//! ## Determinism
//!
//! Floating-point addition does not associate, so *where* partials are
//! cut decides which trajectories are bit-reproducible. A shard emits one
//! partial per cell and the cloud merges partials in global cell order —
//! shard-order concatenation of per-shard partials *is* cell order because
//! shards are contiguous cell ranges. Trajectories are bit-identical for
//! every shard count.
//!
//! ## Simulated time
//!
//! The round clock is the synchronous-round model, not host wall-clock:
//! devices compute and use their own links in parallel, but every
//! aggregation point serializes the uploads crossing its ingress. Flat
//! (`shards == 1`) puts all sampled uploads through one device-facing
//! ingress; hierarchical puts `1/S` of them through each edge's ingress in
//! parallel and ships model-sized partials up a fast backhaul — which is
//! where the near-linear round-time speedup in `S` comes from. Host
//! wall-clock on an N-core machine additionally benefits from shard
//! parallelism ([`nebula_tensor::par::map`]), which this module also
//! exploits but does not model.

use crate::durability::RunError;
use crate::latency::adaptation_latency_ms;
use crate::network::transfer_time_ms;
use crate::resources::{DeviceResources, ResourceSampler};
use nebula_core::edge::update_bytes;
use nebula_core::{EdgePartial, EdgeUpdate, NebulaCloud, NebulaParams, ResourceProfile};
use nebula_data::SynthSpec;
use nebula_modular::cost::CostModel;
use nebula_modular::ModularConfig;
use nebula_tensor::NebulaRng;
use serde::Serialize;

/// Fixed-size block of device ids: the unit of canonical sampling and of
/// edge partials. Cell layout depends only on `(population, cell_size)`,
/// never on the shard count.
const DEFAULT_CELL_SIZE: usize = 256;

/// How devices map onto edge shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct ShardSpec {
    /// Edge servers (parallel aggregation points). `1` = flat
    /// direct-to-cloud.
    pub shards: usize,
    /// Devices per cell (256 by default).
    pub cell_size: usize,
}

impl ShardSpec {
    pub fn new(shards: usize) -> Self {
        Self { shards, cell_size: DEFAULT_CELL_SIZE }
    }
}

/// Device-facing ingress of one aggregation point (flat cloud or one edge
/// server), bits/sec. 100 Mbps — WiFi-AP/MEC class, the shared hop above
/// the paper's ~20 Mbps per-device WiFi links.
const INGRESS_BPS: f64 = 100e6;
/// Dedicated per-edge backhaul to the cloud, bits/sec (1 Gbps).
const BACKHAUL_BPS: f64 = 1e9;
/// Cloud ingress absorbing edge partials, bits/sec (10 Gbps).
const CLOUD_INGRESS_BPS: f64 = 10e9;
/// Local epochs and batch size each virtual device's compute is billed
/// for.
const LOCAL_EPOCHS: usize = 1;
const BATCH_SIZE: usize = 16;

/// Configuration of a sharded population run.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Total virtual devices.
    pub population: usize,
    /// Devices sampled per round (spread over cells).
    pub devices_per_round: usize,
    pub spec: ShardSpec,
}

impl ShardConfig {
    /// A population of `population` devices sampled `devices_per_round`
    /// at a time across `shards` edges.
    pub fn new(population: usize, devices_per_round: usize, shards: usize) -> Self {
        Self { population, devices_per_round, spec: ShardSpec::new(shards) }
    }
}

/// One materialized virtual device (only ever built for sampled ids).
struct VirtualDevice {
    resources: DeviceResources,
    /// Local data volume it reports (its aggregation weight).
    volume: usize,
}

/// What one sharded round did: aggregation accounting plus the simulated
/// synchronous-round clock.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ShardRound {
    pub round: u64,
    pub population: usize,
    pub shards: usize,
    /// Devices the round sampled (per-cell quotas; always equals the
    /// configured `devices_per_round`).
    pub sampled: usize,
    /// Updates the sanitize gate accepted.
    pub accepted: usize,
    /// Updates it rejected (non-finite or norm outlier).
    pub rejected: usize,
    /// Accepted updates that bypassed the norm-outlier check — streaming
    /// folds cannot run it (see
    /// [`nebula_core::SanitizePolicy::norm_outlier_ratio`]), so a zero
    /// `rejected` with this non-zero is absence of evidence, not a clean
    /// round.
    pub outlier_check_skipped: usize,
    /// Modules that received at least one accepted contribution.
    pub touched: usize,
    /// Simulated synchronous round wall-clock, ms.
    pub sim_round_ms: f64,
    /// Slowest device's local compute + own-link transfer, ms.
    pub sim_max_device_ms: f64,
    /// Slowest aggregation point's upload-serialization time, ms.
    pub sim_ingress_ms: f64,
    /// Slowest edge's backhaul + the cloud's partial-ingress time, ms
    /// (zero when flat).
    pub sim_backhaul_ms: f64,
    /// Device→edge (or device→cloud when flat) upload bytes.
    pub device_upload_bytes: u64,
    /// Edge→cloud partial bytes (zero when flat).
    pub partial_upload_bytes: u64,
}

impl ShardRound {
    /// Simulated round throughput.
    pub fn devices_per_sec(&self) -> f64 {
        if self.sim_round_ms <= 0.0 {
            return 0.0;
        }
        self.sampled as f64 / (self.sim_round_ms / 1e3)
    }
}

/// What one shard's worker produced.
struct ShardResult {
    /// One partial per sampled cell, in cell order.
    partials: Vec<EdgePartial>,
    max_device_ms: f64,
    ingress_bytes: u64,
}

/// splitmix64-style finalizer over a seed, a stream tag and a value:
/// every virtual-device and per-round stream is a pure function of its
/// coordinates, so materialization order can never leak into the draw.
fn mix(seed: u64, tag: u64, v: u64) -> u64 {
    let mut x = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ v.wrapping_mul(0xD1B5_4A32_D192_ED03);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

const TAG_DEVICE: u64 = 0xDE;
const TAG_CELL: u64 = 0xCE11;
const TAG_LOCAL: u64 = 0x10CA;

/// A virtual device population sharded across simulated edge servers.
pub struct ShardedWorld {
    cfg: ShardConfig,
    cloud: NebulaCloud,
    sampler: ResourceSampler,
    num_classes: usize,
    num_contexts: usize,
    seed: u64,
    round: u64,
}

impl ShardedWorld {
    /// Builds the world. The cloud model starts at its seeded
    /// initialization; devices draw their sub-tasks from
    /// [`SynthSpec::toy`]'s classes and contexts.
    pub fn new(modular: ModularConfig, cfg: ShardConfig, seed: u64) -> Result<Self, RunError> {
        if cfg.population == 0 {
            return Err(RunError::InvalidConfig("population must be at least 1".into()));
        }
        if cfg.devices_per_round == 0 || cfg.devices_per_round > cfg.population {
            return Err(RunError::InvalidConfig(format!(
                "devices_per_round {} must be in 1..={} (the population)",
                cfg.devices_per_round, cfg.population
            )));
        }
        if cfg.spec.shards == 0 {
            return Err(RunError::InvalidConfig("shard count must be at least 1".into()));
        }
        if cfg.spec.cell_size == 0 {
            return Err(RunError::InvalidConfig("cell size must be at least 1".into()));
        }
        let toy = SynthSpec::toy();
        Ok(Self {
            cfg,
            cloud: NebulaCloud::new(modular, NebulaParams::default(), seed),
            sampler: ResourceSampler::default(),
            num_classes: toy.classes,
            num_contexts: toy.contexts,
            seed,
            round: 0,
        })
    }

    pub fn cloud(&self) -> &NebulaCloud {
        &self.cloud
    }

    /// Cells in the id space (last one may be short).
    pub fn cells(&self) -> usize {
        self.cfg.population.div_ceil(self.cfg.spec.cell_size)
    }

    fn cell_bounds(&self, cell: usize) -> (usize, usize) {
        let start = cell * self.cfg.spec.cell_size;
        (start, (start + self.cfg.spec.cell_size).min(self.cfg.population))
    }

    /// Sampling quota of `cell` this round: `devices_per_round` spread as
    /// evenly as the cell grid allows, independent of the shard count.
    /// When the even spread would overrun the trailing short cell, that
    /// cell saturates and the remainder respreads over the full-width
    /// cells, so the quotas always sum to exactly `devices_per_round`
    /// (config validation guarantees the grid has the capacity).
    fn cell_quota(&self, cell: usize) -> usize {
        let cells = self.cells();
        let base = self.cfg.devices_per_round / cells;
        // Only the trailing cell can be narrower than `cell_size`, so at
        // most one saturation is ever needed, and the respread over the
        // equal-width rest cannot overrun them (their combined capacity
        // covers anything the validated `devices_per_round` leaves over).
        let last_width = self.cfg.population - (cells - 1) * self.cfg.spec.cell_size;
        if base <= last_width {
            // The even spread fits as-is: the last cell never takes a
            // remainder unit (its index is never below the remainder),
            // and a full cell's `base + 1` is at most `cell_size`.
            base + usize::from(cell < self.cfg.devices_per_round % cells)
        } else if cell == cells - 1 {
            last_width
        } else {
            let rest = self.cfg.devices_per_round - last_width;
            let full = cells - 1;
            rest / full + usize::from(cell < rest % full)
        }
    }

    /// Materializes device `id` from its seed. Pure in `(world seed, id)`.
    fn materialize(&self, id: usize) -> VirtualDevice {
        let mut rng = NebulaRng::seed(mix(self.seed, TAG_DEVICE, id as u64));
        let resources = self.sampler.sample(&mut rng);
        // Draws for a label-skew class pair and a sensing context that
        // nothing reads, kept so the volume keeps its bits.
        rng.below(self.num_classes);
        if self.num_classes > 1 {
            rng.below(self.num_classes - 1);
        }
        rng.below(self.num_contexts.max(1));
        let volume = 50 + rng.below(150);
        VirtualDevice { resources, volume }
    }

    fn profile(dev: &DeviceResources, cost: &CostModel) -> ResourceProfile {
        let full = cost.full_model();
        let r = dev.budget_ratio as f64;
        ResourceProfile {
            mem_bytes: ((full.training_mem_bytes as f64) * r) as u64,
            flops: ((full.flops as f64) * r) as u64,
            comm_bytes: ((full.comm_bytes as f64) * r) as u64,
        }
    }

    /// One device's round: derive and dispatch from the cloud, perturb
    /// the sub-model into an update, and its cost terms.
    fn device_round(&self, id: usize, round: u64) -> (EdgeUpdate, f64) {
        let dev = self.materialize(id);
        let cost = self.cloud.cost_model();
        let profile = Self::profile(&dev.resources, cost);
        let mut drng = NebulaRng::seed(mix(self.seed ^ round.rotate_left(17), TAG_LOCAL, id as u64));
        let modular = self.cloud.model().config();
        let imp: Vec<Vec<f32>> = (0..modular.num_layers)
            .map(|_| (0..modular.modules_per_layer).map(|_| drng.uniform_f32(0.05, 1.0)).collect())
            .collect();
        let outcome = self.cloud.derive_for_importance(&imp, &profile, None);
        let payload = self.cloud.dispatch(&outcome.spec);
        let mut module_params = payload.module_params;
        for params in module_params.values_mut() {
            for v in params.iter_mut() {
                *v += drng.normal_f32(0.0, 1e-3);
            }
        }
        let mut shared_params = payload.shared_params;
        for v in shared_params.iter_mut() {
            *v += drng.normal_f32(0.0, 1e-3);
        }
        let update = EdgeUpdate {
            spec: outcome.spec,
            module_params,
            shared_params,
            importance: imp,
            data_volume: dev.volume,
        };
        let flops = cost.submodel(&update.spec).flops;
        // Down + up: the dispatched sub-model and the update are the same
        // tensors, so the exchange is twice the update's wire size.
        let exchange = 2 * update_bytes(&update);
        let device_ms = adaptation_latency_ms(&dev.resources, flops, dev.volume, LOCAL_EPOCHS, BATCH_SIZE)
            + transfer_time_ms(exchange, dev.resources.bandwidth_bps);
        (update, device_ms)
    }

    /// Runs shard `s` of `round`: walk the shard's cells in order and fold
    /// each cell's sampled devices into one partial.
    fn run_shard(&self, s: usize, round: u64, cells_per_shard: usize) -> ShardResult {
        let cells = self.cells();
        let lo = s * cells_per_shard;
        let hi = ((s + 1) * cells_per_shard).min(cells);
        let mut max_device_ms = 0.0f64;
        let mut ingress_bytes = 0u64;
        let mut partials = Vec::with_capacity(hi.saturating_sub(lo));
        for cell in lo..hi {
            let quota = self.cell_quota(cell);
            if quota == 0 {
                continue;
            }
            let (start, end) = self.cell_bounds(cell);
            let mut cell_rng = NebulaRng::seed(mix(self.seed ^ round, TAG_CELL, cell as u64));
            let mut offsets = cell_rng.sample_indices(end - start, quota);
            // Canonical fold order within the cell: ascending device id.
            offsets.sort_unstable();
            let updates = offsets.into_iter().map(|off| {
                let (update, device_ms) = self.device_round(start + off, round);
                max_device_ms = max_device_ms.max(device_ms);
                ingress_bytes += update_bytes(&update);
                update
            });
            partials.push(EdgePartial::fold(updates));
        }
        ShardResult { partials, max_device_ms, ingress_bytes }
    }

    /// Runs one round over the sharded population and folds the result
    /// into the cloud model. Shards run on the process's threads
    /// (`par::map`); partials merge in shard order.
    pub fn run_round(&mut self) -> ShardRound {
        let round = self.round;
        self.round += 1;
        let shards = self.cfg.spec.shards;
        let cells = self.cells();
        let cells_per_shard = cells.div_ceil(shards);
        let results: Vec<ShardResult> =
            nebula_tensor::par::map((0..shards).collect(), |s| self.run_shard(s, round, cells_per_shard));

        let sampled: usize = results.iter().flat_map(|r| &r.partials).map(|p| p.devices).sum();
        let device_upload_bytes: u64 = results.iter().map(|r| r.ingress_bytes).sum();
        let max_device_ms = results.iter().map(|r| r.max_device_ms).fold(0.0f64, f64::max);
        let (sim_ingress_ms, sim_backhaul_ms, partial_upload_bytes);
        if shards == 1 {
            // Flat: every sampled upload crosses the cloud's device-facing
            // ingress; there is no backhaul hop.
            sim_ingress_ms = transfer_time_ms(device_upload_bytes, INGRESS_BPS);
            sim_backhaul_ms = 0.0;
            partial_upload_bytes = 0;
        } else {
            sim_ingress_ms =
                results.iter().map(|r| transfer_time_ms(r.ingress_bytes, INGRESS_BPS)).fold(0.0f64, f64::max);
            let shard_bytes: Vec<u64> =
                results.iter().map(|r| r.partials.iter().map(EdgePartial::wire_bytes).sum()).collect();
            let max_backhaul =
                shard_bytes.iter().map(|&b| transfer_time_ms(b, BACKHAUL_BPS)).fold(0.0f64, f64::max);
            partial_upload_bytes = shard_bytes.iter().sum();
            sim_backhaul_ms = max_backhaul + transfer_time_ms(partial_upload_bytes, CLOUD_INGRESS_BPS);
        }
        let sim_round_ms = max_device_ms + sim_ingress_ms + sim_backhaul_ms;

        let partials: Vec<EdgePartial> = results.into_iter().flat_map(|r| r.partials).collect();
        let outcome = self.cloud.absorb_partials(&partials);
        ShardRound {
            round,
            population: self.cfg.population,
            shards,
            sampled,
            accepted: outcome.sanitize.accepted,
            rejected: outcome.sanitize.rejected(),
            outlier_check_skipped: outcome.sanitize.outlier_check_skipped,
            touched: outcome.touched,
            sim_round_ms,
            sim_max_device_ms: max_device_ms,
            sim_ingress_ms,
            sim_backhaul_ms,
            device_upload_bytes,
            partial_upload_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nebula_nn::Layer;

    fn toy_world(population: usize, k: usize, shards: usize) -> ShardedWorld {
        let mut modular = ModularConfig::toy(8, 3);
        modular.gate_noise_std = 0.0;
        let mut cfg = ShardConfig::new(population, k, shards);
        cfg.spec.cell_size = 64;
        ShardedWorld::new(modular, cfg, 42).expect("valid config")
    }

    #[test]
    fn materialization_is_pure_in_seed_and_id() {
        let w = toy_world(512, 32, 2);
        let a = w.materialize(137);
        let b = w.materialize(137);
        assert_eq!(a.resources.ram_bytes, b.resources.ram_bytes);
        assert_eq!(a.volume, b.volume);
        // Neighbouring ids draw different devices.
        let c = w.materialize(138);
        assert!(a.resources.ram_bytes != c.resources.ram_bytes || a.volume != c.volume);
    }

    #[test]
    fn quotas_cover_devices_per_round() {
        let w = toy_world(1000, 100, 4);
        let total: usize = (0..w.cells()).map(|c| w.cell_quota(c)).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn quotas_respread_around_a_saturated_short_cell() {
        // population=70, cell_size=64 → widths {64, 6}. The even spread
        // (30, 30) would overrun the short cell; it saturates at 6 and
        // the rest moves to the full cell instead of being dropped.
        let w = toy_world(70, 60, 2);
        let quotas: Vec<usize> = (0..w.cells()).map(|c| w.cell_quota(c)).collect();
        assert_eq!(quotas, vec![54, 6]);
    }

    #[test]
    fn quotas_sum_exactly_and_fit_cell_widths() {
        // Sweep the regimes: short trailing cell (saturated and not),
        // full-capacity rounds, grid-aligned populations, one cell.
        for &(pop, dpr) in &[
            (70usize, 60usize),
            (70, 70),
            (129, 128),
            (129, 129),
            (133, 133),
            (1000, 100),
            (65, 64),
            (128, 128),
            (63, 63),
            (1, 1),
        ] {
            let w = toy_world(pop, dpr, 1);
            let mut total = 0;
            for c in 0..w.cells() {
                let q = w.cell_quota(c);
                let (start, end) = w.cell_bounds(c);
                assert!(
                    q <= end - start,
                    "pop={pop} dpr={dpr} cell={c}: quota {q} exceeds width {}",
                    end - start
                );
                total += q;
            }
            assert_eq!(total, dpr, "pop={pop} dpr={dpr}: quotas must cover the round");
        }
    }

    #[test]
    fn per_cell_fold_is_shard_count_invariant() {
        let mut a = toy_world(512, 64, 1);
        let mut b = toy_world(512, 64, 8);
        for _ in 0..3 {
            let ra = a.run_round();
            let rb = b.run_round();
            assert_eq!(ra.sampled, rb.sampled);
        }
        let pa = a.cloud().model().param_vector();
        let pb = b.cloud().model().param_vector();
        for (x, y) in pa.iter().zip(&pb) {
            assert_eq!(x.to_bits(), y.to_bits(), "trajectory depends on the shard count");
        }
    }

    #[test]
    fn hierarchical_round_is_simulated_faster_than_flat() {
        let mut flat = toy_world(4096, 512, 1);
        let mut hier = toy_world(4096, 512, 8);
        let rf = flat.run_round();
        let rh = hier.run_round();
        assert_eq!(rf.sampled, rh.sampled);
        assert!(
            rh.sim_round_ms < rf.sim_round_ms,
            "hierarchical {} ms should beat flat {} ms",
            rh.sim_round_ms,
            rf.sim_round_ms
        );
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let modular = ModularConfig::toy(8, 3);
        let bad = ShardConfig::new(0, 1, 1);
        assert!(matches!(ShardedWorld::new(modular.clone(), bad, 1), Err(RunError::InvalidConfig(_))));
        let mut bad = ShardConfig::new(10, 20, 1);
        bad.devices_per_round = 20;
        assert!(matches!(ShardedWorld::new(modular.clone(), bad, 1), Err(RunError::InvalidConfig(_))));
        let mut bad = ShardConfig::new(10, 5, 1);
        bad.spec.shards = 0;
        assert!(matches!(ShardedWorld::new(modular, bad, 1), Err(RunError::InvalidConfig(_))));
    }

    #[test]
    fn sanitize_accounting_matches_sampled() {
        let mut w = toy_world(512, 50, 4);
        let r = w.run_round();
        assert_eq!(r.sampled, 50);
        assert_eq!(r.accepted + r.rejected, 50, "every sampled device is accounted");
        assert!(r.touched > 0, "a clean round must touch modules");
    }
}

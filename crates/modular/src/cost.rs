//! Resource cost model for modules and sub-models.
//!
//! The paper derives sub-models under memory / computation / communication
//! constraints (Eq. 2). Module structures are fixed at modularization time,
//! so their costs are computed once on the cloud ("we are able to calculate
//! their resource costs in advance") and summed per candidate sub-model.
//!
//! Conventions:
//! * `params` — trainable scalar count;
//! * `flops` — multiply-accumulates for a single-sample forward pass;
//! * training cost ≈ 3× inference flops (forward + 2 backward products),
//!   and training peak memory ≈ params + activations + gradients +
//!   optimiser state, which is why the paper's Fig. 2(c) shows ≥10×
//!   training-vs-inference memory for convolutional models; for our MLP
//!   substrate the ratio is smaller but the monotonicity is preserved.

use crate::config::ModularConfig;
use crate::submodel::SubModelSpec;
use serde::{Deserialize, Serialize};

/// Bytes per f32 parameter.
const BYTES_PER_PARAM: u64 = 4;

/// Cost of a single component (module or shared part).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModuleCost {
    /// Trainable parameters.
    pub params: u64,
    /// Forward multiply-accumulates per sample.
    pub flops: u64,
}

impl ModuleCost {
    /// Cost of a shrunk module `d → h → d`.
    pub fn shrunk(d: usize, h: usize) -> Self {
        let params = (d * h + h) + (h * d + d);
        let flops = d * h + h * d;
        Self { params: params as u64, flops: flops as u64 }
    }

    /// Cost of the parameter-free residual module.
    pub fn residual() -> Self {
        Self { params: 0, flops: 0 }
    }

    /// Cost of a dense layer `in → out`.
    pub fn linear(input: usize, output: usize) -> Self {
        Self { params: (input * output + output) as u64, flops: (input * output) as u64 }
    }

    /// Parameter bytes (f32).
    pub fn param_bytes(self) -> u64 {
        self.params * BYTES_PER_PARAM
    }
}

impl std::ops::Add for ModuleCost {
    type Output = ModuleCost;

    /// Component sum.
    fn add(self, other: ModuleCost) -> ModuleCost {
        ModuleCost { params: self.params + other.params, flops: self.flops + other.flops }
    }
}

impl std::ops::AddAssign for ModuleCost {
    fn add_assign(&mut self, other: ModuleCost) {
        *self = *self + other;
    }
}

/// Aggregate resource profile of a sub-model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SubModelCost {
    /// Total trainable parameters (modules + shared parts).
    pub params: u64,
    /// Forward multiply-accumulates per sample.
    pub flops: u64,
    /// Bytes transmitted when shipping the sub-model (params × 4).
    pub comm_bytes: u64,
    /// Estimated peak *inference* memory in bytes
    /// (parameters + one activation set).
    pub inference_mem_bytes: u64,
    /// Estimated peak *training* memory in bytes
    /// (params + grads + optimiser state + cached activations).
    pub training_mem_bytes: u64,
}

/// Cost calculator for a given modular configuration.
#[derive(Clone, Debug)]
pub struct CostModel {
    cfg: ModularConfig,
}

impl CostModel {
    pub fn new(cfg: ModularConfig) -> Self {
        Self { cfg }
    }

    /// Cost of module `(layer, index)` under the configuration.
    pub fn module(&self, _layer: usize, index: usize) -> ModuleCost {
        let is_residual = self.cfg.residual_module && index == self.cfg.modules_per_layer - 1;
        if is_residual {
            ModuleCost::residual()
        } else {
            ModuleCost::shrunk(self.cfg.width, self.cfg.module_hidden)
        }
    }

    /// Cost of the shared parts: stem + head + selector.
    pub fn shared(&self) -> ModuleCost {
        let stem = match &self.cfg.conv_stem {
            None => ModuleCost::linear(self.cfg.input_dim, self.cfg.width),
            Some(cs) => {
                // Conv1d (same padding, stride 1) + projection Linear.
                let conv = ModuleCost {
                    params: (cs.out_channels * cs.in_channels * cs.kernel + cs.out_channels) as u64,
                    flops: (cs.out_channels * cs.in_channels * cs.kernel * cs.in_len) as u64,
                };
                conv + ModuleCost::linear(cs.pooled_features(), self.cfg.width)
            }
        };
        let head = ModuleCost::linear(self.cfg.width, self.cfg.classes);
        let embed = ModuleCost::linear(self.cfg.input_dim, self.cfg.selector_embed);
        let gates = ModuleCost {
            params: (self.cfg.num_layers
                * (self.cfg.selector_embed * self.cfg.modules_per_layer + self.cfg.modules_per_layer))
                as u64,
            flops: (self.cfg.num_layers * self.cfg.selector_embed * self.cfg.modules_per_layer) as u64,
        };
        stem + head + embed + gates
    }

    /// Training-memory increment of adding module `(layer, index)` to a
    /// sub-model: parameter state (params + grads + momentum) plus the
    /// module's share of the batch activation cache. Summing this over a
    /// spec's modules plus [`CostModel::base_training_mem_bytes`]
    /// reproduces [`SubModelCost::training_mem_bytes`] exactly — the
    /// identity Eq. 2's memory dimension relies on.
    pub fn module_training_mem_bytes(&self, layer: usize, index: usize) -> u64 {
        let m = self.module(layer, index);
        3 * m.param_bytes() + Self::BATCH * self.cfg.module_hidden as u64 * BYTES_PER_PARAM
    }

    /// Training-memory cost of the mandatory shared parts (stem, head,
    /// selector) plus the trunk activation cache, before any module.
    pub fn base_training_mem_bytes(&self, num_layers: usize) -> u64 {
        3 * self.shared().param_bytes()
            + Self::BATCH * (self.cfg.width * (num_layers + 2)) as u64 * BYTES_PER_PARAM
    }

    /// The batch size the training-memory model assumes (paper §6.1).
    pub const BATCH: u64 = 16;

    /// Full cost profile of a sub-model.
    pub fn submodel(&self, spec: &SubModelSpec) -> SubModelCost {
        spec.validate(self.cfg.num_layers, self.cfg.modules_per_layer);
        let mut total = self.shared();
        for (l, layer) in spec.layers().iter().enumerate() {
            for &i in layer {
                total += self.module(l, i);
            }
        }
        self.finish(total, spec)
    }

    /// Cost profile of the full model.
    pub fn full_model(&self) -> SubModelCost {
        let spec = SubModelSpec::full(self.cfg.num_layers, self.cfg.modules_per_layer);
        self.submodel(&spec)
    }

    fn finish(&self, total: ModuleCost, spec: &SubModelSpec) -> SubModelCost {
        let param_bytes = total.param_bytes();
        // Activations: trunk width per module layer plus module bottlenecks,
        // per sample; training caches them all, inference keeps ~2 buffers.
        let act_per_sample = (self.cfg.width * (spec.num_layers() + 2)
            + self.cfg.module_hidden * spec.total_modules()) as u64
            * BYTES_PER_PARAM;
        let batch = Self::BATCH; // paper's batch size
        SubModelCost {
            params: total.params,
            flops: total.flops,
            comm_bytes: param_bytes,
            inference_mem_bytes: param_bytes + 2 * (self.cfg.width as u64) * BYTES_PER_PARAM,
            // params + grads + SGD momentum + activation cache for a batch.
            training_mem_bytes: 3 * param_bytes + batch * act_per_sample,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost_model() -> CostModel {
        CostModel::new(ModularConfig::toy(16, 4))
    }

    #[test]
    fn shrunk_module_cost_formula() {
        let c = ModuleCost::shrunk(8, 3);
        assert_eq!(c.params, (8 * 3 + 3 + 3 * 8 + 8) as u64);
        assert_eq!(c.flops, (8 * 3 + 3 * 8) as u64);
    }

    #[test]
    fn residual_module_is_free() {
        let cm = cost_model();
        // toy config: residual_module = true, so the last index is free.
        let c = cm.module(0, 3);
        assert_eq!(c, ModuleCost::residual());
        assert!(cm.module(0, 0).params > 0);
    }

    #[test]
    fn module_cost_matches_actual_model() {
        use crate::model::ModularModel;
        let cfg = ModularConfig::toy(16, 4);
        let cm = CostModel::new(cfg.clone());
        let m = ModularModel::new(cfg, 1);
        assert_eq!(cm.module(0, 0).params as usize, m.module_param_count(0, 0));
        assert_eq!(cm.module(1, 3).params as usize, m.module_param_count(1, 3));
    }

    #[test]
    fn submodel_cost_grows_with_module_count() {
        let cm = cost_model();
        let small = cm.submodel(&SubModelSpec::new(vec![vec![0], vec![0]]));
        let big = cm.full_model();
        assert!(big.params > small.params);
        assert!(big.comm_bytes > small.comm_bytes);
        assert!(big.training_mem_bytes > small.training_mem_bytes);
    }

    #[test]
    fn training_memory_exceeds_inference_memory() {
        let cm = cost_model();
        let c = cm.full_model();
        assert!(
            c.training_mem_bytes > 3 * c.inference_mem_bytes,
            "training {} vs inference {}",
            c.training_mem_bytes,
            c.inference_mem_bytes
        );
    }

    #[test]
    fn comm_bytes_is_four_per_param() {
        let cm = cost_model();
        let c = cm.full_model();
        assert_eq!(c.comm_bytes, c.params * 4);
    }
}

//! Configuration of a modularized model.

use serde::{Deserialize, Serialize};

/// Hyper-parameters of a [`crate::ModularModel`].
///
/// The paper's configurations (§6.1 "Parameter settings"):
/// * MLP (HAR): 1 module layer × 16 modules;
/// * ResNet18 (CIFAR-10): 4 module layers × 16 modules;
/// * VGG16 / ResNet34: last 3 blocks modularized, 32 modules each.
///
/// All module layers share the same `width` so the parameter-free residual
/// module (input bypass) is well-typed at every layer.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ModularConfig {
    /// Input feature dimensionality.
    pub input_dim: usize,
    /// Number of output classes.
    pub classes: usize,
    /// Hidden width of the trunk (stem output and every module layer).
    pub width: usize,
    /// Number of module layers `L`.
    pub num_layers: usize,
    /// Modules per layer `N(l)` (uniform across layers).
    pub modules_per_layer: usize,
    /// Hidden (bottleneck) width inside each shrunk module.
    pub module_hidden: usize,
    /// Whether each layer's last module is a parameter-free residual
    /// (bypass) module instead of a shrunk block.
    pub residual_module: bool,
    /// Modules activated per sample per layer.
    pub top_k: usize,
    /// Width of the selector's embedding network.
    pub selector_embed: usize,
    /// Std-dev of the Gaussian logit noise used by noisy top-k in training
    /// (0 disables the noise).
    pub gate_noise_std: f32,
    /// Weight λ of the load-balancing loss added during end-to-end training.
    pub load_balance_weight: f32,
}

impl ModularConfig {
    /// A small configuration used throughout the test suites.
    pub fn toy(input_dim: usize, classes: usize) -> Self {
        Self {
            input_dim,
            classes,
            width: 32,
            num_layers: 2,
            modules_per_layer: 4,
            module_hidden: 16,
            residual_module: true,
            top_k: 2,
            selector_embed: 16,
            gate_noise_std: 0.5,
            load_balance_weight: 0.01,
        }
    }

    /// Validates internal consistency; the error names the first rule
    /// broken.
    pub fn validate(&self) -> Result<(), String> {
        let rules = [
            (self.input_dim > 0, "input_dim must be positive"),
            (self.classes > 1, "need at least two classes"),
            (self.width > 0, "width must be positive"),
            (self.num_layers > 0, "need at least one module layer"),
            (self.modules_per_layer >= 1, "need at least one module per layer"),
            (self.module_hidden > 0, "module_hidden must be positive"),
            (self.selector_embed > 0, "selector_embed must be positive"),
            (self.gate_noise_std >= 0.0, "gate_noise_std must be non-negative"),
            (self.load_balance_weight >= 0.0, "load_balance_weight must be non-negative"),
        ];
        if let Some((_, broken)) = rules.iter().find(|(ok, _)| !ok) {
            return Err(broken.to_string());
        }
        if self.top_k < 1 || self.top_k > self.modules_per_layer {
            return Err(format!("top_k {} must be in [1, {}]", self.top_k, self.modules_per_layer));
        }
        Ok(())
    }

    /// Total number of modules across all layers.
    pub fn total_modules(&self) -> usize {
        self.num_layers * self.modules_per_layer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toy_config_is_valid() {
        assert_eq!(ModularConfig::toy(16, 4).validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "top_k 100 must be in [1, 4]")]
    fn rejects_top_k_larger_than_modules() {
        let mut cfg = ModularConfig::toy(16, 4);
        cfg.top_k = 100;
        cfg.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "need at least two classes")]
    fn rejects_single_class() {
        let mut cfg = ModularConfig::toy(16, 4);
        cfg.classes = 1;
        cfg.validate().unwrap();
    }

    #[test]
    fn design_space_counts_modules() {
        let cfg = ModularConfig::toy(16, 4);
        assert_eq!(cfg.total_modules(), 8);
    }
}

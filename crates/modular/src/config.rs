//! Configuration of a modularized model.

use serde::{Deserialize, Serialize};

/// Optional convolutional stem for sequence tasks (speech/HAR): the raw
/// input is interpreted as `in_channels × in_len` (so
/// `in_channels · in_len` must equal [`ModularConfig::input_dim`]) and
/// passes through `Conv1d → ReLU → MaxPool1d → Linear → ReLU` before the
/// module layers. `None` uses the dense `Linear → ReLU` stem.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvStemConfig {
    pub in_channels: usize,
    pub in_len: usize,
    pub out_channels: usize,
    /// Odd kernel; the stem uses same-padding with stride 1.
    pub kernel: usize,
    /// Non-overlapping pooling window over the sequence axis.
    pub pool: usize,
}

impl ConvStemConfig {
    /// Flattened width after conv + pooling (the stem Linear's input).
    pub fn pooled_features(&self) -> usize {
        self.out_channels * (self.in_len / self.pool)
    }
}

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
    /// Optional convolutional stem for sequence inputs (`None` = dense).
    pub conv_stem: Option<ConvStemConfig>,
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
            conv_stem: None,
        }
    }

    /// Validates internal consistency; panics with a message on error.
    pub fn validate(&self) {
        assert!(self.input_dim > 0, "input_dim must be positive");
        assert!(self.classes > 1, "need at least two classes");
        assert!(self.width > 0, "width must be positive");
        assert!(self.num_layers > 0, "need at least one module layer");
        assert!(self.modules_per_layer >= 1, "need at least one module per layer");
        assert!(
            self.top_k >= 1 && self.top_k <= self.modules_per_layer,
            "top_k {} must be in [1, {}]",
            self.top_k,
            self.modules_per_layer
        );
        assert!(self.module_hidden > 0, "module_hidden must be positive");
        assert!(self.selector_embed > 0, "selector_embed must be positive");
        assert!(self.gate_noise_std >= 0.0, "gate_noise_std must be non-negative");
        assert!(self.load_balance_weight >= 0.0, "load_balance_weight must be non-negative");
        if let Some(cs) = &self.conv_stem {
            assert_eq!(
                cs.in_channels * cs.in_len,
                self.input_dim,
                "conv stem channels·length must equal input_dim"
            );
            assert!(cs.kernel % 2 == 1, "conv stem kernel must be odd (same padding)");
            assert!(cs.pool >= 1 && cs.in_len % cs.pool == 0, "pool must divide in_len");
            assert!(cs.out_channels >= 1);
        }
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
        ModularConfig::toy(16, 4).validate();
    }

    #[test]
    #[should_panic(expected = "top_k")]
    fn rejects_top_k_larger_than_modules() {
        let mut cfg = ModularConfig::toy(16, 4);
        cfg.top_k = 100;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "two classes")]
    fn rejects_single_class() {
        let mut cfg = ModularConfig::toy(16, 4);
        cfg.classes = 1;
        cfg.validate();
    }

    #[test]
    fn conv_stem_validation() {
        let mut cfg = ModularConfig::toy(16, 4);
        cfg.conv_stem =
            Some(ConvStemConfig { in_channels: 2, in_len: 8, out_channels: 4, kernel: 3, pool: 2 });
        cfg.validate();
        assert_eq!(cfg.conv_stem.unwrap().pooled_features(), 16);

        cfg.conv_stem =
            Some(ConvStemConfig { in_channels: 3, in_len: 8, out_channels: 4, kernel: 3, pool: 2 });
        let result = std::panic::catch_unwind(|| cfg.validate());
        assert!(result.is_err(), "mismatched channels·length must be rejected");
    }

    #[test]
    fn design_space_counts_modules() {
        let cfg = ModularConfig::toy(16, 4);
        assert_eq!(cfg.total_modules(), 8);
    }
}

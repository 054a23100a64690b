//! Per-task modular configurations mirroring the paper's §6.1 settings.

use nebula_data::TaskPreset;
use nebula_modular::ModularConfig;

/// The paper's modularization settings for each task/model pair:
///
/// | Task | Model | Module layers | Modules/layer |
/// |---|---|---|---|
/// | HAR | MLP | 1 | 16 |
/// | CIFAR-10 | ResNet18 | 4 | 16 |
/// | CIFAR-100 | VGG16 | 3 (last blocks) | 32 |
/// | Speech | ResNet34 | 3 (last blocks) | 32 |
///
/// Trunk widths are scaled to our synthetic feature dims (substitution
/// documented in DESIGN.md); the layer/module counts — the quantities the
/// paper's sensitivity analysis varies — match exactly.
pub fn modular_config_for(task: TaskPreset) -> ModularConfig {
    let spec = task.synth_spec();
    match task {
        TaskPreset::Har => ModularConfig {
            input_dim: spec.feature_dim,
            classes: spec.classes,
            width: 64,
            num_layers: 1,
            modules_per_layer: 16,
            module_hidden: 24,
            residual_module: true,
            top_k: 4,
            selector_embed: 32,
            gate_noise_std: 0.3,
            load_balance_weight: 0.02,
        },
        TaskPreset::Cifar10 => ModularConfig {
            input_dim: spec.feature_dim,
            classes: spec.classes,
            width: 96,
            num_layers: 4,
            modules_per_layer: 16,
            module_hidden: 24,
            residual_module: true,
            top_k: 4,
            selector_embed: 48,
            gate_noise_std: 0.3,
            load_balance_weight: 0.02,
        },
        TaskPreset::Cifar100 => ModularConfig {
            input_dim: spec.feature_dim,
            classes: spec.classes,
            width: 160,
            num_layers: 3,
            modules_per_layer: 32,
            module_hidden: 32,
            residual_module: true,
            top_k: 6,
            selector_embed: 64,
            gate_noise_std: 0.3,
            load_balance_weight: 0.02,
        },
        TaskPreset::SpeechCommands => ModularConfig {
            input_dim: spec.feature_dim,
            classes: spec.classes,
            width: 128,
            num_layers: 3,
            modules_per_layer: 32,
            module_hidden: 28,
            residual_module: true,
            top_k: 6,
            selector_embed: 48,
            gate_noise_std: 0.3,
            load_balance_weight: 0.02,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_validate() {
        for t in TaskPreset::all() {
            assert_eq!(modular_config_for(t).validate(), Ok(()), "{t:?}");
        }
    }

    #[test]
    fn layer_and_module_counts_match_paper() {
        let har = modular_config_for(TaskPreset::Har);
        assert_eq!((har.num_layers, har.modules_per_layer), (1, 16));
        let c10 = modular_config_for(TaskPreset::Cifar10);
        assert_eq!((c10.num_layers, c10.modules_per_layer), (4, 16));
        let c100 = modular_config_for(TaskPreset::Cifar100);
        assert_eq!((c100.num_layers, c100.modules_per_layer), (3, 32));
        let sp = modular_config_for(TaskPreset::SpeechCommands);
        assert_eq!((sp.num_layers, sp.modules_per_layer), (3, 32));
    }

    #[test]
    fn input_dims_match_synth_specs() {
        for t in TaskPreset::all() {
            assert_eq!(modular_config_for(t).input_dim, t.synth_spec().feature_dim);
            assert_eq!(modular_config_for(t).classes, t.classes());
        }
    }
}

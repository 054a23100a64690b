//! Offline stage: end-to-end pre-training and module ability-enhancing
//! training (§4.3).
//!
//! 1. **Vanilla end-to-end training** — the `ModularModel` already folds
//!    the load-balancing loss and noisy top-k into its forward/backward,
//!    so pre-training is a plain cross-entropy loop over proxy data.
//! 2. **Ability enhancing**:
//!    - define sub-tasks (groups of samples — e.g. co-occurring class
//!      groups under label skew, subjects under feature skew);
//!    - compute the load matrix `H[t][n]` = mean gate probability of
//!      module `n` over sub-task `t`'s samples, per layer;
//!    - solve Eq. 1 for the mask `M`; the target mapping is
//!      `P = normalize_rows(H ⊙ M)`;
//!    - fine-tune with `CE + λ·KL(g_label ‖ gate)` where each sample's
//!      `g_label` row is `P[t]` for its sub-task.

use nebula_data::{Dataset, TrainConfig};
use nebula_modular::ModularModel;
use nebula_nn::{cross_entropy, Layer, Mode, Optimizer, Sgd};
use nebula_opt::{solve_assignment, AssignmentProblem};
use nebula_tensor::{NebulaRng, Tensor};

/// Pre-training mini-batch size.
const PRETRAIN_BATCH_SIZE: usize = 32;
/// Pre-training SGD learning rate.
const PRETRAIN_LR: f32 = 0.05;
/// Pre-training SGD momentum.
const PRETRAIN_MOMENTUM: f32 = 0.9;
/// Pre-training gradient-norm clip.
const PRETRAIN_CLIP_NORM: f32 = 5.0;

/// Hyper-parameters of the end-to-end pre-training stage.
#[derive(Clone, Copy, Debug)]
pub struct PretrainConfig {
    pub epochs: usize,
}

impl Default for PretrainConfig {
    fn default() -> Self {
        Self { epochs: 20 }
    }
}

/// End-to-end pre-training on the cloud's proxy dataset. Returns the mean
/// loss of the final epoch.
pub fn pretrain(model: &mut ModularModel, proxy: &Dataset, cfg: PretrainConfig, rng: &mut NebulaRng) -> f32 {
    let mut opt = Sgd::with_momentum(PRETRAIN_LR, PRETRAIN_MOMENTUM);
    nebula_data::train_epochs(
        model,
        &mut opt,
        proxy,
        TrainConfig {
            epochs: cfg.epochs,
            batch_size: PRETRAIN_BATCH_SIZE,
            clip_norm: Some(PRETRAIN_CLIP_NORM),
        },
        rng,
    )
}

/// Computes the per-layer sub-task load matrices `H_l[t][n]` from the
/// current selector: for each sub-task dataset, the mean gate probability
/// of each module.
pub fn subtask_load_matrices(model: &mut ModularModel, subtasks: &[Dataset]) -> Vec<Vec<Vec<f32>>> {
    assert!(!subtasks.is_empty(), "need at least one sub-task");
    let layers = model.num_layers();
    let mut h = vec![Vec::with_capacity(subtasks.len()); layers];
    for st in subtasks {
        assert!(!st.is_empty(), "empty sub-task dataset");
        let imp = model.importance(st.features());
        for (l, row) in imp.into_iter().enumerate() {
            h[l].push(row);
        }
    }
    h
}

/// κ₁ — max sub-tasks per module (Eq. 1, first constraint).
const MAX_TASKS_PER_MODULE: usize = 2;
/// κ₂ — max modules per sub-task (Eq. 1, second constraint).
const MAX_MODULES_PER_TASK: usize = 4;
/// Ability-enhancing fine-tuning epochs.
const ENHANCE_EPOCHS: usize = 5;
/// Ability-enhancing mini-batch size.
const ENHANCE_BATCH_SIZE: usize = 32;
/// Ability-enhancing SGD learning rate.
const ENHANCE_LR: f32 = 0.02;
/// λ of the KL term.
const KL_WEIGHT: f32 = 1.0;

/// Result of the ability-enhancing stage: the target mapping `P_l[t][n]`
/// per layer (row-normalised `H ⊙ M`).
pub struct EnhanceOutcome {
    /// `layers × sub-tasks × modules` recommended activation distributions.
    pub target_mapping: Vec<Vec<Vec<f32>>>,
    /// Final fine-tuning loss (CE component).
    pub final_loss: f32,
}

/// Module ability-enhancing training (§4.3, steps 1–3).
///
/// `subtasks[t]` holds the samples of sub-task `t`. Each fine-tuning batch
/// mixes samples from all sub-tasks; every sample carries its sub-task's
/// recommended gate distribution as the KL target.
pub fn enhance_module_abilities(
    model: &mut ModularModel,
    subtasks: &[Dataset],
    rng: &mut NebulaRng,
) -> EnhanceOutcome {
    let layers = model.num_layers();
    let n_modules = model.config().modules_per_layer;
    let t_tasks = subtasks.len();

    // Step 2: identify modules' targeted sub-tasks per layer.
    let h = subtask_load_matrices(model, subtasks);
    let mut target_mapping: Vec<Vec<Vec<f32>>> = Vec::with_capacity(layers);
    for h_l in &h {
        let problem = AssignmentProblem {
            load: h_l.clone(),
            max_tasks_per_module: MAX_TASKS_PER_MODULE,
            max_modules_per_task: MAX_MODULES_PER_TASK,
        };
        let mask = solve_assignment(&problem);
        // P = row-normalised H ⊙ M.
        let p: Vec<Vec<f32>> = h_l
            .iter()
            .zip(&mask)
            .map(|(hrow, mrow)| {
                let mut prow: Vec<f32> =
                    hrow.iter().zip(mrow).map(|(&hv, &mv)| if mv { hv.max(1e-6) } else { 0.0 }).collect();
                let sum: f32 = prow.iter().sum();
                if sum > 0.0 {
                    prow.iter_mut().for_each(|v| *v /= sum);
                } else {
                    prow = vec![1.0 / n_modules as f32; n_modules];
                }
                prow
            })
            .collect();
        target_mapping.push(p);
    }

    // Step 3: fine-tune with CE + λ·KL toward the recommended mapping.
    // Build a pooled dataset remembering each sample's sub-task.
    let mut pooled: Option<Dataset> = None;
    let mut sample_task: Vec<usize> = Vec::new();
    for (t, st) in subtasks.iter().enumerate() {
        sample_task.extend(std::iter::repeat_n(t, st.len()));
        pooled = Some(match pooled {
            None => st.clone(),
            Some(acc) => acc.concat(st),
        });
    }
    let pooled = pooled.expect("non-empty subtasks");

    let mut opt = Sgd::with_momentum(ENHANCE_LR, 0.9);
    let mut final_loss = 0.0;
    for _ in 0..ENHANCE_EPOCHS {
        let mut order: Vec<usize> = (0..pooled.len()).collect();
        rng.shuffle(&mut order);
        let mut epoch_loss = 0.0f64;
        let mut seen = 0usize;
        for chunk in order.chunks(ENHANCE_BATCH_SIZE) {
            let batch = pooled.subset(chunk);
            // Per-sample KL targets from each sample's sub-task.
            let targets: Vec<Tensor> = (0..layers)
                .map(|l| {
                    let mut t = Tensor::zeros(&[chunk.len(), n_modules]);
                    for (row, &si) in chunk.iter().enumerate() {
                        let task = sample_task[si];
                        debug_assert!(task < t_tasks);
                        t.row_mut(row).copy_from_slice(&target_mapping[l][task]);
                    }
                    t
                })
                .collect();

            model.zero_grad();
            model.set_gate_kl_target(Some((targets, KL_WEIGHT)));
            let logits = model.forward(batch.features(), Mode::Train);
            let (loss, grad) = cross_entropy(&logits, batch.labels());
            model.backward(&grad);
            model.clip_grad_norm(5.0);
            opt.step(model);
            epoch_loss += loss as f64 * chunk.len() as f64;
            seen += chunk.len();
        }
        final_loss = (epoch_loss / seen.max(1) as f64) as f32;
    }
    model.set_gate_kl_target(None);

    EnhanceOutcome { target_mapping, final_loss }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nebula_data::{SynthSpec, Synthesizer};
    use nebula_modular::ModularConfig;

    fn setup() -> (ModularModel, Synthesizer, NebulaRng) {
        let synth = Synthesizer::new(SynthSpec::toy(), 1);
        // Eight modules per layer, so that κ₂ = 4 binds.
        let mut cfg = ModularConfig::toy(16, 4);
        cfg.modules_per_layer = 8;
        cfg.gate_noise_std = 0.3;
        let model = ModularModel::new(cfg, 5);
        (model, synth, NebulaRng::seed(7))
    }

    fn subtask_datasets(synth: &Synthesizer, rng: &mut NebulaRng) -> Vec<Dataset> {
        // Two sub-tasks: classes {0,1} and {2,3}.
        vec![synth.sample_classes(120, &[0, 1], 0, rng), synth.sample_classes(120, &[2, 3], 0, rng)]
    }

    #[test]
    fn pretrain_learns_the_proxy_task() {
        let (mut model, synth, mut rng) = setup();
        let proxy = synth.sample(400, 0, &mut rng);
        let test = synth.sample(200, 0, &mut rng);
        pretrain(&mut model, &proxy, PretrainConfig { epochs: 15 }, &mut rng);
        let acc = nebula_data::evaluate_accuracy(&mut model, &test, 64);
        assert!(acc > 0.65, "pre-trained accuracy only {acc}");
    }

    #[test]
    fn load_matrices_are_row_stochastic() {
        let (mut model, synth, mut rng) = setup();
        let subtasks = subtask_datasets(&synth, &mut rng);
        let h = subtask_load_matrices(&mut model, &subtasks);
        assert_eq!(h.len(), 2); // layers
        for h_l in &h {
            assert_eq!(h_l.len(), 2); // sub-tasks
            for row in h_l {
                assert_eq!(row.len(), 8); // modules
                nebula_tensor::assert_close(row.iter().sum::<f32>(), 1.0, 1e-4);
            }
        }
    }

    #[test]
    fn enhance_produces_sparse_normalised_targets() {
        let (mut model, synth, mut rng) = setup();
        let proxy = synth.sample(300, 0, &mut rng);
        pretrain(&mut model, &proxy, PretrainConfig { epochs: 5 }, &mut rng);
        let subtasks = subtask_datasets(&synth, &mut rng);
        let out = enhance_module_abilities(&mut model, &subtasks, &mut rng);
        for layer_map in &out.target_mapping {
            for row in layer_map {
                let nonzero = row.iter().filter(|&&v| v > 0.0).count();
                assert!((1..=MAX_MODULES_PER_TASK).contains(&nonzero), "target row violates κ2: {row:?}");
                nebula_tensor::assert_close(row.iter().sum::<f32>(), 1.0, 1e-4);
            }
        }
    }

    #[test]
    fn enhance_concentrates_gate_on_recommended_modules() {
        let (mut model, synth, mut rng) = setup();
        let proxy = synth.sample(300, 0, &mut rng);
        pretrain(&mut model, &proxy, PretrainConfig { epochs: 8 }, &mut rng);
        let subtasks = subtask_datasets(&synth, &mut rng);
        let out = enhance_module_abilities(&mut model, &subtasks, &mut rng);

        // After fine-tuning, sub-task 0's gate mass on its recommended
        // modules should dominate.
        let h_after = subtask_load_matrices(&mut model, &subtasks);
        for (l, layer_map) in out.target_mapping.iter().enumerate() {
            let recommended: Vec<usize> =
                layer_map[0].iter().enumerate().filter_map(|(i, &p)| (p > 0.0).then_some(i)).collect();
            let mass: f32 = recommended.iter().map(|&i| h_after[l][0][i]).sum();
            assert!(
                mass > 0.5,
                "layer {l}: sub-task 0 gate mass on recommended modules only {mass} ({recommended:?})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one sub-task")]
    fn load_matrix_rejects_empty_subtask_list() {
        let (mut model, _, _) = setup();
        subtask_load_matrices(&mut model, &[]);
    }
}

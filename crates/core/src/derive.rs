//! Personalized sub-model derivation (§5.1).
//!
//! Given per-module importance scores (mean gate probability over the
//! device's local data) and the device's resource profile, select the
//! modules forming the best sub-model:
//!
//! 1. the shared parts (stem, head, selector) are mandatory — their cost
//!    is charged against the limits first;
//! 2. the most important module of each layer is selected unconditionally
//!    ("to avoid the situation where no module is selected for a certain
//!    module layer");
//! 3. the remaining candidates go into a multi-dimensional knapsack
//!    (Eq. 2) over {communication, computation, memory}.

use crate::profile::ResourceProfile;
use nebula_modular::cost::CostModel;
use nebula_modular::SubModelSpec;
use nebula_opt::{solve_mdkp_greedy, MdkpInstance};

/// Result of a derivation: the sub-model plus diagnostics.
#[derive(Clone, Debug)]
pub struct DeriveOutcome {
    /// The derived sub-model.
    pub spec: SubModelSpec,
    /// Total importance captured by the selection.
    pub captured_importance: f32,
    /// True when the resource limits could not even fit the mandatory
    /// parts (shared + one module per layer); the minimal sub-model is
    /// returned anyway — the device runs it best-effort, as a real system
    /// must.
    pub over_budget: bool,
}

/// Derives a personalized sub-model.
///
/// * `importance[l][i]` — device-local module importance (§5.1);
/// * `profile` — the device's Eq. 2 limits;
/// * `extra_module_cap` — optional hard cap on modules per layer
///   (the paper's "maximum sub-model size ratio" sensitivity knob);
///   `None` leaves the knapsack fully in charge.
pub fn derive_submodel(
    cost: &CostModel,
    importance: &[Vec<f32>],
    profile: &ResourceProfile,
    extra_module_cap: Option<usize>,
) -> DeriveOutcome {
    let layers = importance.len();
    assert!(layers > 0, "importance for zero layers");
    let n = importance[0].len();
    assert!(importance.iter().all(|row| row.len() == n), "ragged importance");

    // Budget after the mandatory shared parts. Memory uses the cost
    // model's exact training-memory decomposition (parameter state plus
    // activation cache) so Σ(module costs) + base equals
    // `CostModel::submodel(spec).training_mem_bytes` — a derived
    // sub-model is guaranteed to fit the budget under the same accounting
    // the simulator's profiles are built from. Communication is planned
    // at the analytic fp32 size, 4 bytes per parameter, whatever codec
    // later frames the payload (`crate::profile`).
    let shared = cost.shared();
    let mut rem_comm = profile.comm_bytes as i128 - 4 * shared.params as i128;
    let mut rem_flops = profile.flops as i128 - shared.flops as i128;
    let mut rem_mem = profile.mem_bytes as i128 - cost.base_training_mem_bytes(layers) as i128;

    // Step 1: mandatory most-important module per layer.
    let mut chosen: Vec<Vec<usize>> = Vec::with_capacity(layers);
    let mut captured = 0.0f32;
    let mut over_budget = false;
    for (l, imp) in importance.iter().enumerate() {
        let best = imp
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .expect("non-empty layer");
        let c = cost.module(l, best);
        rem_comm -= 4 * c.params as i128;
        rem_flops -= c.flops as i128;
        rem_mem -= cost.module_training_mem_bytes(l, best) as i128;
        captured += imp[best];
        chosen.push(vec![best]);
    }
    if rem_comm < 0 || rem_flops < 0 || rem_mem < 0 {
        over_budget = true;
        rem_comm = rem_comm.max(0);
        rem_flops = rem_flops.max(0);
        rem_mem = rem_mem.max(0);
    }

    // Step 2: knapsack over the remaining candidates.
    let mut items: Vec<(usize, usize)> = Vec::new(); // (layer, module)
    let mut values = Vec::new();
    let mut costs = Vec::new();
    for (l, imp) in importance.iter().enumerate() {
        let cap = extra_module_cap.unwrap_or(n);
        if cap <= 1 {
            continue; // mandatory module already fills the cap
        }
        for (i, &v) in imp.iter().enumerate() {
            if chosen[l][0] == i {
                continue;
            }
            let c = cost.module(l, i);
            items.push((l, i));
            values.push(v);
            costs.push(vec![
                (4 * c.params) as f32,
                c.flops as f32,
                cost.module_training_mem_bytes(l, i) as f32,
            ]);
        }
    }

    if !items.is_empty() && !over_budget {
        let inst =
            MdkpInstance { values, costs, limits: vec![rem_comm as f32, rem_flops as f32, rem_mem as f32] };
        let mut selected = solve_mdkp_greedy(&inst);

        // Honour the per-layer cap: keep the highest-importance winners.
        if let Some(cap) = extra_module_cap {
            for l in 0..layers {
                let mut winners: Vec<usize> = items
                    .iter()
                    .enumerate()
                    .filter(|(idx, &(il, _))| selected[*idx] && il == l)
                    .map(|(idx, _)| idx)
                    .collect();
                if winners.len() + 1 > cap {
                    winners.sort_by(|&a, &b| {
                        inst.values[b].partial_cmp(&inst.values[a]).unwrap_or(std::cmp::Ordering::Equal)
                    });
                    for &drop in winners.iter().skip(cap.saturating_sub(1)) {
                        selected[drop] = false;
                    }
                }
            }
        }

        for (idx, &(l, i)) in items.iter().enumerate() {
            if selected[idx] {
                chosen[l].push(i);
                captured += inst.values[idx];
            }
        }
    }

    DeriveOutcome { spec: SubModelSpec::new(chosen), captured_importance: captured, over_budget }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nebula_modular::ModularConfig;

    fn cost_model() -> CostModel {
        CostModel::new(ModularConfig::toy(16, 4))
    }

    fn uniform_importance(layers: usize, n: usize) -> Vec<Vec<f32>> {
        vec![vec![1.0 / n as f32; n]; layers]
    }

    #[test]
    fn unconstrained_derivation_takes_everything() {
        let cm = cost_model();
        let imp = uniform_importance(2, 4);
        let out = derive_submodel(&cm, &imp, &ResourceProfile::unconstrained(), None);
        assert_eq!(out.spec.total_modules(), 8);
        assert!(!out.over_budget);
    }

    #[test]
    fn every_layer_keeps_at_least_one_module() {
        let cm = cost_model();
        let imp = uniform_importance(2, 4);
        // Tiny budget: still one module per layer.
        let tiny = ResourceProfile { mem_bytes: 1, flops: 1, comm_bytes: 1 };
        let out = derive_submodel(&cm, &imp, &tiny, None);
        assert!(out.over_budget);
        for l in 0..2 {
            assert_eq!(out.spec.layer(l).len(), 1);
        }
    }

    #[test]
    fn picks_most_important_module_first() {
        let cm = cost_model();
        let mut imp = uniform_importance(2, 4);
        imp[0] = vec![0.05, 0.8, 0.1, 0.05];
        imp[1] = vec![0.7, 0.1, 0.1, 0.1];
        let tiny = ResourceProfile { mem_bytes: 1, flops: 1, comm_bytes: 1 };
        let out = derive_submodel(&cm, &imp, &tiny, None);
        assert_eq!(out.spec.layer(0), &[1]);
        assert_eq!(out.spec.layer(1), &[0]);
    }

    #[test]
    fn budget_monotonicity() {
        let cm = cost_model();
        let imp = uniform_importance(2, 4);
        let full = cm.full_model();
        let small = ResourceProfile {
            mem_bytes: full.training_mem_bytes / 2,
            flops: full.flops / 2,
            comm_bytes: full.comm_bytes / 2,
        };
        let large = ResourceProfile {
            mem_bytes: full.training_mem_bytes * 2,
            flops: full.flops * 2,
            comm_bytes: full.comm_bytes * 2,
        };
        let out_s = derive_submodel(&cm, &imp, &small, None);
        let out_l = derive_submodel(&cm, &imp, &large, None);
        assert!(out_l.spec.total_modules() >= out_s.spec.total_modules());
        assert!(out_l.captured_importance >= out_s.captured_importance);
    }

    #[test]
    fn module_cap_limits_layer_width() {
        let cm = cost_model();
        let imp = uniform_importance(2, 4);
        let out = derive_submodel(&cm, &imp, &ResourceProfile::unconstrained(), Some(2));
        for l in 0..2 {
            assert!(out.spec.layer(l).len() <= 2, "layer {l} has {:?}", out.spec.layer(l));
        }
    }

    #[test]
    fn derived_submodel_fits_budget() {
        let cm = cost_model();
        let imp = uniform_importance(2, 4);
        let full = cm.full_model();
        let budget = ResourceProfile {
            mem_bytes: full.training_mem_bytes * 6 / 10,
            flops: full.flops * 6 / 10,
            comm_bytes: full.comm_bytes * 6 / 10,
        };
        let out = derive_submodel(&cm, &imp, &budget, None);
        assert!(!out.over_budget);
        let c = cm.submodel(&out.spec);
        assert!(c.comm_bytes <= budget.comm_bytes, "comm {} > {}", c.comm_bytes, budget.comm_bytes);
        assert!(c.flops <= budget.flops);
        assert!(
            c.training_mem_bytes <= budget.mem_bytes,
            "training mem {} > budget {}",
            c.training_mem_bytes,
            budget.mem_bytes
        );
    }

    #[test]
    fn derive_mem_accounting_matches_cost_model_exactly() {
        // The per-module increments plus the base must reproduce
        // CostModel::submodel(...).training_mem_bytes for any spec.
        let cm = cost_model();
        let imp = uniform_importance(2, 4);
        let out = derive_submodel(&cm, &imp, &ResourceProfile::unconstrained(), None);
        let mut total = cm.base_training_mem_bytes(out.spec.num_layers());
        for (l, layer) in out.spec.layers().iter().enumerate() {
            for &i in layer {
                total += cm.module_training_mem_bytes(l, i);
            }
        }
        assert_eq!(total, cm.submodel(&out.spec).training_mem_bytes);
    }
}

//! HeteroFL (Diao et al., ICLR'21) width levels: federated learning over
//! *nested* width-scaled sub-models. Each device trains the prefix
//! sub-model its resources allow (`ratio ∈ HETEROFL_RATIOS`); the round
//! itself is [`dense_round`](crate::dense_round).

use crate::dense::DenseModel;

/// The nested width levels HeteroFL assigns to device classes.
pub const HETEROFL_RATIOS: [f32; 4] = [1.0, 0.5, 0.25, 0.125];

/// Picks the widest HeteroFL level whose parameter count fits
/// `budget_params`.
pub fn ratio_for_budget(model: &DenseModel, budget_params: usize) -> f32 {
    for &r in &HETEROFL_RATIOS {
        if model.active_params(r) <= budget_params {
            return r;
        }
    }
    *HETEROFL_RATIOS.last().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nebula_nn::Layer;

    #[test]
    fn ratio_for_budget_is_monotone() {
        let m = DenseModel::new(16, 24, 2, 32, 4, 7);
        let full = m.param_count();
        assert_eq!(ratio_for_budget(&m, full), 1.0);
        let r_small = ratio_for_budget(&m, m.active_params(0.25));
        assert!(r_small <= 0.25 + 1e-6);
        // Impossible budget degrades to the smallest level.
        assert_eq!(ratio_for_budget(&m, 0), 0.125);
    }
}

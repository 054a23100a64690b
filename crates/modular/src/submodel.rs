//! Sub-model specifications: which modules a derived edge model contains.

use serde::{Deserialize, Serialize};

/// A sub-model of a modularized model: for each module layer, the sorted
/// set of module indices the sub-model retains. Deriving a sub-model is
/// pure bookkeeping — no retraining, pruning or distillation (§5.1).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubModelSpec {
    active: Vec<Vec<usize>>,
}

impl SubModelSpec {
    /// Builds a spec from per-layer module index lists. Indices are sorted
    /// and deduplicated; every layer must keep at least one module.
    pub fn new(mut active: Vec<Vec<usize>>) -> Self {
        for layer in &mut active {
            layer.sort_unstable();
            layer.dedup();
            assert!(!layer.is_empty(), "sub-model layer with no modules");
        }
        Self { active }
    }

    /// The full model: every module of every layer.
    pub fn full(num_layers: usize, modules_per_layer: usize) -> Self {
        Self { active: vec![(0..modules_per_layer).collect(); num_layers] }
    }

    /// Number of module layers.
    pub fn num_layers(&self) -> usize {
        self.active.len()
    }

    /// Active module indices of layer `l`.
    pub fn layer(&self, l: usize) -> &[usize] {
        &self.active[l]
    }

    /// All per-layer index lists.
    pub fn layers(&self) -> &[Vec<usize>] {
        &self.active
    }

    /// Total module count across layers.
    pub fn total_modules(&self) -> usize {
        self.active.iter().map(Vec::len).sum()
    }

    /// True if `(layer, module)` is in the sub-model.
    pub fn contains(&self, layer: usize, module: usize) -> bool {
        self.active[layer].binary_search(&module).is_ok()
    }

    /// Converts to per-layer boolean masks of width `modules_per_layer`.
    pub fn to_masks(&self, modules_per_layer: usize) -> Vec<Vec<bool>> {
        self.active
            .iter()
            .map(|layer| {
                let mut mask = vec![false; modules_per_layer];
                for &i in layer {
                    assert!(i < modules_per_layer, "module index {i} out of range");
                    mask[i] = true;
                }
                mask
            })
            .collect()
    }

    /// Validates against a model shape; panics on mismatch.
    pub fn validate(&self, num_layers: usize, modules_per_layer: usize) {
        assert_eq!(self.active.len(), num_layers, "sub-model layer count mismatch");
        for layer in &self.active {
            for &i in layer {
                assert!(i < modules_per_layer, "module index {i} out of range");
            }
        }
    }

    /// Layer-wise union: the modules either sub-model uses. Useful for
    /// sizing a payload that must serve both of a device's recent
    /// environments.
    pub fn union(&self, other: &SubModelSpec) -> SubModelSpec {
        assert_eq!(self.num_layers(), other.num_layers(), "layer count mismatch");
        SubModelSpec::new(
            self.active
                .iter()
                .zip(&other.active)
                .map(|(a, b)| {
                    let mut m = a.clone();
                    m.extend_from_slice(b);
                    m
                })
                .collect(),
        )
    }

    /// Layer-wise intersection. Panics (via [`SubModelSpec::new`]) if some
    /// layer ends up empty — disjoint sub-models have no common sub-model.
    pub fn intersection(&self, other: &SubModelSpec) -> SubModelSpec {
        assert_eq!(self.num_layers(), other.num_layers(), "layer count mismatch");
        SubModelSpec::new(
            self.active
                .iter()
                .enumerate()
                .map(|(l, a)| a.iter().copied().filter(|&i| other.contains(l, i)).collect())
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sorts_and_dedups() {
        let s = SubModelSpec::new(vec![vec![3, 1, 3, 0]]);
        assert_eq!(s.layer(0), &[0, 1, 3]);
        assert_eq!(s.total_modules(), 3);
    }

    #[test]
    #[should_panic(expected = "no modules")]
    fn rejects_empty_layer() {
        SubModelSpec::new(vec![vec![0], vec![]]);
    }

    #[test]
    fn full_covers_everything() {
        let s = SubModelSpec::full(2, 3);
        assert_eq!(s.total_modules(), 6);
        assert!(s.contains(1, 2));
    }

    #[test]
    fn masks_match_indices() {
        let s = SubModelSpec::new(vec![vec![0, 2]]);
        assert_eq!(s.to_masks(4), vec![vec![true, false, true, false]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn masks_reject_out_of_range() {
        SubModelSpec::new(vec![vec![7]]).to_masks(4);
    }

    #[test]
    fn contains_uses_binary_search() {
        let s = SubModelSpec::new(vec![vec![5, 1, 9]]);
        assert!(s.contains(0, 5));
        assert!(!s.contains(0, 2));
    }

    #[test]
    fn union_and_intersection() {
        let a = SubModelSpec::new(vec![vec![0, 1], vec![2]]);
        let b = SubModelSpec::new(vec![vec![1, 3], vec![2, 0]]);
        let u = a.union(&b);
        assert_eq!(u.layer(0), &[0, 1, 3]);
        assert_eq!(u.layer(1), &[0, 2]);
        let i = a.intersection(&b);
        assert_eq!(i.layer(0), &[1]);
        assert_eq!(i.layer(1), &[2]);
    }

    #[test]
    #[should_panic(expected = "no modules")]
    fn disjoint_intersection_panics() {
        let a = SubModelSpec::new(vec![vec![0]]);
        let b = SubModelSpec::new(vec![vec![1]]);
        a.intersection(&b);
    }

    #[test]
    fn union_contains_both_operands() {
        let a = SubModelSpec::new(vec![vec![0], vec![1, 2]]);
        let b = SubModelSpec::new(vec![vec![3], vec![1]]);
        let u = a.union(&b);
        for (l, layer) in a.layers().iter().enumerate() {
            for &i in layer {
                assert!(u.contains(l, i));
            }
        }
        for (l, layer) in b.layers().iter().enumerate() {
            for &i in layer {
                assert!(u.contains(l, i));
            }
        }
    }
}

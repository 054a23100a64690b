//! Eq. 2 of the paper: the multi-dimensional 0/1 knapsack behind
//! personalized sub-model derivation.
//!
//! ```text
//! max  Σ Importance(ω_i | D_k) · d_i
//! s.t. Σ Resource_j(ω_i) · d_i ≤ L_j,  j ∈ {Comm, Comp, Mem}
//!      d_i ∈ {0, 1}
//! ```
//!
//! Items whose costs are charged even when unselected (the paper's
//! "first select the most important module in each module layer") are
//! modelled by the caller subtracting mandatory items from the limits
//! before building the instance.
//!
//! Two solvers:
//! * [`solve_mdkp_greedy`] — density greedy (value / normalised cost) with
//!   a single-swap improvement pass; linear-ithmic, used online;
//! * [`solve_mdkp_exact`] — branch-and-bound with a fractional-relaxation
//!   bound; exact, used in tests and for the ablation bench.

/// One multi-dimensional knapsack instance.
#[derive(Clone, Debug)]
pub struct MdkpInstance {
    /// Item values (module importances), non-negative.
    pub values: Vec<f32>,
    /// `items × dims` cost matrix.
    pub costs: Vec<Vec<f32>>,
    /// Per-dimension capacity limits.
    pub limits: Vec<f32>,
}

impl MdkpInstance {
    /// Validates the instance and returns `(items, dims)`.
    pub fn dims(&self) -> (usize, usize) {
        let n = self.values.len();
        assert_eq!(self.costs.len(), n, "values/costs length mismatch");
        let d = self.limits.len();
        assert!(d > 0, "need at least one resource dimension");
        assert!(self.costs.iter().all(|c| c.len() == d), "ragged cost matrix");
        assert!(self.values.iter().all(|&v| v >= 0.0), "negative value");
        assert!(self.costs.iter().flatten().all(|&c| c >= 0.0), "negative cost");
        (n, d)
    }

    /// Total value of a selection.
    pub fn value(&self, selected: &[bool]) -> f32 {
        self.values.iter().zip(selected).filter(|(_, &s)| s).map(|(&v, _)| v).sum()
    }

    /// True when the selection fits within every limit.
    pub fn feasible(&self, selected: &[bool]) -> bool {
        let (_, d) = self.dims();
        for j in 0..d {
            let used: f32 = self.costs.iter().zip(selected).filter(|(_, &s)| s).map(|(c, _)| c[j]).sum();
            if used > self.limits[j] * (1.0 + 1e-5) {
                return false;
            }
        }
        true
    }
}

/// Density-greedy solver: items sorted by `value / Σ_j cost_j / limit_j`
/// (normalised aggregate cost), inserted when they fit; followed by a pass
/// that tries to add any remaining fitting item.
pub fn solve_mdkp_greedy(inst: &MdkpInstance) -> Vec<bool> {
    let (n, d) = inst.dims();
    let mut selected = vec![false; n];
    let mut used = vec![0.0f32; d];

    let density = |i: usize| -> f32 {
        let norm_cost: f32 = (0..d)
            .map(|j| {
                if inst.limits[j] > 0.0 {
                    inst.costs[i][j] / inst.limits[j]
                } else if inst.costs[i][j] > 0.0 {
                    f32::INFINITY
                } else {
                    0.0
                }
            })
            .sum();
        if norm_cost <= 0.0 {
            f32::INFINITY // free item: always take
        } else {
            inst.values[i] / norm_cost
        }
    };

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        density(b).partial_cmp(&density(a)).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
    });

    let fits =
        |i: usize, used: &[f32]| (0..d).all(|j| used[j] + inst.costs[i][j] <= inst.limits[j] * (1.0 + 1e-6));

    for &i in &order {
        if inst.values[i] <= 0.0 && density(i) != f32::INFINITY {
            continue;
        }
        if fits(i, &used) {
            selected[i] = true;
            for (u, c) in used.iter_mut().zip(&inst.costs[i]) {
                *u += c;
            }
        }
    }

    // Fill pass in pure value order (density can starve high-value items).
    let mut by_value: Vec<usize> = (0..n).collect();
    by_value
        .sort_by(|&a, &b| inst.values[b].partial_cmp(&inst.values[a]).unwrap_or(std::cmp::Ordering::Equal));
    for &i in &by_value {
        if !selected[i] && inst.values[i] > 0.0 && fits(i, &used) {
            selected[i] = true;
            for (u, c) in used.iter_mut().zip(&inst.costs[i]) {
                *u += c;
            }
        }
    }

    debug_assert!(inst.feasible(&selected));
    selected
}

/// Exact branch-and-bound. Items are ordered by density; the upper bound
/// is the LP relaxation of the *single* most-binding dimension. Practical
/// up to ~30 items (Nebula layers hold at most 64 modules, but the exact
/// solver is only used for verification and small ablations).
pub fn solve_mdkp_exact(inst: &MdkpInstance) -> Vec<bool> {
    let (n, d) = inst.dims();
    assert!(n <= 30, "exact MDKP limited to ≤30 items");

    // Order by density for tighter bounds.
    let mut order: Vec<usize> = (0..n).collect();
    let density = |i: usize| -> f32 {
        let c: f32 =
            (0..d).map(|j| if inst.limits[j] > 0.0 { inst.costs[i][j] / inst.limits[j] } else { 0.0 }).sum();
        if c <= 0.0 {
            f32::INFINITY
        } else {
            inst.values[i] / c
        }
    };
    order.sort_by(|&a, &b| density(b).partial_cmp(&density(a)).unwrap_or(std::cmp::Ordering::Equal));

    struct State<'a> {
        inst: &'a MdkpInstance,
        order: &'a [usize],
        best_val: f32,
        best_sel: Vec<bool>,
    }

    fn bound(s: &State<'_>, pos: usize, val: f32) -> f32 {
        // Optimistic: add all remaining values (cheap, admissible).
        val + s.order[pos..].iter().map(|&i| s.inst.values[i]).sum::<f32>()
    }

    fn recurse(s: &mut State<'_>, pos: usize, used: &mut Vec<f32>, sel: &mut Vec<bool>, val: f32) {
        if val > s.best_val {
            s.best_val = val;
            s.best_sel = sel.clone();
        }
        if pos == s.order.len() || bound(s, pos, val) <= s.best_val {
            return;
        }
        let i = s.order[pos];
        let d = s.inst.limits.len();
        // Include if it fits.
        if (0..d).all(|j| used[j] + s.inst.costs[i][j] <= s.inst.limits[j] * (1.0 + 1e-6)) {
            for (u, c) in used.iter_mut().zip(&s.inst.costs[i]) {
                *u += c;
            }
            sel[i] = true;
            recurse(s, pos + 1, used, sel, val + s.inst.values[i]);
            sel[i] = false;
            for (u, c) in used.iter_mut().zip(&s.inst.costs[i]) {
                *u -= c;
            }
        }
        // Exclude.
        recurse(s, pos + 1, used, sel, val);
    }

    let mut state = State { inst, order: &order, best_val: 0.0, best_sel: vec![false; n] };
    let mut used = vec![0.0; d];
    let mut sel = vec![false; n];
    recurse(&mut state, 0, &mut used, &mut sel, 0.0);
    state.best_sel
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn inst(values: Vec<f32>, costs: Vec<Vec<f32>>, limits: Vec<f32>) -> MdkpInstance {
        MdkpInstance { values, costs, limits }
    }

    #[test]
    fn takes_everything_when_unconstrained() {
        let i = inst(vec![1.0, 2.0], vec![vec![1.0], vec![1.0]], vec![100.0]);
        let sel = solve_mdkp_greedy(&i);
        assert_eq!(sel, vec![true, true]);
    }

    #[test]
    fn respects_single_dimension_limit() {
        let i = inst(vec![3.0, 2.0, 1.0], vec![vec![2.0], vec![2.0], vec![2.0]], vec![4.0]);
        let sel = solve_mdkp_greedy(&i);
        assert!(i.feasible(&sel));
        assert_eq!(sel.iter().filter(|&&s| s).count(), 2);
        assert!(sel[0] && sel[1], "should keep the two most valuable");
    }

    #[test]
    fn multi_dimensional_binding() {
        // Item 0 is cheap in dim 0 but expensive in dim 1.
        let i = inst(vec![5.0, 4.0], vec![vec![1.0, 10.0], vec![1.0, 1.0]], vec![10.0, 5.0]);
        let sel = solve_mdkp_greedy(&i);
        assert!(i.feasible(&sel));
        // Only item 1 fits alongside nothing else in dim 1? item0 alone uses 10 > 5.
        assert!(!sel[0]);
        assert!(sel[1]);
    }

    #[test]
    fn exact_matches_brute_force_small() {
        let i = inst(vec![6.0, 10.0, 12.0], vec![vec![1.0], vec![2.0], vec![3.0]], vec![5.0]);
        let sel = solve_mdkp_exact(&i);
        // Optimal: items 1+2 = 22.
        assert_eq!(i.value(&sel), 22.0);
    }

    #[test]
    fn zero_cost_items_always_selected_by_greedy() {
        let i = inst(vec![0.1, 1.0], vec![vec![0.0], vec![10.0]], vec![5.0]);
        let sel = solve_mdkp_greedy(&i);
        assert!(sel[0], "free item skipped");
        assert!(!sel[1]);
    }

    #[test]
    fn infeasible_item_is_skipped() {
        let i = inst(vec![100.0, 1.0], vec![vec![50.0], vec![1.0]], vec![10.0]);
        let sel = solve_mdkp_greedy(&i);
        assert!(!sel[0]);
        assert!(sel[1]);
    }

    proptest! {
        #[test]
        fn greedy_always_feasible(
            n in 1usize..12,
            seed in 0u64..500,
        ) {
            let mut s = seed;
            let mut next = || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as f32) / (u32::MAX as f32)
            };
            let values: Vec<f32> = (0..n).map(|_| next()).collect();
            let costs: Vec<Vec<f32>> = (0..n).map(|_| (0..3).map(|_| next()).collect()).collect();
            let limits: Vec<f32> = (0..3).map(|_| next() * n as f32 * 0.4).collect();
            let inst = MdkpInstance { values, costs, limits };
            let sel = solve_mdkp_greedy(&inst);
            prop_assert!(inst.feasible(&sel));
        }

        #[test]
        fn exact_dominates_greedy(
            n in 1usize..10,
            seed in 0u64..200,
        ) {
            let mut s = seed;
            let mut next = || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as f32) / (u32::MAX as f32)
            };
            let values: Vec<f32> = (0..n).map(|_| next()).collect();
            let costs: Vec<Vec<f32>> = (0..n).map(|_| (0..2).map(|_| next()).collect()).collect();
            let limits: Vec<f32> = (0..2).map(|_| next() * n as f32 * 0.3).collect();
            let inst = MdkpInstance { values, costs, limits };
            let g = inst.value(&solve_mdkp_greedy(&inst));
            let e = inst.value(&solve_mdkp_exact(&inst));
            prop_assert!(e + 1e-4 >= g, "exact {} below greedy {}", e, g);
            prop_assert!(inst.feasible(&solve_mdkp_exact(&inst)));
        }
    }
}

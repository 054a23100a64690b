//! Eq. 1 of the paper: sub-task → module assignment.
//!
//! ```text
//! max  Σ (H ⊙ M)                      (preserve the learned load matrix)
//! s.t. Σ_t M[t][n] ≤ κ₁  ∀ module n   (no module overload)
//!      Σ_n M[t][n] ≤ κ₂  ∀ sub-task t (bounded sub-model width)
//!      M[t][n] ∈ {0, 1}
//! ```
//!
//! The constraint matrix is that of a transportation problem (totally
//! unimodular), so the LP relaxation has an integral optimum. Our instances
//! are small (T ≤ ~50 sub-tasks, N ≤ 64 modules), so we solve with a greedy
//! pass followed by 1-swap local improvement — and provide an exact
//! branch-and-bound solver used for verification on small instances.
//!
//! Beyond the paper's constraints we add a *coverage repair* step: every
//! sub-task must receive at least one module, otherwise the fine-tuning
//! target `P = H ⊙ M` would recommend activating nothing for that
//! sub-task, which cannot be realised by a top-k gate.

/// An instance of the Eq. 1 assignment problem.
#[derive(Clone, Debug)]
pub struct AssignmentProblem {
    /// `T × N` load matrix; `h[t][n]` is the load of module `n` in
    /// sub-task `t` (non-negative).
    pub load: Vec<Vec<f32>>,
    /// κ₁ — maximum number of sub-tasks a module may serve.
    pub max_tasks_per_module: usize,
    /// κ₂ — maximum number of modules a sub-task may activate.
    pub max_modules_per_task: usize,
}

impl AssignmentProblem {
    /// Validates and returns the `(T, N)` dimensions.
    pub fn dims(&self) -> (usize, usize) {
        let t = self.load.len();
        assert!(t > 0, "empty load matrix");
        let n = self.load[0].len();
        assert!(n > 0, "load matrix with zero modules");
        assert!(self.load.iter().all(|row| row.len() == n), "ragged load matrix");
        assert!(self.max_tasks_per_module >= 1, "κ1 must be ≥ 1");
        assert!(self.max_modules_per_task >= 1, "κ2 must be ≥ 1");
        assert!(
            self.max_tasks_per_module * n >= t,
            "infeasible: {} sub-tasks cannot be covered by {} modules at κ1 = {}",
            t,
            n,
            self.max_tasks_per_module
        );
        (t, n)
    }

    /// Objective value of a mask.
    pub fn objective(&self, mask: &[Vec<bool>]) -> f32 {
        mask.iter()
            .zip(&self.load)
            .flat_map(|(mrow, hrow)| mrow.iter().zip(hrow).filter(|(&m, _)| m).map(|(_, &h)| h))
            .sum()
    }

    /// True when a mask satisfies both budget constraints.
    pub fn feasible(&self, mask: &[Vec<bool>]) -> bool {
        let (t, n) = self.dims();
        if mask.len() != t || mask.iter().any(|r| r.len() != n) {
            return false;
        }
        for row in mask {
            if row.iter().filter(|&&m| m).count() > self.max_modules_per_task {
                return false;
            }
        }
        for col in 0..n {
            if mask.iter().filter(|row| row[col]).count() > self.max_tasks_per_module {
                return false;
            }
        }
        true
    }
}

/// Greedy + local-improvement solver with coverage repair.
///
/// Returns the mask `M` (T×N). Every sub-task is guaranteed at least one
/// module when κ₁·N ≥ T (validated in [`AssignmentProblem::dims`]).
pub fn solve_assignment(p: &AssignmentProblem) -> Vec<Vec<bool>> {
    let (t, n) = p.dims();
    let mut mask = vec![vec![false; n]; t];
    let mut task_count = vec![0usize; t];
    let mut module_count = vec![0usize; n];

    // Greedy over all entries, highest load first.
    let mut entries: Vec<(usize, usize)> = (0..t).flat_map(|ti| (0..n).map(move |ni| (ti, ni))).collect();
    entries.sort_by(|&(ta, na), &(tb, nb)| {
        p.load[tb][nb]
            .partial_cmp(&p.load[ta][na])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then((ta, na).cmp(&(tb, nb)))
    });
    for &(ti, ni) in &entries {
        if p.load[ti][ni] <= 0.0 {
            continue;
        }
        if task_count[ti] < p.max_modules_per_task && module_count[ni] < p.max_tasks_per_module {
            mask[ti][ni] = true;
            task_count[ti] += 1;
            module_count[ni] += 1;
        }
    }

    // Coverage repair: a sub-task left with no module steals the slot of
    // the weakest assignment on its best under-loaded module, or claims a
    // free module if one exists.
    for ti in 0..t {
        if task_count[ti] > 0 {
            continue;
        }
        // Prefer the highest-load module with spare capacity.
        let mut candidates: Vec<usize> = (0..n).collect();
        candidates
            .sort_by(|&a, &b| p.load[ti][b].partial_cmp(&p.load[ti][a]).unwrap_or(std::cmp::Ordering::Equal));
        let mut placed = false;
        for &ni in &candidates {
            if module_count[ni] < p.max_tasks_per_module {
                mask[ti][ni] = true;
                task_count[ti] += 1;
                module_count[ni] += 1;
                placed = true;
                break;
            }
        }
        if !placed {
            // All modules saturated: evict, from the best candidate module
            // that has one, the weakest assignment whose task keeps ≥ 1
            // module. Feasibility (κ₁·N ≥ T) guarantees such a module
            // exists: saturated modules hold κ₁·N ≥ T assignments while
            // only ≤ T−1 tasks are covered, so some task holds ≥ 2.
            for &ni in &candidates {
                let victim = (0..t).filter(|&tj| mask[tj][ni] && task_count[tj] > 1).min_by(|&a, &b| {
                    p.load[a][ni].partial_cmp(&p.load[b][ni]).unwrap_or(std::cmp::Ordering::Equal)
                });
                if let Some(tv) = victim {
                    mask[tv][ni] = false;
                    task_count[tv] -= 1;
                    mask[ti][ni] = true;
                    task_count[ti] += 1;
                    break;
                }
            }
        }
    }

    // 1-swap local improvement: move an assignment to a better empty slot.
    let mut improved = true;
    while improved {
        improved = false;
        // Indexed loop: the body mutates two `mask[ti]` cells at once.
        #[allow(clippy::needless_range_loop)]
        for ti in 0..t {
            for ni in 0..n {
                if !mask[ti][ni] {
                    continue;
                }
                for nj in 0..n {
                    if mask[ti][nj] || module_count[nj] >= p.max_tasks_per_module {
                        continue;
                    }
                    if p.load[ti][nj] > p.load[ti][ni] {
                        mask[ti][ni] = false;
                        mask[ti][nj] = true;
                        module_count[ni] -= 1;
                        module_count[nj] += 1;
                        improved = true;
                        break;
                    }
                }
            }
        }
    }

    debug_assert!(p.feasible(&mask));
    mask
}

/// Exact solver by depth-first branch-and-bound over entries: the reference
/// the greedy solver is tested against. Exponential — only for `T·N ≤ ~20`.
#[cfg(test)]
fn solve_assignment_exact(p: &AssignmentProblem) -> Vec<Vec<bool>> {
    let (t, n) = p.dims();
    assert!(t * n <= 24, "exact solver limited to tiny instances");
    let mut best_mask = vec![vec![false; n]; t];
    let mut best_val = f32::NEG_INFINITY;

    fn covered(mask: &[Vec<bool>]) -> bool {
        mask.iter().all(|row| row.iter().any(|&m| m))
    }

    // Branch-and-bound state is threaded explicitly to keep the recursion allocation-free.
    #[allow(clippy::too_many_arguments)]
    fn recurse(
        p: &AssignmentProblem,
        idx: usize,
        t: usize,
        n: usize,
        mask: &mut Vec<Vec<bool>>,
        task_count: &mut Vec<usize>,
        module_count: &mut Vec<usize>,
        val: f32,
        best_val: &mut f32,
        best_mask: &mut Vec<Vec<bool>>,
    ) {
        if idx == t * n {
            if covered(mask) && val > *best_val {
                *best_val = val;
                *best_mask = mask.clone();
            }
            return;
        }
        let (ti, ni) = (idx / n, idx % n);
        // Branch: include if feasible.
        if task_count[ti] < p.max_modules_per_task && module_count[ni] < p.max_tasks_per_module {
            mask[ti][ni] = true;
            task_count[ti] += 1;
            module_count[ni] += 1;
            recurse(
                p,
                idx + 1,
                t,
                n,
                mask,
                task_count,
                module_count,
                val + p.load[ti][ni],
                best_val,
                best_mask,
            );
            mask[ti][ni] = false;
            task_count[ti] -= 1;
            module_count[ni] -= 1;
        }
        // Branch: exclude.
        recurse(p, idx + 1, t, n, mask, task_count, module_count, val, best_val, best_mask);
    }

    let mut mask = vec![vec![false; n]; t];
    let mut tc = vec![0; t];
    let mut mc = vec![0; n];
    recurse(p, 0, t, n, &mut mask, &mut tc, &mut mc, 0.0, &mut best_val, &mut best_mask);
    best_mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn problem(load: Vec<Vec<f32>>, k1: usize, k2: usize) -> AssignmentProblem {
        AssignmentProblem { load, max_tasks_per_module: k1, max_modules_per_task: k2 }
    }

    #[test]
    fn trivially_separable_instance() {
        // Diagonal loads: the obvious assignment is the diagonal.
        let p = problem(vec![vec![0.9, 0.1, 0.0], vec![0.1, 0.8, 0.1], vec![0.0, 0.1, 0.9]], 1, 1);
        let m = solve_assignment(&p);
        assert!(m[0][0] && m[1][1] && m[2][2]);
        assert!(p.feasible(&m));
    }

    #[test]
    fn respects_module_budget() {
        // Every task loves module 0, but κ1 = 1 forces spreading.
        let p = problem(vec![vec![1.0, 0.5, 0.4], vec![1.0, 0.4, 0.5], vec![1.0, 0.3, 0.3]], 1, 1);
        let m = solve_assignment(&p);
        assert!(p.feasible(&m));
        // Each task still covered.
        assert!(m.iter().all(|row| row.iter().any(|&b| b)));
    }

    #[test]
    fn matches_exact_on_small_instances() {
        let p = problem(vec![vec![0.7, 0.2, 0.6], vec![0.3, 0.9, 0.1], vec![0.5, 0.5, 0.8]], 2, 2);
        let greedy = solve_assignment(&p);
        let exact = solve_assignment_exact(&p);
        let g = p.objective(&greedy);
        let e = p.objective(&exact);
        assert!(g >= 0.9 * e, "greedy {g} far below exact {e}");
    }

    #[test]
    fn coverage_repair_kicks_in() {
        // Task 1 has tiny loads everywhere; greedy would starve it when
        // budgets are tight.
        let p = problem(vec![vec![0.9, 0.9], vec![0.01, 0.02]], 1, 2);
        let m = solve_assignment(&p);
        assert!(m[1].iter().any(|&b| b), "sub-task 1 left uncovered");
        assert!(p.feasible(&m));
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn rejects_uncoverable_instance() {
        let p = problem(vec![vec![1.0]; 3], 1, 1); // 3 tasks, 1 module, κ1=1
        p.dims();
    }

    #[test]
    fn zero_loads_get_assigned_only_by_repair() {
        let p = problem(vec![vec![0.0, 0.0], vec![0.5, 0.5]], 2, 2);
        let m = solve_assignment(&p);
        // Task 0 covered via repair despite all-zero loads.
        assert!(m[0].iter().any(|&b| b));
    }

    proptest! {
        #[test]
        fn solver_output_is_always_feasible_and_covering(
            t in 1usize..5,
            n in 2usize..6,
            k1 in 1usize..4,
            k2 in 1usize..4,
            seed in 0u64..1000,
        ) {
            // Skip infeasible combos.
            prop_assume!(k1 * n >= t);
            let mut s = seed;
            let mut next = || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as f32) / (u32::MAX as f32)
            };
            let load: Vec<Vec<f32>> = (0..t).map(|_| (0..n).map(|_| next()).collect()).collect();
            let p = AssignmentProblem { load, max_tasks_per_module: k1, max_modules_per_task: k2 };
            let m = solve_assignment(&p);
            prop_assert!(p.feasible(&m));
            prop_assert!(m.iter().all(|row| row.iter().any(|&b| b)), "uncovered sub-task");
        }

        #[test]
        fn greedy_close_to_exact(
            seed in 0u64..300,
        ) {
            let mut s = seed;
            let mut next = || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as f32) / (u32::MAX as f32)
            };
            let load: Vec<Vec<f32>> = (0..3).map(|_| (0..4).map(|_| next()).collect()).collect();
            let p = AssignmentProblem { load, max_tasks_per_module: 2, max_modules_per_task: 2 };
            let g = p.objective(&solve_assignment(&p));
            let e = p.objective(&solve_assignment_exact(&p));
            prop_assert!(g >= 0.85 * e, "greedy {} vs exact {}", g, e);
        }
    }
}

//! # nebula-opt
//!
//! Self-contained solvers for the two constrained optimisation problems in
//! the Nebula paper (the authors use SciPy / OR-Tools; this crate replaces
//! them with exact and greedy solvers sized for Nebula's instances —
//! dozens of sub-tasks × at most 64 modules per layer):
//!
//! * [`assignment`] — Eq. 1: given the sub-task × module load matrix `H`,
//!   find a binary mask `M` maximising `Σ (H ⊙ M)` under a per-module
//!   sub-task budget κ₁ and a per-sub-task module budget κ₂.
//! * [`knapsack`] — Eq. 2: the multi-dimensional 0/1 knapsack that selects
//!   modules by importance under communication / computation / memory
//!   limits.

pub mod assignment;
pub mod knapsack;

pub use assignment::{solve_assignment, AssignmentProblem};
pub use knapsack::{solve_mdkp_exact, solve_mdkp_greedy, MdkpInstance};

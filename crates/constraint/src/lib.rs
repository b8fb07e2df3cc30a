#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! # `mdf-constraint` — difference-constraint solving substrate
//!
//! Implements Section 2.4 of the paper ("Two Dimensional Linear Inequality
//! Systems"): systems of constraints `x_j - x_i <= w_ij` over scalar
//! (`i64`) or lexicographically ordered vector (`IVec2`, `IVecN`) unknowns,
//! lowered to constraint graphs and solved by shortest paths from a virtual
//! source.
//!
//! * [`weight::Weight`] — the linearly ordered abelian group the engines
//!   are generic over;
//! * [`graph::ConstraintGraph`] — the lowered graph, with
//!   [`graph::NegativeCycle`] infeasibility certificates;
//! * [`bellman_ford`] — the paper's Algorithm 1 (generic Bellman–Ford) with
//!   negative-cycle extraction;
//! * [`spfa`] / [`dag`] / [`scc`] / [`floyd`] — alternative engines
//!   (queue-based, topological sweep, SCC decomposition, all-pairs
//!   oracle);
//! * [`system::DifferenceSystem`] — the user-facing builder (Problem ILP /
//!   Problem 2-ILP).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bellman_ford;
pub mod dag;
pub mod floyd;
pub mod graph;
pub mod scc;
pub mod spfa;
pub mod system;
pub mod weight;

pub use bellman_ford::{
    shortest_paths_from, solve_difference_constraints, solve_difference_constraints_budgeted,
    solve_difference_constraints_traced, Solution,
};
pub use graph::{CEdge, ConstraintGraph, NegativeCycle};
pub use system::{DifferenceSystem, Engine, Infeasible};
pub use weight::Weight;

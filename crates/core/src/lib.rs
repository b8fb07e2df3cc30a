#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! # `mdf-core` — the paper's fusion algorithms
//!
//! Polynomial-time nested loop fusion with full parallelism, after
//! "Efficient Polynomial-Time Nested Loop Fusion with Full Parallelism"
//! (Sha, O'Neil, Passos; ICPP 1996):
//!
//! * [`llofra`](mod@llofra) — Algorithm 2 (legal loop fusion retiming,
//!   Theorem 3.2);
//! * [`acyclic`] — Algorithm 3 (full parallelism on acyclic 2LDGs,
//!   Theorem 4.1);
//! * [`cyclic`] — Algorithm 4 (full parallelism on cyclic 2LDGs,
//!   Theorem 4.2, two-phase x/y solve);
//! * [`hyperplane`] — Algorithm 5 (DOALL hyperplane wavefront,
//!   Lemma 4.3 / Theorem 4.4);
//! * [`planner`] — end-to-end selection + independent verification;
//! * [`ndim`] — the `N`-dimensional generalization of LLOFRA;
//! * [`partial`] — partial fusion into the fewest row-DOALL clusters
//!   (an extension for graphs that defeat Theorem 4.2);
//! * [`report`] — analysis reports.
//!
//! All algorithms reduce to difference-constraint systems solved by
//! Bellman–Ford (`mdf-constraint`), are `O(|V| |E|)`, and return canonical
//! (shortest-path) retimings — which is why they reproduce the paper's
//! worked examples coefficient for coefficient.
//!
//! Each algorithm has one metered body, `*_traced`, which takes a
//! [`BudgetMeter`] and a trace span. The plain names ([`fuse_acyclic`],
//! [`fuse_cyclic`], [`llofra()`], [`fuse_hyperplane`], [`fuse_partial`],
//! [`plan_fusion`]) run that body on an unlimited meter with tracing off.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod acyclic;
pub mod cyclic;
pub mod explain;
pub mod hyperplane;
pub mod llofra;
pub mod ndim;
pub mod partial;
pub mod planner;
pub mod report;

pub use acyclic::{fuse_acyclic, fuse_acyclic_traced};
pub use cyclic::{fuse_cyclic, fuse_cyclic_traced};
pub use explain::{explain_fusion, Explanation};
pub use hyperplane::{fuse_hyperplane, fuse_hyperplane_traced, HyperplanePlan};
pub use llofra::{llofra, llofra_traced};
pub use partial::{fuse_partial, fuse_partial_traced, verify_partial, PartialFusionPlan};
pub use planner::{
    plan_fusion, plan_fusion_budgeted, plan_fusion_traced, verify_plan, DegradedPlan,
    FullParallelMethod, FusionPlan, PlanReport, Rung, RungAttempt,
};
pub use report::{analyze, AnalysisReport};

// Re-exported so downstream crates name the pipeline error and budget
// types through one crate.
pub use mdf_graph::{
    Budget, BudgetMeter, BudgetResource, InfeasiblePhase, MdfError, WitnessWeight,
};

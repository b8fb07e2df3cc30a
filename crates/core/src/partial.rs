//! Partial fusion — an extension of Algorithm 4 for graphs that defeat
//! Theorem 4.2.
//!
//! When no single fused loop can be DOALL, the loops can still be grouped
//! into *clusters*, each fused into one DOALL loop, executed in sequence
//! within every outer iteration (one barrier per cluster per iteration
//! instead of one per original loop). The constraint system generalizes
//! Algorithm 4's two phases with per-edge requirements:
//!
//! * **intra-cluster** edges need the full DOALL treatment: hard edges
//!   retimed to `x >= 1`; other edges to `x >= 0`, with exact `y = 0`
//!   alignment when `x` lands on 0;
//! * **inter-cluster forward** edges (producer's cluster runs earlier in
//!   the row) only need `x >= 0`: the barrier between the clusters orders
//!   the whole producing row before the consuming row, so any second
//!   coordinate is legal;
//! * **inter-cluster backward** edges need `x >= 1` (the value must come
//!   from an earlier outer iteration).
//!
//! A greedy scan grows the current cluster while the system stays
//! feasible. The result sits between the paper's Algorithm 4 (one cluster)
//! and no fusion (all singletons), and is an alternative to Algorithm 5's
//! wavefront that preserves the row-parallel execution model.

use mdf_constraint::DifferenceSystem;
use mdf_graph::budget::{Budget, BudgetMeter};
use mdf_graph::cycles::topological_order;
use mdf_graph::error::MdfError;
use mdf_graph::legality::textual_order;
use mdf_graph::mldg::{Mldg, NodeId};
use mdf_graph::vec2::IVec2;
use mdf_retime::Retiming;
use mdf_trace::Span;

/// A partial-fusion result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartialFusionPlan {
    /// Clusters in execution order; each is fused into one DOALL loop.
    pub clusters: Vec<Vec<NodeId>>,
    /// The global retiming realizing the clustering.
    pub retiming: Retiming,
}

impl PartialFusionPlan {
    /// Barriers per outer iteration (= cluster count).
    pub fn barriers_per_iteration(&self) -> usize {
        self.clusters.len()
    }

    /// The cluster index of each node.
    pub fn cluster_of(&self, node_count: usize) -> Vec<usize> {
        let mut out = vec![usize::MAX; node_count];
        for (ci, c) in self.clusters.iter().enumerate() {
            for &n in c {
                out[n.index()] = ci;
            }
        }
        out
    }
}

/// Builds the phase-one ("in x") system for a given cluster assignment.
fn build_x_assignment_system(g: &Mldg, cluster_of: &[usize]) -> DifferenceSystem<i64> {
    let mut xs: DifferenceSystem<i64> = DifferenceSystem::new(g.node_count());
    for e in g.edge_ids() {
        let ed = g.edge(e);
        let (cu, cv) = (cluster_of[ed.src.index()], cluster_of[ed.dst.index()]);
        let discount = if cu == cv {
            i64::from(g.is_hard(e))
        } else if cu < cv {
            0 // forward across a barrier: x >= 0 suffices
        } else {
            1 // backward: must come from an earlier outer iteration
        };
        xs.add_le(ed.dst.index(), ed.src.index(), g.delta(e).x - discount);
    }
    xs
}

/// Builds the phase-two ("in y") system: only intra-cluster alignment
/// matters.
fn build_y_assignment_system(g: &Mldg, cluster_of: &[usize], rx: &[i64]) -> DifferenceSystem<i64> {
    let mut ys: DifferenceSystem<i64> = DifferenceSystem::new(g.node_count());
    for e in g.edge_ids() {
        let ed = g.edge(e);
        if cluster_of[ed.src.index()] != cluster_of[ed.dst.index()] || g.is_hard(e) {
            continue;
        }
        if g.delta(e).x + rx[ed.src.index()] - rx[ed.dst.index()] == 0 {
            ys.add_eq(ed.dst.index(), ed.src.index(), g.delta(e).y);
        }
    }
    ys
}

fn combine(rx: Vec<i64>, ry: Vec<i64>) -> Retiming {
    Retiming::from_offsets(
        rx.into_iter()
            .zip(ry)
            .map(|(x, y)| IVec2::new(x, y))
            .collect(),
    )
}

/// Solves the mixed constraint system for a given cluster assignment
/// (`cluster_of[v]` is the execution position of `v`'s cluster) under
/// `meter`: `Err` is a budget trip, `Ok(None)` ordinary infeasibility of
/// this assignment. The greedy scan performs `O(|V|)` of these solves, so
/// counters accumulate directly on the caller's span rather than spawning
/// a child span per solve.
fn solve_for_assignment_traced(
    g: &Mldg,
    cluster_of: &[usize],
    meter: &mut BudgetMeter,
    span: &Span,
) -> Result<Option<Retiming>, MdfError> {
    let Ok(rx) = build_x_assignment_system(g, cluster_of).solve_traced(meter, span)? else {
        return Ok(None);
    };
    let Ok(ry) = build_y_assignment_system(g, cluster_of, &rx).solve_traced(meter, span)? else {
        return Ok(None);
    };
    Ok(Some(combine(rx, ry)))
}

/// Greedy partial fusion: [`fuse_partial_traced`] on an unlimited meter.
/// Returns `None` when even the all-singleton partition is infeasible (the
/// graph has a lexicographically negative cycle, or a same-iteration cycle
/// no ordering can serialize).
///
/// ```
/// use mdf_core::partial::{fuse_partial, verify_partial};
/// use mdf_graph::paper::figure2;
///
/// // Figure 2 fuses into a single row-DOALL cluster.
/// let plan = fuse_partial(&figure2()).unwrap();
/// assert_eq!(plan.clusters.len(), 1);
/// assert!(verify_partial(&figure2(), &plan));
/// ```
pub fn fuse_partial(g: &Mldg) -> Option<PartialFusionPlan> {
    match fuse_partial_traced(g, &mut Budget::unlimited().meter(), &Span::disabled()) {
        Ok(plan) => plan,
        // No cap, no deadline and no chaos: nothing can trip.
        Err(e) => unreachable!("an unlimited meter tripped: {e}"),
    }
}

/// Greedy partial fusion under `meter`: the per-assignment solves are
/// metered (the greedy scan performs `O(|V|)` of them, so this is the most
/// solver-hungry rung of the planner's ladder). `Err` is a budget trip;
/// `Ok(None)` means no row-parallel clustering exists, as in
/// [`fuse_partial`]. Every per-assignment solve's counters are reported
/// onto `span` (plus `partial.clusters` on success).
pub fn fuse_partial_traced(
    g: &Mldg,
    meter: &mut BudgetMeter,
    span: &Span,
) -> Result<Option<PartialFusionPlan>, MdfError> {
    if g.node_count() == 0 {
        return Ok(Some(PartialFusionPlan {
            clusters: Vec::new(),
            retiming: Retiming::identity(0),
        }));
    }
    // Scan order: the textual order when one exists, otherwise any
    // topological-ish order (feasibility is decided by the solver anyway).
    let order = textual_order(g)
        .or_else(|| topological_order(g))
        .unwrap_or_else(|| g.node_ids().collect());

    let mut cluster_of = vec![usize::MAX; g.node_count()];
    let mut clusters: Vec<Vec<NodeId>> = Vec::new();
    let mut retiming: Option<Retiming> = None;

    for &v in &order {
        meter.check_deadline()?;
        // Try appending v to the last cluster.
        if let Some(last) = clusters.len().checked_sub(1) {
            cluster_of[v.index()] = last;
            // Unassigned nodes each get their own future position so their
            // edges are treated as inter-cluster in scan order.
            let tentative = assignment_with_tail(&cluster_of, &order, clusters.len());
            if let Some(r) = solve_for_assignment_traced(g, &tentative, meter, span)? {
                clusters[last].push(v);
                retiming = Some(r);
                continue;
            }
        }
        // Start a new cluster with v.
        let next = clusters.len();
        cluster_of[v.index()] = next;
        clusters.push(vec![v]);
        let tentative = assignment_with_tail(&cluster_of, &order, clusters.len());
        match solve_for_assignment_traced(g, &tentative, meter, span)? {
            Some(r) => retiming = Some(r),
            None => return Ok(None),
        }
    }
    let Some(retiming) = retiming else {
        return Ok(None);
    };
    span.add("partial.clusters", clusters.len() as u64);
    Ok(Some(PartialFusionPlan { clusters, retiming }))
}

/// Completes a partial assignment: nodes not yet placed get singleton
/// clusters after all existing ones, in scan order.
fn assignment_with_tail(cluster_of: &[usize], order: &[NodeId], next_free: usize) -> Vec<usize> {
    let mut out = cluster_of.to_vec();
    let mut next = next_free;
    for &v in order {
        if out[v.index()] == usize::MAX {
            out[v.index()] = next;
            next += 1;
        }
    }
    out
}

/// Verifies a partial-fusion plan against the graph: every dependence
/// vector must satisfy its cluster-relative requirement after retiming.
pub fn verify_partial(g: &Mldg, plan: &PartialFusionPlan) -> bool {
    let cluster_of = plan.cluster_of(g.node_count());
    if cluster_of.contains(&usize::MAX) {
        return false;
    }
    g.edge_ids().all(|e| {
        let ed = g.edge(e);
        let shift = plan.retiming.get(ed.src) - plan.retiming.get(ed.dst);
        let (cu, cv) = (cluster_of[ed.src.index()], cluster_of[ed.dst.index()]);
        g.deps(e).iter().all(|d| {
            let r = d + shift;
            if cu == cv {
                r == IVec2::ZERO || r.x >= 1 // row-DOALL inside the cluster
            } else if cu < cv {
                r.x >= 0 // barrier orders the rows
            } else {
                r.x >= 1
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdf_graph::paper::{figure14, figure2, figure8};

    #[test]
    fn single_cluster_when_algorithm4_would_succeed() {
        for g in [figure2(), figure8()] {
            let plan = fuse_partial(&g).unwrap();
            assert_eq!(plan.clusters.len(), 1, "{plan:?}");
            assert!(verify_partial(&g, &plan));
            // Matches Algorithm 4's capability.
            assert!(crate::cyclic::fuse_cyclic(&g).is_ok());
        }
    }

    #[test]
    fn relaxation_splits_into_two_doall_clusters() {
        // E5's A <-> B cycle with two hard edges: no single DOALL loop
        // exists (Alg 4 fails), but {A}, {B} works — partial fusion finds
        // the 2-cluster solution where Alg 5 would pay a wavefront.
        let mut g = Mldg::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        g.add_deps(a, b, [mdf_graph::v2(0, -1), mdf_graph::v2(0, 1)]);
        g.add_deps(b, a, [mdf_graph::v2(1, -1), mdf_graph::v2(1, 1)]);
        assert!(crate::cyclic::fuse_cyclic(&g).is_err());
        let plan = fuse_partial(&g).unwrap();
        assert_eq!(plan.clusters.len(), 2);
        assert!(verify_partial(&g, &plan));
    }

    #[test]
    fn figure14_admits_no_row_doall_partition() {
        // The C <-> D cycle has x-weight 0 but y-weight 1: putting C and D
        // in different clusters needs retimed x-sum >= 1 around the cycle,
        // and putting them together needs the same (the hard edge C -> D
        // must cross iterations) — both impossible since retiming
        // preserves the cycle's x-weight of 0. No row-parallel scheme
        // exists at any granularity; Figure 14 genuinely requires the
        // wavefront of Algorithm 5, and partial fusion reports that
        // honestly.
        assert_eq!(fuse_partial(&figure14()), None);
    }

    #[test]
    fn negative_cycle_is_still_rejected() {
        let mut g = Mldg::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        g.add_dep(a, b, (0, -2));
        g.add_dep(b, a, (0, 1));
        assert_eq!(fuse_partial(&g), None);
    }

    #[test]
    fn independent_nodes_fuse_fully() {
        let mut g = Mldg::new();
        for l in ["A", "B", "C", "D"] {
            g.add_node(l);
        }
        let plan = fuse_partial(&g).unwrap();
        assert_eq!(plan.clusters.len(), 1);
    }

    #[test]
    fn empty_graph() {
        let plan = fuse_partial(&Mldg::new()).unwrap();
        assert!(plan.clusters.is_empty());
    }

    #[test]
    fn verify_rejects_tampered_plans() {
        let g = figure2();
        let mut plan = fuse_partial(&g).unwrap();
        plan.retiming.set(NodeId(2), mdf_graph::v2(5, 5));
        assert!(!verify_partial(&g, &plan));
    }
}

//! Bellman–Ford over an arbitrary [`Weight`] algebra.
//!
//! Instantiated at `W = IVec2` this is exactly the paper's Algorithm 1
//! ("the two-dimensional Bellman–Ford algorithm"); at `W = i64` it is the
//! classic algorithm used by phases one and two of Algorithm 4.
//!
//! Two entry points:
//! * [`solve_difference_constraints`] — shortest paths from an *implicit*
//!   virtual source `v0` connected to every vertex with zero weight
//!   (Theorem 2.2/2.3). The returned distances are a feasible solution of
//!   the difference-constraint system, or a [`NegativeCycle`] certificate
//!   is produced.
//! * [`shortest_paths_from`] — single-source variant with unreachable
//!   vertices reported as `None`.

use mdf_graph::budget::{Budget, BudgetMeter};
use mdf_graph::error::MdfError;
use mdf_trace::Span;

use crate::graph::{ConstraintGraph, NegativeCycle};
use crate::weight::Weight;

/// Outcome of a difference-constraint solve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Solution<W> {
    /// The system is feasible; `dist[v]` is the canonical (shortest-path)
    /// solution, which is the lexicographically largest component-wise
    /// non-positive solution.
    Feasible {
        /// One value per vertex.
        dist: Vec<W>,
    },
    /// The system is infeasible; the cycle certifies it.
    Infeasible {
        /// A cycle of negative total weight.
        cycle: NegativeCycle<W>,
    },
}

impl<W: Weight> Solution<W> {
    /// Unwraps the feasible distances, panicking with the cycle otherwise.
    pub fn expect_feasible(self, msg: &str) -> Vec<W> {
        match self {
            Solution::Feasible { dist } => dist,
            Solution::Infeasible { cycle } => panic!("{msg}: negative cycle {cycle:?}"),
        }
    }

    /// `true` when feasible.
    pub fn is_feasible(&self) -> bool {
        matches!(self, Solution::Feasible { .. })
    }
}

/// Solves `x_dst - x_src <= w` for all edges, with every vertex implicitly
/// reachable from a zero-weight virtual source: the metered solve on an
/// unlimited meter.
pub fn solve_difference_constraints<W: Weight>(g: &ConstraintGraph<W>) -> Solution<W> {
    match solve_difference_constraints_traced(
        g,
        &mut Budget::unlimited().meter(),
        &Span::disabled(),
    ) {
        Ok(solution) => solution,
        // No cap, no deadline and no chaos: nothing can trip.
        Err(e) => unreachable!("an unlimited meter tripped: {e}"),
    }
}

/// As [`solve_difference_constraints`], but metered: every full pass over
/// the edge list charges one solver round against `meter`, which also
/// re-checks the wall-clock deadline. Adversarially large systems
/// (Bellman–Ford is `O(|V||E|)`) therefore fail fast with
/// [`MdfError::BudgetExceeded`] instead of stalling the pipeline.
pub fn solve_difference_constraints_budgeted<W: Weight>(
    g: &ConstraintGraph<W>,
    meter: &mut BudgetMeter,
) -> Result<Solution<W>, MdfError> {
    solve_difference_constraints_traced(g, meter, &Span::disabled())
}

/// As [`solve_difference_constraints_budgeted`], also reporting relaxation
/// counters onto `span`: `constraint.rounds` (full passes over the edge
/// list), `constraint.relaxations` (successful distance improvements) and
/// `constraint.negative-cycles` (1 when infeasible). Counters accumulate
/// in locals and are reported once at the end, so the hot loop is
/// identical whether tracing is enabled or not.
pub fn solve_difference_constraints_traced<W: Weight>(
    g: &ConstraintGraph<W>,
    meter: &mut BudgetMeter,
    span: &Span,
) -> Result<Solution<W>, MdfError> {
    let n = g.vertex_count();
    // Virtual source: dist starts at ZERO everywhere, exactly as if v0 had a
    // zero-weight edge to every vertex (LLOFRA's construction).
    let mut dist: Vec<W> = vec![W::ZERO; n];
    let mut pred: Vec<Option<usize>> = vec![None; n];
    let mut rounds: u64 = 0;
    let mut relaxations: u64 = 0;

    let report = |span: &Span, rounds: u64, relaxations: u64, cycles: u64| {
        span.add("constraint.rounds", rounds);
        span.add("constraint.relaxations", relaxations);
        if cycles > 0 {
            span.add("constraint.negative-cycles", cycles);
        }
    };

    for _round in 0..n {
        meter.chaos_site("constraint.solve.round")?;
        meter.charge_rounds(1)?;
        rounds += 1;
        let mut changed = false;
        for (eid, e) in g.edges().iter().enumerate() {
            let candidate = dist[e.src] + e.weight;
            if candidate < dist[e.dst] {
                dist[e.dst] = candidate;
                pred[e.dst] = Some(eid);
                relaxations += 1;
                changed = true;
            }
        }
        if !changed {
            report(span, rounds, relaxations, 0);
            return Ok(Solution::Feasible { dist });
        }
    }
    // A relaxation occurred in the n-th pass: a negative cycle exists. Run
    // one more full pass, *applying* the relaxations, and walk back from a
    // vertex updated in it: such a vertex's predecessor chain is current
    // all the way (a vertex can only be re-improved via predecessors that
    // were themselves improved after round one), so following it n steps
    // provably lands on the cycle.
    meter.chaos_site("constraint.solve.round")?;
    meter.charge_rounds(1)?;
    rounds += 1;
    let mut witness = None;
    for (eid, e) in g.edges().iter().enumerate() {
        let candidate = dist[e.src] + e.weight;
        if candidate < dist[e.dst] {
            dist[e.dst] = candidate;
            pred[e.dst] = Some(eid);
            relaxations += 1;
            witness = Some(e.dst);
        }
    }
    // An n-th relaxation pass only runs because an edge improved, so a
    // witness was recorded.
    #[allow(clippy::expect_used)]
    let start = witness.expect("relaxation in pass n but no improvable edge found");
    report(span, rounds, relaxations, 1);
    Ok(Solution::Infeasible {
        cycle: extract_cycle(g, &pred, start),
    })
}

/// Single-source shortest paths; `None` marks unreachable vertices.
pub fn shortest_paths_from<W: Weight>(
    g: &ConstraintGraph<W>,
    source: usize,
) -> Result<Vec<Option<W>>, NegativeCycle<W>> {
    let n = g.vertex_count();
    let mut dist: Vec<Option<W>> = vec![None; n];
    let mut pred: Vec<Option<usize>> = vec![None; n];
    dist[source] = Some(W::ZERO);

    for _ in 0..n {
        let mut changed = false;
        for (eid, e) in g.edges().iter().enumerate() {
            let Some(ds) = dist[e.src] else { continue };
            let candidate = ds + e.weight;
            if dist[e.dst].is_none_or(|d| candidate < d) {
                dist[e.dst] = Some(candidate);
                pred[e.dst] = Some(eid);
                changed = true;
            }
        }
        if !changed {
            return Ok(dist);
        }
    }
    // Same witness strategy as the virtual-source solver: apply one more
    // full pass and extract from a vertex updated in it.
    let mut witness = None;
    for (eid, e) in g.edges().iter().enumerate() {
        let Some(ds) = dist[e.src] else { continue };
        let candidate = ds + e.weight;
        if dist[e.dst].is_none_or(|d| candidate < d) {
            dist[e.dst] = Some(candidate);
            pred[e.dst] = Some(eid);
            witness = Some(e.dst);
        }
    }
    // An n-th relaxation pass only runs because an edge improved, so a
    // witness was recorded.
    #[allow(clippy::expect_used)]
    let start = witness.expect("relaxation in pass n but no improvable edge found");
    Err(extract_cycle(g, &pred, start))
}

/// Walks predecessor links back from `start` (known to be reachable from a
/// negative cycle) until a vertex repeats, then returns the cycle's edges in
/// forward order.
fn extract_cycle<W: Weight>(
    g: &ConstraintGraph<W>,
    pred: &[Option<usize>],
    start: usize,
) -> NegativeCycle<W> {
    let n = g.vertex_count();
    // Step back n times to guarantee we are *on* the cycle, not merely
    // downstream of it.
    let mut v = start;
    for _ in 0..n {
        #[allow(clippy::expect_used)]
        let e = pred[v].expect("vertex behind a negative cycle must have a predecessor");
        v = g.edge(e).src;
    }
    // Collect edges around the cycle.
    let anchor = v;
    let mut edges_rev = Vec::new();
    loop {
        #[allow(clippy::expect_used)]
        let e = pred[v].expect("cycle vertex must have a predecessor");
        edges_rev.push(e);
        v = g.edge(e).src;
        if v == anchor {
            break;
        }
    }
    edges_rev.reverse();
    let total = g.weight_sum(&edges_rev);
    debug_assert!(
        total < W::ZERO,
        "extracted cycle is not negative: {total:?}"
    );
    NegativeCycle {
        edges: edges_rev,
        total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdf_graph::v2;
    use mdf_graph::vec2::IVec2;

    #[test]
    fn feasible_scalar_system() {
        // x1 - x0 <= 2, x2 - x1 <= -3, x2 - x0 <= -2
        let mut g: ConstraintGraph<i64> = ConstraintGraph::new(3);
        g.add_edge(0, 1, 2);
        g.add_edge(1, 2, -3);
        g.add_edge(0, 2, -2);
        let dist = solve_difference_constraints(&g).expect_feasible("test");
        for e in g.edges() {
            assert!(dist[e.dst] - dist[e.src] <= e.weight);
        }
    }

    #[test]
    fn infeasible_scalar_system_yields_verified_cycle() {
        // x1 - x0 <= -1 and x0 - x1 <= 0 implies 0 <= -1: infeasible.
        let mut g: ConstraintGraph<i64> = ConstraintGraph::new(2);
        g.add_edge(0, 1, -1);
        g.add_edge(1, 0, 0);
        match solve_difference_constraints(&g) {
            Solution::Infeasible { cycle } => {
                assert!(cycle.verify(&g));
                assert_eq!(cycle.total, -1);
            }
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn figure5_constraint_graph_reproduces_paper_retiming() {
        // The constraint graph of Figure 5 (LLOFRA on Figure 2):
        // vertices A=0, B=1, C=2, D=3; weights are the δ_L of Figure 2.
        let mut g: ConstraintGraph<IVec2> = ConstraintGraph::new(4);
        g.add_edge(0, 1, v2(1, 1)); // A -> B
        g.add_edge(1, 2, v2(0, -2)); // B -> C
        g.add_edge(2, 3, v2(0, -1)); // C -> D
        g.add_edge(0, 2, v2(0, 1)); // A -> C
        g.add_edge(3, 0, v2(2, 1)); // D -> A
        g.add_edge(2, 2, v2(1, 0)); // C -> C
        let dist = solve_difference_constraints(&g).expect_feasible("fig5");
        // Section 3.3: r(A)=(0,0), r(B)=(0,0), r(C)=(0,-2), r(D)=(0,-3).
        assert_eq!(dist, vec![v2(0, 0), v2(0, 0), v2(0, -2), v2(0, -3)]);
    }

    #[test]
    fn lexicographic_negative_cycle_detected() {
        let mut g: ConstraintGraph<IVec2> = ConstraintGraph::new(3);
        g.add_edge(0, 1, v2(0, 5));
        g.add_edge(1, 2, v2(0, -3));
        g.add_edge(2, 0, v2(0, -3));
        match solve_difference_constraints(&g) {
            Solution::Infeasible { cycle } => {
                assert!(cycle.verify(&g));
                assert_eq!(cycle.total, v2(0, -1));
                assert_eq!(cycle.edges.len(), 3);
            }
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn zero_cycle_is_feasible() {
        // Equality constraints x1 - x0 = 3 encoded as a 0-weight cycle.
        let mut g: ConstraintGraph<i64> = ConstraintGraph::new(2);
        g.add_edge(0, 1, 3);
        g.add_edge(1, 0, -3);
        let dist = solve_difference_constraints(&g).expect_feasible("eq");
        assert_eq!(dist[1] - dist[0], 3);
    }

    #[test]
    fn single_source_unreachable_is_none() {
        let mut g: ConstraintGraph<i64> = ConstraintGraph::new(3);
        g.add_edge(0, 1, 7);
        let d = shortest_paths_from(&g, 0).unwrap();
        assert_eq!(d, vec![Some(0), Some(7), None]);
    }

    #[test]
    fn single_source_negative_cycle() {
        let mut g: ConstraintGraph<i64> = ConstraintGraph::new(3);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, -2);
        g.add_edge(2, 1, 1);
        let err = shortest_paths_from(&g, 0).unwrap_err();
        assert!(err.verify(&g));
        assert_eq!(err.total, -1);
    }

    #[test]
    fn negative_cycle_not_reachable_from_source_is_ignored() {
        let mut g: ConstraintGraph<i64> = ConstraintGraph::new(4);
        g.add_edge(0, 1, 5);
        g.add_edge(2, 3, -1);
        g.add_edge(3, 2, 0);
        // From source 0 the negative cycle {2,3} is unreachable.
        let d = shortest_paths_from(&g, 0).unwrap();
        assert_eq!(d[1], Some(5));
        assert_eq!(d[2], None);
        // But the virtual-source solve must reject it.
        assert!(!solve_difference_constraints(&g).is_feasible());
    }

    #[test]
    fn stats_reflect_early_exit() {
        let mut g: ConstraintGraph<i64> = ConstraintGraph::new(5);
        for v in 0..4 {
            g.add_edge(v, v + 1, -1);
        }
        let sink = std::sync::Arc::new(mdf_trace::MemorySink::new());
        let span = mdf_trace::Tracer::new(sink.clone()).span("solve");
        let sol = solve_difference_constraints_traced(&g, &mut Budget::unlimited().meter(), &span)
            .unwrap();
        span.finish();
        assert!(sol.is_feasible());
        let profile = sink.profile().unwrap();
        assert!(profile.counter_total("constraint.rounds") <= 5);
        assert!(profile.counter_total("constraint.relaxations") >= 4);
    }

    #[test]
    fn self_loop_negative_is_infeasible() {
        let mut g: ConstraintGraph<IVec2> = ConstraintGraph::new(1);
        g.add_edge(0, 0, v2(0, -1));
        match solve_difference_constraints(&g) {
            Solution::Infeasible { cycle } => {
                assert_eq!(cycle.edges.len(), 1);
                assert!(cycle.verify(&g));
            }
            other => panic!("expected infeasible, got {other:?}"),
        }
    }
}

//! High-level difference-constraint systems ("Problem ILP" / "Problem
//! 2-ILP" of Section 2.4).
//!
//! A [`DifferenceSystem`] accumulates constraints of the form
//! `x_j - x_i <= w` (and equalities, encoded as opposing inequalities),
//! lowers them onto a [`ConstraintGraph`] and solves it with the paper's
//! Algorithm 1 (Bellman–Ford). Feasibility follows Theorems 2.2/2.3: the
//! system has a solution iff the constraint graph has no cycle of
//! (lexicographically) negative weight, and shortest distances from the
//! virtual source are a solution.

use mdf_graph::budget::BudgetMeter;
use mdf_graph::error::MdfError;
use mdf_trace::Span;

use crate::bellman_ford::{
    solve_difference_constraints, solve_difference_constraints_traced, Solution,
};
use crate::graph::{ConstraintGraph, NegativeCycle};
use crate::weight::Weight;

/// A system of difference constraints over `n` variables.
///
/// ```
/// use mdf_constraint::DifferenceSystem;
/// use mdf_graph::v2;
///
/// // The paper's 2-ILP: vector unknowns under the lexicographic order.
/// let mut sys = DifferenceSystem::new(2);
/// sys.add_le(1, 0, v2(0, -2)); // r1 - r0 <= (0,-2)
/// sys.add_le(0, 1, v2(1, 0));  // r0 - r1 <= (1,0)
/// let r = sys.solve().unwrap();
/// assert!(r[1] - r[0] <= v2(0, -2));
/// ```
#[derive(Clone, Debug)]
pub struct DifferenceSystem<W> {
    graph: ConstraintGraph<W>,
}

/// Infeasibility witness: the constraint indices (edge ids) of a negative
/// cycle in the lowered graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Infeasible<W> {
    /// The offending cycle.
    pub cycle: NegativeCycle<W>,
}

impl<W: Weight> DifferenceSystem<W> {
    /// Creates a system with `variables` unknowns `x_0 .. x_{n-1}`.
    pub fn new(variables: usize) -> Self {
        DifferenceSystem {
            graph: ConstraintGraph::new(variables),
        }
    }

    /// Adds `x_j - x_i <= w`; returns the constraint's edge index.
    pub fn add_le(&mut self, j: usize, i: usize, w: W) -> usize {
        self.graph.add_edge(i, j, w)
    }

    /// Adds `x_j - x_i == w` (two opposing inequalities).
    pub fn add_eq(&mut self, j: usize, i: usize, w: W) {
        self.graph.add_edge(i, j, w);
        self.graph.add_edge(j, i, -w);
    }

    /// Number of variables.
    pub fn variables(&self) -> usize {
        self.graph.vertex_count()
    }

    /// Number of constraints (edges).
    pub fn constraints(&self) -> usize {
        self.graph.edge_count()
    }

    /// Read-only access to the lowered constraint graph.
    pub fn graph(&self) -> &ConstraintGraph<W> {
        &self.graph
    }

    /// Solves the system with Bellman–Ford on an unlimited meter. On
    /// success the returned assignment satisfies every constraint
    /// (asserted in debug builds).
    pub fn solve(&self) -> Result<Vec<W>, Infeasible<W>> {
        self.feasibility(solve_difference_constraints(&self.graph))
    }

    /// Solves the system under `meter`. The outer `Result` reports abnormal
    /// termination (`MdfError::BudgetExceeded` when the meter's
    /// solver-round or wall-clock limit trips); the inner one is ordinary
    /// feasibility, as in [`DifferenceSystem::solve`]. Also reports system
    /// shape (`constraint.systems`, `constraint.variables`,
    /// `constraint.constraints`) and the relaxation counters of the
    /// Bellman–Ford run onto `span`.
    #[allow(clippy::type_complexity)]
    pub fn solve_traced(
        &self,
        meter: &mut BudgetMeter,
        span: &Span,
    ) -> Result<Result<Vec<W>, Infeasible<W>>, MdfError> {
        span.add("constraint.systems", 1);
        span.add("constraint.variables", self.variables() as u64);
        span.add("constraint.constraints", self.constraints() as u64);
        let solution = solve_difference_constraints_traced(&self.graph, meter, span)?;
        Ok(self.feasibility(solution))
    }

    fn feasibility(&self, solution: Solution<W>) -> Result<Vec<W>, Infeasible<W>> {
        match solution {
            Solution::Feasible { dist } => {
                debug_assert!(self.check(&dist), "solver produced an invalid solution");
                Ok(dist)
            }
            Solution::Infeasible { cycle } => Err(Infeasible { cycle }),
        }
    }

    /// Verifies an assignment against every constraint.
    pub fn check(&self, assignment: &[W]) -> bool {
        assignment.len() == self.variables()
            && self
                .graph
                .edges()
                .iter()
                .all(|e| assignment[e.dst] - assignment[e.src] <= e.weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdf_graph::v2;
    use mdf_graph::vec2::IVec2;
    use proptest::prelude::*;

    #[test]
    fn equalities_are_honored() {
        let mut sys: DifferenceSystem<i64> = DifferenceSystem::new(3);
        sys.add_eq(1, 0, 4);
        sys.add_le(2, 1, -1);
        let x = sys.solve().unwrap();
        assert_eq!(x[1] - x[0], 4);
        assert!(x[2] - x[1] <= -1);
        assert!(sys.check(&x));
    }

    #[test]
    fn contradictory_equalities_rejected() {
        let mut sys: DifferenceSystem<i64> = DifferenceSystem::new(2);
        sys.add_eq(1, 0, 4);
        sys.add_eq(1, 0, 5);
        let err = sys.solve().unwrap_err();
        assert!(err.cycle.verify(sys.graph()));
    }

    #[test]
    fn budgeted_solve_matches_plain_solve() {
        use mdf_graph::budget::Budget;
        let mut sys: DifferenceSystem<IVec2> = DifferenceSystem::new(4);
        sys.add_le(1, 0, v2(1, 1));
        sys.add_le(2, 1, v2(0, -2));
        sys.add_le(3, 2, v2(0, -1));
        sys.add_le(0, 3, v2(2, 1));
        let mut meter = Budget::unlimited().meter();
        let budgeted = sys
            .solve_traced(&mut meter, &Span::disabled())
            .unwrap()
            .unwrap();
        let plain = sys.solve().unwrap();
        assert_eq!(budgeted, plain);
    }

    #[test]
    fn budgeted_solve_trips_on_round_limit() {
        use mdf_graph::budget::Budget;
        use mdf_graph::error::{BudgetResource, MdfError};
        // A long chain added in reverse order needs one round per vertex.
        let n = 64;
        let mut sys: DifferenceSystem<i64> = DifferenceSystem::new(n);
        for v in (0..n - 1).rev() {
            sys.add_le(v + 1, v, -1);
        }
        let mut meter = Budget::unlimited().with_max_solver_rounds(3).meter();
        match sys.solve_traced(&mut meter, &Span::disabled()) {
            Err(MdfError::BudgetExceeded {
                resource: BudgetResource::SolverRounds,
                limit: 3,
                ..
            }) => {}
            other => panic!("expected a round-budget trip, got {other:?}"),
        }
    }

    #[test]
    fn budgeted_solve_still_reports_infeasibility() {
        use mdf_graph::budget::Budget;
        let mut sys: DifferenceSystem<i64> = DifferenceSystem::new(2);
        sys.add_eq(1, 0, 4);
        sys.add_eq(1, 0, 5);
        let mut meter = Budget::unlimited().meter();
        let inf = sys
            .solve_traced(&mut meter, &Span::disabled())
            .unwrap()
            .unwrap_err();
        assert!(inf.cycle.verify(sys.graph()));
    }

    proptest! {
        /// Random scalar systems: any feasible solution passes `check`, and
        /// every infeasibility certificate verifies.
        #[test]
        fn engines_agree_on_random_systems(
            n in 1usize..8,
            edges in proptest::collection::vec((0usize..8, 0usize..8, -10i64..10), 0..24)
        ) {
            let mut sys: DifferenceSystem<i64> = DifferenceSystem::new(n);
            for (i, j, w) in edges {
                sys.add_le(j % n, i % n, w);
            }
            match sys.solve() {
                Ok(x) => prop_assert!(sys.check(&x)),
                Err(inf) => prop_assert!(inf.cycle.verify(sys.graph())),
            }
        }

        /// Random 2-D systems agree with the Floyd–Warshall oracle.
        #[test]
        fn bellman_ford_matches_floyd_oracle(
            n in 1usize..7,
            edges in proptest::collection::vec(
                (0usize..7, 0usize..7, -4i64..5, -4i64..5), 0..20)
        ) {
            let mut sys: DifferenceSystem<IVec2> = DifferenceSystem::new(n);
            for (i, j, x, y) in edges {
                sys.add_le(j % n, i % n, v2(x, y));
            }
            let bf = sys.solve();
            let fw = crate::floyd::solve_difference_constraints_floyd(sys.graph());
            prop_assert_eq!(bf.is_ok(), fw.is_ok());
            if let (Ok(a), Ok(b)) = (bf, fw) {
                prop_assert_eq!(a, b);
            }
        }
    }
}

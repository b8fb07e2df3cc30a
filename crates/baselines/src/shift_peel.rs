//! Shift-and-peel (Manjikian & Abdelrahman) — the closest published
//! competitor the paper compares against.
//!
//! The transformation fuses all loops after *shifting* each loop's inner
//! dimension so that every same-outer-iteration dependence points forward
//! (fusion becomes legal), then *peels* iterations at processor-block
//! boundaries so the blocks can run concurrently despite the remaining
//! forward intra-row dependences. Shifts act on the inner dimension only —
//! a one-dimensional special case of the paper's retiming — so hard edges
//! can be made legal but never loop-carried, and the peel overhead grows
//! with the accumulated shift distance. The paper's critique: "when the
//! number of peeled iterations exceeds the number of iterations per
//! processor, this method is not efficient."

use mdf_constraint::DifferenceSystem;
use mdf_graph::legality::textual_order;
use mdf_graph::mldg::Mldg;

/// The result of shift-and-peel planning.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShiftPeelPlan {
    /// Inner-dimension shift per node (indexed by `NodeId`); loop `u`'s
    /// iteration `j` executes at fused position `j - shift(u)`.
    pub shifts: Vec<i64>,
    /// Iterations peeled at each processor-block boundary: the spread of
    /// the shifts.
    pub peel: i64,
    /// Dependence vectors that remain forward-serializing within a row
    /// after shifting (`(0, k)` with `k > 0`): these are what the peel
    /// must cover.
    pub serializing_vectors: usize,
}

impl ShiftPeelPlan {
    /// Manjikian & Abdelrahman's efficiency condition: the peel must stay
    /// below the per-processor block width `(m + 1) / p`.
    pub fn efficient_for(&self, m: i64, processors: i64) -> bool {
        self.peel < (m + 1) / processors.max(1)
    }
}

/// Plans shift-and-peel for `g`. Returns `None` when no shift can make the
/// fusion legal — i.e. when the same-outer-iteration dependences are
/// cyclic (the graph is not a straight loop sequence).
pub fn shift_and_peel(g: &Mldg) -> Option<ShiftPeelPlan> {
    // Shifting cannot change outer-iteration distances, so legality after
    // fusion requires a valid textual order (acyclic zero-x subgraph).
    textual_order(g)?;

    // For every dependence vector (0, y) we need the shifted distance
    // y + s(u) - s(v) >= 0, i.e. s(v) - s(u) <= y. (Vectors with x >= 1
    // stay legal under any inner shift.)
    let mut sys: DifferenceSystem<i64> = DifferenceSystem::new(g.node_count());
    for e in g.edge_ids() {
        let ed = g.edge(e);
        for d in g.deps(e).iter() {
            if d.x == 0 {
                sys.add_le(ed.dst.index(), ed.src.index(), d.y);
            }
        }
    }
    let shifts = sys.solve().ok()?;

    let peel = match (shifts.iter().max(), shifts.iter().min()) {
        (Some(&hi), Some(&lo)) => hi - lo,
        _ => 0,
    };
    let serializing_vectors = g
        .edge_ids()
        .flat_map(|e| {
            let ed = g.edge(e);
            let shift = shifts[ed.src.index()] - shifts[ed.dst.index()];
            g.deps(e)
                .iter()
                .filter(move |d| d.x == 0 && d.y + shift > 0)
                .collect::<Vec<_>>()
        })
        .count();
    Some(ShiftPeelPlan {
        shifts,
        peel,
        serializing_vectors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdf_graph::paper::{figure2, figure8};

    #[test]
    fn figure2_shift_and_peel_fuses_with_peel_overhead() {
        let g = figure2();
        let plan = shift_and_peel(&g).unwrap();
        // Every zero-x vector must point forward after shifting.
        for e in g.edge_ids() {
            let ed = g.edge(e);
            let shift = plan.shifts[ed.src.index()] - plan.shifts[ed.dst.index()];
            for d in g.deps(e).iter() {
                if d.x == 0 {
                    assert!(d.y + shift >= 0, "vector {d} still backward");
                }
            }
        }
        assert!(plan.peel > 0, "Figure 2 needs alignment: {plan:?}");
        // The hard edge B -> C leaves a serializing forward dependence
        // ((0,-2) and (0,1) cannot both become 0), unlike the paper's
        // 2-D retiming which achieves a true DOALL fused loop.
        assert!(plan.serializing_vectors > 0);
    }

    #[test]
    fn figure8_shift_and_peel() {
        let plan = shift_and_peel(&figure8()).unwrap();
        assert!(plan.peel >= 3, "A->D needs a shift of 3: {plan:?}");
    }

    #[test]
    fn efficiency_condition() {
        let plan = ShiftPeelPlan {
            shifts: vec![0, -4],
            peel: 4,
            serializing_vectors: 0,
        };
        // 64 iterations over 8 processors: block width 8 > peel 4: fine.
        assert!(plan.efficient_for(63, 8));
        // 32 iterations over 8 processors: block width 4 = peel: breaks.
        assert!(!plan.efficient_for(31, 8));
    }

    #[test]
    fn independent_loops_need_no_peel() {
        let mut g = Mldg::new();
        g.add_node("A");
        g.add_node("B");
        let plan = shift_and_peel(&g).unwrap();
        assert_eq!(plan.peel, 0);
        assert_eq!(plan.serializing_vectors, 0);
    }

    #[test]
    fn same_iteration_cycle_unfusable() {
        let mut g = Mldg::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        g.add_dep(a, b, (0, 1));
        g.add_dep(b, a, (0, 1));
        assert_eq!(shift_and_peel(&g), None);
    }
}

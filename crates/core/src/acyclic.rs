//! Algorithm 3: legal loop fusion with full parallelism for *acyclic*
//! 2LDGs (Theorem 4.1).
//!
//! The constraint system `r(v_j) - r(v_i) <= δ_L(e) - (1,-1)` always has a
//! solution on an acyclic graph (its constraint graph is acyclic too), and
//! any solution gives `δ_r(e) >= (1,-1)` — hence, since the lexicographic
//! minimum carries the smallest first coordinate, every dependence vector
//! is carried by the outer loop and the fused innermost loop is DOALL.
//! Following the paper, the second retiming component is then zeroed: only
//! the first component is needed for the DOALL property, and dropping the
//! second avoids inner-dimension prologue shifts.

use mdf_constraint::DifferenceSystem;
use mdf_graph::budget::{Budget, BudgetMeter};
use mdf_graph::cycles::is_acyclic;
use mdf_graph::error::MdfError;
use mdf_graph::mldg::Mldg;
use mdf_graph::vec2::IVec2;
use mdf_retime::Retiming;
use mdf_trace::Span;

/// Runs Algorithm 3: [`fuse_acyclic_traced`] on an unlimited meter. The
/// constraint system of an acyclic 2LDG is always feasible (Theorem 4.1),
/// so the only failure is [`MdfError::NotAcyclic`].
pub fn fuse_acyclic(g: &Mldg) -> Result<Retiming, MdfError> {
    fuse_acyclic_traced(g, &mut Budget::unlimited().meter(), &Span::disabled())
}

fn build_acyclic_system(g: &Mldg) -> DifferenceSystem<IVec2> {
    let mut sys: DifferenceSystem<IVec2> = DifferenceSystem::new(g.node_count());
    for e in g.edge_ids() {
        let ed = g.edge(e);
        sys.add_le(
            ed.dst.index(),
            ed.src.index(),
            g.delta(e) - IVec2::ONE_NEG_ONE,
        );
    }
    sys
}

/// Zeroes the second components (final loop of Algorithm 3).
fn zero_y(offsets: Vec<IVec2>) -> Retiming {
    Retiming::from_offsets(offsets.into_iter().map(|v| IVec2::new(v.x, 0)).collect())
}

/// Runs Algorithm 3 under `meter`, reporting the constraint solve's shape
/// and relaxation counters onto a `solve` child of `span`. Besides
/// [`MdfError::NotAcyclic`], fails only with [`MdfError::BudgetExceeded`].
pub fn fuse_acyclic_traced(
    g: &Mldg,
    meter: &mut BudgetMeter,
    span: &Span,
) -> Result<Retiming, MdfError> {
    if !is_acyclic(g) {
        return Err(MdfError::NotAcyclic);
    }
    let solve = span.child("solve");
    let offsets = build_acyclic_system(g)
        .solve_traced(meter, &solve)?
        .map_err(|_| {
            MdfError::invalid("acyclic constraint system infeasible, contradicting Theorem 4.1")
        })?;
    Ok(zero_y(offsets))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdf_graph::legality::fused_inner_loop_is_doall;
    use mdf_graph::paper::{figure2, figure8};
    use mdf_graph::v2;
    use mdf_retime::{apply_retiming, check_inner_doall, check_retiming_consistency};

    #[test]
    fn figure8_reproduces_figure10_retiming() {
        let g = figure8();
        let r = fuse_acyclic(&g).unwrap();
        // Figure 10: r(A)=(0,0), r(B)=(-1,0), r(C)=(-2,0), r(D)=(-2,0),
        // r(E)=(-1,0), r(F)=(-2,0), r(G)=(-2,0).
        assert_eq!(
            r.offsets(),
            &[
                v2(0, 0),
                v2(-1, 0),
                v2(-2, 0),
                v2(-2, 0),
                v2(-1, 0),
                v2(-2, 0),
                v2(-2, 0)
            ]
        );
    }

    #[test]
    fn figure10_retimed_weights_match_paper() {
        let g = figure8();
        let r = fuse_acyclic(&g).unwrap();
        let gr = apply_retiming(&g, &r);
        let id = |s: &str| gr.node_by_label(s).unwrap();
        let dd = |a: &str, b: &str| gr.delta(gr.edge_between(id(a), id(b)).unwrap());
        assert_eq!(dd("A", "B"), v2(1, 1));
        assert_eq!(dd("B", "C"), v2(1, -2));
        assert_eq!(dd("C", "D"), v2(1, 3));
        assert_eq!(dd("D", "E"), v2(1, -2));
        assert_eq!(dd("B", "F"), v2(1, -2));
        assert_eq!(dd("F", "G"), v2(1, 2));
        assert_eq!(dd("B", "E"), v2(1, 2));
        assert_eq!(dd("A", "D"), v2(2, -3));
        assert_eq!(check_retiming_consistency(&g, &gr, &r, 100), Ok(()));
        assert_eq!(check_inner_doall(&gr), Ok(()));
        assert!(fused_inner_loop_is_doall(&gr));
    }

    #[test]
    fn cyclic_input_rejected() {
        assert_eq!(fuse_acyclic(&figure2()), Err(MdfError::NotAcyclic));
    }

    #[test]
    fn single_node_graph() {
        let mut g = Mldg::new();
        g.add_node("A");
        let r = fuse_acyclic(&g).unwrap();
        assert!(r.is_identity());
    }

    #[test]
    fn second_components_are_always_zero() {
        let g = figure8();
        let r = fuse_acyclic(&g).unwrap();
        assert!(r.offsets().iter().all(|v| v.y == 0));
    }
}

//! Executing fused, retimed programs — and checking them against the
//! reference interpreter.
//!
//! A fused run is a sequence of DOALL steps separated by barriers, and a
//! [`Traversal`] names the order in which it visits them:
//!
//! * [`Traversal::Rows`] — one fused row per barrier. Ascending `J` is
//!   the serialization of a DOALL fused loop (and of any legally-fused
//!   loop: all retimed dependences are `>= (0,0)`, so ascending `J`
//!   respects forward row dependences). Descending `J` is an adversarial
//!   serialization that produces the same result **iff** no dependence
//!   binds within a row, i.e. exactly when the fused loop really is
//!   DOALL;
//! * [`Traversal::Wavefront`] — one hyperplane group per barrier, for
//!   Algorithm 5 plans;
//! * [`Traversal::Clusters`] — one cluster step per barrier, for
//!   partial-fusion plans.
//!
//! [`Traversal::of`] picks the order a fully fused plan runs in. Every
//! traversal runs through one drive, [`run_traversal_supervised`], over
//! the barrier driver in [`crate::recover`]; [`run_traversal`] is that
//! drive under [`RetryPolicy::once`] on an unlimited meter.
//! [`check_plan`] runs the full pipeline for a plan and compares every
//! memory image against the original program's.

use mdf_core::{FusionPlan, PartialFusionPlan};
use mdf_graph::mldg::{Mldg, NodeId};
use mdf_graph::{Budget, BudgetMeter, IVec2, MdfError};
use mdf_ir::ast::Program;
use mdf_ir::retgen::{FusedSpec, IRange};
use mdf_retime::{Retiming, Wavefront};

use crate::interp::{eval_expr, run_original_budgeted, ExecStats, Memory};
use crate::recover::{supervise_run, Checkpoint, RetryPolicy, SupervisedOutcome};

/// Inner-loop traversal order for fused row execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowOrder {
    /// Ascending `J` (the canonical serialization).
    Ascending,
    /// Descending `J` (adversarial; only valid for DOALL rows).
    Descending,
}

/// The order in which a fused run visits its barriers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Traversal<'a> {
    /// One fused row per barrier, its cells in the given `J` order.
    Rows(RowOrder),
    /// One hyperplane group per barrier: the active cells with equal
    /// `t = s · (fi, fj)`, groups in ascending `t`.
    Wavefront(Wavefront),
    /// A partial-fusion plan's clusters: each fused row runs the clusters
    /// in order, one barrier after each, so barrier `b` is cluster
    /// `b % k` of row `b / k` for `k` clusters.
    Clusters(&'a [Vec<NodeId>]),
}

impl Traversal<'static> {
    /// The order the interpreter runs a fully fused plan in: ascending
    /// rows for a full-parallel plan, the plan's wavefront for a
    /// hyperplane plan. The interpreter's counterpart of
    /// `mdf_kernel::plan_mode`.
    pub fn of(plan: &FusionPlan) -> Self {
        match plan {
            FusionPlan::FullParallel { .. } => Traversal::Rows(RowOrder::Ascending),
            FusionPlan::Hyperplane { wavefront, .. } => Traversal::Wavefront(*wavefront),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn exec_body_at(
    spec: &FusedSpec,
    order: &[usize],
    mem: &mut Memory,
    fi: i64,
    fj: i64,
    n: i64,
    m: i64,
    stats: &mut ExecStats,
) {
    for &li in order {
        if !spec.node_active(li, fi, fj, n, m) {
            continue;
        }
        let r = spec.offsets[li];
        let (i, j) = (fi + r.x, fj + r.y);
        for s in &spec.program.loops[li].stmts {
            let v = eval_expr(mem, &s.rhs, i, j);
            mem.write(&s.lhs, i, j, v);
            stats.stmt_instances += 1;
        }
    }
}

/// What one barrier of a traversal executes, resolved once per run.
enum Steps {
    /// Fused row `outer.lo + b`, in this `J` order.
    Rows(RowOrder),
    /// Wavefront group `b`'s cells.
    Groups(Vec<Vec<(i64, i64)>>),
    /// Each cluster's loops in fused body order; barrier `b` runs member
    /// list `b % k` over fused row `outer.lo + b / k`.
    Clusters(Vec<Vec<usize>>),
}

/// A traversal resolved against a spec and bounds: the fused body order,
/// the fused ranges and the per-barrier work.
struct Walk<'s> {
    spec: &'s FusedSpec,
    n: i64,
    m: i64,
    body: Vec<usize>,
    outer: IRange,
    inner: IRange,
    steps: Steps,
}

impl<'s> Walk<'s> {
    /// Resolves `traversal`, or a typed error for non-executable specs (a
    /// `(0,0)`-dependence cycle between loops) instead of a panic.
    fn new(
        spec: &'s FusedSpec,
        traversal: Traversal<'_>,
        n: i64,
        m: i64,
    ) -> Result<Self, MdfError> {
        let body = spec.body_order().ok_or_else(|| {
            MdfError::invalid(
                "fused body has a (0,0)-dependence cycle: the program is not executable",
            )
        })?;
        let steps = match traversal {
            Traversal::Rows(order) => Steps::Rows(order),
            Traversal::Wavefront(w) => Steps::Groups(wavefront_buckets(spec, w.schedule, n, m)),
            // Members in global body order, restricted to each cluster.
            Traversal::Clusters(clusters) => Steps::Clusters(
                clusters
                    .iter()
                    .map(|c| {
                        body.iter()
                            .copied()
                            .filter(|li| c.iter().any(|n| n.index() == *li))
                            .collect()
                    })
                    .collect(),
            ),
        };
        Ok(Walk {
            spec,
            n,
            m,
            body,
            outer: spec.outer_range(n),
            inner: spec.inner_range(m),
            steps,
        })
    }

    /// The barriers the traversal executes.
    fn barriers(&self) -> u64 {
        let rows = self.outer.len() as u64;
        match &self.steps {
            Steps::Rows(_) => rows,
            Steps::Groups(groups) => groups.len() as u64,
            Steps::Clusters(members) => rows * members.len() as u64,
        }
    }

    /// Executes barrier `b` in place and returns its statement instances.
    fn step(&self, mem: &mut Memory, b: u64) -> u64 {
        let (spec, n, m) = (self.spec, self.n, self.m);
        let (lo, hi) = (self.inner.lo, self.inner.hi);
        let mut stats = ExecStats::default();
        match &self.steps {
            Steps::Rows(RowOrder::Ascending) => {
                let fi = self.outer.lo + b as i64;
                for fj in lo..=hi {
                    exec_body_at(spec, &self.body, mem, fi, fj, n, m, &mut stats);
                }
            }
            Steps::Rows(RowOrder::Descending) => {
                let fi = self.outer.lo + b as i64;
                for fj in (lo..=hi).rev() {
                    exec_body_at(spec, &self.body, mem, fi, fj, n, m, &mut stats);
                }
            }
            Steps::Groups(groups) => {
                for &(fi, fj) in &groups[b as usize] {
                    exec_body_at(spec, &self.body, mem, fi, fj, n, m, &mut stats);
                }
            }
            Steps::Clusters(members) => {
                let k = members.len() as u64;
                let fi = self.outer.lo + (b / k) as i64;
                let order = &members[(b % k) as usize];
                for fj in lo..=hi {
                    exec_body_at(spec, order, mem, fi, fj, n, m, &mut stats);
                }
            }
        }
        stats.stmt_instances
    }
}

/// Allocation under the budget and the `sim.alloc` fault site.
fn alloc_budgeted(
    spec: &FusedSpec,
    n: i64,
    m: i64,
    meter: &mut BudgetMeter,
) -> Result<Memory, MdfError> {
    meter.chaos_site("sim.alloc")?;
    Memory::for_program_budgeted(&spec.program, n, m, 0, meter)
}

/// The wavefront groups of the fused iteration space: active cells
/// bucketed by `s · (fi, fj)`, ascending — the barrier sequence of
/// hyperplane execution.
fn wavefront_buckets(spec: &FusedSpec, s: IVec2, n: i64, m: i64) -> Vec<Vec<(i64, i64)>> {
    let orange = spec.outer_range(n);
    let irange = spec.inner_range(m);
    let mut buckets: std::collections::BTreeMap<i64, Vec<(i64, i64)>> =
        std::collections::BTreeMap::new();
    for fi in orange.lo..=orange.hi {
        for fj in irange.lo..=irange.hi {
            if (0..spec.program.loops.len()).any(|l| spec.node_active(l, fi, fj, n, m)) {
                buckets
                    .entry(s.x * fi + s.y * fj)
                    .or_default()
                    .push((fi, fj));
            }
        }
    }
    buckets.into_values().collect()
}

/// [`run_traversal_supervised`] under [`RetryPolicy::once`] on an
/// unlimited meter: the whole run.
///
/// One barrier is charged per step — the synchronization saving the
/// paper reports (Section 4.2's `7n` vs `n - 2` arithmetic comes from the
/// row model plus the unfused one in [`crate::run_original`]).
pub fn run_traversal(
    spec: &FusedSpec,
    traversal: Traversal<'_>,
    n: i64,
    m: i64,
) -> (Memory, ExecStats) {
    // Executability of `spec` is a documented precondition of this API,
    // and an unlimited meter cannot trip.
    #[allow(clippy::expect_used)]
    run_traversal_supervised(
        spec,
        traversal,
        n,
        m,
        &mut Budget::unlimited().meter(),
        &RetryPolicy::once(),
        None,
    )
    .and_then(SupervisedOutcome::into_complete)
    .expect("fused spec has a (0,0)-dependence cycle: input was not executable")
}

/// [`run_traversal`] with ascending rows.
pub fn run_fused(spec: &FusedSpec, n: i64, m: i64) -> (Memory, ExecStats) {
    run_traversal(spec, Traversal::Rows(RowOrder::Ascending), n, m)
}

/// [`run_traversal`] in wavefront order.
pub fn run_wavefront(
    spec: &FusedSpec,
    wavefront: Wavefront,
    n: i64,
    m: i64,
) -> (Memory, ExecStats) {
    run_traversal(spec, Traversal::Wavefront(wavefront), n, m)
}

/// Runs `spec` over `(n, m)` in `traversal` order under a resource
/// budget, driven barrier by barrier through [`supervise_run`]: typed
/// error for non-executable specs, cells charged at allocation (never on
/// resume), the deadline re-checked and the `sim.barrier` fault site
/// consulted at every barrier top, and statement instances charged per
/// barrier. Every barrier top is a resumable checkpoint, kept as one base
/// image plus a deterministic replay of the barriers after it; a
/// recoverable failure is retried per `policy`, and once its attempts are
/// spent (at the first failure under [`RetryPolicy::once`]) the run ends
/// as a [`SupervisedOutcome::Partial`] with the completed barriers and a
/// resumable [`Checkpoint`]. Passing that image and checkpoint back as
/// `resume` continues the run (digest-verified), and a completed resume
/// is bit-identical to an uninterrupted run. Guards keep every access
/// within `max_offset` of `[0,n]x[0,m]`, so the fused run uses the same
/// allocation as the reference interpreter and the final memory images
/// are directly comparable. The interpreter is single-threaded, so the
/// degradation ladder's thread step is a no-op here (the kernel
/// exercises it for real).
pub fn run_traversal_supervised(
    spec: &FusedSpec,
    traversal: Traversal<'_>,
    n: i64,
    m: i64,
    meter: &mut BudgetMeter,
    policy: &RetryPolicy,
    resume: Option<(Memory, Checkpoint)>,
) -> Result<SupervisedOutcome<Memory>, MdfError> {
    let walk = Walk::new(spec, traversal, n, m)?;
    supervise_run(
        walk.barriers(),
        1,
        "sim.barrier",
        policy,
        meter,
        resume,
        |meter| alloc_budgeted(spec, n, m, meter),
        |mem, b, _, _| Ok(walk.step(mem, b)),
    )
}

/// [`run_traversal_supervised`] over fused rows, from fresh memory.
pub fn run_fused_supervised(
    spec: &FusedSpec,
    n: i64,
    m: i64,
    order: RowOrder,
    meter: &mut BudgetMeter,
    policy: &RetryPolicy,
) -> Result<SupervisedOutcome<Memory>, MdfError> {
    run_traversal_supervised(spec, Traversal::Rows(order), n, m, meter, policy, None)
}

/// [`run_traversal_supervised`] over wavefront groups, from fresh memory.
pub fn run_wavefront_supervised(
    spec: &FusedSpec,
    wavefront: Wavefront,
    n: i64,
    m: i64,
    meter: &mut BudgetMeter,
    policy: &RetryPolicy,
) -> Result<SupervisedOutcome<Memory>, MdfError> {
    run_traversal_supervised(
        spec,
        Traversal::Wavefront(wavefront),
        n,
        m,
        meter,
        policy,
        None,
    )
}

/// The permutation sending each graph node index to the program loop with
/// the same label. `None` when the program is not a loop-per-node
/// realization of the graph (count mismatch, unknown or duplicated label).
fn node_to_loop_map(g: &Mldg, p: &Program) -> Option<Vec<usize>> {
    if p.loops.len() != g.node_count() {
        return None;
    }
    let mut map = vec![usize::MAX; g.node_count()];
    for (li, l) in p.loops.iter().enumerate() {
        let n = g.node_by_label(&l.label)?;
        if map[n.index()] != usize::MAX {
            return None;
        }
        map[n.index()] = li;
    }
    Some(map)
}

/// Re-indexes a graph-node-indexed retiming into program-loop order.
fn align_retiming(map: &[usize], r: &Retiming) -> Option<Retiming> {
    let offs = r.offsets();
    if offs.len() != map.len() {
        return None;
    }
    let mut out = vec![IVec2::ZERO; offs.len()];
    for (ni, &li) in map.iter().enumerate() {
        out[li] = offs[ni];
    }
    Some(Retiming::from_offsets(out))
}

/// A fusion plan's retiming is indexed by MLDG node, but a program
/// realized from that graph may order its loops differently (any textual
/// order of the zero-distance subgraph is valid, and the realizer must
/// follow one). Re-index the plan by matching loop labels to node labels
/// so it can be executed against the program; `None` when the program is
/// not a loop-per-node realization of the graph.
pub fn align_plan_to_program(g: &Mldg, p: &Program, plan: &FusionPlan) -> Option<FusionPlan> {
    let map = node_to_loop_map(g, p)?;
    let retiming = align_retiming(&map, plan.retiming())?;
    Some(match plan {
        FusionPlan::FullParallel { method, .. } => FusionPlan::FullParallel {
            retiming,
            method: *method,
        },
        FusionPlan::Hyperplane { wavefront, .. } => FusionPlan::Hyperplane {
            retiming,
            wavefront: *wavefront,
        },
    })
}

/// [`align_plan_to_program`] for partial-fusion plans: permutes both the
/// retiming and every cluster's node ids into program-loop order.
pub fn align_partial_to_program(
    g: &Mldg,
    p: &Program,
    plan: &PartialFusionPlan,
) -> Option<PartialFusionPlan> {
    let map = node_to_loop_map(g, p)?;
    let retiming = align_retiming(&map, &plan.retiming)?;
    let clusters = plan
        .clusters
        .iter()
        .map(|c| c.iter().map(|n| NodeId(map[n.index()] as u32)).collect())
        .collect();
    Some(PartialFusionPlan { clusters, retiming })
}

/// Why a plan failed simulation-based checking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The fused execution's final memory differs from the original's.
    ResultMismatch {
        /// Which execution differed.
        mode: &'static str,
    },
    /// A full-parallel plan's rows are not actually independent: the
    /// descending-order run produced a different result.
    NotDoall,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::ResultMismatch { mode } => {
                write!(
                    f,
                    "{mode} execution result differs from the original program"
                )
            }
            SimError::NotDoall => write!(
                f,
                "claimed-DOALL fused loop produced different results under reversed row order"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Counters from a successful [`check_plan`] run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimReport {
    /// Barriers of the original (unfused) execution.
    pub original_barriers: u64,
    /// Barriers of the fused execution (rows or hyperplane steps).
    pub fused_barriers: u64,
    /// Statement instances (identical in both by construction).
    pub stmt_instances: u64,
}

/// End-to-end check of a fusion plan on a program:
///
/// 1. run the original program;
/// 2. run the fused program per the plan (row-major, plus descending-row
///    for full-parallel plans, plus wavefront order for hyperplane plans);
/// 3. require every final memory image to be identical.
///
/// [`check_plan_budgeted`] on an unlimited meter.
pub fn check_plan(
    program: &Program,
    plan: &FusionPlan,
    n: i64,
    m: i64,
) -> Result<SimReport, SimError> {
    // Executability of the plan's spec is a documented precondition, and
    // an unlimited meter cannot trip.
    #[allow(clippy::expect_used)]
    check_plan_budgeted(program, plan, n, m, &mut Budget::unlimited().meter())
        .expect("fused spec has a (0,0)-dependence cycle: input was not executable")
}

/// [`check_plan`] under a resource budget. The outer `Result` reports
/// abnormal termination (a budget trip); the inner one is the differential
/// verdict itself.
#[allow(clippy::type_complexity)]
pub fn check_plan_budgeted(
    program: &Program,
    plan: &FusionPlan,
    n: i64,
    m: i64,
    meter: &mut BudgetMeter,
) -> Result<Result<SimReport, SimError>, MdfError> {
    let (reference, ref_stats) = run_original_budgeted(program, n, m, meter)?;
    let spec = FusedSpec::new(program.clone(), plan.retiming().offsets().to_vec());
    // A partial run cannot support a differential verdict, so the typed
    // cause propagates as abnormal termination here (`into_complete`).
    let once = RetryPolicy::once();
    let mut run = |traversal| {
        run_traversal_supervised(&spec, traversal, n, m, meter, &once, None)?.into_complete()
    };

    let (fused_mem, fused_stats) = run(Traversal::Rows(RowOrder::Ascending))?;
    if fused_mem != reference {
        return Ok(Err(SimError::ResultMismatch { mode: "row-major" }));
    }
    // Report the barrier count of the plan's *parallel* execution: fused
    // rows for full-parallel plans, hyperplane steps for wavefront plans.
    let fused_barriers = match plan {
        FusionPlan::FullParallel { .. } => {
            let (desc_mem, _) = run(Traversal::Rows(RowOrder::Descending))?;
            if desc_mem != reference {
                return Ok(Err(SimError::NotDoall));
            }
            fused_stats.barriers
        }
        FusionPlan::Hyperplane { wavefront, .. } => {
            let (wf_mem, wf_stats) = run(Traversal::Wavefront(*wavefront))?;
            if wf_mem != reference {
                return Ok(Err(SimError::ResultMismatch { mode: "wavefront" }));
            }
            wf_stats.barriers
        }
    };
    Ok(Ok(SimReport {
        original_barriers: ref_stats.barriers,
        fused_barriers,
        stmt_instances: ref_stats.stmt_instances,
    }))
}

/// Differentially checks a partial-fusion plan under a resource budget:
/// the clustered execution must reproduce the original program's memory
/// image exactly. Same nesting convention as [`check_plan_budgeted`].
#[allow(clippy::type_complexity)]
pub fn check_partial_budgeted(
    program: &Program,
    plan: &PartialFusionPlan,
    n: i64,
    m: i64,
    meter: &mut BudgetMeter,
) -> Result<Result<SimReport, SimError>, MdfError> {
    let (reference, ref_stats) = run_original_budgeted(program, n, m, meter)?;
    let spec = FusedSpec::new(program.clone(), plan.retiming.offsets().to_vec());
    let (part_mem, part_stats) = run_traversal_supervised(
        &spec,
        Traversal::Clusters(&plan.clusters),
        n,
        m,
        meter,
        &RetryPolicy::once(),
        None,
    )?
    .into_complete()?;
    if part_mem != reference {
        return Ok(Err(SimError::ResultMismatch {
            mode: "partitioned",
        }));
    }
    Ok(Ok(SimReport {
        original_barriers: ref_stats.barriers,
        fused_barriers: part_stats.barriers,
        stmt_instances: ref_stats.stmt_instances,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::run_original;
    use mdf_core::plan_fusion;
    use mdf_graph::v2;
    use mdf_ir::extract::extract_mldg;
    use mdf_ir::samples::{figure2_program, image_pipeline_program, relaxation_program};

    fn plan_for(p: &Program) -> FusionPlan {
        let x = extract_mldg(p).unwrap();
        plan_fusion(&x.graph).unwrap()
    }

    #[test]
    fn alignment_fixes_permuted_realizations() {
        // Fuzzer-found (seed 42, case 500): a graph whose only valid
        // textual order reverses its node order. Realizing it permutes
        // the loops, so applying the graph-indexed retiming positionally
        // races; aligning by label makes the differential check pass.
        let mut g = Mldg::new();
        let n3 = g.add_node("N3");
        let n4 = g.add_node("N4");
        g.add_dep(n4, n3, (0, 2));
        let p = mdf_gen_realize(&g);
        assert_eq!(p.loops[0].label, "N4", "realizer must follow textual order");
        let plan = plan_fusion(&g).unwrap();
        let aligned = align_plan_to_program(&g, &p, &plan).unwrap();
        check_plan(&p, &aligned, 10, 10).unwrap();
        // The unaligned plan misassigns the offsets and is caught.
        assert!(check_plan(&p, &plan, 10, 10).is_err());
    }

    /// A minimal loop-per-node realization (mirrors `mdf-gen`'s, which
    /// this crate cannot depend on): each node becomes a loop, in textual
    /// order, reading each producer at the dependence offset.
    fn mdf_gen_realize(g: &Mldg) -> Program {
        use mdf_ir::ast::{ArrayRef, BinOp, Expr, Stmt};
        let order = mdf_graph::legality::textual_order(g).unwrap();
        let mut p = Program::new("realized");
        let arrays: Vec<usize> = g
            .node_ids()
            .map(|n| p.add_array(format!("a_{}", g.label(n).to_lowercase())))
            .collect();
        let input = p.add_array("input");
        for &v in &order {
            let mut expr = Expr::Ref(ArrayRef::new(input, 0, 0));
            for &e in g.in_edges(v) {
                let u = g.edge(e).src;
                for d in g.deps(e).iter() {
                    let r = Expr::Ref(ArrayRef::new(arrays[u.index()], -d.x, -d.y));
                    expr = Expr::bin(BinOp::Add, expr, r);
                }
            }
            p.add_loop(
                g.label(v).to_string(),
                vec![Stmt {
                    lhs: ArrayRef::new(arrays[v.index()], 0, 0),
                    rhs: expr,
                }],
            );
        }
        p
    }

    #[test]
    fn align_rejects_mismatched_programs() {
        let mut g = Mldg::new();
        g.add_node("A");
        g.add_node("B");
        let p = figure2_program(); // four loops, different labels
        let plan = FusionPlan::FullParallel {
            retiming: mdf_retime::Retiming::identity(2),
            method: mdf_core::FullParallelMethod::Cyclic,
        };
        assert!(align_plan_to_program(&g, &p, &plan).is_none());
    }

    #[test]
    fn figure2_plan_passes_end_to_end() {
        let p = figure2_program();
        let plan = plan_for(&p);
        assert!(plan.is_full_parallel());
        let report = check_plan(&p, &plan, 12, 9).unwrap();
        // Original: 4 barriers per outer iteration, 13 iterations = 52.
        assert_eq!(report.original_barriers, 52);
        // Fused: one barrier per fused row; r.x in {-1,0} so rows = n+2 = 14.
        assert_eq!(report.fused_barriers, 14);
    }

    #[test]
    fn image_pipeline_plan_passes_end_to_end() {
        let p = image_pipeline_program();
        let plan = plan_for(&p);
        assert!(plan.is_full_parallel());
        check_plan(&p, &plan, 10, 10).unwrap();
    }

    #[test]
    fn relaxation_needs_hyperplane_and_passes() {
        let p = relaxation_program();
        let plan = plan_for(&p);
        assert!(!plan.is_full_parallel(), "both edges are hard");
        check_plan(&p, &plan, 10, 10).unwrap();
    }

    #[test]
    fn unretimed_fusion_of_figure2_changes_results() {
        // Figure 4: fusing without retiming is illegal; the simulator must
        // catch the wrong values (c[i][j] reads b[i][j+2] before it is
        // computed).
        let p = figure2_program();
        let (reference, _) = run_original(&p, 8, 8);
        let spec = FusedSpec::unretimed(p);
        let (fused, _) = run_fused(&spec, 8, 8);
        assert_ne!(fused, reference);
    }

    #[test]
    fn llofra_only_retiming_is_legal_but_serial() {
        // Figure 6's retiming fuses legally (row-major matches the
        // original) but the inner loop is serial: descending order differs.
        let p = figure2_program();
        let spec = FusedSpec::new(p.clone(), vec![v2(0, 0), v2(0, 0), v2(0, -2), v2(0, -3)]);
        let (reference, _) = run_original(&p, 8, 8);
        let (asc, _) = run_fused(&spec, 8, 8);
        assert_eq!(asc, reference);
        let (desc, _) = run_traversal(&spec, Traversal::Rows(RowOrder::Descending), 8, 8);
        assert_ne!(desc, reference, "Figure 7 shows intra-row dependences");
    }

    #[test]
    fn small_bounds_edge_cases() {
        // n = 0 or m = 0: prologue/epilogue regions dominate; the guarded
        // execution must still be exact.
        let p = figure2_program();
        let plan = plan_for(&p);
        for (n, m) in [(0, 0), (0, 5), (5, 0), (1, 1), (2, 3)] {
            check_plan(&p, &plan, n, m).unwrap_or_else(|e| panic!("bounds ({n},{m}): {e}"));
        }
    }

    #[test]
    fn wavefront_respects_schedule_grouping() {
        let p = relaxation_program();
        let plan = plan_for(&p);
        let spec = FusedSpec::new(p.clone(), plan.retiming().offsets().to_vec());
        let w = plan.wavefront().unwrap();
        let (mem, stats) = run_wavefront(&spec, w, 6, 6);
        let (reference, _) = run_original(&p, 6, 6);
        assert_eq!(mem, reference);
        assert!(stats.barriers > 0);
    }
}

#[cfg(test)]
mod budgeted_tests {
    use super::*;
    use crate::interp::run_original;
    use mdf_core::{fuse_partial, plan_fusion};
    use mdf_graph::{Budget, BudgetResource};
    use mdf_ir::extract::extract_mldg;
    use mdf_ir::samples::{figure2_program, relaxation_program};

    #[test]
    fn budgeted_check_matches_plain_when_unlimited() {
        let p = figure2_program();
        let plan = plan_fusion(&extract_mldg(&p).unwrap().graph).unwrap();
        let plain = check_plan(&p, &plan, 10, 8).unwrap();
        let mut meter = Budget::unlimited().meter();
        let budgeted = check_plan_budgeted(&p, &plan, 10, 8, &mut meter)
            .unwrap()
            .unwrap();
        assert_eq!(plain, budgeted);
    }

    #[test]
    fn budgeted_wavefront_check_matches_plain() {
        let p = relaxation_program();
        let plan = plan_fusion(&extract_mldg(&p).unwrap().graph).unwrap();
        let plain = check_plan(&p, &plan, 8, 8).unwrap();
        let mut meter = Budget::unlimited().meter();
        let budgeted = check_plan_budgeted(&p, &plan, 8, 8, &mut meter)
            .unwrap()
            .unwrap();
        assert_eq!(plain, budgeted);
    }

    #[test]
    fn iteration_budget_trips_the_differential_check() {
        let p = figure2_program();
        let plan = plan_fusion(&extract_mldg(&p).unwrap().graph).unwrap();
        let mut meter = Budget::unlimited().with_max_iterations(20).meter();
        match check_plan_budgeted(&p, &plan, 10, 8, &mut meter) {
            Err(MdfError::BudgetExceeded {
                resource: BudgetResource::Iterations,
                ..
            }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn budgeted_partial_check_passes_on_relaxation() {
        let p = relaxation_program();
        let g = extract_mldg(&p).unwrap().graph;
        let plan = fuse_partial(&g).unwrap();
        let mut meter = Budget::unlimited().meter();
        let report = check_partial_budgeted(&p, &plan, 10, 10, &mut meter)
            .unwrap()
            .unwrap();
        assert!(report.original_barriers > 0);
    }

    #[test]
    fn unretimed_fusion_reported_as_mismatch_not_panic() {
        // Figure 4's illegal fusion must surface as a structured verdict.
        let p = figure2_program();
        let spec = FusedSpec::unretimed(p.clone());
        let mut meter = Budget::unlimited().meter();
        let (reference, _) = run_original(&p, 8, 8);
        let ascending = Traversal::Rows(RowOrder::Ascending);
        let once = RetryPolicy::once();
        let (fused, _) = run_traversal_supervised(&spec, ascending, 8, 8, &mut meter, &once, None)
            .unwrap()
            .into_complete()
            .unwrap();
        assert_ne!(fused, reference);
    }
}

#[cfg(test)]
mod partial_tests {
    use super::*;
    use crate::interp::run_original;
    use mdf_core::partial::{fuse_partial, verify_partial};
    use mdf_ir::extract::extract_mldg;
    use mdf_ir::samples::{figure2_program, relaxation_program};

    #[test]
    fn relaxation_partial_plan_executes_correctly() {
        // E5: Algorithm 4 fails; partial fusion finds 2 row-DOALL clusters.
        let p = relaxation_program();
        let g = extract_mldg(&p).unwrap().graph;
        let plan = fuse_partial(&g).expect("2-cluster solution exists");
        assert_eq!(plan.clusters.len(), 2);
        assert!(verify_partial(&g, &plan));
        let spec = FusedSpec::new(p.clone(), plan.retiming.offsets().to_vec());
        let (reference, orig_stats) = run_original(&p, 14, 14);
        let (part_mem, part_stats) =
            run_traversal(&spec, Traversal::Clusters(&plan.clusters), 14, 14);
        assert_eq!(part_mem, reference);
        // 2 barriers per row here equals the unfused count (2 loops) — the
        // value shows on graphs where clusters merge more than one loop.
        assert_eq!(part_stats.barriers, orig_stats.barriers);
    }

    #[test]
    fn figure2_partial_plan_is_single_cluster_and_matches_fused() {
        let p = figure2_program();
        let g = extract_mldg(&p).unwrap().graph;
        let plan = fuse_partial(&g).unwrap();
        assert_eq!(plan.clusters.len(), 1);
        let spec = FusedSpec::new(p.clone(), plan.retiming.offsets().to_vec());
        let (reference, _) = run_original(&p, 10, 10);
        let (mem, stats) = run_traversal(&spec, Traversal::Clusters(&plan.clusters), 10, 10);
        assert_eq!(mem, reference);
        // One cluster: one barrier per fused row.
        assert_eq!(stats.barriers, spec.outer_range(10).len() as u64);
    }

    #[test]
    fn partial_clusters_are_row_doall_individually() {
        // Adversarial check: reversing J within each cluster's sweep must
        // not change results (each cluster is row-DOALL by construction).
        let p = relaxation_program();
        let g = extract_mldg(&p).unwrap().graph;
        let plan = fuse_partial(&g).unwrap();
        let spec = FusedSpec::new(p.clone(), plan.retiming.offsets().to_vec());
        let (reference, _) = run_original(&p, 12, 12);
        // Hand-rolled reversed-J partitioned execution.
        let body = spec.body_order().unwrap();
        let mut mem = Memory::for_program(&spec.program, 12, 12, 0);
        let orange = spec.outer_range(12);
        let irange = spec.inner_range(12);
        for fi in orange.lo..=orange.hi {
            for cluster in &plan.clusters {
                let members: Vec<usize> = body
                    .iter()
                    .copied()
                    .filter(|li| cluster.iter().any(|n| n.index() == *li))
                    .collect();
                for fj in (irange.lo..=irange.hi).rev() {
                    for &li in &members {
                        if !spec.node_active(li, fi, fj, 12, 12) {
                            continue;
                        }
                        let r = spec.offsets[li];
                        let (i, j) = (fi + r.x, fj + r.y);
                        for s in &spec.program.loops[li].stmts {
                            let v = eval_expr(&mem, &s.rhs, i, j);
                            mem.write(&s.lhs, i, j, v);
                        }
                    }
                }
            }
        }
        assert_eq!(mem, reference);
    }
}

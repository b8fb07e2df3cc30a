//! The reference interpreter: executes a [`Program`] with the original
//! semantics — outer loop sequential, each innermost DOALL loop running to
//! completion (one barrier) before the next loop starts.

use mdf_graph::{Budget, BudgetMeter, MdfError};
use mdf_ir::ast::{ArrayRef, Expr, Program};

use crate::array2::Array2;

/// The memory state of one execution: one halo-extended array per declared
/// array.
#[derive(Debug, PartialEq, Eq)]
pub struct Memory {
    arrays: Vec<Array2>,
}

impl Clone for Memory {
    fn clone(&self) -> Self {
        Memory {
            arrays: self.arrays.clone(),
        }
    }

    /// Copies `source` array by array, reusing every buffer.
    fn clone_from(&mut self, source: &Self) {
        self.arrays.clone_from(&source.arrays);
    }
}

impl Memory {
    /// Allocates memory for running `p` with bounds `0..=n` x `0..=m`,
    /// with a halo wide enough for every subscript offset in the program
    /// plus `extra_halo` (use the retiming magnitude for fused runs; the
    /// guards keep accesses inside `max_offset`, so 0 is always enough, but
    /// a belt-and-braces margin is cheap).
    pub fn for_program(p: &Program, n: i64, m: i64, extra_halo: i64) -> Memory {
        let halo = p.max_offset() + extra_halo;
        let arrays = (0..p.arrays.len())
            .map(|k| Array2::new(k, -halo, n + halo, -halo, m + halo))
            .collect();
        Memory { arrays }
    }

    /// Like [`Memory::for_program`], but charges the allocation against
    /// `meter` *before* reserving anything, so an oversized simulation
    /// request fails with [`MdfError::BudgetExceeded`] instead of
    /// exhausting host memory.
    pub fn for_program_budgeted(
        p: &Program,
        n: i64,
        m: i64,
        extra_halo: i64,
        meter: &mut BudgetMeter,
    ) -> Result<Memory, MdfError> {
        meter.charge_cells(Memory::cells_for_program(p, n, m, extra_halo))?;
        Ok(Memory::for_program(p, n, m, extra_halo))
    }

    /// The cells [`Memory::for_program`] allocates for `p` at these
    /// bounds, saturating at `u64::MAX` instead of overflowing, so a
    /// caller can refuse an oversized image before reserving anything.
    pub fn cells_for_program(p: &Program, n: i64, m: i64, extra_halo: i64) -> u64 {
        let halo = p.max_offset() + extra_halo;
        let side = |bound: i64| bound.saturating_add(2 * halo + 1).max(1) as u64;
        (p.arrays.len() as u64).saturating_mul(side(n).saturating_mul(side(m)))
    }

    /// Reads `r` at iteration `(i, j)`.
    #[inline]
    pub fn read(&self, r: &ArrayRef, i: i64, j: i64) -> i64 {
        self.arrays[r.array].get(i + r.di, j + r.dj)
    }

    /// Writes `r` at iteration `(i, j)`.
    #[inline]
    pub fn write(&mut self, r: &ArrayRef, i: i64, j: i64, v: i64) {
        self.arrays[r.array].set(i + r.di, j + r.dj, v);
    }

    /// Borrow an array by id.
    pub fn array(&self, k: usize) -> &Array2 {
        &self.arrays[k]
    }

    /// Number of arrays.
    pub fn array_count(&self) -> usize {
        self.arrays.len()
    }

    /// Fingerprint of the whole memory image.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 14695981039346656037;
        for a in &self.arrays {
            h ^= a.fingerprint();
            h = h.wrapping_mul(1099511628211);
        }
        h
    }
}

/// Evaluates an expression at iteration `(i, j)`.
pub fn eval_expr(mem: &Memory, e: &Expr, i: i64, j: i64) -> i64 {
    match e {
        Expr::Const(v) => *v,
        Expr::Ref(r) => mem.read(r, i, j),
        Expr::Neg(inner) => eval_expr(mem, inner, i, j).wrapping_neg(),
        Expr::Bin(op, a, b) => op.apply(eval_expr(mem, a, i, j), eval_expr(mem, b, i, j)),
    }
}

/// Execution counters for the cost comparisons of Section 5.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Barriers executed (one per completed DOALL loop instance).
    pub barriers: u64,
    /// Statement instances executed.
    pub stmt_instances: u64,
}

/// Runs the program with the original (unfused) semantics over
/// `i in 0..=n`, `j in 0..=m`. Returns final memory and counters:
/// [`run_original_budgeted`] on an unlimited meter.
///
/// Per the program model the innermost loops are DOALL, so executing `j`
/// ascending is a valid serialization; dependence analysis rejects
/// programs for which it would not be.
pub fn run_original(p: &Program, n: i64, m: i64) -> (Memory, ExecStats) {
    // An unlimited meter cannot trip.
    #[allow(clippy::expect_used)]
    run_original_budgeted(p, n, m, &mut Budget::unlimited().meter())
        .expect("an unlimited meter cannot trip")
}

/// [`run_original`] under a resource budget: memory cells are charged at
/// allocation, statement instances per DOALL sweep, and the deadline is
/// re-checked every outer iteration.
pub fn run_original_budgeted(
    p: &Program,
    n: i64,
    m: i64,
    meter: &mut BudgetMeter,
) -> Result<(Memory, ExecStats), MdfError> {
    let mut mem = Memory::for_program_budgeted(p, n, m, 0, meter)?;
    let mut stats = ExecStats::default();
    for i in 0..=n {
        meter.check_deadline()?;
        for l in &p.loops {
            meter.charge_iterations(l.stmts.len() as u64 * (m + 1).max(0) as u64)?;
            for j in 0..=m {
                for s in &l.stmts {
                    let v = eval_expr(&mem, &s.rhs, i, j);
                    mem.write(&s.lhs, i, j, v);
                    stats.stmt_instances += 1;
                }
            }
            stats.barriers += 1;
        }
    }
    Ok((mem, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdf_ir::samples::{figure2_program, image_pipeline_program};

    #[test]
    fn deterministic_execution() {
        let p = figure2_program();
        let (m1, s1) = run_original(&p, 8, 6);
        let (m2, s2) = run_original(&p, 8, 6);
        assert_eq!(m1, m2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn stats_match_the_paper_arithmetic() {
        // 4 loops => 4 barriers per outer iteration; (n+1) outer iterations.
        let p = figure2_program();
        let (n, m) = (9i64, 5i64);
        let (_, stats) = run_original(&p, n, m);
        assert_eq!(stats.barriers as i64, 4 * (n + 1));
        // 5 statements per (i, j).
        assert_eq!(stats.stmt_instances as i64, 5 * (n + 1) * (m + 1));
    }

    #[test]
    fn boundary_reads_hit_initial_pattern() {
        // a[0][0] = e[-2][-1]: must equal e's initial value at (-2,-1).
        let p = figure2_program();
        let (mem, _) = run_original(&p, 3, 3);
        let e_id = p.array_by_name("e").unwrap();
        let a_id = p.array_by_name("a").unwrap();
        assert_eq!(
            mem.array(a_id).get(0, 0),
            crate::array2::init_value(e_id, -2, -1)
        );
    }

    #[test]
    fn computation_is_actually_chained() {
        // out[i][j] accumulates over i in the image pipeline; changing n
        // changes the final row.
        let p = image_pipeline_program();
        let (mem_a, _) = run_original(&p, 6, 4);
        let (mem_b, _) = run_original(&p, 6, 4);
        assert_eq!(mem_a.fingerprint(), mem_b.fingerprint());
        let out = p.array_by_name("out").unwrap();
        // The accumulator must differ across rows (it sums sharp values).
        assert_ne!(mem_a.array(out).get(5, 2), mem_a.array(out).get(1, 2));
    }

    #[test]
    fn budgeted_run_matches_plain_when_unlimited() {
        use mdf_graph::Budget;
        let p = figure2_program();
        let (plain_mem, plain_stats) = run_original(&p, 7, 5);
        let mut meter = Budget::unlimited().meter();
        let (mem, stats) = run_original_budgeted(&p, 7, 5, &mut meter).unwrap();
        assert_eq!(mem, plain_mem);
        assert_eq!(stats, plain_stats);
    }

    #[test]
    fn iteration_budget_trips_mid_run() {
        use mdf_graph::{Budget, BudgetResource, MdfError};
        let p = figure2_program();
        // Figure 2 executes 5 statements per (i, j); cap far below that.
        let mut meter = Budget::unlimited().with_max_iterations(10).meter();
        match run_original_budgeted(&p, 7, 5, &mut meter) {
            Err(MdfError::BudgetExceeded {
                resource: BudgetResource::Iterations,
                limit: 10,
                ..
            }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn memory_budget_trips_before_allocating() {
        use mdf_graph::{Budget, BudgetResource, MdfError};
        let p = figure2_program();
        let mut meter = Budget::unlimited().with_max_memory_cells(4).meter();
        match run_original_budgeted(&p, 100, 100, &mut meter) {
            Err(MdfError::BudgetExceeded {
                resource: BudgetResource::MemoryCells,
                limit: 4,
                ..
            }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn eval_expr_operators() {
        let p = figure2_program();
        let mem = Memory::for_program(&p, 2, 2, 0);
        use mdf_ir::ast::{BinOp, Expr};
        let e = Expr::bin(
            BinOp::Mul,
            Expr::bin(BinOp::Sub, Expr::Const(10), Expr::Const(4)),
            Expr::Neg(Box::new(Expr::Const(3))),
        );
        assert_eq!(eval_expr(&mem, &e, 0, 0), -18);
    }
}

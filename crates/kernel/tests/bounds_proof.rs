//! The bounds proof every drive runs before it allocates: a lowered loop
//! that would reach past either end of the image is refused with a typed
//! error in every step kind, a loop widened past the swept space runs
//! only the box the proof covers, a resume image laid out for another
//! kernel is refused by the drive under a one-attempt and a retrying
//! policy alike, and every honest drive
//! executes exactly the statement instances of that box.
//!
//! `scripts/check.sh` runs these tests in release too, where the kernel's
//! per-access checks compile out and the proof is all that keeps a
//! mutated loop inside the image.

use std::sync::Arc;

use mdf_analyze::bytecode::VmRange;
use mdf_analyze::{certify_doall, certify_elision, ParallelMode};
use mdf_chaos::{FaultKind, FaultPlan};
use mdf_core::plan_fusion;
use mdf_gen::executable_suite;
use mdf_graph::{v2, Budget, BudgetResource, MdfError};
use mdf_ir::ast::Program;
use mdf_ir::extract::extract_mldg;
use mdf_ir::retgen::FusedSpec;
use mdf_ir::samples::figure2_program;
use mdf_kernel::{plan_mode, CompiledKernel, ExecMode, Instr, KernelMemory};
use mdf_sim::{align_plan_to_program, run_original, Checkpoint, RetryPolicy, SupervisedOutcome};

/// Width of the kernel's column tiles: a certified row at least twice
/// this wide splits across the workers.
const TILE_COLS: i64 = 256;

/// Plans `p`: its fused spec and the mode `plan_mode` picks for it.
fn planned(p: &Program) -> (FusedSpec, ExecMode) {
    let graph = extract_mldg(p).expect("program extracts").graph;
    let plan = plan_fusion(&graph).expect("program plans");
    let plan = align_plan_to_program(&graph, p, &plan).expect("plan aligns");
    let spec = FusedSpec::new(p.clone(), plan.retiming().offsets().to_vec());
    let mode = plan_mode(&spec, &plan);
    (spec, mode)
}

/// One drive: a step kind, and the worker count and shape that select it.
struct Drive {
    name: &'static str,
    mode: ExecMode,
    threads: usize,
    n: i64,
    m: i64,
}

/// Figure 2 driven through every step kind: its planned certified rows,
/// serially and split into column tiles on 4 workers; the cell-major
/// fallback; and tile waves, serial and threaded, under `s = (3, 1)`,
/// whose race and elision certificates hold for Figure 2's retiming.
/// Figure 2's loops have unequal retiming offsets, so some loop's rows
/// stop short of the swept space's last row, and some loop's columns
/// start past its first column.
fn figure2_drives() -> (FusedSpec, Vec<Drive>) {
    let (spec, rows) = planned(&figure2_program());
    assert_eq!(rows, ExecMode::RowsCertified);
    let s = v2(3, 1);
    assert!(certify_doall(&spec, ParallelMode::Hyperplanes(s)).is_certified());
    assert!(certify_elision(&spec, s).is_certified());
    let waves = ExecMode::Wavefront { schedule: s };
    let drive = |name, mode, threads, n, m| Drive {
        name,
        mode,
        threads,
        n,
        m,
    };
    let drives = vec![
        drive("serial rows", rows, 1, 8, 8),
        drive("column tiles", rows, 4, 4, 2 * TILE_COLS + 8),
        drive("cell-major rows", ExecMode::RowsSerial, 1, 8, 8),
        drive("serial tile waves", waves, 1, 8, 8),
        drive("threaded tile waves", waves, 4, 160, 160),
    ];
    (spec, drives)
}

/// Asserts that `drive` really takes its step kind on `k`, and that the
/// honest kernel runs there bit-identically to the original program.
fn assert_takes_its_step_kind(p: &Program, k: &CompiledKernel, drive: &Drive) {
    let sink = Arc::new(mdf_trace::MemorySink::new());
    let span = mdf_trace::Tracer::new(sink.clone()).span("execute");
    let (mem, _) = k.run_with_threads_traced(drive.mode, drive.threads, &span);
    span.finish();
    let profile = sink.profile().expect("a finished span profiles");
    let (want, _) = run_original(p, drive.n, drive.m);
    assert_eq!(mem.fingerprint(), want.fingerprint(), "{}", drive.name);
    let threaded = drive.threads > 1;
    match drive.mode {
        ExecMode::RowsCertified => assert_eq!(
            profile.counter_total("kernel.tiles") > 0,
            threaded,
            "{}",
            drive.name
        ),
        ExecMode::RowsSerial => {}
        ExecMode::Wavefront { .. } => {
            let tp = k.tile_plan(drive.mode).expect("the wavefront tiles");
            let serial = tp.serial_waves(drive.threads);
            assert_eq!(serial < tp.waves(), threaded, "{}", drive.name);
        }
    }
}

/// What `drive` says of `k` before it allocates: `Ok(())` when the
/// bounds proof passes (an image of zero cells then trips the budget, so
/// nothing runs), or the proof's refusal. Both the budgeted and the
/// supervised entry point must say the same.
fn proof(k: &CompiledKernel, drive: &Drive) -> Result<(), MdfError> {
    let no_cells = || Budget::unlimited().with_max_memory_cells(0).meter();
    let budgeted = rayon::with_workers(drive.threads, || {
        verdict(drive, k.run_budgeted(drive.mode, &mut no_cells()))
    });
    let policy = RetryPolicy::deterministic();
    let supervised = verdict(
        drive,
        k.run_supervised(drive.mode, drive.threads, &policy, &mut no_cells()),
    );
    assert_eq!(budgeted, supervised, "{}", drive.name);
    budgeted
}

/// [`proof`]'s reading of one entry point's outcome.
fn verdict<T>(drive: &Drive, out: Result<T, MdfError>) -> Result<(), MdfError> {
    match out {
        Ok(_) => panic!("{}: a zero-cell budget cannot allocate", drive.name),
        Err(MdfError::BudgetExceeded {
            resource: BudgetResource::MemoryCells,
            ..
        }) => Ok(()),
        Err(refusal) => Err(refusal),
    }
}

/// Asserts the proof's typed refusal of a loop that leaves the image.
fn assert_refused(k: &CompiledKernel, drive: &Drive, what: &str) {
    match proof(k, drive) {
        Err(MdfError::Invalid { message }) if message.contains("outside the image") => {}
        other => panic!("{}: {what} must be refused, got {other:?}", drive.name),
    }
}

/// The cursor of fused cell `(fi, fj)` of loop `li`, as the drives compute
/// it.
fn cursor(k: &CompiledKernel, li: usize, fi: i64, fj: i64) -> i64 {
    let (x, y) = k.vm_image(ExecMode::RowsSerial).loops[li].offset;
    k.layout().cursor(fi + x, fj + y) as i64
}

/// `(rows ∩ outer, cols ∩ inner)` of every lowered loop: the boxes the
/// proof covers.
fn boxes(k: &CompiledKernel) -> Vec<(VmRange, VmRange)> {
    let img = k.vm_image(ExecMode::RowsSerial);
    img.loops
        .iter()
        .map(|l| (l.rows.intersect(&img.outer), l.cols.intersect(&img.inner)))
        .collect()
}

/// Statement instances of the boxes: every loop's statements at every
/// cell of its box.
fn box_instances(k: &CompiledKernel) -> u64 {
    let len = |r: VmRange| (r.hi - r.lo + 1).max(0) as u64;
    let img = k.vm_image(ExecMode::RowsSerial);
    boxes(k)
        .into_iter()
        .zip(&img.loops)
        .map(|((rows, cols), l)| l.stmts.len() as u64 * len(rows) * len(cols))
        .sum()
}

#[test]
fn loops_past_either_end_of_the_image_are_refused_in_every_step_kind() {
    let p = figure2_program();
    let (spec, drives) = figure2_drives();
    for drive in &drives {
        let honest = CompiledKernel::compile(&spec, drive.n, drive.m).expect("figure2 compiles");
        assert_takes_its_step_kind(&p, &honest, drive);
        assert_eq!(proof(&honest, drive), Ok(()), "{}", drive.name);
        let cells = honest.layout().cells() as isize;
        let img = honest.vm_image(drive.mode);
        let (outer, inner) = (img.outer, img.inner);

        // A store or load delta one image away from the honest one.
        for shift in [cells, -cells] {
            let mut k = honest.clone();
            k.loops_mut()[0].stmts[0].store_delta += shift;
            assert_refused(&k, drive, &format!("store delta {shift:+}"));

            let mut k = honest.clone();
            let load = k.loops_mut()[0].stmts[0]
                .instrs
                .iter_mut()
                .find_map(|ins| match ins {
                    Instr::Load { delta, .. } => Some(delta),
                    _ => None,
                })
                .expect("figure2's first statement loads");
            *load += shift;
            assert_refused(&k, drive, &format!("load delta {shift:+}"));
        }

        // Rows: pin a store to the image's last cell at the loop's highest
        // corner, which the proof accepts, then run the loop one row past
        // it, still inside the swept rows.
        let boxes = boxes(&honest);
        let li = (0..boxes.len())
            .find(|&li| boxes[li].0.hi < outer.hi)
            .expect("a loop stops short of the last swept row");
        let (rows, cols) = boxes[li];
        let mut k = honest.clone();
        let top = cursor(&k, li, rows.hi, cols.hi);
        k.loops_mut()[li].stmts[0].store_delta = (cells as i64 - 1 - top) as isize;
        assert_eq!(proof(&k, drive), Ok(()), "{}: the last cell", drive.name);
        k.loops_mut()[li].rows.hi += 1;
        assert_refused(&k, drive, "rows.hi + 1 past the last cell");

        // Columns: pin a store to the image's first cell at the loop's
        // lowest corner, then start the loop one column earlier, still
        // inside the swept columns.
        let li = (0..boxes.len())
            .find(|&li| boxes[li].1.lo > inner.lo)
            .expect("a loop starts past the first swept column");
        let (rows, cols) = boxes[li];
        let mut k = honest.clone();
        let bottom = cursor(&k, li, rows.lo, cols.lo);
        k.loops_mut()[li].stmts[0].store_delta = -(bottom as isize);
        assert_eq!(proof(&k, drive), Ok(()), "{}: the first cell", drive.name);
        k.loops_mut()[li].cols.lo -= 1;
        assert_refused(&k, drive, "cols.lo - 1 before the first cell");
    }
}

#[test]
fn loops_widened_past_the_swept_space_run_only_their_box() {
    let p = figure2_program();
    let (spec, drives) = figure2_drives();
    for drive in &drives {
        let honest = CompiledKernel::compile(&spec, drive.n, drive.m).expect("figure2 compiles");
        let img = honest.vm_image(drive.mode);
        let (outer, inner) = (img.outer, img.inner);
        let mut wide = honest.clone();
        let mut widened = 0;
        for cl in wide.loops_mut() {
            for (lo, hi, swept) in [
                (&mut cl.rows.lo, &mut cl.rows.hi, outer),
                (&mut cl.cols.lo, &mut cl.cols.hi, inner),
            ] {
                if *lo == swept.lo {
                    *lo -= 5;
                    widened += 1;
                }
                if *hi == swept.hi {
                    *hi += 5;
                    widened += 1;
                }
            }
        }
        assert!(widened > 0, "{}", drive.name);
        assert_eq!(proof(&wide, drive), Ok(()), "{}", drive.name);
        let (want, want_stats) = honest.run_with_threads(drive.mode, drive.threads);
        let (got, stats) = wide.run_with_threads(drive.mode, drive.threads);
        assert_eq!(got.fingerprint(), want.fingerprint(), "{}", drive.name);
        assert_eq!(stats, want_stats, "{}", drive.name);
        let (orig, _) = run_original(&p, drive.n, drive.m);
        assert_eq!(got.fingerprint(), orig.fingerprint(), "{}", drive.name);
    }
}

#[test]
fn honest_drives_execute_exactly_the_box_the_proof_covers() {
    let mut drives = 0;
    for entry in executable_suite() {
        let p = entry.program.expect("executable suite has programs");
        let (spec, planned) = planned(&p);
        for (n, m) in [(9, 8), (4, 2 * TILE_COLS + 3), (130, 130)] {
            let k = CompiledKernel::compile(&spec, n, m).expect("suite specs compile");
            let want = box_instances(&k);
            for mode in [planned, ExecMode::RowsSerial] {
                for threads in [1, 4] {
                    let (_, stats) = k.run_with_threads(mode, threads);
                    assert_eq!(
                        stats.stmt_instances, want,
                        "{} {n}x{m} {mode:?} {threads} worker(s)",
                        entry.id
                    );
                    drives += 1;
                }
            }
        }
    }
    assert_eq!(
        drives,
        4 * 3 * 2 * 2,
        "E1, E2, E4 and E5 each drive 12 ways"
    );
}

/// A budgeted run of `k` stopped by a deadline at barrier 2: its image
/// and checkpoint.
fn partial(k: &CompiledKernel, mode: ExecMode) -> (KernelMemory, Checkpoint) {
    let guard = FaultPlan::single("kernel.barrier", FaultKind::DeadlineExpiry, 2).arm();
    let mut meter = Budget::unlimited().with_chaos().meter();
    let out = k
        .run_budgeted(mode, &mut meter)
        .expect("a deadline is partial");
    drop(guard);
    let SupervisedOutcome::Partial {
        mem, checkpoint, ..
    } = out
    else {
        panic!("a deadline at barrier 2 stops the run");
    };
    (mem, checkpoint)
}

#[test]
fn resuming_from_an_image_of_other_bounds_is_refused() {
    let (spec, mode) = planned(&figure2_program());
    let small = CompiledKernel::compile(&spec, 4, 4).expect("figure2 compiles");
    let large = CompiledKernel::compile(&spec, 512, 512).expect("figure2 compiles");
    for (k, foreign) in [(&large, &small), (&small, &large)] {
        let refused = |out: Result<(), MdfError>| match out {
            Err(MdfError::Invalid { message }) => {
                assert!(message.contains("laid out"), "{message}")
            }
            other => panic!("a foreign image must be refused, got {other:?}"),
        };
        for policy in [RetryPolicy::once(), RetryPolicy::deterministic()] {
            let resume = Some(partial(foreign, mode));
            let mut meter = Budget::unlimited().meter();
            refused(k.drive(mode, 1, &policy, &mut meter, resume).map(|_| ()));
        }
    }
}

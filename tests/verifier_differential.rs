//! The static bytecode verifier against the kernel it certifies.
//!
//! Every drive proves its own accesses in bounds before it runs, so the
//! verifier is a static proof (`mdfuse verify`, `analyze --json`, and
//! `mdfuse bench`'s check of planner output) and a fuzz oracle, not a
//! gate on execution. Four checks hold it to that role, over the
//! executable `mdf-gen` suites, every DSL example under `examples/dsl/`,
//! and a proptest sweep of random programs:
//!
//! * the planner's bytecode verifies in every mode a drive can take (the
//!   planned one and the serial fallback), wide tiled rows included;
//! * every drive the verifier certifies runs unchecked — its one kernel
//!   body has no per-access bounds check outside debug builds — and ends
//!   identically to `run_original`, whose every access is checked: serially,
//!   under a forced multi-worker policy, and across the tiled wide-row
//!   path;
//! * a certificate revalidates only in its own machine mode and at its
//!   own bounds;
//! * a mutated lowering is rejected with a typed `MDF2xx` diagnostic, or
//!   it passes the drive's bounds proof and runs to completion.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mdfusion::analysis::bytecode::{revalidate, verify};
use mdfusion::core::plan_fusion;
use mdfusion::gen::{executable_suite, random_program, ProgramGenConfig};
use mdfusion::ir::extract::extract_mldg;
use mdfusion::ir::{FusedSpec, Program};
use mdfusion::kernel::{plan_mode, CompiledKernel, CompiledLoop, ExecMode, Instr};
use mdfusion::sim::{align_plan_to_program, run_original};
use proptest::prelude::*;

/// The kernel's internal tile width (`exec::TILE_COLS`); rows at least
/// twice this wide take the chunked parallel path.
const TILE_COLS: i64 = 256;

/// Plans `p`: its fused spec and planned mode, or `None` when the planner
/// degrades (nothing to verify).
fn planned(p: &Program) -> Option<(FusedSpec, ExecMode)> {
    let graph = extract_mldg(p).expect("corpus programs extract").graph;
    let plan = plan_fusion(&graph).ok()?;
    let plan = align_plan_to_program(&graph, p, &plan).expect("corpus programs align");
    let spec = FusedSpec::new(p.clone(), plan.retiming().offsets().to_vec());
    let mode = plan_mode(&spec, &plan);
    Some((spec, mode))
}

/// Compiles `p` at `(n, m)` and asserts the first two checks: the
/// planner's bytecode verifies in the planned mode and the serial
/// fallback, and each certificate revalidates exactly on images of its
/// own machine mode at its own bounds. Returns `false` when the planner
/// degrades.
fn assert_verifies_in_every_drive_mode(p: &Program, n: i64, m: i64) -> bool {
    let Some((spec, mode)) = planned(p) else {
        return false;
    };
    let k = CompiledKernel::compile(&spec, n, m).expect("planned specs compile");
    let other = CompiledKernel::compile(&spec, n + 1, m).expect("planned specs compile");
    for drive in [mode, ExecMode::RowsSerial] {
        let cert = verify(&k.vm_image(drive)).unwrap_or_else(|diags| {
            let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
            panic!(
                "{}: verifier rejected planner bytecode at ({n},{m}) in mode {drive:?}: {codes:?}",
                p.name
            )
        });
        for at in [mode, ExecMode::RowsSerial] {
            let img = k.vm_image(at);
            assert_eq!(
                revalidate(&cert, &img),
                img.mode == cert.mode,
                "{}: a {:?} cert on a {:?} image at ({n},{m})",
                p.name,
                cert.mode,
                img.mode
            );
        }
        assert!(
            !revalidate(&cert, &other.vm_image(drive)),
            "{}: a cert for ({n},{m}) must not revalidate at ({},{m})",
            p.name,
            n + 1
        );
    }
    true
}

/// Compiles `p` at `(n, m)` and asserts that each drive the verifier
/// certifies (the planned mode and the serial fallback, at 1 and 4
/// workers) ends as `run_original` does: the same memory fingerprint and
/// statement instances, the drive's own barrier count, and the same
/// `ExecStats` at either worker count. The kernel's accesses are licensed
/// by the drive's bounds proof alone; the reference interpreter checks
/// each of its own. Returns `false` when the planner degrades.
fn assert_unchecked_matches_checked(p: &Program, n: i64, m: i64) -> bool {
    let Some((spec, mode)) = planned(p) else {
        return false;
    };
    let k = CompiledKernel::compile(&spec, n, m).expect("planned specs compile");
    let (omem, ostats) = run_original(p, n, m);
    for drive in [mode, ExecMode::RowsSerial] {
        if let Err(diags) = verify(&k.vm_image(drive)) {
            let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
            panic!(
                "{}: verifier rejected planner bytecode at ({n},{m}) in mode {drive:?}: {codes:?}",
                p.name
            );
        }
        let mut per_worker_count = Vec::new();
        for threads in [1, 4] {
            let (mem, stats) = k.run_with_threads(drive, threads);
            assert_eq!(
                mem.fingerprint(),
                omem.fingerprint(),
                "{}: unchecked run diverged at ({n},{m}), mode {drive:?}, {threads} thread(s)",
                p.name
            );
            assert_eq!(
                stats.stmt_instances, ostats.stmt_instances,
                "{}: instance count at ({n},{m}), mode {drive:?}, {threads} thread(s)",
                p.name
            );
            assert_eq!(
                stats.barriers,
                k.barrier_count(drive),
                "{}: barrier count at ({n},{m}), mode {drive:?}, {threads} thread(s)",
                p.name
            );
            per_worker_count.push(stats);
        }
        assert_eq!(
            per_worker_count[0], per_worker_count[1],
            "{}: ExecStats depend on the worker count at ({n},{m}), mode {drive:?}",
            p.name
        );
    }
    true
}

#[test]
fn suite_programs_run_unchecked_identically() {
    let mut compared = 0;
    for entry in executable_suite() {
        let p = entry
            .program
            .expect("executable_suite filters for programs");
        for (n, m) in [(7, 5), (16, 16)] {
            assert!(
                assert_unchecked_matches_checked(&p, n, m),
                "suite {} no longer plans to a fused schedule",
                entry.id
            );
        }
        compared += 1;
    }
    assert_eq!(compared, 4, "expected E1, E2, E4, E5 to be executable");
}

#[test]
fn tiled_wide_rows_run_unchecked_identically() {
    // Rows at least 2 * TILE_COLS wide under several workers take the
    // column-tile path, whose SharedCells reads and writes carry no
    // per-access check outside debug builds; they must agree cell for
    // cell with the checked interpreter.
    let p = mdfusion::ir::samples::figure2_program();
    assert!(assert_unchecked_matches_checked(&p, 4, 3 * TILE_COLS));
}

#[test]
fn suite_programs_verify_in_every_drive_mode() {
    let mut verified = 0;
    for entry in executable_suite() {
        let p = entry
            .program
            .expect("executable_suite filters for programs");
        // The last shape is wide enough for certified rows to tile.
        for (n, m) in [(7, 5), (16, 16), (4, 3 * TILE_COLS)] {
            assert!(
                assert_verifies_in_every_drive_mode(&p, n, m),
                "suite {} no longer plans to a fused schedule",
                entry.id
            );
        }
        verified += 1;
    }
    assert_eq!(verified, 4, "expected E1, E2, E4, E5 to be executable");
}

#[test]
fn dsl_examples_verify_in_every_drive_mode() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/dsl");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples/dsl exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "mdf"))
        .collect();
    entries.sort();
    let mut seen = 0;
    for path in entries {
        let src = std::fs::read_to_string(&path).expect("readable example");
        let p =
            mdfusion::ir::parse_program(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            assert_verifies_in_every_drive_mode(&p, 12, 10),
            "{}: example must plan to a fused schedule",
            path.display()
        );
        seen += 1;
    }
    assert!(seen >= 5, "expected at least 5 DSL examples, found {seen}");
}

/// A single mutation of one lowered loop, given the image's cell count.
type Mutation = (&'static str, fn(&mut CompiledLoop, isize));

/// Every property the verifier proves (active ranges, offsets, store and
/// load deltas, registers), nudged by one and by a whole image.
const MUTATIONS: [Mutation; 11] = [
    ("rows.lo - 1", |cl, _| cl.rows.lo -= 1),
    ("rows.hi + 1", |cl, _| cl.rows.hi += 1),
    ("cols.lo - 1", |cl, _| cl.cols.lo -= 1),
    ("cols.hi + 1", |cl, _| cl.cols.hi += 1),
    ("offset.x + 1", |cl, _| cl.offset.x += 1),
    ("offset.y - 1", |cl, _| cl.offset.y -= 1),
    ("store delta + 1", |cl, _| cl.stmts[0].store_delta += 1),
    ("store delta + image", |cl, cells| {
        cl.stmts[0].store_delta += cells
    }),
    ("load delta - 1", |cl, _| *first_load(cl) -= 1),
    ("load delta - image", |cl, cells| *first_load(cl) -= cells),
    ("register + 1", |cl, _| match &mut cl.stmts[0].instrs[0] {
        Instr::Const { dst, .. } | Instr::Load { dst, .. } => *dst += 1,
        _ => unreachable!("a postfix body starts with a leaf"),
    }),
];

/// The delta of the first load of `cl`'s first statement.
fn first_load(cl: &mut CompiledLoop) -> &mut isize {
    cl.stmts[0]
        .instrs
        .iter_mut()
        .find_map(|ins| match ins {
            Instr::Load { delta, .. } => Some(delta),
            _ => None,
        })
        .expect("every sample statement loads")
}

#[test]
fn mutants_are_rejected_typed_or_prove_their_bounds_and_run() {
    let (mut rejected, mut ran) = (0, 0);
    for p in [
        mdfusion::ir::samples::figure2_program(),
        mdfusion::ir::samples::relaxation_program(),
    ] {
        let (spec, mode) = planned(&p).expect("samples plan");
        let honest = CompiledKernel::compile(&spec, 8, 8).expect("samples compile");
        let cert = verify(&honest.vm_image(mode)).expect("planner bytecode verifies");
        let cells = honest.layout().cells() as isize;
        for li in 0..honest.vm_image(mode).loops.len() {
            for (what, mutate) in MUTATIONS {
                let at = format!("{} loop {li}: {what}", p.name);
                let mut mutant = honest.clone();
                mutate(&mut mutant.loops_mut()[li], cells);
                let img = mutant.vm_image(mode);
                if img == honest.vm_image(mode) {
                    continue;
                }
                assert!(!revalidate(&cert, &img), "{at}: a stale cert revalidated");
                match verify(&img) {
                    Err(diags) => {
                        assert!(!diags.is_empty(), "{at}");
                        assert!(
                            diags.iter().all(|d| d.code.starts_with("MDF2")),
                            "{at}: untyped rejection {diags:?}"
                        );
                        rejected += 1;
                    }
                    Ok(_) => {
                        // The drive panics if its bounds proof refuses.
                        let run =
                            catch_unwind(AssertUnwindSafe(|| mutant.run_with_threads(mode, 1)));
                        assert!(
                            run.is_ok(),
                            "{at}: the verifier accepted a mutant whose drive was refused or panicked"
                        );
                        ran += 1;
                    }
                }
            }
        }
    }
    assert!(rejected > 0 && ran > 0, "{rejected} rejected, {ran} ran");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random fused programs: the planner's bytecode always verifies, and
    /// its certificates stay keyed to their mode and bounds.
    #[test]
    fn random_programs_verify_in_every_drive_mode(seed in 0u64..1u64 << 48, loops in 2usize..5) {
        let cfg = ProgramGenConfig {
            loops,
            reads_per_loop: 1 + (seed % 3) as usize,
            max_offset: 2,
            self_read_probability: 0.3,
        };
        let p = random_program(seed, &cfg);
        if extract_mldg(&p).is_ok() {
            // Degraded plans return false and prove nothing.
            let _ = assert_verifies_in_every_drive_mode(&p, 6, 6);
        }
    }
}

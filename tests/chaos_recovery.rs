//! Checkpoint/resume soundness under injected faults: the fault-injection
//! layer's core invariant.
//!
//! For every executable workload, every execution mode (planned, forced
//! multi-worker, serial fallback), and **every barrier index**, a run
//! interrupted at that barrier and resumed from its checkpoint must be
//! bit-identical to an uninterrupted run — same memory fingerprint, same
//! barrier and statement-instance counters (the numbers the mdf-trace
//! counters mirror, see `trace_determinism.rs`). The interpreter is held
//! to the same invariant on every traversal: the plan's own, descending
//! rows, and partial-fusion clusters. The supervised executor of both
//! engines must additionally *absorb* transient worker panics at any
//! barrier without help, and report what recovery did.

use mdfusion::chaos::{FaultKind, FaultPlan};
use mdfusion::core::{fuse_partial, plan_fusion, Budget, FusionPlan};
use mdfusion::gen::{executable_suite, random_program, ProgramGenConfig};
use mdfusion::graph::MdfError;
use mdfusion::ir::extract::extract_mldg;
use mdfusion::ir::{FusedSpec, Program};
use mdfusion::kernel::{plan_mode, CompiledKernel, ExecMode, KernelMemory};
use mdfusion::sim::{
    align_partial_to_program, run_original, run_traversal, run_traversal_supervised, Checkpoint,
    ExecStats, RetryPolicy, RowOrder, SupervisedOutcome, Traversal,
};
use proptest::prelude::*;

const N: i64 = 9;
const M: i64 = 8;

/// Plans `p` and lowers it: the fused spec, its aligned plan, the chosen
/// kernel mode, and the compiled kernel. `None` when the planner (by
/// design) does not reach a fused schedule.
fn artifacts(p: &Program) -> Option<(FusedSpec, FusionPlan, ExecMode, CompiledKernel)> {
    let graph = extract_mldg(p).ok()?.graph;
    let plan = plan_fusion(&graph).ok()?;
    let plan = mdfusion::sim::align_plan_to_program(&graph, p, &plan)?;
    let spec = FusedSpec::new(p.clone(), plan.retiming().offsets().to_vec());
    let mode = plan_mode(&spec, &plan);
    let kernel = CompiledKernel::compile(&spec, N, M).ok()?;
    Some((spec, plan, mode, kernel))
}

/// A one-attempt kernel run (`run_budgeted`) stopped by `kind` fired at
/// `site`'s `b`-th hit, inside barrier `b`: the partial result's image,
/// checkpoint and cause.
fn kernel_partial(
    kernel: &CompiledKernel,
    mode: ExecMode,
    (site, kind): (&'static str, FaultKind),
    b: u64,
    name: &str,
) -> (KernelMemory, Checkpoint, MdfError) {
    let guard = FaultPlan::single(site, kind, b).arm();
    let mut meter = Budget::unlimited().with_chaos().meter();
    let out = kernel
        .run_budgeted(mode, &mut meter)
        .expect("an injected fault is a partial result, not an error");
    assert_eq!(guard.injected(), 1, "{name}");
    drop(guard);
    let SupervisedOutcome::Partial {
        mem,
        checkpoint,
        cause,
        recovery,
    } = out
    else {
        panic!("{name}: {site} at barrier {b} must stop the run");
    };
    assert_eq!(checkpoint.completed_barriers, b - 1, "{name}");
    assert_eq!(
        recovery.retries, 0,
        "{name}: a one-attempt run never retries"
    );
    (mem, checkpoint, cause)
}

/// Resumes a partial kernel run from its checkpoint under a clean meter,
/// with the worker count `run_budgeted` drives with, and demands the
/// uninterrupted run's image and counters.
fn kernel_resume(
    kernel: &CompiledKernel,
    mode: ExecMode,
    partial: (KernelMemory, Checkpoint),
    (want_mem, want_stats): &(KernelMemory, ExecStats),
    at: &str,
) {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut clean = Budget::unlimited().meter();
    let (rmem, rstats) = kernel
        .drive(
            mode,
            threads,
            &RetryPolicy::once(),
            &mut clean,
            Some(partial),
        )
        .expect("resume plans within budget")
        .into_complete()
        .expect("clean resume runs to completion");
    assert_eq!(
        rmem.fingerprint(),
        want_mem.fingerprint(),
        "{at}: resumed fingerprint diverged"
    );
    assert_eq!(rstats, *want_stats, "{at}: resumed counters");
}

/// Interrupt the kernel with an injected deadline at barrier `b`, resume
/// from the partial result's checkpoint, and demand bit-identity.
fn kernel_interrupt_resume(kernel: &CompiledKernel, mode: ExecMode, b: u64, name: &str) {
    let want = kernel.run_with_threads(mode, 1);
    let deadline = ("kernel.barrier", FaultKind::DeadlineExpiry);
    let (mem, checkpoint, _) = kernel_partial(kernel, mode, deadline, b, name);
    kernel_resume(
        kernel,
        mode,
        (mem, checkpoint),
        &want,
        &format!("{name} barrier {b}"),
    );
}

#[test]
fn kernel_interrupted_at_every_barrier_resumes_bit_identically() {
    for entry in executable_suite() {
        let p = entry.program.expect("executable suite has programs");
        let Some((_, _, planned, kernel)) = artifacts(&p) else {
            continue;
        };
        // Planned mode and the serial fallback: both checkpoint at every
        // barrier and must resume identically.
        for mode in [planned, ExecMode::RowsSerial] {
            let total = kernel.barrier_count(mode);
            assert!(total > 1, "{}: needs at least two barriers", entry.id);
            for b in 1..=total {
                kernel_interrupt_resume(&kernel, mode, b, entry.id);
            }
        }
    }
}

/// Interrupt the interpreter's `traversal` of `spec` with an injected
/// deadline at every barrier in turn, resume each stop from its
/// checkpoint under a clean meter, and demand bit-identity. Every
/// traversal this file drives reproduces the original program.
fn interpreter_interrupt_resume_everywhere(spec: &FusedSpec, traversal: Traversal<'_>, name: &str) {
    let (want_mem, want_stats) = run_traversal(spec, traversal, N, M);
    assert_eq!(
        want_mem.fingerprint(),
        run_original(&spec.program, N, M).0.fingerprint(),
        "{name}: uninterrupted {traversal:?} run diverged from the original"
    );
    assert!(
        want_stats.barriers > 1,
        "{name}: needs at least two barriers"
    );
    for b in 1..=want_stats.barriers {
        let guard = FaultPlan::single("sim.barrier", FaultKind::DeadlineExpiry, b).arm();
        let mut meter = Budget::unlimited().with_chaos().meter();
        let once = RetryPolicy::once();
        let out = run_traversal_supervised(spec, traversal, N, M, &mut meter, &once, None)
            .expect("injected deadline is a partial result, not an error");
        let SupervisedOutcome::Partial {
            mem, checkpoint, ..
        } = out
        else {
            panic!("{name}: deadline at barrier {b} must stop the run");
        };
        assert_eq!(guard.injected(), 1, "{name}");
        assert_eq!(checkpoint.completed_barriers, b - 1, "{name}");
        drop(guard);

        let mut clean = Budget::unlimited().meter();
        let resume = Some((mem, checkpoint));
        let (rmem, rstats) =
            run_traversal_supervised(spec, traversal, N, M, &mut clean, &once, resume)
                .expect("resume runs within budget")
                .into_complete()
                .expect("clean resume runs to completion");
        assert_eq!(
            rmem.fingerprint(),
            want_mem.fingerprint(),
            "{name}: interpreter resumed fingerprint (barrier {b})"
        );
        assert_eq!(
            rstats, want_stats,
            "{name}: interpreter counters (barrier {b})"
        );
    }
}

#[test]
fn interpreter_interrupted_at_every_barrier_resumes_bit_identically() {
    for entry in executable_suite() {
        let p = entry.program.expect("executable suite has programs");
        let Some((spec, plan, _, _)) = artifacts(&p) else {
            continue;
        };
        // The plan's own order, and the adversarial descending rows every
        // full-parallel plan must also survive.
        interpreter_interrupt_resume_everywhere(&spec, Traversal::of(&plan), entry.id);
        if let FusionPlan::FullParallel { .. } = plan {
            let desc = Traversal::Rows(RowOrder::Descending);
            interpreter_interrupt_resume_everywhere(&spec, desc, entry.id);
        }

        // Partial fusion's clusters: barrier `b` is one (row, cluster)
        // step, so a multi-cluster plan (E5 has two) stops mid-row too.
        let graph = extract_mldg(&p).expect("suite programs extract").graph;
        let partial = fuse_partial(&graph).expect("suite programs fuse partially");
        let partial = align_partial_to_program(&graph, &p, &partial).expect("partial plan aligns");
        let spec = FusedSpec::new(p.clone(), partial.retiming.offsets().to_vec());
        let clusters = Traversal::Clusters(&partial.clusters);
        interpreter_interrupt_resume_everywhere(&spec, clusters, entry.id);
    }
}

#[test]
fn supervisor_absorbs_worker_panics_at_every_barrier() {
    for entry in executable_suite() {
        let p = entry.program.expect("executable suite has programs");
        let Some((spec, plan, planned, kernel)) = artifacts(&p) else {
            continue;
        };
        let policy = RetryPolicy::deterministic();

        // The interpreter's supervisor, in the plan's own order.
        let traversal = Traversal::of(&plan);
        let (want_mem, want_stats) = run_traversal(&spec, traversal, N, M);
        for b in 1..=want_stats.barriers {
            let guard = FaultPlan::single("sim.barrier", FaultKind::WorkerPanic, b).arm();
            let mut meter = Budget::unlimited().with_chaos().meter();
            let out = run_traversal_supervised(&spec, traversal, N, M, &mut meter, &policy, None)
                .expect("supervised run does not surface recoverable faults");
            assert_eq!(guard.injected(), 1, "{}", entry.id);
            drop(guard);
            let SupervisedOutcome::Complete {
                mem,
                stats,
                recovery,
            } = out
            else {
                panic!(
                    "{}: one transient interpreter panic (barrier {b}) must not end partial",
                    entry.id
                );
            };
            assert_eq!(
                mem.fingerprint(),
                want_mem.fingerprint(),
                "{}: supervised interpreter fingerprint (barrier {b})",
                entry.id
            );
            assert_eq!(stats, want_stats, "{}: supervised counters", entry.id);
            assert_eq!(recovery.retries, 1, "{}", entry.id);
            assert_eq!(
                recovery.checkpoints_taken, want_stats.barriers,
                "{}",
                entry.id
            );
        }

        // Planned mode single-worker, forced multi-worker, and the serial
        // fallback all recover in place — no caller-driven resume needed.
        for (mode, threads) in [(planned, 1), (planned, 4), (ExecMode::RowsSerial, 1)] {
            let (want_mem, want_stats) = kernel.run_with_threads(mode, threads);
            let total = kernel.barrier_count(mode);
            for b in 1..=total {
                let guard = FaultPlan::single("kernel.barrier", FaultKind::WorkerPanic, b).arm();
                let mut meter = Budget::unlimited().with_chaos().meter();
                let out = kernel
                    .run_supervised(mode, threads, &policy, &mut meter)
                    .expect("supervised run does not surface recoverable faults");
                assert_eq!(guard.injected(), 1, "{}", entry.id);
                drop(guard);
                let SupervisedOutcome::Complete {
                    mem,
                    stats,
                    recovery,
                } = out
                else {
                    panic!(
                        "{}: one transient panic (barrier {b}) must not end partial",
                        entry.id
                    );
                };
                assert_eq!(
                    mem.fingerprint(),
                    want_mem.fingerprint(),
                    "{}: supervised fingerprint (barrier {b}, {threads} workers)",
                    entry.id
                );
                assert_eq!(stats, want_stats, "{}: supervised counters", entry.id);
                assert_eq!(recovery.retries, 1, "{}", entry.id);
                assert!(recovery.resumes >= 1, "{}", entry.id);
                assert_eq!(recovery.checkpoints_taken, total, "{}", entry.id);
            }
        }
    }
}

/// A program whose chunks are not idempotent: `A` triples `a` in place,
/// so a chunk re-run over its own writes leaves other values than the
/// first run did. It plans Algorithm 4's certified rows.
const COMPOUNDING: &str = "program compounding {
    arrays a, b;
    do i {
        doall A: j { a[i][j] = a[i][j] * 3 + b[i-1][j]; }
        doall B: j { b[i][j] = a[i][j] + a[i-1][j+1]; }
    }
}";

/// A `kernel.chunk.mid` panic fires after the chunk has written, so the
/// retry needs the supervisor's restore: its base image, then a replay of
/// the barriers after it. Fire one inside every barrier of every suite
/// program and of [`COMPOUNDING`], on two shapes, run as `mdfused` runs
/// them. A suite chunk re-run over its own writes happens to write the
/// same values, so the suite proves the replay; `COMPOUNDING`'s chunks
/// compound, so only a restored retry matches the uninterrupted run.
#[test]
fn supervisor_replays_past_mid_chunk_panics_at_every_barrier() {
    let policy = RetryPolicy::deterministic();
    let compounding = mdfusion::ir::parse_program(COMPOUNDING).expect("COMPOUNDING parses");
    let programs = executable_suite()
        .into_iter()
        .map(|e| (e.id, e.program.expect("executable suite has programs")))
        .chain([("compounding", compounding)]);
    for (id, p) in programs {
        let Some((spec, _, planned, _)) = artifacts(&p) else {
            assert_ne!(id, "compounding", "COMPOUNDING plans a fused schedule");
            continue;
        };
        if id == "compounding" {
            assert_eq!(planned, ExecMode::RowsCertified);
        }
        for (n, m) in [(12, 10), (40, 33)] {
            let kernel = CompiledKernel::compile(&spec, n, m).expect("planned specs compile");
            for (mode, threads) in [(planned, 1), (planned, 4), (ExecMode::RowsSerial, 1)] {
                let (want_mem, want_stats) = kernel.run_with_threads(mode, threads);
                for b in 1..=kernel.barrier_count(mode) {
                    let guard =
                        FaultPlan::single("kernel.chunk.mid", FaultKind::WorkerPanic, b).arm();
                    let mut meter = Budget::unlimited().with_chaos().meter();
                    let out = kernel
                        .run_supervised(mode, threads, &policy, &mut meter)
                        .expect("supervised run does not surface recoverable faults");
                    assert_eq!(guard.injected(), 1, "{id}");
                    drop(guard);
                    let SupervisedOutcome::Complete {
                        mem,
                        stats,
                        recovery,
                    } = out
                    else {
                        panic!("{id}: one mid-chunk panic (barrier {b}) must not end partial");
                    };
                    let at = format!("{id} {n}x{m} {mode:?} {threads} workers, barrier {b}");
                    assert_eq!(mem.fingerprint(), want_mem.fingerprint(), "{at}");
                    assert_eq!(stats, want_stats, "{at}");
                    assert_eq!(recovery.retries, 1, "{at}");
                }
            }
        }
    }
}

/// A one-attempt run (`run_budgeted`) has no retry to spend on a
/// `kernel.chunk.mid` panic, which fires after the chunk has written: the
/// panic ends the run as a typed `Exec` partial whose image is the failed
/// barrier's clean top (the image a deadline at that barrier's top stops
/// with), rebuilt from the base and a replay, and the partial resumes
/// bit-identically. Fire one inside every barrier of every suite program
/// and of [`COMPOUNDING`], in the planned mode and the serial fallback.
#[test]
fn budgeted_runs_end_mid_chunk_panics_as_resumable_partials() {
    let compounding = mdfusion::ir::parse_program(COMPOUNDING).expect("COMPOUNDING parses");
    let programs = executable_suite()
        .into_iter()
        .map(|e| (e.id, e.program.expect("executable suite has programs")))
        .chain([("compounding", compounding)]);
    for (id, p) in programs {
        let Some((_, _, planned, kernel)) = artifacts(&p) else {
            assert_ne!(id, "compounding", "COMPOUNDING plans a fused schedule");
            continue;
        };
        for mode in [planned, ExecMode::RowsSerial] {
            let want = kernel.run_with_threads(mode, 1);
            for b in 1..=kernel.barrier_count(mode) {
                let at = format!("{id} {mode:?} barrier {b}");
                let deadline = ("kernel.barrier", FaultKind::DeadlineExpiry);
                let (top, _, _) = kernel_partial(&kernel, mode, deadline, b, &at);
                let panic = ("kernel.chunk.mid", FaultKind::WorkerPanic);
                let (mem, checkpoint, cause) = kernel_partial(&kernel, mode, panic, b, &at);
                assert!(matches!(cause, MdfError::Exec { .. }), "{at}: {cause}");
                assert_eq!(
                    mem.fingerprint(),
                    top.fingerprint(),
                    "{at}: the failed barrier's clean top"
                );
                assert_eq!(checkpoint.snapshot_hash, mem.fingerprint(), "{at}");
                kernel_resume(&kernel, mode, (mem, checkpoint), &want, &at);
            }
        }
    }
}

/// A resumed supervised run copies its presented image into its base, so
/// a mid-chunk panic after the resume restores that copy and replays the
/// barriers run since: stop every suite program's planned kernel halfway
/// with a deadline, then panic inside every barrier after the resume.
#[test]
fn resumed_supervision_replays_from_its_presented_image() {
    let policy = RetryPolicy::deterministic();
    for entry in executable_suite() {
        let p = entry.program.expect("executable suite has programs");
        let Some((spec, _, planned, _)) = artifacts(&p) else {
            continue;
        };
        let kernel = CompiledKernel::compile(&spec, 40, 33).expect("suite specs compile");
        let total = kernel.barrier_count(planned);
        let stop = total / 2;
        for threads in [1, 4] {
            let (want_mem, want_stats) = kernel.run_with_threads(planned, threads);
            for b in 1..=total - stop {
                let guard =
                    FaultPlan::single("kernel.barrier", FaultKind::DeadlineExpiry, stop + 1).arm();
                let mut meter = Budget::unlimited().with_chaos().meter();
                let Ok(SupervisedOutcome::Partial {
                    mem, checkpoint, ..
                }) = kernel.run_budgeted(planned, &mut meter)
                else {
                    panic!(
                        "{}: a deadline at barrier {stop} must stop the run",
                        entry.id
                    );
                };
                drop(guard);
                let guard = FaultPlan::single("kernel.chunk.mid", FaultKind::WorkerPanic, b).arm();
                let mut meter = Budget::unlimited().with_chaos().meter();
                let resume = Some((mem, checkpoint));
                let out = kernel
                    .drive(planned, threads, &policy, &mut meter, resume)
                    .expect("a resumed supervised run does not surface recoverable faults");
                assert_eq!(guard.injected(), 1, "{}", entry.id);
                drop(guard);
                let at = format!(
                    "{} {threads} workers, resumed at {stop}, panic {b}",
                    entry.id
                );
                let SupervisedOutcome::Complete {
                    mem,
                    stats,
                    recovery,
                } = out
                else {
                    panic!("{at}: one mid-chunk panic must not end partial");
                };
                assert_eq!(mem.fingerprint(), want_mem.fingerprint(), "{at}");
                assert_eq!(stats, want_stats, "{at}");
                assert_eq!(recovery.retries, 1, "{at}");
                assert!(
                    recovery.snapshots >= 1,
                    "{at}: the presented image is copied"
                );
            }
        }
    }
}

/// The supervisor copies an image only once the work since its last copy
/// reaches the image's size, so a fault-free run's copies are bounded by
/// its execution: figure2 copies nothing at 24², and at 512² no more than
/// one plus its instances per cell.
#[test]
fn fault_free_supervision_copies_no_more_than_it_executes() {
    let p = mdfusion::ir::samples::figure2_program();
    let Some((spec, plan, mode, _)) = artifacts(&p) else {
        panic!("figure2 plans and compiles");
    };
    let policy = RetryPolicy::deterministic();
    for n in [24, 512] {
        let kernel = CompiledKernel::compile(&spec, n, n).expect("figure2 compiles");
        let cells = kernel.layout().cells() as u64;
        let mut meter = Budget::unlimited().meter();
        let kernel_run = kernel
            .run_supervised(mode, 1, &policy, &mut meter)
            .expect("an unlimited meter cannot trip");
        let mut meter = Budget::unlimited().meter();
        let interp_run =
            run_traversal_supervised(&spec, Traversal::of(&plan), n, n, &mut meter, &policy, None)
                .expect("an unlimited meter cannot trip");
        assert!(kernel_run.is_complete() && interp_run.is_complete());
        for (engine, stats, recovery) in [
            ("kernel", kernel_run.stats(), *kernel_run.recovery()),
            ("interp", interp_run.stats(), *interp_run.recovery()),
        ] {
            assert_eq!(recovery.checkpoints_taken, stats.barriers, "{engine} {n}²");
            if n == 24 {
                assert_eq!(recovery.snapshots, 0, "{engine} {n}²");
            }
            assert!(
                recovery.snapshots <= 1 + stats.stmt_instances / cells,
                "{engine} {n}²: {} copies of {cells} cells for {} instances",
                recovery.snapshots,
                stats.stmt_instances
            );
        }
    }
}

/// Every plain and budgeted run is a one-attempt drive through the
/// supervisor's driver, which copies its base only once the statement
/// instances since the last copy reach the image's cells. The benchmarked
/// runs stay below that: the suite kernels at exec-large's 1024² and the
/// `examples/dsl` programs at the service's 24², on both engines, copy
/// nothing.
#[test]
fn one_attempt_runs_of_the_benchmarked_shapes_copy_nothing() {
    let once = RetryPolicy::once();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/dsl");
    let mut examples: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/dsl exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "mdf"))
        .collect();
    examples.sort();
    assert_eq!(examples.len(), 5, "the service's five example programs");
    let suite = executable_suite().into_iter().map(|e| {
        (
            e.id.to_string(),
            e.program.expect("executable suite has programs"),
            1024,
        )
    });
    let examples = examples.iter().map(|path| {
        let source = std::fs::read_to_string(path).expect("example reads");
        let p = mdfusion::ir::parse_program(&source).expect("example parses");
        (path.display().to_string(), p, 24)
    });
    for (name, p, n) in suite.chain(examples) {
        let Some((spec, plan, mode, _)) = artifacts(&p) else {
            panic!("{name}: every benchmarked program plans a fused schedule");
        };
        let kernel = CompiledKernel::compile(&spec, n, n).expect("planned specs compile");
        let mut meter = Budget::unlimited().meter();
        let out = kernel
            .drive(mode, 1, &once, &mut meter, None)
            .expect("an unlimited meter cannot trip");
        assert!(out.is_complete(), "{name} {n}²");
        assert_eq!(out.recovery().snapshots, 0, "{name} {n}² kernel");
        if n == 24 {
            let mut meter = Budget::unlimited().meter();
            let traversal = Traversal::of(&plan);
            let out = run_traversal_supervised(&spec, traversal, n, n, &mut meter, &once, None)
                .expect("an unlimited meter cannot trip");
            assert!(out.is_complete(), "{name} {n}²");
            assert_eq!(out.recovery().snapshots, 0, "{name} {n}² interpreter");
        }
    }
}

/// The sweeps above cover whatever mode the planner picks — but a silent
/// regression from the tiled wavefront back to the serial fallback would
/// weaken them without failing anything. Pin the elided path explicitly:
/// E5 must plan a certified, elision-licensed wavefront, and with the
/// tile grid at a shape big enough for a multi-wave anti-diagonal
/// schedule, a run interrupted at **every tile-wave boundary** (deadline)
/// and a supervised run panicked at every wave must both land
/// bit-identical, with exactly one checkpoint per post-elision sync.
#[test]
fn tiled_wavefront_recovers_at_every_wave_boundary() {
    let entry = mdfusion::gen::executable_suite()
        .into_iter()
        .find(|e| e.id == "E5")
        .expect("E5 is executable");
    let p = entry.program.expect("executable suite has programs");
    let graph = extract_mldg(&p).expect("E5 extracts").graph;
    let plan = plan_fusion(&graph).expect("E5 plans");
    let plan = mdfusion::sim::align_plan_to_program(&graph, &p, &plan).expect("E5 aligns");
    let spec = FusedSpec::new(p, plan.retiming().offsets().to_vec());
    let mode = plan_mode(&spec, &plan);
    assert!(
        matches!(mode, ExecMode::Wavefront { .. }),
        "E5 must carry the hyperplane and elision licenses, got {mode:?}"
    );
    let kernel = CompiledKernel::compile(&spec, 48, 48).expect("E5 compiles");
    let tp = kernel.tile_plan(mode).expect("elision-licensed mode tiles");
    let total = kernel.barrier_count(mode);
    assert_eq!(total, tp.waves(), "checkpoint unit is the tile wave");
    assert!(tp.elided() > 0, "the tiled shape must actually elide");
    assert!(total > 1, "needs at least two waves to interrupt");

    // Deadline at every wave boundary, resumed from the checkpoint.
    for b in 1..=total {
        kernel_interrupt_resume(&kernel, mode, b, "E5-tiled");
    }

    // Worker panic at every wave under the supervisor, multi-worker so
    // the threaded tile dispatch is the thing recovering.
    let policy = RetryPolicy::deterministic();
    let (want_mem, want_stats) = kernel.run_with_threads(mode, 4);
    for b in 1..=total {
        let guard = FaultPlan::single("kernel.barrier", FaultKind::WorkerPanic, b).arm();
        let mut meter = Budget::unlimited().with_chaos().meter();
        let out = kernel
            .run_supervised(mode, 4, &policy, &mut meter)
            .expect("supervised run does not surface recoverable faults");
        assert_eq!(guard.injected(), 1);
        drop(guard);
        let SupervisedOutcome::Complete {
            mem,
            stats,
            recovery,
        } = out
        else {
            panic!("one transient panic (wave {b}) must not end partial");
        };
        assert_eq!(mem.fingerprint(), want_mem.fingerprint(), "wave {b}");
        assert_eq!(stats, want_stats, "wave {b}");
        assert_eq!(
            recovery.checkpoints_taken,
            tp.waves(),
            "one checkpoint per post-elision sync (wave {b})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random programs, random interrupt points: wherever the planner
    /// fuses, an injected mid-run deadline plus a resume reproduces the
    /// uninterrupted kernel run exactly.
    #[test]
    fn random_programs_resume_bit_identically(seed in 0u64..1u64 << 48, loops in 2usize..5) {
        let cfg = ProgramGenConfig {
            loops,
            reads_per_loop: 1 + (seed % 3) as usize,
            max_offset: 2,
            self_read_probability: 0.3,
        };
        let p = random_program(seed, &cfg);
        if let Some((_, _, mode, kernel)) = artifacts(&p) {
            let total = kernel.barrier_count(mode);
            if total >= 1 {
                let b = 1 + seed % total;
                kernel_interrupt_resume(&kernel, mode, b, &p.name);
            }
        }
    }
}

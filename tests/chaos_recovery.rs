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
use mdfusion::ir::extract::extract_mldg;
use mdfusion::ir::{FusedSpec, Program};
use mdfusion::kernel::{plan_mode, CompiledKernel, ExecMode};
use mdfusion::sim::{
    align_partial_to_program, run_original, run_traversal, run_traversal_budgeted,
    run_traversal_supervised, RetryPolicy, RowOrder, RunOutcome, SupervisedOutcome, Traversal,
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

/// Interrupt the kernel with an injected deadline at barrier `b`, resume
/// from the partial result's checkpoint, and demand bit-identity.
fn kernel_interrupt_resume(kernel: &CompiledKernel, mode: ExecMode, b: u64, name: &str) {
    let (want_mem, want_stats) = kernel.run_with_threads(mode, 1);
    let guard = FaultPlan::single("kernel.barrier", FaultKind::DeadlineExpiry, b).arm();
    let mut meter = Budget::unlimited().with_chaos().meter();
    let out = kernel
        .run_budgeted(mode, &mut meter)
        .expect("injected deadline is a partial result, not an error");
    let RunOutcome::Partial {
        mem, checkpoint, ..
    } = out
    else {
        panic!("{name}: deadline at barrier {b} must stop the run");
    };
    assert_eq!(guard.injected(), 1, "{name}");
    assert_eq!(checkpoint.completed_barriers, b - 1, "{name}");
    drop(guard);

    let mut clean = Budget::unlimited().meter();
    let (rmem, rstats) = kernel
        .resume_budgeted(mode, mem, checkpoint, &mut clean)
        .expect("resume plans within budget")
        .into_complete()
        .expect("clean resume runs to completion");
    assert_eq!(
        rmem.fingerprint(),
        want_mem.fingerprint(),
        "{name}: resumed fingerprint diverged (barrier {b})"
    );
    assert_eq!(rstats, want_stats, "{name}: resumed counters (barrier {b})");
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
        let out = run_traversal_budgeted(spec, traversal, N, M, &mut meter, None)
            .expect("injected deadline is a partial result, not an error");
        let RunOutcome::Partial {
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
        let (rmem, rstats) = run_traversal_budgeted(spec, traversal, N, M, &mut clean, resume)
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
                let Ok(RunOutcome::Partial {
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
                let out = kernel
                    .resume_supervised(planned, threads, &policy, &mut meter, mem, checkpoint)
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

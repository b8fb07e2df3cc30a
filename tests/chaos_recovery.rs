//! Checkpoint/resume soundness under injected faults: the fault-injection
//! layer's core invariant.
//!
//! For every executable workload, every execution mode (planned, forced
//! multi-worker, serial fallback), and **every barrier index**, a run
//! interrupted at that barrier and resumed from its checkpoint must be
//! bit-identical to an uninterrupted run — same memory fingerprint, same
//! barrier and statement-instance counters (the numbers the mdf-trace
//! counters mirror, see `trace_determinism.rs`). The supervised executor
//! must additionally *absorb* transient worker panics at any barrier
//! without help, and report what recovery did.

use mdfusion::chaos::{FaultKind, FaultPlan};
use mdfusion::core::{plan_fusion, Budget, FusionPlan};
use mdfusion::gen::{executable_suite, random_program, ProgramGenConfig};
use mdfusion::ir::extract::extract_mldg;
use mdfusion::ir::{FusedSpec, Program};
use mdfusion::kernel::{plan_mode, CompiledKernel, ExecMode};
use mdfusion::sim::{
    resume_fused_ordered_budgeted, resume_wavefront_budgeted, run_fused_ordered,
    run_fused_ordered_budgeted, run_wavefront, run_wavefront_budgeted, RetryPolicy, RowOrder,
    RunOutcome, SupervisedOutcome,
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

#[test]
fn interpreter_interrupted_at_every_barrier_resumes_bit_identically() {
    for entry in executable_suite() {
        let p = entry.program.expect("executable suite has programs");
        let Some((spec, plan, _, _)) = artifacts(&p) else {
            continue;
        };
        let (want_mem, want_stats) = match &plan {
            FusionPlan::FullParallel { .. } => run_fused_ordered(&spec, N, M, RowOrder::Ascending),
            FusionPlan::Hyperplane { wavefront, .. } => run_wavefront(&spec, *wavefront, N, M),
        };
        for b in 1..=want_stats.barriers {
            let guard = FaultPlan::single("sim.barrier", FaultKind::DeadlineExpiry, b).arm();
            let mut meter = Budget::unlimited().with_chaos().meter();
            let out = match &plan {
                FusionPlan::FullParallel { .. } => {
                    run_fused_ordered_budgeted(&spec, N, M, RowOrder::Ascending, &mut meter)
                }
                FusionPlan::Hyperplane { wavefront, .. } => {
                    run_wavefront_budgeted(&spec, *wavefront, N, M, &mut meter)
                }
            }
            .expect("injected deadline is a partial result, not an error");
            let RunOutcome::Partial {
                mem, checkpoint, ..
            } = out
            else {
                panic!("{}: deadline at barrier {b} must stop the run", entry.id);
            };
            assert_eq!(checkpoint.completed_barriers, b - 1, "{}", entry.id);
            drop(guard);

            let mut clean = Budget::unlimited().meter();
            let (rmem, rstats) = match &plan {
                FusionPlan::FullParallel { .. } => resume_fused_ordered_budgeted(
                    &spec,
                    N,
                    M,
                    RowOrder::Ascending,
                    mem,
                    &checkpoint,
                    &mut clean,
                ),
                FusionPlan::Hyperplane { wavefront, .. } => {
                    resume_wavefront_budgeted(&spec, *wavefront, N, M, mem, &checkpoint, &mut clean)
                }
            }
            .expect("resume runs within budget")
            .into_complete()
            .expect("clean resume runs to completion");
            assert_eq!(
                rmem.fingerprint(),
                want_mem.fingerprint(),
                "{}: interpreter resumed fingerprint (barrier {b})",
                entry.id
            );
            assert_eq!(rstats, want_stats, "{}: interpreter counters", entry.id);
        }
    }
}

#[test]
fn supervisor_absorbs_worker_panics_at_every_barrier() {
    for entry in executable_suite() {
        let p = entry.program.expect("executable suite has programs");
        let Some((_, _, planned, kernel)) = artifacts(&p) else {
            continue;
        };
        let policy = RetryPolicy::deterministic();
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

//! Checkpoint/resume substrate and the one barrier driver.
//!
//! Fused execution synchronizes at barriers (fused rows, wavefront
//! groups, cluster steps), and the planner's legality proof makes each
//! barrier a *sound resume point*: the memory image after `k` completed
//! barriers is exactly the image any uninterrupted run has at that point.
//! [`supervise_run`] exploits that twice. It drives an execution barrier
//! by barrier, and a *recoverable* failure (a caught worker panic, a
//! deadline report) is either retried, with bounded exponential backoff
//! and multi-thread → serial degradation, or, once the policy's attempts
//! are spent, ends the run as a [`SupervisedOutcome::Partial`] carrying
//! the failed barrier's clean memory image, a [`Checkpoint`]
//! (completed-barrier count, counters, snapshot hash) and the typed
//! cause, so a caller can report progress or resume later with a fresh
//! budget. It keeps one older *base* image instead of a copy per barrier:
//! steps are deterministic, so the base plus a replay of the barriers
//! after it reproduces any barrier top bit for bit, and a recovered run
//! is bit-identical to an uninterrupted one.
//!
//! This driver is the only barrier loop of both engines (the
//! interpreter's traversals in [`crate::exec_plan`] and `mdf-kernel`'s
//! step plans), and a [`RetryPolicy`] is all that tells a plain or
//! budgeted run ([`RetryPolicy::once`]: one attempt, no retry) from a
//! supervised one. Each engine supplies an allocation, a barrier count
//! and a step; the driver owns the rest: the barrier-top gate (deadline,
//! then the engine's `*.barrier` fault site), the per-barrier iteration
//! charge after the step, and the resume check.
//!
//! Backoff is deterministic (a fixed doubling schedule); tests and the
//! chaos sweep run it in *virtual time* ([`RetryPolicy::virtual_time`]),
//! accounting the waits without sleeping.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mdf_graph::{Budget, BudgetMeter, BudgetResource, MdfError};

use crate::interp::ExecStats;

/// Snapshot support for a memory image: cloneable, sized, with a stable
/// digest. The digest is the same fingerprint the differential oracles
/// compare, so checkpoint integrity and result identity are one currency.
/// [`supervise_run`] copies images with `clone_from`, so an image whose
/// `clone_from` reuses its buffer makes repeated copies allocation-free.
pub trait Snapshot: Clone {
    /// Stable fingerprint of the image.
    fn digest(&self) -> u64;
    /// Cells in the image: the work one copy of it costs.
    fn cells(&self) -> u64;
}

impl Snapshot for crate::interp::Memory {
    fn digest(&self) -> u64 {
        self.fingerprint()
    }

    fn cells(&self) -> u64 {
        (0..self.array_count())
            .map(|k| self.array(k).cells() as u64)
            .sum()
    }
}

/// A resumable position in a barrier-synchronized execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Barriers fully completed; also the index of the next one to run.
    pub completed_barriers: u64,
    /// Execution counters accumulated over the completed barriers.
    pub stats: ExecStats,
    /// Digest of the memory image at this point. Resume entry points
    /// verify it before continuing, so a checkpoint can never be replayed
    /// against the wrong (or a torn) image.
    pub snapshot_hash: u64,
}

/// Whether `e` is a deadline report — the budget trip that converts to a
/// partial result instead of an error (every other resource trip means
/// retrying or resuming cannot help).
pub fn deadline_expired(e: &MdfError) -> bool {
    matches!(
        e,
        MdfError::BudgetExceeded {
            resource: BudgetResource::WallClockMs,
            ..
        }
    )
}

/// Validates a resume request: the checkpoint's digest must match the
/// presented image.
fn check_resume<M: Snapshot>(mem: &M, checkpoint: &Checkpoint) -> Result<(), MdfError> {
    if mem.digest() != checkpoint.snapshot_hash {
        return Err(MdfError::invalid(
            "resume checkpoint does not match the presented memory image",
        ));
    }
    Ok(())
}

/// Retry/degradation policy for [`supervise_run`]. Deterministic by
/// construction: attempts, thread degradation and backoff depend only on
/// the failure count, never on time or randomness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per chunk (1 = no retries).
    pub max_attempts: u32,
    /// Attempts allowed at the caller's thread count before degrading the
    /// chunk to serial execution.
    pub serial_after: u32,
    /// First retry backoff in milliseconds; doubles per attempt.
    pub base_backoff_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub max_backoff_ms: u64,
    /// Account backoff without sleeping (tests, chaos sweeps).
    pub virtual_time: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            serial_after: 2,
            base_backoff_ms: 1,
            max_backoff_ms: 8,
            virtual_time: false,
        }
    }
}

impl RetryPolicy {
    /// The default policy with virtual-time backoff — what tests and the
    /// chaos sweep use.
    pub fn deterministic() -> Self {
        RetryPolicy {
            virtual_time: true,
            ..RetryPolicy::default()
        }
    }

    /// One attempt per barrier: the first recoverable failure ends the
    /// run as a [`SupervisedOutcome::Partial`], so the run never retries
    /// and never waits. What every plain and budgeted run uses.
    pub fn once() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The worker count of an attempt after `failures` failures of the
    /// same barrier.
    fn threads_after(&self, failures: u32, threads: usize) -> usize {
        if failures >= self.serial_after {
            1
        } else {
            threads
        }
    }

    fn backoff_ms(&self, failures: u32) -> u64 {
        let shift = failures.saturating_sub(1).min(16);
        self.base_backoff_ms
            .checked_shl(shift)
            .unwrap_or(u64::MAX)
            .min(self.max_backoff_ms)
    }
}

/// What the supervisor did to finish a run. Every count but
/// `snapshots` depends only on the failures, never on how the supervisor
/// stores its base image.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Chunk retries after recoverable failures.
    pub retries: u64,
    /// Checkpoints passed: one per committed barrier, each a position
    /// the supervisor can restore (from its base image plus a replay).
    pub checkpoints_taken: u64,
    /// Times execution continued from a checkpoint (after a restore, or
    /// via a resume entry point).
    pub resumes: u64,
    /// Whether any chunk degraded to serial execution.
    pub degraded_to_serial: bool,
    /// Total backoff accounted, in milliseconds (virtual or slept).
    pub backoff_ms: u64,
    /// Memory images copied into the base: a resumed run's presented
    /// image, then one copy each time the statement instances committed
    /// since the last copy reach the image's cell count. A fault-free
    /// fresh run whose work stays under its image size copies nothing.
    pub snapshots: u64,
}

/// How a supervised run ended: fully, or at a barrier top with a
/// resumable checkpoint once the policy's attempts at one barrier were
/// spent; both with the recovery record.
#[derive(Clone, Debug)]
pub enum SupervisedOutcome<M> {
    /// Every barrier completed (possibly after retries); the result is
    /// bit-identical to an uninterrupted run.
    Complete {
        /// Final memory image.
        mem: M,
        /// Execution counters (retried work is never double-counted).
        stats: ExecStats,
        /// What recovery did.
        recovery: RecoveryStats,
    },
    /// A barrier failed recoverably on every attempt the policy allows
    /// (under [`RetryPolicy::once`], on its first): typed partial report
    /// with the work completed so far.
    Partial {
        /// Memory image at the last checkpoint (clean: the failed
        /// barrier's top, never a chunk's partial writes).
        mem: M,
        /// Where a later run may resume.
        checkpoint: Checkpoint,
        /// The final attempt's typed failure.
        cause: MdfError,
        /// What recovery did.
        recovery: RecoveryStats,
    },
}

impl<M> SupervisedOutcome<M> {
    /// `true` for [`SupervisedOutcome::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, SupervisedOutcome::Complete { .. })
    }

    /// The recovery record.
    pub fn recovery(&self) -> &RecoveryStats {
        match self {
            SupervisedOutcome::Complete { recovery, .. } => recovery,
            SupervisedOutcome::Partial { recovery, .. } => recovery,
        }
    }

    /// The execution counters accumulated so far.
    pub fn stats(&self) -> ExecStats {
        match self {
            SupervisedOutcome::Complete { stats, .. } => *stats,
            SupervisedOutcome::Partial { checkpoint, .. } => checkpoint.stats,
        }
    }

    /// Extracts a complete result, converting a partial one back into its
    /// typed cause — for callers (differential checks, benchmarks, the
    /// CLI's `run`) whose verdict is meaningless on partial work.
    pub fn into_complete(self) -> Result<(M, ExecStats), MdfError> {
        match self {
            SupervisedOutcome::Complete { mem, stats, .. } => Ok((mem, stats)),
            SupervisedOutcome::Partial { cause, .. } => Err(cause),
        }
    }
}

/// Whether a chunk failure is worth retrying: caught panics (arriving
/// here as [`MdfError::Exec`]) and deadline reports. Resource-cap trips
/// (iterations, cells, solver rounds) are deterministic functions of the
/// work itself — a retry re-charges and fails harder — so they stay
/// fatal.
fn recoverable(e: &MdfError) -> bool {
    deadline_expired(e) || matches!(e, MdfError::Exec { .. })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// The barrier-top gate: the deadline, then the engine's barrier fault
/// site `site`. Memory is clean here, so a deadline report is a sound
/// place to stop or retry.
fn check_barrier_top(meter: &mut BudgetMeter, site: &'static str) -> Result<(), MdfError> {
    meter.check_deadline()?;
    meter.chaos_site(site)
}

/// The barrier driver of both engines: drives `total` barriers through
/// `step`, recovering per `policy`.
///
/// * `alloc` produces the initial memory image; refusals
///   ([`BudgetResource::MemoryCells`]) retry under the same policy.
/// * Each attempt at a barrier passes the gate (deadline, then the fault
///   site `site`), runs `step(mem, barrier, threads, meter)` for its
///   statement-instance count, and charges those instances as
///   iterations.
/// * A recoverable failure (a caught panic, an `Exec` error, a deadline
///   report) at the gate leaves memory clean, so the barrier's top is the
///   live image. A failure once the step has started may leave partial
///   writes: the supervisor restores its *base* image and replays the
///   barriers after it. Then it retries the barrier, or, once
///   `policy.max_attempts` attempts have failed, returns that clean top
///   as a [`SupervisedOutcome::Partial`]. Every other failure is a typed
///   error.
/// * The base is one image, not one per barrier. A fresh run's base is
///   the allocator's image at barrier 0, rebuilt when needed by calling
///   `alloc` on a quiet `Budget::unlimited()` meter; a resumed run copies
///   its presented image once. The base is refreshed (with `clone_from`,
///   reusing its buffer) only when the statement instances committed
///   since the last copy reach the image's [`Snapshot::cells`], so
///   copying never costs more than executing, and where it happens
///   depends only on the plan and the shape.
/// * A replay runs `step` on a quiet meter: no gate, no fault site, no
///   iteration charge and no counters. Steps are deterministic and every
///   barrier top is a sound resume point, so the replay reproduces the
///   failed barrier's top bit for bit.
/// * `resume` continues from a prior [`Checkpoint`] (digest-verified).
///
/// Counters in the returned outcome reflect committed barriers only;
/// retried work is restored, re-run, and counted once. A
/// [`SupervisedOutcome::Partial`] carries the failed barrier's clean top.
#[allow(clippy::too_many_arguments)]
pub fn supervise_run<M, A, S>(
    total: u64,
    threads: usize,
    site: &'static str,
    policy: &RetryPolicy,
    meter: &mut BudgetMeter,
    resume: Option<(M, Checkpoint)>,
    mut alloc: A,
    mut step: S,
) -> Result<SupervisedOutcome<M>, MdfError>
where
    M: Snapshot,
    A: FnMut(&mut BudgetMeter) -> Result<M, MdfError>,
    S: FnMut(&mut M, u64, usize, &mut BudgetMeter) -> Result<u64, MdfError>,
{
    let mut recovery = RecoveryStats::default();
    // `base` is the image at barrier `base_at`; `None` stands for the
    // allocator's fresh image at barrier 0.
    let (mut mem, start, mut stats, mut base) = match resume {
        Some((mem, checkpoint)) => {
            check_resume(&mem, &checkpoint)?;
            recovery.resumes += 1;
            recovery.snapshots += 1;
            let base = Some(mem.clone());
            (mem, checkpoint.completed_barriers, checkpoint.stats, base)
        }
        None => (
            alloc_with_retries(policy, meter, &mut alloc, &mut recovery)?,
            0,
            ExecStats::default(),
            None,
        ),
    };
    let mut base_at = start;
    let mut since_base: u64 = 0;
    let cells = mem.cells();

    for barrier in start..total {
        let mut failures: u32 = 0;
        loop {
            let threads_now = policy.threads_after(failures, threads);
            recovery.degraded_to_serial |= threads_now < threads;
            let mut dirty = false;
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                check_barrier_top(meter, site)?;
                dirty = true;
                let instances = step(&mut mem, barrier, threads_now, meter)?;
                meter.charge_iterations(instances)?;
                Ok::<u64, MdfError>(instances)
            }));
            let cause = match attempt {
                Ok(Ok(instances)) => {
                    stats.barriers += 1;
                    stats.stmt_instances += instances;
                    recovery.checkpoints_taken += 1;
                    since_base += instances;
                    // After the last barrier there is nothing to protect.
                    if since_base >= cells && barrier + 1 < total {
                        match &mut base {
                            Some(image) => image.clone_from(&mem),
                            None => base = Some(mem.clone()),
                        }
                        base_at = barrier + 1;
                        since_base = 0;
                        recovery.snapshots += 1;
                    }
                    break;
                }
                Ok(Err(e)) if !recoverable(&e) => return Err(e),
                Ok(Err(e)) => e,
                Err(payload) => MdfError::exec(
                    barrier as i64,
                    0,
                    format!("caught worker panic: {}", panic_message(payload.as_ref())),
                ),
            };
            failures += 1;
            if dirty {
                // Discard the failed chunk's partial writes: back to the
                // base, then forward to this barrier's top.
                let mut quiet = Budget::unlimited().meter();
                match &base {
                    Some(image) => mem.clone_from(image),
                    None => mem = alloc(&mut quiet)?,
                }
                let threads_next = policy.threads_after(failures, threads);
                for b in base_at..barrier {
                    step(&mut mem, b, threads_next, &mut quiet)?;
                }
            }
            if failures >= policy.max_attempts {
                return Ok(SupervisedOutcome::Partial {
                    checkpoint: Checkpoint {
                        completed_barriers: barrier,
                        stats,
                        snapshot_hash: mem.digest(),
                    },
                    mem,
                    cause,
                    recovery,
                });
            }
            recovery.retries += 1;
            recovery.resumes += 1;
            let wait = policy.backoff_ms(failures);
            recovery.backoff_ms += wait;
            if !policy.virtual_time && wait > 0 {
                std::thread::sleep(std::time::Duration::from_millis(wait));
            }
        }
    }
    Ok(SupervisedOutcome::Complete {
        mem,
        stats,
        recovery,
    })
}

fn alloc_with_retries<M>(
    policy: &RetryPolicy,
    meter: &mut BudgetMeter,
    mut alloc: impl FnMut(&mut BudgetMeter) -> Result<M, MdfError>,
    recovery: &mut RecoveryStats,
) -> Result<M, MdfError> {
    let mut failures: u32 = 0;
    loop {
        match alloc(meter) {
            Ok(mem) => return Ok(mem),
            Err(e)
                if failures + 1 < policy.max_attempts
                    && matches!(
                        e,
                        MdfError::BudgetExceeded {
                            resource: BudgetResource::MemoryCells,
                            ..
                        }
                    ) =>
            {
                failures += 1;
                recovery.retries += 1;
                let wait = policy.backoff_ms(failures);
                recovery.backoff_ms += wait;
                if !policy.virtual_time && wait > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(wait));
                }
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdf_graph::Budget;

    /// A toy image: a vector of cells, "executed" one barrier = one cell.
    #[derive(Clone, Debug, PartialEq)]
    struct Toy(Vec<u64>);

    impl Snapshot for Toy {
        fn digest(&self) -> u64 {
            self.0.iter().fold(14695981039346656037u64, |h, v| {
                (h ^ v).wrapping_mul(1099511628211)
            })
        }

        fn cells(&self) -> u64 {
            self.0.len() as u64
        }
    }

    fn toy_step(mem: &mut Toy, barrier: u64) -> u64 {
        // Non-idempotent on purpose: re-running a barrier without a
        // restore corrupts the value, so these tests prove the supervisor
        // actually restores its base image.
        mem.0[barrier as usize] += barrier + 1;
        barrier + 1
    }

    #[test]
    fn clean_supervised_run_completes_with_exact_counters() {
        let mut meter = Budget::unlimited().meter();
        let out = supervise_run(
            4,
            1,
            "toy.barrier",
            &RetryPolicy::deterministic(),
            &mut meter,
            None,
            |_| Ok(Toy(vec![0; 4])),
            |mem, b, _, _| Ok(toy_step(mem, b)),
        )
        .unwrap();
        match out {
            SupervisedOutcome::Complete {
                mem,
                stats,
                recovery,
            } => {
                assert_eq!(mem.0, vec![1, 2, 3, 4]);
                assert_eq!(stats.barriers, 4);
                assert_eq!(stats.stmt_instances, 10);
                assert_eq!(recovery.retries, 0);
                assert_eq!(recovery.checkpoints_taken, 4);
                assert_eq!(recovery.resumes, 0);
                // 6 instances after barrier 2 reach the 4 cells; the last
                // barrier is never copied.
                assert_eq!(recovery.snapshots, 1);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn panicking_chunk_is_restored_and_retried() {
        let mut meter = Budget::unlimited().meter();
        let mut boom = true;
        let out = supervise_run(
            3,
            4,
            "toy.barrier",
            &RetryPolicy::deterministic(),
            &mut meter,
            None,
            |_| Ok(Toy(vec![0; 3])),
            |mem, b, _, _| {
                if b == 1 && std::mem::take(&mut boom) {
                    // Fail *after* a partial write: the supervisor must
                    // throw this write away before retrying.
                    mem.0[1] += 99;
                    panic!("injected");
                }
                Ok(toy_step(mem, b))
            },
        )
        .unwrap();
        match out {
            SupervisedOutcome::Complete {
                mem,
                stats,
                recovery,
            } => {
                assert_eq!(mem.0, vec![1, 2, 3], "partial write discarded");
                assert_eq!(stats.barriers, 3, "retried barrier counted once");
                assert_eq!(recovery.retries, 1);
                assert_eq!(recovery.resumes, 1);
                assert!(recovery.backoff_ms > 0);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn a_panic_two_barriers_past_the_base_is_restored_and_replayed() {
        // Eight cells and three instances per barrier: the base is copied
        // after barrier 2 (9 >= 8 instances), so a panic inside barrier 5
        // is two barriers past it, and barriers 3 and 4 must be replayed.
        let chained = |mem: &mut Toy, b: u64| {
            // Non-idempotent, and each barrier reads its predecessor's
            // cell: a missed restore or replay changes the final image.
            let prev = if b == 0 { 0 } else { mem.0[b as usize - 1] };
            mem.0[b as usize] += prev + b + 1;
            3
        };
        let mut want = Toy(vec![0; 8]);
        for b in 0..8 {
            chained(&mut want, b);
        }
        let mut calls = Vec::new();
        let mut boom = true;
        let mut meter = Budget::unlimited().meter();
        let out = supervise_run(
            8,
            1,
            "toy.barrier",
            &RetryPolicy::deterministic(),
            &mut meter,
            None,
            |_| Ok(Toy(vec![0; 8])),
            |mem, b, _, _| {
                calls.push(b);
                if b == 5 && std::mem::take(&mut boom) {
                    // Partial writes over the base's cells, the replayed
                    // barriers' cells and the failed barrier's own.
                    mem.0[2] += 99;
                    mem.0[4] += 99;
                    mem.0[5] += 99;
                    panic!("injected after partial writes");
                }
                Ok(chained(mem, b))
            },
        )
        .unwrap();
        match out {
            SupervisedOutcome::Complete {
                mem,
                stats,
                recovery,
            } => {
                assert_eq!(mem, want, "base plus replay restores exactly");
                assert_eq!(calls, vec![0, 1, 2, 3, 4, 5, 3, 4, 5, 6, 7]);
                assert_eq!(stats.barriers, 8);
                assert_eq!(stats.stmt_instances, 24, "replays are not counted");
                assert_eq!(recovery.retries, 1);
                assert_eq!(recovery.resumes, 1);
                assert_eq!(recovery.checkpoints_taken, 8);
                // After barrier 2, and after the retried barrier 5.
                assert_eq!(recovery.snapshots, 2);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn persistent_failure_degrades_to_serial_then_partial_report() {
        let mut meter = Budget::unlimited().meter();
        let mut seen_threads = Vec::new();
        let policy = RetryPolicy::deterministic();
        let out = supervise_run(
            3,
            8,
            "toy.barrier",
            &policy,
            &mut meter,
            None,
            |_| Ok(Toy(vec![0; 3])),
            |mem, b, threads, _| {
                if b == 2 {
                    seen_threads.push(threads);
                    panic!("always fails");
                }
                Ok(toy_step(mem, b))
            },
        )
        .unwrap();
        match out {
            SupervisedOutcome::Partial {
                mem,
                checkpoint,
                cause,
                recovery,
            } => {
                assert_eq!(mem.0, vec![1, 2, 0]);
                assert_eq!(checkpoint.completed_barriers, 2);
                assert_eq!(checkpoint.stats.barriers, 2);
                assert_eq!(checkpoint.snapshot_hash, mem.digest());
                assert!(matches!(cause, MdfError::Exec { .. }));
                assert!(recovery.degraded_to_serial);
                // serial_after = 2: first two attempts threaded, rest serial.
                assert_eq!(seen_threads, vec![8, 8, 1, 1]);
                assert_eq!(recovery.retries, 3);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn resume_continues_from_checkpoint_and_verifies_digest() {
        let policy = RetryPolicy::deterministic();
        // Interrupt by failing barrier 2 persistently, then resume with a
        // step that no longer fails.
        let mut meter = Budget::unlimited().meter();
        let out = supervise_run(
            4,
            1,
            "toy.barrier",
            &policy,
            &mut meter,
            None,
            |_| Ok(Toy(vec![0; 4])),
            |mem, b, _, _| {
                if b == 2 {
                    return Err(MdfError::exec(0, 0, "flaky"));
                }
                Ok(toy_step(mem, b))
            },
        )
        .unwrap();
        let SupervisedOutcome::Partial {
            mem, checkpoint, ..
        } = out
        else {
            panic!("expected partial");
        };

        // Tampered image is rejected.
        let mut tampered = mem.clone();
        tampered.0[0] ^= 1;
        let mut meter = Budget::unlimited().meter();
        assert!(supervise_run(
            4,
            1,
            "toy.barrier",
            &policy,
            &mut meter,
            Some((tampered, checkpoint)),
            |_| Ok(Toy(vec![0; 4])),
            |mem, b, _, _| Ok(toy_step(mem, b)),
        )
        .is_err());

        // Honest resume finishes and matches an uninterrupted run.
        let mut meter = Budget::unlimited().meter();
        let resumed = supervise_run(
            4,
            1,
            "toy.barrier",
            &policy,
            &mut meter,
            Some((mem, checkpoint)),
            |_| Ok(Toy(vec![0; 4])),
            |mem, b, _, _| Ok(toy_step(mem, b)),
        )
        .unwrap();
        match resumed {
            SupervisedOutcome::Complete {
                mem,
                stats,
                recovery,
            } => {
                assert_eq!(mem.0, vec![1, 2, 3, 4]);
                assert_eq!(stats.barriers, 4);
                assert_eq!(recovery.resumes, 1);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn alloc_refusal_retries_then_gives_up_typed() {
        let policy = RetryPolicy::deterministic();
        let mut refusals = 1;
        let mut meter = Budget::unlimited().meter();
        let out = supervise_run(
            1,
            1,
            "toy.barrier",
            &policy,
            &mut meter,
            None,
            |_| {
                if refusals > 0 {
                    refusals -= 1;
                    return Err(MdfError::BudgetExceeded {
                        resource: BudgetResource::MemoryCells,
                        limit: 0,
                        used: 1,
                    });
                }
                Ok(Toy(vec![0; 1]))
            },
            |mem, b, _, _| Ok(toy_step(mem, b)),
        )
        .unwrap();
        assert!(out.is_complete());
        assert_eq!(out.recovery().retries, 1);

        // A genuine (persistent) refusal stays a typed error.
        let mut meter = Budget::unlimited().meter();
        let err = supervise_run(
            1,
            1,
            "toy.barrier",
            &policy,
            &mut meter,
            None,
            |_| -> Result<Toy, MdfError> {
                Err(MdfError::BudgetExceeded {
                    resource: BudgetResource::MemoryCells,
                    limit: 0,
                    used: 1,
                })
            },
            |mem, b, _, _| Ok(toy_step(mem, b)),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            MdfError::BudgetExceeded {
                resource: BudgetResource::MemoryCells,
                ..
            }
        ));
    }

    #[test]
    fn fatal_errors_pass_through_immediately() {
        let mut meter = Budget::unlimited().meter();
        let mut calls = 0;
        let err = supervise_run(
            2,
            1,
            "toy.barrier",
            &RetryPolicy::deterministic(),
            &mut meter,
            None,
            |_| Ok(Toy(vec![0; 2])),
            |_, _, _, _| {
                calls += 1;
                Err(MdfError::BudgetExceeded {
                    resource: BudgetResource::Iterations,
                    limit: 1,
                    used: 2,
                })
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            MdfError::BudgetExceeded {
                resource: BudgetResource::Iterations,
                ..
            }
        ));
        assert_eq!(calls, 1, "no retry on a deterministic resource trip");
    }

    #[test]
    fn budgeted_drive_stops_at_a_deadline_and_resumes_bit_identically() {
        use std::time::Duration;
        // Barrier 1 outlasts the deadline, so the gate at barrier 2 stops
        // the run with the live image.
        let mut meter = Budget::unlimited()
            .with_deadline(Duration::from_millis(200))
            .meter();
        let out = supervise_run(
            4,
            1,
            "toy.barrier",
            &RetryPolicy::once(),
            &mut meter,
            None,
            |_| Ok(Toy(vec![0; 4])),
            |mem, b, _, _| {
                if b == 1 {
                    std::thread::sleep(Duration::from_millis(300));
                }
                Ok(toy_step(mem, b))
            },
        )
        .unwrap();
        let SupervisedOutcome::Partial {
            mem,
            checkpoint,
            cause,
            ..
        } = out
        else {
            panic!("expected a partial outcome");
        };
        assert!(deadline_expired(&cause));
        assert_eq!(mem.0, vec![1, 2, 0, 0]);
        assert_eq!(checkpoint.completed_barriers, 2);
        assert_eq!(checkpoint.stats.stmt_instances, 3);
        assert_eq!(checkpoint.snapshot_hash, mem.digest());

        // A resume presents its image: nothing is allocated.
        let mut meter = Budget::unlimited().meter();
        let (mem, stats) = supervise_run(
            4,
            1,
            "toy.barrier",
            &RetryPolicy::once(),
            &mut meter,
            Some((mem, checkpoint)),
            |_| -> Result<Toy, MdfError> { panic!("a resume must not allocate") },
            |mem, b, _, _| Ok(toy_step(mem, b)),
        )
        .unwrap()
        .into_complete()
        .unwrap();
        assert_eq!(mem.0, vec![1, 2, 3, 4]);
        assert_eq!(stats.barriers, 4);
        assert_eq!(stats.stmt_instances, 10);
    }

    #[test]
    fn a_one_attempt_run_ends_partial_at_its_first_failure_without_retrying() {
        // A panic inside barrier 2, after a partial write, and an `Exec`
        // error at barrier 2's start: each is the first recoverable
        // failure, so the run attempts barrier 2 once, never backs off (the
        // policy's clock is real), and reports the barrier's clean top.
        for panics in [true, false] {
            let mut calls = Vec::new();
            let mut meter = Budget::unlimited().meter();
            let out = supervise_run(
                4,
                1,
                "toy.barrier",
                &RetryPolicy::once(),
                &mut meter,
                None,
                |_| Ok(Toy(vec![0; 4])),
                |mem, b, _, _| {
                    calls.push(b);
                    if b == 2 {
                        if panics {
                            mem.0[2] += 99;
                            panic!("injected after a partial write");
                        }
                        return Err(MdfError::exec(0, 0, "flaky"));
                    }
                    Ok(toy_step(mem, b))
                },
            )
            .unwrap();
            let SupervisedOutcome::Partial {
                mem,
                checkpoint,
                cause,
                recovery,
            } = out
            else {
                panic!("the first failure must end the run (panics: {panics})");
            };
            // Barrier 2 once; barriers 0 and 1 replayed onto a fresh image
            // to rebuild barrier 2's top.
            assert_eq!(calls, vec![0, 1, 2, 0, 1], "panics: {panics}");
            assert_eq!(mem.0, vec![1, 2, 0, 0], "the failed barrier's clean top");
            assert_eq!(checkpoint.completed_barriers, 2);
            assert_eq!(checkpoint.stats.stmt_instances, 3);
            assert_eq!(checkpoint.snapshot_hash, mem.digest());
            assert!(matches!(cause, MdfError::Exec { .. }));
            assert_eq!(recovery.retries, 0);
            assert_eq!(recovery.backoff_ms, 0);
            assert_eq!(recovery.resumes, 0);
            assert!(!recovery.degraded_to_serial);
        }
    }

    #[test]
    fn backoff_schedule_doubles_and_caps() {
        let p = RetryPolicy {
            base_backoff_ms: 2,
            max_backoff_ms: 12,
            ..RetryPolicy::deterministic()
        };
        assert_eq!(p.backoff_ms(1), 2);
        assert_eq!(p.backoff_ms(2), 4);
        assert_eq!(p.backoff_ms(3), 8);
        assert_eq!(p.backoff_ms(4), 12, "capped");
        assert_eq!(p.backoff_ms(40), 12, "shift saturates safely");
    }
}

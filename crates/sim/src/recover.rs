//! Checkpoint/resume substrate and the supervising executor.
//!
//! Fused execution synchronizes at barriers (fused rows, wavefront
//! groups, cluster steps), and the planner's legality proof makes each
//! barrier a *sound resume point*: the memory image after `k` completed
//! barriers is exactly the image any uninterrupted run has at that point.
//! This module exploits that twice:
//!
//! * **Partial results.** [`drive_budgeted`] does not discard completed
//!   work on deadline expiry — it returns [`RunOutcome::Partial`]
//!   carrying the live memory image, a [`Checkpoint`] (completed-barrier
//!   count, counters, snapshot hash) and the typed cause, so a caller can
//!   report progress or resume later with a fresh budget.
//! * **Supervision.** [`supervise_run`] drives an execution barrier by
//!   barrier, snapshotting after each success. On a *recoverable* failure
//!   (a caught worker panic, a deadline report) it restores the last
//!   snapshot and retries the failed chunk with bounded exponential
//!   backoff, degrading multi-thread → serial per the planning ladder's
//!   spirit; once attempts are exhausted it returns a typed partial
//!   report. Recovered runs are bit-identical to uninterrupted ones
//!   because every retry replays from a clean barrier boundary.
//!
//! These two drivers are the only barrier loops of both engines (the
//! interpreter's traversals in [`crate::exec_plan`] and `mdf-kernel`'s
//! step plans). Each engine supplies an allocation, a barrier count and a
//! step; the drivers own the rest: the barrier-top gate (deadline, then
//! the engine's `*.barrier` fault site), the per-barrier iteration charge
//! after the step, and the resume check.
//!
//! Backoff is deterministic (a fixed doubling schedule); tests and the
//! chaos sweep run it in *virtual time* ([`RetryPolicy::virtual_time`]),
//! accounting the waits without sleeping.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mdf_graph::{BudgetMeter, BudgetResource, MdfError};
use mdf_trace::Span;

use crate::interp::ExecStats;

/// Snapshot support for a memory image: cloneable, with a stable digest.
/// The digest is the same fingerprint the differential oracles compare,
/// so checkpoint integrity and result identity are one currency.
pub trait Snapshot: Clone {
    /// Stable fingerprint of the image.
    fn digest(&self) -> u64;
}

impl Snapshot for crate::interp::Memory {
    fn digest(&self) -> u64 {
        self.fingerprint()
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

/// How a budgeted run ended: fully, or at a barrier boundary with a
/// resumable checkpoint (deadline expiry — the one budget trip for which
/// completed work is still sound and worth keeping).
#[derive(Clone, Debug)]
pub enum RunOutcome<M> {
    /// The run executed every barrier.
    Complete {
        /// Final memory image.
        mem: M,
        /// Execution counters.
        stats: ExecStats,
    },
    /// The run stopped at a barrier boundary.
    Partial {
        /// Memory image after the last completed barrier (clean: partial
        /// runs stop only at barrier tops, never mid-chunk).
        mem: M,
        /// Where to resume.
        checkpoint: Checkpoint,
        /// The typed reason the run stopped.
        cause: MdfError,
    },
}

impl<M: Snapshot> RunOutcome<M> {
    /// Builds a partial outcome at a barrier boundary, stamping the
    /// checkpoint with the image's digest. For drivers (here and in
    /// `mdf-kernel`) whose memory is clean at the stop point.
    pub fn partial(mem: M, completed_barriers: u64, stats: ExecStats, cause: MdfError) -> Self {
        let snapshot_hash = mem.digest();
        RunOutcome::Partial {
            mem,
            checkpoint: Checkpoint {
                completed_barriers,
                stats,
                snapshot_hash,
            },
            cause,
        }
    }
}

impl<M> RunOutcome<M> {
    /// `true` for [`RunOutcome::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, RunOutcome::Complete { .. })
    }

    /// Extracts a complete result, converting a partial one back into its
    /// typed cause — for callers (differential checks, benchmarks) whose
    /// verdict is meaningless on partial work.
    pub fn into_complete(self) -> Result<(M, ExecStats), MdfError> {
        match self {
            RunOutcome::Complete { mem, stats } => Ok((mem, stats)),
            RunOutcome::Partial { cause, .. } => Err(cause),
        }
    }

    /// The execution counters accumulated so far (final on complete runs).
    pub fn stats(&self) -> ExecStats {
        match self {
            RunOutcome::Complete { stats, .. } => *stats,
            RunOutcome::Partial { checkpoint, .. } => checkpoint.stats,
        }
    }
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
pub fn check_resume<M: Snapshot>(mem: &M, checkpoint: &Checkpoint) -> Result<(), MdfError> {
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

    fn backoff_ms(&self, failures: u32) -> u64 {
        let shift = failures.saturating_sub(1).min(16);
        self.base_backoff_ms
            .checked_shl(shift)
            .unwrap_or(u64::MAX)
            .min(self.max_backoff_ms)
    }
}

/// What the supervisor did to finish a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Chunk retries after recoverable failures.
    pub retries: u64,
    /// Snapshots taken (one per completed barrier).
    pub checkpoints_taken: u64,
    /// Times execution continued from a checkpoint (after a restore, or
    /// via a resume entry point).
    pub resumes: u64,
    /// Whether any chunk degraded to serial execution.
    pub degraded_to_serial: bool,
    /// Total backoff accounted, in milliseconds (virtual or slept).
    pub backoff_ms: u64,
}

impl RecoveryStats {
    /// Reports the recovery counters onto `span` under the `chaos.*`
    /// namespace shared with the fault-injection sweep.
    pub fn report(&self, span: &Span) {
        if !span.is_enabled() {
            return;
        }
        span.add("chaos.retries", self.retries);
        span.add("chaos.checkpoints_taken", self.checkpoints_taken);
        span.add("chaos.resumes", self.resumes);
        if self.degraded_to_serial {
            span.add("chaos.degraded-serial", 1);
        }
    }
}

/// How a supervised run ended. Like [`RunOutcome`] plus the recovery
/// record; `Partial` here means the retry/degradation ladder was fully
/// exhausted on one chunk.
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
    /// A chunk kept failing after every retry and degradation: typed
    /// partial report with the work completed so far.
    Partial {
        /// Memory image at the last checkpoint.
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

/// The barrier-top gate of both drivers: the deadline, then the engine's
/// barrier fault site `site`. Memory is clean here, so a deadline report
/// is a sound place to stop or retry.
fn check_barrier_top(meter: &mut BudgetMeter, site: &'static str) -> Result<(), MdfError> {
    meter.check_deadline()?;
    meter.chaos_site(site)
}

/// The budgeted executor: drives barriers `0..total` (or, with `resume`,
/// from a digest-verified [`Checkpoint`] on) through `step`, without
/// supervision.
///
/// * `alloc` produces a fresh image; it is not called on resume, so a
///   presented image is never re-charged.
/// * Each barrier passes the gate (deadline, then the fault site `site`),
///   runs `step(mem, barrier, meter)` for its statement-instance count,
///   and charges those instances as iterations.
/// * A deadline report at the gate ends the run as
///   [`RunOutcome::Partial`], moving the live image into the outcome;
///   every other failure is a typed error.
pub fn drive_budgeted<M, A, S>(
    total: u64,
    site: &'static str,
    meter: &mut BudgetMeter,
    resume: Option<(M, Checkpoint)>,
    alloc: A,
    mut step: S,
) -> Result<RunOutcome<M>, MdfError>
where
    M: Snapshot,
    A: FnOnce(&mut BudgetMeter) -> Result<M, MdfError>,
    S: FnMut(&mut M, u64, &mut BudgetMeter) -> Result<u64, MdfError>,
{
    let (mut mem, start, mut stats) = match resume {
        Some((mem, checkpoint)) => {
            check_resume(&mem, &checkpoint)?;
            (mem, checkpoint.completed_barriers, checkpoint.stats)
        }
        None => (alloc(meter)?, 0, ExecStats::default()),
    };
    for barrier in start..total {
        match check_barrier_top(meter, site) {
            Ok(()) => {}
            Err(cause) if deadline_expired(&cause) => {
                return Ok(RunOutcome::partial(mem, barrier, stats, cause));
            }
            Err(e) => return Err(e),
        }
        let instances = step(&mut mem, barrier, meter)?;
        stats.barriers += 1;
        stats.stmt_instances += instances;
        meter.charge_iterations(instances)?;
    }
    Ok(RunOutcome::Complete { mem, stats })
}

/// The supervising executor: drives `total` barriers through `step`,
/// checkpointing after each and recovering per `policy`.
///
/// * `alloc` produces the initial memory image; refusals
///   ([`BudgetResource::MemoryCells`]) retry under the same policy.
/// * Each attempt at a barrier passes the gate (deadline, then the fault
///   site `site`), runs `step(mem, barrier, threads, meter)` for its
///   statement-instance count, and charges those instances as
///   iterations. A step must only commit writes for its own barrier — on
///   failure the image is restored from the last snapshot, so partial
///   writes are discarded wholesale.
/// * `resume` continues from a prior [`Checkpoint`] (digest-verified).
///
/// Counters in the returned outcome reflect committed barriers only;
/// retried work is restored, re-run, and counted once.
#[allow(clippy::too_many_arguments)]
pub fn supervise_run<M, A, S>(
    total: u64,
    threads: usize,
    site: &'static str,
    policy: &RetryPolicy,
    meter: &mut BudgetMeter,
    resume: Option<(M, Checkpoint)>,
    alloc: A,
    mut step: S,
) -> Result<SupervisedOutcome<M>, MdfError>
where
    M: Snapshot,
    A: FnMut(&mut BudgetMeter) -> Result<M, MdfError>,
    S: FnMut(&mut M, u64, usize, &mut BudgetMeter) -> Result<u64, MdfError>,
{
    let mut recovery = RecoveryStats::default();
    let (mut mem, start, mut stats) = match resume {
        Some((mem, checkpoint)) => {
            check_resume(&mem, &checkpoint)?;
            recovery.resumes += 1;
            (mem, checkpoint.completed_barriers, checkpoint.stats)
        }
        None => (
            alloc_with_retries(policy, meter, alloc, &mut recovery)?,
            0,
            ExecStats::default(),
        ),
    };

    let mut snapshot = mem.clone();
    for barrier in start..total {
        let mut failures: u32 = 0;
        loop {
            let threads_now = if failures >= policy.serial_after {
                recovery.degraded_to_serial = recovery.degraded_to_serial || threads > 1;
                1
            } else {
                threads
            };
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                check_barrier_top(meter, site)?;
                let instances = step(&mut mem, barrier, threads_now, meter)?;
                meter.charge_iterations(instances)?;
                Ok::<u64, MdfError>(instances)
            }));
            let cause = match attempt {
                Ok(Ok(instances)) => {
                    stats.barriers += 1;
                    stats.stmt_instances += instances;
                    snapshot = mem.clone();
                    recovery.checkpoints_taken += 1;
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
            // Discard the failed chunk's partial writes wholesale.
            mem = snapshot.clone();
            failures += 1;
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
    }

    fn toy_step(mem: &mut Toy, barrier: u64) -> u64 {
        // Non-idempotent on purpose: re-running a barrier without a
        // restore corrupts the value, so these tests prove the supervisor
        // actually restores snapshots.
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
        let out = drive_budgeted(
            4,
            "toy.barrier",
            &mut meter,
            None,
            |_| Ok(Toy(vec![0; 4])),
            |mem, b, _| {
                if b == 1 {
                    std::thread::sleep(Duration::from_millis(300));
                }
                Ok(toy_step(mem, b))
            },
        )
        .unwrap();
        let RunOutcome::Partial {
            mem,
            checkpoint,
            cause,
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
        let (mem, stats) = drive_budgeted(
            4,
            "toy.barrier",
            &mut meter,
            Some((mem, checkpoint)),
            |_| -> Result<Toy, MdfError> { panic!("a resume must not allocate") },
            |mem, b, _| Ok(toy_step(mem, b)),
        )
        .unwrap()
        .into_complete()
        .unwrap();
        assert_eq!(mem.0, vec![1, 2, 3, 4]);
        assert_eq!(stats.barriers, 4);
        assert_eq!(stats.stmt_instances, 10);
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

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! # `mdf-sim` — execution substrate and transformation verifier
//!
//! Executes the paper's program model and its fused/retimed transforms
//! sequentially — the reference oracle every compiled and threaded
//! execution (`mdf-kernel`) is checked against:
//!
//! * [`array2`] — halo-extended arrays with deterministic boundary values;
//! * [`interp`] — the reference interpreter (original semantics: one
//!   barrier per DOALL loop per outer iteration);
//! * [`exec_plan`] — fused execution (row-major, adversarial descending,
//!   wavefront) and end-to-end plan checking against the reference;
//! * [`doall_check`] — dynamic DOALL verification from recorded accesses;
//! * [`machine`] — the synchronization-counting multiprocessor cost model
//!   behind the Section 5 comparisons;
//! * [`cache`] — set-associative LRU cache simulation measuring the
//!   data-locality benefit of fusion (the paper's Section 2 motivation);
//! * [`recover`] — checkpoint/resume substrate and the supervising
//!   executor (barrier-granular snapshots, deterministic retry with
//!   backoff, typed partial reports).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod array2;
pub mod cache;
pub mod doall_check;
pub mod exec_plan;
pub mod interp;
pub mod machine;
pub mod recover;
pub mod spaceviz;
pub mod traced;

pub use array2::Array2;
pub use cache::{cache_fused, cache_original, Cache, CacheConfig, CacheStats};
pub use doall_check::{check_hyperplanes_doall, check_rows_doall, DoallViolation};
pub use exec_plan::{
    align_partial_to_program, align_plan_to_program, check_partial_budgeted, check_plan,
    check_plan_budgeted, resume_fused_ordered_budgeted, resume_fused_supervised,
    resume_partitioned_budgeted, resume_wavefront_budgeted, resume_wavefront_supervised, run_fused,
    run_fused_desc, run_fused_ordered, run_fused_ordered_budgeted, run_fused_supervised,
    run_partitioned, run_partitioned_budgeted, run_wavefront, run_wavefront_budgeted,
    run_wavefront_supervised, RowOrder, SimError, SimReport,
};
pub use interp::{eval_expr, run_original, run_original_budgeted, ExecStats, Memory};
pub use machine::{
    makespan_fused_rows, makespan_original, makespan_partitioned, makespan_wavefront, speedup,
    MachineParams, Makespan,
};
pub use recover::{
    check_resume, deadline_expired, supervise_run, Checkpoint, RecoveryStats, RetryPolicy,
    RunOutcome, Snapshot, SupervisedOutcome,
};
pub use spaceviz::{render_row_space, render_wavefront_space};
pub use traced::{run_fused_ordered_traced, run_original_traced, run_wavefront_traced};

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
//! * [`exec_plan`] — fused execution along a [`Traversal`] (fused rows
//!   ascending or adversarially descending, wavefront groups, or
//!   partial-fusion clusters; one barrier per step) and end-to-end plan
//!   checking against the reference;
//! * [`doall_check`] — dynamic DOALL verification from recorded accesses;
//! * [`machine`] — the synchronization-counting multiprocessor cost model
//!   behind the Section 5 comparisons;
//! * [`cache`] — set-associative LRU cache simulation measuring the
//!   data-locality benefit of fusion (the paper's Section 2 motivation);
//! * [`recover`] — checkpoint/resume substrate and the one barrier
//!   driver both engines run on, `supervise_run`: barrier-granular
//!   recovery from one base image plus a deterministic replay, and a
//!   typed partial report once a [`RetryPolicy`]'s attempts are spent
//!   (one attempt, [`RetryPolicy::once`], for a plain or budgeted run);
//! * [`traced`] — the `sim.*` counters a traced run reports.

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
    check_plan_budgeted, run_fused, run_fused_supervised, run_traversal, run_traversal_supervised,
    run_wavefront, run_wavefront_supervised, RowOrder, SimError, SimReport, Traversal,
};
pub use interp::{eval_expr, run_original, run_original_budgeted, ExecStats, Memory};
pub use machine::{
    makespan_fused_rows, makespan_original, makespan_partitioned, makespan_wavefront, speedup,
    MachineParams, Makespan,
};
pub use recover::{
    deadline_expired, supervise_run, Checkpoint, RecoveryStats, RetryPolicy, Snapshot,
    SupervisedOutcome,
};
pub use spaceviz::{render_row_space, render_wavefront_space};

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! # `mdf-analyze` — static analysis & certificates
//!
//! Three passes that check the fusion pipeline's headline claims without
//! trusting the code that produced them:
//!
//! * [`race`] — a **static DOALL race certifier**: proves, for all
//!   iteration-space sizes, that the fused inner loop (or each wavefront
//!   hyperplane) carries no read-write/write-write conflict, or produces a
//!   concrete two-iteration witness. An independent oracle for the
//!   planner's Property 4.2 / Lemma 4.3 claims, cross-checked against the
//!   dynamic `mdf-sim` oracle by the fuzzer.
//! * [`certify`] — a **retiming certificate checker**: re-derives every
//!   retimed edge weight `d + r(u) − r(v)` from the raw MLDG and checks
//!   the per-algorithm postconditions (Theorem 3.1; Algorithm 3's
//!   `x ≥ 1` with zeroed `y`; Theorem 4.2's hard-edge conditions; Lemma
//!   4.3's strict schedules).
//! * [`lint`] — **DSL lints** with source spans (unused arrays, dead
//!   loops, non-uniform subscripts, reads-before-writer, and
//!   fusion-preventing or hard edges explained at their source line).
//!
//! * [`bytecode`] — a **static bytecode verifier** over `mdf-kernel`'s
//!   lowered instruction stream: proves register discipline, flat-buffer
//!   segment bounds across the entire retimed iteration space, and
//!   pairwise write-disjointness of the parallel steps a plan certifies —
//!   issuing a machine-checkable [`bytecode::BytecodeCert`]: a static
//!   cross-check, over the lowered bytecode itself, of the kernel's own
//!   per-drive bounds proof and of the race certificates.
//!
//! All passes speak [`diag::Diagnostic`] with stable `MDF0xx`/`MDF1xx`
//! codes (`MDF2xx` for the bytecode verifier), rendered human-readable or
//! as JSON by [`diag`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bytecode;
pub mod certify;
pub mod diag;
pub mod lint;
pub mod race;

pub use bytecode::{BytecodeCert, VmImage, VmInstr, VmLoop, VmMode, VmRange, VmStmt};
pub use certify::{check_certificate, check_certificate_traced, check_fusion_certificate};
pub use diag::{
    has_errors, render_human, render_json, render_json_with, Diagnostic, Severity, Span,
};
pub use lint::lint_source;
pub use race::{
    certify_doall, certify_doall_traced, certify_elision, certify_elision_traced, ElisionVerdict,
    ParallelMode, RaceVerdict, RaceWitness,
};

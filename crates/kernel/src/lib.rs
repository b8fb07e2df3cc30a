#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! # `mdf-kernel` — compiled execution engine for fused schedules
//!
//! The reference path in `mdf-sim` is a sequential tree-walking
//! interpreter: every statement instance re-traverses its `Expr` AST and
//! every array access re-derives a halo-adjusted 2-D index. That is the
//! right substrate for *checking* transformations; it is the wrong
//! substrate for *running* them.
//!
//! This crate lowers a [`FusedSpec`] (program + retiming) once into a
//! flat, allocation-free kernel and executes the planned iteration space
//! directly:
//!
//! * [`lower`] — statement bodies compile to a register bytecode
//!   ([`lower::Instr`]): constants folded, every array reference resolved
//!   to a single precomputed *linear delta* from the iteration cursor in
//!   one dense buffer shared by all arrays (no per-cell halo math);
//! * [`memory`] — [`KernelMemory`], the dense buffer, laid out exactly
//!   like `mdf_sim::Memory` so fingerprints are directly comparable;
//! * [`exec`] — the step drivers: tiled row-DOALL and tiled hyperplane
//!   wavefront, writing **in place**.
//!
//! ## In-place safety argument
//!
//! Writing in place during a parallel step is sound only when no two
//! iterations of the step touch one cell with at least one write. That is
//! precisely what `mdf-analyze`'s static race certificate proves — for
//! every iteration-space size, not just the one being run. The engine
//! therefore *consumes the certificate*: [`plan_mode`] runs
//! [`mdf_analyze::certify_doall`] (and, for a hyperplane,
//! [`mdf_analyze::certify_elision`]) and only `Certified` verdicts unlock
//! the loop-major rows, the tile waves and threaded in-place writes;
//! anything else degrades to the canonical sequential serialization
//! (still compiled, still in place — a single thread cannot race
//! itself). The sequential interpreter in `mdf-sim` stays the reference
//! every mode is checked against.
//!
//! A second, independent gate governs *bounds checks*: by default every
//! load and store asserts its flat index against the buffer length. A
//! kernel can instead be **armed** with a machine-checked
//! [`BytecodeCert`] from `mdf-analyze`'s bytecode verifier
//! ([`CompiledKernel::arm`]), which statically proves register
//! discipline, whole-iteration-space bounds, and per-step write
//! disjointness over the *lowered bytecode itself* — at which point the
//! drives for the certified mode take an assert-free path. No cert, no
//! unchecked execution; mutating the lowered loops disarms the kernel.
//!
//! The tiny `unsafe` surface (shared `&[Cell]`-style writes during a
//! certified step) lives in [`exec`] behind that gate; everything else in
//! the crate is `#![deny(unsafe_code)]`-clean.

#![warn(missing_docs)]

pub mod exec;
pub mod lower;
pub mod memory;

pub use exec::{CompiledKernel, ExecMode, TilePlan};
pub use lower::{CompiledLoop, CompiledStmt, Instr};
pub use memory::KernelMemory;
// Re-exported so consumers without an `mdf-analyze` dependency (the
// service plan cache) can store and revalidate bytecode certificates.
pub use mdf_analyze::bytecode::{BytecodeCert, VmImage, VmMode};

use mdf_analyze::{certify_doall_traced, certify_elision_traced, ParallelMode};
use mdf_core::FusionPlan;
use mdf_ir::retgen::FusedSpec;
use mdf_trace::{Span, Tracer};

/// Picks the execution mode for a plan by consulting the static
/// certificates: certified rows run loop-major and (on multicore hosts)
/// with threaded in-place writes; a hyperplane plan runs as tile waves
/// only when both its race certificate and its elision certificate hold;
/// every other plan falls back to the canonical sequential serialization.
pub fn plan_mode(spec: &FusedSpec, plan: &FusionPlan) -> ExecMode {
    plan_mode_traced(spec, plan, &Tracer::disabled().span("plan-mode"))
}

/// As [`plan_mode`], reporting the certificate consultation and the
/// decision onto `span`: one of `kernel.mode.rows-certified` /
/// `kernel.mode.rows-serial` / `kernel.mode.wavefront-tiled`, plus a
/// `kernel.fallback.row-race`, `kernel.fallback.hyperplane-race`, or
/// `kernel.fallback.elision-blocked` counter when a failed certificate
/// caused the serial fallback — the "why is this not parallel" answer,
/// straight from the profile.
pub fn plan_mode_traced(spec: &FusedSpec, plan: &FusionPlan, span: &Span) -> ExecMode {
    let mode = match plan {
        FusionPlan::FullParallel { .. } => {
            if certify_doall_traced(spec, ParallelMode::Rows, span).is_certified() {
                ExecMode::RowsCertified
            } else {
                span.add("kernel.fallback.row-race", 1);
                ExecMode::RowsSerial
            }
        }
        FusionPlan::Hyperplane { wavefront, .. } => {
            let s = wavefront.schedule;
            if !certify_doall_traced(spec, ParallelMode::Hyperplanes(s), span).is_certified() {
                span.add("kernel.fallback.hyperplane-race", 1);
                ExecMode::RowsSerial
            } else if !certify_elision_traced(spec, s, span).is_certified() {
                span.add("kernel.fallback.elision-blocked", 1);
                ExecMode::RowsSerial
            } else {
                ExecMode::Wavefront { schedule: s }
            }
        }
    };
    match mode {
        ExecMode::RowsCertified => span.add("kernel.mode.rows-certified", 1),
        ExecMode::RowsSerial => span.add("kernel.mode.rows-serial", 1),
        ExecMode::Wavefront { .. } => span.add("kernel.mode.wavefront-tiled", 1),
    }
    mode
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdf_core::plan_fusion;
    use mdf_ir::extract::extract_mldg;
    use mdf_ir::samples::{figure2_program, relaxation_program};

    #[test]
    fn planner_plans_are_certified_by_construction() {
        let p = figure2_program();
        let plan = plan_fusion(&extract_mldg(&p).unwrap().graph).unwrap();
        let spec = FusedSpec::new(p, plan.retiming().offsets().to_vec());
        assert_eq!(plan_mode(&spec, &plan), ExecMode::RowsCertified);

        let p = relaxation_program();
        let plan = plan_fusion(&extract_mldg(&p).unwrap().graph).unwrap();
        let spec = FusedSpec::new(p, plan.retiming().offsets().to_vec());
        match plan_mode(&spec, &plan) {
            ExecMode::Wavefront { schedule } => {
                assert_eq!(schedule, plan.wavefront().unwrap().schedule)
            }
            other => panic!("expected wavefront, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_retiming_demotes_to_serial() {
        // An unretimed Figure 2 claims-full-parallel plan must NOT get the
        // in-place parallel mode: the certificate rejects it.
        let p = figure2_program();
        let plan = plan_fusion(&extract_mldg(&p).unwrap().graph).unwrap();
        let spec = FusedSpec::unretimed(p);
        if plan.is_full_parallel() {
            assert_eq!(plan_mode(&spec, &plan), ExecMode::RowsSerial);
        }
    }

    #[test]
    fn traced_mode_choice_matches_untraced_and_records_cause() {
        use mdf_trace::{MemorySink, Tracer};
        use std::sync::Arc;

        let profile_of = |spec: &FusedSpec, plan: &mdf_core::FusionPlan| {
            let sink = Arc::new(MemorySink::new());
            let tracer = Tracer::new(sink.clone());
            let span = tracer.span("plan-mode");
            let mode = plan_mode_traced(spec, plan, &span);
            span.finish();
            assert_eq!(mode, plan_mode(spec, plan), "tracing must not perturb");
            (mode, sink.profile().unwrap())
        };

        // Certified rows: mode counter set, no fallback cause.
        let p = figure2_program();
        let plan = plan_fusion(&extract_mldg(&p).unwrap().graph).unwrap();
        let spec = FusedSpec::new(p, plan.retiming().offsets().to_vec());
        let (mode, profile) = profile_of(&spec, &plan);
        assert_eq!(mode, ExecMode::RowsCertified);
        assert_eq!(profile.counter_total("kernel.mode.rows-certified"), 1);
        assert_eq!(profile.counter_total("kernel.fallback.row-race"), 0);
        assert_eq!(profile.counter_total("analyze.certificates"), 1);

        // Failed certificate: serial fallback with its cause recorded.
        let p = figure2_program();
        let plan = plan_fusion(&extract_mldg(&p).unwrap().graph).unwrap();
        let spec = FusedSpec::unretimed(p);
        if plan.is_full_parallel() {
            let (mode, profile) = profile_of(&spec, &plan);
            assert_eq!(mode, ExecMode::RowsSerial);
            assert_eq!(profile.counter_total("kernel.mode.rows-serial"), 1);
            assert_eq!(profile.counter_total("kernel.fallback.row-race"), 1);
            assert_eq!(profile.counter_total("analyze.witnesses"), 1);
        }

        // Certified wavefront: relaxation's planned schedule also passes
        // the elision certificate, so the tiled mode is chosen.
        let p = relaxation_program();
        let plan = plan_fusion(&extract_mldg(&p).unwrap().graph).unwrap();
        let spec = FusedSpec::new(p, plan.retiming().offsets().to_vec());
        let (mode, profile) = profile_of(&spec, &plan);
        assert!(matches!(mode, ExecMode::Wavefront { .. }));
        assert_eq!(profile.counter_total("kernel.mode.wavefront-tiled"), 1);
        assert_eq!(profile.counter_total("kernel.mode.wavefront"), 0);
        assert_eq!(profile.counter_total("kernel.fallback.hyperplane-race"), 0);
        assert_eq!(profile.counter_total("kernel.fallback.elision-blocked"), 0);
        assert_eq!(profile.counter_total("analyze.elision.certified"), 1);

        // Forged hyperplane schedules: (1, 0) puts relaxation's (0, 2)
        // dependence inside one front, so the race certificate fails;
        // (2, -1) passes it but cannot order a tile's rows, so elision is
        // blocked. Either way the plan takes the serial sweep.
        let mdf_core::FusionPlan::Hyperplane {
            retiming,
            wavefront,
        } = plan
        else {
            panic!("relaxation plans a hyperplane");
        };
        for (schedule, cause) in [
            (mdf_graph::v2(1, 0), "kernel.fallback.hyperplane-race"),
            (mdf_graph::v2(2, -1), "kernel.fallback.elision-blocked"),
        ] {
            let forged = mdf_core::FusionPlan::Hyperplane {
                retiming: retiming.clone(),
                wavefront: mdf_retime::Wavefront {
                    schedule,
                    ..wavefront
                },
            };
            let (mode, profile) = profile_of(&spec, &forged);
            assert_eq!(mode, ExecMode::RowsSerial, "{schedule:?}");
            assert_eq!(profile.counter_total(cause), 1, "{schedule:?}");
            assert_eq!(profile.counter_total("kernel.mode.rows-serial"), 1);
        }
    }
}

//! Profiling must not perturb: the observability layer's core invariant.
//!
//! Every traced entry point (`plan_fusion_traced`, `plan_mode_traced`,
//! `CompiledKernel::{compile,run_*}_traced`, and the interpreter runs
//! reported through `mdf_sim::traced::report`) must produce
//! **bit-identical** results to its untraced twin — same plan report,
//! same execution mode, same memory fingerprints, same barrier and
//! statement-instance accounting — for every generator suite and DSL
//! example, in the planned mode, with a forced multi-worker policy, and
//! in the serial fallback.
//!
//! A second invariant rides along: single-threaded traced runs are
//! *reproducible* — two identical invocations yield identical counter
//! sets and identical span structure (timings excluded, they are the
//! only nondeterministic field).

use std::sync::Arc;

use mdfusion::core::{plan_fusion_budgeted, plan_fusion_traced, Budget, DegradedPlan};
use mdfusion::gen::{executable_suite, random_program, ProgramGenConfig};
use mdfusion::ir::extract::extract_mldg;
use mdfusion::ir::{FusedSpec, Program};
use mdfusion::kernel::{plan_mode, plan_mode_traced, CompiledKernel, ExecMode};
use mdfusion::sim::{
    align_plan_to_program, run_original, run_original_budgeted, run_traversal,
    run_traversal_supervised, traced::report, RetryPolicy, Traversal,
};
use mdfusion::trace::{MemorySink, Profile, Span, Tracer};
use proptest::prelude::*;

/// Runs `f` under a fresh memory-backed tracer and returns its result
/// together with the assembled profile.
fn traced<T>(f: impl FnOnce(&Span) -> T) -> (T, Profile) {
    let sink = Arc::new(MemorySink::new());
    let tracer = Tracer::new(sink.clone());
    let root = tracer.span("root");
    let out = f(&root);
    root.finish();
    (out, sink.profile().expect("well-formed span tree"))
}

/// The deterministic observable slice of a profile: span structure
/// (names, nesting, counters) with timings stripped.
fn fingerprintable(profile: &Profile) -> String {
    profile.structure()
}

/// Full pipeline at `(n, m)`, traced and untraced, asserting agreement
/// at every stage. Returns `false` when the planner degrades.
fn assert_tracing_is_invisible(p: &Program, n: i64, m: i64) -> bool {
    let graph = extract_mldg(p).expect("corpus programs extract").graph;
    let budget = Budget::unlimited();

    // Stage 1: planning. Same PlanReport (attempts, degradations,
    // retiming, all of it — PlanReport derives Eq).
    let Ok(plain) = plan_fusion_budgeted(&graph, &budget) else {
        let (traced_err, _) = traced(|s| plan_fusion_traced(&graph, &budget, s));
        assert!(
            traced_err.is_err(),
            "{}: traced planner succeeded where untraced failed",
            p.name
        );
        return false;
    };
    let (traced_report, _) = traced(|s| plan_fusion_traced(&graph, &budget, s));
    let traced_report = traced_report.expect("traced planner agrees on feasibility");
    assert_eq!(
        plain, traced_report,
        "{}: plan report diverged under tracing",
        p.name
    );

    let DegradedPlan::Fused(_) = &plain.plan else {
        return false;
    };
    let plan = align_plan_to_program(
        &graph,
        p,
        match &plain.plan {
            DegradedPlan::Fused(pl) => pl,
            _ => unreachable!(),
        },
    )
    .expect("corpus programs align");
    let spec = FusedSpec::new(p.clone(), plan.retiming().offsets().to_vec());

    // Stage 2: mode choice (includes DOALL certification).
    let mode = plan_mode(&spec, &plan);
    let (traced_mode, _) = traced(|s| plan_mode_traced(&spec, &plan, s));
    assert_eq!(
        mode, traced_mode,
        "{}: execution mode diverged under tracing",
        p.name
    );

    // Stage 3: lowering.
    let kernel = CompiledKernel::compile(&spec, n, m).expect("planned specs compile");
    let (traced_kernel, _) = traced(|s| CompiledKernel::compile_traced(&spec, n, m, s));
    let traced_kernel = traced_kernel.expect("traced lowering agrees");

    // Stage 4: execution — planned mode, forced multi-worker, serial
    // fallback — traced vs untraced on fingerprints AND accounting.
    for (label, threads, run_mode) in [
        ("planned mode", 1, mode),
        ("forced 4 workers", 4, mode),
        ("serial fallback", 1, ExecMode::RowsSerial),
    ] {
        let (mem, stats) = kernel.run_with_threads(run_mode, threads);
        let ((tmem, tstats), profile) =
            traced(|s| traced_kernel.run_with_threads_traced(run_mode, threads, s));
        assert_eq!(
            mem.fingerprint(),
            tmem.fingerprint(),
            "{}: kernel fingerprint diverged under tracing ({label}) at ({n},{m})",
            p.name
        );
        assert_eq!(
            stats.barriers, tstats.barriers,
            "{}: barriers ({label})",
            p.name
        );
        assert_eq!(
            stats.stmt_instances, tstats.stmt_instances,
            "{}: instances ({label})",
            p.name
        );
        // The reported counters must mirror the stats, not re-measure.
        assert_eq!(
            profile.counter_total("kernel.barriers"),
            stats.barriers,
            "{}: kernel.barriers counter ({label})",
            p.name
        );
        assert_eq!(
            profile.counter_total("kernel.instances"),
            stats.stmt_instances,
            "{}: kernel.instances counter ({label})",
            p.name
        );
    }

    // Stage 5: the interpreters. Original + the plan's own traversal
    // (fused rows or wavefront groups), each reporting its counters.
    let (omem, ostats) = run_original(p, n, m);
    let ((tomem, tostats), profile) = traced(|s| {
        let out = run_original_budgeted(p, n, m, &mut budget.meter()).expect("unbudgeted");
        report(s, &out.1);
        out
    });
    assert_eq!(
        omem.fingerprint(),
        tomem.fingerprint(),
        "{}: run_original",
        p.name
    );
    assert_eq!(ostats.stmt_instances, tostats.stmt_instances, "{}", p.name);
    assert_eq!(
        profile.counter_total("sim.barriers"),
        ostats.barriers,
        "{}: run_original sim.barriers counter",
        p.name
    );

    let traversal = Traversal::of(&plan);
    let (imem, istats) = run_traversal(&spec, traversal, n, m);
    let ((tmem, tstats), profile) = traced(|s| {
        let once = RetryPolicy::once();
        let out =
            run_traversal_supervised(&spec, traversal, n, m, &mut budget.meter(), &once, None)
                .expect("unbudgeted");
        report(s, &out.stats());
        out.into_complete()
            .expect("unlimited budget cannot stop early")
    });
    assert_eq!(
        imem.fingerprint(),
        tmem.fingerprint(),
        "{}: {traversal:?}",
        p.name
    );
    assert_eq!(istats.barriers, tstats.barriers, "{}", p.name);
    assert_eq!(
        profile.counter_total("sim.instances"),
        istats.stmt_instances,
        "{}: sim.instances counter ({traversal:?})",
        p.name
    );
    true
}

/// Two identical single-threaded traced pipelines must record identical
/// counters and span structure (timings are the only varying field).
fn assert_trace_is_reproducible(p: &Program, n: i64, m: i64) {
    let run_once = || {
        let graph = extract_mldg(p).expect("corpus programs extract").graph;
        let budget = Budget::unlimited();
        traced(|s| {
            let report = plan_fusion_traced(&graph, &budget, s).expect("corpus plans");
            let DegradedPlan::Fused(plan) = &report.plan else {
                return;
            };
            let plan = align_plan_to_program(&graph, p, plan).expect("corpus programs align");
            let spec = FusedSpec::new(p.clone(), plan.retiming().offsets().to_vec());
            let mode = plan_mode_traced(&spec, &plan, s);
            let k = CompiledKernel::compile_traced(&spec, n, m, s).expect("planned specs compile");
            let _ = k.run_with_threads_traced(mode, 1, s);
        })
        .1
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(
        fingerprintable(&a),
        fingerprintable(&b),
        "{}: repeated single-threaded traced runs diverged",
        p.name
    );
}

#[test]
fn suite_programs_are_unperturbed_by_profiling() {
    let mut compared = 0;
    for entry in executable_suite() {
        let p = entry
            .program
            .expect("executable_suite filters for programs");
        for (n, m) in [(0, 0), (7, 5), (16, 16)] {
            assert!(
                assert_tracing_is_invisible(&p, n, m),
                "suite {} no longer plans to a fused schedule",
                entry.id
            );
        }
        assert_trace_is_reproducible(&p, 9, 9);
        compared += 1;
    }
    assert_eq!(compared, 4, "expected E1, E2, E4, E5 to be executable");
}

#[test]
fn dsl_examples_are_unperturbed_by_profiling() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/dsl");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples/dsl exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "mdf"))
        .collect();
    entries.sort();
    assert!(entries.len() >= 5, "expected at least 5 DSL examples");
    for path in entries {
        let src = std::fs::read_to_string(&path).expect("readable example");
        let p =
            mdfusion::ir::parse_program(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            assert_tracing_is_invisible(&p, 12, 10),
            "{}: example must plan to a fused schedule",
            path.display()
        );
        assert_trace_is_reproducible(&p, 12, 10);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random programs: wherever the planner fuses, tracing stays
    /// invisible end to end.
    #[test]
    fn random_programs_are_unperturbed_by_profiling(seed in 0u64..1u64 << 48, loops in 2usize..5) {
        let cfg = ProgramGenConfig {
            loops,
            reads_per_loop: 1 + (seed % 3) as usize,
            max_offset: 2,
            self_read_probability: 0.3,
        };
        let p = random_program(seed, &cfg);
        if extract_mldg(&p).is_ok() {
            let _ = assert_tracing_is_invisible(&p, 6, 6);
        }
    }
}

//! Differential testing of the compiled execution engine.
//!
//! Three independent executors exist for a fused schedule: the original
//! (unfused) interpreter, the fused tree-walking interpreter, and the
//! compiled kernel from `mdf-kernel`. For every planned workload all
//! three must end with bit-identical memory images (fingerprints) and
//! the fused pair must agree on barrier and statement-instance counts.
//!
//! Coverage: the executable `mdf-gen` suites (E1, E2, E4, E5), every DSL
//! example under `examples/dsl/`, and a proptest sweep over randomly
//! generated programs — in both the certificate-licensed execution mode
//! and the canonical serial fallback, and with a forced multi-worker
//! policy so the in-place `SharedCells` paths, and (for the suites at
//! 256²) the banded fill of the initial memory image, are exercised too.

use mdfusion::core::{plan_fusion, DegradedPlan};
use mdfusion::gen::{executable_suite, random_program, ProgramGenConfig};
use mdfusion::ir::extract::extract_mldg;
use mdfusion::ir::{FusedSpec, Program};
use mdfusion::kernel::memory::{Layout, BANDED_FILL_CELLS};
use mdfusion::kernel::{plan_mode, CompiledKernel, ExecMode};
use mdfusion::sim::{align_plan_to_program, run_original, run_traversal, RowOrder, Traversal};
use proptest::prelude::*;

/// Plans `p`, executes it on all three engines at `(n, m)`, and asserts
/// full agreement. Returns `false` when the planner degrades (nothing to
/// compare) — callers decide whether that is acceptable for their corpus.
fn assert_engines_agree(p: &Program, n: i64, m: i64) -> bool {
    let graph = extract_mldg(p).expect("corpus programs extract").graph;
    let Ok(plan) = plan_fusion(&graph) else {
        return false;
    };
    let plan = align_plan_to_program(&graph, p, &plan).expect("corpus programs align");
    let spec = FusedSpec::new(p.clone(), plan.retiming().offsets().to_vec());
    let mode = plan_mode(&spec, &plan);
    let kernel = CompiledKernel::compile(&spec, n, m).expect("planned specs compile");

    let (omem, ostats) = run_original(p, n, m);
    let (imem, istats) = run_traversal(&spec, Traversal::of(&plan), n, m);
    assert_eq!(
        imem.fingerprint(),
        omem.fingerprint(),
        "{}: fused interpreter diverged from run_original at ({n},{m})",
        p.name
    );

    // The kernel in its certified mode, serial fallback, and with a
    // forced multi-worker policy (tiled / grouped SharedCells paths).
    for (label, mem, stats) in [
        {
            let (mem, stats) = kernel.run(mode);
            ("planned mode", mem, stats)
        },
        {
            let (mem, stats) = kernel.run_with_threads(mode, 4);
            ("forced 4 workers", mem, stats)
        },
        {
            let (mem, stats) = kernel.run(ExecMode::RowsSerial);
            ("serial fallback", mem, stats)
        },
    ] {
        assert_eq!(
            mem.fingerprint(),
            omem.fingerprint(),
            "{}: kernel ({label}) diverged at ({n},{m}) in mode {mode:?}",
            p.name
        );
        assert_eq!(
            stats.stmt_instances, istats.stmt_instances,
            "{}: instance count mismatch ({label})",
            p.name
        );
        if label != "serial fallback" || mode == ExecMode::RowsSerial {
            // An elision-licensed wavefront syncs once per tile wave, not
            // once per front: `barriers` reports post-elision syncs.
            match kernel.tile_plan(mode) {
                Some(tp) => {
                    assert_eq!(
                        stats.barriers,
                        tp.waves(),
                        "{}: tiled barrier count mismatch ({label})",
                        p.name
                    );
                    assert!(
                        stats.barriers <= istats.barriers,
                        "{}: elision may only remove barriers ({label})",
                        p.name
                    );
                }
                None => assert_eq!(
                    stats.barriers, istats.barriers,
                    "{}: barrier count mismatch ({label})",
                    p.name
                ),
            }
        }
    }

    // Counters agree between the fused interpreter and run_original's
    // totals: fusion reorders, it never adds or drops instances.
    assert_eq!(istats.stmt_instances, ostats.stmt_instances, "{}", p.name);
    true
}

#[test]
fn suite_programs_agree_across_engines() {
    let mut compared = 0;
    for entry in executable_suite() {
        let p = entry
            .program
            .expect("executable_suite filters for programs");
        // 256² puts every suite's image over the banded-fill cutoff, so
        // the forced 4-worker run fills it in bands on the pool.
        assert!(Layout::for_program(&p, 256, 256).cells() >= BANDED_FILL_CELLS);
        // Suites must fuse fully; a degraded plan here is a regression.
        for (n, m) in [(0, 0), (7, 5), (16, 16), (256, 256)] {
            assert!(
                assert_engines_agree(&p, n, m),
                "suite {} no longer plans to a fused schedule",
                entry.id
            );
        }
        compared += 1;
    }
    assert_eq!(compared, 4, "expected E1, E2, E4, E5 to be executable");
}

#[test]
fn dsl_examples_agree_across_engines() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/dsl");
    let mut seen = 0;
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples/dsl exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "mdf"))
        .collect();
    entries.sort();
    for path in entries {
        let src = std::fs::read_to_string(&path).expect("readable example");
        let p =
            mdfusion::ir::parse_program(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            assert_engines_agree(&p, 12, 10),
            "{}: example must plan to a fused schedule",
            path.display()
        );
        seen += 1;
    }
    assert!(seen >= 5, "expected at least 5 DSL examples, found {seen}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random programs through the whole pipeline: whenever the planner
    /// fuses, all engines agree on the final memory image.
    #[test]
    fn random_programs_agree_across_engines(seed in 0u64..1u64 << 48, loops in 2usize..5) {
        let cfg = ProgramGenConfig {
            loops,
            reads_per_loop: 1 + (seed % 3) as usize,
            max_offset: 2,
            self_read_probability: 0.3,
        };
        let p = random_program(seed, &cfg);
        if let Ok(x) = extract_mldg(&p) {
            // Degraded plans are fine for random inputs; fused ones must
            // agree. Use plan_fusion's typed result via the same path.
            let fused = matches!(
                mdfusion::core::plan_fusion_budgeted(&x.graph, &mdfusion::core::Budget::unlimited())
                    .map(|r| r.plan),
                Ok(DegradedPlan::Fused(_))
            );
            if fused {
                prop_assert!(assert_engines_agree(&p, 6, 6));
            }
        }
    }

    /// The descending row order the planner never emits is still a valid
    /// serialization for full-parallel plans: certified row-DOALL means
    /// any intra-row order works, and the kernel must match it too.
    #[test]
    fn row_doall_plans_are_order_insensitive(seed in 0u64..1u64 << 32) {
        let cfg = ProgramGenConfig {
            loops: 3,
            reads_per_loop: 2,
            max_offset: 1,
            self_read_probability: 0.2,
        };
        let p = random_program(seed, &cfg);
        let Ok(x) = extract_mldg(&p) else { return };
        let Ok(plan) = plan_fusion(&x.graph) else { return };
        if !plan.is_full_parallel() {
            return;
        }
        let Some(plan) = align_plan_to_program(&x.graph, &p, &plan) else { return };
        let spec = FusedSpec::new(p.clone(), plan.retiming().offsets().to_vec());
        if plan_mode(&spec, &plan) != ExecMode::RowsCertified {
            return;
        }
        let (asc, _) = run_traversal(&spec, Traversal::Rows(RowOrder::Ascending), 6, 6);
        let (desc, _) = run_traversal(&spec, Traversal::Rows(RowOrder::Descending), 6, 6);
        prop_assert_eq!(asc.fingerprint(), desc.fingerprint());
        let kernel = CompiledKernel::compile(&spec, 6, 6).expect("planned specs compile");
        let (kmem, _) = kernel.run(ExecMode::RowsCertified);
        prop_assert_eq!(kmem.fingerprint(), asc.fingerprint());
    }
}

//! End-to-end integration over the Section 5 experiment suite: planning,
//! independent verification, execution equivalence, synchronization
//! accounting, and baseline comparisons.

use mdfusion::baselines::{direct_fusion, shift_and_peel, DirectPolicy, Partition};
use mdfusion::core::FullParallelMethod;
use mdfusion::gen::suite;
use mdfusion::kernel::{plan_mode, CompiledKernel};
use mdfusion::prelude::*;
use mdfusion::sim;

/// Runs `spec` as the certified compiled kernel on four workers and
/// returns its memory fingerprint.
fn threaded_kernel_fingerprint(spec: &FusedSpec, plan: &FusionPlan, n: i64, m: i64) -> u64 {
    let mode = plan_mode(spec, plan);
    let kernel = CompiledKernel::compile(spec, n, m).expect("planned specs compile");
    kernel.run_with_threads(mode, 4).0.fingerprint()
}

#[test]
fn every_suite_entry_plans_verifies_and_simulates() {
    for entry in suite() {
        let plan = plan_fusion(&entry.graph).unwrap_or_else(|e| panic!("{}: {e}", entry.id));
        verify_plan(&entry.graph, &plan).unwrap_or_else(|e| panic!("{}: {e}", entry.id));
        if let Some(p) = &entry.program {
            let report =
                check_plan(p, &plan, 24, 24).unwrap_or_else(|e| panic!("{}: {e}", entry.id));
            // Full-parallel fusion strictly reduces barriers (one per row
            // instead of one per loop per row). Hyperplane plans trade
            // barrier count for legality: with a steep schedule they can
            // need *more* steps than the unfused original — their value is
            // enabling fusion at all — so only a sanity bound applies.
            if plan.is_full_parallel() {
                assert!(
                    report.fused_barriers < report.original_barriers,
                    "{}: fusion must reduce synchronization ({} -> {})",
                    entry.id,
                    report.original_barriers,
                    report.fused_barriers
                );
            } else {
                assert!(report.fused_barriers > 0);
            }
        }
    }
}

#[test]
fn our_technique_always_fuses_to_one_loop_where_baselines_split() {
    // Direct fusion without retiming leaves >= 2 clusters on every suite
    // entry (they all contain fusion-preventing or parallelism-breaking
    // dependences); the paper's technique always reaches a single fused
    // loop (full-parallel or wavefront).
    for entry in suite() {
        let direct = direct_fusion(&entry.graph, DirectPolicy::PreserveParallelism);
        if let Some(d) = direct {
            assert!(
                d.cluster_count() >= 2,
                "{}: direct fusion unexpectedly fused everything",
                entry.id
            );
        }
        let plan = plan_fusion(&entry.graph).unwrap();
        verify_plan(&entry.graph, &plan).unwrap();
    }
}

#[test]
fn shift_and_peel_comparison_on_e2() {
    // On Figure 2, shift-and-peel fuses but leaves serializing forward
    // dependences covered by a peel of 3; the retiming approach reaches a
    // true DOALL loop with no peel.
    let entry = &suite()[1];
    let sp = shift_and_peel(&entry.graph).expect("figure 2 is alignable");
    assert_eq!(sp.peel, 3);
    assert!(sp.serializing_vectors > 0);
    // Efficiency condition fails once blocks get small: with m = 23 and
    // 8 processors the block width (3) is not greater than the peel (3).
    assert!(sp.efficient_for(127, 8));
    assert!(!sp.efficient_for(23, 8));
    let plan = plan_fusion(&entry.graph).unwrap();
    assert!(plan.is_full_parallel());
}

#[test]
fn planner_method_selection_matches_theory() {
    let kinds: Vec<String> = suite()
        .iter()
        .map(|e| match plan_fusion(&e.graph).unwrap() {
            FusionPlan::FullParallel {
                method: FullParallelMethod::Acyclic,
                ..
            } => format!("{}:alg3", e.id),
            FusionPlan::FullParallel {
                method: FullParallelMethod::Cyclic,
                ..
            } => format!("{}:alg4", e.id),
            FusionPlan::Hyperplane { .. } => format!("{}:alg5", e.id),
        })
        .collect();
    assert_eq!(
        kinds,
        vec!["E1:alg3", "E2:alg4", "E3:alg5", "E4:alg4", "E5:alg5"]
    );
}

#[test]
fn machine_model_fusion_wins_grow_with_barrier_cost() {
    let entry = &suite()[1]; // E2 = Figure 2
    let p = entry.program.as_ref().unwrap();
    let plan = plan_fusion(&entry.graph).unwrap();
    let spec = FusedSpec::new(p.clone(), plan.retiming().offsets().to_vec());
    let (n, m) = (128, 128);
    let mut last_speedup = 0.0;
    for barrier_cost in [1.0, 8.0, 64.0, 512.0] {
        let mp = MachineParams {
            processors: 8,
            barrier_cost,
            stmt_cost: 1.0,
        };
        let orig = sim::makespan_original(p, n, m, &mp);
        let fused = sim::makespan_fused_rows(&spec, n, m, &mp);
        let s = sim::speedup(&orig, &fused);
        assert!(
            s >= last_speedup,
            "speedup should grow with barrier cost: {s} after {last_speedup}"
        );
        last_speedup = s;
    }
    assert!(last_speedup > 3.0);
}

#[test]
fn dynamic_doall_checks_match_static_claims() {
    for entry in suite() {
        let Some(p) = &entry.program else { continue };
        let plan = plan_fusion(&entry.graph).unwrap();
        let spec = FusedSpec::new(p.clone(), plan.retiming().offsets().to_vec());
        match &plan {
            FusionPlan::FullParallel { .. } => {
                sim::check_rows_doall(&spec, 16, 16)
                    .unwrap_or_else(|v| panic!("{}: {v:?}", entry.id));
            }
            FusionPlan::Hyperplane { wavefront, .. } => {
                sim::check_hyperplanes_doall(&spec, *wavefront, 16, 16)
                    .unwrap_or_else(|v| panic!("{}: {v:?}", entry.id));
            }
        }
    }
}

#[test]
fn rayon_execution_matches_for_all_runnable_entries() {
    for entry in suite() {
        let Some(p) = &entry.program else { continue };
        let plan = plan_fusion(&entry.graph).unwrap();
        let spec = FusedSpec::new(p.clone(), plan.retiming().offsets().to_vec());
        let (reference, _) = run_original(p, 20, 20);
        assert_eq!(
            threaded_kernel_fingerprint(&spec, &plan, 20, 20),
            reference.fingerprint(),
            "{}",
            entry.id
        );
    }
}

#[test]
fn unfused_partition_accounting() {
    let entry = &suite()[0]; // E1 = Figure 8, 7 loops
    let unfused = Partition::unfused(&entry.graph);
    assert_eq!(unfused.cluster_count(), 7);
    assert_eq!(unfused.sync_count(99), 700);
}

#[test]
fn distribute_then_fuse_pipeline() {
    // The Kennedy–McKinley-style pipeline with the paper's fusion step:
    // maximal distribution gives one node per statement, then retiming
    // fuses everything back into one DOALL loop — and the distributed
    // program must compute the same results as the original after fusion.
    use mdfusion::ir::transform::distribute;
    let original = mdfusion::ir::samples::figure2_program();
    let distributed = distribute(&original);
    assert_eq!(distributed.loops.len(), 5);
    let g = extract_mldg(&distributed).unwrap().graph;
    let plan = plan_fusion(&g).unwrap();
    assert!(plan.is_full_parallel(), "still a single DOALL loop");
    verify_plan(&g, &plan).unwrap();
    let report = check_plan(&distributed, &plan, 16, 16).unwrap();
    // 5 loops x 17 iterations unfused; one barrier per fused row after.
    assert_eq!(report.original_barriers, 5 * 17);
    assert!(report.fused_barriers <= 19);
    // The distributed+fused results agree with the *original* program too.
    let spec = FusedSpec::new(distributed.clone(), plan.retiming().offsets().to_vec());
    let (fused_mem, _) = run_fused(&spec, 16, 16);
    let (orig_mem, _) = run_original(&original, 16, 16);
    assert_eq!(fused_mem, orig_mem);
}

#[test]
fn extended_kernels_plan_and_verify_end_to_end() {
    use mdfusion::core::FusionPlan;
    for (name, p) in mdfusion::ir::samples::extended_samples() {
        let g = extract_mldg(&p)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .graph;
        let plan = plan_fusion(&g).unwrap_or_else(|e| panic!("{name}: {e}"));
        verify_plan(&g, &plan).unwrap_or_else(|e| panic!("{name}: {e}"));
        check_plan(&p, &plan, 20, 20).unwrap_or_else(|e| panic!("{name}: {e}"));
        match (name, &plan) {
            // The ADI pass's A->B hard edge sits on a cycle with no outer
            // weight to spare: hyperplane required.
            ("adi_pass", FusionPlan::Hyperplane { .. }) => {}
            ("conv_chain", _) => {}
            other => panic!("unexpected plan for {other:?}"),
        }
        // Threaded execution for whichever model the plan certifies.
        let spec = FusedSpec::new(p.clone(), plan.retiming().offsets().to_vec());
        let (reference, _) = run_original(&p, 20, 20);
        assert_eq!(
            threaded_kernel_fingerprint(&spec, &plan, 20, 20),
            reference.fingerprint(),
            "{name}"
        );
    }
}

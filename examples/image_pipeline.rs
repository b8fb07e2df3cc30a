//! An image-processing pipeline (experiment E4): blur, edge-detect,
//! sharpen, accumulate — the multi-loop shape the paper's introduction
//! motivates — fused with full parallelism, and compared against the
//! published baselines.
//!
//! ```text
//! cargo run --example image_pipeline
//! ```

use mdfusion::baselines::{direct_fusion, shift_and_peel, DirectPolicy, Partition};
use mdfusion::kernel::{plan_mode, CompiledKernel};
use mdfusion::prelude::*;
use mdfusion::{ir, sim};

fn main() {
    let program = ir::samples::image_pipeline_program();
    let extracted = extract_mldg(&program).unwrap();
    let g = &extracted.graph;

    println!("== {} ==\n{:?}\n", program.name, g);

    // Our technique: Algorithm 4 finds a DOALL fused loop despite the hard
    // edge A -> B and the fusion-preventing dependence B -> C.
    let plan = plan_fusion(g).unwrap();
    verify_plan(g, &plan).unwrap();
    assert!(plan.is_full_parallel());
    println!("retiming: {}", plan.retiming().display(g));

    let (n, m) = (256, 256);
    let report = check_plan(&program, &plan, n, m).unwrap();
    println!(
        "verified on a {}x{} image: {} -> {} synchronizations\n",
        n + 1,
        m + 1,
        report.original_barriers,
        report.fused_barriers
    );

    // Baseline 1: no fusion.
    let unfused = Partition::unfused(g);
    // Baseline 2: direct greedy fusion (no retiming).
    let direct = direct_fusion(g, DirectPolicy::PreserveParallelism).unwrap();
    // Baseline 3: shift-and-peel.
    let sp = shift_and_peel(g).unwrap();

    println!("== synchronizations per outer iteration ==");
    println!("  no fusion          : {}", unfused.cluster_count());
    println!(
        "  direct fusion      : {} (refuses across the (0,-2) dependence)",
        direct.cluster_count()
    );
    println!(
        "  shift-and-peel     : 1 fused loop + peel of {} per block boundary",
        sp.peel
    );
    println!("  this paper (Alg 4) : 1, fully parallel\n");

    // Machine-model sweep over processor counts.
    let spec = FusedSpec::new(program.clone(), plan.retiming().offsets().to_vec());
    println!("== predicted total cost vs processors (machine model) ==");
    println!(
        "{:>6} {:>12} {:>12} {:>9}",
        "procs", "unfused", "fused", "speedup"
    );
    for p in [1u64, 2, 4, 8, 16, 32] {
        let mp = MachineParams {
            processors: p,
            ..MachineParams::default()
        };
        let orig = sim::makespan_original(&program, n, m, &mp);
        let fused = sim::makespan_fused_rows(&spec, n, m, &mp);
        println!(
            "{:>6} {:>12.0} {:>12.0} {:>8.2}x",
            p,
            orig.total,
            fused.total,
            sim::speedup(&orig, &fused)
        );
    }

    // And prove the DOALL certificate on real threads.
    let mode = plan_mode(&spec, &plan);
    let kernel = CompiledKernel::compile(&spec, n, m).expect("the planned spec compiles");
    let (par, _) = kernel.run_with_threads(mode, 4);
    let (reference, _) = run_original(&program, n, m);
    assert_eq!(par.fingerprint(), reference.fingerprint());
    println!("\nthreaded kernel ({mode:?}) matches the original bit for bit");
}

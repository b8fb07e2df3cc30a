//! What supervision costs: figure2 run through the one barrier driver
//! under a retrying policy (`RetryPolicy::deterministic`, what `mdfused`
//! runs) and under the one-attempt policy every plain and budgeted run
//! uses (`RetryPolicy::once`), on both engines, at 24², 64², 256² and
//! 512², on one worker.
//!
//! ```text
//! cargo run --release --example supervision_cost
//! ```
//!
//! Each repetition times one run under each policy back to back,
//! alternating which goes first; the table prints the median of each and
//! their ratio (at least 9 repetitions per row, more on small grids).
//! `snapshots` is the number of images the driver copied into its base
//! (the same under both policies: the copy rule depends only on the plan
//! and the shape), and `instances / cells` bounds it from above (plus
//! one).

use std::time::Instant;

use mdfusion::kernel::{plan_mode, CompiledKernel};
use mdfusion::prelude::*;
use mdfusion::sim::{
    run_traversal_supervised, RetryPolicy, Snapshot, SupervisedOutcome, Traversal,
};

const GRIDS: [i64; 4] = [24, 64, 256, 512];

/// Repetitions per row: enough for a steady median where one run takes
/// microseconds, and never fewer than 9.
fn repetitions(n: i64) -> usize {
    match n {
        24 => 301,
        64 => 101,
        256 => 15,
        _ => 11,
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Times [`repetitions`] alternating pairs of `drive` under the
/// one-attempt and the retrying policy and prints one table row. Both
/// runs must complete with the same image.
fn row<M: Snapshot>(
    engine: &str,
    n: i64,
    cells: u64,
    mut drive: impl FnMut(&RetryPolicy) -> SupervisedOutcome<M>,
) {
    let (once, retrying) = (RetryPolicy::once(), RetryPolicy::deterministic());
    let mut complete = |policy: &RetryPolicy| match drive(policy) {
        SupervisedOutcome::Complete {
            mem,
            stats,
            recovery,
        } => (mem.digest(), stats, recovery),
        SupervisedOutcome::Partial { cause, .. } => panic!("fault-free run ended partial: {cause}"),
    };
    let (want, stats, recovery) = complete(&once);
    let (got, _, _) = complete(&retrying);
    assert_eq!(got, want, "{engine} {n}²: the two policies' runs diverged");
    let (mut o, mut r) = (Vec::new(), Vec::new());
    for rep in 0..repetitions(n) {
        let mut time = |policy: &RetryPolicy, samples: &mut Vec<f64>| {
            let t = Instant::now();
            complete(policy);
            samples.push(ms(t));
        };
        if rep % 2 == 0 {
            time(&once, &mut o);
            time(&retrying, &mut r);
        } else {
            time(&retrying, &mut r);
            time(&once, &mut o);
        }
    }
    let (o, r) = (median(o), median(r));
    println!(
        "| {n}² | {engine} | {} | {} | {:.2} | {:.3} | {:.3} | {:.2}× |",
        stats.barriers,
        recovery.snapshots,
        stats.stmt_instances as f64 / cells as f64,
        o,
        r,
        r / o
    );
}

fn main() {
    let program = mdfusion::ir::samples::figure2_program();
    let extracted = extract_mldg(&program).expect("figure2 extracts");
    let plan = plan_fusion(&extracted.graph).expect("figure2 plans");
    let plan = mdfusion::sim::align_plan_to_program(&extracted.graph, &program, &plan)
        .expect("figure2's plan aligns");
    let spec = FusedSpec::new(program.clone(), plan.retiming().offsets().to_vec());
    let mode = plan_mode(&spec, &plan);
    let traversal = Traversal::of(&plan);

    println!("| grid | engine | barriers | snapshots | instances / cells | once ms | retrying ms | ratio |");
    println!("|---|---|---|---|---|---|---|---|");
    for n in GRIDS {
        let kernel = CompiledKernel::compile(&spec, n, n).expect("figure2 compiles");
        let cells = kernel.layout().cells() as u64;
        row("kernel", n, cells, |policy| {
            let mut meter = Budget::unlimited().meter();
            kernel
                .drive(mode, 1, policy, &mut meter, None)
                .expect("an unlimited meter cannot trip")
        });
        row("interp", n, cells, |policy| {
            let mut meter = Budget::unlimited().meter();
            run_traversal_supervised(&spec, traversal, n, n, &mut meter, policy, None)
                .expect("an unlimited meter cannot trip")
        });
    }
}

//! What supervision costs: figure2's supervised run against its budgeted
//! run, on both engines, at 24², 64², 256² and 512², on one worker.
//!
//! ```text
//! cargo run --release --example supervision_cost
//! ```
//!
//! Each repetition times one budgeted and one supervised run back to back,
//! alternating which goes first; the table prints the median of each and
//! their ratio (at least 9 repetitions per row, more on small grids). The
//! kernel runs as `mdfused` runs it. `snapshots` is the number of images
//! the supervisor copied into its base, and `instances / cells` bounds it
//! from above (plus one).

use std::time::Instant;

use mdfusion::kernel::{plan_mode, CompiledKernel};
use mdfusion::prelude::*;
use mdfusion::sim::{
    run_traversal_budgeted, run_traversal_supervised, ExecStats, RecoveryStats, RetryPolicy,
    RunOutcome, Snapshot, SupervisedOutcome, Traversal,
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

/// A complete supervised run's digest and recovery record.
fn complete<M: Snapshot>(out: SupervisedOutcome<M>) -> (u64, RecoveryStats) {
    match out {
        SupervisedOutcome::Complete { mem, recovery, .. } => (mem.digest(), recovery),
        SupervisedOutcome::Partial { cause, .. } => panic!("fault-free run ended partial: {cause}"),
    }
}

/// Times [`repetitions`] alternating pairs and prints one table row. Both
/// closures return the final image's fingerprint, which must agree.
fn row(
    engine: &str,
    n: i64,
    cells: u64,
    mut budgeted: impl FnMut() -> (u64, ExecStats),
    mut supervised: impl FnMut() -> (u64, RecoveryStats),
) {
    let (want, stats) = budgeted();
    let (got, recovery) = supervised();
    assert_eq!(got, want, "{engine} {n}²: supervised run diverged");
    let (mut b, mut s) = (Vec::new(), Vec::new());
    for rep in 0..repetitions(n) {
        let mut time_budgeted = || {
            let t = Instant::now();
            budgeted();
            b.push(ms(t));
        };
        let mut time_supervised = || {
            let t = Instant::now();
            supervised();
            s.push(ms(t));
        };
        if rep % 2 == 0 {
            time_budgeted();
            time_supervised();
        } else {
            time_supervised();
            time_budgeted();
        }
    }
    let (b, s) = (median(b), median(s));
    println!(
        "| {n}² | {engine} | {} | {} | {:.2} | {:.3} | {:.3} | {:.2}× |",
        stats.barriers,
        recovery.snapshots,
        stats.stmt_instances as f64 / cells as f64,
        b,
        s,
        s / b
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
    let policy = RetryPolicy::deterministic();

    println!("| grid | engine | barriers | snapshots | instances / cells | budgeted ms | supervised ms | ratio |");
    println!("|---|---|---|---|---|---|---|---|");
    for n in GRIDS {
        let kernel = CompiledKernel::compile(&spec, n, n).expect("figure2 compiles");
        let cells = kernel.layout().cells() as u64;
        row(
            "kernel",
            n,
            cells,
            || {
                let (mem, stats) = kernel.run_with_threads(mode, 1);
                (mem.fingerprint(), stats)
            },
            || {
                let mut meter = Budget::unlimited().meter();
                complete(
                    kernel
                        .run_supervised(mode, 1, &policy, &mut meter)
                        .expect("an unlimited meter cannot trip"),
                )
            },
        );
        row(
            "interp",
            n,
            cells,
            || {
                let mut meter = Budget::unlimited().meter();
                let out = run_traversal_budgeted(&spec, traversal, n, n, &mut meter, None)
                    .and_then(RunOutcome::into_complete)
                    .expect("an unlimited meter cannot trip");
                (out.0.fingerprint(), out.1)
            },
            || {
                let mut meter = Budget::unlimited().meter();
                complete(
                    run_traversal_supervised(&spec, traversal, n, n, &mut meter, &policy, None)
                        .expect("an unlimited meter cannot trip"),
                )
            },
        );
    }
}

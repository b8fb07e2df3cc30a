//! Differential suite for the tiled wavefront executor and its barrier
//! elision.
//!
//! Every hyperplane plan the planner emits is also elision-certified
//! (LLOFRA makes every retimed dependence non-negative and Algorithm 5
//! picks `s.y = 1`), so it runs as anti-diagonal tile waves with one
//! barrier per wave instead of one per front. Everything about that path
//! is checked against independent oracles here:
//!
//! * **The invariant** — every hyperplane plan gets the tiled wavefront
//!   mode with a tile plan at the tested shape; a planner or certifier
//!   change that drops one to the serial sweep fails loudly.
//! * **Bit-identity** — tiled execution (planned single-worker, forced
//!   multi-worker, and the adaptive cost-model path) must fingerprint-
//!   match the unfused interpreter, the front-per-barrier wavefront
//!   interpreter, and the serial fallback.
//! * **Barrier accounting** — reported `ExecStats::barriers` must equal
//!   the tile plan's wave count, and that count must equal the number of
//!   syncs the supervised executor *actually* takes (its per-barrier
//!   checkpoints are an independent measurement).
//! * **E5 regression pin** — the full-shape relaxation workload's front,
//!   wave, and elided-barrier counts are pinned to hand-derived values so
//!   the hyperplane regression cannot silently reopen.
//! * **Certificate gating** — a bytecode certificate issued for the tiled
//!   mode must not revalidate for the serial fallback (and vice versa).

use mdfusion::core::{plan_fusion, Budget, FusionPlan};
use mdfusion::gen::{executable_suite, random_program, ProgramGenConfig};
use mdfusion::ir::extract::extract_mldg;
use mdfusion::ir::{FusedSpec, Program};
use mdfusion::kernel::{plan_mode, CompiledKernel, ExecMode, TilePlan};
use mdfusion::sim::{
    align_plan_to_program, run_original, run_wavefront, RetryPolicy, RunOutcome, SupervisedOutcome,
};
use proptest::prelude::*;

/// Plans `p` end to end. `None` when the planner does not reach a fused
/// schedule.
fn artifacts(p: &Program) -> Option<(FusedSpec, FusionPlan, ExecMode)> {
    let graph = extract_mldg(p).ok()?.graph;
    let plan = plan_fusion(&graph).ok()?;
    let plan = align_plan_to_program(&graph, p, &plan)?;
    let spec = FusedSpec::new(p.clone(), plan.retiming().offsets().to_vec());
    let mode = plan_mode(&spec, &plan);
    Some((spec, plan, mode))
}

/// Compiles `p` at `(n, m)` and, when the planner reaches a hyperplane
/// plan, asserts that it tiles and checks the whole contract above.
/// Returns `false` when the planner degraded or chose full parallelism.
fn assert_tiled_agrees(p: &Program, n: i64, m: i64) -> bool {
    let Some((spec, plan, mode)) = artifacts(p) else {
        return false;
    };
    let FusionPlan::Hyperplane { wavefront, .. } = &plan else {
        return false;
    };
    assert_eq!(
        mode,
        ExecMode::Wavefront {
            schedule: wavefront.schedule
        },
        "{}: a hyperplane plan must be race- and elision-certified",
        p.name
    );
    let kernel = CompiledKernel::compile(&spec, n, m).expect("planned specs compile");
    let tp = kernel
        .tile_plan(mode)
        .unwrap_or_else(|| panic!("{}: hyperplane plan must tile at ({n},{m})", p.name));

    // Oracles: the unfused interpreter and the front-per-barrier
    // wavefront interpreter (which must already agree with each other).
    let (omem, ostats) = run_original(p, n, m);
    let (imem, istats) = run_wavefront(&spec, *wavefront, n, m);
    assert_eq!(
        imem.fingerprint(),
        omem.fingerprint(),
        "{}: wavefront interpreter diverged from run_original at ({n},{m})",
        p.name
    );
    assert_eq!(istats.stmt_instances, ostats.stmt_instances, "{}", p.name);

    // Static accounting before any tiled run: the books must balance and
    // elision may only ever *remove* barriers.
    assert_eq!(
        tp.elided(),
        tp.fronts() - tp.waves(),
        "{}: elided must equal fronts - waves",
        p.name
    );
    assert!(tp.waves() >= 1, "{}: at least one wave", p.name);
    assert!(
        tp.fronts() >= istats.barriers,
        "{}: plan fronts cover every interpreter sync",
        p.name
    );
    assert!(
        tp.waves() <= istats.barriers,
        "{}: elision may only remove barriers",
        p.name
    );
    assert_eq!(
        kernel.barrier_count(mode),
        tp.waves(),
        "{}: barrier_count must report post-elision syncs",
        p.name
    );
    // One worker never amortizes a dispatch, so the cost model must mark
    // every wave serial there.
    assert_eq!(tp.serial_waves(1), tp.waves(), "{}", p.name);

    // Tiled execution under the planned single-worker drive, a forced
    // multi-worker drive (exercises the threaded SharedCells path plus
    // the per-wave serial/parallel cost-model decision), and the serial
    // fallback: all bit-identical, and the tiled drives must report
    // exactly one sync per tile wave.
    for (label, threads) in [("single worker", 1usize), ("forced 4 workers", 4)] {
        let (mem, stats) = kernel.run_with_threads(mode, threads);
        assert_eq!(
            mem.fingerprint(),
            omem.fingerprint(),
            "{}: tiled kernel ({label}) diverged at ({n},{m})",
            p.name
        );
        assert_eq!(
            stats.barriers,
            tp.waves(),
            "{}: tiled sync count ({label})",
            p.name
        );
        assert_eq!(
            stats.stmt_instances, istats.stmt_instances,
            "{}: tiled instance count ({label})",
            p.name
        );
    }
    let (smem, _) = kernel.run(ExecMode::RowsSerial);
    assert_eq!(
        smem.fingerprint(),
        omem.fingerprint(),
        "{}: serial fallback diverged at ({n},{m})",
        p.name
    );

    // The budgeted driver (the service path) agrees too.
    let mut meter = Budget::unlimited().meter();
    let (bmem, bstats) = kernel
        .run_budgeted(mode, &mut meter)
        .expect("unlimited budget cannot trip")
        .into_complete()
        .expect("unlimited budget runs to completion");
    assert_eq!(bmem.fingerprint(), omem.fingerprint(), "{}", p.name);
    assert_eq!(bstats.barriers, tp.waves(), "{}", p.name);

    // Actual syncs, measured independently: the supervised executor
    // checkpoints once per barrier, so its checkpoint count is ground
    // truth for how many syncs the tiled drive really performed.
    let policy = RetryPolicy::deterministic();
    let mut meter = Budget::unlimited().meter();
    let out = kernel
        .run_supervised(mode, 4, &policy, &mut meter)
        .expect("supervised run without faults cannot fail");
    let SupervisedOutcome::Complete { mem, recovery, .. } = out else {
        panic!("{}: fault-free supervised run must complete", p.name);
    };
    assert_eq!(mem.fingerprint(), omem.fingerprint(), "{}", p.name);
    assert_eq!(
        recovery.checkpoints_taken,
        tp.waves(),
        "{}: reported barriers must equal actual post-elision syncs",
        p.name
    );
    true
}

#[test]
fn suite_workloads_tile_and_agree_with_the_untiled_oracles() {
    let mut tiled = Vec::new();
    for entry in executable_suite() {
        let p = entry.program.expect("executable suite has programs");
        for (n, m) in [(9, 8), (16, 16), (48, 33)] {
            if assert_tiled_agrees(&p, n, m) {
                tiled.push((entry.id, n, m));
            }
        }
    }
    // E5 (relaxation) is the hyperplane workload; it must take the tiled
    // path at every shape, or the elision license regressed.
    for (n, m) in [(9, 8), (16, 16), (48, 33)] {
        assert!(
            tiled.contains(&("E5", n, m)),
            "E5 at ({n},{m}) no longer tiles; got {tiled:?}"
        );
    }
}

#[test]
fn dsl_examples_tile_where_planned_and_agree() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/dsl");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples/dsl exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "mdf"))
        .collect();
    entries.sort();
    let mut tiled = 0;
    for path in entries {
        let src = std::fs::read_to_string(&path).expect("readable example");
        let p =
            mdfusion::ir::parse_program(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if assert_tiled_agrees(&p, 12, 10) {
            tiled += 1;
        }
    }
    assert!(
        tiled >= 1,
        "at least one DSL example (relaxation) must take the tiled path"
    );
}

/// Plans E5 at its benchmark shape and returns the kernel with its mode
/// and tile plan.
fn e5_full_shape() -> (Program, CompiledKernel, ExecMode, TilePlan) {
    let entry = executable_suite()
        .into_iter()
        .find(|e| e.id == "E5")
        .expect("E5 is executable");
    let p = entry.program.expect("executable suite has programs");
    let (spec, _, mode) = artifacts(&p).expect("E5 plans");
    let kernel = CompiledKernel::compile(&spec, 192, 192).expect("E5 compiles");
    let tp = kernel.tile_plan(mode).expect("E5 tiles");
    (p, kernel, mode, tp)
}

/// The hand-derived E5 pin at the benchmark shape (192, 192): the
/// planned schedule is s = (3, 1) with retiming [(0,0), (0,-1)], so the
/// front index spans t in [-1, 768] — 770 fronts — while the unfused
/// program syncs 2 loops x 193 rows = 386 times. The deterministic tile
/// plan cuts that into ceil(770/96) x ceil(193/12) = 9 x 17 bands, i.e.
/// 9 + 17 - 1 = 25 anti-diagonal waves: 745 of the 770 front barriers
/// are elided. These numbers are what BENCH_fusion.json's barrier block
/// reports; if any of them drift, the benchmark and this pin fail
/// together.
#[test]
fn e5_full_shape_barrier_pin() {
    let (p, kernel, mode, tp) = e5_full_shape();
    assert_eq!(tp.fronts(), 770, "E5 front count");
    assert_eq!(tp.waves(), 25, "E5 tile-wave count");
    assert_eq!(tp.elided(), 745, "E5 elided barriers");
    assert_eq!(tp.tiles(), 9 * 17, "E5 tile count");
    assert_eq!(kernel.barrier_count(mode), 25);

    // Cost model at the full shape: everything is serial on one worker,
    // but four workers must find parallel waves (the wide middle
    // diagonals clear SERIAL_WAVE_CELLS) — E5's thread scaling depends
    // on it.
    assert_eq!(tp.serial_waves(1), 25);
    assert!(
        tp.serial_waves(4) < 25,
        "E5 at full shape must parallelize some waves on 4 workers, \
         got {} serial of 25",
        tp.serial_waves(4)
    );

    // The unfused oracle syncs 386 times; the tiled kernel syncs 25 and
    // still fingerprints identically.
    let (omem, ostats) = run_original(&p, 192, 192);
    assert_eq!(ostats.barriers, 386, "E5 unfused sync count");
    let (kmem, kstats) = kernel.run_with_threads(mode, 4);
    assert_eq!(kmem.fingerprint(), omem.fingerprint());
    assert_eq!(kstats.barriers, 25);
}

/// The mdf-trace counters for the tiled path are derived from the same
/// deterministic plan the executor drives, so a traced run must report
/// exactly the plan's numbers — at the planned thread count, and with
/// the serial-front counter tracking the cost model's per-thread-count
/// decisions.
#[test]
fn traced_counters_match_the_tile_plan() {
    use mdfusion::trace::{MemorySink, Tracer};
    use std::sync::Arc;

    let (_, kernel, mode, tp) = e5_full_shape();
    for threads in [1usize, 4] {
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::new(sink.clone());
        let span = tracer.span("tiled-run");
        let (_, stats) = kernel.run_with_threads_traced(mode, threads, &span);
        span.finish();
        let profile = sink.profile().expect("one finished span");
        assert_eq!(profile.counter_total("kernel.barriers"), stats.barriers);
        assert_eq!(profile.counter_total("wavefront.tiles"), tp.tiles());
        assert_eq!(
            profile.counter_total("wavefront.elided_barriers"),
            tp.elided()
        );
        assert_eq!(
            profile.counter_total("wavefront.serial_fronts"),
            tp.serial_waves(threads),
            "serial-front counter must follow the cost model at {threads} workers"
        );
    }
}

/// Elision changes the bytecode contract (one machine step spans a whole
/// tile wave), so a certificate issued for the tiled mode must never arm
/// the serial fallback of the same kernel, nor the reverse: the cert
/// records the VM mode and revalidation checks it.
#[test]
fn elision_certificates_do_not_transfer_across_modes() {
    let (_, kernel, tiled_mode, _) = e5_full_shape();
    assert!(
        matches!(tiled_mode, ExecMode::Wavefront { .. }),
        "E5 must plan a wavefront, got {tiled_mode:?}"
    );
    let serial_mode = ExecMode::RowsSerial;

    let mut armed = kernel.clone();
    let tiled_cert = armed.arm(tiled_mode).expect("tiled E5 verifies");
    assert!(armed.is_armed(tiled_mode));
    let serial_cert = armed.arm(serial_mode).expect("serial E5 verifies");

    // Same kernel, opposite modes: both replays must be rejected.
    let mut fresh = kernel.clone();
    assert!(
        !fresh.arm_with_cert(serial_mode, tiled_cert),
        "tiled cert must not arm the serial fallback"
    );
    assert!(!fresh.is_armed(serial_mode));
    assert!(
        !fresh.arm_with_cert(tiled_mode, serial_cert),
        "serial cert must not arm the tiled mode"
    );
    assert!(!fresh.is_armed(tiled_mode));

    // The legitimate replay (same mode, same lowered image) still works,
    // and armed tiled execution stays bit-identical to checked.
    assert!(fresh.arm_with_cert(tiled_mode, tiled_cert));
    let (amem, astats) = fresh.run_with_threads(tiled_mode, 4);
    let (cmem, cstats) = kernel.run_with_threads(tiled_mode, 4);
    assert_eq!(amem.fingerprint(), cmem.fingerprint());
    assert_eq!(astats, cstats);
}

/// A deadline injected at a tile-wave boundary must leave a checkpoint
/// whose resume is bit-identical — the tiled analogue of
/// `chaos_recovery.rs`, pinned here for the elided path specifically.
#[test]
fn tiled_runs_interrupted_at_every_wave_resume_bit_identically() {
    use mdfusion::chaos::{FaultKind, FaultPlan};

    let entry = executable_suite()
        .into_iter()
        .find(|e| e.id == "E5")
        .expect("E5 is executable");
    let p = entry.program.expect("executable suite has programs");
    let (spec, _, mode) = artifacts(&p).expect("E5 plans");
    // Small enough that sweeping every wave stays cheap, large enough
    // for a multi-wave tile grid.
    let kernel = CompiledKernel::compile(&spec, 48, 48).expect("E5 compiles");
    let tp = kernel.tile_plan(mode).expect("E5 tiles at (48,48)");
    assert!(tp.waves() > 1, "need at least two waves to interrupt");

    let (want_mem, want_stats) = kernel.run_with_threads(mode, 1);
    assert_eq!(want_stats.barriers, tp.waves());
    for b in 1..=tp.waves() {
        let guard = FaultPlan::single("kernel.barrier", FaultKind::DeadlineExpiry, b).arm();
        let mut meter = Budget::unlimited().with_chaos().meter();
        let out = kernel
            .run_budgeted(mode, &mut meter)
            .expect("injected deadline is a partial result, not an error");
        let RunOutcome::Partial {
            mem, checkpoint, ..
        } = out
        else {
            panic!("deadline at wave {b} must stop the run");
        };
        assert_eq!(guard.injected(), 1);
        assert_eq!(checkpoint.completed_barriers, b - 1);
        drop(guard);

        let mut clean = Budget::unlimited().meter();
        let (rmem, rstats) = kernel
            .resume_budgeted(mode, mem, checkpoint, &mut clean)
            .expect("resume plans within budget")
            .into_complete()
            .expect("clean resume runs to completion");
        assert_eq!(
            rmem.fingerprint(),
            want_mem.fingerprint(),
            "resumed fingerprint diverged (wave {b})"
        );
        assert_eq!(rstats, want_stats, "resumed counters (wave {b})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random programs: whenever the planner reaches a hyperplane, it must
    /// be elision-certified and tile, and the tiled executor must pass the
    /// full differential contract (fingerprints, barrier accounting,
    /// supervised sync count).
    #[test]
    fn random_tiled_programs_agree(seed in 0u64..1u64 << 48, loops in 2usize..9) {
        let cfg = ProgramGenConfig {
            loops,
            reads_per_loop: 1 + (seed % 3) as usize,
            max_offset: 2,
            self_read_probability: 0.3,
        };
        let p = random_program(seed, &cfg);
        // Returns false for full-parallel plans — the assertion work only
        // happens on the hyperplane subset, which is the point.
        assert_tiled_agrees(&p, 17, 13);
    }
}

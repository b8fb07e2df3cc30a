//! `mdfuse fuzz` — a differential fuzzing harness for the whole pipeline.
//!
//! Each case generates a random workload (a legal cyclic 2LDG, an acyclic
//! 2LDG, a graph with a planted negative cycle, or a random program pushed
//! through the parse → extract front end), plans fusion under a budget,
//! independently verifies the plan, and — when the graph realizes as an
//! executable program — runs the fused schedule against the reference
//! interpreter and compares final memory images. Infeasible cases must
//! come back with a *valid* negative-cycle witness (the reported weight is
//! recomputed from the graph). Every case runs under `catch_unwind`, so a
//! panic anywhere in the pipeline is a reported failure, not a crash.
//!
//! Failures are shrunk greedily — drop one node or one edge at a time
//! while the failure still reproduces — and reported as a minimized
//! reproducer in the MLDG text format, ready to feed back into
//! `mdfuse analyze`.
//!
//! The test-only hook `--inject-broken-retiming` perturbs each plan's
//! retiming before the differential run; the harness then *must* catch
//! the corruption in at least one case, which exercises the entire
//! detection + shrinking path end to end.
//!
//! Every planned case additionally replays under a seeded single-fault
//! [`mdf_chaos::FaultPlan`] (a worker panic, a deadline report, or an
//! allocation refusal at a kernel site) through the supervising executor:
//! the recovered run must be bit-identical to the uninterrupted one — a
//! fourth, fault-tolerance oracle on top of the three differential ones.
//!
//! The fifth oracle surface is the `mdfused` wire protocol
//! (`mdf_service::proto`): each frame case encodes a seeded random
//! request/response, round-trips it (decode must reproduce the message
//! exactly), then applies a batch of byte-level mutations — bit flips,
//! truncations, length-prefix corruption, payload extension — and feeds
//! the result to the decoders. Every mutation must land as either a
//! clean decode of *some* message or a typed `ProtoError`; a panic (or
//! an allocation driven by a hostile length prefix) is a reported
//! failure.
//!
//! The sixth oracle pits the static bytecode verifier against execution:
//! every planned case's lowered kernel must verify in every mode a drive
//! can take, each certificate must revalidate only in its own mode at its
//! own bounds, and a seeded mutation of the lowered image must be
//! rejected with a typed `MDF2xx` diagnostic or pass the drive's bounds
//! proof and run.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use mdf_analyze::{certify_doall, check_certificate, check_fusion_certificate, ParallelMode};
use mdf_chaos::{FaultKind, FaultPlan};
use mdf_core::{plan_fusion_budgeted, DegradedPlan, FusionPlan};
use mdf_gen::{
    program_from_mldg, random_acyclic_mldg, random_infeasible_mldg, random_legal_mldg,
    random_program, GenConfig, ProgramGenConfig,
};
use mdf_graph::mldg::Mldg;
use mdf_graph::{textfmt, Budget, EdgeId, InfeasiblePhase, MdfError, NodeId, WitnessWeight};
use mdf_ir::ast::Program;
use mdf_ir::extract::extract_mldg;
use mdf_ir::retgen::FusedSpec;
use mdf_kernel::{plan_mode as kernel_plan_mode, CompiledKernel, ExecMode};
use mdf_retime::Retiming;
use mdf_sim::{
    align_partial_to_program, align_plan_to_program, check_hyperplanes_doall, check_plan_budgeted,
    check_rows_doall, RetryPolicy, SupervisedOutcome,
};

use crate::CliError;

/// Simulation bounds for the differential runs: small enough to keep a
/// 200-case run fast, large enough that retiming prologues/epilogues and
/// wavefront schedules are all exercised.
const SIM_N: i64 = 6;
/// Inner-loop bound companion to [`SIM_N`].
const SIM_M: i64 = 6;

/// Options for the `fuzz` subcommand.
pub(crate) struct FuzzOpts {
    /// Number of cases to run (`--cases`).
    pub cases: u64,
    /// Base seed (`--seed`); every case derives its own seed from it.
    pub seed: u64,
    /// Test-only fault injection (`--inject-broken-retiming`).
    pub inject_broken_retiming: bool,
}

impl Default for FuzzOpts {
    fn default() -> Self {
        FuzzOpts {
            cases: 64,
            seed: 0,
            inject_broken_retiming: false,
        }
    }
}

/// splitmix64: decorrelates per-case seeds from the base seed.
fn derive_seed(base: u64, i: u64) -> u64 {
    let mut z = base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn gen_cfg(seed: u64) -> GenConfig {
    GenConfig {
        nodes: 2 + (seed % 6) as usize,
        extra_edges: (seed / 7 % 5) as usize,
        hard_probability: 0.3,
        self_loop_probability: 0.3,
        magnitude: 2,
    }
}

/// Restores the previous panic hook on drop. Cases run under
/// `catch_unwind`, so the default hook would spam backtraces for panics
/// the harness handles.
struct QuietPanics {
    #[allow(clippy::type_complexity)]
    prev: Option<Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send + 'static>>,
}

impl QuietPanics {
    fn new() -> Self {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        QuietPanics { prev: Some(prev) }
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            std::panic::set_hook(prev);
        }
    }
}

/// What one fuzz case established.
#[derive(Default)]
struct Verdict {
    /// A full differential execution ran (graph realized as a program).
    differential: bool,
    /// The injected retiming corruption was detected.
    caught: bool,
    /// The graph on which the injection was caught (for the reproducer).
    caught_graph: Option<Mldg>,
}

/// Why one fuzz case failed.
enum CaseError {
    /// The harness's own budget tripped (e.g. `--deadline-ms`): not a
    /// pipeline bug, surfaced as exit 5.
    Budget(MdfError),
    /// A pipeline bug, with an optional minimized MLDG reproducer.
    Fail {
        message: String,
        reproducer: Option<String>,
    },
}

fn fail(message: impl Into<String>) -> CaseError {
    CaseError::Fail {
        message: message.into(),
        reproducer: None,
    }
}

/// Routes an `MdfError` from an honest (non-injected) pipeline stage:
/// budget trips propagate, everything else is a case failure.
fn stage_error(stage: &str, e: MdfError) -> CaseError {
    match e {
        MdfError::BudgetExceeded { .. } => CaseError::Budget(e),
        other => fail(format!("{stage}: {other}")),
    }
}

/// Returns a copy of `plan` with its retiming deliberately corrupted
/// (first offset shifted by one along the inner axis).
fn perturb(plan: &FusionPlan) -> FusionPlan {
    let mut offsets = plan.retiming().offsets().to_vec();
    if let Some(o) = offsets.first_mut() {
        o.y += 1;
    }
    let retiming = Retiming::from_offsets(offsets);
    match plan {
        FusionPlan::FullParallel { method, .. } => FusionPlan::FullParallel {
            retiming,
            method: *method,
        },
        FusionPlan::Hyperplane { wavefront, .. } => FusionPlan::Hyperplane {
            retiming,
            wavefront: *wavefront,
        },
    }
}

/// Plans, verifies, and (when `program` is given) differentially executes
/// one feasible workload. With `inject`, additionally runs the corrupted
/// plan and reports whether the checker caught it.
fn check_feasible(
    g: &Mldg,
    program: Option<&Program>,
    inject: bool,
    seed: u64,
    budget: &Budget,
) -> Result<Verdict, CaseError> {
    let report = plan_fusion_budgeted(g, budget).map_err(|e| stage_error("planner", e))?;
    report
        .verify(g)
        .map_err(|e| fail(format!("plan verification: {e}")))?;

    // Second oracle: the independent certificate checker must agree that
    // the plan's retiming satisfies its algorithm's postconditions.
    let cert = check_certificate(g, &report);
    if mdf_analyze::has_errors(&cert) {
        let msgs: Vec<_> = cert.iter().map(|d| d.message.clone()).collect();
        return Err(fail(format!(
            "static certificate check rejected a verified plan: {}",
            msgs.join("; ")
        )));
    }

    let realized;
    let program = match program {
        Some(p) => Some(p),
        None => {
            realized = program_from_mldg(g, "fuzz");
            realized.as_ref()
        }
    };
    let Some(p) = program else {
        return Ok(Verdict::default());
    };

    let mut verdict = Verdict {
        differential: true,
        ..Verdict::default()
    };

    if let DegradedPlan::Fused(plan) = &report.plan {
        // The plan is indexed by graph node; the (possibly realized)
        // program orders loops textually. Align before executing.
        let aligned = align_plan_to_program(g, p, plan)
            .ok_or_else(|| fail("program is not a loop-per-node realization of the graph"))?;
        let mut meter = budget.meter();
        check_plan_budgeted(p, &aligned, SIM_N, SIM_M, &mut meter)
            .map_err(|e| stage_error("differential run", e))?
            .map_err(|e| fail(format!("differential run: {e}")))?;

        check_static_dynamic_agreement(p, &aligned)?;
        check_kernel_oracle(p, &aligned, budget)?;
        check_chaos_oracle(p, &aligned, seed, budget)?;
        check_bytecode_oracle(p, &aligned, seed)?;

        if inject {
            // Corrupt the graph-indexed plan, then align the corruption,
            // so the static and dynamic detectors see the same fault.
            let broken = perturb(plan);
            let broken_aligned = align_plan_to_program(g, p, &broken)
                .ok_or_else(|| fail("alignment failed for the corrupted plan"))?;
            let mut meter = budget.meter();
            // Only a clean mismatch verdict counts as "caught"; a budget
            // trip mid-run proves nothing about the checker.
            let dynamic_caught = matches!(
                check_plan_budgeted(p, &broken_aligned, SIM_N, SIM_M, &mut meter),
                Ok(Err(_))
            );
            // The static passes form an independent detector: either the
            // certificate checker rejects the corrupted retiming against
            // the raw graph, or the race certifier finds a conflict.
            let broken_spec =
                FusedSpec::new(p.clone(), broken_aligned.retiming().offsets().to_vec());
            let static_caught = mdf_analyze::has_errors(&check_fusion_certificate(g, &broken))
                || !certify_doall(&broken_spec, plan_mode(&broken)).is_certified();
            if dynamic_caught || static_caught {
                verdict.caught = true;
                verdict.caught_graph = Some(g.clone());
            }
        }
    } else if let DegradedPlan::Partial(plan) = &report.plan {
        let aligned = align_partial_to_program(g, p, plan)
            .ok_or_else(|| fail("program is not a loop-per-node realization of the graph"))?;
        let mut meter = budget.meter();
        mdf_sim::check_partial_budgeted(p, &aligned, SIM_N, SIM_M, &mut meter)
            .map_err(|e| stage_error("partitioned run", e))?
            .map_err(|e| fail(format!("partitioned run: {e}")))?;
    }
    Ok(verdict)
}

/// Third oracle: the compiled kernel (`mdf-kernel`) must reproduce the
/// reference interpreter's memory image bit for bit — same fingerprint,
/// same statement-instance count — on every planned case, in whatever
/// execution mode the race certificate licenses for the plan.
fn check_kernel_oracle(p: &Program, plan: &FusionPlan, budget: &Budget) -> Result<(), CaseError> {
    let spec = FusedSpec::new(p.clone(), plan.retiming().offsets().to_vec());
    let kernel = CompiledKernel::compile(&spec, SIM_N, SIM_M)
        .map_err(|e| fail(format!("kernel compile: {e}")))?;
    let mode = kernel_plan_mode(&spec, plan);
    let mut meter = budget.meter();
    let (kmem, kstats) = kernel
        .run_budgeted(mode, &mut meter)
        .and_then(SupervisedOutcome::into_complete)
        .map_err(|e| stage_error("kernel run", e))?;
    let (imem, istats) = mdf_sim::run_original(p, SIM_N, SIM_M);
    if kmem.fingerprint() != imem.fingerprint() {
        return Err(fail(format!(
            "kernel oracle: memory fingerprint mismatch in mode {mode:?} \
             (kernel {:#x}, interpreter {:#x})",
            kmem.fingerprint(),
            imem.fingerprint()
        )));
    }
    if kstats.stmt_instances != istats.stmt_instances {
        return Err(fail(format!(
            "kernel oracle: instance count mismatch in mode {mode:?} \
             (kernel {}, interpreter {})",
            kstats.stmt_instances, istats.stmt_instances
        )));
    }
    Ok(())
}

/// Fourth oracle: replay the planned case under one seeded injected fault
/// — a worker panic, a deadline report, or an allocation refusal at a
/// kernel site — through the supervising executor. Recovery must finish
/// bit-identical to the uninterrupted kernel run with identical counters;
/// a fault that fires without a retry, a divergent image, or an
/// exhausted-retries partial report is a case failure.
fn check_chaos_oracle(
    p: &Program,
    plan: &FusionPlan,
    seed: u64,
    budget: &Budget,
) -> Result<(), CaseError> {
    let spec = FusedSpec::new(p.clone(), plan.retiming().offsets().to_vec());
    let kernel = CompiledKernel::compile(&spec, SIM_N, SIM_M)
        .map_err(|e| fail(format!("chaos replay compile: {e}")))?;
    let mode = kernel_plan_mode(&spec, plan);
    let (bmem, bstats) = kernel.run_with_threads(mode, 1);

    let total = kernel.barrier_count(mode).max(1);
    let (site, kind) = match (seed >> 8) % 4 {
        0 => ("kernel.barrier", FaultKind::DeadlineExpiry),
        1 => ("kernel.barrier", FaultKind::WorkerPanic),
        2 => ("kernel.chunk.mid", FaultKind::WorkerPanic),
        _ => ("kernel.alloc", FaultKind::AllocRefusal),
    };
    // A trigger past the site's hit count simply never fires — that case
    // degenerates to a clean supervised run, which must also match.
    let trigger = if site == "kernel.alloc" {
        1
    } else {
        1 + (seed >> 16) % total
    };
    let guard = FaultPlan::single(site, kind, trigger).arm();
    let mut meter = budget.with_chaos().meter();
    let out = kernel
        .run_supervised(mode, 1, &RetryPolicy::deterministic(), &mut meter)
        .map_err(|e| stage_error("chaos replay", e));
    let injected = guard.injected();
    drop(guard);
    match out? {
        SupervisedOutcome::Complete {
            mem,
            stats,
            recovery,
        } => {
            if mem.fingerprint() != bmem.fingerprint() {
                return Err(fail(format!(
                    "chaos replay: recovered fingerprint {:#x} diverged from {:#x} \
                     ({site}/{} trigger {trigger})",
                    mem.fingerprint(),
                    bmem.fingerprint(),
                    kind.name()
                )));
            }
            if stats != bstats {
                return Err(fail(format!(
                    "chaos replay: recovered counters {stats:?} diverged from {bstats:?} \
                     ({site}/{} trigger {trigger})",
                    kind.name()
                )));
            }
            if injected > 0 && recovery.retries == 0 {
                return Err(fail(format!(
                    "chaos replay: the fault fired ({site}/{} trigger {trigger}) \
                     but the supervisor recorded no retry",
                    kind.name()
                )));
            }
            Ok(())
        }
        // A single spent fault cannot exhaust the retry ladder: a partial
        // outcome is only legitimate when the caller's own deadline keeps
        // tripping, which is a budget condition, not a pipeline bug.
        SupervisedOutcome::Partial { cause, .. } => match cause {
            e @ MdfError::BudgetExceeded { .. } => Err(CaseError::Budget(e)),
            e => Err(fail(format!(
                "chaos replay: retries exhausted on a single injected fault \
                 ({site}/{} trigger {trigger}): {e}",
                kind.name()
            ))),
        },
    }
}

/// Sixth oracle: the static bytecode verifier against execution. Three
/// checks. The planner's own bytecode must verify in every mode a drive
/// can take (the planned one and the serial fallback): it is
/// certifiable by construction. Each certificate must revalidate only on
/// its own machine mode at its own bounds. And a seeded single mutation
/// of the lowered image must either be rejected with a typed `MDF2xx`
/// diagnostic or, when the verifier vouches for it, pass the drive's own
/// bounds proof and run to completion without a panic. A verifier that
/// is too strict fails the first check; one that is laxer than the
/// bounds proof fails the last.
fn check_bytecode_oracle(p: &Program, plan: &FusionPlan, seed: u64) -> Result<(), CaseError> {
    use mdf_analyze::bytecode::{revalidate, verify};
    let spec = FusedSpec::new(p.clone(), plan.retiming().offsets().to_vec());
    let compile = |n| {
        CompiledKernel::compile(&spec, n, SIM_M)
            .map_err(|e| fail(format!("bytecode oracle compile: {e}")))
    };
    let (honest, other_bounds) = (compile(SIM_N)?, compile(SIM_N + 1)?);
    let mode = kernel_plan_mode(&spec, plan);
    let drives = [mode, ExecMode::RowsSerial];
    for drive in drives {
        let cert = verify(&honest.vm_image(drive)).map_err(|diags| {
            let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
            fail(format!(
                "bytecode oracle: verifier rejected honest planner bytecode \
                 in mode {drive:?}: {codes:?}"
            ))
        })?;
        for (k, at, bounds) in [
            (&honest, mode, SIM_N),
            (&honest, ExecMode::RowsSerial, SIM_N),
            (&other_bounds, drive, SIM_N + 1),
        ] {
            let img = k.vm_image(at);
            let own = bounds == SIM_N && img.mode == cert.mode;
            if revalidate(&cert, &img) != own {
                return Err(fail(format!(
                    "bytecode oracle: a {:?} certificate at ({SIM_N}, {SIM_M}) \
                     {} a {:?} image at ({bounds}, {SIM_M})",
                    cert.mode,
                    if own {
                        "failed to revalidate on"
                    } else {
                        "revalidated on"
                    },
                    img.mode
                )));
            }
        }
    }

    // One seeded perturbation of the lowered image.
    let mut mutant = honest.clone();
    let what = mutate_lowered(&mut mutant, seed);
    match verify(&mutant.vm_image(mode)) {
        Err(diags) => {
            // Rejections must be typed verifier errors, nothing else.
            if diags.is_empty() || !diags.iter().all(|d| d.code.starts_with("MDF2")) {
                let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
                return Err(fail(format!(
                    "bytecode oracle: mutant ({what}) rejected without a \
                     typed MDF2xx diagnostic: {codes:?}"
                )));
            }
            Ok(())
        }
        Ok(_) => {
            let ran = catch_unwind(AssertUnwindSafe(|| {
                rayon::with_workers(1, || {
                    mutant.run_budgeted(mode, &mut Budget::unlimited().meter())
                })
            }));
            match ran {
                Ok(Ok(SupervisedOutcome::Complete { .. })) => Ok(()),
                Ok(Ok(SupervisedOutcome::Partial { cause, .. }) | Err(cause)) => {
                    Err(fail(format!(
                        "bytecode oracle: verifier accepted a mutant ({what}) whose \
                         drive in mode {mode:?} did not complete: {cause}"
                    )))
                }
                Err(_) => Err(fail(format!(
                    "bytecode oracle: verifier accepted a mutant ({what}) \
                     whose run panics in mode {mode:?}"
                ))),
            }
        }
    }
}

/// Applies one seeded perturbation to a kernel's lowered loops and
/// returns a description of what changed.
/// The perturbations target exactly the properties the verifier proves:
/// register discipline, load/store deltas, active ranges, and offsets.
fn mutate_lowered(k: &mut CompiledKernel, seed: u64) -> String {
    use mdf_kernel::Instr;
    let bump = 1 + (seed >> 4) % 3;
    let loops = k.loops_mut();
    let li = (seed >> 2) as usize % loops.len().max(1);
    let Some(cl) = loops.get_mut(li) else {
        return "no loops to mutate".into();
    };
    match (seed >> 7) % 7 {
        0 => {
            cl.rows.hi += bump as i64;
            format!("loop {li} rows.hi += {bump}")
        }
        1 => {
            cl.cols.lo -= bump as i64;
            format!("loop {li} cols.lo -= {bump}")
        }
        2 => {
            cl.offset.x += bump as i64;
            format!("loop {li} offset.x += {bump}")
        }
        3 if !cl.stmts.is_empty() => {
            let si = (seed >> 10) as usize % cl.stmts.len();
            cl.stmts[si].store_delta += bump as isize;
            format!("loop {li} stmt {si} store_delta += {bump}")
        }
        4 | 5 if !cl.stmts.is_empty() => {
            let si = (seed >> 10) as usize % cl.stmts.len();
            let s = &mut cl.stmts[si];
            let ii = (seed >> 13) as usize % s.instrs.len().max(1);
            match s.instrs.get_mut(ii) {
                Some(Instr::Load { delta, .. }) => {
                    *delta += bump as isize;
                    format!("loop {li} stmt {si} instr {ii} load delta += {bump}")
                }
                Some(Instr::Const { dst, .. } | Instr::Neg { dst } | Instr::Bin { dst, .. }) => {
                    *dst = dst.wrapping_add(bump as u16);
                    format!("loop {li} stmt {si} instr {ii} dst += {bump}")
                }
                None => format!("loop {li} stmt {si} has no instrs"),
            }
        }
        _ => {
            cl.cols.hi += bump as i64;
            format!("loop {li} cols.hi += {bump}")
        }
    }
}

/// splitmix64 step for the frame mutator's own byte stream.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds a seeded random protocol request (weighted toward `Submit`,
/// the only variant with interesting structure).
fn random_request(state: &mut u64) -> mdf_service::Request {
    use mdf_service::{Engine, Request, Submit};
    match mix(state) % 6 {
        0 => Request::Ping,
        1 => Request::Stats,
        2 => Request::Shutdown,
        _ => {
            let len = (mix(state) % 64) as usize;
            let source: String = (0..len)
                .map(|_| {
                    // Printable ASCII plus newlines: valid UTF-8 by
                    // construction, shaped like real program text.
                    let c = (mix(state) % 96) as u8;
                    if c == 95 {
                        '\n'
                    } else {
                        (32 + c) as char
                    }
                })
                .collect();
            Request::Submit(Submit {
                engine: if mix(state).is_multiple_of(2) {
                    Engine::Kernel
                } else {
                    Engine::Interp
                },
                n: (mix(state) % 1000) as i64 - 500,
                m: (mix(state) % 1000) as i64 - 500,
                deadline_ms: mix(state) % 100_000,
                client: format!("c{}", mix(state) % 8),
                source,
            })
        }
    }
}

/// Fifth oracle: protocol frame round-trip + mutation robustness. Pure —
/// exercises `mdf_service::proto`'s encoders and decoders directly, no
/// daemon involved.
fn check_frames(seed: u64) -> Result<(), CaseError> {
    use mdf_service::proto::{read_frame, Request, Response};
    let mut state = seed;
    let req = random_request(&mut state);
    let frame = req.encode();

    // Round-trip: the framing layer and decoder must reproduce the
    // message exactly.
    let payload = match read_frame(&mut &frame[..]) {
        Ok(Some(p)) => p,
        other => return Err(fail(format!("encoded frame failed to read: {other:?}"))),
    };
    match Request::decode(&payload) {
        Ok(decoded) if decoded == req => {}
        Ok(decoded) => {
            return Err(fail(format!(
                "frame round-trip changed the message: {req:?} -> {decoded:?}"
            )))
        }
        Err(e) => return Err(fail(format!("encoded frame failed to decode: {e}"))),
    }

    // Mutation batch: every corrupted frame must decode totally — some
    // message, or a typed ProtoError. Never a panic.
    for k in 0..24u64 {
        let mut bytes = frame.clone();
        match mix(&mut state) % 5 {
            0 => {
                // Bit flip anywhere (length prefix included).
                let i = (mix(&mut state) as usize) % bytes.len();
                bytes[i] ^= 1 << (mix(&mut state) % 8);
            }
            1 => {
                // Truncate mid-frame (possibly mid-prefix).
                let cut = (mix(&mut state) as usize) % bytes.len();
                bytes.truncate(cut);
            }
            2 => {
                // Hostile length prefix, up to u32::MAX.
                let claim = (mix(&mut state) as u32).to_le_bytes();
                bytes[..4].copy_from_slice(&claim);
            }
            3 => {
                // Append garbage (trailing bytes past the framed length).
                let extra = (mix(&mut state) % 16) as usize + 1;
                for _ in 0..extra {
                    bytes.push(mix(&mut state) as u8);
                }
            }
            _ => {
                // Overwrite a run of payload bytes with noise.
                if bytes.len() > 5 {
                    let start = 4 + (mix(&mut state) as usize) % (bytes.len() - 4);
                    for b in bytes.iter_mut().skip(start) {
                        *b = mix(&mut state) as u8;
                    }
                }
            }
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // Feed the whole mutated stream through the frame reader and
            // both decoders; all of them must be total.
            let mut cursor = &bytes[..];
            while let Ok(Some(payload)) = read_frame(&mut cursor) {
                let _ = Request::decode(&payload);
                let _ = Response::decode(&payload);
            }
        }));
        if outcome.is_err() {
            return Err(fail(format!(
                "protocol decoder panicked on mutated frame (mutation {k}, bytes {bytes:02x?})"
            )));
        }
    }
    Ok(())
}

/// The parallel interpretation a plan claims for its fused loop.
fn plan_mode(plan: &FusionPlan) -> ParallelMode {
    match plan {
        FusionPlan::FullParallel { .. } => ParallelMode::Rows,
        FusionPlan::Hyperplane { wavefront, .. } => ParallelMode::Hyperplanes(wavefront.schedule),
    }
}

/// Cross-checks the static race certifier against the dynamic DOALL
/// checker on the same fused spec. Any disagreement — a certified spec
/// that races dynamically, or a static witness the dynamic oracle cannot
/// reproduce at the witness's own bounds — is a reported failure.
fn check_static_dynamic_agreement(p: &Program, plan: &FusionPlan) -> Result<(), CaseError> {
    let spec = FusedSpec::new(p.clone(), plan.retiming().offsets().to_vec());
    let mode = plan_mode(plan);
    let dynamic = |spec: &FusedSpec, n: i64, m: i64| match mode {
        ParallelMode::Rows => check_rows_doall(spec, n, m),
        ParallelMode::Hyperplanes(_) => {
            let FusionPlan::Hyperplane { wavefront, .. } = plan else {
                unreachable!("mode and plan agree by construction");
            };
            check_hyperplanes_doall(spec, *wavefront, n, m)
        }
    };
    match certify_doall(&spec, mode) {
        mdf_analyze::RaceVerdict::Certified { .. } => {
            if let Err(v) = dynamic(&spec, SIM_N, SIM_M) {
                return Err(fail(format!(
                    "static/dynamic disagreement: statically certified DOALL, \
                     but the dynamic oracle observed {v:?}"
                )));
            }
        }
        mdf_analyze::RaceVerdict::Race(w) => {
            // The planner's plan must never race; and if the certifier
            // claims one, the dynamic oracle must reproduce it at the
            // witness's own bounds.
            match dynamic(&spec, w.bounds.0, w.bounds.1) {
                Ok(()) => {
                    return Err(fail(format!(
                        "static/dynamic disagreement: static race witness on '{}' \
                         (conflict {}) not reproduced at bounds {:?}",
                        w.array_name, w.conflict, w.bounds
                    )))
                }
                Err(v) => {
                    return Err(fail(format!(
                        "planner produced a racing plan: {v:?} (static conflict {})",
                        w.conflict
                    )))
                }
            }
        }
    }
    Ok(())
}

/// Validates the planner's rejection of a graph with a planted negative
/// cycle: it must return [`MdfError::Infeasible`] and the witness must
/// check out against the graph itself.
fn check_infeasible(g: &Mldg, budget: &Budget) -> Result<(), CaseError> {
    match plan_fusion_budgeted(g, budget) {
        Err(MdfError::Infeasible {
            phase,
            cycle,
            nodes,
            weight,
        }) => validate_witness(g, phase, &cycle, &nodes, weight).map_err(fail),
        Err(e @ MdfError::BudgetExceeded { .. }) => Err(CaseError::Budget(e)),
        Err(e) => Err(fail(format!("expected an infeasibility witness, got: {e}"))),
        Ok(_) => Err(fail(
            "planner accepted a graph with a planted negative cycle",
        )),
    }
}

fn validate_witness(
    g: &Mldg,
    phase: InfeasiblePhase,
    cycle: &[EdgeId],
    nodes: &[String],
    weight: WitnessWeight,
) -> Result<(), String> {
    match weight {
        WitnessWeight::Lex(w) => {
            if cycle.is_empty() || nodes.is_empty() {
                return Err(format!("empty {phase} witness"));
            }
            let sum = g.delta_sum(cycle);
            if sum != w {
                return Err(format!(
                    "witness weight {w} does not match the cycle's delta sum {sum}"
                ));
            }
            if !(w.x < 0 || (w.x == 0 && w.y < 0)) {
                return Err(format!(
                    "witness weight {w} is not lexicographically negative"
                ));
            }
            Ok(())
        }
        WitnessWeight::Scalar(s) => {
            // Scalar phases (OuterX discounts hard edges, InnerY may not
            // map onto MLDG edges at all) only promise a negative weight.
            if s >= 0 {
                return Err(format!("scalar {phase} witness weight {s} is not negative"));
            }
            Ok(())
        }
    }
}

/// Rebuilds `g` without node `drop` (and its incident edges).
fn without_node(g: &Mldg, drop: NodeId) -> Mldg {
    let mut h = Mldg::new();
    let mut map: HashMap<NodeId, NodeId> = HashMap::new();
    for n in g.node_ids() {
        if n != drop {
            map.insert(n, h.add_node(g.label(n)));
        }
    }
    for e in g.edge_ids() {
        let ed = g.edge(e);
        if ed.src != drop && ed.dst != drop {
            h.add_deps(map[&ed.src], map[&ed.dst], g.deps(e).iter());
        }
    }
    h
}

/// Rebuilds `g` without edge `drop`.
fn without_edge(g: &Mldg, drop: EdgeId) -> Mldg {
    let mut h = Mldg::new();
    for n in g.node_ids() {
        h.add_node(g.label(n));
    }
    for e in g.edge_ids() {
        if e != drop {
            let ed = g.edge(e);
            h.add_deps(ed.src, ed.dst, g.deps(e).iter());
        }
    }
    h
}

/// Greedy shrinking: repeatedly drop one node or one edge as long as the
/// failure predicate keeps holding, to a fixed point.
fn shrink(mut g: Mldg, fails: &dyn Fn(&Mldg) -> bool) -> Mldg {
    loop {
        let mut reduced = false;
        for n in g.node_ids() {
            if g.node_count() <= 1 {
                break;
            }
            let h = without_node(&g, n);
            if fails(&h) {
                g = h;
                reduced = true;
                break;
            }
        }
        if !reduced {
            for e in g.edge_ids() {
                let h = without_edge(&g, e);
                if fails(&h) {
                    g = h;
                    reduced = true;
                    break;
                }
            }
        }
        if !reduced {
            return g;
        }
    }
}

/// `true` when the feasible-case check fails (or panics) on `h`. The
/// shrinking predicate for differential/verification failures.
fn feasible_case_fails(h: &Mldg, inject: bool, seed: u64, budget: &Budget) -> bool {
    catch_unwind(AssertUnwindSafe(|| {
        matches!(
            check_feasible(h, None, inject, seed, budget),
            Err(CaseError::Fail { .. })
        )
    }))
    .unwrap_or(true)
}

/// `true` when the planner rejects `h` with an *invalid* witness. The
/// shrinking predicate for witness bugs (a feasible shrunk graph simply
/// no longer triggers the bug, so shrinking stays sound).
fn witness_invalid(h: &Mldg, budget: &Budget) -> bool {
    catch_unwind(AssertUnwindSafe(|| match plan_fusion_budgeted(h, budget) {
        Err(MdfError::Infeasible {
            phase,
            cycle,
            nodes,
            weight,
        }) => validate_witness(h, phase, &cycle, &nodes, weight).is_err(),
        _ => false,
    }))
    .unwrap_or(false)
}

/// `true` when the injected retiming corruption is caught on `h`. The
/// shrinking predicate for the injection reproducer.
fn injection_caught(h: &Mldg, seed: u64, budget: &Budget) -> bool {
    catch_unwind(AssertUnwindSafe(|| {
        matches!(
            check_feasible(h, None, true, seed, budget),
            Ok(Verdict { caught: true, .. })
        )
    }))
    .unwrap_or(false)
}

fn reproducer_text(g: &Mldg) -> String {
    format!(
        "minimized reproducer ({} node(s), {} edge(s)):\n{}",
        g.node_count(),
        g.edge_count(),
        textfmt::to_text(g, "repro")
    )
}

/// Runs one case; `kind` cycles through the five workload classes.
fn run_case(kind: u64, seed: u64, inject: bool, budget: &Budget) -> Result<Verdict, CaseError> {
    let cfg = gen_cfg(seed);
    match kind {
        0 | 1 => {
            let g = if kind == 0 {
                random_legal_mldg(seed, &cfg)
            } else {
                random_acyclic_mldg(seed, &cfg)
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                check_feasible(&g, None, inject, seed, budget)
            }))
            .unwrap_or_else(|payload| {
                Err(fail(format!(
                    "pipeline panicked: {}",
                    crate::panic_message(payload)
                )))
            });
            outcome.map_err(|e| match e {
                CaseError::Fail { message, .. } => {
                    let min = shrink(g.clone(), &|h| feasible_case_fails(h, inject, seed, budget));
                    CaseError::Fail {
                        message,
                        reproducer: Some(reproducer_text(&min)),
                    }
                }
                budget_trip => budget_trip,
            })
        }
        2 => {
            let g = random_infeasible_mldg(seed, &cfg);
            let outcome = catch_unwind(AssertUnwindSafe(|| check_infeasible(&g, budget)))
                .unwrap_or_else(|payload| {
                    Err(fail(format!(
                        "pipeline panicked: {}",
                        crate::panic_message(payload)
                    )))
                });
            outcome.map(|()| Verdict::default()).map_err(|e| match e {
                CaseError::Fail { message, .. } => {
                    // Only witness-validity failures shrink soundly; a
                    // wrongly-accepted graph is reported whole.
                    let min = if witness_invalid(&g, budget) {
                        shrink(g.clone(), &|h| witness_invalid(h, budget))
                    } else {
                        g.clone()
                    };
                    CaseError::Fail {
                        message,
                        reproducer: Some(reproducer_text(&min)),
                    }
                }
                budget_trip => budget_trip,
            })
        }
        3 => {
            let pcfg = ProgramGenConfig {
                loops: 2 + (seed % 3) as usize,
                reads_per_loop: 1 + (seed / 3 % 2) as usize,
                max_offset: 2,
                self_read_probability: 0.25,
            };
            let p = random_program(seed, &pcfg);
            catch_unwind(AssertUnwindSafe(|| program_case(&p, inject, seed, budget)))
                .unwrap_or_else(|payload| {
                    Err(fail(format!(
                        "pipeline panicked on program {:?}: {}",
                        p.name,
                        crate::panic_message(payload)
                    )))
                })
        }
        _ => catch_unwind(AssertUnwindSafe(|| check_frames(seed)))
            .unwrap_or_else(|payload| {
                Err(fail(format!(
                    "frame oracle panicked outside the decoder: {}",
                    crate::panic_message(payload)
                )))
            })
            .map(|()| Verdict::default()),
    }
}

/// The full front-end path: print the program back to DSL, re-parse it,
/// extract the MLDG, then plan + verify + differentially execute.
fn program_case(
    p: &Program,
    inject: bool,
    seed: u64,
    budget: &Budget,
) -> Result<Verdict, CaseError> {
    let src = mdf_ir::pretty::program_to_dsl(p);
    let reparsed = mdf_ir::parse_program(&src)
        .map_err(|e| fail(format!("printed program failed to re-parse: {e}\n{src}")))?;
    if &reparsed != p {
        return Err(fail(format!(
            "program does not round-trip through the DSL printer:\n{src}"
        )));
    }
    let x = extract_mldg(p).map_err(|e| fail(format!("extraction: {e}")))?;
    check_feasible(&x.graph, Some(p), inject, seed, budget)
}

/// Entry point for `mdfuse fuzz`.
pub(crate) fn run(opts: &FuzzOpts, budget: &Budget) -> Result<String, CliError> {
    let _quiet = QuietPanics::new();
    let mut kind_counts = [0u64; 5];
    let mut differential = 0u64;
    let mut caught = 0u64;
    let mut caught_graph: Option<Mldg> = None;

    for c in 0..opts.cases {
        let kind = c % 5;
        let seed = derive_seed(opts.seed, c);
        kind_counts[kind as usize] += 1;
        match run_case(kind, seed, opts.inject_broken_retiming, budget) {
            Ok(v) => {
                if v.differential {
                    differential += 1;
                }
                if v.caught {
                    caught += 1;
                    if caught_graph.is_none() {
                        caught_graph = v.caught_graph;
                    }
                }
            }
            Err(CaseError::Budget(e)) => return Err(CliError::Mdf(e)),
            Err(CaseError::Fail {
                message,
                reproducer,
            }) => {
                let kind_name =
                    ["legal", "acyclic", "infeasible", "program", "frame"][kind as usize];
                let mut out =
                    format!("fuzz case {c} ({kind_name}, seed {seed:#x}) failed: {message}");
                if let Some(r) = reproducer {
                    out.push('\n');
                    out.push_str(&r);
                }
                return Err(CliError::Internal(out));
            }
        }
    }

    if opts.inject_broken_retiming {
        let Some(g) = caught_graph else {
            return Err(CliError::Internal(format!(
                "--inject-broken-retiming: the injected fault was never caught \
                 across {} differential run(s); the checker is blind",
                differential
            )));
        };
        let before = (g.node_count(), g.edge_count());
        let min = shrink(g, &|h| injection_caught(h, opts.seed, budget));
        return Ok(format!(
            "fuzz: {} cases (seed {}): injected broken retiming caught in {caught}/{differential} differential run(s)\n\
             shrunk from {} node(s)/{} edge(s); {}",
            opts.cases, opts.seed, before.0, before.1, reproducer_text(&min)
        ));
    }

    Ok(format!(
        "fuzz: {} cases (seed {}): all passed \
         ({} legal, {} acyclic, {} infeasible, {} program, {} frame; \
         {differential} differential run(s), each replayed under an injected fault \
         and checked against the bytecode verifier)\n",
        opts.cases,
        opts.seed,
        kind_counts[0],
        kind_counts[1],
        kind_counts[2],
        kind_counts[3],
        kind_counts[4],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_small_run_passes() {
        let opts = FuzzOpts {
            cases: 12,
            seed: 7,
            inject_broken_retiming: false,
        };
        let out = run(&opts, &Budget::unlimited()).unwrap();
        assert!(out.contains("all passed"), "{out}");
        assert!(out.contains("differential run(s)"), "{out}");
    }

    #[test]
    fn injection_is_caught_and_minimized() {
        let opts = FuzzOpts {
            cases: 24,
            seed: 1,
            inject_broken_retiming: true,
        };
        let out = run(&opts, &Budget::unlimited()).unwrap();
        assert!(out.contains("injected broken retiming caught"), "{out}");
        assert!(out.contains("minimized reproducer"), "{out}");
        assert!(out.contains("mldg repro"), "{out}");
    }

    #[test]
    fn derived_seeds_differ() {
        let a = derive_seed(42, 0);
        let b = derive_seed(42, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn shrinking_reaches_a_fixed_point() {
        // Predicate: graph has at least one edge. Shrinks to exactly one
        // edge between two nodes (node removal would break it first).
        let cfg = gen_cfg(3);
        let g = random_legal_mldg(3, &cfg);
        assert!(g.edge_count() > 1);
        let min = shrink(g, &|h| h.edge_count() >= 1);
        assert_eq!(min.edge_count(), 1);
    }

    #[test]
    fn witness_validation_rejects_nonsense() {
        let g = random_infeasible_mldg(5, &gen_cfg(5));
        // A fabricated non-negative lex weight must be rejected.
        let err = validate_witness(
            &g,
            InfeasiblePhase::Lex,
            &[],
            &[],
            WitnessWeight::Lex(mdf_graph::v2(1, 0)),
        );
        assert!(err.is_err());
        let err = validate_witness(
            &g,
            InfeasiblePhase::OuterX,
            &[],
            &[],
            WitnessWeight::Scalar(3),
        );
        assert!(err.is_err());
    }
}

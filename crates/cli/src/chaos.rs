//! `mdfuse chaos` — the fault-injection sweep.
//!
//! For every executable workload (the generator suite plus the DSL
//! examples) the sweep first probes a clean run with an empty armed
//! [`FaultPlan`] to learn how often each fault site in
//! [`mdf_chaos::SITES`] is reached, then re-runs the pipeline once per
//! sampled *(site, kind, trigger)* with that single fault armed. Every
//! case must end in one of three acceptable states:
//!
//! * **recovered** — the supervised executor retried or degraded past
//!   the fault and the final memory image is bit-identical to the
//!   original program's (same fingerprint, same execution counters);
//! * **detected** — the fault surfaced as a typed error, or was isolated
//!   by the driver before execution began (planning has no supervisor);
//! * **partial** — a typed partial report whose checkpoint then resumed
//!   under a clean meter to a bit-identical completion.
//!
//! Anything else — a divergent result (**wrong answer**) or a panic
//! escaping the supervised executor (**unhandled panic**) — fails the
//! sweep with exit code 1 and a per-case diagnosis. The report is a
//! `Json` value checked against [`SCHEMA`]'s shape rules before it is
//! written; `mdfuse chaos --check FILE` runs the same schema, gate rules
//! included, on a written report, so CI can gate on the artifact without
//! trusting the producer.
//!
//! A second phase sweeps the **daemon** fault sites (`service.accept`,
//! `service.read`, `service.write`, `service.cache`): each case boots an
//! in-process chaos-enabled [`mdf_service::Server`] on a private socket,
//! arms the single fault, and drives real client traffic with
//! retry-once semantics. The contract mirrors the executor sweep — a
//! dropped connection or typed `Internal` error followed by a successful
//! retry is **recovered**, a typed error with the daemon still
//! answering is **detected**, and a hung client, dead daemon, or
//! divergent fingerprint fails the sweep.
//!
//! A third phase sweeps the **fleet** fault sites (`router.shard`,
//! `router.ring`, `router.batch`): each case boots a chaos-enabled
//! [`mdf_router::Router`] over a two-shard in-process fleet on a TCP
//! endpoint (the shards themselves run with chaos off, so only the
//! router's sites fire), arms the single fault, and drives client
//! traffic through the router. A shard kill must end with the fleet
//! respawned and every shard healthy again; a ring flap must surface as
//! an observed reroute; a batching stall must flush late, never hang.
//! A fleet that never recovers, a dead router, or a divergent
//! fingerprint fails the sweep.
//!
//! A fourth phase sweeps the **persistence** fault sites (`persist.append`,
//! `persist.compact`, `persist.load`) against a live daemon with a real
//! on-disk plan-cache store: a torn write mid-record, a kill between the
//! snapshot tmp-write and its rename, and a bit flip surfacing on load.
//! Every case ends with a clean reboot from the damaged directory — the
//! daemon must boot, warm-load only entries that survive revalidation,
//! and keep answering bit-identical fingerprints. A reboot that crashes
//! or a warm entry that yields a divergent answer fails the sweep.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use mdf_chaos::{FaultKind, FaultPlan, SITES};
use mdf_core::{DegradedPlan, FusionPlan, PlanReport};
use mdf_graph::mldg::Mldg;
use mdf_graph::{Budget, BudgetMeter, MdfError};
use mdf_ir::ast::Program;
use mdf_ir::extract::extract_mldg;
use mdf_ir::retgen::FusedSpec;
use mdf_kernel::{plan_mode, CompiledKernel, ExecMode};
use mdf_router::{InProcessBackend, Router, RouterConfig};
use mdf_service::proto::{ErrCode, Response, Submit};
use mdf_service::transport::Endpoint;
use mdf_service::{Client, Engine, Server, ServiceConfig};
use mdf_sim::{
    run_original, run_traversal, run_traversal_supervised, Checkpoint, ExecStats, RecoveryStats,
    RetryPolicy, Snapshot, SupervisedOutcome, Traversal,
};
use mdf_trace::json::{object, Field, Json, Schema, Type as T};
use mdf_trace::Span;

use crate::CliError;

/// Report schema version; bump on any breaking shape change.
const SCHEMA_VERSION: u64 = 1;

/// Iteration-space bounds for every sweep case: big enough that each
/// workload crosses several barriers (so mid-run triggers exist), small
/// enough that the full sweep stays CI-smoke sized.
const SWEEP_N: i64 = 12;
const SWEEP_M: i64 = 10;

/// Worker count handed to the supervised executors, so the sweep also
/// exercises the multi-thread entry (and its serial degradation path).
const SWEEP_THREADS: usize = 2;

/// Options for `mdfuse chaos`.
pub(crate) struct ChaosOpts {
    /// Seed for the per-site mid-range trigger sample.
    pub seed: u64,
    /// Also write the JSON report to this path.
    pub out: Option<String>,
    /// Validate an existing report instead of sweeping.
    pub check: Option<String>,
    /// Directory of `.mdf` DSL examples to include (skipped if absent).
    pub examples: String,
}

impl Default for ChaosOpts {
    fn default() -> Self {
        ChaosOpts {
            seed: 0,
            out: None,
            check: None,
            examples: "examples/dsl".to_string(),
        }
    }
}

/// How a single injected-fault case ended.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Class {
    /// Supervised execution completed bit-identically to the baseline.
    Recovered,
    /// The fault surfaced as a typed error (or driver-contained panic)
    /// before any result was produced.
    Detected,
    /// A typed partial report whose checkpoint resumed bit-identically.
    Partial,
    /// A completed run whose result diverged from the baseline.
    WrongAnswer(String),
    /// A panic escaped the supervised executor.
    UnhandledPanic(String),
}

impl Class {
    fn name(&self) -> &'static str {
        match self {
            Class::Recovered => "recovered",
            Class::Detected => "detected",
            Class::Partial => "partial",
            Class::WrongAnswer(_) => "wrong-answer",
            Class::UnhandledPanic(_) => "unhandled-panic",
        }
    }

    fn is_failure(&self) -> bool {
        matches!(self, Class::WrongAnswer(_) | Class::UnhandledPanic(_))
    }

    /// What went wrong, for failures; empty otherwise.
    fn detail(&self) -> &str {
        match self {
            Class::WrongAnswer(d) | Class::UnhandledPanic(d) => d,
            _ => "",
        }
    }
}

/// One finished case, with its observability counters.
struct CaseResult {
    workload: String,
    site: &'static str,
    kind: FaultKind,
    trigger: u64,
    class: Class,
    injected: u64,
    recovery: RecoveryStats,
}

/// Per-class tallies (kept in the order they are reported).
#[derive(Clone, Copy, Default)]
struct Tally {
    cases: u64,
    recovered: u64,
    detected: u64,
    partial: u64,
    wrong_answer: u64,
    unhandled_panic: u64,
}

impl Tally {
    /// The counts, in report order.
    fn fields(self) -> [(&'static str, Json); 6] {
        [
            ("cases", self.cases.into()),
            ("recovered", self.recovered.into()),
            ("detected", self.detected.into()),
            ("partial", self.partial.into()),
            ("wrong_answer", self.wrong_answer.into()),
            ("unhandled_panic", self.unhandled_panic.into()),
        ]
    }

    fn add(&mut self, class: &Class) {
        self.cases += 1;
        match class {
            Class::Recovered => self.recovered += 1,
            Class::Detected => self.detected += 1,
            Class::Partial => self.partial += 1,
            Class::WrongAnswer(_) => self.wrong_answer += 1,
            Class::UnhandledPanic(_) => self.unhandled_panic += 1,
        }
    }
}

/// A workload's clean-run baseline: the plan, both engines' artifacts,
/// and the original program's fingerprint (the ground-truth oracle every
/// completed case is compared against).
struct Baseline {
    name: String,
    program: Program,
    graph: Mldg,
    report: PlanReport,
    plan: FusionPlan,
    spec: FusedSpec,
    mode: ExecMode,
    kernel: CompiledKernel,
    original_fp: u64,
    kernel_stats: ExecStats,
    interp_stats: ExecStats,
}

/// Builds the baseline for one workload. `None` when the planner (by
/// design) degrades to partial fusion — there is no fused schedule to
/// perturb, so the workload is skipped rather than failed.
fn baseline(name: &str, program: &Program) -> Result<Option<Baseline>, CliError> {
    let graph = extract_mldg(program)?.graph;
    let report = mdf_core::plan_fusion_budgeted(&graph, &Budget::unlimited())?;
    report
        .verify(&graph)
        .map_err(|e| CliError::Internal(format!("{name}: clean plan failed verification: {e}")))?;
    let DegradedPlan::Fused(plan) = &report.plan else {
        return Ok(None);
    };
    let plan = mdf_sim::align_plan_to_program(&graph, program, plan)
        .ok_or_else(|| CliError::Internal(format!("{name}: program/graph alignment failed")))?;
    let spec = FusedSpec::new(program.clone(), plan.retiming().offsets().to_vec());
    let mode = plan_mode(&spec, &plan);
    let kernel = CompiledKernel::compile(&spec, SWEEP_N, SWEEP_M)?;
    let (omem, _) = run_original(program, SWEEP_N, SWEEP_M);
    let (_, kernel_stats) = kernel.run_with_threads(mode, 1);
    let (_, interp_stats) = run_traversal(&spec, Traversal::of(&plan), SWEEP_N, SWEEP_M);
    Ok(Some(Baseline {
        name: name.to_string(),
        program: program.clone(),
        graph,
        report,
        plan,
        spec,
        mode,
        kernel,
        original_fp: omem.fingerprint(),
        kernel_stats,
        interp_stats,
    }))
}

/// Runs one clean probe over the full pipeline (planning, then both
/// supervised engines) and returns each site's hit count, bounding the
/// trigger range the sweep samples from.
fn probe(b: &Baseline) -> Result<BTreeMap<&'static str, u64>, CliError> {
    let guard = FaultPlan::probe().arm();
    let chaos = Budget::unlimited().with_chaos();
    let policy = RetryPolicy::deterministic();
    mdf_core::plan_fusion_budgeted(&b.graph, &chaos)?;
    let mut meter = chaos.meter();
    b.kernel
        .run_supervised(b.mode, SWEEP_THREADS, &policy, &mut meter)?;
    let mut meter = chaos.meter();
    let traversal = Traversal::of(&b.plan);
    run_traversal_supervised(
        &b.spec, traversal, SWEEP_N, SWEEP_M, &mut meter, &policy, None,
    )?;
    Ok(guard.all_hits().into_iter().collect())
}

/// Folds one supervised outcome's recovery counters into `acc`.
fn fold_recovery(acc: &mut RecoveryStats, r: &RecoveryStats) {
    acc.retries += r.retries;
    acc.checkpoints_taken += r.checkpoints_taken;
    acc.resumes += r.resumes;
    acc.degraded_to_serial |= r.degraded_to_serial;
}

/// Runs one case: arm the single fault, re-plan under chaos, execute
/// under the engine that owns the faulted site, classify the outcome.
fn run_case(b: &Baseline, site: &'static str, kind: FaultKind, trigger: u64) -> CaseResult {
    let guard = FaultPlan::single(site, kind, trigger).arm();
    let chaos = Budget::unlimited().with_chaos();
    let policy = RetryPolicy::deterministic();
    let mut recovery = RecoveryStats::default();
    let class = classify(b, site, &chaos, &policy, &mut recovery);
    CaseResult {
        workload: b.name.clone(),
        site,
        kind,
        trigger,
        class,
        injected: guard.injected(),
        recovery,
    }
}

/// The case body behind [`run_case`], returning the classification.
fn classify(
    b: &Baseline,
    site: &'static str,
    chaos: &Budget,
    policy: &RetryPolicy,
    recovery: &mut RecoveryStats,
) -> Class {
    // Phase 1: planning under chaos. Planning has no supervisor, so a
    // typed error or a driver-contained panic is a successful detection.
    let planned = catch_unwind(AssertUnwindSafe(|| {
        let report = mdf_core::plan_fusion_budgeted(&b.graph, chaos)?;
        report
            .verify(&b.graph)
            .map_err(|e| MdfError::invalid(format!("plan verification rejected: {e}")))?;
        Ok::<_, MdfError>(report)
    }));
    let report = match planned {
        Err(_) => return Class::Detected,
        Ok(Err(_)) => return Class::Detected,
        Ok(Ok(r)) => r,
    };
    // A fault that knocked the ladder down to partial fusion is itself a
    // typed partial report.
    let DegradedPlan::Fused(fused) = &report.plan else {
        return Class::Partial;
    };

    // Rebuild the execution artifacts from the *surviving* plan. When the
    // fault never fired during planning this reproduces the baseline; when
    // it did (a ladder rung absorbed solver exhaustion, or a corrupted
    // retiming happened to stay legal), the perturbed-but-verified plan is
    // held to the same bit-identity oracle as everything else.
    let Some(plan) = mdf_sim::align_plan_to_program(&b.graph, &b.program, fused) else {
        return Class::WrongAnswer("a verified plan failed program alignment".to_string());
    };
    let spec = FusedSpec::new(b.program.clone(), plan.retiming().offsets().to_vec());
    let mode = plan_mode(&spec, &plan);
    let kernel = match CompiledKernel::compile(&spec, SWEEP_N, SWEEP_M) {
        Ok(k) => k,
        Err(_) => return Class::Detected,
    };

    // Phase 2: supervised execution under the engine that owns the site.
    // (Planning-site faults either fired above or never will; their cases
    // double as clean supervised reruns that must still match.) Expected
    // counters come from the baseline on the fast path, or from a clean
    // unmetered run of the perturbed plan (plain runs never consult the
    // armed fault plan, so this is safe mid-case).
    let interp = site.starts_with("sim.");
    let same_plan = report == b.report;
    let traversal = Traversal::of(&plan);
    let want = match (same_plan, interp) {
        (true, true) => b.interp_stats,
        (true, false) => b.kernel_stats,
        (false, true) => run_traversal(&spec, traversal, SWEEP_N, SWEEP_M).1,
        (false, false) => kernel.run_with_threads(mode, 1).1,
    };
    if interp {
        classify_drive(b, chaos, want, recovery, |meter, resume| {
            run_traversal_supervised(&spec, traversal, SWEEP_N, SWEEP_M, meter, policy, resume)
        })
    } else {
        classify_drive(b, chaos, want, recovery, |meter, resume| {
            kernel.drive(mode, SWEEP_THREADS, policy, meter, resume)
        })
    }
}

/// Classifies one engine's drive under the armed fault: a completed run
/// against the baseline, a partial one by its resume under a clean meter.
/// `drive` runs the engine from a meter and an optional resume point;
/// [`Snapshot::digest`] is each engine's fingerprint.
fn classify_drive<M: Snapshot>(
    b: &Baseline,
    chaos: &Budget,
    want: ExecStats,
    recovery: &mut RecoveryStats,
    drive: impl Fn(&mut BudgetMeter, Option<(M, Checkpoint)>) -> Result<SupervisedOutcome<M>, MdfError>,
) -> Class {
    let run = catch_unwind(AssertUnwindSafe(|| drive(&mut chaos.meter(), None)));
    match run {
        Err(p) => Class::UnhandledPanic(crate::panic_message(p)),
        Ok(Err(_)) => Class::Detected,
        Ok(Ok(SupervisedOutcome::Complete {
            mem,
            stats,
            recovery: r,
        })) => {
            fold_recovery(recovery, &r);
            complete_class(b, mem.digest(), stats, want)
        }
        Ok(Ok(SupervisedOutcome::Partial {
            mem,
            checkpoint,
            recovery: r,
            ..
        })) => {
            fold_recovery(recovery, &r);
            // Resume under a clean meter: the partial report's promise is
            // that the checkpoint completes bit-identically.
            let resumed = drive(&mut Budget::unlimited().meter(), Some((mem, checkpoint)));
            partial_class(b, resumed, want, recovery)
        }
    }
}

/// Classifies a completed supervised run against the baseline.
fn complete_class(b: &Baseline, fp: u64, stats: ExecStats, want: ExecStats) -> Class {
    if fp != b.original_fp {
        Class::WrongAnswer(format!(
            "fingerprint {fp:#x} != original {:#x}",
            b.original_fp
        ))
    } else if stats.barriers != want.barriers || stats.stmt_instances != want.stmt_instances {
        Class::WrongAnswer(format!(
            "stats diverged: {}/{} barriers, {}/{} instances",
            stats.barriers, want.barriers, stats.stmt_instances, want.stmt_instances
        ))
    } else {
        Class::Recovered
    }
}

/// Classifies a partial outcome by the result of its clean resume.
fn partial_class<M: Snapshot>(
    b: &Baseline,
    resumed: Result<SupervisedOutcome<M>, MdfError>,
    want: ExecStats,
    recovery: &mut RecoveryStats,
) -> Class {
    match resumed {
        Ok(SupervisedOutcome::Complete {
            mem,
            stats,
            recovery: r,
        }) => {
            fold_recovery(recovery, &r);
            match complete_class(b, mem.digest(), stats, want) {
                Class::Recovered => Class::Partial,
                wrong => wrong,
            }
        }
        Ok(SupervisedOutcome::Partial { cause, .. }) => {
            Class::WrongAnswer(format!("clean resume stopped partial again: {cause}"))
        }
        Err(e) => Class::WrongAnswer(format!("clean resume failed: {e}")),
    }
}

/// What one client-observed submission attempt produced.
enum SubmitOutcome {
    /// `Done` with this fingerprint.
    Done(u64),
    /// A typed service error.
    Typed(ErrCode),
    /// The connection dropped or the read timed out.
    Transport(String),
}

/// How a phase's client drives its live endpoint.
struct Drive {
    /// Submissions per case.
    requests: u64,
    /// Attempts per submission before the case is classified.
    attempts: u32,
    /// The pause before each retry.
    pause: Duration,
    /// What answers at the endpoint, for messages.
    noun: &'static str,
}

/// The daemon and persistence phases: enough requests that every daemon
/// site is reachable at trigger 2 (the cache site needs one populating
/// miss first). Faults are one-shot, so one retry is the recovery
/// contract.
const DAEMON: Drive = Drive {
    requests: 3,
    attempts: 2,
    pause: Duration::ZERO,
    noun: "daemon",
};

/// The fleet phase: enough requests that both sampled triggers of every
/// `router.*` site land mid-traffic. The router's failover is internal
/// (a killed shard reroutes within one submission), so the client budget
/// is a few paced retries for the typed `Overloaded` and `Draining`
/// windows around a shard death.
const FLEET: Drive = Drive {
    requests: 6,
    attempts: 4,
    pause: Duration::from_millis(50),
    noun: "router",
};

/// One connect-submit-close round trip against a live daemon or router.
fn submit_once(endpoint: &Endpoint, source: &str, i: u64) -> SubmitOutcome {
    let mut client = match Client::connect_endpoint(endpoint) {
        Ok(c) => c,
        Err(e) => return SubmitOutcome::Transport(format!("connect: {e}")),
    };
    let engine = if i.is_multiple_of(2) {
        Engine::Kernel
    } else {
        Engine::Interp
    };
    match client.submit(Submit {
        engine,
        n: SWEEP_N,
        m: SWEEP_M,
        deadline_ms: 30_000,
        client: String::new(),
        source: source.to_string(),
    }) {
        Ok(Response::Done(done)) => SubmitOutcome::Done(done.fingerprint),
        Ok(Response::Err(e)) => SubmitOutcome::Typed(e.code),
        Ok(other) => SubmitOutcome::Transport(format!("unexpected response: {other:?}")),
        Err(e) => SubmitOutcome::Transport(e.to_string()),
    }
}

/// Drives `how.requests` submissions, each retried up to `how.attempts`
/// times, and classifies what the client observed. `retries` counts the
/// retries the client needed (folded into the sweep's recovery counters).
fn drive(endpoint: &Endpoint, source: &str, want: u64, how: &Drive, retries: &mut u64) -> Class {
    for i in 0..how.requests {
        let mut last_typed: Option<ErrCode> = None;
        let mut last_transport: Option<String> = None;
        let mut landed = false;
        for attempt in 0..how.attempts {
            if attempt > 0 {
                *retries += 1;
                std::thread::sleep(how.pause);
            }
            match submit_once(endpoint, source, i) {
                SubmitOutcome::Done(fp) if fp == want => {
                    landed = true;
                    break;
                }
                SubmitOutcome::Done(fp) => {
                    return Class::WrongAnswer(format!(
                        "request {i}: fingerprint {fp:#x} != original {want:#x}"
                    ));
                }
                SubmitOutcome::Typed(code) => last_typed = Some(code),
                SubmitOutcome::Transport(detail) => last_transport = Some(detail),
            }
        }
        if landed {
            continue;
        }
        // Every attempt failed. The endpoint must still be answering —
        // otherwise the fault took the whole service or fleet down.
        let alive = Client::connect_endpoint(endpoint).is_ok_and(|mut c| c.ping().is_ok());
        if !alive {
            return Class::UnhandledPanic(format!(
                "request {i}: {} stopped answering after {}",
                how.noun,
                last_transport
                    .or_else(|| last_typed.map(|c| c.name().to_string()))
                    .unwrap_or_else(|| "an injected fault".into())
            ));
        }
        if last_typed.is_some() {
            return Class::Detected;
        }
        return Class::WrongAnswer(format!(
            "request {i}: retry exhausted without a typed error: {}",
            last_transport.unwrap_or_default()
        ));
    }
    Class::Recovered
}

/// Runs one daemon-phase case: boot a chaos-enabled server, arm the
/// fault, drive client traffic, classify, drain.
fn service_case(
    workload: &str,
    source: &str,
    want: u64,
    site: &'static str,
    kind: FaultKind,
    trigger: u64,
) -> CaseResult {
    let socket = std::env::temp_dir().join(format!(
        "mdfuse-chaos-{}-{}-{}-{trigger}.sock",
        std::process::id(),
        site.replace('.', "-"),
        kind.name(),
    ));
    let endpoint = Endpoint::unix(&socket);
    let mut config = ServiceConfig::new(&socket);
    config.chaos = true;
    config.workers = 2;
    let mut recovery = RecoveryStats::default();
    let (class, injected) = match Server::start(config) {
        Err(e) => (
            Class::UnhandledPanic(format!("server failed to start: {e}")),
            0,
        ),
        Ok(server) => {
            let guard = FaultPlan::single(site, kind, trigger).arm();
            let mut class = drive(&endpoint, source, want, &DAEMON, &mut recovery.retries);
            // A cache poison that fired must have been *observed* as a
            // rejected entry — silently surviving revalidation would mean
            // the oracle is blind, even though the answer was right.
            if site == "service.cache" && guard.injected() > 0 && class == Class::Recovered {
                let rejected = Client::connect(&socket)
                    .ok()
                    .and_then(|mut c| c.stats().ok())
                    .map_or(0, |s| s.cache_rejected);
                if rejected == 0 {
                    class = Class::WrongAnswer(
                        "cache poison fired but no entry was rejected".to_string(),
                    );
                }
            }
            let injected = guard.injected();
            drop(guard);
            server.drain();
            (class, injected)
        }
    };
    CaseResult {
        workload: format!("mdfused:{workload}"),
        site,
        kind,
        trigger,
        class,
        injected,
        recovery,
    }
}

/// The daemon-level phase: every `service.*` site and kind, at the first
/// and a second trigger, against a live server executing `program`.
fn service_sweep(
    name: &str,
    program: &Program,
    results: &mut Vec<CaseResult>,
    names: &mut Vec<String>,
) {
    let source = mdf_ir::pretty::program_to_dsl(program);
    let (omem, _) = run_original(program, SWEEP_N, SWEEP_M);
    let want = omem.fingerprint();
    for site in SITES.iter().filter(|s| s.name.starts_with("service.")) {
        for kind in site.kinds {
            for trigger in [1, 2] {
                results.push(service_case(name, &source, want, site.name, *kind, trigger));
            }
        }
    }
    names.push(format!("mdfused:{name}"));
}

/// Runs one persistence-phase case. All three `persist.*` sites share
/// one contract: whatever the fault does to the on-disk store, the live
/// daemon keeps answering correct fingerprints (retry-once absorbs the
/// torn-write panic), and a clean reboot from the damaged directory
/// boots, warm-loads only entries that survive revalidation, and never
/// yields a wrong answer. The fault is armed at trigger 1: a case's store
/// holds one key, and each site is hit once for it (the plan insert's
/// append, drain's compaction, the reboot's load of its one record).
fn persist_case(
    workload: &str,
    source: &str,
    want: u64,
    site: &'static str,
    kind: FaultKind,
) -> CaseResult {
    let trigger = 1;
    let tag = format!(
        "mdfuse-chaos-{}-{}",
        std::process::id(),
        site.replace('.', "-"),
    );
    let dir = std::env::temp_dir().join(format!("{tag}.store"));
    let _ = std::fs::remove_dir_all(&dir);
    let socket = std::env::temp_dir().join(format!("{tag}.sock"));
    let endpoint = Endpoint::unix(&socket);
    let mut recovery = RecoveryStats::default();
    let mut config = ServiceConfig::new(&socket);
    config.workers = 2;
    config.cache_dir = Some(dir.clone());

    // `persist.load` fires on *reboot*, so its store is populated (and
    // compacted) by a clean daemon first; the write-path sites fault the
    // store while it is being populated.
    if site == "persist.load" {
        let populated = match Server::start(config.clone()) {
            Err(e) => Class::UnhandledPanic(format!("clean populate boot failed: {e}")),
            Ok(server) => {
                let class = drive(&endpoint, source, want, &DAEMON, &mut recovery.retries);
                server.drain();
                class
            }
        };
        if populated != Class::Recovered {
            return CaseResult {
                workload: format!("mdfstore:{workload}"),
                site,
                kind,
                trigger,
                class: populated,
                injected: 0,
                recovery,
            };
        }
    }

    config.chaos = true;
    // Armed before boot: `persist.load` fires inside `Server::start`'s
    // warm-load scan, the write-path sites later.
    let guard = FaultPlan::single(site, kind, trigger).arm();
    let mut class = match Server::start(config) {
        Err(e) => Class::UnhandledPanic(format!("chaos boot from store failed: {e}")),
        Ok(server) => {
            let class = drive(&endpoint, source, want, &DAEMON, &mut recovery.retries);
            // The compaction fault fires inside drain's final fold (after
            // every thread has joined), simulating a kill between the
            // snapshot tmp-write and its rename. Anywhere else a drain
            // panic is a sweep failure.
            let drained = catch_unwind(AssertUnwindSafe(|| server.drain()));
            if drained.is_err() && site != "persist.compact" && !class.is_failure() {
                Class::UnhandledPanic(format!("{site}: drain panicked"))
            } else {
                class
            }
        }
    };
    let injected = guard.injected();
    drop(guard);
    // Trigger 1 of every persist site is reachable by construction; a
    // case that recovered without its fault ever firing proved nothing,
    // and silently counting it would blind the oracle.
    if class == Class::Recovered && injected == 0 {
        class = Class::WrongAnswer(format!("{site} armed at trigger 1 but never fired"));
    }

    // The recovery oracle: a clean reboot from whatever the fault left on
    // disk. Torn tails and flipped bits must be discarded on load, never
    // crash the boot, and never surface as a divergent answer.
    if !class.is_failure() {
        let mut config = ServiceConfig::new(&socket);
        config.workers = 2;
        config.cache_dir = Some(dir.clone());
        match Server::start(config) {
            Err(e) => {
                class = Class::UnhandledPanic(format!("reboot from damaged store failed: {e}"));
            }
            Ok(server) => {
                let rebooted = drive(&endpoint, source, want, &DAEMON, &mut recovery.retries);
                server.drain();
                if rebooted != Class::Recovered {
                    class = rebooted;
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    CaseResult {
        workload: format!("mdfstore:{workload}"),
        site,
        kind,
        trigger,
        class,
        injected,
        recovery,
    }
}

/// The persistence phase: every `persist.*` site and kind against a live
/// daemon backed by a real store directory.
fn persist_sweep(
    name: &str,
    program: &Program,
    results: &mut Vec<CaseResult>,
    names: &mut Vec<String>,
) {
    let source = mdf_ir::pretty::program_to_dsl(program);
    let (omem, _) = run_original(program, SWEEP_N, SWEEP_M);
    let want = omem.fingerprint();
    for site in SITES.iter().filter(|s| s.name.starts_with("persist.")) {
        for kind in site.kinds {
            results.push(persist_case(name, &source, want, site.name, *kind));
        }
    }
    names.push(format!("mdfstore:{name}"));
}

/// After a fired fault and a clean drive, holds the fleet to the site's
/// recovery oracle: a shard kill must end respawned and fully healthy, a
/// ring flap must have been *observed* as a reroute (silently surviving
/// one would mean the failover path never ran).
fn confirm_router_recovery(endpoint: &Endpoint, site: &str) -> Class {
    let deadline = Instant::now() + Duration::from_secs(8);
    loop {
        let fleet = Client::connect_endpoint(endpoint)
            .ok()
            .and_then(|mut c| c.fleet().ok());
        if let Some(f) = fleet {
            let recovered = match site {
                "router.shard" => f.respawns >= 1 && f.shards.iter().all(|s| s.healthy),
                "router.ring" => f.reroutes >= 1,
                _ => true,
            };
            if recovered {
                return Class::Recovered;
            }
        }
        if Instant::now() >= deadline {
            return Class::WrongAnswer(format!("{site} fired but the fleet never showed recovery"));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Runs one fleet-phase case: boot a chaos-enabled router over a
/// two-shard in-process fleet (shards with chaos *off*, so only the
/// router's sites fire), arm the fault, drive traffic, hold the fleet to
/// the recovery oracle, drain.
fn router_case(
    workload: &str,
    source: &str,
    want: u64,
    site: &'static str,
    kind: FaultKind,
    trigger: u64,
) -> CaseResult {
    let template = ServiceConfig::new(std::env::temp_dir().join("mdfuse-chaos-template.sock"));
    let backend = InProcessBackend::new(2, template);
    let mut config = RouterConfig::new(Endpoint::parse("tcp:127.0.0.1:0"), 2);
    config.chaos = true;
    config.health_interval = Duration::from_millis(25);
    config.batch_window = Some(Duration::from_millis(2));
    let mut recovery = RecoveryStats::default();
    let (class, injected) = match Router::start(config, Box::new(backend)) {
        Err(e) => (
            Class::UnhandledPanic(format!("router failed to start: {e}")),
            0,
        ),
        Ok(router) => {
            let endpoint = router.endpoint().clone();
            let guard = FaultPlan::single(site, kind, trigger).arm();
            let mut class = drive(&endpoint, source, want, &FLEET, &mut recovery.retries);
            if class == Class::Recovered && guard.injected() > 0 {
                class = confirm_router_recovery(&endpoint, site);
            }
            let injected = guard.injected();
            drop(guard);
            let _ = router.drain();
            (class, injected)
        }
    };
    CaseResult {
        workload: format!("mdf-router:{workload}"),
        site,
        kind,
        trigger,
        class,
        injected,
        recovery,
    }
}

/// The fleet-level phase: every `router.*` site and kind, at the first
/// and a second trigger, against a live two-shard fleet.
fn router_sweep(
    name: &str,
    program: &Program,
    results: &mut Vec<CaseResult>,
    names: &mut Vec<String>,
) {
    let source = mdf_ir::pretty::program_to_dsl(program);
    let (omem, _) = run_original(program, SWEEP_N, SWEEP_M);
    let want = omem.fingerprint();
    for site in SITES.iter().filter(|s| s.name.starts_with("router.")) {
        for kind in site.kinds {
            for trigger in [1, 2] {
                results.push(router_case(name, &source, want, site.name, *kind, trigger));
            }
        }
    }
    names.push(format!("mdf-router:{name}"));
}

/// splitmix64, the workspace-standard seed chain.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Trigger sample for a site hit `hits` times in a clean run: the first
/// hit, the last, and one seeded mid-range point.
fn triggers(hits: u64, state: &mut u64) -> BTreeSet<u64> {
    let mut t = BTreeSet::new();
    if hits == 0 {
        return t;
    }
    t.insert(1);
    t.insert(hits);
    t.insert(1 + splitmix64(state) % hits);
    t
}

/// The sweep's workload list: the executable generator suite plus every
/// `.mdf` example under `dir` (silently skipped when the directory does
/// not exist, e.g. when invoked outside the repository root).
fn workloads(dir: &str) -> Result<Vec<(String, Program)>, CliError> {
    let mut out: Vec<(String, Program)> = mdf_gen::executable_suite()
        .into_iter()
        .filter_map(|e| e.program.map(|p| (e.id.to_string(), p)))
        .collect();
    if let Ok(entries) = std::fs::read_dir(dir) {
        let mut paths: Vec<_> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "mdf"))
            .collect();
        paths.sort();
        for path in paths {
            let src = std::fs::read_to_string(&path)
                .map_err(|e| CliError::Usage(format!("cannot read {}: {e}", path.display())))?;
            let program = mdf_ir::parse_program(&src)?;
            let name = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("example")
                .to_string();
            out.push((name, program));
        }
    }
    Ok(out)
}

/// Runs the sweep or, with `--check`, validates an existing report.
pub(crate) fn run(opts: &ChaosOpts, json: bool, span: &Span) -> Result<String, CliError> {
    if let Some(path) = &opts.check {
        return check_file(path);
    }

    // Injected worker panics unwind through `catch_unwind` dozens of
    // times per sweep; silence the default "thread panicked" firehose
    // for the duration (same pattern as the panic-isolation tests).
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let swept = sweep(opts, span);
    std::panic::set_hook(prev_hook);
    let (results, names) = swept?;

    let mut per: BTreeMap<&str, Tally> = BTreeMap::new();
    let mut totals = Tally::default();
    let mut counters = RecoveryStats::default();
    let mut injected = 0u64;
    let mut failures: Vec<&CaseResult> = Vec::new();
    for r in &results {
        per.entry(r.workload.as_str()).or_default().add(&r.class);
        totals.add(&r.class);
        fold_recovery(&mut counters, &r.recovery);
        injected += r.injected;
        if r.class.is_failure() {
            failures.push(r);
        }
    }

    span.add("chaos.cases", totals.cases);
    span.add("chaos.faults_injected", injected);
    span.add("chaos.retries", counters.retries);
    span.add("chaos.checkpoints_taken", counters.checkpoints_taken);
    span.add("chaos.resumes", counters.resumes);
    span.add("chaos.failures", failures.len() as u64);

    let doc = report_json(
        opts.seed, &names, &per, totals, &counters, injected, &failures,
    );
    let doc = crate::write_report(&doc, &SCHEMA, opts.out.as_deref())?;
    if !failures.is_empty() {
        let mut msg = format!("chaos sweep failed: {} case(s)\n", failures.len());
        for f in &failures {
            let _ = writeln!(
                msg,
                "  {} @ {} [{} x{}]: {} — {}",
                f.workload,
                f.site,
                f.kind.name(),
                f.trigger,
                f.class.name(),
                f.class.detail()
            );
        }
        return Err(CliError::Internal(msg));
    }
    if json {
        return Ok(doc);
    }
    Ok(render_human(
        opts.seed, &names, &per, totals, &counters, injected,
    ))
}

/// Executes the probe + sweep over every workload. Returns the case
/// results and the workload names (in sweep order).
#[allow(clippy::type_complexity)]
fn sweep(opts: &ChaosOpts, span: &Span) -> Result<(Vec<CaseResult>, Vec<String>), CliError> {
    let mut results = Vec::new();
    let mut names = Vec::new();
    let mut state = opts.seed ^ 0x6368_616f_7353_7765; // "chaosSwe"
    let mut service_workload: Option<(String, Program)> = None;
    for (name, program) in workloads(&opts.examples)? {
        let Some(b) = baseline(&name, &program)? else {
            continue;
        };
        if service_workload.is_none() {
            service_workload = Some((name.clone(), program.clone()));
        }
        let case_span = span.child("cases");
        let hits = probe(&b)?;
        for site in SITES {
            let reached = hits.get(site.name).copied().unwrap_or(0);
            for trigger in triggers(reached, &mut state) {
                for kind in site.kinds {
                    results.push(run_case(&b, site.name, *kind, trigger));
                }
            }
        }
        names.push(b.name.clone());
        case_span.add("chaos.workloads", 1);
        case_span.finish();
    }
    // Phase two: the daemon sites, against a live server running the
    // first fully-fused workload. Phase three: the fleet sites, against
    // a live two-shard router over the same workload. Phase four: the
    // persistence sites, against a live daemon with an on-disk store.
    if let Some((name, program)) = service_workload {
        let svc_span = span.child("service");
        service_sweep(&name, &program, &mut results, &mut names);
        svc_span.finish();
        let fleet_span = span.child("router");
        router_sweep(&name, &program, &mut results, &mut names);
        fleet_span.finish();
        let persist_span = span.child("persist");
        persist_sweep(&name, &program, &mut results, &mut names);
        persist_span.finish();
    }
    Ok((results, names))
}

fn render_human(
    seed: u64,
    names: &[String],
    per: &BTreeMap<&str, Tally>,
    totals: Tally,
    counters: &RecoveryStats,
    injected: u64,
) -> String {
    let mut out = format!(
        "chaos sweep: seed {seed}, grid {SWEEP_N}x{SWEEP_M}, {} workload(s)\n",
        names.len()
    );
    for name in names {
        let t = per.get(name.as_str()).copied().unwrap_or_default();
        let _ = writeln!(
            out,
            "  {name}: {} case(s) — {} recovered, {} detected, {} partial",
            t.cases, t.recovered, t.detected, t.partial
        );
    }
    let _ = writeln!(
        out,
        "totals: {} case(s) — {} recovered, {} detected, {} partial, \
         {} wrong answer(s), {} unhandled panic(s)",
        totals.cases,
        totals.recovered,
        totals.detected,
        totals.partial,
        totals.wrong_answer,
        totals.unhandled_panic
    );
    let _ = writeln!(
        out,
        "counters: {injected} fault(s) injected, {} retries, {} checkpoints, {} resumes",
        counters.retries, counters.checkpoints_taken, counters.resumes
    );
    out.push_str(
        "every injected fault was recovered, detected, or yielded a typed partial report\n",
    );
    out
}

/// The sweep report as a JSON document.
fn report_json(
    seed: u64,
    names: &[String],
    per: &BTreeMap<&str, Tally>,
    totals: Tally,
    counters: &RecoveryStats,
    injected: u64,
    failures: &[&CaseResult],
) -> Json {
    let workload = |name: &String| {
        let t = per.get(name.as_str()).copied().unwrap_or_default();
        object(
            [("name", Json::from(name.as_str()))]
                .into_iter()
                .chain(t.fields()),
        )
    };
    let grid = [("n", SWEEP_N), ("m", SWEEP_M)].map(|(k, v)| (k, Json::Num(v as f64)));
    let counters = object([
        ("faults_injected", Json::from(injected)),
        ("retries", counters.retries.into()),
        ("checkpoints_taken", counters.checkpoints_taken.into()),
        ("resumes", counters.resumes.into()),
    ]);
    let failure = |f: &&CaseResult| {
        object([
            ("workload", Json::from(f.workload.as_str())),
            ("site", f.site.into()),
            ("kind", f.kind.name().into()),
            ("trigger", f.trigger.into()),
            ("class", f.class.name().into()),
            ("detail", f.class.detail().into()),
        ])
    };
    object([
        ("schema_version", Json::from(SCHEMA_VERSION)),
        ("report", "CHAOS_sweep".into()),
        ("seed", seed.into()),
        ("grid", object(grid)),
        ("workloads", names.iter().map(workload).collect()),
        ("totals", object(totals.fields())),
        ("counters", counters),
        ("failures", failures.iter().map(failure).collect()),
    ])
}

/// `mdfuse chaos --check FILE`: validates a written sweep report. Schema
/// violations and recorded failures both exit 3, so CI can gate on the
/// artifact exactly like `profile-check`.
fn check_file(path: &str) -> Result<String, CliError> {
    let doc = crate::read_report(path, &SCHEMA)?;
    let count = |block: &str, key: &str| {
        doc.get(block)
            .and_then(|b| b.get(key))
            .and_then(Json::num)
            .unwrap_or_default()
    };
    Ok(format!(
        "valid CHAOS_sweep schema v{SCHEMA_VERSION}: {} case(s), {} fault(s) injected\n",
        count("totals", "cases"),
        count("counters", "faults_injected")
    ))
}

/// `CHAOS_sweep.json`. Recorded failures are a gate, not shape: a failing
/// sweep still writes its report, and `--check` rejects it.
static SCHEMA: Schema = Schema {
    version: Some(SCHEMA_VERSION),
    fields: &[
        Field::req("report", T::Tag(&["CHAOS_sweep"])),
        Field::req("seed", T::Num).min(0.0),
        Field::req("{grid,totals,counters}", T::Obj),
        Field::req("grid.{n,m}", T::Int),
        Field::req("{workloads,failures}", T::Arr),
        Field::req("{workloads[],failures[]}", T::Obj),
        Field::req("workloads[].name", T::Str).min(1.0),
        Field::req(
            "workloads[].{cases,recovered,detected,partial,wrong_answer,unhandled_panic}",
            T::Int,
        )
        .min(0.0),
        Field::req(
            "totals.{cases,recovered,detected,partial,wrong_answer,unhandled_panic}",
            T::Int,
        )
        .min(0.0),
        Field::req(
            "counters.{faults_injected,retries,checkpoints_taken,resumes}",
            T::Num,
        )
        .min(0.0),
        Field::req("failures[].{workload,site,kind,class,detail}", T::Str),
        Field::req("failures[].trigger", T::Int).min(0.0),
    ],
    shape: &[classes_sum_to_cases],
    gates: &[no_recorded_failures],
};

fn count(tally: &Json, key: &str) -> f64 {
    tally.get(key).and_then(Json::num).unwrap_or_default()
}

/// Every case ends in exactly one class, in the totals and per workload.
fn classes_sum_to_cases(doc: &Json) -> Result<(), String> {
    let workloads = doc.get("workloads").and_then(Json::arr).unwrap_or_default();
    let tallies = std::iter::once(("totals", doc.get("totals").unwrap_or(&Json::Null)));
    let per = workloads.iter().map(|w| {
        let name = w.get("name").and_then(Json::str_val).unwrap_or_default();
        (name, w)
    });
    for (name, t) in tallies.chain(per) {
        let cases = count(t, "cases");
        let sum: f64 = [
            "recovered",
            "detected",
            "partial",
            "wrong_answer",
            "unhandled_panic",
        ]
        .iter()
        .map(|k| count(t, k))
        .sum();
        if cases != sum {
            return Err(format!("{name}: cases ({cases}) != sum of classes ({sum})"));
        }
    }
    Ok(())
}

fn no_recorded_failures(doc: &Json) -> Result<(), String> {
    let totals = doc.get("totals").unwrap_or(&Json::Null);
    let (wrong, panics) = (
        count(totals, "wrong_answer"),
        count(totals, "unhandled_panic"),
    );
    let records = doc
        .get("failures")
        .and_then(Json::arr)
        .map_or(0, <[Json]>::len);
    if wrong != 0.0 || panics != 0.0 || records != 0 {
        return Err(format!(
            "sweep recorded failures: {wrong} wrong answer(s), {panics} unhandled panic(s), \
             {records} failure record(s)"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep_opts(dir: &std::path::Path) -> ChaosOpts {
        ChaosOpts {
            seed: 7,
            out: Some(dir.join("CHAOS_sweep.json").to_str().unwrap().to_string()),
            check: None,
            // Unit tests run from the crate dir; the repo examples live
            // two levels up.
            examples: concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/dsl").to_string(),
        }
    }

    #[test]
    fn sweep_recovers_detects_or_partials_every_fault_and_round_trips() {
        let dir = std::env::temp_dir().join(format!("mdfuse-chaos-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let opts = sweep_opts(&dir);
        let out = run(&opts, false, &Span::disabled()).unwrap();
        assert!(
            out.contains("0 wrong answer(s), 0 unhandled panic(s)"),
            "{out}"
        );
        assert!(out.contains("every injected fault was recovered"), "{out}");
        // The suite alone contributes 4 workloads; the examples add more,
        // and the daemon phase reports under its own workload name.
        assert!(out.contains("E1:"), "{out}");
        assert!(out.contains("figure2:"), "{out}");
        assert!(out.contains("mdfused:E1:"), "{out}");
        assert!(out.contains("mdf-router:E1:"), "{out}");
        assert!(out.contains("mdfstore:E1:"), "{out}");

        // The written report validates...
        let path = opts.out.clone().unwrap();
        let checked = run(
            &ChaosOpts {
                check: Some(path.clone()),
                ..ChaosOpts::default()
            },
            false,
            &Span::disabled(),
        )
        .unwrap();
        assert!(checked.contains("valid CHAOS_sweep schema v1"), "{checked}");

        // ...reproduces the committed seed-7 report byte for byte (every
        // fault fires on a request-driven hit count, never on a timer, so
        // the live daemon, fleet and store phases are seed-fixed too)...
        let json = std::fs::read_to_string(&path).unwrap();
        let committed = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../CHAOS_sweep.json"
        ))
        .unwrap();
        assert!(
            json == committed,
            "the seed-7 sweep diverged from the committed CHAOS_sweep.json:\n{json}"
        );

        // ...and a schema bump is rejected with exit 3.
        assert!(json.contains("\"faults_injected\""), "{json}");
        std::fs::write(
            &path,
            json.replace("\"schema_version\": 1", "\"schema_version\": 9"),
        )
        .unwrap();
        let err = run(
            &ChaosOpts {
                check: Some(path),
                ..ChaosOpts::default()
            },
            false,
            &Span::disabled(),
        )
        .unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
    }

    #[test]
    fn check_rejects_reports_with_recorded_failures() {
        let dir = std::env::temp_dir().join(format!("mdfuse-chaos-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(
            &path,
            r#"{
  "schema_version": 1,
  "report": "CHAOS_sweep",
  "seed": 0,
  "grid": { "n": 12, "m": 10 },
  "workloads": [],
  "totals": { "cases": 1, "recovered": 0, "detected": 0, "partial": 0,
              "wrong_answer": 1, "unhandled_panic": 0 },
  "counters": { "faults_injected": 1, "retries": 0,
                "checkpoints_taken": 0, "resumes": 0 },
  "failures": [ { "workload": "E1", "site": "kernel.barrier",
                  "kind": "deadline-expiry", "trigger": 1,
                  "class": "wrong-answer", "detail": "x" } ]
}"#,
        )
        .unwrap();
        let err = run(
            &ChaosOpts {
                check: Some(path.to_str().unwrap().to_string()),
                ..ChaosOpts::default()
            },
            false,
            &Span::disabled(),
        )
        .unwrap_err();
        assert_eq!(err.exit_code(), 3);
        assert!(err.to_string().contains("recorded failures"), "{err}");
    }

    #[test]
    fn triggers_sample_first_last_and_a_seeded_midpoint() {
        let mut state = 42;
        let t = triggers(10, &mut state);
        assert!(t.contains(&1) && t.contains(&10));
        assert!(t.len() <= 3);
        assert!(t.iter().all(|&x| (1..=10).contains(&x)));
        assert!(triggers(0, &mut state).is_empty());
    }
}

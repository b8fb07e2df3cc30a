//! `mdfuse` — command-line driver for the mdfusion library.
//!
//! ```text
//! mdfuse analyze  <file>          analyze an MLDG or loop program
//! mdfuse fuse     <file>          compute + print the fusion plan
//! mdfuse codegen  <file>          print the fused code (programs only)
//! mdfuse partial  <file>          partial fusion into row-DOALL clusters
//! mdfuse explain  <file>          step-by-step derivation of the plan
//! mdfuse simulate <file> [n] [m]  execute original vs fused and compare
//! mdfuse run      <file> [n] [m]  execute the fused schedule for real
//! mdfuse verify   <file> [n] [m]  statically verify the lowered bytecode
//! mdfuse dot      <file>          emit Graphviz DOT for the MLDG
//! mdfuse suite                    run the Section 5 experiment suite
//! mdfuse bench                    interpreter vs kernel vs baselines
//! mdfuse fuzz                     differential fuzzing of the pipeline
//! mdfuse chaos                    fault-injection sweep with recovery oracle
//! ```
//!
//! `<file>` may contain either the MLDG text format (`mldg <name> ...`) or
//! the loop DSL (`program <name> { ... }`); the format is auto-detected.
//!
//! Exit codes are stable and scriptable: 0 success, 1 internal error,
//! 2 usage error, 3 malformed input, 4 infeasible input, 5 budget
//! exceeded. See [`CliError::exit_code`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Duration;

use mdf_core::{analyze, DegradedPlan};
use mdf_graph::mldg::Mldg;
use mdf_graph::{Budget, MdfError};
use mdf_ir::ast::Program;
use mdf_ir::extract::extract_mldg;
use mdf_ir::retgen::FusedSpec;
use mdf_sim::{check_partial_budgeted, check_plan_budgeted};
use mdf_trace::json::{parse, Json, Schema};
use mdf_trace::Span;

mod analysis;
mod bench;
mod chaos;
mod fuzz;
mod profile;
mod route_cmd;
mod service_cmd;

/// A CLI failure, classified for the exit code.
#[derive(Debug)]
enum CliError {
    /// Bad arguments or an unreadable file (exit 2).
    Usage(String),
    /// A typed pipeline error; the exit code depends on the variant.
    Mdf(MdfError),
    /// A bug on our side: failed verification or a caught panic (exit 1).
    Internal(String),
    /// Diagnostics with error severity: the rendered report goes to
    /// stdout, the process exits 3.
    Lint(String),
    /// A budget or deadline a service answered with, in the service's
    /// own words (exit 5, like a local budget trip).
    Budget(String),
}

impl CliError {
    /// The process exit code for this error.
    ///
    /// * `1` — internal error (verification failure, worker panic);
    /// * `2` — usage error (bad arguments, unreadable file);
    /// * `3` — malformed input (parse or validation error);
    /// * `4` — infeasible input (negative cycle / not acyclic);
    /// * `5` — resource budget exceeded.
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Mdf(e) => match e {
                MdfError::Parse { .. } | MdfError::Invalid { .. } => 3,
                MdfError::Infeasible { .. } | MdfError::NotAcyclic => 4,
                MdfError::BudgetExceeded { .. } => 5,
                MdfError::Exec { .. } => 1,
            },
            CliError::Internal(_) => 1,
            CliError::Lint(_) => 3,
            CliError::Budget(_) => 5,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Mdf(e) => write!(f, "{e}"),
            CliError::Internal(m) => write!(f, "{m}"),
            CliError::Lint(m) => write!(f, "{m}"),
            CliError::Budget(m) => write!(f, "{m}"),
        }
    }
}

impl From<MdfError> for CliError {
    fn from(e: MdfError) -> Self {
        CliError::Mdf(e)
    }
}

/// Checks a report against its schema's shape rules and prints it with
/// the one JSON writer, writing it to `out` when given. A document that
/// breaks its own schema is a bug on our side (exit 1), and nothing is
/// written.
fn write_report(doc: &Json, schema: &Schema, out: Option<&str>) -> Result<String, CliError> {
    schema
        .check_shape(doc)
        .map_err(|m| CliError::Internal(format!("report failed its own schema: {m}")))?;
    let text = doc.pretty();
    if let Some(path) = out {
        std::fs::write(path, &text)
            .map_err(|e| CliError::Usage(format!("cannot write {path}: {e}")))?;
    }
    Ok(text)
}

/// `--check`: reads a report file and runs its whole schema on it, gate
/// rules included. Any violation exits 3.
fn read_report(path: &str, schema: &Schema) -> Result<Json, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Usage(format!("cannot read {path}: {e}")))?;
    parse(&text)
        .and_then(|doc| schema.check(&doc).map(|()| doc))
        .map_err(|m| CliError::Mdf(MdfError::invalid(format!("{path}: {m}"))))
}

/// Best-effort extraction of a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panicked".to_string()
    }
}

/// Parsed input: always a graph, sometimes a runnable program too (with
/// its source span table, for diagnostics).
struct Input {
    name: String,
    graph: Mldg,
    program: Option<Program>,
    spans: Option<mdf_ir::SpanTable>,
}

#[cfg(test)]
fn load(source: &str) -> Result<Input, CliError> {
    load_traced(source, &Span::disabled())
}

/// Parses `source` as a loop program (text starting with `program`) or as
/// MLDG text, timing the two front-end stages as `parse` and `graph` child
/// spans of `span`.
fn load_traced(source: &str, span: &Span) -> Result<Input, CliError> {
    let trimmed = source.trim_start();
    if trimmed.starts_with("program") {
        let parse = span.child("parse");
        let parsed = mdf_ir::parse_program_spanned(source)?;
        parse.finish();
        let graph = span.child("graph");
        let x = extract_mldg(&parsed.program)?;
        graph.finish();
        Ok(Input {
            name: parsed.program.name.clone(),
            graph: x.graph,
            program: Some(parsed.program),
            spans: Some(parsed.spans),
        })
    } else {
        let parse = span.child("parse");
        let (graph, name) = mdf_graph::textfmt::parse(source)?;
        parse.finish();
        Ok(Input {
            name,
            graph,
            program: None,
            spans: None,
        })
    }
}

fn load_file(path: &str, span: &Span) -> Result<Input, CliError> {
    let source = std::fs::read_to_string(path)
        .map_err(|e| CliError::Usage(format!("cannot read {path}: {e}")))?;
    load_traced(&source, span)
}

/// Bounds the `analyze` bytecode section and `verify` default to: large
/// enough that every retimed prologue/epilogue shape is exercised, small
/// enough to lower instantly.
const VERIFY_DEFAULT_BOUNDS: (i64, i64) = (32, 32);

/// The verifier's verdict on one lowered image: the certificate when it
/// was issued, plus every diagnostic (MDF200 info or MDF2xx violations).
type Verdict = (
    Option<mdf_analyze::BytecodeCert>,
    Vec<mdf_analyze::Diagnostic>,
);

/// Plans, lowers, and statically verifies the input's kernel bytecode at
/// bounds `(n, m)`. Returns `None` when there is no bytecode to verify:
/// MLDG-only input, a partially fused plan, or a non-executable body.
fn bytecode_verdict(
    input: &Input,
    n: i64,
    m: i64,
    budget: &Budget,
) -> Result<Option<Verdict>, CliError> {
    let Some(program) = input.program.as_ref() else {
        return Ok(None);
    };
    let report = mdf_core::plan_fusion_budgeted(&input.graph, budget)?;
    let DegradedPlan::Fused(plan) = &report.plan else {
        return Ok(None);
    };
    let plan = mdf_sim::align_plan_to_program(&input.graph, program, plan)
        .ok_or_else(|| CliError::Internal("program/graph alignment failed".into()))?;
    let spec = FusedSpec::new(program.clone(), plan.retiming().offsets().to_vec());
    let mode = mdf_kernel::plan_mode(&spec, &plan);
    let Ok(kernel) = mdf_kernel::CompiledKernel::compile(&spec, n, m) else {
        return Ok(None);
    };
    Ok(Some(mdf_analyze::bytecode::certificate_diagnostics(
        &kernel.vm_image(mode),
    )))
}

/// `mdfuse verify`: run the static bytecode verifier standalone. Error
/// diagnostics (`MDF2xx` violations) exit 3, like `lint`.
fn cmd_verify(
    input: &Input,
    n: i64,
    m: i64,
    json: bool,
    budget: &Budget,
) -> Result<String, CliError> {
    if input.program.is_none() {
        return Err(CliError::Usage(
            "verify requires a loop program (DSL input)".into(),
        ));
    }
    let Some((cert, diags)) = bytecode_verdict(input, n, m, budget)? else {
        return Err(CliError::Mdf(MdfError::invalid(
            "no executable fully fused kernel to verify (partial plan or non-executable body)",
        )));
    };
    let out = if json {
        mdf_analyze::render_json_with(
            &diags,
            &input.name,
            vec![(
                "bytecode",
                mdf_analyze::bytecode::section_json(cert.as_ref(), &diags),
            )],
        )
    } else {
        mdf_analyze::render_human(&diags, &input.name)
    };
    if mdf_analyze::has_errors(&diags) {
        return Err(CliError::Lint(out));
    }
    Ok(out)
}

fn cmd_analyze(
    input: &Input,
    budget: &Budget,
    json: bool,
    span: &Span,
) -> Result<String, CliError> {
    let certify = span.child("certify");
    let diags = analysis::certificates(
        &input.graph,
        input.program.as_ref(),
        input.spans.as_ref(),
        budget,
        &certify,
    )?;
    certify.finish();
    let out = if json {
        // The bytecode certificate travels as its own section so the
        // top-level diagnostics list (and its error/warning counts) stays
        // exactly what the certificate passes produced.
        let (n, m) = VERIFY_DEFAULT_BOUNDS;
        let sections = match bytecode_verdict(input, n, m, budget)? {
            Some((cert, bdiags)) => vec![(
                "bytecode",
                mdf_analyze::bytecode::section_json(cert.as_ref(), &bdiags),
            )],
            None => Vec::new(),
        };
        mdf_analyze::render_json_with(&diags, &input.name, sections)
    } else {
        let mut out = analyze(&input.graph, &input.name).render(Some(&input.graph));
        out.push_str("certificates:\n");
        out.push_str(&mdf_analyze::render_human(&diags, &input.name));
        out
    };
    if mdf_analyze::has_errors(&diags) {
        return Err(CliError::Lint(out));
    }
    Ok(out)
}

fn cmd_lint(path: &str, json: bool) -> Result<String, CliError> {
    let source = std::fs::read_to_string(path)
        .map_err(|e| CliError::Usage(format!("cannot read {path}: {e}")))?;
    if !source.trim_start().starts_with("program") {
        return Err(CliError::Usage(
            "lint requires a loop program (DSL input)".into(),
        ));
    }
    let diags = mdf_analyze::lint_source(&source);
    let out = if json {
        mdf_analyze::render_json(&diags, path)
    } else {
        mdf_analyze::render_human(&diags, path)
    };
    if mdf_analyze::has_errors(&diags) {
        return Err(CliError::Lint(out));
    }
    Ok(out)
}

fn cmd_fuse(input: &Input, budget: &Budget) -> Result<String, CliError> {
    let report = mdf_core::plan_fusion_budgeted(&input.graph, budget)?;
    report
        .verify(&input.graph)
        .map_err(|e| CliError::Internal(format!("verification failed: {e}")))?;
    let mut out = analyze(&input.graph, &input.name).render(Some(&input.graph));
    if let (DegradedPlan::Fused(plan), Some(p)) = (&report.plan, &input.program) {
        let spec = FusedSpec::new(p.clone(), plan.retiming().offsets().to_vec());
        out.push('\n');
        out.push_str(&spec.render());
    }
    // Only surface the ladder when something actually degraded; the
    // common single-rung success keeps its historical output.
    if report.attempts.len() > 1 {
        out.push('\n');
        out.push_str("degradation ladder:\n");
        out.push_str(&report.ladder_trace());
    }
    Ok(out)
}

fn cmd_codegen(input: &Input, budget: &Budget) -> Result<String, CliError> {
    let program = input
        .program
        .as_ref()
        .ok_or_else(|| CliError::Usage("codegen requires a loop program (DSL input)".into()))?;
    let report = mdf_core::plan_fusion_budgeted(&input.graph, budget)?;
    let spec = FusedSpec::new(program.clone(), report.plan.retiming().offsets().to_vec());
    Ok(spec.render())
}

fn cmd_simulate(input: &Input, n: i64, m: i64, budget: &Budget) -> Result<String, CliError> {
    let program = input
        .program
        .as_ref()
        .ok_or_else(|| CliError::Usage("simulate requires a loop program (DSL input)".into()))?;
    let report = mdf_core::plan_fusion_budgeted(&input.graph, budget)?;
    let mut meter = budget.meter();
    let verdict = match &report.plan {
        DegradedPlan::Fused(plan) => check_plan_budgeted(program, plan, n, m, &mut meter)?,
        DegradedPlan::Partial(plan) => check_partial_budgeted(program, plan, n, m, &mut meter)?,
    };
    let sim = verdict.map_err(|e| CliError::Internal(format!("simulation failed: {e}")))?;
    Ok(format!(
        "results identical over i=0..={n}, j=0..={m}\n\
         synchronizations: {} (original) -> {} (fused)\n\
         statement instances: {}\n",
        sim.original_barriers, sim.fused_barriers, sim.stmt_instances
    ))
}

/// `mdfuse run`: plan, then actually execute the fused schedule with the
/// selected engine, cross-checking the final memory image against the
/// original program's.
fn cmd_run(
    input: &Input,
    n: i64,
    m: i64,
    engine: &str,
    budget: &Budget,
    span: &Span,
) -> Result<String, CliError> {
    let program = input
        .program
        .as_ref()
        .ok_or_else(|| CliError::Usage("run requires a loop program (DSL input)".into()))?;
    let plan_span = span.child("plan");
    let report = mdf_core::plan_fusion_traced(&input.graph, budget, &plan_span)?;
    plan_span.finish();
    let DegradedPlan::Fused(plan) = &report.plan else {
        return Err(CliError::Mdf(MdfError::invalid(
            "the plan degraded to partial fusion; `run` executes fully fused schedules \
             (use `simulate` for partial plans)",
        )));
    };
    let plan = mdf_sim::align_plan_to_program(&input.graph, program, plan)
        .ok_or_else(|| CliError::Internal("program/graph alignment failed".into()))?;
    let spec = FusedSpec::new(program.clone(), plan.retiming().offsets().to_vec());
    let mut meter = budget.meter();
    let t0 = std::time::Instant::now();
    let (fp, stats, how) = match engine {
        "interp" => {
            let exec = span.child("execute");
            let traversal = mdf_sim::Traversal::of(&plan);
            let once = mdf_sim::RetryPolicy::once();
            let out =
                mdf_sim::run_traversal_supervised(&spec, traversal, n, m, &mut meter, &once, None)?;
            mdf_sim::traced::report(&exec, &out.stats());
            // `run` wants a full answer: a partial outcome converts back
            // to its typed cause (a deadline exits 5, a caught panic 1).
            let (mem, stats) = out.into_complete()?;
            exec.finish();
            (mem.fingerprint(), stats, "interp".to_string())
        }
        "kernel" => {
            let lower = span.child("lower");
            let mode = mdf_kernel::plan_mode_traced(&spec, &plan, &lower);
            let k = mdf_kernel::CompiledKernel::compile_traced(&spec, n, m, &lower)?;
            lower.finish();
            let exec = span.child("execute");
            let (mem, stats) = k
                .run_budgeted_traced(mode, &mut meter, &exec)?
                .into_complete()?;
            exec.finish();
            let mode_name = match mode {
                mdf_kernel::ExecMode::RowsCertified => "rows-doall",
                mdf_kernel::ExecMode::RowsSerial => "rows-serial",
                mdf_kernel::ExecMode::Wavefront { .. } => "wavefront-tiled",
            };
            (mem.fingerprint(), stats, format!("kernel/{mode_name}"))
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown engine {other:?} (expected \"interp\" or \"kernel\")"
            )))
        }
    };
    let wall = t0.elapsed().as_secs_f64() * 1e3;
    let crosscheck = span.child("crosscheck");
    let (omem, ostats) = mdf_sim::run_original_budgeted(program, n, m, &mut meter)?;
    mdf_sim::traced::report(&crosscheck, &ostats);
    crosscheck.finish();
    if omem.fingerprint() != fp {
        return Err(CliError::Internal(format!(
            "engine {engine} diverged from the original program \
             (fingerprint {fp:#x}, expected {:#x})",
            omem.fingerprint()
        )));
    }
    Ok(format!(
        "ran {} over i=0..={n}, j=0..={m} (engine {how}): results identical\n\
         fingerprint: {fp:#x}\n\
         synchronizations: {} (original) -> {} (fused)\n\
         statement instances: {}\n\
         wall: {wall:.3} ms ({:.1} Mcells/s)\n",
        input.name,
        ostats.barriers,
        stats.barriers,
        stats.stmt_instances,
        stats.stmt_instances as f64 / (wall / 1e3).max(1e-9) / 1e6,
    ))
}

fn cmd_partial(input: &Input) -> Result<String, CliError> {
    use std::fmt::Write as _;
    let plan = mdf_core::fuse_partial(&input.graph).ok_or_else(|| {
        CliError::Mdf(MdfError::invalid(
            "no row-parallel clustering exists (negative cycle or zero-x cycle with inner weight)",
        ))
    })?;
    if !mdf_core::verify_partial(&input.graph, &plan) {
        return Err(CliError::Internal(
            "internal error: partial plan failed verification".into(),
        ));
    }
    let mut out = String::new();
    // Writes into a String are infallible; discard the Result so no panic
    // path exists in the command at all.
    let _ = writeln!(
        out,
        "partial fusion: {} cluster(s), each row-DOALL; retiming: {}",
        plan.clusters.len(),
        plan.retiming.display(&input.graph)
    );
    for (i, c) in plan.clusters.iter().enumerate() {
        let labels: Vec<&str> = c.iter().map(|&n| input.graph.label(n)).collect();
        let _ = writeln!(out, "  cluster {}: {}", i + 1, labels.join(", "));
    }
    Ok(out)
}

fn cmd_explain(input: &Input) -> Result<String, CliError> {
    Ok(mdf_core::explain_fusion(&input.graph).render())
}

fn cmd_dot(input: &Input) -> Result<String, CliError> {
    Ok(mdf_graph::dot::to_dot(&input.graph, &input.name))
}

fn cmd_suite(budget: &Budget) -> Result<String, CliError> {
    let mut out = String::new();
    for entry in mdf_gen::suite() {
        let report = analyze(&entry.graph, entry.id);
        out.push_str(&format!("[{}] {}\n", entry.id, entry.description));
        out.push_str(&report.render(Some(&entry.graph)));
        if let Some(p) = &entry.program {
            let plan = mdf_core::plan_fusion(&entry.graph)?;
            // Realized programs order loops textually; re-index the plan.
            let plan = mdf_sim::align_plan_to_program(&entry.graph, p, &plan)
                .ok_or_else(|| CliError::Internal("suite program/graph mismatch".into()))?;
            let mut meter = budget.meter();
            let sim = check_plan_budgeted(p, &plan, 32, 32, &mut meter)?
                .map_err(|e| CliError::Internal(format!("simulation failed: {e}")))?;
            out.push_str(&format!(
                "simulated (33x33): {} -> {} synchronizations, results identical\n",
                sim.original_barriers, sim.fused_barriers
            ));
        }
        out.push('\n');
    }
    Ok(out)
}

const USAGE: &str =
    "usage: mdfuse <analyze|fuse|codegen|partial|explain|simulate|dot> <file> [n] [m]
       mdfuse run <file> [n] [m] [--engine interp|kernel] [--profile[=PATH]]
       mdfuse verify <file> [n] [m] [--json]
       mdfuse lint <file> [--json]
       mdfuse suite
       mdfuse bench [--quick] [--json] [--threads LIST] [--out PATH]
                    [--check PATH] [--compare A B] [--tolerance X]
                    [--profile[=PATH]]
       mdfuse fuzz [--cases N] [--seed S] [--inject-broken-retiming]
       mdfuse chaos [--seed S] [--json] [--out PATH] [--check PATH]
                    [--examples DIR] [--profile[=PATH]]
       mdfuse serve <endpoint> [--workers N] [--queue N] [--cache-cap N]
                    [--cache-dir DIR] [--cache-sync M]
       mdfuse route <endpoint> [--shards N] [--batch] [--workers N]
                    [--queue N] [--cache-cap N] [--cache-dir DIR]
                    [--cache-sync M]
       mdfuse client <endpoint> <ping|stats|fleet|shutdown>
       mdfuse client <endpoint> submit <file> [n] [m] [--engine E]
                    [--deadline-ms MS]
       mdfuse loadgen [--socket ENDPOINT] [--shards N] [--batch]
                    [--requests N] [--concurrency C] [--seed S] [--json]
                    [--out PATH] [--check PATH] [--examples DIR]
                    [--chaos] [--cache-dir DIR] [--cache-sync M]
       mdfuse profile-check <file>

options:
  --json             emit diagnostics as JSON (analyze, verify, lint, bench,
                     chaos)
  --deadline-ms MS   abort planning/simulation after MS milliseconds (exit 5;
                     bench instead emits a partial report and exits 0)
  --engine ENGINE    execution engine for run: interp | kernel (default kernel)
  --quick            bench: small bounds, short repetitions (CI smoke shape)
  --threads LIST     bench: comma-separated worker counts for the matrix,
                     strictly increasing (default 1,2,4)
  --out PATH         bench, chaos: also write the JSON report to PATH
  --check PATH       bench, chaos: validate an existing report and exit
  --compare A B      bench: A/B-compare candidate report A against baseline
                     report B on speedup_vs_unfused and exit (3 on regression)
  --tolerance X      bench: allowed relative speedup regression for
                     --compare, within [0, 1] (default 0.15)
  --examples DIR     chaos, loadgen: directory of .mdf examples
                     (default examples/dsl; skipped when absent)
  --workers N        serve, route: concurrent submissions per daemon
                     (default 4)
  --queue N          serve, route: admission queue depth (default 8)
  --cache-cap N      serve, route: plan cache capacity (default 64)
  --cache-dir DIR    serve, route, loadgen: crash-safe persistent plan-cache
                     store; warm-loads on boot, persists on insert/drain
                     (route/loadgen shards use DIR/shard-<N>)
  --cache-sync M     store fsync discipline: never | snapshot | always
                     (default snapshot: sync compacted snapshots, not
                     every append)
  --chaos            loadgen: fire seeded faults (worker panics, shard
                     kills, persistence faults) while measuring latency;
                     requires an in-process target (not --socket)
  --shards N         route, loadgen: fleet shard count (route default 2;
                     loadgen 0 = single in-process daemon)
  --batch            route, loadgen: coalesce same-fingerprint
                     submissions inside a bounded window
  --socket ENDPOINT  loadgen: drive an external daemon or router
                     (`tcp:HOST:PORT` or a unix socket path; default:
                     boot an in-process target)
  --requests N       loadgen: total submissions (default 120)
  --concurrency C    loadgen: closed-loop client threads (default 4)
  --profile[=PATH]   run, bench, analyze, chaos: write a schema-versioned
                     JSONL profile (default trace.jsonl) and print a phase
                     summary on stderr; validate with `mdfuse profile-check`
  -h, --help         print this help

exit codes:
  0  success
  1  internal error (verification failure, worker panic)
  2  usage error (bad arguments, unreadable file)
  3  malformed input, or diagnostics with error severity (analyze, lint)
  4  infeasible input (lexicographically negative cycle)
  5  resource budget exceeded (graph size, rounds, iterations, deadline)";

/// Command-line options shared by every subcommand.
struct Opts {
    deadline_ms: Option<u64>,
    positional: Vec<String>,
    help: bool,
    json: bool,
    engine: String,
    /// `--profile[=PATH]`: collect and write a JSONL profile.
    profile: Option<String>,
    fuzz: fuzz::FuzzOpts,
    bench: bench::BenchOpts,
    chaos: chaos::ChaosOpts,
    service: service_cmd::ServiceOpts,
}

/// The value following a `--flag VALUE` pair, or a usage error.
fn next_value<'a>(it: &mut std::slice::Iter<'a, String>, name: &str) -> Result<&'a str, CliError> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| CliError::Usage(format!("{name} requires a value\n{USAGE}")))
}

fn next_u64(it: &mut std::slice::Iter<'_, String>, name: &str) -> Result<u64, CliError> {
    next_value(it, name)?
        .parse::<u64>()
        .map_err(|e| CliError::Usage(format!("bad value for {name}: {e}\n{USAGE}")))
}

fn parse_opts(args: &[String]) -> Result<Opts, CliError> {
    let mut opts = Opts {
        deadline_ms: None,
        positional: Vec::new(),
        help: false,
        json: false,
        engine: "kernel".to_string(),
        profile: None,
        fuzz: fuzz::FuzzOpts::default(),
        bench: bench::BenchOpts::default(),
        chaos: chaos::ChaosOpts::default(),
        service: service_cmd::ServiceOpts::default(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-h" | "--help" | "help" => opts.help = true,
            "--json" => opts.json = true,
            "--quick" => opts.bench.quick = true,
            "--deadline-ms" => opts.deadline_ms = Some(next_u64(&mut it, "--deadline-ms")?),
            "--cases" => opts.fuzz.cases = next_u64(&mut it, "--cases")?,
            "--seed" => {
                let seed = next_u64(&mut it, "--seed")?;
                opts.fuzz.seed = seed;
                opts.chaos.seed = seed;
                opts.service.seed = seed;
            }
            "--inject-broken-retiming" => opts.fuzz.inject_broken_retiming = true,
            "--threads" => {
                let list = next_value(&mut it, "--threads")?;
                let mut parsed = Vec::new();
                for part in list.split(',') {
                    let t: usize = part.trim().parse().map_err(|e| {
                        CliError::Usage(format!("bad value for --threads: {part:?}: {e}\n{USAGE}"))
                    })?;
                    if t == 0 {
                        return Err(CliError::Usage(format!(
                            "--threads entries must be >= 1\n{USAGE}"
                        )));
                    }
                    parsed.push(t);
                }
                if parsed.is_empty() || parsed.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(CliError::Usage(format!(
                        "--threads must be a non-empty, strictly increasing list\n{USAGE}"
                    )));
                }
                opts.bench.threads = Some(parsed);
            }
            "--compare" => {
                let a = next_value(&mut it, "--compare")?.to_string();
                let b = next_value(&mut it, "--compare")?.to_string();
                opts.bench.compare = Some((a, b));
            }
            "--tolerance" => {
                let x = next_value(&mut it, "--tolerance")?;
                let x: f64 = x.parse().map_err(|e| {
                    CliError::Usage(format!("bad value for --tolerance: {e}\n{USAGE}"))
                })?;
                opts.bench.tolerance = Some(x);
            }
            "--engine" => opts.engine = next_value(&mut it, "--engine")?.to_string(),
            "--out" => {
                let path = next_value(&mut it, "--out")?.to_string();
                opts.bench.out = Some(path.clone());
                opts.chaos.out = Some(path.clone());
                opts.service.out = Some(path);
            }
            "--check" => {
                let path = next_value(&mut it, "--check")?.to_string();
                opts.bench.check = Some(path.clone());
                opts.chaos.check = Some(path.clone());
                opts.service.check = Some(path);
            }
            "--examples" => {
                let dir = next_value(&mut it, "--examples")?.to_string();
                opts.chaos.examples = dir.clone();
                opts.service.examples = dir;
            }
            "--workers" => opts.service.workers = next_u64(&mut it, "--workers")? as usize,
            "--queue" => opts.service.queue_depth = next_u64(&mut it, "--queue")? as usize,
            "--cache-cap" => {
                opts.service.cache_capacity = next_u64(&mut it, "--cache-cap")? as usize
            }
            "--cache-dir" => {
                opts.service.cache_dir = Some(next_value(&mut it, "--cache-dir")?.to_string())
            }
            "--cache-sync" => {
                opts.service.cache_sync = next_value(&mut it, "--cache-sync")?.to_string()
            }
            "--chaos" => opts.service.chaos = true,
            "--shards" => opts.service.shards = next_u64(&mut it, "--shards")? as u32,
            "--batch" => opts.service.batch = true,
            "--socket" => opts.service.socket = Some(next_value(&mut it, "--socket")?.to_string()),
            "--requests" => opts.service.requests = next_u64(&mut it, "--requests")?,
            "--concurrency" => {
                opts.service.concurrency = next_u64(&mut it, "--concurrency")? as usize
            }
            "--profile" => opts.profile = Some(profile::DEFAULT_PROFILE_PATH.to_string()),
            f if f.starts_with("--profile=") => {
                let path = &f["--profile=".len()..];
                if path.is_empty() {
                    return Err(CliError::Usage(format!(
                        "--profile= requires a path\n{USAGE}"
                    )));
                }
                opts.profile = Some(path.to_string());
            }
            f if f.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown option {f:?}\n{USAGE}")))
            }
            _ => opts.positional.push(a.clone()),
        }
    }
    Ok(opts)
}

fn dispatch(args: &[String]) -> Result<String, CliError> {
    let opts = parse_opts(args)?;
    if opts.help {
        return Ok(format!("{USAGE}\n"));
    }
    let mut budget = Budget::unlimited();
    if let Some(ms) = opts.deadline_ms {
        budget = budget.with_deadline(Duration::from_millis(ms));
    }
    // `--profile` applies to the commands with a phase pipeline worth
    // profiling; anything else is a usage error, not a silent no-op.
    let tool = opts.positional.first().map(String::as_str).unwrap_or("");
    if opts.profile.is_some() && !matches!(tool, "run" | "bench" | "analyze" | "chaos") {
        return Err(CliError::Usage(format!(
            "--profile applies to run, bench, analyze, and chaos\n{USAGE}"
        )));
    }
    let session = opts
        .profile
        .as_ref()
        .map(|path| profile::ProfileSession::new(path, tool, &args.join(" ")));
    let root = match (&session, tool) {
        (Some(s), "run") => s.root("run"),
        (Some(s), "bench") => s.root("bench"),
        (Some(s), "analyze") => s.root("analyze"),
        (Some(s), "chaos") => s.root("chaos"),
        _ => Span::disabled(),
    };

    let out = match opts.positional.as_slice() {
        #[cfg(test)]
        [cmd] if cmd == "__panic__" => panic!("deliberate test panic"),
        [cmd] if cmd == "suite" => cmd_suite(&budget),
        [cmd] if cmd == "bench" => {
            bench::run(&opts.bench, opts.json, opts.deadline_ms, &budget, &root)
        }
        [cmd] if cmd == "fuzz" => fuzz::run(&opts.fuzz, &budget),
        [cmd] if cmd == "chaos" => chaos::run(&opts.chaos, opts.json, &root),
        [cmd] if cmd == "loadgen" => service_cmd::loadgen(&opts.service, opts.json),
        [cmd, socket] if cmd == "serve" => service_cmd::serve(socket, &opts.service),
        [cmd, endpoint] if cmd == "route" => route_cmd::route(endpoint, &opts.service),
        [cmd, socket, action, rest @ ..] if cmd == "client" => {
            service_cmd::client(socket, action, rest, &opts.engine, opts.deadline_ms)
        }
        [cmd, path] if cmd == "profile-check" => profile::check_file(path),
        [cmd, path, rest @ ..] => {
            if cmd == "lint" {
                cmd_lint(path, opts.json)
            } else {
                let input = load_file(path, &root)?;
                match cmd.as_str() {
                    "analyze" => cmd_analyze(&input, &budget, opts.json, &root),
                    "fuse" => cmd_fuse(&input, &budget),
                    "codegen" => cmd_codegen(&input, &budget),
                    "partial" => cmd_partial(&input),
                    "explain" => cmd_explain(&input),
                    "dot" => cmd_dot(&input),
                    "simulate" | "run" | "verify" => {
                        let parse_dim = |s: &String| {
                            s.parse::<i64>()
                                .map_err(|e| CliError::Usage(format!("bad bound {s:?}: {e}")))
                        };
                        let n = rest
                            .first()
                            .map(parse_dim)
                            .transpose()?
                            .unwrap_or(VERIFY_DEFAULT_BOUNDS.0);
                        let m = rest
                            .get(1)
                            .map(parse_dim)
                            .transpose()?
                            .unwrap_or(VERIFY_DEFAULT_BOUNDS.1);
                        match cmd.as_str() {
                            "run" => cmd_run(&input, n, m, &opts.engine, &budget, &root),
                            "verify" => cmd_verify(&input, n, m, opts.json, &budget),
                            _ => cmd_simulate(&input, n, m, &budget),
                        }
                    }
                    other => Err(CliError::Usage(format!(
                        "unknown command {other:?}\n{USAGE}"
                    ))),
                }
            }
        }
        _ => Err(CliError::Usage(USAGE.to_string())),
    }?;

    root.finish();
    if let Some(session) = session {
        eprint!("{}", session.finish()?);
    }
    Ok(out)
}

/// Runs the CLI with panic isolation: a panic anywhere below becomes a
/// structured internal error (exit 1) instead of an abort-style crash.
fn run(args: &[String]) -> Result<String, CliError> {
    match catch_unwind(AssertUnwindSafe(|| dispatch(args))) {
        Ok(r) => r,
        Err(payload) => Err(CliError::Internal(format!(
            "internal panic: {}",
            panic_message(payload)
        ))),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(CliError::Lint(report)) => {
            // Diagnostics are the command's product, not an error wrapper:
            // print them plainly on stdout and signal via the exit code.
            print!("{report}");
            ExitCode::from(3)
        }
        Err(e) => {
            eprintln!("mdfuse: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG2_DSL: &str = r#"
        program figure2 {
            arrays a, b, c, d, e;
            do i {
                doall A: j { a[i][j] = e[i-2][j-1]; }
                doall B: j { b[i][j] = a[i-1][j-1] + a[i-2][j-1]; }
                doall C: j {
                    c[i][j] = b[i][j+2] - a[i][j-1] + b[i][j-1];
                    d[i][j] = c[i-1][j];
                }
                doall D: j { e[i][j] = c[i][j+1]; }
            }
        }
    "#;

    const FIG2_MLDG: &str = "mldg fig2\nnode A\nnode B\nnode C\nnode D\n\
        edge A -> B : (1,1) (2,1)\nedge B -> C : (0,-2) (0,1)\n\
        edge C -> D : (0,-1)\nedge A -> C : (0,1)\n\
        edge D -> A : (2,1)\nedge C -> C : (1,0)\n";

    #[test]
    fn load_autodetects_both_formats() {
        let dsl = load(FIG2_DSL).unwrap();
        assert!(dsl.program.is_some());
        assert_eq!(dsl.graph.edge_count(), 6);
        let text = load(FIG2_MLDG).unwrap();
        assert!(text.program.is_none());
        assert_eq!(text.graph.edge_count(), 6);
    }

    #[test]
    fn analyze_and_fuse_render() {
        let input = load(FIG2_DSL).unwrap();
        let a = cmd_analyze(&input, &Budget::unlimited(), false, &Span::disabled()).unwrap();
        assert!(a.contains("full parallel (Alg 4, cyclic)"));
        // The certificates section statically certifies the plan.
        assert!(a.contains("info[MDF005]"), "{a}");
        assert!(a.contains("info[MDF001]"), "{a}");
        assert!(a.contains("note[MDF009]"), "{a}");
        let f = cmd_fuse(&input, &Budget::unlimited()).unwrap();
        assert!(f.contains("DOALL J"));
        assert!(f.contains("r(C)=(-1,0)"));
    }

    #[test]
    fn analyze_mldg_only_skips_race_certification() {
        let input = load(FIG2_MLDG).unwrap();
        let a = cmd_analyze(&input, &Budget::unlimited(), false, &Span::disabled()).unwrap();
        assert!(a.contains("info[MDF005]"), "{a}");
        assert!(a.contains("warning[MDF007]"), "{a}");
        assert!(a.contains("no array subscripts"), "{a}");
    }

    #[test]
    fn analyze_json_emits_machine_readable_diagnostics() {
        let input = load(FIG2_DSL).unwrap();
        let a = cmd_analyze(&input, &Budget::unlimited(), true, &Span::disabled()).unwrap();
        assert!(a.trim_start().starts_with('{'), "{a}");
        assert!(a.contains("\"code\": \"MDF001\""), "{a}");
        assert!(a.contains("\"errors\": 0"), "{a}");
        // The bytecode certificate rides along as its own section.
        assert!(a.contains("\"bytecode\": {"), "{a}");
        assert!(a.contains("\"verified\": true"), "{a}");
        assert!(a.contains("MDF200"), "{a}");
        // MLDG-only input has no bytecode; the section is absent.
        let mldg = load(FIG2_MLDG).unwrap();
        let a = cmd_analyze(&mldg, &Budget::unlimited(), true, &Span::disabled()).unwrap();
        assert!(!a.contains("\"bytecode\""), "{a}");
    }

    #[test]
    fn verify_certifies_the_lowered_bytecode() {
        let input = load(FIG2_DSL).unwrap();
        let out = cmd_verify(&input, 16, 16, false, &Budget::unlimited()).unwrap();
        assert!(out.contains("info[MDF200]"), "{out}");
        assert!(out.contains("disjointness pair(s) checked"), "{out}");
        assert!(!out.contains("unchecked"), "{out}");
        let json = cmd_verify(&input, 16, 16, true, &Budget::unlimited()).unwrap();
        assert!(json.contains("\"bytecode\": {"), "{json}");
        assert!(json.contains("\"verified\": true"), "{json}");
        assert!(json.contains("\"mode\": \"rows\""), "{json}");
        // Graph-only input cannot be verified: usage error.
        let mldg = load(FIG2_MLDG).unwrap();
        let err = cmd_verify(&mldg, 4, 4, false, &Budget::unlimited()).unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn lint_flags_unused_array_with_exit_0_for_warnings() {
        let dir = std::env::temp_dir().join("mdfuse-lint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unused.mdf");
        std::fs::write(
            &path,
            "program p {\n  arrays a, b, zzz;\n  do i {\n    doall A: j { a[i][j] = 1; }\n\
             \x20   doall B: j { b[i][j] = a[i][j]; }\n  }\n}\n",
        )
        .unwrap();
        // Warnings render but are not an error exit.
        let out = cmd_lint(path.to_str().unwrap(), false).unwrap();
        assert!(out.contains("warning[MDF101]"), "{out}");
        assert!(out.contains("zzz"), "{out}");
    }

    #[test]
    fn lint_error_exits_3_via_lint_variant() {
        let dir = std::env::temp_dir().join("mdfuse-lint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("conflict.mdf");
        // A loop that reads its own write one j over is not DOALL: MDF107.
        std::fs::write(
            &path,
            "program p {\n  arrays a, b;\n  do i {\n    doall A: j {\n\
             \x20     a[i][j] = 1;\n      b[i][j] = a[i][j+1];\n    }\n  }\n}\n",
        )
        .unwrap();
        let err = cmd_lint(path.to_str().unwrap(), false).unwrap_err();
        assert_eq!(err.exit_code(), 3);
        let CliError::Lint(report) = err else {
            panic!("expected Lint");
        };
        assert!(report.contains("error[MDF107]"), "{report}");
    }

    #[test]
    fn lint_rejects_mldg_input() {
        let dir = std::env::temp_dir().join("mdfuse-lint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("graph.mldg");
        std::fs::write(&path, FIG2_MLDG).unwrap();
        let err = cmd_lint(path.to_str().unwrap(), false).unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn codegen_requires_program() {
        let input = load(FIG2_MLDG).unwrap();
        assert!(cmd_codegen(&input, &Budget::unlimited()).is_err());
        let input = load(FIG2_DSL).unwrap();
        assert!(cmd_codegen(&input, &Budget::unlimited())
            .unwrap()
            .contains("c[I-1][J]"));
    }

    #[test]
    fn simulate_reports_sync_reduction() {
        let input = load(FIG2_DSL).unwrap();
        let s = cmd_simulate(&input, 10, 10, &Budget::unlimited()).unwrap();
        assert!(s.contains("44 (original) -> 12 (fused)"), "{s}");
    }

    #[test]
    fn run_executes_both_engines_with_identical_results() {
        let input = load(FIG2_DSL).unwrap();
        let k = cmd_run(
            &input,
            12,
            12,
            "kernel",
            &Budget::unlimited(),
            &Span::disabled(),
        )
        .unwrap();
        assert!(k.contains("results identical"), "{k}");
        // The planner's certified plan runs its certified rows.
        assert!(k.contains("engine kernel/rows-doall)"), "{k}");
        let i = cmd_run(
            &input,
            12,
            12,
            "interp",
            &Budget::unlimited(),
            &Span::disabled(),
        )
        .unwrap();
        assert!(i.contains("engine interp"), "{i}");
        // Same schedule, same synchronization count, same fingerprint.
        let fp = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("fingerprint:"))
                .map(str::to_string)
        };
        assert_eq!(fp(&k), fp(&i));
        assert!(k.contains("52 (original) -> 14 (fused)"), "{k}");
        assert!(cmd_run(&input, 4, 4, "jit", &Budget::unlimited(), &Span::disabled()).is_err());
        let mldg = load(FIG2_MLDG).unwrap();
        assert!(cmd_run(
            &mldg,
            4,
            4,
            "kernel",
            &Budget::unlimited(),
            &Span::disabled()
        )
        .is_err());
    }

    #[test]
    fn bench_quick_json_round_trips_through_check() {
        let dir = std::env::temp_dir().join("mdfuse-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_fusion.json");
        let out = run(&[
            "bench".into(),
            "--quick".into(),
            "--json".into(),
            "--threads".into(),
            "1,2".into(),
            "--out".into(),
            path.to_str().unwrap().to_string(),
        ])
        .unwrap();
        assert!(out.contains("\"schema_version\": 4"), "{out}");
        assert!(out.contains("\"threads\": [1, 2]"), "{out}");
        assert!(out.contains("\"complete\": true"), "{out}");
        assert!(out.contains("\"degradation\""), "{out}");
        assert!(out.contains("\"barriers\": { \"unfused\""), "{out}");
        assert!(out.contains("\"engine\": \"verified\""), "{out}");
        assert!(out.contains("\"median\""), "{out}");
        let checked = run(&[
            "bench".into(),
            "--check".into(),
            path.to_str().unwrap().into(),
        ])
        .unwrap();
        assert!(
            checked.contains("valid BENCH_fusion schema v4"),
            "{checked}"
        );
        // Comparing a report against itself is the no-regression base
        // case; a garbled threads list is a usage error.
        let compared = run(&[
            "bench".into(),
            "--compare".into(),
            path.to_str().unwrap().into(),
            path.to_str().unwrap().into(),
        ])
        .unwrap();
        assert!(
            compared.contains("no regressions past tolerance"),
            "{compared}"
        );
        let err = run(&["bench".into(), "--threads".into(), "2,1".into()]).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        // A corrupted report fails the check with exit code 3.
        std::fs::write(&path, "{\"schema_version\": 99}").unwrap();
        let err = run(&[
            "bench".into(),
            "--check".into(),
            path.to_str().unwrap().into(),
        ])
        .unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
    }

    #[test]
    fn partial_command_reports_clusters() {
        let input = load(FIG2_DSL).unwrap();
        let out = cmd_partial(&input).unwrap();
        assert!(out.contains("1 cluster(s)"), "{out}");
        assert!(out.contains("A, B, C, D"), "{out}");
    }

    #[test]
    fn explain_command_walks_the_derivation() {
        let input = load(FIG2_DSL).unwrap();
        let out = cmd_explain(&input).unwrap();
        assert!(out.contains("Algorithm 4"), "{out}");
        assert!(out.contains("independent verification"), "{out}");
    }

    #[test]
    fn dot_works_for_both() {
        for src in [FIG2_DSL, FIG2_MLDG] {
            let input = load(src).unwrap();
            assert!(cmd_dot(&input).unwrap().starts_with("digraph"));
        }
    }

    #[test]
    fn suite_runs() {
        let out = cmd_suite(&Budget::unlimited()).unwrap();
        for id in ["E1", "E2", "E3", "E4", "E5"] {
            assert!(out.contains(id), "{out}");
        }
        assert!(out.contains("hyperplane"));
    }

    #[test]
    fn bad_input_is_reported() {
        assert!(load("garbage").is_err());
        assert!(run(&["bogus".into(), "x".into()]).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn help_prints_usage_on_stdout() {
        let out = run(&["--help".into()]).unwrap();
        assert!(out.contains("exit codes"), "{out}");
        assert!(out.contains("fuzz"), "{out}");
    }

    #[test]
    fn exit_codes_are_classified() {
        assert_eq!(CliError::Usage("x".into()).exit_code(), 2);
        assert_eq!(CliError::Mdf(MdfError::parse(1, 1, "x")).exit_code(), 3);
        assert_eq!(CliError::Mdf(MdfError::invalid("x")).exit_code(), 3);
        assert_eq!(CliError::Mdf(MdfError::NotAcyclic).exit_code(), 4);
        assert_eq!(
            CliError::Mdf(MdfError::BudgetExceeded {
                resource: mdf_graph::BudgetResource::Nodes,
                limit: 1,
                used: 2,
            })
            .exit_code(),
            5
        );
        assert_eq!(CliError::Mdf(MdfError::exec(0, 0, "x")).exit_code(), 1);
        assert_eq!(CliError::Internal("x".into()).exit_code(), 1);

        // An infeasible input surfaces as exit 4 end to end.
        let infeasible = "mldg bad\nnode A\nnode B\n\
            edge A -> B : (0,1)\nedge B -> A : (0,-2)\n";
        let input = load(infeasible).unwrap();
        let err = cmd_fuse(&input, &Budget::unlimited()).unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");

        // Parse errors surface as exit 3 end to end.
        let err = match load("mldg\n") {
            Err(e) => e,
            Ok(_) => panic!("truncated header must not parse"),
        };
        assert_eq!(err.exit_code(), 3, "{err}");
    }

    #[test]
    fn budget_trip_maps_to_exit_5() {
        let input = load(FIG2_MLDG).unwrap();
        let budget = Budget::unlimited().with_max_graph(1, 1);
        let err = cmd_fuse(&input, &budget).unwrap_err();
        assert_eq!(err.exit_code(), 5, "{err}");
        match err {
            CliError::Mdf(MdfError::BudgetExceeded { .. }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn panics_become_internal_errors() {
        // A panic below dispatch() must be converted to exit 1, not abort.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = run(&["__panic__".into()]);
        std::panic::set_hook(prev);
        match r {
            Err(CliError::Internal(m)) => {
                assert!(m.contains("deliberate test panic"), "{m}");
                assert_eq!(CliError::Internal(m).exit_code(), 1);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
}

//! `mdfuse bench` — the fusion benchmark: interpreter vs compiled kernel
//! vs the planning baselines, across the executable `mdf-gen` suites.
//!
//! Each suite entry is planned once, then executed by four engines on
//! the same bounds:
//!
//! * `unfused`  — the reference interpreter running the original loop
//!   sequence (`run_original_budgeted`), the speedup denominator;
//! * `interp`   — the fused tree-walking interpreter (row serialization
//!   or wavefront order, per the plan);
//! * `kernel`   — the compiled engine from `mdf-kernel`, in the mode the
//!   race certificate licenses;
//! * `verified` — the same compiled kernel and the same body, timed
//!   after the static bytecode verifier accepted its lowering (a
//!   [`mdf_kernel::BytecodeCert`]). The verifier rejecting planner
//!   output is an internal error, not a report row.
//!
//! Every engine's final memory fingerprint must match `unfused`; a
//! mismatch is an internal error, not a report row. The `mdf-baselines`
//! crate contributes the planning-level context per suite: the cluster
//! and synchronization counts direct (no-retiming) fusion would reach,
//! against which the paper's full-fusion sync counts are judged.
//!
//! The report is schema-versioned JSON (`BENCH_fusion.json`, schema v4),
//! built as a `Json` value and checked against [`SCHEMA`]'s shape rules
//! before it is written; `--check` and `--compare` read files through the
//! same schema, so CI can gate on schema drift. Under `--deadline-ms` the
//! bench degrades to a partial report (`"complete": false`) instead of
//! hanging: whatever finished before the deadline is still emitted.
//!
//! Schema v2 adds a per-suite `degradation` record so contaminated
//! numbers are distinguishable from clean ones: `serial_fallback` (a
//! failed certificate sent the kernel to the serial `RowsSerial` sweep),
//! `plan_degradations` (ladder rungs the planner fell past),
//! and `retries` (chunk retries by the supervising executor; the plain
//! bench path never retries, so nonzero marks a perturbed measurement).
//!
//! Schema v3 adds the `verified` engine row (now the `kernel` row's body
//! timed again, since every drive proves its own bounds and one body
//! runs either way) and `phases.verify_ms`, the one-shot cost of running
//! the static verifier over the lowered bytecode.
//!
//! Schema v4 turns each suite into a **threads × engine matrix**: the
//! top-level `threads` field is the worker-count list (`--threads`,
//! default `1,2,4`), and every suite carries one `matrix` row per entry,
//! each with all four engine rows re-measured under that worker count
//! (`rayon::with_workers`). Wall time becomes a statistics record
//! `{min, median, stddev}` over the timed runs after an untimed warmup,
//! and the suite gains a `barriers` accounting block distinguishing the
//! pre-elision front count from the post-elision synchronization count:
//! `{unfused, fused_fronts, fused_synced, elided}` with
//! `elided = fused_fronts - fused_synced` enforced by the schema.
//! `speedup_vs_unfused` and `cells_per_s` are derived from the **min**
//! wall (the least-noise estimator: preemption only ever adds time).
//! `--compare A B [--tolerance X]` A/B-compares two reports cell by cell
//! on `speedup_vs_unfused` and fails (exit 3) when the candidate
//! regresses past the tolerance.
//!
//! Reports also record the host they ran on, `"host": {"cores": N}` from
//! `available_parallelism`, so thread-scaling rows can be read against
//! the cores that were there. The field is optional within v4: the
//! schema checks it only when present.

use std::fmt::Write as _;
use std::time::Instant;

use mdf_baselines::{direct_fusion, DirectPolicy};
use mdf_core::{plan_fusion_traced, DegradedPlan, FusionPlan};
use mdf_graph::{Budget, BudgetMeter, MdfError};
use mdf_ir::retgen::FusedSpec;
use mdf_kernel::CompiledKernel;
use mdf_sim::{
    align_plan_to_program, run_original_budgeted, run_traversal_supervised, ExecStats, RetryPolicy,
    Traversal,
};
use mdf_trace::json::{object, round, Field, Json, Presence, Schema, Type as T};
use mdf_trace::Span;

use crate::CliError;

/// Version stamp of the `BENCH_fusion.json` schema.
pub(crate) const SCHEMA_VERSION: u64 = 4;

/// Worker counts measured when `--threads` is not given.
pub(crate) const DEFAULT_THREADS: &[usize] = &[1, 2, 4];

/// Allowed relative `speedup_vs_unfused` regression in compare mode when
/// `--tolerance` is not given.
pub(crate) const DEFAULT_TOLERANCE: f64 = 0.15;

/// Options for the `bench` subcommand.
#[derive(Default)]
pub(crate) struct BenchOpts {
    /// Small bounds, single repetition (`--quick`): the CI smoke shape.
    pub quick: bool,
    /// Write the JSON report to this path (`--out`).
    pub out: Option<String>,
    /// Validate an existing report instead of benchmarking (`--check`).
    pub check: Option<String>,
    /// Worker counts for the matrix (`--threads LIST`); defaults to
    /// [`DEFAULT_THREADS`].
    pub threads: Option<Vec<usize>>,
    /// A/B-compare two report files instead of benchmarking
    /// (`--compare A B`): A is the candidate, B the baseline.
    pub compare: Option<(String, String)>,
    /// Tolerance for compare mode (`--tolerance`); defaults to
    /// [`DEFAULT_TOLERANCE`].
    pub tolerance: Option<f64>,
}

/// Wall-time statistics over the timed repetitions of one engine run.
struct WallStats {
    min: f64,
    median: f64,
    stddev: f64,
}

impl WallStats {
    fn from_samples(samples: &mut [f64]) -> WallStats {
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let median = if n % 2 == 1 {
            samples[n / 2]
        } else {
            (samples[n / 2 - 1] + samples[n / 2]) / 2.0
        };
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        WallStats {
            min: samples[0],
            median,
            stddev: var.sqrt(),
        }
    }
}

/// One engine's measurement in one matrix cell.
struct EngineRow {
    engine: &'static str,
    wall: WallStats,
    cells_per_s: f64,
    speedup: f64,
    barriers: u64,
    fingerprint: u64,
}

/// All four engines measured under one worker count.
struct MatrixRow {
    threads: usize,
    engines: Vec<EngineRow>,
}

/// Synchronization accounting for one suite: how many barriers the
/// unfused program runs, how many fronts the fused schedule has before
/// elision, how many synchronizations actually execute after it, and
/// the difference the elision certificate removed.
struct BarrierCounts {
    unfused: u64,
    fused_fronts: u64,
    fused_synced: u64,
    elided: u64,
}

/// Wall time of the planning-side phases of one suite, measured directly
/// (always present in the report, independent of `--profile`).
struct PhaseBreakdown {
    plan_ms: f64,
    certify_ms: f64,
    lower_ms: f64,
    verify_ms: f64,
}

/// What (if anything) degraded while producing one suite's numbers.
struct Degradation {
    /// A failed certificate sent the kernel to the serial `RowsSerial`
    /// sweep. Perf numbers measure the fallback, not the parallel engine.
    serial_fallback: bool,
    /// Ladder rungs the planner fell past before this plan.
    plan_degradations: u64,
    /// Chunk retries by the supervising executor. The plain bench path
    /// never retries; nonzero marks a perturbed measurement.
    retries: u64,
}

/// One suite entry's results.
struct SuiteRow {
    id: String,
    n: i64,
    m: i64,
    plan: String,
    baseline_clusters: usize,
    baseline_syncs: i64,
    cells: u64,
    degradation: Degradation,
    phases: PhaseBreakdown,
    barriers: BarrierCounts,
    matrix: Vec<MatrixRow>,
}

/// The whole report.
struct BenchReport {
    threads: Vec<usize>,
    /// The host's available parallelism when the report was taken.
    host_cores: usize,
    quick: bool,
    deadline_ms: Option<u64>,
    complete: bool,
    suites: Vec<SuiteRow>,
}

fn plan_label(plan: &FusionPlan) -> String {
    match plan {
        FusionPlan::FullParallel { .. } => "full_parallel".into(),
        FusionPlan::Hyperplane { wavefront, .. } => format!(
            "hyperplane(s=({},{}))",
            wavefront.schedule.x, wavefront.schedule.y
        ),
    }
}

/// A boxed engine driver: runs once under the given meter and returns
/// the final fingerprint plus execution counters.
type EngineBody<'a> = Box<dyn FnMut(&mut BudgetMeter) -> Result<(u64, ExecStats), MdfError> + 'a>;

/// One engine's timing body plus its interleaved measurements: the last
/// run's fingerprint and counters, and one wall sample per rep.
struct EngineSamples<'a> {
    engine: &'static str,
    body: EngineBody<'a>,
    fingerprint: u64,
    stats: ExecStats,
    samples: Vec<f64>,
}

/// Times every engine under one pinned worker count, **interleaved**: one
/// untimed warmup apiece, then `reps` passes that time each engine once,
/// back to back. A host noise epoch (CPU steal, a frequency dip) that
/// spans a pass inflates all four of its samples together, so the
/// per-rep unfused/engine ratios the speedups are computed from are
/// largely immune to it — measuring each engine's reps in a contiguous
/// block was measurably (>20% cell drift run-to-run) worse.
fn time_row(
    reps: u32,
    threads: usize,
    budget: &Budget,
    engines: &mut [EngineSamples],
) -> Result<(), MdfError> {
    rayon::with_workers(threads, || {
        for e in engines.iter_mut() {
            (e.body)(&mut budget.meter())?;
        }
        for _ in 0..reps {
            for e in engines.iter_mut() {
                let mut meter = budget.meter();
                let t0 = Instant::now();
                let (fp, stats) = (e.body)(&mut meter)?;
                e.samples.push(t0.elapsed().as_secs_f64() * 1e3);
                e.fingerprint = fp;
                e.stats = stats;
            }
        }
        Ok(())
    })
}

/// The speedup estimator: the median over reps of the *paired* per-rep
/// ratio `unfused[r] / engine[r]`. Pairing (see [`time_row`]) makes a
/// multiplicative noise epoch cancel out of each ratio; the median then
/// shrugs off the reps where it did not. This is what the compare gate's
/// tolerance thresholds, so stability matters more than any single-number
/// wall estimate — `wall_ms` keeps `{min, median, stddev}` for those.
fn paired_speedup(unfused: &[f64], engine: &[f64]) -> f64 {
    let mut ratios: Vec<f64> = unfused
        .iter()
        .zip(engine)
        .map(|(u, e)| u / e.max(1e-9))
        .collect();
    WallStats::from_samples(&mut ratios).median
}

fn engine_row(e: &EngineSamples, unfused_samples: &[f64]) -> EngineRow {
    let mut samples = e.samples.clone();
    let wall = WallStats::from_samples(&mut samples);
    let secs = (wall.min / 1e3).max(1e-9);
    EngineRow {
        engine: e.engine,
        cells_per_s: e.stats.stmt_instances as f64 / secs,
        speedup: paired_speedup(unfused_samples, &e.samples),
        barriers: e.stats.barriers,
        fingerprint: e.fingerprint,
        wall,
    }
}

/// Measures one suite entry across the whole thread matrix. `Err`
/// carries typed pipeline errors upward; budget trips are routed by the
/// caller into a partial report.
fn bench_entry(
    entry: &mdf_gen::SuiteEntry,
    n: i64,
    m: i64,
    reps: u32,
    threads: &[usize],
    budget: &Budget,
    span: &Span,
) -> Result<Option<SuiteRow>, MdfError> {
    let Some(p) = &entry.program else {
        return Ok(None);
    };
    let ms = |t0: Instant| t0.elapsed().as_secs_f64() * 1e3;

    let plan_span = span.child("plan");
    let t0 = Instant::now();
    let report = plan_fusion_traced(&entry.graph, budget, &plan_span)?;
    let plan_ms = ms(t0);
    plan_span.finish();
    let DegradedPlan::Fused(plan) = &report.plan else {
        return Ok(None);
    };
    let plan = align_plan_to_program(&entry.graph, p, plan)
        .ok_or_else(|| MdfError::invalid("suite program is not a realization of its graph"))?;
    let spec = FusedSpec::new(p.clone(), plan.retiming().offsets().to_vec());

    let lower_span = span.child("lower");
    let t0 = Instant::now();
    let mode = mdf_kernel::plan_mode_traced(&spec, &plan, &lower_span);
    let certify_ms = ms(t0);
    let t0 = Instant::now();
    let kernel = CompiledKernel::compile_traced(&spec, n, m, &lower_span)?;
    let lower_ms = ms(t0);
    // The verified row times the same kernel once the static verifier
    // accepts its lowering. Planner output the verifier rejects is a
    // pipeline bug, so it surfaces as an internal error rather than a
    // missing row.
    let t0 = Instant::now();
    if let Err(diags) = mdf_analyze::bytecode::verify(&kernel.vm_image(mode)) {
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        return Err(MdfError::exec(
            0,
            0,
            format!(
                "bytecode verifier rejected planner output on {}: {codes:?}",
                entry.id
            ),
        ));
    }
    let verify_ms = ms(t0);
    lower_span.finish();

    let baseline = direct_fusion(&entry.graph, DirectPolicy::PreserveParallelism)
        .ok_or_else(|| MdfError::invalid("suite graph has no textual order"))?;

    let exec_span = span.child("execute");
    let mut matrix = Vec::with_capacity(threads.len());
    let mut barriers = None;
    let mut cells = 0;
    for &t in threads {
        let mut engines = [
            EngineSamples {
                engine: "unfused",
                body: Box::new(|meter| {
                    let (mem, stats) = run_original_budgeted(p, n, m, meter)?;
                    Ok((mem.fingerprint(), stats))
                }),
                fingerprint: 0,
                stats: ExecStats::default(),
                samples: Vec::with_capacity(reps as usize),
            },
            EngineSamples {
                engine: "interp",
                body: Box::new(|meter| {
                    // Timed rows must be whole runs: a partial outcome
                    // converts back to its typed cause here.
                    let traversal = Traversal::of(&plan);
                    let once = RetryPolicy::once();
                    let (mem, stats) =
                        run_traversal_supervised(&spec, traversal, n, m, meter, &once, None)?
                            .into_complete()?;
                    Ok((mem.fingerprint(), stats))
                }),
                fingerprint: 0,
                stats: ExecStats::default(),
                samples: Vec::with_capacity(reps as usize),
            },
            EngineSamples {
                engine: "kernel",
                body: Box::new(|meter| {
                    let (mem, stats) = kernel.run_budgeted(mode, meter)?.into_complete()?;
                    Ok((mem.fingerprint(), stats))
                }),
                fingerprint: 0,
                stats: ExecStats::default(),
                samples: Vec::with_capacity(reps as usize),
            },
            EngineSamples {
                engine: "verified",
                body: Box::new(|meter| {
                    let (mem, stats) = kernel.run_budgeted(mode, meter)?.into_complete()?;
                    Ok((mem.fingerprint(), stats))
                }),
                fingerprint: 0,
                stats: ExecStats::default(),
                samples: Vec::with_capacity(reps as usize),
            },
        ];
        time_row(reps, t, budget, &mut engines)?;

        let ufp = engines[0].fingerprint;
        if engines.iter().any(|e| e.fingerprint != ufp) {
            // Surfaced by the caller as an internal error: the
            // differential contract ("every engine reproduces the
            // original memory image") is the precondition for comparing
            // their timings at all.
            let fps: Vec<String> = engines
                .iter()
                .map(|e| format!("{} {:#x}", e.engine, e.fingerprint))
                .collect();
            return Err(MdfError::exec(
                0,
                0,
                format!(
                    "engine fingerprint mismatch on {} at {t} thread(s): {}",
                    entry.id,
                    fps.join(", ")
                ),
            ));
        }

        if barriers.is_none() {
            // `fused_synced` is the post-elision count the executor
            // actually synchronized on; `fused_fronts` restores the
            // pre-elision hyperplane front count for accounting.
            let (ustats, kstats) = (&engines[0].stats, &engines[2].stats);
            let tp = kernel.tile_plan(mode);
            barriers = Some(BarrierCounts {
                unfused: ustats.barriers,
                fused_fronts: tp.as_ref().map_or(kstats.barriers, |tp| tp.fronts()),
                fused_synced: kstats.barriers,
                elided: tp.as_ref().map_or(0, |tp| tp.elided()),
            });
            cells = ustats.stmt_instances;
            exec_span.add("kernel.barriers", kstats.barriers);
            exec_span.add("kernel.instances", kstats.stmt_instances);
        }

        let unfused_samples = engines[0].samples.clone();
        matrix.push(MatrixRow {
            threads: t,
            engines: engines
                .iter()
                .map(|e| engine_row(e, &unfused_samples))
                .collect(),
        });
    }
    exec_span.finish();
    let Some(barriers) = barriers else {
        return Err(MdfError::invalid(
            "bench requires at least one thread count",
        ));
    };

    Ok(Some(SuiteRow {
        id: entry.id.to_string(),
        n,
        m,
        plan: plan_label(&plan),
        baseline_clusters: baseline.cluster_count(),
        baseline_syncs: baseline.sync_count(n),
        cells,
        degradation: Degradation {
            serial_fallback: mode == mdf_kernel::ExecMode::RowsSerial,
            plan_degradations: report.attempts.len().saturating_sub(1) as u64,
            retries: 0,
        },
        phases: PhaseBreakdown {
            plan_ms,
            certify_ms,
            lower_ms,
            verify_ms,
        },
        barriers,
        matrix,
    }))
}

/// Runs the benchmark across the executable suite; stops early on a
/// budget trip and marks the report incomplete.
fn collect(
    quick: bool,
    threads: &[usize],
    deadline_ms: Option<u64>,
    budget: &Budget,
    span: &Span,
) -> Result<BenchReport, CliError> {
    let (n, m) = if quick { (48, 48) } else { (192, 192) };
    // Enough reps that the per-engine min wall converges: ratios of mins
    // are what the compare gate thresholds, so the rep count is the
    // noise-floor knob. The workloads are sub-10ms, so even the full
    // matrix stays in low single-digit seconds.
    let reps = if quick { 5 } else { 15 };
    let mut report = BenchReport {
        threads: threads.to_vec(),
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        quick,
        deadline_ms,
        complete: true,
        suites: Vec::new(),
    };
    for entry in mdf_gen::executable_suite() {
        let suite_span = span.child(entry.id);
        let outcome = bench_entry(&entry, n, m, reps, threads, budget, &suite_span);
        suite_span.finish();
        match outcome {
            Ok(Some(row)) => report.suites.push(row),
            Ok(None) => {}
            Err(MdfError::BudgetExceeded { .. }) => {
                report.complete = false;
                break;
            }
            Err(e @ MdfError::Exec { .. }) => {
                return Err(CliError::Internal(e.to_string()));
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(report)
}

/// The report as a JSON document.
fn report_json(r: &BenchReport) -> Json {
    let engine = |e: &EngineRow| {
        let wall = object([
            ("min", round(e.wall.min, 4)),
            ("median", round(e.wall.median, 4)),
            ("stddev", round(e.wall.stddev, 4)),
        ]);
        object([
            ("engine", Json::from(e.engine)),
            ("wall_ms", wall),
            ("cells_per_s", round(e.cells_per_s, 0)),
            ("speedup_vs_unfused", round(e.speedup, 3)),
            ("barriers", e.barriers.into()),
            ("fingerprint", Json::Str(format!("{:#x}", e.fingerprint))),
        ])
    };
    let suite = |s: &SuiteRow| {
        let (d, p, b) = (&s.degradation, &s.phases, &s.barriers);
        let baseline = object([
            ("policy", Json::from("direct_preserve_parallelism")),
            ("clusters", s.baseline_clusters.into()),
            ("syncs", Json::Num(s.baseline_syncs as f64)),
        ]);
        let degradation = object([
            ("serial_fallback", Json::from(d.serial_fallback)),
            ("plan_degradations", d.plan_degradations.into()),
            ("retries", d.retries.into()),
        ]);
        let phases = object([
            ("plan_ms", round(p.plan_ms, 4)),
            ("certify_ms", round(p.certify_ms, 4)),
            ("lower_ms", round(p.lower_ms, 4)),
            ("verify_ms", round(p.verify_ms, 4)),
        ]);
        let barriers = object([
            ("unfused", Json::from(b.unfused)),
            ("fused_fronts", b.fused_fronts.into()),
            ("fused_synced", b.fused_synced.into()),
            ("elided", b.elided.into()),
        ]);
        let matrix = s.matrix.iter().map(|row| {
            let engines = row.engines.iter().map(engine).collect();
            object([("threads", Json::from(row.threads)), ("engines", engines)])
        });
        object([
            ("id", Json::from(s.id.as_str())),
            ("n", Json::Num(s.n as f64)),
            ("m", Json::Num(s.m as f64)),
            ("plan", s.plan.as_str().into()),
            ("baseline", baseline),
            ("cells", s.cells.into()),
            ("degradation", degradation),
            ("phases", phases),
            ("barriers", barriers),
            ("matrix", matrix.collect()),
        ])
    };
    object([
        ("schema_version", Json::from(SCHEMA_VERSION)),
        ("name", "BENCH_fusion".into()),
        ("threads", r.threads.iter().copied().collect()),
        ("host", object([("cores", Json::from(r.host_cores))])),
        ("quick", r.quick.into()),
        ("deadline_ms", r.deadline_ms.map_or(Json::Null, Json::from)),
        ("complete", r.complete.into()),
        ("suites", r.suites.iter().map(suite).collect()),
    ])
}

fn render_human(r: &BenchReport) -> String {
    let mut out = String::new();
    let shape = r
        .suites
        .first()
        .map(|s| format!("{}x{}", s.n + 1, s.m + 1))
        .unwrap_or_else(|| "-".into());
    let threads: Vec<String> = r.threads.iter().map(usize::to_string).collect();
    let _ = writeln!(
        out,
        "BENCH_fusion schema v{SCHEMA_VERSION} (threads {{{}}}, host cores {}, bounds {shape}{}{})",
        threads.join(","),
        r.host_cores,
        if r.quick { ", quick" } else { "" },
        if r.complete { "" } else { ", INCOMPLETE" },
    );
    for s in &r.suites {
        let mut tags = String::new();
        if s.degradation.serial_fallback {
            tags.push_str(" [serial fallback]");
        }
        if s.degradation.plan_degradations > 0 {
            let _ = write!(
                tags,
                " [{} plan degradation(s)]",
                s.degradation.plan_degradations
            );
        }
        if s.degradation.retries > 0 {
            let _ = write!(tags, " [{} retry(ies)]", s.degradation.retries);
        }
        let _ = writeln!(
            out,
            "[{}] plan {}, {} stmt instances; direct-fusion baseline: {} cluster(s), {} sync(s){tags}",
            s.id, s.plan, s.cells, s.baseline_clusters, s.baseline_syncs
        );
        let _ = writeln!(
            out,
            "  barriers: {} unfused; fused {} front(s) -> {} sync(s), {} elided",
            s.barriers.unfused, s.barriers.fused_fronts, s.barriers.fused_synced, s.barriers.elided
        );
        for row in &s.matrix {
            let _ = writeln!(out, "  threads {}:", row.threads);
            for e in &row.engines {
                let _ = writeln!(
                    out,
                    "    {:<8} {:>9.3} ms median (min {:>8.3}, sd {:>7.3})  \
                     {:>10.1} Mcells/s  {:>6.2}x  {:>6} barrier(s)",
                    e.engine,
                    e.wall.median,
                    e.wall.min,
                    e.wall.stddev,
                    e.cells_per_s / 1e6,
                    e.speedup,
                    e.barriers
                );
            }
        }
    }
    if !r.complete {
        let _ = writeln!(
            out,
            "(budget tripped: partial report; remaining suites skipped)"
        );
    }
    out
}

/// Entry point for `mdfuse bench`.
pub(crate) fn run(
    opts: &BenchOpts,
    json: bool,
    deadline_ms: Option<u64>,
    budget: &Budget,
    span: &Span,
) -> Result<String, CliError> {
    if let Some((candidate, baseline)) = &opts.compare {
        return compare_files(
            candidate,
            baseline,
            opts.tolerance.unwrap_or(DEFAULT_TOLERANCE),
        );
    }
    if let Some(path) = &opts.check {
        return check_file(path);
    }
    let threads = match &opts.threads {
        Some(t) => t.clone(),
        None => DEFAULT_THREADS.to_vec(),
    };
    let report = collect(opts.quick, &threads, deadline_ms, budget, span)?;
    let rendered = crate::write_report(&report_json(&report), &SCHEMA, opts.out.as_deref())?;
    if json {
        Ok(rendered)
    } else {
        let mut out = render_human(&report);
        if let Some(path) = &opts.out {
            let _ = writeln!(out, "wrote {path}");
        }
        Ok(out)
    }
}

/// Validates a report file against the schema (exit 3 on violation).
fn check_file(path: &str) -> Result<String, CliError> {
    let (suites, complete) = summary(&crate::read_report(path, &SCHEMA)?);
    Ok(format!(
        "{path}: valid BENCH_fusion schema v{SCHEMA_VERSION} ({suites} suite(s), {})\n",
        if complete { "complete" } else { "partial" }
    ))
}

/// A checked report's suite count and `complete` flag.
fn summary(doc: &Json) -> (usize, bool) {
    (
        doc.get("suites")
            .and_then(Json::arr)
            .map_or(0, <[Json]>::len),
        doc.get("complete").and_then(Json::bool_val) == Some(true),
    )
}

// ---------------------------------------------------------------------
// A/B comparison of two reports.

/// One comparable matrix cell pulled out of a report: suite × shape ×
/// worker count × engine, with its median speedup over unfused.
struct CompareCell {
    suite: String,
    n: f64,
    m: f64,
    threads: f64,
    engine: String,
    speedup: f64,
}

fn extract_cells(doc: &Json) -> Vec<CompareCell> {
    let mut cells = Vec::new();
    let Some(suites) = doc.get("suites").and_then(Json::arr) else {
        return cells;
    };
    for s in suites {
        let (Some(id), Some(n), Some(m)) = (
            s.get("id").and_then(Json::str_val),
            s.get("n").and_then(Json::num),
            s.get("m").and_then(Json::num),
        ) else {
            continue;
        };
        let Some(matrix) = s.get("matrix").and_then(Json::arr) else {
            continue;
        };
        for row in matrix {
            let (Some(threads), Some(engines)) = (
                row.get("threads").and_then(Json::num),
                row.get("engines").and_then(Json::arr),
            ) else {
                continue;
            };
            for e in engines {
                let (Some(engine), Some(speedup)) = (
                    e.get("engine").and_then(Json::str_val),
                    e.get("speedup_vs_unfused").and_then(Json::num),
                ) else {
                    continue;
                };
                if engine == "unfused" {
                    continue; // its speedup is 1.0 by construction
                }
                cells.push(CompareCell {
                    suite: id.to_string(),
                    n,
                    m,
                    threads,
                    engine: engine.to_string(),
                    speedup,
                });
            }
        }
    }
    cells
}

/// Compares candidate report `a` against baseline report `b` cell by
/// cell on `speedup_vs_unfused`. Cells are matched on (suite id, shape,
/// threads, engine); both files must be valid schema-v4 reports and at
/// least one cell must be comparable. Any cell regressing by more than
/// `tolerance` (relative) fails the comparison with exit 3.
fn compare_files(a_path: &str, b_path: &str, tolerance: f64) -> Result<String, CliError> {
    if !(0.0..=1.0).contains(&tolerance) {
        return Err(CliError::Usage(format!(
            "--tolerance must be within [0, 1], got {tolerance}"
        )));
    }
    let cand = crate::read_report(a_path, &SCHEMA)?;
    let base = crate::read_report(b_path, &SCHEMA)?;
    let cand_cells = extract_cells(&cand);
    let base_cells = extract_cells(&base);

    let mut out = String::new();
    let mut compared = 0usize;
    let mut regressions = 0usize;
    for c in &cand_cells {
        let Some(b) = base_cells.iter().find(|b| {
            b.suite == c.suite
                && b.n == c.n
                && b.m == c.m
                && b.threads == c.threads
                && b.engine == c.engine
        }) else {
            continue;
        };
        compared += 1;
        let delta = if b.speedup > 0.0 {
            (c.speedup - b.speedup) / b.speedup
        } else {
            0.0
        };
        let cell = format!(
            "[{} t={} {}] baseline {:.3}x -> candidate {:.3}x ({:+.1}%)",
            c.suite,
            c.threads,
            c.engine,
            b.speedup,
            c.speedup,
            delta * 100.0
        );
        if delta < -tolerance {
            regressions += 1;
            let _ = writeln!(out, "  REGRESSION {cell}");
        } else {
            let _ = writeln!(out, "  ok {cell}");
        }
    }
    if compared == 0 {
        return Err(CliError::Mdf(MdfError::invalid(format!(
            "no comparable cells between {a_path} and {b_path} \
             (suite ids, shapes, or thread lists do not overlap)"
        ))));
    }
    let header = format!(
        "compare {a_path} (candidate) vs {b_path} (baseline): \
         {compared} cell(s), tolerance {:.0}%\n",
        tolerance * 100.0
    );
    if regressions == 0 {
        Ok(format!("{header}{out}no regressions past tolerance\n"))
    } else {
        Err(CliError::Mdf(MdfError::invalid(format!(
            "{header}{out}{regressions} cell(s) regressed past tolerance"
        ))))
    }
}

// ---------------------------------------------------------------------
// The schema.

/// The engine rows of every matrix cell, in order.
const ENGINES: [&str; 4] = ["unfused", "interp", "kernel", "verified"];

/// `BENCH_fusion.json`: every field once, then the books that must
/// balance. The host block is optional within v4: reports written before
/// it existed (the committed baseline among them) stay valid.
static SCHEMA: Schema = Schema {
    version: Some(SCHEMA_VERSION),
    fields: &[
        Field::req("name", T::Tag(&["BENCH_fusion"])),
        Field::req("threads", T::Arr).min(1.0),
        Field::req("threads[]", T::Int).min(1.0),
        Field::req("host", T::Obj).presence(Presence::Optional),
        Field::req("host.cores", T::Int).min(1.0),
        Field::req("{quick,complete}", T::Bool),
        Field::req("deadline_ms", T::Num).presence(Presence::Nullable),
        Field::req("suites", T::Arr),
        Field::req("suites[]", T::Obj),
        Field::req("suites[].id", T::Str).min(1.0),
        Field::req("suites[].{n,m,cells}", T::Num),
        Field::req("suites[].plan", T::Str),
        Field::req("suites[].{baseline,degradation,phases,barriers}", T::Obj),
        Field::req("suites[].baseline.policy", T::Str),
        Field::req("suites[].baseline.{clusters,syncs}", T::Num),
        Field::req("suites[].degradation.serial_fallback", T::Bool),
        Field::req("suites[].degradation.{plan_degradations,retries}", T::Num).min(0.0),
        Field::req(
            "suites[].phases.{plan_ms,certify_ms,lower_ms,verify_ms}",
            T::Num,
        )
        .min(0.0),
        Field::req(
            "suites[].barriers.{unfused,fused_fronts,fused_synced,elided}",
            T::Num,
        )
        .min(0.0),
        Field::req("suites[].matrix", T::Arr),
        Field::req("suites[].matrix[]", T::Obj),
        Field::req("suites[].matrix[].threads", T::Num),
        Field::req("suites[].matrix[].engines", T::Arr),
        Field::req("suites[].matrix[].engines[]", T::Obj),
        Field::req("suites[].matrix[].engines[].engine", T::Tag(&ENGINES)),
        Field::req("suites[].matrix[].engines[].wall_ms", T::Obj),
        Field::req(
            "suites[].matrix[].engines[].wall_ms.{min,median,stddev}",
            T::Num,
        )
        .min(0.0),
        Field::req(
            "suites[].matrix[].engines[].{cells_per_s,speedup_vs_unfused,barriers}",
            T::Num,
        )
        .min(0.0),
        Field::req("suites[].matrix[].engines[].fingerprint", T::Str),
    ],
    shape: &[matrix_follows_threads, barrier_books, cells_agree],
    gates: &[],
};

fn num(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::num).unwrap_or_default()
}

fn items<'a>(v: &'a Json, key: &str) -> &'a [Json] {
    v.get(key).and_then(Json::arr).unwrap_or_default()
}

/// Every suite with its id.
fn suites(doc: &Json) -> impl Iterator<Item = (&str, &Json)> {
    items(doc, "suites")
        .iter()
        .map(|s| (s.get("id").and_then(Json::str_val).unwrap_or_default(), s))
}

/// The worker counts increase, and a complete report holds at least one
/// suite, each with one matrix row per worker count, in order, and every
/// engine in each row.
fn matrix_follows_threads(doc: &Json) -> Result<(), String> {
    let threads = items(doc, "threads");
    if threads.windows(2).any(|w| w[0].num() >= w[1].num()) {
        return Err("threads must be strictly increasing".into());
    }
    if doc.get("complete").and_then(Json::bool_val) != Some(true) {
        return Ok(());
    }
    if items(doc, "suites").is_empty() {
        return Err("a complete report must contain at least one suite".into());
    }
    for (id, s) in suites(doc) {
        let matrix = items(s, "matrix");
        if matrix.len() != threads.len() {
            return Err(format!(
                "suite {id}: matrix must contain one row per threads entry \
                 ({} row(s), {} thread count(s))",
                matrix.len(),
                threads.len()
            ));
        }
        for (ri, (row, want)) in matrix.iter().zip(threads).enumerate() {
            let (rt, want) = (num(row, "threads"), want.num().unwrap_or_default());
            if rt != want {
                return Err(format!(
                    "suite {id}: matrix row {ri} has threads {rt}, expected {want} from the threads list"
                ));
            }
            if items(row, "engines").len() != ENGINES.len() {
                return Err(format!(
                    "suite {id}: a complete report needs exactly 4 engine rows per cell"
                ));
            }
        }
    }
    Ok(())
}

/// Elision only removes synchronizations: the post-elision syncs are a
/// subset of the pre-elision fronts, and the difference is exactly what
/// was elided.
fn barrier_books(doc: &Json) -> Result<(), String> {
    for (id, s) in suites(doc) {
        let b = s.get("barriers").unwrap_or(&Json::Null);
        let (fronts, synced) = (num(b, "fused_fronts"), num(b, "fused_synced"));
        if synced > fronts {
            return Err(format!(
                "suite {id}: barriers.fused_synced must not exceed barriers.fused_fronts"
            ));
        }
        if num(b, "elided") != fronts - synced {
            return Err(format!(
                "suite {id}: barriers.elided must equal fused_fronts - fused_synced"
            ));
        }
    }
    Ok(())
}

/// Every cell's wall minimum is at most its median, and a suite has one
/// fingerprint across every engine and worker count: a stale cell
/// (re-benched at another shape, or from an older run) shows up as a
/// disagreement.
fn cells_agree(doc: &Json) -> Result<(), String> {
    for (id, s) in suites(doc) {
        let cells = items(s, "matrix")
            .iter()
            .flat_map(|row| items(row, "engines"));
        let mut fps = Vec::new();
        for e in cells {
            let wall = e.get("wall_ms").unwrap_or(&Json::Null);
            if num(wall, "min") > num(wall, "median") {
                let name = e.get("engine").and_then(Json::str_val).unwrap_or_default();
                return Err(format!(
                    "suite {id}: {name}.wall_ms.min must not exceed the median"
                ));
            }
            let fp = e
                .get("fingerprint")
                .and_then(Json::str_val)
                .unwrap_or_default();
            if !fp.starts_with("0x") {
                return Err(format!("suite {id}: fingerprint must be a hex string"));
            }
            fps.push(fp);
        }
        if fps.windows(2).any(|w| w[0] != w[1]) {
            return Err(format!("suite {id}: engine fingerprints disagree"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdf_trace::json::parse;
    use std::time::Duration;

    fn render_json(r: &BenchReport) -> String {
        report_json(r).pretty()
    }

    /// Parses `text` and runs the whole schema on it, as `--check` does.
    fn validate(text: &str) -> Result<(usize, bool), String> {
        let doc = parse(text)?;
        SCHEMA.check(&doc)?;
        Ok(summary(&doc))
    }

    #[test]
    fn quick_bench_covers_every_executable_suite_and_validates() {
        let r = collect(true, &[1, 2], None, &Budget::unlimited(), &Span::disabled()).unwrap();
        assert!(r.complete);
        let ids: Vec<&str> = r.suites.iter().map(|s| s.id.as_str()).collect();
        assert_eq!(ids, ["E1", "E2", "E4", "E5"], "{ids:?}");
        let json = render_json(&r);
        let (suites, complete) = validate(&json).unwrap_or_else(|m| panic!("{m}\n{json}"));
        assert_eq!(suites, 4);
        assert!(complete);
        for s in &r.suites {
            // One matrix row per requested worker count, four engines in
            // each, and a single fingerprint across the whole matrix.
            assert_eq!(s.matrix.len(), 2, "{}", s.id);
            assert_eq!(s.matrix[0].threads, 1);
            assert_eq!(s.matrix[1].threads, 2);
            let fp0 = s.matrix[0].engines[0].fingerprint;
            for row in &s.matrix {
                assert_eq!(row.engines.len(), 4);
                assert_eq!(row.engines[3].engine, "verified");
                assert!(row.engines.iter().all(|e| e.fingerprint == fp0));
                for e in &row.engines {
                    assert!(e.wall.min <= e.wall.median, "{} {}", s.id, e.engine);
                    assert!(e.wall.stddev >= 0.0);
                }
            }
            // Barrier accounting: elision only subtracts, and the books
            // must balance.
            assert!(
                s.barriers.fused_synced <= s.barriers.fused_fronts,
                "{}",
                s.id
            );
            assert_eq!(
                s.barriers.elided,
                s.barriers.fused_fronts - s.barriers.fused_synced,
                "{}",
                s.id
            );
            // Every executable suite runs certified on unlimited budgets;
            // a hyperplane plan sits one ladder rung below full-parallel
            // by construction, everything else plans at the top rung.
            assert!(!s.degradation.serial_fallback, "{}", s.id);
            let expected_rungs = u64::from(s.plan.starts_with("hyperplane"));
            assert_eq!(s.degradation.plan_degradations, expected_rungs, "{}", s.id);
            assert_eq!(s.degradation.retries, 0, "{}", s.id);
        }
        // E5 is the hyperplane suite: its certified elision must show up
        // as a real reduction in synchronized barriers.
        let e5 = r.suites.iter().find(|s| s.id == "E5").unwrap();
        assert!(e5.plan.starts_with("hyperplane"), "{}", e5.plan);
        assert!(e5.barriers.elided > 0, "E5 elided no barriers");
        assert!(e5.barriers.fused_synced < e5.barriers.unfused);
    }

    #[test]
    fn kernel_beats_the_interpreter_on_every_suite() {
        // The acceptance bar for the compiled engine, at the full bench
        // shape (median-of-3 keeps scheduler noise out of the
        // comparison; a single-entry thread list keeps this test at the
        // cost of the pre-matrix bench).
        let r = collect(false, &[1], None, &Budget::unlimited(), &Span::disabled()).unwrap();
        assert!(r.complete);
        for s in &r.suites {
            let wall = |name: &str| {
                s.matrix[0]
                    .engines
                    .iter()
                    .find(|e| e.engine == name)
                    .map(|e| e.wall.median)
                    .unwrap_or(f64::INFINITY)
            };
            assert!(
                wall("kernel") < wall("interp"),
                "[{}] kernel {:.3} ms vs interp {:.3} ms",
                s.id,
                wall("kernel"),
                wall("interp")
            );
        }
    }

    #[test]
    fn expired_deadline_degrades_to_a_partial_report() {
        let budget = Budget::unlimited().with_deadline(Duration::from_millis(0));
        let r = collect(true, &[1], Some(0), &budget, &Span::disabled()).unwrap();
        assert!(!r.complete);
        let json = render_json(&r);
        let (_, complete) = validate(&json).unwrap_or_else(|m| panic!("{m}\n{json}"));
        assert!(!complete);
        assert!(json.contains("\"deadline_ms\": 0"), "{json}");
    }

    /// A synthetic, hand-consistent v4 report: one suite, two thread
    /// counts, four engines per cell. Negative validator tests mutate
    /// this rather than paying for a real bench run per case.
    fn sample_report() -> BenchReport {
        let engines = |fp: u64| {
            ["unfused", "interp", "kernel", "verified"]
                .into_iter()
                .map(|name| EngineRow {
                    engine: name,
                    wall: WallStats {
                        min: 1.0,
                        median: 1.5,
                        stddev: 0.1,
                    },
                    cells_per_s: 1e6,
                    speedup: 1.0,
                    barriers: 25,
                    fingerprint: fp,
                })
                .collect::<Vec<_>>()
        };
        BenchReport {
            threads: vec![1, 2],
            host_cores: 2,
            quick: true,
            deadline_ms: None,
            complete: true,
            suites: vec![SuiteRow {
                id: "E5".into(),
                n: 48,
                m: 48,
                plan: "hyperplane(s=(3,1))".into(),
                baseline_clusters: 2,
                baseline_syncs: 98,
                cells: 4802,
                degradation: Degradation {
                    serial_fallback: false,
                    plan_degradations: 1,
                    retries: 0,
                },
                phases: PhaseBreakdown {
                    plan_ms: 0.1,
                    certify_ms: 0.1,
                    lower_ms: 0.1,
                    verify_ms: 0.1,
                },
                barriers: BarrierCounts {
                    unfused: 98,
                    fused_fronts: 194,
                    fused_synced: 25,
                    elided: 169,
                },
                matrix: vec![
                    MatrixRow {
                        threads: 1,
                        engines: engines(0xabc),
                    },
                    MatrixRow {
                        threads: 2,
                        engines: engines(0xabc),
                    },
                ],
            }],
        }
    }

    #[test]
    fn validator_rejects_matrix_schema_violations() {
        // Table-driven negative tests over the v4 matrix schema: each
        // case is (structural mutation, textual mutation, expected
        // violation substring). Structural mutations edit the report
        // before rendering; textual ones edit the rendered JSON (for
        // shapes the renderer cannot produce, like a missing key).
        type Mutate = fn(&mut BenchReport);
        type Case = (
            &'static str,
            Option<Mutate>,
            Option<(&'static str, &'static str)>,
            &'static str,
        );
        let cases: Vec<Case> = vec![
            (
                "missing matrix cell",
                Some(|r| {
                    r.suites[0].matrix.pop();
                }),
                None,
                "one row per threads entry",
            ),
            (
                "threads list mismatch",
                Some(|r| r.suites[0].matrix[1].threads = 3),
                None,
                "expected 2 from the threads list",
            ),
            (
                "stddev absent",
                None,
                Some(("\"stddev\"", "\"sd\"")),
                "wall_ms.stddev",
            ),
            (
                "stale fingerprint in one cell",
                Some(|r| r.suites[0].matrix[1].engines[2].fingerprint = 0xdead),
                None,
                "fingerprints disagree",
            ),
            (
                "elision books do not balance",
                Some(|r| r.suites[0].barriers.elided = 1),
                None,
                "elided must equal",
            ),
            (
                "synced exceeds fronts",
                Some(|r| {
                    r.suites[0].barriers.fused_synced = 500;
                    r.suites[0].barriers.elided = 0;
                }),
                None,
                "must not exceed barriers.fused_fronts",
            ),
            (
                "min above median",
                Some(|r| r.suites[0].matrix[0].engines[0].wall.min = 9.0),
                None,
                "min must not exceed the median",
            ),
            (
                "threads not increasing",
                None,
                Some(("\"threads\": [1, 2]", "\"threads\": [2, 1]")),
                "strictly increasing",
            ),
            (
                "missing barriers block",
                None,
                Some(("\"barriers\": { \"unfused\"", "\"b\": { \"unfused\"")),
                "missing barriers",
            ),
            (
                "host cores not a positive integer",
                Some(|r| r.host_cores = 0),
                None,
                "host.cores must be a positive integer",
            ),
        ];
        assert!(validate(&render_json(&sample_report())).is_ok());
        // The host block is optional: v4 reports written before it
        // existed (the committed baseline among them) stay valid.
        let without_host =
            render_json(&sample_report()).replace("  \"host\": { \"cores\": 2 },\n", "");
        assert!(!without_host.contains("\"host\""));
        assert!(validate(&without_host).is_ok());
        for (what, structural, textual, expect) in cases {
            let mut r = sample_report();
            if let Some(f) = structural {
                f(&mut r);
            }
            let mut json = render_json(&r);
            if let Some((from, to)) = textual {
                assert!(json.contains(from), "{what}: pattern {from:?} not found");
                json = json.replace(from, to);
            }
            let err = validate(&json)
                .expect_err(&format!("{what}: validator accepted a malformed report"));
            assert!(err.contains(expect), "{what}: {err:?} lacks {expect:?}");
        }
    }

    #[test]
    fn validator_rejects_schema_drift() {
        let good = render_json(&sample_report());
        assert!(validate(&good).is_ok());
        let bad = good.replace("\"schema_version\": 4", "\"schema_version\": 3");
        assert!(validate(&bad).unwrap_err().contains("schema_version"));
        let bad = good.replace("\"engine\": \"kernel\"", "\"engine\": \"jit\"");
        assert!(validate(&bad).unwrap_err().contains("unknown engine"));
        let bad = good.replace("\"name\": \"BENCH_fusion\"", "\"name\": \"x\"");
        assert!(validate(&bad).is_err());
        // Schema v2: the degradation record is mandatory and typed.
        let bad = good.replace("\"serial_fallback\": false", "\"serial_fallback\": 0");
        assert!(validate(&bad).unwrap_err().contains("serial_fallback"));
        let bad = good.replace("\"retries\": 0", "\"retries\": -1");
        assert!(validate(&bad).unwrap_err().contains("retries"));
        // Schema v3: the verifier phase and the verified engine row are
        // mandatory.
        let bad = good.replace("\"verify_ms\"", "\"vms\"");
        assert!(validate(&bad).unwrap_err().contains("verify_ms"));
        let bad = good.replace("\"engine\": \"verified\"", "\"engine\": \"unchecked\"");
        assert!(validate(&bad).unwrap_err().contains("unknown engine"));
        assert!(validate("{").is_err());
        assert!(validate("[1, 2]").is_err());
    }

    #[test]
    fn compare_passes_identical_reports_and_flags_regressions() {
        let dir = std::env::temp_dir().join("mdfuse-bench-compare-test");
        std::fs::create_dir_all(&dir).unwrap();
        let base_path = dir.join("base.json");
        let cand_path = dir.join("cand.json");
        let base_path = base_path.to_str().unwrap();
        let cand_path = cand_path.to_str().unwrap();
        let good = render_json(&sample_report());
        std::fs::write(base_path, &good).unwrap();
        std::fs::write(cand_path, &good).unwrap();
        let out = compare_files(cand_path, base_path, 0.15).unwrap();
        assert!(out.contains("no regressions past tolerance"), "{out}");
        // 2 thread counts x 3 non-unfused engines = 6 comparable cells.
        assert!(out.contains("6 cell(s)"), "{out}");

        // A candidate whose kernel speedup collapses past tolerance
        // fails; within tolerance it passes.
        let mut slow = sample_report();
        for row in &mut slow.suites[0].matrix {
            for e in &mut row.engines {
                if e.engine == "kernel" {
                    e.speedup = 0.5;
                }
            }
        }
        std::fs::write(cand_path, render_json(&slow)).unwrap();
        let err = compare_files(cand_path, base_path, 0.15).unwrap_err();
        assert!(
            err.to_string().contains("regressed past tolerance"),
            "{err}"
        );
        assert!(err.to_string().contains("REGRESSION"), "{err}");
        let ok = compare_files(cand_path, base_path, 0.6).unwrap();
        assert!(ok.contains("no regressions past tolerance"), "{ok}");

        // Disjoint shapes have no comparable cells: that is an error,
        // not a silent pass.
        let mut reshaped = sample_report();
        reshaped.suites[0].n = 192;
        reshaped.suites[0].m = 192;
        std::fs::write(cand_path, render_json(&reshaped)).unwrap();
        let err = compare_files(cand_path, base_path, 0.15).unwrap_err();
        assert!(err.to_string().contains("no comparable cells"), "{err}");
    }
}

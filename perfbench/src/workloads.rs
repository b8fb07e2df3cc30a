//! The three workloads, each as an untraced run (end-to-end metrics) and
//! a traced run (per-layer metrics).
//!
//! * `exec-large` — the executable suite (E1, E2, E4, E5) as armed
//!   compiled kernels on a 1024×1024 grid at 1 worker and at `nproc`.
//! * `service-hot` — the `examples/dsl` mix through the two-shard batched
//!   fleet with a warm plan cache.
//! * `service-cold` — the same fleet and clients, every request a
//!   distinct random program, so every cache lookup misses.

use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mdf_router::Router;
use mdf_trace::json::Json;
use mdf_trace::{MemorySink, Profile, Span, Tracer};

use crate::host;
use crate::inputs::{
    cold_inputs, example_inputs, mix, plan_kind, suite_inputs, Input, Prepared, REQUEST_BOUND,
};
use crate::kernels::{
    dispatch_ns, normalized, paired_ratio, per_input, rounds, run_once, step_items, work_counts,
    Call, OpTally, Sample,
};
use crate::layers::{request_block, request_rows, self_ns, RING_REPS};
use crate::report::RunResult;
use crate::service::{
    boot_fleet, boot_lone, closed_loop, dir_bytes, warm, FleetCounters, Phases, Tally,
};
use crate::stats::{geomean, median, minimum, quartiles, tail};

/// exec-large's grid.
pub const GRID: i64 = 1024;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Distinct programs generated for service-cold. Requests walk the pool
/// in order and wrap only after all of it, far past what the 64-entry
/// shard caches and the router's 1024-entry fingerprint memo remember,
/// so a wrapped request still misses everywhere.
const COLD_POOL: usize = 4096;

/// Segments of a service run. Each is a load phase and, in the untraced
/// pass, a block of kernel rounds after it, so kernel rounds are spread
/// over the whole run. On this shared VM, spells of a few seconds slow
/// the small service kernels by up to 60% and cover most of a run, and a
/// calibration sweep moves by under 10% in them, so no calibration
/// cancels them and a median over the run depends on how much of it
/// they covered. `kernel_ms_*` on the service workloads is therefore
/// each input's minimum over the run: noise only adds time, so the
/// minimum reads the same undisturbed state in every run, and a slower
/// program raises it. For the same reason `latency_p95_ms` and
/// `throughput_rps` are the best segment's: contention from other tenants
/// raised every segment's p95 by 30–80% in some runs and left whole
/// segments untouched in most, while `latency_p50_ms`, pooled over the
/// run, moved by under 6%. Each segment still holds over a thousand
/// round trips.
const SEGMENTS: usize = 10;

/// Shares of an untraced service run spent loading the fleet and timing
/// kernels, each split evenly over the [`SEGMENTS`].
const LOAD_SHARE: f64 = 0.8;
const KERNEL_SHARE: f64 = 0.2;

/// Pool programs service-cold's warm-up sends (then never again).
const COLD_WARM: usize = 2;

/// Named metric values, in the order they are printed.
type Metrics = Vec<(&'static str, f64)>;

/// What one run is asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
    /// Scratch directory for stores and sockets, inside the checkout.
    pub tmp: PathBuf,
}

impl Ctx {
    fn window(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// A finished run: its result line and its properties.
pub struct Outcome {
    pub result: RunResult,
    pub properties: Vec<(String, Json)>,
}

impl Outcome {
    fn new(ops: OpTally, metrics: Metrics, properties: Vec<(String, Json)>) -> Outcome {
        Outcome {
            result: RunResult {
                mismatches: ops.mismatches,
                attempted: ops.attempted,
                failed: ops.failed,
                metrics,
            },
            properties,
        }
    }
}

fn num(v: impl Into<f64>) -> Json {
    Json::Num(v.into())
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Runs `setup` `repeats` times and keeps the last result, handing each
/// earlier one to `discard` (untimed) before the next set-up starts;
/// returns the median set-up time in seconds.
fn repeat_setup<T>(
    repeats: usize,
    mut setup: impl FnMut(usize) -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(repeats);
    let mut kept = None;
    for attempt in 0..repeats.max(1) {
        if let Some(old) = kept.take() {
            discard(old);
        }
        let t0 = Instant::now();
        kept = Some(setup(attempt)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((median(&times), kept.expect("at least one set-up ran")))
}

/// Properties shared by every workload's result.
fn common_properties(ctx: &Ctx, workload: &str) -> Vec<(String, Json)> {
    let (llc_level, llc_bytes) = host::last_level_cache().unwrap_or((0, 0));
    vec![
        ("workload".into(), Json::Str(workload.into())),
        ("seed".into(), num(ctx.seed as f64)),
        ("traced".into(), Json::Bool(ctx.trace)),
        (
            "host".into(),
            obj(vec![
                ("nproc", num(ctx.nproc as f64)),
                ("llc_level", num(llc_level)),
                ("llc_bytes", num(llc_bytes as f64)),
            ]),
        ),
        (
            "workers".into(),
            Json::Arr(vec![num(1), num(ctx.nproc as f64)]),
        ),
    ]
}

/// Median, tail and sample counts of a latency sample, for properties.
fn latency_properties(ms: &[f64]) -> Json {
    let (tail_ms, pct) = tail(ms);
    let q = quartiles(ms).unwrap_or([f64::NAN; 3]);
    obj(vec![
        ("samples", num(ms.len() as f64)),
        ("p50_ms", num(median(ms))),
        ("tail_percentile", num(pct)),
        ("tail_ms", num(tail_ms)),
        ("q1_ms", num(q[0])),
        ("q3_ms", num(q[2])),
    ])
}

/// Working-set bytes of a kernel: every array cell of its layout.
fn working_set(p: &Prepared) -> u64 {
    p.armed.layout().cells() as u64 * 8
}

/// End-to-end metrics of the kernel columns: geometric mean over inputs
/// of each input's `stat` (median or minimum) armed wall time at 1 and
/// `nproc` workers, and the median paired ratio.
fn kernel_columns(
    samples: &[Sample],
    inputs: usize,
    call: Call,
    stat: fn(&[f64]) -> f64,
) -> [f64; 3] {
    [
        geomean(&per_input(samples, inputs, call, false, stat)),
        geomean(&per_input(samples, inputs, call, true, stat)),
        paired_ratio(samples, call),
    ]
}

/// Calibrated samples scaled to the reference host speed, their kernel
/// columns from medians (the paired ratio from raw times: both sides of
/// a pair ran in the same round), and the raw figures for properties.
fn calibrated(
    samples: &[Sample],
    inputs: usize,
    call: Call,
) -> (Vec<Sample>, [f64; 3], Vec<(&'static str, Json)>) {
    let [raw_t1, raw_tn, ratio] = kernel_columns(samples, inputs, call, median);
    let cal = |tn: bool| {
        let ms: Vec<f64> = samples
            .iter()
            .filter(|s| s.tn == tn)
            .map(|s| s.cal_ms)
            .collect();
        num(median(&ms))
    };
    let raw = vec![
        ("calibration_ms_t1", cal(false)),
        ("calibration_ms_tn", cal(true)),
        ("kernel_ms_t1", num(raw_t1)),
        ("kernel_ms_tn", num(raw_tn)),
    ];
    let scaled = normalized(samples);
    let [t1, tn, _] = kernel_columns(&scaled, inputs, call, median);
    (scaled, [t1, tn, ratio], raw)
}

/// Per-input, per-call properties of a kernel sample, each time the
/// input's `stat` (median or minimum).
fn per_input_properties(
    inputs: &[&Input],
    prepared: &[Prepared],
    samples: &[Sample],
    call: Call,
    stat: fn(&[f64]) -> f64,
) -> Json {
    let t1 = per_input(samples, inputs.len(), call, false, stat);
    let tn = per_input(samples, inputs.len(), call, true, stat);
    Json::Obj(
        inputs
            .iter()
            .zip(prepared)
            .enumerate()
            .map(|(i, (input, p))| {
                (
                    input.name.clone(),
                    obj(vec![
                        ("plan", Json::Str(plan_kind(&p.plan).into())),
                        (
                            "grid",
                            Json::Arr(vec![num(input.n as f64), num(input.m as f64)]),
                        ),
                        ("working_set_bytes", num(working_set(p) as f64)),
                        ("ms_t1", num(t1[i])),
                        ("ms_tn", num(tn[i])),
                    ]),
                )
            })
            .collect(),
    )
}

/// The traced kernel block: armed, checked and unfused calls in seeded
/// rounds under `root`, then the dispatch replay and one counting run
/// per input. Returns the per-layer kernel metrics and the per-input
/// counts.
fn kernel_block(
    ctx: &Ctx,
    inputs: &[&Input],
    prepared: &[Prepared],
    deadline: Instant,
    root: &Span,
    tally: &mut OpTally,
) -> Result<(Metrics, Json), String> {
    let calls = [Call::Armed, Call::Checked, Call::Unfused];
    rounds(
        prepared,
        inputs,
        &calls,
        ctx.nproc,
        ctx.seed,
        deadline,
        1,
        false,
        Some(root),
        tally,
    )?;
    let mut dispatch = (Vec::new(), Vec::new());
    let mut totals = [0u64; 4];
    let mut per_input = Vec::new();
    for (input, p) in inputs.iter().zip(prepared) {
        let steps = step_items(p, input.n, input.m);
        dispatch.0.push(dispatch_ns(&steps, 1, root, false));
        dispatch.1.push(dispatch_ns(&steps, ctx.nproc, root, true));
        let (_, fp, stats) = run_once(p, input, Call::Armed, ctx.nproc, None)?;
        tally.attempted += 1;
        if fp != input.expected {
            tally.failed += 1;
            tally.mismatches += 1;
        }
        let counts = work_counts(p, &stats);
        for (t, c) in totals.iter_mut().zip(counts) {
            *t += c;
        }
        per_input.push((
            input.name.clone(),
            obj(vec![
                ("barriers", num(counts[0] as f64)),
                ("elided", num(counts[1] as f64)),
                ("cells", num(counts[2] as f64)),
                ("bytes_computed", num(counts[3] as f64)),
                ("steps", num(steps.len() as f64)),
                (
                    "items_per_step",
                    num(steps.iter().sum::<usize>() as f64 / steps.len().max(1) as f64),
                ),
            ]),
        ));
    }
    let metrics = vec![
        ("rayon.dispatch_ns_t1", geomean(&dispatch.0)),
        ("rayon.dispatch_ns_tn", geomean(&dispatch.1)),
        ("kernel.barriers", totals[0] as f64),
        ("kernel.elided", totals[1] as f64),
        ("kernel.cells", totals[2] as f64),
        ("kernel.bytes_computed", totals[3] as f64),
    ];
    Ok((metrics, Json::Obj(per_input)))
}

/// Per-layer kernel times from the traced kernel block's spans: the
/// geometric mean over inputs of each input's median self time.
fn kernel_span_metrics(
    profile: &Profile,
    own: &std::collections::BTreeMap<u64, f64>,
    inputs: usize,
) -> Metrics {
    let geo_ms = |name: &str| {
        let per_input: Vec<f64> = (0..inputs as u64)
            .map(|i| {
                let ns: Vec<f64> = profile
                    .spans
                    .iter()
                    .filter(|s| {
                        s.name == name && s.counters.iter().any(|(k, v)| k == "input" && *v == i)
                    })
                    .map(|s| own[&s.id])
                    .collect();
                median(&ns) / 1e6
            })
            .collect();
        geomean(&per_input)
    };
    vec![
        ("kernel.exec_ms_t1", geo_ms("kernel.exec.t1")),
        ("kernel.exec_ms_tn", geo_ms("kernel.exec.tn")),
        ("kernel.checked_ms_t1", geo_ms("kernel.checked.t1")),
        ("kernel.checked_ms_tn", geo_ms("kernel.checked.tn")),
        ("sim.unfused_ms_t1", geo_ms("sim.unfused")),
    ]
}

/// Pooled median (ms) of the traced armed kernel runs: the traced
/// counterpart of `latency_p50_ms` on exec-large.
fn traced_kernel_p50(profile: &Profile, own: &std::collections::BTreeMap<u64, f64>) -> f64 {
    let ms: Vec<f64> = profile
        .spans
        .iter()
        .filter(|s| s.name.starts_with("kernel.exec."))
        .map(|s| own[&s.id] / 1e6)
        .collect();
    median(&ms)
}

/// Per-layer metrics of the request path, from the replayed requests.
fn request_metrics(profile: &Profile) -> (Metrics, f64) {
    let rows = request_rows(profile);
    let stage = |name: &str, keep: &dyn Fn(&crate::layers::RequestRow) -> bool| {
        let us: Vec<f64> = rows
            .iter()
            .filter(|r| keep(r))
            .map(|r| r.get(name))
            .collect();
        median(&us)
    };
    let all = |_: &crate::layers::RequestRow| true;
    let kernel = |r: &crate::layers::RequestRow| r.kernel;
    let interp = |r: &crate::layers::RequestRow| !r.kernel;
    let hops: Vec<f64> = rows
        .iter()
        .map(|r| r.get("fleet") - r.get("lone"))
        .collect();
    let residuals: Vec<f64> = rows.iter().map(|r| r.residual_us()).collect();
    let fleet_ms: Vec<f64> = rows.iter().map(|r| r.get("fleet") / 1e3).collect();
    let metrics = vec![
        ("sim.interp_us", stage("interp", &interp)),
        ("ir.parse_us", stage("parse", &all)),
        ("graph.fingerprint_us", stage("fingerprint", &all)),
        ("core.plan_us", stage("plan", &all)),
        ("analyze.certify_us", stage("certify", &all)),
        ("kernel.lower_us", stage("lower", &kernel)),
        ("kernel.verify_us", stage("verify", &kernel)),
        ("kernel.cert_revalidate_us", stage("revalidate", &kernel)),
        ("service.cache_lookup_us", stage("cache.lookup", &all)),
        ("service.cache_insert_us", stage("cache.insert", &all)),
        ("service.proto_us", stage("proto", &all)),
        ("service.residual_us", median(&residuals)),
        ("router.hop_us", median(&hops)),
        (
            "router.ring_owner_ns",
            stage("ring", &all) * 1e3 / f64::from(RING_REPS),
        ),
    ];
    (metrics, median(&fleet_ms))
}

/// The fleet-side per-layer metrics of a measured window.
fn fleet_metrics(window: &FleetCounters, store_bytes: u64, tally: &Tally) -> Metrics {
    vec![
        ("service.cache_hit_ratio", window.hit_ratio()),
        ("service.store_bytes", store_bytes as f64),
        ("router.batched_share", window.batched_share()),
        ("router.reroutes", window.reroutes as f64),
        (
            "client.retries",
            tally.retries.load(std::sync::atomic::Ordering::Relaxed) as f64,
        ),
        ("client.failed", tally.ops().failed as f64),
    ]
}

/// Orders `metrics` as `catalog` lists them.
fn in_catalog_order(mut metrics: Metrics, catalog: &[(&str, &str)]) -> Metrics {
    metrics.sort_by_key(|(n, _)| catalog.iter().position(|(c, _)| c == n));
    metrics
}

fn percent_change(traced: f64, untraced: f64) -> f64 {
    100.0 * (traced - untraced) / untraced
}

/// Service shares of a window, for properties.
fn share_properties(window: &FleetCounters, tally: &Tally) -> Json {
    let (completed, executed, kernel) = tally.shares();
    let (kinds, loops) = tally.histograms();
    let attempted = tally.ops().attempted.max(1) as f64;
    obj(vec![
        ("cache_hit_ratio", num(window.hit_ratio())),
        ("batched_share", num(window.batched_share())),
        (
            "executed_share",
            num(executed as f64 / completed.max(1) as f64),
        ),
        ("engine_kernel_share", num(kernel as f64 / attempted)),
        (
            "plan_kinds",
            Json::Obj(
                kinds
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), num(v as f64)))
                    .collect(),
            ),
        ),
        (
            "loop_histogram",
            Json::Obj(
                loops
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), num(v as f64)))
                    .collect(),
            ),
        ),
    ])
}

fn sum_ops(a: OpTally, b: OpTally) -> OpTally {
    OpTally {
        attempted: a.attempted + b.attempted,
        failed: a.failed + b.failed,
        mismatches: a.mismatches + b.mismatches,
    }
}

/// exec-large.
pub fn exec_large(ctx: &Ctx) -> Result<Outcome, String> {
    let nproc = ctx.nproc;
    let (setup_s, (inputs, prepared)) = repeat_setup(
        if ctx.trace { 1 } else { SETUP_REPEATS },
        |_| {
            let inputs = suite_inputs(GRID)?;
            let prepared: Vec<Prepared> =
                inputs.iter().map(Prepared::new).collect::<Result<_, _>>()?;
            // Warm-up: one armed run per worker count, checked.
            for (p, input) in prepared.iter().zip(&inputs) {
                for threads in [1, nproc] {
                    let (_, fp, _) = run_once(p, input, Call::Armed, threads, None)?;
                    if fp != input.expected {
                        return Err(format!(
                            "{}: warm-up run disagrees with run_original",
                            input.name
                        ));
                    }
                }
            }
            Ok((inputs, prepared))
        },
        drop,
    )?;
    let refs: Vec<&Input> = inputs.iter().collect();
    let mut props = common_properties(ctx, "exec-large");
    let ws = prepared.iter().map(working_set).max().unwrap_or(0);
    let llc = host::last_level_cache().map_or(0, |(_, b)| b);
    props.push((
        "grid".into(),
        Json::Arr(vec![num(GRID as f64), num(GRID as f64)]),
    ));
    props.push(("working_set_bytes".into(), num(ws as f64)));
    props.push(("working_set_exceeds_llc".into(), Json::Bool(ws > llc)));
    let mut tally = OpTally::default();
    let untraced_share = if ctx.trace { 0.3 } else { 1.0 };
    let samples = rounds(
        &prepared,
        &refs,
        &[Call::Armed],
        nproc,
        ctx.seed,
        Instant::now() + ctx.window(untraced_share),
        1,
        true,
        None,
        &mut tally,
    )?;
    let all_ms: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    let (samples, [t1, tn, ratio], mut raw) = calibrated(&samples, refs.len(), Call::Armed);
    raw.push(("latency", latency_properties(&all_ms)));
    props.push(("raw".into(), obj(raw)));
    let norm_ms: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    props.push(("latency".into(), latency_properties(&norm_ms)));
    props.push((
        "suites".into(),
        per_input_properties(&refs, &prepared, &samples, Call::Armed, median),
    ));
    if !ctx.trace {
        let metrics = vec![
            ("setup_s", setup_s),
            ("peak_rss_mb", host::peak_rss_mb()),
            (
                "throughput_rps",
                1e3 * norm_ms.len() as f64 / norm_ms.iter().sum::<f64>(),
            ),
            // The eight (suite, workers) cells' times cluster far apart
            // and the pooled median falls in the gap between the fourth
            // and fifth, where it swung by 10% from run to run; the
            // geometric mean over cells of each cell's median does not.
            ("latency_p50_ms", (t1 * tn).sqrt()),
            ("latency_p95_ms", tail(&norm_ms).0),
            ("kernel_ms_t1", t1),
            ("kernel_ms_tn", tn),
            ("kernel_tn_over_t1", ratio),
        ];
        return Ok(Outcome::new(tally, metrics, props));
    }

    let sink = Arc::new(MemorySink::new());
    let tracer = Tracer::new(sink.clone());
    let root = tracer.span("kernels");
    let (mut metrics, counts) = kernel_block(
        ctx,
        &refs,
        &prepared,
        Instant::now() + ctx.window(0.5),
        &root,
        &mut tally,
    )?;
    drop(root);
    props.push(("counts".into(), counts));

    // The request path has no place in exec-large's own traffic; its
    // layers are measured by sending the same suite programs through the
    // fleet at request size.
    let small = suite_inputs(REQUEST_BOUND)?;
    let small_refs: Vec<&Input> = small.iter().collect();
    let request = |idx: u64| {
        let (pick, engine) = mix(ctx.seed, idx, small.len());
        (&small[pick], engine)
    };
    let service_tally = Tally::default();
    let (window, store_bytes) = with_fleet_and_lone(ctx, &small_refs, |fleet, lone| {
        request_block(
            fleet,
            lone,
            ctx.nproc,
            Instant::now() + ctx.window(0.2),
            &AtomicU64::new(0),
            &request,
            &small_refs,
            &service_tally,
            &tracer,
            ctx.seed,
        )
    })?;
    let profile = sink.profile()?;
    let own = self_ns(&profile);
    metrics.extend(kernel_span_metrics(&profile, &own, refs.len()));
    let (request_layer, _) = request_metrics(&profile);
    metrics.extend(request_layer);
    metrics.extend(fleet_metrics(&window, store_bytes, &service_tally));
    metrics.push((
        "trace.overhead_pct",
        percent_change(traced_kernel_p50(&profile, &own), median(&all_ms)),
    ));
    props.push(("shares".into(), share_properties(&window, &service_tally)));
    let ops = sum_ops(tally, service_tally.ops());
    Ok(Outcome::new(
        ops,
        in_catalog_order(metrics, crate::report::PER_LAYER),
        props,
    ))
}

/// Boots a fleet and a lone server under `ctx.tmp`, warms both with
/// `warm_inputs`, runs `body` with their endpoints, drains both, and
/// returns the fleet's counters over `body` and its store size.
fn with_fleet_and_lone(
    ctx: &Ctx,
    warm_inputs: &[&Input],
    body: impl FnOnce(&mdf_service::Endpoint, &mdf_service::Endpoint) -> Result<(), String>,
) -> Result<(FleetCounters, u64), String> {
    let dir = ctx.tmp.join("fleet-traced");
    let fleet = boot_fleet(&dir, ctx.nproc)?;
    let lone = match boot_lone(&ctx.tmp.join("lone"), ctx.nproc) {
        Ok(l) => l,
        Err(e) => {
            fleet.drain();
            return Err(e);
        }
    };
    let run = || -> Result<FleetCounters, String> {
        warm(fleet.endpoint(), warm_inputs)?;
        warm(lone.endpoint(), warm_inputs)?;
        let before = FleetCounters::of(&fleet.fleet_stats());
        body(fleet.endpoint(), lone.endpoint())?;
        Ok(FleetCounters::of(&fleet.fleet_stats()).since(&before))
    };
    let window = run();
    lone.drain();
    fleet.drain();
    Ok((window?, dir_bytes(&dir)))
}

/// Pool programs per loop count in service-cold's kernel sample.
const COLD_SAMPLE_PER_LOOPS: usize = 3;

/// The inputs the kernel phase times: every example on service-hot; on
/// service-cold the first [`COLD_SAMPLE_PER_LOOPS`] pool programs of each
/// loop count, so the sample spans the loop-count range the same way
/// whatever the seed.
fn kernel_sample(inputs: &[Input], cold: bool) -> Vec<&Input> {
    if !cold {
        return inputs.iter().collect();
    }
    let mut taken = std::collections::BTreeMap::<usize, usize>::new();
    inputs
        .iter()
        .filter(|i| {
            let n = taken.entry(i.loops()).or_default();
            *n += 1;
            *n <= COLD_SAMPLE_PER_LOOPS
        })
        .collect()
}

/// A booted fleet and the directory its store lives in.
struct Fleet {
    router: Router,
    dir: PathBuf,
}

/// service-hot (`cold == false`) and service-cold (`cold == true`).
pub fn service(ctx: &Ctx, cold: bool) -> Result<Outcome, String> {
    let name = if cold { "service-cold" } else { "service-hot" };
    let clients = ctx.nproc;
    let (setup_s, (inputs, prepared, fleet)) = repeat_setup(
        if ctx.trace { 1 } else { SETUP_REPEATS },
        |attempt| {
            let inputs = if cold {
                cold_inputs(ctx.seed, COLD_POOL)?
            } else {
                example_inputs()?
            };
            let prepared: Vec<Prepared> = kernel_sample(&inputs, cold)
                .into_iter()
                .map(Prepared::new)
                .collect::<Result<_, _>>()?;
            let dir = ctx.tmp.join(format!("fleet-{attempt}"));
            let router = boot_fleet(&dir, clients)?;
            let warm_set: Vec<&Input> = inputs[..if cold { COLD_WARM } else { inputs.len() }]
                .iter()
                .collect();
            if let Err(e) = warm(router.endpoint(), &warm_set) {
                router.drain();
                return Err(e);
            }
            Ok((inputs, prepared, Fleet { router, dir }))
        },
        |(_, _, old)| {
            old.router.drain();
        },
    )?;
    let len = inputs.len();
    let request = |idx: u64| {
        let (pick, engine) = mix(ctx.seed, idx, len);
        // Cold walks the pool in request order: a distinct program each.
        (
            &inputs[if cold { idx as usize % len } else { pick }],
            engine,
        )
    };
    let first = if cold { COLD_WARM as u64 } else { 0 };
    let next = AtomicU64::new(first);
    let tally = Tally::default();
    let before = FleetCounters::of(&fleet.router.fleet_stats());
    let sample_refs = kernel_sample(&inputs, cold);
    let (load_share, kernel_share) = if ctx.trace {
        (0.35, 0.0)
    } else {
        (LOAD_SHARE, KERNEL_SHARE)
    };
    let per_segment = |share: f64| ctx.window(share / SEGMENTS as f64);
    let mut kernel_samples: Vec<Sample> = Vec::new();
    let mut ktally = OpTally::default();
    let mut time_kernels = |segment: usize| -> Result<(), String> {
        if kernel_share == 0.0 {
            return Ok(());
        }
        let block = rounds(
            &prepared,
            &sample_refs,
            &[Call::Armed],
            ctx.nproc,
            ctx.seed ^ segment as u64,
            Instant::now() + per_segment(kernel_share),
            1,
            false,
            None,
            &mut ktally,
        )?;
        // Rounds restart at 0 in every block; keep them distinct so the
        // paired ratio pairs runs of the same round only.
        let offset = kernel_samples.last().map_or(0, |s| s.round + 1);
        kernel_samples.extend(block.into_iter().map(|s| Sample {
            round: s.round + offset,
            ..s
        }));
        Ok(())
    };
    let phases = Phases {
        count: SEGMENTS,
        load: per_segment(load_share),
        between: &mut time_kernels,
    };
    let loaded = closed_loop(
        fleet.router.endpoint(),
        clients,
        phases,
        &next,
        &request,
        &tally,
        ctx.seed,
    );
    let by_segment = match loaded {
        Ok(l) => l,
        Err(e) => {
            fleet.router.drain();
            return Err(e);
        }
    };
    let latencies: Vec<f64> = by_segment.iter().flat_map(|(ms, _)| ms.clone()).collect();
    let segment_tails: Vec<f64> = by_segment.iter().map(|(ms, _)| tail(ms).0).collect();
    let segment_rps: Vec<f64> = by_segment
        .iter()
        .map(|(ms, s)| ms.len() as f64 / s)
        .collect();
    let peak_rss_mb = host::peak_rss_mb();
    let mut props = common_properties(ctx, name);
    props.push((
        "grid".into(),
        Json::Arr(vec![num(REQUEST_BOUND as f64), num(REQUEST_BOUND as f64)]),
    ));
    props.push(("clients".into(), num(clients as f64)));
    props.push(("shards".into(), num(crate::service::SHARDS)));
    if cold {
        props.push(("pool".into(), num(COLD_POOL as f64)));
    }
    props.push(("latency".into(), latency_properties(&latencies)));
    props.push((
        "segment_tails_ms".into(),
        Json::Arr(segment_tails.iter().map(|&t| num(t)).collect()),
    ));
    props.push((
        "segment_rps".into(),
        Json::Arr(segment_rps.iter().map(|&r| num(r)).collect()),
    ));
    props.push((
        "requests_sent".into(),
        num((next.load(std::sync::atomic::Ordering::Relaxed) - first) as f64),
    ));

    if !ctx.trace {
        let window = FleetCounters::of(&fleet.router.fleet_stats()).since(&before);
        fleet.router.drain();
        let inputs = sample_refs.len();
        let [t1, tn, ratio] = kernel_columns(&kernel_samples, inputs, Call::Armed, minimum);
        let [mid_t1, mid_tn, _] = kernel_columns(&kernel_samples, inputs, Call::Armed, median);
        props.push((
            "kernel_median_ms".into(),
            Json::Arr(vec![num(mid_t1), num(mid_tn)]),
        ));
        props.push(("shares".into(), share_properties(&window, &tally)));
        props.push(("store_bytes".into(), num(dir_bytes(&fleet.dir) as f64)));
        props.push((
            "kernels".into(),
            per_input_properties(
                &sample_refs,
                &prepared,
                &kernel_samples,
                Call::Armed,
                minimum,
            ),
        ));
        let ops = sum_ops(tally.ops(), ktally);
        let metrics = vec![
            ("setup_s", setup_s),
            ("peak_rss_mb", peak_rss_mb),
            (
                "throughput_rps",
                segment_rps.iter().copied().fold(0.0, f64::max),
            ),
            ("latency_p50_ms", median(&latencies)),
            ("latency_p95_ms", minimum(&segment_tails)),
            ("kernel_ms_t1", t1),
            ("kernel_ms_tn", tn),
            ("kernel_tn_over_t1", ratio),
        ];
        return Ok(Outcome::new(ops, metrics, props));
    }

    let sink = Arc::new(MemorySink::new());
    let tracer = Tracer::new(sink.clone());
    let prefill: Vec<&Input> = if cold {
        Vec::new()
    } else {
        inputs.iter().collect()
    };
    let traced = (|| -> Result<_, String> {
        let lone = boot_lone(&ctx.tmp.join("lone"), clients)?;
        let block = warm(lone.endpoint(), &prefill).and_then(|()| {
            request_block(
                fleet.router.endpoint(),
                lone.endpoint(),
                clients,
                Instant::now() + ctx.window(0.45),
                &next,
                &request,
                &prefill,
                &tally,
                &tracer,
                ctx.seed,
            )
        });
        lone.drain();
        block?;
        let mut block_tally = OpTally::default();
        let root = tracer.span("kernels");
        let kernels = kernel_block(
            ctx,
            &sample_refs,
            &prepared,
            Instant::now() + ctx.window(0.2),
            &root,
            &mut block_tally,
        )?;
        drop(root);
        Ok((kernels, block_tally))
    })();
    let window = FleetCounters::of(&fleet.router.fleet_stats()).since(&before);
    fleet.router.drain();
    let ((mut metrics, counts), block_tally) = traced?;
    let store_bytes = dir_bytes(&fleet.dir);
    let profile = sink.profile()?;
    let own = self_ns(&profile);
    metrics.extend(kernel_span_metrics(&profile, &own, sample_refs.len()));
    let (request_layer, traced_p50) = request_metrics(&profile);
    metrics.extend(request_layer);
    metrics.extend(fleet_metrics(&window, store_bytes, &tally));
    metrics.push((
        "trace.overhead_pct",
        percent_change(traced_p50, median(&latencies)),
    ));
    props.push(("shares".into(), share_properties(&window, &tally)));
    props.push(("counts".into(), counts));
    let ops = sum_ops(tally.ops(), block_tally);
    Ok(Outcome::new(
        ops,
        in_catalog_order(metrics, crate::report::PER_LAYER),
        props,
    ))
}

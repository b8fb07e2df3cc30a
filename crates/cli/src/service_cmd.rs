//! `mdfuse serve`, `mdfuse client`, and `mdfuse loadgen`: the CLI face
//! of the `mdfused` daemon (`mdf-service`) and the `mdf-router` fleet.
//!
//! * `serve` runs the daemon in the foreground until a client sends
//!   `Shutdown`, then drains gracefully and prints the flushed stats.
//!   Endpoints follow the workspace convention: `tcp:HOST:PORT` is TCP,
//!   anything else is a unix socket path.
//! * `client` is a one-shot protocol client: ping, stats, fleet,
//!   shutdown, or submit a program/graph file. `Overloaded` rejections
//!   that carry a retry hint are honored with bounded backoff.
//! * `loadgen` drives a seeded request mix over the DSL example
//!   workloads — against an external daemon or router (`--socket`, which
//!   also accepts `tcp:` endpoints), an in-process daemon it boots
//!   itself, or an in-process N-shard fleet (`--shards N`, front door on
//!   TCP; `--batch` arms the coalescing window) — and emits the
//!   schema-versioned `BENCH_service.json` report (p50/p99 latency,
//!   throughput, cache hit rate, per-shard rows, batching and reroute
//!   counters). Every completed request's fingerprint is checked against
//!   a direct `run_original` of the same workload, so the load test
//!   doubles as a correctness oracle. The report is a `Json` value
//!   checked against [`SCHEMA`]'s shape rules before it is written;
//!   `--check` runs the same schema, gate rules included, on a file.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mdf_graph::MdfError;
use mdf_router::{InProcessBackend, Router, RouterConfig};
use mdf_service::proto::{ErrCode, FleetStats, Response, ServiceStats, ShardRow, Submit};
use mdf_service::transport::Endpoint;
use mdf_service::{CacheSync, Client, Engine, Server, ServiceConfig};
use mdf_trace::json::{object, round, Field, Json, Schema, Type as T};

use crate::CliError;

/// Version stamp of the `BENCH_service.json` schema. v2 added `retries`,
/// the `router` scalar block, and per-shard rows; v3 added the warm
/// plan-cache counters (`cache_warm_hits`, `cache_warm_loaded`,
/// `warm_hit_rate`, per-shard `warm_hit_rate`) and the `chaos_latency`
/// block emitted by `loadgen --chaos`.
const SCHEMA_VERSION: u64 = 3;

/// Options for `serve`, `client`, and `loadgen`.
pub(crate) struct ServiceOpts {
    /// `serve`: concurrent submissions.
    pub workers: usize,
    /// `serve`: admission queue depth.
    pub queue_depth: usize,
    /// `serve`: plan-cache capacity.
    pub cache_capacity: usize,
    /// `serve`/`loadgen`: persistent plan-cache directory (for a fleet,
    /// the root under which each shard slot gets `shard-N/`).
    pub cache_dir: Option<String>,
    /// `serve`/`loadgen`: fsync discipline for the store
    /// (`never|snapshot|always`).
    pub cache_sync: String,
    /// `loadgen`: latency-under-chaos mode — fire seeded faults
    /// (including a shard kill mid-traffic) while measuring.
    pub chaos: bool,
    /// `loadgen`: external daemon/router endpoint (in-process when unset).
    pub socket: Option<String>,
    /// `loadgen`/`route`: fleet shard count (`0` = single daemon).
    pub shards: u32,
    /// `loadgen`/`route`: arm the same-fingerprint batching window.
    pub batch: bool,
    /// `loadgen`: total submissions.
    pub requests: u64,
    /// `loadgen`: closed-loop client threads.
    pub concurrency: usize,
    /// Shared with bench/chaos: write the JSON report here.
    pub out: Option<String>,
    /// Shared with bench/chaos: validate an existing report and exit.
    pub check: Option<String>,
    /// Workload directory (`.mdf` DSL examples).
    pub examples: String,
    /// Seed for the request mix and retry backoff.
    pub seed: u64,
}

impl Default for ServiceOpts {
    fn default() -> Self {
        ServiceOpts {
            workers: 4,
            queue_depth: 8,
            cache_capacity: 64,
            cache_dir: None,
            cache_sync: "snapshot".to_string(),
            chaos: false,
            socket: None,
            shards: 0,
            batch: false,
            requests: 120,
            concurrency: 4,
            out: None,
            check: None,
            examples: "examples/dsl".to_string(),
            seed: 0,
        }
    }
}

/// The batching window `--batch` arms. Small on purpose: long enough for
/// concurrent same-fingerprint arrivals to coalesce, short enough to stay
/// invisible next to an execution.
pub(crate) const BATCH_WINDOW: Duration = Duration::from_millis(2);

/// Bounded retries a client spends honoring `Overloaded` hints.
const MAX_RETRIES: u64 = 3;

/// splitmix64, the workspace-standard deterministic mix.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------
// serve

/// Parses a `--cache-sync` CLI value.
pub(crate) fn parse_cache_sync(s: &str) -> Result<CacheSync, CliError> {
    CacheSync::parse(s).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown --cache-sync {s:?} (expected never|snapshot|always)"
        ))
    })
}

/// Entry point for `mdfuse serve <endpoint>`.
pub(crate) fn serve(endpoint: &str, opts: &ServiceOpts) -> Result<String, CliError> {
    let mut config = ServiceConfig::at(Endpoint::parse(endpoint));
    config.workers = opts.workers.max(1);
    config.queue_depth = opts.queue_depth;
    config.cache_capacity = opts.cache_capacity.max(1);
    config.cache_dir = opts.cache_dir.as_ref().map(std::path::PathBuf::from);
    config.cache_sync = parse_cache_sync(&opts.cache_sync)?;
    let server = Server::start(config)
        .map_err(|e| CliError::Usage(format!("cannot bind {endpoint}: {e}")))?;
    // Foreground daemon: stdout is line-buffered status, shutdown comes
    // from a client `Shutdown` message (`mdfuse client <endpoint> shutdown`).
    // The resolved endpoint matters for `tcp:...:0` (ephemeral port).
    let persistence = match &opts.cache_dir {
        Some(dir) => format!(
            ", store {dir} (sync {}, {} warm-loaded)",
            opts.cache_sync,
            server.stats().cache_warm_loaded
        ),
        None => String::new(),
    };
    println!(
        "mdfused listening on {} ({} worker(s), queue {}, cache {}{persistence})",
        server.endpoint(),
        opts.workers,
        opts.queue_depth,
        opts.cache_capacity
    );
    while !server.is_draining() {
        std::thread::sleep(Duration::from_millis(100));
    }
    let stats = server.drain();
    Ok(format!("mdfused drained\n{}", render_stats_human(&stats)))
}

fn render_stats_human(s: &ServiceStats) -> String {
    format!(
        "connections: {}\nrequests: {} ({} completed)\n\
         cache: {} hit(s), {} miss(es), {} rejected\n\
         warm: {} warm hit(s), {} warm-loaded at boot\n\
         rejections: {} overload, {} drain\n\
         deadline expiries: {}\nrecoveries: {}\n\
         proto errors: {}\npanics isolated: {}\n",
        s.connections,
        s.requests,
        s.completed,
        s.cache_hits,
        s.cache_misses,
        s.cache_rejected,
        s.cache_warm_hits,
        s.cache_warm_loaded,
        s.overload_rejections,
        s.drain_rejections,
        s.deadline_expiries,
        s.recoveries,
        s.proto_errors,
        s.panics_isolated,
    )
}

pub(crate) fn render_fleet_human(f: &FleetStats) -> String {
    let mut out = format!(
        "fleet: {} shard(s); routed: {}; batched: {} submission(s) in {} group(s)\n\
         reroutes: {}; shard deaths: {}; respawns: {}; fair rejections: {}\n",
        f.shards.len(),
        f.routed,
        f.batched_submits,
        f.batched_groups,
        f.reroutes,
        f.shard_deaths,
        f.respawns,
        f.fair_rejections,
    );
    for row in &f.shards {
        let _ = writeln!(
            out,
            "  shard {} (gen {}, {}): routed {}, batched {}, reroutes {}, \
             {} completed, {} cache hit(s)",
            row.id,
            row.generation,
            if row.healthy { "healthy" } else { "dead" },
            row.routed,
            row.batched,
            row.reroutes,
            row.stats.completed,
            row.stats.cache_hits,
        );
    }
    out
}

// ---------------------------------------------------------------------
// client

/// Entry point for `mdfuse client <endpoint> <action> [file] [n] [m]`.
pub(crate) fn client(
    endpoint: &str,
    action: &str,
    rest: &[String],
    engine: &str,
    deadline_ms: Option<u64>,
) -> Result<String, CliError> {
    let target = Endpoint::parse(endpoint);
    let mut c = Client::connect_endpoint(&target)
        .map_err(|e| CliError::Usage(format!("cannot connect to {endpoint}: {e}")))?;
    match action {
        "ping" => {
            c.ping()
                .map_err(|e| CliError::Internal(format!("ping failed: {e}")))?;
            Ok("pong\n".to_string())
        }
        "stats" => {
            let s = c
                .stats()
                .map_err(|e| CliError::Internal(format!("stats failed: {e}")))?;
            Ok(render_stats_human(&s))
        }
        "fleet" => {
            let f = c
                .fleet()
                .map_err(|e| CliError::Internal(format!("fleet failed: {e}")))?;
            Ok(render_fleet_human(&f))
        }
        "shutdown" => {
            c.shutdown()
                .map_err(|e| CliError::Internal(format!("shutdown failed: {e}")))?;
            Ok("shutdown acknowledged; server is draining\n".to_string())
        }
        "submit" => {
            let path = rest
                .first()
                .ok_or_else(|| CliError::Usage("client submit requires a file".into()))?;
            let source = std::fs::read_to_string(path)
                .map_err(|e| CliError::Usage(format!("cannot read {path}: {e}")))?;
            let parse_dim = |s: &String| {
                s.parse::<i64>()
                    .map_err(|e| CliError::Usage(format!("bad bound {s:?}: {e}")))
            };
            let n = rest.get(1).map(parse_dim).transpose()?.unwrap_or(32);
            let m = rest.get(2).map(parse_dim).transpose()?.unwrap_or(32);
            let engine = Engine::parse(engine).ok_or_else(|| {
                CliError::Usage(format!(
                    "unknown engine {engine:?} (expected \"interp\" or \"kernel\")"
                ))
            })?;
            let submit = Submit {
                engine,
                n,
                m,
                deadline_ms: deadline_ms.unwrap_or(0),
                client: String::new(),
                source,
            };
            // Honor Overloaded retry hints with bounded backoff before
            // giving up — the hint is the contract, not decoration.
            let mut attempt = 0u64;
            let resp = loop {
                let resp = c
                    .submit(submit.clone())
                    .map_err(|e| CliError::Internal(format!("submit failed: {e}")))?;
                match resp {
                    Response::Err(ref e)
                        if e.code == ErrCode::Overloaded
                            && e.retry_after_ms > 0
                            && attempt < MAX_RETRIES =>
                    {
                        attempt += 1;
                        std::thread::sleep(Duration::from_millis(e.retry_after_ms * attempt));
                    }
                    other => break other,
                }
            };
            match resp {
                Response::Done(o) => Ok(format!(
                    "done: plan {} ({})\nfingerprint: {:#x}\n\
                     barriers: {}\nstatement instances: {}\n\
                     cache hit: {}\nrecovered: {}\n\
                     shard: {}; batched: {}; rerouted: {}\n",
                    o.plan,
                    if o.executed { "executed" } else { "plan only" },
                    o.fingerprint,
                    o.barriers,
                    o.stmt_instances,
                    o.cache_hit,
                    o.recovered,
                    o.shard,
                    o.batched,
                    o.rerouted,
                )),
                Response::Err(e) => Err(service_error_to_cli(&e)),
                other => Err(CliError::Internal(format!("unexpected response {other:?}"))),
            }
        }
        other => Err(CliError::Usage(format!(
            "unknown client action {other:?} (expected ping|stats|fleet|shutdown|submit)"
        ))),
    }
}

/// Maps a typed service error onto the CLI's exit-code taxonomy. A
/// budget or deadline answer keeps the service's message, which names the
/// limit that tripped and how far the run got.
fn service_error_to_cli(e: &mdf_service::ServiceError) -> CliError {
    let msg = format!("service error ({}): {}", e.code.name(), e.message);
    match e.code {
        ErrCode::Malformed => CliError::Mdf(MdfError::invalid(msg)),
        ErrCode::Infeasible => CliError::Mdf(MdfError::NotAcyclic),
        ErrCode::Budget | ErrCode::Deadline => CliError::Budget(msg),
        _ => CliError::Internal(msg),
    }
}

// ---------------------------------------------------------------------
// loadgen

struct Workload {
    name: String,
    source: String,
    n: i64,
    m: i64,
    /// `run_original` fingerprint: what every completed request must match.
    expected: u64,
}

fn load_workloads(dir: &str, n: i64, m: i64) -> Result<Vec<Workload>, CliError> {
    let mut names: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| CliError::Usage(format!("cannot read workload dir {dir}: {e}")))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "mdf"))
        .collect();
    names.sort();
    let mut out = Vec::new();
    for path in names {
        let source = std::fs::read_to_string(&path)
            .map_err(|e| CliError::Usage(format!("cannot read {}: {e}", path.display())))?;
        if !source.trim_start().starts_with("program") {
            continue; // loadgen only submits executable programs
        }
        let parsed = mdf_ir::parse_program_spanned(&source)?;
        let (mem, _) = mdf_sim::run_original(&parsed.program, n, m);
        out.push(Workload {
            name: path
                .file_name()
                .map(|f| f.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.display().to_string()),
            source,
            n,
            m,
            expected: mem.fingerprint(),
        });
    }
    if out.is_empty() {
        return Err(CliError::Usage(format!(
            "no .mdf program workloads found in {dir}"
        )));
    }
    Ok(out)
}

#[derive(Default)]
struct LoadCounters {
    completed: AtomicU64,
    mismatches: AtomicU64,
    typed_rejections: AtomicU64,
    transport_errors: AtomicU64,
    retries: AtomicU64,
    /// Completed requests whose outcome reported supervised recovery.
    recovered: AtomicU64,
    /// Completed requests that were rerouted to a different shard.
    rerouted: AtomicU64,
}

struct LoadReport {
    requests: u64,
    concurrency: usize,
    seed: u64,
    wall_s: f64,
    completed: u64,
    mismatches: u64,
    typed_rejections: u64,
    transport_errors: u64,
    retries: u64,
    /// Whether the run measured under injected faults (`--chaos`); the
    /// `chaos_latency` block is zero when it did not.
    chaos: bool,
    /// Client-observed recoveries and reroutes during the chaos window.
    chaos_recoveries: u64,
    chaos_reroutes: u64,
    latencies_ms: Vec<f64>,
    stats: ServiceStats,
    /// Fleet counters when the target was a router (in-process `--shards`
    /// fleet, or an external router that answered `Fleet`).
    fleet: Option<FleetStats>,
    workload_names: Vec<String>,
}

/// What loadgen is driving: an external endpoint, a daemon it booted, or
/// a fleet it booted (front door on TCP so the run exercises the fleet
/// transport end to end).
enum Target {
    External(Endpoint),
    OwnServer(Server),
    OwnFleet(Router),
}

/// Entry point for `mdfuse loadgen`.
pub(crate) fn loadgen(opts: &ServiceOpts, json: bool) -> Result<String, CliError> {
    if let Some(path) = &opts.check {
        return check_file(path);
    }
    let workloads = Arc::new(load_workloads(&opts.examples, 24, 24)?);
    let cache_sync = parse_cache_sync(&opts.cache_sync)?;
    if opts.chaos && opts.socket.is_some() {
        return Err(CliError::Usage(
            "--chaos requires an in-process target (faults cannot be injected \
             into an external daemon)"
                .into(),
        ));
    }
    let target = match &opts.socket {
        Some(s) => Target::External(Endpoint::parse(s)),
        None if opts.shards > 0 => {
            let mut template = ServiceConfig::new("unused.sock");
            template.workers = 2;
            template.queue_depth = opts.concurrency.max(4) * 2;
            template.chaos = opts.chaos;
            template.cache_dir = opts.cache_dir.as_ref().map(std::path::PathBuf::from);
            template.cache_sync = cache_sync;
            let backend = InProcessBackend::new(opts.shards, template);
            let mut config = RouterConfig::new(Endpoint::parse("tcp:127.0.0.1:0"), opts.shards);
            config.batch_window = opts.batch.then_some(BATCH_WINDOW);
            config.fair_slots = (opts.concurrency as u64).max(8 * opts.shards as u64);
            config.chaos = opts.chaos;
            let router = Router::start(config, Box::new(backend))
                .map_err(|e| CliError::Internal(format!("cannot boot fleet: {e}")))?;
            Target::OwnFleet(router)
        }
        None => {
            let path =
                std::env::temp_dir().join(format!("mdfused-loadgen-{}.sock", std::process::id()));
            let mut config = ServiceConfig::new(&path);
            config.workers = opts.concurrency.max(2);
            config.queue_depth = opts.concurrency * 2;
            config.chaos = opts.chaos;
            config.cache_dir = opts.cache_dir.as_ref().map(std::path::PathBuf::from);
            config.cache_sync = cache_sync;
            let server = Server::start(config)
                .map_err(|e| CliError::Internal(format!("cannot boot daemon: {e}")))?;
            Target::OwnServer(server)
        }
    };
    let endpoint = match &target {
        Target::External(e) => e.clone(),
        Target::OwnServer(server) => server.endpoint().clone(),
        Target::OwnFleet(router) => router.endpoint().clone(),
    };
    // External daemon: diff its counters around the run.
    let stats_before = match &target {
        Target::External(_) => probe_stats(&endpoint)?,
        _ => ServiceStats::default(),
    };

    let counters = Arc::new(LoadCounters::default());
    let latencies: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
    let next_request = Arc::new(AtomicU64::new(0));

    // `--chaos`: a rolling injector arms one seeded fault after another
    // for the whole measured window — worker panics at every service
    // layer, a shard kill + ring flap for fleets, a torn store append
    // when persistence is on — so the latency distribution includes
    // recovery, respawn, and reroute costs. Faults are one-shot; the
    // injector re-arms as soon as one fires (or a short window lapses).
    let chaos_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let chaos_injector = opts.chaos.then(|| {
        let stop = Arc::clone(&chaos_stop);
        let fleet = opts.shards > 0;
        let persist = opts.cache_dir.is_some();
        let mut state = opts.seed ^ 0x6c67_2d63_6861_6f73; // "lg-chaos"
        std::thread::spawn(move || {
            use mdf_chaos::FaultKind;
            let mut sites: Vec<(&'static str, FaultKind)> = vec![
                ("service.accept", FaultKind::WorkerPanic),
                ("service.read", FaultKind::WorkerPanic),
                ("service.write", FaultKind::WorkerPanic),
                ("service.cache", FaultKind::CorruptRetiming),
            ];
            if fleet {
                sites.push(("router.shard", FaultKind::WorkerPanic));
                sites.push(("router.ring", FaultKind::WorkerPanic));
            }
            if persist {
                sites.push(("persist.append", FaultKind::WorkerPanic));
            }
            while !stop.load(Ordering::SeqCst) {
                // Seeded site order, deterministic per (seed, round).
                let pick = (splitmix64(&mut state) % sites.len() as u64) as usize;
                let (site, kind) = sites[pick];
                let trigger = 1 + splitmix64(&mut state) % 3;
                let guard = mdf_chaos::FaultPlan::single(site, kind, trigger).arm();
                for _ in 0..10 {
                    if stop.load(Ordering::SeqCst) || guard.injected() > 0 {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                drop(guard);
            }
        })
    });

    let t0 = Instant::now();
    let mut threads = Vec::new();
    for worker in 0..opts.concurrency.max(1) {
        let endpoint = endpoint.clone();
        let workloads = Arc::clone(&workloads);
        let counters = Arc::clone(&counters);
        let latencies = Arc::clone(&latencies);
        let next_request = Arc::clone(&next_request);
        let seed = opts.seed;
        let total = opts.requests;
        let chaos_mode = opts.chaos;
        threads.push(std::thread::spawn(move || {
            // Each worker is one client identity, so fair-share sees a
            // population instead of one anonymous blob.
            let client_name = format!("w{worker}");
            let mut client = None;
            loop {
                let idx = next_request.fetch_add(1, Ordering::SeqCst);
                if idx >= total {
                    return;
                }
                // Seeded request mix: workload and engine derive from
                // (seed, request index) only — independent of timing.
                let mut state = seed ^ (idx.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                let w = &workloads[(splitmix64(&mut state) % workloads.len() as u64) as usize];
                let engine = if splitmix64(&mut state).is_multiple_of(2) {
                    Engine::Kernel
                } else {
                    Engine::Interp
                };
                let c = match &mut client {
                    Some(c) => c,
                    None => match Client::connect_endpoint(&endpoint) {
                        Ok(c) => client.insert(c),
                        Err(_) => {
                            counters.transport_errors.fetch_add(1, Ordering::SeqCst);
                            continue;
                        }
                    },
                };
                let submit = Submit {
                    engine,
                    n: w.n,
                    m: w.m,
                    deadline_ms: 10_000,
                    client: client_name.clone(),
                    source: w.source.clone(),
                };
                // Honor Overloaded retry hints: bounded attempts, seeded
                // deterministic jitter on top of the server's hint. Under
                // --chaos, fault-induced Internal errors are also retried
                // — the harness measures recovery latency, not the faults
                // themselves — and a retry that then completes counts as
                // a recovery.
                let mut attempt = 0u64;
                let mut retried_fault = false;
                let (lat, resp) = loop {
                    let started = Instant::now();
                    let resp = c.submit(submit.clone());
                    match resp {
                        Ok(Response::Err(ref e))
                            if e.code == ErrCode::Overloaded
                                && e.retry_after_ms > 0
                                && attempt < MAX_RETRIES =>
                        {
                            attempt += 1;
                            counters.retries.fetch_add(1, Ordering::SeqCst);
                            let jitter = splitmix64(&mut state) % (e.retry_after_ms + 1);
                            std::thread::sleep(Duration::from_millis(
                                e.retry_after_ms * attempt + jitter,
                            ));
                        }
                        Ok(Response::Err(ref e))
                            if chaos_mode
                                && e.code == ErrCode::Internal
                                && attempt < MAX_RETRIES =>
                        {
                            attempt += 1;
                            retried_fault = true;
                            counters.retries.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(Duration::from_millis(
                                5 * attempt + splitmix64(&mut state) % 6,
                            ));
                        }
                        other => break (started.elapsed().as_secs_f64() * 1e3, other),
                    }
                };
                match resp {
                    Ok(Response::Done(done)) => {
                        counters.completed.fetch_add(1, Ordering::SeqCst);
                        if done.fingerprint != w.expected {
                            counters.mismatches.fetch_add(1, Ordering::SeqCst);
                        }
                        if done.recovered || retried_fault {
                            counters.recovered.fetch_add(1, Ordering::SeqCst);
                        }
                        if done.rerouted {
                            counters.rerouted.fetch_add(1, Ordering::SeqCst);
                        }
                        if let Ok(mut l) = latencies.lock() {
                            l.push(lat);
                        }
                    }
                    Ok(Response::Err(_)) => {
                        counters.typed_rejections.fetch_add(1, Ordering::SeqCst);
                    }
                    Ok(_) | Err(_) => {
                        counters.transport_errors.fetch_add(1, Ordering::SeqCst);
                        client = None; // reconnect on the next request
                    }
                }
            }
        }));
    }
    for t in threads {
        let _ = t.join();
    }
    let wall_s = t0.elapsed().as_secs_f64();
    chaos_stop.store(true, Ordering::SeqCst);
    if let Some(injector) = chaos_injector {
        let _ = injector.join();
    }

    let (stats, fleet) = match target {
        Target::OwnServer(server) => (server.drain(), None),
        Target::OwnFleet(router) => {
            let fleet = router.drain();
            (fleet.shard_totals(), Some(fleet))
        }
        Target::External(_) => {
            // Best-effort fleet probe: an external router answers, a plain
            // daemon replies with a typed error and the block stays zero.
            let fleet = Client::connect_endpoint(&endpoint)
                .ok()
                .and_then(|mut c| c.fleet().ok());
            (diff_stats(&stats_before, &probe_stats(&endpoint)?), fleet)
        }
    };
    let mut latencies_ms = latencies.lock().map(|l| l.clone()).unwrap_or_default();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let report = LoadReport {
        requests: opts.requests,
        concurrency: opts.concurrency,
        seed: opts.seed,
        wall_s,
        completed: counters.completed.load(Ordering::SeqCst),
        mismatches: counters.mismatches.load(Ordering::SeqCst),
        typed_rejections: counters.typed_rejections.load(Ordering::SeqCst),
        transport_errors: counters.transport_errors.load(Ordering::SeqCst),
        retries: counters.retries.load(Ordering::SeqCst),
        chaos: opts.chaos,
        chaos_recoveries: counters.recovered.load(Ordering::SeqCst),
        chaos_reroutes: counters.rerouted.load(Ordering::SeqCst),
        latencies_ms,
        stats,
        fleet,
        workload_names: workloads.iter().map(|w| w.name.clone()).collect(),
    };

    let rendered = crate::write_report(&report_json(&report), &SCHEMA, opts.out.as_deref())?;
    if report.mismatches > 0 {
        return Err(CliError::Internal(format!(
            "{} fingerprint mismatch(es): service results diverged from run_original",
            report.mismatches
        )));
    }
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

fn probe_stats(endpoint: &Endpoint) -> Result<ServiceStats, CliError> {
    Client::connect_endpoint(endpoint)
        .map_err(|e| CliError::Usage(format!("cannot connect to {endpoint}: {e}")))?
        .stats()
        .map_err(|e| CliError::Internal(format!("stats probe failed: {e}")))
}

fn diff_stats(before: &ServiceStats, after: &ServiceStats) -> ServiceStats {
    ServiceStats {
        connections: after.connections.saturating_sub(before.connections),
        requests: after.requests.saturating_sub(before.requests),
        completed: after.completed.saturating_sub(before.completed),
        cache_hits: after.cache_hits.saturating_sub(before.cache_hits),
        cache_misses: after.cache_misses.saturating_sub(before.cache_misses),
        cache_rejected: after.cache_rejected.saturating_sub(before.cache_rejected),
        overload_rejections: after
            .overload_rejections
            .saturating_sub(before.overload_rejections),
        drain_rejections: after
            .drain_rejections
            .saturating_sub(before.drain_rejections),
        deadline_expiries: after
            .deadline_expiries
            .saturating_sub(before.deadline_expiries),
        recoveries: after.recoveries.saturating_sub(before.recoveries),
        proto_errors: after.proto_errors.saturating_sub(before.proto_errors),
        panics_isolated: after.panics_isolated.saturating_sub(before.panics_isolated),
        cache_warm_hits: after.cache_warm_hits.saturating_sub(before.cache_warm_hits),
        // Warm-loaded is a boot-time gauge, not a flow counter: report
        // the daemon's current value rather than a meaningless delta.
        cache_warm_loaded: after.cache_warm_loaded,
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn hit_rate(s: &ServiceStats) -> f64 {
    let total = s.cache_hits + s.cache_misses;
    if total == 0 {
        0.0
    } else {
        s.cache_hits as f64 / total as f64
    }
}

/// Share of cache hits served by a warm-loaded entry — the warm-vs-cold
/// split a restarted daemon (or respawned shard) is judged on.
fn warm_hit_rate(s: &ServiceStats) -> f64 {
    if s.cache_hits == 0 {
        0.0
    } else {
        s.cache_warm_hits as f64 / s.cache_hits as f64
    }
}

/// The report as a JSON document.
fn report_json(r: &LoadReport) -> Json {
    let latency = [0.50, 0.99, 1.0].map(|p| percentile(&r.latencies_ms, p));
    let percentiles = |[p50, p99, max]: [f64; 3]| {
        [
            ("p50", round(p50, 3)),
            ("p99", round(p99, 3)),
            ("max", round(max, 3)),
        ]
    };
    let wall_s = r.wall_s.max(1e-9);
    // Like the router block below, chaos_latency is always present
    // (all-zero when `--chaos` was off) so v3 consumers never branch on
    // field existence. Under chaos the whole measured window runs with
    // the injector live, so the percentiles are the chaos percentiles.
    let chaos = [("active", Json::from(r.chaos))]
        .into_iter()
        .chain(percentiles(if r.chaos { latency } else { [0.0; 3] }))
        .chain([
            ("recoveries", r.chaos_recoveries.into()),
            ("reroutes", r.chaos_reroutes.into()),
        ]);
    // The router block is always present (all-zero for a single daemon)
    // so v2 consumers never branch on field existence.
    let zero = FleetStats::default();
    let f = r.fleet.as_ref().unwrap_or(&zero);
    let router = object([
        ("routed", Json::from(f.routed)),
        ("batched_groups", f.batched_groups.into()),
        ("batched_submits", f.batched_submits.into()),
        ("reroutes", f.reroutes.into()),
        ("shard_deaths", f.shard_deaths.into()),
        ("respawns", f.respawns.into()),
        ("fair_rejections", f.fair_rejections.into()),
    ]);
    let shard = |row: &ShardRow| {
        object([
            ("id", Json::from(u64::from(row.id))),
            ("generation", row.generation.into()),
            ("healthy", row.healthy.into()),
            ("routed", row.routed.into()),
            ("batched", row.batched.into()),
            ("reroutes", row.reroutes.into()),
            ("requests", row.stats.requests.into()),
            ("completed", row.stats.completed.into()),
            ("req_s", round(row.routed as f64 / wall_s, 2)),
            ("cache_hit_rate", round(hit_rate(&row.stats), 4)),
            ("warm_hit_rate", round(warm_hit_rate(&row.stats), 4)),
            ("warm_loaded", row.stats.cache_warm_loaded.into()),
        ])
    };
    let st = &r.stats;
    object([
        ("schema_version", Json::from(SCHEMA_VERSION)),
        ("name", "BENCH_service".into()),
        ("requests", r.requests.into()),
        ("concurrency", r.concurrency.into()),
        // Loadgen is closed-loop only; the field stays for schema v3.
        ("mode", "closed".into()),
        ("seed", r.seed.into()),
        ("completed", r.completed.into()),
        ("mismatches", r.mismatches.into()),
        ("typed_rejections", r.typed_rejections.into()),
        ("transport_errors", r.transport_errors.into()),
        ("retries", r.retries.into()),
        ("throughput_rps", round(r.completed as f64 / wall_s, 2)),
        ("latency_ms", object(percentiles(latency))),
        ("cache_hit_rate", round(hit_rate(st), 4)),
        ("cache_hits", st.cache_hits.into()),
        ("cache_misses", st.cache_misses.into()),
        ("cache_rejected", st.cache_rejected.into()),
        ("overload_rejections", st.overload_rejections.into()),
        ("drain_rejections", st.drain_rejections.into()),
        ("deadline_expiries", st.deadline_expiries.into()),
        ("recoveries", st.recoveries.into()),
        ("proto_errors", st.proto_errors.into()),
        ("panics_isolated", st.panics_isolated.into()),
        ("cache_warm_hits", st.cache_warm_hits.into()),
        ("cache_warm_loaded", st.cache_warm_loaded.into()),
        ("warm_hit_rate", round(warm_hit_rate(st), 4)),
        ("chaos_latency", object(chaos)),
        ("router", router),
        ("shards", f.shards.iter().map(shard).collect()),
        (
            "workloads",
            r.workload_names.iter().map(String::as_str).collect(),
        ),
    ])
}

fn render_human(r: &LoadReport) -> String {
    let p50 = percentile(&r.latencies_ms, 0.50);
    let p99 = percentile(&r.latencies_ms, 0.99);
    let rps = r.completed as f64 / r.wall_s.max(1e-9);
    let mut out = format!(
        "loadgen: {} request(s) over {} workload(s), {} closed-loop client(s), seed {}\n\
         completed: {} (mismatches: {}, typed rejections: {}, transport errors: {}, \
         retries: {})\n\
         throughput: {rps:.1} req/s; latency p50 {p50:.2} ms, p99 {p99:.2} ms\n\
         cache hit rate: {:.1}% ({} hit(s), {} miss(es), {} rejected)\n\
         overload rejections: {}; recoveries: {}; deadline expiries: {}\n",
        r.requests,
        r.workload_names.len(),
        r.concurrency,
        r.seed,
        r.completed,
        r.mismatches,
        r.typed_rejections,
        r.transport_errors,
        r.retries,
        hit_rate(&r.stats) * 100.0,
        r.stats.cache_hits,
        r.stats.cache_misses,
        r.stats.cache_rejected,
        r.stats.overload_rejections,
        r.stats.recoveries,
        r.stats.deadline_expiries,
    );
    if r.stats.cache_warm_loaded > 0 || r.stats.cache_warm_hits > 0 {
        let _ = writeln!(
            out,
            "warm cache: {} warm-loaded, {} warm hit(s) ({:.1}% of hits)",
            r.stats.cache_warm_loaded,
            r.stats.cache_warm_hits,
            warm_hit_rate(&r.stats) * 100.0,
        );
    }
    if r.chaos {
        let _ = writeln!(
            out,
            "chaos: faults live for the whole window; {} recovery(ies), {} reroute(s) observed",
            r.chaos_recoveries, r.chaos_reroutes,
        );
    }
    if let Some(fleet) = &r.fleet {
        out.push_str(&render_fleet_human(fleet));
    }
    out
}

/// Validates a `BENCH_service.json` file against the schema, gate rules
/// included (exit 3 on violation).
pub(crate) fn check_file(path: &str) -> Result<String, CliError> {
    let doc = crate::read_report(path, &SCHEMA)?;
    let completed = doc.get("completed").and_then(Json::num).unwrap_or_default();
    Ok(format!(
        "{path}: valid BENCH_service schema v{SCHEMA_VERSION} ({completed} completed request(s))\n"
    ))
}

/// `BENCH_service.json`. The gate rules judge the run, so a loadgen run
/// that fails one still writes its report for `--check` to reject.
static SCHEMA: Schema = Schema {
    version: Some(SCHEMA_VERSION),
    fields: &[
        Field::req("name", T::Tag(&["BENCH_service"])),
        Field::req("mode", T::Str),
        Field::req(
            "{requests,concurrency,seed,completed,mismatches,typed_rejections,\
             transport_errors,retries,throughput_rps,cache_hits,cache_misses,\
             cache_rejected,overload_rejections,drain_rejections,deadline_expiries,\
             recoveries,proto_errors,panics_isolated,cache_warm_hits,cache_warm_loaded}",
            T::Num,
        )
        .min(0.0),
        Field::req("{cache_hit_rate,warm_hit_rate}", T::Num).within(0.0, 1.0),
        Field::req("{latency_ms,chaos_latency,router}", T::Obj),
        Field::req("latency_ms.{p50,p99,max}", T::Num).min(0.0),
        Field::req("chaos_latency.active", T::Bool),
        Field::req("chaos_latency.{p50,p99,max,recoveries,reroutes}", T::Num).min(0.0),
        Field::req(
            "router.{routed,batched_groups,batched_submits,reroutes,shard_deaths,respawns,\
             fair_rejections}",
            T::Num,
        )
        .min(0.0),
        Field::req("shards", T::Arr),
        Field::req("shards[]", T::Obj),
        Field::req(
            "shards[].{id,generation,routed,batched,reroutes,requests,completed,req_s,\
             cache_hit_rate,warm_hit_rate,warm_loaded}",
            T::Num,
        )
        .min(0.0),
        Field::req("shards[].healthy", T::Bool),
        Field::req("workloads", T::Arr).min(1.0),
        Field::req("workloads[]", T::Str).min(1.0),
    ],
    shape: &[],
    gates: &[
        completed_some,
        no_mismatches,
        cache_hit_floor,
        fleet_rows_routed,
    ],
};

fn num(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::num).unwrap_or_default()
}

fn completed_some(doc: &Json) -> Result<(), String> {
    if num(doc, "completed") < 1.0 {
        return Err("a valid report must complete at least one request".into());
    }
    Ok(())
}

fn no_mismatches(doc: &Json) -> Result<(), String> {
    if num(doc, "mismatches") != 0.0 {
        return Err("mismatches must be 0: the service diverged from run_original".into());
    }
    Ok(())
}

fn cache_hit_floor(doc: &Json) -> Result<(), String> {
    let rate = num(doc, "cache_hit_rate");
    if rate < 0.9 {
        return Err(format!(
            "cache_hit_rate {rate} below the 0.9 floor: repeat traffic is not hitting the plan cache"
        ));
    }
    Ok(())
}

/// A fleet run must show routing consistent with its rows.
fn fleet_rows_routed(doc: &Json) -> Result<(), String> {
    let rows = doc.get("shards").and_then(Json::arr).unwrap_or_default();
    let routed = doc.get("router").map_or(0.0, |r| num(r, "routed"));
    if !rows.is_empty() && routed < 1.0 {
        return Err("a fleet report with shard rows must have routed >= 1".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdf_trace::json::parse;

    #[test]
    fn budget_and_deadline_answers_exit_5_with_the_service_message() {
        for (code, message) in [
            (
                ErrCode::Deadline,
                "deadline of 50 ms expired after 37 barriers",
            ),
            (
                ErrCode::Budget,
                "budget exceeded: memory cells limit is 16777216, needed 21033005",
            ),
        ] {
            let err = service_error_to_cli(&mdf_service::ServiceError {
                code,
                retry_after_ms: 0,
                message: message.into(),
            });
            assert_eq!(err.exit_code(), 5, "{err}");
            assert!(err.to_string().contains(message), "{err}");
        }
    }

    fn render_json(r: &LoadReport) -> String {
        report_json(r).pretty()
    }

    /// Parses `text` and runs the whole schema on it, as `--check` does;
    /// returns the completed-request count.
    fn validate(text: &str) -> Result<u64, String> {
        let doc = parse(text)?;
        SCHEMA.check(&doc)?;
        Ok(num(&doc, "completed") as u64)
    }

    fn report() -> LoadReport {
        LoadReport {
            requests: 20,
            concurrency: 2,
            seed: 7,
            wall_s: 0.5,
            completed: 20,
            mismatches: 0,
            typed_rejections: 0,
            transport_errors: 0,
            retries: 0,
            chaos: false,
            chaos_recoveries: 0,
            chaos_reroutes: 0,
            latencies_ms: vec![1.0, 2.0, 3.0, 4.0],
            stats: ServiceStats {
                cache_hits: 15,
                cache_misses: 1,
                cache_warm_hits: 6,
                cache_warm_loaded: 4,
                ..ServiceStats::default()
            },
            fleet: None,
            workload_names: vec!["figure2.mdf".into()],
        }
    }

    fn fleet_report() -> LoadReport {
        let mut r = report();
        r.fleet = Some(FleetStats {
            routed: 20,
            batched_groups: 6,
            batched_submits: 14,
            reroutes: 1,
            shard_deaths: 1,
            respawns: 1,
            fair_rejections: 0,
            shards: vec![
                ShardRow {
                    id: 0,
                    generation: 1,
                    healthy: true,
                    routed: 12,
                    batched: 8,
                    reroutes: 1,
                    stats: ServiceStats {
                        requests: 12,
                        completed: 12,
                        cache_hits: 10,
                        cache_misses: 1,
                        ..ServiceStats::default()
                    },
                },
                ShardRow {
                    id: 1,
                    generation: 0,
                    healthy: true,
                    routed: 8,
                    batched: 6,
                    reroutes: 0,
                    stats: ServiceStats {
                        requests: 8,
                        completed: 8,
                        cache_hits: 5,
                        cache_misses: 1,
                        ..ServiceStats::default()
                    },
                },
            ],
        });
        r
    }

    #[test]
    fn rendered_report_validates() {
        let json = render_json(&report());
        let completed = validate(&json).unwrap_or_else(|m| panic!("{m}\n{json}"));
        assert_eq!(completed, 20);
    }

    #[test]
    fn rendered_fleet_report_validates_with_shard_rows() {
        let json = render_json(&fleet_report());
        validate(&json).unwrap_or_else(|m| panic!("{m}\n{json}"));
        assert!(json.contains("\"shards\": ["), "{json}");
        assert!(json.contains("\"batched_submits\": 14"), "{json}");
        // And the human render mentions the fleet.
        let human = render_human(&fleet_report());
        assert!(human.contains("fleet: 2 shard(s)"), "{human}");
    }

    #[test]
    fn chaos_block_renders_and_validates() {
        // Off: block present, all-zero, active false.
        let json = render_json(&report());
        validate(&json).unwrap_or_else(|m| panic!("{m}\n{json}"));
        assert!(json.contains("\"chaos_latency\""), "{json}");
        assert!(json.contains("\"active\": false"), "{json}");
        // On: percentiles mirror the run's, counters carried through.
        let mut r = report();
        r.chaos = true;
        r.chaos_recoveries = 3;
        r.chaos_reroutes = 2;
        let json = render_json(&r);
        validate(&json).unwrap_or_else(|m| panic!("{m}\n{json}"));
        assert!(json.contains("\"active\": true"), "{json}");
        assert!(json.contains("\"recoveries\": 3"), "{json}");
        assert!(json.contains("\"reroutes\": 2"), "{json}");
        let human = render_human(&r);
        assert!(human.contains("chaos:"), "{human}");
        assert!(human.contains("warm cache: 4 warm-loaded"), "{human}");
    }

    #[test]
    fn validator_rejects_mismatches_and_cold_cache() {
        let mut r = report();
        r.mismatches = 1;
        assert!(validate(&render_json(&r)).is_err());
        // Warm hits are a subset of hits: a cold run has none of either.
        let mut r = report();
        r.stats.cache_hits = 1;
        r.stats.cache_misses = 9;
        r.stats.cache_warm_hits = 0;
        let err = validate(&render_json(&r)).unwrap_err();
        assert!(err.contains("cache_hit_rate"), "{err}");
    }

    #[test]
    fn validator_rejects_inconsistent_fleet_rows() {
        let mut r = fleet_report();
        if let Some(f) = &mut r.fleet {
            f.routed = 0; // rows present but nothing routed: inconsistent
        }
        let err = validate(&render_json(&r)).unwrap_err();
        assert!(err.contains("routed"), "{err}");
    }

    #[test]
    fn percentile_handles_edges() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[4.0], 0.99), 4.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 51.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
    }
}

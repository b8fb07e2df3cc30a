//! The `mdfused` daemon: a fusion service over a unix socket or TCP.
//!
//! One acceptor thread hands each connection to its own handler thread.
//! Handlers read [`crate::proto`] frames with a polled, stall-bounded
//! loop, decode requests, and answer them. The robustness contract:
//!
//! * **Admission control** — at most `workers` submissions execute at
//!   once; up to `queue_depth` more wait on a condvar. Beyond that a
//!   request is refused *immediately* with a typed `Overloaded` error
//!   carrying a retry-after hint. The daemon never silently queues
//!   unbounded work and a client is never left hanging.
//! * **Deadlines** — every submission runs under a wall-clock [`Budget`];
//!   the client's `deadline_ms` (or [`DEFAULT_DEADLINE_MS`]) maps onto
//!   the same meter the planner and executors already honor, and the
//!   execution gets whatever planning left of it.
//! * **Supervised recovery** — execution runs once under the supervisor
//!   (`mdf_sim::supervise_run`, through the interpreter's or the
//!   kernel's supervised entry point), which retries a failed barrier
//!   from its checkpoint. It is the only recovery loop: a run it gives
//!   up on is answered `Deadline` when its deadline expired, and with the
//!   failure's own typed code otherwise.
//! * **Panic isolation** — each message is handled inside
//!   `catch_unwind`; a worker panic (including the injected
//!   `service.accept` / `service.read` / `service.write` chaos faults)
//!   costs one typed `Internal` error or one dropped connection, never
//!   the daemon.
//! * **Graceful drain** — [`Server::drain`] stops admission, lets
//!   in-flight requests finish (bounded by their deadlines), gives
//!   queued waiters a typed `Draining` rejection, joins every thread,
//!   removes the socket and flushes the final stats snapshot. A
//!   connection answered while draining is closed after the answer, so
//!   a client that never goes idle cannot hold the drain open.

use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mdf_core::{plan_fusion_budgeted, DegradedPlan, FullParallelMethod, FusionPlan};
use mdf_graph::{canonical_fingerprint, Budget, MdfError, Mldg};
use mdf_ir::ast::Program;
use mdf_ir::extract::extract_mldg;
use mdf_ir::retgen::FusedSpec;
use mdf_sim::{
    deadline_expired, run_traversal_supervised, ExecStats, RetryPolicy, Snapshot,
    SupervisedOutcome, Traversal,
};
use mdf_trace::Tracer;

use crate::cache::{CacheLookup, CachedPlan, PlanCache};
use crate::proto::{
    Engine, ErrCode, Outcome, Request, Response, ServiceError, ServiceStats, Submit,
};
use crate::store::{CacheStore, CacheSync};
use crate::transport::{read_frame_polled, Endpoint, Listener, Stream, READ_TICK};

/// The largest memory image, in cells, a submission may execute on:
/// 128 MiB of `i64`. A request asking for more is refused with a typed
/// `Budget` error before planning, instead of aborting the daemon when
/// the allocation fails. Fixed, and far above every grid the fleet's
/// callers send (64² or less).
const MAX_IMAGE_CELLS: u64 = 1 << 24;

/// The wall-clock ceiling, in milliseconds, of a submission that sends
/// `deadline_ms: 0`.
pub const DEFAULT_DEADLINE_MS: u64 = 10_000;

/// Tuning knobs for a [`Server`].
#[derive(Clone)]
pub struct ServiceConfig {
    /// Where to listen: a unix socket path (removed on drain) or a TCP
    /// address.
    pub endpoint: Endpoint,
    /// Maximum submissions executing concurrently.
    pub workers: usize,
    /// Maximum submissions waiting for a worker beyond the active set;
    /// past this, admission refuses with `Overloaded`.
    pub queue_depth: usize,
    /// Plan-cache capacity (entries).
    pub cache_capacity: usize,
    /// Execution threads per supervised run.
    pub threads: usize,
    /// Consult the `service.*` chaos sites (and run executions under
    /// chaos-enabled budgets). Off in production; the sweep turns it on.
    pub chaos: bool,
    /// Trace sink for service spans and counters.
    pub tracer: Tracer,
    /// Directory for the crash-safe plan-cache store. `Some` warm-loads
    /// the cache on boot and persists plan inserts and drain snapshots;
    /// `None` keeps the cache memory-only.
    pub cache_dir: Option<PathBuf>,
    /// fsync discipline for the store (the `--cache-sync` knob).
    pub cache_sync: CacheSync,
}

impl ServiceConfig {
    /// Defaults: 4 workers, queue of 8, 64-entry cache, 2 execution
    /// threads, chaos off, tracing off.
    pub fn new(socket: impl Into<PathBuf>) -> ServiceConfig {
        ServiceConfig::at(Endpoint::Unix(socket.into()))
    }

    /// Same defaults, listening on an arbitrary endpoint (unix or TCP).
    pub fn at(endpoint: Endpoint) -> ServiceConfig {
        ServiceConfig {
            endpoint,
            workers: 4,
            queue_depth: 8,
            cache_capacity: 64,
            threads: 2,
            chaos: false,
            tracer: Tracer::disabled(),
            cache_dir: None,
            cache_sync: CacheSync::default(),
        }
    }
}

/// Admission book-keeping under `Shared::adm`.
#[derive(Default)]
struct AdmState {
    active: usize,
    waiting: usize,
}

struct Shared {
    config: ServiceConfig,
    draining: AtomicBool,
    stats: Mutex<ServiceStats>,
    cache: Mutex<PlanCache>,
    /// The persistent side of the cache (`None` without `--cache-dir`).
    /// Never locked while holding `cache` — entries are copied out of
    /// the cache first, so the two locks nest strictly one at a time.
    store: Mutex<Option<CacheStore>>,
    adm: Mutex<AdmState>,
    adm_cv: Condvar,
    handlers: Mutex<Vec<JoinHandle<()>>>,
}

/// A panic while holding one of our mutexes poisons it; the data it
/// guards (counters, cache entries) stays structurally valid, so every
/// lock site recovers the guard instead of cascading the panic.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Fires a `WorkerPanic` chaos fault at `site`, if one is armed. Called
/// only inside `catch_unwind` scopes and never while holding a lock.
fn chaos_panic(enabled: bool, site: &'static str) {
    if enabled && mdf_chaos::hit(site) == Some(mdf_chaos::FaultKind::WorkerPanic) {
        panic!("chaos: injected worker panic at {site}");
    }
}

/// Holding one admission slot; releases and wakes a waiter on drop.
struct Permit<'a> {
    shared: &'a Shared,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut adm = lock_unpoisoned(&self.shared.adm);
        adm.active = adm.active.saturating_sub(1);
        drop(adm);
        self.shared.adm_cv.notify_all();
    }
}

fn acquire_permit(shared: &Shared) -> Result<Permit<'_>, ServiceError> {
    let draining_err = || ServiceError {
        code: ErrCode::Draining,
        retry_after_ms: 0,
        message: "server is draining and admits no new work".into(),
    };
    let mut adm = lock_unpoisoned(&shared.adm);
    if shared.draining.load(Ordering::SeqCst) {
        lock_unpoisoned(&shared.stats).drain_rejections += 1;
        return Err(draining_err());
    }
    if adm.active < shared.config.workers {
        adm.active += 1;
        return Ok(Permit { shared });
    }
    if adm.waiting >= shared.config.queue_depth {
        lock_unpoisoned(&shared.stats).overload_rejections += 1;
        // Hint scales with the queue: a full queue of slow requests
        // deserves a longer backoff than a momentary blip.
        let hint = 25 * (adm.waiting as u64 + 1);
        return Err(ServiceError {
            code: ErrCode::Overloaded,
            retry_after_ms: hint,
            message: format!(
                "admission queue full ({} active, {} waiting)",
                adm.active, adm.waiting
            ),
        });
    }
    adm.waiting += 1;
    loop {
        let (next, timeout) = shared
            .adm_cv
            .wait_timeout(adm, READ_TICK)
            .unwrap_or_else(|e| e.into_inner());
        adm = next;
        let _ = timeout;
        if shared.draining.load(Ordering::SeqCst) {
            adm.waiting = adm.waiting.saturating_sub(1);
            lock_unpoisoned(&shared.stats).drain_rejections += 1;
            return Err(draining_err());
        }
        if adm.active < shared.config.workers {
            adm.waiting = adm.waiting.saturating_sub(1);
            adm.active += 1;
            return Ok(Permit { shared });
        }
    }
}

/// A running `mdfused` daemon. Dropping without [`Server::drain`] leaks
/// the threads until process exit; callers should always drain.
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds the endpoint and starts the acceptor.
    pub fn start(mut config: ServiceConfig) -> std::io::Result<Server> {
        let (listener, actual) = Listener::bind(&config.endpoint)?;
        // Record the resolved endpoint (TCP port 0 → the ephemeral port
        // actually bound) so `endpoint()` reports something connectable.
        config.endpoint = actual;
        // Warm-load the plan cache from the persistent store before the
        // first connection. A damaged or unusable store costs entries
        // (or all of persistence), never the boot.
        let mut cache = PlanCache::new(config.cache_capacity);
        let mut stats = ServiceStats::default();
        let store = match &config.cache_dir {
            Some(dir) => match CacheStore::open(dir, config.cache_sync, config.chaos) {
                Ok(mut store) => {
                    let report = store.load(&mut cache);
                    stats.cache_warm_loaded = report.loaded;
                    Some(store)
                }
                Err(_) => None,
            },
            None => None,
        };
        let shared = Arc::new(Shared {
            cache: Mutex::new(cache),
            store: Mutex::new(store),
            config,
            draining: AtomicBool::new(false),
            stats: Mutex::new(stats),
            adm: Mutex::new(AdmState::default()),
            adm_cv: Condvar::new(),
            handlers: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let acceptor = std::thread::spawn(move || accept_loop(accept_shared, listener));
        Ok(Server {
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The endpoint the daemon is serving on (resolved: for TCP port 0
    /// this is the actual ephemeral port).
    pub fn endpoint(&self) -> &Endpoint {
        &self.shared.config.endpoint
    }

    /// `true` once drain has been requested (by [`Server::drain`] or a
    /// client `Shutdown` message).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        *lock_unpoisoned(&self.shared.stats)
    }

    /// Graceful shutdown: stop admitting, finish (or typed-reject)
    /// everything in flight, join all threads, remove the socket, and
    /// return the final stats snapshot.
    pub fn drain(mut self) -> ServiceStats {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.adm_cv.notify_all();
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        loop {
            let handles: Vec<JoinHandle<()>> =
                lock_unpoisoned(&self.shared.handlers).drain(..).collect();
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
        if let Endpoint::Unix(path) = &self.shared.config.endpoint {
            let _ = std::fs::remove_file(path);
        }
        // Fold the final cache state into a compacted snapshot so a
        // clean shutdown restarts from one dense file. The injected
        // persist.compact fault panics here by design — the sweep
        // verifies the interrupted compaction leaves a loadable store.
        {
            let entries = lock_unpoisoned(&self.shared.cache).entries().to_vec();
            let mut store = lock_unpoisoned(&self.shared.store);
            if let Some(store) = store.as_mut() {
                let _ = store.compact(&entries);
            }
        }
        let span = self.shared.config.tracer.span("service.drain");
        let stats = *lock_unpoisoned(&self.shared.stats);
        span.add("requests", stats.requests);
        span.add("completed", stats.completed);
        span.add("recoveries", stats.recoveries);
        span.finish();
        stats
    }
}

fn accept_loop(shared: Arc<Shared>, listener: Listener) {
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok(stream) => {
                lock_unpoisoned(&shared.stats).connections += 1;
                spawn_handler(Arc::clone(&shared), stream);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn spawn_handler(shared: Arc<Shared>, stream: Stream) {
    let registry = Arc::clone(&shared);
    let handle = std::thread::spawn(move || {
        let result = catch_unwind(AssertUnwindSafe(|| handle_connection(&shared, stream)));
        if result.is_err() {
            // A panic that escaped the per-message isolation (e.g. the
            // service.accept site, which fires before any framing): the
            // connection drops, the daemon survives.
            lock_unpoisoned(&shared.stats).panics_isolated += 1;
        }
    });
    lock_unpoisoned(&registry.handlers).push(handle);
}

fn write_response(stream: &mut Stream, resp: &Response) -> std::io::Result<()> {
    stream.write_all(&resp.encode())
}

fn handle_connection(shared: &Shared, mut stream: Stream) {
    let _ = stream.set_read_timeout(Some(READ_TICK));
    // The service.accept site models a fault in connection setup: the
    // panic unwinds to spawn_handler's catch, the client sees EOF, and a
    // reconnect succeeds (faults are one-shot).
    chaos_panic(shared.config.chaos, "service.accept");
    loop {
        let payload = match read_frame_polled(&mut stream, &shared.draining) {
            Ok(Some(p)) => p,
            Ok(None) => return,
            Err(err) => {
                lock_unpoisoned(&shared.stats).proto_errors += 1;
                let _ = write_response(
                    &mut stream,
                    &Response::Err(ServiceError {
                        code: ErrCode::Proto,
                        retry_after_ms: 0,
                        message: err.to_string(),
                    }),
                );
                return; // protocol errors close the connection
            }
        };
        let req = match Request::decode(&payload) {
            Ok(r) => r,
            Err(err) => {
                lock_unpoisoned(&shared.stats).proto_errors += 1;
                let _ = write_response(
                    &mut stream,
                    &Response::Err(ServiceError {
                        code: ErrCode::Proto,
                        retry_after_ms: 0,
                        message: err.to_string(),
                    }),
                );
                return;
            }
        };
        lock_unpoisoned(&shared.stats).requests += 1;
        let resp = match req {
            Request::Ping => Response::Pong,
            Request::Stats => Response::Stats(*lock_unpoisoned(&shared.stats)),
            Request::Fleet => Response::Err(ServiceError {
                code: ErrCode::Malformed,
                retry_after_ms: 0,
                message: "fleet stats are only available from a router".into(),
            }),
            Request::Shutdown => {
                shared.draining.store(true, Ordering::SeqCst);
                shared.adm_cv.notify_all();
                let _ = write_response(&mut stream, &Response::ShutdownAck);
                return;
            }
            Request::Submit(submit) => {
                // Per-message panic isolation: a worker panic (organic or
                // the service.read/service.write chaos sites) becomes one
                // typed Internal error on this connection.
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    chaos_panic(shared.config.chaos, "service.read");
                    process_submit(shared, &submit)
                }));
                match outcome {
                    Ok(Ok(done)) => {
                        lock_unpoisoned(&shared.stats).completed += 1;
                        Response::Done(done)
                    }
                    Ok(Err(err)) => Response::Err(err),
                    Err(_) => {
                        lock_unpoisoned(&shared.stats).panics_isolated += 1;
                        Response::Err(ServiceError {
                            code: ErrCode::Internal,
                            retry_after_ms: 25,
                            message: "worker panicked; the fault was isolated".into(),
                        })
                    }
                }
            }
        };
        // The write itself runs under the same isolation: a fault here
        // (service.write) downgrades to a best-effort Internal error —
        // the chaos fault is spent, so the fallback write cannot re-fire.
        let wrote = catch_unwind(AssertUnwindSafe(|| {
            chaos_panic(shared.config.chaos, "service.write");
            write_response(&mut stream, &resp)
        }));
        match wrote {
            Ok(Ok(())) => {}
            Ok(Err(_)) => return, // client went away
            Err(_) => {
                lock_unpoisoned(&shared.stats).panics_isolated += 1;
                let _ = write_response(
                    &mut stream,
                    &Response::Err(ServiceError {
                        code: ErrCode::Internal,
                        retry_after_ms: 25,
                        message: "response writer panicked; the fault was isolated".into(),
                    }),
                );
            }
        }
        // The read loop notices a drain only between frames, on an idle
        // READ_TICK; a client sending faster than that would hold the
        // drain open forever. Close after answering instead.
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Writes one cache entry through to the persistent store, if one is
/// configured. The cache and store locks are never held together (the
/// entry arrives pre-copied; compaction re-copies the entries between
/// the locks). IO failures are swallowed — a broken store costs warm
/// restarts, never a request — while the injected `persist.append` /
/// `persist.compact` panics escape into the caller's `catch_unwind` by
/// design (one typed `Internal` error models the torn write).
fn persist_entry(shared: &Shared, key: u64, entry: Option<CachedPlan>) {
    let Some(plan) = entry else { return };
    let wants_compaction = {
        let mut store = lock_unpoisoned(&shared.store);
        let Some(store) = store.as_mut() else { return };
        let _ = store.append(key, &plan);
        store.wants_compaction()
    };
    if wants_compaction {
        let entries = lock_unpoisoned(&shared.cache).entries().to_vec();
        let mut store = lock_unpoisoned(&shared.store);
        if let Some(store) = store.as_mut() {
            let _ = store.compact(&entries);
        }
    }
}

/// Typed-error mapping for planner/parser failures.
fn map_mdf_error(e: &MdfError) -> ServiceError {
    let (code, retry) = match e {
        MdfError::Parse { .. } | MdfError::Invalid { .. } => (ErrCode::Malformed, 0),
        MdfError::Infeasible { .. } | MdfError::NotAcyclic => (ErrCode::Infeasible, 0),
        MdfError::BudgetExceeded { .. } if deadline_expired(e) => (ErrCode::Deadline, 0),
        MdfError::BudgetExceeded { .. } => (ErrCode::Budget, 0),
        MdfError::Exec { .. } => (ErrCode::Internal, 25),
    };
    ServiceError {
        code,
        retry_after_ms: retry,
        message: e.to_string(),
    }
}

fn plan_description(plan: &DegradedPlan) -> String {
    match plan {
        DegradedPlan::Fused(FusionPlan::FullParallel { method, .. }) => match method {
            FullParallelMethod::Acyclic => "full parallel (Algorithm 3)".into(),
            FullParallelMethod::Cyclic => "full parallel (Algorithm 4)".into(),
        },
        DegradedPlan::Fused(FusionPlan::Hyperplane { wavefront, .. }) => {
            format!("hyperplane wavefront s={}", wavefront.schedule)
        }
        DegradedPlan::Partial(p) => format!("partial fusion ({} clusters)", p.clusters.len()),
    }
}

/// Parsed submission input.
struct SubmitInput {
    graph: Mldg,
    program: Option<Program>,
}

/// Canonical MLDG fingerprint of a submission source — the router's
/// consistent-hash key. Parses exactly as the daemon would (same typed
/// errors), so a source the fleet cannot route is the same source a
/// shard would reject.
pub fn submit_fingerprint(source: &str) -> Result<u64, ServiceError> {
    let input = parse_submit(source)?;
    Ok(canonical_fingerprint(&input.graph))
}

fn parse_submit(source: &str) -> Result<SubmitInput, ServiceError> {
    if source.trim_start().starts_with("program") {
        let parsed = mdf_ir::parse_program_spanned(source).map_err(|e| map_mdf_error(&e))?;
        let x = extract_mldg(&parsed.program).map_err(|e| map_mdf_error(&e))?;
        Ok(SubmitInput {
            graph: x.graph,
            program: Some(parsed.program),
        })
    } else {
        let (graph, _) = mdf_graph::textfmt::parse(source).map_err(|e| map_mdf_error(&e))?;
        Ok(SubmitInput {
            graph,
            program: None,
        })
    }
}

/// Executes one submission end to end: admission → parse → cache/plan →
/// certify → (for DSL programs) one supervised execution.
fn process_submit(shared: &Shared, submit: &Submit) -> Result<Outcome, ServiceError> {
    let permit = acquire_permit(shared)?;
    let span = shared.config.tracer.span("service.submit");
    let result = process_admitted(shared, submit, &span);
    match &result {
        Ok(o) => {
            span.add("cache_hit", o.cache_hit as u64);
            span.add("recovered", o.recovered as u64);
        }
        Err(e) => {
            if e.code == ErrCode::Deadline {
                lock_unpoisoned(&shared.stats).deadline_expiries += 1;
            }
            span.add(e.code.trace_key(), 1);
        }
    }
    span.finish();
    drop(permit);
    result
}

impl ErrCode {
    /// Static counter key for trace spans.
    fn trace_key(self) -> &'static str {
        match self {
            ErrCode::Proto => "err_proto",
            ErrCode::Malformed => "err_malformed",
            ErrCode::Infeasible => "err_infeasible",
            ErrCode::Budget => "err_budget",
            ErrCode::Deadline => "err_deadline",
            ErrCode::Overloaded => "err_overloaded",
            ErrCode::Draining => "err_draining",
            ErrCode::Internal => "err_internal",
        }
    }
}

fn process_admitted(
    shared: &Shared,
    submit: &Submit,
    span: &mdf_trace::Span,
) -> Result<Outcome, ServiceError> {
    let config = &shared.config;
    let input = parse_submit(&submit.source)?;
    if let Some(program) = &input.program {
        let cells = mdf_sim::Memory::cells_for_program(program, submit.n, submit.m, 0);
        Budget::unlimited()
            .with_max_memory_cells(MAX_IMAGE_CELLS)
            .meter()
            .charge_cells(cells)
            .map_err(|e| map_mdf_error(&e))?;
    }
    let deadline_ms = if submit.deadline_ms == 0 {
        DEFAULT_DEADLINE_MS
    } else {
        submit.deadline_ms
    };
    let deadline = Duration::from_millis(deadline_ms);
    let mut budget = Budget::unlimited().with_deadline(deadline);
    if config.chaos {
        budget = budget.with_chaos();
    }
    let started = Instant::now();

    // Cache probe. A hit skips plan+certify (the lookup itself
    // revalidated the plan against this very graph); a rejected entry
    // (poison or fingerprint collision) falls through to a fresh plan.
    let key = canonical_fingerprint(&input.graph);
    let cache_span = span.child("cache");
    let looked = lock_unpoisoned(&shared.cache).lookup(key, &input.graph, config.chaos);
    cache_span.finish();
    let (plan, cache_hit) = match looked {
        CacheLookup::Hit(p, warm) => {
            let mut stats = lock_unpoisoned(&shared.stats);
            stats.cache_hits += 1;
            if warm {
                stats.cache_warm_hits += 1;
            }
            drop(stats);
            (DegradedPlan::Fused(p), true)
        }
        rejected_or_miss => {
            {
                let mut stats = lock_unpoisoned(&shared.stats);
                if matches!(rejected_or_miss, CacheLookup::Rejected) {
                    stats.cache_rejected += 1;
                }
                stats.cache_misses += 1;
            }
            let plan_span = span.child("plan");
            let report =
                plan_fusion_budgeted(&input.graph, &budget).map_err(|e| map_mdf_error(&e))?;
            plan_span.finish();
            let certify_span = span.child("certify");
            report.verify(&input.graph).map_err(|e| ServiceError {
                code: ErrCode::Internal,
                retry_after_ms: 0,
                message: format!("plan failed certification: {e}"),
            })?;
            certify_span.finish();
            if let DegradedPlan::Fused(p) = &report.plan {
                let mut cache = lock_unpoisoned(&shared.cache);
                cache.insert(key, &input.graph, p);
                let entry = cache.peek(key).cloned();
                drop(cache);
                persist_entry(shared, key, entry);
            }
            (report.plan, false)
        }
    };

    let description = plan_description(&plan);
    let (Some(program), DegradedPlan::Fused(fused)) = (&input.program, &plan) else {
        // Plan-only result: textfmt MLDGs have nothing to execute, and
        // partially fused programs are not runnable as one fused loop.
        return Ok(Outcome {
            executed: false,
            fingerprint: 0,
            barriers: 0,
            stmt_instances: 0,
            cache_hit,
            recovered: false,
            batched: 1,
            rerouted: false,
            shard: 0,
            plan: description,
        });
    };
    let fused = mdf_sim::align_plan_to_program(&input.graph, program, fused).ok_or_else(|| {
        ServiceError {
            code: ErrCode::Internal,
            retry_after_ms: 0,
            message: "program/graph alignment failed".into(),
        }
    })?;
    let spec = FusedSpec::new(program.clone(), fused.retiming().offsets().to_vec());

    let exec_span = span.child("execute");
    let executed = execute(shared, &spec, &fused, submit, deadline, started)?;
    exec_span.finish();
    Ok(Outcome {
        executed: true,
        fingerprint: executed.fingerprint,
        barriers: executed.stats.barriers,
        stmt_instances: executed.stats.stmt_instances,
        cache_hit,
        recovered: executed.recovered,
        batched: 1,
        rerouted: false,
        shard: 0,
        plan: description,
    })
}

struct Executed {
    fingerprint: u64,
    stats: ExecStats,
    recovered: bool,
}

/// Runs the fused schedule once under supervision, on a meter holding the
/// wall-clock the request has left. A kernel request compiles its plan at
/// the request's bounds, and the drive proves its own accesses in bounds
/// before it allocates. The supervisor's barrier retries are the only
/// recovery; it keeps one base image (none at all while the run's work
/// stays under its image size) and undoes a failed chunk by replaying
/// from it. A run it gives up on is answered `Deadline` when its deadline
/// expired, and with its cause's own typed code otherwise.
fn execute(
    shared: &Shared,
    spec: &FusedSpec,
    plan: &FusionPlan,
    submit: &Submit,
    deadline: Duration,
    started: Instant,
) -> Result<Executed, ServiceError> {
    let expired = |completed: u64| ServiceError {
        code: ErrCode::Deadline,
        retry_after_ms: 0,
        message: format!(
            "deadline of {} ms expired after {completed} barriers",
            deadline.as_millis()
        ),
    };
    let remaining = deadline.saturating_sub(started.elapsed());
    if remaining.is_zero() {
        return Err(expired(0));
    }
    let mut budget = Budget::unlimited().with_deadline(remaining);
    if shared.config.chaos {
        budget = budget.with_chaos();
    }
    let mut meter = budget.meter();
    let policy = RetryPolicy::deterministic();
    let run = match submit.engine {
        Engine::Interp => run_traversal_supervised(
            spec,
            Traversal::of(plan),
            submit.n,
            submit.m,
            &mut meter,
            &policy,
            None,
        )
        .map(finish),
        Engine::Kernel => {
            let mode = mdf_kernel::plan_mode(spec, plan);
            mdf_kernel::CompiledKernel::compile(spec, submit.n, submit.m).and_then(|k| {
                k.run_supervised(mode, shared.config.threads, &policy, &mut meter)
                    .map(finish)
            })
        }
    };
    match run.map_err(|e| map_mdf_error(&e))? {
        Ok(executed) => {
            if executed.recovered {
                lock_unpoisoned(&shared.stats).recoveries += 1;
            }
            Ok(executed)
        }
        Err((cause, _)) if !deadline_expired(&cause) => Err(map_mdf_error(&cause)),
        Err((_, completed)) => Err(expired(completed)),
    }
}

/// One engine's supervised outcome: the executed result, or a partial
/// run's cause with the barriers its checkpoint completed. The image's
/// digest is its fingerprint on both engines.
fn finish<M: Snapshot>(outcome: SupervisedOutcome<M>) -> Result<Executed, (MdfError, u64)> {
    match outcome {
        SupervisedOutcome::Complete {
            mem,
            stats,
            recovery,
        } => Ok(Executed {
            fingerprint: mem.digest(),
            stats,
            recovered: recovery.retries > 0 || recovery.resumes > 0,
        }),
        SupervisedOutcome::Partial {
            checkpoint, cause, ..
        } => Err((cause, checkpoint.completed_barriers)),
    }
}

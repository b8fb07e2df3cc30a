//! The router process: one front door, N supervised `mdfused` shards.
//!
//! Clients speak the ordinary `mdf-service` frame protocol to the
//! router (typically over TCP — the fleet transport); the router speaks
//! the same protocol to its shards (local unix sockets). Per request:
//!
//! 1. **Fair share** — admission across client identities
//!    ([`crate::fair`]): a hot client past its entitlement gets a typed
//!    `Overloaded` with a retry hint.
//! 2. **Routing** — the canonical MLDG fingerprint of the source (the
//!    same key the shard's plan cache uses) picks the owner on the
//!    consistent-hash ring ([`crate::ring`]), so identical graphs always
//!    land on the shard whose cache is warm.
//! 3. **Batching** — with a window configured, same-key submissions
//!    coalesce ([`crate::batch`]): one shard execution serves all `k`
//!    members, each reporting `batched = k`.
//! 4. **Failover** — a shard that fails mid-request is marked dead on
//!    the ring and the request is re-sent to the next live owner; the
//!    outcome reports `rerouted = true`. The health loop pings every
//!    shard, detects deaths, and respawns with deterministic exponential
//!    backoff (generation bumped each time). No live shard at all is a
//!    typed `Overloaded` — never a hang.
//!
//! The `router.*` chaos sites inject a shard kill (`router.shard`, which
//! stops the owner just before a request is forwarded to it, so the
//! forward fails and takes the failover path), a spurious ring dead-mark
//! (`router.ring`), and a batch-window stall (`router.batch`); the
//! `mdfuse chaos` sweep requires every one to classify as recovered or
//! detected. All three fire on the request path, never on a timer, so a
//! seeded sweep injects the same faults in the same places every run.
//!
//! On drain, a connection is closed after the answer it is being given,
//! as in the daemon: a client that never goes idle cannot hold the drain
//! open.

use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mdf_service::proto::{
    ErrCode, FleetStats, Outcome, Request, Response, ServiceError, ServiceStats, ShardRow, Submit,
};
use mdf_service::transport::{read_frame_polled, Endpoint, Listener, Stream, READ_TICK};
use mdf_service::{submit_fingerprint, Client, DEFAULT_DEADLINE_MS};

use crate::backend::Backend;
use crate::batch::{BatchKey, Batcher, LeaderGuard, Role};
use crate::fair::FairShare;
use crate::ring::{Ring, DEFAULT_VNODES};

/// Tuning knobs for a [`Router`].
pub struct RouterConfig {
    /// Front-door endpoint (typically `tcp:127.0.0.1:PORT`).
    pub endpoint: Endpoint,
    /// Number of worker shards.
    pub shards: u32,
    /// Batch coalescing window; `None` disables batching.
    pub batch_window: Option<Duration>,
    /// Total in-flight submissions across the fleet (the fair-share
    /// pool). Defaults to `8 × shards`.
    pub fair_slots: u64,
    /// Consult the `router.*` chaos sites. Off in production.
    pub chaos: bool,
    /// Health-ping cadence.
    pub health_interval: Duration,
}

impl RouterConfig {
    /// Defaults: batching off, `8 × shards` fair slots, chaos off,
    /// 100 ms health cadence. The ring always places
    /// [`DEFAULT_VNODES`] virtual nodes per shard.
    pub fn new(endpoint: Endpoint, shards: u32) -> RouterConfig {
        RouterConfig {
            endpoint,
            shards: shards.max(1),
            batch_window: None,
            fair_slots: 8 * shards.max(1) as u64,
            chaos: false,
            health_interval: Duration::from_millis(100),
        }
    }
}

/// Deterministic respawn backoff: 50 ms doubling to a 400 ms cap.
fn respawn_backoff(step: u32) -> Duration {
    Duration::from_millis(50u64 << step.min(3))
}

/// Extra window the `router.batch` stall fault injects. Bounded: the
/// batch still flushes, just late.
const BATCH_STALL: Duration = Duration::from_millis(200);

/// Cap on pooled idle connections per shard.
const POOL_CAP: usize = 8;

struct ShardState {
    endpoint: Endpoint,
    generation: u64,
    healthy: bool,
    died_at: Option<Instant>,
    backoff_step: u32,
    routed: u64,
    batched: u64,
    reroutes: u64,
    /// Idle pooled connections, valid for `pool_generation` only.
    pool: Vec<Client>,
    pool_generation: u64,
}

/// A counting semaphore bounding concurrent batched executions to the
/// shard count. Leaders keep their batch group *open* while waiting for
/// a slot, so under load more followers coalesce per group — batch size
/// adapts to queue depth instead of being fixed by the window alone.
struct Gate {
    permits: Mutex<u64>,
    cv: Condvar,
}

/// One execution slot; returned to the gate on drop (panic included, so
/// an isolated leader fault can never leak a slot and wedge the router).
struct GatePermit<'a>(&'a Gate);

impl Gate {
    fn new(permits: u64) -> Gate {
        Gate {
            permits: Mutex::new(permits.max(1)),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self) -> GatePermit<'_> {
        let mut p = lock_unpoisoned(&self.permits);
        while *p == 0 {
            p = self.cv.wait(p).unwrap_or_else(|e| e.into_inner());
        }
        *p -= 1;
        GatePermit(self)
    }
}

impl Drop for GatePermit<'_> {
    fn drop(&mut self) {
        *lock_unpoisoned(&self.0.permits) += 1;
        self.0.cv.notify_one();
    }
}

#[derive(Default)]
struct Counters {
    routed: AtomicU64,
    batched_groups: AtomicU64,
    batched_submits: AtomicU64,
    reroutes: AtomicU64,
    shard_deaths: AtomicU64,
    respawns: AtomicU64,
    fair_rejections: AtomicU64,
}

struct Shared {
    config: RouterConfig,
    backend: Box<dyn Backend>,
    draining: AtomicBool,
    ring: Mutex<Ring>,
    shards: Vec<Mutex<ShardState>>,
    counters: Counters,
    batcher: Batcher,
    gate: Gate,
    fair: Arc<FairShare>,
    /// Source text → canonical fingerprint. The fingerprint is a pure
    /// function of the source, so byte-identical resubmissions skip the
    /// parse + canonicalization on the routing path.
    fp_memo: Mutex<std::collections::BTreeMap<String, u64>>,
    handlers: Mutex<Vec<JoinHandle<()>>>,
}

/// Bound on memoized distinct sources; the table is cleared when full
/// (repeat traffic re-warms it in one round).
const FP_MEMO_CAP: usize = 1024;

/// The routing key for a submission, memoized by exact source text.
fn routing_fingerprint(shared: &Shared, source: &str) -> Result<u64, ServiceError> {
    if let Some(fp) = lock_unpoisoned(&shared.fp_memo).get(source) {
        return Ok(*fp);
    }
    let fp = submit_fingerprint(source)?;
    let mut memo = lock_unpoisoned(&shared.fp_memo);
    if memo.len() >= FP_MEMO_CAP {
        memo.clear();
    }
    memo.insert(source.to_string(), fp);
    Ok(fp)
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A running fleet router. Always [`Router::drain`] before dropping.
pub struct Router {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    health: Option<JoinHandle<()>>,
}

impl Router {
    /// Starts every shard through `backend`, binds the front door, and
    /// spawns the acceptor and health loops.
    pub fn start(config: RouterConfig, backend: Box<dyn Backend>) -> std::io::Result<Router> {
        let mut shards = Vec::with_capacity(config.shards as usize);
        for shard in 0..config.shards {
            let endpoint = backend.start(shard, 0)?;
            shards.push(Mutex::new(ShardState {
                endpoint,
                generation: 0,
                healthy: true,
                died_at: None,
                backoff_step: 0,
                routed: 0,
                batched: 0,
                reroutes: 0,
                pool: Vec::new(),
                pool_generation: 0,
            }));
        }
        let (listener, actual) = Listener::bind(&config.endpoint)?;
        let ring = Ring::new(config.shards, DEFAULT_VNODES);
        let batcher = Batcher::new(config.batch_window.unwrap_or(Duration::ZERO));
        let fair = Arc::new(FairShare::new(config.fair_slots));
        let shared = Arc::new(Shared {
            config: RouterConfig {
                endpoint: actual,
                ..config
            },
            backend,
            draining: AtomicBool::new(false),
            ring: Mutex::new(ring),
            shards,
            counters: Counters::default(),
            batcher,
            gate: Gate::new(config.shards as u64),
            fair,
            fp_memo: Mutex::new(std::collections::BTreeMap::new()),
            handlers: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let acceptor = std::thread::spawn(move || accept_loop(accept_shared, listener));
        let health_shared = Arc::clone(&shared);
        let health = std::thread::spawn(move || health_loop(health_shared));
        Ok(Router {
            shared,
            acceptor: Some(acceptor),
            health: Some(health),
        })
    }

    /// The resolved front-door endpoint.
    pub fn endpoint(&self) -> &Endpoint {
        &self.shared.config.endpoint
    }

    /// `true` once drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Current fleet snapshot (router counters + live per-shard stats).
    pub fn fleet_stats(&self) -> FleetStats {
        fleet_stats(&self.shared)
    }

    /// Graceful shutdown: stop admitting, join every connection handler
    /// and the health loop, snapshot the fleet one last time, then stop
    /// every shard. Returns the final snapshot.
    pub fn drain(mut self) -> FleetStats {
        self.shared.draining.store(true, Ordering::SeqCst);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        if let Some(h) = self.health.take() {
            let _ = h.join();
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
        let stats = fleet_stats(&self.shared);
        for shard in 0..self.shared.config.shards {
            // Drop pooled connections first so shard drains don't wait
            // out idle sessions.
            lock_unpoisoned(&self.shared.shards[shard as usize])
                .pool
                .clear();
            self.shared.backend.stop(shard);
        }
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
                let conn_shared = Arc::clone(&shared);
                let handle = std::thread::spawn(move || {
                    let _ =
                        catch_unwind(AssertUnwindSafe(|| handle_connection(&conn_shared, stream)));
                });
                lock_unpoisoned(&shared.handlers).push(handle);
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

fn handle_connection(shared: &Shared, mut stream: Stream) {
    let _ = stream.set_read_timeout(Some(READ_TICK));
    loop {
        let payload = match read_frame_polled(&mut stream, &shared.draining) {
            Ok(Some(p)) => p,
            Ok(None) => return,
            Err(err) => {
                let _ = stream.write_all(
                    &Response::Err(ServiceError {
                        code: ErrCode::Proto,
                        retry_after_ms: 0,
                        message: err.to_string(),
                    })
                    .encode(),
                );
                return;
            }
        };
        let req = match Request::decode(&payload) {
            Ok(r) => r,
            Err(err) => {
                let _ = stream.write_all(
                    &Response::Err(ServiceError {
                        code: ErrCode::Proto,
                        retry_after_ms: 0,
                        message: err.to_string(),
                    })
                    .encode(),
                );
                return;
            }
        };
        let resp = match req {
            Request::Ping => Response::Pong,
            Request::Stats => Response::Stats(fleet_stats(shared).shard_totals()),
            Request::Fleet => Response::Fleet(fleet_stats(shared)),
            Request::Shutdown => {
                shared.draining.store(true, Ordering::SeqCst);
                let _ = stream.write_all(&Response::ShutdownAck.encode());
                return;
            }
            Request::Submit(submit) => {
                // Per-message panic isolation, same contract as the
                // daemon: a routing bug costs one typed Internal error.
                let outcome = catch_unwind(AssertUnwindSafe(|| process_submit(shared, &submit)));
                match outcome {
                    Ok(Ok(done)) => Response::Done(done),
                    Ok(Err(err)) => Response::Err(err),
                    Err(_) => Response::Err(ServiceError {
                        code: ErrCode::Internal,
                        retry_after_ms: 25,
                        message: "router worker panicked; the fault was isolated".into(),
                    }),
                }
            }
        };
        if stream.write_all(&resp.encode()).is_err() {
            return; // client went away
        }
        // Drain is noticed only on an idle READ_TICK; a client sending
        // faster than that would hold it open. Close after answering.
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// One end-to-end submission through the router: fair share → key →
/// (batch) → route with failover.
fn process_submit(shared: &Shared, submit: &Submit) -> Result<Outcome, ServiceError> {
    let _permit = shared.fair.acquire(&submit.client).inspect_err(|_| {
        shared
            .counters
            .fair_rejections
            .fetch_add(1, Ordering::SeqCst);
    })?;
    // The routing key parses the source exactly as a shard would, so an
    // unroutable submission fails here with the same typed error the
    // daemon would return — no shard round-trip wasted.
    let fingerprint = routing_fingerprint(shared, &submit.source)?;
    if shared.config.batch_window.is_none() {
        return route_execute(shared, fingerprint, submit);
    }
    let key = BatchKey {
        fingerprint,
        engine: submit.engine as u8,
        n: submit.n,
        m: submit.m,
    };
    match shared.batcher.join(key) {
        Role::Leader(group) => {
            let guard = LeaderGuard::new(Arc::clone(&group));
            // The router.batch fault stalls the window, bounded by
            // BATCH_STALL: the batch flushes late, never never-flushes.
            let stall = if shared.config.chaos
                && mdf_chaos::hit("router.batch") == Some(mdf_chaos::FaultKind::DeadlineExpiry)
            {
                BATCH_STALL
            } else {
                Duration::ZERO
            };
            std::thread::sleep(shared.batcher.window().saturating_add(stall));
            // Execution slot before close: while this leader queues for
            // one, the group stays open and followers keep coalescing.
            let _slot = shared.gate.acquire();
            let k = shared.batcher.close(key, &group);
            shared
                .counters
                .batched_groups
                .fetch_add(1, Ordering::SeqCst);
            let mut result = route_execute(shared, fingerprint, submit);
            if let Ok(o) = &mut result {
                o.batched = k;
                if k > 1 {
                    shared
                        .counters
                        .batched_submits
                        .fetch_add(k, Ordering::SeqCst);
                    lock_unpoisoned(&shared.shards[o.shard as usize]).batched += k;
                }
            }
            guard.publish(result.clone());
            result
        }
        Role::Follower(group) => {
            let deadline_ms = if submit.deadline_ms == 0 {
                DEFAULT_DEADLINE_MS
            } else {
                submit.deadline_ms
            };
            let timeout = shared.batcher.window()
                + BATCH_STALL
                + Duration::from_millis(deadline_ms)
                + Duration::from_secs(5);
            Batcher::wait(&group, timeout)
        }
    }
}

/// Routes one submission to its owner shard, failing over across the
/// ring on transport errors. Typed service errors from a shard pass
/// through unchanged (they are answers, not failures).
fn route_execute(
    shared: &Shared,
    fingerprint: u64,
    submit: &Submit,
) -> Result<Outcome, ServiceError> {
    let no_shard = || ServiceError {
        code: ErrCode::Overloaded,
        retry_after_ms: 200,
        message: "no live shard can take this request; the fleet is respawning".into(),
    };
    let mut rerouted = false;
    // Each shard gets at most one try per request (plus one slot for a
    // chaos ring flap); after that the fleet is genuinely unroutable.
    for _ in 0..=shared.config.shards {
        let owner = match lock_unpoisoned(&shared.ring).owner(fingerprint) {
            Some(s) => s,
            None => return Err(no_shard()),
        };
        // The router.ring flap: spuriously mark the owner dead. The
        // request reroutes to the next live owner; the health loop pings
        // the "dead" shard, finds it alive, and revives it in place.
        if shared.config.chaos
            && mdf_chaos::hit("router.ring") == Some(mdf_chaos::FaultKind::WorkerPanic)
        {
            lock_unpoisoned(&shared.ring).set_live(owner, false);
            rerouted = true;
            continue;
        }
        // The router.shard kill: stop the owner just before forwarding.
        // The forward below fails, the owner is marked dead, the request
        // reroutes, and the health loop respawns the shard.
        if shared.config.chaos
            && mdf_chaos::hit("router.shard") == Some(mdf_chaos::FaultKind::WorkerPanic)
        {
            shared.backend.stop(owner);
        }
        match shard_request(shared, owner, &Request::Submit(submit.clone())) {
            Ok(Response::Done(mut o)) => {
                o.shard = owner;
                o.rerouted = rerouted;
                shared.counters.routed.fetch_add(1, Ordering::SeqCst);
                let mut st = lock_unpoisoned(&shared.shards[owner as usize]);
                st.routed += 1;
                if rerouted {
                    st.reroutes += 1;
                    drop(st);
                    shared.counters.reroutes.fetch_add(1, Ordering::SeqCst);
                }
                return Ok(o);
            }
            Ok(Response::Err(e)) => return Err(e),
            Ok(other) => {
                return Err(ServiceError {
                    code: ErrCode::Internal,
                    retry_after_ms: 25,
                    message: format!("unexpected shard response {other:?}"),
                })
            }
            Err(_) => {
                // Transport failure mid-request: the shard is dead (or
                // dying). Mark it and re-route — the typed outcome the
                // client eventually sees says `rerouted`, never a hang.
                mark_dead(shared, owner);
                rerouted = true;
            }
        }
    }
    Err(no_shard())
}

/// Sends one request on a pooled shard connection (connecting fresh if
/// the pool is empty or stale). The connection returns to the pool only
/// after a clean exchange.
fn shard_request(
    shared: &Shared,
    shard: u32,
    req: &Request,
) -> Result<Response, mdf_service::ProtoError> {
    let (endpoint, generation, pooled) = {
        let mut st = lock_unpoisoned(&shared.shards[shard as usize]);
        let pooled = if st.pool_generation == st.generation {
            st.pool.pop()
        } else {
            st.pool.clear();
            None
        };
        (st.endpoint.clone(), st.generation, pooled)
    };
    let mut client = match pooled {
        Some(c) => c,
        None => Client::connect_endpoint(&endpoint)
            .map_err(|e| mdf_service::ProtoError::Io(e.to_string()))?,
    };
    let resp = client.request(req)?;
    let mut st = lock_unpoisoned(&shared.shards[shard as usize]);
    if st.generation == generation && st.pool.len() < POOL_CAP {
        st.pool_generation = generation;
        st.pool.push(client);
    }
    Ok(resp)
}

/// Marks a shard dead: off the ring, pool flushed, death counted. The
/// health loop owns respawning it.
fn mark_dead(shared: &Shared, shard: u32) {
    let mut st = lock_unpoisoned(&shared.shards[shard as usize]);
    if st.healthy {
        st.healthy = false;
        st.died_at = Some(Instant::now());
        st.pool.clear();
        shared.counters.shard_deaths.fetch_add(1, Ordering::SeqCst);
    }
    drop(st);
    lock_unpoisoned(&shared.ring).set_live(shard, false);
}

/// The supervision loop: pings healthy shards, detects deaths, respawns
/// dead shards with deterministic exponential backoff, and revives
/// shards a ring flap spuriously marked dead.
fn health_loop(shared: Arc<Shared>) {
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        for shard in 0..shared.config.shards {
            let (ring_live, healthy, died_at, backoff_step, generation) = {
                let st = lock_unpoisoned(&shared.shards[shard as usize]);
                (
                    lock_unpoisoned(&shared.ring).is_live(shard),
                    st.healthy,
                    st.died_at,
                    st.backoff_step,
                    st.generation,
                )
            };
            if healthy {
                match shard_request(&shared, shard, &Request::Ping) {
                    Ok(Response::Pong) => {
                        // Alive. If a ring flap marked it dead, revive in
                        // place — no respawn, only its keys move back.
                        if !ring_live {
                            lock_unpoisoned(&shared.ring).set_live(shard, true);
                        }
                    }
                    _ => mark_dead(&shared, shard),
                }
            } else {
                let due = died_at
                    .map(|t| t.elapsed() >= respawn_backoff(backoff_step))
                    .unwrap_or(true);
                if !due {
                    continue;
                }
                match shared.backend.start(shard, generation + 1) {
                    Ok(endpoint) => {
                        let mut st = lock_unpoisoned(&shared.shards[shard as usize]);
                        st.endpoint = endpoint;
                        st.generation += 1;
                        st.healthy = true;
                        st.died_at = None;
                        st.backoff_step = 0;
                        st.pool.clear();
                        st.pool_generation = st.generation;
                        drop(st);
                        lock_unpoisoned(&shared.ring).set_live(shard, true);
                        shared.counters.respawns.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(_) => {
                        let mut st = lock_unpoisoned(&shared.shards[shard as usize]);
                        st.backoff_step = (st.backoff_step + 1).min(3);
                        st.died_at = Some(Instant::now());
                    }
                }
            }
        }
        std::thread::sleep(shared.config.health_interval);
    }
}

fn fleet_stats(shared: &Shared) -> FleetStats {
    let c = &shared.counters;
    let mut rows = Vec::with_capacity(shared.config.shards as usize);
    for shard in 0..shared.config.shards {
        let (generation, healthy, routed, batched, reroutes) = {
            let st = lock_unpoisoned(&shared.shards[shard as usize]);
            (
                st.generation,
                st.healthy,
                st.routed,
                st.batched,
                st.reroutes,
            )
        };
        let stats = if healthy {
            match shard_request(shared, shard, &Request::Stats) {
                Ok(Response::Stats(s)) => s,
                _ => ServiceStats::default(),
            }
        } else {
            ServiceStats::default()
        };
        rows.push(ShardRow {
            id: shard,
            generation,
            healthy,
            routed,
            batched,
            reroutes,
            stats,
        });
    }
    FleetStats {
        routed: c.routed.load(Ordering::SeqCst),
        batched_groups: c.batched_groups.load(Ordering::SeqCst),
        batched_submits: c.batched_submits.load(Ordering::SeqCst),
        reroutes: c.reroutes.load(Ordering::SeqCst),
        shard_deaths: c.shard_deaths.load(Ordering::SeqCst),
        respawns: c.respawns.load(Ordering::SeqCst),
        fair_rejections: c.fair_rejections.load(Ordering::SeqCst),
        shards: rows,
    }
}

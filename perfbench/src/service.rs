//! The fleet under test and the closed-loop clients that drive it.
//!
//! The fleet is booted the way `mdfuse loadgen --shards 2 --batch` boots
//! it: `Router::start` over an `InProcessBackend` of two shards, a fresh
//! `cache_dir`, and a TCP front door. Each client holds one connection and
//! one identity and sends its next request only after the previous one
//! answered (a closed loop).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use mdf_router::{InProcessBackend, Router, RouterConfig};
use mdf_service::proto::{ErrCode, FleetStats, Response, Submit};
use mdf_service::{Client, Endpoint, Engine, Server, ServiceConfig};

use crate::inputs::{splitmix64, Input};
use crate::kernels::OpTally;

/// Shards in the fleet.
pub const SHARDS: u32 = 2;

/// loadgen's `--batch` window.
const BATCH_WINDOW: Duration = Duration::from_millis(2);

/// Retries a client spends honouring `Overloaded` hints (loadgen's).
const MAX_RETRIES: u64 = 3;

/// Per-request deadline the clients send (loadgen's).
const DEADLINE_MS: u64 = 10_000;

/// The shard configuration of loadgen's `--shards` fleet: two workers, a
/// queue of twice the client count (at least 8), a 64-entry plan cache,
/// persisted under `cache_dir`.
fn shard_config(cache_dir: &Path, clients: usize) -> ServiceConfig {
    let mut config = ServiceConfig::new("unused.sock");
    config.workers = 2;
    config.queue_depth = clients.max(4) * 2;
    config.cache_dir = Some(cache_dir.to_path_buf());
    config
}

/// Boots the two-shard batched fleet with its store under `cache_dir`.
pub fn boot_fleet(cache_dir: &Path, clients: usize) -> Result<Router, String> {
    let backend = InProcessBackend::new(SHARDS, shard_config(cache_dir, clients));
    let mut config = RouterConfig::new(Endpoint::parse("tcp:127.0.0.1:0"), SHARDS);
    config.batch_window = Some(BATCH_WINDOW);
    config.fair_slots = (clients as u64).max(8 * u64::from(SHARDS));
    Router::start(config, Box::new(backend)).map_err(|e| format!("cannot boot the fleet: {e}"))
}

/// Boots one `Server` with a shard's configuration, on TCP like the
/// fleet's front door, so the two round trips differ by the router hop.
pub fn boot_lone(cache_dir: &Path, clients: usize) -> Result<Server, String> {
    let mut config = shard_config(cache_dir, clients);
    config.endpoint = Endpoint::parse("tcp:127.0.0.1:0");
    Server::start(config).map_err(|e| format!("cannot boot the lone server: {e}"))
}

/// The request a client submits for `input` on `engine`.
pub fn submit_for(input: &Input, engine: Engine, client: &str) -> Submit {
    Submit {
        engine,
        n: input.n,
        m: input.m,
        deadline_ms: DEADLINE_MS,
        client: client.to_string(),
        source: input.source.clone(),
    }
}

/// One answered (or lost) request as the client saw it.
pub struct Reply {
    /// Round trip from the first send to the final answer, retries
    /// included.
    pub latency_ms: f64,
    pub retries: u64,
    /// `None` on a transport error.
    pub response: Option<Response>,
}

/// Sends `submit`, honouring `Overloaded` retry hints with seeded jitter
/// (loadgen's policy).
pub fn send(client: &mut Client, submit: &Submit, jitter: &mut u64) -> Reply {
    let t0 = Instant::now();
    let mut retries = 0;
    loop {
        match client.submit(submit.clone()) {
            Ok(Response::Err(e))
                if e.code == ErrCode::Overloaded
                    && e.retry_after_ms > 0
                    && retries < MAX_RETRIES =>
            {
                retries += 1;
                let extra = splitmix64(jitter) % (e.retry_after_ms + 1);
                std::thread::sleep(Duration::from_millis(e.retry_after_ms * retries + extra));
            }
            other => {
                return Reply {
                    latency_ms: t0.elapsed().as_secs_f64() * 1e3,
                    retries,
                    response: other.ok(),
                }
            }
        }
    }
}

/// Plan kinds the service reported, and loop counts requested.
type Histograms = (BTreeMap<&'static str, u64>, BTreeMap<usize, u64>);

/// Client-side counters shared by every client thread.
#[derive(Default)]
pub struct Tally {
    attempted: AtomicU64,
    completed: AtomicU64,
    mismatches: AtomicU64,
    rejected: AtomicU64,
    transport: AtomicU64,
    pub retries: AtomicU64,
    executed: AtomicU64,
    kernel: AtomicU64,
    shapes: Mutex<Histograms>,
}

impl Tally {
    /// Counts one reply to a request for `input` on `engine`; returns
    /// whether it completed and matched the oracle. A `Done` that
    /// executed must carry `input`'s fingerprint; plan-only answers carry
    /// none.
    pub fn judge(&self, reply: &Reply, input: &Input, engine: Engine) -> bool {
        let add = |c: &AtomicU64| c.fetch_add(1, Ordering::Relaxed);
        add(&self.attempted);
        self.retries.fetch_add(reply.retries, Ordering::Relaxed);
        if engine == Engine::Kernel {
            add(&self.kernel);
        }
        {
            let mut shapes = self
                .shapes
                .lock()
                .expect("tally lock poisoned by a client panic");
            *shapes.1.entry(input.loops()).or_default() += 1;
            if let Some(Response::Done(o)) = &reply.response {
                *shapes.0.entry(plan_kind_of(&o.plan)).or_default() += 1;
            }
        }
        match &reply.response {
            Some(Response::Done(o)) => {
                add(&self.completed);
                if !o.executed {
                    return true;
                }
                add(&self.executed);
                if o.fingerprint != input.expected {
                    add(&self.mismatches);
                    return false;
                }
                true
            }
            Some(Response::Err(_)) => {
                add(&self.rejected);
                false
            }
            Some(_) | None => {
                add(&self.transport);
                false
            }
        }
    }

    /// Counts an in-process replay whose result disagreed with the oracle.
    pub fn replay_mismatch(&self) {
        self.mismatches.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an in-process replay that failed before producing a result.
    pub fn replay_error(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Attempted, failed and mismatched operations so far.
    pub fn ops(&self) -> OpTally {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mismatches = get(&self.mismatches);
        OpTally {
            attempted: get(&self.attempted),
            failed: mismatches + get(&self.rejected) + get(&self.transport),
            mismatches,
        }
    }

    /// `(completed, executed, kernel-engine requests)`.
    pub fn shares(&self) -> (u64, u64, u64) {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        (get(&self.completed), get(&self.executed), get(&self.kernel))
    }

    /// Plan kinds reported by the service and loop counts requested.
    pub fn histograms(&self) -> Histograms {
        self.shapes
            .lock()
            .expect("tally lock poisoned by a client panic")
            .clone()
    }
}

/// Maps the service's plan description to the paper's algorithm.
fn plan_kind_of(description: &str) -> &'static str {
    if description.contains("Algorithm 3") {
        "alg3"
    } else if description.contains("Algorithm 4") {
        "alg4"
    } else if description.contains("hyperplane") {
        "alg5"
    } else {
        "partial"
    }
}

/// A request: the input to submit and the engine to run it on.
pub type RequestFn<'a> = dyn Fn(u64) -> (&'a Input, Engine) + Sync + 'a;

/// Submits every `(input, engine)` pair once, in order, and fails unless
/// each completes with the oracle's fingerprint: warms the plan cache and
/// attaches bytecode certificates before timing.
pub fn warm(endpoint: &Endpoint, inputs: &[&Input]) -> Result<(), String> {
    let mut client = Client::connect_endpoint(endpoint)
        .map_err(|e| format!("cannot connect to {endpoint}: {e}"))?;
    let tally = Tally::default();
    let mut jitter = 0;
    for input in inputs {
        for engine in [Engine::Kernel, Engine::Interp] {
            let reply = send(&mut client, &submit_for(input, engine, "warm"), &mut jitter);
            if !tally.judge(&reply, input, engine) {
                return Err(format!(
                    "warm-up request for {} on {} failed: {:?}",
                    input.name,
                    engine.name(),
                    reply.response
                ));
            }
        }
    }
    Ok(())
}

/// The load phases of a service run: how many, how long each, and what
/// runs on the calling thread after each while the clients wait.
pub struct Phases<'a> {
    pub count: usize,
    pub load: Duration,
    pub between: &'a mut dyn FnMut(usize) -> Result<(), String>,
}

/// Runs `clients` closed-loop clients against `endpoint` for each of
/// `phases.count` load phases, with `phases.between` after each. The
/// clients keep their threads and connections across phases, so the
/// fleet sees the same sessions throughout. Request `idx` comes from
/// `next` and `request`, so what is sent depends only on the index, never
/// on timing. Returns, per phase, the round trips of completed requests
/// in ms and the phase's wall time in seconds; after a failed `between`
/// the remaining phases send nothing and its error is returned.
pub fn closed_loop(
    endpoint: &Endpoint,
    clients: usize,
    phases: Phases,
    next: &AtomicU64,
    request: &RequestFn,
    tally: &Tally,
    seed: u64,
) -> Result<Vec<(Vec<f64>, f64)>, String> {
    let gate = Barrier::new(clients + 1);
    let stop = AtomicBool::new(false);
    let (count, load) = (phases.count, phases.load);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (gate, stop) = (&gate, &stop);
                s.spawn(move || {
                    let name = format!("w{c}");
                    let mut jitter = seed ^ (c as u64 + 1);
                    let mut client = None;
                    let mut by_phase = Vec::with_capacity(count);
                    for _ in 0..count {
                        gate.wait();
                        let deadline = Instant::now() + load;
                        let mut latencies = Vec::new();
                        while !stop.load(Ordering::Relaxed) && Instant::now() < deadline {
                            let Some(conn) = connected(&mut client, endpoint, tally) else {
                                continue;
                            };
                            let idx = next.fetch_add(1, Ordering::Relaxed);
                            let (input, engine) = request(idx);
                            let reply = send(conn, &submit_for(input, engine, &name), &mut jitter);
                            if reply.response.is_none() {
                                client = None;
                            }
                            if tally.judge(&reply, input, engine) {
                                latencies.push(reply.latency_ms);
                            }
                        }
                        by_phase.push(latencies);
                        gate.wait();
                    }
                    by_phase
                })
            })
            .collect();
        let mut outcome = Ok(());
        let mut load_s = Vec::with_capacity(count);
        for phase in 0..count {
            gate.wait();
            let t0 = Instant::now();
            gate.wait();
            load_s.push(t0.elapsed().as_secs_f64());
            if outcome.is_ok() {
                outcome = (phases.between)(phase);
                stop.store(outcome.is_err(), Ordering::Relaxed);
            }
        }
        let per_client: Vec<Vec<Vec<f64>>> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        outcome?;
        Ok(load_s
            .into_iter()
            .enumerate()
            .map(|(p, s)| {
                (
                    per_client
                        .iter()
                        .flat_map(|c| c[p].iter().copied())
                        .collect(),
                    s,
                )
            })
            .collect())
    })
}

/// The client's connection, reconnecting after a transport error; a
/// failed connect counts as a failed operation and backs off briefly.
pub fn connected<'c>(
    client: &'c mut Option<Client>,
    endpoint: &Endpoint,
    tally: &Tally,
) -> Option<&'c mut Client> {
    if client.is_none() {
        match Client::connect_endpoint(endpoint) {
            Ok(c) => *client = Some(c),
            Err(_) => {
                tally.attempted.fetch_add(1, Ordering::Relaxed);
                tally.transport.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(5));
                return None;
            }
        }
    }
    client.as_mut()
}

/// The fleet counters a window is judged by.
#[derive(Clone, Copy, Default)]
pub struct FleetCounters {
    pub hits: u64,
    pub misses: u64,
    pub routed: u64,
    pub batched: u64,
    pub reroutes: u64,
}

impl FleetCounters {
    pub fn of(f: &FleetStats) -> FleetCounters {
        FleetCounters {
            hits: f.shards.iter().map(|s| s.stats.cache_hits).sum(),
            misses: f.shards.iter().map(|s| s.stats.cache_misses).sum(),
            routed: f.routed,
            batched: f.batched_submits,
            reroutes: f.reroutes,
        }
    }

    /// Counts accrued between `before` and `self`.
    pub fn since(&self, before: &FleetCounters) -> FleetCounters {
        FleetCounters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            routed: self.routed - before.routed,
            batched: self.batched - before.batched,
            reroutes: self.reroutes - before.reroutes,
        }
    }

    pub fn hit_ratio(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }

    pub fn batched_share(&self) -> f64 {
        self.batched as f64 / self.routed.max(1) as f64
    }
}

/// Bytes of every file under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_descriptions_map_to_algorithms() {
        assert_eq!(plan_kind_of("full parallel (Algorithm 3)"), "alg3");
        assert_eq!(plan_kind_of("full parallel (Algorithm 4)"), "alg4");
        assert_eq!(plan_kind_of("hyperplane wavefront s=(1,1)"), "alg5");
        assert_eq!(plan_kind_of("partial fusion (2 clusters)"), "partial");
    }

    #[test]
    fn fleet_counter_ratios_tolerate_empty_windows() {
        let zero = FleetCounters::default();
        assert_eq!(zero.hit_ratio(), 0.0);
        assert_eq!(zero.batched_share(), 0.0);
        let c = FleetCounters {
            hits: 9,
            misses: 1,
            routed: 10,
            batched: 2,
            reroutes: 0,
        };
        assert_eq!(c.since(&zero).hit_ratio(), 0.9);
        assert_eq!(c.batched_share(), 0.2);
    }
}

//! Fleet-level integration: ring properties under proptest, cross-shard
//! bit-identity against the single-process oracle, and shard-kill
//! failover with a typed rerouted outcome.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use mdf_router::{Backend, InProcessBackend, Ring, Router, RouterConfig};
use mdf_service::transport::Endpoint;
use mdf_service::{Client, Engine, Response, ServiceConfig, Submit};

proptest! {
    /// Every key maps to exactly one live shard, for any fleet shape and
    /// any liveness pattern that keeps at least one shard up — and the
    /// mapping is deterministic.
    #[test]
    fn every_key_maps_to_exactly_one_live_shard(
        shards in 1u32..8,
        vnodes in 1u32..32,
        dead_mask in 0u8..=255,
        keys in proptest::collection::vec(0u64..=u64::MAX, 1..64),
    ) {
        let mut ring = Ring::new(shards, vnodes);
        for s in 0..shards {
            if dead_mask & (1 << s) != 0 {
                ring.set_live(s, false);
            }
        }
        if ring.live_count() == 0 {
            ring.set_live(shards - 1, true);
        }
        for key in keys {
            let owner = ring.owner(key).expect("a live shard exists");
            prop_assert!(owner < shards);
            prop_assert!(ring.is_live(owner), "owner {owner} is dead");
            prop_assert_eq!(ring.owner(key), Some(owner), "lookup is deterministic");
        }
    }

    /// Killing one shard moves only that shard's keys; every other key
    /// keeps its owner. Revival moves exactly those keys home again.
    #[test]
    fn death_moves_only_the_dead_shards_keys(
        shards in 2u32..8,
        vnodes in 1u32..32,
        victim_pick in 0u32..=u32::MAX,
        keys in proptest::collection::vec(0u64..=u64::MAX, 1..128),
    ) {
        let mut ring = Ring::new(shards, vnodes);
        let victim = victim_pick % shards;
        let before: Vec<u32> = keys.iter().map(|k| ring.owner(*k).unwrap()).collect();
        ring.set_live(victim, false);
        for (key, owner_before) in keys.iter().zip(&before) {
            let owner_after = ring.owner(*key).unwrap();
            if *owner_before == victim {
                prop_assert_ne!(owner_after, victim, "dead shard still owns {:#x}", key);
            } else {
                prop_assert_eq!(
                    owner_after, *owner_before,
                    "key {:#x} moved although its shard survived", key
                );
            }
        }
        ring.set_live(victim, true);
        let revived: Vec<u32> = keys.iter().map(|k| ring.owner(*k).unwrap()).collect();
        prop_assert_eq!(revived, before);
    }
}

/// An [`InProcessBackend`] the test keeps a handle to, so it can kill a
/// shard out from under the router mid-run.
struct SharedBackend(Arc<InProcessBackend>);

impl Backend for SharedBackend {
    fn start(&self, shard: u32, generation: u64) -> std::io::Result<Endpoint> {
        self.0.start(shard, generation)
    }
    fn stop(&self, shard: u32) {
        self.0.stop(shard)
    }
}

fn example(name: &str) -> String {
    let path = format!("{}/../../examples/dsl/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// The fingerprint a correct execution of `source` must produce,
/// computed single-process with no fleet involved.
fn oracle_fingerprint(source: &str, n: i64, m: i64) -> u64 {
    let parsed = mdf_ir::parse_program_spanned(source).unwrap();
    let (mem, _) = mdf_sim::run_original(&parsed.program, n, m);
    mem.fingerprint()
}

fn submit_via(endpoint: &Endpoint, source: &str, engine: Engine) -> Response {
    let mut client = Client::connect_endpoint(endpoint).expect("router connect");
    client
        .submit(Submit {
            engine,
            n: 12,
            m: 10,
            deadline_ms: 30_000,
            client: String::new(),
            source: source.to_string(),
        })
        .expect("router answered")
}

fn fleet_config(shards: u32) -> (RouterConfig, Arc<InProcessBackend>) {
    let template = ServiceConfig::new(
        std::env::temp_dir().join(format!("mdf-router-test-{}.sock", std::process::id())),
    );
    let backend = Arc::new(InProcessBackend::new(shards, template));
    let mut config = RouterConfig::new(Endpoint::parse("tcp:127.0.0.1:0"), shards);
    config.health_interval = Duration::from_millis(200);
    (config, backend)
}

/// Distinct workloads land on distinct shards (fingerprint sharding),
/// and every result that comes back through the fleet is bit-identical
/// to the single-process oracle.
#[test]
fn cross_shard_results_match_the_single_process_oracle() {
    let (config, backend) = fleet_config(3);
    let router = Router::start(config, Box::new(SharedBackend(backend))).unwrap();
    let endpoint = router.endpoint().clone();

    let workloads = [
        "figure2.mdf",
        "relaxation.mdf",
        "conv_chain.mdf",
        "image_pipeline.mdf",
        "adi_pass.mdf",
    ];
    let mut shards_seen = std::collections::BTreeSet::new();
    for (i, name) in workloads.iter().enumerate() {
        let source = example(name);
        let want = oracle_fingerprint(&source, 12, 10);
        let engine = if i % 2 == 0 {
            Engine::Kernel
        } else {
            Engine::Interp
        };
        // Twice per workload: a planning miss and a cache hit must both
        // produce the oracle's bits.
        for round in 0..2 {
            let resp = submit_via(&endpoint, &source, engine);
            let Response::Done(o) = resp else {
                panic!("{name} round {round}: expected Done, got {resp:?}");
            };
            assert_eq!(
                o.fingerprint, want,
                "{name} round {round}: fleet result diverged from run_original"
            );
            assert!(!o.rerouted, "{name}: healthy fleet must not reroute");
            shards_seen.insert(o.shard);
        }
    }
    assert!(
        shards_seen.len() >= 2,
        "five workloads all hashed to one shard: sharding is not spreading \
         (saw {shards_seen:?})"
    );
    router.drain();
}

/// Killing a shard mid-run: the in-flight submission fails over with a
/// typed `rerouted` outcome (correct bits, no hang), and the supervisor
/// respawns the shard into a healthy fleet.
#[test]
fn shard_kill_reroutes_and_respawns() {
    let (config, backend) = fleet_config(2);
    let router = Router::start(config, Box::new(SharedBackend(Arc::clone(&backend)))).unwrap();
    let endpoint = router.endpoint().clone();

    let source = example("figure2.mdf");
    let want = oracle_fingerprint(&source, 12, 10);
    let Response::Done(first) = submit_via(&endpoint, &source, Engine::Kernel) else {
        panic!("first submission failed");
    };
    assert_eq!(first.fingerprint, want);
    let home = first.shard;

    // The supervisor must respawn every killed shard into a fully
    // healthy fleet.
    let healed = |kills: u64| {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let fleet = router.fleet_stats();
            if fleet.respawns >= kills && fleet.shards.iter().all(|s| s.healthy) {
                assert!(fleet.shard_deaths >= kills, "a death was never counted");
                return fleet;
            }
            assert!(
                Instant::now() < deadline,
                "fleet never respawned shard {home}: {fleet:?}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    };

    // Kill the owning shard out from under the router and resubmit at
    // once. The health loop pings on its own schedule and sometimes
    // notices the death first; the request then goes straight to a live
    // shard, correctly and unmarked. Such a round proves nothing about
    // failover, so the kill is repeated, once the fleet has healed, until
    // a resubmission meets the dead owner itself.
    let mut kills = 0;
    let rerouted = loop {
        kills += 1;
        backend.stop(home);
        let resp = submit_via(&endpoint, &source, Engine::Kernel);
        let Response::Done(o) = resp else {
            panic!("submission after shard kill must still complete, got {resp:?}");
        };
        assert_eq!(o.fingerprint, want, "failover produced different bits");
        if o.rerouted {
            break o;
        }
        assert!(
            kills < 10,
            "the health loop noticed all {kills} kills before the resubmission did"
        );
        healed(kills);
    };
    assert_ne!(rerouted.shard, home, "rerouted to the dead shard");
    let fleet = healed(kills);
    assert!(fleet.reroutes >= 1, "the reroute was never counted");
    // And the respawned fleet still answers with the right bits.
    let Response::Done(after) = submit_via(&endpoint, &source, Engine::Kernel) else {
        panic!("post-respawn submission failed");
    };
    assert_eq!(after.fingerprint, want);
    router.drain();
}

/// Concurrent identical submissions coalesce: same bits for everyone,
/// and at least one outcome reports `batched >= 2`.
#[test]
fn concurrent_identical_submissions_batch() {
    let (mut config, backend) = fleet_config(2);
    config.batch_window = Some(Duration::from_millis(25));
    let router = Router::start(config, Box::new(SharedBackend(backend))).unwrap();
    let endpoint = router.endpoint().clone();

    let source = example("figure2.mdf");
    let want = oracle_fingerprint(&source, 12, 10);
    // Warm the plan cache so the batched round is execution-only.
    let Response::Done(_) = submit_via(&endpoint, &source, Engine::Kernel) else {
        panic!("warmup failed");
    };

    let mut handles = Vec::new();
    for _ in 0..8 {
        let endpoint = endpoint.clone();
        let source = source.clone();
        handles.push(std::thread::spawn(move || {
            submit_via(&endpoint, &source, Engine::Kernel)
        }));
    }
    let mut max_batched = 0;
    for h in handles {
        let Response::Done(o) = h.join().unwrap() else {
            panic!("batched submission failed");
        };
        assert_eq!(o.fingerprint, want, "batched result diverged");
        max_batched = max_batched.max(o.batched);
    }
    assert!(
        max_batched >= 2,
        "8 concurrent identical submissions inside a 25 ms window never \
         coalesced (max batched = {max_batched})"
    );
    let stats = router.drain();
    assert!(
        stats.batched_submits >= 2,
        "batching never counted: {stats:?}"
    );
}

/// Two fleets booted at once in one process both come up and answer.
/// Regression: shard sockets were named by pid, shard and generation
/// alone, so a second in-process fleet collided with the first one's
/// live sockets and failed to start with `AddrInUse`.
#[test]
fn two_fleets_boot_concurrently_in_one_process() {
    let routers: Vec<Router> = std::thread::scope(|s| {
        let boots: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let (config, backend) = fleet_config(2);
                    Router::start(config, Box::new(SharedBackend(backend)))
                        .expect("a concurrent fleet failed to boot")
                })
            })
            .collect();
        boots.into_iter().map(|b| b.join().unwrap()).collect()
    });
    let source = example("figure2.mdf");
    let want = oracle_fingerprint(&source, 12, 10);
    for router in &routers {
        let Response::Done(o) = submit_via(router.endpoint(), &source, Engine::Kernel) else {
            panic!("a concurrently booted fleet did not answer");
        };
        assert_eq!(o.fingerprint, want, "concurrent fleet result diverged");
    }
    for router in routers {
        router.drain();
    }
}

//! Drain-under-load: a daemon serving concurrent clients is asked to
//! shut down mid-flight. The contract this test enforces:
//!
//! * every client observes a *terminal, typed* outcome — a complete
//!   result (fingerprint-checked against `run_original`), a typed
//!   `Draining` / `Overloaded` rejection, or a clean transport close
//!   once the socket is gone. Never a hang (the client read timeout
//!   would trip and fail the test), never a wrong answer;
//! * the drain itself returns: every handler thread joins, the socket
//!   file is removed, and the flushed stats are consistent with what the
//!   clients observed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mdf_service::proto::{ErrCode, Response, Submit};
use mdf_service::{Client, Engine, Server, ServiceConfig};

fn unique_socket(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mdfused-test-{}-{tag}.sock", std::process::id()))
}

fn example(name: &str) -> String {
    let path = format!("{}/../../examples/dsl/{name}", env!("CARGO_MANIFEST_DIR"));
    match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => panic!("cannot read {path}: {e}"),
    }
}

/// The fingerprint a correct execution of `source` must produce.
fn expected_fingerprint(source: &str, n: i64, m: i64) -> u64 {
    let parsed = mdf_ir::parse_program_spanned(source).unwrap();
    let (mem, _) = mdf_sim::run_original(&parsed.program, n, m);
    mem.fingerprint()
}

#[test]
fn simple_session_round_trip() {
    let socket = unique_socket("roundtrip");
    let server = Server::start(ServiceConfig::new(&socket)).unwrap();
    let source = example("figure2.mdf");
    let want = expected_fingerprint(&source, 16, 16);

    let mut client = Client::connect(&socket).unwrap();
    client.ping().unwrap();
    // First submission: a cache miss that plans, certifies and executes.
    let first = client
        .submit(Submit {
            engine: Engine::Kernel,
            n: 16,
            m: 16,
            deadline_ms: 0,
            client: String::new(),
            source: source.clone(),
        })
        .unwrap();
    let Response::Done(first) = first else {
        panic!("expected Done, got {first:?}");
    };
    assert!(first.executed);
    assert!(!first.cache_hit);
    assert_eq!(first.fingerprint, want, "service result diverged");

    // Second submission of the same graph: a cache hit, same answer.
    let second = client
        .submit(Submit {
            engine: Engine::Interp,
            n: 16,
            m: 16,
            deadline_ms: 0,
            client: String::new(),
            source: source.clone(),
        })
        .unwrap();
    let Response::Done(second) = second else {
        panic!("expected Done, got {second:?}");
    };
    assert!(second.cache_hit, "repeat traffic must hit the plan cache");
    assert_eq!(second.fingerprint, want);

    let stats = client.stats().unwrap();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 1);

    let final_stats = server.drain();
    assert_eq!(final_stats.completed, 2);
    assert!(!socket.exists(), "drain must remove the socket file");
}

#[test]
fn kernel_cache_hits_at_equal_and_new_bounds_match_the_interpreter() {
    // Three kernel submissions of one graph: a miss, a cache hit at the
    // same bounds, and a cache hit at new bounds. Each lowers the plan at
    // its own bounds, and every answer must match the reference
    // interpreter bit for bit: a cached plan is only ever a speed change.
    let socket = unique_socket("kernel-hits");
    let server = Server::start(ServiceConfig::new(&socket)).unwrap();
    let source = example("figure2.mdf");
    let mut client = Client::connect(&socket).unwrap();
    for (i, (n, m)) in [(12, 12), (12, 12), (9, 17)].into_iter().enumerate() {
        let want = expected_fingerprint(&source, n, m);
        let resp = client
            .submit(Submit {
                engine: Engine::Kernel,
                n,
                m,
                deadline_ms: 0,
                client: String::new(),
                source: source.clone(),
            })
            .unwrap();
        let Response::Done(done) = resp else {
            panic!("expected Done, got {resp:?}");
        };
        assert!(done.executed);
        assert_eq!(done.cache_hit, i > 0, "submission {i}");
        assert_eq!(done.fingerprint, want, "submission {i} diverged");
    }
    let stats = server.drain();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.cache_hits, 2);
}

#[test]
fn an_execution_past_its_deadline_is_a_typed_deadline_error() {
    // figure2 on the interpreter at 1024² executes for about 150 ms in a
    // release build and over a second in the debug test profile, so a
    // 20 ms deadline expires before the run can end, at the first barrier
    // top past it. The supervisor gives up on that barrier, the request
    // is answered Deadline, and the daemon keeps serving.
    let socket = unique_socket("exec-deadline");
    let server = Server::start(ServiceConfig::new(&socket)).unwrap();
    let mut client = Client::connect(&socket).unwrap();
    let resp = client
        .submit(Submit {
            engine: Engine::Interp,
            n: 1024,
            m: 1024,
            deadline_ms: 20,
            client: String::new(),
            source: example("figure2.mdf"),
        })
        .unwrap();
    let Response::Err(err) = resp else {
        panic!("expected a typed Deadline error, got {resp:?}");
    };
    assert_eq!(err.code, ErrCode::Deadline, "{err:?}");
    assert!(err.message.contains("deadline of 20 ms"), "{err:?}");
    client.ping().unwrap();
    let stats = server.drain();
    assert_eq!(stats.deadline_expiries, 1, "{stats:?}");
    assert_eq!(stats.completed, 0, "{stats:?}");
}

#[test]
fn drain_returns_while_a_client_keeps_pinging() {
    // A client that pings every 10 ms never leaves its connection idle for
    // a whole read tick. Drain must still return promptly: the connection
    // is closed after the answer it gets while draining. The pinger stops
    // by itself after 5 s, so a drain that waits for it fails the timing
    // assertion instead of hanging the test.
    let socket = unique_socket("drain-pinger");
    let server = Server::start(ServiceConfig::new(&socket)).unwrap();
    let mut client = Client::connect(&socket).unwrap();
    let (pinging, first_ping) = std::sync::mpsc::channel();
    let pinger = std::thread::spawn(move || {
        let stop = Instant::now() + Duration::from_secs(5);
        while Instant::now() < stop && client.ping().is_ok() {
            let _ = pinging.send(());
            std::thread::sleep(Duration::from_millis(10));
        }
    });
    first_ping.recv().unwrap();
    let started = Instant::now();
    server.drain();
    let took = started.elapsed();
    pinger.join().unwrap();
    assert!(
        took < Duration::from_secs(1),
        "drain took {took:?} while a client pinged every 10 ms"
    );
}

#[test]
fn malformed_graph_gets_a_typed_error_not_a_dead_daemon() {
    let socket = unique_socket("malformed");
    let server = Server::start(ServiceConfig::new(&socket)).unwrap();
    let mut client = Client::connect(&socket).unwrap();
    let resp = client
        .submit(Submit {
            engine: Engine::Kernel,
            n: 8,
            m: 8,
            deadline_ms: 0,
            client: String::new(),
            source: "program broken { this is not a program }".into(),
        })
        .unwrap();
    let Response::Err(err) = resp else {
        panic!("expected a typed error, got {resp:?}");
    };
    assert_eq!(err.code, ErrCode::Malformed);
    // The same connection is still usable: typed request errors are not
    // protocol errors.
    client.ping().unwrap();
    server.drain();
}

#[test]
fn oversized_image_gets_a_typed_budget_error_not_a_dead_daemon() {
    let socket = unique_socket("oversized");
    let server = Server::start(ServiceConfig::new(&socket)).unwrap();
    let mut client = Client::connect(&socket).unwrap();
    let source = example("figure2.mdf");
    // 200000² asks for 1.6 TB; at 3037000499² the cell count overflows
    // i64. Both must be refused before anything is allocated.
    for side in [200_000, 3_037_000_499] {
        for engine in [Engine::Kernel, Engine::Interp] {
            let resp = client
                .submit(Submit {
                    engine,
                    n: side,
                    m: side,
                    deadline_ms: 0,
                    client: String::new(),
                    source: source.clone(),
                })
                .unwrap();
            let Response::Err(err) = resp else {
                panic!("{side}² {engine:?}: expected a typed error, got {resp:?}");
            };
            assert_eq!(err.code, ErrCode::Budget, "{side}² {engine:?}: {err:?}");
        }
    }
    client.ping().unwrap();
    server.drain();
}

#[test]
fn drain_under_concurrent_load_terminates_every_client() {
    let socket = unique_socket("drain-load");
    let mut config = ServiceConfig::new(&socket);
    config.workers = 2;
    config.queue_depth = 2;
    let server = Server::start(config).unwrap();

    let source = Arc::new(example("relaxation.mdf"));
    let want = expected_fingerprint(&source, 24, 24);

    let completed = Arc::new(AtomicU64::new(0));
    let rejected = Arc::new(AtomicU64::new(0));
    let closed = Arc::new(AtomicU64::new(0));
    let wrong = Arc::new(AtomicU64::new(0));
    let untyped = Arc::new(AtomicU64::new(0));

    let mut clients = Vec::new();
    for c in 0..8 {
        let socket = socket.clone();
        let source = Arc::clone(&source);
        let (completed, rejected, closed, wrong, untyped) = (
            Arc::clone(&completed),
            Arc::clone(&rejected),
            Arc::clone(&closed),
            Arc::clone(&wrong),
            Arc::clone(&untyped),
        );
        clients.push(std::thread::spawn(move || {
            for _ in 0..6 {
                // Once the socket is gone (post-drain), a failed connect
                // is a clean terminal outcome.
                let Ok(mut client) = Client::connect(&socket) else {
                    closed.fetch_add(1, Ordering::SeqCst);
                    continue;
                };
                let engine = if c % 2 == 0 {
                    Engine::Kernel
                } else {
                    Engine::Interp
                };
                match client.submit(Submit {
                    engine,
                    n: 24,
                    m: 24,
                    deadline_ms: 5_000,
                    client: String::new(),
                    source: source.as_ref().clone(),
                }) {
                    Ok(Response::Done(done)) => {
                        if done.fingerprint == want {
                            completed.fetch_add(1, Ordering::SeqCst);
                        } else {
                            wrong.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    Ok(Response::Err(e))
                        if matches!(e.code, ErrCode::Draining | ErrCode::Overloaded) =>
                    {
                        rejected.fetch_add(1, Ordering::SeqCst);
                    }
                    Ok(other) => {
                        let _ = other;
                        untyped.fetch_add(1, Ordering::SeqCst);
                    }
                    // Transport close (EOF mid-drain) is terminal and
                    // acceptable; a *timeout* would also land here and
                    // is caught by the zero-hang accounting below.
                    Err(_) => {
                        closed.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
        }));
    }

    // Let the burst get in flight, then pull the plug.
    std::thread::sleep(std::time::Duration::from_millis(120));
    let stats = server.drain();

    for c in clients {
        c.join().unwrap();
    }

    let total = completed.load(Ordering::SeqCst)
        + rejected.load(Ordering::SeqCst)
        + closed.load(Ordering::SeqCst)
        + wrong.load(Ordering::SeqCst)
        + untyped.load(Ordering::SeqCst);
    assert_eq!(total, 8 * 6, "every request must reach a terminal outcome");
    assert_eq!(wrong.load(Ordering::SeqCst), 0, "no wrong answers, ever");
    assert_eq!(untyped.load(Ordering::SeqCst), 0, "no untyped outcomes");
    assert!(
        completed.load(Ordering::SeqCst) > 0,
        "the burst should land at least one complete result"
    );
    assert!(!socket.exists(), "drain must remove the socket file");
    assert_eq!(
        stats.completed,
        completed.load(Ordering::SeqCst),
        "server-side completion count must match what clients observed"
    );
}

#[test]
fn shutdown_request_drains_the_server() {
    let socket = unique_socket("shutdown-req");
    let server = Server::start(ServiceConfig::new(&socket)).unwrap();
    let mut client = Client::connect(&socket).unwrap();
    client.shutdown().unwrap();
    assert!(server.is_draining());
    let stats = server.drain();
    assert_eq!(stats.requests, 1);

    // New submissions are refused (connect fails once the socket is
    // removed; a race where connect still succeeds must yield a typed
    // Draining rejection, not a hang).
    match Client::connect(&socket) {
        Err(_) => {}
        Ok(mut c) => match c.submit(Submit {
            engine: Engine::Kernel,
            n: 4,
            m: 4,
            deadline_ms: 0,
            client: String::new(),
            source: "mldg g\nnode A".into(),
        }) {
            Ok(Response::Err(e)) => assert_eq!(e.code, ErrCode::Draining),
            Ok(other) => panic!("expected Draining, got {other:?}"),
            Err(_) => {}
        },
    }
}

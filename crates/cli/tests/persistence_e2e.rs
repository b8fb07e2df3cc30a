//! End-to-end crash-safety test of the persistent plan-cache store:
//! populate a real `mdfuse serve` daemon through real traffic, SIGKILL
//! it mid-write (no drain, no final compaction, possibly a torn append),
//! restart the binary on the same `--cache-dir`, and hold the reboot to
//! the warm-start contract — the stale socket left by the kill is
//! reclaimed, the store's surviving records warm-load, the warm hit rate
//! over a replay of the same workload mix is at least 0.8, and every
//! response fingerprint-matches the original program's execution.

// Children outlive the helper that spawns them by design (the tests
// SIGKILL one generation and drain the next); every path reaps via
// `kill`+`wait` or shutdown+`wait` before the test returns.
#![allow(clippy::zombie_processes)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use mdf_service::proto::Submit;
use mdf_service::{Client, Engine};

/// How long the test waits for a spawned daemon to accept connections.
const READY: Duration = Duration::from_secs(10);

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_mdfuse")
}

/// A fresh scratch directory under the system temp root.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mdfuse-persist-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Spawns `mdfuse serve <socket> --cache-dir <store>` and waits until it
/// answers a ping. The cache holds 4096 plans, so the SIGKILL burst's
/// distinct graphs never evict the example mix's plans.
fn spawn_serve(socket: &Path, store: &Path) -> Child {
    let child = Command::new(bin())
        .arg("serve")
        .arg(socket)
        .arg("--cache-dir")
        .arg(store)
        .arg("--cache-cap")
        .arg("4096")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve spawns");
    let deadline = Instant::now() + READY;
    loop {
        if let Ok(mut c) = Client::connect(socket) {
            if c.ping().is_ok() {
                return child;
            }
        }
        assert!(
            Instant::now() < deadline,
            "daemon did not become ready within {READY:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Drives `requests` submissions through the external-daemon load
/// generator with a fixed seed (so two invocations replay the same
/// workload/engine mix) and returns the JSON report text.
fn loadgen(socket: &Path, requests: u64) -> String {
    let out = Command::new(bin())
        .arg("loadgen")
        .arg("--socket")
        .arg(socket)
        .arg("--requests")
        .arg(requests.to_string())
        .arg("--concurrency")
        .arg("2")
        .arg("--seed")
        .arg("9")
        .arg("--examples")
        .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/dsl"))
        .arg("--json")
        .output()
        .expect("loadgen runs");
    assert!(
        out.status.success(),
        "loadgen failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The numeric value of a top-level `"key": value` line in a report.
fn top_level_num(report: &str, key: &str) -> f64 {
    let needle = format!("  \"{key}\": ");
    let line = report
        .lines()
        .find(|l| l.starts_with(&needle))
        .unwrap_or_else(|| panic!("no top-level {key} in report:\n{report}"));
    line[needle.len()..]
        .trim_end_matches(',')
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("bad {key} value in {line:?}: {e}"))
}

#[test]
fn sigkill_mid_write_then_restart_warm_starts_with_matching_fingerprints() {
    let dir = scratch("kill9");
    let socket = dir.join("daemon.sock");
    let store = dir.join("store");

    // Boot and populate through real traffic: the seeded mix inserts
    // several distinct plans.
    let mut child = spawn_serve(&socket, &store);
    let cold = loadgen(&socket, 60);
    assert_eq!(top_level_num(&cold, "mismatches"), 0.0, "{cold}");
    assert!(top_level_num(&cold, "completed") > 0.0, "{cold}");

    // SIGKILL mid-write: a background client hammers submissions while
    // the daemon is shot. Each is a distinct graph, so each is a cache
    // miss whose plan insert appends to the store. No drain runs, so the
    // store is whatever the log happened to hold — possibly ending in a
    // torn record.
    let burst_socket = socket.clone();
    let burst = std::thread::spawn(move || {
        for i in 0.. {
            let Ok(mut c) = Client::connect(&burst_socket) else {
                return;
            };
            let done = c.submit(Submit {
                engine: Engine::Kernel,
                n: 12,
                m: 10,
                deadline_ms: 10_000,
                client: format!("burst{i}"),
                source: format!("mldg burst\nnode A\nnode B\nedge A -> B : (1,{i})\n"),
            });
            if done.is_err() {
                return;
            }
        }
    });
    std::thread::sleep(Duration::from_millis(30));
    child.kill().expect("SIGKILL delivered");
    child.wait().expect("child reaped");
    let _ = burst.join();

    // The kill leaves the socket file behind; the restart must reclaim
    // it (stale-socket detection) rather than fail with AddrInUse.
    assert!(socket.exists(), "SIGKILL should leave the socket file");
    let child = spawn_serve(&socket, &store);

    // Warm-start contract: entries loaded from the damaged store, a warm
    // hit rate of at least 0.8 over the replayed mix, and bit-identical
    // fingerprints throughout (loadgen checks every response against
    // `run_original`).
    let loaded = {
        let mut c = Client::connect(&socket).expect("reconnect");
        c.stats().expect("stats").cache_warm_loaded
    };
    assert!(loaded >= 1, "no entries warm-loaded after restart");
    let warm = loadgen(&socket, 60);
    assert_eq!(top_level_num(&warm, "mismatches"), 0.0, "{warm}");
    assert!(
        top_level_num(&warm, "warm_hit_rate") >= 0.8,
        "warm hit rate below 0.8:\n{warm}"
    );

    // Clean shutdown for the second generation.
    let mut c = Client::connect(&socket).expect("shutdown connect");
    let _ = c.shutdown();
    drop(c);
    let deadline = Instant::now() + READY;
    let mut child = child;
    loop {
        match child.try_wait() {
            Ok(Some(_)) => break,
            _ if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break;
            }
            _ => std::thread::sleep(Duration::from_millis(25)),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_after_clean_drain_loads_the_compacted_snapshot() {
    let dir = scratch("clean");
    let socket = dir.join("daemon.sock");
    let store = dir.join("store");

    let child = spawn_serve(&socket, &store);
    let cold = loadgen(&socket, 30);
    assert_eq!(top_level_num(&cold, "mismatches"), 0.0, "{cold}");
    let mut c = Client::connect(&socket).expect("shutdown connect");
    let _ = c.shutdown();
    drop(c);
    let mut child = child;
    let _ = child.wait();

    // A drained daemon leaves one dense snapshot (and an empty log).
    assert!(store.join("snapshot").exists(), "drain writes a snapshot");

    let child = spawn_serve(&socket, &store);
    let warm = loadgen(&socket, 30);
    assert_eq!(top_level_num(&warm, "mismatches"), 0.0, "{warm}");
    assert!(
        top_level_num(&warm, "warm_hit_rate") >= 0.8,
        "warm hit rate below 0.8 after clean restart:\n{warm}"
    );
    let mut c = Client::connect(&socket).expect("shutdown connect");
    let _ = c.shutdown();
    drop(c);
    let mut child = child;
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

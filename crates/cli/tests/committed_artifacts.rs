//! The committed reports pass their own `--check`.
//!
//! `BENCH_fusion.json`, `BENCH_service.json` and `CHAOS_sweep.json` are
//! the evidence for the paper's claims, and each must keep passing its
//! schema — shape and gate rules — as the schemas evolve. These run the
//! real binary on the files at the repository root;
//! `tests/trace_golden.rs` covers the committed trace profile.

use std::path::Path;
use std::process::{Command, Output};

fn check(command: &str, file: &str) -> Output {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file);
    Command::new(env!("CARGO_BIN_EXE_mdfuse"))
        .args([command, "--check"])
        .arg(&path)
        .output()
        .expect("mdfuse spawns")
}

fn assert_valid(out: &Output, summary: &str) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains(summary), "{stdout}");
}

#[test]
fn committed_bench_fusion_report_passes_its_check() {
    assert_valid(
        &check("bench", "BENCH_fusion.json"),
        "valid BENCH_fusion schema v4 (4 suite(s), complete)",
    );
}

#[test]
fn committed_service_report_passes_its_check() {
    assert_valid(
        &check("loadgen", "BENCH_service.json"),
        "valid BENCH_service schema v3 (3840 completed request(s))",
    );
}

#[test]
fn committed_chaos_sweep_passes_its_check() {
    assert_valid(
        &check("chaos", "CHAOS_sweep.json"),
        "valid CHAOS_sweep schema v1: 212 case(s), 212 fault(s) injected",
    );
}

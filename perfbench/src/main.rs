//! The mdfusion benchmark.
//!
//! ```text
//! perfbench --workload <exec-large|service-hot|service-cold>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints human progress on stderr, then on stdout a properties line
//! (`{"properties": ...}`: host, workload shape, shares) and, last, the
//! result line (see `report`). Exits 0 when every output matched its
//! oracle, 1 on a mismatch or an invalid result, 2 on a usage error, and 3
//! when set-up fails. See `perfbench/README.md`.

mod host;
mod inputs;
mod kernels;
mod layers;
mod report;
mod service;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use mdf_trace::json::Json;

/// The seed runs use when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// A seed no tuning used: re-check a claim on it before trusting it.
pub const HELD_OUT_SEED: u64 = 7;

const USAGE: &str = "usage: perfbench --workload <exec-large|service-hot|service-cold> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err(bad(&"expected 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["exec-large", "service-hot", "service-cold"].contains(&out.workload.as_str()) {
        return Err(format!("unknown or missing --workload {:?}", out.workload));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Stores and the shards' unix sockets live in a scratch directory
    // inside the checkout. The path stays relative: socket paths have a
    // short length limit, and the checkout's absolute path may be long.
    let tmp = PathBuf::from(".perfbench_tmp").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::from(3);
    }
    // Set before any thread starts: `InProcessBackend` names its shard
    // sockets under the temp dir.
    std::env::set_var("TMPDIR", &tmp);
    let ctx = workloads::Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc: host::nproc(),
        tmp: tmp.clone(),
    };
    eprintln!(
        "perfbench: {} seed {} for {} s, {} (nproc {})",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" },
        ctx.nproc
    );
    let outcome = match args.workload.as_str() {
        "exec-large" => workloads::exec_large(&ctx),
        "service-hot" => workloads::service(&ctx, false),
        _ => workloads::service(&ctx, true),
    };
    let _ = std::fs::remove_dir_all(&tmp);
    if let Some(parent) = tmp.parent() {
        // Only succeeds once no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(3);
        }
    };
    let catalog = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    let mut properties = outcome.properties;
    properties.push(("default_seed".into(), Json::Num(DEFAULT_SEED as f64)));
    properties.push(("held_out_seed".into(), Json::Num(HELD_OUT_SEED as f64)));
    let line = outcome.result.render(catalog);
    for (name, value) in &outcome.result.metrics {
        eprintln!("  {name:<28} {value}");
    }
    println!(
        "{}",
        report::to_text(&Json::Obj(vec![(
            "properties".into(),
            Json::Obj(properties)
        )]))
    );
    println!("{line}");
    match report::validate(&line, catalog) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: invalid result: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "service-hot",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("service-hot", 7, 10.0, true)
        );
        let a = args(&["--workload", "exec-large"]).unwrap();
        assert_eq!((a.seed, a.trace), (DEFAULT_SEED, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "exec-large", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "exec-large", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "exec-large", "--seed"]).is_err());
        assert!(args(&["--workload", "exec-large", "--bogus", "1"]).is_err());
    }
}

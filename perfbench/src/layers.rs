//! The traced pass's request path: every request goes to the fleet and to
//! a lone `Server`, then the client replays the request's in-process
//! stages by calling each module's public functions itself, each call in
//! its own span. Spans go to `mdf-trace`'s in-memory sink; per-layer
//! numbers are self times read back from the assembled profile. Nothing
//! inside the program is instrumented.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use mdf_core::{plan_fusion, plan_fusion_budgeted, DegradedPlan, FusionPlan};
use mdf_graph::{canonical_fingerprint, Budget};
use mdf_ir::retgen::FusedSpec;
use mdf_kernel::CompiledKernel;
use mdf_router::{Ring, DEFAULT_VNODES};
use mdf_service::proto::{read_frame, Request, Response};
use mdf_service::{Client, Endpoint, Engine, PlanCache, ServiceConfig};
use mdf_sim::{RetryPolicy, RowOrder, SupervisedOutcome};
use mdf_trace::{Profile, Span, Tracer};

use crate::inputs::Input;
use crate::service::{connected, send, submit_for, RequestFn, Tally, SHARDS};

/// A shard's plan-cache capacity; the replay cache is kept full at it.
const CACHE_CAPACITY: usize = 64;

/// `Ring::owner` calls per timed span: one call is too short for the
/// clock, so the span covers a batch and the metric divides.
pub const RING_REPS: u32 = 64;

/// Drives `clients` closed-loop clients until `deadline`; each request
/// goes to `fleet` and to `lone` (in alternating order) and is then
/// replayed in-process under spans of `tracer`. `prefill` are the inputs
/// the fleet's caches already hold, so the replay cache holds them too.
#[allow(clippy::too_many_arguments)]
pub fn request_block(
    fleet: &Endpoint,
    lone: &Endpoint,
    clients: usize,
    deadline: Instant,
    next: &AtomicU64,
    request: &RequestFn,
    prefill: &[&Input],
    tally: &Tally,
    tracer: &Tracer,
    seed: u64,
) -> Result<(), String> {
    let filler = request(0).0;
    let filler_plan = plan_fusion(&filler.graph).map_err(|e| format!("{}: {e}", filler.name))?;
    let prefill_plans: Vec<(u64, FusionPlan)> = prefill
        .iter()
        .map(|i| {
            plan_fusion(&i.graph)
                .map(|p| (canonical_fingerprint(&i.graph), p))
                .map_err(|e| format!("{}: {e}", i.name))
        })
        .collect::<Result<_, _>>()?;
    std::thread::scope(|s| {
        for c in 0..clients {
            let (filler_plan, prefill_plans) = (&filler_plan, &prefill_plans);
            s.spawn(move || {
                let mut cache = PlanCache::new(CACHE_CAPACITY);
                for key in 1..=CACHE_CAPACITY as u64 {
                    cache.insert(key, &filler.graph, filler_plan);
                }
                for (input, (key, plan)) in prefill.iter().zip(prefill_plans) {
                    cache.insert(*key, &input.graph, plan);
                }
                let ring = Ring::new(SHARDS, DEFAULT_VNODES);
                let name = format!("w{c}");
                let mut jitter = seed ^ (c as u64 + 1);
                let (mut to_fleet, mut to_lone) = (None, None);
                while Instant::now() < deadline {
                    let (Some(f), Some(l)) = (
                        connected(&mut to_fleet, fleet, tally),
                        connected(&mut to_lone, lone, tally),
                    ) else {
                        continue;
                    };
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let (input, engine) = request(idx);
                    let submit = submit_for(input, engine, &name);
                    let root = tracer.span("request");
                    let mut round_trip = |client: &mut Client, leg: &'static str| {
                        let _span = root.child(leg);
                        send(client, &submit, &mut jitter)
                    };
                    let (fr, lr) = if idx.is_multiple_of(2) {
                        let fr = round_trip(f, "fleet");
                        (fr, round_trip(l, "lone"))
                    } else {
                        let lr = round_trip(l, "lone");
                        (round_trip(f, "fleet"), lr)
                    };
                    let ok = tally.judge(&fr, input, engine) & tally.judge(&lr, input, engine);
                    if fr.response.is_none() {
                        to_fleet = None;
                    }
                    if lr.response.is_none() {
                        to_lone = None;
                    }
                    let (Some(Response::Done(done)), Some(Response::Done(lone_done))) =
                        (&fr.response, &lr.response)
                    else {
                        continue;
                    };
                    if !ok || !done.executed {
                        continue;
                    }
                    root.add("kernel", u64::from(engine == Engine::Kernel));
                    root.add("lone_hit", u64::from(lone_done.cache_hit));
                    let replayed = replay(
                        &root,
                        input,
                        engine,
                        &submit,
                        fr.response.as_ref().expect("matched as Done above"),
                        &mut cache,
                        &ring,
                    );
                    match replayed {
                        Ok(fp) if fp == input.expected => root.add("replayed", 1),
                        Ok(_) => tally.replay_mismatch(),
                        Err(e) => {
                            eprintln!("replay of {} failed: {e}", input.name);
                            tally.replay_error();
                        }
                    }
                }
            });
        }
    });
    Ok(())
}

/// Replays one request's in-process stages, each in a child span of
/// `root`, and returns the fingerprint the replayed execution produced.
fn replay(
    root: &Span,
    input: &Input,
    engine: Engine,
    submit: &mdf_service::Submit,
    response: &Response,
    cache: &mut PlanCache,
    ring: &Ring,
) -> Result<u64, String> {
    let stage = |name: &'static str| root.child(name);
    {
        let _s = stage("proto");
        let frame = Request::Submit(submit.clone()).encode();
        let payload = read_frame(&mut &frame[..]).map_err(|e| e.to_string())?;
        black_box(Request::decode(&payload.unwrap_or_default()).map_err(|e| e.to_string())?);
        let frame = response.encode();
        let payload = read_frame(&mut &frame[..]).map_err(|e| e.to_string())?;
        black_box(Response::decode(&payload.unwrap_or_default()).map_err(|e| e.to_string())?);
    }
    let (program, graph) = {
        let _s = stage("parse");
        let parsed = mdf_ir::parse_program_spanned(&input.source).map_err(|e| e.to_string())?;
        let x = mdf_ir::extract_mldg(&parsed.program).map_err(|e| e.to_string())?;
        (parsed.program, x.graph)
    };
    let key = {
        let _s = stage("fingerprint");
        canonical_fingerprint(&graph)
    };
    {
        let _s = stage("ring");
        for _ in 0..RING_REPS {
            black_box(ring.owner(black_box(key)));
        }
    }
    {
        let _s = stage("cache.lookup");
        black_box(cache.lookup(key, &graph, false));
    }
    let report = {
        let _s = stage("plan");
        plan_fusion_budgeted(&graph, &Budget::unlimited()).map_err(|e| e.to_string())?
    };
    let DegradedPlan::Fused(plan) = &report.plan else {
        return Err("planner fell back to partial fusion".into());
    };
    let (aligned, spec, mode) = {
        let _s = stage("certify");
        report.verify(&graph)?;
        let aligned = mdf_sim::align_plan_to_program(&graph, &program, plan)
            .ok_or("plan does not align with the program")?;
        let spec = FusedSpec::new(program, aligned.retiming().offsets().to_vec());
        let mode = mdf_kernel::plan_mode(&spec, &aligned);
        (aligned, spec, mode)
    };
    {
        let _s = stage("cache.insert");
        cache.insert(key, &graph, plan);
    }
    let policy = RetryPolicy::deterministic();
    let mut meter = Budget::unlimited().meter();
    let outcome = match engine {
        Engine::Kernel => {
            let kernel = {
                let _s = stage("lower");
                CompiledKernel::compile(&spec, input.n, input.m).map_err(|e| e.to_string())?
            };
            let mut fresh = kernel.clone();
            let cert = {
                let _s = stage("verify");
                fresh.arm(mode)
            }
            .map_err(|d| format!("bytecode verifier rejected the kernel: {d:?}"))?;
            let mut armed = kernel.clone();
            let revalidated = {
                let _s = stage("revalidate");
                armed.arm_with_cert(mode, cert)
            };
            if !revalidated {
                return Err("a fresh certificate failed to revalidate".into());
            }
            let _s = stage("exec");
            let threads = ServiceConfig::new("unused.sock").threads;
            armed
                .run_supervised(mode, threads, &policy, &mut meter)
                .map(|o| outcome_fingerprint(o, |m| m.fingerprint()))
        }
        Engine::Interp => {
            let _s = stage("interp");
            match &aligned {
                FusionPlan::FullParallel { .. } => mdf_sim::run_fused_supervised(
                    &spec,
                    input.n,
                    input.m,
                    RowOrder::Ascending,
                    &mut meter,
                    &policy,
                ),
                FusionPlan::Hyperplane { wavefront, .. } => mdf_sim::run_wavefront_supervised(
                    &spec, *wavefront, input.n, input.m, &mut meter, &policy,
                ),
            }
            .map(|o| outcome_fingerprint(o, |m| m.fingerprint()))
        }
    };
    outcome.map_err(|e| e.to_string())?
}

fn outcome_fingerprint<M>(o: SupervisedOutcome<M>, fp: impl Fn(&M) -> u64) -> Result<u64, String> {
    match o {
        SupervisedOutcome::Complete { mem, .. } => Ok(fp(&mem)),
        SupervisedOutcome::Partial { cause, .. } => Err(cause.to_string()),
    }
}

/// Self time of every span: its duration minus the part its children
/// cover (children of one span run one after another, never overlapping).
pub fn self_ns(profile: &Profile) -> BTreeMap<u64, f64> {
    let mut out: BTreeMap<u64, f64> = profile
        .spans
        .iter()
        .map(|s| (s.id, s.dur_ns as f64))
        .collect();
    for s in &profile.spans {
        if let Some(parent) = s.parent.and_then(|p| out.get_mut(&p)) {
            *parent -= s.dur_ns as f64;
        }
    }
    out
}

/// One replayed request: stage self times in µs, keyed by span name.
pub struct RequestRow {
    pub kernel: bool,
    pub lone_hit: bool,
    pub us: BTreeMap<String, f64>,
}

impl RequestRow {
    /// Stage self time, or 0 when the stage did not run.
    pub fn get(&self, stage: &str) -> f64 {
        self.us.get(stage).copied().unwrap_or(0.0)
    }

    /// The lone server's round trip minus the in-process stages it ran
    /// for this request: socket I/O, framing, admission wait, store
    /// appends.
    pub fn residual_us(&self) -> f64 {
        let mut stages = vec!["proto", "parse", "fingerprint", "cache.lookup"];
        if !self.lone_hit {
            stages.extend(["plan", "certify", "cache.insert"]);
        }
        if self.kernel {
            stages.extend(["lower", "exec"]);
            stages.push(if self.lone_hit {
                "revalidate"
            } else {
                "verify"
            });
        } else {
            stages.push("interp");
        }
        self.get("lone") - stages.iter().map(|s| self.get(s)).sum::<f64>()
    }
}

/// The fully replayed requests of a profile.
pub fn request_rows(profile: &Profile) -> Vec<RequestRow> {
    let own = self_ns(profile);
    let mut rows: BTreeMap<u64, RequestRow> = profile
        .spans
        .iter()
        .filter(|s| s.name == "request" && s.counters.iter().any(|(k, _)| k == "replayed"))
        .map(|s| {
            let counter = |name: &str| s.counters.iter().any(|(k, v)| k == name && *v > 0);
            (
                s.id,
                RequestRow {
                    kernel: counter("kernel"),
                    lone_hit: counter("lone_hit"),
                    us: BTreeMap::new(),
                },
            )
        })
        .collect();
    for s in &profile.spans {
        if let Some(row) = s.parent.and_then(|p| rows.get_mut(&p)) {
            row.us.insert(s.name.clone(), own[&s.id] / 1e3);
        }
    }
    rows.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdf_trace::Event;

    #[test]
    fn self_time_subtracts_children() {
        let events = [
            Event::SpanStart {
                id: 0,
                parent: None,
                name: "request",
                start_ns: 0,
            },
            Event::SpanStart {
                id: 1,
                parent: Some(0),
                name: "lone",
                start_ns: 10,
            },
            Event::SpanEnd { id: 1, end_ns: 70 },
            Event::SpanStart {
                id: 2,
                parent: Some(0),
                name: "parse",
                start_ns: 70,
            },
            Event::SpanEnd { id: 2, end_ns: 90 },
            Event::Counter {
                span: 0,
                name: "replayed",
                delta: 1,
            },
            Event::SpanEnd { id: 0, end_ns: 100 },
        ];
        let p = Profile::from_events(&events).unwrap();
        let own = self_ns(&p);
        assert_eq!(own[&0], 20.0);
        assert_eq!(own[&1], 60.0);
        let rows = request_rows(&p);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("lone"), 0.06);
        assert!(!rows[0].kernel && !rows[0].lone_hit);
        // Lone round trip minus the parse stage (every other stage absent).
        assert!((rows[0].residual_us() - 0.04).abs() < 1e-12);
    }
}

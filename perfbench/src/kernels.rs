//! Kernel-side measurement: timed calls into `mdf-kernel`, `mdf-sim` and
//! the vendored `rayon`, in seeded rounds, each checked against the
//! input's `run_original` fingerprint.

use std::hint::black_box;
use std::time::Instant;

use mdf_graph::Budget;
use mdf_kernel::ExecMode;
use mdf_sim::ExecStats;
use mdf_trace::Span;
use rayon::prelude::*;

use crate::inputs::{splitmix64, Input, Prepared};

/// Width of the column tiles a certified row splits into when it runs
/// threaded; mirrors `TILE_COLS` in `mdf-kernel`'s executor, which only
/// dispatches rows at least two tiles wide.
const TILE_COLS: i64 = 256;

/// One timed call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// `CompiledKernel::run_budgeted` on the armed (verified) kernel.
    Armed,
    /// The same call on the unarmed, bounds-checked kernel.
    Checked,
    /// `mdf_sim::run_original`: the unfused single-thread reference.
    Unfused,
}

impl Call {
    fn span_name(self, tn: bool) -> &'static str {
        match (self, tn) {
            (Call::Armed, false) => "kernel.exec.t1",
            (Call::Armed, true) => "kernel.exec.tn",
            (Call::Checked, false) => "kernel.checked.t1",
            (Call::Checked, true) => "kernel.checked.tn",
            (Call::Unfused, _) => "sim.unfused",
        }
    }
}

/// Operations attempted and failed, and how many failures were oracle
/// mismatches.
#[derive(Default, Clone, Copy)]
pub struct OpTally {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
}

/// One timed call's wall time.
#[derive(Clone, Copy)]
pub struct Sample {
    pub round: usize,
    pub input: usize,
    pub call: Call,
    pub tn: bool,
    pub ms: f64,
    /// The [`calibrate`] time at this sample's worker count, measured
    /// next to it, when the rounds were calibrated.
    pub cal_ms: f64,
}

/// How long a calibration stands for the rounds after it.
const CAL_INTERVAL: std::time::Duration = std::time::Duration::from_millis(250);

/// Cells every calibration sweeps, in [`CAL_STEPS`] equal steps.
const CAL_CELLS: usize = 1 << 23;
const CAL_STEPS: usize = 64;

/// What [`calibrate`] takes at 1 worker and at 2 workers on the host the
/// benchmark was defined on (a 2-vCPU VM), so normalized times read as
/// that host's milliseconds.
const REFERENCE_MS: [f64; 2] = [80.0, 90.0];

/// A fixed piece of host work that uses none of the code under test: a
/// fresh 64 MB buffer swept once (a three-point recurrence) in
/// [`CAL_STEPS`] stripes, each split over `threads` scoped threads —
/// allocation, first touch, streaming and dispatch, like a 1024×1024
/// kernel run. Its wall time tracks how fast a shared host runs right
/// now, which drifts by tens of percent over minutes on a virtual
/// machine.
pub fn calibrate(threads: usize) -> f64 {
    fn sweep(c: &mut [i64]) {
        for i in 1..c.len() - 1 {
            c[i] = c[i - 1].wrapping_mul(3) ^ (c[i + 1] + i as i64);
        }
    }
    let t0 = Instant::now();
    let mut a = vec![0i64; CAL_CELLS];
    for region in a.chunks_mut(CAL_CELLS / CAL_STEPS) {
        if threads <= 1 {
            sweep(region);
            continue;
        }
        let part = region.len().div_ceil(threads);
        std::thread::scope(|s| {
            for chunk in region.chunks_mut(part) {
                s.spawn(move || sweep(chunk));
            }
        });
    }
    black_box(&a);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Runs `call` once on `p` with `threads` workers, times only the run
/// itself (inside a child span of the traced parent, tagged with the
/// input's index, when tracing), and returns the wall time, the
/// final-memory fingerprint and the execution counters.
pub fn run_once(
    p: &Prepared,
    input: &Input,
    call: Call,
    threads: usize,
    trace: Option<(&Span, bool, u64)>,
) -> Result<(f64, u64, ExecStats), String> {
    let meter = || Budget::unlimited().meter();
    let span = trace.map(|(parent, tn, input)| {
        let span = parent.child(call.span_name(tn));
        span.add("input", input);
        span
    });
    let t0 = Instant::now();
    let result = rayon::with_workers(threads, || match call {
        Call::Armed | Call::Checked => {
            let k = if call == Call::Armed {
                &p.armed
            } else {
                &p.checked
            };
            k.run_budgeted(p.mode, &mut meter())
                .and_then(|o| o.into_complete())
                .map(|(mem, stats)| (Mem::Kernel(mem), stats))
        }
        Call::Unfused => {
            let (mem, stats) = mdf_sim::run_original(&input.program, input.n, input.m);
            Ok((Mem::Interp(mem), stats))
        }
    });
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(span);
    let (mem, stats) = result.map_err(|e| format!("{}: {e}", input.name))?;
    Ok((ms, mem.fingerprint(), stats))
}

/// Final memory of either engine family.
enum Mem {
    Kernel(mdf_kernel::KernelMemory),
    Interp(mdf_sim::Memory),
}

impl Mem {
    fn fingerprint(&self) -> u64 {
        match self {
            Mem::Kernel(m) => m.fingerprint(),
            Mem::Interp(m) => m.fingerprint(),
        }
    }
}

/// Times every `(input, call, workers)` combination, workers 1 and
/// `nproc`, once per round, in a seeded order per round, until `deadline`
/// (checked between rounds; at least `min_rounds` rounds). With
/// `calibrated`, a round starts with [`calibrate`] at both worker counts
/// unless that ran within the last [`CAL_INTERVAL`]. `Unfused` runs at
/// one worker only. Every call is an attempted operation; a
/// fingerprint that differs from the input's oracle is a failed one and
/// a mismatch.
#[allow(clippy::too_many_arguments)]
pub fn rounds(
    prepared: &[Prepared],
    inputs: &[&Input],
    calls: &[Call],
    nproc: usize,
    seed: u64,
    deadline: Instant,
    min_rounds: usize,
    calibrated: bool,
    parent: Option<&Span>,
    tally: &mut OpTally,
) -> Result<Vec<Sample>, String> {
    let mut combos: Vec<(usize, Call, bool)> = Vec::new();
    for input in 0..prepared.len() {
        for &call in calls {
            combos.push((input, call, false));
            if call != Call::Unfused {
                combos.push((input, call, true));
            }
        }
    }
    let mut samples = Vec::new();
    let mut round = 0;
    let mut cal: Option<(Instant, [f64; 2])> = None;
    while round < min_rounds || Instant::now() < deadline {
        let mut state = seed ^ (round as u64).wrapping_mul(0xd6e8_feb8_6659_fd93);
        for i in (1..combos.len()).rev() {
            let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
            combos.swap(i, j);
        }
        let cal_ms = match cal {
            _ if !calibrated => [f64::NAN; 2],
            Some((at, ms)) if at.elapsed() < CAL_INTERVAL => ms,
            _ => {
                let ms = [calibrate(1), calibrate(nproc)];
                cal = Some((Instant::now(), ms));
                ms
            }
        };
        for &(input, call, tn) in &combos {
            let threads = if tn { nproc } else { 1 };
            let (ms, fp, _) = run_once(
                &prepared[input],
                inputs[input],
                call,
                threads,
                parent.map(|s| (s, tn, input as u64)),
            )?;
            tally.attempted += 1;
            if fp != inputs[input].expected {
                tally.failed += 1;
                tally.mismatches += 1;
            }
            samples.push(Sample {
                round,
                input,
                call,
                tn,
                ms,
                cal_ms: cal_ms[usize::from(tn)],
            });
        }
        round += 1;
    }
    Ok(samples)
}

/// `samples` with each wall time scaled to the reference host speed:
/// `ms * reference / cal_ms`, with the calibration at the sample's
/// worker count measured next to it, so host-speed drift cancels out of
/// the comparison between runs.
pub fn normalized(samples: &[Sample]) -> Vec<Sample> {
    samples
        .iter()
        .map(|s| Sample {
            ms: s.ms * REFERENCE_MS[usize::from(s.tn)] / s.cal_ms,
            ..*s
        })
        .collect()
}

/// Per-input `stat` (a median or a minimum) of the wall times (ms) of
/// `call` at one worker count.
pub fn per_input(
    samples: &[Sample],
    inputs: usize,
    call: Call,
    tn: bool,
    stat: fn(&[f64]) -> f64,
) -> Vec<f64> {
    (0..inputs)
        .map(|i| {
            let ms: Vec<f64> = samples
                .iter()
                .filter(|s| s.input == i && s.call == call && s.tn == tn)
                .map(|s| s.ms)
                .collect();
            stat(&ms)
        })
        .collect()
}

/// The median over inputs and rounds of the paired ratio
/// `tn wall / t1 wall` for `call`.
pub fn paired_ratio(samples: &[Sample], call: Call) -> f64 {
    let t1: std::collections::BTreeMap<(usize, usize), f64> = samples
        .iter()
        .filter(|s| s.call == call && !s.tn)
        .map(|s| ((s.input, s.round), s.ms))
        .collect();
    let ratios: Vec<f64> = samples
        .iter()
        .filter(|s| s.call == call && s.tn)
        .filter_map(|s| t1.get(&(s.input, s.round)).map(|t| s.ms / t))
        .collect();
    crate::stats::median(&ratios)
}

/// The number of items each of `p`'s parallel steps hands to the worker
/// pool, one entry per barrier: column tiles per certified row, tiles per
/// anti-diagonal wave of a tiled wavefront, cells per front of an untiled
/// one, and one item for serial rows.
pub fn step_items(p: &Prepared, n: i64, m: i64) -> Vec<usize> {
    let (outer, inner) = (p.spec.outer_range(n), p.spec.inner_range(m));
    let rows = outer.len().max(0) as usize;
    match p.mode {
        ExecMode::RowsCertified => {
            let tiles = (inner.len().max(0) + TILE_COLS - 1) / TILE_COLS;
            vec![tiles.max(1) as usize; rows]
        }
        ExecMode::RowsSerial => vec![1; rows],
        ExecMode::Wavefront { schedule: s, .. } => match p.armed.tile_plan(p.mode) {
            Some(tp) => (0..tp.waves() as i64)
                .map(|w| {
                    let (lo, hi) = ((w - (tp.n_ib - 1)).max(0), w.min(tp.n_tb - 1));
                    (hi - lo + 1).max(1) as usize
                })
                .collect(),
            None => {
                let mut fronts = std::collections::BTreeMap::<i64, usize>::new();
                for fi in outer.lo..=outer.hi {
                    for fj in inner.lo..=inner.hi {
                        *fronts.entry(s.x * fi + s.y * fj).or_default() += 1;
                    }
                }
                fronts.into_values().collect()
            }
        },
    }
}

/// Replays `steps` as empty parallel steps on `threads` workers and
/// returns the wall time per step in ns: the dispatch cost the kernel
/// pays at every barrier, without the kernel's work.
pub fn dispatch_ns(steps: &[usize], threads: usize, parent: &Span, tn: bool) -> f64 {
    let span = parent.child(if tn {
        "rayon.dispatch.tn"
    } else {
        "rayon.dispatch.t1"
    });
    let t0 = Instant::now();
    rayon::with_workers(threads, || {
        for &items in steps {
            (0..items).into_par_iter().for_each(|i| {
                black_box(i);
            });
        }
    });
    let ns = t0.elapsed().as_secs_f64() * 1e9;
    drop(span);
    ns / steps.len().max(1) as f64
}

/// Work counts of one armed run of `p`: barriers synchronized, barriers
/// the elision certificate removed, statement instances, and bytes the
/// instances load and store (8-byte cells, from the lowered image).
pub fn work_counts(p: &Prepared, stats: &ExecStats) -> [u64; 4] {
    let elided = p.armed.tile_plan(p.mode).map_or(0, |tp| tp.elided());
    let image = p.armed.vm_image(p.mode);
    let len = |r: &mdf_analyze::VmRange| (r.hi - r.lo + 1).max(0) as u64;
    let bytes: u64 = image
        .loops
        .iter()
        .map(|l| {
            let accesses: u64 = l
                .stmts
                .iter()
                .map(|s| {
                    1 + s
                        .instrs
                        .iter()
                        .filter(|i| matches!(i, mdf_analyze::VmInstr::Load { .. }))
                        .count() as u64
                })
                .sum();
            accesses * 8 * len(&l.rows) * len(&l.cols)
        })
        .sum();
    [stats.barriers, elided, stats.stmt_instances, bytes]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::example_inputs;

    #[test]
    fn step_items_cover_every_barrier() {
        for input in example_inputs().unwrap() {
            let p = Prepared::new(&input).unwrap();
            let (_, stats) = p.armed.run(p.mode);
            let steps = step_items(&p, input.n, input.m);
            assert_eq!(steps.len() as u64, stats.barriers, "{}", input.name);
            assert!(steps.iter().all(|&k| k >= 1));
        }
    }

    #[test]
    fn rounds_check_every_call_against_the_oracle() {
        let inputs = example_inputs().unwrap();
        let refs: Vec<&Input> = inputs.iter().collect();
        let prepared: Vec<Prepared> = inputs.iter().map(|i| Prepared::new(i).unwrap()).collect();
        let mut tally = OpTally::default();
        let calls = [Call::Armed, Call::Checked, Call::Unfused];
        let samples = rounds(
            &prepared,
            &refs,
            &calls,
            2,
            5,
            Instant::now(),
            2,
            true,
            None,
            &mut tally,
        )
        .unwrap();
        assert!(samples.iter().all(|s| s.cal_ms > 0.0));
        assert!(normalized(&samples).iter().all(|s| s.ms.is_finite()));
        // Per input: two calls at two worker counts plus one unfused.
        assert_eq!(samples.len(), 2 * inputs.len() * 5);
        assert_eq!(tally.attempted, samples.len() as u64);
        assert_eq!((tally.failed, tally.mismatches), (0, 0));
        assert!(paired_ratio(&samples, Call::Armed) > 0.0);
        let unfused = |stat| per_input(&samples, inputs.len(), Call::Unfused, false, stat);
        let (medians, minima) = (
            unfused(crate::stats::median),
            unfused(crate::stats::minimum),
        );
        assert_eq!(medians.len(), inputs.len());
        assert!(minima.iter().zip(&medians).all(|(lo, mid)| lo <= mid));
    }
}

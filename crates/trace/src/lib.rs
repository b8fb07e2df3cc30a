#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! # `mdf-trace` — structured tracing and phase metrics
//!
//! A zero-dependency observability substrate for the fusion pipeline:
//!
//! * [`Tracer`] / [`Span`] — a span tree with monotonic timings. Spans
//!   are explicit handles threaded through the pipeline (no thread-local
//!   ambient context), so traces are deterministic and tests can run in
//!   parallel without cross-talk.
//! * Named counters — [`Span::add`] attaches `&'static str`-named deltas
//!   to the enclosing span; sinks aggregate them per span.
//! * [`sink::Sink`] — the thread-safe event consumer trait, implemented
//!   by [`sink::MemorySink`] (in-memory event log, the substrate for
//!   [`profile::Profile`]). A disabled [`Tracer`] reaches no sink at all.
//! * [`profile::Profile`] — the span tree reassembled from events, with
//!   the schema-v1 JSON-lines serialization (`to_jsonl`), a human phase
//!   summary (`summary`), and a timing-free structural rendering
//!   (`structure`) for golden tests.
//! * [`validate::validate_trace`] — the checker for the emitted profile
//!   format (the `mdfuse profile-check` engine): the header and span
//!   schemas, then the span tree's structure.
//! * [`json`] — the workspace's one JSON layer, shared by every report
//!   the workspace writes: the [`json::Json`] value, a reader, one writer
//!   (indented report files, one-line JSON-lines records) and a small
//!   declarative [`json::Schema`] whose checker backs `profile-check`
//!   and every report's `--check`.
//!
//! ## The profiling-must-not-perturb invariant
//!
//! Instrumentation is strictly observational: a disabled [`Tracer`] (and
//! every [`Span`] derived from it) is a no-op that performs **no
//! allocation and no clock reads**, and an enabled one only *records* —
//! it never influences planning decisions, execution order, fingerprints,
//! or barrier counts. `tests/trace_determinism.rs` in the workspace root
//! enforces this bit-for-bit across the generator suites and DSL
//! examples.
//!
//! ```
//! use mdf_trace::{sink::MemorySink, Tracer};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(MemorySink::new());
//! let tracer = Tracer::new(sink.clone());
//! {
//!     let root = tracer.span("plan");
//!     let solve = root.child("solve");
//!     solve.add("constraint.rounds", 4);
//! } // spans close on drop, recording monotonic durations
//! let profile = sink.profile().unwrap();
//! assert_eq!(profile.counter_total("constraint.rounds"), 4);
//! assert!(profile.find_span("solve").is_some());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
pub mod profile;
pub mod sink;
pub mod validate;

pub use profile::{Profile, ProfileSpan};
pub use sink::{Event, MemorySink, Sink};
pub use validate::{validate_trace, TraceSummary};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Version stamp of the emitted profile format (the JSON-lines schema
/// produced by [`profile::Profile::to_jsonl`] and checked by
/// [`validate::validate_trace`]).
pub const SCHEMA_VERSION: u64 = 1;

/// Shared state behind an enabled tracer.
struct Inner {
    sink: Arc<dyn Sink>,
    next_id: AtomicU64,
    epoch: Instant,
}

impl Inner {
    fn now_ns(&self) -> u64 {
        // Saturating: a u64 of nanoseconds covers ~584 years of tracing.
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A handle that mints [`Span`]s. Cheap to clone; a disabled tracer (and
/// every span created from it) is an allocation-free no-op.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl Tracer {
    /// A tracer that records nothing. All spans minted from it are inert.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// A tracer that records into `sink`. The tracer's creation instant is
    /// the epoch all span timestamps are relative to.
    pub fn new(sink: Arc<dyn Sink>) -> Tracer {
        Tracer {
            inner: Some(Arc::new(Inner {
                sink,
                next_id: AtomicU64::new(0),
                epoch: Instant::now(),
            })),
        }
    }

    /// `true` when spans minted from this tracer record events.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Starts a root span (no parent).
    pub fn span(&self, name: &'static str) -> Span {
        self.start_span(name, None)
    }

    fn start_span(&self, name: &'static str, parent: Option<u64>) -> Span {
        let Some(inner) = &self.inner else {
            return Span::disabled();
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        inner.sink.record(&Event::SpanStart {
            id,
            parent,
            name,
            start_ns: inner.now_ns(),
        });
        Span {
            active: Some(ActiveSpan {
                tracer: Tracer {
                    inner: Some(Arc::clone(inner)),
                },
                id,
            }),
        }
    }
}

/// The live half of an enabled span.
struct ActiveSpan {
    tracer: Tracer,
    id: u64,
}

/// One node of the span tree. Created by [`Tracer::span`] or
/// [`Span::child`]; ends (recording its monotonic duration) when dropped.
/// A disabled span is free: no allocation, no clock reads, no sink calls.
#[must_use = "a span measures the scope it lives in; dropping it immediately records a zero-length phase"]
pub struct Span {
    active: Option<ActiveSpan>,
}

impl Span {
    /// An inert span: children are inert, counters are discarded.
    pub const fn disabled() -> Span {
        Span { active: None }
    }

    /// `true` when this span records events.
    pub fn is_enabled(&self) -> bool {
        self.active.is_some()
    }

    /// Starts a child span.
    pub fn child(&self, name: &'static str) -> Span {
        match &self.active {
            Some(a) => a.tracer.start_span(name, Some(a.id)),
            None => Span::disabled(),
        }
    }

    /// Adds `delta` to the counter `name` on this span. Counter names are
    /// `&'static str` by design: the hot paths never allocate for
    /// instrumentation, they accumulate locally and report totals once.
    pub fn add(&self, name: &'static str, delta: u64) {
        if let Some(a) = &self.active {
            if let Some(inner) = &a.tracer.inner {
                inner.sink.record(&Event::Counter {
                    span: a.id,
                    name,
                    delta,
                });
            }
        }
    }

    /// Ends the span now (identical to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(a) = self.active.take() {
            if let Some(inner) = &a.tracer.inner {
                inner.sink.record(&Event::SpanEnd {
                    id: a.id,
                    end_ns: inner.now_ns(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let s = t.span("root");
        assert!(!s.is_enabled());
        let c = s.child("child");
        assert!(!c.is_enabled());
        c.add("x", 1); // no-op, must not panic
    }

    #[test]
    fn span_tree_round_trips_through_memory_sink() {
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::new(sink.clone());
        {
            let root = tracer.span("root");
            {
                let a = root.child("a");
                a.add("k", 2);
                a.add("k", 3);
            }
            {
                let b = root.child("b");
                b.add("other", 1);
            }
        }
        let p = sink.profile().unwrap();
        assert_eq!(p.spans.len(), 3);
        assert_eq!(p.counter_total("k"), 5);
        assert_eq!(p.counter_total("other"), 1);
        let root = p.find_span("root").unwrap();
        assert_eq!(root.parent, None);
        let a = p.find_span("a").unwrap();
        assert_eq!(a.parent, Some(root.id));
        assert_eq!(a.counters, vec![("k".to_string(), 5)]);
    }

    #[test]
    fn sibling_spans_do_not_overlap() {
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::new(sink.clone());
        {
            let root = tracer.span("root");
            for _ in 0..3 {
                let c = root.child("step");
                c.finish();
            }
        }
        let p = sink.profile().unwrap();
        let steps: Vec<&ProfileSpan> = p.spans.iter().filter(|s| s.name == "step").collect();
        assert_eq!(steps.len(), 3);
        for w in steps.windows(2) {
            assert!(w[0].start_ns + w[0].dur_ns <= w[1].start_ns);
        }
        // And every child nests inside the root's interval.
        let root = p.find_span("root").unwrap();
        for s in &steps {
            assert!(s.start_ns >= root.start_ns);
            assert!(s.start_ns + s.dur_ns <= root.start_ns + root.dur_ns);
        }
    }
}

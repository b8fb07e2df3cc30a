//! Event sinks: where tracer events go.
//!
//! A [`Sink`] consumes the flat event stream a [`crate::Tracer`] emits.
//! Implementations must be thread-safe (`&self` recording, `Send + Sync`):
//! certified kernel steps run on worker threads, and while the pipeline
//! only *reports aggregated counters* from the coordinating thread today,
//! the contract keeps that an implementation detail.

use std::sync::Mutex;

use crate::profile::Profile;

/// One tracer event. Timestamps are nanoseconds from the tracer's epoch,
/// read from one monotonic clock — so a child's `end_ns` can never exceed
/// its parent's, and sibling intervals emitted sequentially cannot
/// overlap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A span opened.
    SpanStart {
        /// Span id, unique within the tracer.
        id: u64,
        /// Parent span id; `None` for roots.
        parent: Option<u64>,
        /// Static span name.
        name: &'static str,
        /// Open timestamp (ns from epoch).
        start_ns: u64,
    },
    /// A span closed.
    SpanEnd {
        /// Span id.
        id: u64,
        /// Close timestamp (ns from epoch).
        end_ns: u64,
    },
    /// A counter delta attached to a span.
    Counter {
        /// Owning span id.
        span: u64,
        /// Static counter name.
        name: &'static str,
        /// Amount added.
        delta: u64,
    },
}

/// A thread-safe consumer of tracer events.
pub trait Sink: Send + Sync {
    /// Records one event.
    fn record(&self, event: &Event);
}

/// Buffers events in memory; the substrate for [`Profile`] assembly.
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// A snapshot of the recorded events, in arrival order.
    pub fn events(&self) -> Vec<Event> {
        match self.events.lock() {
            Ok(g) => g.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    /// Assembles the recorded events into a [`Profile`], failing on
    /// malformed streams (unknown parents, unclosed spans, counters on
    /// unknown spans).
    pub fn profile(&self) -> Result<Profile, String> {
        Profile::from_events(&self.events())
    }
}

impl Sink for MemorySink {
    fn record(&self, event: &Event) {
        match self.events.lock() {
            Ok(mut g) => g.push(event.clone()),
            Err(poisoned) => poisoned.into_inner().push(event.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;
    use std::sync::Arc;

    #[test]
    fn memory_sink_records_in_order() {
        let sink = Arc::new(MemorySink::new());
        let t = Tracer::new(sink.clone());
        {
            let s = t.span("a");
            s.add("c", 1);
        }
        let ev = sink.events();
        assert_eq!(ev.len(), 3);
        assert!(matches!(ev[0], Event::SpanStart { id: 0, .. }));
        assert!(matches!(
            ev[1],
            Event::Counter {
                span: 0,
                delta: 1,
                ..
            }
        ));
        assert!(matches!(ev[2], Event::SpanEnd { id: 0, .. }));
    }
}

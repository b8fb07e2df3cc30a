//! The assembled span tree: events in, a queryable [`Profile`] out, with
//! the schema-v1 JSON-lines serialization, a human-readable phase
//! summary, and a timing-free structural rendering for golden tests.

use std::collections::BTreeMap;

use crate::json::{object, Json};
use crate::sink::Event;
use crate::SCHEMA_VERSION;

/// One completed span with its aggregated counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileSpan {
    /// Span id, unique within the profile.
    pub id: u64,
    /// Parent span id; `None` for roots.
    pub parent: Option<u64>,
    /// Span name.
    pub name: String,
    /// Open timestamp, nanoseconds from the tracer epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Aggregated counters, sorted by name.
    pub counters: Vec<(String, u64)>,
}

/// A completed trace: spans in start order (parents always precede their
/// children, siblings appear in the order they opened).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Profile {
    /// All spans, in start order.
    pub spans: Vec<ProfileSpan>,
}

impl Profile {
    /// Reassembles a profile from a raw event stream. Fails on malformed
    /// streams: a child starting before its parent, counters on unknown
    /// spans, spans never closed, or a span closed twice.
    pub fn from_events(events: &[Event]) -> Result<Profile, String> {
        struct Building {
            span: ProfileSpan,
            counters: BTreeMap<String, u64>,
            closed: bool,
        }
        let mut order: Vec<u64> = Vec::new();
        let mut by_id: BTreeMap<u64, Building> = BTreeMap::new();
        for ev in events {
            match ev {
                Event::SpanStart {
                    id,
                    parent,
                    name,
                    start_ns,
                } => {
                    if by_id.contains_key(id) {
                        return Err(format!("span {id} started twice"));
                    }
                    if let Some(p) = parent {
                        if !by_id.contains_key(p) {
                            return Err(format!("span {id} has unknown parent {p}"));
                        }
                    }
                    order.push(*id);
                    by_id.insert(
                        *id,
                        Building {
                            span: ProfileSpan {
                                id: *id,
                                parent: *parent,
                                name: (*name).to_string(),
                                start_ns: *start_ns,
                                dur_ns: 0,
                                counters: Vec::new(),
                            },
                            counters: BTreeMap::new(),
                            closed: false,
                        },
                    );
                }
                Event::SpanEnd { id, end_ns } => {
                    let b = by_id
                        .get_mut(id)
                        .ok_or_else(|| format!("end for unknown span {id}"))?;
                    if b.closed {
                        return Err(format!("span {id} closed twice"));
                    }
                    b.closed = true;
                    b.span.dur_ns = end_ns.saturating_sub(b.span.start_ns);
                }
                Event::Counter { span, name, delta } => {
                    let b = by_id
                        .get_mut(span)
                        .ok_or_else(|| format!("counter {name:?} on unknown span {span}"))?;
                    *b.counters.entry((*name).to_string()).or_insert(0) += delta;
                }
            }
        }
        let mut spans = Vec::with_capacity(order.len());
        for id in order {
            let Some(mut b) = by_id.remove(&id) else {
                continue;
            };
            if !b.closed {
                return Err(format!("span {id} ({}) never closed", b.span.name));
            }
            b.span.counters = b.counters.into_iter().collect();
            spans.push(b.span);
        }
        Ok(Profile { spans })
    }

    /// The first span named `name`, if any.
    pub fn find_span(&self, name: &str) -> Option<&ProfileSpan> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// The sum of counter `name` across every span.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .flat_map(|s| &s.counters)
            .filter(|(k, _)| k == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// Serializes to the schema-v1 JSON-lines profile format: a header
    /// line (`kind: "header"`) followed by one line per completed span,
    /// parents before children. Validated by
    /// [`crate::validate::validate_trace`].
    pub fn to_jsonl(&self, tool: &str, command: &str) -> String {
        let header = object([
            ("kind", Json::from("header")),
            ("schema_version", SCHEMA_VERSION.into()),
            ("name", "mdf-trace".into()),
            ("tool", tool.into()),
            ("command", command.into()),
            ("span_count", self.spans.len().into()),
        ]);
        let spans = self.spans.iter().map(|s| {
            let counters = s.counters.iter().map(|(k, v)| (k.as_str(), Json::from(*v)));
            object([
                ("kind", Json::from("span")),
                ("id", s.id.into()),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                ("name", s.name.as_str().into()),
                ("start_ns", s.start_ns.into()),
                ("dur_ns", s.dur_ns.into()),
                ("counters", object(counters)),
            ])
        });
        std::iter::once(header)
            .chain(spans)
            .map(|record| record.line() + "\n")
            .collect()
    }

    /// A human-readable phase table: the span tree indented, with
    /// millisecond durations and counters. Intended for stderr.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, true);
        out
    }

    /// A timing-free rendering of the span tree — names, nesting, and
    /// counters only. Deterministic for a deterministic pipeline, which
    /// makes it the right artifact for golden-file tests.
    pub fn structure(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, false);
        out
    }

    fn render(&self, out: &mut String, timings: bool) {
        // Children of each span, in start order.
        let mut children: BTreeMap<Option<u64>, Vec<usize>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            children.entry(s.parent).or_default().push(i);
        }
        let mut stack: Vec<(usize, usize)> = children
            .get(&None)
            .map(|roots| roots.iter().rev().map(|&i| (i, 0)).collect())
            .unwrap_or_default();
        while let Some((i, depth)) = stack.pop() {
            let s = &self.spans[i];
            out.push_str(&"  ".repeat(depth));
            out.push_str(&s.name);
            if timings {
                out.push_str(&format!(" {:.3} ms", s.dur_ns as f64 / 1_000_000.0));
            }
            for (k, v) in &s.counters {
                out.push_str(&format!("  {k}={v}"));
            }
            out.push('\n');
            if let Some(kids) = children.get(&Some(s.id)) {
                for &k in kids.iter().rev() {
                    stack.push((k, depth + 1));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::SpanStart {
                id: 0,
                parent: None,
                name: "run",
                start_ns: 0,
            },
            Event::SpanStart {
                id: 1,
                parent: Some(0),
                name: "plan",
                start_ns: 10,
            },
            Event::Counter {
                span: 1,
                name: "plan.attempts",
                delta: 2,
            },
            Event::SpanEnd { id: 1, end_ns: 50 },
            Event::SpanStart {
                id: 2,
                parent: Some(0),
                name: "execute",
                start_ns: 60,
            },
            Event::Counter {
                span: 2,
                name: "kernel.barriers",
                delta: 7,
            },
            Event::SpanEnd { id: 2, end_ns: 90 },
            Event::SpanEnd { id: 0, end_ns: 100 },
        ]
    }

    #[test]
    fn assembles_and_serializes() {
        let p = Profile::from_events(&sample_events()).unwrap();
        assert_eq!(p.spans.len(), 3);
        assert_eq!(p.counter_total("kernel.barriers"), 7);
        let text = p.to_jsonl("mdfuse", "run x.mdf");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"schema_version\":1"));
        assert!(lines[0].contains("\"span_count\":3"));
        assert!(lines[1].contains("\"name\":\"run\""));
        crate::validate::validate_trace(&text).unwrap();
    }

    #[test]
    fn structure_is_timing_free_and_indented() {
        let p = Profile::from_events(&sample_events()).unwrap();
        let s = p.structure();
        assert_eq!(
            s,
            "run\n  plan  plan.attempts=2\n  execute  kernel.barriers=7\n"
        );
        let human = p.summary();
        assert!(human.contains("ms"));
    }

    #[test]
    fn rejects_malformed_streams() {
        // Orphan child.
        let err = Profile::from_events(&[Event::SpanStart {
            id: 1,
            parent: Some(0),
            name: "x",
            start_ns: 0,
        }])
        .unwrap_err();
        assert!(err.contains("unknown parent"), "{err}");
        // Unclosed span.
        let err = Profile::from_events(&[Event::SpanStart {
            id: 0,
            parent: None,
            name: "x",
            start_ns: 0,
        }])
        .unwrap_err();
        assert!(err.contains("never closed"), "{err}");
        // Counter on unknown span.
        let err = Profile::from_events(&[Event::Counter {
            span: 3,
            name: "k",
            delta: 1,
        }])
        .unwrap_err();
        assert!(err.contains("unknown span"), "{err}");
    }
}

//! The schema-v1 profile format emitted by
//! [`crate::profile::Profile::to_jsonl`] and its checker, the engine
//! behind `mdfuse profile-check`. The header line and the span records
//! each have a [`Schema`]; [`validate_trace`] checks every line against
//! its schema, then the structure the lines form together: unique span
//! ids, parents emitted before children, child intervals nested inside
//! their parent's, sibling intervals non-overlapping, and an honest
//! `span_count`.

use std::collections::BTreeMap;

use crate::json::{parse, Field, Json, Presence, Schema, Type};
use crate::SCHEMA_VERSION;

/// The header line.
static HEADER: Schema = Schema {
    version: Some(SCHEMA_VERSION),
    fields: &[
        Field::req("kind", Type::Tag(&["header"])),
        Field::req("name", Type::Tag(&["mdf-trace"])),
        Field::req("{tool,command}", Type::Str),
        Field::req("span_count", Type::Int).min(0.0),
    ],
    shape: &[],
    gates: &[],
};

/// One span record.
static SPAN: Schema = Schema {
    version: None,
    fields: &[
        Field::req("kind", Type::Tag(&["span"])),
        Field::req("{id,start_ns,dur_ns}", Type::Int).min(0.0),
        Field::req("parent", Type::Int)
            .min(0.0)
            .presence(Presence::Nullable),
        Field::req("name", Type::Str),
        Field::req("counters", Type::Obj),
    ],
    shape: &[counters_are_counts],
    gates: &[],
};

/// Every counter value is a whole number of events.
fn counters_are_counts(span: &Json) -> Result<(), String> {
    let counters = span.get("counters").and_then(Json::obj).unwrap_or_default();
    for (k, v) in counters {
        if !v.num().is_some_and(|n| n >= 0.0 && n.fract() == 0.0) {
            return Err(format!("counter {k:?} is not a non-negative integer"));
        }
    }
    Ok(())
}

/// What a valid trace contained, for one-line reporting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSummary {
    /// The `command` field from the header.
    pub command: String,
    /// Number of span lines.
    pub spans: usize,
    /// Number of root spans (`parent: null`).
    pub roots: usize,
}

/// Validates one profile document. Returns a [`TraceSummary`] on success,
/// a human-readable schema violation on error.
pub fn validate_trace(text: &str) -> Result<TraceSummary, String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());

    let (_, header_line) = lines.next().ok_or("empty trace file")?;
    let header = parse(header_line).map_err(|e| format!("line 1: {e}"))?;
    HEADER.check(&header)?;
    let int = |v: &Json, k: &str| v.get(k).and_then(Json::num).unwrap_or(0.0) as u64;
    let command = header
        .get("command")
        .and_then(Json::str_val)
        .unwrap_or_default()
        .to_string();
    let declared = int(&header, "span_count") as usize;

    // id -> emitted interval, for the parent-nesting check.
    let mut seen: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    // Last-emitted interval end per parent, for the sibling-overlap check.
    let mut last_sibling: BTreeMap<Option<u64>, u64> = BTreeMap::new();
    let mut roots = 0usize;
    let mut count = 0usize;

    for (idx, line) in lines {
        let ln = idx + 1;
        let v = parse(line).map_err(|e| format!("line {ln}: {e}"))?;
        SPAN.check(&v).map_err(|e| format!("line {ln}: {e}"))?;
        let id = int(&v, "id");
        if seen.contains_key(&id) {
            return Err(format!("line {ln}: duplicate span id {id}"));
        }
        let parent = v.get("parent").and_then(Json::num).map(|p| p as u64);
        let start = int(&v, "start_ns");
        let end = start.saturating_add(int(&v, "dur_ns"));
        match parent {
            None => roots += 1,
            Some(p) => {
                let &(pstart, pend) = seen.get(&p).ok_or(format!(
                    "line {ln}: span {id} references parent {p} not yet emitted (orphan)"
                ))?;
                if start < pstart || end > pend {
                    return Err(format!(
                        "line {ln}: span {id} [{start}, {end}] escapes its \
                         parent {p} [{pstart}, {pend}]"
                    ));
                }
            }
        }
        if let Some(&prev_end) = last_sibling.get(&parent) {
            if start < prev_end {
                return Err(format!(
                    "line {ln}: span {id} starts at {start}, overlapping its \
                     preceding sibling which ended at {prev_end}"
                ));
            }
        }
        last_sibling.insert(parent, end);
        seen.insert(id, (start, end));
        count += 1;
    }

    if count != declared {
        return Err(format!(
            "header declares span_count {declared} but {count} span record(s) follow"
        ));
    }
    if count == 0 {
        return Err("trace contains no spans".into());
    }
    Ok(TraceSummary {
        command,
        spans: count,
        roots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = concat!(
        "{\"kind\":\"header\",\"schema_version\":1,\"name\":\"mdf-trace\",",
        "\"tool\":\"mdfuse\",\"command\":\"run a.mdf\",\"span_count\":3}\n",
        "{\"kind\":\"span\",\"id\":0,\"parent\":null,\"name\":\"run\",",
        "\"start_ns\":0,\"dur_ns\":100,\"counters\":{}}\n",
        "{\"kind\":\"span\",\"id\":1,\"parent\":0,\"name\":\"plan\",",
        "\"start_ns\":10,\"dur_ns\":40,\"counters\":{\"plan.attempts\":1}}\n",
        "{\"kind\":\"span\",\"id\":2,\"parent\":0,\"name\":\"execute\",",
        "\"start_ns\":60,\"dur_ns\":30,\"counters\":{\"kernel.barriers\":7}}\n",
    );

    #[test]
    fn accepts_a_well_formed_trace() {
        let s = validate_trace(GOOD).unwrap();
        assert_eq!(s.command, "run a.mdf");
        assert_eq!(s.spans, 3);
        assert_eq!(s.roots, 1);
    }

    #[test]
    fn rejects_unknown_schema_versions() {
        let bumped = GOOD.replace("\"schema_version\":1", "\"schema_version\":2");
        let err = validate_trace(&bumped).unwrap_err();
        assert_eq!(err, "unknown schema_version 2 (expected 1)");
    }

    #[test]
    fn rejects_orphans_and_overlaps_and_miscounts() {
        // Orphan: parent 9 never emitted.
        let orphan = GOOD.replace("\"id\":1,\"parent\":0", "\"id\":1,\"parent\":9");
        assert!(validate_trace(&orphan).unwrap_err().contains("orphan"));

        // Overlapping siblings: second child starts before the first ends.
        let overlap = GOOD.replace("\"start_ns\":60", "\"start_ns\":45");
        assert!(validate_trace(&overlap)
            .unwrap_err()
            .contains("overlapping"));

        // Child escaping its parent's interval.
        let escape = GOOD.replace(
            "\"start_ns\":60,\"dur_ns\":30",
            "\"start_ns\":60,\"dur_ns\":50",
        );
        assert!(validate_trace(&escape).unwrap_err().contains("escapes"));

        // span_count lies.
        let short = GOOD.replace("\"span_count\":3", "\"span_count\":5");
        assert!(validate_trace(&short)
            .unwrap_err()
            .contains("span_count 5 but 3"));

        // Duplicate ids.
        let dup = GOOD.replace("\"id\":2", "\"id\":1");
        assert!(validate_trace(&dup).unwrap_err().contains("duplicate"));

        // Not a header first.
        assert!(validate_trace("{\"kind\":\"span\"}\n").is_err());
        assert!(validate_trace("").is_err());
    }
}

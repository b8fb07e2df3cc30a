//! The metric catalog, the result line, and its validator.
//!
//! Every run prints, as the last line of standard output, one JSON object
//! with exactly the keys `correct`, `attempted`, `failed` and `metrics`.
//! An untraced run carries every [`END_TO_END`] metric, a traced run every
//! [`PER_LAYER`] metric, each as `{"value": <number>, "unit": <unit>}`.
//! Properties of the host and the workload go on the line before it.

use mdf_trace::json::{escape, parse, Json};

/// End-to-end metrics, `(name, unit)`, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("kernel_ms_t1", "ms"),
    ("kernel_ms_tn", "ms"),
    ("kernel_tn_over_t1", "ratio"),
];

/// Per-layer metrics, `(name, unit)`, printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rayon.dispatch_ns_t1", "ns"),
    ("rayon.dispatch_ns_tn", "ns"),
    ("kernel.exec_ms_t1", "ms"),
    ("kernel.exec_ms_tn", "ms"),
    ("kernel.checked_ms_t1", "ms"),
    ("kernel.checked_ms_tn", "ms"),
    ("kernel.barriers", "count"),
    ("kernel.elided", "count"),
    ("kernel.cells", "count"),
    ("kernel.bytes_computed", "B"),
    ("sim.unfused_ms_t1", "ms"),
    ("sim.interp_us", "us"),
    ("ir.parse_us", "us"),
    ("graph.fingerprint_us", "us"),
    ("core.plan_us", "us"),
    ("analyze.certify_us", "us"),
    ("kernel.lower_us", "us"),
    ("kernel.verify_us", "us"),
    ("kernel.cert_revalidate_us", "us"),
    ("service.cache_lookup_us", "us"),
    ("service.cache_insert_us", "us"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.proto_us", "us"),
    ("service.residual_us", "us"),
    ("service.store_bytes", "B"),
    ("router.hop_us", "us"),
    ("router.ring_owner_ns", "ns"),
    ("router.batched_share", "ratio"),
    ("router.reroutes", "count"),
    ("client.retries", "count"),
    ("client.failed", "count"),
    ("trace.overhead_pct", "%"),
];

/// The outcome of one run, before rendering.
pub struct RunResult {
    /// Operations whose output disagreed with the oracle.
    pub mismatches: u64,
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Attempted operations that failed: mismatches, typed rejections,
    /// transport errors.
    pub failed: u64,
    /// `(name, value)`; units come from the catalog.
    pub metrics: Vec<(&'static str, f64)>,
}

impl RunResult {
    /// The result line. A non-finite value renders as `null`, which the
    /// validator rejects.
    pub fn render(&self, catalog: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = catalog
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or("", |(_, u)| u);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    escape(name),
                    number(*value),
                    escape(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.mismatches == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A number with all its digits (`Display` for `f64` prints the shortest
/// text that reads back as the same value), or `null` when not finite.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Renders a parsed-JSON value back to text: the properties line is built
/// as a [`Json`] tree and printed through this.
pub fn to_text(v: &Json) -> String {
    match v {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => number(*n),
        Json::Str(s) => format!("\"{}\"", escape(s)),
        Json::Arr(items) => {
            let parts: Vec<String> = items.iter().map(to_text).collect();
            format!("[{}]", parts.join(", "))
        }
        Json::Obj(fields) => {
            let parts: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("\"{}\": {}", escape(k), to_text(v)))
                .collect();
            format!("{{{}}}", parts.join(", "))
        }
    }
}

/// Checks a result line against `catalog`: exactly the four top-level
/// keys, `correct` true (no oracle mismatch), whole `attempted >= 1` and
/// `failed <= attempted`, and every catalog metric present, with a finite
/// value and its catalog unit, and nothing else.
pub fn validate(line: &str, catalog: &[(&str, &str)]) -> Result<(), String> {
    let doc = parse(line)?;
    let fields = doc.obj().ok_or("result is not an object")?;
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("unexpected top-level keys {keys:?}"));
    }
    if doc.get("correct").and_then(Json::bool_val) != Some(true) {
        return Err("outputs disagreed with the oracle (correct is not true)".into());
    }
    let whole = |key: &str| -> Result<f64, String> {
        match doc.get(key).and_then(Json::num) {
            Some(v) if v >= 0.0 && v.fract() == 0.0 => Ok(v),
            _ => Err(format!("{key} is not a whole number")),
        }
    };
    let (attempted, failed) = (whole("attempted")?, whole("failed")?);
    if attempted < 1.0 || failed > attempted {
        return Err(format!("attempted {attempted}, failed {failed}"));
    }
    let metrics = doc
        .get("metrics")
        .and_then(Json::obj)
        .ok_or("metrics is not an object")?;
    for (name, unit) in catalog {
        let m = doc
            .get("metrics")
            .and_then(|ms| ms.get(name))
            .ok_or_else(|| format!("missing metric {name}"))?;
        match m.get("unit").and_then(Json::str_val) {
            Some(u) if u == *unit => {}
            Some("") | None => return Err(format!("metric {name} has no unit")),
            Some(u) => return Err(format!("metric {name} has unit {u:?}, expected {unit:?}")),
        }
        match m.get("value").and_then(Json::num) {
            Some(v) if v.is_finite() => {}
            _ => return Err(format!("metric {name} has no finite value")),
        }
    }
    if let Some((extra, _)) = metrics
        .iter()
        .find(|(k, _)| !catalog.iter().any(|(n, _)| n == k))
    {
        return Err(format!("metric {extra} is not in the catalog"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(catalog: &[(&'static str, &str)]) -> RunResult {
        RunResult {
            mismatches: 0,
            attempted: 10,
            failed: 0,
            metrics: catalog
                .iter()
                .enumerate()
                .map(|(i, (n, _))| (*n, 1.5 + i as f64))
                .collect(),
        }
    }

    #[test]
    fn complete_results_validate() {
        for catalog in [END_TO_END, PER_LAYER] {
            let line = full(catalog).render(catalog);
            validate(&line, catalog).unwrap();
        }
    }

    #[test]
    fn rejects_a_missing_metric() {
        let mut r = full(END_TO_END);
        r.metrics.retain(|(n, _)| *n != "latency_p95_ms");
        let err = validate(&r.render(END_TO_END), END_TO_END).unwrap_err();
        assert!(err.contains("missing metric latency_p95_ms"), "{err}");
    }

    #[test]
    fn rejects_a_missing_unit() {
        let mut r = full(END_TO_END);
        r.metrics.push(("not_in_catalog", 1.0));
        let line = r.render(END_TO_END);
        // Rendered without a catalog unit, and not in the catalog.
        assert!(line.contains("\"unit\": \"\""));
        assert!(validate(&line, END_TO_END).is_err());
        let line =
            full(END_TO_END)
                .render(END_TO_END)
                .replacen("\"unit\": \"s\"", "\"unit\": \"\"", 1);
        let err = validate(&line, END_TO_END).unwrap_err();
        assert!(err.contains("setup_s has no unit"), "{err}");
        let line = full(END_TO_END)
            .render(END_TO_END)
            .replacen(", \"unit\": \"s\"", "", 1);
        let err = validate(&line, END_TO_END).unwrap_err();
        assert!(err.contains("setup_s has no unit"), "{err}");
    }

    #[test]
    fn rejects_a_non_finite_value() {
        for bad in [f64::NAN, f64::INFINITY] {
            let mut r = full(END_TO_END);
            r.metrics[2].1 = bad;
            let err = validate(&r.render(END_TO_END), END_TO_END).unwrap_err();
            assert!(err.contains("throughput_rps has no finite value"), "{err}");
        }
    }

    #[test]
    fn rejects_a_nonzero_mismatch_count() {
        let mut r = full(END_TO_END);
        r.mismatches = 1;
        r.failed = 1;
        let line = r.render(END_TO_END);
        assert!(line.starts_with("{\"correct\": false"));
        let err = validate(&line, END_TO_END).unwrap_err();
        assert!(err.contains("oracle"), "{err}");
    }

    #[test]
    fn rejects_bad_counts() {
        let mut r = full(END_TO_END);
        r.attempted = 0;
        assert!(validate(&r.render(END_TO_END), END_TO_END).is_err());
        let mut r = full(END_TO_END);
        r.failed = 11;
        assert!(validate(&r.render(END_TO_END), END_TO_END).is_err());
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let doc = parse(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::str_val).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = catalog
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
    }

    #[test]
    fn properties_render_as_json() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Num(1.25)),
            ("b".into(), Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("c".into(), Json::Str("x\"y".into())),
        ]);
        let text = to_text(&v);
        assert_eq!(
            text,
            "{\"a\": 1.25, \"b\": [true, null], \"c\": \"x\\\"y\"}"
        );
        parse(&text).unwrap();
    }
}

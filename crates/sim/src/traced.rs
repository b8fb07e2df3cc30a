//! Execution counters for traced runs.
//!
//! Strictly observational: [`report`] puts an already-computed
//! [`ExecStats`] onto the caller's span as `sim.barriers` /
//! `sim.instances` counters, after any interpreter entry point (plain,
//! budgeted, or the stats accumulated so far by a partial outcome).
//! Results — memory contents, fingerprints, the stats themselves — are
//! exactly what the call produced.

use mdf_trace::Span;

use crate::interp::ExecStats;

/// Reports `stats` onto `span` as `sim.barriers` and `sim.instances`.
pub fn report(span: &Span, stats: &ExecStats) {
    span.add("sim.barriers", stats.barriers);
    span.add("sim.instances", stats.stmt_instances);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::run_original_budgeted;
    use mdf_graph::budget::Budget;
    use mdf_ir::parse_program;
    use mdf_trace::{MemorySink, Tracer};
    use std::sync::Arc;

    const SRC: &str = "\
program traced_smoke {
    arrays a, b;
    do i {
        doall A: j {
            a[i][j] = a[i-1][j] + 1;
        }
        doall B: j {
            b[i][j] = a[i][j] * 2;
        }
    }
}
";

    #[test]
    fn traced_run_matches_untraced_and_reports_counters() {
        let p = parse_program(SRC).unwrap();
        let mut meter = Budget::unlimited().meter();
        let (plain_mem, plain_stats) = run_original_budgeted(&p, 6, 6, &mut meter).unwrap();

        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::new(sink.clone());
        let span = tracer.span("execute");
        let mut meter = Budget::unlimited().meter();
        let (mem, stats) = run_original_budgeted(&p, 6, 6, &mut meter).unwrap();
        report(&span, &stats);
        span.finish();

        assert_eq!(mem.fingerprint(), plain_mem.fingerprint());
        assert_eq!(stats, plain_stats);
        let profile = sink.profile().unwrap();
        assert_eq!(profile.counter_total("sim.barriers"), stats.barriers);
        assert_eq!(profile.counter_total("sim.instances"), stats.stmt_instances);
    }
}

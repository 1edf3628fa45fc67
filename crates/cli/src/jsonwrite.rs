//! Deterministic JSON renderings of the CLI's reports.
//!
//! Machine-readable surfaces (`configure`/`compare`/`drill --json`, the
//! `pipette serve` response stream) need byte-stable output. These
//! renderers build on the shared [`Obj`] writer: fixed field order,
//! shortest round-trip floats, no whitespace — so identical inputs
//! always produce byte-identical JSON.

use crate::report::{CompareRow, DrillReport};
use pipette_obs::json::{push_array, push_object, push_uint, Obj};

/// Renders a [`CliReport`](crate::report::CliReport) as one
/// deterministic JSON object — the `configure --json` output, the
/// `result` payload of serve responses and the `recommendation` member
/// of the drill report.
pub fn cli_report_json(rec: &crate::report::CliReport) -> String {
    let mut rec_json = String::new();
    let mut o = Obj::open(&mut rec_json);
    o.uint("pp", rec.pp as u64);
    o.uint("tp", rec.tp as u64);
    o.uint("dp", rec.dp as u64);
    o.uint("micro_batch", rec.micro_batch);
    o.uint("n_microbatches", rec.n_microbatches);
    o.float("estimated_seconds", rec.estimated_seconds);
    o.float("measured_seconds", rec.measured_seconds);
    o.float("peak_memory_gib", rec.peak_memory_gib);
    o.uint("examined", rec.examined as u64);
    o.uint("memory_rejected", rec.memory_rejected as u64);
    o.array("mapping", &rec.mapping, |out, &g| push_uint(out, g as u64));
    o.uint("replicas", rec.replicas as u64);
    match &rec.estimator_cache {
        Some(c) => o.object("estimator_cache", |co| {
            co.uint("hits", c.hits);
            co.uint("misses", c.misses);
            co.uint("corrupt", c.corrupt);
        }),
        None => o.raw("estimator_cache", "null"),
    }
    o.close();
    rec_json
}

/// Renders a [`DrillReport`] as one deterministic JSON line — the
/// machine-readable `pipette drill --json` output CI parses.
pub fn drill_report_json(report: &DrillReport) -> String {
    let mut out = String::new();
    let mut o = Obj::open(&mut out);
    o.raw("recommendation", &cli_report_json(&report.recommendation));
    o.uint("healthy_gpus", report.healthy_gpus as u64);
    o.uint("surviving_gpus", report.surviving_gpus as u64);
    o.array("excluded_gpus", &report.excluded_gpus, |out, &g| {
        push_uint(out, g as u64)
    });
    o.uint("profiler_retries", report.profiler_retries as u64);
    o.uint("imputed_pairs", report.imputed_pairs as u64);
    o.uint("corrupt_samples", report.corrupt_samples as u64);
    o.boolean("analytic_memory_fallback", report.analytic_memory_fallback);
    match report.slowdown_factor {
        Some(f) => o.float("slowdown_factor", f),
        None => o.raw("slowdown_factor", "null"),
    }
    o.uint("degraded_requests", report.degraded_requests);
    o.close();
    out
}

/// Renders the `compare --json` shoot-out: one object per method, in
/// the order [`run_compare`](crate::report::run_compare) returns them.
pub fn compare_rows_json(rows: &[CompareRow]) -> String {
    let mut out = String::new();
    push_array(&mut out, rows, |out, row| {
        push_object(out, |o| {
            o.string("method", &row.method);
            o.string("config", &row.config);
            o.float("seconds", row.seconds);
            o.uint("launches", row.launches as u64);
        })
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipette_obs::json::{self, render_value};

    #[test]
    fn render_value_round_trips_canonically() {
        let src = r#"{"b": 1, "a": [true, null, "x\n"], "n": -2.5}"#;
        let parsed = json::parse(src).unwrap();
        let rendered = render_value(&parsed);
        // Source key order, no whitespace, shortest floats.
        assert_eq!(rendered, r#"{"b":1,"a":[true,null,"x\n"],"n":-2.5}"#);
        // Canonical form is a fixed point.
        let reparsed = json::parse(&rendered).unwrap();
        assert_eq!(render_value(&reparsed), rendered);
    }

    #[test]
    fn drill_report_renders_every_ci_field() {
        use crate::report::CliReport;
        let report = DrillReport {
            recommendation: CliReport {
                pp: 2,
                tp: 2,
                dp: 3,
                micro_batch: 4,
                n_microbatches: 8,
                estimated_seconds: 1.25,
                measured_seconds: 1.5,
                peak_memory_gib: 10.0,
                examined: 30,
                memory_rejected: 5,
                mapping: vec![0, 2, 1],
                replicas: 1,
                estimator_cache: None,
            },
            healthy_gpus: 16,
            surviving_gpus: 12,
            excluded_gpus: vec![3, 7, 11, 15],
            profiler_retries: 2,
            imputed_pairs: 4,
            corrupt_samples: 9,
            analytic_memory_fallback: true,
            slowdown_factor: Some(1.4),
            degraded_requests: 0,
        };
        let text = drill_report_json(&report);
        for needle in [
            r#""recommendation":{"pp":2,"tp":2,"dp":3"#,
            r#""mapping":[0,2,1]"#,
            r#""estimator_cache":null"#,
            r#""healthy_gpus":16"#,
            r#""surviving_gpus":12"#,
            r#""excluded_gpus":[3,7,11,15]"#,
            r#""analytic_memory_fallback":true"#,
            r#""slowdown_factor":1.4"#,
            r#""degraded_requests":0"#,
        ] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
        // The writer's output parses back under the strict parser.
        assert!(json::parse(&text).is_ok());
    }
}

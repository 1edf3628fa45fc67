//! Library backing the `pipette` command-line tool.
//!
//! The CLI reads a [`JobSpec`] (JSON), runs Algorithm 1, verifies the
//! recommendation on the simulated cluster, and prints a report — or, with
//! `--compare`, a full baseline shoot-out.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod jsonwrite;
pub mod report;
pub mod serve_cmd;
pub mod spec;
pub mod trace_cmd;

pub use jsonwrite::{cli_report_json, compare_rows_json, drill_report_json};
pub use report::{
    render_drill, render_explain, render_metrics, run_compare, run_configure, run_configure_traced,
    run_drill_traced, CliReport, DrillReport,
};
pub use serve_cmd::{run_drill_serve, PipetteHandler, ServeJob};
pub use spec::{parse_fault_plan_strict, ClusterSpec, JobSpec, ModelSpec, SpecError};
pub use trace_cmd::{trace_check, trace_diff, trace_flame, trace_summarize, TraceCmdOutput};

/// The JSON scan behind every document the CLI reads — job specs, fault
/// plans, serve envelopes — is [`pipette_obs::json::parse`]; these tests
/// pin what it accepts and how it reports errors, from the CLI's side.
#[cfg(test)]
mod jsonscan {
    #[cfg(test)]
    mod tests {
        use pipette_obs::json::{parse, JsonValue};

        fn keys(v: &JsonValue) -> Vec<&str> {
            match v {
                JsonValue::Object(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
                _ => Vec::new(),
            }
        }

        #[test]
        fn parses_nested_documents() {
            let v = parse(r#"{"a": [1, -2.5, "x\n"], "b": {"c": true, "d": null}}"#).unwrap();
            assert_eq!(keys(&v), vec!["a", "b"]);
            assert_eq!(
                v.get("a"),
                Some(&JsonValue::Array(vec![
                    JsonValue::Number(1.0),
                    JsonValue::Number(-2.5),
                    JsonValue::String("x\n".into()),
                ]))
            );
            assert_eq!(v.get("b").unwrap().get("c"), Some(&JsonValue::Bool(true)));
            assert_eq!(v.get("b").unwrap().get("d"), Some(&JsonValue::Null));
            assert_eq!(v.get("missing"), None);
        }

        #[test]
        fn rejects_malformed_documents() {
            for bad in [
                "",
                "{",
                "{\"a\": 1,}",
                "[1 2]",
                "{\"a\": 1} trailing",
                "{\"a\": 1, \"a\": 2}",
                "\"unterminated",
                "01a",
                "{\"a\": Infinity}",
            ] {
                assert!(parse(bad).is_err(), "should reject {bad:?}");
            }
        }

        #[test]
        fn reports_offsets() {
            let err = parse("{\"a\": nope}").unwrap_err();
            assert!(err.offset > 0);
            assert!(err.to_string().contains("byte"));
        }
    }
}

/// Fault plans round-tripped through [`parse_fault_plan_strict`], the
/// decoder behind `pipette drill --faults`.
#[cfg(test)]
mod faults {
    #[cfg(test)]
    mod tests {
        use crate::parse_fault_plan_strict;
        use pipette_cluster::{CorruptPair, DegradedLink, DriftEpisode, FaultPlan, StragglerGpu};
        use pipette_obs::json::{push_object, push_uint, Obj};

        /// Writes every field of `plan`, in declaration order, `drift` as
        /// `null` when absent — the document the decoder reads back to an
        /// equal plan.
        fn fault_plan_json(plan: &FaultPlan) -> String {
            let mut out = String::new();
            let mut o = Obj::open(&mut out);
            o.uint("seed", plan.seed);
            o.array("degraded_links", &plan.degraded_links, |out, link| {
                push_object(out, |l| {
                    l.uint("from_node", link.from_node as u64);
                    l.uint("to_node", link.to_node as u64);
                    l.float("factor", link.factor);
                })
            });
            o.array("straggler_gpus", &plan.straggler_gpus, |out, gpu| {
                push_object(out, |g| {
                    g.uint("gpu", gpu.gpu as u64);
                    g.float("slowdown", gpu.slowdown);
                })
            });
            o.array("failed_gpus", &plan.failed_gpus, |out, &g| {
                push_uint(out, g as u64)
            });
            o.array("failed_nodes", &plan.failed_nodes, |out, &n| {
                push_uint(out, n as u64)
            });
            o.array("corrupt_pairs", &plan.corrupt_pairs, |out, pair| {
                push_object(out, |p| {
                    p.uint("from_gpu", pair.from_gpu as u64);
                    p.uint("to_gpu", pair.to_gpu as u64);
                    p.string("kind", &pair.kind);
                })
            });
            o.float("measurement_failure_rate", plan.measurement_failure_rate);
            o.float("sample_loss_rate", plan.sample_loss_rate);
            match &plan.drift {
                Some(d) => o.object("drift", |dobj| {
                    dobj.uint("day", d.day as u64);
                    dobj.float("daily_sigma", d.daily_sigma);
                    dobj.float("reversion", d.reversion);
                }),
                None => o.raw("drift", "null"),
            }
            o.close();
            out
        }

        #[test]
        fn drift_round_trips_and_defaults_fill_in() {
            let sparse = parse_fault_plan_strict(r#"{"drift":{"day":4}}"#).unwrap();
            let d = sparse.drift.unwrap();
            assert_eq!(d.day, 4);
            assert_eq!(d.daily_sigma, 0.03);
            assert_eq!(d.reversion, 0.25);
            let json = fault_plan_json(&sparse);
            let back = parse_fault_plan_strict(&json).unwrap();
            assert_eq!(back, sparse);
        }

        #[test]
        fn plan_round_trips_through_json() {
            let plan = FaultPlan {
                seed: 9,
                failed_nodes: vec![1],
                corrupt_pairs: vec![CorruptPair {
                    from_gpu: 0,
                    to_gpu: 9,
                    kind: "outlier".into(),
                }],
                measurement_failure_rate: 0.05,
                ..FaultPlan::default()
            };
            let json = fault_plan_json(&plan);
            let back = parse_fault_plan_strict(&json).unwrap();
            assert_eq!(back, plan);
            // Every field, with floats that only survive a shortest
            // round-trip rendering bit for bit.
            let full = FaultPlan {
                seed: (1 << 53) - 1,
                degraded_links: vec![DegradedLink {
                    from_node: 0,
                    to_node: 1,
                    factor: 0.1 + 0.2,
                }],
                straggler_gpus: vec![StragglerGpu {
                    gpu: 3,
                    slowdown: 1.0 / 3.0,
                }],
                failed_gpus: vec![5, 6],
                failed_nodes: vec![2],
                corrupt_pairs: vec![CorruptPair {
                    from_gpu: 1,
                    to_gpu: 2,
                    kind: "nan \"quoted\"".into(),
                }],
                measurement_failure_rate: 1e-7,
                sample_loss_rate: 1.0,
                drift: Some(DriftEpisode {
                    day: 6,
                    daily_sigma: 0.07,
                    reversion: 0.5,
                }),
            };
            let back = parse_fault_plan_strict(&fault_plan_json(&full)).unwrap();
            assert_eq!(back, full);
            // Sparse plans parse with defaults filled in.
            let sparse = parse_fault_plan_strict(r#"{"failed_nodes":[0]}"#).unwrap();
            assert_eq!(sparse.failed_nodes, vec![0]);
            assert_eq!(sparse.measurement_failure_rate, 0.0);
        }
    }
}

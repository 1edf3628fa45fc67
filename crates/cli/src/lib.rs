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

pub use jsonwrite::{cli_report_json, drill_report_json};
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

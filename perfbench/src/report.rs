//! What a workload run produced, and the result line the benchmark prints.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `s` or `count`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Closed-loop clients.
    pub clients: usize,
    /// Set-up seconds (median over the set-up repetitions).
    pub setup_s: f64,
    /// Wall seconds per timed operation, send to result (for `serve_mix`,
    /// the operations of complete blocks).
    pub op_s: Vec<f64>,
    /// Operations completed in the timed region.
    pub completed: usize,
    /// Wall seconds of the whole timed region.
    pub timed_wall_s: f64,
    /// Simulated iteration seconds of each recommendation the metric
    /// covers.
    pub sim_iter_s: Vec<f64>,
    /// |estimated − simulated| / simulated of the same recommendations.
    pub estimate_err: Vec<f64>,
    /// Operations attempted (timed ones, or decomposed ones when traced).
    pub attempted: u64,
    /// Operations that failed: an error, a shed or null result, a
    /// simulator OOM, or a failed check.
    pub failed: u64,
    /// Every failed check, in the order found.
    pub problems: Vec<String>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
}

impl Outcome {
    /// Records a failed check.
    pub fn problem(&mut self, message: impl Into<String>) {
        self.problems.push(message.into());
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(message());
        }
    }

    /// Whether every operation succeeded and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics, each
/// value printed with every digit (`f64` `Display` round-trips exactly).
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{"#
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            r#""{}": {{"value": {:?}, "unit": "{}"}}"#,
            m.name, value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_the_contract_shape() {
        let line = result_line(
            true,
            3,
            0,
            &[
                Metric::new("op_s.p50", 1.25, "s"),
                Metric::new("peak_rss_mb", 40.0, "MiB"),
            ],
        );
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"op_s.p50": {"value": 1.25, "unit": "s"}, "peak_rss_mb": {"value": 40.0, "unit": "MiB"}}}"#
        );
    }
}

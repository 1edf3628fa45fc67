//! End-to-end and per-layer benchmark of the Pipette configurator.
//!
//! Three workloads drive the configurator in-process through its public
//! entry points: `cold_configure`, `warm_configure` and `serve_mix` (see
//! `README.md` for what each measures and why). An untraced run reports
//! the end-to-end metrics; a traced run rebuilds a few operations from
//! each layer's public function, with a span around every call, and
//! reports per-layer metrics.

pub mod configure;
pub mod decompose;
pub mod host;
pub mod inputs;
pub mod layers;
pub mod report;
pub mod serve_mix;
pub mod spans;
pub mod stats;

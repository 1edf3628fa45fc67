//! The JSON job specification the CLI consumes.
//!
//! ```json
//! {
//!   "cluster": { "preset": "mid-range", "nodes": 8, "seed": 42 },
//!   "model":   { "preset": "gpt-1.1b" },
//!   "global_batch": 256,
//!   "max_micro": 8,
//!   "worker_dedication": true,
//!   "sa_iterations": 30000,
//!   "seed": 7
//! }
//! ```
//!
//! `model` may instead spell out hyperparameters:
//! `{ "layers": 24, "hidden": 1920, "heads": 24, "seq_len": 2048,
//!    "vocab": 51200 }`.
//!
//! [`JobSpec::parse_strict`] and [`parse_fault_plan_strict`] parse the
//! text once with the shared `pipette_obs::json` parser, then decode the
//! tree in one typed pass: unknown and missing fields, value types and
//! defaults, then range checks. `pipette serve` runs the same decoders on
//! the `job` and `faults` members of a request it has already parsed.

use pipette_cluster::{
    presets, Cluster, CorruptPair, DegradedLink, DriftEpisode, FaultPlan, StragglerGpu,
    TemporalDrift,
};
use pipette_model::GptConfig;
use pipette_obs::json::{self, JsonValue};
use std::fmt;

/// Which synthetic cluster to build.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// `"mid-range"` (V100/EDR) or `"high-end"` (A100/HDR).
    pub preset: String,
    /// Number of 8-GPU nodes.
    pub nodes: usize,
    /// Seed realizing the heterogeneous bandwidth matrix.
    pub seed: u64,
}

/// The model to train: a named preset or explicit hyperparameters.
#[derive(Debug, Clone)]
pub enum ModelSpec {
    /// A named preset, e.g. `{"preset": "gpt-3.1b"}`.
    Preset {
        /// One of `gpt-1.1b`, `gpt-3.1b`, `gpt-8.1b`, `gpt-11.1b`.
        preset: String,
    },
    /// Explicit hyperparameters.
    Custom {
        /// Transformer layers.
        layers: usize,
        /// Hidden dimension.
        hidden: usize,
        /// Attention heads.
        heads: usize,
        /// Sequence length (default 2048).
        seq_len: usize,
        /// Vocabulary size (default 51200).
        vocab: usize,
    },
}

fn default_seq() -> usize {
    2048
}

fn default_vocab() -> usize {
    51200
}

/// The full job specification.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Cluster to configure for.
    pub cluster: ClusterSpec,
    /// Model to train.
    pub model: ModelSpec,
    /// Samples per optimizer step.
    pub global_batch: u64,
    /// Largest microbatch considered (default 8).
    pub max_micro: u64,
    /// Enable fine-grained worker dedication (default true).
    pub worker_dedication: bool,
    /// Simulated-annealing iterations per candidate (default 30000).
    pub sa_iterations: usize,
    /// Search seed (default 0).
    pub seed: u64,
    /// Parallel-tempering replicas per SA pass (default 1 = classic
    /// single chain). More replicas search a temperature ladder with
    /// deterministic state exchange; results stay machine-independent
    /// because this is an explicit choice, never derived from core count.
    pub replicas: usize,
    /// Iterations between tempering exchange rounds (default 512;
    /// ignored when `replicas` is 1).
    pub exchange_interval: usize,
    /// Memory-estimator training iterations (default 12000; lower for
    /// quick runs).
    pub memory_training_iterations: usize,
    /// Directory for the on-disk trained-estimator cache. When set,
    /// repeated `configure` runs with identical training inputs reload
    /// the estimator (bit-exact) instead of retraining.
    pub estimator_cache_dir: Option<String>,
}

fn default_mem_iterations() -> usize {
    12_000
}

fn default_micro() -> u64 {
    8
}

fn default_true() -> bool {
    true
}

fn default_sa() -> usize {
    30_000
}

fn default_replicas() -> usize {
    1
}

fn default_exchange_interval() -> usize {
    512
}

/// Errors turning a spec into concrete objects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// Unknown cluster preset name.
    UnknownCluster(String),
    /// Unknown model preset name.
    UnknownModel(String),
    /// A field the spec schema does not define (usually a typo).
    UnknownField {
        /// Where the field appeared, e.g. `"cluster"`.
        context: String,
        /// The offending key.
        field: String,
        /// The keys that are accepted there.
        allowed: &'static str,
    },
    /// A required field is absent.
    MissingField {
        /// Where the field was expected.
        context: String,
        /// The missing key.
        field: &'static str,
    },
    /// A field's value has the wrong type or is outside the supported
    /// range.
    OutOfRange {
        /// The offending field.
        field: String,
        /// What the value must satisfy.
        reason: String,
    },
    /// The document is not valid JSON (or not an object).
    Malformed(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownCluster(name) => {
                write!(f, "unknown cluster preset {name:?} (try \"mid-range\" or \"high-end\")")
            }
            SpecError::UnknownModel(name) => write!(
                f,
                "unknown model preset {name:?} (try \"gpt-1.1b\", \"gpt-3.1b\", \"gpt-8.1b\", \"gpt-11.1b\")"
            ),
            SpecError::UnknownField {
                context,
                field,
                allowed,
            } => write!(
                f,
                "unknown field {field:?} in {context} (accepted fields: {allowed})"
            ),
            SpecError::MissingField { context, field } => {
                write!(f, "{context} is missing required field {field:?}")
            }
            SpecError::OutOfRange { field, reason } => {
                write!(f, "invalid {field}: {reason}")
            }
            SpecError::Malformed(reason) => write!(f, "malformed spec: {reason}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<json::JsonError> for SpecError {
    fn from(e: json::JsonError) -> Self {
        SpecError::Malformed(e.to_string())
    }
}

/// The keys one object of the schema accepts, and how errors list them.
struct Shape {
    keys: &'static [&'static str],
    listed: &'static str,
}

/// A [`Shape`] whose error listing is its keys, comma-separated.
macro_rules! shape {
    ($first:literal $(, $rest:literal)*) => {
        Shape {
            keys: &[$first $(, $rest)*],
            listed: concat!($first $(, ", ", $rest)*),
        }
    };
}

const JOB_SPEC: Shape = shape!(
    "cluster",
    "model",
    "global_batch",
    "max_micro",
    "worker_dedication",
    "sa_iterations",
    "seed",
    "replicas",
    "exchange_interval",
    "memory_training_iterations",
    "estimator_cache_dir"
);
const CLUSTER: Shape = shape!("preset", "nodes", "seed");
const MODEL_FIELDS: &str = "preset — or layers, hidden, heads, seq_len, vocab";
const MODEL_PRESET: Shape = Shape {
    keys: &["preset"],
    listed: MODEL_FIELDS,
};
const MODEL_CUSTOM: Shape = Shape {
    keys: &["layers", "hidden", "heads", "seq_len", "vocab"],
    listed: MODEL_FIELDS,
};
const FAULT_PLAN: Shape = shape!(
    "seed",
    "degraded_links",
    "straggler_gpus",
    "failed_gpus",
    "failed_nodes",
    "corrupt_pairs",
    "measurement_failure_rate",
    "sample_loss_rate",
    "drift"
);
const DRIFT: Shape = shape!("day", "daily_sigma", "reversion");
const DEGRADED_LINK: Shape = shape!("from_node", "to_node", "factor");
const STRAGGLER_GPU: Shape = shape!("gpu", "slowdown");
const CORRUPT_PAIR: Shape = shape!("from_gpu", "to_gpu", "kind");

/// A value type a spec field holds, and how it reads from JSON.
trait Decode: Sized {
    /// What the JSON value must be, for error messages.
    const EXPECTED: &'static str;
    fn decode(value: &JsonValue) -> Option<Self>;
}

impl Decode for u64 {
    const EXPECTED: &'static str = "an integer in 0..=2^53";
    fn decode(value: &JsonValue) -> Option<Self> {
        value.as_u64()
    }
}

impl Decode for usize {
    const EXPECTED: &'static str = u64::EXPECTED;
    fn decode(value: &JsonValue) -> Option<Self> {
        value.as_u64().and_then(|n| usize::try_from(n).ok())
    }
}

impl Decode for f64 {
    const EXPECTED: &'static str = "a number";
    fn decode(value: &JsonValue) -> Option<Self> {
        value.as_f64()
    }
}

impl Decode for bool {
    const EXPECTED: &'static str = "a boolean";
    fn decode(value: &JsonValue) -> Option<Self> {
        value.as_bool()
    }
}

impl Decode for String {
    const EXPECTED: &'static str = "a string";
    fn decode(value: &JsonValue) -> Option<Self> {
        value.as_str().map(str::to_owned)
    }
}

impl Decode for Vec<usize> {
    const EXPECTED: &'static str = "an array of integers in 0..=2^53";
    fn decode(value: &JsonValue) -> Option<Self> {
        value.as_array()?.iter().map(usize::decode).collect()
    }
}

/// `null` reads as `None`.
impl<T: Decode> Decode for Option<T> {
    const EXPECTED: &'static str = T::EXPECTED;
    fn decode(value: &JsonValue) -> Option<Self> {
        match value {
            JsonValue::Null => Some(None),
            other => T::decode(other).map(Some),
        }
    }
}

/// One object of a spec, decoded member by member. Construction rejects
/// a non-object and any key outside its [`Shape`]; the accessors then
/// report missing and mistyped members by their full path.
struct Fields<'a> {
    /// How errors name the object: `"job spec"`, `"cluster"`,
    /// `"degraded_links[0]"`.
    context: String,
    /// What member names are prefixed with in errors (empty at the top).
    prefix: String,
    members: &'a [(String, JsonValue)],
}

impl<'a> Fields<'a> {
    fn of(
        value: &'a JsonValue,
        context: String,
        prefix: String,
        shape: &Shape,
    ) -> Result<Self, SpecError> {
        let JsonValue::Object(members) = value else {
            return Err(SpecError::Malformed(format!(
                "{context} must be an object, got {}",
                value.type_name()
            )));
        };
        if let Some((key, _)) = members
            .iter()
            .find(|(k, _)| !shape.keys.contains(&k.as_str()))
        {
            return Err(SpecError::UnknownField {
                context,
                field: key.clone(),
                allowed: shape.listed,
            });
        }
        Ok(Self {
            context,
            prefix,
            members,
        })
    }

    fn get(&self, key: &str) -> Option<&'a JsonValue> {
        self.members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn mistyped(&self, key: &str, expected: &str, got: &JsonValue) -> SpecError {
        let got = match got {
            JsonValue::Number(n) => n.to_string(),
            other => other.type_name().to_owned(),
        };
        SpecError::OutOfRange {
            field: format!("{}{key}", self.prefix),
            reason: format!("must be {expected}, got {got}"),
        }
    }

    /// An optional member; `None` when absent.
    fn opt<T: Decode>(&self, key: &str) -> Result<Option<T>, SpecError> {
        self.get(key)
            .map(|v| T::decode(v).ok_or_else(|| self.mistyped(key, T::EXPECTED, v)))
            .transpose()
    }

    fn missing(&self, key: &'static str) -> SpecError {
        SpecError::MissingField {
            context: self.context.clone(),
            field: key,
        }
    }

    /// A required member.
    fn req<T: Decode>(&self, key: &'static str) -> Result<T, SpecError> {
        self.opt(key)?.ok_or_else(|| self.missing(key))
    }

    /// The required object member `key`.
    fn nested(&self, key: &'static str, shape: &Shape) -> Result<Fields<'a>, SpecError> {
        let value = self.get(key).ok_or_else(|| self.missing(key))?;
        let path = format!("{}{key}", self.prefix);
        Fields::of(value, path.clone(), path + ".", shape)
    }

    /// The array member `key` (empty when absent), each item an object
    /// decoded by `item`.
    fn list<T>(
        &self,
        key: &str,
        shape: &Shape,
        item: impl Fn(&Fields<'a>) -> Result<T, SpecError>,
    ) -> Result<Vec<T>, SpecError> {
        let items = match self.get(key) {
            None => return Ok(Vec::new()),
            Some(JsonValue::Array(items)) => items,
            Some(other) => return Err(self.mistyped(key, "an array", other)),
        };
        items
            .iter()
            .enumerate()
            .map(|(i, value)| {
                let path = format!("{}{key}[{i}]", self.prefix);
                item(&Fields::of(value, path.clone(), path + ".", shape)?)
            })
            .collect()
    }
}

impl JobSpec {
    /// Parses a job spec strictly: valid JSON only, no unknown fields
    /// anywhere, all required fields present, every value of the right
    /// type and in range, so a typo like `"global_bacth"` fails with an
    /// actionable message instead of silently running with a default.
    ///
    /// # Errors
    ///
    /// [`SpecError::Malformed`], [`SpecError::UnknownField`],
    /// [`SpecError::MissingField`], or [`SpecError::OutOfRange`] naming
    /// the first problem.
    pub fn parse_strict(text: &str) -> Result<Self, SpecError> {
        Self::from_json(&json::parse(text)?)
    }

    /// The strict decoding of [`Self::parse_strict`], applied to a
    /// document that is already parsed.
    pub(crate) fn from_json(doc: &JsonValue) -> Result<Self, SpecError> {
        let top = Fields::of(doc, "job spec".into(), String::new(), &JOB_SPEC)?;
        let c = top.nested("cluster", &CLUSTER)?;
        let cluster = ClusterSpec {
            preset: c.req("preset")?,
            nodes: c.req("nodes")?,
            seed: c.opt("seed")?.unwrap_or_default(),
        };
        // Untagged: a `preset` key selects the preset form.
        let model = if doc.get("model").and_then(|m| m.get("preset")).is_some() {
            ModelSpec::Preset {
                preset: top.nested("model", &MODEL_PRESET)?.req("preset")?,
            }
        } else {
            let m = top.nested("model", &MODEL_CUSTOM)?;
            ModelSpec::Custom {
                layers: m.req("layers")?,
                hidden: m.req("hidden")?,
                heads: m.req("heads")?,
                seq_len: m.opt("seq_len")?.unwrap_or_else(default_seq),
                vocab: m.opt("vocab")?.unwrap_or_else(default_vocab),
            }
        };
        let spec = JobSpec {
            cluster,
            model,
            global_batch: top.req("global_batch")?,
            max_micro: top.opt("max_micro")?.unwrap_or_else(default_micro),
            worker_dedication: top.opt("worker_dedication")?.unwrap_or_else(default_true),
            sa_iterations: top.opt("sa_iterations")?.unwrap_or_else(default_sa),
            seed: top.opt("seed")?.unwrap_or_default(),
            replicas: top.opt("replicas")?.unwrap_or_else(default_replicas),
            exchange_interval: top
                .opt("exchange_interval")?
                .unwrap_or_else(default_exchange_interval),
            memory_training_iterations: top
                .opt("memory_training_iterations")?
                .unwrap_or_else(default_mem_iterations),
            estimator_cache_dir: top.opt("estimator_cache_dir")?.flatten(),
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Range-checks a spec's values (called by [`Self::parse_strict`];
    /// also usable on programmatically built specs).
    ///
    /// # Errors
    ///
    /// [`SpecError::OutOfRange`] naming the first offending field.
    pub fn validate(&self) -> Result<(), SpecError> {
        let range_err = |field: &str, reason: String| {
            Err(SpecError::OutOfRange {
                field: field.to_owned(),
                reason,
            })
        };
        if !(1..=64).contains(&self.cluster.nodes) {
            return range_err(
                "cluster.nodes",
                format!("{} not in 1..=64", self.cluster.nodes),
            );
        }
        if self.global_batch == 0 {
            return range_err("global_batch", "must be at least 1".into());
        }
        if self.max_micro == 0 {
            return range_err("max_micro", "must be at least 1".into());
        }
        if self.sa_iterations == 0 {
            return range_err("sa_iterations", "must be at least 1".into());
        }
        if self.memory_training_iterations == 0 {
            return range_err("memory_training_iterations", "must be at least 1".into());
        }
        if !(1..=64).contains(&self.replicas) {
            return range_err(
                "replicas",
                format!(
                    "{} not in 1..=64 (1 = single chain; a few chains per core is the useful range)",
                    self.replicas
                ),
            );
        }
        if self.exchange_interval == 0 {
            return range_err(
                "exchange_interval",
                "must be at least 1 (iterations between tempering exchange rounds)".into(),
            );
        }
        if let ModelSpec::Custom {
            layers,
            hidden,
            heads,
            seq_len,
            vocab,
        } = &self.model
        {
            for (name, value) in [
                ("model.layers", *layers),
                ("model.hidden", *hidden),
                ("model.heads", *heads),
                ("model.seq_len", *seq_len),
                ("model.vocab", *vocab),
            ] {
                if value == 0 {
                    return range_err(name, "must be at least 1".into());
                }
            }
            if hidden % heads != 0 {
                return range_err(
                    "model.hidden",
                    format!("{hidden} not divisible by {heads} heads"),
                );
            }
        }
        Ok(())
    }

    /// Realizes the cluster.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownCluster`] for unrecognized preset names.
    pub fn build_cluster(&self) -> Result<Cluster, SpecError> {
        let preset = match self.cluster.preset.as_str() {
            "mid-range" | "mid_range" | "midrange" => presets::mid_range(self.cluster.nodes),
            "high-end" | "high_end" | "highend" => presets::high_end(self.cluster.nodes),
            other => return Err(SpecError::UnknownCluster(other.to_owned())),
        };
        Ok(preset.build(self.cluster.seed))
    }

    /// Realizes the model.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownModel`] for unrecognized preset names.
    pub fn build_model(&self) -> Result<GptConfig, SpecError> {
        match &self.model {
            ModelSpec::Preset { preset } => match preset.as_str() {
                "gpt-1.1b" => Ok(GptConfig::gpt_1_1b()),
                "gpt-3.1b" => Ok(GptConfig::gpt_3_1b()),
                "gpt-8.1b" => Ok(GptConfig::gpt_8_1b()),
                "gpt-11.1b" => Ok(GptConfig::gpt_11_1b()),
                other => Err(SpecError::UnknownModel(other.to_owned())),
            },
            ModelSpec::Custom {
                layers,
                hidden,
                heads,
                seq_len,
                vocab,
            } => Ok(GptConfig::new(*layers, *hidden, *heads, *seq_len, *vocab)),
        }
    }
}

/// Parses a [`FaultPlan`] strictly: no unknown fields at any level and
/// every value of the right type. The plan's *semantic* validity (GPU
/// indices in range, rates in `[0, 1]`) is checked against the actual
/// topology by `FaultPlan::validate` when the drill runs.
///
/// # Errors
///
/// [`SpecError::Malformed`], [`SpecError::UnknownField`] or
/// [`SpecError::MissingField`].
pub fn parse_fault_plan_strict(text: &str) -> Result<FaultPlan, SpecError> {
    fault_plan_from_json(&json::parse(text)?)
}

/// The strict decoding of [`parse_fault_plan_strict`], applied to a
/// document that is already parsed.
pub(crate) fn fault_plan_from_json(doc: &JsonValue) -> Result<FaultPlan, SpecError> {
    let plan = Fields::of(doc, "fault plan".into(), String::new(), &FAULT_PLAN)?;
    let drift = match plan.get("drift") {
        None | Some(JsonValue::Null) => None,
        Some(_) => {
            let d = plan.nested("drift", &DRIFT)?;
            let walk = TemporalDrift::default();
            Some(DriftEpisode {
                day: d.req("day")?,
                daily_sigma: d.opt("daily_sigma")?.unwrap_or(walk.daily_sigma),
                reversion: d.opt("reversion")?.unwrap_or(walk.reversion),
            })
        }
    };
    Ok(FaultPlan {
        seed: plan.opt("seed")?.unwrap_or_default(),
        degraded_links: plan.list("degraded_links", &DEGRADED_LINK, |l| {
            Ok(DegradedLink {
                from_node: l.req("from_node")?,
                to_node: l.req("to_node")?,
                factor: l.req("factor")?,
            })
        })?,
        straggler_gpus: plan.list("straggler_gpus", &STRAGGLER_GPU, |g| {
            Ok(StragglerGpu {
                gpu: g.req("gpu")?,
                slowdown: g.req("slowdown")?,
            })
        })?,
        failed_gpus: plan.opt("failed_gpus")?.unwrap_or_default(),
        failed_nodes: plan.opt("failed_nodes")?.unwrap_or_default(),
        corrupt_pairs: plan.list("corrupt_pairs", &CORRUPT_PAIR, |p| {
            Ok(CorruptPair {
                from_gpu: p.req("from_gpu")?,
                to_gpu: p.req("to_gpu")?,
                kind: p.req("kind")?,
            })
        })?,
        measurement_failure_rate: plan.opt("measurement_failure_rate")?.unwrap_or_default(),
        sample_loss_rate: plan.opt("sample_loss_rate")?.unwrap_or_default(),
        drift,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_spec() {
        let json = r#"{
            "cluster": {"preset": "mid-range", "nodes": 4},
            "model": {"preset": "gpt-1.1b"},
            "global_batch": 256
        }"#;
        let spec = JobSpec::parse_strict(json).unwrap();
        assert_eq!(spec.max_micro, 8);
        assert!(spec.worker_dedication);
        assert_eq!(spec.sa_iterations, 30_000);
        let cluster = spec.build_cluster().unwrap();
        assert_eq!(cluster.topology().num_gpus(), 32);
        let model = spec.build_model().unwrap();
        assert_eq!(model.n_layers, 24);
    }

    #[test]
    fn parses_custom_model() {
        let json = r#"{
            "cluster": {"preset": "high-end", "nodes": 2, "seed": 9},
            "model": {"layers": 12, "hidden": 768, "heads": 12},
            "global_batch": 64,
            "worker_dedication": false
        }"#;
        let spec = JobSpec::parse_strict(json).unwrap();
        let model = spec.build_model().unwrap();
        assert_eq!(model.hidden, 768);
        assert_eq!(model.seq_len, 2048);
        assert!(!spec.worker_dedication);
    }

    #[test]
    fn unknown_presets_are_reported() {
        let json = r#"{
            "cluster": {"preset": "quantum", "nodes": 4},
            "model": {"preset": "gpt-9000b"},
            "global_batch": 256
        }"#;
        let spec = JobSpec::parse_strict(json).unwrap();
        assert!(matches!(
            spec.build_cluster(),
            Err(SpecError::UnknownCluster(_))
        ));
        assert!(matches!(
            spec.build_model(),
            Err(SpecError::UnknownModel(_))
        ));
    }

    #[test]
    fn strict_parse_accepts_valid_specs() {
        let json = r#"{
            "cluster": {"preset": "mid-range", "nodes": 4},
            "model": {"layers": 12, "hidden": 768, "heads": 12},
            "global_batch": 256,
            "seed": 3
        }"#;
        let spec = JobSpec::parse_strict(json).unwrap();
        assert_eq!(spec.global_batch, 256);
        assert_eq!(spec.max_micro, 8, "defaults still fill in");
        assert_eq!(spec.seed, 3);
        assert!(matches!(
            spec.model,
            ModelSpec::Custom {
                seq_len: 2048,
                vocab: 51200,
                ..
            }
        ));
    }

    #[test]
    fn strict_parse_rejects_unknown_fields() {
        let top = r#"{
            "cluster": {"preset": "mid-range", "nodes": 4},
            "model": {"preset": "gpt-1.1b"},
            "global_batch": 256,
            "global_bacth": 512
        }"#;
        let err = JobSpec::parse_strict(top).unwrap_err();
        assert!(matches!(err, SpecError::UnknownField { .. }));
        assert!(err.to_string().contains("global_bacth"));
        assert!(err.to_string().contains("global_batch"));

        let nested = r#"{
            "cluster": {"preset": "mid-range", "nodes": 4, "gpus": 8},
            "model": {"preset": "gpt-1.1b"},
            "global_batch": 256
        }"#;
        let err = JobSpec::parse_strict(nested).unwrap_err();
        assert!(err.to_string().contains("gpus") && err.to_string().contains("cluster"));

        let model = r#"{
            "cluster": {"preset": "mid-range", "nodes": 4},
            "model": {"preset": "gpt-1.1b", "layers": 24},
            "global_batch": 256
        }"#;
        assert!(JobSpec::parse_strict(model).is_err());
    }

    #[test]
    fn strict_parse_reports_missing_and_out_of_range_fields() {
        let missing = r#"{
            "cluster": {"preset": "mid-range"},
            "model": {"preset": "gpt-1.1b"},
            "global_batch": 256
        }"#;
        let err = JobSpec::parse_strict(missing).unwrap_err();
        assert!(matches!(
            err,
            SpecError::MissingField { field: "nodes", .. }
        ));

        for (json, needle) in [
            (
                r#"{"cluster": {"preset": "mid-range", "nodes": 0},
                    "model": {"preset": "gpt-1.1b"}, "global_batch": 256}"#,
                "cluster.nodes",
            ),
            (
                r#"{"cluster": {"preset": "mid-range", "nodes": 4},
                    "model": {"preset": "gpt-1.1b"}, "global_batch": 0}"#,
                "global_batch",
            ),
            (
                r#"{"cluster": {"preset": "mid-range", "nodes": 4},
                    "model": {"layers": 12, "hidden": 770, "heads": 12},
                    "global_batch": 256}"#,
                "not divisible",
            ),
            // Wrong-typed values name their field.
            (
                r#"{"cluster": {"preset": "mid-range", "nodes": 4},
                    "model": {"preset": "gpt-1.1b"}, "global_batch": "x"}"#,
                "invalid global_batch: must be an integer in 0..=2^53, got string",
            ),
            (
                r#"{"cluster": {"preset": "mid-range", "nodes": -1},
                    "model": {"preset": "gpt-1.1b"}, "global_batch": 256}"#,
                "invalid cluster.nodes: must be an integer in 0..=2^53, got -1",
            ),
            (
                r#"{"cluster": {"preset": 7, "nodes": 4},
                    "model": {"preset": "gpt-1.1b"}, "global_batch": 256}"#,
                "invalid cluster.preset: must be a string, got 7",
            ),
            (
                r#"{"cluster": {"preset": "mid-range", "nodes": 4},
                    "model": {"layers": 1.5, "hidden": 768, "heads": 12},
                    "global_batch": 256}"#,
                "invalid model.layers: must be an integer in 0..=2^53, got 1.5",
            ),
            (
                r#"{"cluster": {"preset": "mid-range", "nodes": 4},
                    "model": {"preset": "gpt-1.1b"}, "global_batch": 256,
                    "worker_dedication": "yes"}"#,
                "invalid worker_dedication: must be a boolean, got string",
            ),
            (
                r#"{"cluster": {"preset": "mid-range", "nodes": 4},
                    "model": {"preset": "gpt-1.1b"}, "global_batch": 256,
                    "seed": 1e17}"#,
                "invalid seed: must be an integer in 0..=2^53",
            ),
            (
                r#"{"cluster": {"preset": "mid-range", "nodes": 4},
                    "model": {"preset": "gpt-1.1b"}, "global_batch": 256,
                    "estimator_cache_dir": 5}"#,
                "invalid estimator_cache_dir: must be a string, got 5",
            ),
        ] {
            let err = JobSpec::parse_strict(json).unwrap_err();
            assert!(matches!(err, SpecError::OutOfRange { .. }), "{json}");
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn strict_parse_rejects_non_json() {
        assert!(matches!(
            JobSpec::parse_strict("{ not json").unwrap_err(),
            SpecError::Malformed(_)
        ));
        assert!(matches!(
            JobSpec::parse_strict("[1, 2]").unwrap_err(),
            SpecError::Malformed(_)
        ));
    }

    #[test]
    fn fault_plans_parse_strictly() {
        let plan = parse_fault_plan_strict(
            r#"{"seed": 9, "failed_nodes": [1],
                "straggler_gpus": [{"gpu": 2, "slowdown": 1.5}],
                "measurement_failure_rate": 0.1}"#,
        )
        .unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.failed_nodes, vec![1]);

        let err = parse_fault_plan_strict(r#"{"failed_node": [1]}"#).unwrap_err();
        assert!(err.to_string().contains("failed_node"));
        let err = parse_fault_plan_strict(r#"{"straggler_gpus": [{"gpu": 2, "slow": 1.5}]}"#)
            .unwrap_err();
        assert!(err.to_string().contains("slow"));
        for (bad, needle) in [
            (r#"{"failed_gpus": [1, "x"]}"#, "invalid failed_gpus"),
            (
                r#"{"straggler_gpus": [{"gpu": 2, "slowdown": "fast"}]}"#,
                "invalid straggler_gpus[0].slowdown: must be a number",
            ),
            (r#"{"drift": {"day": -3}}"#, "invalid drift.day"),
            (
                r#"{"corrupt_pairs": {}}"#,
                "invalid corrupt_pairs: must be an array",
            ),
        ] {
            let err = parse_fault_plan_strict(bad).unwrap_err();
            assert!(err.to_string().contains(needle), "{bad}: {err}");
        }
        let plan = parse_fault_plan_strict(r#"{"drift": {"day": 2}}"#).unwrap();
        let drift = plan.drift.expect("drift episode");
        assert_eq!(
            (drift.day, drift.daily_sigma, drift.reversion),
            (2, 0.03, 0.25)
        );
        assert!(parse_fault_plan_strict(r#"{"drift": null}"#)
            .unwrap()
            .drift
            .is_none());
        assert!(parse_fault_plan_strict("{}").is_ok(), "zero-fault plan");
        // Sparse plans fill every absent field with its zero-fault default.
        assert_eq!(
            parse_fault_plan_strict(r#"{"failed_nodes": [0]}"#).unwrap(),
            FaultPlan {
                failed_nodes: vec![0],
                ..FaultPlan::default()
            }
        );

        // Every field decodes to the plan it spells out.
        let full = FaultPlan {
            seed: 4,
            degraded_links: vec![DegradedLink {
                from_node: 0,
                to_node: 1,
                factor: 0.5,
            }],
            straggler_gpus: vec![StragglerGpu {
                gpu: 3,
                slowdown: 2.25,
            }],
            failed_gpus: vec![5, 6],
            failed_nodes: vec![2],
            corrupt_pairs: vec![CorruptPair {
                from_gpu: 1,
                to_gpu: 2,
                kind: "nan".into(),
            }],
            measurement_failure_rate: 0.125,
            sample_loss_rate: 0.5,
            drift: Some(DriftEpisode {
                day: 6,
                daily_sigma: 0.07,
                reversion: 0.5,
            }),
        };
        let text = r#"{"seed": 4,
            "degraded_links": [{"from_node": 0, "to_node": 1, "factor": 0.5}],
            "straggler_gpus": [{"gpu": 3, "slowdown": 2.25}],
            "failed_gpus": [5, 6], "failed_nodes": [2],
            "corrupt_pairs": [{"from_gpu": 1, "to_gpu": 2, "kind": "nan"}],
            "measurement_failure_rate": 0.125, "sample_loss_rate": 0.5,
            "drift": {"day": 6, "daily_sigma": 0.07, "reversion": 0.5}}"#;
        assert_eq!(parse_fault_plan_strict(text).unwrap(), full);
    }

    #[test]
    fn strict_parse_reads_every_field() {
        let spec = JobSpec::parse_strict(
            r#"{"cluster": {"preset": "mid-range", "nodes": 8, "seed": 1},
                "model": {"preset": "gpt-3.1b"},
                "global_batch": 512, "max_micro": 4, "worker_dedication": false,
                "sa_iterations": 10000, "seed": 5, "replicas": 4,
                "exchange_interval": 256, "memory_training_iterations": 1200,
                "estimator_cache_dir": "cache"}"#,
        )
        .unwrap();
        assert_eq!(
            (
                spec.cluster.preset.as_str(),
                spec.cluster.nodes,
                spec.cluster.seed
            ),
            ("mid-range", 8, 1)
        );
        assert!(matches!(&spec.model, ModelSpec::Preset { preset } if preset == "gpt-3.1b"));
        assert_eq!((spec.global_batch, spec.max_micro), (512, 4));
        assert!(!spec.worker_dedication);
        assert_eq!((spec.sa_iterations, spec.seed), (10_000, 5));
        assert_eq!((spec.replicas, spec.exchange_interval), (4, 256));
        assert_eq!(spec.memory_training_iterations, 1200);
        assert_eq!(spec.estimator_cache_dir.as_deref(), Some("cache"));
    }

    #[test]
    fn tempering_fields_parse_with_defaults_and_range_checks() {
        let defaulted = JobSpec::parse_strict(
            r#"{"cluster": {"preset": "mid-range", "nodes": 4},
                "model": {"preset": "gpt-1.1b"}, "global_batch": 256}"#,
        )
        .unwrap();
        assert_eq!(defaulted.replicas, 1, "single chain is the default");
        assert_eq!(defaulted.exchange_interval, 512);

        let tempered = JobSpec::parse_strict(
            r#"{"cluster": {"preset": "mid-range", "nodes": 4},
                "model": {"preset": "gpt-1.1b"}, "global_batch": 256,
                "replicas": 4, "exchange_interval": 128}"#,
        )
        .unwrap();
        assert_eq!(tempered.replicas, 4);
        assert_eq!(tempered.exchange_interval, 128);

        for (json, needle) in [
            (
                r#"{"cluster": {"preset": "mid-range", "nodes": 4},
                    "model": {"preset": "gpt-1.1b"}, "global_batch": 256,
                    "replicas": 0}"#,
                "1..=64",
            ),
            (
                r#"{"cluster": {"preset": "mid-range", "nodes": 4},
                    "model": {"preset": "gpt-1.1b"}, "global_batch": 256,
                    "replicas": 65}"#,
                "1..=64",
            ),
            (
                r#"{"cluster": {"preset": "mid-range", "nodes": 4},
                    "model": {"preset": "gpt-1.1b"}, "global_batch": 256,
                    "exchange_interval": 0}"#,
                "exchange_interval",
            ),
        ] {
            let err = JobSpec::parse_strict(json).unwrap_err();
            assert!(matches!(err, SpecError::OutOfRange { .. }), "{json}");
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}

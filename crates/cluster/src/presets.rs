//! Cluster presets mirroring Table I of the paper, and the assembled
//! [`Cluster`] value the rest of the workspace consumes.

use crate::bandwidth::BandwidthMatrix;
use crate::error::ClusterError;
use crate::hardware::GpuSpec;
use crate::heterogeneity::HeterogeneityModel;
use crate::link::{gbps_to_gib_s, LinkSpec};
use crate::profiler::NetworkProfiler;
use crate::topology::{ClusterTopology, NodeId};
use pipette_obs::json::push_object;
use std::fmt;

/// A fully realized cluster: topology, hardware, and the ground-truth
/// attained bandwidth matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    name: String,
    gpu: GpuSpec,
    bandwidth: BandwidthMatrix,
    profiler: NetworkProfiler,
}

impl Cluster {
    /// Assembles a cluster from parts.
    pub fn new(
        name: impl Into<String>,
        gpu: GpuSpec,
        bandwidth: BandwidthMatrix,
        profiler: NetworkProfiler,
    ) -> Self {
        Self {
            name: name.into(),
            gpu,
            bandwidth,
            profiler,
        }
    }

    /// Human-readable cluster name, e.g. "mid-range".
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The GPU model installed on every node.
    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// The ground-truth attained bandwidth matrix.
    pub fn bandwidth(&self) -> &BandwidthMatrix {
        &self.bandwidth
    }

    /// The cluster topology.
    pub fn topology(&self) -> &ClusterTopology {
        self.bandwidth.topology()
    }

    /// The network profiler configured for this cluster.
    pub fn profiler(&self) -> NetworkProfiler {
        self.profiler
    }

    /// A copy of this cluster restricted to its first `nodes` nodes, used
    /// for memory-estimator sample collection (≤ 4 nodes) and scalability
    /// sweeps.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or exceeds the node count.
    pub fn truncated(&self, nodes: usize) -> Self {
        Self {
            name: format!("{} ({} nodes)", self.name, nodes),
            gpu: self.gpu.clone(),
            bandwidth: self.bandwidth.truncated(nodes),
            profiler: self.profiler,
        }
    }

    /// The cluster that remains after cordoning `failed` nodes: survivors
    /// are renumbered densely and keep their exact attained bandwidths.
    /// This is the subcluster a degraded configuration run targets.
    ///
    /// # Errors
    ///
    /// [`ClusterError::EmptySelection`] if every node is failed,
    /// [`ClusterError::InvalidParameter`] if `failed` references a node
    /// outside the topology.
    pub fn excluding_nodes(&self, failed: &[NodeId]) -> Result<Self, ClusterError> {
        let topo = self.topology();
        if let Some(&bad) = failed.iter().find(|n| n.0 >= topo.num_nodes()) {
            return Err(ClusterError::InvalidParameter {
                name: "failed nodes".into(),
                reason: format!("node {bad} outside topology of {} nodes", topo.num_nodes()),
            });
        }
        let survivors: Vec<NodeId> = topo.node_ids().filter(|n| !failed.contains(n)).collect();
        let bandwidth = self.bandwidth.select_nodes(&survivors)?;
        Ok(Self {
            name: format!(
                "{} ({} of {} nodes)",
                self.name,
                survivors.len(),
                topo.num_nodes()
            ),
            gpu: self.gpu.clone(),
            bandwidth,
            profiler: self.profiler,
        })
    }
}

impl Cluster {
    /// Serializes the cluster (name, hardware, full attained matrix and
    /// profiler model) to one line of JSON — useful for pinning a drawn
    /// cluster or shipping a measured one. The matrix diagonal is written
    /// as `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        push_object(&mut out, |o| {
            o.string("name", &self.name);
            o.object("gpu", |g| {
                g.string("name", &self.gpu.name);
                g.float("peak_fp16_tflops", self.gpu.peak_fp16_tflops);
                g.float("attainable_mfu", self.gpu.attainable_mfu);
                g.uint("memory_bytes", self.gpu.memory_bytes);
            });
            o.raw("bandwidth", &self.bandwidth.to_json());
            o.object("profiler", |p| {
                p.float("noise_sigma", self.profiler.noise_sigma);
                p.float("base_seconds", self.profiler.base_seconds);
                p.float("per_pair_seconds", self.profiler.per_pair_seconds);
            });
        });
        out
    }
}

impl fmt::Display for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{} | {}]", self.name, self.topology(), self.gpu)
    }
}

/// A parameterized cluster recipe (Table I row); `build(seed)` realizes the
/// heterogeneous attained-bandwidth matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterPreset {
    /// Cluster name.
    pub name: String,
    /// Topology shape.
    pub topology: ClusterTopology,
    /// GPU model.
    pub gpu: GpuSpec,
    /// Nominal intra-node link (NVLink / NVSwitch).
    pub intra: LinkSpec,
    /// Nominal inter-node link (InfiniBand).
    pub inter: LinkSpec,
    /// Heterogeneity statistics of the attained bandwidths.
    pub heterogeneity: HeterogeneityModel,
    /// Profiling noise/cost model.
    pub profiler: NetworkProfiler,
}

impl ClusterPreset {
    /// Realizes the preset into a concrete cluster. Deterministic in `seed`.
    pub fn build(&self, seed: u64) -> Cluster {
        let matrix = self
            .heterogeneity
            .generate(self.topology, self.intra, self.inter, seed);
        Cluster::new(self.name.clone(), self.gpu.clone(), matrix, self.profiler)
    }
}

/// The paper's mid-range cluster: `nodes` × 8 V100, NVLink 300 GB/s
/// intra-node, InfiniBand EDR (100 Gb/s) inter-node.
pub fn mid_range(nodes: usize) -> ClusterPreset {
    ClusterPreset {
        name: "mid-range".to_owned(),
        topology: ClusterTopology::new(nodes, 8),
        gpu: GpuSpec::v100(),
        intra: LinkSpec::new(300.0e9 / crate::link::GIB, 3e-6),
        inter: LinkSpec::new(gbps_to_gib_s(100.0), 6e-6),
        heterogeneity: HeterogeneityModel::realistic(),
        // Fitted to Table II: 58.13 s at 8 nodes, 119.62 s at 16 nodes.
        profiler: NetworkProfiler::new(0.01, 39.4, 0.335),
    }
}

/// The paper's high-end cluster: `nodes` × 8 A100, NVSwitch 600 GB/s
/// intra-node, InfiniBand HDR (200 Gb/s) inter-node.
pub fn high_end(nodes: usize) -> ClusterPreset {
    ClusterPreset {
        name: "high-end".to_owned(),
        topology: ClusterTopology::new(nodes, 8),
        gpu: GpuSpec::a100(),
        intra: LinkSpec::new(600.0e9 / crate::link::GIB, 2e-6),
        inter: LinkSpec::new(gbps_to_gib_s(200.0), 5e-6),
        heterogeneity: HeterogeneityModel::realistic(),
        // Fitted to Table II: 113.67 s at 8 nodes, 239.21 s at 16 nodes.
        profiler: NetworkProfiler::new(0.01, 75.5, 0.682),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::GpuId;

    #[test]
    fn presets_match_table_one() {
        let mid = mid_range(16);
        assert_eq!(mid.topology.num_gpus(), 128);
        assert_eq!(mid.gpu.name, "V100");
        // 100 Gb/s EDR ~ 11.64 GiB/s nominal.
        assert!((mid.inter.bandwidth_gib_s - 11.64).abs() < 0.01);

        let high = high_end(16);
        assert_eq!(high.gpu.name, "A100");
        assert!((high.inter.bandwidth_gib_s - 23.28).abs() < 0.01);
        assert!(high.intra.bandwidth_gib_s > mid.intra.bandwidth_gib_s);
    }

    #[test]
    fn build_is_deterministic() {
        let preset = mid_range(4);
        assert_eq!(preset.build(9), preset.build(9));
        assert_ne!(preset.build(9), preset.build(10));
    }

    #[test]
    fn truncated_cluster_shrinks() {
        let c = high_end(8).build(1);
        let t = c.truncated(2);
        assert_eq!(t.topology().num_nodes(), 2);
        assert_eq!(t.gpu(), c.gpu());
        assert!(t.name().contains("2 nodes"));
    }

    #[test]
    fn excluding_nodes_keeps_survivor_links() {
        let c = mid_range(4).build(3);
        let s = c.excluding_nodes(&[NodeId(1)]).expect("survivable");
        assert_eq!(s.topology().num_nodes(), 3);
        assert!(s.name().contains("3 of 4 nodes"));
        // Survivor links match the original: old node 2 is new node 1.
        let (old, new) = (c.bandwidth(), s.bandwidth());
        assert_eq!(
            new.between(new.topology().gpu(1, 0), new.topology().gpu(0, 0)),
            old.between(old.topology().gpu(2, 0), old.topology().gpu(0, 0)),
        );
        // Cordoning everything is an error; so is an unknown node.
        let all: Vec<NodeId> = c.topology().node_ids().collect();
        assert_eq!(c.excluding_nodes(&all), Err(ClusterError::EmptySelection));
        assert!(matches!(
            c.excluding_nodes(&[NodeId(99)]),
            Err(ClusterError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn display_mentions_name_and_gpu() {
        let c = mid_range(2).build(0);
        let s = c.to_string();
        assert!(s.contains("mid-range") && s.contains("V100"));
    }

    #[test]
    fn cluster_round_trips_through_json() {
        let c = mid_range(2).build(4);
        let doc = pipette_obs::json::parse(&c.to_json()).expect("parseable");
        assert_eq!(doc.get("name").and_then(|v| v.as_str()), Some(c.name()));
        let gpu = doc.get("gpu").expect("gpu");
        let num = |v: &pipette_obs::json::JsonValue, key: &str| v.get(key).and_then(|x| x.as_f64());
        assert_eq!(gpu.get("name").and_then(|v| v.as_str()), Some("V100"));
        assert_eq!(num(gpu, "peak_fp16_tflops"), Some(c.gpu().peak_fp16_tflops));
        assert_eq!(num(gpu, "attainable_mfu"), Some(c.gpu().attainable_mfu));
        assert_eq!(
            gpu.get("memory_bytes").and_then(|v| v.as_u64()),
            Some(c.gpu().memory_bytes)
        );
        let profiler = doc.get("profiler").expect("profiler");
        assert_eq!(num(profiler, "noise_sigma"), Some(c.profiler().noise_sigma));
        assert_eq!(
            num(profiler, "base_seconds"),
            Some(c.profiler().base_seconds)
        );
        assert_eq!(
            num(profiler, "per_pair_seconds"),
            Some(c.profiler().per_pair_seconds)
        );
        // Shortest round-trip floats: the matrix comes back bit-exact.
        let back = crate::bandwidth::tests::decode(doc.get("bandwidth").expect("bandwidth"));
        assert_eq!(&back, c.bandwidth());
        assert!(back.between(GpuId(3), GpuId(3)).is_infinite());
    }

    #[test]
    fn profiling_costs_match_table_two_shape() {
        let mid = mid_range(16);
        let c = mid.profiler.cost(&mid.topology);
        assert!((c.seconds - 119.8).abs() < 1.0);
        let high = high_end(16);
        let c = high.profiler.cost(&high.topology);
        assert!((c.seconds - 239.2).abs() < 1.0);
    }
}

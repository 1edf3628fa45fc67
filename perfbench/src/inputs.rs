//! Seeded inputs: job specs and serve request lines.
//!
//! The workload seed picks every job and cluster seed and the serve mix;
//! the configurator only ever sees the rendered JSON.

/// SplitMix64: a small, fixed generator so inputs never depend on a
/// library's stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `(seed, stream)`; different streams are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Self(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A seed small enough to survive the JSON number round trip.
    pub fn seed(&mut self) -> u64 {
        self.below(1_000_000)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// GPUs per node of both cluster presets.
pub const GPUS_PER_NODE: usize = 8;

/// Estimator training iterations of the warm and serve workloads.
pub const WARM_FIT_ITERATIONS: usize = 2_000;

/// One configure job: the `pipette-cli example-spec` job with the fields
/// the workloads vary.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// `mid-range` or `high-end`.
    pub preset: &'static str,
    /// 8-GPU nodes.
    pub nodes: usize,
    /// Seed of the cluster's bandwidth matrix.
    pub cluster_seed: u64,
    /// Search seed.
    pub seed: u64,
    /// Tempering replicas (1 = single chain).
    pub replicas: usize,
    /// Fine-grained worker dedication (false = PPT-L).
    pub worker_dedication: bool,
    /// `None` keeps the default 12,000-iteration fit.
    pub memory_training_iterations: Option<usize>,
    /// On-disk estimator cache directory.
    pub estimator_cache_dir: Option<String>,
}

impl Job {
    /// The example-spec job on a re-seeded mid-range 8-node cluster.
    pub fn example(cluster_seed: u64, seed: u64) -> Self {
        Self {
            preset: "mid-range",
            nodes: 8,
            cluster_seed,
            seed,
            replicas: 4,
            worker_dedication: true,
            memory_training_iterations: None,
            estimator_cache_dir: None,
        }
    }

    /// GPUs in the job's cluster.
    pub fn gpus(&self) -> usize {
        self.nodes * GPUS_PER_NODE
    }

    /// The job spec as `pipette-cli configure` reads it.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            concat!(
                r#"{{"cluster":{{"preset":"{}","nodes":{},"seed":{}}},"#,
                r#""model":{{"preset":"gpt-1.1b"}},"global_batch":256,"max_micro":8,"#,
                r#""worker_dedication":{},"sa_iterations":30000,"seed":{},"#,
                r#""replicas":{},"exchange_interval":512"#
            ),
            self.preset,
            self.nodes,
            self.cluster_seed,
            self.worker_dedication,
            self.seed,
            self.replicas
        );
        if let Some(n) = self.memory_training_iterations {
            out.push_str(&format!(r#","memory_training_iterations":{n}"#));
        }
        if let Some(dir) = &self.estimator_cache_dir {
            out.push_str(&format!(r#","estimator_cache_dir":"{dir}""#));
        }
        out.push('}');
        out
    }
}

/// Cluster seed of the `pipette-cli example-spec` job.
pub const EXAMPLE_CLUSTER_SEED: u64 = 42;

/// Seed `i` of a fixed pool of cluster seeds, the same for every workload
/// seed. An operation's cost depends mostly on its cluster (which
/// configurations reach the annealer: 0.25 s to 0.77 s across clusters,
/// against ±5% across search seeds on one cluster), so clusters drawn per
/// run would make the run-to-run spread measure the draw rather than the
/// code. Every run therefore covers the same clusters; the workload seed
/// picks their order and every search seed.
pub fn pool_cluster_seed(pool: u64, i: usize) -> u64 {
    Rng::new(pool, i as u64).seed()
}

/// The cold-configure job of a seed: the example-spec job on its own
/// cluster, with a seeded search seed.
pub fn cold_job(seed: u64) -> Job {
    Job::example(EXAMPLE_CLUSTER_SEED, Rng::new(seed, 1).seed())
}

/// Clusters the warm workload cycles through.
pub const WARM_CLUSTERS: usize = 8;

/// Job `k` of the warm-configure workload for a seed: cycle `k / 8` visits
/// the 8 pool clusters in a seeded order, and every operation draws its
/// own search seed. The mid-range 8-node preset keeps one estimator key
/// for all of them.
pub fn warm_job(seed: u64, k: usize) -> Job {
    let mut order: Vec<usize> = (0..WARM_CLUSTERS).collect();
    Rng::new(seed, 20_000 + (k / WARM_CLUSTERS) as u64).shuffle(&mut order);
    Job {
        memory_training_iterations: Some(WARM_FIT_ITERATIONS),
        ..Job::example(
            pool_cluster_seed(2, order[k % WARM_CLUSTERS]),
            Rng::new(seed, 10_000 + k as u64).seed(),
        )
    }
}

/// Request kinds of the serve mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Parallel tempering with 4 replicas.
    Tempered,
    /// Classic single-chain annealing.
    SingleChain,
    /// PPT-L: no worker dedication, so no annealing.
    PptL,
    /// Tempered, with a deadline that truncates the annealing.
    Deadline,
    /// Tempered, asking for the per-request trace.
    Traced,
}

/// One block of the mix: request kinds in fixed shares (30% tempered,
/// 20% each single-chain, PPT-L and deadline, 10% traced), each paired
/// with a fixed cluster so that every cluster appears twice. The clusters
/// are mid-range {4, 8, 16} and high-end {4, 8} nodes: two estimator keys,
/// one per preset. The 128-GPU cluster serves the PPT-L and deadline
/// requests, whose annealing is skipped or cut: tempered annealing on it
/// takes 1.2–2.2 s and would hold every later response behind it in the
/// in-order commit. Only the order inside a block is seeded, so every
/// complete block costs the same work.
pub const BLOCK: [(Kind, &str, usize); 10] = [
    (Kind::Tempered, "mid-range", 4),
    (Kind::Tempered, "mid-range", 8),
    (Kind::Tempered, "high-end", 4),
    (Kind::SingleChain, "mid-range", 8),
    (Kind::SingleChain, "high-end", 8),
    (Kind::PptL, "mid-range", 16),
    (Kind::PptL, "high-end", 8),
    (Kind::Deadline, "mid-range", 16),
    (Kind::Deadline, "high-end", 4),
    (Kind::Traced, "mid-range", 4),
];

/// Deadline units beyond the profiling sweep's pair cost: enough for the
/// memory screen and the estimates, a small slice of the annealing.
pub const DEADLINE_SLACK_UNITS: u64 = 10_000;

/// One serve request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Envelope id, unique per run.
    pub id: String,
    /// Request kind.
    pub kind: Kind,
    /// The job.
    pub job: Job,
    /// Logical deadline, for [`Kind::Deadline`].
    pub deadline_units: Option<u64>,
    /// Whether the response carries the request's trace.
    pub trace: bool,
}

impl Request {
    fn new(id: String, kind: Kind, cluster: (&'static str, usize, u64), seed: u64) -> Self {
        let (preset, nodes, cluster_seed) = cluster;
        let mut job = Job {
            preset,
            nodes,
            memory_training_iterations: Some(WARM_FIT_ITERATIONS),
            ..Job::example(cluster_seed, seed)
        };
        match kind {
            Kind::SingleChain => job.replicas = 1,
            Kind::PptL => {
                job.replicas = 1;
                job.worker_dedication = false;
            }
            Kind::Tempered | Kind::Deadline | Kind::Traced => {}
        }
        let gpus = job.gpus() as u64;
        Self {
            id,
            kind,
            deadline_units: (kind == Kind::Deadline)
                .then(|| gpus * (gpus - 1) + DEADLINE_SLACK_UNITS),
            trace: kind == Kind::Traced,
            job,
        }
    }

    /// The request as one line of the serve protocol.
    pub fn line(&self) -> String {
        let mut out = format!(
            r#"{{"id":"{}","op":"configure","job":{}"#,
            self.id,
            self.job.to_json()
        );
        if let Some(d) = self.deadline_units {
            out.push_str(&format!(r#","deadline_units":{d}"#));
        }
        if self.trace {
            out.push_str(r#","trace":true"#);
        }
        out.push('}');
        out
    }
}

/// Request `k` of the timed serve mix for a seed: entry `k % 10` of block
/// `k / 10`, after a seeded shuffle of [`BLOCK`]. Each block entry keeps
/// one pool cluster seed in every block and every run (see
/// [`pool_cluster_seed`]); every request draws its own search seed.
pub fn serve_request(seed: u64, k: usize) -> Request {
    let mut entries: Vec<usize> = (0..BLOCK.len()).collect();
    Rng::new(seed, 1_000 + (k / BLOCK.len()) as u64).shuffle(&mut entries);
    let entry = entries[k % BLOCK.len()];
    let (kind, preset, nodes) = BLOCK[entry];
    Request::new(
        format!("r{k}"),
        kind,
        (preset, nodes, pool_cluster_seed(3, entry)),
        Rng::new(seed, 100_000 + k as u64).seed(),
    )
}

/// The set-up requests of the serve mix: one per estimator key, so set-up
/// trains every estimator the timed requests use.
pub fn serve_warmups(seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed, 3);
    vec![
        Request::new(
            "warm-mid".into(),
            Kind::Tempered,
            ("mid-range", 8, EXAMPLE_CLUSTER_SEED),
            rng.seed(),
        ),
        Request::new(
            "warm-high".into(),
            Kind::Tempered,
            ("high-end", 4, EXAMPLE_CLUSTER_SEED),
            rng.seed(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(cold_job(5), cold_job(5));
        assert_ne!(cold_job(5), cold_job(6));
        assert_eq!(cold_job(5).cluster_seed, EXAMPLE_CLUSTER_SEED);
        assert_eq!(serve_request(9, 17), serve_request(9, 17));
        assert_eq!(warm_job(3, 4), warm_job(3, 4));
        assert_ne!(warm_job(3, 4), warm_job(3, 5));
    }

    #[test]
    fn every_block_holds_the_same_requests() {
        let key = |r: &Request| (r.kind as u8, r.job.preset, r.job.nodes);
        let mut want: Vec<_> = BLOCK.iter().map(|&(k, p, n)| (k as u8, p, n)).collect();
        want.sort_unstable();
        for block in 0..4 {
            let mut got: Vec<_> = (block * 10..block * 10 + 10)
                .map(|k| key(&serve_request(11, k)))
                .collect();
            got.sort_unstable();
            assert_eq!(got, want);
        }
        // Entries keep their cluster in every block and every run.
        let a = serve_request(11, 3);
        let b = (10..20)
            .map(|k| serve_request(12, k))
            .find(|r| key(r) == key(&a));
        assert_eq!(b.map(|r| r.job.cluster_seed), Some(a.job.cluster_seed));
        let shares = |kind| BLOCK.iter().filter(|e| e.0 == kind).count();
        assert_eq!(
            [
                Kind::Tempered,
                Kind::SingleChain,
                Kind::PptL,
                Kind::Deadline,
                Kind::Traced
            ]
            .map(shares),
            [3, 2, 2, 2, 1]
        );
    }

    #[test]
    fn warm_cycles_cover_the_cluster_pool() {
        for seed in [1, 2] {
            for cycle in 0..3 {
                let mut seen: Vec<u64> = (cycle * WARM_CLUSTERS..(cycle + 1) * WARM_CLUSTERS)
                    .map(|k| warm_job(seed, k).cluster_seed)
                    .collect();
                seen.sort_unstable();
                let mut pool: Vec<u64> = (0..WARM_CLUSTERS)
                    .map(|i| pool_cluster_seed(2, i))
                    .collect();
                pool.sort_unstable();
                assert_eq!(seen, pool);
            }
        }
    }

    #[test]
    fn example_job_renders_the_example_spec() {
        let job = Job::example(42, 7);
        assert_eq!(
            job.to_json(),
            concat!(
                r#"{"cluster":{"preset":"mid-range","nodes":8,"seed":42},"#,
                r#""model":{"preset":"gpt-1.1b"},"global_batch":256,"max_micro":8,"#,
                r#""worker_dedication":true,"sa_iterations":30000,"seed":7,"#,
                r#""replicas":4,"exchange_interval":512}"#
            )
        );
    }
}

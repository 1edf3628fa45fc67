//! The traced operation: Algorithm 1 rebuilt from each layer's public
//! function, with a span around every call.
//!
//! The order and arguments follow `Pipette::run`, so the decomposed
//! recommendation must equal the program's bit for bit, and its counts
//! must equal the span costs of the program's own logical trace. Both are
//! checked by [`check_against_program`].

use crate::host;
use crate::spans::Recorder;
use pipette::latency::PipetteLatencyModel;
use pipette::mapping::{
    Annealer, AnnealerConfig, IncrementalObjective, ParallelTemperingAnnealer, TemperingSchedule,
};
use pipette::memory::{
    collect_samples_parallel, MemoryEstimator, MemoryEstimatorConfig, MemorySample,
    TrainedEstimatorCache,
};
use pipette::{parallel, Pipette, PipetteOptions, Recommendation};
use pipette_cli::JobSpec;
use pipette_model::{BatchConfig, GptConfig, MicrobatchPlan, ParallelConfig};
use pipette_obs::{EventKind, Trace, TraceConfig};
use pipette_sim::{ClusterRun, ComputeProfiler, Mapping, ProfiledCompute};
use std::time::Instant;

/// The options `pipette-cli configure` derives from a spec.
pub fn options_for(spec: &JobSpec) -> PipetteOptions {
    let mut memory = MemoryEstimatorConfig::default();
    memory.train.iterations = spec.memory_training_iterations;
    PipetteOptions {
        max_micro: spec.max_micro,
        use_worker_dedication: spec.worker_dedication,
        annealer: AnnealerConfig {
            iterations: spec.sa_iterations,
            ..AnnealerConfig::default()
        },
        memory,
        seed: spec.seed,
        replicas: spec.replicas,
        exchange_interval: spec.exchange_interval,
        ..PipetteOptions::default()
    }
}

/// The MLP fit, when the operation trained one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fit {
    /// Training samples in the corpus.
    pub corpus_samples: usize,
    /// Adam iterations.
    pub iterations: usize,
    /// Loss of the last step.
    pub final_loss: f64,
    /// Process user CPU seconds during the fit.
    pub cpu_user_s: f64,
    /// Process system CPU seconds during the fit.
    pub cpu_sys_s: f64,
}

/// Work counts of one decomposed operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Counts {
    /// Directed GPU pairs the bandwidth profile covers.
    pub pairs: u64,
    /// Iterations of the estimator the screen used.
    pub estimator_iterations: usize,
    /// Present when this operation fitted the estimator itself.
    pub fit: Option<Fit>,
    /// Candidates the memory screen examined.
    pub examined: usize,
    /// Candidates the screen accepted (and the estimates covered).
    pub accepted: usize,
    /// Objective evaluations of all annealing passes.
    pub evals: u64,
    /// Accepted annealing moves.
    pub moves_accepted: u64,
    /// Tempering exchanges attempted.
    pub exchanges_attempted: u64,
    /// Tempering exchanges accepted.
    pub exchanges_accepted: u64,
    /// Best identity-mapped estimate over the final estimate, minus 1.
    pub gain: f64,
}

/// Where a decomposed operation gets its memory estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Estimator {
    /// Look it up in the spec's estimator cache, which must hold it: the
    /// warm path.
    Cached,
    /// Collect the corpus and fit the MLP, then look it up in the cache,
    /// which the program filled with its own fit and which must return
    /// the same estimator: the cold path and the set-up fills.
    FitAndCached,
}

/// The decomposed recommendation, in the fields `Pipette::run` reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Decomposed {
    /// The estimator the screen used.
    pub estimator: MemoryEstimator,
    /// Work counts.
    pub counts: Counts,
    /// Chosen configuration.
    pub config: ParallelConfig,
    /// Chosen microbatch plan.
    pub plan: MicrobatchPlan,
    /// Worker → GPU mapping.
    pub mapping: Vec<usize>,
    /// Estimated iteration seconds.
    pub estimated_seconds: f64,
    /// Ranked alternatives: configuration, plan and estimate.
    pub alternatives: Vec<(ParallelConfig, MicrobatchPlan, f64)>,
    /// Simulated iteration seconds of the recommendation.
    pub measured_seconds: f64,
}

struct Candidate {
    config: ParallelConfig,
    plan: MicrobatchPlan,
    compute: ProfiledCompute,
    identity_estimate: f64,
}

fn incremental<'a>(
    latency: &PipetteLatencyModel<'a>,
    gpt: &'a GptConfig,
    cand: &'a Candidate,
    init: &Mapping,
) -> IncrementalObjective<'a> {
    IncrementalObjective::new(latency.matrix(), gpt, cand.plan, &cand.compute, init)
}

/// Runs one operation layer by layer, taking the memory estimator from
/// `source`.
///
/// # Errors
///
/// A spec, configuration or simulation failure, a spec without an
/// estimator cache directory, or a fitted estimator that differs from the
/// cached one.
pub fn decompose(
    rec: &mut Recorder,
    spec_text: &str,
    source: Estimator,
) -> Result<Decomposed, String> {
    let spec = rec.span("cli.parse", |_| JobSpec::parse_strict(spec_text));
    let spec = spec.map_err(|e| format!("spec: {e}"))?;
    let cluster = spec.build_cluster().map_err(|e| e.to_string())?;
    let gpt = spec.build_model().map_err(|e| e.to_string())?;
    let options = options_for(&spec);
    let threads = options.threads;
    let topo = *cluster.topology();
    let global_batch = spec.global_batch;
    let Some(dir) = &spec.estimator_cache_dir else {
        return Err("the spec names no estimator cache directory".to_string());
    };
    let cache = TrainedEstimatorCache::with_dir(dir);

    let configured = rec.span("core.configure", |rec| -> Result<_, String> {
        // Line 1: the bandwidth profile.
        let (profiled, _cost) = rec.span("cluster.profile", |_| {
            cluster
                .profiler()
                .profile(cluster.bandwidth(), options.seed)
        });
        let gpus = topo.num_gpus() as u64;
        let pairs = gpus * gpus.saturating_sub(1);

        // The memory estimator: corpus and fit when asked, then the cache.
        let pipette = Pipette::new(&cluster, &gpt, global_batch, options);
        let (sample_spec, truth) = pipette.profiling_spec();
        let fitted = (source == Estimator::FitAndCached).then(|| {
            let samples = rec.span("memory.corpus", |_| {
                collect_samples_parallel(&sample_spec, &truth, threads)
            });
            let cpu_before = host::process_cpu().unwrap_or_default();
            let estimator = rec.span("mlp.fit", |_| {
                MemoryEstimator::train_with_threads(&samples, &options.memory, threads)
            });
            let cpu_after = host::process_cpu().unwrap_or_default();
            (samples.len(), estimator, cpu_before, cpu_after)
        });
        let cached = rec.span("memory.cache", |_| {
            cache.get_or_train(&sample_spec, &gpt, &options.memory, &truth, threads)
        });
        let (estimator, fit) = match fitted {
            Some((corpus_samples, fitted, before, after)) => {
                if cached != fitted {
                    return Err("the cached estimator differs from a direct fit".to_string());
                }
                let summary = fitted.train_summary();
                let fit = Fit {
                    corpus_samples,
                    iterations: summary.iterations,
                    final_loss: summary.final_loss,
                    cpu_user_s: after.0 - before.0,
                    cpu_sys_s: after.1 - before.1,
                };
                (fitted, Some(fit))
            }
            None => (cached, None),
        };

        // Lines 3-7: enumerate, screen on memory, estimate the survivors.
        let mut work: Vec<(ParallelConfig, MicrobatchPlan)> = Vec::new();
        for cfg in ParallelConfig::enumerate(topo.num_gpus(), topo.gpus_per_node(), gpt.n_layers) {
            let Ok(mini) = BatchConfig::new(global_batch).minibatch(cfg.dp) else {
                continue;
            };
            work.extend(
                MicrobatchPlan::enumerate(mini, options.max_micro)
                    .into_iter()
                    .map(|plan| (cfg, plan)),
            );
        }
        let features: Vec<[f64; 10]> = work
            .iter()
            .map(|&(cfg, plan)| {
                MemorySample::features_for(&gpt, topo.num_gpus(), cfg, plan, global_batch)
            })
            .collect();
        let limit = cluster.gpu().memory_bytes;
        let runnable = rec.span("memory.screen", |_| {
            estimator.is_runnable_batch(&features, limit, threads)
        });

        let profiler = ComputeProfiler::default();
        let gpu = cluster.gpu().clone();
        let latency = PipetteLatencyModel::new(&profiled, &gpt);
        let mut candidates: Vec<Candidate> = Vec::new();
        for (&(cfg, plan), _) in work.iter().zip(&runnable).filter(|(_, &ok)| ok) {
            let compute = rec.span("sim.compute_profile", |_| {
                profiler.profile(cluster.bandwidth(), &gpu, &gpt, cfg, plan, options.seed)
            });
            let identity = Mapping::identity(cfg, topo);
            let estimate = rec.span("latency.estimate", |_| {
                latency.estimate(cfg, &identity, plan, &compute)
            });
            candidates.push(Candidate {
                config: cfg,
                plan,
                compute,
                identity_estimate: estimate,
            });
        }
        if candidates.is_empty() {
            return Err("no candidate passed the memory screen".to_string());
        }
        candidates.sort_by(|a, b| a.identity_estimate.total_cmp(&b.identity_estimate));

        // Lines 9-15: worker dedication on the top candidates.
        let mut best_idx = 0usize;
        let mut best_mapping = Mapping::identity(candidates[0].config, topo);
        let mut best_t = candidates[0].identity_estimate;
        let (mut evals, mut moves_accepted) = (0u64, 0u64);
        let (mut exchanges_attempted, mut exchanges_accepted) = (0u64, 0u64);
        let replicas = options.replicas.max(1);
        let k = options.sa_top_k.max(1).min(candidates.len());
        if options.use_worker_dedication {
            rec.span("mapping.anneal", |_| {
                let mut keep = |i: usize, mapping: Mapping, cost: f64| {
                    if cost < best_t {
                        best_idx = i;
                        best_mapping = mapping;
                        best_t = cost;
                    }
                };
                if replicas > 1 {
                    let schedule = TemperingSchedule {
                        replicas,
                        exchange_interval: options.exchange_interval.max(1),
                        ..TemperingSchedule::default()
                    };
                    for (i, cand) in candidates[..k].iter().enumerate() {
                        let mut sa_cfg = options.annealer;
                        sa_cfg.seed = options.seed.wrapping_add(i as u64);
                        let initial = Mapping::identity(cand.config, topo);
                        let (mapping, cost, stats) = ParallelTemperingAnnealer::new(
                            sa_cfg, schedule,
                        )
                        .anneal(threads, &initial, |_, init: &Mapping| {
                            incremental(&latency, &gpt, cand, init)
                        });
                        let merged = stats.merged();
                        evals += merged.evaluations as u64;
                        moves_accepted += merged.accepted as u64;
                        exchanges_attempted += stats.exchanges_attempted as u64;
                        exchanges_accepted += stats.exchanges_accepted as u64;
                        keep(i, mapping, cost);
                    }
                } else {
                    let annealed = parallel::ordered_map(threads, &candidates[..k], |i, cand| {
                        let initial = Mapping::identity(cand.config, topo);
                        let mut sa_cfg = options.annealer;
                        sa_cfg.seed = options.seed.wrapping_add(i as u64);
                        Annealer::new(sa_cfg)
                            .anneal_with(&initial, &mut incremental(&latency, &gpt, cand, &initial))
                    });
                    for (i, (mapping, cost, stats)) in annealed.into_iter().enumerate() {
                        evals += stats.evaluations as u64;
                        moves_accepted += stats.accepted as u64;
                        keep(i, mapping, cost);
                    }
                }
            });
        }

        let winner = &candidates[best_idx];
        let alternatives = candidates
            .iter()
            .filter(|c| !(c.config == winner.config && c.plan == winner.plan))
            .map(|c| (c.config, c.plan, c.identity_estimate))
            .take(options.top_n)
            .collect();
        let counts = Counts {
            pairs,
            estimator_iterations: estimator.train_summary().iterations,
            fit,
            examined: work.len(),
            accepted: candidates.len(),
            evals,
            moves_accepted,
            exchanges_attempted,
            exchanges_accepted,
            gain: candidates[0].identity_estimate / best_t - 1.0,
        };
        Ok(Decomposed {
            counts,
            config: winner.config,
            plan: winner.plan,
            mapping: best_mapping.as_slice().iter().map(|g| g.0).collect(),
            estimated_seconds: best_t,
            alternatives,
            measured_seconds: 0.0,
            estimator,
        })
        .map(|d| (d, best_mapping))
    });
    let (mut decomposed, mapping) = configured?;
    let measured = rec.span("sim.verify", |_| {
        ClusterRun::new(&cluster, &gpt).execute(decomposed.config, &mapping, decomposed.plan)
    });
    decomposed.measured_seconds = measured
        .map_err(|e| format!("verification: {e}"))?
        .iteration_seconds;
    Ok(decomposed)
}

/// Timings of the program's own `Pipette::run` and `Pipette::run_traced`
/// on the decomposed operation's inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgramRun {
    /// Wall seconds of `run`.
    pub run_s: f64,
    /// Wall seconds of `run_traced`.
    pub traced_s: f64,
    /// Events in the logical trace.
    pub trace_events: usize,
}

fn same_recommendation(rec: &Recommendation, d: &Decomposed) -> bool {
    rec.config == d.config
        && rec.plan == d.plan
        && rec
            .mapping
            .as_slice()
            .iter()
            .map(|g| g.0)
            .eq(d.mapping.iter().copied())
        && rec.estimated_seconds.to_bits() == d.estimated_seconds.to_bits()
        && rec.examined == d.counts.examined
        && rec.memory_rejected == d.counts.examined - d.counts.accepted
        && rec.alternatives.len() == d.alternatives.len()
        && rec.alternatives.iter().zip(&d.alternatives).all(|(a, b)| {
            a.config == b.0 && a.plan == b.1 && a.estimated_seconds.to_bits() == b.2.to_bits()
        })
}

/// Runs the program's `Pipette::run` and `run_traced` on the spec, with the
/// decomposition's estimator attached, and checks that the decomposition
/// matches:
/// the recommendation bit for bit, and every count against the logical
/// trace's span cost (pairs, iterations, candidates, evaluations). With an
/// estimator attached, the program's `mem_train` cost is that estimator's
/// iteration count, so that count only echoes the estimator; a fit is
/// checked against the program's own by [`decompose`], which compares it
/// with the estimator the program trained and cached.
///
/// # Errors
///
/// Each mismatch found, or a failure of the program.
pub fn check_against_program(spec_text: &str, d: &Decomposed) -> Result<ProgramRun, String> {
    let spec = JobSpec::parse_strict(spec_text).map_err(|e| e.to_string())?;
    let cluster = spec.build_cluster().map_err(|e| e.to_string())?;
    let gpt = spec.build_model().map_err(|e| e.to_string())?;
    let pipette = Pipette::new(&cluster, &gpt, spec.global_batch, options_for(&spec))
        .with_memory_estimator(d.estimator.clone());

    let t0 = Instant::now();
    let plain = pipette.run().map_err(|e| format!("Pipette::run: {e}"))?;
    let run_s = t0.elapsed().as_secs_f64();
    let mut trace = Trace::new(TraceConfig::default());
    let t0 = Instant::now();
    let traced = pipette
        .run_traced(&mut trace)
        .map_err(|e| format!("Pipette::run_traced: {e}"))?;
    let traced_s = t0.elapsed().as_secs_f64();

    let mut problems = Vec::new();
    if !same_recommendation(&plain, d) {
        problems.push("decomposed recommendation differs from Pipette::run".to_string());
    }
    if !same_recommendation(&traced, d) {
        problems.push("decomposed recommendation differs from Pipette::run_traced".to_string());
    }
    let c = &d.counts;
    let mut expected: Vec<(&str, u64)> = vec![
        ("profile", c.pairs),
        ("mem_train", c.estimator_iterations as u64),
        ("mem_screen", c.examined as u64),
        ("estimates", c.accepted as u64),
    ];
    if spec.worker_dedication {
        expected.push(("anneal", c.evals));
    }
    for (name, want) in expected {
        let got: Vec<u64> = trace
            .events()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::SpanClose { name: n, cost, .. } if *n == name => Some(*cost),
                _ => None,
            })
            .collect();
        if got != [want] {
            problems.push(format!(
                "span {name}: trace cost {got:?}, decomposed count {want}"
            ));
        }
    }
    if problems.is_empty() {
        Ok(ProgramRun {
            run_s,
            traced_s,
            trace_events: trace.len(),
        })
    } else {
        Err(problems.join("; "))
    }
}

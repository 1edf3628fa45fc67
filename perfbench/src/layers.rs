//! Per-layer metrics of a traced run, from its spans and counts.

use crate::configure::TracedOp;
use crate::decompose::{Counts, Fit};
use crate::report::Metric;
use crate::spans::{self, LayerTime, Recorder};
use crate::stats::{median, tail};
use pipette::memory::CacheCounters;

/// Per-request serve timings, from the delegating handler and the pipe.
#[derive(Debug, Clone, Default)]
pub struct ServeLayers {
    /// `RequestHandler::parse` seconds per request.
    pub parse_s: Vec<f64>,
    /// Seconds from the line's hand-off to the server (parse and
    /// admission included) until a worker started executing it.
    pub queue_wait_s: Vec<f64>,
    /// `RequestHandler::execute` seconds per request.
    pub execute_s: Vec<f64>,
    /// Seconds from the end of execute until the response line reached
    /// the client's writer (reorder buffer plus commit).
    pub commit_s: Vec<f64>,
    /// Requests shed at admission.
    pub shed: u64,
    /// Requests served in degraded mode.
    pub degraded: u64,
}

fn or_zero(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// Median over operations of `f`, zero when no operation had the layer.
fn med(xs: impl Iterator<Item = f64>) -> f64 {
    or_zero(median(&xs.collect::<Vec<_>>()))
}

/// The per-layer metrics, in the order `BENCHMARK.json` declares them
/// (without the `host.*` contention record, which covers the whole run).
/// A layer the workload never reaches reads 0.
pub fn layer_metrics(
    rec: &Recorder,
    ops: &[TracedOp],
    cache: CacheCounters,
    serve: Option<&ServeLayers>,
) -> Vec<Metric> {
    let by = spans::by_layer(rec.spans());
    let layer = |name: &str, f: fn(&LayerTime) -> f64| {
        med(by.get(name).into_iter().flat_map(|m| m.values().map(f)))
    };
    let total = |name| layer(name, |t| t.total_s);
    let self_s = |name| layer(name, |t| t.self_s);
    let counts: Vec<&Counts> = ops.iter().map(|o| &o.decomposed.counts).collect();
    let count = |f: fn(&Counts) -> f64| med(counts.iter().map(|c| f(c)));
    let fits: Vec<Fit> = counts.iter().filter_map(|c| c.fit).collect();
    let fit = |f: fn(&Fit) -> f64| med(fits.iter().map(f));
    let annealed: Vec<&Counts> = counts.iter().copied().filter(|c| c.evals > 0).collect();
    let anneal = |f: fn(&Counts) -> f64| med(annealed.iter().map(|c| f(c)));

    let fit_s = total("mlp.fit");
    let fit_iters = fit(|f| f.iterations as f64);
    // Evaluations per second of each operation's anneal span.
    let evals_per_s = med(ops
        .iter()
        .filter(|o| o.decomposed.counts.evals > 0)
        .filter_map(|o| {
            let span = by.get("mapping.anneal")?.get(&o.op)?;
            Some(o.decomposed.counts.evals as f64 / span.total_s)
        }));
    let trace_overhead = or_zero(
        median(&ops.iter().map(|o| o.program.traced_s).collect::<Vec<_>>())
            / median(&ops.iter().map(|o| o.program.run_s).collect::<Vec<_>>()),
    );
    // Algorithm 1 rebuilt with spans against the program's `Pipette::run`
    // with the same estimator attached: the `core.configure` span without
    // the estimator's corpus, fit and cache lookup, which `run` skips.
    let span_overhead = med(ops.iter().filter_map(|o| {
        let op_total = |name| by.get(name).and_then(|m| m.get(&o.op)).map(|t| t.total_s);
        let estimator_s: f64 = ["memory.corpus", "mlp.fit", "memory.cache"]
            .into_iter()
            .filter_map(op_total)
            .sum();
        Some((op_total("core.configure")? - estimator_s) / o.program.run_s)
    }));
    let serve = serve.cloned().unwrap_or_default();

    vec![
        Metric::new("mlp.fit_s", fit_s, "s"),
        Metric::new("mlp.fit_iters", fit_iters, "count"),
        Metric::new("mlp.fit_iters_per_s", or_zero(fit_iters / fit_s), "1/s"),
        Metric::new("mlp.fit_cpu_user_s", fit(|f| f.cpu_user_s), "s"),
        Metric::new("mlp.fit_cpu_sys_s", fit(|f| f.cpu_sys_s), "s"),
        Metric::new("mlp.fit_final_loss", fit(|f| f.final_loss), "loss"),
        Metric::new("memory.corpus_s", total("memory.corpus"), "s"),
        Metric::new(
            "memory.corpus_samples",
            fit(|f| f.corpus_samples as f64),
            "count",
        ),
        Metric::new("memory.cache_s", total("memory.cache"), "s"),
        Metric::new("memory.cache_self_s", self_s("memory.cache"), "s"),
        Metric::new("memory.cache_hits", cache.hits as f64, "count"),
        Metric::new("memory.cache_misses", cache.misses as f64, "count"),
        Metric::new("memory.cache_corrupt", cache.corrupt as f64, "count"),
        Metric::new("memory.screen_s", total("memory.screen"), "s"),
        Metric::new(
            "memory.screen_candidates",
            count(|c| c.examined as f64),
            "count",
        ),
        Metric::new(
            "memory.screen_accept_ratio",
            count(|c| c.accepted as f64 / c.examined as f64),
            "ratio",
        ),
        Metric::new("cluster.profile_s", total("cluster.profile"), "s"),
        Metric::new("cluster.profile_pairs", count(|c| c.pairs as f64), "count"),
        Metric::new("cli.parse_s", total("cli.parse"), "s"),
        Metric::new("sim.compute_profile_s", total("sim.compute_profile"), "s"),
        Metric::new("latency.estimate_s", total("latency.estimate"), "s"),
        Metric::new("latency.candidates", count(|c| c.accepted as f64), "count"),
        Metric::new(
            "latency.estimate_err",
            med(ops.iter().map(|o| {
                let d = &o.decomposed;
                ((d.estimated_seconds - d.measured_seconds) / d.measured_seconds).abs()
            })),
            "ratio",
        ),
        Metric::new("sim.verify_s", total("sim.verify"), "s"),
        Metric::new("mapping.anneal_s", total("mapping.anneal"), "s"),
        Metric::new("mapping.anneal_evals", anneal(|c| c.evals as f64), "count"),
        Metric::new("mapping.evals_per_s", evals_per_s, "1/s"),
        Metric::new(
            "mapping.accept_ratio",
            anneal(|c| c.moves_accepted as f64 / c.evals as f64),
            "ratio",
        ),
        Metric::new(
            "mapping.exchange_accept_ratio",
            med(annealed
                .iter()
                .filter(|c| c.exchanges_attempted > 0)
                .map(|c| c.exchanges_accepted as f64 / c.exchanges_attempted as f64)),
            "ratio",
        ),
        Metric::new("mapping.gain", anneal(|c| c.gain), "ratio"),
        Metric::new("core.configure_s", total("core.configure"), "s"),
        Metric::new("core.configure_self_s", self_s("core.configure"), "s"),
        Metric::new("obs.trace_overhead", trace_overhead, "ratio"),
        Metric::new(
            "obs.trace_events",
            med(ops.iter().map(|o| o.program.trace_events as f64)),
            "count",
        ),
        Metric::new("serve.parse_s", med(serve.parse_s.iter().copied()), "s"),
        Metric::new(
            "serve.queue_wait_s.p50",
            med(serve.queue_wait_s.iter().copied()),
            "s",
        ),
        Metric::new(
            "serve.queue_wait_s.tail",
            or_zero(tail(&serve.queue_wait_s).value),
            "s",
        ),
        Metric::new(
            "serve.execute_s.p50",
            med(serve.execute_s.iter().copied()),
            "s",
        ),
        Metric::new(
            "serve.commit_s.p50",
            med(serve.commit_s.iter().copied()),
            "s",
        ),
        Metric::new("serve.shed", serve.shed as f64, "count"),
        Metric::new("serve.degraded", serve.degraded as f64, "count"),
        Metric::new("bench.span_overhead", span_overhead, "ratio"),
    ]
}

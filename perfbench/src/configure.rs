//! The `cold_configure` and `warm_configure` workloads: one closed-loop
//! client calling `JobSpec::parse_strict` then `run_configure`, as a
//! `pipette-cli configure` process does.

use crate::decompose::{self, Decomposed, Estimator, ProgramRun};
use crate::inputs::{self, Job};
use crate::layers;
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::stats::median;
use pipette::memory::CacheCounters;
use pipette_cli::{cli_report_json, run_configure, CliReport, JobSpec};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where and how long a workload runs.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Seconds of timed operations.
    pub seconds: f64,
    /// Scratch directory for estimator caches, removed after the run.
    pub work: PathBuf,
}

/// Set-up repetitions of the cold workload; its set-up is cheap, so the
/// median of several is reported.
pub const COLD_SETUP_REPEATS: usize = 21;

/// Operations the traced warm run decomposes.
pub const WARM_TRACED_OPS: usize = 3;

/// One `parse_strict` + `run_configure` call and its wall time.
#[derive(Debug)]
pub struct Configured {
    /// Wall seconds from the call until its result.
    pub secs: f64,
    /// The report, or the error.
    pub result: Result<CliReport, String>,
}

/// Runs one operation: parse the spec text strictly, configure, verify.
pub fn timed_configure(spec_text: &str) -> Configured {
    let start = Instant::now();
    let result = JobSpec::parse_strict(spec_text)
        .map_err(|e| format!("spec: {e}"))
        .and_then(|spec| run_configure(&spec).map_err(|e| e.to_string()));
    Configured {
        secs: start.elapsed().as_secs_f64(),
        result,
    }
}

/// The recommendation as the CLI renders it, without the cache counters
/// (which legitimately differ between a cold and a warm run).
pub fn recommendation_json(report: &CliReport) -> String {
    let mut report = report.clone();
    report.estimator_cache = None;
    cli_report_json(&report)
}

/// Checks a report: finite positive times and the expected cache traffic.
/// An OOM on verification never gets here: `run_configure` returns it as
/// an error.
///
/// # Errors
///
/// What is wrong with the report.
pub fn verify_report(report: &CliReport, hits: u64, misses: u64) -> Result<(), String> {
    for (name, v) in [
        ("measured_seconds", report.measured_seconds),
        ("estimated_seconds", report.estimated_seconds),
    ] {
        if !(v.is_finite() && v > 0.0) {
            return Err(format!("{name} is {v}"));
        }
    }
    match report.estimator_cache {
        Some(c) if c.hits == hits && c.misses == misses && c.corrupt == 0 => Ok(()),
        other => Err(format!(
            "estimator cache {other:?}, expected {hits} hit(s) and {misses} miss(es)"
        )),
    }
}

/// Removes and recreates `dir`.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

fn with_cache_dir(job: Job, dir: &Path) -> Job {
    Job {
        estimator_cache_dir: Some(dir.to_string_lossy().into_owned()),
        ..job
    }
}

/// Records a timed operation in `out`; returns its report when it
/// succeeded and passed its checks.
fn record(
    out: &mut Outcome,
    label: &str,
    op: &Configured,
    hits: u64,
    misses: u64,
) -> Option<CliReport> {
    out.attempted += 1;
    out.completed += 1;
    out.op_s.push(op.secs);
    let checked = op
        .result
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|r| verify_report(r, hits, misses).map(|()| r));
    match checked {
        Ok(r) => {
            out.sim_iter_s.push(r.measured_seconds);
            out.estimate_err
                .push(((r.estimated_seconds - r.measured_seconds) / r.measured_seconds).abs());
            Some(r.clone())
        }
        Err(e) => {
            out.failed += 1;
            out.problem(format!("{label}: {e}"));
            None
        }
    }
}

/// One decomposed operation of a traced run.
#[derive(Debug, Clone)]
pub struct TracedOp {
    /// Operation id its spans carry.
    pub op: u64,
    /// The decomposition.
    pub decomposed: Decomposed,
    /// The program's own run on the same inputs.
    pub program: ProgramRun,
}

/// Decomposes one operation and checks it against the program: the
/// reference report of `run_configure` (when given) and `Pipette::run` /
/// `run_traced`.
pub fn traced_op(
    out: &mut Outcome,
    rec: &mut Recorder,
    op: u64,
    spec_text: &str,
    source: Estimator,
    reference: Option<&CliReport>,
) -> Option<TracedOp> {
    out.attempted += 1;
    rec.begin_op(op);
    let result = decompose::decompose(rec, spec_text, source).and_then(|d| {
        if let Some(r) = reference {
            let same = d.measured_seconds.to_bits() == r.measured_seconds.to_bits()
                && d.estimated_seconds.to_bits() == r.estimated_seconds.to_bits()
                && d.mapping == r.mapping
                && (d.config.pp, d.config.tp, d.config.dp) == (r.pp, r.tp, r.dp)
                && d.plan.micro_batch == r.micro_batch;
            if !same {
                return Err("decomposed recommendation differs from run_configure".to_string());
            }
        }
        let program = decompose::check_against_program(spec_text, &d)?;
        Ok(TracedOp {
            op,
            decomposed: d,
            program,
        })
    });
    match result {
        Ok(t) => Some(t),
        Err(e) => {
            out.failed += 1;
            out.problem(format!("traced op {op}: {e}"));
            None
        }
    }
}

const NO_CACHE_TRAFFIC: CacheCounters = CacheCounters {
    hits: 0,
    misses: 0,
    corrupt: 0,
};

fn add_counters(total: &mut CacheCounters, report: &CliReport) {
    if let Some(c) = report.estimator_cache {
        total.hits += c.hits;
        total.misses += c.misses;
        total.corrupt += c.corrupt;
    }
}

/// Checks a generated spec the way the CLI would before running it:
/// strict parse, then realise its cluster and model.
fn validate(spec_text: &str) -> Result<(), String> {
    let spec = JobSpec::parse_strict(spec_text).map_err(|e| format!("generated spec: {e}"))?;
    spec.build_cluster()
        .map_err(|e| format!("generated spec: {e}"))?;
    spec.build_model()
        .map_err(|e| format!("generated spec: {e}"))?;
    Ok(())
}

/// `cold_configure`: every operation gets a fresh, empty estimator cache
/// directory, so it profiles, collects the corpus, fits the MLP (12,000
/// iterations) and writes the cache.
pub fn cold(ctx: &Ctx, traced: bool) -> Outcome {
    let mut out = Outcome {
        clients: 1,
        ..Outcome::default()
    };
    let job_for = |k: usize| {
        let dir = ctx.work.join(format!("cold-op-{k}"));
        (with_cache_dir(inputs::cold_job(ctx.seed), &dir), dir)
    };
    let mut setups = Vec::new();
    for _ in 0..COLD_SETUP_REPEATS {
        let start = Instant::now();
        let (job, dir) = job_for(0);
        let prepared = fresh_dir(&dir).and_then(|()| validate(&job.to_json()));
        setups.push(start.elapsed().as_secs_f64());
        if let Err(e) = prepared {
            out.problem(e);
            return out;
        }
    }
    out.setup_s = median(&setups);
    let first_text = job_for(0).0.to_json();

    if traced {
        // The program's cold operation fills the cache with its own fit.
        // The decomposed operation then collects the corpus and fits
        // again; it must find the same estimator in the cache and return
        // the same recommendation.
        let mut rec = Recorder::new();
        let mut cache = NO_CACHE_TRAFFIC;
        let mut ops = Vec::new();
        let reference = timed_configure(&first_text);
        if let Some(r) = record(&mut out, "cold op 0", &reference, 0, 1) {
            add_counters(&mut cache, &r);
            ops.extend(traced_op(
                &mut out,
                &mut rec,
                0,
                &first_text,
                Estimator::FitAndCached,
                Some(&r),
            ));
        }
        out.layers = layers::layer_metrics(&rec, &ops, cache, None);
        return out;
    }

    let start = Instant::now();
    let mut first: Option<CliReport> = None;
    for k in 0.. {
        let (job, dir) = job_for(k);
        if k > 0 {
            if let Err(e) = fresh_dir(&dir) {
                out.problem(e);
                break;
            }
        }
        let op = timed_configure(&job.to_json());
        let report = record(&mut out, &format!("cold op {k}"), &op, 0, 1);
        if k == 0 {
            first = report;
        }
        if start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    out.timed_wall_s = start.elapsed().as_secs_f64();

    // Outside the timed region: a warm re-run of the first operation must
    // hit the cache it wrote and return the same recommendation.
    if let Some(cold) = first {
        match timed_configure(&first_text).result {
            Ok(warm) => {
                if let Err(e) = verify_report(&warm, 1, 0) {
                    out.problem(format!("warm re-run of the cold op: {e}"));
                }
                out.check(
                    recommendation_json(&warm) == recommendation_json(&cold),
                    || "warm re-run differs from the cold op".to_string(),
                );
            }
            Err(e) => out.problem(format!("warm re-run of the cold op: {e}")),
        }
    }
    out
}

/// `warm_configure`: set-up fills the on-disk estimator cache once
/// (2,000-iteration fit) by configuring job 0; every operation is a fresh
/// `run_configure` of its own seeded job that re-reads the cache. Operation
/// 0 repeats the set-up job, so it must equal the cold set-up run.
pub fn warm(ctx: &Ctx, traced: bool) -> Outcome {
    let mut out = Outcome {
        clients: 1,
        ..Outcome::default()
    };
    let start = Instant::now();
    let dir = ctx.work.join("warm-cache");
    if let Err(e) = fresh_dir(&dir) {
        out.problem(e);
        return out;
    }
    let text = |k: usize| with_cache_dir(inputs::warm_job(ctx.seed, k), &dir).to_json();
    let fill = timed_configure(&text(0));
    out.setup_s = start.elapsed().as_secs_f64();
    // One estimator key, so set-up misses exactly once.
    let filled = match fill
        .result
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|r| verify_report(r, 0, 1).map(|()| r.clone()))
    {
        Ok(r) => r,
        Err(e) => {
            out.problem(format!("set-up fill: {e}"));
            return out;
        }
    };
    let same_as_fill = |out: &mut Outcome, k: usize, r: &CliReport| {
        out.check(
            recommendation_json(r) == recommendation_json(&filled),
            || format!("warm op {k} differs from the cold set-up run of the same spec"),
        );
    };

    if traced {
        let mut rec = Recorder::new();
        let mut cache = NO_CACHE_TRAFFIC;
        add_counters(&mut cache, &filled);
        let mut ops = Vec::new();
        ops.extend(traced_op(
            &mut out,
            &mut rec,
            0,
            &text(0),
            Estimator::FitAndCached,
            Some(&filled),
        ));
        for k in 0..WARM_TRACED_OPS {
            let text = text(k);
            let reference = timed_configure(&text);
            if let Some(r) = record(&mut out, &format!("warm op {k}"), &reference, 1, 0) {
                add_counters(&mut cache, &r);
                if k == 0 {
                    same_as_fill(&mut out, k, &r);
                }
                ops.extend(traced_op(
                    &mut out,
                    &mut rec,
                    k as u64 + 1,
                    &text,
                    Estimator::Cached,
                    Some(&r),
                ));
            }
        }
        out.layers = layers::layer_metrics(&rec, &ops, cache, None);
        return out;
    }

    let start = Instant::now();
    for k in 0.. {
        let op = timed_configure(&text(k));
        // After set-up every operation must hit: zero misses.
        let report = record(&mut out, &format!("warm op {k}"), &op, 1, 0);
        if let (0, Some(r)) = (k, &report) {
            same_as_fill(&mut out, k, r);
        }
        if start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    out.timed_wall_s = start.elapsed().as_secs_f64();
    // Latency and decision quality cover complete cycles of the cluster
    // pool, so every run weighs the clusters alike.
    let covered = match out.op_s.len() / inputs::WARM_CLUSTERS * inputs::WARM_CLUSTERS {
        0 => out.op_s.len(),
        n => n,
    };
    out.op_s.truncate(covered);
    out.sim_iter_s.truncate(covered);
    out.estimate_err.truncate(covered);
    out
}

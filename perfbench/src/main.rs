//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable summary, then one JSON result line. Exits 1
//! when an operation failed or a correctness check did not hold, 2 on bad
//! arguments.

use perfbench::configure::{self, Ctx};
use perfbench::report::{result_line, Metric, Outcome};
use perfbench::stats::{geomean, median, tail};
use perfbench::{host, serve_mix};
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["cold_configure", "warm_configure", "serve_mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == name)
            .ok_or(format!("missing {name}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{name} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
    })
}

fn end_to_end(out: &Outcome, peak_rss_mb: f64) -> Vec<Metric> {
    let ops_per_s = out.completed as f64 / out.timed_wall_s;
    vec![
        Metric::new("setup_s", out.setup_s, "s"),
        Metric::new("op_s.p50", median(&out.op_s), "s"),
        Metric::new("op_s.tail", tail(&out.op_s).value, "s"),
        Metric::new("ops_per_s", ops_per_s, "1/s"),
        Metric::new("sim_iter_s", geomean(&out.sim_iter_s), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        work: work.clone(),
    };
    let window = host::Window::start();
    let out = match args.workload.as_str() {
        "cold_configure" => configure::cold(&ctx, args.trace),
        "warm_configure" => configure::warm(&ctx, args.trace),
        _ => serve_mix::serve(&ctx, args.trace),
    };
    let contention = window.finish();
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");

    let estimate_err = median(&out.estimate_err);
    let metrics = if args.trace {
        let mut m = out.layers.clone();
        m.push(Metric::new(
            "host.steal_frac",
            contention.steal_frac,
            "ratio",
        ));
        m.push(Metric::new("host.cpu_user_s", contention.cpu_user_s, "s"));
        m.push(Metric::new("host.cpu_sys_s", contention.cpu_sys_s, "s"));
        m
    } else {
        end_to_end(&out, peak_rss_mb)
    };
    let correct =
        out.correct() && !metrics.is_empty() && metrics.iter().all(|m| m.value.is_finite());

    println!(
        "perfbench workload={} seed={} seconds={} trace={} clients={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        out.clients,
        pipette::parallel::default_threads()
    );
    let t = tail(&out.op_s);
    println!(
        "op_s samples={} tail_percentile={:.1} error_rate={} ({} failed of {} attempted)",
        t.samples,
        t.percentile,
        if out.attempted > 0 {
            out.failed as f64 / out.attempted as f64
        } else {
            0.0
        },
        out.failed,
        out.attempted
    );
    println!(
        "host steal_frac={:.4} cpu_user_s={:.2} cpu_sys_s={:.2} peak_rss_mb={:.1}",
        contention.steal_frac, contention.cpu_user_s, contention.cpu_sys_s, peak_rss_mb
    );
    println!(
        "estimate_err={estimate_err:.6} over {} recommendations",
        out.estimate_err.len()
    );
    for m in &metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for p in &out.problems {
        println!("check failed: {p}");
        eprintln!("perfbench: check failed: {p}");
    }
    println!(
        "{}",
        result_line(correct, out.attempted.max(1), out.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

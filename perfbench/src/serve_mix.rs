//! The `serve_mix` workload: `pipette_serve::run_pipe` with the
//! configurator's `PipetteHandler`, driven in-process by closed-loop
//! clients over an in-memory pipe.
//!
//! The pipe's reader stamps the moment each line is handed to the server
//! and remembers which client sent it (the server assigns sequence numbers
//! in that order); the writer stamps each response line's arrival and
//! routes it back to its client.

use crate::configure::{fresh_dir, recommendation_json, timed_configure, traced_op, Ctx};
use crate::decompose::Estimator;
use crate::inputs::{self, Job, Kind, Request};
use crate::layers::{self, ServeLayers};
use crate::report::Outcome;
use crate::spans::Recorder;
use pipette_cli::PipetteHandler;
use pipette_serve::{
    run_pipe, ExecContext, Execution, ParseOutcome, RequestHandler, ServeSummary, ServerConfig,
};
use std::collections::BTreeMap;
use std::io::{self, BufRead, Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Closed-loop clients, one per server worker (the host has 2 vCPUs).
pub const CLIENTS: usize = 2;

/// Server workers.
pub const WORKERS: usize = 2;

/// Timed responses compared byte for byte with one-shot `run_configure`.
pub const IDENTITY_SAMPLE: usize = 3;

/// Per-sequence-number record of the pipe, shared by reader and writer.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Client that sent each line, indexed by sequence number.
    pub client: Vec<usize>,
    /// When each line was handed to the server.
    pub handoff: Vec<Instant>,
    /// When each response line reached the writer.
    pub arrival: Vec<Instant>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("a pipe thread panicked while holding the ledger")
}

/// The server's input: lines from the clients' channel.
struct PipeReader {
    rx: Receiver<(usize, String)>,
    line: Vec<u8>,
    pos: usize,
    ledger: Arc<Mutex<Ledger>>,
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let buf = self.fill_buf()?;
        let n = buf.len().min(out.len());
        out[..n].copy_from_slice(&buf[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for PipeReader {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos >= self.line.len() {
            // End of input once every client has hung up.
            let Ok((client, line)) = self.rx.recv() else {
                return Ok(&[]);
            };
            let mut ledger = lock(&self.ledger);
            ledger.client.push(client);
            ledger.handoff.push(Instant::now());
            drop(ledger);
            self.line = line.into_bytes();
            self.line.push(b'\n');
            self.pos = 0;
        }
        Ok(&self.line[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// The server's output: response lines routed to the client that sent
/// the request with the same sequence number.
struct PipeWriter {
    clients: Vec<Sender<(String, Instant)>>,
    pending: Vec<u8>,
    ledger: Arc<Mutex<Ledger>>,
}

impl Write for PipeWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.pending.extend_from_slice(buf);
        while let Some(end) = self.pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.pending.drain(..=end).collect();
            let arrived = Instant::now();
            let mut ledger = lock(&self.ledger);
            let seq = ledger.arrival.len();
            ledger.arrival.push(arrived);
            let client = *ledger
                .client
                .get(seq)
                .ok_or_else(|| io::Error::other(format!("response {seq} has no request")))?;
            drop(ledger);
            let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
            // A client that already left only loses its own response.
            let _ = self.clients[client].send((text, arrived));
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One request and its response, as a client saw them.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Index in the timed mix; `None` for a set-up request.
    pub k: Option<usize>,
    /// Client that sent it.
    pub client: usize,
    /// When the client sent it.
    pub sent: Instant,
    /// When the response arrived.
    pub arrived: Instant,
    /// The response line up to its trace payload (the whole line when it
    /// has none).
    pub response: String,
    /// `None` when the line carried no trace, else whether its tail was a
    /// well-formed `,"trace":[…]}`. The payload is dropped on arrival so
    /// the run's memory does not grow with the number of traced responses.
    pub trace: Option<bool>,
}

/// Where a response line's trace payload begins.
const TRACE_MARK: &str = r#","trace":["#;

impl Exchange {
    /// Wall seconds from send to response.
    pub fn secs(&self) -> f64 {
        self.arrived.duration_since(self.sent).as_secs_f64()
    }
}

/// A drained serve run.
#[derive(Debug)]
pub struct MixRun {
    /// Server start to the last set-up response.
    pub setup_s: f64,
    /// Set-up exchanges.
    pub setup: Vec<Exchange>,
    /// Timed exchanges.
    pub timed: Vec<Exchange>,
    /// Start of the timed region until every client had stopped.
    pub timed_wall_s: f64,
    /// The server's drain summary.
    pub summary: ServeSummary,
    /// The pipe's per-sequence record.
    pub ledger: Ledger,
}

/// Runs the server over the pipe with [`CLIENTS`] closed-loop clients.
/// Set-up request `i` goes from client `i % CLIENTS`, all clients at
/// once; `on_setup` runs once every set-up response is in. Then each
/// client repeatedly takes the next mix index `k`, sends `request(k)` and
/// waits for its response, until `seconds` have passed since the timed
/// region began. `started` is when the caller began starting the server.
///
/// # Errors
///
/// A pipe failure inside the server loop.
pub fn run_mix<H: RequestHandler>(
    handler: &H,
    started: Instant,
    config: ServerConfig,
    setup: &[String],
    request: impl Fn(usize) -> String + Sync,
    seconds: f64,
    on_setup: impl FnOnce(),
) -> io::Result<MixRun> {
    let ledger = Arc::new(Mutex::new(Ledger::default()));
    let (line_tx, line_rx) = mpsc::channel::<(usize, String)>();
    let (resp_txs, resp_rxs): (Vec<_>, Vec<_>) = (0..CLIENTS).map(|_| mpsc::channel()).unzip();
    let reader = PipeReader {
        rx: line_rx,
        line: Vec::new(),
        pos: 0,
        ledger: Arc::clone(&ledger),
    };
    let mut writer = PipeWriter {
        clients: resp_txs,
        pending: Vec::new(),
        ledger: Arc::clone(&ledger),
    };
    let setup_done = Barrier::new(CLIENTS + 1);
    let timed_start: OnceLock<Instant> = OnceLock::new();
    let go = Barrier::new(CLIENTS + 1);
    let next = AtomicUsize::new(0);

    let (served, exchanges, setup_s, timed_wall_s) = std::thread::scope(|s| {
        let server = s.spawn(move || run_pipe(handler, config, reader, &mut writer));
        let workers: Vec<_> = resp_rxs
            .into_iter()
            .enumerate()
            .map(|(client, rx)| {
                let tx = line_tx.clone();
                let (setup_done, go, timed_start, next, request) =
                    (&setup_done, &go, &timed_start, &next, &request);
                s.spawn(move || {
                    let mut done = Vec::new();
                    let mut exchange = |k: Option<usize>, line: String| -> bool {
                        let sent = Instant::now();
                        if tx.send((client, line)).is_err() {
                            return false;
                        }
                        let Ok((mut response, arrived)) = rx.recv() else {
                            return false;
                        };
                        let trace = response.find(TRACE_MARK).map(|at| {
                            let well_formed = response.ends_with("]}");
                            response.truncate(at);
                            well_formed
                        });
                        done.push(Exchange {
                            k,
                            client,
                            sent,
                            arrived,
                            response,
                            trace,
                        });
                        true
                    };
                    for line in setup.iter().skip(client).step_by(CLIENTS) {
                        exchange(None, line.clone());
                    }
                    setup_done.wait();
                    go.wait();
                    let start = *timed_start.get().expect("set before the go barrier");
                    let stop = start + Duration::from_secs_f64(seconds);
                    while Instant::now() < stop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if !exchange(Some(k), request(k)) {
                            break;
                        }
                    }
                    done
                })
            })
            .collect();
        drop(line_tx);
        setup_done.wait();
        let setup_s = started.elapsed().as_secs_f64();
        on_setup();
        let start = Instant::now();
        timed_start.set(start).expect("set once");
        go.wait();
        let exchanges: Vec<Exchange> = workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect();
        let timed_wall_s = start.elapsed().as_secs_f64();
        (
            server.join().expect("server thread panicked"),
            exchanges,
            setup_s,
            timed_wall_s,
        )
    });
    let summary = served?;
    let (setup, mut timed): (Vec<_>, Vec<_>) = exchanges.into_iter().partition(|e| e.k.is_none());
    timed.sort_by_key(|e| e.k);
    let ledger = std::mem::take(&mut *lock(&ledger));
    Ok(MixRun {
        setup_s,
        setup,
        timed,
        timed_wall_s,
        summary,
        ledger,
    })
}

/// A [`RequestHandler`] that times `parse` and `execute` of the handler it
/// delegates to.
pub struct TimedHandler<'a, H> {
    inner: &'a H,
    parses: Mutex<Vec<(Instant, Instant)>>,
    executes: Mutex<BTreeMap<u64, (Instant, Instant)>>,
}

impl<'a, H> TimedHandler<'a, H> {
    /// Wraps `inner`.
    pub fn new(inner: &'a H) -> Self {
        Self {
            inner,
            parses: Mutex::new(Vec::new()),
            executes: Mutex::new(BTreeMap::new()),
        }
    }

    /// Per-request serve timings for sequence numbers `from..`. Every line
    /// the benchmark sends parses to a job, so the `i`-th parse call is
    /// sequence number `i`.
    pub fn layers(&self, ledger: &Ledger, from: usize, summary: &ServeSummary) -> ServeLayers {
        let parses = lock(&self.parses);
        let executes = lock(&self.executes);
        let mut out = ServeLayers {
            shed: summary.shed,
            degraded: summary.degraded_requests,
            ..ServeLayers::default()
        };
        for (seq, &(exec_start, exec_end)) in executes.range(from as u64..) {
            let seq = *seq as usize;
            let (Some(&(parse_start, parse_end)), Some(&handoff), Some(&arrived)) = (
                parses.get(seq),
                ledger.handoff.get(seq),
                ledger.arrival.get(seq),
            ) else {
                continue;
            };
            out.parse_s
                .push(parse_end.duration_since(parse_start).as_secs_f64());
            out.queue_wait_s
                .push(exec_start.duration_since(handoff).as_secs_f64());
            out.execute_s
                .push(exec_end.duration_since(exec_start).as_secs_f64());
            out.commit_s
                .push(arrived.duration_since(exec_end).as_secs_f64());
        }
        out
    }
}

impl<H: RequestHandler> RequestHandler for TimedHandler<'_, H> {
    type Job = H::Job;

    fn parse(&self, line: &str) -> ParseOutcome<H::Job> {
        let start = Instant::now();
        let out = self.inner.parse(line);
        lock(&self.parses).push((start, Instant::now()));
        out
    }

    fn execute(&self, job: H::Job, ctx: &ExecContext) -> Execution {
        let start = Instant::now();
        let out = self.inner.execute(job, ctx);
        lock(&self.executes).insert(ctx.seq, (start, Instant::now()));
        out
    }

    fn overloaded_response(
        &self,
        seq: u64,
        queue_len: u64,
        limit: u64,
        retry_after_units: u64,
    ) -> String {
        self.inner
            .overloaded_response(seq, queue_len, limit, retry_after_units)
    }

    fn error_response(&self, seq: u64, message: &str) -> String {
        self.inner.error_response(seq, message)
    }
}

/// The raw text of a top-level scalar field of a response line (before
/// any trace payload, whose strings are escaped).
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let head = line.split(TRACE_MARK).next()?;
    let pat = format!(r#""{key}":"#);
    let rest = &head[head.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

/// The response `run_configure` implies for a request, up to the trace:
/// the serve envelope around the one-shot result (cache counters cleared,
/// since the server attaches its estimator pretrained).
pub fn expected_prefix(id: &str, seq: u64, result: &str) -> String {
    format!(
        r#"{{"id":"{id}","seq":{seq},"status":"ok","op":"configure","degraded":false,"result":{result}"#
    )
}

fn with_cache(job: &Job, dir: &str) -> Job {
    Job {
        estimator_cache_dir: Some(dir.to_string()),
        ..job.clone()
    }
}

/// `serve_mix`: set-up starts the server and warms both estimator keys;
/// then the clients run the seeded request mix.
pub fn serve(ctx: &Ctx, traced: bool) -> Outcome {
    let mut out = Outcome {
        clients: CLIENTS,
        ..Outcome::default()
    };
    let dir = ctx.work.join("serve-cache");
    if let Err(e) = fresh_dir(&dir) {
        out.problem(e);
        return out;
    }
    let dir_text = dir.to_string_lossy().into_owned();
    let warmups = inputs::serve_warmups(ctx.seed);
    let setup_lines: Vec<String> = warmups.iter().map(Request::line).collect();
    let config = ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    };
    let request = |k: usize| inputs::serve_request(ctx.seed, k).line();

    let started = Instant::now();
    let (handler, _sweep) = PipetteHandler::with_cache_dir(&dir);
    let mut after_setup = None;
    let timed_handler = TimedHandler::new(&handler);
    let run = run_mix(
        &timed_handler,
        started,
        config,
        &setup_lines,
        request,
        ctx.seconds,
        || after_setup = Some(handler.cache_counters()),
    );
    let run = match run {
        Ok(r) => r,
        Err(e) => {
            out.problem(format!("serve loop: {e}"));
            return out;
        }
    };
    out.setup_s = run.setup_s;
    out.timed_wall_s = run.timed_wall_s;

    // Set-up trains each estimator key once (one set-up request per key);
    // timed requests never miss.
    let keys = warmups.len() as u64;
    match after_setup {
        Some(c) if c.misses == keys && c.corrupt == 0 => {}
        other => out.problem(format!(
            "after set-up the cache shows {other:?}, expected {keys} misses"
        )),
    }
    let end = handler.cache_counters();
    out.check(end.misses == keys && end.corrupt == 0, || {
        format!("timed requests missed the estimator cache: {end:?}")
    });
    check_stream(&mut out, &run);

    // Latency and decision quality cover the complete blocks of the mix,
    // so every run weighs request kinds and clusters in the same shares.
    let block = inputs::BLOCK.len();
    let covered = match run.timed.len() / block * block {
        0 => run.timed.len(),
        n => n,
    };
    out.completed = run.timed.len();
    let mut ok_requests: Vec<(Request, &Exchange)> = Vec::new();
    for (i, e) in run.timed.iter().enumerate() {
        let req = inputs::serve_request(ctx.seed, e.k.expect("timed exchanges carry their index"));
        out.attempted += 1;
        let want = if req.kind == Kind::Deadline {
            "deadline"
        } else {
            "ok"
        };
        let number = |key| field(&e.response, key).and_then(|v| v.parse::<f64>().ok());
        let answered = field(&e.response, "status") == Some(want)
            && field(&e.response, "id") == Some(req.id.as_str());
        let (true, Some(m), Some(est)) = (
            answered,
            number("measured_seconds").filter(|m| m.is_finite() && *m > 0.0),
            number("estimated_seconds").filter(|est| est.is_finite()),
        ) else {
            out.failed += 1;
            out.problem(format!(
                "request {}: expected status {want} with a result, got {}",
                req.id,
                e.response.chars().take(200).collect::<String>()
            ));
            continue;
        };
        if i < covered {
            out.op_s.push(e.secs());
            out.sim_iter_s.push(m);
            out.estimate_err.push(((est - m) / m).abs());
        }
        ok_requests.push((req, e));
    }
    for e in &run.setup {
        out.check(field(&e.response, "status") == Some("ok"), || {
            format!(
                "set-up request failed: {}",
                e.response.chars().take(200).collect::<String>()
            )
        });
    }

    // Outside the timed region: a seeded sample of the timed responses
    // must equal one-shot run_configure results byte for byte.
    let candidates: Vec<&(Request, &Exchange)> = ok_requests
        .iter()
        .filter(|(r, _)| r.kind != Kind::Deadline)
        .collect();
    let mut rng = inputs::Rng::new(ctx.seed, 4);
    let mut picks: Vec<usize> = (0..candidates.len()).collect();
    rng.shuffle(&mut picks);
    picks.truncate(IDENTITY_SAMPLE);
    picks.sort_unstable();
    let mut rec = Recorder::new();
    let mut ops = Vec::new();
    for (n, &i) in picks.iter().enumerate() {
        let (req, e) = candidates[i];
        let text = with_cache(&req.job, &dir_text).to_json();
        let one_shot = timed_configure(&text);
        let report = match one_shot.result {
            Ok(r) => r,
            Err(err) => {
                out.problem(format!("one-shot run of {}: {err}", req.id));
                continue;
            }
        };
        let seq = field(&e.response, "seq").unwrap_or_default();
        let prefix = expected_prefix(
            &req.id,
            seq.parse().unwrap_or(u64::MAX),
            &recommendation_json(&report),
        );
        let identical = if req.trace {
            e.trace == Some(true) && e.response == prefix
        } else {
            e.trace.is_none() && e.response.strip_prefix(&prefix) == Some("}")
        };
        out.check(identical, || {
            format!(
                "response to {} differs from the one-shot run_configure result",
                req.id
            )
        });
        if traced {
            ops.extend(traced_op(
                &mut out,
                &mut rec,
                10 + n as u64,
                &text,
                Estimator::Cached,
                Some(&report),
            ));
        }
    }

    if traced {
        // The set-up fills, layer by layer: corpus and fit of each key.
        for (i, w) in warmups.iter().enumerate() {
            let text = with_cache(&w.job, &dir_text).to_json();
            ops.extend(traced_op(
                &mut out,
                &mut rec,
                i as u64,
                &text,
                Estimator::FitAndCached,
                None,
            ));
        }
        let serve_layers = timed_handler.layers(&run.ledger, run.setup.len(), &run.summary);
        out.layers = layers::layer_metrics(&rec, &ops, end, Some(&serve_layers));
    }
    out
}

/// Stream-level checks: one response per request, every id answered, and
/// each client's responses in increasing sequence order.
fn check_stream(out: &mut Outcome, run: &MixRun) {
    let total = run.setup.len() + run.timed.len();
    let s = &run.summary;
    out.check(
        s.admitted == total as u64 && s.completed == total as u64,
        || {
            format!(
                "server admitted {} and completed {} of {total} requests",
                s.admitted, s.completed
            )
        },
    );
    out.check(s.shed == 0 && s.errors == 0, || {
        format!("server shed {} and rejected {} requests", s.shed, s.errors)
    });
    let mut seqs: Vec<u64> = Vec::new();
    for client in 0..CLIENTS {
        let mut mine: Vec<&Exchange> = run
            .setup
            .iter()
            .chain(&run.timed)
            .filter(|e| e.client == client)
            .collect();
        mine.sort_by_key(|e| e.sent);
        let client_seqs: Vec<u64> = mine
            .iter()
            .filter_map(|e| field(&e.response, "seq").and_then(|v| v.parse().ok()))
            .collect();
        out.check(
            client_seqs.len() == mine.len() && client_seqs.windows(2).all(|w| w[0] < w[1]),
            || format!("client {client} saw sequence numbers out of order: {client_seqs:?}"),
        );
        for (e, &seq) in mine.iter().zip(&client_seqs) {
            let owner = run.ledger.client.get(seq as usize).copied();
            out.check(owner == Some(client), || {
                format!(
                    "response seq {seq} reached client {} but was sent by {owner:?}",
                    e.client
                )
            });
        }
        seqs.extend(client_seqs);
    }
    seqs.sort_unstable();
    out.check(seqs.iter().copied().eq(0..total as u64), || {
        "sequence numbers are not 0..n".to_string()
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Echoes the line after a pause, counting concurrent executions.
    struct Echo {
        running: AtomicUsize,
        peak: AtomicUsize,
    }

    impl RequestHandler for Echo {
        type Job = String;

        fn parse(&self, line: &str) -> ParseOutcome<String> {
            ParseOutcome::Job {
                op: "echo".to_string(),
                job: line.to_string(),
            }
        }

        fn execute(&self, job: String, ctx: &ExecContext) -> Execution {
            let now = self.running.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(2));
            self.running.fetch_sub(1, Ordering::SeqCst);
            Execution {
                response: format!(r#"{{"id":"{job}","seq":{},"status":"ok"}}"#, ctx.seq),
                outcome: "ok".to_string(),
                estimator_failure: false,
                degraded: false,
            }
        }

        fn overloaded_response(&self, seq: u64, _: u64, _: u64, _: u64) -> String {
            format!(r#"{{"seq":{seq},"status":"overloaded"}}"#)
        }

        fn error_response(&self, seq: u64, _: &str) -> String {
            format!(r#"{{"seq":{seq},"status":"error"}}"#)
        }
    }

    #[test]
    fn closed_loop_accounting() {
        let echo = Echo {
            running: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        };
        let timed = TimedHandler::new(&echo);
        let setup = vec!["w0".to_string(), "w1".to_string()];
        let mut setup_seen = false;
        let run = run_mix(
            &timed,
            Instant::now(),
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
            &setup,
            |k| format!("r{k}"),
            0.2,
            || setup_seen = true,
        )
        .expect("pipe run");
        assert!(setup_seen);
        assert_eq!(run.setup.len(), 2);
        assert!(run.timed.len() >= 2);
        // Closed loop: never more requests in flight than clients.
        assert!(echo.peak.load(Ordering::SeqCst) <= 2);
        // Timed indices are exactly 0..n, each answered with its own id.
        for (i, e) in run.timed.iter().enumerate() {
            assert_eq!(e.k, Some(i));
            assert_eq!(field(&e.response, "id"), Some(format!("r{i}").as_str()));
            assert!(e.arrived >= e.sent);
        }
        // Each client waits for its reply: its exchanges never overlap.
        for client in 0..2 {
            let mut mine: Vec<&Exchange> =
                run.timed.iter().filter(|e| e.client == client).collect();
            mine.sort_by_key(|e| e.sent);
            assert!(mine.windows(2).all(|w| w[0].arrived <= w[1].sent));
        }
        let mut out = Outcome::default();
        check_stream(&mut out, &run);
        assert!(out.problems.is_empty(), "{:?}", out.problems);
        let layers = timed.layers(&run.ledger, 2, &run.summary);
        assert_eq!(layers.execute_s.len(), run.timed.len());
        assert!(layers.execute_s.iter().all(|&s| s >= 0.002));
        assert!(run.timed_wall_s >= 0.2);
    }

    #[test]
    fn reads_scalar_fields_before_the_trace() {
        let line = r#"{"id":"r3","seq":5,"status":"ok","result":{"measured_seconds":1.5},"trace":["{\"seq\":9}"]}"#;
        assert_eq!(field(line, "id"), Some("r3"));
        assert_eq!(field(line, "seq"), Some("5"));
        assert_eq!(field(line, "measured_seconds"), Some("1.5"));
        assert_eq!(field(line, "missing"), None);
    }
}

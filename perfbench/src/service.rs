//! The `service` workload: an in-process `migd` daemon with two workers
//! over a cold result cache, loaded by a closed loop of two clients.

use crate::harness::{time_per_call, Ctx, Iter, Metrics, Probe, Qor, Workload};
use mig::Mig;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const PIPELINE: &str = "fhash!:TFD";
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Times each pool circuit is submitted per round.
const DRAWS: usize = 2;
/// Seconds each bench-timed layer call is repeated for.
const LAYER_BUDGET_S: f64 = 0.3;

/// Circuits in the pool.
const POOL: usize = 50;
/// Gate range of the pool's seeded control graphs.
const CTRL_GATES: std::ops::RangeInclusive<usize> = 600..=1000;

/// The pool: 0.6–1k-gate multipliers and hypotenuses, then seeded
/// control graphs drawn until `POOL` circuits. A control graph's size
/// swings widely with its seed, so draws outside `CTRL_GATES` are
/// rejected; that keeps the pool's total work nearly seed-independent.
fn pool(seed: u64) -> Result<Vec<(String, Mig)>, String> {
    let mut specs: Vec<String> = (8..=10).map(|w| format!("mult:{w}")).collect();
    specs.extend((5..=6).map(|w| format!("hyp:{w}")));
    let mut pool = specs
        .into_iter()
        .map(|s| crate::generate(&s).map(|m| (s, m)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut rng = crate::SplitMix(seed ^ 0x5E41_7CE0);
    while pool.len() < POOL {
        let spec = format!("ctrl:8:16:15:{}", rng.next_u64() >> 16);
        let m = crate::generate(&spec)?;
        if CTRL_GATES.contains(&m.num_gates()) {
            pool.push((spec, m));
        }
    }
    Ok(pool)
}

struct Job {
    spec: String,
    input: Mig,
    req: migd::JobRequest,
}

/// One finished submission as the client saw it.
struct Reply {
    latency_ms: f64,
    result: std::io::Result<migd::JobResult>,
    line: String,
}

/// The daemon of one round and the service state behind it.
struct Daemon {
    socket: PathBuf,
    cache: PathBuf,
    service: Arc<cli::service::OptService>,
    server: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Starts a daemon on an empty cache file and waits until it answers.
    fn start(dir: &Path) -> Result<Daemon, String> {
        let socket = dir.join("d.sock");
        let cache = dir.join("cache.bin");
        match std::fs::remove_file(&cache) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("{}: {e}", cache.display())),
        }
        let service = Arc::new(cli::service::OptService::new(Some(cache.clone())));
        let runner = Arc::new(cli::daemon::PipelineRunner::new(Arc::clone(&service)));
        let server = {
            let socket = socket.clone();
            std::thread::spawn(move || migd::serve(&socket, WORKERS, runner))
        };
        for _ in 0..5000 {
            if migd::ping(&socket).unwrap_or(false) {
                return Ok(Daemon {
                    socket,
                    cache,
                    service,
                    server,
                });
            }
            if server.is_finished() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ = migd::shutdown(&socket);
        match server.join() {
            Ok(Err(e)) => Err(format!("daemon failed to start: {e}")),
            _ => Err("daemon did not answer".to_string()),
        }
    }

    fn stop(self) -> Result<Stopped, String> {
        migd::shutdown(&self.socket).map_err(|e| format!("daemon shutdown: {e}"))?;
        match self.server.join() {
            Ok(Ok(())) => Ok(Stopped {
                cache: self.cache,
                service: self.service,
            }),
            Ok(Err(e)) => Err(format!("daemon: {e}")),
            Err(_) => Err("daemon thread panicked".to_string()),
        }
    }
}

/// What a finished round leaves for the bench-timed cache metrics.
struct Stopped {
    cache: PathBuf,
    service: Arc<cli::service::OptService>,
}

pub struct Service {
    seed: u64,
    /// Started by set-up, taken by the first round; later rounds start
    /// their own.
    daemon: Option<Daemon>,
    dir: crate::TempDir,
    jobs: Vec<Job>,
    /// Indices into `jobs`, in submission order.
    order: Vec<usize>,
    last: Option<Stopped>,
    /// The last round's request and result lines.
    request_lines: Vec<String>,
    result_lines: Vec<String>,
}

impl Workload for Service {
    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let dir = crate::TempDir::new()?;
        let mut jobs = Vec::new();
        for (k, (spec, m)) in pool(ctx.seed)?.into_iter().enumerate() {
            let circuit = io::blif::Blif::from_mig(&m, "pool").to_text();
            // The reference input is the circuit as the daemon parses it.
            let input = io::blif::Blif::parse(&circuit)
                .and_then(|b| b.to_mig())
                .map_err(|e| format!("{spec}: {e}"))?;
            let req = migd::JobRequest {
                id: format!("j{k}"),
                pipeline: PIPELINE.to_string(),
                threads: 1,
                format: "blif".to_string(),
                circuit,
            };
            jobs.push(Job { spec, input, req });
        }
        let mut order: Vec<usize> = (0..jobs.len()).flat_map(|k| [k; DRAWS]).collect();
        crate::SplitMix(ctx.seed).shuffle(&mut order);
        let daemon = Some(Daemon::start(dir.path())?);
        Ok(Service {
            seed: ctx.seed,
            daemon,
            dir,
            jobs,
            order,
            last: None,
            request_lines: Vec::new(),
            result_lines: Vec::new(),
        })
    }

    fn iterate(&mut self, probe: &mut Probe) -> Result<Iter, String> {
        // Free the previous round's service first, so peak memory does
        // not depend on how many rounds a run makes.
        self.last = None;
        let daemon = match self.daemon.take() {
            Some(d) => d,
            None => Daemon::start(self.dir.path())?,
        };
        let replies: Vec<Mutex<Option<Reply>>> =
            self.order.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        probe.time(|| {
            std::thread::scope(|s| {
                for _ in 0..CLIENTS {
                    s.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&k) = self.order.get(i) else { break };
                        let mut line = String::new();
                        let t = Instant::now();
                        let result = migd::submit(&daemon.socket, &self.jobs[k].req, |l| {
                            if l.starts_with("{\"type\":\"result\"") {
                                line = l.to_string();
                            }
                        });
                        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                        *replies[i].lock().expect("reply slot poisoned") = Some(Reply {
                            latency_ms,
                            result,
                            line,
                        });
                    });
                }
            });
        });
        self.last = Some(daemon.stop()?);

        let mut it = Iter::default();
        self.result_lines.clear();
        self.request_lines.clear();
        for (slot, &k) in replies.into_iter().zip(&self.order) {
            let job = &self.jobs[k];
            let reply = slot
                .into_inner()
                .expect("reply slot poisoned")
                .ok_or("a job was never submitted")?;
            it.attempted += 1;
            it.op_ms.push(reply.latency_ms);
            match check(job, reply.result) {
                Ok((qor, server_ms)) => {
                    it.qor.push(qor);
                    it.server_ms.push(server_ms);
                }
                Err(e) => {
                    eprintln!("check failed: {} ({}): {e}", job.req.id, job.spec);
                    it.failed += 1;
                    it.server_ms.push(0.0);
                }
            }
            self.request_lines
                .push(migd::render_request(&migd::Request::Job(job.req.clone())));
            self.result_lines.push(reply.line);
        }
        Ok(it)
    }

    fn bench_layers(&mut self, out: &mut Metrics) {
        let texts: Vec<&str> = self.jobs.iter().map(|j| j.req.circuit.as_str()).collect();
        let pool_mb = texts.iter().map(|s| s.len()).sum::<usize>() as f64 / 1e6;
        let parse_s = time_per_call(LAYER_BUDGET_S, || {
            for t in &texts {
                let _ = std::hint::black_box(io::blif::Blif::parse(t).and_then(|b| b.to_mig()));
            }
        });
        let write_s = time_per_call(LAYER_BUDGET_S, || {
            for j in &self.jobs {
                std::hint::black_box(io::blif::Blif::from_mig(&j.input, "pool").to_text());
            }
        });
        out.push(("io.blif_parse_mb_s", pool_mb / parse_s, "MB/s"));
        out.push(("io.blif_write_mb_s", pool_mb / write_s, "MB/s"));
        out.push((
            "migd.request_parse_mb_s",
            parse_rate(&self.request_lines, |l| migd::parse_request(l).is_ok()),
            "MB/s",
        ));
        out.push((
            "migd.result_parse_mb_s",
            parse_rate(&self.result_lines, |l| migd::parse_result(l).is_some()),
            "MB/s",
        ));
        if let Some(last) = &self.last {
            let t = Instant::now();
            let flushed = last.service.flush();
            let flush_ms = t.elapsed().as_secs_f64() * 1e3;
            if let Err(e) = flushed {
                eprintln!("cache flush failed: {e}");
            }
            let file_kb = std::fs::metadata(&last.cache).map_or(0, |m| m.len()) as f64 / 1024.0;
            let t = Instant::now();
            drop(std::hint::black_box(cli::service::OptService::new(Some(
                last.cache.clone(),
            ))));
            out.push(("fcache.flush_ms", flush_ms, "ms"));
            out.push(("fcache.file_kb", file_kb, "KB"));
            out.push(("fcache.load_ms", t.elapsed().as_secs_f64() * 1e3, "ms"));
        }
    }

    fn describe(&self) -> String {
        let gates: Vec<usize> = self.jobs.iter().map(|j| j.input.num_gates()).collect();
        format!(
            "in-process migd, {WORKERS} workers, empty cache file per round; closed loop of \
             {CLIENTS} clients; {} jobs per round (\"{PIPELINE}\", threads 1) drawn from {} \
             circuits of {}..{} gates, {} gates in total\nseed: {} (the job order and the ctrl \
             circuits' seeds)",
            self.order.len(),
            self.jobs.len(),
            gates.iter().min().unwrap_or(&0),
            gates.iter().max().unwrap_or(&0),
            self.order.iter().map(|&k| gates[k]).sum::<usize>(),
            self.seed
        )
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if let Some(d) = self.daemon.take() {
            if let Err(e) = d.stop() {
                eprintln!("{e}");
            }
        }
    }
}

/// Checks one reply: `ok`, parseable, and equivalent to the job input by
/// random simulation. Returns the job's QoR and the daemon's own time.
fn check(job: &Job, result: std::io::Result<migd::JobResult>) -> Result<(Qor, f64), String> {
    let result = result.map_err(|e| format!("transport: {e}"))?;
    if !result.outcome.ok {
        return Err(format!("job error: {}", result.outcome.error));
    }
    let out = io::blif::Blif::parse(&result.outcome.circuit)
        .and_then(|b| b.to_mig())
        .map_err(|e| format!("result circuit: {e}"))?;
    let same_shape =
        out.num_inputs() == job.input.num_inputs() && out.num_outputs() == job.input.num_outputs();
    if !same_shape || !cec::equivalent_random(&job.input, &out, 16, 0x5EED) {
        return Err("output differs from input".to_string());
    }
    Ok((
        Qor::of(&job.input, &out),
        result.outcome.runtime_ns as f64 / 1e6,
    ))
}

/// MB/s of `parse` over `lines`, cycling through them for the layer
/// budget.
fn parse_rate(lines: &[String], parse: impl Fn(&str) -> bool) -> f64 {
    if lines.is_empty() {
        return 0.0;
    }
    let mut bytes = 0usize;
    let mut next = 0usize;
    let t0 = Instant::now();
    while bytes == 0 || t0.elapsed().as_secs_f64() < LAYER_BUDGET_S {
        let line = &lines[next % lines.len()];
        std::hint::black_box(parse(line));
        bytes += line.len().max(1);
        next += 1;
    }
    bytes as f64 / 1e6 / t0.elapsed().as_secs_f64()
}

//! The `migd` optimization daemon: a unix-socket server that accepts
//! one-line JSON job requests, streams JSONL progress back (the same
//! line schema as `migopt --trace`, validated by `trace_lint`) and ends
//! each stream with a terminal `result` line.
//!
//! The crate owns the *transport*: request/response wire format, the
//! connection queue and the worker pool. What a job actually does is
//! injected through [`JobRunner`] — the CLI provides a runner that
//! executes optimization pipelines over a shared engine, and tests
//! provide toy runners. This keeps the dependency arrow pointing the
//! right way (`cli` → `migd`) while the protocol stays reusable.
//!
//! Wire protocol, line-oriented in both directions:
//!
//! ```text
//! client -> {"type":"job","id":"j1","pipeline":"fhash!","threads":4,
//!            "format":"blif","circuit":".model ..."}
//! server -> {"type":"meta","version":1,"clock":"ns"}
//! server -> {"type":"span_begin","name":"job:j1","tid":0,"ts_ns":...}
//! server -> ... spans / counters as the pipeline progresses ...
//! server -> {"type":"result","name":"j1","status":"ok","size":123,
//!            "depth":17,"runtime_ns":...,"cached":false,"circuit":"..."}
//! ```
//!
//! One request per connection; concurrency is expressed by opening
//! several connections, which the worker pool serves in parallel.
//! `{"type":"ping"}` and `{"type":"shutdown"}` are single-line
//! request/response exchanges.

use obs::json::{self, escape, Value};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Per-connection read timeout: a client that connects and then stalls
/// must not pin a worker forever.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Longest request line a worker reads, newline included; a longer line
/// is answered with an error result instead of growing a buffer for as
/// long as the client keeps sending. `Blif::from_mig` writes about 47
/// bytes per gate, so the largest corpus job (`ctrl:32:16:3000`, 729k
/// gates) is about 35 MB of BLIF, plus one escape byte per line on the
/// wire; 128 MiB leaves more than three times that.
pub const MAX_REQUEST_BYTES: u64 = 128 << 20;

/// An optimization job as received on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRequest {
    /// Client-chosen identifier, echoed in the terminal `result` line.
    pub id: String,
    /// Pipeline specification (the `migopt` pass string).
    pub pipeline: String,
    /// Default thread count for sharded passes.
    pub threads: usize,
    /// Circuit serialization format: `"blif"` or `"aag"`.
    pub format: String,
    /// The circuit text in `format`.
    pub circuit: String,
}

/// What a finished job reports back.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JobOutcome {
    /// Whether the pipeline ran to completion.
    pub ok: bool,
    /// Result gate count (when `ok`).
    pub size: u64,
    /// Result depth (when `ok`).
    pub depth: u64,
    /// Wall-clock nanoseconds spent running the job (excludes queueing).
    pub runtime_ns: u64,
    /// Whether the result was served from the whole-job result cache.
    pub cached: bool,
    /// The optimized circuit (BLIF text) when `ok`.
    pub circuit: String,
    /// Failure description when not `ok`.
    pub error: String,
}

impl JobOutcome {
    /// A failed outcome with a message.
    pub fn failed(error: impl Into<String>) -> JobOutcome {
        JobOutcome {
            ok: false,
            error: error.into(),
            ..JobOutcome::default()
        }
    }
}

/// Executes jobs on behalf of the server. `emit` streams one JSONL line
/// (without the trailing newline) back to the requesting client;
/// `worker` is the stable pool index of the executing worker, usable as
/// the `tid` of emitted spans.
pub trait JobRunner: Send + Sync {
    /// Runs one job to completion.
    fn run(&self, req: &JobRequest, worker: usize, emit: &mut dyn FnMut(&str)) -> JobOutcome;
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run an optimization job.
    Job(JobRequest),
    /// Liveness check.
    Ping,
    /// Stop the server after answering.
    Shutdown,
}

/// Renders a request as its one-line wire form (no trailing newline).
pub fn render_request(req: &Request) -> String {
    match req {
        Request::Ping => "{\"type\":\"ping\"}".into(),
        Request::Shutdown => "{\"type\":\"shutdown\"}".into(),
        Request::Job(j) => format!(
            "{{\"type\":\"job\",\"id\":\"{}\",\"pipeline\":\"{}\",\"threads\":{},\
             \"format\":\"{}\",\"circuit\":\"{}\"}}",
            escape(&j.id),
            escape(&j.pipeline),
            j.threads,
            escape(&j.format),
            escape(&j.circuit),
        ),
    }
}

/// Parses one request line.
///
/// # Errors
///
/// A human-readable description of the first defect found.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut v = json::parse(line)?;
    let ty = v
        .get("type")
        .and_then(Value::as_str)
        .ok_or("request missing \"type\"")?;
    match ty {
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        "job" => {
            let threads = match v.get("threads") {
                None => 1,
                Some(t) => t
                    .as_i64()
                    .filter(|&t| t >= 1)
                    .ok_or("job field \"threads\" must be a positive integer")?
                    as usize,
            };
            let format = match v.get("format") {
                None => "blif".to_owned(),
                Some(f) => f
                    .as_str()
                    .map(str::to_owned)
                    .ok_or("job field \"format\" must be a string")?,
            };
            let mut field =
                |k: &str| take_str(&mut v, k).ok_or(format!("job missing string field \"{k}\""));
            Ok(Request::Job(JobRequest {
                id: field("id")?,
                pipeline: field("pipeline")?,
                threads,
                format,
                circuit: field("circuit")?,
            }))
        }
        other => Err(format!("unknown request type \"{other}\"")),
    }
}

/// Moves the string member `key` out of object `v`, so a large value
/// such as a circuit is not copied again.
fn take_str(v: &mut Value, key: &str) -> Option<String> {
    let Value::Obj(members) = v else { return None };
    match members.iter_mut().find(|(k, _)| k == key) {
        Some((_, Value::Str(s))) => Some(std::mem::take(s)),
        _ => None,
    }
}

/// Renders the terminal `result` line for a job (no trailing newline).
/// The line satisfies the `result` entry of [`obs::export::JSONL_SCHEMA`].
pub fn render_result(id: &str, outcome: &JobOutcome) -> String {
    if outcome.ok {
        format!(
            "{{\"type\":\"result\",\"name\":\"{}\",\"status\":\"ok\",\"size\":{},\
             \"depth\":{},\"runtime_ns\":{},\"cached\":{},\"circuit\":\"{}\"}}",
            escape(id),
            outcome.size,
            outcome.depth,
            outcome.runtime_ns,
            outcome.cached,
            escape(&outcome.circuit),
        )
    } else {
        format!(
            "{{\"type\":\"result\",\"name\":\"{}\",\"status\":\"error\",\"error\":\"{}\"}}",
            escape(id),
            escape(&outcome.error),
        )
    }
}

/// A client-side view of a terminal `result` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult {
    /// The job id the line answers (`name` on the wire).
    pub id: String,
    /// The outcome fields.
    pub outcome: JobOutcome,
}

/// Parses a terminal `result` line; `None` when the line is some other
/// stream line (a span or counter).
pub fn parse_result(line: &str) -> Option<JobResult> {
    let mut v = json::parse(line).ok()?;
    if v.get("type").and_then(Value::as_str)? != "result" {
        return None;
    }
    let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_i64).unwrap_or(0) as u64;
    let mut outcome = JobOutcome {
        ok: v.get("status").and_then(Value::as_str)? == "ok",
        size: num(&v, "size"),
        depth: num(&v, "depth"),
        runtime_ns: num(&v, "runtime_ns"),
        cached: matches!(v.get("cached"), Some(Value::Bool(true))),
        ..JobOutcome::default()
    };
    let id = take_str(&mut v, "name")?;
    outcome.circuit = take_str(&mut v, "circuit").unwrap_or_default();
    outcome.error = take_str(&mut v, "error").unwrap_or_default();
    Some(JobResult { id, outcome })
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

struct Queue {
    conns: Mutex<(VecDeque<UnixStream>, bool)>,
    ready: Condvar,
}

impl Queue {
    fn push(&self, s: UnixStream) {
        self.conns.lock().expect("queue poisoned").0.push_back(s);
        self.ready.notify_one();
    }

    fn close(&self) {
        self.conns.lock().expect("queue poisoned").1 = true;
        self.ready.notify_all();
    }

    fn pop(&self) -> Option<UnixStream> {
        let mut guard = self.conns.lock().expect("queue poisoned");
        loop {
            if let Some(s) = guard.0.pop_front() {
                return Some(s);
            }
            if guard.1 {
                return None;
            }
            guard = self.ready.wait(guard).expect("queue poisoned");
        }
    }
}

/// Runs the daemon on `socket` until a `shutdown` request arrives:
/// binds the socket (replacing a stale file), dispatches incoming
/// connections to `workers` pool threads, one request per connection.
/// Blocks the calling thread for the server's lifetime; the socket file
/// is removed on the way out.
///
/// # Errors
///
/// Socket setup failures; per-connection I/O errors are handled by
/// dropping that connection.
pub fn serve(socket: &Path, workers: usize, runner: Arc<dyn JobRunner>) -> std::io::Result<()> {
    match std::fs::remove_file(socket) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let listener = UnixListener::bind(socket)?;
    let queue = Arc::new(Queue {
        conns: Mutex::new((VecDeque::new(), false)),
        ready: Condvar::new(),
    });
    let stop = Arc::new(AtomicBool::new(false));
    let mut pool = Vec::new();
    for worker in 0..workers.max(1) {
        let queue = Arc::clone(&queue);
        let stop = Arc::clone(&stop);
        let runner = Arc::clone(&runner);
        let socket = socket.to_path_buf();
        pool.push(std::thread::spawn(move || {
            while let Some(stream) = queue.pop() {
                let handled = handle_connection(stream, worker, runner.as_ref(), MAX_REQUEST_BYTES);
                if handled == Handled::Shutdown {
                    stop.store(true, Ordering::SeqCst);
                    // Unblock the accept loop so it can observe `stop`.
                    drop(UnixStream::connect(&socket));
                }
            }
        }));
    }
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match conn {
            Ok(stream) => queue.push(stream),
            Err(_) => continue,
        }
    }
    queue.close();
    for t in pool {
        let _ = t.join();
    }
    std::fs::remove_file(socket).ok();
    Ok(())
}

#[derive(PartialEq, Eq)]
enum Handled {
    Served,
    Shutdown,
}

/// Serves the one request of a connection, reading at most `max_line`
/// bytes of it.
fn handle_connection(
    stream: UnixStream,
    worker: usize,
    runner: &dyn JobRunner,
    max_line: u64,
) -> Handled {
    stream.set_read_timeout(Some(READ_TIMEOUT)).ok();
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return Handled::Served,
    });
    let mut writer = stream;
    let mut line = Vec::new();
    if reader
        .by_ref()
        .take(max_line)
        .read_until(b'\n', &mut line)
        .is_err()
    {
        return Handled::Served;
    }
    let mut send = |l: &str| {
        // A vanished client only loses its own stream; the job result
        // still lands in the shared cache for the next request.
        let _ = writer.write_all(l.as_bytes());
        let _ = writer.write_all(b"\n");
        let _ = writer.flush();
    };
    let request = if line.len() as u64 == max_line && !line.ends_with(b"\n") {
        Err(format!("request line longer than {max_line} bytes"))
    } else {
        std::str::from_utf8(&line)
            .map_err(|e| format!("request line is not UTF-8: {e}"))
            .and_then(|l| parse_request(l.trim_end()))
    };
    match request {
        Err(e) => {
            send(&render_result("?", &JobOutcome::failed(e)));
            Handled::Served
        }
        Ok(Request::Ping) => {
            send("{\"type\":\"result\",\"name\":\"ping\",\"status\":\"ok\"}");
            Handled::Served
        }
        Ok(Request::Shutdown) => {
            send("{\"type\":\"result\",\"name\":\"shutdown\",\"status\":\"ok\"}");
            Handled::Shutdown
        }
        Ok(Request::Job(req)) => {
            let outcome = runner.run(&req, worker, &mut send);
            send(&render_result(&req.id, &outcome));
            Handled::Served
        }
    }
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// Submits one job and blocks until its terminal `result` line, calling
/// `on_line` with every received line (progress lines *and* the terminal
/// line) as it arrives.
///
/// # Errors
///
/// Connection/IO failures, or a stream that ends without a terminal
/// `result` line for this job id.
pub fn submit(
    socket: &Path,
    req: &JobRequest,
    mut on_line: impl FnMut(&str),
) -> std::io::Result<JobResult> {
    let mut stream = UnixStream::connect(socket)?;
    stream.write_all(render_request(&Request::Job(req.clone())).as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()?;
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let line = line?;
        on_line(&line);
        if let Some(result) = parse_result(&line) {
            if result.id == req.id || result.id == "?" {
                return Ok(result);
            }
        }
    }
    Err(std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        "stream ended before the job's result line",
    ))
}

fn one_shot(socket: &Path, req: &Request) -> std::io::Result<String> {
    let mut stream = UnixStream::connect(socket)?;
    stream.set_read_timeout(Some(READ_TIMEOUT)).ok();
    stream.write_all(render_request(req).as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    Ok(line)
}

/// Liveness check: whether a daemon answers on `socket`.
///
/// # Errors
///
/// Connection/IO failures (a missing socket is the common "not running").
pub fn ping(socket: &Path) -> std::io::Result<bool> {
    let line = one_shot(socket, &Request::Ping)?;
    Ok(parse_result(line.trim_end()).is_some_and(|r| r.outcome.ok))
}

/// Asks the daemon on `socket` to stop; returns once it acknowledged.
///
/// # Errors
///
/// Connection/IO failures.
pub fn shutdown(socket: &Path) -> std::io::Result<()> {
    one_shot(socket, &Request::Shutdown).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sock(tag: &str) -> std::path::PathBuf {
        // Unix socket paths are length-limited (~108 bytes) — stay short.
        std::env::temp_dir().join(format!("migd_{tag}_{}.sock", std::process::id()))
    }

    fn sample_job(id: &str) -> JobRequest {
        JobRequest {
            id: id.into(),
            pipeline: "fhash!:T@1".into(),
            threads: 2,
            format: "blif".into(),
            circuit: ".model t\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n".into(),
        }
    }

    /// Echoes the request back: a meta line, one counter, then done.
    struct ToyRunner;

    impl JobRunner for ToyRunner {
        fn run(&self, req: &JobRequest, worker: usize, emit: &mut dyn FnMut(&str)) -> JobOutcome {
            emit("{\"type\":\"meta\",\"version\":1,\"clock\":\"ns\"}");
            emit(&format!(
                "{{\"type\":\"counter\",\"name\":\"toy.worker\",\"value\":{}}}",
                worker + 1
            ));
            JobOutcome {
                ok: true,
                size: req.circuit.len() as u64,
                depth: req.threads as u64,
                runtime_ns: 7,
                cached: false,
                circuit: req.circuit.clone(),
                error: String::new(),
            }
        }
    }

    fn start(socket: &Path, workers: usize) -> std::thread::JoinHandle<std::io::Result<()>> {
        let socket = socket.to_path_buf();
        std::thread::spawn(move || serve(&socket, workers, Arc::new(ToyRunner)))
    }

    fn wait_for(socket: &Path) {
        for _ in 0..500 {
            if ping(socket).unwrap_or(false) {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("daemon never came up on {}", socket.display());
    }

    #[test]
    fn request_lines_roundtrip() {
        for req in [
            Request::Ping,
            Request::Shutdown,
            Request::Job(JobRequest {
                circuit: "line one\nline \"two\"\n".into(),
                ..sample_job("j\"1\"")
            }),
        ] {
            assert_eq!(parse_request(&render_request(&req)).unwrap(), req);
        }
        assert!(parse_request("{\"type\":\"job\"}").is_err());
        assert!(parse_request(
            "{\"type\":\"job\",\"id\":\"a\",\"pipeline\":\"p\",\
                               \"circuit\":\"c\",\"threads\":0}"
        )
        .is_err());
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{\"type\":\"nope\"}").is_err());
    }

    #[test]
    fn result_lines_roundtrip() {
        let ok = JobOutcome {
            ok: true,
            size: 12,
            depth: 3,
            runtime_ns: 123_456,
            cached: true,
            circuit: ".model m\n.end\n".into(),
            error: String::new(),
        };
        let parsed = parse_result(&render_result("job-1", &ok)).unwrap();
        assert_eq!(parsed.id, "job-1");
        assert_eq!(parsed.outcome, ok);
        let err = JobOutcome::failed("parse error: line 3");
        let parsed = parse_result(&render_result("job-2", &err)).unwrap();
        assert!(!parsed.outcome.ok);
        assert_eq!(parsed.outcome.error, "parse error: line 3");
        // Non-result stream lines are passed over.
        assert_eq!(
            parse_result("{\"type\":\"counter\",\"name\":\"x\",\"value\":1}"),
            None
        );
    }

    #[test]
    fn mutated_request_and_result_lines_never_panic() {
        let ok = JobOutcome {
            ok: true,
            size: 12,
            depth: 3,
            runtime_ns: 123_456,
            cached: true,
            circuit: ".model m\n.end\n".into(),
            error: String::new(),
        };
        // The control characters render as `\u` escapes.
        let lines = [
            render_request(&Request::Job(sample_job("j\"1\"\u{1}"))),
            render_request(&Request::Ping),
            render_result("job-1", &ok),
            render_result("job-2", &JobOutcome::failed("parse error:\u{1f} line 3")),
        ];
        let mut rng = testrand::Rng::new(0x41D_0C0D);
        let mut parsed = 0;
        for (i, line) in lines.iter().enumerate() {
            for case in 0..2_500 {
                let bytes = rng.mutate(line.as_bytes(), |r| r.next_u64() as u8);
                let text = String::from_utf8_lossy(&bytes);
                match std::panic::catch_unwind(|| {
                    usize::from(parse_request(&text).is_ok())
                        + usize::from(parse_result(&text).is_some())
                }) {
                    Ok(n) => parsed += n,
                    Err(_) => panic!("line {i} mutant {case} panicked: {text:?}"),
                }
            }
        }
        assert!(parsed > 0, "no mutant parsed");
    }

    #[test]
    fn serves_jobs_and_streams_lines_in_order() {
        let socket = sock("serve");
        let server = start(&socket, 2);
        wait_for(&socket);

        let mut lines = Vec::new();
        let result = submit(&socket, &sample_job("j1"), |l| lines.push(l.to_owned())).unwrap();
        assert!(result.outcome.ok);
        assert_eq!(result.id, "j1");
        assert_eq!(result.outcome.circuit, sample_job("j1").circuit);
        // The captured stream is schema-valid JSONL: meta first, then
        // the progress counter, then the terminal result line.
        assert!(lines[0].contains("\"meta\""));
        assert!(lines[1].contains("toy.worker"));
        assert!(parse_result(lines.last().unwrap()).is_some());
        obs::export::validate_jsonl(&(lines.join("\n") + "\n")).unwrap();

        // A malformed request gets an error result, not a hangup.
        let mut s = UnixStream::connect(&socket).unwrap();
        s.write_all(b"{\"type\":\"job\",\"id\":1}\n").unwrap();
        let mut line = String::new();
        BufReader::new(s).read_line(&mut line).unwrap();
        assert!(!parse_result(line.trim_end()).unwrap().outcome.ok);

        shutdown(&socket).unwrap();
        server.join().unwrap().unwrap();
        assert!(!socket.exists());
    }

    #[test]
    fn deeply_nested_request_gets_an_error_and_the_daemon_keeps_serving() {
        let socket = sock("deep");
        let server = start(&socket, 1);
        wait_for(&socket);

        // Unbounded, this nesting would overflow the worker's stack and
        // abort the whole process.
        let mut s = UnixStream::connect(&socket).unwrap();
        s.write_all(format!("{}\n", "[".repeat(10_000)).as_bytes())
            .unwrap();
        let mut line = String::new();
        BufReader::new(s).read_line(&mut line).unwrap();
        let result = parse_result(line.trim_end()).unwrap();
        assert!(!result.outcome.ok);
        assert!(result.outcome.error.contains("nesting"), "{line}");

        let result = submit(&socket, &sample_job("after"), |_| {}).unwrap();
        assert!(result.outcome.ok);
        shutdown(&socket).unwrap();
        server.join().unwrap().unwrap();
    }

    #[test]
    fn over_long_request_line_gets_an_error_result() {
        const CAP: u64 = 1024;
        let serve_one = |request: Vec<u8>| {
            let (client, server) = UnixStream::pair().unwrap();
            let worker = std::thread::spawn(move || handle_connection(server, 0, &ToyRunner, CAP));
            // The client keeps sending past the cap; the worker stops
            // reading there, answers and hangs up.
            let mut writer = client.try_clone().unwrap();
            let sender = std::thread::spawn(move || drop(writer.write_all(&request)));
            let result = BufReader::new(client)
                .lines()
                .find_map(|l| parse_result(&l.unwrap()))
                .unwrap();
            assert!(worker.join().unwrap() == Handled::Served);
            sender.join().unwrap();
            result
        };

        let mut long = render_request(&Request::Job(sample_job("long"))).into_bytes();
        long.resize(long.len() + 64 * CAP as usize, b' ');
        long.push(b'\n');
        let result = serve_one(long);
        assert!(!result.outcome.ok);
        assert!(
            result.outcome.error.contains("longer than 1024 bytes"),
            "{}",
            result.outcome.error
        );

        // A line of exactly the cap, newline included, is still served.
        let mut exact = render_request(&Request::Job(sample_job("exact"))).into_bytes();
        exact.resize(CAP as usize - 1, b' ');
        exact.push(b'\n');
        let result = serve_one(exact);
        assert!(result.outcome.ok, "{}", result.outcome.error);
        assert_eq!(result.id, "exact");
    }

    #[test]
    fn concurrent_clients_are_served_in_parallel() {
        let socket = sock("conc");
        let server = start(&socket, 4);
        wait_for(&socket);

        let mut clients = Vec::new();
        for k in 0..8 {
            let socket = socket.clone();
            clients.push(std::thread::spawn(move || {
                submit(&socket, &sample_job(&format!("c{k}")), |_| {}).unwrap()
            }));
        }
        for (k, c) in clients.into_iter().enumerate() {
            let result = c.join().unwrap();
            assert!(result.outcome.ok, "client {k}");
            assert_eq!(result.id, format!("c{k}"));
        }
        shutdown(&socket).unwrap();
        server.join().unwrap().unwrap();
    }
}

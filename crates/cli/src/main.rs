//! `migopt` — read a circuit (`.aag`, `.aig`, `.blif`), run an ABC-style
//! pass pipeline, write the result.
//!
//! ```text
//! migopt -i adder.aig -p "strash; algebraic; fhash:TFD; fhash:B; cec" -o adder_opt.blif
//! ```
//!
//! Observability surface: `--trace <file>` records the pipeline's span
//! tree (`.jsonl` event stream or Chrome trace-event JSON, by
//! extension), `--metrics` prints the run's metric-registry totals, and
//! `--json-report <file>` writes the per-pass reports (including each
//! pass's nonzero metrics) as a JSON document.
//!
//! Warm-run surface: `--cache <file>` persists whole-job results across
//! invocations; `--serve` runs the same service as a unix-socket
//! daemon, `--connect` submits a job to one, `--shutdown` stops it.
//!
//! Exit codes: 0 success, 1 usage/parse/file errors, 2 pipeline failure
//! (the `cec` pass found a counterexample, or a daemon job failed).

use cli::service::OptService;
use cli::{parse_pipeline, run_pipeline_jobs, PassReport};
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
migopt: MIG optimization pipeline driver

USAGE:
    migopt -i <input> [-p <pipeline>] [-o <output>] [-j <threads>] [--quiet]
           [--trace <file>] [--metrics] [--json-report <file>] [--cache <file>]
    migopt --serve <socket> [--cache <file>] [--workers <N>] [--trace <file>]
           [--quiet]
    migopt --connect <socket> -i <input> [-p <pipeline>] [-o <output>]
           [-j <threads>] [--trace <file>] [--quiet]
    migopt --shutdown <socket>

OPTIONS:
    -i, --input <file>     circuit to read (.aag, .aig or .blif)
    -o, --output <file>    write the final circuit (.aag, .aig or .blif)
    -p, --passes <spec>    ';'-separated pipeline, e.g.
                           \"strash; algebraic; fhash:TFD; fhash:B; cec\"
                           (default: \"stats\")
    -j, --threads <N>      default thread count for fhash and fhash!
                           passes without an explicit @N suffix (default: 1;
                           at most 256, like every @N); it changes the
                           speed, never the result
    -q, --quiet            suppress per-pass reporting
        --trace <file>     record spans; .jsonl gets the JSONL event
                           stream, anything else Chrome trace-event JSON
                           (open in Perfetto / chrome://tracing); with
                           --serve, records every job's spans until
                           shutdown; with --connect, captures the
                           daemon's raw JSONL stream
        --metrics          print the metric-registry totals after the run
        --json-report <file>  write per-pass reports + run metrics as JSON
        --cache <file>     persistent optimization cache: load before the
                           run, flush what the run learned afterwards
        --serve <socket>   run as a daemon on a unix socket (migd protocol)
        --workers <N>      daemon worker threads (with --serve; default: 2,
                           at most 256)
        --connect <socket> submit the job to a running daemon
        --shutdown <socket>  stop a running daemon
    -h, --help             show this help

PASSES:
    strash  size  depth  size!  depth!
    algebraic[:N]  (N script rounds)
    fhash:{T,TD,TF,TFD,B,BF}[@N] (one pass)
    fhash!:{T,TD,TF,TFD,B,BF}[@N] (repeat to convergence)
    compact  balance  rewrite  cec[:budget]  map[:k]  stats
";

struct Args {
    input: Option<String>,
    output: Option<String>,
    passes: String,
    threads: usize,
    quiet: bool,
    trace: Option<String>,
    metrics: bool,
    json_report: Option<String>,
    cache: Option<String>,
    serve: Option<String>,
    workers: usize,
    connect: Option<String>,
    shutdown: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut input = None;
    let mut output = None;
    let mut passes = None;
    let mut threads = 1usize;
    let mut quiet = false;
    let mut trace = None;
    let mut metrics = false;
    let mut json_report = None;
    let mut cache = None;
    let mut serve = None;
    let mut workers = 2usize;
    let mut connect = None;
    let mut shutdown = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut file_arg = |slot: &mut Option<String>| -> Result<(), String> {
            *slot = Some(
                it.next()
                    .ok_or_else(|| format!("{arg} needs a file argument"))?
                    .clone(),
            );
            Ok(())
        };
        match arg.as_str() {
            "-j" | "--threads" => {
                let t = it
                    .next()
                    .ok_or_else(|| format!("{arg} needs a thread count"))?;
                threads = t
                    .parse::<usize>()
                    .map_err(|_| format!("thread count must be a positive number, got {t:?}"))
                    .and_then(cli::check_threads)?;
            }
            "--workers" => {
                let t = it
                    .next()
                    .ok_or_else(|| format!("{arg} needs a worker count"))?;
                workers = t
                    .parse::<usize>()
                    .map_err(|_| format!("worker count must be a positive number, got {t:?}"))
                    .and_then(cli::check_threads)?;
            }
            "-i" | "--input" => file_arg(&mut input)?,
            "-o" | "--output" => file_arg(&mut output)?,
            "-p" | "--passes" => {
                passes = Some(
                    it.next()
                        .ok_or_else(|| format!("{arg} needs a pipeline argument"))?
                        .clone(),
                );
            }
            "-q" | "--quiet" => quiet = true,
            "--trace" => file_arg(&mut trace)?,
            "--metrics" => metrics = true,
            "--json-report" => file_arg(&mut json_report)?,
            "--cache" => file_arg(&mut cache)?,
            "--serve" => file_arg(&mut serve)?,
            "--connect" => file_arg(&mut connect)?,
            "--shutdown" => file_arg(&mut shutdown)?,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let modes = [serve.is_some(), connect.is_some(), shutdown.is_some()]
        .iter()
        .filter(|&&m| m)
        .count();
    if modes > 1 {
        return Err("--serve, --connect and --shutdown are mutually exclusive".to_string());
    }
    if serve.is_none() && shutdown.is_none() && input.is_none() {
        return Err("missing required -i <input>".to_string());
    }
    Ok(Args {
        input,
        output,
        passes: passes.unwrap_or_else(|| "stats".to_string()),
        threads,
        quiet,
        trace,
        metrics,
        json_report,
        cache,
        serve,
        workers,
        connect,
        shutdown,
    })
}

fn print_report(r: &PassReport) {
    let note = if r.note.is_empty() {
        String::new()
    } else {
        format!("  [{}]", r.note)
    };
    println!(
        "{:<14} size {:>6} -> {:<6} depth {:>4} -> {:<4} {:>9.2} ms{}",
        r.pass,
        r.size_before,
        r.size_after,
        r.depth_before,
        r.depth_after,
        r.runtime * 1e3,
        note
    );
}

/// `migopt --serve`: run the daemon until a shutdown request arrives,
/// then flush the warm cache one final time.
fn serve_mode(args: &Args, socket: &str) -> ExitCode {
    let service = Arc::new(OptService::new(
        args.cache.as_ref().map(std::path::PathBuf::from),
    ));
    let runner = Arc::new(cli::daemon::PipelineRunner::new(Arc::clone(&service)));
    if args.trace.is_some() {
        obs::trace::start();
    }
    let serve_start = obs::metrics::global_snapshot();
    if !args.quiet {
        println!(
            "migd serving on {socket} ({} workers{})",
            args.workers,
            match &args.cache {
                Some(c) => format!(", cache {c}"),
                None => String::new(),
            }
        );
    }
    if let Err(e) = migd::serve(std::path::Path::new(socket), args.workers, runner) {
        eprintln!("error: {socket}: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = service.flush() {
        eprintln!("error: cache flush failed: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(path) = &args.trace {
        let events = obs::trace::finish();
        let delta = obs::metrics::global_snapshot().since(&serve_start);
        if let Err(e) = obs::export::write_trace(std::path::Path::new(path), &events, Some(&delta))
        {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
        if !args.quiet {
            println!("trace written to {path} ({} events)", events.len());
        }
    }
    ExitCode::SUCCESS
}

/// `migopt --connect`: serialize the input, submit it as one daemon
/// job, stream the trace lines (optionally into `--trace`), write the
/// result circuit.
fn connect_mode(args: &Args, socket: &str) -> ExitCode {
    let input_path = args.input.as_deref().expect("checked in parse_args");
    let input = match io::read_mig_path(input_path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {input_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let req = migd::JobRequest {
        id: input_path.to_string(),
        pipeline: args.passes.clone(),
        threads: args.threads,
        format: "blif".to_string(),
        circuit: io::blif::Blif::from_mig(&input, "migopt").to_text(),
    };
    let mut stream = String::new();
    let result = match migd::submit(std::path::Path::new(socket), &req, |line| {
        stream.push_str(line);
        stream.push('\n');
    }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {socket}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.trace {
        if let Err(e) = std::fs::write(path, &stream) {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
        if !args.quiet {
            println!("trace written to {path} ({} lines)", stream.lines().count());
        }
    }
    if !result.outcome.ok {
        eprintln!("error: job failed: {}", result.outcome.error);
        return ExitCode::from(2);
    }
    if !args.quiet {
        println!(
            "job {:<17} size = {}  depth = {}  {:.2} ms{}",
            result.id,
            result.outcome.size,
            result.outcome.depth,
            result.outcome.runtime_ns as f64 / 1e6,
            if result.outcome.cached {
                "  [cached]"
            } else {
                ""
            }
        );
    }
    if let Some(out) = &args.output {
        let mig = match io::blif::Blif::parse(&result.outcome.circuit).and_then(|b| b.to_mig()) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("error: daemon returned unparsable circuit: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = io::write_mig_path(out, &mig) {
            eprintln!("error: {out}: {e}");
            return ExitCode::FAILURE;
        }
        if !args.quiet {
            println!(
                "wrote {:<21} size = {}  depth = {}",
                out,
                mig.num_gates(),
                mig.depth()
            );
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(socket) = &args.shutdown {
        return match migd::shutdown(std::path::Path::new(socket)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {socket}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some(socket) = &args.serve {
        return serve_mode(&args, socket);
    }
    if let Some(socket) = &args.connect {
        return connect_mode(&args, socket);
    }
    let input_path = args.input.as_deref().expect("checked in parse_args");
    let passes = match parse_pipeline(&args.passes) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: bad pipeline: {e}");
            return ExitCode::FAILURE;
        }
    };
    let input = match io::read_mig_path(input_path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {input_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !args.quiet {
        println!(
            "read {:<22} i/o = {}/{}  size = {}  depth = {}",
            input_path,
            input.num_inputs(),
            input.num_outputs(),
            input.num_gates(),
            input.depth()
        );
    }
    if args.trace.is_some() {
        obs::trace::start();
    }
    let run_start = obs::metrics::global_snapshot();
    // With --cache the run goes through the service (cache load,
    // result-tier lookup, flush); without it the plain
    // pipeline driver avoids even loading the NPN database when no
    // fhash pass needs it.
    let service = args
        .cache
        .as_ref()
        .map(|c| OptService::new(Some(std::path::PathBuf::from(c))));
    let run = match &service {
        Some(s) => s
            .run_job(&input, &passes, args.threads, None)
            .map(|job| (job.result, job.reports)),
        None => run_pipeline_jobs(&input, &passes, args.threads),
    };
    let (result, reports) = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(s) = &service {
        if let Err(e) = s.flush() {
            eprintln!("error: cache flush failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    let run_delta = obs::metrics::global_snapshot().since(&run_start);
    if let Some(path) = &args.trace {
        let events = obs::trace::finish();
        if let Err(e) =
            obs::export::write_trace(std::path::Path::new(path), &events, Some(&run_delta))
        {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
        if !args.quiet {
            println!("trace written to {path} ({} events)", events.len());
        }
    }
    if !args.quiet {
        for r in &reports {
            print_report(r);
        }
    }
    if args.metrics {
        print!("{}", obs::metrics::render_table(&run_delta));
    }
    if let Some(path) = &args.json_report {
        let doc = cli::report::json_report(input_path, &reports, &result, &run_delta);
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(out) = &args.output {
        if let Err(e) = io::write_mig_path(out, &result) {
            eprintln!("error: {out}: {e}");
            return ExitCode::FAILURE;
        }
        if !args.quiet {
            println!(
                "wrote {:<21} size = {}  depth = {}",
                out,
                result.num_gates(),
                result.depth()
            );
        }
    }
    ExitCode::SUCCESS
}

//! Glue between the `migd` wire protocol and the optimization service:
//! a [`migd::JobRunner`] that parses job circuits, runs them through
//! the shared [`OptService`], and streams the JSONL trace/metric lines
//! the job produced back to the client.

use crate::service::{OptService, CACHE_MODEL};
use mig::Mig;
use std::sync::Arc;
use std::time::Instant;

/// Runs daemon jobs on a shared warm service.
pub struct PipelineRunner {
    service: Arc<OptService>,
}

impl PipelineRunner {
    /// Wraps the service.
    pub fn new(service: Arc<OptService>) -> PipelineRunner {
        PipelineRunner { service }
    }

    /// The wrapped service (for flushing at shutdown).
    pub fn service(&self) -> &Arc<OptService> {
        &self.service
    }
}

fn parse_circuit(format: &str, text: &str) -> Result<Mig, String> {
    match format {
        "blif" => io::blif::Blif::parse(text)
            .map_err(|e| format!("blif parse error: {e}"))?
            .to_mig()
            .map_err(|e| format!("blif conversion error: {e}")),
        "aag" => io::aiger::Aiger::parse_ascii(text)
            .map_err(|e| format!("aag parse error: {e}"))?
            .to_mig()
            .map_err(|e| format!("aag conversion error: {e}")),
        other => Err(format!("unknown circuit format {other:?} (blif or aag)")),
    }
}

fn span(emit: &mut dyn FnMut(&str), ph: &str, name: &str, tid: usize, ts_ns: u64) {
    emit(&format!(
        "{{\"type\":\"{ph}\",\"name\":\"{}\",\"tid\":{tid},\"ts_ns\":{ts_ns}}}",
        obs::json::escape(name)
    ));
}

impl migd::JobRunner for PipelineRunner {
    /// Streams, in order: the `meta` line, a `migd:parse` span around
    /// reading the request's circuit, a `job:<id>` span enclosing one
    /// span per executed pass and, when the result cache did not render
    /// the result, a `migd:render` span; then the job's metric delta as
    /// counter/gauge/hist lines. The terminal `result` line is appended
    /// by the server, so the whole per-connection stream validates
    /// against the JSONL schema (`trace_lint`). The two text conversions
    /// are also recorded as `obs` spans of the same names, so an
    /// in-process trace shows them too. Timestamps count from the start
    /// of the parse; the result's `runtime_ns` counts from the start of
    /// the job span.
    ///
    /// The metric lines are the job's own: the job runs in a metric scope
    /// on this worker (threads it spawns publish into it), so concurrent
    /// jobs on other workers do not bleed into them. The delta is then
    /// published to the process totals.
    fn run(
        &self,
        req: &migd::JobRequest,
        worker: usize,
        emit: &mut dyn FnMut(&str),
    ) -> migd::JobOutcome {
        let clock = Instant::now();
        let now = || clock.elapsed().as_nanos() as u64;
        emit(&format!(
            "{{\"type\":\"meta\",\"version\":{},\"clock\":\"ns\"}}",
            obs::export::JSONL_VERSION
        ));
        span(emit, "span_begin", "migd:parse", worker, now());
        let parsed = {
            let _span = obs::trace::span("migd:parse");
            parse_circuit(&req.format, &req.circuit)
        };
        span(emit, "span_end", "migd:parse", worker, now());
        let input = match parsed {
            Ok(m) => m,
            Err(e) => return migd::JobOutcome::failed(e),
        };
        let passes = match crate::parse_pipeline(&req.pipeline) {
            Ok(p) => p,
            Err(e) => return migd::JobOutcome::failed(format!("pipeline error: {e}")),
        };
        if let Err(e) = crate::check_threads(req.threads) {
            return migd::JobOutcome::failed(format!("job field \"threads\": {e}"));
        }
        let t0 = Instant::now();
        let job_span = format!("job:{}", req.id);
        // Pass spans are reconstructed at report time: end is "now",
        // begin is end minus the measured pass runtime, clamped to keep
        // the stream monotone per tid (the validator requires it).
        let mut cursor = now();
        span(emit, "span_begin", &job_span, worker, cursor);
        let mut on_pass = |r: &crate::PassReport| {
            let end = now();
            let runtime = (r.runtime * 1e9) as u64;
            let begin = end.saturating_sub(runtime).max(cursor);
            let end = end.max(begin);
            let name = format!("pass:{}", r.pass);
            span(emit, "span_begin", &name, worker, begin);
            span(emit, "span_end", &name, worker, end);
            cursor = end;
        };
        let (run, delta) = obs::metrics::scoped(|| {
            self.service
                .run_job(&input, &passes, req.threads, Some(&mut on_pass))
        });
        delta.publish();
        // Cacheable jobs carry the stored text; render only the rest.
        let run = run.map(|job| {
            let circuit = job.circuit.unwrap_or_else(|| {
                span(emit, "span_begin", "migd:render", worker, now().max(cursor));
                let text = {
                    let _span = obs::trace::span("migd:render");
                    io::blif::Blif::from_mig(&job.result, CACHE_MODEL).to_text()
                };
                cursor = now().max(cursor);
                span(emit, "span_end", "migd:render", worker, cursor);
                text
            });
            (job.result, job.cached, circuit)
        });
        span(emit, "span_end", &job_span, worker, now().max(cursor));
        for line in obs::export::metrics_jsonl(&delta).lines() {
            emit(line);
        }
        // Persist what this job learned before answering, so a daemon
        // kill right after the reply never loses warm state. A job that
        // learned nothing leaves the file alone.
        if self.service.flush().is_err() {
            emit("{\"type\":\"counter\",\"name\":\"cache.flush_failed\",\"value\":1}");
        }
        match run {
            Ok((result, cached, circuit)) => migd::JobOutcome {
                ok: true,
                size: result.num_gates() as u64,
                depth: u64::from(result.depth()),
                circuit,
                runtime_ns: t0.elapsed().as_nanos() as u64,
                cached,
                error: String::new(),
            },
            Err(e) => migd::JobOutcome::failed(e.to_string()),
        }
    }
}

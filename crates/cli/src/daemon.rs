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
    /// Streams, in order: the `meta` line, a `job:<id>` span enclosing
    /// one span per executed pass, then the job's metric delta as
    /// counter/gauge/hist lines. The terminal `result` line is appended
    /// by the server, so the whole per-connection stream validates
    /// against the JSONL schema (`trace_lint`).
    ///
    /// Metric caveat: the delta is a diff of the process-wide registry
    /// over the job, exact when jobs run serially; concurrent jobs on
    /// other workers bleed into it (same policy as sharded in-process
    /// workers).
    fn run(
        &self,
        req: &migd::JobRequest,
        worker: usize,
        emit: &mut dyn FnMut(&str),
    ) -> migd::JobOutcome {
        emit(&format!(
            "{{\"type\":\"meta\",\"version\":{},\"clock\":\"ns\"}}",
            obs::export::JSONL_VERSION
        ));
        let input = match parse_circuit(&req.format, &req.circuit) {
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
        span(emit, "span_begin", &job_span, worker, 0);
        // Pass spans are reconstructed at report time: end is "now",
        // begin is end minus the measured pass runtime, clamped to keep
        // the stream monotone per tid (the validator requires it).
        let mut cursor = 0u64;
        let mut on_pass = |r: &crate::PassReport| {
            let end = t0.elapsed().as_nanos() as u64;
            let runtime = (r.runtime * 1e9) as u64;
            let begin = end.saturating_sub(runtime).max(cursor);
            let end = end.max(begin);
            let name = format!("pass:{}", r.pass);
            span(emit, "span_begin", &name, worker, begin);
            span(emit, "span_end", &name, worker, end);
            cursor = end;
        };
        let before = obs::metrics::global_snapshot();
        let run = self
            .service
            .run_job(&input, &passes, req.threads, Some(&mut on_pass));
        let delta = obs::metrics::global_snapshot().since(&before);
        span(
            emit,
            "span_end",
            &job_span,
            worker,
            (t0.elapsed().as_nanos() as u64).max(cursor),
        );
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
            Ok(job) => migd::JobOutcome {
                ok: true,
                size: job.result.num_gates() as u64,
                depth: u64::from(job.result.depth()),
                // Cacheable jobs carry the stored text; render only the
                // rest.
                circuit: job.circuit.unwrap_or_else(|| {
                    io::blif::Blif::from_mig(&job.result, CACHE_MODEL).to_text()
                }),
                runtime_ns: t0.elapsed().as_nanos() as u64,
                cached: job.cached,
                error: String::new(),
            },
            Err(e) => migd::JobOutcome::failed(e.to_string()),
        }
    }
}

//! The long-lived optimization service behind `migopt --cache` and the
//! `migd` daemon: one functional-hashing engine plus the whole-job
//! result store of the persistent cache, shared by every job.
//!
//! Sharing model: the engine is read-only during a job, the result
//! store is a read-mostly `RwLock` map, and flushing to the cache file
//! is serialized by a dedicated mutex — concurrent daemon jobs never
//! block each other on the hot path. A flush costs a file stamp check
//! plus an append of what the job learned, if anything.

use crate::{Pass, PassReport, PipelineError};
use mig::Mig;
use obs::Metric;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

/// Whether a pipeline's whole-job result may be served from the result
/// tier: every pass must be a pure deterministic rewrite. Pipelines
/// containing `cec`, `map` or `stats` always execute — running the SAT
/// proof (or producing the report) is the point of those passes.
pub fn result_cacheable(passes: &[Pass]) -> bool {
    !passes.is_empty()
        && passes.iter().all(|p| {
            matches!(
                p,
                Pass::Strash
                    | Pass::Algebraic { .. }
                    | Pass::SizeRewrite
                    | Pass::DepthRewrite
                    | Pass::SizeConverge
                    | Pass::DepthConverge
                    | Pass::Fhash { .. }
                    | Pass::FhashConverge { .. }
                    | Pass::Compact
                    | Pass::Balance
                    | Pass::RewriteAig
            )
        })
}

/// Renders the job key a result record is stored under: the pipeline
/// without its thread counts. A pipeline gives the same netlist at every
/// thread count, so a job run at one count serves the same job at any
/// other.
fn job_pipeline_key(passes: &[Pass]) -> String {
    let rendered: Vec<String> = passes
        .iter()
        .map(|p| match *p {
            Pass::Fhash { variant, .. } => Pass::Fhash {
                variant,
                threads: None,
            },
            Pass::FhashConverge { variant, .. } => Pass::FhashConverge {
                variant,
                threads: None,
            },
            ref other => other.clone(),
        })
        .map(|p| p.to_string())
        .collect();
    rendered.join("; ")
}

/// The result-tier key material of a job: a binary encoding of the
/// input graph — input and output counts, every gate's id and fanin
/// literals in topological order, then the output literals, which is
/// what its BLIF text carries — followed by the resolved pipeline.
fn key_material(input: &Mig, pipeline: &str) -> Vec<u8> {
    let order = input.topo_gates_shared();
    let mut out =
        Vec::with_capacity(12 + 16 * order.len() + 4 * input.num_outputs() + pipeline.len());
    for n in [input.num_inputs(), input.num_outputs(), order.len()] {
        out.extend_from_slice(&(n as u32).to_le_bytes());
    }
    for &g in order.iter() {
        out.extend_from_slice(&g.to_le_bytes());
        for s in input.fanins(g) {
            out.extend_from_slice(&(s.code() as u32).to_le_bytes());
        }
    }
    for o in input.outputs() {
        out.extend_from_slice(&(o.code() as u32).to_le_bytes());
    }
    out.extend_from_slice(pipeline.as_bytes());
    out
}

/// The model name result records serialize under — fixed so the stored
/// circuit text is independent of input file names.
pub(crate) const CACHE_MODEL: &str = "migopt";

/// One job run through [`OptService::run_job`].
#[derive(Debug)]
pub struct JobRun {
    /// The optimized circuit.
    pub result: Mig,
    /// One report per executed pass; a result-tier hit has a single
    /// synthetic `cached` report.
    pub reports: Vec<PassReport>,
    /// Whether the result came from the result tier.
    pub cached: bool,
    /// For result-cacheable pipelines, `result` as the BLIF text (model
    /// `migopt`) the result tier stores; writing `result` gives the same
    /// text.
    pub circuit: Option<String>,
}

/// An engine + result store + optional backing cache file.
pub struct OptService {
    engine: fhash::FunctionalHashing,
    results: fcache::ResultStore,
    cache_path: Option<PathBuf>,
    /// Serializes flushes and holds the stamp of the file this service
    /// last wrote, while that write is known to have succeeded.
    flushed: Mutex<Option<fcache::FileStamp>>,
}

impl OptService {
    /// Builds the service; when `cache_path` is given, loads and
    /// validates the cache file (graceful cold start on any defect) and
    /// installs its results.
    pub fn new(cache_path: Option<PathBuf>) -> OptService {
        let engine = fhash::FunctionalHashing::with_default_database();
        let results = fcache::ResultStore::new();
        if let Some(path) = &cache_path {
            let data = fcache::load_or_cold(path);
            let installed = results.install(data.results);
            if installed > 0 {
                obs::metrics::add(Metric::CacheLoaded, installed as u64);
            }
        }
        OptService {
            engine,
            results,
            cache_path,
            flushed: Mutex::new(None),
        }
    }

    /// The shared engine.
    pub fn engine(&self) -> &fhash::FunctionalHashing {
        &self.engine
    }

    /// The whole-job result store.
    pub fn results(&self) -> &fcache::ResultStore {
        &self.results
    }

    /// Runs one job through the cache: a result-tier hit returns the
    /// stored circuit (re-verified against `input` by random simulation
    /// — a corrupt or colliding record is rejected, counted and
    /// recomputed, never served); a miss runs the pipeline on the shared
    /// engine and installs the result.
    ///
    /// Determinism: stored results were produced by the same pipeline,
    /// at some thread count, on a structurally identical input (both
    /// hashes plus the pipeline rendering match); the pipeline's netlist
    /// is the same at every thread count, and the stored text is a fixed
    /// point of BLIF parse→write — so serving from the cache yields the
    /// same output file a fresh run would produce.
    ///
    /// # Errors
    ///
    /// [`PipelineError::NotEquivalent`] if a `cec` pass refutes
    /// equivalence (such pipelines always execute).
    pub fn run_job(
        &self,
        input: &Mig,
        passes: &[Pass],
        default_threads: usize,
        on_pass: Option<&mut dyn FnMut(&PassReport)>,
    ) -> Result<JobRun, PipelineError> {
        let mut keys = None;
        if result_cacheable(passes) {
            let pipeline = job_pipeline_key(passes);
            let material = key_material(input, &pipeline);
            let key = fcache::fnv1a(fcache::FNV_BASIS, &material);
            let check = fcache::fnv1a(fcache::FNV_CHECK_BASIS, &material);
            if let Some(rec) = self.results.get(key, check, &pipeline) {
                let t0 = Instant::now();
                let verified = {
                    let _span = obs::trace::span("cache:verify");
                    self.verified_parse(input, &rec.circuit)
                };
                match verified {
                    Some(result) => {
                        obs::metrics::add(Metric::CacheResultHits, 1);
                        obs::metrics::addi(Metric::MigBytesPerNode, result.bytes_per_node() as i64);
                        obs::metrics::addi(Metric::MigDeadSlotPct, result.dead_slot_pct() as i64);
                        let report = PassReport {
                            pass: "cached".to_string(),
                            size_before: input.num_gates(),
                            size_after: result.num_gates(),
                            depth_before: input.depth(),
                            depth_after: result.depth(),
                            runtime: t0.elapsed().as_secs_f64(),
                            note: "whole-job result served from the cache".to_string(),
                            metrics: obs::Delta::default(),
                        };
                        if let Some(cb) = on_pass {
                            cb(&report);
                        }
                        return Ok(JobRun {
                            result,
                            reports: vec![report],
                            cached: true,
                            circuit: Some(rec.circuit),
                        });
                    }
                    None => {
                        // The record matched its hashes but not the
                        // input's function: treat as corruption, drop
                        // through to a fresh run.
                        obs::metrics::add(Metric::CacheRejected, 1);
                    }
                }
            }
            obs::metrics::add(Metric::CacheResultMisses, 1);
            keys = Some((key, check, pipeline));
        }
        let (result, reports) = crate::run_pipeline_session(
            input,
            passes,
            default_threads,
            Some(&self.engine),
            on_pass,
        )?;
        let Some((key, check, pipeline)) = keys else {
            return Ok(JobRun {
                result,
                reports,
                cached: false,
                circuit: None,
            });
        };
        // In-place rewriting leaves node numbering dependent on rewrite
        // history. Store and return the graph the BLIF text reads back
        // as instead, so a later hit parses the stored text into the
        // same graph this cold run returns.
        let (result, circuit) = {
            let _span = obs::trace::span("cache:render");
            let result = io::blif::round_trip(&result);
            let circuit = io::blif::Blif::from_mig(&result, CACHE_MODEL).to_text();
            (result, circuit)
        };
        self.results.put(fcache::ResRecord {
            key,
            check,
            pipeline,
            size: result.num_gates() as u32,
            depth: result.depth(),
            circuit: circuit.clone(),
        });
        Ok(JobRun {
            result,
            reports,
            cached: false,
            circuit: Some(circuit),
        })
    }

    /// Parses a stored result circuit and verifies it against the job
    /// input by word-parallel random simulation; `None` on any failure.
    fn verified_parse(&self, input: &Mig, circuit: &str) -> Option<Mig> {
        let result = io::blif::Blif::parse(circuit).ok()?.to_mig().ok()?;
        if result.num_inputs() != input.num_inputs()
            || result.num_outputs() != input.num_outputs()
            || !cec::equivalent_random(input, &result, 16, 0x5EED)
        {
            return None;
        }
        Some(result)
    }

    /// Writes what this service learned to the cache file. Returns the
    /// number of results the service holds.
    ///
    /// When the file still carries the stamp of this service's last
    /// write, the records put since then are appended with one write,
    /// and nothing is written when there are none: a result-tier hit
    /// leaves the file alone. Otherwise (this service's first flush,
    /// another process wrote in between, or the file was damaged from
    /// outside) the file's readable records are merged into the service
    /// first (on key conflicts the in-memory record wins), and the file
    /// is rewritten key-sorted. No-op without a cache path.
    ///
    /// # Errors
    ///
    /// Filesystem failures from the append or the atomic rewrite; the
    /// next flush then rewrites the file.
    pub fn flush(&self) -> std::io::Result<usize> {
        let Some(path) = &self.cache_path else {
            return Ok(0);
        };
        let mut last = self.flushed.lock().expect("flush lock poisoned");
        let ours = last.is_some() && fcache::FileStamp::read(path) == *last;
        let written = if ours {
            let pending = self.results.take_pending();
            if pending.is_empty() {
                return Ok(self.results.len());
            }
            fcache::append_path(path, &pending)
        } else {
            if let Ok(disk) = fcache::load_path(path) {
                self.results.install(disk.results);
            }
            fcache::save_path(path, &self.results.take_all())
        };
        *last = written.as_ref().ok().cloned();
        written.map(|_| self.results.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_pipeline;

    #[test]
    fn cacheability_follows_pass_purity() {
        assert!(result_cacheable(
            &parse_pipeline("strash; algebraic; fhash!:T@2; compact; balance; rewrite").unwrap()
        ));
        assert!(result_cacheable(&parse_pipeline("size!; depth!").unwrap()));
        assert!(!result_cacheable(&parse_pipeline("fhash:T; cec").unwrap()));
        assert!(!result_cacheable(&parse_pipeline("map:4").unwrap()));
        assert!(!result_cacheable(&parse_pipeline("stats").unwrap()));
        assert!(!result_cacheable(&[]));
    }

    #[test]
    fn pipeline_key_carries_no_thread_count() {
        let p = parse_pipeline("fhash!:T@4; strash; fhash:B@2; algebraic").unwrap();
        assert_eq!(
            job_pipeline_key(&p),
            "fhash!:T; strash; fhash:B; algebraic:2"
        );
        let q = parse_pipeline("fhash!:T; strash; fhash:B; algebraic:2").unwrap();
        assert_eq!(job_pipeline_key(&p), job_pipeline_key(&q));
    }
}

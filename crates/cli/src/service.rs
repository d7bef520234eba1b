//! The long-lived optimization service behind `migopt --cache` and the
//! `migd` daemon: one functional-hashing engine plus the whole-job
//! result store of the persistent cache, shared by every job.
//!
//! Sharing model: the engine is read-only during a job, the result
//! store is a read-mostly `RwLock` map, and flushing to the cache file
//! is serialized by a dedicated mutex — concurrent daemon jobs never
//! block each other on the hot path. A flush after a job that learned
//! nothing costs a file stamp check.

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
                    | Pass::SizeConverge { .. }
                    | Pass::DepthConverge { .. }
                    | Pass::Fhash { .. }
                    | Pass::FhashConverge { .. }
                    | Pass::Compact
                    | Pass::Balance
                    | Pass::RewriteAig
            )
        })
}

/// Renders the job key a result record is stored under: the resolved
/// pipeline plus the default thread count (a pass without `@N` resolves
/// against it, so the same pipeline text at a different `-j` is a
/// different job).
fn job_pipeline_key(passes: &[Pass], default_threads: usize) -> String {
    let rendered: Vec<String> = passes.iter().map(Pass::to_string).collect();
    format!("{} #j{}", rendered.join("; "), default_threads)
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

/// What this service last wrote to its cache file.
struct Flushed {
    /// [`OptService::generation`] read just before the write.
    generation: u64,
    stamp: fcache::FileStamp,
    entries: usize,
}

/// An engine + result store + optional backing cache file.
pub struct OptService {
    engine: fhash::FunctionalHashing,
    results: fcache::ResultStore,
    cache_path: Option<PathBuf>,
    /// Serializes flushes and remembers the last one.
    flushed: Mutex<Option<Flushed>>,
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
    /// Determinism: stored results were produced by the same resolved
    /// pipeline at the same thread count on a structurally identical
    /// input (both hashes plus the pipeline rendering match), and the
    /// stored text is a fixed point of BLIF parse→write — so serving
    /// from the cache yields the same output file a fresh run would
    /// produce.
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
            let pipeline = job_pipeline_key(passes, default_threads.max(1));
            let material = key_material(input, &pipeline);
            let key = fcache::fnv1a(fcache::FNV_BASIS, &material);
            let check = fcache::fnv1a(fcache::FNV_CHECK_BASIS, &material);
            if let Some(rec) = self.results.get(key, check, &pipeline) {
                let t0 = Instant::now();
                match self.verified_parse(input, &rec.circuit) {
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
        let result = io::blif::round_trip(&result);
        let circuit = io::blif::Blif::from_mig(&result, CACHE_MODEL).to_text();
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

    /// What this service has learned so far, as a counter that grows
    /// with every result record inserted or replaced.
    fn generation(&self) -> u64 {
        self.results.generation()
    }

    /// Writes the result records back to the cache file. Returns the
    /// number of results the file holds.
    ///
    /// Skips the write when nothing was learned since this service's
    /// last flush and the file still carries the stamp of that write.
    /// Otherwise, if the file is not the one this service last wrote
    /// (another process flushed, or this is the first flush), its
    /// entries are merged into the service first (on key conflicts the
    /// in-memory state wins), so the rewrite keeps them. No-op without
    /// a cache path.
    ///
    /// # Errors
    ///
    /// Filesystem failures from the atomic write.
    pub fn flush(&self) -> std::io::Result<usize> {
        let Some(path) = &self.cache_path else {
            return Ok(0);
        };
        let mut last = self.flushed.lock().expect("flush lock poisoned");
        match last.as_ref() {
            Some(f) if fcache::FileStamp::read(path).as_ref() == Some(&f.stamp) => {
                if f.generation == self.generation() {
                    return Ok(f.entries);
                }
            }
            _ => {
                if let Ok(disk) = fcache::load_path(path) {
                    self.results.install(disk.results);
                }
            }
        }
        let generation = self.generation();
        let data = fcache::CacheData {
            results: self.results.export(),
        };
        let stamp = fcache::save_path(path, &data)?;
        *last = Some(Flushed {
            generation,
            stamp,
            entries: data.len(),
        });
        Ok(data.len())
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
    fn pipeline_key_resolves_thread_default() {
        let p = parse_pipeline("fhash!:T; strash").unwrap();
        assert_eq!(job_pipeline_key(&p, 4), "fhash!:T; strash #j4");
        assert_ne!(job_pipeline_key(&p, 4), job_pipeline_key(&p, 1));
    }
}

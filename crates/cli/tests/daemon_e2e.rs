//! End-to-end tests of the persistent optimization cache and the
//! `migd` daemon: cold/warm bit-identity, result-tier hits, graceful
//! cold starts from corrupt cache files, when a flush appends to the
//! file and when it rewrites it, SAT-proved equivalence of
//! daemon-served results, per-job stream validation, and per-job
//! metrics under concurrent workers.

use cli::daemon::PipelineRunner;
use cli::service::OptService;
use mig::Mig;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Serializes the tests in this binary, so each test's daemons have the
/// host to themselves (the concurrent-jobs test reads wall-clock
/// windows).
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn benchmarks_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("{name}_{}", std::process::id()))
}

fn sock(tag: &str) -> PathBuf {
    // Unix socket paths are length-limited (~108 bytes) — stay short.
    std::env::temp_dir().join(format!("mgd_{tag}_{}.sock", std::process::id()))
}

fn blif_job(id: &str, input: &Mig, pipeline: &str, threads: usize) -> migd::JobRequest {
    migd::JobRequest {
        id: id.to_string(),
        pipeline: pipeline.to_string(),
        threads,
        format: "blif".to_string(),
        circuit: io::blif::Blif::from_mig(input, "migopt").to_text(),
    }
}

/// Spawns an in-process daemon and waits until it answers pings.
fn start_daemon(
    tag: &str,
    workers: usize,
    cache: Option<PathBuf>,
) -> (PathBuf, std::thread::JoinHandle<()>) {
    let socket = sock(tag);
    let service = Arc::new(OptService::new(cache));
    let runner = Arc::new(PipelineRunner::new(service));
    let s = socket.clone();
    let handle = std::thread::spawn(move || {
        migd::serve(&s, workers, runner).expect("daemon serves");
    });
    for _ in 0..500 {
        if migd::ping(&socket).unwrap_or(false) {
            return (socket, handle);
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    panic!("daemon on {} never became ready", socket.display());
}

fn stop_daemon(socket: &Path, handle: std::thread::JoinHandle<()>) {
    migd::shutdown(socket).expect("shutdown request");
    handle.join().expect("daemon thread exits cleanly");
    std::fs::remove_file(socket).ok();
}

/// Sums the values of one counter name across a captured job stream.
fn stream_counter(stream: &str, name: &str) -> i64 {
    stream
        .lines()
        .filter_map(|l| obs::json::parse(l).ok())
        .filter(|v| {
            v.get("type").and_then(obs::json::Value::as_str) == Some("counter")
                && v.get("name").and_then(obs::json::Value::as_str) == Some(name)
        })
        .filter_map(|v| v.get("value").and_then(obs::json::Value::as_i64))
        .sum()
}

/// The names of a captured job stream's spans, in the order they open.
fn stream_spans(stream: &str) -> Vec<String> {
    stream
        .lines()
        .filter_map(|l| obs::json::parse(l).ok())
        .filter(|v| v.get("type").and_then(obs::json::Value::as_str) == Some("span_begin"))
        .filter_map(|v| Some(v.get("name")?.as_str()?.to_string()))
        .collect()
}

fn submit_captured(socket: &Path, req: &migd::JobRequest) -> (migd::JobResult, String) {
    let mut stream = String::new();
    let result = migd::submit(socket, req, |line| {
        stream.push_str(line);
        stream.push('\n');
    })
    .expect("submit succeeds");
    obs::export::validate_jsonl(&stream)
        .unwrap_or_else(|e| panic!("job {} stream fails lint: {e}", req.id));
    (result, stream)
}

#[test]
fn service_warm_run_is_bit_identical_and_marked_cached() {
    let _serial = lock();
    let cache = tmp("svc_warm.cache");
    std::fs::remove_file(&cache).ok();
    let input = io::read_mig_path(benchmarks_dir().join("adder8.aag")).unwrap();
    let passes = cli::parse_pipeline("strash; fhash!:TFD; size!; compact").unwrap();

    let cold_svc = OptService::new(Some(cache.clone()));
    let cold = cold_svc.run_job(&input, &passes, 1, None).unwrap();
    assert!(!cold.cached, "first run must execute");
    assert_eq!(cold.reports.len(), passes.len());
    assert!(cold_svc.flush().unwrap() > 0, "flush persists entries");

    // A fresh service over the same cache file answers from the result
    // tier with the exact same graph.
    let warm_svc = OptService::new(Some(cache.clone()));
    let warm = warm_svc.run_job(&input, &passes, 1, None).unwrap();
    assert!(warm.cached, "second run must be a result-tier hit");
    assert_eq!(warm.reports.len(), 1, "hit collapses to a synthetic report");
    assert_eq!(warm.reports[0].pass, "cached");
    assert_eq!(cold.result.fingerprint(), warm.result.fingerprint());
    assert_eq!(
        io::blif::Blif::from_mig(&cold.result, "m").to_text(),
        io::blif::Blif::from_mig(&warm.result, "m").to_text(),
        "written artifacts are byte-identical"
    );
    // Both carry the stored text, which is what writing the graph gives.
    assert_eq!(cold.circuit, warm.circuit);
    assert_eq!(
        warm.circuit.as_deref(),
        Some(
            io::blif::Blif::from_mig(&warm.result, "migopt")
                .to_text()
                .as_str()
        )
    );
    std::fs::remove_file(&cache).ok();
}

/// Three damaged copies of a valid cache file: truncated, one payload
/// byte flipped, and the version word bumped.
fn corruptions(valid: &[u8]) -> Vec<(&'static str, Vec<u8>)> {
    let mut flipped = valid.to_vec();
    *flipped.last_mut().unwrap() ^= 0x40;
    let mut bumped = valid.to_vec();
    bumped[8] = 0xEE; // first byte of the little-endian version word
    vec![
        ("truncated", valid[..valid.len() / 2].to_vec()),
        ("flipped payload byte", flipped),
        ("version bumped", bumped),
    ]
}

#[test]
fn corrupt_cache_file_cold_starts_and_heals_on_flush() {
    let _serial = lock();
    let cache = tmp("svc_corrupt.cache");
    let input = io::read_mig_path(benchmarks_dir().join("full_adder.aag")).unwrap();
    let passes = cli::parse_pipeline("fhash!:T").unwrap();

    // Seed a valid cache, then corrupt it three different ways; every
    // variant must cold-start (no panic, no stale data) and count a
    // rejection.
    let seed_svc = OptService::new(Some(cache.clone()));
    let reference = seed_svc.run_job(&input, &passes, 1, None).unwrap().result;
    seed_svc.flush().unwrap();
    let valid = std::fs::read(&cache).unwrap();

    for (what, bytes) in corruptions(&valid) {
        std::fs::write(&cache, &bytes).unwrap();
        let before = obs::metrics::global_snapshot();
        let svc = OptService::new(Some(cache.clone()));
        let rejected = obs::metrics::global_snapshot()
            .since(&before)
            .get(obs::Metric::CacheRejected);
        assert!(rejected > 0, "{what}: load must count a rejection");
        let job = svc.run_job(&input, &passes, 1, None).unwrap();
        assert!(!job.cached, "{what}: nothing may survive to serve a hit");
        assert_eq!(job.result.fingerprint(), reference.fingerprint(), "{what}");
        // Flushing the recomputed state heals the file in place.
        svc.flush().unwrap();
        let healed = OptService::new(Some(cache.clone()));
        let warm = healed.run_job(&input, &passes, 1, None).unwrap();
        assert!(warm.cached, "{what}: flush must rewrite a loadable file");
    }
    std::fs::remove_file(&cache).ok();
}

/// Bytes, modification time and inode of a file. A flush writes a
/// temp file and renames it over the old one, so a rewrite changes the
/// inode even within one tick of the filesystem's clock.
fn file_state(path: &Path) -> (Vec<u8>, std::time::SystemTime, u64) {
    use std::os::unix::fs::MetadataExt;
    let meta = std::fs::metadata(path).unwrap();
    (
        std::fs::read(path).unwrap(),
        meta.modified().unwrap(),
        meta.ino(),
    )
}

/// Overwrites `path` in place with `bytes`, as another program would,
/// and waits until the modification time has moved: an overwrite of
/// the same length and header within one clock tick is, by design,
/// indistinguishable from the file a flush left.
fn overwrite_later(path: &Path, bytes: &[u8]) {
    let before = std::fs::metadata(path).unwrap().modified().unwrap();
    loop {
        std::fs::write(path, bytes).unwrap();
        if std::fs::metadata(path).unwrap().modified().unwrap() != before {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

#[test]
fn result_tier_hits_leave_the_cache_file_untouched() {
    let _serial = lock();
    let cache = tmp("svc_hits.cache");
    std::fs::remove_file(&cache).ok();
    let input = io::read_mig_path(benchmarks_dir().join("adder8.aag")).unwrap();
    let passes = cli::parse_pipeline("strash; fhash!:TFD").unwrap();

    let svc = OptService::new(Some(cache.clone()));
    assert!(!svc.run_job(&input, &passes, 1, None).unwrap().cached);
    let entries = svc.flush().unwrap();
    let written = file_state(&cache);
    for _ in 0..3 {
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(svc.run_job(&input, &passes, 1, None).unwrap().cached);
        assert_eq!(svc.flush().unwrap(), entries);
    }
    assert!(
        file_state(&cache) == written,
        "a result-tier hit must not rewrite the cache file"
    );

    // The same through a daemon over the file: after its first flush,
    // repeat jobs are hits and leave the file alone.
    let (socket, handle) = start_daemon("hits", 1, Some(cache.clone()));
    let req = blif_job("h0", &input, "strash; fhash!:TFD", 1);
    let (first, _) = submit_captured(&socket, &req);
    assert!(first.outcome.cached);
    let served = file_state(&cache);
    for k in 1..3 {
        std::thread::sleep(std::time::Duration::from_millis(5));
        let req = migd::JobRequest {
            id: format!("h{k}"),
            ..req.clone()
        };
        let (again, _) = submit_captured(&socket, &req);
        assert!(again.outcome.cached);
        assert_eq!(again.outcome.circuit, first.outcome.circuit);
    }
    assert!(
        file_state(&cache) == served,
        "daemon hits must not rewrite the cache file"
    );
    stop_daemon(&socket, handle);
    std::fs::remove_file(&cache).ok();
}

#[test]
fn two_services_flushing_one_file_alternately_keep_the_union() {
    let _serial = lock();
    let cache = tmp("svc_union.cache");
    std::fs::remove_file(&cache).ok();
    let passes = cli::parse_pipeline("strash; fhash!:TFD").unwrap();
    let inputs: Vec<Mig> = ["full_adder.aag", "adder8.aag", "mult4.aig", "adder4.blif"]
        .iter()
        .map(|f| io::read_mig_path(benchmarks_dir().join(f)).unwrap())
        .collect();

    // Both start cold, then take turns: each learns one result and
    // flushes over the file the other one wrote last.
    let services = [
        OptService::new(Some(cache.clone())),
        OptService::new(Some(cache.clone())),
    ];
    for (k, input) in inputs.iter().enumerate() {
        let svc = &services[k % 2];
        assert!(!svc.run_job(input, &passes, 1, None).unwrap().cached);
        svc.flush().unwrap();
    }
    // The first service learned nothing since its last flush, but the
    // second one wrote after it: flushing still merges, not skips.
    assert_eq!(services[0].flush().unwrap(), services[1].flush().unwrap());
    assert_eq!(
        fcache::load_path(&cache).unwrap().results.len(),
        inputs.len()
    );
    let fresh = OptService::new(Some(cache.clone()));
    for (k, input) in inputs.iter().enumerate() {
        let job = fresh.run_job(input, &passes, 1, None).unwrap();
        assert!(job.cached, "input {k} lost from the union");
    }
    std::fs::remove_file(&cache).ok();
}

#[test]
fn a_file_overwritten_from_outside_is_healed_by_the_next_flush() {
    let _serial = lock();
    let cache = tmp("svc_outside.cache");
    std::fs::remove_file(&cache).ok();
    let input = io::read_mig_path(benchmarks_dir().join("full_adder.aag")).unwrap();
    let passes = cli::parse_pipeline("fhash!:T").unwrap();
    let svc = OptService::new(Some(cache.clone()));
    svc.run_job(&input, &passes, 1, None).unwrap();
    svc.flush().unwrap();
    let valid = std::fs::read(&cache).unwrap();

    // The flipped payload byte keeps the valid file's length and header:
    // only the modification time tells the two apart.
    for (what, bytes) in corruptions(&valid) {
        overwrite_later(&cache, &bytes);
        // Nothing new was learned, yet the file is not the one this
        // service wrote.
        svc.flush().unwrap();
        assert!(
            std::fs::read(&cache).unwrap() == valid,
            "{what}: flush must rewrite the service's entries"
        );
        let healed = OptService::new(Some(cache.clone()));
        assert!(
            healed.run_job(&input, &passes, 1, None).unwrap().cached,
            "{what}: the rewritten file must load"
        );
    }
    std::fs::remove_file(&cache).ok();
}

#[test]
fn after_the_first_flush_each_miss_appends_its_record_in_place() {
    let _serial = lock();
    let cache = tmp("svc_append.cache");
    std::fs::remove_file(&cache).ok();
    let passes = cli::parse_pipeline("strash; fhash!:TFD").unwrap();
    let inputs: Vec<Mig> = ["full_adder.aag", "adder8.aag", "mult4.aig", "adder4.blif"]
        .iter()
        .map(|f| io::read_mig_path(benchmarks_dir().join(f)).unwrap())
        .collect();
    let svc = OptService::new(Some(cache.clone()));
    assert!(!svc.run_job(&inputs[0], &passes, 1, None).unwrap().cached);
    assert_eq!(svc.flush().unwrap(), 1);
    for (k, input) in inputs.iter().enumerate().skip(1) {
        let (before, _, inode) = file_state(&cache);
        let job = svc.run_job(input, &passes, 1, None).unwrap();
        assert!(!job.cached);
        assert_eq!(svc.flush().unwrap(), k + 1);
        let (after, _, same_inode) = file_state(&cache);
        assert_eq!(
            same_inode, inode,
            "input {k}: a miss must append, not rewrite"
        );
        assert!(
            after.starts_with(&before),
            "input {k}: earlier bytes must stay"
        );
        let loaded = fcache::load_path(&cache).unwrap();
        assert!(loaded.defect.is_none());
        let appended = loaded.results.last().unwrap();
        assert_eq!(Some(&appended.circuit), job.circuit.as_ref());
        assert_eq!(
            after.len() - before.len(),
            appended.encoded_len(),
            "input {k}: the file grows by exactly the job's record"
        );
    }
    std::fs::remove_file(&cache).ok();
}

#[test]
fn a_torn_tail_is_rewritten_by_the_next_flush() {
    let _serial = lock();
    let cache = tmp("svc_torn.cache");
    std::fs::remove_file(&cache).ok();
    let passes = cli::parse_pipeline("fhash!:T").unwrap();
    let inputs: Vec<Mig> = ["full_adder.aag", "adder4.blif"]
        .iter()
        .map(|f| io::read_mig_path(benchmarks_dir().join(f)).unwrap())
        .collect();
    let svc = OptService::new(Some(cache.clone()));
    for input in &inputs {
        svc.run_job(input, &passes, 1, None).unwrap();
        svc.flush().unwrap();
    }
    let valid = std::fs::read(&cache).unwrap();
    // Half of a record frame, as an append cut short by a crash leaves.
    let torn = [valid.as_slice(), &valid[12..12 + 40]].concat();

    // Both records, and nothing after them.
    let healed = |what: &str| {
        let data = fcache::load_path(&cache).unwrap();
        assert!(data.defect.is_none(), "{what}: the torn tail must go");
        assert_eq!(data.len(), inputs.len(), "{what}");
        assert_eq!(std::fs::read(&cache).unwrap().len(), valid.len(), "{what}");
    };

    // The service that wrote the file sees a stamp it did not leave, so
    // its next flush rewrites the file even though it learned nothing.
    overwrite_later(&cache, &torn);
    svc.flush().unwrap();
    healed("same service");

    // A fresh service keeps every record before the torn frame, counts
    // one rejection, and its first flush rewrites the file whole.
    std::fs::write(&cache, &torn).unwrap();
    let before = obs::metrics::global_snapshot();
    let fresh = OptService::new(Some(cache.clone()));
    let delta = obs::metrics::global_snapshot().since(&before);
    assert_eq!(delta.get(obs::Metric::CacheRejected), 1);
    assert_eq!(delta.get(obs::Metric::CacheLoaded), inputs.len() as u64);
    for input in &inputs {
        assert!(fresh.run_job(input, &passes, 1, None).unwrap().cached);
    }
    fresh.flush().unwrap();
    healed("fresh service");
    std::fs::remove_file(&cache).ok();
}

#[test]
fn daemon_results_are_sat_equivalent_on_all_benchmarks() {
    let _serial = lock();
    let cache = tmp("dmn_sat.cache");
    std::fs::remove_file(&cache).ok();
    let (socket, handle) = start_daemon("sat", 2, Some(cache.clone()));
    for name in ["full_adder.aag", "adder8.aag", "mult4.aig", "adder4.blif"] {
        let input = io::read_mig_path(benchmarks_dir().join(name)).unwrap();
        let req = blif_job(name, &input, "strash; fhash!:TFD; size!; compact", 2);
        let (result, _stream) = submit_captured(&socket, &req);
        assert!(result.outcome.ok, "{name}: {}", result.outcome.error);
        let served = io::blif::Blif::parse(&result.outcome.circuit)
            .unwrap()
            .to_mig()
            .unwrap();
        assert_eq!(
            cec::prove_equivalent(&input, &served, None),
            cec::CecResult::Equivalent,
            "{name}: daemon result must be SAT-equivalent to the input"
        );
    }
    stop_daemon(&socket, handle);
    std::fs::remove_file(&cache).ok();
}

#[test]
fn repeat_jobs_hit_the_result_tier_and_cec_jobs_rerun() {
    let _serial = lock();
    let (socket, handle) = start_daemon("warm", 1, None);
    let input = io::read_mig_path(benchmarks_dir().join("adder8.aag")).unwrap();

    // Same netlist twice through a cacheable pipeline: the repeat is a
    // result-tier hit, bit-identical, and strictly gains cache hits.
    let req = blif_job("r1", &input, "strash; fhash!:TFD", 1);
    let (first, s1) = submit_captured(&socket, &req);
    let req = migd::JobRequest {
        id: "r2".into(),
        ..req
    };
    let (second, s2) = submit_captured(&socket, &req);
    assert!(first.outcome.ok && second.outcome.ok);
    assert!(!first.outcome.cached && second.outcome.cached);
    assert_eq!(
        first.outcome.circuit, second.outcome.circuit,
        "repeat job must return the byte-identical circuit"
    );
    assert!(
        stream_counter(&s1, "cache.result_hits") == 0
            && stream_counter(&s2, "cache.result_hits") == 1,
        "second job's result hits must exceed the first's"
    );
    // The request's parse is a span of its own before the job's; the
    // result cache renders cacheable results, so the daemon renders
    // nothing.
    assert_eq!(
        stream_spans(&s1),
        ["migd:parse", "job:r1", "pass:strash", "pass:fhash!:TFD"]
    );
    assert_eq!(stream_spans(&s2), ["migd:parse", "job:r2", "pass:cached"]);

    // A cec-carrying pipeline is never served from the result tier: the
    // repeat reruns the whole pipeline on the engine the first job
    // already used, and returns the byte-identical circuit.
    let input = io::read_mig_path(benchmarks_dir().join("mult4.aig")).unwrap();
    let req = blif_job("c1", &input, "strash; fhash!:TFD; cec", 1);
    let (p1, s3) = submit_captured(&socket, &req);
    let req = migd::JobRequest {
        id: "c2".into(),
        ..req
    };
    let (p2, s4) = submit_captured(&socket, &req);
    assert!(p1.outcome.ok && p2.outcome.ok);
    assert!(!p1.outcome.cached && !p2.outcome.cached);
    assert_eq!(
        p1.outcome.circuit, p2.outcome.circuit,
        "repeat cec job must return the byte-identical circuit"
    );
    for (stream, job) in [(&s3, "c1"), (&s4, "c2")] {
        assert!(
            stream_counter(stream, "fhash.cuts_scored") > 0,
            "{job}: the pipeline must run, not be served from the cache"
        );
        assert_eq!(stream_counter(stream, "cache.result_hits"), 0, "{job}");
        // The daemon renders the uncached result inside the job span.
        let job_span = format!("job:{job}");
        assert_eq!(
            stream_spans(stream),
            [
                "migd:parse",
                &job_span,
                "pass:strash",
                "pass:fhash!:TFD",
                "pass:cec",
                "migd:render"
            ]
        );
    }
    stop_daemon(&socket, handle);
}

#[test]
fn a_job_at_one_thread_count_serves_the_same_job_at_others() {
    // A pipeline gives one netlist at every thread count, so the result
    // cache keys a job by its input and pipeline alone: the record a
    // `threads: 1` job stores serves the same job at `threads: 2`, and
    // a pipeline spelled with `@N` suffixes, byte for byte.
    let _serial = lock();
    let (socket, handle) = start_daemon("jx", 1, None);
    let input = io::read_mig_path(benchmarks_dir().join("mult4.aig")).unwrap();
    let (one, _) = submit_captured(
        &socket,
        &blif_job("x1", &input, "strash; fhash!:TFD; fhash!:B", 1),
    );
    assert!(one.outcome.ok && !one.outcome.cached);
    for (id, pipeline, threads) in [
        ("x2", "strash; fhash!:TFD; fhash!:B", 2),
        ("x4", "strash; fhash!:TFD@4; fhash!:B@4", 1),
    ] {
        let (other, stream) = submit_captured(&socket, &blif_job(id, &input, pipeline, threads));
        assert!(other.outcome.ok, "{id}");
        assert!(
            other.outcome.cached,
            "{id}: not served from the threads: 1 record"
        );
        assert!(stream.contains("\"cached\":true"), "{id}: {stream}");
        assert_eq!(other.outcome.circuit, one.outcome.circuit, "{id}");
    }
    stop_daemon(&socket, handle);
}

#[test]
fn concurrent_clients_on_the_same_netlist_get_identical_circuits() {
    let _serial = lock();
    let cache = tmp("dmn_conc.cache");
    std::fs::remove_file(&cache).ok();
    let (socket, handle) = start_daemon("conc", 2, Some(cache.clone()));
    let input = io::read_mig_path(benchmarks_dir().join("adder8.aag")).unwrap();

    let clients: Vec<_> = (0..2)
        .map(|i| {
            let socket = socket.clone();
            let req = blif_job(&format!("cc{i}"), &input, "strash; fhash!:TFD; size!", 1);
            std::thread::spawn(move || migd::submit(&socket, &req, |_| {}).expect("client submit"))
        })
        .collect();
    let results: Vec<migd::JobResult> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    assert!(results.iter().all(|r| r.outcome.ok));
    assert_eq!(
        results[0].outcome.circuit, results[1].outcome.circuit,
        "racing clients must receive byte-identical circuits"
    );
    // Once both are done the record is installed: a third client is a
    // guaranteed result-tier hit.
    let req = blif_job("cc3", &input, "strash; fhash!:TFD; size!", 1);
    let (third, _) = submit_captured(&socket, &req);
    assert!(
        third.outcome.cached,
        "post-race job must hit the result tier"
    );
    assert_eq!(third.outcome.circuit, results[0].outcome.circuit);
    stop_daemon(&socket, handle);
    std::fs::remove_file(&cache).ok();
}

/// The deterministic part of a job stream's metric lines: counters and
/// gauges whole, histograms by observation count (their sums are
/// timings).
fn stream_metrics(stream: &str) -> Vec<String> {
    let mut out: Vec<String> = stream
        .lines()
        .filter_map(|l| obs::json::parse(l).ok())
        .filter_map(|v| {
            let name = v.get("name").and_then(obs::json::Value::as_str)?;
            let field = match v.get("type").and_then(obs::json::Value::as_str)? {
                "counter" | "gauge" => "value",
                "hist" | "vhist" => "count",
                _ => return None,
            };
            let n = v.get(field).and_then(obs::json::Value::as_i64)?;
            Some(format!("{name} {field} {n}"))
        })
        .collect();
    out.sort();
    out
}

/// A served job: its result, its captured stream, and the client-side
/// instants it was submitted and answered.
type Served = (migd::JobResult, String, Instant, Instant);

/// Runs `jobs` on a fresh two-worker daemon, all submitted at once.
fn run_together(tag: &str, jobs: &[migd::JobRequest]) -> Vec<Served> {
    let (socket, handle) = start_daemon(tag, 2, None);
    let start = Arc::new(std::sync::Barrier::new(jobs.len()));
    let clients: Vec<_> = jobs
        .iter()
        .cloned()
        .map(|req| {
            let (socket, start) = (socket.clone(), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                let sent = Instant::now();
                let (result, stream) = submit_captured(&socket, &req);
                (result, stream, sent, Instant::now())
            })
        })
        .collect();
    let out = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    stop_daemon(&socket, handle);
    out
}

/// Two different sharded jobs served side by side by two workers report
/// exactly the metric lines each reports when it runs alone: a job's
/// counters are its own, not a diff of the process-wide registry that
/// the other job's scheduler workers also feed.
#[test]
fn concurrent_jobs_report_only_their_own_metrics() {
    // Three passes over two circuits of similar run time, so the runs
    // outweigh the fixed cost of shipping and parsing the circuits and
    // overlap for most of their length (the premise below).
    const PIPELINE: &str = "fhash!:TFD; algebraic; fhash!:B";
    let _serial = lock();
    let job = |id: &str, raw: Mig| blif_job(id, &aig::to_mig(&aig::from_mig(&raw)), PIPELINE, 2);
    let jobs = [
        job("mult", benchgen::multiplier(16)),
        job("hyp", benchgen::hypotenuse(8)),
    ];
    let alone: Vec<Vec<String>> = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            let (result, stream, _, _) =
                run_together(&format!("own{i}"), std::slice::from_ref(job))
                    .pop()
                    .expect("one job");
            assert!(result.outcome.ok, "{}: {}", job.id, result.outcome.error);
            stream_metrics(&stream)
        })
        .collect();
    let together = run_together("own2", &jobs);
    // Both server-side runs lie inside the clients' common window; if
    // their runtimes add up to more than that window, they overlapped.
    let first_sent = together.iter().map(|t| t.2).min().expect("two jobs");
    let last_answer = together.iter().map(|t| t.3).max().expect("two jobs");
    let busy: u64 = together.iter().map(|t| t.0.outcome.runtime_ns).sum();
    let window = (last_answer - first_sent).as_nanos() as u64;
    assert!(
        busy > window,
        "test premise: the jobs overlapped ({busy} ns of runs in a {window} ns window)"
    );
    for ((job, (result, stream, _, _)), own) in jobs.iter().zip(&together).zip(&alone) {
        assert!(result.outcome.ok, "{}: {}", job.id, result.outcome.error);
        assert!(
            own.iter().any(|l| l.starts_with("shard.replacements ")),
            "test premise: {} ran the scheduler",
            job.id
        );
        assert_eq!(
            &stream_metrics(stream),
            own,
            "{}: metrics of the concurrent run differ from the job's own",
            job.id
        );
    }
}

#[test]
fn malformed_jobs_fail_without_wedging_the_worker() {
    let _serial = lock();
    let (socket, handle) = start_daemon("bad", 1, None);
    let bad = migd::JobRequest {
        id: "bad".into(),
        pipeline: "fhash!:T".into(),
        threads: 1,
        format: "blif".into(),
        circuit: "not a circuit".into(),
    };
    let result = migd::submit(&socket, &bad, |_| {}).unwrap();
    assert!(!result.outcome.ok && result.outcome.error.contains("parse"));

    let bad_pipeline = migd::JobRequest {
        id: "badp".into(),
        pipeline: "frobnicate".into(),
        format: "blif".into(),
        threads: 1,
        circuit: io::blif::Blif::from_mig(
            &io::read_mig_path(benchmarks_dir().join("adder4.blif")).unwrap(),
            "m",
        )
        .to_text(),
    };
    let result = migd::submit(&socket, &bad_pipeline, |_| {}).unwrap();
    assert!(!result.outcome.ok && result.outcome.error.contains("pipeline"));

    // The worker survives both failures.
    let input = io::read_mig_path(benchmarks_dir().join("full_adder.aag")).unwrap();
    let (ok, _) = submit_captured(&socket, &blif_job("ok", &input, "fhash!:T", 1));
    assert!(ok.outcome.ok);
    stop_daemon(&socket, handle);
}

#[test]
fn oversized_thread_counts_fail_and_the_next_job_is_served() {
    // A job asking for more worker threads than the pipeline bound gets
    // an error result before any thread is spawned, and the pool worker
    // keeps serving (one worker, so the next job reaches the same one).
    let _serial = lock();
    let (socket, handle) = start_daemon("thr", 1, None);
    let input = io::read_mig_path(benchmarks_dir().join("adder8.aag")).unwrap();
    let greedy = blif_job("greedy", &input, "fhash!:B", 100_000);
    let (result, _) = submit_captured(&socket, &greedy);
    assert!(!result.outcome.ok, "a 100000-thread job must be refused");
    assert!(
        result.outcome.error.contains("at most 256"),
        "error names the bound: {}",
        result.outcome.error
    );
    let (ok, _) = submit_captured(&socket, &blif_job("next", &input, "fhash!:B", 2));
    assert!(ok.outcome.ok, "{}", ok.outcome.error);
    stop_daemon(&socket, handle);
}

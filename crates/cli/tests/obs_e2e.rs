//! End-to-end tests of the observability layer (ISSUE 6): span-nesting
//! well-formedness across thread counts, registry-reconstructed stats,
//! the `--trace` / `--json-report` binary surface, and the
//! concurrent-propose-worker acceptance criterion.
//!
//! The span recorder is process-global, so every test that enables
//! tracing (or asserts on global counters) serializes on [`trace_lock`].

use cli::{parse_pipeline, run_pipeline_jobs};
use std::path::PathBuf;
use std::process::Command;
use std::sync::{Mutex, MutexGuard, OnceLock};

fn benchmarks_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks")
}

fn trace_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[test]
fn span_nesting_well_formed_across_thread_counts() {
    // Sharded scheduler runs at 1/2/4 threads must produce a
    // well-formed span tree: per thread, every `End` matches the
    // innermost open `Begin`, nothing is left open, timestamps are
    // monotone. The expected hierarchy (`pipeline → pass → sched:step →
    // propose/commit → …`) must actually appear.
    let m = io::read_mig_path(benchmarks_dir().join("adder8.aag")).unwrap();
    for threads in [1usize, 2, 4] {
        let _g = trace_lock();
        obs::trace::start();
        let passes = parse_pipeline(&format!("strash; fhash!:B@{threads}; size!")).unwrap();
        run_pipeline_jobs(&m, &passes, 1).unwrap();
        let events = obs::trace::finish();
        let spans = obs::trace::validate(&events)
            .unwrap_or_else(|e| panic!("@{threads}: malformed span tree: {e}"));
        assert!(spans > 0, "@{threads}: no spans recorded");
        for needle in [
            "pipeline",
            "pass:fhash!:B",
            "sched:step",
            "propose",
            "commit",
        ] {
            assert!(
                events.iter().any(|e| e.name.starts_with(needle)),
                "@{threads}: no span named {needle}*"
            );
        }
    }
}

#[test]
fn registry_reconstructed_stats_match_engine_returns() {
    // The legacy stats structs are reconstructed from the metric
    // registry; re-deriving them from the caller-side scope delta must
    // give exactly the values the engines return, on every benchmark.
    let _g = trace_lock();
    let engine = fhash::FunctionalHashing::with_default_database();
    for name in ["full_adder.aag", "adder8.aag", "mult4.aig", "adder4.blif"] {
        let m = io::read_mig_path(benchmarks_dir().join(name)).unwrap();

        let mut opt = m.clone();
        let (stats, delta) =
            obs::metrics::scoped(|| engine.pass(&mut opt, fhash::Variant::TopDown, &mut None, 1));
        assert_eq!(
            fhash::FhStats::from_delta(&delta),
            stats,
            "{name}: FhStats diverges from its registry delta"
        );

        let mut alg = m.cleanup();
        let (stats, delta) = obs::metrics::scoped(|| migalg::optimize(&mut alg, 4));
        assert_eq!(
            migalg::AlgStats::from_delta(&delta),
            stats,
            "{name}: AlgStats diverges from its registry delta"
        );
    }
}

#[test]
fn history_counters_survive_fruitless_rounds_in_both_drivers() {
    // Rollback/retry parity across the fhash and algebraic drivers: a
    // converge round that commits nothing is undone (or never changes
    // the graph), dropping its outcome counters — but its event-history
    // counters (profiling totals, round counts) record work that
    // happened and must survive identically in both drivers. On adder8
    // `converge` drives the scheduler; fhash's unit test
    // `serial_round_loop_keeps_the_history_of_a_fruitless_round` holds
    // the serial round loop to the same rule.
    let _g = trace_lock();
    let m = io::read_mig_path(benchmarks_dir().join("adder8.aag")).unwrap();
    let engine = fhash::FunctionalHashing::with_default_database();

    let mut fixed = m.clone();
    engine.converge(&mut fixed, fhash::Variant::TopDown, 1);
    let mut again = fixed.clone();
    let ((stats, rounds), delta) =
        obs::metrics::scoped(|| engine.converge(&mut again, fhash::Variant::TopDown, 1));
    assert_eq!(stats.replacements, 0, "already at the fixpoint");
    assert_eq!(rounds, 1, "one fruitless round");
    assert_eq!(delta.get(obs::Metric::FhReplacements), 0);
    assert!(
        delta.get(obs::Metric::CutsScored) > 0,
        "fhash: profiling history must survive the fruitless round"
    );

    let mut alg_fixed = m.cleanup();
    migalg::size_converge(&mut alg_fixed);
    let mut alg_again = alg_fixed.clone();
    let ((stats, rounds), delta) = obs::metrics::scoped(|| migalg::size_converge(&mut alg_again));
    assert_eq!(stats.merges, 0, "already at the fixpoint");
    assert!(rounds >= 1);
    assert_eq!(delta.get(obs::Metric::AlgMerges), 0);
    assert_eq!(
        delta.get(obs::Metric::AlgRounds),
        rounds as u64,
        "algebraic: round history must survive the fruitless rounds"
    );
}

#[test]
fn pass_reports_carry_metric_deltas() {
    // Every pass report carries the pass's registry delta; the rendered
    // note counts must agree with it.
    let _g = trace_lock();
    let m = io::read_mig_path(benchmarks_dir().join("adder8.aag")).unwrap();
    let passes = parse_pipeline("strash; fhash:T; algebraic; cec").unwrap();
    let (_, reports) = run_pipeline_jobs(&m, &passes, 1).unwrap();
    let fh = &reports[1];
    let repl = fh.metrics.get(obs::Metric::FhReplacements)
        + fh.metrics.get(obs::Metric::ShardReplacements);
    assert!(
        fh.note.starts_with(&format!("{repl} replacements")),
        "{}",
        fh.note
    );
    assert!(
        fh.metrics.get(obs::Metric::CutsScored) > 0,
        "profiling counters attached to the pass report"
    );
    let cec_report = &reports[3];
    assert!(cec_report.metrics.get(obs::Metric::CecSatCalls) > 0);
    assert!(cec_report.metrics.hist_count(obs::Metric::CecSatNs) > 0);
}

/// Chrome-trace span reconstructed from `B`/`E` event pairs.
fn chrome_spans(doc: &obs::json::Value, name: &str) -> Vec<(u64, f64, f64)> {
    let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
    let mut open: std::collections::HashMap<u64, Vec<f64>> = std::collections::HashMap::new();
    let mut out = Vec::new();
    for e in evs {
        if e.get("name").and_then(obs::json::Value::as_str) != Some(name) {
            continue;
        }
        let tid = e.get("tid").unwrap().as_i64().unwrap() as u64;
        let ts = e.get("ts").unwrap().as_f64().unwrap();
        match e.get("ph").and_then(obs::json::Value::as_str) {
            Some("B") => open.entry(tid).or_default().push(ts),
            Some("E") => {
                let begin = open.get_mut(&tid).and_then(Vec::pop).expect("balanced");
                out.push((tid, begin, ts));
            }
            _ => {}
        }
    }
    out
}

#[test]
fn sharded_trace_shows_concurrent_propose_workers() {
    // ISSUE 6 acceptance: `fhash!:B@4` on adder8.aag with `--trace`
    // produces a Chrome-trace file in which at least two propose-phase
    // worker spans (different tids) overlap in time. The propose barrier
    // makes the overlap deterministic whenever a step has >= 2 active
    // regions, but a heavily loaded single-core host can very rarely
    // lose a worker's events in the child; a genuine regression fails
    // every attempt, so a short retry keeps the gate meaningful without
    // the flake.
    let _g = trace_lock();
    let out = std::env::temp_dir().join(format!("obs_e2e_{}.json", std::process::id()));
    let mut workers = Vec::new();
    for _attempt in 0..3 {
        let status = Command::new(env!("CARGO_BIN_EXE_migopt"))
            .arg("-i")
            .arg(benchmarks_dir().join("adder8.aag"))
            .args(["-p", "strash; fhash!:B@4", "--trace"])
            .arg(&out)
            .output()
            .expect("spawn migopt");
        assert!(
            status.status.success(),
            "{}",
            String::from_utf8_lossy(&status.stderr)
        );
        let text = std::fs::read_to_string(&out).unwrap();
        let doc = obs::json::parse(&text).expect("chrome trace parses");
        workers = chrome_spans(&doc, "propose:worker");
        if workers.len() >= 2 {
            break;
        }
    }
    assert!(
        workers.len() >= 2,
        "want >= 2 worker spans, got {}",
        workers.len()
    );
    let overlap = workers.iter().enumerate().any(|(i, &(tid_a, b_a, e_a))| {
        workers[i + 1..]
            .iter()
            .any(|&(tid_b, b_b, e_b)| tid_a != tid_b && b_a < e_b && b_b < e_a)
    });
    assert!(overlap, "no concurrent propose:worker spans: {workers:?}");
    std::fs::remove_file(&out).ok();
}

#[test]
fn traced_jsonl_validates_against_schema() {
    // `--trace x.jsonl` emits the JSONL event stream; it must pass the
    // schema validator (meta line first, known types, balanced spans)
    // and carry final metric lines.
    let _g = trace_lock();
    let out = std::env::temp_dir().join(format!("obs_e2e_{}.jsonl", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_migopt"))
        .arg("-i")
        .arg(benchmarks_dir().join("full_adder.aag"))
        .args(["-p", "strash; fhash:B@2; cec", "--trace"])
        .arg(&out)
        .output()
        .expect("spawn migopt");
    assert!(
        status.status.success(),
        "{}",
        String::from_utf8_lossy(&status.stderr)
    );
    let text = std::fs::read_to_string(&out).unwrap();
    assert!(
        text.starts_with("{\"type\":\"meta\",\"version\":1,\"clock\":\"ns\"}\n"),
        "golden meta line"
    );
    let summary = obs::export::validate_jsonl(&text).expect("schema-valid JSONL");
    assert!(summary.spans > 0, "no complete spans");
    assert!(summary.counters > 0, "no metric lines");
    std::fs::remove_file(&out).ok();
}

#[test]
fn json_report_round_trips_through_serde_free_parsing() {
    // ISSUE 6 acceptance: `--json-report` output parses with the obs
    // crate's serde-free JSON reader and reproduces the per-pass data.
    let out = std::env::temp_dir().join(format!("obs_e2e_report_{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_migopt"))
        .arg("-i")
        .arg(benchmarks_dir().join("adder8.aag"))
        .args(["-p", "strash; fhash:T; cec", "--json-report"])
        .arg(&out)
        .output()
        .expect("spawn migopt");
    assert!(
        status.status.success(),
        "{}",
        String::from_utf8_lossy(&status.stderr)
    );
    let text = std::fs::read_to_string(&out).unwrap();
    let doc = obs::json::parse(&text).expect("report parses");
    assert!(doc
        .get("input")
        .and_then(obs::json::Value::as_str)
        .unwrap()
        .ends_with("adder8.aag"));
    let passes = doc.get("passes").unwrap().as_arr().unwrap();
    assert_eq!(passes.len(), 3);
    let fh = &passes[1];
    assert_eq!(fh.get("pass").unwrap().as_str(), Some("fhash:T"));
    let before = fh.get("size_before").unwrap().as_i64().unwrap();
    let after = fh.get("size_after").unwrap().as_i64().unwrap();
    assert!(after < before, "fhash:T must shrink adder8");
    let repl = fh
        .get("metrics")
        .unwrap()
        .get("fhash.replacements")
        .and_then(obs::json::Value::as_i64)
        .unwrap();
    assert!(repl > 0);
    assert_eq!(
        passes[2].get("note").unwrap().as_str(),
        Some("equivalent (SAT proof)")
    );
    assert!(doc.get("size").unwrap().as_i64().unwrap() > 0);
    std::fs::remove_file(&out).ok();
}

#[test]
fn json_report_carries_run_metrics_and_cache_counters() {
    // The report's top-level "metrics" object exposes what no per-pass
    // scope sees: the end-of-run storage gauges and the persistent
    // cache counters. Run the same job twice over one cache file and
    // read both reports back through the serde-free parser.
    let out = std::env::temp_dir().join(format!("obs_e2e_runmet_{}.json", std::process::id()));
    let cache = std::env::temp_dir().join(format!("obs_e2e_runmet_{}.cache", std::process::id()));
    std::fs::remove_file(&cache).ok();
    let run = || {
        let status = Command::new(env!("CARGO_BIN_EXE_migopt"))
            .arg("-i")
            .arg(benchmarks_dir().join("adder8.aag"))
            .args(["-p", "strash; fhash!:TFD", "-q", "--json-report"])
            .arg(&out)
            .arg("--cache")
            .arg(&cache)
            .output()
            .expect("spawn migopt");
        assert!(
            status.status.success(),
            "{}",
            String::from_utf8_lossy(&status.stderr)
        );
        std::fs::read_to_string(&out).unwrap()
    };
    let metric = |doc: &obs::json::Value, name: &str| {
        doc.get("metrics")
            .unwrap_or_else(|| panic!("report lacks a top-level metrics object"))
            .get(name)
            .and_then(obs::json::Value::as_i64)
            .unwrap_or(0)
    };

    let cold = obs::json::parse(&run()).expect("cold report parses");
    assert!(
        metric(&cold, "mig.bytes_per_node") > 0,
        "storage gauge must be exposed"
    );
    assert!(metric(&cold, "cache.flushed") > 0, "cold run persists");
    assert_eq!(metric(&cold, "cache.result_hits"), 0);

    let warm = obs::json::parse(&run()).expect("warm report parses");
    assert!(metric(&warm, "cache.loaded") > 0, "warm run loads the file");
    assert_eq!(
        metric(&warm, "cache.result_hits"),
        1,
        "warm run is a result-tier hit"
    );
    assert_eq!(
        warm.get("size").unwrap().as_i64(),
        cold.get("size").unwrap().as_i64()
    );
    assert_eq!(
        warm.get("depth").unwrap().as_i64(),
        cold.get("depth").unwrap().as_i64()
    );
    std::fs::remove_file(&out).ok();
    std::fs::remove_file(&cache).ok();
}

#[test]
fn metrics_flag_prints_registry_table() {
    let status = Command::new(env!("CARGO_BIN_EXE_migopt"))
        .arg("-i")
        .arg(benchmarks_dir().join("adder8.aag"))
        .args(["-p", "strash; fhash:T", "--metrics", "-q"])
        .output()
        .expect("spawn migopt");
    assert!(status.status.success());
    let stdout = String::from_utf8_lossy(&status.stdout);
    assert!(
        stdout.contains("fhash.replacements") && stdout.contains("fhash.cuts_scored"),
        "metric table missing rows: {stdout}"
    );
}

//! `perfbench`: the repository's end-to-end and per-crate benchmark.
//!
//! ```text
//! perfbench --workload <arith|deep|service|verify|all> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --freeze        # rewrite the verify workload's frozen files
//! ```
//!
//! Each workload runs in its own process (`all` starts one child per
//! workload). With `--trace 0` the last stdout line is a JSON object
//! with the end-to-end metrics; with `--trace 1` it holds the per-crate
//! metrics of a traced run. See `perfbench/README.md`.

mod fold;
mod harness;
mod optimize;
mod service;
mod stats;
mod verify;

use harness::{Ctx, Metrics, Report};
use mig::Mig;
use std::fmt::Write as _;
use std::process::ExitCode;

const WORKLOADS: &[&str] = &["arith", "deep", "service", "verify"];

/// Every per-layer metric, in report order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.propose_s", "s"),
    ("core.propose_busy_s", "s"),
    ("core.baseline_s", "s"),
    ("core.polish_s", "s"),
    ("core.cuts_scored", "count"),
    ("core.replacements", "count"),
    ("core.useful_ratio", "ratio"),
    ("mig.commit_s", "s"),
    ("mig.replace_node_s", "s"),
    ("mig.replace_node_calls", "count"),
    ("mig.replace_node_p50_us", "us"),
    ("mig.replace_node_p99_us", "us"),
    ("mig.replace_node_max_us", "us"),
    ("mig.wave_sim_s", "s"),
    ("mig.wave_reconcile_s", "s"),
    ("mig.wave_finalize_s", "s"),
    ("mig.wave_fallback_ratio", "ratio"),
    ("mig.partition_s", "s"),
    ("mig.compact_s", "s"),
    ("mig.bytes_per_node", "B"),
    ("mig.dead_slot_pct", "%"),
    ("cuts.enumerate_s", "s"),
    ("cuts.hit_rate", "ratio"),
    ("cuts.arena_mb", "MB"),
    ("truth.canonize_ns", "ns"),
    ("truth.canonizations", "count"),
    ("algebraic.s", "s"),
    ("algebraic.moves", "count"),
    ("fcache.sig_hit_rate", "ratio"),
    ("fcache.result_hit_rate", "ratio"),
    ("fcache.flush_ms", "ms"),
    ("fcache.file_kb", "KB"),
    ("fcache.load_ms", "ms"),
    ("io.blif_parse_mb_s", "MB/s"),
    ("io.blif_write_mb_s", "MB/s"),
    ("migd.server_ms_p50", "ms"),
    ("migd.transport_ms_p50", "ms"),
    ("migd.transport_ms_p90", "ms"),
    ("migd.request_parse_mb_s", "MB/s"),
    ("migd.result_parse_mb_s", "MB/s"),
    ("cec.sat_s", "s"),
    ("cec.sat_calls", "count"),
    ("cec.sim_s", "s"),
    ("obs.trace_overhead", "x"),
    ("obs.events", "count"),
];

/// Synthesizes an AND-expanded corpus instance: `mult:W`, `hyp:W` or
/// `ctrl:W:R:S:SEED`.
pub fn generate(spec: &str) -> Result<Mig, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let num = |s: &str| {
        s.parse::<usize>()
            .map_err(|_| format!("{spec}: bad number {s:?}"))
    };
    let raw = match parts.as_slice() {
        ["mult", w] => benchgen::multiplier(num(w)?),
        ["hyp", w] => benchgen::hypotenuse(num(w)?),
        ["ctrl", w, r, s, seed] => {
            benchgen::random_control(num(w)?, num(r)?, num(s)?, num(seed)? as u64)
        }
        _ => return Err(format!("unknown instance {spec:?}")),
    };
    Ok(aig::to_mig(&aig::from_mig(&raw)))
}

/// SplitMix64: the benchmark's seeded draws.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
    }
}

/// A per-process scratch directory under `.perfbench_tmp` in the working
/// directory, removed on drop. Relative, so socket paths stay short.
pub struct TempDir(std::path::PathBuf);

impl TempDir {
    pub fn new() -> Result<TempDir, String> {
        let dir = std::path::PathBuf::from(".perfbench_tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent only if another run still uses it.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => {
                out.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if out.workload != "all" && !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(out)
}

fn stress_arith(m: &Metrics) -> (String, bool) {
    let (p, r) = (get(m, "core.propose_s"), get(m, "mig.replace_node_s"));
    (
        format!("core.propose_s {p:.3} >= 2 x mig.replace_node_s {r:.3}"),
        p >= 2.0 * r,
    )
}

fn stress_deep(m: &Metrics) -> (String, bool) {
    let (r, p) = (get(m, "mig.replace_node_s"), get(m, "core.propose_s"));
    (
        format!("mig.replace_node_s {r:.3} >= core.propose_s {p:.3}"),
        r >= p,
    )
}

fn stress_service(m: &Metrics) -> (String, bool) {
    let (t, s) = (
        get(m, "migd.transport_ms_p50"),
        get(m, "migd.server_ms_p50"),
    );
    (
        format!("migd.transport_ms_p50 {t:.2} > migd.server_ms_p50 {s:.2}"),
        t > s,
    )
}

fn stress_verify(m: &Metrics) -> (String, bool) {
    let (s, w) = (get(m, "cec.sat_s"), get(m, "wall_s"));
    (
        format!("cec.sat_s {s:.3} >= wall_s {w:.3} / 2"),
        s >= w / 2.0,
    )
}

fn get(m: &Metrics, name: &str) -> f64 {
    m.iter().find(|x| x.0 == name).map_or(0.0, |x| x.1)
}

fn run_one(a: &Args) -> Result<Report, String> {
    let ctx = Ctx {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
    };
    match a.workload.as_str() {
        "arith" => harness::run::<optimize::Arith>(&ctx, stress_arith),
        "deep" => harness::run::<optimize::Deep>(&ctx, stress_deep),
        "service" => harness::run::<service::Service>(&ctx, stress_service),
        "verify" => harness::run::<verify::Verify>(&ctx, stress_verify),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn json_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

fn print_report(a: &Args, r: &Report) {
    println!(
        "== perfbench {} | seed {} | {} s | trace {} | {} cores",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        cores()
    );
    println!("{}", r.description);
    let metrics = if a.trace { &r.per_layer } else { &r.end_to_end };
    for (name, value, unit) in metrics {
        println!("  {name:<26} {value:>14.6} {unit}");
    }
    println!(
        "  {:<26} {:>14.6} share ({} of {} checked ops failed)",
        "fail_share",
        stats::ratio(r.failed as f64, r.attempted as f64),
        r.failed,
        r.attempted
    );
    if let Some((claim, held)) = &r.stress {
        println!(
            "  stress: {claim}: {}",
            if *held { "holds" } else { "DOES NOT HOLD" }
        );
    }
    if a.trace {
        println!("  top spans by self time (per run, all traced iterations):");
        for (name, s) in r.profile.by_self_time().into_iter().take(12) {
            println!(
                "    {name:<28} self {:>9.3} s  total {:>9.3} s  n {:>8}  p50 {:>10.1} us  p99 {:>10.1} us  max {:>10.1} us",
                s.self_ns as f64 / 1e9,
                s.total_ns as f64 / 1e9,
                s.count,
                s.quantile_us(0.5),
                s.quantile_us(0.99),
                s.max_us()
            );
        }
    }
    println!(
        "{}",
        json_line(r.failed == 0, r.attempted.max(1), r.failed, metrics)
    );
}

/// Runs every workload in a child process of its own and prints their
/// reports, then one combined JSON line with `workload.metric` names.
fn run_all(a: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0usize, 0usize);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &a.seed.to_string()])
            .args([
                "--seconds",
                &a.seconds.to_string(),
                "--trace",
                if a.trace { "1" } else { "0" },
            ])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("{w}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        if !out.status.success() {
            return Err(format!("workload {w} failed ({})", out.status));
        }
        let last = stdout.lines().last().unwrap_or_default();
        let v = obs::json::parse(last).map_err(|e| format!("{w}: result line: {e}"))?;
        correct &= matches!(v.get("correct"), Some(obs::json::Value::Bool(true)));
        attempted += v
            .get("attempted")
            .and_then(obs::json::Value::as_i64)
            .unwrap_or(0) as usize;
        failed += v
            .get("failed")
            .and_then(obs::json::Value::as_i64)
            .unwrap_or(0) as usize;
        let Some(obs::json::Value::Obj(members)) = v.get("metrics") else {
            return Err(format!("{w}: result line has no metrics"));
        };
        for (name, m) in members {
            let value = m.get("value").and_then(obs::json::Value::as_f64);
            let unit = m.get("unit").and_then(obs::json::Value::as_str);
            metrics.push((
                format!("{w}.{name}"),
                value.unwrap_or(0.0),
                unit.unwrap_or_default().to_string(),
            ));
        }
    }
    let borrowed: Vec<(&str, f64, &str)> = metrics
        .iter()
        .map(|(n, v, u)| (n.as_str(), *v, u.as_str()))
        .collect();
    println!(
        "{}",
        json_line(correct, attempted.max(1), failed, &borrowed)
    );
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw == ["--freeze"] {
        return match verify::freeze() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = parse_args(&raw).and_then(|a| {
        if a.workload == "all" {
            run_all(&a)
        } else {
            run_one(&a).map(|r| print_report(&a, &r))
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

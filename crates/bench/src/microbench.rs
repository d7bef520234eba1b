//! A minimal self-contained micro-benchmark harness.
//!
//! The container this workspace builds in has no network access, so the
//! `benches/` targets use this instead of Criterion: adaptive iteration
//! counts, mean/min timings, a table on stdout, and a `BENCH_<name>.json`
//! file at the workspace root so regressions are diffable across runs.

use std::hint::black_box;
use std::time::Instant;

/// One benchmark's timings.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark id, e.g. `"io/parse_binary_adder64"`.
    pub name: String,
    /// Number of timed iterations.
    pub iters: u32,
    /// Mean wall-clock time per iteration, nanoseconds.
    pub mean_ns: f64,
    /// Fastest iteration, nanoseconds.
    pub min_ns: f64,
    /// Host cores available when the row was measured (`Some` for `@N`
    /// multi-thread rows). A `@4` row recorded on a 1-core host is not
    /// comparable to one recorded on 8 cores; gates read this instead of
    /// probing `nproc` at gate time, which can disagree with the host
    /// that produced the numbers.
    pub cores: Option<u32>,
}

impl Measurement {
    /// Tags the row with the measuring host's core count (see
    /// [`host_cores`]); use on `@N` rows so readers can tell whether the
    /// thread count was actually backed by hardware.
    #[must_use]
    pub fn on_host_cores(mut self) -> Self {
        self.cores = Some(host_cores());
        self
    }
}

/// Cores available to this process (1 if the query fails).
pub fn host_cores() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
}

/// Times `f`, choosing an iteration count that targets roughly 300 ms of
/// total measurement (at least 3, at most 1000 iterations). The closure's
/// result is passed through [`black_box`] so the work is not optimized
/// away.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> Measurement {
    // Warm-up + calibration run.
    let t0 = Instant::now();
    black_box(f());
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let iters = (0.3 / once).clamp(3.0, 1000.0) as u32;
    let mut total = 0.0f64;
    let mut min = f64::INFINITY;
    for _ in 0..iters {
        let t = Instant::now();
        black_box(f());
        let dt = t.elapsed().as_secs_f64();
        total += dt;
        min = min.min(dt);
    }
    report(name, iters, total, min)
}

/// Times several closures round-robin, one call of each per round, for
/// roughly 300 ms per row (at least 3, at most 1000 rounds). A gate that
/// holds one row to a multiple of another should read both from one
/// group: a swing in host speed then hits them alike.
pub fn bench_round_robin(rows: &mut [(&str, &mut dyn FnMut() -> usize)]) -> Vec<Measurement> {
    // Warm-up + calibration round.
    let t0 = Instant::now();
    for (_, f) in rows.iter_mut() {
        black_box(f());
    }
    let round = t0.elapsed().as_secs_f64().max(1e-9);
    let iters = (0.3 * rows.len() as f64 / round).clamp(3.0, 1000.0) as u32;
    let mut total = vec![0.0f64; rows.len()];
    let mut min = vec![f64::INFINITY; rows.len()];
    for _ in 0..iters {
        for (k, (_, f)) in rows.iter_mut().enumerate() {
            let t = Instant::now();
            black_box(f());
            let dt = t.elapsed().as_secs_f64();
            total[k] += dt;
            min[k] = min[k].min(dt);
        }
    }
    rows.iter()
        .enumerate()
        .map(|(k, (name, _))| report(name, iters, total[k], min[k]))
        .collect()
}

/// Prints one row's timings and returns them.
fn report(name: &str, iters: u32, total_s: f64, min_s: f64) -> Measurement {
    let m = Measurement {
        name: name.to_string(),
        iters,
        mean_ns: total_s / f64::from(iters) * 1e9,
        min_ns: min_s * 1e9,
        cores: None,
    };
    println!(
        "{:<44} {:>10} {:>12}   ({} iters)",
        m.name,
        format_ns(m.mean_ns),
        format!("min {}", format_ns(m.min_ns)),
        m.iters
    );
    m
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Writes `BENCH_<stem>.json` at the workspace root with all
/// measurements, so CI runs can be diffed. Failure to write is reported
/// but not fatal (benches still print to stdout).
pub fn write_json(stem: &str, measurements: &[Measurement]) {
    write_json_with_context(stem, measurements, &[]);
}

/// [`write_json`] plus a `"context"` object of `(label, value)` rows —
/// derived rates from the metric registry (regions/sec, cut-cache hit
/// rate) that give the timing rows workload context.
pub fn write_json_with_context(
    stem: &str,
    measurements: &[Measurement],
    context: &[(String, f64)],
) {
    let mut s = String::from("{\n");
    for (i, m) in measurements.iter().enumerate() {
        let comma = if i + 1 == measurements.len() && context.is_empty() {
            ""
        } else {
            ","
        };
        let cores = m
            .cores
            .map_or(String::new(), |c| format!(", \"cores\": {c}"));
        s.push_str(&format!(
            "  \"{}\": {{\"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"iters\": {}{}}}{}\n",
            m.name, m.mean_ns, m.min_ns, m.iters, cores, comma
        ));
    }
    if !context.is_empty() {
        s.push_str("  \"context\": {");
        for (i, (label, value)) in context.iter().enumerate() {
            let comma = if i + 1 == context.len() { "" } else { ", " };
            s.push_str(&format!("\"{label}\": {value:.3}{comma}"));
        }
        s.push_str("}\n");
    }
    s.push_str("}\n");
    let path = format!("{}/../../BENCH_{stem}.json", env!("CARGO_MANIFEST_DIR"));
    match std::fs::write(&path, &s) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\nwarning: could not write {path}: {e}"),
    }
}

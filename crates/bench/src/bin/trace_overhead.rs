//! CI gate for the tracing-off overhead bound: with tracing disabled,
//! every span site in the optimizer is one relaxed atomic load, so the
//! instrumented `sched/chain512@1` workload must pay < 5% for the
//! instrumentation. Measured directly, without needing an
//! un-instrumented build: one traced run counts the events the workload
//! *would* record, a tight loop prices the disabled span guard, and the
//! product is compared against the untraced workload runtime.
//!
//! Prints the traced/untraced pair for the record and exits 1 when the
//! bound is violated.

use bench_harness::workloads::parallel_chain_workload;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

const BOUND: f64 = 0.05;

fn main() -> ExitCode {
    let engine = fhash::FunctionalHashing::with_default_database();
    let chains = parallel_chain_workload(8, 512);
    let job = |m: &mig::Mig| {
        let mut m = m.clone();
        let (stats, _) = engine.converge(&mut m, fhash::Variant::TopDown, 1);
        black_box((stats.replacements, m.num_gates()))
    };

    // Untraced (the default): best of a few runs.
    let mut untraced_s = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        job(&chains);
        untraced_s = untraced_s.min(t0.elapsed().as_secs_f64());
    }

    // Traced once: how many events the workload records, and the
    // traced runtime for the record.
    obs::trace::start();
    let t0 = Instant::now();
    job(&chains);
    let traced_s = t0.elapsed().as_secs_f64();
    let events = obs::trace::finish().len();

    // Price of one *disabled* span guard (the cost every span site pays
    // when tracing is off).
    let calls = 4_000_000u64;
    let t0 = Instant::now();
    for _ in 0..calls {
        black_box(obs::trace::span(black_box("x")));
    }
    let per_call_s = t0.elapsed().as_secs_f64() / calls as f64;

    // One create+drop of a disabled guard per span; a span is two events.
    let overhead = (events as f64 / 2.0) * per_call_s / untraced_s;
    println!("sched/chain512@1 untraced   {:>10.3} ms", untraced_s * 1e3);
    println!("sched/chain512@1 traced     {:>10.3} ms", traced_s * 1e3);
    println!("events per traced run       {events:>10}");
    println!(
        "disabled span guard         {:>10.1} ns/site",
        per_call_s * 1e9
    );
    println!(
        "tracing-off overhead        {:>9.3} %  (bound {:.0} %)",
        overhead * 1e2,
        BOUND * 1e2
    );
    if overhead >= BOUND {
        eprintln!("error: tracing-off overhead exceeds the {BOUND:.0e} bound");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

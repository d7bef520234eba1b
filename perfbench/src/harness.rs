//! The measurement loop shared by every workload: repeated set-up, the
//! timed phase (untraced, or bracketed by a trace and a registry diff),
//! and the conversion of what the iterations produced into named
//! end-to-end and per-layer metrics.

use crate::fold::{self, Profile};
use crate::stats::{geomean_ratio, median, peak_rss_mb, quantile, ratio};
use obs::{Delta, Metric};
use std::time::Instant;

/// Set-up repeats until both bounds are met (or `SETUPS_MAX` ran);
/// `setup_s` is the median, so a cheap set-up gets many samples.
const SETUPS_MIN: usize = 3;
const SETUPS_MAX: usize = 25;
const SETUP_MIN_S: f64 = 2.0;

/// Command-line settings of one run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Wraps one iteration's timed phase. Untraced, it only measures wall
/// time; traced, it also records every span and the global metric
/// registry's change over the phase.
pub struct Probe {
    traced: bool,
    wall_s: f64,
    profile: Option<Result<Profile, String>>,
    delta: Option<Delta>,
}

impl Probe {
    fn new(traced: bool) -> Probe {
        Probe {
            traced,
            wall_s: 0.0,
            profile: None,
            delta: None,
        }
    }

    /// Runs the timed phase `f`. Call once per iteration.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let before = self.traced.then(obs::metrics::global_snapshot);
        if self.traced {
            obs::trace::start();
        }
        let t0 = Instant::now();
        let out = f();
        self.wall_s = t0.elapsed().as_secs_f64();
        if let Some(before) = before {
            let events = obs::trace::finish();
            self.profile = Some(fold::fold(&events));
            self.delta = Some(obs::metrics::global_snapshot().since(&before));
        }
        out
    }
}

/// Quality of one job: gates and depth before and after.
#[derive(Clone, Copy)]
pub struct Qor {
    pub gates_in: usize,
    pub gates_out: usize,
    pub depth_in: u32,
    pub depth_out: u32,
}

impl Qor {
    pub fn of(input: &mig::Mig, output: &mig::Mig) -> Qor {
        Qor {
            gates_in: input.num_gates(),
            gates_out: output.num_gates(),
            depth_in: input.depth(),
            depth_out: output.depth(),
        }
    }
}

/// What one iteration produced, its output checks included.
#[derive(Default)]
pub struct Iter {
    /// Latency of each operation (job or proof) in the timed phase.
    pub op_ms: Vec<f64>,
    /// Time each operation spent inside the program, where the program
    /// reports it (the daemon's `runtime_ns`).
    pub server_ms: Vec<f64>,
    pub qor: Vec<Qor>,
    /// Pairs proved equivalent, out of `true_pairs` (verify only).
    pub proved: usize,
    pub true_pairs: usize,
    /// Checked operations and the ones that failed their check.
    pub attempted: usize,
    pub failed: usize,
}

/// A named metric value with its unit.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// One workload of the benchmark.
pub trait Workload: Sized {
    /// Builds the inputs from the seed and starts what the timed phase
    /// needs. Timed, and repeated (see [`SETUPS_MIN`]).
    fn setup(ctx: &Ctx) -> Result<Self, String>;
    /// One iteration: the timed phase goes through `probe`; the output
    /// checks run after it.
    fn iterate(&mut self, probe: &mut Probe) -> Result<Iter, String>;
    /// Per-layer metrics the benchmark times itself by calling a
    /// crate's public functions on this workload's inputs, outside every
    /// timed phase.
    fn bench_layers(&mut self, out: &mut Metrics);
    /// Human-readable description of the inputs, with the seed's role.
    fn describe(&self) -> String;
}

/// Everything a run reports.
pub struct Report {
    pub description: String,
    pub attempted: usize,
    pub failed: usize,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    /// The claim the workload was chosen for, and whether it held in the
    /// traced run.
    pub stress: Option<(String, bool)>,
    pub profile: Profile,
}

/// Runs one workload: set-up, the timed loop for `ctx.seconds` (at
/// least one iteration; with tracing, untraced and traced iterations
/// alternate and at least one of each runs), checks and metrics.
pub fn run<W: Workload>(
    ctx: &Ctx,
    stress: fn(&Metrics) -> (String, bool),
) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut workload = None;
    while setups.len() < SETUPS_MIN
        || (setups.len() < SETUPS_MAX && setups.iter().sum::<f64>() < SETUP_MIN_S)
    {
        drop(workload.take());
        let t0 = Instant::now();
        workload = Some(W::setup(ctx)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one set-up ran");
    let mut plain: Vec<(Iter, f64)> = Vec::new();
    let mut traced: Vec<(Iter, f64)> = Vec::new();
    let mut profile = Profile::default();
    let mut delta = Delta::default();
    let start = Instant::now();
    for k in 0.. {
        let with_trace = ctx.trace && k % 2 == 1;
        let mut probe = Probe::new(with_trace);
        let it = w.iterate(&mut probe)?;
        if let Some(p) = probe.profile {
            profile.merge(&p.map_err(|e| format!("unbalanced trace: {e}"))?);
        }
        if let Some(d) = probe.delta {
            delta.merge(&d);
        }
        if with_trace {
            traced.push((it, probe.wall_s));
        } else {
            plain.push((it, probe.wall_s));
        }
        let enough = !plain.is_empty() && (!ctx.trace || !traced.is_empty());
        if enough && start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    let all = || plain.iter().chain(&traced).map(|(it, _)| it);
    let attempted = all().map(|it| it.attempted).sum();
    let failed = all().map(|it| it.failed).sum();
    let end_to_end = end_to_end(&plain, median(&setups));
    let mut per_layer = Metrics::new();
    let mut stress_check = None;
    if ctx.trace {
        per_layer = layers(&profile, &delta, &plain, &traced);
        w.bench_layers(&mut per_layer);
        order_like(&mut per_layer, crate::PER_LAYER);
        let mut with_wall = per_layer.clone();
        let traced_wall: Vec<f64> = traced.iter().map(|(_, s)| *s).collect();
        with_wall.push(("wall_s", median(&traced_wall), "s"));
        stress_check = Some(stress(&with_wall));
    }
    Ok(Report {
        description: w.describe(),
        attempted,
        failed,
        end_to_end,
        per_layer,
        stress: stress_check,
        profile,
    })
}

fn end_to_end(plain: &[(Iter, f64)], setup_s: f64) -> Metrics {
    let walls: Vec<f64> = plain.iter().map(|(_, s)| *s).collect();
    let ops = op_medians(plain.iter().map(|(it, _)| it));
    let qor: Vec<Qor> = plain
        .iter()
        .flat_map(|(it, _)| it.qor.iter().copied())
        .collect();
    let size = geomean_ratio(
        &qor.iter()
            .map(|q| (q.gates_out as f64, q.gates_in as f64))
            .collect::<Vec<_>>(),
    );
    let depth = geomean_ratio(
        &qor.iter()
            .map(|q| (f64::from(q.depth_out), f64::from(q.depth_in)))
            .collect::<Vec<_>>(),
    );
    let true_pairs: usize = plain.iter().map(|(it, _)| it.true_pairs).sum();
    let proved_share = if true_pairs > 0 {
        ratio(
            plain.iter().map(|(it, _)| it.proved).sum::<usize>() as f64,
            true_pairs as f64,
        )
    } else {
        let attempted: usize = plain.iter().map(|(it, _)| it.attempted).sum();
        let failed: usize = plain.iter().map(|(it, _)| it.failed).sum();
        ratio((attempted - failed) as f64, attempted as f64)
    };
    vec![
        ("setup_s", setup_s, "s"),
        ("wall_s", median(&walls), "s"),
        ("job_p50_ms", quantile(&ops, 0.5), "ms"),
        ("job_p90_ms", quantile(&ops, 0.9), "ms"),
        ("jobs_per_s", ratio(ops.len() as f64, median(&walls)), "1/s"),
        ("size_ratio", size, "ratio"),
        ("depth_ratio", depth, "ratio"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
        ("proved_share", proved_share, "share"),
    ]
}

/// The latency of each operation as the median over iterations. Every
/// iteration runs the same operations in the same order, so the
/// percentiles taken over these describe the operations, not the
/// noise of single iterations.
fn op_medians<'a>(iters: impl Iterator<Item = &'a Iter>) -> Vec<f64> {
    let mut by_op: Vec<Vec<f64>> = Vec::new();
    for it in iters {
        by_op.resize(by_op.len().max(it.op_ms.len()), Vec::new());
        for (slot, &ms) in by_op.iter_mut().zip(&it.op_ms) {
            slot.push(ms);
        }
    }
    by_op.iter().map(|xs| median(xs)).collect()
}

/// Per-layer metrics read from the folded spans and the registry diff
/// of the traced iterations, per iteration.
fn layers(p: &Profile, d: &Delta, plain: &[(Iter, f64)], traced: &[(Iter, f64)]) -> Metrics {
    let n = traced.len().max(1) as f64;
    let per = |x: f64| x / n;
    let c = |m: Metric| d.get(m) as f64;
    // Share of attempts that hit (or were useful).
    let rate = |hit: Metric, miss: Metric| ratio(c(hit), c(hit) + c(miss));
    let rn = p.get("replace_node");
    let jobs_reporting_storage = p.get("pipeline").count as f64 + c(Metric::CacheResultHits);
    let server: Vec<f64> = traced
        .iter()
        .flat_map(|(it, _)| it.server_ms.iter().copied())
        .collect();
    let transport: Vec<f64> = traced
        .iter()
        .flat_map(|(it, _)| it.op_ms.iter().zip(&it.server_ms).map(|(op, srv)| op - srv))
        .collect();
    let plain_wall = median(&plain.iter().map(|(_, s)| *s).collect::<Vec<_>>());
    let traced_wall = median(&traced.iter().map(|(_, s)| *s).collect::<Vec<_>>());
    vec![
        ("core.propose_s", per(p.total_s("propose")), "s"),
        ("core.propose_busy_s", per(p.total_s("propose:r")), "s"),
        ("core.baseline_s", per(p.total_s("baseline")), "s"),
        ("core.polish_s", per(p.total_s("polish")), "s"),
        ("core.cuts_scored", per(c(Metric::CutsScored)), "count"),
        (
            "core.replacements",
            per(c(Metric::FhReplacements) + c(Metric::ShardReplacements)),
            "count",
        ),
        (
            "core.useful_ratio",
            rate(Metric::ShardCommitted, Metric::ShardConflicted),
            "ratio",
        ),
        ("mig.commit_s", per(p.total_s("commit")), "s"),
        ("mig.replace_node_s", per(rn.total_ns as f64 / 1e9), "s"),
        ("mig.replace_node_calls", per(rn.count as f64), "count"),
        ("mig.replace_node_p50_us", rn.quantile_us(0.5), "us"),
        ("mig.replace_node_p99_us", rn.quantile_us(0.99), "us"),
        ("mig.replace_node_max_us", rn.max_us(), "us"),
        ("mig.wave_sim_s", per(p.total_s("commit:sim")), "s"),
        (
            "mig.wave_reconcile_s",
            per(p.total_s("commit:reconcile")),
            "s",
        ),
        (
            "mig.wave_finalize_s",
            per(p.total_s("commit:finalize")),
            "s",
        ),
        (
            "mig.wave_fallback_ratio",
            ratio(
                c(Metric::SchedWaveFallbacks),
                d.hist_sum(Metric::SchedWaveWidth) as f64,
            ),
            "ratio",
        ),
        ("mig.partition_s", per(p.total_s("sched:partition")), "s"),
        ("mig.compact_s", per(p.total_s("compact")), "s"),
        (
            "mig.bytes_per_node",
            ratio(
                d.geti(Metric::MigBytesPerNode) as f64,
                jobs_reporting_storage,
            ),
            "B",
        ),
        (
            "mig.dead_slot_pct",
            ratio(
                d.geti(Metric::MigDeadSlotPct) as f64,
                jobs_reporting_storage,
            ),
            "%",
        ),
        (
            "cuts.hit_rate",
            rate(Metric::CutsCacheHits, Metric::CutsCacheMisses),
            "ratio",
        ),
        (
            "cuts.arena_mb",
            per(d.geti(Metric::CutsArenaBytes) as f64 / 1e6),
            "MB",
        ),
        (
            "truth.canonizations",
            per(c(Metric::NpnCanonizations)),
            "count",
        ),
        (
            "algebraic.s",
            per(p.total_s_with_prefix("pass:algebraic")),
            "s",
        ),
        (
            "algebraic.moves",
            per(c(Metric::AlgMerges) + c(Metric::AlgAssocMoves) + c(Metric::AlgDistribMoves)),
            "count",
        ),
        (
            "fcache.sig_hit_rate",
            rate(Metric::CacheSigHits, Metric::CacheSigMisses),
            "ratio",
        ),
        (
            "fcache.result_hit_rate",
            rate(Metric::CacheResultHits, Metric::CacheResultMisses),
            "ratio",
        ),
        ("migd.server_ms_p50", median(&server), "ms"),
        ("migd.transport_ms_p50", median(&transport), "ms"),
        ("migd.transport_ms_p90", quantile(&transport, 0.9), "ms"),
        (
            "cec.sat_s",
            per(d.hist_sum_ns(Metric::CecSatNs) as f64 / 1e9),
            "s",
        ),
        ("cec.sat_calls", per(c(Metric::CecSatCalls)), "count"),
        ("obs.trace_overhead", ratio(traced_wall, plain_wall), "x"),
        ("obs.events", per(p.events as f64), "count"),
    ]
}

/// Sorts `metrics` into the order of `names`, appending zero for every
/// name the workload did not produce (a layer it does not exercise).
fn order_like(metrics: &mut Metrics, names: &[(&'static str, &'static str)]) {
    let mut out = Metrics::new();
    for &(name, unit) in names {
        let value = metrics.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
        out.push((name, value, unit));
    }
    *metrics = out;
}

/// Times `f` repeatedly for about `budget_s` (at least once) and returns
/// the mean seconds per call. For bench-timed layer calls.
pub fn time_per_call(budget_s: f64, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut calls = 0u32;
    while calls == 0 || t0.elapsed().as_secs_f64() < budget_s {
        f();
        calls += 1;
    }
    t0.elapsed().as_secs_f64() / f64::from(calls)
}

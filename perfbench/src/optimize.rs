//! The `arith` and `deep` workloads: whole optimization jobs through
//! `cli::run_pipeline_jobs`, one fresh engine per job.

use crate::harness::{time_per_call, Ctx, Iter, Metrics, Probe, Qor, Workload};
use mig::Mig;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Seed of the random-simulation output check.
const CHECK_SEED: u64 = 0x5EED;
/// 64-pattern words simulated per output check.
const CHECK_WORDS: usize = 16;
/// Seconds each bench-timed layer call is repeated for.
const LAYER_BUDGET_S: f64 = 0.3;

/// Inputs and pipeline shared by both optimization workloads.
pub struct Jobs {
    pipeline: &'static str,
    threads: usize,
    passes: Vec<cli::Pass>,
    inputs: Vec<(String, Mig)>,
    seed_note: String,
}

impl Jobs {
    fn new(
        specs: &[String],
        pipeline: &'static str,
        threads: usize,
        seed_note: String,
    ) -> Result<Jobs, String> {
        let passes = cli::parse_pipeline(pipeline).map_err(|e| e.to_string())?;
        let inputs = specs
            .iter()
            .map(|s| crate::generate(s).map(|m| (s.clone(), m)))
            .collect::<Result<_, _>>()?;
        // The fixed start-up cost of every job: loading the NPN database
        // into an engine.
        drop(fhash::FunctionalHashing::with_default_database());
        Ok(Jobs {
            pipeline,
            threads,
            passes,
            inputs,
            seed_note,
        })
    }

    fn iterate(&mut self, probe: &mut Probe) -> Iter {
        let mut op_ms = Vec::with_capacity(self.inputs.len());
        let outputs: Vec<_> = probe.time(|| {
            self.inputs
                .iter()
                .map(|(_, input)| {
                    let t0 = Instant::now();
                    let out = catch_unwind(AssertUnwindSafe(|| {
                        cli::run_pipeline_jobs(input, &self.passes, self.threads)
                    }));
                    op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    out
                })
                .collect()
        });
        let mut it = Iter {
            op_ms,
            ..Iter::default()
        };
        for ((spec, input), out) in self.inputs.iter().zip(outputs) {
            it.attempted += 1;
            match out {
                Ok(Ok((result, _))) if equivalent(input, &result) => {
                    it.qor.push(Qor::of(input, &result));
                }
                Ok(Ok(_)) => {
                    eprintln!("check failed: {spec}: output differs from input");
                    it.failed += 1;
                }
                Ok(Err(e)) => {
                    eprintln!("check failed: {spec}: {e}");
                    it.failed += 1;
                }
                Err(_) => {
                    eprintln!("check failed: {spec}: the job panicked");
                    it.failed += 1;
                }
            }
        }
        it
    }

    /// `cuts.enumerate_s` and `truth.canonize_ns` on the workload's own
    /// inputs.
    fn bench_layers(&mut self, out: &mut Metrics) {
        let config = cuts::CutConfig::default();
        let mut enumerate_s = 0.0;
        let mut keys = Vec::new();
        for (_, input) in &self.inputs {
            enumerate_s += time_per_call(LAYER_BUDGET_S, || {
                std::hint::black_box(cuts::enumerate_cuts(input, &config));
            });
            let set = cuts::enumerate_cuts(input, &config);
            keys.extend(
                input
                    .gates()
                    .flat_map(|g| set.of(g).iter().filter_map(cuts::Cut::signature4)),
            );
        }
        // A fresh canonizer per call, so every distinct function is
        // canonized cold, as a new engine does.
        let mut timed_s = 0.0;
        let mut distinct = 0usize;
        let t0 = Instant::now();
        while distinct == 0 || t0.elapsed().as_secs_f64() < LAYER_BUDGET_S {
            let canon = truth::Npn4Canonizer::new();
            let mut batch = keys.clone();
            let mut results = Vec::new();
            let t = Instant::now();
            canon.canonize_batch(&mut batch, &mut results);
            timed_s += t.elapsed().as_secs_f64();
            distinct += std::hint::black_box(results).len().max(1);
        }
        out.push(("cuts.enumerate_s", enumerate_s, "s"));
        out.push(("truth.canonize_ns", timed_s * 1e9 / distinct as f64, "ns"));
    }

    fn describe(&self) -> String {
        let inputs: Vec<String> = self
            .inputs
            .iter()
            .map(|(s, m)| format!("{s} ({} gates, depth {})", m.num_gates(), m.depth()))
            .collect();
        format!(
            "pipeline \"{}\" at default threads {}, one job per input, fresh engine per job\ninputs: {}\nseed: {}",
            self.pipeline,
            self.threads,
            inputs.join(", "),
            self.seed_note
        )
    }
}

fn equivalent(input: &Mig, output: &Mig) -> bool {
    input.num_inputs() == output.num_inputs()
        && input.num_outputs() == output.num_outputs()
        && cec::equivalent_random(input, output, CHECK_WORDS, CHECK_SEED)
}

/// `arith`: the multiplier and the hypotenuse through the size script.
pub struct Arith(Jobs);

impl Workload for Arith {
    fn setup(_ctx: &Ctx) -> Result<Self, String> {
        let specs = ["mult:64".to_string(), "hyp:32".to_string()];
        let note = "ignored (the arithmetic generators are deterministic)".to_string();
        Jobs::new(&specs, "fhash!:TFD; algebraic; fhash!:B", 2, note).map(Arith)
    }
    fn iterate(&mut self, probe: &mut Probe) -> Result<Iter, String> {
        Ok(self.0.iterate(probe))
    }
    fn bench_layers(&mut self, out: &mut Metrics) {
        self.0.bench_layers(out);
    }
    fn describe(&self) -> String {
        self.0.describe()
    }
}

/// `deep`: one seeded control-dominated graph through single-threaded
/// functional hashing to convergence.
pub struct Deep(Jobs);

impl Workload for Deep {
    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let specs = [format!("ctrl:32:16:1000:{}", ctx.seed)];
        let note = format!("{} (the ctrl generator's seed)", ctx.seed);
        Jobs::new(&specs, "fhash!:T@1", 1, note).map(Deep)
    }
    fn iterate(&mut self, probe: &mut Probe) -> Result<Iter, String> {
        Ok(self.0.iterate(probe))
    }
    fn bench_layers(&mut self, out: &mut Metrics) {
        self.0.bench_layers(out);
    }
    fn describe(&self) -> String {
        self.0.describe()
    }
}

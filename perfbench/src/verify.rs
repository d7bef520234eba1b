//! The `verify` workload: budgeted SAT equivalence proofs on a ladder of
//! (input, optimized) pairs whose optimized side is frozen in files, so
//! optimizer changes do not move it.

use crate::harness::{time_per_call, Ctx, Iter, Metrics, Probe, Qor, Workload};
use mig::Mig;
use std::path::PathBuf;
use std::time::Instant;

/// Conflict budget of every proof: the smallest thousand at which the
/// first three rungs prove (the `ctrl` rung needs more than 15,000).
pub const BUDGET: u64 = 16_000;
/// The ladder, smallest first: the first three prove within the budget,
/// the rest come back UNKNOWN.
pub const LADDER: &[&str] = &[
    "mult:6",
    "hyp:6",
    "ctrl:8:4:40:5",
    "mult:8",
    "hyp:8",
    "mult:64",
    "hyp:32",
];
/// The pipeline that produced the frozen files (`--freeze`).
pub const FREEZE_PIPELINE: &str = "fhash!:TFD; algebraic; fhash!:B";

/// Where the optimized side of a ladder rung is frozen.
pub fn frozen_path(spec: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("frozen")
        .join(format!("{}.blif", spec.replace(':', "_")))
}

struct Pair {
    name: String,
    input: Mig,
    optimized: Mig,
    /// `false` for the deliberately broken pair.
    equivalent: bool,
}

pub struct Verify {
    pairs: Vec<Pair>,
}

impl Workload for Verify {
    fn setup(_ctx: &Ctx) -> Result<Self, String> {
        let mut pairs = Vec::new();
        for spec in LADDER {
            let input = crate::generate(spec)?;
            let path = frozen_path(spec);
            let optimized =
                io::read_mig_path(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            if optimized.num_inputs() != input.num_inputs()
                || optimized.num_outputs() != input.num_outputs()
            {
                return Err(format!("{}: interface differs from {spec}", path.display()));
            }
            pairs.push(Pair {
                name: spec.to_string(),
                input,
                optimized,
                equivalent: true,
            });
        }
        // The broken pair: the first rung with its first output inverted.
        let first = &pairs[0];
        let mut broken = first.optimized.clone();
        let out0 = broken.outputs()[0];
        broken.set_output(0, out0.complement_if(true));
        pairs.push(Pair {
            name: format!("{} with output 0 inverted", first.name),
            input: first.input.clone(),
            optimized: broken,
            equivalent: false,
        });
        Ok(Verify { pairs })
    }

    fn iterate(&mut self, probe: &mut Probe) -> Result<Iter, String> {
        let mut op_ms = Vec::with_capacity(self.pairs.len());
        let verdicts: Vec<_> = probe.time(|| {
            self.pairs
                .iter()
                .map(|p| {
                    let t0 = Instant::now();
                    let v = cec::prove_equivalent(&p.input, &p.optimized, Some(BUDGET));
                    op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    v
                })
                .collect()
        });
        let mut it = Iter {
            op_ms,
            ..Iter::default()
        };
        for (p, verdict) in self.pairs.iter().zip(verdicts) {
            it.attempted += 1;
            if p.equivalent {
                it.true_pairs += 1;
                it.qor.push(Qor::of(&p.input, &p.optimized));
            }
            let ok = match verdict {
                cec::CecResult::Equivalent => {
                    it.proved += 1;
                    p.equivalent
                }
                cec::CecResult::Unknown => p.equivalent,
                cec::CecResult::Counterexample(cex) => {
                    !p.equivalent && p.input.evaluate(&cex) != p.optimized.evaluate(&cex)
                }
            };
            if !ok {
                eprintln!("check failed: {}: wrong verdict", p.name);
                it.failed += 1;
            }
        }
        Ok(it)
    }

    /// `cec.sim_s`: random simulation of every pair, per ladder.
    fn bench_layers(&mut self, out: &mut Metrics) {
        let sim_s = time_per_call(0.3, || {
            for p in &self.pairs {
                std::hint::black_box(cec::equivalent_random(&p.input, &p.optimized, 16, 0x5EED));
            }
        });
        out.push(("cec.sim_s", sim_s, "s"));
    }

    fn describe(&self) -> String {
        let rungs: Vec<String> = self
            .pairs
            .iter()
            .map(|p| {
                format!(
                    "{} ({} -> {} gates)",
                    p.name,
                    p.input.num_gates(),
                    p.optimized.num_gates()
                )
            })
            .collect();
        format!(
            "cec::prove_equivalent at {BUDGET} conflicts per pair\npairs: {}\nseed: ignored (the \
             ladder and its frozen files are fixed)",
            rungs.join(", ")
        )
    }
}

/// Writes the frozen optimized side of every ladder rung, from the
/// current optimizer. Run once; the files are then kept as they are.
pub fn freeze() -> Result<(), String> {
    let passes = cli::parse_pipeline(FREEZE_PIPELINE).map_err(|e| e.to_string())?;
    for spec in LADDER {
        let input = crate::generate(spec)?;
        let (out, _) = cli::run_pipeline_jobs(&input, &passes, 2).map_err(|e| e.to_string())?;
        if !cec::equivalent_random(&input, &out, 64, 0x5EED) {
            return Err(format!("{spec}: optimized circuit differs from its input"));
        }
        let path = frozen_path(spec);
        std::fs::create_dir_all(path.parent().expect("frozen path has a parent"))
            .map_err(|e| e.to_string())?;
        let text = io::blif::Blif::from_mig(&out, &spec.replace(':', "_")).to_text();
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "{spec}: {} -> {} gates, {}",
            input.num_gates(),
            out.num_gates(),
            path.display()
        );
    }
    Ok(())
}

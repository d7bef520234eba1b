//! Shared pipeline for the table/figure harnesses.
//!
//! Every binary in `src/bin` regenerates one table or figure of the paper
//! (see DESIGN.md §4 for the index). This library hosts the common
//! benchmark pipeline: generate → algebraically optimize (starting point)
//! → functional hashing per variant → optionally technology-map, with
//! equivalence validation at every step.

use benchgen::EpflBenchmark;
use fhash::{FunctionalHashing, Variant};
use mig::Mig;
use std::time::Instant;

pub mod microbench;
pub mod workloads;

/// The variant columns of Tables III and IV, in paper order.
pub const PAPER_VARIANTS: [Variant; 5] = [
    Variant::TopDownFfr,
    Variant::TopDown,
    Variant::TopDownFfrDepth,
    Variant::TopDownDepth,
    Variant::BottomUpFfr,
];

/// Result of one functional-hashing run on one benchmark.
#[derive(Debug, Clone)]
pub struct VariantResult {
    /// The variant that produced it.
    pub variant: Variant,
    /// The optimized MIG.
    pub mig: Mig,
    /// Gate count.
    pub size: usize,
    /// Depth.
    pub depth: u32,
    /// Wall-clock runtime of the optimization in seconds.
    pub runtime: f64,
}

/// One row of the Table III pipeline.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Display name: the EPFL instance name, or the file stem for
    /// external circuits loaded with `--from`.
    pub name: String,
    /// I/O signature of the instance.
    pub io: (usize, usize),
    /// The optimized starting point (stand-in for the suite's "best
    /// results"; see DESIGN.md).
    pub base: Mig,
    /// Starting-point gate count.
    pub base_size: usize,
    /// Starting-point depth.
    pub base_depth: u32,
    /// One result per entry of [`PAPER_VARIANTS`].
    pub variants: Vec<VariantResult>,
}

/// Builds the starting point for a benchmark: generate, clean up
/// algebraically, then run the depth-oriented rewriting of refs \[3\], \[4\]
/// to a fixpoint. The paper's starting points ("best results" of the EPFL
/// suite) were likewise "obtained using the depth reduction proposed in
/// \[3\] and \[4\]" — depth-optimized MIGs that carry size slack for
/// functional hashing to recover.
pub fn starting_point(bench: EpflBenchmark, scale: Option<u32>) -> Mig {
    let raw = match scale {
        None => bench.generate(),
        Some(s) => bench.generate_scaled(s),
    };
    starting_point_from(&raw)
}

/// The algebraic starting-point script applied to an arbitrary circuit
/// (used both for generated instances and `--from` files).
pub fn starting_point_from(raw: &Mig) -> Mig {
    let mut cur = raw.cleanup();
    migalg::size_rewrite(&mut cur);
    for _ in 0..300 {
        let mut next = cur.cleanup();
        migalg::depth_rewrite(&mut next);
        if next.depth() >= cur.depth() {
            break;
        }
        cur = next;
    }
    cur
}

/// Runs the full Table III pipeline for one generated EPFL benchmark.
///
/// When `validate` is set, every optimized MIG is checked against the
/// starting point with 512 random word-parallel patterns (and the
/// harness panics on a mismatch — the tables must never report wrong
/// circuits).
pub fn run_benchmark(bench: EpflBenchmark, scale: Option<u32>, validate: bool) -> BenchRow {
    run_benchmark_mig(bench.name(), &starting_point(bench, scale), validate)
}

/// Runs the Table III pipeline on an already-prepared starting point.
/// External circuits (AIGER/BLIF files) enter here via
/// [`load_external_benchmarks`].
pub fn run_benchmark_mig(name: &str, base: &Mig, validate: bool) -> BenchRow {
    let base = base.clone();
    let engine = FunctionalHashing::with_default_database();
    let mut variants = Vec::new();
    for v in PAPER_VARIANTS {
        let t0 = Instant::now();
        let mut opt = base.clone();
        engine.pass(&mut opt, v, &mut None);
        let runtime = t0.elapsed().as_secs_f64();
        if validate {
            assert!(
                cec::equivalent_random(&base, &opt, 8, 0xC0FFEE),
                "{name}/{v}: functional mismatch"
            );
        }
        variants.push(VariantResult {
            variant: v,
            size: opt.num_gates(),
            depth: opt.depth(),
            runtime,
            mig: opt,
        });
    }
    BenchRow {
        name: name.to_string(),
        io: (base.num_inputs(), base.num_outputs()),
        base_size: base.num_gates(),
        base_depth: base.depth(),
        base,
        variants,
    }
}

/// Collects the `--from <file>` arguments of a table binary and loads
/// each circuit (`.aag`, `.aig` or `.blif`) with its file stem as the
/// display name. `gen:<spec>` pseudo-paths synthesize an instance of the
/// large-graph corpus instead of reading a file (see [`generate_spec`]).
/// The algebraic starting-point script is applied so external rows go
/// through the same pipeline as generated ones.
///
/// Exits the process with a message on unreadable or malformed files —
/// these binaries are batch tools, not a library surface.
pub fn load_external_benchmarks(args: &[String]) -> Vec<(String, Mig)> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a != "--from" {
            continue;
        }
        let Some(path) = it.next() else {
            eprintln!("error: --from needs a file argument");
            std::process::exit(1);
        };
        let (name, raw) = if let Some(spec) = path.strip_prefix("gen:") {
            match generate_spec(spec) {
                Ok(m) => (path.replace(':', "_"), m),
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    std::process::exit(1);
                }
            }
        } else {
            let raw = match io::read_mig_path(path) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    std::process::exit(1);
                }
            };
            let name = std::path::Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or(path)
                .to_string();
            (name, raw)
        };
        out.push((name, starting_point_from(&raw)));
    }
    out
}

/// Synthesizes a corpus instance from a `gen:` pseudo-path spec:
/// `mult:W` (W-bit array multiplier), `hyp:W` (W-bit hypotenuse — deep
/// stacked arithmetic) or `ctrl:W:R:S[:SEED]` (control-dominated random
/// register file, W-bit words, R registers, S steps). All are
/// AND-expanded like file-loaded circuits, so e.g. `gen:mult:128` is
/// the >100k-gate production instance of the scaling benchmarks.
pub fn generate_spec(spec: &str) -> Result<Mig, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let num = |s: &str| s.parse::<usize>().map_err(|_| format!("bad number {s:?}"));
    let raw = match parts.as_slice() {
        ["mult", w] => benchgen::multiplier(num(w)?),
        ["hyp", w] => benchgen::hypotenuse(num(w)?),
        ["ctrl", w, r, s] => benchgen::random_control(num(w)?, num(r)?, num(s)?, 1),
        ["ctrl", w, r, s, seed] => {
            benchgen::random_control(num(w)?, num(r)?, num(s)?, num(seed)? as u64)
        }
        _ => {
            return Err(format!(
                "unknown generator spec {spec:?} (try mult:W, hyp:W or ctrl:W:R:S[:SEED])"
            ))
        }
    };
    Ok(aig::to_mig(&aig::from_mig(&raw)))
}

/// Geometric mean of ratios (the paper's "average improvement
/// (new/old)"), ignoring zero denominators.
pub fn geomean_ratio(pairs: &[(f64, f64)]) -> f64 {
    let mut acc = 0.0;
    let mut n = 0;
    for &(new, old) in pairs {
        if old > 0.0 && new > 0.0 {
            acc += (new / old).ln();
            n += 1;
        }
    }
    if n == 0 {
        1.0
    } else {
        (acc / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_identity_is_one() {
        assert!((geomean_ratio(&[(2.0, 2.0), (5.0, 5.0)]) - 1.0).abs() < 1e-12);
        assert!((geomean_ratio(&[(1.0, 2.0), (4.0, 2.0)]) - 1.0).abs() < 1e-12);
        assert!(geomean_ratio(&[(1.0, 2.0)]) < 1.0);
        assert_eq!(geomean_ratio(&[]), 1.0);
    }

    #[test]
    fn generate_spec_parses_corpus_specs() {
        assert!(generate_spec("mult:4").is_ok());
        assert!(generate_spec("hyp:4").is_ok());
        let m = generate_spec("ctrl:2:2:4").unwrap();
        assert_eq!(m.num_inputs(), 4);
        assert!(generate_spec("bogus:1").is_err());
        assert!(generate_spec("mult:x").is_err());
        assert!(generate_spec("ctrl:2").is_err());
    }

    #[test]
    fn small_pipeline_runs_and_validates() {
        let row = run_benchmark(EpflBenchmark::Adder, Some(1), true);
        assert_eq!(row.variants.len(), PAPER_VARIANTS.len());
        for v in &row.variants {
            assert!(v.size > 0);
            // Functional hashing must never grow the top-down results.
            if v.variant != fhash::Variant::BottomUpFfr {
                assert!(v.size <= row.base_size, "{}", v.variant);
            }
        }
    }
}

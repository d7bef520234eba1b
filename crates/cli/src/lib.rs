//! The `migopt` pass pipeline: a small ABC-style grammar
//! (`"strash; algebraic; fhash:TFD; cec"`) parsed into [`Pass`]es and
//! dispatched into the workspace's optimization crates, with per-pass
//! size/depth/runtime reporting.
//!
//! The binary (`migopt`) is a thin wrapper: read a circuit via the `io`
//! crate, run the pipeline, write the result. The pipeline itself lives
//! here so integration tests can drive it in-process.
//!
//! # Pipeline grammar
//!
//! ```text
//! pipeline := pass (';' pass)*
//! pass     := name (':' arg (',' arg)*)?
//! ```
//!
//! | Pass | Effect |
//! |------|--------|
//! | `strash`          | rebuild with structural hashing, drop dangling gates |
//! | `algebraic[:N]`   | in-place algebraic size+depth script, at most N rounds (default 2) |
//! | `size`            | one in-place algebraic size-rewriting sweep (Ω.D right-to-left) |
//! | `depth`           | one in-place algebraic depth-rewriting sweep (Ω.A / Ω.D) |
//! | `size!`           | size sweeps repeated until no merge fires |
//! | `depth!`          | depth sweeps repeated to the depth fixpoint |
//! | `fhash:V[@N]`     | one in-place functional-hashing pass, V ∈ {T, TD, TF, TFD, B, BF}; N threads spread the candidate preparation of B and BF |
//! | `fhash!:V[@N]`    | functional hashing repeated until no replacement fires, over N worker threads |
//! | `compact`         | renumber node slots densely in topological order ([`Mig::compact`]) |
//! | `balance`         | AIG tree-height reduction round-trip |
//! | `rewrite`         | DAG-aware AIG cut rewriting round-trip |
//! | `cec[:budget]`    | SAT-prove equivalence against the *input* circuit |
//! | `map[:k]`         | k-LUT mapping report (does not change the MIG) |
//! | `stats`           | print the current size/depth |
//!
//! Only `fhash` and `fhash!` take an `@N` thread suffix; without one they
//! use the pipeline's default thread count ([`run_pipeline_jobs`], the
//! `migopt -j` flag). The thread count changes the speed, never the
//! netlist: one input and one pipeline give one result at every count.
//! The algebraic passes always run on the calling thread. Thread counts
//! from outside — `@N`, `-j` and the `migd` job `threads` field — must
//! lie in `1..=`[`MAX_THREADS`]. Every rewriting pass runs in place on
//! the managed network, so consecutive `fhash` *and algebraic* passes
//! share one incrementally maintained cut set: all consumers of the
//! structural-change log — the carried cut set, the convergence
//! scheduler, the converge re-scan frontiers — read it through their own
//! cursors without draining it, so the set survives converge passes too.
//! Only passes that rebuild the graph wholesale (`strash`, `balance`,
//! `rewrite`) invalidate the shared set. Passes driven by the
//! convergence scheduler (`fhash!`) report its event counters — regions
//! proposed / skipped clean / retried — alongside the applied-move
//! counts.

use mig::Mig;
use std::fmt;
use std::time::Instant;

pub mod daemon;
pub mod report;
pub mod service;

/// One step of a `migopt` pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pass {
    /// Rebuild with structural hashing and drop dangling nodes.
    Strash,
    /// In-place algebraic optimization script with a round budget.
    Algebraic {
        /// Maximum script rounds.
        rounds: usize,
    },
    /// A single in-place size-oriented algebraic sweep.
    SizeRewrite,
    /// A single in-place depth-oriented algebraic sweep.
    DepthRewrite,
    /// Size sweeps repeated until no merge fires (`size!`).
    SizeConverge,
    /// Depth sweeps repeated to the depth fixpoint (`depth!`).
    DepthConverge,
    /// One in-place functional-hashing pass with the given paper variant.
    Fhash {
        /// The paper variant.
        variant: fhash::Variant,
        /// Worker threads for the bottom-up variants' candidate
        /// preparation (`@N` suffix); `None` uses the pipeline default.
        threads: Option<usize>,
    },
    /// Functional hashing repeated to convergence (no replacement fires
    /// or the size stops shrinking). Affordable because each round is
    /// in-place rewriting, not an O(n) rebuild per replacement.
    FhashConverge {
        /// The paper variant.
        variant: fhash::Variant,
        /// Worker threads (`@N` suffix); `None` uses the pipeline default.
        threads: Option<usize>,
    },
    /// Renumber node slots densely in topological order
    /// ([`Mig::compact`]): squeezes out the dead slots left by in-place
    /// rewriting so later passes walk dense, cache-friendly arrays.
    /// Unlike `strash` it never changes the logic structure — node
    /// *identities* change but the carried cut set is translated through
    /// the renumbering map instead of being dropped.
    Compact,
    /// AIG balancing round-trip (tree-height reduction).
    Balance,
    /// AIG DAG-aware cut rewriting round-trip.
    RewriteAig,
    /// Prove equivalence against the original input (optional conflict
    /// budget; `None` = complete).
    Cec { budget: Option<u64> },
    /// Report a k-LUT mapping (area/depth); leaves the MIG unchanged.
    Map { k: usize },
    /// Print current statistics.
    Stats,
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pass::Strash => write!(f, "strash"),
            Pass::Algebraic { rounds } => write!(f, "algebraic:{rounds}"),
            Pass::SizeRewrite => write!(f, "size"),
            Pass::DepthRewrite => write!(f, "depth"),
            Pass::SizeConverge => write!(f, "size!"),
            Pass::DepthConverge => write!(f, "depth!"),
            Pass::Fhash { variant, threads } => {
                write!(f, "fhash:{}", variant.acronym())?;
                if let Some(t) = threads {
                    write!(f, "@{t}")?;
                }
                Ok(())
            }
            Pass::FhashConverge { variant, threads } => {
                write!(f, "fhash!:{}", variant.acronym())?;
                if let Some(t) = threads {
                    write!(f, "@{t}")?;
                }
                Ok(())
            }
            Pass::Compact => write!(f, "compact"),
            Pass::Balance => write!(f, "balance"),
            Pass::RewriteAig => write!(f, "rewrite"),
            Pass::Cec { budget: None } => write!(f, "cec"),
            Pass::Cec { budget: Some(b) } => write!(f, "cec:{b}"),
            Pass::Map { k } => write!(f, "map:{k}"),
            Pass::Stats => write!(f, "stats"),
        }
    }
}

/// A pipeline-grammar error: which pass text failed and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineParseError {
    /// 0-based index of the offending pass in the `;`-separated list.
    pub index: usize,
    /// The pass text as written.
    pub text: String,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for PipelineParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pass {} ({:?}): {}",
            self.index + 1,
            self.text,
            self.message
        )
    }
}

impl std::error::Error for PipelineParseError {}

/// Parses the `;`-separated pipeline grammar.
///
/// # Errors
///
/// Returns the first offending pass with its position and reason.
pub fn parse_pipeline(s: &str) -> Result<Vec<Pass>, PipelineParseError> {
    let mut passes = Vec::new();
    for (index, raw) in s.split(';').enumerate() {
        let text = raw.trim();
        if text.is_empty() {
            continue;
        }
        let err = |message: String| PipelineParseError {
            index,
            text: text.to_string(),
            message,
        };
        let parse_threads = |t: &str| -> Result<usize, PipelineParseError> {
            let t = t.trim();
            let n = t
                .parse::<usize>()
                .map_err(|_| err(format!("thread count must be a number, got {t:?}")))?;
            check_threads(n).map_err(err)
        };
        let (name, arg) = match text.split_once(':') {
            Some((n, a)) => (n.trim(), Some(a.trim())),
            None => (text, None),
        };
        // An `@T` thread suffix on the pass *name*: only `fhash` and
        // `fhash!` accept one, there or on their variant argument
        // (`fhash:T@4`); every other pass refuses it.
        let (name, mut name_threads) = match name.split_once('@') {
            None => (name, None),
            Some((n, t)) => (n.trim(), Some(parse_threads(t)?)),
        };
        let no_threads = || err(format!("pass {name:?} takes no @N thread suffix"));
        let no_arg = |pass: Pass| -> Result<Pass, PipelineParseError> {
            match arg {
                None => Ok(pass),
                Some(a) => Err(err(format!("pass {name:?} takes no argument, got {a:?}"))),
            }
        };
        let pass = match name {
            "strash" => no_arg(Pass::Strash)?,
            "size" => no_arg(Pass::SizeRewrite)?,
            "depth" => no_arg(Pass::DepthRewrite)?,
            "size!" => no_arg(Pass::SizeConverge)?,
            "depth!" => no_arg(Pass::DepthConverge)?,
            "compact" => no_arg(Pass::Compact)?,
            "balance" => no_arg(Pass::Balance)?,
            "rewrite" => no_arg(Pass::RewriteAig)?,
            "stats" => no_arg(Pass::Stats)?,
            "algebraic" => {
                let rounds = match arg {
                    None | Some("") => 2,
                    Some(a) if a.contains('@') => return Err(no_threads()),
                    Some(a) => a
                        .parse::<usize>()
                        .map_err(|_| err(format!("round count must be a number, got {a:?}")))?,
                };
                Pass::Algebraic { rounds }
            }
            "fhash" | "fhash!" => {
                let Some(a) = arg else {
                    return Err(err(format!(
                        "{name} needs a variant: one of T, TD, TF, TFD, B, BF"
                    )));
                };
                // `fhash:T@4`: optional worker-thread suffix.
                let (vtext, arg_threads) = match a.split_once('@') {
                    None => (a, None),
                    Some((v, t)) => (v.trim(), Some(parse_threads(t)?)),
                };
                let threads = match (name_threads.take(), arg_threads) {
                    (Some(_), Some(_)) => {
                        return Err(err("duplicate @N thread suffix".to_string()));
                    }
                    (a, b) => a.or(b),
                };
                let v = fhash::Variant::from_acronym(vtext).ok_or_else(|| {
                    err(format!(
                        "unknown variant {vtext:?}: expected T, TD, TF, TFD, B or BF"
                    ))
                })?;
                if name == "fhash!" {
                    Pass::FhashConverge {
                        variant: v,
                        threads,
                    }
                } else {
                    Pass::Fhash {
                        variant: v,
                        threads,
                    }
                }
            }
            "cec" => {
                let budget = match arg {
                    None => None,
                    Some(a) => Some(a.parse::<u64>().map_err(|_| {
                        err(format!("conflict budget must be a number, got {a:?}"))
                    })?),
                };
                Pass::Cec { budget }
            }
            "map" => {
                let k = match arg {
                    None => 6,
                    Some(a) => a
                        .parse::<usize>()
                        .map_err(|_| err(format!("LUT size must be a number, got {a:?}")))?,
                };
                if !(2..=6).contains(&k) {
                    return Err(err(format!("LUT size must be between 2 and 6, got {k}")));
                }
                Pass::Map { k }
            }
            other => return Err(err(format!("unknown pass {other:?}"))),
        };
        if name_threads.is_some() {
            return Err(no_threads());
        }
        passes.push(pass);
    }
    Ok(passes)
}

/// The largest worker-thread count a pipeline accepts from outside: the
/// `@N` pass suffix, `migopt -j` and the `migd` job `threads` field. A
/// pass spawns up to this many threads, and past the host's thread limit
/// spawning panics.
pub const MAX_THREADS: usize = 256;

/// Checks a worker-thread count against `1..=`[`MAX_THREADS`].
///
/// # Errors
///
/// A message naming the bound the count violates.
pub fn check_threads(n: usize) -> Result<usize, String> {
    if n == 0 {
        Err("thread count must be at least 1".to_string())
    } else if n > MAX_THREADS {
        Err(format!(
            "thread count must be at most {MAX_THREADS}, got {n}"
        ))
    } else {
        Ok(n)
    }
}

/// Outcome of one executed pass, for reporting.
#[derive(Debug, Clone)]
pub struct PassReport {
    /// The pass, re-rendered in grammar syntax.
    pub pass: String,
    /// Gate count before.
    pub size_before: usize,
    /// Gate count after.
    pub size_after: usize,
    /// Depth before.
    pub depth_before: u32,
    /// Depth after.
    pub depth_after: u32,
    /// Wall-clock runtime in seconds.
    pub runtime: f64,
    /// Extra detail (CEC verdict, mapping area, …).
    pub note: String,
    /// Everything the pass recorded into the metric registry: applied
    /// moves, scheduler events, profiling counters (cut refreshes, cuts
    /// scored, SAT calls). The note's counts render from this.
    pub metrics: obs::Delta,
}

/// Which applied-move counters a pass renders in its note. All counts
/// are read back from the pass's metric-registry delta, so the formerly
/// hand-built fhash / algebraic / scheduler note paths share one
/// renderer ([`render_note`]).
#[derive(Clone, Copy)]
enum NoteMoves {
    /// `fhash` passes: replacements (serial engine + sharded commits).
    Replacements,
    /// `size` / `size!`: Ω.D merges.
    Merges,
    /// `depth` / `depth!`: Ω.A / Ω.D move counts.
    DepthMoves,
    /// The full algebraic script: merges and depth moves.
    Script,
}

/// What a pass arm produced for the report note: literal text (CEC
/// verdict, mapping area, …) or a move-count rendering spec resolved
/// against the pass's metric delta once the pass scope closes.
enum Note {
    Text(String),
    Moves {
        /// Prefix with the converge-round count
        /// (`fhash.converge_rounds` + `alg.converge_rounds`).
        rounds: bool,
        moves: NoteMoves,
    },
}

/// Renders a pass note from the pass's metric delta: an optional rounds
/// prefix, the applied-move counters the pass drives, and the
/// convergence scheduler's event counters whenever any step ran.
fn render_note(d: &obs::Delta, rounds: bool, moves: NoteMoves) -> String {
    use obs::Metric as M;
    use std::fmt::Write;
    let mut note = String::new();
    if rounds {
        let r = d.get(M::FhRounds) + d.get(M::AlgRounds);
        let _ = write!(note, "{r} rounds, ");
    }
    match moves {
        NoteMoves::Replacements => {
            let repl = d.get(M::FhReplacements) + d.get(M::ShardReplacements);
            let _ = write!(note, "{repl} replacements");
        }
        NoteMoves::Merges => {
            let _ = write!(note, "{} merges", d.get(M::AlgMerges));
        }
        NoteMoves::DepthMoves => {
            let _ = write!(
                note,
                "{} assoc, {} distrib moves",
                d.get(M::AlgAssocMoves),
                d.get(M::AlgDistribMoves)
            );
        }
        NoteMoves::Script => {
            let _ = write!(
                note,
                "{} merges, {} assoc, {} distrib moves",
                d.get(M::AlgMerges),
                d.get(M::AlgAssocMoves),
                d.get(M::AlgDistribMoves)
            );
        }
    }
    let sched = mig::SchedStats::from_delta(d);
    if sched.any() {
        let _ = write!(
            note,
            "; sched: {} regions proposed, {} skipped clean, {} retried",
            sched.proposed_regions, sched.skipped_clean, sched.retried
        );
    }
    note
}

/// A pipeline execution failure.
#[derive(Debug)]
pub enum PipelineError {
    /// The `cec` pass found a distinguishing input assignment.
    NotEquivalent(Vec<bool>),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::NotEquivalent(cex) => {
                let bits: String = cex.iter().map(|&b| if b { '1' } else { '0' }).collect();
                write!(f, "cec found a counterexample (inputs {bits})")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// Runs a parsed pipeline on `input`, returning the final MIG and one
/// report per executed pass. The `cec` pass always checks against the
/// original `input`, regardless of how many passes ran before it.
/// `fhash` passes without an `@N` suffix run single-threaded; see
/// [`run_pipeline_jobs`] for a different default.
///
/// # Errors
///
/// [`PipelineError::NotEquivalent`] if a `cec` pass refutes equivalence.
pub fn run_pipeline(input: &Mig, passes: &[Pass]) -> Result<(Mig, Vec<PassReport>), PipelineError> {
    run_pipeline_jobs(input, passes, 1)
}

/// [`run_pipeline`] with a default thread count for the `fhash` passes
/// (the `migopt -j/--threads` flag). A pass's own `@N` suffix always wins
/// over the default. The result is the same at every thread count.
///
/// Consecutive `fhash` passes share one [`cuts::CutSet`]: it is
/// enumerated on first use and afterwards only refreshed from the
/// graph's dirty log (through the set's own cursor — sharded and
/// converge passes leave the log intact) on entry to each pass; passes
/// that rebuild the graph wholesale drop it (node identities change).
///
/// # Errors
///
/// [`PipelineError::NotEquivalent`] if a `cec` pass refutes equivalence.
pub fn run_pipeline_jobs(
    input: &Mig,
    passes: &[Pass],
    default_threads: usize,
) -> Result<(Mig, Vec<PassReport>), PipelineError> {
    run_pipeline_session(input, passes, default_threads, None, None)
}

/// [`run_pipeline_jobs`] with two seams for long-lived callers (the
/// persistent-cache service and the `migd` daemon):
///
/// * `engine` — a shared functional-hashing engine to use instead of a
///   pipeline-local one. The engine is only read, so concurrent pipelines
///   may share it.
/// * `on_pass` — called after each pass's report is finalized, for
///   streaming per-pass progress to a client while the pipeline runs.
///
/// # Errors
///
/// [`PipelineError::NotEquivalent`] if a `cec` pass refutes equivalence.
pub fn run_pipeline_session(
    input: &Mig,
    passes: &[Pass],
    default_threads: usize,
    engine: Option<&fhash::FunctionalHashing>,
    mut on_pass: Option<&mut dyn FnMut(&PassReport)>,
) -> Result<(Mig, Vec<PassReport>), PipelineError> {
    let default_threads = default_threads.max(1);
    let _pipeline_span = obs::trace::span("pipeline");
    let mut cur = input.clone();
    let mut reports = Vec::with_capacity(passes.len());
    let mut owned_engine: Option<fhash::FunctionalHashing> = None;
    // Cut lists carried across fhash passes; `None` whenever the current
    // graph was rebuilt since the last enumeration.
    let mut cut_cache: Option<cuts::CutSet> = None;
    for pass in passes {
        let size_before = cur.num_gates();
        let depth_before = cur.depth();
        let t0 = Instant::now();
        let _pass_span = obs::trace::span_dyn(|| format!("pass:{pass}"));
        // Everything the pass records lands in this scope, worker
        // threads included (they publish into it after their join).
        let (outcome, delta) = obs::metrics::scoped(|| -> Result<Note, PipelineError> {
            Ok(match pass {
                Pass::Strash => {
                    cur = cur.cleanup();
                    cut_cache = None;
                    Note::Text(String::new())
                }
                Pass::Algebraic { rounds } => {
                    // The script only *appends* to the structural-change
                    // log, so the carried cut set stays refreshable.
                    migalg::optimize(&mut cur, *rounds);
                    Note::Moves {
                        rounds: false,
                        moves: NoteMoves::Script,
                    }
                }
                Pass::SizeRewrite => {
                    migalg::size_rewrite(&mut cur);
                    Note::Moves {
                        rounds: false,
                        moves: NoteMoves::Merges,
                    }
                }
                Pass::DepthRewrite => {
                    migalg::depth_rewrite(&mut cur);
                    Note::Moves {
                        rounds: false,
                        moves: NoteMoves::DepthMoves,
                    }
                }
                Pass::SizeConverge => {
                    migalg::size_converge(&mut cur);
                    Note::Moves {
                        rounds: true,
                        moves: NoteMoves::Merges,
                    }
                }
                Pass::DepthConverge => {
                    migalg::depth_converge(&mut cur);
                    Note::Moves {
                        rounds: true,
                        moves: NoteMoves::DepthMoves,
                    }
                }
                Pass::Fhash { variant, threads } => {
                    let e = match engine {
                        Some(e) => e,
                        None => owned_engine
                            .get_or_insert_with(fhash::FunctionalHashing::with_default_database),
                    };
                    let t = threads.unwrap_or(default_threads);
                    e.pass(&mut cur, *variant, &mut cut_cache, t);
                    Note::Moves {
                        rounds: false,
                        moves: NoteMoves::Replacements,
                    }
                }
                Pass::FhashConverge { variant, threads } => {
                    let e = match engine {
                        Some(e) => e,
                        None => owned_engine
                            .get_or_insert_with(fhash::FunctionalHashing::with_default_database),
                    };
                    let t = threads.unwrap_or(default_threads);
                    // The scheduler peeks the dirty log through cursors
                    // without draining it, so the carried cut set's
                    // invalidation feed survives (it re-syncs on its next
                    // refresh).
                    e.converge(&mut cur, *variant, t);
                    Note::Moves {
                        rounds: true,
                        moves: NoteMoves::Replacements,
                    }
                }
                Pass::Compact => {
                    // The carried cut set must first absorb every pending
                    // structural change (its cursor reaches the log end),
                    // then translate itself through the renumbering map —
                    // same refresh → compact → remap protocol as the
                    // scheduler's auto-compaction.
                    let map = match &mut cut_cache {
                        Some(cs) => {
                            cs.refresh(&cur);
                            let map = cur.compact();
                            cs.remap(&cur, &map);
                            map
                        }
                        None => cur.compact(),
                    };
                    Note::Text(if map.is_identity() {
                        "layout already dense".to_string()
                    } else {
                        format!("{} -> {} slots", map.old_len(), map.new_len())
                    })
                }
                Pass::Balance => {
                    cur = aig::to_mig(&aig::balance(&aig::from_mig(&cur)));
                    cut_cache = None;
                    Note::Text(String::new())
                }
                Pass::RewriteAig => {
                    let rewritten = aig::AigRewriter::default().rewrite(&aig::from_mig(&cur));
                    cur = aig::to_mig(&rewritten);
                    cut_cache = None;
                    Note::Text(String::new())
                }
                Pass::Cec { budget } => {
                    // The proof simulates first: a random mismatch comes
                    // back as a counterexample without any SAT call.
                    match cec::prove_equivalent(input, &cur, *budget) {
                        cec::CecResult::Equivalent => {
                            Note::Text("equivalent (SAT proof)".to_string())
                        }
                        cec::CecResult::Unknown => Note::Text(
                            "UNKNOWN: conflict budget exhausted (random simulation passed)"
                                .to_string(),
                        ),
                        cec::CecResult::Counterexample(cex) => {
                            return Err(PipelineError::NotEquivalent(cex));
                        }
                    }
                }
                Pass::Map { k } => {
                    let cfg = techmap::MapConfig {
                        lut_size: *k,
                        ..techmap::MapConfig::default()
                    };
                    let mapping = techmap::map_luts(&cur, &cfg);
                    Note::Text(format!(
                        "{}-LUT area {} depth {}",
                        k, mapping.area, mapping.depth
                    ))
                }
                Pass::Stats => {
                    Note::Text(format!("i/o = {}/{}", cur.num_inputs(), cur.num_outputs()))
                }
            })
        });
        delta.publish();
        let note = match outcome? {
            Note::Text(s) => s,
            Note::Moves { rounds, moves } => render_note(&delta, rounds, moves),
        };
        // Bound the structural-change log between passes: at a pass
        // boundary the carried cut set is the only outstanding log
        // consumer, so everything before its cursor (or the whole log,
        // when no set is carried) can be dropped.
        match &cut_cache {
            Some(cs) => cur.truncate_dirty(cs.cursor()),
            None => {
                let _ = cur.drain_dirty();
            }
        }
        reports.push(PassReport {
            pass: pass.to_string(),
            size_before,
            size_after: cur.num_gates(),
            depth_before,
            depth_after: cur.depth(),
            runtime: t0.elapsed().as_secs_f64(),
            note,
            metrics: delta,
        });
        if let Some(cb) = on_pass.as_deref_mut() {
            cb(reports.last().expect("just pushed"));
        }
    }
    // Final storage-layout gauges: recorded outside any pass scope, so
    // they land in the process registry and show up in the whole-run
    // delta that `migopt --metrics` renders.
    obs::metrics::addi(obs::Metric::MigBytesPerNode, cur.bytes_per_node() as i64);
    obs::metrics::addi(obs::Metric::MigDeadSlotPct, cur.dead_slot_pct() as i64);
    Ok((cur, reports))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_parses_the_readme_pipeline() {
        let p = parse_pipeline("strash; algebraic; fhash:TFD; fhash:B; cec").unwrap();
        assert_eq!(p.len(), 5);
        assert_eq!(p[0], Pass::Strash);
        assert_eq!(p[1], Pass::Algebraic { rounds: 2 });
        assert_eq!(
            p[2],
            Pass::Fhash {
                variant: fhash::Variant::TopDownFfrDepth,
                threads: None
            }
        );
        assert_eq!(
            p[3],
            Pass::Fhash {
                variant: fhash::Variant::BottomUp,
                threads: None
            }
        );
        assert_eq!(p[4], Pass::Cec { budget: None });
    }

    #[test]
    fn grammar_args_and_case() {
        assert_eq!(
            parse_pipeline("fhash:tfd").unwrap(),
            vec![Pass::Fhash {
                variant: fhash::Variant::TopDownFfrDepth,
                threads: None
            }]
        );
        assert_eq!(
            parse_pipeline("fhash!:b").unwrap(),
            vec![Pass::FhashConverge {
                variant: fhash::Variant::BottomUp,
                threads: None
            }]
        );
        assert_eq!(
            parse_pipeline("fhash!:B").unwrap()[0].to_string(),
            "fhash!:B"
        );
        assert_eq!(
            parse_pipeline("algebraic:5 ; map:4; cec:1000").unwrap(),
            vec![
                Pass::Algebraic { rounds: 5 },
                Pass::Map { k: 4 },
                Pass::Cec { budget: Some(1000) },
            ]
        );
        // Empty segments are tolerated (trailing semicolons).
        assert_eq!(parse_pipeline("strash;;").unwrap(), vec![Pass::Strash]);
    }

    #[test]
    fn grammar_thread_suffix() {
        assert_eq!(
            parse_pipeline("fhash:T@4").unwrap(),
            vec![Pass::Fhash {
                variant: fhash::Variant::TopDown,
                threads: Some(4)
            }]
        );
        assert_eq!(
            parse_pipeline("fhash!:bf@2").unwrap(),
            vec![Pass::FhashConverge {
                variant: fhash::Variant::BottomUpFfr,
                threads: Some(2)
            }]
        );
        assert_eq!(
            parse_pipeline("fhash:T@4").unwrap()[0].to_string(),
            "fhash:T@4"
        );
        assert_eq!(
            parse_pipeline("fhash!:B@8").unwrap()[0].to_string(),
            "fhash!:B@8"
        );
        let e = parse_pipeline("fhash:T@x").unwrap_err();
        assert!(e.message.contains("thread count"));
        let e = parse_pipeline("fhash:T@0").unwrap_err();
        assert!(e.message.contains("at least 1"));
        let e = parse_pipeline("fhash:Q@2").unwrap_err();
        assert!(e.message.contains("unknown variant"));
        // Counts past the bound are refused with the pass position.
        assert_eq!(
            parse_pipeline("fhash!:T@256").unwrap(),
            vec![Pass::FhashConverge {
                variant: fhash::Variant::TopDown,
                threads: Some(256)
            }]
        );
        let e = parse_pipeline("strash; fhash!:T@257").unwrap_err();
        assert_eq!(e.index, 1);
        assert_eq!(e.text, "fhash!:T@257");
        assert!(e.message.contains("at most 256"), "{}", e.message);
        let e = parse_pipeline("size!@100000").unwrap_err();
        assert!(e.message.contains("at most 256"), "{}", e.message);
    }

    #[test]
    fn grammar_algebraic_converge_and_thread_suffixes() {
        assert_eq!(
            parse_pipeline("size!; depth!; size; depth").unwrap(),
            vec![
                Pass::SizeConverge,
                Pass::DepthConverge,
                Pass::SizeRewrite,
                Pass::DepthRewrite,
            ]
        );
        // The algebraic passes run on the calling thread: a thread suffix
        // fails at its pass and names it.
        let e = parse_pipeline("size!@4; depth!@2").unwrap_err();
        assert_eq!((e.index, e.text.as_str()), (0, "size!@4"));
        assert!(e.message.contains("\"size!\" takes no @N"), "{e}");
        let e = parse_pipeline("depth!; depth!@2").unwrap_err();
        assert_eq!((e.index, e.text.as_str()), (1, "depth!@2"));
        assert!(e.message.contains("\"depth!\" takes no @N"), "{e}");
        let e = parse_pipeline("strash; algebraic@4").unwrap_err();
        assert_eq!((e.index, e.text.as_str()), (1, "algebraic@4"));
        assert!(e.message.contains("\"algebraic\" takes no @N"), "{e}");
        let e = parse_pipeline("algebraic:3@4; strash").unwrap_err();
        assert_eq!((e.index, e.text.as_str()), (0, "algebraic:3@4"));
        assert!(e.message.contains("\"algebraic\" takes no @N"), "{e}");
        assert_eq!(
            parse_pipeline("algebraic:3; algebraic:").unwrap(),
            vec![Pass::Algebraic { rounds: 3 }, Pass::Algebraic { rounds: 2 }]
        );
        // Round-trip rendering.
        assert_eq!(parse_pipeline("size!").unwrap()[0].to_string(), "size!");
        assert_eq!(parse_pipeline("depth!").unwrap()[0].to_string(), "depth!");
        assert_eq!(
            parse_pipeline("algebraic").unwrap()[0].to_string(),
            "algebraic:2"
        );
        // Errors: bad thread suffixes and passes that take none.
        let e = parse_pipeline("size!@0").unwrap_err();
        assert!(e.message.contains("at least 1"));
        let e = parse_pipeline("algebraic:x").unwrap_err();
        assert!(e.message.contains("round count"));
        let e = parse_pipeline("strash@2").unwrap_err();
        assert!(e.message.contains("takes no @N"));
        let e = parse_pipeline("size@2").unwrap_err();
        assert!(e.message.contains("takes no @N"));
        let e = parse_pipeline("algebraic@2:3@4").unwrap_err();
        assert!(e.message.contains("takes no @N"));
        let e = parse_pipeline("fhash@2:T@4").unwrap_err();
        assert!(e.message.contains("duplicate @N"));
    }

    #[test]
    fn grammar_parses_compact() {
        assert_eq!(parse_pipeline("compact").unwrap(), vec![Pass::Compact]);
        assert_eq!(parse_pipeline("compact").unwrap()[0].to_string(), "compact");
        let e = parse_pipeline("compact:4").unwrap_err();
        assert!(e.message.contains("takes no argument"));
        let e = parse_pipeline("compact@2").unwrap_err();
        assert!(e.message.contains("takes no @N"));
    }

    #[test]
    fn compact_pass_preserves_function_and_cut_cache() {
        // Serial fhash leaves dead slots; a mid-pipeline compact must
        // renumber them out without upsetting the carried cut set —
        // the final result must match the same pipeline without the
        // compact step, and stay SAT-provably equivalent.
        let mut m = Mig::new(6);
        let ins: Vec<mig::Signal> = m.inputs().collect();
        let x = m.xor(ins[0], ins[1]);
        let y = m.xor(x, ins[2]);
        let z = m.xor(y, ins[3]);
        let g = m.mux(ins[4], z, x);
        let h = m.maj(g, y, ins[5]);
        m.add_output(h);
        m.add_output(z);
        let with = parse_pipeline("fhash:TF; compact; fhash:T; cec").unwrap();
        let (compacted, reports) = run_pipeline(&m, &with).unwrap();
        assert!(reports[3].note.contains("equivalent"));
        let without = parse_pipeline("fhash:TF; fhash:T").unwrap();
        let (plain, _) = run_pipeline(&m, &without).unwrap();
        assert_eq!(compacted.num_gates(), plain.num_gates());
        assert_eq!(compacted.output_truth_tables(), plain.output_truth_tables());
        // A pipeline *ending* in compact leaves a dense layout.
        let tail = parse_pipeline("fhash:TF; fhash:T; compact").unwrap();
        let (dense, _) = run_pipeline(&m, &tail).unwrap();
        assert_eq!(dense.dead_slot_pct(), 0);
        assert_eq!(dense.output_truth_tables(), plain.output_truth_tables());
    }

    #[test]
    fn grammar_rejects_unknown_and_malformed() {
        let e = parse_pipeline("strash; frobnicate").unwrap_err();
        assert_eq!(e.index, 1);
        assert!(e.message.contains("unknown pass"));
        let e = parse_pipeline("fhash").unwrap_err();
        assert!(e.message.contains("variant"));
        let e = parse_pipeline("fhash:X").unwrap_err();
        assert!(e.message.contains("unknown variant"));
        let e = parse_pipeline("fhash!").unwrap_err();
        assert!(e.message.contains("variant"));
        let e = parse_pipeline("fhash!:Q").unwrap_err();
        assert!(e.message.contains("unknown variant"));
        let e = parse_pipeline("map:9").unwrap_err();
        assert!(e.message.contains("between 2 and 6"));
        let e = parse_pipeline("strash:now").unwrap_err();
        assert!(e.message.contains("takes no argument"));
        let e = parse_pipeline("cec:lots").unwrap_err();
        assert!(e.message.contains("budget"));
    }

    #[test]
    fn pipeline_runs_and_reports() {
        // A redundant xor chain shrinks under fhash and proves equivalent.
        let mut m = Mig::new(3);
        let (a, b, c) = (m.input(0), m.input(1), m.input(2));
        let x = m.xor(a, b);
        let y = m.xor(x, c);
        m.add_output(y);
        let passes = parse_pipeline("strash; fhash:T; cec; stats").unwrap();
        let (out, reports) = run_pipeline(&m, &passes).unwrap();
        assert!(out.num_gates() < m.num_gates());
        assert_eq!(reports.len(), 4);
        assert!(reports[2].note.contains("equivalent"));
        assert_eq!(reports[3].size_after, out.num_gates());
    }

    #[test]
    fn converge_pass_runs_to_fixpoint() {
        // The naive xor3 shrinks under fhash!:T and reports its rounds.
        let mut m = Mig::new(3);
        let (a, b, c) = (m.input(0), m.input(1), m.input(2));
        let x = m.xor(a, b);
        let y = m.xor(x, c);
        m.add_output(y);
        let passes = parse_pipeline("fhash!:T; cec").unwrap();
        let (out, reports) = run_pipeline(&m, &passes).unwrap();
        assert!(out.num_gates() < m.num_gates());
        assert!(
            reports[0].note.contains("rounds"),
            "note: {}",
            reports[0].note
        );
        assert!(reports[1].note.contains("equivalent"));
    }

    #[test]
    fn pipeline_runs_sharded_fhash_passes() {
        // A redundant xor chain; passes with thread suffixes must shrink
        // it and stay SAT-provably equivalent.
        let mut m = Mig::new(4);
        let (a, b, c, d) = (m.input(0), m.input(1), m.input(2), m.input(3));
        let x = m.xor(a, b);
        let y = m.xor(x, c);
        let z = m.xor(y, d);
        m.add_output(z);
        let passes = parse_pipeline("fhash:T@4; fhash:B@2; cec; stats").unwrap();
        let (out, reports) = run_pipeline_jobs(&m, &passes, 2).unwrap();
        assert!(out.num_gates() < m.num_gates());
        assert!(reports[2].note.contains("equivalent"));
        // The default only applies where no @N was given.
        assert_eq!(reports[0].pass, "fhash:T@4");
        assert_eq!(reports[1].pass, "fhash:B@2");
    }

    #[test]
    fn cut_cache_carried_across_passes_matches_fresh_enumeration() {
        // The pipeline shares one cut set across consecutive serial
        // fhash passes; the result must be identical to running each
        // pass with a freshly enumerated set.
        let mut m = Mig::new(4);
        let (a, b, c, d) = (m.input(0), m.input(1), m.input(2), m.input(3));
        let x = m.xor(a, b);
        let y = m.xor(x, c);
        let g = m.mux(d, y, x);
        m.add_output(g);
        m.add_output(y);
        let passes = parse_pipeline("fhash:TF; fhash:T; fhash:B").unwrap();
        let (cached, _) = run_pipeline(&m, &passes).unwrap();
        let engine = fhash::FunctionalHashing::with_default_database();
        let mut fresh = m.clone();
        for v in [
            fhash::Variant::TopDownFfr,
            fhash::Variant::TopDown,
            fhash::Variant::BottomUp,
        ] {
            engine.pass(&mut fresh, v, &mut None, 1);
        }
        assert_eq!(cached.num_gates(), fresh.num_gates());
        assert_eq!(cached.output_truth_tables(), fresh.output_truth_tables());
    }

    #[test]
    fn cut_cache_survives_a_scheduler_driven_pass() {
        // A converge pass between two serial fhash passes: the scheduler
        // peeks the dirty log without draining it, so the carried cut
        // set must still track every change — the pipeline's result has
        // to match running the passes with per-pass fresh enumeration.
        let mut m = Mig::new(6);
        let ins: Vec<mig::Signal> = m.inputs().collect();
        let x = m.xor(ins[0], ins[1]);
        let y = m.xor(x, ins[2]);
        let z = m.xor(y, ins[3]);
        let g = m.mux(ins[4], z, x);
        let h = m.maj(g, y, ins[5]);
        m.add_output(h);
        m.add_output(z);
        let passes = parse_pipeline("fhash:TF; fhash!:T@3; fhash:T").unwrap();
        let (cached, _) = run_pipeline(&m, &passes).unwrap();
        let engine = fhash::FunctionalHashing::with_default_database();
        let mut fresh = m.clone();
        engine.pass(&mut fresh, fhash::Variant::TopDownFfr, &mut None, 1);
        engine.converge(&mut fresh, fhash::Variant::TopDown, 3);
        engine.pass(&mut fresh, fhash::Variant::TopDown, &mut None, 1);
        assert_eq!(cached.num_gates(), fresh.num_gates());
        assert_eq!(cached.output_truth_tables(), fresh.output_truth_tables());
        assert_eq!(cached.output_truth_tables(), m.output_truth_tables());
    }

    #[test]
    fn cec_catches_a_wrong_circuit() {
        let mut m = Mig::new(2);
        let (a, b) = (m.input(0), m.input(1));
        let g = m.and(a, b);
        m.add_output(g);
        let mut wrong = Mig::new(2);
        let (a, b) = (wrong.input(0), wrong.input(1));
        let g = wrong.or(a, b);
        wrong.add_output(g);
        // Splice the wrong circuit in by running cec with `wrong` as if it
        // were the pipeline state: emulate via a custom run.
        let err = run_pipeline_with_state(&m, wrong);
        assert!(matches!(err, Err(PipelineError::NotEquivalent(_))));
    }

    fn run_pipeline_with_state(input: &Mig, state: Mig) -> Result<(), PipelineError> {
        // Check the cec pass logic directly.
        match cec::prove_equivalent(input, &state, None) {
            cec::CecResult::Counterexample(cex) => Err(PipelineError::NotEquivalent(cex)),
            _ => Ok(()),
        }
    }
}

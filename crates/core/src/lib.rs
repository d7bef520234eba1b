//! Functional-hashing size optimization for MIGs — the primary
//! contribution of *Optimizing Majority-Inverter Graphs with Functional
//! Hashing* (Soeken et al., DATE 2016, §IV).
//!
//! The optimizer enumerates all 4-feasible cuts of an MIG, canonizes each
//! cut function under NPN equivalence, and replaces cuts with precomputed
//! minimum-size MIGs from the [`npndb::Database`] when that reduces the
//! node count. Replacements are performed *in place* on the managed
//! [`Mig`] network: each commit is a local substitution with incremental
//! cut invalidation, so pass cost scales with the rewritten region rather
//! than the graph. Each pipeline pass is one call:
//! [`FunctionalHashing::pass`] runs one pass (`fhash:V`), and
//! [`FunctionalHashing::converge`] runs the event-driven scheduler to a
//! fixpoint (`fhash!:V`). The paper's variants are all available as
//! [`Variant`]s:
//!
//! | Acronym | Variant | Meaning |
//! |---------|---------|---------|
//! | `T`   | [`Variant::TopDown`]          | Algorithm 1, whole graph |
//! | `TD`  | [`Variant::TopDownDepth`]     | + depth-preserving heuristic |
//! | `TF`  | [`Variant::TopDownFfr`]       | Algorithm 1 per fanout-free region |
//! | `TFD` | [`Variant::TopDownFfrDepth`]  | + depth-preserving heuristic |
//! | `B`   | [`Variant::BottomUp`]         | Algorithm 2, whole graph |
//! | `BF`  | [`Variant::BottomUpFfr`]      | Algorithm 2 per fanout-free region |
//!
//! # Examples
//!
//! ```
//! use fhash::{FunctionalHashing, Variant};
//! use mig::Mig;
//!
//! // A naively built xor3 takes 6 gates; its minimum MIG takes 3.
//! let mut m = Mig::new(3);
//! let (a, b, c) = (m.input(0), m.input(1), m.input(2));
//! let x = m.xor(a, b);
//! let y = m.xor(x, c);
//! m.add_output(y);
//! assert_eq!(m.num_gates(), 6);
//!
//! let want = m.output_truth_tables();
//! let engine = FunctionalHashing::with_default_database();
//! engine.pass(&mut m, Variant::TopDown, &mut None);
//! assert_eq!(m.num_gates(), 3);
//! assert_eq!(m.output_truth_tables(), want);
//! ```

mod bottomup;
mod common;
mod inplace;
#[cfg(test)]
mod rebuild;
mod shard;

use common::Class;
use cuts::{enumerate_cuts, CutConfig, CutSet};
use mig::Mig;
use npndb::Database;

/// The six algorithm variants of paper §IV / Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// `T`: top-down over the whole MIG (Algorithm 1).
    TopDown,
    /// `TD`: top-down with the depth-preserving heuristic.
    TopDownDepth,
    /// `TF`: top-down within each fanout-free region.
    TopDownFfr,
    /// `TFD`: top-down within each fanout-free region, depth-preserving.
    TopDownFfrDepth,
    /// `B`: bottom-up over the whole MIG (Algorithm 2).
    BottomUp,
    /// `BF`: bottom-up within each fanout-free region.
    BottomUpFfr,
}

impl Variant {
    /// All variants, in the column order of the paper's Table III
    /// (TF, T, TFD, TD, BF) plus `B`.
    pub const ALL: [Variant; 6] = [
        Variant::TopDownFfr,
        Variant::TopDown,
        Variant::TopDownFfrDepth,
        Variant::TopDownDepth,
        Variant::BottomUpFfr,
        Variant::BottomUp,
    ];

    /// Parses a paper acronym (`T`, `TD`, `TF`, `TFD`, `B`, `BF`,
    /// case-insensitive) back into a variant. Used by the `migopt`
    /// pipeline grammar (`fhash:TFD`).
    pub fn from_acronym(s: &str) -> Option<Variant> {
        Variant::ALL
            .into_iter()
            .find(|v| v.acronym().eq_ignore_ascii_case(s))
    }

    /// The paper's acronym for the variant.
    pub fn acronym(self) -> &'static str {
        match self {
            Variant::TopDown => "T",
            Variant::TopDownDepth => "TD",
            Variant::TopDownFfr => "TF",
            Variant::TopDownFfrDepth => "TFD",
            Variant::BottomUp => "B",
            Variant::BottomUpFfr => "BF",
        }
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.acronym())
    }
}

/// Slack allowed by the depth-preserving heuristic (0 = strictly
/// depth-preserving locally).
const ALLOWED_DEPTH_INCREASE: u32 = 0;

/// Backstop on [`FunctionalHashing::converge`]: serial rounds, or
/// scheduler steps. Improving rounds shrink the graph, so this is never
/// the expected exit.
const MAX_ROUNDS: usize = 50;

/// Statistics reported by a functional-hashing run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FhStats {
    /// Number of replacements committed to the result: top-down counts
    /// [`Mig::replace_node`] substitutions, bottom-up counts outputs
    /// rerouted to a new candidate implementation (so 0 means the pass
    /// was a no-op — the convergence fixpoint test).
    pub replacements: u64,
    /// Sum of estimated gains of the performed replacements (top-down
    /// only; the real gain is visible in the returned MIG's size).
    pub estimated_gain: i64,
    /// Event counters of the convergence scheduler (zero for purely
    /// serial runs).
    pub sched: mig::SchedStats,
}

impl FhStats {
    /// Reconstructs the legacy stats struct from a metric-registry delta.
    /// Serial engines record `fhash.*`, the scheduler records `shard.*`
    /// for committed proposals (suppressed when a whole-graph hook
    /// already recorded through the serial path), so summing both views
    /// counts every committed rewrite exactly once.
    pub fn from_delta(d: &obs::Delta) -> FhStats {
        FhStats {
            replacements: d.get(obs::Metric::FhReplacements)
                + d.get(obs::Metric::ShardReplacements),
            estimated_gain: d.geti(obs::Metric::FhGain) + d.geti(obs::Metric::ShardGain),
            sched: mig::SchedStats::from_delta(d),
        }
    }
}

/// The functional-hashing optimizer (paper §IV).
///
/// Owns the per-class table built once from the NPN database (each
/// class's minimum network and its scores), so repeated passes share
/// the precomputed state. A pipeline pass is one call: [`pass`] for a
/// single in-place pass, [`converge`] for the fixpoint.
///
/// [`pass`]: FunctionalHashing::pass
/// [`converge`]: FunctionalHashing::converge
#[derive(Debug)]
pub struct FunctionalHashing {
    /// One entry per NPN class, indexed like
    /// [`truth::npn4_class_representatives`]; `None` when the database
    /// has no network for the class.
    classes: Vec<Option<Class>>,
}

impl FunctionalHashing {
    /// Creates an engine over the embedded pregenerated database.
    pub fn with_default_database() -> Self {
        let db = Database::embedded();
        let classes = truth::npn4_class_representatives()
            .into_iter()
            .enumerate()
            .map(|(index, rep)| Class::of(index, rep, &db))
            .collect();
        FunctionalHashing { classes }
    }

    /// One in-place pass of `variant` over `mig` (the `fhash:V` pipeline
    /// pass). Cut replacements are local substitutions on the managed
    /// network (fanout patching, strash-consistent rehash, recursive
    /// dereference), so a single replacement costs O(affected region)
    /// instead of an O(n) rebuild. Dangling cones are swept before
    /// returning; the result is functionally equivalent to the input.
    ///
    /// `cuts` carries the pass's [`CutSet`], so a pipeline can share one
    /// set across consecutive passes; a one-off call passes `&mut None`.
    /// When it is `None` the pass enumerates a fresh set into it, whose
    /// dirty-log cursor starts at the log head: pending entries owned by
    /// other consumers are neither drained nor re-processed, so
    /// long-lived callers should bound the log themselves between passes
    /// (`Mig::truncate_dirty` at their slowest cursor, or
    /// `Mig::drain_dirty` when nothing tracks it). A set already there
    /// must describe `mig` (the graph it was enumerated over, possibly
    /// mutated since — the entry refresh consumes pending changes through
    /// the set's own cursor and re-enumerates only the invalidated
    /// lists). On return the set is consistent with the optimized graph
    /// up to the final sweep, whose dirt the next refresh consumes.
    pub fn pass(&self, mig: &mut Mig, variant: Variant, cuts: &mut Option<CutSet>) -> FhStats {
        self.pass_threads(mig, variant, cuts, 1)
    }

    /// [`FunctionalHashing::pass`] with a worker-thread count for the
    /// bottom-up variants' candidate preparation (cut canonization and
    /// database lookup fan out over worker threads; the materializing DP
    /// walk stays serial). The top-down variants ignore the count, and
    /// the result is bit-identical at every count.
    pub(crate) fn pass_threads(
        &self,
        mig: &mut Mig,
        variant: Variant,
        cuts: &mut Option<CutSet>,
        threads: usize,
    ) -> FhStats {
        let cuts = cuts.get_or_insert_with(|| enumerate_cuts(mig, &CutConfig::default()));
        // The engines record into the metric registry (the single source
        // of truth); the stats struct is reconstructed from the pass's
        // scope delta, which is then published to the caller's scope so
        // enclosing rounds and pipeline passes see it too.
        let ((), delta) = obs::metrics::scoped(|| match variant {
            Variant::TopDown => inplace::top_down(self, mig, cuts, false, false),
            Variant::TopDownDepth => inplace::top_down(self, mig, cuts, true, false),
            Variant::TopDownFfr => inplace::top_down(self, mig, cuts, false, true),
            Variant::TopDownFfrDepth => inplace::top_down(self, mig, cuts, true, true),
            Variant::BottomUp => inplace::bottom_up(self, mig, cuts, false, threads),
            Variant::BottomUpFfr => inplace::bottom_up(self, mig, cuts, true, threads),
        });
        delta.publish();
        FhStats::from_delta(&delta)
    }

    /// Runs `variant` to convergence on `threads` worker threads (the
    /// `fhash!:V[@N]` pipeline pass, and `fhash:V@N` for N ≥ 2).
    ///
    /// The event-driven convergence scheduler partitions the graph into
    /// regions (FFR forest for the FFR-restricted variants, level bands
    /// otherwise); workers *propose* replacements concurrently over a
    /// frozen step snapshot (cut enumeration, NPN lookup and scoring are
    /// read-only), and a serial *commit* phase applies non-conflicting
    /// proposals in stable region order. After the first step only the
    /// regions a commit dirtied are proposed again, until none is left.
    /// The bottom-up variants run the scheduler between a guarded serial
    /// baseline pass and a serial polish, so they are never worse than
    /// the serial engine. Graphs too small to partition run the serial
    /// round loop instead: full passes until no replacement fires or the
    /// gate count stops shrinking (a round that fails to shrink is rolled
    /// back).
    ///
    /// The result is deterministic for a fixed graph and thread count,
    /// and functionally equivalent to the input. Returns the statistics
    /// and the rounds run: scheduler steps, or serial rounds on a graph
    /// too small to partition.
    pub fn converge(&self, mig: &mut Mig, variant: Variant, threads: usize) -> (FhStats, usize) {
        let (stats, rounds) = shard::converge(self, mig, variant, threads.max(1));
        obs::metrics::add(obs::Metric::FhRounds, rounds as u64);
        (stats, rounds)
    }

    /// The serial round loop behind [`FunctionalHashing::converge`]: the
    /// fallback for graphs too small to partition and the bottom-up
    /// polish. Repeats full passes until no replacement fires or the gate
    /// count stops shrinking.
    pub(crate) fn run_converge_serial(&self, mig: &mut Mig, variant: Variant) -> (FhStats, usize) {
        // Only the bottom-up variants can grow the graph (no per-commit
        // gain bound), so only they need a rollback snapshot; top-down
        // rounds strictly shrink or fire no replacement.
        let monotone = matches!(
            variant,
            Variant::TopDown
                | Variant::TopDownDepth
                | Variant::TopDownFfr
                | Variant::TopDownFfrDepth
        );
        let mut rounds = 0;
        let ((), delta) = obs::metrics::scoped(|| {
            while rounds < MAX_ROUNDS {
                let before_size = mig.num_gates();
                let snapshot = (!monotone).then(|| mig.clone());
                // Each round runs in its own metric scope: a kept round
                // publishes everything, a terminal round (no-op or rolled
                // back) keeps only its event history — outcome counters
                // vanish with the undone work, profiling totals stay.
                let (stats, round) = obs::metrics::scoped(|| self.pass(mig, variant, &mut None));
                rounds += 1;
                if stats.replacements == 0 {
                    round.publish_history();
                    break;
                }
                if mig.num_gates() >= before_size {
                    if let Some(snap) = snapshot {
                        *mig = snap;
                    }
                    round.publish_history();
                    break;
                }
                round.publish();
            }
        });
        delta.publish();
        (FhStats::from_delta(&delta), rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mig::Signal;

    fn engine() -> FunctionalHashing {
        FunctionalHashing::with_default_database()
    }

    /// One pass of `v` on a copy of `m`.
    fn run_with_stats(e: &FunctionalHashing, m: &Mig, v: Variant) -> (Mig, FhStats) {
        let mut opt = m.clone();
        let stats = e.pass(&mut opt, v, &mut None);
        (opt, stats)
    }

    fn run(e: &FunctionalHashing, m: &Mig, v: Variant) -> Mig {
        run_with_stats(e, m, v).0
    }

    /// Reads a circuit of the repository's `benchmarks/` directory.
    pub(crate) fn read_benchmark(name: &str) -> Mig {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks");
        io::read_mig_path(dir.join(name)).expect("checked-in benchmark parses")
    }

    /// A naively-constructed 4-input parity (9 gates; minimum is 6).
    fn naive_xor4() -> Mig {
        let mut m = Mig::new(4);
        let (a, b, c, d) = (m.input(0), m.input(1), m.input(2), m.input(3));
        let x = m.xor(a, b);
        let y = m.xor(c, d);
        let z = m.xor(x, y);
        m.add_output(z);
        m
    }

    #[test]
    fn variant_acronyms_match_paper() {
        let names: Vec<&str> = Variant::ALL.iter().map(|v| v.acronym()).collect();
        assert_eq!(names, vec!["TF", "T", "TFD", "TD", "BF", "B"]);
    }

    #[test]
    fn all_variants_preserve_functionality() {
        let m = naive_xor4();
        let e = engine();
        let want = m.output_truth_tables();
        for v in Variant::ALL {
            let opt = run(&e, &m, v);
            assert_eq!(opt.output_truth_tables(), want, "variant {v}");
            assert_eq!(opt.num_inputs(), 4);
            assert_eq!(opt.num_outputs(), 1);
        }
    }

    #[test]
    fn topdown_reaches_minimum_for_xor4() {
        let m = naive_xor4();
        let opt = run(&engine(), &m, Variant::TopDown);
        // The parity class needs 6 gates (embedded database, Table I).
        assert_eq!(opt.num_gates(), 6);
    }

    #[test]
    fn topdown_never_increases_size() {
        // Rebuilding with strash plus gain>=1 replacements can only shrink.
        let e = engine();
        let mut m = Mig::new(5);
        let ins: Vec<Signal> = m.inputs().collect();
        let g1 = m.maj(ins[0], ins[1], ins[2]);
        let g2 = m.xor(g1, ins[3]);
        let g3 = m.mux(ins[4], g2, g1);
        let g4 = m.maj(g3, g1, ins[0]);
        m.add_output(g4);
        m.add_output(g2);
        for v in [
            Variant::TopDown,
            Variant::TopDownDepth,
            Variant::TopDownFfr,
            Variant::TopDownFfrDepth,
        ] {
            let opt = run(&e, &m, v);
            assert!(
                opt.num_gates() <= m.num_gates(),
                "variant {v}: {} > {}",
                opt.num_gates(),
                m.num_gates()
            );
            assert_eq!(opt.output_truth_tables(), m.output_truth_tables());
        }
    }

    #[test]
    fn depth_preserving_respects_local_levels() {
        let m = naive_xor4();
        let e = engine();
        let (opt_t, stats_t) = run_with_stats(&e, &m, Variant::TopDown);
        let (opt_td, _) = run_with_stats(&e, &m, Variant::TopDownDepth);
        assert!(stats_t.replacements > 0);
        // TD is allowed to do less, never more, than T in size.
        assert!(opt_td.num_gates() >= opt_t.num_gates());
        assert!(opt_td.depth() <= m.depth());
        assert_eq!(opt_td.output_truth_tables(), m.output_truth_tables());
    }

    #[test]
    fn bottomup_shrinks_redundant_logic() {
        let m = naive_xor4();
        let e = engine();
        let opt = run(&e, &m, Variant::BottomUp);
        assert!(opt.num_gates() <= m.num_gates());
        assert_eq!(opt.output_truth_tables(), m.output_truth_tables());
        let opt_ffr = run(&e, &m, Variant::BottomUpFfr);
        assert_eq!(opt_ffr.output_truth_tables(), m.output_truth_tables());
    }

    #[test]
    fn shared_logic_is_not_duplicated_by_ffr_variants() {
        // g1 is shared by two regions; TF must keep it shared.
        let mut m = Mig::new(4);
        let (a, b, c, d) = (m.input(0), m.input(1), m.input(2), m.input(3));
        let g1 = m.xor(a, b);
        let o1 = m.maj(g1, c, d);
        let o2 = m.maj(g1, !c, d);
        m.add_output(o1);
        m.add_output(o2);
        let e = engine();
        let opt = run(&e, &m, Variant::TopDownFfr);
        assert_eq!(opt.output_truth_tables(), m.output_truth_tables());
        assert!(opt.num_gates() <= m.num_gates());
    }

    #[test]
    fn multi_output_polarities_preserved() {
        let mut m = Mig::new(3);
        let (a, b, c) = (m.input(0), m.input(1), m.input(2));
        let (s, co) = m.full_adder(a, b, c);
        m.add_output(!s);
        m.add_output(co);
        m.add_output(s);
        let e = engine();
        for v in Variant::ALL {
            let opt = run(&e, &m, v);
            assert_eq!(opt.output_truth_tables(), m.output_truth_tables(), "{v}");
        }
    }

    #[test]
    fn constant_and_passthrough_outputs() {
        let mut m = Mig::new(2);
        let (a, b) = (m.input(0), m.input(1));
        let g = m.and(a, b);
        m.add_output(Signal::ZERO);
        m.add_output(Signal::ONE);
        m.add_output(a);
        m.add_output(!g);
        let e = engine();
        for v in Variant::ALL {
            let opt = run(&e, &m, v);
            assert_eq!(opt.output_truth_tables(), m.output_truth_tables(), "{v}");
        }
    }

    #[test]
    fn stats_report_replacements() {
        let m = naive_xor4();
        let e = engine();
        let (_, stats) = run_with_stats(&e, &m, Variant::TopDown);
        assert!(stats.replacements >= 1);
        assert!(stats.estimated_gain >= 1);
    }

    #[test]
    fn empty_and_gateless_migs_pass_through() {
        let mut m = Mig::new(2);
        let a = m.input(1);
        m.add_output(a);
        for v in Variant::ALL {
            let opt = run(&engine(), &m, v);
            assert_eq!(opt.num_gates(), 0);
            assert_eq!(opt.output_truth_tables(), m.output_truth_tables());
        }
    }

    #[test]
    fn converge_on_a_graph_too_small_to_partition_is_the_serial_loop() {
        // Nine gates never shard: `converge` falls back to the serial
        // round loop and reports that loop's rounds and statistics.
        let m = naive_xor4();
        let e = engine();
        for v in Variant::ALL {
            let mut serial = m.clone();
            let (serial_stats, serial_rounds) = e.run_converge_serial(&mut serial, v);
            for threads in [1usize, 4] {
                let mut conv = m.clone();
                let (stats, rounds) = e.converge(&mut conv, v, threads);
                assert_eq!(rounds, serial_rounds, "{v}@{threads}");
                assert_eq!(stats, serial_stats, "{v}@{threads}");
                assert_eq!(conv.num_gates(), serial.num_gates(), "{v}@{threads}");
            }
        }
    }

    #[test]
    fn serial_round_loop_keeps_the_history_of_a_fruitless_round() {
        // From a fixpoint of the serial round loop, one more run is one
        // fruitless round: a no-op, or a bottom-up round rolled back for
        // not shrinking the graph. Its outcome counters vanish with the
        // undone work, but its event history (cuts scored, cut lookups)
        // records work that happened and must survive.
        let e = engine();
        let mut rolled_back = 0;
        for name in ["full_adder.aag", "adder8.aag", "mult4.aig", "adder4.blif"] {
            for v in Variant::ALL {
                let mut fixed = read_benchmark(name);
                e.run_converge_serial(&mut fixed, v);
                let mut probe = fixed.clone();
                if obs::metrics::muted(|| e.pass(&mut probe, v, &mut None)).replacements > 0 {
                    rolled_back += 1;
                }
                let mut again = fixed.clone();
                let ((stats, rounds), delta) =
                    obs::metrics::scoped(|| e.run_converge_serial(&mut again, v));
                assert_eq!(rounds, 1, "{name}/{v}: one fruitless round");
                assert_eq!(stats.replacements, 0, "{name}/{v}");
                assert_eq!(delta.get(obs::Metric::FhReplacements), 0, "{name}/{v}");
                assert_eq!(again.num_gates(), fixed.num_gates(), "{name}/{v}");
                let history = match v {
                    Variant::BottomUp | Variant::BottomUpFfr => {
                        delta.get(obs::Metric::CutsCacheHits)
                            + delta.get(obs::Metric::CutsCacheMisses)
                    }
                    _ => delta.get(obs::Metric::CutsScored),
                };
                assert!(history > 0, "{name}/{v}: history lost with the round");
            }
        }
        assert!(rolled_back > 0, "no fixpoint ends on a rolled-back round");
    }

    #[test]
    fn event_driven_converge_proposes_less_than_full_sweeps() {
        // A workload where the rewriting opportunity is concentrated in a
        // few cones under tall stable chains (the chain512 microbench
        // shape, scaled down): the event-driven scheduler must skip the
        // clean chain regions after the first step — strictly fewer
        // region proposals than the full-sweep equivalent (proposed +
        // skipped) — while reaching a gate count no worse than the
        // round-based driver.
        let mut m = Mig::new(4 * (3 + 2 * 96));
        let mut next = 0usize;
        let mut fresh = |m: &Mig| {
            let s = m.input(next);
            next += 1;
            s
        };
        let mut tops = Vec::new();
        for _ in 0..4 {
            let (a, b, c) = (fresh(&m), fresh(&m), fresh(&m));
            let x = m.xor(a, b);
            let mut acc = m.xor(x, c);
            for _ in 0..96 {
                let (p, q) = (fresh(&m), fresh(&m));
                acc = m.maj(acc, p, q);
            }
            tops.push(acc);
        }
        let top = m.maj(tops[0], tops[1], tops[2]);
        let top = m.maj(top, tops[3], Signal::ZERO);
        m.add_output(top);

        let e = engine();
        let mut rounds_based = m.clone();
        let (serial_stats, serial_rounds) =
            e.run_converge_serial(&mut rounds_based, Variant::TopDown);
        assert!(serial_stats.replacements > 0 && serial_rounds >= 2);

        for threads in [1usize, 4] {
            let mut event = m.clone();
            let (stats, _) = e.converge(&mut event, Variant::TopDown, threads);
            assert!(stats.replacements > 0, "@{threads}");
            assert!(
                event.num_gates() <= rounds_based.num_gates(),
                "@{threads}: event-driven {} > round-based {}",
                event.num_gates(),
                rounds_based.num_gates()
            );
            assert!(
                stats.sched.skipped_clean > 0,
                "@{threads}: no clean region was ever skipped: {:?}",
                stats.sched
            );
            // "Fewer proposal evaluations than full-sweep rounds": a full
            // sweep would have proposed every non-empty region each step.
            let full_sweep_equivalent = stats.sched.proposed_regions + stats.sched.skipped_clean;
            assert!(
                stats.sched.proposed_regions < full_sweep_equivalent,
                "@{threads}: {:?}",
                stats.sched
            );
        }
    }

    #[test]
    fn event_driven_converge_never_worse_than_round_based_driver() {
        // On every checked-in benchmark and every variant, the
        // event-driven convergence scheduler reaches quiescence with gate
        // counts never worse than the round-based full-sweep driver,
        // stays SAT-proved CEC-equivalent, and is bit-deterministic per
        // thread count.
        let e = engine();
        for name in ["full_adder.aag", "adder8.aag", "mult4.aig", "adder4.blif"] {
            let m = read_benchmark(name);
            for v in Variant::ALL {
                let mut rounds_based = m.clone();
                e.run_converge_serial(&mut rounds_based, v);
                for threads in [1usize, 4] {
                    let mut event = m.clone();
                    let (stats, _) = e.converge(&mut event, v, threads);
                    assert!(
                        event.num_gates() <= rounds_based.num_gates(),
                        "{name}/{v}@{threads}: event-driven {} > round-based {}",
                        event.num_gates(),
                        rounds_based.num_gates()
                    );
                    assert_eq!(
                        cec::prove_equivalent(&m, &event, None),
                        cec::CecResult::Equivalent,
                        "{name}/{v}@{threads}: event-driven result not equivalent"
                    );
                    let mut again = m.clone();
                    let (stats2, _) = e.converge(&mut again, v, threads);
                    assert_eq!(stats, stats2, "{name}/{v}@{threads}: counters drifted");
                    assert_eq!(again.num_nodes(), event.num_nodes(), "{name}/{v}@{threads}");
                    let gates_a: Vec<_> = again.gates().map(|g| (g, again.fanins(g))).collect();
                    let gates_b: Vec<_> = event.gates().map(|g| (g, event.fanins(g))).collect();
                    assert_eq!(
                        gates_a, gates_b,
                        "{name}/{v}@{threads}: nondeterministic netlist"
                    );
                }
            }
        }
    }
}

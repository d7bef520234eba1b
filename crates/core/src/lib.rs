//! Functional-hashing size optimization for MIGs — the primary
//! contribution of *Optimizing Majority-Inverter Graphs with Functional
//! Hashing* (Soeken et al., DATE 2016, §IV).
//!
//! The optimizer enumerates all 4-feasible cuts of an MIG, canonizes each
//! cut function under NPN equivalence, and replaces cuts with precomputed
//! minimum-size MIGs from the [`npndb::Database`] when that reduces the
//! node count. Replacements are performed *in place* on the managed
//! [`Mig`] network ([`FunctionalHashing::run_in_place`]): each commit is a
//! local substitution with incremental cut invalidation, so pass cost
//! scales with the rewritten region rather than the graph. The original
//! rebuild-based engine remains available as
//! [`FunctionalHashing::run_rebuild`] for differential testing, and
//! [`FunctionalHashing::run_converge`] repeats a pass to a fixpoint
//! (the `fhash!:V` pipeline pass). The paper's variants are all available
//! as [`Variant`]s:
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
//! let engine = FunctionalHashing::with_default_database();
//! let opt = engine.run(&m, Variant::TopDown);
//! assert_eq!(opt.num_gates(), 3);
//! assert_eq!(opt.output_truth_tables(), m.output_truth_tables());
//! ```

mod bottomup;
mod common;
mod inplace;
mod shard;
mod topdown;

use common::ClassScore;
use cuts::{enumerate_cuts, CutConfig, CutSet};
use mig::{Mig, ShardConfig};
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

/// Tuning knobs for the functional-hashing engine.
#[derive(Debug, Clone, Copy)]
pub struct FhConfig {
    /// Cut enumeration parameters (the paper uses 4-feasible cuts).
    pub cut_config: CutConfig,
    /// Bound on candidates kept per node in the bottom-up approach (the
    /// paper's priority-cut-like `insert` bound).
    pub max_candidates: usize,
    /// Bound on leaf-candidate combinations evaluated per cut in the
    /// bottom-up approach.
    pub max_combinations: usize,
    /// Slack allowed by the depth-preserving heuristic (0 = strictly
    /// depth-preserving locally).
    pub allowed_depth_increase: u32,
}

impl Default for FhConfig {
    fn default() -> Self {
        FhConfig {
            cut_config: CutConfig::default(),
            max_candidates: 3,
            max_combinations: 4,
            allowed_depth_increase: 0,
        }
    }
}

/// Statistics reported by a functional-hashing run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FhStats {
    /// Number of replacements committed to the result: in-place top-down
    /// counts [`Mig::replace_node`] substitutions, in-place bottom-up
    /// counts outputs rerouted to a new candidate implementation (so 0
    /// means the pass was a no-op — the convergence fixpoint test). The
    /// rebuild reference engines keep their historical meaning
    /// (speculative candidate instantiations for bottom-up).
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
/// Owns the NPN database and its per-class scores, so repeated
/// [`FunctionalHashing::run`] calls share the precomputed state.
#[derive(Debug)]
pub struct FunctionalHashing {
    db: Database,
    /// One entry per NPN class, indexed like
    /// [`truth::npn4_class_representatives`]; `None` when the database
    /// has no network for the class.
    classes: Vec<Option<ClassScore>>,
    config: FhConfig,
}

impl FunctionalHashing {
    /// Creates an engine from a database and configuration.
    pub fn new(db: Database, config: FhConfig) -> Self {
        let classes = truth::npn4_class_representatives()
            .into_iter()
            .map(|rep| ClassScore::of(rep, &db))
            .collect();
        FunctionalHashing {
            db,
            classes,
            config,
        }
    }

    /// Creates an engine with the embedded pregenerated database and
    /// default configuration.
    pub fn with_default_database() -> Self {
        Self::new(Database::embedded(), FhConfig::default())
    }

    /// The engine's database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The engine's configuration.
    pub fn config(&self) -> &FhConfig {
        &self.config
    }

    /// Optimizes a copy of `mig` with the chosen variant; the result has
    /// no dangling gates and is functionally equivalent to the input.
    ///
    /// This routes through the in-place engine ([`run_in_place`]) on a
    /// clone — pass a `&mut Mig` to [`run_in_place`] directly to avoid
    /// the copy.
    ///
    /// [`run_in_place`]: FunctionalHashing::run_in_place
    pub fn run(&self, mig: &Mig, variant: Variant) -> Mig {
        self.run_with_stats(mig, variant).0
    }

    /// Like [`FunctionalHashing::run`], also returning run statistics.
    pub fn run_with_stats(&self, mig: &Mig, variant: Variant) -> (Mig, FhStats) {
        let mut m = mig.clone();
        let stats = self.run_in_place(&mut m, variant);
        (m, stats)
    }

    /// Optimizes `mig` in place with the chosen variant: cut replacements
    /// are local substitutions on the managed network (fanout patching,
    /// strash-consistent rehash, recursive dereference), so a single
    /// replacement costs O(affected region) instead of an O(n) rebuild.
    /// Dangling cones are swept before returning.
    pub fn run_in_place(&self, mig: &mut Mig, variant: Variant) -> FhStats {
        // The fresh enumeration starts its dirty-log cursor at the
        // current head, so pending entries (owned by other consumers,
        // e.g. a pipeline's carried cut set) are neither drained nor
        // re-processed. The flip side: no engine pass consumes the log
        // anymore, so long-lived callers rewriting the same graph
        // repeatedly should bound it themselves between passes
        // (`Mig::truncate_dirty` at their slowest cursor, or
        // `Mig::drain_dirty` when nothing tracks it — what the migopt
        // pipeline does).
        let mut cuts = enumerate_cuts(mig, &self.config.cut_config);
        self.run_in_place_with_cuts(mig, variant, &mut cuts)
    }

    /// [`FunctionalHashing::run_in_place`] with a worker-thread count for
    /// the read-only half of the pass. Today this parallelizes the
    /// bottom-up variants' candidate preparation (cut canonization and
    /// database lookup fan out over worker threads; the materializing DP
    /// walk stays serial); the top-down variants ignore the count. The
    /// result is bit-identical at every thread count.
    pub fn run_in_place_threads(&self, mig: &mut Mig, variant: Variant, threads: usize) -> FhStats {
        let mut cuts = enumerate_cuts(mig, &self.config.cut_config);
        self.run_in_place_with_cuts_threads(mig, variant, &mut cuts, threads)
    }

    /// Like [`FunctionalHashing::run_in_place`], but reusing a caller-held
    /// [`CutSet`] instead of enumerating from scratch. The cut set must
    /// describe `mig` (same graph the set was enumerated over, possibly
    /// mutated since — pending changes are consumed from the dirty log by
    /// the entry refresh, which re-enumerates only the invalidated
    /// lists). On return the set is consistent with the optimized graph
    /// up to the final sweep (whose dirt the next refresh consumes), so a
    /// pipeline can carry one cut set across consecutive passes.
    pub fn run_in_place_with_cuts(
        &self,
        mig: &mut Mig,
        variant: Variant,
        cuts: &mut CutSet,
    ) -> FhStats {
        self.run_in_place_with_cuts_threads(mig, variant, cuts, 1)
    }

    /// [`FunctionalHashing::run_in_place_with_cuts`] with a worker-thread
    /// count for the read-only candidate preparation (see
    /// [`FunctionalHashing::run_in_place_threads`]).
    pub fn run_in_place_with_cuts_threads(
        &self,
        mig: &mut Mig,
        variant: Variant,
        cuts: &mut CutSet,
        threads: usize,
    ) -> FhStats {
        // The engines record into the metric registry (the single source
        // of truth); the legacy stats struct is reconstructed from the
        // pass's scope delta, which is then published to the caller's
        // scope so enclosing rounds and pipeline passes see it too.
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

    /// Optimizes `mig` with the chosen variant on `threads` worker
    /// threads (sharded propose/commit rewriting, see
    /// [`FunctionalHashing::run_sharded`]). `threads <= 1` is the
    /// degenerate case and routes through the single-threaded
    /// [`FunctionalHashing::run_in_place`] engine.
    pub fn run_threads(&self, mig: &mut Mig, variant: Variant, threads: usize) -> FhStats {
        if threads <= 1 {
            self.run_in_place(mig, variant)
        } else {
            self.run_sharded(mig, variant, threads)
        }
    }

    /// Sharded in-place optimization: the graph is partitioned into
    /// regions (FFR forest for the FFR-restricted variants, level bands
    /// otherwise), worker threads *propose* replacements concurrently
    /// over a frozen round snapshot (cut enumeration, NPN lookup and
    /// candidate scoring are read-only), and a serial *commit* phase
    /// applies non-conflicting proposals in stable region order through
    /// the managed network's `replace_node`/strash path. Conflicted
    /// proposals are regenerated the next round from the re-partitioned,
    /// still-dirty regions; rounds repeat until no proposal commits.
    ///
    /// The result is deterministic for a fixed graph and thread count,
    /// and functionally equivalent to the input (each commit is a
    /// function-preserving local substitution).
    pub fn run_sharded(&self, mig: &mut Mig, variant: Variant, threads: usize) -> FhStats {
        shard::run_sharded(
            self,
            mig,
            variant,
            threads,
            ShardConfig::new(threads).max_rounds,
        )
    }

    /// Runs the engine to convergence (no replacement fires or the gate
    /// count stops shrinking, bounded by `max_rounds`): the `fhash!:V`
    /// pipeline pass. Routes through the event-driven convergence
    /// scheduler ([`FunctionalHashing::run_converge_threads`] at one
    /// worker thread), so after the first pass only the regions a commit
    /// actually dirtied are re-proposed. Rounds that do not shrink the
    /// graph are rolled back, so the result is never worse than any
    /// intermediate fixpoint.
    pub fn run_converge(
        &self,
        mig: &mut Mig,
        variant: Variant,
        max_rounds: usize,
    ) -> (FhStats, usize) {
        self.run_converge_threads(mig, variant, max_rounds, 1)
    }

    /// The round-based convergence reference: repeats the full-sweep
    /// serial pass ([`FunctionalHashing::run_in_place`]) until no
    /// replacement fires or the gate count stops shrinking. Every round
    /// re-traverses the whole graph — kept as the baseline the
    /// event-driven scheduler is measured (and differentially tested)
    /// against, and as the fallback for graphs too small to partition.
    pub fn run_converge_serial(
        &self,
        mig: &mut Mig,
        variant: Variant,
        max_rounds: usize,
    ) -> (FhStats, usize) {
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
            while rounds < max_rounds {
                let before_size = mig.num_gates();
                let snapshot = (!monotone).then(|| mig.clone());
                // Each round runs in its own metric scope: a kept round
                // publishes everything, a terminal round (no-op or rolled
                // back) keeps only its event history — outcome counters
                // vanish with the undone work, profiling totals stay.
                let (stats, round) = obs::metrics::scoped(|| self.run_in_place(mig, variant));
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

    /// [`FunctionalHashing::run_converge`] with a worker-thread count:
    /// the event-driven convergence driver behind the `fhash!:V[@N]`
    /// pipeline pass. Graphs too small to partition run the round-based
    /// serial loop ([`FunctionalHashing::run_converge_serial`]); larger
    /// graphs run the scheduler to quiescence in one pass
    /// ([`FunctionalHashing::run_sharded`], which also owns the
    /// baseline/polish structure of the bottom-up variants) — the
    /// scheduler's dirty-region queue already repeats work exactly where
    /// commits landed, so no outer full-sweep round loop remains.
    /// Returns the statistics and the scheduler steps run (the
    /// round-count equivalent).
    pub fn run_converge_threads(
        &self,
        mig: &mut Mig,
        variant: Variant,
        max_rounds: usize,
        threads: usize,
    ) -> (FhStats, usize) {
        let threads = threads.max(1);
        let (stats, rounds) = if !ShardConfig::new(threads).shardable(mig) {
            self.run_converge_serial(mig, variant, max_rounds)
        } else {
            let stats = shard::run_sharded(self, mig, variant, threads, max_rounds);
            let rounds = (stats.sched.steps as usize).max(1);
            (stats, rounds)
        };
        obs::metrics::add(obs::Metric::FhRounds, rounds as u64);
        (stats, rounds)
    }

    /// The original rebuild-based engine (reconstructs the optimized MIG
    /// from scratch with structural hashing). Kept as the reference
    /// implementation the in-place engine is differentially tested
    /// against.
    pub fn run_rebuild(&self, mig: &Mig, variant: Variant) -> Mig {
        self.run_rebuild_with_stats(mig, variant).0
    }

    /// Like [`FunctionalHashing::run_rebuild`], also returning statistics.
    pub fn run_rebuild_with_stats(&self, mig: &Mig, variant: Variant) -> (Mig, FhStats) {
        match variant {
            Variant::TopDown => topdown::TopDown::run(self, mig, false, false),
            Variant::TopDownDepth => topdown::TopDown::run(self, mig, true, false),
            Variant::TopDownFfr => topdown::TopDown::run(self, mig, false, true),
            Variant::TopDownFfrDepth => topdown::TopDown::run(self, mig, true, true),
            Variant::BottomUp => bottomup::BottomUp::run(self, mig, false),
            Variant::BottomUpFfr => bottomup::BottomUp::run(self, mig, true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mig::Signal;

    fn engine() -> FunctionalHashing {
        FunctionalHashing::with_default_database()
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
            let opt = e.run(&m, v);
            assert_eq!(opt.output_truth_tables(), want, "variant {v}");
            assert_eq!(opt.num_inputs(), 4);
            assert_eq!(opt.num_outputs(), 1);
        }
    }

    #[test]
    fn topdown_reaches_minimum_for_xor4() {
        let m = naive_xor4();
        let opt = engine().run(&m, Variant::TopDown);
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
            let opt = e.run(&m, v);
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
        let (opt_t, stats_t) = e.run_with_stats(&m, Variant::TopDown);
        let (opt_td, _) = e.run_with_stats(&m, Variant::TopDownDepth);
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
        let opt = e.run(&m, Variant::BottomUp);
        assert!(opt.num_gates() <= m.num_gates());
        assert_eq!(opt.output_truth_tables(), m.output_truth_tables());
        let opt_ffr = e.run(&m, Variant::BottomUpFfr);
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
        let opt = e.run(&m, Variant::TopDownFfr);
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
            let opt = e.run(&m, v);
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
            let opt = e.run(&m, v);
            assert_eq!(opt.output_truth_tables(), m.output_truth_tables(), "{v}");
        }
    }

    #[test]
    fn stats_report_replacements() {
        let m = naive_xor4();
        let e = engine();
        let (_, stats) = e.run_with_stats(&m, Variant::TopDown);
        assert!(stats.replacements >= 1);
        assert!(stats.estimated_gain >= 1);
    }

    #[test]
    fn empty_and_gateless_migs_pass_through() {
        let mut m = Mig::new(2);
        let a = m.input(1);
        m.add_output(a);
        for v in Variant::ALL {
            let opt = engine().run(&m, v);
            assert_eq!(opt.num_gates(), 0);
            assert_eq!(opt.output_truth_tables(), m.output_truth_tables());
        }
    }
}

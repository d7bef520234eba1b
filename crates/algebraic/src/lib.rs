//! Algebraic MIG optimization (paper refs \[3\] and \[4\]).
//!
//! The functional-hashing paper starts from "heavily optimized" MIGs
//! produced by the algebraic/Boolean optimization flow of Amarù et al.
//! (DAC'14/DAC'15). This crate reimplements the algebraic core of that
//! flow on top of the `mig` crate:
//!
//! * `Ω.M` (majority): `<xxy> = x`, `<xx̄y> = y` — applied implicitly by
//!   structural hashing;
//! * `Ω.A` (associativity): `<xu<yuz>> = <zu<yux>>` — used to retime
//!   late-arriving signals toward the root (depth rewriting);
//! * `Ω.D` (distributivity, L→R): `<xy<uvz>> = <<xyu><xyv>z>` — moves a
//!   critical signal one level up at the cost of one node (depth
//!   rewriting);
//! * `Ω.D` (distributivity, R→L): `<<xyu><xyv>z> = <xy<uvz>>` — saves one
//!   node whenever two fanins share two operands (size rewriting).
//!
//! The moves run as *local substitutions* on the managed [`Mig`]
//! network: each candidate is matched read-only, built speculatively and
//! committed through [`Mig::replace_node`], with incrementally maintained
//! levels driving critical-path detection and the structural-change log
//! driving affected-cone re-scans in the convergence loops. Each
//! pipeline pass is one call:
//!
//! | Pass | Call |
//! |------|------|
//! | `size` | [`size_rewrite`]: one guarded size sweep |
//! | `depth` | [`depth_rewrite`]: one guarded depth sweep |
//! | `size![@T]` | [`size_converge`]: size sweeps to the fixpoint |
//! | `depth![@T]` | [`depth_converge`]: depth sweeps to the fixpoint |
//! | `algebraic[:N][@T]` | [`optimize`]: the size+depth script |
//!
//! The converge loops and the sharded script run the same moves as
//! proposals on the engine-agnostic propose/commit protocol of
//! [`mig::ProposeEngine`] when `T > 1` and the graph is large enough to
//! shard. [`optimize`] is also the "script" the benchmark harness uses
//! to produce Table III starting points; every script round shares the
//! lexicographic `(gates, depth)` acceptance ([`script_metric`]), so
//! serial and sharded runs agree on convergence. The original
//! rebuild-style passes survive as test-only references for the
//! differential tests.

mod inplace;
#[cfg(test)]
mod rebuild;
mod shard;

pub use inplace::{depth_rewrite, size_rewrite};

use mig::Mig;

/// Backstop on the convergence loops' rounds: improving rounds shrink
/// the guarded metric, so this is never the expected exit.
const MAX_ROUNDS: usize = 50;

/// Statistics of an algebraic pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlgStats {
    /// Number of associativity moves applied.
    pub assoc_moves: u64,
    /// Number of distributivity (L→R) moves applied.
    pub distrib_moves: u64,
    /// Number of distributivity (R→L) merges applied.
    pub merges: u64,
    /// Event counters of the convergence scheduler (zero for purely
    /// serial runs).
    pub sched: mig::SchedStats,
}

impl AlgStats {
    /// Total applied moves of any kind.
    pub fn total(&self) -> u64 {
        self.assoc_moves + self.distrib_moves + self.merges
    }

    /// Accumulates another pass's counters into this one.
    pub fn absorb(&mut self, other: AlgStats) {
        self.assoc_moves += other.assoc_moves;
        self.distrib_moves += other.distrib_moves;
        self.merges += other.merges;
        self.sched.absorb(other.sched);
    }

    /// Reconstructs the legacy stats struct from a metric-registry delta.
    /// The in-place move commits record `alg.*` directly (serial sweeps
    /// and scheduler commits alike), so no arithmetic over driver totals
    /// is needed to attribute moves per kind.
    pub fn from_delta(d: &obs::Delta) -> AlgStats {
        AlgStats {
            assoc_moves: d.get(obs::Metric::AlgAssocMoves),
            distrib_moves: d.get(obs::Metric::AlgDistribMoves),
            merges: d.get(obs::Metric::AlgMerges),
            sched: mig::SchedStats::from_delta(d),
        }
    }
}

/// The optimization script's round-acceptance metric: `(gates, depth)`,
/// compared lexicographically (smaller is better). Shared by the serial
/// script, the sharded round guard and the rebuild reference, so all
/// agree on what counts as progress. The signature matches
/// [`mig::ShardConfig::guard`].
pub fn script_metric(mig: &Mig) -> (u64, u64) {
    (mig.num_gates() as u64, u64::from(mig.depth()))
}

/// Size-rewriting convergence on the event-driven scheduler (the
/// `size!` pipeline pass): graphs too small to shard run the serial
/// convergence loop (affected-cone re-scans seeded from the dirty log);
/// larger graphs run guarded scheduler steps over dirty regions —
/// `threads` workers propose in parallel — followed by a serial polish to
/// the serial engine's own fixpoint. Returns the applied-move counters
/// and the number of rounds/steps run. Every step and sweep is
/// `(gates, depth)`-guarded, so the result is never worse than the input.
pub fn size_converge(mig: &mut Mig, threads: usize) -> (AlgStats, usize) {
    shard::converge_threads(mig, MAX_ROUNDS, false, threads)
}

/// Depth-script convergence (the `depth!` pipeline pass): like
/// [`size_converge`] for the Ω.A/Ω.D depth moves. Every committed move
/// strictly lowers its root's level and steps run under a
/// `(depth, gates)` guard, so the result never has more depth than the
/// input.
pub fn depth_converge(mig: &mut Mig, threads: usize) -> (AlgStats, usize) {
    shard::converge_threads(mig, MAX_ROUNDS, true, threads)
}

/// The optimization script (the `algebraic:N@T` pipeline pass):
/// alternating size and depth rounds until the lexicographic
/// `(gates, depth)` fixpoint ([`script_metric`]) or `max_rounds`,
/// mirroring how the paper's starting points were produced with the
/// flows of refs \[3\] and \[4\]. Rounds that fail to improve are rolled
/// back, so the result is never worse than the input.
///
/// With `threads > 1` the serial script is the quality baseline, and
/// event-driven size and depth stages on the scheduler run afterwards as
/// refinement under the same round acceptance, `threads` workers
/// proposing in parallel. The script's round acceptance is inherently
/// serial (each round's stage selection depends on the previous round's
/// committed graph), so this makes the sharded script never worse than
/// the serial script on any input, bit-deterministic for a fixed input
/// and thread count, and exactly the serial script on graphs too small
/// to shard.
pub fn optimize(mig: &mut Mig, max_rounds: usize, threads: usize) -> AlgStats {
    let ((), delta) = obs::metrics::scoped(|| {
        for _ in 0..max_rounds {
            if inplace::script_round(mig, &mut size_rewrite, &mut depth_rewrite).is_none() {
                break;
            }
        }
        if threads <= 1 {
            return;
        }
        for _ in 0..max_rounds {
            let round = inplace::script_round(
                mig,
                &mut |m| shard::converge_threads(m, 8, false, threads).0,
                &mut |m| shard::converge_threads(m, 8, true, threads).0,
            );
            if round.is_none() {
                break;
            }
        }
    });
    delta.publish();
    AlgStats::from_delta(&delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_rewrite_merges_distributive_pattern() {
        // <<xyu> <xyv> z> should collapse to <xy<uvz>> (3 gates -> 2).
        let mut m = Mig::new(5);
        let (x, y, u, v, z) = (m.input(0), m.input(1), m.input(2), m.input(3), m.input(4));
        let g1 = m.maj(x, y, u);
        let g2 = m.maj(x, y, v);
        let top = m.maj(g1, g2, z);
        m.add_output(top);
        assert_eq!(m.num_gates(), 3);
        let mut opt = m.cleanup();
        let stats = size_rewrite(&mut opt);
        assert_eq!(stats.merges, 1);
        assert_eq!(opt.num_gates(), 2);
        assert_eq!(opt.output_truth_tables(), m.output_truth_tables());
        // The rebuild reference agrees on this local pattern.
        let (ropt, rstats) = rebuild::size_rewrite_rebuild(&m);
        assert_eq!(rstats.merges, 1);
        assert_eq!(ropt.num_gates(), 2);
    }

    #[test]
    fn inplace_size_sweep_rolls_back_losing_merges() {
        // When both G1 and G2 stay alive through outside references, the
        // merge adds gates without freeing any; the guarded sweep must
        // roll back and leave the graph untouched.
        let mut m = Mig::new(6);
        let (x, y, u, v, z, w) = (
            m.input(0),
            m.input(1),
            m.input(2),
            m.input(3),
            m.input(4),
            m.input(5),
        );
        let g1 = m.maj(x, y, u);
        let g2 = m.maj(x, y, v);
        let top = m.maj(g1, g2, z);
        let side1 = m.maj(g1, w, z); // keeps g1 alive
        let side2 = m.maj(g2, w, !z); // keeps g2 alive
        m.add_output(top);
        m.add_output(side1);
        m.add_output(side2);
        let before = m.num_gates();
        let mut opt = m.clone();
        let stats = size_rewrite(&mut opt);
        assert_eq!(stats.total(), 0, "losing sweep reports no kept moves");
        assert_eq!(opt.num_gates(), before, "rollback restored the graph");
        assert_eq!(opt.output_truth_tables(), m.output_truth_tables());
    }

    #[test]
    fn depth_rewrite_flattens_chain() {
        // A long associative chain <x4 u <x3 u <x2 u <x1 u x0>>>>.
        let mut m = Mig::new(6);
        let u = m.input(5);
        let mut acc = m.input(0);
        for i in 1..5 {
            let x = m.input(i);
            acc = m.maj(x, u, acc);
        }
        m.add_output(acc);
        let before_depth = m.depth();
        let mut opt = m.cleanup();
        depth_rewrite(&mut opt);
        assert_eq!(opt.output_truth_tables(), m.output_truth_tables());
        assert!(opt.depth() <= before_depth);
    }

    #[test]
    fn optimize_is_function_preserving_and_never_worse() {
        let mut m = Mig::new(4);
        let (a, b, c, d) = (m.input(0), m.input(1), m.input(2), m.input(3));
        let x = m.xor(a, b);
        let y = m.maj(x, c, d);
        let g1 = m.maj(a, b, y);
        let g2 = m.maj(a, b, c);
        let top = m.maj(g1, g2, x);
        m.add_output(top);
        let mut opt = m.cleanup();
        optimize(&mut opt, 4, 1);
        assert_eq!(opt.output_truth_tables(), m.output_truth_tables());
        assert!(opt.num_gates() <= m.num_gates());
    }

    #[test]
    fn ripple_chain_depth_reduction() {
        // An unbalanced AND chain: depth rewriting should restructure it
        // towards a balanced tree over a few rounds.
        let n = 8;
        let mut m = Mig::new(n);
        let mut acc = m.input(0);
        for i in 1..n {
            let x = m.input(i);
            acc = m.and(acc, x);
        }
        m.add_output(acc);
        let before = m.depth();
        let mut cur = m.cleanup();
        let (stats, rounds) = depth_converge(&mut cur, 1);
        assert!(stats.total() > 0, "no moves applied");
        assert!(rounds >= 1);
        assert_eq!(cur.output_truth_tables(), m.output_truth_tables());
        assert!(cur.depth() < before, "{} !< {before}", cur.depth());
    }

    #[test]
    fn converge_loops_report_fixpoints() {
        let mut m = Mig::new(5);
        let (x, y, u, v, z) = (m.input(0), m.input(1), m.input(2), m.input(3), m.input(4));
        let g1 = m.maj(x, y, u);
        let g2 = m.maj(x, y, v);
        let top = m.maj(g1, g2, z);
        m.add_output(top);
        let want = m.output_truth_tables();
        let (stats, rounds) = size_converge(&mut m, 1);
        assert_eq!(stats.merges, 1);
        assert!(rounds >= 2, "a confirming full sweep must run");
        assert_eq!(m.output_truth_tables(), want);
        // Converged: a further sweep finds nothing.
        let again = size_rewrite(&mut m);
        assert_eq!(again.total(), 0);
    }

    #[test]
    fn script_metric_is_lexicographic() {
        let mut small = Mig::new(2);
        let (a, b) = (small.input(0), small.input(1));
        let g = small.and(a, b);
        small.add_output(g);
        let mut deep = Mig::new(2);
        let (a, b) = (deep.input(0), deep.input(1));
        let g1 = deep.and(a, b);
        let g2 = deep.or(g1, a);
        deep.add_output(g2);
        assert!(script_metric(&small) < script_metric(&deep));
    }
}

//! The rebuild-based reference engines and the differential tests that
//! hold the in-place engine against them. Test-only: production runs
//! the in-place passes ([`FunctionalHashing::pass`]).
//!
//! Both references reconstruct the optimized MIG from scratch with
//! structural hashing instead of substituting in place:
//!
//! * [`TopDown`] (paper §IV-A, Algorithm 1): starting from each output,
//!   find the cut whose replacement by its precomputed minimum MIG yields
//!   the largest size reduction; if one exists, instantiate the minimum
//!   network and recur on the cut leaves (skipping the cut's internal
//!   nodes entirely), otherwise recur on the node's fanins. The
//!   depth-preserving variant (paper: TD/TFD) discards cuts whose
//!   replacement would locally raise the root's level above its original
//!   level; as the paper notes, the global depth may still increase when
//!   an individual path through a leaf is lengthened.
//! * [`BottomUp`] (paper §IV-B, Algorithm 2): the shared candidate DP
//!   ([`gate_candidates`]) with every candidate built in the fresh graph.

use crate::bottomup::{candidate_cuts, gate_candidates, Build, Candidate};
use crate::common::{select_best_cut, ScoredCut};
use crate::{FhStats, FunctionalHashing, Variant};
use cuts::{enumerate_cuts, CutConfig, CutSet};
use mig::{FfrPartition, Mig, NodeId, Signal};

impl FunctionalHashing {
    /// Optimizes a copy of `mig` with the rebuild reference engine of
    /// `variant`.
    pub(crate) fn run_rebuild(&self, mig: &Mig, variant: Variant) -> Mig {
        self.run_rebuild_with_stats(mig, variant).0
    }

    /// Like [`FunctionalHashing::run_rebuild`], also returning statistics
    /// (bottom-up counts every speculative candidate instantiation).
    pub(crate) fn run_rebuild_with_stats(&self, mig: &Mig, variant: Variant) -> (Mig, FhStats) {
        match variant {
            Variant::TopDown => TopDown::run(self, mig, false, false),
            Variant::TopDownDepth => TopDown::run(self, mig, true, false),
            Variant::TopDownFfr => TopDown::run(self, mig, false, true),
            Variant::TopDownFfrDepth => TopDown::run(self, mig, true, true),
            Variant::BottomUp => BottomUp::run(self, mig, false),
            Variant::BottomUpFfr => BottomUp::run(self, mig, true),
        }
    }
}

struct TopDown<'a> {
    engine: &'a FunctionalHashing,
    old: &'a Mig,
    cuts: CutSet,
    levels: Vec<u32>,
    ffr: Option<FfrPartition>,
    depth_preserving: bool,
    new: Mig,
    memo: Vec<Option<Signal>>,
    stats: FhStats,
}

impl<'a> TopDown<'a> {
    fn run(
        engine: &'a FunctionalHashing,
        old: &'a Mig,
        depth_preserving: bool,
        use_ffr: bool,
    ) -> (Mig, FhStats) {
        let cuts = enumerate_cuts(old, &CutConfig::default());
        let mut td = TopDown {
            engine,
            old,
            cuts,
            levels: old.levels(),
            ffr: use_ffr.then(|| FfrPartition::compute(old)),
            depth_preserving,
            new: Mig::new(old.num_inputs()),
            memo: vec![None; old.num_nodes()],
            stats: FhStats::default(),
        };
        td.memo[0] = Some(Signal::ZERO);
        for i in 0..old.num_inputs() {
            td.memo[i + 1] = Some(td.new.input(i));
        }
        if let Some(ffr) = td.ffr.as_ref() {
            // Region roots in topological order: every region's inputs are
            // terminals or previously optimized roots.
            for root in ffr.roots().to_vec() {
                td.opt(root);
            }
        }
        for out in old.outputs().to_vec() {
            let s = td.opt(out.node()).complement_if(out.is_complemented());
            td.new.add_output(s);
        }
        let cleaned = td.new.cleanup();
        (cleaned, td.stats)
    }

    /// Algorithm 1's `opt`: returns the optimized signal for the *plain*
    /// polarity of old node `v`.
    fn opt(&mut self, v: NodeId) -> Signal {
        if let Some(s) = self.memo[v as usize] {
            return s;
        }
        debug_assert!(self.old.is_gate(v));

        let sig = match self.select_cut(v) {
            Some(sel) => {
                // Recur on the leaves, then instantiate the minimum MIG.
                let leaf_sigs: Vec<Signal> =
                    sel.cut.leaves().iter().map(|&l| self.opt(l)).collect();
                self.stats.replacements += 1;
                self.stats.estimated_gain += i64::from(sel.gain);
                sel.repl
                    .instantiate(self.engine, &mut self.new, &sel.cut, |pos| leaf_sigs[pos])
            }
            None => {
                // Line 9-10: rebuild the node from its optimized fanins.
                let [a, b, c] = self.old.fanins(v);
                let (sa, sb, sc) = (
                    self.opt(a.node()).complement_if(a.is_complemented()),
                    self.opt(b.node()).complement_if(b.is_complemented()),
                    self.opt(c.node()).complement_if(c.is_complemented()),
                );
                self.new.maj(sa, sb, sc)
            }
        };
        self.memo[v as usize] = Some(sig);
        sig
    }

    /// Line 3 of Algorithm 1: the legal cut with the best size reduction,
    /// judged against the original graph's precomputed levels.
    fn select_cut(&self, v: NodeId) -> Option<ScoredCut> {
        select_best_cut(
            self.engine,
            self.old,
            v,
            self.cuts.of(v),
            self.ffr.as_ref(),
            self.depth_preserving,
            |n| self.levels[n as usize],
        )
    }
}

struct BottomUp<'a> {
    engine: &'a FunctionalHashing,
    old: &'a Mig,
    cuts: CutSet,
    refs: Vec<f64>,
    ffr: Option<FfrPartition>,
    new: Mig,
    cand: Vec<Vec<Candidate>>,
    stats: FhStats,
}

impl<'a> BottomUp<'a> {
    fn run(engine: &'a FunctionalHashing, old: &'a Mig, use_ffr: bool) -> (Mig, FhStats) {
        let cuts = enumerate_cuts(old, &CutConfig::default());
        let refs: Vec<f64> = old
            .fanout_counts()
            .iter()
            .map(|&c| f64::from(c.max(1)))
            .collect();
        let mut bu = BottomUp {
            engine,
            old,
            cuts,
            refs,
            ffr: use_ffr.then(|| FfrPartition::compute(old)),
            new: Mig::new(old.num_inputs()),
            cand: vec![Vec::new(); old.num_nodes()],
            stats: FhStats::default(),
        };
        // Terminals: a single zero-cost candidate (Algorithm 2, line 3).
        bu.cand[0].push(Candidate {
            sig: Signal::ZERO,
            af: 0.0,
            depth: 0,
        });
        for i in 0..old.num_inputs() {
            bu.cand[i + 1].push(Candidate {
                sig: bu.new.input(i),
                af: 0.0,
                depth: 0,
            });
        }
        for v in old.topo_gates() {
            bu.process_gate(v);
        }
        // Line 14: take the best candidate for each output.
        for out in old.outputs().to_vec() {
            let best = bu.cand[out.node() as usize][0];
            bu.new
                .add_output(best.sig.complement_if(out.is_complemented()));
        }
        let cleaned = bu.new.cleanup();
        (cleaned, bu.stats)
    }

    fn process_gate(&mut self, v: NodeId) {
        let cut_choices =
            candidate_cuts(self.engine, self.old, self.cuts.of(v), self.ffr.as_ref(), v);
        let engine = self.engine;
        let new = &mut self.new;
        let stats = &mut self.stats;
        let list = gate_candidates(
            self.old.fanins(v),
            &cut_choices,
            &self.cand,
            &self.refs,
            |req| match req {
                Build::Maj(a, b, c) => new.maj(a, b, c),
                Build::Template(repl, cut, chosen) => {
                    // Historical rebuild accounting: every speculative
                    // instantiation counts.
                    stats.replacements += 1;
                    repl.instantiate(engine, new, cut, |pos| chosen[pos].sig)
                }
            },
        );
        self.cand[v as usize] = list;
    }
}

mod tests {
    use super::*;
    use crate::tests::read_benchmark;
    use std::sync::OnceLock;
    use testrand::Rng;

    fn engine() -> &'static FunctionalHashing {
        static ENGINE: OnceLock<FunctionalHashing> = OnceLock::new();
        ENGINE.get_or_init(FunctionalHashing::with_default_database)
    }

    fn random_build(rng: &mut Rng, num_inputs: usize, num_steps: usize, outs: usize) -> Mig {
        let mut m = Mig::new(num_inputs);
        let mut sigs: Vec<Signal> = vec![Signal::ZERO];
        for i in 0..num_inputs {
            sigs.push(m.input(i));
        }
        for _ in 0..num_steps {
            let pick = |sigs: &[Signal], rng: &mut Rng| {
                sigs[rng.usize_below(sigs.len())].complement_if(rng.bool())
            };
            let (a, b, c) = (pick(&sigs, rng), pick(&sigs, rng), pick(&sigs, rng));
            let g = m.maj(a, b, c);
            sigs.push(g);
        }
        for k in 0..outs {
            let s = sigs[sigs.len() - 1 - (k % sigs.len())];
            m.add_output(s.complement_if(k % 2 == 1));
        }
        m
    }

    #[test]
    fn inplace_matches_rebuild_on_random_migs() {
        let mut rng = Rng::new(0x1F_ACE0_0001);
        for case in 0..24 {
            let num_inputs = rng.range(1, 7);
            let steps = rng.range(1, 60);
            let outs = rng.range(1, 4);
            let m = random_build(&mut rng, num_inputs, steps, outs);
            let want = m.output_truth_tables();
            for v in Variant::ALL {
                let rebuild = engine().run_rebuild(&m, v);
                let mut inplace = m.clone();
                engine().pass(&mut inplace, v, &mut None);
                assert_eq!(
                    inplace.output_truth_tables(),
                    want,
                    "case {case} variant {v}: in-place changed the function"
                );
                assert_eq!(
                    rebuild.output_truth_tables(),
                    want,
                    "case {case} variant {v}: rebuild changed the function"
                );
                assert!(
                    inplace.num_gates() <= rebuild.num_gates(),
                    "case {case} variant {v}: in-place larger than rebuild ({} > {})",
                    inplace.num_gates(),
                    rebuild.num_gates()
                );
            }
        }
    }

    #[test]
    fn random_pass_sequences_match_rebuild_chains() {
        // Apply the same random sequence of variants once as chained
        // in-place mutations of one graph and once as chained rebuilds;
        // both must keep the input function, and the in-place chain must
        // not end up larger.
        let mut rng = Rng::new(0x1F_ACE0_0002);
        for case in 0..12 {
            let num_inputs = rng.range(1, 7);
            let steps = rng.range(5, 50);
            let m = random_build(&mut rng, num_inputs, steps, 2);
            let want = m.output_truth_tables();
            let seq_len = rng.range(2, 5);
            let seq: Vec<Variant> = (0..seq_len)
                .map(|_| Variant::ALL[rng.usize_below(Variant::ALL.len())])
                .collect();
            let mut inplace = m.clone();
            let mut rebuild = m.clone();
            for &v in &seq {
                engine().pass(&mut inplace, v, &mut None);
                rebuild = engine().run_rebuild(&rebuild, v);
            }
            assert_eq!(
                inplace.output_truth_tables(),
                want,
                "case {case} sequence {seq:?}: in-place chain changed the function"
            );
            assert!(
                inplace.num_gates() <= rebuild.num_gates(),
                "case {case} sequence {seq:?}: in-place chain larger ({} > {})",
                inplace.num_gates(),
                rebuild.num_gates()
            );
        }
    }

    #[test]
    fn inplace_fhash_acceptance_on_all_benchmarks() {
        // On every checked-in benchmark, every variant of the in-place
        // engine produces CEC-equivalent output with gate counts no worse
        // than the rebuild reference, and `fhash!:B` converges.
        for name in ["full_adder.aag", "adder8.aag", "mult4.aig", "adder4.blif"] {
            let m = read_benchmark(name);
            for v in Variant::ALL {
                let rebuild = engine().run_rebuild(&m, v);
                let mut inplace = m.clone();
                engine().pass(&mut inplace, v, &mut None);
                assert!(
                    inplace.num_gates() <= rebuild.num_gates(),
                    "{name}/{v}: in-place {} > rebuild {}",
                    inplace.num_gates(),
                    rebuild.num_gates()
                );
                assert_eq!(
                    cec::prove_equivalent(&m, &inplace, None),
                    cec::CecResult::Equivalent,
                    "{name}/{v}: in-place result not equivalent"
                );
            }
            let mut conv = m.clone();
            let (_, rounds) = engine().converge(&mut conv, Variant::BottomUp, 1);
            assert!(rounds < 50, "{name}: fhash!:B did not converge");
            assert!(conv.num_gates() <= m.cleanup().num_gates(), "{name}: grew");
            assert_eq!(
                cec::prove_equivalent(&m, &conv, None),
                cec::CecResult::Equivalent,
                "{name}: fhash!:B result not equivalent"
            );
        }
    }
}

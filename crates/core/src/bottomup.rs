//! The bottom-up functional-hashing approach (paper §IV-B, Algorithm 2).
//!
//! Nodes are visited in topological order from the inputs. For every node
//! a bounded list of *candidates* is kept — alternative implementations in
//! the rebuilt MIG together with their estimated size and depth. Each
//! 4-feasible cut contributes candidates obtained by instantiating the
//! cut's minimum network over combinations of the leaves' candidates; the
//! paper's `insert` keeps only "a predetermined number of best candidates"
//! (like priority cuts), which is the `max_candidates` knob here.
//!
//! Size is estimated with *area flow* (amortized node count over fanout),
//! the standard sharing-aware cost for DP over DAGs; the true size is the
//! rebuilt MIG's gate count after dead-node cleanup.

use crate::common::{cut_is_region_legal, internal_nodes, is_trivial, Replacement};
use crate::{FhStats, FunctionalHashing};
use cuts::{enumerate_cuts, Cut, CutSet};
use mig::{FfrPartition, Mig, NodeId, Signal};

/// One candidate implementation of an old node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    /// Signal in the rebuilt MIG (plain polarity of the old node).
    pub(crate) sig: Signal,
    /// Area-flow estimate (amortized gates).
    pub(crate) af: f64,
    /// Estimated level.
    pub(crate) depth: u32,
}

/// A construction request issued by [`gate_candidates`]. The target graph
/// is reached only through the caller's closure, so the same scoring loop
/// serves the rebuild engine (fresh graph) and the in-place engine (the
/// graph being optimized).
pub(crate) enum Build<'a> {
    /// The baseline candidate: the gate over its children's best
    /// candidates.
    Maj(Signal, Signal, Signal),
    /// A cut candidate: instantiate the minimum network over the chosen
    /// leaf candidates.
    Template(&'a Replacement, &'a Cut, &'a [Candidate]),
}

/// Computes the bounded candidate list for one gate (Algorithm 2, lines
/// 4-13): the baseline candidate plus, for every pre-filtered legal cut,
/// combinations of the leaves' candidates scored by area flow and depth.
/// Shared by the rebuild and in-place engines so the scoring math cannot
/// drift between them.
pub(crate) fn gate_candidates(
    engine: &FunctionalHashing,
    fanins: [Signal; 3],
    cut_choices: &[(Cut, Replacement)],
    cand: &[Vec<Candidate>],
    refs: &[f64],
    mut build: impl FnMut(Build<'_>) -> Signal,
) -> Vec<Candidate> {
    let max_cand = engine.config().max_candidates.max(1);
    let mut list: Vec<Candidate> = Vec::with_capacity(max_cand + 1);

    // Baseline candidate: rebuild the gate over the children's best
    // candidates.
    let pick = |s: Signal| {
        let best = cand[s.node() as usize][0];
        (
            best.sig.complement_if(s.is_complemented()),
            best.af / refs[s.node() as usize],
            best.depth,
        )
    };
    let [(sa, afa, da), (sb, afb, db_), (sc, afc, dc)] = fanins.map(pick);
    let sig = build(Build::Maj(sa, sb, sc));
    insert_candidate(
        &mut list,
        Candidate {
            sig,
            af: 1.0 + afa + afb + afc,
            depth: 1 + da.max(db_).max(dc),
        },
        max_cand,
    );

    // Cut-based candidates (Algorithm 2, lines 5-10): enumerate
    // combinations of leaf candidates, capped (the paper notes the cross
    // product "may lead to a tremendous number of candidates").
    for (cut, repl) in cut_choices {
        let lens: Vec<usize> = cut
            .leaves()
            .iter()
            .map(|&l| cand[l as usize].len())
            .collect();
        let combos = bounded_combinations(&lens, engine.config().max_combinations.max(1));
        for combo in combos {
            let chosen: Vec<Candidate> = combo
                .iter()
                .zip(cut.leaves())
                .map(|(&i, &l)| cand[l as usize][i])
                .collect();
            let af = f64::from(repl.class.size)
                + cut
                    .leaves()
                    .iter()
                    .zip(&chosen)
                    .map(|(&l, c)| c.af / refs[l as usize])
                    .sum::<f64>();
            let depth = repl.estimated_level(cut, |pos| chosen[pos].depth);
            // Only instantiate candidates that can enter the list (bounds
            // the graph's speculative growth).
            if !would_enter(&list, af, depth, max_cand) {
                continue;
            }
            let sig = build(Build::Template(repl, cut, &chosen));
            insert_candidate(&mut list, Candidate { sig, af, depth }, max_cand);
        }
    }
    list
}

/// The cuts of `v` eligible as candidate sources: non-trivial, at most 4
/// leaves, region-legal when a partition is given, with their prepared
/// replacements.
pub(crate) fn candidate_cuts(
    engine: &FunctionalHashing,
    mig: &Mig,
    cut_list: &[Cut],
    ffr: Option<&FfrPartition>,
    v: NodeId,
) -> Vec<(Cut, Replacement)> {
    cut_list
        .iter()
        .filter(|cut| !is_trivial(cut, v) && cut.len() <= 4)
        .filter(|cut| {
            ffr.is_none_or(|f| {
                let internal = internal_nodes(mig, v, cut);
                cut_is_region_legal(f, v, &internal)
            })
        })
        .filter_map(|cut| Replacement::prepare(cut, engine).map(|r| (*cut, r)))
        .collect()
}

pub(crate) struct BottomUp<'a> {
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
    pub(crate) fn run(
        engine: &'a FunctionalHashing,
        old: &'a Mig,
        use_ffr: bool,
    ) -> (Mig, FhStats) {
        let cuts = enumerate_cuts(old, &engine.config().cut_config);
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
        let db = self.engine.database();
        let new = &mut self.new;
        let stats = &mut self.stats;
        let list = gate_candidates(
            self.engine,
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
                    repl.instantiate(new, cut, db, |pos| chosen[pos].sig)
                }
            },
        );
        self.cand[v as usize] = list;
    }
}

/// Whether a candidate with this cost would make it into the bounded list.
pub(crate) fn would_enter(list: &[Candidate], af: f64, depth: u32, max_cand: usize) -> bool {
    if list.len() < max_cand {
        return true;
    }
    let worst = list.last().expect("non-empty");
    (af, depth) < (worst.af, worst.depth)
}

/// The paper's `insert`: keep the list sorted by the optimization criteria
/// (area flow, then depth) and bounded.
pub(crate) fn insert_candidate(list: &mut Vec<Candidate>, c: Candidate, max_cand: usize) {
    // Deduplicate by signal: keep the better bookkeeping.
    if let Some(existing) = list.iter_mut().find(|e| e.sig == c.sig) {
        if (c.af, c.depth) < (existing.af, existing.depth) {
            *existing = c;
        }
    } else {
        list.push(c);
    }
    list.sort_by(|x, y| {
        (x.af, x.depth)
            .partial_cmp(&(y.af, y.depth))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    list.truncate(max_cand);
}

/// Index combinations over `lens` lists, in lexicographic order starting
/// from all-zeros (lists are sorted best-first, so early combinations pair
/// good candidates), capped at `cap`.
pub(crate) fn bounded_combinations(lens: &[usize], cap: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::with_capacity(cap);
    let mut idx = vec![0usize; lens.len()];
    'outer: loop {
        out.push(idx.clone());
        if out.len() >= cap {
            break;
        }
        // Odometer increment.
        for i in (0..lens.len()).rev() {
            idx[i] += 1;
            if idx[i] < lens[i] {
                continue 'outer;
            }
            idx[i] = 0;
        }
        break;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_combinations_enumerate_lexicographically() {
        let combos = bounded_combinations(&[2, 3], 100);
        assert_eq!(combos.len(), 6);
        assert_eq!(combos[0], vec![0, 0]);
        assert_eq!(combos[1], vec![0, 1]);
        assert_eq!(combos[5], vec![1, 2]);
        let capped = bounded_combinations(&[2, 3], 4);
        assert_eq!(capped.len(), 4);
        let single = bounded_combinations(&[1, 1, 1, 1], 8);
        assert_eq!(single, vec![vec![0, 0, 0, 0]]);
    }

    #[test]
    fn insert_keeps_list_sorted_and_bounded() {
        let mk = |sig: usize, af: f64, depth: u32| Candidate {
            sig: Signal::from_code(sig),
            af,
            depth,
        };
        let mut list = Vec::new();
        insert_candidate(&mut list, mk(2, 5.0, 3), 2);
        insert_candidate(&mut list, mk(4, 2.0, 7), 2);
        insert_candidate(&mut list, mk(6, 3.0, 1), 2);
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].sig, Signal::from_code(4));
        assert_eq!(list[1].sig, Signal::from_code(6));
        // Same signal with better cost replaces in place.
        insert_candidate(&mut list, mk(6, 1.0, 1), 2);
        assert_eq!(list[0].sig, Signal::from_code(6));
        assert_eq!(list.len(), 2);
    }
}

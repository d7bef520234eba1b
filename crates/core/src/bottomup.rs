//! The bottom-up functional-hashing approach (paper §IV-B, Algorithm 2).
//!
//! Nodes are visited in topological order from the inputs. For every node
//! a bounded list of *candidates* is kept — alternative implementations
//! together with their estimated size and depth. Each 4-feasible cut
//! contributes candidates obtained by instantiating the cut's minimum
//! network over combinations of the leaves' candidates; the paper's
//! `insert` keeps only "a predetermined number of best candidates" (like
//! priority cuts), which is [`MAX_CANDIDATES`] here.
//!
//! Size is estimated with *area flow* (amortized node count over fanout),
//! the standard sharing-aware cost for DP over DAGs; the true size is the
//! optimized MIG's gate count after dead-node cleanup.

use crate::common::{cut_is_region_legal, internal_nodes, is_trivial, Replacement};
use crate::FunctionalHashing;
use cuts::Cut;
use mig::{FfrPartition, Mig, NodeId, Signal};

/// Bound on candidates kept per node (the paper's priority-cut-like
/// `insert` bound).
const MAX_CANDIDATES: usize = 3;

/// Bound on leaf-candidate combinations evaluated per cut.
const MAX_COMBINATIONS: usize = 4;

/// One candidate implementation of an old node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    /// Signal in the optimized MIG (plain polarity of the old node).
    pub(crate) sig: Signal,
    /// Area-flow estimate (amortized gates).
    pub(crate) af: f64,
    /// Estimated level.
    pub(crate) depth: u32,
}

/// A construction request issued by [`gate_candidates`]. The target graph
/// is reached only through the caller's closure, so the same scoring loop
/// serves the in-place engine (the graph being optimized) and the rebuild
/// reference the tests keep (a fresh graph).
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
/// Shared by the in-place engine and the rebuild reference so the scoring
/// math cannot drift between them.
pub(crate) fn gate_candidates(
    fanins: [Signal; 3],
    cut_choices: &[(Cut, Replacement)],
    cand: &[Vec<Candidate>],
    refs: &[f64],
    mut build: impl FnMut(Build<'_>) -> Signal,
) -> Vec<Candidate> {
    let mut list: Vec<Candidate> = Vec::with_capacity(MAX_CANDIDATES + 1);

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
        MAX_CANDIDATES,
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
        let combos = bounded_combinations(&lens, MAX_COMBINATIONS);
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
            if !would_enter(&list, af, depth, MAX_CANDIDATES) {
                continue;
            }
            let sig = build(Build::Template(repl, cut, &chosen));
            insert_candidate(&mut list, Candidate { sig, af, depth }, MAX_CANDIDATES);
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

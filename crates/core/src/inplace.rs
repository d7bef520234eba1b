//! In-place functional hashing: the cut-replacement algorithms of paper
//! §IV (Algorithms 1 and 2) executed as local mutations of the managed
//! [`Mig`] network instead of whole-graph reconstruction.
//!
//! * Top-down (`T`/`TD`/`TF`/`TFD`): each selected cut is instantiated
//!   over its *existing* leaf nodes and committed with
//!   [`Mig::replace_node`], which patches fanouts, keeps the strash table
//!   consistent and frees the replaced cone — one replacement costs
//!   O(affected region), not O(n).
//! * Bottom-up (`B`/`BF`): candidate implementations are built directly
//!   in the same graph (structural hashing dedups against the existing
//!   logic for free); at the end each output is rerouted to its best
//!   candidate and dangling cones are reclaimed by [`Mig::sweep`].
//!
//! Cut lists are kept incrementally: after every mutation only the
//! transitive fanout of the change is invalidated
//! ([`cuts::CutSet::refresh`]) and stale lists are recomputed on demand.

use crate::bottomup::{candidate_cuts, gate_candidates, Build, Candidate};
use crate::common::{select_best_cut, Replacement};
use crate::FunctionalHashing;
use cuts::{Cut, CutSet};
use mig::{FfrPartition, Mig, NodeId, Signal};
use obs::Metric;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Algorithm 1, in place: walk from the outputs, replace the best legal
/// cut of each visited node by its minimum database network, recur on the
/// cut leaves (or the fanins when no profitable cut exists).
///
/// `cuts` may be carried over from a previous pass on the same graph
/// (pipeline cut-cache persistence): the entry refresh reads the dirty
/// log through the set's own cursor (never draining it — other
/// consumers keep their feeds) and re-enumerates only the invalidated
/// lists.
pub(crate) fn top_down(
    engine: &FunctionalHashing,
    mig: &mut Mig,
    cuts: &mut CutSet,
    depth_preserving: bool,
    use_ffr: bool,
) {
    cuts.refresh(mig);
    let ffr = use_ffr.then(|| FfrPartition::compute(mig));
    let mut visited: HashSet<NodeId> = HashSet::new();
    // Traversal roots, mirroring the rebuild reference: FFR region roots in
    // topological order first, then the outputs (pushed in reverse so the
    // pop order matches).
    let mut work: Vec<NodeId> = Vec::new();
    for o in mig.outputs().iter().rev() {
        work.push(o.node());
    }
    if let Some(f) = ffr.as_ref() {
        for &r in f.roots().iter().rev() {
            work.push(r);
        }
    }
    while let Some(v) = work.pop() {
        // `visited` and `work` key on slot ids. A slot freed by a later
        // replacement can be recycled for a fresh template node before
        // its pending entry is popped; the liveness check below keeps
        // that sound (a live gate is always valid to visit, a dead one is
        // skipped) — at worst a recycled, already-visited slot loses one
        // optimization look, never correctness.
        if !mig.is_gate(v) || !visited.insert(v) {
            continue;
        }
        cuts.refresh(mig);
        // The list is scored straight out of the arena (no copy).
        let list = cuts.of_updated(mig, v);
        let selected = select_best_cut(engine, mig, v, list, ffr.as_ref(), depth_preserving, |n| {
            mig.level(n)
        });
        if let Some(sel) = selected {
            let new_sig = sel.repl.instantiate(engine, mig, &sel.cut, |pos| {
                Signal::new(sel.cut.leaves()[pos], false)
            });
            if new_sig.node() != v && mig.replace_node(v, new_sig) {
                obs::metrics::add(Metric::FhReplacements, 1);
                obs::metrics::addi(Metric::FhGain, i64::from(sel.gain));
                // Skip the replaced cone entirely; continue below the cut.
                for &l in sel.cut.leaves().iter().rev() {
                    work.push(l);
                }
                continue;
            }
            // Refused: either the template reproduced `v`, or the
            // substitution would close a cycle through shared logic.
            // Retract the speculative cone right away so its fanout
            // references cannot spoil legality checks for nodes visited
            // later.
            if new_sig.node() != v {
                mig.reclaim(new_sig.node());
            }
        }
        for s in mig.fanins(v) {
            work.push(s.node());
        }
    }
    mig.sweep();
}

/// The read-only half of the bottom-up DP, hoisted out of the gate loop:
/// for every pass gate, the eligible cuts with their prepared database
/// replacements (region legality + NPN class lookup — per-gate work that
/// needs no graph mutation and records no metrics).
///
/// Hoisting is sound because the DP loop only *appends* fresh nodes
/// (`maj`/`instantiate`); no entry gate is rewired before the final
/// output reroute, so every gate's cut list and cone structure stay
/// exactly as they were at pass entry. That also makes each gate's
/// preparation a pure function of the entry graph — so the fan-out over
/// worker threads is the degenerate-barrier generalization of a
/// level-synchronous schedule (no level has to wait for the one below),
/// and the result is bit-identical at every thread count.
fn prepare_cut_choices(
    engine: &FunctionalHashing,
    mig: &Mig,
    topo: &[NodeId],
    cuts: &CutSet,
    ffr: Option<&FfrPartition>,
    threads: usize,
) -> Vec<Vec<(Cut, Replacement)>> {
    let n = topo.len();
    // Below ~2 gates per worker the scope setup outweighs the lookup work.
    if threads <= 1 || n < threads * 2 {
        return topo
            .iter()
            .map(|&v| candidate_cuts(engine, mig, cuts.of(v), ffr, v))
            .collect();
    }
    let mut slots: Vec<Vec<(Cut, Replacement)>> = vec![Vec::new(); n];
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let next = &next;
        let handles: Vec<_> = (0..threads.min(n))
            .map(|_| {
                s.spawn(move || {
                    let mut local: Vec<(usize, Vec<(Cut, Replacement)>)> = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= n {
                            break;
                        }
                        let v = topo[k];
                        local.push((k, candidate_cuts(engine, mig, cuts.of(v), ffr, v)));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            let local = h.join().expect("bottom-up prepass worker");
            for (k, choices) in local {
                slots[k] = choices;
            }
        }
    });
    slots
}

/// Algorithm 2, in place: candidates are instantiated directly into the
/// graph being optimized (structural hashing shares them with the
/// existing logic), outputs are rerouted to the best candidates, and the
/// obsolete cones are swept. `threads > 1` fans the read-only candidate
/// preparation ([`prepare_cut_choices`]) out over worker threads; the
/// materializing DP walk stays serial, and the result is bit-identical
/// at every thread count.
pub(crate) fn bottom_up(
    engine: &FunctionalHashing,
    mig: &mut Mig,
    cuts: &mut CutSet,
    use_ffr: bool,
    threads: usize,
) {
    cuts.refresh(mig);
    let ffr = use_ffr.then(|| FfrPartition::compute(mig));
    let refs: Vec<f64> = mig
        .fanout_counts()
        .iter()
        .map(|&c| f64::from(c.max(1)))
        .collect();
    let topo = mig.topo_gates();
    // Validate every pass gate's cut list up front. `of_updated`
    // recomputes lists a carried-over cut set still holds as stale;
    // mid-pass appends never invalidate them (see `prepare_cut_choices`),
    // so the workers read the lists straight out of the shared arena —
    // no per-gate copies.
    for &v in &topo {
        cuts.of_updated(mig, v);
    }
    let choices = prepare_cut_choices(engine, mig, &topo, cuts, ffr.as_ref(), threads);
    let mut cand: Vec<Vec<Candidate>> = vec![Vec::new(); mig.num_nodes()];
    // Terminals: a single zero-cost candidate (Algorithm 2, line 3).
    cand[0].push(Candidate {
        sig: Signal::ZERO,
        af: 0.0,
        depth: 0,
    });
    for i in 0..mig.num_inputs() {
        cand[i + 1].push(Candidate {
            sig: mig.input(i),
            af: 0.0,
            depth: 0,
        });
    }
    for (k, &v) in topo.iter().enumerate() {
        // Same scoring loop as the rebuild reference (`gate_candidates`);
        // the only difference is that candidates are built directly in
        // the graph being optimized, where structural hashing shares them
        // with the existing logic (the baseline usually returns `v`
        // itself when nothing below improved). The speculative nodes
        // built along the way never need cut lists of their own (`topo`
        // was captured on entry).
        let cut_choices = &choices[k];
        let fanins = mig.fanins(v);
        let list = gate_candidates(fanins, cut_choices, &cand, &refs, |req| match req {
            Build::Maj(a, b, c) => mig.maj(a, b, c),
            Build::Template(repl, cut, chosen) => {
                repl.instantiate(engine, mig, cut, |pos| chosen[pos].sig)
            }
        });
        cand[v as usize] = list;
    }
    // Line 14: reroute each output to its best candidate, then reclaim
    // every cone that lost its last reference. Only committed reroutes
    // count as replacements (speculative candidate instantiations are
    // not observable in the result); a round with zero reroutes leaves
    // the graph exactly as it was after the sweep, which is what the
    // serial convergence loop keys its fixpoint test on.
    for i in 0..mig.num_outputs() {
        let o = mig.outputs()[i];
        let best = cand[o.node() as usize][0];
        let s = best.sig.complement_if(o.is_complemented());
        if s != o {
            mig.set_output(i, s);
            obs::metrics::add(Metric::FhReplacements, 1);
        }
    }
    mig.sweep();
}

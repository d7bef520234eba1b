//! In-place algebraic rewriting: the same Ω.A/Ω.D moves as the rebuild
//! reference engines, but executed as local substitutions on the managed
//! [`Mig`] network.
//!
//! Every move is a *local candidate*: a read-only pattern match over one
//! gate, its fanins and — for depth moves — its grandchildren, followed
//! by a speculative construction of the replacement cone and a commit
//! through [`Mig::replace_node`]. The sweeps reproduce the rebuild
//! reference's *decisions*:
//!
//! * size sweeps match the live structure in topological order (the
//!   rebuild size pass decides on the graph under construction, which
//!   the managed network *is*);
//! * depth sweeps run in *reverse* topological order, so every match
//!   sees the untouched sweep-start state of its cone (the rebuild
//!   engine's old-graph criticality analysis) with the incrementally
//!   maintained levels standing in for the old level map, while
//!   `replace_node`'s automatic fanout rewiring compounds the moves
//!   upward.
//!
//! What changes is the *cost*: unchanged logic is never touched (no
//! reconstruction, structural hashing simply finds the existing nodes),
//! a committed move costs O(affected region) through `replace_node`, and
//! the convergence loops re-scan only *affected cones* — the
//! structural-change log (read without draining it, so a pipeline's
//! carried cut set keeps its invalidation feed) seeds the set of gates
//! whose transitive fanout could have gained a new move, and a final
//! full sweep confirms the fixpoint.
//!
//! Levels: both sweeps run inside [`Mig::with_deferred_levels`], so a
//! committed move lowers only the gates it rewires and the scope settles
//! the rest once, when the sweep ends. Size moves read no level. A depth
//! move reads the levels of its gate's fanin cone, which no earlier move
//! of the sweep touched (see [`depth_sweep`]), so those levels are exact
//! without settling — except at a recycled slot, which the sweep
//! settles first. Every decision is the one eager upkeep would make.
//!
//! Safety is layered on top of liberal, rebuild-parity moves: every
//! public sweep runs guarded — size sweeps roll back when they end
//! `(gates, depth)`-worse, depth sweeps when they end
//! `(depth, gates)`-worse — so the passes are never worse than their
//! input no matter what the individual moves did.

use crate::{script_metric, AlgStats};
use mig::{Mig, NodeId, Signal};
use std::collections::HashSet;

/// A matched Ω.D right-to-left merge: `<G1 G2 z>` with `G1 = <x y u>`,
/// `G2 = <x y v>` (plain polarity, sharing exactly the two operands
/// `shared`), rewritten to `<x y <u v z>>`.
struct SizeMove {
    shared: [Signal; 2],
    u: Signal,
    v: Signal,
    z: Signal,
}

/// Scans gate `g` for a size merge. Read-only; mirrors the rebuild
/// engine's pattern and operand-pair scan order so both engines pick the
/// same move. Like the rebuild reference, the match is *liberal*: it
/// fires even when the merged pair is shared (the net profit of such
/// merges comes from structural-hash sharing across the whole sweep, not
/// from the single site), so the never-worse guarantee lives at the
/// sweep level ([`size_rewrite`] rolls back a sweep that ends
/// lexicographically worse).
fn match_size_move(mig: &Mig, g: NodeId) -> Option<SizeMove> {
    let ops = mig.fanins(g);
    for i in 0..3 {
        for j in 0..3 {
            if i == j {
                continue;
            }
            let (s1, s2) = (ops[i], ops[j]);
            let z = ops[3 - i - j];
            if s1.is_complemented() || s2.is_complemented() {
                continue;
            }
            if !mig.is_gate(s1.node()) || !mig.is_gate(s2.node()) {
                continue;
            }
            let f1 = mig.fanins(s1.node());
            let f2 = mig.fanins(s2.node());
            let shared: Vec<Signal> = f1.iter().copied().filter(|s| f2.contains(s)).collect();
            if shared.len() == 2 {
                let u = *f1
                    .iter()
                    .find(|s| !shared.contains(s))
                    .expect("third operand");
                let v = *f2
                    .iter()
                    .find(|s| !shared.contains(s))
                    .expect("third operand");
                return Some(SizeMove {
                    shared: [shared[0], shared[1]],
                    u,
                    v,
                    z,
                });
            }
        }
    }
    None
}

/// Matches the size merge at `g` against the live graph, builds the
/// merged cone and commits it via [`Mig::replace_node`]. Nothing is
/// changed when no merge applies or the substitution is refused (the
/// root reproduced itself, or a cycle through shared logic). A committed
/// merge records into the metric registry, the single source of truth
/// the stats structs are reconstructed from.
fn apply_size_move(mig: &mut Mig, g: NodeId) {
    let Some(mv) = match_size_move(mig, g) else {
        return;
    };
    let inner = mig.maj(mv.u, mv.v, mv.z);
    let new = mig.maj(mv.shared[0], mv.shared[1], inner);
    if new.node() == g {
        // Structural hashing reproduced the root; nothing to merge (only
        // possible when `inner` aliased an existing referenced node, so
        // there is no speculative cone to retract).
        return;
    }
    if mig.replace_node(g, new) {
        obs::metrics::add(obs::Metric::AlgMerges, 1);
    } else {
        // Cycle through shared logic: retract the speculative cone.
        mig.reclaim(new.node());
    }
}

/// A matched depth move at a gate whose unique deepest operand is a
/// plain inner gate with deepest own operand `z`. All signals are
/// already translated to the live graph.
enum DepthMove {
    /// Ω.A: `<x u <y u z>> = <z u <y u x>>` — swap the late-arriving `z`
    /// with the early outer operand `x` through the shared operand `u`.
    Assoc {
        x: Signal,
        y: Signal,
        u: Signal,
        z: Signal,
    },
    /// Ω.D left-to-right: `<x y <u v z>> = <<x y u> <x y v> z>` — pull
    /// `z` one level up at the cost of one node.
    Distrib {
        outer: [Signal; 2],
        rest: [Signal; 2],
        z: Signal,
    },
}

/// Selects the unique critical operand of a gate for a depth move: the
/// single deepest operand under `level`, a plain (uncomplemented) gate
/// per `is_gate`, at level >= 2. Returns its operand index. This is the
/// analysis-graph half of the rebuild engine's pattern match.
fn select_critical(
    ops: [Signal; 3],
    level: &dyn Fn(NodeId) -> u32,
    is_gate: &dyn Fn(NodeId) -> bool,
) -> Option<usize> {
    let lvls = ops.map(|s| level(s.node()));
    let maxl = *lvls.iter().max().expect("three operands");
    if maxl < 2 {
        return None;
    }
    let critical: Vec<usize> = (0..3).filter(|&i| lvls[i] == maxl).collect();
    if critical.len() != 1 {
        return None;
    }
    let ci = critical[0];
    let inner = ops[ci];
    if inner.is_complemented() || !is_gate(inner.node()) {
        return None;
    }
    Some(ci)
}

/// Plans the depth move over *live* operand signals: `outer` are the two
/// non-critical operands of the root, `inner_ops` the three operands of
/// the critical inner gate, `live_level` the levels of the graph being
/// mutated (the rebuild engine's levels of the graph under
/// construction). Mirrors the rebuild engine's conditions exactly.
fn plan_depth_move(
    outer: [Signal; 2],
    inner_ops: [Signal; 3],
    live_level: &dyn Fn(NodeId) -> u32,
) -> Option<DepthMove> {
    // The critical grandchild: deepest translated operand of the inner
    // gate.
    let zi = (0..3)
        .max_by_key(|&i| live_level(inner_ops[i].node()))
        .expect("three operands");
    let z = inner_ops[zi];
    let rest: Vec<Signal> = (0..3).filter(|&i| i != zi).map(|i| inner_ops[i]).collect();
    let z_lvl = live_level(z.node());
    // Ω.A: the inner gate shares an operand u with the outer gate; swap z
    // with the other outer operand x when that flattens the path.
    for (ui, &u) in outer.iter().enumerate() {
        if rest.contains(&u) {
            let x = outer[1 - ui];
            let y = *rest.iter().find(|&&s| s != u).unwrap_or(&rest[0]);
            if live_level(x.node()) + 1 < z_lvl {
                return Some(DepthMove::Assoc { x, y, u, z });
            }
            break;
        }
    }
    // Ω.D L→R: both outer operands and both non-critical inner operands
    // arrive early enough to absorb the extra level.
    let early = outer.iter().all(|&s| live_level(s.node()) + 1 < z_lvl)
        && rest.iter().all(|&s| live_level(s.node()) + 1 < z_lvl);
    if early {
        return Some(DepthMove::Distrib {
            outer,
            rest: [rest[0], rest[1]],
            z,
        });
    }
    None
}

/// The depth-move pattern match against the live graph only (analysis =
/// target): the depth sweep visits a gate before its fanin cone changes,
/// so the live graph *is* the sweep-start graph there.
fn match_depth_move_live(mig: &Mig, g: NodeId) -> Option<DepthMove> {
    let ops = mig.fanins(g);
    let ci = select_critical(ops, &|n| mig.level(n), &|n| mig.is_gate(n))?;
    let inner = ops[ci].node();
    let outer: Vec<Signal> = (0..3).filter(|&i| i != ci).map(|i| ops[i]).collect();
    plan_depth_move([outer[0], outer[1]], mig.fanins(inner), &|n| mig.level(n))
}

/// Builds the replacement cone of a depth move and commits it via
/// [`Mig::replace_node`]. Nothing is changed when the substitution is
/// refused (the root reproduced itself, the root's live level would
/// degrade, or a cycle through shared logic).
fn commit_depth_move(mig: &mut Mig, g: NodeId, mv: DepthMove) {
    let old_level = mig.level(g);
    let (new, is_assoc) = match mv {
        DepthMove::Assoc { x, y, u, z } => {
            let i2 = mig.maj(y, u, x);
            (mig.maj(z, u, i2), true)
        }
        DepthMove::Distrib { outer, rest, z } => {
            let g1 = mig.maj(outer[0], outer[1], rest[0]);
            let g2 = mig.maj(outer[0], outer[1], rest[1]);
            (mig.maj(g1, g2, z), false)
        }
    };
    if new.node() == g {
        return;
    }
    if mig.level(new.node()) > old_level || !mig.replace_node(g, new) {
        // The root's level would degrade (tie-breaking collisions), or a
        // cycle through shared logic: retract the speculative cone.
        mig.reclaim(new.node());
        return;
    }
    if is_assoc {
        obs::metrics::add(obs::Metric::AlgAssocMoves, 1);
    } else {
        obs::metrics::add(obs::Metric::AlgDistribMoves, 1);
    }
}

/// The two move families of the algebraic flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Family {
    /// Ω.D right-to-left merges.
    Size,
    /// Ω.A / Ω.D left-to-right critical-path moves.
    Depth,
}

/// One sweep over the live gates (topological order), trying the
/// family's move on each. `targets` restricts the sweep to an
/// affected-cone set (`None` = every gate). Dangling roots are skipped
/// (they are reclaimed by the final sweep, not optimized). Level
/// decreases are deferred to the end of the sweep (module docs), so
/// the levels are exact again when it returns.
fn sweep(mig: &mut Mig, targets: Option<&HashSet<NodeId>>, family: Family) {
    mig.with_deferred_levels(|mig| match family {
        Family::Size => size_sweep(mig, targets),
        Family::Depth => depth_sweep(mig, targets),
    });
}

fn size_sweep(mig: &mut Mig, targets: Option<&HashSet<NodeId>>) {
    let topo = mig.topo_gates();
    for v in topo {
        if !mig.is_gate(v) || mig.fanout_count(v) == 0 {
            continue;
        }
        if let Some(t) = targets {
            if !t.contains(&v) {
                continue;
            }
        }
        apply_size_move(mig, v);
    }
    mig.sweep();
}

/// The depth sweep: processes the live gates in *reverse* topological
/// order (outputs first). Visiting a gate before any of its fanin cone
/// means every pattern match runs against the untouched, sweep-start
/// state of that cone — the rebuild engine's old-graph analysis — while
/// [`Mig::replace_node`]'s automatic fanout rewiring compounds the
/// moves: when a deeper gate later moves too, the already-restructured
/// ancestors are rewired onto its replacement for free. A gate whose
/// cone was subsumed by an earlier (higher) move simply dies and is
/// skipped. This is what halves a ripple chain's depth per sweep,
/// exactly like one rebuild pass, at in-place cost.
///
/// The same order keeps deferred levels harmless: an earlier move
/// rewired only its own gate's fanout, never the fanin cone of a gate
/// still to come, so the levels a match reads there are exact. The one
/// exception is a *recycled slot*: a slot freed and reused for a new
/// gate since the sweep began. The gate there is not the one the order
/// was computed for, and its cone may hold deferred decreases, so the
/// sweep settles them first ([`Mig::settle_levels_for`]).
fn depth_sweep(mig: &mut Mig, targets: Option<&HashSet<NodeId>>) {
    let topo = mig.topo_gates();
    let generations: Vec<u32> = topo.iter().map(|&v| mig.slot_generation(v)).collect();
    for (&v, &generation) in topo.iter().zip(&generations).rev() {
        if !mig.is_gate(v) || mig.fanout_count(v) == 0 {
            continue;
        }
        if let Some(t) = targets {
            if !t.contains(&v) {
                continue;
            }
        }
        if mig.slot_generation(v) != generation {
            mig.settle_levels_for(v);
        }
        if let Some(mv) = match_depth_move_live(mig, v) {
            commit_depth_move(mig, v, mv);
        }
    }
    mig.sweep();
}

/// The depth script's acceptance metric: `(depth, gates)`, compared
/// lexicographically — a depth sweep may spend gates for levels, but a
/// sweep that fails to pay for itself is rolled back.
pub(crate) fn depth_metric(mig: &Mig) -> (u64, u64) {
    (u64::from(mig.depth()), mig.num_gates() as u64)
}

/// Runs one guarded sweep: `metric` is evaluated before and after, and a
/// sweep that ends *strictly worse* is rolled back (equal is kept —
/// lateral restructuring feeds later passes, as in the rebuild script).
/// Returns the stats of the kept sweep (zero when rolled back).
fn guarded_sweep(mig: &mut Mig, family: Family, metric: fn(&Mig) -> (u64, u64)) -> AlgStats {
    let before = metric(mig);
    let snapshot = mig.clone();
    let ((), delta) = obs::metrics::scoped(|| sweep(mig, None, family));
    if metric(mig) > before {
        *mig = snapshot;
        // The undone moves' outcome counters vanish with the rollback;
        // event history (profiling totals) remains true work done.
        delta.publish_history();
        return AlgStats::default();
    }
    delta.publish();
    AlgStats::from_delta(&delta)
}

/// One in-place size-rewriting sweep (Ω.D right-to-left; the `size`
/// pipeline pass). Merges are applied liberally (rebuild parity — the
/// profit of merging shared pairs comes from structural-hash sharing
/// across the sweep), and the whole sweep is rolled back if it ends
/// `(gates, depth)`-worse, so the result is never worse than the input.
/// Functionality is preserved.
pub fn size_rewrite(mig: &mut Mig) -> AlgStats {
    guarded_sweep(mig, Family::Size, script_metric)
}

/// One in-place depth-rewriting sweep (Ω.A / Ω.D left-to-right on gates
/// with a unique critical operand; the `depth` pipeline pass): no
/// committed move raises its root's live level, and the sweep is rolled
/// back if it ends `(depth, gates)`-worse, so the result never has more
/// depth than the input (gates may grow — Ω.D trades one node for one
/// level, as in the paper's depth script).
pub fn depth_rewrite(mig: &mut Mig) -> AlgStats {
    guarded_sweep(mig, Family::Depth, depth_metric)
}

/// The gates whose move opportunities could have changed: the changed
/// nodes themselves plus their transitive fanout (level changes propagate
/// only upward, and a pattern reads at most two levels of fanin, which a
/// structural change covers through the fanout of the changed node).
fn affected_cone(mig: &Mig, dirty: &[NodeId]) -> HashSet<NodeId> {
    let mut set = HashSet::new();
    let mut stack: Vec<NodeId> = dirty.to_vec();
    while let Some(v) = stack.pop() {
        if !set.insert(v) {
            continue;
        }
        for p in mig.fanout_gates(v) {
            stack.push(p);
        }
    }
    set
}

/// Backstop on the convergence loop's rounds: improving rounds shrink
/// the guarded metric, so this is never the expected exit.
const MAX_ROUNDS: usize = 50;

/// The convergence loop behind [`crate::size_converge`] and
/// [`crate::depth_converge`]: sweeps to a fixpoint, re-scanning only the
/// affected cones of the previous sweep's changes (seeded from the
/// structural-change log, which is *peeked*, not drained — a pipeline's
/// carried cut set keeps its invalidation feed). Incremental rounds that
/// find nothing are confirmed by one full sweep. A round that fails to
/// strictly improve `guard` is rolled back and ends the loop — the
/// never-worse guarantee, and what bounds lateral-move churn. The rounds
/// run are recorded as `alg.converge_rounds` and returned.
pub(crate) fn converge(
    mig: &mut Mig,
    family: Family,
    guard: fn(&Mig) -> (u64, u64),
) -> (AlgStats, usize) {
    let mut rounds = 0;
    let mut targets: Option<HashSet<NodeId>> = None;
    let ((), delta) = obs::metrics::scoped(|| {
        while rounds < MAX_ROUNDS {
            let before = guard(mig);
            let snapshot = mig.clone();
            let mark = mig.dirty_cursor();
            // Per-round scope: a kept round publishes everything, a
            // fruitless or rolled-back round keeps only event history.
            let ((), round) = obs::metrics::scoped(|| sweep(mig, targets.as_ref(), family));
            rounds += 1;
            let stats = AlgStats::from_delta(&round);
            if stats.total() == 0 {
                round.publish_history();
                if targets.is_none() {
                    break; // a full sweep found nothing: true fixpoint
                }
                targets = None; // confirm the incremental fixpoint fully
                continue;
            }
            if guard(mig) >= before {
                *mig = snapshot;
                round.publish_history();
                if targets.is_none() {
                    break;
                }
                // A targeted round went stale without paying off; confirm
                // the fixpoint with a full sweep before giving up.
                targets = None;
                continue;
            }
            round.publish();
            match mig.dirty_since(mark) {
                Some(dirty) => {
                    let dirty: Vec<NodeId> = dirty.to_vec();
                    targets = Some(affected_cone(mig, &dirty));
                }
                // The log was drained under us (cannot happen from inside
                // a sweep; defensive): fall back to a full re-scan.
                None => targets = None,
            }
        }
    });
    delta.publish();
    obs::metrics::add(obs::Metric::AlgRounds, rounds as u64);
    (AlgStats::from_delta(&delta), rounds)
}

/// One optimization-script round of [`crate::optimize`]: a size sweep,
/// a depth sweep, stage selection and round acceptance — all by the
/// shared lexicographic `(gates, depth)` metric ([`script_metric`]), the
/// same convergence rule as the rebuild reference. Returns whether the
/// kept round discarded its depth stage, or `None` when the round failed
/// to improve and was rolled back.
///
/// `depth_lost` says that the previous round was kept with its depth
/// stage discarded. A size stage that then commits no move leaves that
/// round's graph, so the depth stage would be discarded again and the
/// round rolled back: the round is rolled back at once, without running
/// the depth stage.
pub(crate) fn script_round(mig: &mut Mig, depth_lost: bool) -> Option<bool> {
    let before = script_metric(mig);
    let snapshot = mig.clone();
    let (size_stats, size_d) = {
        let _span = obs::trace::span("alg:size_stage");
        obs::metrics::scoped(|| size_rewrite(mig))
    };
    if depth_lost && size_stats.total() == 0 {
        *mig = snapshot;
        size_d.publish_history();
        return None;
    }
    let mid_metric = script_metric(mig);
    let mid = mig.clone();
    let (_, depth_d) = {
        let _span = obs::trace::span("alg:depth_stage");
        obs::metrics::scoped(|| depth_rewrite(mig))
    };
    // Stage selection mirrors the rebuild script: keep the depth stage
    // only when it is lexicographically no worse. Discarded stages and
    // rolled-back rounds keep only their event history in the registry.
    let mut round = size_d;
    let depth_discarded = script_metric(mig) > mid_metric;
    if depth_discarded {
        *mig = mid;
        depth_d.publish_history();
    } else {
        round.merge(&depth_d);
    }
    if script_metric(mig) >= before {
        *mig = snapshot;
        round.publish_history();
        return None;
    }
    round.publish();
    Some(depth_discarded)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `gen_bench ctrl:8:6:150:7`: the control instance, AND-expanded.
    fn ctrl() -> Mig {
        aig::to_mig(&aig::from_mig(&benchgen::random_control(8, 6, 150, 7)))
    }

    /// Runs one sweep of `family` with eager level upkeep and with
    /// deferred levels; both must make the same moves and netlist.
    /// Returns the eager result and the deferred run's settle count.
    fn eager_and_deferred(mig: &Mig, family: Family) -> (Mig, u64) {
        let mut eager = mig.clone();
        let mut deferred = mig.clone();
        let ((), e) = obs::metrics::scoped(|| match family {
            Family::Size => size_sweep(&mut eager, None),
            Family::Depth => depth_sweep(&mut eager, None),
        });
        let ((), d) = obs::metrics::scoped(|| sweep(&mut deferred, None, family));
        let moves = AlgStats::from_delta(&d);
        assert!(moves.total() > 0, "{family:?}: the sweep moved nothing");
        assert_eq!(moves, AlgStats::from_delta(&e), "{family:?}");
        assert_eq!(deferred.fingerprint(), eager.fingerprint(), "{family:?}");
        assert_eq!(deferred.levels(), eager.levels(), "{family:?}: unsettled");
        assert_eq!(e.get(obs::Metric::MigLevelSettles), 0);
        (eager, d.get(obs::Metric::MigLevelSettles))
    }

    #[test]
    fn deferred_sweeps_make_the_eager_decisions() {
        // The first script round on the control instance: a size sweep,
        // then a depth sweep that frees slots and reuses them for new
        // gates. Without the recycled-slot settle, that depth sweep reads
        // stale levels there and makes one more distributivity move.
        let (sized, settles) = eager_and_deferred(&ctrl(), Family::Size);
        assert_eq!(settles, 1, "the scope's end");
        let (_, settles) = eager_and_deferred(&sized, Family::Depth);
        // One settle ends the scope; the others ran at recycled slots.
        assert!(settles >= 2, "{settles} settles");
    }
}

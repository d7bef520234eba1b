//! Sharded algebraic rewriting: the Ω.A/Ω.D moves as proposals on the
//! engine-agnostic event-driven convergence scheduler
//! ([`mig::ProposeEngine`] / [`mig::run_scheduler`]).
//!
//! Workers scan their region's gates read-only for size merges or depth
//! moves over the frozen step snapshot; the serial commit phase
//! *re-derives* each move against the live graph (the move matchers are
//! the legality recheck: operand identities and — for depth moves — the
//! non-degrading level bound are all evaluated on live state), so a
//! proposal whose neighborhood drifted is refused and its region
//! retried next step. Because the recheck is total, the engine tolerates
//! a partition that lags the graph by the scheduler's re-partition
//! threshold — dirty regions are re-proposed from the priority queue,
//! clean regions are never touched again.
//!
//! Guarantees, mirroring the serial engines:
//!
//! * **size** steps run under the `(gates, depth)` lexicographic guard
//!   (merges are liberal — their profit comes from cross-sweep strash
//!   sharing — so a step is kept only when it nets out smaller);
//! * **depth** steps run under a `(depth, gates)` lexicographic guard —
//!   committed moves can spend gates, and a step that fails to improve
//!   is rolled back, so sharded depth scripts are depth-monotone;
//! * results are bit-deterministic for a fixed input and thread count
//!   (scheduler property), and graphs too small to shard degenerate to
//!   the serial sweeps.
//!
//! The serial-fallback / polish structure is the shared
//! [`mig::run_scheduled_converge`] skeleton (the same one the
//! functional-hashing engines drive): after the scheduler reaches
//! quiescence a serial polish pass runs to its own fixpoint, recovering
//! moves that span region boundaries.

use crate::inplace::{
    commit_depth_move, commit_size_move, converge, depth_metric, match_depth_move_live,
    match_size_move, Family,
};
use crate::{script_metric, AlgStats};
use mig::{
    run_scheduled_converge, CommitVerdict, Mig, NodeId, PartitionStrategy, ProposeEngine,
    RegionPartition, ShardConfig,
};
use std::collections::HashSet;

struct AlgEngine {
    family: Family,
}

/// The move kind a proposal was derived as. The commit phase refuses a
/// proposal whose live re-derivation lands on a *different* kind
/// (Conflicted — the region re-proposes from fresh analysis), so the
/// driver's per-kind gain attribution of kept steps is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MoveKind {
    Merge,
    Assoc,
    Distrib,
}

impl MoveKind {
    fn of_depth(mv: &crate::inplace::DepthMove) -> MoveKind {
        match mv {
            crate::inplace::DepthMove::Assoc { .. } => MoveKind::Assoc,
            crate::inplace::DepthMove::Distrib { .. } => MoveKind::Distrib,
        }
    }
}

struct AlgProposal {
    root: NodeId,
    kind: MoveKind,
    /// Step-start nodes the analysis depends on: the root and the
    /// involved fanin gate(s). Operand *levels* can drift without
    /// touching the footprint; the commit-side re-derivation catches
    /// that.
    footprint: Vec<NodeId>,
    /// Expected gate-count gain: 1 for a merge, 0 for Ω.A, -1 for Ω.D.
    gain: i64,
}

impl ProposeEngine for AlgEngine {
    type Proposal = AlgProposal;
    type RoundState = ();

    fn partition(&self, mig: &Mig, max_regions: usize) -> (RegionPartition, ()) {
        // Level bands: algebraic moves carry no fanout-free restriction,
        // and a band keeps a gate together with its fanins/grandchildren
        // more often than an FFR packing would. The partition persists
        // across steps (the commit-time re-derivation makes stale member
        // lists harmless — dead members are skipped, new nodes queue as
        // staleness toward the scheduler's re-partition threshold).
        let p = RegionPartition::compute(mig, PartitionStrategy::LevelBands { max_regions });
        (p, ())
    }

    fn propose(
        &self,
        mig: &Mig,
        partition: &RegionPartition,
        _state: &(),
        region: u32,
    ) -> Vec<AlgProposal> {
        let mut props = Vec::new();
        let mut claimed: HashSet<NodeId> = HashSet::new();
        // Topmost members first, matching the driver's descending commit
        // order across regions.
        for &v in partition.members(region).iter().rev() {
            if claimed.contains(&v) || !mig.is_gate(v) || mig.fanout_count(v) == 0 {
                continue;
            }
            let prop = match self.family {
                Family::Size => match_size_move(mig, v).map(|mv| AlgProposal {
                    root: v,
                    kind: MoveKind::Merge,
                    footprint: vec![v, mv.g1, mv.g2],
                    gain: 1,
                }),
                // The frozen step snapshot plays the role of the serial
                // sweep's level snapshot: propose against its levels.
                Family::Depth => match_depth_move_live(mig, v).map(|(mv, inner)| AlgProposal {
                    root: v,
                    kind: MoveKind::of_depth(&mv),
                    footprint: vec![v, inner],
                    gain: match mv {
                        crate::inplace::DepthMove::Assoc { .. } => 0,
                        crate::inplace::DepthMove::Distrib { .. } => -1,
                    },
                }),
            };
            if let Some(p) = prop {
                claimed.extend(p.footprint.iter().copied());
                props.push(p);
            }
        }
        props
    }

    fn footprint<'a>(&self, p: &'a AlgProposal) -> &'a [NodeId] {
        &p.footprint
    }

    fn gain(&self, p: &AlgProposal) -> i64 {
        p.gain
    }

    fn commit(&self, mig: &mut Mig, p: &AlgProposal) -> CommitVerdict {
        if !mig.is_gate(p.root) {
            return CommitVerdict::Conflicted;
        }
        // Re-derive against the live graph: a vanished pattern or a
        // kind flip means the neighborhood drifted (Conflicted — the
        // region retries from fresh analysis), while a refused
        // substitution (cycle through shared logic, reproduced root,
        // degraded level) would refuse again (Rejected). Committed moves
        // record their `alg.*` counters into the step's metric scope,
        // which the scheduler drops back to event history if the step's
        // guard rolls it back — rollback semantics are uniform with the
        // serial sweeps by construction.
        let applied = match self.family {
            Family::Size => {
                let Some(mv) = match_size_move(mig, p.root) else {
                    return CommitVerdict::Conflicted;
                };
                commit_size_move(mig, p.root, mv)
            }
            Family::Depth => {
                let Some((mv, _inner)) = match_depth_move_live(mig, p.root) else {
                    return CommitVerdict::Conflicted;
                };
                if MoveKind::of_depth(&mv) != p.kind {
                    return CommitVerdict::Conflicted;
                }
                commit_depth_move(mig, p.root, mv).is_some()
            }
        };
        if applied {
            CommitVerdict::Applied { replacements: 1 }
        } else {
            CommitVerdict::Rejected
        }
    }
}

/// [`crate::size_converge`] / [`crate::depth_converge`] backend: the
/// event-driven converge stage on the shared scheduler skeleton. Graphs
/// too small to shard run the serial convergence loop alone (the
/// degenerate case, bit-identical to the historical serial drivers).
/// Larger graphs run the serial loop first as the quality floor (its
/// sweeps are individually guarded, so it can never worsen — and the
/// sweep schedule matters for depth chains, where the reverse-topo
/// serial order reaches optima region proposals can miss), then
/// scheduler steps over dirty regions to quiescence, then a serial
/// polish to confirm the fixpoint across region boundaries; every stage
/// is guarded under the family metric, so the result is provably never
/// worse than the round-based serial driver. Applied-move counters come
/// straight from the metric registry: scheduler commits and serial
/// sweeps record the same `alg.*` counters at the move-commit sites, so
/// the per-kind attribution needs no arithmetic over driver totals.
pub(crate) fn converge_threads(
    mig: &mut Mig,
    max_rounds: usize,
    depth: bool,
    threads: usize,
) -> (AlgStats, usize) {
    let family = if depth { Family::Depth } else { Family::Size };
    let guard = match family {
        Family::Size => script_metric as fn(&Mig) -> (u64, u64),
        Family::Depth => depth_metric as fn(&Mig) -> (u64, u64),
    };
    let mut cfg = ShardConfig::new(threads);
    cfg.max_rounds = max_rounds;
    // Both families run guarded: merges are liberal (their profit comes
    // from cross-sweep strash sharing), so a step is kept only when it
    // improves the family's lexicographic metric.
    cfg.guard = Some(guard);
    let engine = AlgEngine { family };
    let mut serial_rounds = 0usize;
    let mut driver_rounds = 0usize;
    let ((), delta) = obs::metrics::scoped(|| {
        // Quality-floor baseline: the serial convergence loop (its
        // sweeps are individually guarded, so it can never worsen).
        let ran_baseline = cfg.shardable(mig);
        if ran_baseline {
            let (_, rounds) = converge(mig, max_rounds, family, guard);
            serial_rounds += rounds;
        }
        if ran_baseline && !cfg.shardable(mig) {
            // The baseline shrank the graph below the shard threshold:
            // it is already at the serial fixpoint, so the helper's
            // serial fallback would only re-confirm it at full-sweep
            // cost.
            return;
        }
        let mut serial = |m: &mut Mig| -> (u64, i64) {
            let (stats, rounds) = converge(m, max_rounds, family, guard);
            serial_rounds += rounds;
            (stats.total(), 0)
        };
        let driver = run_scheduled_converge(mig, &engine, &cfg, &mut serial, None, true);
        driver_rounds = driver.rounds;
    });
    delta.publish();
    let rounds = driver_rounds + serial_rounds;
    obs::metrics::add(obs::Metric::AlgRounds, rounds as u64);
    (AlgStats::from_delta(&delta), rounds)
}

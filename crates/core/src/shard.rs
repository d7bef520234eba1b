//! Sharded in-place functional hashing on the engine-agnostic
//! event-driven convergence scheduler ([`mig::ProposeEngine`]).
//!
//! The functional-hashing flow is local — a replacement touches a cut's
//! cone and its fanout frontier — so the analysis (NPN canonization,
//! database lookup, candidate scoring) runs concurrently over a *frozen*
//! graph while the mutations (the actual `replace_node` substitutions)
//! and the upkeep of the cut lists they stale stay serial. The
//! scheduling — persistent partition with
//! drift-triggered re-partition, the priority queue of dirty regions,
//! parallel propose, serial deterministic commit with footprint-conflict
//! resolution, stale-region retry — lives in
//! [`mig::run_scheduled_converge`]; this module plugs in two engines:
//!
//! * [`CutEngine`] (the top-down variants): per gate, the best legal
//!   database replacement selected from one graph-wide [`CutSet`] — the
//!   lists the serial pass reads. The set is **carried across steps**:
//!   before each propose phase the committing thread refreshes it
//!   through its own dirty-log cursor and re-enumerates only the lists
//!   the last commits staled (everything after a compaction), so the
//!   workers only score. Commit re-checks fanout legality
//!   (strash inside an earlier commit can resurrect a shared node
//!   without dirtying it) and, for the depth-preserving variants, the
//!   level bound against live levels, settling the deferred level
//!   decreases in the root's cone first. The FFR legality view may lag
//!   the graph by up to the re-partition threshold; the commit-time
//!   fanout recheck keeps every replacement sound regardless.
//! * [`RegionEngine`] (the bottom-up variants): the region is extracted
//!   into a standalone MIG, optimized with the serial engine, and the
//!   boundary gates are rerouted onto the optimized implementation.
//!   Extraction needs a coherent member view, so the engine declares its
//!   partition volatile (rebuilt per step). The bottom-up candidate DP
//!   is global, so the scheduler runs inside the shared
//!   baseline/refine/polish skeleton ([`mig::run_scheduled_converge`]):
//!   one guarded serial pass up front, shrink-only scheduler refinement,
//!   serial polish at the end — never worse than the serial engine on
//!   any input.
//!
//! Determinism: a fixed input gives one bit-identical netlist at every
//! thread count (a scheduler property — the partition, the queue order
//! and the commit order read the graph alone, never the workers).

use crate::common::{cut_is_fanout_legal, internal_nodes, select_best_cut, Replacement};
use crate::{FhStats, FunctionalHashing, Variant, ALLOWED_DEPTH_INCREASE};
use cuts::{enumerate_cuts, Cut, CutConfig, CutSet};
use mig::{
    gates_metric, run_scheduled_converge, CommitVerdict, FfrPartition, Mig, NodeId,
    PartitionStrategy, Proposal, ProposeEngine, RegionPartition, RoundMetric, ShardConfig, Signal,
};
use std::collections::{HashMap, HashSet};

/// A top-down proposal: substitute `root` by the instantiation of the
/// database template `repl` over the leaves of `cut`. Its footprint is
/// the cut's internal cone plus its non-terminal leaves; its gain is the
/// template's estimate (always >= 1).
struct CutPayload {
    root: NodeId,
    cut: Cut,
    repl: Replacement,
    /// The cut's internal cone (root first); re-checked for fanout
    /// legality against the live graph at commit time.
    internal: Vec<NodeId>,
}

/// A bottom-up proposal: reroute each of the region's `boundary` gates to
/// the corresponding output of `sub`, an optimized standalone rebuild of
/// the region over the external `inputs`. Its footprint is the region's
/// members plus its non-terminal inputs; its gain is the gates saved.
struct RegionPayload {
    sub: Mig,
    inputs: Vec<NodeId>,
    boundary: Vec<NodeId>,
}

/// Top-down propose engine: database cut replacements scored from one
/// graph-wide cut set.
struct CutEngine<'e> {
    engine: &'e FunctionalHashing,
    depth_preserving: bool,
    use_ffr: bool,
    /// The cut lists of every live gate, enumerated by the first
    /// [`ProposeEngine::prepare`] and kept up to date by the later ones;
    /// the propose workers only read it.
    cuts: Option<CutSet>,
}

impl ProposeEngine for CutEngine<'_> {
    type Payload = CutPayload;
    type RoundState = Option<FfrPartition>;

    fn partition(&self, mig: &Mig, max_regions: usize) -> (RegionPartition, Option<FfrPartition>) {
        // The FFR view doubles as the §IV-C legality restriction. Both
        // it and the region partition persist until the scheduler's
        // drift threshold fires; in between, nodes created by commits
        // map to their own (foreign) FFR, so a lagging view can only
        // skip a cut, never admit an illegal one — and fanout legality
        // is re-checked live at commit time either way.
        if self.use_ffr {
            let f = FfrPartition::compute(mig);
            let p = RegionPartition::from_ffr(mig, &f, max_regions);
            (p, Some(f))
        } else {
            let p = RegionPartition::compute(mig, PartitionStrategy::LevelBands { max_regions });
            (p, None)
        }
    }

    /// Brings every live gate's list up to date: the refresh stales what
    /// the commits since the last call touched (all of it after a
    /// compaction, whose log gap the set's cursor sees), and the
    /// topological walk re-enumerates exactly the stale lists.
    fn prepare(&mut self, mig: &Mig) {
        let Some(cuts) = &mut self.cuts else {
            self.cuts = Some(enumerate_cuts(mig, &CutConfig::default()));
            return;
        };
        cuts.refresh(mig);
        for &g in mig.topo_gates_shared().iter() {
            cuts.of_updated(mig, g);
        }
    }

    /// Top-down proposals for one region: best legal database replacement
    /// per member gate, topmost first, with the region's earlier
    /// proposals' cones excluded (a worker's own proposals never
    /// overlap).
    fn propose(
        &self,
        mig: &Mig,
        partition: &RegionPartition,
        ffr: &Option<FfrPartition>,
        region: u32,
    ) -> Vec<Proposal<CutPayload>> {
        let cuts = self.cuts.as_ref().expect("prepare runs before propose");
        let mut props = Vec::new();
        let mut claimed: HashSet<NodeId> = HashSet::new();
        // A persistent partition can hold members that died since it was
        // computed; only live gates are scored.
        for &v in partition.members(region).iter().rev() {
            if claimed.contains(&v) || !mig.is_gate(v) {
                continue;
            }
            let Some(sel) = select_best_cut(
                self.engine,
                mig,
                v,
                cuts.of(v),
                ffr.as_ref(),
                self.depth_preserving,
                |n| mig.level(n),
            ) else {
                continue;
            };
            let internal = internal_nodes(mig, v, &sel.cut);
            claimed.extend(internal.iter().copied());
            // The footprint adds the non-terminal leaves: the template is
            // instantiated over them, so they must survive unchanged.
            let mut footprint = internal.clone();
            footprint.extend(
                sel.cut
                    .leaves()
                    .iter()
                    .copied()
                    .filter(|&l| !mig.is_terminal(l)),
            );
            props.push(Proposal {
                payload: CutPayload {
                    root: v,
                    cut: sel.cut,
                    repl: sel.repl,
                    internal,
                },
                footprint,
                gain: i64::from(sel.gain),
            });
        }
        props
    }

    fn commit(&self, mig: &mut Mig, payload: &CutPayload) -> CommitVerdict {
        let CutPayload {
            root,
            cut,
            repl,
            internal,
        } = payload;
        let root = *root;
        // A clean footprint means the cone is structurally unchanged,
        // but fanout counts of internal nodes can grow without a dirty
        // entry (structural hashing inside an earlier commit can
        // resurrect a shared node), so fanout legality is re-checked
        // against live counts. Likewise, level changes from earlier
        // commits are not dirty-logged, so the depth-preserving bound
        // must be re-evaluated against live levels too. It reads root's
        // and the leaves' levels, all in root's cone, which the commit
        // phase may hold deferred decreases in: settle them first.
        if !mig.is_gate(root) || !cut_is_fanout_legal(mig, root, internal) {
            return CommitVerdict::Conflicted;
        }
        if self.depth_preserving {
            mig.settle_levels_for(root);
            if repl.estimated_level(cut, |pos| mig.level(cut.leaves()[pos]))
                > mig.level(root) + ALLOWED_DEPTH_INCREASE
            {
                return CommitVerdict::Conflicted;
            }
        }
        let new_sig = repl.instantiate(self.engine, mig, cut, |pos| {
            Signal::new(cut.leaves()[pos], false)
        });
        if new_sig.node() == root {
            // The template reproduced the root; nothing to do (stray
            // template intermediates fall to the sweep).
            return CommitVerdict::Rejected;
        }
        if mig.replace_node(root, new_sig) {
            CommitVerdict::Applied { replacements: 1 }
        } else {
            // Cycle through shared logic: retract the speculative cone;
            // retrying would refuse again, so this is not a conflict.
            mig.reclaim(new_sig.node());
            CommitVerdict::Rejected
        }
    }
}

/// Bottom-up propose engine: whole-region extraction, serial
/// optimization of the standalone copy, boundary reroute.
struct RegionEngine<'e> {
    engine: &'e FunctionalHashing,
    variant: Variant,
    /// Worker threads for the serial-engine passes the region engine
    /// delegates to (their read-only candidate preparation fans out;
    /// results are bit-identical at every count).
    threads: usize,
}

impl ProposeEngine for RegionEngine<'_> {
    type Payload = RegionPayload;
    type RoundState = ();

    fn partition(&self, mig: &Mig, max_regions: usize) -> (RegionPartition, ()) {
        let strategy = if matches!(self.variant, Variant::BottomUpFfr) {
            PartitionStrategy::FfrForest { max_regions }
        } else {
            PartitionStrategy::LevelBands { max_regions }
        };
        (RegionPartition::compute(mig, strategy), ())
    }

    /// Whole-region extraction walks every member's fanins against the
    /// live graph; a partition lagging behind commits would feed it dead
    /// members and unmapped fanins, so the view is rebuilt per step.
    fn volatile_partition(&self) -> bool {
        true
    }

    /// Bottom-up proposal for one region: extract the region as a
    /// standalone MIG (external feeders become primary inputs, boundary
    /// members become outputs), optimize the copy with the serial
    /// in-place engine, and propose the boundary reroute when it shrinks
    /// the region.
    fn propose(
        &self,
        mig: &Mig,
        partition: &RegionPartition,
        _state: &(),
        region: u32,
    ) -> Vec<Proposal<RegionPayload>> {
        let view = partition.view(mig, region);
        if view.boundary.is_empty() || view.members.len() < 2 {
            return Vec::new();
        }
        let mut sub = Mig::new(view.inputs.len());
        let mut map: HashMap<NodeId, Signal> = HashMap::new();
        map.insert(0, Signal::ZERO);
        for (i, &n) in view.inputs.iter().enumerate() {
            map.insert(n, sub.input(i));
        }
        for &m in &view.members {
            let sig = {
                let fan = mig
                    .fanins(m)
                    .map(|s| map[&s.node()].complement_if(s.is_complemented()));
                sub.maj(fan[0], fan[1], fan[2])
            };
            map.insert(m, sig);
        }
        for &b in &view.boundary {
            sub.add_output(map[&b]);
        }
        // Optimize the extracted region with the serial in-place engine
        // (on the standalone copy — the shared graph stays frozen): it
        // keeps whatever structure it cannot improve, so unchanged logic
        // re-instantiates onto the original live nodes through
        // structural hashing and the reroute degenerates to a no-op.
        // The run is speculative (the proposal may lose the commit
        // conflict check or never shrink), so its metrics are muted; the
        // scheduler records the committed outcome.
        let mut opt = sub;
        obs::metrics::muted(|| self.engine.pass(&mut opt, self.variant, &mut None, 1));
        let gain = view.members.len() as i64 - opt.num_gates() as i64;
        if gain < 1 {
            return Vec::new();
        }
        let mut footprint = view.members.clone();
        footprint.extend(view.inputs.iter().copied().filter(|&n| !mig.is_terminal(n)));
        vec![Proposal {
            payload: RegionPayload {
                sub: opt,
                inputs: view.inputs,
                boundary: view.boundary,
            },
            footprint,
            gain,
        }]
    }

    fn commit(&self, mig: &mut Mig, payload: &RegionPayload) -> CommitVerdict {
        let RegionPayload {
            sub,
            inputs,
            boundary,
        } = payload;
        if boundary.iter().any(|&b| !mig.is_gate(b)) {
            return CommitVerdict::Conflicted;
        }
        // Instantiate the optimized region over the original inputs
        // (structural hashing shares whatever survived).
        let mut imap: Vec<Option<Signal>> = vec![None; sub.num_nodes()];
        imap[0] = Some(Signal::ZERO);
        for (i, &n) in inputs.iter().enumerate() {
            imap[sub.input(i).node() as usize] = Some(Signal::new(n, false));
        }
        for g in sub.topo_gates() {
            let fan = sub.fanins(g).map(|s| {
                imap[s.node() as usize]
                    .expect("fanin precedes gate in topo order")
                    .complement_if(s.is_complemented())
            });
            imap[g as usize] = Some(mig.maj(fan[0], fan[1], fan[2]));
        }
        let new_outs: Vec<Signal> = sub
            .outputs()
            .iter()
            .map(|o| {
                imap[o.node() as usize]
                    .expect("output cone mapped")
                    .complement_if(o.is_complemented())
            })
            .collect();
        let mut rerouted = 0u64;
        for (&b, &s) in boundary.iter().zip(&new_outs) {
            // Earlier reroutes of this very proposal may have merged `b`
            // away or collapsed parts of the speculative cone; skip what
            // no longer applies.
            if !mig.is_gate(b) || s.node() == b || mig.is_dead(s.node()) {
                continue;
            }
            if mig.replace_node(b, s) {
                rerouted += 1;
            }
        }
        // Retract whatever speculative logic was not adopted.
        for s in new_outs {
            if !mig.is_terminal(s.node()) && !mig.is_dead(s.node()) {
                mig.reclaim(s.node());
            }
        }
        if rerouted > 0 {
            CommitVerdict::Applied {
                replacements: rerouted,
            }
        } else {
            CommitVerdict::Rejected
        }
    }

    fn whole_graph_round(&self, mig: &mut Mig) -> Option<(u64, i64)> {
        // Degenerate single-shard round: extraction would only relabel
        // the whole graph (perturbing the candidate DP's tie-breaking
        // for no benefit) — run the serial engine directly. This also
        // makes small-graph sharded bottom-up bit-identical to the
        // serial path.
        let stats = self.engine.pass(mig, self.variant, &mut None, self.threads);
        Some((stats.replacements, stats.estimated_gain))
    }
}

/// [`FunctionalHashing::converge`]: the scheduler for graphs large enough
/// to partition, the serial round loop otherwise. Returns the statistics
/// and the rounds run — scheduler steps, or the serial loop's rounds on a
/// graph too small to partition.
pub(crate) fn converge(
    engine: &FunctionalHashing,
    mig: &mut Mig,
    variant: Variant,
    threads: usize,
) -> (FhStats, usize) {
    let bottom_up = matches!(variant, Variant::BottomUp | Variant::BottomUpFfr);
    let depth_preserving = matches!(variant, Variant::TopDownDepth | Variant::TopDownFfrDepth);
    let use_ffr = matches!(variant, Variant::TopDownFfr | Variant::TopDownFfrDepth);
    // Bottom-up steps run guarded: gains are estimates (strash sharing
    // and refused reroutes shift the real count), so a step that fails to
    // shrink the gate count is rolled back, like the serial round loop
    // does. Top-down commits each shrink the graph.
    let cfg = ShardConfig {
        threads,
        guard: bottom_up.then_some(gates_metric as RoundMetric),
    };
    // Serial fixpoint driver: the fallback for graphs too small to
    // partition and the bottom-up polish pass. Rounds that fail to
    // shrink are rolled back, so it is never worse than a single serial
    // pass from the same graph.
    let mut serial_rounds = 0;
    let mut serial = |m: &mut Mig| serial_rounds = engine.run_converge_serial(m, variant).1;
    // The drivers and the serial engines record into the metric
    // registry; the stats struct is reconstructed from this scope's
    // delta (`fhash.*` from serial/hooked runs plus `shard.*` from
    // scheduler commits — disjoint by construction), then republished so
    // enclosing pipeline scopes see the totals too.
    let ((), delta) = obs::metrics::scoped(|| {
        if bottom_up {
            // The bottom-up candidate DP is global: candidate lists flow
            // across every fanout boundary, which no disjoint partition can
            // reproduce (regional runs come out a few gates short on
            // structured arithmetic). The shared skeleton therefore runs one
            // guarded serial pass as the quality baseline, the scheduler as
            // shrink-only refinement, and a serial polish over the (much
            // smaller) quiescent graph to recover combinations the region
            // boundaries hid — never worse than the serial engine on any
            // input.
            let mut baseline =
                |m: &mut Mig| engine.pass(m, variant, &mut None, threads).replacements;
            run_scheduled_converge(
                mig,
                &mut RegionEngine {
                    engine,
                    variant,
                    threads,
                },
                &cfg,
                &mut serial,
                Some(&mut baseline),
            );
        } else {
            let mut cut_engine = CutEngine {
                engine,
                depth_preserving,
                use_ffr,
                cuts: None,
            };
            run_scheduled_converge(mig, &mut cut_engine, &cfg, &mut serial, None);
        }
        mig.sweep();
    });
    delta.publish();
    let stats = FhStats::from_delta(&delta);
    let rounds = if stats.sched.steps > 0 {
        stats.sched.steps as usize
    } else {
        serial_rounds.max(1)
    };
    (stats, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> FunctionalHashing {
        FunctionalHashing::with_default_database()
    }

    /// Commit-phase regression for the boundary-conflict check: two cut
    /// proposals whose MFFCs share a frontier node — the second must be
    /// refused and queued for retry, not applied against the changed
    /// graph. Exercises the scheduler's commit phase
    /// ([`mig::commit_proposals`]) through the cut engine.
    #[test]
    fn conflicting_footprints_commit_first_retry_second() {
        let e = engine();
        // A naive xor chain: the parity cone of `w` strictly contains
        // the parity cone of `y`, so their best replacements overlap.
        let mut m = Mig::new(4);
        let (a, b, c, d) = (m.input(0), m.input(1), m.input(2), m.input(3));
        let x = m.xor(a, b);
        let y = m.xor(x, c);
        let w = m.xor(y, d);
        m.add_output(w);
        let _ = m.drain_dirty();
        let frozen = m.clone();

        // Build two genuine proposals over the frozen graph whose
        // footprints overlap on `x`'s cone.
        let cuts = enumerate_cuts(&frozen, &CutConfig::default());
        let mk = |v: mig::NodeId| {
            let sel = select_best_cut(&e, &frozen, v, cuts.of(v), None, false, |n| frozen.level(n))
                .expect("profitable cut");
            let internal = internal_nodes(&frozen, v, &sel.cut);
            let mut footprint = internal.clone();
            footprint.extend(
                sel.cut
                    .leaves()
                    .iter()
                    .copied()
                    .filter(|&l| !frozen.is_terminal(l)),
            );
            Proposal {
                payload: CutPayload {
                    root: v,
                    cut: sel.cut,
                    repl: sel.repl,
                    internal,
                },
                footprint,
                gain: i64::from(sel.gain),
            }
        };
        let p_top = mk(w.node());
        let p_low = mk(y.node());
        assert!(
            p_top.footprint.iter().any(|n| p_low.footprint.contains(n)),
            "test premise: the two MFFCs share frontier nodes"
        );

        let want = m.output_truth_tables();
        let cut_engine = CutEngine {
            engine: &e,
            depth_preserving: false,
            use_ffr: false,
            cuts: None,
        };
        let low_footprint = p_low.footprint.clone();
        let mut frontier = Vec::new();
        let outcome = mig::commit_proposals(&mut m, &cut_engine, &[p_top, p_low], &mut frontier);
        assert_eq!(outcome.committed, 1, "first proposal lands");
        assert_eq!(outcome.conflicted, 1, "overlapping proposal refused");
        assert!(
            low_footprint
                .iter()
                .all(|n| frontier.iter().any(|&(f, _)| f == *n)),
            "conflicted footprint queued for the next step"
        );
        assert_eq!(m.output_truth_tables(), want, "function preserved");
        m.debug_check();
    }

    /// A seeded random network of naively built xors, ands and
    /// majorities over 16 inputs: redundant enough that top-down
    /// convergence commits over several scheduler steps.
    fn naive_random_network(seed: u64, ops: usize) -> Mig {
        let mut rng = testrand::Rng::new(seed);
        let mut m = Mig::new(16);
        let mut sigs: Vec<Signal> = m.inputs().collect();
        for _ in 0..ops {
            let mut pick = || sigs[rng.usize_below(sigs.len())].complement_if(rng.bool());
            let (a, b, c) = (pick(), pick(), pick());
            let g = match rng.below(3) {
                0 => m.xor(a, b),
                1 => m.and(a, b),
                _ => m.maj(a, b, c),
            };
            sigs.push(g);
        }
        for &s in sigs.iter().rev().take(8) {
            m.add_output(s);
        }
        m
    }

    /// The cut engine, checking after every prepare that its set serves
    /// each live gate exactly the list a fresh enumeration of the graph
    /// computes.
    struct CheckedCuts<'e> {
        inner: CutEngine<'e>,
        prepares: usize,
    }

    impl ProposeEngine for CheckedCuts<'_> {
        type Payload = CutPayload;
        type RoundState = Option<FfrPartition>;

        fn partition(&self, mig: &Mig, max_regions: usize) -> (RegionPartition, Self::RoundState) {
            self.inner.partition(mig, max_regions)
        }

        fn prepare(&mut self, mig: &Mig) {
            self.inner.prepare(mig);
            self.prepares += 1;
            let fresh = enumerate_cuts(mig, &CutConfig::default());
            let cuts = self.inner.cuts.as_ref().expect("prepared");
            for g in mig.gates() {
                assert!(
                    cuts.is_valid(g),
                    "prepare {}: gate {g} stale",
                    self.prepares
                );
                assert_eq!(
                    cuts.of(g),
                    fresh.of(g),
                    "prepare {}: gate {g} served a stale list",
                    self.prepares
                );
            }
        }

        fn propose(
            &self,
            mig: &Mig,
            partition: &RegionPartition,
            state: &Self::RoundState,
            region: u32,
        ) -> Vec<Proposal<CutPayload>> {
            self.inner.propose(mig, partition, state, region)
        }

        fn commit(&self, mig: &mut Mig, payload: &CutPayload) -> CommitVerdict {
            self.inner.commit(mig, payload)
        }
    }

    /// The cut set the engine carries across scheduler steps stays sound:
    /// at every step, and once more on the final graph, the lists the
    /// workers read equal a fresh enumeration — also after a compaction
    /// renumbered the graph under them.
    #[test]
    fn carried_cut_lists_stay_sound_across_scheduler_steps() {
        let e = engine();
        let mut m = naive_random_network(5, 200);
        let want = m.output_truth_tables();
        let mut checked = CheckedCuts {
            inner: CutEngine {
                engine: &e,
                depth_preserving: false,
                use_ffr: false,
                cuts: None,
            },
            prepares: 0,
        };
        let cfg = ShardConfig {
            threads: 2,
            guard: None,
        };
        let ((), run) = obs::metrics::scoped(|| {
            run_scheduled_converge(&mut m, &mut checked, &cfg, &mut |_| {}, None)
        });
        let steps = run.get(obs::Metric::SchedSteps);
        assert!(steps >= 3, "test premise: {steps} scheduler steps");
        let compactions = run.get(obs::Metric::SchedCompactions);
        assert!(compactions >= 1, "test premise: {compactions} compactions");
        assert_eq!(checked.prepares as u64, steps, "one prepare per step");
        assert_eq!(m.output_truth_tables(), want, "function preserved");
        checked.prepare(&m);
    }

    /// The same overlap, resolved by the driver across rounds: the
    /// retried region is re-proposed and the final result matches the
    /// quiescent serial engine.
    #[test]
    fn driver_resolves_conflicts_across_rounds() {
        let e = engine();
        let mut m = Mig::new(4);
        let (a, b, c, d) = (m.input(0), m.input(1), m.input(2), m.input(3));
        let x = m.xor(a, b);
        let y = m.xor(x, c);
        let z = m.xor(y, d);
        m.add_output(z);
        let want = m.output_truth_tables();
        let mut sharded = m.clone();
        let (stats, _) = e.converge(&mut sharded, Variant::TopDown, 3);
        assert!(stats.replacements > 0);
        assert_eq!(sharded.output_truth_tables(), want);
        let mut serial = m.clone();
        e.pass(&mut serial, Variant::TopDown, &mut None, 1);
        assert!(sharded.num_gates() <= serial.num_gates());
        sharded.debug_check();
    }
}

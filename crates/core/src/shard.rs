//! Sharded in-place functional hashing on the engine-agnostic
//! event-driven convergence scheduler ([`mig::ProposeEngine`]).
//!
//! The functional-hashing flow is local — a replacement touches a cut's
//! cone and its fanout frontier — so the expensive part (cut enumeration,
//! NPN canonization, database lookup, candidate scoring) runs
//! concurrently over a *frozen* graph while only the cheap part (the
//! actual `replace_node` substitutions) stays serial. The scheduling —
//! persistent partition with drift-triggered re-partition, the priority
//! queue of dirty regions, parallel propose, serial deterministic commit
//! with footprint-conflict resolution, stale-region retry — lives
//! in [`mig::run_scheduler`]; this module plugs in two engines:
//!
//! * [`CutEngine`] (the top-down variants): per gate, the best legal
//!   database replacement selected from shard-local cut lists
//!   ([`cuts::LocalCuts`]). The per-region lists are **carried across
//!   steps** — staled through the scheduler's invalidation events, like
//!   the global `CutSet` — so incremental steps only re-enumerate the
//!   cuts a commit actually touched. Commit re-checks fanout legality
//!   (strash inside an earlier commit can resurrect a shared node
//!   without dirtying it) and, for the depth-preserving variants, the
//!   level bound against live levels. The FFR legality view may lag the
//!   graph by up to the re-partition threshold; the commit-time fanout
//!   recheck keeps every replacement sound regardless.
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
//! Determinism: fixed input + thread count ⇒ bit-identical netlist (a
//! scheduler property — queue order and commit order are independent of
//! worker scheduling).

use crate::common::{cut_is_fanout_legal, internal_nodes, select_best_cut, Replacement};
use crate::{FhStats, FunctionalHashing, Variant, ALLOWED_DEPTH_INCREASE, MAX_ROUNDS};
use cuts::{Cut, CutConfig, LocalCuts};
use mig::{
    run_scheduled_converge, CommitVerdict, FfrPartition, Mig, NodeId, PartitionStrategy,
    ProposeEngine, RegionPartition, ShardConfig, Signal,
};
use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

/// Leaf horizon of the shard-local cut lists: nodes this many levels
/// below a region's lowest member act as cut leaves. Bounds a worker's
/// cut enumeration to its region's neighborhood instead of the whole
/// transitive fanin cone; 4-feasible cuts rarely span more levels.
const CUT_HORIZON: u32 = 8;

enum ProposalKind {
    /// Top-down: substitute `root` by the instantiation of the database
    /// template `repl` over the leaves of `cut`.
    Cut {
        root: NodeId,
        cut: Cut,
        repl: Replacement,
        /// The cut's internal cone (root first); re-checked for fanout
        /// legality against the live graph at commit time.
        internal: Vec<NodeId>,
    },
    /// Bottom-up: reroute each of the region's `boundary` gates to the
    /// corresponding output of `sub`, an optimized standalone rebuild of
    /// the region over the external `inputs` (boxed: a whole graph is
    /// much larger than the cut-proposal payload).
    Region {
        sub: Box<Mig>,
        inputs: Vec<NodeId>,
        boundary: Vec<NodeId>,
    },
}

struct Proposal {
    kind: ProposalKind,
    /// Expected gate-count gain (always >= 1).
    gain: i32,
    /// Round-start gates this proposal's analysis depends on. The commit
    /// phase refuses the proposal if any of them was touched earlier in
    /// the round.
    footprint: Vec<NodeId>,
}

/// Top-down propose engine: database cut replacements from shard-local
/// cut lists, with per-region list reuse across scheduler steps.
struct CutEngine<'e> {
    engine: &'e FunctionalHashing,
    depth_preserving: bool,
    use_ffr: bool,
    /// Per-region [`LocalCuts`] carried across steps. Workers take
    /// their region's store out under the lock, refresh it lock-free and
    /// put it back; the scheduler's [`ProposeEngine::invalidate`] events
    /// stale exactly what each step's commits touched.
    carried: Mutex<HashMap<u32, LocalCuts>>,
}

impl ProposeEngine for CutEngine<'_> {
    type Proposal = Proposal;
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

    fn invalidate(&self, mig: &Mig, changed: &[NodeId]) {
        let mut carried = self.carried.lock().unwrap();
        for store in carried.values_mut() {
            store.invalidate(mig, changed.iter().copied());
        }
    }

    fn remap(&self, _map: &mig::CompactMap) {
        // The carried lists are node-indexed: after a compaction every
        // cached cut describes a renumbered (or vanished) slot. Drop
        // them wholesale — the next propose re-enumerates from the
        // dense graph, which is exactly the access pattern compaction
        // exists to speed up.
        self.carried.lock().unwrap().clear();
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
    ) -> Vec<Proposal> {
        let members = partition.members(region);
        let mut props = Vec::new();
        if members.is_empty() {
            return props;
        }
        // A persistent partition can hold members that died since it was
        // computed (dead slots report level 0 and would wreck the
        // horizon); the floor follows the live members only.
        let floor = members
            .iter()
            .filter(|&&g| mig.is_gate(g))
            .map(|&g| mig.level(g))
            .min()
            .unwrap_or(0)
            .saturating_sub(CUT_HORIZON);
        // Sharded cut refresh reuse: take the region's carried lists when
        // the leaf horizon is unchanged (lists are valid per node, and
        // the scheduler's invalidation events already staled everything
        // the last commits touched); otherwise start fresh.
        let mut local = {
            let mut carried = self.carried.lock().unwrap();
            match carried.remove(&region) {
                Some(store) if store.floor_level() == floor => store,
                _ => LocalCuts::new(CutConfig::default(), floor),
            }
        };
        let mut claimed: HashSet<NodeId> = HashSet::new();
        for &v in members.iter().rev() {
            if claimed.contains(&v) || !mig.is_gate(v) {
                continue;
            }
            let list = local.of(mig, v);
            let Some(sel) = select_best_cut(
                self.engine,
                mig,
                v,
                list,
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
                kind: ProposalKind::Cut {
                    root: v,
                    cut: sel.cut,
                    repl: sel.repl,
                    internal,
                },
                gain: sel.gain,
                footprint,
            });
        }
        self.carried.lock().unwrap().insert(region, local);
        props
    }

    fn footprint<'a>(&self, p: &'a Proposal) -> &'a [NodeId] {
        &p.footprint
    }

    fn gain(&self, p: &Proposal) -> i64 {
        i64::from(p.gain)
    }

    fn commit(&self, mig: &mut Mig, prop: &Proposal) -> CommitVerdict {
        let ProposalKind::Cut {
            root,
            cut,
            repl,
            internal,
        } = &prop.kind
        else {
            unreachable!("cut engine only emits cut proposals");
        };
        let root = *root;
        // A clean footprint means the cone is structurally unchanged,
        // but fanout counts of internal nodes can grow without a dirty
        // entry (structural hashing inside an earlier commit can
        // resurrect a shared node), so fanout legality is re-checked
        // against live counts. Likewise, level cascades from earlier
        // commits are not dirty-logged, so the depth-preserving bound
        // must be re-evaluated against live levels too.
        let depth_ok = !self.depth_preserving
            || repl.estimated_level(cut, |pos| mig.level(cut.leaves()[pos]))
                <= mig.level(root) + ALLOWED_DEPTH_INCREASE;
        if !mig.is_gate(root) || !cut_is_fanout_legal(mig, root, internal) || !depth_ok {
            return CommitVerdict::Conflicted;
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
    type Proposal = Proposal;
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
    ) -> Vec<Proposal> {
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
        obs::metrics::muted(|| self.engine.pass(&mut opt, self.variant, &mut None));
        let gain = view.members.len() as i32 - opt.num_gates() as i32;
        if gain < 1 {
            return Vec::new();
        }
        let mut footprint = view.members.clone();
        footprint.extend(view.inputs.iter().copied().filter(|&n| !mig.is_terminal(n)));
        vec![Proposal {
            kind: ProposalKind::Region {
                sub: Box::new(opt),
                inputs: view.inputs,
                boundary: view.boundary,
            },
            gain,
            footprint,
        }]
    }

    fn footprint<'a>(&self, p: &'a Proposal) -> &'a [NodeId] {
        &p.footprint
    }

    fn gain(&self, p: &Proposal) -> i64 {
        i64::from(p.gain)
    }

    fn commit(&self, mig: &mut Mig, prop: &Proposal) -> CommitVerdict {
        let ProposalKind::Region {
            sub,
            inputs,
            boundary,
        } = &prop.kind
        else {
            unreachable!("region engine only emits region proposals");
        };
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
        let stats = self
            .engine
            .pass_threads(mig, self.variant, &mut None, self.threads);
        Some((stats.replacements, stats.estimated_gain))
    }
}

/// The bottom-up round guard: gains are estimates (strash sharing and
/// refused reroutes shift the real count), so a round that failed to
/// shrink the gate count is rolled back, like the serial round loop does.
fn gates_metric(mig: &Mig) -> (u64, u64) {
    (mig.num_gates() as u64, 0)
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
    let mut cfg = ShardConfig::new(threads);
    cfg.max_rounds = MAX_ROUNDS;
    // Serial fixpoint driver: the fallback for graphs too small to
    // partition and the bottom-up polish pass. Rounds that fail to
    // shrink are rolled back, so it is never worse than a single serial
    // pass from the same graph.
    let mut serial_rounds = 0;
    let mut serial = |m: &mut Mig| -> (u64, i64) {
        let (s, rounds) = engine.run_converge_serial(m, variant);
        serial_rounds = rounds;
        (s.replacements, s.estimated_gain)
    };
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
            cfg.guard = Some(gates_metric);
            let mut baseline = |m: &mut Mig| -> (u64, i64) {
                let s = engine.pass_threads(m, variant, &mut None, threads);
                (s.replacements, s.estimated_gain)
            };
            run_scheduled_converge(
                mig,
                &RegionEngine {
                    engine,
                    variant,
                    threads,
                },
                &cfg,
                &mut serial,
                Some(&mut baseline),
                true,
            );
        } else {
            let cut_engine = CutEngine {
                engine,
                depth_preserving,
                use_ffr,
                carried: Mutex::new(HashMap::new()),
            };
            run_scheduled_converge(mig, &cut_engine, &cfg, &mut serial, None, false);
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
    /// graph. Exercises the generic driver's serial commit phase
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
        let mut local = LocalCuts::new(CutConfig::default(), 0);
        let mk = |v: mig::NodeId, local: &mut LocalCuts| {
            let list = local.of(&frozen, v).to_vec();
            let sel = select_best_cut(&e, &frozen, v, &list, None, false, |n| frozen.level(n))
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
                kind: ProposalKind::Cut {
                    root: v,
                    cut: sel.cut,
                    repl: sel.repl,
                    internal,
                },
                gain: sel.gain,
                footprint,
            }
        };
        let p_top = mk(w.node(), &mut local);
        let p_low = mk(y.node(), &mut local);
        assert!(
            p_top.footprint.iter().any(|n| p_low.footprint.contains(n)),
            "test premise: the two MFFCs share frontier nodes"
        );

        let want = m.output_truth_tables();
        let cut_engine = CutEngine {
            engine: &e,
            depth_preserving: false,
            use_ffr: false,
            carried: Mutex::new(HashMap::new()),
        };
        let mut stale = HashSet::new();
        let outcome = mig::commit_proposals(&mut m, &cut_engine, vec![p_top, p_low], &mut stale);
        assert_eq!(outcome.committed, 1, "first proposal lands");
        assert_eq!(outcome.conflicted, 1, "overlapping proposal refused");
        assert!(
            !stale.is_empty(),
            "conflicted footprint queued for the next round"
        );
        assert_eq!(m.output_truth_tables(), want, "function preserved");
        m.debug_check();
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
        e.pass(&mut serial, Variant::TopDown, &mut None);
        assert!(sharded.num_gates() <= serial.num_gates());
        sharded.debug_check();
    }
}

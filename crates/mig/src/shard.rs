//! Event-driven propose/commit convergence: the scheduler that lets any
//! local-rewriting engine converge with work proportional to what
//! actually changed, instead of re-traversing the whole graph per round.
//!
//! The protocol was born in the functional-hashing crate (parallel cut
//! replacement) but nothing in it is specific to cuts: a [`Proposal`] is
//! an opaque engine payload plus a **footprint** (the step-start nodes
//! its analysis depends on) and an expected **gain**, and
//! [`ProposeEngine::commit`] performs a **legality recheck** against the
//! live graph. Engines plug in through [`ProposeEngine`];
//! [`run_scheduled_converge`] owns everything else:
//!
//! 1. **Partition.** [`ProposeEngine::partition`] carves the live gates
//!    into regions (the engine picks the strategy — FFR forest, level
//!    bands, …), at most 64 of them and at least 12 gates each — a
//!    bound read from the gate count alone, never from the thread
//!    count. Unlike the original round loop, the partition is
//!    **persistent**: it is rebuilt only when the live gate count drifts
//!    by more than 20% or more than 20% of the dirty nodes fall outside
//!    every region, or for engines whose analysis is global
//!    ([`ProposeEngine::volatile_partition`]).
//! 2. **Schedule.** A deterministic priority queue of dirty regions —
//!    seeded from each commit's footprint and the graph's non-draining
//!    dirty-log cursor ([`crate::Mig::dirty_since`]), ordered by expected
//!    gain then stable region id — decides what gets proposed. After the
//!    first step, only queued (dirty) regions are re-proposed; clean
//!    regions are skipped entirely.
//! 3. **Propose.** [`ProposeEngine::prepare`] first brings the engine's
//!    shared read state up to date on the committing thread. Then worker
//!    threads (`std::thread::scope`, work-stealing over the scheduled
//!    region list) call [`ProposeEngine::propose`] read-only on a frozen
//!    graph; results land in per-region slots so commit order is
//!    independent of scheduling.
//! 4. **Commit serially** ([`commit_proposals`]). The step's proposals
//!    commit one at a time on the live graph, in the order propose
//!    returned them (region-slot order). A proposal whose footprint
//!    intersects anything dirtied earlier in the step was analyzed
//!    against a graph that no longer exists: it is refused and its
//!    region retries next step. [`ProposeEngine::commit`] re-checks its
//!    own legality against the live graph either way. The phase defers
//!    level decreases and settles them once at its end
//!    ([`crate::Mig::with_deferred_levels`]); a commit that reads levels
//!    settles what it reads first ([`crate::Mig::settle_levels_for`]).
//!
//! Steps repeat until the queue drains (no dirty region and no dirty
//! node outside the partition), with a backstop of 50 steps; engines whose steps are not individually
//! monotone set a [`ShardConfig::guard`] metric — such steps run against
//! a snapshot and are rolled back (ending the loop) when the metric
//! fails to improve, the same guarantee the serial convergence loops
//! provided. When a step leaves 25% or more of the slots dead, the graph
//! is compacted ([`crate::Mig::compact`]) and re-partitioned.
//!
//! For a fixed input graph and engine the resulting netlist is
//! bit-deterministic and the same at every thread count: the partition,
//! the queue order and the commit order depend on the graph alone —
//! threads only decide *who* analyzes each region.

use crate::fxhash::FxHashSet;
use crate::{Mig, NodeId, RegionPartition};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Most regions per partition. Over-partitioning smooths load imbalance
/// between shards of unequal rewriting opportunity, and a bound fixed
/// for every thread count keeps the netlist independent of it: 64 leaves
/// several regions per worker at every gated thread count.
const MAX_REGIONS: usize = 64;

/// Minimum gates per region. The floor keeps a region wide enough for a
/// full 4-feasible cut cone plus fanout context (a sliver region sees
/// too little, and per-region overhead would dominate) while letting
/// graphs in the tens of gates still split into a handful of shards.
const MIN_REGION_SIZE: usize = 12;

/// Re-partition threshold, in percent of the gate count at partition
/// time: the partition is rebuilt when the live gate count drifts by
/// more than this, or when more than this share of the pending dirty
/// nodes falls outside every region (nodes created after the
/// partition). Until then a step costs only the dirty regions.
const REPARTITION_PCT: usize = 20;

/// Backstop on scheduler steps. Committing steps improve the graph, so
/// this is never the expected exit.
const MAX_STEPS: usize = 50;

/// Compaction threshold, in percent of slots on the free list: a step
/// that ends with the dead-slot density at or past this renumbers the
/// graph ([`Mig::compact`]), so long-churning runs keep their slot
/// arrays dense instead of chasing ever-sparser cache lines.
const COMPACT_PCT: u64 = 25;

/// What [`ProposeEngine::commit`] did with one proposal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitVerdict {
    /// The proposal was applied with this many individual substitutions.
    Applied {
        /// Substitutions performed (a region-level proposal may reroute
        /// several boundary gates; a single-cut proposal performs one).
        replacements: u64,
    },
    /// The live-graph legality recheck failed (the graph drifted in a
    /// way the footprint could not see); the owning region retries next
    /// step.
    Conflicted,
    /// The proposal turned out to be a no-op (e.g. a substitution that
    /// would close a cycle through shared logic, retracted on the spot).
    /// Retrying would refuse again, so this is *not* a conflict.
    Rejected,
}

/// One proposed local rewrite, as [`ProposeEngine::propose`] returns it.
#[derive(Debug, Clone)]
pub struct Proposal<P> {
    /// What the engine needs to apply the rewrite (opaque to the
    /// scheduler; handed from the propose workers to the committing
    /// thread).
    pub payload: P,
    /// The step-start nodes the proposal's analysis depends on. The
    /// commit phase refuses the proposal if any of them was structurally
    /// touched earlier in the step.
    pub footprint: Vec<NodeId>,
    /// The expected gain: the retry priority of the region when the
    /// proposal is refused or its commit dirties nodes.
    pub gain: i64,
}

/// A rewriting engine pluggable into [`run_scheduled_converge`].
///
/// The engine analyzes regions read-only ([`ProposeEngine::propose`] runs
/// concurrently on a frozen `&Mig`) and applies its proposals one at a
/// time on the live graph ([`ProposeEngine::commit`], which must re-check
/// legality itself — the driver only guarantees that the proposal's
/// footprint is structurally untouched within the current step). State
/// the proposals read and the steps carry forward (cut lists, …) is
/// brought up to date in [`ProposeEngine::prepare`], the one hook with
/// `&mut self`.
///
/// # Examples
///
/// An engine that collapses the redundant conjunction `<0 a <0 a b>>`
/// onto its inner gate:
///
/// ```
/// use mig::{
///     run_scheduled_converge, CommitVerdict, Mig, NodeId, PartitionStrategy, ProposeEngine,
///     Proposal, RegionPartition, ShardConfig, Signal,
/// };
///
/// /// The inner gate that `root` repeats, if it matches the pattern.
/// fn redundant_and(mig: &Mig, root: NodeId) -> Option<Signal> {
///     if !mig.is_gate(root) {
///         return None;
///     }
///     let [zero, x, y] = mig.fanins(root);
///     let repeats = |inner: Signal, other: Signal| {
///         zero == Signal::ZERO
///             && !inner.is_complemented()
///             && mig.is_gate(inner.node())
///             && mig.fanins(inner.node())[0] == Signal::ZERO
///             && mig.fanins(inner.node()).contains(&other)
///     };
///     [(x, y), (y, x)]
///         .into_iter()
///         .find(|&(inner, other)| repeats(inner, other))
///         .map(|(inner, _)| inner)
/// }
///
/// struct RedundantAnd;
///
/// impl ProposeEngine for RedundantAnd {
///     type Payload = NodeId;
///     type RoundState = ();
///
///     fn partition(&self, mig: &Mig, max_regions: usize) -> (RegionPartition, ()) {
///         let strategy = PartitionStrategy::LevelBands { max_regions };
///         (RegionPartition::compute(mig, strategy), ())
///     }
///
///     fn propose(&self, mig: &Mig, p: &RegionPartition, _: &(), r: u32) -> Vec<Proposal<NodeId>> {
///         let mut claimed = Vec::new();
///         let mut props = Vec::new();
///         for &root in p.members(r).iter().rev() {
///             if claimed.contains(&root) || !mig.is_gate(root) {
///                 continue;
///             }
///             if let Some(inner) = redundant_and(mig, root) {
///                 let footprint = vec![root, inner.node()];
///                 claimed.extend_from_slice(&footprint);
///                 props.push(Proposal { payload: root, footprint, gain: 1 });
///             }
///         }
///         props
///     }
///
///     fn commit(&self, mig: &mut Mig, &root: &NodeId) -> CommitVerdict {
///         match redundant_and(mig, root) {
///             None => CommitVerdict::Conflicted,
///             Some(inner) if mig.replace_node(root, inner) => {
///                 CommitVerdict::Applied { replacements: 1 }
///             }
///             Some(_) => CommitVerdict::Rejected,
///         }
///     }
/// }
///
/// // A ladder of 30 redundant pairs: every other gate collapses.
/// let mut m = Mig::new(8);
/// let mut acc = m.input(0);
/// for i in 0..30 {
///     let x = m.input(1 + i % 7);
///     let inner = m.and(acc, x);
///     acc = m.and(inner, x);
/// }
/// m.add_output(acc);
/// let want = m.output_truth_tables();
/// let cfg = ShardConfig { threads: 2, guard: None };
/// run_scheduled_converge(&mut m, &mut RedundantAnd, &cfg, &mut |_| {}, None);
/// assert_eq!(m.num_gates(), 30);
/// assert_eq!(m.output_truth_tables(), want);
/// ```
pub trait ProposeEngine: Sync {
    /// The engine's part of a [`Proposal`].
    type Payload: Send;
    /// Read state shared by all workers while a partition is live (e.g.
    /// an FFR view of the graph). Use `()` when none is needed.
    type RoundState: Sync;

    /// Partitions the live gates into regions and prepares the shared
    /// read state. Called on the first step and whenever the scheduler's
    /// re-partition policy fires (live-gate drift or region staleness
    /// past 20%) — *not* every step, so the state may lag the graph by up
    /// to that threshold. Engines that cannot tolerate any lag return
    /// `true` from [`ProposeEngine::volatile_partition`].
    fn partition(&self, mig: &Mig, max_regions: usize) -> (RegionPartition, Self::RoundState);

    /// Whether the partition (and round state) must be rebuilt before
    /// every step. For engines whose proposal analysis is global — e.g.
    /// whole-region extraction, which must see a coherent member list —
    /// rather than local pattern matching that a stale region assignment
    /// merely makes less precise.
    fn volatile_partition(&self) -> bool {
        false
    }

    /// Runs on the committing thread before every propose phase (the
    /// first step, retries and steps after a re-partition alike), with
    /// the graph as the workers will see it. Engines carrying analysis
    /// state across steps bring it up to date here — reading the graph's
    /// dirty log through their own cursor ([`crate::Mig::dirty_since`]),
    /// which also reports the gap a compaction leaves — so that
    /// [`ProposeEngine::propose`] only reads it.
    fn prepare(&mut self, _mig: &Mig) {}

    /// Generates the proposals of one region, read-only. A worker's own
    /// proposals should not overlap (the driver would refuse the later
    /// one as a conflict).
    fn propose(
        &self,
        mig: &Mig,
        partition: &RegionPartition,
        state: &Self::RoundState,
        region: u32,
    ) -> Vec<Proposal<Self::Payload>>;

    /// Re-checks the proposal against the live graph and applies it.
    /// Runs with level decreases deferred ([`Mig::with_deferred_levels`]):
    /// a commit that reads levels calls [`Mig::settle_levels_for`] on
    /// the nodes whose cones it reads first.
    fn commit(&self, mig: &mut Mig, payload: &Self::Payload) -> CommitVerdict;

    /// Hook for steps whose partition degenerates to a single region.
    /// Engines whose single-region proposal would merely reproduce their
    /// serial pass (with perturbed tie-breaking) can run the serial pass
    /// directly here and return `Some((replacements, gain))`; the
    /// default `None` runs the regular propose/commit machinery.
    fn whole_graph_round(&self, _mig: &mut Mig) -> Option<(u64, i64)> {
        None
    }
}

/// A step-acceptance metric: a lexicographic pair (smaller is better)
/// evaluated on the whole graph, e.g. `(gates, depth)` for a size
/// script or `(depth, gates)` for a depth script.
pub type RoundMetric = fn(&Mig) -> (u64, u64);

/// Plain gate count as a [`RoundMetric`]: the guard of the bottom-up
/// functional-hashing steps, and the baseline guard of
/// [`run_scheduled_converge`] when the configuration sets none.
pub fn gates_metric(mig: &Mig) -> (u64, u64) {
    (mig.num_gates() as u64, 0)
}

/// What callers of the scheduler choose; everything else is fixed (see
/// the module docs).
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Worker threads for the propose phase. They change the speed, never
    /// the netlist.
    pub threads: usize,
    /// Optional per-step acceptance metric (lexicographic, smaller is
    /// better). When set, every step runs against a snapshot and is
    /// rolled back — ending the loop — if the metric fails to improve.
    /// Engines whose commits are individually improving leave this
    /// `None` and skip the snapshot cost.
    pub guard: Option<RoundMetric>,
}

/// The region bound for the current graph: follows the live gate count,
/// so shrinking graphs coalesce toward the single-region degenerate case
/// (equal to the serial engine). A graph is worth sharding when this
/// exceeds 1.
fn max_regions(mig: &Mig) -> usize {
    (mig.num_gates() / MIN_REGION_SIZE).clamp(1, MAX_REGIONS)
}

/// What happened to one step's proposals.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RoundOutcome {
    /// Proposals applied (a region proposal counts once even when it
    /// performs several substitutions).
    pub committed: usize,
    /// Proposals refused — by the driver's footprint check or the
    /// engine's live recheck (their regions retry next step).
    pub conflicted: usize,
    /// Individual substitutions performed.
    pub replacements: u64,
    /// Sum of expected gains of the committed proposals.
    pub gain: i64,
}

/// Event counters of the scheduler, reported by the `migopt` per-pass
/// notes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SchedStats {
    /// Scheduler steps run (batches of scheduled regions).
    pub steps: u64,
    /// Regions handed to [`ProposeEngine::propose`].
    pub proposed_regions: u64,
    /// Regions that stayed clean after the first step and were never
    /// re-proposed — the work a full-sweep round loop would have spent.
    /// Measured against the partition-time region count, so a region
    /// whose members have all died since still counts as skipped until
    /// the next re-partition.
    pub skipped_clean: u64,
    /// Proposals refused for retry (footprint conflict or engine
    /// recheck); their regions were re-queued.
    pub retried: u64,
    /// Times the partition was (re)built.
    pub repartitions: u64,
}

impl SchedStats {
    /// Whether any scheduler activity was recorded (serial fallbacks
    /// record none).
    pub fn any(&self) -> bool {
        *self != SchedStats::default()
    }

    /// Reconstructs the counters from a metric-registry delta — the
    /// registry is the source of truth, this struct is the report view.
    pub fn from_delta(d: &obs::Delta) -> Self {
        SchedStats {
            steps: d.get(obs::Metric::SchedSteps),
            proposed_regions: d.get(obs::Metric::SchedProposedRegions),
            skipped_clean: d.get(obs::Metric::SchedSkippedClean),
            retried: d.get(obs::Metric::SchedRetried),
            repartitions: d.get(obs::Metric::SchedRepartitions),
        }
    }
}

/// The event-driven convergence core: the deterministic priority queue
/// of dirty nodes (mapped onto regions of the current partition each
/// step) and the re-partition bookkeeping.
struct Scheduler {
    /// Pending dirt at node granularity: `(node, priority)` where the
    /// priority is the expected gain of the commit or retry that dirtied
    /// the node. Node-level (not region-level) so the queue survives
    /// re-partitions unchanged.
    frontier: Vec<(NodeId, i64)>,
    /// Live gate count when the current partition was computed, the
    /// baseline of the drift threshold.
    gates_at_partition: usize,
}

impl Scheduler {
    /// Maps the pending frontier onto the current partition: per-region
    /// priority (maximum expected gain of the region's pending events,
    /// accumulation order independent) plus the count of live dirty
    /// nodes outside every region — created on appended slots or
    /// recycled into freed member slots after the partition (the
    /// staleness signal). Dead nodes drop out entirely.
    fn queue(&self, mig: &Mig, partition: &RegionPartition) -> (BTreeMap<u32, i64>, usize) {
        let mut queue: BTreeMap<u32, i64> = BTreeMap::new();
        let mut unassigned = 0usize;
        for &(n, prio) in &self.frontier {
            match partition.region_of_live(mig, n) {
                Some(r) => {
                    let e = queue.entry(r).or_insert(i64::MIN);
                    *e = (*e).max(prio);
                }
                None if mig.is_gate(n) => unassigned += 1,
                None => {}
            }
        }
        (queue, unassigned)
    }

    /// Whether the partition must be rebuilt: live-gate drift or
    /// unassigned-dirt staleness past [`REPARTITION_PCT`].
    fn needs_repartition(&self, mig: &Mig, unassigned: usize) -> bool {
        let base = self.gates_at_partition.max(1);
        let drift = mig.num_gates().abs_diff(self.gates_at_partition);
        drift * 100 > base * REPARTITION_PCT || unassigned * 100 > base * REPARTITION_PCT
    }
}

/// Runs event-driven propose/commit steps to quiescence (no dirty region
/// left, a guarded step fails to improve, or [`MAX_STEPS`] is hit).
///
/// Sweeps dangling cones up front (regions are analyzed in isolation;
/// dangling logic would pollute membership, boundary sets and gain
/// estimates) and again before returning. The graph's dirty log is
/// *peeked* through cursors, never drained, so carried analyses outside
/// the scheduler (a pipeline's cut set) keep their invalidation feed.
///
/// Every counter goes to the metric registry; each step runs inside a
/// nested metric scope so a guard rollback drops the undone step's
/// outcome counters while [`obs::Delta::publish_history`] keeps its
/// event history — uniformly for every engine.
fn run_scheduler<E: ProposeEngine>(mig: &mut Mig, engine: &mut E, cfg: &ShardConfig) {
    use obs::metrics::{add, addi};
    use obs::Metric;
    mig.sweep();
    let mut sched = Scheduler {
        frontier: Vec::new(),
        gates_at_partition: 0,
    };
    let mut current: Option<(RegionPartition, E::RoundState)> = None;
    let mut first = true;
    let mut force_partition = false;
    let mut rounds = 0usize;
    while rounds < MAX_STEPS {
        let _step_span = obs::trace::span_dyn(|| format!("sched:step{rounds}"));
        // (Re-)partition when there is none, the engine demands a fresh
        // one, the previous step asked for one, or drift/staleness
        // crossed the threshold.
        let mut need_partition =
            current.is_none() || engine.volatile_partition() || force_partition;
        force_partition = false;
        let mut queue: BTreeMap<u32, i64> = BTreeMap::new();
        if !need_partition {
            let (partition, _) = current.as_ref().expect("checked above");
            let (q, unassigned) = sched.queue(mig, partition);
            if sched.needs_repartition(mig, unassigned) || (q.is_empty() && unassigned > 0) {
                need_partition = true;
            } else {
                queue = q;
            }
        }
        if need_partition {
            let _span = obs::trace::span("sched:partition");
            let _timer = obs::metrics::timer(Metric::SchedRepartitionNs);
            current = Some(engine.partition(mig, max_regions(mig)));
            sched.gates_at_partition = mig.num_gates();
            add(Metric::SchedRepartitions, 1);
            if !first {
                // Remap the pending frontier onto the fresh partition
                // (dead slots simply drop out of the queue).
                queue = sched
                    .queue(mig, &current.as_ref().expect("just partitioned").0)
                    .0;
            }
        }
        let (partition, state) = current.as_ref().expect("partition ensured");
        let nonempty = partition.num_nonempty_regions();
        // Scheduled regions: everything on the first step, afterwards
        // only the dirty regions, ordered by priority (expected gain
        // descending) then stable region id descending — topmost shards
        // first among equal priorities, mirroring the serial top-down
        // traversals.
        let active: Vec<u32> = if first {
            (0..partition.num_regions() as u32)
                .filter(|&r| !partition.members(r).is_empty())
                .rev()
                .collect()
        } else {
            let mut regions: Vec<(i64, u32)> = queue.into_iter().map(|(r, p)| (p, r)).collect();
            regions.sort_unstable_by_key(|&(p, r)| std::cmp::Reverse((p, r)));
            regions.into_iter().map(|(_, r)| r).collect()
        };
        if active.is_empty() {
            break;
        }
        // Consume the frontier for this step — but keep live dirty nodes
        // the partition cannot place (created on appended slots, or
        // recycled into freed member slots, after it was computed): they
        // stay queued, and keep exerting staleness pressure, until a
        // re-partition assigns them a region. Dead slots drop out.
        sched
            .frontier
            .retain(|&(n, _)| mig.is_gate(n) && partition.region_of_live(mig, n).is_none());
        if !first {
            add(
                Metric::SchedSkippedClean,
                nonempty.saturating_sub(active.len()) as u64,
            );
        }
        first = false;
        add(Metric::SchedProposedRegions, active.len() as u64);
        let before_metric = cfg.guard.map(|metric| metric(mig));
        let snapshot = before_metric.is_some().then(|| mig.clone());
        // Everything the step changes — each commit's dirt, or the
        // whole-graph hook's — lands in the dirty log after this cursor.
        let step_start = mig.dirty_cursor();
        let whole_graph = partition.num_regions() <= 1;
        // The step body runs in its own metric scope: a rolled-back
        // step's engine-recorded outcome counters must vanish with the
        // undone work, while its event history survives.
        let ((outcome, hooked), step_delta) = obs::metrics::scoped(|| {
            let hook = if whole_graph {
                engine.whole_graph_round(mig).map(|(replacements, gain)| {
                    // The hook bypasses the commit path; seed the next
                    // step's frontier from the dirty log directly.
                    let dirt = mig.dirty_since(step_start).unwrap_or(&[]);
                    sched.frontier.extend(dirt.iter().map(|&n| (n, gain)));
                    RoundOutcome {
                        committed: usize::from(replacements > 0),
                        replacements,
                        gain,
                        ..RoundOutcome::default()
                    }
                })
            } else {
                None
            };
            match hook {
                Some(outcome) => (outcome, true),
                None => {
                    {
                        let _span = obs::trace::span("sched:prepare");
                        engine.prepare(mig);
                    }
                    let outcome = propose_and_commit(
                        mig,
                        engine,
                        partition,
                        state,
                        &active,
                        cfg.threads,
                        &mut sched.frontier,
                    );
                    (outcome, false)
                }
            }
        });
        rounds += 1;
        add(Metric::SchedSteps, 1);
        // Conflicts are event history: they happened even when the step
        // commits nothing (a pure-retry step) or is rolled back, so they
        // are counted unconditionally.
        add(Metric::ShardConflicted, outcome.conflicted as u64);
        add(Metric::SchedRetried, outcome.conflicted as u64);
        if outcome.committed == 0 {
            step_delta.publish();
            if outcome.conflicted > 0 && rounds < MAX_STEPS {
                // Everything this step proposed was refused; the stale
                // regions were re-queued against a partition that may no
                // longer describe the graph. Re-partition before the
                // retry so the loop cannot ping-pong on stale views.
                force_partition = true;
                continue;
            }
            break;
        }
        if let (Some(metric), Some(before)) = (cfg.guard, before_metric) {
            if metric(mig) >= before {
                // The step failed to improve (gains are estimates;
                // structural hashing and refused substitutions shift the
                // real counts): roll back, like the serial convergence
                // loops do. The step's outcome counters roll back with
                // it; its event history does not.
                if let Some(snap) = snapshot {
                    *mig = snap;
                }
                step_delta.publish_history();
                break;
            }
        }
        step_delta.publish();
        if !hooked {
            // A whole-graph serial hook records its rewrites under its
            // own engine metrics inside the step scope; counting them
            // here as well would double-report.
            add(Metric::ShardCommitted, outcome.committed as u64);
            add(Metric::ShardReplacements, outcome.replacements);
            addi(Metric::ShardGain, outcome.gain);
        }
        // Between steps the graph is quiescent: when enough slots have
        // died, renumber them out ([`Mig::compact`]) so the remaining
        // steps (and every later pass) walk dense arrays. Deterministic:
        // the trigger is a pure function of the graph state.
        if mig.dead_slot_pct() >= COMPACT_PCT {
            let _span = obs::trace::span("sched:compact");
            let map = mig.compact();
            if !map.is_identity() {
                add(Metric::SchedCompactions, 1);
                // Carry the pending frontier across the renumbering
                // (dead slots drop out) and force a fresh partition —
                // region assignments are node-indexed too. Engines see
                // the compaction as a gap in the dirty log at their
                // next prepare.
                sched.frontier = sched
                    .frontier
                    .iter()
                    .filter_map(|&(n, p)| map.remap(n).map(|m| (m, p)))
                    .collect();
                force_partition = true;
            }
        }
    }
    mig.sweep();
}

/// One step's propose phase (parallel, read-only, per-region result
/// slots) followed by its serial commit phase.
fn propose_and_commit<E: ProposeEngine>(
    mig: &mut Mig,
    engine: &E,
    partition: &RegionPartition,
    state: &E::RoundState,
    active: &[u32],
    threads: usize,
    frontier: &mut Vec<(NodeId, i64)>,
) -> RoundOutcome {
    // Workers steal region indices off a shared counter; results land in
    // per-region slots so the commit order is independent of scheduling.
    let slots: Vec<Mutex<Vec<Proposal<E::Payload>>>> =
        active.iter().map(|_| Mutex::new(Vec::new())).collect();
    let next = AtomicUsize::new(0);
    let frozen: &Mig = mig;
    let workers = threads.max(1).min(active.len());
    let work = |start: Option<&std::sync::Barrier>| {
        let _worker_span = obs::trace::span("propose:worker");
        if let Some(barrier) = start {
            barrier.wait();
        }
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= active.len() {
                break;
            }
            let _region_span = obs::trace::span_dyn(|| format!("propose:r{}", active[i]));
            let props = engine.propose(frozen, partition, state, active[i]);
            *slots[i].lock().expect("proposal slot poisoned") = props;
        }
    };
    {
        let _propose_span = obs::trace::span("propose");
        if workers == 1 {
            // One worker runs on the calling thread: a spawned thread
            // would overlap with nothing and only add its start-up.
            work(None);
        } else {
            // Workers sync on a start barrier: load imbalance then shows
            // up as idle span tails instead of thread-start skew, and the
            // per-worker spans of one phase genuinely coexist even on one
            // hardware thread. Each worker records into its own metric
            // scope, published here after the join, so the step's scope
            // (and whatever run encloses it) sees the workers' counters.
            let barrier = std::sync::Barrier::new(workers);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| scope.spawn(|| obs::metrics::scoped(|| work(Some(&barrier))).1))
                    .collect();
                for h in handles {
                    h.join().expect("propose worker").publish();
                }
            });
        }
    }
    let proposals: Vec<Proposal<E::Payload>> = slots
        .into_iter()
        .flat_map(|m| m.into_inner().unwrap())
        .collect();
    let _commit_span = obs::trace::span("commit");
    commit_proposals(mig, engine, &proposals, frontier)
}

/// The commit phase (see the module docs): every proposal, in order,
/// either commits on the live graph or — when its footprint intersects
/// the dirt of an earlier commit in this call — is refused. `frontier`
/// receives, with the proposal's gain as priority, the nodes whose
/// regions must be proposed again: the footprints of refused proposals
/// and everything a commit dirtied. Level decreases settle once, when
/// the phase ends.
pub fn commit_proposals<E: ProposeEngine>(
    mig: &mut Mig,
    engine: &E,
    proposals: &[Proposal<E::Payload>],
    frontier: &mut Vec<(NodeId, i64)>,
) -> RoundOutcome {
    mig.with_deferred_levels(|mig| commit_each(mig, engine, proposals, frontier))
}

fn commit_each<E: ProposeEngine>(
    mig: &mut Mig,
    engine: &E,
    proposals: &[Proposal<E::Payload>],
    frontier: &mut Vec<(NodeId, i64)>,
) -> RoundOutcome {
    let mut outcome = RoundOutcome::default();
    // Nodes touched earlier in this step; a proposal whose footprint
    // intersects it was analyzed against a graph that no longer exists.
    let mut step_dirty: FxHashSet<NodeId> = FxHashSet::default();
    for prop in proposals {
        let cursor = mig.dirty_cursor();
        let verdict = if prop.footprint.iter().any(|n| step_dirty.contains(n)) {
            CommitVerdict::Conflicted
        } else {
            engine.commit(mig, &prop.payload)
        };
        match verdict {
            CommitVerdict::Applied { replacements } => {
                outcome.committed += 1;
                outcome.replacements += replacements;
                outcome.gain += prop.gain;
            }
            CommitVerdict::Conflicted => {
                outcome.conflicted += 1;
                frontier.extend(prop.footprint.iter().map(|&n| (n, prop.gain)));
            }
            CommitVerdict::Rejected => {}
        }
        let dirt = mig
            .dirty_since(cursor)
            .expect("nothing drains inside a commit step");
        step_dirty.extend(dirt.iter().copied());
        frontier.extend(dirt.iter().map(|&n| (n, prop.gain)));
    }
    #[cfg(debug_assertions)]
    mig.debug_check();
    outcome
}

/// The convergence skeleton of a scheduled converge pass (the scheduler
/// paired with the engine's serial stages):
///
/// * graphs too small to shard (under 24 gates: one region) run
///   `serial` alone (the degenerate case);
/// * an optional `baseline` pass runs first under the configured guard
///   metric ([`gates_metric`] when none is set) and is rolled back when
///   it replaced something without improving the metric — the quality
///   floor for engines whose serial analysis is global (the bottom-up
///   candidate DP) and cannot be reproduced regionally. It returns its
///   replacement count;
/// * the scheduler then runs to quiescence;
/// * after a baseline, `serial` runs once more as the polish, recovering
///   moves that span region boundaries from the (much smaller) quiescent
///   graph.
///
/// Results go to the metric registry: the scheduler's `sched.*` and
/// `shard.*` counters, and whatever the serial stages record.
pub fn run_scheduled_converge<E: ProposeEngine>(
    mig: &mut Mig,
    engine: &mut E,
    cfg: &ShardConfig,
    serial: &mut dyn FnMut(&mut Mig),
    baseline: Option<&mut dyn FnMut(&mut Mig) -> u64>,
) {
    if max_regions(mig) <= 1 {
        let _span = obs::trace::span("serial");
        serial(mig);
        return;
    }
    let polish = baseline.is_some();
    if let Some(baseline) = baseline {
        let _span = obs::trace::span("baseline");
        let metric = cfg.guard.unwrap_or(gates_metric);
        let before = metric(mig);
        let snapshot = mig.clone();
        let (replacements, base_delta) = obs::metrics::scoped(|| baseline(mig));
        if replacements > 0 && metric(mig) >= before {
            *mig = snapshot;
            base_delta.publish_history();
        } else {
            base_delta.publish();
        }
    }
    run_scheduler(mig, engine, cfg);
    if polish {
        let _span = obs::trace::span("polish");
        serial(mig);
        mig.sweep();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PartitionStrategy, Signal};
    use std::collections::HashSet;

    /// A toy engine removing redundant conjunction: `<0 a <0 a b>>`
    /// computes the same function as its inner gate, so the root can be
    /// substituted by the inner signal (gain 1). The payload is the root.
    struct RedundantAndEngine;

    /// Matches the pattern at `root` and returns the replacement signal.
    fn redundant_and(mig: &Mig, root: NodeId) -> Option<Signal> {
        if !mig.is_gate(root) {
            return None;
        }
        let ops = mig.fanins(root);
        if ops[0] != Signal::ZERO {
            return None;
        }
        for (i, &inner) in ops.iter().enumerate().skip(1) {
            if inner.is_complemented() || !mig.is_gate(inner.node()) {
                continue;
            }
            let other = ops[3 - i];
            let inner_ops = mig.fanins(inner.node());
            if inner_ops[0] == Signal::ZERO && inner_ops.contains(&other) {
                return Some(inner);
            }
        }
        None
    }

    /// The toy proposal at `root` over the current graph.
    fn and_proposal(mig: &Mig, root: NodeId) -> Option<Proposal<NodeId>> {
        let inner = redundant_and(mig, root)?;
        Some(Proposal {
            payload: root,
            footprint: vec![root, inner.node()],
            gain: 1,
        })
    }

    impl ProposeEngine for RedundantAndEngine {
        type Payload = NodeId;
        type RoundState = ();

        fn partition(&self, mig: &Mig, max_regions: usize) -> (RegionPartition, ()) {
            let p = RegionPartition::compute(mig, PartitionStrategy::LevelBands { max_regions });
            (p, ())
        }

        fn propose(
            &self,
            mig: &Mig,
            partition: &RegionPartition,
            _state: &(),
            region: u32,
        ) -> Vec<Proposal<NodeId>> {
            let mut props = Vec::new();
            let mut claimed: HashSet<NodeId> = HashSet::new();
            for &v in partition.members(region).iter().rev() {
                if claimed.contains(&v) {
                    continue;
                }
                if let Some(p) = and_proposal(mig, v) {
                    claimed.extend(p.footprint.iter().copied());
                    props.push(p);
                }
            }
            props
        }

        fn commit(&self, mig: &mut Mig, &root: &NodeId) -> CommitVerdict {
            // Live recheck: the pattern must still be present.
            let Some(inner) = redundant_and(mig, root) else {
                return CommitVerdict::Conflicted;
            };
            if mig.replace_node(root, inner) {
                CommitVerdict::Applied { replacements: 1 }
            } else {
                CommitVerdict::Rejected
            }
        }
    }

    /// A ladder of redundant conjunctions: every other gate repeats the
    /// conjunction below it and collapses under the toy engine. Inputs
    /// are cycled so exhaustive simulation stays feasible.
    fn redundant_ladder(pairs: usize) -> Mig {
        let mut m = Mig::new(8);
        let mut acc = m.input(0);
        for i in 0..pairs {
            let x = m.input(1 + i % 7);
            let inner = m.and(acc, x);
            acc = m.and(inner, x); // redundant: equals `inner`
        }
        m.add_output(acc);
        m
    }

    fn cfg(threads: usize) -> ShardConfig {
        ShardConfig {
            threads,
            guard: None,
        }
    }

    /// Runs the scheduler and returns what it recorded.
    fn scheduled(mig: &mut Mig, cfg: &ShardConfig) -> obs::Delta {
        obs::metrics::scoped(|| run_scheduler(mig, &mut RedundantAndEngine, cfg)).1
    }

    #[test]
    fn scheduler_collapses_all_redundancy_deterministically() {
        let m = redundant_ladder(60);
        let want = m.output_truth_tables();
        assert!(max_regions(&m) >= 4, "test premise: sharded");
        let mut netlist = None;
        for threads in [1usize, 2, 4, 8, 16] {
            let mut opt = m.clone();
            let d = scheduled(&mut opt, &cfg(threads));
            assert!(
                d.get(obs::Metric::ShardReplacements) > 0,
                "@{threads}: nothing rewritten"
            );
            assert_eq!(opt.output_truth_tables(), want, "@{threads}");
            // Quiescence: no redundant pair survives.
            for g in opt.gates() {
                assert!(
                    redundant_and(&opt, g).is_none(),
                    "@{threads}: gate {g} still redundant"
                );
            }
            opt.debug_check();
            // Determinism: a repeat run is bit-identical.
            let mut again = m.clone();
            scheduled(&mut again, &cfg(threads));
            assert_eq!(
                again.fingerprint(),
                opt.fingerprint(),
                "@{threads}: nondeterministic netlist"
            );
            // One netlist at every thread count.
            let first = *netlist.get_or_insert(opt.fingerprint());
            assert_eq!(opt.fingerprint(), first, "@{threads}: differs from @1");
        }
    }

    #[test]
    fn scheduler_skips_clean_regions() {
        // Redundancy concentrated at the bottom of the graph, with a tall
        // irredundant majority chain on top: after the first full step
        // only the dirtied bottom regions (and their fanout frontier) are
        // ever re-proposed — the clean chain bands are skipped, which a
        // full-sweep round loop could not do.
        let mut m = Mig::new(8);
        let mut acc = m.input(0);
        for i in 0..12 {
            let x = m.input(1 + i % 7);
            let inner = m.and(acc, x);
            acc = m.and(inner, x);
        }
        for i in 0..120 {
            let x = m.input(1 + i % 7);
            let y = m.input(1 + (i + 3) % 7);
            acc = m.maj(acc, x, !y);
        }
        m.add_output(acc);
        let want = m.output_truth_tables();
        let mut opt = m.clone();
        let d = scheduled(&mut opt, &cfg(2));
        assert!(d.get(obs::Metric::ShardReplacements) > 0);
        assert_eq!(opt.output_truth_tables(), want);
        let sched = SchedStats::from_delta(&d);
        assert!(
            sched.skipped_clean > 0,
            "clean regions were re-proposed: {sched:?}"
        );
        assert!(sched.proposed_regions > 0);
    }

    #[test]
    fn guarded_steps_roll_back_when_the_metric_fails() {
        // A guard that always reports "worse" must leave the graph
        // untouched (step rolled back) while still counting the step.
        let m = redundant_ladder(40);
        let mut opt = m.clone();
        let cfg = ShardConfig {
            guard: Some(|_m: &Mig| (0, 0)),
            ..cfg(2)
        };
        assert!(max_regions(&m) > 1, "test premise: sharded");
        let d = scheduled(&mut opt, &cfg);
        assert_eq!(
            d.get(obs::Metric::ShardReplacements),
            0,
            "rolled-back step must not count"
        );
        assert_eq!(
            opt.fingerprint(),
            m.fingerprint(),
            "rollback restored the graph"
        );
        assert_eq!(d.get(obs::Metric::SchedSteps), 1);
    }

    #[test]
    fn disjoint_proposals_batched_commit_bit_identical_to_one_at_a_time() {
        // Two redundant pairs in unrelated cones: committing both in one
        // step must produce the exact netlist one-at-a-time commits
        // produce, with both proposals committed.
        let build = || {
            let mut m = Mig::new(8);
            let (a, b, c, d) = (m.input(0), m.input(1), m.input(2), m.input(3));
            let i1 = m.and(a, b);
            let r1 = m.and(i1, b); // redundant pair 1
            let u1 = m.maj(r1, a, !b); // separate fanout frontiers: no
            let i2 = m.and(c, d); //     shared parent between the cones
            let r2 = m.and(i2, d); // redundant pair 2
            let u2 = m.maj(r2, c, !d);
            m.add_output(u1);
            m.add_output(u2);
            (m, r1.node(), r2.node())
        };
        let (mut batched, r1, r2) = build();
        let props: Vec<_> = [r1, r2]
            .map(|r| and_proposal(&batched, r).expect("pattern present"))
            .into();
        let outcome = commit_proposals(&mut batched, &RedundantAndEngine, &props, &mut Vec::new());
        assert_eq!(outcome.committed, 2);
        assert_eq!(outcome.conflicted, 0);
        batched.debug_check();

        let (mut serial, r1, r2) = build();
        for root in [r1, r2] {
            let p = and_proposal(&serial, root).expect("pattern present");
            let o = commit_proposals(&mut serial, &RedundantAndEngine, &[p], &mut Vec::new());
            assert_eq!(o.committed, 1);
        }
        assert_eq!(
            batched.fingerprint(),
            serial.fingerprint(),
            "batched commit diverged from one-at-a-time commits"
        );
    }

    #[test]
    fn overlapping_proposals_degrade_to_the_conflict_retry_path() {
        // Two stacked redundant pairs: committing the lower one rewires
        // the upper one's footprint, so the upper proposal must be
        // refused (conflict, queued for retry), not applied against the
        // drifted graph. A third pair in an unrelated cone still lands
        // in the same step.
        let mut m = Mig::new(4);
        let (a, b, c, d) = (m.input(0), m.input(1), m.input(2), m.input(3));
        let i1 = m.and(a, b);
        let r1 = m.and(i1, b); // lower redundant pair
        let i2 = m.and(r1, c);
        let r2 = m.and(i2, c); // upper redundant pair, feeds on r1
        let i3 = m.and(a, d);
        let r3 = m.and(i3, d); // unrelated redundant pair
        m.add_output(r2);
        m.add_output(r3);
        let want = m.output_truth_tables();
        let props: Vec<_> = [r1, r2, r3]
            .map(|r| and_proposal(&m, r.node()).expect("pattern present"))
            .into();
        let high_footprint = props[1].footprint.clone();
        let mut frontier = Vec::new();
        let outcome = commit_proposals(&mut m, &RedundantAndEngine, &props, &mut frontier);
        assert_eq!(outcome.committed, 2, "lower and unrelated proposals land");
        assert_eq!(outcome.conflicted, 1, "upper proposal refused for retry");
        assert!(!m.is_gate(r3.node()), "unrelated pair collapsed");
        assert!(
            high_footprint
                .iter()
                .all(|n| frontier.iter().any(|&(f, _)| f == *n)),
            "conflicted footprint queued for the next step"
        );
        assert_eq!(m.output_truth_tables(), want, "function preserved");
        m.debug_check();
    }

    /// A commit whose cascade reaches two fanout hops past its footprint
    /// must land — applied, not dropped, and bit-identical to a direct
    /// `replace_node` on the same graph.
    #[test]
    fn escaped_cascade_falls_back_to_serial_application() {
        /// Commits `replace_node(root, repl)` as proposed.
        struct CollapseEngine;
        impl ProposeEngine for CollapseEngine {
            type Payload = (NodeId, Signal);
            type RoundState = ();
            fn partition(&self, mig: &Mig, max_regions: usize) -> (RegionPartition, ()) {
                let p =
                    RegionPartition::compute(mig, PartitionStrategy::LevelBands { max_regions });
                (p, ())
            }
            fn propose(
                &self,
                _mig: &Mig,
                _partition: &RegionPartition,
                _state: &(),
                _region: u32,
            ) -> Vec<Proposal<(NodeId, Signal)>> {
                Vec::new()
            }
            fn commit(&self, mig: &mut Mig, &(root, repl): &(NodeId, Signal)) -> CommitVerdict {
                if mig.replace_node(root, repl) {
                    CommitVerdict::Applied { replacements: 1 }
                } else {
                    CommitVerdict::Rejected
                }
            }
        }

        // Replacing `root` by `a` collapses `mid` (<a a !b> = a), which
        // substitutes into `outer` — two fanout hops from the footprint.
        let build = || {
            let mut m = Mig::new(4);
            let (a, b, c) = (m.input(0), m.input(1), m.input(2));
            let inner = m.and(a, b);
            let root = m.and(inner, b);
            let mid = m.maj(root, a, !b);
            let outer = m.maj(mid, c, a);
            m.add_output(outer);
            (m, root.node(), inner.node(), a)
        };
        let (mut m, root, inner, a) = build();
        let prop = Proposal {
            payload: (root, a),
            footprint: vec![root, inner],
            gain: 1,
        };
        let outcome = commit_proposals(&mut m, &CollapseEngine, &[prop], &mut Vec::new());
        assert_eq!(outcome.committed, 1, "cascading proposal lands");
        assert_eq!(outcome.conflicted, 0);
        m.debug_check();

        let (mut serial, root, _, a) = build();
        assert!(serial.replace_node(root, a));
        assert_eq!(
            m.fingerprint(),
            serial.fingerprint(),
            "commit diverged from a direct replace_node"
        );
    }
}

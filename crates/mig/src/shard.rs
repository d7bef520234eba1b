//! Event-driven propose/commit convergence: the scheduler that lets any
//! local-rewriting engine converge with work proportional to what
//! actually changed, instead of re-traversing the whole graph per round.
//!
//! The protocol was born in the functional-hashing crate (parallel cut
//! replacement) but nothing in it is specific to cuts: a *proposal* is an
//! opaque engine payload plus a **footprint** (the step-start nodes its
//! analysis depends on), an expected **gain**, and a **legality recheck**
//! performed at commit time against the live graph. Engines plug in
//! through [`ProposeEngine`]; the [`Scheduler`] owns everything else:
//!
//! 1. **Partition.** [`ProposeEngine::partition`] carves the live gates
//!    into regions (the engine picks the strategy — FFR forest, level
//!    bands, …). Unlike the original round loop, the partition is
//!    **persistent**: it is rebuilt only when the live gate count drifts
//!    or enough dirty nodes fall outside every region (both thresholds in
//!    [`ShardConfig::repartition_pct`]), or for engines whose analysis is
//!    global ([`ProposeEngine::volatile_partition`]).
//! 2. **Schedule.** A deterministic priority queue of dirty regions —
//!    seeded from each commit's footprint and the graph's non-draining
//!    dirty-log cursor ([`crate::Mig::dirty_since`]), ordered by expected
//!    gain then stable region id — decides what gets proposed. After the
//!    first step, only queued (dirty) regions are re-proposed; clean
//!    regions are skipped entirely.
//! 3. **Propose.** Worker threads (`std::thread::scope`, work-stealing
//!    over the scheduled region list) call [`ProposeEngine::propose`]
//!    read-only on a frozen graph; results land in per-region slots so
//!    commit order is independent of scheduling.
//! 4. **Commit serially.** The step's proposals commit one at a time on
//!    the live graph, in the order propose returned them (region-slot
//!    order). A proposal whose footprint intersects anything dirtied
//!    earlier in the step was analyzed against a graph that no longer
//!    exists: it is refused and its region retries next step.
//!    [`ProposeEngine::commit`] re-checks its own legality against the
//!    live graph either way.
//!
//! Steps repeat until the queue drains (no dirty region and no dirty
//! node outside the partition); engines whose steps are not individually
//! monotone set a [`ShardConfig::guard`] metric — such steps run against
//! a snapshot and are rolled back (ending the loop) when the metric
//! fails to improve, the same guarantee the serial convergence loops
//! provided.
//!
//! For a fixed input graph, engine and thread count the resulting
//! netlist is bit-deterministic: the queue order and the commit order
//! never depend on worker scheduling — threads only decide *who*
//! analyzes each region.

use crate::fxhash::FxHashSet;
use crate::{CompactMap, Mig, NodeId, RegionPartition};
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// A rewriting engine pluggable into [`run_scheduler`].
///
/// The engine analyzes regions read-only ([`ProposeEngine::propose`] runs
/// concurrently on a frozen `&Mig`) and applies its proposals one at a
/// time on the live graph ([`ProposeEngine::commit`], which must re-check
/// legality itself — the driver only guarantees that the proposal's
/// footprint is structurally untouched within the current step).
pub trait ProposeEngine: Sync {
    /// One proposed local rewrite (opaque to the driver; handed from the
    /// propose workers to the committing thread).
    type Proposal: Send;
    /// Read state shared by all workers while a partition is live (e.g.
    /// an FFR view of the graph). Use `()` when none is needed.
    type RoundState: Sync;

    /// Partitions the live gates into regions and prepares the shared
    /// read state. Called on the first step and whenever the scheduler's
    /// re-partition policy fires (live-gate drift or region staleness
    /// past [`ShardConfig::repartition_pct`]) — *not* every step, so the
    /// state may lag the graph by up to that threshold. Engines that
    /// cannot tolerate any lag return `true` from
    /// [`ProposeEngine::volatile_partition`].
    fn partition(&self, mig: &Mig, max_regions: usize) -> (RegionPartition, Self::RoundState);

    /// Whether the partition (and round state) must be rebuilt before
    /// every step. For engines whose proposal analysis is global — e.g.
    /// whole-region extraction, which must see a coherent member list —
    /// rather than local pattern matching that a stale region assignment
    /// merely makes less precise.
    fn volatile_partition(&self) -> bool {
        false
    }

    /// Invalidation hook, called after each step with the nodes the
    /// step's commits structurally changed. Engines carrying analysis
    /// caches across steps (cut lists, …) stale them here.
    fn invalidate(&self, _mig: &Mig, _changed: &[NodeId]) {}

    /// Renumbering hook, called after the driver compacts the graph
    /// ([`crate::Mig::compact`]): every node id may have changed, so
    /// engines carrying *node-indexed* caches must remap or drop them
    /// here. The driver re-partitions unconditionally afterwards, so
    /// partition-derived round state needs no migration.
    fn remap(&self, _map: &CompactMap) {}

    /// Generates the proposals of one region, read-only. A worker's own
    /// proposals should not overlap (the driver would refuse the later
    /// one as a conflict).
    fn propose(
        &self,
        mig: &Mig,
        partition: &RegionPartition,
        state: &Self::RoundState,
        region: u32,
    ) -> Vec<Self::Proposal>;

    /// The step-start nodes this proposal's analysis depends on. The
    /// commit phase refuses the proposal if any of them was structurally
    /// touched earlier in the step.
    fn footprint<'a>(&self, proposal: &'a Self::Proposal) -> &'a [NodeId];

    /// The proposal's expected gain (accumulated into [`ShardStats`] and
    /// used as the retry priority of its region).
    fn gain(&self, proposal: &Self::Proposal) -> i64;

    /// Re-checks the proposal against the live graph and applies it.
    fn commit(&self, mig: &mut Mig, proposal: &Self::Proposal) -> CommitVerdict;

    /// Hook for steps whose partition degenerates to a single region.
    /// Engines whose single-region proposal would merely reproduce their
    /// serial pass (with perturbed tie-breaking) can run the serial pass
    /// directly here and return `Some((replacements, gain))`; the
    /// default `None` runs the regular propose/commit machinery.
    fn whole_graph_round(&self, _mig: &mut Mig) -> Option<(u64, i64)> {
        None
    }
}

/// A serial engine stage pluggable into [`run_scheduled_converge`]:
/// mutates the graph and reports `(replacements, gain)`.
pub type SerialPass<'a> = dyn FnMut(&mut Mig) -> (u64, i64) + 'a;

/// A step-acceptance metric: a lexicographic pair (smaller is better)
/// evaluated on the whole graph, e.g. `(gates, depth)` for a size
/// script or `(depth, gates)` for a depth script.
pub type RoundMetric = fn(&Mig) -> (u64, u64);

/// The default baseline guard when an engine sets no
/// [`ShardConfig::guard`]: plain gate count.
fn gates_only_metric(mig: &Mig) -> (u64, u64) {
    (mig.num_gates() as u64, 0)
}

/// Tuning of the event-driven scheduler.
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Worker threads for the propose phase.
    pub threads: usize,
    /// Regions per worker thread: over-partitioning smooths load
    /// imbalance between shards of unequal rewriting opportunity.
    pub regions_per_thread: usize,
    /// Minimum gates per region: small graphs are not fragmented below
    /// this (a sliver region sees too little context, and per-region
    /// overhead would dominate).
    pub min_region_size: usize,
    /// Backstop on scheduler steps. Committing steps improve the graph,
    /// so this is never the expected exit.
    pub max_rounds: usize,
    /// Optional per-step acceptance metric (lexicographic, smaller is
    /// better). When set, every step runs against a snapshot and is
    /// rolled back — ending the loop — if the metric fails to improve.
    /// Engines whose commits are individually improving leave this
    /// `None` and skip the snapshot cost.
    pub guard: Option<RoundMetric>,
    /// Re-partition threshold, in percent of the gate count at partition
    /// time: the partition is rebuilt when the live gate count drifts by
    /// more than this, or when more than this fraction of pending dirty
    /// nodes falls outside every region (nodes created after the
    /// partition). Until then the scheduler reuses the partition, so a
    /// step costs only the dirty regions.
    pub repartition_pct: u32,
    /// Compaction threshold, in percent of slots on the free list: after
    /// a step ends with the dead-slot density past this, the driver
    /// renumbers the graph ([`crate::Mig::compact`]), remaps its pending
    /// frontier, hands engines the remap ([`ProposeEngine::remap`]) and
    /// forces a re-partition — so long-churning runs keep their slot
    /// arrays dense instead of chasing ever-sparser cache lines. `0`
    /// disables scheduler-driven compaction.
    pub compact_pct: u32,
}

impl ShardConfig {
    /// Default tuning for `threads` workers (4 regions per thread,
    /// 12-gate region floor, 64-step backstop, no guard, 20% drift
    /// threshold, 25% dead-slot compaction threshold). The floor keeps
    /// a region wide enough for a full
    /// 4-feasible cut cone plus fanout context while letting graphs in
    /// the tens of gates still split into a handful of shards — small
    /// benchmarks keep exercising (and tracing) the parallel propose
    /// phase instead of degenerating to the whole-graph hook.
    pub fn new(threads: usize) -> Self {
        ShardConfig {
            threads: threads.max(1),
            regions_per_thread: 4,
            min_region_size: 12,
            max_rounds: 64,
            guard: None,
            repartition_pct: 20,
            compact_pct: 25,
        }
    }

    /// The region bound for the current graph: follows the live gate
    /// count, so shrinking graphs coalesce toward the single-region
    /// degenerate case (equal to the serial engine).
    pub fn max_regions(&self, mig: &Mig) -> usize {
        (self.threads * self.regions_per_thread)
            .min(mig.num_gates() / self.min_region_size)
            .max(1)
    }

    /// Whether `mig` is large enough for region scheduling to beat a
    /// serial pass. Callers should fall back to their serial engine when
    /// this is false.
    pub fn shardable(&self, mig: &Mig) -> bool {
        (self.threads * self.regions_per_thread).min(mig.num_gates() / self.min_region_size) > 1
    }
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

/// Event counters of the [`Scheduler`], reported by the `migopt`
/// per-pass notes.
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
    /// Accumulates another run's counters into this one.
    pub fn absorb(&mut self, other: SchedStats) {
        self.steps += other.steps;
        self.proposed_regions += other.proposed_regions;
        self.skipped_clean += other.skipped_clean;
        self.retried += other.retried;
        self.repartitions += other.repartitions;
    }

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

/// Accumulated statistics of a [`run_scheduler`] call.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Scheduler steps run (including a final empty or rolled-back
    /// step).
    pub rounds: usize,
    /// Total proposals committed.
    pub committed: u64,
    /// Total proposals refused for retry.
    pub conflicted: u64,
    /// Total individual substitutions.
    pub replacements: u64,
    /// Total expected gain of committed proposals.
    pub gain: i64,
    /// Scheduler event counters.
    pub sched: SchedStats,
}

impl ShardStats {
    /// Accumulates another run's statistics into this one.
    pub fn absorb(&mut self, other: ShardStats) {
        self.rounds += other.rounds;
        self.committed += other.committed;
        self.conflicted += other.conflicted;
        self.replacements += other.replacements;
        self.gain += other.gain;
        self.sched.absorb(other.sched);
    }

    /// Reconstructs the scheduler-attributed statistics from a
    /// metric-registry delta. Counters a whole-graph serial hook records
    /// under its own engine metrics (`fhash.*` / `alg.*`) are *not*
    /// folded in here; engine-level reports sum both families.
    pub fn from_delta(d: &obs::Delta) -> Self {
        ShardStats {
            rounds: d.get(obs::Metric::SchedSteps) as usize,
            committed: d.get(obs::Metric::ShardCommitted),
            conflicted: d.get(obs::Metric::ShardConflicted),
            replacements: d.get(obs::Metric::ShardReplacements),
            gain: d.geti(obs::Metric::ShardGain),
            sched: SchedStats::from_delta(d),
        }
    }
}

/// The event-driven convergence core: the deterministic priority queue
/// of dirty nodes (mapped onto regions of the current partition each
/// step) and the re-partition bookkeeping.
///
/// Owned by [`run_scheduler`]; exposed for documentation of the
/// scheduling state, not for external construction.
pub struct Scheduler {
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
    fn new() -> Self {
        Scheduler {
            frontier: Vec::new(),
            gates_at_partition: 0,
        }
    }

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
    /// unassigned-dirt staleness past the configured threshold.
    fn needs_repartition(&self, mig: &Mig, cfg: &ShardConfig, unassigned: usize) -> bool {
        let base = self.gates_at_partition.max(1);
        let drift = mig.num_gates().abs_diff(self.gates_at_partition);
        drift * 100 > base * cfg.repartition_pct as usize
            || unassigned * 100 > base * cfg.repartition_pct as usize
    }
}

/// Runs event-driven propose/commit steps to quiescence (no dirty region
/// left, a guarded step fails to improve, or `cfg.max_rounds` is hit).
///
/// Sweeps dangling cones up front (regions are analyzed in isolation;
/// dangling logic would pollute membership, boundary sets and gain
/// estimates) and again before returning. The graph's dirty log is
/// *peeked* through cursors, never drained, so carried analyses outside
/// the scheduler (a pipeline's cut set) keep their invalidation feed.
pub fn run_scheduler<E: ProposeEngine>(mig: &mut Mig, engine: &E, cfg: &ShardConfig) -> ShardStats {
    let (_, delta) = obs::metrics::scoped(|| run_scheduler_steps(mig, engine, cfg));
    delta.publish();
    ShardStats::from_delta(&delta)
}

/// The scheduler loop proper. Every counter goes to the metric registry
/// ([`run_scheduler`] reconstructs the [`ShardStats`] report from its
/// scope delta); each step runs inside a nested metric scope so a guard
/// rollback drops the undone step's outcome counters while
/// [`obs::Delta::publish_history`] keeps its event history — uniformly
/// for every engine.
fn run_scheduler_steps<E: ProposeEngine>(mig: &mut Mig, engine: &E, cfg: &ShardConfig) {
    use obs::metrics::{add, addi};
    use obs::Metric;
    mig.sweep();
    let mut sched = Scheduler::new();
    let mut current: Option<(RegionPartition, E::RoundState)> = None;
    let mut first = true;
    let mut force_partition = false;
    let mut rounds = 0usize;
    while rounds < cfg.max_rounds {
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
            if sched.needs_repartition(mig, cfg, unassigned) || (q.is_empty() && unassigned > 0) {
                need_partition = true;
            } else {
                queue = q;
            }
        }
        if need_partition {
            let _span = obs::trace::span("sched:partition");
            let _timer = obs::metrics::timer(Metric::SchedRepartitionNs);
            current = Some(engine.partition(mig, cfg.max_regions(mig)));
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
        let mut changed: Vec<NodeId> = Vec::new();
        let whole_graph = partition.num_regions() <= 1;
        // The step body runs in its own metric scope: a rolled-back
        // step's engine-recorded outcome counters must vanish with the
        // undone work, while its event history survives.
        let ((outcome, hooked), step_delta) = obs::metrics::scoped(|| {
            let hook = if whole_graph {
                let cursor = mig.dirty_cursor();
                engine.whole_graph_round(mig).map(|(replacements, gain)| {
                    // The hook bypasses the commit path; seed the next
                    // step's frontier from the dirty log directly.
                    for &n in mig.dirty_since(cursor).unwrap_or(&[]) {
                        changed.push(n);
                        sched.frontier.push((n, gain));
                    }
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
                None => (
                    propose_and_commit(
                        mig,
                        engine,
                        partition,
                        state,
                        &active,
                        cfg,
                        &mut sched,
                        &mut changed,
                    ),
                    false,
                ),
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
            if outcome.conflicted > 0 && rounds < cfg.max_rounds {
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
        if !changed.is_empty() {
            engine.invalidate(mig, &changed);
        }
        // Between steps the graph is quiescent: when enough slots have
        // died, renumber them out ([`Mig::compact`]) so the remaining
        // steps (and every later pass) walk dense arrays. Deterministic:
        // the trigger is a pure function of the graph state.
        if cfg.compact_pct > 0 && mig.dead_slot_pct() >= u64::from(cfg.compact_pct) {
            let _span = obs::trace::span("sched:compact");
            let map = mig.compact();
            if !map.is_identity() {
                add(Metric::SchedCompactions, 1);
                // Carry the pending frontier across the renumbering
                // (dead slots drop out), hand engines the remap for
                // their node-indexed caches, and force a fresh
                // partition — region assignments are node-indexed too.
                sched.frontier = sched
                    .frontier
                    .iter()
                    .filter_map(|&(n, p)| map.remap(n).map(|m| (m, p)))
                    .collect();
                engine.remap(&map);
                force_partition = true;
            }
        }
    }
    mig.sweep();
}

/// One step's propose phase (parallel, read-only, per-region result
/// slots) followed by its serial commit phase.
#[allow(clippy::too_many_arguments)]
fn propose_and_commit<E: ProposeEngine>(
    mig: &mut Mig,
    engine: &E,
    partition: &RegionPartition,
    state: &E::RoundState,
    active: &[u32],
    cfg: &ShardConfig,
    sched: &mut Scheduler,
    changed: &mut Vec<NodeId>,
) -> RoundOutcome {
    // Workers steal region indices off a shared counter; results land in
    // per-region slots so the commit order is independent of scheduling.
    let slots: Vec<Mutex<Vec<E::Proposal>>> =
        active.iter().map(|_| Mutex::new(Vec::new())).collect();
    let next = AtomicUsize::new(0);
    let frozen: &Mig = mig;
    let workers = cfg.threads.max(1).min(active.len());
    // Workers sync on a start barrier: load imbalance then shows up as
    // idle span tails instead of thread-start skew, and the per-worker
    // spans of one phase genuinely coexist even on one hardware thread.
    let barrier = std::sync::Barrier::new(workers);
    {
        let _propose_span = obs::trace::span("propose");
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let _worker_span = obs::trace::span("propose:worker");
                    barrier.wait();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= active.len() {
                            break;
                        }
                        let _region_span =
                            obs::trace::span_dyn(|| format!("propose:r{}", active[i]));
                        let props = engine.propose(frozen, partition, state, active[i]);
                        *slots[i].lock().unwrap() = props;
                    }
                });
            }
        });
    }
    let proposals: Vec<E::Proposal> = slots
        .into_iter()
        .flat_map(|m| m.into_inner().unwrap())
        .collect();
    let _commit_span = obs::trace::span("commit");
    // The scheduler's next step is driven by the frontier alone; no
    // stale set is materialized on this path.
    commit_serially(
        mig,
        engine,
        &proposals,
        None,
        Some(&mut sched.frontier),
        changed,
    )
}

/// Applies one step's proposals through the scheduler's commit phase.
/// `stale` receives the nodes whose regions must be re-proposed next
/// step: everything dirtied by a commit, plus the footprints of
/// conflicted proposals. Exposed so engines can regression-test their
/// commit behavior against hand-built proposals.
pub fn commit_proposals<E: ProposeEngine>(
    mig: &mut Mig,
    engine: &E,
    proposals: Vec<E::Proposal>,
    stale: &mut HashSet<NodeId>,
) -> RoundOutcome {
    commit_serially(mig, engine, &proposals, Some(stale), None, &mut Vec::new())
}

/// Records a refused proposal's footprint for retry.
fn note_refused(
    stale: &mut Option<&mut HashSet<NodeId>>,
    frontier: &mut Option<&mut Vec<(NodeId, i64)>>,
    footprint: &[NodeId],
    gain: i64,
) {
    if let Some(stale) = stale.as_deref_mut() {
        stale.extend(footprint.iter().copied());
    }
    if let Some(front) = frontier.as_deref_mut() {
        front.extend(footprint.iter().map(|&n| (n, gain)));
    }
}

/// Feeds one commit's dirt into the step-conflict set, the stale set,
/// the invalidation list and the retry frontier.
fn note_dirt(
    step_dirty: &mut FxHashSet<NodeId>,
    stale: &mut Option<&mut HashSet<NodeId>>,
    frontier: &mut Option<&mut Vec<(NodeId, i64)>>,
    changed: &mut Vec<NodeId>,
    dirt: &[NodeId],
    gain: i64,
) {
    for &n in dirt {
        step_dirty.insert(n);
        if let Some(stale) = stale.as_deref_mut() {
            stale.insert(n);
        }
        changed.push(n);
        if let Some(front) = frontier.as_deref_mut() {
            front.push((n, gain));
        }
    }
}

/// The commit phase (see the module docs): every proposal, in order,
/// either commits on the live graph or — when its footprint intersects
/// the dirt of an earlier commit in this step — is refused and queued
/// for retry.
fn commit_serially<E: ProposeEngine>(
    mig: &mut Mig,
    engine: &E,
    proposals: &[E::Proposal],
    mut stale: Option<&mut HashSet<NodeId>>,
    mut frontier: Option<&mut Vec<(NodeId, i64)>>,
    changed: &mut Vec<NodeId>,
) -> RoundOutcome {
    let mut outcome = RoundOutcome::default();
    // Nodes touched earlier in this step; a proposal whose footprint
    // intersects it was analyzed against a graph that no longer exists.
    let mut step_dirty: FxHashSet<NodeId> = FxHashSet::default();
    for prop in proposals {
        let footprint = engine.footprint(prop);
        let gain = engine.gain(prop);
        if footprint.iter().any(|n| step_dirty.contains(n)) {
            outcome.conflicted += 1;
            note_refused(&mut stale, &mut frontier, footprint, gain);
            continue;
        }
        let cursor = mig.dirty_cursor();
        match engine.commit(mig, prop) {
            CommitVerdict::Applied { replacements } => {
                outcome.committed += 1;
                outcome.replacements += replacements;
                outcome.gain += gain;
            }
            CommitVerdict::Conflicted => {
                outcome.conflicted += 1;
                note_refused(&mut stale, &mut frontier, footprint, gain);
            }
            CommitVerdict::Rejected => {}
        }
        let dirt = mig
            .dirty_since(cursor)
            .expect("nothing drains inside a commit step");
        note_dirt(
            &mut step_dirty,
            &mut stale,
            &mut frontier,
            changed,
            dirt,
            gain,
        );
    }
    #[cfg(debug_assertions)]
    mig.debug_check();
    outcome
}

/// The shared convergence skeleton for engines that pair the scheduler
/// with a serial engine (every converge driver in the workspace):
///
/// * graphs too small to shard run `serial` alone (the degenerate case,
///   bit-identical to a single-threaded run);
/// * an optional `baseline` pass runs first under the configured guard
///   metric and is rolled back unless it improves — the quality floor
///   for engines whose serial analysis is global (the bottom-up
///   candidate DP) and cannot be reproduced regionally;
/// * the scheduler then runs to quiescence;
/// * with `polish`, `serial` runs once more afterwards, recovering moves
///   that span region boundaries from the (much smaller) quiescent
///   graph.
///
/// `serial` and `baseline` report `(replacements, gain)`; their numbers
/// are merged into the returned [`ShardStats`].
pub fn run_scheduled_converge<E: ProposeEngine>(
    mig: &mut Mig,
    engine: &E,
    cfg: &ShardConfig,
    serial: &mut SerialPass<'_>,
    baseline: Option<&mut SerialPass<'_>>,
    polish: bool,
) -> ShardStats {
    // Serial stages report `(replacements, gain)` pairs that engines
    // already record under their own metrics; they are folded into the
    // returned struct only (not re-recorded) to avoid double counting.
    let mut serial_repl = 0u64;
    let mut serial_gain = 0i64;
    let (_, delta) = obs::metrics::scoped(|| {
        if !cfg.shardable(mig) {
            let _span = obs::trace::span("serial");
            let (replacements, gain) = serial(mig);
            serial_repl += replacements;
            serial_gain += gain;
            return;
        }
        if let Some(baseline) = baseline {
            let _span = obs::trace::span("baseline");
            let metric = cfg.guard.unwrap_or(gates_only_metric);
            let before = metric(mig);
            let snapshot = mig.clone();
            let ((replacements, gain), base_delta) = obs::metrics::scoped(|| baseline(mig));
            if replacements > 0 && metric(mig) >= before {
                *mig = snapshot;
                base_delta.publish_history();
            } else {
                base_delta.publish();
                serial_repl += replacements;
                serial_gain += gain;
            }
        }
        run_scheduler(mig, engine, cfg);
        if polish {
            let _span = obs::trace::span("polish");
            let (replacements, gain) = serial(mig);
            serial_repl += replacements;
            serial_gain += gain;
            mig.sweep();
        }
    });
    delta.publish();
    let mut stats = ShardStats::from_delta(&delta);
    stats.replacements += serial_repl;
    stats.gain += serial_gain;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PartitionStrategy, Signal};

    /// A toy engine removing redundant conjunction: `<0 a <0 a b>>`
    /// computes the same function as its inner gate, so the root can be
    /// substituted by the inner signal (gain 1).
    struct RedundantAndEngine;

    struct AndProposal {
        root: NodeId,
        footprint: Vec<NodeId>,
    }

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

    impl ProposeEngine for RedundantAndEngine {
        type Proposal = AndProposal;
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
        ) -> Vec<AndProposal> {
            let mut props = Vec::new();
            let mut claimed: HashSet<NodeId> = HashSet::new();
            for &v in partition.members(region).iter().rev() {
                if claimed.contains(&v) {
                    continue;
                }
                if let Some(inner) = redundant_and(mig, v) {
                    let footprint = vec![v, inner.node()];
                    claimed.extend(footprint.iter().copied());
                    props.push(AndProposal { root: v, footprint });
                }
            }
            props
        }

        fn footprint<'a>(&self, p: &'a AndProposal) -> &'a [NodeId] {
            &p.footprint
        }

        fn gain(&self, _p: &AndProposal) -> i64 {
            1
        }

        fn commit(&self, mig: &mut Mig, p: &AndProposal) -> CommitVerdict {
            // Live recheck: the pattern must still be present.
            let Some(inner) = redundant_and(mig, p.root) else {
                return CommitVerdict::Conflicted;
            };
            if mig.replace_node(p.root, inner) {
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

    fn small_cfg(threads: usize) -> ShardConfig {
        ShardConfig {
            min_region_size: 4,
            ..ShardConfig::new(threads)
        }
    }

    #[test]
    fn scheduler_collapses_all_redundancy_deterministically() {
        let m = redundant_ladder(60);
        let want = m.output_truth_tables();
        let mut results = Vec::new();
        for threads in [1usize, 2, 4] {
            let mut opt = m.clone();
            let stats = run_scheduler(&mut opt, &RedundantAndEngine, &small_cfg(threads));
            assert!(stats.replacements > 0, "@{threads}: nothing rewritten");
            assert_eq!(opt.output_truth_tables(), want, "@{threads}");
            // Quiescence: no redundant pair survives.
            for g in opt.gates() {
                assert!(
                    redundant_and(&opt, g).is_none(),
                    "@{threads}: gate {g} still redundant"
                );
            }
            opt.debug_check();
            let gates: Vec<_> = opt.gates().map(|g| (g, opt.fanins(g))).collect();
            results.push((threads, opt.num_gates(), gates, opt.outputs().to_vec()));
        }
        // Determinism: repeat runs per thread count are bit-identical.
        for &(threads, gates, ref fanins, ref outs) in &results {
            let mut again = m.clone();
            run_scheduler(&mut again, &RedundantAndEngine, &small_cfg(threads));
            assert_eq!(again.num_gates(), gates, "@{threads}");
            let fp: Vec<_> = again.gates().map(|g| (g, again.fanins(g))).collect();
            assert_eq!(&fp, fanins, "@{threads}: nondeterministic netlist");
            assert_eq!(&again.outputs().to_vec(), outs, "@{threads}");
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
        let stats = run_scheduler(&mut opt, &RedundantAndEngine, &small_cfg(2));
        assert!(stats.replacements > 0);
        assert_eq!(opt.output_truth_tables(), want);
        assert!(
            stats.sched.skipped_clean > 0,
            "clean regions were re-proposed: {:?}",
            stats.sched
        );
        assert!(stats.sched.proposed_regions > 0);
    }

    #[test]
    fn guarded_steps_roll_back_when_the_metric_fails() {
        // A guard that always reports "worse" must leave the graph
        // untouched (step rolled back) while still counting the step.
        let m = redundant_ladder(40);
        let mut opt = m.clone();
        let cfg = ShardConfig {
            guard: Some(|_m: &Mig| (0, 0)),
            ..small_cfg(2)
        };
        let before: Vec<_> = opt.gates().map(|g| (g, opt.fanins(g))).collect();
        let stats = run_scheduler(&mut opt, &RedundantAndEngine, &cfg);
        assert_eq!(stats.replacements, 0, "rolled-back step must not count");
        let after: Vec<_> = opt.gates().map(|g| (g, opt.fanins(g))).collect();
        assert_eq!(before, after, "rollback restored the graph");
        assert_eq!(stats.rounds, 1);
    }

    /// Builds the toy proposal at `root` over the current graph.
    fn and_proposal(mig: &Mig, root: NodeId) -> AndProposal {
        let inner = redundant_and(mig, root).expect("pattern present");
        AndProposal {
            root,
            footprint: vec![root, inner.node()],
        }
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
        let p1 = and_proposal(&batched, r1);
        let p2 = and_proposal(&batched, r2);
        let mut stale = HashSet::new();
        let outcome = commit_proposals(&mut batched, &RedundantAndEngine, vec![p1, p2], &mut stale);
        assert_eq!(outcome.committed, 2);
        assert_eq!(outcome.conflicted, 0);
        batched.debug_check();

        let (mut serial, r1, r2) = build();
        for root in [r1, r2] {
            let p = and_proposal(&serial, root);
            let mut stale = HashSet::new();
            let o = commit_proposals(&mut serial, &RedundantAndEngine, vec![p], &mut stale);
            assert_eq!(o.committed, 1);
        }
        let fp_b: Vec<_> = batched.gates().map(|g| (g, batched.fanins(g))).collect();
        let fp_s: Vec<_> = serial.gates().map(|g| (g, serial.fanins(g))).collect();
        assert_eq!(
            fp_b, fp_s,
            "batched commit diverged from one-at-a-time commits"
        );
        assert_eq!(batched.outputs(), serial.outputs());
        assert_eq!(batched.num_nodes(), serial.num_nodes());
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
        let p_low = and_proposal(&m, r1.node());
        let p_high = and_proposal(&m, r2.node());
        let p_other = and_proposal(&m, r3.node());
        let high_footprint = p_high.footprint.clone();
        let mut stale = HashSet::new();
        let outcome = commit_proposals(
            &mut m,
            &RedundantAndEngine,
            vec![p_low, p_high, p_other],
            &mut stale,
        );
        assert_eq!(outcome.committed, 2, "lower and unrelated proposals land");
        assert_eq!(outcome.conflicted, 1, "upper proposal refused for retry");
        assert!(!m.is_gate(r3.node()), "unrelated pair collapsed");
        assert!(
            high_footprint.iter().all(|n| stale.contains(n)),
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
        struct CollapseEngine;
        struct CollapseProposal {
            root: NodeId,
            repl: Signal,
            footprint: Vec<NodeId>,
        }
        impl ProposeEngine for CollapseEngine {
            type Proposal = CollapseProposal;
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
            ) -> Vec<CollapseProposal> {
                Vec::new()
            }
            fn footprint<'a>(&self, p: &'a CollapseProposal) -> &'a [NodeId] {
                &p.footprint
            }
            fn gain(&self, _p: &CollapseProposal) -> i64 {
                1
            }
            fn commit(&self, mig: &mut Mig, p: &CollapseProposal) -> CommitVerdict {
                if mig.replace_node(p.root, p.repl) {
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
        let prop = CollapseProposal {
            root,
            repl: a,
            footprint: vec![root, inner],
        };
        let mut stale = HashSet::new();
        let outcome = commit_proposals(&mut m, &CollapseEngine, vec![prop], &mut stale);
        assert_eq!(outcome.committed, 1, "cascading proposal lands");
        assert_eq!(outcome.conflicted, 0);
        m.debug_check();

        let (mut serial, root, _, a) = build();
        assert!(serial.replace_node(root, a));
        let fp = |m: &Mig| {
            (
                m.num_nodes(),
                m.gates().map(|g| (g, m.fanins(g))).collect::<Vec<_>>(),
                m.outputs().to_vec(),
            )
        };
        assert_eq!(
            fp(&m),
            fp(&serial),
            "commit diverged from a direct replace_node"
        );
    }
}

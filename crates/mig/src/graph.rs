//! The Majority-Inverter Graph.
//!
//! Follows the formal definition of paper §II-B: a DAG whose terminals are
//! the primary inputs and the constant 0, whose internal nodes are ternary
//! majority operations, and whose edges and outputs carry polarity bits.
//!
//! Construction uses structural hashing: [`Mig::maj`] normalizes its
//! operands (majority axiom `<aab> = a`, `<aab̄> = b`, operand sorting, and
//! self-duality `<āb̄c̄> = ¬<abc>` so at most one operand of a hashed node
//! is complemented) and reuses existing nodes.
//!
//! Beyond append-only construction the graph is a *managed network*: every
//! node tracks its fanout references (parent gates and primary-output
//! slots), dead nodes are recycled through a free list, levels are
//! maintained incrementally (see *Levels* below), and
//! [`Mig::replace_node`] substitutes one
//! node by an equivalent signal *in place* — patching fanouts, keeping the
//! structural-hash table consistent (merging gates that become
//! structurally identical), and recursively freeing the cone that loses
//! its last reference. This makes a local rewrite cost proportional to the
//! affected region instead of the whole graph. Every field of [`Mig`] is
//! private to this module, so the fanout back-pointers, the structural
//! hash, the free list and the levels are kept consistent in one place.
//!
//! After in-place rewriting, node **index order is no longer a topological
//! order** (freed slots are reused and fanins can be redirected to
//! later-created nodes). Algorithms that need topological order must use
//! [`Mig::topo_gates`]; [`Mig::gates`] only guarantees ascending slot
//! order over live gates.
//!
//! # Levels
//!
//! Every node stores a level (terminals 0, gates 1 + max fanin level).
//! By default each [`Mig::replace_node`] keeps them exact by walking the
//! rewired gates' transitive fanout, which on a graph thousands of
//! levels deep costs far more than the rewrite itself. A loop that
//! rewrites in batches runs inside [`Mig::with_deferred_levels`]
//! instead: there a decrease lowers only the rewired gate and queues
//! the gates above it, and raises still propagate at once. The queue is
//! drained in increasing level order, each gate recomputed once per
//! drain: up to a node's level when a reader needs that node's cone
//! exact ([`Mig::settle_levels_for`]), and completely when the scope
//! ends.
//! Stored levels stay a topological labelling throughout (every gate
//! above each of its fanins), so [`Mig::depends_on`] stays exact;
//! inside a scope they are upper bounds, outside they are exact.

use crate::fanout::FanoutList;
use crate::fxhash::FxHashMap;
use crate::{NodeId, Signal};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Tag bit distinguishing primary-output references from gate references
/// in the per-node fanout lists.
const OUT_FLAG: u32 = 1 << 31;

/// Sentinel fanout entry protecting a node referenced from the pending
/// substitution stack of [`Mig::replace_node`]: a cascade step may kill
/// the last real reference to a pending replacement signal, and the guard
/// keeps its cone alive until the pair is processed. Guards are transient
/// (inserted at push, dropped at pop) and never survive a `replace_node`
/// call.
const GUARD: u32 = u32::MAX;

/// A position in a graph's structural-change history, taken with
/// [`Mig::dirty_cursor`] and read back with [`Mig::dirty_since`].
///
/// Cursors are cheap value types: every consumer of the change log keeps
/// its own and advances it independently, so no consumer has to drain
/// (and thereby steal) the log from the others. The default cursor
/// points at the beginning of history, so `dirty_since(default)` reports
/// the whole undrained log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct DirtyCursor(u64);

/// The old→new slot renumbering returned by [`Mig::compact`].
///
/// Terminals always map to themselves; live gates map to their
/// topological position; freed slots map to nothing. Consumers holding
/// node ids across a compaction translate them here — `None` means the
/// slot no longer exists (it was dead at compaction time).
#[derive(Debug, Clone)]
pub struct CompactMap {
    /// Old slot → new slot; [`CompactMap::GONE`] for freed slots. Empty
    /// for the identity map.
    map: Vec<NodeId>,
    /// Slot count of the graph the map was taken from.
    old_len: usize,
    /// Slot count of the compacted graph (the range of the map).
    new_len: usize,
    identity: bool,
}

impl CompactMap {
    /// Marker for slots that were dead at compaction time.
    const GONE: NodeId = NodeId::MAX;

    /// Whether the compaction was a no-op fixpoint (every slot kept its
    /// id; nothing needs migrating).
    pub fn is_identity(&self) -> bool {
        self.identity
    }

    /// Slot count of the pre-compaction graph (the domain of the map).
    pub fn old_len(&self) -> usize {
        self.old_len
    }

    /// Slot count of the compacted graph (the range of the map);
    /// consumers permuting node-indexed arrays size them with this.
    pub fn new_len(&self) -> usize {
        self.new_len
    }

    /// The new slot of old node `n`, or `None` when the slot was dead at
    /// compaction time (or out of the old graph's range).
    pub fn remap(&self, n: NodeId) -> Option<NodeId> {
        if self.identity {
            return ((n as usize) < self.old_len).then_some(n);
        }
        match self.map.get(n as usize) {
            Some(&m) if m != Self::GONE => Some(m),
            _ => None,
        }
    }
}

/// Result of normalizing a majority operand triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Normalized {
    /// The majority simplifies to an existing signal (no node needed).
    Copy(Signal),
    /// A structural node with the given canonical fanins is needed; the
    /// flag records whether the *output* of that node must be complemented
    /// to realize the requested function.
    Node([Signal; 3], bool),
}

/// Normalizes a majority operand triple without touching any graph.
///
/// Rules applied (in order): operand sorting by signal code;
/// `<aab> -> a`; `<aāb> -> b`; polarity canonicalization via self-duality
/// so that at most one operand of the structural node is complemented.
pub fn normalize_maj(mut ops: [Signal; 3]) -> Normalized {
    ops.sort_unstable();
    let [a, b, c] = ops;
    // Identical or complementary operand pairs (sorted, so equal nodes are
    // adjacent; complementary pairs share a node).
    if a == b {
        return Normalized::Copy(a);
    }
    if b == c {
        return Normalized::Copy(b);
    }
    if a.node() == b.node() {
        // a == !b
        return Normalized::Copy(c);
    }
    if b.node() == c.node() {
        // b == !c
        return Normalized::Copy(a);
    }
    // Self-duality: if two or more operands are complemented, flip all
    // three and complement the output.
    let ncompl = usize::from(a.is_complemented())
        + usize::from(b.is_complemented())
        + usize::from(c.is_complemented());
    if ncompl >= 2 {
        Normalized::Node([!a, !b, !c], true)
    } else {
        Normalized::Node([a, b, c], false)
    }
}

/// A Majority-Inverter Graph.
///
/// # Examples
///
/// Build the full adder of the paper's Fig. 1 (3 nodes, depth 2):
///
/// ```
/// use mig::Mig;
///
/// let mut m = Mig::new(3);
/// let (a, b, cin) = (m.input(0), m.input(1), m.input(2));
/// let cout = m.maj(a, b, cin);
/// let u = m.maj(a, b, !cin);
/// let sum = m.maj(!cout, u, cin);
/// m.add_output(sum);
/// m.add_output(cout);
/// assert_eq!(m.num_gates(), 3);
/// assert_eq!(m.depth(), 2);
/// ```
pub struct Mig {
    /// Fanins per node; terminals (constant + inputs) and dead slots hold
    /// dummy entries.
    fanins: Vec<[Signal; 3]>,
    num_inputs: usize,
    outputs: Vec<Signal>,
    strash: FxHashMap<[Signal; 3], NodeId>,
    /// Fanout references per node: parent gate ids, plus `OUT_FLAG |
    /// output_index` entries for primary-output slots. The list length is
    /// the node's reference count. Stored inline-first ([`FanoutList`]):
    /// typical fanouts need no heap allocation or pointer chase.
    fanouts: Vec<FanoutList>,
    /// Back-pointers for O(1) fanout-entry removal: for gate `n` and
    /// fanin slot `k`, `fanout_pos[n][k]` is the index of `n`'s entry in
    /// `fanouts[fanins[n][k].node()]`. Kept consistent under swap-removal.
    fanout_pos: Vec<[u32; 3]>,
    /// Back-pointer per primary-output slot: index of the `OUT_FLAG | i`
    /// entry in the driver's fanout list.
    out_pos: Vec<u32>,
    /// Dead-slot markers (freed gates awaiting reuse).
    dead: Vec<bool>,
    /// Freed slots available for reuse by new gates.
    free: Vec<NodeId>,
    /// Per-slot reuse generation, bumped every time a gate slot is
    /// freed. A slot id alone cannot tell an original node from an
    /// unrelated one recycled into the same slot; consumers holding
    /// node references across rewrites (a persistent region partition)
    /// compare generations to detect recycling.
    slot_gen: Vec<u32>,
    /// Incrementally maintained levels (terminals 0, gates 1 + max
    /// fanin): exact outside a deferral scope, upper bounds that still
    /// form a topological labelling inside one.
    level: Vec<u32>,
    /// Deferred level decreases and the settle's reusable buffers.
    upkeep: LevelUpkeep,
    /// Live (non-dead) gate count.
    live_gates: usize,
    /// Structurally changed node ids (created, rewired or killed) since
    /// the last [`Mig::drain_dirty`] — consumed by incremental analyses
    /// such as cut-set invalidation.
    dirty: Vec<NodeId>,
    /// Total number of dirty entries ever drained: the absolute position
    /// of `dirty[0]` in the graph's change history. Lets [`DirtyCursor`]s
    /// stay meaningful across drains (and detect when entries they still
    /// needed were drained away).
    dirty_base: u64,
    /// Cached topological gate order, shared with simulation and other
    /// repeated consumers; invalidated at the same sites that feed the
    /// dirty log. Behind a mutex (not a `RefCell`) so `&Mig` stays `Sync`
    /// for the sharded rewriting workers.
    topo_cache: Mutex<Option<Arc<Vec<NodeId>>>>,
    /// Epoch-stamped scratch for [`Mig::depends_on`], replacing a fresh
    /// `HashSet` allocation per call.
    dep_scratch: Mutex<DepScratch>,
}

/// The state of [`Mig::with_deferred_levels`]: whether decreases are
/// deferred, and the worklist of gates that may sit above their exact
/// level because a fanin was lowered, bucketed by level so a settle can
/// drain it in increasing level order and stop at any level. Outside a
/// scope the buffers are empty.
#[derive(Clone)]
struct LevelUpkeep {
    /// Inside a deferral scope.
    deferring: bool,
    /// `queue[l]` holds the gates queued at level `l`. An entry for gate
    /// `n` is live only while `queued_at[n] == l`; the others are
    /// leftovers of a gate queued again lower down, or already settled.
    queue: Vec<Vec<NodeId>>,
    /// The level gate `n` is queued at, `NOT_QUEUED` when it is not.
    /// Every gate whose stored level exceeds one plus its highest fanin
    /// level is queued at or below its level.
    queued_at: Vec<u32>,
    /// No live entry sits below this level, so every gate below it is
    /// exact (a stale gate sits at or above a queued one).
    /// `NOT_QUEUED` when the queue is empty.
    low: u32,
}

/// [`LevelUpkeep::queued_at`] of a gate that is not queued.
const NOT_QUEUED: u32 = u32::MAX;

impl LevelUpkeep {
    fn new() -> Self {
        LevelUpkeep {
            deferring: false,
            queue: Vec::new(),
            queued_at: Vec::new(),
            low: NOT_QUEUED,
        }
    }

    /// Queues gate `n` at `level` (its stored level) unless it is queued
    /// at or below that level already.
    fn enqueue(&mut self, n: NodeId, level: u32) {
        let n = n as usize;
        if self.queued_at.len() <= n {
            self.queued_at.resize(n + 1, NOT_QUEUED);
        }
        if self.queued_at[n] <= level {
            return;
        }
        self.queued_at[n] = level;
        let l = level as usize;
        if self.queue.len() <= l {
            self.queue.resize_with(l + 1, Vec::new);
        }
        self.queue[l].push(n as NodeId);
        self.low = self.low.min(level);
    }
}

#[derive(Default)]
struct DepScratch {
    /// `stamp[n] == epoch` marks node `n` visited in the current call.
    stamp: Vec<u32>,
    epoch: u32,
    /// Reused DFS stack.
    stack: Vec<NodeId>,
}

impl Clone for Mig {
    fn clone(&self) -> Self {
        Mig {
            fanins: self.fanins.clone(),
            num_inputs: self.num_inputs,
            outputs: self.outputs.clone(),
            strash: self.strash.clone(),
            fanouts: self.fanouts.clone(),
            fanout_pos: self.fanout_pos.clone(),
            out_pos: self.out_pos.clone(),
            dead: self.dead.clone(),
            free: self.free.clone(),
            slot_gen: self.slot_gen.clone(),
            level: self.level.clone(),
            upkeep: self.upkeep.clone(),
            live_gates: self.live_gates,
            dirty: self.dirty.clone(),
            dirty_base: self.dirty_base,
            // The cached order is immutable behind an `Arc`; sharing it
            // with the clone is free and stays valid until either side
            // mutates (each invalidates only its own slot).
            topo_cache: Mutex::new(self.topo_cache.lock().unwrap().clone()),
            dep_scratch: Mutex::new(DepScratch::default()),
        }
    }
}

impl Mig {
    /// Creates an MIG with `num_inputs` primary inputs and no gates.
    pub fn new(num_inputs: usize) -> Self {
        let n = num_inputs + 1;
        Mig {
            fanins: vec![[Signal::ZERO; 3]; n],
            num_inputs,
            outputs: Vec::new(),
            strash: FxHashMap::default(),
            fanouts: vec![FanoutList::new(); n],
            fanout_pos: vec![[0; 3]; n],
            out_pos: Vec::new(),
            dead: vec![false; n],
            free: Vec::new(),
            slot_gen: vec![0; n],
            level: vec![0; n],
            upkeep: LevelUpkeep::new(),
            live_gates: 0,
            dirty: Vec::new(),
            dirty_base: 0,
            topo_cache: Mutex::new(None),
            dep_scratch: Mutex::new(DepScratch::default()),
        }
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of live majority gates (the paper's *size*), maintained in
    /// O(1) from the reference-counted node management. Gates freed by
    /// [`Mig::replace_node`] or [`Mig::sweep`] are not counted; gates that
    /// are merely dangling (refcount 0 but not yet swept) still are.
    pub fn num_gates(&self) -> usize {
        self.live_gates
    }

    /// Total number of node *slots* (constant + inputs + gates, including
    /// dead slots awaiting reuse). Per-node side arrays should be sized by
    /// this value.
    pub fn num_nodes(&self) -> usize {
        self.fanins.len()
    }

    /// The signal of primary input `i` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_inputs`.
    pub fn input(&self, i: usize) -> Signal {
        assert!(i < self.num_inputs, "input {i} out of range");
        Signal::new((i + 1) as NodeId, false)
    }

    /// All primary input signals, in index order.
    pub fn inputs(&self) -> impl Iterator<Item = Signal> + '_ {
        (0..self.num_inputs).map(|i| self.input(i))
    }

    /// The primary output signals.
    pub fn outputs(&self) -> &[Signal] {
        &self.outputs
    }

    /// Appends a primary output.
    pub fn add_output(&mut self, s: Signal) {
        debug_assert!((s.node() as usize) < self.fanins.len());
        debug_assert!(!self.is_dead(s.node()));
        let i = self.outputs.len() as u32;
        self.outputs.push(s);
        let pos = self.push_fanout(s.node(), OUT_FLAG | i);
        self.out_pos.push(pos);
    }

    /// Replaces output `i`, keeping fanout references consistent. The old
    /// driver is *not* freed even if it loses its last reference; call
    /// [`Mig::sweep`] to reclaim dangling cones.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_output(&mut self, i: usize, s: Signal) {
        let old = self.outputs[i];
        self.remove_fanout_at(old.node(), self.out_pos[i]);
        self.outputs[i] = s;
        self.out_pos[i] = self.push_fanout(s.node(), OUT_FLAG | i as u32);
    }

    /// Whether `n` is a terminal (constant or primary input).
    pub fn is_terminal(&self, n: NodeId) -> bool {
        (n as usize) <= self.num_inputs
    }

    /// Whether `n` is a live majority gate.
    pub fn is_gate(&self, n: NodeId) -> bool {
        (n as usize) > self.num_inputs && (n as usize) < self.fanins.len() && !self.dead[n as usize]
    }

    /// Whether slot `n` is a freed (dead) gate slot.
    pub fn is_dead(&self, n: NodeId) -> bool {
        self.dead[n as usize]
    }

    /// Whether `n` is a primary input.
    pub fn is_input(&self, n: NodeId) -> bool {
        n >= 1 && (n as usize) <= self.num_inputs
    }

    /// The reuse generation of slot `n` (bumped on every free). Two
    /// observations of the same slot id refer to the same node only if
    /// their generations match; see the `slot_gen` field.
    pub fn slot_generation(&self, n: NodeId) -> u32 {
        self.slot_gen[n as usize]
    }

    /// The index (0-based) of primary input node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not an input node.
    pub fn input_index(&self, n: NodeId) -> usize {
        assert!(self.is_input(n), "node {n} is not an input");
        n as usize - 1
    }

    /// The fanins of gate `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a live gate.
    pub fn fanins(&self, n: NodeId) -> [Signal; 3] {
        assert!(self.is_gate(n), "node {n} is not a gate");
        self.fanins[n as usize]
    }

    /// Iterates over all live gate node ids in ascending *slot* order.
    ///
    /// Slot order is a topological order only while the graph is built
    /// append-only; after [`Mig::replace_node`] it generally is not. Use
    /// [`Mig::topo_gates`] wherever fanins must be visited before fanouts.
    pub fn gates(&self) -> impl Iterator<Item = NodeId> + '_ {
        (self.num_inputs as u32 + 1..self.fanins.len() as u32).filter(|&n| !self.dead[n as usize])
    }

    /// All live gates in a topological order (every gate after its gate
    /// fanins), skipping dead slots. Includes dangling gates.
    ///
    /// The order is cached until the next structural change (the same
    /// events that feed the dirty log), so repeated calls on an unchanged
    /// graph cost a copy instead of a traversal. Hot loops that only read
    /// the order should prefer [`Mig::topo_gates_shared`], which avoids
    /// the copy as well.
    pub fn topo_gates(&self) -> Vec<NodeId> {
        self.topo_gates_shared().as_ref().clone()
    }

    /// The cached topological order behind a shared handle (see
    /// [`Mig::topo_gates`]). Cheap to call repeatedly: after the first
    /// computation only the reference count is touched until the graph
    /// changes structurally.
    pub fn topo_gates_shared(&self) -> Arc<Vec<NodeId>> {
        let mut cache = self.topo_cache.lock().unwrap();
        if let Some(order) = cache.as_ref() {
            return Arc::clone(order);
        }
        let order = Arc::new(self.compute_topo_gates());
        *cache = Some(Arc::clone(&order));
        order
    }

    /// Records a structural change to node `n`: feeds the dirty log and
    /// drops the cached topological order.
    fn note_structural_change(&mut self, n: NodeId) {
        self.dirty.push(n);
        *self.topo_cache.get_mut().unwrap() = None;
    }

    fn compute_topo_gates(&self) -> Vec<NodeId> {
        let n = self.fanins.len();
        // 0 = unvisited, 1 = on stack, 2 = emitted.
        let mut state = vec![0u8; n];
        let mut order = Vec::with_capacity(self.live_gates);
        let mut stack: Vec<(NodeId, bool)> = Vec::new();
        for root in self.gates() {
            if state[root as usize] != 0 {
                continue;
            }
            stack.push((root, false));
            while let Some((v, expanded)) = stack.pop() {
                if expanded {
                    state[v as usize] = 2;
                    order.push(v);
                    continue;
                }
                if state[v as usize] != 0 {
                    continue;
                }
                state[v as usize] = 1;
                stack.push((v, true));
                for s in self.fanins[v as usize] {
                    let m = s.node();
                    if !self.is_terminal(m) && state[m as usize] == 0 {
                        stack.push((m, false));
                    }
                }
            }
        }
        order
    }

    /// The live gates referencing `n` as a fanin.
    pub fn fanout_gates(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.fanouts[n as usize]
            .iter()
            .filter(|&f| f & OUT_FLAG == 0)
            .map(|f| f as NodeId)
    }

    /// The number of references to `n` (parent gates plus output slots),
    /// maintained in O(1).
    pub fn fanout_count(&self, n: NodeId) -> u32 {
        self.fanouts[n as usize].len() as u32
    }

    /// Fanout count per node (gate fanin references plus output
    /// references), indexed by node id.
    pub fn fanout_counts(&self) -> Vec<u32> {
        self.fanouts.iter().map(|f| f.len() as u32).collect()
    }

    /// Creates (or reuses) a majority gate `<abc>` and returns its signal.
    pub fn maj(&mut self, a: Signal, b: Signal, c: Signal) -> Signal {
        match normalize_maj([a, b, c]) {
            Normalized::Copy(s) => s,
            Normalized::Node(key, compl) => {
                let n = self.node_for_key(key);
                Signal::new(n, compl)
            }
        }
    }

    fn node_for_key(&mut self, key: [Signal; 3]) -> NodeId {
        if let Some(&n) = self.strash.get(&key) {
            return n;
        }
        debug_assert!(key
            .iter()
            .all(|s| { (s.node() as usize) < self.fanins.len() && !self.dead[s.node() as usize] }));
        let n = match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.dead[slot as usize]);
                self.dead[slot as usize] = false;
                slot
            }
            None => {
                let slot = self.fanins.len() as NodeId;
                self.fanins.push([Signal::ZERO; 3]);
                self.fanouts.push(FanoutList::new());
                self.fanout_pos.push([0; 3]);
                self.dead.push(false);
                self.slot_gen.push(0);
                self.level.push(0);
                slot
            }
        };
        self.fanins[n as usize] = key;
        self.strash.insert(key, n);
        for (k, s) in key.iter().enumerate() {
            self.fanout_pos[n as usize][k] = self.push_fanout(s.node(), n);
        }
        self.level[n as usize] = self.local_level(n);
        self.live_gates += 1;
        self.note_structural_change(n);
        n
    }

    /// Conjunction via `<0ab>`.
    pub fn and(&mut self, a: Signal, b: Signal) -> Signal {
        self.maj(Signal::ZERO, a, b)
    }

    /// Disjunction via `<1ab>`.
    pub fn or(&mut self, a: Signal, b: Signal) -> Signal {
        self.maj(Signal::ONE, a, b)
    }

    /// Exclusive-or (3 gates).
    pub fn xor(&mut self, a: Signal, b: Signal) -> Signal {
        let con = self.and(a, b);
        let dis = self.or(a, b);
        self.and(dis, !con)
    }

    /// Multiplexer `s ? t : e` (3 gates).
    pub fn mux(&mut self, s: Signal, t: Signal, e: Signal) -> Signal {
        let at = self.and(s, t);
        let ae = self.and(!s, e);
        self.or(at, ae)
    }

    /// Three-input exclusive-or sharing the majority `<abc>`: returns
    /// `(a ^ b ^ c, <abc>)` in 3 gates total — the paper's Fig. 1 full
    /// adder (`sum = <m̄ <abc̄> c>` with `m = <abc>`).
    pub fn xor3_with_maj(&mut self, a: Signal, b: Signal, c: Signal) -> (Signal, Signal) {
        let m = self.maj(a, b, c);
        let u = self.maj(a, b, !c);
        let sum = self.maj(!m, u, c);
        (sum, m)
    }

    /// Full adder: returns `(sum, carry)` in 3 gates.
    pub fn full_adder(&mut self, a: Signal, b: Signal, cin: Signal) -> (Signal, Signal) {
        self.xor3_with_maj(a, b, cin)
    }

    /// The level of node `n` (terminals 0, gates 1 + max fanin level).
    /// O(1). Exact, except inside [`Mig::with_deferred_levels`], where it
    /// is an upper bound that still exceeds every fanin's level.
    pub fn level(&self, n: NodeId) -> u32 {
        self.level[n as usize]
    }

    /// The level of each node, indexed by node id (dead slots report 0).
    /// A copy of the maintained table, no recomputation; upper bounds
    /// inside a deferral scope, like [`Mig::level`].
    pub fn levels(&self) -> Vec<u32> {
        self.level.clone()
    }

    /// The depth of the MIG: the maximum level over all outputs.
    /// O(#outputs). An upper bound inside a deferral scope, like
    /// [`Mig::level`].
    pub fn depth(&self) -> u32 {
        self.outputs
            .iter()
            .map(|s| self.level[s.node() as usize])
            .max()
            .unwrap_or(0)
    }

    /// Runs `f` with level decreases deferred, then settles them (see
    /// the module docs' *Levels*).
    ///
    /// Inside the scope a [`Mig::replace_node`] that makes a rewired gate
    /// shallower lowers only that gate and queues the gates above it,
    /// which keep their levels as valid upper bounds. Raises propagate
    /// at once, so levels remain a topological labelling and
    /// [`Mig::depends_on`] stays exact, while [`Mig::level`],
    /// [`Mig::levels`] and [`Mig::depth`] may read high. A reader that
    /// needs exact levels inside the scope calls
    /// [`Mig::settle_levels_for`]; when the outermost scope ends, every
    /// level is exact again. Scopes nest; [`Mig::compact`] must not run
    /// inside one.
    ///
    /// ```
    /// use mig::Mig;
    ///
    /// let mut m = Mig::new(3);
    /// let (a, b, c) = (m.input(0), m.input(1), m.input(2));
    /// let inner = m.maj(a, b, c);
    /// let mid = m.maj(inner, a, !b);
    /// let top = m.maj(mid, b, c);
    /// m.add_output(top);
    /// assert_eq!(m.depth(), 3);
    /// m.with_deferred_levels(|m| {
    ///     // `mid` is rewired onto <a !b c> and drops to level 1; `top`
    ///     // keeps its old level, a valid upper bound.
    ///     assert!(m.replace_node(inner.node(), c));
    ///     assert_eq!(m.level(mid.node()), 1);
    ///     assert_eq!(m.depth(), 3);
    ///     m.settle_levels_for(top.node());
    ///     assert_eq!(m.depth(), 2, "exact once settled");
    /// });
    /// ```
    pub fn with_deferred_levels<R>(&mut self, f: impl FnOnce(&mut Mig) -> R) -> R {
        let outer = std::mem::replace(&mut self.upkeep.deferring, true);
        let r = f(self);
        self.upkeep.deferring = outer;
        if !outer {
            self.settle_below(NOT_QUEUED);
            // Hand the queue's buffers back: a scope's end is rare next
            // to the work inside it, and the buffers would otherwise sit
            // through every eager pass and cut enumeration that follows.
            self.upkeep = LevelUpkeep::new();
        }
        r
    }

    /// Makes the levels of `n` and of its transitive fanin exact: inside
    /// a deferral scope, settles the queued decreases up to `n`'s level
    /// (a gate in `n`'s cone sits below it). Does nothing when no queued
    /// gate sits that low.
    pub fn settle_levels_for(&mut self, n: NodeId) {
        self.settle_below(self.level[n as usize].saturating_add(1));
    }

    /// Drains the deferred-decrease queue below level `bound`, in
    /// increasing level order, so a queued gate is normally recomputed
    /// after its queued fanins. A gate that drops queues its parents
    /// again, so a gate recomputed too early (one raised since it was
    /// queued) is revisited. Afterwards every gate below `bound` is
    /// exact: a stale gate sits at or above a queued one.
    /// Recorded as `mig.level_settles` / `mig.level_settle_ns` and the
    /// `levels:settle` span when there is work.
    fn settle_below(&mut self, bound: u32) {
        if self.upkeep.low >= bound {
            return;
        }
        let _span = obs::trace::span("levels:settle");
        let _timer = obs::metrics::timer(obs::Metric::MigLevelSettleNs);
        obs::metrics::add(obs::Metric::MigLevelSettles, 1);
        while self.upkeep.low < bound {
            let l = self.upkeep.low;
            let Some(v) = self.upkeep.queue[l as usize].pop() else {
                // Move on to the next non-empty bucket, if any.
                self.upkeep.low = (l as usize + 1..self.upkeep.queue.len())
                    .find(|&k| !self.upkeep.queue[k].is_empty())
                    .map_or(NOT_QUEUED, |k| k as u32);
                continue;
            };
            if self.upkeep.queued_at[v as usize] != l {
                continue; // queued again lower down, or settled already
            }
            self.upkeep.queued_at[v as usize] = NOT_QUEUED;
            if self.dead[v as usize] {
                continue;
            }
            let (cur, nl) = (self.level[v as usize], self.local_level(v));
            debug_assert!(nl <= cur, "settle raised gate {v}");
            if nl < cur {
                self.level[v as usize] = nl;
                self.queue_fanouts(v);
            }
        }
    }

    /// Queues every gate that reads `v` (their levels may now read high).
    fn queue_fanouts(&mut self, v: NodeId) {
        for f in self.fanouts[v as usize].iter() {
            if f & OUT_FLAG == 0 {
                self.upkeep.enqueue(f, self.level[f as usize]);
            }
        }
    }

    /// Drains the log of structurally changed node ids (created, rewired
    /// in place, or killed) accumulated since the last drain. Incremental
    /// analyses that *own* the log use this to invalidate only the
    /// affected region instead of rescanning the graph; consumers that
    /// share the log with others should use the non-draining
    /// [`Mig::dirty_cursor`] / [`Mig::dirty_since`] pair instead (a drain
    /// invalidates every cursor taken before it).
    pub fn drain_dirty(&mut self) -> Vec<NodeId> {
        self.dirty_base += self.dirty.len() as u64;
        std::mem::take(&mut self.dirty)
    }

    /// The undrained structural-change log (see [`Mig::drain_dirty`]),
    /// *without* consuming it.
    pub fn dirty_log(&self) -> &[NodeId] {
        &self.dirty
    }

    /// The current position in the structural-change history. Feed it
    /// back to [`Mig::dirty_since`] to read exactly the changes logged
    /// after this call, without consuming the log — so any number of
    /// consumers (a carried cut set, the convergence scheduler, a
    /// converge pass's re-scan frontier) can track their own frontier
    /// over one shared log.
    pub fn dirty_cursor(&self) -> DirtyCursor {
        DirtyCursor(self.dirty_base + self.dirty.len() as u64)
    }

    /// The structural changes logged since `cursor` was taken, oldest
    /// first. Returns `None` when entries the cursor still needed were
    /// drained away by [`Mig::drain_dirty`] — the consumer saw a gap and
    /// must fall back to a full re-scan.
    pub fn dirty_since(&self, cursor: DirtyCursor) -> Option<&[NodeId]> {
        let offset = cursor.0.checked_sub(self.dirty_base)?;
        // A cursor ahead of the log end (taken before a snapshot
        // rollback restored an older, shorter log) has nothing new to
        // report: the changes it was ahead of were undone.
        let offset = (offset as usize).min(self.dirty.len());
        Some(&self.dirty[offset..])
    }

    /// Drops the log prefix *before* `cursor` — entries every remaining
    /// consumer has already processed. This is what bounds log growth on
    /// long-lived graphs: the owner of the slowest outstanding cursor
    /// (e.g. a pipeline between passes, using its carried cut set's
    /// position) truncates what nobody will read again. Cursors at or
    /// past `cursor` stay valid; older cursors will report a gap.
    pub fn truncate_dirty(&mut self, cursor: DirtyCursor) {
        let drop = cursor.0.saturating_sub(self.dirty_base) as usize;
        let drop = drop.min(self.dirty.len());
        if drop > 0 {
            self.dirty.drain(..drop);
            self.dirty_base += drop as u64;
        }
    }

    /// Whether node `target` is in the transitive fanin cone of `start`
    /// (including `start` itself). Prunes on levels, so the walk is
    /// bounded by the cone between the two levels. Visited-set state
    /// lives in an epoch-stamped scratch buffer, so the check allocates
    /// nothing in the steady state (it runs once per replacement
    /// attempt).
    pub fn depends_on(&self, start: NodeId, target: NodeId) -> bool {
        if start == target {
            return true;
        }
        if self.level[start as usize] <= self.level[target as usize] {
            return false;
        }
        let mut guard = self.dep_scratch.lock().unwrap();
        let sc = &mut *guard;
        if sc.stamp.len() < self.fanins.len() {
            sc.stamp.resize(self.fanins.len(), 0);
        }
        sc.epoch = sc.epoch.wrapping_add(1);
        if sc.epoch == 0 {
            // Stamp wrap-around: old stamps could alias the new epoch.
            sc.stamp.fill(0);
            sc.epoch = 1;
        }
        let epoch = sc.epoch;
        sc.stack.clear();
        sc.stack.push(start);
        while let Some(v) = sc.stack.pop() {
            if self.is_terminal(v) || sc.stamp[v as usize] == epoch {
                continue;
            }
            sc.stamp[v as usize] = epoch;
            for s in self.fanins[v as usize] {
                let m = s.node();
                if m == target {
                    return true;
                }
                if self.level[m as usize] > self.level[target as usize] {
                    sc.stack.push(m);
                }
            }
        }
        false
    }

    /// Substitutes gate `old` by the functionally equivalent signal `new`,
    /// in place: every fanout of `old` (parent gates and outputs) is
    /// redirected to `new`, parents are re-normalized and re-hashed
    /// (merging with an existing structurally identical gate where one
    /// exists, collapsing where normalization degenerates — both cascade
    /// recursively), and every node whose last reference disappears is
    /// freed into the slot free list.
    ///
    /// Returns `false` without changing anything when the substitution
    /// would create a cycle (`old` is in the transitive fanin of `new`) or
    /// is a no-op (`new` references `old` itself).
    ///
    /// Levels: each rewired gate's level is recomputed. A raise
    /// propagates through its transitive fanout; a decrease does too,
    /// except inside [`Mig::with_deferred_levels`], where it lowers only
    /// the rewired gate and queues the gates above it for the settle.
    ///
    /// # Panics
    ///
    /// Panics if `old` is not a live gate or `new` references a dead node.
    pub fn replace_node(&mut self, old: NodeId, new: Signal) -> bool {
        assert!(self.is_gate(old), "node {old} is not a live gate");
        assert!(!self.is_dead(new.node()), "replacement signal is dead");
        if new.node() == old || self.depends_on(new.node(), old) {
            return false;
        }
        let _span = obs::trace::span("replace_node");
        let mut subst: Vec<(NodeId, Signal)> = vec![(old, new)];
        self.fanouts[new.node() as usize].push(GUARD);
        while let Some((o, n)) = subst.pop() {
            // Drop the guard that kept `n` alive while the pair was
            // pending (guards sit near the end of the list).
            let gpos = self.fanouts[n.node() as usize]
                .rposition(GUARD)
                .expect("pending substitution guard present");
            self.remove_fanout_at(n.node(), gpos as u32);
            if self.dead[o as usize] {
                // `o` was already freed by an earlier cascade step; if
                // the guard was `n`'s last reference, its cone is garbage.
                self.kill_if_unreferenced(n.node());
                continue;
            }
            debug_assert!(!self.dead[n.node() as usize]);
            // Redirect parent gates (snapshot: the list shrinks as parents
            // are rewired and may contain nodes killed by cascades).
            let parents: Vec<u32> = self.fanouts[o as usize]
                .iter()
                .filter(|&f| f & OUT_FLAG == 0)
                .collect();
            for p in parents {
                if self.dead[p as usize] {
                    continue;
                }
                if let Some(pair) = self.replace_in_gate(p, o, n) {
                    self.fanouts[pair.1.node() as usize].push(GUARD);
                    subst.push(pair);
                }
            }
            // Redirect outputs (guards carry OUT_FLAG but are not
            // output references).
            let out_refs: Vec<u32> = self.fanouts[o as usize]
                .iter()
                .filter(|&f| f & OUT_FLAG != 0 && f != GUARD)
                .collect();
            for f in out_refs {
                let i = (f & !OUT_FLAG) as usize;
                let cur = self.outputs[i];
                debug_assert_eq!(cur.node(), o);
                self.set_output(i, n.complement_if(cur.is_complemented()));
            }
            // Free the substituted cone once its last reference is gone.
            self.kill_if_unreferenced(o);
        }
        #[cfg(debug_assertions)]
        self.debug_check();
        true
    }

    /// Substitutes fanin node `o` by signal `n` inside gate `p`.
    ///
    /// Returns `Some((p, s))` when `p` itself must be substituted by `s`
    /// (normalization collapsed it, or it became structurally identical to
    /// an existing gate); `None` when `p` was rewired in place.
    fn replace_in_gate(&mut self, p: NodeId, o: NodeId, n: Signal) -> Option<(NodeId, Signal)> {
        let old_key = self.fanins[p as usize];
        let mut ops = old_key;
        for s in ops.iter_mut() {
            if s.node() == o {
                *s = n.complement_if(s.is_complemented());
            }
        }
        match normalize_maj(ops) {
            Normalized::Copy(s) => Some((p, s)),
            Normalized::Node(key, compl) => {
                if let Some(&q) = self.strash.get(&key) {
                    debug_assert_ne!(q, p, "substitution changed an operand");
                    return Some((p, Signal::new(q, compl)));
                }
                if compl {
                    // The canonical node computes the complement of `p`'s
                    // function: materialize it and substitute `p` by its
                    // complemented signal.
                    let r = self.node_for_key(key);
                    return Some((p, Signal::new(r, true)));
                }
                // Rewire `p` in place (its function is unchanged, so its
                // own fanouts stay valid).
                let removed = self.strash.remove(&old_key);
                debug_assert_eq!(removed, Some(p));
                for (k, s) in old_key.iter().enumerate() {
                    // Re-read the back-pointer each time: the previous
                    // removal may have repaired it.
                    self.remove_fanout_at(s.node(), self.fanout_pos[p as usize][k]);
                }
                self.fanins[p as usize] = key;
                self.strash.insert(key, p);
                for (k, s) in key.iter().enumerate() {
                    self.fanout_pos[p as usize][k] = self.push_fanout(s.node(), p);
                }
                for s in old_key {
                    self.kill_if_unreferenced(s.node());
                }
                self.note_structural_change(p);
                self.update_levels_from(p);
                None
            }
        }
    }

    /// Appends a fanout entry to `child`'s list, returning its index (the
    /// caller stores it as the entry's back-pointer).
    fn push_fanout(&mut self, child: NodeId, entry: u32) -> u32 {
        self.fanouts[child as usize].push(entry)
    }

    /// Removes the fanout entry at `pos` from `child`'s list in O(1)
    /// (swap-removal), repairing the back-pointer of the entry that moved
    /// into the hole. High-fanout nodes (constants, shared inputs) would
    /// otherwise make entry removal — and thus `replace_node` — scale
    /// with the graph.
    fn remove_fanout_at(&mut self, child: NodeId, pos: u32) {
        let list = &mut self.fanouts[child as usize];
        list.swap_remove(pos as usize);
        if (pos as usize) < list.len() {
            let moved = list.get(pos as usize);
            if moved == GUARD {
                // Guards are located by scanning; no back-pointer to fix.
            } else if moved & OUT_FLAG != 0 {
                self.out_pos[(moved & !OUT_FLAG) as usize] = pos;
            } else {
                // The moved entry is a gate; a normalized gate references
                // `child` in exactly one of its three slots.
                let slot = self.fanins[moved as usize]
                    .iter()
                    .position(|s| s.node() == child)
                    .expect("moved fanout entry references child");
                self.fanout_pos[moved as usize][slot] = pos;
            }
        }
    }

    /// Frees gate `n` (and, recursively, its fanin cone) if it has no
    /// references left.
    fn kill_if_unreferenced(&mut self, n: NodeId) {
        let mut stack = vec![n];
        while let Some(v) = stack.pop() {
            if self.is_terminal(v) || self.dead[v as usize] || !self.fanouts[v as usize].is_empty()
            {
                continue;
            }
            let key = self.fanins[v as usize];
            debug_assert_eq!(self.strash.get(&key), Some(&v));
            self.strash.remove(&key);
            self.dead[v as usize] = true;
            self.fanins[v as usize] = [Signal::ZERO; 3];
            self.level[v as usize] = 0;
            self.live_gates -= 1;
            self.slot_gen[v as usize] = self.slot_gen[v as usize].wrapping_add(1);
            self.free.push(v);
            self.note_structural_change(v);
            for (k, s) in key.iter().enumerate() {
                self.remove_fanout_at(s.node(), self.fanout_pos[v as usize][k]);
                stack.push(s.node());
            }
        }
    }

    /// Recomputes the level of `p` and propagates changes through the
    /// transitive fanout (worklist; cost proportional to the affected
    /// region). Inside a deferral scope a decrease stops at `p` itself,
    /// whose parents are queued for the settle, and the walk of a raise
    /// only raises: a gate it would lower keeps its (valid, upper bound)
    /// level and is queued already.
    fn update_levels_from(&mut self, p: NodeId) {
        let deferring = self.upkeep.deferring;
        if deferring {
            let nl = self.local_level(p);
            if nl < self.level[p as usize] {
                self.level[p as usize] = nl;
                self.queue_fanouts(p);
                return;
            }
        }
        let mut work = vec![p];
        while let Some(v) = work.pop() {
            if self.dead[v as usize] || self.is_terminal(v) {
                continue;
            }
            let nl = self.local_level(v);
            let cur = self.level[v as usize];
            if nl > cur || (nl < cur && !deferring) {
                self.level[v as usize] = nl;
                for f in self.fanouts[v as usize].iter() {
                    if f & OUT_FLAG == 0 {
                        work.push(f);
                    }
                }
            }
        }
    }

    /// One plus the highest stored fanin level of gate `v`.
    fn local_level(&self, v: NodeId) -> u32 {
        1 + self.fanins[v as usize]
            .iter()
            .map(|s| self.level[s.node() as usize])
            .max()
            .unwrap_or(0)
    }

    /// Frees gate `n` and, recursively, its fanin cone — but only the
    /// part that holds no references. Used to retract a speculatively
    /// built cone (e.g. a refused replacement) without paying a
    /// whole-graph [`Mig::sweep`]; shared or referenced nodes are left
    /// untouched. No-op on terminals, dead slots and referenced gates.
    pub fn reclaim(&mut self, n: NodeId) {
        self.kill_if_unreferenced(n);
        #[cfg(debug_assertions)]
        self.debug_check();
    }

    /// Frees every dangling gate (refcount 0), recursively. In-place
    /// passes call this once at the end to reclaim speculative nodes; it
    /// replaces the O(n) rebuild that [`Mig::cleanup`] performs.
    pub fn sweep(&mut self) {
        for n in self.num_inputs as u32 + 1..self.fanins.len() as u32 {
            if !self.dead[n as usize] && self.fanouts[n as usize].is_empty() {
                self.kill_if_unreferenced(n);
            }
        }
        #[cfg(debug_assertions)]
        self.debug_check();
    }

    /// Full structural audit of the managed-network invariants: fanout
    /// lists match fanin/output references, the strash table is a
    /// bijection over live gates, levels are consistent (each gate's is
    /// exactly 1 + its highest fanin's, or at least that inside a
    /// deferral scope), the live-gate counter is exact, and no dead node
    /// is reachable from an output.
    /// Debug builds run this after every [`Mig::replace_node`] and
    /// [`Mig::sweep`].
    ///
    /// # Panics
    ///
    /// Panics when an invariant is violated.
    pub fn debug_check(&self) {
        let n = self.fanins.len();
        let mut refs: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut live = 0usize;
        for g in self.gates() {
            live += 1;
            let key = self.fanins[g as usize];
            assert_eq!(
                self.strash.get(&key),
                Some(&g),
                "gate {g} missing from strash"
            );
            for s in key {
                assert!(
                    !self.dead[s.node() as usize],
                    "gate {g} references dead node {}",
                    s.node()
                );
                refs[s.node() as usize].push(g);
            }
            let lvl = self.local_level(g);
            if self.upkeep.deferring {
                let (stored, up) = (self.level[g as usize], &self.upkeep);
                assert!(stored >= lvl, "gate {g} level below a fanin's");
                if stored > lvl {
                    let at = up.queued_at.get(g as usize).copied();
                    assert!(
                        at.is_some_and(|at| up.low <= at && at <= stored),
                        "stale gate {g} not queued at or below its level"
                    );
                }
            } else {
                assert_eq!(self.level[g as usize], lvl, "gate {g} level stale");
            }
        }
        assert_eq!(self.strash.len(), live, "strash size != live gates");
        assert_eq!(self.live_gates, live, "live-gate counter stale");
        for g in self.gates() {
            for (k, s) in self.fanins[g as usize].iter().enumerate() {
                let pos = self.fanout_pos[g as usize][k] as usize;
                let list = &self.fanouts[s.node() as usize];
                assert!(
                    pos < list.len() && list.get(pos) == g,
                    "back-pointer of gate {g} slot {k} stale"
                );
            }
        }
        for (i, o) in self.outputs.iter().enumerate() {
            assert!(
                !self.dead[o.node() as usize],
                "output {i} references dead node {}",
                o.node()
            );
            refs[o.node() as usize].push(OUT_FLAG | i as u32);
            let pos = self.out_pos[i] as usize;
            let list = &self.fanouts[o.node() as usize];
            assert!(
                pos < list.len() && list.get(pos) == OUT_FLAG | i as u32,
                "back-pointer of output {i} stale"
            );
        }
        for (v, expected) in refs.iter_mut().enumerate() {
            let mut got = self.fanouts[v].to_vec();
            expected.sort_unstable();
            got.sort_unstable();
            assert_eq!(*expected, got, "fanout list of node {v} inconsistent");
        }
        for &f in &self.free {
            assert!(self.dead[f as usize], "free-list slot {f} not dead");
        }
    }

    /// Word-parallel simulation: given one word per input, returns one word
    /// per node (bit `k` of node `n`'s word is `n`'s value under input
    /// pattern `k`).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != num_inputs`.
    pub fn simulate_words(&self, inputs: &[u64]) -> Vec<u64> {
        assert_eq!(inputs.len(), self.num_inputs, "one word per input");
        let mut val = vec![0u64; self.fanins.len()];
        for (i, &w) in inputs.iter().enumerate() {
            val[i + 1] = w;
        }
        for &n in self.topo_gates_shared().iter() {
            let [a, b, c] = self.fanins[n as usize];
            let va = val[a.node() as usize] ^ if a.is_complemented() { u64::MAX } else { 0 };
            let vb = val[b.node() as usize] ^ if b.is_complemented() { u64::MAX } else { 0 };
            let vc = val[c.node() as usize] ^ if c.is_complemented() { u64::MAX } else { 0 };
            val[n as usize] = (va & vb) | (va & vc) | (vb & vc);
        }
        val
    }

    /// Evaluates every output under a single input assignment.
    pub fn evaluate(&self, assignment: &[bool]) -> Vec<bool> {
        let words: Vec<u64> = assignment.iter().map(|&b| if b { 1 } else { 0 }).collect();
        let val = self.simulate_words(&words);
        self.outputs
            .iter()
            .map(|s| (val[s.node() as usize] & 1 == 1) ^ s.is_complemented())
            .collect()
    }

    /// Complete truth tables for every output (exhaustive simulation).
    ///
    /// # Panics
    ///
    /// Panics if the MIG has more than [`truth::MAX_VARS`] inputs.
    pub fn output_truth_tables(&self) -> Vec<truth::TruthTable> {
        let n = self.num_inputs;
        let ins: Vec<truth::TruthTable> = (0..n).map(|i| truth::TruthTable::var(n, i)).collect();
        let tts = self.simulate_tables(&ins);
        self.outputs
            .iter()
            .map(|s| {
                let t = tts[s.node() as usize].clone();
                if s.is_complemented() {
                    !t
                } else {
                    t
                }
            })
            .collect()
    }

    /// Simulation with arbitrary truth tables on the inputs; returns one
    /// (plain-polarity) table per node.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != num_inputs` or tables disagree on
    /// variable count.
    pub fn simulate_tables(&self, inputs: &[truth::TruthTable]) -> Vec<truth::TruthTable> {
        assert_eq!(inputs.len(), self.num_inputs, "one table per input");
        let vars = inputs.first().map_or(0, |t| t.num_vars());
        let mut val = vec![truth::TruthTable::zeros(vars); self.fanins.len()];
        for (i, t) in inputs.iter().enumerate() {
            val[i + 1] = t.clone();
        }
        for &n in self.topo_gates_shared().iter() {
            let [a, b, c] = self.fanins[n as usize];
            let get = |s: Signal| {
                let t = &val[s.node() as usize];
                if s.is_complemented() {
                    !t
                } else {
                    t.clone()
                }
            };
            val[n as usize] = truth::TruthTable::maj(&get(a), &get(b), &get(c));
        }
        val
    }

    /// Rebuilds the MIG keeping only the cone reachable from the outputs
    /// (dangling gates are dropped; inputs are preserved). Returns a fresh
    /// compacted MIG whose slot order is topological again. For in-place
    /// reclamation without copying, use [`Mig::sweep`].
    pub fn cleanup(&self) -> Mig {
        let mut out = Mig::new(self.num_inputs);
        let mut map: Vec<Option<Signal>> = vec![None; self.fanins.len()];
        map[0] = Some(Signal::ZERO);
        for i in 0..self.num_inputs {
            map[i + 1] = Some(out.input(i));
        }
        // Mark live cone.
        let mut live = vec![false; self.fanins.len()];
        let mut stack: Vec<NodeId> = self.outputs.iter().map(|s| s.node()).collect();
        while let Some(n) = stack.pop() {
            if live[n as usize] || self.is_terminal(n) {
                continue;
            }
            live[n as usize] = true;
            for s in self.fanins[n as usize] {
                stack.push(s.node());
            }
        }
        // Copy in topological order.
        for &n in self.topo_gates_shared().iter() {
            if !live[n as usize] {
                continue;
            }
            let [a, b, c] = self.fanins[n as usize];
            let m = |s: Signal, out_map: &Vec<Option<Signal>>| {
                out_map[s.node() as usize]
                    .expect("fanin precedes node in topo order")
                    .complement_if(s.is_complemented())
            };
            let (sa, sb, sc) = (m(a, &map), m(b, &map), m(c, &map));
            map[n as usize] = Some(out.maj(sa, sb, sc));
        }
        for s in &self.outputs {
            let t = map[s.node() as usize]
                .expect("output cone mapped")
                .complement_if(s.is_complemented());
            out.add_output(t);
        }
        out
    }

    /// Renumbers the node slots into topological order, squeezing out
    /// dead slots, and returns the old→new [`CompactMap`].
    ///
    /// Free-list reuse scatters logically adjacent cones across the slot
    /// space; after heavy rewriting, a topological walk ping-pongs
    /// through memory. Compaction restores locality: live gates get
    /// consecutive slots in topological order (terminals keep their
    /// ids), every per-slot array is re-packed densely, and the free
    /// list empties. The graph function, gate count, levels, outputs
    /// (order and polarity) and per-slot reuse generations (under the
    /// permutation) are all preserved; per-node fanout entry *order* is
    /// preserved too, so the `fanout_pos`/`out_pos` back-pointers carry
    /// over unchanged.
    ///
    /// Consumer migration protocol: anything holding node ids must
    /// translate them through the returned map ([`CompactMap::remap`]) —
    /// carried cut sets have a dedicated `remap` method, the convergence
    /// scheduler re-partitions instead. The dirty log
    /// is *not* translatable (its history is in old numbering), so
    /// compaction leaves a deliberate gap: cursors taken before it
    /// report `None` from [`Mig::dirty_since`], and migrated consumers
    /// re-anchor at [`Mig::dirty_cursor`] after remapping. A graph that
    /// is already compact (no dead slots, slot order topological) is a
    /// fixpoint: nothing is touched, and the returned map is the
    /// identity.
    pub fn compact(&mut self) -> CompactMap {
        debug_assert!(
            !self.upkeep.deferring,
            "compact inside a level-deferral scope"
        );
        let old_n = self.fanins.len();
        let topo = self.topo_gates_shared();
        if self.free.is_empty()
            && topo
                .iter()
                .enumerate()
                .all(|(i, &g)| g as usize == self.num_inputs + 1 + i)
        {
            return CompactMap {
                map: Vec::new(),
                old_len: old_n,
                new_len: old_n,
                identity: true,
            };
        }
        let _span = obs::trace::span("compact");
        let mut map = vec![CompactMap::GONE; old_n];
        for (t, slot) in map.iter_mut().enumerate().take(self.num_inputs + 1) {
            *slot = t as NodeId;
        }
        for (i, &g) in topo.iter().enumerate() {
            map[g as usize] = (self.num_inputs + 1 + i) as NodeId;
        }
        let new_n = self.num_inputs + 1 + topo.len();
        let remap_sig = |map: &[NodeId], s: Signal| {
            let n = map[s.node() as usize];
            debug_assert_ne!(n, CompactMap::GONE, "live reference to a dead slot");
            Signal::new(n, s.is_complemented())
        };
        let mut fanins = vec![[Signal::ZERO; 3]; new_n];
        let mut fanouts: Vec<FanoutList> = (0..new_n).map(|_| FanoutList::new()).collect();
        let mut fanout_pos = vec![[0u32; 3]; new_n];
        let mut slot_gen = vec![0u32; new_n];
        let mut level = vec![0u32; new_n];
        let mut strash = FxHashMap::default();
        strash.reserve(topo.len());
        for old in 0..old_n {
            let new = map[old];
            if new == CompactMap::GONE {
                debug_assert!(self.fanouts[old].is_empty(), "dead slot with fanouts");
                continue;
            }
            let new = new as usize;
            // Entry order is preserved and only gate ids are rewritten,
            // so positions recorded in back-pointers stay valid.
            let mut list = std::mem::take(&mut self.fanouts[old]);
            for pos in 0..list.len() {
                let e = list.get(pos);
                debug_assert_ne!(e, GUARD, "compact during a pending substitution");
                if e & OUT_FLAG == 0 {
                    list.set(pos, map[e as usize]);
                }
            }
            fanouts[new] = list;
            fanout_pos[new] = self.fanout_pos[old];
            slot_gen[new] = self.slot_gen[old];
            level[new] = self.level[old];
            if old > self.num_inputs {
                let key = self.fanins[old].map(|s| remap_sig(&map, s));
                fanins[new] = key;
                strash.insert(key, new as NodeId);
            }
        }
        self.fanins = fanins;
        self.fanouts = fanouts;
        self.fanout_pos = fanout_pos;
        self.slot_gen = slot_gen;
        self.level = level;
        self.strash = strash;
        self.dead = vec![false; new_n];
        self.free.clear();
        let outputs = std::mem::take(&mut self.outputs);
        self.outputs = outputs.into_iter().map(|s| remap_sig(&map, s)).collect();
        // The log's history is in old numbering: leave a gap (the +1) so
        // stale cursors fall back to a full re-scan instead of silently
        // misreading renumbered entries.
        self.dirty_base += self.dirty.len() as u64 + 1;
        self.dirty.clear();
        // Ascending slot order is topological again, by construction.
        *self.topo_cache.get_mut().unwrap() = Some(Arc::new(
            (self.num_inputs as u32 + 1..new_n as u32).collect(),
        ));
        #[cfg(debug_assertions)]
        self.debug_check();
        CompactMap {
            map,
            old_len: old_n,
            new_len: new_n,
            identity: false,
        }
    }

    /// Approximate resident bytes of the graph's storage: the per-slot
    /// arrays, fanout spill allocations, the strash table, outputs and
    /// the dirty log. Used by the `mig.bytes_per_node` gauge.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let per_slot = size_of::<[Signal; 3]>()  // fanins
            + size_of::<FanoutList>()
            + size_of::<[u32; 3]>()              // fanout_pos
            + size_of::<bool>()
            + 2 * size_of::<u32>(); // slot_gen + level
        let spill: usize = self.fanouts.iter().map(|l| l.heap_bytes()).sum();
        let strash = self.strash.capacity() * (size_of::<[Signal; 3]>() + size_of::<NodeId>() + 8);
        self.fanins.len() * per_slot
            + spill
            + strash
            + self.outputs.len() * (size_of::<Signal>() + size_of::<u32>())
            + self.dirty.len() * size_of::<NodeId>()
    }

    /// Average storage bytes per node slot (see [`Mig::approx_bytes`]).
    pub fn bytes_per_node(&self) -> u64 {
        (self.approx_bytes() / self.fanins.len().max(1)) as u64
    }

    /// Percentage (0–100) of node slots that are dead (freed, awaiting
    /// reuse) — the scheduler's compaction trigger.
    pub fn dead_slot_pct(&self) -> u64 {
        (self.free.len() * 100 / self.fanins.len().max(1)) as u64
    }

    /// A structural identity of the netlist: 64-bit FNV-1a over the slot
    /// count, every live gate's id and fanins in slot order, and the
    /// outputs. Equal fingerprints mean (up to hash collision) the same
    /// netlist, node numbering included. The hash is fixed here, so
    /// recorded values stay valid across toolchains and platforms.
    pub fn fingerprint(&self) -> u64 {
        fn eat(h: u64, word: u32) -> u64 {
            word.to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
        }
        let mut h = eat(0xcbf2_9ce4_8422_2325, self.fanins.len() as u32);
        for g in self.gates() {
            h = eat(h, g);
            for s in self.fanins[g as usize] {
                h = eat(h, s.code() as u32);
            }
        }
        self.outputs.iter().fold(h, |h, s| eat(h, s.code() as u32))
    }

    /// Emits the graph in Graphviz DOT format (complemented edges dashed,
    /// as in the paper's figures).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut s = String::from("digraph mig {\n  rankdir=BT;\n");
        s.push_str("  n0 [label=\"0\", shape=box];\n");
        for i in 0..self.num_inputs {
            let _ = writeln!(s, "  n{} [label=\"x{}\", shape=box];", i + 1, i + 1);
        }
        for n in self.gates() {
            let _ = writeln!(s, "  n{n} [label=\"MAJ\", shape=circle];");
            for f in self.fanins[n as usize] {
                let style = if f.is_complemented() {
                    " [style=dashed]"
                } else {
                    ""
                };
                let _ = writeln!(s, "  n{} -> n{}{};", f.node(), n, style);
            }
        }
        for (i, o) in self.outputs.iter().enumerate() {
            let _ = writeln!(s, "  y{i} [label=\"y{i}\", shape=plaintext];");
            let style = if o.is_complemented() {
                " [style=dashed]"
            } else {
                ""
            };
            let _ = writeln!(s, "  n{} -> y{i}{};", o.node(), style);
        }
        s.push_str("}\n");
        s
    }
}

impl fmt::Debug for Mig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Mig {{ inputs: {}, gates: {}, outputs: {} }}",
            self.num_inputs,
            self.num_gates(),
            self.outputs.len()
        )
    }
}

impl fmt::Display for Mig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mig: i/o = {}/{}  gates = {}  depth = {}",
            self.num_inputs,
            self.outputs.len(),
            self.num_gates(),
            self.depth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_majority_axiom() {
        let a = Signal::new(1, false);
        let b = Signal::new(2, false);
        let c = Signal::new(3, false);
        assert_eq!(normalize_maj([a, a, b]), Normalized::Copy(a));
        assert_eq!(normalize_maj([a, !a, b]), Normalized::Copy(b));
        assert_eq!(normalize_maj([b, a, a]), Normalized::Copy(a));
        assert_eq!(normalize_maj([!c, c, a]), Normalized::Copy(a));
        // <0 0̄ c> = c (constant pair is complementary).
        assert_eq!(
            normalize_maj([Signal::ZERO, Signal::ONE, c]),
            Normalized::Copy(c)
        );
    }

    #[test]
    fn normalization_sorts_and_bounds_complements() {
        let a = Signal::new(1, false);
        let b = Signal::new(2, false);
        let c = Signal::new(3, false);
        match normalize_maj([c, a, b]) {
            Normalized::Node(key, compl) => {
                assert_eq!(key, [a, b, c]);
                assert!(!compl);
            }
            other => panic!("expected node, got {other:?}"),
        }
        // Two complemented operands trigger the self-duality flip.
        match normalize_maj([!a, !b, c]) {
            Normalized::Node(key, compl) => {
                assert_eq!(key, [a, b, !c]);
                assert!(compl);
                assert!(key.iter().filter(|s| s.is_complemented()).count() <= 1);
            }
            other => panic!("expected node, got {other:?}"),
        }
    }

    #[test]
    fn strash_reuses_nodes() {
        let mut m = Mig::new(3);
        let (a, b, c) = (m.input(0), m.input(1), m.input(2));
        let f1 = m.maj(a, b, c);
        let f2 = m.maj(c, a, b);
        let f3 = m.maj(!a, !b, !c);
        assert_eq!(f1, f2);
        assert_eq!(f3, !f1);
        assert_eq!(m.num_gates(), 1);
    }

    #[test]
    fn and_or_are_constant_majorities() {
        let mut m = Mig::new(2);
        let (a, b) = (m.input(0), m.input(1));
        let and = m.and(a, b);
        let or = m.or(a, b);
        m.add_output(and);
        m.add_output(or);
        let tts = m.output_truth_tables();
        assert_eq!(tts[0].to_hex(), "8");
        assert_eq!(tts[1].to_hex(), "e");
    }

    #[test]
    fn xor_and_mux_truth_tables() {
        let mut m = Mig::new(3);
        let (a, b, s) = (m.input(0), m.input(1), m.input(2));
        let x = m.xor(a, b);
        let mx = m.mux(s, a, b);
        m.add_output(x);
        m.add_output(mx);
        let tts = m.output_truth_tables();
        // xor(a,b) independent of s: 0b01100110 = 0x66.
        assert_eq!(tts[0].to_hex(), "66");
        // mux(s,a,b): s ? a : b = 0xac with (a,b,s) = (x0,x1,x2).
        assert_eq!(tts[1].to_hex(), "ac");
    }

    #[test]
    fn full_adder_matches_paper_fig1() {
        let mut m = Mig::new(3);
        let (a, b, cin) = (m.input(0), m.input(1), m.input(2));
        let (sum, cout) = m.full_adder(a, b, cin);
        m.add_output(sum);
        m.add_output(cout);
        assert_eq!(m.num_gates(), 3, "paper Fig. 1: size 3");
        assert_eq!(m.depth(), 2, "paper Fig. 1: depth 2");
        for j in 0..8u32 {
            let bits = [(j & 1) == 1, (j >> 1 & 1) == 1, (j >> 2 & 1) == 1];
            let out = m.evaluate(&bits);
            let total = bits.iter().filter(|&&x| x).count() as u32;
            assert_eq!(out[0], total & 1 == 1, "sum for {j:03b}");
            assert_eq!(out[1], total >= 2, "carry for {j:03b}");
        }
    }

    #[test]
    fn constant_children_allowed_and_simulated() {
        let mut m = Mig::new(2);
        let (a, b) = (m.input(0), m.input(1));
        let g = m.maj(Signal::ZERO, a, b);
        m.add_output(!g);
        let tts = m.output_truth_tables();
        assert_eq!(tts[0].to_hex(), "7"); // NAND
    }

    #[test]
    fn levels_and_depth() {
        let mut m = Mig::new(4);
        let (a, b, c, d) = (m.input(0), m.input(1), m.input(2), m.input(3));
        let g1 = m.maj(a, b, c);
        let g2 = m.maj(g1, c, d);
        let g3 = m.maj(g2, g1, a);
        m.add_output(g3);
        let lv = m.levels();
        assert_eq!(lv[g1.node() as usize], 1);
        assert_eq!(lv[g2.node() as usize], 2);
        assert_eq!(lv[g3.node() as usize], 3);
        assert_eq!(m.depth(), 3);
        assert_eq!(m.fanout_counts()[g1.node() as usize], 2);
        assert_eq!(m.fanout_count(g1.node()), 2);
    }

    #[test]
    fn cleanup_drops_dangling_gates() {
        let mut m = Mig::new(3);
        let (a, b, c) = (m.input(0), m.input(1), m.input(2));
        let keep = m.maj(a, b, c);
        let _dangling = m.maj(a, !b, c);
        m.add_output(keep);
        assert_eq!(m.num_gates(), 2);
        let clean = m.cleanup();
        assert_eq!(clean.num_gates(), 1);
        assert_eq!(clean.num_inputs(), 3);
        assert_eq!(m.output_truth_tables(), clean.output_truth_tables());
    }

    #[test]
    fn sweep_reclaims_dangling_gates_in_place() {
        let mut m = Mig::new(3);
        let (a, b, c) = (m.input(0), m.input(1), m.input(2));
        let keep = m.maj(a, b, c);
        let inner = m.maj(a, !b, c);
        let _dangling = m.maj(inner, keep, c);
        m.add_output(keep);
        assert_eq!(m.num_gates(), 3);
        m.sweep();
        assert_eq!(m.num_gates(), 1, "dangling cone reclaimed recursively");
        assert_eq!(m.output_truth_tables().len(), 1);
        // The freed slots are reused by the next construction.
        let before = m.num_nodes();
        let g = m.maj(a, b, !c);
        assert!(
            (g.node() as usize) < before,
            "slot reuse from the free list"
        );
        assert_eq!(
            m.num_nodes(),
            before,
            "no slot growth while free slots exist"
        );
        m.debug_check();
    }

    #[test]
    fn replace_node_patches_fanouts_and_frees_cone() {
        let mut m = Mig::new(4);
        let (a, b, c, d) = (m.input(0), m.input(1), m.input(2), m.input(3));
        // old = xor(a, b) in three gates; top uses it twice removed.
        let old = m.xor(a, b);
        let top = m.maj(old, c, d);
        m.add_output(top);
        let gates_before = m.num_gates();
        assert_eq!(gates_before, 4);
        let want = m.output_truth_tables();
        // Replace the xor cone root by a fresh equivalent built directly.
        let con = m.and(a, b);
        let dis = m.or(a, b);
        let xor2 = m.and(dis, !con); // strash: same nodes as `old`'s cone
        assert_eq!(xor2, old, "structural hashing finds the same node");
        // Now replace old by plain input a (changes function — only for
        // structural bookkeeping checks, so rebuild expected tables).
        assert!(m.replace_node(old.node(), a));
        assert!(m.is_dead(old.node()));
        assert!(m.num_gates() < gates_before, "xor cone freed");
        let lv = m.levels();
        assert_eq!(lv[m.outputs()[0].node() as usize], 1, "level updated");
        let _ = want;
        m.debug_check();
    }

    #[test]
    fn replace_node_collapse_cascades_to_outputs() {
        let mut m = Mig::new(3);
        let (a, b, c) = (m.input(0), m.input(1), m.input(2));
        let g1 = m.maj(a, b, c);
        let g2 = m.maj(g1, !a, b); // collapses if g1 -> a: <a !a b> = b
        m.add_output(g2);
        assert!(m.replace_node(g1.node(), a));
        // g2 collapsed to b; the output now reads input b directly.
        assert_eq!(m.outputs()[0], b);
        assert_eq!(m.num_gates(), 0);
        m.debug_check();
    }

    #[test]
    fn replace_node_merges_structural_duplicates() {
        let mut m = Mig::new(4);
        let (a, b, c, d) = (m.input(0), m.input(1), m.input(2), m.input(3));
        let x = m.maj(a, b, Signal::ZERO); // and(a,b)
        let g1 = m.maj(x, c, d);
        let g2 = m.maj(a, c, d); // what g1 becomes when x -> a
        let top = m.maj(g1, g2, b);
        m.add_output(top);
        let before = m.num_gates();
        assert!(m.replace_node(x.node(), a));
        // g1 rehashed onto g2's key -> merged; top collapsed to <g2 g2 b> = g2.
        assert!(m.num_gates() <= before - 2);
        assert_eq!(m.outputs()[0].node(), g2.node());
        m.debug_check();
    }

    #[test]
    fn replace_node_guards_pending_replacement_targets() {
        // A merge and a collapse in the same cascade both resolve to `q`,
        // whose only real reference (the dangling gate `d`) is killed by
        // the cascade before the merge pair is processed. The pending-pair
        // guard must keep `q` alive until then.
        let mut m = Mig::new(4);
        let (a, b, u, w) = (m.input(0), m.input(1), m.input(2), m.input(3));
        let q = m.maj(a, u, w);
        let o = m.maj(a, b, w);
        let p = m.maj(o, u, w); // rehashes onto q's key when o -> a
        let _d = m.maj(o, !a, q); // collapses to q when o -> a, then dies
        m.add_output(p);
        assert!(m.replace_node(o.node(), a));
        m.debug_check();
        assert_eq!(m.outputs()[0].node(), q.node(), "p merged onto q");
        assert!(!m.is_dead(q.node()));
        assert_eq!(m.num_gates(), 1);
    }

    #[test]
    fn replace_node_refuses_cycles() {
        let mut m = Mig::new(3);
        let (a, b, c) = (m.input(0), m.input(1), m.input(2));
        let g1 = m.maj(a, b, c);
        let g2 = m.maj(g1, a, b);
        m.add_output(g2);
        // g1 is in the transitive fanin of g2: substituting g1 by g2 would
        // create a cycle and must be refused without changes.
        let before = m.output_truth_tables();
        assert!(!m.replace_node(g1.node(), g2));
        assert_eq!(m.output_truth_tables(), before);
        assert!(!m.replace_node(g1.node(), !g1), "self-substitution refused");
        m.debug_check();
    }

    #[test]
    fn incremental_levels_match_recomputation_after_replacements() {
        let mut m = Mig::new(4);
        let (a, b, c, d) = (m.input(0), m.input(1), m.input(2), m.input(3));
        let x = m.xor(a, b);
        let y = m.xor(x, c);
        let top = m.maj(y, x, d);
        m.add_output(top);
        let flat = m.maj(a, b, c);
        assert!(m.replace_node(y.node(), flat));
        // Recompute levels from scratch and compare with the maintained map.
        let mut ref_lv = vec![0u32; m.num_nodes()];
        for g in m.topo_gates() {
            ref_lv[g as usize] = 1 + m
                .fanins(g)
                .iter()
                .map(|s| ref_lv[s.node() as usize])
                .max()
                .unwrap();
        }
        for g in m.gates() {
            assert_eq!(m.level(g), ref_lv[g as usize], "level of gate {g}");
        }
        assert_eq!(
            m.depth(),
            m.outputs()
                .iter()
                .map(|o| ref_lv[o.node() as usize])
                .max()
                .unwrap()
        );
    }

    /// Levels recomputed from scratch in topological order.
    fn exact_levels(m: &Mig) -> Vec<u32> {
        let mut lv = vec![0u32; m.num_nodes()];
        for g in m.topo_gates() {
            lv[g as usize] = 1 + m
                .fanins(g)
                .iter()
                .map(|s| lv[s.node() as usize])
                .max()
                .unwrap();
        }
        lv
    }

    /// Whether `target` is in the fanin cone of `start` (itself
    /// included), by a walk that reads no level.
    fn reaches(m: &Mig, start: NodeId, target: NodeId) -> bool {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![start];
        while let Some(v) = stack.pop() {
            if v == target {
                return true;
            }
            if m.is_gate(v) && seen.insert(v) {
                stack.extend(m.fanins(v).iter().map(|s| s.node()));
            }
        }
        false
    }

    /// A random reconvergent graph: each gate draws its operands from
    /// the inputs and the most recent gates, with random polarities.
    fn random_graph(rng: &mut testrand::Rng, inputs: usize, gates: usize) -> Mig {
        let mut m = Mig::new(inputs);
        let mut pool: Vec<Signal> = m.inputs().collect();
        for _ in 0..gates {
            let pick = |rng: &mut testrand::Rng| {
                let lo = pool.len().saturating_sub(24);
                let s = if rng.below(4) == 0 {
                    pool[rng.usize_below(pool.len())]
                } else {
                    pool[rng.range(lo, pool.len())]
                };
                s.complement_if(rng.bool())
            };
            let (a, b, c) = (pick(rng), pick(rng), pick(rng));
            let g = m.maj(a, b, c);
            if m.is_gate(g.node()) {
                pool.push(g);
            }
        }
        for &s in pool.iter().rev().take(6) {
            m.add_output(s);
        }
        m.sweep();
        m
    }

    #[test]
    fn deferred_levels_stay_topological_upper_bounds_and_settle_exact() {
        let (mut stale_seen, mut partial_settles) = (0, 0);
        for seed in 0..24 {
            let mut rng = testrand::Rng::new(seed);
            let mut m = random_graph(&mut rng, 8, 160);
            m.with_deferred_levels(|m| {
                for _ in 0..40 {
                    let live: Vec<NodeId> = m.gates().filter(|&g| m.fanout_count(g) > 0).collect();
                    if live.len() < 2 {
                        break;
                    }
                    let old = live[rng.usize_below(live.len())];
                    // Substitute by a fanin (parents get shallower), an
                    // input, or another gate (often deeper: a raise).
                    let new = match rng.below(3) {
                        0 => m.fanins(old)[rng.usize_below(3)],
                        1 => m.input(rng.usize_below(8)),
                        _ => Signal::new(live[rng.usize_below(live.len())], false),
                    }
                    .complement_if(rng.bool());
                    m.replace_node(old, new);
                    if rng.below(4) == 0 {
                        // A reader settles one node's cone: that cone,
                        // and every gate up to the node's old level,
                        // becomes exact.
                        let n = live[rng.usize_below(live.len())];
                        if m.is_gate(n) {
                            let (bound, before) = (m.level(n), m.levels());
                            m.settle_levels_for(n);
                            assert!(m.upkeep.low > bound, "seed {seed}: floor {bound}");
                            if m.levels() != before {
                                partial_settles += 1;
                            }
                            let exact = exact_levels(m);
                            let mut stack = vec![n];
                            while let Some(v) = stack.pop() {
                                assert_eq!(m.level(v), exact[v as usize], "seed {seed}: {v}");
                                if m.is_gate(v) {
                                    stack.extend(m.fanins(v).iter().map(|s| s.node()));
                                }
                            }
                        }
                    }
                    let exact = exact_levels(m);
                    for g in m.gates() {
                        assert!(
                            m.level(g) >= exact[g as usize],
                            "seed {seed}: gate {g} below exact"
                        );
                        if m.level(g) < m.upkeep.low {
                            assert_eq!(
                                m.level(g),
                                exact[g as usize],
                                "seed {seed}: gate {g} stale below the floor"
                            );
                        }
                        for s in m.fanins(g) {
                            assert!(
                                m.level(g) > m.level(s.node()),
                                "seed {seed}: gate {g} not above fanin {}",
                                s.node()
                            );
                        }
                        if m.level(g) > exact[g as usize] {
                            stale_seen += 1;
                        }
                    }
                    let gates: Vec<NodeId> = m.gates().collect();
                    for _ in 0..24 {
                        let a = gates[rng.usize_below(gates.len())];
                        let b = gates[rng.usize_below(gates.len())];
                        assert_eq!(
                            m.depends_on(a, b),
                            reaches(m, a, b),
                            "seed {seed}: {a} -> {b}"
                        );
                    }
                }
            });
            let exact = exact_levels(&m);
            let gates: Vec<NodeId> = m.gates().collect();
            let levels = m.levels();
            for &g in &gates {
                assert_eq!(
                    levels[g as usize], exact[g as usize],
                    "seed {seed}: gate {g} unsettled"
                );
            }
            let depth = m
                .outputs()
                .iter()
                .map(|o| exact[o.node() as usize])
                .max()
                .unwrap();
            assert_eq!(m.depth(), depth, "seed {seed}");
            m.debug_check();
        }
        assert!(stale_seen > 0, "no decrease was ever deferred");
        assert!(partial_settles > 0, "no cone settle did any work");
    }

    #[test]
    fn settle_is_a_noop_without_queued_decreases() {
        let mut m = churned();
        let before = m.levels();
        let ((), d) = obs::metrics::scoped(|| {
            m.with_deferred_levels(|m| {
                let gates: Vec<NodeId> = m.gates().collect();
                for g in gates {
                    m.settle_levels_for(g);
                }
            });
        });
        assert_eq!(m.levels(), before);
        assert_eq!(d.get(obs::Metric::MigLevelSettles), 0);
    }

    #[test]
    fn topo_gates_orders_fanins_first() {
        let mut m = Mig::new(3);
        let (a, b, c) = (m.input(0), m.input(1), m.input(2));
        let g1 = m.maj(a, b, c);
        let g2 = m.maj(g1, a, !b);
        let g3 = m.maj(g2, g1, c);
        m.add_output(g3);
        // Force a non-index topological order: replace g1's slot usage by
        // a new, later-created node.
        let fresh = m.maj(a, !b, !c);
        assert!(m.replace_node(g1.node(), fresh));
        let topo = m.topo_gates();
        let pos: std::collections::HashMap<NodeId, usize> =
            topo.iter().enumerate().map(|(i, &g)| (g, i)).collect();
        for &g in &topo {
            for s in m.fanins(g) {
                if m.is_gate(s.node()) {
                    assert!(pos[&s.node()] < pos[&g], "fanin after gate in topo order");
                }
            }
        }
        assert_eq!(topo.len(), m.num_gates());
    }

    #[test]
    fn topo_cache_reused_until_structural_change() {
        let mut m = Mig::new(3);
        let (a, b, c) = (m.input(0), m.input(1), m.input(2));
        let g1 = m.maj(a, b, c);
        let g2 = m.maj(g1, a, !b);
        m.add_output(g2);
        let first = m.topo_gates_shared();
        let second = m.topo_gates_shared();
        assert!(
            std::sync::Arc::ptr_eq(&first, &second),
            "unchanged graph must serve the cached order"
        );
        // Output rerouting is not a structural gate change; the cache
        // stays valid.
        m.set_output(0, g1);
        assert!(std::sync::Arc::ptr_eq(&first, &m.topo_gates_shared()));
        // A new gate invalidates; the fresh order must contain it.
        let g3 = m.maj(g1, !a, c);
        m.set_output(0, g3);
        let after = m.topo_gates_shared();
        assert!(!std::sync::Arc::ptr_eq(&first, &after));
        assert!(after.contains(&g3.node()));
        // A replacement (rewire + kill) invalidates too, and a clone
        // keeps serving a consistent order independently.
        let clone = m.clone();
        let fresh = m.maj(a, !b, !c);
        assert!(m.replace_node(g1.node(), fresh));
        assert!(!m.topo_gates_shared().contains(&g1.node()));
        assert!(clone.topo_gates_shared().contains(&g1.node()));
    }

    #[test]
    fn depends_on_scratch_matches_fresh_traversal() {
        let mut m = Mig::new(4);
        let (a, b, c, d) = (m.input(0), m.input(1), m.input(2), m.input(3));
        let g1 = m.maj(a, b, c);
        let g2 = m.maj(g1, c, d);
        let g3 = m.maj(g2, g1, a);
        let side = m.maj(a, b, d);
        m.add_output(g3);
        m.add_output(side);
        // Repeated queries share the scratch buffer; answers must stay
        // exact across calls and directions.
        for _ in 0..3 {
            assert!(m.depends_on(g3.node(), g1.node()));
            assert!(m.depends_on(g3.node(), g2.node()));
            assert!(m.depends_on(g2.node(), g1.node()));
            assert!(!m.depends_on(g1.node(), g2.node()));
            assert!(!m.depends_on(side.node(), g1.node()));
            assert!(m.depends_on(g1.node(), g1.node()));
        }
    }

    #[test]
    fn dirty_cursors_track_independent_frontiers() {
        let mut m = Mig::new(3);
        let (a, b, c) = (m.input(0), m.input(1), m.input(2));
        let g1 = m.maj(a, b, c);
        m.add_output(g1);
        // Consumer 1 starts now; consumer 2 after the next change.
        let c1 = m.dirty_cursor();
        let g2 = m.maj(g1, a, !b);
        m.set_output(0, g2);
        let c2 = m.dirty_cursor();
        let g3 = m.maj(g2, !a, c);
        m.set_output(0, g3);
        assert_eq!(
            m.dirty_since(c1).unwrap(),
            &[g2.node(), g3.node()],
            "consumer 1 sees both changes"
        );
        assert_eq!(
            m.dirty_since(c2).unwrap(),
            &[g3.node()],
            "consumer 2 sees only the later change"
        );
        // Peeks do not consume: reading twice reports the same tail.
        assert_eq!(m.dirty_since(c2).unwrap(), &[g3.node()]);
        // The current cursor has nothing new.
        assert_eq!(m.dirty_since(m.dirty_cursor()).unwrap(), &[]);
        // A drain invalidates cursors taken before it (gap detected)
        // while cursors at the new head keep working.
        let head = m.dirty_cursor();
        let drained = m.drain_dirty();
        assert!(drained.contains(&g2.node()));
        assert_eq!(m.dirty_since(c1), None, "drained past the cursor");
        assert_eq!(m.dirty_since(head).unwrap(), &[]);
        let g4 = m.maj(g3, a, b);
        m.set_output(0, g4);
        assert_eq!(m.dirty_since(head).unwrap(), &[g4.node()]);
        // A clone carries the history position: cursors taken on the
        // original read consistently against the clone.
        let clone = m.clone();
        assert_eq!(clone.dirty_since(head).unwrap(), &[g4.node()]);
        // Truncation drops only the prefix before the given cursor:
        // cursors at or past it keep working, older ones see a gap.
        let mid = m.dirty_cursor();
        let g5 = m.maj(g4, !a, c);
        m.set_output(0, g5);
        m.truncate_dirty(mid);
        assert_eq!(m.dirty_since(head), None, "prefix gone");
        assert_eq!(m.dirty_since(mid).unwrap(), &[g5.node()]);
        assert_eq!(m.dirty_log(), &[g5.node()]);
        // Truncating past the end clears everything without panicking.
        let g6 = m.maj(g5, a, !c);
        m.set_output(0, g6);
        m.truncate_dirty(m.dirty_cursor());
        assert_eq!(m.dirty_log(), &[] as &[NodeId]);
        assert_eq!(m.dirty_since(m.dirty_cursor()).unwrap(), &[]);
    }

    #[test]
    fn cleanup_preserves_output_order_and_polarity() {
        let mut m = Mig::new(2);
        let (a, b) = (m.input(0), m.input(1));
        let g = m.and(a, b);
        m.add_output(!g);
        m.add_output(g);
        m.add_output(a);
        let clean = m.cleanup();
        assert_eq!(clean.num_outputs(), 3);
        assert_eq!(m.output_truth_tables(), clean.output_truth_tables());
    }

    #[test]
    fn simulate_words_matches_tables() {
        let mut m = Mig::new(3);
        let (a, b, c) = (m.input(0), m.input(1), m.input(2));
        let g1 = m.maj(a, !b, c);
        let g2 = m.xor(g1, a);
        m.add_output(g2);
        // Exhaustive 3-input patterns in one word.
        let ins: Vec<u64> = (0..3)
            .map(|i| truth::TruthTable::var(3, i).as_u64())
            .collect();
        let vals = m.simulate_words(&ins);
        let tts = m.output_truth_tables();
        let out = m.outputs()[0];
        let word = vals[out.node() as usize] ^ if out.is_complemented() { u64::MAX } else { 0 };
        assert_eq!(word & 0xFF, tts[0].as_u64());
    }

    #[test]
    fn dot_export_mentions_all_parts() {
        let mut m = Mig::new(2);
        let (a, b) = (m.input(0), m.input(1));
        let g = m.and(a, !b);
        m.add_output(g);
        let dot = m.to_dot();
        assert!(dot.contains("digraph mig"));
        assert!(dot.contains("style=dashed"), "complemented edge rendered");
        assert!(dot.contains("x1") && dot.contains("x2"));
        assert!(dot.contains("y0"));
    }

    #[test]
    fn display_summarizes() {
        let mut m = Mig::new(2);
        let (a, b) = (m.input(0), m.input(1));
        let g = m.or(a, b);
        m.add_output(g);
        let s = format!("{m}");
        assert!(s.contains("i/o = 2/1"));
        assert!(s.contains("gates = 1"));
    }

    /// A graph with plenty of churn: builds a layered network, then
    /// collapses a scattering of gates so the slot arrays are riddled
    /// with dead slots and recycled generations.
    fn churned() -> Mig {
        let mut m = Mig::new(6);
        let ins: Vec<Signal> = m.inputs().collect();
        let mut layer = ins.clone();
        for round in 0..5 {
            let mut next = Vec::new();
            for i in 0..layer.len() {
                let a = layer[i];
                let b = layer[(i + 1) % layer.len()];
                let c = ins[(i + round) % ins.len()];
                next.push(m.maj(a, b, if round % 2 == 0 { !c } else { c }));
            }
            layer = next;
        }
        for (i, &s) in layer.iter().enumerate() {
            if i % 2 == 0 {
                m.add_output(s);
            }
        }
        m.cleanup();
        // Collapse every third gate onto its first fanin: frees cones,
        // recycles slots, leaves holes everywhere.
        let victims: Vec<NodeId> = m.gates().collect();
        for (i, v) in victims.into_iter().enumerate() {
            if i % 3 == 0 && m.is_gate(v) {
                let keep = m.fanins(v)[1];
                let _ = m.replace_node(v, keep);
            }
        }
        m.sweep();
        m
    }

    #[test]
    fn compact_preserves_function_and_renumbers_densely() {
        let mut m = churned();
        assert!(m.dead_slot_pct() > 0, "test premise: holes to squeeze");
        let want = m.output_truth_tables();
        let gates_before = m.num_gates();
        let levels_before: Vec<u32> = m.topo_gates().iter().map(|&g| m.level(g)).collect();
        let old_gates: Vec<NodeId> = m.gates().collect();
        let map = m.compact();
        assert!(!map.is_identity());
        m.debug_check();
        assert_eq!(m.output_truth_tables(), want, "function changed");
        assert_eq!(m.num_gates(), gates_before);
        // Dense: every slot past the terminals is a live gate, numbered
        // in topological order.
        assert_eq!(m.num_nodes(), m.num_inputs() + 1 + m.num_gates());
        assert_eq!(m.dead_slot_pct(), 0);
        for (i, g) in m.gates().enumerate() {
            assert_eq!(g as usize, m.num_inputs() + 1 + i);
            for s in m.fanins(g) {
                assert!(s.node() < g, "slot order is topological");
            }
        }
        // The map translates every old live gate to its new slot with
        // the level carried over; terminals are fixed points.
        let levels_after: Vec<u32> = m.topo_gates().iter().map(|&g| m.level(g)).collect();
        assert_eq!(levels_before, levels_after, "levels permuted, not lost");
        for t in 0..=m.num_inputs() as NodeId {
            assert_eq!(map.remap(t), Some(t));
        }
        for old in old_gates {
            let new = map.remap(old).expect("live gate survives");
            assert!(m.is_gate(new));
        }
        // The graph stays fully operational after compaction.
        let g = m.gates().last().unwrap();
        let repl = m.fanins(g)[1];
        assert!(m.replace_node(g, repl));
        m.sweep();
        m.debug_check();
    }

    #[test]
    fn compact_fixpoint_is_identity() {
        let mut m = churned();
        let first = m.compact();
        assert!(!first.is_identity());
        let fp = |m: &Mig| {
            (
                m.gates().map(|g| (g, m.fanins(g))).collect::<Vec<_>>(),
                m.outputs().to_vec(),
            )
        };
        let before = fp(&m);
        let cursor = m.dirty_cursor();
        let again = m.compact();
        assert!(again.is_identity(), "compact graph is a fixpoint");
        assert_eq!(again.old_len(), again.new_len());
        assert_eq!(fp(&m), before, "fixpoint compaction touched the graph");
        assert!(
            m.dirty_since(cursor).is_some(),
            "fixpoint compaction must not gap the dirty log"
        );
        assert_eq!(again.remap(3), Some(3));
    }

    #[test]
    fn compact_gaps_the_dirty_log_for_stale_cursors() {
        let mut m = churned();
        let stale = m.dirty_cursor();
        let map = m.compact();
        assert!(!map.is_identity());
        assert_eq!(
            m.dirty_since(stale),
            None,
            "pre-compaction cursors must fall back to a full rebuild"
        );
        let fresh = m.dirty_cursor();
        assert_eq!(m.dirty_since(fresh), Some(&[][..]));
        // New structural changes feed the re-anchored cursor normally.
        let g = m.gates().last().unwrap();
        let repl = m.fanins(g)[0];
        let _ = m.replace_node(g, repl);
        assert!(!m.dirty_since(fresh).expect("no gap").is_empty());
    }
}

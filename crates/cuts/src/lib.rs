//! k-feasible cut enumeration for MIGs (paper §II-C).
//!
//! A cut `(v, L)` of an MIG is a root node `v` plus a set of leaves `L`
//! such that every path from `v` to a terminal passes through a leaf
//! (paths to the constant node are exempt). Cuts are enumerated bottom-up
//! with the saturating merge operator `⊗_k`:
//!
//! ```text
//! cuts_k(0) = {{}}        cuts_k(x) = {{x}}
//! cuts_k(g) = cuts_k(g1) ⊗_k cuts_k(g2) ⊗_k cuts_k(g3)   (plus {{g}})
//! ```
//!
//! Each cut carries the truth table of the root expressed over its leaves,
//! which is what the functional-hashing engine canonizes and looks up in
//! the NPN database. Per-node cut lists are bounded (priority cuts, see
//! paper ref \[11\]) and dominated cuts are filtered.
//!
//! # Storage: the cut arena
//!
//! Cut lists live in a cut arena (the private `CutArena`): one contiguous
//! `Vec<Cut>` pool plus a per-node `(offset, len, stamp)` range table.
//! `Cut` is a flat `Copy` value (inline leaf array, packed truth table,
//! bloom signature), so the pool *is* the contiguous leaves/truth-table
//! lane — a node's cuts are one cache-friendly slice, and a graph-wide
//! enumeration is a single growing buffer instead of one heap allocation
//! per node.
//!
//! Validity is epoch-stamped: a range is live iff its stamp equals the
//! arena epoch, so whole-set invalidation is an epoch bump plus an O(1)
//! pool clear — no per-node writes. Dropped and replaced ranges leave dead
//! slots in the pool; when more than half the pool is dead the arena
//! compacts in place (a stable slide of the live ranges, using a reusable
//! index scratch — no allocation in steady state).
//!
//! All recomputation funnels through caller-owned [`CutScratch`] buffers
//! and the fused [`merge_gate_cuts_into`] kernel, so the steady-state
//! propose path (enumerate → merge → filter → store) performs zero heap
//! allocations once the buffers are warm.
//!
//! The [`CutSet`] supports *incremental invalidation* for in-place
//! rewriting: [`CutSet::refresh`] peeks the graph's structural-change log
//! through its own [`mig::DirtyCursor`] (never draining it, so the
//! convergence scheduler and other consumers keep their feeds) and marks
//! only the changed nodes and their transitive fanout stale;
//! [`CutSet::of_updated`] recomputes stale lists on demand, so after a
//! local rewrite only the affected region is re-enumerated instead of the
//! whole graph.

use mig::{CompactMap, DirtyCursor, Mig, NodeId, Signal};

/// Maximum supported cut width.
pub const MAX_CUT_SIZE: usize = 6;

/// A single cut: up to [`MAX_CUT_SIZE`] leaves plus the root function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cut {
    leaves: [NodeId; MAX_CUT_SIZE],
    len: u8,
    /// Truth table of the root over the leaves (leaf `i` = variable `i`),
    /// valid in the low `2^len` bits.
    tt: u64,
    /// Bloom signature for fast dominance tests.
    sign: u64,
}

impl Cut {
    /// Creates the trivial cut `{n}` (function: projection).
    pub fn trivial(n: NodeId) -> Self {
        let mut leaves = [0; MAX_CUT_SIZE];
        leaves[0] = n;
        Cut {
            leaves,
            len: 1,
            tt: 0b10, // x0 over one variable
            sign: 1 << (n % 64),
        }
    }

    /// Creates the constant cut `{}` (function: constant 0).
    pub fn constant() -> Self {
        Cut {
            leaves: [0; MAX_CUT_SIZE],
            len: 0,
            tt: 0,
            sign: 0,
        }
    }

    /// The leaves, sorted ascending.
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves[..self.len as usize]
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether this is the constant cut (no leaves).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The root function over the leaves, packed in the low `2^len` bits.
    pub fn truth_table(&self) -> u64 {
        self.tt
    }

    /// The root function as a [`truth::TruthTable`] over `len` variables.
    pub fn truth_table_full(&self) -> truth::TruthTable {
        truth::TruthTable::from_bits(self.len(), self.tt)
    }

    /// The cut function padded to 4 variables (extra variables vacuous):
    /// the identity expansion replicates the 2^m-bit block, so the
    /// padded table is built with shifts instead of heap-backed
    /// truth-table ops. This 16-bit signature is the key the
    /// functional-hashing engines look NPN classes up by, computed once
    /// here so every consumer agrees on it. Returns `None` for cuts wider
    /// than 4 leaves.
    pub fn signature4(&self) -> Option<u16> {
        let m = self.len();
        if m > 4 {
            return None;
        }
        let mut tt4 = self.tt as u16;
        if m < 4 {
            tt4 &= ((1u32 << (1 << m)) - 1) as u16;
            for i in m..4 {
                tt4 |= tt4 << (1 << i);
            }
        }
        Some(tt4)
    }

    /// Whether `self`'s leaves are a subset of `other`'s (then `other` is
    /// dominated and can be dropped).
    pub fn dominates(&self, other: &Cut) -> bool {
        if self.len > other.len || (self.sign & !other.sign) != 0 {
            return false;
        }
        self.leaves().iter().all(|l| other.leaves().contains(l))
    }

    /// Merges two sorted leaf sets if the union stays within `k`; the
    /// truth table is left empty for the enumerator to fill in. A
    /// two-pointer walk over the sorted arrays — the kernel composes two
    /// of these per surviving combination instead of re-inserting every
    /// leaf of all three cuts per combination.
    fn union2(a: &Cut, b: &Cut, k: usize) -> Option<Cut> {
        let mut leaves = [0 as NodeId; MAX_CUT_SIZE];
        let (la, lb) = (a.len as usize, b.len as usize);
        let (mut i, mut j, mut len) = (0usize, 0usize, 0usize);
        while i < la || j < lb {
            let n = match (i < la, j < lb) {
                (true, true) => match a.leaves[i].cmp(&b.leaves[j]) {
                    core::cmp::Ordering::Less => {
                        let n = a.leaves[i];
                        i += 1;
                        n
                    }
                    core::cmp::Ordering::Greater => {
                        let n = b.leaves[j];
                        j += 1;
                        n
                    }
                    core::cmp::Ordering::Equal => {
                        let n = a.leaves[i];
                        i += 1;
                        j += 1;
                        n
                    }
                },
                (true, false) => {
                    let n = a.leaves[i];
                    i += 1;
                    n
                }
                _ => {
                    let n = b.leaves[j];
                    j += 1;
                    n
                }
            };
            if len == k {
                return None;
            }
            leaves[len] = n;
            len += 1;
        }
        Some(Cut {
            leaves,
            len: len as u8,
            tt: 0,
            sign: a.sign | b.sign,
        })
    }

    /// Position of leaf `n` within this cut.
    #[cfg(test)]
    fn leaf_pos(&self, n: NodeId) -> usize {
        self.leaves[..self.len as usize]
            .binary_search(&n)
            .expect("leaf present")
    }

    /// Translates the cut across a slot renumbering ([`mig::Mig::compact`]).
    /// Renumbering can reorder the leaves (they are kept sorted by id, and
    /// gate ids permute), so the truth table's variables are permuted to
    /// match and the signature is recomputed. `None` when a leaf's slot
    /// was dead at compaction time — the cut no longer describes anything.
    fn remap(&self, map: &CompactMap) -> Option<Cut> {
        let k = self.len as usize;
        // (new leaf id, old variable position), then sort by new id —
        // injective on live slots, so the order is unambiguous.
        let mut pairs = [(0 as NodeId, 0usize); MAX_CUT_SIZE];
        for (i, &l) in self.leaves().iter().enumerate() {
            pairs[i] = (map.remap(l)?, i);
        }
        pairs[..k].sort_unstable();
        let mut leaves = [0 as NodeId; MAX_CUT_SIZE];
        let mut new_pos = [0usize; MAX_CUT_SIZE]; // old variable -> new variable
        let mut sign = 0u64;
        for (j, &(n, i)) in pairs[..k].iter().enumerate() {
            leaves[j] = n;
            new_pos[i] = j;
            sign |= 1 << (n % 64);
        }
        let tt = if k == 0 {
            self.tt
        } else {
            expand_tt(self.tt, k, &new_pos[..k], k) & mask(k)
        };
        Some(Cut {
            leaves,
            len: self.len,
            tt,
            sign,
        })
    }
}

/// Expands `tt` over `sub_vars` variables onto a larger variable space
/// using a position map (`map[i]` = variable index in the target space).
fn expand_tt(tt: u64, sub_vars: usize, map: &[usize], target_vars: usize) -> u64 {
    // Word-parallel: OR the full-width minterm mask of every set source
    // entry instead of assembling the result bit by bit. `VAR[p]` is the
    // truth table of variable `p` over the widest space; a minterm's mask
    // is the AND of each mapped variable's table (or its complement).
    const VAR: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    let full = mask(target_vars);
    let mut out = 0u64;
    for s in 0..1usize << sub_vars {
        if (tt >> s) & 1 == 1 {
            let mut m = full;
            for (i, &p) in map.iter().take(sub_vars).enumerate() {
                let v = VAR[p];
                m &= if (s >> i) & 1 == 1 { v } else { !v };
            }
            out |= m;
        }
    }
    out & full
}

/// Configuration for cut enumeration.
#[derive(Debug, Clone, Copy)]
pub struct CutConfig {
    /// Maximum cut width `k` (2..=6). The paper uses 4.
    pub cut_size: usize,
    /// Maximum number of cuts stored per node (priority cuts).
    pub max_cuts: usize,
}

impl Default for CutConfig {
    fn default() -> Self {
        CutConfig {
            cut_size: 4,
            max_cuts: 12,
        }
    }
}

/// Stamp value no live epoch ever takes (epochs start at 1), so
/// zero-initialized ranges are born stale.
const STALE: u32 = 0;

/// A node's slice of the arena pool, valid while `stamp` matches the
/// arena epoch.
#[derive(Debug, Clone, Copy, Default)]
struct CutRange {
    off: u32,
    len: u32,
    stamp: u32,
}

/// Arena-backed cut storage: one contiguous pool of [`Cut`]s shared by
/// every node, with per-node ranges and epoch-stamped invalidation.
///
/// Replacing a node's list appends the new cuts at the pool tail and
/// retires the old range (its slots become dead); when dead slots
/// outnumber live ones the pool is compacted in place. Whole-arena
/// invalidation is an epoch bump + `pool.clear()` — O(1), no per-node
/// traffic — which is what makes [`LocalCuts`] stores cheap to recycle
/// across rounds.
#[derive(Debug, Default)]
struct CutArena {
    pool: Vec<Cut>,
    ranges: Vec<CutRange>,
    /// Current validity epoch; ranges stamped with it are live.
    epoch: u32,
    /// Pool slots belonging to retired ranges (compaction trigger).
    dead: usize,
    /// Reusable index buffer for in-place compaction.
    live_scratch: Vec<u32>,
    /// Capacity already accounted to the `cuts.arena_bytes` gauge. The
    /// gauge grows monotonically with reserved capacity (summed over
    /// arenas as they grow); shrink/drop is not reported, so scoped
    /// metric deltas see real reservation cost instead of netting to 0.
    reported_bytes: usize,
}

impl CutArena {
    fn new() -> Self {
        CutArena {
            epoch: 1,
            ..Default::default()
        }
    }

    fn ensure_len(&mut self, n: usize) {
        if self.ranges.len() < n {
            self.ranges.resize(n, CutRange::default());
            self.note_capacity();
        }
    }

    fn is_valid(&self, n: NodeId) -> bool {
        self.ranges
            .get(n as usize)
            .is_some_and(|r| r.stamp == self.epoch)
    }

    /// The stored list of `n`; empty for stale or out-of-range nodes
    /// (a stale range's pool slots may already be gone).
    fn get(&self, n: NodeId) -> &[Cut] {
        match self.ranges.get(n as usize) {
            Some(r) if r.stamp == self.epoch => {
                &self.pool[r.off as usize..(r.off + r.len) as usize]
            }
            _ => &[],
        }
    }

    /// Stores `cuts` as node `n`'s list (appended at the pool tail).
    fn set(&mut self, n: NodeId, cuts: &[Cut]) {
        self.ensure_len(n as usize + 1);
        let old = self.ranges[n as usize];
        if old.stamp == self.epoch {
            self.dead += old.len as usize;
        }
        let off = self.pool.len();
        self.pool.extend_from_slice(cuts);
        self.ranges[n as usize] = CutRange {
            off: off as u32,
            len: cuts.len() as u32,
            stamp: self.epoch,
        };
        self.maybe_compact();
        self.note_capacity();
    }

    /// Retires node `n`'s list (its pool slots become dead).
    fn invalidate(&mut self, n: NodeId) {
        if let Some(r) = self.ranges.get_mut(n as usize) {
            if r.stamp == self.epoch {
                self.dead += r.len as usize;
                r.stamp = STALE;
            }
        }
    }

    /// Retires every list: epoch bump + pool clear, no per-node writes.
    fn invalidate_all(&mut self) {
        self.pool.clear();
        self.dead = 0;
        if self.epoch == u32::MAX {
            // Epoch wrap: old stamps could collide with recycled epochs,
            // so reset them all once per 2^32 invalidations.
            for r in &mut self.ranges {
                r.stamp = STALE;
            }
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Marks every node in `0..n` valid with an empty list (full
    /// enumeration seeds dead slots this way, mirroring the nested-Vec
    /// behavior of serving them an empty — but valid — list).
    fn mark_all_valid_empty(&mut self, n: usize) {
        self.invalidate_all();
        self.ensure_len(n);
        let stamp = self.epoch;
        for r in &mut self.ranges[..n] {
            *r = CutRange {
                off: 0,
                len: 0,
                stamp,
            };
        }
    }

    /// Slides live ranges down over dead pool slots when more than half
    /// the pool is dead. Stable in-place gather: live ranges sorted by
    /// offset keep their relative order, so every `copy_within` moves
    /// data leftward only. The index buffer is reused across calls.
    fn maybe_compact(&mut self) {
        if self.pool.len() < 256 || self.dead * 2 <= self.pool.len() {
            return;
        }
        let CutArena {
            pool,
            ranges,
            epoch,
            live_scratch,
            ..
        } = self;
        live_scratch.clear();
        for (i, r) in ranges.iter().enumerate() {
            if r.stamp == *epoch && r.len > 0 {
                live_scratch.push(i as u32);
            }
        }
        live_scratch.sort_unstable_by_key(|&i| ranges[i as usize].off);
        let mut w = 0usize;
        for &i in live_scratch.iter() {
            let r = &mut ranges[i as usize];
            let (off, len) = (r.off as usize, r.len as usize);
            pool.copy_within(off..off + len, w);
            r.off = w as u32;
            w += len;
        }
        pool.truncate(w);
        self.dead = 0;
    }

    /// Publishes capacity growth to the `cuts.arena_bytes` gauge.
    fn note_capacity(&mut self) {
        let bytes = self.pool.capacity() * std::mem::size_of::<Cut>()
            + self.ranges.capacity() * std::mem::size_of::<CutRange>()
            + self.live_scratch.capacity() * std::mem::size_of::<u32>();
        if bytes > self.reported_bytes {
            obs::metrics::addi(
                obs::Metric::CutsArenaBytes,
                (bytes - self.reported_bytes) as i64,
            );
            self.reported_bytes = bytes;
        }
    }
}

/// Reusable working memory for cut recomputation: the merge kernel's
/// output list and the invalidation/recursion stack. Owned by [`CutSet`]
/// and [`LocalCuts`] (one per store, so sharded workers each carry their
/// own), warmed on first use and reused allocation-free afterwards.
#[derive(Debug, Default)]
pub struct CutScratch {
    /// Merge kernel output, swapped into the arena per node.
    out: Vec<Cut>,
    /// Traversal stack shared by miss-walks and invalidation.
    stack: Vec<NodeId>,
    /// Whether the buffers have served a previous walk.
    warm: bool,
}

impl CutScratch {
    /// Counts warm reuse (one tick per recomputation walk served by
    /// already-allocated buffers) into `cuts.scratch_reuse`.
    fn note_use(&mut self) {
        if self.warm {
            obs::metrics::add(obs::Metric::CutsScratchReuse, 1);
        } else {
            self.warm = true;
        }
    }
}

/// All cuts of every node of an MIG, with per-node invalidation.
#[derive(Debug)]
pub struct CutSet {
    arena: CutArena,
    scratch: CutScratch,
    config: CutConfig,
    num_inputs: usize,
    /// Position in the graph's structural-change log up to which this
    /// set is consistent; [`CutSet::refresh`] reads only the tail.
    cursor: DirtyCursor,
}

impl CutSet {
    /// The cuts enumerated for node `n` (trivial cut first for gates).
    ///
    /// Only meaningful while `n`'s list is up to date — after in-place
    /// rewrites, use [`CutSet::refresh`] + [`CutSet::of_updated`].
    pub fn of(&self, n: NodeId) -> &[Cut] {
        debug_assert!(self.arena.is_valid(n), "stale cut list for node {n}");
        self.arena.get(n)
    }

    /// Whether `n`'s list reflects the current graph structure.
    pub fn is_valid(&self, n: NodeId) -> bool {
        self.arena.is_valid(n)
    }

    /// The set's position in the graph's structural-change log (the
    /// entries before it have been processed). A pipeline holding this
    /// set as its slowest log consumer can pass the cursor to
    /// [`mig::Mig::truncate_dirty`] to bound log growth.
    pub fn cursor(&self) -> DirtyCursor {
        self.cursor
    }

    /// Reads the structural changes logged since the last refresh (via
    /// this set's own cursor — the log itself is not consumed, so any
    /// number of other consumers keep their feeds) and invalidates the
    /// cut lists of every changed node and its transitive fanout. Cost
    /// is proportional to the affected region, not the graph. If entries
    /// this set still needed were drained away by another consumer, the
    /// whole set is conservatively invalidated.
    pub fn refresh(&mut self, mig: &Mig) {
        self.arena.ensure_len(mig.num_nodes());
        // Time only refreshes with pending dirt: the common no-op call
        // (clean log, one slice check) must stay free of clock reads.
        let pending = !mig.dirty_since(self.cursor).is_some_and(|d| d.is_empty());
        let _timer = pending.then(|| {
            obs::metrics::add(obs::Metric::CutsRefreshes, 1);
            obs::metrics::timer(obs::Metric::CutsRefreshNs)
        });
        let CutSet {
            arena,
            scratch,
            cursor,
            ..
        } = self;
        let stack = &mut scratch.stack;
        stack.clear();
        match mig.dirty_since(*cursor) {
            Some(dirty) => stack.extend_from_slice(dirty),
            None => {
                // The log was truncated under us: the incremental feed
                // has a gap, so nothing can be trusted.
                arena.invalidate_all();
                *cursor = mig.dirty_cursor();
                return;
            }
        }
        *cursor = mig.dirty_cursor();
        while let Some(v) = stack.pop() {
            if !arena.is_valid(v) {
                continue; // this node's fanout was already invalidated
            }
            arena.invalidate(v);
            for p in mig.fanout_gates(v) {
                stack.push(p);
            }
        }
    }

    /// The cuts of `n`, recomputing the list (and, recursively, any stale
    /// fanin lists) if a rewrite invalidated it.
    pub fn of_updated(&mut self, mig: &Mig, n: NodeId) -> &[Cut] {
        if self.arena.is_valid(n) {
            obs::metrics::add(obs::Metric::CutsCacheHits, 1);
        } else {
            obs::metrics::add(obs::Metric::CutsCacheMisses, 1);
            let CutSet {
                arena,
                scratch,
                config,
                num_inputs,
                ..
            } = self;
            scratch.note_use();
            let CutScratch { out, stack, .. } = scratch;
            stack.clear();
            stack.push(n);
            while let Some(&v) = stack.last() {
                if arena.is_valid(v) {
                    stack.pop();
                    continue;
                }
                let mut ready = true;
                if mig.is_gate(v) {
                    for s in mig.fanins(v) {
                        let m = s.node();
                        if !arena.is_valid(m) {
                            ready = false;
                            stack.push(m);
                        }
                    }
                }
                if !ready {
                    continue;
                }
                stack.pop();
                compute_node_into(mig, v, config, *num_inputs, arena, out);
                arena.set(v, out);
            }
        }
        self.arena.get(n)
    }

    /// Migrates the set across a compaction ([`mig::Mig::compact`]):
    /// every valid list moves to its node's new slot with leaves, truth
    /// tables and signatures translated, so the enumeration work carried
    /// in the set survives the renumbering instead of being rebuilt.
    ///
    /// Protocol: [`CutSet::refresh`] *before* compacting (the log's
    /// history is in old numbering and compaction gaps it), then compact,
    /// then `remap` — which re-anchors the cursor at the now-current log
    /// position. Skipping the refresh is safe but wasteful: the gapped
    /// cursor would invalidate the whole set on the next refresh.
    pub fn remap(&mut self, mig: &Mig, map: &CompactMap) {
        if map.is_identity() {
            // Fixpoint compactions leave the graph (and its log)
            // untouched; nothing moved.
            return;
        }
        let arena = &mut self.arena;
        let n = map.new_len();
        let mut ranges = vec![CutRange::default(); n];
        let mut pool: Vec<Cut> = Vec::with_capacity(arena.pool.len().saturating_sub(arena.dead));
        'node: for old in 0..arena.ranges.len().min(map.old_len()) {
            if !arena.is_valid(old as NodeId) {
                continue;
            }
            let Some(new) = map.remap(old as NodeId) else {
                continue;
            };
            // A valid list of a live node only references live cone
            // nodes, so every leaf remaps; the fallback (drop the list,
            // recompute on demand) is purely defensive.
            let off = pool.len();
            for c in arena.get(old as NodeId) {
                match c.remap(map) {
                    Some(rc) => pool.push(rc),
                    None => {
                        pool.truncate(off);
                        continue 'node;
                    }
                }
            }
            ranges[new as usize] = CutRange {
                off: off as u32,
                len: (pool.len() - off) as u32,
                stamp: 1,
            };
        }
        arena.pool = pool;
        arena.ranges = ranges;
        arena.epoch = 1;
        arena.dead = 0;
        arena.note_capacity();
        self.cursor = mig.dirty_cursor();
    }
}

/// Computes node `v`'s cut list into `out` from its (valid) fanin lists
/// in `arena`.
fn compute_node_into(
    mig: &Mig,
    v: NodeId,
    config: &CutConfig,
    num_inputs: usize,
    arena: &CutArena,
    out: &mut Vec<Cut>,
) {
    out.clear();
    if v == 0 {
        out.push(Cut::constant());
        return;
    }
    if (v as usize) <= num_inputs {
        out.push(Cut::trivial(v));
        return;
    }
    if !mig.is_gate(v) {
        return; // dead slot: valid, empty list
    }
    let fanins = mig.fanins(v);
    let lists = fanins.map(|s| arena.get(s.node()));
    merge_gate_cuts_into(v, fanins, lists, config, out);
}

/// Fused cut-merge kernel: computes the cut list of gate `v` from its
/// three fanin cut lists into caller-owned `out` — merged leaf sets
/// within the width bound, truth tables composed through the fanin
/// polarities, dominance-filtered, priority-bounded, trivial cut first.
/// Shared by the global [`CutSet`] enumeration and the shard-local
/// [`LocalCuts`] refresh so the two can never drift.
///
/// Allocation-free in steady state: permutation maps are stack arrays,
/// dominance filtering works in place on `out`, and the priority sort is
/// a stable insertion sort by leaf count (`slice::sort_by_key` allocates
/// for lists past 20 entries; unstable sorting would perturb tie order
/// and break bit-identity with the historical enumeration). The caller
/// reuses `out` across nodes, so its capacity warms once.
pub fn merge_gate_cuts_into(
    v: NodeId,
    fanins: [Signal; 3],
    lists: [&[Cut]; 3],
    config: &CutConfig,
    out: &mut Vec<Cut>,
) {
    out.clear();
    let k = config.cut_size;
    let k32 = k as u32;
    let [fa, fb, fc] = fanins;
    for ca in lists[0] {
        for cb in lists[1] {
            // Bloom prune: the signature union's popcount lower-bounds the
            // distinct-leaf count (collisions only lose bits), so popcount
            // past `k` proves infeasibility without touching the leaves —
            // and the a∪b union is hoisted so the inner loop never redoes
            // the pair merge per c-cut.
            if (ca.sign | cb.sign).count_ones() > k32 {
                continue;
            }
            let Some(ab) = Cut::union2(ca, cb, k) else {
                continue;
            };
            'next: for cc in lists[2] {
                if (ab.sign | cc.sign).count_ones() > k32 {
                    continue;
                }
                let Some(mut merged) = Cut::union2(&ab, cc, k) else {
                    continue;
                };
                // Truth table: expand each child's function onto the
                // merged leaf space, apply fanin polarities, majority.
                let tv = merged.len();
                let mut words = [0u64; 3];
                let children: [(&Cut, Signal); 3] = [(ca, fa), (cb, fb), (cc, fc)];
                for (w, (cut, sig)) in words.iter_mut().zip(children) {
                    let mut t = if cut.len() == tv {
                        // Same width means the same (sorted) leaf set: the
                        // permutation is the identity.
                        cut.tt
                    } else {
                        // Two-pointer walk: the child's leaves are a sorted
                        // subset of the merged leaves.
                        let mut map = [0usize; MAX_CUT_SIZE];
                        let mut pos = 0usize;
                        for (i, &l) in cut.leaves().iter().enumerate() {
                            while merged.leaves[pos] != l {
                                pos += 1;
                            }
                            map[i] = pos;
                        }
                        expand_tt(cut.tt, cut.len(), &map[..cut.len()], tv)
                    };
                    if sig.is_complemented() {
                        t = !t;
                    }
                    *w = t & mask(tv);
                }
                merged.tt = ((words[0] & words[1]) | (words[0] & words[2]) | (words[1] & words[2]))
                    & mask(tv);
                // Dominance filtering.
                for existing in out.iter() {
                    if existing.dominates(&merged) {
                        continue 'next;
                    }
                }
                out.retain(|e| !merged.dominates(e));
                out.push(merged);
            }
        }
    }
    // Priority: fewer leaves first; stable beyond that (insertion sort —
    // adjacent swaps under strict comparison preserve tie order).
    for i in 1..out.len() {
        let mut j = i;
        while j > 0 && out[j - 1].len > out[j].len {
            out.swap(j - 1, j);
            j -= 1;
        }
    }
    out.truncate(config.max_cuts.saturating_sub(1));
    // The trivial cut is always available (needed by parents).
    out.insert(0, Cut::trivial(v));
}

/// Shard-local cut refresh for parallel proposal workers: computes cut
/// lists on demand from a *shared, read-only* graph, memoizing per node.
///
/// Workers cannot use the global [`CutSet`] (its refresh consumes the
/// graph's dirty log mutably and is shared state); instead each region
/// gets a `LocalCuts` over the frozen round snapshot. To bound the work
/// to the region instead of its whole transitive fanin, nodes *below*
/// `floor_level` contribute only their trivial cut — sound, because any
/// node may serve as a cut leaf; the floor only prunes cuts reaching
/// deeper than the horizon, which a 4-feasible replacement would not use
/// anyway when the floor sits comfortably below the region.
///
/// The store holds no graph reference, so it can outlive the round that
/// filled it: a shard driver carries each region's `LocalCuts` across
/// rounds, calling [`LocalCuts::invalidate`] with the nodes the previous
/// round's commits dirtied (the same transitive-fanout staleness rule as
/// [`CutSet::refresh`]) instead of re-enumerating the region from
/// scratch. Storage is the same arena + scratch pair as [`CutSet`], so a
/// carried store performs no steady-state allocations either.
#[derive(Debug)]
pub struct LocalCuts {
    config: CutConfig,
    floor_level: u32,
    arena: CutArena,
    scratch: CutScratch,
}

impl LocalCuts {
    /// Creates a shard-local cut view. `floor_level` is the leaf horizon
    /// (0 reproduces the exact global enumeration).
    pub fn new(config: CutConfig, floor_level: u32) -> Self {
        LocalCuts {
            config,
            floor_level,
            arena: CutArena::new(),
            scratch: CutScratch::default(),
        }
    }

    /// The leaf horizon the memoized lists were computed under. Carried
    /// stores are only reusable while the owning region's floor is
    /// unchanged (a different horizon changes which cuts are pruned).
    pub fn floor_level(&self) -> u32 {
        self.floor_level
    }

    /// Drops the memoized lists of `dirty` nodes and their transitive
    /// fanout (computed against the live graph), so a store can be
    /// carried across rewriting rounds. Mirrors [`CutSet::refresh`]; the
    /// walk stops at never-computed nodes, whose dependents are
    /// necessarily uncomputed too (a list is only memoized once all its
    /// fanin lists are). The traversal stack is the store's own scratch,
    /// reused across calls — no per-invalidation allocation.
    pub fn invalidate(&mut self, mig: &Mig, dirty: impl IntoIterator<Item = NodeId>) {
        self.arena.ensure_len(mig.num_nodes());
        let LocalCuts { arena, scratch, .. } = self;
        let stack = &mut scratch.stack;
        stack.clear();
        stack.extend(dirty);
        while let Some(v) = stack.pop() {
            if !arena.is_valid(v) {
                continue; // never computed, or fanout already invalidated
            }
            arena.invalidate(v);
            for p in mig.fanout_gates(v) {
                stack.push(p);
            }
        }
    }

    /// The cut list of `n`, computing (and memoizing) it and any missing
    /// fanin lists above the horizon.
    pub fn of(&mut self, mig: &Mig, n: NodeId) -> &[Cut] {
        self.arena.ensure_len(mig.num_nodes());
        if self.arena.is_valid(n) {
            obs::metrics::add(obs::Metric::CutsCacheHits, 1);
        } else {
            obs::metrics::add(obs::Metric::CutsCacheMisses, 1);
            let LocalCuts {
                arena,
                scratch,
                config,
                floor_level,
            } = self;
            scratch.note_use();
            let CutScratch { out, stack, .. } = scratch;
            stack.clear();
            stack.push(n);
            while let Some(&v) = stack.last() {
                if arena.is_valid(v) {
                    stack.pop();
                    continue;
                }
                if leaf_list_into(mig, v, *floor_level, out) {
                    arena.set(v, out);
                    stack.pop();
                    continue;
                }
                let mut ready = true;
                for s in mig.fanins(v) {
                    let m = s.node();
                    if !arena.is_valid(m) {
                        ready = false;
                        stack.push(m);
                    }
                }
                if !ready {
                    continue;
                }
                stack.pop();
                let fanins = mig.fanins(v);
                let lists = fanins.map(|s| arena.get(s.node()));
                merge_gate_cuts_into(v, fanins, lists, config, out);
                arena.set(v, out);
            }
        }
        self.arena.get(n)
    }
}

/// Writes the fixed list of `v` into `out` when it needs no fanin
/// recursion — terminals, dead slots and gates at or below the leaf
/// horizon — returning whether `v` was such a leaf.
fn leaf_list_into(mig: &Mig, v: NodeId, floor_level: u32, out: &mut Vec<Cut>) -> bool {
    out.clear();
    if v == 0 {
        out.push(Cut::constant());
        return true;
    }
    if mig.is_terminal(v) {
        out.push(Cut::trivial(v));
        return true;
    }
    if !mig.is_gate(v) {
        return true; // dead slot: valid, empty list
    }
    if mig.level(v) < floor_level {
        out.push(Cut::trivial(v));
        return true;
    }
    false
}

/// Enumerates all k-feasible cuts of `mig` under `config`.
///
/// # Panics
///
/// Panics if `config.cut_size` is outside `2..=MAX_CUT_SIZE`.
///
/// # Examples
///
/// ```
/// use cuts::{enumerate_cuts, CutConfig};
/// use mig::Mig;
///
/// let mut m = Mig::new(3);
/// let (a, b, c) = (m.input(0), m.input(1), m.input(2));
/// let g = m.maj(a, b, c);
/// m.add_output(g);
/// let cuts = enumerate_cuts(&m, &CutConfig::default());
/// // The non-trivial cut {a, b, c} computes 3-input majority (0xe8).
/// let best = cuts.of(g.node()).iter().find(|c| c.len() == 3).unwrap();
/// assert_eq!(best.truth_table(), 0xe8);
/// ```
pub fn enumerate_cuts(mig: &Mig, config: &CutConfig) -> CutSet {
    assert!(
        (2..=MAX_CUT_SIZE).contains(&config.cut_size),
        "cut size {} out of range",
        config.cut_size
    );
    let n = mig.num_nodes();
    let mut set = CutSet {
        arena: CutArena::new(),
        scratch: CutScratch::default(),
        config: *config,
        num_inputs: mig.num_inputs(),
        // Pending log entries predate this enumeration; the set is
        // consistent with the graph as of now.
        cursor: mig.dirty_cursor(),
    };
    let CutSet {
        arena,
        scratch,
        config,
        ..
    } = &mut set;
    arena.mark_all_valid_empty(n);
    scratch.note_use();
    arena.set(0, &[Cut::constant()]);
    for i in 0..mig.num_inputs() {
        let node = mig.input(i).node();
        arena.set(node, &[Cut::trivial(node)]);
    }
    for g in mig.topo_gates() {
        let fanins = mig.fanins(g);
        let lists = fanins.map(|s| arena.get(s.node()));
        merge_gate_cuts_into(g, fanins, lists, config, &mut scratch.out);
        arena.set(g, &scratch.out);
    }
    set
}

fn mask(vars: usize) -> u64 {
    if vars >= 6 {
        u64::MAX
    } else {
        (1u64 << (1 << vars)) - 1
    }
}

/// Returns the internal nodes of cut `(root, leaves)`: every gate on a path
/// from `root` down to the leaves, including `root`, excluding leaves and
/// terminals. Result is in descending id order (reverse topological).
pub fn cut_internal_nodes(mig: &Mig, root: NodeId, leaves: &[NodeId]) -> Vec<NodeId> {
    let mut internal = Vec::new();
    let mut stack = Vec::new();
    cut_internal_nodes_into(mig, root, leaves, &mut internal, &mut stack);
    internal
}

/// [`cut_internal_nodes`] writing into caller-owned buffers, so hot loops
/// that score thousands of cuts per node reuse one allocation instead of
/// building a fresh vector (and visited set) per cut. `internal` is
/// cleared first; `stack` is scratch space. Cut cones are small (a
/// 4-feasible cut spans at most a handful of gates), so the visited check
/// is a linear scan of `internal` itself — cheaper than hashing.
pub fn cut_internal_nodes_into(
    mig: &Mig,
    root: NodeId,
    leaves: &[NodeId],
    internal: &mut Vec<NodeId>,
    stack: &mut Vec<NodeId>,
) {
    internal.clear();
    stack.clear();
    stack.push(root);
    while let Some(n) = stack.pop() {
        if leaves.contains(&n) || mig.is_terminal(n) || internal.contains(&n) {
            continue;
        }
        internal.push(n);
        for s in mig.fanins(n) {
            stack.push(s.node());
        }
    }
    internal.sort_unstable_by(|a, b| b.cmp(a));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn maj3_mig() -> (Mig, Signal) {
        let mut m = Mig::new(3);
        let (a, b, c) = (m.input(0), m.input(1), m.input(2));
        let g = m.maj(a, b, c);
        m.add_output(g);
        (m, g)
    }

    #[test]
    fn trivial_cut_is_projection() {
        let c = Cut::trivial(5);
        assert_eq!(c.leaves(), &[5]);
        assert_eq!(c.truth_table(), 0b10);
        assert!(!c.is_empty());
    }

    #[test]
    fn single_gate_cuts() {
        let (m, g) = maj3_mig();
        let cs = enumerate_cuts(&m, &CutConfig::default());
        let cuts = cs.of(g.node());
        assert_eq!(cuts[0].leaves(), &[g.node()]);
        let wide = cuts.iter().find(|c| c.len() == 3).expect("3-leaf cut");
        assert_eq!(wide.truth_table(), 0xe8);
    }

    #[test]
    fn full_adder_cut_functions() {
        let mut m = Mig::new(3);
        let (a, b, cin) = (m.input(0), m.input(1), m.input(2));
        let (sum, carry) = m.full_adder(a, b, cin);
        m.add_output(sum);
        m.add_output(carry);
        let cs = enumerate_cuts(&m, &CutConfig::default());
        let sum_cuts = cs.of(sum.node());
        // Some cut over {a,b,cin} computes xor3 (0x96), modulo the output
        // polarity carried by the signal.
        let found = sum_cuts.iter().any(|c| {
            c.leaves() == [a.node(), b.node(), cin.node()]
                && (c.truth_table() == 0x96 || c.truth_table() == 0x69)
        });
        assert!(found, "cuts: {sum_cuts:?}");
    }

    #[test]
    fn cut_width_is_respected() {
        // A chain over 8 inputs: all cuts must stay within k leaves.
        let mut m = Mig::new(8);
        let mut acc = m.input(0);
        for i in 1..8 {
            let x = m.input(i);
            acc = m.maj(acc, x, Signal::ZERO);
        }
        m.add_output(acc);
        for k in 2..=6 {
            let cfg = CutConfig {
                cut_size: k,
                max_cuts: 20,
            };
            let cs = enumerate_cuts(&m, &cfg);
            for g in m.gates() {
                for c in cs.of(g) {
                    assert!(c.len() <= k);
                }
            }
        }
    }

    #[test]
    fn constant_fanins_are_exempt_from_leaves() {
        // g = <0 a b>: the constant never appears as a leaf (paper: paths
        // to the constant node are exempt).
        let mut m = Mig::new(2);
        let (a, b) = (m.input(0), m.input(1));
        let g = m.and(a, b);
        m.add_output(g);
        let cs = enumerate_cuts(&m, &CutConfig::default());
        for c in cs.of(g.node()) {
            assert!(!c.leaves().contains(&0));
        }
        let and_cut = cs
            .of(g.node())
            .iter()
            .find(|c| c.len() == 2)
            .expect("2-leaf cut");
        assert_eq!(and_cut.truth_table(), 0x8);
    }

    #[test]
    fn input_leaf_cut_functions_match_simulation() {
        let mut m = Mig::new(4);
        let (a, b, c, d) = (m.input(0), m.input(1), m.input(2), m.input(3));
        let g1 = m.maj(a, b, !c);
        let g2 = m.maj(g1, c, d);
        let g3 = m.xor(g2, a);
        let g4 = m.maj(g1, !g3, b);
        m.add_output(g4);
        let cs = enumerate_cuts(
            &m,
            &CutConfig {
                cut_size: 4,
                max_cuts: 50,
            },
        );
        let node_tts = m.simulate_tables(
            &(0..4)
                .map(|i| truth::TruthTable::var(4, i))
                .collect::<Vec<_>>(),
        );
        let mut checked = 0;
        for g in m.gates() {
            for cut in cs.of(g) {
                if cut.leaves().iter().any(|&l| m.is_gate(l)) {
                    continue;
                }
                // All leaves are inputs: the cut function, re-expressed
                // over the primary inputs, must equal the node's global
                // function (leaves cut all paths).
                let full = cut.truth_table_full().expand(
                    4,
                    &cut.leaves()
                        .iter()
                        .map(|&l| m.input_index(l))
                        .collect::<Vec<_>>(),
                );
                assert_eq!(full, node_tts[g as usize], "cut {cut:?} of gate {g}");
                checked += 1;
            }
        }
        assert!(checked > 5, "exercised {checked} cuts");
    }

    #[test]
    fn gate_leaf_cut_functions_compose() {
        // For cuts with gate leaves: composing the cut function with the
        // leaves' global functions must give the root's global function.
        let mut m = Mig::new(4);
        let (a, b, c, d) = (m.input(0), m.input(1), m.input(2), m.input(3));
        let g1 = m.maj(a, b, c);
        let g2 = m.maj(!g1, c, d);
        let g3 = m.maj(g2, g1, !a);
        m.add_output(g3);
        let cs = enumerate_cuts(
            &m,
            &CutConfig {
                cut_size: 4,
                max_cuts: 50,
            },
        );
        let node_tts = m.simulate_tables(
            &(0..4)
                .map(|i| truth::TruthTable::var(4, i))
                .collect::<Vec<_>>(),
        );
        for cut in cs.of(g3.node()) {
            if cut.len() == 1 && cut.leaves()[0] == g3.node() {
                continue;
            }
            // Compose: substitute each leaf variable by its global table.
            let mut composed = truth::TruthTable::zeros(4);
            for j in 0..16usize {
                let mut idx = 0usize;
                for (pos, &leaf) in cut.leaves().iter().enumerate() {
                    if node_tts[leaf as usize].bit(j) {
                        idx |= 1 << pos;
                    }
                }
                if (cut.truth_table() >> idx) & 1 == 1 {
                    composed.set_bit(j, true);
                }
            }
            assert_eq!(composed, node_tts[g3.node() as usize], "cut {cut:?}");
        }
    }

    #[test]
    fn dominated_cuts_are_filtered() {
        let (m, g) = maj3_mig();
        let cs = enumerate_cuts(
            &m,
            &CutConfig {
                cut_size: 4,
                max_cuts: 50,
            },
        );
        let cuts = cs.of(g.node());
        for i in 0..cuts.len() {
            for j in 0..cuts.len() {
                if i != j {
                    assert!(
                        !cuts[i].dominates(&cuts[j]) || cuts[i].leaves() == cuts[j].leaves(),
                        "cut {i} dominates cut {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn internal_nodes_of_cut() {
        let mut m = Mig::new(4);
        let (a, b, c, d) = (m.input(0), m.input(1), m.input(2), m.input(3));
        let g1 = m.maj(a, b, c);
        let g2 = m.maj(g1, c, d);
        let g3 = m.maj(g2, g1, a);
        m.add_output(g3);
        let internal = cut_internal_nodes(&m, g3.node(), &[g1.node(), d.node()]);
        assert_eq!(internal, vec![g3.node(), g2.node()]);
        let all = cut_internal_nodes(&m, g3.node(), &[a.node(), b.node(), c.node(), d.node()]);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn max_cuts_bounds_list_length() {
        let mut m = Mig::new(6);
        let mut layer: Vec<Signal> = (0..6).map(|i| m.input(i)).collect();
        while layer.len() >= 3 {
            let g = m.maj(layer[0], layer[1], layer[2]);
            layer = layer[3..].to_vec();
            layer.push(g);
        }
        m.add_output(layer[0]);
        let cfg = CutConfig {
            cut_size: 4,
            max_cuts: 3,
        };
        let cs = enumerate_cuts(&m, &cfg);
        for g in m.gates() {
            assert!(cs.of(g).len() <= 3);
        }
    }

    #[test]
    fn incremental_refresh_matches_full_enumeration() {
        // Build, enumerate, rewrite in place, refresh incrementally and
        // compare against a from-scratch enumeration of the new graph.
        let mut m = Mig::new(4);
        let (a, b, c, d) = (m.input(0), m.input(1), m.input(2), m.input(3));
        let g1 = m.xor(a, b);
        let g2 = m.maj(g1, c, d);
        let g3 = m.maj(g2, g1, !a);
        m.add_output(g3);
        let cfg = CutConfig::default();
        let _ = m.drain_dirty();
        let mut cs = enumerate_cuts(&m, &cfg);
        // Replace g1 by a fresh equivalent-for-bookkeeping node.
        let fresh = m.maj(a, !b, d);
        assert!(m.replace_node(g1.node(), fresh));
        cs.refresh(&m);
        let full = enumerate_cuts(&m, &cfg);
        for g in m.gates() {
            let inc = cs.of_updated(&m, g).to_vec();
            assert_eq!(inc, full.of(g).to_vec(), "cuts of gate {g} diverged");
        }
    }

    #[test]
    fn two_cut_sets_share_one_change_log() {
        // The refresh is cursor-based: neither set consumes the log, so
        // both track the same rewrites independently and agree with a
        // from-scratch enumeration.
        let mut m = Mig::new(4);
        let (a, b, c, d) = (m.input(0), m.input(1), m.input(2), m.input(3));
        let g1 = m.xor(a, b);
        let g2 = m.maj(g1, c, d);
        m.add_output(g2);
        let cfg = CutConfig::default();
        let mut cs1 = enumerate_cuts(&m, &cfg);
        let mut cs2 = enumerate_cuts(&m, &cfg);
        let fresh_node = m.maj(a, !b, d);
        assert!(m.replace_node(g1.node(), fresh_node));
        cs1.refresh(&m);
        cs2.refresh(&m);
        let full = enumerate_cuts(&m, &cfg);
        for g in m.gates() {
            assert_eq!(cs1.of_updated(&m, g), full.of(g), "set 1, gate {g}");
            assert_eq!(cs2.of_updated(&m, g), full.of(g), "set 2, gate {g}");
        }
        // A drain by some other owner opens a gap: the next refresh must
        // fall back to full invalidation, not serve stale lists.
        let g3 = m.maj(fresh_node, c, !d);
        m.add_output(g3);
        let _ = m.drain_dirty();
        cs1.refresh(&m);
        let full = enumerate_cuts(&m, &cfg);
        for g in m.gates() {
            assert_eq!(
                cs1.of_updated(&m, g),
                full.of(g),
                "gate {g} stale after a log gap"
            );
        }
    }

    #[test]
    fn refresh_only_invalidates_affected_fanout() {
        let mut m = Mig::new(5);
        let ins: Vec<Signal> = m.inputs().collect();
        let left = m.maj(ins[0], ins[1], ins[2]); // untouched region
        let right = m.xor(ins[3], ins[4]);
        let top = m.maj(left, right, ins[0]);
        m.add_output(top);
        let _ = m.drain_dirty();
        let mut cs = enumerate_cuts(&m, &CutConfig::default());
        let fresh = m.maj(ins[3], !ins[4], ins[0]);
        assert!(m.replace_node(right.node(), fresh));
        cs.refresh(&m);
        // The untouched region's cuts are still valid and served as-is.
        assert!(cs.is_valid(left.node()), "left region not invalidated");
        assert!(!cs.is_valid(top.node()), "fanout of rewrite is stale");
    }

    #[test]
    fn remap_carries_cut_set_across_compaction() {
        // Enumerate, rewrite in place (frees slots), refresh, compact,
        // remap: every carried list must match a from-scratch enumeration
        // of the compacted graph — including leaf order, permuted truth
        // tables and recomputed signatures — and the re-anchored cursor
        // must keep incremental refreshes alive (no gap fallback).
        let mut m = Mig::new(5);
        let ins: Vec<Signal> = m.inputs().collect();
        let left = m.maj(ins[0], ins[1], ins[2]);
        let right = m.xor(ins[3], ins[4]);
        let mid = m.maj(left, right, ins[0]);
        let top = m.maj(mid, left, !ins[4]);
        m.add_output(top);
        let cfg = CutConfig::default();
        let mut cs = enumerate_cuts(&m, &cfg);
        // Free a couple of slots so the compaction genuinely renumbers.
        let fresh = m.maj(ins[3], !ins[4], ins[0]);
        assert!(m.replace_node(right.node(), fresh));
        m.sweep();
        cs.refresh(&m);
        let map = m.compact();
        assert!(!map.is_identity(), "test premise: slots moved");
        cs.remap(&m, &map);
        let full = enumerate_cuts(&m, &cfg);
        let mut carried_over = 0;
        for g in m.gates() {
            if cs.is_valid(g) {
                carried_over += 1;
                assert_eq!(cs.of(g), full.of(g), "carried cuts of gate {g}");
            }
            assert_eq!(cs.of_updated(&m, g), full.of(g), "cuts of gate {g}");
        }
        assert!(carried_over > 0, "no enumeration work survived the remap");
        // The cursor was re-anchored: a structural change after the
        // compaction invalidates only its fanout, not the whole set.
        let extra = m.maj(ins[0], ins[1], !ins[2]);
        m.add_output(extra);
        cs.refresh(&m);
        let full = enumerate_cuts(&m, &cfg);
        for g in m.gates() {
            assert_eq!(cs.of_updated(&m, g), full.of(g), "post-remap refresh");
        }
    }

    #[test]
    fn local_cuts_match_global_enumeration_without_horizon() {
        let mut m = Mig::new(4);
        let (a, b, c, d) = (m.input(0), m.input(1), m.input(2), m.input(3));
        let g1 = m.maj(a, b, !c);
        let g2 = m.maj(g1, c, d);
        let g3 = m.xor(g2, a);
        let g4 = m.maj(g1, !g3, b);
        m.add_output(g4);
        let cfg = CutConfig::default();
        let global = enumerate_cuts(&m, &cfg);
        let mut local = LocalCuts::new(cfg, 0);
        for g in m.gates() {
            assert_eq!(local.of(&m, g), global.of(g), "cuts of gate {g} diverged");
        }
    }

    #[test]
    fn local_cuts_invalidate_matches_fresh_computation() {
        // Fill a store, rewrite in place, invalidate with the dirty log
        // and compare every list against a freshly computed store.
        let mut m = Mig::new(5);
        let ins: Vec<Signal> = m.inputs().collect();
        let left = m.maj(ins[0], ins[1], ins[2]);
        let right = m.xor(ins[3], ins[4]);
        let mid = m.maj(left, right, ins[0]);
        let top = m.maj(mid, left, !ins[4]);
        m.add_output(top);
        let _ = m.drain_dirty();
        let cfg = CutConfig::default();
        let mut carried = LocalCuts::new(cfg, 0);
        for g in m.gates() {
            let _ = carried.of(&m, g);
        }
        let fresh_node = m.maj(ins[3], !ins[4], ins[0]);
        assert!(m.replace_node(right.node(), fresh_node));
        let dirty = m.drain_dirty();
        carried.invalidate(&m, dirty);
        let mut fresh = LocalCuts::new(cfg, 0);
        for g in m.gates() {
            assert_eq!(
                carried.of(&m, g),
                fresh.of(&m, g),
                "carried list of gate {g} diverged after invalidation"
            );
        }
        // The untouched left cone was not recomputed needlessly: its list
        // was still memoized before the comparison walked it.
        assert!(m.is_gate(left.node()));
    }

    #[test]
    fn local_cuts_horizon_truncates_to_trivial_leaves() {
        // A chain: with a floor above the bottom, low gates become
        // leaf-only and high gates' cuts never reach below the floor.
        let mut m = Mig::new(6);
        let mut t = m.input(0);
        for i in 1..6 {
            let x = m.input(i);
            t = m.maj(t, x, Signal::ZERO);
        }
        m.add_output(t);
        let cfg = CutConfig::default();
        let floor = 3;
        let mut local = LocalCuts::new(cfg, floor);
        assert_eq!(local.floor_level(), floor);
        for g in m.gates() {
            if m.level(g) < floor {
                assert_eq!(local.of(&m, g), &[Cut::trivial(g)], "gate {g} below floor");
            } else {
                for cut in local.of(&m, g) {
                    for &l in cut.leaves() {
                        assert!(
                            m.is_terminal(l) || m.level(l) >= floor - 1,
                            "cut of gate {g} reaches below the horizon"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn expand_tt_scatters_variables() {
        // x0 & x1 over 2 vars, mapped to positions {2, 0} of 3 vars.
        let and2 = 0b1000u64;
        let out = expand_tt(and2, 2, &[2, 0], 3);
        // Result should be x2 & x0 over 3 vars: minterms 5, 7.
        assert_eq!(out, 0b1010_0000);
    }
}

/// Differential oracle: the historical nested-Vec enumeration, kept
/// verbatim so the arena-backed kernels can be checked bit-for-bit
/// against it on random graphs (identical cut order, truth tables and
/// signatures — the fused kernel must not even perturb sort ties).
#[cfg(test)]
mod differential {
    use super::*;

    /// The historical three-way sorted-insert leaf merge (pre pair-hoist).
    fn ref_merge_leaves(a: &Cut, b: &Cut, c: &Cut, k: usize) -> Option<Cut> {
        let mut leaves = [0 as NodeId; MAX_CUT_SIZE];
        let mut len = 0usize;
        {
            let mut push = |n: NodeId| -> bool {
                match leaves[..len].binary_search(&n) {
                    Ok(_) => true,
                    Err(pos) => {
                        if len == k {
                            return false;
                        }
                        leaves.copy_within(pos..len, pos + 1);
                        leaves[pos] = n;
                        len += 1;
                        true
                    }
                }
            };
            for cut in [a, b, c] {
                for &l in cut.leaves() {
                    if !push(l) {
                        return None;
                    }
                }
            }
        }
        Some(Cut {
            leaves,
            len: len as u8,
            tt: 0,
            sign: a.sign | b.sign | c.sign,
        })
    }

    fn ref_merge_gate_cuts(
        v: NodeId,
        fanins: [Signal; 3],
        lists: [&[Cut]; 3],
        config: &CutConfig,
    ) -> Vec<Cut> {
        let k = config.cut_size;
        let [fa, fb, fc] = fanins;
        let mut res: Vec<Cut> = Vec::new();
        for ca in lists[0] {
            for cb in lists[1] {
                'next: for cc in lists[2] {
                    let Some(mut merged) = ref_merge_leaves(ca, cb, cc, k) else {
                        continue;
                    };
                    let tv = merged.len();
                    let mut words = [0u64; 3];
                    let children: [(&Cut, Signal); 3] = [(ca, fa), (cb, fb), (cc, fc)];
                    for (w, (cut, sig)) in words.iter_mut().zip(children) {
                        let map: Vec<usize> =
                            cut.leaves().iter().map(|&l| merged.leaf_pos(l)).collect();
                        let mut t = expand_tt(cut.tt, cut.len(), &map, tv);
                        if sig.is_complemented() {
                            t = !t;
                        }
                        *w = t & mask(tv);
                    }
                    merged.tt =
                        ((words[0] & words[1]) | (words[0] & words[2]) | (words[1] & words[2]))
                            & mask(tv);
                    for existing in &res {
                        if existing.dominates(&merged) {
                            continue 'next;
                        }
                    }
                    res.retain(|e| !merged.dominates(e));
                    res.push(merged);
                }
            }
        }
        res.sort_by_key(|c| c.len);
        res.truncate(config.max_cuts.saturating_sub(1));
        res.insert(0, Cut::trivial(v));
        res
    }

    /// From-scratch enumeration into per-node `Vec`s (the pre-arena
    /// storage layout), used as the comparison baseline.
    fn ref_enumerate(mig: &Mig, config: &CutConfig) -> Vec<Vec<Cut>> {
        let n = mig.num_nodes();
        let mut cuts: Vec<Vec<Cut>> = vec![Vec::new(); n];
        cuts[0] = vec![Cut::constant()];
        for i in 0..mig.num_inputs() {
            let node = mig.input(i).node();
            cuts[node as usize] = vec![Cut::trivial(node)];
        }
        for g in mig.topo_gates() {
            let fanins = mig.fanins(g);
            let lists = fanins.map(|s| cuts[s.node() as usize].clone());
            let borrowed = [
                lists[0].as_slice(),
                lists[1].as_slice(),
                lists[2].as_slice(),
            ];
            cuts[g as usize] = ref_merge_gate_cuts(g, fanins, borrowed, config);
        }
        cuts
    }

    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// Deterministic random MIG: `gates` majority gates over random
    /// (possibly complemented) earlier signals.
    fn random_mig(seed: u64, inputs: usize, gates: usize) -> Mig {
        let mut s = seed.max(1);
        let mut m = Mig::new(inputs);
        let mut pool: Vec<Signal> = (0..inputs).map(|i| m.input(i)).collect();
        for _ in 0..gates {
            let pick = |s: &mut u64, pool: &[Signal]| {
                let sig = pool[(xorshift(s) as usize) % pool.len()];
                if xorshift(s) & 1 == 1 {
                    !sig
                } else {
                    sig
                }
            };
            let a = pick(&mut s, &pool);
            let b = pick(&mut s, &pool);
            let c = pick(&mut s, &pool);
            pool.push(m.maj(a, b, c));
        }
        let out = *pool.last().unwrap();
        m.add_output(out);
        m
    }

    #[test]
    fn arena_enumeration_matches_nested_vec_reference() {
        for seed in [1u64, 7, 42, 1234, 99991] {
            let m = random_mig(seed, 8, 60);
            let cfg = CutConfig::default();
            let arena = enumerate_cuts(&m, &cfg);
            let reference = ref_enumerate(&m, &cfg);
            for g in m.gates() {
                assert_eq!(
                    arena.of(g),
                    reference[g as usize].as_slice(),
                    "seed {seed}, gate {g}: cut list diverged from reference"
                );
            }
        }
    }

    #[test]
    fn local_cuts_match_nested_vec_reference() {
        for seed in [3u64, 17, 2026] {
            let m = random_mig(seed, 6, 40);
            let cfg = CutConfig::default();
            let reference = ref_enumerate(&m, &cfg);
            let mut local = LocalCuts::new(cfg, 0);
            // Walk in reverse topological order so the miss-walk exercises
            // deep recursion through the arena.
            let gates: Vec<NodeId> = m.gates().collect();
            for &g in gates.iter().rev() {
                assert_eq!(
                    local.of(&m, g),
                    reference[g as usize].as_slice(),
                    "seed {seed}, gate {g}: local list diverged from reference"
                );
            }
        }
    }

    #[test]
    fn post_compact_remap_matches_reference() {
        for seed in [5u64, 88, 4096] {
            let mut m = random_mig(seed, 8, 50);
            let cfg = CutConfig::default();
            let _ = m.drain_dirty();
            let mut cs = enumerate_cuts(&m, &cfg);
            // Rewrite a mid-graph gate so slots die and compaction moves ids.
            let gates: Vec<NodeId> = m.gates().collect();
            let victim = gates[gates.len() / 2];
            let ins: Vec<Signal> = m.inputs().collect();
            let fresh = m.maj(ins[0], !ins[1], ins[2]);
            if m.replace_node(victim, fresh) {
                m.sweep();
            }
            cs.refresh(&m);
            let map = m.compact();
            cs.remap(&m, &map);
            let reference = ref_enumerate(&m, &cfg);
            for g in m.gates() {
                if cs.is_valid(g) {
                    assert_eq!(
                        cs.of(g),
                        reference[g as usize].as_slice(),
                        "seed {seed}, gate {g}: carried list diverged post-remap"
                    );
                }
                assert_eq!(
                    cs.of_updated(&m, g),
                    reference[g as usize].as_slice(),
                    "seed {seed}, gate {g}: updated list diverged post-remap"
                );
            }
        }
    }

    #[test]
    fn repeated_rewrites_compact_arena_without_drift() {
        // Many rewrite/refresh rounds on one store: the pool accumulates
        // dead ranges and crosses the in-place compaction threshold
        // repeatedly; every round must still agree with the oracle.
        let mut m = random_mig(31337, 8, 120);
        let cfg = CutConfig::default();
        let _ = m.drain_dirty();
        let mut cs = enumerate_cuts(&m, &cfg);
        let mut s = 0xdead_beefu64;
        for round in 0..25 {
            let gates: Vec<NodeId> = m.gates().collect();
            let victim = gates[(xorshift(&mut s) as usize) % gates.len()];
            let ins: Vec<Signal> = m.inputs().collect();
            let a = ins[(xorshift(&mut s) as usize) % ins.len()];
            let b = ins[(xorshift(&mut s) as usize) % ins.len()];
            let c = ins[(xorshift(&mut s) as usize) % ins.len()];
            let fresh = m.maj(a, !b, c);
            if fresh.node() != victim {
                let _ = m.replace_node(victim, fresh);
            }
            cs.refresh(&m);
            let reference = ref_enumerate(&m, &cfg);
            for g in m.gates() {
                assert_eq!(
                    cs.of_updated(&m, g),
                    reference[g as usize].as_slice(),
                    "round {round}, gate {g}: arena drifted from reference"
                );
            }
        }
    }

    #[test]
    fn fused_merge_kernel_matches_reference_kernel() {
        let m = random_mig(777, 8, 80);
        let cfg = CutConfig::default();
        let reference = ref_enumerate(&m, &cfg);
        let mut out = Vec::new();
        for g in m.gates() {
            let fanins = m.fanins(g);
            let lists = fanins.map(|sg| reference[sg.node() as usize].as_slice());
            merge_gate_cuts_into(g, fanins, lists, &cfg, &mut out);
            assert_eq!(
                out.as_slice(),
                reference[g as usize].as_slice(),
                "gate {g}: fused kernel diverged from reference kernel"
            );
        }
    }
}

//! Region partitioning for sharded rewriting.
//!
//! The functional-hashing flow is embarrassingly local — a replacement
//! touches one cut's cone plus its fanout frontier — so independent
//! replacements can be *proposed* concurrently and *committed* serially.
//! A [`RegionPartition`] generalizes the fanout-free-region forest of
//! [`FfrPartition`](crate::FfrPartition) into a disjoint assignment of
//! every live gate to a numbered region, with two strategies:
//!
//! * [`PartitionStrategy::FfrForest`] groups whole fanout-free regions
//!   (in topological root order) into balanced shards — a replacement
//!   inside one FFR never strands sharing in another, so FFR-restricted
//!   variants shard along their natural seams;
//! * [`PartitionStrategy::LevelBands`] slices the graph into horizontal
//!   level bands — the whole-graph variants get shards without any
//!   fanout restriction, at the price of more boundary crossings.
//!
//! Regions are *read views* for proposal workers: [`RegionPartition::view`]
//! materializes a region's member gates (topological order), the external
//! nodes feeding it and its boundary (members referenced from outside).

use crate::{FfrPartition, Mig, NodeId};

/// Snapshot of every slot's reuse generation at partition time.
fn capture_generations(mig: &Mig) -> Vec<u32> {
    (0..mig.num_nodes() as u32)
        .map(|n| mig.slot_generation(n))
        .collect()
}

/// Region id of terminals, dead slots and nodes created after the
/// partition was computed.
const NO_REGION: u32 = u32::MAX;

/// How [`RegionPartition::compute`] carves the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Group whole fanout-free regions, in topological order of their
    /// roots, into at most `max_regions` balanced shards.
    FfrForest {
        /// Upper bound on the number of regions produced.
        max_regions: usize,
    },
    /// Slice the graph into at most `max_regions` horizontal bands of
    /// consecutive levels.
    LevelBands {
        /// Upper bound on the number of regions produced.
        max_regions: usize,
    },
}

/// A read view of one region: everything a proposal worker needs without
/// touching the shared graph mutably.
#[derive(Debug, Clone)]
pub struct RegionView {
    /// The region id.
    pub region: u32,
    /// Member gates in topological order.
    pub members: Vec<NodeId>,
    /// Distinct non-member nodes (primary inputs or foreign gates, never
    /// the constant) feeding the members, in first-use order.
    pub inputs: Vec<NodeId>,
    /// Members holding at least one reference from outside the region (a
    /// foreign gate or a primary output), in topological order. These are
    /// the nodes a region-level rewrite must preserve (or substitute).
    pub boundary: Vec<NodeId>,
}

/// A disjoint assignment of every live gate to a region.
#[derive(Debug, Clone)]
pub struct RegionPartition {
    /// Region id per node slot; `NO_REGION` for terminals and dead slots.
    region_of: Vec<u32>,
    /// Member gates per region, each in topological order.
    members: Vec<Vec<NodeId>>,
    /// Slot reuse generations at partition time
    /// ([`Mig::slot_generation`]). A partition held across rewrites
    /// (the convergence scheduler's is) would otherwise attribute a
    /// node recycled into a freed member slot to the dead member's
    /// region; [`RegionPartition::region_of_live`] compares generations
    /// to tell the two apart.
    gen_at_partition: Vec<u32>,
}

impl RegionPartition {
    /// Partitions the live gates of `mig` under the given strategy. With
    /// `max_regions == 1` (or a graph smaller than the region count)
    /// everything degenerates gracefully to fewer, larger regions.
    pub fn compute(mig: &Mig, strategy: PartitionStrategy) -> Self {
        match strategy {
            PartitionStrategy::FfrForest { max_regions } => Self::ffr_forest(mig, max_regions),
            PartitionStrategy::LevelBands { max_regions } => Self::level_bands(mig, max_regions),
        }
    }

    /// FFR forest: every fanout-free region lands entirely in one shard;
    /// whole FFRs are packed greedily (topological root order) so shards
    /// carry roughly equal gate counts.
    fn ffr_forest(mig: &Mig, max_regions: usize) -> Self {
        let ffr = FfrPartition::compute(mig);
        Self::from_ffr(mig, &ffr, max_regions)
    }

    /// Like [`RegionPartition::compute`] with the FFR-forest strategy,
    /// reusing an already computed [`FfrPartition`] (the shard driver
    /// needs the FFR view anyway for rewrite legality).
    pub fn from_ffr(mig: &Mig, ffr: &FfrPartition, max_regions: usize) -> Self {
        let n = mig.num_nodes();
        let topo = mig.topo_gates_shared();
        // Gates per FFR root, to balance shard sizes.
        let mut ffr_size = vec![0u32; n];
        for &g in topo.iter() {
            ffr_size[ffr.root_of(g) as usize] += 1;
        }
        let total = topo.len();
        let max_regions = max_regions.max(1);
        let target = total.div_ceil(max_regions).max(1);
        // Pack whole FFRs, in topological root order, until a shard
        // reaches the target size.
        let mut region_of_root = vec![NO_REGION; n];
        let mut region = 0u32;
        let mut filled = 0usize;
        for &root in ffr.roots() {
            if filled >= target && (region as usize) < max_regions - 1 {
                region += 1;
                filled = 0;
            }
            region_of_root[root as usize] = region;
            filled += ffr_size[root as usize] as usize;
        }
        let num_regions = if ffr.roots().is_empty() {
            0
        } else {
            region as usize + 1
        };
        let mut region_of = vec![NO_REGION; n];
        let mut members = vec![Vec::new(); num_regions];
        for &g in topo.iter() {
            let r = region_of_root[ffr.root_of(g) as usize];
            debug_assert_ne!(r, NO_REGION, "live gate outside the FFR forest");
            region_of[g as usize] = r;
            members[r as usize].push(g);
        }
        RegionPartition {
            region_of,
            members,
            gen_at_partition: capture_generations(mig),
        }
    }

    /// Level bands: region `k` holds the gates with levels in the `k`-th
    /// band of consecutive levels.
    fn level_bands(mig: &Mig, max_regions: usize) -> Self {
        let n = mig.num_nodes();
        let topo = mig.topo_gates_shared();
        let max_level = topo.iter().map(|&g| mig.level(g)).max().unwrap_or(0);
        let max_regions = max_regions.max(1) as u32;
        // Gate levels start at 1; band height so that at most
        // `max_regions` bands cover levels 1..=max_level.
        let height = max_level.div_ceil(max_regions).max(1);
        let num_regions = if max_level == 0 {
            0
        } else {
            max_level.div_ceil(height) as usize
        };
        let mut region_of = vec![NO_REGION; n];
        let mut members = vec![Vec::new(); num_regions];
        for &g in topo.iter() {
            let r = (mig.level(g) - 1) / height;
            region_of[g as usize] = r;
            members[r as usize].push(g);
        }
        RegionPartition {
            region_of,
            members,
            gen_at_partition: capture_generations(mig),
        }
    }

    /// Number of regions (possibly including empty ones).
    pub fn num_regions(&self) -> usize {
        self.members.len()
    }

    /// Number of regions with at least one member gate — the scheduler's
    /// full-sweep-equivalent work unit (its `skipped_clean` counter is
    /// measured against this).
    pub fn num_nonempty_regions(&self) -> usize {
        self.members.iter().filter(|m| !m.is_empty()).count()
    }

    /// The region of `n`, or `None` for terminals, dead slots and nodes
    /// created on *appended* slots after the partition was computed. A
    /// node recycled into a freed member slot still reports the dead
    /// member's region here — partitions held across rewrites should
    /// use [`RegionPartition::region_of_live`] instead.
    pub fn region_of(&self, n: NodeId) -> Option<u32> {
        match self.region_of.get(n as usize) {
            Some(&r) if r != NO_REGION => Some(r),
            _ => None,
        }
    }

    /// Like [`RegionPartition::region_of`], but also `None` for nodes
    /// *recycled* into a freed member slot since the partition was
    /// computed (detected by slot-generation mismatch against the live
    /// graph) — such nodes belong to no region, so a scheduler keeps
    /// them queued as staleness instead of attributing them to the dead
    /// member's region.
    pub fn region_of_live(&self, mig: &Mig, n: NodeId) -> Option<u32> {
        let r = self.region_of(n)?;
        match self.gen_at_partition.get(n as usize) {
            Some(&g) if g == mig.slot_generation(n) => Some(r),
            _ => None,
        }
    }

    /// The member gates of region `r`, in topological order.
    pub fn members(&self, r: u32) -> &[NodeId] {
        &self.members[r as usize]
    }

    /// Materializes the read view of region `r`: members, external
    /// inputs and boundary members (see [`RegionView`]).
    pub fn view(&self, mig: &Mig, r: u32) -> RegionView {
        let members = self.members[r as usize].clone();
        let mut inputs = Vec::new();
        let mut seen_input = std::collections::HashSet::new();
        // References into the region from its own members, to tell
        // internal from external fanout without walking fanout lists.
        let mut internal_refs = std::collections::HashMap::new();
        for &m in &members {
            for s in mig.fanins(m) {
                let f = s.node();
                if f == 0 {
                    continue; // the constant is shared, never an input
                }
                if self.region_of(f) == Some(r) {
                    *internal_refs.entry(f).or_insert(0u32) += 1;
                } else if seen_input.insert(f) {
                    inputs.push(f);
                }
            }
        }
        let boundary = members
            .iter()
            .copied()
            .filter(|&m| mig.fanout_count(m) > internal_refs.get(&m).copied().unwrap_or(0))
            .collect();
        RegionView {
            region: r,
            members,
            inputs,
            boundary,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Signal;

    /// Two xor cones sharing nothing, merged by a top gate.
    fn two_cones() -> (Mig, Signal, Signal, Signal) {
        let mut m = Mig::new(4);
        let (a, b, c, d) = (m.input(0), m.input(1), m.input(2), m.input(3));
        let x = m.xor(a, b);
        let y = m.xor(c, d);
        let top = m.maj(x, y, a);
        m.add_output(top);
        (m, x, y, top)
    }

    #[test]
    fn ffr_forest_keeps_ffrs_whole_and_balances() {
        let (m, x, y, top) = two_cones();
        let p = RegionPartition::compute(&m, PartitionStrategy::FfrForest { max_regions: 3 });
        assert!(p.num_regions() >= 1 && p.num_regions() <= 3);
        // Every gate is assigned, and every FFR lands in one region.
        let ffr = FfrPartition::compute(&m);
        for g in m.gates() {
            let r = p.region_of(g).expect("live gate assigned");
            assert_eq!(
                p.region_of(ffr.root_of(g)),
                Some(r),
                "gate {g} split from its FFR root"
            );
        }
        let total: usize = (0..p.num_regions() as u32)
            .map(|r| p.members(r).len())
            .sum();
        assert_eq!(total, m.num_gates());
        let _ = (x, y, top);
    }

    #[test]
    fn level_bands_respect_level_ranges() {
        let mut m = Mig::new(3);
        let (a, b, c) = (m.input(0), m.input(1), m.input(2));
        let mut t = m.maj(a, b, c);
        for _ in 0..7 {
            t = m.maj(t, a, !b);
        }
        m.add_output(t);
        let p = RegionPartition::compute(&m, PartitionStrategy::LevelBands { max_regions: 4 });
        assert_eq!(p.num_regions(), 4);
        for g in m.gates() {
            let r = p.region_of(g).unwrap();
            assert_eq!(r, (m.level(g) - 1) / 2, "band of gate {g}");
        }
        // Members are in topological order within each band.
        for r in 0..p.num_regions() as u32 {
            let mem = p.members(r);
            for w in mem.windows(2) {
                assert!(m.level(w[0]) <= m.level(w[1]));
            }
        }
    }

    #[test]
    fn view_reports_inputs_and_boundary() {
        let (m, x, y, top) = two_cones();
        let p = RegionPartition::compute(&m, PartitionStrategy::LevelBands { max_regions: 1 });
        assert_eq!(p.num_regions(), 1);
        let v = p.view(&m, 0);
        assert_eq!(v.members.len(), m.num_gates());
        // All inputs are primary inputs here; the constant is excluded.
        for &i in &v.inputs {
            assert!(m.is_input(i));
        }
        // Only the output driver is boundary (everything else is
        // referenced inside the single region).
        assert_eq!(v.boundary, vec![top.node()]);
        let _ = (x, y);
    }

    #[test]
    fn region_of_live_rejects_recycled_slots() {
        // A node recycled into a freed member slot keeps the slot id but
        // is not the member: the raw lookup still reports the old
        // region (slot-indexed), the generation-aware lookup must not.
        let mut m = Mig::new(4);
        let (a, b, c, d) = (m.input(0), m.input(1), m.input(2), m.input(3));
        let x = m.xor(a, b);
        let top = m.maj(x, c, d);
        m.add_output(top);
        let p = RegionPartition::compute(&m, PartitionStrategy::LevelBands { max_regions: 4 });
        let victim = x.node();
        let r = p.region_of(victim).expect("member assigned");
        assert_eq!(p.region_of_live(&m, victim), Some(r), "live member");
        // Kill the member's cone, then recycle its slot for a new gate.
        assert!(m.replace_node(victim, a));
        let before_nodes = m.num_nodes();
        let fresh = m.maj(a, !c, d);
        assert!(
            (fresh.node() as usize) < before_nodes,
            "test premise: the new gate recycles a freed slot"
        );
        assert!(m.is_gate(fresh.node()));
        assert_eq!(
            p.region_of_live(&m, fresh.node()),
            None,
            "recycled slot attributed to the dead member's region"
        );
        // Appended-slot nodes are unassigned under both lookups.
        let appended = m.maj(fresh, c, !d);
        if (appended.node() as usize) >= p.region_of.len() {
            assert_eq!(p.region_of(appended.node()), None);
            assert_eq!(p.region_of_live(&m, appended.node()), None);
        }
    }

    #[test]
    fn empty_graph_has_no_regions() {
        let mut m = Mig::new(2);
        let a = m.input(0);
        m.add_output(a);
        for s in [
            PartitionStrategy::FfrForest { max_regions: 4 },
            PartitionStrategy::LevelBands { max_regions: 4 },
        ] {
            let p = RegionPartition::compute(&m, s);
            assert_eq!(p.num_regions(), 0);
            assert_eq!(p.region_of(a.node()), None);
        }
    }
}

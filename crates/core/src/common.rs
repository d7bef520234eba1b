//! Shared machinery of the functional-hashing variants: the per-class
//! table of database networks and scores, cut replacement preparation,
//! legality checks and template instantiation.

use cuts::{cut_internal_nodes, Cut};
use mig::{FfrPartition, Mig, NodeId, Signal};
use npndb::{Database, DbEntry};

/// What the database knows about one NPN class's minimum network: the
/// scores cut selection reads, copied into every [`Replacement`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClassScore {
    /// The class index ([`truth::npn4_class`]), which addresses the
    /// engine's per-class table.
    pub index: u16,
    /// Gates in the minimum network.
    pub size: u32,
    /// Depth of the minimum network.
    pub depth: u32,
    /// Longest gate-path from the template output to each template input
    /// (`None` = input unused).
    pub input_depths: [Option<u32>; 4],
}

/// One entry of the engine's per-class table: the class's scores and
/// the database entry whose network [`Replacement::instantiate`] builds.
#[derive(Debug)]
pub(crate) struct Class {
    pub score: ClassScore,
    pub entry: DbEntry,
}

impl Class {
    /// The table entry of class `index`, whose representative is `rep`;
    /// `None` when `db` has no network for it.
    pub fn of(index: usize, rep: u16, db: &Database) -> Option<Class> {
        let entry = db.get(rep)?.clone();
        let mut input_depths = [None; 4];
        for (d, e) in input_depths.iter_mut().zip(entry.network.input_depths()) {
            *d = e;
        }
        let score = ClassScore {
            index: u16::try_from(index).expect("222 NPN classes"),
            size: entry.size,
            depth: entry.depth,
            input_depths,
        };
        Some(Class { score, entry })
    }
}

/// A prepared cut replacement: everything needed to decide on and perform
/// the substitution of a cut by its minimum representation.
#[derive(Debug, Clone)]
pub(crate) struct Replacement {
    /// The NPN class of the (padded) cut function.
    pub class: ClassScore,
    /// For template input `i`: the cut-leaf position feeding it (positions
    /// `>= cut.len()` are vacuous padding) and its polarity.
    pub input_map: [(usize, bool); 4],
    /// Whether the template output is complemented.
    pub out_neg: bool,
}

impl Replacement {
    /// Prepares the replacement for a cut: pads the cut function to 4
    /// variables, looks up its NPN class and transform in the
    /// process-wide table ([`truth::npn4_class`]), takes the class's
    /// database scores from the engine and wires the inverse transform
    /// into the leaf assignment and output polarity.
    ///
    /// Returns `None` for cuts wider than 4 leaves and for classes the
    /// database lacks (none, with a complete database).
    pub fn prepare(cut: &Cut, engine: &crate::FunctionalHashing) -> Option<Replacement> {
        let (index, t) = truth::npn4_class(cut.signature4()?);
        let class = engine.classes[index].as_ref()?.score;
        // rep = t.apply(f), so f = t.inverse().apply(rep): template input
        // `i` reads (possibly complemented) cut leaf `inv.perm(i)`.
        let inv = t.inverse();
        let mut input_map = [(0usize, false); 4];
        for (i, im) in input_map.iter_mut().enumerate() {
            *im = (inv.perm(i), inv.input_negated(i));
        }
        Some(Replacement {
            class,
            input_map,
            out_neg: inv.output_negated(),
        })
    }

    /// Estimates the level of the replacement root from per-leaf levels
    /// (`leaf_level(pos)` for cut-leaf position `pos`).
    pub fn estimated_level(&self, cut: &Cut, leaf_level: impl Fn(usize) -> u32) -> u32 {
        let mut level = 0;
        for (i, d) in self.class.input_depths.iter().enumerate() {
            if let Some(d) = d {
                let (pos, _) = self.input_map[i];
                if pos < cut.len() {
                    level = level.max(leaf_level(pos) + d);
                }
            }
        }
        level
    }

    /// Instantiates the class's minimum network from the engine's
    /// per-class table in `mig`, wiring cut-leaf signals (`leaf_sig(pos)`)
    /// through the NPN transform. Vacuous template inputs receive
    /// constant 0.
    pub fn instantiate(
        &self,
        engine: &crate::FunctionalHashing,
        mig: &mut Mig,
        cut: &Cut,
        leaf_sig: impl Fn(usize) -> Signal,
    ) -> Signal {
        let class = engine.classes[usize::from(self.class.index)]
            .as_ref()
            .expect("prepared from this engine's table");
        let leaves = self.input_map.map(|(pos, neg)| {
            if pos < cut.len() {
                leaf_sig(pos).complement_if(neg)
            } else {
                Signal::ZERO
            }
        });
        class
            .entry
            .network
            .instantiate(mig, &leaves)
            .complement_if(self.out_neg)
    }
}

/// A selected cut replacement: the cut, its prepared minimum network and
/// the expected gate-count gain.
#[derive(Debug, Clone)]
pub(crate) struct ScoredCut {
    pub cut: Cut,
    pub repl: Replacement,
    pub gain: i32,
}

/// Line 3 of Algorithm 1, shared by the in-place top-down pass, the
/// scheduler's cut engine and the rebuild reference the tests keep: the
/// legal cut of `v` with the best size reduction — larger gain first,
/// then lower resulting level, then a shallower database template.
/// `level` abstracts the level source (a precomputed map for the rebuild
/// reference, the live incremental levels otherwise).
pub(crate) fn select_best_cut(
    engine: &crate::FunctionalHashing,
    mig: &Mig,
    v: NodeId,
    cut_list: &[Cut],
    ffr: Option<&FfrPartition>,
    depth_preserving: bool,
    level: impl Fn(NodeId) -> u32,
) -> Option<ScoredCut> {
    let mut best: Option<(ScoredCut, u32)> = None;
    obs::metrics::add(obs::Metric::CutsScored, cut_list.len() as u64);
    // Scratch buffers shared across the scored cuts: cones are tiny, so
    // the dominant per-cut cost would otherwise be allocator traffic.
    let mut internal: Vec<NodeId> = Vec::new();
    let mut scratch: Vec<NodeId> = Vec::new();
    for cut in cut_list {
        if is_trivial(cut, v) {
            continue;
        }
        cuts::cut_internal_nodes_into(mig, v, cut.leaves(), &mut internal, &mut scratch);
        // Fanout legality is the safety condition (no internal node may
        // be referenced from outside the cone); the region check is the
        // additional §IV-C restriction. On a fresh partition region-legal
        // implies fanout-legal, but the in-place engine's partition goes
        // stale as replacements land, so the fanout check (against live
        // refcounts) must always run — it is what keeps committed
        // replacements net-shrinking.
        if !cut_is_fanout_legal(mig, v, &internal) {
            continue;
        }
        if let Some(f) = ffr {
            if !cut_is_region_legal(f, v, &internal) {
                continue;
            }
        }
        let Some(repl) = Replacement::prepare(cut, engine) else {
            continue;
        };
        let gain = internal.len() as i32 - repl.class.size as i32;
        if gain < 1 {
            continue;
        }
        let est_level = repl.estimated_level(cut, |pos| level(cut.leaves()[pos]));
        if depth_preserving && est_level > level(v) + crate::ALLOWED_DEPTH_INCREASE {
            continue;
        }
        let better = match &best {
            None => true,
            Some((b, blevel)) => (
                gain,
                std::cmp::Reverse(est_level),
                std::cmp::Reverse(repl.class.depth),
            )
                .cmp(&(
                    b.gain,
                    std::cmp::Reverse(*blevel),
                    std::cmp::Reverse(b.repl.class.depth),
                ))
                .is_gt(),
        };
        if better {
            best = Some((
                ScoredCut {
                    cut: *cut,
                    repl,
                    gain,
                },
                est_level,
            ));
        }
    }
    best.map(|(s, _)| s)
}

/// Checks that no internal node of the cut (other than the root) has
/// fanout escaping the cut cone (paper §IV-C, first option). Whole-graph
/// fanout counts (including outputs) come from the managed network's O(1)
/// per-node reference counts, so this stays valid during in-place
/// rewriting.
pub(crate) fn cut_is_fanout_legal(mig: &Mig, root: NodeId, internal: &[NodeId]) -> bool {
    for &n in internal {
        if n == root {
            continue;
        }
        // Count references to n from within the cut cone.
        let inside = internal
            .iter()
            .filter(|&&m| m != n && mig.fanins(m).iter().any(|s| s.node() == n))
            .count() as u32;
        if mig.fanout_count(n) != inside {
            return false;
        }
    }
    true
}

/// Checks that all internal nodes belong to the fanout-free region of
/// `root`'s region root (paper §IV-C, second option).
pub(crate) fn cut_is_region_legal(ffr: &FfrPartition, root: NodeId, internal: &[NodeId]) -> bool {
    let region = ffr.root_of(root);
    internal.iter().all(|&n| ffr.root_of(n) == region)
}

/// Convenience: the internal nodes of a cut.
pub(crate) fn internal_nodes(mig: &Mig, root: NodeId, cut: &Cut) -> Vec<NodeId> {
    cut_internal_nodes(mig, root, cut.leaves())
}

/// Whether a cut is the trivial cut of `root`.
pub(crate) fn is_trivial(cut: &Cut, root: NodeId) -> bool {
    cut.len() == 1 && cut.leaves()[0] == root
}

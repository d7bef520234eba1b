//! Shared machinery of the functional-hashing variants: cut-function
//! canonization, database lookup, legality checks and template
//! instantiation.

use cuts::{cut_internal_nodes, Cut};
use mig::{FfrPartition, Mig, NodeId, Signal};
use npndb::Database;
use truth::{Npn4Canonizer, NpnTransform};

/// A prepared cut replacement: everything needed to decide on and perform
/// the substitution of a cut by its minimum representation.
#[derive(Debug, Clone)]
pub(crate) struct Replacement {
    /// NPN representative of the (padded) cut function.
    pub rep: u16,
    /// Gates in the minimum network.
    pub db_size: u32,
    /// Depth of the minimum network.
    pub db_depth: u32,
    /// For template input `i`: the cut-leaf position feeding it (positions
    /// `>= cut.len()` are vacuous padding) and its polarity.
    pub input_map: [(usize, bool); 4],
    /// Whether the template output is complemented.
    pub out_neg: bool,
    /// Longest gate-path from the template output to each template input
    /// (`None` = input unused).
    pub input_depths: [Option<u32>; 4],
}

impl Replacement {
    /// Prepares the replacement for a cut: pads the cut function to 4
    /// variables and consults the engine's signature table; on a miss it
    /// canonizes, looks up the minimum network and installs the result
    /// so every later cut with the same signature — in this pass, a
    /// later job, or (via the persistent cache file) a later process —
    /// skips both steps.
    ///
    /// Returns `None` for trivial cuts (single leaf = the root itself is
    /// handled by the caller; the lookup itself always succeeds with a
    /// complete database).
    pub fn prepare(cut: &Cut, engine: &crate::FunctionalHashing) -> Option<Replacement> {
        let tt4 = cut.signature4()?;
        if let Some(rec) = engine.sig_table().get(tt4) {
            obs::metrics::add(obs::Metric::CacheSigHits, 1);
            return (!rec.no_entry).then(|| Replacement::from_record(&rec));
        }
        obs::metrics::add(obs::Metric::CacheSigMisses, 1);
        obs::metrics::add(obs::Metric::NpnCanonizations, 1);
        let rec = compute_sig_record(tt4, engine.database(), engine.canonizer());
        engine.sig_table().put(tt4, &rec);
        (!rec.no_entry).then(|| Replacement::from_record(&rec))
    }

    /// Widens a signature-table record back into the working form.
    fn from_record(rec: &fcache::SigRecord) -> Replacement {
        let mut input_map = [(0usize, false); 4];
        for (i, im) in input_map.iter_mut().enumerate() {
            *im = (rec.input_map[i].0 as usize, rec.input_map[i].1);
        }
        let mut input_depths = [None; 4];
        for (i, d) in input_depths.iter_mut().enumerate() {
            *d = rec.input_depths[i].map(u32::from);
        }
        Replacement {
            rep: rec.rep,
            db_size: u32::from(rec.db_size),
            db_depth: u32::from(rec.db_depth),
            input_map,
            out_neg: rec.out_neg,
            input_depths,
        }
    }

    /// Estimates the level of the replacement root from per-leaf levels
    /// (`leaf_level(pos)` for cut-leaf position `pos`).
    pub fn estimated_level(&self, cut: &Cut, leaf_level: impl Fn(usize) -> u32) -> u32 {
        let mut level = 0;
        for (i, d) in self.input_depths.iter().enumerate() {
            if let Some(d) = d {
                let (pos, _) = self.input_map[i];
                if pos < cut.len() {
                    level = level.max(leaf_level(pos) + d);
                }
            }
        }
        level
    }

    /// Estimates the depth of each candidate... instantiates the minimum
    /// network in `mig`, wiring cut-leaf signals (`leaf_sig(pos)`) through
    /// the NPN transform. Vacuous template inputs receive constant 0.
    pub fn instantiate(
        &self,
        mig: &mut Mig,
        cut: &Cut,
        db: &Database,
        leaf_sig: impl Fn(usize) -> Signal,
    ) -> Signal {
        let entry = db.get(self.rep).expect("prepared from this database");
        let leaves: Vec<Signal> = self
            .input_map
            .iter()
            .map(|&(pos, neg)| {
                if pos < cut.len() {
                    leaf_sig(pos).complement_if(neg)
                } else {
                    Signal::ZERO
                }
            })
            .collect();
        entry
            .network
            .instantiate(mig, &leaves)
            .complement_if(self.out_neg)
    }
}

/// Computes the signature-table entry for a 4-padded cut function: the
/// slow path behind [`Replacement::prepare`] and the load-time validator
/// for persistent-cache entries (a stored record is installed only if it
/// equals this recomputation).
///
/// Database networks are tiny (a handful of gates), so the narrowing to
/// the record's `u8` fields is lossless; a record whose fields exceed
/// the *packed* budget simply never persists ([`fcache::SigRecord::pack`]
/// refuses), which degrades to recomputation, never to corruption.
pub(crate) fn compute_sig_record(
    tt4: u16,
    db: &Database,
    canon: &Npn4Canonizer,
) -> fcache::SigRecord {
    let (rep, t) = canon.canonize(tt4);
    sig_record_from(rep, &t, db)
}

/// Builds the signature-table record from an already-canonized function:
/// the shared tail of [`compute_sig_record`] and the batched
/// [`warm_sig_batch`] path.
pub(crate) fn sig_record_from(rep: u16, t: &NpnTransform, db: &Database) -> fcache::SigRecord {
    let inv = t.inverse();
    let mut input_map = [(0u8, false); 4];
    for (i, im) in input_map.iter_mut().enumerate() {
        *im = (inv.perm(i) as u8, inv.input_negated(i));
    }
    let out_neg = inv.output_negated();
    let Some(entry) = db.get(rep) else {
        return fcache::SigRecord {
            rep,
            input_map,
            out_neg,
            db_size: 0,
            db_depth: 0,
            input_depths: [None; 4],
            no_entry: true,
        };
    };
    debug_assert!(entry.size <= u32::from(u8::MAX) && entry.depth <= u32::from(u8::MAX));
    let depths = entry.network.input_depths();
    let mut input_depths = [None; 4];
    for (i, d) in depths.iter().enumerate() {
        input_depths[i] = d.map(|v| v as u8);
    }
    fcache::SigRecord {
        rep,
        input_map,
        out_neg,
        db_size: entry.size as u8,
        db_depth: entry.depth as u8,
        input_depths,
        no_entry: false,
    }
}

/// Batch-warms the engine's signature table for a set of candidate cut
/// signatures: `keys` is deduplicated, already-cached keys are dropped,
/// and the rest are canonized in one sorted pass over the lock-free NPN
/// memo ([`Npn4Canonizer::canonize_batch`] probes in ascending order, so
/// a region's worth of lookups walks the memo cache-linearly) before
/// their records are computed and installed. Later
/// [`Replacement::prepare`] calls for these keys then hit the warm table
/// — the per-cut scoring loop does no canonization round-trips of its
/// own. Both buffers are caller-owned scratch, reused across regions.
pub(crate) fn warm_sig_batch(
    engine: &crate::FunctionalHashing,
    keys: &mut Vec<u16>,
    canon_scratch: &mut Vec<(u16, u16, NpnTransform)>,
) {
    keys.sort_unstable();
    keys.dedup();
    let mut hits = 0u64;
    keys.retain(|&k| {
        let resident = engine.sig_table().get(k).is_some();
        hits += u64::from(resident);
        !resident
    });
    if hits > 0 {
        obs::metrics::add(obs::Metric::CacheSigHits, hits);
    }
    if keys.is_empty() {
        return;
    }
    obs::metrics::add(obs::Metric::CacheSigMisses, keys.len() as u64);
    obs::metrics::add(obs::Metric::NpnCanonizations, keys.len() as u64);
    engine.canonizer().canonize_batch(keys, canon_scratch);
    let db = engine.database();
    for &(tt4, rep, ref t) in canon_scratch.iter() {
        let rec = sig_record_from(rep, t, db);
        engine.sig_table().put(tt4, &rec);
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

/// Line 3 of Algorithm 1, shared by the rebuild and in-place top-down
/// engines: the legal cut of `v` with the best size reduction — larger
/// gain first, then lower resulting level, then a shallower database
/// template. `level` abstracts the level source (a precomputed map for
/// the rebuild engine, the live incremental levels for the in-place
/// engine).
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
        let gain = internal.len() as i32 - repl.db_size as i32;
        if gain < 1 {
            continue;
        }
        let est_level = repl.estimated_level(cut, |pos| level(cut.leaves()[pos]));
        if depth_preserving && est_level > level(v) + engine.config().allowed_depth_increase {
            continue;
        }
        let better = match &best {
            None => true,
            Some((b, blevel)) => (
                gain,
                std::cmp::Reverse(est_level),
                std::cmp::Reverse(repl.db_depth),
            )
                .cmp(&(
                    b.gain,
                    std::cmp::Reverse(*blevel),
                    std::cmp::Reverse(b.repl.db_depth),
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

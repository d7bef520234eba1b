//! The precomputed database of minimum MIGs for all 222 4-variable NPN
//! classes (paper §V-A, Table I).
//!
//! The functional-hashing optimizer (paper §IV) replaces 4-input cuts with
//! precomputed minimum representations. Since MIG size is invariant under
//! input/output negation and input permutation, one minimum network per
//! NPN class representative suffices. This crate:
//!
//! * generates the database with the `exact` crate's SAT-based synthesis
//!   ([`Database::generate`], also available as the `npndb-generate`
//!   binary);
//! * serializes it in a small line-based text format
//!   ([`Database::to_text`] / [`Database::from_text`]);
//! * ships a pregenerated copy embedded in the crate
//!   ([`Database::embedded`]) so that downstream users never pay the
//!   generation cost;
//! * provides the constructive Shannon upper bound of the paper's
//!   Theorem 2 ([`shannon_mig`], [`theorem2_bound`]).
//!
//! # Examples
//!
//! ```
//! use npndb::Database;
//!
//! let db = Database::embedded();
//! assert_eq!(db.len(), 222);
//! // The hardest class (paper Fig. 2): S_{0,2} needs 7 majority gates.
//! assert_eq!(db.max_size(), 7);
//! ```

use exact::{minimum_size, GateOp, NetGate, Network, SynthesisConfig};
use mig::{Mig, Signal};
use std::collections::BTreeMap;
use std::fmt;
use truth::TruthTable;

/// One database entry: the minimum network for an NPN representative.
#[derive(Debug, Clone)]
pub struct DbEntry {
    /// The NPN class representative (16-bit truth table).
    pub representative: u16,
    /// A minimum-size MIG network realizing it.
    pub network: Network,
    /// Cached network size (majority gates).
    pub size: u32,
    /// Cached network depth.
    pub depth: u32,
}

/// The minimum-MIG database keyed by NPN representative.
#[derive(Debug, Clone, Default)]
pub struct Database {
    entries: BTreeMap<u16, DbEntry>,
}

/// Errors when parsing a serialized database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseDbError {
    /// A line did not match the expected format.
    BadLine(usize),
    /// The network on a line does not realize its representative, or the
    /// representative is not NPN-canonical.
    Inconsistent(u16),
}

impl fmt::Display for ParseDbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseDbError::BadLine(n) => write!(f, "malformed database line {n}"),
            ParseDbError::Inconsistent(r) => {
                write!(f, "database entry {r:04x} fails validation")
            }
        }
    }
}

impl std::error::Error for ParseDbError {}

impl Database {
    /// Generates the database from scratch by running exact synthesis on
    /// every NPN representative. With an unlimited budget this reproduces
    /// Table I; expect minutes of CPU time. `progress` (if given) receives
    /// `(done, total, representative, size)` after each class.
    ///
    /// # Panics
    ///
    /// Panics if exact synthesis fails (cannot happen with the default
    /// 12-gate limit: the paper proves 7 gates always suffice).
    pub fn generate(progress: Option<&mut dyn FnMut(usize, usize, u16, u32)>) -> Self {
        let reps = truth::npn4_class_representatives();
        let total = reps.len();
        let cfg = SynthesisConfig::default();
        let mut entries = BTreeMap::new();
        let mut cb = progress;
        for (i, rep) in reps.into_iter().enumerate() {
            let f = TruthTable::from_u16(rep);
            let network = minimum_size(&f, &cfg).expect("4-input functions need <= 7 gates");
            let entry = DbEntry {
                representative: rep,
                size: network.size() as u32,
                depth: network.depth(),
                network,
            };
            if let Some(cb) = cb.as_deref_mut() {
                cb(i + 1, total, rep, entry.size);
            }
            entries.insert(rep, entry);
        }
        Database { entries }
    }

    /// Loads the pregenerated database embedded in the crate.
    ///
    /// # Panics
    ///
    /// Panics if the embedded data is corrupt (validated on load; a build
    /// regenerates it with the `npndb-generate` binary).
    pub fn embedded() -> Self {
        static DATA: &str = include_str!("../data/mig4.db");
        Self::from_text(DATA).expect("embedded database validates")
    }

    /// Number of classes stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the entry for an NPN representative.
    pub fn get(&self, representative: u16) -> Option<&DbEntry> {
        self.entries.get(&representative)
    }

    /// Iterates over all entries in ascending representative order.
    pub fn iter(&self) -> impl Iterator<Item = &DbEntry> {
        self.entries.values()
    }

    /// Inserts an entry (used by the generator and tests).
    pub fn insert(&mut self, entry: DbEntry) {
        self.entries.insert(entry.representative, entry);
    }

    /// The largest minimum size over all classes (7 per Table I).
    pub fn max_size(&self) -> u32 {
        self.entries.values().map(|e| e.size).max().unwrap_or(0)
    }

    /// Histogram of class counts by minimum size (Table I's "Classes").
    pub fn size_histogram(&self) -> BTreeMap<u32, usize> {
        let mut h = BTreeMap::new();
        for e in self.entries.values() {
            *h.entry(e.size).or_insert(0) += 1;
        }
        h
    }

    /// Serializes to the line-based text format.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "# mig4 npn minimum-network database v1");
        let _ = writeln!(s, "# rep_hex num_gates out_code gate_refs...");
        for e in self.entries.values() {
            let _ = write!(
                s,
                "{:04x} {} {}",
                e.representative,
                e.network.size(),
                e.network.output().0 * 2 + u32::from(e.network.output().1)
            );
            for g in e.network.gates() {
                for &(r, c) in &g.fanins {
                    let _ = write!(s, " {}", r * 2 + u32::from(c));
                }
            }
            let _ = writeln!(s);
        }
        s
    }

    /// Parses the text format and validates every entry (the network must
    /// realize its representative, which must be NPN-canonical).
    ///
    /// # Errors
    ///
    /// [`ParseDbError::BadLine`] on syntax errors,
    /// [`ParseDbError::Inconsistent`] when validation fails.
    pub fn from_text(text: &str) -> Result<Self, ParseDbError> {
        let canon = truth::Npn4Canonizer::new();
        let mut db = Database::default();
        for (ln, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut it = line.split_whitespace();
            let bad = || ParseDbError::BadLine(ln + 1);
            let rep = u16::from_str_radix(it.next().ok_or_else(bad)?, 16).map_err(|_| bad())?;
            let k: usize = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
            let out_code: u32 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
            let mut gates = Vec::with_capacity(k);
            for _ in 0..k {
                let mut fanins = Vec::with_capacity(3);
                for _ in 0..3 {
                    let code: u32 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                    fanins.push((code / 2, code % 2 == 1));
                }
                gates.push(NetGate { fanins });
            }
            if it.next().is_some() {
                return Err(bad());
            }
            let network = Network::new(GateOp::Maj3, 4, gates, (out_code / 2, out_code % 2 == 1));
            // Validate: function matches and representative is canonical.
            if network.truth_table().as_u16() != rep || canon.canonize(rep).0 != rep {
                return Err(ParseDbError::Inconsistent(rep));
            }
            db.insert(DbEntry {
                representative: rep,
                size: network.size() as u32,
                depth: network.depth(),
                network,
            });
        }
        Ok(db)
    }
}

/// The paper's Theorem 2 bound: `C(n) <= 10 * (2^(n-4) - 1) + 7` for
/// `n >= 4`.
///
/// # Panics
///
/// Panics if `n < 4` or `n > 60` (overflow).
pub fn theorem2_bound(n: u32) -> u64 {
    assert!((4..=60).contains(&n), "Theorem 2 applies to 4 <= n <= 60");
    10 * ((1u64 << (n - 4)) - 1) + 7
}

/// Constructively realizes `f` as an MIG within the Theorem 2 bound:
/// Shannon-decompose down to 4 variables, then instantiate the database's
/// minimum network for the residual cofactor (using the NPN transform to
/// map leaves). The resulting gate count is at most [`theorem2_bound`] of
/// `f`'s variable count (structural hashing usually does much better).
///
/// # Panics
///
/// Panics if `f` has fewer than 4 variables.
pub fn shannon_mig(f: &TruthTable, db: &Database) -> Mig {
    let n = f.num_vars();
    assert!(n >= 4, "shannon_mig needs at least 4 variables");
    let mut m = Mig::new(n);
    let leaves: Vec<Signal> = m.inputs().collect();
    let out = shannon_rec(f, db, &mut m, &leaves);
    m.add_output(out);
    m
}

fn shannon_rec(f: &TruthTable, db: &Database, m: &mut Mig, leaves: &[Signal]) -> Signal {
    let n = f.num_vars();
    if n == 4 {
        return instantiate_via_npn(f.as_u16(), db, m, leaves);
    }
    // f = <1 <0 x̄ f0> <0 x f1>> (paper Theorem 2 proof), on variable n-1.
    let x = leaves[n - 1];
    let f0 = shrink_top(&f.cofactor0(n - 1));
    let f1 = shrink_top(&f.cofactor1(n - 1));
    let s0 = shannon_rec(&f0, db, m, &leaves[..n - 1]);
    let s1 = shannon_rec(&f1, db, m, &leaves[..n - 1]);
    let lo = m.and(!x, s0);
    let hi = m.and(x, s1);
    m.or(lo, hi)
}

/// Drops the (now-vacuous) top variable of a cofactor.
fn shrink_top(f: &TruthTable) -> TruthTable {
    let n = f.num_vars();
    let mut t = TruthTable::zeros(n - 1);
    for j in 0..1usize << (n - 1) {
        if f.bit(j) {
            t.set_bit(j, true);
        }
    }
    t
}

/// Instantiates the minimum network for an arbitrary 4-variable function
/// by canonizing it, looking up the class representative, and wiring the
/// NPN transform into the leaf assignment and output polarity.
///
/// # Panics
///
/// Panics if the database lacks the representative (incomplete database)
/// or `leaves.len() != 4`.
pub fn instantiate_via_npn(f: u16, db: &Database, m: &mut Mig, leaves: &[Signal]) -> Signal {
    assert_eq!(leaves.len(), 4, "four leaves required");
    let (rep, t) = truth::Npn4Canonizer::new().canonize(f);
    let entry = db
        .get(rep)
        .unwrap_or_else(|| panic!("representative {rep:04x} missing from database"));
    // rep = t.apply(f)  =>  f = t.inverse().apply(rep).
    // The inverse transform tells us how to feed the template: template
    // input i reads (possibly complemented) leaf inv.perm(i).
    let inv = t.inverse();
    let mapped: Vec<Signal> = (0..4)
        .map(|i| leaves[inv.perm(i)].complement_if(inv.input_negated(i)))
        .collect();
    entry
        .network
        .instantiate(m, &mapped)
        .complement_if(inv.output_negated())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_db() -> Database {
        // A database containing only the classes needed by the tests,
        // generated on the fly (small sizes solve instantly).
        let mut db = Database::default();
        let canon = truth::Npn4Canonizer::new();
        let cfg = SynthesisConfig::default();
        for f in [0x0000u16, 0x8000, 0xaaaa, 0x6666, 0xe8e8, 0x9669, 0x6996] {
            let (rep, _) = canon.canonize(f);
            if db.get(rep).is_none() {
                let net = minimum_size(&TruthTable::from_u16(rep), &cfg).unwrap();
                db.insert(DbEntry {
                    representative: rep,
                    size: net.size() as u32,
                    depth: net.depth(),
                    network: net,
                });
            }
        }
        db
    }

    #[test]
    fn text_roundtrip() {
        let db = tiny_db();
        let text = db.to_text();
        let back = Database::from_text(&text).unwrap();
        assert_eq!(back.len(), db.len());
        for e in db.iter() {
            let b = back.get(e.representative).unwrap();
            assert_eq!(b.size, e.size);
            assert_eq!(b.depth, e.depth);
            assert_eq!(b.network.truth_table(), e.network.truth_table());
        }
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert_eq!(
            Database::from_text("zzzz 1 8").unwrap_err(),
            ParseDbError::BadLine(1)
        );
        assert_eq!(
            Database::from_text("8000 1").unwrap_err(),
            ParseDbError::BadLine(1)
        );
        // Valid syntax, wrong function: claims and4 is a bare projection.
        assert_eq!(
            Database::from_text("8000 0 2").unwrap_err(),
            ParseDbError::Inconsistent(0x8000)
        );
        // Non-canonical representative with a correct network.
        let canon = truth::Npn4Canonizer::new();
        assert_ne!(canon.canonize(0xfffe).0, 0xfffe);
        assert_eq!(
            Database::from_text("fffe 1 11 1 4 6").unwrap_err(),
            ParseDbError::Inconsistent(0xfffe)
        );
    }

    #[test]
    fn instantiate_via_npn_realizes_any_function() {
        let db = tiny_db();
        // Functions in the orbits of the tiny database classes.
        for f in [0x8000u16, 0x0001, 0x7fff, 0xaaaa, 0x5555, 0x6996, 0x9669] {
            let mut m = Mig::new(4);
            let leaves: Vec<_> = m.inputs().collect();
            let out = instantiate_via_npn(f, &db, &mut m, &leaves);
            m.add_output(out);
            assert_eq!(m.output_truth_tables()[0].as_u16(), f, "function {f:04x}");
        }
    }

    #[test]
    fn theorem2_bound_values() {
        assert_eq!(theorem2_bound(4), 7);
        assert_eq!(theorem2_bound(5), 17);
        assert_eq!(theorem2_bound(6), 37);
        assert_eq!(theorem2_bound(7), 77);
    }

    #[test]
    fn shannon_mig_respects_bound_and_function() {
        let db = tiny_db();
        // xor5: cofactors are xor4 / !xor4, all in the parity class.
        let mut f = TruthTable::zeros(5);
        for j in 0..32usize {
            if (j.count_ones() & 1) == 1 {
                f.set_bit(j, true);
            }
        }
        let m = shannon_mig(&f, &db);
        assert_eq!(m.output_truth_tables()[0], f);
        assert!(
            (m.num_gates() as u64) <= theorem2_bound(5),
            "{} > bound",
            m.num_gates()
        );
    }
}

#[cfg(test)]
mod embedded_tests {
    use super::*;

    #[test]
    fn embedded_database_reproduces_table1() {
        let db = Database::embedded();
        assert_eq!(db.len(), 222);
        // Paper Table I: classes per node count.
        let hist = db.size_histogram();
        let expect = [
            (0, 2),
            (1, 2),
            (2, 5),
            (3, 18),
            (4, 42),
            (5, 117),
            (6, 35),
            (7, 1),
        ];
        for (size, classes) in expect {
            assert_eq!(hist.get(&size), Some(&classes), "size {size}");
        }
        // Paper Table I: functions per node count (weight classes by orbit
        // size).
        let sizes = truth::npn4_class_sizes();
        let mut func_hist = std::collections::BTreeMap::new();
        for e in db.iter() {
            *func_hist.entry(e.size).or_insert(0u32) += sizes[&e.representative];
        }
        let expect_funcs = [
            (0, 10),
            (1, 80),
            (2, 640),
            (3, 3300),
            (4, 10352),
            (5, 40064),
            (6, 11058),
            (7, 32),
        ];
        for (size, funcs) in expect_funcs {
            assert_eq!(func_hist.get(&size), Some(&funcs), "size {size}");
        }
    }

    #[test]
    fn hardest_class_is_s02_with_seven_gates() {
        // Paper Fig. 2: S_{0,2}(x1..x4) = (x1^x2^x3^x4) | x1x2x3x4 is the
        // single most difficult class.
        let db = Database::embedded();
        let hardest: Vec<&DbEntry> = db.iter().filter(|e| e.size == 7).collect();
        assert_eq!(hardest.len(), 1);
        let rep = hardest[0].representative;
        // Build S_{0,2}: true when the number of ones is exactly 0 or 2.
        let mut s02 = TruthTable::zeros(4);
        for j in 0..16usize {
            if j.count_ones() == 0 || j.count_ones() == 2 {
                s02.set_bit(j, true);
            }
        }
        let canon = truth::Npn4Canonizer::new();
        assert_eq!(canon.canonize(s02.as_u16()).0, rep);
    }

    #[test]
    fn every_embedded_network_is_minimal_for_small_sizes() {
        // Re-verify minimality with an independent exact-synthesis run for
        // all classes with <= 3 gates (fast); larger classes are covered by
        // the Table I histogram check.
        let db = Database::embedded();
        let cfg = SynthesisConfig::default();
        for e in db.iter().filter(|e| e.size <= 3) {
            let net = minimum_size(&TruthTable::from_u16(e.representative), &cfg).unwrap();
            assert_eq!(net.size() as u32, e.size, "rep {:04x}", e.representative);
        }
    }

    #[test]
    fn embedded_instantiation_covers_random_functions() {
        let db = Database::embedded();
        // A pseudo-random walk over function space.
        let mut f = 0x1234u16;
        for _ in 0..200 {
            f = f.wrapping_mul(0x6487).wrapping_add(0x3619);
            let mut m = Mig::new(4);
            let leaves: Vec<_> = m.inputs().collect();
            let out = instantiate_via_npn(f, &db, &mut m, &leaves);
            m.add_output(out);
            assert_eq!(m.output_truth_tables()[0].as_u16(), f, "f = {f:04x}");
        }
    }
}

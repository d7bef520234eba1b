//! NPN classification (paper Section II-D).
//!
//! Two functions are NPN-equivalent when one can be obtained from the other
//! by Negating inputs, Permuting inputs, and/or Negating the output. This
//! module provides an exact (exhaustive) canonizer for up to 5 variables —
//! the paper only needs 4 — together with a composable, invertible
//! [`NpnTransform`] so that rewriting engines can map database structures
//! back onto concrete cut leaves.

use crate::TruthTable;
use std::sync::OnceLock;

/// Maximum variable count supported by the exhaustive canonizer.
pub const MAX_NPN_VARS: usize = 5;

/// An input permutation/negation plus output negation.
///
/// The transform `t` acts on a function `f` as
///
/// ```text
/// (t . f)(x_1, .., x_n) = f(y_1, .., y_n) ^ output_negated
///     where y_i = x_{perm[i]} ^ negated(i)
/// ```
///
/// i.e. input `i` of `f` is driven by (possibly negated) input `perm[i]` of
/// the transformed function. Transforms compose ([`NpnTransform::then`])
/// and invert ([`NpnTransform::inverse`]), with
/// `t.inverse().apply(&t.apply(&f)) == f`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NpnTransform {
    vars: u8,
    perm: [u8; MAX_NPN_VARS],
    /// Bit `i` set: input `i` of the original function is negated.
    input_neg: u8,
    output_neg: bool,
}

impl NpnTransform {
    /// The identity transform over `vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `vars > MAX_NPN_VARS`.
    pub fn identity(vars: usize) -> Self {
        assert!(vars <= MAX_NPN_VARS, "at most {MAX_NPN_VARS} variables");
        let mut perm = [0u8; MAX_NPN_VARS];
        for (i, p) in perm.iter_mut().enumerate() {
            *p = i as u8;
        }
        NpnTransform {
            vars: vars as u8,
            perm,
            input_neg: 0,
            output_neg: false,
        }
    }

    /// Builds a transform from its parts.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..vars`.
    pub fn new(vars: usize, perm: &[u8], input_neg: u8, output_neg: bool) -> Self {
        assert!(vars <= MAX_NPN_VARS && perm.len() == vars);
        let mut seen = 0u8;
        let mut t = Self::identity(vars);
        for (i, &p) in perm.iter().enumerate() {
            assert!((p as usize) < vars, "permutation target out of range");
            assert!(seen & (1 << p) == 0, "duplicate permutation target");
            seen |= 1 << p;
            t.perm[i] = p;
        }
        t.input_neg = input_neg & ((1u8 << vars) - 1);
        t.output_neg = output_neg;
        t
    }

    /// Number of variables the transform acts on.
    pub fn num_vars(&self) -> usize {
        self.vars as usize
    }

    /// Where input `i` of the original function is taken from.
    pub fn perm(&self, i: usize) -> usize {
        self.perm[i] as usize
    }

    /// Whether input `i` of the original function is negated.
    pub fn input_negated(&self, i: usize) -> bool {
        (self.input_neg >> i) & 1 == 1
    }

    /// Whether the output is negated.
    pub fn output_negated(&self) -> bool {
        self.output_neg
    }

    /// Applies the transform to a truth table.
    ///
    /// # Panics
    ///
    /// Panics if the table's variable count differs from the transform's.
    pub fn apply(&self, f: &TruthTable) -> TruthTable {
        assert_eq!(f.num_vars(), self.num_vars(), "variable count mismatch");
        let n = self.num_vars();
        let mut g = TruthTable::zeros(n);
        for j in 0..1usize << n {
            // y_i = x_{perm[i]} ^ neg_i; f index is assembled from y.
            let mut src = 0usize;
            for i in 0..n {
                let xi = (j >> self.perm[i]) & 1;
                if xi ^ usize::from(self.input_negated(i)) == 1 {
                    src |= 1 << i;
                }
            }
            if f.bit(src) ^ self.output_neg {
                g.set_bit(j, true);
            }
        }
        g
    }

    /// The transform that applies `self` first and `next` second:
    /// `self.then(&next).apply(&f) == next.apply(&self.apply(&f))`.
    ///
    /// # Panics
    ///
    /// Panics if the variable counts differ.
    pub fn then(&self, next: &NpnTransform) -> NpnTransform {
        assert_eq!(self.vars, next.vars, "variable count mismatch");
        let n = self.num_vars();
        let mut r = NpnTransform::identity(n);
        // (next . (self . f))(x) = (self.f)(z) ^ o2 with z_i = x_{p2[i]} ^ n2_i
        //                        = f(y) ^ o1 ^ o2 with y_i = z_{p1[i]} ^ n1_i
        //  y_i = x_{p2[p1[i]]} ^ n2_{p1[i]} ^ n1_i.
        for i in 0..n {
            r.perm[i] = next.perm[self.perm[i] as usize];
            let neg = self.input_negated(i) ^ next.input_negated(self.perm[i] as usize);
            if neg {
                r.input_neg |= 1 << i;
            }
        }
        r.output_neg = self.output_neg ^ next.output_neg;
        r
    }

    /// The inverse transform: `t.inverse().apply(&t.apply(&f)) == f`.
    pub fn inverse(&self) -> NpnTransform {
        let n = self.num_vars();
        let mut r = NpnTransform::identity(n);
        for i in 0..n {
            r.perm[self.perm[i] as usize] = i as u8;
            if self.input_negated(i) {
                r.input_neg |= 1 << self.perm[i];
            }
        }
        r.output_neg = self.output_neg;
        r
    }
}

/// All permutations of `0..n` in lexicographic order (n <= 5).
fn permutations(n: usize) -> Vec<[u8; MAX_NPN_VARS]> {
    let mut base = [0u8; MAX_NPN_VARS];
    for (i, b) in base.iter_mut().enumerate() {
        *b = i as u8;
    }
    let mut out = Vec::new();
    let mut idx: Vec<u8> = (0..n as u8).collect();
    permute_rec(&mut idx, 0, &mut |p| {
        let mut a = base;
        a[..n].copy_from_slice(p);
        out.push(a);
    });
    out
}

fn permute_rec(idx: &mut [u8], k: usize, f: &mut impl FnMut(&[u8])) {
    if k == idx.len() {
        f(idx);
        return;
    }
    for i in k..idx.len() {
        idx.swap(k, i);
        permute_rec(idx, k + 1, f);
        idx.swap(k, i);
    }
}

/// Result of NPN canonization: the class representative and the transform
/// that produced it (`transform.apply(&f) == representative`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NpnCanon {
    /// The smallest truth table in the NPN class (numeric order).
    pub representative: TruthTable,
    /// Transform with `transform.apply(&original) == representative`.
    pub transform: NpnTransform,
}

/// Computes the exact NPN representative of `f` by exhaustive enumeration
/// of all `2 * 2^n * n!` transforms (paper §II-D: the representative is the
/// class function with the smallest truth table read as a binary number).
///
/// # Panics
///
/// Panics if `f` has more than [`MAX_NPN_VARS`] variables.
///
/// # Examples
///
/// ```
/// use truth::{npn_canonize, TruthTable};
///
/// // AND and NOR are in the same NPN class.
/// let and2 = TruthTable::from_hex(2, "8").unwrap();
/// let nor2 = TruthTable::from_hex(2, "1").unwrap();
/// let a = npn_canonize(&and2);
/// let b = npn_canonize(&nor2);
/// assert_eq!(a.representative, b.representative);
/// assert_eq!(a.transform.apply(&and2), a.representative);
/// ```
pub fn npn_canonize(f: &TruthTable) -> NpnCanon {
    let n = f.num_vars();
    assert!(n <= MAX_NPN_VARS, "npn_canonize supports up to 5 variables");
    let mut best: Option<(TruthTable, NpnTransform)> = None;
    for perm in permutations(n) {
        for input_neg in 0..1u8 << n {
            for output_neg in [false, true] {
                let t = NpnTransform {
                    vars: n as u8,
                    perm,
                    input_neg,
                    output_neg,
                };
                let g = t.apply(f);
                if best.as_ref().is_none_or(|(b, _)| g < *b) {
                    best = Some((g, t));
                }
            }
        }
    }
    let (representative, transform) = best.expect("at least the identity transform");
    NpnCanon {
        representative,
        transform,
    }
}

/// The 384 input transforms of 4-variable functions (permutation times
/// input negation, output not negated) in the order the exhaustive sweep
/// tries them, each with its minterm index map: `t.apply(f)` has bit `j`
/// equal to bit `map[j]` of `f`.
fn index_maps() -> Vec<([u16; 16], NpnTransform)> {
    let mut maps = Vec::with_capacity(384);
    for perm in permutations(4) {
        for input_neg in 0..16u8 {
            let t = NpnTransform {
                vars: 4,
                perm,
                input_neg,
                output_neg: false,
            };
            let mut map = [0u16; 16];
            for (j, m) in map.iter_mut().enumerate() {
                let mut src = 0u16;
                for i in 0..4 {
                    let xi = (j >> t.perm[i]) & 1;
                    if xi ^ usize::from(t.input_negated(i)) == 1 {
                        src |= 1 << i;
                    }
                }
                *m = src;
            }
            maps.push((map, t));
        }
    }
    maps
}

/// Every 4-input function's NPN class and transform, filled once per
/// process.
struct Npn4Table {
    /// The transforms of [`index_maps`], in sweep order.
    transforms: Vec<NpnTransform>,
    /// The class representatives in ascending order; a class index is a
    /// position here.
    reps: Vec<u16>,
    /// One word per function: `class << 10 | map_index << 1 | output_neg`.
    entries: Box<[u32]>,
}

fn npn4_table() -> &'static Npn4Table {
    static TABLE: OnceLock<Npn4Table> = OnceLock::new();
    TABLE.get_or_init(|| {
        const UNFILLED: u32 = u32::MAX;
        let maps = index_maps();
        let mut entries = vec![UNFILLED; 1 << 16].into_boxed_slice();
        let mut reps = Vec::new();
        // Every function below the first unfilled `r` belongs to an
        // earlier class, so `r` is the smallest member of its own class:
        // its representative. Each transform's preimage of `r` (and its
        // complement, with the output negated) joins the class. The
        // exhaustive sweep keeps the first transform, in sweep order, that
        // reaches the representative, so the first write wins.
        for r in 0..=u16::MAX {
            if entries[r as usize] != UNFILLED {
                continue;
            }
            let class = reps.len() as u32;
            reps.push(r);
            for (idx, (map, _)) in maps.iter().enumerate() {
                let mut g = 0u16;
                for (j, &src) in map.iter().enumerate() {
                    g |= ((r >> j) & 1) << src;
                }
                for (f, out_neg) in [(g, 0), (!g, 1)] {
                    let slot = &mut entries[f as usize];
                    if *slot == UNFILLED {
                        *slot = class << 10 | (idx as u32) << 1 | out_neg;
                    }
                }
            }
        }
        Npn4Table {
            transforms: maps.into_iter().map(|(_, t)| t).collect(),
            reps,
            entries,
        }
    })
}

/// The NPN class of a 4-input function, as an index into
/// [`npn4_class_representatives`], and the transform with
/// `transform.apply(f) == representative`. Agrees with [`npn_canonize`]
/// on the representative; one table lookup.
pub fn npn4_class(f: u16) -> (usize, NpnTransform) {
    let table = npn4_table();
    let e = table.entries[f as usize];
    let mut t = table.transforms[(e as usize >> 1) & 0x1ff];
    t.output_neg = e & 1 != 0;
    ((e >> 10) as usize, t)
}

/// Exact NPN canonizer for 4-variable functions stored as `u16` truth
/// tables: a handle over one process-wide table of all 2^16 functions,
/// filled on first use. Agrees with [`npn_canonize`] on the
/// representative.
#[derive(Debug, Default, Clone, Copy)]
pub struct Npn4Canonizer;

impl Npn4Canonizer {
    /// A handle over the table, filling it if this is its first use in
    /// the process.
    pub fn new() -> Self {
        npn4_table();
        Npn4Canonizer
    }

    /// Canonizes a 16-bit truth table, returning the representative and the
    /// transform with `transform.apply(f) == representative`.
    pub fn canonize(&self, f: u16) -> (u16, NpnTransform) {
        let (class, t) = npn4_class(f);
        (npn4_table().reps[class], t)
    }

    /// Canonizes a batch of 16-bit truth tables: `keys` is sorted and
    /// deduplicated in place, and one `(function, representative,
    /// transform)` triple per distinct key is appended to `out` (cleared
    /// first). Both buffers are caller-owned so batches recycle their
    /// capacity.
    pub fn canonize_batch(&self, keys: &mut Vec<u16>, out: &mut Vec<(u16, u16, NpnTransform)>) {
        out.clear();
        keys.sort_unstable();
        keys.dedup();
        for &f in keys.iter() {
            let (rep, t) = self.canonize(f);
            out.push((f, rep, t));
        }
    }
}

/// The representatives of all 4-variable NPN classes, in ascending
/// truth-table order. The paper (§II-D) reports exactly 222 classes; a
/// unit test pins this count.
pub fn npn4_class_representatives() -> Vec<u16> {
    npn4_table().reps.clone()
}

/// Sizes of each 4-variable NPN class keyed by representative: the number
/// of distinct functions NPN-equivalent to it (used to reproduce the
/// "Functions" columns of Tables I and II).
pub fn npn4_class_sizes() -> std::collections::HashMap<u16, u32> {
    let table = npn4_table();
    let mut sizes = std::collections::HashMap::new();
    for &e in table.entries.iter() {
        *sizes.entry(table.reps[(e >> 10) as usize]).or_insert(0) += 1;
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tt(hex: &str) -> TruthTable {
        TruthTable::from_hex(4, hex).unwrap()
    }

    #[test]
    fn identity_applies_trivially() {
        let f = tt("cafe");
        let id = NpnTransform::identity(4);
        assert_eq!(id.apply(&f), f);
        assert_eq!(id.inverse(), id);
    }

    #[test]
    fn apply_then_compose_agree() {
        let f = tt("1ee1");
        let t1 = NpnTransform::new(4, &[2, 0, 3, 1], 0b0101, true);
        let t2 = NpnTransform::new(4, &[1, 3, 0, 2], 0b1010, false);
        let seq = t2.apply(&t1.apply(&f));
        let composed = t1.then(&t2).apply(&f);
        assert_eq!(seq, composed);
    }

    #[test]
    fn inverse_roundtrip() {
        let f = tt("8001");
        let t = NpnTransform::new(4, &[3, 1, 0, 2], 0b0110, true);
        assert_eq!(t.inverse().apply(&t.apply(&f)), f);
        assert_eq!(t.apply(&t.inverse().apply(&f)), f);
    }

    #[test]
    fn canonize_is_class_invariant() {
        let f = tt("6996"); // 4-input parity
        let base = npn_canonize(&f);
        // Any transformed version must canonize to the same representative.
        let t = NpnTransform::new(4, &[1, 2, 3, 0], 0b0011, true);
        let g = t.apply(&f);
        let other = npn_canonize(&g);
        assert_eq!(base.representative, other.representative);
        assert_eq!(base.transform.apply(&f), base.representative);
        assert_eq!(other.transform.apply(&g), other.representative);
    }

    #[test]
    fn fast4_matches_generic() {
        let canon = Npn4Canonizer::new();
        for f in [0x0000u16, 0xffff, 0x8000, 0x6996, 0xcafe, 0x1234, 0xaaaa] {
            let (rep, t) = canon.canonize(f);
            let slow = npn_canonize(&TruthTable::from_u16(f));
            assert_eq!(rep, slow.representative.as_u16(), "f = {f:04x}");
            assert_eq!(t.apply(&TruthTable::from_u16(f)).as_u16(), rep);
        }
    }

    #[test]
    fn class_counts_match_paper() {
        // Paper §II-D: 2, 4, 14, 222 classes for n = 1, 2, 3, 4.
        let reps = npn4_class_representatives();
        assert_eq!(reps.len(), 222);
        let sizes = npn4_class_sizes();
        assert_eq!(sizes.len(), 222);
        assert_eq!(sizes.values().sum::<u32>(), 65536);
    }

    #[test]
    fn small_var_class_counts_match_paper() {
        for (n, expect) in [(1usize, 2usize), (2, 4), (3, 14)] {
            let mut reps = std::collections::HashSet::new();
            for f in 0..1u64 << (1 << n) {
                let t = TruthTable::from_bits(n, f);
                reps.insert(npn_canonize(&t).representative);
            }
            assert_eq!(reps.len(), expect, "n = {n}");
        }
    }

    /// The exhaustive 384-map sweep the table replaces: the first
    /// `(map index, output negation)` in sweep order that reaches the
    /// smallest image wins.
    fn sweep(maps: &[([u16; 16], NpnTransform)], f: u16) -> (u16, usize, bool) {
        let mut best = (u16::MAX, 0, false);
        for (idx, (map, _)) in maps.iter().enumerate() {
            let mut g: u16 = 0;
            for (j, &src) in map.iter().enumerate() {
                g |= ((f >> src) & 1) << j;
            }
            if g < best.0 {
                best = (g, idx, false);
            }
            if !g < best.0 {
                best = (!g, idx, true);
            }
        }
        best
    }

    #[test]
    fn table_matches_the_sweep_on_every_function() {
        let maps = index_maps();
        let canon = Npn4Canonizer::new();
        for f in 0..=u16::MAX {
            let (rep, idx, out_neg) = sweep(&maps, f);
            let mut want = maps[idx].1;
            want.output_neg = out_neg;
            assert_eq!(canon.canonize(f), (rep, want), "f = {f:04x}");
        }
    }

    /// The batch contract: keys come back sorted and deduplicated, with
    /// one single-call result each (the table test covers every
    /// function).
    #[test]
    fn batched_canonization_matches_single_over_all_tt4s() {
        let canon = Npn4Canonizer::new();
        let mut keys: Vec<u16> = vec![0xcafe, 0x1234, 0xffff, 0x1234, 0x0000, 0xcafe];
        let mut out = vec![(7, 7, NpnTransform::identity(4))];
        canon.canonize_batch(&mut keys, &mut out);
        assert_eq!(keys, [0x0000, 0x1234, 0xcafe, 0xffff]);
        assert_eq!(out.len(), keys.len());
        for (&f, &(g, rep, t)) in keys.iter().zip(&out) {
            assert_eq!(g, f);
            assert_eq!((rep, t), canon.canonize(f), "f = {f:04x}");
        }
    }

    #[test]
    fn representative_is_minimal() {
        let canon = Npn4Canonizer::new();
        let (rep, _) = canon.canonize(0x6996);
        // The representative must be <= every transformed table we can build.
        let f = TruthTable::from_u16(0x6996);
        for perm in permutations(4) {
            let t = NpnTransform {
                vars: 4,
                perm,
                input_neg: 0b0101,
                output_neg: false,
            };
            assert!(rep <= t.apply(&f).as_u16());
        }
    }
}

//! Pins the paper's concrete, checkable claims (everything a referee
//! could verify without the authors' machines).

use mig_fh::exact::{minimum_size, SynthesisConfig};
use mig_fh::mig::Mig;
use mig_fh::npndb::{shannon_mig, theorem2_bound, Database};
use mig_fh::truth::{npn4_class_sizes, Npn4Canonizer, TruthTable};

/// Paper §II-D: 2, 4, 14, 222 NPN classes for n = 1..4.
#[test]
fn npn_class_counts() {
    assert_eq!(mig_fh::truth::npn4_class_representatives().len(), 222);
    for (n, expect) in [(1usize, 2usize), (2, 4), (3, 14)] {
        let mut reps = std::collections::HashSet::new();
        for f in 0..1u64 << (1 << n) {
            reps.insert(mig_fh::truth::npn_canonize(&TruthTable::from_bits(n, f)).representative);
        }
        assert_eq!(reps.len(), expect, "n = {n}");
    }
}

/// Paper Fig. 1: the full adder has MIG size 3 and depth 2.
#[test]
fn fig1_full_adder() {
    let mut m = Mig::new(3);
    let (a, b, c) = (m.input(0), m.input(1), m.input(2));
    let (s, co) = m.full_adder(a, b, c);
    m.add_output(s);
    m.add_output(co);
    assert_eq!(m.num_gates(), 3);
    assert_eq!(m.depth(), 2);
}

/// Paper Table I: classes and functions per minimum gate count.
#[test]
fn table1_histograms() {
    let db = Database::embedded();
    let sizes = npn4_class_sizes();
    let mut classes = std::collections::BTreeMap::new();
    let mut funcs = std::collections::BTreeMap::new();
    for e in db.iter() {
        *classes.entry(e.size).or_insert(0usize) += 1;
        *funcs.entry(e.size).or_insert(0u32) += sizes[&e.representative];
    }
    let expect_classes = [2, 2, 5, 18, 42, 117, 35, 1];
    let expect_funcs = [10, 80, 640, 3300, 10352, 40064, 11058, 32];
    for (k, (&c, &f)) in expect_classes.iter().zip(&expect_funcs).enumerate() {
        assert_eq!(classes[&(k as u32)], c, "classes at {k}");
        assert_eq!(funcs[&(k as u32)], f, "functions at {k}");
    }
}

/// Paper Fig. 2 / §V-A: the unique hardest class is S_{0,2} with 7 gates,
/// which is NPN-equivalent to (x1^x2^x3^x4) | x1x2x3x4.
#[test]
fn fig2_hardest_class() {
    let db = Database::embedded();
    let hardest: Vec<u16> = db
        .iter()
        .filter(|e| e.size == 7)
        .map(|e| e.representative)
        .collect();
    assert_eq!(hardest.len(), 1);
    let canon = Npn4Canonizer::new();
    // S_{0,2}
    let mut s02 = TruthTable::zeros(4);
    // (x1^x2^x3^x4) | x1x2x3x4
    let mut alt = TruthTable::zeros(4);
    for j in 0..16usize {
        if j.count_ones() == 0 || j.count_ones() == 2 {
            s02.set_bit(j, true);
        }
        if j.count_ones() % 2 == 1 || j == 15 {
            alt.set_bit(j, true);
        }
    }
    assert_eq!(canon.canonize(s02.as_u16()).0, hardest[0]);
    assert_eq!(
        canon.canonize(alt.as_u16()).0,
        hardest[0],
        "paper's alternative formulation is in the same class"
    );
}

/// Paper §V-A: the parity class S_{1,3} contains exactly 2 functions and
/// is the single deepest class (D = 4).
#[test]
fn parity_class_has_two_functions() {
    let sizes = npn4_class_sizes();
    let canon = Npn4Canonizer::new();
    let (rep, _) = canon.canonize(0x6996);
    assert_eq!(sizes[&rep], 2);
}

/// Paper Theorem 2: C(n) <= 10 * (2^(n-4) - 1) + 7, constructively.
#[test]
fn theorem2_constructive() {
    assert_eq!(theorem2_bound(4), 7);
    assert_eq!(theorem2_bound(5), 17);
    let db = Database::embedded();
    let mut seed = 99u64;
    for n in [5usize, 6] {
        for _ in 0..5 {
            let mut f = TruthTable::zeros(n);
            for j in 0..1usize << n {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                if seed >> 63 == 1 {
                    f.set_bit(j, true);
                }
            }
            let m = shannon_mig(&f, &db);
            assert_eq!(m.output_truth_tables()[0], f);
            assert!((m.cleanup().num_gates() as u64) <= theorem2_bound(n as u32));
        }
    }
}

/// Paper §III: exact synthesis matches the embedded database on a sample
/// of classes (independent re-derivation).
#[test]
fn exact_synthesis_agrees_with_database_sample() {
    let db = Database::embedded();
    let cfg = SynthesisConfig::default();
    for e in db.iter().filter(|e| e.size <= 4).step_by(7) {
        let net = minimum_size(&TruthTable::from_u16(e.representative), &cfg).unwrap();
        assert_eq!(net.size() as u32, e.size, "rep {:04x}", e.representative);
        assert_eq!(net.truth_table().as_u16(), e.representative);
    }
}

/// Paper §IV: the example of functional hashing shrinking
/// redundancy — a chained xor4 (9 gates) reaches the class minimum (6).
#[test]
fn fh_reaches_class_minimum_for_parity() {
    let mut m = Mig::new(4);
    let (a, b, c, d) = (m.input(0), m.input(1), m.input(2), m.input(3));
    let x = m.xor(a, b);
    let y = m.xor(c, d);
    let z = m.xor(x, y);
    m.add_output(z);
    let e = mig_fh::fhash::FunctionalHashing::with_default_database();
    e.pass(&mut m, mig_fh::fhash::Variant::TopDown, &mut None);
    assert_eq!(m.num_gates(), 6);
}

//! Integration tests spanning the whole workspace: generator → algebraic
//! optimization → functional hashing → technology mapping, with
//! equivalence validation at each step.

use mig_fh::benchgen::EpflBenchmark;
use mig_fh::cec;
use mig_fh::fhash::{FunctionalHashing, Variant};
use mig_fh::mig::Mig;
use mig_fh::migalg;
use mig_fh::techmap::{map_luts, MapConfig};

fn engine() -> FunctionalHashing {
    FunctionalHashing::with_default_database()
}

/// One functional-hashing pass of `v` on a copy of `m`.
fn run(e: &FunctionalHashing, m: &Mig, v: Variant) -> Mig {
    let mut opt = m.clone();
    e.pass(&mut opt, v, &mut None, 1);
    opt
}

#[test]
fn all_variants_on_all_scaled_benchmarks_preserve_function() {
    let e = engine();
    for b in EpflBenchmark::ALL {
        let m = b.generate_scaled(1);
        for v in Variant::ALL {
            let opt = run(&e, &m, v);
            assert!(
                cec::equivalent_random(&m, &opt, 8, 0xBEEF),
                "{b}/{v}: random mismatch"
            );
            assert_eq!(opt.num_inputs(), m.num_inputs(), "{b}/{v}");
            assert_eq!(opt.num_outputs(), m.num_outputs(), "{b}/{v}");
        }
    }
}

#[test]
fn depth_script_plus_fh_plus_mapping_on_scaled_divisor() {
    let raw = EpflBenchmark::Divisor.generate_scaled(2);
    // Depth-oriented script (refs [3], [4]).
    let mut base = raw.cleanup();
    for _ in 0..100 {
        let mut next = base.cleanup();
        migalg::depth_rewrite(&mut next);
        if next.depth() >= base.depth() {
            break;
        }
        base = next;
    }
    assert!(base.depth() < raw.depth(), "depth script made progress");
    assert!(cec::equivalent_random(&raw, &base, 8, 1));

    // Functional hashing recovers size without breaking the function.
    let e = engine();
    let opt = run(&e, &base, Variant::TopDownFfr);
    assert!(opt.num_gates() <= base.num_gates());
    assert!(cec::equivalent_random(&base, &opt, 8, 2));

    // Mapping the optimized MIG covers the same function.
    let mapping = map_luts(&opt, &MapConfig::default());
    assert!(mapping.area > 0);
    for pattern in [0u64, 0xFFFF_FFFF_FFFF_FFFF, 0x1234_5678_9ABC_DEF0] {
        let bits: Vec<bool> = (0..opt.num_inputs())
            .map(|i| (pattern >> (i % 64)) & 1 == 1)
            .collect();
        assert_eq!(mapping.evaluate(&opt, &bits), opt.evaluate(&bits));
    }
}

#[test]
fn sat_proof_of_fh_on_midsize_multiplier() {
    let m = mig_fh::benchgen::multiplier(6);
    let e = engine();
    let opt = run(&e, &m, Variant::BottomUpFfr);
    assert_eq!(
        cec::prove_equivalent(&m, &opt, None),
        cec::CecResult::Equivalent
    );
}

#[test]
fn exhaustive_equivalence_on_small_log2_and_sine() {
    let e = engine();
    for m in [
        mig_fh::benchgen::log2(8, 3, 5, 6),
        mig_fh::benchgen::sine(8, 9, 8),
    ] {
        for v in [Variant::TopDown, Variant::BottomUpFfr] {
            let opt = run(&e, &m, v);
            assert!(cec::equivalent_exhaustive(&m, &opt), "{v}");
        }
    }
}

#[test]
fn repeated_fh_rounds_converge_and_stay_correct() {
    // The paper notes running the algorithm several times helps; check
    // that iterating is monotone in size and preserves the function.
    let raw = EpflBenchmark::SquareRoot.generate_scaled(1);
    let e = engine();
    let mut cur = raw.cleanup();
    let mut last = usize::MAX;
    for round in 0..4 {
        let next = run(&e, &cur, Variant::TopDown);
        assert!(
            next.num_gates() <= cur.num_gates(),
            "round {round} grew the MIG"
        );
        assert!(cec::equivalent_random(&raw, &next, 4, round as u64));
        if next.num_gates() == last {
            break;
        }
        last = next.num_gates();
        cur = next;
    }
}

#[test]
fn aig_baseline_flow_matches_mig_function() {
    // Cross-representation: MIG -> AIG conversion + balance + rewriting
    // keeps the circuit's function (checked on a small adder).
    let m = mig_fh::benchgen::adder(5);
    let a = mig_fh::aig::from_mig(&m);
    let balanced = mig_fh::aig::balance(&a);
    let rewritten = mig_fh::aig::AigRewriter::default().rewrite(&balanced);
    assert_eq!(
        rewritten.output_truth_tables(),
        m.output_truth_tables(),
        "AIG flow diverged from the MIG"
    );
}

#[test]
fn shannon_construction_composes_with_fh() {
    // Build an arbitrary 6-variable function via Theorem 2's construction,
    // then shrink it with functional hashing.
    let db = mig_fh::npndb::Database::embedded();
    let mut f = mig_fh::truth::TruthTable::zeros(6);
    for j in 0..64usize {
        if (j * 37 + 11) % 5 < 2 {
            f.set_bit(j, true);
        }
    }
    let m = mig_fh::npndb::shannon_mig(&f, &db);
    assert_eq!(m.output_truth_tables()[0], f);
    let e = engine();
    let opt = run(&e, &m, Variant::TopDown);
    assert!(opt.num_gates() <= m.num_gates());
    assert_eq!(opt.output_truth_tables()[0], f);
}

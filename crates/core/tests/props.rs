//! Property tests: every functional-hashing variant must preserve the
//! functionality of arbitrary MIGs, and the top-down variants must never
//! increase size.
//!
//! (Randomized with the workspace's deterministic `testrand` generator —
//! the container has no network access for a `proptest` dependency.)

use fhash::{FunctionalHashing, Variant};
use mig::{Mig, Signal};
use std::sync::OnceLock;
use testrand::Rng;

fn engine() -> &'static FunctionalHashing {
    static ENGINE: OnceLock<FunctionalHashing> = OnceLock::new();
    ENGINE.get_or_init(FunctionalHashing::with_default_database)
}

/// One pass of `v` on a copy of `m`.
fn run(m: &Mig, v: Variant) -> Mig {
    let mut opt = m.clone();
    engine().pass(&mut opt, v, &mut None);
    opt
}

fn random_build(rng: &mut Rng, num_inputs: usize, num_steps: usize, outs: usize) -> Mig {
    let mut m = Mig::new(num_inputs);
    let mut sigs: Vec<Signal> = vec![Signal::ZERO];
    for i in 0..num_inputs {
        sigs.push(m.input(i));
    }
    for _ in 0..num_steps {
        let pick = |sigs: &[Signal], rng: &mut Rng| {
            sigs[rng.usize_below(sigs.len())].complement_if(rng.bool())
        };
        let (a, b, c) = (pick(&sigs, rng), pick(&sigs, rng), pick(&sigs, rng));
        let g = m.maj(a, b, c);
        sigs.push(g);
    }
    for k in 0..outs {
        let s = sigs[sigs.len() - 1 - (k % sigs.len())];
        m.add_output(s.complement_if(k % 2 == 1));
    }
    m
}

#[test]
fn variants_preserve_functionality() {
    let mut rng = Rng::new(0xF4A5_0001);
    for case in 0..24 {
        let num_inputs = rng.range(1, 7);
        let steps = rng.range(1, 60);
        let outs = rng.range(1, 4);
        let m = random_build(&mut rng, num_inputs, steps, outs);
        let want = m.output_truth_tables();
        for v in Variant::ALL {
            let opt = run(&m, v);
            assert_eq!(
                opt.output_truth_tables(),
                want,
                "case {case}: variant {v} changed the function"
            );
        }
    }
}

#[test]
fn topdown_is_monotone_in_size() {
    let mut rng = Rng::new(0xF4A5_0002);
    for case in 0..24 {
        let num_inputs = rng.range(1, 7);
        let steps = rng.range(1, 60);
        let m = random_build(&mut rng, num_inputs, steps, 2).cleanup();
        for v in [
            Variant::TopDown,
            Variant::TopDownDepth,
            Variant::TopDownFfr,
            Variant::TopDownFfrDepth,
        ] {
            let opt = run(&m, v);
            assert!(
                opt.num_gates() <= m.num_gates(),
                "case {case}: variant {v} grew the MIG: {} -> {}",
                m.num_gates(),
                opt.num_gates()
            );
        }
    }
}

#[test]
fn optimization_is_idempotent_in_function() {
    let mut rng = Rng::new(0xF4A5_0003);
    for case in 0..24 {
        let num_inputs = rng.range(1, 6);
        let steps = rng.range(1, 40);
        // Running a second pass must keep the function and never undo the
        // size gains of the first pass by more than it helps.
        let m = random_build(&mut rng, num_inputs, steps, 1);
        let once = run(&m, Variant::TopDown);
        let twice = run(&once, Variant::TopDown);
        assert_eq!(
            twice.output_truth_tables(),
            m.output_truth_tables(),
            "case {case}"
        );
        assert!(twice.num_gates() <= once.num_gates(), "case {case}");
    }
}

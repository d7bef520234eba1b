//! Engine reuse at the engine level: `migopt --cache` and the `migd`
//! daemon run every job on one shared engine, so an engine that has
//! already optimized other circuits must give the same netlists as a
//! fresh one — bit-identical across variants and thread counts.

use fhash::{FunctionalHashing, Variant};
use mig::{Mig, Signal};
use testrand::Rng;

/// What `fhash:V@N; fhash!:V@N` runs: one pass, then the convergence
/// scheduler.
fn fhash_at(e: &FunctionalHashing, m: &mut Mig, v: Variant, threads: usize) {
    e.pass(m, v, &mut None, threads);
    e.converge(m, v, threads);
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
fn warm_engine_is_bit_identical_to_cold() {
    let mut rng = Rng::new(0xCAC4_0001);
    let cases: Vec<Mig> = (0..8)
        .map(|_| {
            let num_inputs = rng.range(2, 7);
            let steps = rng.range(20, 120);
            random_build(&mut rng, num_inputs, steps, 2)
        })
        .collect();

    // One engine reused over every case, variant and thread count, held
    // against a fresh engine per run.
    let shared = FunctionalHashing::with_default_database();
    for (case, m) in cases.iter().enumerate() {
        for v in Variant::ALL {
            for threads in [1usize, 2, 4] {
                let mut reused = m.clone();
                fhash_at(&shared, &mut reused, v, threads);
                let mut fresh = m.clone();
                fhash_at(
                    &FunctionalHashing::with_default_database(),
                    &mut fresh,
                    v,
                    threads,
                );
                assert_eq!(
                    reused.fingerprint(),
                    fresh.fingerprint(),
                    "case {case} variant {v} @{threads}: the reused engine diverged"
                );
            }
        }
    }
}

//! Quickstart: build a small MIG, shrink it with functional hashing, and
//! verify the result.
//!
//! Run with: `cargo run --release --example quickstart`

use mig_fh::cec;
use mig_fh::fhash::{FunctionalHashing, Variant};
use mig_fh::mig::Mig;

fn main() {
    // Build a deliberately wasteful 4-input parity: three xor2 blocks of
    // three majority gates each (9 gates). The minimum is 6.
    let mut m = Mig::new(4);
    let (a, b, c, d) = (m.input(0), m.input(1), m.input(2), m.input(3));
    let x = m.xor(a, b);
    let y = m.xor(c, d);
    let z = m.xor(x, y);
    m.add_output(z);
    println!("input MIG:     {m}");

    // The engine loads the embedded database of minimum MIGs for all 222
    // 4-variable NPN classes (paper Table I).
    let engine = FunctionalHashing::with_default_database();

    for variant in Variant::ALL {
        let mut optimized = m.clone();
        engine.pass(&mut optimized, variant, &mut None, 1);
        assert!(cec::equivalent_exhaustive(&m, &optimized));
        println!(
            "variant {:>3}:   gates {} -> {}, depth {} -> {}   (verified equivalent)",
            variant.acronym(),
            m.num_gates(),
            optimized.num_gates(),
            m.depth(),
            optimized.depth()
        );
    }
}

//! End-to-end flow on a realistic arithmetic block: generate a 32-bit
//! ripple-carry adder, depth-optimize it algebraically (refs [3], [4] —
//! turning the ripple structure into a carry-lookahead-like one), recover
//! size with functional hashing, technology-map the result, and prove
//! every step equivalent.
//!
//! Run with: `cargo run --release --example optimize_adder`

use mig_fh::benchgen;
use mig_fh::cec::{self, CecResult};
use mig_fh::fhash::{FunctionalHashing, Variant};
use mig_fh::migalg;
use mig_fh::techmap::{map_luts, MapConfig};

fn main() {
    let raw = benchgen::adder(32);
    println!("generated:      {raw}");

    // Depth-oriented algebraic rewriting to a fixpoint (the paper's
    // starting points were produced the same way).
    let mut depth_opt = raw.cleanup();
    loop {
        let mut next = depth_opt.cleanup();
        migalg::depth_rewrite(&mut next);
        if next.depth() >= depth_opt.depth() {
            break;
        }
        depth_opt = next;
    }
    println!("depth script:   {depth_opt}");
    assert!(cec::equivalent_random(&raw, &depth_opt, 16, 1));

    // Functional hashing (paper §IV): recover size.
    let engine = FunctionalHashing::with_default_database();
    let mut best = depth_opt.clone();
    for v in Variant::ALL {
        let mut opt = depth_opt.clone();
        engine.pass(&mut opt, v, &mut None, 1);
        println!(
            "fh {:>3}:        gates {:>4}, depth {:>3}",
            v.acronym(),
            opt.num_gates(),
            opt.depth()
        );
        assert!(cec::equivalent_random(&depth_opt, &opt, 16, 2));
        if opt.num_gates() < best.num_gates() {
            best = opt;
        }
    }

    // Technology mapping (paper Table IV's flow).
    for (name, m) in [("baseline", &depth_opt), ("best fh ", &best)] {
        let mapped = map_luts(m, &MapConfig::default());
        println!(
            "map {name}:   {:>4} LUTs, {:>2} levels",
            mapped.area, mapped.depth
        );
    }

    // Full SAT proof of the final result against the original adder.
    match cec::prove_equivalent(&raw, &best, Some(2_000_000)) {
        CecResult::Equivalent => println!("SAT proof: optimized adder == original adder"),
        CecResult::Unknown => println!("SAT proof: budget exhausted (random checks passed)"),
        CecResult::Counterexample(c) => panic!("mismatch on {c:?}"),
    }
}

//! Production-corpus acceptance gate: the >100k-gate instance must run
//! through the full event-driven convergence pipeline bit-deterministic
//! per thread count (identical netlist fingerprints across repeated
//! runs at 1/2/4/8 workers) and equivalent to the input under random
//! word-parallel simulation. Run by `ci.sh`; exits non-zero on any
//! violation.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// A structural netlist fingerprint: every live gate with its fanins,
/// plus the output list. Two graphs with equal fingerprints are (up to
/// hash collision) the same netlist, node numbering included.
fn fingerprint(m: &mig::Mig) -> u64 {
    let mut h = DefaultHasher::new();
    m.num_nodes().hash(&mut h);
    for g in m.gates() {
        g.hash(&mut h);
        m.fanins(g).hash(&mut h);
    }
    m.outputs().hash(&mut h);
    h.finish()
}

fn main() {
    let epfl = bench_harness::workloads::epfl_big();
    println!(
        "epfl_big: {} gates, {}/{} i/o",
        epfl.num_gates(),
        epfl.num_inputs(),
        epfl.num_outputs()
    );
    assert!(
        epfl.num_gates() >= 100_000,
        "corpus instance below the 100k-gate floor"
    );
    let engine = fhash::FunctionalHashing::with_default_database();
    for threads in [1usize, 2, 4, 8] {
        let mut a = epfl.clone();
        let (stats_a, _) = engine.converge(&mut a, fhash::Variant::TopDown, threads);
        let fp = fingerprint(&a);
        let mut b = epfl.clone();
        let (stats_b, _) = engine.converge(&mut b, fhash::Variant::TopDown, threads);
        assert_eq!(
            fp,
            fingerprint(&b),
            "@{threads}: nondeterministic netlist across repeated runs"
        );
        assert_eq!(stats_a, stats_b, "@{threads}: counters drifted");
        assert!(
            a.num_gates() < epfl.num_gates(),
            "@{threads}: convergence did not shrink the instance"
        );
        assert!(
            cec::equivalent_random(epfl, &a, 8, 0xC0FFEE),
            "@{threads}: optimized corpus instance not equivalent"
        );
        println!(
            "@{threads}: fingerprint {fp:016x}, {} gates, dead {}%, CEC(random) ok",
            a.num_gates(),
            a.dead_slot_pct()
        );
    }
    println!("corpus check OK");
}

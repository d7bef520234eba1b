//! Production-corpus acceptance gate: the >100k-gate instance must run
//! through the full event-driven convergence pipeline to one netlist at
//! every thread count (the recorded fingerprint at 1/2/4/8 workers, on
//! repeated runs too) and equivalent to the input under random
//! word-parallel simulation. Run by `ci.sh`; exits non-zero on any
//! violation.

/// [`mig::Mig::fingerprint`] of `fhash!:T` on `epfl_big`, the same at
/// every thread count. A change that moves this netlist on purpose
/// updates it and says so.
const RECORDED: u64 = 0x120f_fd84_6fcc_5acd;

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
        let fp = a.fingerprint();
        let mut b = epfl.clone();
        let (stats_b, _) = engine.converge(&mut b, fhash::Variant::TopDown, threads);
        assert_eq!(
            fp,
            b.fingerprint(),
            "@{threads}: nondeterministic netlist across repeated runs"
        );
        assert_eq!(
            fp, RECORDED,
            "@{threads}: netlist moved off its recorded fingerprint"
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

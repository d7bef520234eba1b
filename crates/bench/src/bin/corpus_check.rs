//! Production-corpus acceptance gate: the >100k-gate instance must run
//! through the full event-driven convergence pipeline bit-deterministic
//! per thread count (identical netlist fingerprints across repeated
//! runs at 1/2/4/8 workers, equal to the recorded ones) and equivalent
//! to the input under random word-parallel simulation. Run by `ci.sh`;
//! exits non-zero on any violation.

/// [`mig::Mig::fingerprint`] of `fhash!:T@N` on `epfl_big`, per thread
/// count. A change that moves these netlists on purpose updates this
/// table and says so.
const RECORDED: [(usize, u64); 4] = [
    (1, 0xdccd_541f_1ade_efed),
    (2, 0x72fd_a222_75b9_e1b0),
    (4, 0x4da4_4a49_921b_1ee3),
    (8, 0xad9d_4499_6a27_52bd),
];

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
    for (threads, recorded) in RECORDED {
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
            fp, recorded,
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

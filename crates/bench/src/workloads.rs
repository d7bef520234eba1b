//! Synthetic workloads shared between the micro-benchmarks and the CI
//! tooling binaries (`trace_overhead`).

use std::sync::OnceLock;

use mig::{Mig, Signal};

/// AND-expands a generated graph the way the benchmark front door does:
/// round-trip through the AIG representation so every majority gate with
/// a constant input becomes a two-input AND (the paper's starting-point
/// normalization).
fn and_expand(m: &Mig) -> Mig {
    aig::to_mig(&aig::from_mig(m))
}

/// The AND-expanded EPFL-width multiplier (~44k gates): the medium
/// instance behind the `sched/mult_big@N` rows. Generated once per
/// process — benchmark iterations clone the cached graph instead of
/// re-running the generator and the AIG round-trip.
pub fn mult_big_and() -> &'static Mig {
    static CACHE: OnceLock<Mig> = OnceLock::new();
    CACHE.get_or_init(|| and_expand(&benchgen::mult_big()))
}

/// The production-scale corpus instance: a 128-bit array multiplier,
/// AND-expanded to >100k gates. Drives the `fhash!/epfl_big@N` scaling
/// rows and the `mig/compact_epfl_big` storage rows; cached once per
/// process like [`mult_big_and`].
pub fn epfl_big() -> &'static Mig {
    static CACHE: OnceLock<Mig> = OnceLock::new();
    CACHE.get_or_init(|| and_expand(&benchgen::multiplier(128)))
}

/// Deep control logic: `gen_bench ctrl:16:16:1000:1`, AND-expanded
/// (about 119k gates, depth 2.6k). A substitution there makes cones
/// thousands of levels tall shallower, so the `fhash!/ctrl_deep@1` row
/// shows what level upkeep costs the commit path. Cached once per
/// process like [`mult_big_and`].
pub fn ctrl_deep() -> &'static Mig {
    static CACHE: OnceLock<Mig> = OnceLock::new();
    CACHE.get_or_init(|| and_expand(&benchgen::random_control(16, 16, 1000, 1)))
}

/// An unbalanced AND ripple chain over `n` inputs (depth `n - 1`): the
/// depth script's worst case, rebalanced toward a log-depth tree by the
/// Ω.A/Ω.D moves.
pub fn ripple_chain(n: usize) -> Mig {
    let mut m = Mig::new(n);
    let mut acc = m.input(0);
    for i in 1..n {
        let x = m.input(i);
        acc = m.and(acc, x);
    }
    m.add_output(acc);
    m
}

/// `towers` towers for the parallel-throughput rows: a naive xor3 cone
/// (6 gates, minimum 3) under a majority chain of `chain` gates with
/// fresh input pairs per link — any 4-feasible cut spanning two chain
/// gates would need 5 leaves, so the chain is stable ballast and the
/// rewriting work concentrates in the bottom cones — with the tower tops
/// merged by a majority tree.
pub fn parallel_chain_workload(towers: usize, chain: usize) -> Mig {
    let mut m = Mig::new(towers * (3 + 2 * chain));
    let mut next_input = 0;
    let mut fresh = |m: &Mig| {
        let s = m.input(next_input);
        next_input += 1;
        s
    };
    let mut tops = Vec::new();
    for _ in 0..towers {
        let (a, b, c) = (fresh(&m), fresh(&m), fresh(&m));
        let x = m.xor(a, b);
        let mut acc = m.xor(x, c);
        for _ in 0..chain {
            let (p, q) = (fresh(&m), fresh(&m));
            acc = m.maj(acc, p, q);
        }
        tops.push(acc);
    }
    while tops.len() > 1 {
        let mut next = Vec::new();
        for ch in tops.chunks(3) {
            next.push(match *ch {
                [p] => p,
                [p, q] => m.maj(p, q, Signal::ZERO),
                [p, q, r] => m.maj(p, q, r),
                _ => unreachable!(),
            });
        }
        tops = next;
    }
    m.add_output(tops[0]);
    m
}

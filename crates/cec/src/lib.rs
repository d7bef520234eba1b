//! Combinational equivalence checking for MIGs.
//!
//! Every optimization pass in this workspace is validated against its
//! input. Three levels of assurance are offered:
//!
//! * [`equivalent_exhaustive`] — complete truth tables (up to 16 inputs);
//! * [`equivalent_random`] — word-parallel random simulation, a fast
//!   necessary condition used on the paper-scale benchmarks;
//! * [`prove_equivalent`] — SAT sweeping over the workspace's CDCL solver,
//!   giving a proof (or a counterexample) without input-count limits.
//!
//! [`prove_equivalent`] does not hand one whole-circuit miter to the
//! solver. Functional hashing swaps a cut for a network computing the
//! same function of the same leaves, so most nodes of an optimized MIG
//! have an equal node in its input. The proof simulates both networks,
//! walks their nodes in level order, and merges each node into an
//! earlier one with the same simulation signature once the two are
//! proven equal: first by truth tables over a cut of at most six shared
//! leaves, with no SAT call, and otherwise by two small SAT calls on a
//! recycled incremental solver. Each refuting model is simulated at once
//! and splits the classes. Output pairs then usually end on the same
//! literal; the rest get one final SAT check.

mod sweep;

use mig::Mig;

/// Result of a SAT-based equivalence proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CecResult {
    /// The two networks are equivalent (every output pair proven equal).
    Equivalent,
    /// A distinguishing input assignment was found.
    Counterexample(Vec<bool>),
    /// The conflict budget ran out first (random simulation found no
    /// difference).
    Unknown,
}

/// Checks equivalence by complete simulation.
///
/// # Panics
///
/// Panics if the interface signatures differ or there are more than 16
/// inputs.
pub fn equivalent_exhaustive(a: &Mig, b: &Mig) -> bool {
    assert_eq!(a.num_inputs(), b.num_inputs(), "input counts differ");
    assert_eq!(a.num_outputs(), b.num_outputs(), "output counts differ");
    assert!(
        a.num_inputs() <= 16,
        "exhaustive check limited to 16 inputs"
    );
    obs::metrics::add(obs::Metric::CecSimChecks, 1);
    a.output_truth_tables() == b.output_truth_tables()
}

/// Checks equivalence on `words * 64` random input patterns (a necessary
/// condition; returns `false` only on a real mismatch).
///
/// # Panics
///
/// Panics if the interface signatures differ.
pub fn equivalent_random(a: &Mig, b: &Mig, words: usize, seed: u64) -> bool {
    assert_eq!(a.num_inputs(), b.num_inputs(), "input counts differ");
    assert_eq!(a.num_outputs(), b.num_outputs(), "output counts differ");
    obs::metrics::add(obs::Metric::CecSimChecks, 1);
    let mut state = seed | 1;
    let mut next = move || {
        // SplitMix64.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for _ in 0..words.max(1) {
        let ins: Vec<u64> = (0..a.num_inputs()).map(|_| next()).collect();
        let va = a.simulate_words(&ins);
        let vb = b.simulate_words(&ins);
        for (oa, ob) in a.outputs().iter().zip(b.outputs()) {
            let wa = va[oa.node() as usize] ^ if oa.is_complemented() { u64::MAX } else { 0 };
            let wb = vb[ob.node() as usize] ^ if ob.is_complemented() { u64::MAX } else { 0 };
            if wa != wb {
                return false;
            }
        }
    }
    true
}

/// Proves or refutes equivalence by SAT sweeping (see the crate
/// documentation).
///
/// `conflict_budget` caps the conflicts summed over every SAT call of the
/// proof; `None` runs until a verdict. Before returning
/// [`CecResult::Counterexample`] the proof evaluates both networks on the
/// assignment and asserts that they differ.
///
/// # Panics
///
/// Panics if the interface signatures differ.
pub fn prove_equivalent(a: &Mig, b: &Mig, conflict_budget: Option<u64>) -> CecResult {
    assert_eq!(a.num_inputs(), b.num_inputs(), "input counts differ");
    assert_eq!(a.num_outputs(), b.num_outputs(), "output counts differ");
    let _span = obs::trace::span("cec:sat");
    obs::metrics::add(obs::Metric::CecSatCalls, 1);
    let _timer = obs::metrics::timer(obs::Metric::CecSatNs);
    let (verdict, stats) = sweep::prove(a, b, conflict_budget);
    obs::metrics::add(obs::Metric::CecMerges, stats.merges);
    obs::metrics::add(obs::Metric::CecCutMerges, stats.cut_merges);
    obs::metrics::add(obs::Metric::CecSolverCalls, stats.solver_calls);
    obs::metrics::add(obs::Metric::CecConflicts, stats.conflicts);
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use mig::Signal;
    use sat::{Lit, SatResult, Solver};

    /// The reference oracle: one SAT miter over both whole networks (the
    /// XOR of every output pair, OR-ed together, asserted satisfiable).
    fn miter(a: &Mig, b: &Mig) -> CecResult {
        let mut solver = Solver::new();
        let inputs: Vec<Lit> = (0..a.num_inputs())
            .map(|_| solver.new_var().positive())
            .collect();
        let la = encode(a, &mut solver, &inputs);
        let lb = encode(b, &mut solver, &inputs);
        let mut xor_lits = Vec::with_capacity(a.num_outputs());
        for (oa, ob) in a.outputs().iter().zip(b.outputs()) {
            let x = lit_of(&la, *oa);
            let y = lit_of(&lb, *ob);
            let d = solver.new_var().positive();
            // d <-> x ^ y
            solver.add_clause(&[!d, x, y]);
            solver.add_clause(&[!d, !x, !y]);
            solver.add_clause(&[d, !x, y]);
            solver.add_clause(&[d, x, !y]);
            xor_lits.push(d);
        }
        solver.add_clause(&xor_lits);
        match solver.solve() {
            SatResult::Unsat => CecResult::Equivalent,
            SatResult::Unknown => CecResult::Unknown,
            SatResult::Sat => CecResult::Counterexample(
                inputs
                    .iter()
                    .map(|l| solver.model_lit(*l) == Some(true))
                    .collect(),
            ),
        }
    }

    /// Tseitin-encodes an MIG into `solver`, sharing the given input
    /// literals; returns one literal per node slot (plain polarity).
    fn encode(mig: &Mig, solver: &mut Solver, inputs: &[Lit]) -> Vec<Lit> {
        let f = solver.new_var().positive();
        solver.add_clause(&[!f]);
        let mut lit = vec![f; mig.num_nodes()];
        lit[1..=mig.num_inputs()].copy_from_slice(inputs);
        for g in mig.topo_gates() {
            let [a, b, c] = mig.fanins(g).map(|s| lit_of(&lit, s));
            let o = solver.new_var().positive();
            // o <-> maj(a, b, c)
            solver.add_clause(&[!a, !b, o]);
            solver.add_clause(&[!a, !c, o]);
            solver.add_clause(&[!b, !c, o]);
            solver.add_clause(&[a, b, !o]);
            solver.add_clause(&[a, c, !o]);
            solver.add_clause(&[b, c, !o]);
            lit[g as usize] = o;
        }
        lit
    }

    fn lit_of(lits: &[Lit], s: Signal) -> Lit {
        let l = lits[s.node() as usize];
        if s.is_complemented() {
            !l
        } else {
            l
        }
    }

    fn separates(a: &Mig, b: &Mig, cex: &[bool]) -> bool {
        a.evaluate(cex) != b.evaluate(cex)
    }

    /// A random MIG: `3..=12` inputs, up to 80 gates over earlier
    /// signals, 1 to 4 outputs.
    fn random_mig(rng: &mut testrand::Rng) -> Mig {
        let mut m = Mig::new(rng.range(3, 13));
        let mut signals: Vec<Signal> = m.inputs().collect();
        signals.push(Signal::ZERO);
        for _ in 0..rng.range(4, 81) {
            let [a, b, c] =
                [(); 3].map(|_| signals[rng.usize_below(signals.len())].complement_if(rng.bool()));
            signals.push(m.maj(a, b, c));
        }
        for _ in 0..rng.range(1, 5) {
            let pick = signals.len() - 1 - rng.usize_below(signals.len().min(12));
            m.add_output(signals[pick].complement_if(rng.bool()));
        }
        m
    }

    /// A copy of `m` with one fanin of one random gate complemented (an
    /// output when `m` has no gates).
    fn mutant(m: &Mig, rng: &mut testrand::Rng) -> Mig {
        let gates = m.topo_gates();
        let mut out = Mig::new(m.num_inputs());
        let mut map: Vec<Signal> = (0..m.num_nodes() as u32)
            .map(|v| Signal::new(v, false))
            .collect();
        let target = (!gates.is_empty()).then(|| gates[rng.usize_below(gates.len())]);
        let slot = rng.usize_below(3);
        for &g in &gates {
            let mut f = m
                .fanins(g)
                .map(|s| map[s.node() as usize].complement_if(s.is_complemented()));
            if Some(g) == target {
                f[slot] = !f[slot];
            }
            map[g as usize] = out.maj(f[0], f[1], f[2]);
        }
        for (i, o) in m.outputs().iter().enumerate() {
            let s = map[o.node() as usize].complement_if(o.is_complemented());
            out.add_output(s.complement_if(target.is_none() && i == 0));
        }
        out
    }

    #[test]
    fn sweep_agrees_with_exhaustive_simulation_and_the_miter() {
        let engine = fhash_engine();
        let mut rng = testrand::Rng::new(0xC0DE_CEC5);
        let (mut pairs, mut refuted, mut cut_merges) = (0, 0, 0);
        for case in 0..110 {
            let m = random_mig(&mut rng);
            let mut opt = m.clone();
            if case % 3 == 2 {
                migalg::optimize(&mut opt, 4, 1);
            } else {
                let v = fhash::Variant::ALL[rng.usize_below(fhash::Variant::ALL.len())];
                engine.pass(&mut opt, v, &mut None);
            }
            let broken = mutant(&opt, &mut rng);
            for other in [opt, broken] {
                pairs += 1;
                let exact = equivalent_exhaustive(&m, &other);
                let oracle = miter(&m, &other);
                let (verdict, stats) = sweep::prove(&m, &other, None);
                cut_merges += stats.cut_merges;
                match &verdict {
                    CecResult::Equivalent => {
                        assert!(exact, "case {case}: sweep proved a false pair");
                        assert_eq!(oracle, CecResult::Equivalent, "case {case}");
                    }
                    CecResult::Counterexample(cex) => {
                        refuted += 1;
                        assert!(!exact, "case {case}: sweep refuted a true pair");
                        assert!(separates(&m, &other, cex), "case {case}");
                        match &oracle {
                            CecResult::Counterexample(o) => {
                                assert!(separates(&m, &other, o), "case {case}")
                            }
                            o => panic!("case {case}: oracle says {o:?}"),
                        }
                    }
                    CecResult::Unknown => panic!("case {case}: unbudgeted sweep gave up"),
                }
            }
        }
        assert!(pairs >= 200);
        // The mutants must exercise the refutation path, not only proofs.
        assert!(
            refuted >= 50,
            "only {refuted} of {pairs} pairs were refuted"
        );
        // And the cut truth-table merges, not only SAT merges.
        assert!(cut_merges > 0, "no pair merged by a cut truth table");
    }

    #[test]
    fn summed_conflicts_stay_within_the_budget_and_repeat() {
        let m = benchgen::hypotenuse(8);
        let mut opt = m.clone();
        let engine = fhash_engine();
        engine.pass(&mut opt, fhash::Variant::TopDownFfrDepth, &mut None);
        migalg::optimize(&mut opt, 4, 1);
        engine.pass(&mut opt, fhash::Variant::BottomUp, &mut None);
        assert!(equivalent_random(&m, &opt, 16, 3));
        for budget in [0, 1, 100] {
            let (verdict, stats) = sweep::prove(&m, &opt, Some(budget));
            assert!(
                stats.conflicts <= budget,
                "budget {budget}: spent {} conflicts",
                stats.conflicts
            );
            assert!(!matches!(verdict, CecResult::Counterexample(_)));
            assert_eq!(sweep::prove(&m, &opt, Some(budget)), (verdict, stats));
        }
        // Every tested budget binds: a full proof needs more conflicts.
        let (verdict, full) = sweep::prove(&m, &opt, None);
        assert_eq!(verdict, CecResult::Equivalent);
        assert!(full.conflicts > 100, "only {} conflicts", full.conflicts);
    }

    #[test]
    fn deep_chain_is_proved_on_a_small_stack() {
        const DEPTH: usize = 100_000;
        const TAIL: usize = 8;
        let worker = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                // Chain gate i is <g x !y> over a pseudo-random input pair.
                // Both networks end in the AND of the chain and TAIL more
                // inputs, associated to the left in one and to the right in
                // the other. Those nine leaves do not fit a cut, so proving
                // the two ends equal takes a SAT check, which encodes the
                // whole chain below.
                let mut rng = testrand::Rng::new(7);
                let inputs = 32;
                let (mut a, mut b) = (Mig::new(inputs), Mig::new(inputs));
                let (mut ga, mut gb) = (a.input(0), b.input(0));
                for _ in 0..DEPTH {
                    let x = rng.usize_below(inputs);
                    let y = (x + 1 + rng.usize_below(inputs - 1)) % inputs;
                    ga = a.maj(ga, a.input(x), !a.input(y));
                    gb = b.maj(gb, b.input(x), !b.input(y));
                }
                for i in 0..TAIL {
                    ga = a.and(ga, a.input(i));
                }
                let mut tail = b.input(TAIL - 1);
                for i in (0..TAIL - 1).rev() {
                    tail = b.and(b.input(i), tail);
                }
                gb = b.and(gb, tail);
                a.add_output(ga);
                b.add_output(gb);
                (a.depth(), sweep::prove(&a, &b, None))
            })
            .expect("spawn the proof thread");
        let (depth, (verdict, stats)) = worker.join().expect("proof thread finished");
        assert!(depth as usize >= DEPTH);
        assert_eq!(verdict, CecResult::Equivalent);
        assert!(stats.merges >= 1);
    }

    #[test]
    fn wide_reassociation_needs_sat_and_a_mutant_is_refuted() {
        // AND of eight inputs, associated to the left and to the right:
        // the two ends meet only over more leaves than a cut holds.
        const WIDTH: usize = 8;
        let mut a = Mig::new(WIDTH);
        let mut left = a.input(0);
        for i in 1..WIDTH {
            left = a.and(left, a.input(i));
        }
        a.add_output(left);
        let right_tree = |flip: Option<usize>| {
            let mut b = Mig::new(WIDTH);
            let leaf = |b: &Mig, i: usize| b.input(i).complement_if(flip == Some(i));
            let mut right = leaf(&b, WIDTH - 1);
            for i in (0..WIDTH - 1).rev() {
                right = b.and(leaf(&b, i), right);
            }
            b.add_output(right);
            b
        };
        let (verdict, stats) = sweep::prove(&a, &right_tree(None), None);
        assert_eq!(verdict, CecResult::Equivalent);
        assert!(stats.merges >= 1, "no SAT merge: {stats:?}");
        let broken = right_tree(Some(3));
        match sweep::prove(&a, &broken, None).0 {
            CecResult::Counterexample(cex) => assert!(separates(&a, &broken, &cex)),
            other => panic!("expected a counterexample, got {other:?}"),
        }
    }

    #[test]
    fn three_leaf_pair_merges_by_its_cut() {
        // Majority of three inputs as an OR of ANDs, and as one gate: a
        // cut of the three inputs decides the pair with no SAT call.
        let mut a = Mig::new(3);
        let (x, y, z) = (a.input(0), a.input(1), a.input(2));
        let (xy, xz, yz) = (a.and(x, y), a.and(x, z), a.and(y, z));
        let t = a.or(xy, xz);
        let o = a.or(t, yz);
        a.add_output(o);
        let mut b = Mig::new(3);
        let (x, y, z) = (b.input(0), b.input(1), b.input(2));
        let o = b.maj(x, y, z);
        b.add_output(o);
        let (verdict, stats) = sweep::prove(&a, &b, None);
        assert_eq!(verdict, CecResult::Equivalent);
        assert_eq!((stats.cut_merges, stats.solver_calls), (1, 0), "{stats:?}");
    }

    fn xor3_pair() -> (Mig, Mig) {
        // Same function, two structures.
        let mut a = Mig::new(3);
        let (x, y, z) = (a.input(0), a.input(1), a.input(2));
        let t = a.xor(x, y);
        let o = a.xor(t, z);
        a.add_output(o);
        let mut b = Mig::new(3);
        let (x, y, z) = (b.input(0), b.input(1), b.input(2));
        let (s, _) = b.full_adder(x, y, z);
        b.add_output(s);
        (a, b)
    }

    #[test]
    fn equivalent_structures_pass_all_checks() {
        let (a, b) = xor3_pair();
        assert!(equivalent_exhaustive(&a, &b));
        assert!(equivalent_random(&a, &b, 4, 42));
        assert_eq!(prove_equivalent(&a, &b, None), CecResult::Equivalent);
    }

    #[test]
    fn inequivalent_structures_are_caught() {
        let (a, mut b) = xor3_pair();
        // Flip one output polarity.
        let o = b.outputs()[0];
        b.set_output(0, !o);
        assert!(!equivalent_exhaustive(&a, &b));
        assert!(!equivalent_random(&a, &b, 4, 42));
        match prove_equivalent(&a, &b, None) {
            CecResult::Counterexample(cex) => {
                assert_eq!(cex.len(), 3);
                assert_ne!(a.evaluate(&cex), b.evaluate(&cex));
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn subtle_mismatch_found_by_sat() {
        let mut a = Mig::new(4);
        let ins: Vec<_> = a.inputs().collect();
        let t1 = a.and(ins[0], ins[1]);
        let t2 = a.and(t1, ins[2]);
        let o = a.or(t2, ins[3]);
        a.add_output(o);
        let mut b = Mig::new(4);
        let ins: Vec<_> = b.inputs().collect();
        let t1 = b.and(ins[0], ins[1]);
        let t2 = b.and(t1, ins[3]); // swapped
        let o = b.or(t2, ins[2]);
        b.add_output(o);
        match prove_equivalent(&a, &b, None) {
            CecResult::Counterexample(cex) => {
                assert_ne!(a.evaluate(&cex), b.evaluate(&cex));
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn budget_zero_reports_unknown_on_hard_instances() {
        let (a, b) = xor3_pair();
        let r = prove_equivalent(&a, &b, Some(0));
        assert!(matches!(r, CecResult::Unknown | CecResult::Equivalent));
    }

    #[test]
    fn multi_output_miters() {
        let mut a = Mig::new(2);
        let (x, y) = (a.input(0), a.input(1));
        let g1 = a.and(x, y);
        let g2 = a.or(x, y);
        a.add_output(g1);
        a.add_output(g2);
        // b computes the same two functions via majority identities.
        let mut b = Mig::new(2);
        let (x, y) = (b.input(0), b.input(1));
        let g1 = b.maj(Signal::ZERO, x, y);
        let g2 = b.maj(Signal::ONE, y, x);
        b.add_output(g1);
        b.add_output(g2);
        assert_eq!(prove_equivalent(&a, &b, None), CecResult::Equivalent);
        // And a mismatch limited to the second output.
        let o = b.outputs()[1];
        b.set_output(1, !o);
        assert!(matches!(
            prove_equivalent(&a, &b, None),
            CecResult::Counterexample(_)
        ));
    }

    #[test]
    fn random_simulation_agrees_with_exhaustive_on_samples() {
        let (a, b) = xor3_pair();
        for seed in 0..8 {
            assert!(equivalent_random(&a, &b, 2, seed));
        }
    }

    #[test]
    fn optimized_benchmark_proved_equivalent() {
        // End-to-end: functional hashing on a scaled benchmark, proved by
        // SAT sweeping (more inputs than exhaustive checking allows).
        let m = benchgen_adder_like();
        let e = fhash_engine();
        let mut opt = m.clone();
        e.pass(&mut opt, fhash::Variant::BottomUpFfr, &mut None);
        assert!(equivalent_random(&m, &opt, 8, 7));
        assert_eq!(prove_equivalent(&m, &opt, None), CecResult::Equivalent);
    }

    fn fhash_engine() -> fhash::FunctionalHashing {
        fhash::FunctionalHashing::with_default_database()
    }

    fn benchgen_adder_like() -> Mig {
        // A 10-bit adder built here to avoid a dev-dependency cycle.
        let w = 10;
        let mut m = Mig::new(2 * w);
        let mut carry = Signal::ZERO;
        for i in 0..w {
            let a = m.input(i);
            let b = m.input(w + i);
            let (s, c) = m.full_adder(a, b, carry);
            m.add_output(s);
            carry = c;
        }
        m.add_output(carry);
        m
    }
}

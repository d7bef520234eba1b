//! Property tests of the in-place passes over random MIGs: convergence
//! never worse than one pass, managed-network invariants after every
//! pass, and SAT-proved CEC spot checks on instances too wide for
//! exhaustive simulation. The differential tests against the rebuild
//! reference engines live next to those engines, in the crate's unit
//! tests.
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
fn convergence_never_worse_than_single_pass() {
    let mut rng = Rng::new(0x1F_ACE0_0003);
    for case in 0..12 {
        let num_inputs = rng.range(2, 7);
        let steps = rng.range(5, 60);
        let m = random_build(&mut rng, num_inputs, steps, 2);
        let want = m.output_truth_tables();
        for v in [Variant::TopDown, Variant::BottomUp] {
            let mut single = m.clone();
            engine().pass(&mut single, v, &mut None, 1);
            let mut conv = m.clone();
            let (_, rounds) = engine().converge(&mut conv, v, 1);
            assert!((1..=50).contains(&rounds), "case {case}: {rounds} rounds");
            assert_eq!(
                conv.output_truth_tables(),
                want,
                "case {case} variant {v}: convergence changed the function"
            );
            assert!(
                conv.num_gates() <= single.num_gates(),
                "case {case} variant {v}: convergence worse than one pass ({} > {})",
                conv.num_gates(),
                single.num_gates()
            );
        }
    }
}

#[test]
fn wide_adder_proved_equivalent_by_sat() {
    // 20 inputs — beyond exhaustive simulation, so the check is a SAT
    // proof over the workspace CDCL solver.
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
    for v in [Variant::TopDown, Variant::BottomUp, Variant::BottomUpFfr] {
        let mut opt = m.clone();
        engine().converge(&mut opt, v, 1);
        assert_eq!(
            cec::prove_equivalent(&m, &opt, None),
            cec::CecResult::Equivalent,
            "variant {v}: SAT proof refuted the in-place convergence result"
        );
    }
}

#[test]
fn inplace_results_pass_managed_network_audit() {
    // The replacement loop audits invariants after every substitution in
    // debug builds; this re-audits the final graphs explicitly so the
    // check also runs under `--release` test runs.
    let mut rng = Rng::new(0x1F_ACE0_0004);
    for _ in 0..8 {
        let ni = rng.range(2, 7);
        let steps = rng.range(5, 50);
        let m = random_build(&mut rng, ni, steps, 2);
        for v in Variant::ALL {
            let mut opt = m.clone();
            engine().pass(&mut opt, v, &mut None, 1);
            opt.debug_check();
            // No dangling gates survive the pass's sweep: every gate is
            // referenced, transitively, from some output.
            let live: std::collections::HashSet<_> = {
                let mut seen = std::collections::HashSet::new();
                let mut stack: Vec<_> = opt.outputs().iter().map(|o| o.node()).collect();
                while let Some(n) = stack.pop() {
                    if opt.is_terminal(n) || !seen.insert(n) {
                        continue;
                    }
                    for s in opt.fanins(n) {
                        stack.push(s.node());
                    }
                }
                seen
            };
            for g in opt.gates() {
                assert!(live.contains(&g), "gate {g} dangling after sweep");
            }
        }
    }
}

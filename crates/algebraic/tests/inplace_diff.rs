//! Properties of the in-place algebraic passes over random MIGs:
//! truth-table preservation, the never-worse guarantees of the guarded
//! sweeps/scripts, and determinism + quality of the sharded drivers. The
//! differential tests against the rebuild reference live next to that
//! reference, in the crate's unit tests.
//!
//! (Randomized with the workspace's deterministic `testrand` generator —
//! the container has no network access for a `proptest` dependency.)

use mig::{Mig, NodeId, Signal};
use testrand::Rng;

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
        sigs.push(m.maj(a, b, c));
    }
    for k in 0..outs {
        let s = sigs[sigs.len() - 1 - (k % sigs.len())];
        m.add_output(s.complement_if(k % 2 == 1));
    }
    m
}

type Fingerprint = (usize, Vec<(NodeId, [Signal; 3])>, Vec<Signal>);

fn fingerprint(m: &Mig) -> Fingerprint {
    let gates = m.gates().map(|g| (g, m.fanins(g))).collect();
    (m.num_nodes(), gates, m.outputs().to_vec())
}

#[test]
fn inplace_passes_preserve_function_and_never_worsen() {
    let mut rng = Rng::new(0xA16_0001);
    for case in 0..24 {
        let num_inputs = rng.range(3, 8);
        let steps = rng.range(10, 200);
        let outs = rng.range(1, 4);
        let m = random_build(&mut rng, num_inputs, steps, outs);
        let want = m.output_truth_tables();
        let base = m.cleanup();

        // Size sweep: (gates, depth)-guarded.
        let mut s = base.clone();
        migalg::size_rewrite(&mut s);
        assert_eq!(s.output_truth_tables(), want, "case {case}: size sweep");
        assert!(
            migalg::script_metric(&s) <= migalg::script_metric(&base),
            "case {case}: size sweep worsened ({:?} > {:?})",
            migalg::script_metric(&s),
            migalg::script_metric(&base)
        );

        // Depth sweep: depth-monotone.
        let mut d = base.clone();
        migalg::depth_rewrite(&mut d);
        assert_eq!(d.output_truth_tables(), want, "case {case}: depth sweep");
        assert!(
            d.depth() <= base.depth(),
            "case {case}: depth sweep raised depth ({} > {})",
            d.depth(),
            base.depth()
        );

        // The full script: lexicographically never worse than the input
        // and function-preserving.
        let mut opt = m.cleanup();
        migalg::optimize(&mut opt, 6, 1);
        assert_eq!(opt.output_truth_tables(), want, "case {case}: script");
        assert!(
            migalg::script_metric(&opt) <= migalg::script_metric(&base),
            "case {case}: script worsened"
        );
    }
}

#[test]
fn converge_loops_are_fixpoints_and_depth_monotone() {
    let mut rng = Rng::new(0xA16_0002);
    for case in 0..12 {
        let num_inputs = rng.range(3, 8);
        let steps = rng.range(20, 150);
        let m = random_build(&mut rng, num_inputs, steps, 2);
        let want = m.output_truth_tables();
        let base = m.cleanup();

        let mut s = base.clone();
        let (_, s_rounds) = migalg::size_converge(&mut s, 1);
        assert!(s_rounds < 50, "case {case}: size converge ran away");
        assert_eq!(s.output_truth_tables(), want, "case {case}");
        assert!(migalg::script_metric(&s) <= migalg::script_metric(&base));
        // Fixpoint: a second convergence run cannot improve the metric
        // (lateral restructuring may still shuffle equal-cost shapes).
        let metric = migalg::script_metric(&s);
        let (_, _) = migalg::size_converge(&mut s, 1);
        assert_eq!(
            migalg::script_metric(&s),
            metric,
            "case {case}: size fixpoint unstable"
        );

        let mut d = base.clone();
        let (_, d_rounds) = migalg::depth_converge(&mut d, 1);
        assert!(d_rounds < 50, "case {case}: depth converge ran away");
        assert_eq!(d.output_truth_tables(), want, "case {case}");
        assert!(
            d.depth() <= base.depth(),
            "case {case}: depth converge raised depth"
        );
    }
}

#[test]
fn sharded_algebraic_is_deterministic_and_never_worse_than_serial() {
    let mut rng = Rng::new(0xA16_0003);
    for case in 0..8 {
        let num_inputs = rng.range(3, 8);
        // Odd cases are large enough to trigger genuine multi-region
        // sharding; even cases stay in the degenerate serial regime.
        let steps = if case % 2 == 0 {
            rng.range(10, 60)
        } else {
            rng.range(150, 350)
        };
        let m = random_build(&mut rng, num_inputs, steps, 2);
        let want = m.output_truth_tables();
        let mut serial = m.cleanup();
        migalg::optimize(&mut serial, 6, 1);
        for threads in [2usize, 4] {
            let mut sharded = m.cleanup();
            migalg::optimize(&mut sharded, 6, threads);
            assert_eq!(
                sharded.output_truth_tables(),
                want,
                "case {case} @{threads}: function changed"
            );
            assert!(
                migalg::script_metric(&sharded) <= migalg::script_metric(&serial),
                "case {case} @{threads}: sharded worse than serial ({:?} > {:?})",
                migalg::script_metric(&sharded),
                migalg::script_metric(&serial)
            );
            let mut again = m.cleanup();
            migalg::optimize(&mut again, 6, threads);
            assert_eq!(
                fingerprint(&sharded),
                fingerprint(&again),
                "case {case} @{threads}: nondeterministic netlist"
            );
            sharded.debug_check();
        }
        // Sharded converge passes: function + depth monotonicity.
        for threads in [2usize, 4] {
            let base = m.cleanup();
            let mut d = base.clone();
            migalg::depth_converge(&mut d, threads);
            assert_eq!(d.output_truth_tables(), want, "case {case} @{threads}");
            assert!(
                d.depth() <= base.depth(),
                "case {case} @{threads}: sharded depth script not monotone"
            );
            let mut s = base.clone();
            migalg::size_converge(&mut s, threads);
            assert_eq!(s.output_truth_tables(), want, "case {case} @{threads}");
            assert!(migalg::script_metric(&s) <= migalg::script_metric(&base));
        }
    }
}

#[test]
fn wide_adder_script_proved_equivalent_by_sat() {
    // 24 inputs — beyond exhaustive simulation; the check is a SAT
    // proof over the workspace CDCL solver.
    let w = 12;
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
    let base = m.cleanup();

    let mut opt = base.clone();
    let stats = migalg::optimize(&mut opt, 8, 1);
    let _ = stats;
    assert_eq!(
        cec::prove_equivalent(&base, &opt, None),
        cec::CecResult::Equivalent,
        "serial script refuted by the SAT proof"
    );

    let mut depth_opt = base.clone();
    let (dstats, _) = migalg::depth_converge(&mut depth_opt, 1);
    assert!(dstats.total() > 0, "ripple carry chain left untouched");
    assert!(depth_opt.depth() < base.depth(), "no depth recovered");
    assert_eq!(
        cec::prove_equivalent(&base, &depth_opt, None),
        cec::CecResult::Equivalent,
        "depth script refuted by the SAT proof"
    );

    let mut sharded = base.clone();
    migalg::optimize(&mut sharded, 8, 4);
    assert_eq!(
        cec::prove_equivalent(&base, &sharded, None),
        cec::CecResult::Equivalent,
        "sharded script refuted by the SAT proof"
    );
}

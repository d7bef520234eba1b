//! Properties of the sharded propose/commit engine: functional
//! equivalence with the serial in-place engine, gate counts no worse
//! than serial, one bit-identical netlist per input at every thread
//! count, and a SAT-proved spot check on an instance too wide for
//! exhaustive simulation.
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
fn sharded_is_equivalent_and_no_worse_than_serial() {
    let mut rng = Rng::new(0x5AAD_0001);
    for case in 0..16 {
        let num_inputs = rng.range(2, 7);
        // Even cases stay in the degenerate single-shard regime; odd
        // cases are large enough to trigger genuine multi-region
        // sharding (propose/commit with conflicts).
        let steps = if case % 2 == 0 {
            rng.range(10, 80)
        } else {
            rng.range(150, 400)
        };
        let outs = rng.range(1, 4);
        let m = random_build(&mut rng, num_inputs, steps, outs);
        let want = m.output_truth_tables();
        for v in Variant::ALL {
            let mut serial = m.clone();
            engine().pass(&mut serial, v, &mut None, 1);
            for threads in [1usize, 2, 4] {
                let mut sharded = m.clone();
                engine().converge(&mut sharded, v, threads);
                assert_eq!(
                    sharded.output_truth_tables(),
                    want,
                    "case {case} variant {v} @{threads}: function changed"
                );
                assert!(
                    sharded.num_gates() <= serial.num_gates(),
                    "case {case} variant {v} @{threads}: sharded larger than serial ({} > {})",
                    sharded.num_gates(),
                    serial.num_gates()
                );
                sharded.debug_check();
            }
        }
    }
}

#[test]
fn sharded_is_one_netlist_at_every_thread_count() {
    let mut rng = Rng::new(0x5AAD_0002);
    for case in 0..8 {
        let num_inputs = rng.range(2, 7);
        let steps = rng.range(20, 120);
        let m = random_build(&mut rng, num_inputs, steps, 2);
        for v in Variant::ALL {
            // The scheduler (`fhash!:V@N`) and the single pass
            // (`fhash:V@N`) each give one netlist: @1 pins the
            // single-worker case, and @8 and @16 oversubscribe the
            // machine's cores, so propose-worker interleavings vary
            // maximally between runs.
            let mut at_one = None;
            for threads in [1usize, 2, 4, 8, 16] {
                let mut conv = m.clone();
                engine().converge(&mut conv, v, threads);
                let mut again = m.clone();
                engine().converge(&mut again, v, threads);
                assert_eq!(
                    conv.fingerprint(),
                    again.fingerprint(),
                    "case {case} variant {v} @{threads}: nondeterministic netlist"
                );
                let mut pass = m.clone();
                engine().pass(&mut pass, v, &mut None, threads);
                let got = (conv.fingerprint(), pass.fingerprint());
                let want = *at_one.get_or_insert(got);
                assert_eq!(
                    got, want,
                    "case {case} variant {v} @{threads}: netlist differs from @1"
                );
            }
        }
    }
}

#[test]
fn converge_chain_is_bit_identical_per_thread_count() {
    // The chain-tower workload behind the sched/chain512 bench rows,
    // scaled down: run the event-driven convergence driver to fixpoint
    // at every thread count and require the identical netlist.
    let mut m = Mig::new(6 * (3 + 2 * 64));
    let mut next = 0usize;
    let mut fresh = |m: &Mig| {
        let s = m.input(next);
        next += 1;
        s
    };
    let mut tops = Vec::new();
    for _ in 0..6 {
        let (a, b, c) = (fresh(&m), fresh(&m), fresh(&m));
        let x = m.xor(a, b);
        let mut acc = m.xor(x, c);
        for _ in 0..64 {
            let (p, q) = (fresh(&m), fresh(&m));
            acc = m.maj(acc, p, q);
        }
        tops.push(acc);
    }
    let mut top = m.maj(tops[0], tops[1], tops[2]);
    top = m.maj(top, tops[3], tops[4]);
    top = m.maj(top, tops[5], Signal::ZERO);
    m.add_output(top);

    let mut reference = m.clone();
    let (stats, _) = engine().converge(&mut reference, Variant::TopDown, 1);
    assert!(stats.replacements > 0);
    let want = reference.fingerprint();
    for threads in [2usize, 4, 8, 16] {
        let mut opt = m.clone();
        engine().converge(&mut opt, Variant::TopDown, threads);
        assert_eq!(opt.fingerprint(), want, "@{threads}: diverged from @1");
    }
}

#[test]
fn stress_random_seeds_under_contention() {
    // Dense random graphs whose proposal footprints collide constantly,
    // @8 workers on however few cores the machine has: function,
    // structural invariants, the ≤-serial guarantee and run-to-run
    // determinism must hold for every seed.
    for seed in 0..12u64 {
        let mut rng = Rng::new(0x5AAD_1000 + seed);
        let num_inputs = rng.range(3, 6);
        let steps = rng.range(200, 500);
        let m = random_build(&mut rng, num_inputs, steps, 3);
        let want = m.output_truth_tables();
        let mut serial = m.clone();
        engine().pass(&mut serial, Variant::TopDown, &mut None, 1);
        let mut opt = m.clone();
        engine().converge(&mut opt, Variant::TopDown, 8);
        assert_eq!(
            opt.output_truth_tables(),
            want,
            "seed {seed}: function changed"
        );
        assert!(
            opt.num_gates() <= serial.num_gates(),
            "seed {seed}: sharded larger than serial ({} > {})",
            opt.num_gates(),
            serial.num_gates()
        );
        opt.debug_check();
        let mut again = m.clone();
        engine().converge(&mut again, Variant::TopDown, 8);
        assert_eq!(
            opt.fingerprint(),
            again.fingerprint(),
            "seed {seed}: nondeterministic @8"
        );
    }
}

#[test]
fn sharded_wide_adder_proved_equivalent_by_sat() {
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
    // Make it worth rewriting: round-trip through AND gates so the
    // majority structure is hidden.
    let m = aigish(&m);
    for v in [Variant::TopDown, Variant::TopDownFfr, Variant::BottomUpFfr] {
        let mut opt = m.clone();
        let (stats, _) = engine().converge(&mut opt, v, 4);
        assert!(stats.replacements > 0, "variant {v}: nothing rewritten");
        assert_eq!(
            cec::prove_equivalent(&m, &opt, None),
            cec::CecResult::Equivalent,
            "variant {v}: SAT proof refuted the sharded result"
        );
        assert!(opt.num_gates() <= m.num_gates(), "variant {v}");
    }
}

/// Re-expresses every majority gate through and/or gates (3 gates per
/// majority), as an AIG round-trip would, to create rewriting slack.
fn aigish(m: &Mig) -> Mig {
    let mut out = Mig::new(m.num_inputs());
    let mut map: Vec<Option<Signal>> = vec![None; m.num_nodes()];
    map[0] = Some(Signal::ZERO);
    for i in 0..m.num_inputs() {
        map[i + 1] = Some(out.input(i));
    }
    for g in m.topo_gates() {
        let [a, b, c] = m.fanins(g);
        let get = |s: Signal, map: &Vec<Option<Signal>>| {
            map[s.node() as usize]
                .expect("fanin mapped")
                .complement_if(s.is_complemented())
        };
        let (sa, sb, sc) = (get(a, &map), get(b, &map), get(c, &map));
        // <abc> = ab | ac | bc = ab | c(a|b)
        let ab = out.and(sa, sb);
        let aob = out.or(sa, sb);
        let cab = out.and(sc, aob);
        map[g as usize] = Some(out.or(ab, cab));
    }
    for o in m.outputs() {
        let s = map[o.node() as usize]
            .expect("output mapped")
            .complement_if(o.is_complemented());
        out.add_output(s);
    }
    out
}

//! The rebuild-style reference passes and the differential tests that
//! hold the in-place passes against them. Test-only: production runs the
//! in-place passes ([`crate::size_rewrite`], [`crate::depth_rewrite`],
//! [`crate::optimize`]).

use crate::{script_metric, AlgStats};
use mig::{Mig, Signal};

/// One round of size-oriented rewriting, rebuild-style: applies `Ω.D`
/// right-to-left (`<<xyu><xyv>z> -> <xy<uvz>>`) wherever two fanins of a
/// gate share two operands, and rebuilds with structural hashing (which
/// applies `Ω.M`). The differential-test reference for
/// [`crate::size_rewrite`].
pub(crate) fn size_rewrite_rebuild(mig: &Mig) -> (Mig, AlgStats) {
    let mut out = Mig::new(mig.num_inputs());
    let mut stats = AlgStats::default();
    let mut map: Vec<Option<Signal>> = vec![None; mig.num_nodes()];
    map[0] = Some(Signal::ZERO);
    for i in 0..mig.num_inputs() {
        map[i + 1] = Some(out.input(i));
    }
    for g in mig.topo_gates() {
        let [a, b, c] = mig.fanins(g);
        let m = |s: Signal, map: &Vec<Option<Signal>>| {
            map[s.node() as usize]
                .expect("topological order")
                .complement_if(s.is_complemented())
        };
        let (sa, sb, sc) = (m(a, &map), m(b, &map), m(c, &map));
        let sig = maj_distrib_rl(&mut out, sa, sb, sc, &mut stats);
        map[g as usize] = Some(sig);
    }
    for o in mig.outputs() {
        let s = map[o.node() as usize]
            .expect("outputs mapped")
            .complement_if(o.is_complemented());
        out.add_output(s);
    }
    (out.cleanup(), stats)
}

/// Creates `<a b c>` in `out`, first trying the size-saving `Ω.D` R→L
/// pattern on any pair of gate operands sharing two operands.
fn maj_distrib_rl(out: &mut Mig, a: Signal, b: Signal, c: Signal, stats: &mut AlgStats) -> Signal {
    // Look for <G1 G2 z> with G1 = <x y u>, G2 = <x y v> (plain-polarity
    // gates sharing exactly two operands): rewrite to <x y <u v z>>.
    let ops = [a, b, c];
    for i in 0..3 {
        for j in 0..3 {
            if i == j {
                continue;
            }
            let (g1, g2) = (ops[i], ops[j]);
            let z = ops[3 - i - j];
            if g1.is_complemented() || g2.is_complemented() {
                continue;
            }
            if !out.is_gate(g1.node()) || !out.is_gate(g2.node()) {
                continue;
            }
            let f1 = out.fanins(g1.node());
            let f2 = out.fanins(g2.node());
            let shared: Vec<Signal> = f1.iter().copied().filter(|s| f2.contains(s)).collect();
            if shared.len() == 2 {
                let u = *f1.iter().find(|s| !shared.contains(s)).expect("third");
                let v = *f2.iter().find(|s| !shared.contains(s)).expect("third");
                stats.merges += 1;
                let inner = out.maj(u, v, z);
                return out.maj(shared[0], shared[1], inner);
            }
        }
    }
    out.maj(a, b, c)
}

/// One round of depth-oriented rewriting, rebuild-style: on every
/// critical gate, tries `Ω.A` associativity swaps and `Ω.D` L→R
/// distributivity to pull the latest-arriving operand one level closer
/// to the output (the depth script of paper ref \[3\]). The
/// differential-test reference for [`crate::depth_rewrite`].
pub(crate) fn depth_rewrite_rebuild(mig: &Mig) -> (Mig, AlgStats) {
    let levels = mig.levels();
    let mut out = Mig::new(mig.num_inputs());
    let mut stats = AlgStats::default();
    let mut map: Vec<Option<Signal>> = vec![None; mig.num_nodes()];
    map[0] = Some(Signal::ZERO);
    for i in 0..mig.num_inputs() {
        map[i + 1] = Some(out.input(i));
    }
    for g in mig.topo_gates() {
        let [a, b, c] = mig.fanins(g);
        // Identify the unique critical operand in the *old* graph.
        let ops_old = [a, b, c];
        let maxl = ops_old
            .iter()
            .map(|s| levels[s.node() as usize])
            .max()
            .expect("three operands");
        let critical: Vec<usize> = (0..3)
            .filter(|&i| levels[ops_old[i].node() as usize] == maxl)
            .collect();
        let m = |s: Signal, map: &Vec<Option<Signal>>| {
            map[s.node() as usize]
                .expect("topological order")
                .complement_if(s.is_complemented())
        };
        let mut result: Option<Signal> = None;
        if critical.len() == 1 && mig.is_gate(ops_old[critical[0]].node()) && maxl >= 2 {
            let ci = critical[0];
            let inner_old = ops_old[ci];
            let outer: Vec<Signal> = (0..3)
                .filter(|&i| i != ci)
                .map(|i| m(ops_old[i], &map))
                .collect();
            let inner_f = mig.fanins(inner_old.node());
            let inner_ops: Vec<Signal> = inner_f.iter().map(|&s| m(s, &map)).collect();
            // Find the critical grandchild (deepest operand of the inner
            // gate) in the rebuilt graph, using the incrementally
            // maintained levels of the graph under construction.
            let zi = (0..3)
                .max_by_key(|&i| out.level(inner_ops[i].node()))
                .expect("three operands");
            let z = inner_ops[zi];
            let rest: Vec<Signal> = (0..3).filter(|&i| i != zi).map(|i| inner_ops[i]).collect();
            let z_lvl = out.level(z.node());
            let outer_lvls: Vec<u32> = outer.iter().map(|&s| out.level(s.node())).collect();

            // Ω.A: if the inner gate (plain polarity) shares an operand u
            // with the outer gate, swap z with the other outer operand x
            // when that flattens the path: <x u <y u z>> = <z u <y u x>>.
            if !inner_old.is_complemented() && result.is_none() {
                for (ui, &u) in outer.iter().enumerate() {
                    if rest.contains(&u) {
                        let x = outer[1 - ui];
                        let y = *rest.iter().find(|&&s| s != u).unwrap_or(&rest[0]);
                        let x_lvl = out.level(x.node());
                        if x_lvl + 1 < z_lvl {
                            let inner_new = out.maj(y, u, x);
                            result = Some(out.maj(z, u, inner_new));
                            stats.assoc_moves += 1;
                        }
                        break;
                    }
                }
            }
            // Ω.D L→R: <x y <u v z>> = <<x y u> <x y v> z> when both outer
            // operands and both non-critical inner operands arrive early.
            if result.is_none() && !inner_old.is_complemented() {
                let early = outer_lvls.iter().all(|&l| l + 1 < z_lvl)
                    && rest.iter().all(|&s| out.level(s.node()) + 1 < z_lvl);
                if early {
                    let g1 = out.maj(outer[0], outer[1], rest[0]);
                    let g2 = out.maj(outer[0], outer[1], rest[1]);
                    result = Some(out.maj(g1, g2, z));
                    stats.distrib_moves += 1;
                }
            }
        }
        let sig = result.unwrap_or_else(|| {
            let (sa, sb, sc) = (m(a, &map), m(b, &map), m(c, &map));
            out.maj(sa, sb, sc)
        });
        map[g as usize] = Some(sig);
    }
    for o in mig.outputs() {
        let s = map[o.node() as usize]
            .expect("outputs mapped")
            .complement_if(o.is_complemented());
        out.add_output(s);
    }
    (out.cleanup(), stats)
}

/// The rebuild-style optimization script: alternating rebuild size and
/// depth rounds under the shared [`script_metric`] acceptance. The
/// differential-test reference for [`crate::optimize`].
pub(crate) fn optimize_rebuild(mig: &Mig, max_rounds: usize) -> Mig {
    let mut best = mig.cleanup();
    for _ in 0..max_rounds {
        let (after_size, _) = size_rewrite_rebuild(&best);
        let (after_depth, _) = depth_rewrite_rebuild(&after_size);
        let candidate = if script_metric(&after_depth) <= script_metric(&after_size) {
            after_depth
        } else {
            after_size
        };
        if script_metric(&candidate) >= script_metric(&best) {
            break;
        }
        best = candidate;
    }
    best
}

mod tests {
    use super::*;
    use testrand::Rng;

    fn benchmarks_dir() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks")
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
            sigs.push(m.maj(a, b, c));
        }
        for k in 0..outs {
            let s = sigs[sigs.len() - 1 - (k % sigs.len())];
            m.add_output(s.complement_if(k % 2 == 1));
        }
        m
    }

    #[test]
    fn rebuild_script_preserves_function_on_random_migs() {
        // The random cases of the in-place passes' property test
        // (`inplace_passes_preserve_function_and_never_worsen`, same seed
        // and draws): the rebuild reference script keeps the function.
        let mut rng = Rng::new(0xA16_0001);
        for case in 0..24 {
            let num_inputs = rng.range(3, 8);
            let steps = rng.range(10, 200);
            let outs = rng.range(1, 4);
            let m = random_build(&mut rng, num_inputs, steps, outs);
            let rb = optimize_rebuild(&m, 6);
            assert_eq!(
                rb.output_truth_tables(),
                m.output_truth_tables(),
                "case {case}: rebuild script"
            );
        }
    }

    #[test]
    fn inplace_algebraic_acceptance_on_all_benchmarks() {
        // On every checked-in benchmark the in-place algebraic script is
        // CEC-equivalent to the input with a gate count no worse than the
        // rebuild reference script, and the in-place depth script reaches
        // a depth no worse than the iterated rebuild depth pass.
        for name in ["full_adder.aag", "adder8.aag", "mult4.aig", "adder4.blif"] {
            let m = io::read_mig_path(benchmarks_dir().join(name)).unwrap();
            let mut inplace = m.cleanup();
            crate::optimize(&mut inplace, 8);
            let rebuild = optimize_rebuild(&m, 8);
            assert!(
                inplace.num_gates() <= rebuild.num_gates(),
                "{name}: in-place script {} > rebuild {}",
                inplace.num_gates(),
                rebuild.num_gates()
            );
            assert_eq!(
                cec::prove_equivalent(&m, &inplace, None),
                cec::CecResult::Equivalent,
                "{name}: in-place script result not equivalent"
            );

            let mut depth_ip = m.cleanup();
            crate::depth_converge(&mut depth_ip);
            let mut depth_rb = m.cleanup();
            loop {
                let (next, _) = depth_rewrite_rebuild(&depth_rb);
                if next.depth() >= depth_rb.depth() {
                    break;
                }
                depth_rb = next;
            }
            assert!(
                depth_ip.depth() <= depth_rb.depth(),
                "{name}: in-place depth script {} > rebuild {}",
                depth_ip.depth(),
                depth_rb.depth()
            );
            assert_eq!(
                cec::prove_equivalent(&m, &depth_ip, None),
                cec::CecResult::Equivalent,
                "{name}: in-place depth script result not equivalent"
            );
        }
    }
}

//! AND-Inverter Graphs and DAG-aware rewriting — the baseline
//! representation the paper positions MIGs against (refs \[2\] and \[6\]).
//!
//! Provides a compact AIG with structural hashing ([`Aig`]), conversion
//! from MIGs, algebraic balancing (tree-height reduction, ref \[7\]) and a
//! DAG-aware 4-input cut rewriting pass in the style of Mishchenko et
//! al. (ref \[6\]) backed by the workspace's exact-synthesis engine with
//! AND2 gates.

use exact::{minimum_size, GateOp, Network, SynthesisConfig};
use mig::fxhash::FxHashMap;
use mig::{Mig, NodeId, Signal};
use std::collections::HashMap;

/// An AND-inverter graph. Signals reuse [`mig::Signal`] (node index +
/// complement bit); node 0 is constant 0, nodes `1..=n` are inputs.
#[derive(Debug, Clone)]
pub struct Aig {
    fanins: Vec<[Signal; 2]>,
    num_inputs: usize,
    outputs: Vec<Signal>,
    strash: FxHashMap<[Signal; 2], NodeId>,
}

impl Aig {
    /// Creates an AIG with `num_inputs` primary inputs.
    pub fn new(num_inputs: usize) -> Self {
        let mut fanins = Vec::with_capacity(num_inputs + 1);
        for _ in 0..=num_inputs {
            fanins.push([Signal::ZERO; 2]);
        }
        Aig {
            fanins,
            num_inputs,
            outputs: Vec::new(),
            strash: FxHashMap::default(),
        }
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of AND gates (the AIG size metric).
    pub fn num_gates(&self) -> usize {
        self.fanins.len() - 1 - self.num_inputs
    }

    /// The signal of primary input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_inputs`.
    pub fn input(&self, i: usize) -> Signal {
        assert!(i < self.num_inputs, "input {i} out of range");
        Signal::new((i + 1) as NodeId, false)
    }

    /// The primary outputs.
    pub fn outputs(&self) -> &[Signal] {
        &self.outputs
    }

    /// Appends a primary output.
    pub fn add_output(&mut self, s: Signal) {
        self.outputs.push(s);
    }

    /// Whether `n` is a gate node.
    pub fn is_gate(&self, n: NodeId) -> bool {
        (n as usize) > self.num_inputs && (n as usize) < self.fanins.len()
    }

    /// The fanins of gate `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a gate.
    pub fn fanins(&self, n: NodeId) -> [Signal; 2] {
        assert!(self.is_gate(n), "node {n} is not a gate");
        self.fanins[n as usize]
    }

    /// Gate ids in topological (index) order.
    pub fn gates(&self) -> impl Iterator<Item = NodeId> + '_ {
        (self.num_inputs as u32 + 1..self.fanins.len() as u32).map(|n| n as NodeId)
    }

    /// Creates (or reuses) the AND of two signals, with constant and
    /// idempotence simplifications.
    pub fn and(&mut self, a: Signal, b: Signal) -> Signal {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if a == Signal::ZERO {
            return Signal::ZERO;
        }
        if a == Signal::ONE {
            return b;
        }
        if a == b {
            return a;
        }
        if a.node() == b.node() {
            return Signal::ZERO; // a & !a
        }
        let key = [a, b];
        if let Some(&n) = self.strash.get(&key) {
            return Signal::new(n, false);
        }
        let n = self.fanins.len() as NodeId;
        self.fanins.push(key);
        self.strash.insert(key, n);
        Signal::new(n, false)
    }

    /// Disjunction via DeMorgan.
    pub fn or(&mut self, a: Signal, b: Signal) -> Signal {
        let n = self.and(!a, !b);
        !n
    }

    /// Levels per node (inputs 0).
    pub fn levels(&self) -> Vec<u32> {
        let mut lv = vec![0u32; self.fanins.len()];
        for g in self.gates() {
            let f = self.fanins[g as usize];
            lv[g as usize] = 1 + f.iter().map(|s| lv[s.node() as usize]).max().unwrap_or(0);
        }
        lv
    }

    /// Depth: maximum output level.
    pub fn depth(&self) -> u32 {
        let lv = self.levels();
        self.outputs
            .iter()
            .map(|s| lv[s.node() as usize])
            .max()
            .unwrap_or(0)
    }

    /// Word-parallel simulation (one word per input).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != num_inputs`.
    pub fn simulate_words(&self, inputs: &[u64]) -> Vec<u64> {
        assert_eq!(inputs.len(), self.num_inputs, "one word per input");
        let mut val = vec![0u64; self.fanins.len()];
        for (i, &w) in inputs.iter().enumerate() {
            val[i + 1] = w;
        }
        for g in self.gates() {
            let [a, b] = self.fanins[g as usize];
            let va = val[a.node() as usize] ^ if a.is_complemented() { u64::MAX } else { 0 };
            let vb = val[b.node() as usize] ^ if b.is_complemented() { u64::MAX } else { 0 };
            val[g as usize] = va & vb;
        }
        val
    }

    /// Complete output truth tables (inputs <= 16).
    pub fn output_truth_tables(&self) -> Vec<truth::TruthTable> {
        let n = self.num_inputs;
        let ins: Vec<truth::TruthTable> = (0..n).map(|i| truth::TruthTable::var(n, i)).collect();
        let mut val = vec![truth::TruthTable::zeros(n); self.fanins.len()];
        for (i, t) in ins.iter().enumerate() {
            val[i + 1] = t.clone();
        }
        for g in self.gates() {
            let [a, b] = self.fanins[g as usize];
            let ta = if a.is_complemented() {
                !&val[a.node() as usize]
            } else {
                val[a.node() as usize].clone()
            };
            let tb = if b.is_complemented() {
                !&val[b.node() as usize]
            } else {
                val[b.node() as usize].clone()
            };
            val[g as usize] = &ta & &tb;
        }
        self.outputs
            .iter()
            .map(|s| {
                let t = val[s.node() as usize].clone();
                if s.is_complemented() {
                    !t
                } else {
                    t
                }
            })
            .collect()
    }

    /// Rebuilds the AIG keeping only the output cone.
    pub fn cleanup(&self) -> Aig {
        let mut out = Aig::new(self.num_inputs);
        let mut map: Vec<Option<Signal>> = vec![None; self.fanins.len()];
        map[0] = Some(Signal::ZERO);
        for i in 0..self.num_inputs {
            map[i + 1] = Some(out.input(i));
        }
        let mut live = vec![false; self.fanins.len()];
        let mut stack: Vec<NodeId> = self.outputs.iter().map(|s| s.node()).collect();
        while let Some(n) = stack.pop() {
            if live[n as usize] || (n as usize) <= self.num_inputs {
                continue;
            }
            live[n as usize] = true;
            for s in self.fanins[n as usize] {
                stack.push(s.node());
            }
        }
        for g in self.gates() {
            if !live[g as usize] {
                continue;
            }
            let [a, b] = self.fanins[g as usize];
            let sa = map[a.node() as usize]
                .expect("topo")
                .complement_if(a.is_complemented());
            let sb = map[b.node() as usize]
                .expect("topo")
                .complement_if(b.is_complemented());
            map[g as usize] = Some(out.and(sa, sb));
        }
        for o in &self.outputs {
            let s = map[o.node() as usize]
                .expect("output cone mapped")
                .complement_if(o.is_complemented());
            out.add_output(s);
        }
        out
    }
}

/// Converts an MIG into an AIG (`<abc> = ab | c(a|b)`, up to 4 ANDs per
/// majority gate before hashing).
pub fn from_mig(mig: &Mig) -> Aig {
    let mut aig = Aig::new(mig.num_inputs());
    let mut map: Vec<Option<Signal>> = vec![None; mig.num_nodes()];
    map[0] = Some(Signal::ZERO);
    for i in 0..mig.num_inputs() {
        map[i + 1] = Some(aig.input(i));
    }
    for g in mig.topo_gates() {
        let [a, b, c] = mig.fanins(g);
        let m = |s: Signal, map: &Vec<Option<Signal>>| {
            map[s.node() as usize]
                .expect("topo")
                .complement_if(s.is_complemented())
        };
        let (sa, sb, sc) = (m(a, &map), m(b, &map), m(c, &map));
        let ab = aig.and(sa, sb);
        let aorb = aig.or(sa, sb);
        let c_ab = aig.and(sc, aorb);
        map[g as usize] = Some(aig.or(ab, c_ab));
    }
    for o in mig.outputs() {
        let s = map[o.node() as usize]
            .expect("output cone mapped")
            .complement_if(o.is_complemented());
        aig.add_output(s);
    }
    aig
}

/// Converts an AIG into an MIG (each AND becomes `<0ab>`; structural
/// hashing may merge nodes, the function is preserved). This is the
/// ingestion path for AIGER files read by the `io` crate.
pub fn to_mig(aig: &Aig) -> Mig {
    let mut mig = Mig::new(aig.num_inputs());
    let mut map: Vec<Option<Signal>> = vec![None; aig.fanins.len()];
    map[0] = Some(Signal::ZERO);
    for i in 0..aig.num_inputs() {
        map[i + 1] = Some(mig.input(i));
    }
    for g in aig.gates() {
        let [a, b] = aig.fanins(g);
        let sa = map[a.node() as usize]
            .expect("topo")
            .complement_if(a.is_complemented());
        let sb = map[b.node() as usize]
            .expect("topo")
            .complement_if(b.is_complemented());
        map[g as usize] = Some(mig.and(sa, sb));
    }
    for o in aig.outputs() {
        let s = map[o.node() as usize]
            .expect("output cone mapped")
            .complement_if(o.is_complemented());
        mig.add_output(s);
    }
    mig
}

/// Algebraic balancing (tree-height reduction, paper ref \[7\]): collects
/// maximal single-polarity AND trees and rebuilds them as balanced trees
/// ordered by arrival time.
pub fn balance(aig: &Aig) -> Aig {
    let mut out = Aig::new(aig.num_inputs());
    let mut map: Vec<Option<Signal>> = vec![None; aig.fanins.len()];
    map[0] = Some(Signal::ZERO);
    for i in 0..aig.num_inputs() {
        map[i + 1] = Some(out.input(i));
    }
    let fanout = {
        let mut fc = vec![0u32; aig.fanins.len()];
        for g in aig.gates() {
            for s in aig.fanins(g) {
                fc[s.node() as usize] += 1;
            }
        }
        for o in aig.outputs() {
            fc[o.node() as usize] += 1;
        }
        fc
    };
    for g in aig.gates() {
        // Collect the AND-tree leaves: descend through plain-polarity,
        // single-fanout AND children.
        let mut leaves: Vec<Signal> = Vec::new();
        let mut stack = vec![Signal::new(g, false)];
        while let Some(s) = stack.pop() {
            let expandable = !s.is_complemented()
                && aig.is_gate(s.node())
                && (s.node() == g || fanout[s.node() as usize] == 1);
            if expandable {
                let [a, b] = aig.fanins(s.node());
                stack.push(a);
                stack.push(b);
            } else {
                leaves.push(s);
            }
        }
        // Map leaves and build a balanced tree (earliest-arriving first).
        let mut mapped: Vec<Signal> = leaves
            .iter()
            .map(|s| {
                map[s.node() as usize]
                    .expect("topological order")
                    .complement_if(s.is_complemented())
            })
            .collect();
        let lv = out.levels();
        mapped.sort_by_key(|s| lv.get(s.node() as usize).copied().unwrap_or(0));
        while mapped.len() > 1 {
            let a = mapped.remove(0);
            let b = mapped.remove(0);
            let n = out.and(a, b);
            // Insert by level to keep the tree balanced.
            let lv = out.levels();
            let nl = lv.get(n.node() as usize).copied().unwrap_or(0);
            let pos = mapped
                .iter()
                .position(|s| lv.get(s.node() as usize).copied().unwrap_or(0) > nl)
                .unwrap_or(mapped.len());
            mapped.insert(pos, n);
        }
        map[g as usize] = Some(mapped.pop().unwrap_or(Signal::ZERO));
    }
    for o in aig.outputs() {
        let s = map[o.node() as usize]
            .expect("output cone mapped")
            .complement_if(o.is_complemented());
        out.add_output(s);
    }
    out.cleanup()
}

/// DAG-aware rewriting (paper ref \[6\]) for AIGs: enumerate 4-input cuts,
/// replace by exact-minimum AND2 networks when the (fanout-legal) gain is
/// positive. Minimum networks are synthesized on demand per NPN class and
/// memoized; classes whose synthesis exceeds the conflict budget keep
/// their original structure.
pub struct AigRewriter {
    cache: std::cell::RefCell<HashMap<u16, Option<Network>>>,
    conflict_budget: u64,
}

impl Default for AigRewriter {
    fn default() -> Self {
        Self::new(50_000)
    }
}

impl AigRewriter {
    /// Creates a rewriter with a per-class synthesis conflict budget.
    pub fn new(conflict_budget: u64) -> Self {
        AigRewriter {
            cache: std::cell::RefCell::new(HashMap::new()),
            conflict_budget,
        }
    }

    fn min_network(&self, rep: u16) -> Option<Network> {
        if let Some(n) = self.cache.borrow().get(&rep) {
            return n.clone();
        }
        let cfg = SynthesisConfig {
            op: GateOp::And2,
            max_gates: 12,
            conflict_budget: Some(self.conflict_budget),
            ..SynthesisConfig::default()
        };
        let net = minimum_size(&truth::TruthTable::from_u16(rep), &cfg).ok();
        self.cache.borrow_mut().insert(rep, net.clone());
        net
    }

    /// One rewriting pass (top-down reconstruction, like the MIG engine's
    /// `T` variant but over AND2 networks).
    pub fn rewrite(&self, aig: &Aig) -> Aig {
        // Enumerate 4-cuts per node (2-fanin merge, padded-to-4 u16 tts).
        let k = 4;
        let mut cuts: Vec<Vec<(Vec<NodeId>, u16)>> = Vec::with_capacity(aig.fanins.len());
        cuts.push(vec![(vec![], 0u16)]);
        for i in 0..aig.num_inputs {
            cuts.push(vec![(vec![(i + 1) as NodeId], 0xaaaa)]);
        }
        for g in aig.gates() {
            let [a, b] = aig.fanins(g);
            let mut res: Vec<(Vec<NodeId>, u16)> = vec![(vec![g], 0xaaaa)];
            for (la, ta) in &cuts[a.node() as usize].clone() {
                for (lb, tb) in &cuts[b.node() as usize].clone() {
                    let mut leaves = la.clone();
                    for &l in lb {
                        if !leaves.contains(&l) {
                            leaves.push(l);
                        }
                    }
                    leaves.sort_unstable();
                    if leaves.len() > k {
                        continue;
                    }
                    let ea = expand4(*ta, la, &leaves);
                    let eb = expand4(*tb, lb, &leaves);
                    let va = if a.is_complemented() { !ea } else { ea };
                    let vb = if b.is_complemented() { !eb } else { eb };
                    let tt = va & vb;
                    if !res.iter().any(|(l, t)| *l == leaves && *t == tt) {
                        res.push((leaves, tt));
                    }
                }
            }
            res.truncate(10);
            cuts.push(res);
        }

        let fanout = {
            let mut fc = vec![0u32; aig.fanins.len()];
            for g in aig.gates() {
                for s in aig.fanins(g) {
                    fc[s.node() as usize] += 1;
                }
            }
            for o in aig.outputs() {
                fc[o.node() as usize] += 1;
            }
            fc
        };
        let mut out = Aig::new(aig.num_inputs());
        let mut memo: Vec<Option<Signal>> = vec![None; aig.fanins.len()];
        memo[0] = Some(Signal::ZERO);
        for i in 0..aig.num_inputs {
            memo[i + 1] = Some(out.input(i));
        }
        for root in aig.outputs().iter().map(|o| o.node()).collect::<Vec<_>>() {
            if aig.is_gate(root) {
                self.opt(aig, &cuts, &fanout, &mut out, &mut memo, root);
            }
        }
        for o in aig.outputs() {
            let s = memo[o.node() as usize]
                .expect("output cone rebuilt")
                .complement_if(o.is_complemented());
            out.add_output(s);
        }
        out.cleanup()
    }

    fn opt(
        &self,
        aig: &Aig,
        cuts: &[Vec<(Vec<NodeId>, u16)>],
        fanout: &[u32],
        out: &mut Aig,
        memo: &mut Vec<Option<Signal>>,
        v: NodeId,
    ) -> Signal {
        if let Some(s) = memo[v as usize] {
            return s;
        }
        // Find the best legal replacement.
        let mut best: Option<(i32, Vec<NodeId>, Network, truth::NpnTransform)> = None;
        for (leaves, tt) in &cuts[v as usize] {
            if leaves.len() == 1 && leaves[0] == v {
                continue;
            }
            let internal = internal_nodes(aig, v, leaves);
            if !legal(aig, v, &internal, fanout) {
                continue;
            }
            let (rep, t) = truth::Npn4Canonizer::new().canonize(*tt);
            let Some(net) = self.min_network(rep) else {
                continue;
            };
            let gain = internal.len() as i32 - net.size() as i32;
            if gain >= 1 && best.as_ref().is_none_or(|(g, ..)| gain > *g) {
                best = Some((gain, leaves.clone(), net, t));
            }
        }
        let sig = if let Some((_, leaves, net, t)) = best {
            let leaf_sigs: Vec<Signal> = leaves
                .iter()
                .map(|&l| {
                    if aig.is_gate(l) {
                        self.opt(aig, cuts, fanout, out, memo, l)
                    } else {
                        memo[l as usize].expect("terminal mapped")
                    }
                })
                .collect();
            let inv = t.inverse();
            let mapped: Vec<Signal> = (0..4)
                .map(|i| {
                    let pos = inv.perm(i);
                    if pos < leaf_sigs.len() {
                        leaf_sigs[pos].complement_if(inv.input_negated(i))
                    } else {
                        Signal::ZERO
                    }
                })
                .collect();
            instantiate_and2(&net, out, &mapped).complement_if(inv.output_negated())
        } else {
            let [a, b] = aig.fanins(v);
            let sa = self
                .resolve(aig, cuts, fanout, out, memo, a.node())
                .complement_if(a.is_complemented());
            let sb = self
                .resolve(aig, cuts, fanout, out, memo, b.node())
                .complement_if(b.is_complemented());
            out.and(sa, sb)
        };
        memo[v as usize] = Some(sig);
        sig
    }

    #[allow(clippy::too_many_arguments)]
    fn resolve(
        &self,
        aig: &Aig,
        cuts: &[Vec<(Vec<NodeId>, u16)>],
        fanout: &[u32],
        out: &mut Aig,
        memo: &mut Vec<Option<Signal>>,
        n: NodeId,
    ) -> Signal {
        if aig.is_gate(n) {
            self.opt(aig, cuts, fanout, out, memo, n)
        } else {
            memo[n as usize].expect("terminal mapped")
        }
    }
}

fn expand4(tt: u16, from: &[NodeId], to: &[NodeId]) -> u16 {
    let mut out = 0u16;
    for j in 0..16usize {
        let mut src = 0usize;
        for (i, l) in from.iter().enumerate() {
            let pos = to.iter().position(|x| x == l).expect("subset");
            if (j >> pos) & 1 == 1 {
                src |= 1 << i;
            }
        }
        if (tt >> src) & 1 == 1 {
            out |= 1 << j;
        }
    }
    out
}

fn internal_nodes(aig: &Aig, root: NodeId, leaves: &[NodeId]) -> Vec<NodeId> {
    let mut internal = Vec::new();
    let mut stack = vec![root];
    let mut seen = std::collections::HashSet::new();
    while let Some(n) = stack.pop() {
        if leaves.contains(&n) || !aig.is_gate(n) || !seen.insert(n) {
            continue;
        }
        internal.push(n);
        for s in aig.fanins(n) {
            stack.push(s.node());
        }
    }
    internal
}

fn legal(aig: &Aig, root: NodeId, internal: &[NodeId], fanout: &[u32]) -> bool {
    for &n in internal {
        if n == root {
            continue;
        }
        let inside = internal
            .iter()
            .filter(|&&m| m != n && aig.fanins(m).iter().any(|s| s.node() == n))
            .count() as u32;
        if fanout[n as usize] != inside {
            return false;
        }
    }
    true
}

fn instantiate_and2(net: &Network, aig: &mut Aig, leaves: &[Signal]) -> Signal {
    let mut sigs: Vec<Signal> = Vec::with_capacity(1 + leaves.len() + net.size());
    sigs.push(Signal::ZERO);
    sigs.extend_from_slice(leaves);
    for g in net.gates() {
        let a = sigs[g.fanins[0].0 as usize].complement_if(g.fanins[0].1);
        let b = sigs[g.fanins[1].0 as usize].complement_if(g.fanins[1].1);
        sigs.push(aig.and(a, b));
    }
    let (r, c) = net.output();
    sigs[r as usize].complement_if(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_or_and_simplifications() {
        let mut a = Aig::new(2);
        let (x, y) = (a.input(0), a.input(1));
        assert_eq!(a.and(x, Signal::ZERO), Signal::ZERO);
        assert_eq!(a.and(x, Signal::ONE), x);
        assert_eq!(a.and(x, x), x);
        assert_eq!(a.and(x, !x), Signal::ZERO);
        let g1 = a.and(x, y);
        let g2 = a.and(y, x);
        assert_eq!(g1, g2);
        assert_eq!(a.num_gates(), 1);
    }

    #[test]
    fn mig_conversion_preserves_function() {
        let mut m = Mig::new(4);
        let ins: Vec<_> = m.inputs().collect();
        let g1 = m.maj(ins[0], ins[1], ins[2]);
        let g2 = m.xor(g1, ins[3]);
        m.add_output(g2);
        m.add_output(!g1);
        let a = from_mig(&m);
        assert_eq!(a.output_truth_tables(), m.output_truth_tables());
    }

    #[test]
    fn balance_reduces_chain_depth() {
        let mut a = Aig::new(8);
        let mut acc = a.input(0);
        for i in 1..8 {
            let x = a.input(i);
            acc = a.and(acc, x);
        }
        a.add_output(acc);
        assert_eq!(a.depth(), 7);
        let bal = balance(&a);
        assert_eq!(bal.output_truth_tables(), a.output_truth_tables());
        assert!(bal.depth() <= 4, "depth {}", bal.depth());
        assert_eq!(bal.num_gates(), 7);
    }

    #[test]
    fn rewrite_shrinks_redundant_xor() {
        // A wasteful xor2: (a|b) & !(a&b) plus a redundant re-AND.
        let mut a = Aig::new(2);
        let (x, y) = (a.input(0), a.input(1));
        let o1 = a.or(x, y);
        let n1 = a.and(x, y);
        let t = a.and(o1, !n1);
        let t2 = a.and(t, o1);
        a.add_output(t2);
        let rw = AigRewriter::default().rewrite(&a);
        assert_eq!(rw.output_truth_tables(), a.output_truth_tables());
        assert!(rw.num_gates() <= 3, "gates {}", rw.num_gates());
    }

    #[test]
    fn rewrite_preserves_multi_output_function() {
        let mut m = Mig::new(4);
        let ins: Vec<_> = m.inputs().collect();
        let (s1, c1) = m.full_adder(ins[0], ins[1], ins[2]);
        let (s2, c2) = m.full_adder(s1, ins[3], c1);
        m.add_output(s2);
        m.add_output(c2);
        let a = from_mig(&m);
        let rw = AigRewriter::default().rewrite(&a);
        assert_eq!(rw.output_truth_tables(), a.output_truth_tables());
        assert!(rw.num_gates() <= a.num_gates());
    }

    #[test]
    fn mig_aig_mig_roundtrip_preserves_function() {
        let mut m = Mig::new(4);
        let ins: Vec<_> = m.inputs().collect();
        let (s1, c1) = m.full_adder(ins[0], ins[1], ins[2]);
        let g = m.maj(s1, c1, ins[3]);
        m.add_output(g);
        m.add_output(!s1);
        let back = to_mig(&from_mig(&m));
        assert_eq!(back.output_truth_tables(), m.output_truth_tables());
        assert_eq!(back.num_inputs(), m.num_inputs());
        assert_eq!(back.num_outputs(), m.num_outputs());
    }

    #[test]
    fn cleanup_drops_dead_gates() {
        let mut a = Aig::new(2);
        let (x, y) = (a.input(0), a.input(1));
        let _dead = a.and(x, !y);
        let live = a.and(x, y);
        a.add_output(live);
        assert_eq!(a.num_gates(), 2);
        let c = a.cleanup();
        assert_eq!(c.num_gates(), 1);
        assert_eq!(c.output_truth_tables(), a.output_truth_tables());
    }
}

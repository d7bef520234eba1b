//! Compact single-output networks produced by exact synthesis.

use mig::{Mig, Signal};
use truth::TruthTable;

/// The gate operator a synthesized network is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateOp {
    /// Ternary majority (MIG synthesis, the paper's setting).
    Maj3,
    /// Binary conjunction (AIG synthesis, used for the baseline).
    And2,
}

impl GateOp {
    /// Operand count of the operator.
    pub fn arity(self) -> usize {
        match self {
            GateOp::Maj3 => 3,
            GateOp::And2 => 2,
        }
    }
}

/// A reference to a network node: 0 is the constant 0, `1..=n` are the
/// inputs, `n + 1 + i` is gate `i`. The flag complements the edge.
pub type NetRef = (u32, bool);

/// One gate of a [`Network`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetGate {
    /// Operand references, in ascending node order ([`GateOp::arity`] of
    /// them).
    pub fanins: Vec<NetRef>,
}

/// A single-output network over `num_inputs` variables, as found by the
/// exact-synthesis engine. Gates are stored in topological order (gate `i`
/// may only reference the constant, inputs, and gates `< i`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Network {
    op: GateOp,
    num_inputs: usize,
    gates: Vec<NetGate>,
    output: NetRef,
}

impl Network {
    /// Assembles a network; validates topological order and arity.
    ///
    /// # Panics
    ///
    /// Panics if a gate references a node at or above itself or has the
    /// wrong operand count, or if the output reference is out of range.
    pub fn new(op: GateOp, num_inputs: usize, gates: Vec<NetGate>, output: NetRef) -> Self {
        for (i, g) in gates.iter().enumerate() {
            assert_eq!(g.fanins.len(), op.arity(), "gate {i} arity");
            for &(r, _) in &g.fanins {
                assert!(
                    (r as usize) <= num_inputs + i,
                    "gate {i} references later node {r}"
                );
            }
        }
        assert!(
            (output.0 as usize) <= num_inputs + gates.len(),
            "output out of range"
        );
        Network {
            op,
            num_inputs,
            gates,
            output,
        }
    }

    /// The constant-0 or trivial-projection network (no gates).
    pub fn trivial(op: GateOp, num_inputs: usize, output: NetRef) -> Self {
        Self::new(op, num_inputs, Vec::new(), output)
    }

    /// The gate operator.
    pub fn op(&self) -> GateOp {
        self.op
    }

    /// Number of inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of gates (the paper's size / combinational complexity C(f)).
    pub fn size(&self) -> usize {
        self.gates.len()
    }

    /// The gates in topological order.
    pub fn gates(&self) -> &[NetGate] {
        &self.gates
    }

    /// The output reference.
    pub fn output(&self) -> NetRef {
        self.output
    }

    /// The depth D(f): number of gates on the longest root-to-terminal
    /// path (0 for trivial networks).
    pub fn depth(&self) -> u32 {
        let mut lv = vec![0u32; self.num_inputs + 1 + self.gates.len()];
        for (i, g) in self.gates.iter().enumerate() {
            lv[self.num_inputs + 1 + i] = 1 + g
                .fanins
                .iter()
                .map(|&(r, _)| lv[r as usize])
                .max()
                .unwrap_or(0);
        }
        lv[self.output.0 as usize]
    }

    /// Evaluates the network on one input row (`j` encodes input `i` in
    /// bit `i`, matching the paper's `bv` convention).
    pub fn evaluate(&self, j: usize) -> bool {
        let mut val = vec![false; self.num_inputs + 1 + self.gates.len()];
        for i in 0..self.num_inputs {
            val[i + 1] = (j >> i) & 1 == 1;
        }
        for (i, g) in self.gates.iter().enumerate() {
            let v: Vec<bool> = g.fanins.iter().map(|&(r, c)| val[r as usize] ^ c).collect();
            val[self.num_inputs + 1 + i] = match self.op {
                GateOp::Maj3 => (v[0] & v[1]) | (v[0] & v[2]) | (v[1] & v[2]),
                GateOp::And2 => v[0] & v[1],
            };
        }
        val[self.output.0 as usize] ^ self.output.1
    }

    /// The complete truth table of the network.
    pub fn truth_table(&self) -> TruthTable {
        let mut t = TruthTable::zeros(self.num_inputs);
        for j in 0..1usize << self.num_inputs {
            if self.evaluate(j) {
                t.set_bit(j, true);
            }
        }
        t
    }

    /// For each input, the maximum number of gates on a path from the
    /// output down to that input (`None` when the input is unused). The
    /// functional-hashing depth heuristic adds these to leaf levels to
    /// estimate the level of a replacement root.
    pub fn input_depths(&self) -> Vec<Option<u32>> {
        let nodes = self.num_inputs + 1 + self.gates.len();
        // dist[nd] = max gates strictly above nd on a path from the output,
        // plus one for nd itself when nd is a gate.
        let mut dist: Vec<Option<u32>> = vec![None; nodes];
        dist[self.output.0 as usize] = Some(0);
        for (i, g) in self.gates.iter().enumerate().rev() {
            let nd = self.num_inputs + 1 + i;
            if let Some(d) = dist[nd] {
                for &(r, _) in &g.fanins {
                    let cand = d + 1;
                    if dist[r as usize].is_none_or(|old| old < cand) {
                        dist[r as usize] = Some(cand);
                    }
                }
            }
        }
        (1..=self.num_inputs).map(|i| dist[i]).collect()
    }

    /// Instantiates the network inside an MIG, substituting `leaves[i]`
    /// for input `i`; returns the output signal. Only valid for
    /// [`GateOp::Maj3`] networks.
    ///
    /// # Panics
    ///
    /// Panics if the operator is not `Maj3` or `leaves.len()` differs from
    /// the input count.
    pub fn instantiate(&self, mig: &mut mig::Mig, leaves: &[Signal]) -> Signal {
        assert_eq!(self.op, GateOp::Maj3, "only MIG networks instantiate");
        assert_eq!(leaves.len(), self.num_inputs, "one leaf per input");
        let mut sigs: Vec<Signal> = Vec::with_capacity(1 + leaves.len() + self.gates.len());
        sigs.push(Signal::ZERO);
        sigs.extend_from_slice(leaves);
        for g in &self.gates {
            let s: Vec<Signal> = g
                .fanins
                .iter()
                .map(|&(r, c)| sigs[r as usize].complement_if(c))
                .collect();
            sigs.push(mig.maj(s[0], s[1], s[2]));
        }
        sigs[self.output.0 as usize].complement_if(self.output.1)
    }

    /// Converts the network into a standalone MIG.
    ///
    /// # Panics
    ///
    /// Panics if the operator is not `Maj3`.
    pub fn to_mig(&self) -> Mig {
        let mut m = Mig::new(self.num_inputs);
        let leaves: Vec<Signal> = m.inputs().collect();
        let out = self.instantiate(&mut m, &leaves);
        m.add_output(out);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn maj_gate(a: NetRef, b: NetRef, c: NetRef) -> NetGate {
        NetGate {
            fanins: vec![a, b, c],
        }
    }

    #[test]
    fn trivial_networks() {
        let zero = Network::trivial(GateOp::Maj3, 2, (0, false));
        assert!(zero.truth_table().is_zero());
        let one = Network::trivial(GateOp::Maj3, 2, (0, true));
        assert!(one.truth_table().is_ones());
        let x1 = Network::trivial(GateOp::Maj3, 2, (2, false));
        assert_eq!(x1.truth_table(), TruthTable::var(2, 1));
        assert_eq!(x1.depth(), 0);
        assert_eq!(x1.size(), 0);
    }

    #[test]
    fn majority_gate_network() {
        let net = Network::new(
            GateOp::Maj3,
            3,
            vec![maj_gate((1, false), (2, false), (3, false))],
            (4, false),
        );
        assert_eq!(net.size(), 1);
        assert_eq!(net.depth(), 1);
        let expect = TruthTable::maj(
            &TruthTable::var(3, 0),
            &TruthTable::var(3, 1),
            &TruthTable::var(3, 2),
        );
        assert_eq!(net.truth_table(), expect);
    }

    #[test]
    fn and2_network_evaluates() {
        let net = Network::new(
            GateOp::And2,
            2,
            vec![NetGate {
                fanins: vec![(1, true), (2, true)],
            }],
            (3, true),
        );
        // !( !a & !b ) = a | b
        let or2 = &TruthTable::var(2, 0) | &TruthTable::var(2, 1);
        assert_eq!(net.truth_table(), or2);
    }

    #[test]
    fn instantiate_into_mig_with_complemented_leaves() {
        let net = Network::new(
            GateOp::Maj3,
            3,
            vec![maj_gate((0, true), (1, false), (2, false))], // or(x1, x2)
            (4, false),
        );
        let mut m = Mig::new(2);
        let (a, b) = (m.input(0), m.input(1));
        let out = net.instantiate(&mut m, &[!a, b, Signal::ZERO]);
        m.add_output(out);
        // or(!a, b)
        let expect = &!TruthTable::var(2, 0) | &TruthTable::var(2, 1);
        assert_eq!(m.output_truth_tables()[0], expect);
    }

    #[test]
    fn to_mig_roundtrips_function() {
        // Full-adder sum: <m̄ <abc̄> c> with m = <abc>.
        let net = Network::new(
            GateOp::Maj3,
            3,
            vec![
                maj_gate((1, false), (2, false), (3, false)),
                maj_gate((1, false), (2, false), (3, true)),
                maj_gate((3, false), (4, true), (5, false)),
            ],
            (6, false),
        );
        let m = net.to_mig();
        assert_eq!(m.output_truth_tables()[0], net.truth_table());
        let xor3 = &(&TruthTable::var(3, 0) ^ &TruthTable::var(3, 1)) ^ &TruthTable::var(3, 2);
        assert_eq!(net.truth_table(), xor3);
    }

    #[test]
    #[should_panic(expected = "references later node")]
    fn forward_reference_rejected() {
        let _ = Network::new(
            GateOp::Maj3,
            2,
            vec![maj_gate((1, false), (2, false), (4, false))],
            (3, false),
        );
    }
}

#[cfg(test)]
mod input_depth_tests {
    use super::*;

    #[test]
    fn input_depths_of_full_adder_sum() {
        // gates: m = <x1 x2 x3>, u = <x1 x2 x̄3>, s = <x3 m̄ u>.
        let net = Network::new(
            GateOp::Maj3,
            3,
            vec![
                NetGate {
                    fanins: vec![(1, false), (2, false), (3, false)],
                },
                NetGate {
                    fanins: vec![(1, false), (2, false), (3, true)],
                },
                NetGate {
                    fanins: vec![(3, false), (4, true), (5, false)],
                },
            ],
            (6, false),
        );
        let d = net.input_depths();
        assert_eq!(d, vec![Some(2), Some(2), Some(2)]);
    }

    #[test]
    fn input_depths_trivial_and_unused() {
        let proj = Network::trivial(GateOp::Maj3, 2, (2, true));
        assert_eq!(proj.input_depths(), vec![None, Some(0)]);
        // <x1 x2 0-as-const> network that ignores x3.
        let net = Network::new(
            GateOp::Maj3,
            3,
            vec![NetGate {
                fanins: vec![(0, false), (1, false), (2, false)],
            }],
            (4, false),
        );
        assert_eq!(net.input_depths(), vec![Some(1), Some(1), None]);
    }
}

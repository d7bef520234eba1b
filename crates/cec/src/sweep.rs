//! SAT sweeping, the engine behind [`crate::prove_equivalent`].
//!
//! Both networks go into one node table over their shared inputs: the
//! constant, the inputs, then every gate some output depends on, in level
//! order. Random simulation keys each node by its signature up to
//! complement. The sweep walks the gates in level order, maps each gate's
//! fanins through the representative table `repr`, and merges the gate
//! into an earlier node when majority simplification, structural hashing,
//! equal truth tables over a small cut, or a SAT check shows the two
//! equal. The cut check needs no solver: both sides are evaluated over at
//! most [`CUT_LEAVES`] shared leaves found by expanding their cones
//! through `repr`. The SAT checks run on a small incremental solver that
//! encodes only the cones they need; each refuting model is simulated at
//! once as one more word, which splits the classes it separates. Outputs
//! whose two sides end on the same literal are proved; any other pair
//! gets one last check with the remaining conflict budget.

use crate::CecResult;
use mig::fxhash::FxHashMap;
use mig::{normalize_maj, Mig, NodeId, Normalized, Signal};
use sat::{Lit, SatResult, Solver};

/// Random 64-bit simulation words per node.
const SIM_WORDS: usize = 16;
/// Conflict cap of each SAT call that checks a candidate pair. A pair
/// still open after it stays unmerged.
const CHECK_CONFLICTS: u64 = 1_000;
/// Leaves of the cut over which a candidate pair is compared as truth
/// tables before any SAT call. Functional hashing swaps cuts of at most
/// four leaves, so most pairs meet within a few more; six keeps each
/// table in one 64-bit word. On the `verify` benchmark ladder a cut of
/// eight leaves proved no more rungs and ran no faster.
const CUT_LEAVES: usize = 6;
/// Truth tables of the cut leaves: leaf `i` is variable `i` of six.
const PROJECTIONS: [u64; CUT_LEAVES] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];
/// SAT calls after which the solver is replaced by an empty one. A
/// satisfiable call assigns every variable the solver holds, so a solver
/// that keeps every cone it ever encoded slows each later call; encoding
/// a cone again is cheaper.
const RECYCLE_CALLS: u64 = 1_000;
/// Seed of the SplitMix64 stream that draws the simulation words.
const SIM_SEED: u64 = 0x5EED_CEC5;
/// "No table node" for a node no output depends on.
const NONE: u32 = u32::MAX;

/// What one proof spent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SweepStats {
    /// Node pairs proven equal by SAT and merged.
    pub merges: u64,
    /// Node pairs proven equal by cut truth tables, with no SAT call, and
    /// merged.
    pub cut_merges: u64,
    /// `solve_assuming` calls.
    pub solver_calls: u64,
    /// Conflicts summed over every call.
    pub conflicts: u64,
}

/// Proves or refutes that `a` and `b` compute the same outputs, spending
/// at most `budget` conflicts summed over every SAT call.
pub(crate) fn prove(a: &Mig, b: &Mig, budget: Option<u64>) -> (CecResult, SweepStats) {
    let separating = |cex: Vec<bool>| {
        assert_ne!(
            a.evaluate(&cex),
            b.evaluate(&cex),
            "a counterexample must separate the two networks"
        );
        CecResult::Counterexample(cex)
    };
    let built = {
        let _span = obs::trace::span("cec:sim");
        Sweep::new(a, b, budget)
    };
    let mut sweep = match built {
        Ok(sweep) => sweep,
        Err(cex) => return (separating(cex), SweepStats::default()),
    };
    let swept = {
        let _span = obs::trace::span("cec:sweep");
        sweep.run()
    };
    let verdict = match swept {
        Err(cex) => separating(cex),
        Ok(()) => {
            let _span = obs::trace::span("cec:outputs");
            match sweep.prove_outputs() {
                CecResult::Counterexample(cex) => separating(cex),
                other => other,
            }
        }
    };
    (verdict, sweep.stats)
}

struct Sweep {
    num_inputs: usize,
    /// Fanins of each table gate as table signals. Node 0 is the
    /// constant and nodes `1..=num_inputs` the inputs; they hold dummies.
    fanins: Vec<[Signal; 3]>,
    /// Output pairs (side of `a`, side of `b`) as table signals.
    outputs: Vec<(Signal, Signal)>,
    /// Whether bit 0 of a node's first simulation word is set: signatures
    /// are compared with the node complemented when it is.
    phase: Vec<bool>,
    /// Hash of each node's signature up to complement, over every word
    /// simulated so far.
    key: Vec<u64>,
    /// The head or terminal each processed node was merged into (itself
    /// for heads and terminals).
    repr: Vec<Signal>,
    /// Strash of processed gates: normalized fanin key to the signal it
    /// computes.
    strash: FxHashMap<[Signal; 3], Signal>,
    /// Nodes that were not merged, in processing order.
    heads: Vec<u32>,
    /// Latest head of each signature key.
    classes: FxHashMap<u64, u32>,
    /// Scratch word per node: cut truth tables and simulated
    /// counterexamples.
    scratch: Vec<u64>,
    /// Gates of the last cut's cones, highest index first.
    cone: Vec<u32>,
    solver: Solver,
    /// Bumped with each new solver; `var[v]` is valid when
    /// `stamp[v] == epoch`.
    epoch: u32,
    stamp: Vec<u32>,
    var: Vec<Lit>,
    /// Calls made on the current solver.
    calls: u64,
    stack: Vec<u32>,
    budget: Option<u64>,
    stats: SweepStats,
}

impl Sweep {
    /// Builds the node table, simulates it, and keys the classes. Returns
    /// a counterexample instead when some output pair differs in
    /// simulation.
    fn new(a: &Mig, b: &Mig, budget: Option<u64>) -> Result<Sweep, Vec<bool>> {
        let n = a.num_inputs();
        // Gates some output depends on, with their levels, from both
        // networks; a stable sort keeps each network's topological order
        // within a level.
        let nets = [a, b];
        let mut order: Vec<(u32, usize, NodeId)> = Vec::new();
        for (side, m) in nets.into_iter().enumerate() {
            let topo = m.topo_gates_shared();
            let mut needed = vec![false; m.num_nodes()];
            for o in m.outputs() {
                needed[o.node() as usize] = true;
            }
            for &g in topo.iter().rev() {
                if needed[g as usize] {
                    for f in m.fanins(g) {
                        needed[f.node() as usize] = true;
                    }
                }
            }
            let mut level = vec![0u32; m.num_nodes()];
            for &g in topo.iter().filter(|&&g| needed[g as usize]) {
                let l = 1 + m
                    .fanins(g)
                    .iter()
                    .map(|f| level[f.node() as usize])
                    .max()
                    .unwrap_or(0);
                level[g as usize] = l;
                order.push((l, side, g));
            }
        }
        order.sort_by_key(|&(l, _, _)| l);
        let mut index = [vec![NONE; a.num_nodes()], vec![NONE; b.num_nodes()]];
        for map in &mut index {
            for (v, slot) in map.iter_mut().enumerate().take(n + 1) {
                *slot = v as u32;
            }
        }
        for (pos, &(_, side, g)) in order.iter().enumerate() {
            index[side][g as usize] = (n + 1 + pos) as u32;
        }
        let to_table = |side: usize, s: Signal| {
            Signal::new(index[side][s.node() as usize], s.is_complemented())
        };
        let mut fanins = vec![[Signal::ZERO; 3]; n + 1];
        fanins.extend(
            order
                .iter()
                .map(|&(_, side, g)| nets[side].fanins(g).map(|f| to_table(side, f))),
        );
        let outputs: Vec<(Signal, Signal)> = a
            .outputs()
            .iter()
            .zip(b.outputs())
            .map(|(&x, &y)| (to_table(0, x), to_table(1, y)))
            .collect();

        // Simulate: SIM_WORDS words per node in one flat node-major table.
        let len = fanins.len();
        let mut sim = vec![0u64; len * SIM_WORDS];
        let mut rng = SplitMix(SIM_SEED);
        for w in &mut sim[SIM_WORDS..(n + 1) * SIM_WORDS] {
            *w = rng.next();
        }
        for (v, f) in fanins.iter().enumerate().skip(n + 1) {
            let (done, rest) = sim.split_at_mut(v * SIM_WORDS);
            let row = |s: Signal| &done[s.node() as usize * SIM_WORDS..][..SIM_WORDS];
            let [(x, mx), (y, my), (z, mz)] = f.map(|s| (row(s), mask(s.is_complemented())));
            for (w, out) in rest[..SIM_WORDS].iter_mut().enumerate() {
                *out = maj(x[w] ^ mx, y[w] ^ my, z[w] ^ mz);
            }
        }
        if let Some(cex) = output_mismatch(&outputs, n, SIM_WORDS, |v, w| sim[v * SIM_WORDS + w]) {
            return Err(cex);
        }
        let phase: Vec<bool> = (0..len).map(|v| sim[v * SIM_WORDS] & 1 == 1).collect();
        let key: Vec<u64> = sim
            .chunks_exact(SIM_WORDS)
            .zip(&phase)
            .map(|(row, &p)| row.iter().fold(0, |h, &w| fold(h, w ^ mask(p))))
            .collect();
        drop(sim);

        let mut sweep = Sweep {
            num_inputs: n,
            fanins,
            outputs,
            phase,
            key,
            repr: (0..len as u32).map(|v| Signal::new(v, false)).collect(),
            strash: FxHashMap::default(),
            heads: (0..=n as u32).collect(),
            classes: FxHashMap::default(),
            scratch: vec![0; len],
            cone: Vec::new(),
            solver: Solver::new(),
            epoch: 0,
            stamp: vec![0; len],
            var: vec![Lit::from_code(0); len],
            calls: 0,
            stack: Vec::new(),
            budget,
            stats: SweepStats::default(),
        };
        sweep.rebuild_classes();
        sweep.recycle();
        Ok(sweep)
    }

    /// Walks the gates in level order, merging each into an equal earlier
    /// node where one is found. Returns a counterexample when simulating a
    /// refuting model shows an output pair differing.
    fn run(&mut self) -> Result<(), Vec<bool>> {
        for v in self.num_inputs + 1..self.fanins.len() {
            let ops = self.fanins[v].map(|s| self.resolve(s));
            let (key, c) = match normalize_maj(ops) {
                Normalized::Copy(s) => {
                    self.repr[v] = s;
                    continue;
                }
                Normalized::Node(key, c) => (key, c),
            };
            self.repr[v] = match self.strash.get(&key) {
                Some(&s) => s.complement_if(c),
                None => {
                    let s = self.match_class(v as u32)?;
                    self.strash.insert(key, s.complement_if(c));
                    s
                }
            };
        }
        Ok(())
    }

    /// Checks gate `v` against the latest head of its class, by cut truth
    /// tables and then by SAT, and merges it into that head when the two
    /// are equal. A refutation re-keys the classes and the check repeats
    /// in `v`'s new class. An undecided check or an empty class makes `v`
    /// a head.
    fn match_class(&mut self, v: u32) -> Result<Signal, Vec<bool>> {
        while let Some(h) = self.class_of(v) {
            let phase = self.phase[v as usize] != self.phase[h as usize];
            let head = Signal::new(h, phase);
            if self.cut_equal(v, head) {
                self.stats.cut_merges += 1;
                return Ok(head);
            }
            match self.check(Signal::new(v, false), head, Some(CHECK_CONFLICTS)) {
                CecResult::Equivalent => {
                    self.stats.merges += 1;
                    return Ok(head);
                }
                CecResult::Unknown => break,
                // The model's word re-keys every class and separates `v`
                // from `h`.
                CecResult::Counterexample(cex) => self.add_pattern(&cex)?,
            }
        }
        self.classes.insert(self.key[v as usize], v);
        self.heads.push(v);
        Ok(Signal::new(v, false))
    }

    /// Whether gate `v` equals `head` as a function of the leaves of a cut
    /// of at most [`CUT_LEAVES`] nodes. The leaf set starts as `{v, head}`
    /// without the constant. Its highest-index gate leaf is replaced by the
    /// nodes of its fanins, through `repr` and without the constant, until
    /// no leaf is a gate or the next replacement would overflow the cut.
    /// (Skipping the overflowing leaf to replace the next one decides a
    /// few more pairs, but ran the `verify` ladder slower.) Fanins come
    /// earlier in the table, so the replaced gates evaluate in reverse
    /// order. `repr` holds only proven merges, so each table is its node's
    /// exact function of the leaves, and equal tables prove the pair
    /// equal. Leaves may be correlated, so unequal tables prove nothing.
    fn cut_equal(&mut self, v: u32, head: Signal) -> bool {
        let (fanins, repr) = (&self.fanins, &self.repr);
        let resolve = |s: Signal| repr[s.node() as usize].complement_if(s.is_complemented());
        let is_gate = |u: u32| u as usize > self.num_inputs;
        let mut leaves = [v; CUT_LEAVES];
        let mut len = 1 + usize::from(head.node() != 0);
        leaves[1] = head.node();
        self.cone.clear();
        'expand: while let Some(i) = (0..len)
            .filter(|&i| is_gate(leaves[i]))
            .max_by_key(|&i| leaves[i])
        {
            let g = leaves[i];
            let (mut next, mut next_len) = (leaves, len - 1);
            next[i] = next[next_len];
            for f in fanins[g as usize] {
                let f = resolve(f).node();
                if f != 0 && !next[..next_len].contains(&f) {
                    if next_len == CUT_LEAVES {
                        break 'expand;
                    }
                    next[next_len] = f;
                    next_len += 1;
                }
            }
            (leaves, len) = (next, next_len);
            self.cone.push(g);
        }
        let word = &mut self.scratch;
        word[0] = 0;
        for (&leaf, &p) in leaves[..len].iter().zip(&PROJECTIONS) {
            word[leaf as usize] = p;
        }
        for &g in self.cone.iter().rev() {
            let [x, y, z] = fanins[g as usize].map(|f| {
                let f = resolve(f);
                word[f.node() as usize] ^ mask(f.is_complemented())
            });
            word[g as usize] = maj(x, y, z);
        }
        word[v as usize] == word[head.node() as usize] ^ mask(head.is_complemented())
    }

    /// Proves each output pair whose sides do not end on the same literal
    /// with the remaining budget.
    fn prove_outputs(&mut self) -> CecResult {
        for i in 0..self.outputs.len() {
            let (x, y) = self.outputs[i];
            let (x, y) = (self.resolve(x), self.resolve(y));
            if x != y {
                match self.check(x, y, None) {
                    CecResult::Equivalent => {}
                    other => return other,
                }
            }
        }
        CecResult::Equivalent
    }

    fn resolve(&self, s: Signal) -> Signal {
        self.repr[s.node() as usize].complement_if(s.is_complemented())
    }

    fn class_of(&self, v: u32) -> Option<u32> {
        self.classes.get(&self.key[v as usize]).copied()
    }

    fn rebuild_classes(&mut self) {
        self.classes.clear();
        for &h in &self.heads {
            self.classes.insert(self.key[h as usize], h);
        }
    }

    fn remaining(&self) -> Option<u64> {
        self.budget.map(|b| b.saturating_sub(self.stats.conflicts))
    }

    /// Checks `x == y` with one SAT call per polarity, each limited to
    /// `cap` and to the remaining budget.
    fn check(&mut self, x: Signal, y: Signal, cap: Option<u64>) -> CecResult {
        if self.remaining() == Some(0) {
            return CecResult::Unknown;
        }
        if self.calls >= RECYCLE_CALLS {
            self.recycle();
        }
        let (lx, ly) = (self.lit(x), self.lit(y));
        for assumptions in [[lx, !ly], [!lx, ly]] {
            // A call limited to 0 conflicts may still spend one.
            let limit = [self.remaining(), cap].into_iter().flatten().min();
            if limit == Some(0) {
                return CecResult::Unknown;
            }
            self.solver.set_conflict_budget(limit);
            let before = self.solver.stats().conflicts;
            let result = self.solver.solve_assuming(&assumptions);
            self.stats.conflicts += self.solver.stats().conflicts - before;
            self.stats.solver_calls += 1;
            self.calls += 1;
            match result {
                SatResult::Unsat => {}
                SatResult::Unknown => return CecResult::Unknown,
                SatResult::Sat => return CecResult::Counterexample(self.model_inputs()),
            }
        }
        CecResult::Equivalent
    }

    /// The input assignment of the last satisfying call; inputs outside
    /// every encoded cone read `false`.
    fn model_inputs(&self) -> Vec<bool> {
        (1..=self.num_inputs)
            .map(|i| {
                self.stamp[i] == self.epoch && self.solver.model_lit(self.var[i]) == Some(true)
            })
            .collect()
    }

    /// Replaces the solver with an empty one holding only the constant.
    fn recycle(&mut self) {
        self.solver = Solver::new();
        self.epoch += 1;
        self.calls = 0;
        let f = self.solver.new_var().positive();
        self.solver.add_clause(&[!f]);
        self.var[0] = f;
        self.stamp[0] = self.epoch;
    }

    /// The solver literal of `s`, whose node must be a head or terminal.
    /// Encodes the missing part of its cone, through `repr`, first.
    fn lit(&mut self, s: Signal) -> Lit {
        let root = s.node();
        if self.stamp[root as usize] != self.epoch {
            self.stack.push(root);
        }
        while let Some(&v) = self.stack.last() {
            let v = v as usize;
            if self.stamp[v] == self.epoch {
                self.stack.pop();
                continue;
            }
            if v <= self.num_inputs {
                self.var[v] = self.solver.new_var().positive();
                self.stamp[v] = self.epoch;
                self.stack.pop();
                continue;
            }
            let ops = self.fanins[v].map(|f| self.resolve(f));
            let pushed = self.stack.len();
            for f in ops {
                if self.stamp[f.node() as usize] != self.epoch {
                    self.stack.push(f.node());
                }
            }
            if self.stack.len() > pushed {
                continue;
            }
            let [a, b, c] = ops.map(|f| signed(self.var[f.node() as usize], f.is_complemented()));
            let o = self.solver.new_var().positive();
            // o <-> maj(a, b, c)
            self.solver.add_clause(&[!a, !b, o]);
            self.solver.add_clause(&[!a, !c, o]);
            self.solver.add_clause(&[!b, !c, o]);
            self.solver.add_clause(&[a, b, !o]);
            self.solver.add_clause(&[a, c, !o]);
            self.solver.add_clause(&[b, c, !o]);
            self.var[v] = o;
            self.stamp[v] = self.epoch;
            self.stack.pop();
        }
        signed(self.var[root as usize], s.is_complemented())
    }

    /// Simulates one counterexample as one more word, each input's value
    /// filling all 64 bits, and re-keys every class with it. Returns a
    /// counterexample instead when that word shows an output pair
    /// differing.
    fn add_pattern(&mut self, cex: &[bool]) -> Result<(), Vec<bool>> {
        let n = self.num_inputs;
        let word = &mut self.scratch;
        word[0] = 0;
        for (w, &x) in word[1..=n].iter_mut().zip(cex) {
            *w = mask(x);
        }
        for v in n + 1..self.fanins.len() {
            let [x, y, z] =
                self.fanins[v].map(|s| word[s.node() as usize] ^ mask(s.is_complemented()));
            word[v] = maj(x, y, z);
        }
        if let Some(cex) = output_mismatch(&self.outputs, n, 1, |v, _| word[v]) {
            return Err(cex);
        }
        for ((k, &w), &p) in self.key.iter_mut().zip(word.iter()).zip(&self.phase) {
            *k = fold(*k, w ^ mask(p));
        }
        self.rebuild_classes();
        Ok(())
    }
}

/// The first input assignment, among `words` simulated words per node,
/// under which an output pair differs. `value(v, w)` is word `w` of node
/// `v`.
fn output_mismatch(
    outputs: &[(Signal, Signal)],
    num_inputs: usize,
    words: usize,
    value: impl Fn(usize, usize) -> u64,
) -> Option<Vec<bool>> {
    let of = |s: Signal, w: usize| value(s.node() as usize, w) ^ mask(s.is_complemented());
    for &(x, y) in outputs {
        for w in 0..words {
            let diff = of(x, w) ^ of(y, w);
            if diff != 0 {
                let bit = diff.trailing_zeros();
                return Some(
                    (1..=num_inputs)
                        .map(|i| value(i, w) >> bit & 1 == 1)
                        .collect(),
                );
            }
        }
    }
    None
}

fn maj(x: u64, y: u64, z: u64) -> u64 {
    (x & y) | (x & z) | (y & z)
}

fn mask(complemented: bool) -> u64 {
    0u64.wrapping_sub(u64::from(complemented))
}

/// One FxHash step: folds word `w` into hash `h`. For a fixed `h` it is a
/// bijection in `w`, so two equal keys stay equal only on equal words.
fn fold(h: u64, w: u64) -> u64 {
    (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
}

fn signed(l: Lit, complemented: bool) -> Lit {
    if complemented {
        !l
    } else {
        l
    }
}

/// SplitMix64, the simulation words' generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

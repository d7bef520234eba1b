//! A CDCL SAT solver in the MiniSat lineage.
//!
//! Implements the standard architecture: two-literal watching with
//! blockers, first-UIP conflict analysis with clause minimization, VSIDS
//! variable activities with phase saving, Luby restarts, and
//! activity/LBD-guided learned-clause database reduction. Clauses may be
//! added between `solve` calls (the incremental interface used by the
//! CEGAR loop of the exact-synthesis engine).
//!
//! Every clause lives inline in one [`ClauseArena`], and every literal has
//! its own value byte, so propagation reaches a clause's literals and
//! their values without a pointer chase. Conflict analysis, minimization,
//! LBD and `add_clause` work in reused buffers and allocate nothing once
//! the buffers have grown; deleted clauses are reclaimed by an
//! order-preserving compaction once they exceed half the arena.

use crate::arena::ClauseArena;
use crate::{LBool, Lit, Var};

/// Outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// A satisfying assignment was found (query [`Solver::model_value`]).
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted before a verdict.
    Unknown,
}

/// Solver statistics, useful for benchmarking and regression tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions taken.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learned clauses deleted by database reduction.
    pub deleted_clauses: u64,
}

const CLAUSE_NONE: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Watcher {
    cref: u32,
    blocker: Lit,
}

/// A CDCL SAT solver.
///
/// # Examples
///
/// ```
/// use sat::{SatResult, Solver};
///
/// let mut s = Solver::new();
/// let a = s.new_var().positive();
/// let b = s.new_var().positive();
/// s.add_clause(&[a, b]);
/// s.add_clause(&[!a, b]);
/// assert_eq!(s.solve(), SatResult::Sat);
/// assert_eq!(s.model_value(b.var()), Some(true));
/// s.add_clause(&[!b]);
/// assert_eq!(s.solve(), SatResult::Unsat);
/// ```
pub struct Solver {
    arena: ClauseArena,
    /// Clauses attached so far, learned and deleted ones included: the
    /// base of the learned-clause limit.
    attached: usize,
    /// Problem (non-learned) clauses; these are never deleted.
    problem_clauses: usize,
    learnt_refs: Vec<u32>,
    watches: Vec<Vec<Watcher>>,
    /// The value of each literal, indexed by [`Lit::code`].
    values: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    // VSIDS
    activity: Vec<f64>,
    var_inc: f64,
    heap: Vec<Var>,
    heap_pos: Vec<i32>,
    saved_phase: Vec<bool>,
    // Clause activity
    cla_inc: f32,
    // Conflict analysis scratch
    seen: Vec<bool>,
    /// The clause being learned, asserting literal first.
    learnt: Vec<Lit>,
    /// Literals minimization dropped from `learnt` (their `seen` flags
    /// still need clearing).
    dropped: Vec<Lit>,
    /// Per decision level, the LBD count that last saw it.
    level_stamp: Vec<u64>,
    lbd_count: u64,
    /// `add_clause`'s normalization buffer.
    add_buf: Vec<Lit>,
    // State
    ok: bool,
    model: Vec<bool>,
    max_learnts: f64,
    stats: SolverStats,
    conflict_budget: Option<u64>,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            arena: ClauseArena::new(),
            attached: 0,
            problem_clauses: 0,
            learnt_refs: Vec::new(),
            watches: Vec::new(),
            values: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: Vec::new(),
            heap_pos: Vec::new(),
            saved_phase: Vec::new(),
            cla_inc: 1.0,
            seen: Vec::new(),
            learnt: Vec::new(),
            dropped: Vec::new(),
            level_stamp: Vec::new(),
            lbd_count: 0,
            add_buf: Vec::new(),
            ok: true,
            model: Vec::new(),
            max_learnts: 0.0,
            stats: SolverStats::default(),
            conflict_budget: None,
        }
    }

    /// Adds a fresh variable and returns it.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.level.len());
        self.values.push(LBool::Undef);
        self.values.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(CLAUSE_NONE);
        self.activity.push(0.0);
        self.heap_pos.push(-1);
        self.saved_phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap_insert(v);
        v
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.level.len()
    }

    /// Number of problem (non-learned) clauses added so far.
    pub fn num_clauses(&self) -> usize {
        self.problem_clauses
    }

    /// Solver statistics accumulated so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Limits the next [`Solver::solve`] call to roughly `conflicts`
    /// conflicts; `None` removes the limit.
    pub fn set_conflict_budget(&mut self, conflicts: Option<u64>) {
        self.conflict_budget = conflicts;
    }

    /// Adds a clause. Returns `false` if the solver is already in an
    /// unsatisfiable state (then the clause is ignored).
    ///
    /// # Panics
    ///
    /// Panics if called while the solver holds a partial assignment (i.e.
    /// mid-solve); clauses may only be added between `solve` calls.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert!(
            self.trail_lim.is_empty(),
            "clauses may only be added at decision level 0"
        );
        if !self.ok {
            return false;
        }
        // Normalize: sort, drop duplicates and false literals; a tautology
        // or a literal true at level 0 satisfies the clause. After the
        // sort a literal's complement, if present, follows it directly.
        let mut c = std::mem::take(&mut self.add_buf);
        c.clear();
        c.extend_from_slice(lits);
        c.sort_unstable();
        c.dedup();
        let mut kept = 0;
        let mut satisfied = false;
        for i in 0..c.len() {
            let l = c[i];
            if c.get(i + 1) == Some(&!l) || self.value(l) == LBool::True {
                satisfied = true;
                break;
            }
            if self.value(l) == LBool::Undef {
                c[kept] = l;
                kept += 1;
            }
        }
        c.truncate(kept);
        let ok = match c.len() {
            _ if satisfied => true,
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(c[0], CLAUSE_NONE);
                self.ok = self.propagate() == CLAUSE_NONE;
                self.ok
            }
            _ => {
                let cref = self.arena.push(&c, false, 0);
                self.attach(cref);
                self.problem_clauses += 1;
                true
            }
        };
        self.add_buf = c;
        ok
    }

    /// Solves the formula without assumptions.
    pub fn solve(&mut self) -> SatResult {
        self.solve_assuming(&[])
    }

    /// Solves under the given assumption literals.
    pub fn solve_assuming(&mut self, assumptions: &[Lit]) -> SatResult {
        if !self.ok {
            return SatResult::Unsat;
        }
        self.max_learnts = (self.attached as f64 / 3.0).max(1000.0);
        let budget_start = self.stats.conflicts;
        let mut restart_idx = 0u64;
        let result = loop {
            let within =
                luby(2.0, restart_idx) * 100.0 + (self.stats.conflicts - budget_start) as f64;
            restart_idx += 1;
            match self.search(within as u64, assumptions, budget_start) {
                Some(r) => break r,
                None => {
                    self.stats.restarts += 1;
                    self.backtrack(0);
                }
            }
        };
        self.backtrack(0);
        result
    }

    /// The value of `v` in the most recent satisfying assignment.
    ///
    /// Returns `None` before the first successful solve or for variables
    /// created afterwards.
    pub fn model_value(&self, v: Var) -> Option<bool> {
        self.model.get(v.index()).copied()
    }

    /// The value of a literal in the most recent satisfying assignment.
    pub fn model_lit(&self, l: Lit) -> Option<bool> {
        self.model_value(l.var()).map(|b| b == l.sign())
    }

    // ---- internals ------------------------------------------------------

    fn value(&self, l: Lit) -> LBool {
        self.values[l.code()]
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        debug_assert_eq!(self.value(l), LBool::Undef);
        self.values[l.code()] = LBool::True;
        self.values[(!l).code()] = LBool::False;
        let v = l.var().index();
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Watches the first two literals of the clause just pushed at `cref`.
    fn attach(&mut self, cref: u32) {
        let lits = self.arena.lits(cref);
        let (w0, w1) = (
            Lit::from_code(lits[0] as usize),
            Lit::from_code(lits[1] as usize),
        );
        self.watches[w0.code()].push(Watcher { cref, blocker: w1 });
        self.watches[w1.code()].push(Watcher { cref, blocker: w0 });
        self.attached += 1;
    }

    /// Attaches `self.learnt` as a learned clause.
    fn attach_learnt(&mut self, lbd: u32) -> u32 {
        let cref = self.arena.push(&self.learnt, true, lbd);
        self.learnt_refs.push(cref);
        self.attach(cref);
        cref
    }

    /// Propagates all enqueued facts. Returns the conflicting clause
    /// reference or `CLAUSE_NONE`.
    fn propagate(&mut self) -> u32 {
        let mut confl = CLAUSE_NONE;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let falsified = !p;
            let mut ws = std::mem::take(&mut self.watches[falsified.code()]);
            let mut i = 0;
            let mut j = 0;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.values[w.blocker.code()] == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let Some(lits) = self.arena.live_lits_mut(w.cref) else {
                    continue; // drop watcher of deleted clause
                };
                // Make sure the falsified literal is at position 1.
                if lits[0] == falsified.code() as u32 {
                    lits.swap(0, 1);
                }
                let first = Lit::from_code(lits[0] as usize);
                let kept = Watcher {
                    cref: w.cref,
                    blocker: first,
                };
                if first != w.blocker && self.values[first.code()] == LBool::True {
                    ws[j] = kept;
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..lits.len() {
                    let lk = lits[k] as usize;
                    if self.values[lk] != LBool::False {
                        lits.swap(1, k);
                        self.watches[lk].push(kept);
                        continue 'watchers;
                    }
                }
                // Clause is unit or conflicting; keep the watcher.
                ws[j] = kept;
                j += 1;
                if self.values[first.code()] == LBool::False {
                    // Conflict: copy the remaining watchers back verbatim.
                    ws.copy_within(i.., j);
                    j += ws.len() - i;
                    confl = w.cref;
                    self.qhead = self.trail.len();
                    break;
                }
                self.enqueue(first, w.cref);
            }
            ws.truncate(j);
            self.watches[falsified.code()] = ws;
            if confl != CLAUSE_NONE {
                break;
            }
        }
        confl
    }

    fn backtrack(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let bound = self.trail_lim[target as usize];
        for k in (bound..self.trail.len()).rev() {
            let l = self.trail[k];
            let v = l.var().index();
            self.saved_phase[v] = l.sign();
            self.values[l.code()] = LBool::Undef;
            self.values[(!l).code()] = LBool::Undef;
            self.reason[v] = CLAUSE_NONE;
            if self.heap_pos[v] < 0 {
                self.heap_insert(l.var());
            }
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    /// First-UIP conflict analysis: leaves the learned clause in
    /// `self.learnt` (asserting literal first) and returns the backtrack
    /// level.
    fn analyze(&mut self, mut confl: u32) -> u32 {
        self.learnt.clear();
        self.learnt.push(Lit::from_code(0)); // placeholder
        let mut path_count = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        loop {
            debug_assert_ne!(confl, CLAUSE_NONE);
            if self.arena.is_learnt(confl) {
                self.bump_clause(confl);
            }
            let start = usize::from(p.is_some());
            for k in start..self.arena.len(confl) {
                let q = Lit::from_code(self.arena.lits(confl)[k] as usize);
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(q.var());
                    if self.level[v] >= self.decision_level() {
                        path_count += 1;
                    } else {
                        self.learnt.push(q);
                    }
                }
            }
            // Select next literal to resolve on.
            while !self.seen[self.trail[index - 1].var().index()] {
                index -= 1;
            }
            index -= 1;
            let pl = self.trail[index];
            p = Some(pl);
            confl = self.reason[pl.var().index()];
            self.seen[pl.var().index()] = false;
            path_count -= 1;
            if path_count == 0 {
                break;
            }
        }
        self.learnt[0] = !p.expect("resolved at least one literal");

        // Clause minimization: drop literals implied by the rest. Every
        // check reads the `seen` flags of the whole clause, so they are
        // cleared only afterwards, for the dropped literals too (stale
        // flags would corrupt later calls).
        self.dropped.clear();
        let mut kept = 1;
        for k in 1..self.learnt.len() {
            let l = self.learnt[k];
            if self.literal_redundant(l) {
                self.dropped.push(l);
            } else {
                self.learnt[kept] = l;
                kept += 1;
            }
        }
        self.learnt.truncate(kept);
        for &l in self.learnt.iter().chain(&self.dropped) {
            self.seen[l.var().index()] = false;
        }

        // Find the backtrack level (highest level among learnt[1..]).
        let learnt = &mut self.learnt;
        if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for k in 2..learnt.len() {
                if self.level[learnt[k].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = k;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        }
    }

    /// Local redundancy check: `l` is redundant if its reason clause's
    /// other literals are all seen (or at level 0).
    fn literal_redundant(&self, l: Lit) -> bool {
        let r = self.reason[l.var().index()];
        if r == CLAUSE_NONE {
            return false;
        }
        let v = l.var().index();
        self.arena.lits(r).iter().all(|&q| {
            let qv = Lit::from_code(q as usize).var().index();
            qv == v || self.seen[qv] || self.level[qv] == 0
        })
    }

    /// The number of distinct decision levels among `self.learnt`'s
    /// literals: each level is stamped with this count's number the first
    /// time it is seen.
    fn compute_lbd(&mut self) -> u32 {
        self.lbd_count += 1;
        let mut lbd = 0;
        for l in &self.learnt {
            let lv = self.level[l.var().index()] as usize;
            if lv >= self.level_stamp.len() {
                self.level_stamp.resize(lv + 1, 0);
            }
            if self.level_stamp[lv] != self.lbd_count {
                self.level_stamp[lv] = self.lbd_count;
                lbd += 1;
            }
        }
        lbd
    }

    fn search(
        &mut self,
        conflict_ceiling: u64,
        assumptions: &[Lit],
        budget_start: u64,
    ) -> Option<SatResult> {
        loop {
            let confl = self.propagate();
            if confl != CLAUSE_NONE {
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Some(SatResult::Unsat);
                }
                if self.decision_level() <= assumptions.len() as u32 {
                    // Conflict within the assumption prefix.
                    return Some(SatResult::Unsat);
                }
                let bt = self.analyze(confl);
                self.backtrack(
                    bt.max(assumptions.len() as u32)
                        .min(self.decision_level() - 1),
                );
                let l0 = self.learnt[0];
                // After backtracking past assumptions the asserting literal
                // may already be assigned; re-check.
                if self.value(l0) != LBool::Undef {
                    // Can only happen when clamped by assumptions; restart.
                    if self.learnt.len() >= 2 {
                        let lbd = self.compute_lbd();
                        self.attach_learnt(lbd);
                    }
                    return None;
                }
                if self.learnt.len() == 1 {
                    self.backtrack(0);
                    if self.value(l0) == LBool::Undef {
                        self.enqueue(l0, CLAUSE_NONE);
                    }
                } else {
                    let lbd = self.compute_lbd();
                    let cref = self.attach_learnt(lbd);
                    self.bump_clause(cref);
                    self.enqueue(l0, cref);
                }
                self.decay_var_activity();
                self.decay_clause_activity();
                if let Some(budget) = self.conflict_budget {
                    if self.stats.conflicts - budget_start >= budget {
                        return Some(SatResult::Unknown);
                    }
                }
                if self.stats.conflicts - budget_start >= conflict_ceiling {
                    return None; // restart
                }
            } else {
                if self.learnt_refs.len() as f64 >= self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= 1.3;
                }
                // Decide: first satisfy assumptions, then free choice.
                let dl = self.decision_level() as usize;
                if dl < assumptions.len() {
                    let a = assumptions[dl];
                    match self.value(a) {
                        LBool::True => {
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => return Some(SatResult::Unsat),
                        LBool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(a, CLAUSE_NONE);
                        }
                    }
                    continue;
                }
                match self.pick_branch_var() {
                    None => {
                        // Complete assignment: record the model (the
                        // positive literal of each variable has an even
                        // code).
                        self.model.clear();
                        self.model
                            .extend(self.values.iter().step_by(2).map(|&v| v == LBool::True));
                        return Some(SatResult::Sat);
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let phase = self.saved_phase[v.index()];
                        self.enqueue(v.lit(phase), CLAUSE_NONE);
                    }
                }
            }
        }
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.heap_pop() {
            if self.value(v.positive()) == LBool::Undef {
                return Some(v);
            }
        }
        None
    }

    fn reduce_db(&mut self) {
        // Keep the better half of learned clauses (low LBD, high activity).
        // The sort is stable: ties keep the order of the last reduction.
        let mut refs = std::mem::take(&mut self.learnt_refs);
        let arena = &self.arena;
        refs.sort_by(|&a, &b| {
            arena.lbd(a).cmp(&arena.lbd(b)).then(
                arena
                    .activity(b)
                    .partial_cmp(&arena.activity(a))
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let keep = refs.len() / 2;
        for &r in &refs[keep..] {
            if self.is_locked(r) || self.arena.lbd(r) <= 2 {
                continue;
            }
            self.arena.delete(r);
            self.stats.deleted_clauses += 1;
        }
        refs.retain(|&r| !self.arena.is_deleted(r));
        self.learnt_refs = refs;
        if 2 * self.arena.wasted() > self.arena.words() {
            self.collect_garbage();
        }
    }

    /// Compacts the arena and moves every clause reference along: watchers
    /// of deleted clauses go, the rest keep their order in each list.
    fn collect_garbage(&mut self) {
        let moved = self.arena.compact();
        for ws in &mut self.watches {
            ws.retain_mut(|w| match moved.get(w.cref) {
                Some(cref) => {
                    w.cref = cref;
                    true
                }
                None => false,
            });
        }
        // A reason clause is locked, so never deleted.
        for r in self.reason.iter_mut().filter(|r| **r != CLAUSE_NONE) {
            *r = moved.get(*r).expect("reason clauses are live");
        }
        for r in &mut self.learnt_refs {
            *r = moved.get(*r).expect("learnt_refs holds live clauses");
        }
    }

    fn is_locked(&self, cref: u32) -> bool {
        if self.arena.is_deleted(cref) {
            return false;
        }
        let l0 = Lit::from_code(self.arena.lits(cref)[0] as usize);
        self.reason[l0.var().index()] == cref && self.value(l0) == LBool::True
    }

    // ---- activities ------------------------------------------------------

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        if self.heap_pos[v.index()] >= 0 {
            self.heap_up(self.heap_pos[v.index()] as usize);
        }
    }

    fn decay_var_activity(&mut self) {
        self.var_inc /= 0.95;
    }

    fn bump_clause(&mut self, cref: u32) {
        let activity = self.arena.activity(cref) + self.cla_inc;
        self.arena.set_activity(cref, activity);
        if activity > 1e20 {
            // Only learned clauses carry activity: problem clauses stay at
            // zero, and deleted ones are never read again.
            for &r in &self.learnt_refs {
                let a = self.arena.activity(r);
                self.arena.set_activity(r, a * 1e-20);
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn decay_clause_activity(&mut self) {
        self.cla_inc /= 0.999;
    }

    // ---- indexed binary max-heap on activity -----------------------------

    fn heap_insert(&mut self, v: Var) {
        self.heap_pos[v.index()] = self.heap.len() as i32;
        self.heap.push(v);
        self.heap_up(self.heap.len() - 1);
    }

    fn heap_pop(&mut self) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.heap_pos[top.index()] = -1;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last.index()] = 0;
            self.heap_down(0);
        }
        Some(top)
    }

    fn heap_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.activity[self.heap[i].index()] <= self.activity[self.heap[parent].index()] {
                break;
            }
            self.heap_swap(i, parent);
            i = parent;
        }
    }

    fn heap_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < self.heap.len()
                && self.activity[self.heap[l].index()] > self.activity[self.heap[largest].index()]
            {
                largest = l;
            }
            if r < self.heap.len()
                && self.activity[self.heap[r].index()] > self.activity[self.heap[largest].index()]
            {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.heap_swap(i, largest);
            i = largest;
        }
    }

    fn heap_swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.heap_pos[self.heap[i].index()] = i as i32;
        self.heap_pos[self.heap[j].index()] = j as i32;
    }
}

/// The Luby restart sequence scaled by `y`: 1, 1, 2, 1, 1, 2, 4, ...
fn luby(y: f64, mut x: u64) -> f64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    y.powi(seq as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::HEADER;

    fn lits(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| s.new_var().positive()).collect()
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        assert!(s.add_clause(&[v[0]]));
        assert!(s.add_clause(&[!v[0], v[1]]));
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.model_lit(v[0]), Some(true));
        assert_eq!(s.model_lit(v[1]), Some(true));
        s.add_clause(&[!v[1]]);
        assert_eq!(s.solve(), SatResult::Unsat);
        // Stays unsat.
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SatResult::Sat);
        let _ = s.new_var();
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn tautologies_are_ignored() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        assert!(s.add_clause(&[v[0], !v[0]]));
        assert_eq!(s.num_clauses(), 0);
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p[i][j]: pigeon i in hole j.
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..3)
            .map(|_| (0..2).map(|_| s.new_var().positive()).collect())
            .collect();
        for row in &p {
            s.add_clause(row);
        }
        for i1 in 0..3 {
            for i2 in i1 + 1..3 {
                for (a, b) in p[i1].iter().zip(&p[i2]) {
                    s.add_clause(&[!*a, !*b]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_5_into_4_is_unsat() {
        let n = 5;
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..n - 1).map(|_| s.new_var().positive()).collect())
            .collect();
        for row in &p {
            s.add_clause(row);
        }
        for i1 in 0..n {
            for i2 in i1 + 1..n {
                for (a, b) in p[i1].iter().zip(&p[i2]) {
                    s.add_clause(&[!*a, !*b]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn assumptions_work_and_do_not_persist() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[v[0], v[1]]);
        s.add_clause(&[!v[0], v[2]]);
        assert_eq!(s.solve_assuming(&[!v[2]]), SatResult::Sat);
        assert_eq!(s.model_lit(v[0]), Some(false));
        assert_eq!(s.model_lit(v[1]), Some(true));
        // Contradictory assumptions are Unsat but the formula stays Sat.
        assert_eq!(s.solve_assuming(&[v[0], !v[2]]), SatResult::Unsat);
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn conflict_budget_returns_unknown() {
        // A pigeonhole instance large enough to not be solved in 1 conflict.
        let n = 7;
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..n - 1).map(|_| s.new_var().positive()).collect())
            .collect();
        for row in &p {
            s.add_clause(row);
        }
        for i1 in 0..n {
            for i2 in i1 + 1..n {
                for (a, b) in p[i1].iter().zip(&p[i2]) {
                    s.add_clause(&[!*a, !*b]);
                }
            }
        }
        s.set_conflict_budget(Some(1));
        assert_eq!(s.solve(), SatResult::Unknown);
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn incremental_clause_addition() {
        // Graph-coloring-flavored growth: add constraints one at a time.
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_clause(&[v[0], v[1], v[2], v[3]]);
        assert_eq!(s.solve(), SatResult::Sat);
        s.add_clause(&[!v[0]]);
        assert_eq!(s.solve(), SatResult::Sat);
        s.add_clause(&[!v[1]]);
        s.add_clause(&[!v[2]]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.model_lit(v[3]), Some(true));
        s.add_clause(&[!v[3]]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let v = lits(&mut s, 20);
        s.add_clause(&[v[0]]);
        for i in 0..19 {
            s.add_clause(&[!v[i], v[i + 1]]);
        }
        assert_eq!(s.solve(), SatResult::Sat);
        for l in &v {
            assert_eq!(s.model_lit(*l), Some(true));
        }
    }

    /// Deleted clauses are reclaimed: across many reductions the arena
    /// holds at most twice the words of its live clauses and shrinks
    /// again and again (without compaction it only grows), and every
    /// watcher and reason still points at a clause. (The
    /// `search_identity` pins show that compaction leaves the search as
    /// it was.)
    #[test]
    fn arena_stays_within_twice_its_live_words() {
        let mut rng = testrand::Rng::new(0xA7E4A);
        let mut s = Solver::new();
        let v = lits(&mut s, 200);
        for _ in 0..820 {
            let c: Vec<Lit> = (0..3)
                .map(|_| v[rng.usize_below(v.len())].var().lit(rng.bool()))
                .collect();
            s.add_clause(&c);
        }
        let mut shrinks = 0;
        let mut words = 0;
        for _ in 0..40 {
            s.set_conflict_budget(Some(400));
            let a = [v[rng.usize_below(v.len())].var().lit(rng.bool())];
            s.solve_assuming(&a);
            shrinks += usize::from(s.arena.words() < words);
            words = s.arena.words();
            let crefs = s.arena.crefs();
            let live: usize = crefs
                .iter()
                .filter(|&&c| !s.arena.is_deleted(c))
                .map(|&c| HEADER + s.arena.len(c))
                .sum();
            assert!(words <= 2 * live, "{words} words for {live} live");
            for w in s.watches.iter().flatten() {
                assert!(crefs.binary_search(&w.cref).is_ok(), "watcher off a clause");
            }
            for &r in s.reason.iter().filter(|&&r| r != CLAUSE_NONE) {
                assert!(crefs.binary_search(&r).is_ok() && !s.arena.is_deleted(r));
            }
        }
        assert!(shrinks >= 5, "{shrinks} shrinks, {:?}", s.stats());
    }

    #[test]
    fn luby_sequence_prefix() {
        let expect = [1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 4.0, 1.0, 1.0];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(luby(2.0, i as u64), e, "index {i}");
        }
    }
}

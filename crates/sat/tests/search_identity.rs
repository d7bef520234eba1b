//! Pins the solver's search on seeded instances: each instance's verdicts,
//! a digest of its models and its `SolverStats` (conflicts, decisions,
//! propagations, restarts, deleted clauses).
//!
//! The instances exercise every path the search takes: assumptions, a
//! conflict budget, clauses added between calls, learned-clause database
//! reductions on every instance, and one instance that runs past the
//! 46,000 conflicts after which clause activities are rescaled. A change
//! to how the solver stores or visits clauses must leave every row as it
//! is; a row that moves means the search itself changed (a heuristic, a
//! tie-break, the order in which watchers or clause literals are
//! visited).

use sat::{Lit, SatResult, Solver, SolverStats, Var};
use testrand::Rng;

/// What one instance's calls produced.
struct Run {
    /// One letter per call: `S`at, `U`nsat or `?` (budget exhausted).
    verdicts: String,
    /// FNV-1a over the model of every satisfiable call.
    models: u64,
    stats: SolverStats,
}

impl Run {
    /// One row of [`EXPECTED`]: verdicts, model digest, conflicts,
    /// decisions, propagations, restarts and deleted clauses.
    fn row(&self) -> String {
        let s = &self.stats;
        format!(
            "{} {:016x} {} {} {} {} {}",
            self.verdicts,
            self.models,
            s.conflicts,
            s.decisions,
            s.propagations,
            s.restarts,
            s.deleted_clauses
        )
    }
}

/// A clause of three distinct random variables with random signs.
fn random_clause(rng: &mut Rng, vars: &[Var]) -> [Lit; 3] {
    let a = rng.usize_below(vars.len());
    let mut b = rng.usize_below(vars.len());
    while b == a {
        b = rng.usize_below(vars.len());
    }
    let mut c = rng.usize_below(vars.len());
    while c == a || c == b {
        c = rng.usize_below(vars.len());
    }
    [
        vars[a].lit(rng.bool()),
        vars[b].lit(rng.bool()),
        vars[c].lit(rng.bool()),
    ]
}

/// Runs `calls` budgeted calls on one solver over a random 3-SAT formula
/// of `num_vars * ratio / 100` clauses, near the satisfiability threshold.
/// Each call assumes up to three random literals; one to three random
/// clauses are added after each call.
fn run_instance(seed: u64, num_vars: usize, ratio: usize, calls: usize, budget: u64) -> Run {
    let mut rng = Rng::new(seed);
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..num_vars).map(|_| s.new_var()).collect();
    for _ in 0..num_vars * ratio / 100 {
        s.add_clause(&random_clause(&mut rng, &vars));
    }
    let mut verdicts = String::new();
    let mut models = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..calls {
        let assumptions: Vec<Lit> = (0..rng.usize_below(4))
            .map(|_| vars[rng.usize_below(num_vars)].lit(rng.bool()))
            .collect();
        s.set_conflict_budget(Some(budget));
        let r = s.solve_assuming(&assumptions);
        verdicts.push(match r {
            SatResult::Sat => 'S',
            SatResult::Unsat => 'U',
            SatResult::Unknown => '?',
        });
        if r == SatResult::Sat {
            for &v in &vars {
                let bit = s.model_value(v).expect("a model after Sat");
                models = (models ^ u64::from(bit)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        for _ in 0..rng.range(1, 4) {
            s.add_clause(&random_clause(&mut rng, &vars));
        }
    }
    Run {
        verdicts,
        models,
        stats: s.stats(),
    }
}

fn check(runs: &[Run], expected: &[&str]) {
    let got: Vec<String> = runs.iter().map(Run::row).collect();
    assert!(
        got == expected,
        "the search moved; rows now read:\n{}",
        got.join("\n")
    );
}

/// Twelve instances of 145 to 200 variables, eight calls of at most
/// 1,500 conflicts each.
#[test]
fn seeded_instances_keep_their_recorded_search() {
    let runs: Vec<Run> = (1..13u64)
        .map(|k| run_instance(0x5A7_0000 + k, 140 + 5 * k as usize, 410, 8, 1500))
        .collect();
    for r in &runs {
        assert!(r.stats.deleted_clauses > 0, "every instance reduces");
    }
    check(&runs, EXPECTED);
}

/// One solver that runs past the clause-activity rescale (about 46,000
/// conflicts at a decay of 0.999) and keeps reducing after it.
#[test]
fn a_long_run_keeps_its_recorded_search_past_the_activity_rescale() {
    let run = run_instance(0x5A7_1000, 250, 420, 12, 5000);
    assert!(run.stats.conflicts > 46_000, "{:?}", run.stats);
    check(&[run], EXPECTED_LONG);
}

/// One row per instance, as [`Run::row`] writes it. Recorded from the
/// solver that stored each clause as a struct owning a literal `Vec`
/// (before the flat clause arena); the arena reproduces them.
const EXPECTED: &[&str] = &[
    "SSSSSSU? 07f7f073fa5524c7 3377 4280 110686 22 2148",
    "SSSSSS?S b7358b323fc13009 3628 4530 116287 22 2428",
    "US?SSSSS efa5e1f5c6a5e73d 5344 6696 174762 31 3553",
    "SSS?S?UU 2ff41ebd089817d6 6367 8023 209933 41 4848",
    "?SSUSSSU 88e4ceddbe24cc23 6203 7630 212029 38 4620",
    "SSS?SSSU ee08c00383ed3dc9 3941 5002 138043 27 2878",
    "SSSSSSSS 6c33fa785a8c3062 3455 4468 129693 21 2233",
    "???S???? 476933d2eb212e73 11080 13520 391752 67 7658",
    "??S???SS cf79a894dd1050d7 8103 10251 303245 49 6431",
    "??SSS?S? 8842072ab4a4cb11 7458 9344 277051 44 5930",
    "SSSSS?SS 3d963f4303561d8a 3632 4739 146241 23 2226",
    "???????? cbf29ce484222325 12000 15062 448680 72 10082",
];

/// Recorded like [`EXPECTED`].
const EXPECTED_LONG: &[&str] = &["??????SS???? da225726f0812062 51591 64310 2276882 269 41498"];

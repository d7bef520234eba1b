//! A from-scratch CDCL SAT solver.
//!
//! This crate replaces the Z3 SMT solver used by the paper (*Optimizing
//! Majority-Inverter Graphs with Functional Hashing*, DATE 2016, §III) for
//! exact synthesis: the finite-domain SMT formulation is translated to CNF
//! by the `exact` crate and solved here.
//!
//! Architecture: two-watched-literal propagation with blockers, first-UIP
//! clause learning with minimization, VSIDS decision heuristic with phase
//! saving, Luby restarts, and LBD/activity-based learned-clause deletion.
//! Clauses can be added incrementally between [`Solver::solve`] calls, and
//! [`Solver::solve_assuming`] supports assumption literals.
//!
//! Storage: every clause sits inline in one flat `Vec<u32>` arena, as a
//! three-word header (length with learnt/deleted flags, LBD, activity as
//! `f32` bits) followed by its literal codes, and a clause reference is
//! the header's offset. Each literal has its own value byte. Conflict
//! analysis, clause minimization, LBD (counted with per-level stamps) and
//! [`Solver::add_clause`] reuse buffers, so a conflict allocates nothing
//! once they have grown. Database reduction only flags clauses deleted;
//! once deleted clauses fill more than half the arena, an order-preserving
//! compaction slides the live ones down and remaps every watcher, reason
//! and learned-clause reference, so the arena stays within twice its live
//! words. The layout decides only the speed: the tests in
//! `tests/search_identity.rs` pin the verdicts, models and
//! [`SolverStats`] of seeded instances, recorded with the earlier layout
//! that gave each clause its own heap `Vec`.
//!
//! # Examples
//!
//! ```
//! use sat::{SatResult, Solver};
//!
//! let mut solver = Solver::new();
//! let x = solver.new_var();
//! let y = solver.new_var();
//! solver.add_clause(&[x.positive(), y.positive()]);
//! solver.add_clause(&[x.negative(), y.negative()]);
//! assert_eq!(solver.solve(), SatResult::Sat);
//! ```

mod arena;
mod lit;
mod solver;

pub use lit::{LBool, Lit, Var};
pub use solver::{SatResult, Solver, SolverStats};

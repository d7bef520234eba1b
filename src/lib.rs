//! # mig-fh
//!
//! A comprehensive Rust reproduction of *Optimizing Majority-Inverter
//! Graphs with Functional Hashing* (Mathias Soeken, Luca Gaetano Amarù,
//! Pierre-Emmanuel Gaillardon, Giovanni De Micheli — DATE 2016).
//!
//! This meta-crate re-exports the workspace's public API:
//!
//! * [`mig`] — the Majority-Inverter Graph data structure (paper §II-B);
//! * [`truth`] — truth tables and NPN classification (§II-D);
//! * [`cuts`] — k-feasible cut enumeration (§II-C);
//! * [`sat`] — the CDCL SAT solver standing in for Z3;
//! * [`exact`] — exact synthesis of minimum MIGs (§III);
//! * [`npndb`] — the database of minimum MIGs for all 222 4-variable NPN
//!   classes (§V-A);
//! * [`fhash`] — the functional-hashing size optimization (§IV, the
//!   paper's primary contribution) in all its variants (T/TD/TF/TFD/B/BF):
//!   `FunctionalHashing::pass` runs one in-place pass, and
//!   `FunctionalHashing::converge` runs the event-driven convergence
//!   scheduler (built on `mig::run_scheduler`) to a fixpoint;
//! * [`migalg`] — algebraic MIG optimization (refs \[3\], \[4\]) used to
//!   produce "heavily optimized" starting points;
//! * [`aig`] — an AND-inverter-graph substrate and rewriting baseline;
//! * [`techmap`] — a cut-based k-LUT technology mapper (Table IV);
//! * [`benchgen`] — EPFL-style arithmetic benchmark generators (§V-C);
//! * [`cec`] — combinational equivalence checking used to validate every
//!   optimization;
//! * [`io`] — circuit interchange: AIGER (`.aag`/`.aig`) and BLIF
//!   readers/writers with positioned parse errors and lossless document
//!   models, so the optimizer runs on real-world netlists (see also the
//!   `migopt` binary in the `cli` crate, which chains passes over these
//!   crates with an ABC-style pipeline grammar);
//! * [`obs`] — the observability layer every crate above records into:
//!   nested span tracing, the typed metric registry the stats structs
//!   are reconstructed from, Chrome-trace/JSONL exporters and a
//!   dependency-free JSON reader (surfaced as `migopt
//!   --trace`/`--metrics`/`--json-report`).
//!
//! # Quick start
//!
//! ```
//! use mig_fh::fhash::{FunctionalHashing, Variant};
//! use mig_fh::mig::Mig;
//!
//! // Build a tiny redundant MIG and shrink it.
//! let mut m = Mig::new(3);
//! let (a, b, c) = (m.input(0), m.input(1), m.input(2));
//! let x = m.xor(a, b);
//! let y = m.xor(x, c);
//! m.add_output(y);
//!
//! let before = m.num_gates();
//! let engine = FunctionalHashing::with_default_database();
//! engine.pass(&mut m, Variant::TopDown, &mut None);
//! assert!(m.num_gates() <= before);
//! ```

pub use aig;
pub use benchgen;
pub use cec;
pub use cuts;
pub use exact;
pub use fhash;
pub use io;
pub use mig;
pub use migalg;
pub use npndb;
pub use obs;
pub use sat;
pub use techmap;
pub use truth;

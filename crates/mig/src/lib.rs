//! Majority-Inverter Graphs (MIGs).
//!
//! The data structure of the paper *Optimizing Majority-Inverter Graphs
//! with Functional Hashing* (Soeken et al., DATE 2016, §II-B): a DAG of
//! ternary majority gates with complemented edges, primary inputs and the
//! constant 0 as terminals, and (possibly complemented) output pointers.
//!
//! * [`Mig`] — a *managed network*: structural hashing with
//!   majority-axiom normalization, per-node fanout reference lists, a
//!   dead-slot free list, in-place node substitution
//!   ([`Mig::replace_node`]) with recursive dereference and
//!   strash-consistent merging, incrementally maintained levels,
//!   word-parallel and truth-table simulation, topological iteration
//!   ([`Mig::topo_gates`]), sweep/cleanup, DOT export;
//! * [`Signal`] — complement-edge node references;
//! * [`FfrPartition`] — fanout-free-region partitioning (paper §IV-C);
//! * [`RegionPartition`] — sharding the gates into disjoint regions
//!   (FFR forest or level bands) for parallel propose rewriting;
//! * [`ProposeEngine`] / [`run_scheduled_converge`] — the
//!   engine-agnostic event-driven convergence scheduler behind the
//!   functional-hashing converge passes: an engine returns
//!   [`Proposal`]s (a payload with its footprint and gain) into the
//!   parallel-propose, serial-commit machinery ([`commit_proposals`]),
//!   driven by a deterministic priority queue of dirty regions instead
//!   of full re-traversal per round, inside the shared serial-baseline /
//!   fallback / polish skeleton. Callers choose only the
//!   [`ShardConfig`]: threads and an optional step guard.
//!
//! # Examples
//!
//! ```
//! use mig::Mig;
//!
//! // <x1 x2 x3> and its DeMorgan dual hash to the same node.
//! let mut m = Mig::new(3);
//! let (a, b, c) = (m.input(0), m.input(1), m.input(2));
//! let f = m.maj(a, b, c);
//! let g = m.maj(!a, !b, !c);
//! assert_eq!(f, !g);
//! assert_eq!(m.num_gates(), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod fanout;
mod ffr;
pub mod fxhash;
mod graph;
mod region;
mod shard;
mod signal;

pub use fanout::{FanoutList, INLINE_FANOUTS};
pub use ffr::FfrPartition;
pub use graph::{normalize_maj, CompactMap, DirtyCursor, Mig, Normalized};
pub use region::{PartitionStrategy, RegionPartition, RegionView};
pub use shard::{
    commit_proposals, gates_metric, run_scheduled_converge, CommitVerdict, Proposal, ProposeEngine,
    RoundMetric, RoundOutcome, SchedStats, ShardConfig,
};
pub use signal::{NodeId, Signal};

//! Zero-dependency observability: typed metrics + span tracing + export.
//!
//! The optimizer's single source of truth for counters, gauges and
//! duration histograms ([`metrics`]), a lock-cheap span recorder with
//! per-thread buffers and monotonic timestamps ([`trace`]), and two
//! exporters — a line-oriented JSONL event stream and the Chrome
//! trace-event format loadable in Perfetto / `chrome://tracing`
//! ([`export`]). A minimal JSON reader ([`json`]) backs the schema
//! validator (`trace_lint`) and `serde`-free report round-trip tests.
//!
//! # Metrics model
//!
//! Every metric is declared once in a central table ([`Metric`]). Values
//! are recorded either into a thread-local *scope* (opened with
//! [`metrics::scoped`]) or, when no scope is active on the recording
//! thread, into a process-wide atomic registry. Worker threads that
//! record (the convergence scheduler's propose workers) do so inside a
//! scope of their own, which the spawning thread publishes after the
//! join, so a run's scope sees its workers' counts and no other run's.
//! Scopes nest: closing one
//! yields a [`metrics::Delta`] the caller can inspect, then
//! [`publish`](metrics::Delta::publish) into the enclosing scope (or the
//! global registry) — or drop, which is how snapshot-rollback sites
//! discard the counters of work that was undone. Metrics flagged as
//! *history* (scheduler event counts, profiling counters) survive a
//! rollback via [`publish_history`](metrics::Delta::publish_history):
//! the work happened even if its result was thrown away.
//!
//! # Tracing model
//!
//! Tracing is off by default and gated by one atomic load: [`span`]
//! returns an inert guard and records nothing until [`trace::start`] is
//! called. When on, each thread appends to its own buffer (flushed into
//! a shared sink on overflow and at thread exit), so recording is
//! uncontended; [`trace::finish`] drains everything for export.

pub mod export;
pub mod json;
pub mod metrics;
pub mod trace;

pub use metrics::{Delta, Kind, Metric};
pub use trace::{span, span_dyn, Event, Phase, Span};

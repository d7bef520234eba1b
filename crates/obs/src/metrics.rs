//! The typed metric registry: one central definition table, thread-local
//! scopes for run-attributed counters, and a global atomic registry for
//! everything recorded outside a scope (worker threads, process totals).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// What a metric measures and how its slots are laid out.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Monotone `u64` count.
    Counter,
    /// Signed accumulator (e.g. estimated gain; may go negative).
    Gauge,
    /// Duration histogram: total count, summed nanoseconds, and
    /// [`BUCKETS`] log2 buckets starting at 1 µs.
    DurationNs,
    /// Value histogram: total count, summed values, and [`BUCKETS`]
    /// log2 buckets starting at 1 (bucket `i` counts values `< 2^i`).
    Histogram,
}

impl Kind {
    /// Whether the kind lays out histogram slots (count, sum, buckets).
    pub fn is_histogram(self) -> bool {
        matches!(self, Kind::DurationNs | Kind::Histogram)
    }
}

/// One row of the central metric table.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    pub name: &'static str,
    pub kind: Kind,
    /// Event-history metrics record *work that happened* (scheduler
    /// event counts, profiling totals): a snapshot rollback republishes
    /// them via [`Delta::publish_history`] instead of dropping them.
    pub history: bool,
    pub help: &'static str,
}

macro_rules! metrics_table {
    ($($id:ident => $name:literal, $kind:ident, $history:literal, $help:literal;)*) => {
        /// Every metric the optimizer records, declared in one place.
        #[repr(u16)]
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        pub enum Metric {
            $($id),*
        }

        /// Definition rows, indexed by `Metric as usize`.
        pub const DEFS: &[Def] = &[
            $(Def { name: $name, kind: Kind::$kind, history: $history, help: $help }),*
        ];

        /// All metrics, in table order.
        pub const ALL: &[Metric] = &[$(Metric::$id),*];
    };
}

metrics_table! {
    // Run-attributed rewriting counters (dropped when a snapshot
    // rollback undoes the work that recorded them).
    FhReplacements => "fhash.replacements", Counter, false,
        "committed cut replacements / output reroutes (serial engines)";
    FhGain => "fhash.estimated_gain", Gauge, false,
        "summed estimated size gain of committed replacements";
    AlgMerges => "alg.merges", Counter, false,
        "committed Omega.A/Psi.A size merges";
    AlgAssocMoves => "alg.assoc_moves", Counter, false,
        "committed associativity depth moves";
    AlgDistribMoves => "alg.distrib_moves", Counter, false,
        "committed distributivity depth moves";
    ShardCommitted => "shard.committed_proposals", Counter, false,
        "region proposals committed by the scheduler";
    ShardReplacements => "shard.replacements", Counter, false,
        "graph rewrites applied by committed proposals";
    ShardGain => "shard.estimated_gain", Gauge, false,
        "summed estimated gain of committed proposals";

    // Scheduler event history (kept across guard rollbacks: the events
    // happened even when their result was undone).
    SchedSteps => "sched.steps", Counter, true,
        "scheduler steps (== driver rounds)";
    SchedProposedRegions => "sched.proposed_regions", Counter, true,
        "dirty regions handed to propose workers";
    SchedSkippedClean => "sched.skipped_clean", Counter, true,
        "regions skipped because nothing in them changed";
    SchedRetried => "sched.retried", Counter, true,
        "regions re-queued after a conflicted commit";
    SchedRepartitions => "sched.repartitions", Counter, true,
        "partition rebuilds triggered by graph churn";
    ShardConflicted => "shard.conflicted_proposals", Counter, true,
        "proposals refused because an earlier commit of the step touched their footprint";
    FhRounds => "fhash.converge_rounds", Counter, true,
        "functional-hashing convergence rounds";
    AlgRounds => "alg.converge_rounds", Counter, true,
        "algebraic convergence rounds";

    // Profiling hooks around the hot phases (always history).
    CutsRefreshes => "cuts.refreshes", Counter, true,
        "incremental cut-set refreshes that had dirty log entries";
    CutsRefreshNs => "cuts.refresh_ns", DurationNs, true,
        "time spent invalidating cut lists from the dirty log";
    CutsCacheHits => "cuts.cache_hits", Counter, true,
        "cut-list lookups answered from a valid cached list";
    CutsCacheMisses => "cuts.cache_misses", Counter, true,
        "cut-list lookups that had to recompute the list";
    CutsArenaBytes => "cuts.arena_bytes", Gauge, true,
        "bytes reserved by arena-backed cut pools (summed over arenas as they grow)";
    CutsScratchReuse => "cuts.scratch_reuse", Counter, true,
        "cut recomputations served from an already-warm reusable scratch buffer";
    // Retired with the NPN memo (classes come from one process-wide
    // table): never recorded, so it reads 0. Still declared because the
    // benchmark harness names it.
    NpnCanonizations => "npn.canonizations", Counter, true,
        "retired, never recorded: NPN canonizations of 4-input cut functions";
    CutsScored => "fhash.cuts_scored", Counter, true,
        "candidate cuts scored against the database";
    SchedRepartitionNs => "sched.repartition_ns", DurationNs, true,
        "time spent rebuilding region partitions";
    MigLevelSettles => "mig.level_settles", Counter, true,
        "passes that settled deferred level decreases (each recomputes the affected cones once)";
    MigLevelSettleNs => "mig.level_settle_ns", DurationNs, true,
        "time spent settling deferred level decreases";
    CecSatCalls => "cec.sat_calls", Counter, true,
        "SAT equivalence proofs started";
    CecSatNs => "cec.sat_ns", DurationNs, true,
        "time spent inside SAT equivalence proofs";
    CecMerges => "cec.merges", Counter, true,
        "node pairs an equivalence proof showed equal by SAT and merged";
    CecCutMerges => "cec.cut_merges", Counter, true,
        "node pairs an equivalence proof showed equal by cut truth tables, with no SAT call";
    CecSolverCalls => "cec.solver_calls", Counter, true,
        "SAT solver calls made by equivalence proofs";
    CecConflicts => "cec.conflicts", Counter, true,
        "SAT conflicts spent by equivalence proofs";
    CecSimChecks => "cec.sim_checks", Counter, true,
        "random / exhaustive simulation equivalence checks";
    // Retired with the concurrent commit waves (commits are serial):
    // never recorded, so they read 0. Still declared because the
    // benchmark harness names them.
    SchedWaveWidth => "sched.wave_width", Histogram, true,
        "retired, never recorded: runnable proposals per concurrent commit wave";
    SchedWaveFallbacks => "sched.wave_fallbacks", Counter, true,
        "retired, never recorded: wave commits re-run serially after escaping";
    SchedCompactions => "sched.compactions", Counter, true,
        "slot-renumbering compactions triggered by dead-slot density";
    MigBytesPerNode => "mig.bytes_per_node", Gauge, true,
        "approximate storage bytes per node slot (recorded at report time)";
    MigDeadSlotPct => "mig.dead_slot_pct", Gauge, true,
        "percent of slots on the free list (recorded at report time)";

    // Persistent optimization cache (crates/fcache): the result store
    // answers whole-job repeats; load/flush/reject track the on-disk
    // cache file's lifecycle. The two signature counters retired with
    // the signature tier: never recorded, so they read 0. Still declared
    // because the benchmark harness names them.
    CacheSigHits => "cache.sig_hits", Counter, true,
        "retired, never recorded: cut-signature lookups answered from the optimization cache";
    CacheSigMisses => "cache.sig_misses", Counter, true,
        "retired, never recorded: cut-signature lookups that computed and inserted a record";
    CacheResultHits => "cache.result_hits", Counter, true,
        "whole-job pipeline results reused from the cache";
    CacheResultMisses => "cache.result_misses", Counter, true,
        "cacheable whole-job lookups that had to run the pipeline";
    CacheLoaded => "cache.loaded", Counter, true,
        "cache entries validated and installed from disk";
    CacheRejected => "cache.rejected", Counter, true,
        "cache files or entries rejected at load / reuse time";
    CacheFlushed => "cache.flushed", Counter, true,
        "cache entries written back to the on-disk file";
}

/// Log2 duration buckets per histogram; bucket `i` counts durations
/// `< 2^(10 + i)` ns (first bucket ≈ 1 µs, last is an overflow bucket).
pub const BUCKETS: usize = 16;

const fn slots_of(kind: Kind) -> usize {
    match kind {
        Kind::Counter | Kind::Gauge => 1,
        Kind::DurationNs | Kind::Histogram => 2 + BUCKETS,
    }
}

const N_METRICS: usize = DEFS.len();

const OFFSETS: [usize; N_METRICS] = {
    let mut out = [0usize; N_METRICS];
    let mut slot = 0;
    let mut i = 0;
    while i < N_METRICS {
        out[i] = slot;
        slot += slots_of(DEFS[i].kind);
        i += 1;
    }
    out
};

/// Total number of `u64` value slots behind the metric table.
pub const N_SLOTS: usize = OFFSETS[N_METRICS - 1] + slots_of(DEFS[N_METRICS - 1].kind);

impl Metric {
    #[inline]
    pub fn def(self) -> &'static Def {
        &DEFS[self as usize]
    }

    #[inline]
    pub fn name(self) -> &'static str {
        self.def().name
    }

    #[inline]
    fn slot(self) -> usize {
        OFFSETS[self as usize]
    }
}

static GLOBAL: [AtomicU64; N_SLOTS] = [const { AtomicU64::new(0) }; N_SLOTS];

thread_local! {
    static STACK: RefCell<Vec<[u64; N_SLOTS]>> = const { RefCell::new(Vec::new()) };
}

/// Adds `base..base+n` slot deltas to the innermost scope of the calling
/// thread, or to the global registry when no scope is active.
#[inline]
fn record(base: usize, vals: &[u64]) {
    let handled = STACK.with(|s| {
        let mut s = s.borrow_mut();
        match s.last_mut() {
            Some(top) => {
                for (i, v) in vals.iter().enumerate() {
                    if *v != 0 {
                        top[base + i] = top[base + i].wrapping_add(*v);
                    }
                }
                true
            }
            None => false,
        }
    });
    if !handled {
        for (i, v) in vals.iter().enumerate() {
            if *v != 0 {
                GLOBAL[base + i].fetch_add(*v, Ordering::Relaxed);
            }
        }
    }
}

/// Increments a counter.
#[inline]
pub fn add(m: Metric, n: u64) {
    debug_assert!(!m.def().kind.is_histogram());
    if n != 0 {
        record(m.slot(), &[n]);
    }
}

/// Accumulates into a signed gauge (stored as wrapping two's complement).
#[inline]
pub fn addi(m: Metric, n: i64) {
    debug_assert_eq!(m.def().kind, Kind::Gauge);
    if n != 0 {
        record(m.slot(), &[n as u64]);
    }
}

#[inline]
fn bucket_of(ns: u64) -> usize {
    let mut b = 0;
    while b + 1 < BUCKETS && ns >= (1u64 << (10 + b)) {
        b += 1;
    }
    b
}

/// Records one observation into a duration histogram.
#[inline]
pub fn observe_ns(m: Metric, ns: u64) {
    debug_assert_eq!(m.def().kind, Kind::DurationNs);
    let base = m.slot();
    record(base, &[1, ns]);
    record(base + 2 + bucket_of(ns), &[1]);
}

#[inline]
fn value_bucket_of(v: u64) -> usize {
    let mut b = 0;
    while b + 1 < BUCKETS && v >= (1u64 << b) {
        b += 1;
    }
    b
}

/// Records one observation into a value histogram (log2 buckets from 1).
#[inline]
pub fn observe(m: Metric, v: u64) {
    debug_assert_eq!(m.def().kind, Kind::Histogram);
    let base = m.slot();
    record(base, &[1, v]);
    record(base + 2 + value_bucket_of(v), &[1]);
}

/// RAII timer feeding a duration histogram on drop.
pub struct Timer {
    metric: Metric,
    start: Instant,
}

/// Starts a [`Timer`] for histogram metric `m`.
#[inline]
pub fn timer(m: Metric) -> Timer {
    Timer {
        metric: m,
        start: Instant::now(),
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        observe_ns(self.metric, ns);
    }
}

/// A snapshot of metric values: what one scope recorded, or the
/// difference between two global snapshots.
#[derive(Clone, Debug)]
pub struct Delta {
    slots: Box<[u64; N_SLOTS]>,
}

impl Default for Delta {
    fn default() -> Self {
        Delta {
            slots: Box::new([0; N_SLOTS]),
        }
    }
}

impl Delta {
    /// Counter value (0 for histogram metrics' base slot misuse).
    #[inline]
    pub fn get(&self, m: Metric) -> u64 {
        self.slots[m.slot()]
    }

    /// Signed gauge value.
    #[inline]
    pub fn geti(&self, m: Metric) -> i64 {
        self.slots[m.slot()] as i64
    }

    /// Histogram observation count.
    pub fn hist_count(&self, m: Metric) -> u64 {
        debug_assert!(m.def().kind.is_histogram());
        self.slots[m.slot()]
    }

    /// Histogram summed values (nanoseconds for [`Kind::DurationNs`],
    /// raw values for [`Kind::Histogram`]).
    pub fn hist_sum(&self, m: Metric) -> u64 {
        debug_assert!(m.def().kind.is_histogram());
        self.slots[m.slot() + 1]
    }

    /// Histogram summed nanoseconds.
    pub fn hist_sum_ns(&self, m: Metric) -> u64 {
        debug_assert_eq!(m.def().kind, Kind::DurationNs);
        self.slots[m.slot() + 1]
    }

    /// Histogram bucket counts (`BUCKETS` entries, log2 from 1 µs for
    /// durations, log2 from 1 for value histograms).
    pub fn hist_buckets(&self, m: Metric) -> &[u64] {
        debug_assert!(m.def().kind.is_histogram());
        let base = m.slot() + 2;
        &self.slots[base..base + BUCKETS]
    }

    /// Whether any of `ms` is nonzero in this delta.
    pub fn any(&self, ms: &[Metric]) -> bool {
        ms.iter().any(|&m| self.slots[m.slot()] != 0)
    }

    /// Whether every slot is zero.
    pub fn is_zero(&self) -> bool {
        self.slots.iter().all(|&v| v == 0)
    }

    /// Adds `other` into `self` slot-wise.
    pub fn merge(&mut self, other: &Delta) {
        for (a, b) in self.slots.iter_mut().zip(other.slots.iter()) {
            *a = a.wrapping_add(*b);
        }
    }

    /// Slot-wise `self - before` (both taken from [`global_snapshot`]).
    pub fn since(&self, before: &Delta) -> Delta {
        let mut out = Delta::default();
        for i in 0..N_SLOTS {
            out.slots[i] = self.slots[i].wrapping_sub(before.slots[i]);
        }
        out
    }

    /// Re-records every slot into the enclosing scope (or the global
    /// registry): the work this delta describes is kept.
    pub fn publish(&self) {
        record(0, &self.slots[..]);
    }

    /// Re-records only the event-history metrics: used at snapshot
    /// rollbacks, where outcome counters must vanish with the undone
    /// work but event counts (retries, conflicts, profiling)
    /// remain true history.
    pub fn publish_history(&self) {
        for (i, def) in DEFS.iter().enumerate() {
            if !def.history {
                continue;
            }
            let base = OFFSETS[i];
            let n = slots_of(def.kind);
            record(base, &self.slots[base..base + n]);
        }
    }
}

/// Runs `f` inside a fresh metric scope on this thread and returns its
/// result together with everything it recorded. The delta is *not*
/// published automatically — callers decide between
/// [`Delta::publish`], [`Delta::publish_history`] (rollback) or drop.
pub fn scoped<T>(f: impl FnOnce() -> T) -> (T, Delta) {
    STACK.with(|s| s.borrow_mut().push([0; N_SLOTS]));
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            // On unwind, discard the scope (panic paths don't publish).
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
    let guard = Guard;
    let out = f();
    std::mem::forget(guard);
    let slots = STACK
        .with(|s| s.borrow_mut().pop())
        .expect("scope stack underflow");
    (
        out,
        Delta {
            slots: Box::new(slots),
        },
    )
}

/// Runs `f` with every metric it records discarded (speculative work
/// whose counters must not be observable anywhere).
pub fn muted<T>(f: impl FnOnce() -> T) -> T {
    scoped(f).0
}

/// Copies the current global registry values.
pub fn global_snapshot() -> Delta {
    let mut out = Delta::default();
    for (slot, g) in out.slots.iter_mut().zip(GLOBAL.iter()) {
        *slot = g.load(Ordering::Relaxed);
    }
    out
}

/// Renders a delta as an aligned human-readable table (nonzero metrics
/// only), as printed by `migopt --metrics`.
pub fn render_table(d: &Delta) -> String {
    let mut out = String::new();
    let width = DEFS.iter().map(|d| d.name.len()).max().unwrap_or(0);
    for &m in ALL {
        let def = m.def();
        match def.kind {
            Kind::Counter => {
                let v = d.get(m);
                if v != 0 {
                    out.push_str(&format!("{:width$}  {v}\n", def.name));
                }
            }
            Kind::Gauge => {
                let v = d.geti(m);
                if v != 0 {
                    out.push_str(&format!("{:width$}  {v}\n", def.name));
                }
            }
            Kind::DurationNs => {
                let n = d.hist_count(m);
                if n != 0 {
                    let sum = d.hist_sum_ns(m);
                    out.push_str(&format!(
                        "{:width$}  n={n} sum={}us mean={}us\n",
                        def.name,
                        sum / 1_000,
                        sum.checked_div(n).unwrap_or(0) / 1_000,
                    ));
                }
            }
            Kind::Histogram => {
                let n = d.hist_count(m);
                if n != 0 {
                    let sum = d.hist_sum(m);
                    out.push_str(&format!(
                        "{:width$}  n={n} sum={sum} mean={:.2}\n",
                        def.name,
                        sum as f64 / n as f64,
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_nonempty() {
        for (i, a) in DEFS.iter().enumerate() {
            assert!(!a.name.is_empty());
            for b in &DEFS[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn scoped_isolates_and_publish_merges() {
        let (_, outer) = scoped(|| {
            add(Metric::FhReplacements, 2);
            let (_, inner) = scoped(|| {
                add(Metric::FhReplacements, 5);
                addi(Metric::FhGain, -3);
            });
            assert_eq!(inner.get(Metric::FhReplacements), 5);
            assert_eq!(inner.geti(Metric::FhGain), -3);
            inner.publish();
        });
        assert_eq!(outer.get(Metric::FhReplacements), 7);
        assert_eq!(outer.geti(Metric::FhGain), -3);
    }

    #[test]
    fn publish_history_keeps_events_drops_outcomes() {
        let (_, outer) = scoped(|| {
            let (_, d) = scoped(|| {
                add(Metric::FhReplacements, 4);
                add(Metric::SchedRetried, 2);
                add(Metric::ShardConflicted, 1);
            });
            d.publish_history();
        });
        assert_eq!(outer.get(Metric::FhReplacements), 0);
        assert_eq!(outer.get(Metric::SchedRetried), 2);
        assert_eq!(outer.get(Metric::ShardConflicted), 1);
    }

    #[test]
    fn muted_discards_everything() {
        let (_, outer) = scoped(|| {
            muted(|| add(Metric::AlgMerges, 9));
        });
        assert!(outer.is_zero());
    }

    #[test]
    fn histogram_buckets_accumulate() {
        let (_, d) = scoped(|| {
            observe_ns(Metric::CecSatNs, 500); // < 1us -> bucket 0
            observe_ns(Metric::CecSatNs, 3_000); // bucket 1 boundary region
            observe_ns(Metric::CecSatNs, 1 << 40); // overflow bucket
        });
        assert_eq!(d.hist_count(Metric::CecSatNs), 3);
        assert!(d.hist_sum_ns(Metric::CecSatNs) >= 3_500);
        let buckets = d.hist_buckets(Metric::CecSatNs);
        assert_eq!(buckets.iter().sum::<u64>(), 3);
        assert_eq!(buckets[0], 1);
        assert_eq!(buckets[BUCKETS - 1], 1);
    }

    #[test]
    fn value_histogram_buckets_accumulate() {
        // The retired wave-width metric is still the table's only value
        // histogram, so it carries this test of the kind.
        let (_, d) = scoped(|| {
            observe(Metric::SchedWaveWidth, 0); // bucket 0 (< 1)
            observe(Metric::SchedWaveWidth, 1); // bucket 1 (< 2)
            observe(Metric::SchedWaveWidth, 8); // bucket 4 (< 16)
            observe(Metric::SchedWaveWidth, u64::MAX); // overflow bucket
        });
        assert_eq!(d.hist_count(Metric::SchedWaveWidth), 4);
        assert_eq!(d.hist_sum(Metric::SchedWaveWidth), u64::MAX.wrapping_add(9));
        let buckets = d.hist_buckets(Metric::SchedWaveWidth);
        assert_eq!(buckets.iter().sum::<u64>(), 4);
        assert_eq!(buckets[0], 1);
        assert_eq!(buckets[1], 1);
        assert_eq!(buckets[4], 1);
        assert_eq!(buckets[BUCKETS - 1], 1);
    }

    #[test]
    fn unscoped_records_go_global() {
        let before = global_snapshot();
        add(Metric::CutsScored, 11);
        let after = global_snapshot();
        assert!(after.since(&before).get(Metric::CutsScored) >= 11);
    }
}

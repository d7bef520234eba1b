//! Folds a span event stream into per-name totals, self times and
//! latency percentiles.
//!
//! Names are normalized first: a run of digits that ends a `:`-separated
//! segment right after a letter is dropped (`commit:wave12` →
//! `commit:wave`, `propose:r7` → `propose:r`, `commit:wave3:worker1` →
//! `commit:wave:worker`), so one row covers every numbered instance.
//! Segments that are digits only (`pass:algebraic:2`) or end in another
//! character (`fhash!:T@1`) keep their digits.
//!
//! Self time is computed per thread: a span's children are the spans
//! that thread opened inside it, so propose workers running on other
//! threads never subtract from the main thread's `propose`.

use obs::{Event, Phase};
use std::collections::{BTreeMap, HashMap};

/// Everything recorded under one normalized span name.
#[derive(Debug, Clone, Default)]
pub struct SpanStat {
    /// Completed spans.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the time the same thread spent in child
    /// spans.
    pub self_ns: u64,
    /// Every duration, for percentiles.
    pub durs_ns: Vec<u64>,
}

impl SpanStat {
    /// The `q`-quantile of the durations in microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        let us: Vec<f64> = self.durs_ns.iter().map(|&d| d as f64 / 1e3).collect();
        crate::stats::quantile(&us, q)
    }

    /// The longest duration in microseconds.
    pub fn max_us(&self) -> f64 {
        self.durs_ns.iter().copied().max().unwrap_or(0) as f64 / 1e3
    }

    fn merge(&mut self, other: &SpanStat) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.durs_ns.extend_from_slice(&other.durs_ns);
    }
}

/// Per-name statistics of one or more folded traces.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    spans: BTreeMap<String, SpanStat>,
    /// Events folded (begin, end and instant).
    pub events: u64,
}

impl Profile {
    /// The statistics under a normalized name (empty if never seen).
    pub fn get(&self, name: &str) -> SpanStat {
        self.spans.get(name).cloned().unwrap_or_default()
    }

    /// Summed total time of every name starting with `prefix`, in
    /// seconds.
    pub fn total_s_with_prefix(&self, prefix: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, s)| s.total_ns)
            .sum::<u64>() as f64
            / 1e9
    }

    /// Total time under `name` in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0, |s| s.total_ns) as f64 / 1e9
    }

    /// Adds another profile's rows into this one.
    pub fn merge(&mut self, other: &Profile) {
        for (k, s) in &other.spans {
            self.spans.entry(k.clone()).or_default().merge(s);
        }
        self.events += other.events;
    }

    /// Rows ordered by self time, largest first.
    pub fn by_self_time(&self) -> Vec<(&str, &SpanStat)> {
        let mut rows: Vec<(&str, &SpanStat)> =
            self.spans.iter().map(|(k, s)| (k.as_str(), s)).collect();
        rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
        rows
    }
}

/// Drops the digits that end a segment right after a letter.
pub fn normalize(name: &str) -> String {
    name.split(':')
        .map(|seg| {
            let stem = seg.trim_end_matches(|c: char| c.is_ascii_digit());
            if stem.len() < seg.len() && stem.ends_with(|c: char| c.is_ascii_alphabetic()) {
                stem
            } else {
                seg
            }
        })
        .collect::<Vec<_>>()
        .join(":")
}

struct Open {
    name: String,
    begin_ns: u64,
    child_ns: u64,
}

/// Folds `events` (in per-thread timestamp order, as
/// `obs::trace::finish` returns them).
///
/// # Errors
///
/// An unbalanced stream: an end without an open span, an end whose name
/// differs from the innermost open span, a span left open, or a thread
/// whose timestamps go backwards.
pub fn fold(events: &[Event]) -> Result<Profile, String> {
    let mut stacks: HashMap<u64, Vec<Open>> = HashMap::new();
    let mut last_ts: HashMap<u64, u64> = HashMap::new();
    let mut profile = Profile::default();
    for e in events {
        let last = last_ts.entry(e.tid).or_insert(0);
        if e.ts_ns < *last {
            return Err(format!(
                "tid {}: timestamp goes back at '{}'",
                e.tid, e.name
            ));
        }
        *last = e.ts_ns;
        profile.events += 1;
        let stack = stacks.entry(e.tid).or_default();
        match e.ph {
            Phase::Begin => stack.push(Open {
                name: e.name.to_string(),
                begin_ns: e.ts_ns,
                child_ns: 0,
            }),
            Phase::End => {
                let open = stack.pop().ok_or_else(|| {
                    format!("tid {}: end of '{}' with no open span", e.tid, e.name)
                })?;
                if open.name != e.name {
                    return Err(format!(
                        "tid {}: end of '{}' while '{}' is open",
                        e.tid, e.name, open.name
                    ));
                }
                let dur = e.ts_ns - open.begin_ns;
                if let Some(parent) = stack.last_mut() {
                    parent.child_ns += dur;
                }
                let row = profile.spans.entry(normalize(&open.name)).or_default();
                row.count += 1;
                row.total_ns += dur;
                row.self_ns += dur.saturating_sub(open.child_ns);
                row.durs_ns.push(dur);
            }
            Phase::Instant => {}
        }
    }
    if let Some((tid, stack)) = stacks.iter().find(|(_, s)| !s.is_empty()) {
        return Err(format!(
            "tid {tid}: {} span(s) left open, innermost '{}'",
            stack.len(),
            stack.last().map_or("", |o| o.name.as_str())
        ));
    }
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn ev(ph: Phase, name: &'static str, tid: u64, ts_ns: u64) -> Event {
        Event {
            ph,
            name: Cow::Borrowed(name),
            tid,
            ts_ns,
        }
    }

    #[test]
    fn normalizes_numbered_names() {
        assert_eq!(normalize("commit:wave12"), "commit:wave");
        assert_eq!(normalize("sched:step3"), "sched:step");
        assert_eq!(normalize("propose:r7"), "propose:r");
        assert_eq!(normalize("commit:wave3:worker1"), "commit:wave:worker");
        assert_eq!(normalize("pass:algebraic:2"), "pass:algebraic:2");
        assert_eq!(normalize("pass:fhash!:T@1"), "pass:fhash!:T@1");
        assert_eq!(normalize("replace_node"), "replace_node");
    }

    #[test]
    fn self_time_subtracts_children_on_the_same_thread_only() {
        use Phase::{Begin, End};
        // Main thread: propose [0, 100] with a child sched:partition
        // [10, 30]; a worker thread runs propose:r1 [20, 90] and
        // propose:r2 [90, 95] concurrently.
        let events = vec![
            ev(Begin, "propose", 0, 0),
            ev(Begin, "sched:partition", 0, 10),
            ev(Begin, "propose:r1", 1, 20),
            ev(End, "sched:partition", 0, 30),
            ev(End, "propose:r1", 1, 90),
            ev(Begin, "propose:r2", 1, 90),
            ev(End, "propose:r2", 1, 95),
            ev(End, "propose", 0, 100),
        ];
        let p = fold(&events).unwrap();
        let propose = p.get("propose");
        assert_eq!(propose.total_ns, 100);
        assert_eq!(propose.self_ns, 80);
        let r = p.get("propose:r");
        assert_eq!(r.count, 2);
        assert_eq!(r.total_ns, 75);
        assert_eq!(r.self_ns, 75);
        assert_eq!(p.get("sched:partition").self_ns, 20);
        assert_eq!(p.events, 8);
    }

    #[test]
    fn nested_children_and_percentiles() {
        use Phase::{Begin, End, Instant};
        let mut events = vec![ev(Begin, "commit", 0, 0)];
        let mut t = 0;
        for d in 1..=100u64 {
            events.push(ev(Begin, "replace_node", 0, t));
            events.push(ev(Instant, "mark", 0, t));
            t += d;
            events.push(ev(End, "replace_node", 0, t));
        }
        events.push(ev(End, "commit", 0, t + 50));
        let p = fold(&events).unwrap();
        let rn = p.get("replace_node");
        assert_eq!(rn.count, 100);
        assert_eq!(rn.total_ns, 5050);
        assert_eq!(rn.max_us(), 0.1);
        assert!((rn.quantile_us(0.5) - 0.0505).abs() < 1e-9);
        assert_eq!(p.get("commit").self_ns, 50);
        assert_eq!(p.total_s_with_prefix("repl"), 5050e-9);
    }

    #[test]
    fn rejects_unbalanced_streams() {
        use Phase::{Begin, End};
        assert!(fold(&[ev(End, "a", 0, 1)]).is_err());
        assert!(fold(&[ev(Begin, "a", 0, 0), ev(End, "b", 0, 1)]).is_err());
        assert!(fold(&[ev(Begin, "a", 0, 0)]).is_err());
        assert!(fold(&[ev(Begin, "a", 0, 5), ev(End, "a", 0, 4)]).is_err());
        // An end on another thread does not close this thread's span.
        assert!(fold(&[ev(Begin, "a", 0, 0), ev(End, "a", 1, 1)]).is_err());
    }

    #[test]
    fn merged_profiles_add_up() {
        use Phase::{Begin, End};
        let one = fold(&[ev(Begin, "x", 0, 0), ev(End, "x", 0, 10)]).unwrap();
        let mut sum = Profile::default();
        sum.merge(&one);
        sum.merge(&one);
        assert_eq!(sum.get("x").count, 2);
        assert_eq!(sum.total_s("x"), 20e-9);
        assert_eq!(sum.events, 4);
    }
}

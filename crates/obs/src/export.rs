//! Trace and metric exporters: JSONL event stream and Chrome
//! trace-event JSON (load the latter in Perfetto / `chrome://tracing`).

use crate::json::{self, escape, Value};
use crate::metrics::{self, Delta, Kind, Metric};
use crate::trace::{self, Event, Phase};
use std::borrow::Cow;

/// Schema version stamped into the JSONL `meta` line.
pub const JSONL_VERSION: u64 = 1;

/// Line types a JSONL trace may contain, with their required fields
/// (beyond `"type"`). This is the schema `validate_jsonl` and the
/// `trace_lint` binary enforce.
pub const JSONL_SCHEMA: &[(&str, &[&str])] = &[
    ("meta", &["version", "clock"]),
    ("span_begin", &["name", "tid", "ts_ns"]),
    ("span_end", &["name", "tid", "ts_ns"]),
    ("instant", &["name", "tid", "ts_ns"]),
    ("counter", &["name", "value"]),
    ("gauge", &["name", "value"]),
    ("hist", &["name", "count", "sum_ns"]),
    ("vhist", &["name", "count", "sum"]),
    // Terminal record of a streamed job (the `migd` daemon protocol):
    // carries the job id and verdict, plus free-form payload fields
    // (result circuit, runtime, cache counters).
    ("result", &["name", "status"]),
];

fn event_type(ph: Phase) -> &'static str {
    match ph {
        Phase::Begin => "span_begin",
        Phase::End => "span_end",
        Phase::Instant => "instant",
    }
}

/// Renders events (and, optionally, final metric values) as JSONL: one
/// self-describing JSON object per line, `meta` line first.
pub fn jsonl(events: &[Event], metrics_delta: Option<&Delta>) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"type\":\"meta\",\"version\":{JSONL_VERSION},\"clock\":\"ns\"}}\n"
    ));
    for e in events {
        out.push_str(&format!(
            "{{\"type\":\"{}\",\"name\":\"{}\",\"tid\":{},\"ts_ns\":{}}}\n",
            event_type(e.ph),
            escape(&e.name),
            e.tid,
            e.ts_ns
        ));
    }
    if let Some(d) = metrics_delta {
        out.push_str(&metrics_jsonl(d));
    }
    out
}

/// Renders the nonzero metrics of a delta as JSONL lines.
pub fn metrics_jsonl(d: &Delta) -> String {
    let mut out = String::new();
    for &m in metrics::ALL {
        let def = m.def();
        match def.kind {
            Kind::Counter => {
                let v = d.get(m);
                if v != 0 {
                    out.push_str(&format!(
                        "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{v}}}\n",
                        def.name
                    ));
                }
            }
            Kind::Gauge => {
                let v = d.geti(m);
                if v != 0 {
                    out.push_str(&format!(
                        "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{v}}}\n",
                        def.name
                    ));
                }
            }
            Kind::DurationNs => {
                let n = d.hist_count(m);
                if n != 0 {
                    out.push_str(&format!(
                        "{{\"type\":\"hist\",\"name\":\"{}\",\"count\":{n},\"sum_ns\":{}}}\n",
                        def.name,
                        d.hist_sum_ns(m)
                    ));
                }
            }
            Kind::Histogram => {
                let n = d.hist_count(m);
                if n != 0 {
                    out.push_str(&format!(
                        "{{\"type\":\"vhist\",\"name\":\"{}\",\"count\":{n},\"sum\":{}}}\n",
                        def.name,
                        d.hist_sum(m)
                    ));
                }
            }
        }
    }
    out
}

/// Renders events as a Chrome trace-event JSON document
/// (`{"traceEvents": [...]}`); timestamps are microseconds.
pub fn chrome_trace(events: &[Event]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    for e in events {
        let ph = match e.ph {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
        };
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let extra = if e.ph == Phase::Instant {
            ",\"s\":\"t\""
        } else {
            ""
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"{ph}\",\"pid\":1,\"tid\":{},\"ts\":{}.{:03}{extra}}}",
            escape(&e.name),
            e.tid,
            e.ts_ns / 1_000,
            e.ts_ns % 1_000
        ));
    }
    out.push_str("\n]}\n");
    out
}

/// Writes a trace to `path`, choosing the format from the extension:
/// `.jsonl` gets the JSONL event stream (with final metric lines),
/// anything else the Chrome trace-event JSON.
pub fn write_trace(
    path: &std::path::Path,
    events: &[Event],
    metrics_delta: Option<&Delta>,
) -> std::io::Result<()> {
    let text = if path.extension().is_some_and(|e| e == "jsonl") {
        jsonl(events, metrics_delta)
    } else {
        chrome_trace(events)
    };
    std::fs::write(path, text)
}

/// Summary of a validated JSONL trace.
#[derive(Debug, PartialEq, Eq)]
pub struct JsonlSummary {
    pub lines: usize,
    /// Complete (begin/end matched) spans.
    pub spans: usize,
    pub counters: usize,
}

/// Validates JSONL trace text against [`JSONL_SCHEMA`]: every line must
/// parse as a JSON object of a known type with its required fields, the
/// first line must be `meta`, spans must balance per thread with
/// matching names, and the stream must contain at least one event or
/// metric line.
pub fn validate_jsonl(text: &str) -> Result<JsonlSummary, String> {
    let mut events: Vec<Event> = Vec::new();
    let mut counters = 0usize;
    let mut lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            return Err(format!("line {}: blank line in JSONL stream", i + 1));
        }
        lines += 1;
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let ty = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: missing \"type\"", i + 1))?;
        let (_, required) = JSONL_SCHEMA
            .iter()
            .find(|(t, _)| *t == ty)
            .ok_or_else(|| format!("line {}: unknown type \"{ty}\"", i + 1))?;
        for field in *required {
            if v.get(field).is_none() {
                return Err(format!(
                    "line {}: \"{ty}\" missing field \"{field}\"",
                    i + 1
                ));
            }
        }
        if i == 0 && ty != "meta" {
            return Err("line 1: expected a \"meta\" line".into());
        }
        match ty {
            "span_begin" | "span_end" | "instant" => {
                let name = v.get("name").and_then(Value::as_str).unwrap().to_owned();
                let tid = v.get("tid").and_then(Value::as_i64).unwrap();
                let ts = v.get("ts_ns").and_then(Value::as_i64).unwrap();
                if tid < 0 || ts < 0 {
                    return Err(format!("line {}: negative tid/ts_ns", i + 1));
                }
                events.push(Event {
                    ph: match ty {
                        "span_begin" => Phase::Begin,
                        "span_end" => Phase::End,
                        _ => Phase::Instant,
                    },
                    name: Cow::Owned(name),
                    tid: tid as u64,
                    ts_ns: ts as u64,
                });
            }
            "counter" | "gauge" | "hist" | "vhist" | "result" => counters += 1,
            _ => {}
        }
    }
    if lines == 0 {
        return Err("empty trace".into());
    }
    if events.is_empty() && counters == 0 {
        return Err("trace has a meta line but no events or metrics".into());
    }
    let spans = trace::validate(&events)?;
    Ok(JsonlSummary {
        lines,
        spans,
        counters,
    })
}

/// `(label, value)` rates derived from a metric delta over `elapsed`
/// seconds — the context rows attached to benchmark measurements.
pub fn derived_rates(d: &Delta, elapsed_s: f64) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let proposed = d.get(Metric::SchedProposedRegions);
    if proposed != 0 && elapsed_s > 0.0 {
        out.push(("regions_per_s".into(), proposed as f64 / elapsed_s));
    }
    let hits = d.get(Metric::CutsCacheHits);
    let misses = d.get(Metric::CutsCacheMisses);
    if hits + misses != 0 {
        out.push((
            "cut_cache_hit_rate".into(),
            hits as f64 / (hits + misses) as f64,
        ));
    }
    let res_hits = d.get(Metric::CacheResultHits);
    let res_misses = d.get(Metric::CacheResultMisses);
    if res_hits + res_misses != 0 {
        out.push((
            "result_cache_hit_rate".into(),
            res_hits as f64 / (res_hits + res_misses) as f64,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                ph: Phase::Begin,
                name: Cow::Borrowed("pipeline"),
                tid: 0,
                ts_ns: 1_000,
            },
            Event {
                ph: Phase::Begin,
                name: Cow::Borrowed("pass:fhash:T"),
                tid: 0,
                ts_ns: 2_500,
            },
            Event {
                ph: Phase::Instant,
                name: Cow::Borrowed("mark"),
                tid: 1,
                ts_ns: 3_000,
            },
            Event {
                ph: Phase::End,
                name: Cow::Borrowed("pass:fhash:T"),
                tid: 0,
                ts_ns: 4_000,
            },
            Event {
                ph: Phase::End,
                name: Cow::Borrowed("pipeline"),
                tid: 0,
                ts_ns: 9_999,
            },
        ]
    }

    #[test]
    fn jsonl_golden() {
        let (_, d) = metrics::scoped(|| {
            metrics::add(Metric::FhReplacements, 3);
            metrics::addi(Metric::FhGain, -2);
            metrics::observe_ns(Metric::CecSatNs, 2_000);
        });
        let text = jsonl(&sample_events(), Some(&d));
        let expected = "\
{\"type\":\"meta\",\"version\":1,\"clock\":\"ns\"}
{\"type\":\"span_begin\",\"name\":\"pipeline\",\"tid\":0,\"ts_ns\":1000}
{\"type\":\"span_begin\",\"name\":\"pass:fhash:T\",\"tid\":0,\"ts_ns\":2500}
{\"type\":\"instant\",\"name\":\"mark\",\"tid\":1,\"ts_ns\":3000}
{\"type\":\"span_end\",\"name\":\"pass:fhash:T\",\"tid\":0,\"ts_ns\":4000}
{\"type\":\"span_end\",\"name\":\"pipeline\",\"tid\":0,\"ts_ns\":9999}
{\"type\":\"counter\",\"name\":\"fhash.replacements\",\"value\":3}
{\"type\":\"gauge\",\"name\":\"fhash.estimated_gain\",\"value\":-2}
{\"type\":\"hist\",\"name\":\"cec.sat_ns\",\"count\":1,\"sum_ns\":2000}
";
        assert_eq!(text, expected);
        let summary = validate_jsonl(&text).unwrap();
        assert_eq!(
            summary,
            JsonlSummary {
                lines: 9,
                spans: 2,
                counters: 3
            }
        );
    }

    #[test]
    fn chrome_trace_parses_and_balances() {
        let text = chrome_trace(&sample_events());
        let doc = json::parse(&text).unwrap();
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(evs.len(), 5);
        assert_eq!(evs[0].get("ph").unwrap().as_str(), Some("B"));
        assert_eq!(evs[0].get("ts").unwrap().as_f64(), Some(1.0));
        assert_eq!(evs[4].get("ph").unwrap().as_str(), Some("E"));
    }

    #[test]
    fn validate_jsonl_rejects_malformed() {
        assert!(validate_jsonl("").is_err());
        assert!(validate_jsonl("{\"type\":\"meta\",\"version\":1,\"clock\":\"ns\"}\n").is_err());
        let unbalanced = "{\"type\":\"meta\",\"version\":1,\"clock\":\"ns\"}\n\
             {\"type\":\"span_begin\",\"name\":\"a\",\"tid\":0,\"ts_ns\":1}\n";
        assert!(validate_jsonl(unbalanced).is_err());
        let bad_type = "{\"type\":\"meta\",\"version\":1,\"clock\":\"ns\"}\n\
             {\"type\":\"bogus\",\"name\":\"a\"}\n";
        assert!(validate_jsonl(bad_type).is_err());
        let missing_field = "{\"type\":\"meta\",\"version\":1,\"clock\":\"ns\"}\n\
             {\"type\":\"counter\",\"name\":\"x\"}\n";
        assert!(validate_jsonl(missing_field).is_err());
    }
}

//! Exporters: chrome-trace JSON (Perfetto / `chrome://tracing`),
//! Prometheus text exposition, and a compact JSON snapshot for embedding
//! into `BENCH_*.json`.
//!
//! All output is hand-built strings — no serialization dependency — and
//! round-trips through the in-repo parsers in [`crate::parse`], which CI
//! uses for schema validation.

use crate::metrics::{Gauge, Hist, Metric};
use crate::span::SpanEvent;
use crate::Registry;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Lane id used in the chrome trace for spans recorded by threads with no
/// rank attribution (main thread, switch service).
const UNTRACKED_TID: u64 = 999_999;

fn tid_of(rank: Option<usize>) -> u64 {
    match rank {
        Some(r) => r as u64,
        None => UNTRACKED_TID,
    }
}

/// Render all recorded spans as a chrome-trace JSON object
/// (`{"traceEvents": [...]}`) with one lane (`tid`) per rank. Load the
/// result in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
pub fn chrome_trace(reg: &Registry) -> String {
    let evs = reg.span_events();
    let mut out = String::with_capacity(128 + evs.len() * 96);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;

    // One thread_name metadata record per lane so Perfetto labels rows.
    let mut ranks = reg.lane_ranks();
    ranks.sort_by_key(|r| tid_of(*r));
    for rank in ranks {
        let name = match rank {
            Some(r) => format!("rank {r}"),
            None => "untracked".to_string(),
        };
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            tid_of(rank),
            name
        );
    }

    for ev in &evs {
        if !first {
            out.push(',');
        }
        first = false;
        push_complete_event(&mut out, ev);
    }
    out.push_str("]}");
    out
}

fn push_complete_event(out: &mut String, ev: &SpanEvent) {
    // ts/dur are microseconds (float) per the chrome trace event format.
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"depth\":{}",
        ev.name,
        tid_of(ev.rank),
        ev.start_ns as f64 / 1000.0,
        ev.dur_ns as f64 / 1000.0,
        ev.depth
    );
    for (k, v) in ev.args.iter() {
        let _ = write!(out, ",\"{k}\":{v}");
    }
    out.push_str("}}");
}

/// Render counters, gauges and histograms in the Prometheus text
/// exposition format.
pub fn prometheus(reg: &Registry) -> String {
    let mut out = String::new();
    let mut last_family = "";
    for m in Metric::ALL {
        let fam = m.prom_name();
        if fam != last_family {
            let _ = writeln!(out, "# TYPE {fam} counter");
            last_family = fam;
        }
        let _ = writeln!(out, "{} {}", m.key(), reg.counter(m));
    }
    for g in Gauge::ALL {
        let _ = writeln!(out, "# TYPE {} gauge", g.prom_name());
        let _ = writeln!(out, "{} {}", g.prom_name(), reg.gauge(g));
    }
    for h in Hist::ALL {
        let fam = h.prom_name();
        let _ = writeln!(out, "# TYPE {fam} histogram");
        let mut cumulative = 0u64;
        for i in 0..Hist::BUCKETS {
            cumulative += reg.hist_bucket(h, i);
            // Only print buckets up to the last non-empty one to keep the
            // dump short; always print +Inf below.
            if reg.hist_bucket(h, i) != 0 {
                let _ = writeln!(out, "{fam}_bucket{{le=\"{}\"}} {cumulative}", 1u64 << i);
            }
        }
        let (count, sum) = reg.hist_totals(h);
        let _ = writeln!(out, "{fam}_bucket{{le=\"+Inf\"}} {count}");
        let _ = writeln!(out, "{fam}_sum {sum}");
        let _ = writeln!(out, "{fam}_count {count}");
    }
    out
}

/// Render a compact JSON snapshot of all metrics:
/// `{"counters":{...},"gauges":{...},"histograms":{...},"span_events":n,"dropped_events":n}`.
/// This is what the testkit bench harness embeds into `BENCH_*.json`.
pub fn json_snapshot(reg: &Registry) -> String {
    let mut out = String::from("{\"counters\":{");
    let mut first = true;
    for m in Metric::ALL {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{}\":{}", json_escape(&m.key()), reg.counter(m));
    }
    out.push_str("},\"gauges\":{");
    first = true;
    for g in Gauge::ALL {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{}\":{}", g.prom_name(), reg.gauge(g));
    }
    out.push_str("},\"histograms\":{");
    first = true;
    for h in Hist::ALL {
        if !first {
            out.push(',');
        }
        first = false;
        let (count, sum) = reg.hist_totals(h);
        let _ = write!(
            out,
            "\"{}\":{{\"count\":{count},\"sum\":{sum}}}",
            h.prom_name()
        );
    }
    let _ = write!(
        out,
        "}},\"span_events\":{},\"dropped_events\":{}}}",
        reg.span_events().len(),
        reg.dropped_events()
    );
    out
}

/// Minimal JSON string escaping (sufficient for metric keys and names).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Write all three exports with a shared path prefix:
/// `<prefix>.trace.json`, `<prefix>.prom`, `<prefix>.snapshot.json`.
/// Returns the paths written.
pub fn write_all(reg: &Registry, prefix: &str) -> std::io::Result<Vec<PathBuf>> {
    let trace = PathBuf::from(format!("{prefix}.trace.json"));
    let prom = PathBuf::from(format!("{prefix}.prom"));
    let snap = PathBuf::from(format!("{prefix}.snapshot.json"));
    if let Some(dir) = trace.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(&trace, chrome_trace(reg))?;
    std::fs::write(&prom, prometheus(reg))?;
    std::fs::write(&snap, json_snapshot(reg))?;
    Ok(vec![trace, prom, snap])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Metric;

    fn sample_registry() -> Registry {
        let r = Registry::new_enabled();
        {
            let _g = r.install(Some(0));
            crate::add(Metric::FabricMsgs, 4);
            crate::add(Metric::FabricBytes, 1024);
            crate::observe(Hist::FabricMsgBytes, 256);
            let _s = crate::span!("encrypt", elems = 8usize);
        }
        {
            let _g = r.install(Some(1));
            let _s = crate::span!("decrypt", elems = 8usize);
        }
        r
    }

    #[test]
    fn chrome_trace_has_lane_per_rank() {
        let _serial = crate::registry::serial_enabled();
        let r = sample_registry();
        let trace = chrome_trace(&r);
        let parsed = crate::parse::parse_chrome_trace(&trace).expect("self-parse");
        let spans: Vec<_> = parsed.iter().filter(|e| e.ph == "X").collect();
        assert_eq!(spans.len(), 2);
        let tids: Vec<u64> = spans.iter().map(|e| e.tid).collect();
        assert!(tids.contains(&0) && tids.contains(&1));
        assert!(parsed
            .iter()
            .any(|e| e.ph == "M" && e.name == "thread_name"));
    }

    #[test]
    fn prometheus_round_trips_through_parser() {
        let _serial = crate::registry::serial_enabled();
        let r = sample_registry();
        let text = prometheus(&r);
        let samples = crate::parse::parse_prometheus(&text).expect("self-parse");
        let msgs = samples
            .iter()
            .find(|s| s.name == "hear_fabric_messages_total")
            .expect("counter present");
        assert_eq!(msgs.value, 4.0);
        let hist_count = samples
            .iter()
            .find(|s| s.name == "hear_fabric_message_bytes_count")
            .expect("hist count present");
        assert_eq!(hist_count.value, 1.0);
    }

    #[test]
    fn snapshot_is_valid_json_with_counters() {
        let _serial = crate::registry::serial_enabled();
        let r = sample_registry();
        let snap = json_snapshot(&r);
        let v = crate::parse::parse_json(&snap).expect("valid json");
        let counters = v.get("counters").expect("counters key");
        let msgs = counters
            .get("hear_fabric_messages_total")
            .expect("fabric msgs");
        assert_eq!(msgs.as_f64(), Some(4.0));
        assert_eq!(v.get("span_events").and_then(|n| n.as_f64()), Some(2.0));
    }
}

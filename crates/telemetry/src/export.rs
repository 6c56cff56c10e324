//! Exporters: JSON-lines metrics snapshot, Prometheus-style text, and Chrome
//! trace-event JSON (loadable in Perfetto / `chrome://tracing`).
//!
//! The emitters are pure functions of the telemetry state, so two identical
//! runs produce byte-identical artifacts — the same determinism contract the
//! experiment harness already enforces for its own outputs. This crate has
//! no dependencies, so it carries the workspace's one JSON string escaper
//! ([`json_str`], which `fastrak-bench` uses too); the round-trip tests in
//! `fastrak-bench` parse the output with that crate's full JSON parser.

use std::fmt::Write as _;

use crate::recorder::{AuditLog, DecisionKind};
use crate::registry::Registry;
use crate::span::SpanLog;

/// Escape `s` into a JSON string literal (quotes included). The bench
/// JSON emitter (`fastrak_bench::json::quote`) uses it too.
pub fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Format an `f64` as JSON: shortest round-trip representation, always
/// with a decimal point or exponent (`5.0` prints `5.0`, where the bench
/// emitter's `num` prints `5`); non-finite values become `null`.
fn json_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let s = format!("{v}");
    out.push_str(&s);
    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
        out.push_str(".0");
    }
}

/// Render the registry as JSON lines: one object per metric, one per line.
///
/// Counters: `{"kind":"counter","name":...,"value":N}`. Gauges carry a
/// float. Histograms are summarized (count/mean/min/p50/p99/max).
pub fn metrics_jsonl(reg: &Registry) -> String {
    let mut out = String::new();
    for (name, v) in reg.counters() {
        out.push_str("{\"kind\":\"counter\",\"name\":");
        json_str(&mut out, name);
        let _ = writeln!(out, ",\"value\":{v}}}");
    }
    for (name, v) in reg.gauges() {
        out.push_str("{\"kind\":\"gauge\",\"name\":");
        json_str(&mut out, name);
        out.push_str(",\"value\":");
        json_f64(&mut out, v);
        out.push_str("}\n");
    }
    for (name, h) in reg.hists() {
        out.push_str("{\"kind\":\"histogram\",\"name\":");
        json_str(&mut out, name);
        let _ = write!(out, ",\"count\":{},\"mean\":", h.count());
        json_f64(&mut out, h.mean());
        let _ = writeln!(
            out,
            ",\"min\":{},\"p50\":{},\"p99\":{},\"max\":{}}}",
            h.min(),
            h.quantile(0.5),
            h.quantile(0.99),
            h.max()
        );
    }
    out
}

/// Prometheus-ish name: dots become underscores, label braces survive.
fn prom_name(full: &str) -> String {
    match full.find('{') {
        Some(i) => format!("{}{}", full[..i].replace('.', "_"), prom_labels(&full[i..])),
        None => full.replace('.', "_"),
    }
}

/// `{k=v,k2=v2}` → `{k="v",k2="v2"}`.
fn prom_labels(braced: &str) -> String {
    let inner = &braced[1..braced.len() - 1];
    let mut out = String::from("{");
    for (i, pair) in inner.split(',').enumerate() {
        if i > 0 {
            out.push(',');
        }
        match pair.split_once('=') {
            Some((k, v)) => {
                let _ = write!(out, "{k}=\"{v}\"");
            }
            None => out.push_str(pair),
        }
    }
    out.push('}');
    out
}

/// Render the registry as Prometheus text exposition format.
pub fn prometheus_text(reg: &Registry) -> String {
    let mut out = String::new();
    for (name, v) in reg.counters() {
        let _ = writeln!(out, "{} {v}", prom_name(name));
    }
    for (name, v) in reg.gauges() {
        let _ = write!(out, "{} ", prom_name(name));
        json_f64(&mut out, v);
        out.push('\n');
    }
    for (name, h) in reg.hists() {
        let n = prom_name(name);
        let _ = writeln!(out, "{n}_count {}", h.count());
        let _ = writeln!(out, "{n}_min {}", h.min());
        let _ = writeln!(out, "{n}_p50 {}", h.quantile(0.5));
        let _ = writeln!(out, "{n}_p99 {}", h.quantile(0.99));
        let _ = writeln!(out, "{n}_max {}", h.max());
    }
    out
}

/// Microseconds with nanosecond precision, as Chrome's `ts`/`dur` expect.
fn micros(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

/// Render the span log (plus optional audit log) as Chrome trace-event JSON.
///
/// Layout: each component is a *process* (named via `process_name`
/// metadata), each flow id a *thread* within it, so a flow's path residency
/// ("vif" → "sriov") reads as consecutive slices on one Perfetto track.
/// Spans become complete ("X") events and audited decisions become instant
/// ("i") events on the owning component.
pub fn chrome_trace(spans: &SpanLog, audit: Option<&AuditLog>) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let sep = |out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
    };

    // process_name metadata for every component seen in spans.
    let mut comps: Vec<u32> = spans.spans().iter().map(|s| s.comp.index()).collect();
    comps.sort_unstable();
    comps.dedup();
    for c in &comps {
        sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{c},\"tid\":0,\"args\":{{\"name\":"
        );
        json_str(&mut out, spans.resolve(crate::span::CompId::from_index(*c)));
        out.push_str("}}");
    }

    for s in spans.spans() {
        sep(&mut out, &mut first);
        out.push_str("{\"ph\":\"X\",\"name\":");
        json_str(&mut out, &s.name);
        let _ = write!(
            out,
            ",\"pid\":{},\"tid\":{},\"ts\":",
            s.comp.index(),
            s.flow
        );
        micros(&mut out, s.start_ns);
        out.push_str(",\"dur\":");
        let end = if s.end_ns == crate::span::OPEN {
            s.start_ns
        } else {
            s.end_ns
        };
        micros(&mut out, end.saturating_sub(s.start_ns));
        out.push('}');
    }

    if let Some(audit) = audit {
        for d in audit.records() {
            sep(&mut out, &mut first);
            out.push_str("{\"ph\":\"i\",\"s\":\"g\",\"name\":");
            let kind = match d.kind {
                DecisionKind::Offload => "offload",
                DecisionKind::Demote => "demote",
            };
            json_str(&mut out, &format!("{kind} {}", d.subject));
            out.push_str(",\"pid\":0,\"tid\":0,\"ts\":");
            micros(&mut out, d.at_ns);
            out.push_str(",\"args\":{\"score\":");
            json_f64(&mut out, d.score);
            let _ = write!(
                out,
                ",\"sw_bps\":{},\"hw_bps\":{},\"entries_used\":{},\"capacity\":{}}}}}",
                d.fps_split.0, d.fps_split.1, d.entries_used, d.capacity
            );
        }
    }

    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanLog;

    #[test]
    fn metrics_jsonl_lines_are_json_objects() {
        let mut r = Registry::default();
        let c = r.counter("sim.events", &[]);
        r.add(c, 7);
        let g = r.gauge("tor.occupancy", &[("tor", "tor0")]);
        r.gauge_set(g, 0.5);
        let h = r.histogram("lat", &[]);
        r.observe(h, 100);
        let s = metrics_jsonl(&r);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"sim.events\"") && lines[0].contains("\"value\":7"));
        assert!(lines[1].contains("tor.occupancy{tor=tor0}"));
        assert!(lines[2].contains("\"count\":1"));
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn prometheus_rewrites_dots_and_quotes_labels() {
        let mut r = Registry::default();
        let c = r.counter("host.tx.frames", &[("server", "s0"), ("path", "hw")]);
        r.add(c, 3);
        let text = prometheus_text(&r);
        assert_eq!(text, "host_tx_frames{path=\"hw\",server=\"s0\"} 3\n");
    }

    #[test]
    fn chrome_trace_shape() {
        let mut l = SpanLog::default();
        l.set_enabled(true);
        let c = l.comp("s1/vm0");
        l.track_flow_path(1_000_000_000, c, 42, "vif");
        l.track_flow_path(1_500_000_000, c, 42, "sriov");
        l.finish(2_000_000_000);
        let t = chrome_trace(&l, None);
        assert!(t.starts_with("{\"traceEvents\":["));
        assert!(t.contains("\"process_name\""));
        assert!(t.contains("\"name\":\"vif\""));
        assert!(t.contains("\"name\":\"sriov\""));
        // sriov starts at 1.5s = 1_500_000 µs and runs 500_000 µs.
        assert!(t.contains("\"ts\":1500000.000,\"dur\":500000.000"));
    }

    #[test]
    fn chrome_trace_exact_bytes() {
        let mut l = SpanLog::default();
        l.set_enabled(true);
        let vm = l.comp("s1/vm0");
        let ctrl = l.comp("tor-ctrl");
        l.track_flow_path(1_000, vm, 42, "vif");
        let x = l.begin(1_200, ctrl, "offload-xact", 7).unwrap();
        l.end(2_400, x);
        l.track_flow_path(2_500, vm, 42, "sriov");
        l.finish(4_000);
        let mut a = AuditLog::default();
        a.set_enabled(true);
        let subject = "t1/10.0.0.2";
        a.decision(1_100, DecisionKind::Offload, subject, 2.0, (9_000, 0), 1, 2);
        a.decision(3_000, DecisionKind::Demote, subject, 0.25, (0, 8_000), 0, 2);
        let want = concat!(
            r#"{"traceEvents":["#,
            r#"{"ph":"M","name":"process_name","pid":0,"tid":0,"args":{"name":"s1/vm0"}},"#,
            r#"{"ph":"M","name":"process_name","pid":1,"tid":0,"args":{"name":"tor-ctrl"}},"#,
            r#"{"ph":"X","name":"vif","pid":0,"tid":42,"ts":1.000,"dur":1.500},"#,
            r#"{"ph":"X","name":"offload-xact","pid":1,"tid":7,"ts":1.200,"dur":1.200},"#,
            r#"{"ph":"X","name":"sriov","pid":0,"tid":42,"ts":2.500,"dur":1.500},"#,
            r#"{"ph":"i","s":"g","name":"offload t1/10.0.0.2","pid":0,"tid":0,"ts":1.100,"#,
            r#""args":{"score":2.0,"sw_bps":9000,"hw_bps":0,"entries_used":1,"capacity":2}},"#,
            r#"{"ph":"i","s":"g","name":"demote t1/10.0.0.2","pid":0,"tid":0,"ts":3.000,"#,
            r#""args":{"score":0.25,"sw_bps":0,"hw_bps":8000,"entries_used":0,"capacity":2}}"#,
            "]}"
        );
        assert_eq!(chrome_trace(&l, Some(&a)), want);
    }

    #[test]
    fn json_escaping() {
        let mut out = String::new();
        json_str(&mut out, "a\"b\\c\nd");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\"");
    }
}

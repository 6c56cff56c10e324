//! Host-time spans recorded from the benchmark's side of each call into a
//! layer. Kept in memory, written once at exit as Chrome trace-event JSON
//! (loads in Perfetto / `chrome://tracing`).

use std::collections::BTreeMap;
use std::time::Instant;

use fastrak_bench::json;

/// One closed (or still open) span.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Repetition this span belongs to (the shared id of one "request").
    pub rep: u32,
    /// Simulated events processed inside the span (run slices only).
    pub events: Option<u64>,
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

/// The span recorder. Disabled, every call is a branch and nothing else, so
/// the same driver code runs traced and untraced repetitions.
pub struct Tracer {
    on: bool,
    t0: Instant,
    rep: u32,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(t0: Instant) -> Tracer {
        Tracer {
            on: false,
            t0,
            rep: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turn recording on or off for the repetition numbered `rep`.
    pub fn set(&mut self, on: bool, rep: u32) {
        self.on = on;
        self.rep = rep;
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            rep: self.rep,
            events: None,
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        SpanId(Some(idx))
    }

    pub fn end(&mut self, id: SpanId) {
        self.end_with(id, None);
    }

    /// Close a span, attaching the simulated events it covered.
    pub fn end_with(&mut self, id: SpanId, events: Option<u64>) {
        let Some(idx) = id.0 else { return };
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans must close innermost-first");
        let s = &mut self.spans[idx];
        s.end_ns = self.t0.elapsed().as_nanos() as u64;
        s.events = events;
    }

    /// Host ns per simulated event of every `sim.run_until` slice that
    /// processed at least one event.
    pub fn slice_ns_per_event(&self) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == "sim.run_until")
            .filter_map(|s| match s.events {
                Some(e) if e > 0 => Some((s.end_ns - s.start_ns) as f64 / e as f64),
                _ => None,
            })
            .collect()
    }

    /// Per span name: (calls, total ns, self ns), where self time is the
    /// span's duration minus the part its direct children cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Chrome trace-event JSON: one complete ("X") event per span, one
    /// track (`tid`) per repetition, parent index and Δevents in `args`.
    pub fn chrome_json(&self) -> String {
        let events = self.spans.iter().enumerate().map(|(i, s)| {
            let mut args = vec![("span", json::num(i as f64))];
            if let Some(p) = s.parent {
                args.push(("parent", json::num(p as f64)));
            }
            if let Some(e) = s.events {
                args.push(("events", json::num(e as f64)));
            }
            json::object([
                ("name", json::quote(s.name)),
                ("ph", json::quote("X")),
                ("ts", json::num(s.start_ns as f64 / 1e3)),
                ("dur", json::num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", json::num(1.0)),
                ("tid", json::num(f64::from(s.rep))),
                ("args", json::object(args)),
            ])
        });
        json::object([
            ("displayTimeUnit", json::quote("ms")),
            ("traceEvents", json::array(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now());
        let id = t.begin("rep");
        t.end(id);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn self_time_excludes_children_and_json_parses() {
        let mut t = Tracer::new(Instant::now());
        t.set(true, 3);
        let rep = t.begin("rep");
        let run = t.begin("sim.run_until");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end_with(run, Some(1000));
        t.end(rep);
        let sum = t.summary();
        let (calls, total, own) = sum["rep"];
        assert_eq!(calls, 1);
        assert!(own < total, "child time must be subtracted");
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.slice_ns_per_event().len(), 1);
        let doc = json::parse(&t.chrome_json()).expect("valid JSON");
        let evs = doc.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[1].get("tid").and_then(|v| v.as_num()), Some(3.0));
    }
}

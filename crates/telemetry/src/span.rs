//! Sim-time span tracing for flow lifecycles.
//!
//! A span is `(component, name, flow, start_ns, end_ns)` — e.g. the interval
//! a flow spent on the software path, the offload transaction from first
//! install attempt through ack (retries included), or the hardware residency
//! until demotion. Components and span names are interned, so recording is
//! allocation-free after first sight of each string.
//!
//! Times are plain `u64` nanoseconds (this crate sits below `fastrak-sim`
//! and cannot name `SimTime`; callers pass `now.as_nanos()`).
//!
//! Off by default: every record method first checks a plain bool, the same
//! precomputed short-circuit the fault plane and `TraceRing` use, so a
//! disabled log costs one predictable branch.

use crate::fxhash::FxHashMap;
use crate::intern::{Interner, Istr};

/// Interned component id (dense; resolves via [`SpanLog::resolve`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompId(pub(crate) u32);

impl CompId {
    /// Dense index (exporters key processes on it).
    pub fn index(self) -> u32 {
        self.0
    }

    /// Rebuild from a dense index previously returned by [`index`](Self::index).
    pub fn from_index(i: u32) -> CompId {
        CompId(i)
    }
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// End sentinel for a span still open.
pub const OPEN: u64 = u64::MAX;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Component the span belongs to (a server, the ToR, the controller).
    pub comp: CompId,
    /// Span name, e.g. "vif", "sriov", "offload-xact".
    pub name: Istr,
    /// Flow (or transaction) identifier grouping related spans.
    pub flow: u64,
    /// Start, in sim nanoseconds.
    pub start_ns: u64,
    /// End, in sim nanoseconds ([`OPEN`] while unfinished).
    pub end_ns: u64,
}

/// Bounded span log. `Default` is disabled and empty.
#[derive(Debug, Clone)]
pub struct SpanLog {
    enabled: bool,
    capacity: usize,
    interner: Interner,
    spans: Vec<Span>,
    /// Open "path residency" span per (component, flow), with its name.
    open_path: FxHashMap<(u32, u64), u32>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            enabled: false,
            capacity: 1 << 20,
            interner: Interner::default(),
            spans: Vec::new(),
            open_path: FxHashMap::default(),
        }
    }
}

impl SpanLog {
    /// Turn span recording on or off.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Is span recording enabled? Hot paths branch on this before doing any
    /// work (the zero-cost-when-disabled contract).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Intern a component name.
    pub fn comp(&mut self, name: &str) -> CompId {
        CompId(self.interner.intern_id(name))
    }

    /// The name behind a component id.
    pub fn resolve(&self, comp: CompId) -> &str {
        self.interner.resolve(comp.0)
    }

    fn room(&self) -> bool {
        self.spans.len() < self.capacity
    }

    /// Open a span. Returns a handle valid until the log is cleared.
    pub fn begin(&mut self, now_ns: u64, comp: CompId, name: &str, flow: u64) -> Option<SpanId> {
        if !self.enabled || !self.room() {
            return None;
        }
        let name = self.interner.intern(name);
        let id = SpanId(self.spans.len() as u32);
        self.spans.push(Span {
            comp,
            name,
            flow,
            start_ns: now_ns,
            end_ns: OPEN,
        });
        Some(id)
    }

    /// Close a span opened with [`begin`](Self::begin).
    pub fn end(&mut self, now_ns: u64, id: SpanId) {
        if let Some(s) = self.spans.get_mut(id.0 as usize) {
            if s.end_ns == OPEN {
                s.end_ns = now_ns;
            }
        }
    }

    /// Track which path a flow currently rides on `comp`: the first call
    /// opens a span named `path`; a later call with a different path closes
    /// the open span at `now_ns` and opens the next one. Same-path calls are
    /// no-ops, so this is safe to invoke per packet (after the `enabled()`
    /// guard).
    pub fn track_flow_path(&mut self, now_ns: u64, comp: CompId, flow: u64, path: &str) {
        if !self.enabled {
            return;
        }
        if let Some(&idx) = self.open_path.get(&(comp.0, flow)) {
            if self.spans[idx as usize].name == *path {
                return;
            }
            self.spans[idx as usize].end_ns = now_ns;
        }
        if !self.room() {
            self.open_path.remove(&(comp.0, flow));
            return;
        }
        let name = self.interner.intern(path);
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            comp,
            name,
            flow,
            start_ns: now_ns,
            end_ns: OPEN,
        });
        self.open_path.insert((comp.0, flow), idx);
    }

    /// Close all open spans at `now_ns` (end of run).
    pub fn finish(&mut self, now_ns: u64) {
        for s in &mut self.spans {
            if s.end_ns == OPEN {
                s.end_ns = now_ns;
            }
        }
        self.open_path.clear();
    }

    /// All recorded spans, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut l = SpanLog::default();
        let c = l.comp("s0");
        assert!(l.begin(0, c, "vif", 7).is_none());
        l.track_flow_path(0, c, 7, "vif");
        assert!(l.spans().is_empty());
    }

    #[test]
    fn begin_end_records_interval() {
        let mut l = SpanLog::default();
        l.set_enabled(true);
        let c = l.comp("ctrl");
        let s = l.begin(100, c, "offload-xact", 42).unwrap();
        l.end(350, s);
        let spans = l.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].start_ns, 100);
        assert_eq!(spans[0].end_ns, 350);
        assert_eq!(spans[0].name, "offload-xact");
        assert_eq!(l.resolve(spans[0].comp), "ctrl");
    }

    #[test]
    fn track_flow_path_closes_previous_on_change() {
        let mut l = SpanLog::default();
        l.set_enabled(true);
        let c = l.comp("s0");
        l.track_flow_path(0, c, 7, "vif");
        l.track_flow_path(10, c, 7, "vif"); // same path: no-op
        l.track_flow_path(1_000, c, 7, "sriov");
        l.finish(2_000);
        let spans = l.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "vif");
        assert_eq!((spans[0].start_ns, spans[0].end_ns), (0, 1_000));
        assert_eq!(spans[1].name, "sriov");
        assert_eq!((spans[1].start_ns, spans[1].end_ns), (1_000, 2_000));
    }

    #[test]
    fn flows_and_components_are_independent() {
        let mut l = SpanLog::default();
        l.set_enabled(true);
        let a = l.comp("s0");
        let b = l.comp("s1");
        l.track_flow_path(0, a, 1, "vif");
        l.track_flow_path(0, b, 1, "sriov");
        l.track_flow_path(0, a, 2, "vif");
        assert_eq!(l.spans().len(), 3);
    }

    #[test]
    fn capacity_drops_new_records() {
        let mut l = SpanLog {
            capacity: 2,
            ..SpanLog::default()
        };
        l.set_enabled(true);
        let c = l.comp("x");
        for f in 0..5 {
            l.begin(0, c, "s", f);
        }
        assert_eq!(l.spans().len(), 2);
    }
}

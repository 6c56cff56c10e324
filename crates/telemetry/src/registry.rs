//! Typed metrics registry.
//!
//! Metrics are declared once — hierarchical dotted name plus a static label
//! set, e.g. `("host.tx.frames", &[("server", "s0"), ("path", "hw")])` — and
//! the registry interns the rendered name (`host.tx.frames{path=hw,server=s0}`)
//! into a dense id. After registration, a hot-path record is a bare array
//! index: no hashing, no allocation, no branch on an enabled flag.
//!
//! Counters are monotonic `u64`s, gauges are last-write-wins `f64`s, and
//! histograms are the log-bucketed [`Histogram`]. Components that already
//! keep cheap local counters mirror them in with [`Registry::set_counter`]
//! at snapshot time (pull model), which keeps the packet path untouched and
//! makes the registry the single source of truth at export time.

use crate::fxhash::FxHashMap;
use crate::hist::Histogram;

/// Dense handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterId(u32);

/// Dense handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GaugeId(u32);

/// Dense handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HistId(u32);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Hist,
}

/// The metrics registry. `Default` is empty (and therefore free).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    by_name: FxHashMap<String, (Kind, u32)>,
    counter_names: Vec<String>,
    counters: Vec<u64>,
    gauge_names: Vec<String>,
    gauges: Vec<f64>,
    hist_names: Vec<String>,
    hists: Vec<Histogram>,
}

/// Render `name` + labels as `name{k1=v1,k2=v2}` (labels sorted by key so
/// the same set always produces the same metric identity).
fn render(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut ls: Vec<(&str, &str)> = labels.to_vec();
    ls.sort_unstable();
    let mut out = String::with_capacity(name.len() + 16 * ls.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in ls.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    out.push('}');
    out
}

impl Registry {
    /// Register (or look up) a counter. Re-registering the same rendered
    /// name returns the existing id.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)]) -> CounterId {
        let full = render(name, labels);
        if let Some(&(kind, id)) = self.by_name.get(&full) {
            assert_eq!(kind, Kind::Counter, "metric {full} registered as {kind:?}");
            return CounterId(id);
        }
        let id = self.counters.len() as u32;
        self.by_name.insert(full.clone(), (Kind::Counter, id));
        self.counter_names.push(full);
        self.counters.push(0);
        CounterId(id)
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)]) -> GaugeId {
        let full = render(name, labels);
        if let Some(&(kind, id)) = self.by_name.get(&full) {
            assert_eq!(kind, Kind::Gauge, "metric {full} registered as {kind:?}");
            return GaugeId(id);
        }
        let id = self.gauges.len() as u32;
        self.by_name.insert(full.clone(), (Kind::Gauge, id));
        self.gauge_names.push(full);
        self.gauges.push(0.0);
        GaugeId(id)
    }

    /// Register (or look up) a histogram.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)]) -> HistId {
        let full = render(name, labels);
        if let Some(&(kind, id)) = self.by_name.get(&full) {
            assert_eq!(kind, Kind::Hist, "metric {full} registered as {kind:?}");
            return HistId(id);
        }
        let id = self.hists.len() as u32;
        self.by_name.insert(full.clone(), (Kind::Hist, id));
        self.hist_names.push(full);
        self.hists.push(Histogram::new());
        HistId(id)
    }

    /// Increment a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0 as usize] += 1;
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0 as usize] += n;
    }

    /// Overwrite a counter with an absolute value (snapshot mirroring of a
    /// component-local counter; the registry stays the export-time truth).
    #[inline]
    pub fn set_counter(&mut self, id: CounterId, v: u64) {
        self.counters[id.0 as usize] = v;
    }

    /// Set a gauge.
    #[inline]
    pub fn gauge_set(&mut self, id: GaugeId, v: f64) {
        self.gauges[id.0 as usize] = v;
    }

    /// Record a sample into a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistId, v: u64) {
        self.hists[id.0 as usize].record(v);
    }

    /// Look up a counter by rendered name (`name` or `name{k=v,...}` with
    /// keys sorted). For tests and experiment reporting.
    pub fn counter_by_name(&self, full: &str) -> Option<u64> {
        match self.by_name.get(full) {
            Some(&(Kind::Counter, id)) => Some(self.counters[id as usize]),
            _ => None,
        }
    }

    /// Look up a gauge by rendered name.
    pub fn gauge_by_name(&self, full: &str) -> Option<f64> {
        match self.by_name.get(full) {
            Some(&(Kind::Gauge, id)) => Some(self.gauges[id as usize]),
            _ => None,
        }
    }

    /// All counters as (rendered name, value), in registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counter_names
            .iter()
            .zip(&self.counters)
            .map(|(n, &v)| (n.as_str(), v))
    }

    /// All gauges as (rendered name, value), in registration order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauge_names
            .iter()
            .zip(&self.gauges)
            .map(|(n, &v)| (n.as_str(), v))
    }

    /// All histograms as (rendered name, histogram), in registration order.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.hist_names
            .iter()
            .zip(&self.hists)
            .map(|(n, h)| (n.as_str(), h))
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }

    /// Total number of registered metrics.
    pub fn len(&self) -> usize {
        self.by_name.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_dedups_and_counts() {
        let mut r = Registry::default();
        let a = r.counter("sim.events", &[]);
        let b = r.counter("sim.events", &[]);
        assert_eq!(a, b);
        r.inc(a);
        r.add(b, 2);
        assert_eq!(r.counter_by_name("sim.events"), Some(3));
    }

    #[test]
    fn labels_sort_into_one_identity() {
        let mut r = Registry::default();
        let a = r.counter("host.tx", &[("path", "hw"), ("server", "s0")]);
        let b = r.counter("host.tx", &[("server", "s0"), ("path", "hw")]);
        assert_eq!(a, b);
        r.inc(a);
        assert_eq!(r.counter_by_name("host.tx{path=hw,server=s0}"), Some(1));
    }

    #[test]
    fn gauges_and_histograms() {
        let mut r = Registry::default();
        let g = r.gauge("tor.occupancy", &[]);
        r.gauge_set(g, 0.75);
        assert_eq!(r.gauge_by_name("tor.occupancy"), Some(0.75));
        let h = r.histogram("tcp.cwnd", &[("server", "s1")]);
        r.observe(h, 10);
        r.observe(h, 20);
        let (name, hist) = r.hists().next().unwrap();
        assert_eq!((name, hist.count()), ("tcp.cwnd{server=s1}", 2));
    }

    #[test]
    fn set_counter_mirrors_absolute_values() {
        let mut r = Registry::default();
        let c = r.counter("sim.fault.dropped", &[]);
        r.set_counter(c, 41);
        r.set_counter(c, 42); // snapshots overwrite, not accumulate
        assert_eq!(r.counter_by_name("sim.fault.dropped"), Some(42));
    }

    #[test]
    fn unknown_names_are_none() {
        let r = Registry::default();
        assert!(r.is_empty());
        assert_eq!(r.counter_by_name("nope"), None);
        assert_eq!(r.gauge_by_name("nope"), None);
    }

    #[test]
    fn iteration_in_registration_order() {
        let mut r = Registry::default();
        r.counter("b", &[]);
        r.counter("a", &[]);
        let names: Vec<&str> = r.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["b", "a"]);
        assert_eq!(r.len(), 2);
    }
}

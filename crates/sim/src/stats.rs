//! Measurement primitives: counters, rate meters, time-weighted averages,
//! and an HDR-style log-bucketed histogram for latency percentiles.
//!
//! The experiment harness reports the same statistics the paper does: mean
//! and 99th-percentile latency (Fig. 3/5), transactions per second, and mean
//! finish times (Tables 1-4). The histogram trades a bounded ~1.6% relative
//! error for O(1) record cost and fixed memory, which is the standard
//! engineering choice (HdrHistogram) for latency capture.

use crate::time::{SimDuration, SimTime};

/// The log-bucketed histogram now lives in `fastrak-telemetry` (the metrics
/// registry owns histograms, and telemetry sits below this crate);
/// re-exported so `fastrak_sim::stats::Histogram` keeps working. Duration
/// typed helpers are layered back on via [`HistogramDurationExt`].
pub use fastrak_telemetry::hist::Histogram;

/// Monotonic event counter with byte accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counter {
    /// Number of events (e.g. packets).
    pub count: u64,
    /// Accumulated bytes.
    pub bytes: u64,
}

impl Counter {
    /// Record one event carrying `bytes`.
    pub fn add(&mut self, bytes: u64) {
        self.count += 1;
        self.bytes += bytes;
    }

    /// Merge another counter into this one.
    pub fn merge(&mut self, other: Counter) {
        self.count += other.count;
        self.bytes += other.bytes;
    }

    /// Difference since an earlier snapshot (for Δp/Δb rate measurement, the
    /// paper's Measurement Engine primitive).
    pub fn delta(&self, earlier: Counter) -> Counter {
        Counter {
            count: self.count - earlier.count,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Outcome counters for the fault-injection plane ([`crate::fault`]): how
/// many messages were inspected and what happened to them, plus forced
/// hardware install failures. Experiments surface these next to controller
/// convergence metrics so a run's fault pressure is auditable.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultCounters {
    /// Messages that reached the sampling stage (fault-eligible, on an
    /// active link, inside the activity window).
    pub inspected: u64,
    /// Messages silently dropped.
    pub dropped: u64,
    /// Messages delivered with extra delay.
    pub delayed: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Hardware rule installs forced to fail by a scripted window.
    pub forced_install_failures: u64,
}

impl FaultCounters {
    /// Mirror these counters into a telemetry registry under `sim.fault.*`.
    ///
    /// The registry copies are snapshots of this struct (single source of
    /// truth), so `fault_matrix` output and telemetry exports cannot drift.
    pub fn publish_into(&self, reg: &mut fastrak_telemetry::Registry) {
        for (name, v) in [
            ("sim.fault.inspected", self.inspected),
            ("sim.fault.dropped", self.dropped),
            ("sim.fault.delayed", self.delayed),
            ("sim.fault.duplicated", self.duplicated),
            (
                "sim.fault.forced_install_failures",
                self.forced_install_failures,
            ),
        ] {
            let id = reg.counter(name, &[]);
            reg.set_counter(id, v);
        }
    }
}

/// Windowed throughput meter: events/sec and bits/sec over explicit windows.
#[derive(Debug, Clone, Default)]
pub struct MeterRate {
    total: Counter,
    window_start: SimTime,
    window_base: Counter,
}

impl MeterRate {
    /// Record one event carrying `bytes`.
    pub fn add(&mut self, bytes: u64) {
        self.total.add(bytes);
    }

    /// Cumulative counter since construction.
    pub fn total(&self) -> Counter {
        self.total
    }

    /// Restart the measurement window at `now`.
    pub fn begin_window(&mut self, now: SimTime) {
        self.window_start = now;
        self.window_base = self.total;
    }

    /// Events per second over the current window.
    pub fn events_per_sec(&self, now: SimTime) -> f64 {
        let dt = now.since(self.window_start).as_secs_f64();
        if dt <= 0.0 {
            return 0.0;
        }
        self.total.delta(self.window_base).count as f64 / dt
    }

    /// Bits per second over the current window.
    pub fn bits_per_sec(&self, now: SimTime) -> f64 {
        let dt = now.since(self.window_start).as_secs_f64();
        if dt <= 0.0 {
            return 0.0;
        }
        self.total.delta(self.window_base).bytes as f64 * 8.0 / dt
    }
}

/// Time-weighted average of a piecewise-constant value (queue lengths,
/// offloaded-rule counts).
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_value: f64,
    last_time: SimTime,
    weighted_sum: f64,
    start: SimTime,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        TimeWeighted {
            last_value: 0.0,
            last_time: SimTime::ZERO,
            weighted_sum: 0.0,
            start: SimTime::ZERO,
        }
    }
}

impl TimeWeighted {
    /// Record that the value changed to `value` at `now`.
    pub fn set(&mut self, now: SimTime, value: f64) {
        let dt = now.since(self.last_time).as_secs_f64();
        self.weighted_sum += self.last_value * dt;
        self.last_value = value;
        self.last_time = now;
    }

    /// Time-weighted mean from start through `now`.
    pub fn mean(&self, now: SimTime) -> f64 {
        let dt_tail = now.since(self.last_time).as_secs_f64();
        let total = now.since(self.start).as_secs_f64();
        if total <= 0.0 {
            return self.last_value;
        }
        (self.weighted_sum + self.last_value * dt_tail) / total
    }
}

/// Duration-typed convenience layer over the telemetry [`Histogram`]
/// (samples are interpreted as nanoseconds). The histogram itself is
/// duration-agnostic — `fastrak-telemetry` cannot name [`SimDuration`] —
/// so the sim-time view lives here.
pub trait HistogramDurationExt {
    /// Record a duration sample in nanoseconds.
    fn record_duration(&mut self, d: SimDuration);

    /// Convenience: mean as a `SimDuration` (samples interpreted as ns).
    fn mean_duration(&self) -> SimDuration;

    /// Convenience: quantile as a `SimDuration`.
    fn quantile_duration(&self, q: f64) -> SimDuration;
}

impl HistogramDurationExt for Histogram {
    fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    fn mean_duration(&self) -> SimDuration {
        SimDuration(self.mean().round() as u64)
    }

    fn quantile_duration(&self, q: f64) -> SimDuration {
        SimDuration(self.quantile(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_delta() {
        let mut c = Counter::default();
        c.add(100);
        let snap = c;
        c.add(200);
        c.add(300);
        let d = c.delta(snap);
        assert_eq!(d.count, 2);
        assert_eq!(d.bytes, 500);
    }

    #[test]
    fn meter_rates() {
        let mut m = MeterRate::default();
        m.begin_window(SimTime::ZERO);
        for _ in 0..1000 {
            m.add(1250);
        }
        let now = SimTime::from_secs(1);
        assert!((m.events_per_sec(now) - 1000.0).abs() < 1e-9);
        assert!((m.bits_per_sec(now) - 10_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn meter_window_isolates() {
        let mut m = MeterRate::default();
        for _ in 0..500 {
            m.add(1);
        }
        m.begin_window(SimTime::from_secs(1));
        for _ in 0..100 {
            m.add(1);
        }
        assert!((m.events_per_sec(SimTime::from_secs(2)) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_mean() {
        let mut tw = TimeWeighted::default();
        tw.set(SimTime::ZERO, 10.0);
        tw.set(SimTime::from_secs(1), 0.0);
        // 10 for 1s, 0 for 1s => mean 5 over 2s.
        assert!((tw.mean(SimTime::from_secs(2)) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_duration_ext_roundtrips_nanos() {
        // Bucket math lives (and is tested) in fastrak-telemetry; this
        // covers the SimDuration view layered on top.
        let mut h = Histogram::new();
        h.record_duration(SimDuration(10));
        h.record_duration(SimDuration(30));
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean_duration(), SimDuration(20));
        assert_eq!(h.quantile_duration(1.0), SimDuration(30));
    }

    #[test]
    fn fault_counters_publish_snapshots_into_registry() {
        let mut reg = fastrak_telemetry::Registry::default();
        let mut fc = FaultCounters {
            inspected: 10,
            dropped: 3,
            delayed: 2,
            duplicated: 1,
            forced_install_failures: 4,
        };
        fc.publish_into(&mut reg);
        assert_eq!(reg.counter_by_name("sim.fault.dropped"), Some(3));
        // Re-publishing overwrites (snapshot semantics, no double counting).
        fc.dropped = 5;
        fc.publish_into(&mut reg);
        assert_eq!(reg.counter_by_name("sim.fault.dropped"), Some(5));
        assert_eq!(
            reg.counter_by_name("sim.fault.forced_install_failures"),
            Some(4)
        );
    }
}
